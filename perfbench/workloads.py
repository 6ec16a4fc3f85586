"""The benchmark's workloads: the argv each operation sends and its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. An operation is one or two in-process calls
of `wavemod.cli.main(argv)`; the program only sees the generated argv and
files.

- sweep-wm2: one `ber-sweep --method wm2` call. Blocks are 32768 samples,
  so per-sample kernel and AWGN cost dominate.
- sweep-wm1: the same sweep with `--method wm1`. Blocks are 1024 samples,
  so per-call overhead in the filterbank, placement and detection shows.
  It runs by hand; BENCHMARK.json leaves it out as unsteady on a shared
  host (see README.md).
- cli-roundtrip: `modulate` then `demodulate` of a random 512-bit message,
  noiseless. CLI text I/O dominates; it is the control for filterbank work.

Sweep grids sit on the waterfall where every point expects 50 or more bit
errors, so the 3-SE check against theory uses a sound normal
approximation. The low-SNR points stop on --min-errors and the last one on
--max-trials, so both stop rules run.
"""

import csv
import math
import random
from pathlib import Path

import numpy as np

SCALES = 6
TAPS = 4
MESSAGE_LEN = 512

SWEEP_FLAGS = {
    "sweep-wm2": [
        "--method", "wm2", "--scales", str(SCALES), "--message-len", str(MESSAGE_LEN),
        "--taps", str(TAPS), "--snr-grid=-12:-9:1", "--min-errors", "100",
        "--max-trials", "40",
    ],
    "sweep-wm1": [
        "--method", "wm1", "--scales", str(SCALES), "--message-len", str(MESSAGE_LEN),
        "--taps", str(TAPS), "--snr-grid=3:9:2", "--min-errors", "100",
        "--max-trials", "120",
    ],
}

MODEM_FLAGS = ["--method", "wm2", "--scales", str(SCALES), "--taps", str(TAPS)]

# Program seeds with a stored reference CSV per sweep workload. The
# benchmark seed picks the order in which a run visits them.
REFERENCE_SEEDS = range(16)
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Samples per block: Method 2 repeats the message at every scale, Method 1
# decimates it, so n0 = L / 2**(M-1) and N = n0 * 2**M.
BLOCK_SAMPLES = {
    "sweep-wm2": MESSAGE_LEN * 2**SCALES,
    "sweep-wm1": MESSAGE_LEN // 2 ** (SCALES - 1) * 2**SCALES,
    "cli-roundtrip": MESSAGE_LEN * 2**SCALES,
}


def mflop_per_block(workload):
    """Computed, not counted: floating-point work of one synthesis plus one
    analysis pyramid. A level on N samples does taps multiply-adds for each
    of N outputs (both branches), 2*N*taps flops, and the levels of one
    pyramid cover 2*N*(1 - 2**-M) samples."""
    n = BLOCK_SAMPLES[workload]
    per_pyramid = 2 * TAPS * 2 * n * (1 - 2.0**-SCALES)
    return 2 * per_pyramid / 1e6


def sweep_argv(workload, program_seed, out_csv):
    return ["ber-sweep", *SWEEP_FLAGS[workload], "--seed", str(program_seed),
            "--out", str(out_csv)]


def read_sweep_rows(path):
    """The CSV fields the reference pins: method, SNR, trials, errors."""
    with open(path, newline="") as handle:
        return [
            [r["method"], r["snr_db_per_copy"], int(r["trials"]), int(r["errors"])]
            for r in csv.DictReader(handle)
        ]


def three_se_misses(path):
    """Points whose simulated BER is not within 3 SE of theory, computed as
    the acceptance tests do: se = sqrt(p (1 - p) / trials), dev < 3 se."""
    misses = []
    with open(path, newline="") as handle:
        for r in csv.DictReader(handle):
            p = float(r["ber_theory"])
            se = math.sqrt(p * (1 - p) / int(r["trials"]))
            dev = abs(float(r["ber_sim"]) - p)
            if not dev < 3 * se:
                misses.append(f"{r['method']} {r['snr_db_per_copy']} dB: {dev / se:.2f} SE")
    return misses


class Sweep:
    """One ber-sweep call per operation, checked against a stored reference."""

    def __init__(self, name, seed, workdir, reference):
        if reference["flags"] != SWEEP_FLAGS[name]:
            raise SystemExit(f"{REFERENCE_PATH.name} was made with other flags for {name}; "
                             "regenerate it with perfbench/make_reference.py")
        self.name = name
        self.rows = reference["rows"]
        self.order = random.Random(seed).sample(list(REFERENCE_SEEDS), len(REFERENCE_SEEDS))
        self.out = workdir / f"{name}.csv"

    def program_seed(self, i):
        return self.order[i % len(self.order)]

    def prepare(self, i):
        self.out.unlink(missing_ok=True)

    def calls(self, i):
        return [sweep_argv(self.name, self.program_seed(i), self.out)]

    def check(self, i, codes):
        """-> (problems, message bits simulated, output bytes, blocks, errors)"""
        if codes != [0]:
            return [f"exit codes {codes}"], 0, 0, 0, 0
        seed = self.program_seed(i)
        rows = read_sweep_rows(self.out)
        problems = []
        if rows != self.rows[str(seed)]:
            problems.append(f"program seed {seed}: rows {rows} differ from the reference")
        problems += three_se_misses(self.out)
        trials = sum(r[2] for r in rows)
        return problems, trials, self.out.stat().st_size, trials // MESSAGE_LEN, sum(r[3] for r in rows)


class RoundTrip:
    """modulate + demodulate of one random message; the bits must come back."""

    name = "cli-roundtrip"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.bits_path = workdir / "bits.txt"
        self.samples_path = workdir / "samples.txt"
        self.back_path = workdir / "bits_back.txt"
        self.messages = []

    def message(self, i):
        while len(self.messages) <= i:
            self.messages.append(self.rng.integers(0, 2, MESSAGE_LEN))
        return self.messages[i]

    def prepare(self, i):
        for path in (self.samples_path, self.back_path):
            path.unlink(missing_ok=True)
        self.bits_path.write_text("".join(f"{b}\n" for b in self.message(i)))

    def calls(self, i):
        return [
            ["modulate", str(self.bits_path), "--out", str(self.samples_path), *MODEM_FLAGS],
            ["demodulate", str(self.samples_path), "--out", str(self.back_path), *MODEM_FLAGS],
        ]

    def check(self, i, codes):
        if codes != [0, 0]:
            return [f"exit codes {codes}"], 0, 0, 0, 0
        back = self.back_path.read_text().split()
        sent = [str(b) for b in self.message(i)]
        problems = [] if back == sent else [f"message {i}: recovered bits differ"]
        written = self.samples_path.stat().st_size + self.back_path.stat().st_size
        return problems, MESSAGE_LEN, written, 0, 0


WORKLOADS = ("sweep-wm2", "sweep-wm1", "cli-roundtrip")


def make(name, seed, workdir, reference):
    if name == RoundTrip.name:
        return RoundTrip(seed, workdir)
    return Sweep(name, seed, workdir, reference[name])
