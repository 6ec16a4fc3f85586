"""The deterministic outputs that every refactor must keep byte-identical.

A change that alters one of these on purpose says why and updates the pin
in the same commit.
"""

import ast
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import wavemod
import wavemod.cli as cli
from wavemod import _helpers, ber
from wavemod.cli import main
from wavemod.filters import make_daubechies
from wavemod.modem import METHODS, Modem
from wavemod.theory import ber_method1_ideal, ber_theory, energy_per_symbol_factor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference.json"

CRITERION_8 = [
    "--method", "wm1,wm2,pam", "--scales", "4", "--message-len", "64",
    "--snr-grid=-6:2:2", "--min-errors", "100", "--max-trials", "100", "--seed", "42",
]
TAPS_6 = [
    "--method", "wm1,wm2,pam", "--scales", "6", "--message-len", "512",
    "--snr-grid=-12:4:2", "--min-errors", "100", "--max-trials", "20",
    "--taps", "6", "--seed", "7",
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep(tmp_path, flags, *extra):
    out = tmp_path / "ber.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ber-sweep", *flags, "--out", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize(
    "flags, csv_sha, svg_sha",
    [
        (
            CRITERION_8,
            "57a03413b93a9a1a8ad7465d1f45daabaec73f63d6b2a20db53b67027d3fbc75",
            "3969f695725d7a1d5e9b9377d58855b577c962deeaedd89e691aef4c3e3e2553",
        ),
        (
            TAPS_6,
            "c70901a82e857265b89bb68b838b4428f39835a73cceafab308d9605cf0e383a",
            "f34f572c8339ddc0b7828ed29c9e44365d628fe7af2b56a349b968067da28199",
        ),
    ],
    ids=["criterion-8", "taps-6"],
)
def test_sweep_bytes_are_pinned(tmp_path, flags, csv_sha, svg_sha):
    out = sweep(tmp_path, flags, "--plot")
    assert sha256(out) == csv_sha
    assert sha256(out.with_suffix(".svg")) == svg_sha


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine, so that a 32768-line text is
    split into shares, and no helper before or after the test."""
    _helpers.stop()
    monkeypatch.setattr(_helpers, "usable_cpus", lambda: 2)
    yield
    _helpers.stop()


@pytest.mark.parametrize(
    "method, sha",
    [
        ("wm1", "86e6aac5955fd843770e3cd657b06dc293198dd8cdca43bd10686b1721988e9c"),
        ("wm2", "61bf34bf58f3f889d78e0c3a784ff5cfd91dd8c28f830c6cf6f6e5ce466706b6"),
    ],
)
def test_modulate_bytes_are_pinned(tmp_path, two_cpus, method, sha):
    bits = tmp_path / "bits.txt"
    bits.write_text("".join(f"{b}\n" for b in np.random.default_rng(20).integers(0, 2, 512)))
    out = tmp_path / "samples.txt"
    flags = ["--method", method, "--scales", "6", "--taps", "8", "--energy", "2.5"]
    assert main(["modulate", str(bits), "--out", str(out), *flags]) == 0
    assert sha256(out) == sha


def test_demodulate_bytes_are_pinned(tmp_path, two_cpus):
    """A wm2 frame of 512 bits at -18 dB per copy, so that some copy sums
    fall near zero; its 32768 lines are parsed in two shares."""
    rng = np.random.default_rng(21)
    frame = Modem("wm2", 6, 512).modulate(rng.integers(0, 2, 512))
    samples = tmp_path / "samples.txt"
    samples.write_text(("%.17g\n" * len(frame)) % tuple(frame + rng.normal(0.0, 8.0, len(frame))))
    out = tmp_path / "bits.txt"
    flags = ["--method", "wm2", "--scales", "6", "--taps", "4"]
    assert main(["demodulate", str(samples), "--out", str(out), *flags]) == 0
    assert sha256(out) == "b9b2c7945142fcc642d20a780bb9e5db09d7129ffe745314c489e1290c97f8ea"


def test_theory_bytes_are_pinned():
    """Every theory curve, its scalar type and the energy factor, over
    3 methods x M = 1..24 x 325 SNRs: -40..40 dB in 0.25 dB steps plus
    1e308 (copies * snr overflows), 1e-300, the smallest subnormal and 0."""
    snrs = np.concatenate([10.0 ** (np.arange(-160, 161) / 40), [1e308, 1e-300, 5e-324, 0.0]])
    digest = hashlib.sha256()
    for m in range(1, 25):
        values = [ber_theory(method, m, snr) for snr in (snrs, 1.0) for method in METHODS]
        values += [ber_method1_ideal(m, snrs), ber_method1_ideal(m, 1.0)]
        values += [energy_per_symbol_factor(method, m) for method in METHODS]
        for value in values:
            digest.update(type(value).__name__.encode())
            digest.update(np.asarray(value).tobytes())
    assert digest.hexdigest() == "79f7053d90e408bfa11db68fc86d824177889604e4f180461c6d313b98d22a17"


def test_filter_bytes_are_pinned():
    """h then g of taps 2, 4, 6 and 8: the bits every pyramid pin rests on."""
    digest = hashlib.sha256()
    for taps in (2, 4, 6, 8):
        digest.update(make_daubechies(taps).tobytes())
    assert digest.hexdigest() == "03828d08b469c49bb1f9e9e1b626674d6ebaef5f0546280ff6dc6f6c3ddbe07e"


# The pins above rest on two things outside this repository. These
# fingerprints tell a changed premise from a broken program: on a mismatch
# the named pins cannot hold on this toolchain, whatever the code does.
STREAM_PINS = (
    "test_sweep_bytes_are_pinned, test_modulate_bytes_are_pinned, "
    "test_demodulate_bytes_are_pinned, test_benchmark_sweeps_match_reference "
    "and the rows of perfbench/reference.json"
)
ERFC_PINS = "test_theory_bytes_are_pinned and test_sweep_bytes_are_pinned"


def test_premise_numpy_generator_streams():
    bits = ber._stream(0, ber._MESSAGE_TAG, 0, 0).integers(0, 2, 32)
    normals = ber._stream(0, ber._NOISE_TAG).standard_normal(4)
    fingerprint = ("".join(map(str, bits)), [x.hex() for x in normals.tolist()])
    assert fingerprint == (
        "10000110000010100000000111110001",
        ["0x1.77edc8ebf2be5p+0", "0x1.855a220b94f99p-1",
         "0x1.45cbc831bd7d2p-1", "0x1.29e3eb6cb5cbap-1"],
    ), (
        "premise changed: the numpy Generator streams through ber._stream (SeedSequence, "
        f"PCG64, integers, standard_normal) under numpy {np.__version__} differ from those "
        f"the pins were made with (numpy 2.4.6, constraints.txt), which voids {STREAM_PINS}"
    )


def test_premise_libm_erfc():
    args = [-0.5, 0.3, 0.84375, 1.25, 2.857142857142857, 6.0, 26.5]
    assert [math.erfc(x).hex() for x in args] == [
        "0x1.853f7ae0c76e9p+0", "0x1.57be3bbf10af8p-1", "0x1.dcb8cae2d747ep-3",
        "0x1.3bcd133aa0ffcp-4", "0x1.bf37512335aedp-15", "0x1.8cf81557d20b7p-56",
        "0x1.3df6725a60cf5p-1019",
    ], (
        "premise changed: this libm's erfc (math.erfc) gives other bits than glibc 2.36's, "
        f"which voids {ERFC_PINS}"
    )


def test_star_import_yields_every_listed_name():
    namespace = {}
    exec("from wavemod import *", namespace)
    assert set(wavemod.__all__) <= namespace.keys()


def test_method1_energy_factor_is_the_closed_form():
    for m in range(1, 1024):
        assert energy_per_symbol_factor("wm1", m) == 2.0 - 2.0 ** (1 - m)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workload", ["sweep-wm2", "sweep-wm1"])
def test_benchmark_sweeps_match_reference(tmp_path, workload, seed):
    """The benchmark's sweeps give the rows its stored reference pins."""
    reference = json.loads(REFERENCE.read_text())[workload]
    out = sweep(tmp_path, reference["flags"], "--seed", str(seed))
    with open(out, newline="") as handle:
        rows = [
            [r["method"], r["snr_db_per_copy"], int(r["trials"]), int(r["errors"])]
            for r in csv.DictReader(handle)
        ]
    assert rows == reference["rows"][str(seed)]


def per_layer_span_names():
    """The span names that perfbench/run.py's per_layer metrics read."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    [per_layer] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "per_layer"
    ]
    readers = {"calls", "self_ns", "us_per_block", "ms_per_call"}
    return {
        arg.value
        for call in ast.walk(per_layer)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in readers
        for arg in call.args
        if isinstance(arg, ast.Constant)
    }


def test_benchmark_hooks_record_spans(tmp_path):
    """Every function the benchmark's per-layer metrics read is still where
    its tracer wraps it. The sweep has one point, so it runs in this
    process, where the wrappers are."""
    names = per_layer_span_names()
    assert {"channel.add_awgn", "ber.run_monte_carlo", "cli.main"} <= names
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    bits = tmp_path / "bits.txt"
    bits.write_text("0\n1\n" * 8)
    samples = tmp_path / "samples.txt"
    modem = ["--method", "wm2", "--scales", "2"]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([
                "ber-sweep", "--method", "wm1,wm2,pam", "--scales", "2", "--message-len", "8",
                "--snr-grid=0", "--max-trials", "2", "--out", str(tmp_path / "ber.csv"),
            ]) == 0
        assert cli.main(["modulate", str(bits), "--out", str(samples), *modem]) == 0
        back = tmp_path / "back.txt"
        assert cli.main(["demodulate", str(samples), "--out", str(back), *modem]) == 0
    finally:
        tracer.uninstall()
    recorded = {name for name, (count, _) in tracer.totals().items() if count}
    assert names - recorded == set()
    assert back.read_text() == bits.read_text()
    assert isinstance(wavemod.BACKEND, str)  # perfbench's environment() records it
