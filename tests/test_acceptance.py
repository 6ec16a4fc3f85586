"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcinv

from wavemod.ber import ExperimentConfig, run_monte_carlo, snr_at_ber
from wavemod.channel import add_awgn
from wavemod.cli import main
from wavemod.filterbank import analyze_pyramid, level_slice, synthesize_pyramid
from wavemod.filters import make_daubechies, validate_filter_pair
from wavemod.modem import Modem
from wavemod.theory import ber_method1_ideal, ber_theory, q_function


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_perfect_reconstruction():
    start = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for taps in (2, 4, 6, 8):
        fp = make_daubechies(taps)
        for num_scales in range(1, 9):
            for n0 in (1, 2, 16):
                for _ in range(100):
                    details = [rng.standard_normal(n0 * 2**m) for m in range(num_scales)]
                    frame = np.concatenate([rng.standard_normal(n0), *details])
                    block = synthesize_pyramid(frame, num_scales, fp)
                    back = analyze_pyramid(block, num_scales, fp)
                    worst = max(worst, np.max(np.abs(back - frame)))
    elapsed = time.time() - start
    report("criterion 1 (perfect reconstruction)", worst < 1e-9,
           f"max round-trip error {worst:.3e}")
    report("criterion 1 (time bound)", elapsed < 10.0, f"{elapsed:.1f}s for 9600 round trips")


def test_criterion_2_filter_validity():
    ok = all(validate_filter_pair(make_daubechies(t)) == [] for t in (2, 4, 6, 8))
    s3 = math.sqrt(3.0)
    oracle = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    dev = float(np.max(np.abs(make_daubechies(4)[0] - oracle)))
    report(
        "criterion 2 (filter validity)",
        ok and dev < 1e-10,
        f"all invariants at 1e-12; taps=4 vs constraint oracle dev {dev:.3e}",
    )


def test_criterion_3_q_function_accuracy():
    start = time.time()
    xs = np.linspace(-8.0, 8.0, 1000)
    integrand = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    worst = 0.0
    for x in xs:
        ref, _ = quad(integrand, x, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
        worst = max(worst, abs(float(q_function(x)) - ref))
    elapsed = time.time() - start
    report("criterion 3 (Q-function accuracy)", worst < 1e-12,
           f"max abs deviation {worst:.3e} over 1000 points")
    report("criterion 3 (time bound)", elapsed < 5.0, f"{elapsed:.1f}s for 1000 points")


def test_criterion_4_noise_whiteness():
    num_scales, n0 = 6, 64
    block_len = n0 * 2**num_scales
    fp = make_daubechies(4)
    blocks = int(np.ceil(1e6 / block_len))
    per_scale = [[] for _ in range(num_scales)]
    for b in range(blocks):
        noise = np.random.default_rng(np.random.SeedSequence([77, b]))
        noisy = add_awgn(np.zeros(block_len), 1.0, noise)
        frame = analyze_pyramid(noisy, num_scales, fp)
        for m in range(num_scales):
            per_scale[m].append(frame[level_slice(n0, m)])
    per_scale = [np.concatenate(chunks) for chunks in per_scale]

    var_ok = True
    details = []
    for m, coeffs in enumerate(per_scale):
        n = len(coeffs)
        var = float(np.var(coeffs))
        se = math.sqrt(2.0 / (n - 1))
        var_ok &= abs(var - 1.0) <= 3 * se
        details.append(f"scale {m}: var {var:.4f} (3se {3 * se:.4f})")

    corr_ok = True
    worst_z = 0.0
    for m1 in range(num_scales):
        for m2 in range(m1 + 1, num_scales):
            n = len(per_scale[m1])
            a, b = per_scale[m1], per_scale[m2][:n]
            r = float(np.corrcoef(a, b)[0, 1])
            z = abs(r) * math.sqrt(n)
            worst_z = max(worst_z, z)
            corr_ok &= z <= 3.0
    report(
        "criterion 4 (subband noise whiteness)",
        var_ok and corr_ok,
        "; ".join(details) + f"; worst |corr| z-score {worst_z:.2f}",
    )


def _snr_for_target(theory, target):
    return brentq(lambda s: theory(s) - target, 1e-6, 1e4)


def _run_point(method, num_scales, message_len, snr, theory_p, seed):
    snr_db = 10 * math.log10(snr)
    blocks_needed = int(np.ceil(200 / theory_p / message_len)) * 3 + 10
    cfg = ExperimentConfig(
        Modem(method, num_scales, message_len, symbol_energy=1.0),
        snr_grid_db=(snr_db,),
        min_errors=200,
        max_trials=blocks_needed,
        seed=seed,
    )
    [point] = run_monte_carlo(cfg)
    return point


@pytest.mark.parametrize("num_scales", [2, 4, 6])
def test_criterion_5_monte_carlo_method2(num_scales):
    start = time.time()
    k = 2**num_scales - 1
    lines = []
    times = []
    ok = in_time = True
    for i, target in enumerate((0.05, 0.01, 0.002)):
        x = math.sqrt(2.0) * float(erfcinv(2 * target))
        snr = x * x / k
        point = _run_point("wm2", num_scales, 64, snr, target, seed=500 + i)
        p = point.ber_theory
        se = math.sqrt(p * (1 - p) / point.trials)
        dev = abs(point.ber_sim - p)
        elapsed = time.time() - start
        ok &= dev < 3 * se
        in_time &= elapsed < 60 * (i + 1)
        lines.append(f"target {target}: sim {point.ber_sim:.4g} theory {p:.4g} ({dev / se:.2f}se)")
        times.append(f"target {target}: {elapsed:.1f}s (bound {60 * (i + 1)}s)")
        start = time.time()
    report(f"criterion 5 (Method 2 MC vs Eq-12 theory, M={num_scales})", ok, "; ".join(lines))
    report(f"criterion 5 (time bound, M={num_scales})", in_time, "; ".join(times))


@pytest.mark.parametrize("num_scales", [2, 4, 6])
def test_criterion_6_monte_carlo_method1(num_scales):
    lines = []
    ok = True
    message_len = 2 ** (num_scales - 1) * 16
    for i, target in enumerate((0.05, 0.01, 0.002)):
        snr = _snr_for_target(lambda s: float(ber_theory("wm1", num_scales, s)), target)
        point = _run_point("wm1", num_scales, message_len, snr, target, seed=900 + i)
        p = point.ber_theory
        se = math.sqrt(p * (1 - p) / point.trials)
        dev = abs(point.ber_sim - p)
        ideal = float(ber_method1_ideal(num_scales, snr))
        ok &= dev < 3 * se and point.ber_sim >= ideal
        lines.append(
            f"target {target}: sim {point.ber_sim:.4g} mixture {p:.4g} "
            f"({dev / se:.2f}se), ideal {ideal:.4g}"
        )
    report(f"criterion 6 (Method 1 MC vs exact mixture, M={num_scales})", ok, "; ".join(lines))


def test_criterion_7_fig3_qualitative():
    num_scales, message_len = 6, 512
    seed = 1234

    def crossing(method, theory):
        center = 10 * math.log10(_snr_for_target(theory, 0.1))
        grid = tuple(center + d for d in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
        cfg = ExperimentConfig(
            Modem(method, num_scales, message_len, symbol_energy=1.0),
            snr_grid_db=grid,
            min_errors=2000,
            max_trials=500,
            seed=seed,
        )
        points = run_monte_carlo(cfg)
        return snr_at_ber([p.snr_db for p in points], [p.ber_sim for p in points], 0.1)

    pam_snr = crossing("pam", lambda s: float(ber_theory("pam", 1, s)))
    wm1_snr = crossing("wm1", lambda s: float(ber_theory("wm1", num_scales, s)))
    wm2_snr = crossing("wm2", lambda s: float(ber_theory("wm2", num_scales, s)))
    gain2 = pam_snr - wm2_snr
    expected_gain = 10 * math.log10(63)
    ok = wm1_snr < pam_snr and wm2_snr < pam_snr and abs(gain2 - expected_gain) < 1.0
    report(
        "criterion 7 (waterfall ordering and Method-2 gain)",
        ok,
        f"BER=0.1 at pam {pam_snr:.2f} dB, wm1 {wm1_snr:.2f} dB, wm2 {wm2_snr:.2f} dB; "
        f"wm2 gain {gain2:.2f} dB vs 10*log10(63) = {expected_gain:.2f} dB",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    args = [
        "ber-sweep",
        "--method", "wm1,wm2,pam",
        "--scales", "4",
        "--message-len", "64",
        "--snr-grid=-6:2:2",
        "--min-errors", "100",
        "--max-trials", "100",
        "--seed", "42",
    ]
    assert main([*args, "--out", str(tmp_path / "a.csv"), "--plot"]) == 0
    assert main([*args, "--out", str(tmp_path / "b.csv")]) == 0
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    with open(tmp_path / "a.csv", newline="") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    report(
        "criterion 8 (byte-identical sweep reruns)",
        identical and n_rows == 3 * 5,
        f"{n_rows} data rows, identical={identical}",
    )


@pytest.mark.parametrize("method", ["wm1", "wm2"])
def test_criterion_9_cli_round_trip(tmp_path, method):
    rng = np.random.default_rng(31337)
    src = tmp_path / "bits.txt"
    mod = tmp_path / "samples.txt"
    out = tmp_path / "recovered.txt"
    common = ["--method", method, "--scales", "6", "--taps", "4"]
    failures = 0
    for _ in range(1000):
        bits = rng.integers(0, 2, 512)
        src.write_text("".join(f"{b}\n" for b in bits))
        assert main(["modulate", str(src), "--out", str(mod), *common]) == 0
        assert main(["demodulate", str(mod), "--out", str(out), *common]) == 0
        recovered = np.array([int(t) for t in out.read_text().split()])
        failures += not np.array_equal(recovered, bits)
    report(
        f"criterion 9 (noiseless CLI round trip, {method})",
        failures == 0,
        f"{1000 - failures}/1000 messages exact",
    )
