import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavemod.ber import (
    ExperimentConfig,
    ber_method1_exact,
    ber_method1_ideal,
    ber_method2,
    ber_pam,
    ber_theory,
    energy_per_symbol_factor,
    q_function,
    run_monte_carlo,
    snr_at_ber,
)
from wavemod.errors import ConfigurationError


def q_oracle(x):
    val, _ = quad(
        lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
        x,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def test_q_at_zero():
    assert q_function(0.0) == 0.5


def test_q_reflection():
    for x in np.linspace(-6, 6, 25):
        assert abs(q_function(-x) - (1.0 - q_function(x))) < 1e-14


def test_q_against_quadrature():
    for x in (-4.0, -1.0, 0.3, 1.0, 2.5, 6.0):
        assert abs(float(q_function(x)) - q_oracle(x)) < 1e-13


def test_q_of_one_frozen():
    assert abs(float(q_function(1.0)) - 0.15865525393145705) < 1e-14


def test_method1_ideal_reduces_to_pam():
    for snr in (0.5, 1.0, 4.0):
        assert float(ber_method1_ideal(1, snr)) == float(ber_pam(snr))


def test_method1_ideal_m6():
    assert abs(float(ber_method1_ideal(6, 1.0)) - q_oracle(math.sqrt(6.0))) < 1e-13


def test_method1_exact_m1_and_m2():
    snr = 1.3
    assert float(ber_method1_exact(1, snr)) == pytest.approx(float(q_function(math.sqrt(snr))))
    expected = 0.5 * q_function(math.sqrt(snr)) + 0.5 * q_function(math.sqrt(2 * snr))
    assert float(ber_method1_exact(2, snr)) == pytest.approx(float(expected), abs=1e-15)


def test_method1_exact_dominates_ideal():
    snrs = np.logspace(-2, 1.2, 30)
    for m in (2, 3, 6):
        assert np.all(ber_method1_exact(m, snrs) >= ber_method1_ideal(m, snrs))


def test_method2_uses_k():
    snr = 0.05
    assert float(ber_method2(6, snr)) == pytest.approx(float(q_function(math.sqrt(63 * snr))))
    assert float(ber_method2(1, snr)) == pytest.approx(float(q_function(math.sqrt(snr))))


def test_method2_beats_ideal_method1():
    snrs = np.logspace(-2, 1, 20)
    for m in (2, 4, 6):
        assert np.all(ber_method2(m, snrs) <= ber_method1_ideal(m, snrs))


def test_pam_limits():
    assert float(ber_pam(1e6)) < 1e-12
    assert float(ber_pam(1e-9)) == pytest.approx(0.5, abs=1e-4)


def test_theory_range_and_monotonicity():
    snrs = np.logspace(-2, 1.2, 40)
    for method, m in (("wm1", 4), ("wm2", 4), ("pam", 1)):
        vals = np.asarray(ber_theory(method, m, snrs), dtype=float)
        assert np.all(vals > 0) and np.all(vals <= 0.5)
        assert np.all(np.diff(vals) < 0)


def test_energy_factors():
    assert energy_per_symbol_factor("pam", 6) == 1.0
    assert energy_per_symbol_factor("wm2", 6) == 63.0
    assert energy_per_symbol_factor("wm1", 6) == pytest.approx(2 - 2**-5)


def test_high_snr_run_has_no_errors():
    cfg = ExperimentConfig(
        method="wm2", num_scales=3, message_len=100, symbol_energy=1.0,
        snr_grid_db=(40.0,), min_errors=1, max_trials=100, seed=1,
    )
    [point] = run_monte_carlo(cfg)
    assert point.errors == 0
    assert point.trials == 100 * 100


def test_method2_matches_theory():
    # K*snr = 4 -> theory Q(2)
    snr_db = 10 * math.log10(4.0 / 3.0)
    cfg = ExperimentConfig(
        method="wm2", num_scales=2, message_len=50, symbol_energy=1.0,
        snr_grid_db=(snr_db,), min_errors=200, max_trials=2000, seed=3,
    )
    [point] = run_monte_carlo(cfg)
    p = point.ber_theory
    se = math.sqrt(p * (1 - p) / point.trials)
    assert abs(point.ber_sim - p) < 3 * se


def test_method1_matches_exact_mixture():
    cfg = ExperimentConfig(
        method="wm1", num_scales=2, message_len=64, symbol_energy=1.0,
        snr_grid_db=(0.0,), min_errors=200, max_trials=2000, seed=4,
    )
    [point] = run_monte_carlo(cfg)
    p = float(ber_method1_exact(2, 1.0))
    assert point.ber_theory == pytest.approx(p)
    se = math.sqrt(p * (1 - p) / point.trials)
    assert abs(point.ber_sim - p) < 3 * se


def test_seed_reproducibility():
    cfg = ExperimentConfig(
        method="wm1", num_scales=3, message_len=32, symbol_energy=2.0,
        snr_grid_db=(0.0, 3.0), min_errors=50, max_trials=100, seed=12,
    )
    assert run_monte_carlo(cfg) == run_monte_carlo(cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError, match="divisible"):
        ExperimentConfig("wm1", 4, 100, 1.0, (0.0,))
    with pytest.raises(ConfigurationError, match="method"):
        ExperimentConfig("qam", 4, 64, 1.0, (0.0,))
    with pytest.raises(ConfigurationError, match="nonempty"):
        ExperimentConfig("pam", 1, 64, 1.0, ())


@pytest.mark.parametrize(
    "grid, seed, message",
    [
        ((0.0, math.nan), 0, "finite"),
        ((-math.inf, 0.0), 0, "finite"),
        ((math.inf,), 0, "finite"),
        ((0.0,), -1, "seed"),
    ],
)
def test_config_rejects_bad_grid_and_seed(grid, seed, message):
    # A negative seed used to fail in numpy's SeedSequence; a nan point gave
    # nan theory and -inf a ZeroDivisionError.
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig("wm2", 2, 8, 1.0, grid, seed=seed)


def test_snr_at_ber_inversion():
    snr_db = np.arange(0.0, 10.0, 1.0)
    ber = np.asarray(ber_pam(10 ** (snr_db / 10)), dtype=float)
    est = snr_at_ber(snr_db, ber, 0.05)
    # True crossing: Q(sqrt(snr)) = 0.05 -> snr_db ~ 4.32
    assert abs(est - 4.3237) < 0.1
    with pytest.raises(ConfigurationError, match="bracketed"):
        snr_at_ber(snr_db, ber, 0.4)
