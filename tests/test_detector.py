import math

import numpy as np
import pytest
from naive_detector import ObservationSet, ml_decide

from wavemod.codec import METHOD2, place_method2, symbols
from wavemod.detector import detect_block
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filterbank import level_slice


def test_statistic_example():
    d = ml_decide(ObservationSet(np.array([0.3, -0.1]), 0), 1.0, 1.0)
    assert d.bit == 1
    assert abs(d.statistic - 0.2) < 1e-12


def test_single_copy_sign_detector():
    assert ml_decide(ObservationSet(np.array([-0.7]), 0), 1.0, 1.0).bit == 0
    assert ml_decide(ObservationSet(np.array([0.7]), 0), 1.0, 1.0).bit == 1


def test_tie_breaks_to_zero():
    d = ml_decide(ObservationSet(np.array([0.4, -0.4]), 0), 1.0, 1.0)
    assert d.statistic == 0.0
    assert d.bit == 0


def test_empty_observations_rejected():
    with pytest.raises(ConfigurationError, match="no observations"):
        ml_decide(ObservationSet(np.array([]), 3), 1.0, 1.0)


def test_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        copies = rng.standard_normal(rng.integers(1, 10))
        obs = ObservationSet(copies, 0)
        bits = {ml_decide(obs, e0, var).bit for e0, var in [(1, 1), (9, 0.25), (0.01, 100)]}
        assert len(bits) == 1


def test_agrees_with_likelihood_oracle():
    # Direct evaluation of the two Gaussian likelihood products.
    rng = np.random.default_rng(7)
    e0, var = 2.0, 0.8
    for _ in range(300):
        copies = rng.normal(0, 1.5, rng.integers(1, 13))
        lik_plus = np.prod(np.exp(-((copies - math.sqrt(e0)) ** 2) / (2 * var)))
        lik_minus = np.prod(np.exp(-((copies + math.sqrt(e0)) ** 2) / (2 * var)))
        oracle_bit = int(lik_plus > lik_minus)
        assert ml_decide(ObservationSet(copies, 0), e0, var).bit == oracle_bit


def test_monotonicity_appending_true_sign_copy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        copies = rng.standard_normal(rng.integers(1, 8))
        base = ml_decide(ObservationSet(copies, 0), 1.0, 1.0)
        if base.bit == 1:
            extended = np.append(copies, abs(rng.standard_normal()) + 0.01)
            assert ml_decide(ObservationSet(extended, 0), 1.0, 1.0).bit == 1


def test_one_corrupted_copy_out_of_seven_survives():
    # Method 2, M=3 -> K=7 copies; a single flipped copy of magnitude
    # below (K-1)*sqrt(E0) cannot outvote six clean ones.
    bits = np.array([1])
    frame = place_method2(symbols(bits, 1.0), 3)
    frame[level_slice(1, 2)][3] = -5.9  # clean copies are +1 each
    detected = detect_block(frame, METHOD2, 3)
    assert detected[0] == 1


@pytest.mark.parametrize("length, decisions", [(0, 0), (8, 1), (32, 4)])
def test_detect_block_sizes_its_sums_from_the_frame(length, decisions):
    # At M=3 a Method 2 frame of 8 * n0 coefficients carries n0 symbols.
    assert len(detect_block(np.ones(length), METHOD2, 3)) == decisions


@pytest.mark.parametrize("length", [15, 17])
def test_detect_block_rejects_wrong_frame_length(length):
    # Not a multiple of 2**3: no coarse length fits.
    with pytest.raises(ShapeError, match="not divisible by 2\\^3"):
        detect_block(np.zeros(length), METHOD2, 3)

