import math

import numpy as np
import pytest
from naive_detector import Decision, ObservationSet, gather_observations, ml_decide

from wavemod.channel import add_awgn
from wavemod.codec import (
    METHOD1,
    METHOD2,
    place_method1,
    place_method2,
    symbols,
)
from wavemod.detector import detect_block
from wavemod.errors import ConfigurationError
from wavemod.filterbank import analyze_pyramid, level_slice, synthesize_pyramid
from wavemod.filters import make_daubechies


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


@pytest.mark.parametrize(
    "method,place,msg_len", [(METHOD1, place_method1, 32), (METHOD2, place_method2, 11)]
)
@pytest.mark.parametrize("num_scales", [1, 3, 6])
def test_noiseless_round_trip(method, place, msg_len, num_scales):
    if method == METHOD1:
        msg_len = 2 ** (num_scales - 1) * 2
    rng = np.random.default_rng(num_scales)
    bits = rng.integers(0, 2, msg_len)
    fp = make_daubechies(4)
    frame = place(symbols(bits, 1.0), num_scales)
    block = synthesize_pyramid(frame, num_scales, fp)
    back = analyze_pyramid(block, num_scales, fp)
    detected = detect_block(back, method, num_scales, msg_len)
    assert np.array_equal(detected, bits)


def assert_detect_block_matches_oracle(received, method, num_scales, msg_len):
    """detect_block against gather_observations + ml_decide; returns the
    number of symbols whose copies sum to exactly zero."""
    obs = gather_observations(received, method, num_scales, msg_len)
    slow = [ml_decide(o, 1.0, 1.0).bit for o in obs]
    assert np.array_equal(detect_block(received, method, num_scales, msg_len), slow)
    return sum(np.sum(o.copies) == 0 for o in obs)


def test_detect_block_matches_gather_plus_ml_decide():
    # Noisy frames, and half-integer frames: on those every summation order
    # is exact, so the exact ties check that a tie goes to bit 0.
    rng = np.random.default_rng(21)
    fp = make_daubechies(4)
    ties = 0
    for method, place in ((METHOD1, place_method1), (METHOD2, place_method2)):
        for num_scales in (1, 3, 6):
            for n0 in (1, 3):
                msg_len = n0 * 2 ** (num_scales - 1) if method == METHOD1 else n0
                bits = rng.integers(0, 2, msg_len)
                frame = place(symbols(bits, 1.0), num_scales)
                block = synthesize_pyramid(frame, num_scales, fp)
                noise = np.random.default_rng(np.random.SeedSequence([99, 0]))
                noisy = add_awgn(block, 1.0, noise)
                back = analyze_pyramid(noisy, num_scales, fp)
                halves = rng.integers(-2, 3, (8, len(frame))) / 2.0
                for received in (back, *halves):
                    ties += assert_detect_block_matches_oracle(
                        received, method, num_scales, msg_len
                    )
    assert ties > 0
    with pytest.raises(ConfigurationError, match="unknown placement method"):
        detect_block(np.zeros(16), "pam", 3, 2)
    with pytest.raises(ConfigurationError, match="divisible by 4"):
        detect_block(np.zeros(16), METHOD1, 3, 6)


def test_detect_block_level_reductions_match_the_oracle():
    """One reduction per level decides as the per-symbol loop does.

    wm2 with M = 6, L = 512 is the sweep's frame: 2**m rows of 512 samples
    per level. With L = 1 every row is one sample, which numpy sums
    pairwise; M = 8 gives 128 such rows. Half-integer frames sum exactly in
    any order, so their exact ties check that a tie goes to bit 0.
    """
    rng = np.random.default_rng(16)
    fp = make_daubechies(4)
    ties = 0
    for num_scales, msg_len in ((6, 512), *((m, 1) for m in range(1, 9))):
        n = msg_len << num_scales
        bits = rng.integers(0, 2, msg_len)
        noise = analyze_pyramid(rng.standard_normal(n) * 3.0, num_scales, fp)
        received = place_method2(symbols(bits, 1.0), num_scales) + noise
        halves = rng.integers(-2, 3, (4, n)) / 2.0
        for frame in (received, *halves):
            ties += assert_detect_block_matches_oracle(frame, METHOD2, num_scales, msg_len)
    assert ties > 0


def test_single_scale_reduces_to_sign_detector():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 16)
    frame = place_method1(symbols(bits, 1.0), 1)
    noisy_details = frame[level_slice(16, 0)] + rng.normal(0, 2.0, 16)
    frame2 = np.concatenate([frame[:16], noisy_details])
    detected = detect_block(frame2, METHOD1, 1, 16)
    assert np.array_equal(detected, (noisy_details > 0).astype(int))


def test_one_corrupted_copy_out_of_seven_survives():
    # Method 2, M=3 -> K=7 copies; a single flipped copy of magnitude
    # below (K-1)*sqrt(E0) cannot outvote six clean ones.
    bits = np.array([1])
    frame = place_method2(symbols(bits, 1.0), 3)
    frame[level_slice(1, 2)][3] = -5.9  # clean copies are +1 each
    detected = detect_block(frame, METHOD2, 3, 1)
    assert detected[0] == 1


@pytest.mark.parametrize("length", [0, 8, 15, 17, 32])
def test_detect_block_rejects_wrong_frame_length(length):
    # Method 2, M=3, n0=2 frames have 16 coefficients.
    with pytest.raises(ConfigurationError, match="does not match"):
        detect_block(np.zeros(length), METHOD2, 3, 2)


def test_decision_fields():
    d = Decision(bit=1, statistic=0.5)
    assert d.bit == 1 and d.statistic == 0.5
