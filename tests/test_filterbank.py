import math

import naive_kernels
import numpy as np
import pytest

from wavemod.errors import ShapeError
from wavemod.filterbank import (
    SubbandFrame,
    analysis_step,
    analyze_pyramid,
    synthesis_step,
    synthesize_pyramid,
)
from wavemod.filters import make_daubechies

SQRT2 = math.sqrt(2.0)


def random_frame(rng, n0, num_scales):
    return SubbandFrame(
        details=[rng.standard_normal(n0 * 2**m) for m in range(num_scales)],
        coarse=rng.standard_normal(n0),
    )


def frame_energy(frame):
    return np.sum(frame.coarse**2) + sum(np.sum(d**2) for d in frame.details)


def max_frame_diff(a, b):
    diffs = [np.max(np.abs(a.coarse - b.coarse))]
    diffs += [np.max(np.abs(x - y)) for x, y in zip(a.details, b.details)]
    return max(diffs)


def test_haar_butterfly():
    fp = make_daubechies(2)
    c, x = analysis_step([3.0, 1.0], fp)
    np.testing.assert_allclose(c, [4.0 / SQRT2], atol=1e-15)
    np.testing.assert_allclose(x, [2.0 / SQRT2], atol=1e-15)


def test_haar_constant_input_has_zero_detail():
    c, x = analysis_step([1.0, 1.0, 1.0, 1.0], make_daubechies(2))
    np.testing.assert_allclose(c, [SQRT2, SQRT2], atol=1e-15)
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-15)


def test_haar_inverse_butterfly():
    out = synthesis_step([3.0], [1.0], make_daubechies(2))
    np.testing.assert_allclose(out, [4.0 / SQRT2, 2.0 / SQRT2], atol=1e-15)


def test_synthesis_of_zeros_is_zero():
    out = synthesis_step(np.zeros(8), np.zeros(8), make_daubechies(4))
    assert np.all(out == 0.0)


def test_single_step_round_trip_db2():
    rng = np.random.default_rng(1)
    fp = make_daubechies(4)
    for n in (8, 64):
        v = rng.standard_normal(n)
        c, x = analysis_step(v, fp)
        np.testing.assert_allclose(synthesis_step(c, x, fp), v, atol=1e-10)


def test_odd_length_rejected():
    with pytest.raises(ShapeError, match="odd"):
        analysis_step([1.0, 2.0, 3.0], make_daubechies(2))


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError, match="mismatch"):
        synthesis_step([1.0, 2.0], [1.0], make_daubechies(2))


def test_pyramid_divisibility_rejected():
    with pytest.raises(ShapeError, match="divisible"):
        analyze_pyramid(np.ones(12), 3, make_daubechies(2))


def test_single_butterfly_pyramid():
    e0 = 4.0
    frame = SubbandFrame(details=[np.array([math.sqrt(e0)])], coarse=np.array([0.0]))
    block = synthesize_pyramid(frame, make_daubechies(2))
    np.testing.assert_allclose(
        block, [math.sqrt(e0) / SQRT2, -math.sqrt(e0) / SQRT2], atol=1e-15
    )


def test_haar_analysis_butterfly_pyramid():
    frame = analyze_pyramid(np.array([1.0, -1.0]), 1, make_daubechies(2))
    np.testing.assert_allclose(frame.coarse, [0.0], atol=1e-15)
    np.testing.assert_allclose(frame.details[0], [SQRT2], atol=1e-15)


def test_zero_block_zero_frame():
    frame = analyze_pyramid(np.zeros(32), 3, make_daubechies(4))
    assert np.all(frame.coarse == 0.0)
    assert all(np.all(d == 0.0) for d in frame.details)


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("num_scales", [1, 3, 8])
def test_pyramid_round_trip(taps, num_scales):
    rng = np.random.default_rng(taps * 100 + num_scales)
    fp = make_daubechies(taps)
    frame = random_frame(rng, 2, num_scales)
    block = synthesize_pyramid(frame, fp)
    back = analyze_pyramid(block, num_scales, fp)
    assert max_frame_diff(frame, back) < 1e-10


@pytest.mark.parametrize("taps", [2, 4, 8])
def test_parseval(taps):
    rng = np.random.default_rng(taps)
    fp = make_daubechies(taps)
    frame = random_frame(rng, 4, 5)
    block = synthesize_pyramid(frame, fp)
    energy = np.sum(block**2)
    assert abs(energy - frame_energy(frame)) < 1e-10 * energy


def test_linearity():
    rng = np.random.default_rng(5)
    fp = make_daubechies(4)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    a, b = 2.5, -1.25
    combined = analyze_pyramid(a * u + b * v, 4, fp)
    fu = analyze_pyramid(u, 4, fp)
    fv = analyze_pyramid(v, 4, fp)
    for m in range(4):
        np.testing.assert_allclose(
            combined.details[m], a * fu.details[m] + b * fv.details[m], atol=1e-10
        )
    np.testing.assert_allclose(combined.coarse, a * fu.coarse + b * fv.coarse, atol=1e-10)


def test_frame_shape_validated():
    with pytest.raises(ShapeError, match="detail level"):
        SubbandFrame(details=[np.zeros(3)], coarse=np.zeros(2))


def assert_bit_identical(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [2, 4, 8, 1024, 32768])
def test_kernels_match_naive_reference(taps, n):
    """Bit for bit against the modular-gather reference, sign of zero too.

    N = 2 with 8 taps wraps the input several times. Zero samples of both
    signs make the sign of every zero product and sum visible.
    """
    rng = np.random.default_rng(taps * 100_003 + n)
    fp = make_daubechies(taps)
    v = rng.standard_normal(n)
    v[::7] = 0.0
    v[::11] = -0.0
    c, x = analysis_step(v, fp)
    c_ref, x_ref = naive_kernels.analysis_step(v, fp.h, fp.g)
    assert_bit_identical(c, c_ref)
    assert_bit_identical(x, x_ref)
    zeros = np.zeros(n // 2)
    # Modulation feeds an all-zero coarse branch; -0.0 inputs give -0.0
    # products, which only the zero-initialised accumulator turns into +0.0.
    for low, high in ((c, x), (zeros, x), (-zeros, zeros), (-zeros, -zeros)):
        assert_bit_identical(
            synthesis_step(low, high, fp),
            naive_kernels.synthesis_step(low, high, fp.h, fp.g),
        )


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_empty_input_matches_naive_reference(taps):
    """An empty input has nothing to wrap; both kernels return empty arrays."""
    fp = make_daubechies(taps)
    empty = np.zeros(0)
    c, x = analysis_step(empty, fp)
    c_ref, x_ref = naive_kernels.analysis_step(empty, fp.h, fp.g)
    assert_bit_identical(c, c_ref)
    assert_bit_identical(x, x_ref)
    assert_bit_identical(
        synthesis_step(empty, empty, fp), naive_kernels.synthesis_step(empty, empty, fp.h, fp.g)
    )
