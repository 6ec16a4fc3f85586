import math

import naive_kernels
import numpy as np
import pytest

from wavemod.errors import ShapeError
from wavemod.filterbank import (
    analysis_step,
    analyze_pyramid,
    level_slice,
    synthesis_step,
    synthesize_pyramid,
    work_area,
)
from wavemod.filters import make_daubechies

SQRT2 = math.sqrt(2.0)


def random_frame(rng, n0, num_scales):
    details = [rng.standard_normal(n0 * 2**m) for m in range(num_scales)]
    return np.concatenate([rng.standard_normal(n0), *details])


def frame_energy(frame):
    return np.sum(frame**2)


def max_frame_diff(a, b):
    return np.max(np.abs(a - b))


@pytest.mark.parametrize("n0", [1, 3, 16])
@pytest.mark.parametrize("num_scales", [1, 2, 6])
def test_level_slice_tiles_the_detail_region(n0, num_scales):
    """Detail levels 0..M-1 cover [n0, n0 * 2**M) in order, no gap, no overlap."""
    covered = []
    for m in range(num_scales):
        s = level_slice(n0, m)
        assert s.stop - s.start == n0 * 2**m
        covered += range(s.start, s.stop)
    assert covered == list(range(n0, n0 * 2**num_scales))


def test_haar_butterfly():
    cx = analysis_step([3.0, 1.0], make_daubechies(2))
    np.testing.assert_allclose(cx, [4.0 / SQRT2, 2.0 / SQRT2], atol=1e-15)


def test_haar_constant_input_has_zero_detail():
    cx = analysis_step([1.0, 1.0, 1.0, 1.0], make_daubechies(2))
    np.testing.assert_allclose(cx, [SQRT2, SQRT2, 0.0, 0.0], atol=1e-15)


def test_haar_inverse_butterfly():
    out = synthesis_step([3.0, 1.0], make_daubechies(2))
    np.testing.assert_allclose(out, [4.0 / SQRT2, 2.0 / SQRT2], atol=1e-15)


def test_synthesis_of_zeros_is_zero():
    out = synthesis_step(np.zeros(16), make_daubechies(4))
    assert np.all(out == 0.0)


def test_single_step_round_trip_db2():
    rng = np.random.default_rng(1)
    fp = make_daubechies(4)
    for n in (8, 64):
        v = rng.standard_normal(n)
        np.testing.assert_allclose(synthesis_step(analysis_step(v, fp), fp), v, atol=1e-10)


def test_odd_length_rejected():
    with pytest.raises(ShapeError, match="odd"):
        analysis_step([1.0, 2.0, 3.0], make_daubechies(2))


def test_odd_synthesis_length_rejected():
    with pytest.raises(ShapeError, match="odd"):
        synthesis_step([1.0, 2.0, 3.0], make_daubechies(2))


def test_pyramid_divisibility_rejected():
    with pytest.raises(ShapeError, match="divisible"):
        analyze_pyramid(np.ones(12), 3, make_daubechies(2))


def test_single_butterfly_pyramid():
    e0 = 4.0
    frame = np.array([0.0, math.sqrt(e0)])
    block = synthesize_pyramid(frame, 1, make_daubechies(2))
    np.testing.assert_allclose(
        block, [math.sqrt(e0) / SQRT2, -math.sqrt(e0) / SQRT2], atol=1e-15
    )


def test_haar_analysis_butterfly_pyramid():
    frame = analyze_pyramid(np.array([1.0, -1.0]), 1, make_daubechies(2))
    np.testing.assert_allclose(frame[:1], [0.0], atol=1e-15)
    np.testing.assert_allclose(frame[level_slice(1, 0)], [SQRT2], atol=1e-15)


def test_zero_block_zero_frame():
    frame = analyze_pyramid(np.zeros(32), 3, make_daubechies(4))
    assert np.all(frame[:4] == 0.0)
    assert all(np.all(frame[level_slice(4, m)] == 0.0) for m in range(3))


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("num_scales", [1, 3, 8])
def test_pyramid_round_trip(taps, num_scales):
    rng = np.random.default_rng(taps * 100 + num_scales)
    fp = make_daubechies(taps)
    frame = random_frame(rng, 2, num_scales)
    block = synthesize_pyramid(frame, num_scales, fp)
    back = analyze_pyramid(block, num_scales, fp)
    assert max_frame_diff(frame, back) < 1e-10


@pytest.mark.parametrize("taps", [2, 4, 8])
def test_parseval(taps):
    rng = np.random.default_rng(taps)
    fp = make_daubechies(taps)
    frame = random_frame(rng, 4, 5)
    block = synthesize_pyramid(frame, 5, fp)
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
        s = level_slice(4, m)
        np.testing.assert_allclose(combined[s], a * fu[s] + b * fv[s], atol=1e-10)
    np.testing.assert_allclose(combined[:4], a * fu[:4] + b * fv[:4], atol=1e-10)


def test_frame_shape_validated():
    with pytest.raises(ShapeError, match="divisible"):
        synthesize_pyramid(np.zeros(12), 3, make_daubechies(2))


def assert_bit_identical(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 34, 1024, 32768])
def test_kernels_match_naive_reference(taps, n):
    """Bit for bit against the modular-gather reference, sign of zero too.

    N = 2 with 8 taps wraps the input several times; N = 6, 10 and 34 give
    each analysis phase an odd length. Zero samples of both signs make the
    sign of every zero product and sum visible.
    """
    rng = np.random.default_rng(taps * 100_003 + n)
    fp = make_daubechies(taps)
    v = rng.standard_normal(n)
    v[::7] = 0.0
    v[::11] = -0.0
    cx = analysis_step(v, fp)
    assert_bit_identical(cx, np.concatenate(naive_kernels.analysis_step(v, *fp)))
    c, x = cx.reshape(2, -1)
    zeros = np.zeros(n // 2)
    # Modulation feeds an all-zero coarse branch; -0.0 inputs give -0.0
    # products, which only the zero-initialised accumulator turns into +0.0.
    for low, high in ((c, x), (zeros, x), (-zeros, zeros), (-zeros, -zeros)):
        assert_bit_identical(
            synthesis_step(np.concatenate([low, high]), fp),
            naive_kernels.synthesis_step(low, high, *fp),
        )


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_analysis_pyramid_matches_naive_reference(taps):
    """The wm2 sweep's pyramid (M = 6, N = 32768), fresh and in place, bit
    for bit against a loop over the reference step, sign of zero too."""
    fp = make_daubechies(taps)
    v = np.random.default_rng(taps).standard_normal(32768)
    v[::5] = 0.0
    v[::13] = -0.0
    v[:2048] = -0.0  # a run of zeros keeps zero outputs down to the coarsest level
    want = naive_kernels.analyze_pyramid(v, 6, *fp)
    assert_bit_identical(analyze_pyramid(v, 6, fp), want)
    assert_bit_identical(analyze_pyramid(v, 6, fp, work_area(len(v), fp), out=v), want)


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_one_work_area_serves_both_directions(taps):
    """work_area(N) is 2N + taps - 2 samples, which a one-level pyramid in
    either direction fills: the two padded input rows and the partial
    products of both branches. One sample less is refused by both."""
    fp = make_daubechies(taps)
    rng = np.random.default_rng(taps)
    for n in (2, 6, 1024, 32768):
        work = work_area(n, fp)
        assert len(work) == 2 * n + taps - 2
        block = rng.standard_normal(n)
        for pyramid in (synthesize_pyramid, analyze_pyramid):
            assert_bit_identical(pyramid(block, 1, fp, work), pyramid(block, 1, fp))
            with pytest.raises(ShapeError, match="work area"):
                pyramid(block, 1, fp, work[:-1])


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_empty_input_matches_naive_reference(taps):
    """An empty input has nothing to wrap; both kernels return empty arrays."""
    fp = make_daubechies(taps)
    empty = np.zeros(0)
    assert_bit_identical(
        analysis_step(empty, fp), np.concatenate(naive_kernels.analysis_step(empty, *fp))
    )
    assert_bit_identical(
        synthesis_step(empty, fp), naive_kernels.synthesis_step(empty, empty, *fp)
    )


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_pyramids_with_a_work_area_match_fresh_ones(taps):
    """One work area for both directions, sized for the largest frame and
    dirty from earlier calls, gives the bytes of a fresh one, sign of zero
    too."""
    fp = make_daubechies(taps)
    rng = np.random.default_rng(taps)
    work = work_area(1024, fp)
    work[:] = np.nan
    for n0, num_scales in ((1, 1), (2, 3), (1, 10), (16, 6), (3, 2)):
        frame = random_frame(rng, n0, num_scales)
        frame[: n0 * 2 ** (num_scales - 1)] = -0.0
        frame[::3] = 0.0
        block = synthesize_pyramid(frame, num_scales, fp)
        assert_bit_identical(synthesize_pyramid(frame, num_scales, fp, work), block)
        for samples in (block, np.zeros_like(block), -np.zeros_like(block)):
            assert_bit_identical(
                analyze_pyramid(samples, num_scales, fp, work),
                analyze_pyramid(samples, num_scales, fp),
            )


def test_pyramids_leave_their_input_unchanged():
    fp = make_daubechies(8)
    frame = random_frame(np.random.default_rng(9), 2, 4)
    kept = frame.copy()
    block = synthesize_pyramid(frame, 4, fp, work_area(len(frame), fp))
    assert_bit_identical(frame, kept)
    kept = block.copy()
    analyze_pyramid(block, 4, fp, work_area(len(block), fp))
    assert_bit_identical(block, kept)


def test_short_work_area_rejected():
    fp = make_daubechies(4)
    with pytest.raises(ShapeError, match="work area"):
        synthesize_pyramid(np.zeros(64), 3, fp, work_area(32, fp))
    with pytest.raises(ShapeError, match="work area"):
        analyze_pyramid(np.zeros(64), 3, fp, work_area(32, fp))


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_analysis_in_place_gives_the_fresh_bytes(taps):
    fp = make_daubechies(taps)
    x = np.random.default_rng(taps).standard_normal(16 * 2**4)
    x[:40] = 0.0  # zero outputs keep their sign bit too
    x[5:40:3] = -0.0
    fresh = analyze_pyramid(x, 4, fp)
    out = analyze_pyramid(x, 4, fp, work_area(len(x), fp), out=x)
    assert out is x
    assert out.tobytes() == fresh.tobytes()
    with pytest.raises(ShapeError, match="output"):
        analyze_pyramid(x, 4, fp, out=np.empty(len(x) // 2))


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 64, 32768])
def test_steps_take_and_give_one_level_frames(taps, n):
    """Each step maps one flat array to another: run in place it gives the
    bytes of a fresh call, which are those of a one-level pyramid, sign of
    zero too. synthesize_pyramid, which runs every level in place in its
    copy of the frame, leaves the caller's frame as it was."""
    fp = make_daubechies(taps)
    v = np.random.default_rng(taps * 7 + n).standard_normal(n)
    v[::3] = 0.0
    v[1::5] = -0.0
    work = work_area(n, fp)
    for step, pyramid in ((analysis_step, analyze_pyramid), (synthesis_step, synthesize_pyramid)):
        fresh = step(v, fp)
        assert_bit_identical(fresh, pyramid(v, 1, fp))
        inplace = v.copy()
        assert np.shares_memory(step(inplace, fp, work, out=inplace), inplace)
        assert_bit_identical(inplace, fresh)
    kept = v.copy()
    depth = (n & -n).bit_length() - 1
    synthesize_pyramid(v, depth, fp, work)
    assert v.tobytes() == kept.tobytes()
