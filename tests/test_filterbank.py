import itertools
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


def same_bytes(a, b):
    assert a.tobytes() == b.tobytes()


# (M, n0): the grid, where n0 = 0 is the empty block, and the sweep's
# pyramid, M = 6 over 32768 samples.
GEOMETRY = [*itertools.product(range(9), (0, 1, 2, 3, 5, 17)), (6, 512)]


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("num_scales, n0", GEOMETRY)
def test_filterbank_matches_the_reference(num_scales, n0, taps):
    """Both pyramids, fresh, with a dirty work area and (analysis) in
    place, give the reference pyramids' bytes, sign of zero too, and leave
    their input as it was; at M = 1 so do both steps, fresh and in place.
    work_area(N) is exactly what a pyramid of N samples needs in either
    direction. Synthesis then analysis gives the frame back, and the block
    has the frame's energy (Parseval).

    Each case runs a random array, used as both block and frame, with
    zeros of both signs, and the all +0.0 and all -0.0 arrays.
    """
    fp = make_daubechies(taps)
    n = n0 << num_scales
    mixed = np.random.default_rng([taps, num_scales, n0]).standard_normal(n)
    mixed[::3] = 0.0
    mixed[1::5] = -0.0
    work = work_area(n, fp)
    assert len(work) == 2 * n + taps - 2
    for v in (mixed, np.zeros(n), -np.zeros(n)):
        kept = v.copy()
        analyzed = naive_kernels.analyze_pyramid(v, num_scales, *fp)
        synthesized = naive_kernels.synthesize_pyramid(v, num_scales, *fp)
        work[:] = np.nan
        for area in (None, work):
            same_bytes(analyze_pyramid(v, num_scales, fp, area), analyzed)
            same_bytes(synthesize_pyramid(v, num_scales, fp, area), synthesized)
        inplace = v.copy()
        assert analyze_pyramid(inplace, num_scales, fp, work, out=inplace) is inplace
        same_bytes(inplace, analyzed)
        if num_scales == 1:
            for step, want in ((analysis_step, analyzed), (synthesis_step, synthesized)):
                same_bytes(step(v, fp), want)
                inplace = v.copy()
                step(inplace, fp, work, out=inplace)
                same_bytes(inplace, want)
        same_bytes(v, kept)
        back = analyze_pyramid(synthesized, num_scales, fp)
        assert np.all(np.abs(back - v) <= 1e-10)
        energy = v @ v
        assert abs(synthesized @ synthesized - energy) <= 1e-10 * energy
    # A depth-0 pyramid runs no step, and an empty Haar block needs no work.
    if num_scales and len(work):
        for pyramid in (analyze_pyramid, synthesize_pyramid):
            with pytest.raises(ShapeError, match="work area"):
                pyramid(mixed, num_scales, fp, work[:-1])


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 34, 1024, 32768])
def test_kernels_match_naive_reference(taps, n):
    """Both steps bit for bit against the reference at step lengths the grid
    does not reach, sign of zero too, and synthesis with the branches mixed
    as modulation mixes them: an all-zero coarse branch under a live detail.

    N = 2 with 8 taps wraps the input several times; N = 6, 10 and 34 give
    each analysis phase an odd length.
    """
    rng = np.random.default_rng(taps * 100_003 + n)
    fp = make_daubechies(taps)
    v = rng.standard_normal(n)
    v[::7] = 0.0
    v[::11] = -0.0
    cx = analysis_step(v, fp)
    same_bytes(cx, np.concatenate(naive_kernels.analysis_step(v, *fp)))
    c, x = cx.reshape(2, -1)
    zeros = np.zeros(n // 2)
    # -0.0 inputs give -0.0 products, which only the zero-initialised
    # accumulator turns into +0.0.
    for low, high in ((c, x), (zeros, x), (-zeros, zeros), (-zeros, -zeros)):
        same_bytes(
            synthesis_step(np.concatenate([low, high]), fp),
            naive_kernels.synthesis_step(low, high, *fp),
        )


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
        same_bytes(fresh, pyramid(v, 1, fp))
        inplace = v.copy()
        assert np.shares_memory(step(inplace, fp, work, out=inplace), inplace)
        same_bytes(inplace, fresh)
    kept = v.copy()
    depth = (n & -n).bit_length() - 1
    synthesize_pyramid(v, depth, fp, work)
    same_bytes(v, kept)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda fp: analysis_step(np.ones(3), fp), "odd"),
        (lambda fp: synthesis_step(np.ones(3), fp), "odd"),
        (lambda fp: analyze_pyramid(np.ones(12), 3, fp), "divisible"),
        (lambda fp: synthesize_pyramid(np.zeros(12), 3, fp), "divisible"),
        (lambda fp: analyze_pyramid(np.ones(16), 4, fp, out=np.empty(8)), "output"),
    ],
    ids=["analysis-odd", "synthesis-odd", "analysis-depth", "synthesis-depth", "analysis-out"],
)
def test_filterbank_contract_violations(call, message):
    with pytest.raises(ShapeError, match=message):
        call(make_daubechies(4))


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
