"""The Mallat pyramid: single-step and multi-level analysis and synthesis.

Circular (periodic) convolution keeps every length an exact power-of-two
multiple and makes the round trip exact for orthonormal filters. Scale
indices are relative: the coarsest detail level is 0, the finest is M-1.

The single-level kernels are polyphase, and they keep the h and g
branches as the two rows of each buffer, so that column i of the (2, taps)
filter pair applies tap i of both filters in one numpy call. Analysis
splits its input once into the even and odd samples, each extended
cyclically, and tap i reads a contiguous slice of phase i mod 2: one
multiply and one add. Synthesis reads tap i from a contiguous slice of
its cyclically padded coarse and detail rows: one multiply, then one add
sums the rows and one adds that to the output. Every output sums its
taps in ascending tap order into a zero-initialised accumulator, or
(analysis) starts from tap 0's product and adds +0.0 last, which gives
the same bits. That order fixes the floating-point result bit for bit,
sign of zero included.

Every kernel takes an optional work area, one float64 array that holds its
padded copies and partial products. Both directions lay it out alike, so
one work_area serves both: the pyramids size one for their largest level
and every level reuses it, so a caller that keeps one work area
allocates no array as long as a level's input but the ones the calls
return, and none at all with analyze_pyramid's out=.
Both steps speak the depth-1 frame format: analysis_step returns, and
synthesis_step takes, one array [c | x]. Each step copies its input into
the work area before it writes its output, so the output may be the
input itself: both pyramids run every level in place in what they return.
"""

import numpy as np

from wavemod.errors import ShapeError

# Name of the kernel implementation; benchmark records carry it so that
# timings from different kernels are never compared.
BACKEND = "python"


def level_slice(n0: int, m: int) -> slice:
    """Where detail level m sits in a frame whose coarse branch has n0 samples.

    A frame at depth M is one array of n0 * 2**M coefficients, as long as
    the block it synthesizes: the coarse branch in [0, n0), then detail
    levels 0..M-1, level m in [n0 * 2**m, n0 * 2**(m+1)).
    """
    return slice(n0 << m, n0 << (m + 1))


def _as_float_array(seq) -> np.ndarray:
    return np.ascontiguousarray(seq, dtype=np.float64)


def _cyclic(v: np.ndarray, start: int, count: int) -> np.ndarray:
    """count samples of each row of v from index start on, indices taken
    mod the row length, which may be shorter than count.

    Empty rows get zeros, which no kernel reads: every slice of an empty
    input is empty. When no index wraps, start reduced mod the row length
    included, the result is a view of v, not a gathered copy.
    """
    n = v.shape[-1]
    if n == 0:
        return np.zeros(v.shape[:-1] + (count,))
    start %= n
    if start + count <= n:
        return v[..., start : start + count]
    return v[..., np.arange(start, start + count) % n]


def work_area(num_samples: int, fp: np.ndarray) -> np.ndarray:
    """A work area for analyzing or synthesizing blocks of up to
    num_samples samples."""
    return np.empty(2 * num_samples + fp.shape[1] - 2)


def _step_views(work, half: int, taps: int):
    """A step's two consecutive views of work, or of a fresh work area when
    work is None: (2, half + taps/2 - 1) input rows, padded cyclically by
    taps/2 - 1 samples (analysis: the even and odd phases; synthesis: the
    coarse and detail rows), and (2, half) partial products of both
    branches."""
    rows = half + taps // 2 - 1
    need = 2 * (rows + half)
    if work is None:
        work = np.empty(need)
    elif len(work) < need:
        raise ShapeError(f"work area of {len(work)} samples, kernel needs {need}")
    return work[: 2 * rows].reshape(2, rows), work[2 * rows : need].reshape(2, half)


def analysis_step(c_next, fp: np.ndarray, work=None, out=None):
    """One pyramid level down: circular filter by h and g, decimate by 2.

    c(n) = sum_m h(m - 2n) c_next(m mod N), likewise x with g.
    Returns the one-level frame [c | x], the first N samples of out (fresh
    if not given; it may overlap c_next).
    """
    c_next = _as_float_array(c_next)
    n_in = len(c_next)
    if n_in % 2 != 0:
        raise ShapeError(f"analysis input length {n_in} is odd")
    half = n_in // 2
    taps = fp.shape[1]
    phases, term = _step_views(work, half, taps)
    # Output n reads c_next[2n + i] for taps i = 0..taps-1. Tap i = 2k + p
    # is sample n + k of phase p (c_next[p::2]), indices mod N/2, so
    # extending each phase cyclically by pad = taps/2 - 1 samples turns it
    # into the contiguous slice phases[p, k : k + N/2]. The pad may wrap
    # the phase more than once (8 taps, N = 2).
    phases[:, :half] = c_next.reshape(half, 2).T
    phases[:, half:] = _cyclic(phases[:, :half], 0, taps // 2 - 1)
    out = np.empty(n_in) if out is None else out[:n_in]
    # Rows c and x; tap i of h and g as a (2, 1) column.
    cx = out.reshape(2, half)
    column = fp.T[:, :, None]
    # Starting from tap 0's product rather than from +0.0 changes at most
    # the sign of a zero partial sum, since a zero of either sign leaves a
    # nonzero sum as it is; the final + 0.0 makes every zero +0.0, which is
    # what a sum that starts from +0.0 ends at.
    np.multiply(column[0], phases[0, :half], out=cx)
    for i in range(1, taps):
        cx += np.multiply(column[i], phases[i % 2, i // 2 : i // 2 + half], out=term)
    cx += 0.0
    return out


def synthesis_step(cx, fp: np.ndarray, work=None, out=None):
    """One pyramid level up: upsample, filter, sum the two branches.

    c_next(m) = sum_n h(m - 2n) c(n) + sum_n g(m - 2n) x(n), indices
    modulo N, for the one-level frame cx = [c | x] of N samples. Exact
    inverse of analysis_step for orthonormal fp. Returns the first N
    samples of out (fresh if not given; it may overlap cx).
    """
    cx = _as_float_array(cx)
    n_in = len(cx)
    if n_in % 2 != 0:
        raise ShapeError(f"synthesis input length {n_in} is odd")
    n_low = n_in // 2
    taps = fp.shape[1]
    padded, term = _step_views(work, n_low, taps)
    # Output 2j + p takes taps i = 2k + p (k = 0..taps/2-1) at input j - k.
    # Prepending the pad = taps/2 - 1 samples that cyclically precede
    # index 0 turns input j - k into the contiguous slice [pad - k, pad - k
    # + n_low) of the padded rows c and x, one slice per tap and output
    # parity.
    pad = taps // 2 - 1
    padded[:, pad:] = cx.reshape(2, n_low)
    padded[:, :pad] = _cyclic(padded[:, pad:], -pad, pad)
    out = np.empty(n_in) if out is None else out[:n_in]
    out[...] = 0.0
    column = fp.T[:, :, None]
    hc, gx = term
    for parity in (0, 1):
        acc = out[parity::2]
        for i in range(parity, taps, 2):
            np.multiply(column[i], padded[:, pad - i // 2 : pad - i // 2 + n_low], out=term)
            hc += gx
            acc += hc
    return out


def _base_length(n: int, num_scales: int) -> int:
    """Coarse length n0 of an n-sample block or frame at depth num_scales."""
    if n % 2**num_scales != 0:
        raise ShapeError(f"block length {n} not divisible by 2^{num_scales}")
    return n >> num_scales


def synthesize_pyramid(frame, num_scales: int, fp: np.ndarray, work=None) -> np.ndarray:
    """Run the inverse pyramid: coarse branch up through every detail level.

    work is a work_area for at least len(frame) samples, or None. The
    frame is copied once; level m then turns the first n0 * 2**(m+1)
    samples of the copy, in place, into the next level's coarse input.
    """
    out = np.array(frame, dtype=np.float64)
    n0 = _base_length(len(out), num_scales)
    if work is None:
        work = work_area(len(out), fp)
    for m in range(num_scales):
        synthesis_step(out[: n0 << (m + 1)], fp, work, out)
    return out


def analyze_pyramid(samples, num_scales: int, fp: np.ndarray, work=None, out=None) -> np.ndarray:
    """Run the forward pyramid, peeling one detail level into the frame per step.

    work is a work_area for at least len(samples) samples, or None. The
    frame goes into out, a float64 array of len(samples), or a fresh
    array; out may be samples itself, since each step copies its input
    into the work area first. Level m writes its coarse output into
    frame[:n0 * 2**m], which the next level reads, and its detail straight
    into level_slice(n0, m).
    """
    c = _as_float_array(samples)
    n0 = _base_length(len(c), num_scales)
    if work is None:
        work = work_area(len(c), fp)
    if out is None:
        frame = np.empty(len(c))
    elif len(out) != len(c):
        raise ShapeError(f"output of {len(out)} samples for a block of {len(c)}")
    else:
        frame = out
    for m in reversed(range(num_scales)):
        c = analysis_step(c, fp, work, frame)[: n0 << m]
    frame[:n0] = c
    return frame
