"""The Mallat pyramid: single-step and multi-level analysis and synthesis.

Circular (periodic) convolution keeps every length an exact power-of-two
multiple and makes the round trip exact for orthonormal filters. Scale
indices are relative: the coarsest detail level is 0, the finest is M-1.

The single-level kernels are polyphase. Analysis splits its input once
into the even and odd samples, each extended cyclically, and tap i reads
a contiguous slice of phase i mod 2; synthesis reads each tap from a
contiguous slice of its cyclically padded inputs. Each tap is therefore a
few whole-array numpy operations on contiguous data. Every output sums
its taps in ascending tap order into a zero-initialised accumulator, or
(analysis) starts from tap 0's product and adds +0.0 last, which gives
the same bits. That order fixes the floating-point result bit for bit,
sign of zero included.

Every kernel takes an optional work area, one float64 array that holds its
padded copies and partial products; the pyramids size one for their
largest level and every level reuses it, so a caller that keeps a work
area per direction allocates no array as long as a level's input but
the ones the calls return, and none at all with analyze_pyramid's out=.
Each step copies its input into the work area before it writes its
output, so an output may overlap the input: the pyramids use the array
they return as ping-pong space between levels.
"""

from itertools import accumulate

import numpy as np

from wavemod.errors import ShapeError
from wavemod.filters import FilterPair

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
    """count samples of v from index start on, indices taken mod len(v).

    v may be shorter than count. An empty v gets zeros, which no kernel
    reads: every slice of an empty input is empty. When no index wraps, the
    result is a view of v, not a gathered copy.
    """
    if len(v) == 0:
        return np.zeros(count)
    if 0 <= start and start + count <= len(v):
        return v[start : start + count]
    return v[np.arange(start, start + count) % len(v)]


def _split(work, lengths):
    """Consecutive views of work with the given lengths; a fresh work area
    when work is None."""
    ends = list(accumulate(lengths))
    if work is None:
        work = np.empty(ends[-1])
    elif len(work) < ends[-1]:
        raise ShapeError(f"work area of {len(work)} samples, kernel needs {ends[-1]}")
    return [work[end - n : end] for n, end in zip(lengths, ends)]


def _analysis_lengths(n_in: int, taps: int):
    # Even and odd phases of the input, each extended cyclically by
    # taps/2 - 1 samples, and one partial-product row.
    half = n_in // 2
    pad = taps // 2 - 1
    return (half + pad, half + pad, half)


def _synthesis_lengths(n_low: int, taps: int):
    # Padded coarse and detail inputs, two partial-product rows.
    pad = taps // 2 - 1
    return (pad + n_low, pad + n_low, n_low, n_low)


def analysis_work(num_samples: int, fp: FilterPair) -> np.ndarray:
    """A work area for analyzing blocks of up to num_samples samples."""
    return np.empty(sum(_analysis_lengths(num_samples, len(fp.h))))


def synthesis_work(num_samples: int, fp: FilterPair) -> np.ndarray:
    """A work area for synthesizing blocks of up to num_samples samples."""
    return np.empty(sum(_synthesis_lengths(num_samples // 2, len(fp.h))))


def analysis_step(c_next, fp: FilterPair, work=None, out=None):
    """One pyramid level down: circular filter by h and g, decimate by 2.

    c(n) = sum_m h(m - 2n) c_next(m mod N), likewise x with g.
    Returns (c, x), each of length N/2: the two halves of out (N samples,
    fresh if not given; it may overlap c_next).
    """
    c_next = _as_float_array(c_next)
    n_in = len(c_next)
    if n_in % 2 != 0:
        raise ShapeError(f"analysis input length {n_in} is odd")
    half = n_in // 2
    taps = len(fp.h)
    even, odd, term = _split(work, _analysis_lengths(n_in, taps))
    # Output n reads c_next[2n + i] for taps i = 0..taps-1. Tap i = 2k + p
    # is sample n + k of phase p (c_next[p::2]), indices mod N/2, so
    # extending each phase cyclically by pad = taps/2 - 1 samples turns it
    # into the contiguous slice phase_p[k : k + N/2]. The pad may wrap the
    # phase more than once (8 taps, N = 2).
    pad = taps // 2 - 1
    even[:half] = c_next[0::2]
    odd[:half] = c_next[1::2]
    even[half:] = _cyclic(even[:half], 0, pad)
    odd[half:] = _cyclic(odd[:half], 0, pad)
    phases = (even, odd)
    if out is None:
        out = np.empty(n_in)
    out = out[:n_in]
    c, x = out[:half], out[half:]
    # Starting from tap 0's product rather than from +0.0 changes at most
    # the sign of a zero partial sum, since a zero of either sign leaves a
    # nonzero sum as it is; the final + 0.0 makes every zero +0.0, which is
    # what a sum that starts from +0.0 ends at.
    np.multiply(fp.h[0], even[:half], out=c)
    np.multiply(fp.g[0], even[:half], out=x)
    for i in range(1, taps):
        v = phases[i % 2][i // 2 : i // 2 + half]
        c += np.multiply(fp.h[i], v, out=term)
        x += np.multiply(fp.g[i], v, out=term)
    out += 0.0
    return c, x


def synthesis_step(c, x, fp: FilterPair, work=None, out=None):
    """One pyramid level up: upsample, filter, sum the two branches.

    c_next(m) = sum_n h(m - 2n) c(n) + sum_n g(m - 2n) x(n), indices
    modulo 2*len(c). Exact inverse of analysis_step for orthonormal fp.
    Returns the first 2*len(c) samples of out (fresh if not given; it may
    overlap c or x).
    """
    c = _as_float_array(c)
    x = _as_float_array(x)
    n_low = len(c)
    if n_low != len(x):
        raise ShapeError(f"coarse/detail length mismatch: {n_low} vs {len(x)}")
    taps = len(fp.h)
    c_pad, x_pad, hc, gx = _split(work, _synthesis_lengths(n_low, taps))
    # Output 2j + p takes taps i = 2k + p (k = 0..taps/2-1) at input j - k.
    # Prepending the pad = taps/2 - 1 samples that cyclically precede
    # index 0 turns input j - k into the contiguous slice [pad - k, pad - k
    # + n_low) of the padded copy, one slice per tap and output parity.
    pad = taps // 2 - 1
    c_pad[:pad] = _cyclic(c, -pad, pad)
    c_pad[pad:] = c
    x_pad[:pad] = _cyclic(x, -pad, pad)
    x_pad[pad:] = x
    if out is None:
        out = np.empty(2 * n_low)
    out = out[: 2 * n_low]
    out[...] = 0.0
    for parity in (0, 1):
        acc = out[parity::2]
        for i in range(parity, taps, 2):
            s = slice(pad - i // 2, pad - i // 2 + n_low)
            np.multiply(fp.h[i], c_pad[s], out=hc)
            hc += np.multiply(fp.g[i], x_pad[s], out=gx)
            acc += hc
    return out


def _base_length(n: int, num_scales: int) -> int:
    """Coarse length n0 of an n-sample block or frame at depth num_scales."""
    if n % 2**num_scales != 0:
        raise ShapeError(f"block length {n} not divisible by 2^{num_scales}")
    return n >> num_scales


def synthesize_pyramid(frame, num_scales: int, fp: FilterPair, work=None) -> np.ndarray:
    """Run the inverse pyramid: coarse branch up through every detail level.

    work is a synthesis_work area for at least len(frame) samples, or None.
    Level m writes its output into the first n0 * 2**(m+1) samples of the
    returned array, which the next level reads as its coarse input.
    """
    frame = _as_float_array(frame)
    n0 = _base_length(len(frame), num_scales)
    if work is None:
        work = synthesis_work(len(frame), fp)
    out = np.empty(len(frame))
    out[:n0] = frame[:n0]
    for m in range(num_scales):
        synthesis_step(out[: n0 << m], frame[level_slice(n0, m)], fp, work, out)
    return out


def analyze_pyramid(samples, num_scales: int, fp: FilterPair, work=None, out=None) -> np.ndarray:
    """Run the forward pyramid, peeling one detail level into the frame per step.

    work is an analysis_work area for at least len(samples) samples, or
    None. The frame goes into out, a float64 array of len(samples), or a
    fresh array; out may be samples itself, since each step copies its
    input into the work area first. Level m writes its coarse output into
    frame[:n0 * 2**m], which the next level reads, and its detail straight
    into level_slice(n0, m).
    """
    c = _as_float_array(samples)
    n0 = _base_length(len(c), num_scales)
    if work is None:
        work = analysis_work(len(c), fp)
    if out is None:
        frame = np.empty(len(c))
    elif len(out) != len(c):
        raise ShapeError(f"output of {len(out)} samples for a block of {len(c)}")
    else:
        frame = out
    for m in reversed(range(num_scales)):
        c, _ = analysis_step(c, fp, work, frame[: n0 << (m + 1)])
    frame[:n0] = c
    return frame
