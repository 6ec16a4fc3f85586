"""The Mallat pyramid: single-step and multi-level analysis and synthesis.

Circular (periodic) convolution keeps every length an exact power-of-two
multiple and makes the round trip exact for orthonormal filters. Scale
indices are relative: the coarsest detail level is 0, the finest is M-1.

The single-level kernels are polyphase: every filter tap reads one plain
slice of a cyclically padded copy of the input, so each tap is a few
whole-array numpy operations. Every output sums its taps into a
zero-initialised accumulator in ascending tap order, which fixes the
floating-point result bit for bit, sign of zero included.
"""

from dataclasses import dataclass, field

import numpy as np

from wavemod.errors import ShapeError
from wavemod.filters import FilterPair

# Name of the kernel implementation; benchmark records carry it so that
# timings from different kernels are never compared.
BACKEND = "python"


@dataclass(frozen=True)
class SubbandFrame:
    """Per-scale detail sequences plus the coarse branch.

    details[m] has length n0 * 2**m for m in 0..num_scales-1; coarse has
    length n0. In modulation use the coarse branch is all zeros.
    """

    details: list = field(default_factory=list)
    coarse: np.ndarray = None

    def __post_init__(self):
        n0 = len(self.coarse)
        for m, d in enumerate(self.details):
            if len(d) != n0 * 2**m:
                raise ShapeError(
                    f"detail level {m} has length {len(d)}, expected {n0 * 2**m}"
                )

    @property
    def n0(self) -> int:
        return len(self.coarse)

    @property
    def num_scales(self) -> int:
        return len(self.details)


def _as_float_array(seq) -> np.ndarray:
    return np.ascontiguousarray(seq, dtype=np.float64)


def _cyclic(v: np.ndarray, start: int, count: int) -> np.ndarray:
    """count samples of v from index start on, indices taken mod len(v).

    v may be shorter than count. An empty v gets zeros, which no kernel
    reads: every slice of an empty input is empty.
    """
    if len(v) == 0:
        return np.zeros(count)
    return v[np.arange(start, start + count) % len(v)]


def analysis_step(c_next, fp: FilterPair):
    """One pyramid level down: circular filter by h and g, decimate by 2.

    c(n) = sum_m h(m - 2n) c_next(m mod N), likewise x with g.
    Returns (c, x), each of length N/2.
    """
    c_next = _as_float_array(c_next)
    n_in = len(c_next)
    if n_in % 2 != 0:
        raise ShapeError(f"analysis input length {n_in} is odd")
    half = n_in // 2
    # Output n reads c_next[2n + i] for taps i = 0..taps-1, so extending
    # the input cyclically by taps - 2 samples turns tap i into the stride-2
    # slice ext[i : i + n_in : 2].
    ext = np.concatenate((c_next, _cyclic(c_next, 0, len(fp.h) - 2)))
    c = np.zeros(half)
    x = np.zeros(half)
    term = np.empty(half)
    for i, (h_i, g_i) in enumerate(zip(fp.h, fp.g)):
        v = ext[i : i + n_in : 2]
        c += np.multiply(h_i, v, out=term)
        x += np.multiply(g_i, v, out=term)
    return c, x


def synthesis_step(c, x, fp: FilterPair):
    """One pyramid level up: upsample, filter, sum the two branches.

    c_next(m) = sum_n h(m - 2n) c(n) + sum_n g(m - 2n) x(n), indices
    modulo 2*len(c). Exact inverse of analysis_step for orthonormal fp.
    """
    c = _as_float_array(c)
    x = _as_float_array(x)
    n_low = len(c)
    if n_low != len(x):
        raise ShapeError(f"coarse/detail length mismatch: {n_low} vs {len(x)}")
    taps = len(fp.h)
    # Output 2j + p takes taps i = 2k + p (k = 0..taps/2-1) at input j - k.
    # Prepending the pad = taps/2 - 1 samples that cyclically precede
    # index 0 turns input j - k into the contiguous slice [pad - k, pad - k
    # + n_low) of the padded copy, one slice per tap and output parity.
    pad = taps // 2 - 1
    c_pad = np.concatenate((_cyclic(c, -pad, pad), c))
    x_pad = np.concatenate((_cyclic(x, -pad, pad), x))
    out = np.zeros(2 * n_low)
    hc = np.empty(n_low)
    gx = np.empty(n_low)
    for parity in (0, 1):
        acc = out[parity::2]
        for i in range(parity, taps, 2):
            s = slice(pad - i // 2, pad - i // 2 + n_low)
            np.multiply(fp.h[i], c_pad[s], out=hc)
            hc += np.multiply(fp.g[i], x_pad[s], out=gx)
            acc += hc
    return out


def synthesize_pyramid(frame: SubbandFrame, fp: FilterPair) -> np.ndarray:
    """Run the inverse pyramid: coarse branch up through every detail level."""
    c = _as_float_array(frame.coarse)
    for m in range(frame.num_scales):
        c = synthesis_step(c, frame.details[m], fp)
    return c


def analyze_pyramid(samples, num_scales: int, fp: FilterPair) -> SubbandFrame:
    """Run the forward pyramid, peeling one detail sequence per level."""
    c = _as_float_array(samples)
    if len(c) % 2**num_scales != 0:
        raise ShapeError(
            f"block length {len(c)} not divisible by 2^{num_scales}"
        )
    details = [None] * num_scales
    for m in reversed(range(num_scales)):
        c, x = analysis_step(c, fp)
        details[m] = x
    return SubbandFrame(details=details, coarse=c)
