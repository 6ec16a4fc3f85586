"""Naive single-level pyramid kernels: the test oracle for filterbank.

Each tap gathers its inputs with an explicit modular index array, straight
from the circular-convolution formulas. The accumulation order (a zeroed
accumulator, then one term per tap in ascending order) fixes the bits,
sign of zero included, that the library kernels must give. The pyramids
loop the steps over the levels: analyze_pyramid lays the frame out by
concatenation and synthesize_pyramid reads each level by its index range,
neither through filterbank.level_slice.
"""

import numpy as np


def analysis_step(c_next, h, g):
    n_in = len(c_next)
    half = n_in // 2
    base = 2 * np.arange(half)
    acc_c = np.zeros(half)
    acc_x = np.zeros(half)
    for i in range(len(h)):
        v = c_next[(base + i) % n_in]
        acc_c = acc_c + h[i] * v
        acc_x = acc_x + g[i] * v
    return acc_c, acc_x


def analyze_pyramid(samples, num_scales, h, g):
    """Coarse branch, then detail levels 0 (coarsest) .. M-1 (finest)."""
    c = samples
    details = []
    for _ in range(num_scales):
        c, x = analysis_step(c, h, g)
        details.append(x)
    return np.concatenate([c, *reversed(details)])


def synthesis_step(c, x, h, g):
    n_low = len(c)
    n_out = 2 * n_low
    taps = len(h)
    out = np.empty(n_out)
    for parity in (0, 1):
        m = np.arange(parity, n_out, 2)
        acc = np.zeros(len(m))
        for i in range(parity, taps, 2):
            n = ((m - i) // 2) % n_low
            acc = acc + (h[i] * c[n] + g[i] * x[n])
        out[m] = acc
    return out


def synthesize_pyramid(frame, num_scales, h, g):
    """Coarse branch up through detail levels 0 .. M-1; level m is
    frame[n0 * 2**m : n0 * 2**(m+1)]."""
    n0 = len(frame) >> num_scales
    c = frame[:n0]
    for m in range(num_scales):
        c = synthesis_step(c, frame[n0 << m : n0 << (m + 1)], h, g)
    return c
