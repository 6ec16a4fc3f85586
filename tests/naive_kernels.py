"""Naive single-level pyramid kernels: the test oracle for filterbank.

Each tap gathers its inputs with an explicit modular index array, straight
from the circular-convolution formulas. The accumulation order (a zeroed
accumulator, then one term per tap in ascending order) is the one the
library kernels keep, so the two must agree bit for bit.
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
