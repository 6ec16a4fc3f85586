"""Message placement: map a binary block into subband details and back.

Method 1 ("wm1") spreads decimated versions of the message across scales:
scale m carries every 2**(M-1-m)-th symbol, so a symbol's copy count is
1 + min(v2(k), M-1) where v2 is the 2-adic valuation of its index.

Method 2 ("wm2") repeats the whole L-symbol message periodically at every
scale, giving each symbol exactly K = 2**M - 1 copies.

At depth 0, the PAM baseline's chain, Method 2's placement puts the
message once into the coarse branch, which is then the whole frame.

Both add the copies onto the caller's out= (Modem.transmit's analyzed
noise) or into a fresh zero frame, laid out as filterbank.level_slice
says. copies() is the one statement of where each level's copies go:
the placements add through it and detector.detect_block reads through
it. Bit polarity is fixed: bit 1 -> +sqrt(E0), bit 0 -> -sqrt(E0).
Nothing here checks the method/scales/length contract: a Modem does.
"""

from math import sqrt

import numpy as np

from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filterbank import _base_length, level_slice

METHOD1 = "wm1"
METHOD2 = "wm2"
PAM = "pam"  # the baseline: Method 2's placement at depth 0


def symbols(bits, energy: float) -> np.ndarray:
    """Antipodal map of 0/1 bits: bit 1 -> +sqrt(E0), bit 0 -> -sqrt(E0).

    The energy is not checked here: a Modem checks it once, when built.
    """
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ConfigurationError("message bits must be 0 or 1")
    return (2.0 * bits - 1.0) * sqrt(energy)


def symbols_per_coarse_sample(method: str, num_scales: int) -> int:
    """L / n0, the message symbols a frame carries per coarse sample.

    A frame has n0 * 2**M coefficients. Method 2 repeats the message, so
    n0 = L; Method 1 decimates it by up to 2**(M-1), so n0 = L / 2**(M-1).
    PAM's frame is its message at depth 0, so n0 = L.
    """
    return 1 << (num_scales - 1) if method == METHOD1 else 1


def copies(frame: np.ndarray, method: str, num_scales: int):
    """Where the placement puts each symbol's copies, the one statement of it.

    Yields, for detail levels m = 0..M-1 in order, (rows, sel): a 2-D view
    of level m whose every row holds the message symbols a[sel]. Method 1,
    level m: one row of every 2**(M-1-m)-th symbol. Method 2, level m:
    2**m rows of the whole message. At depth 0 there is no detail level:
    the frame is one row of the whole message, the coarse branch.

    A frame whose length is not a multiple of 2**M raises ShapeError.
    """
    n0 = _base_length(len(frame), num_scales)
    if num_scales == 0:
        yield frame[np.newaxis], slice(None)
    for m in range(num_scales):
        level = frame[level_slice(n0, m)]
        if method == METHOD1:
            yield level[np.newaxis], slice(None, None, 2 ** (num_scales - 1 - m))
        else:
            yield level.reshape(1 << m, n0), slice(None)


def _place(a: np.ndarray, method: str, num_scales: int, out) -> np.ndarray:
    n = len(a) // symbols_per_coarse_sample(method, num_scales) << num_scales
    frame = np.zeros(n) if out is None else out
    if len(frame) != n:
        raise ShapeError(f"output of {len(frame)} samples for a frame of {n}")
    for rows, sel in copies(frame, method, num_scales):
        rows += a[sel]
    return frame


def place_method1(a: np.ndarray, num_scales: int, out=None) -> np.ndarray:
    """Decimation placement of symbols a: scale m holds every
    2**(M-1-m)-th symbol. The copies are added onto out (a float64 array
    of frame length) or placed in a fresh array."""
    return _place(a, METHOD1, num_scales, out)


def place_method2(a: np.ndarray, num_scales: int, out=None) -> np.ndarray:
    """Repetition placement of symbols a: scale m holds 2**m periods of the
    message, so the levels together are 2**M - 1 back-to-back periods.
    The copies are added onto out (a float64 array of frame length) or
    placed in a fresh array."""
    return _place(a, METHOD2, num_scales, out)
