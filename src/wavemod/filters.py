"""Orthonormal wavelet filter pairs (Haar and the Daubechies family).

Filters use the unit-norm convention: sum(h) = sqrt(2), sum(h**2) = 1.
The wavelet filter is the quadrature mirror g(n) = (-1)^n h(T-1-n).

The scaling filters h are exact float64 bits: Haar is 1/sqrt(2.0), and
taps 4, 6 and 8 are the minimum-phase factorization of Daubechies' half-band
polynomial (Comm. Pure Appl. Math. 41, 1988) as a float64 root finder gave
it. tests/test_filters.py re-derives them at 50 digits and checks the table.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from wavemod.errors import ConfigurationError

_TOL = 1e-12

_SCALING_HEX = {
    2: ("0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"),
    4: ("0x1.ee8dd4748bf15p-2", "0x1.ac4bdd6e3fd70p-1", "0x1.cb0bf0b6b7109p-3",
        "-0x1.0907dc1930690p-3"),
    6: ("0x1.54a796e50d268p-2", "0x1.9d20e247d28c0p-1", "0x1.d6ea20bf0f746p-2",
        "-0x1.1480a85c5963ap-3", "-0x1.5df7ab50d484bp-4", "0x1.2092e373789bbp-5"),
    8: ("0x1.d7d052af15eb2p-3", "0x1.6e005ea45d73fp-1", "0x1.4302cdd3de437p-1",
        "-0x1.ca7c6f9db5acfp-6", "-0x1.7f0c1b7c604b7p-3", "0x1.f94e219638396p-6",
        "0x1.0d60ac768116fp-5", "-0x1.5b41730b72e18p-7"),
}

SUPPORTED_TAPS = tuple(_SCALING_HEX)


@dataclass(frozen=True)
class FilterPair:
    """Scaling filter h and quadrature wavelet filter g, equal even length."""

    h: np.ndarray
    g: np.ndarray


def _pair(h_hex: tuple[str, ...]) -> FilterPair:
    # Rows of one read-only array: no caller can make a shared pair writable.
    h = np.array([float.fromhex(x) for x in h_hex])
    hg = np.stack((h, (-1.0) ** np.arange(len(h)) * h[::-1]))
    hg.setflags(write=False)
    return FilterPair(*hg)


_PAIRS = {taps: _pair(h_hex) for taps, h_hex in _SCALING_HEX.items()}


def make_daubechies(taps: int) -> FilterPair:
    """The Daubechies filter pair with the given even tap count.

    taps=2 is Haar; taps=2p gives p vanishing moments, minimum-phase roots.
    """
    if taps not in SUPPORTED_TAPS:
        raise ConfigurationError(
            f"unsupported tap count {taps}; supported values: {SUPPORTED_TAPS}"
        )
    return _PAIRS[taps]


def validate_filter_pair(fp: FilterPair) -> list[str]:
    """Check every FilterPair invariant numerically at tolerance 1e-12.

    Returns one entry per violated invariant with the measured residual;
    an empty list means the pair is valid.
    """
    violations = []
    h = np.asarray(fp.h, dtype=float)
    g = np.asarray(fp.g, dtype=float)
    taps = len(h)

    if len(g) != taps:
        violations.append(f"len(h)={taps} != len(g)={len(g)}")
        return violations
    if taps < 2 or taps % 2 != 0:
        violations.append(f"tap count {taps} is not an even integer >= 2")
        return violations

    r = abs(np.sum(h**2) - 1.0)
    if r > _TOL:
        violations.append(f"unit norm: |sum(h^2) - 1| = {r:.3e}")
    r = abs(np.sum(g**2) - 1.0)
    if r > _TOL:
        violations.append(f"unit norm: |sum(g^2) - 1| = {r:.3e}")

    for k in range(1, taps // 2):
        r = abs(np.dot(h[2 * k :], h[: taps - 2 * k]))
        if r > _TOL:
            violations.append(f"even-shift orthogonality: |<h, h(.-{2 * k})>| = {r:.3e}")

    expected_g = (-1.0) ** np.arange(taps) * h[::-1]
    r = float(np.max(np.abs(g - expected_g)))
    if r > _TOL:
        violations.append(f"quadrature relation g(n) = (-1)^n h(T-1-n): max dev {r:.3e}")

    r = abs(np.sum(h) - sqrt(2.0))
    if r > _TOL:
        violations.append(f"sum(h) != sqrt(2): residual {r:.3e}")
    r = abs(np.sum(g))
    if r > _TOL:
        violations.append(f"sum(g) != 0: residual {r:.3e}")

    return violations
