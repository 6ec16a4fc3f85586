"""Orthonormal wavelet filter pairs (Haar and the Daubechies family).

Filters use the unit-norm convention: sum(h) = sqrt(2), sum(h**2) = 1.
The wavelet filter is the quadrature mirror g(n) = (-1)^n h(T-1-n).
"""

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np
from numpy.polynomial import polynomial as P

from wavemod.errors import ConfigurationError

SUPPORTED_TAPS = (2, 4, 6, 8)

_TOL = 1e-12


@dataclass(frozen=True)
class FilterPair:
    """Scaling filter h and quadrature wavelet filter g, equal even length."""

    h: np.ndarray
    g: np.ndarray


def _daubechies_scaling(p: int) -> np.ndarray:
    """Minimum-phase Daubechies scaling filter with p vanishing moments.

    Spectral factorization: the half-band polynomial is
    P(y) = sum_k C(p-1+k, k) y^k evaluated at y = (2 - z - 1/z)/4;
    the roots inside the unit circle are kept (minimum phase) together
    with the p-fold zero at z = -1.
    """
    if p == 1:
        return np.array([1.0, 1.0]) / sqrt(2.0)

    # Q(z) = z^(p-1) P(y(z)), an ordinary polynomial of degree 2(p-1).
    q = np.zeros(2 * p - 1)
    for k in range(p):
        term = comb(p - 1 + k, k) * (-0.25) ** k
        factor = P.polypow([-1.0, 1.0], 2 * k)  # (z - 1)^(2k)
        shifted = np.zeros(2 * p - 1)
        shifted[p - 1 - k : p - 1 - k + len(factor)] = term * factor
        q += shifted

    roots = np.roots(q[::-1])
    inside = roots[np.abs(roots) < 1.0]

    h = P.polyfromroots(np.concatenate((np.full(p, -1.0 + 0.0j), inside)))
    h = np.real(h)
    h *= sqrt(2.0) / h.sum()

    # Orient so the energy-heavy taps lead (the published "db" ordering).
    half = len(h) // 2
    if np.sum(h[:half] ** 2) < np.sum(h[half:] ** 2):
        h = h[::-1]
    return h


def make_daubechies(taps: int) -> FilterPair:
    """Construct the Daubechies filter pair with the given even tap count.

    taps=2 is Haar; taps=2p gives p vanishing moments, minimum-phase roots.
    """
    if taps not in SUPPORTED_TAPS:
        raise ConfigurationError(
            f"unsupported tap count {taps}; supported values: {SUPPORTED_TAPS}"
        )
    h = np.ascontiguousarray(_daubechies_scaling(taps // 2))
    g = np.ascontiguousarray((-1.0) ** np.arange(taps) * h[::-1])
    h.setflags(write=False)
    g.setflags(write=False)
    return FilterPair(h=h, g=g)


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
