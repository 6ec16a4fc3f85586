import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

import wavemod
from wavemod.errors import ConfigurationError
from wavemod.filters import SUPPORTED_TAPS, FilterPair, make_daubechies, validate_filter_pair

SQRT2 = math.sqrt(2.0)

# Published minimum-phase Daubechies scaling coefficients (Daubechies, Comm.
# Pure Appl. Math. 41, 1988; unit-norm convention), an independent check of
# the filter table next to the 50-digit factorization below.
PUBLISHED = {
    6: [
        0.332670552950083,
        0.806891509311092,
        0.459877502118491,
        -0.135011020010255,
        -0.085441273882027,
        0.035226291885710,
    ],
    8: [
        0.230377813308855,
        0.714846570552542,
        0.630880767929590,
        -0.027983769416984,
        -0.187034811718881,
        0.030841381835987,
        0.032883011666983,
        -0.010597401784997,
    ],
}


def factorized_scaling(taps):
    """Minimum-phase Daubechies scaling filter with taps/2 vanishing moments,
    at 50 digits, with no float64 root finder.

    Spectral factorization: the half-band polynomial is
    P(y) = sum_k C(p-1+k, k) y^k evaluated at y = (2 - z - 1/z)/4; the
    roots inside the unit circle are kept (minimum phase) together with the
    p-fold zero at z = -1, and the energy-heavy taps lead (the published
    ordering).
    """
    p = taps // 2
    with mpmath.workdps(50):
        # Q(z) = z^(p-1) P(y(z)), degree 2(p-1), coefficients in ascending powers.
        q = [mpmath.mpf(0)] * (2 * p - 1)
        for k in range(p):
            term = math.comb(p - 1 + k, k) * mpmath.mpf(-0.25) ** k
            for j in range(2 * k + 1):  # (z - 1)^(2k)
                q[p - 1 - k + j] += term * math.comb(2 * k, j) * (-1) ** j
        roots = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=100) if p > 1 else []
        h = [mpmath.mpc(1)]
        for root in [mpmath.mpf(-1)] * p + [r for r in roots if abs(r) < 1]:
            h = [a - root * b for a, b in zip([0] + h, h + [0])]  # h(z) * (z - root)
        h = [mpmath.re(c) for c in h]
        h = [c * mpmath.sqrt(2) / sum(h) for c in h]
        if sum(c**2 for c in h[:p]) < sum(c**2 for c in h[p:]):
            h = h[::-1]
        return [float(c) for c in h]


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_table_matches_factorization(taps):
    expected = factorized_scaling(taps)
    np.testing.assert_allclose(make_daubechies(taps).h, expected, rtol=0, atol=1e-13)


def test_haar_is_the_float_quotient():
    # 1/sqrt(2.0) rounds twice, so it is 1 ulp below the factorization's
    # correctly rounded 1/sqrt(2); the pinned bytes rest on the quotient.
    assert make_daubechies(2).h.tolist() == [1.0 / math.sqrt(2.0)] * 2


def test_runtime_path_needs_no_root_finder():
    """A fresh interpreter builds every pair through the CLI's imports with
    numpy's root finders disabled, and never imports numpy.polynomial."""
    script = textwrap.dedent("""
        import sys
        import numpy as np

        def refuse(*args, **kwargs):
            raise AssertionError("root finder called")

        np.roots = np.linalg.eigvals = refuse
        import wavemod.cli
        from wavemod.filters import SUPPORTED_TAPS, make_daubechies

        pairs = [make_daubechies(taps) for taps in SUPPORTED_TAPS]
        print(len(pairs), "numpy.polynomial" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(wavemod.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == [str(len(SUPPORTED_TAPS)), "False"]


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_shared_pairs_are_read_only(taps):
    fp = make_daubechies(taps)
    for coefficients in (fp.h, fp.g):
        with pytest.raises(ValueError):
            coefficients[0] = 0.0
        with pytest.raises(ValueError):
            coefficients.setflags(write=True)


def test_haar_is_exact():
    fp = make_daubechies(2)
    np.testing.assert_allclose(fp.h, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    np.testing.assert_allclose(fp.g, [1 / SQRT2, -1 / SQRT2], atol=1e-15)


def test_db2_matches_closed_form():
    # Oracle: the (1 +/- sqrt(3)) closed forms solving the orthonormality
    # plus two-vanishing-moment constraint system.
    s3 = math.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2)
    np.testing.assert_allclose(make_daubechies(4).h, expected, atol=1e-10)


@pytest.mark.parametrize("taps", [6, 8])
def test_matches_published_tables(taps):
    np.testing.assert_allclose(make_daubechies(taps).h, PUBLISHED[taps], atol=1e-8)


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_constructed_pairs_are_valid(taps):
    assert validate_filter_pair(make_daubechies(taps)) == []


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_vanishing_moments(taps):
    fp = make_daubechies(taps)
    n = np.arange(taps)
    for k in range(taps // 2):
        assert abs(np.sum(fp.g * n**k)) < 1e-9


@pytest.mark.parametrize("taps", [3, 5, 0, 10, -2])
def test_unsupported_taps_rejected(taps):
    with pytest.raises(ConfigurationError, match="supported"):
        make_daubechies(taps)


def test_determinism():
    a, b = make_daubechies(8), make_daubechies(8)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)


def test_validate_flags_wrong_sum():
    fp = FilterPair(h=np.array([1.0, 0.0]), g=np.array([0.0, 1.0]))
    problems = validate_filter_pair(fp)
    assert any("sqrt(2)" in p for p in problems)


def test_validate_flags_constant_filter():
    # Unit norm holds for [0.5]*4 (sum of squares is exactly 1); what
    # breaks is orthogonality to even shifts and the sqrt(2) sum.
    h = np.array([0.5, 0.5, 0.5, 0.5])
    g = (-1.0) ** np.arange(4) * h[::-1]
    problems = validate_filter_pair(FilterPair(h=h, g=g))
    assert any("orthogonality" in p for p in problems)
    assert any("sqrt(2)" in p for p in problems)


def test_validate_flags_wrong_norm():
    h = np.array([0.5, 0.9, 0.5, 0.9])
    g = (-1.0) ** np.arange(4) * h[::-1]
    problems = validate_filter_pair(FilterPair(h=h, g=g))
    assert any("unit norm" in p for p in problems)


def test_validate_flags_quadrature_breakage():
    fp = make_daubechies(4)
    problems = validate_filter_pair(FilterPair(h=fp.h, g=fp.g[::-1].copy()))
    assert any("quadrature" in p for p in problems)


def test_validate_flags_length_mismatch():
    fp = make_daubechies(4)
    problems = validate_filter_pair(FilterPair(h=fp.h, g=fp.g[:2].copy()))
    assert problems == ["len(h)=4 != len(g)=2"]


@pytest.mark.parametrize("taps", [3, 1, 0])
def test_validate_flags_odd_or_too_few_taps(taps):
    h = np.full(taps, 0.5)
    problems = validate_filter_pair(FilterPair(h=h, g=h.copy()))
    assert problems == [f"tap count {taps} is not an even integer >= 2"]
