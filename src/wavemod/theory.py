"""Closed-form BER of the chains the Monte Carlo harness simulates.

SNR throughout is per-copy: E0 / sigma^2, in dB as 10*log10(E0/sigma^2).
"""

from math import exp, isnan, sqrt

import numpy as np

from wavemod.codec import METHOD1, METHOD2
from wavemod.errors import ConfigurationError
from wavemod.modem import PAM


# Cephes erf/erfc (Moshier, "Methods and Programs for Mathematical
# Functions", 1989), ported scalar by scalar. It gives the bits of
# scipy.special.erfc, with which the stored sweep outputs were computed;
# math.erfc differs from that in the last bit on 43% of uniform draws
# from [-30, 30], which would change sweep CSVs. Q, S and U spell out the
# leading 1 that Cephes's p1evl implies.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# ln(DBL_MAX): once a*a exceeds it, erfc(a) is taken as its limit, 0 or 2.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """Cephes erf for |x| < 1, the only range _erfc calls it with."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    if isnan(a):
        return a
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    # math.exp, as Cephes calls libm; np.exp differs from it in the last
    # bit on about 5% of inputs.
    z = exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    # Cephes checks y == 0 here. Under the _MAXLOG cut y is at least
    # ~1.2e-310 for a > 0 and at least 1 for a < 0, so it never fires.
    return y


def q_function(x):
    """Standard normal tail probability Q(x) = P(N(0,1) > x).

    Elementwise over arrays; a scalar or 0-d input gives a float64 scalar.
    """
    z = np.asarray(np.asarray(x, dtype=np.float64) / sqrt(2.0))
    erfc = np.fromiter(map(_erfc, z.ravel().tolist()), np.float64, z.size)
    return 0.5 * erfc.reshape(z.shape)


def ber_pam(snr):
    """Binary antipodal baseline: Q(sqrt(snr))."""
    return q_function(np.sqrt(snr))


def ber_method1_ideal(num_scales: int, snr):
    """All-scales idealization of Method 1: Q(sqrt(M*snr)).

    An optimistic lower bound for the realizable chain, where copy counts
    vary by symbol index; see ber_method1_exact.
    """
    with np.errstate(over="ignore"):  # copies * snr may be inf; Q(inf) = 0
        return q_function(np.sqrt(num_scales * np.asarray(snr, dtype=np.float64)))


def ber_method1_exact(num_scales: int, snr):
    """Exact Method 1 BER: mixture over the copy-count census.

    Half the symbol indices get 1 copy, a quarter get 2, ..., and the
    residue class with 2-adic valuation >= M-1 gets all M copies:
    sum_{c=1}^{M-1} 2^-c Q(sqrt(c*snr)) + 2^-(M-1) Q(sqrt(M*snr)).
    """
    snr = np.asarray(snr, dtype=np.float64)
    total = np.zeros_like(snr)
    with np.errstate(over="ignore"):  # copies * snr may be inf; Q(inf) = 0
        for c in range(1, num_scales):
            total = total + 2.0**-c * q_function(np.sqrt(c * snr))
        total = total + 2.0 ** -(num_scales - 1) * q_function(np.sqrt(num_scales * snr))
    return total


def ber_method2(num_scales: int, snr):
    """Method 2 BER: Q(sqrt(K*snr)) with K = 2**M - 1 copies per symbol."""
    k = 2**num_scales - 1
    with np.errstate(over="ignore"):  # copies * snr may be inf; Q(inf) = 0
        return q_function(np.sqrt(k * np.asarray(snr, dtype=np.float64)))


def ber_theory(method: str, num_scales: int, snr):
    """The theory value the Monte Carlo chain is matched against."""
    if method == METHOD1:
        return ber_method1_exact(num_scales, snr)
    if method == METHOD2:
        return ber_method2(num_scales, snr)
    if method == PAM:
        return ber_pam(snr)
    raise ConfigurationError(f"unknown method {method!r}")


def energy_per_symbol_factor(method: str, num_scales: int) -> float:
    """Average transmitted copies per message symbol (energy accounting).

    Converts per-copy SNR to per-message-energy SNR: Method 2 charges all
    K = 2**M - 1 repetitions to each symbol, Method 1 the census average
    2 - 2**(1-M), PAM exactly 1.
    """
    if method == METHOD1:
        return 2.0 - 2.0 ** (1 - num_scales)
    if method == METHOD2:
        return float(2**num_scales - 1)
    return 1.0
