"""Closed-form BER of the chains the Monte Carlo harness simulates.

The detector sums a symbol's copies with equal gain, so a symbol sent
with c copies has BER Q(sqrt(c*snr)). The methods differ only in how many
copies each symbol gets: copy_census states that once per method, and
every BER curve (ber_equal_gain) and the energy factor derive from it.

SNR throughout is per-copy: E0 / sigma^2, in dB as 10*log10(E0/sigma^2).
"""

from math import erfc, fsum, sqrt

import numpy as np

from wavemod.codec import METHOD1, METHOD2, PAM
from wavemod.errors import ConfigurationError


def q_function(x):
    """Standard normal tail probability Q(x) = P(N(0,1) > x), computed as
    0.5 * math.erfc(x / sqrt(2)).

    Elementwise over arrays; a scalar or 0-d input gives a float64 scalar.
    """
    z = np.asarray(np.asarray(x, dtype=np.float64) / sqrt(2.0))
    tail = np.fromiter(map(erfc, z.ravel().tolist()), np.float64, z.size)
    return 0.5 * tail.reshape(z.shape)


def copy_census(method: str, num_scales: int) -> dict:
    """{copies c: share of message symbols sent with c copies}.

    Method 1: half the symbol indices get 1 copy, a quarter 2, ..., and
    the residue class with 2-adic valuation >= M-1 gets all M copies.
    Method 2: every symbol gets K = 2**M - 1. PAM: every symbol gets 1.
    """
    if method == METHOD1:
        census = {c: 2.0**-c for c in range(1, num_scales)}
        census[num_scales] = 2.0 ** -(num_scales - 1)
        return census
    if method == METHOD2:
        return {2**num_scales - 1: 1.0}
    if method == PAM:
        return {1: 1.0}
    raise ConfigurationError(f"unknown method {method!r}")


def ber_equal_gain(census: dict, snr):
    """BER of equal-gain detection: sum over the census of
    share * Q(sqrt(c*snr)), added in ascending c."""
    snr = np.asarray(snr, dtype=np.float64)
    total = np.zeros_like(snr)
    with np.errstate(over="ignore"):  # copies * snr may be inf; Q(inf) = 0
        for c in sorted(census):
            total = total + census[c] * q_function(np.sqrt(c * snr))
    return total


def ber_theory(method: str, num_scales: int, snr):
    """The theory value the Monte Carlo chain is matched against."""
    return ber_equal_gain(copy_census(method, num_scales), snr)


def ber_method1_ideal(num_scales: int, snr):
    """All-scales idealization of Method 1: Q(sqrt(M*snr)), an optimistic
    lower bound for the realizable chain, where copy counts vary by symbol."""
    return ber_equal_gain({num_scales: 1.0}, snr)


def energy_per_symbol_factor(method: str, num_scales: int) -> float:
    """Mean copies per message symbol over the census (energy accounting):
    converts per-copy SNR to per-message-energy SNR. fsum keeps Method 1
    at 2 - 2**(1-M) exactly; a plain sum falls short from M = 54 on."""
    return fsum(c * share for c, share in copy_census(method, num_scales).items())
