"""AWGN channel: the caller's generator names the noise stream."""

import math

import numpy as np

from wavemod.errors import ConfigurationError


# Quoted: evaluating np.random here would import numpy.random with
# wavemod, which the file modem never uses.
def add_awgn(samples: np.ndarray, sigma: float, rng: "np.random.Generator") -> np.ndarray:
    """r = s + sigma * N(0, 1), the normals drawn from rng."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigurationError(f"sigma must be finite and >= 0, got {sigma}")
    samples = np.asarray(samples, dtype=np.float64)
    if sigma == 0.0:
        return samples.copy()
    # One array: sigma * noise + s has the bits of s + sigma * noise,
    # because IEEE addition is commutative.
    out = rng.standard_normal(len(samples))
    out *= sigma
    out += samples
    return out
