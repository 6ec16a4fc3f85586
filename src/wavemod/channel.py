"""AWGN channel: the caller's generator names the noise stream."""

import math

import numpy as np

from wavemod.errors import ConfigurationError


# Quoted: evaluating np.random here would import numpy.random with
# wavemod, which the file modem never uses.
def add_awgn(
    samples: np.ndarray, sigma: float, rng: "np.random.Generator", out=None
) -> np.ndarray:
    """r = s + sigma * N(0, 1), the normals drawn from rng.

    r goes into out, a float64 array of len(samples) that must not overlap
    samples (ConfigurationError), or into a fresh array. Either way the
    noise stream and the result are the same bytes.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigurationError(f"sigma must be finite and >= 0, got {sigma}")
    samples = np.asarray(samples, dtype=np.float64)
    if out is None:
        out = np.empty(len(samples))
    elif np.may_share_memory(out, samples):  # the normals would overwrite s
        raise ConfigurationError("out overlaps samples")
    if sigma == 0.0:
        out[...] = samples
        return out
    # One array: sigma * noise + s has the bits of s + sigma * noise,
    # because IEEE addition is commutative.
    rng.standard_normal(len(samples), out=out)
    out *= sigma
    out += samples
    return out
