"""Seeded AWGN channel.

Each (seed, stream_id) pair names an independent, reproducible noise
stream; calls are order-independent because every call derives a fresh
generator from the pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from wavemod.errors import ConfigurationError


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample noise standard deviation plus the stream identity."""

    sigma: float
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigurationError(f"sigma must be finite and >= 0, got {self.sigma}")


# Quoted: evaluating np.random here would import numpy.random with
# wavemod, which the file modem never uses.
def noise_rng(spec: NoiseSpec) -> "np.random.Generator":
    return np.random.default_rng(np.random.SeedSequence([spec.seed, spec.stream_id]))


def add_awgn(samples: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """r = s + sigma * N(0, 1), drawn from the (seed, stream_id) stream."""
    samples = np.asarray(samples, dtype=np.float64)
    if spec.sigma == 0.0:
        return samples.copy()
    # One array: sigma * noise + s has the bits of s + sigma * noise,
    # because IEEE addition is commutative.
    out = noise_rng(spec).standard_normal(len(samples))
    out *= spec.sigma
    out += samples
    return out
