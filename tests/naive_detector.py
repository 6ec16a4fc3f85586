"""Per-symbol ML detection: the test oracle for detector.detect_block.

gather_observations collects every copy of each message symbol with a
Python loop over the frame, and ml_decide forms the ML statistic
(sqrt(E0)/sigma^2) * sum(copies) for one symbol. detect_block must give
the same bits as the two together.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from wavemod.codec import PlacementSpec, _check_frame, coefficient_symbol_map
from wavemod.errors import ConfigurationError
from wavemod.filterbank import level_slice


@dataclass(frozen=True)
class ObservationSet:
    """All noisy received copies of one message symbol."""

    copies: np.ndarray
    symbol_index: int


@dataclass(frozen=True)
class Decision:
    """Detected bit and the combining statistic it came from."""

    bit: int
    statistic: float


def ml_decide(obs: ObservationSet, symbol_energy: float, noise_var: float) -> Decision:
    """Equal-gain ML decision: I = (sqrt(E0)/sigma^2) * sum(copies), bit 1 iff I > 0.

    Ties at I = 0 go to bit 0.
    """
    if symbol_energy <= 0 or noise_var <= 0:
        raise ConfigurationError("symbol_energy and noise_var must be > 0")
    if len(obs.copies) == 0:
        raise ConfigurationError(f"symbol {obs.symbol_index} has no observations")
    statistic = sqrt(symbol_energy) / noise_var * float(np.sum(obs.copies))
    return Decision(bit=int(statistic > 0), statistic=statistic)


def gather_observations(frame: np.ndarray, spec: PlacementSpec):
    """Collect, per message symbol, every frame coefficient it was placed in."""
    _check_frame(frame, spec)
    copies = [[] for _ in range(spec.message_length)]
    for m, owners in enumerate(coefficient_symbol_map(spec)):
        level = frame[level_slice(spec.base_length, m)]
        for pos, k in enumerate(owners):
            copies[k].append(level[pos])
    return [
        ObservationSet(copies=np.array(c), symbol_index=k)
        for k, c in enumerate(copies)
    ]
