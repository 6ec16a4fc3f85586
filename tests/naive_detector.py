"""Per-symbol ML detection: the test oracle for detector.detect_block.

gather_observations collects every copy of each message symbol with a
Python loop over the frame, and ml_decide forms the ML statistic
(sqrt(E0)/sigma^2) * sum(copies) for one symbol. detect_block must give
the same bits as the two together. The oracle states the placement layout
on its own, as a per-coefficient owner map, so that a wrong layout in
codec.copies cannot pass unseen.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from wavemod.codec import METHOD1
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


def coefficient_symbol_map(method: str, num_scales: int, base_length: int):
    """Per scale, the message-symbol index that owns each detail coefficient."""
    out = []
    for m in range(num_scales):
        length = base_length * 2**m
        n = np.arange(length)
        if method == METHOD1:
            owners = n * 2 ** (num_scales - 1 - m)
        else:
            owners = n % base_length
        out.append(owners)
    return tuple(out)


def gather_observations(frame: np.ndarray, method: str, num_scales: int, message_len: int):
    """Collect, per message symbol, every frame coefficient it was placed in."""
    n0 = message_len >> (num_scales - 1) if method == METHOD1 else message_len
    if len(frame) != n0 * 2**num_scales:
        raise ConfigurationError(f"frame length {len(frame)} does not match n0={n0}")
    copies = [[] for _ in range(message_len)]
    for m, owners in enumerate(coefficient_symbol_map(method, num_scales, n0)):
        level = frame[level_slice(n0, m)]
        for pos, k in enumerate(owners):
            copies[k].append(level[pos])
    return [
        ObservationSet(copies=np.array(c), symbol_index=k)
        for k, c in enumerate(copies)
    ]
