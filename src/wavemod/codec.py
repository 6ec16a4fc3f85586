"""Message placement: map a binary block into subband details and back.

Method 1 ("wm1") spreads decimated versions of the message across scales:
scale m carries every 2**(M-1-m)-th symbol, so a symbol's copy count is
1 + min(v2(k), M-1) where v2 is the 2-adic valuation of its index.

Method 2 ("wm2") repeats the whole L-symbol message periodically at every
scale, giving each symbol exactly K = 2**M - 1 copies.

Both return one frame laid out as filterbank.level_slice says, coarse
branch zero. Bit polarity is fixed: bit 1 -> +sqrt(E0), bit 0 -> -sqrt(E0).
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from wavemod.errors import ConfigurationError

METHOD1 = "wm1"
METHOD2 = "wm2"


def symbols(bits, energy: float) -> np.ndarray:
    """Antipodal map of 0/1 bits: bit 1 -> +sqrt(E0), bit 0 -> -sqrt(E0).

    The energy is not checked here: a Modem checks it once, when built.
    """
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ConfigurationError("message bits must be 0 or 1")
    return (2.0 * bits - 1.0) * sqrt(energy)


@dataclass(frozen=True)
class PlacementSpec:
    """Which placement produced a frame: method, scale count, base length.

    base_length is the coarsest detail length n0; the message length is
    n0 * 2**(M-1) for Method 1 and n0 for Method 2.
    """

    method: str
    num_scales: int
    base_length: int

    def __post_init__(self):
        if self.method not in (METHOD1, METHOD2):
            raise ConfigurationError(f"unknown placement method {self.method!r}")
        if self.num_scales < 1:
            raise ConfigurationError("num_scales must be >= 1")
        if self.base_length < 1:
            raise ConfigurationError("base_length must be >= 1")

    @classmethod
    def for_message(cls, method: str, num_scales: int, message_len: int):
        """The spec that places a message_len-symbol message.

        Method 1 decimates by up to 2**(M-1), so it needs a message length
        divisible by that factor.
        """
        if method != METHOD1:
            return cls(method, num_scales, message_len)
        factor = 2 ** (num_scales - 1)
        if message_len % factor != 0:
            raise ConfigurationError(
                f"Method 1 with {num_scales} scales needs a message length "
                f"divisible by {factor}, got {message_len}"
            )
        return cls(method, num_scales, message_len // factor)

    @classmethod
    def for_samples(cls, method: str, num_scales: int, num_samples: int):
        """The spec whose synthesized frames have num_samples samples."""
        if num_samples % 2**num_scales != 0:
            raise ConfigurationError(f"sample count {num_samples} not divisible by 2^{num_scales}")
        return cls(method, num_scales, num_samples // 2**num_scales)

    @property
    def message_length(self) -> int:
        if self.method == METHOD1:
            return self.base_length * 2 ** (self.num_scales - 1)
        return self.base_length

    @property
    def num_samples(self) -> int:
        """Samples in a synthesized frame: n0 * 2**M."""
        return self.base_length * 2**self.num_scales


def place_method1(a: np.ndarray, num_scales: int) -> np.ndarray:
    """Decimation placement of symbols a: scale m holds every
    2**(M-1-m)-th symbol."""
    spec = PlacementSpec.for_message(METHOD1, num_scales, len(a))
    decimated = [a[:: 2 ** (num_scales - 1 - m)] for m in range(num_scales)]
    return np.concatenate([np.zeros(spec.base_length), *decimated])


def place_method2(a: np.ndarray, num_scales: int) -> np.ndarray:
    """Repetition placement of symbols a: scale m holds 2**m periods of the
    message, so the levels together are 2**M - 1 back-to-back periods."""
    spec = PlacementSpec.for_message(METHOD2, num_scales, len(a))
    frame = np.zeros(spec.num_samples)
    frame[len(a) :].reshape(-1, len(a))[:] = a
    return frame


def _check_frame(frame: np.ndarray, spec: PlacementSpec):
    if len(frame) != spec.num_samples:
        raise ConfigurationError(
            f"frame length {len(frame)} does not match spec (M={spec.num_scales}, "
            f"n0={spec.base_length}: {spec.num_samples})"
        )


def coefficient_symbol_map(spec: PlacementSpec) -> tuple[np.ndarray, ...]:
    """Per scale, the message-symbol index that owns each detail coefficient.

    The arrays together are as long as a frame, so a Modem builds them once
    and passes them to each block; they are read-only because blocks share
    them.
    """
    out = []
    for m in range(spec.num_scales):
        length = spec.base_length * 2**m
        n = np.arange(length)
        if spec.method == METHOD1:
            owners = n * 2 ** (spec.num_scales - 1 - m)
        else:
            owners = n % spec.base_length
        owners.flags.writeable = False
        out.append(owners)
    return tuple(out)
