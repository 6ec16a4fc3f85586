"""The modem chain shared by the file CLI and the Monte Carlo harness.

A Modem checks the method/scales/length contract once, when it is built;
the layers below derive every length from their arrays. modulate places
the message (Method 1 or 2) and synthesizes the frame; demodulate
analyzes it and runs the equal-gain ML detector. PAM, the baseline, is
the same chain at depth 0, where the pyramids copy their input. transmit,
for the Monte Carlo harness, is demodulate(modulate(bits) + noise)
computed without synthesis.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

# Lower layers are called through their modules (codec.place_method1, ...):
# the benchmark's tracer wraps functions by replacing module attributes,
# and only in modules it lists, which do not include this one.
from wavemod import codec, detector, filterbank, filters
from wavemod.codec import METHOD1, METHOD2, PAM
from wavemod.errors import ConfigurationError, ShapeError

METHODS = (METHOD1, METHOD2, PAM)

# Largest frame a modem accepts: 128 MiB per float64 array.
MAX_FRAME_SAMPLES = 2**24

# A filter-bank frame at depth M has at least 2**M samples, so deeper
# frames are over the cap whatever the message length.
_MAX_SCALES = MAX_FRAME_SAMPLES.bit_length() - 1


def require_integer(name: str, value) -> None:
    """ConfigurationError unless value is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ConfigurationError unless value is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")


def _geometry(method: str, num_scales: int) -> tuple[int, int]:
    """(pyramid depth, symbols per coarse sample) of a checked method and
    scale count; a depth over the cap is refused before 2**depth is built."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; supported methods: {METHODS}")
    require_integer("num_scales", num_scales)
    if num_scales < 1:
        raise ConfigurationError("num_scales must be >= 1")
    depth = 0 if method == PAM else num_scales
    if depth > _MAX_SCALES:
        raise ConfigurationError(
            f"{method} with {num_scales} scales needs frames of at least 2^{num_scales} "
            f"samples, over the cap of {MAX_FRAME_SAMPLES} samples"
        )
    return depth, codec.symbols_per_coarse_sample(method, depth)


@dataclass(frozen=True)
class Modem:
    """One modulate/demodulate chain: method, scale count, message length,
    filter taps and per-copy symbol energy E0. PAM ignores scales, not
    taps: it runs the depth-0 chain with the taps' filter pair.

    A modem owns one pyramid work area, which every block reuses in both
    directions. It is built on first use, so one Modem is not for
    concurrent use. Pickling keeps only the constructor fields: the copy
    builds its own.
    """

    method: str
    num_scales: int
    message_len: int
    taps: int = 4
    symbol_energy: float = 1.0
    filter_pair: np.ndarray = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)  # of the pyramids
    num_samples: int = field(init=False, repr=False, compare=False)  # per frame

    def __post_init__(self):
        depth, rate = _geometry(self.method, self.num_scales)
        require_integer("message_len", self.message_len)
        require_integer("taps", self.taps)
        require_real("symbol_energy", self.symbol_energy)
        if self.message_len < 1:
            raise ConfigurationError("message_len must be >= 1")
        if not (math.isfinite(self.symbol_energy) and self.symbol_energy > 0):
            raise ConfigurationError(
                f"symbol energy must be finite and > 0, got {self.symbol_energy}"
            )
        if self.message_len % rate != 0:
            raise ConfigurationError(
                f"Method 1 with {self.num_scales} scales needs a message length "
                f"divisible by {rate}, got {self.message_len}"
            )
        num_samples = self.message_len // rate << depth
        if num_samples > MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"{self.method} with {self.num_scales} scales and {self.message_len} bits "
                f"needs frames over the cap of {MAX_FRAME_SAMPLES} samples"
            )
        object.__setattr__(self, "filter_pair", filters.make_daubechies(self.taps))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "num_samples", num_samples)

    def __reduce__(self):
        return type(self), (
            self.method, self.num_scales, self.message_len, self.taps, self.symbol_energy
        )

    @classmethod
    def for_samples(cls, method: str, num_scales: int, num_samples: int, taps: int = 4):
        """The modem whose frames have num_samples samples.

        For demodulation, where the received frame fixes the message
        length. E0 stays 1: the detector decides on the sign of the copy
        sums only, so the energy never changes a decision.
        """
        depth, rate = _geometry(method, num_scales)
        if num_samples % (1 << depth) != 0:
            raise ConfigurationError(f"sample count {num_samples} not divisible by 2^{num_scales}")
        return cls(method, num_scales, (num_samples >> depth) * rate, taps)

    def modulate(self, bits) -> np.ndarray:
        """message_len bits (0 or 1) -> one frame of samples, a new array."""
        return filterbank.synthesize_pyramid(
            self._place(self._symbols(bits)), self.depth, self.filter_pair, self._work
        )

    def demodulate(self, samples) -> np.ndarray:
        """One frame of samples -> message_len detected bits (int64); a
        ConfigurationError if a sample is nan or inf or the analysis overflows."""
        if len(samples) != self.num_samples:
            raise ShapeError(f"frame has {len(samples)} samples, expected {self.num_samples}")
        with np.errstate(over="ignore", invalid="ignore"):
            frame = filterbank.analyze_pyramid(samples, self.depth, self.filter_pair, self._work)
        if not np.isfinite(frame).all():
            raise ConfigurationError("non-finite frame: a nan or inf sample, or an overflow")
        return detector.detect_block(frame, self.method, self.depth)

    def transmit(self, bits, noise: np.ndarray) -> np.ndarray:
        """demodulate(modulate(bits) + noise) without synthesis; noise, a
        float64 array of num_samples samples, is overwritten.

        The pyramid is orthonormal and linear, so the analyzed block is
        the placed frame plus the analyzed noise: noise is analyzed in
        place and the message's copies are added onto it, with no frame
        of their own. At depth 0 (PAM) that adds the symbols to the noise,
        the full chain's bits exactly. For the wavelet methods the sums
        round differently, so a decision can differ from the full chain's
        only where a copy sum is within rounding of zero.
        """
        if len(noise) != self.num_samples:
            raise ShapeError(f"noise has {len(noise)} samples, expected {self.num_samples}")
        symbols = self._symbols(bits)
        frame = filterbank.analyze_pyramid(
            noise, self.depth, self.filter_pair, self._work, out=noise
        )
        self._place(symbols, out=frame)
        return detector.detect_block(frame, self.method, self.depth)

    def _symbols(self, bits) -> np.ndarray:
        if len(bits) != self.message_len:
            raise ShapeError(f"message has {len(bits)} bits, expected {self.message_len}")
        return codec.symbols(bits, self.symbol_energy)

    def _place(self, symbols, out=None) -> np.ndarray:
        # PAM's depth-0 frame takes Method 2's placement: one copy per symbol.
        place = codec.place_method1 if self.method == METHOD1 else codec.place_method2
        return place(symbols, self.depth, out)

    # At depth 0 no pyramid step runs, so the work area holds no frame.
    @cached_property
    def _work(self) -> np.ndarray:
        return filterbank.work_area(self.num_samples if self.depth else 0, self.filter_pair)
