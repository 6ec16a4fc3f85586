"""The modem chain shared by the file CLI and the Monte Carlo harness.

A Modem checks the method/scales/length contract once, when it is built.
modulate places the message (Method 1 or 2) and synthesizes the frame;
demodulate analyzes it and runs the equal-gain ML detector. PAM, the
baseline, sends antipodal symbols and decides on their signs. transmit,
for the Monte Carlo harness, is demodulate(modulate(bits) + noise)
computed without synthesis.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Lower layers are called through their modules (codec.place_method1, ...):
# the benchmark's tracer wraps functions by replacing module attributes,
# and only in modules it lists, which do not include this one.
from wavemod import codec, detector, filterbank, filters
from wavemod.codec import METHOD1, METHOD2
from wavemod.errors import ConfigurationError, ShapeError

PAM = "pam"

METHODS = (METHOD1, METHOD2, PAM)

# Largest frame a modem accepts: 128 MiB per float64 array.
MAX_FRAME_SAMPLES = 2**24

# A filter-bank frame at depth M has at least 2**M samples, so deeper
# frames are over the cap whatever the message length.
_MAX_SCALES = MAX_FRAME_SAMPLES.bit_length() - 1


@dataclass(frozen=True)
class Modem:
    """One modulate/demodulate chain: method, scale count, message length,
    filter taps and per-copy symbol energy E0. PAM ignores scales and taps.

    A modem owns the pyramid work areas, which every block reuses. Each is
    built on first use, so one Modem is not for concurrent use. Pickling
    keeps only the constructor fields: the copy builds its own.
    """

    method: str
    num_scales: int
    message_len: int
    taps: int = 4
    symbol_energy: float = 1.0
    filter_pair: filters.FilterPair = field(init=False, repr=False, compare=False)
    num_samples: int = field(init=False, repr=False, compare=False)  # per frame

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; supported methods: {METHODS}"
            )
        if self.num_scales < 1:
            raise ConfigurationError("num_scales must be >= 1")
        if self.message_len < 1:
            raise ConfigurationError("message_len must be >= 1")
        if not (math.isfinite(self.symbol_energy) and self.symbol_energy > 0):
            raise ConfigurationError(
                f"symbol energy must be finite and > 0, got {self.symbol_energy}"
            )
        fp = None
        if self.method == PAM:
            num_samples = self.message_len
        elif self.num_scales > _MAX_SCALES:
            num_samples = math.inf  # skips building 2**num_scales
        else:
            n0 = codec.base_length(self.method, self.num_scales, self.message_len)
            num_samples = n0 << self.num_scales
            fp = filters.make_daubechies(self.taps)
        if num_samples > MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"{self.method} with {self.num_scales} scales and {self.message_len} bits "
                f"needs frames over the cap of {MAX_FRAME_SAMPLES} samples"
            )
        object.__setattr__(self, "filter_pair", fp)
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
        message_len = num_samples
        # A PAM frame is the message; a depth out of range is left for the
        # constructor to reject.
        if method in (METHOD1, METHOD2) and 1 <= num_scales <= _MAX_SCALES:
            if num_samples % 2**num_scales != 0:
                raise ConfigurationError(
                    f"sample count {num_samples} not divisible by 2^{num_scales}"
                )
            # n0 = N / 2**M coarse samples; Method 1 carries 2**(M-1) symbols per n0.
            message_len = num_samples >> num_scales
            if method == METHOD1:
                message_len <<= num_scales - 1
        return cls(method, num_scales, message_len, taps)

    def modulate(self, bits) -> np.ndarray:
        """message_len bits (0 or 1) -> one frame of samples, a new array."""
        symbols = self._symbols(bits)
        if self.method == PAM:
            return symbols
        return filterbank.synthesize_pyramid(
            self._place(symbols), self.num_scales, self.filter_pair, self._synthesis_work
        )

    def demodulate(self, samples) -> np.ndarray:
        """One frame of samples -> message_len detected bits (int64)."""
        if len(samples) != self.num_samples:
            raise ShapeError(f"frame has {len(samples)} samples, expected {self.num_samples}")
        if self.method == PAM:
            return (np.asarray(samples) > 0).astype(np.int64)
        frame = filterbank.analyze_pyramid(
            samples, self.num_scales, self.filter_pair, self._analysis_work
        )
        return detector.detect_block(frame, self.method, self.num_scales, self.message_len)

    def transmit(self, bits, noise: np.ndarray) -> np.ndarray:
        """demodulate(modulate(bits) + noise) without synthesis; noise, a
        float64 array of num_samples samples, is overwritten.

        The pyramid is orthonormal and linear, so the analyzed block is
        the placed frame plus the analyzed noise: noise is analyzed in
        place and the message's copies are added onto it, with no frame
        of their own. PAM adds the symbols to the noise, the full chain's
        bits exactly. For the wavelet methods the sums round differently,
        so a decision can differ from the full chain's only where a copy
        sum is within rounding of zero.
        """
        if len(noise) != self.num_samples:
            raise ShapeError(f"noise has {len(noise)} samples, expected {self.num_samples}")
        symbols = self._symbols(bits)
        if self.method == PAM:
            noise += symbols
            return (noise > 0).astype(np.int64)
        frame = filterbank.analyze_pyramid(
            noise, self.num_scales, self.filter_pair, self._analysis_work, out=noise
        )
        self._place(symbols, out=frame)
        return detector.detect_block(frame, self.method, self.num_scales, self.message_len)

    def _symbols(self, bits) -> np.ndarray:
        if len(bits) != self.message_len:
            raise ShapeError(f"message has {len(bits)} bits, expected {self.message_len}")
        return codec.symbols(bits, self.symbol_energy)

    def _place(self, symbols, out=None) -> np.ndarray:
        if self.method == METHOD1:
            return codec.place_method1(symbols, self.num_scales, out)
        return codec.place_method2(symbols, self.num_scales, out)

    @cached_property
    def _synthesis_work(self) -> np.ndarray:
        return filterbank.synthesis_work(self.num_samples, self.filter_pair)

    @cached_property
    def _analysis_work(self) -> np.ndarray:
        return filterbank.analysis_work(self.num_samples, self.filter_pair)
