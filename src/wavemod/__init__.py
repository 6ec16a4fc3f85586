"""Wavelet (fractal) modulation modem simulator.

Modulates binary messages into multiple dyadic frequency scales through an
inverse Mallat filter bank, detects them after an AWGN channel with
maximum-likelihood diversity combining, and verifies measured bit-error
rates against closed-form predictions.
"""

from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filters import make_daubechies, validate_filter_pair
from wavemod.filterbank import (
    BACKEND,
    analysis_step,
    analyze_pyramid,
    level_slice,
    synthesis_step,
    synthesize_pyramid,
)
from wavemod.codec import (
    METHOD1,
    METHOD2,
    place_method1,
    place_method2,
)
from wavemod.channel import add_awgn
from wavemod.detector import detect_block
from wavemod.modem import Modem
from wavemod.ber import BerPoint, ExperimentConfig, run_monte_carlo
from wavemod.theory import (
    ber_equal_gain,
    ber_method1_ideal,
    copy_census,
    q_function,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BerPoint",
    "ConfigurationError",
    "ExperimentConfig",
    "METHOD1",
    "METHOD2",
    "Modem",
    "ShapeError",
    "add_awgn",
    "analysis_step",
    "analyze_pyramid",
    "ber_equal_gain",
    "ber_method1_ideal",
    "copy_census",
    "detect_block",
    "level_slice",
    "make_daubechies",
    "place_method1",
    "place_method2",
    "q_function",
    "run_monte_carlo",
    "synthesis_step",
    "synthesize_pyramid",
    "validate_filter_pair",
]
