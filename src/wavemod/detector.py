"""Maximum-likelihood combining detector.

With equal noise variance on every copy, the ML rule for both placement
methods collapses to an equal-gain sum of the received copies followed by
a sign threshold; the sqrt(E0)/sigma^2 scale factor never changes the
decision, so the detector needs neither E0 nor sigma.
"""

import numpy as np

from wavemod.codec import PlacementSpec, _check_frame, coefficient_symbol_map
from wavemod.filterbank import SubbandFrame


def detect_block(frame: SubbandFrame, spec: PlacementSpec) -> np.ndarray:
    """Per-symbol ML decisions over a demodulated frame.

    Bit 1 iff the sum of the symbol's copies is > 0 (ties go to bit 0).
    The copy sums are accumulated with one bincount pass per scale; the
    per-symbol loop in tests/naive_detector.py is the reference.
    """
    _check_frame(frame, spec)
    n_symbols = spec.message_length
    sums = np.zeros(n_symbols)
    for m, owners in enumerate(coefficient_symbol_map(spec)):
        sums += np.bincount(owners, weights=frame.details[m], minlength=n_symbols)
    return (sums > 0).astype(np.int64)
