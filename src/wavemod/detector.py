"""Maximum-likelihood combining detector.

With equal noise variance on every copy, the ML rule for both placement
methods collapses to an equal-gain sum of the received copies followed by
a sign threshold; the sqrt(E0)/sigma^2 scale factor never changes the
decision, so the detector needs neither E0 nor sigma.
"""

import numpy as np

from wavemod.codec import PlacementSpec, _check_frame, coefficient_symbol_map
from wavemod.filterbank import level_slice


def detect_block(frame: np.ndarray, spec: PlacementSpec, owners=None) -> np.ndarray:
    """Per-symbol ML decisions over a demodulated frame.

    owners is coefficient_symbol_map(spec), computed when not given.

    Bit 1 iff the sum of the symbol's copies is > 0 (ties go to bit 0).
    The copy sums take one bincount pass per scale, added in scale order;
    one pass over all scales would round differently. The per-symbol loop
    in tests/naive_detector.py is the reference.
    """
    _check_frame(frame, spec)
    n_symbols = spec.message_length
    sums = np.zeros(n_symbols)
    if owners is None:
        owners = coefficient_symbol_map(spec)
    for m, level_owners in enumerate(owners):
        level = frame[level_slice(spec.base_length, m)]
        sums += np.bincount(level_owners, weights=level, minlength=n_symbols)
    return (sums > 0).astype(np.int64)
