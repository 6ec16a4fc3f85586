"""Maximum-likelihood combining detector.

With equal noise variance on every copy, the ML rule for both placement
methods collapses to an equal-gain sum of the received copies followed by
a sign threshold; the sqrt(E0)/sigma^2 scale factor never changes the
decision, so the detector needs neither E0 nor sigma. At depth 0, the
PAM baseline's chain, each symbol has one copy and the rule is its sign.
"""

import numpy as np

from wavemod import codec


def detect_block(frame: np.ndarray, method: str, num_scales: int) -> np.ndarray:
    """Per-symbol ML decisions over a demodulated frame: the placement
    (codec.copies) run backwards.

    The message length follows from the frame's (codec.copies raises
    ShapeError for a length that is not a multiple of 2**M); a Modem
    checks the contract once, when built. Bit 1 iff the sum of the
    symbol's copies is > 0 (ties go to bit 0). Each level's rows are summed
    from zero by one numpy reduction, and the level sums are added in
    scale order. numpy adds multi-sample rows one row after another, but
    sums a column of one-sample rows pairwise, so a sum may round
    differently from the per-symbol loop in tests/naive_detector.py. The
    decisions are checked against that loop.
    """
    n0 = len(frame) >> num_scales
    sums = np.zeros(n0 * codec.symbols_per_coarse_sample(method, num_scales))
    for rows, sel in codec.copies(frame, method, num_scales):
        sums[sel] += np.add.reduce(rows, axis=0, initial=0.0)
    return (sums > 0).astype(np.int64)
