"""The Monte Carlo harness that verifies the modem's bit error rate over
AWGN against the closed-form BER of wavemod.theory. Blocks go through
Modem.transmit, which analyzes only the noise and adds the placed frame.

SNR throughout is per-copy: E0 / sigma^2, in dB as 10*log10(E0/sigma^2).
"""

from dataclasses import dataclass
from math import ceil, isfinite, log10, sqrt

import numpy as np

from wavemod import _helpers
from wavemod.channel import add_awgn
from wavemod.codec import METHOD1
from wavemod.errors import ConfigurationError
from wavemod.modem import Modem, require_integer, require_real
from wavemod.theory import ber_method1_ideal, ber_theory


@dataclass(frozen=True)
class BerPoint:
    """One SNR grid point: matched theory and measured error rate."""

    snr_db: float
    ber_theory: float
    ber_sim: float
    trials: int
    errors: int
    ber_theory_ideal: float = None  # Method 1 only


# Most points an SNR grid may have. _run_point keys a block's noise as
# _NOISE_TAG | pt << 40 | block, which stays one key per (point, block) only
# for pt < 2**22: point 2**22 would draw point 0's noise.
MAX_SNR_POINTS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One modem over an SNR grid (dB, per copy), with the stop rule and
    the seed. The modem checks method, scales, length, taps and energy;
    the grid must be a sequence of 1 to MAX_SNR_POINTS finite real numbers."""

    modem: Modem
    snr_grid_db: tuple
    min_errors: int = 200
    max_trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.modem, Modem):
            raise ConfigurationError(f"modem must be a Modem, got {self.modem!r}")
        try:
            size = len(self.snr_grid_db)
        except TypeError:
            raise ConfigurationError(
                f"snr_grid_db must be a sequence of numbers, got {self.snr_grid_db!r}"
            ) from None
        if size == 0:
            raise ConfigurationError("snr_grid_db must be nonempty")
        if size > MAX_SNR_POINTS:
            raise ConfigurationError(f"SNR grid has {size} points, more than {MAX_SNR_POINTS}")
        for snr_db in self.snr_grid_db:
            require_real("SNR grid point", snr_db)
        if not all(map(isfinite, self.snr_grid_db)):
            raise ConfigurationError("SNR grid points must be finite")
        energy = self.modem.symbol_energy
        for snr_db in self.snr_grid_db:
            try:
                ok = all(v > 0 and isfinite(v) for v in _noise_level(energy, snr_db))
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigurationError(
                    f"SNR point {snr_db} dB at symbol energy {energy} "
                    "gives a linear SNR or noise level that is not finite and > 0"
                )
        for name in ("seed", "min_errors", "max_trials"):
            require_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.min_errors < 1:
            raise ConfigurationError("min_errors must be >= 1")
        if self.max_trials < 1:
            raise ConfigurationError("max_trials must be >= 1")


def _noise_level(energy: float, snr_db: float) -> tuple:
    """(linear SNR, noise sigma) of a grid point: snr = E0 / sigma^2."""
    snr = 10.0 ** (snr_db / 10.0)
    return snr, sqrt(energy / snr)


# Stream tags keeping the noise and message substreams disjoint.
_NOISE_TAG = 1 << 62
_MESSAGE_TAG = 2


def _stream(*words: int) -> "np.random.Generator":
    """The generator of the substream that the words name."""
    return np.random.default_rng(np.random.SeedSequence(list(words)))


def run_monte_carlo(cfg: ExperimentConfig) -> list[BerPoint]:
    """Simulate the modem over AWGN on every SNR grid point.

    Per point, message blocks are sent through cfg.modem.transmit with
    fresh noise until min_errors bit errors are seen or max_trials blocks
    have been sent. The noise buffer lives for the whole point and the
    message is placed onto it once analyzed, so a block allocates no
    frame-sized array. Deterministic for a
    fixed seed: every block draws its bits and noise from substreams keyed
    by (seed, point index, block index), so the result is independent of
    execution order.

    The points are spread over the CPUs this process may run on (its
    affinity mask) by wavemod._helpers: this process runs one share and
    forked helper processes, kept for later calls, run the others. Every
    result is the same for any CPU count.
    """
    workers = min(len(cfg.snr_grid_db), _helpers.usable_cpus())
    shares = _shares(cfg, workers)
    done = _helpers.run(_run_point, cfg, shares)
    points = dict(zip((pt for share in shares for pt in share), done))
    return [points[pt] for pt in range(len(cfg.snr_grid_db))]


def _run_point(cfg: ExperimentConfig, pt: int) -> BerPoint:
    """One grid point of run_monte_carlo: blocks until its stop rule."""
    modem = cfg.modem
    snr_db = cfg.snr_grid_db[pt]
    snr, sigma = _noise_level(modem.symbol_energy, snr_db)
    theory = float(ber_theory(modem.method, modem.num_scales, snr))
    # sigma * z + 0.0 is sigma * z, so add_awgn fills the buffer with the
    # noise alone.
    silence = np.broadcast_to(0.0, (modem.num_samples,))
    noise = np.empty(modem.num_samples)
    errors = 0
    blocks = 0
    while errors < cfg.min_errors and blocks < cfg.max_trials:
        bits = _stream(cfg.seed, _MESSAGE_TAG, pt, blocks).integers(0, 2, modem.message_len)
        rng = _stream(cfg.seed, _NOISE_TAG | pt << 40 | blocks)
        detected = modem.transmit(bits, add_awgn(silence, sigma, rng, out=noise))
        errors += int(np.sum(detected != bits))
        blocks += 1

    trials = blocks * modem.message_len
    ideal = float(ber_method1_ideal(modem.num_scales, snr)) if modem.method == METHOD1 else None
    return BerPoint(
        snr_db=snr_db,
        ber_theory=theory,
        ber_sim=errors / trials,
        trials=trials,
        errors=errors,
        ber_theory_ideal=ideal,
    )


def _predicted_blocks(cfg: ExperimentConfig, pt: int) -> int:
    """Blocks the stop rule is expected to send at a point: enough for
    min_errors errors at the theory BER, at most max_trials. It only
    steers the schedule."""
    modem = cfg.modem
    snr, _ = _noise_level(modem.symbol_energy, cfg.snr_grid_db[pt])
    errors_per_block = float(ber_theory(modem.method, modem.num_scales, snr)) * modem.message_len
    if errors_per_block * cfg.max_trials <= cfg.min_errors:
        return cfg.max_trials
    return ceil(cfg.min_errors / errors_per_block)


def _shares(cfg: ExperimentConfig, workers: int) -> list[list[int]]:
    """Split the point indices into `workers` shares of about equal
    predicted blocks: longest point first, each to the lightest share.
    With workers <= points, every share gets at least one point."""
    cost = [_predicted_blocks(cfg, pt) for pt in range(len(cfg.snr_grid_db))]
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for pt in sorted(range(len(cost)), key=lambda pt: -cost[pt]):
        k = loads.index(min(loads))
        shares[k].append(pt)
        loads[k] += cost[pt]
    return shares


def snr_at_ber(snr_db, ber, target: float) -> float:
    """Invert a waterfall curve: SNR (dB) where it crosses the target BER.

    Log-linear interpolation between the adjacent grid points bracketing
    the target; the curve must be monotone decreasing over the bracket.
    """
    snr_db = np.asarray(snr_db, dtype=np.float64)
    ber = np.asarray(ber, dtype=np.float64)
    for i in range(len(ber) - 1):
        hi, lo = ber[i], ber[i + 1]
        if hi >= target >= lo and hi > lo > 0:
            t = (log10(hi) - log10(target)) / (log10(hi) - log10(lo))
            return float(snr_db[i] + t * (snr_db[i + 1] - snr_db[i]))
    raise ConfigurationError(
        f"target BER {target} is not bracketed by the measured curve"
    )
