"""Closed-form BER curves and the Monte Carlo harness that verifies the
full modulate/channel/demodulate/detect chain against them.

SNR throughout is per-copy: E0 / sigma^2, in dB as 10*log10(E0/sigma^2).
"""

from dataclasses import dataclass, field
from math import isfinite, log10, sqrt

import numpy as np

from wavemod.channel import NoiseSpec, add_awgn
from wavemod.codec import METHOD1, METHOD2
from wavemod.errors import ConfigurationError
from wavemod.modem import PAM, Modem


def q_function(x):
    """Standard normal tail probability Q(x) = P(N(0,1) > x)."""
    # Imported here, so the file modem (which never calls this) does not
    # pay for importing scipy. math.erfc is no substitute: it differs from
    # scipy's in the last bit for many inputs, which would change sweep CSVs.
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / sqrt(2.0))


def ber_pam(snr):
    """Binary antipodal baseline: Q(sqrt(snr))."""
    return q_function(np.sqrt(snr))


def ber_method1_ideal(num_scales: int, snr):
    """All-scales idealization of Method 1: Q(sqrt(M*snr)).

    An optimistic lower bound for the realizable chain, where copy counts
    vary by symbol index; see ber_method1_exact.
    """
    return q_function(np.sqrt(num_scales * np.asarray(snr, dtype=np.float64)))


def ber_method1_exact(num_scales: int, snr):
    """Exact Method 1 BER: mixture over the copy-count census.

    Half the symbol indices get 1 copy, a quarter get 2, ..., and the
    residue class with 2-adic valuation >= M-1 gets all M copies:
    sum_{c=1}^{M-1} 2^-c Q(sqrt(c*snr)) + 2^-(M-1) Q(sqrt(M*snr)).
    """
    snr = np.asarray(snr, dtype=np.float64)
    total = np.zeros_like(snr)
    for c in range(1, num_scales):
        total = total + 2.0**-c * q_function(np.sqrt(c * snr))
    total = total + 2.0 ** -(num_scales - 1) * q_function(np.sqrt(num_scales * snr))
    return total


def ber_method2(num_scales: int, snr):
    """Method 2 BER: Q(sqrt(K*snr)) with K = 2**M - 1 copies per symbol."""
    k = 2**num_scales - 1
    return q_function(np.sqrt(k * np.asarray(snr, dtype=np.float64)))


def ber_theory(method: str, num_scales: int, snr):
    """The theory value the Monte Carlo chain is matched against."""
    if method == METHOD1:
        return ber_method1_exact(num_scales, snr)
    if method == METHOD2:
        return ber_method2(num_scales, snr)
    if method == PAM:
        return ber_pam(snr)
    raise ConfigurationError(f"unknown method {method!r}")


def energy_per_symbol_factor(method: str, num_scales: int) -> float:
    """Average transmitted copies per message symbol (energy accounting).

    Converts per-copy SNR to per-message-energy SNR: Method 2 charges all
    K = 2**M - 1 repetitions to each symbol, Method 1 the census average
    2 - 2**(1-M), PAM exactly 1.
    """
    if method == METHOD1:
        return 2.0 - 2.0 ** (1 - num_scales)
    if method == METHOD2:
        return float(2**num_scales - 1)
    return 1.0


@dataclass(frozen=True)
class BerPoint:
    """One SNR grid point: matched theory and measured error rate."""

    snr_db: float
    ber_theory: float
    ber_sim: float
    trials: int
    errors: int
    ber_theory_ideal: float = None  # Method 1 only


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    num_scales: int
    message_len: int
    symbol_energy: float
    snr_grid_db: tuple
    min_errors: int = 200
    max_trials: int = 100_000
    seed: int = 0
    wavelet_taps: int = 4
    modem: Modem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The modem checks method, scales, message length, taps and energy.
        modem = Modem(
            self.method, self.num_scales, self.message_len, self.wavelet_taps, self.symbol_energy
        )
        object.__setattr__(self, "modem", modem)
        if len(self.snr_grid_db) == 0:
            raise ConfigurationError("snr_grid_db must be nonempty")
        if not all(map(isfinite, self.snr_grid_db)):
            raise ConfigurationError("SNR grid points must be finite")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.min_errors < 1:
            raise ConfigurationError("min_errors must be >= 1")
        if self.max_trials < 1:
            raise ConfigurationError("max_trials must be >= 1")


# Stream-id tags keeping the noise and message substreams disjoint.
_NOISE_TAG = 1 << 62
_MESSAGE_TAG = 2


def _stream_id(point_index: int, block_index: int) -> int:
    return _NOISE_TAG | (point_index << 40) | block_index


def run_monte_carlo(cfg: ExperimentConfig) -> list[BerPoint]:
    """Simulate the full chain on every SNR grid point.

    Per point, message blocks are pushed through cfg.modem (modulate ->
    AWGN -> demodulate) until min_errors bit errors are seen or max_trials
    blocks have been sent. Deterministic for a fixed seed: every block
    draws its bits and noise from substreams keyed by (seed, point index,
    block index), so the result is independent of execution order.
    """
    modem = cfg.modem
    points = []
    for pt, snr_db in enumerate(cfg.snr_grid_db):
        snr = 10.0 ** (snr_db / 10.0)
        # Theory before the blocks, because its first call imports scipy.
        # Importing scipy after wm2 blocks have run left every later block
        # page-faulting its large arrays afresh (glibc malloc; measured
        # ~240 minor faults per block, and wm2 sweeps ~25% slower).
        theory = float(ber_theory(cfg.method, cfg.num_scales, snr))
        sigma = sqrt(cfg.symbol_energy / snr)
        errors = 0
        blocks = 0
        while errors < cfg.min_errors and blocks < cfg.max_trials:
            bit_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, _MESSAGE_TAG, pt, blocks])
            )
            bits = bit_rng.integers(0, 2, cfg.message_len)
            nspec = NoiseSpec(sigma=sigma, seed=cfg.seed, stream_id=_stream_id(pt, blocks))
            detected = modem.demodulate(add_awgn(modem.modulate(bits), nspec))
            errors += int(np.sum(detected != bits))
            blocks += 1

        trials = blocks * cfg.message_len
        ideal = (
            float(ber_method1_ideal(cfg.num_scales, snr))
            if cfg.method == METHOD1
            else None
        )
        points.append(
            BerPoint(
                snr_db=snr_db,
                ber_theory=theory,
                ber_sim=errors / trials,
                trials=trials,
                errors=errors,
                ber_theory_ideal=ideal,
            )
        )
    return points


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
