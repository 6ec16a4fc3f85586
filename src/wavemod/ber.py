"""Closed-form BER curves and the Monte Carlo harness that verifies the
full modulate/channel/demodulate/detect chain against them.

SNR throughout is per-copy: E0 / sigma^2, in dB as 10*log10(E0/sigma^2).
"""

import atexit
import os
import pickle
import signal
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from math import ceil, exp, isfinite, isnan, log10, sqrt
from numbers import Integral

import numpy as np

from wavemod.channel import NoiseSpec, add_awgn
from wavemod.codec import METHOD1, METHOD2
from wavemod.errors import ConfigurationError
from wavemod.modem import PAM, Modem


# Cephes erf/erfc (Moshier, "Methods and Programs for Mathematical
# Functions", 1989), ported scalar by scalar. It gives the bits of
# scipy.special.erfc, with which the stored sweep outputs were computed;
# math.erfc differs from that in the last bit on 43% of uniform draws
# from [-30, 30], which would change sweep CSVs.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# ln(DBL_MAX): once a*a exceeds it, erfc(a) is taken as its limit, 0 or 2.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef) -> float:
    """_polevl with an implied leading coefficient of 1."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    if isnan(a):
        return a
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    # math.exp, as Cephes calls libm; np.exp differs from it in the last
    # bit on about 5% of inputs.
    z = exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0 else 0.0
    return y


def q_function(x):
    """Standard normal tail probability Q(x) = P(N(0,1) > x).

    Elementwise over arrays; a scalar or 0-d input gives a float64 scalar.
    """
    z = np.asarray(np.asarray(x, dtype=np.float64) / sqrt(2.0))
    erfc = np.fromiter(map(_erfc, z.ravel().tolist()), np.float64, z.size)
    return 0.5 * erfc.reshape(z.shape)


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
        for name in ("seed", "min_errors", "max_trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
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

    The points are spread over the CPUs this process may run on (its
    affinity mask): this process runs one share and forked helper
    processes, kept for later calls, run the others. Every result is the
    same for any CPU count. With one CPU, or with another thread alive
    (forking a threaded process can deadlock the child), nothing is forked.
    """
    workers = min(len(cfg.snr_grid_db), _usable_cpus())
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _run_shared(cfg, _shares(cfg, workers))
    return [_run_point(cfg, pt) for pt in range(len(cfg.snr_grid_db))]


def _run_point(cfg: ExperimentConfig, pt: int) -> BerPoint:
    """One grid point of run_monte_carlo: blocks until its stop rule."""
    modem = cfg.modem
    snr_db = cfg.snr_grid_db[pt]
    snr = 10.0 ** (snr_db / 10.0)
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
    return BerPoint(
        snr_db=snr_db,
        ber_theory=theory,
        ber_sim=errors / trials,
        trials=trials,
        errors=errors,
        ber_theory_ideal=ideal,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return 1


def _predicted_blocks(cfg: ExperimentConfig, pt: int) -> int:
    """Blocks the stop rule is expected to send at a point: enough for
    min_errors errors at the theory BER, at most max_trials. It only
    steers the schedule."""
    snr = 10.0 ** (cfg.snr_grid_db[pt] / 10.0)
    errors_per_block = float(ber_theory(cfg.method, cfg.num_scales, snr)) * cfg.message_len
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


def _run_shared(cfg: ExperimentConfig, shares: list[list[int]]) -> list[BerPoint]:
    """Run shares[0] here and each other share on a helper.

    A helper's exception is raised here. A helper that has died, or that
    could not be forked, has its share run here instead. Any exception
    here stops every helper, so no later call can read a stale reply.
    """
    helpers = _ready_helpers(len(shares) - 1)
    points = {}
    try:
        sent, local = [], list(shares[0])
        for k, share in enumerate(shares[1:]):
            if k < len(helpers) and helpers[k].send((cfg, share)):
                sent.append((helpers[k], share))
            else:
                local += share
        for pt in local:
            points[pt] = _run_point(cfg, pt)
        for helper, share in sent:
            reply = helper.receive()
            if reply is None:
                reply = [(pt, _run_point(cfg, pt)) for pt in share]
            elif isinstance(reply, BaseException):
                raise reply
            points.update(reply)
    except BaseException:
        _stop_helpers()
        raise
    return [points[pt] for pt in range(len(cfg.snr_grid_db))]


class _Helper:
    """A forked process that runs shares of SNR points for the process
    that forked it, over one pipe each way, until its request pipe closes.
    It ignores SIGINT: an interrupt reaches the owner, which kills it.
    A helper found dead is dropped from _helpers and reaped."""

    def __init__(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(request_w)
                os.close(reply_r)
                _serve(os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self.requests = os.fdopen(request_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def send(self, request) -> bool:
        """False if the helper has died."""
        try:
            self.requests.write(pickle.dumps(request))
            self.requests.flush()
        except BrokenPipeError:
            self._drop()
            return False
        return True

    def receive(self):
        """The reply to the last request: [(point index, BerPoint)] or the
        exception it raised; None if the helper died first."""
        try:
            return pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            self._drop()
            return None

    def close_pipes(self):
        for pipe in (self.requests, self.replies):
            with suppress(OSError):
                pipe.close()

    def close(self):
        """Kill the process, close the pipes and reap it."""
        with suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        self.close_pipes()
        with suppress(ChildProcessError):  # reaped already (SIGCHLD ignored)
            os.waitpid(self.pid, 0)

    def _drop(self):
        _helpers.remove(self)
        self.close()


def _serve(requests, replies):
    """A helper's loop. A reply that cannot be pickled ends the helper, and
    the owner then runs that share itself."""
    while True:
        try:
            cfg, share = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = [(pt, _run_point(cfg, pt)) for pt in share]
        except Exception as exc:
            reply = exc
        replies.write(pickle.dumps(reply))
        replies.flush()
        del cfg, reply  # an idle helper keeps no modem work areas alive


# The helpers of this process, forked on its first parallel call and kept
# for later ones; stopped at exit. A forked child forgets its parent's
# helpers, closing its copies of their pipes so that they still see the
# end of input when the parent exits, and forks its own.
_helpers: list[_Helper] = []


def _ready_helpers(count: int) -> list[_Helper]:
    """Up to count helpers, forking the missing ones; fewer if a fork fails."""
    try:
        while len(_helpers) < count:
            _helpers.append(_Helper())
    except OSError:
        pass
    return _helpers[:count]


def _stop_helpers():
    while _helpers:
        _helpers.pop().close()


def _forget_helpers():
    while _helpers:
        _helpers.pop().close_pipes()


atexit.register(_stop_helpers)
if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


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
