import errno
import math
import os
import pickle
import signal
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import fresh_process
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import wavemod.ber as ber

from wavemod import _helpers, codec, filterbank
from wavemod.ber import ExperimentConfig, run_monte_carlo, snr_at_ber
from wavemod.modem import Modem
from wavemod.theory import (
    ber_method1_ideal,
    ber_theory,
    copy_census,
    energy_per_symbol_factor,
    q_function,
)
from wavemod.errors import ConfigurationError


def q_oracle(x):
    val, _ = quad(
        lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
        x,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def test_q_of_a_large_negative_argument_is_one():
    """Below about -8.3, erfc(x / sqrt(2)) is within half an ulp of 2, so Q
    rounds to exactly 1, down to -inf."""
    for x in (-8.5, -40.0, -1e308, -np.inf):
        assert q_function(x) == 1.0


def q_test_points():
    """Seeded points over [-40, 40]; the float neighbours of 1, 8 and of
    erfc's normal/subnormal edge near 26.55, each both as Q's argument and
    as erfc's (Q's argument is sqrt(2) times erfc's); a fine grid over
    that edge. All finite: the special values have their own test."""
    rng = np.random.default_rng(20261018)
    points = [rng.uniform(-40.0, 40.0, 3000)]
    for edge in (1.0, 8.0, 26.5, 26.55, 26.6, 26.65):
        for centre in (edge, edge * math.sqrt(2.0)):
            for sign in (1.0, -1.0):
                up = down = np.array([sign * centre])
                for _ in range(100):
                    up = np.nextafter(up, np.inf)
                    down = np.nextafter(down, -np.inf)
                    points += [up, down]
    points.append(np.linspace(26.5, 26.7, 2001) * math.sqrt(2.0))
    return np.concatenate(points)


def ulps_from_mpmath(x, q):
    """Per point, |q - 0.5 * erfc(z)| in ulps of the exact value, with erfc
    from mpmath at 113 bits and z the float x / sqrt(2) that q_function
    hands to erfc; -> (errors, whether the exact value is subnormal)."""
    errors, subnormal = [], []
    with mpmath.workprec(113):
        for z, got in zip((x / math.sqrt(2.0)).tolist(), q.tolist()):
            want = mpmath.erfc(mpmath.mpf(z)) / 2
            errors.append(float(abs(mpmath.mpf(got) - want) / math.ulp(float(want))))
            subnormal.append(float(want) < sys.float_info.min)
    return np.array(errors), np.array(subnormal)


def test_q_function_is_within_a_few_ulp_of_mpmath():
    """Against erfc of the rounded argument, not against exact Q(x):
    rounding x / sqrt(2) alone moves Q by hundreds of ulp at large x. The
    bounds are the worst errors measured over 100,000 uniform points: 2.9
    ulp for normal results, 1.4 for subnormal ones, where halving erfc
    rounds."""
    x = q_test_points()
    assert len(x) > 9000
    q = q_function(x)
    errors, subnormal = ulps_from_mpmath(x, q)
    assert subnormal.sum() > 2000
    worst = np.argmax(np.where(subnormal, 0.0, errors))
    assert errors[worst] <= 3.0, f"Q({x[worst]!r}) is {errors[worst]:.2f} ulp off"
    worst = np.argmax(np.where(subnormal, errors, 0.0))
    assert errors[worst] <= 1.5, f"Q({x[worst]!r}) is {errors[worst]:.2f} ulp off"
    assert not np.signbit(q).any()


def test_q_function_special_values():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])
    want = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 1.0, 0.0, 1.0, np.nan])
    got = q_function(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.signbit(got).any()


@pytest.mark.parametrize(
    "x", [0.3, -2.0, 40.0, math.nan, 3, np.float64(1.5), np.array(0.7)],
    ids=["float", "negative", "tail", "nan", "int", "float64", "0-d"],
)
def test_q_function_of_a_scalar_is_a_float64_scalar(x):
    got = q_function(x)
    assert type(got) is np.float64
    assert np.array_equal(got, q_function(np.array([x], dtype=float))[0], equal_nan=True)


@pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 0)], ids=["1-d", "2-d", "empty"])
def test_q_function_keeps_an_array_shape(shape):
    x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
    got = q_function(x)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got.ravel(), q_function(x.ravel()))


def test_method1_ideal_reduces_to_pam():
    for snr in (0.5, 1.0, 4.0):
        assert float(ber_method1_ideal(1, snr)) == float(ber_theory("pam", 1, snr))


def test_method1_ideal_m6():
    assert abs(float(ber_method1_ideal(6, 1.0)) - q_oracle(math.sqrt(6.0))) < 1e-13


def test_method1_exact_m1_and_m2():
    snr = 1.3
    assert float(ber_theory("wm1", 1, snr)) == pytest.approx(float(q_function(math.sqrt(snr))))
    expected = 0.5 * q_function(math.sqrt(snr)) + 0.5 * q_function(math.sqrt(2 * snr))
    assert float(ber_theory("wm1", 2, snr)) == pytest.approx(float(expected), abs=1e-15)


def test_method1_exact_dominates_ideal():
    snrs = np.logspace(-2, 1.2, 30)
    for m in (2, 3, 6):
        assert np.all(ber_theory("wm1", m, snrs) >= ber_method1_ideal(m, snrs))


def test_method2_uses_k():
    snr = 0.05
    expected = float(q_function(math.sqrt(63 * snr)))
    assert float(ber_theory("wm2", 6, snr)) == pytest.approx(expected)
    assert float(ber_theory("wm2", 1, snr)) == pytest.approx(float(q_function(math.sqrt(snr))))


def test_method2_beats_ideal_method1():
    snrs = np.logspace(-2, 1, 20)
    for m in (2, 4, 6):
        assert np.all(ber_theory("wm2", m, snrs) <= ber_method1_ideal(m, snrs))


def test_pam_limits():
    assert float(ber_theory("pam", 1, 1e6)) < 1e-12
    assert float(ber_theory("pam", 1, 1e-9)) == pytest.approx(0.5, abs=1e-4)
    # copies * snr overflows to inf here, which used to warn; Q(inf) = 0.
    assert ber_theory("wm2", 6, 1e308) == 0.0
    assert ber_theory("wm1", 6, 1e308) == 0.0
    assert ber_method1_ideal(6, 1e308) == 0.0


def test_theory_range_and_monotonicity():
    snrs = np.logspace(-2, 1.2, 40)
    for method, m in (("wm1", 4), ("wm2", 4), ("pam", 1)):
        vals = np.asarray(ber_theory(method, m, snrs), dtype=float)
        assert np.all(vals > 0) and np.all(vals <= 0.5)
        assert np.all(np.diff(vals) < 0)


def test_theory_rejects_unknown_method():
    with pytest.raises(ConfigurationError, match="unknown method 'qam'"):
        ber_theory("qam", 6, 1.0)


def test_energy_factors():
    assert energy_per_symbol_factor("pam", 6) == 1.0
    assert energy_per_symbol_factor("wm2", 6) == 63.0
    assert energy_per_symbol_factor("wm1", 6) == 2 - 2**-5


@pytest.mark.parametrize("num_scales", range(1, 9))
@pytest.mark.parametrize("method", ["wm1", "wm2", "pam"])
def test_copy_census_is_the_placement(method, num_scales):
    """The census theory sums over is what codec.copies places: each
    symbol's index is written to its copies in a zero frame, and the copies
    of each index are counted. PAM's chain runs at depth 0, where the
    frame is the message: each symbol is placed once."""
    message_len = 4 * 2 ** (num_scales - 1)
    modem = Modem(method, num_scales, message_len)
    frame = np.zeros(modem.num_samples)
    index = np.arange(1, message_len + 1)
    for rows, sel in codec.copies(frame, method, modem.depth):
        rows[:] = index[sel]
    # Every detail coefficient carries a copy; at depth 0, every sample.
    carriers = frame[len(frame) >> modem.depth :] if modem.depth else frame
    counts = np.bincount(carriers.astype(int), minlength=message_len + 1)
    assert counts[0] == 0
    placed = {int(c): Fraction(n, message_len) for c, n in Counter(counts[1:]).items()}
    census = copy_census(method, num_scales)
    assert placed == {c: Fraction(share) for c, share in census.items()}
    mean = Fraction(int(counts.sum()), message_len)
    assert Fraction(energy_per_symbol_factor(method, num_scales)) == mean


def test_high_snr_run_has_no_errors():
    cfg = ExperimentConfig(
        Modem("wm2", num_scales=3, message_len=100, symbol_energy=1.0),
        snr_grid_db=(40.0,), min_errors=1, max_trials=100, seed=1,
    )
    [point] = run_monte_carlo(cfg)
    assert point.errors == 0
    assert point.trials == 100 * 100


def test_method2_matches_theory():
    # K*snr = 4 -> theory Q(2)
    snr_db = 10 * math.log10(4.0 / 3.0)
    cfg = ExperimentConfig(
        Modem("wm2", num_scales=2, message_len=50, symbol_energy=1.0),
        snr_grid_db=(snr_db,), min_errors=200, max_trials=2000, seed=3,
    )
    [point] = run_monte_carlo(cfg)
    p = point.ber_theory
    se = math.sqrt(p * (1 - p) / point.trials)
    assert abs(point.ber_sim - p) < 3 * se


def test_method1_matches_exact_mixture():
    cfg = ExperimentConfig(
        Modem("wm1", num_scales=2, message_len=64, symbol_energy=1.0),
        snr_grid_db=(0.0,), min_errors=200, max_trials=2000, seed=4,
    )
    [point] = run_monte_carlo(cfg)
    p = float(ber_theory("wm1", 2, 1.0))
    assert point.ber_theory == pytest.approx(p)
    se = math.sqrt(p * (1 - p) / point.trials)
    assert abs(point.ber_sim - p) < 3 * se


def test_seed_reproducibility():
    cfg = ExperimentConfig(
        Modem("wm1", num_scales=3, message_len=32, symbol_energy=2.0),
        snr_grid_db=(0.0, 3.0), min_errors=50, max_trials=100, seed=12,
    )
    assert run_monte_carlo(cfg) == run_monte_carlo(cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError, match="divisible"):
        ExperimentConfig(Modem("wm1", 4, 100), (0.0,))
    with pytest.raises(ConfigurationError, match="method"):
        ExperimentConfig(Modem("qam", 4, 64), (0.0,))
    with pytest.raises(ConfigurationError, match="nonempty"):
        ExperimentConfig(Modem("pam", 1, 64), ())


def test_config_caps_the_grid_below_the_noise_key_limit():
    """A grid of either form holds at most MAX_SNR_POINTS points, so every
    point's noise key is its own: point 2**22 would draw point 0's noise."""
    grid = tuple(float(i % 20) for i in range(ber.MAX_SNR_POINTS))
    assert len(ExperimentConfig(Modem("pam", 1, 8), grid).snr_grid_db) == ber.MAX_SNR_POINTS
    with pytest.raises(ConfigurationError, match="more than 10000"):
        ExperimentConfig(Modem("pam", 1, 8), grid + (0.0,))
    # The last point's index stays below the tag bit it is OR-ed under.
    assert (ber.MAX_SNR_POINTS - 1) << 40 < ber._NOISE_TAG


@pytest.mark.parametrize(
    "grid, seed, message",
    [
        ((0.0, math.nan), 0, "finite"),
        ((-math.inf, 0.0), 0, "finite"),
        ((math.inf,), 0, "finite"),
        ((0.0,), -1, "seed"),
        ((0.0, 4000.0), 0, "SNR point 4000.0 dB"),
        ((0.0, -4000.0), 0, "SNR point -4000.0 dB"),
        ((-3100.0,), 0, "SNR point -3100.0 dB"),
    ],
)
def test_config_rejects_bad_grid_and_seed(grid, seed, message):
    # A negative seed used to fail in numpy's SeedSequence; a nan point gave
    # nan theory and -inf a ZeroDivisionError. A finite point whose linear
    # SNR overflowed (4000 dB) or underflowed to 0 (-4000 dB) raised
    # OverflowError or ZeroDivisionError, and one whose noise level was
    # infinite (-3100 dB) failed only inside the sweep.
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(Modem("wm2", 2, 8), grid, seed=seed)


@pytest.mark.parametrize("snr_db, energy", [(-300.0, 1e300), (3000.0, 1e-300)])
def test_config_rejects_noise_level_out_of_range(snr_db, energy):
    # sigma = sqrt(E0 / snr) was infinite or 0 here: the first failed only
    # inside the sweep, the second ran noiseless.
    with pytest.raises(ConfigurationError, match=f"SNR point {snr_db} dB"):
        ExperimentConfig(Modem("wm2", 2, 8, symbol_energy=energy), (0.0, snr_db))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("min_errors", 1.5),
        ("min_errors", True),
        ("max_trials", 2.5),
        ("max_trials", np.float64(3.0)),
    ],
)
def test_config_rejects_non_integer_counts(field, value):
    # seed=1.5 used to fail inside numpy's SeedSequence, and min_errors=1.5
    # with max_trials=2.5 ran 3 blocks.
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        ExperimentConfig(Modem("wm2", 2, 8), (0.0,), **{field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = ExperimentConfig(
        Modem("wm2", 2, 8), (0.0,), min_errors=np.int64(1), max_trials=np.int32(2),
        seed=np.uint8(3),
    )
    assert len(run_monte_carlo(cfg)) == 1


def test_block_chain_does_not_fault_after_heap_history():
    """A wm2 block takes no fresh pages after a file-modem session.

    The process first runs file-modem round trips, as a CLI session
    would, then a warm-up sweep; a second sweep must not page-fault its
    working arrays afresh on every block. Without scipy imported (the
    theory needs none), fresh per-level kernel arrays used to cost over
    400 minor faults per block here.
    """
    code = """
import resource, sys
import numpy as np
from wavemod.ber import ExperimentConfig, run_monte_carlo
from wavemod.modem import Modem
rng = np.random.default_rng(0)
for _ in range(20):
    bits = rng.integers(0, 2, 512)
    samples = Modem("wm2", 6, 512, 4, 2.5).modulate(bits)
    assert (Modem.for_samples("wm2", 6, len(samples), 4).demodulate(samples) == bits).all()
cfg = ExperimentConfig(Modem("wm2", 6, 512), (-12.0, -9.0), min_errors=100, max_trials=10)
run_monte_carlo(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
blocks = sum(p.trials for p in run_monte_carlo(cfg)) // 512
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print("scipy" in sys.modules, blocks, faults / blocks)
"""
    done = fresh_process.run(code)
    assert done.returncode == 0, done.stderr
    scipy_loaded, blocks, faults_per_block = done.stdout.split()
    assert int(blocks) >= 10
    assert float(faults_per_block) <= 5.0
    assert scipy_loaded == "False"


def test_block_chain_does_not_fault_after_kept_frames():
    """A wm2 block takes no fresh pages after frames were kept alive.

    A warm sweep runs, then one modulate and one add_awgn result stay
    alive, which used to leave glibc trimming and regrowing the heap top
    on every later block: about 96 minor faults per block when each block
    allocated its own frames. The sweeps run in this one process, so the
    faults counted are those of every block.
    """
    code = """
import resource
import numpy as np
from wavemod import _helpers
from wavemod.ber import ExperimentConfig, run_monte_carlo
from wavemod.channel import add_awgn
from wavemod.modem import Modem
_helpers.usable_cpus = lambda: 1
cfg = ExperimentConfig(Modem("wm2", 6, 512), (-12, -11, -10, -9), min_errors=100, max_trials=40)
run_monte_carlo(cfg)
rng = np.random.default_rng(0)
sent = cfg.modem.modulate(rng.integers(0, 2, 512))
received = add_awgn(sent, 0.5, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
blocks = sum(p.trials for _ in range(3) for p in run_monte_carlo(cfg)) // 512
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(blocks, faults / blocks)
"""
    done = fresh_process.run(code)
    assert done.returncode == 0, done.stderr
    blocks, faults_per_block = done.stdout.split()
    assert int(blocks) >= 100
    assert float(faults_per_block) <= 5.0


@pytest.mark.parametrize("method", ["wm1", "wm2"])
def test_sweep_never_synthesizes(monkeypatch, method):
    """The harness analyzes only the noise: no block runs the synthesis
    pyramid, and the modem caches no array but its one work area."""
    def synthesize(*args, **kwargs):
        raise AssertionError("the sweep synthesized a frame")

    monkeypatch.setattr(_helpers, "usable_cpus", lambda: 1)
    monkeypatch.setattr(filterbank, "synthesize_pyramid", synthesize)
    modem = Modem(method, 4, 64)
    cfg = ExperimentConfig(modem, (-6.0, 0.0), min_errors=50, max_trials=5)
    assert sum(p.trials for p in run_monte_carlo(cfg)) > 0
    cached = {k for k, v in vars(modem).items() if isinstance(v, np.ndarray)} - {"filter_pair"}
    assert cached == {"_work"}


def test_snr_at_ber_inversion():
    snr_db = np.arange(0.0, 10.0, 1.0)
    ber = np.asarray(ber_theory("pam", 1, 10 ** (snr_db / 10)), dtype=float)
    est = snr_at_ber(snr_db, ber, 0.05)
    # True crossing: Q(sqrt(snr)) = 0.05 -> snr_db ~ 4.32
    assert abs(est - 4.3237) < 0.1
    with pytest.raises(ConfigurationError, match="bracketed"):
        snr_at_ber(snr_db, ber, 0.4)


def test_pickled_config_carries_no_work_areas():
    cfg = ExperimentConfig(Modem("wm2", 6, 512), (-12.0, -9.0), min_errors=50, max_trials=3)
    points = run_monte_carlo(cfg)
    data = pickle.dumps(cfg)
    assert len(data) < 2048  # about 918 kB while the modem pickled its work areas
    assert run_monte_carlo(pickle.loads(data)) == points


@pytest.fixture
def fresh_helpers():
    """No helper processes before or after the test, so each test sees
    only the helpers it forked."""
    _helpers.stop()
    yield
    _helpers.stop()


def use_workers(monkeypatch, count):
    monkeypatch.setattr(_helpers, "usable_cpus", lambda: count)


# Each grid has points that stop on min_errors and points that stop on
# max_trials (checked in test_points_do_not_depend_on_worker_count).
PARALLEL_CONFIGS = {
    "wm1": ExperimentConfig(Modem("wm1", 3, 16), (-2.0, 1.0, 4.0, 7.0, 10.0),
                            min_errors=20, max_trials=25, seed=5),
    "wm2": ExperimentConfig(Modem("wm2", 2, 16), (-6.0, -3.0, 0.0, 3.0),
                            min_errors=20, max_trials=25, seed=6),
    "pam": ExperimentConfig(Modem("pam", 1, 32), (0.0, 3.0, 6.0, 9.0),
                            min_errors=20, max_trials=25, seed=7),
}


def sequential_points(monkeypatch, cfg):
    use_workers(monkeypatch, 1)
    points = run_monte_carlo(cfg)
    assert _helpers.pool == []
    return points


@pytest.mark.parametrize("method", sorted(PARALLEL_CONFIGS))
def test_points_do_not_depend_on_worker_count(monkeypatch, fresh_helpers, method):
    cfg = PARALLEL_CONFIGS[method]
    want = sequential_points(monkeypatch, cfg)
    assert any(p.errors >= cfg.min_errors for p in want)
    assert any(p.trials == cfg.max_trials * cfg.modem.message_len and p.errors < cfg.min_errors
               for p in want)
    for workers in (2, 3, len(cfg.snr_grid_db) + 2):
        use_workers(monkeypatch, workers)
        assert run_monte_carlo(cfg) == want
        assert len(_helpers.pool) == min(workers, len(cfg.snr_grid_db)) - 1


def test_sweep_wm2_schedule():
    """The benchmark's sweep: predicted blocks 9/16/33/40 (8/16/29/40 are
    sent), longest first to the lighter share."""
    cfg = ExperimentConfig(Modem("wm2", 6, 512), (-12.0, -11.0, -10.0, -9.0),
                           min_errors=100, max_trials=40)
    assert [ber._predicted_blocks(cfg, pt) for pt in range(4)] == [9, 16, 33, 40]
    assert ber._shares(cfg, 2) == [[3, 0], [2, 1]]
    assert ber._shares(cfg, 4) == [[3], [2], [1], [0]]


def test_helper_killed_between_calls_is_replaced(monkeypatch, fresh_helpers):
    cfg = PARALLEL_CONFIGS["wm2"]
    want = sequential_points(monkeypatch, cfg)
    use_workers(monkeypatch, 2)
    assert run_monte_carlo(cfg) == want
    [old] = _helpers.pool
    os.kill(old.pid, signal.SIGKILL)
    os.waitid(os.P_PID, old.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
    assert run_monte_carlo(cfg) == want
    assert old not in _helpers.pool
    assert run_monte_carlo(cfg) == want
    [new] = _helpers.pool
    assert new.pid != old.pid


def test_helper_dying_mid_call_has_its_share_run_here(monkeypatch, fresh_helpers):
    cfg = PARALLEL_CONFIGS["pam"]
    want = sequential_points(monkeypatch, cfg)
    owner, real = os.getpid(), ber._run_point

    def die_in_helper(cfg, pt):
        if os.getpid() != owner:
            os._exit(1)
        return real(cfg, pt)

    monkeypatch.setattr(ber, "_run_point", die_in_helper)
    use_workers(monkeypatch, 3)
    assert run_monte_carlo(cfg) == want
    assert _helpers.pool == []


class PointFailure(Exception):
    pass


def test_helper_exception_reaches_the_owner(monkeypatch, fresh_helpers):
    cfg = PARALLEL_CONFIGS["wm1"]
    owner, real = os.getpid(), ber._run_point

    def fail_in_helper(cfg, pt):
        if os.getpid() != owner:
            raise PointFailure(f"point {pt}")
        return real(cfg, pt)

    monkeypatch.setattr(ber, "_run_point", fail_in_helper)
    use_workers(monkeypatch, 2)
    with pytest.raises(PointFailure, match="point"):
        run_monte_carlo(cfg)
    assert _helpers.pool == []


def test_exception_here_stops_helpers_before_their_replies(monkeypatch, fresh_helpers):
    cfg, other = PARALLEL_CONFIGS["wm2"], PARALLEL_CONFIGS["pam"]
    want = sequential_points(monkeypatch, other)
    use_workers(monkeypatch, 2)
    run_monte_carlo(cfg)  # forks the helper with the real _run_point
    owner, real = os.getpid(), ber._run_point

    def interrupt_here(cfg, pt):
        if os.getpid() == owner:
            raise KeyboardInterrupt
        return real(cfg, pt)

    monkeypatch.setattr(ber, "_run_point", interrupt_here)
    with pytest.raises(KeyboardInterrupt):
        run_monte_carlo(cfg)
    assert _helpers.pool == []
    monkeypatch.setattr(ber, "_run_point", real)
    # Helpers are kept per fn, so this call gets a new one either way;
    # test_exception_here_discards_the_helpers_pending_replies keeps one fn.
    assert run_monte_carlo(other) == want


def test_forked_child_forks_its_own_helpers(monkeypatch, fresh_helpers):
    cfg = PARALLEL_CONFIGS["wm2"]
    want = sequential_points(monkeypatch, cfg)
    use_workers(monkeypatch, 2)
    assert run_monte_carlo(cfg) == want
    [helper] = _helpers.pool
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            signal.alarm(60)  # a hung child dies rather than hang the test
            inherited = list(_helpers.pool)
            ok = inherited == [] and run_monte_carlo(cfg) == want
            ok = ok and [h.pid for h in _helpers.pool] != [helper.pid]
            _helpers.stop()
        finally:
            os.write(write_end, b"1" if ok else b"0")
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as result:
        child_ok = result.read()
    os.waitpid(pid, 0)
    assert child_ok == b"1"
    assert run_monte_carlo(cfg) == want
    assert _helpers.pool == [helper]


def test_nothing_is_forked_while_another_thread_runs(monkeypatch, fresh_helpers):
    cfg = PARALLEL_CONFIGS["wm2"]
    want = sequential_points(monkeypatch, cfg)
    use_workers(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_monte_carlo(cfg) == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _helpers.pool == []


# The helper pool alone, driven with trivial jobs.


def test_unpicklable_reply_ends_the_helper_and_its_share_runs_here(fresh_helpers):
    owner = os.getpid()

    def unpicklable_in_helper(arg, item):
        if os.getpid() != owner:
            return lambda: item  # a local function cannot be pickled
        return arg + item

    assert _helpers.run(unpicklable_in_helper, 10, [[0], [1, 2]]) == [10, 11, 12]
    assert _helpers.pool == []


def test_exception_here_discards_the_helpers_pending_replies(fresh_helpers):
    owner, interrupt = os.getpid(), [True]

    def tag(arg, item):
        if os.getpid() == owner and interrupt[0]:
            raise KeyboardInterrupt
        return arg, item

    with pytest.raises(KeyboardInterrupt):
        _helpers.run(tag, "first", [[0], [1]])
    assert _helpers.pool == []
    interrupt[0] = False
    # Same fn: a helper still holding ("first", 1) would answer with it.
    assert _helpers.run(tag, "second", [[0], [1]]) == [("second", 0), ("second", 1)]


def test_helpers_of_another_fn_are_replaced(fresh_helpers):
    def double(arg, item):
        return 2 * item

    def negate(arg, item):
        return -item

    assert _helpers.run(double, None, [[1], [2], [3]]) == [2, 4, 6]
    first = [helper.pid for helper in _helpers.pool]
    assert _helpers.run(double, None, [[1], [2], [3]]) == [2, 4, 6]
    assert [helper.pid for helper in _helpers.pool] == first
    assert _helpers.run(negate, None, [[1], [2], [3]]) == [-1, -2, -3]
    assert len(_helpers.pool) == 2
    assert not {helper.pid for helper in _helpers.pool} & set(first)
    for pid in first:
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(pid, os.WNOHANG)


def test_results_come_in_share_order_for_unhashable_items(fresh_helpers):
    def scale(arg, item):
        return arg * item

    items = [np.arange(k, k + 3.0) for k in range(4)]
    got = _helpers.run(scale, 2.0, [items[:1], items[1:3], items[3:]])
    assert len(_helpers.pool) == 2
    assert [a.tolist() for a in got] == [(2.0 * a).tolist() for a in items]


def test_a_share_whose_helper_cannot_be_forked_runs_here(monkeypatch, fresh_helpers):
    """A failed fork closes the helper's pipes and leaves it out of the
    pool; the next call forks the missing helper. Without os.fork, every
    share runs here."""
    owner, real_fork = os.getpid(), os.fork

    def where(arg, item):
        return item, os.getpid() == owner

    def fork_failing_from(failing):
        """os.fork, but its calls from the failing-th on raise EAGAIN."""
        calls = []

        def fork():
            calls.append(None)
            if len(calls) >= failing:
                raise OSError(errno.EAGAIN, "fork refused")
            return real_fork()
        return fork

    shares = [[0], [1, 2], [3]]
    fds = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_failing_from(1))
    assert _helpers.run(where, None, shares) == [(k, True) for k in range(4)]
    assert _helpers.pool == []
    assert sorted(os.listdir("/proc/self/fd")) == fds
    monkeypatch.setattr(os, "fork", fork_failing_from(2))
    assert _helpers.run(where, None, shares) == [(0, True), (1, False), (2, False), (3, True)]
    assert len(_helpers.pool) == 1
    monkeypatch.setattr(os, "fork", real_fork)
    assert _helpers.run(where, None, shares) == [(0, True), (1, False), (2, False), (3, False)]
    assert len(_helpers.pool) == 2
    monkeypatch.delattr(os, "fork")
    assert _helpers.run(where, None, shares) == [(k, True) for k in range(4)]


def test_helpers_end_when_their_owner_dies_without_stopping_them(tmp_path):
    """A helper sees the end of its input once its owner is gone, even when
    the owner skips its exit handlers."""
    pids = tmp_path / "pids"
    code = f"""
import os
import wavemod._helpers as h
def same(arg, item):
    return item
assert h.run(same, None, [[0], [1], [2]]) == [0, 1, 2]
open({str(pids)!r}, "w").write(" ".join(str(helper.pid) for helper in h.pool))
os._exit(0)
"""
    done = fresh_process.run(code)
    assert done.returncode == 0
    helper_pids = [int(p) for p in pids.read_text().split()]
    assert len(helper_pids) == 2

    def ended(pid):  # gone, or a zombie its new parent has not reaped yet
        try:
            os.kill(pid, 0)
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
        except OSError:
            return True

    deadline = time.monotonic() + 20
    while not all(map(ended, helper_pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in helper_pids if not ended(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []
