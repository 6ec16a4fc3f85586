"""wavemod benchmark: runs one workload, checks every output, prints metrics.

    python3 perfbench/run.py --workload sweep-wm2 --seed 0 --seconds 55 --trace 0

Run from the repository root; the package is imported from ./src, nothing
needs installing. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
a traced run. The full record (environment, raw samples, failures) goes to
perfbench/out/results/, and traced spans to perfbench/out/.
"""

import os

# One thread, one caller: pin the numeric pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is sampled in fresh processes; the median of several is steady
# where a single interpreter start is not.
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import wavemod.cli; "
    "from wavemod.filters import make_daubechies; make_daubechies(4); "
    "print(time.perf_counter() - t)"
)

# p90 needs ten samples beyond it (a sweep-wm2 call takes about 0.5 s).
MIN_OPS = {"cli-roundtrip": 100}
DEFAULT_MIN_OPS = 5


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results-dir", type=Path, default=OUT / "results",
                   help="where the full JSON record is written")
    return p.parse_args(argv)


def measure_setup():
    """Seconds to import wavemod.cli and build the first filter, per fresh
    process. One unrecorded warm-up process compiles the bytecode first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))  # thread pins are inherited
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{done.stderr}")
        if k:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def call_main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        traceback.print_exc()  # into the captured output of the failure
        return f"{type(exc).__name__}: {exc}"


@dataclass
class Ops:
    """Per-operation samples of one pass over a workload."""

    seconds: list = field(default_factory=list)
    bits: list = field(default_factory=list)
    bytes_written: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_op(cli, workload, i, ops, sink):
    """One operation; only the cli.main calls are timed."""
    workload.prepare(i)
    argvs = workload.calls(i)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        codes = [call_main(cli, argv) for argv in argvs]
        dt = time.perf_counter() - t0
    problems, bits, written, blocks, errors = workload.check(i, codes)
    if problems:
        ops.failures.append({"op": i, "problems": problems, "output": sink.getvalue()[-2000:]})
    sink.seek(0)
    sink.truncate()
    ops.seconds.append(dt)
    ops.bits.append(bits)
    ops.bytes_written.append(written)
    ops.blocks.append(blocks)
    ops.errors.append(errors)


def run_ops(workload, deadline, min_ops, tracer=None):
    """Closed loop, one caller: ops until the deadline and at least min_ops.

    With a tracer, each op runs untraced and then traced, so the two passes
    see the same inputs and the same machine conditions; their gap is the
    tracing overhead. Returns (untraced, traced) samples.
    """
    import wavemod.cli as cli

    base, traced = Ops(), Ops()
    sink = io.StringIO()
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        run_op(cli, workload, i, base, sink)
        if tracer is not None:
            tracer.install()
            try:
                run_op(cli, workload, i, traced, sink)
            finally:
                tracer.uninstall()
        i += 1
    return base, traced


def end_to_end(ops, setup):
    """The BENCHMARK.json end-to-end metrics, plus the unbounded median
    latency, which is recorded and printed but not bounded (see README)."""
    ms = [t * 1e3 for t in ops.seconds]
    rates = [b / t for b, t in zip(ops.bits, ops.seconds)]
    # On a shared host the CPU runs fast or slow for stretches of tens of
    # seconds; the 90th-percentile latency (and the rate 90% of operations
    # reach) sits in the slow mode in every run, where the median flips.
    bounded = {
        "sweep_bits_per_s": (statistics.quantiles(rates, n=10)[0], "bits/s"),
        "roundtrip_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return bounded, {"roundtrip_ms_p50": (statistics.median(ms), "ms")}


def per_layer(workload, base, traced, tracer):
    from workloads import mflop_per_block

    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0))[0] for n in names)

    def self_ns(*names):
        return sum(totals.get(n, (0, 0))[1] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    frames = calls("filterbank.synthesize_pyramid")

    def us_per_block(*names):
        return ratio(self_ns(*names), frames) / 1e3

    def ms_per_call(first, *more):
        return ratio(self_ns(first, *more), calls(first)) / 1e6

    n_ops = len(traced.seconds)
    steps = ("filterbank.analysis_step", "filterbank.synthesis_step")
    mflop = mflop_per_block(workload)
    traced_ns = sum(traced.seconds) * 1e9
    return {
        "filterbank.synthesis_step.self_us_per_block": (us_per_block("filterbank.synthesis_step"), "us"),
        "filterbank.analysis_step.self_us_per_block": (us_per_block("filterbank.analysis_step"), "us"),
        "filterbank.pyramid.self_us_per_block": (
            us_per_block("filterbank.synthesize_pyramid", "filterbank.analyze_pyramid"), "us"),
        "filterbank.kernel_calls_per_block": (ratio(calls(*steps), frames), "count"),
        "filterbank.mflop_per_block": (mflop, "MFLOP-computed"),
        "filterbank.achieved_mflop_per_s": (ratio(mflop * frames * 1e9, self_ns(*steps)), "MFLOP/s"),
        "channel.add_awgn.self_us_per_block": (us_per_block("channel.add_awgn"), "us"),
        "codec.place.self_us_per_block": (us_per_block("codec.place_method1", "codec.place_method2"), "us"),
        "detector.detect_block.self_us_per_block": (us_per_block("detector.detect_block"), "us"),
        "ber.harness.self_us_per_block": (us_per_block("ber.run_monte_carlo"), "us"),
        "ber.blocks": (sum(traced.blocks) / n_ops, "count/op"),
        "ber.errors": (sum(traced.errors) / n_ops, "count/op"),
        "filters.make_daubechies.self_us_per_call": (ms_per_call("filters.make_daubechies") * 1e3, "us"),
        "filters.make_daubechies.calls": (calls("filters.make_daubechies") / n_ops, "count/op"),
        "cli.modulate.self_ms": (ms_per_call("cli.cmd_modulate"), "ms"),
        "cli.demodulate.self_ms": (ms_per_call("cli.cmd_demodulate"), "ms"),
        "cli.main.self_ms": (ms_per_call("cli.main", "cli.build_parser"), "ms"),
        "cli.ber_sweep.self_ms": (ms_per_call("cli.cmd_ber_sweep"), "ms"),
        "cli.bytes_written_per_roundtrip": (sum(traced.bytes_written) / n_ops, "bytes"),
        "trace.overhead_frac": (sum(traced.seconds) / sum(base.seconds) - 1.0, "fraction"),
        "trace.unattributed_frac": (1.0 - sum(t for _, t in totals.values()) / traced_ns, "fraction"),
    }


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat; steal is
    time the hypervisor ran something else while a vCPU wanted to run."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories); the benchmark may run outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    import wavemod

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": wavemod.BACKEND,
        "WAVEMOD_NO_EXT": os.environ.get("WAVEMOD_NO_EXT", ""),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wavemod" / "cli.py").is_file():
        print(f"error: no wavemod sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import workloads

    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir, reference)
        min_ops = MIN_OPS.get(args.workload, DEFAULT_MIN_OPS)
        ticks0 = cpu_ticks()
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            base, traced = run_ops(workload, deadline, min_ops, tracer)
            tracer.write_csv(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
            metrics, unbounded = per_layer(args.workload, base, traced, tracer), {}
            runs = [base, traced]
        else:
            ops, _ = run_ops(workload, deadline, min_ops)
            metrics, unbounded = end_to_end(ops, setup)
            runs = [ops]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ticks1 = cpu_ticks()
    attempted = sum(len(r.seconds) for r in runs)
    failures = [f for r in runs for f in r.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "host_steal_frac": (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1]),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ops_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
        "samples": {"op_seconds": [r.seconds for r in runs], "setup_s": setup},
    }
    args.results_dir.mkdir(parents=True, exist_ok=True)
    (args.results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for f in failures:
        print(f"FAILED op {f['op']}: {'; '.join(f['problems'])}")
    print(f"{args.workload}: {attempted} ops, failed_ops_frac {record['failed_ops_frac']:.4g}, "
          f"backend {record['env']['backend']}")
    for k, m in record["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    for k, m in record["unbounded"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']} (recorded, not bounded)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
