"""Regenerate perfbench/reference.json: the sweep CSV rows the benchmark
expects for every reference program seed.

    python3 perfbench/make_reference.py

Only rerun this when a change is meant to alter the sweeps' output; the
reference is what keeps an optimisation honest about byte-identical
results. Reports any point outside 3 SE of theory; such a point fails its
operation in every benchmark run, so the report must be read, not dropped.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from wavemod import cli  # noqa: E402


def main():
    reference = {}
    misses = []
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        out = Path(tmp) / "sweep.csv"
        for name, flags in workloads.SWEEP_FLAGS.items():
            rows = {}
            for seed in workloads.REFERENCE_SEEDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(workloads.sweep_argv(name, seed, out))
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit code {code}")
                rows[str(seed)] = workloads.read_sweep_rows(out)
                misses += [f"{name} seed {seed}: {m}" for m in workloads.three_se_misses(out)]
            reference[name] = {"flags": flags, "rows": rows}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    for m in misses:
        print(f"outside 3 SE: {m}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
