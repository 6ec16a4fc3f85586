"""The deterministic outputs that every refactor must keep byte-identical.

A change that alters one of these on purpose says why and updates the pin
in the same commit.
"""

import ast
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

import wavemod
import wavemod.cli as cli
from wavemod.cli import main
from wavemod.modem import METHODS
from wavemod.theory import ber_method1_ideal, ber_theory, energy_per_symbol_factor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference.json"

CRITERION_8 = [
    "--method", "wm1,wm2,pam", "--scales", "4", "--message-len", "64",
    "--snr-grid=-6:2:2", "--min-errors", "100", "--max-trials", "100", "--seed", "42",
]
TAPS_6 = [
    "--method", "wm1,wm2,pam", "--scales", "6", "--message-len", "512",
    "--snr-grid=-12:4:2", "--min-errors", "100", "--max-trials", "20",
    "--taps", "6", "--seed", "7",
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep(tmp_path, flags, *extra):
    out = tmp_path / "ber.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ber-sweep", *flags, "--out", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize(
    "flags, csv_sha, svg_sha",
    [
        (
            CRITERION_8,
            "57a03413b93a9a1a8ad7465d1f45daabaec73f63d6b2a20db53b67027d3fbc75",
            "3969f695725d7a1d5e9b9377d58855b577c962deeaedd89e691aef4c3e3e2553",
        ),
        (
            TAPS_6,
            "c70901a82e857265b89bb68b838b4428f39835a73cceafab308d9605cf0e383a",
            "f34f572c8339ddc0b7828ed29c9e44365d628fe7af2b56a349b968067da28199",
        ),
    ],
    ids=["criterion-8", "taps-6"],
)
def test_sweep_bytes_are_pinned(tmp_path, flags, csv_sha, svg_sha):
    out = sweep(tmp_path, flags, "--plot")
    assert sha256(out) == csv_sha
    assert sha256(out.with_suffix(".svg")) == svg_sha


def test_theory_bytes_are_pinned():
    """Every theory curve, its scalar type and the energy factor, over
    3 methods x M = 1..24 x 325 SNRs: -40..40 dB in 0.25 dB steps plus
    1e308 (copies * snr overflows), 1e-300, the smallest subnormal and 0."""
    snrs = np.concatenate([10.0 ** (np.arange(-160, 161) / 40), [1e308, 1e-300, 5e-324, 0.0]])
    digest = hashlib.sha256()
    for m in range(1, 25):
        values = [ber_theory(method, m, snr) for snr in (snrs, 1.0) for method in METHODS]
        values += [ber_method1_ideal(m, snrs), ber_method1_ideal(m, 1.0)]
        values += [energy_per_symbol_factor(method, m) for method in METHODS]
        for value in values:
            digest.update(type(value).__name__.encode())
            digest.update(np.asarray(value).tobytes())
    assert digest.hexdigest() == "79f7053d90e408bfa11db68fc86d824177889604e4f180461c6d313b98d22a17"


def test_star_import_yields_every_listed_name():
    namespace = {}
    exec("from wavemod import *", namespace)
    assert set(wavemod.__all__) <= namespace.keys()


def test_method1_energy_factor_is_the_closed_form():
    for m in range(1, 1024):
        assert energy_per_symbol_factor("wm1", m) == 2.0 - 2.0 ** (1 - m)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workload", ["sweep-wm2", "sweep-wm1"])
def test_benchmark_sweeps_match_reference(tmp_path, workload, seed):
    """The benchmark's sweeps give the rows its stored reference pins."""
    reference = json.loads(REFERENCE.read_text())[workload]
    out = sweep(tmp_path, reference["flags"], "--seed", str(seed))
    with open(out, newline="") as handle:
        rows = [
            [r["method"], r["snr_db_per_copy"], int(r["trials"]), int(r["errors"])]
            for r in csv.DictReader(handle)
        ]
    assert rows == reference["rows"][str(seed)]


def per_layer_span_names():
    """The span names that perfbench/run.py's per_layer metrics read."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    [per_layer] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "per_layer"
    ]
    readers = {"calls", "self_ns", "us_per_block", "ms_per_call"}
    return {
        arg.value
        for call in ast.walk(per_layer)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in readers
        for arg in call.args
        if isinstance(arg, ast.Constant)
    }


def test_benchmark_hooks_record_spans(tmp_path):
    """Every function the benchmark's per-layer metrics read is still where
    its tracer wraps it. The sweep has one point, so it runs in this
    process, where the wrappers are."""
    names = per_layer_span_names()
    assert {"channel.add_awgn", "ber.run_monte_carlo", "cli.main"} <= names
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    bits = tmp_path / "bits.txt"
    bits.write_text("0\n1\n" * 8)
    samples = tmp_path / "samples.txt"
    modem = ["--method", "wm2", "--scales", "2"]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([
                "ber-sweep", "--method", "wm1,wm2,pam", "--scales", "2", "--message-len", "8",
                "--snr-grid=0", "--max-trials", "2", "--out", str(tmp_path / "ber.csv"),
            ]) == 0
        assert cli.main(["modulate", str(bits), "--out", str(samples), *modem]) == 0
        back = tmp_path / "back.txt"
        assert cli.main(["demodulate", str(samples), "--out", str(back), *modem]) == 0
    finally:
        tracer.uninstall()
    recorded = {name for name, (count, _) in tracer.totals().items() if count}
    assert names - recorded == set()
    assert back.read_text() == bits.read_text()
    assert isinstance(wavemod.BACKEND, str)  # perfbench's environment() records it
