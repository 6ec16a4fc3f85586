import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import naive_cli_io
import numpy as np
import pytest
from hypothesis import given, settings, strategies

import wavemod
import wavemod.ber as ber
from wavemod import _helpers
from wavemod import cli
from wavemod.cli import MAX_SNR_POINTS, main, parse_snr_grid, read_config_file, CSV_COLUMNS
from wavemod.errors import ConfigurationError
from wavemod.filters import FilterPair, make_daubechies
from wavemod.modem import Modem
from wavemod.svgplot import render_ber_svg


def write_bits(path, bits):
    path.write_text("".join(f"{b}\n" for b in bits))


def read_bits(path):
    return [int(line) for line in path.read_text().split()]


def test_filters_output(capsys):
    assert main(["filters", "--taps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    values = [float(line.split("=")[1]) for line in lines]
    np.testing.assert_allclose(np.abs(values), 1 / np.sqrt(2), rtol=1e-15)


def test_filters_match_construction(capsys):
    assert main(["filters", "--taps", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split("=")[1]) for line in out[:4]]
    np.testing.assert_allclose(values, make_daubechies(4).h, rtol=1e-15)


def test_filters_bad_taps(capsys):
    assert main(["filters", "--taps", "5"]) == 2
    assert "supported" in capsys.readouterr().err


def test_filters_invalid_pair(capsys, monkeypatch):
    """A pair that fails validation is printed as problems, not taps."""
    bad = FilterPair(h=np.array([1.0, 1.0]), g=np.array([1.0, -1.0]))
    monkeypatch.setattr(cli, "make_daubechies", lambda taps: bad)
    assert main(["filters", "--taps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("invalid filter pair: ") for line in lines)


@pytest.mark.parametrize("method", ["wm1", "wm2"])
def test_modem_round_trip_512(tmp_path, method):
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, 512).tolist()
    src = tmp_path / "bits.txt"
    samples = tmp_path / "samples.txt"
    out = tmp_path / "out.txt"
    write_bits(src, bits)
    common = ["--method", method, "--scales", "6", "--taps", "4"]
    assert main(["modulate", str(src), "--out", str(samples), *common]) == 0
    assert main(["demodulate", str(samples), "--out", str(out), *common]) == 0
    assert read_bits(out) == bits


def test_modulate_divisibility_error(tmp_path, capsys):
    src = tmp_path / "bits.txt"
    write_bits(src, [0, 1] * 255)  # 510 bits, needs multiple of 32
    rc = main(["modulate", str(src), "--out", str(tmp_path / "o"), "--method", "wm1", "--scales", "6"])
    assert rc == 2
    assert "divisible" in capsys.readouterr().err


def test_modulate_malformed_line(tmp_path, capsys):
    src = tmp_path / "bits.txt"
    src.write_text("1\n0\n2\n1\n")
    rc = main(["modulate", str(src), "--out", str(tmp_path / "o"), "--scales", "1"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_empty_input_writes_nothing(tmp_path, capsys):
    src = tmp_path / "bits.txt"
    src.write_text("\n")
    out = tmp_path / "o"
    assert main(["modulate", str(src), "--out", str(out), "--scales", "1"]) == 2
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path, capsys):
    rc = main(["modulate", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_parse_snr_grid():
    assert parse_snr_grid("0:4:2") == (0.0, 2.0, 4.0)
    assert parse_snr_grid("1,3.5") == (1.0, 3.5)
    with pytest.raises(ConfigurationError):
        parse_snr_grid("4:0:2")
    with pytest.raises(ConfigurationError):
        parse_snr_grid("a:b:c")


def test_parse_snr_grid_point_cap():
    assert len(parse_snr_grid(f"0:{MAX_SNR_POINTS - 1}:1")) == MAX_SNR_POINTS
    with pytest.raises(ConfigurationError, match="more than"):
        parse_snr_grid(f"0:{MAX_SNR_POINTS}:1")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nscales = 3\nseed=9\n")
    assert read_config_file(cfg) == {"scales": "3", "seed": "9"}
    cfg.write_text("bogus_key=1\n")
    with pytest.raises(ConfigurationError, match="bogus_key"):
        read_config_file(cfg)
    cfg.write_text("no equals sign\n")
    with pytest.raises(ConfigurationError, match="key=value"):
        read_config_file(cfg)


def sweep_args(tmp_path, name, extra=()):
    return [
        "ber-sweep",
        "--method", "pam",
        "--snr-grid", "2:4:2",
        "--message-len", "128",
        "--min-errors", "50",
        "--max-trials", "30",
        "--seed", "5",
        "--out", str(tmp_path / name),
        *extra,
    ]


def test_ber_sweep_csv_schema(tmp_path):
    assert main(sweep_args(tmp_path, "out.csv")) == 0
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][0] == "pam"
    assert rows[1][4] == ""  # ideal column empty outside Method 1
    assert float(rows[1][5]) == int(rows[1][7]) / int(rows[1][6])


def test_ber_sweep_single_point_single_method(tmp_path):
    rc = main(
        ["ber-sweep", "--method", "pam", "--snr-grid", "3", "--message-len", "64",
         "--min-errors", "10", "--max-trials", "10", "--out", str(tmp_path / "one.csv")]
    )
    assert rc == 0
    rows = (tmp_path / "one.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_ber_sweep_deterministic_and_plot_pure(tmp_path):
    assert main(sweep_args(tmp_path, "a.csv")) == 0
    assert main(sweep_args(tmp_path, "b.csv", extra=["--plot"])) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    svg = (tmp_path / "b.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_ber_sweep_method1_has_ideal_column(tmp_path):
    rc = main(
        ["ber-sweep", "--method", "wm1", "--scales", "2", "--snr-grid", "0",
         "--message-len", "64", "--min-errors", "20", "--max-trials", "20",
         "--out", str(tmp_path / "wm1.csv")]
    )
    assert rc == 0
    with open(tmp_path / "wm1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ideal = float(rows[1][4])
    theory = float(rows[1][3])
    assert 0 < ideal < theory


def test_ber_sweep_unknown_method(tmp_path, capsys):
    rc = main(["ber-sweep", "--method", "qam", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "methods" in capsys.readouterr().err


def test_ber_sweep_unwritable_output(tmp_path, capsys):
    rc = main(sweep_args(tmp_path, "nodir/out.csv"))
    assert rc == 3


def test_ber_sweep_output_is_directory(tmp_path, capsys, monkeypatch):
    (tmp_path / "out.csv").mkdir()
    monkeypatch.setattr(cli, "run_monte_carlo", None)  # fails before the sweep
    assert main(sweep_args(tmp_path, "out.csv")) == 3
    assert "cannot open output" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("out", [".", "/", ""])
@pytest.mark.parametrize("command", ["modulate", "demodulate", "ber-sweep", "ber-sweep --plot"])
def test_output_naming_a_directory_is_io_error(tmp_path, capsys, monkeypatch, command, out):
    # These used to end in a ValueError traceback ("has an empty name"),
    # and ber-sweep --out '' wrote ./ber.csv.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_text("1.0\n-1.0\n" if command == "demodulate" else "0\n1\n")
    if command.startswith("ber-sweep"):
        argv = [*sweep_args(tmp_path, "unused")[:-2], *command.split()[1:]]
    else:
        argv = [command, "in.txt", "--method", "wm2", "--scales", "1"]
    assert main([*argv, "--out", out]) == 3
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


def test_ber_sweep_rejects_csv_named_like_its_plot(tmp_path, capsys, monkeypatch):
    # Both outputs used to share one temp file: exit 3, the SVG corrupt.
    monkeypatch.setattr(cli, "run_monte_carlo", None)  # fails before the sweep
    assert main(sweep_args(tmp_path, "res.svg", extra=["--plot"])) == 2
    err = capsys.readouterr().err
    assert "res.svg" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_ber_sweep_plot_is_directory(tmp_path, capsys, monkeypatch):
    (tmp_path / "out.svg").mkdir()
    monkeypatch.setattr(cli, "run_monte_carlo", None)  # fails before the sweep
    assert main(sweep_args(tmp_path, "out.csv", extra=["--plot"])) == 3
    assert "cannot open output" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.svg"]


def test_ber_sweep_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "methods=pam\nsnr_grid=2:4:2\nmessage_len=128\nmin_errors=50\n"
        "max_trials=30\nseed=5\n"
    )
    assert main(["ber-sweep", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    assert main(sweep_args(tmp_path, "d.csv")) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed=abc", "config key 'seed': 'abc' is not an integer"),
        ("energy=abc", "config key 'energy': 'abc' is not a number"),
    ],
)
def test_ber_sweep_config_value_that_does_not_parse(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"methods=pam\n{line}\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(cfg), "--out", str(out), "--plot"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_svg_axes_of_degenerate_curves():
    """Zero-error points have no place on a log axis. A plot left with no
    point draws the default axes, 1e-6 to 1, and a curve left with no point
    gets no polyline and no legend entry. A lone BER of 1 still gets one
    decade, 1 to 10."""
    svg = render_ber_svg([("wm2", False, [(0.0, 0.0), (3.0, 0.0)])])
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert "polyline" not in svg and ">wm2<" not in svg
    assert all(f">1e{d}</text>" in svg for d in range(-6, 1))
    svg = render_ber_svg(
        [("wm2", False, [(0.0, 0.0)]), ("pam", True, [(0.0, 0.1), (2.0, 0.01)])]
    )
    assert svg.count("<polyline") == 1 and ">pam<" in svg and ">wm2<" not in svg
    svg = render_ber_svg([("pam", False, [(0.0, 1.0)])])
    assert ">1e0</text>" in svg and ">1e1</text>" in svg and ">1e-1</text>" not in svg


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--snr-grid=nan"], "SNR grid"),
        (["--snr-grid=1,inf"], "SNR grid"),
        (["--snr-grid=0:inf:1"], "SNR grid"),
        (["--snr-grid=-inf:0:1"], "SNR grid"),
        (["--method", ","], "no method"),
        (["--method", "pam,wm1", "--scales", "6", "--message-len", "7"], "divisible"),
        (["--method", "pam,wm2", "--taps", "5"], "tap count"),
        (["--energy=nan"], "energy"),
        (["--energy=inf"], "energy"),
        (["--energy=0"], "energy"),
        (["--method", "pam,wm2", "--scales", "40"], "cap"),
        (["--snr-grid=0:1e8:1"], "SNR grid"),
        (["--snr-grid=0:1e300:1e-300"], "SNR grid"),
        (["--seed=-1"], "seed"),
        # Linear SNR overflows, or underflows to 0: used to end in a traceback.
        (["--method", "wm2,pam", "--scales", "2", "--message-len", "8", "--snr-grid=4000"],
         "SNR point 4000.0 dB"),
        (["--method", "wm2,pam", "--scales", "2", "--message-len", "8", "--snr-grid=-4000"],
         "SNR point -4000.0 dB"),
        # Infinite noise level: used to be rejected only inside the sweep.
        (["--method", "wm2,pam", "--scales", "2", "--message-len", "8", "--snr-grid=-3100"],
         "SNR point -3100.0 dB"),
        (["--method", "wm2,pam", "--scales", "2", "--message-len", "8", "--snr-grid=-300",
          "--energy=1e300"], "SNR point -300.0 dB"),
    ],
)
def test_ber_sweep_bad_config_leaves_no_output(tmp_path, capsys, extra, message):
    out = tmp_path / "out.csv"
    args = sweep_args(tmp_path, "out.csv")
    assert main([*args, *extra, "--plot"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not out.with_suffix(".svg").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_demodulate_rejects_non_finite_samples(tmp_path, capsys, bad):
    src = tmp_path / "samples.txt"
    src.write_text("0.5\n" * 7 + f"{bad}\n")
    out = tmp_path / "bits.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["demodulate", str(src), "--out", str(out), "--method", "wm2", "--scales", "3"])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--energy=nan"], "energy"),
        (["--energy=inf"], "energy"),
        (["--energy=0"], "energy"),
        (["--energy=-5"], "energy"),
        (["--method", "wm2", "--scales", "40"], "cap"),
    ],
)
def test_modulate_bad_config_leaves_no_output(tmp_path, capsys, extra, message):
    src = tmp_path / "bits.txt"
    write_bits(src, [0, 1] * 256)
    out = tmp_path / "samples.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["modulate", str(src), "--out", str(out), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_demodulate_takes_no_energy(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demodulate", str(tmp_path / "s.txt"), "--out", str(tmp_path / "b.txt"),
              "--energy", "-5"])
    assert exc.value.code == 2
    assert "--energy" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["wm1", "wm2"])
@pytest.mark.parametrize("taps", [2, 4, 6, 8])
def test_modulate_output_matches_per_value_formatter(tmp_path, method, taps):
    bits = np.random.default_rng(taps).integers(0, 2, 512)
    src = tmp_path / "bits.txt"
    out = tmp_path / "samples.txt"
    write_bits(src, bits)
    argv = ["modulate", str(src), "--out", str(out), "--method", method, "--scales", "6",
            "--taps", str(taps), "--energy", "2.5"]
    assert main(argv) == 0
    samples = Modem(method, 6, 512, taps, 2.5).modulate(bits)
    assert out.read_text() == naive_cli_io.format_samples(samples)


def test_sample_format_round_trips_bit_exactly(tmp_path):
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300])
    path = tmp_path / "samples.txt"
    cli._write_lines(path, "%.17g\n", values)
    assert path.read_text() == naive_cli_io.format_samples(values)
    back = np.array(cli._read_lines(path, "sample", float))
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


READER_CASES = {
    "blank lines": "1\n\n0\n\n",
    "whitespace-only lines": "1\n   \n\t\n0\n",
    "crlf": "1\r\n0\r\n",
    "bare cr": "1\r0\r1",
    "tabs": "\t1\t\n0 \t\n",
    "form feed between values": "1\x0c0\n",
    "unit separator between values": "1\x1f0\n",
    "underscore": "1_000\n",
    "plus and exponent": "+1e-3\n",
    "no final newline": "1\n0",
    "two values on one line": "1\n0 1\n1\n",
    "bad value mid-file": "1\nx\n0\n",
    "empty file": "",
    "whitespace-only file": "  \n\t\n",
}


@pytest.mark.parametrize("parse", [cli._parse_bit, float], ids=["bit", "sample"])
@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_read_lines_matches_per_line_reader(tmp_path, text, parse):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode())

    def outcome(read):
        try:
            return read(path, "value", parse)
        except ConfigurationError as exc:
            return str(exc)

    expected = outcome(naive_cli_io.read_lines)
    assert outcome(cli._read_lines) == expected
    assert expected  # every case gives values or an error message


def run_cli_reporting_modules(tmp_path, argvs, modules):
    """Run main(argv) for each argv in a fresh process; -> whether each
    module was imported by the end, as "True"/"False" strings."""
    code = (
        "import sys; import wavemod.cli as c\n"
        f"for argv in {argvs!r}:\n"
        "    assert c.main(argv) == 0\n"
        f"print(*(m in sys.modules for m in {modules!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wavemod.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_file_modem_does_not_import_scipy(tmp_path):
    write_bits(tmp_path / "bits.txt", [0, 1] * 16)
    a = ["--method", "wm2", "--scales", "2"]
    argvs = [["modulate", "bits.txt", "--out", "s.txt", *a],
             ["demodulate", "s.txt", "--out", "b.txt", *a]]
    modules = ["scipy", "numpy.random", "multiprocessing"]
    assert run_cli_reporting_modules(tmp_path, argvs, modules) == ["False"] * 3
    assert (tmp_path / "b.txt").read_text() == (tmp_path / "bits.txt").read_text()


def test_ber_sweep_does_not_import_scipy(tmp_path):
    argv = ["ber-sweep", "--method", "wm1,wm2,pam", "--scales", "2", "--message-len", "8",
            "--snr-grid", "0,3", "--min-errors", "5", "--max-trials", "5", "--out", "ber.csv",
            "--plot"]
    assert run_cli_reporting_modules(tmp_path, [argv], ["scipy"]) == ["False"]
    assert len((tmp_path / "ber.csv").read_text().splitlines()) == 1 + 3 * 2


@pytest.mark.parametrize("command", ["modulate", "demodulate", "ber-sweep"])
def test_undecodable_input_is_config_error(tmp_path, capsys, command):
    src = tmp_path / "in.txt"
    src.write_bytes(b"\xff\xfe" + "1\n0\n".encode("utf-16-le"))  # a UTF-16 file
    out = tmp_path / "out.txt"
    if command == "ber-sweep":
        argv = ["ber-sweep", "--config", str(src), "--out", str(out)]
    else:
        argv = [command, str(src), "--out", str(out), "--scales", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, limit", [("modulate", 100_000), ("demodulate", 500)])
def test_failed_write_leaves_no_partial_output(tmp_path, command, limit):
    """A write that fails part way (here: over the child's file-size limit)
    leaves an existing --out file as it was and no other file behind."""
    a = ["--method", "wm2", "--scales", "6"]
    write_bits(tmp_path / "bits.txt", np.random.default_rng(5).integers(0, 2, 512))
    assert main(["modulate", str(tmp_path / "bits.txt"), "--out", str(tmp_path / "s.txt"), *a]) == 0
    src = "bits.txt" if command == "modulate" else "s.txt"
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    before = sorted(tmp_path.iterdir())
    code = (
        "import resource, signal, sys\n"
        "import wavemod.cli as c\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        f"sys.exit(c.main({[command, src, '--out', 'out.txt', *a]!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wavemod.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "I/O error" in done.stderr and "Traceback" not in done.stderr
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == before


def test_ber_sweep_failure_mid_run_leaves_no_output(tmp_path, monkeypatch, capsys):
    real = cli.run_monte_carlo
    calls = []

    def fail_on_second(cfg):
        calls.append(cfg.modem.method)
        if len(calls) == 2:
            raise ConfigurationError("injected failure")
        return real(cfg)

    monkeypatch.setattr(cli, "run_monte_carlo", fail_on_second)
    args = sweep_args(tmp_path, "out.csv", extra=["--method", "pam,wm2", "--scales", "2", "--plot"])
    assert main(args) == 2
    assert calls == ["pam", "wm2"]
    assert "injected failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ber_sweep_helper_failure_leaves_no_output(tmp_path, monkeypatch, capsys):
    _helpers.stop()  # the helper must fork under the patch below
    owner, real = os.getpid(), ber._run_point

    def fail_in_helper(cfg, pt):
        if os.getpid() != owner:
            raise ConfigurationError(f"injected failure at point {pt}")
        return real(cfg, pt)

    monkeypatch.setattr(ber, "_run_point", fail_in_helper)
    monkeypatch.setattr(_helpers, "usable_cpus", lambda: 2)
    try:
        args = sweep_args(tmp_path, "out.csv", extra=["--method", "wm2", "--scales", "2", "--plot"])
        assert main(args) == 2
    finally:
        _helpers.stop()
    err = capsys.readouterr().err
    assert "injected failure at point" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_ber_sweep_process_exits_and_leaves_no_helper(tmp_path):
    """The helpers a sweep forks end with the process that forked them."""
    code = (
        "import wavemod._helpers as h, wavemod.cli as c\n"
        "h.usable_cpus = lambda: 3\n"
        "argv = ['ber-sweep', '--method', 'wm2', '--scales', '2', '--message-len', '16',\n"
        "        '--snr-grid=-3,0,3', '--min-errors', '20', '--max-trials', '20']\n"
        "assert c.main(argv) == 0\n"
        "print(*(helper.pid for helper in h.pool))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wavemod.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pids = [int(p) for p in done.stdout.splitlines()[-1].split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# Per setting: values the contract accepts, then values it must reject.
# Frames stay small; 40 scales appears only to hit the frame cap.
FUZZ_SETTINGS = {
    "scales": ([1, 2, 3], [-1, 0, 40]),
    "taps": ([2, 4, 8], [0, 3]),
    "energy": (["1", "0.25", "1e300"], ["0", "-1", "nan", "inf"]),
    "methods": (["pam", "wm1", "wm2", "wm1,wm2,pam"], ["qam", ","]),
    "message_len": ([8, 16], [0, 7]),
    "snr_grid": (["0", "0,3", "-2:2:2"], ["nan", "4:0:1", "0:inf:1"]),
    "min_errors": ([1, 5], [0]),
    "max_trials": ([1, 2], [0]),
    "seed": ([0, 7], [-1]),
    "bits": ([8, 16, 32], [0, 7, "2", "x"]),
    "samples": ([8, 16, 64], [1, 12, "nan", "inf"]),
    "encoding": (["utf-8"], ["utf-16"]),  # of the modulate/demodulate input
}


def _fuzz_argv(draw, workdir):
    """One CLI call, valid except for at most one setting drawn from the
    rejected values; returns (argv, the paths the call may write)."""
    st = strategies
    command = draw(st.sampled_from(["filters", "modulate", "demodulate", "ber-sweep"]))
    broken = draw(st.sampled_from([None, *FUZZ_SETTINGS]))
    v = {
        key: draw(st.sampled_from(bad if key == broken else good))
        for key, (good, bad) in FUZZ_SETTINGS.items()
    }
    if command == "filters":
        return ["filters", f"--taps={v['taps']}"], []
    if command == "ber-sweep":
        out = workdir / "out.csv"
        argv = ["ber-sweep", "--method", v["methods"], "--out", str(out)]
        argv += [f"--{key.replace('_', '-')}={v[key]}" for key in (
            "scales", "taps", "energy", "message_len", "snr_grid", "min_errors", "max_trials",
            "seed")]
        if draw(st.booleans()):
            argv.append("--plot")
        return argv, [out, out.with_suffix(".svg")]
    src = workdir / "in.txt"
    out = workdir / "out.txt"
    if command == "modulate":
        n = v["bits"] if isinstance(v["bits"], int) else 8
        lines = [str(b) for b in draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
        if isinstance(v["bits"], str):
            lines[draw(st.integers(0, n - 1))] = v["bits"]
    else:
        n = v["samples"] if isinstance(v["samples"], int) else 8
        lines = [repr(x) for x in draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n))]
        if isinstance(v["samples"], str):
            lines[draw(st.integers(0, n - 1))] = v["samples"]
    src.write_bytes("".join(f"{line}\n" for line in lines).encode(v["encoding"]))
    argv = [command, str(src), "--out", str(out), "--method", draw(st.sampled_from(["wm1", "wm2"])),
            f"--scales={v['scales']}", f"--taps={v['taps']}"]
    if command == "modulate":
        argv.append(f"--energy={v['energy']}")
    return argv, [out]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(strategies.data())
def test_cli_fuzz_keeps_its_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv, outputs = _fuzz_argv(data.draw, workdir)
        before = set(workdir.iterdir())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if rc != 0:
            assert set(workdir.iterdir()) == before, argv
        for path in outputs:
            if path.exists():
                text = path.read_text().lower()
                assert "nan" not in text and "inf" not in text, argv
