import csv
import warnings

import numpy as np
import pytest

from wavemod.cli import main, parse_snr_grid, read_config_file, CSV_COLUMNS
from wavemod.errors import ConfigurationError
from wavemod.filters import make_daubechies


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
    "extra, message",
    [
        (["--snr-grid=nan"], "SNR grid"),
        (["--snr-grid=1,inf"], "SNR grid"),
        (["--snr-grid=0:inf:1"], "SNR grid"),
        (["--snr-grid=-inf:0:1"], "SNR grid"),
        (["--method", ","], "no method"),
        (["--method", "pam,wm1", "--scales", "6", "--message-len", "7"], "divisible"),
        (["--method", "pam,wm2", "--taps", "5"], "tap count"),
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
