"""Command-line surface: filter inspection, file modem, BER sweeps.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import contextlib
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from wavemod.ber import ExperimentConfig, energy_per_symbol_factor, run_monte_carlo
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filters import make_daubechies, validate_filter_pair
from wavemod.modem import METHOD1, METHOD2, Modem
from wavemod.svgplot import render_ber_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

CSV_COLUMNS = [
    "method",
    "snr_db_per_copy",
    "snr_db_per_message_energy",
    "ber_theory",
    "ber_theory_ideal",
    "ber_sim",
    "trials",
    "errors",
    "seed",
]

DEFAULTS = {
    "methods": "wm1,wm2,pam",
    "scales": 6,
    "message_len": 512,
    "energy": 1.0,
    "snr_grid": "-16:9:1",
    "min_errors": 200,
    "max_trials": 200,
    "seed": 0,
    "taps": 4,
}

# Most points an "a:b:step" SNR grid may have, checked before it is built.
MAX_SNR_POINTS = 10_000


def parse_snr_grid(text: str) -> tuple:
    """Parse "a:b:step" (inclusive endpoints) or a comma-separated list."""
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
                raise ValueError
            # Not finite when (hi - lo) / step overflows, e.g. 0:1e300:1e-300.
            steps = (hi - lo) / step
            if not steps <= MAX_SNR_POINTS - 1:
                raise ConfigurationError(
                    f"SNR grid {text!r} has more than {MAX_SNR_POINTS} points"
                )
            n = int(round(steps)) + 1
            return tuple(lo + i * step for i in range(n) if lo + i * step <= hi + 1e-9)
        grid = tuple(float(p) for p in text.split(","))
        if not all(map(math.isfinite, grid)):
            raise ValueError
        return grid
    except ConfigurationError:
        raise
    except ValueError:
        raise ConfigurationError(
            f"cannot parse SNR grid {text!r}; expected a:b:step or a list of finite values"
        )


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"input file {path} is not UTF-8 text") from None


def read_config_file(path: Path) -> dict:
    """Flat key=value text file; blank lines and # comments allowed."""
    values = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS and key != "out":
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _read_lines(path: Path, kind: str, parse) -> list:
    """One value per non-blank line, each stripped and passed to parse."""
    if not path.exists():
        raise OSError(f"input file {path} does not exist")
    lines = _read_text(path).splitlines()
    try:
        values = list(map(parse, filter(None, map(str.strip, lines))))
    except ValueError:
        # Only a bad file pays for the second pass that names its line.
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            try:
                if line:
                    parse(line)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: line {lineno}: malformed {kind}: {raw!r}"
                ) from None
        raise
    if not values:
        raise ConfigurationError(f"input file {path} is empty")
    return values


def _write_lines(path: Path, line_format: str, values: np.ndarray):
    """One value per line, formatted in a single %-operation."""
    path.write_text((line_format * len(values)) % tuple(values.tolist()))


def _parse_bit(token: str) -> int:
    if token not in ("0", "1"):
        raise ValueError(token)
    return int(token)


def cmd_filters(args) -> int:
    fp = make_daubechies(args.taps)
    problems = validate_filter_pair(fp)
    if problems:
        for p in problems:
            print(f"invalid filter pair: {p}", file=sys.stderr)
        return EXIT_CONFIG
    for name, taps in (("h", fp.h), ("g", fp.g)):
        for i, v in enumerate(taps):
            print(f"{name}[{i}] = {v:.17g}")
    return EXIT_OK


def cmd_modulate(args) -> int:
    bits = np.array(_read_lines(Path(args.input), "bit", _parse_bit))
    modem = Modem(args.method, args.scales, len(bits), args.taps, args.energy)
    # %.17g round-trips every float64 exactly.
    _write_lines(Path(args.out), "%.17g\n", modem.modulate(bits))
    return EXIT_OK


def cmd_demodulate(args) -> int:
    samples = np.array(_read_lines(Path(args.input), "sample", float))
    if not np.isfinite(samples).all():
        raise ConfigurationError(f"input file {args.input} has non-finite samples")
    modem = Modem.for_samples(args.method, args.scales, len(samples), args.taps)
    _write_lines(Path(args.out), "%d\n", modem.demodulate(samples))
    return EXIT_OK


@contextlib.contextmanager
def _replace_on_success(path: Path):
    """Yield a handle on a temporary file that replaces path if the block
    completes and is deleted if it raises. Opened before the block runs, so
    an output that cannot be written fails before any work is done."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if path.is_dir():
            raise IsADirectoryError("is a directory")
        handle = tmp.open("w", newline="")
    except OSError as exc:
        raise OSError(f"cannot open output {path}: {exc}")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _gather_settings(args) -> dict:
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(read_config_file(Path(args.config)))
    for key, attr in (
        ("methods", "method"),
        ("scales", "scales"),
        ("message_len", "message_len"),
        ("snr_grid", "snr_grid"),
        ("min_errors", "min_errors"),
        ("max_trials", "max_trials"),
        ("seed", "seed"),
        ("taps", "taps"),
        ("energy", "energy"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            settings[key] = value
    return settings


def _int_setting(settings, key) -> int:
    try:
        return int(settings[key])
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: {settings[key]!r} is not an integer")


def cmd_ber_sweep(args) -> int:
    settings = _gather_settings(args)
    methods = [m.strip() for m in str(settings["methods"]).split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("config key 'methods': no method given")
    grid = parse_snr_grid(str(settings["snr_grid"]))
    scales = _int_setting(settings, "scales")
    seed = _int_setting(settings, "seed")
    try:
        energy = float(settings["energy"])
    except ValueError:
        raise ConfigurationError(f"config key 'energy': {settings['energy']!r} is not a number")
    # Every config is validated before the output is opened, so a bad one
    # leaves no file behind.
    configs = [
        ExperimentConfig(
            method=method,
            num_scales=scales,
            message_len=_int_setting(settings, "message_len"),
            symbol_energy=energy,
            snr_grid_db=grid,
            min_errors=_int_setting(settings, "min_errors"),
            max_trials=_int_setting(settings, "max_trials"),
            seed=seed,
            wavelet_taps=_int_setting(settings, "taps"),
        )
        for method in methods
    ]

    out_path = Path(args.out if args.out else settings.get("out", "ber.csv"))
    svg_path = out_path.with_suffix(".svg")
    curves = []
    with _replace_on_success(out_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for cfg in configs:
            method = cfg.method
            points = run_monte_carlo(cfg)
            shift = 10.0 * float(np.log10(energy_per_symbol_factor(method, scales)))
            for p in points:
                row = [
                    method,
                    repr(p.snr_db),
                    repr(p.snr_db + shift),
                    repr(p.ber_theory),
                    "" if p.ber_theory_ideal is None else repr(p.ber_theory_ideal),
                    repr(p.ber_sim),
                    p.trials,
                    p.errors,
                    seed,
                ]
                writer.writerow(row)
            curves.append(
                (f"{method} sim", False, [(p.snr_db, p.ber_sim) for p in points])
            )
            curves.append(
                (f"{method} theory", True, [(p.snr_db, p.ber_theory) for p in points])
            )
        # Inside the CSV's block, so a failed SVG write keeps the CSV back too.
        if args.plot:
            with _replace_on_success(svg_path) as svg:
                svg.write(render_ber_svg(curves))

    if args.plot:
        print(f"wrote {out_path} and {svg_path}")
    else:
        print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavemod",
        description="Wavelet-modulation modem simulator and BER lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="print validated wavelet filter taps")
    p.add_argument("--taps", type=int, default=4)
    p.set_defaults(func=cmd_filters)

    for name, func in (("modulate", cmd_modulate), ("demodulate", cmd_demodulate)):
        p = sub.add_parser(name, help=f"{name} a text file through the modem")
        p.add_argument("input", help="newline-delimited input file")
        p.add_argument("--out", required=True)
        p.add_argument("--method", choices=[METHOD1, METHOD2], default=METHOD1)
        p.add_argument("--scales", type=int, default=6)
        p.add_argument("--taps", type=int, default=4)
        if func is cmd_modulate:
            # Detection decides on signs only, so demodulate takes no energy.
            p.add_argument("--energy", type=float, default=1.0)
        p.set_defaults(func=func)

    p = sub.add_parser("ber-sweep", help="run Monte Carlo BER sweeps to CSV/SVG")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--method", dest="method", help="comma-separated subset of wm1,wm2,pam")
    p.add_argument("--scales", type=int)
    p.add_argument("--message-len", dest="message_len", type=int)
    p.add_argument("--snr-grid", dest="snr_grid", help='grid as "a:b:step" or comma list')
    p.add_argument("--min-errors", dest="min_errors", type=int)
    p.add_argument("--max-trials", dest="max_trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--taps", type=int)
    p.add_argument("--energy", type=float)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--plot", action="store_true", help="also emit an SVG next to the CSV")
    p.set_defaults(func=cmd_ber_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
