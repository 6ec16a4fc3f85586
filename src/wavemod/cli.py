"""Command-line surface: filter inspection, file modem, BER sweeps.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from wavemod import ber
from wavemod.ber import ExperimentConfig, energy_per_symbol_factor, run_monte_carlo
from wavemod.codec import (
    METHOD1,
    METHOD2,
    MessageBlock,
    PlacementSpec,
    place_method1,
    place_method2,
)
from wavemod.detector import detect_block
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filterbank import SampleBlock, analyze_pyramid, synthesize_pyramid
from wavemod.filters import make_daubechies, validate_filter_pair
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


def parse_snr_grid(text: str) -> tuple:
    """Parse "a:b:step" (inclusive endpoints) or a comma-separated list."""
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
                raise ValueError
            n = int(round((hi - lo) / step)) + 1
            return tuple(lo + i * step for i in range(n) if lo + i * step <= hi + 1e-9)
        grid = tuple(float(p) for p in text.split(","))
        if not all(map(math.isfinite, grid)):
            raise ValueError
        return grid
    except ValueError:
        raise ConfigurationError(
            f"cannot parse SNR grid {text!r}; expected a:b:step or a list of finite values"
        )


def read_config_file(path: Path) -> dict:
    """Flat key=value text file; blank lines and # comments allowed."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
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


def _read_lines(path: Path, kind: str, parse):
    if not path.exists():
        raise OSError(f"input file {path} does not exist")
    values = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(parse(line))
        except ValueError:
            raise ConfigurationError(f"{path}: line {lineno}: malformed {kind}: {raw!r}")
    if not values:
        raise ConfigurationError(f"input file {path} is empty")
    return values


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


def _placement(method: str, scales: int, message_len: int) -> PlacementSpec:
    if method == METHOD1:
        factor = 2 ** (scales - 1)
        if message_len % factor != 0:
            raise ConfigurationError(
                f"Method 1 with {scales} scales needs a message length divisible "
                f"by {factor}, got {message_len}"
            )
        return PlacementSpec(method, scales, message_len // factor)
    if method == METHOD2:
        return PlacementSpec(method, scales, message_len)
    raise ConfigurationError(f"modem supports wm1/wm2 only, got {method!r}")


def cmd_modulate(args) -> int:
    bits = np.array(_read_lines(Path(args.input), "bit", _parse_bit))
    _placement(args.method, args.scales, len(bits))  # validates divisibility
    fp = make_daubechies(args.taps)
    place = place_method1 if args.method == METHOD1 else place_method2
    frame = place(MessageBlock(bits, args.energy), args.scales)
    block = synthesize_pyramid(frame, fp)
    Path(args.out).write_text(
        "".join(f"{v:.17g}\n" for v in block.samples)
    )
    return EXIT_OK


def cmd_demodulate(args) -> int:
    samples = np.array(_read_lines(Path(args.input), "sample", float))
    if not np.isfinite(samples).all():
        raise ConfigurationError(f"input file {args.input} has non-finite samples")
    fp = make_daubechies(args.taps)
    if len(samples) % 2**args.scales != 0:
        raise ConfigurationError(
            f"sample count {len(samples)} not divisible by 2^{args.scales}"
        )
    frame = analyze_pyramid(SampleBlock(samples), args.scales, fp)
    if args.method == METHOD1:
        message_len = frame.n0 * 2 ** (args.scales - 1)
    else:
        message_len = frame.n0
    spec = _placement(args.method, args.scales, message_len)
    # Detection depends only on the sign of the copy sums, so unit E0 and
    # noise variance are as good as the true channel values.
    bits = detect_block(frame, spec, 1.0, 1.0)
    Path(args.out).write_text("".join(f"{b}\n" for b in bits))
    return EXIT_OK


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
    for m in methods:
        if m not in ber.METHODS:
            raise ConfigurationError(f"config key 'methods': unknown method {m!r}")
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
    try:
        handle = out_path.open("w", newline="")
    except OSError as exc:
        raise OSError(f"cannot open output {out_path}: {exc}")

    curves = []
    with handle:
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

    if args.plot:
        svg_path = out_path.with_suffix(".svg")
        svg_path.write_text(render_ber_svg(curves))
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
