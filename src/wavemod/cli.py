"""Command-line surface: filter inspection, file modem, BER sweeps.

SETTINGS is the one list of ber-sweep's settings (each config key's flag,
type, default and help); the file modem and filters take defaults from it.

Exit codes: 0 success, 2 configuration error, 3 I/O error or out of memory.
"""

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from wavemod import _helpers
from wavemod.ber import MAX_SNR_POINTS, ExperimentConfig, run_monte_carlo
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filters import make_daubechies, validate_filter_pair
from wavemod.modem import METHOD1, METHOD2, METHODS, Modem
from wavemod.svgplot import render_ber_svg
from wavemod.theory import energy_per_symbol_factor

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

# Config key -> (flag, type, default, help), in the ber-sweep parser's order.
SETTINGS = {
    "methods": ("--method", str, ",".join(METHODS), "comma-separated subset of wm1,wm2,pam"),
    "scales": ("--scales", int, 6, None),
    "message_len": ("--message-len", int, 512, None),
    "snr_grid": ("--snr-grid", str, "-16:9:1", 'grid as "a:b:step" or comma list'),
    "min_errors": ("--min-errors", int, 200, None),
    "max_trials": ("--max-trials", int, 200, None),
    "seed": ("--seed", int, 0, None),
    "taps": ("--taps", int, 4, None),
    "energy": ("--energy", float, 1.0, None),
    "out": ("--out", str, "ber.csv", "CSV output path"),
}


def parse_snr_grid(text: str) -> tuple:
    """Parse "a:b:step" (inclusive endpoints) or a comma-separated list.
    An "a:b:step" grid over MAX_SNR_POINTS is refused before it is built;
    ExperimentConfig refuses a longer list."""
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
        # ExperimentConfig rejects the non-finite points of a list.
        return tuple(float(p) for p in text.split(","))
    except ConfigurationError:
        raise
    except ValueError:
        raise ConfigurationError(
            f"cannot parse SNR grid {text!r}; expected a:b:step or a list of finite values"
        )


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input or config file, without the byte-order
    mark some editors put at its start."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise OSError(f"input file {path} does not exist") from None
    except OSError as exc:
        raise OSError(f"input file {path}: {exc.strerror}") from None
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
        if key not in SETTINGS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


# Fewest lines in a share of the file modem's text. Forking a helper and
# stopping it at exit costs ~1.9 ms, a warm helper's round trip ~12 us, and
# a line ~0.45 us to format and ~0.35 us to parse, against ~0.03 us to ship
# it to a helper and back. A share of 4096 lines thus saves 1.3 to 1.8 ms,
# about the fork's cost: a process that reads or writes one file of two
# such shares breaks even, and a larger file or a second one gains. The
# 512-line bit files and 1024-sample wm1 files stay serial.
MIN_SHARE_LINES = 4096


def _share_count(lines: int) -> int:
    """Shares for a text of this many lines: one per usable CPU, each of at
    least MIN_SHARE_LINES lines, and at least one."""
    return max(1, min(_helpers.usable_cpus(), lines // MIN_SHARE_LINES))


def _text_share(how, piece):
    """One share of the file modem's text, for _helpers.run: a str piece's
    non-blank lines, each stripped and passed to the parser how, as a
    float64 array, filled as it is parsed, with no list of the values in
    between; an array piece formatted with the line format how in one
    %-operation."""
    if isinstance(piece, str):
        lines = filter(None, map(str.strip, piece.splitlines()))
        return np.fromiter(map(how, lines), float)
    return (how * len(piece)) % tuple(piece.tolist())


def _in_shares(how, data, edges: list) -> list:
    """_text_share(how, data[lo:hi]) for each span between consecutive
    edges, in order. Each piece is a share of its own, so _helpers.run runs
    them over the CPUs and sends each helper only its piece."""
    pieces = [[data[lo:hi]] for lo, hi in zip(edges, edges[1:])]
    return _helpers.run(_text_share, how, pieces)


def _parse_lines(text: str, parse) -> np.ndarray:
    """The non-blank lines of text, each stripped and passed to parse, as a
    float64 array; parse's ValueError at the first bad line.

    A text with lines enough for several shares of MIN_SHARE_LINES is cut
    right after the first '\n' at or past each of its k/w points and parsed
    in shares over the CPUs. Under str.splitlines a '\n' always ends a line
    and a '\r\n' stays whole, so the lines of the pieces are the lines of
    the whole. A share that raises stops the helpers (_helpers.run), and
    the next large text forks them again: only a malformed file pays that.
    """
    shares = _share_count(text.count("\n"))
    edges = [0]
    for k in range(1, shares):
        cut = text.find("\n", len(text) * k // shares) + 1
        if edges[-1] < cut < len(text):  # no empty or backward span
            edges.append(cut)
    edges.append(len(text))
    return np.concatenate(_in_shares(parse, text, edges))


def _read_lines(path: Path, kind: str, parse) -> np.ndarray:
    """One value per non-blank line, each stripped and passed to parse, as a
    float64 array, parsed by _parse_lines. A malformed line in any share
    leads to a serial second pass over the whole text that names it."""
    text = _read_text(path)
    try:
        values = _parse_lines(text, parse)
    except ValueError:
        # Only a bad file pays for the second pass that names its line.
        for lineno, raw in enumerate(text.splitlines(), 1):
            try:
                _text_share(parse, raw)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: line {lineno}: malformed {kind}: {raw!r}"
                ) from None
        raise
    if not values.size:
        raise ConfigurationError(f"input file {path} is empty")
    return values


def _write_lines(path: Path, line_format: str, values: np.ndarray):
    """One value per line, written through _replace_on_success, so a failed
    write leaves no partial file. The text is formatted before the output
    is opened, in shares over the CPUs when each gets MIN_SHARE_LINES
    values: each share is one %-operation over a slice of the values, and
    the slices joined in order give the bytes of one %-operation over all."""
    shares = _share_count(len(values))
    edges = [len(values) * k // shares for k in range(shares + 1)]
    pieces = _in_shares(line_format, values, edges)
    with _replace_on_success(path) as handle:
        handle.writelines(pieces)


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
    for name, taps in zip("hg", fp):
        for i, v in enumerate(taps):
            print(f"{name}[{i}] = {v:.17g}")
    return EXIT_OK


def cmd_modulate(args) -> int:
    bits = _read_lines(Path(args.input), "bit", _parse_bit)
    # The modem lives only inside this expression, so its work area is
    # freed before the text is formatted. %.17g round-trips every float64.
    samples = Modem(args.method, args.scales, len(bits), args.taps, args.energy).modulate(bits)
    _write_lines(Path(args.out), "%.17g\n", samples)
    return EXIT_OK


def cmd_demodulate(args) -> int:
    samples = _read_lines(Path(args.input), "sample", float)
    modem = Modem.for_samples(args.method, args.scales, len(samples), args.taps)
    _write_lines(Path(args.out), "%d\n", modem.demodulate(samples))
    return EXIT_OK


def _refuse_directory(path: Path):
    """An output path that names a directory ("", ".", "/" included) is an
    I/O error, raised before any file name is derived from it. A path that
    cannot be examined (a name over the filesystem's limit, say) is left
    to the open of the temporary file, whose error names the output."""
    if os.path.isdir(path):
        raise OSError(f"cannot open output {path}: is a directory")


# Numbers this process's temporary output files, so that two outputs of
# one run (--plot's CSV and SVG) never share a temporary name.
_temporaries = itertools.count()


@contextlib.contextmanager
def _replace_on_success(path: Path):
    """Yield a handle on a temporary file that replaces path if the block
    completes and is deleted if it raises. Opened before the block runs, so
    an output that cannot be written fails before any work is done.

    The temporary file sits in path's directory. Its name is a unique
    prefix (".<pid>.<count>.") and as much of the head of path's name as
    keeps it no longer, in bytes, than path's name: an output name the
    filesystem takes has a temporary name it takes too, and a name it
    refuses fails here."""
    _refuse_directory(path)
    prefix = f".{os.getpid()}.{next(_temporaries)}."
    name = os.fsencode(path.name)
    head = name[: max(0, len(name) - len(prefix))].decode("utf-8", "ignore")
    tmp = path.with_name(prefix + head)
    try:
        handle = tmp.open("w", newline="")
    except OSError as exc:
        # strerror alone: the exception's text names the temporary file.
        raise OSError(f"cannot open output {path}: {exc.strerror}") from None
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _gather_settings(args) -> dict:
    """Each SETTINGS key's value, typed: its flag, else its --config value
    converted by the key's type, else its default."""
    config = read_config_file(Path(args.config)) if args.config else {}
    settings = {}
    for key, (_, kind, default, _) in SETTINGS.items():
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = kind(config[key])
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ConfigurationError(
                    f"config key {key!r}: {config[key]!r} is not {what}"
                ) from None
        settings[key] = default if value is None else value
    return settings


def cmd_ber_sweep(args) -> int:
    settings = _gather_settings(args)
    methods = [m.strip() for m in settings["methods"].split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("config key 'methods': no method given")
    grid = parse_snr_grid(settings["snr_grid"])
    scales, seed = settings["scales"], settings["seed"]
    # Every config is validated before the output is opened, so a bad one
    # leaves no file behind.
    configs = [
        ExperimentConfig(
            Modem(method, scales, settings["message_len"], settings["taps"], settings["energy"]),
            grid, settings["min_errors"], settings["max_trials"], seed,
        )
        for method in methods
    ]

    out_path = Path(settings["out"])
    _refuse_directory(out_path)
    svg_path = out_path.with_suffix(".svg")
    if args.plot and svg_path == out_path:
        raise ConfigurationError(f"--plot writes {svg_path}, so the CSV needs another name")
    curves = []
    # Both outputs are opened before the sweep. The SVG's block ends first,
    # so a failed SVG write keeps the CSV back too.
    plot = _replace_on_success(svg_path) if args.plot else contextlib.nullcontext()
    with _replace_on_success(out_path) as handle, plot as svg:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for cfg in configs:
            method = cfg.modem.method
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
        if svg:
            svg.write(render_ber_svg(curves))

    print(f"wrote {out_path} and {svg_path}" if args.plot else f"wrote {out_path}")
    return EXIT_OK


# This process's parser, built by the first build_parser call.
_parser = None


def _add_setting(parser, key: str, default):
    """Add SETTINGS[key]'s flag to parser, with this default."""
    flag, kind, _, help_text = SETTINGS[key]
    parser.add_argument(flag, dest=key, type=kind, default=default, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every
    later one. Reuse is safe because argparse keeps nothing from one
    parse_args call to the next: each fills a new namespace from the
    defaults, checks the required arguments afresh and writes its errors
    to the sys.stderr of that moment."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="wavemod",
        description="Wavelet-modulation modem simulator and BER lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="print validated wavelet filter taps")
    _add_setting(p, "taps", SETTINGS["taps"][2])

    for name in ("modulate", "demodulate"):
        p = sub.add_parser(name, help=f"{name} a text file through the modem")
        p.add_argument("input", help="newline-delimited input file")
        p.add_argument("--out", required=True)
        p.add_argument("--method", choices=[METHOD1, METHOD2], default=METHOD1)
        # Detection decides on signs only, so demodulate takes no energy.
        for key in ("scales", "taps", "energy") if name == "modulate" else ("scales", "taps"):
            _add_setting(p, key, SETTINGS[key][2])

    p = sub.add_parser("ber-sweep", help="run Monte Carlo BER sweeps to CSV/SVG")
    p.add_argument("--config", help="key=value config file")
    # Default None, so _gather_settings can tell a flag that was not given.
    for key in SETTINGS:
        _add_setting(p, key, None)
    p.add_argument("--plot", action="store_true", help="also emit an SVG next to the CSV")

    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The handler is looked up here on every call, never bound into the
    # parser with set_defaults(func=...): the parser outlives the call, so
    # it would keep the functions of its first call and miss any later
    # replacement of a cmd_* name in this module, a tracer's wrapper or a
    # test's patch.
    handler = {
        "filters": cmd_filters,
        "modulate": cmd_modulate,
        "demodulate": cmd_demodulate,
        "ber-sweep": cmd_ber_sweep,
    }[args.command]
    try:
        return handler(args)
    except (ConfigurationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        # The outputs are written through _replace_on_success: none is left.
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
