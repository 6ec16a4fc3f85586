"""Per-line sample-file reader and per-value formatter: the test oracle for
the CLI's bulk text I/O, which must accept, reject and write exactly what
these do."""

from pathlib import Path

from wavemod.errors import ConfigurationError


def read_lines(path: Path, kind: str, parse):
    if not path.exists():
        raise OSError(f"input file {path} does not exist")
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
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


def format_samples(samples) -> str:
    return "".join(f"{v:.17g}\n" for v in samples)
