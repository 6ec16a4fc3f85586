"""Run Python code in a fresh interpreter that imports wavemod from the same
source tree as the tests."""

import os
import subprocess
import sys
from pathlib import Path

import wavemod


def run(code: str, cwd=None) -> subprocess.CompletedProcess:
    """`python -c code` in cwd; its output is captured as text."""
    env = dict(os.environ, PYTHONPATH=str(Path(wavemod.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
