from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_TSV = DATA_DIR / "doubling_seed10_rows30.tsv"
SRC = Path(__file__).parent.parent / "src"
# Every child process imports the package from src/, installed or not.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    from sexagesimal.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def start_child(*argv: str, script: str | None = None, **popen) -> subprocess.Popen:
    """Start ``python -m sexagesimal *argv``, or ``python -c script *argv``, as a
    child process; keyword arguments go to ``subprocess.Popen``."""
    program = ["-m", "sexagesimal"] if script is None else ["-c", script]
    return subprocess.Popen([sys.executable, *program, *argv], env=CHILD_ENV, **popen)


def run_child(
    *argv: str, input: bytes = b"", script: str | None = None
) -> tuple[int, bytes, bytes]:
    """Run a child process as ``start_child`` does to its end, with ``input`` written
    to a pipe on its stdin; returns (exit code, stdout, stderr) as bytes."""
    pipe = subprocess.PIPE
    with start_child(*argv, script=script, stdin=pipe, stdout=pipe, stderr=pipe) as child:
        out, err = child.communicate(input)
    return child.returncode, out, err


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture(scope="session")
def golden_text() -> str:
    return GOLDEN_TSV.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_rows(golden_text: str) -> list[tuple[int, str, str]]:
    rows = []
    for line in golden_text.splitlines():
        index, value, reciprocal = line.split("\t")
        rows.append((int(index), value, reciprocal))
    return rows
