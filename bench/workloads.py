"""The three table workloads: their inputs, CLI calls and output checks.

Every check compares the CLI's output with a reference that does not come
from the code under test: the checked-in golden table, SHA-256 digests of
the seed commit's output, and an independent count of regular numbers.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "doubling_seed10_rows30.tsv"

# SHA-256 of `table double --seed 10 --rows N`, recorded from the seed
# commit's output.  An independent generator (exact powers of 2 and 30,
# divide-and-conquer base-60 digits) produced the same bytes at every N.
DOUBLING_SHA = {
    500: "4056f2c00cc647b8bedd2e7caf844668cfd99b05ec1ea3b7ff5a71258694e6d8",
    750: "0ebdff37dbc248894fa8c2205e5aae801730796ee50895d28ccd645d7c9656b1",
    1000: "517efff7d1098d3f1f8a713dfb9ef0760ca4a80c0c543d21705e113caac05c16",
    1500: "20ce38b8b24ae0009ab9897e11375e59eaea93ba903f49fca05e12ad6965d9b5",
    2000: "fab680c13464261a6f46dfd99e63e07bd5ed4ae11b6049071c44248179467043",
    3000: "390a0a3eaf87bdc96d19e70f8b167837a9c33cf6d9ecbe17c389f4d1aa6e4a2b",
}
# SHA-256 of `table standard --limit 10**E`, recorded from the seed commit.
STANDARD_SHA = {
    19: "e7f56b4113cbf3fd31b5903c5d72e8c69c04cd43ab31d8b4bda2a3087b21bbaa",
    24: "d9a8857b2cf9288841d38a0a81bc9dfd5e921abccb6a074d6d03fae443f5d762",
    30: "445b970cf370c8ddbcdc1b38fbdce9c021951d4d7a657daec6a1fb848b32e589",
}
_FINDING = re.compile(r"row (\d+): \w+: ")


class SetupError(Exception):
    """The benchmark cannot run here; it prints no result."""


@dataclass
class Outcome:
    """What one CLI call returned."""

    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Corruption:
    row: int  # the row's true index, which is also its line number
    column: int  # 0 index, 1 value, 2 reciprocal
    label: int  # the index field as it reads after the corruption


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    planted: int = 0
    reported: int = 0


@dataclass
class Case:
    """One run of a workload at one size."""

    calls: list[list[str]]  # CLI argument lists, run in order
    rows: int  # table rows written plus table rows verified
    check: Callable[[list[Outcome]], Verdict]
    # Calls each traced span must see on this input; a mismatch means a
    # caller's lookup of that name escaped the instrumentation.
    span_calls: dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # The size argument of make, ascending: rows for the doubling tables,
    # the exponent of the limit for the standard table.  The last is the
    # measured size; all three feed the traced scaling fit.
    sizes: tuple[int, ...]
    # (size, seed, workdir, run) -> Case.  Only doubling-verify draws its
    # input from the seed; the tables the other two write are fixed.
    make: Callable[..., Case]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_regular(limit: int) -> int:
    """Integers 2**a * 3**b * 5**c in [2, limit], counted without listing them."""
    count = 0
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            count += (limit // p35).bit_length()  # choices of a
            p35 *= 3
        p5 *= 5
    return count - 1  # 1 itself is not in range


def _expect_code(verdict: Verdict, what: str, outcome: Outcome, code: int) -> None:
    if outcome.code != code:
        detail = outcome.stderr.strip().splitlines()[-1:] or [""]
        verdict.problems.append(f"{what} exited {outcome.code}, expected {code} {detail[0]}")


def _check_table_file(verdict: Verdict, path: Path, digest: str, rows: int) -> bytes:
    try:
        data = path.read_bytes()
    except OSError as exc:
        verdict.problems.append(f"no table written: {exc}")
        return b""
    found = data.count(b"\n")
    if found != rows:
        verdict.problems.append(f"{path.name}: {found} rows, expected {rows}")
    if sha256(data) != digest:
        verdict.problems.append(f"{path.name}: SHA-256 differs from the seed commit's")
    return data


# doubling-write ------------------------------------------------------------


def make_doubling_write(rows: int, seed: int, workdir: Path, run) -> Case:
    out = workdir / f"double-{rows}.tsv"
    golden = GOLDEN.read_bytes()
    head_lines = min(rows, golden.count(b"\n"))

    def check(outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        _expect_code(verdict, "table double", outcomes[0], 0)
        data = _check_table_file(verdict, out, DOUBLING_SHA[rows], rows)
        out.unlink(missing_ok=True)
        if data.split(b"\n")[:head_lines] != golden.split(b"\n")[:head_lines]:
            verdict.problems.append(f"first {head_lines} lines differ from {GOLDEN.name}")
        return verdict

    return Case(
        calls=[["table", "double", "--seed", "10", "--rows", str(rows), "-o", str(out)]],
        rows=rows,
        check=check,
        span_calls={"translit.format": 2 * rows, "tables.generate_doubling": 1},
    )


# doubling-verify -----------------------------------------------------------


def plant(text: str, rng: random.Random) -> tuple[str, list[Corruption]]:
    """Change one digit character in one row of every block of ten rows.

    The column is drawn uniformly from all three, index included.  Rows
    picked lie at least three apart, so every finding the verifier reports
    belongs to exactly one corruption.
    """
    lines = text.split("\n")
    rows = len(lines) - 1  # the text ends with a newline
    corruptions = []
    for start in range(0, rows, 10):
        i = start + rng.randrange(min(8, rows - start))
        fields = lines[i].split("\t")
        column = rng.randrange(3)
        cell = fields[column]
        pos = rng.choice([p for p, ch in enumerate(cell) if ch.isdigit()])
        new = rng.choice([d for d in "0123456789" if d != cell[pos]])
        fields[column] = cell[:pos] + new + cell[pos + 1 :]
        lines[i] = "\t".join(fields)
        corruptions.append(Corruption(i + 1, column, int(fields[0])))
    return "\n".join(lines), corruptions


def check_findings(outcome: Outcome, corruptions: list[Corruption]) -> Verdict:
    """Score a `verify --mode doubling` run over a table with planted corruptions.

    A corruption counts as reported when a bad finding names its row.  A
    missed corruption in the value or reciprocal column is a failure: the
    verifier promises to catch those.  A missed one in the index column is
    the known gap and only lowers the detection rate.  A finding for a row
    no corruption can explain is a failure too.
    """
    verdict = Verdict(planted=len(corruptions))
    named = {int(m.group(1)) for m in map(_FINDING.match, outcome.stdout.splitlines()) if m}
    allowed = set()
    for c in corruptions:
        allowed |= {c.row, c.row + 1, c.label}
        if c.row in named:
            verdict.reported += 1
        elif c.column:
            verdict.problems.append(f"corruption in row {c.row}, column {c.column}, not reported")
    if named - allowed:
        verdict.problems.append(f"findings for clean rows {sorted(named - allowed)[:5]}")
    _expect_code(verdict, "verify", outcome, 1 if any(c.column for c in corruptions) else 0)
    if not outcome.stdout.rstrip("\n").rsplit("\n", 1)[-1].startswith("#RESULT ok="):
        verdict.problems.append("verify printed no #RESULT line")
    return verdict


def make_doubling_verify(rows: int, seed: int, workdir: Path, run) -> Case:
    clean = workdir / f"clean-{rows}.tsv"
    made = run(["table", "double", "--seed", "10", "--rows", str(rows), "-o", str(clean)])
    data = clean.read_bytes() if made.code == 0 else b""
    if sha256(data) != DOUBLING_SHA[rows]:
        raise SetupError(f"set-up: the {rows}-row doubling table differs from the seed commit's")
    text, corruptions = plant(data.decode("ascii"), random.Random(f"{seed}:{rows}"))
    path = workdir / f"corrupt-{rows}.tsv"
    path.write_text(text, encoding="ascii", newline="\n")

    def check(outcomes: list[Outcome]) -> Verdict:
        return check_findings(outcomes[0], corruptions)

    return Case(
        calls=[["verify", "--mode", "doubling", str(path)]],
        rows=rows,
        check=check,
        span_calls={"translit.parse": 2 * rows, "tables.verify_table": 1},
    )


# standard-roundtrip --------------------------------------------------------


def make_standard_roundtrip(exponent: int, seed: int, workdir: Path, run) -> Case:
    limit = 10**exponent
    rows = count_regular(limit)
    out = workdir / f"standard-{exponent}.tsv"

    def check(outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        _expect_code(verdict, "table standard", outcomes[0], 0)
        _check_table_file(verdict, out, STANDARD_SHA[exponent], rows)
        _expect_code(verdict, "verify", outcomes[1], 0)
        result = outcomes[1].stdout.splitlines()[-1:]
        if not result or f"ok=true pair_ok={rows} pair_bad=0 " not in result[0]:
            verdict.problems.append(f"verify did not pass all {rows} pairs: {result}")
        out.unlink(missing_ok=True)
        return verdict

    return Case(
        calls=[
            ["table", "standard", "--limit", str(limit), "-o", str(out)],
            ["verify", "--mode", "pairs", str(out)],
        ],
        rows=2 * rows,
        check=check,
        span_calls={
            "translit.format": 2 * rows,
            "translit.parse": 2 * rows,
            "regular.regular_numbers": 1,
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "doubling-write",
            "3000-row doubling table written with -o: 7.9 MB of long numerals, "
            "time almost all in translit.format",
            (750, 1500, 3000),
            make_doubling_write,
        ),
        Workload(
            "doubling-verify",
            "verify --mode doubling of a 2000-row table with seeded one-digit "
            "corruptions in all columns: parse and pair checks, little formatting",
            (500, 1000, 2000),
            make_doubling_verify,
        ),
        Workload(
            "standard-roundtrip",
            "table standard up to 10**30 then verify it: 48,206 rows of short "
            "numbers, so per-call overhead in regular, core and translit dominates",
            (19, 24, 30),
            make_standard_roundtrip,
        ),
    )
}
