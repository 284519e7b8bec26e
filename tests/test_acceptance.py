"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report
lines.  Every tolerance is exact; the timed criteria also assert their
runtime budgets.
"""

import random
import time

from conftest import division_terminates, run_child, run_cli, valuation

from sexagesimal import translit
from sexagesimal.core import FloatingSex
from sexagesimal.regular import is_regular, reciprocal
from sexagesimal.tables import generate_doubling


def report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_golden_table(golden_text):
    start = time.perf_counter()
    code, out, _ = run_child("table", "double", "--seed", "10", "--rows", "30")
    elapsed = time.perf_counter() - start
    ok = code == 0 and out == golden_text.encode() and elapsed < 1.0
    report(
        1,
        "doubling table from seed 10 reproduces the 30-row transcription byte-for-byte",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_division_episode():
    code, out, err = run_cli("recip", "40,51")
    recip_ok = code == 1 and "817" in err and "19*43" in err
    code, out, err = run_cli("solve", "40,51", "10,12;45")
    solve_ok = code == 0 and out.splitlines()[0] == "0;15"
    report(
        2,
        "recip 40,51 exits 1 naming residue 817 = 19*43 and solve prints exactly 0;15",
        recip_ok and solve_ok,
    )


def test_criterion_3_reciprocal_pair_property():
    rng = random.Random(60)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        a, b, c = (rng.randint(0, 20) for _ in range(3))
        x = FloatingSex(2**a * 3**b * 5**c)
        r = reciprocal(x)
        if valuation(x.mantissa * r.mantissa, 60)[0] != 1 or reciprocal(r) != x:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    report(
        3,
        "1000 seeded regular mantissas: pair product is a power of 60, reciprocal is an involution",
        ok,
        f"{failures} failures, {elapsed:.3f}s",
    )


def test_criterion_4_regularity_oracle():
    start = time.perf_counter()
    disagreements = [
        n for n in range(1, 10001) if is_regular(n) != division_terminates(n)
    ]
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 10.0
    report(
        4,
        "is_regular agrees with the long-division termination oracle on [1, 10000]",
        ok,
        f"{len(disagreements)} disagreements, {elapsed:.3f}s",
    )


def test_criterion_5_halving_matches_direct_reciprocals():
    table = generate_doubling(10, 30)
    mismatches = [
        row.index
        for row in table
        if row.reciprocal.to_floating() != reciprocal(row.value)
    ]
    report(
        5,
        "all 30 halved reciprocals equal the directly computed reciprocals as floating values",
        not mismatches,
        f"rows off: {mismatches}" if mismatches else "30/30",
    )


def test_criterion_6_round_trips(golden_rows):
    strings = [("40,51", "absolute"), ("10,12;45", "absolute"), ("0;15", "absolute")]
    for _, value_text, reciprocal_text in golden_rows:
        strings.append((value_text, "floating"))
        strings.append((reciprocal_text, "absolute"))
    bad = [
        text
        for text, mode in strings
        if translit.format(translit.to_number(translit.parse(text), mode)) != text
    ]
    report(
        6,
        "all 60 table strings plus the three division-example strings round-trip exactly",
        not bad,
        f"{len(strings)} strings",
    )


def _flip(digit_text: str) -> str:
    return str((int(digit_text) + 1) % 60)


def _corruptions_of(line: str):
    """Every single-digit flip of either numeral column, one at a time."""
    index, value, reciprocal_text = line.split("\t")
    value_digits = value.split(",")
    for i in range(len(value_digits)):
        corrupted = value_digits.copy()
        corrupted[i] = _flip(corrupted[i])
        yield index, ",".join(corrupted), reciprocal_text
    whole, _, frac = reciprocal_text.partition(";")
    frac_digits = frac.split(",") if frac else []
    yield index, value, f"{_flip(whole)};{frac}" if frac else _flip(whole)
    for i in range(len(frac_digits)):
        corrupted = frac_digits.copy()
        corrupted[i] = _flip(corrupted[i])
        yield index, value, f"{whole};{','.join(corrupted)}"


def test_criterion_7_single_digit_corruption_is_always_caught(tmp_path, golden_text):
    lines = golden_text.splitlines()
    target = tmp_path / "corrupt.tsv"
    tried = 0
    missed = []
    for row_number, line in enumerate(lines):
        for corrupt_row in _corruptions_of(line):
            tried += 1
            patched = list(lines)
            patched[row_number] = "\t".join(corrupt_row)
            target.write_text("".join(l + "\n" for l in patched), encoding="utf-8")
            code, out, _ = run_cli("verify", str(target), "--mode", "doubling")
            named = f"row {corrupt_row[0]}: " in out
            if code == 0 or not named:
                missed.append((corrupt_row[0], corrupt_row[1], corrupt_row[2]))
    report(
        7,
        "every single-digit flip in the golden table is caught and named by verify",
        not missed,
        f"{tried} corruptions tried",
    )
