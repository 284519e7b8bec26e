"""Self-tests of the benchmark at small sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import Tracer, instrument
from workloads import (
    ROOT,
    WORKLOADS,
    Outcome,
    count_regular,
    make_doubling_verify,
    make_doubling_write,
    make_standard_roundtrip,
)

FAIL = [sys.executable, "-c", "import sys; sys.exit(3)"]


def small(name: str, *sizes: int):
    return replace(WORKLOADS[name], sizes=sizes)


@pytest.fixture
def cli(tmp_path):
    return run.Subprocesses(tmp_path)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        metric[:3] for metric in run.PER_LAYER
    ]


def test_regular_count_agrees_with_brute_force():
    def regular(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    assert count_regular(5000) == sum(regular(n) for n in range(2, 5001))
    assert count_regular(10**30) == 48206


def test_doubling_write_passes_and_a_wrong_output_fails(tmp_path, cli):
    case = make_doubling_write(500, 1, tmp_path, cli)
    assert case.check([cli(argv) for argv in case.calls]).problems == []
    outcomes = [cli(argv) for argv in case.calls]
    out = Path(case.calls[0][-1])
    out.write_bytes(out.read_bytes().replace(b"0;6", b"0;7", 1))
    problems = case.check(outcomes).problems
    assert any("SHA-256" in p for p in problems)
    assert any("first 30 lines" in p for p in problems)


def test_standard_roundtrip_without_output_fails(tmp_path):
    case = make_standard_roundtrip(19, 1, tmp_path, None)
    assert case.rows == 2 * 12760
    problems = case.check([Outcome(0, "", ""), Outcome(0, "", "")]).problems
    assert any("no table written" in p for p in problems)
    assert any("did not pass" in p for p in problems)


def test_missed_corruption_and_clean_row_findings_fail(tmp_path, cli):
    case = make_doubling_verify(500, 7, tmp_path, cli)
    outcome = cli(case.calls[0])
    verdict = case.check([outcome])
    assert verdict.problems == []
    assert verdict.planted == 50
    # Seed 7 puts some corruptions in the index column, which the verifier
    # does not read; they lower the detection rate without failing the run.
    assert 0 < verdict.reported < verdict.planted

    lines = outcome.stdout.splitlines()
    first = lines[0].split(":")[0]  # "row N", a value or reciprocal corruption
    missed = Outcome(outcome.code, "\n".join(l for l in lines if not l.startswith(first + ":")), "")
    assert any("not reported" in p for p in case.check([missed]).problems)

    extra = Outcome(outcome.code, "row 499999: PAIR_BAD: x\n" + outcome.stdout, "")
    assert any("clean rows" in p for p in case.check([extra]).problems)


def test_nonzero_exit_counts_as_failure(tmp_path):
    result = run.measure_cli(small("doubling-write", 500), 1, 0, tmp_path, FAIL)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert any("exited 3" in p for p in result["problems"])


def test_untraced_run_at_small_size(tmp_path):
    result = run.measure_cli(small("standard-roundtrip", 19), 1, 0, tmp_path)
    assert (result["failed"], result["problems"]) == (0, [])
    assert set(result["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize(
    "workload",
    [small("doubling-write", 500, 750), small("doubling-verify", 500, 1000),
     small("standard-roundtrip", 19, 24)],
    ids=lambda w: w.name,
)
def test_traced_run_at_small_size(tmp_path, workload):
    result = run.measure_traced(workload, 3, 0, tmp_path, run.load_package())
    assert (result["failed"], result["problems"]) == (0, [])
    assert set(result["metrics"]) == {name for name, *_ in run.PER_LAYER}


def test_span_count_mismatch_fails_the_traced_run(tmp_path):
    case = make_doubling_write(500, 1, tmp_path, None)
    problems = run._span_problems(Tracer(), case)
    assert any("translit.format ran 0 times" in p for p in problems)


def test_instrument_wraps_names_where_callers_look_them_up_and_restores_them():
    package = run.load_package()
    imported = {name: getattr(package.tables, name) for name in ("invert", "regular_numbers")}
    init = package.core.SexNumber.__init__
    tracer = Tracer()
    with instrument(tracer, package):
        package.tables.generate_standard(100)
    assert tracer.stats["regular.regular_numbers"].calls == 1
    assert tracer.stats["regular.is_reciprocal_pair"].calls == 33  # from ReciprocalPair
    assert all(getattr(package.tables, name) is f for name, f in imported.items())
    assert package.core.SexNumber.__init__ is init
    assert not hasattr(package.cli, "open")


def test_incomplete_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "doubling-write", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
