"""Benchmark of the sexagesimal CLI on three table workloads.

    python3 bench/run.py --workload doubling-write --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

With --trace 0 each workload run calls the CLI as sequential subprocesses,
one at a time (a closed loop with one client), for --seconds seconds, and
reports the end-to-end metrics.  With --trace 1 it calls `cli.main`
in-process on the same inputs, without and then with spans around every
public function of the layer modules, at the three sizes of the workload,
and reports the per-layer metrics.  Every output is checked.  The lines
before the last describe each metric, its sample count and the machine;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run from any directory; the program is
imported from the `src` directory next to this one.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import LAYERS, Tracer, instrument
from workloads import GOLDEN, ROOT, WORKLOADS, Case, Outcome, SetupError, Workload

SRC = ROOT / "src"
CALL_TIMEOUT_S = 60
SETUP_SAMPLES = 21
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sexagesimal.cli as m; "
    "print(time.perf_counter() - t, m.__file__)"
)

# name, unit, better; BENCHMARK.json adds each one's bound
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("peak_rss_kb", "kB", "lower"),
    ("setup_s", "s", "lower"),
)

_WRITE = "wall_s on doubling-write and the table step of standard-roundtrip, not doubling-verify"
_PARSE = "wall_s on doubling-verify and the verify step of standard-roundtrip"
_STANDARD = "wall_s on standard-roundtrip only"
_CORE = "wall_s, most on standard-roundtrip"
_TABLES = "peak_rss_kb and wall_s on the doubling workloads"
_SUM = "wall_s on every workload; the five layer self times add up to trace.total_s"
# name, unit, better, and the end-to-end metric it should move, on which workload
PER_LAYER = (
    ("translit.format.s", "s", "lower", _WRITE),
    ("translit.format.calls", "count", "lower", _WRITE),
    ("translit.format.chars", "chars", "lower", _WRITE),
    ("translit.parse.s", "s", "lower", _PARSE),
    ("translit.parse.calls", "count", "lower", _PARSE),
    ("translit.parse.chars", "chars", "lower", _PARSE),
    ("translit.to_number.s", "s", "lower", "wall_s on doubling-verify"),
    ("translit.to_number.digits", "digits", "lower", "wall_s on doubling-verify"),
    ("regular.is_reciprocal_pair.s", "s", "lower",
     "wall_s on doubling-verify; runs twice per row on standard-roundtrip"),
    ("regular.is_reciprocal_pair.calls", "count", "lower",
     "wall_s on doubling-verify; runs twice per row on standard-roundtrip"),
    ("regular.factor235.s", "s", "lower", _STANDARD),
    ("regular.factor235.calls", "count", "lower", _STANDARD),
    ("regular.reciprocal.s", "s", "lower", _STANDARD),
    ("regular.reciprocal.calls", "count", "lower", _STANDARD),
    ("regular.regular_numbers.s", "s", "lower", _STANDARD),
    ("regular.regular_numbers.calls", "count", "lower", _STANDARD),
    ("core.SexNumber.s", "s", "lower", _CORE),
    ("core.SexNumber.calls", "count", "lower", _CORE),
    ("core.FloatingSex.s", "s", "lower", _CORE),
    ("core.FloatingSex.calls", "count", "lower", _CORE),
    ("tables.generate_doubling.s", "s", "lower", _TABLES),
    ("tables.generate_standard.s", "s", "lower", _TABLES),
    ("tables.parse_tsv.s", "s", "lower", _TABLES),
    ("tables.doubling_table_tsv.self_s", "s", "lower", _TABLES),
    ("tables.standard_table_tsv.self_s", "s", "lower", _TABLES),
    ("tables.verify_table.self_s", "s", "lower", _TABLES),
    ("tables.verify_table.bad_findings", "count", "higher", "detection_rate on doubling-verify"),
    ("cli.self_s", "s", "lower", _TABLES),
    ("cli.bytes_in", "bytes", "lower", _TABLES),
    ("cli.bytes_out", "bytes", "lower", _TABLES),
    ("tables.self_s", "s", "lower", _SUM),
    ("translit.self_s", "s", "lower", _SUM),
    ("regular.self_s", "s", "lower", _SUM),
    ("core.self_s", "s", "lower", _SUM),
    *((f"{layer}.exp", "1", "lower", "how wall_s grows with rows, fitted over three sizes")
      for layer in LAYERS),
    ("trace.total_s", "s", "lower", "traced in-process time of the workload's CLI calls"),
    ("trace.untraced_s", "s", "lower", "untraced in-process time of the same calls"),
    ("trace.overhead_s", "s", "lower",
     "none: the cost of the spans, traced minus untraced total in each round"),
)


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Subprocesses:
    """Runs CLI calls as child processes, one at a time."""

    def __init__(self, workdir: Path, program: list[str] | None = None) -> None:
        self.workdir = workdir
        self.program = program or [sys.executable, "-m", "sexagesimal"]
        self.env = _child_env()

    def call(self, argv: list[str]) -> tuple[Outcome, float, int]:
        """One CLI call: its outcome, wall time and peak RSS in kB."""
        out, err = self.workdir / "call.out", self.workdir / "call.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        args = [*self.program, *argv]
        start = time.perf_counter()
        pid = os.posix_spawnp(args[0], args, self.env, file_actions=actions)
        watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no child running
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        outcome = Outcome(
            os.waitstatus_to_exitcode(status),
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
        )
        return outcome, wall, usage.ru_maxrss

    def __call__(self, argv: list[str]) -> Outcome:
        return self.call(argv)[0]


def check_layout() -> None:
    for needed in (SRC / "sexagesimal" / "cli.py", GOLDEN):
        if not needed.is_file():
            raise SetupError(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")


def import_times(samples: int) -> list[float]:
    """Seconds a fresh interpreter takes to import sexagesimal.cli."""
    times = []
    for _ in range(samples + 1):  # the first one writes the bytecode caches
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=_child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
        if probe.returncode != 0:
            raise SetupError(f"importing sexagesimal.cli failed: {probe.stderr.strip()}")
        seconds, path = probe.stdout.strip().split(" ", 1)
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"sexagesimal was imported from {path}, not from {SRC}")
        times.append(float(seconds))
    return times[1:]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"; q1 {q1:.6g}, q3 {q3:.6g}"


def measure_cli(workload: Workload, seed: int, seconds: float, workdir: Path,
                program: list[str] | None = None) -> dict:
    """Untraced: time the workload's CLI calls as subprocesses."""
    setup = import_times(SETUP_SAMPLES)
    cli = Subprocesses(workdir, program)
    case = workload.make(workload.sizes[-1], seed, workdir, cli)
    walls, rss, problems, detection = [], [], [], None
    failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        outcomes, wall, peak = [], 0.0, 0
        for argv in case.calls:
            outcome, seconds_taken, maxrss = cli.call(argv)
            outcomes.append(outcome)
            wall += seconds_taken
            peak = max(peak, maxrss)
        verdict = case.check(outcomes)
        if verdict.planted:
            if detection is None:
                detection = (verdict.reported, verdict.planted)
            elif detection != (verdict.reported, verdict.planted):
                verdict.problems.append(f"detection changed between runs: {detection}")
        if verdict.problems:
            failed += 1
            problems.extend(verdict.problems)
        walls.append(wall)
        rss.append(peak)
    wall_s = statistics.median(walls)
    values = {
        "wall_s": (wall_s, walls),
        "rows_per_s": (case.rows / wall_s, [case.rows / w for w in walls]),
        "peak_rss_kb": (statistics.median(rss), rss),
        "setup_s": (statistics.median(setup), setup),
    }
    lines = [
        f"{name:<16} {values[name][0]:.6g} {unit}  (median of {len(values[name][1])}"
        f"{_quartiles(values[name][1])})"
        for name, unit, _ in END_TO_END
    ]
    lines.append(f"{'failed_share':<16} {failed / len(walls):.6g}  ({failed} of {len(walls)} runs)")
    if detection:
        lines.append(
            f"{'detection_rate':<16} {detection[0] / detection[1]:.6g}"
            f"  ({detection[0]} of {detection[1]} planted corruptions reported)"
        )
    return {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "lines": lines,
        "metrics": {name: (values[name][0], unit) for name, unit, _ in END_TO_END},
    }


def run_in_process(package, calls: list[list[str]]) -> tuple[float, list[Outcome]]:
    """Call cli.main on each argument list; the summed time and the outcomes."""
    total, outcomes = 0.0, []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = package.cli.main(argv)
            total += time.perf_counter() - start
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue()))
    return total, outcomes


def _span_problems(tracer: Tracer, case: Case) -> list[str]:
    problems = [
        f"{name} ran {tracer.stats[name].calls} times, the input needs {calls}"
        for name, calls in {**case.span_calls, "cli.main": len(case.calls)}.items()
        if tracer.stats[name].calls != calls
    ]
    spans = sum(stat.calls for stat in tracer.stats.values())
    self_sum = sum(tracer.self_by_layer().values())
    if abs(self_sum - tracer.total_s) > 1e-6 + 1e-9 * spans:
        problems.append(f"self times add up to {self_sum} s, the root spans to {tracer.total_s} s")
    return problems


def _layer_value(name: str, tracer: Tracer, busy: dict[str, float]) -> float:
    if name == "cli.bytes_in":
        return tracer.bytes_in
    if name == "cli.bytes_out":
        return tracer.bytes_out
    span, field = name.rsplit(".", 1)
    if span in busy:
        return busy[span]
    stat = tracer.stats[span]
    return {"s": stat.s, "self_s": stat.self_s, "calls": stat.calls}.get(field, stat.count)


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path, package) -> dict:
    """Traced: per-layer numbers from in-process calls at the workload's three sizes."""
    cli = Subprocesses(workdir)
    cases = [workload.make(size, seed, workdir, cli) for size in workload.sizes]
    full = cases[-1]
    samples: dict[str, list[float]] = {name: [] for name, *_ in PER_LAYER}
    busy_by_size: list[list[dict[str, float]]] = [[] for _ in cases]
    attempted = failed = 0
    problems: list[str] = []

    def attempt(case: Case, traced: bool):
        nonlocal attempted, failed
        tracer = Tracer()
        if traced:
            with instrument(tracer, package):
                total, outcomes = run_in_process(package, case.calls)
            tracer.bytes_out += sum(len(o.stdout.encode("utf-8")) for o in outcomes)
        else:
            total, outcomes = run_in_process(package, case.calls)
        found = case.check(outcomes).problems + (_span_problems(tracer, case) if traced else [])
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
        return total, tracer

    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so drift in machine speed hits both alike.
        for traced in (False, True) if rounds % 2 == 0 else (True, False):
            if not traced:
                samples["trace.untraced_s"].append(attempt(full, False)[0])
                continue
            for per_size, case in zip(busy_by_size, cases):
                tracer = attempt(case, True)[1]
                busy = tracer.self_by_layer()
                per_size.append(busy)
                if case is full:
                    for name, *_ in PER_LAYER:
                        if not name.endswith(".exp") and not name.startswith("trace."):
                            samples[name].append(_layer_value(name, tracer, busy))
                    samples["trace.total_s"].append(tracer.total_s)
        # Paired within the round, so slow drift in machine speed cancels.
        samples["trace.overhead_s"].append(
            samples["trace.total_s"][-1] - samples["trace.untraced_s"][-1]
        )
        rounds += 1
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    for layer in LAYERS:
        values[f"{layer}.exp"] = _slope(
            [case.rows for case in cases],
            [statistics.median(b[layer] for b in per_size) for per_size in busy_by_size],
        )
    lines = [
        f"{name:<34} {values[name]:<12.6g} {unit:<6} moves: {moves}"
        for name, unit, _, moves in PER_LAYER
    ]
    lines.append(
        f"layer self times sum to {sum(values[f'{layer}.self_s'] for layer in LAYERS):.6g} s"
        f" (medians; per call they equal the root span exactly); rounds {rounds};"
        f" rows at the three sizes {[case.rows for case in cases]}"
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "lines": lines,
        "metrics": {name: (values[name], unit) for name, unit, *_ in PER_LAYER},
    }


def load_package():
    sys.path.insert(0, str(SRC))
    import sexagesimal
    import sexagesimal.cli  # noqa: F401  (binds the submodule on the package)

    if not Path(sexagesimal.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"sexagesimal was imported from {sexagesimal.__file__}, not from {SRC}")
    return sexagesimal


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"env: python {platform.python_version()}, nproc {os.cpu_count()}, loadavg {load}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # On SIGTERM unwind normally, so children are reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    results = {}
    try:
        check_layout()
        package = load_package() if args.trace else None
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            for name in names:
                print(f"workload {name}, seed {args.seed}, trace {args.trace}; {environment()}")
                workdir = Path(tmp) / name
                workdir.mkdir()
                workload = WORKLOADS[name]
                if args.trace:
                    result = measure_traced(workload, args.seed, args.seconds, workdir, package)
                else:
                    result = measure_cli(workload, args.seed, args.seconds, workdir)
                print("\n".join(result["lines"]))
                for problem in dict.fromkeys(result["problems"]):
                    print(f"FAILED: {problem}")
                print(f"after: {environment()}")
                results[name] = result
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = len(names) > 1
    summary = {
        "correct": all(not r["failed"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
