"""Benchmark of the intersective package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Every pass of a workload runs in fresh interpreters (``worker.py``), one
query after another, as a command-line user pays cold caches on each call.
With ``--trace 0`` passes repeat until ``S`` seconds are spent and the
end-to-end metrics are medians over passes. With ``--trace 1`` one untraced
and one traced pass run, and the per-layer metrics come from the traced one.
``--workload all`` runs every workload in turn.

Answers are checked against ``expected.json``; a query that raises, is
killed at its deadline or answers differently counts as failed. A table of
every metric goes to standard output, and the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import PER_LAYER, layer_metrics, unit_of  # noqa: E402

# Every end-to-end metric and its unit. The result line carries the bounded
# ones (BENCHMARK.json); query_p50_s and failed_frac are shown in the table
# only: on cli-batch the median command is a cold ~10 ms one whose run-to-run
# spread exceeds any allowed bound, and failed_frac is 0 whenever the run is
# correct, which the result line already states as "failed".
UNITS = {"wall_s": "s", "query_p50_s": "s", "query_max_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "failed_frac": "ratio"}
BOUNDED = ("wall_s", "query_max_s", "setup_s", "peak_rss_mb")
# Set-up-only interpreters per run, so that setup_s is a median of several.
SETUP_SAMPLES = 5
# A run must end within 180 s; a process still running at its deadline is killed.
RUN_DEADLINE_S = 160.0
PROCESS_DEADLINE_S = {"spectral-z105": 120.0, "oracle-ladder": 90.0, "cli-batch": 60.0}
# Traced pass's wall time, and its excess over the untraced pass's.
TRACE_TOTALS = ("trace.wall_s", "trace_overhead_frac")
OUT_DIR = ROOT / ".perfbench"


class Pass:
    """Latencies, failures and process figures of one pass over the queries."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.dumps: list[dict] = []
        self.errors: list[str] = []
        self.elapsed = 0.0

    @property
    def timings(self) -> list[float]:
        """Query latencies; a pass whose processes all died counts its elapsed time."""
        return self.latencies or [self.elapsed]

    @property
    def wall(self) -> float:
        return sum(self.timings)


def _check(query: dict, answer: dict, expected: dict) -> str | None:
    """None if the answer matches the recorded one, else what differs."""
    want = expected.get(query["key"])
    if want is None:
        return f"{query['key']}: no recorded answer"
    fields = ("exit", "stdout_sha256") if query["kind"] == "cli" else \
        ("exact", "best_upper", "best_lower", "upper", "lower")
    if all(answer.get(f) == want.get(f) for f in fields):
        return None
    got = json.dumps({f: answer.get(f) for f in fields})
    return f"{query['key']}: got {got[:400]}"


def _spawn(workload: str, seed: int, start: int, stop: int, trace: bool, deadline: float,
           expected: dict, queries: list[dict], into: Pass) -> None:
    """Run queries [start, stop) in one fresh interpreter and add its figures to a pass."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-{seed}-{os.getpid()}-{start}-{stop}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--start", str(start), "--stop", str(stop), "--trace", str(int(trace)),
         "--spawned", repr(spawned), "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    timeout = min(PROCESS_DEADLINE_S[workload], deadline - spawned)
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        stderr = f"killed at its deadline after {timeout:.0f} s"
    finally:
        if proc.returncode is None:  # deadline passed or the benchmark was interrupted
            proc.kill()
            proc.communicate()
    into.elapsed += time.monotonic() - spawned
    into.attempted += stop - start
    if proc.returncode != 0 or not out.is_file():
        into.failed += stop - start
        into.errors.append(f"worker for queries {start}..{stop} failed: {stderr.strip()[-500:]}")
        return
    data = json.loads(out.read_text())
    out.unlink()
    into.setups.append(data["setup_s"])
    into.rss_kb.append(data["rss_kb"])
    if data["trace"] is not None:
        into.dumps.append(data["trace"])
    for query, res in zip(queries[start:stop], data["results"]):
        if "error" in res:
            into.failed += 1
            into.errors.append(f"{query['key']}: {res['error']}")
            continue
        into.latencies.append(res["latency_s"])
        problem = _check(query, res["answer"], expected)
        if problem:
            into.failed += 1
            into.errors.append(problem)


def run_pass(workload: str, seed: int, queries: list[dict], trace: bool, deadline: float,
             expected: dict) -> Pass:
    p = Pass()
    if workload == "cli-batch":
        for i in range(len(queries)):
            _spawn(workload, seed, i, i + 1, trace, deadline, expected, queries, p)
    else:
        _spawn(workload, seed, 0, len(queries), trace, deadline, expected, queries, p)
    return p


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    queries = workloads.queries(workload, seed)
    setup = Pass()
    for _ in range(SETUP_SAMPLES):
        _spawn(workload, seed, 0, 0, False, deadline, expected, queries, setup)

    passes: list[Pass] = []
    if trace:
        passes = [run_pass(workload, seed, queries, False, deadline, expected)]
        traced = run_pass(workload, seed, queries, True, deadline, expected)
    else:
        measuring = time.monotonic()
        while True:
            p = run_pass(workload, seed, queries, False, deadline, expected)
            passes.append(p)
            now = time.monotonic()
            if p.failed or now - measuring + p.elapsed > seconds or now + 2 * p.elapsed > deadline:
                break
        traced = None

    every = [setup] + passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    e2e = {
        "wall_s": statistics.median(p.wall for p in passes),
        "query_p50_s": statistics.median(statistics.median(p.timings) for p in passes),
        "query_max_s": statistics.median(max(p.timings) for p in passes),
        "setup_s": statistics.median([s for p in every for s in p.setups] or [0.0]),
        "peak_rss_mb": max([kb for p in every for kb in p.rss_kb] or [0]) / 1024,
        "failed_frac": failed / attempted,
    }
    result = {"workload": workload, "passes": len(passes), "attempted": attempted,
              "failed": failed, "errors": [e for p in every for e in p.errors], "e2e": e2e}
    if traced is not None:
        layers = layer_metrics(traced.dumps)
        layers["trace.wall_s"] = traced.wall
        layers["trace_overhead_frac"] = traced.wall / e2e["wall_s"] - 1
        result["layers"] = layers
        _write_trace(workload, seed, traced)
    return result


def _write_trace(workload: str, seed: int, traced: Pass) -> None:
    """Keep the traced pass's spans for inspection, one file per workload and seed."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(traced.dumps))


def _print_table(result: dict) -> None:
    print(f"# {result['workload']}: {result['passes']} untraced pass(es), "
          f"{result['attempted']} queries attempted, {result['failed']} failed")
    for name, value in result["e2e"].items():
        print(f"{name:45s} {value:>16.6f} {UNITS[name]}")
    for name, value in result.get("layers", {}).items():
        print(f"{name:45s} {value:>16.6f} {unit_of(name)}")
    for err in result["errors"][:20]:
        print(f"! {err}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "intersective" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'intersective'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), expected)
               for w in names]

    metrics = {}
    for r in results:
        _print_table(r)
        prefix = "" if len(results) == 1 else f"{r['workload']}:"
        if args.trace:
            chosen = {m: (r["layers"][m], unit_of(m)) for m in PER_LAYER + TRACE_TOTALS}
        else:
            chosen = {m: (r["e2e"][m], UNITS[m]) for m in BOUNDED}
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in chosen.items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
