"""One fresh interpreter of a benchmark pass: import, build inputs, run queries.

Usage (started by run.py, one process per pass or per CLI command):

    python3 perfbench/worker.py --workload W --seed S --start I --stop J \
        --trace 0|1 --spawned T --out FILE

Runs queries ``[I, J)`` of the workload one after another and writes their
latencies and answers to ``FILE``; ``I == J`` measures set-up only. ``T`` is
the parent's ``time.monotonic()`` just before the spawn, a system-wide clock,
so set-up time counts interpreter start-up. The answers are checked by the
parent against ``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import intersective
    import intersective.cli
    import intersective.engine

    if not Path(intersective.__file__).resolve().is_relative_to(src):
        raise ImportError(f"intersective imported from {intersective.__file__}, not {src}")
    return intersective


def prepare(pkg, query: dict) -> tuple:
    """The query's arguments, built in advance so that set-up includes them."""
    if query["kind"] == "cli":
        return (list(query["argv"]),), {}
    G = pkg.abelian.GroupSpec(tuple(query["group"]))
    J = [tuple(j) for j in query["J"]]
    return (G, J, query["N"]), {"oracle_timeout": query["timeout"]}


def bounds_answer(report) -> dict:
    """Every value a report carries; element parameters and notes are left out."""
    def by_method(entries):
        out: dict[str, list[int]] = {}
        for e in entries:
            out.setdefault(e.method, []).append(e.value)
        return {m: sorted(v) for m, v in sorted(out.items())}

    return {"exact": report.exact, "best_upper": report.best_upper,
            "best_lower": report.best_lower, "upper": by_method(report.upper),
            "lower": by_method(report.lower)}


def cli_answer(code, stdout: str) -> dict:
    data = stdout.encode()
    return {"exit": code, "stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout": stdout}


def run_query(pkg, query: dict, prepared: tuple) -> tuple[float, dict]:
    """(latency in seconds, answer) of one query; only the call itself is timed.

    The function is looked up at call time, so a tracer installed after
    set-up sees the call.
    """
    args, kwargs = prepared
    if query["kind"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = pkg.cli.main(*args, **kwargs)
            latency = time.perf_counter() - t0
        return latency, cli_answer(code, buf.getvalue())
    t0 = time.perf_counter()
    report = pkg.engine.best_bounds(*args, **kwargs)
    latency = time.perf_counter() - t0
    return latency, bounds_answer(report)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    pkg = import_package()
    queries = workloads.queries(args.workload, args.seed)[args.start:args.stop]
    prepared = [prepare(pkg, q) for q in queries]
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    for i, (query, prep) in enumerate(zip(queries, prepared)):
        try:
            if tracer is None:
                latency, answer = run_query(pkg, query, prep)
            else:
                tracer.query = args.start + i
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    latency, answer = run_query(pkg, query, prep)
                for w in caught:
                    tracer.note_warning(w.message)
            results.append({"latency_s": latency, "answer": answer})
        except Exception as exc:  # a failed query is reported, the pass goes on
            results.append({"error": f"{type(exc).__name__}: {exc}"})

    out = {"setup_s": setup_s,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "results": results,
           "trace": None if tracer is None else tracer.dump()}
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
