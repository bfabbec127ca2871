"""Work counts from the tracer repeat exactly across runs of the same seed.

    python3 -m pytest perfbench/test_repeat.py

Only a count that repeats exactly can back a later claim about work done,
so each workload's traced pass runs twice and the counts must agree. Takes
about two minutes on a 2-core machine.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

COUNTS = (
    "spectral.count_nonneg_tuples.calls",
    "spectral.count_nonneg_tuples.distinct",
    "spectral.count_nonneg_tuples.multisets",
    "spectral.ball_mul.calls",
    "oracle.max_independent_set.calls",
    "oracle.max_independent_set.nodes",
    "oracle.max_independent_set.vertices",
    "cyclotomic.cyclotomic.calls",
    "cyclotomic.exact_divide.calls",
)


def _traced_counts(workload: str, seed: int) -> dict:
    expected = json.loads((run.HERE / "expected.json").read_text())
    queries = workloads.queries(workload, seed)
    p = run.run_pass(workload, seed, queries, True, time.monotonic() + run.RUN_DEADLINE_S,
                     expected)
    assert p.failed == 0, p.errors
    metrics = layer_metrics(p.dumps)
    return {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first = _traced_counts(workload, seed=7)
    assert any(first.values())
    assert _traced_counts(workload, seed=7) == first


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 5.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None],
             ["d", 6.0, 8.0, 0, 0, None]]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
