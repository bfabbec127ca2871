"""The paired-benchmark summary of tools/bench_pairs.py, on canned run.py result lines."""

import importlib.util
import json
import subprocess
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(query_max, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"query_max_s": {"value": query_max, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_result_line_is_the_last_json_line():
    out = "# table\nwall_s 0.1 s\n" + json.dumps(_line(0.05, 20.0)) + "\n\n"
    assert bench_pairs.result_line(out) == _line(0.05, 20.0)


def test_summary_medians_quartiles_and_wins():
    base = [0.050, 0.053, 0.049, 0.055, 0.051]
    change = [0.033, 0.031, 0.050, 0.034, 0.052]
    pairs = [(_line(b, 22.0), _line(c, 22.0 + i)) for i, (b, c) in enumerate(zip(base, change))]
    s = bench_pairs.summarize(pairs, {"query_max_s": "lower"})
    q = s["metrics"]["query_max_s"]
    assert s["pairs"] == 5 and s["correct"] == {"base": True, "change": True}
    assert (q["base"]["q1"], q["base"]["median"], q["base"]["q3"]) == (0.050, 0.051, 0.053)
    assert (q["change"]["q1"], q["change"]["median"], q["change"]["q3"]) == (0.033, 0.034, 0.050)
    assert q["change_wins"] == 3  # 0.050 > 0.049 and 0.052 < 0.055: the last pair is a win
    assert q["unit"] == "s" and q["better"] == "lower"
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0  # equal or worse is no win
    assert rss["base"]["median"] == 22.0 and rss["change"]["median"] == 24.0


def test_summary_honours_direction_and_failures():
    pairs = [(_line(1.0, 10.0), _line(2.0, 10.0, correct=False, failed=1))]
    s = bench_pairs.summarize(pairs, {"query_max_s": "higher"})
    assert s["metrics"]["query_max_s"]["change_wins"] == 1
    assert s["metrics"]["query_max_s"]["change"]["q1"] == 2.0
    assert s["correct"] == {"base": True, "change": False}
    assert s["failed"] == {"base": 0, "change": 1}


TIGHT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]


@pytest.mark.parametrize("base,change,expected", [
    (TIGHT, [0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.81, 0.80, 0.79, 1.05], "gain"),  # 9/10 wins
    (TIGHT, [1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.31], "worse"),
    ([0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0],
     [1.0, 0.9, 1.1, 1.0, 1.2, 0.8, 1.3, 0.7, 1.0, 1.0], "unresolved"),
    (TIGHT, [1.05, 1.04, 1.06, 1.05, 1.03, 1.05, 1.04, 1.06, 1.05, 1.04], "no worse"),
    # a base too wide to resolve, but every change run beats every base run
    ([1.0] * 5 + [3.0] * 5, [0.9] * 10, "no worse"),
])
def test_summary_verdict(base, change, expected):
    pairs = [(_line(b, 22.0), _line(c, 22.0)) for b, c in zip(base, change)]
    s = bench_pairs.summarize(pairs, {"query_max_s": "lower"}, {"query_max_s": 0.25})
    assert s["metrics"]["query_max_s"]["verdict"] == expected
    assert s["metrics"]["peak_rss_mb"]["verdict"] == "no worse"  # no bound given, all ties


@pytest.mark.parametrize("text,seeds", [("701-704", [701, 702, 703, 704]), ("3,5,8", [3, 5, 8])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_each_run_gets_a_fresh_copy_of_the_tracked_files(monkeypatch, tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("committed\n")
    (checkout / "gone.txt").write_text("tracked, then deleted\n")
    real_run = subprocess.run
    real_run(["git", "init", "-q", str(checkout)], check=True)
    real_run(["git", "-C", str(checkout), "add", "perfbench/run.py", "gone.txt"], check=True)
    (checkout / "perfbench" / "run.py").write_text("uncommitted\n")
    (checkout / "gone.txt").unlink()
    (checkout / "untracked.txt").write_text("left behind\n")
    (checkout / "perfbench" / "__pycache__").mkdir()
    (checkout / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"stale")
    seen = []

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return real_run(argv, **kwargs)
        cwd = Path(kwargs["cwd"])
        files = sorted(str(f.relative_to(cwd)) for f in cwd.rglob("*") if f.is_file())
        seen.append((cwd, files, (cwd / "perfbench" / "run.py").read_text(), kwargs.get("env")))
        return types.SimpleNamespace(stdout=json.dumps(_line(0.05, 20.0)) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for _ in range(2):
        assert bench_pairs.run_once(checkout, "spectral-z105", 1, 1.0) == _line(0.05, 20.0)
    (first, files, text, env), (second, _, _, _) = seen
    assert first != second and checkout not in (first, second)
    assert files == ["perfbench/run.py"] and text == "uncommitted\n" and env is None
    assert not first.exists() and not second.exists()  # removed after the run


@pytest.mark.parametrize("side", ["--base", "--change"])
def test_a_checkout_outside_git_is_refused_before_any_run(monkeypatch, tmp_path, capsys, side):
    work_tree, plain = tmp_path / "work_tree", tmp_path / "plain"
    plain.mkdir()
    subprocess.run(["git", "init", "-q", str(work_tree)], check=True)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    paths = {"--base": work_tree, "--change": work_tree, side: plain}
    argv = [a for flag, path in paths.items() for a in (flag, str(path))]
    assert bench_pairs.main(argv + ["--workload", "oracle-ladder", "--seeds", "1",
                                    "--label", "refused"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {plain.resolve()} is not a git work tree"]
    assert not Path("BENCH_refused.json").exists()
