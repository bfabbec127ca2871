"""Paired benchmark of two checkouts: alternate them over seeds, summarise every metric.

    python3 tools/bench_pairs.py --base PATH --change PATH --workload spectral-z105 \\
        --seeds 701-710 --seconds 10 --label NAME

For each seed, ``perfbench/run.py`` runs once for each checkout (end-to-end
metrics, ``--trace 0``). The base runs first on the first seed, the change
on the second, and so on, so drift of the machine falls on both sides alike.
Each run starts in a fresh temporary copy of its checkout's tracked files
(``git ls-files``, with their working-tree contents, so an uncommitted change
is measured), which holds no ``__pycache__``, and is removed after the run.
The environment is left as it is, so a run measures what ``perfbench/run.py``
measures when started alone in a new checkout. The last line a run prints
is its result line. The summary is written to
``BENCH_<label>.json`` in the current directory: each side's commit, the CPU
model and count, how bytecode was handled, and for every metric each side's
median and quartiles, the number of pairs the change won, and a verdict
(see ``verdict``). Whether lower or higher wins, and each metric's bound as a
fraction of the base's median, come from the change's ``BENCHMARK.json``
(lower, and no bound, when it names none). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'701-710' or '3,5,8'."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def result_line(stdout: str) -> dict:
    """The JSON object on the last nonempty line of a run.py output."""
    return json.loads([line for line in stdout.splitlines() if line.strip()][-1])


def _spread(values: list[float]) -> dict:
    """Median and quartiles; quartiles by the inclusive method, so they stay inside the data."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(b: dict, c: dict, wins: int, lower: bool, bound: float | None) -> str:
    """One of 'gain', 'worse', 'unresolved' and 'no worse', checked in that order.

    gain: the change won at least 9 in 10 pairs, and its median is better
    than the base's by more than the base's interquartile range. worse: the
    change's median is worse than the base's by more than bound times the
    base's median. unresolved: the base's interquartile range is wider than
    that same margin, unless every change run beats every base run. A metric
    without a bound is never worse or unresolved. b and c are the base's
    and the change's spreads.
    """
    sign = 1 if lower else -1
    iqr = b["q3"] - b["q1"]
    if 10 * wins >= 9 * len(b["runs"]) and sign * (b["median"] - c["median"]) > iqr:
        return "gain"
    if bound is None:
        return "no worse"
    margin = bound * abs(b["median"])
    if sign * (c["median"] - b["median"]) > margin:
        return "worse"
    if iqr > margin and not all(sign * (y - x) > 0 for x in c["runs"] for y in b["runs"]):
        return "unresolved"
    return "no worse"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's spread, the pairs the change won and the
    verdict, from (base, change) result lines.

    A pair counts as a win when the change's value is strictly better, in
    the direction better[name] ('lower' when absent). A side is correct only
    when every one of its runs was.
    """
    out = {"pairs": len(pairs),
           "correct": {"base": all(b["correct"] for b, _ in pairs),
                       "change": all(c["correct"] for _, c in pairs)},
           "failed": {"base": sum(b["failed"] for b, _ in pairs),
                      "change": sum(c["failed"] for _, c in pairs)},
           "metrics": {}}
    for name in pairs[0][0]["metrics"] if pairs else ():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        sides = _spread(base), _spread(change)
        out["metrics"][name] = {"unit": pairs[0][0]["metrics"][name]["unit"],
                                "better": "lower" if lower else "higher",
                                "base": sides[0], "change": sides[1], "change_wins": wins,
                                "verdict": verdict(*sides, wins, lower, (bounds or {}).get(name))}
    return out


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "cpu_count": os.cpu_count(), "python": platform.python_version()}


def commit(checkout: Path) -> str:
    """HEAD of the checkout, with '+dirty' when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def end_to_end(checkout: Path) -> dict[str, dict]:
    """The checkout's BENCHMARK.json end-to-end entries by name; none when it has no such file."""
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def is_work_tree(path: Path) -> bool:
    """True when path lies in a git work tree, so its tracked files can be listed."""
    return subprocess.run(["git", "-C", str(path), "rev-parse", "--is-inside-work-tree"],
                          capture_output=True, text=True).stdout.strip() == "true"


def copy_tracked(checkout: Path, dest: Path) -> None:
    """Copy the working-tree contents of checkout's tracked files into dest;
    a tracked file deleted from the working tree is left out."""
    listed = subprocess.run(["git", "-C", str(checkout), "ls-files", "-z"], capture_output=True,
                            text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        if (checkout / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(checkout / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run in a fresh copy of the checkout's tracked files, so no
    __pycache__ or other leftover of the checkout can favour a side."""
    with tempfile.TemporaryDirectory(prefix="bench-checkout-") as copy:
        copy_tracked(checkout, Path(copy))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"run.py in {checkout} printed nothing: {proc.stderr.strip()[-500:]}")
    return result_line(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--change", required=True, type=Path, help="checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="'701-710' or '3,5,8'; one pair per seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--label", required=True, help="the summary goes to BENCH_<label>.json")
    args = p.parse_args(argv)

    base, change = args.base.resolve(), args.change.resolve()
    for path in (base, change):
        if not is_work_tree(path):
            print(f"error: {path} is not a git work tree", file=sys.stderr)
            return 2
    spec = end_to_end(change)
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        sides = [(base, "base"), (change, "change")]
        got = {name: run_once(path, args.workload, seed, args.seconds)
               for path, name in (sides if i % 2 == 0 else sides[::-1])}
        pairs.append((got["base"], got["change"]))
        print(f"seed {seed}: " + ", ".join(
            f"{m} {got['base']['metrics'][m]['value']:.4f} -> {got['change']['metrics'][m]['value']:.4f}"
            for m in got["base"]["metrics"]), flush=True)
    summary = {"label": args.label, "workload": args.workload, "seeds": parse_seeds(args.seeds),
               "seconds": args.seconds, "machine": machine(),
               "bytecode": "each run in a fresh temporary copy of its checkout's tracked files "
                           "(git ls-files, working-tree contents), so no __pycache__ of the "
                           "checkout is read, with the environment unchanged: every metric "
                           "compares with a run of perfbench/run.py alone in a new checkout",
               "commits": {"base": commit(base), "change": commit(change)},
               **summarize(pairs, {n: m.get("better", "lower") for n, m in spec.items()},
                           {n: m["bound"] for n, m in spec.items() if "bound" in m})}
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name:12s} base {m['base']['median']:.4f} [{m['base']['q1']:.4f}, "
              f"{m['base']['q3']:.4f}]  change {m['change']['median']:.4f} "
              f"[{m['change']['q1']:.4f}, {m['change']['q3']:.4f}]  "
              f"change won {m['change_wins']}/{summary['pairs']}, {m['verdict']}")
    return 0 if all(summary["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
