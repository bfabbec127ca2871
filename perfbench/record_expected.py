"""Record the program's current answers to every benchmark query in expected.json.

    python3 perfbench/record_expected.py

Run once on the commit whose answers are the reference; the benchmark then
counts any other answer as a failure. The README tour's output is checked
against the README's own text before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker
import workloads


def readme_outputs(readme: Path) -> dict[str, str]:
    """Command line (without the program name) -> the output the README shows."""
    out: dict[str, str] = {}
    lines = readme.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ intersective "):
            body = []
            for follow in lines[i + 1:]:
                if follow.startswith("```"):
                    break
                body.append(follow + "\n")
            out[line[len("$ intersective "):].replace('"', "")] = "".join(body)
    return out


def main() -> int:
    pkg = worker.import_package()
    shown = readme_outputs(worker.ROOT / "README.md")
    expected: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for query in workloads.queries(name, 0):
            _, answer = worker.run_query(pkg, query, worker.prepare(pkg, query))
            if query["kind"] == "cli":
                readme = query["argv"] in [list(c) for c in workloads.README_COMMANDS]
                if readme and answer["stdout"] != shown[query["key"]]:
                    print(f"error: output of {query['key']!r} differs from README", file=sys.stderr)
                    return 1
                if not readme:
                    del answer["stdout"]
            expected[query["key"]] = answer
            print(f"recorded {query['key']}", file=sys.stderr)
    path = worker.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected)} answers written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
