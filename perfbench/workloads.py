"""Query lists for the three benchmark workloads, generated from a seed.

Stdlib only: the parent process builds the list to know how many queries a
workload has, and each worker interpreter rebuilds the same list and runs a
slice of it. A query is a plain dict:

- ``{"kind": "bounds", "group": [orders], "J": [[coords], ...], "N": N,
  "timeout": seconds or None, "key": ...}`` runs ``engine.best_bounds``;
- ``{"kind": "cli", "argv": [...], "key": ...}`` runs ``cli.main(argv)``.

``key`` names the recorded answer in ``expected.json``; queries that differ
only by a relabelling the answer does not depend on share a key.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("spectral-z105", "oracle-ladder", "cli-batch")

# Exponents of the 33 nonzero coefficients of the 105th cyclotomic polynomial.
# Kept as data so that generating inputs does not run the code under test.
SUPP_PHI_105 = (0, 1, 2, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 20, 22, 24, 26, 28,
                31, 32, 33, 34, 35, 36, 39, 40, 41, 42, 43, 46, 47, 48)

# Oracle instances that close deterministically under no timeout. The search
# cost depends on the labelling (Z_5 with J = {0, 2} at N = 4, isomorphic to
# {0, 1}, needs over a hundred times the time), so labels stay fixed.
ORACLE_INSTANCES = (
    ((5,), ((0,), (1,)), 4),
    ((6,), ((0,), (1,), (2,)), 3),
    ((8,), ((0,), (1,)), 3),
    ((2, 2), ((0, 0), (1, 0), (0, 1)), 5),
    ((9,), ((0,), (1,), (3,)), 2),
    ((7,), ((0,), (1,), (2,)), 3),
)

# The README tour, in README order; its stdout is recorded byte for byte.
README_COMMANDS = (
    ("bounds", "--group", "7", "--J", "0;1", "--N", "2"),
    ("cyclotomic", "15", "--stats"),
    ("bound", "spectral", "--group", "7", "--J", "0;1", "--h", "1,-1", "--N", "3"),
    ("oracle", "--group", "5", "--J", "0;1", "--N", "2"),
    ("slab", "--n", "5", "--N", "3", "--check"),
    ("limit-c", "--n", "5", "--max-N", "4"),
    ("construct", "--M", "2", "--eps", "3/5", "--verify"),
)

HEAVY_COMMANDS = (
    ("cyclotomic", "15015", "--stats"),
    ("cyclotomic", "3003", "--inverse", "--stats"),
    ("construct", "--M", "3", "--eps", "3/5", "--verify"),
    ("slab", "--n", "11", "--N", "5", "--check"),
    ("slab", "--n", "7", "--N", "6", "--check"),
    ("limit-c", "--n", "105", "--max-N", "60"),
)


def _bounds(orders, J, N, key, timeout=None) -> dict:
    return {"kind": "bounds", "group": list(orders), "J": [list(j) for j in J], "N": N,
            "timeout": timeout, "key": key}


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _spectral(rng: random.Random) -> list[dict]:
    # Multiplying J by a unit relabels the query; every bound value and the
    # spectral cost stay the same, only element parameters move.
    u = rng.choice(_units(105))
    v = rng.choice(_units(20))
    return [
        _bounds((105,), [((k * u) % 105,) for k in SUPP_PHI_105], 2, "z105-suppphi105-N2",
                timeout=10.0),
        _bounds((20,), [(0,), (v,)], 4, "z20-pair-N4", timeout=10.0),
    ]


def _sweep() -> list[dict]:
    """The soundness sweep: every J containing 0 in Z_2..Z_7 and Z_2^2, N = 1, 2."""
    groups = [(m,) for m in range(2, 8)] + [(2, 2)]
    out = []
    for orders in groups:
        elements = [tuple(e) for e in _elements(orders)]
        zero, nonzero = elements[0], elements[1:]
        for mask in range(2 ** len(nonzero)):
            J = [zero] + [g for i, g in enumerate(nonzero) if mask >> i & 1]
            for N in (1, 2):
                out.append(_bounds(orders, J, N, _key(orders, J, N)))
    return out


def _elements(orders):
    if len(orders) == 1:
        return [(k,) for k in range(orders[0])]
    return [(a, b) for a in range(orders[0]) for b in range(orders[1])]


def _key(orders, J, N) -> str:
    group = "x".join(map(str, orders))
    return f"z{group}-{';'.join(','.join(map(str, j)) for j in J)}-N{N}"


def _oracle(rng: random.Random) -> list[dict]:
    # One shuffle over sweep and instances, so the small sweep queries are
    # spread over the whole pass and their median does not rest on one moment.
    out = _sweep() + [_bounds(o, J, N, _key(o, J, N)) for o, J, N in ORACLE_INSTANCES]
    rng.shuffle(out)
    return out


def _cli(rng: random.Random) -> list[dict]:
    cmds = [{"kind": "cli", "argv": list(a), "key": " ".join(a)}
            for a in README_COMMANDS + HEAVY_COMMANDS]
    rng.shuffle(cmds)
    return cmds


def queries(workload: str, seed: int) -> list[dict]:
    """The workload's queries for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectral-z105":
        return _spectral(rng)
    if workload == "oracle-ladder":
        return _oracle(rng)
    if workload == "cli-batch":
        return _cli(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
