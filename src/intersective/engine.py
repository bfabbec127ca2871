"""Bound orchestration: gather every applicable method for a query (G, J, N).

best_bounds runs the six bound families of METHODS in order: generic, the
(|G| - |J| + 1)^N count; clique covers; spectral, the pair DP and the counts
over each cyclic <a>, a in J, weighted by a cyclotomic divisor, the negated
inverse cyclotomic or 1 - t; slab; product, the N = 1 oracle value to the
N-th power; and oracle, exact or a timed-out witnessed lower bound. A family's
ValueError becomes the note "<family>: <message>"; a lower bound exceeding an
upper bound aborts with a dump, since it can only mean a bug in the tower.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

from .abelian import (GroupSpec, cyclic_residues, element_order, format_element,
                      parse_element, parse_group)
from .cyclotomic import (IntPolynomial, best_divisor_polynomial, inverse_cyclotomic,
                         is_admissible_support)
from .numtheory import euler_phi
from .oracle import exact_avoidance
from .constructions import product_lower_bound, slab_size
from .spectral import clique_bounds, count_nonneg_tuples, residue_dp_count

__all__ = [
    "BoundEntry",
    "BoundReport",
    "InconsistencyError",
    "weight_candidates",
    "best_bounds",
    "report_to_json",
    "report_from_json",
]

ENGINE_MULTISET_CAP = 200_000


class InconsistencyError(RuntimeError):
    """A lower bound exceeded an upper bound; .report carries the full dump."""

    def __init__(self, message: str, report: "BoundReport"):
        super().__init__(message)
        self.report = report


class BoundEntry(NamedTuple):
    value: int
    method: str
    params: tuple[tuple[str, str], ...] = ()

    def params_dict(self) -> dict[str, str]:
        return dict(self.params)


def _entry(value: int, method: str, **params) -> BoundEntry:
    return BoundEntry(int(value), method, tuple(sorted((k, str(v)) for k, v in params.items())))


class BoundReport(NamedTuple):
    group: GroupSpec
    J: tuple[tuple[int, ...], ...]
    N: int
    upper: tuple[BoundEntry, ...]
    lower: tuple[BoundEntry, ...]
    exact: int | None = None
    certificate: tuple | None = None
    notes: tuple[str, ...] = ()

    @property
    def best_upper(self) -> int | None:
        return min((e.value for e in self.upper), default=None)

    @property
    def best_lower(self) -> int | None:
        return max((e.value for e in self.lower), default=None)

    def method_value(self, method: str) -> int | None:
        vals = [e.value for e in self.upper + self.lower if e.method == method]
        return min(vals) if vals else None


_PAIR_T = IntPolynomial.from_coeffs([1, -1])


@functools.lru_cache(maxsize=256)
def weight_candidates(n: int, residues: frozenset) -> tuple[tuple, str | None]:
    """(method, weight) pairs on Z_n with support inside residues, and a failed search's message.

    Admissible residues get the best cyclotomic divisor of t^n - 1
    ("spectral-divisor") and the negated cofactor -Psi_n if it fits
    ("spectral-invcyclo"). Any residues holding {0, 1} get 1 - t
    ("pair-count"), admissible by itself for n >= 3. A divisor search that
    fails leaves its error message as the second value; the others still
    come back. The choice is cached per process, as immutable tuples.
    """
    cands: list[tuple[str, IntPolynomial]] = []
    failure = None
    if is_admissible_support(residues, n):
        try:
            h = best_divisor_polynomial(n, residues)
        except ValueError as e:
            h, failure = None, str(e)
        if h is not None:
            cands.append(("spectral-divisor", h))
        if n - euler_phi(n) in residues:  # Psi_n is monic of degree n - phi(n)
            hinv = inverse_cyclotomic(n).scale(-1)
            if hinv[0] == 1 and set(hinv.support()) <= residues:
                cands.append(("spectral-invcyclo", hinv))
    if {0, 1} <= residues:
        cands.append(("pair-count", _PAIR_T))
    return tuple(cands), failure


def _generic(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    """(|G| - |J| + 1)^N for cyclic G of order >= 3; the always-on baseline."""
    if not G.is_cyclic() or G.order < 3:
        raise ValueError(f"generic bound needs a cyclic group of order >= 3, got {G}")
    yield "upper", _entry((G.order - len(Jt) + 1) ** N, "generic")


def _clique(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    for cb in clique_bounds(G, Jt, N):
        yield "upper", _entry(cb.value, f"clique-{cb.kind}", g=format_element(cb.g), m=cb.m)


def _spectral(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    """The best pair-dp, pair-count, spectral-divisor and spectral-invcyclo over every a in J."""
    best: dict[str, tuple] = {}  # method -> (value, a, h), the first a on ties
    skipped: set[int] = set()  # orders whose pair count is over ENGINE_MULTISET_CAP
    raw = [j for (j,) in Jt] if G.rank == 1 else Jt  # bare ints are read without coercion
    for a in sorted(j for j in Jt if j != G.zero()):
        n_a = element_order(G, a)
        if n_a < 3:
            continue  # self-inverse elements are covered by the symmetric clique
        index = G.order // n_a
        cands, failure = weight_candidates(n_a, frozenset(cyclic_residues(G, a, raw).values()))
        if failure is not None:
            yield "note", f"divisor search at {format_element(a)}: {failure}"
        for method, h in (("pair-dp", None), *cands):
            if method == "pair-dp":
                v = index**N * residue_dp_count(n_a, N)
            elif method != "pair-count":
                v = (index * (n_a - h.degree)) ** N
            elif (multisets := math.comb(N + n_a - 1, n_a - 1)) <= ENGINE_MULTISET_CAP:
                v = index**N * count_nonneg_tuples(_PAIR_T, n_a, N)
            else:
                if n_a not in skipped:
                    skipped.add(n_a)
                    yield "note", (f"pair-count at order {n_a}: {multisets} multisets "
                                   f"exceed cap {ENGINE_MULTISET_CAP}")
                continue
            if method not in best or v < best[method][0]:
                best[method] = (v, a, h)
    for method in ("pair-dp", "pair-count", "spectral-divisor", "spectral-invcyclo"):
        if method in best:
            v, a, h = best[method]
            params = {"a": format_element(a)}
            if method.startswith("spectral-"):
                params["degree"] = h.degree
            if method == "spectral-divisor":
                params["h"] = str(h)
            yield "upper", _entry(v, method, **params)


def _slab(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    if len(Jt) == 2:
        a = next(j for j in Jt if j != G.zero())
        n_a = element_order(G, a)
        if n_a >= 3:
            index = G.order // n_a
            yield "lower", _entry(index**N * slab_size(n_a, N), "slab", a=format_element(a))


def _product(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    pb = product_lower_bound(G, Jt, N, timeout=timeout)
    yield "lower", _entry(pb.value, "product", base=pb.base_value)
    if not pb.base_optimal:
        yield "note", "product: base value at N=1 is a timed-out lower bound"


def _oracle(G: GroupSpec, Jt: tuple, N: int, timeout: float | None):
    """Oracle entries; a closed search also yields ("exact", (value, certificate))."""
    res = exact_avoidance(G, Jt, N, timeout=timeout)
    if not res.optimal:
        yield "lower", _entry(res.value, "oracle-partial")
        yield "note", f"oracle: timed out at {res.value}, lower bound only"
        return
    witness = res.mis.witness if res.index == 1 and res.mis is not None else None
    yield "exact", (res.value, witness)
    yield "upper", _entry(res.value, "oracle")
    yield "lower", _entry(res.value, "oracle")


METHODS = (("generic", _generic), ("clique", _clique), ("spectral", _spectral),
           ("slab", _slab), ("product", _product), ("oracle", _oracle))


def best_bounds(G: GroupSpec, J: Iterable, N: int, *,
                oracle_timeout: float | None = 10.0) -> BoundReport:
    """Collect all applicable upper and lower bounds for the query (G, J, N).

    Runs every family in METHODS; a family's ValueError becomes a note and a
    RuntimeError (a failed self-check) propagates. The report is
    deterministic for fixed inputs and budgets (modulo oracle timeout
    nondeterminism, which can only widen the interval, flagged in notes).
    Raises InconsistencyError when any lower bound exceeds any upper bound.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not (oracle_timeout is None or oracle_timeout >= 0):
        raise ValueError(f"oracle timeout must be None or >= 0, got {oracle_timeout}")
    Jt = G.subset_with_zero(J)
    found: dict[str, list] = {"upper": [], "lower": [_entry(1, "trivial")], "note": [], "exact": []}
    for name, family in METHODS:
        try:
            for kind, item in family(G, Jt, N, oracle_timeout):
                found[kind].append(item)
        except ValueError as e:
            found["note"].append(f"{name}: {e}")
    exact, certificate = found["exact"][0] if found["exact"] else (None, None)
    report = BoundReport(G, Jt, N, tuple(found["upper"]), tuple(found["lower"]), exact,
                         certificate, tuple(found["note"]))
    bl, bu = report.best_lower, report.best_upper
    if bl is not None and bu is not None and bl > bu:
        raise InconsistencyError(
            f"lower bound {bl} exceeds upper bound {bu} on {G}, J={Jt}, N={N}", report)
    if exact is not None and not (bl <= exact <= bu):
        raise InconsistencyError(f"exact value {exact} outside [{bl}, {bu}]", report)
    return report


# ---------------------------------------------------------------------------
# serialization


def report_to_json(report: BoundReport) -> dict:
    def entry_json(e: BoundEntry) -> dict:
        out = {"value": str(e.value), "method": e.method}
        if e.params:
            out["params"] = e.params_dict()
        return out

    out = {
        "query": {
            "group": str(report.group),
            "J": [format_element(j) for j in report.J],
            "N": str(report.N),
        },
        "upper": [entry_json(e) for e in report.upper],
        "lower": [entry_json(e) for e in report.lower],
        "notes": list(report.notes),
    }
    if report.best_upper is not None:
        out["best_upper"] = str(report.best_upper)
    if report.best_lower is not None:
        out["best_lower"] = str(report.best_lower)
    if report.exact is not None:
        out["exact"] = str(report.exact)
    if report.certificate is not None:
        out["certificate"] = [[format_element(x) for x in v] for v in report.certificate]
    return out


def report_from_json(data: dict) -> BoundReport:
    G = parse_group(data["query"]["group"])

    def entry_back(d: dict) -> BoundEntry:
        return BoundEntry(int(d["value"]), d["method"],
                          tuple(sorted(d.get("params", {}).items())))

    certificate = None
    if "certificate" in data:
        certificate = tuple(tuple(parse_element(G, x) for x in v) for v in data["certificate"])
    exact = int(data["exact"]) if "exact" in data else None
    return BoundReport(
        G,
        tuple(parse_element(G, x) for x in data["query"]["J"]),
        int(data["query"]["N"]),
        tuple(entry_back(d) for d in data["upper"]),
        tuple(entry_back(d) for d in data["lower"]),
        exact,
        certificate,
        tuple(data.get("notes", ())),
    )
