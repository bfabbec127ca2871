"""Command-line front end.

Subcommands mirror the library layers: cyclotomic coefficient queries,
spectral upper bounds with an explicit or searched weight polynomial, the
pair-bound ratio profile, the exact oracle, the large-support construction
family, slab sizes, and the full bound aggregation report. All values print
as exact decimal integers; JSON output keeps them as strings to survive
parsers that truncate big integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .abelian import (GroupSpec, cyclic_residues, element_order, format_element,
                      parse_element_set, parse_group, subgroup_generated)
from .cyclotomic import (IntPolynomial, cyclotomic, inverse_cyclotomic, require_admissible,
                         support_and_gaps)
from .engine import InconsistencyError, best_bounds, report_to_json, weight_candidates
from .oracle import exact_avoidance, lift_block_witness
from .constructions import _build_verified, slab_is_valid, slab_size
from .spectral import residue_dp_profile, spectral_upper_bound


def _parse_weight(text: str) -> IntPolynomial:
    """Weight literal: comma coefficients '1,-1', or 'phi:M' / 'ninv:M'."""
    text = text.strip()
    kind, _, index = text.partition(":")
    try:
        if kind not in ("phi", "ninv"):
            return IntPolynomial.from_coeffs(int(p) for p in text.split(","))
        m = int(index)
    except ValueError:
        raise ValueError(f"bad weight literal {text!r}; use 'auto', coefficients "
                         f"like '1,-1', 'phi:M', or 'ninv:M'") from None
    return cyclotomic(m) if kind == "phi" else inverse_cyclotomic(m).scale(-1)


def _spectral_generator(G: GroupSpec, J) -> tuple[int, ...]:
    """An element whose cyclic span contains J, largest span first, else the
    all-ones element: it generates a cyclic G and spans J = {0} in any G."""
    cands = sorted((j for j in J if j != G.zero()),
                   key=lambda j: (-element_order(G, j), j))
    for a in cands:
        H = subgroup_generated(G, [a])
        if all(H.contains(j) for j in J):
            return a
    if G.is_cyclic() or not cands:
        return G.element((1,) * G.rank)
    raise ValueError("J is not contained in the span of any single element of J")


def cmd_cyclotomic(args) -> int:
    h = inverse_cyclotomic(args.n) if args.inverse else cyclotomic(args.n)
    supp, gap = support_and_gaps(h)
    if args.format == "json":
        obj = {
            "n": args.n,
            "inverse": bool(args.inverse),
            "degree": h.degree,
            "coeffs": [[k, str(h[k])] for k in supp],
            "nonzero_count": len(supp),
            "max_gap": gap,
        }
        print(json.dumps(obj, indent=2))
        return 0
    print(h)
    if args.stats:
        print(f"degree: {h.degree}")
        print(f"nonzero count: {len(supp)}")
        print(f"max gap: {gap}")
        print(f"height: {max(max(h.coeffs), -min(h.coeffs))}")
    return 0


def cmd_bound_spectral(args) -> int:
    G = parse_group(args.group)
    J = parse_element_set(G, args.J)
    a = _spectral_generator(G, J)
    n = element_order(G, a)
    if args.h == "auto":
        res = frozenset(cyclic_residues(G, a, J).values())
        if 0 not in res or any(2 * k % n for k in res):  # self-inverse ones take the divisor route
            require_admissible(res, n)
        cands, failure = weight_candidates(n, res)
        if failure is not None:
            raise ValueError(failure)
        if res == {0}:
            cands = [("trivial", IntPolynomial.one())]  # J = {0} constrains nothing
        if not cands:
            raise ValueError(f"no weight candidate fits residues {sorted(res)} mod {n}")
        value, idx = min((spectral_upper_bound(G, a, J, hc, args.N), i)
                         for i, (_, hc) in enumerate(cands))
        h = cands[idx][1]
    else:
        h = _parse_weight(args.h)
        value = spectral_upper_bound(G, a, J, h, args.N)
    print(f"h: {h} (degree {h.degree})")
    print(f"subgroup: generator {format_element(a)}, order {n}, index {G.order // n}")
    print(f"bound: {value}")
    return 0


def cmd_limit_c(args) -> int:
    counts = residue_dp_profile(args.n, args.max_N)
    pairs = []
    for N, count in enumerate(counts, start=1):
        pairs.append((N, float(Fraction(count, (args.n - 1) ** N))))
    if args.format == "json":
        print(json.dumps({"n": args.n, "pairs": [[N, r] for N, r in pairs]}))
        return 0
    print("N,ratio")
    for N, r in pairs:
        print(f"{N},{r:.12f}")
    return 0


def cmd_oracle(args) -> int:
    G = parse_group(args.group)
    J = parse_element_set(G, args.J)
    res = exact_avoidance(G, J, args.N, timeout=args.timeout)
    obj = {
        "alpha": str(res.value),
        "exact": bool(res.optimal),
        "subgroup_order": res.subgroup_order,
        "index": res.index,
        "block_alpha": str(res.block_alpha),
    }
    if args.certificate:
        witness = lift_block_witness(G, J, args.N, res)
        obj["certificate"] = (None if witness is None else
                              [[format_element(x) for x in v] for v in witness])
    print(json.dumps(obj, indent=2))
    return 0


def _parse_fraction(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad fraction {text!r}; use a/b with integers a, b and b != 0") from None


def cmd_construct(args) -> int:
    eps = _parse_fraction(args.eps)
    inst, report = _build_verified(args.M, eps)
    if not args.verify:
        report = None
    if args.json:
        obj = inst.to_json_dict()
        if report is not None:
            obj["verified"] = {
                b.name: {"passed": b.passed, "detail": b.detail} for b in report.bullets
            }
            obj["degenerate_epsilon"] = report.degenerate_epsilon
        print(json.dumps(obj, indent=2))
        return 0
    print(f"primes: {', '.join(str(p) for p in inst.primes)}")
    print(f"r: {inst.r}")
    print(f"Q: {inst.Q}")
    print(f"s: {inst.s}")
    print(f"n: {inst.n}")
    print(f"degree: {inst.degree}")
    print(f"support size: {inst.support_size}")
    if report is not None:
        for b in report.bullets:
            print(f"bullet {b.name}: {'PASS' if b.passed else 'FAIL'}")
        if not report.passed:
            return 1
    return 0


def cmd_slab(args) -> int:
    print(slab_size(args.n, args.N))
    if args.check:
        ok = slab_is_valid(args.n, args.N)
        print(f"valid: {ok}")
        if not ok:
            return 1
    return 0


def cmd_bounds(args) -> int:
    G = parse_group(args.group)
    J = parse_element_set(G, args.J)
    report = best_bounds(G, J, args.N, oracle_timeout=args.oracle_timeout)
    if args.format == "json":
        print(json.dumps(report_to_json(report), indent=2))
        return 0
    jtext = ";".join(format_element(j) for j in report.J)
    print(f"query: group {G}, J {{{jtext}}}, N {report.N}")
    for side, entries in (("upper", report.upper), ("lower", report.lower)):
        for e in entries:
            params = "".join(f" {k}={v}" for k, v in e.params)
            print(f"{side} {e.method} {e.value}{params}")
    print(f"best upper: {report.best_upper}")
    print(f"best lower: {report.best_lower}")
    if report.exact is not None:
        print(f"exact: {report.exact}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with an `error:` line, as every refused input does; 2 means a bug."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _cyclotomic_arguments(p) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--inverse", action="store_true", help="emit (t^n-1)/Phi_n instead")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cyclotomic)


def _bound_arguments(p) -> None:
    bsub = p.add_subparsers(dest="method", required=True)
    ps = bsub.add_parser("spectral", help="counting bound for one weight polynomial")
    ps.add_argument("--group", required=True, help="group literal, e.g. '105' or '2x4'")
    ps.add_argument("--J", required=True, help="semicolon-separated elements, e.g. '0;1;6'")
    ps.add_argument("--h", default="auto",
                    help="'auto', coefficients '1,-1', 'phi:M', or 'ninv:M'")
    ps.add_argument("--N", type=int, required=True)
    ps.set_defaults(func=cmd_bound_spectral)


def _limit_c_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-N", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_limit_c)


def _oracle_arguments(p) -> None:
    p.add_argument("--group", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--timeout", type=float, default=None, help="budget in seconds")
    p.add_argument("--certificate", action="store_true", help="emit an extremal set")
    p.set_defaults(func=cmd_oracle)


def _construct_arguments(p) -> None:
    p.add_argument("--M", type=int, required=True, help="number of primes in the window")
    p.add_argument("--eps", required=True, help="sparseness parameter as a fraction a/b")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)


def _slab_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--check", action="store_true", help="verify avoidance by enumeration")
    p.set_defaults(func=cmd_slab)


def _bounds_arguments(p) -> None:
    p.add_argument("--group", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--oracle-timeout", type=float, default=10.0)
    p.set_defaults(func=cmd_bounds)


def _parser(command) -> argparse.ArgumentParser:
    """The top-level parser with only the subparser that `command` names, or
    with every subcommand when it names none (help, no arguments, a typo)."""
    commands = (
        ("cyclotomic", "cyclotomic polynomial coefficients and stats", _cyclotomic_arguments),
        ("bound", "single-method bounds", _bound_arguments),
        ("limit-c", "pair-bound ratio profile count/(n-1)^N", _limit_c_arguments),
        ("oracle", "exact extremal size via independent-set search", _oracle_arguments),
        ("construct", "prime-window construction instances", _construct_arguments),
        ("slab", "fixed-sum slab lower-bound sizes", _slab_arguments),
        ("bounds", "aggregate every applicable bound method", _bounds_arguments),
    )
    if all(command != name for name, _, _ in commands):
        command = None
    parser = _Parser(
        prog="intersective",
        description="Difference-avoidance bounds for powers of finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in commands:
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    return _parser(None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Building the other subcommands' parsers is most of a small command's
    # cost. After a valid subcommand the top level can only refuse trailing
    # arguments, and the full tree repeats that error with every subcommand
    # in its usage line.
    args, extra = _parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:  # OracleInfeasible is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
