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
    pairs = [(N, float(Fraction(count, (args.n - 1) ** N))) for N, count in enumerate(counts, 1)]
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


# Every subcommand once: name -> (help, handler, options), bound's handler being a
# table of its methods. An option is (flag or positional name, kind, default, help):
# kind is a type, bool (a store_true flag) or a tuple of choices; default ... is required.
_COMMANDS = {
    "cyclotomic": ("cyclotomic polynomial coefficients and stats", cmd_cyclotomic, (
        ("n", int, ..., None),
        ("--inverse", bool, False, "emit (t^n-1)/Phi_n instead"),
        ("--stats", bool, False, None), ("--format", ("text", "json"), "text", None))),
    "bound": ("single-method bounds", {
        "spectral": ("counting bound for one weight polynomial", cmd_bound_spectral, (
            ("--group", str, ..., "group literal, e.g. '105' or '2x4'"),
            ("--J", str, ..., "semicolon-separated elements, e.g. '0;1;6'"),
            ("--h", str, "auto", "'auto', coefficients '1,-1', 'phi:M', or 'ninv:M'"),
            ("--N", int, ..., None)))}, ()),
    "limit-c": ("pair-bound ratio profile count/(n-1)^N", cmd_limit_c, (
        ("--n", int, ..., None), ("--max-N", int, ..., None),
        ("--format", ("csv", "json"), "csv", None))),
    "oracle": ("exact extremal size via independent-set search", cmd_oracle, (
        ("--group", str, ..., None), ("--J", str, ..., None), ("--N", int, ..., None),
        ("--timeout", float, None, "budget in seconds"),
        ("--certificate", bool, False, "emit an extremal set"))),
    "construct": ("prime-window construction instances", cmd_construct, (
        ("--M", int, ..., "number of primes in the window"),
        ("--eps", str, ..., "sparseness parameter as a fraction a/b"),
        ("--verify", bool, False, None), ("--json", bool, False, None))),
    "slab": ("fixed-sum slab lower-bound sizes", cmd_slab, (
        ("--n", int, ..., None), ("--N", int, ..., None),
        ("--check", bool, False, "verify avoidance by enumeration"))),
    "bounds": ("aggregate every applicable bound method", cmd_bounds, (
        ("--group", str, ..., None), ("--J", str, ..., None), ("--N", int, ..., None),
        ("--format", ("text", "json"), "text", None), ("--oracle-timeout", float, 10.0, None))),
}


def _add_commands(parser, dest: str, commands: dict) -> argparse.ArgumentParser:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, handler, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(handler, dict):
            _add_commands(p, "method", handler)
            continue
        for flag, kind, default, help_text in options:
            kwargs = {"action": "store_true"} if kind is bool else {
                "choices" if isinstance(kind, tuple) else "type": kind}
            if default is ... and flag.startswith("-"):  # argparse refuses it on a positional
                kwargs["required"] = True
            p.add_argument(flag, default=default, help=help_text, **kwargs)
        p.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = _Parser(prog="intersective",
                     description="Difference-avoidance bounds for powers of finite abelian groups.")
    return _add_commands(parser, "command", _COMMANDS)


def _plain_args(argv) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) if argv is plain, else None. Plain: exact option
    names, each once, no value starting with '-', valid types and choices, every required
    option and no extra positional; help, '--opt=value', '--' and errors are argparse's."""
    rest, handler, args = list(argv), _COMMANDS, {}
    for dest in ("command", "method"):
        if isinstance(handler, dict):
            if not rest or rest[0] not in handler:
                return None
            args[dest] = rest.pop(0)
            _, handler, options = handler[args[dest]]
    args["func"], pending = handler, {}
    for flag, kind, default, _ in options:
        dest = flag.lstrip("-").replace("-", "_")
        args[dest], pending[flag] = default, (dest, kind)
    tokens = iter(rest)
    for token in tokens:
        positional = not token.startswith("-")
        flag = next((f for f in pending if f[0] != "-"), None) if positional else token
        if flag not in pending:
            return None
        dest, kind = pending.pop(flag)
        # a store_true flag takes no value; a missing value reads as one starting with '-'
        value = "" if kind is bool else token if positional else next(tokens, "-")
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        try:
            args[dest] = True if kind is bool else value if isinstance(kind, tuple) else kind(value)
        except ValueError:
            return None
    return None if ... in args.values() else argparse.Namespace(**args)


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
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
