"""End-to-end CLI behavior through in-process main() calls."""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intersective
from intersective import cli, constructions
from intersective.abelian import GroupSpec, format_element
from intersective.cli import main
from intersective.cyclotomic import cyclotomic
from intersective.engine import InconsistencyError
from intersective.oracle import exact_avoidance


def run(capsys, *argv):
    """main(), with argparse's SystemExit turned into its exit code."""
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# cyclotomic


def test_cyclotomic_text(capsys):
    rc, out, _ = run(capsys, "cyclotomic", "6")
    assert rc == 0
    assert out.strip() == "1 - t + t^2"


def test_cyclotomic_stats(capsys):
    for n, (degree, nonzero, gap, height) in [(105, (48, 33, 3, 2)), (8, (4, 2, 4, 1)),
                                              (15015, (5760, 5371, 4, 23))]:
        rc, out, _ = run(capsys, "cyclotomic", str(n), "--stats")
        assert rc == 0
        assert out.splitlines()[1:] == [f"degree: {degree}", f"nonzero count: {nonzero}",
                                        f"max gap: {gap}", f"height: {height}"]


def test_cyclotomic_json(capsys):
    rc, out, _ = run(capsys, "cyclotomic", "105", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 105 and not obj["inverse"]
    assert obj["degree"] == 48
    assert obj["nonzero_count"] == 33
    assert obj["coeffs"][0] == [0, "1"]
    assert [7, "-2"] in obj["coeffs"]


def test_cyclotomic_inverse_json(capsys):
    rc, out, _ = run(capsys, "cyclotomic", "35", "--inverse", "--format", "json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["inverse"] and obj["degree"] == 35 - 24


# ---------------------------------------------------------------------------
# bound spectral


def test_bound_spectral_auto_divisor(capsys):
    J = ";".join(str(k) for k in cyclotomic(105).support())
    rc, out, _ = run(capsys, "bound", "spectral", "--group", "105", "--J", J, "--N", "2")
    assert rc == 0
    assert "degree 48" in out
    assert "bound: 3249" in out
    assert "order 105, index 1" in out


@pytest.mark.parametrize("group,J,h,generator,bound", [
    ("15", "0;1;2;5", "1 + t + t^2 (degree 2)", "1, order 15, index 1", 169),  # divisor
    ("9", "0;1;3", "1 - t^3 (degree 3)", "1, order 9, index 1", 36),  # negated cofactor
    ("21", "0;1;3;4;7", "1 - t (degree 1)", "1, order 21, index 1", 400),  # only 1 - t fits
    ("2x4", "0,0;1,1", "1 + t (degree 1)", "1,1, order 4, index 2", 36),
    ("7", "0", "1 (degree 0)", "1, order 7, index 1", 49),  # J = {0}: |G|^N
    ("2x4", "0,0", "1 (degree 0)", "1,1, order 4, index 2", 64),
    ("4194304", "0;1", "1 + t (degree 1)", "1, order 4194304, index 1", 17592177655809),
    # residues {0, 1} mod 2 meet their negation, but 1 - t divides t^2 - 1
    ("6", "0;3", "1 - t (degree 1)", "3, order 2, index 3", 9),
    ("8", "0;4", "1 - t (degree 1)", "4, order 2, index 4", 16),
    ("2x4", "0,0;1,0", "1 - t (degree 1)", "1,0, order 2, index 4", 16),
])
def test_bound_spectral_auto_branches(capsys, group, J, h, generator, bound):
    rc, out, _ = run(capsys, "bound", "spectral", "--group", group, "--J", J, "--N", "2")
    assert rc == 0
    assert out == f"h: {h}\nsubgroup: generator {generator}\nbound: {bound}\n"


def test_bound_spectral_auto_on_involutions_is_sound(capsys):
    """Every J of 0 and one or two involutions that --h auto answers is bounded
    by at least the exact value; the others lie in no cyclic span."""
    accepted = 0
    for orders in [(m,) for m in range(2, 13, 2)] + [(2, 2), (2, 4), (2, 6), (4, 4), (2, 2, 2)]:
        G = GroupSpec(orders)
        invs = [g for g in G.elements() if any(g) and not any(G.add(g, g))]
        for S in [(g,) for g in invs] + list(itertools.combinations(invs, 2)):
            J = (G.zero(),) + S
            for N in (1, 2):
                rc, out, err = run(capsys, "bound", "spectral", "--group", str(G),
                                   "--J", ";".join(map(format_element, J)), "--N", str(N))
                if rc != 0:
                    assert len(S) == 2 and "span of any single element" in err, (G, J, err)
                    continue
                bound = int(out.splitlines()[-1].removeprefix("bound: "))
                assert bound >= exact_avoidance(G, J, N).value, (G, J, N)
                accepted += 1
    assert accepted == 50


def test_bound_spectral_explicit_pair(capsys):
    rc, out, _ = run(capsys, "bound", "spectral", "--group", "7", "--J", "0;1",
                     "--h", "1,-1", "--N", "3")
    assert rc == 0
    assert "bound: 216" in out  # (7 - 1)^3


def test_bound_spectral_phi_literal(capsys):
    J = ";".join(str(k) for k in cyclotomic(105).support())
    rc, out, _ = run(capsys, "bound", "spectral", "--group", "105", "--J", J,
                     "--h", "phi:105", "--N", "1")
    assert rc == 0
    assert "bound: 57" in out


# ---------------------------------------------------------------------------
# limit-c


def test_limit_c_csv(capsys):
    rc, out, _ = run(capsys, "limit-c", "--n", "5", "--max-N", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,ratio"
    assert lines[1] == "1,1.000000000000"
    assert lines[2] == "2,0.875000000000"
    assert len(lines) == 4


def test_limit_c_json(capsys):
    rc, out, _ = run(capsys, "limit-c", "--n", "5", "--max-N", "2", "--format", "json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["n"] == 5
    assert obj["pairs"] == [[1, 1.0], [2, 0.875]]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_json(capsys):
    rc, out, _ = run(capsys, "oracle", "--group", "5", "--J", "0;1", "--N", "2")
    obj = json.loads(out)
    assert rc == 0
    assert obj == {"alpha": "7", "exact": True, "subgroup_order": 5,
                   "index": 1, "block_alpha": "7"}


def test_oracle_certificate(capsys):
    rc, out, _ = run(capsys, "oracle", "--group", "6", "--J", "0;2", "--N", "1",
                     "--certificate")
    obj = json.loads(out)
    assert rc == 0
    assert obj["alpha"] == "2" and obj["index"] == 2 and obj["block_alpha"] == "1"
    assert len(obj["certificate"]) == 2
    assert all(len(v) == 1 for v in obj["certificate"])


# ---------------------------------------------------------------------------
# construct


def test_construct_text_verify(capsys):
    for M, eps, n in [("2", "3/5", 55523125), ("3", "3/5", 8546583093125)]:
        rc, out, _ = run(capsys, "construct", "--M", M, "--eps", eps, "--verify")
        assert rc == 0
        assert f"n: {n}" in out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


def test_construct_json(capsys):
    rc, out, _ = run(capsys, "construct", "--M", "2", "--eps", "3/5", "--verify", "--json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["n"] == "55523125" and obj["degree"] == "1029036"
    assert all(v["passed"] for v in obj["verified"].values())
    assert obj["degenerate_epsilon"] is False


def test_construct_verify_runs_the_checker_once(capsys, monkeypatch):
    inst = constructions.build_construction(3, Fraction(3, 5))
    report = constructions.verify_construction(inst)
    expected_json = dict(inst.to_json_dict(),
                         verified={b.name: {"passed": b.passed, "detail": b.detail}
                                   for b in report.bullets},
                         degenerate_epsilon=report.degenerate_epsilon)
    calls = []
    verify = constructions.verify_construction
    for module in (constructions, cli):  # wherever the package may bind the checker
        monkeypatch.setattr(module, "verify_construction",
                            lambda inst: calls.append(inst) or verify(inst), raising=False)
    rc, out, _ = run(capsys, "construct", "--M", "3", "--eps", "3/5", "--verify")
    assert (rc, len(calls)) == (0, 1)
    assert out == (
        "primes: 5, 7, 11\nr: 385\nQ: 389\ns: 4\nn: 8546583093125\ndegree: 13695990388\n"
        "support size: 68853\nbullet prime-divisors: PASS\nbullet support-admissible: PASS\n"
        "bullet degree-dominates: PASS\nbullet subgroup-index: PASS\n")
    calls.clear()
    rc, out, _ = run(capsys, "construct", "--M", "3", "--eps", "3/5", "--verify", "--json")
    assert (rc, len(calls)) == (0, 1)
    assert out == json.dumps(expected_json, indent=2) + "\n"


# ---------------------------------------------------------------------------
# slab


def test_slab_with_check(capsys):
    rc, out, _ = run(capsys, "slab", "--n", "5", "--N", "3", "--check")
    assert rc == 0
    assert out.splitlines() == ["12", "valid: True"]


# ---------------------------------------------------------------------------
# bounds


def test_bounds_text(capsys):
    rc, out, _ = run(capsys, "bounds", "--group", "5", "--J", "0;1", "--N", "1")
    assert rc == 0
    assert "query: group 5, J {0;1}, N 1" in out
    assert "upper generic 4" in out
    assert "best upper: 2" in out
    assert "exact: 2" in out


def test_bounds_json(capsys):
    rc, out, _ = run(capsys, "bounds", "--group", "7", "--J", "0;1", "--N", "2",
                     "--format", "json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["exact"] == "14"
    assert obj["best_upper"] == "14"
    methods = {e["method"] for e in obj["upper"]}
    assert {"generic", "pair-dp", "oracle"} <= methods


def test_bounds_inconsistency_exit_code(capsys, monkeypatch):
    def boom(G, J, N, *, oracle_timeout=None):
        raise InconsistencyError("lower exceeds upper", None)

    monkeypatch.setattr("intersective.cli.best_bounds", boom)
    rc, _, err = run(capsys, "bounds", "--group", "5", "--J", "0;1", "--N", "1")
    assert rc == 2
    assert "lower exceeds upper" in err


_BOUNDS = ("bounds", "--group", "5", "--J", "0;1", "--N", "2", "--oracle-timeout")
_ORACLE = ("oracle", "--group", "5", "--J", "0;1", "--N", "2", "--timeout")


@pytest.mark.parametrize("argv", [_BOUNDS + ("0",), _BOUNDS + ("inf",),
                                  _ORACLE + ("0",), _ORACLE + ("inf",)])
def test_timeout_zero_and_inf_accepted(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "") and out


# ---------------------------------------------------------------------------
# refused input


@pytest.mark.parametrize("argv,fragment,stdout", [
    # malformed command lines, refused by the parser
    (("bounds", "--group", "7", "--J", "0;1", "--N", "abc"), "invalid int value: 'abc'", ""),
    (("bounds", "--group", "7", "--J", "0;1"), "arguments are required: --N", ""),
    (("frobnicate",), "invalid choice: 'frobnicate'", ""),
    (("construct", "--M", "x", "--eps", "3/5"), "invalid int value: 'x'", ""),
    (("oracle", "--group", "5", "--J", "0;1", "--N", "2", "--timeout", "soon"),
     "invalid float value: 'soon'", ""),
    # well-formed command lines with values the library refuses
    (("bounds", "--group", "1x3", "--J", "0", "--N", "1"), "factor orders must be integers >= 2", ""),
    (("bounds", "--group", "2x3", "--J", "0", "--N", "1"), "group 2x3 needs 2", ""),
    (("cyclotomic", "10000000000000"), "trial division capped", ""),
    (("bound", "spectral", "--group", "7", "--J", "0;1", "--h", "phi:0", "--N", "1"),
     "cyclotomic index must be >= 1", ""),
    (("bound", "spectral", "--group", "2x2", "--J", "0,0;1,0;0,1", "--N", "1"),
     "not contained in the span of any single element", ""),
    (("construct", "--M", "1", "--eps", "3/5"), "need M >= 2", ""),
    (("construct", "--M", "2", "--eps", "1/65"), "denominator 65 exceeds 64", ""),
    (("slab", "--n", "3", "--N", "30", "--check"), "exceed enumeration cap", "155117520\n"),
    (("bound", "spectral", "--group", "6", "--J", "0;2;3", "--N", "2"),
     "support [0, 2, 3] collides with its negation mod 6", ""),
    (("bound", "spectral", "--group", "7", "--J", "0;1", "--h", "nonsense", "--N", "1"),
     "bad weight literal 'nonsense'", ""),
    (("bounds", "--group", "Z105", "--J", "0;1", "--N", "1"), "bad group literal 'Z105'", ""),
    (("oracle", "--group", "105", "--J", "0;1", "--N", "3"), "1157625 vertices exceed cap 4096", ""),
    (("construct", "--M", "2", "--eps", "7/8"),
     "epsilon 7/8 outside (0, 3/4]: no admissible s >= 3", ""),
    # phi(223092870) = 36495360, and the cofactor has degree n - phi(n)
    (("cyclotomic", "223092870"), "degree 36495360 exceeds dense storage limit 2000000", ""),
    (("cyclotomic", "223092870", "--inverse"),
     "degree 186597510 exceeds dense storage limit 2000000", ""),
    (("cyclotomic", "0"), "cyclotomic index must be >= 1, got 0", ""),
    *[(("construct", "--M", "2", "--eps", eps),
       f"bad fraction '{eps}'; use a/b with integers a, b and b != 0", "")
      for eps in ("1/0", "x/3", "3/")],
    (("limit-c", "--n", "5", "--max-N", "0"), "need N >= 1, got 0", ""),
    (("slab", "--n", "5", "--N", "0"), "need N >= 1, got 0", ""),
    (_BOUNDS + ("-1",), "oracle timeout must be None or >= 0, got -1.0", ""),
    (_BOUNDS + ("nan",), "oracle timeout must be None or >= 0, got nan", ""),
    (_ORACLE + ("-1",), "timeout must be None or >= 0, got -1.0", ""),
    (_ORACLE + ("nan",), "timeout must be None or >= 0, got nan", ""),
    # J = {0} needs no search, and the timeout is still checked
    (("oracle", "--group", "5", "--J", "0", "--N", "2", "--timeout", "-1"),
     "timeout must be None or >= 0, got -1.0", ""),
    # malformed index weights name the literal and the accepted forms
    *[(("bound", "spectral", "--group", "7", "--J", "0;1", "--h", h, "--N", "1"),
       f"bad weight literal '{h}'; use 'auto'", "")
      for h in ("phi:x", "ninv:x", "ninv:", "phi:3.5")],
    (("bound", "spectral", "--group", "7", "--J", "0;1;6", "--N", "2"),
     "support [0, 1, 6] collides with its negation mod 7", ""),
])
def test_bad_input_exits_1_with_one_error_line(capsys, argv, fragment, stdout):
    rc, out, err = run(capsys, *argv)
    errors = [line for line in err.splitlines() if "error: " in line]
    assert (rc, out) == (1, stdout)
    assert len(errors) == 1 and errors[0].startswith("error: ") and fragment in errors[0], err
    assert "Traceback" not in err
    # only the parser adds its usage line; a refusal by the library prints the error alone
    assert err.startswith("usage: ") or err == errors[0] + "\n", err


def test_help_exits_0(capsys):
    rc, out, err = run(capsys, "--help")
    assert (rc, err) == (0, "") and out.startswith("usage: intersective")


def run_full_parser(capsys, *argv):
    """What main() did when it always built every subcommand's parser."""
    try:
        args = cli.build_parser().parse_args(list(argv))
        rc = args.func(args)
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("-h",), ("cyclotomic", "-h"), ("bound", "-h"), ("bound", "spectral", "-h"),
    ("limit-c", "-h"), ("oracle", "-h"), ("construct", "-h"), ("slab", "-h"), ("bounds", "--help"),
    (), ("frobnicate",), ("bound",), ("bound", "frobnicate"),
    ("cyclotomic", "15", "--format", "xml"), ("bounds", "--group", "7", "--J", "0;1"),
    ("bounds", "--group", "7", "--J", "0;1", "--N", "1", "extra"),
    ("cyclotomic", "15", "extra", "--more"), ("-x", "cyclotomic", "15"),
    ("cyclotomic", "15"), ("bound", "spectral", "--group", "7", "--J", "0;1", "--N", "2"),
])
def test_parse_matches_the_full_parser(capsys, argv):
    assert run(capsys, *argv) == run_full_parser(capsys, *argv)


_TOP_USAGE = ("usage: intersective [-h]\n"
              "                    {cyclotomic,bound,limit-c,oracle,construct,slab,bounds}\n"
              "                    ...\n")


@pytest.mark.parametrize("argv,error", [
    (("frobnicate",), "argument command: invalid choice: 'frobnicate' (choose from 'cyclotomic', "
                      "'bound', 'limit-c', 'oracle', 'construct', 'slab', 'bounds')"),
    ((), "the following arguments are required: command"),
    (("cyclotomic", "15", "extra"), "unrecognized arguments: extra"),
])
def test_top_level_errors_list_every_subcommand(capsys, monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (1, "", _TOP_USAGE + f"error: {error}\n")


@pytest.mark.parametrize("argv,built", [
    (("cyclotomic", "15"), 0),
    (("bound", "spectral", "--group", "7", "--J", "0;1", "--N", "2"), 0),
    (("--help",), 9),
])
def test_parsers_built_per_command(capsys, monkeypatch, argv, built):
    count = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    rc, _, _ = run(capsys, *argv)
    assert (rc, len(count)) == (0, built)


def _fresh_interpreter(code: str) -> str:
    """Stripped stdout of code run by a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(intersective.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_package_import_footprint():
    """Importing the package, its CLI and engine leaves numpy, mpmath, dataclasses and
    inspect unloaded, so start-up stays cheap."""
    assert _fresh_interpreter(
        "import sys, intersective, intersective.cli, intersective.engine; "
        "print(sorted({'numpy', 'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))") == "[]"


def test_plain_command_line_leaves_locale_unimported():
    # argparse's first gettext call imports locale; a plain line builds no parser
    assert _fresh_interpreter(
        "import contextlib, io, sys; from intersective.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): rc = main(['cyclotomic', '15'])\n"
        "print(rc, 'locale' in sys.modules)") == "0 False"


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_W = _workloads()


def _full_parse(argv):
    """vars() of build_parser().parse_args(argv), or None where it exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", _W.README_COMMANDS + _W.HEAVY_COMMANDS, ids=" ".join)
def test_plain_args_accepts_the_tour_and_the_heavy_commands(argv):
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == _full_parse(argv)


# (valid, invalid) values of each kind; and command-line pieces that are not plain
# (help, abbreviations, '=' forms, '--', negative numbers, unknown flags, stray
# positionals, flags that repeat one the line may already have, a missing value).
_VALUES = {int: (("0", "2", "15", " 7"), ("-1", "x", "1.5", "")),
           float: (("0", "2.5", "inf", "nan"), ("-1", "soon")),
           str: (("7", "0;1", "2x4", "3/5", "", "phi:5"), ("-x", "--N"))}
_HOSTILE = (("-h",), ("--help",), ("--max", "5"), ("--oracle", "1"), ("--gr", "7"), ("--N=2",),
            ("--",), ("-1",), ("-x",), ("extra",), ("15",), ("--N",), ("--N", "2"), ("--J", "0;1"),
            ("--stats",), ("--format", "json"), ("--check",), ("--n", "5"), ("spectral",))
_PATHS = (tuple((name,) for name in cli._COMMANDS if name != "bound") + (("bound", "spectral"),),
          (("bound",), ("bound", "frobnicate"), ("spectral",), ("frobnicate",), ()))


@st.composite
def _command_lines(draw):
    path = draw(st.sampled_from(_PATHS[draw(st.integers(0, 4)) == 0]))
    entry = cli._COMMANDS.get(path[0]) if path else None
    if entry is not None and isinstance(entry[1], dict):
        entry = entry[1].get(path[1]) if len(path) > 1 else None
    pieces = []
    for flag, kind, default, _ in entry[2] if entry else ():
        if draw(st.integers(0, 9)) < (9 if default is ... else 4):
            bad = draw(st.integers(0, 4)) == 0
            values = ((kind, ("xml",)) if isinstance(kind, tuple) else _VALUES.get(kind))
            value = [draw(st.sampled_from(values[bad]))] if values else []
            pieces.append(([flag] if flag.startswith("-") else []) + value)
    pieces = draw(st.permutations(pieces))
    for hostile in draw(st.lists(st.sampled_from(_HOSTILE), max_size=2)) if draw(st.booleans()) else ():
        pieces.insert(draw(st.integers(0, len(pieces))), list(hostile))
    rest = [token for piece in pieces for token in piece]
    if rest and draw(st.integers(0, 5)) == 0:  # a token lost, or the order shuffled
        rest = (draw(st.permutations(rest)) if draw(st.booleans())
                else rest[:-1] if draw(st.booleans()) else rest[1:])
    return [*path, *rest]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_command_lines())
@example(["limit-c", "--n", "5", "--max", "3"])  # argparse takes the abbreviation
@example(["oracle", "--group", "5", "--J", "0;1", "--N=2"])
@example(["slab", "--n", "5", "--N", "3", "--N", "4"])  # argparse keeps the last
@example(["bounds", "--group", "7", "--J", "0;1", "--N", "-1"])  # argparse takes -1 as a value
@example(["cyclotomic", "--", "15"])
@example(["cyclotomic", "15", "--format", "xml"])
@example(["construct", "--M", "2", "--eps", "3/5", "extra"])
@example(["cyclotomic", "15", "16"])
@example(["oracle", "--group", "5", "--N", "2", "--J"])
def test_plain_args_match_the_full_parser(argv):
    # whenever the fast path accepts a command line, argparse builds the same Namespace
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == _full_parse(argv), argv
