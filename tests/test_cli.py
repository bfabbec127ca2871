"""End-to-end CLI behavior through in-process main() calls."""

import json

import pytest

from intersective.cli import main
from intersective.cyclotomic import cyclotomic
from intersective.engine import InconsistencyError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# cyclotomic


def test_cyclotomic_text(capsys):
    rc, out, _ = run(capsys, "cyclotomic", "6")
    assert rc == 0
    assert out.strip() == "1 - t + t^2"


def test_cyclotomic_stats(capsys):
    rc, out, _ = run(capsys, "cyclotomic", "105", "--stats")
    assert rc == 0
    assert "degree: 48" in out
    assert "nonzero count: 33" in out
    assert "height: 2" in out


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


@pytest.mark.parametrize("argv", [
    ("223092870",),               # phi = 36495360, past dense storage
    ("223092870", "--inverse"),   # degree n - phi(n), past dense storage
    ("0",),
])
def test_cyclotomic_refused_index(capsys, argv):
    rc, out, err = run(capsys, "cyclotomic", *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# bound spectral


def test_bound_spectral_auto_divisor(capsys):
    J = ";".join(str(k) for k in cyclotomic(105).support())
    rc, out, _ = run(capsys, "bound", "spectral", "--group", "105", "--J", J, "--N", "2")
    assert rc == 0
    assert "degree 48" in out
    assert "bound: 3249" in out
    assert "order 105, index 1" in out


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


def test_bound_spectral_bad_weight(capsys):
    rc, _, err = run(capsys, "bound", "spectral", "--group", "7", "--J", "0;1",
                     "--h", "nonsense", "--N", "1")
    assert rc == 1
    assert "weight literal" in err


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


def test_oracle_infeasible_exit_code(capsys):
    rc, _, err = run(capsys, "oracle", "--group", "105", "--J", "0;1", "--N", "3")
    assert rc == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# construct


def test_construct_text_verify(capsys):
    rc, out, _ = run(capsys, "construct", "--M", "2", "--eps", "3/5", "--verify")
    assert rc == 0
    assert "n: 55523125" in out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_construct_json(capsys):
    rc, out, _ = run(capsys, "construct", "--M", "2", "--eps", "3/5", "--verify", "--json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["n"] == "55523125" and obj["degree"] == "1029036"
    assert all(v["passed"] for v in obj["verified"].values())
    assert obj["degenerate_epsilon"] is False


def test_construct_bad_epsilon(capsys):
    rc, _, err = run(capsys, "construct", "--M", "2", "--eps", "7/8")
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("eps", ["1/0", "x/3", "3/"])
def test_construct_malformed_epsilon(capsys, eps):
    rc, out, err = run(capsys, "construct", "--M", "2", "--eps", eps)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: bad fraction")


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


def test_bounds_bad_group(capsys):
    rc, _, err = run(capsys, "bounds", "--group", "Z105", "--J", "0;1", "--N", "1")
    assert rc == 1
    assert "error:" in err


def test_bounds_inconsistency_exit_code(capsys, monkeypatch):
    def boom(G, J, N, *, oracle_timeout=None):
        raise InconsistencyError("lower exceeds upper", None)

    monkeypatch.setattr("intersective.cli.best_bounds", boom)
    rc, _, err = run(capsys, "bounds", "--group", "5", "--J", "0;1", "--N", "1")
    assert rc == 2
    assert "lower exceeds upper" in err
