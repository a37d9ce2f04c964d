"""Each checker accepts a correct output and rejects a perturbed one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fockheis import cherednik, cli, fock  # noqa: E402

from perfbench import checks  # noqa: E402


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def plain(vec):
    return checks.vector_from_json(vec.to_json())


def bump(vec: dict) -> dict:
    """The same vector with one coefficient changed."""
    out = copy.deepcopy(vec)
    lam = sorted(out)[0]
    e = sorted(out[lam])[0]
    out[lam][e] += 1
    return out


X = fock.FockVector({(3, 1): fock.LaurentScalar({0: 2, Fraction(1, 2): -1}), (2, 2): 1, (1, 1, 1, 1): -3})


def test_closed_form_b_tau():
    closed = checks.ClosedForm()
    for tau, b in (((1,), 2), ((2, 1), 2), ((1, 1), 3)):
        got = plain(fock.b_tau(tau, b, X))
        expected = closed.apply(tau, b, plain(X))
        assert checks.check_equal(got, expected, "b_tau") is None
        assert checks.check_equal(bump(got), expected, "b_tau") is not None


def test_pipeline():
    lam = cherednik.ParamLambda(1, 2)
    table = {(1, 1): fock.FockVector({(1, 1): 1, (2,): fock.LaurentScalar({1: 1})})}
    y = plain(cherednik.character_pipeline((5, 3), lam, 7, table))
    args = ((2, 1), 2, 7, plain(table[(1, 1)]), checks.ClosedForm())
    assert checks.check_pipeline(y, *args) is None
    assert checks.check_pipeline(bump(y), *args) is not None  # no longer vanishes at v=1
    assert checks.check_pipeline(checks.shift(y, Fraction(1)), *args) is not None
    # a wrong vector that still vanishes at v=1 and starts at exponent 0
    twisted = {lam_: {e: c * 2 for e, c in row.items()} for lam_, row in y.items()}
    assert checks.check_pipeline(twisted, *args) is not None


def test_vanishes_at_one():
    y = plain(fock.heis_modp((2,), 2, 7, X))
    assert checks.check_vanishes_at_one(y, "heis-modp") is None
    assert checks.check_vanishes_at_one(bump(y), "heis-modp") is not None


def test_char_table():
    payload = run_cli("char-table", "--n", "6")
    assert checks.check_char_table(payload, 6) is None
    bad = copy.deepcopy(payload)
    row = bad["table"][3]["values"]
    row[0], row[1] = row[1], row[0]
    assert checks.check_char_table(bad, 6) is not None


def test_lr():
    payload = run_cli("lr", "--mu", "3,2", "--nu", "2,1", "--oracle")
    assert checks.check_lr(payload, (3, 2), (2, 1), True) is None
    bad = copy.deepcopy(payload)
    bad["terms"][0]["coeff"] = str(Fraction(bad["terms"][0]["coeff"]) + 1)
    assert checks.check_lr(bad, (3, 2), (2, 1), True) is not None
    bad = copy.deepcopy(payload)
    bad["terms"][0]["mu"] = [1] * 8  # right size, does not contain (3, 2)
    assert checks.check_lr(bad, (3, 2), (2, 1), True) is not None


def test_verma_hilbert():
    payload = run_cli("verma-hilbert", "--eta", "3,2,1", "--max-deg", "12")
    assert checks.check_verma_hilbert(payload, (3, 2, 1), Fraction(0), 12) is None
    bad = copy.deepcopy(payload)
    bad["coeffs"][-1] += 1
    assert checks.check_verma_hilbert(bad, (3, 2, 1), Fraction(0), 12) is not None


def test_stability():
    for z, p, n in ((5, 101, 2), (17, 101, 4)):
        payload = run_cli("stability-interval", "--z", str(z), "--p", str(p), "--n", str(n))
        assert checks.check_stability(payload, z, p, n) is None
        for lo, hi in ((payload["lo"] - 1, payload["hi"]), (payload["lo"], payload["hi"] + p)):
            assert checks.check_stability({"lo": lo, "hi": hi}, z, p, n) is not None


def test_label_image():
    payload = run_cli("label-image", "pos", "--eta", "7,1", "--tau", "2,1", "--a", "1", "--b", "3")
    args = ((2, 1), 1, 3, (1, 1), (2,))
    assert checks.check_label_image(payload, *args) is None
    bad = copy.deepcopy(payload)
    bad["images"][0]["mult"] += 1
    assert checks.check_label_image(bad, *args) is not None
    bad = copy.deepcopy(payload)
    bad["images"][0]["label"]["m"] = str(Fraction(bad["images"][0]["label"]["m"]) + 1)
    assert checks.check_label_image(bad, *args) is not None


def test_specialization():
    x = plain(X)
    y = plain(fock.b_op(1, 2, X))
    assert checks.check_specialization(y, x, lambda n: n) is None
    assert checks.check_specialization(bump(y), x, lambda n: n) is not None
    y = plain(fock.b_tau((1, 1), 2, X))
    factor = lambda n: checks.schur_at_ones((1, 1), n)  # noqa: E731
    assert checks.check_specialization(y, x, factor) is None
    assert checks.check_specialization(bump(y), x, factor) is not None
