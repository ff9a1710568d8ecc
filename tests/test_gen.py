import hashlib

import pytest

from inlr_kit.gen import (_Budget, _gen_i, _gen_q, cc_rule_instance,
                          iplus_rule_instance, quantum_rule_instance,
                          random_closed_term, random_term_in_context)
from inlr_kit.rng import derive_rng
from inlr_kit.syntax import Abs, Atom, Lam, parse_prop, print_term

# sha256 over gen's outputs, each followed by the next draw of its rng, on
# the lanes below; a change to how gen builds terms must leave it as it is
GEN_DIGEST = \
    "d138677f8bd81a6f8b30f00bf087539ef0cda875df942c7c5d47e897b4b79174"


def _gen_calls():
    for k, calc in enumerate(("iplus", "quantum", "cc")):
        for i in range(600):
            yield lambda r: random_term_in_context(calc, r), \
                derive_rng(500, k, i)
            yield lambda r: random_closed_term(calc, r), derive_rng(501, k, i)
            yield lambda r: random_term_in_context(calc, r, max_size=12), \
                derive_rng(502, k, i)
    for i in range(8):
        for n in range(1, 20):
            yield lambda r: iplus_rule_instance(n, r), derive_rng(503, n, i)
        for n in range(19, 44):
            yield lambda r: quantum_rule_instance(n, r), derive_rng(504, n, i)
        for n in range(1, 43):
            yield lambda r: cc_rule_instance(n, r), derive_rng(505, n, i)


def test_gen_outputs_are_pinned():
    h = hashlib.sha256()
    calls = 0
    for call, rng in _gen_calls():
        h.update(repr(call(rng)).encode())
        h.update(str(rng.integers(1 << 62)).encode())
        calls += 1
    assert calls == 6088
    assert h.hexdigest() == GEN_DIGEST


def _smallest(build):
    """What build makes of a spent budget, checking it draws nothing."""
    rng, untouched = derive_rng(506), derive_rng(506)
    t = build(rng, _Budget(0))
    assert rng.random() == untouched.random()
    return t


@pytest.mark.parametrize("hyp,goal,allow_nd,expected", [
    (None, "One -o One", False, "lam x:One. one_elim(x, 1.0 . star)"),
    ("One", "One", False, "lam h:One. one_elim(h, 1.0 . star)"),
    ("One (+) One", "One", True, "lam h:One (+) One. "
     "case(h, y. one_elim(y, 1.0 . star), z. one_elim(z, 1.0 . star))"),
    ("One -o One", "One", False,
     "lam h:One -o One. one_elim(h (1.0 . star), 1.0 . star)"),
])
def test_a_spent_quantum_budget_builds_the_smallest_proof(hyp, goal,
                                                          allow_nd,
                                                          expected):
    # resources[0] is consumed first, even where it proves the goal, and
    # the scalar is the float 1.0
    goal = parse_prop(goal, "quantum")
    if hyp is None:
        t = _smallest(lambda r, b: _gen_q(goal, [], 0, r, b, allow_nd))
    else:
        hyp = parse_prop(hyp, "quantum")
        t = Lam(hyp, Abs("h", _smallest(
            lambda r, b: _gen_q(goal, [(0, hyp)], 1, r, b, allow_nd))))
    assert print_term(t) == expected
    assert "ScalarStar(value=1.0)" in repr(t)


@pytest.mark.parametrize("calculus,goal,expected", [
    ("iplus", "P => P", "lam x:P. x"),
    ("iplus", "P \\/ Top", "inr(star)"),
    ("cc", "Top /\\ (Bot => Bot)", "pair(star, lam x:Bot. x)"),
])
def test_a_spent_budget_builds_the_smallest_proof(calculus, goal, expected):
    goal = parse_prop(goal, calculus)
    t = _smallest(lambda r, b: _gen_i(goal, {}, 0, r, b, calculus))
    assert print_term(t) == expected


def test_a_spent_budget_raises_on_an_unprovable_goal():
    with pytest.raises(RuntimeError, match="unprovable goal"):
        _smallest(lambda r, b: _gen_i(Atom("P"), {}, 0, r, b, "iplus"))
    with pytest.raises(RuntimeError, match="unprovable goal"):
        _smallest(lambda r, b: _gen_q(Atom("P"), [], 0, r, b, False))


@pytest.mark.parametrize("build,numbers", [
    (iplus_rule_instance, (0, -1, 20)),
    (quantum_rule_instance, (0, -1, 18, 44)),
    (cc_rule_instance, (0, -1, 43)),
])
def test_a_rule_number_outside_the_table_raises(build, numbers):
    for n in numbers:
        with pytest.raises(ValueError, match=f"no .* rule {n}$"):
            build(n, derive_rng(507, n))
