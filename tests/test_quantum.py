import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from inlr_kit import gen, quantum
from inlr_kit.qencode import (NotIrreducible, NotVectorProp, dim, from_vector,
                              meas_first, norm_sq, qn_prop, to_vector)
from inlr_kit.quantum import (RULES_QUANTUM, RULES_QUANTUM_DET, Histogram,
                              ScalarOverflowStuck, is_introduction, lex_gt,
                              measure_mu, measure_nu,
                              mu_subst_additivity, run_measure, FUEL_BIN,
                              STUCK_BIN, structural_norm_sq)
from inlr_kit.rewrite import (NoMatchError, RuleId, find_redexes, normalize,
                              step_at)
from inlr_kit.rng import derive_rng
from inlr_kit.selftest import _vector_prop_of_dim_at_most
from inlr_kit.syntax import (Abs, App, Bound, Case, CaseNd, Inl, Inlr2, Inr,
                             Lam, One, OneElim, OPlus, Prod, ScalarStar, Star,
                             Sum, Term, Var, fold, instantiate, parse_prop,
                             parse_term, print_term)
from inlr_kit.typecheck import infer

from test_rewrite import _reference_normalize, measure_inputs


def q(s):
    return parse_term(s, "quantum")


def qp(s):
    return parse_prop(s, "quantum")


def test_table_numbers():
    assert [r.rid.number for r in RULES_QUANTUM.rules] == list(range(19, 44))
    det = [r.rid.number for r in RULES_QUANTUM_DET.rules]
    assert det == [19, 20, 21, 22, 23] + list(range(28, 44))


# ---------------------------------------------------------------------------
# measures

def test_measure_mu_base_cases():
    assert measure_mu(Var("x")) == 0
    assert measure_mu(q("prod(2.0, 5.0 . star)")) == 2
    # both measures fold on their own stack: a 10^5-deep chain costs no
    # Python stack
    deep = q("5.0 . star")
    for _ in range(10 ** 5):
        deep = Inl(deep)
    assert measure_mu(deep) == measure_nu(deep) == 10 ** 5 + 1
    # every node is checked, below an application too
    for measure in (measure_mu, measure_nu):
        with pytest.raises(ValueError, match="Star is not a quantum"):
            measure(App(Star(), Star()))


def test_measure_nu_worked_pair():
    assert measure_nu(q("sum(lam x. x, lam x. x)")) == 3
    assert measure_nu(q("lam x. sum(x, x)")) == 2


def _mu_rec(t):
    """The recursive measure_mu that `fold` replaced: the reference."""
    if isinstance(t, (Var, Bound)):
        return 0
    if isinstance(t, Sum):
        return 1 + max(_mu_rec(t.left), _mu_rec(t.right))
    if isinstance(t, Prod):
        return 1 + _mu_rec(t.body)
    if isinstance(t, ScalarStar):
        return 1
    if isinstance(t, OneElim):
        return 1 + _mu_rec(t.scrut) + _mu_rec(t.body)
    if isinstance(t, Lam):
        return 1 + _mu_rec(t.abs.body)
    if isinstance(t, App):
        return 1 + _mu_rec(t.fn) + _mu_rec(t.arg)
    if isinstance(t, (Inl, Inr)):
        return 1 + _mu_rec(t.body)
    if isinstance(t, Inlr2):
        return 1 + max(_mu_rec(t.left), _mu_rec(t.right))
    if isinstance(t, (Case, CaseNd)):
        return 1 + _mu_rec(t.scrut) + max(_mu_rec(t.left.body),
                                          _mu_rec(t.right.body))
    raise ValueError(f"{type(t).__name__} is not a quantum constructor")


def _nu_rec(t):
    """The recursive measure_nu that `fold` replaced: the reference."""
    if isinstance(t, (Var, Bound)):
        return 0
    if isinstance(t, Sum):
        return 1 + 2 * max(_nu_rec(t.left), _nu_rec(t.right))
    if isinstance(t, Prod):
        return 1 + 2 * _nu_rec(t.body)
    if isinstance(t, (ScalarStar, OneElim, App, Case, CaseNd)):
        return 1
    if isinstance(t, Lam):
        return 1 + _nu_rec(t.abs.body)
    if isinstance(t, (Inl, Inr)):
        return 1 + _nu_rec(t.body)
    if isinstance(t, Inlr2):
        return 1 + max(_nu_rec(t.left), _nu_rec(t.right))
    raise ValueError(f"{type(t).__name__} is not a quantum constructor")


def test_measures_match_the_recursive_ones():
    for i in range(300):
        rng = derive_rng(72, i)
        _ctx, t, _goal = gen.random_term_in_context("quantum", rng)
        _ctx, redex, _goal = gen.quantum_rule_instance(19 + i % 25, rng)
        # a body built under a binder x, one binder deep: it refers to x
        # as a loose Bound
        a = gen.random_quantum_prop(rng, 1)
        b = gen.random_quantum_prop(rng, 1)
        body = gen._gen_q(b, [(0, a)], 1, rng, gen._Budget(12),
                          allow_nd=True)
        for u in (t, redex, body):
            assert measure_mu(u) == _mu_rec(u)
            assert measure_nu(u) == _nu_rec(u)


def test_lex_decrease_examples():
    assert lex_gt(q("one_elim(2.0 . star, 1.0 . star)"),
                  q("prod(2.0, 1.0 . star)"))
    # mu ties (2 = 2) and nu breaks the tie (3 > 2)
    t, u = q("sum(lam x. x, lam x. x)"), q("lam x. sum(x, x)")
    assert measure_mu(t) == measure_mu(u)
    assert lex_gt(t, u)


@pytest.mark.parametrize("number", range(19, 44))
def test_every_root_step_decreases_lexicographically(number):
    for i in range(8):
        rng = derive_rng(47, number, i)
        _ctx, t, _expected = gen.quantum_rule_instance(number, rng)
        choice = {26: "left", 27: "right"}.get(number)
        u = step_at(t, (), RuleId("quantum", number), choice=choice)
        assert lex_gt(t, u), (number, i)
        if number <= 27:
            # the cut rules already decrease mu on its own
            assert measure_mu(t) > measure_mu(u), (number, i)
        else:
            # the commutations never increase mu and strictly drop nu
            assert measure_mu(t) >= measure_mu(u), (number, i)
            assert measure_nu(t) > measure_nu(u), (number, i)


def test_mu_subst_additivity_examples():
    # each body refers to its binder x as Bound(0)
    body = q("lam x. prod(2.0, x)").abs.body
    assert mu_subst_additivity(body, q("5.0 . star"))
    assert mu_subst_additivity(Bound(0), q("lam y. y"))


def test_mu_subst_additivity_random():
    for i in range(500):
        rng = derive_rng(13, i)
        a = gen.random_quantum_prop(rng, 1)
        b = gen.random_quantum_prop(rng, 1)
        # t is the body of a binder x : a, one binder deep
        t = gen._gen_q(b, [(0, a)], 1, rng, gen._Budget(14), allow_nd=False)
        u = gen._gen_q(a, [], 0, rng, gen._Budget(14), allow_nd=False)
        assert measure_mu(instantiate(t, (u,))) \
            == measure_mu(t) + measure_mu(u)


# ---------------------------------------------------------------------------
# subject reduction per rule

@pytest.mark.parametrize("number", range(19, 44))
def test_subject_reduction_per_rule(number):
    for i in range(8):
        rng = derive_rng(2025, number, i)
        ctx, t, expected = gen.quantum_rule_instance(number, rng)
        before = infer("quantum", ctx, t, expected=expected)
        choice = {26: "left", 27: "right"}.get(number)
        u = step_at(t, (), RuleId("quantum", number), choice=choice)
        after = infer("quantum", ctx, u, expected=expected)
        assert before == after


# ---------------------------------------------------------------------------
# norm

def test_norm_examples():
    assert norm_sq(q("3.0 . star"), qp("One")) == 9.0
    assert norm_sq(q("inlr(3.0 . star, 4.0 . star)"),
                   qp("One (+) One")) == 25.0
    assert norm_sq(q("inl(1.0 . star)"), qp("One (+) One")) == 1.0


@pytest.mark.parametrize("text,prop", [
    ("1e200 . star", "One"),  # the square overflows
    ("(1e308, 1e308) . star", "One"),  # the modulus overflows
    ("inlr(1.3e154 . star, 1.3e154 . star)", "One (+) One"),  # the sum
])
def test_norm_past_a_float_is_inf(text, prop):
    assert norm_sq(q(text), qp(prop)) == math.inf


def test_norm_rejects_reducible():
    with pytest.raises(NotIrreducible):
        norm_sq(q("sum(1.0 . star, 1.0 . star)"), qp("One"))


def test_norm_rejects_open_terms():
    with pytest.raises(NotIrreducible):
        norm_sq(Var("x"), qp("One"))


def test_norm_rejects_non_vector_prop():
    with pytest.raises(NotVectorProp):
        norm_sq(q("lam x:One. x"), qp("One -o One"))


# ---------------------------------------------------------------------------
# the deterministic fragment

def test_closed_normal_forms_are_introductions():
    for i in range(150):
        rng = derive_rng(91, i)
        t, _goal = gen.random_closed_term("quantum", rng)
        tr = normalize(t, RULES_QUANTUM_DET)
        assert tr.outcome.kind == "normal-form"
        assert is_introduction(tr.final)


# ---------------------------------------------------------------------------
# measurement

def _pi1_applied(left, right):
    state = q(f"inlr({left} . star, {right} . star)")
    return App(meas_first(1), state)


def test_measure_degenerate_state_always_left():
    hist = run_measure(_pi1_applied("1.0", "0.0"), shots=200, seed=11)
    assert len(hist.bins) == 1
    assert hist.bins[0]["term"] == "inl(1.0 . star)"
    assert hist.bins[0]["frequency"] == 1.0
    assert hist.bins[0]["exact_weight"] == 1.0


def test_measure_balanced_state_splits():
    hist = run_measure(_pi1_applied("1.0", "1.0"), shots=4000, seed=12)
    freqs = {b["term"]: b["frequency"] for b in hist.bins}
    assert set(freqs) == {"inl(1.0 . star)", "inr(1.0 . star)"}
    assert abs(freqs["inl(1.0 . star)"] - 0.5) < 0.03
    weights = {b["term"]: b["exact_weight"] for b in hist.bins}
    assert weights["inl(1.0 . star)"] == pytest.approx(0.5)
    assert sum(weights.values()) == pytest.approx(1.0)


def test_measure_zero_norm_is_a_distinct_bin():
    hist = run_measure(_pi1_applied("0.0", "0.0"), shots=50, seed=13)
    assert len(hist.bins) == 1
    assert hist.bins[0]["term"] == STUCK_BIN
    assert hist.bins[0]["count"] == 50


@pytest.mark.parametrize("text,number", [
    ("prod(1e200, 1e200 . star)", 39),
    ("prod((1e200, 1e200), (1e200, -1e200) . star)", 39),
    ("sum(1.7e308 . star, 1.7e308 . star)", 28),
])
def test_scalar_overflow_is_stuck(text, number):
    # a scalar commutation whose value is not finite leaves its redex in
    # place instead of building an infinite scalar
    t = q(text)
    with pytest.raises(ScalarOverflowStuck):
        step_at(t, (), RuleId("quantum", number))
    for rules in (RULES_QUANTUM, RULES_QUANTUM_DET):
        tr = normalize(t, rules)
        assert (tr.outcome.kind, tr.outcome.reason) \
            == ("stuck", "scalar-overflow")
        assert tr.final == t and tr.steps == []


def test_scalar_overflow_after_steps():
    # the term at the stuck step is kept, with the steps before it
    tr = normalize(q("lam x:One. one_elim(x, sum(prod(1.0, 1.7e308 . star), "
                     "1.7e308 . star))"), RULES_QUANTUM)
    assert tr.outcome.reason == "scalar-overflow"
    assert [str(s.rule) for s in tr.steps] == ["quantum:39"]
    assert tr.final == q("lam x:One. one_elim(x, sum(1.7e308 . star, "
                         "1.7e308 . star))")
    hist = run_measure(q("sum(1.7e308 . star, 1.7e308 . star)"), shots=10,
                       seed=1)
    assert [b["term"] for b in hist.bins] == ["<stuck:scalar-overflow>"]


def test_measure_is_seed_deterministic():
    a = run_measure(_pi1_applied("1.0", "2.0"), shots=500, seed=21).to_json()
    b = run_measure(_pi1_applied("1.0", "2.0"), shots=500, seed=21).to_json()
    assert a == b


def test_histogram_json_shape():
    hist = run_measure(_pi1_applied("1.0", "1.0"), shots=100, seed=3)
    assert isinstance(hist, Histogram)
    for entry in hist.bins:
        assert set(entry) <= {"term", "count", "frequency", "exact_weight"}


def test_spec_pi1_on_well_typed_state():
    # the whole applied measurement is well-typed at the Boolean type
    t = _pi1_applied("1.0", "1.0")
    assert infer("quantum", {}, t) == qp("One (+) One")


# An inner measurement inside a scrutinee component is taken first; the
# outer one then weighs the value it produced.  The probabilities are
# worked out by hand from the squared norms at each level.
NESTED = [
    # the inner measurement gives 3.0 (9/10) or 0.0 (1/10); the outer one
    # keeps 3.0 against 1.0 with 9/10, and 0.0 against 1.0 never
    ("case_nd(inlr(case_nd(inlr(3.0 . star, 1.0 . star), a. a, "
     "b. prod(0.0, b)), 1.0 . star), x. x, y. y)",
     {"3.0 . star": 0.81, "1.0 . star": 0.19}),
    # under a beta redex, nested in the right component: 3.0 (1/5) or
    # 2.0 (4/5), then weighed against 1.0
    ("(lam q:One(+)One. case_nd(q, x. x, y. y)) "
     "inlr(1.0 . star, case_nd(inlr(1.0 . star, 2.0 . star), "
     "a. prod(3.0, a), b. b))",
     {"1.0 . star": 0.2 * 0.1 + 0.8 * 0.2, "3.0 . star": 0.2 * 0.9,
      "2.0 . star": 0.8 * 0.8}),
    # both components nested: 1.0 or 2.0 (1/2 each) against 1.0 (1/10)
    # or 3.0 (9/10); the right branch is scaled by 5
    ("case_nd(inlr(case_nd(inlr(1.0 . star, 1.0 . star), a. a, "
     "b. prod(2.0, b)), case_nd(inlr(1.0 . star, 3.0 . star), c. c, d. d)), "
     "x. x, y. prod(5.0, y))",
     {"1.0 . star": 0.05 * 0.5 + 0.45 * 0.1,
      "5.0 . star": 0.05 * 0.5 + 0.05 * 0.2,
      "2.0 . star": 0.05 * 0.8 + 0.45 * 4 / 13,
      "15.0 . star": 0.45 * 0.9 + 0.45 * 9 / 13}),
]


@pytest.mark.parametrize("text,probs", NESTED,
                         ids=["left", "under-beta", "both"])
def test_nested_measurement_samples_its_exact_weights(text, probs):
    shots = 20000
    hist = run_measure(q(text), shots=shots, seed=31)
    weights = {b["term"]: b["exact_weight"] for b in hist.bins}
    assert weights == pytest.approx(probs)
    assert sum(weights.values()) == pytest.approx(1.0)
    for b in hist.bins:
        p = b["exact_weight"]
        sigma = (p * (1.0 - p) / shots) ** 0.5
        assert abs(b["frequency"] - p) <= 4 * sigma, b


def test_measurement_waits_for_irreducible_components():
    t = q(NESTED[0][0])
    with pytest.raises(NoMatchError):
        step_at(t, (), RuleId("quantum", 26))
    assert find_redexes(t, RULES_QUANTUM)[0] == ((0, 0), RuleId("quantum", 26))


# ---------------------------------------------------------------------------
# the tree of runs against one reference normalization per shot

def _per_shot_histogram(t, shots, seed, fuel):
    """(printed term, count) per bin, from one normalization per shot with
    the shot's own stream; each bin printed from its first hit.  The runs
    go through test_rewrite's next-step loop, not the engine's step loop
    that both `normalize` and the tree of runs call."""
    counts = {}
    for shot in range(shots):
        _, _, kind, reason, final = _reference_normalize(
            t, RULES_QUANTUM, fuel, rng=derive_rng(seed, 0x5407, shot))
        if kind == "normal-form":
            key = final
        elif kind == "stuck":
            key = f"<stuck:{reason}>"
        else:
            key = "<fuel-exhausted>"
        counts[key] = counts.get(key, 0) + 1
    bins = [(key if isinstance(key, str) else print_term(key), count)
            for key, count in counts.items()]
    return sorted(bins, key=lambda b: (-b[1], b[0]))


@pytest.mark.parametrize("t,shots,seed,fuels", [
    pytest.param(t, shots, seed, fuels, id=ident)
    for ident, t, shots, seed, fuels in measure_inputs()])
def test_measure_matches_per_shot_normalize(t, shots, seed, fuels):
    for fuel in fuels:
        hist = run_measure(t, shots, seed, fuel=fuel)
        assert [(b["term"], b["count"]) for b in hist.bins] \
            == _per_shot_histogram(t, shots, seed, fuel), fuel


def _measure_input(ident):
    [case] = [case[1:] for case in measure_inputs() if case[0] == ident]
    return case


@pytest.mark.parametrize("ident", ["deep", "non-vector-inner"])
def test_chunks_of_shots_walk_as_one(monkeypatch, ident):
    # the shots are drawn and walked CHUNK at a time; chunks of 7 shots
    # give the same histogram, bin order and first-hit binder hints
    # included, as one chunk and as one normalize per shot
    t, shots, seed, fuels = _measure_input(ident)
    whole = [run_measure(t, shots, seed, fuel=fuel) for fuel in fuels]
    monkeypatch.setattr(quantum, "CHUNK", 7)
    assert shots % 7 and shots > 7
    for fuel, want in zip(fuels, whole):
        got = run_measure(t, shots, seed, fuel=fuel)
        assert got.to_json() == want.to_json()
        assert got.stats == want.stats
        assert [(b["term"], b["count"]) for b in got.bins] \
            == _per_shot_histogram(t, shots, seed, fuel), fuel


def test_measure_stats_count_the_walk():
    # 12 measurements along one path, each with a leaf off the path
    t, shots, seed, _fuels = _measure_input("deep")
    hist = run_measure(t, shots, seed)
    assert hist.stats == {"shots": 300, "runs": 25, "leaves_hit": 13,
                          "max_draws": 12, "fuel_mass": 0.0,
                          "exact_weights": True}
    hist = run_measure(t, shots, seed, fuel=30)
    [fuel_bin] = [b for b in hist.bins if b["term"] == FUEL_BIN]
    assert hist.stats["fuel_mass"] == fuel_bin["frequency"] > 0


@pytest.mark.parametrize("t,leaves", [
    # n nested measurements, two ways each
    (App(meas_first(3), from_vector([1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 2.5, 0.5],
                                    qn_prop(3))), 8),
    # the measurements in both components, then the outer one
    (q(NESTED[2][0]), 8),
])
def test_measure_compares_each_leaf_once(monkeypatch, t, leaves):
    # a shot's outcome is binned by its leaf of the tree of runs, so the
    # terms are compared once per leaf, not once per shot
    calls = []
    eq = Term.__eq__

    def counted(a, b):
        calls.append((a, b))
        return eq(a, b)

    monkeypatch.setattr(Term, "__eq__", counted)
    hist = run_measure(t, shots=1000, seed=41)
    assert sum(b["count"] for b in hist.bins) == 1000
    assert len(calls) <= leaves


def test_a_deep_measured_value_is_weighed_without_recursion():
    depth = 10 ** 5
    chain = ScalarStar(1.0)
    for _ in range(depth):
        chain = Inl(chain)
    t = CaseNd(Inlr2(chain, ScalarStar(1.0)), Abs("x", Bound(0)),
               Abs("y", Bound(0)))
    for seed in range(2):
        tr = normalize(t, RULES_QUANTUM, rng=derive_rng(seed, 3))
        assert tr.outcome.kind == "normal-form"
        assert [s.weight for s in tr.steps] == [0.5]
        assert tr.final == (chain if str(tr.steps[0].rule) == "quantum:26"
                            else ScalarStar(1.0))


class _Fixed:
    """An rng whose every draw is x: 0.0 takes a measurement's left
    branch, 1.0 its right."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


def _seeded_values(rng, scale=1.0):
    """A value from `from_vector` at a seeded vector proposition, its
    entries times scale, and the proposition, the value wrapped in an inl
    or an inr one time in three."""
    p = _vector_prop_of_dim_at_most(rng, 16)
    n = dim(p)
    t = from_vector((rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    * scale, p)
    pad = _vector_prop_of_dim_at_most(rng, 4)
    wrap = int(rng.integers(3))
    if wrap == 1:
        return Inl(t), OPlus(p, pad)
    if wrap == 2:
        return Inr(t), OPlus(pad, p)
    return t, p


def test_measurement_weights_match_numpy():
    # an oracle apart from the engine: the left branch's weight is
    # |u|^2 / (|u|^2 + |v|^2), the squared norms taken by numpy from
    # to_vector, and the two branches' weights add up to one
    wrapped = set()
    for i in range(80):
        rng = derive_rng(107, i)
        (u, p), (v, r) = _seeded_values(rng), _seeded_values(rng)
        wrapped |= {type(u), type(v)}
        nu = float(np.linalg.norm(to_vector(u, p)) ** 2)
        nv = float(np.linalg.norm(to_vector(v, r)) ** 2)
        t = CaseNd(Inlr2(u, v), Abs("x", Bound(0)), Abs("y", Bound(0)))
        [left] = normalize(t, RULES_QUANTUM, rng=_Fixed(0.0)).steps
        [right] = normalize(t, RULES_QUANTUM, rng=_Fixed(1.0)).steps
        assert (left.rule.number, right.rule.number) == (26, 27)
        assert abs(left.weight - nu / (nu + nv)) < 1e-12
        assert abs(left.weight + right.weight - 1.0) < 1e-12
    assert {Inl, Inr} <= wrapped


def _exact_norm_sq(t):
    """The squared norm of a vector value in exact rationals."""
    return fold(t, lambda node, norms: sum(norms) if norms else
                Fraction(node.value.real) ** 2
                + Fraction(node.value.imag) ** 2)


_TINY = [(1e-200, 1e-200), (1e-170, 1e-200), (3e-170, 4e-170),
         (1e-161, 3e-161)]


def test_tiny_amplitudes_are_weighed_exactly():
    # squares that underflow to zero or to subnormals (numpy's too) are
    # weighed, checked against exact rationals: a measurement's weights,
    # and measure's exact weights, within 1e-12
    pairs = [(ScalarStar(a), ScalarStar(b)) for a, b in _TINY]
    for i in range(40):
        rng = derive_rng(108, i)
        scale = 10.0 ** -float(rng.integers(155, 290))
        pairs.append((_seeded_values(rng, scale)[0],
                      _seeded_values(rng, scale)[0]))
    for u, v in pairs:
        nu, nv = _exact_norm_sq(u), _exact_norm_sq(v)
        assert float(nu + nv) < sys.float_info.min  # below the normals
        want = float(nu / (nu + nv)), float(nv / (nu + nv))
        t = CaseNd(Inlr2(u, v), Abs("x", Inl(Bound(0))),
                   Abs("y", Inr(Bound(0))))
        [left] = normalize(t, RULES_QUANTUM, rng=_Fixed(0.0)).steps
        [right] = normalize(t, RULES_QUANTUM, rng=_Fixed(1.0)).steps
        assert left.weight == pytest.approx(want[0], rel=1e-12, abs=0)
        assert right.weight == pytest.approx(want[1], rel=1e-12, abs=0)
        got = {b["term"]: b["exact_weight"]
               for b in run_measure(t, 50, 1).bins}
        assert got  # the shots land in the two branches' bins only
        assert got.keys() <= {print_term(Inl(u)), print_term(Inr(v))}
        for term, step in ((Inl(u), left), (Inr(v), right)):
            assert got.get(print_term(term), step.weight) == step.weight


@pytest.mark.parametrize("k", [-60, -1, 3, 200])
def test_scaled_norm_is_the_norm_times_a_power_of_four(k):
    for i in range(40):
        t = _seeded_values(derive_rng(109, i))[0]
        assert structural_norm_sq(t, k) \
            == math.ldexp(structural_norm_sq(t), 2 * k)


@pytest.mark.parametrize("j", [520, 792, 990])
def test_the_rescale_undoes_an_underflow_exactly(j):
    # amplitudes scaled by 2**-j, whose squares sum below the normal
    # floats, are weighed at 2**(2 * (k - j)) times their norm, exactly,
    # k being the scale a measurement takes such sums at
    k = quantum._UNDERFLOW_SCALE
    for i in range(40):
        t = _seeded_values(derive_rng(109, i))[0]
        tiny = _seeded_values(derive_rng(109, i), 2.0 ** -j)[0]
        assert structural_norm_sq(tiny) < sys.float_info.min
        assert structural_norm_sq(tiny, k) \
            == math.ldexp(structural_norm_sq(t), 2 * (k - j))
