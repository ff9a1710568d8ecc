import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from inlr_kit import gen, qencode, rewrite
from inlr_kit.cc import RULES_CC, RULES_CC_DET, explore, pi_term
from inlr_kit.iplus import RULES_IPLUS
from inlr_kit.quantum import RULES_QUANTUM, RULES_QUANTUM_DET
from inlr_kit.quantum import ScalarOverflowStuck, ZeroNormStuck, run_measure
from inlr_kit.rewrite import (ND_PAIR, Cursor, Rule, RuleId, RuleSet, Stuck,
                              _alternatives, _draw, find_redexes, join_peak,
                              normalize, reducts, replay_states, step_at,
                              NoMatchError)
from inlr_kit.rng import derive_rng
from inlr_kit.syntax import (ABS, TERM, Abs, App, Bound, Inl, Lam, One,
                             OneElim, OPlus, ScalarStar, Star, Sum, Var,
                             free_names, instantiate, parse_term, print_term,
                             uses_binder)


def ip(s):
    return parse_term(s, "iplus")


def q(s):
    return parse_term(s, "quantum")


# ---------------------------------------------------------------------------
# redex discovery

def test_find_redexes_examples():
    assert find_redexes(ip("top_elim(star, star)"), RULES_IPLUS) \
        == [((), RuleId("iplus", 1))]
    assert find_redexes(Star(), RULES_IPLUS) == []
    assert find_redexes(ip("sum(inl(star), inr(star))"), RULES_IPLUS) \
        == [((), RuleId("iplus", 12))]


@pytest.mark.parametrize("verdict", [True, False])
def test_shared_guard_is_asked_once(verdict):
    calls = []

    def guard(t):
        calls.append(t)
        return verdict

    rules = tuple(Rule(RuleId("test", n), f"r{n}", (Sum, Inl, None),
                       lambda t: t.left, guard=guard) for n in (1, 2))
    rs = RuleSet("shared-guard", "test", rules)
    t = ip("sum(inl(star), star)")
    assert rs.matching(t) == (list(rules) if verdict else [])
    assert calls == [t]


def test_find_redexes_keeps_marks_off_redex_parents():
    # a redex without children still makes its parent hold a redex
    rs = RuleSet("leaf", "test", (Rule(RuleId("test", 1), "star", (Star,),
                                       lambda t: t),))
    t = ip("pair(star, star)")
    want = [((0,), RuleId("test", 1)), ((1,), RuleId("test", 1))]
    assert find_redexes(t, rs) == want
    assert find_redexes(t, rs) == want


def test_find_redexes_leftmost_outermost_order():
    t = ip("pair(top_elim(star, star), sum(star, star))")
    positions = [pos for pos, _ in find_redexes(t, RULES_IPLUS)]
    assert positions == [(0,), (1,)]
    # outer before inner
    t = ip("top_elim(star, top_elim(star, star))")
    positions = [pos for pos, _ in find_redexes(t, RULES_IPLUS)]
    assert positions == [(), (1,)]


def test_find_redexes_lists_nd_alternatives():
    t = q("case_nd(inlr(1.0 . star, 2.0 . star), x. x, y. y)")
    rules = [rid.number for pos, rid in find_redexes(t, RULES_QUANTUM)
             if pos == ()]
    assert rules == [26, 27]


# ---------------------------------------------------------------------------
# stepping

def test_step_case_inlr():
    t = ip("case(inlr(t, u), x. v x, y. w y)")
    out = step_at(t, (), RuleId("iplus", 7))
    assert out == ip("sum(v t, w u)")


def test_step_one_elim():
    out = step_at(q("one_elim(2.0 . star, t)"), (), RuleId("quantum", 19))
    assert out == q("prod(2.0, t)")


def test_rule_numbers_name_one_rule_in_every_table():
    for rs in {*_TABLES.values(), *rewrite._REGISTRY.values()}:
        numbers = [r.rid.number for r in rs.rules]
        assert len(set(numbers)) == len(numbers), rs.name
        assert [rs.by_number(n) for n in numbers] == list(rs.rules)
        with pytest.raises(KeyError, match=f"^{max(numbers) + 1}$"):
            rs.by_number(max(numbers) + 1)


def test_step_no_match():
    for src, pos, message in [
        ("star", (), "rule iplus:1 does not match here"),
        ("pair(star, top_elim(star, star))", (2,),
         "position (2,) does not exist"),
        ("pair(star, top_elim(star, star))", (-1,),
         "position (-1,) does not exist"),
    ]:
        with pytest.raises(NoMatchError, match=re.escape(message)):
            step_at(ip(src), pos, RuleId("iplus", 1))


def test_zero_norm_stuck():
    t = q("case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)")
    with pytest.raises(ZeroNormStuck):
        step_at(t, (), RuleId("quantum", 26))


def test_forced_choice_beats_rng():
    t = q("case_nd(inlr(1.0 . star, 1.0 . star), x. x, y. y)")
    left = step_at(t, (), RuleId("quantum", 26), choice="left")
    right = step_at(t, (), RuleId("quantum", 26), choice="right")
    assert left == q("1.0 . star")
    assert right == q("1.0 . star")
    # same normal forms here, but the branches differ on asymmetric input
    t = q("case_nd(inlr(1.0 . star, 2.0 . star), x. x, y. y)")
    assert (step_at(t, (), RuleId("quantum", 26), choice="right")
            == q("2.0 . star"))


# ---------------------------------------------------------------------------
# normalization and traces

def test_normalize_beta():
    tr = normalize(ip("(lam x:Top. x) star"), RULES_IPLUS)
    assert tr.outcome.kind == "normal-form"
    assert tr.final == Star()
    assert len(tr.steps) == 1


def test_contraction_under_a_binder_keeps_outer_references():
    # the argument z refers to the enclosing binder; put under the binder
    # y it must still refer to it
    tr = normalize(ip("lam z:Top. (lam x:Top. lam y:Top. x) z"), RULES_IPLUS)
    assert [s.pos for s in tr.steps] == [(0,)]
    assert print_term(tr.final) == "lam z:Top. lam y:Top. z"


def test_normalize_sum_of_pairs():
    tr = normalize(ip("sum(pair(star, star), pair(star, star))"), RULES_IPLUS)
    assert tr.final == ip("pair(star, star)")
    assert [s.rule.number for s in tr.steps] == [10, 8, 8]


def test_normalize_scalar_sum():
    tr = normalize(q("sum(1.0 . star, 2.0 . star)"), RULES_QUANTUM)
    assert tr.final == q("3.0 . star")


def test_fuel_exhaustion_outcome():
    t = ip("sum(pair(star, star), pair(star, star))")
    tr = normalize(t, RULES_IPLUS, fuel=1)
    assert tr.outcome.kind == "fuel-exhausted"
    assert len(tr.steps) == 1


def test_fuel_bounds_steps_not_checks():
    tr = normalize(Star(), RULES_IPLUS, fuel=0)
    assert tr.outcome.kind == "normal-form"
    tr = normalize(ip("top_elim(star, star)"), RULES_IPLUS, fuel=0)
    assert tr.outcome.kind == "fuel-exhausted"
    assert tr.steps == []
    # a measurement is weighed before the fuel is checked: a zero-norm
    # one is stuck even with no fuel left
    tr = normalize(q("case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)"),
                   RULES_QUANTUM, fuel=0)
    assert (tr.outcome.kind, tr.outcome.reason) == ("stuck", "zero-norm")
    # a contraction is built after the fuel check: an overflow one step
    # past the fuel is not reached
    t = q("prod(1e200, prod(1e200, 1.0 . star))")
    tr = normalize(t, RULES_QUANTUM, fuel=1)
    assert tr.outcome.kind == "fuel-exhausted"
    assert [s.rule.number for s in tr.steps] == [39]
    tr = normalize(t, RULES_QUANTUM, fuel=2)
    assert (tr.outcome.kind, tr.outcome.reason) == ("stuck",
                                                     "scalar-overflow")
    assert len(tr.steps) == 1


def test_zero_norm_normalize_outcome():
    t = q("case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)")
    tr = normalize(t, RULES_QUANTUM, rng=derive_rng(1, 2))
    assert tr.outcome.kind == "stuck"
    assert tr.outcome.reason == "zero-norm"


def test_trace_replay_reproduces_exactly():
    for i, src in enumerate([
        "sum(case(inl(star), x. x, y. y), top_elim(star, star))",
        "(lam x:Top\\/Top. case(x, a. inr(a), b. inl(b))) inlr(star, star)",
    ]):
        tr = normalize(ip(src), RULES_IPLUS)
        assert list(replay_states(tr))[-1] == tr.final


def test_trace_replay_probabilistic():
    t = q("case_nd(inlr(1.0 . star, 1.0 . star), "
          "x. one_elim(x, inl(1.0 . star)), "
          "y. one_elim(y, inr(1.0 . star)))")
    for seed in range(6):
        tr = normalize(t, RULES_QUANTUM, rng=derive_rng(seed, 0))
        assert list(replay_states(tr))[-1] == tr.final


def test_trace_serialization():
    tr = normalize(ip("top_elim(star, star)"), RULES_IPLUS)
    lines = tr.step_lines()
    assert len(lines) == 1
    data = json.loads(lines[0])
    assert data == {"pos": [], "rule": "iplus:1", "weight": None}


# `to_vector`'s normalization of a compiled column applied to 1.0 . star,
# at a left-nested vector proposition of n leaves, in a fresh interpreter
# that prints its peak RSS and the positions of some steps.  The peak is
# read as VmHWM, the interpreter's own: its `ru_maxrss` would start from
# the RSS of the test process that spawned it.  The trace is
# a beta and a one_elim step at the root, rule 43 pushing the scalar down
# the left spine, (0,) * k for k = 0..n-2, and rule 39 at the n leaves,
# the deepest (0,) * (n-1) first and (1,) last: 2n + 1 steps.
_DEEP_RUN = """
import json, re, sys, time
import numpy as np
from inlr_kit.qencode import compile_matrix
from inlr_kit.quantum import RULES_QUANTUM, RULES_QUANTUM_DET
from inlr_kit.rewrite import normalize
from inlr_kit.syntax import App, One, OPlus, ScalarStar
n, table, rounds = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
rules = {"quantum": RULES_QUANTUM, "quantum-det": RULES_QUANTUM_DET}[table]
p = One()
for _ in range(n - 1):
    p = OPlus(p, One())
seconds = []
for _ in range(rounds):  # a fresh term each round: no redex-free marks
    m = compile_matrix((np.arange(n) + 1.0).reshape(n, 1), One(), p)
    start = time.perf_counter()
    tr = normalize(App(m, ScalarStar(1.0)), rules)
    seconds.append(time.perf_counter() - start)
with open("/proc/self/status") as fh:
    rss_mb = int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1]) / 1024
s = tr.steps
# every step's position, digested along the shared cells
digests = {id(None): 0}
for step in s:
    cell, up = step.cell, []
    while id(cell) not in digests:
        up.append(cell)
        cell = cell[1]
    for cell in reversed(up):
        digests[id(cell)] = hash((cell[0], digests[id(cell[1])]))
print(json.dumps({"rss_mb": rss_mb, "kind": tr.outcome.kind,
                  "count": len(s), "first": s[0].pos, "deep": s[n + 1].pos,
                  "next": s[n + 2].pos, "last": s[-1].pos,
                  "deep_json": s[n + 1].to_json(),
                  "deep_repr": repr(s[n + 1]),
                  "rules": [str(step.rule) for step in s],
                  "positions": hash(tuple(digests[id(step.cell)]
                                          for step in s)),
                  "seconds": min(seconds)}))
"""


def _deep_run(n, table="quantum-det", rounds=1):
    """The deep input normalized in a fresh interpreter; the seconds are
    the fastest of `rounds` normalizations."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qencode.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _DEEP_RUN, str(n), table,
                           str(rounds)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_deep_normalization_keeps_positions_linear():
    # a step keeps its position as the cursor's cell, shared with the
    # steps before it, so the trace is linear in the steps; a copied
    # frame stack per step took 808 MB at n = 10 000.  The runs go up in
    # size and each is checked at once, so a quadratic trace stops early
    rss = []
    for n in (5000, 10000, 20000):
        run = _deep_run(n)
        assert run["rss_mb"] < 200, (n, run["rss_mb"])
        rss.append(run["rss_mb"])
        assert (run["kind"], run["count"]) == ("normal-form", 2 * n + 1)
        assert run["first"] == []
        assert run["deep"] == [0] * (n - 1)
        assert run["next"] == [0] * (n - 2) + [1]
        assert run["last"] == [1]
        assert run["deep_json"] == {"rule": "quantum:39",
                                    "pos": [0] * (n - 1), "weight": None}
        if n == 10000:
            assert run["deep_repr"] == (
                "Step(rule=RuleId(calculus='quantum', number=39), "
                f"pos={(0,) * (n - 1)!r}, weight=None)")
    # near-linear: doubling n from 10 000 adds at most about twice what
    # doubling from 5000 did (a trace quadratic in n adds four times)
    assert rss[2] - rss[1] < 3 * max(rss[1] - rss[0], 4), rss


def test_deep_normalization_under_guards_keeps_pace():
    # under RULES_QUANTUM a contraction resumes at the outermost frame
    # whose constructor carries a guard (case_nd's); the cursor notes it
    # when the frame is pushed.  A scan of the frame stack from the root
    # at every contraction makes this run about 25 times the quantum-det
    # one, which has no guards
    n = 10000
    det = _deep_run(n, "quantum-det", rounds=3)
    guarded = _deep_run(n, "quantum", rounds=3)
    for key in ("kind", "count", "first", "deep", "next", "last", "rules",
                "positions"):
        assert guarded[key] == det[key], key
    assert guarded["count"] == 2 * n + 1
    assert guarded["seconds"] < 5 * det["seconds"], (guarded, det)


def test_probabilistic_weights_sum_to_one():
    # squared norms 1 and 4 give branch weights 1/5 and 4/5
    t = q("case_nd(inlr(1.0 . star, 2.0 . star), x. x, y. y)")
    weights = set()
    for seed in range(20):
        tr = normalize(t, RULES_QUANTUM, rng=derive_rng(seed, 7))
        weights.add(round(tr.steps[0].weight, 12))
    assert weights <= {0.2, 0.8}
    assert len(weights) == 2  # both branches observed over 20 seeds


# ---------------------------------------------------------------------------
# peaks

def test_join_peak_examples():
    assert join_peak(ip("sum(top_elim(star, star), star)"), RULES_IPLUS)
    assert join_peak(Star(), RULES_IPLUS)


def test_join_peak_quantum_det():
    t = q("sum(prod(2.0, inlr(1.0 . star, 0.0 . star)), "
          "inlr(1.0 . star, 1.0 . star))")
    assert join_peak(t, RULES_QUANTUM_DET)


def test_deterministic_given_seed():
    t = q("case_nd(inlr(1.0 . star, 1.0 . star), x. x, y. y)")
    a = normalize(t, RULES_QUANTUM, rng=derive_rng(42, 0)).final
    b = normalize(t, RULES_QUANTUM, rng=derive_rng(42, 0)).final
    assert a == b


# ---------------------------------------------------------------------------
# differential: the engine against a brute-force reference

def reference_redexes(t, ruleset):
    """Every position via `_paths`, every rule via a scan of the table."""
    out = []

    def walk(t, pos):
        out.extend((pos, r.rid) for r in ruleset.rules if r.match(t))
        for i, (name, kind) in enumerate(t._paths):
            child = getattr(t, name)
            walk(child.body if kind == "abs" else child, pos + (i,))

    walk(t, ())
    return out


_TABLES = {"iplus": RULES_IPLUS, "quantum": RULES_QUANTUM,
           "quantum-det": RULES_QUANTUM_DET, "cc": RULES_CC,
           "cc-det": RULES_CC_DET}

# each full table, gen's redex builder for it and its rule numbers
_RULE_INSTANCES = ((RULES_IPLUS, gen.iplus_rule_instance, range(1, 20)),
                   (RULES_QUANTUM, gen.quantum_rule_instance, range(19, 44)),
                   (RULES_CC, gen.cc_rule_instance, range(1, 43)))

# enough steps for the full-length runs in _differential_terms
FULL_LENGTH = 64


def _differential_terms():
    """(table, term) pairs: gen's random terms and every rule instance."""
    for j, (name, rs) in enumerate(_TABLES.items()):
        for i in range(25):
            rng = derive_rng(91, j, i)
            _ctx, t, _goal = gen.random_term_in_context(
                rs.calculus, rng, allow_nd=name == "quantum")
            yield rs, t
    for rs, make, numbers in _RULE_INSTANCES:
        for number in numbers:
            for i in range(2):
                _ctx, t, _goal = make(number, derive_rng(92, number, i))
                yield rs, t
    # full-length runs: a matrix-vector product (contractions deep in a
    # sum, where the parent turns into a redex), a measurement of a state,
    # and a measurement whose scrutinee holds another one (each contraction
    # there changes what the guard of the root says)
    rng = derive_rng(94, 0)
    p2 = qencode.qn_prop(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    yield RULES_QUANTUM_DET, App(qencode.compile_matrix(m, p2, p2),
                                 qencode.from_vector(rng.standard_normal(4),
                                                     p2))
    yield RULES_QUANTUM, App(qencode.meas_first(2),
                             qencode.from_vector(rng.standard_normal(4), p2))
    yield RULES_QUANTUM, q("case_nd(inlr(case_nd(inlr(1.0 . star, "
                           "2.0 . star), x. prod(3.0, x), y. prod(0.5, y)), "
                           "3.0 . star), x. x, y. prod(2.0, y))")


def test_find_redexes_matches_reference():
    for rs, t in _differential_terms():
        want = reference_redexes(t, rs)
        # twice: the second search runs over the marks the first one left
        assert find_redexes(t, rs) == want, (rs.name, print_term(t))
        assert find_redexes(t, rs) == want, (rs.name, print_term(t))


def test_every_trace_step_is_the_first_redex():
    outcomes = []
    for k, (rs, t) in enumerate(_differential_terms()):
        tr = normalize(t, rs, fuel=FULL_LENGTH, rng=derive_rng(93, k))
        state = t
        for s in tr.steps:
            pos, rid = reference_redexes(state, rs)[0]
            rule = rs.by_number(s.rule.number)
            assert s.pos == pos, (rs.name, print_term(state))
            if rule.group == ND_PAIR:
                assert s.rule.number in (26, 27) and rid.number == 26
            else:
                assert s.rule == rid, (rs.name, print_term(state))
            choice = rule.role if rule.group == ND_PAIR else None
            state = step_at(state, s.pos, s.rule, choice=choice, ruleset=rs)
        assert state == tr.final
        if tr.outcome.kind == "normal-form":
            assert reference_redexes(state, rs) == []
        outcomes.append(tr.outcome.kind)
    # the full-length runs come last
    assert outcomes[-3:] == ["normal-form"] * 3


def _reference_normalize(t, rs, fuel=10 ** 6, rng=None):
    """normalize as one `next_step` per step: the position and every
    alternative at each redex, the fuel checked after both; returns the
    (rule, pos, weight) steps, their JSON lines, the outcome kind, its
    reason and the final term."""
    cur = Cursor(t, rs)
    steps = []
    try:
        while True:
            here = cur.seek()
            if here is None:
                kind, reason = "normal-form", None
                break
            pos, alternatives = cur.pos(), _alternatives(cur.focus, here)
            if len(steps) >= fuel:
                kind, reason = "fuel-exhausted", None
                break
            rule, weight = _draw(alternatives, rng)
            cur.contract(rule.build)
            steps.append((rule.rid, pos, weight))
    except Stuck as e:
        kind, reason = "stuck", e.reason
    lines = [json.dumps({"rule": str(rid), "pos": list(pos),
                         "weight": weight}, sort_keys=True)
             for rid, pos, weight in steps]
    return steps, lines, kind, reason, cur.term()


def _fused_loop_inputs():
    """(table, make, fuel, rng seed): make() builds a fresh copy of the
    term, so neither side walks over the marks the other left.  Each gen
    term runs at fuel 40 and again at fuel 3, which cuts many runs short;
    the measurements and the stuck runs are made by hand."""
    for name, rng_seed in (("iplus", None), ("quantum", 95),
                           ("quantum-det", None), ("cc", None)):
        rs = _TABLES[name]
        for i in range(40):
            def make(i=i, rs=rs, name=name):
                return gen.random_term_in_context(
                    rs.calculus, derive_rng(96, i), max_size=40,
                    allow_nd=name == "quantum")[1]
            for fuel in (40, 3):
                yield rs, make, fuel, rng_seed and (rng_seed, i)
    for k, text in enumerate((
            "case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)",
            "prod(1e200, prod(1e200, 1.0 . star))",
            "case_nd(inl(1.0 . star), x. x, y. y)",
            "case_nd(inlr(sum(1.0 . star, 1.0 . star), 2.0 . star), "
            "x. prod(0.5, x), y. y)",
            "case_nd(inlr(case_nd(inlr(1.0 . star, 2.0 . star), "
            "x. prod(3.0, x), y. prod(0.5, y)), 3.0 . star), "
            "x. x, y. prod(2.0, y))")):
        for j in range(4):
            yield RULES_QUANTUM, lambda text=text: q(text), 40, (98, k, j)
    for j in range(4):
        def make():
            p2 = qencode.qn_prop(2)
            u = derive_rng(99, 0).standard_normal(4)
            return App(qencode.meas_first(2), qencode.from_vector(u, p2))
        yield RULES_QUANTUM, make, 40, (99, 1, j)
    for d in (4, 16):
        def make(d=d):
            rng = derive_rng(97, d)
            p = qencode.qn_prop(d.bit_length() - 1)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return App(qencode.compile_matrix(m, p, p),
                       qencode.from_vector(rng.standard_normal(d), p))
        yield RULES_QUANTUM_DET, make, 10 ** 6, None


def test_normalize_matches_the_next_step_loop():
    kinds, weights = set(), set()
    for rs, make, fuel, seed in _fused_loop_inputs():
        want = _reference_normalize(make(), rs, fuel,
                                    seed and derive_rng(*seed))
        tr = normalize(make(), rs, fuel, seed and derive_rng(*seed))
        got = ([(s.rule, s.pos, s.weight) for s in tr.steps],
               tr.step_lines(), tr.outcome.kind,
               getattr(tr.outcome, "reason", None), tr.final)
        assert got[:4] == want[:4], rs.name
        assert repr(got[4]) == repr(want[4]), rs.name
        kinds.add((rs.name, tr.outcome.kind))
        weights.update(s.weight for s in tr.steps)
    assert kinds >= {(name, kind) for name in ("iplus", "quantum",
                                               "quantum-det", "cc")
                     for kind in ("normal-form", "fuel-exhausted")}
    assert ("quantum", "stuck") in kinds
    # unweighted steps, a certain one and drawn measurements
    assert {None, 1.0} < weights and len(weights) > 3


def _checked_contract(monkeypatch):
    """Hold every `Cursor.contract` to `matching`: the rules it returns
    are those at the parent when the focus moves there, and none when the
    focus stays, the parent then no redex.  Counts the calls by where the
    focus went: "parent", "stays", or "climbs" to a guarded ancestor."""
    contract = Cursor.contract
    counts = dict.fromkeys(("parent", "stays", "climbs"), 0)

    def checked(cur, build):
        depth = len(cur.stack)
        here = contract(cur, build)
        if len(cur.stack) == depth:
            assert not here
            if depth:
                node, _, kids, _, _, _, _ = cur.stack[-1]
                assert cur.rs.matching(node._rebuild(node, kids)) == []
            counts["stays"] += 1
        elif here:
            assert len(cur.stack) == depth - 1
            assert list(here) == cur.rs.matching(cur.focus)
            counts["parent"] += 1
        else:
            counts["climbs"] += 1
        return here

    monkeypatch.setattr(Cursor, "contract", checked)
    return counts


def test_contract_returns_the_rules_at_the_parent(monkeypatch):
    # gen's terms of every table and the pinned reduction corpus
    counts = _checked_contract(monkeypatch)
    for k, (rs, t) in enumerate(_differential_terms()):
        normalize(t, rs, fuel=FULL_LENGTH, rng=derive_rng(93, k))
    for _table, _ident, record in _reduction_corpus():
        record()
    assert min(counts.values()) > 0, counts


def _reducts_reference(t, rs):
    """The one-step reducts, each stepped from the root."""
    return [(pos, rid, step_at(t, pos, rid, ruleset=rs))
            for pos, rid in find_redexes(t, rs)]


def _outcome(run):
    """repr of what run() returns, or the name of the Stuck it raises."""
    try:
        return repr(run())
    except Stuck as e:
        return type(e).__name__


def test_reducts_match_step_at():
    # the random terms of every table and every rule instance, plain and
    # under binders: the same triples, binder hints included, and the same
    # stuck redexes
    def terms():
        for j, (name, rs) in enumerate(_TABLES.items()):
            for i in range(25):
                _ctx, t, _goal = gen.random_term_in_context(
                    rs.calculus, derive_rng(105, j, i),
                    allow_nd=name == "quantum")
                yield rs, t
        for rs, make, numbers in _RULE_INSTANCES:
            for number in numbers:
                for i in range(2):
                    yield rs, make(number, derive_rng(106, number, i))[1]

    checked = 0
    for rs, t in terms():
        for _tag, u in _variants(t):
            fresh = _outcome(lambda: reducts(u, rs))
            want = _outcome(lambda: _reducts_reference(u, rs))
            # again, over the marks the walks have left
            assert fresh == want == _outcome(lambda: reducts(u, rs)), \
                (rs.name, print_term(u))
            checked += 1
    assert checked > 400


@pytest.mark.parametrize("rs,text,stuck", [
    (RULES_QUANTUM, "case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)",
     ZeroNormStuck),
    (RULES_QUANTUM, "inl(sum(1.0 . star, case_nd(inlr(0.0 . star, "
                    "0.0 . star), x. x, y. y)))", ZeroNormStuck),
    (RULES_QUANTUM, "prod(1e200, 1e200 . star)", ScalarOverflowStuck),
    (RULES_QUANTUM_DET, "inl(sum(1.7e308 . star, 1.7e308 . star))",
     ScalarOverflowStuck),
])
def test_reducts_raise_what_step_at_raises(rs, text, stuck):
    t = q(text)
    with pytest.raises(stuck):
        _reducts_reference(t, rs)
    with pytest.raises(stuck):
        reducts(t, rs)


def test_reducts_share_what_is_off_the_path():
    t = ip("case(top_elim(star, z), a. a, b. lam x:A. b)")
    [(pos, rid, u)] = reducts(t, RULES_IPLUS)
    assert (pos, rid) == ((0,), RuleId("iplus", 1))
    assert u.scrut == Var("z")
    assert u.left is t.left and u.right is t.right


def _bind_names(t, names):
    """t under one lambda per name, the first name outermost."""
    for name in reversed(names):
        t = Lam(None, _close_term(t, name))
    return t


def test_every_rule_under_binders():
    # a redex whose free variables are bound above it contracts to the
    # root contraction of the open redex, bound the same way
    for rs, make, numbers in _RULE_INSTANCES:
        for number in numbers:
            for i in range(2):
                _ctx, t, _goal = make(number, derive_rng(95, number, i))
                rid = RuleId(rs.calculus, number)
                names = sorted(free_names(t))
                bound = _bind_names(t, names)
                got = step_at(bound, (0,) * len(names), rid, ruleset=rs)
                want = _bind_names(step_at(t, (), rid, ruleset=rs), names)
                assert repr(got) == repr(want), (rid, print_term(bound))


def _closed_leaves(t, pos=(), depth=0):
    """(position, binders above it, leaf) for every leaf of t that is
    not a variable."""
    slots = t._paths
    if not slots and not isinstance(t, (Var, Bound)):
        yield pos, depth, t
    for i, (name, kind) in enumerate(slots):
        child = getattr(t, name)
        if kind == "abs":
            yield from _closed_leaves(child.body, pos + (i,), depth + 1)
        else:
            yield from _closed_leaves(child, pos + (i,), depth)


def _replace_at(t, pos, u):
    if not pos:
        return u
    kids = list(t._kids(t))
    kids[pos[0]] = _replace_at(kids[pos[0]], pos[1:], u)
    return t._rebuild(t, kids)


def test_quantum_rules_with_loose_indices():
    # a closed leaf of a quantum redex abstracted to a binder outside the
    # redex: contracting there and then plugging the leaf back in gives
    # the contraction of the closed redex
    checked = set()
    for number in range(19, 44):
        rid = RuleId("quantum", number)
        rule = RULES_QUANTUM.by_number(number)
        for i in range(4):
            _ctx, t, _goal = gen.quantum_rule_instance(
                number, derive_rng(103, number, i))
            want = repr(step_at(t, (), rid, ruleset=RULES_QUANTUM))
            for pos, depth, leaf in _closed_leaves(t):
                u = _replace_at(t, pos, Bound(depth))
                if not rule.match(u):
                    continue  # the head or a guard inspects this leaf
                got = step_at(Lam(None, Abs("w", u)), (0,), rid,
                              ruleset=RULES_QUANTUM)
                assert repr(instantiate(got.abs.body, (leaf,))) == want, \
                    (rid, pos)
                checked.add(number)
    # only sum-scalar and prod-scalar inspect every closed leaf they have
    assert checked == set(range(19, 44)) - {28, 39}


def test_a_deep_term_normalizes_without_recursion():
    # the walk keeps its path in a list, so depth costs no Python stack
    depth = 10 ** 5
    t = ip("top_elim(star, star)")
    for _ in range(depth):
        t = Inl(t)
    tr = normalize(t, RULES_IPLUS)
    assert tr.outcome.kind == "normal-form"
    assert [(s.rule, s.pos) for s in tr.steps] \
        == [(RuleId("iplus", 1), (0,) * depth)]
    u = tr.final
    for _ in range(depth):
        assert type(u) is Inl
        u = u.body
    assert u == Star()


# ---------------------------------------------------------------------------
# instantiate against the map_vars formulation it replaced

def _map_vars(t, on_var, on_bound, depth=0):
    """Rebuild t with every variable replaced, visiting every node."""
    if isinstance(t, Var):
        return on_var(t, depth)
    if isinstance(t, Bound):
        return on_bound(t, depth)
    kwargs = {}
    changed = False
    for nm, kind in t._shape:
        old = new = getattr(t, nm)
        if kind == TERM:
            new = _map_vars(old, on_var, on_bound, depth)
        elif kind == ABS:
            body = _map_vars(old.body, on_var, on_bound, depth + 1)
            if body is not old.body:
                new = Abs(old.hint, body)
        changed = changed or new is not old
        kwargs[nm] = new
    return type(t)(**kwargs) if changed else t


def _close_term(t, name):
    """The abstraction of the free variable `name` out of t."""
    body = _map_vars(
        t, lambda v, depth: Bound(depth) if v.name == name else v,
        lambda b, depth: Bound(b.index + 1) if b.index >= depth else b)
    return Abs(name, body)


def _reference_instantiate(t, args=(), shift=0):
    n = len(args)
    if not n and not shift:
        return t

    def on_bound(b, depth):
        k = b.index - depth
        if k < 0:
            return b
        if k < n:
            return _reference_instantiate(args[k], (), depth)
        return Bound(b.index - n + shift)

    return _map_vars(t, lambda v, depth: v, on_bound)


def _nodes(t):
    """(node, binders above it in t) for every node of t."""
    out = []
    todo = [(t, 0)]
    while todo:
        t, depth = todo.pop()
        out.append((t, depth))
        for name, kind in t._paths:
            child = getattr(t, name)
            todo.append((child.body, depth + 1) if kind == ABS
                        else (child, depth))
    return out


def _recount(t):
    """1 + the largest loose index of t, or 0, counted afresh."""
    return max([u.index - depth + 1 for u, depth in _nodes(t)
                if isinstance(u, Bound)] + [0])


def _check_kept(t, got):
    """Every node of t whose stored range is at most its depth comes back
    as itself; walks t and its instance side by side."""
    todo = [(t, got, 0)]
    while todo:
        old, new, depth = todo.pop()
        r = old.__dict__.get("_loose")
        if r is not None and r <= depth:
            assert new is old
        elif not isinstance(old, Bound):
            assert type(new) is type(old)
            for (name, kind), a, b in zip(old._paths, old._kids(old),
                                          new._kids(new)):
                todo.append((a, b, depth + (kind == ABS)))


def _instantiate_inputs():
    """Terms with and without loose indices: gen's terms of the three
    calculi and every rule instance, with the bodies of their binders and
    their free variables bound."""
    for k, calculus in enumerate(("iplus", "quantum", "cc")):
        for i in range(30):
            _ctx, t, _goal = gen.random_term_in_context(
                calculus, derive_rng(97, k, i))
            yield t
    for rs, make, numbers in _RULE_INSTANCES:
        for number in numbers:
            _ctx, t, _goal = make(number, derive_rng(98, number))
            yield t


def test_instantiate_matches_the_map_vars_reference():
    args_rng = derive_rng(99, 0)
    checked = 0
    for top in _instantiate_inputs():
        names = sorted(free_names(top))
        bodies = [top] + [_close_term(top, x).body for x in names[:2]]
        bodies += [a.body for u, _ in _nodes(top) for name, kind
                   in u._paths if kind == ABS
                   for a in [getattr(u, name)]]
        _ctx, u, _goal = gen.random_term_in_context("iplus", args_rng)
        loose = App(Bound(1), _close_term(u, "u").body) if free_names(u) \
            else App(Bound(1), Bound(0))
        for body in bodies:
            want_uses = any(isinstance(v, Bound) and v.index == depth
                            for v, depth in _nodes(body))
            assert uses_binder(Abs("x", body)) == want_uses
            for args in ((), (u,), (loose,), (loose, u), (Bound(0), u)):
                for shift in (-1, 0, 1, 2):
                    want = repr(_reference_instantiate(body, args, shift))
                    for _fresh_then_stored in range(2):
                        got = instantiate(body, args, shift)
                        assert repr(got) == want, (print_term(top), args,
                                                   shift)
                        _check_kept(body, got)
                    checked += 1
        for t in [top, u, loose]:
            for node, _ in _nodes(t):
                r = node.__dict__.get("_loose")
                assert r is None or r == _recount(node)
    assert checked > 10000


def test_root_beta_keeps_the_closed_columns():
    # the matrix's columns are closed: the root beta of a d=16 product
    # keeps them, and with them their normal-form marks
    rng = derive_rng(100, 0)
    p = qencode.qn_prop(4)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    t = App(qencode.compile_matrix(m, p, p),
            qencode.from_vector(rng.standard_normal(16), p))
    find_redexes(t, RULES_QUANTUM_DET)  # marks the redex-free nodes

    def columns(t):
        return [u.body for u, _ in _nodes(t) if isinstance(u, OneElim)]

    before = columns(t)
    assert len(before) == 16
    assert all("quantum-det" in c._nf for c in before)
    tr = normalize(t, RULES_QUANTUM_DET, fuel=1)
    assert [(s.rule, s.pos) for s in tr.steps] == [(RuleId("quantum", 20),
                                                    ())]
    after = columns(tr.final)
    assert len(after) == 16
    assert all(a is b for a, b in zip(after, before))
    assert all("quantum-det" in c._nf for c in after)


def test_beta_into_a_deep_body_normalizes():
    # neither the substitution nor the walks around it recurse per level
    depth = 10 ** 5
    chain = Bound(0)
    for _ in range(depth):
        chain = Inl(chain)
    tr = normalize(App(Lam(One(), Abs("x", chain)), ScalarStar(1.0)),
                   RULES_QUANTUM_DET)
    assert tr.outcome.kind == "normal-form"
    assert [s.rule for s in tr.steps] == [RuleId("quantum", 20)]
    u = tr.final
    for _ in range(depth):
        assert type(u) is Inl
        u = u.body
    assert u == ScalarStar(1.0)


# ---------------------------------------------------------------------------
# pinned reductions

_REDUCTIONS = os.path.join(os.path.dirname(__file__), "reductions.tsv")


def _variants(t):
    """t, and t with its free variables bound when it has any."""
    yield "", t
    names = sorted(free_names(t))
    if names:
        yield "-bound", _bind_names(t, names)


def _balanced_prop(d):
    """A vector proposition of dimension d, split as evenly as it goes."""
    if d == 1:
        return One()
    return OPlus(_balanced_prop(d // 2), _balanced_prop(d - d // 2))


def _record(rs, t, fuel, rng=None, redexes=12):
    """The normalize trace of t, its outcome and final term, and the
    contraction at each of its first `redexes` redexes."""
    tr = normalize(t, rs, fuel=fuel, rng=rng)
    parts = [json.dumps([s.to_json() for s in tr.steps], sort_keys=True),
             tr.outcome.kind, repr(tr.final)]
    for pos, rid in find_redexes(t, rs)[:redexes]:
        try:
            parts.append(repr(step_at(t, pos, rid, ruleset=rs)))
        except ZeroNormStuck as e:
            parts.append(f"{type(e).__name__} {e}")
    return "\n".join(parts)


def _reduction_corpus():
    """(table, id, record thunk) for every pinned reduction."""
    for j, (name, rs) in enumerate(_TABLES.items()):
        fuel = 40 if rs.calculus == "cc" else 2000
        for i in range(30):
            rng = derive_rng(96, j, i)
            _ctx, t, _goal = gen.random_term_in_context(
                rs.calculus, rng, allow_nd=name == "quantum")
            for tag, u in _variants(t):
                yield name, f"gen-{i}{tag}", \
                    lambda u=u, rs=rs, fuel=fuel, k=i: "\n".join((
                        _record(rs, u, fuel, rng=derive_rng(97, k)),
                        _record(rs, u, 5, rng=derive_rng(97, k))))
    for rs, make, numbers in _RULE_INSTANCES:
        fuel = 40 if rs.calculus == "cc" else 2000
        for number in numbers:
            for i in range(2):
                _ctx, t, _goal = make(number, derive_rng(98, number, i))
                for tag, u in _variants(t):
                    yield rs.name, f"rule-{number}-{i}{tag}", \
                        lambda u=u, rs=rs, fuel=fuel: _record(rs, u, fuel)
    for n in (1, 2, 3):
        for k in range(4):
            rng = derive_rng(99, n, k)
            v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            t = App(qencode.meas_first(n),
                    qencode.from_vector(v, qencode.qn_prop(n)))
            yield "quantum", f"meas-{n}-{k}", \
                lambda t=t, n=n, k=k: "\n".join(
                    _record(RULES_QUANTUM, t, 2000,
                            rng=derive_rng(100, n, k, shot), redexes=0)
                    for shot in range(5))
    yield from _measure_corpus()
    for d in range(2, 9):
        rng = derive_rng(101, d)
        p = _balanced_prop(d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        t = App(qencode.compile_matrix(m, p, p), qencode.from_vector(u, p))
        yield "quantum-det", f"matvec-{d}", \
            lambda t=t: _record(RULES_QUANTUM_DET, t, 10 ** 6, redexes=0)
    for number in range(1, 43):
        _ctx, t, _goal = gen.cc_rule_instance(number, derive_rng(102, number))
        for tag, u in _variants(t):
            yield "cc", f"explore-{number}{tag}", \
                lambda u=u: explore(u, node_budget=60).to_dot()
    # random terms at the cc-explore benchmark's size and budget, graphs
    # that hit the budget and graphs that do not
    for i in range(40):
        _ctx, t, _goal = gen.random_term_in_context(
            "cc", derive_rng(104, i), max_size=30)
        yield "cc", f"explore-gen-{i}", \
            lambda t=t: explore(t, node_budget=100).to_dot()
    # the inner scrutinees on pi_term's indices: Bound(0) is x1 in t1 and
    # x2 in t2
    t1 = App(Bound(0), Var("x2"))
    t2 = App(Bound(0), Var("x1"))
    for number in (36, 37, 39, 40, 41, 42):
        yield "cc", f"pi-{number}", \
            lambda n=number: repr(pi_term(n, Var("t"), t1, t2))


def _nested_measure_text(a, b, c, d):
    """The nested shape of the measure benchmark: one component of the
    outer scrutinee is itself an unevaluated measurement."""
    return (f"case_nd(inlr(case_nd(inlr({a!r} . star, {b!r} . star), "
            f"x. x, y. prod(0.0, y)), {c!r} . star), "
            f"x. x, y. prod({d!r}, y))")


def _deep_measure_text(depth):
    """`depth` measurements along one path: each leans 9:1 towards the
    branch that measures again, so most shots draw many times."""
    text = "2.0 . star"
    for k in range(depth):
        if k % 2:
            text = (f"case_nd(inlr(3.0 . star, 1.0 . star), "
                    f"x. one_elim(x, {text}), y. y)")
        else:
            text = (f"case_nd(inlr(1.0 . star, 3.0 . star), "
                    f"x. x, y. one_elim(y, {text}))")
    return text


# (id, term text, shots, seed, fuels): the measurement edge cases
_MEASURE_CASES = [
    ("zero", "case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)", 50, 1,
     (10 ** 6,)),
    # one branch reaches a measurement with no weight
    ("zero-inner", "case_nd(inlr(1.0 . star, 1.0 . star), "
     "x. one_elim(x, case_nd(inlr(0.0 . star, 0.0 . star), a. a, b. b)), "
     "y. y)", 200, 2, (10 ** 6,)),
    ("overflow", "sum(1.7e308 . star, 1.7e308 . star)", 50, 3, (10 ** 6,)),
    ("overflow-branch", "case_nd(inlr(1.0 . star, 3.0 . star), "
     "x. one_elim(x, sum(1.7e308 . star, 1.7e308 . star)), y. y)", 200, 4,
     (10 ** 6,)),
    # components that are not vector values: a uniform draw, no exact
    # weights, and equal outcomes whose binder hints differ
    ("non-vector", "case_nd(inlr(lam x:One. x, lam y:One. y), a. a, b. b)",
     200, 5, (10 ** 6,)),
    ("non-vector-inner", "case_nd(inlr(1.0 . star, 2.0 . star), "
     "x. one_elim(x, case_nd(inlr(lam u:One. u, lam w:One. w), a. a, b. b)), "
     "y. one_elim(y, lam v:One. v))", 300, 6, (10 ** 6,)),
    # fuels that end a run before, at and after each measurement
    ("fuel-nested", _nested_measure_text(3.0, 1.0, 1.0, 2.0), 100, 7,
     tuple(range(9))),
    # up to 12 draws a shot, so a shot's stream is read past its first
    # and second Philox blocks of four words; fuel 30 ends the runs of
    # the three deepest leaves
    ("deep", _deep_measure_text(12), 300, 9, (10 ** 6, 30)),
    # a zero-norm measurement at little or no fuel: stuck before the fuel
    # check, at the root and in a branch
    ("zero-fuel", "case_nd(inlr(0.0 . star, 0.0 . star), x. x, y. y)", 20, 1,
     (0, 1, 2, 3)),
    ("zero-inner-fuel", "case_nd(inlr(1.0 . star, 1.0 . star), "
     "x. one_elim(x, case_nd(inlr(0.0 . star, 0.0 . star), a. a, b. b)), "
     "y. y)", 20, 1, (0, 1, 2, 3)),
    # squared norms too large for a float: a square, a complex modulus and
    # the sum of two finite squares are stuck, not drawn, also in a branch
    # and at little or no fuel
    ("norm-overflow-square", "case_nd(inlr(1e200 . star, 1.0 . star), "
     "x. one_elim(x, inl(1.0 . star)), y. one_elim(y, inr(1.0 . star)))",
     50, 10, (10 ** 6,)),
    ("norm-overflow-modulus", "case_nd(inlr((1e308, 1e308) . star, "
     "1.0 . star), x. one_elim(x, inl(1.0 . star)), "
     "y. one_elim(y, inr(1.0 . star)))", 50, 11, (10 ** 6,)),
    ("norm-overflow-sum", "case_nd(inlr(1.3e154 . star, 1.3e154 . star), "
     "x. one_elim(x, inl(1.0 . star)), y. one_elim(y, inr(1.0 . star)))",
     50, 12, (10 ** 6,)),
    ("norm-overflow-inner", "case_nd(inlr(1.0 . star, 3.0 . star), "
     "x. one_elim(x, case_nd(inlr(1.3e154 . star, 1.3e154 . star), "
     "a. a, b. b)), y. y)", 200, 13, (0, 1, 2, 3, 10 ** 6)),
    # squares that underflow are weighed, not stuck: two equal, far apart
    # or summing below a float, and subnormal ones, also in a branch
    ("norm-underflow-equal", "case_nd(inlr(1e-200 . star, 1e-200 . star), "
     "x. one_elim(x, inl(1.0 . star)), y. one_elim(y, inr(1.0 . star)))",
     200, 14, (10 ** 6,)),
    ("norm-underflow-ratio", "case_nd(inlr(1e-170 . star, 1e-200 . star), "
     "x. one_elim(x, inl(1.0 . star)), y. one_elim(y, inr(1.0 . star)))",
     200, 15, (10 ** 6,)),
    ("norm-underflow-sum", "case_nd(inlr(3e-170 . star, 4e-170 . star), "
     "x. one_elim(x, inl(1.0 . star)), y. one_elim(y, inr(1.0 . star)))",
     200, 16, (10 ** 6,)),
    ("norm-subnormal-squares", "case_nd(inlr(1.0 . star, 3.0 . star), "
     "x. one_elim(x, case_nd(inlr(1e-161 . star, 3e-161 . star), "
     "a. a, b. b)), y. y)", 200, 17, (0, 1, 2, 3, 10 ** 6)),
]


def measure_inputs():
    """(id, term, shots, seed, fuels) for every pinned measurement."""
    for n in (1, 2, 3):
        for k in range(2):
            rng = derive_rng(105, n, k)
            v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            t = App(qencode.meas_first(n),
                    qencode.from_vector(v, qencode.qn_prop(n)))
            yield f"{n}-{k}", t, 400, 10 * n + k, (10 ** 6,)
    t = App(qencode.meas_first(2), qencode.from_vector(
        [1.0, 2.0, 3.0, 4.0], qencode.qn_prop(2)))
    yield "fuel", t, 100, 8, tuple(range(9))
    for k in range(3):
        a, b, c, d = (round(float(x), 3)
                      for x in derive_rng(106, k).uniform(0.5, 2.0, 4))
        yield f"nested-{k}", q(_nested_measure_text(a, b, c, d)), 400, \
            20 + k, (10 ** 6,)
    for ident, text, shots, seed, fuels in _MEASURE_CASES:
        yield ident, q(text), shots, seed, fuels


def _measure_corpus():
    """(table, id, record thunk) for the pinned `run_measure` histograms."""
    for ident, t, shots, seed, fuels in measure_inputs():
        yield "quantum", f"measure-{ident}", \
            lambda t=t, shots=shots, seed=seed, fuels=fuels: "\n".join(
                run_measure(t, shots, seed, fuel=fuel).to_json()
                for fuel in fuels)


def _reduction_rows():
    for table, ident, record in _reduction_corpus():
        digest = hashlib.sha256(record().encode("utf-8")).hexdigest()
        yield table, ident, digest


def test_reductions_are_pinned():
    # traces, outcomes, final terms (binder hints included), contractions
    # at the first redexes, measurement shots, matrix-vector products, cc
    # reduction graphs and pi witnesses stay as pinned in reductions.tsv
    with open(_REDUCTIONS, encoding="utf-8") as fh:
        want = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    got = list(_reduction_rows())
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for g, w in zip(got, want):
        assert g == w, g[:2]


if __name__ == "__main__":
    # rewrite reductions.tsv; review the diff before committing
    with open(_REDUCTIONS, "w", encoding="utf-8") as fh:
        for row in _reduction_rows():
            fh.write("\t".join(row) + "\n")
