import dataclasses

import pytest

from inlr_kit import gen
from inlr_kit.cc import (DEFAULT_FUEL_CC, RULES_CC, RULES_CC_DET,
                         ReductionGraph, demo_optimization, explore, pi_term)
from inlr_kit.rewrite import (Cursor, RuleId, RuleSet, find_redexes,
                              normalize, reducts, step_at)
from inlr_kit.rng import derive_rng
from inlr_kit.selftest import cc_enumeration, cc_pi_terms, cc_rule_soundness
from inlr_kit.syntax import (Abs, AndElim1, Bound, Inlr3, Pair, Star, Top,
                             Var, _store_hashes, fold, parse_prop, parse_term,
                             print_term, term_size)
from inlr_kit.typecheck import TypingError, infer


def cc(s):
    return parse_term(s, "cc")


def P(s):
    return parse_prop(s, "cc")


def test_table_is_complete():
    assert [r.rid.number for r in RULES_CC.rules] == list(range(1, 43))
    assert len(RULES_CC_DET.rules) == 40


# ---------------------------------------------------------------------------
# individual rules

def test_projection_commutes_past_lambda():
    out = step_at(cc("and1(t, x. lam y:C. u)"), (), RuleId("cc", 20))
    assert out == cc("lam y:C. and1(t, x. u)")


def test_bot_elim_to_top():
    assert step_at(cc("bot_elim[Top](t)"), (), RuleId("cc", 8)) == Star()


def test_bot_elim_nd_alternatives():
    t = cc("bot_elim[A \\/ B](b)")
    rules = [rid.number for pos, rid in find_redexes(t, RULES_CC)
             if pos == ()]
    assert rules == [11, 12]
    assert step_at(t, (), RuleId("cc", 11)) == cc("inl(bot_elim[A](b))")
    assert step_at(t, (), RuleId("cc", 12)) == cc("inr(bot_elim[B](b))")


def test_binder_inlr_cut():
    t = cc("case(inlr(t, x1. u1 x1, x2. u2 x2), y1. v1 y1, y2. v2 y2)")
    out = step_at(t, (), RuleId("cc", 7))
    assert out == cc("case(t, x1. v1 (u1 x1), x2. v2 (u2 x2))")


def test_and_inlr_needs_escape_condition():
    # the inner scrutinee mentions the projection binder: no rule applies
    blocked = cc("and1(w, x. inlr(x, y. y, z. z))")
    assert all(rid.number != 24 for _pos, rid in
               find_redexes(blocked, RULES_CC))
    # once the scrutinee is independent of x the commutation fires
    free = cc("and1(w, x. inlr(s, y. x, z. x))")
    assert any(rid.number == 24 and pos == () for pos, rid in
               find_redexes(free, RULES_CC))
    out = step_at(free, (), RuleId("cc", 24))
    assert out == cc("inlr(s, y. and1(w, x. x), z. and1(w, x. x))")


def test_case_lam_merges_binders():
    t = cc("case(s, x1. lam y:C. x1, x2. lam y:C. x2)")
    out = step_at(t, (), RuleId("cc", 32))
    assert out == cc("lam y:C. case(s, x1. x1, x2. x2)")


def test_case_inl_inr_uses_outer_scrutinee():
    t = cc("case(s, x1. inl(x1), x2. inr(x2))")
    out = step_at(t, (), RuleId("cc", 35))
    assert out == cc("inlr(s, x1. x1, x2. x2)")


def test_case_inr_inl_builds_pi():
    t = cc("case(s, x1. inr(x1), x2. inl(x2))")
    out = step_at(t, (), RuleId("cc", 37))
    want = cc("inlr(case(s, x1. inr(x1), x2. inl(x2)), x2. x2, x1. x1)")
    assert out == want


# ---------------------------------------------------------------------------
# pi witnesses

def test_pi_inr_inl_shape():
    pi = pi_term(37, Var("t"))
    assert pi == cc("case(t, x1. inr(x1), x2. inl(x2))")


def test_pi_terms_typecheck_at_stated_propositions():
    result = cc_pi_terms(seed=0)
    assert result.ok, result.detail


def test_pi_inlr_inlr_proposition():
    ctx = {"t": P("A1 \\/ A2"), "t1": P("B1 \\/ B2"), "t2": P("B3 \\/ B4")}
    got = infer("cc", ctx, pi_term(42, Var("t"), Var("t1"), Var("t2")))
    assert got == P("((A1 /\\ B1) \\/ (A2 /\\ B3)) "
                    "\\/ ((A1 /\\ B2) \\/ (A2 /\\ B4))")


def _using_hypothesis(name, index=0):
    """and1(pair(name, x), z. z) with x the loose index given: a proof of
    what `name` proves that refers to its hypothesis."""
    return AndElim1(Pair(Var(name), Bound(index)), Abs("z", Bound(0)))


def test_pi_term_inner_scrutinees_refer_to_their_hypothesis():
    # Bound(0) in t1 is x1 and in t2 is x2, the outer case's binders
    ctx = {"t": P("A1 \\/ A2"), "t1": P("B1 \\/ B2"), "t2": P("B3 \\/ B4")}
    pi = pi_term(42, Var("t"), _using_hypothesis("t1"),
                 _using_hypothesis("t2"))
    assert infer("cc", ctx, pi) == P("((A1 /\\ B1) \\/ (A2 /\\ B3)) "
                                  "\\/ ((A1 /\\ B2) \\/ (A2 /\\ B4))")
    assert print_term(pi) == (
        "case(t, x1. case(and1(pair(t1, x1), z. z), "
        "y1. inl(inl(pair(x1, y1))), y2. inr(inl(pair(x1, y2)))), "
        "x2. case(and1(pair(t2, x2), z. z), "
        "y3. inl(inr(pair(x2, y3))), y4. inr(inr(pair(x2, y4)))))")
    # an index past the hypothesis points outside the witness
    pi = pi_term(42, Var("t"), _using_hypothesis("t1", 1),
                 _using_hypothesis("t2", 1))
    with pytest.raises(TypingError) as e:
        infer("cc", ctx, pi)
    assert e.value.kind == "unbound-var"


def test_pi_term_wrong_rule_id():
    with pytest.raises(ValueError):
        pi_term(35, Var("t"))
    with pytest.raises(ValueError):
        pi_term(42, Var("t"))  # missing inner scrutinees


# ---------------------------------------------------------------------------
# per-rule type preservation

def test_rule_soundness_sample():
    result = cc_rule_soundness(84, seed=19)
    assert result.ok, result.detail


def test_rhs_of_every_rule_typechecks():
    for number in range(1, 43):
        rng = derive_rng(321, number)
        ctx, t, expected = gen.cc_rule_instance(number, rng)
        u = step_at(t, (), RuleId("cc", number))
        try:
            infer("cc", ctx, u, expected=expected)
        except TypingError as e:
            pytest.fail(f"rule {number}: {print_term(u)}: {e}")


# ---------------------------------------------------------------------------
# normalization and exploration

def test_normal_forms_are_redex_free():
    reached = 0
    for i in range(120):
        rng = derive_rng(77, i)
        _ctx, t, _goal = gen.random_term_in_context("cc", rng)
        trace = normalize(t, RULES_CC, fuel=DEFAULT_FUEL_CC)
        if trace.outcome.kind == "normal-form":
            reached += 1
            assert find_redexes(trace.final, RULES_CC) == []
    assert reached > 100  # fuel exhaustion should be rare on small terms


def test_first_policy_takes_inl_for_bot_choice():
    trace = normalize(cc("bot_elim[A \\/ B](b)"), RULES_CC,
                      fuel=DEFAULT_FUEL_CC)
    assert trace.final == cc("inl(bot_elim[A](b))")


def test_enumerate_policy_reaches_both_bot_choices():
    graph = explore(cc("bot_elim[A \\/ B](b)"), node_budget=DEFAULT_FUEL_CC)
    nfs = {print_term(graph.terms[i]) for i in graph.normal_forms}
    assert nfs == {"inl(bot_elim[A](b))", "inr(bot_elim[B](b))"}


def test_enumerate_emits_dot():
    graph = explore(cc("case(s, x1. inl(x1), x2. inr(x2))"))
    dot = graph.to_dot()
    assert dot.startswith("digraph") and "cc:35" in dot


def test_deterministic_fragment_graphs_single_normal_form():
    multi = 0
    for i in range(100):
        rng = derive_rng(31, i)
        _ctx, t, _goal = gen.random_term_in_context("cc", rng, max_size=25)
        graph = explore(t, node_budget=300, ruleset=RULES_CC_DET)
        if graph.budget_hit:
            continue
        nfs = {graph.terms[j] for j in graph.normal_forms}
        if len(nfs) > 1:
            multi += 1
    # divergence counterexamples are logged, not asserted absent
    assert multi <= 2, f"{multi} graphs with several normal forms"


# ---------------------------------------------------------------------------
# exploration builds only the reducts it keeps

def _reference_explore(t, node_budget, ruleset):
    """The exploration as it was: every one-step reduct built by `reducts`
    and looked up in a dict keyed by terms."""
    graph = ReductionGraph(terms=[t])
    terms = graph.terms
    ids = {t: 0}
    for i, term in enumerate(terms):
        steps = reducts(term, ruleset)
        if not steps:
            graph.normal_forms.append(i)
            continue
        for _pos, rid, reduct in steps:
            j = ids.get(reduct)
            if j is None:
                if len(terms) >= node_budget:
                    graph.budget_hit = True
                    continue
                j = len(terms)
                ids[reduct] = j
                terms.append(reduct)
            graph.edges.append((i, j, str(rid)))
    return graph


def _seeded_cc(seed, i):
    """A fresh copy of a seeded `gen` cc term: nothing stored on it yet."""
    return gen.random_term_in_context("cc", derive_rng(seed, i),
                                      max_size=20)[1]


@pytest.mark.parametrize("rules", [RULES_CC, RULES_CC_DET],
                         ids=["cc", "cc-det"])
def test_explore_matches_the_reducts_reference(rules):
    truncated = 0
    for seed in (5, 6, 7):
        for i in range(100):
            for budget in (1, 7, 100):
                want = _reference_explore(_seeded_cc(seed, i), budget, rules)
                got = explore(_seeded_cc(seed, i), budget, rules)
                where = (seed, i, budget)
                assert got.edges == want.edges, where
                assert got.normal_forms == want.normal_forms, where
                assert got.budget_hit == want.budget_hit, where
                assert [repr(u) for u in got.terms] \
                    == [repr(u) for u in want.terms], where
                assert [print_term(u) for u in got.terms] \
                    == [print_term(u) for u in want.terms], where
                truncated += got.budget_hit
    assert 150 < truncated < 750  # both kinds of graph are covered


def _unhashed_copy(t):
    return fold(t, lambda node, kids: node._rebuild(node, kids))


def test_every_graph_node_stores_its_one_hash():
    # the hashes worked out along the cursor's frames are the ones
    # `_store_hashes` takes of a fresh copy
    for i in range(12):
        for rules in (RULES_CC, RULES_CC_DET):
            graph = explore(_seeded_cc(8, i), 100, rules)
            seen = set()
            todo = list(graph.terms)
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                assert node._hash is not None
                copy = _unhashed_copy(node)
                assert copy._hash is None
                assert _store_hashes(copy) == node._hash
                todo += node._kids(node)


def test_explore_builds_only_the_nodes_it_keeps(monkeypatch):
    built, unhashed = [], []
    plug = Cursor.plug

    def counting(self, u, hashes=None):
        (unhashed if hashes is None else built).append(u)
        return plug(self, u, hashes)

    monkeypatch.setattr(Cursor, "plug", counting)
    graph = explore(cc(_CYCLE), node_budget=60)
    assert graph.budget_hit
    assert len(built) == len(graph.terms) - 1 == 59
    assert unhashed == []  # every node explore builds stores its hash


def _counting_rules(rules, calls):
    """The table with each build recording (redex, rule id, contractum)."""
    def counting(r):
        def build(t):
            u = r.build(t)
            calls.append((t, r.rid, u))
            return u

        return dataclasses.replace(r, build=build)

    return RuleSet(rules.name, rules.calculus,
                   tuple(counting(r) for r in rules.rules))


def _examined(graph, rules):
    """The (redex identity, rule id) of every reduct explore examines."""
    out = []
    for term in graph.terms:
        for pos, rid in find_redexes(term, rules):
            redex = term
            for i in pos:
                redex = redex._kids(redex)[i]
            out.append((id(redex), rid))
    return out


def test_explore_builds_each_contractum_once():
    # a reduct shares its off-path subterms with its source, so later
    # nodes meet the same redex objects; each is built once per call
    twin = cc(_HINT_TWIN)
    for t in [twin] + [_seeded_cc(9, i) for i in range(20)]:
        calls = []
        rules = _counting_rules(RULES_CC, calls)
        graph = explore(t, 100, rules)
        examined = _examined(graph, rules)
        pairs = [(id(r), rid) for r, rid, _u in calls]
        assert len(pairs) == len(set(pairs)) and set(pairs) == set(examined)
        if t is twin:  # 173 builds for 221 edges and more reducts
            assert len(pairs) < len(examined)


def test_a_hint_only_twin_keeps_its_own_contractum():
    # the two redexes are == and differ in hints only; each contractum
    # keeps its own redex's hint, and so does each reduct
    calls = []
    t = cc("pair(top_elim(t, lam x:A. x), top_elim(t, lam y:A. y))")
    graph = explore(t, 10, _counting_rules(RULES_CC, calls))
    [(r1, _, u1), (r2, _, u2)] = calls
    assert r1 == r2 and r1 is not r2 and u1 is not u2
    assert [print_term(u) for u in (u1, u2)] \
        == ["lam x:A. top_elim(t, x)", "lam y:A. top_elim(t, y)"]
    assert [print_term(u) for u in graph.terms[1:]] == [
        "pair(lam x:A. top_elim(t, x), top_elim(t, lam y:A. y))",
        "pair(top_elim(t, lam x:A. x), lam y:A. top_elim(t, y))",
        "pair(lam x:A. top_elim(t, x), lam y:A. top_elim(t, y))"]
    # node 45 of _HINT_TWIN reduces by rule 7 at its root to node 10 up to
    # hints: its contractum is its own, built from its own hints
    calls = []
    graph = explore(cc(_HINT_TWIN), 46, _counting_rules(RULES_CC, calls))
    [u] = [u for r, rid, u in calls
           if r is graph.terms[45] and rid == RuleId("cc", 7)]
    assert u == graph.terms[10] and u is not graph.terms[10]
    assert print_term(u) == "case(inr(lam x1:Top. x1), y1. h0, y2. h0)"


# `(lam x:A. pair(x, v)) (lam y:B. inl(y))`, the focus on `inl(y)`
_PLUGGED = "(lam x:A. pair(x, v)) (lam y:B. inr(y))"


@pytest.mark.parametrize("candidate, equal", [
    (_PLUGGED, True),
    ("(lam x:A. pair(x, star)) (lam y:B. inr(y))", False),  # a sibling
    ("(lam x:A. pair(x, w)) (lam y:B. inr(y))", False),   # a Var name
    ("(lam x:C. pair(x, v)) (lam y:B. inr(y))", False),   # annotation
    ("(lam x:A. pair(x, v)) (lam y:C. inr(y))", False),   # on the path
    ("(lam x:A. pair(x, v)) (lam y:B. inl(y))", False),   # the focus
    ("(lam x:A. pair(x, v)) (lam y:B. inr(v))", False),   # below it
    ("pair(lam x:A. pair(x, v), lam y:B. inr(y))", False),  # a class
    ("(lam z:A. pair(z, v)) (lam w:B. inr(w))", True),    # hints only
], ids=["same", "sibling", "var-name", "annotation", "path-annotation",
        "focus", "below-focus", "class", "hints"])
def test_plugs_to_compares_in_place(candidate, equal):
    t = cc("(lam x:A. pair(x, v)) (lam y:B. inl(y))")
    hash(t)  # plug_hashes reads the hashes stored along the frames
    cur = Cursor(t, RULES_CC)
    cur.descend((1, 0))
    u = cc("lam y:B. inr(y)").abs.body
    c = cc(candidate)
    hash(c)
    assert cur.plugs_to(c, u) is equal
    assert (cur.plug(u) == c) is equal
    assert cur.plug_hashes(u)[-1] == hash(cur.plug(u)) == hash(cc(_PLUGGED))
    # each frame keeps its node's key, its path slot put back, and a
    # second reduct is hashed from the kept keys
    keys = [frame[6] for frame in cur.stack]
    assert keys == [list(frame[0]._key(frame[0])) for frame in cur.stack]
    assert cur.plug_hashes(u)[-1] == hash(cc(_PLUGGED))
    assert [frame[6] for frame in cur.stack] == keys
    assert all(frame[6] is key for frame, key in zip(cur.stack, keys))


def _plugged_path_hashes(cur, u):
    """The hashes of the nodes on the focus's path in plug(u), built: u's
    first and the whole term's last."""
    path = [cur.plug(u)]
    for i in cur.pos():
        path.append(path[-1]._kids(path[-1])[i])
    return [hash(node) for node in reversed(path)]


def _kept_key_terms():
    """40 seeded `gen` cc terms of size up to 30 and an instance of every
    cc rule."""
    for i in range(40):
        yield gen.random_term_in_context("cc", derive_rng(61, i),
                                         max_size=30)[1]
    for number in range(1, 43):
        yield gen.cc_rule_instance(number, derive_rng(62, number))[1]


def test_plug_hashes_from_kept_keys_match_the_built_reducts():
    # during a walk: every redex and every rule, the frames' keys kept
    # across reducts, so a path slot left unrestored shows at the next
    # redex under the same frame
    redexes = served = 0
    for t in _kept_key_terms():
        hash(t)
        cur = Cursor(t, RULES_CC)
        slots = {}  # id of a frame -> the path slots its kept key served

        def visit(here):
            nonlocal redexes
            redexes += 1
            for frame in cur.stack:
                if frame[6] is not None:
                    slots.setdefault(id(frame), set()).add(frame[1])
            for r in here:
                u = r.build(cur.focus)
                assert cur.plug_hashes(u) == _plugged_path_hashes(cur, u), \
                    (print_term(t), cur.pos(), r.rid)

        cur.seek(visit)
        served += sum(len(s) > 1 for s in slots.values())
    assert redexes > 150 and served > 5, (redexes, served)


def test_plug_hashes_after_a_contraction_makes_dirty_keys_afresh():
    # leftmost-outermost steps, each redex's reducts hashed before the
    # contraction: a frame keyed before it and dirty after it must not
    # serve its kept key
    dirty = 0
    for t in _kept_key_terms():
        hash(t)
        cur = Cursor(t, RULES_CC)
        here = ()
        for _ in range(30):
            here = here or cur.seek()
            if here is None:
                break
            for frame in cur.stack:
                hash(frame[0])  # the nodes a contraction rebuilt
            dirty += any(frame[3] and frame[6] is not None
                         for frame in cur.stack)
            for r in here:
                u = r.build(cur.focus)
                assert cur.plug_hashes(u) == _plugged_path_hashes(cur, u), \
                    (print_term(t), cur.pos(), r.rid)
            here = cur.contract(here[0].build)
    assert dirty > 100, dirty


# Found by a search over seeded `gen` cc terms: rule 7 at the root of node
# 45 gives node 10 again, but with other binder hints.
_HINT_TWIN = (
    "case(inlr(case(inl(lam x:P. x), x. inlr(inr(lam x1:Top. x1), x1. lam "
    "x2:Top. x2, y. inl(star)), y. inl(lam x:Top. x)), x. lam x1:R. star, "
    "y. lam x:P. star), x. h0, y. h0)")


def test_a_hint_only_duplicate_keeps_the_first_node():
    graph = explore(cc(_HINT_TWIN), node_budget=46)
    into = [e for e in graph.edges if e[1] == 10]
    assert into == [(4, 10, "cc:7"), (45, 10, "cc:7")]
    [twin] = [u for pos, rid, u in reducts(graph.terms[45], RULES_CC)
              if pos == () and rid == RuleId("cc", 7)]
    assert twin == graph.terms[10] and repr(twin) != repr(graph.terms[10])
    assert print_term(twin) == "case(inr(lam x1:Top. x1), y1. h0, y2. h0)"
    assert print_term(graph.terms[10]) \
        == "case(inr(lam x1:Top. x1), x1. h0, y. h0)"
    assert [j for j, u in enumerate(graph.terms) if u == twin] == [10]


# ---------------------------------------------------------------------------
# the commuting-cut cycle: the table as coded loops under some strategies

_CYCLE = "case(case(inl(star), x. inr(x), y. inl(y)), a. star, b. star)"


@pytest.mark.parametrize("rules", [RULES_CC, RULES_CC_DET],
                         ids=["cc", "cc-det"])
def test_commuting_cuts_admit_a_two_cycle(rules):
    # rule 37 inside, then rule 7 at the root, give back the start
    start = cc(_CYCLE)
    assert infer("cc", {}, start) == Top()
    mid = step_at(start, (0,), RuleId("cc", 37), ruleset=rules)
    assert print_term(mid) == ("case(inlr(case(inl(star), x1. inr(x1), "
                               "x2. inl(x2)), y. y, x. x), a. star, b. star)")
    assert step_at(mid, (), RuleId("cc", 7), ruleset=rules) == start


def test_the_inr_inl_witness_is_a_rule_37_redex():
    # rule 37 builds its pi witness case(t, x1. inr(x1), x2. inl(x2)),
    # a rule-37 redex itself, so its contractum holds the redex again
    pi = pi_term(37, Var("t"))
    assert find_redexes(pi, RULES_CC) == [((), RuleId("cc", 37))]
    out = step_at(pi, (), RuleId("cc", 37))
    assert isinstance(out, Inlr3) and out.scrut == pi


@pytest.mark.parametrize("rules", [RULES_CC, RULES_CC_DET],
                         ids=["cc", "cc-det"])
def test_leftmost_outermost_leaves_the_cycle_in_one_step(rules):
    trace = normalize(cc(_CYCLE), rules)
    assert [s.rule for s in trace.steps] == [RuleId("cc", 31)]
    assert trace.outcome.kind == "normal-form" and trace.final == Star()


def test_exploration_finds_the_two_cycle():
    # n0 -37-> n3 -7-> n0; the graph of the tower is cut by its budget
    graph = explore(cc(_CYCLE), node_budget=200)
    assert graph.budget_hit and len(graph.terms) == 200
    assert graph.shortest_cycle() == ([0, 3], ["cc:37", "cc:7"])
    assert (0, 3, "cc:37") in graph.edges and (3, 0, "cc:7") in graph.edges


@pytest.mark.parametrize("rules", [RULES_CC, RULES_CC_DET],
                         ids=["cc", "cc-det"])
def test_exploration_finds_a_cycle_without_rule_37(rules):
    # seven steps through rules 35, 40, 7 and 3 come back to a term the
    # graph holds; the one normal form is still reached
    t = cc("case(case(inr(star), x. inlr(inl(x), x1. x, y. x), y. inl(y)), "
           "x. x, y. y)")
    assert term_size(t) == 13 and infer("cc", {}, t) == Top()
    graph = explore(t, 100, ruleset=rules)
    assert graph.shortest_cycle() == (
        [4, 10, 15, 23, 37, 61, 99],
        ["cc:35", "cc:40", "cc:7", "cc:35", "cc:7", "cc:3", "cc:3"])
    assert len(graph.normal_forms) == 1


def test_shortest_cycle_of_a_graph():
    edges = [(0, 1, "a"), (1, 2, "b"), (2, 0, "c"), (2, 5, "g"),
             (3, 4, "d"), (4, 3, "e")]
    graph = ReductionGraph(terms=[None] * 6, edges=list(edges))
    assert graph.shortest_cycle() == ([3, 4], ["d", "e"])
    graph.edges.append((2, 2, "f"))
    assert graph.shortest_cycle() == ([2], ["f"])
    graph = ReductionGraph(terms=[None] * 6, edges=edges[:3])
    assert graph.shortest_cycle() == ([0, 1, 2], ["a", "b", "c"])
    graph = ReductionGraph(terms=[None] * 6, edges=edges[:2] + edges[3:4])
    assert graph.shortest_cycle() is None


def test_terminating_exploration_has_no_cycle():
    graph = explore(cc("case(inlr(star, x. x, y. y), a. a, b. b)"))
    assert not graph.budget_hit and graph.shortest_cycle() is None


def test_selftest_reports_a_seeded_cycle():
    # the third graph of seed 12 holds the rule 37 + 7 cycle; it is
    # truncated, so the enumeration line skips it
    enumeration, cycles = cc_enumeration(3, 12)
    assert enumeration.line() \
        == "ok   cc-enumeration: 3 graphs, 0 with multiple normal forms"
    assert cycles.line() == (
        "ok   cc-cycles: 3 graphs, 1 with a cycle; first: "
        "case(case(inl(star), x. inr(lam x1:Top. x), y. inl(pair(star, "
        "star))), x. star, y. star) (cc:37, cc:7)")


# ---------------------------------------------------------------------------
# the optimization demonstration

def test_demo_routes_agree():
    demo = demo_optimization()
    assert demo.agree
    want = cc("and1(x, y. pair(u, y))")
    assert demo.applied.final == want
    assert demo.unapplied.final == want


def test_demo_unapplied_body_commutes_alone():
    demo = demo_optimization()
    commuted = parse_term(dict(demo.unapplied.stages)["commute"], "cc")
    assert commuted == cc("lam z:C. and1(x, y. pair(z, y))")


def test_demo_terms_typecheck():
    # the projection binds the first conjunct, so the pair is C /\ A
    ctx = {"x": P("A /\\ B"), "u": P("C")}
    demo = demo_optimization()
    for _label, text in demo.applied.stages:
        infer("cc", ctx, parse_term(text, "cc"), expected=P("C /\\ A"))
