"""The commuting-cut calculus: rule table, pi witnesses, exploration.

Rules 1-7 reduce ordinary cuts (with the binder form of inlr).  Rules 8-30
commute a blocking elimination with the introduction above it when the
blocker has at most one minor premise: bottom-elimination (8-12, the two
disjunction targets are genuine alternatives), top-elimination (13-18),
and the two conjunction eliminations (19-24 and 25-30).  Rules 31-42
commute a case with the introductions in its branches; the six mixed
inl/inr/inlr combinations need a freshly built scrutinee (the pi witness)
that repackages the bound hypotheses as conjunction proofs.

The table as coded admits a reduction cycle under an arbitrary strategy.
Rule 37's pi witness ``case(t, x1. inr(x1), x2. inl(x2))`` is itself a
rule-37 redex, so ``case(case(inl(star), x. inr(x), y. inl(y)), a. star,
b. star)`` comes back to itself by rule 37 inside and then rule 7 at the
root.  Leftmost-outermost normalization still terminates on that term, in
one step by rule 31.  Cycles also run through rules 35, 40 and 7 without
rule 37 (one is pinned in the tests); the rule table is left as it is.
So everything here runs under fuel, and the exploration mode reports
what it reached rather than asserting uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .iplus import CUTS
from .rewrite import (Cursor, Rule, RuleId, RuleSet, register_default_ruleset,
                      step_at)
from .syntax import (Abs, AndElim1, AndElim2, App, Bound, BotElim, Case, Conj,
                     Disj, Impl, Inl, Inlr3, Inr, Lam, Pair, Star, Term, Top,
                     TopElim, Var, instantiate, parse_term, print_term,
                     print_terms, uses_binder)


def _rule(n, name, head, build, **kw):
    return Rule(RuleId("cc", n), name, head, build, **kw)


# the two innermost binders of a term, swapped
_SWAP = (Bound(1), Bound(0))
# ``(w/<x,y>)``, w the innermost binder: the hypotheses x (one binder out)
# and y (innermost) of a term become w's conjunct projections
_PROJECT = (AndElim2(Bound(0), Abs("z", Bound(0))),
            AndElim1(Bound(0), Abs("z", Bound(0))))
# the innermost binder kept, a new one put just outside it
_KEEP = (Bound(0),)


def _under(t):
    """t moved under one more binder."""
    return instantiate(t, (), 1)


# -- rules 1-7: ordinary cuts -------------------------------------------------

def _case_inlr3(t):
    inner = t.scrut
    return Case(inner.scrut,
                Abs(inner.left.hint,
                    instantiate(t.left.body, (inner.left.body,), 1)),
                Abs(inner.right.hint,
                    instantiate(t.right.body, (inner.right.body,), 1)))


# -- rules 8-12: bottom-elimination against the result proposition ------------

def _bot_rule(n, name, target, build):
    """A bottom-elimination rule for one result connective."""
    return _rule(n, name, (BotElim,), build,
                 guard=lambda t: isinstance(t.prop, target))


def _bot_lam(t):
    return Lam(t.prop.left, Abs("x", BotElim(t.prop.right, _under(t.scrut))))


# -- rules 13-18: top-elimination against the introduction below it -----------

def _top_lam(t):
    inner = t.body
    return Lam(inner.ann,
               Abs(inner.abs.hint, TopElim(_under(t.scrut), inner.abs.body)))


def _top_inlr(t):
    inner = t.body
    unit = _under(t.scrut)
    return Inlr3(inner.scrut,
                 Abs(inner.left.hint, TopElim(unit, inner.left.body)),
                 Abs(inner.right.hint, TopElim(unit, inner.right.body)))


# -- rules 19-30: conjunction eliminations against introductions --------------

def _scrut_can_escape(t):
    # the inner scrutinee moves out of the binder on the right-hand side,
    # so the rule only fires when it does not use the bound variable
    return not uses_binder(Abs("", t.abs.body.scrut))


def _and_lam(node):
    def build(t):
        body = t.abs.body
        return Lam(body.ann, Abs(body.abs.hint, node(
            _under(t.scrut),
            Abs(t.abs.hint, instantiate(body.abs.body, _SWAP, 2)))))

    return build


def _and_pair(node):
    def build(t):
        body = t.abs.body
        return Pair(node(t.scrut, Abs(t.abs.hint, body.left)),
                    node(t.scrut, Abs(t.abs.hint, body.right)))

    return build


def _and_inj(node, inj):
    def build(t):
        return inj(node(t.scrut, Abs(t.abs.hint, t.abs.body.body)))

    return build


def _and_inlr(node):
    def build(t):
        body = t.abs.body
        scrut = _under(t.scrut)

        def branch(a):
            swapped = instantiate(a.body, _SWAP, 2)
            return Abs(a.hint, node(scrut, Abs(t.abs.hint, swapped)))

        # the guard keeps the inner scrutinee off the projection's binder
        return Inlr3(instantiate(body.scrut, (), -1),
                     branch(body.left), branch(body.right))

    return build


# -- rules 31-42: case against the introductions in its branches --------------

def _case_lam(t):
    b1, b2 = t.left.body, t.right.body
    ann = b1.ann if b1.ann is not None else b2.ann
    return Lam(ann, Abs(b1.abs.hint, Case(
        _under(t.scrut),
        Abs(t.left.hint, instantiate(b1.abs.body, _SWAP, 2)),
        Abs(t.right.hint, instantiate(b2.abs.body, _SWAP, 2)))))


def _case_pair(t):
    b1, b2 = t.left.body, t.right.body
    return Pair(Case(t.scrut, Abs(t.left.hint, b1.left),
                     Abs(t.right.hint, b2.left)),
                Case(t.scrut, Abs(t.left.hint, b1.right),
                     Abs(t.right.hint, b2.right)))


def _case_inj(inj):
    def build(t):
        return inj(Case(t.scrut, Abs(t.left.hint, t.left.body.body),
                        Abs(t.right.hint, t.right.body.body)))

    return build


def _case_inl_inr(t):
    return Inlr3(t.scrut, Abs(t.left.hint, t.left.body.body),
                 Abs(t.right.hint, t.right.body.body))


def _case_inr_inl(t):
    return Inlr3(_pi_inr_inl(t.scrut), Abs(t.right.hint, t.right.body.body),
                 Abs(t.left.hint, t.left.body.body))


def _kept(a):
    """`x. u` for the branch `x. inj(u)`, under a new binder z outside x."""
    return Abs(a.hint, instantiate(a.body.body, _KEEP, 2))


def _projected(a, hint):
    """`w. (w/<x,y>)u` for `y. u` in the branch of x, under a new z."""
    return Abs(hint, instantiate(a.body, _PROJECT, 2))


def _mixed(pi, branch1, branch2):
    """The contractum of a mixed commutation: inlr(pi, z1. .., z2. ..)."""
    return Inlr3(pi, Abs("z1", branch1), Abs("z2", branch2))


def _case_inl_inlr(t):
    b2 = t.right.body               # x2. inlr(t2, y3.u3, y4.u4)
    return _mixed(_pi_inl_inlr(t.scrut, b2.scrut),
                  Case(Bound(0), _kept(t.left), _projected(b2.left, "w2")),
                  instantiate(b2.right.body, _PROJECT, 1))


def _case_inr_inlr(t):
    b2 = t.right.body               # x2. inlr(t2, y3.u3, y4.u4)
    return _mixed(_pi_inr_inlr(t.scrut, b2.scrut),
                  instantiate(b2.left.body, _PROJECT, 1),
                  Case(Bound(0), _kept(t.left), _projected(b2.right, "w2")))


def _case_inlr_inl(t):
    b1 = t.left.body                # x1. inlr(t1, y1.u1, y2.u2)
    return _mixed(_pi_inlr_inl(t.scrut, b1.scrut),
                  Case(Bound(0), _projected(b1.left, "w1"), _kept(t.right)),
                  instantiate(b1.right.body, _PROJECT, 1))


def _case_inlr_inr(t):
    b1 = t.left.body                # x1. inlr(t1, y1.u1, y2.u2)
    return _mixed(_pi_inlr_inr(t.scrut, b1.scrut),
                  instantiate(b1.left.body, _PROJECT, 1),
                  Case(Bound(0), _projected(b1.right, "w1"), _kept(t.right)))


def _case_inlr_inlr(t):
    b1, b2 = t.left.body, t.right.body
    return _mixed(_pi_inlr_inlr(t.scrut, b1.scrut, b2.scrut),
                  Case(Bound(0), _projected(b1.left, "w1"),
                       _projected(b2.left, "w2")),
                  Case(Bound(0), _projected(b1.right, "w1"),
                       _projected(b2.right, "w2")))


# -- the pi witnesses ----------------------------------------------------------
#
# x1 and x2 are the outer case's binders, y1..y4 those of the inner
# scrutinees t1 (under x1) and t2 (under x2), which stay where they are.

_X = Bound(0)               # the innermost binder
_XY = Pair(Bound(1), Bound(0))  # <x, y>, y the innermost binder


def _pi_inr_inl(t):
    return Case(t, Abs("x1", Inr(_X)), Abs("x2", Inl(_X)))


def _pi_inl_inlr(t, t2):
    inner = Case(t2, Abs("y3", Inl(Inr(_XY))), Abs("y4", Inr(_XY)))
    return Case(t, Abs("x1", Inl(Inl(_X))), Abs("x2", inner))


def _pi_inr_inlr(t, t2):
    inner = Case(t2, Abs("y3", Inl(_XY)), Abs("y4", Inr(Inr(_XY))))
    return Case(t, Abs("x1", Inr(Inl(_X))), Abs("x2", inner))


def _pi_inlr_inl(t, t1):
    inner = Case(t1, Abs("y1", Inl(Inl(_XY))), Abs("y2", Inr(_XY)))
    return Case(t, Abs("x1", inner), Abs("x2", Inl(Inr(_X))))


def _pi_inlr_inr(t, t1):
    inner = Case(t1, Abs("y1", Inl(_XY)), Abs("y2", Inr(Inl(_XY))))
    return Case(t, Abs("x1", inner), Abs("x2", Inr(Inr(_X))))


def _pi_inlr_inlr(t, t1, t2):
    left = Case(t1, Abs("y1", Inl(Inl(_XY))), Abs("y2", Inr(Inl(_XY))))
    right = Case(t2, Abs("y3", Inl(Inr(_XY))), Abs("y4", Inr(Inr(_XY))))
    return Case(t, Abs("x1", left), Abs("x2", right))


# -- the table -----------------------------------------------------------------

RULES_CC = register_default_ruleset(RuleSet("cc", "cc", (
    # figure I: ordinary cuts
    *(_rule(1 + k, *cut) for k, cut in enumerate(CUTS)),
    _rule(7, "case-inlr", (Case, Inlr3), _case_inlr3),
    # figure II: bottom-elimination
    _bot_rule(8, "bot-top", Top, lambda t: Star()),
    _bot_rule(9, "bot-impl", Impl, _bot_lam),
    _bot_rule(10, "bot-conj", Conj,
              lambda t: Pair(BotElim(t.prop.left, t.scrut),
                             BotElim(t.prop.right, t.scrut))),
    _bot_rule(11, "bot-disj-inl", Disj,
              lambda t: Inl(BotElim(t.prop.left, t.scrut))),
    _bot_rule(12, "bot-disj-inr", Disj,
              lambda t: Inr(BotElim(t.prop.right, t.scrut))),
    # figure II: top-elimination
    _rule(13, "top-star", (TopElim, None, Star), lambda t: Star()),
    _rule(14, "top-lam", (TopElim, None, Lam), _top_lam),
    _rule(15, "top-pair", (TopElim, None, Pair),
          lambda t: Pair(TopElim(t.scrut, t.body.left),
                         TopElim(t.scrut, t.body.right))),
    _rule(16, "top-inl", (TopElim, None, Inl),
          lambda t: Inl(TopElim(t.scrut, t.body.body))),
    _rule(17, "top-inr", (TopElim, None, Inr),
          lambda t: Inr(TopElim(t.scrut, t.body.body))),
    _rule(18, "top-inlr", (TopElim, None, Inlr3), _top_inlr),
    # figure II: first conjunction elimination
    _rule(19, "and1-star", (AndElim1, None, Star), lambda t: Star()),
    _rule(20, "and1-lam", (AndElim1, None, Lam), _and_lam(AndElim1)),
    _rule(21, "and1-pair", (AndElim1, None, Pair), _and_pair(AndElim1)),
    _rule(22, "and1-inl", (AndElim1, None, Inl), _and_inj(AndElim1, Inl)),
    _rule(23, "and1-inr", (AndElim1, None, Inr), _and_inj(AndElim1, Inr)),
    _rule(24, "and1-inlr", (AndElim1, None, Inlr3), _and_inlr(AndElim1),
          guard=_scrut_can_escape),
    # figure II: second conjunction elimination
    _rule(25, "and2-star", (AndElim2, None, Star), lambda t: Star()),
    _rule(26, "and2-lam", (AndElim2, None, Lam), _and_lam(AndElim2)),
    _rule(27, "and2-pair", (AndElim2, None, Pair), _and_pair(AndElim2)),
    _rule(28, "and2-inl", (AndElim2, None, Inl), _and_inj(AndElim2, Inl)),
    _rule(29, "and2-inr", (AndElim2, None, Inr), _and_inj(AndElim2, Inr)),
    _rule(30, "and2-inlr", (AndElim2, None, Inlr3), _and_inlr(AndElim2),
          guard=_scrut_can_escape),
    # figure III: case against its branch introductions
    _rule(31, "case-star", (Case, None, Star, Star), lambda t: Star()),
    _rule(32, "case-lam", (Case, None, Lam, Lam), _case_lam),
    _rule(33, "case-pair", (Case, None, Pair, Pair), _case_pair),
    _rule(34, "case-inl-inl", (Case, None, Inl, Inl), _case_inj(Inl)),
    _rule(35, "case-inl-inr", (Case, None, Inl, Inr), _case_inl_inr),
    _rule(36, "case-inl-inlr", (Case, None, Inl, Inlr3), _case_inl_inlr),
    _rule(37, "case-inr-inl", (Case, None, Inr, Inl), _case_inr_inl),
    _rule(38, "case-inr-inr", (Case, None, Inr, Inr), _case_inj(Inr)),
    _rule(39, "case-inr-inlr", (Case, None, Inr, Inlr3), _case_inr_inlr),
    _rule(40, "case-inlr-inl", (Case, None, Inlr3, Inl), _case_inlr_inl),
    _rule(41, "case-inlr-inr", (Case, None, Inlr3, Inr), _case_inlr_inr),
    _rule(42, "case-inlr-inlr", (Case, None, Inlr3, Inlr3), _case_inlr_inlr),
)))

#: the two bottom-elimination alternatives removed
RULES_CC_DET = RuleSet("cc-det", "cc", tuple(
    r for r in RULES_CC.rules if r.rid.number not in (11, 12)))

_PI_CASES = {
    36: ("inl/inlr", _pi_inl_inlr), 37: ("inr/inl", _pi_inr_inl),
    39: ("inr/inlr", _pi_inr_inlr), 40: ("inlr/inl", _pi_inlr_inl),
    41: ("inlr/inr", _pi_inlr_inr), 42: ("inlr/inlr", _pi_inlr_inlr),
}


def pi_term(rule: int | RuleId, t: Term, t1: Term | None = None,
            t2: Term | None = None) -> Term:
    """The scrutinee witness for one of the six mixed case commutations.

    `t` is the outer scrutinee.  `t1` and `t2` are the inner scrutinees
    where the construction uses them, each the body of a binder: `t1`
    refers to its hypothesis x1 as `Bound(0)` and `t2` to x2, and their
    loose index k > 0 stands for the outer scrutinee's k - 1.  The built
    term binds the conventional names x1, x2, y1..y4.
    """
    number = rule.number if isinstance(rule, RuleId) else rule
    if number not in _PI_CASES:
        raise ValueError(f"rule {number} has no pi witness")
    kind, build = _PI_CASES[number]
    inner = []  # the inner scrutinees used
    for side, arg in zip(kind.split("/"), (t1, t2)):
        if side == "inlr":
            if arg is None:
                raise ValueError(
                    f"the {kind} witness needs its inner scrutinee")
            inner.append(arg)
    return build(t, *inner)


DEFAULT_FUEL_CC = 10 ** 5


@dataclass
class ReductionGraph:
    terms: list = field(default_factory=list)     # node id -> term
    edges: list = field(default_factory=list)     # (src, dst, rule id)
    normal_forms: list = field(default_factory=list)
    budget_hit: bool = False

    def to_dot(self) -> str:
        lines = ["digraph reduction {"]
        normal = set(self.normal_forms)
        for i, text in enumerate(print_terms(self.terms)):
            label = text.replace("\\", "\\\\").replace('"', '\\"')
            shape = ", shape=box" if i in normal else ""
            lines.append(f'  n{i} [label="{label}"{shape}];')
        for src, dst, rid in self.edges:
            lines.append(f'  n{src} -> n{dst} [label="{rid}"];')
        lines.append("}")
        return "\n".join(lines)

    def shortest_cycle(self):
        """One shortest cycle of reductions: (node ids, rule ids), rule i
        leading from node i to the next and the last back to the first,
        which is the cycle's lowest node; None when there is no cycle.

        Nodes that cannot lie on a cycle (no way in, or no way out, among
        the nodes left) are peeled off first.  Then a breadth-first search
        from each node s left, over the higher nodes and no deeper than
        the shortest cycle so far, finds the shortest cycle whose lowest
        node is s.
        """
        n = len(self.terms)
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for src, dst, rid in self.edges:
            succ[src].append((dst, rid))
            pred[dst].append(src)
        live = [True] * n
        ins = [len(p) for p in pred]
        outs = [len(s) for s in succ]
        todo = [i for i in range(n) if not ins[i] or not outs[i]]
        while todo:
            i = todo.pop()
            if not live[i]:
                continue
            live[i] = False
            for j, _rid in succ[i]:
                ins[j] -= 1
                if not ins[j] and live[j]:
                    todo.append(j)
            for j in pred[i]:
                outs[j] -= 1
                if not outs[j] and live[j]:
                    todo.append(j)
        best = None
        for s in range(n):
            if not live[s]:
                continue
            back = {s: None}  # node -> (its parent, the rule between)
            frontier, length, closing = [s], 0, None
            while frontier and closing is None \
                    and (best is None or length + 1 < len(best[0])):
                length += 1
                nxt = []
                for u in frontier:
                    for v, rid in succ[u]:
                        if v == s:
                            closing = (u, rid)
                            break
                        if v > s and live[v] and v not in back:
                            back[v] = (u, rid)
                            nxt.append(v)
                    if closing is not None:
                        break
                frontier = nxt
            if closing is not None:
                nodes, rules = [], [closing[1]]
                u = closing[0]
                while u != s:
                    parent, rid = back[u]
                    nodes.append(u)
                    rules.append(rid)
                    u = parent
                best = ([s] + nodes[::-1], rules[::-1])
        return best


def explore(t: Term, node_budget: int = 500,
            ruleset: RuleSet = RULES_CC) -> ReductionGraph:
    """Breadth-first reduction graph, deduplicated up to alpha.

    Nodes are numbered in the order they are found, so visiting them by
    number is breadth-first.  One cursor walk per node finds its redexes
    in `reducts` order, and only the contractum of each is built.  The
    reduct's hash is worked out along the walk's frames, and the reduct
    is compared in place with the nodes of that hash; it is built only
    when it is a new node and the budget has room.  So each alpha-class
    keeps its first member found, binder hints and all, and a reduct past
    the budget is never built.  Alternatives at a redex carry no weights
    here: each one is an edge.

    A reduct shares every subterm of its source off the contracted path,
    so later nodes meet the same redex objects again.  The contracta of
    a redex are built once per call and kept under its identity, with
    their stored hashes: identity, since `==` ignores the binder hints a
    contractum carries.  The graph holds every redex, so no id is reused.
    """
    graph = ReductionGraph(terms=[t])
    terms, edges = graph.terms, graph.edges
    by_hash = {hash(t): [0]}  # hash -> the ids of the nodes that have it
    built = {}  # id of a redex -> its contracta, one per rule in `here`
    reducible = False

    def visit(here):
        nonlocal reducible
        reducible = True
        redex = cur.focus
        contracta = built.get(id(redex))
        if contracta is None:
            contracta = built[id(redex)] = [r.build(redex) for r in here]
        for r, u in zip(here, contracta):
            hashes = cur.plug_hashes(u)
            for j in by_hash.get(hashes[-1], ()):
                if cur.plugs_to(terms[j], u):
                    break
            else:
                if len(terms) >= node_budget:
                    graph.budget_hit = True
                    continue
                j = len(terms)
                by_hash.setdefault(hashes[-1], []).append(j)
                terms.append(cur.plug(u, hashes))
            edges.append((i, j, str(r.rid)))

    for i, term in enumerate(terms):
        reducible = False
        cur = Cursor(term, ruleset)
        cur.seek(visit)
        if not reducible:
            graph.normal_forms.append(i)
    return graph


# ---------------------------------------------------------------------------
# The commuting-cut optimization demonstration

@dataclass
class DemoTrace:
    description: str
    stages: list  # [(label, term string)]
    final: Term


@dataclass
class DemoResult:
    applied: DemoTrace
    unapplied: DemoTrace
    agree: bool

    def render(self) -> str:
        out = []
        for trace in (self.applied, self.unapplied):
            out.append(trace.description)
            for label, text in trace.stages:
                out.append(f"  {label}: {text}")
        out.append(f"routes agree after application: "
                   f"{'yes' if self.agree else 'NO'}")
        return "\n".join(out)


def demo_optimization() -> DemoResult:
    """A conjunction projection commutes out of a function body.

    Working in the context {x: A /\\ B, u: C}: commuting the projection
    past the lambda unblocks the beta redex even before the function is
    applied; both orders of doing things land on the same program.
    """
    body_src = "and1(x, y. lam z:C. pair(z, y))"
    body = parse_term(body_src, "cc")
    applied = App(body, Var("u"))

    # route one: commute under the application, then contract the beta redex
    s1 = step_at(applied, (0,), RuleId("cc", 20))
    s2 = step_at(s1, (), RuleId("cc", 2))
    route_a = DemoTrace(
        "applied form: commute the projection, then beta-reduce",
        [("start", print_term(applied)),
         ("commute", print_term(s1)),
         ("beta", print_term(s2))],
        s2)

    # route two: the unapplied body already commutes on its own
    b1 = step_at(body, (), RuleId("cc", 20))
    applied_later = App(b1, Var("u"))
    b2 = step_at(applied_later, (), RuleId("cc", 2))
    route_b = DemoTrace(
        "unapplied body: commute first, apply afterwards",
        [("start", print_term(body)),
         ("commute", print_term(b1)),
         ("apply", print_term(applied_later)),
         ("beta", print_term(b2))],
        b2)

    return DemoResult(route_a, route_b, route_a.final == route_b.final)
