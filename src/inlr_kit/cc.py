"""The commuting-cut calculus: rule table, pi witnesses, exploration.

Rules 1-7 reduce ordinary cuts (with the binder form of inlr).  Rules 8-30
commute a blocking elimination with the introduction above it when the
blocker has at most one minor premise: bottom-elimination (8-12, the two
disjunction targets are genuine alternatives), top-elimination (13-18),
and the two conjunction eliminations (19-24 and 25-30).  Rules 31-42
commute a case with the introductions in its branches; the six mixed
inl/inr/inlr combinations need a freshly built scrutinee (the pi witness)
that repackages the bound hypotheses as conjunction proofs.

Termination of this system is an open question, so everything here runs
under fuel, and the exploration mode reports what it reached rather than
asserting uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .iplus import _beta, _case_inl, _case_inr
from .rewrite import (ND_CHOICE, Rule, RuleId, RuleSet, find_redexes,
                      normalize, register_default_ruleset, step_at)
from .syntax import (Abs, AndElim1, AndElim2, App, BotElim, Case, Conj, Disj,
                     Impl, Inl, Inlr3, Inr, Lam, Pair, Star, Term, Top,
                     TopElim, Var, alpha_eq, close_term, fresh_name, open_abs,
                     pair_subst, print_term, subst_abs, uses_binder)


def _rule(n, name, head, build, **kw):
    return Rule(RuleId("cc", n), name, head, build, **kw)


def _close(t, name, hint):
    return close_term(t, name, hint=hint)


# -- rules 1-7: ordinary cuts -------------------------------------------------

def _case_inlr3(t):
    x1, u1 = _open(t.scrut.left)
    x2, u2 = _open(t.scrut.right)
    return Case(t.scrut.scrut,
                _close(subst_abs(t.left, u1), x1, t.scrut.left.hint),
                _close(subst_abs(t.right, u2), x2, t.scrut.right.hint))


def _open(a: Abs):
    x = fresh_name(a.hint or "x")
    return x, open_abs(a, x)


# -- rules 8-12: bottom-elimination against the result proposition ------------

def _bot_rule(n, name, target, build, **kw):
    """A bottom-elimination rule for one result connective."""
    return _rule(n, name, (BotElim,), build,
                 guard=lambda t: isinstance(t.prop, target), **kw)


def _bot_lam(t):
    x = fresh_name("x")
    return Lam(t.prop.left,
               _close(BotElim(t.prop.right, t.scrut), x, "x"))


# -- rules 13-18: top-elimination against the introduction below it -----------

def _top_lam(t):
    inner = t.body
    x, body = _open(inner.abs)
    return Lam(inner.ann, _close(TopElim(t.scrut, body), x, inner.abs.hint))


def _top_inlr(t):
    inner = t.body
    y1, v1 = _open(inner.left)
    y2, v2 = _open(inner.right)
    return Inlr3(inner.scrut,
                 _close(TopElim(t.scrut, v1), y1, inner.left.hint),
                 _close(TopElim(t.scrut, v2), y2, inner.right.hint))


# -- rules 19-30: conjunction eliminations against introductions --------------

def _scrut_can_escape(t):
    # the inner scrutinee moves out of the binder on the right-hand side,
    # so the rule only fires when it does not use the bound variable
    return not uses_binder(Abs("", t.abs.body.scrut))


def _and_lam(node):
    def build(t):
        x, body = _open(t.abs)
        y, inner = _open(body.abs)
        return Lam(body.ann,
                   _close(node(t.scrut, _close(inner, x, t.abs.hint)),
                          y, body.abs.hint))

    return build


def _and_pair(node):
    def build(t):
        x, body = _open(t.abs)
        return Pair(node(t.scrut, _close(body.left, x, t.abs.hint)),
                    node(t.scrut, _close(body.right, x, t.abs.hint)))

    return build


def _and_inj(node, inj):
    def build(t):
        x, body = _open(t.abs)
        return inj(node(t.scrut, _close(body.body, x, t.abs.hint)))

    return build


def _and_inlr(node):
    def build(t):
        x, body = _open(t.abs)
        y1, v1 = _open(body.left)
        y2, v2 = _open(body.right)
        return Inlr3(body.scrut,
                     _close(node(t.scrut, _close(v1, x, t.abs.hint)),
                            y1, body.left.hint),
                     _close(node(t.scrut, _close(v2, x, t.abs.hint)),
                            y2, body.right.hint))

    return build


# -- rules 31-42: case against the introductions in its branches --------------

def _case_lam(t):
    x1, b1 = _open(t.left)
    x2, b2 = _open(t.right)
    y = fresh_name(b1.abs.hint or "y")
    u1 = open_abs(b1.abs, y)
    u2 = open_abs(b2.abs, y)
    ann = b1.ann if b1.ann is not None else b2.ann
    return Lam(ann, _close(Case(t.scrut,
                                _close(u1, x1, t.left.hint),
                                _close(u2, x2, t.right.hint)),
                           y, b1.abs.hint))


def _case_pair(t):
    x1, b1 = _open(t.left)
    x2, b2 = _open(t.right)
    return Pair(Case(t.scrut, _close(b1.left, x1, t.left.hint),
                     _close(b2.left, x2, t.right.hint)),
                Case(t.scrut, _close(b1.right, x1, t.left.hint),
                     _close(b2.right, x2, t.right.hint)))


def _case_inj(inj):
    def build(t):
        x1, b1 = _open(t.left)
        x2, b2 = _open(t.right)
        return inj(Case(t.scrut, _close(b1.body, x1, t.left.hint),
                        _close(b2.body, x2, t.right.hint)))

    return build


def _case_inl_inr(t):
    x1, b1 = _open(t.left)
    x2, b2 = _open(t.right)
    return Inlr3(t.scrut, _close(b1.body, x1, t.left.hint),
                 _close(b2.body, x2, t.right.hint))


def _case_inr_inl(t):
    x1, b1 = _open(t.left)
    x2, b2 = _open(t.right)
    pi = _pi_inr_inl(t.scrut, x1, x2)
    return Inlr3(pi, _close(b2.body, x2, t.right.hint),
                 _close(b1.body, x1, t.left.hint))


def _case_inl_inlr(t):
    x1, b1 = _open(t.left)          # b1 = inl(u1)
    x2, b2 = _open(t.right)         # b2 = inlr(t2, y3.u3, y4.u4)
    y3, u3 = _open(b2.left)
    y4, u4 = _open(b2.right)
    z1, z2, w2 = fresh_name("z1"), fresh_name("z2"), fresh_name("w2")
    pi = _pi_inl_inlr(t.scrut, b2.scrut, x1, x2, y3, y4)
    branch1 = Case(Var(z1), _close(b1.body, x1, t.left.hint),
                   _close(pair_subst(Var(w2), x2, y3, u3), w2, "w2"))
    branch2 = pair_subst(Var(z2), x2, y4, u4)
    return Inlr3(pi, _close(branch1, z1, "z1"), _close(branch2, z2, "z2"))


def _case_inr_inlr(t):
    x1, b1 = _open(t.left)          # b1 = inr(u2)
    x2, b2 = _open(t.right)         # b2 = inlr(t2, y3.u3, y4.u4)
    y3, u3 = _open(b2.left)
    y4, u4 = _open(b2.right)
    z1, z2, w2 = fresh_name("z1"), fresh_name("z2"), fresh_name("w2")
    pi = _pi_inr_inlr(t.scrut, b2.scrut, x1, x2, y3, y4)
    branch1 = pair_subst(Var(z1), x2, y3, u3)
    branch2 = Case(Var(z2), _close(b1.body, x1, t.left.hint),
                   _close(pair_subst(Var(w2), x2, y4, u4), w2, "w2"))
    return Inlr3(pi, _close(branch1, z1, "z1"), _close(branch2, z2, "z2"))


def _case_inlr_inl(t):
    x1, b1 = _open(t.left)          # b1 = inlr(t1, y1.u1, y2.u2)
    x2, b2 = _open(t.right)         # b2 = inl(u3)
    y1, u1 = _open(b1.left)
    y2, u2 = _open(b1.right)
    z1, z2, w1 = fresh_name("z1"), fresh_name("z2"), fresh_name("w1")
    pi = _pi_inlr_inl(t.scrut, b1.scrut, x1, x2, y1, y2)
    branch1 = Case(Var(z1), _close(pair_subst(Var(w1), x1, y1, u1), w1, "w1"),
                   _close(b2.body, x2, t.right.hint))
    branch2 = pair_subst(Var(z2), x1, y2, u2)
    return Inlr3(pi, _close(branch1, z1, "z1"), _close(branch2, z2, "z2"))


def _case_inlr_inr(t):
    x1, b1 = _open(t.left)          # b1 = inlr(t1, y1.u1, y2.u2)
    x2, b2 = _open(t.right)         # b2 = inr(u4)
    y1, u1 = _open(b1.left)
    y2, u2 = _open(b1.right)
    z1, z2, w1 = fresh_name("z1"), fresh_name("z2"), fresh_name("w1")
    pi = _pi_inlr_inr(t.scrut, b1.scrut, x1, x2, y1, y2)
    branch1 = pair_subst(Var(z1), x1, y1, u1)
    branch2 = Case(Var(z2), _close(pair_subst(Var(w1), x1, y2, u2), w1, "w1"),
                   _close(b2.body, x2, t.right.hint))
    return Inlr3(pi, _close(branch1, z1, "z1"), _close(branch2, z2, "z2"))


def _case_inlr_inlr(t):
    x1, b1 = _open(t.left)
    x2, b2 = _open(t.right)
    y1, u1 = _open(b1.left)
    y2, u2 = _open(b1.right)
    y3, u3 = _open(b2.left)
    y4, u4 = _open(b2.right)
    z1, z2 = fresh_name("z1"), fresh_name("z2")
    w1, w2 = fresh_name("w1"), fresh_name("w2")
    pi = _pi_inlr_inlr(t.scrut, b1.scrut, b2.scrut, x1, x2, y1, y2, y3, y4)
    branch1 = Case(Var(z1), _close(pair_subst(Var(w1), x1, y1, u1), w1, "w1"),
                   _close(pair_subst(Var(w2), x2, y3, u3), w2, "w2"))
    branch2 = Case(Var(z2), _close(pair_subst(Var(w1), x1, y2, u2), w1, "w1"),
                   _close(pair_subst(Var(w2), x2, y4, u4), w2, "w2"))
    return Inlr3(pi, _close(branch1, z1, "z1"), _close(branch2, z2, "z2"))


# -- the pi witnesses ----------------------------------------------------------

def _pi_inr_inl(t, x1, x2):
    return Case(t, _close(Inr(Var(x1)), x1, "x1"),
                _close(Inl(Var(x2)), x2, "x2"))


def _pi_inl_inlr(t, t2, x1, x2, y3, y4):
    inner = Case(t2,
                 _close(Inl(Inr(Pair(Var(x2), Var(y3)))), y3, "y3"),
                 _close(Inr(Pair(Var(x2), Var(y4))), y4, "y4"))
    return Case(t, _close(Inl(Inl(Var(x1))), x1, "x1"),
                _close(inner, x2, "x2"))


def _pi_inr_inlr(t, t2, x1, x2, y3, y4):
    inner = Case(t2,
                 _close(Inl(Pair(Var(x2), Var(y3))), y3, "y3"),
                 _close(Inr(Inr(Pair(Var(x2), Var(y4)))), y4, "y4"))
    return Case(t, _close(Inr(Inl(Var(x1))), x1, "x1"),
                _close(inner, x2, "x2"))


def _pi_inlr_inl(t, t1, x1, x2, y1, y2):
    inner = Case(t1,
                 _close(Inl(Inl(Pair(Var(x1), Var(y1)))), y1, "y1"),
                 _close(Inr(Pair(Var(x1), Var(y2))), y2, "y2"))
    return Case(t, _close(inner, x1, "x1"),
                _close(Inl(Inr(Var(x2))), x2, "x2"))


def _pi_inlr_inr(t, t1, x1, x2, y1, y2):
    inner = Case(t1,
                 _close(Inl(Pair(Var(x1), Var(y1))), y1, "y1"),
                 _close(Inr(Inl(Pair(Var(x1), Var(y2)))), y2, "y2"))
    return Case(t, _close(inner, x1, "x1"),
                _close(Inr(Inr(Var(x2))), x2, "x2"))


def _pi_inlr_inlr(t, t1, t2, x1, x2, y1, y2, y3, y4):
    left = Case(t1,
                _close(Inl(Inl(Pair(Var(x1), Var(y1)))), y1, "y1"),
                _close(Inr(Inl(Pair(Var(x1), Var(y2)))), y2, "y2"))
    right = Case(t2,
                 _close(Inl(Inr(Pair(Var(x2), Var(y3)))), y3, "y3"),
                 _close(Inr(Inr(Pair(Var(x2), Var(y4)))), y4, "y4"))
    return Case(t, _close(left, x1, "x1"), _close(right, x2, "x2"))


# -- the table -----------------------------------------------------------------

RULES_CC = register_default_ruleset(RuleSet("cc", "cc", (
    # figure I: ordinary cuts
    _rule(1, "top-elim", (TopElim, Star), lambda t: t.body),
    _rule(2, "beta", (App, Lam), _beta),
    _rule(3, "and-elim-1", (AndElim1, Pair),
          lambda t: subst_abs(t.abs, t.scrut.left)),
    _rule(4, "and-elim-2", (AndElim2, Pair),
          lambda t: subst_abs(t.abs, t.scrut.right)),
    _rule(5, "case-inl", (Case, Inl), _case_inl),
    _rule(6, "case-inr", (Case, Inr), _case_inr),
    _rule(7, "case-inlr", (Case, Inlr3), _case_inlr3),
    # figure II: bottom-elimination
    _bot_rule(8, "bot-top", Top, lambda t: Star()),
    _bot_rule(9, "bot-impl", Impl, _bot_lam),
    _bot_rule(10, "bot-conj", Conj,
              lambda t: Pair(BotElim(t.prop.left, t.scrut),
                             BotElim(t.prop.right, t.scrut))),
    _bot_rule(11, "bot-disj-inl", Disj,
              lambda t: Inl(BotElim(t.prop.left, t.scrut)), group=ND_CHOICE),
    _bot_rule(12, "bot-disj-inr", Disj,
              lambda t: Inr(BotElim(t.prop.right, t.scrut)), group=ND_CHOICE),
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
    36: "inl/inlr", 37: "inr/inl", 39: "inr/inlr",
    40: "inlr/inl", 41: "inlr/inr", 42: "inlr/inlr",
}


def pi_term(rule: int | RuleId, t: Term, t1: Term | None = None,
            t2: Term | None = None) -> Term:
    """The scrutinee witness for one of the six mixed case commutations.

    `t` is the outer scrutinee.  `t1` (typed under hypothesis x1) and `t2`
    (under x2) are the inner scrutinees where the construction uses them;
    the built term binds the conventional names x1, x2, y1..y4.
    """
    number = rule.number if isinstance(rule, RuleId) else rule
    kind = _PI_CASES.get(number)
    if kind is None:
        raise ValueError(f"rule {number} has no pi witness")
    if kind == "inr/inl":
        return _pi_inr_inl(t, "x1", "x2")
    if kind == "inl/inlr":
        _need(t2, kind)
        return _pi_inl_inlr(t, t2, "x1", "x2", "y3", "y4")
    if kind == "inr/inlr":
        _need(t2, kind)
        return _pi_inr_inlr(t, t2, "x1", "x2", "y3", "y4")
    if kind == "inlr/inl":
        _need(t1, kind)
        return _pi_inlr_inl(t, t1, "x1", "x2", "y1", "y2")
    if kind == "inlr/inr":
        _need(t1, kind)
        return _pi_inlr_inr(t, t1, "x1", "x2", "y1", "y2")
    _need(t1, kind)
    _need(t2, kind)
    return _pi_inlr_inlr(t, t1, t2, "x1", "x2", "y1", "y2", "y3", "y4")


def _need(arg, kind):
    if arg is None:
        raise ValueError(f"the {kind} witness needs its inner scrutinee")


DEFAULT_FUEL_CC = 10 ** 5


def normalize_cc(t: Term, fuel: int = DEFAULT_FUEL_CC,
                 policy: str = "first"):
    """Reduce under fuel.

    Policy "first" is leftmost-outermost taking the first-listed
    alternative of the bottom-elimination choice; "enumerate" explores the
    whole reduction graph breadth-first and reports every reachable normal
    form.
    """
    if policy == "first":
        return normalize(t, RULES_CC, fuel=fuel)
    if policy == "enumerate":
        return explore(t, node_budget=fuel)
    raise ValueError(f"unknown policy {policy!r}")


@dataclass
class ReductionGraph:
    terms: list = field(default_factory=list)     # node id -> term
    edges: list = field(default_factory=list)     # (src, dst, rule id)
    normal_forms: list = field(default_factory=list)
    budget_hit: bool = False

    def to_dot(self) -> str:
        lines = ["digraph reduction {"]
        for i, t in enumerate(self.terms):
            label = print_term(t).replace("\\", "\\\\").replace('"', '\\"')
            shape = ", shape=box" if i in self.normal_forms else ""
            lines.append(f'  n{i} [label="{label}"{shape}];')
        for src, dst, rid in self.edges:
            lines.append(f'  n{src} -> n{dst} [label="{rid}"];')
        lines.append("}")
        return "\n".join(lines)


def explore(t: Term, node_budget: int = 500,
            ruleset: RuleSet = RULES_CC) -> ReductionGraph:
    """Breadth-first reduction graph, deduplicated up to alpha."""
    graph = ReductionGraph()
    ids = {t: 0}
    graph.terms.append(t)
    queue = [0]
    while queue:
        i = queue.pop(0)
        term = graph.terms[i]
        redexes = find_redexes(term, ruleset)
        if not redexes:
            graph.normal_forms.append(i)
            continue
        for pos, rid in redexes:
            reduct = step_at(term, pos, rid, ruleset=ruleset)
            j = ids.get(reduct)
            if j is None:
                if len(graph.terms) >= node_budget:
                    graph.budget_hit = True
                    continue
                j = len(graph.terms)
                ids[reduct] = j
                graph.terms.append(reduct)
                queue.append(j)
            graph.edges.append((i, j, str(rid)))
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
    from .syntax import parse_term

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

    return DemoResult(route_a, route_b, alpha_eq(route_a.final, route_b.final))
