"""Rule table and predicates for the iplus calculus.

The nineteen reduction rules: seven cut rules (1-7) and twelve rules
commuting the sum with the introductions (8-19).  The table is left-linear
and the left-hand sides are pairwise non-overlapping, which is what makes
the calculus confluent.  The quantum and cc tables reuse the builders of
the rules they share with this one.
"""

from __future__ import annotations

from .rewrite import Rule, RuleId, RuleSet, register_default_ruleset
from .syntax import (Abs, AndElim1, AndElim2, App, Case, Inl, Inlr2, Inr,
                     Lam, Pair, Star, Sum, Term, TopElim, instantiate)


def _rule(n, name, head, build):
    return Rule(RuleId("iplus", n), name, head, build)


def _beta(t):
    return instantiate(t.fn.abs.body, (t.arg,))


def _sum_lam(t):
    a, b = t.left, t.right
    ann = a.ann if a.ann is not None else b.ann
    return Lam(ann, Abs(a.abs.hint, Sum(a.abs.body, b.abs.body)))


def _case_inl(t):
    return instantiate(t.left.body, (t.scrut.body,))


def _case_inr(t):
    return instantiate(t.right.body, (t.scrut.body,))


def _case_inlr(t):
    return Sum(instantiate(t.left.body, (t.scrut.left,)),
               instantiate(t.right.body, (t.scrut.right,)))


#: the cuts that iplus and cc share, as (name, head, build) (iplus 1-6,
#: cc 1-6)
CUTS = (
    ("top-elim", (TopElim, Star), lambda t: t.body),
    ("beta", (App, Lam), _beta),
    ("and-elim-1", (AndElim1, Pair),
     lambda t: instantiate(t.abs.body, (t.scrut.left,))),
    ("and-elim-2", (AndElim2, Pair),
     lambda t: instantiate(t.abs.body, (t.scrut.right,))),
    ("case-inl", (Case, Inl), _case_inl),
    ("case-inr", (Case, Inr), _case_inr),
)

#: the sum against two injections (iplus 11-19, quantum 30-38)
SUM_INJECTIONS = (
    ("sum-inl-inl", Inl, Inl, lambda t: Inl(Sum(t.left.body, t.right.body))),
    ("sum-inl-inr", Inl, Inr, lambda t: Inlr2(t.left.body, t.right.body)),
    ("sum-inl-inlr", Inl, Inlr2,
     lambda t: Inlr2(Sum(t.left.body, t.right.left), t.right.right)),
    ("sum-inr-inl", Inr, Inl, lambda t: Inlr2(t.right.body, t.left.body)),
    ("sum-inr-inr", Inr, Inr, lambda t: Inr(Sum(t.left.body, t.right.body))),
    ("sum-inr-inlr", Inr, Inlr2,
     lambda t: Inlr2(t.right.left, Sum(t.left.body, t.right.right))),
    ("sum-inlr-inl", Inlr2, Inl,
     lambda t: Inlr2(Sum(t.left.left, t.right.body), t.left.right)),
    ("sum-inlr-inr", Inlr2, Inr,
     lambda t: Inlr2(t.left.left, Sum(t.left.right, t.right.body))),
    ("sum-inlr-inlr", Inlr2, Inlr2,
     lambda t: Inlr2(Sum(t.left.left, t.right.left),
                     Sum(t.left.right, t.right.right))),
)


RULES_IPLUS = register_default_ruleset(RuleSet("iplus", "iplus", (
    *(_rule(1 + k, *cut) for k, cut in enumerate(CUTS)),
    _rule(7, "case-inlr", (Case, Inlr2), _case_inlr),
    _rule(8, "sum-star", (Sum, Star, Star), lambda t: Star()),
    _rule(9, "sum-lam", (Sum, Lam, Lam), _sum_lam),
    _rule(10, "sum-pair", (Sum, Pair, Pair),
          lambda t: Pair(Sum(t.left.left, t.right.left),
                         Sum(t.left.right, t.right.right))),
    *(_rule(11 + k, name, (Sum, left, right), build)
      for k, (name, left, right, build) in enumerate(SUM_INJECTIONS)),
)))


_INTROS = (Star, Lam, Pair, Inl, Inr, Inlr2)


def is_introduction(t: Term) -> bool:
    """Whether the head constructor is an introduction form."""
    return isinstance(t, _INTROS)
