"""Rule table, measures, and measurement for the quantum calculus.

Rules 19-43.  The deterministic sub-table (everything except the four
``case_nd`` rules 24-27) is left-linear with no critical pairs.  Rules 26
and 27 are the probabilistic pair, measurement: they fire on an ``inlr``
scrutinee once both its components are irreducible, and the branch is
drawn with weights proportional to the squared norms of those
components.  Until then leftmost-outermost reduction goes into the
scrutinee, so the weights are those of the values actually substituted,
and the exact outcome weights describe the same process that the shots
sample.

The two integer measures make the termination argument executable: cut
rules (19-27) strictly decrease mu at the root, the commutation rules
(28-43) never increase mu and strictly decrease nu, so every root step
strictly decreases the lexicographic pair.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

from .iplus import (SUM_INJECTIONS, _beta, _case_inl, _case_inlr, _case_inr,
                    _sum_lam)
from .rewrite import (ND_PAIR, ND_SINGLE, Cursor, Rule, RuleId, RuleSet,
                      Stuck, first_step, is_normal, normalize,
                      register_default_ruleset, step_at)
from .rng import derive_rng, reseat
from .syntax import (Abs, App, Bound, Case, CaseNd, Inl, Inlr2, Inr, Lam,
                     OneElim, Prod, ScalarStar, Sum, Term, Var, instantiate,
                     print_term, subst)


def _rule(n, name, head, build, **kw):
    return Rule(RuleId("quantum", n), name, head, build, **kw)


class ScalarOverflowStuck(Stuck):
    """A scalar commutation whose sum or product is not finite."""
    reason = "scalar-overflow"


def _scalar_star(value):
    """The contractum of rules 28 and 39; stuck rather than infinite."""
    if cmath.isfinite(value):
        return ScalarStar(value)
    raise ScalarOverflowStuck(f"scalar {value} is not finite")


def _prod_lam(t):
    inner = t.body
    return Lam(inner.ann, Abs(inner.abs.hint, Prod(t.value, inner.abs.body)))


_DETERMINISTIC = (
    _rule(19, "one-elim", (OneElim, ScalarStar),
          lambda t: Prod(t.scrut.value, t.body)),
    _rule(20, "beta", (App, Lam), _beta),
    _rule(21, "case-inl", (Case, Inl), _case_inl),
    _rule(22, "case-inr", (Case, Inr), _case_inr),
    _rule(23, "case-inlr", (Case, Inlr2), _case_inlr),
)


def _settled(t):
    """Measure only irreducible components: their norms are the weights."""
    return (is_normal(t.scrut.left, RULES_QUANTUM)
            and is_normal(t.scrut.right, RULES_QUANTUM))


_ND = (
    _rule(24, "case-nd-inl", (CaseNd, Inl), _case_inl, group=ND_SINGLE),
    _rule(25, "case-nd-inr", (CaseNd, Inr), _case_inr, group=ND_SINGLE),
    _rule(26, "case-nd-inlr-left", (CaseNd, Inlr2),
          lambda t: instantiate(t.left.body, (t.scrut.left,)),
          group=ND_PAIR, role="left", guard=_settled),
    _rule(27, "case-nd-inlr-right", (CaseNd, Inlr2),
          lambda t: instantiate(t.right.body, (t.scrut.right,)),
          group=ND_PAIR, role="right", guard=_settled),
)

_COMMUTATIONS = (
    _rule(28, "sum-scalar", (Sum, ScalarStar, ScalarStar),
          lambda t: _scalar_star(t.left.value + t.right.value)),
    _rule(29, "sum-lam", (Sum, Lam, Lam), _sum_lam),
    *(_rule(30 + k, name, (Sum, left, right), build)
      for k, (name, left, right, build) in enumerate(SUM_INJECTIONS)),
    _rule(39, "prod-scalar", (Prod, ScalarStar),
          lambda t: _scalar_star(t.value * t.body.value)),
    _rule(40, "prod-lam", (Prod, Lam), _prod_lam),
    _rule(41, "prod-inl", (Prod, Inl),
          lambda t: Inl(Prod(t.value, t.body.body))),
    _rule(42, "prod-inr", (Prod, Inr),
          lambda t: Inr(Prod(t.value, t.body.body))),
    _rule(43, "prod-inlr", (Prod, Inlr2),
          lambda t: Inlr2(Prod(t.value, t.body.left),
                          Prod(t.value, t.body.right))),
)

RULES_QUANTUM = register_default_ruleset(
    RuleSet("quantum", "quantum", _DETERMINISTIC + _ND + _COMMUTATIONS))

#: rules 19-23 and 28-43; confluent (left-linear, no critical pairs)
RULES_QUANTUM_DET = RuleSet("quantum-det", "quantum",
                            _DETERMINISTIC + _COMMUTATIONS)

_INTROS = (ScalarStar, Lam, Inl, Inr, Inlr2)


def is_introduction(t: Term) -> bool:
    return isinstance(t, _INTROS)


# ---------------------------------------------------------------------------
# Measures

def measure_mu(t: Term) -> int:
    """The size-like measure; cut rules strictly decrease it at the root."""
    if isinstance(t, (Var, Bound)):
        return 0
    if isinstance(t, Sum):
        return 1 + max(measure_mu(t.left), measure_mu(t.right))
    if isinstance(t, Prod):
        return 1 + measure_mu(t.body)
    if isinstance(t, ScalarStar):
        return 1
    if isinstance(t, OneElim):
        return 1 + measure_mu(t.scrut) + measure_mu(t.body)
    if isinstance(t, Lam):
        return 1 + measure_mu(t.abs.body)
    if isinstance(t, App):
        return 1 + measure_mu(t.fn) + measure_mu(t.arg)
    if isinstance(t, (Inl, Inr)):
        return 1 + measure_mu(t.body)
    if isinstance(t, Inlr2):
        return 1 + max(measure_mu(t.left), measure_mu(t.right))
    if isinstance(t, (Case, CaseNd)):
        return 1 + measure_mu(t.scrut) + max(measure_mu(t.left.body),
                                             measure_mu(t.right.body))
    raise ValueError(f"{type(t).__name__} is not a quantum constructor")


def measure_nu(t: Term) -> int:
    """The depth-weighted measure; commutations strictly decrease it."""
    if isinstance(t, (Var, Bound)):
        return 0
    if isinstance(t, Sum):
        return 1 + 2 * max(measure_nu(t.left), measure_nu(t.right))
    if isinstance(t, Prod):
        return 1 + 2 * measure_nu(t.body)
    if isinstance(t, ScalarStar):
        return 1
    if isinstance(t, OneElim):
        return 1
    if isinstance(t, Lam):
        return 1 + measure_nu(t.abs.body)
    if isinstance(t, App):
        return 1
    if isinstance(t, (Inl, Inr)):
        return 1 + measure_nu(t.body)
    if isinstance(t, Inlr2):
        return 1 + max(measure_nu(t.left), measure_nu(t.right))
    if isinstance(t, (Case, CaseNd)):
        return 1
    raise ValueError(f"{type(t).__name__} is not a quantum constructor")


def lex_gt(t: Term, u: Term) -> bool:
    """Strict lexicographic order on (mu, nu)."""
    mt, mu_ = measure_mu(t), measure_mu(u)
    if mt != mu_:
        return mt > mu_
    return measure_nu(t) > measure_nu(u)


def check_lex_decrease(t: Term, u: Term) -> bool:
    """Whether a root step from t to u strictly decreased (mu, nu).

    Only root steps are measured; inner steps go through the monotony
    argument instead.
    """
    return lex_gt(t, u)


def mu_subst_additivity(t: Term, u: Term, x: str) -> bool:
    """mu((u/x)t) == mu(t) + mu(u).

    Assumes the linear typing preconditions, which are not re-checked
    here: x occurs in t exactly as a linear hypothesis and u proves its
    proposition.
    """
    return measure_mu(subst(u, x, t)) == measure_mu(t) + measure_mu(u)


# ---------------------------------------------------------------------------
# Measurement runs

def _stuck_bin(reason):
    """The outcome bin of the runs stuck for a reason."""
    return f"<stuck:{reason}>"


STUCK_BIN = _stuck_bin("zero-norm")
FUEL_BIN = "<fuel-exhausted>"


@dataclass
class Histogram:
    shots: int
    bins: list = field(default_factory=list)  # [{term, count, frequency, ...}]

    def to_json(self) -> str:
        return json.dumps(self.bins, indent=2, sort_keys=True)


def run_measure(t: Term, shots: int, seed: int,
                fuel: int = 10 ** 6) -> Histogram:
    """Normalize t repeatedly with independent seeded streams.

    Outcomes are binned by alpha-equivalence of the normal form; stuck
    runs land in a bin per reason.  Exact weights are attached when the
    outcome distribution is small enough to enumerate.  The steps before
    the first measurement draw nothing, so they are taken once and every
    shot starts after them.
    """
    start, used, _ = _walk(t, 0, fuel)
    counts = {}
    rng = derive_rng(seed, 0x5407, 0)
    for shot in range(shots):
        reseat(rng, seed, 0x5407, shot)
        tr = normalize(start, RULES_QUANTUM, fuel=fuel - used, rng=rng)
        if tr.outcome.kind == "normal-form":
            key = tr.final
        elif tr.outcome.kind == "stuck":
            key = _stuck_bin(tr.outcome.reason)
        else:
            key = FUEL_BIN
        counts[key] = counts.get(key, 0) + 1
    exact = _exact_distribution(start, used, fuel)
    bins = []
    for key, count in counts.items():
        name = key if isinstance(key, str) else print_term(key)
        entry = {"term": name, "count": count, "frequency": count / shots}
        if key in exact:
            entry["exact_weight"] = exact[key]
        bins.append(entry)
    bins.sort(key=lambda e: (-e["count"], e["term"]))
    return Histogram(shots=shots, bins=bins)


def _walk(t: Term, steps: int, fuel: int):
    """Take normalize's steps from t up to a measurement step or an end.

    `steps` were taken before t.  Returns (term, steps, outcome bin), the
    bin None when the term stops at a measurement step.
    """
    cur = Cursor(t, RULES_QUANTUM)
    try:
        while True:
            step = cur.next_step()
            if step is None:
                t = cur.term()
                return t, steps, t
            if steps >= fuel:
                return cur.term(), steps, FUEL_BIN
            _, alternatives = step
            if alternatives[0][0].group == ND_PAIR:
                return cur.term(), steps, None
            cur.contract(alternatives[0][0].build)
            steps += 1
    except Stuck as e:
        return cur.term(), steps, _stuck_bin(e.reason)


def _exact_distribution(t: Term, steps: int, fuel: int,
                        max_paths: int = 256):
    """The probability of every outcome bin, following both branches of
    each measurement; empty when a branch has no weight or when there are
    more than max_paths measurement steps."""
    out = {}
    todo = [(t, steps, 1.0)]
    paths = 0
    while todo:
        term, used, prob = todo.pop()
        term, used, key = _walk(term, used, fuel)
        if key is not None:
            out[key] = out.get(key, 0.0) + prob
            continue
        paths += 1
        pos, alternatives = first_step(term, RULES_QUANTUM)
        if paths > max_paths or alternatives[0][1] is None:
            return {}
        for rule, p in reversed(alternatives):  # the left branch first
            branch = step_at(term, pos, rule.rid, choice=rule.role,
                             ruleset=RULES_QUANTUM)
            todo.append((branch, used + 1, prob * p))
    return out
