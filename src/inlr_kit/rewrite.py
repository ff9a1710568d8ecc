"""Rule-driven reduction engine.

Rule tables are data: every rule has an id (calculus tag + number), a
head (the constructor at the root and the constructors of the children it
inspects), an optional guard for side conditions, and a contractum
builder.  Each table compiles its heads once into a dict keyed by
constructors.  The engine discovers redexes in leftmost-outermost order,
steps with an explicit rng for the non-deterministic rules, records traces
that replay exactly, and joins one-step peaks for confluence testing.

Matching only inspects constructors, so redexes are found on the nameless
term as it is.  Builders always receive a locally closed redex: the
engine opens the binders on the path to the redex and closes them again
around the contractum, so builders work with ordinary named variables and
capture is impossible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .syntax import (ABS, Inl, Inlr2, Inr, ScalarStar, Term, alpha_eq,
                     child_slots, close_term, fresh_name, open_abs,
                     replace_children, subterms)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

# nd-family tags
ND_PAIR = "nd-inlr"      # probabilistic pair (quantum 26/27)
ND_SINGLE = "nd-single"  # non-deterministic in name only (quantum 24/25)
ND_CHOICE = "nd-choice"  # unweighted alternatives (cc bottom-elimination)


@dataclass(frozen=True)
class RuleId:
    calculus: str
    number: int

    def __str__(self):
        return f"{self.calculus}:{self.number}"


def _head_key(t: Term, width: int) -> tuple:
    """t's constructor, then those of its first `width` path-children."""
    if not width:
        return (type(t),)
    return (type(t), *map(type, subterms(t)[:width]))


def _fits(head: tuple, key: tuple) -> bool:
    """Whether a rule head admits a constructor key (None is a wildcard)."""
    return all(want is None or want is got for want, got in zip(head, key))


@dataclass(frozen=True)
class Rule:
    rid: RuleId
    name: str
    # (root constructor, child constructor or None, ...), children taken in
    # child_slots order; an abstraction slot stands for its body
    head: tuple
    build: object   # locally closed Term -> Term
    group: str | None = None
    role: str | None = None  # "left" / "right" within an ND_PAIR family
    guard: object = None     # Term -> bool, a side condition beyond the head

    def match(self, t: Term) -> bool:
        """Whether the head and the guard both accept t."""
        return (type(t) is self.head[0]
                and _fits(self.head, _head_key(t, len(self.head) - 1))
                and (self.guard is None or self.guard(t)))


@dataclass(frozen=True)
class RuleSet:
    name: str
    calculus: str
    rules: tuple
    # root constructor -> how many path-children its rule heads inspect
    _width: dict = field(init=False, repr=False, compare=False)
    # constructor key -> the rules whose heads admit it, in table order;
    # each key is compiled the first time a term shows it
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        width = {}
        for r in self.rules:
            width[r.head[0]] = max(width.get(r.head[0], 0), len(r.head) - 1)
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_index", {})

    def matching(self, t: Term) -> list:
        """The rules whose left-hand sides match t, in table order.

        A guard that several rules share is asked once.
        """
        key = _head_key(t, self._width.get(type(t), 0))
        hits = self._index.get(key)
        if hits is None:
            hits = tuple(r for r in self.rules if _fits(r.head, key))
            self._index[key] = hits
        verdicts = {}
        out = []
        for r in hits:
            if r.guard is not None:
                if r.guard not in verdicts:
                    verdicts[r.guard] = r.guard(t)
                if not verdicts[r.guard]:
                    continue
            out.append(r)
        return out

    def by_number(self, number: int) -> Rule:
        for r in self.rules:
            if r.rid.number == number:
                return r
        raise KeyError(number)


_REGISTRY: dict[str, RuleSet] = {}


def register_default_ruleset(rs: RuleSet) -> RuleSet:
    _REGISTRY[rs.calculus] = rs
    return rs


def default_ruleset(calculus: str) -> RuleSet:
    return _REGISTRY[calculus]


class NoMatchError(Exception):
    pass


class ZeroNormStuck(Exception):
    """Both branch weights of a measurement step are zero."""


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class Step:
    rule: RuleId
    pos: tuple
    weight: float | None

    def to_json(self):
        out = {"rule": str(self.rule), "pos": list(self.pos)}
        out["weight"] = self.weight
        return out


@dataclass(frozen=True)
class NormalFormOutcome:
    term: Term
    kind = "normal-form"


@dataclass(frozen=True)
class FuelExhaustedOutcome:
    term: Term
    kind = "fuel-exhausted"


@dataclass(frozen=True)
class StuckOutcome:
    term: Term
    reason: str
    kind = "stuck"


@dataclass
class ReductionTrace:
    initial: Term
    steps: list = field(default_factory=list)
    outcome: object = None

    @property
    def final(self) -> Term:
        return self.outcome.term

    def step_lines(self):
        import json

        return [json.dumps(s.to_json(), sort_keys=True) for s in self.steps]


def replay_states(trace: ReductionTrace, ruleset: RuleSet | None = None):
    """The terms along a recorded trace, the initial one first."""
    t = trace.initial
    yield t
    for s in trace.steps:
        t = step_at(t, s.pos, s.rule, ruleset=ruleset)
        yield t


def replay(trace: ReductionTrace, ruleset: RuleSet | None = None) -> Term:
    """Re-run the recorded steps; reproduces the outcome term exactly."""
    *_, last = replay_states(trace, ruleset)
    return last


# ---------------------------------------------------------------------------
# The alternatives at a redex

def structural_norm_sq(t: Term) -> float | None:
    """The squared norm of a closed irreducible vector proof, else None."""
    if isinstance(t, ScalarStar):
        return abs(t.value) ** 2
    if isinstance(t, Inlr2):
        a = structural_norm_sq(t.left)
        b = structural_norm_sq(t.right)
        if a is None or b is None:
            return None
        return a + b
    if isinstance(t, (Inl, Inr)):
        return structural_norm_sq(t.body)
    return None


def _alternatives(redex, here):
    """The rules matching at one redex, each with its probability.

    The probabilistic pair fires only on irreducible components (its
    guard), so its weights are the squared norms of the very values the
    branches receive; components that are not vector values give weight
    None and a uniform draw.  An ND_SINGLE rule is certain.  Other rules
    carry no weight, and the engine takes the first listed.
    """
    first = here[0]
    if first.group == ND_PAIR:
        left = next(r for r in here if r.role == "left")
        right = next(r for r in here if r.role == "right")
        wl = structural_norm_sq(redex.scrut.left)
        wr = structural_norm_sq(redex.scrut.right)
        if wl is None or wr is None:
            return [(left, None), (right, None)]
        total = wl + wr
        if total == 0.0:
            raise ZeroNormStuck("both branch weights are zero")
        return [(left, wl / total), (right, wr / total)]
    if first.group == ND_SINGLE:
        return [(first, 1.0)]
    return [(r, None) for r in here]


def _draw(alternatives, rng):
    """The engine's pick: a pair's branch drawn from rng, else the first."""
    first, p = alternatives[0]
    if first.group != ND_PAIR or rng is None:
        return alternatives[0]
    return alternatives[0 if rng.random() < (0.5 if p is None else p) else 1]


# ---------------------------------------------------------------------------
# Redex discovery

def _mark_normal(obj, key):
    cache = getattr(obj, "_nf", None)
    if cache is None:
        object.__setattr__(obj, "_nf", {key})
    else:
        cache.add(key)


def _is_normal_cached(obj, key):
    cache = getattr(obj, "_nf", None)
    return cache is not None and key in cache


def _search(t, rs, pos, out, first):
    """Collect (position, redex, matching rules), leftmost-outermost.

    With `first` the search stops at the first redex.  Subterms found to
    be redex-free are marked so that later searches skip them.  Returns
    whether t contains a redex.
    """
    if _is_normal_cached(t, rs.name):
        return False
    here = rs.matching(t)
    if here:
        out.append((pos, t, here))
        if first:
            return True
    found = bool(here)
    for i, child in enumerate(subterms(t)):
        if _search(child, rs, pos + (i,), out, first):
            if first:
                return True
            found = True
    if not found:
        _mark_normal(t, rs.name)
    return found


def find_redexes(t: Term, ruleset: RuleSet):
    """All (position, rule id) pairs, leftmost-outermost, all alternatives."""
    out = []
    _search(t, ruleset, (), out, first=False)
    return [(pos, r.rid) for pos, _, here in out for r in here]


def is_normal(t: Term, ruleset: RuleSet) -> bool:
    """Whether t contains no redex of the table."""
    return not _search(t, ruleset, (), [], first=True)


def first_step(t: Term, ruleset: RuleSet):
    """The leftmost-outermost redex of t: (position, alternatives).

    The alternatives are (rule, probability) pairs as `_alternatives`
    gives them; None when t is normal.  Raises ZeroNormStuck on a
    measurement whose two weights are zero.
    """
    found = []
    if not _search(t, ruleset, (), found, first=True):
        return None
    pos, redex, here = found[0]
    return pos, _alternatives(redex, here)


# ---------------------------------------------------------------------------
# Single steps

def rewrite_at(t, pos, contract):
    """Replace the subterm at pos by contract(subterm).

    The binders on the path are opened on the way down and closed again
    around the result, so `contract` sees a locally closed subterm.
    """
    if not pos:
        return contract(t)
    i, rest = pos[0], pos[1:]
    slots = child_slots(t)
    if i >= len(slots):
        raise NoMatchError(f"position {pos} does not exist")
    children = subterms(t)
    name, kind = slots[i]
    if kind == ABS:
        a = getattr(t, name)
        x = fresh_name(a.hint)
        new = rewrite_at(open_abs(a, x), rest, contract)
        children[i] = close_term(new, x, hint=a.hint).body
    else:
        children[i] = rewrite_at(children[i], rest, contract)
    return replace_children(t, children)


def step_at(t: Term, pos, rid: RuleId, choice: str | None = None,
            rng=None, ruleset: RuleSet | None = None) -> Term:
    """Apply one named rule at a position.

    For the probabilistic pair of measurement rules `choice`
    ("left"/"right") forces the branch; otherwise an rng draws it with the
    norm-proportional weights, and without one the named rule applies.
    """
    rs = ruleset or default_ruleset(rid.calculus)

    def contract(t):
        here = rs.matching(t)
        rule = next((r for r in here if r.rid == rid), None)
        if rule is None:
            raise NoMatchError(f"rule {rid} does not match here")
        if rule.group == ND_PAIR:
            alternatives = _alternatives(t, here)
            if choice is not None:
                rule = next(r for r, _ in alternatives if r.role == choice)
            elif rng is not None:
                rule, _ = _draw(alternatives, rng)
        return rule.build(t)

    return rewrite_at(t, tuple(pos), contract)


# ---------------------------------------------------------------------------
# Normalization

def normalize(t: Term, ruleset: RuleSet, fuel: int = 10 ** 6,
              rng=None) -> ReductionTrace:
    """Repeatedly contract the leftmost-outermost redex.

    Deterministic given the rng seed; the outcome encodes normal forms,
    fuel exhaustion, and zero-norm stuck measurements.
    """
    trace = ReductionTrace(initial=t)
    cur = t
    while True:
        try:
            step = first_step(cur, ruleset)
        except ZeroNormStuck:
            trace.outcome = StuckOutcome(cur, "zero-norm")
            return trace
        if step is None:
            trace.outcome = NormalFormOutcome(cur)
            return trace
        if len(trace.steps) >= fuel:
            trace.outcome = FuelExhaustedOutcome(cur)
            return trace
        pos, alternatives = step
        rule, weight = _draw(alternatives, rng)
        cur = rewrite_at(cur, pos, rule.build)
        trace.steps.append(Step(rule.rid, pos, weight))


def join_peak(t: Term, ruleset: RuleSet, fuel: int = 10 ** 6) -> bool:
    """Check that all one-step reducts of t share one normal form.

    Only meaningful on a deterministic ruleset (no nd families).
    """
    nfs = []
    for pos, rid in find_redexes(t, ruleset):
        u = step_at(t, pos, rid, ruleset=ruleset)
        tr = normalize(u, ruleset, fuel=fuel)
        if tr.outcome.kind != "normal-form":
            return False
        nfs.append(tr.final)
    return all(alpha_eq(nfs[0], nf) for nf in nfs[1:]) if nfs else True
