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
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .iplus import (SUM_INJECTIONS, _beta, _case_inl, _case_inlr, _case_inr,
                    _sum_lam)
from .rewrite import (ND_PAIR, Cursor, Rule, RuleId, RuleSet, Stuck,
                      is_normal, register_default_ruleset, run_steps)
from .rng import draw_block
from .syntax import (_TERM_ALLOWED, Abs, App, Bound, Case, CaseNd, Inl, Inlr2,
                     Inr, Lam, OneElim, Prod, ScalarStar, Sum, Term, Var, fold,
                     instantiate, print_term)


def _rule(n, name, head, build, **kw):
    return Rule(RuleId("quantum", n), name, head, build, **kw)


class ScalarOverflowStuck(Stuck):
    """A scalar commutation whose sum or product is not finite."""
    reason = "scalar-overflow"


class ZeroNormStuck(Stuck):
    """Both branch weights of a measurement step are zero."""
    reason = "zero-norm"


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


def structural_norm_sq(t: Term) -> float | None:
    """The squared norm of a closed irreducible vector proof, else None;
    inf when a square is too large for a float.

    An explicit stack holds the nodes still to weigh, and None marks an
    `inlr` whose two norms are on top of `norms`, to be added.
    """
    todo = [t]
    norms = []
    while todo:
        t = todo.pop()
        if t is None:
            right = norms.pop()
            norms[-1] += right
        elif isinstance(t, ScalarStar):
            try:
                norms.append(abs(t.value) ** 2)
            except OverflowError:  # the modulus or its square
                norms.append(cmath.inf)
        elif isinstance(t, Inlr2):
            todo += (None, t.right, t.left)
        elif isinstance(t, (Inl, Inr)):
            todo.append(t.body)
        else:
            return None
    return norms[0]


def _born_weights(t: CaseNd) -> tuple:
    """The probabilities of rules 26 and 27: the squared norms of the values
    the branches receive over their sum, None for both (a uniform draw) at
    a component that is not a vector value; stuck at an inf sum, or at a
    zero one when every amplitude is zero.  A sum below the normal floats
    is taken again with each modulus scaled by the power of two that
    brings the largest into [0.5, 1), which scales the weights exactly."""
    l, r = t.scrut.left, t.scrut.right
    wl, wr = structural_norm_sq(l), structural_norm_sq(r)
    if wl is None or wr is None:
        return None, None
    total = wl + wr
    if total < sys.float_info.min:
        biggest = lambda node, mods: max(mods) if mods else abs(node.value)
        top = max(fold(l, biggest), fold(r, biggest))
        if top == 0.0:
            raise ZeroNormStuck("both branch weights are zero")
        e = -math.frexp(top)[1]
        scaled = lambda node, norms: (sum(norms) if norms else
                                      math.ldexp(abs(node.value), e) ** 2)
        wl, wr = fold(l, scaled), fold(r, scaled)
        total = wl + wr
    if not cmath.isfinite(total):
        raise ScalarOverflowStuck(f"squared norm {total} is not finite")
    return wl / total, wr / total


_ND = (
    _rule(24, "case-nd-inl", (CaseNd, Inl), _case_inl,
          weigh=lambda t: (1.0,)),
    _rule(25, "case-nd-inr", (CaseNd, Inr), _case_inr,
          weigh=lambda t: (1.0,)),
    _rule(26, "case-nd-inlr-left", (CaseNd, Inlr2),
          lambda t: instantiate(t.left.body, (t.scrut.left,)),
          group=ND_PAIR, role="left", guard=_settled, weigh=_born_weights),
    _rule(27, "case-nd-inlr-right", (CaseNd, Inlr2),
          lambda t: instantiate(t.right.body, (t.scrut.right,)),
          group=ND_PAIR, role="right", guard=_settled, weigh=_born_weights),
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
    def mu(node, values):
        cls = type(node)
        if cls is Sum or cls is Inlr2:
            return 1 + max(values)
        if cls is Case or cls is CaseNd:
            return 1 + values[0] + max(values[1], values[2])
        if cls in _TERM_ALLOWED["quantum"]:
            return 0 if cls is Var or cls is Bound else 1 + sum(values)
        raise ValueError(f"{cls.__name__} is not a quantum constructor")

    return fold(t, mu)


def measure_nu(t: Term) -> int:
    """The depth-weighted measure; commutations strictly decrease it."""
    def nu(node, values):
        cls = type(node)
        if cls is Sum or cls is Prod:
            return 1 + 2 * max(values)
        if cls in (Lam, Inl, Inr, Inlr2):
            return 1 + max(values)
        if cls in _TERM_ALLOWED["quantum"]:
            return 0 if cls is Var or cls is Bound else 1
        raise ValueError(f"{cls.__name__} is not a quantum constructor")

    return fold(t, nu)


def lex_gt(t: Term, u: Term) -> bool:
    """Strict lexicographic order on (mu, nu)."""
    mt, mu_ = measure_mu(t), measure_mu(u)
    if mt != mu_:
        return mt > mu_
    return measure_nu(t) > measure_nu(u)


def mu_subst_additivity(body: Term, u: Term) -> bool:
    """mu((u/x)t) == mu(t) + mu(u), with t the body of a binder x.

    `body` refers to x as its loose index 0, and u is plugged in for it
    with `instantiate(body, (u,))`.  Assumes the linear typing
    preconditions, which are not re-checked here: x occurs in the body
    exactly as a linear hypothesis and u proves its proposition.
    """
    return measure_mu(instantiate(body, (u,))) \
        == measure_mu(body) + measure_mu(u)


# ---------------------------------------------------------------------------
# Measurement runs

def _bin(kind, reason=None):
    """The outcome bin of the runs that end other than in a normal form."""
    return f"<{kind}:{reason}>" if reason else f"<{kind}>"


STUCK_BIN = _bin("stuck", "zero-norm")
FUEL_BIN = _bin("fuel-exhausted")


@dataclass
class Histogram:
    shots: int
    bins: list = field(default_factory=list)  # [{term, count, frequency, ...}]
    stats: dict = field(default_factory=dict)  # how the shots were walked

    def to_json(self) -> str:
        return json.dumps(self.bins, indent=2, sort_keys=True)


#: the shots drawn and walked together; bounds the draw arrays' memory
CHUNK = 1 << 16

# the lane prefix of the shot streams: shot s draws from
# derive_rng(seed, _SHOT_LANE, s)
_SHOT_LANE = 0x5407


def run_measure(t: Term, shots: int, seed: int,
                fuel: int = 10 ** 6) -> Histogram:
    """The outcomes of `shots` normalizations of t, shot s drawing its
    measurements from its own stream, `derive_rng(seed, 0x5407, s)`.

    The shots walk one tree of runs together, a chunk of CHUNK shots at a
    time: at a measurement the node's shots split by their draws between
    its two branches, so each run between two measurements is reduced
    once, and the Python work grows with the nodes of the tree, not with
    the shots.  Outcomes are binned by alpha-equivalence of the normal
    form; stuck runs land in a bin per reason.  Exact weights are
    attached when the outcome distribution is small enough to enumerate;
    they walk the same tree.  `stats` counts the runs reduced, the leaves
    the shots hit and the most draws a shot made, and gives the share of
    the shots in the fuel bin and whether exact weights were attached.
    """
    root = _Run(t, fuel)
    hits = {}  # leaf -> [first shot ending there, shots, draws]
    for start in range(0, shots, CHUNK):
        _walk(root, seed, range(start, min(start + CHUNK, shots)), hits)
    # each leaf is looked up by its outcome once, in first-hit order; a bin
    # keeps the term of its first hit, whose binder hints it prints
    bins = {}  # outcome -> [shots, exact weight]
    bin_of = {}  # leaf -> its bin
    for leaf, (_, count, _) in sorted(hits.items(), key=lambda h: h[1][0]):
        entry = bin_of[leaf] = bins.setdefault(leaf.end, [0, 0.0])
        entry[0] += count
    weights = _leaf_weights(root)
    for leaf, prob in weights or ():
        entry = bin_of.get(leaf) or bins.get(leaf.end)
        if entry is not None:
            entry[1] += prob
    out = []
    for key, (count, weight) in bins.items():
        name = key if isinstance(key, str) else print_term(key)
        entry = {"term": name, "count": count, "frequency": count / shots}
        if weights is not None:
            entry["exact_weight"] = weight
        out.append(entry)
    out.sort(key=lambda e: (-e["count"], e["term"]))
    fuel_shots = bins.get(FUEL_BIN, (0,))[0]
    stats = {"shots": shots, "runs": _runs(root), "leaves_hit": len(hits),
             "max_draws": max((d for _, _, d in hits.values()), default=0),
             "fuel_mass": fuel_shots / shots if shots else 0.0,
             "exact_weights": weights is not None}
    return Histogram(shots=shots, bins=out, stats=stats)


def _walk(root: _Run, seed: int, chunk: range, hits: dict) -> None:
    """Walk the shots of chunk down the tree from root, adding to hits.

    A node holds its shots as a sorted array of their offsets in chunk.
    At a measurement at depth d, a shot takes the left branch when its
    d-th draw is below the left branch's probability, as `rewrite._draw`
    decides; the draws come a Philox block of four per shot at a time,
    drawn for the whole chunk when the walk first needs the block.
    """
    blocks = []  # block b: draws 4b .. 4b+3 of every shot of chunk
    todo = [(root, np.arange(len(chunk)), 0)]
    while todo:
        run, idx, depth = todo.pop()
        if run.end is not None:
            hit = hits.get(run)
            if hit is None:
                hits[run] = [chunk.start + int(idx[0]), len(idx), depth]
            else:
                hit[1] += len(idx)
            continue
        block, word = divmod(depth, 4)
        if block == len(blocks):
            blocks.append(draw_block(seed, (_SHOT_LANE,), chunk, block))
        p = run.probs[0]
        left = blocks[block][word][idx] < (0.5 if p is None else p)
        for i, side in ((1, idx[~left]), (0, idx[left])):
            if len(side):
                todo.append((run.branch(i), side, depth + 1))


def _runs(root: _Run) -> int:
    """The runs of the tree reduced so far."""
    count, todo = 0, [root]
    while todo:
        run = todo.pop()
        count += 1
        if run.end is None:
            todo.extend(kid for kid in run._kids if type(kid) is not tuple)
    return count


class _Run:
    """A node of the tree of runs: the engine's steps from a term with
    `fuel` steps left (`rewrite.run_steps`), up to a measurement or an end.

    At an end, `end` is the outcome bin: the normal form, or the name of
    a stuck or fuel bin.  At a measurement `end` is None, `probs` are the
    two branches' probabilities (None for a uniform draw), and
    `branch(i)` is the run on from branch i, walked the first time it is
    asked for.
    """

    __slots__ = ("end", "probs", "_kids")

    def __init__(self, t: Term, fuel: int):
        cur = Cursor(t, RULES_QUANTUM)
        steps = []
        stop = run_steps(cur, steps, fuel)
        if type(stop) is tuple:
            self.end = (cur.term() if stop[0] == "normal-form"
                        else _bin(*stop))
            return
        self.end = None
        self.probs = [p for _, p in stop]
        fuel -= len(steps) + 1
        self._kids = [(cur.plug(rule.build(cur.focus)), fuel)
                      for rule, _ in stop]

    def branch(self, i: int) -> _Run:
        kid = self._kids[i]
        if type(kid) is tuple:
            kid = self._kids[i] = _Run(*kid)
        return kid


def _leaf_weights(root: _Run):
    """Every leaf under root with its probability, depth first and the
    left branch first; None when a branch has no weight or when there are
    more than 256 measurement steps."""
    out = []
    todo = [(root, 1.0)]
    paths = 0
    while todo:
        run, prob = todo.pop()
        if run.end is not None:
            out.append((run, prob))
            continue
        paths += 1
        if paths > 256 or run.probs[0] is None:
            return None
        for i in (1, 0):  # the left branch first
            todo.append((run.branch(i), prob * run.probs[i]))
    return out
