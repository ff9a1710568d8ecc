"""Type-directed random generation of well-typed terms.

Rejection sampling of raw terms almost never typechecks, so generation
runs top-down: pick a goal proposition, then build a derivation for it,
choosing randomly among the rules that keep the goal provable.  The
linear generator additionally threads the hypotheses that still have to
be consumed and always has a deterministic way to discharge them, so it
never backtracks.

Every decision is a draw through `_pick`, `_coin` or `_roll`, and each
takes its first option when there is no rng.  A generator whose size
budget is spent goes on with no rng and offers no move that restates its
goal, so the smallest proof is the same generator, each decision its
first.

Terms are built nameless, as the parser builds them.  A context key is
either a name (a free `Var`) or the level of a binder (0 outermost), and
each generator is passed the depth it builds at, so the variable of level
k is `Bound(depth - 1 - k)` and a binder pushes its hypothesis at level
`depth`.

The per-rule instance builders at the bottom produce well-typed redexes
for every entry of the three rule tables; the subject-reduction and
rule-soundness suites are driven from them.
"""

from __future__ import annotations

from bisect import bisect_right

from .iplus import SUM_INJECTIONS
from .quantum import RULES_QUANTUM_DET
from .rewrite import normalize
from .syntax import (Abs, AndElim1, AndElim2, App, Atom, Bot, BotElim, Bound,
                     Case, CaseNd, Conj, Disj, Impl, Inl, Inlr2, Inlr3, Inr,
                     Lam, Lollipop, One, OneElim, OPlus, Pair, Prod,
                     Proposition, ScalarStar, Star, Sum, Top, TopElim, Var,
                     term_size)

_ATOMS = ("P", "Q", "R")


def _pick(rng, xs):
    """A uniform element of xs; the first without an rng or a choice (numpy
    draws nothing for a range of one value, so no stream changes)."""
    if rng is None or len(xs) == 1:
        return xs[0]
    return xs[int(rng.integers(len(xs)))]


def _coin(rng, p=0.5):
    """True with probability p; False without an rng."""
    return rng is not None and rng.random() < p


def _roll(rng, cuts):
    """The index of the interval between the ascending cuts that a uniform
    draw falls in; 0 without an rng."""
    return 0 if rng is None else bisect_right(cuts, rng.random())


def _var(key, depth):
    """The variable of a context key, a name or a binder's level, at depth."""
    return Var(key) if type(key) is str else Bound(depth - 1 - key)


# ---------------------------------------------------------------------------
# Propositions

def random_any_prop(rng, depth=2) -> Proposition:
    """An arbitrary intuitionistic proposition (not necessarily provable)."""
    if depth <= 0 or _coin(rng, 0.4):
        return _pick(rng, (Top(), Bot(), Atom(_pick(rng, _ATOMS))))
    node = _pick(rng, (Impl, Conj, Disj))
    return node(random_any_prop(rng, depth - 1),
                random_any_prop(rng, depth - 1))


def random_quantum_prop(rng, depth=2) -> Proposition:
    if depth <= 0 or _coin(rng, 0.4):
        return One()
    node = _pick(rng, (OPlus, OPlus, Lollipop))
    return node(random_quantum_prop(rng, depth - 1),
                random_quantum_prop(rng, depth - 1))


def _provable(goal, hyps) -> bool:
    """Conservative provability: atoms and Bot only directly from a
    hypothesis."""
    if isinstance(goal, Top):
        return True
    if isinstance(goal, (Atom, Bot)):
        return goal in hyps
    if isinstance(goal, Impl):
        return _provable(goal.right, hyps + (goal.left,))
    if isinstance(goal, Conj):
        return _provable(goal.left, hyps) and _provable(goal.right, hyps)
    if isinstance(goal, Disj):
        return _provable(goal.left, hyps) or _provable(goal.right, hyps)
    return False


def random_provable_prop(rng, hyps=(), depth=2) -> Proposition:
    """A proposition that the generator is guaranteed to inhabit."""
    direct = [p for p in hyps if isinstance(p, (Atom, Bot))]
    if depth <= 0:
        return _pick(rng, [Top()] + direct) if direct and _coin(rng) else Top()
    roll = _roll(rng, (0.25, 0.45, 0.65))
    if roll == 0:
        return _pick(rng, [Top()] + direct)
    if roll == 1:
        return Conj(random_provable_prop(rng, hyps, depth - 1),
                    random_provable_prop(rng, hyps, depth - 1))
    if roll == 2:
        good = random_provable_prop(rng, hyps, depth - 1)
        other = random_any_prop(rng, depth - 1)
        return Disj(good, other) if _coin(rng) else Disj(other, good)
    left = random_any_prop(rng, depth - 1)
    return Impl(left, random_provable_prop(rng, hyps + (left,), depth - 1))


# ---------------------------------------------------------------------------
# iplus and cc terms

class _Budget:
    def __init__(self, n):
        self.n = n

    def spend(self):
        self.n -= 1
        return self.n > 0


def _gen_i(goal, ctx, depth, rng, budget, calculus):
    """A term proving `goal` under ctx, `depth` binders deep; `goal` must
    satisfy _provable.  Once the budget is spent, the smallest proof."""
    if not budget.spend():
        rng = None
    hyps = tuple(ctx.values())
    candidates = []  # a loop, as a comprehension would close over goal
    for key, p in ctx.items():
        if p == goal:
            candidates.append(key)

    moves = []
    if candidates:
        moves += ["var"] * 3
    if isinstance(goal, Top):
        moves += ["star"] * 3
    elif isinstance(goal, Impl):
        moves += ["lam"] * 3
    elif isinstance(goal, Conj):
        moves += ["pair"] * 3
    elif isinstance(goal, Disj):
        left, right = _provable(goal.left, hyps), _provable(goal.right, hyps)
        if left:
            moves.append("inl")
        if right:
            moves.append("inr")
        if left and right:
            moves += ["inlr2" if calculus == "iplus" else "inlr3"] * 2
    if calculus == "iplus" and rng is not None:
        moves.append("sum")
    if budget.n > 4:
        moves += ["top_elim", "app", "and1", "and2", "case"]
        if any(isinstance(p, Bot) for p in hyps):
            moves.append("bot_elim")
    if not moves:
        raise RuntimeError(f"unprovable goal reached: {goal}")
    move = _pick(rng, moves)

    if move == "var":
        return _var(_pick(rng, candidates), depth)
    if move == "star":
        return Star()
    if move == "lam":
        body = _gen_i(goal.right, {**ctx, depth: goal.left}, depth + 1, rng,
                      budget, calculus)
        return Lam(goal.left, Abs("x", body))
    if move in ("pair", "inlr2"):
        node = Pair if move == "pair" else Inlr2
        return node(_gen_i(goal.left, ctx, depth, rng, budget, calculus),
                    _gen_i(goal.right, ctx, depth, rng, budget, calculus))
    if move == "inl":
        return Inl(_gen_i(goal.left, ctx, depth, rng, budget, calculus))
    if move == "inr":
        return Inr(_gen_i(goal.right, ctx, depth, rng, budget, calculus))
    if move == "sum":
        return Sum(_gen_i(goal, ctx, depth, rng, budget, calculus),
                   _gen_i(goal, ctx, depth, rng, budget, calculus))
    if move == "top_elim":
        return TopElim(_gen_i(Top(), ctx, depth, rng, budget, calculus),
                       _gen_i(goal, ctx, depth, rng, budget, calculus))
    if move == "app":
        a = random_provable_prop(rng, hyps, 1)
        fn = _gen_i(Impl(a, goal), ctx, depth, rng, budget, calculus)
        return App(fn, _gen_i(a, ctx, depth, rng, budget, calculus))
    if move == "bot_elim":
        bot_var = next(n for n, p in ctx.items() if isinstance(p, Bot))
        return BotElim(goal, _var(bot_var, depth))
    # and1, and2, case and inlr3 eliminate a scrutinee built for side
    # propositions a and b
    a = random_provable_prop(rng, hyps, 1)
    b = random_provable_prop(rng, hyps, 1)
    if move in ("and1", "and2"):
        scrut = _gen_i(Conj(a, b), ctx, depth, rng, budget, calculus)
        body = _gen_i(goal, {**ctx, depth: a if move == "and1" else b},
                      depth + 1, rng, budget, calculus)
        node = AndElim1 if move == "and1" else AndElim2
        return node(scrut, Abs("x", body))
    scrut = _gen_i(Disj(a, b), ctx, depth, rng, budget, calculus)
    left, right = (goal.left, goal.right) if move == "inlr3" else (goal, goal)
    u = _gen_i(left, {**ctx, depth: a}, depth + 1, rng, budget, calculus)
    v = _gen_i(right, {**ctx, depth: b}, depth + 1, rng, budget, calculus)
    node = Inlr3 if move == "inlr3" else Case
    return node(scrut, Abs("x", u), Abs("y", v))


def _bounded(build, max_size):
    """Rerolls, up to 40 times, until the built term fits the size bound;
    else the smallest built."""
    budget = max(4, max_size // 3)
    best, best_size = None, float("inf")
    for i in range(40):
        t = build(_Budget(budget))
        size = term_size(t)
        if size <= max_size:
            return t
        if size < best_size:
            best, best_size = t, size
        if i % 10 == 9:
            budget = max(2, budget - 2)
    return best


def random_closed_term(calculus, rng):
    """A random closed well-typed term of size at most 30 together with its
    proposition."""
    if calculus == "quantum":
        _, t, goal = random_term_in_context(calculus, rng, allow_nd=False)
        return t, goal
    goal = random_provable_prop(rng)
    t = _bounded(lambda b: _gen_i(goal, {}, 0, rng, b, calculus), 30)
    return t, goal


def random_term_in_context(calculus, rng, max_size=30, allow_nd=True):
    """(ctx, term, proposition) with a small random context."""
    if calculus == "quantum":
        goal = random_quantum_prop(rng)
        t = _bounded(
            lambda b: _gen_q(goal, [], 0, rng, b, allow_nd=allow_nd), max_size)
        return {}, t, goal
    ctx = {}
    for i in range(_pick(rng, range(4))):
        ctx[f"h{i}"] = random_any_prop(rng, 1)
    goal = random_provable_prop(rng, tuple(ctx.values()))
    t = _bounded(lambda b: _gen_i(goal, ctx, 0, rng, b, calculus), max_size)
    return ctx, t, goal


# ---------------------------------------------------------------------------
# Quantum terms (linear)

_SCALARS = (1.0, -1.0, 2.0, 0.5, 1j, 1 + 1j, -0.5j, 3.0)


def random_scalar(rng, allow_zero=False):
    """A complex scalar from a small pool; without an rng, the float 1.0."""
    pool = _SCALARS + ((0.0,) if allow_zero else ())
    x = _pick(rng, pool)
    return x if rng is None else complex(x)


def _gen_q(goal, resources, depth, rng, budget, allow_nd):
    """A linear term proving `goal`, `depth` binders deep, that consumes
    every resource exactly once.  Once the budget is spent, the smallest
    proof, which consumes resources[0] first."""
    if not budget.spend():
        rng = None
    if rng is None and resources:
        moves = ["consume"]
    else:
        moves = []
        if len(resources) == 1 and resources[0][1] == goal:
            moves += ["var"] * 4
        if isinstance(goal, One) and not resources:
            moves += ["scalar"] * 3
        if isinstance(goal, Lollipop):
            moves += ["lam"] * 3
        if isinstance(goal, OPlus):
            moves += ["inl", "inr", "inlr2", "inlr2"]
        if rng is not None:
            moves += ["sum", "prod"]
        if resources:
            moves += ["consume"] * (2 + 2 * len(resources))
    if not moves:
        raise RuntimeError(f"unprovable goal reached: {goal}")
    move = _pick(rng, moves)

    if move == "var":
        return _var(resources[0][0], depth)
    if move == "scalar":
        return ScalarStar(random_scalar(rng, allow_zero=True))
    if move == "lam":
        body = _gen_q(goal.right, resources + [(depth, goal.left)],
                      depth + 1, rng, budget, allow_nd)
        return Lam(goal.left, Abs("x", body))
    if move == "inl":
        return Inl(_gen_q(goal.left, resources, depth, rng, budget, allow_nd))
    if move == "inr":
        return Inr(_gen_q(goal.right, resources, depth, rng, budget,
                          allow_nd))
    if move == "inlr2":
        left = _gen_q(goal.left, resources, depth, rng, budget, allow_nd)
        return Inlr2(left, _gen_q(goal.right, resources, depth, rng, budget,
                                  allow_nd))
    if move == "sum":
        return Sum(_gen_q(goal, resources, depth, rng, budget, allow_nd),
                   _gen_q(goal, resources, depth, rng, budget, allow_nd))
    if move == "prod":
        return Prod(random_scalar(rng),
                    _gen_q(goal, resources, depth, rng, budget, allow_nd))
    # consume one resource through its elimination form
    i = _pick(rng, range(len(resources)))
    (x, ty) = resources[i]
    rest = resources[:i] + resources[i + 1:]
    return _consume_term(_var(x, depth), ty, goal, rest, depth, rng, budget,
                         allow_nd)


def _consume_term(term, ty, goal, resources, depth, rng, budget, allow_nd):
    """Eliminate `term : ty` (plus all resources) into a proof of goal."""
    if isinstance(ty, One):
        return OneElim(term, _gen_q(goal, resources, depth, rng, budget,
                                    allow_nd))
    if isinstance(ty, OPlus):
        node = CaseNd if allow_nd and _coin(rng, 0.4) else Case
        u = _gen_q(goal, resources + [(depth, ty.left)], depth + 1, rng,
                   budget, allow_nd)
        v = _gen_q(goal, resources + [(depth, ty.right)], depth + 1, rng,
                   budget, allow_nd)
        return node(term, Abs("y", u), Abs("z", v))
    if isinstance(ty, Lollipop):
        # hand a random share of the resources to the argument
        mine, arg_side = [], []
        for r in resources:
            (arg_side if budget.n > 2 and _coin(rng, 0.3) else mine).append(r)
        arg = _gen_q(ty.left, arg_side, depth, rng, budget, allow_nd)
        return _consume_term(App(term, arg), ty.right, goal, mine, depth,
                             rng, budget, allow_nd)
    raise RuntimeError(f"cannot consume resource of type {ty}")


# ---------------------------------------------------------------------------
# Per-rule redex instances

def _atoms(*names):
    return tuple(Atom(n) for n in names)


def _injection(node, gen, a, b):
    """An injection, `node` one of Inl, Inr and Inlr2, into a disjunction
    of a and b, of a generated proof of a, of b, or of both."""
    if node is Inl:
        return Inl(gen(a))
    if node is Inr:
        return Inr(gen(b))
    return Inlr2(gen(a), gen(b))


def _cut(number, gen, goal, a, b):
    """The redex of a cut rule proving goal, a and b its side propositions:
    rules 1-6 are `iplus.CUTS`, which iplus and cc share, and 7 is iplus's
    case on an inlr.  A binder around a generated body is level 0."""
    if number == 1:
        return TopElim(Star(), gen(goal))
    if number == 2:
        return App(Lam(a, Abs("x", gen(goal, {0: a}))), gen(a))
    if number in (3, 4):
        node = AndElim1 if number == 3 else AndElim2
        bound = a if number == 3 else b
        return node(Pair(gen(a), gen(b)), Abs("x", gen(goal, {0: bound})))
    scrut = _injection((Inl, Inr, Inlr2)[number - 5], gen, a, b)
    return Case(scrut, Abs("x", gen(goal, {0: a})),
                Abs("y", gen(goal, {0: b})))


def iplus_rule_instance(number, rng):
    """(ctx, redex term, expected proposition) for one iplus rule.

    A binder around a generated body is level 0 in the body's context.
    """
    ctx = {"h": random_any_prop(rng, 1)}
    hyps = tuple(ctx.values())
    gen = lambda goal, extra={}: _gen_i(goal, {**ctx, **extra}, len(extra),
                                        rng, _Budget(8), "iplus")
    goal = random_provable_prop(rng, hyps, 1)
    a = random_provable_prop(rng, hyps, 1)
    b = random_provable_prop(rng, hyps, 1)

    if 1 <= number <= 7:
        return ctx, _cut(number, gen, goal, a, b), goal
    if number == 8:
        return ctx, Sum(Star(), Star()), Top()
    if number == 9:
        t = Sum(Lam(a, Abs("x", gen(b, {0: a}))),
                Lam(a, Abs("y", gen(b, {0: a}))))
        return ctx, t, Impl(a, b)
    if number == 10:
        t = Sum(Pair(gen(a), gen(b)), Pair(gen(a), gen(b)))
        return ctx, t, Conj(a, b)
    if 11 <= number <= 19:
        _, left, right, _ = SUM_INJECTIONS[number - 11]
        t = Sum(_injection(left, gen, a, b), _injection(right, gen, a, b))
        return ctx, t, Disj(a, b)
    raise ValueError(f"no iplus rule {number}")


def quantum_rule_instance(number, rng):
    """(ctx, redex term, expected proposition) for one quantum rule.

    Instances are closed: the linear context is provided by binders, and
    a binder around a generated body is level 0 in the body's resources.
    """
    gen = lambda goal, res=(): _gen_q(goal, list(res), len(res), rng,
                                      _Budget(6), allow_nd=False)
    goal = random_quantum_prop(rng, 1)
    a = random_quantum_prop(rng, 1)
    b = random_quantum_prop(rng, 1)
    sa, sb = random_scalar(rng), random_scalar(rng)

    if number == 19:
        return {}, OneElim(ScalarStar(sa), gen(goal)), goal
    if number == 20:
        return {}, App(Lam(a, Abs("x", gen(goal, [(0, a)]))), gen(a)), goal
    if 21 <= number <= 27:
        node = Case if number <= 23 else CaseNd
        scrut = _injection((Inl, Inr, Inlr2, Inl, Inr, Inlr2,
                            Inlr2)[number - 21], gen, a, b)
        if number in (26, 27):
            # measurement waits for irreducible components
            scrut = Inlr2(*(normalize(c, RULES_QUANTUM_DET).final
                            for c in (scrut.left, scrut.right)))
        t = node(scrut, Abs("x", gen(goal, [(0, a)])),
                 Abs("y", gen(goal, [(0, b)])))
        return {}, t, goal
    if number == 28:
        return {}, Sum(ScalarStar(sa), ScalarStar(sb)), One()
    if number == 29:
        t = Sum(Lam(a, Abs("x", gen(b, [(0, a)]))),
                Lam(a, Abs("y", gen(b, [(0, a)]))))
        return {}, t, Lollipop(a, b)
    if 30 <= number <= 38:
        _, left, right, _ = SUM_INJECTIONS[number - 30]
        t = Sum(_injection(left, gen, a, b), _injection(right, gen, a, b))
        return {}, t, OPlus(a, b)
    if number == 39:
        return {}, Prod(sa, ScalarStar(sb)), One()
    if number == 40:
        return {}, Prod(sa, Lam(a, Abs("x", gen(b, [(0, a)])))), \
            Lollipop(a, b)
    if 41 <= number <= 43:
        inner = _injection((Inl, Inr, Inlr2)[number - 41], gen, a, b)
        return {}, Prod(sa, inner), OPlus(a, b)
    raise ValueError(f"no quantum rule {number}")


def cc_rule_instance(number, rng):
    """(ctx, redex term, expected proposition) for one cc rule.

    A binder around a generated body is level 0 in the body's context,
    and one binder inside it level 1.
    """
    a1, a2, b1, b2, b3, b4, c, d = _atoms("A1", "A2", "B1", "B2", "B3",
                                          "B4", "C", "D")
    ctx = {"s": Disj(a1, a2), "t1v": Disj(b1, b2), "t2v": Disj(b3, b4),
           "bb": Bot(), "cc": c, "dd": d,
           "hb1": b1, "hb2": b2, "hb3": b3, "hb4": b4}
    gen = lambda goal, extra={}: _gen_i(goal, {**ctx, **extra}, len(extra),
                                        rng, _Budget(6), "cc")
    hyps = tuple(ctx.values())
    goal = random_provable_prop(rng, hyps, 1)
    e = random_provable_prop(rng, hyps, 1)
    f = random_provable_prop(rng, hyps, 1)

    def inlr3(scrut_prop, left_goal, right_goal, extra):
        scrut = gen(scrut_prop, extra)
        k = len(extra)
        return Inlr3(scrut,
                     Abs("p", gen(left_goal, {**extra, k: scrut_prop.left})),
                     Abs("q", gen(right_goal,
                                  {**extra, k: scrut_prop.right})))

    if 1 <= number <= 6:
        return ctx, _cut(number, gen, goal, e, f), goal
    if number == 7:
        u1 = gen(b1, {0: a1})
        u2 = gen(b2, {0: a2})
        t = Case(Inlr3(Var("s"), Abs("x", u1), Abs("x", u2)),
                 Abs("y", gen(goal, {0: b1})),
                 Abs("y", gen(goal, {0: b2})))
        return ctx, t, goal
    if 8 <= number <= 12:
        prop = {8: Top(), 9: Impl(e, f), 10: Conj(e, f),
                11: Disj(e, f), 12: Disj(e, f)}[number]
        return ctx, BotElim(prop, Var("bb")), prop
    if 13 <= number <= 18:
        unit = gen(Top())
        if number == 13:
            return ctx, TopElim(unit, Star()), Top()
        if number == 14:
            lam = Lam(e, Abs("x", gen(f, {0: e})))
            return ctx, TopElim(unit, lam), Impl(e, f)
        if number == 15:
            return ctx, TopElim(unit, Pair(gen(e), gen(f))), Conj(e, f)
        if number == 16:
            return ctx, TopElim(unit, Inl(gen(e))), Disj(e, f)
        if number == 17:
            return ctx, TopElim(unit, Inr(gen(f))), Disj(e, f)
        return ctx, TopElim(unit, inlr3(Disj(b1, b2), e, f, {})), Disj(e, f)
    if 19 <= number <= 30:
        node = AndElim1 if number <= 24 else AndElim2
        sub = (number - 19) % 6
        pair = Pair(gen(e), gen(f))
        bound = e if number <= 24 else f
        extra = {0: bound}
        if sub == 0:
            return ctx, node(pair, Abs("x", Star())), Top()
        if sub == 1:
            body = Lam(c, Abs("y", gen(goal, {**extra, 1: c})))
            return ctx, node(pair, Abs("x", body)), Impl(c, goal)
        if sub == 2:
            body = Pair(gen(e, extra), gen(f, extra))
            return ctx, node(pair, Abs("x", body)), Conj(e, f)
        if sub == 3:
            return ctx, node(pair, Abs("x", Inl(gen(e, extra)))), Disj(e, f)
        if sub == 4:
            return ctx, node(pair, Abs("x", Inr(gen(f, extra)))), Disj(e, f)
        # the commuted scrutinee must not use the projection binder
        body = Inlr3(Var("t1v"),
                     Abs("y", gen(e, {**extra, 1: b1})),
                     Abs("y", gen(f, {**extra, 1: b2})))
        return ctx, node(pair, Abs("x", body)), Disj(e, f)
    if 31 <= number <= 42:
        def branch(kind, bound):
            extra = {0: bound}
            if kind == "star":
                return Star()
            if kind == "lam":
                return Lam(c, Abs("y", gen(d, {**extra, 1: c})))
            if kind == "pair":
                return Pair(gen(e, extra), gen(f, extra))
            if kind == "inl1":
                return Inl(gen(b1, extra))
            if kind == "inr2":
                return Inr(gen(b2, extra))
            if kind == "inl-e":
                return Inl(gen(e, extra))
            if kind == "inr-f":
                return Inr(gen(f, extra))
            if kind == "inlr-left":
                return Inlr3(Var("t1v"),
                             Abs("y", gen(b1, {**extra, 1: b1})),
                             Abs("y", gen(b2, {**extra, 1: b2})))
            return Inlr3(Var("t2v"),
                         Abs("y", gen(b1, {**extra, 1: b3})),
                         Abs("y", gen(b2, {**extra, 1: b4})))

        shapes = {
            31: ("star", "star", Top()),
            32: ("lam", "lam", Impl(c, d)),
            33: ("pair", "pair", Conj(e, f)),
            34: ("inl-e", "inl-e", Disj(e, f)),
            35: ("inl1", "inr2", Disj(b1, b2)),
            36: ("inl1", "inlr-right", Disj(b1, b2)),
            37: ("inr2", "inl1", Disj(b1, b2)),
            38: ("inr-f", "inr-f", Disj(e, f)),
            39: ("inr2", "inlr-right", Disj(b1, b2)),
            40: ("inlr-left", "inl1", Disj(b1, b2)),
            41: ("inlr-left", "inr2", Disj(b1, b2)),
            42: ("inlr-left", "inlr-right", Disj(b1, b2)),
        }
        left_kind, right_kind, expected = shapes[number]
        t = Case(Var("s"), Abs("x", branch(left_kind, a1)),
                 Abs("x", branch(right_kind, a2)))
        return ctx, t, expected
    raise ValueError(f"no cc rule {number}")
