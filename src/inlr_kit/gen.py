"""Type-directed random generation of well-typed terms.

Rejection sampling of raw terms almost never typechecks, so generation
runs top-down: pick a goal proposition, then build a derivation for it,
choosing randomly among the rules that keep the goal provable.  The
linear generator additionally threads the hypotheses that still have to
be consumed and always has a deterministic way to discharge them, so it
never backtracks.

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

from .quantum import RULES_QUANTUM_DET
from .rewrite import normalize
from .syntax import (Abs, AndElim1, AndElim2, App, Atom, Bot, BotElim, Bound,
                     Case, CaseNd, Conj, Disj, Impl, Inl, Inlr2, Inlr3, Inr,
                     Lam, Lollipop, One, OneElim, OPlus, Pair, Prod,
                     Proposition, ScalarStar, Star, Sum, Top, TopElim, Var,
                     term_size)

_ATOMS = ("P", "Q", "R")


def _pick(rng, xs):
    return xs[int(rng.integers(len(xs)))]


def _coin(rng, p=0.5):
    return rng.random() < p


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
    roll = rng.random()
    if roll < 0.25:
        return _pick(rng, [Top()] + direct)
    if roll < 0.45:
        return Conj(random_provable_prop(rng, hyps, depth - 1),
                    random_provable_prop(rng, hyps, depth - 1))
    if roll < 0.65:
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

    def spend(self, k=1):
        self.n -= k
        return self.n > 0


def _gen_i(goal, ctx, depth, rng, budget, calculus):
    """A term proving `goal` under ctx, `depth` binders deep; `goal` must
    satisfy _provable."""
    hyps = tuple(ctx.values())
    candidates = [name for name, p in ctx.items() if p == goal]

    if not budget.spend():
        return _minimal(goal, ctx, depth, calculus)

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
        if _provable(goal.left, hyps):
            moves.append("inl")
        if _provable(goal.right, hyps):
            moves.append("inr")
        if _provable(goal.left, hyps) and _provable(goal.right, hyps):
            if calculus == "iplus":
                moves += ["inlr2"] * 2
            else:
                moves += ["inlr3"] * 2
    if calculus == "iplus":
        moves.append("sum")
    if budget.n > 4:
        moves += ["top_elim", "app", "and1", "and2", "case"]
        if any(isinstance(p, Bot) for p in hyps):
            moves.append("bot_elim")

    move = _pick(rng, moves) if moves else "minimal"

    def gen(goal):
        return _gen_i(goal, ctx, depth, rng, budget, calculus)

    def bind(hyp, goal):
        """A proof of goal under one more binder, of hyp."""
        return _gen_i(goal, {**ctx, depth: hyp}, depth + 1, rng, budget,
                      calculus)

    if move == "var":
        return _var(_pick(rng, candidates), depth)
    if move == "star":
        return Star()
    if move == "lam":
        return Lam(goal.left, Abs("x", bind(goal.left, goal.right)))
    if move == "pair":
        return Pair(gen(goal.left), gen(goal.right))
    if move == "inl":
        return Inl(gen(goal.left))
    if move == "inr":
        return Inr(gen(goal.right))
    if move == "inlr2":
        return Inlr2(gen(goal.left), gen(goal.right))
    if move == "inlr3":
        d1 = random_provable_prop(rng, hyps, 1)
        d2 = random_provable_prop(rng, hyps, 1)
        scrut = gen(Disj(d1, d2))
        u1 = bind(d1, goal.left)
        u2 = bind(d2, goal.right)
        return Inlr3(scrut, Abs("x", u1), Abs("y", u2))
    if move == "sum":
        return Sum(gen(goal), gen(goal))
    if move == "top_elim":
        return TopElim(gen(Top()), gen(goal))
    if move == "app":
        a = random_provable_prop(rng, hyps, 1)
        fn = gen(Impl(a, goal))
        return App(fn, gen(a))
    if move in ("and1", "and2"):
        a = random_provable_prop(rng, hyps, 1)
        b = random_provable_prop(rng, hyps, 1)
        scrut = gen(Conj(a, b))
        body = bind(a if move == "and1" else b, goal)
        node = AndElim1 if move == "and1" else AndElim2
        return node(scrut, Abs("x", body))
    if move == "case":
        a = random_provable_prop(rng, hyps, 1)
        b = random_provable_prop(rng, hyps, 1)
        scrut = gen(Disj(a, b))
        u = bind(a, goal)
        v = bind(b, goal)
        return Case(scrut, Abs("x", u), Abs("y", v))
    if move == "bot_elim":
        bot_var = next(n for n, p in ctx.items() if isinstance(p, Bot))
        return BotElim(goal, _var(bot_var, depth))
    return _minimal(goal, ctx, depth, calculus)


def _minimal(goal, ctx, depth, calculus):
    """Smallest proof; used when the size budget runs out."""
    for key, p in ctx.items():
        if p == goal:
            return _var(key, depth)
    if isinstance(goal, Top):
        return Star()
    if isinstance(goal, Impl):
        body = _minimal(goal.right, {**ctx, depth: goal.left}, depth + 1,
                        calculus)
        return Lam(goal.left, Abs("x", body))
    if isinstance(goal, Conj):
        return Pair(_minimal(goal.left, ctx, depth, calculus),
                    _minimal(goal.right, ctx, depth, calculus))
    if isinstance(goal, Disj):
        if _provable(goal.left, tuple(ctx.values())):
            return Inl(_minimal(goal.left, ctx, depth, calculus))
        return Inr(_minimal(goal.right, ctx, depth, calculus))
    raise RuntimeError(f"unprovable goal reached: {goal}")


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


def random_closed_term(calculus, rng, max_size=30):
    """A random closed well-typed term together with its proposition."""
    if calculus == "quantum":
        goal = random_quantum_prop(rng)
        t = _bounded(lambda b: _gen_q(goal, [], 0, rng, b, allow_nd=False),
                     max_size)
        return t, goal
    goal = random_provable_prop(rng)
    t = _bounded(lambda b: _gen_i(goal, {}, 0, rng, b, calculus), max_size)
    return t, goal


def random_term_in_context(calculus, rng, max_size=30, allow_nd=True):
    """(ctx, term, proposition) with a small random context."""
    if calculus == "quantum":
        goal = random_quantum_prop(rng)
        t = _bounded(
            lambda b: _gen_q(goal, [], 0, rng, b, allow_nd=allow_nd), max_size)
        return {}, t, goal
    ctx = {}
    for i in range(int(rng.integers(0, 4))):
        ctx[f"h{i}"] = random_any_prop(rng, 1)
    goal = random_provable_prop(rng, tuple(ctx.values()))
    t = _bounded(lambda b: _gen_i(goal, ctx, 0, rng, b, calculus), max_size)
    return ctx, t, goal


# ---------------------------------------------------------------------------
# Quantum terms (linear)

_SCALARS = (1.0, -1.0, 2.0, 0.5, 1j, 1 + 1j, -0.5j, 3.0)


def random_scalar(rng, allow_zero=False):
    pool = _SCALARS + ((0.0,) if allow_zero else ())
    return complex(_pick(rng, pool))


def _gen_q(goal, resources, depth, rng, budget, allow_nd):
    """A linear term proving `goal`, `depth` binders deep, that consumes
    every resource exactly once."""
    if not budget.spend():
        return _consume_all(goal, resources, depth, rng, budget, allow_nd)

    moves = []
    if len(resources) == 1 and resources[0][1] == goal:
        moves += ["var"] * 4
    if isinstance(goal, One) and not resources:
        moves += ["scalar"] * 3
    if isinstance(goal, Lollipop):
        moves += ["lam"] * 3
    if isinstance(goal, OPlus):
        moves += ["inl", "inr", "inlr2", "inlr2"]
    moves += ["sum", "prod"]
    if resources:
        moves += ["consume"] * (2 + 2 * len(resources))

    move = _pick(rng, moves)

    def gen(goal):
        return _gen_q(goal, resources, depth, rng, budget, allow_nd)

    if move == "var":
        return _var(resources[0][0], depth)
    if move == "scalar":
        return ScalarStar(random_scalar(rng, allow_zero=True))
    if move == "lam":
        body = _gen_q(goal.right, resources + [(depth, goal.left)],
                      depth + 1, rng, budget, allow_nd)
        return Lam(goal.left, Abs("x", body))
    if move == "inl":
        return Inl(gen(goal.left))
    if move == "inr":
        return Inr(gen(goal.right))
    if move == "inlr2":
        return Inlr2(gen(goal.left), gen(goal.right))
    if move == "sum":
        return Sum(gen(goal), gen(goal))
    if move == "prod":
        return Prod(random_scalar(rng), gen(goal))
    # consume one resource through its elimination form
    i = int(rng.integers(len(resources)))
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


def _consume_all(goal, resources, depth, rng, budget, allow_nd):
    if not resources:
        return _produce_min_q(goal, depth)
    (x, ty) = resources[0]
    return _consume_min(_var(x, depth), ty, goal, resources[1:], depth, rng,
                        budget, allow_nd)


def _consume_min(term, ty, goal, resources, depth, rng, budget, allow_nd):
    if isinstance(ty, One):
        return OneElim(term, _consume_all(goal, resources, depth, rng, budget,
                                          allow_nd))
    if isinstance(ty, OPlus):
        u = _consume_all(goal, resources + [(depth, ty.left)], depth + 1, rng,
                         budget, allow_nd)
        v = _consume_all(goal, resources + [(depth, ty.right)], depth + 1,
                         rng, budget, allow_nd)
        return Case(term, Abs("y", u), Abs("z", v))
    if isinstance(ty, Lollipop):
        return _consume_min(App(term, _produce_min_q(ty.left, depth)),
                            ty.right, goal, resources, depth, rng, budget,
                            allow_nd)
    raise RuntimeError(f"cannot consume resource of type {ty}")


def _produce_min_q(goal, depth):
    if isinstance(goal, One):
        return ScalarStar(1.0)
    if isinstance(goal, OPlus):
        return Inl(_produce_min_q(goal.left, depth))
    if isinstance(goal, Lollipop):
        body = _consume_min(Bound(0), goal.left, goal.right, [], depth + 1,
                            None, None, False)
        return Lam(goal.left, Abs("x", body))
    raise RuntimeError(f"no minimal quantum proof of {goal}")


# ---------------------------------------------------------------------------
# Per-rule redex instances

def _atoms(*names):
    return tuple(Atom(n) for n in names)


def iplus_rule_instance(number, rng, size=8):
    """(ctx, redex term, expected proposition) for one iplus rule.

    A binder around a generated body is level 0 in the body's context.
    """
    ctx = {"h": random_any_prop(rng, 1)}
    hyps = tuple(ctx.values())
    budget = lambda: _Budget(size)
    gen = lambda goal, extra={}: _gen_i(goal, {**ctx, **extra}, len(extra),
                                        rng, budget(), "iplus")
    goal = random_provable_prop(rng, hyps, 1)
    a = random_provable_prop(rng, hyps, 1)
    b = random_provable_prop(rng, hyps, 1)

    if number == 1:
        return ctx, TopElim(Star(), gen(goal)), goal
    if number == 2:
        return ctx, App(Lam(a, Abs("x", gen(goal, {0: a}))), gen(a)), goal
    if number in (3, 4):
        node = AndElim1 if number == 3 else AndElim2
        bound = a if number == 3 else b
        return ctx, node(Pair(gen(a), gen(b)),
                         Abs("x", gen(goal, {0: bound}))), goal
    if number in (5, 6, 7):
        scrut = {5: lambda: Inl(gen(a)), 6: lambda: Inr(gen(b)),
                 7: lambda: Inlr2(gen(a), gen(b))}[number]()
        return ctx, Case(scrut, Abs("x", gen(goal, {0: a})),
                         Abs("y", gen(goal, {0: b}))), goal
    if number == 8:
        return ctx, Sum(Star(), Star()), Top()
    if number == 9:
        t = Sum(Lam(a, Abs("x", gen(b, {0: a}))),
                Lam(a, Abs("y", gen(b, {0: a}))))
        return ctx, t, Impl(a, b)
    if number == 10:
        t = Sum(Pair(gen(a), gen(b)), Pair(gen(a), gen(b)))
        return ctx, t, Conj(a, b)
    intro = {
        "l": lambda: Inl(gen(a)),
        "r": lambda: Inr(gen(b)),
        "lr": lambda: Inlr2(gen(a), gen(b)),
    }
    shapes = {11: ("l", "l"), 12: ("l", "r"), 13: ("l", "lr"),
              14: ("r", "l"), 15: ("r", "r"), 16: ("r", "lr"),
              17: ("lr", "l"), 18: ("lr", "r"), 19: ("lr", "lr")}
    lhs, rhs = shapes[number]
    return ctx, Sum(intro[lhs](), intro[rhs]()), Disj(a, b)


def quantum_rule_instance(number, rng, size=6):
    """(ctx, redex term, expected proposition) for one quantum rule.

    Instances are closed: the linear context is provided by binders, and
    a binder around a generated body is level 0 in the body's resources.
    """
    budget = lambda: _Budget(size)
    gen = lambda goal, res=(): _gen_q(goal, list(res), len(res), rng,
                                      budget(), allow_nd=False)
    goal = random_quantum_prop(rng, 1)
    a = random_quantum_prop(rng, 1)
    b = random_quantum_prop(rng, 1)
    sa, sb = random_scalar(rng), random_scalar(rng)

    if number == 19:
        return {}, OneElim(ScalarStar(sa), gen(goal)), goal
    if number == 20:
        return {}, App(Lam(a, Abs("x", gen(goal, [(0, a)]))), gen(a)), goal
    if number in (21, 22, 23, 24, 25, 26, 27):
        node = Case if number <= 23 else CaseNd
        kind = {21: "l", 22: "r", 23: "lr", 24: "l", 25: "r",
                26: "lr", 27: "lr"}[number]
        scrut = {"l": lambda: Inl(gen(a)), "r": lambda: Inr(gen(b)),
                 "lr": lambda: Inlr2(gen(a), gen(b))}[kind]()
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
        intro = {"l": lambda: Inl(gen(a)), "r": lambda: Inr(gen(b)),
                 "lr": lambda: Inlr2(gen(a), gen(b))}
        shapes = {30: ("l", "l"), 31: ("l", "r"), 32: ("l", "lr"),
                  33: ("r", "l"), 34: ("r", "r"), 35: ("r", "lr"),
                  36: ("lr", "l"), 37: ("lr", "r"), 38: ("lr", "lr")}
        lhs, rhs = shapes[number]
        return {}, Sum(intro[lhs](), intro[rhs]()), OPlus(a, b)
    if number == 39:
        return {}, Prod(sa, ScalarStar(sb)), One()
    if number == 40:
        return {}, Prod(sa, Lam(a, Abs("x", gen(b, [(0, a)])))), \
            Lollipop(a, b)
    if number in (41, 42, 43):
        inner = {41: lambda: Inl(gen(a)), 42: lambda: Inr(gen(b)),
                 43: lambda: Inlr2(gen(a), gen(b))}[number]()
        return {}, Prod(sa, inner), OPlus(a, b)
    raise ValueError(f"no quantum rule {number}")


def cc_rule_instance(number, rng, size=6):
    """(ctx, redex term, expected proposition) for one cc rule.

    A binder around a generated body is level 0 in the body's context,
    and one binder inside it level 1.
    """
    a1, a2, b1, b2, b3, b4, c, d = _atoms("A1", "A2", "B1", "B2", "B3",
                                          "B4", "C", "D")
    ctx = {"s": Disj(a1, a2), "t1v": Disj(b1, b2), "t2v": Disj(b3, b4),
           "bb": Bot(), "cc": c, "dd": d,
           "hb1": b1, "hb2": b2, "hb3": b3, "hb4": b4}
    budget = lambda: _Budget(size)
    gen = lambda goal, extra={}: _gen_i(goal, {**ctx, **extra}, len(extra),
                                        rng, budget(), "cc")
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

    if number == 1:
        return ctx, TopElim(Star(), gen(goal)), goal
    if number == 2:
        return ctx, App(Lam(e, Abs("x", gen(goal, {0: e}))), gen(e)), goal
    if number in (3, 4):
        node = AndElim1 if number == 3 else AndElim2
        bound = e if number == 3 else f
        return ctx, node(Pair(gen(e), gen(f)),
                         Abs("x", gen(goal, {0: bound}))), goal
    if number in (5, 6):
        scrut = Inl(gen(e)) if number == 5 else Inr(gen(f))
        return ctx, Case(scrut, Abs("x", gen(goal, {0: e})),
                         Abs("y", gen(goal, {0: f}))), goal
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
