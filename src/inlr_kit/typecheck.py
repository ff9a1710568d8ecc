"""Syntax-directed type checkers for the three calculi.

``infer_iplus``   -- propositional rules with the sum rule and inlr.
``infer_linear``  -- the linear rules: multiplicative eliminations split the
                     context, additive rules (sum, prod, inlr) share it, and
                     every hypothesis must be consumed exactly once.  The
                     splitting is algorithmic: consumption is threaded left
                     to right instead of guessing a partition.
``infer_cc``      -- the propositional rules minus sum, with the binder form
                     of inlr.

Terms are checked as they are, nameless: Bound(k) is resolved against the
stack of enclosing binders, and no binder is ever opened to a name.

Where a rule does not pin a proposition syntactically (inl, inr, unannotated
lambdas, case branches) the checker introduces a placeholder and solves by
unification; if placeholders survive to the end the term has no unique
proposition and the checker reports annotation-required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (AndElim1, AndElim2, App, Abs, Bot, BotElim, Bound,
                     Case, CaseNd, Conj, Disj, Impl, Inl, Inlr2, Inlr3, Inr,
                     Lam, Lollipop, MetaProp, One, OneElim, OPlus, Pair,
                     Prod, Proposition, ScalarStar, Star, Sum, Term, TopElim,
                     Top, Var, _TERM_ALLOWED, print_prop)

TypingContext = dict  # ordered mapping, variable name -> Proposition


class TypingError(Exception):
    """A typing failure, with enough context to render the failing subterm."""

    def __init__(self, kind, path, detail="", expected=None, found=None,
                 names=()):
        self.kind = kind
        self.path = tuple(path)
        self.detail = detail
        self.expected = expected
        self.found = found
        self.names = tuple(names)
        super().__init__(self.render())

    def render(self) -> str:
        loc = ".".join(str(i) for i in self.path) or "root"
        msg = f"{loc}: {self.kind}"
        if self.detail:
            msg += f": {self.detail}"
        if self.expected is not None:
            msg += f": expected {print_prop(self.expected)}"
            if self.found is not None:
                msg += f", found {print_prop(self.found)}"
        return msg

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "kind": self.kind,
            "expected": None if self.expected is None else print_prop(self.expected),
            "found": None if self.found is None else print_prop(self.found),
        }


UNBOUND = "unbound-var"
MISMATCH = "mismatch"
NOT_A_FUNCTION = "not-a-function"
LINEAR_UNUSED = "linear-unused"
LINEAR_REUSED = "linear-reused"
OUTSIDE = "constructor-outside-calculus"
ANNOTATION = "annotation-required"


@dataclass
class _Env:
    """Checker state: hypotheses, binder names, linear consumption.

    A hypothesis is keyed by its name when it comes from the context and
    by its binder's level (0 for the outermost binder) otherwise, so
    Bound(k) is the hypothesis at level len(hints) - 1 - k.
    """
    types: dict = field(default_factory=dict)    # key -> Proposition
    hints: list = field(default_factory=list)    # level -> printed name
    consumed: set = field(default_factory=set)   # keys used so far


class _Checker:
    def __init__(self, mode):
        self.mode = mode
        self.linear = mode == "quantum"
        self.arrow = Lollipop if self.linear else Impl
        self.disj = OPlus if self.linear else Disj
        self.solution = {}
        self.counter = 0
        self.meta_origin = {}  # mid -> path that introduced the placeholder

    # -- metavariables --

    def fresh_meta(self, path):
        self.counter += 1
        self.meta_origin[self.counter] = tuple(path)
        return MetaProp(self.counter)

    def resolve(self, p):
        while isinstance(p, MetaProp) and p.mid in self.solution:
            p = self.solution[p.mid]
        return p

    def zonk(self, p):
        p = self.resolve(p)
        if isinstance(p, (Impl, Conj, Disj, Lollipop, OPlus)):
            return type(p)(self.zonk(p.left), self.zonk(p.right))
        return p

    def occurs(self, mid, p):
        p = self.resolve(p)
        if isinstance(p, MetaProp):
            return p.mid == mid
        if isinstance(p, (Impl, Conj, Disj, Lollipop, OPlus)):
            return self.occurs(mid, p.left) or self.occurs(mid, p.right)
        return False

    def unify(self, a, b, path):
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, MetaProp):
            if self.occurs(a.mid, b):
                raise TypingError(MISMATCH, path, "circular proposition")
            self.solution[a.mid] = b
            return
        if isinstance(b, MetaProp):
            self.unify(b, a, path)
            return
        if type(a) is type(b) and isinstance(a, (Impl, Conj, Disj, Lollipop, OPlus)):
            self.unify(a.left, b.left, path)
            self.unify(a.right, b.right, path)
            return
        raise TypingError(MISMATCH, path, expected=self.zonk(a),
                          found=self.zonk(b))

    # -- helpers --

    def gate(self, t, path):
        if not isinstance(t, _TERM_ALLOWED[self.mode]):
            raise TypingError(
                OUTSIDE, path,
                f"{type(t).__name__} is not a {self.mode} constructor")

    def render_name(self, env, key):
        return env.hints[key] if isinstance(key, int) else key

    def bind(self, env, a: Abs, prop):
        env.types[len(env.hints)] = prop
        env.hints.append(a.hint or "x")
        return a.body

    def unbind(self, env, path):
        level = len(env.hints) - 1
        if self.linear and level not in env.consumed:
            name = env.hints[level]
            raise TypingError(LINEAR_UNUSED, path, names=(name,),
                              detail=f"hypothesis {name} is never used")
        del env.types[level]
        env.hints.pop()
        env.consumed.discard(level)

    def use(self, env, key, path):
        """The hypothesis at key; the linear calculus consumes it."""
        if self.linear:
            if key in env.consumed:
                name = self.render_name(env, key)
                raise TypingError(LINEAR_REUSED, path, names=(name,),
                                  detail=f"hypothesis {name} is used twice")
            env.consumed.add(key)
        return env.types[key]

    def under(self, env, a: Abs, prop, path, unused_path):
        """The proposition of a's body with its variable bound to prop."""
        b = self.infer(env, self.bind(env, a, prop), path)
        self.unbind(env, unused_path)
        return b

    def additive(self, env, path, branches, same=True):
        """The propositions of branches that share the hypotheses.

        Each branch starts from the consumption before the rule.  With
        `same` the branch propositions unify; then, in the linear
        calculus, the branches must have consumed the same hypotheses.
        """
        saved, used, props = env.consumed, [], []
        for branch in branches:
            env.consumed = set(saved)
            props.append(branch())
            used.append(env.consumed)
        if same:
            self.unify(props[0], props[1], path)
        first, other = used
        if other != first:
            diff = sorted(self.render_name(env, k)
                          for k in first.symmetric_difference(other))
            raise TypingError(
                LINEAR_UNUSED, path, names=diff,
                detail="branches consume different hypotheses: "
                       + ", ".join(diff))
        env.consumed = first
        return props

    # -- the checker --

    def infer(self, env, t, path):
        self.gate(t, path)

        if isinstance(t, Var):
            if t.name not in env.types:
                raise TypingError(UNBOUND, path, f"unbound variable {t.name}")
            return self.use(env, t.name, path)

        if isinstance(t, Bound):
            level = len(env.hints) - 1 - t.index
            if level < 0:
                raise TypingError(UNBOUND, path, "dangling bound variable")
            return self.use(env, level, path)

        if isinstance(t, Star):
            return Top()

        if isinstance(t, ScalarStar):
            return One()

        if isinstance(t, Sum):
            a, _ = self.additive(env, path, (
                lambda: self.infer(env, t.left, path + (0,)),
                lambda: self.infer(env, t.right, path + (1,))))
            return a

        if isinstance(t, Prod):
            return self.infer(env, t.body, path + (0,))

        if isinstance(t, (TopElim, OneElim)):
            a = self.infer(env, t.scrut, path + (0,))
            self.unify(a, Top() if isinstance(t, TopElim) else One(),
                       path + (0,))
            return self.infer(env, t.body, path + (1,))

        if isinstance(t, BotElim):
            a = self.infer(env, t.scrut, path + (0,))
            self.unify(a, Bot(), path + (0,))
            return t.prop

        if isinstance(t, Lam):
            ann = t.ann if t.ann is not None else self.fresh_meta(path)
            return self.arrow(ann, self.under(env, t.abs, ann, path + (0,),
                                              path))

        if isinstance(t, App):
            f = self.infer(env, t.fn, path + (0,))
            f = self.resolve(f)
            if isinstance(f, MetaProp):
                dom, cod = self.fresh_meta(path), self.fresh_meta(path)
                self.unify(f, self.arrow(dom, cod), path + (0,))
                f = self.arrow(dom, cod)
            if not isinstance(f, self.arrow):
                raise TypingError(NOT_A_FUNCTION, path + (0,),
                                  f"cannot apply a term of type "
                                  f"{print_prop(self.zonk(f))}")
            a = self.infer(env, t.arg, path + (1,))
            self.unify(f.left, a, path + (1,))
            return f.right

        if isinstance(t, Pair):
            a = self.infer(env, t.left, path + (0,))
            b = self.infer(env, t.right, path + (1,))
            return Conj(a, b)

        if isinstance(t, (AndElim1, AndElim2)):
            s = self.infer(env, t.scrut, path + (0,))
            l, r = self.fresh_meta(path), self.fresh_meta(path)
            self.unify(s, Conj(l, r), path + (0,))
            component = l if isinstance(t, AndElim1) else r
            return self.under(env, t.abs, component, path + (1,), path)

        if isinstance(t, (Inl, Inr)):
            a = self.infer(env, t.body, path + (0,))
            other = self.fresh_meta(path)
            return self.disj(a, other) if isinstance(t, Inl) \
                else self.disj(other, a)

        if isinstance(t, Inlr2):
            return self.disj(*self.additive(env, path, (
                lambda: self.infer(env, t.left, path + (0,)),
                lambda: self.infer(env, t.right, path + (1,))), same=False))

        if isinstance(t, Inlr3):
            s = self.infer(env, t.scrut, path + (0,))
            a1, a2 = self.fresh_meta(path), self.fresh_meta(path)
            self.unify(s, Disj(a1, a2), path + (0,))
            return Disj(self.under(env, t.left, a1, path + (1,), path),
                        self.under(env, t.right, a2, path + (2,), path))

        if isinstance(t, (Case, CaseNd)):
            s = self.infer(env, t.scrut, path + (0,))
            a1, a2 = self.fresh_meta(path), self.fresh_meta(path)
            self.unify(s, self.disj(a1, a2), path + (0,))
            # the scrutinee's resources are spent; the branches share the
            # remainder and must agree on what they consume
            c1, _ = self.additive(env, path, (
                lambda: self.under(env, t.left, a1, path + (1,), path + (1,)),
                lambda: self.under(env, t.right, a2, path + (2,),
                                   path + (2,))))
            return c1

        raise TypingError(OUTSIDE, path, f"unknown constructor {type(t).__name__}")

    def run(self, ctx, t, expected=None):
        env = _Env(types=dict(ctx))
        prop = self.infer(env, t, ())
        if expected is not None:
            self.unify(prop, expected, ())
        if self.linear:
            unused = [k for k in env.types if k not in env.consumed]
            if unused:
                raise TypingError(LINEAR_UNUSED, (), names=tuple(unused),
                                  detail="hypotheses never used: "
                                         + ", ".join(unused))
        out = self.zonk(prop)
        leftover = _first_meta(out)
        if leftover is not None:
            raise TypingError(
                ANNOTATION, self.meta_origin.get(leftover.mid, ()),
                "the proposition is not determined by the term; "
                "add an annotation")
        return out


def _first_meta(p):
    if isinstance(p, MetaProp):
        return p
    if isinstance(p, (Impl, Conj, Disj, Lollipop, OPlus)):
        return _first_meta(p.left) or _first_meta(p.right)
    return None


def infer_iplus(ctx: TypingContext, t: Term,
                expected: Proposition | None = None) -> Proposition:
    """Infer the proposition of an iplus term; raises TypingError."""
    return _Checker("iplus").run(ctx, t, expected)


def infer_linear(ctx: TypingContext, t: Term,
                 expected: Proposition | None = None) -> Proposition:
    """Infer the proposition of a quantum term under the linear discipline."""
    return _Checker("quantum").run(ctx, t, expected)


def infer_cc(ctx: TypingContext, t: Term,
             expected: Proposition | None = None) -> Proposition:
    """Infer the proposition of a cc term (no sum, binder-form inlr)."""
    return _Checker("cc").run(ctx, t, expected)


_INFER = {"iplus": infer_iplus, "quantum": infer_linear, "cc": infer_cc}


def infer(calculus: str, ctx: TypingContext, t: Term,
          expected: Proposition | None = None) -> Proposition:
    return _INFER[calculus](ctx, t, expected)
