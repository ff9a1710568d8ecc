"""Syntax-directed type checkers for the three calculi.

``infer_iplus``   -- propositional rules with the sum rule and inlr.
``infer_linear``  -- the linear rules: multiplicative eliminations split the
                     context, additive rules (sum, prod, inlr) share it, and
                     every hypothesis must be consumed exactly once.  The
                     splitting is algorithmic: consumption is threaded left
                     to right instead of guessing a partition.
``infer_cc``      -- the propositional rules minus sum, with the binder form
                     of inlr.

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
                     Top, Var, _TERM_ALLOWED, fresh_name, open_abs,
                     print_prop)

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
    """Checker state: type bindings, pretty names, linear consumption."""
    types: dict = field(default_factory=dict)    # name -> Proposition
    pretty: dict = field(default_factory=dict)   # name -> surface name
    consumed: set = field(default_factory=set)


class _Checker:
    def __init__(self, mode):
        self.mode = mode
        self.linear = mode == "quantum"
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

    def render_name(self, env, name):
        return env.pretty.get(name, name)

    def bind(self, env, a: Abs, prop):
        name = fresh_name(a.hint or "x")
        env.types[name] = prop
        env.pretty[name] = a.hint or "x"
        return name, open_abs(a, name)

    def unbind(self, env, name, path):
        if self.linear and name not in env.consumed:
            raise TypingError(LINEAR_UNUSED, path,
                              names=(self.render_name(env, name),),
                              detail=f"hypothesis {self.render_name(env, name)}"
                                     " is never used")
        del env.types[name]
        env.consumed.discard(name)

    def branch_consumption(self, env, saved, others, path):
        """Additive branches must consume identical resources."""
        first = others[0]
        for other in others[1:]:
            if other != first:
                diff = sorted(self.render_name(env, n)
                              for n in first.symmetric_difference(other))
                raise TypingError(
                    LINEAR_UNUSED, path, names=diff,
                    detail="branches consume different hypotheses: "
                           + ", ".join(diff))
        env.consumed = first

    # -- the checker --

    def infer(self, env, t, path):
        self.gate(t, path)

        if isinstance(t, Var):
            if t.name not in env.types:
                raise TypingError(UNBOUND, path, f"unbound variable {t.name}")
            if self.linear:
                if t.name in env.consumed:
                    raise TypingError(LINEAR_REUSED, path,
                                      names=(self.render_name(env, t.name),),
                                      detail=f"hypothesis "
                                             f"{self.render_name(env, t.name)}"
                                             " is used twice")
                env.consumed.add(t.name)
            return env.types[t.name]

        if isinstance(t, Bound):
            raise TypingError(UNBOUND, path, "dangling bound variable")

        if isinstance(t, Star):
            return Top()

        if isinstance(t, ScalarStar):
            return One()

        if isinstance(t, Sum):
            if self.linear:
                saved = set(env.consumed)
                a = self.infer(env, t.left, path + (0,))
                after_left = set(env.consumed)
                env.consumed = set(saved)
                b = self.infer(env, t.right, path + (1,))
                after_right = set(env.consumed)
                self.unify(a, b, path)
                self.branch_consumption(env, saved,
                                        [after_left, after_right], path)
                return a
            a = self.infer(env, t.left, path + (0,))
            b = self.infer(env, t.right, path + (1,))
            self.unify(a, b, path)
            return a

        if isinstance(t, Prod):
            return self.infer(env, t.body, path + (0,))

        if isinstance(t, TopElim):
            a = self.infer(env, t.scrut, path + (0,))
            self.unify(a, Top(), path + (0,))
            return self.infer(env, t.body, path + (1,))

        if isinstance(t, OneElim):
            a = self.infer(env, t.scrut, path + (0,))
            self.unify(a, One(), path + (0,))
            return self.infer(env, t.body, path + (1,))

        if isinstance(t, BotElim):
            a = self.infer(env, t.scrut, path + (0,))
            self.unify(a, Bot(), path + (0,))
            return t.prop

        if isinstance(t, Lam):
            ann = t.ann if t.ann is not None else self.fresh_meta(path)
            name, body = self.bind(env, t.abs, ann)
            b = self.infer(env, body, path + (0,))
            self.unbind(env, name, path)
            return Lollipop(ann, b) if self.mode == "quantum" else Impl(ann, b)

        if isinstance(t, App):
            f = self.infer(env, t.fn, path + (0,))
            f = self.resolve(f)
            arrow = Lollipop if self.mode == "quantum" else Impl
            if isinstance(f, MetaProp):
                dom, cod = self.fresh_meta(path), self.fresh_meta(path)
                self.unify(f, arrow(dom, cod), path + (0,))
                f = arrow(dom, cod)
            if not isinstance(f, arrow):
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
            name, body = self.bind(env, t.abs, component)
            c = self.infer(env, body, path + (1,))
            self.unbind(env, name, path)
            return c

        if isinstance(t, Inl):
            a = self.infer(env, t.body, path + (0,))
            other = self.fresh_meta(path)
            return self.disj(a, other)

        if isinstance(t, Inr):
            b = self.infer(env, t.body, path + (0,))
            other = self.fresh_meta(path)
            return self.disj(other, b)

        if isinstance(t, Inlr2):
            if self.linear:
                saved = set(env.consumed)
                a = self.infer(env, t.left, path + (0,))
                after_left = set(env.consumed)
                env.consumed = set(saved)
                b = self.infer(env, t.right, path + (1,))
                after_right = set(env.consumed)
                self.branch_consumption(env, saved,
                                        [after_left, after_right], path)
                return self.disj(a, b)
            a = self.infer(env, t.left, path + (0,))
            b = self.infer(env, t.right, path + (1,))
            return self.disj(a, b)

        if isinstance(t, Inlr3):
            s = self.infer(env, t.scrut, path + (0,))
            a1, a2 = self.fresh_meta(path), self.fresh_meta(path)
            self.unify(s, Disj(a1, a2), path + (0,))
            n1, body1 = self.bind(env, t.left, a1)
            b1 = self.infer(env, body1, path + (1,))
            self.unbind(env, n1, path)
            n2, body2 = self.bind(env, t.right, a2)
            b2 = self.infer(env, body2, path + (2,))
            self.unbind(env, n2, path)
            return Disj(b1, b2)

        if isinstance(t, (Case, CaseNd)):
            s = self.infer(env, t.scrut, path + (0,))
            a1, a2 = self.fresh_meta(path), self.fresh_meta(path)
            self.unify(s, self.disj(a1, a2), path + (0,))
            if self.linear:
                # the scrutinee's resources are spent; the branches share
                # the remainder and must agree on what they consume
                saved = set(env.consumed)
                n1, body1 = self.bind(env, t.left, a1)
                c1 = self.infer(env, body1, path + (1,))
                self.unbind(env, n1, path + (1,))
                after_left = set(env.consumed)
                env.consumed = set(saved)
                n2, body2 = self.bind(env, t.right, a2)
                c2 = self.infer(env, body2, path + (2,))
                self.unbind(env, n2, path + (2,))
                after_right = set(env.consumed)
                self.unify(c1, c2, path)
                self.branch_consumption(env, saved,
                                        [after_left, after_right], path)
                return c1
            n1, body1 = self.bind(env, t.left, a1)
            c1 = self.infer(env, body1, path + (1,))
            self.unbind(env, n1, path + (1,))
            n2, body2 = self.bind(env, t.right, a2)
            c2 = self.infer(env, body2, path + (2,))
            self.unbind(env, n2, path + (2,))
            self.unify(c1, c2, path)
            return c1

        raise TypingError(OUTSIDE, path, f"unknown constructor {type(t).__name__}")

    def disj(self, a, b):
        return OPlus(a, b) if self.mode == "quantum" else Disj(a, b)

    def run(self, ctx, t, expected=None):
        env = _Env(types=dict(ctx), pretty={k: k for k in ctx})
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
