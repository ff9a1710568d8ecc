"""Syntax-directed type checking for the three calculi.

``infer(calculus, ctx, t, expected)`` checks t in ``iplus`` (propositional
rules with the sum rule and inlr), ``cc`` (the same minus sum, with the
binder form of inlr) or ``quantum``, the linear rules: multiplicative
eliminations split the context, additive rules (sum, prod, inlr) share it,
and every hypothesis must be consumed exactly once.  The splitting is
algorithmic: consumption is threaded left to right instead of guessing a
partition.

Terms are checked as they are, nameless: Bound(k) is resolved against the
stack of enclosing binders, and no binder is ever opened to a name.  One
loop walks the term on a stack of rule frames, and propositions are walked
on explicit stacks, so depth costs no Python stack.  A node's position is a
cell (i, its parent's cell), None at the root; `syntax.cell_path` makes it
a path tuple only for an error.

Where a rule does not pin a proposition syntactically (inl, inr, unannotated
lambdas, case branches) the checker introduces a placeholder and solves by
unification; if placeholders survive to the end the term has no unique
proposition and the checker reports annotation-required.
"""

from __future__ import annotations

from .syntax import (AndElim1, AndElim2, App, Bot, BotElim, Bound, Case,
                     CaseNd, Conj, Disj, Impl, Inl, Inlr2, Inlr3, Inr, Lam,
                     Lollipop, MetaProp, One, OneElim, OPlus, Pair, Prod,
                     Proposition, Star, Sum, Term, TopElim, Top, Var,
                     _TERM_ALLOWED, cell_path, print_prop)

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

# one instance of each constant proposition the rules name, so `unify`
# meets the checker's own leaves by identity
_TOP, _ONE, _BOT = Top(), One(), Bot()
_SCRUTINEE = {TopElim: _TOP, OneElim: _ONE, BotElim: _BOT}


def _child(i, t):
    """A rule step: path-child i, t, asked for and its proposition returned."""
    return (yield i, t)


class _Checker:
    """One run's placeholders, hypotheses and linear consumption.

    A hypothesis is keyed by its name when it comes from the context and
    by its binder's level (0 for the outermost binder) otherwise, so
    Bound(k) is the hypothesis at level len(hints) - 1 - k.
    """

    def __init__(self, mode, ctx):
        self.mode = mode
        self.linear = mode == "quantum"
        self.arrow = Lollipop if self.linear else Impl
        self.disj = OPlus if self.linear else Disj
        self.types = dict(ctx)  # key -> Proposition
        self.hints = []         # level -> printed name
        self.consumed = set()   # keys used so far
        self.solution = {}
        self.counter = 0
        self.meta_origin = {}  # mid -> the cell that introduced it

    # -- metavariables --

    def fresh_meta(self, pos):
        self.counter += 1
        self.meta_origin[self.counter] = pos
        return MetaProp(self.counter)

    def resolve(self, p):
        while isinstance(p, MetaProp) and p.mid in self.solution:
            p = self.solution[p.mid]
        return p

    def zonk(self, p):
        """p with its solved placeholders replaced, by a post-order walk: a
        connective's class, as its exit mark, waits below its sides."""
        stack, done, solution = [p], [], self.solution
        while stack:
            p = stack.pop()
            if isinstance(p, type):
                done[-2:] = (p(*done[-2:]),)
            elif p._symbol:
                stack += (type(p), p.right, p.left)
            elif isinstance(p, MetaProp) and p.mid in solution:
                stack.append(solution[p.mid])
            else:
                done.append(p)
        return done[0]

    def find_meta(self, p, mid=None):
        """The leftmost unsolved placeholder in p (numbered mid), or None."""
        stack, solution = [p], self.solution
        while stack:
            p = stack.pop()
            if p._symbol:
                stack += (p.right, p.left)
            elif isinstance(p, MetaProp):
                if p.mid in solution:
                    stack.append(solution[p.mid])
                elif mid is None or p.mid == mid:
                    return p
        return None

    def unify(self, a, b, pos):
        """Solve placeholders so that a and b agree, left sides first.  The
        pair is walked node by node, resolving only placeholders."""
        stack, resolve = [(a, b)], self.resolve
        while stack:
            a, b = stack.pop()
            if type(a) is MetaProp:
                a = resolve(a)
            if type(b) is MetaProp:
                b = resolve(b)
            if a is b:
                continue
            if type(a) is type(b) and a._symbol:
                stack += ((a.right, b.right), (a.left, b.left))
                continue
            if a == b:
                continue
            if isinstance(b, MetaProp) and not isinstance(a, MetaProp):
                a, b = b, a
            if isinstance(a, MetaProp):
                if self.find_meta(b, a.mid) is not None:
                    raise TypingError(MISMATCH, cell_path(pos),
                                      "circular proposition")
                self.solution[a.mid] = b
            else:
                raise TypingError(MISMATCH, cell_path(pos),
                                  expected=self.zonk(a), found=self.zonk(b))

    # -- hypotheses --

    def name(self, key):
        return self.hints[key] if isinstance(key, int) else key

    def use(self, key, pos):
        """The hypothesis at key; the linear calculus consumes it."""
        if self.linear:
            if key in self.consumed:
                name = self.name(key)
                raise TypingError(LINEAR_REUSED, cell_path(pos), names=(name,),
                                  detail=f"hypothesis {name} is used twice")
            self.consumed.add(key)
        return self.types[key]

    def under(self, i, a, prop, unused):
        """A rule step: the body of a, path-child i, under a variable of
        prop; a linear one never used is reported at the cell `unused`."""
        level = len(self.hints)
        self.types[level] = prop
        self.hints.append(a.hint or "x")
        body = yield i, a.body
        if self.linear and level not in self.consumed:
            name = self.hints[level]
            raise TypingError(LINEAR_UNUSED, cell_path(unused), names=(name,),
                              detail=f"hypothesis {name} is never used")
        del self.types[level]
        self.hints.pop()
        self.consumed.discard(level)
        return body

    def additive(self, pos, branches, same=True):
        """A rule step: the steps `branches` run on shared hypotheses, each
        from the consumption before the rule, and must consume the same
        ones; with `same` their propositions unify."""
        saved, used, props = self.consumed, [], []
        for branch in branches:
            self.consumed = set(saved)
            props.append((yield from branch))
            used.append(self.consumed)
        if same:
            self.unify(props[0], props[1], pos)
        first, other = used
        if other != first:
            diff = sorted(self.name(k)
                          for k in first.symmetric_difference(other))
            raise TypingError(
                LINEAR_UNUSED, cell_path(pos), names=diff,
                detail="branches consume different hypotheses: "
                       + ", ".join(diff))
        self.consumed = first
        return props

    # -- the rules: a generator per constructor yields (i, child) for each
    # path-child it needs and is sent back that child's proposition --

    def sum_rule(self, t, pos):  # and inlr's pair form
        same = type(t) is Sum
        a, b = yield from self.additive(pos, (_child(0, t.left),
                                              _child(1, t.right)), same)
        return a if same else self.disj(a, b)

    def prod_rule(self, t, pos):
        return (yield 0, t.body)

    def elim(self, t, pos):  # of Top, One and Bot
        a = yield 0, t.scrut
        self.unify(a, _SCRUTINEE[type(t)], (0, pos))
        return t.prop if type(t) is BotElim else (yield 1, t.body)

    def lam(self, t, pos):
        ann = t.ann if t.ann is not None else self.fresh_meta(pos)
        return self.arrow(ann, (yield from self.under(0, t.abs, ann, pos)))

    def app(self, t, pos):
        f = self.resolve((yield 0, t.fn))
        if isinstance(f, MetaProp):
            dom, cod = self.fresh_meta(pos), self.fresh_meta(pos)
            self.unify(f, self.arrow(dom, cod), (0, pos))
            f = self.arrow(dom, cod)
        if not isinstance(f, self.arrow):
            raise TypingError(NOT_A_FUNCTION, cell_path((0, pos)),
                              f"cannot apply a term of type "
                              f"{print_prop(self.zonk(f))}")
        a = yield 1, t.arg
        self.unify(f.left, a, (1, pos))
        return f.right

    def pair(self, t, pos):
        a = yield 0, t.left
        return Conj(a, (yield 1, t.right))

    def and_elim(self, t, pos):
        s = yield 0, t.scrut
        l, r = self.fresh_meta(pos), self.fresh_meta(pos)
        self.unify(s, Conj(l, r), (0, pos))
        component = l if type(t) is AndElim1 else r
        return (yield from self.under(1, t.abs, component, pos))

    def inj(self, t, pos):
        a = yield 0, t.body
        other = self.fresh_meta(pos)
        return self.disj(a, other) if type(t) is Inl else self.disj(other, a)

    def case(self, t, pos):  # and inlr's binder form
        s = yield 0, t.scrut
        a1, a2 = self.fresh_meta(pos), self.fresh_meta(pos)
        self.unify(s, self.disj(a1, a2), (0, pos))
        if type(t) is Inlr3:
            left = yield from self.under(1, t.left, a1, pos)
            return Disj(left, (yield from self.under(2, t.right, a2, pos)))
        # the scrutinee's resources are spent; the branches share the
        # remainder and must agree on what they consume
        c1, _ = yield from self.additive(pos, (
            self.under(1, t.left, a1, (1, pos)),
            self.under(2, t.right, a2, (2, pos))))
        return c1

    RULES = {Sum: sum_rule, Inlr2: sum_rule, Prod: prod_rule, TopElim: elim,
             OneElim: elim, BotElim: elim, Lam: lam, App: app, Pair: pair,
             AndElim1: and_elim, AndElim2: and_elim, Inl: inj, Inr: inj,
             Case: case, CaseNd: case, Inlr3: case}

    def infer(self, t):
        """The proposition of t, by one loop over a stack of rule frames."""
        rules, frames, pos = _RULES[self.mode], [], None
        hints, types, use = self.hints, self.types, self.use
        while True:
            cls = type(t)
            if cls not in rules:
                raise TypingError(
                    OUTSIDE, cell_path(pos),
                    f"{cls.__name__} is not a {self.mode} constructor")
            rule = rules[cls]
            if rule is not None:
                frames.append((rule(self, t, pos), pos))
                prop = None  # starts the new frame
            elif cls is Bound:
                level = len(hints) - 1 - t.index
                if level < 0:
                    raise TypingError(UNBOUND, cell_path(pos),
                                      "dangling bound variable")
                prop = use(level, pos)
            elif cls is Var:
                if t.name not in types:
                    raise TypingError(UNBOUND, cell_path(pos),
                                      f"unbound variable {t.name}")
                prop = use(t.name, pos)
            else:
                prop = _TOP if cls is Star else _ONE
            # hand prop up the frames until one asks for a child
            while frames:
                frame, at = frames[-1]
                try:
                    i, t = frame.send(prop)
                except StopIteration as done:
                    frames.pop()
                    prop = done.value
                else:
                    pos = (i, at)
                    break
            else:
                return prop

    def run(self, t, expected=None):
        prop = self.infer(t)
        if expected is not None:
            self.unify(prop, expected, None)
        if self.linear:
            unused = [k for k in self.types if k not in self.consumed]
            if unused:
                raise TypingError(LINEAR_UNUSED, (), names=tuple(unused),
                                  detail="hypotheses never used: "
                                         + ", ".join(unused))
        out = self.zonk(prop)
        leftover = self.find_meta(out)
        if leftover is not None:
            raise TypingError(
                ANNOTATION, cell_path(self.meta_origin.get(leftover.mid)),
                "the proposition is not determined by the term; "
                "add an annotation")
        return out


# calculus -> {each of its constructors: its rule, None for a leaf}
_RULES = {mode: {cls: _Checker.RULES.get(cls) for cls in allowed}
          for mode, allowed in _TERM_ALLOWED.items()}


def infer(calculus: str, ctx: TypingContext, t: Term,
          expected: Proposition | None = None) -> Proposition:
    """The proposition of t under ctx by the rules of the calculus ("iplus",
    "quantum" or "cc"); raises TypingError."""
    return _Checker(calculus, ctx).run(t, expected)
