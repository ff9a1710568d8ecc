"""Propositions, proof terms, parser, printer, and substitution.

Terms cover all three calculi handled by the workbench:

* ``iplus``   -- propositional logic (Top, Bot, =>, /\\, \\/) with the sum
  rule and the three-way disjunction introduction ``inlr``;
* ``quantum`` -- the linear variant (One, -o, (+)) with complex scalars,
  ``prod``, and the non-deterministic eliminator ``case_nd``;
* ``cc``      -- the variant without interstitial rules whose ``inlr`` is a
  binder form used to reduce commuting cuts.

Binders are stored nameless (de Bruijn indices) with a name hint kept for
printing, so alpha-equivalence is plain structural equality and substitution
cannot capture.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

CALCULI = ("iplus", "quantum", "cc")

# ---------------------------------------------------------------------------
# Propositions


class Proposition:
    pass


@dataclass(frozen=True)
class Top(Proposition):
    pass


@dataclass(frozen=True)
class Bot(Proposition):
    pass


@dataclass(frozen=True)
class One(Proposition):
    pass


@dataclass(frozen=True)
class Atom(Proposition):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom names must be nonempty")


@dataclass(frozen=True)
class Impl(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Conj(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Disj(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Lollipop(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class OPlus(Proposition):
    left: Proposition
    right: Proposition


# Connectives admissible per calculus (atoms are schematic everywhere).
_PROP_ALLOWED = {
    "iplus": (Top, Bot, Impl, Conj, Disj, Atom),
    "quantum": (One, Lollipop, OPlus, Atom),
    "cc": (Top, Bot, Impl, Conj, Disj, Atom),
}


class CalculusError(Exception):
    """A constructor or connective outside the selected calculus."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


def validate_prop(p: Proposition, calculus: str) -> None:
    allowed = _PROP_ALLOWED[calculus]
    if not isinstance(p, allowed):
        raise CalculusError(
            f"connective {type(p).__name__} not in {calculus} propositions")
    for child in _prop_children(p):
        validate_prop(child, calculus)


def _prop_children(p: Proposition):
    if isinstance(p, (Impl, Conj, Disj, Lollipop, OPlus)):
        return (p.left, p.right)
    return ()


# ---------------------------------------------------------------------------
# Terms

# Shape entry kinds, used by the generic traversal helpers.
TERM = "term"
ABS = "abs"
SCALAR = "scalar"
PROP = "prop"


class Term:
    _shape: tuple = ()
    _paths: tuple = ()  # the TERM and ABS entries of _shape

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._paths = tuple((name, kind) for name, kind in cls._shape
                           if kind in (TERM, ABS))


@dataclass(frozen=True, eq=False)
class Abs:
    """A binding abstraction: one bound variable plus its body.

    The hint is only a printing aid; it is ignored by equality and hashing.
    """

    hint: str
    body: Term

    def __eq__(self, other):
        return isinstance(other, Abs) and self.body == other.body

    def __hash__(self):
        return hash((Abs, self.body))

    def __repr__(self):
        return f"Abs({self.hint!r}, {self.body!r})"


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Bound(Term):
    index: int


@dataclass(frozen=True)
class Star(Term):
    pass


@dataclass(frozen=True)
class ScalarStar(Term):
    value: complex
    _shape = (("value", SCALAR),)


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term
    _shape = (("left", TERM), ("right", TERM))


@dataclass(frozen=True)
class Prod(Term):
    value: complex
    body: Term
    _shape = (("value", SCALAR), ("body", TERM))


@dataclass(frozen=True)
class TopElim(Term):
    scrut: Term
    body: Term
    _shape = (("scrut", TERM), ("body", TERM))


@dataclass(frozen=True)
class BotElim(Term):
    prop: Proposition
    scrut: Term
    _shape = (("prop", PROP), ("scrut", TERM))


@dataclass(frozen=True)
class Lam(Term):
    ann: Proposition | None
    abs: Abs
    _shape = (("ann", PROP), ("abs", ABS))


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    _shape = (("fn", TERM), ("arg", TERM))


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term
    _shape = (("left", TERM), ("right", TERM))


@dataclass(frozen=True)
class AndElim1(Term):
    scrut: Term
    abs: Abs
    _shape = (("scrut", TERM), ("abs", ABS))


@dataclass(frozen=True)
class AndElim2(Term):
    scrut: Term
    abs: Abs
    _shape = (("scrut", TERM), ("abs", ABS))


@dataclass(frozen=True)
class Inl(Term):
    body: Term
    _shape = (("body", TERM),)


@dataclass(frozen=True)
class Inr(Term):
    body: Term
    _shape = (("body", TERM),)


@dataclass(frozen=True)
class Inlr2(Term):
    left: Term
    right: Term
    _shape = (("left", TERM), ("right", TERM))


@dataclass(frozen=True)
class Inlr3(Term):
    scrut: Term
    left: Abs
    right: Abs
    _shape = (("scrut", TERM), ("left", ABS), ("right", ABS))


@dataclass(frozen=True)
class Case(Term):
    scrut: Term
    left: Abs
    right: Abs
    _shape = (("scrut", TERM), ("left", ABS), ("right", ABS))


@dataclass(frozen=True)
class CaseNd(Term):
    scrut: Term
    left: Abs
    right: Abs
    _shape = (("scrut", TERM), ("left", ABS), ("right", ABS))


@dataclass(frozen=True)
class OneElim(Term):
    scrut: Term
    body: Term
    _shape = (("scrut", TERM), ("body", TERM))


_TERM_ALLOWED = {
    "iplus": (Var, Bound, Sum, Star, TopElim, BotElim, Lam, App, Pair,
              AndElim1, AndElim2, Inl, Inr, Inlr2, Case),
    "quantum": (Var, Bound, Sum, Prod, ScalarStar, OneElim, Lam, App,
                Inl, Inr, Inlr2, Case, CaseNd),
    # The cc calculus only has the binder form of inlr; its plain pair form
    # belongs to the calculi with a sum rule.
    "cc": (Var, Bound, Star, TopElim, BotElim, Lam, App, Pair,
           AndElim1, AndElim2, Inl, Inr, Inlr3, Case),
}


def validate_calculus(t: Term, calculus: str) -> None:
    """Check that every constructor of t belongs to the given calculus."""
    if not isinstance(t, _TERM_ALLOWED[calculus]):
        raise CalculusError(
            f"constructor {type(t).__name__} not in {calculus} calculus")
    if isinstance(t, Lam) and t.ann is not None:
        validate_prop(t.ann, calculus)
    if isinstance(t, BotElim):
        validate_prop(t.prop, calculus)
    for child in subterms(t):
        validate_calculus(child, calculus)


# ---------------------------------------------------------------------------
# Generic traversal

def child_slots(t: Term):
    """The (field, kind) pairs of t that participate in term paths."""
    return t._paths


def subterms(t: Term):
    """The path-children of t, in child_slots order (an Abs gives its body)."""
    return [getattr(t, name) if kind == TERM else getattr(t, name).body
            for name, kind in t._paths]


def replace_children(t: Term, new_children) -> Term:
    """Rebuild t with its path-children replaced, keeping hints and scalars."""
    it = iter(new_children)
    kwargs = {}
    for name, kind in t._shape:
        old = getattr(t, name)
        if kind == TERM:
            kwargs[name] = next(it)
        elif kind == ABS:
            kwargs[name] = Abs(old.hint, next(it))
        else:
            kwargs[name] = old
    return type(t)(**kwargs)


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in subterms(t))


def free_names(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out = frozenset()
    for c in subterms(t):
        out |= free_names(c)
    return out


def is_closed(t: Term) -> bool:
    return not free_names(t)


def uses_binder(a: Abs) -> bool:
    """Whether the abstraction actually refers to its bound variable."""

    def go(t, depth):
        if isinstance(t, Bound):
            return t.index == depth
        for name, kind in t._shape:
            if kind == TERM:
                if go(getattr(t, name), depth):
                    return True
            elif kind == ABS:
                if go(getattr(t, name).body, depth + 1):
                    return True
        return False

    return go(a.body, 0)


# ---------------------------------------------------------------------------
# Opening / closing binders and substitution

_fresh_counter = itertools.count(1)


def fresh_name(hint: str = "x") -> str:
    # '?' is not a surface-syntax character, so these can never collide with
    # parsed variable names.
    return f"?{hint}{next(_fresh_counter)}"


def map_vars(t: Term, on_var, on_bound, depth: int = 0) -> Term:
    """Rebuild t with every variable replaced.

    `on_var(v, depth)` and `on_bound(b, depth)` give the replacement for a
    free or bound variable, where depth counts the binders passed on the
    way down.  Subterms that come back unchanged are shared, not copied.
    """
    if isinstance(t, Var):
        return on_var(t, depth)
    if isinstance(t, Bound):
        return on_bound(t, depth)
    kwargs = {}
    changed = False
    for nm, kind in t._shape:
        old = new = getattr(t, nm)
        if kind == TERM:
            new = map_vars(old, on_var, on_bound, depth)
        elif kind == ABS:
            body = map_vars(old.body, on_var, on_bound, depth + 1)
            if body is not old.body:
                new = Abs(old.hint, body)
        changed = changed or new is not old
        kwargs[nm] = new
    return type(t)(**kwargs) if changed else t


def _keep(v, depth):
    return v


def open_abs(a: Abs, name: str) -> Term:
    """Replace the abstraction's bound variable with a free variable."""

    def on_bound(b, depth):
        if b.index == depth:
            return Var(name)
        return Bound(b.index - 1) if b.index > depth else b

    return map_vars(a.body, _keep, on_bound)


def close_term(t: Term, name: str, hint: str | None = None) -> Abs:
    """Abstract the free variable `name` out of t."""
    body = map_vars(
        t, lambda v, depth: Bound(depth) if v.name == name else v,
        lambda b, depth: Bound(b.index + 1) if b.index >= depth else b)
    return Abs(hint if hint is not None else name, body)


def subst_multi(mapping: dict, t: Term) -> Term:
    """Simultaneous capture-avoiding substitution of free variables."""
    if not mapping:
        return t
    return map_vars(t, lambda v, depth: mapping.get(v.name, v), _keep)


def subst(u: Term, x: str, t: Term) -> Term:
    """Substitute u for the free variable x in t."""
    return subst_multi({x: u}, t)


def subst_abs(a: Abs, u: Term) -> Term:
    """Open the abstraction and plug u in for its bound variable."""
    x = fresh_name(a.hint or "x")
    return subst(u, x, open_abs(a, x))


_ID_ABS = Abs("z", Bound(0))


def pair_subst(w: Term, x: str, y: str, t: Term) -> Term:
    """Substitute the two conjunct projections of w for x and y in t.

    ``(w/<x,y>)t`` stands for the simultaneous substitution of
    ``and1(w, z.z)`` for x and ``and2(w, z.z)`` for y.
    """
    return subst_multi({x: AndElim1(w, _ID_ABS), y: AndElim2(w, _ID_ABS)}, t)


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality modulo bound-variable names (structural on this encoding)."""
    return t == u


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<oplus>\(\+\))
    | (?P<impl>=>)
    | (?P<lolli>-o)
    | (?P<conj>/\\)
    | (?P<disj>\\/)
    | (?P<punct>[()\[\],.:])
    """,
    re.VERBOSE,
)

_RESERVED = {
    "star", "sum", "prod", "lam", "pair", "and1", "and2", "inl", "inr",
    "inlr", "case", "case_nd", "top_elim", "bot_elim", "one_elim",
    "Top", "Bot", "One",
}


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, calculus: str):
        if calculus not in CALCULI:
            raise ValueError(f"unknown calculus {calculus!r}")
        self.toks = _tokenize(text)
        self.i = 0
        self.calculus = calculus
        # (surface name, unique marker); occurrences parse to Var(marker)
        # and the abstraction is closed over the marker on exit.
        self.bound: list[tuple[str, str]] = []

    def peek(self, ahead=0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind, text=None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def gate(self, node_type, tok):
        if node_type not in _TERM_ALLOWED[self.calculus]:
            raise CalculusError(
                f"constructor {node_type.__name__} not in "
                f"{self.calculus} calculus", tok.line, tok.col)

    # -- propositions --

    def prop(self) -> Proposition:
        left = self.prop_or()
        t = self.peek()
        if t.kind in ("impl", "lolli"):
            self.next()
            right = self.prop()
            made = Impl(left, right) if t.kind == "impl" else Lollipop(left, right)
            self.gate_prop(made, t)
            return made
        return left

    def prop_or(self) -> Proposition:
        left = self.prop_and()
        t = self.peek()
        if t.kind in ("disj", "oplus"):
            self.next()
            right = self.prop_or()
            made = Disj(left, right) if t.kind == "disj" else OPlus(left, right)
            self.gate_prop(made, t)
            return made
        return left

    def prop_and(self) -> Proposition:
        left = self.prop_atom()
        t = self.peek()
        if t.kind == "conj":
            self.next()
            right = self.prop_and()
            made = Conj(left, right)
            self.gate_prop(made, t)
            return made
        return left

    def prop_atom(self) -> Proposition:
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            self.next()
            p = self.prop()
            self.expect("punct", ")")
            return p
        if t.kind == "ident":
            self.next()
            if t.text == "Top":
                made = Top()
            elif t.text == "Bot":
                made = Bot()
            elif t.text == "One":
                made = One()
            elif t.text in _RESERVED:
                self.error(f"reserved word {t.text!r} is not a proposition", t)
            else:
                made = Atom(t.text)
            self.gate_prop(made, t)
            return made
        self.error(f"expected a proposition, found {t.text!r}", t)

    def gate_prop(self, p, tok):
        if not isinstance(p, _PROP_ALLOWED[self.calculus]):
            raise CalculusError(
                f"connective {type(p).__name__} not in {self.calculus} "
                "propositions", tok.line, tok.col)

    # -- scalars --

    def scalar(self) -> complex:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return complex(float(t.text), 0.0)
        if t.kind == "punct" and t.text == "(":
            self.next()
            re_tok = self.expect("number")
            self.expect("punct", ",")
            im_tok = self.expect("number")
            self.expect("punct", ")")
            return complex(float(re_tok.text), float(im_tok.text))
        self.error(f"expected a scalar, found {t.text!r}", t)

    # -- terms --

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "ident" and t.text == "lam":
            self.next()
            self.gate(Lam, t)
            name_tok = self.expect("ident")
            if name_tok.text in _RESERVED:
                self.error(f"reserved word {name_tok.text!r} cannot bind",
                           name_tok)
            ann = None
            if self.peek().kind == "punct" and self.peek().text == ":":
                self.next()
                ann = self.prop()
            self.expect("punct", ".")
            marker = fresh_name(name_tok.text)
            self.bound.append((name_tok.text, marker))
            try:
                body = self.term()
            finally:
                self.bound.pop()
            return Lam(ann, close_term(body, marker, hint=name_tok.text))
        return self.appterm()

    def appterm(self) -> Term:
        t = self.atom()
        while self.starts_atom(self.peek()):
            arg = self.atom()
            t = App(t, arg)
        return t

    def starts_atom(self, tok: _Tok) -> bool:
        if tok.kind in ("ident", "number"):
            return True
        return tok.kind == "punct" and tok.text == "("

    def binder_arg(self) -> Abs:
        name_tok = self.expect("ident")
        if name_tok.text in _RESERVED:
            self.error(f"reserved word {name_tok.text!r} cannot bind", name_tok)
        self.expect("punct", ".")
        marker = fresh_name(name_tok.text)
        self.bound.append((name_tok.text, marker))
        try:
            body = self.term()
        finally:
            self.bound.pop()
        return close_term(body, marker, hint=name_tok.text)

    def at_binder_arg(self) -> bool:
        return (self.peek().kind == "ident"
                and self.peek().text not in _RESERVED
                and self.peek(1).kind == "punct" and self.peek(1).text == ".")

    def scalar_star(self, tok) -> Term:
        value = self.scalar()
        self.expect("punct", ".")
        self.expect("ident", "star")
        self.gate(ScalarStar, tok)
        return ScalarStar(value)

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "number":
            return self.scalar_star(t)
        if t.kind == "punct" and t.text == "(":
            # "(re, im) . star" starts like a parenthesized term; a number
            # followed by a comma settles it.
            if self.peek(1).kind == "number" and self.peek(2).kind == "punct" \
                    and self.peek(2).text == ",":
                return self.scalar_star(t)
            self.next()
            inner = self.term()
            self.expect("punct", ")")
            return inner
        if t.kind != "ident":
            self.error(f"expected a term, found {t.text!r}", t)
        word = t.text
        if word == "star":
            self.next()
            self.gate(Star, t)
            return Star()
        if word == "lam":
            self.error("a lambda must be parenthesized here", t)
        if word in _RESERVED:
            return self.callform(self.next())
        self.next()
        # innermost binder wins
        for name, marker in reversed(self.bound):
            if name == word:
                return Var(marker)
        return Var(word)

    def callform(self, tok: _Tok) -> Term:
        word = tok.text
        if word == "bot_elim":
            self.gate(BotElim, tok)
            self.expect("punct", "[")
            prop = self.prop()
            self.expect("punct", "]")
            self.expect("punct", "(")
            scrut = self.term()
            self.expect("punct", ")")
            return BotElim(prop, scrut)
        self.expect("punct", "(")
        if word == "sum":
            self.gate(Sum, tok)
            a = self.term()
            self.expect("punct", ",")
            b = self.term()
            made = Sum(a, b)
        elif word == "prod":
            self.gate(Prod, tok)
            a = self.scalar()
            self.expect("punct", ",")
            b = self.term()
            made = Prod(a, b)
        elif word == "pair":
            self.gate(Pair, tok)
            a = self.term()
            self.expect("punct", ",")
            b = self.term()
            made = Pair(a, b)
        elif word == "inl":
            self.gate(Inl, tok)
            made = Inl(self.term())
        elif word == "inr":
            self.gate(Inr, tok)
            made = Inr(self.term())
        elif word == "inlr":
            scrut = self.term()
            self.expect("punct", ",")
            if self.at_binder_arg():
                self.gate(Inlr3, tok)
                left = self.binder_arg()
                self.expect("punct", ",")
                right = self.binder_arg()
                made = Inlr3(scrut, left, right)
            else:
                self.gate(Inlr2, tok)
                right = self.term()
                made = Inlr2(scrut, right)
        elif word in ("and1", "and2"):
            node = AndElim1 if word == "and1" else AndElim2
            self.gate(node, tok)
            scrut = self.term()
            self.expect("punct", ",")
            made = node(scrut, self.binder_arg())
        elif word in ("case", "case_nd"):
            node = Case if word == "case" else CaseNd
            self.gate(node, tok)
            scrut = self.term()
            self.expect("punct", ",")
            left = self.binder_arg()
            self.expect("punct", ",")
            right = self.binder_arg()
            made = node(scrut, left, right)
        elif word in ("top_elim", "one_elim"):
            node = TopElim if word == "top_elim" else OneElim
            self.gate(node, tok)
            scrut = self.term()
            self.expect("punct", ",")
            made = node(scrut, self.term())
        else:
            self.error(f"unknown form {word!r}", tok)
        self.expect("punct", ")")
        return made


def parse_term(text: str, calculus: str) -> Term:
    """Parse a proof term in the given calculus.

    Raises ParseError on malformed input and CalculusError when a
    constructor or connective does not belong to the calculus.
    """
    p = _Parser(text, calculus)
    t = p.term()
    tok = p.peek()
    if tok.kind != "eof":
        p.error(f"trailing input starting at {tok.text!r}", tok)
    return t


def parse_prop(text: str, calculus: str) -> Proposition:
    p = _Parser(text, calculus)
    made = p.prop()
    tok = p.peek()
    if tok.kind != "eof":
        p.error(f"trailing input starting at {tok.text!r}", tok)
    return made


# ---------------------------------------------------------------------------
# Printing

_PREC_ARROW, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def print_prop(p: Proposition) -> str:
    def go(p, minlevel):
        if isinstance(p, Top):
            return "Top"
        if isinstance(p, Bot):
            return "Bot"
        if isinstance(p, One):
            return "One"
        if isinstance(p, Atom):
            return p.name
        if isinstance(p, (Impl, Lollipop)):
            op = "=>" if isinstance(p, Impl) else "-o"
            s = f"{go(p.left, _PREC_OR)} {op} {go(p.right, _PREC_ARROW)}"
            return f"({s})" if minlevel > _PREC_ARROW else s
        if isinstance(p, (Disj, OPlus)):
            op = "\\/" if isinstance(p, Disj) else "(+)"
            s = f"{go(p.left, _PREC_AND)} {op} {go(p.right, _PREC_OR)}"
            return f"({s})" if minlevel > _PREC_OR else s
        if isinstance(p, Conj):
            s = f"{go(p.left, _PREC_ATOM)} /\\ {go(p.right, _PREC_AND)}"
            return f"({s})" if minlevel > _PREC_AND else s
        raise TypeError(f"not a printable proposition: {p!r}")

    return go(p, _PREC_ARROW)


def format_scalar(a: complex) -> str:
    if a.imag == 0.0:
        return repr(a.real)
    return f"({a.real!r}, {a.imag!r})"


def _pick_name(hint: str, avoid) -> str:
    base = hint or "x"
    if base.startswith("?"):
        base = base[1:] or "x"
    base = re.sub(r"[^A-Za-z0-9_]", "", base) or "x"
    if base[0].isdigit():
        base = "x" + base
    if base not in avoid and base not in _RESERVED:
        return base
    for k in itertools.count(1):
        cand = f"{base}{k}"
        if cand not in avoid and cand not in _RESERVED:
            return cand


def print_term(t: Term) -> str:
    """Deterministic concrete syntax; parse_term inverts it up to alpha."""

    def go(t, stack, atomic):
        # atomic: the output must be a single application atom
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Bound):
            return stack[-(t.index + 1)]
        if isinstance(t, Star):
            return "star"
        if isinstance(t, ScalarStar):
            s = f"{format_scalar(t.value)} . star"
            return f"({s})" if atomic else s
        if isinstance(t, Sum):
            return f"sum({go(t.left, stack, False)}, {go(t.right, stack, False)})"
        if isinstance(t, Prod):
            return f"prod({format_scalar(t.value)}, {go(t.body, stack, False)})"
        if isinstance(t, TopElim):
            return f"top_elim({go(t.scrut, stack, False)}, {go(t.body, stack, False)})"
        if isinstance(t, OneElim):
            return f"one_elim({go(t.scrut, stack, False)}, {go(t.body, stack, False)})"
        if isinstance(t, BotElim):
            return f"bot_elim[{print_prop(t.prop)}]({go(t.scrut, stack, False)})"
        if isinstance(t, Lam):
            name = _pick_name(t.abs.hint, _avoid(t.abs, stack))
            body = go(t.abs.body, stack + [name], False)
            ann = f":{print_prop(t.ann)}" if t.ann is not None else ""
            s = f"lam {name}{ann}. {body}"
            return f"({s})" if atomic else s
        if isinstance(t, App):
            # application is left-associative, so a fn-position App needs
            # no parentheses while everything else in atom position does
            fn = go(t.fn, stack, isinstance(t.fn, (Lam, ScalarStar)))
            arg = go(t.arg, stack, True)
            s = f"{fn} {arg}"
            return f"({s})" if atomic else s
        if isinstance(t, Pair):
            return f"pair({go(t.left, stack, False)}, {go(t.right, stack, False)})"
        if isinstance(t, (AndElim1, AndElim2)):
            head = "and1" if isinstance(t, AndElim1) else "and2"
            return f"{head}({go(t.scrut, stack, False)}, {binder(t.abs, stack)})"
        if isinstance(t, Inl):
            return f"inl({go(t.body, stack, False)})"
        if isinstance(t, Inr):
            return f"inr({go(t.body, stack, False)})"
        if isinstance(t, Inlr2):
            return f"inlr({go(t.left, stack, False)}, {go(t.right, stack, False)})"
        if isinstance(t, Inlr3):
            return (f"inlr({go(t.scrut, stack, False)}, "
                    f"{binder(t.left, stack)}, {binder(t.right, stack)})")
        if isinstance(t, (Case, CaseNd)):
            head = "case" if isinstance(t, Case) else "case_nd"
            return (f"{head}({go(t.scrut, stack, False)}, "
                    f"{binder(t.left, stack)}, {binder(t.right, stack)})")
        raise TypeError(f"not a printable term: {t!r}")

    def binder(a, stack):
        name = _pick_name(a.hint, _avoid(a, stack))
        return f"{name}. {go(a.body, stack + [name], False)}"

    def _avoid(a, stack):
        return free_names(a.body) | set(stack)

    return go(t, [], False)
