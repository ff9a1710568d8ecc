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

Each constructor declares its fields once, as annotations, and derives
its ``_shape`` from them.  The concrete syntax is declared once, on the
classes too: a call-form constructor names its keyword in ``_word``, a
proposition constant its keyword in ``_word``, and a binary connective its
``_symbol`` and precedence ``_level``.  The parser, the printer (one for
terms and propositions) and the reserved words are all derived from these.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import attrgetter

CALCULI = ("iplus", "quantum", "cc")

# ---------------------------------------------------------------------------
# Nodes

# Shape entry kinds: a child node (a subterm, or a side of a connective),
# an abstraction, a scalar and a term's proposition.
TERM = "term"
ABS = "abs"
SCALAR = "scalar"
PROP = "prop"


class Node:
    """A proposition or a proof term: a plain dataclass per constructor,
    declared here once the class is defined.  A node's fields are never
    written after construction, only its caches.

    Equality and hashing are defined here once, structurally, for both
    families; the subclasses generate neither.  Binder hints are left out
    of both.  Both walk with an explicit stack, so depth costs no Python
    stack.

    A class declares each field once, as an annotation, and its family's
    `_kinds` gives the field's kind by the annotation's text; any other
    annotation raises TypeError when the class is defined.  From them the
    class derives: `_fields`, (name, kind) of every field, kind None for
    a data field; `_shape`, the fields that have a kind; `_paths`, the
    TERM and ABS entries; `_binds`, 1 per path-child that is an
    abstraction's body; `_kids(t)`, the path-children as a tuple, an
    abstraction's body for the abstraction; and `_rebuild(t, kids)`, a
    node of t's class with t's other fields and new path-children, an
    abstraction of t kept when its body comes back as it was.

    `_hash`, the structural hash, is stored by the first `hash(t)` from
    `_key(t)`: the class, the children's stored hashes and the other
    fields; `_key_at[i]` is the index of path-child i's hash in it.  It is
    a cache outside the dataclass fields, so `==` and `repr` never read
    it.
    """

    _hash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for name, ann in cls.__dict__.get("__annotations__", {}).items():
            if ann not in cls._kinds:
                raise TypeError(f"{cls.__name__}.{name}: no field kind for "
                                f"the annotation {ann!r}")
            fields.append((name, cls._kinds[ann]))
        cls._fields = tuple(fields)
        cls._shape = tuple(f for f in fields if f[1] is not None)
        cls._paths = tuple(f for f in fields if f[1] in (TERM, ABS))
        cls._binds = tuple(int(kind == ABS) for _, kind in cls._paths)
        paths = [name if kind == TERM else name + ".body"
                 for name, kind in cls._paths]
        if len(paths) > 1:
            kids = attrgetter(*paths)
        elif paths:
            only = attrgetter(*paths)
            kids = lambda t: (only(t),)  # noqa: E731
        else:
            kids = lambda t: ()  # noqa: E731
        cls._kids = staticmethod(kids)
        cls._rebuild = staticmethod(_rebuilder(cls))
        cls._key = staticmethod(attrgetter("__class__", *(
            name + "._hash" if kind == TERM else
            name + ".body._hash" if kind == ABS else name
            for name, kind in cls._fields)))
        cls._key_at = tuple(1 + fields.index(f) for f in cls._paths)
        dataclass(eq=False)(cls)  # the equality and the hash stay Node's

    def __hash__(self):
        h = self._hash
        return _store_hashes(self) if h is None else h

    def __eq__(self, other):
        if self is other:
            return True
        cls = type(self)
        if type(other) is not cls:
            return False if isinstance(other, Node) else NotImplemented
        if not cls._paths:  # a leaf: its key holds all its fields
            return cls._key(self) == cls._key(other)
        stack = [(self, other)]
        pop, push = stack.pop, stack.append
        while stack:
            a, b = pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b):
                return False
            ha, hb = a._hash, b._hash
            if ha is not None and hb is not None and ha != hb:
                return False
            for name, kind in cls._fields:
                x, y = getattr(a, name), getattr(b, name)
                if kind == TERM:
                    push((x, y))
                elif kind == ABS:
                    push((x.body, y.body))
                elif x is not y and x != y:
                    return False
        return True


def _store_hashes(t: Node) -> int:
    """Store the hash of t and of every node below it that has none.

    A post-order walk: a node's hash is taken of its `_key`, which holds
    its children's stored hashes, once the nodes pushed above its exit
    mark, its children, are done.  Returns t's hash.
    """
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if type(node) is tuple:  # the exit mark of a node
            node = node[0]
            node._hash = hash(node._key(node))
        elif node._hash is None:
            push((node,))
            stack += node._kids(node)
    return t._hash


def _rebuilder(cls):
    """`cls._rebuild`.  A class whose fields are all children is called on
    the new children as they are; any other on its fields in turn: a
    child from `kids`, an abstraction kept, or rebuilt with its hint
    around a new body, and a data field as t has it."""
    if all(kind == TERM for _, kind in cls._fields):
        return lambda t, kids: cls(*kids)
    plan = []
    for name, kind in cls._fields:
        plan.append((name, kind, cls._paths.index((name, kind))
                     if kind in (TERM, ABS) else None))
    plan = tuple(plan)

    def rebuild(t, kids):
        args = []
        for name, kind, i in plan:
            if kind == TERM:
                args.append(kids[i])
            elif kind == ABS:
                a = getattr(t, name)
                args.append(a if a.body is kids[i] else Abs(a.hint, kids[i]))
            else:
                args.append(getattr(t, name))
        return cls(*args)

    return rebuild


# ---------------------------------------------------------------------------
# Propositions


_PROP_WORDS: dict = {}   # constant keyword -> its class
_CONNECTIVES: dict = {}  # infix symbol -> its class


class Proposition(Node):
    """A proposition; a binary connective's sides, its fields annotated
    `Proposition`, are its children, and `str` and `int` fields are data."""

    _kinds = {"Proposition": TERM, "str": None, "int": None}
    _word = None    # the keyword of a constant
    _symbol = None  # the infix symbol of a binary connective, ...
    _level = 0      # ... and its precedence: 1 binds loosest, all associate right

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._symbol:
            _CONNECTIVES[cls._symbol] = cls
        if cls._word:
            _PROP_WORDS[cls._word] = cls


class Top(Proposition):
    _word = "Top"


class Bot(Proposition):
    _word = "Bot"


class One(Proposition):
    _word = "One"


class Atom(Proposition):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom names must be nonempty")


class MetaProp(Proposition):
    """A type checker's unification placeholder, printed as ?<mid>."""
    mid: int


class Impl(Proposition):
    left: Proposition
    right: Proposition
    _symbol, _level = "=>", 1


class Conj(Proposition):
    left: Proposition
    right: Proposition
    _symbol, _level = "/\\", 3


class Disj(Proposition):
    left: Proposition
    right: Proposition
    _symbol, _level = "\\/", 2


class Lollipop(Proposition):
    left: Proposition
    right: Proposition
    _symbol, _level = "-o", 1


class OPlus(Proposition):
    left: Proposition
    right: Proposition
    _symbol, _level = "(+)", 2


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


# ---------------------------------------------------------------------------
# Terms

_FORMS: dict = {}  # call-form keyword -> its classes, in declaration order


class Term(Node):
    """A proof term.

    A field annotated `Term` is a subterm, `Abs` an abstraction, `complex`
    a scalar and `Proposition` (or `Proposition | None`) the term's
    proposition, which is data beside its children; `str` and `int`
    fields are data.

    Beside its `_hash`, each term keeps caches outside its dataclass
    fields, plain attributes that `==`, `repr` and the printer never read:

    * `_nf`, an int with one bit set for each rule table under which the
      node holds no redex (the table's `bit`), set by the rewrite engine's
      walks, 0 on the class;
    * `_loose`, its loose-index range: 1 + its largest loose de Bruijn
      index, or 0 if it has none, stored by the first `instantiate` that
      enters the node.  A leaf without indices has 0 on its class, and
      `Bound` works its range out from its index.
    """

    _kinds = {"Term": TERM, "Abs": ABS, "complex": SCALAR,
              "Proposition": PROP, "Proposition | None": PROP,
              "str": None, "int": None}
    _word = None        # the keyword of a call form: word[P](slot, ...)
    _nf = 0
    _loose = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._word:
            _FORMS.setdefault(cls._word, []).append(cls)


@dataclass(eq=False)
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


class Var(Term):
    name: str
    _loose = 0


class Bound(Term):
    index: int

    @property
    def _loose(self):
        return self.index + 1


class Star(Term):
    _loose = 0


class ScalarStar(Term):
    value: complex
    _loose = 0


class Sum(Term):
    left: Term
    right: Term
    _word = "sum"


class Prod(Term):
    value: complex
    body: Term
    _word = "prod"


class TopElim(Term):
    scrut: Term
    body: Term
    _word = "top_elim"


class BotElim(Term):
    prop: Proposition
    scrut: Term
    _word = "bot_elim"


class Lam(Term):
    ann: Proposition | None
    abs: Abs


class App(Term):
    fn: Term
    arg: Term


class Pair(Term):
    left: Term
    right: Term
    _word = "pair"


class AndElim1(Term):
    scrut: Term
    abs: Abs
    _word = "and1"


class AndElim2(Term):
    scrut: Term
    abs: Abs
    _word = "and2"


class Inl(Term):
    body: Term
    _word = "inl"


class Inr(Term):
    body: Term
    _word = "inr"


class Inlr2(Term):
    left: Term
    right: Term
    _word = "inlr"


class Inlr3(Term):
    scrut: Term
    left: Abs
    right: Abs
    _word = "inlr"


class Case(Term):
    scrut: Term
    left: Abs
    right: Abs
    _word = "case"


class CaseNd(Term):
    scrut: Term
    left: Abs
    right: Abs
    _word = "case_nd"


class OneElim(Term):
    scrut: Term
    body: Term
    _word = "one_elim"


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


# ---------------------------------------------------------------------------
# Generic traversal

def cell_path(cell) -> tuple:
    """The path tuple of a position cell: the cell of path-child i of a
    node is (i, the node's cell), and the root's is None."""
    path = []
    while cell is not None:
        i, cell = cell
        path.append(i)
    return tuple(reversed(path))


def fold(t: Term, combine):
    """combine(node, values) at t, where values are the results at the
    node's path-children in `_kids` order, by one post-order walk on an
    explicit stack: a node's exit mark waits below its children."""
    stack, done = [t], []
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if type(node) is tuple:  # the exit mark of a node with n children
            node, n = node
            done[-n:] = (combine(node, done[-n:]),)
            continue
        kids = node._kids(node)
        if kids:
            push((node, len(kids)))
            stack += kids[::-1]
        else:
            done.append(combine(node, ()))
    return done[0]


def term_size(t: Term) -> int:
    """The number of nodes of t, its abstractions' bodies standing for
    them, counted on an explicit stack."""
    n, stack = 0, [t]
    pop = stack.pop
    while stack:
        node = pop()
        n += 1
        stack += node._kids(node)
    return n


def free_names(t: Term) -> frozenset:
    """The names of the `Var`s in t."""
    return _free_names_memo({}, t)


_NO_NAMES = frozenset()


def _free_names_memo(free: dict, t: Node) -> frozenset:
    """The free names of t, kept in `free` under the `id` of t and of
    every node below it not yet there, by one post-order walk.  The
    caller holds the nodes while `free` lives, so no id is reused."""
    got = free.get(id(t))
    if got is not None:
        return got
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if type(node) is tuple:  # the exit mark of a node
            node = node[0]
            names = _NO_NAMES
            for kid in node._kids(node):
                got = free[id(kid)]
                if got and got is not names:
                    names = names | got if names else got
            free[id(node)] = names
        elif id(node) in free:
            continue
        elif type(node) is Var:
            free[id(node)] = frozenset((node.name,))
        else:
            push((node,))
            stack += node._kids(node)
    return free[id(t)]


def uses_binder(a: Abs) -> bool:
    """Whether the abstraction actually refers to its bound variable.

    A walk on an explicit stack, each node with the binders passed on
    the way down.  A node whose stored loose-index range is at most that
    depth cannot refer to the binder and is not entered; one whose range
    is exactly one more does.
    """
    stack = [(a.body, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        t, depth = pop()
        r = t._loose
        if r is not None:
            if r <= depth:
                continue
            if r == depth + 1:
                return True
        for kid, bind in zip(t._kids(t), t._binds):
            push((kid, depth + bind))
    return False


# ---------------------------------------------------------------------------
# Substitution on nameless terms

def instantiate(t: Term, args=(), shift: int = 0) -> Term:
    """De Bruijn's parallel substitution args[0] ... args[n-1] . shift.

    The loose index k < n of t becomes args[k], lifted past the binders
    it lands under; every other loose index k becomes k - n + shift.  So
    `instantiate(a.body, (u,))` plugs u in for the bound variable of a,
    and `instantiate(t, (), 1)` moves t under one more binder.

    One walk on an explicit stack of frames, each node with the binders
    passed on the way down.  A subterm whose stored loose-index range is
    at most that depth holds nothing to substitute: it is kept as it is,
    not entered.  A node entered for the first time stores its range on
    the way back, and a node whose children all come back unchanged is
    kept too, so unchanged subterms are shared, not copied.  An argument
    is lifted once per depth it lands at, by the same walk.
    """
    n = len(args)
    if not n and not shift:
        return t
    lifted = {}  # (k, depth) -> args[k] lifted past depth binders
    # a frame [node, depth, kids, new] per node entered: its children
    # and the results of those done; a lift's frame is [None, (the walk
    # to resume), (args[k],), new]
    stack = []
    node, depth = t, 0
    while True:
        r = node._loose
        if r is not None and r <= depth:
            got = node
        elif type(node) is Bound:
            k = node.index - depth
            if k >= n:
                got = Bound(node.index - n + shift)
            elif not depth or args[k]._loose == 0:
                got = args[k]
            elif (k, depth) in lifted:
                got = lifted[k, depth]
            else:
                node = args[k]
                stack.append([None, (args, n, shift, (k, depth)), (node,), []])
                args, n, shift, depth = (), 0, depth, 0
                continue
        else:
            kids = node._kids(node)
            stack.append([node, depth, kids, []])
            depth += node._binds[0]
            node = kids[0]
            continue
        # got is the result of node: hand it to the frames above
        while stack:
            node, depth, kids, new = stack[-1]
            new.append(got)
            i = len(new)
            if i < len(kids):
                depth += node._binds[i]
                node = kids[i]
                break
            stack.pop()
            if node is None:  # the end of a lift: resume the walk
                args, n, shift, key = depth
                lifted[key] = got
                continue
            if node._loose is None:
                r = 0
                for kid, bind in zip(kids, node._binds):
                    if kid._loose - bind > r:
                        r = kid._loose - bind
                node._loose = r
            got = node
            for old, kid in zip(kids, new):
                if old is not kid:
                    got = node._rebuild(node, new)
                    break
        else:
            return got


def alpha_eq(t: Term, u: Term) -> bool:
    """`t == u`.  Only the benchmark's props check (perfbench/workloads.py)
    still calls it; it goes when that check calls `==`."""
    return t == u


# ---------------------------------------------------------------------------
# Reader
#
# One `findall` of a regular expression cuts the text into the list of its
# token texts, and one loop over an explicit stack of frames reads a term
# from them, so neither the token count nor the nesting depth costs Python
# stack.  A token's kind is read from its text.  The parser keeps token
# indices; an index's offset, and from it the line and column, is worked
# out by a rescan with the same pattern only when an error is raised.

# The one group holds a token; a comment matches outside it, and whitespace,
# which no alternative matches, is skipped by the search.  Any other
# character is a token of its own, an unexpected one.  The commonest tokens
# are tried first; no connective or punctuation mark matches where a number
# or a name does, so the order of the two changes no token.
_TOKEN_RE = re.compile(
    r"""
      --[^\n]*
    | ( """ + "|".join(map(re.escape, _CONNECTIVES)) + r"""
      | [()\[\],.:]
      | [+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
      | [A-Za-z_][A-Za-z0-9_]*
      | \S
      )
    """,
    re.VERBOSE,
)

# The kinds of the fixed tokens; "" is end of input.  Any other token is an
# ident if it starts with one of _IDENT_START, else a number.
_FIXED = {"": "eof", **dict.fromkeys("()[],.:", "punct"),
          **dict.fromkeys(_CONNECTIVES, "conn")}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "abcdefghijklmnopqrstuvwxyz_")

_RESERVED = {"star", "lam", *_FORMS, *_PROP_WORDS}


def _split_slot(forms):
    """The first slot at which the classes of one keyword differ in kind,
    which tells them apart: inlr's second, a term in the plain form and a
    binder argument in the binder form.  None for a keyword of one class."""
    if len(forms) > 1:
        kinds = zip(*([kind for _, kind in f._shape] for f in forms))
        return next(i for i, ks in enumerate(kinds) if len(set(ks)) > 1)


_SPLIT = {word: _split_slot(forms) for word, forms in _FORMS.items()}


# The parser looks at most this many tokens past the one it stands on, and
# it never moves past the first end-of-input token.
_LOOKAHEAD = 2


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _kind(tok: str) -> str:
    """The kind of a token, from its text."""
    kind = _FIXED.get(tok)
    if kind is None:
        kind = "ident" if tok[0] in _IDENT_START else "number"
    return kind


def _unexpected(tok: str) -> bool:
    """Whether a token is an unexpected character: one character that is
    no fixed token and starts no ident and no number."""
    return (len(tok) == 1 and tok not in _FIXED and tok not in _IDENT_START
            and not tok.isdecimal())


def _token_matches(text: str):
    """The matches of the tokens of a text, in order, comments left out:
    the rescan that finds a token's offset."""
    return (m for m in _TOKEN_RE.finditer(text) if m.group(1) is not None)


def _position(text: str, offset: int):
    """The line and the column, both counted from 1, of a text offset."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _token_position(text: str, index: int):
    """The line and the column of the token at an index; an end-of-input
    token stands at the end of the text."""
    m = next(itertools.islice(_token_matches(text), index, None), None)
    return _position(text, len(text) if m is None else m.start())


def _tokenize(text: str) -> list:
    """The text of every token, then end-of-input tokens ("") enough for
    any lookahead.

    Raises ParseError at the first unexpected character, found by a
    rescan only when the token texts hold one.
    """
    toks = _TOKEN_RE.findall(text)
    if "--" in text:
        toks = [tok for tok in toks if tok]  # a comment leaves ''
    if any(map(_unexpected, set(toks))):
        m = next(m for m in _token_matches(text) if _unexpected(m.group(1)))
        raise ParseError(f"unexpected character {m.group(1)!r}",
                         *_position(text, m.start()))
    toks += [""] * (1 + _LOOKAHEAD)
    return toks


# Frames of the term reader's stack.  The bottom frame is None.

_PAREN = "("  # an open parenthesis, in a term or a proposition


class _Lam:
    """A lambda whose body is being read."""
    __slots__ = ("ann", "name", "outer")

    def __init__(self, ann):
        self.ann = ann


class _Spine:
    """An application whose next argument is being read."""
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


class _Call:
    """A call form, at token index `at`, reading its slots in _shape order.

    `forms` are the classes its keyword can still name, `split` the slot
    that tells them apart, and `node` the one it names once that is
    settled; `args` are the slots read so far and `sep` the punctuation
    before the next.  While an ABS slot's body is read, `name` is its
    binder.
    """
    __slots__ = ("at", "forms", "split", "node", "args", "sep", "name",
                 "outer")

    def __init__(self, at, forms):
        self.at = at
        self.forms = forms
        self.split = _SPLIT[forms[0]._word]
        self.node = None
        self.args = []
        self.sep = "("
        self.name = None


class _Parser:
    def __init__(self, text: str, calculus: str):
        if calculus not in CALCULI:
            raise ValueError(f"unknown calculus {calculus!r}")
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.calculus = calculus
        # the binders around the reader: how many, and for each name the
        # count at its innermost one
        self.depth = 0
        self.scope: dict[str, int] = {}

    def error(self, message, at):
        raise ParseError(message, *_token_position(self.text, at))

    def expect(self, text):
        tok = self.toks[self.i]
        if tok != text:
            self.error(f"expected {text!r}, found {tok!r}", self.i)
        self.i += 1

    def end(self, made):
        tok = self.toks[self.i]
        if tok:
            self.error(f"trailing input starting at {tok!r}", self.i)
        return made

    def gate(self, node_type, at):
        if node_type not in _TERM_ALLOWED[self.calculus]:
            raise CalculusError(
                f"constructor {node_type.__name__} not in "
                f"{self.calculus} calculus",
                *_token_position(self.text, at))

    # -- propositions --

    def prop(self) -> Proposition:
        """A proposition, read by one loop over an explicit stack.

        The stack holds the open parentheses and, above each, the
        connectives still waiting for their right operands, each with its
        token index and its left operand.  A connective read ends those on
        top that bind tighter; one of the same precedence waits above
        them, so connectives associate to the right.  A connective is
        gated once both its operands are read.
        """
        toks = self.toks
        stack = []
        while True:
            while toks[self.i] == "(":
                stack.append(_PAREN)
                self.i += 1
            made = self.prop_atom()
            while True:
                node = _CONNECTIVES.get(toks[self.i])
                level = 0 if node is None else node._level
                while (stack and stack[-1] is not _PAREN
                       and stack[-1][0]._level > level):
                    cls, at, left = stack.pop()
                    made = cls(left, made)
                    self.gate_prop(made, at)
                if node is not None:
                    stack.append((node, self.i, made))
                    self.i += 1
                    break
                if not stack:
                    return made
                self.expect(")")
                stack.pop()

    def prop_atom(self) -> Proposition:
        """The constant or the atom at the current token."""
        at = self.i
        tok = self.toks[at]
        if _kind(tok) != "ident":
            self.error(f"expected a proposition, found {tok!r}", at)
        self.i += 1
        if tok in _PROP_WORDS:
            made = _PROP_WORDS[tok]()
        elif tok in _RESERVED:
            self.error(f"reserved word {tok!r} is not a proposition", at)
        else:
            made = Atom(tok)
        self.gate_prop(made, at)
        return made

    def gate_prop(self, p, at):
        if not isinstance(p, _PROP_ALLOWED[self.calculus]):
            raise CalculusError(
                f"connective {type(p).__name__} not in {self.calculus} "
                "propositions", *_token_position(self.text, at))

    def bracketed(self) -> Proposition:
        self.expect("[")
        p = self.prop()
        self.expect("]")
        return p

    # -- scalars --

    def number(self, wanted="'number'") -> float:
        tok = self.toks[self.i]
        if tok in _FIXED or tok[0] in _IDENT_START:  # not a number
            self.error(f"expected {wanted}, found {tok!r}", self.i)
        value = float(tok)
        if not math.isfinite(value):
            self.error(f"scalar {tok} is not finite", self.i)
        self.i += 1
        return value

    def scalar(self) -> complex:
        if self.toks[self.i] != "(":
            return complex(self.number("a scalar"), 0.0)
        self.i += 1
        re_part = self.number()
        self.expect(",")
        im_part = self.number()
        self.expect(")")
        return complex(re_part, im_part)

    def scalar_star(self) -> Term:
        at = self.i
        value = self.scalar()
        self.expect(".")
        self.expect("star")
        self.gate(ScalarStar, at)
        return ScalarStar(value)

    # -- binders --

    def binder_name(self) -> str:
        tok = self.toks[self.i]
        if _kind(tok) != "ident":
            self.error(f"expected 'ident', found {tok!r}", self.i)
        if tok in _RESERVED:
            self.error(f"reserved word {tok!r} cannot bind", self.i)
        self.i += 1
        return tok

    def at_binder_arg(self) -> bool:
        tok = self.toks[self.i]
        return (_kind(tok) == "ident" and tok not in _RESERVED
                and self.toks[self.i + 1] == ".")

    def enter(self, frame, name):
        """'.' and then name bound over the term read next; the frame
        keeps the name and the scope entry it shadows, for `leave`."""
        self.expect(".")
        frame.name = name
        frame.outer = self.scope.get(name)
        self.depth += 1
        self.scope[name] = self.depth

    def leave(self, frame):
        self.depth -= 1
        if frame.outer is None:
            del self.scope[frame.name]
        else:
            self.scope[frame.name] = frame.outer

    # -- terms --

    def term(self) -> Term:
        """A term, read on an explicit stack of frames.

        A construct whose reading is under way has a frame: a lambda, a
        parenthesis, a call form or an application spine.  The loop reads
        an atom at a time.  An atom that opens a parenthesis or a call
        form pushes its frame, and a term starts inside it.  A finished
        atom extends the spine on top or heads a new term; a finished
        term closes the lambdas it ends and goes to the frame below.
        """
        toks = self.toks
        stack = [None]
        start = True  # a term starts here, so a lambda may
        while True:
            if start and toks[self.i] == "lam":
                stack.append(self.lam())
                continue
            made = self.atom(stack)
            if made is None:
                start = True
                continue
            while True:
                # made is an atom: an argument of the spine on top, or the
                # head of a term
                top = stack[-1]
                spine = type(top) is _Spine
                if spine:
                    top.fn = App(top.fn, made)
                tok = toks[self.i]
                # an ident, a number or '(' starts the next argument
                if tok not in _FIXED or tok == "(":
                    if not spine:
                        stack.append(_Spine(made))
                    start = False
                    break
                if spine:
                    stack.pop()
                    made = top.fn
                # made is a term
                top = stack[-1]
                while type(top) is _Lam:
                    stack.pop()
                    self.leave(top)
                    made = Lam(top.ann, Abs(top.name, made))
                    top = stack[-1]
                if top is None:
                    return made
                if top is _PAREN:
                    self.expect(")")
                    stack.pop()
                    continue
                if top.name is not None:
                    self.leave(top)
                    made = Abs(top.name, made)
                    top.name = None
                top.args.append(made)
                made = self.slots(top)
                if made is None:
                    start = True
                    break
                stack.pop()

    def lam(self) -> _Lam:
        """'lam x:P.' or 'lam x.', as the frame of the lambda's body."""
        self.gate(Lam, self.i)
        self.i += 1
        name = self.binder_name()
        ann = None
        if self.toks[self.i] == ":":
            self.i += 1
            ann = self.prop()
        frame = _Lam(ann)
        self.enter(frame, name)
        return frame

    def atom(self, stack):
        """The atom at the current token; or None when it opens a
        parenthesis or a call form, whose frame is pushed."""
        at = self.i
        tok = self.toks[at]
        if tok not in _FIXED:
            if tok[0] not in _IDENT_START:  # a number
                return self.scalar_star()
            if tok not in _RESERVED:
                self.i += 1
                level = self.scope.get(tok)
                return Var(tok) if level is None else Bound(self.depth - level)
            if tok == "star":
                self.i += 1
                self.gate(Star, at)
                return Star()
            if tok == "lam":
                self.error("a lambda must be parenthesized here", at)
            self.i += 1
            forms = _FORMS.get(tok)
            if forms is None:  # a proposition constant
                self.expect("(")
                self.error(f"unknown form {tok!r}", at)
            call = _Call(at, forms)
            stack.append(call)
            made = self.slots(call)
            if made is not None:
                stack.pop()
            return made
        if tok == "(":
            # "(re, im) . star" starts like a parenthesized term; a number
            # followed by a comma settles it.
            toks = self.toks
            if _kind(toks[at + 1]) == "number" and toks[at + 2] == ",":
                return self.scalar_star()
            self.i = at + 1
            stack.append(_PAREN)
            return None
        self.error(f"expected a term, found {tok!r}", at)

    def slots(self, call: _Call):
        """Read the call form's slots up to its next TERM or ABS slot and
        return None, the term to read next; or, once its ')' is read, the
        finished node.

        A PROP slot comes as [P] before the parenthesis.  The calculus gate
        runs when the constructor is known, just before its slot is read:
        the first one, or at the split slot, where a binder argument tells
        inlr's binder form from the plain one.
        """
        forms, node, args = call.forms, call.node, call.args
        while node is None or len(args) < len(node._shape):
            i = len(args)
            kind = forms[0]._shape[i][1]
            if kind != PROP:
                self.expect(call.sep)
                call.sep = ","
            if node is None:
                if i == call.split:
                    kind = ABS if self.at_binder_arg() else TERM
                    forms = call.forms = [f for f in forms
                                          if f._shape[i][1] == kind]
                if len(forms) == 1:
                    node = call.node = forms[0]
                    self.gate(node, call.at)
            if kind == TERM:
                return None
            if kind == ABS:
                self.enter(call, self.binder_name())
                return None
            args.append(self.scalar() if kind == SCALAR else self.bracketed())
        self.expect(")")
        return node(*args)


def parse_term(text: str, calculus: str) -> Term:
    """Parse a proof term in the given calculus.

    Raises ParseError on malformed input and CalculusError when a
    constructor or connective does not belong to the calculus.
    """
    p = _Parser(text, calculus)
    return p.end(p.term())


def parse_prop(text: str, calculus: str) -> Proposition:
    p = _Parser(text, calculus)
    return p.end(p.prop())


# ---------------------------------------------------------------------------
# Printing

def format_scalar(a: complex) -> str:
    if a.imag == 0.0:
        return repr(a.real)
    return f"({a.real!r}, {a.imag!r})"


def _name_base(hint: str) -> str:
    """The printable name a binder hint asks for, before clashes."""
    base = hint or "x"
    if base.startswith("?"):
        base = base[1:] or "x"
    base = re.sub(r"[^A-Za-z0-9_]", "", base) or "x"
    if base[0].isdigit():
        base = "x" + base
    return base


def _pick_name(base: str, body, scope, var_names, free) -> str:
    """base, or base with the least number after it, that is not free in
    the binder's body, not in scope and not reserved.

    A name no `Var` of the printed terms has is free nowhere, so the
    body's free names are worked out, into the memo `free`, only for a
    candidate in `var_names`.
    """
    cand = base
    k = 0
    while (cand in scope or cand in _RESERVED
           or cand in var_names and cand in _free_names_memo(free, body)):
        k += 1
        cand = f"{base}{k}"
    return cand


def _leaf_text(node: Node, atomic, names: list):
    """The text of a leaf under the binder names, innermost last; None for
    a node with children."""
    cls = type(node)
    if cls._paths:
        return None
    if cls is Var:
        return node.name
    if cls is Bound:
        return names[-1 - node.index]
    if cls is Star:
        return "star"
    if cls is ScalarStar:
        s = f"{format_scalar(node.value)} . star"
        return f"({s})" if atomic else s
    if cls is Atom:
        return node.name
    if cls is MetaProp:
        return f"?{node.mid}"
    return cls._word  # a proposition constant's


def _scan(terms: tuple):
    """The shared nodes and the `Var` names reachable from terms.

    Returns the `id`s of the nodes, leaves aside, referenced more than
    once, counting parent edges and root slots, and the set of the names
    of the `Var`s.  One pre-order walk on an explicit stack enters each
    distinct node once.
    """
    seen, shared, var_names = set(), set(), set()
    stack = list(terms)
    pop = stack.pop
    while stack:
        node = pop()
        cls = type(node)
        if not cls._paths:  # a leaf, printed in place
            if cls is Var:
                var_names.add(node.name)
        elif id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            stack += node._kids(node)
    return shared, var_names


def print_terms(terms) -> list:
    """The concrete syntax of each term or proposition, as print_term and
    print_prop give it.

    First `_scan` finds, once per distinct node, whether it is shared,
    and the names of all the `Var`s.  A binder's name is chosen without
    its body's free names unless a candidate is one of those; they are
    then worked out once per node for the whole call, so choosing never
    re-walks a body.  Then each root is printed by one walk on an
    explicit stack of tasks: a text fragment to append, a (node, context)
    pair to print, and the markers that enter and leave a binder and that
    close a memoized node.  A term's context is whether it must print as
    an atom; a proposition's, the least precedence level it prints at
    without parentheses.  A leaf prints in place; a term's proposition is
    one more task.  The fragments are joined once per root.

    A node referenced more than once, across all the roots, is joined into
    one string and kept for this call under its identity, the binder
    names in scope (interned, so equal scopes share one id) and its
    context; identity, since `==` ignores the hints the printer reads.
    The roots are held in a tuple for the whole call, so no id is reused
    while it is a key.
    """
    terms = tuple(terms)
    shared, var_names = _scan(terms)
    free = {}         # id of a node -> its free names, once asked for
    memo = {}
    bases = {}        # hint -> its sanitized name base
    names = []        # the binder names in scope, innermost last ...
    scope = {}        # ... each with how many binders in scope use it
    sids = [0]        # the interned id of names, per binder depth
    interned = {}     # (enclosing scope id, name) -> scope id

    def binder(a):
        base = bases.get(a.hint)
        if base is None:
            base = bases[a.hint] = _name_base(a.hint)
        return _pick_name(base, a.body, scope, var_names, free)

    def put(parts, text, node, context):
        """The pending text, after text, of the node in its context.

        A leaf is written into the text; any other node goes on parts,
        behind text, and the text starts afresh.
        """
        leaf = _leaf_text(node, context, names)
        if leaf is not None:
            return text + leaf
        parts += (text, (node, context))
        return ""

    def body_parts(parts, text, name, body):
        """The pending text, after text, of a body under the binder name,
        which a body that is not a leaf reads between the markers."""
        names.append(name)
        leaf = _leaf_text(body, False, names)
        names.pop()
        if leaf is not None:
            return text + leaf
        parts += (text, ("enter", name), (body, False), ("leave", None))
        return ""

    printed = []
    for t in terms:
        leaf = _leaf_text(t, False, names)
        if leaf is not None:
            printed.append(leaf)
            continue
        out = []
        # a root prints bare: as a proposition, False is level 0, below
        # every connective's
        stack = [(t, False)]
        pop, push = stack.pop, stack.append
        while stack:
            task = pop()
            if type(task) is str:
                out.append(task)
                continue
            node, atomic = task
            if type(node) is str:  # a marker: (what, its argument)
                if node == "leave":
                    name = names.pop()
                    sids.pop()
                    n = scope[name]
                    if n == 1:
                        del scope[name]
                    else:
                        scope[name] = n - 1
                elif node == "enter":
                    name = atomic
                    k = (sids[-1], name)
                    sid = interned.get(k)
                    if sid is None:
                        sid = interned[k] = len(interned) + 1
                    names.append(name)
                    sids.append(sid)
                    scope[name] = scope.get(name, 0) + 1
                else:  # "memo": join the node's text and keep it
                    key, start = atomic
                    s = "".join(out[start:])
                    del out[start:]
                    out.append(s)
                    memo[key] = s
                continue
            if shared and id(node) in shared:
                key = (id(node), sids[-1], atomic)
                s = memo.get(key)
                if s is not None:
                    out.append(s)
                    continue
                push(("memo", (key, len(out))))
            # the node's text in order: strings and (node, context) tasks
            parts = []
            cls = type(node)
            if node._word:  # a call form
                text = node._word
                sep = "("
                for field, kind in cls._shape:
                    v = getattr(node, field)
                    if kind == PROP:
                        text = put(parts, text + "[", v, 1) + "]"
                        continue
                    text += sep
                    sep = ", "
                    if kind == TERM:
                        if type(v)._paths:
                            parts += (text, (v, False))
                            text = ""
                        else:
                            text += _leaf_text(v, False, names)
                    elif kind == ABS:
                        name = binder(v)
                        text = body_parts(parts, f"{text}{name}. ", name,
                                          v.body)
                    else:
                        text += format_scalar(v)
                parts.append(text + ")")
            elif cls is Lam:
                a = node.abs
                name = binder(a)
                text = f"{'(' if atomic else ''}lam {name}"
                if node.ann is not None:
                    text = put(parts, text + ":", node.ann, 1)
                text = body_parts(parts, text + ". ", name, a.body)
                if atomic:
                    text += ")"
                if text:
                    parts.append(text)
            elif cls is App:
                # application is left-associative, so a fn-position App
                # needs no parentheses while everything else in atom
                # position does
                fn = node.fn
                text = "(" if atomic else ""
                leaf = _leaf_text(fn, True, names)
                if leaf is None:
                    if text:
                        parts.append(text)
                    parts.append((fn, type(fn) is Lam))
                    text = " "
                else:
                    text += leaf + " "
                text = put(parts, text, node.arg, True)
                if atomic:
                    text += ")"
                if text:
                    parts.append(text)
            elif cls._symbol:  # a connective; all associate to the right
                level = cls._level
                text = "(" if atomic > level else ""
                text = put(parts, text, node.left, level + 1)
                text = put(parts, f"{text} {cls._symbol} ", node.right, level)
                if atomic > level:
                    text += ")"
                if text:
                    parts.append(text)
            else:
                raise TypeError(f"not a printable node: {node!r}")
            if type(parts[0]) is str:  # a leading fragment goes out now
                out.append(parts[0])
                stack += parts[:0:-1]
            else:
                stack += parts[::-1]
        printed.append("".join(out))
    return printed


def print_term(t: Term) -> str:
    """Deterministic concrete syntax; parse_term inverts it up to alpha."""
    return print_terms((t,))[0]


def print_prop(p: Proposition) -> str:
    """Concrete syntax; parse_prop inverts it."""
    return print_terms((p,))[0]
