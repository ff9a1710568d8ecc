import dataclasses
import itertools
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inlr_kit import gen, qencode, selftest, syntax
from inlr_kit.cc import RULES_CC, explore
from inlr_kit.iplus import RULES_IPLUS
from inlr_kit.quantum import run_measure
from inlr_kit.rewrite import is_normal
from inlr_kit.rng import derive_rng
from inlr_kit.syntax import (ABS, CALCULI, PROP, SCALAR, TERM, _CONNECTIVES,
                             _RESERVED, Abs, AndElim1, AndElim2, App, Atom,
                             Bot, BotElim, Bound, CalculusError, Conj, Disj,
                             Impl, Inl, Lam, Lollipop, MetaProp, Node, One,
                             OPlus, Pair, ParseError, Proposition, ScalarStar,
                             Star, Term, Top, TopElim, Var, format_scalar,
                             free_names, instantiate, parse_prop,
                             parse_term, print_prop, print_term, print_terms,
                             term_size, uses_binder)


def ip(s):
    return parse_term(s, "iplus")


def q(s):
    return parse_term(s, "quantum")


def cc(s):
    return parse_term(s, "cc")


# ---------------------------------------------------------------------------
# parse_term / print_term

def test_parse_constructors():
    t = ip("inlr(star, star)")
    assert print_term(t) == "inlr(star, star)"
    t = ip("case(inl(star), x. x, y. y)")
    assert print_term(t) == "case(inl(star), x. x, y. y)"


def test_sum_not_in_cc():
    with pytest.raises(CalculusError):
        parse_term("sum(1.0 . star, 2.0 . star)", "cc")


def test_plain_inlr_not_in_cc():
    with pytest.raises(CalculusError):
        cc("inlr(star, star)")


def test_scalar_syntax():
    assert print_term(q("2.0 . star")) == "2.0 . star"
    assert print_term(q("(0.0, 1.0) . star")) == "(0.0, 1.0) . star"
    assert q("(0.0, 1.0) . star").value == 1j


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        ip("case(inl(star),\n x. ,)")
    assert exc.value.line == 2


def test_comments_ignored():
    assert ip("star -- trailing words\n") == Star()


def test_bot_elim_annotation():
    t = cc("bot_elim[A => B](x)")
    assert print_term(t) == "bot_elim[A => B](x)"


def test_application_associativity():
    t = ip("f x y")
    assert print_term(t) == "f x y"
    u = ip("f (x y)")
    assert print_term(u) == "f (x y)"
    assert t != u


@pytest.mark.parametrize("calculus", ["iplus", "quantum", "cc"])
def test_roundtrip_random_terms(calculus):
    # parse . print is the identity up to alpha on 1000 generated terms, and
    # print . parse the identity on their text, binder names included
    for i in range(1000):
        rng = derive_rng(101, CALCULI.index(calculus), i)
        _ctx, t, _goal = gen.random_term_in_context(calculus, rng)
        text = print_term(t)
        u = parse_term(text, calculus)
        assert u == t, text
        assert print_term(u) == text


def test_deep_nesting_parses():
    # the reader keeps its own stack: depth costs it no Python stack
    depth = 10 ** 5
    t = parse_term("inl(" * depth + "top_elim(star, star)" + ")" * depth,
                   "iplus")
    for _ in range(depth):
        assert isinstance(t, Inl)
        t = t.body
    assert t == TopElim(Star(), Star())


# Text over the token alphabet, with stray characters between the tokens.
_PIECES = sorted(_RESERVED) + sorted(_CONNECTIVES) + list("()[],.:") + [
    "x", "y", "f", "A", "B", "1.0", "-2", "1e999", "0.5e-3", " ", "\n",
    "\t", "-- c\n", "--", "$", "\u03bb", "-", "+", "/", "\\", "'"]


def _outcome_is_sound(text, parse, reprint):
    """A position inside the text or at its end, or a fixed-point reprint."""
    try:
        made = parse(text)
    except (ParseError, CalculusError) as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines), (text, e)
        assert 1 <= e.col <= len(lines[e.line - 1]) + 1, (text, e)
        return
    printed = reprint(made)
    assert reprint(parse(printed)) == printed, text


@st.composite
def _edited_terms(draw):
    """The text of a generated term with a few spans replaced by pieces."""
    calculus = draw(st.sampled_from(CALCULI))
    rng = derive_rng(draw(st.integers(0, 10 ** 6)), 103)
    _ctx, t, _goal = gen.random_term_in_context(calculus, rng)
    text = print_term(t)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[j:]
    return text


@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(_PIECES), max_size=40).map(" ".join),
    _edited_terms()))
@settings(max_examples=400, deadline=None)
def test_reader_fuzz(text):
    for calculus in CALCULI:
        _outcome_is_sound(text, lambda s: parse_term(s, calculus),
                          print_term)
        _outcome_is_sound(text, lambda s: parse_prop(s, calculus),
                          print_prop)


# ---------------------------------------------------------------------------
# the token list and the rescan that gives its positions

# A reference tokenizer written apart from the reader's: one named group
# per kind, and a finditer that yields whitespace too.  The token list and
# the rescan are both held to it.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<conn>=>|/\\|\\/|-o|\(\+\))
    | (?P<punct>[()\[\],.:])
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _reference_tokens(text):
    """(kind, text, offset) of every token, whitespace and comments left
    out and an unexpected character kept as kind 'other'."""
    return [(m.lastgroup, m.group(), m.start())
            for m in _REFERENCE_TOKEN_RE.finditer(text)
            if m.lastgroup not in ("ws", "comment")]


def _line_col(text, offset):
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


# Token fragments, glued with no space between them, so that one may run
# into the next: signs before digits, '--' before 'o', 'e' after a number.
_FRAGMENTS = [
    "x", "y1", "_a", "e", "o", "E5", "lam", "inlr", "star", "One",
    "1", "1.0", "-2", "+3", "1e5", "0.5e-3", "2E+7", "7.", ".5",
    "\u0663", "\u0661.\u0662",
    "-o", "(+)", "=>", "/\\", "\\/", "(", ")", "[", "]", ",", ".", ":",
    "-", "+", "=", "/", "\\", ">", "(+", "-- c", "--o", "---", "--\n",
    " ", "\t", "\r", "\n", "\r\n", "\u00a0", "\u3000",
    "@", "$", "\u00e9", "\u03bb", "'"]


def _random_text(rng, size):
    return "".join(_FRAGMENTS[k] for k in rng.integers(
        0, len(_FRAGMENTS), size))


@pytest.mark.parametrize("seed", range(8))
def test_token_list_matches_its_rescan(seed):
    # the fast list of token texts, the rescan that finds positions on an
    # error and the reference tokenizer agree on every token text and on
    # the line and column of the first unexpected character
    rng = derive_rng(107, seed)
    bad_seen = clean_seen = 0
    for _ in range(400):
        text = _random_text(rng, int(rng.integers(0, 30)))
        ref = _reference_tokens(text)
        rescan = list(syntax._token_matches(text))
        assert [m.group(1) for m in rescan] == [t for _, t, _ in ref], text
        assert [m.start() for m in rescan] == [o for _, _, o in ref], text
        bad = [o for kind, _, o in ref if kind == "other"]
        assert [m.start() for m in rescan
                if syntax._unexpected(m.group(1))] == bad, text
        try:
            toks = syntax._tokenize(text)
        except ParseError as e:
            assert bad, text
            assert (e.line, e.col) == _line_col(text, bad[0]), text
            bad_seen += 1
            continue
        assert not bad, text
        clean_seen += 1
        end = len(toks) - 1 - syntax._LOOKAHEAD
        assert toks[end:] == [""] * (1 + syntax._LOOKAHEAD)
        assert toks[:end] == [t for _, t, _ in ref], text
        assert [syntax._kind(t) for t in toks[:end]] == [
            kind for kind, _, _ in ref], text
        for k in range(end + 1):
            offset = ref[k][2] if k < end else len(text)
            assert (syntax._token_position(text, k)
                    == _line_col(text, offset)), (text, k)
    assert bad_seen > 100 and clean_seen > 100


def test_a_digit_outside_ascii_reads_as_a_number():
    # \d takes any decimal digit, so the reader's kinds do too
    assert q("\u0663 . star") == ScalarStar(3 + 0j)
    assert q("(\u0661.5, -\u0662) . star") == ScalarStar(1.5 - 2j)


def _matvec_term(d):
    rng = derive_rng(108, d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = qencode.qn_prop(d.bit_length() - 1)
    return qencode.compile_matrix(m, p, p)


@pytest.mark.parametrize("d", [8, 16, 32, 64])
def test_compiled_matrices_round_trip(d):
    # the sizes matvec reads: the term back, its node count and its text
    t = _matvec_term(d)
    text = print_term(t)
    u = parse_term(text, "quantum")
    assert u == t
    assert term_size(u) == term_size(t)
    assert print_term(u) == text


def test_a_position_deep_in_a_compiled_matrix():
    # an error on the last line of a large text: its position, recovered by
    # a rescan, is the line and the column of the character
    text = print_term(_matvec_term(64)).replace(
        " . star, ", " . star,\n  ")
    lines = text.split("\n")
    assert len(lines) > 2000
    # an unexpected character, found by the tokenizer's rescan
    k = text.rindex("star")
    bad = text[:k] + "st@r" + text[k + 4:]
    with pytest.raises(ParseError) as e:
        parse_term(bad, "quantum")
    assert (e.value.line, e.value.col) == (len(lines),
                                           lines[-1].rindex("star") + 3)
    assert e.value.message == "unexpected character '@'"
    # a parse error at a token index, found by the parser's rescan
    wrong = text[:k] + "stor" + text[k + 4:]
    with pytest.raises(ParseError) as e:
        parse_term(wrong, "quantum")
    assert (e.value.line, e.value.col) == (len(lines),
                                           lines[-1].rindex("star") + 1)
    assert e.value.message == "expected 'star', found 'stor'"
    # a constructor gated out of the calculus, at the parser's last call
    k = text.rindex("inlr(")
    gated = text[:k] + "pair(" + text[k + 5:]
    with pytest.raises(CalculusError) as e:
        parse_term(gated, "quantum")
    assert (e.value.line, e.value.col) == _line_col(text, k)
    assert e.value.line > 2000


# ---------------------------------------------------------------------------
# alpha equivalence

def test_alpha_eq_examples():
    assert ip("lam x:A. x") == ip("lam y:A. y")
    assert ip("lam x:A. x") != ip("lam x:A. star")
    assert ip("case(z, x. x, y. y)") == ip("case(z, a. a, b. b)")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_alpha_eq_is_equivalence(seed):
    rng = derive_rng(seed, 0)
    _ctx, t, _goal = gen.random_term_in_context("iplus", rng)
    u = parse_term(print_term(t), "iplus")  # alpha-variant via reprint
    assert t == t
    assert (t == u) == (u == t)
    assert t == u


def _chain(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = Inl(t)
    return t


def test_hash_and_eq_on_deep_chains():
    # both walk with an explicit stack: neither recurses per level
    depth = 10 ** 5
    t, u = _chain(depth, Star()), _chain(depth, Star())
    v = _chain(depth, Var("x"))
    assert t == u and t != v  # compared before any hash is stored
    assert hash(t) == hash(u)
    assert hash(t) != hash(v)
    assert hash(v) != hash(_chain(depth, Var("y")))
    assert t == u and t != v  # and again with the stored hashes


def test_hints_stay_out_of_hash_and_eq():
    t = ip("lam x:A. case(z, a. x, b. b)")
    u = ip("lam y:A. case(z, c. y, d. d)")
    assert repr(t) != repr(u)
    assert t == u and hash(t) == hash(u)
    assert Abs("x", Bound(0)) == Abs("y", Bound(0))
    assert hash(Abs("x", Bound(0))) == hash(Abs("y", Bound(0)))
    assert t != ip("lam x:B. case(z, a. x, b. b)")


def test_shared_nodes_hash_like_copies():
    # a node reached along two paths is hashed once, after its children
    def build(shared):
        return Pair(Pair(shared(), Star()), Pair(Star(), Inl(shared())))

    shared = Inl(Pair(Var("y"), Star()))
    t = build(lambda: shared)
    u = build(lambda: Inl(Pair(Var("y"), Star())))
    assert hash(t) == hash(u)
    assert hash(t.left.left) == hash(u.right.right.body)
    assert t == u


def test_the_cache_is_not_a_field():
    t = ip("case(z, a. inl(a), b. b)")
    before = repr(t)
    hash(t)
    assert is_normal(t, RULES_IPLUS)  # the walk marks every node
    assert t._nf & RULES_IPLUS.bit
    assert repr(t) == before
    assert [f.name for f in dataclasses.fields(t)] == ["scrut", "left",
                                                       "right"]
    assert print_term(t) == "case(z, a. inl(a), b. b)"


def test_normal_form_marks_are_shared():
    # a mark is an int, one bit per table; the package's few tables take
    # the low bits, so their marks are small ints that CPython shares
    iplus, cc = RULES_IPLUS.bit, RULES_CC.bit
    assert iplus & cc == 0 and iplus | cc < 256
    t, u, v = ip("inl(star)"), ip("inr(z)"), ip("pair(star, star)")
    assert is_normal(t, RULES_IPLUS) and is_normal(u, RULES_IPLUS)
    assert t._nf == iplus and t._nf is u._nf
    assert is_normal(t, RULES_CC)
    assert t._nf == iplus | cc
    assert u._nf == iplus  # marking t left u's mark as it was
    assert is_normal(v, RULES_CC) and is_normal(v, RULES_IPLUS)
    assert v._nf is t._nf
    assert is_normal(t, RULES_CC)
    assert v._nf is t._nf


def _guarded_setattr(self, name, value):
    """A write to a field the node already has is refused; caches pass."""
    if not name.startswith("_") and name in self.__dict__:
        raise AttributeError(f"{type(self).__name__}.{name} is immutable")
    object.__setattr__(self, name, value)


def test_no_layer_writes_a_node_field(monkeypatch):
    # fields are immutable by contract, not by a frozen __setattr__: the
    # guard stands in for that check while every layer runs under it
    monkeypatch.setattr(Node, "__setattr__", _guarded_setattr)
    monkeypatch.setattr(Abs, "__setattr__", _guarded_setattr)
    with pytest.raises(AttributeError):
        Inl(Star()).body = Star()
    with pytest.raises(AttributeError):
        Abs("x", Bound(0)).body = Star()
    for name, suite in selftest.SUITES.items():
        for result in suite(20, 5):
            assert result.ok, (name, result.line())
    for i in range(30):
        t = gen.random_term_in_context("cc", derive_rng(12, i),
                                       max_size=20)[1]
        explore(t, 100).to_dot()
    hist = run_measure(App(qencode.meas_first(2), qencode.from_vector(
        [1, 2, 3, 4], qencode.qn_prop(2))), shots=1000, seed=5)
    assert sum(b["count"] for b in hist.bins) == 1000
    t = _matvec_term(8)
    assert parse_term(print_term(t), "quantum") == t


def test_replace_children_keeps_an_unchanged_abstraction():
    t = ip("case(z, a. inl(a), b. b)")
    u = t._rebuild(t, [Var("w"), *t._kids(t)[1:]])
    assert u.left is t.left and u.right is t.right
    v = t._rebuild(t, [t.scrut, Star(), t.right.body])
    assert v.left is not t.left and v.left.hint == "a"
    assert v.right is t.right


# every term class and connective with children
_PARENTS = [cls for base in (Term, Proposition)
            for cls in base.__subclasses__()
            if cls.__module__ == "inlr_kit.syntax" and cls._paths]


def _sample(cls):
    """A node of cls: a distinct leaf per child, a hinted abstraction
    per binder and a value in every other field."""
    leaf = Var if issubclass(cls, Term) else Atom
    args = []
    for k, (name, kind) in enumerate(cls._fields):
        args.append(leaf(f"c{k}") if kind == TERM
                    else Abs(f"h{k}", Bound(0)) if kind == ABS
                    else 2.5 - 1j if kind == SCALAR
                    else Impl(Atom("P"), Atom("Q")) if kind == PROP
                    else 3 if cls.__annotations__[name] == "int" else "n")
    return cls(*args)


def test_every_class_with_children_is_sampled():
    names = {cls.__name__ for cls in _PARENTS}
    assert {"Sum", "Prod", "BotElim", "Lam", "Case", "Inlr3", "Impl",
            "OPlus"} <= names
    assert len(_PARENTS) == 21


@pytest.mark.parametrize("cls", _PARENTS, ids=lambda cls: cls.__name__)
def test_replace_children_rebuilds_every_class(cls):
    t = _sample(cls)
    kids = t._kids(t)
    u = t._rebuild(t, kids)
    assert type(u) is cls and u == t and repr(u) == repr(t)
    for name, kind in cls._fields:
        if kind != TERM:  # data fields and unchanged abstractions are kept
            assert getattr(u, name) is getattr(t, name), name
    leaf = Star() if issubclass(cls, Term) else Top()
    for i, (name, kind) in enumerate(cls._paths):
        new = list(kids)
        new[i] = leaf
        v = t._rebuild(t, new)
        assert v._kids(v) == tuple(new) and type(v) is cls
        for other, other_kind in cls._paths:
            if other_kind == ABS and other != name:
                assert getattr(v, other) is getattr(t, other)
        if kind == ABS:  # a changed body: a new abstraction, the old hint
            a, b = getattr(v, name), getattr(t, name)
            assert a is not b and a.hint == b.hint and a.body is leaf


# ---------------------------------------------------------------------------
# substitution: `instantiate(a.body, (u,))` plugs u in for the variable
# bound by a, which the body refers to as its loose index 0

def test_subst_examples():
    assert instantiate(Bound(0), (Star(),)) == Star()
    out = instantiate(ip("lam x:A. lam y:A. x").abs.body, (Var("y"),))
    assert out == ip("lam z:A. y")
    # the bound y is not captured: the printer renames it
    assert print_term(out) == "lam y1:A. y"
    got = instantiate(ip("lam x:A. sum(x, x)").abs.body, (Star(),))
    assert got == ip("sum(star, star)")


def test_subst_lifts_loose_indices():
    # a replacement put under a binder keeps pointing past it
    t = Lam(None, Abs("y", Bound(1)))
    assert instantiate(t, (Bound(0),)) == Lam(None, Abs("y", Bound(1)))
    assert instantiate(t, (Bound(3),)) == Lam(None, Abs("y", Bound(4)))
    got = instantiate(Lam(None, Abs("z", Bound(2))), _pair_args(Bound(0)))
    assert got.abs.body.scrut == Bound(1)


def test_subst_free_variable_bound():
    # FV((u/x)t) is FV(t) plus FV(u) where t uses x, FV(t) where not
    for i in range(300):
        rng = derive_rng(77, i)
        ctx, _t, goal = gen.random_term_in_context("iplus", rng)
        a = gen.random_any_prop(rng, 1)
        t = gen._gen_i(goal, {**ctx, 0: a}, 1, rng, gen._Budget(10), "iplus")
        got = free_names(instantiate(t, (Var("fresh_u"),)))
        uses = uses_binder(Abs("x", t))
        assert got == free_names(t) | ({"fresh_u"} if uses else set())


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_subst_respects_alpha(seed):
    # the same substitution on alpha-equivalent terms, as printed and
    # read back, gives alpha-equivalent results
    rng = derive_rng(seed, 1)
    _ctx, t, _goal = gen.random_term_in_context("iplus", rng)
    t2 = parse_term(print_term(t), "iplus")
    for a, a2 in zip(_abstractions(t), _abstractions(t2), strict=True):
        assert (instantiate(a.body, (Star(),))
                == instantiate(a2.body, (Star(),)))


def _abstractions(t):
    """Every abstraction in t, outermost first."""
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        for name, kind in t._paths:
            child = getattr(t, name)
            if kind == ABS:
                out.append(child)
                child = child.body
            todo.append(child)
    return out


def test_instantiate_shift_and_swap():
    # a shift alone moves the loose indices and keeps the bound ones
    t = Lam(None, Abs("y", App(Bound(0), Bound(1))))
    assert instantiate(t, (), 1) \
        == Lam(None, Abs("y", App(Bound(0), Bound(2))))
    # the two innermost binders swapped, seen from under one more binder
    t = Lam(None, Abs("z", App(App(Bound(1), Bound(2)), Bound(3))))
    assert instantiate(t, (Bound(1), Bound(0)), 2) \
        == Lam(None, Abs("z", App(App(Bound(2), Bound(1)), Bound(3))))
    # subterms without loose indices are shared, not copied
    closed = Pair(Star(), Var("v"))
    assert instantiate(App(closed, Bound(0)), (Star(),)).fn is closed


def test_instantiate_on_a_deep_chain():
    # the walk keeps its path in a list, so depth costs no Python stack;
    # the second call reads the ranges the first one stored
    depth = 10 ** 5
    chain = _chain(depth, Bound(0))
    want = _chain(depth, ScalarStar(1.0))
    for _ in range(2):
        assert instantiate(chain, (ScalarStar(1.0),)) == want
    assert chain._loose == 1
    assert instantiate(chain, (), 1) == _chain(depth, Bound(1))
    closed = _chain(depth, Star())
    assert instantiate(closed, (Star(),)) is closed
    assert instantiate(closed, (Star(),)) is closed


def test_uses_binder_on_a_deep_chain():
    # before and after instantiate stores the range of every node
    depth = 10 ** 5
    for leaf, uses in ((Bound(0), True),
                       (Lam(None, Abs("y", App(Bound(0), Bound(2)))), False)):
        body = _chain(depth, leaf)
        assert uses_binder(Abs("x", body)) == uses
        instantiate(body, (), 1)
        assert uses_binder(Abs("x", body)) == uses


# ---------------------------------------------------------------------------
# pair substitution: (w/<x,y>)t plugs the conjunct projections of w in for
# the hypotheses x (one binder out) and y (innermost) of t

def _pair_args(w):
    ident = Abs("z", Bound(0))
    return AndElim2(w, ident), AndElim1(w, ident)


def test_pair_subst_examples():
    w = Var("w")
    body = cc("lam x:A. lam y:B. pair(x, y)").abs.body.abs.body
    got = instantiate(body, _pair_args(w))
    assert got == cc("pair(and1(w, z. z), and2(w, z. z))")
    assert instantiate(Star(), _pair_args(w)) == Star()
    assert instantiate(Bound(1), _pair_args(w)) == cc("and1(w, z. z)")


def test_pair_subst_is_simultaneous():
    # the loose indices of w itself are not substituted again: w's
    # Bound(1) points past t, not at t's x
    t = Pair(Bound(1), Bound(0))
    got = instantiate(t, _pair_args(Bound(1)))
    assert got == Pair(AndElim1(Bound(1), Abs("z", Bound(0))),
                       AndElim2(Bound(1), Abs("z", Bound(0))))


# ---------------------------------------------------------------------------
# print_terms against the recursive printer it replaced

def _reference_pick_name(hint, avoid):
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


# connective -> (symbol, precedence level); all associate to the right
_REFERENCE_CONNECTIVES = {Impl: ("=>", 1), Lollipop: ("-o", 1),
                          Disj: ("\\/", 2), OPlus: ("(+)", 2),
                          Conj: ("/\\", 3)}
_REFERENCE_CONSTANTS = {Top: "Top", Bot: "Bot", One: "One"}


def _reference_print_prop(p, level=1):
    """print_prop as a recursion: a connective is parenthesized when the
    level of its context is above its own."""
    if type(p) is Atom:
        return p.name
    if type(p) is MetaProp:
        return f"?{p.mid}"
    if type(p) in _REFERENCE_CONSTANTS:
        return _REFERENCE_CONSTANTS[type(p)]
    symbol, own = _REFERENCE_CONNECTIVES[type(p)]
    s = (f"{_reference_print_prop(p.left, own + 1)} {symbol} "
         f"{_reference_print_prop(p.right, own)}")
    return f"({s})" if level > own else s


def _reference_print_term(t):
    """print_term as it was before print_terms: one recursion per node."""
    free = {}  # id(binder body) -> its free names

    def collect(t):
        if isinstance(t, Var):
            return frozenset((t.name,))
        names = frozenset()
        for name, kind in t._paths:
            child = getattr(t, name)
            if kind == ABS:
                child = child.body
                free[id(child)] = got = collect(child)
            else:
                got = collect(child)
            names = names | got
        return names

    collect(t)

    def go(t, stack, atomic):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Bound):
            return stack[-(t.index + 1)]
        if t._word:
            head, args = t._word, []
            for name, kind in t._shape:
                v = getattr(t, name)
                if kind == TERM:
                    args.append(go(v, stack, False))
                elif kind == ABS:
                    args.append(binder(v, stack))
                elif kind == SCALAR:
                    args.append(format_scalar(v))
                else:
                    head += f"[{_reference_print_prop(v)}]"
            return f"{head}({', '.join(args)})"
        if isinstance(t, Star):
            return "star"
        if isinstance(t, ScalarStar):
            s = f"{format_scalar(t.value)} . star"
            return f"({s})" if atomic else s
        if isinstance(t, Lam):
            name = _reference_pick_name(
                t.abs.hint, free[id(t.abs.body)] | set(stack))
            body = go(t.abs.body, stack + [name], False)
            ann = (f":{_reference_print_prop(t.ann)}" if t.ann is not None
                   else "")
            s = f"lam {name}{ann}. {body}"
            return f"({s})" if atomic else s
        if isinstance(t, App):
            fn = go(t.fn, stack, isinstance(t.fn, (Lam, ScalarStar)))
            s = f"{fn} {go(t.arg, stack, True)}"
            return f"({s})" if atomic else s
        raise TypeError(f"not a printable term: {t!r}")

    def binder(a, stack):
        name = _reference_pick_name(a.hint, free[id(a.body)] | set(stack))
        return f"{name}. {go(a.body, stack + [name], False)}"

    return go(t, [], False)


def _prints_like_the_reference(terms):
    want = [_reference_print_term(t) for t in terms]
    assert print_terms(terms) == want
    assert [print_term(t) for t in terms] == want


@pytest.mark.parametrize("calculus", CALCULI)
def test_print_terms_matches_the_reference_on_gen_terms(calculus):
    terms = [gen.random_term_in_context(
        calculus, derive_rng(105, CALCULI.index(calculus), i))[1]
        for i in range(300)]
    _prints_like_the_reference(terms)


def test_print_terms_matches_the_reference_on_reduction_graphs():
    # the graphs of the explore-gen rows of tests/reductions.tsv: every
    # reduct shares its off-path subterms with the term it came from
    for i in range(40):
        _ctx, t, _goal = gen.random_term_in_context(
            "cc", derive_rng(104, i), max_size=30)
        _prints_like_the_reference(explore(t, node_budget=100).terms)


def test_a_var_outside_the_binder_keeps_its_hint():
    # x is a Var of the term, but not free in the binder's body
    t = Pair(Var("x"), Lam(Atom("A"), Abs("x", Star())))
    assert print_term(t) == "pair(x, lam x:A. star)"
    assert print_terms([t, Var("x")]) == ["pair(x, lam x:A. star)", "x"]


def test_a_var_inside_the_binder_forces_a_number():
    t = Lam(Atom("A"), Abs("x", Pair(Bound(0), Var("x"))))
    assert print_term(t) == "lam x1:A. pair(x1, x)"
    # the body's free names are worked out once and read by both binders
    u = Pair(t, Lam(Atom("A"), Abs("x", Pair(Var("x"), Bound(0)))))
    assert print_term(u) \
        == "pair(lam x1:A. pair(x1, x), lam x1:A. pair(x, x1))"


def test_a_shared_node_prints_as_under_each_root():
    # s is printed once per scope and context and reused; under the
    # first root its free y renames the binder around it
    s = Lam(Atom("A"), Abs("x", Pair(Bound(0), Var("y"))))
    roots = [Lam(Atom("B"), Abs("y", App(s, Bound(0)))), Pair(s, s),
             App(Var("f"), s), s]
    printed = print_terms(roots)
    assert printed == [print_term(t) for t in roots]
    assert printed == ["lam y1:B. (lam x:A. pair(x, y)) y1",
                       "pair(lam x:A. pair(x, y), lam x:A. pair(x, y))",
                       "f (lam x:A. pair(x, y))", "lam x:A. pair(x, y)"]


def test_print_prop_matches_the_reference():
    props = []
    for i in range(300):
        props.append(gen.random_any_prop(derive_rng(107, 0, i), 4))
        props.append(gen.random_quantum_prop(derive_rng(107, 1, i), 4))
    a, m0, m7 = Atom("A"), MetaProp(0), MetaProp(7)
    props += [m0, Impl(m0, Conj(m7, a)), Disj(Conj(a, m7), Impl(m0, m0)),
              Lollipop(OPlus(m0, One()), m7)]
    # deep chains, nested to the left and to the right, of one connective
    # and of each pair of connectives
    for outer, inner in itertools.product(_REFERENCE_CONNECTIVES, repeat=2):
        left, right = a, a
        for k in range(300):
            node = outer if k % 2 else inner
            left, right = node(left, a), node(a, right)
        props += [left, right]
    props += [qencode.qn_prop(n) for n in range(9)]  # both sides one node
    want = [_reference_print_prop(p) for p in props]
    assert [print_prop(p) for p in props] == want
    assert print_terms(props) == want


def _balanced_prop(d):
    if d == 1:
        return One()
    return OPlus(_balanced_prop(d // 2), _balanced_prop(d - d // 2))


def test_print_terms_matches_the_reference_on_compiled_matrices():
    terms = []
    for d in range(2, 17):
        rng = derive_rng(106, d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p = _balanced_prop(d)
        terms.append(qencode.compile_matrix(m, p, p))
    _prints_like_the_reference(terms)


def test_a_shared_subterm_prints_by_the_binders_around_it():
    # one object under two binder stacks: under the outer y, its own
    # binder is printed y1
    s = Lam(None, Abs("y", Bound(0)))
    t = Pair(s, Lam(None, Abs("y", Pair(s, Bound(0)))))
    assert print_terms([t, s]) == [
        "pair(lam y. y, lam y. pair(lam y1. y1, y))", "lam y. y"]
    _prints_like_the_reference([t, s])


def test_a_binder_name_avoids_the_free_names_of_its_body():
    t = Lam(None, Abs("x", App(Var("x"), Bound(0))))
    u = Pair(Lam(None, Abs("y", Inl(Inl(Var("y"))))), t)
    assert print_terms([t, u]) == [
        "lam x1. x x1", "pair(lam y1. inl(inl(y)), lam x1. x x1)"]
    _prints_like_the_reference([t, u])


def test_print_terms_reads_hints_not_equality():
    # equal terms with different hints, shared and as roots, in one call
    a, b = Lam(None, Abs("a", Bound(0))), Lam(None, Abs("b", Bound(0)))
    assert a == b
    terms = [a, b, Pair(a, a), Pair(b, b), Pair(a, b)]
    assert print_terms(terms) == [
        "lam a. a", "lam b. b", "pair(lam a. a, lam a. a)",
        "pair(lam b. b, lam b. b)", "pair(lam a. a, lam b. b)"]
    _prints_like_the_reference(terms)


def test_print_terms_on_repeated_roots_and_a_dag():
    t = cc("lam x:A. case(x, a. inl(a), b. inr(lam y:B. b))")
    assert print_terms([t, t]) == [print_term(t)] * 2
    s = Star()
    for _ in range(12):
        s = Pair(s, s)
    _prints_like_the_reference([s, s, s.left])
    assert len(print_term(s)) == len(_reference_print_term(s))


def test_print_term_on_a_deep_chain():
    # the printer keeps its own stack: depth costs it no Python stack
    depth = 10 ** 5
    assert print_term(_chain(depth, Star())) \
        == "inl(" * depth + "star" + ")" * depth
    t = Lam(None, Abs("x", _chain(depth, Bound(0))))
    assert print_terms([t, t]) \
        == ["lam x. " + "inl(" * depth + "x" + ")" * depth] * 2


# ---------------------------------------------------------------------------
# propositions

@pytest.mark.parametrize("text,calculus", [
    ("Top", "iplus"), ("A => B => C", "iplus"), ("(A => B) => C", "iplus"),
    ("A /\\ B \\/ C", "iplus"), ("One (+) One (+) One", "quantum"),
    ("(One -o One) -o One", "quantum"), ("Bot \\/ (P => Q)", "cc"),
])
def test_prop_roundtrip(text, calculus):
    p = parse_prop(text, calculus)
    assert parse_prop(print_prop(p), calculus) == p


def test_print_prop_on_a_deep_proposition():
    # the printer keeps its own stack; the text read back prints the same
    text = "One -o " * 30000 + "One"
    p = parse_prop(text, "quantum")
    assert print_prop(p) == text
    assert print_prop(parse_prop(print_prop(p), "quantum")) == text
    nested = "(" * 30000 + "One -o One" + ") -o One" * 30000
    assert print_prop(parse_prop(nested, "quantum")) == nested


def _values(p):
    return [getattr(p, f.name) for f in dataclasses.fields(p)]


def _ref_prop_eq(p, q):
    """The dataclass-generated `==` that `Node.__eq__` replaced on
    propositions, recursive: the reference."""
    return type(p) is type(q) and all(
        _ref_prop_eq(x, y) if isinstance(x, Proposition) else x == y
        for x, y in zip(_values(p), _values(q)))


def _ref_prop_hash(p):
    """A recursive hash of the fields, as the generated one took, with the
    class added: the generated hash left it out, so Top and Bot, or A => B
    and A /\\ B, collided."""
    return hash((type(p), *(_ref_prop_hash(x) if isinstance(x, Proposition)
                            else x for x in _values(p))))


def _copy(p):
    """An equal proposition that shares no node with p."""
    return type(p)(*(_copy(x) if isinstance(x, Proposition) else x
                     for x in _values(p)))


def _leaf_edits(p):
    """Copies of p, each with one leaf changed."""
    if p._symbol:
        return ([type(p)(x, _copy(p.right)) for x in _leaf_edits(p.left)]
                + [type(p)(_copy(p.left), x) for x in _leaf_edits(p.right)])
    if isinstance(p, Atom):
        return [Atom(p.name + "x"), Top()]
    if isinstance(p, MetaProp):
        return [MetaProp(p.mid + 1), Atom("A")]
    return [Atom("A"), One() if isinstance(p, Top) else Top()]


def _prop_pairs():
    props = []
    for i in range(40):
        rng = derive_rng(83, i)
        props += (gen.random_any_prop(rng, 3), gen.random_quantum_prop(rng, 3),
                  gen.random_provable_prop(rng, depth=3))
    metas = [MetaProp(1), MetaProp(2), Impl(MetaProp(1), Top()),
             Lollipop(One(), MetaProp(3)), Impl(Atom("A"), MetaProp(1))]
    pairs = [(a, b) for a in metas for b in metas]
    pool = props + metas
    for i, p in enumerate(pool):
        pairs += [(p, p), (p, _copy(p)), (p, pool[i - 1])]
        pairs += [(p, e) for e in _leaf_edits(p)]
    return pairs


def test_prop_eq_and_hash_match_the_recursive_reference():
    # gen propositions, copies, pairs that differ in one leaf and
    # placeholders; each pair compared fresh, before any hash is stored,
    # then hashed, then compared again with the stored hashes
    for p, q in _prop_pairs():
        p, q = _copy(p), _copy(q)
        want = _ref_prop_eq(p, q)
        assert (p == q) is want and (p != q) is (not want)
        assert (hash(p) == hash(q)) is want
        assert (_ref_prop_hash(p) == _ref_prop_hash(q)) is want
        assert (p == q) is want and (q == p) is want
        # and as the annotations of terms
        for make in (lambda a: Lam(a, Abs("x", Bound(0))),
                     lambda a: BotElim(a, Var("x"))):
            t, u = make(_copy(p)), make(_copy(q))
            assert (t == u) is want
            assert (hash(t) == hash(u)) is want
            assert (t == u) is want
        assert Lam(None, Abs("x", Bound(0))) != Lam(p, Abs("x", Bound(0)))


def test_every_node_class_has_the_one_eq_and_hash():
    # a class body that defined __eq__ would also get __hash__ = None
    classes, todo = [], [Node]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    assert Proposition in classes and Atom in classes and Lam in classes
    for cls in classes[1:]:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
        assert cls.__eq__ is Node.__eq__ and cls.__hash__ is Node.__hash__


def test_prop_eq_and_hash_on_deep_propositions():
    # both walk with an explicit stack, on propositions as on terms
    depth = 10 ** 5

    def chain(leaf, left):
        p = leaf
        for _ in range(depth):
            p = OPlus(p, One()) if left else Lollipop(One(), p)
        return p

    for left in (False, True):
        p, q, r = chain(One(), left), chain(One(), left), chain(Atom("A"), left)
        assert p == q and p != r  # compared before any hash is stored
        assert hash(p) == hash(q) and hash(p) != hash(r)
        assert p == q and p != r  # and again with the stored hashes
        t, u = Lam(p, Abs("x", Bound(0))), Lam(q, Abs("y", Bound(0)))
        assert t == u and hash(t) == hash(u)
        assert t != Lam(r, Abs("x", Bound(0)))


def test_prop_calculus_gate():
    with pytest.raises(CalculusError):
        parse_prop("A => B", "quantum")
    with pytest.raises(CalculusError):
        parse_prop("One (+) One", "iplus")


def test_term_size():
    assert term_size(ip("sum(star, star)")) == 3
    # the fold keeps its own stack, so a 10^5-deep chain costs no Python
    # stack
    opened, closed = Var("x"), Star()
    for _ in range(10 ** 5):
        opened, closed = Inl(opened), Inl(closed)
    assert term_size(opened) == term_size(closed) == 10 ** 5 + 1
    assert free_names(opened) == {"x"}
    assert free_names(closed) == set()


def _term_size_rec(t):
    """The recursive term_size that `fold` replaced: the reference."""
    return 1 + sum(_term_size_rec(c) for c in t._kids(t))


def _free_names_rec(t):
    """The recursive free_names that `fold` replaced: the reference."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    out = frozenset()
    for c in t._kids(t):
        out |= _free_names_rec(c)
    return out


@pytest.mark.parametrize("calculus", CALCULI)
def test_fold_walks_match_the_recursive_ones(calculus):
    for i in range(200):
        rng = derive_rng(71, CALCULI.index(calculus), i)
        _ctx, t, _goal = gen.random_term_in_context(calculus, rng)
        # a body built under a binder x, one binder deep: it refers to x
        # as a loose Bound
        if calculus == "quantum":
            a = gen.random_quantum_prop(rng, 1)
            b = gen.random_quantum_prop(rng, 1)
            body = gen._gen_q(b, [(0, a)], 1, rng, gen._Budget(12),
                              allow_nd=True)
        else:
            a = gen.random_provable_prop(rng)
            b = gen.random_provable_prop(rng, (a,))
            body = gen._gen_i(b, {0: a}, 1, rng, gen._Budget(12), calculus)
        for u in (t, body):
            assert term_size(u) == _term_size_rec(u)
            assert free_names(u) == _free_names_rec(u)


# ---------------------------------------------------------------------------
# pinned parse outcomes

_PINNED = os.path.join(os.path.dirname(__file__), "parse_errors.tsv")
_WORDS = ["and1", "and2", "bot_elim", "case", "case_nd", "inl", "inlr", "inr",
          "lam", "one_elim", "pair", "prod", "star", "sum", "top_elim",
          "Top", "Bot", "One"]
_ARGS = ["", "(", "()", "(u", "(u)", "(u,", "(u, v", "(u, v)", "(u, v, w)",
         "(star, star)", "(u, x. x)", "(u, x. u x, y. y)",
         "(u, x. (lam x. x) x, y. x)", "(u, x. x, y. y, z. z)",
         "(u, v, y. y)", "(u, x. v,)", "(u, x.)", "(u, star. x)",
         "(1.0, u)", "((0.0, 1.0), 2.0 . star)", "[A](u)", "[A => ](u)",
         "[A /\\ B \\/ C => D](u)", "[(A => B) /\\ ](u)", "[A (+) B](u)",
         "[One (+) One](u)", "[Top] u", " x. x", " x:A => B. x",
         " x:One -o One. x", " x:(One (+) One) -o One. x", "(x. x, u)"]


def _outcome(text, calculus):
    try:
        return "ok " + print_term(parse_term(text, calculus))
    except (ParseError, CalculusError) as e:
        return f"{type(e).__name__} {e.line}:{e.col} {e.message}"


def _pinned_rows(path=_PINNED, decode=str):
    """(input, outcome per calculus); '"' repeats the previous column."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text, *outs = line.rstrip("\n").split("\t")
            for i in range(1, len(outs)):
                if outs[i] == '"':
                    outs[i] = outs[i - 1]
            yield decode(text), outs


def _packed_row(text, encode=str):
    """The row of an input: its outcomes, a repeat of the previous column
    written '"'."""
    outs = [_outcome(text, c) for c in CALCULI]
    return "\t".join([encode(text)] + [
        o if k == 0 or o != outs[k - 1] else '"' for k, o in enumerate(outs)])


def test_parse_errors_are_pinned():
    # every keyword against malformed and well-formed argument lists in the
    # three calculi: exception class, message, line and column (or the
    # printed term) stay as pinned in parse_errors.tsv
    rows = dict(_pinned_rows())
    assert sorted(rows) == sorted(w + a for w in _WORDS for a in _ARGS)
    for text, want in rows.items():
        got = [_outcome(text, c) for c in ("iplus", "quantum", "cc")]
        assert got == want, text


# Multi-line layouts: positions count lines from 1 at each newline and
# columns from 1 at each character, a tab or a comment included.  The
# inputs are stored with their newlines and tabs escaped.
_POSITIONS = os.path.join(os.path.dirname(__file__), "parse_positions.tsv")
_LAYOUTS = [
    "",
    "-- only a comment",
    "-- a comment, then a newline\n",
    "\n\n\t",
    "-- header\nstar",
    "-- header\n\n  inl(\n\tstar\n  )",
    "inl(star -- unclosed\n",
    "inl(star) -- closed",
    "inl(star)\n-- a comment before the end",
    "inl(star)\n\n\n   inr",
    "pair(\n\tstar,\n\t\tstar\n) extra",
    "case(inl(star),\n x. ,)",
    "case(x,\n  y. y,\n  z. lam)",
    "case(x,\n\n\ty. y,\n\tz.\tz)\n",
    "and1(u,\n x.\n x) -- done\n",
    "inlr(u,\n x. x,\n\ty. y)",
    "inlr(u,\n\tv)",
    "one_elim(x,\n-- a comment line\n\n  y z w,\n)",
    "lam x:A =>\n\tB. x",
    "lam x:One -o\n\tOne. x",
    "lam x. lam y.\n x\n\t y",
    "lam x.\n  -- the body\n  x star",
    "bot_elim[A\n=> B](\n  x)",
    "bot_elim[A\n=>](x)",
    "(1.0,\n 2.0) . star",
    "(1.0,\n x) . star",
    "prod(2.0,\n\t1e999 . star)",
    "sum(1.0 . star,\n\t\t2.0 . star) x",
    "f\r\n  x\r\n",
    "\t\tstar\t\t",
    "sum(star,\n\n  star $ star)",
    "lam x:A.\n  x\n  @",
    "\n\n\t#",
    "x\ny\n  \u03bb",
    "inl(\n  inl(\n -- ( unclosed\n  star)\n",
    "top_elim(star,\n\tstar)\n\n-- trailing\n-- comments\n",
    "case_nd(q,\n\ty. one_elim(y, inl(1.0 . star)),\n\tz. z)",
    "one_elim(x,\n  (0.5,\n   -0.5) . star)",
    "prod((1.0,\n 2.0),\n\tx) y\n)",
    "sum(\n  1.0 . star,\n  2.0 .\n  x)",
    "inlr(1.0 . star, -- left\n  2.0 . star) -- right\n\n",
    "sum(star, star) @",
    "lam x:A. x\n  -- ok @\n  @",
    "+",
    "-",
    "=",
    "/",
    "\\",
    "\u00e9",
    "(1.0, -o) . star",
    "(1.0, (+)) . star",
]


def _escape(text):
    return text.encode("unicode_escape").decode("ascii")


def _unescape(field):
    return field.encode("ascii").decode("unicode_escape")


def test_positions_across_lines_are_pinned():
    # class, message, line and column (or the printed term) of inputs laid
    # out over several lines, in the three calculi
    rows = list(_pinned_rows(_POSITIONS, _unescape))
    assert [text for text, _ in rows] == _LAYOUTS
    for text, want in rows:
        got = [_outcome(text, c) for c in CALCULI]
        assert got == want, text


if __name__ == "__main__":
    # rewrite parse_errors.tsv and parse_positions.tsv; review the diff
    # before committing
    with open(_PINNED, "w", encoding="utf-8") as fh:
        for text in (w + a for w in _WORDS for a in _ARGS):
            fh.write(_packed_row(text) + "\n")
    with open(_POSITIONS, "w", encoding="utf-8") as fh:
        for text in _LAYOUTS:
            fh.write(_packed_row(text, _escape) + "\n")
