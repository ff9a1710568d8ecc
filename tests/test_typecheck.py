import json
import os

import pytest

from inlr_kit import gen
from inlr_kit.rng import derive_rng
from inlr_kit.syntax import (CALCULI, Abs, Bound, Impl, Lam, Lollipop, One,
                             ScalarStar, Star, Top, Var, instantiate,
                             parse_prop, parse_term, print_prop, print_term,
                             replace_children, subterms)
from inlr_kit.typecheck import (TypingError, infer, infer_cc, infer_iplus,
                                infer_linear)


def P(s, c="iplus"):
    return parse_prop(s, c)


def T(s, c="iplus"):
    return parse_term(s, c)


# ---------------------------------------------------------------------------
# intuitionistic checker

def test_inlr_types_as_disjunction():
    assert infer_iplus({}, T("inlr(star, star)")) == P("Top \\/ Top")


def test_case_swap_derivation():
    t = T("lam x:A\\/B. case(x, y. inr(y), z. inl(z))")
    assert infer_iplus({}, t) == P("(A \\/ B) => (B \\/ A)")


def test_sum_premises_must_match():
    with pytest.raises(TypingError) as exc:
        infer_iplus({}, T("sum(star, lam x:Top. x)"))
    assert exc.value.kind == "mismatch"


def test_weakening_holds_for_iplus():
    t = T("inlr(star, star)")
    assert infer_iplus({"extra": P("Q")}, t) == infer_iplus({}, t)


def test_not_a_function():
    with pytest.raises(TypingError) as exc:
        infer_iplus({}, T("star star"))
    assert exc.value.kind == "not-a-function"


def test_unbound_variable():
    with pytest.raises(TypingError) as exc:
        infer_iplus({}, T("nope"))
    assert exc.value.kind == "unbound-var"


@pytest.mark.parametrize("src,calculus,message,found", [
    ("case(star, x. x, y. y)", "iplus",
     "0: mismatch: expected Top, found ?1 \\/ ?2", "?1 \\/ ?2"),
    ("and1(star, x. x)", "iplus",
     "0: mismatch: expected Top, found ?1 /\\ ?2", "?1 /\\ ?2"),
    ("inl(star) star", "iplus",
     "0: not-a-function: cannot apply a term of type Top \\/ ?1", None),
    ("inlr(star, x. star, y. star)", "cc",
     "0: mismatch: expected Top, found ?1 \\/ ?2", "?1 \\/ ?2"),
], ids=["case", "and1", "apply-inl", "cc-inlr"])
def test_unsolved_placeholder_renders(src, calculus, message, found):
    # a placeholder still open when the error is raised prints as ?<mid>
    with pytest.raises(TypingError) as exc:
        infer(calculus, {}, T(src, calculus))
    assert exc.value.render() == message
    assert exc.value.to_json()["found"] == found


def test_annotation_required_for_bare_inl():
    with pytest.raises(TypingError) as exc:
        infer_iplus({}, T("inl(star)"))
    assert exc.value.kind == "annotation-required"
    assert infer_iplus({}, T("inl(star)"),
                       expected=P("Top \\/ Bot")) == P("Top \\/ Bot")


# ---------------------------------------------------------------------------
# linear checker

def test_linear_identity():
    assert infer_linear({}, T("lam x:One. x", "quantum")) \
        == P("One -o One", "quantum")


def test_scalar_axiom():
    assert infer_linear({}, T("2.0 . star", "quantum")) == P("One", "quantum")


def test_linear_unused():
    with pytest.raises(TypingError) as exc:
        infer_linear({}, T("lam x:One. 1.0 . star", "quantum"))
    assert exc.value.kind == "linear-unused"
    assert exc.value.names == ("x",)


def test_linear_reused():
    with pytest.raises(TypingError) as exc:
        infer_linear({}, T("lam x:One. one_elim(x, x)", "quantum"))
    assert exc.value.kind == "linear-reused"


def test_weakening_fails_for_linear():
    t = T("2.0 . star", "quantum")
    infer_linear({}, t)
    with pytest.raises(TypingError):
        infer_linear({"leftover": P("One", "quantum")}, t)


def test_additive_sum_shares_context():
    ctx = {"x": P("One", "quantum")}
    assert infer_linear(ctx, T("sum(x, x)", "quantum")) == P("One", "quantum")
    with pytest.raises(TypingError):
        infer_linear(ctx, T("sum(x, 1.0 . star)", "quantum"))


def test_multiplicative_split_threads_consumption():
    ctx = {"x": P("One", "quantum"), "y": P("One", "quantum")}
    assert infer_linear(ctx, T("one_elim(x, y)", "quantum")) \
        == P("One", "quantum")
    with pytest.raises(TypingError):
        infer_linear(ctx, T("one_elim(x, x)", "quantum"))


def test_case_branches_share_remainder():
    ctx = {"s": P("One (+) One", "quantum"), "k": P("One", "quantum")}
    t = T("case(s, a. one_elim(a, k), b. one_elim(b, k))", "quantum")
    assert infer_linear(ctx, t) == P("One", "quantum")


# ---------------------------------------------------------------------------
# cc checker

def test_binder_inlr_rule():
    ctx = {"t": P("A \\/ B")}
    t = parse_term("inlr(t, x. x, y. y)", "cc")
    assert infer_cc(ctx, t) == P("A \\/ B")


def test_cc_rejects_sum():
    with pytest.raises(TypingError) as exc:
        infer_cc({}, parse_term("sum(star, star)", "iplus"))
    assert exc.value.kind == "constructor-outside-calculus"


def test_cc_projection_under_lambda():
    ctx = {"w": P("A /\\ B")}
    t = parse_term("and1(w, x. lam y:C. x)", "cc")
    assert infer_cc(ctx, t) == P("C => A")


# ---------------------------------------------------------------------------
# substitution preserves typing

@pytest.mark.parametrize("calculus", ["iplus", "cc"])
def test_substitution_preserves_typing(calculus):
    # a proof of B under x:A composed with a proof of A stays a proof of B;
    # t is the body of the binder x, one binder deep
    for i in range(150):
        rng = derive_rng(66, CALCULI.index(calculus), i)
        a = gen.random_provable_prop(rng)
        b = gen.random_provable_prop(rng, (a,))
        t = gen._gen_i(b, {0: a}, 1, rng, gen._Budget(10), calculus)
        u = gen._gen_i(a, {}, 0, rng, gen._Budget(10), calculus)
        assert infer(calculus, {}, Lam(a, Abs("x", t)),
                     expected=Impl(a, b)) == Impl(a, b)
        assert infer(calculus, {}, instantiate(t, (u,)), expected=b) == b


def test_substitution_preserves_typing_linear():
    for i in range(150):
        rng = derive_rng(67, i)
        a = gen.random_quantum_prop(rng, 1)
        b = gen.random_quantum_prop(rng, 1)
        t = gen._gen_q(b, [(0, a)], 1, rng, gen._Budget(10), allow_nd=False)
        u = gen._gen_q(a, [], 0, rng, gen._Budget(10), allow_nd=False)
        assert infer_linear({}, Lam(a, Abs("x", t)),
                            expected=Lollipop(a, b)) == Lollipop(a, b)
        assert infer_linear({}, instantiate(t, (u,)), expected=b) == b


# ---------------------------------------------------------------------------
# shared behaviour

@pytest.mark.parametrize("calculus", ["iplus", "quantum", "cc"])
def test_determinism_on_alpha_variants(calculus):
    for i in range(100):
        rng = derive_rng(55, CALCULI.index(calculus), i)
        ctx, t, goal = gen.random_term_in_context(
            calculus, rng, allow_nd=(calculus == "quantum"))
        variant = parse_term(print_term(t), calculus)
        assert infer(calculus, ctx, t, expected=goal) \
            == infer(calculus, ctx, variant, expected=goal)


def test_error_rendering_and_json():
    try:
        infer_iplus({}, T("top_elim(missing, star)"))
    except TypingError as e:
        assert e.render().startswith("0:")
        data = e.to_json()
        assert data["kind"] == "unbound-var"
        assert data["path"] == [0]
    else:
        pytest.fail("expected a typing error")


def test_mismatch_reports_expected_and_found():
    try:
        infer_iplus({"f": P("Top => Top")}, T("f (lam x:Top. x)"))
    except TypingError as e:
        data = e.to_json()
        assert data["expected"] == "Top"
        assert data["found"] == "Top => Top"
    else:
        pytest.fail("expected a typing error")


# ---------------------------------------------------------------------------
# pinned typing outcomes

_TYPING = os.path.join(os.path.dirname(__file__), "typing.tsv")


def _leaves(t, pos=()):
    """The positions of t's leaves, in preorder."""
    kids = subterms(t)
    if not kids:
        yield pos
    for i, c in enumerate(kids):
        yield from _leaves(c, pos + (i,))


def _replace_at(t, pos, u):
    if not pos:
        return u
    kids = subterms(t)
    kids[pos[0]] = _replace_at(kids[pos[0]], pos[1:], u)
    return replace_children(t, kids)


def _typing_outcome(calculus, ctx, t, expected=None):
    try:
        return "ok " + print_prop(infer(calculus, ctx, t, expected))
    except TypingError as e:
        return " ".join((e.render(), _compact(e.to_json()),
                         _compact(e.names)))


def _compact(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _typing_rows():
    """(calculus, index, outcomes): a gen term in its context, checked
    with and without its proposition, then with one seeded leaf replaced
    by star, a scalar, Bound(0), a context name and an unknown name."""
    for c, calculus in enumerate(CALCULI):
        for i in range(200):
            rng = derive_rng(121, c, i)
            ctx, t, goal = gen.random_term_in_context(calculus, rng)
            leaves = list(_leaves(t))
            pos = leaves[int(rng.integers(len(leaves)))]
            named = ctx or {"c": One() if calculus == "quantum" else Top()}
            names = sorted(named)
            name = names[int(rng.integers(len(names)))]
            outs = [_typing_outcome(calculus, ctx, t),
                    _typing_outcome(calculus, ctx, t, goal)]
            for leaf in (Star(), ScalarStar(1.0), Bound(0)):
                outs.append(_typing_outcome(calculus, ctx,
                                            _replace_at(t, pos, leaf)))
            outs.append(_typing_outcome(calculus, named,
                                        _replace_at(t, pos, Var(name))))
            outs.append(_typing_outcome(calculus, ctx,
                                        _replace_at(t, pos, Var("nowhere"))))
            yield calculus, str(i), outs


def _packed(outs):
    """The outcomes with a repeat of the previous column written '"'."""
    return [o if k == 0 or o != outs[k - 1] else '"'
            for k, o in enumerate(outs)]


def test_typing_is_pinned():
    # propositions, and for errors the rendering, the JSON and the names,
    # stay as pinned in typing.tsv
    with open(_TYPING, encoding="utf-8") as fh:
        want = [line.rstrip("\n").split("\t") for line in fh]
    got = [[calculus, i, *_packed(outs)]
           for calculus, i, outs in _typing_rows()]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for g, w in zip(got, want):
        assert g == w, g[:2]


if __name__ == "__main__":
    # rewrite typing.tsv; review the diff before committing
    with open(_TYPING, "w", encoding="utf-8") as fh:
        for calculus, i, outs in _typing_rows():
            fh.write("\t".join([calculus, i, *_packed(outs)]) + "\n")
