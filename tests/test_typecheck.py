import json
import os
from dataclasses import dataclass, field

import pytest

from inlr_kit import gen
from inlr_kit import typecheck as tc
from inlr_kit.rng import derive_rng
from inlr_kit.syntax import (CALCULI, Abs, AndElim1, AndElim2, App, Bot,
                             BotElim, Bound, Case, CaseNd, Conj, Disj, Impl,
                             Inl, Inlr2, Inlr3, Inr, Lam, Lollipop, MetaProp,
                             One, OneElim, OPlus, Pair, Prod, ScalarStar,
                             Star, Sum, Top, TopElim, Var, _TERM_ALLOWED,
                             instantiate, parse_prop, parse_term, print_prop,
                             print_term)
from inlr_kit.typecheck import TypingError, infer


def P(s, c="iplus"):
    return parse_prop(s, c)


def T(s, c="iplus"):
    return parse_term(s, c)


# ---------------------------------------------------------------------------
# intuitionistic checker

def test_inlr_types_as_disjunction():
    assert infer("iplus", {}, T("inlr(star, star)")) == P("Top \\/ Top")


def test_case_swap_derivation():
    t = T("lam x:A\\/B. case(x, y. inr(y), z. inl(z))")
    assert infer("iplus", {}, t) == P("(A \\/ B) => (B \\/ A)")


def test_sum_premises_must_match():
    with pytest.raises(TypingError) as exc:
        infer("iplus", {}, T("sum(star, lam x:Top. x)"))
    assert exc.value.kind == "mismatch"


def test_weakening_holds_for_iplus():
    t = T("inlr(star, star)")
    assert infer("iplus", {"extra": P("Q")}, t) == infer("iplus", {}, t)


def test_not_a_function():
    with pytest.raises(TypingError) as exc:
        infer("iplus", {}, T("star star"))
    assert exc.value.kind == "not-a-function"


def test_unbound_variable():
    with pytest.raises(TypingError) as exc:
        infer("iplus", {}, T("nope"))
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
        infer("iplus", {}, T("inl(star)"))
    assert exc.value.kind == "annotation-required"
    assert infer("iplus", {}, T("inl(star)"),
                       expected=P("Top \\/ Bot")) == P("Top \\/ Bot")


# ---------------------------------------------------------------------------
# linear checker

def test_linear_identity():
    assert infer("quantum", {}, T("lam x:One. x", "quantum")) \
        == P("One -o One", "quantum")


def test_scalar_axiom():
    assert infer("quantum", {}, T("2.0 . star", "quantum")) \
        == P("One", "quantum")


def test_linear_unused():
    with pytest.raises(TypingError) as exc:
        infer("quantum", {}, T("lam x:One. 1.0 . star", "quantum"))
    assert exc.value.kind == "linear-unused"
    assert exc.value.names == ("x",)


def test_linear_reused():
    with pytest.raises(TypingError) as exc:
        infer("quantum", {}, T("lam x:One. one_elim(x, x)", "quantum"))
    assert exc.value.kind == "linear-reused"


def test_weakening_fails_for_linear():
    t = T("2.0 . star", "quantum")
    infer("quantum", {}, t)
    with pytest.raises(TypingError):
        infer("quantum", {"leftover": P("One", "quantum")}, t)


def test_additive_sum_shares_context():
    ctx = {"x": P("One", "quantum")}
    assert infer("quantum", ctx, T("sum(x, x)", "quantum")) \
        == P("One", "quantum")
    with pytest.raises(TypingError):
        infer("quantum", ctx, T("sum(x, 1.0 . star)", "quantum"))


def test_multiplicative_split_threads_consumption():
    ctx = {"x": P("One", "quantum"), "y": P("One", "quantum")}
    assert infer("quantum", ctx, T("one_elim(x, y)", "quantum")) \
        == P("One", "quantum")
    with pytest.raises(TypingError):
        infer("quantum", ctx, T("one_elim(x, x)", "quantum"))


def test_case_branches_share_remainder():
    ctx = {"s": P("One (+) One", "quantum"), "k": P("One", "quantum")}
    t = T("case(s, a. one_elim(a, k), b. one_elim(b, k))", "quantum")
    assert infer("quantum", ctx, t) == P("One", "quantum")


# ---------------------------------------------------------------------------
# cc checker

def test_binder_inlr_rule():
    ctx = {"t": P("A \\/ B")}
    t = parse_term("inlr(t, x. x, y. y)", "cc")
    assert infer("cc", ctx, t) == P("A \\/ B")


def test_cc_rejects_sum():
    with pytest.raises(TypingError) as exc:
        infer("cc", {}, parse_term("sum(star, star)", "iplus"))
    assert exc.value.kind == "constructor-outside-calculus"


def test_cc_projection_under_lambda():
    ctx = {"w": P("A /\\ B")}
    t = parse_term("and1(w, x. lam y:C. x)", "cc")
    assert infer("cc", ctx, t) == P("C => A")


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
        assert infer("quantum", {}, Lam(a, Abs("x", t)),
                            expected=Lollipop(a, b)) == Lollipop(a, b)
        assert infer("quantum", {}, instantiate(t, (u,)), expected=b) == b


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
        infer("iplus", {}, T("top_elim(missing, star)"))
    except TypingError as e:
        assert e.render().startswith("0:")
        data = e.to_json()
        assert data["kind"] == "unbound-var"
        assert data["path"] == [0]
    else:
        pytest.fail("expected a typing error")


def test_mismatch_reports_expected_and_found():
    try:
        infer("iplus", {"f": P("Top => Top")}, T("f (lam x:Top. x)"))
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
    kids = t._kids(t)
    if not kids:
        yield pos
    for i, c in enumerate(kids):
        yield from _leaves(c, pos + (i,))


def _replace_at(t, pos, u):
    if not pos:
        return u
    kids = list(t._kids(t))
    kids[pos[0]] = _replace_at(kids[pos[0]], pos[1:], u)
    return t._rebuild(t, kids)


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


# ---------------------------------------------------------------------------
# differential test against the recursive checker
#
# The reference below is the checker as it was before it became one loop
# over an explicit stack: it recurses once per term level and carries a
# path tuple per frame.  The loop must give the same proposition, or the
# same error to the last field, placeholder numbers included.

@dataclass
class _RefEnv:
    types: dict = field(default_factory=dict)    # key -> Proposition
    hints: list = field(default_factory=list)    # level -> printed name
    consumed: set = field(default_factory=set)   # keys used so far


class _RefChecker:
    def __init__(self, mode):
        self.mode = mode
        self.linear = mode == "quantum"
        self.arrow = Lollipop if self.linear else Impl
        self.disj = OPlus if self.linear else Disj
        self.solution = {}
        self.counter = 0
        self.meta_origin = {}

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
                raise TypingError(tc.MISMATCH, path, "circular proposition")
            self.solution[a.mid] = b
            return
        if isinstance(b, MetaProp):
            self.unify(b, a, path)
            return
        if type(a) is type(b) and isinstance(
                a, (Impl, Conj, Disj, Lollipop, OPlus)):
            self.unify(a.left, b.left, path)
            self.unify(a.right, b.right, path)
            return
        raise TypingError(tc.MISMATCH, path, expected=self.zonk(a),
                          found=self.zonk(b))

    def render_name(self, env, key):
        return env.hints[key] if isinstance(key, int) else key

    def use(self, env, key, path):
        if self.linear:
            if key in env.consumed:
                name = self.render_name(env, key)
                raise TypingError(tc.LINEAR_REUSED, path, names=(name,),
                                  detail=f"hypothesis {name} is used twice")
            env.consumed.add(key)
        return env.types[key]

    def under(self, env, a, prop, path, unused_path):
        env.types[len(env.hints)] = prop
        env.hints.append(a.hint or "x")
        b = self.infer(env, a.body, path)
        level = len(env.hints) - 1
        if self.linear and level not in env.consumed:
            name = env.hints[level]
            raise TypingError(tc.LINEAR_UNUSED, unused_path, names=(name,),
                              detail=f"hypothesis {name} is never used")
        del env.types[level]
        env.hints.pop()
        env.consumed.discard(level)
        return b

    def additive(self, env, path, branches, same=True):
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
                tc.LINEAR_UNUSED, path, names=diff,
                detail="branches consume different hypotheses: "
                       + ", ".join(diff))
        env.consumed = first
        return props

    def infer(self, env, t, path):
        if not isinstance(t, _TERM_ALLOWED[self.mode]):
            raise TypingError(
                tc.OUTSIDE, path,
                f"{type(t).__name__} is not a {self.mode} constructor")
        if isinstance(t, Var):
            if t.name not in env.types:
                raise TypingError(tc.UNBOUND, path,
                                  f"unbound variable {t.name}")
            return self.use(env, t.name, path)
        if isinstance(t, Bound):
            level = len(env.hints) - 1 - t.index
            if level < 0:
                raise TypingError(tc.UNBOUND, path, "dangling bound variable")
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
            f = self.resolve(self.infer(env, t.fn, path + (0,)))
            if isinstance(f, MetaProp):
                dom, cod = self.fresh_meta(path), self.fresh_meta(path)
                self.unify(f, self.arrow(dom, cod), path + (0,))
                f = self.arrow(dom, cod)
            if not isinstance(f, self.arrow):
                raise TypingError(tc.NOT_A_FUNCTION, path + (0,),
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
        assert isinstance(t, (Case, CaseNd))
        s = self.infer(env, t.scrut, path + (0,))
        a1, a2 = self.fresh_meta(path), self.fresh_meta(path)
        self.unify(s, self.disj(a1, a2), path + (0,))
        c1, _ = self.additive(env, path, (
            lambda: self.under(env, t.left, a1, path + (1,), path + (1,)),
            lambda: self.under(env, t.right, a2, path + (2,),
                               path + (2,))))
        return c1

    def run(self, ctx, t, expected=None):
        env = _RefEnv(types=dict(ctx))
        prop = self.infer(env, t, ())
        if expected is not None:
            self.unify(prop, expected, ())
        if self.linear:
            unused = [k for k in env.types if k not in env.consumed]
            if unused:
                raise TypingError(tc.LINEAR_UNUSED, (), names=tuple(unused),
                                  detail="hypotheses never used: "
                                         + ", ".join(unused))
        out = self.zonk(prop)
        leftover = self.first_meta(out)
        if leftover is not None:
            raise TypingError(
                tc.ANNOTATION, self.meta_origin.get(leftover.mid, ()),
                "the proposition is not determined by the term; "
                "add an annotation")
        return out

    def first_meta(self, p):
        if isinstance(p, MetaProp):
            return p
        if isinstance(p, (Impl, Conj, Disj, Lollipop, OPlus)):
            return self.first_meta(p.left) or self.first_meta(p.right)
        return None


def _outcome(check, calculus, ctx, t, expected=None):
    """The proposition, or every field of the typing error."""
    try:
        return "ok", check(calculus, ctx, t, expected)
    except TypingError as e:
        return ("error", e.kind, e.path, e.detail, e.expected, e.found,
                e.names, e.to_json(), str(e))


def _reference(calculus, ctx, t, expected=None):
    return _RefChecker(calculus).run(ctx, t, expected)


def _positions(t, pos=(), depth=0):
    """(position, binders above it) of every subterm of t, in preorder."""
    yield pos, depth
    for i, (c, binds) in enumerate(zip(t._kids(t), t._binds)):
        yield from _positions(c, pos + (i,), depth + binds)


# a constructor outside each calculus
_OUTSIDE = {"iplus": ScalarStar(1.0), "quantum": Star(),
            "cc": Inlr2(Star(), Star())}


@pytest.mark.parametrize("calculus", CALCULI)
def test_loop_checker_matches_recursive_reference(calculus):
    # gen terms, checked with and without their proposition, with each
    # subterm in turn swapped for a closed leaf, and with one seeded
    # subterm swapped for a context name, an unknown name, the innermost
    # bound variable, a dangling one and a constructor outside the calculus
    outcomes = set()
    for i in range(150):
        rng = derive_rng(141, CALCULI.index(calculus), i)
        ctx, t, goal = gen.random_term_in_context(calculus, rng)
        sites = list(_positions(t))
        pos, depth = sites[int(rng.integers(len(sites)))]
        named = ctx or {"c": One() if calculus == "quantum" else Top()}
        name = sorted(named)[int(rng.integers(len(named)))]
        unit = ScalarStar(1.0) if calculus == "quantum" else Star()
        cases = [(ctx, t, None), (ctx, t, goal),
                 *((ctx, _replace_at(t, p, unit), goal) for p, _ in sites),
                 (named, _replace_at(t, pos, Var(name)), goal),
                 (ctx, _replace_at(t, pos, Var("nowhere")), None),
                 (ctx, _replace_at(t, pos, Bound(0)), goal),
                 (ctx, _replace_at(t, pos, Bound(depth)), goal),
                 (ctx, _replace_at(t, pos, _OUTSIDE[calculus]), None)]
        for c, u, expected in cases:
            want = _outcome(_reference, calculus, c, u, expected)
            assert _outcome(infer, calculus, c, u, expected) == want, \
                (i, print_term(u))
            outcomes.add(want[1] if want[0] == "error" else "ok")
    assert {"ok", tc.MISMATCH, tc.ANNOTATION, tc.OUTSIDE,
            tc.UNBOUND} <= outcomes
    if calculus == "quantum":
        assert {tc.LINEAR_UNUSED, tc.LINEAR_REUSED} <= outcomes


if __name__ == "__main__":
    # rewrite typing.tsv; review the diff before committing
    with open(_TYPING, "w", encoding="utf-8") as fh:
        for calculus, i, outs in _typing_rows():
            fh.write("\t".join([calculus, i, *_packed(outs)]) + "\n")
