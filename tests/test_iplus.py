import pytest

from inlr_kit import gen
from inlr_kit.iplus import RULES_IPLUS, is_introduction
from inlr_kit.rewrite import RuleId, find_redexes, normalize, step_at
from inlr_kit.rng import derive_rng
from inlr_kit.selftest import introduction_property
from inlr_kit.syntax import Star, Var, parse_term
from inlr_kit.typecheck import infer


def ip(s):
    return parse_term(s, "iplus")


def test_table_is_complete():
    assert [r.rid.number for r in RULES_IPLUS.rules] == list(range(1, 20))


def test_is_introduction_examples():
    assert is_introduction(ip("inlr(star, star)"))
    assert not is_introduction(ip("case(x, y. y, z. z)"))
    assert not is_introduction(Var("x"))


def test_left_linear_no_overlap():
    # no two left-hand sides match one term
    redex_samples = [
        "top_elim(star, star)", "(lam x:Top. x) star",
        "and1(pair(star, star), x. x)", "and2(pair(star, star), x. x)",
        "case(inl(star), x. x, y. y)", "case(inr(star), x. x, y. y)",
        "case(inlr(star, star), x. x, y. y)", "sum(star, star)",
        "sum(lam x:Top. x, lam y:Top. y)",
        "sum(pair(star, star), pair(star, star))",
        "sum(inl(star), inl(star))", "sum(inl(star), inr(star))",
        "sum(inl(star), inlr(star, star))", "sum(inr(star), inl(star))",
        "sum(inr(star), inr(star))", "sum(inr(star), inlr(star, star))",
        "sum(inlr(star, star), inl(star))",
        "sum(inlr(star, star), inr(star))",
        "sum(inlr(star, star), inlr(star, star))",
    ]
    for src in redex_samples:
        t = ip(src)
        matches = [r.rid.number for r in RULES_IPLUS.rules if r.match(t)]
        assert len(matches) == 1, (src, matches)


@pytest.mark.parametrize("number", range(1, 20))
def test_subject_reduction_per_rule(number):
    # one targeted unit test per case of the subject-reduction proof
    for i in range(8):
        rng = derive_rng(2024, number, i)
        ctx, t, expected = gen.iplus_rule_instance(number, rng)
        before = infer("iplus", ctx, t, expected=expected)
        u = step_at(t, (), RuleId("iplus", number))
        after = infer("iplus", ctx, u, expected=expected)
        assert before == after


@pytest.mark.parametrize("number", range(8, 20))
def test_sum_commutation_soundness(number):
    # both sides of each sum commutation typecheck at one proposition
    for i in range(5):
        rng = derive_rng(31, number, i)
        ctx, t, expected = gen.iplus_rule_instance(number, rng)
        u = step_at(t, (), RuleId("iplus", number))
        assert infer("iplus", ctx, t, expected=expected) \
            == infer("iplus", ctx, u, expected=expected)


def test_normalize_sum_of_injections_is_introduction():
    tr = normalize(ip("sum(inl(star), inr(star))"), RULES_IPLUS)
    assert tr.final == ip("inlr(star, star)")
    assert is_introduction(tr.final)


def test_case_on_inl_reduces_to_branch():
    tr = normalize(ip("case(inl(star), x. x, y. y)"), RULES_IPLUS)
    assert tr.final == Star()


def test_introduction_property_run():
    result = introduction_property("iplus", 300, 5)
    assert result.ok
    assert result.detail == ("300 closed terms, 0 non-introduction normal "
                             "forms, 0 fuel exhaustions")


def test_closed_normal_forms_have_no_redex():
    for i in range(100):
        rng = derive_rng(88, i)
        t, _goal = gen.random_closed_term("iplus", rng)
        tr = normalize(t, RULES_IPLUS)
        assert tr.outcome.kind == "normal-form"
        assert find_redexes(tr.final, RULES_IPLUS) == []
