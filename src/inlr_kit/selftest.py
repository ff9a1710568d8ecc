"""Property suites behind the selftest command and the acceptance tests.

Each suite draws seeded random terms, exercises one family of guarantees
(subject reduction, the introduction property, termination within fuel,
confluence of the deterministic fragments, measure decrease, the vector
homomorphism, rule soundness), and reports one line per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gen
from .cc import RULES_CC, RULES_CC_DET, demo_optimization, explore, pi_term
from .iplus import RULES_IPLUS
from .iplus import is_introduction as is_intro_iplus
from .quantum import (RULES_QUANTUM, RULES_QUANTUM_DET, lex_gt, measure_nu,
                      mu_subst_additivity)
from .quantum import is_introduction as is_intro_quantum
from .qencode import (check_linear_map, compile_matrix, dim, from_vector,
                      to_vector)
from .rewrite import (RuleId, default_ruleset, find_redexes, join_peak,
                      normalize, replay_states, step_at)
from .rng import derive_rng
from .syntax import (App, Atom, Conj, Disj, OPlus, One, Prod, Sum, Var,
                     parse_term, print_term)
from .typecheck import TypingError, infer


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Shared property drivers

def subject_reduction(calculus, samples, seed) -> CheckResult:
    """Every step of every normalization preserves the checked proposition."""
    ruleset = default_ruleset(calculus)
    failures = 0
    steps = 0
    for i in range(samples):
        rng = derive_rng(seed, 0x5B, i)
        ctx, t, goal = gen.random_term_in_context(
            calculus, rng, allow_nd=(calculus == "quantum"))
        trace = normalize(t, ruleset, rng=derive_rng(seed, 0x5C, i))
        for term in replay_states(trace):
            steps += 1
            try:
                infer(calculus, ctx, term, expected=goal)
            except TypingError:
                failures += 1
                break
    return CheckResult(
        f"subject-reduction[{calculus}]", failures == 0,
        f"{samples} terms, {steps} checked states, {failures} failures")


def introduction_counts(calculus, samples, seed, fuel=10 ** 6):
    """(non-introduction count, fuel-exhaustion count) over closed terms."""
    ruleset = RULES_IPLUS if calculus == "iplus" else RULES_QUANTUM_DET
    is_intro = is_intro_iplus if calculus == "iplus" else is_intro_quantum
    non_intro = 0
    fuel_out = 0
    for i in range(samples):
        rng = derive_rng(seed, 0x17, i)
        t, _goal = gen.random_closed_term(calculus, rng)
        trace = normalize(t, ruleset, fuel=fuel)
        if trace.outcome.kind != "normal-form":
            fuel_out += 1
        elif not is_intro(trace.final):
            non_intro += 1
    return non_intro, fuel_out


def introduction_property(calculus, samples, seed) -> CheckResult:
    """Closed well-typed terms normalize to introductions within fuel."""
    non_intro, fuel_out = introduction_counts(calculus, samples, seed)
    return CheckResult(
        f"introduction[{calculus}]", non_intro == 0 and fuel_out == 0,
        f"{samples} closed terms, {non_intro} non-introduction normal "
        f"forms, {fuel_out} fuel exhaustions")


def confluence_peaks(calculus, target_peaks, seed) -> CheckResult:
    """One-step peaks of random well-typed terms all join.

    A term with n redexes contributes n*(n-1)/2 peaks; sums of two
    independently generated proofs of one proposition are used because
    they are reliably redex-rich.  Terms are drawn until target_peaks
    peaks have been joined, or 40 terms per target peak have been.
    """
    ruleset = RULES_IPLUS if calculus == "iplus" else RULES_QUANTUM_DET
    failures = 0
    peaks = 0
    terms = 0
    i = 0
    while peaks < target_peaks and terms < 40 * target_peaks:
        rng = derive_rng(seed, 0xC0F, i)
        i += 1
        if calculus == "iplus":
            ctx, t1, goal = gen.random_term_in_context(calculus, rng)
            t2 = gen._gen_i(goal, ctx, 0, rng, gen._Budget(10), calculus)
        else:
            t1, goal = gen.random_closed_term(calculus, rng)
            t2 = gen._gen_q(goal, [], 0, rng, gen._Budget(10),
                            allow_nd=False)
        t = Sum(t1, t2)
        terms += 1
        n = len(find_redexes(t, ruleset))
        peaks += n * (n - 1) // 2
        if not join_peak(t, ruleset):
            failures += 1
    return CheckResult(
        f"confluence[{calculus}]", failures == 0 and peaks >= target_peaks,
        f"{terms} terms, {peaks} peaks joined, {failures} unjoined")


def lex_decrease_on_traces(samples, seed, deterministic=False,
                           lane=0x1E) -> CheckResult:
    """Every observed quantum root step strictly decreases (mu, nu).

    Inner steps only decrease non-strictly (monotony), so only the pairs
    around position-() steps are measured.  With deterministic=True and
    lane=0x17 this replays exactly the termination suite's sample set.
    """
    ruleset = RULES_QUANTUM_DET if deterministic else RULES_QUANTUM
    failures = 0
    root_steps = 0
    for i in range(samples):
        rng = derive_rng(seed, lane, i)
        t, _goal = gen.random_closed_term("quantum", rng)
        trace = normalize(t, ruleset, rng=None if deterministic
                          else derive_rng(seed, 0x1F, i))
        terms = list(replay_states(trace))
        for s, cur, nxt in zip(trace.steps, terms, terms[1:]):
            if s.pos == ():
                root_steps += 1
                if not lex_gt(cur, nxt):
                    failures += 1
    worked_sum = parse_term("sum(lam x. x, lam x. x)", "quantum")
    worked_lam = parse_term("lam x. sum(x, x)", "quantum")
    worked_pair = (measure_nu(worked_sum) == 3 and measure_nu(worked_lam) == 2
                   and lex_gt(worked_sum, worked_lam))
    return CheckResult(
        "lex-decrease[quantum]", failures == 0 and worked_pair,
        f"{samples} traces, {root_steps} root steps, {failures} failures, "
        f"worked nu pair {'ok' if worked_pair else 'WRONG'}")


def mu_additivity(samples, seed) -> CheckResult:
    """mu((u/x)t) = mu(t) + mu(u) on random linear pairs."""
    failures = 0
    for i in range(samples):
        rng = derive_rng(seed, 0xAD, i)
        a = gen.random_quantum_prop(rng, 1)
        b = gen.random_quantum_prop(rng, 1)
        # t is the body of a binder x : a, one binder deep
        t = gen._gen_q(b, [(0, a)], 1, rng, gen._Budget(12), allow_nd=False)
        u = gen._gen_q(a, [], 0, rng, gen._Budget(12), allow_nd=False)
        if not mu_subst_additivity(t, u):
            failures += 1
    return CheckResult("mu-substitution-additivity", failures == 0,
                       f"{samples} pairs, {failures} failures")


def vector_homomorphism(samples, seed, tol=1e-9) -> CheckResult:
    """sum and prod denote vector addition and scaling, within tol."""
    max_err = 0.0
    for i in range(samples):
        rng = derive_rng(seed, 0xF0, i)
        prop = _vector_prop_of_dim_at_most(rng, 16)
        n = dim(prop)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = complex(rng.standard_normal(), rng.standard_normal())
        ut, vt = from_vector(u, prop), from_vector(v, prop)
        err1 = np.max(np.abs(to_vector(Sum(ut, vt), prop) - (u + v)))
        err2 = np.max(np.abs(to_vector(Prod(a, ut), prop) - a * u))
        max_err = max(max_err, float(err1), float(err2))
    return CheckResult("vector-homomorphism", max_err < tol,
                       f"{samples} samples, max error {max_err:.3g}")


def _vector_prop_of_dim_at_most(rng, limit):
    p = One()
    while dim(p) < limit and rng.random() < 0.75:
        q = One()
        while dim(p) + dim(q) < limit and rng.random() < 0.5:
            q = OPlus(q, One())
        p = OPlus(p, q) if rng.random() < 0.5 else OPlus(q, p)
    return p


def encode_roundtrip(samples, seed) -> CheckResult:
    """from_vector then to_vector is the identity, exactly."""
    failures = 0
    for i in range(samples):
        rng = derive_rng(seed, 0xEC, i)
        prop = _vector_prop_of_dim_at_most(rng, 16)
        n = dim(prop)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = to_vector(from_vector(v, prop), prop)
        if not np.array_equal(got, v.astype(np.complex128)):
            failures += 1
    return CheckResult("encode-roundtrip", failures == 0,
                       f"{samples} vectors, {failures} failures")


def matrix_suite(matrices, vectors_per, seed, tol=1e-9, max_dim=8):
    """(oracle-agreement result, linearity result) for compiled matrices."""
    max_err = 0.0
    linear_err = 0.0
    linear_fail = 0
    for i in range(matrices):
        rng = derive_rng(seed, 0x3A, i)
        a = _vector_prop_of_dim_at_most(rng, max_dim)
        b = _vector_prop_of_dim_at_most(rng, max_dim)
        m = (rng.standard_normal((dim(b), dim(a)))
             + 1j * rng.standard_normal((dim(b), dim(a))))
        t = compile_matrix(m, a, b)
        for j in range(vectors_per):
            u = (rng.standard_normal(dim(a))
                 + 1j * rng.standard_normal(dim(a)))
            got = to_vector(App(t, from_vector(u, a)), b)
            max_err = max(max_err, float(np.max(np.abs(got - m @ u))))
        report = check_linear_map(t, a, b, trials=3, tol=tol,
                                  seed=int(derive_rng(seed, 0x3B, i)
                                           .integers(2 ** 32)))
        linear_err = max(linear_err, report.max_error)
        linear_fail += len(report.failures)
    agree = CheckResult(
        "matrix-oracle-agreement", max_err < tol,
        f"{matrices} matrices x {vectors_per} vectors, max error "
        f"{max_err:.3g}")
    linear = CheckResult(
        "compiled-map-linearity", linear_fail == 0 and linear_err < tol,
        f"{matrices} maps, max error {linear_err:.3g}, "
        f"{linear_fail} failed checks")
    return agree, linear


def matrix_agreement(matrices, vectors_per, seed) -> CheckResult:
    agree, linear = matrix_suite(matrices, vectors_per, seed)
    return CheckResult("matrix-oracle-agreement",
                       agree.ok and linear.ok,
                       f"{agree.detail}; linearity: {linear.detail}")


def cc_rule_soundness(samples, seed) -> CheckResult:
    """Every cc rule preserves the checked proposition on random
    instances."""
    failures = 0
    checked = 0
    per_rule = max(1, -(-samples // 42))
    for number in range(1, 43):
        for i in range(per_rule):
            rng = derive_rng(seed, 0xCC, number, i)
            ctx, t, expected = gen.cc_rule_instance(number, rng)
            try:
                before = infer("cc", ctx, t, expected=expected)
                u = step_at(t, (), RuleId("cc", number), ruleset=RULES_CC)
                after = infer("cc", ctx, u, expected=expected)
                checked += 1
                if before != after:
                    failures += 1
            except TypingError:
                failures += 1
    return CheckResult("cc-rule-soundness", failures == 0,
                       f"{checked} instances over 42 rules, "
                       f"{failures} failures")


def cc_pi_terms() -> CheckResult:
    """The six pi witnesses typecheck at their stated propositions."""
    a1, a2 = Atom("A1"), Atom("A2")
    b1, b2, b3, b4 = Atom("B1"), Atom("B2"), Atom("B3"), Atom("B4")
    ctx = {"t": Disj(a1, a2), "t1": Disj(b1, b2), "t2": Disj(b3, b4)}
    expected = {
        36: Disj(Disj(a1, Conj(a2, b3)), Conj(a2, b4)),
        37: Disj(a2, a1),
        39: Disj(Conj(a2, b3), Disj(a1, Conj(a2, b4))),
        40: Disj(Disj(Conj(a1, b1), a2), Conj(a1, b2)),
        41: Disj(Conj(a1, b1), Disj(Conj(a1, b2), a2)),
        42: Disj(Disj(Conj(a1, b1), Conj(a2, b3)),
                 Disj(Conj(a1, b2), Conj(a2, b4))),
    }
    failures = []
    for number, want in expected.items():
        pi = pi_term(number, Var("t"), Var("t1"), Var("t2"))
        try:
            got = infer("cc", ctx, pi)
        except TypingError as e:
            failures.append(f"{number}: {e}")
            continue
        if got != want:
            failures.append(f"{number}: got {got}")
    return CheckResult("cc-pi-terms", not failures,
                       f"6 witnesses, {len(failures)} failures"
                       + (f" ({failures})" if failures else ""))


def cc_demo() -> CheckResult:
    demo = demo_optimization()
    return CheckResult("cc-optimization-demo", demo.agree,
                       "both routes reach the same program" if demo.agree
                       else "routes disagree")


def cc_enumeration(samples, seed):
    """(enumeration result, cycles result) over deterministic-fragment
    graphs of size-25 terms, cut at 400 nodes: the complete graphs that
    reach more than one normal form, and the graphs, truncated ones too,
    that hold a cycle of reductions.  Both are logged, not asserted
    absent."""
    multi = []
    cycles = []
    for i in range(samples):
        rng = derive_rng(seed, 0xCE, i)
        ctx, t, _ = gen.random_term_in_context("cc", rng, max_size=25)
        graph = explore(t, node_budget=400, ruleset=RULES_CC_DET)
        cycle = graph.shortest_cycle()
        if cycle is not None:
            rules = ", ".join(map(str, cycle[1]))
            cycles.append(f"{print_term(t)} ({rules})")
        if graph.budget_hit:
            continue
        nfs = {graph.terms[i] for i in graph.normal_forms}
        if len(nfs) > 1:
            multi.append(print_term(t))
    detail = f"{samples} graphs, {len(multi)} with multiple normal forms"
    if multi:
        detail += f"; first: {multi[0]}"
    cycle_detail = f"{samples} graphs, {len(cycles)} with a cycle"
    if cycles:
        cycle_detail += f"; first: {cycles[0]}"
    return (CheckResult("cc-enumeration", True, detail),
            CheckResult("cc-cycles", True, cycle_detail))


# ---------------------------------------------------------------------------
# Suites

def suite_iplus(samples, seed):
    return [
        subject_reduction("iplus", samples, seed),
        introduction_property("iplus", samples, seed),
        confluence_peaks("iplus", max(1, samples // 2), seed),
    ]


def suite_quantum(samples, seed):
    return [
        subject_reduction("quantum", samples, seed),
        introduction_property("quantum", samples, seed),
        confluence_peaks("quantum", max(1, samples // 2), seed),
        lex_decrease_on_traces(samples, seed),
        mu_additivity(samples, seed),
    ]


def suite_qencode(samples, seed):
    return [
        encode_roundtrip(samples, seed),
        vector_homomorphism(samples, seed),
        matrix_agreement(max(2, samples // 10), 5, seed),
    ]


def suite_cc(samples, seed):
    return [
        cc_rule_soundness(samples, seed),
        cc_pi_terms(),
        cc_demo(),
        *cc_enumeration(max(2, samples // 10), seed),
    ]


SUITES = {
    "iplus": suite_iplus,
    "quantum": suite_quantum,
    "qencode": suite_qencode,
    "cc": suite_cc,
}
