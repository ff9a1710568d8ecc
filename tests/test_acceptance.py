"""The acceptance gate: one test per criterion, at full size.

Each test prints a single pass/fail line (run with -s or check the
captured output on failure).  Tolerances and sample counts are pinned
here and nowhere else.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from inlr_kit import selftest
from inlr_kit.qencode import from_vector, meas_first, qn_prop, to_vector
from inlr_kit.quantum import STUCK_BIN, run_measure
from inlr_kit.syntax import App, parse_term

SEED = 20260811


def report(criterion, result):
    line = f"[criterion {criterion}] {result.line()}"
    print(line)
    assert result.ok, line
    return result


# 1 -------------------------------------------------------------------------

def test_criterion_1_subject_reduction():
    start = time.monotonic()
    for calculus in ("iplus", "quantum", "cc"):
        result = selftest.subject_reduction(calculus, 1000, SEED)
        report("1", result)
    elapsed = time.monotonic() - start
    print(f"[criterion 1] runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0


# 2 / 3 ----------------------------------------------------------------------

def test_criterion_2_and_3_introduction_and_termination():
    for calculus in ("iplus", "quantum"):
        non_intro, fuel_out = selftest.introduction_counts(
            calculus, 1000, SEED, fuel=10 ** 6)
        intro = selftest.CheckResult(
            f"introduction[{calculus}]", non_intro == 0,
            f"1000 closed terms, {non_intro} non-introduction normal forms")
        term = selftest.CheckResult(
            f"termination[{calculus}]", fuel_out == 0,
            f"1000 closed terms, {fuel_out} fuel exhaustions at 10^6")
        report("2", intro)
        report("3", term)


# 4 -------------------------------------------------------------------------

def test_criterion_4_confluence():
    for calculus in ("iplus", "quantum"):
        result = selftest.confluence_peaks(calculus, 500, SEED)
        report("4", result)


# 5 -------------------------------------------------------------------------

def test_criterion_5_lexicographic_decrease():
    # same sample lane as the termination suite (deterministic fragment),
    # plus the worked measure pair
    result = selftest.lex_decrease_on_traces(1000, SEED, deterministic=True,
                                             lane=0x17)
    report("5", result)


# 6 -------------------------------------------------------------------------

def test_criterion_6_vector_homomorphism():
    result = selftest.vector_homomorphism(200, SEED, tol=1e-9)
    report("6", result)


# 7 / 8 ----------------------------------------------------------------------

def test_criterion_7_and_8_matrix_compilation_and_linearity():
    start = time.monotonic()
    agree, linear = selftest.matrix_suite(50, 20, SEED, tol=1e-9, max_dim=8)
    elapsed = time.monotonic() - start
    report("7", agree)
    print(f"[criterion 7] runtime {elapsed:.1f}s (budget 120s)")
    assert elapsed < 120.0
    report("8", linear)


# 9 -------------------------------------------------------------------------

def _left_frequency(hist):
    freq = 0.0
    for entry in hist.bins:
        if entry["term"].startswith("<"):
            continue
        v = to_vector(parse_term(entry["term"], "quantum"), qn_prop(1))
        if abs(v[0]) > abs(v[1]):
            freq += entry["frequency"]
    return freq


def test_criterion_9_measurement_statistics():
    balanced = App(meas_first(1), from_vector([1, 1], qn_prop(1)))
    hist = run_measure(balanced, shots=10000, seed=SEED)
    freq = _left_frequency(hist)
    ok = abs(freq - 0.5) <= 0.02
    report("9", selftest.CheckResult(
        "measurement[balanced]", ok,
        f"10000 shots, left frequency {freq:.4f} (want 0.5 +- 0.02)"))

    from inlr_kit.qencode import compile_matrix

    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h = compile_matrix(hadamard, qn_prop(1), qn_prop(1))
    image = App(h, from_vector([1, 0], qn_prop(1)))
    hist = run_measure(App(meas_first(1), image), shots=10000, seed=SEED + 1)
    freq = _left_frequency(hist)
    ok = abs(freq - 0.5) <= 0.02
    report("9", selftest.CheckResult(
        "measurement[hadamard-ket0]", ok,
        f"10000 shots, left frequency {freq:.4f} (want 0.5 +- 0.02)"))

    from inlr_kit.cli import main

    zero = App(meas_first(1), from_vector([0, 0], qn_prop(1)))
    hist = run_measure(zero, shots=100, seed=SEED)
    assert hist.bins[0]["term"] == STUCK_BIN
    assert hist.bins[0]["count"] == 100
    import os
    import tempfile

    from inlr_kit.syntax import print_term

    with tempfile.NamedTemporaryFile("w", suffix=".inlr", delete=False) as fh:
        fh.write(print_term(zero))
        path = fh.name
    try:
        with redirect_stdout(io.StringIO()):
            code = main(["measure", path, "--shots", "10", "--seed", "1"])
    finally:
        os.unlink(path)
    report("9", selftest.CheckResult(
        "measurement[zero-norm]", code == 2,
        f"all shots stuck, cli exit code {code} (want 2)"))


# 10 ------------------------------------------------------------------------

def test_criterion_10_cc_soundness():
    report("10", selftest.cc_rule_soundness(300, SEED))
    report("10", selftest.cc_pi_terms())
    report("10", selftest.cc_demo())


# 11 ------------------------------------------------------------------------

def test_criterion_11_cli_golden_suite():
    from test_cli import CASES, g, run_cli

    failures = 0
    for name, argv, want_code in CASES:
        with open(g(name + ".out"), "r", encoding="utf-8") as fh:
            want = fh.read()
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        if not (code1 == code2 == want_code and out1 == out2 == want):
            failures += 1
    report("11", selftest.CheckResult(
        "cli-golden", failures == 0,
        f"{len(CASES)} cases, byte-identical across runs, "
        f"{failures} failures"))
