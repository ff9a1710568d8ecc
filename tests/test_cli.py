"""Golden-file tests for the command line.

Every case pins the full stdout and the exit code; each one is run twice
to confirm byte-identical output under a fixed seed.  Regenerate the
pinned outputs with `python tests/golden/regen.py` after an intentional
change and review the diff.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import inlr_kit
from inlr_kit import gen
from inlr_kit.cli import main
from inlr_kit.rng import derive_rng
from inlr_kit.selftest import SUITES
from inlr_kit.syntax import CALCULI, print_prop, print_term

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")


def g(name):
    return os.path.join(GOLDEN, name)


# (case name, argv, expected exit code)
CASES = [
    ("norm_sum_inj",
     ["norm", g("t_sum_inj.inlr"), "--calculus", "iplus"], 0),
    ("norm_beta_trace",
     ["norm", g("t_beta.inlr"), "--calculus", "iplus", "--trace"], 0),
    ("norm_sum_pairs_trace",
     ["norm", g("t_sum_pairs.inlr"), "--calculus", "iplus", "--trace"], 0),
    ("norm_scalar_sum",
     ["norm", g("t_scalar_sum.inlr"), "--calculus", "quantum"], 0),
    ("norm_cc_commute",
     ["norm", g("t_cc_commute.inlr"), "--calculus", "cc"], 0),
    ("norm_nd_seeded",
     ["norm", g("t_nd_seeded.inlr"), "--calculus", "quantum",
      "--seed", "5", "--trace"], 0),
    ("norm_fuel_out",
     ["norm", g("t_sum_pairs.inlr"), "--calculus", "iplus",
      "--fuel", "1"], 3),
    ("norm_zero_stuck",
     ["norm", g("t_pi1_zero.inlr"), "--calculus", "quantum"], 2),
    ("norm_bot_choice",
     ["norm", g("t_bot_choice.inlr"), "--calculus", "cc"], 0),
    ("norm_cc_enumerate",
     ["norm", g("t_bot_choice.inlr"), "--calculus", "cc",
      "--enumerate"], 0),
    ("check_case_swap",
     ["check", g("t_case_swap.inlr"), "--calculus", "iplus"], 0),
    ("check_quantum_id",
     ["check", g("t_quantum_id.inlr"), "--calculus", "quantum"], 0),
    ("check_cc_inlr",
     ["check", g("t_cc_inlr.inlr"), "--calculus", "cc"], 0),
    ("check_linear_bad",
     ["check", g("t_linear_bad.inlr"), "--calculus", "quantum"], 1),
    ("check_gate",
     ["check", g("t_gate.inlr"), "--calculus", "cc"], 1),
    ("measure_balanced",
     ["measure", g("t_pi1_balanced.inlr"), "--shots", "400",
      "--seed", "7"], 0),
    ("measure_weighted",
     ["measure", g("t_pi1_weighted.inlr"), "--shots", "500",
      "--seed", "8"], 0),
    ("measure_zero",
     ["measure", g("t_pi1_zero.inlr"), "--shots", "20", "--seed", "9"], 2),
    ("compile_hadamard",
     ["compile-matrix", g("hadamard.json"),
      "--from", "One (+) One", "--to", "One (+) One"], 0),
    ("compile_rect",
     ["compile-matrix", g("rect32.json"),
      "--from", "One (+) One", "--to", "One (+) (One (+) One)"], 0),
    ("encode_ket0",
     ["encode", "--vec", g("ket0.json"), "--prop", "One (+) One"], 0),
    ("encode_vec3",
     ["encode", "--vec", g("vec3.json"),
      "--prop", "One (+) (One (+) One)"], 0),
    ("encode_term_to_vec",
     ["encode", "--term", g("t_state3.inlr"),
      "--prop", "One (+) (One (+) One)"], 0),
    ("encode_usage_error",
     ["encode", "--prop", "One"], 4),
    ("demo_opt", ["demo-opt"], 0),
    ("selftest_iplus",
     ["selftest", "--suite", "iplus", "--samples", "15", "--seed", "2"], 0),
    ("selftest_cc",
     ["selftest", "--suite", "cc", "--samples", "42", "--seed", "2"], 0),
    ("norm_missing_file",
     ["norm", g("no_such_file.inlr"), "--calculus", "iplus"], 4),
    ("check_not_utf8",
     ["check", g("t_not_utf8.inlr"), "--calculus", "iplus"], 4),
    ("measure_shots_negative",
     ["measure", g("t_pi1_balanced.inlr"), "--shots", "-3"], 4),
    ("norm_fuel_negative",
     ["norm", g("t_beta.inlr"), "--calculus", "iplus", "--fuel", "-1"], 4),
    ("norm_cc_enumerate_truncated",
     ["norm", g("t_bot_choice.inlr"), "--calculus", "cc",
      "--enumerate", "--fuel", "2"], 3),
    ("measure_nested",
     ["measure", g("t_measure_nested.inlr"), "--shots", "1000",
      "--seed", "3"], 0),
    ("selftest_samples_negative",
     ["selftest", "--suite", "iplus", "--samples", "-2"], 4),
    ("compile_matrix_malformed",
     ["compile-matrix", g("matrix_no_cols.json"),
      "--from", "One", "--to", "One"], 1),
    ("encode_vec_malformed",
     ["encode", "--vec", g("vec_not_pairs.json"), "--prop", "One (+) One"],
     1),
    ("check_placeholder_mismatch",
     ["check", g("t_placeholder_mismatch.inlr"), "--calculus", "iplus"], 1),
    ("compile_matrix_not_vector",
     ["compile-matrix", g("hadamard.json"),
      "--from", "One -o One", "--to", "One (+) One"], 1),
    ("norm_scalar_not_finite",
     ["norm", g("t_scalar_inf.inlr"), "--calculus", "quantum"], 1),
    ("norm_prod_not_finite",
     ["norm", g("t_prod_inf.inlr"), "--calculus", "quantum"], 1),
    ("encode_vec_not_finite",
     ["encode", "--vec", g("vec_inf.json"), "--prop", "One (+) One"], 1),
    ("compile_matrix_not_finite",
     ["compile-matrix", g("matrix_nan.json"), "--from", "One", "--to", "One"],
     1),
    ("norm_prod_overflow",
     ["norm", g("t_prod_overflow.inlr"), "--calculus", "quantum"], 2),
    ("norm_sum_overflow",
     ["norm", g("t_sum_overflow.inlr"), "--calculus", "quantum"], 2),
    ("measure_overflow",
     ["measure", g("t_sum_overflow.inlr"), "--shots", "10"], 2),
    # measurements whose squared norms are too large for a float: a
    # square, a complex modulus, and the sum of two finite squares
    ("norm_nd_square_overflow",
     ["norm", g("t_nd_square_overflow.inlr"), "--calculus", "quantum"], 2),
    ("measure_nd_square_overflow",
     ["measure", g("t_nd_square_overflow.inlr"), "--shots", "1000"], 2),
    ("norm_nd_modulus_overflow",
     ["norm", g("t_nd_modulus_overflow.inlr"), "--calculus", "quantum"], 2),
    ("measure_nd_modulus_overflow",
     ["measure", g("t_nd_modulus_overflow.inlr"), "--shots", "1000"], 2),
    ("norm_nd_norm_sum_overflow",
     ["norm", g("t_nd_norm_sum_overflow.inlr"), "--calculus", "quantum"], 2),
    ("measure_nd_norm_sum_overflow",
     ["measure", g("t_nd_norm_sum_overflow.inlr"), "--shots", "1000"], 2),
    # measurements whose squares underflow: weighed exactly, not stuck
    # (two equal, far apart or summing below a float, and subnormal)
    ("norm_nd_underflow_equal",
     ["norm", g("t_nd_underflow_equal.inlr"), "--calculus", "quantum",
      "--seed", "3", "--trace"], 0),
    ("measure_nd_underflow_equal",
     ["measure", g("t_nd_underflow_equal.inlr"), "--shots", "1000",
      "--seed", "3"], 0),
    ("norm_nd_underflow_ratio",
     ["norm", g("t_nd_underflow_ratio.inlr"), "--calculus", "quantum",
      "--seed", "4", "--trace"], 0),
    ("measure_nd_underflow_ratio",
     ["measure", g("t_nd_underflow_ratio.inlr"), "--shots", "1000",
      "--seed", "4"], 0),
    ("norm_nd_underflow_sum",
     ["norm", g("t_nd_underflow_sum.inlr"), "--calculus", "quantum",
      "--seed", "5", "--trace"], 0),
    ("measure_nd_underflow_sum",
     ["measure", g("t_nd_underflow_sum.inlr"), "--shots", "1000",
      "--seed", "5"], 0),
    ("norm_nd_subnormal_squares",
     ["norm", g("t_nd_subnormal_squares.inlr"), "--calculus", "quantum",
      "--seed", "6", "--trace"], 0),
    ("measure_nd_subnormal_squares",
     ["measure", g("t_nd_subnormal_squares.inlr"), "--shots", "1000",
      "--seed", "6"], 0),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,want_code",
                         CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, want_code):
    with open(g(name + ".out"), "r", encoding="utf-8") as fh:
        want = fh.read()
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == want_code
    assert code2 == want_code
    assert out1 == out2, "output must be byte-identical across runs"
    assert out1 == want


@pytest.mark.parametrize("name,argv", [c[:2] for c in CASES
                                       if c[0].endswith("_not_finite")])
def test_non_finite_scalar_is_one_error_line(name, argv):
    err = io.StringIO()
    with redirect_stderr(err):
        run_cli(argv)
    [line] = err.getvalue().splitlines()
    assert line.startswith("error: ") and "is not finite" in line


@pytest.mark.parametrize("name,argv", [c[:2] for c in CASES
                                       if c[0].startswith("norm_")
                                       and c[0].endswith("_overflow")])
def test_scalar_overflow_is_one_stuck_line(name, argv):
    err = io.StringIO()
    with redirect_stderr(err):
        run_cli(argv)
    assert err.getvalue() == "stuck: scalar-overflow\n"


def _cli_fresh(*argv):
    """The command line on argv, in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(inlr_kit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "inlr_kit.cli", *argv],
                          capture_output=True, text=True, env=env)


def _run_fresh(tmp_path, text, *args):
    """`inlr norm` on a file holding text, in a fresh interpreter."""
    path = tmp_path / "deep.inlr"
    path.write_text(text)
    return _cli_fresh("norm", str(path), *args)


def test_deep_input_normalizes_without_traceback(tmp_path):
    # nesting costs the reader no Python stack: a fresh interpreter runs
    # `inlr norm` on an 8000-deep chain of injections
    depth = 8000
    done = _run_fresh(
        tmp_path, "inl(" * depth + "top_elim(star, star)" + ")" * depth,
        "--calculus", "iplus")
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    assert done.stdout == "inl(" * depth + "star" + ")" * depth + "\n"


def test_deep_input_enumerates_without_traceback(tmp_path):
    # rules 1 and 13 give equal reducts, so exploring the chain hashes and
    # compares two 8000-deep terms
    depth = 8000
    done = _run_fresh(
        tmp_path, "inl(" * depth + "top_elim(star, star)" + ")" * depth,
        "--calculus", "cc", "--enumerate")
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    assert "inl(" * depth + "star" + ")" * depth in done.stdout


def test_deep_input_prints_without_traceback(tmp_path):
    # the printer keeps its own stack too: a 10^5-deep chain is parsed,
    # normalized and printed, and its reduction graph printed as DOT
    depth = 10 ** 5
    text = "inl(" * depth + "top_elim(star, star)" + ")" * depth
    done = _run_fresh(tmp_path, text, "--calculus", "cc")
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    assert done.stdout == "inl(" * depth + "star" + ")" * depth + "\n"
    done = _run_fresh(tmp_path, text, "--calculus", "cc", "--enumerate")
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    assert "inl(" * depth + "star" + ")" * depth in done.stdout


def test_deep_input_checks_without_traceback(tmp_path):
    # the checker walks terms and propositions on explicit stacks: a
    # 10^5-deep chain, a 30 000-deep annotation and a 20 000-deep chain
    # under a binder are checked in fresh interpreters
    def check(text, calculus):
        path = tmp_path / "deep.inlr"
        path.write_text(text)
        done = _cli_fresh("check", str(path), "--calculus", calculus)
        assert "Traceback" not in done.stderr
        return done

    depth = 10 ** 5
    done = check("inl(" * depth + "top_elim(star, star)" + ")" * depth, "cc")
    assert done.returncode == 1
    assert json.loads(done.stdout)["kind"] == "annotation-required"
    ann = "One -o " * 30000 + "One"
    done = check(f"lam x:{ann}. x", "quantum")
    assert done.returncode == 0
    assert done.stdout == f"({ann}) -o {ann}\n"
    depth = 20000
    done = check("lam x:Top. " + "inl(" * depth + "x" + ")" * depth, "iplus")
    assert done.returncode == 1
    # the leftmost placeholder is the innermost inl's
    assert done.stderr.startswith(
        "0" + ".0" * (depth - 1) + ": annotation-required")
    # unifying two 30 000-deep annotations walks the pair, node by node
    a = f"({ann})"
    done = check(f"(lam f:({a} -o {a}). f) (lam x:{a}. x)", "quantum")
    assert done.returncode == 0
    assert done.stdout == f"({ann}) -o {ann}\n"


def test_deep_vector_proposition_encodes_without_traceback(tmp_path):
    # the vector proposition walks keep their own stacks: a 15 000-deep
    # right-nested One (+) ... (+) One, in fresh interpreters (an argument
    # tops out near 16 000 levels, at the length limit of one argument)
    n = 15000
    prop = "One (+) " * (n - 1) + "One"
    vec = "inlr(1.0 . star, " * (n - 1) + "1.0 . star" + ")" * (n - 1)
    ones = json.dumps([[1.0, 0.0]] * n)
    (tmp_path / "v.json").write_text(ones)
    (tmp_path / "t.inlr").write_text(vec)
    (tmp_path / "m.json").write_text(json.dumps(
        {"rows": n, "cols": 1, "entries": [[1.0, 0.0]] * n}))
    for argv, want in [
            (["encode", "--vec", str(tmp_path / "v.json"), "--prop", prop],
             vec),
            (["encode", "--term", str(tmp_path / "t.inlr"), "--prop", prop],
             ones),
            (["compile-matrix", str(tmp_path / "m.json"), "--from", "One",
              "--to", prop], f"lam x:One. one_elim(x, {vec})")]:
        done = _cli_fresh(*argv)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stdout) == (0, want + "\n")


def test_the_recursion_limit_is_left_alone(tmp_path):
    # importing the package and running the command line change no
    # interpreter setting
    path = tmp_path / "t.inlr"
    path.write_text("inl(" * 50 + "star" + ")" * 50)
    src = os.path.dirname(os.path.dirname(inlr_kit.__file__))
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import inlr_kit.cli\n"
        "for calculus in ('iplus', 'cc'):\n"
        f"    inlr_kit.cli.main(['norm', {str(path)!r}, '--calculus',"
        " calculus])\n"
        "print(before, sys.getrecursionlimit())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    before, after = done.stdout.split()[-2:]
    assert before == after


def test_deep_parentheses_in_a_proposition(tmp_path):
    # the proposition reader keeps its parentheses on a stack: 5000 of
    # them read as the proposition inside them, in --from and in an
    # annotation alike
    deep = "(" * 5000 + "One (+) One" + ")" * 5000
    matrix = g("hadamard.json")
    plain = _cli_fresh("compile-matrix", matrix, "--from", "One (+) One",
                       "--to", "One (+) One")
    done = _cli_fresh("compile-matrix", matrix, "--from", deep,
                      "--to", "One (+) One")
    assert plain.returncode == 0 and plain.stdout.startswith("lam x:")
    assert (done.returncode, done.stdout, done.stderr) \
        == (plain.returncode, plain.stdout, plain.stderr)
    (tmp_path / "plain.inlr").write_text("lam x:One. x")
    (tmp_path / "deep.inlr").write_text(
        "lam x:" + "(" * 5000 + "One" + ")" * 5000 + ". x")
    plain = _cli_fresh("check", str(tmp_path / "plain.inlr"),
                       "--calculus", "quantum")
    done = _cli_fresh("check", str(tmp_path / "deep.inlr"),
                      "--calculus", "quantum")
    assert plain.returncode == 0 and plain.stdout == "One -o One\n"
    assert (done.returncode, done.stdout, done.stderr) \
        == (plain.returncode, plain.stdout, plain.stderr)


def test_at_least_twenty_cases():
    assert len(CASES) >= 20


def _run_cli_both(argv):
    """(exit code, stdout, stderr) of the command line on argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_measure_stats_is_one_stderr_line():
    argv = ["measure", g("t_measure_nested.inlr"), "--shots", "1000",
            "--seed", "3"]
    with open(g("measure_nested.out"), "r", encoding="utf-8") as fh:
        want = fh.read()
    code, out, err = _run_cli_both(argv + ["--stats"])
    assert (code, out) == (0, want)
    [line] = err.splitlines()
    assert json.loads(line) == {"shots": 1000, "runs": 7, "leaves_hit": 3,
                                "max_draws": 2, "fuel_mass": 0.0,
                                "exact_weights": True}
    assert _run_cli_both(argv)[2] == ""


@pytest.mark.parametrize("golden, extra, code, stats", [
    ("norm_cc_enumerate", [], 0,
     {"nodes": 3, "edges": 2, "normal_forms": 2, "truncated": False,
      "shortest_cycle": None}),
    ("norm_cc_enumerate_truncated", ["--fuel", "2"], 3,
     {"nodes": 2, "edges": 1, "normal_forms": 1, "truncated": True,
      "shortest_cycle": None}),
], ids=["complete", "truncated"])
def test_enumerate_stats_is_one_stderr_line(golden, extra, code, stats):
    argv = ["norm", g("t_bot_choice.inlr"), "--calculus", "cc",
            "--enumerate"] + extra
    with open(g(golden + ".out"), "r", encoding="utf-8") as fh:
        want = fh.read()
    plain = _run_cli_both(argv)
    got = _run_cli_both(argv + ["--stats"])
    assert (got[0], got[1]) == (plain[0], plain[1]) == (code, want)
    assert got[2].startswith(plain[2])
    [line] = got[2][len(plain[2]):].splitlines()
    assert json.loads(line) == stats
    assert line == json.dumps(stats, sort_keys=True)


def test_stats_without_enumerate_is_a_usage_error():
    code, out, err = _run_cli_both(["norm", g("t_bot_choice.inlr"),
                                    "--calculus", "cc", "--stats"])
    assert (code, out) == (4, "")
    assert err == "error: --stats only applies with --enumerate\n"


def test_measure_many_shots():
    # the shots are walked in chunks of quantum.CHUNK; more shots than
    # three chunks are counted in full
    code, out = run_cli(["measure", g("t_pi1_balanced.inlr"),
                         "--shots", "200000", "--seed", "4"])
    assert code == 0
    assert sum(b["count"] for b in json.loads(out)) == 200000


def test_enumerate_reports_a_cycle(tmp_path):
    path = tmp_path / "cycle.inlr"
    path.write_text(
        "case(case(inl(star), x. inr(x), y. inl(y)), a. star, b. star)")
    code, _out, err = _run_cli_both(["norm", str(path), "--calculus", "cc",
                                     "--enumerate", "--fuel", "200"])
    assert code == 3
    assert err == ("cycle: n0 -cc:37-> n3 -cc:7-> n0\n"
                   "truncated: node budget 200 reached\n")
    code, _out, err = _run_cli_both(["norm", str(path), "--calculus", "cc",
                                     "--enumerate", "--fuel", "200",
                                     "--stats"])
    assert code == 3
    *_, line = err.splitlines()
    assert json.loads(line) == {"nodes": 200, "edges": 595,
                                "normal_forms": 1, "truncated": True,
                                "shortest_cycle": 2}
    code, _out, err = _run_cli_both(["norm", g("t_bot_choice.inlr"),
                                     "--calculus", "cc", "--enumerate"])
    assert (code, err) == (0, "")


def test_a_path_with_a_nul_byte_is_a_usage_error():
    # only a caller of main can pass one: a command line cannot hold it
    code, out, err = _run_cli_both(["check", "a\x00b", "--calculus", "cc"])
    assert (code, out) == (4, "")
    assert err == "error: cannot read 'a\\x00b': embedded null byte\n"


@pytest.mark.parametrize("prop", ["One", "One (+) One"])
def test_shape_mismatch_prints_the_proposition(tmp_path, prop):
    path = tmp_path / "nd.inlr"
    path.write_text("case_nd(inlr(1.0 . star, 1.0 . star), x. x, y. y)")
    code, out, err = _run_cli_both(["encode", "--term", str(path),
                                    "--prop", prop])
    assert (code, out) == (1, "")
    assert err == (f"error: shape mismatch against {prop}: "
                   "case_nd(inlr(1.0 . star, 1.0 . star), x. x, y. y)\n")


# words of the term, proposition and JSON syntax, so that drawn inputs
# get past the tokenizer as well as stop in it
_WORDS = ["lam", "x", "y", "star", "sum", "prod", "inl", "inr", "inlr",
          "case", "case_nd", "one_elim", "top_elim", "bot_elim", "pair",
          "and1", "and2", "One", "Top", "Bot", "A", "-o", "(+)", "=>",
          "/\\", "\\/", "(", ")", "[", "]", ",", ".", ":", "1.0", "-2.5",
          "1e999", "0", "--", "{", "}", '"rows"', '"cols"', '"entries"',
          "?", "\n"]


@st.composite
def _printed(draw, kind):
    """A printed seeded `gen` term of calculus kind, or quantum
    proposition for kind "prop", or a prefix of one: text that gets past
    the reader to the checkers and the engine."""
    rng = derive_rng(draw(st.integers(0, 2 ** 32)), 0xF2)
    if kind == "prop":
        text = print_prop(gen.random_quantum_prop(rng))
    else:
        text = print_term(gen.random_term_in_context(kind, rng,
                                                     max_size=12)[1])
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text[:200]


_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(_WORDS), max_size=60).map(
        lambda words: " ".join(words)[:200]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), calculus=st.sampled_from(CALCULI),
       command=st.integers(0, 6), shots=st.integers(1, 50),
       fuel=st.integers(0, 500), seed=st.integers(0, 2 ** 32))
def test_shallow_input_never_raises(tmp_path_factory, data, calculus,
                                    command, shots, fuel, seed):
    # short text as the input file and as a proposition, into every
    # subcommand that reads them: a documented exit code, no raise
    kind = "quantum" if command in (3, 4) else calculus
    text = data.draw(st.one_of(_TEXT, _printed(kind)), label="text")
    prop = data.draw(st.one_of(_TEXT, _printed("prop")), label="prop")
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_text(text, encoding="utf-8")
    f = str(path)
    argv = [
        ["check", f, "--calculus", calculus],
        ["norm", f, "--calculus", calculus, "--fuel", str(fuel),
         "--seed", str(seed)],
        ["norm", f, "--calculus", calculus, "--enumerate",
         "--fuel", str(fuel)],
        ["measure", f, "--shots", str(shots), "--seed", str(seed),
         "--fuel", str(fuel)],
        ["encode", "--term", f, "--prop", prop],
        ["encode", "--vec", f, "--prop", prop],
        ["compile-matrix", f, "--from", prop, "--to", prop],
    ][command]
    code, _out, _err = _run_cli_both(argv)
    assert code in (0, 1, 2, 3, 4)



_COMMANDS = ["check", "norm", "measure", "compile-matrix", "encode",
             "demo-opt", "selftest"]
# small numbers only, so that a drawn --shots, --fuel or --samples keeps
# the run short
_NUMBERS = ["0", "1", "2", "7", "-1"]
_PROPS = ["One", "One (+) One", "(One (+) One) (+) One", "One -o One",
          "Top"]
_SWITCHES = ["--trace", "--enumerate", "--stats", "--help", "--"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_arbitrary_arguments_never_raise(tmp_path_factory, data):
    # arbitrary bytes as the input file, and an argument list of a
    # subcommand, then flags with their values or junk, switches, the
    # file and junk words, in any order: a documented exit code, no raise
    content = data.draw(st.one_of(st.binary(max_size=200),
                                  _TEXT.map(str.encode)), label="file")
    path = tmp_path_factory.getbasetemp() / "fuzz-arguments"
    path.write_bytes(content)
    file, junk = str(path), st.text(max_size=12)
    takes = {"--calculus": CALCULI, "--fuel": _NUMBERS, "--seed": _NUMBERS,
             "--shots": _NUMBERS, "--samples": _NUMBERS,
             "--suite": sorted(SUITES), "--from": _PROPS, "--to": _PROPS,
             "--prop": _PROPS, "--vec": [file], "--term": [file]}
    piece = st.one_of(
        st.sampled_from(sorted(takes)).flatmap(lambda flag: st.tuples(
            st.just(flag), st.one_of(st.sampled_from(takes[flag]), junk))),
        st.tuples(st.sampled_from(_SWITCHES)),
        st.tuples(st.one_of(st.just(file), junk)))
    argv = [data.draw(st.one_of(st.sampled_from(_COMMANDS), junk),
                      label="command")]
    if argv[0] in _COMMANDS and data.draw(st.booleans(), label="required"):
        # what the subcommand requires, so that more runs get past the
        # argument parser
        calculus, prop, suite = (data.draw(st.sampled_from(values))
                                 for values in (CALCULI, _PROPS, takes["--suite"]))
        argv += {"check": [file, "--calculus", calculus],
                 "norm": [file, "--calculus", calculus],
                 "measure": [file],
                 "compile-matrix": [file, "--from", prop, "--to", prop],
                 "encode": ["--prop", prop,
                            data.draw(st.sampled_from(["--vec", "--term"])),
                            file],
                 "demo-opt": [],
                 "selftest": ["--suite", suite]}[argv[0]]
    argv += (w for p in data.draw(st.lists(piece, max_size=6), label="pieces")
             for w in p)
    code, _out, _err = _run_cli_both(argv)
    assert code in (0, 1, 2, 3, 4)
