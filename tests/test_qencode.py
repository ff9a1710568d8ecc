import hashlib
import json

import numpy as np
import pytest

from inlr_kit.qencode import (EncodeError, NotVectorProp, boolone, boolzero,
                              check_linear_map, compile_matrix, delta_qn,
                              dim, dump_matrix_json, dump_vector_json,
                              from_vector, load_matrix_json,
                              load_vector_json, meas_first, meas_state,
                              norm_sq, qn_prop, to_vector, zero_term)
from inlr_kit.quantum import run_measure
from inlr_kit.rewrite import RuleId, step_at
from inlr_kit.rng import derive_rng
from inlr_kit.selftest import _vector_prop_of_dim_at_most
from inlr_kit.syntax import (App, Bound, CaseNd, Inl, Inr, One, OneElim,
                             OPlus, Var, free_names, parse_prop, parse_term,
                             print_term)
from inlr_kit.typecheck import infer


def q(s):
    return parse_term(s, "quantum")


def qp(s):
    return parse_prop(s, "quantum")


# ---------------------------------------------------------------------------
# dimensions

def test_dim_examples():
    assert dim(qp("One")) == 1
    assert dim(qp("(One (+) One) (+) (One (+) One)")) == 4
    assert dim(qp("One (+) (One (+) One)")) == 3
    assert dim(qn_prop(3)) == 8


def test_dim_rejects_non_vector_props():
    with pytest.raises(NotVectorProp):
        dim(qp("One -o One"))


def test_not_vector_prop_is_one_encode_error():
    # dim, to_vector and norm_sq raise one class, naming the first
    # sub-proposition out of place in concrete syntax
    t = q("lam x:One. x")
    for p in (qp("One -o One"), qp("One (+) (One -o One)")):
        for call in (lambda: dim(p), lambda: to_vector(t, p),
                     lambda: norm_sq(t, p)):
            with pytest.raises(NotVectorProp) as exc:
                call()
            assert isinstance(exc.value, EncodeError)
            assert str(exc.value) == "not a vector proposition: One -o One"


# ---------------------------------------------------------------------------
# to_vector / from_vector

def test_to_vector_examples():
    v = to_vector(q("inlr(1.0 . star, 0.0 . star)"), qn_prop(1))
    assert np.array_equal(v, [1, 0])
    v = to_vector(q("inl(1.0 . star)"), qp("One (+) One"))
    assert np.array_equal(v, [1, 0])
    v = to_vector(q("inlr(2.0 . star, inlr(3.0 . star, 4.0 . star))"),
                  qp("One (+) (One (+) One)"))
    assert np.array_equal(v, [2, 3, 4])


def test_to_vector_normalizes_first():
    v = to_vector(q("sum(inl(1.0 . star), inr(2.0 . star))"),
                  qp("One (+) One"))
    assert np.array_equal(v, [1, 2])


def test_from_vector_examples():
    assert from_vector([1, 0], qn_prop(1)) == q("inlr(1.0 . star, 0.0 . star)")
    assert from_vector([complex(2.5)], qp("One")) == q("2.5 . star")


def test_from_vector_dimension_mismatch():
    with pytest.raises(EncodeError):
        from_vector([1, 2, 3], qp("One (+) One"))


def test_from_vector_output_is_inlr_only_and_irreducible():
    for i in range(50):
        rng = derive_rng(17, i)
        prop = _vector_prop_of_dim_at_most(rng, 16)
        v = rng.standard_normal(dim(prop)) + 1j * rng.standard_normal(dim(prop))
        t = from_vector(v, prop)
        text = print_term(t)
        assert "inl(" not in text and "inr(" not in text
        from inlr_kit.rewrite import find_redexes
        from inlr_kit.quantum import RULES_QUANTUM

        assert find_redexes(t, RULES_QUANTUM) == []


def test_roundtrip_random_vectors():
    for i in range(200):
        rng = derive_rng(18, i)
        prop = _vector_prop_of_dim_at_most(rng, 16)
        v = (rng.standard_normal(dim(prop))
             + 1j * rng.standard_normal(dim(prop)))
        assert np.array_equal(to_vector(from_vector(v, prop), prop),
                              v.astype(np.complex128))


# ---------------------------------------------------------------------------
# compile_matrix

def test_compile_one_by_one():
    t = compile_matrix([[2.0]], qp("One"), qp("One"))
    out = to_vector(App(t, from_vector([3.0], qp("One"))), qp("One"))
    assert np.array_equal(out, [6.0])


def test_compile_swap_matrix():
    b = qp("One (+) One")
    t = compile_matrix([[0, 1], [1, 0]], b, b)
    out = to_vector(App(t, from_vector([1, 0], b)), b)
    assert np.array_equal(out, [0, 1])


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_compile_hadamard():
    b = qp("One (+) One")
    t = compile_matrix(HADAMARD, b, b)
    out = to_vector(App(t, from_vector([1, 0], b)), b)
    assert np.max(np.abs(out - np.array([1, 1]) / np.sqrt(2))) < 1e-9
    # applying it twice gives the identity
    out2 = to_vector(App(t, from_vector(out, b)), b)
    assert np.max(np.abs(out2 - [1, 0])) < 1e-9


def test_compiled_term_typechecks():
    a, b = qp("One (+) One"), qp("One (+) (One (+) One)")
    m = np.arange(6).reshape(3, 2).astype(complex)
    t = compile_matrix(m, a, b)
    from inlr_kit.syntax import Lollipop

    assert infer("quantum", {}, t) == Lollipop(a, b)


def test_compile_rejects_bad_shape():
    with pytest.raises(EncodeError):
        compile_matrix([[1, 2]], qp("One"), qp("One"))


def test_compile_agrees_on_basis_vectors():
    # the column test and the random-vector test are independent checks
    rng = derive_rng(41, 0)
    a = qp("One (+) (One (+) One)")
    b = qp("(One (+) One) (+) One")
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = compile_matrix(m, a, b)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        out = to_vector(App(t, from_vector(e, a)), b)
        assert np.max(np.abs(out - m[:, k])) < 1e-9


def test_left_nested_vector_proposition():
    # the walks keep a running leaf index or offset, so a 20 000-leaf
    # left-nested proposition costs linear time and no Python stack
    n = 20000
    p = One()
    for _ in range(n - 1):
        p = OPlus(p, One())
    assert dim(p) == n
    v = np.arange(n) + 1j
    t = from_vector(v, p)
    assert np.array_equal(to_vector(t, p), v)
    assert norm_sq(t, p) == pytest.approx(np.sum(np.abs(v) ** 2))
    # an inl or an inr skips the other side's leaves
    assert np.array_equal(to_vector(Inl(t.left), p), np.append(v[:-1], 0))
    assert np.array_equal(to_vector(Inr(t.right), p),
                          np.append(np.zeros(n - 1), v[-1]))
    # one column: lam x:One. one_elim(x, <the column at p>)
    m = compile_matrix(v.reshape(n, 1), One(), p)
    assert m.ann == One() and m.abs.body.body == t


# ---------------------------------------------------------------------------
# pinned builds

def _builds():
    """(name, thunk) for the pinned encoder builds."""
    for n in (0, 1, 2, 3, 4):
        d = 2 ** n
        rng = derive_rng(122, d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        yield f"compile-{d}", \
            lambda m=m, n=n: compile_matrix(m, qn_prop(n), qn_prop(n))
    rng = derive_rng(122, 0)
    m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    yield "compile-2x4", lambda: compile_matrix(m, qn_prop(2), qn_prop(1))
    for n in (1, 2, 3):
        yield f"meas-first-{n}", lambda n=n: meas_first(n)
        yield f"meas-state-{n}", lambda n=n: meas_state(n)
    for n in (0, 1, 2):
        yield f"delta-{n}", lambda n=n: delta_qn(n, boolzero())
        yield f"delta-{n}-s", lambda n=n: delta_qn(n, boolone(), var="s")


_PINNED_BUILDS = {
    "compile-1":
        "9f3489deea930cba6f6f1ac125781e895eaed4632ea921f8a7408558a132aa03",
    "compile-2":
        "6945102cb6c0d969a46e640ce95049a1d643c43297b0b4d622a97719e2c8b07b",
    "compile-4":
        "6e7efad8f335ae7c3575a53f3373091aa0537bc25e1c3726c855d397b2ba0cfa",
    "compile-8":
        "17ddede4704479d758c49ba94f06c6108042d723c0d78dabd23274ba8a342814",
    "compile-16":
        "fc7879b483413381522157536596e6c85d24c2bc06af5801ff707192a8635e69",
    "compile-2x4":
        "969c7ae4ec9731152ced813a314e1a8dabd2b50694cbb3454e01bebbf4ea15c5",
    "meas-first-1":
        "db060379aad19825c02c2f73917187c10be397fe26225ad1fb5bef7a6709be77",
    "meas-state-1":
        "b3324ad76c04a2736488b7c2cfd8115b2b8a165396e16ec593f4dd0445219791",
    "meas-first-2":
        "743fb9cb19562821a450b81f6b80b70b167f262ed1d1f3f7775149df8d09c82e",
    "meas-state-2":
        "e222c77a5656e23336d93f36ba5c4e650e5713b25366eb08b1b2c598041762d3",
    "meas-first-3":
        "4630a85532dbde51abea87c5b2671a437890f98ee92286a234884d43427991f5",
    "meas-state-3":
        "da518df9c110b389ff4b97580bf5787b9cc674323dca14725e4ca0f1dfa66b41",
    "delta-0":
        "282ea599673feb6fe60a69ade0bf9d76d9325629646eef6979666a6b74af42b5",
    "delta-0-s":
        "8c03dd2d891d89004f50ebb6ca28f1a610749e54230e9b5e46f9cccc645e3024",
    "delta-1":
        "520f9a8fcd396722de45ebe74fc6413a120ac76304ca439d8b70fc0165e05151",
    "delta-1-s":
        "2d7e93ace5d2c0242a970e64a8e9f4f82c1a488cfb59dfbc5b6e99f24cb97b21",
    "delta-2":
        "42bb3ffe57c41fde72d8bbc24f167dcb3090850a45e33e54d1225dc70a451c58",
    "delta-2-s":
        "b6d6e90454cfad4b98eddf3290601aeb1fa8969f97a56c79bee6609835629ed7",
}


def test_builds_are_pinned():
    # repr shows the binder hints the printer reads, so the built terms
    # stay exactly as pinned, hints included
    got = {name: hashlib.sha256(repr(build()).encode("utf-8")).hexdigest()
           for name, build in _builds()}
    assert got == _PINNED_BUILDS


# ---------------------------------------------------------------------------
# measurement operators

def test_delta_qn_base_case():
    t = delta_qn(0, boolzero(), var="x")
    assert t == q("one_elim(x, inl(1.0 . star))")
    assert free_names(t) == {"x"}


def test_delta_qn_is_built_without_recursion():
    # as a tree the term has 2^n nodes, so it is walked down its spine,
    # not printed or sized: each level's two branches share one body
    n = 3000
    t = delta_qn(n, boolzero())
    scrut = Var("x")
    for _ in range(n):
        assert type(t) is CaseNd and t.scrut == scrut
        assert t.left.body is t.right.body
        t, scrut = t.left.body, Bound(0)
    assert type(t) is OneElim
    assert t.scrut == Bound(0) and t.body == boolzero()


def test_boolzero_boolone():
    assert boolzero() == Inl(q("1.0 . star"))
    assert boolone() == Inr(q("1.0 . star"))


def test_zero_term():
    assert zero_term(0) == q("0.0 . star")
    assert zero_term(1) == q("inlr(0.0 . star, 0.0 . star)")


def test_meas_first_typechecks():
    from inlr_kit.syntax import Lollipop

    assert infer("quantum", {}, meas_first(1)) \
        == Lollipop(qn_prop(1), qn_prop(1))
    assert infer("quantum", {}, meas_first(2)) \
        == Lollipop(qn_prop(2), qn_prop(1))


def test_meas_state_is_not_strictly_linear():
    # the state operator pairs the surviving half with a closed zero
    # vector; inlr shares its context additively and the scalar axiom
    # has an empty context, so the strict checker rejects the pairing
    # even though the term reduces exactly as intended
    from inlr_kit.typecheck import TypingError

    with pytest.raises(TypingError) as exc:
        infer("quantum", {}, meas_state(1))
    assert exc.value.kind == "linear-unused"


def test_meas_state_branch_forced_left():
    t = App(meas_state(1), q("inlr(2.0 . star, 3.0 . star)"))
    # reduce the beta redex, then force the measurement branch left
    t = step_at(t, (), RuleId("quantum", 20))
    t = step_at(t, (), RuleId("quantum", 26), choice="left")
    assert t == q("inlr(2.0 . star, 0.0 . star)")
    assert np.array_equal(to_vector(t, qn_prop(1)), [2.0, 0.0])


def test_meas_state_two_qubits_keeps_half():
    state = from_vector([1, 2, 3, 4], qn_prop(2))
    t = App(meas_state(2), state)
    t = step_at(t, (), RuleId("quantum", 20))
    right = step_at(t, (), RuleId("quantum", 26), choice="right")
    assert np.array_equal(to_vector(right, qn_prop(2)), [0, 0, 3, 4])


def test_partial_measurement_statistics():
    # |10> measured on the first qubit always answers one
    state = from_vector([0, 0, 1, 0], qn_prop(2))
    hist = run_measure(App(meas_first(2), state), shots=100, seed=5)
    assert len(hist.bins) == 1
    assert to_vector(q(hist.bins[0]["term"]), qn_prop(1)).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# linearity

def test_check_linear_map_on_compiled_matrix():
    b = qp("One (+) One")
    t = compile_matrix(HADAMARD, b, b)
    report = check_linear_map(t, b, b, trials=20, tol=1e-9, seed=6)
    assert report.ok
    assert report.max_error < 1e-9


def test_cloning_fails_additivity_numerically():
    # the negative control: u -> u (x) u is not additive
    rng = derive_rng(9, 0)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    clone = lambda w: np.kron(w, w)
    assert np.max(np.abs(clone(u + v) - (clone(u) + clone(v)))) > 1e-3


# ---------------------------------------------------------------------------
# file formats

def test_matrix_json_roundtrip():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    text = dump_matrix_json(m)
    data = json.loads(text)
    assert data["rows"] == 2 and data["cols"] == 2
    assert np.array_equal(load_matrix_json(text), m)


def test_vector_json_roundtrip():
    v = np.array([1 + 1j, -2.0])
    assert np.array_equal(load_vector_json(dump_vector_json(v)), v)


def test_matrix_json_rejects_wrong_count():
    with pytest.raises(EncodeError):
        load_matrix_json('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')


@pytest.mark.parametrize("load,text", [
    (load_matrix_json, "not json"),
    (load_matrix_json, '{"rows": 1}'),
    (load_matrix_json, '{"rows": -1, "cols": -1, "entries": [[1, 0]]}'),
    (load_matrix_json, '[[1, 0]]'),
    (load_matrix_json, '{"rows": 1e999, "cols": 1, "entries": [[1, 0]]}'),
    (load_matrix_json, '{"rows": 1.9, "cols": true, "entries": [[1, 0]]}'),
    (load_matrix_json,
     '{"rows": "2", "cols": 1, "entries": [[1, 0], [0, 0]]}'),
    (load_vector_json, "[1, 2]"),
    (load_vector_json, '{"rows": 1}'),
    (load_vector_json, '"ab"'),
    (load_vector_json, "[" * 100000 + "]" * 100000),
    (load_vector_json, "[[1" + "0" * 400 + ", 0]]"),
], ids=["matrix-not-json", "matrix-no-cols", "matrix-negative",
        "matrix-list", "matrix-infinite-rows", "matrix-float-bool-dims",
        "matrix-string-dims", "vector-not-pairs",
        "vector-no-entries", "vector-string", "vector-deep",
        "vector-int-past-float"])
def test_malformed_json_raises_encode_error(load, text):
    with pytest.raises(EncodeError):
        load(text)
