"""Vectors and matrices as proofs, and the numeric oracle they are checked
against.

Closed irreducible proofs of a vector proposition (built from One and (+))
denote dense complex vectors; the denotation reads scalars at One leaves,
concatenates blocks under inlr, and zero-pads under inl/inr; ``norm_sq``
reads the squared norm off the same irreducible form.  A complex
matrix compiles to a closed proof of ``A -o B`` that agrees with numpy's
matrix-vector product on every input.  The measurement operator builders
live here too.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

import numpy as np

from .quantum import RULES_QUANTUM_DET, structural_norm_sq
from .rewrite import normalize
from .rng import derive_rng
from .syntax import (Abs, App, Bound, Case, CaseNd, Inl, Inlr2, Inr, Lam,
                     OneElim, OPlus, One, Prod, Proposition, ScalarStar, Sum,
                     Term, Var, fold, print_prop, print_term)


class EncodeError(Exception):
    pass


class NotVectorProp(EncodeError):
    """A proposition not built from One and (+) where a vector is wanted."""

    def __init__(self, p: Proposition):
        super().__init__(f"not a vector proposition: {print_prop(p)}")


class NotIrreducible(Exception):
    pass


def dim(p: Proposition) -> int:
    """Number of One leaves of a vector proposition; NotVectorProp at the
    first sub-proposition in preorder that is neither One nor (+)."""
    n, stack = 0, [p]
    while stack:
        q = stack.pop()
        if type(q) is OPlus:
            stack += (q.right, q.left)
        elif type(q) is One:
            n += 1
        else:
            raise NotVectorProp(q)
    return n


def _scalars(t: Term, p: Proposition, mismatch) -> tuple:
    """The offsets and the values of the scalars of the irreducible value t
    of the vector proposition p, left to right, by one walk of t against p
    on an explicit stack with a running offset: a side that an inl or an
    inr leaves out adds its dimension.  At the first subterm s that does
    not fit its sub-proposition q, raises mismatch(s, q).
    """
    offsets, values, offset, stack = [], [], 0, [(t, p)]
    while stack:
        t, p = stack.pop()
        cls = type(t)
        if t is None:  # a side left out
            offset += dim(p)
        elif type(p) is One:
            if cls is not ScalarStar:
                raise mismatch(t, p)
            offsets.append(offset)
            values.append(t.value)
            offset += 1
        elif cls is Inlr2:
            stack += ((t.right, p.right), (t.left, p.left))
        elif cls is Inl:
            stack += ((None, p.right), (t.body, p.left))
        elif cls is Inr:
            stack += ((t.body, p.right), (None, p.left))
        else:
            raise mismatch(t, p)
    return offsets, values


def qn_prop(n: int) -> Proposition:
    """The balanced vector proposition of dimension 2^n."""
    p = One()
    for _ in range(n):
        p = OPlus(p, p)
    return p


BOOL_PROP = qn_prop(1)


def to_vector(t: Term, p: Proposition) -> np.ndarray:
    """Denote a closed proof of vector proposition p as a complex vector.

    The term is normalized first; the denotation is defined on the
    irreducible form.
    """
    n = dim(p)
    tr = normalize(t, RULES_QUANTUM_DET)
    if tr.outcome.kind != "normal-form":
        raise EncodeError(f"term does not normalize: {tr.outcome.kind}")
    out = np.zeros(n, dtype=np.complex128)
    offsets, values = _scalars(tr.final, p, lambda s, q: EncodeError(
        f"shape mismatch against {print_prop(q)}: {print_term(s)}"))
    out[offsets] = values
    return out


def norm_sq(t: Term, prop: Proposition) -> float:
    """Squared norm of a closed irreducible proof of a vector proposition."""
    dim(prop)  # NotVectorProp at the first sub-proposition out of place
    # an inl/inr/inlr/scalar tree holds no variable and no redex
    _scalars(t, prop, lambda s, q: NotIrreducible(print_term(s)))
    return structural_norm_sq(t)


def from_vector(v, p: Proposition) -> Term:
    """The inl/inr-free irreducible proof denoting v at proposition p."""
    v = np.asarray(v, dtype=np.complex128)
    n = dim(p)
    if v.shape != (n,):
        raise EncodeError(f"dimension mismatch: vector {v.shape}, "
                          f"proposition wants ({n},)")
    # fold meets the Ones of p left to right: the i-th takes v[i]
    values = iter(v.tolist())
    return fold(p, lambda q, sides: Inlr2(*sides) if sides
                else ScalarStar(next(values)))


def compile_matrix(m, a: Proposition, b: Proposition) -> Term:
    """A closed proof of ``a -o b`` computing the matrix-vector product.

    Column j, at the j-th One of a, becomes ``lam x. one_elim(x, <column>)``;
    each (+) of a dispatches on the input with case to its sides' proofs.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim(b), dim(a)):
        raise EncodeError(f"matrix shape {m.shape} does not fit "
                          f"{dim(b)}x{dim(a)}")
    columns = iter(m.T)  # fold meets the Ones of a left to right

    def proof(q, sides):
        if not sides:
            return Lam(q, Abs("x", OneElim(Bound(0),
                                           from_vector(next(columns), b))))
        t1, t2 = sides
        return Lam(q, Abs("x", Case(Bound(0), Abs("y", App(t1, Bound(0))),
                                    Abs("z", App(t2, Bound(0))))))

    return fold(a, proof)


# ---------------------------------------------------------------------------
# Measurement operators

def zero_term(n: int) -> Term:
    """The zero vector of the balanced proposition of dimension 2^n."""
    t = ScalarStar(0.0)
    for _ in range(n):
        t = Inlr2(t, t)
    return t


def boolzero() -> Term:
    return Inl(ScalarStar(1.0))


def boolone() -> Term:
    return Inr(ScalarStar(1.0))


def delta_qn(n: int, b: Term, var: str = "x") -> Term:
    """Consume a balanced vector of dimension 2^n held in `var`, return b.

    The n = 0 case is plain one_elim; each further level eliminates one
    case_nd layer on both branches, whose bodies consume Bound(0).  b
    must have no loose indices: it is put under those binders unlifted.
    """
    return _delta(n, b, Var(var))


def _delta(n, b, v):
    """one_elim(., b) under n case_nd levels, the outermost on v and each
    other on Bound(0), built from the inside out; a level's two branches
    share one body."""
    t = OneElim(Bound(0) if n else v, b)
    for level in range(n - 1, -1, -1):  # 0 is the outermost
        t = CaseNd(Bound(0) if level else v, Abs("y", t), Abs("z", t))
    return t


def meas_first(n: int) -> Term:
    """Measure the first qubit of a 2^n-dimensional state; returns the
    Boolean outcome."""
    if n < 1:
        raise ValueError("meas_first needs n >= 1")
    return Lam(qn_prop(n), Abs("x", CaseNd(
        Bound(0), Abs("y", _delta(n - 1, boolzero(), Bound(0))),
        Abs("z", _delta(n - 1, boolone(), Bound(0))))))


def meas_state(n: int) -> Term:
    """Measure the first qubit; returns the post-measurement state."""
    if n < 1:
        raise ValueError("meas_state needs n >= 1")
    return Lam(qn_prop(n), Abs("x", CaseNd(
        Bound(0), Abs("y", Inlr2(Bound(0), zero_term(n - 1))),
        Abs("z", Inlr2(zero_term(n - 1), Bound(0))))))


# ---------------------------------------------------------------------------
# Linearity checking at vector observables

@dataclass
class LinearMapReport:
    trials: int
    max_error: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def check_linear_map(t: Term, a: Proposition, b: Proposition, trials: int,
                     tol: float, seed: int) -> LinearMapReport:
    """Probe a closed proof of ``a -o b`` for vector-space behaviour.

    Checks additivity, scalar homogeneity, and the sum laws (associativity
    and commutativity of the sum, distributivity of the product) on the
    denoted vectors, all within tol.
    """
    report = LinearMapReport(trials)
    n = dim(a)

    def apply(arg):
        return to_vector(App(t, arg), b)

    for trial in range(trials):
        rng = derive_rng(seed, 0x11AE, trial)
        u, v, w = (_random_vector(rng, n) for _ in range(3))
        scalar = complex(rng.standard_normal(), rng.standard_normal())
        ut, vt, wt = (from_vector(x, a) for x in (u, v, w))

        checks = [
            ("additive", apply(Sum(ut, vt)), apply(ut) + apply(vt)),
            ("homogeneous", apply(Prod(scalar, ut)), scalar * apply(ut)),
            ("sum-assoc", to_vector(Sum(Sum(ut, vt), wt), a),
             to_vector(Sum(ut, Sum(vt, wt)), a)),
            ("sum-comm", to_vector(Sum(ut, vt), a),
             to_vector(Sum(vt, ut), a)),
            ("prod-distrib", to_vector(Prod(scalar, Sum(ut, vt)), a),
             to_vector(Sum(Prod(scalar, ut), Prod(scalar, vt)), a)),
        ]
        for name, got, want in checks:
            err = float(np.max(np.abs(got - want))) if len(got) else 0.0
            report.max_error = max(report.max_error, err)
            if err > tol:
                report.failures.append((trial, name, err))
    return report


# ---------------------------------------------------------------------------
# Matrix file format

def load_matrix_json(text: str) -> np.ndarray:
    """Parse {"rows": n, "cols": m, "entries": [[re, im], ...]} (row-major)."""
    try:
        data = json.loads(text)
        rows, cols = data["rows"], data["cols"]
        flat = _complex_entries(data["entries"])
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as e:
        raise EncodeError(f"malformed matrix JSON: {type(e).__name__}: {e}") from e
    # JSON integers only: a bool is an int to Python, and int() would
    # truncate 1.9 and parse "2"
    if type(rows) is not int or type(cols) is not int:
        raise EncodeError(f"rows and cols must be integers, got "
                          f"{type(rows).__name__}, {type(cols).__name__}")
    if rows < 1 or cols < 1:
        raise EncodeError(f"need positive rows and cols, got {rows}, {cols}")
    if len(flat) != rows * cols:
        raise EncodeError(f"need {rows * cols} entries, got {len(flat)}")
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)


def dump_matrix_json(m) -> str:
    m = np.asarray(m, dtype=np.complex128)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                       "entries": entries})


def load_vector_json(text: str) -> np.ndarray:
    """Parse {"entries": [[re, im], ...]} or a bare [[re, im], ...] list."""
    try:
        data = json.loads(text)
        if isinstance(data, dict):
            data = data["entries"]
        return np.array(_complex_entries(data), dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as e:
        raise EncodeError(f"malformed vector JSON: {type(e).__name__}: {e}") from e


def _number(x) -> float:
    # JSON numbers only: float() would also take a bool and parse "1_000"
    if type(x) is not int and type(x) is not float:
        raise TypeError(f"entry part {x!r} is not a number")
    return float(x)


def _complex_entries(pairs) -> list:
    out = [complex(_number(re), _number(im)) for re, im in pairs]
    for i, z in enumerate(out):
        if not cmath.isfinite(z):
            raise EncodeError(f"entry {i} is not finite: "
                              f"[{z.real!r}, {z.imag!r}]")
    return out


def dump_vector_json(v) -> str:
    v = np.asarray(v, dtype=np.complex128)
    return json.dumps([[float(z.real), float(z.imag)] for z in v])
