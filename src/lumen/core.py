"""Tensors, rank decompositions, and the Kronecker-power application engine.

A tensor here is a trilinear form over variables X[i,k], Y[j,k'], Z[i',j']
of a given shape; applying it to matrices A (rows indexed by i, columns by k)
and B (rows indexed by j, columns by k') produces the q_i x q_j matrix whose
(i',j') entry is the coefficient-weighted sum of A*B products landing in
Z[i',j'].  For the exact matrix-multiplication tensor this is A @ B.T.

Coefficient storage is a dense 6-axis array indexed (i, k, j, k', i', j').
Kronecker index flattening is row-major: (i, i2) -> i * q2 + i2, fixed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "TensorShape",
    "Tensor",
    "Rank1Term",
    "Decomposition",
    "CapacityError",
    "ShapeError",
    "tensor_of_decomposition",
    "kronecker",
    "kron_decomposition",
    "reflect",
    "reflect_decomposition",
    "apply_direct",
    "apply_power",
    "decomposition_to_text",
    "decomposition_from_text",
    "MultiplyCounter",
]

# Dense Kronecker powers are capped so a runaway power request fails fast
# instead of exhausting memory.  2^26 doubles = 0.5 GB.
DEFAULT_CAPACITY = 1 << 26

# apply_power loops its leading levels term by term until the remaining
# rank product is at most this, so sweep states stay around <= 4M entries.
SWEEP_WIDTH = 1 << 22


class CapacityError(Exception):
    """Requested tensor/decomposition product exceeds the memory budget."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the tensor shape."""


@dataclass(frozen=True)
class TensorShape:
    q_i: int
    q_j: int
    q_k: int

    def __post_init__(self):
        if min(self.q_i, self.q_j, self.q_k) < 1:
            raise ShapeError(f"all shape entries must be >= 1, got {self}")

    @property
    def coeff_shape(self):
        return (self.q_i, self.q_k, self.q_j, self.q_k, self.q_i, self.q_j)

    def kron(self, other: "TensorShape") -> "TensorShape":
        return TensorShape(self.q_i * other.q_i, self.q_j * other.q_j,
                           self.q_k * other.q_k)


@dataclass(frozen=True)
class Tensor:
    """Dense trilinear form; coeff[i, k, j, k', i', j'] multiplies X[i,k] Y[j,k'] Z[i',j']."""

    shape: TensorShape
    coeff: np.ndarray

    def __post_init__(self):
        if self.coeff.shape != self.shape.coeff_shape:
            raise ShapeError(
                f"coefficient array {self.coeff.shape} does not match shape "
                f"{self.shape.coeff_shape}")
        if not np.all(np.isfinite(self.coeff)):
            raise ValueError("tensor coefficients must be finite")
        self.coeff.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.shape == other.shape
                and np.array_equal(self.coeff, other.coeff))


@dataclass(frozen=True)
class Rank1Term:
    """One rank-1 summand: alpha over (i,k), beta over (j,k), gamma over (i,j)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name, arr in (("alpha", self.alpha), ("beta", self.beta),
                          ("gamma", self.gamma)):
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be a 2-d coefficient array")
            arr.setflags(write=False)

    def reflect(self) -> "Rank1Term":
        return Rank1Term(self.beta.copy(), self.alpha.copy(),
                         self.gamma.T.copy())


@dataclass(frozen=True)
class Decomposition:
    shape: TensorShape
    terms: tuple

    def __post_init__(self):
        qi, qj, qk = self.shape.q_i, self.shape.q_j, self.shape.q_k
        for t in self.terms:
            if t.alpha.shape != (qi, qk) or t.beta.shape != (qj, qk) \
                    or t.gamma.shape != (qi, qj):
                raise ShapeError(
                    f"term shapes {t.alpha.shape}/{t.beta.shape}/{t.gamma.shape}"
                    f" do not match {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.terms)

    def is_integer(self) -> bool:
        return all(
            np.array_equal(m, np.round(m))
            for t in self.terms for m in (t.alpha, t.beta, t.gamma))


# ---------------------------------------------------------------------------
# construction and combination
# ---------------------------------------------------------------------------

def tensor_of_decomposition(d: Decomposition) -> Tensor:
    out = np.zeros(d.shape.coeff_shape)
    for t in d.terms:
        # fixed ((alpha*beta)*gamma) order so coefficient cancellations between
        # terms built from shared float atoms stay bit-exact
        out += np.multiply.outer(np.multiply.outer(t.alpha, t.beta), t.gamma)
    return Tensor(d.shape, out)


def _check_capacity(n_entries: int, capacity: int):
    if n_entries > capacity:
        raise CapacityError(
            f"result would hold {n_entries} coefficients, over budget {capacity}")


def kronecker(t1: Tensor, t2: Tensor, capacity: int = DEFAULT_CAPACITY) -> Tensor:
    shape = t1.shape.kron(t2.shape)
    _check_capacity(int(np.prod(shape.coeff_shape)), capacity)
    out = np.einsum("ikjlmn,IKJLMN->iIkKjJlLmMnN", t1.coeff, t2.coeff)
    return Tensor(shape, np.ascontiguousarray(out.reshape(shape.coeff_shape)))


def tensor_power(t: Tensor, n: int) -> Tensor:
    out = t
    for _ in range(n - 1):
        out = kronecker(out, t)
    return out


def kron_decomposition(d1: Decomposition, d2: Decomposition) -> Decomposition:
    shape = d1.shape.kron(d2.shape)
    _check_capacity(d1.rank * d2.rank * max(shape.coeff_shape) ** 2,
                    DEFAULT_CAPACITY)
    terms = []
    for a in d1.terms:
        for b in d2.terms:
            terms.append(Rank1Term(np.kron(a.alpha, b.alpha),
                                   np.kron(a.beta, b.beta),
                                   np.kron(a.gamma, b.gamma)))
    return Decomposition(shape, tuple(terms))


def reflect(t: Tensor) -> Tensor:
    """Swap the roles of the X and Y variables; output cells transpose with
    them so that eff_{i,j}(reflect(T)) = eff_{j,i}(T)."""
    if t.shape.q_i != t.shape.q_j:
        raise ShapeError("reflection needs q_i == q_j")
    return Tensor(t.shape, np.ascontiguousarray(t.coeff.transpose(2, 3, 0, 1, 5, 4)))


def reflect_decomposition(d: Decomposition) -> Decomposition:
    if d.shape.q_i != d.shape.q_j:
        raise ShapeError("reflection needs q_i == q_j")
    return Decomposition(d.shape, tuple(t.reflect() for t in d.terms))


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply_direct(t: Tensor, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C[i',j'] = sum T(X[i,k] Y[j,k'] Z[i',j']) A[i,k] B[j,k']."""
    qi, qj, qk = t.shape.q_i, t.shape.q_j, t.shape.q_k
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != (qi, qk) or B.shape != (qj, qk):
        raise ShapeError(f"operands {A.shape}/{B.shape} do not fit {t.shape}")
    return np.einsum("ikjlmn,ik,jl->mn", t.coeff, A, B)


class MultiplyCounter:
    """Counts base-level bilinear multiplications performed by the engine."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


def _term_matrices(d: Decomposition, dtype):
    Ma = np.array([t.alpha.ravel() for t in d.terms], dtype=dtype)
    Mb = np.array([t.beta.ravel() for t in d.terms], dtype=dtype)
    Mg = np.array([t.gamma.ravel() for t in d.terms], dtype=dtype)
    return Ma, Mb, Mg


def _sweep(vec: np.ndarray, mats) -> np.ndarray:
    """Contract level axis l of vec (over axes [d_1..d_N]) with mats[l] (r_l x d_l).

    State is kept as (done-ranks, current level, remaining levels); each step is
    a broadcast matmul, with a plain GEMM once the remainder collapses.
    """
    state = vec
    pre = 1
    for M in mats:
        r, dd = M.shape
        rest = state.size // (pre * dd)
        if rest == 1:
            state = (state.reshape(pre, dd) @ M.T).reshape(-1)
        else:
            st = state.reshape(pre, dd, rest)
            state = np.matmul(M[None, :, :], st).reshape(-1)
        pre *= r
    return state


def _interleave(M: np.ndarray, per_row, per_col, dtype) -> np.ndarray:
    """Reorder a (prod per_row) x (prod per_col) matrix into the vector over
    per-level paired axes ((r_1,c_1),...,(r_N,c_N)), row-major throughout."""
    N = len(per_row)
    t = np.asarray(M, dtype=dtype).reshape(list(per_row) + list(per_col))
    perm = []
    for l in range(N):
        perm += [l, N + l]
    return np.ascontiguousarray(t.transpose(perm)).reshape(-1)


def _uninterleave(vec: np.ndarray, per_row, per_col) -> np.ndarray:
    N = len(per_row)
    dims = []
    for l in range(N):
        dims += [per_row[l], per_col[l]]
    t = vec.reshape(dims)
    perm = [2 * l for l in range(N)] + [2 * l + 1 for l in range(N)]
    nr = int(np.prod(per_row))
    nc = int(np.prod(per_col))
    return np.ascontiguousarray(t.transpose(perm)).reshape(nr, nc)


def apply_power(levels, A, B, dtype=None,
                counter: MultiplyCounter | None = None) -> np.ndarray:
    """Apply the Kronecker product of per-level decompositions to A and B.

    levels: list of Decomposition, one per Kronecker factor (level l shapes
    multiply).  A is (prod q_i) x (prod q_k), B is (prod q_j) x (prod q_k).
    Equivalent to apply_direct on the expanded product tensor; performs exactly
    prod(rank_l) base-level bilinear multiplications.

    To bound peak memory, the leading levels are looped term by term until
    the rank product of the rest is at most SWEEP_WIDTH.
    """
    N = len(levels)
    qi = [d.shape.q_i for d in levels]
    qj = [d.shape.q_j for d in levels]
    qk = [d.shape.q_k for d in levels]
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != (int(np.prod(qi)), int(np.prod(qk))):
        raise ShapeError(f"A is {A.shape}, expected {(np.prod(qi), np.prod(qk))}")
    if B.shape != (int(np.prod(qj)), int(np.prod(qk))):
        raise ShapeError(f"B is {B.shape}, expected {(np.prod(qj), np.prod(qk))}")
    if dtype is None:
        integer = (all(d.is_integer() for d in levels)
                   and np.issubdtype(A.dtype, np.integer)
                   and np.issubdtype(B.dtype, np.integer))
        dtype = np.int64 if integer else np.float64

    mats = [_term_matrices(d, dtype) for d in levels]
    ranks = [d.rank for d in levels]
    total_rank = int(np.prod(ranks, dtype=np.int64))
    if counter is not None:
        counter.add(total_rank)
    if any(r == 0 for r in ranks):
        return np.zeros((int(np.prod(qi)), int(np.prod(qj))), dtype=dtype)

    t = 0                          # leading levels looped term by term
    width = total_rank
    while width > SWEEP_WIDTH and t < N - 1:
        width //= ranks[t]
        t += 1

    va = _interleave(A, qi, qk, dtype)
    vb = _interleave(B, qj, qk, dtype)
    Mas = [m[0] for m in mats]
    Mbs = [m[1] for m in mats]
    MgT = [np.ascontiguousarray(m[2].T) for m in mats]

    va2 = va.reshape(int(np.prod([qi[l] * qk[l] for l in range(t)])), -1)
    vb2 = vb.reshape(int(np.prod([qj[l] * qk[l] for l in range(t)])), -1)
    c = None
    for branch in _iproduct(*[range(r) for r in ranks[:t]]):
        rowa = rowb = rowg = np.ones(1, dtype)
        for l in range(t):
            rowa = np.kron(rowa, Mas[l][branch[l]])
            rowb = np.kron(rowb, Mbs[l][branch[l]])
            rowg = np.kron(rowg, mats[l][2][branch[l]])
        wa = _sweep(rowa @ va2, Mas[t:])
        wb = _sweep(rowb @ vb2, Mbs[t:])
        cb = _sweep(wa * wb, MgT[t:])
        contrib = np.outer(rowg, cb)
        c = contrib if c is None else c + contrib
    return _uninterleave(c.reshape(-1), qi, qj)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def decomposition_to_text(d: Decomposition) -> str:
    """One term per line: three ';'-separated coefficient lists in
    (i,k) / (j,k) / (i,j) row-major order, after a `shape q_i q_j q_k` header."""
    lines = [f"shape {d.shape.q_i} {d.shape.q_j} {d.shape.q_k}"]
    for t in d.terms:
        parts = [" ".join(repr(float(x)) for x in m.ravel())
                 for m in (t.alpha, t.beta, t.gamma)]
        lines.append("; ".join(parts))
    return "\n".join(lines) + "\n"


def decomposition_from_text(text: str) -> Decomposition:
    """Parse decomposition_to_text output.  Malformed input raises ValueError
    naming the (1-based) line and what it expected there."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("shape"):
        raise ValueError("missing `shape q_i q_j q_k` header")
    no, header = lines[0]
    dims = header.split()[1:]
    if len(dims) != 3 or not all(x.isdecimal() and int(x) > 0 for x in dims):
        raise ValueError(f"line {no}: expected `shape q_i q_j q_k` with three "
                         f"positive integers, got {header!r}")
    shape = TensorShape(*map(int, dims))
    qi, qj, qk = shape.q_i, shape.q_j, shape.q_k
    blocks = (("alpha", (qi, qk)), ("beta", (qj, qk)), ("gamma", (qi, qj)))
    terms = []
    for no, ln in lines[1:]:
        parts = ln.split(";")
        if len(parts) != 3:
            raise ValueError(f"line {no}: expected 3 ';'-separated coefficient "
                             f"lists, got {len(parts)}")
        mats = []
        for (name, shp), part in zip(blocks, parts):
            try:
                vals = np.array([float(x) for x in part.split()])
            except ValueError as e:
                raise ValueError(f"line {no}: expected numeric {name} "
                                 f"coefficients ({e})") from None
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"line {no}: expected finite {name} "
                                 f"coefficients")
            if vals.size != shp[0] * shp[1]:
                raise ValueError(f"line {no}: expected {shp[0] * shp[1]} "
                                 f"{name} coefficients, got {vals.size}")
            mats.append(vals.reshape(shp))
        terms.append(Rank1Term(*mats))
    return Decomposition(shape, tuple(terms))
