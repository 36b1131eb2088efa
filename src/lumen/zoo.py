"""Built-in tensors and rank decompositions, verified against their targets.

Three workhorses: 2x2 matrix multiplication (rank 7, Strassen), the
Strassen-Winograd tensor SW (7 of the 8 matmul terms, rank 6), and the
epsilon-parameterized rank-5 tensor covering 6 of the 8 matmul terms whose
off-target coefficients shrink with epsilon (referred to here as t2112).

Index conventions for the identities: a printed variable pair (a, b) maps to
alpha[i=a, k=b] on the X side, beta[j=b, k=a] on the Y side (the Y label order
is column-first), and gamma[i=a, j=b] on the Z side; all verified by the
expansion tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Decomposition, Rank1Term, Tensor, TensorShape

__all__ = [
    "ZooEntry",
    "matmul_tensor",
    "strassen_decomposition",
    "sw_decomposition",
    "sw_target",
    "t2112_decomposition",
    "t2112_target",
    "t2112_limit_tensor",
    "t2112_derivation_check",
    "zoo_decomposition",
    "zoo_target",
    "zoo_entries",
    "ZOO",
    "DEFAULT_EPS",
    "EPS_CONDITION_WARN",
]

DEFAULT_EPS = 0.025
# below this, double-precision cancellation in the rank-5 recursion is
# hopeless even at N=1 (coefficients scale as eps^-5)
EPS_CONDITION_WARN = 1e-3


@dataclass(frozen=True)
class ZooEntry:
    name: str
    decomposition: Decomposition
    target: Tensor
    declared_rank: int
    declared_eff: float


def matmul_tensor(q: int, q_k: int) -> Tensor:
    """<q,q,q_k>: unit coefficient on every X[i,k] Y[j,k] Z[i,j]."""
    if q < 1 or q_k < 1:
        raise ValueError("q and q_k must be >= 1")
    c = np.zeros((q, q_k, q, q_k, q, q))
    for i in range(q):
        for j in range(q):
            for k in range(q_k):
                c[i, k, j, k, i, j] = 1.0
    return Tensor(TensorShape(q, q, q_k), c)


_S22 = TensorShape(2, 2, 2)


def _term(xs, ys, zs) -> Rank1Term:
    """Build a rank-1 term from printed 1-indexed (a, b, coef) variable lists."""
    al = np.zeros((2, 2)); be = np.zeros((2, 2)); ga = np.zeros((2, 2))
    for a, b, c in xs:
        al[a - 1, b - 1] = c
    for a, b, c in ys:
        be[b - 1, a - 1] = c
    for a, b, c in zs:
        ga[a - 1, b - 1] = c
    return Rank1Term(al, be, ga)


def strassen_decomposition() -> Decomposition:
    """The classical 7-term identity for <2,2,2>."""
    tt = [
        ([(1, 1, 1), (2, 2, 1)], [(1, 1, 1), (2, 2, 1)], [(1, 1, 1), (2, 2, 1)]),
        ([(2, 1, 1), (2, 2, 1)], [(1, 1, 1)], [(2, 1, 1), (2, 2, -1)]),
        ([(1, 1, 1)], [(1, 2, 1), (2, 2, -1)], [(1, 2, 1), (2, 2, 1)]),
        ([(2, 2, 1)], [(2, 1, 1), (1, 1, -1)], [(1, 1, 1), (2, 1, 1)]),
        ([(1, 1, 1), (1, 2, 1)], [(2, 2, 1)], [(1, 1, -1), (1, 2, 1)]),
        ([(2, 1, 1), (1, 1, -1)], [(1, 1, 1), (1, 2, 1)], [(2, 2, 1)]),
        ([(1, 2, 1), (2, 2, -1)], [(2, 1, 1), (2, 2, 1)], [(1, 1, 1)]),
    ]
    return Decomposition(_S22, tuple(_term(*t) for t in tt))


def sw_target() -> Tensor:
    """Matmul <2,2,2> minus the X[1,1] Y[1,1] Z[1,1] term (0-indexed (0,0,0))."""
    c = matmul_tensor(2, 2).coeff.copy()
    c[0, 0, 0, 0, 0, 0] = 0.0
    return Tensor(_S22, c)


def sw_decomposition() -> Decomposition:
    """Winograd's 6-term identity for the 7 remaining matmul terms."""
    tt = [
        ([(2, 1, 1), (2, 2, 1)], [(2, 1, 1), (2, 2, 1)], [(1, 2, -1), (2, 2, 1)]),
        ([(1, 2, 1)], [(2, 1, 1)],
         [(1, 1, 1), (1, 2, -1), (2, 1, -1), (2, 2, 1)]),
        ([(1, 2, 1), (2, 2, 1)], [(1, 2, 1), (2, 2, -1)], [(2, 1, 1), (2, 2, -1)]),
        ([(1, 2, 1), (2, 1, 1), (2, 2, 1)], [(1, 2, -1), (2, 1, 1), (2, 2, 1)],
         [(1, 2, 1), (2, 1, 1), (2, 2, -1)]),
        ([(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)], [(1, 2, 1)], [(1, 2, 1)]),
        ([(2, 1, 1)], [(1, 1, 1), (1, 2, 1), (2, 1, -1), (2, 2, -1)], [(2, 1, 1)]),
    ]
    return Decomposition(_S22, tuple(_term(*t) for t in tt))


# ---------------------------------------------------------------------------
# the rank-5 epsilon tensor
# ---------------------------------------------------------------------------

def _eps_atoms(eps: float):
    """Shared float atoms; reusing them keeps the +-eps^-5 cancellation between
    the four symmetric terms and the correction term exact in IEEE doubles."""
    if eps <= 0:
        raise ValueError("eps must be positive (coefficients contain 1/eps^5)")
    e1 = float(eps)
    e3 = e1 * e1 * e1
    e4 = e3 * e1
    i1 = 1.0 / e1
    i3 = 1.0 / e3
    return e1, e3, e4, i1, i3


def t2112_decomposition(eps: float = DEFAULT_EPS, warn: bool = True) -> Decomposition:
    """Five rank-1 terms summing to the epsilon tensor.

    Coefficients reach eps^-5, so the recursive application of this
    decomposition loses roughly a factor eps^-5 of precision per Kronecker
    level; see the conditioning guard in the solver.
    """
    e1, e3, e4, i1, i3 = _eps_atoms(eps)
    if warn and eps < EPS_CONDITION_WARN:
        import warnings
        warnings.warn(
            f"eps={eps} < {EPS_CONDITION_WARN}: double-precision recursion on "
            f"this decomposition is unusable (coefficients ~ eps^-5)",
            RuntimeWarning, stacklevel=2)

    def mk(sx10, sx01, sx11, sy10, sy01, sy11, sz10, sz01, sz11):
        a = np.zeros((2, 2)); b = np.zeros((2, 2)); g = np.zeros((2, 2))
        a[0, 0] = 1.0; a[1, 0] = sx10 * i1; a[0, 1] = sx01 * i3; a[1, 1] = sx11
        # printed Y_{a,b} -> beta[j=b, k=a]
        b[0, 0] = i3
        b[0, 1] = sy10 * 1.0
        b[1, 0] = sy01 * 1.0
        b[1, 1] = sy11 * i1
        g[0, 0] = e3 / 4; g[1, 0] = sz10 * (e4 / 4)
        g[0, 1] = sz01 * (e4 / 4); g[1, 1] = sz11 * (e1 / 4)
        return Rank1Term(a, b, g)

    terms = [
        mk(+1, +1, +1, +1, +1, +1, +1, +1, +1),
        mk(+1, -1, -1, -1, -1, +1, +1, -1, -1),
        mk(-1, -1, +1, -1, +1, -1, -1, +1, -1),
        mk(-1, +1, -1, +1, -1, -1, -1, -1, +1),
    ]
    a = np.zeros((2, 2)); b = np.zeros((2, 2)); g = np.zeros((2, 2))
    a[0, 1] = 1.0
    b[0, 0] = 1.0
    # equals -1/eps^5; spelled from the shared atoms so the expansion's
    # spurious X01 Y00 Z11 coefficient cancels to exactly zero
    g[1, 1] = -((i3 * i3) * e1)
    terms.append(Rank1Term(a, b, g))
    return Decomposition(_S22, tuple(terms))


# 15 printed target terms: (X(a,b), Y(a,b), Z(a,b), coefficient power name)
_T2112_TERMS = [
    ((0, 0), (0, 0), (0, 0), "1"),
    ((0, 1), (1, 0), (0, 0), "1"),
    ((1, 1), (0, 1), (0, 0), "e3"),
    ((1, 0), (1, 1), (0, 0), "e1"),
    ((0, 0), (0, 1), (0, 1), "e4"),
    ((0, 1), (1, 1), (0, 1), "1"),
    ((1, 1), (0, 0), (0, 1), "e1"),
    ((1, 0), (1, 0), (0, 1), "e3"),
    ((1, 0), (0, 0), (1, 0), "1"),
    ((1, 1), (1, 0), (1, 0), "e4"),
    ((0, 1), (0, 1), (1, 0), "e1"),
    ((0, 0), (1, 1), (1, 0), "e3"),
    ((1, 0), (0, 1), (1, 1), "1"),
    ((1, 1), (1, 1), (1, 1), "1"),
    ((0, 0), (1, 0), (1, 1), "e1"),
]


def t2112_target(eps: float = DEFAULT_EPS) -> Tensor:
    """The 15-term expanded form of the epsilon tensor (coefficients <= 1)."""
    e1, e3, e4, _, _ = _eps_atoms(eps)
    coef = {"1": 1.0, "e1": e1, "e3": e3, "e4": e4}
    c = np.zeros(_S22.coeff_shape)
    for (xa, xb), (ya, yb), (za, zb), p in _T2112_TERMS:
        # X(a,b) -> (i=a, k=b); Y(a,b) -> (j=b, k'=a); Z(a,b) -> (i'=a, j'=b)
        c[xa, xb, yb, ya, za, zb] = coef[p]
    return Tensor(_S22, c)


def t2112_limit_tensor() -> Tensor:
    """eps -> 0 limit: the six unit-coefficient terms (subset of matmul)."""
    c = np.zeros(_S22.coeff_shape)
    for (xa, xb), (ya, yb), (za, zb), p in _T2112_TERMS:
        if p == "1":
            c[xa, xb, yb, ya, za, zb] = 1.0
    return Tensor(_S22, c)


def t2112_derivation_check(eps_values=(0.5, 0.1)) -> bool:
    """Reproduce the construction pipeline symbolically and compare.

    Start from the structural tensor of (Z/2)^2 (16 unit terms X_a Y_b Z_{a+b}),
    swap the names X01<->X11 and Y10<->Y11, rescale variables by the epsilon
    monomials, delete the eps^-5 term, and check the result equals the printed
    target entrywise.
    """
    # group tensor as a dict: (xa, ya, za) -> coefficient, labels in (Z/2)^2
    def add2(u, v):
        return ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2)

    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
    terms = {}
    for a in labels:
        for b in labels:
            terms[(a, b, add2(a, b))] = 1.0
    if len(terms) != 16:
        return False

    # renames
    swap_x = {(0, 1): (1, 1), (1, 1): (0, 1)}
    swap_y = {(1, 0): (1, 1), (1, 1): (1, 0)}
    terms = {(swap_x.get(x, x), swap_y.get(y, y), z): c
             for (x, y, z), c in terms.items()}

    for eps in eps_values:
        e1, e3, e4, i1, i3 = _eps_atoms(eps)
        sx = {(1, 0): i1, (0, 1): i3}
        sy = {(1, 1): i1, (0, 0): i3}
        sz = {(0, 0): e3, (0, 1): e4, (1, 0): e4, (1, 1): e1}
        scaled = {}
        for (x, y, z), c in terms.items():
            scaled[(x, y, z)] = c * sx.get(x, 1.0) * sy.get(y, 1.0) * sz[z]
        # delete the blown-up term
        del scaled[((0, 1), (0, 0), (1, 1))]
        if len(scaled) != 15:
            return False
        c6 = np.zeros(_S22.coeff_shape)
        for (x, y, z), c in scaled.items():
            c6[x[0], x[1], y[1], y[0], z[0], z[1]] = c
        tgt = t2112_target(eps).coeff
        if not np.allclose(c6, tgt, rtol=1e-12, atol=0.0):
            return False
    return True


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (decomposition, target), each built from eps; only t2112 reads it
ZOO = {
    "strassen": (lambda eps: strassen_decomposition(),
                 lambda eps: matmul_tensor(2, 2)),
    "sw": (lambda eps: sw_decomposition(), lambda eps: sw_target()),
    "t2112": (t2112_decomposition, t2112_target),
}


def _zoo_lookup(name: str):
    name = name.lower()
    if name not in ZOO:
        raise KeyError(f"unknown tensor {name!r}; have {', '.join(ZOO)}")
    return ZOO[name]


def zoo_entries(eps: float = DEFAULT_EPS):
    """All built-in tensors with their declared ranks and reference efficacies."""
    from .efficacy import eff_table
    out = []
    for name, (decomposition, target) in ZOO.items():
        d, t = decomposition(eps), target(eps)
        out.append(ZooEntry(name, d, t, d.rank, eff_table(t).total))
    return out


def zoo_decomposition(name: str, eps: float = DEFAULT_EPS) -> Decomposition:
    return _zoo_lookup(name)[0](eps)


def zoo_target(name: str, eps: float = DEFAULT_EPS) -> Tensor:
    return _zoo_lookup(name)[1](eps)
