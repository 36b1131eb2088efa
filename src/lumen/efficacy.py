"""Efficacy calculus: signal-to-noise tables, exponent bounds, the stochastic
hashing performance gamma, and the constructive Q-matrix designer for
subset-of-matmul tensors with full-rank squared-efficacy matrices."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import Tensor

__all__ = [
    "EfficacyTable",
    "StochasticPair",
    "uniform_pair",
    "eff_entry",
    "eff_table",
    "exponent_bound",
    "effq_entry",
    "effq_table",
    "gamma",
    "p_eff",
    "rho_joint_matrix",
    "t2112_optimal_a",
    "t2112_flip_pair",
    "omega_rho_t2112",
    "dubiner_exponent",
    "optimize_gamma",
    "design_q_matrices",
    "case1_z_pattern",
    "DesignerError",
    "is_subset_of_matmul",
    "scalar_improvement_holds",
    "column_permutation_for_mixed_signs",
    "typeclass_capacity",
]


@dataclass(frozen=True)
class EfficacyTable:
    per_entry: np.ndarray      # q_i x q_j matrix of eff_{i,j}
    total: float               # l2 aggregate

    def __post_init__(self):
        self.per_entry.setflags(write=False)


@dataclass(frozen=True)
class StochasticPair:
    """Two row-stochastic matrices used to perturb bucket symbols.

    The partial weights used in the Q-weighted efficacy are the column sums
    (the expected relative load a symbol receives), stored in col_x / col_y.
    """
    Q_x: np.ndarray
    Q_y: np.ndarray

    def __post_init__(self):
        for name, Q in (("Q_x", self.Q_x), ("Q_y", self.Q_y)):
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.any(Q < -1e-12) or np.any(Q > 1 + 1e-12):
                raise ValueError(f"{name} entries must lie in [0,1]")
            if np.abs(Q.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError(f"{name} rows must sum to 1")
            frozen = Q.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

    @property
    def col_x(self) -> np.ndarray:
        return self.Q_x.sum(axis=0)

    @property
    def col_y(self) -> np.ndarray:
        return self.Q_y.sum(axis=0)

    @property
    def q(self) -> int:
        return self.Q_x.shape[0]


def uniform_pair(q: int) -> StochasticPair:
    U = np.full((q, q), 1.0 / q)
    return StochasticPair(U, U.copy())


# ---------------------------------------------------------------------------
# plain efficacy
# ---------------------------------------------------------------------------

def _slices(t: Tensor, i: int, j: int):
    """Numerator terms and the Z[i,j] coefficient slice."""
    num = float(np.trace(t.coeff[:, :, :, :, i, j][i, :, j, :]))
    landing = t.coeff[:, :, :, :, i, j]
    return num, landing


def eff_entry(t: Tensor, i: int, j: int) -> float:
    """Matched-diagonal coefficient sum over the l2 norm of everything landing
    in Z[i,j]; zero when the output slice is entirely zero."""
    num, landing = _slices(t, i, j)
    den = float(np.sqrt((landing ** 2).sum()))
    if den == 0.0:
        return 0.0
    return num / den


def eff_table(t: Tensor) -> EfficacyTable:
    qi, qj = t.shape.q_i, t.shape.q_j
    per = np.array([[eff_entry(t, i, j) for j in range(qj)] for i in range(qi)])
    return EfficacyTable(per, float(np.sqrt((per ** 2).sum())))


def exponent_bound(rank: int, eff: float) -> float:
    """log(rank)/log(eff), the running-time exponent implied by a rank bound."""
    if eff <= 1.0:
        raise ValueError(f"eff must exceed 1 for a meaningful bound, got {eff}")
    return float(np.log(rank) / np.log(eff))


# ---------------------------------------------------------------------------
# Q-weighted efficacy and hashing performance
# ---------------------------------------------------------------------------

def effq_entry(qp: StochasticPair, t: Tensor, i: int, j: int) -> float:
    """Q-weighted efficacy: the denominator weights each coefficient by the
    column sums of Q at its incoming X/Y symbols."""
    if t.shape.q_i != qp.q or t.shape.q_j != qp.q:
        raise ValueError("tensor shape and Q dimension disagree")
    num, landing = _slices(t, i, j)
    w = np.einsum("ikjl,i,j->", landing ** 2, qp.col_x, qp.col_y)
    den = float(np.sqrt(w))
    if den == 0.0:
        return 0.0
    return num / den


def effq_table(qp: StochasticPair, t: Tensor) -> np.ndarray:
    q = qp.q
    return np.array([[effq_entry(qp, t, i, j) for j in range(q)] for i in range(q)])


def rho_joint_matrix(rho: float) -> np.ndarray:
    """The q=2 joint distribution with per-coordinate agreement (1+rho)/2."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    return np.array([[(1 + rho) / 4, (1 - rho) / 4],
                     [(1 - rho) / 4, (1 + rho) / 4]])


def gamma(qp: StochasticPair, t: Tensor, P: np.ndarray) -> float:
    """Geometric-mean detection capacity of the pair (Q_x, Q_y) under P."""
    P = np.asarray(P, float)
    q = qp.q
    if P.shape != (q, q):
        raise ValueError("P must be q x q")
    if abs(P.sum() - 1.0) > 1e-9 or np.any(P < -1e-12):
        raise ValueError("P must be a joint probability matrix")
    e2 = effq_table(qp, t) ** 2
    inner = qp.Q_x @ e2 @ qp.Q_y.T     # inner[i,j] = sum_uv Qx[i,u] Qy[j,v] effq[u,v]^2
    if np.any(inner[P > 0] <= 0):
        raise ValueError("nonpositive inner capacity under the support of P")
    logg = float((P * np.log(inner, where=inner > 0,
                             out=np.zeros_like(inner))).sum())
    return float(np.exp(logg))


def p_eff(t: Tensor, P: np.ndarray, qp: StochasticPair) -> float:
    """sqrt(gamma * q^2): the hashing-boosted efficacy."""
    q = qp.q
    return float(np.sqrt(gamma(qp, t, P) * q * q))


# ---------------------------------------------------------------------------
# closed forms for the epsilon tensor under bit-sampling hashing
# ---------------------------------------------------------------------------

def t2112_optimal_a(rho: float) -> float:
    """Optimal symmetric flip probability; zero from rho = 1/3 on."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return max(0.0, (1.0 - np.sqrt(3.0 * rho)) / 2.0)


def t2112_flip_pair(rho: float) -> StochasticPair:
    """The symmetric bit-flip pair Q_x = Q_y that flips each symbol with the
    optimal probability t2112_optimal_a(rho)."""
    a = t2112_optimal_a(rho)
    Q = np.array([[1 - a, a], [a, 1 - a]])
    return StochasticPair(Q, Q.copy())


def omega_rho_t2112(rho: float) -> float:
    """Exponent of the hashing-boosted solver on the rank-5 tensor."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    l5 = np.log(5.0)
    if rho < 1.0 / 3.0:
        base = (6.0 * (1.0 - rho) ** (-rho / 2.0) * (1.0 + rho) ** (rho / 2.0)
                * (1.0 - rho * rho) ** 0.5)
        return float(2.0 * l5 / np.log(base))
    return float(4.0 * l5 / ((5.0 + rho) * np.log(2.0)))


def dubiner_exponent(rho: float) -> float:
    """Reference pure-hashing exponent 2/(1+rho)."""
    return 2.0 / (1.0 + rho)


# ---------------------------------------------------------------------------
# numeric optimizer for gamma
# ---------------------------------------------------------------------------

def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    cond = u - cssv / ind > 0
    rho_idx = ind[cond][-1]
    theta = cssv[cond][-1] / rho_idx
    return np.maximum(v - theta, 0.0)


def optimize_gamma(t: Tensor, P: np.ndarray, n_starts: int = 16,
                   n_iters: int = 500, seed: int = 0,
                   warm_start: StochasticPair | None = None):
    """Multi-start projected coordinate ascent over row-stochastic (Q_x, Q_y).

    Returns (StochasticPair, gamma, converged).  A heuristic lower bound on
    the true maximum; always at least the uniform-Q value and at least any
    supplied warm start.
    """
    q = t.shape.q_i
    if q > 8:
        raise ValueError("optimizer intended for q <= 8")
    P = np.asarray(P, float)

    def val(Qx, Qy):
        try:
            return gamma(StochasticPair(Qx, Qy), t, P)
        except ValueError:
            return -np.inf

    rng = np.random.default_rng(seed)
    best_q, best_v = uniform_pair(q), val(uniform_pair(q).Q_x, uniform_pair(q).Q_y)
    starts = [((uniform_pair(q).Q_x, uniform_pair(q).Q_y))]
    if warm_start is not None:
        starts.append((warm_start.Q_x.copy(), warm_start.Q_y.copy()))
    while len(starts) < n_starts:
        Qx = rng.dirichlet(np.ones(q), size=q)
        Qy = rng.dirichlet(np.ones(q), size=q)
        starts.append((Qx, Qy))

    converged = False
    for Qx0, Qy0 in starts:
        Qx, Qy = Qx0.copy(), Qy0.copy()
        cur = val(Qx, Qy)
        if not np.isfinite(cur):
            continue
        step = 0.25
        for _ in range(n_iters):
            improved = False
            for M in (Qx, Qy):
                for r in range(q):
                    row = M[r].copy()
                    # finite-difference gradient on the row
                    g = np.zeros(q)
                    h = 1e-6
                    for c in range(q):
                        M[r] = _project_simplex(row + h * np.eye(q)[c])
                        g[c] = val(Qx, Qy)
                    M[r] = row
                    base = val(Qx, Qy)
                    g = (g - base) / h
                    cand = _project_simplex(row + step * g)
                    M[r] = cand
                    new = val(Qx, Qy)
                    if new > base + 1e-14:
                        improved = True
                    else:
                        M[r] = row
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    converged = True
                    break
        cur = val(Qx, Qy)
        if cur > best_v:
            best_v = cur
            best_q = StochasticPair(Qx.copy(), Qy.copy())
    return best_q, float(best_v), converged


# ---------------------------------------------------------------------------
# constructive designer (subset-of-matmul tensors)
# ---------------------------------------------------------------------------

class DesignerError(Exception):
    pass


def is_subset_of_matmul(t: Tensor) -> bool:
    """True when every nonzero coefficient sits on an X[i,k] Y[j,k] Z[i,j] slot."""
    c = t.coeff
    qi, qk, qj = t.shape.q_i, t.shape.q_k, t.shape.q_j
    mask = np.zeros_like(c, dtype=bool)
    for i in range(qi):
        for j in range(qj):
            for k in range(qk):
                mask[i, k, j, k, i, j] = True
    return bool(np.all(c[~mask] == 0.0))


def scalar_improvement_holds(a: float, p: float, q: int, eps: float) -> bool:
    """(a + eps)^p (a - eps/(q^2-1))^(1-p) > a, valid for p > 1/q^2, small eps."""
    return (a + eps) ** p * (a - eps / (q * q - 1)) ** (1 - p) > a


def column_permutation_for_mixed_signs(A: np.ndarray):
    """Find a column order under which row 1 of inv(A) carries both signs.

    Prefers columns where every row touching them has a second nonzero entry
    (the constructive choice); falls back to scanning all column orders.
    Returns (permutation, A_permuted).
    """
    q = A.shape[0]
    if np.linalg.matrix_rank(A) < q:
        raise DesignerError("squared-efficacy matrix is singular")

    def mixed(Ap):
        top = np.linalg.inv(Ap)[0]
        return (top > 1e-12).any() and (top < -1e-12).any()

    for j in range(q):
        rows = np.nonzero(A[:, j])[0]
        if all((A[r] != 0).sum() >= 2 for r in rows):
            perm = [j] + [c for c in range(q) if c != j]
            Ap = A[:, perm]
            if mixed(Ap):
                return perm, Ap
    for perm in permutations(range(q)):
        Ap = A[:, list(perm)]
        if mixed(Ap):
            return list(perm), Ap
    raise DesignerError("no column order yields mixed signs in row 1 of inv(A)")


def _align_to_peak(P: np.ndarray):
    """Row/column permutations placing the largest entry of P at (0,0)."""
    i0, j0 = np.unravel_index(np.argmax(P), P.shape)
    q = P.shape[0]
    pr = [i0] + [i for i in range(q) if i != i0]
    pc = [j0] + [j for j in range(q) if j != j0]
    return pr, pc


def design_q_matrices(t: Tensor, P: np.ndarray, eps: float | None = None,
                      eps_grid=(0.3, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01, 0.005,
                                0.002, 0.001)):
    """Constructive stochastic pair with gamma strictly above the uniform value.

    Implements the two-step normalized-matrix construction: boost the (0,0)
    capacity cell by eps while draining eps/(q^2-1) from the rest, realize it
    as N_x A N_y^T via a rank-one row update (delta = q eps/(q+1)) and a
    two-value column structure, then rescale columns to make both matrices
    row-stochastic.  P is first relabeled so its largest entry sits at (0,0),
    which guarantees the boosted cell has P-weight above 1/q^2 for non-uniform
    P.  The y-side parameter b is nonnegative only when eps clears a floor set
    by the first column mean, so candidate column orders and both directions
    of the eps grid are searched until all stochasticity constraints hold.
    """
    if not is_subset_of_matmul(t):
        raise DesignerError("designer requires a subset-of-matmul tensor")
    q = t.shape.q_i
    P = np.asarray(P, float)
    if P.shape != (q, q):
        raise ValueError("P must be q x q")
    if np.allclose(P, 1.0 / (q * q)):
        raise DesignerError("P must not be uniform")

    table = eff_table(t).per_entry
    A0 = table ** 2
    if np.linalg.matrix_rank(A0) < q:
        raise DesignerError("squared-efficacy matrix must have full rank")

    pr, pc = _align_to_peak(P)
    base = eff_table(t).total ** 2 / (q * q)
    diagonal_case = np.allclose(A0, np.diag(np.diag(A0)))

    if diagonal_case:
        # The printed two-step construction cannot realize its capacity matrix
        # here: the row-sum equations force z_1 = 0 (see case1_z_pattern),
        # which empties the boosted bucket column.  A symmetric flip channel
        # aligned to the P peak provably improves on the average instead.
        return _design_diagonal_flip(t, P, A0, base)

    # Input symbols align to P's peak (pr rows, pc columns).  Bucket symbols
    # are free labels: only the y-bucket order matters (it fixes which row of
    # inv(A) the update uses and which column mean sets the b >= 0 floor), so
    # candidate orders start from ascending column means, with the
    # constructive mixed-signs choice as a fallback.
    means = A0.mean(axis=0)
    bucket_orders = []
    for f in np.argsort(means):
        rest = [c for c in range(q) if c != f]
        bucket_orders.append([int(f)] + rest)
    perm, _ = column_permutation_for_mixed_signs(A0)
    if perm not in bucket_orders:
        bucket_orders.append(perm)

    last_err = None
    for sy in bucket_orders:
        A = A0[:, sy]
        Ainv = np.linalg.inv(A)
        top = Ainv[0]
        if not ((top > 1e-12).any() and (top < -1e-12).any()):
            last_err = "no mixed signs in row 1 of inv(A)"
            continue
        c = A.mean(axis=0)
        ctail = c[1:].sum()
        if ctail <= 0:
            last_err = "degenerate column means"
            continue
        # b >= 0 requires eps >= (q+1) (c_1 (1-1/q) - ctail/q)
        eps_floor = max(0.0, (q + 1.0) * (c[0] * (1.0 - 1.0 / q) - ctail / q))
        grid = [eps] if eps is not None else \
            sorted({e for e in eps_grid if e > eps_floor}
                   | ({eps_floor * 1.25, eps_floor + 0.01} if eps_floor > 0
                      else set()), reverse=True)
        for e in grid:
            got = _design_attempt(t, P, A, Ainv, c, ctail, pr, pc, sy, q, e,
                                  base)
            if isinstance(got, str):
                last_err = got
                continue
            return got
    raise DesignerError(f"designer failed on the eps grid: {last_err}")


def case1_z_pattern(q: int) -> np.ndarray:
    """The printed column rescaling for a diagonal capacity matrix: z_1 = 0,
    the rest q/(q-1).  It solves the row-sum equations (every row of
    N_x diag(z) sums to one) but zeroes the boosted bucket column, which is
    why the diagonal branch uses the flip-channel design instead."""
    z = np.full(q, q / (q - 1.0))
    z[0] = 0.0
    return z


def _design_diagonal_flip(t: Tensor, P: np.ndarray, A0: np.ndarray, base):
    """Symmetric flip channel for diagonal capacity matrices.

    Q maps a symbol to itself with weight 1 - a and spreads a over the rest;
    a one-dimensional search for a < (q-1)/q strictly improves on the uniform
    average whenever P is not uniform (at a = (q-1)/q the channel is uniform
    and gamma equals the average)."""
    q = A0.shape[0]
    best = None
    uniform_a = (q - 1.0) / q
    for a in np.linspace(0.0, uniform_a * 0.999, 200):
        Q = (1 - a) * np.eye(q) + (a / (q - 1)) * (np.ones((q, q)) - np.eye(q))
        qp = StochasticPair(Q, Q.copy())
        try:
            g = gamma(qp, t, P)
        except ValueError:
            continue
        if best is None or g > best[1]:
            best = (qp, g, a)
    if best is None or best[1] <= base:
        raise DesignerError(
            "flip-channel search found no improvement for the diagonal case")
    qp, g, a = best
    return qp, float(g), float(uniform_a - a)


def _design_attempt(t, P, A, Ainv, c, ctail, pr, pc, sy, q, e, base):
    delta = q * e / (q + 1.0)
    # N_x = 1/q + row-structured update Delta . A^{-1}
    Nx = np.full((q, q), 1.0 / q)
    Nx[0] += delta * Ainv[0]
    Nx[1:] -= (delta / (q - 1.0)) * Ainv[0]

    # Column rescaling z with all rows of N_x diag(z) summing to 1.  The
    # system has two distinct equations (row 1 and the identical rest); take
    # the solution closest to all-ones so every column stays positive and the
    # column-normalized matrix remains exactly N_x.  (A 2-sparse solution also
    # solves the equations but empties q-2 bucket columns, which destroys the
    # capacity identity for q >= 3.)
    M = np.vstack([Nx[0], Nx[1]])
    try:
        corr = M.T @ np.linalg.solve(M @ M.T, 1.0 - M @ np.ones(q))
    except np.linalg.LinAlgError:
        return "singular row-sum system"
    z = np.ones(q) + corr
    if z.min() <= 1e-9:
        return f"nonpositive column rescaling at eps={e}"
    Qx = Nx * z[None, :]

    b = 1.0 / q - (c[0] * (1.0 - 1.0 / q) - e / (q + 1.0)) / ctail
    if abs(1.0 - b) < 1e-12:
        return "degenerate b = 1"
    NyT = np.zeros((q, q))
    NyT[0, 0] = 1.0
    NyT[1:, 0] = b
    NyT[1:, 1:] = (1.0 - b) / (q - 1.0)
    Ny = NyT.T
    zy = np.zeros(q)
    zy[0] = 1.0 - b * (q - 1.0) / (1.0 - b)
    zy[1:] = 1.0 / (1.0 - b)
    Qy = Ny * zy[None, :]

    ok = (np.all(Qx > -1e-12) and np.all(Qx < 1 + 1e-12)
          and np.all(Qy > -1e-12) and np.all(Qy < 1 + 1e-12)
          and np.abs(Qx.sum(axis=1) - 1).max() < 1e-9
          and np.abs(Qy.sum(axis=1) - 1).max() < 1e-9
          and b >= -1e-12 and zy[0] >= -1e-12)
    if not ok:
        return f"stochasticity violated at eps={e}"

    # undo the relabelings: rows are input symbols aligned by pr / pc, the
    # x-bucket columns kept original labels, the y-bucket columns followed sy
    inv_pr = np.argsort(pr)
    inv_pc = np.argsort(pc)
    inv_sy = np.argsort(sy)
    Qx_full = np.clip(Qx[inv_pr, :], 0.0, 1.0)
    Qy_full = np.clip(Qy[np.ix_(inv_pc, inv_sy)], 0.0, 1.0)
    Qx_full /= Qx_full.sum(axis=1, keepdims=True)
    Qy_full /= Qy_full.sum(axis=1, keepdims=True)
    qp = StochasticPair(Qx_full, Qy_full)
    g = gamma(qp, t, P)
    if g > base:
        return qp, float(g), float(e)
    return f"gamma {g} did not beat the average {base} at eps={e}"


# ---------------------------------------------------------------------------
# type-class capacity (finite-power detection budget)
# ---------------------------------------------------------------------------

def typeclass_capacity(table: np.ndarray, N: int):
    """Enumerate power-N efficacy classes of a base table.

    Cells of the q x q table are grouped by (value, multiplicity); a class is
    a composition of N over the distinct values, with class efficacy the value
    product and class size multinomial(N; counts) * prod(multiplicity^count).
    Returns (values, log_sizes) sorted by descending class efficacy, plus the
    best capacity f^2 * |S| over classes.
    """
    from math import lgamma

    flat = np.asarray(table, float).ravel()
    vals, counts = np.unique(np.round(flat, 12), return_counts=True)
    keep = vals > 0
    vals, counts = vals[keep], counts[keep]
    k = len(vals)

    classes = []

    def rec(idx, remaining, comp):
        if idx == k - 1:
            rec_emit(comp + [remaining])
            return
        for c in range(remaining + 1):
            rec(idx + 1, remaining - c, comp + [c])

    def rec_emit(comp):
        logf = float(np.dot(comp, np.log(vals)))
        logsize = lgamma(N + 1) - sum(lgamma(c + 1) for c in comp)
        logsize += float(np.dot(comp, np.log(counts)))
        classes.append((logf, logsize, tuple(comp)))

    rec(0, N, [])
    classes.sort(key=lambda x: -x[0])
    best = max(2 * lf + ls for lf, ls, _ in classes)
    return classes, float(best)
