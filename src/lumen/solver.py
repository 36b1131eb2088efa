"""End-to-end planted-pair detection.

Uniform solver: every input is copied into t random buckets per side; bucket
sums of expanded +-1 vectors are sign-randomized and multiplied through the
Kronecker power of the chosen tensor; output cells whose standardized score
clears the plan threshold name candidate bucket pairs, whose members are then
verified by their inner products over all d raw bits.  Rounds redraw
buckets, coordinates, and signs; a verified pair ends the run.

Hashing solver: each bucket digit of a copy takes one comparison, a uniform
draw against the chance that Q_x or Q_y keeps that raw bit at digit 0; the
tensor is interleaved with its reflection, detection reads the raw bits XORed
with the sign flips fixed at planning, and the same round driver runs
detection and verification.  A solve reports the final round's strongest
flagged cells.

Each plan builds its detection kernel once, as a Detector: every distinct
planned level is screened numerically, and decompositions whose coefficient
spread would destroy double precision at the planned power are replaced by
the unit-term decomposition of their expanded tensor (dropping coefficients
whose total variance share is negligible, checked and recorded on the plan).
When every executable level is a unit-coefficient subset of matmul, so a 0/1
mask over the matmul slots, detection runs one of two mask kernels and the
variance map is closed form: outer(sizes_x, sizes_y) times the Kronecker
product of each level's kept-slot counts.  The subset_diag kernel (levels
whose diagonal cells keep both k slots and whose off cells keep one, as the
t2112 surrogate does) runs each off-digit mask as one einsum over strided
views of K-major operands whose row digits are rotated so that the mask's
longest run of free digits is contiguous; its per-mask einsum table is built
on the first apply.  The masked_matmul kernel (any other mask, as sw's; an
exact matmul level omits no slot) expands the omitted slots by
inclusion-exclusion into signed BLAS products over fixed-digit sub-blocks,
and is one A @ B.T for matmul.  Other levels run the rank recursion and the
pair-weight variance sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .core import (Decomposition, MultiplyCounter, Rank1Term, Tensor,
                   _interleave, _sweep, _uninterleave, apply_power,
                   reflect_decomposition, tensor_of_decomposition)
from .efficacy import (StochasticPair, eff_table, exponent_bound, gamma,
                       is_subset_of_matmul, rho_joint_matrix,
                       typeclass_capacity)
from .instances import (Instance, SplitFamily, default_subset_size,
                        expand_vectors, map_to_pm1, pack_bits, packed_inner)

__all__ = [
    "SolverPlan",
    "Detector",
    "BucketState",
    "DetectionReport",
    "plan_uniform",
    "bucket_uniform",
    "detect",
    "solve_uniform",
    "plan_lsh",
    "solve_lsh",
    "verify_candidates",
    "verify_threshold",
    "skew_metrics",
    "lemma_checks",
    "PlanError",
]

RANK_BUDGET = 4.0e8        # max prod(rank_l) the engine will run per apply
LEVEL_BUDGET = 14          # max bucket digits (memory: C is q^2L floats)
P_ROUND_MIN = 0.12         # minimum per-round success estimate the planner accepts
SIGMA_CANDIDATES = (10.0, 8.0, 6.0, 5.0, 4.5, 4.0, 3.5)
NOISE_FUDGE = 1.35         # measured inflation of bucket-size noise vs the mean-field model
STABILITY_TOL = 1e-3       # max tolerated relative fp error estimate per apply
SURROGATE_VAR_TOL = 1e-3   # max variance share the surrogate may drop
CAP_PAIRS = 200000         # stop collecting candidate pairs past this many
VERIFY_DELTA = 1e-3        # chance a solve verifies any false pair, at most


class PlanError(Exception):
    pass


@dataclass(frozen=True)
class Detector:
    """How a plan's detection step runs; built once by _build_detector.

    kind is 'subset_diag' (one einsum per off-digit pattern over strided
    views of row-rotated K-major operands), 'masked_matmul' (signed BLAS
    products over the slots each level omits from matmul; one A @ B.T when
    it omits none) or 'sweep' (the rank recursion).  levels are the
    executable per-level decompositions and rank_product the paper's
    prod(rank_l) over the planned ones.  The mask kinds keep counts, each
    level's K_l[i, j] = the k slots it keeps at output (i, j); subset_diag
    keeps forced, the L x 2 array of k digits that the (0,1) and (1,0) off
    cells force; masked_matmul keeps missing, each level's omitted (i, k, j)
    slots; sweep keeps weights, the transposed per-level pair-weight
    matrices of the variance sweep.  dropped_var is the largest variance
    share a surrogate level dropped.
    """
    kind: str
    levels: tuple
    rank_product: int
    dropped_var: float
    counts: tuple = ()
    forced: np.ndarray | None = None
    missing: tuple = ()
    weights: tuple = ()

    @property
    def m(self) -> int:
        """Bucket count per side."""
        return math.prod(d.shape.q_i for d in self.levels)

    @property
    def d_prime(self) -> int:
        """Detection coordinates per round."""
        return math.prod(d.shape.q_k for d in self.levels)

    @property
    def multiplies(self) -> int:
        """Multiplies one apply executes: prod(q_i q_k q_j + |E_l|) for
        masked_matmul, prod(rank_l) of the executable levels otherwise."""
        if self.kind == "masked_matmul":
            return math.prod(d.shape.q_i * d.shape.q_k * d.shape.q_j + len(E)
                             for d, E in zip(self.levels, self.missing))
        return math.prod(d.rank for d in self.levels)

    @cached_property
    def masks(self) -> tuple:
        """The subset_diag kernel's per-mask einsum table, built on the
        first apply rather than while planning."""
        return _subset_diag_masks(self.forced)

    def apply(self, A, B, counter: MultiplyCounter | None = None):
        """Scores C of the sign-flipped m x d' aggregates A and B."""
        if self.kind == "subset_diag":
            return _apply_subset_diag(self.masks, A, B, counter=counter)
        if self.kind == "masked_matmul":
            return _apply_masked_matmul(
                tuple(d.shape for d in self.levels), self.missing, A, B,
                counter=counter)
        return apply_power(self.levels, A, B, dtype=np.float32,
                           counter=counter)

    def variance(self, sizes_x, sizes_y) -> np.ndarray:
        """Exact variance of every score cell given the realized sizes."""
        if self.kind == "sweep":
            return _variance_map(self.weights, sizes_x, sizes_y)
        return _count_variance(self.counts, sizes_x, sizes_y)


@dataclass
class SolverPlan:
    # headline parameters
    N: int                        # Kronecker power of the planning tensor
    g: float                      # target bucket size n t / m
    t: int                        # copies per input per side
    reps: int
    detect_sigma: float
    symmetrized: bool
    detector: Detector            # executable levels and how they run
    # execution detail
    r: int = 2                    # expansion subset size
    rho_det: float = 0.0          # post-expansion correlation of the planted pair
    lsh: bool = False
    qp: StochasticPair | None = None
    flips: tuple = (0, 0)         # XORed into X / Y bits for hashing-path detection
    copies: int = 0               # per-copy count for the hashing path
    # provenance of the closed-form plan quantities
    exponent: float = 0.0         # log rank / log eff (f sqrt|S_f| or q sqrt gamma)
    p_round_est: float = 0.0
    notes: list = field(default_factory=list)

    # read-only views of the detector
    levels = property(lambda self: list(self.detector.levels))
    kernel = property(lambda self: self.detector.kind)
    surrogate_dropped_var = property(lambda self: self.detector.dropped_var)
    m = property(lambda self: self.detector.m)
    d_prime = property(lambda self: self.detector.d_prime)


@dataclass
class BucketState:
    mem_x: np.ndarray            # n x t sorted bucket ids, -1 where a repeat collapsed
    mem_y: np.ndarray
    index_x: tuple               # (rows, starts): bucket i holds rows[starts[i]:starts[i + 1]]
    index_y: tuple
    agg_x: np.ndarray            # m x d' aggregates (before sign flips)
    agg_y: np.ndarray
    signs_x: np.ndarray          # +-1 per bucket row
    signs_y: np.ndarray


@dataclass
class DetectionReport:
    found: bool
    candidates: list             # verified (input_i, input_j) pairs
    flagged: list                # final round's (bucket_i, bucket_j, score), top first
    rounds_run: int
    stats: list                  # per-round dicts


# ---------------------------------------------------------------------------
# plan helpers
# ---------------------------------------------------------------------------

def skew_metrics(S: np.ndarray):
    """Row/column occupancy second moments of an indicator set, plus whether
    the set is regular (all nonempty rows one size, all nonempty columns one)."""
    S = np.asarray(S).astype(bool)
    rows = S.sum(axis=1)
    cols = S.sum(axis=0)
    V_x = int((rows ** 2).sum())
    V_y = int((cols ** 2).sum())
    nz_r = rows[rows > 0]
    nz_c = cols[cols > 0]
    regular = bool((nz_r.size == 0 or (nz_r == nz_r[0]).all())
                   and (nz_c.size == 0 or (nz_c == nz_c[0]).all()))
    return V_x, V_y, regular


def _threshold_choice(table: np.ndarray):
    """Pick the base-level efficacy threshold maximizing f^2 |S_f| over the
    distinct positive values; ties prefer the larger threshold."""
    vals = np.unique(np.round(table[table > 0], 12))[::-1]
    if vals.size == 0:
        raise PlanError("tensor has no positive efficacy entries")
    best = None
    for f in vals:
        S = table >= f - 1e-12
        obj = f * f * S.sum()
        if best is None or obj > best[0] + 1e-12:
            best = (obj, float(f), S)
    return best[1], best[2]


def _is_exact_matmul(t: Tensor) -> bool:
    from .zoo import matmul_tensor
    ref = matmul_tensor(t.shape.q_i, t.shape.q_k)
    return t.shape.q_i == t.shape.q_j and np.array_equal(t.coeff, ref.coeff)


def _stability_scale(d: Decomposition) -> float:
    """Largest |alpha| |beta| |gamma| product over terms: the per-level factor
    by which the recursion can amplify rounding relative to the output."""
    return max(float(np.abs(t.alpha).max() * np.abs(t.beta).max()
                     * np.abs(t.gamma).max()) for t in d.terms)


def _unit_term_decomposition(t: Tensor, var_tol: float):
    """One rank-1 term per retained coefficient of the expanded tensor.

    Coefficients are kept largest-first until the dropped squared mass is
    under var_tol of the total; returns (decomposition, dropped_share).
    """
    c = t.coeff
    flat = np.abs(c.ravel())
    order = np.argsort(flat)[::-1]
    total = float((flat ** 2).sum())
    if total == 0:
        raise PlanError("cannot build a surrogate for the zero tensor")
    kept = []
    acc = 0.0
    for idx in order:
        if flat[idx] == 0:
            break
        kept.append(idx)
        acc += float(flat[idx] ** 2)
        if total - acc <= var_tol * total:
            break
    qi, qk, qj = t.shape.q_i, t.shape.q_k, t.shape.q_j
    terms = []
    for idx in kept:
        i, k, j, kp, ip, jp = np.unravel_index(idx, c.shape)
        a = np.zeros((qi, qk)); a[i, k] = 1.0
        b = np.zeros((qj, qk)); b[j, kp] = 1.0
        coef = c[i, k, j, kp, ip, jp]
        if abs(abs(coef) - 1.0) < 1e-9:
            coef = math.copysign(1.0, coef)
        g = np.zeros((qi, qj)); g[ip, jp] = coef
        terms.append(Rank1Term(a, b, g))
    return Decomposition(t.shape, tuple(terms)), (total - acc) / total


def _unit_mask(t: Tensor):
    """M[i, k, j] = coeff[i, k, j, k, i, j] when t is a unit-coefficient
    subset-of-matmul tensor (every coefficient 0 or 1, on a matmul slot),
    else None."""
    if not (is_subset_of_matmul(t) and np.isin(t.coeff, (0.0, 1.0)).all()):
        return None
    return np.einsum("ikjkij->ikj", t.coeff)


def _subset_diag_pattern(M):
    """For a q = 2 level mask whose diagonal output cells keep both k slots
    and whose off cells keep exactly one, the forced k digits (k at (0,1),
    k at (1,0)); else None."""
    if (M is None or M.shape != (2, 2, 2)
            or not np.array_equal(M.sum(axis=1), [[2, 1], [1, 2]])):
        return None
    return int(M[0, 1, 1]), int(M[1, 1, 0])


def _pair_weight_matrix(t: Tensor) -> np.ndarray:
    """w[(ia,jb),(i,j)] = sum_k sum_k' coeff(ia,k,jb,k' -> i,j)^2, the per-level
    transfer of squared coefficients used by the variance sweep."""
    c2 = t.coeff ** 2
    w = np.einsum("ikjlmn->ijmn", c2)
    qi, qj = t.shape.q_i, t.shape.q_j
    return w.reshape(qi * qj, qi * qj)


def _build_detector(levels) -> Detector:
    """Screen each distinct planned level once and fix how detection runs.

    A level whose coefficient spread would destroy double precision at this
    power is replaced by the unit-term surrogate of its expanded tensor.  The
    kind is 'subset_diag' when every executable level matches the forced/free
    digit pattern, else 'masked_matmul' when every executable level is a
    unit-coefficient subset of matmul, else 'sweep'.
    """
    screened = {}
    for d in levels:
        if id(d) in screened:
            continue
        t = tensor_of_decomposition(d)
        exec_d, exec_t, share = d, t, 0.0
        # relative error estimate of the full recursion: u * scale^L
        if _stability_scale(d) ** len(levels) * 1.1e-16 > STABILITY_TOL:
            exec_d, share = _unit_term_decomposition(t, SURROGATE_VAR_TOL)
            exec_t = tensor_of_decomposition(exec_d)
        screened[id(d)] = (exec_d, exec_t, _unit_mask(exec_t), share)
    exec_levels, tensors, masks, shares = zip(
        *(screened[id(d)] for d in levels))
    common = dict(levels=exec_levels, dropped_var=max(shares),
                  rank_product=math.prod(d.rank for d in levels))
    if any(M is None for M in masks):
        return Detector("sweep", weights=tuple(
            _pair_weight_matrix(t).T for t in tensors), **common)
    counts = tuple(M.sum(axis=1) for M in masks)
    patterns = [_subset_diag_pattern(M) for M in masks]
    if all(p is not None for p in patterns):
        return Detector("subset_diag", counts=counts,
                        forced=np.array(patterns, dtype=np.int64), **common)
    return Detector("masked_matmul", counts=counts, missing=tuple(
        tuple(tuple(map(int, e)) for e in np.argwhere(M == 0))
        for M in masks), **common)


def _free_run_end(off) -> int:
    """The digit r that ends, going down through r - 1, r - 2, ... (mod L),
    the longest run of free (0) digits in off; L - 1 when none is free."""
    L = len(off)
    best, end, run = 0, L - 1, 0
    for l in range(2 * L):       # a second lap sees the runs that wrap
        run = 0 if off[l % L] else min(run + 1, L)
        if run > best:
            best, end = run, l % L
    return end


def _merge_axes(axes, ops: int):
    """Shape and per-operand strides of a row of size-2 axes, each given as
    a tuple of ops strides, with adjacent axes merged wherever every
    operand's outer stride is twice its inner one."""
    shape, strides = [], []
    for st in axes:
        if shape and all(o == 2 * i for o, i in zip(strides[-1], st)):
            shape[-1] *= 2
            strides[-1] = st
        else:
            shape.append(2)
            strides.append(st)
    return tuple(shape), [tuple(st[j] for st in strides) for j in range(ops)]


_SUBSCRIPTS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _subset_diag_masks(forced) -> tuple:
    """The einsum of every off-digit mask of the subset_diag kernel.

    forced is the L x 2 array of k digits forced by the (0,1) and (1,0) off
    cells of each level.  The kernel reads K-major operands At[k, I'] whose
    rows are rotated: in rotation r, row digit l has weight 2^((r - l) mod L),
    so digit r is least significant.  Each mask runs in the rotation whose
    lowest digits are its longest run of free digits, so the einsum's inner
    loop walks that run contiguously.  Returns (r, entries) pairs, r
    descending; an entry is (subscripts, shape, A offset, A strides,
    B offset, B strides, out shape, C shape, C offset, C strides), offsets
    and strides in bytes of float32, C[I, J] in the unrotated order.
    """
    forced = np.asarray(forced).tolist()
    L, size = len(forced), np.dtype(np.float32).itemsize
    m = 1 << L
    w = [1 << (L - 1 - l) for l in range(L)]

    def nbytes(strides):
        return tuple(size * x for x in strides)

    groups: dict = {}
    for mask in range(1 << L):
        off = [mask >> (L - 1 - l) & 1 for l in range(L)]
        r = _free_run_end(off)
        rw = [1 << ((r - l) % L) for l in range(L)]
        offs = [l for l in range(L) if off[l]]
        free = [l for l in range(L) if not off[l]]
        rows = sorted(free, key=lambda l: -rw[l])
        # At[k, I'] sits at k m + I'.  Off digit chi reads A[chi, f] and
        # B[1 - chi, f], f = forced[l][chi], into C[chi, 1 - chi]; free
        # digits range over I = J (kept) and over k (summed)
        k_step = [(forced[l][1] - forced[l][0]) * w[l] * m for l in offs]
        k0 = sum(forced[l][0] * w[l] for l in offs) * m
        c, (cA, cB) = _merge_axes([(rw[l] + d, d - rw[l])
                                   for l, d in zip(offs, k_step)], 2)
        k, (kA,) = _merge_axes([(w[l] * m,) for l in free], 1)
        s, (sA,) = _merge_axes([(rw[l],) for l in rows], 1)
        cells, (cC,) = _merge_axes([(w[l] * (m - 1),) for l in offs]
                                   + [(w[l] * (m + 1),) for l in rows], 1)
        ci = _SUBSCRIPTS[:len(c)]
        ki = _SUBSCRIPTS[len(c):len(c + k)]
        si = _SUBSCRIPTS[len(c + k):len(c + k + s)]
        groups.setdefault(r, []).append((
            f"{ci}{ki}{si},{ci}{ki}{si}->{ci}{si}", c + k + s,
            size * k0, nbytes(cA + kA + sA),
            size * (k0 + sum(rw[l] for l in offs)), nbytes(cB + kA + sA),
            c + s, cells, size * sum(w[l] for l in offs), nbytes(cC)))
    return tuple(sorted(groups.items(), reverse=True))


def _rotate_rows(M: np.ndarray, digits: int, tmp: np.ndarray):
    """Move the lowest digits of M's column index to its top, in place, a
    block of len(tmp) rows at a time."""
    lo = 1 << digits
    hi = M.shape[1] // lo
    for i in range(0, len(M), len(tmp)):
        block = M[i:i + len(tmp)]
        np.copyto(tmp.reshape(-1, lo, hi),
                  block.reshape(-1, hi, lo).transpose(0, 2, 1))
        block[...] = tmp


def _apply_subset_diag(masks, A, B, counter: MultiplyCounter | None = None):
    """Exact application of unit-coefficient diag-free/off-forced tensors.

    masks is the Detector's _subset_diag_masks table.  Every output pair
    (I, J) determines its off digits (where I and J disagree) and with them
    the forced k digits; the remaining digits contribute a plain inner
    product.  So each off-digit mask is one einsum over strided views of the
    K-major operands, summing the free k digits and keeping the free row
    digits.  A and B are transposed once and their rows rotated in place
    from one rotation to the next; no mask copies an operand.  The multiply
    count is exactly prod(rank_l), as in the rank recursion.
    """
    m = A.shape[0]
    L = m.bit_length() - 1
    # one allocation, returned whole when freed: two left heap holes that
    # the variance map then allocated around, raising peak RSS
    At, Bt = np.empty((2, m, m), dtype=np.float32)
    tmp = np.empty((min(m, 128), m), dtype=np.float32)
    for i in range(0, m, len(tmp)):     # a block at a time stays in cache
        At[:, i:i + len(tmp)] = A[i:i + len(tmp)].T
        Bt[:, i:i + len(tmp)] = B[i:i + len(tmp)].T
    C = np.empty((m, m), dtype=np.float32)    # each cell is in one mask
    out = np.empty(m, dtype=np.float32)
    rotation = L - 1
    for r, entries in masks:
        if r != rotation:
            _rotate_rows(At, rotation - r, tmp)
            _rotate_rows(Bt, rotation - r, tmp)
            rotation = r
        for sub, shape, oa, sa, ob, sb, dshape, cshape, oc, sc in entries:
            D = out[:math.prod(dshape)].reshape(dshape)
            np.einsum(sub, np.ndarray(shape, np.float32, At, oa, sa),
                      np.ndarray(shape, np.float32, Bt, ob, sb), out=D)
            np.ndarray(cshape, np.float32, C, oc, sc)[...] = D.reshape(cshape)
    if counter is not None:
        counter.add(6 ** L)      # 2 x 2 diagonal and 2 off products a level
    return C


def _fix_digit(X, q_row, q_col, p: int, r: int, c: int) -> np.ndarray:
    """The 4-d view of the prod(q_row) x prod(q_col) matrix X on the rows
    whose digit p is r and the columns whose digit p is c."""
    X = X.reshape(math.prod(q_row[:p]), q_row[p], math.prod(q_row[p + 1:]),
                  math.prod(q_col[:p]), q_col[p], math.prod(q_col[p + 1:]))
    return X[:, r, :, :, c, :]


def _apply_masked_matmul(shapes, missing, A, B,
                         counter: MultiplyCounter | None = None,
                         start: int = 0):
    """Exact application of unit-coefficient subset-of-matmul levels.

    shapes are the levels' TensorShapes and missing their omitted (i, k, j)
    slots E_l.  C[I, J] = sum_K A[I, K] B[J, K] prod_l (1 - [slot l in E_l]),
    expanded by inclusion-exclusion: every choice of "free" or one omitted
    slot per level is one BLAS product between the fixed-digit sub-blocks of
    A and B, signed into the matching sub-block of C.  The choices nest: C
    starts as A @ B.T, and each omitted slot (i, k, j) of a level p >= start
    subtracts, on the rows and columns whose digit p is i and j, the product
    of the sub-blocks whose digits p are (i, k) and (j, k) with only levels
    after p masked (the recursion's start).  With every E_l empty this is
    exactly one A @ B.T.  Executes prod_l(q_i q_k q_j + |E_l|) multiplies:
    9^L for sw, m d' m for matmul.

    Exactness: each K of a cell is counted by at most one pending term, so
    every partial sum, inside each product and between them, is a sum of
    A[I, K] B[J, K] over some set of K.  On integer operands C is therefore
    exact in float32, in any summation order, whenever
    sum_K |A[I, K] B[J, K]| < 2^24 for every cell: the bound of the single
    float32 A @ B.T, at any level count, so no float64 accumulator is needed.
    """
    C = A @ B.T
    if counter is not None:
        counter.add(A.shape[0] * A.shape[1] * B.shape[0])
    qi, qk, qj = ([s.q_i for s in shapes], [s.q_k for s in shapes],
                  [s.q_j for s in shapes])
    for p in range(start, len(shapes)):
        rest = shapes[:p] + shapes[p + 1:]
        rest_missing = missing[:p] + missing[p + 1:]
        for i, k, j in missing[p]:
            a = _fix_digit(A, qi, qk, p, i, k)
            b = _fix_digit(B, qj, qk, p, j, k)
            sub = _apply_masked_matmul(
                rest, rest_missing, a.reshape(-1, A.shape[1] // qk[p]),
                b.reshape(-1, B.shape[1] // qk[p]), counter, p)
            block = _fix_digit(C, qi, qj, p, i, j)
            block -= sub.reshape(block.shape)
    return C


def _count_variance(counts, sizes_x, sizes_y) -> np.ndarray:
    """Exact realized-size variance of a unit-coefficient subset-of-matmul
    plan: V = outer(sizes_x, sizes_y) * (K_1 kron ... kron K_L), K_l[i, j]
    the k slots level l keeps at (i, j).  The Kronecker factors are split
    in two halves, so no m x m array is built besides V."""
    h = len(counts) // 2
    KA = reduce(np.kron, counts[:h], np.ones((1, 1)))
    KB = reduce(np.kron, counts[h:], np.ones((1, 1)))
    (a, a2), (b, b2) = KA.shape, KB.shape
    rows = sizes_x.reshape(a, b, 1, 1) * KA.reshape(a, 1, a2, 1)
    cols = sizes_y.reshape(1, 1, a2, b2) * KB.reshape(1, b, 1, b2)
    return (rows * cols).reshape(a * b, a2 * b2)


def _variance_map(weights, sizes_x, sizes_y) -> np.ndarray:
    """Exact realized-size variance of every output cell.

    var[I,J] = sum_{ia,jb} prod_l w_l[(ia_l,jb_l),(I_l,J_l)] |X_ia| |Y_jb|,
    evaluated by sweeping the transposed per-level (q^2 x q^2) transfer
    matrices in weights over the interleaved outer product of the size
    vectors.  Levels are square (q_i = q_j), as the m x m bucket grid is.
    """
    qs = [math.isqrt(W.shape[0]) for W in weights]
    sizes = _interleave(np.outer(sizes_x, sizes_y), qs, qs, np.float64)
    return _uninterleave(_sweep(sizes, weights), qs, qs)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _estimate_p_round(classes, lam: float, rho_det: float, sigma: float,
                      t_copies: int, matmul_like: bool):
    """Per-round probability estimate that some planted copy pair lands in a
    detectable class and clears the threshold."""
    if matmul_like:
        noise = 1.0 + lam
    else:
        noise = math.sqrt((1.0 + lam) * max(lam, 0.6)) * NOISE_FUDGE
    mass = 0.0
    log_space = math.log(sum(math.exp(ls) for _, ls, _ in classes))
    for logf, logsize, _ in classes:
        frac = math.exp(logsize - log_space)
        signal = rho_det * math.exp(logf) / noise
        mass += frac * _phi(signal - sigma)
    lam_hit = (t_copies ** 2) * mass
    return 1.0 - math.exp(-lam_hit)


# ---------------------------------------------------------------------------
# uniform plan
# ---------------------------------------------------------------------------

def _default_reps(n: int) -> int:
    if n <= (1 << 14):
        return 25
    return math.ceil(100 * math.log(n))


def plan_uniform(n: int, rho: float, decomp: Decomposition, d: int,
                 reps: int | None = None,
                 detect_sigma: float | None = None) -> SolverPlan:
    """Derive run parameters for the uniform-bucket solver on n d-bit inputs.

    The threshold pair (f, S_f) and the implied exponent follow the base-level
    f^2 |S_f| maximization; skewed threshold sets switch the plan to the
    reflection-symmetrized tensor.  The operational power N, copy count, and
    score threshold come from a feasibility scan of the power-N efficacy
    classes at this instance size: the smallest configuration whose estimated
    per-round success clears P_ROUND_MIN is kept (the asymptotic constants
    would demand powers far past what double precision and desk runtimes
    support; the scan is recorded on the plan).  d is required; reps < 1 and
    a non-positive detect_sigma raise PlanError.
    """
    _check_run_options(reps, detect_sigma)
    t0 = tensor_of_decomposition(decomp)
    table0 = eff_table(t0)
    if table0.total <= 1.0:
        raise PlanError(f"eff(T) = {table0.total} <= 1: no plan exists")
    f, S_f = _threshold_choice(table0.per_entry)
    V_x, V_y, _ = skew_metrics(S_f)
    symmetrized = not (V_x <= S_f.sum() ** 1.5 + 1e-9
                       and V_y <= S_f.sum() ** 1.5 + 1e-9)

    if symmetrized:
        base_levels = [decomp, reflect_decomposition(decomp)]
        level_table = np.kron(table0.per_entry, table0.per_entry.T)
        q_lvl = t0.shape.q_i ** 2
        rank_lvl = decomp.rank ** 2
        qk_lvl = t0.shape.q_k ** 2
    else:
        base_levels = [decomp]
        level_table = table0.per_entry
        q_lvl = t0.shape.q_i
        rank_lvl = decomp.rank
        qk_lvl = t0.shape.q_k

    matmul_like = _is_exact_matmul(t0)
    reps = reps if reps is not None else _default_reps(n)

    best = None
    fallback = None
    N = 1
    while rank_lvl ** (N) <= RANK_BUDGET and N * len(base_levels) <= LEVEL_BUDGET:
        m = q_lvl ** N
        classes, _ = typeclass_capacity(level_table, N)
        # expansion comes per candidate N: coordinates per round
        try:
            r = default_subset_size(d, rho, qk_lvl ** N * (reps + 1))
        except ValueError:
            N += 1
            continue
        rho_det = rho ** r
        for t_copies in (1, 2, 3):
            lam = n * t_copies / m
            if lam > 64:
                continue
            for sigma in (SIGMA_CANDIDATES if detect_sigma is None
                          else (detect_sigma,)):
                p = _estimate_p_round(classes, lam, rho_det, sigma, t_copies,
                                      matmul_like)
                cand = (p, sigma, t_copies, r, rho_det, N)
                if fallback is None or cand[0] > fallback[0]:
                    fallback = cand
                if _meets_target(p, reps):
                    # among feasible configs at this N keep the highest
                    # per-round success; ties favor the larger threshold
                    if (best is None or cand[0] > best[0] + 0.02
                            or (abs(cand[0] - best[0]) <= 0.02
                                and cand[1] > best[1])):
                        best = cand
        if best is not None:
            break
        N += 1
    if best is None:
        if fallback is None:
            raise PlanError(
                f"no runnable configuration for n={n}, rho={rho} within the "
                f"rank budget")
        best = fallback
    p, sigma, t_copies, r, rho_det, N = best
    _require_verifiable(rho, d, reps)

    detector = _build_detector(base_levels * N)
    return SolverPlan(
        N=N, g=n * t_copies / detector.m,
        t=t_copies, reps=reps, detect_sigma=float(sigma),
        symmetrized=symmetrized, detector=detector, r=r, rho_det=rho_det,
        exponent=exponent_bound(decomp.rank, f * math.sqrt(S_f.sum())),
        p_round_est=p, notes=_plan_notes(p, reps, detector),
    )


def verify_threshold(d: int, reps: int) -> float:
    """Least raw +-1 inner product that verifies.  An independent pair
    reaches tau over d bits with chance at most exp(-tau^2 / 2d) (Hoeffding);
    a solve checks about reps * CAP_PAIRS pairs at most, so this tau keeps
    its chance of verifying any false pair under VERIFY_DELTA."""
    return math.sqrt(2.0 * d * math.log(reps * CAP_PAIRS / VERIFY_DELTA))


def _require_verifiable(rho: float, d: int, reps: int):
    """Refuse a plan whose planted pair's mean raw score rho d is below tau."""
    tau = verify_threshold(d, reps)
    if rho * d < tau:
        raise PlanError(f"rho * d = {rho * d:.1f} is below the verification "
                        f"threshold {tau:.1f} at d={d}, reps={reps}")


def _check_run_options(reps, detect_sigma):
    """Refuse reps < 1 and a detect_sigma that is not > 0 (NaN included)."""
    if reps is not None and reps < 1:
        raise PlanError(f"reps = {reps} is below 1")
    if detect_sigma is not None and not detect_sigma > 0:
        raise PlanError(f"detect_sigma = {detect_sigma} is not positive")


def _meets_target(p: float, reps: int) -> bool:
    """p reaches P_ROUND_MIN and all reps rounds miss with chance <= 2%."""
    return p >= P_ROUND_MIN and (1.0 - p) ** reps <= 0.02


def _plan_notes(p: float, reps: int, detector: Detector) -> list:
    notes = [] if _meets_target(p, reps) else [
        f"per-round success estimate {p:.3f} is below the planning target; "
        f"recovery may need more repetitions"]
    if detector.dropped_var != 0:
        notes.append("detection decomposition replaced by unit-term surrogate;"
                     f" dropped variance share {detector.dropped_var:.2e}")
    return notes


# ---------------------------------------------------------------------------
# bucketing and detection
# ---------------------------------------------------------------------------

def _dedupe_rows(mem: np.ndarray) -> np.ndarray:
    """Sort each row's bucket ids and collapse repeats within a row to -1."""
    out = np.sort(mem.astype(np.int64), axis=1)
    out[:, 1:][out[:, 1:] == out[:, :-1]] = -1
    return out


def _bucket_index(mem: np.ndarray, m: int):
    """(rows, starts) of deduplicated memberships from one stable argsort:
    the member rows bucket by bucket, ascending within each, and the m + 1
    offsets where each bucket begins."""
    order = np.argsort(mem.ravel(), kind="stable")[np.count_nonzero(mem < 0):]
    return (order // mem.shape[1],
            np.searchsorted(mem.ravel()[order], np.arange(m + 1)))


def bucket_aggregate(expanded_bits: np.ndarray, rows: np.ndarray,
                     starts: np.ndarray) -> np.ndarray:
    """The m x d' float32 sums of each bucket's expanded +-1 rows: its size
    minus twice its count of one bits.  reduceat gives an empty segment an
    element, not 0, so only the non-empty buckets go through it."""
    sizes = np.diff(starts)
    full = np.flatnonzero(sizes)
    out = np.zeros((sizes.size, expanded_bits.shape[1]), dtype=np.float32)
    out[full] = np.add.reduceat(expanded_bits[rows], starts[full], axis=0,
                                dtype=np.int32)
    out *= -2
    out += sizes[:, None]
    return out


def bucket_uniform(instance: Instance, plan: SolverPlan, seed,
                   offset: int | None = None) -> BucketState:
    """Draw t uniform bucket ids per input per side and aggregate the expanded
    vectors."""
    rng = np.random.default_rng(seed)
    n, m, t = instance.n, plan.m, plan.t
    mem_x = rng.integers(0, m, size=(n, t))
    mem_y = rng.integers(0, m, size=(n, t))
    if offset is None:
        offset = int(rng.integers(SplitFamily(instance.d, plan.r).size))
    return _bucket_state(instance.X, instance.Y, mem_x, mem_y, plan, offset,
                         rng)


def _bucket_state(bits_x, bits_y, mem_x, mem_y, plan: SolverPlan,
                  offset: int, rng) -> BucketState:
    """Shared tail of both bucketers: collapse duplicate ids, index and sum
    each side's buckets at window offset, and draw one sign per bucket row."""
    m = plan.m
    mem_x = _dedupe_rows(mem_x)
    mem_y = _dedupe_rows(mem_y)
    index_x, index_y = _bucket_index(mem_x, m), _bucket_index(mem_y, m)
    ex = expand_vectors(bits_x, plan.r, plan.d_prime, offset)
    ey = expand_vectors(bits_y, plan.r, plan.d_prime, offset)
    agg_x = bucket_aggregate(ex, *index_x)
    agg_y = bucket_aggregate(ey, *index_y)
    signs_x = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    signs_y = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    return BucketState(mem_x, mem_y, index_x, index_y, agg_x, agg_y,
                       signs_x, signs_y)


def detect(state: BucketState, plan: SolverPlan,
            counter: MultiplyCounter | None = None,
            return_scores: bool = False):
    """Score every bucket pair and flag |C|/sigma above the plan threshold.

    sigma is the square root of the realized-size variance map; cells with
    zero variance never flag.
    """
    A = state.agg_x * state.signs_x[:, None]
    B = state.agg_y * state.signs_y[:, None]
    C = plan.detector.apply(A, B, counter=counter)
    V = plan.detector.variance(np.diff(state.index_x[1]),
                               np.diff(state.index_y[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.abs(C) / np.sqrt(V)
    score[~np.isfinite(score)] = 0.0
    ii, jj = np.nonzero(score >= plan.detect_sigma)
    flags = [(int(i), int(j), float(score[i, j])) for i, j in zip(ii, jj)]
    if return_scores:
        return flags, score, C, V
    return flags


def verify_candidates(instance: Instance, keys, plan: SolverPlan,
                      words_x: np.ndarray, words_y: np.ndarray):
    """The distinct pairs (a, b) of the keys a * n + b, sorted, whose +-1
    inner product over all d bits reaches verify_threshold(d, plan.reps);
    words_x / words_y pack the bits, sign-flipped on the hashing path."""
    ai, bj = np.divmod(np.unique(np.asarray(keys, dtype=np.int64)),
                       instance.n)
    inner = packed_inner(words_x[ai], words_y[bj], instance.d)
    ok = inner >= verify_threshold(instance.d, plan.reps)
    return list(zip(ai[ok].tolist(), bj[ok].tolist()))


def _collect_candidates(state: BucketState, flags):
    """Keys a * n + b of the member pairs (a, b) of each flagged bucket
    pair, in flag order; stops past CAP_PAIRS."""
    n = state.mem_x.shape[0]
    (rows_x, starts_x), (rows_y, starts_y) = state.index_x, state.index_y
    keys, total = [np.zeros(0, dtype=np.int64)], 0
    for i, j, _ in flags:
        mx = rows_x[starts_x[i]:starts_x[i + 1]]
        my = rows_y[starts_y[j]:starts_y[j + 1]]
        keys.append((mx[:, None] * n + my).ravel())
        total += keys[-1].size
        if total > CAP_PAIRS:
            break
    return np.concatenate(keys)


def _run_rounds(instance: Instance, plan: SolverPlan, seed: int, stream: int,
                draw, bits_x, bits_y, counter) -> DetectionReport:
    """The round loop both solvers share.

    Round k draws its buckets with draw(k, rng, offset) from the round's own
    RNG (spawn key (stream, k)) at a window offset that advances d' per
    round; members of flagged bucket pairs are verified on packed bits_x /
    bits_y.  Stops after the first round that verifies a pair, and reports
    that round's flags, strongest first, at most 1000.
    """
    words_x, words_y = pack_bits(bits_x), pack_bits(bits_y)
    master = np.random.SeedSequence(seed)
    fam = SplitFamily(instance.d, plan.r)
    base_offset = int(np.random.default_rng(master.spawn(1)[0]).integers(fam.size))
    stats = []
    flags: list = []
    candidates: list = []
    for k in range(plan.reps):
        ss = np.random.SeedSequence(entropy=master.entropy, spawn_key=(stream, k))
        rng = np.random.default_rng(ss)
        offset = (base_offset + k * plan.d_prime) % fam.size
        state = draw(k, rng, offset)
        flags = detect(state, plan, counter=counter)
        cand = _collect_candidates(state, flags)
        candidates = verify_candidates(instance, cand, plan, words_x, words_y)
        stats.append({"round": k, "flags": len(flags),
                      "verified": len(candidates)})
        if candidates:
            break
    flagged = sorted(flags, key=lambda f: -f[2])[:1000]
    return DetectionReport(bool(candidates), candidates, flagged, len(stats),
                           stats)


def solve_uniform(instance: Instance, decomp: Decomposition,
                  plan: SolverPlan | None = None, seed: int = 0,
                  counter: MultiplyCounter | None = None) -> DetectionReport:
    """Run up to plan.reps independent bucket+detect rounds with fresh
    expansion windows; flagged buckets' member pairs are verified on their
    raw bits.  Stops after the first round that verifies a pair.  An empty
    candidate list means nothing survived verification."""
    if plan is None:
        plan = plan_uniform(instance.n, instance.rho, decomp, d=instance.d)

    def draw(k, rng, offset):
        return bucket_uniform(instance, plan, rng, offset=offset)

    return _run_rounds(instance, plan, seed, 1, draw, instance.X, instance.Y,
                       counter)


# ---------------------------------------------------------------------------
# hashing plan and solver
# ---------------------------------------------------------------------------

def plan_lsh(n: int, P: np.ndarray, decomp: Decomposition, qp: StochasticPair,
             d: int, reps: int | None = None,
             detect_sigma: float | None = None) -> SolverPlan:
    """Parameters for the hashing-boosted solver on n d-coordinate inputs.

    N solves (q^2 gamma)^N = 20 n (the polynomial analysis slack is dropped at
    this scale); buckets live on q^(2N) digit strings, each copy drawn by
    pushing 2N raw coordinates through Q_x then Q_y (mirrored on the y side).
    reps and detect_sigma are checked as in plan_uniform; P must be 2 x 2.
    """
    _check_run_options(reps, detect_sigma)
    P = np.asarray(P, float)
    if P.shape != (2, 2):
        raise PlanError(f"the hashing solver needs q = 2; P is {P.shape}")
    t0 = tensor_of_decomposition(decomp)
    q = t0.shape.q_i
    g = gamma(qp, t0, P)
    if g <= 1.0 / q:
        raise PlanError(f"gamma = {g} <= 1/q: hashing cannot beat the trivial bound")
    N = max(1, math.ceil(math.log(20.0 * n) / math.log(q * q * g)))
    while (decomp.rank ** (2 * N) > RANK_BUDGET or 2 * N > LEVEL_BUDGET) and N > 1:
        N -= 1
    m = q ** (2 * N)
    qk = t0.shape.q_k
    reps = reps if reps is not None else _default_reps(n)

    table = eff_table(t0).per_entry
    # planted bucket digit law per level: T levels see (Q_x x, Q_y y), the
    # reflected levels (Q_y x, Q_x y) with the efficacy table transposed
    PD_t = qp.Q_x.T @ P @ qp.Q_y
    PD_r = qp.Q_y.T @ P @ qp.Q_x
    # conservative per-round estimate via the digit agreement law
    mapping = map_to_pm1(P)
    # q = 2: the balanced map's sign bit of b is b ^ (sign bit of symbol 0)
    flips = (int(mapping.g[0] < 0), int(mapping.h[0] < 0))
    _require_verifiable(mapping.rho_out, d, reps)
    r = default_subset_size(d, mapping.rho_out, (qk ** (2 * N)) * (reps + 1))
    rho_det = mapping.rho_out ** r

    sigma_grid = SIGMA_CANDIDATES if detect_sigma is None else (detect_sigma,)
    best = None
    for g_target in [2 ** e for e in range(0, 2 * N)]:
        c = max(1, round(m * g_target / n))
        lam = n * c / m
        if lam > 64:
            break
        p_est, sig_best = 0.0, sigma_grid[0]
        for sigma in sigma_grid:
            p = _lsh_p_round(table, PD_t, PD_r, N, lam, rho_det, sigma)
            if p > p_est:
                p_est, sig_best = p, sigma
        if best is None or p_est > best[0]:
            best = (p_est, c, sig_best, g_target)
        if p_est >= 0.5:
            break
    p_est, c, sigma, g_target = best

    detector = _build_detector([decomp, reflect_decomposition(decomp)] * N)
    return SolverPlan(
        N=N, g=float(g_target),
        t=1, reps=reps, detect_sigma=float(sigma),
        symmetrized=True, detector=detector, r=r, rho_det=rho_det,
        lsh=True, qp=qp, flips=flips, copies=c,
        exponent=exponent_bound(decomp.rank, q * math.sqrt(g)),
        p_round_est=p_est, notes=_plan_notes(p_est, reps, detector),
    )


def _lsh_p_round(table, PD_t, PD_r, N, lam, rho_det, sigma):
    """Estimate via per-digit efficacy distribution of the planted bucket pair."""
    logeffs = []
    probs = []
    q = table.shape[0]
    for PD, tab in ((PD_t, table), (PD_r, table.T)):
        le = []
        pr = []
        for i in range(q):
            for j in range(q):
                if tab[i, j] > 0 and PD[i, j] > 0:
                    le.append(math.log(tab[i, j]))
                    pr.append(PD[i, j])
        z = sum(pr)
        logeffs.append(le)
        probs.append([p / z for p in pr])
    # Monte-Carlo-free heuristic: treat log-eff digits as independent and use
    # a normal approximation of their sum
    mus = []
    vas = []
    for le, pr in zip(logeffs, probs):
        mu = sum(p * x for p, x in zip(pr, le))
        va = sum(p * x * x for p, x in zip(pr, le)) - mu * mu
        mus.append(mu)
        vas.append(va)
    mu = N * (mus[0] + mus[1])
    sd = math.sqrt(max(N * (vas[0] + vas[1]), 1e-12))
    noise = math.sqrt((1.0 + lam) * max(lam, 0.6))
    # probability over the digit law that the class signal clears sigma + 0.5
    need = math.log(max((sigma + 0.5) * noise / max(rho_det, 1e-12), 1e-12))
    return 1.0 - _phi((need - mu) / sd)


def _lsh_memberships(bits: np.ndarray, stay, copies: int, rng):
    """Bucket ids of every copy: digit l is 1 when a uniform draw reaches
    stay[l][b], the chance that level l's Q keeps raw bit b = bits[:, l] at
    digit 0, so ids stay below 2^len(stay)."""
    mem = np.zeros((bits.shape[0], copies), dtype=np.int64)
    for l, s in enumerate(stay):
        mem = mem * 2 + (rng.random(mem.shape) >= s[bits[:, l]][:, None])
    return mem


def solve_lsh(instance: Instance, decomp: Decomposition,
              qp: StochasticPair | None = None, plan: SolverPlan | None = None,
              seed: int = 0,
              counter: MultiplyCounter | None = None) -> DetectionReport:
    """Hashing-boosted solve: bucket ids from Q-perturbed raw coordinates,
    detection on sign-flipped fresh coordinates through the symmetrized
    tensor.  Stops after the first round that verifies a pair."""
    if plan is None:
        if qp is None:
            raise ValueError("need a stochastic pair or a prebuilt plan")
        P = (instance.P if instance.P is not None
             else rho_joint_matrix(instance.rho))
        plan = plan_lsh(instance.n, P, decomp, qp, d=instance.d)
    # detection expands windows of the sign-flipped bits
    bits_x = instance.X ^ np.uint8(plan.flips[0])
    bits_y = instance.Y ^ np.uint8(plan.flips[1])

    L = 2 * plan.N
    stay_x, stay_y = plan.qp.Q_x[:, 0], plan.qp.Q_y[:, 0]
    stays_x = [stay_x, stay_y] * plan.N     # levels alternate T, reflection
    stays_y = [stay_y, stay_x] * plan.N

    def draw(k, rng, offset):
        start = (k * L) % max(instance.d - L, 1)
        win_x = instance.X[:, start:start + L]
        win_y = instance.Y[:, start:start + L]
        mem_x = _lsh_memberships(win_x, stays_x, plan.copies, rng)
        mem_y = _lsh_memberships(win_y, stays_y, plan.copies, rng)
        return _bucket_state(bits_x, bits_y, mem_x, mem_y, plan, offset, rng)

    return _run_rounds(instance, plan, seed, 2, draw, bits_x, bits_y, counter)


# ---------------------------------------------------------------------------
# probabilistic lemma suite
# ---------------------------------------------------------------------------

def lemma_checks(seed: int = 0, draws: int = 100000, n_matrices: int = 20,
                 n_sets: int = 20) -> dict:
    """Monte-Carlo and exhaustive validation of the three probabilistic facts
    backing the bucketing analysis.

    (a) random sign vectors keep |sum a_i b_j P_ij| >= |P_11| with chance 1/4;
    (b) random index sets of size >= q/sqrt(|S|) hit a low-skew S with chance
        1/4;
    (c) regular sets satisfy V_x V_y <= |S|^3, exhaustively on [4]^2.
    """
    rng = np.random.default_rng(seed)
    report = {}

    freqs = []
    for _ in range(n_matrices):
        P = rng.standard_normal((6, 6))
        a = 1.0 - 2.0 * rng.integers(0, 2, size=(draws, 6))
        b = 1.0 - 2.0 * rng.integers(0, 2, size=(draws, 6))
        vals = np.einsum("bi,ij,bj->b", a, P, b)
        freqs.append(float((np.abs(vals) >= abs(P[0, 0])).mean()))
    sig = math.sqrt(0.25 * 0.75 / draws)
    report["sign_lemma"] = {
        "min_freq": min(freqs), "bound": 0.25 - 3 * sig,
        "pass": min(freqs) >= 0.25 - 3 * sig}

    q = 8
    set_draws = 20000
    rates = []
    made = 0
    while made < n_sets:
        size = int(rng.integers(2, 17))
        idx = rng.choice(q * q, size=size, replace=False)
        S = np.zeros((q, q), dtype=bool)
        S[idx // q, idx % q] = True
        V_x, V_y, _ = skew_metrics(S)
        s = S.sum()
        if V_x > s ** 1.5 or V_y > s ** 1.5:
            continue
        made += 1
        k = math.ceil(q / math.sqrt(s))
        # uniform k-subsets on both sides via argsort of random keys
        sx = np.argsort(rng.random((set_draws, q)), axis=1)[:, :k]
        sy = np.argsort(rng.random((set_draws, q)), axis=1)[:, :k]
        hit = S[sx[:, :, None], sy[:, None, :]].any(axis=(1, 2))
        rates.append(float(hit.mean()))
    sig2 = math.sqrt(0.25 * 0.75 / set_draws)
    report["rectangle_lemma"] = {
        "min_rate": min(rates), "bound": 0.25 - 3 * sig2,
        "pass": min(rates) >= 0.25 - 3 * sig2}

    # exhaustive regular-set check on [4]^2
    masks = np.arange(1 << 16, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(16)) & 1).astype(np.int64)
    grid = bits.reshape(-1, 4, 4)
    rows = grid.sum(axis=2)
    cols = grid.sum(axis=1)

    def _uniform_nonzero(counts):
        mx = counts.max(axis=1)
        masked = np.where(counts == 0, mx[:, None], counts)
        return masked.min(axis=1) == mx

    regular = _uniform_nonzero(rows) & _uniform_nonzero(cols)
    sizes = grid.sum(axis=(1, 2))
    V_x = (rows ** 2).sum(axis=1)
    V_y = (cols ** 2).sum(axis=1)
    ok = (~regular) | (V_x * V_y <= sizes.astype(np.int64) ** 3)
    report["regular_lemma"] = {
        "n_regular": int(regular.sum()), "violations": int((~ok).sum()),
        "pass": bool(ok.all())}

    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report
