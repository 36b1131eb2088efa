"""End-to-end planted-pair detection.

Uniform solver: every input is copied into t random buckets per side; bucket
sums of expanded +-1 vectors are sign-randomized and multiplied through the
Kronecker power of the chosen tensor; output cells whose standardized score
clears the plan threshold name candidate bucket pairs, whose members are then
verified by their inner products over all d raw bits.  Rounds redraw
buckets, coordinates, and signs; a verified pair ends the run.

Hashing solver: each bucket digit of a copy takes one comparison, a uniform
draw against the chance that Q_x or Q_y keeps that raw bit at digit 0; the
tensor is interleaved with its reflection, and the same round driver runs
detection and verification on the raw bits.  When P anti-correlates the raw
bits, the sign map complements one side; every expansion window is the
parity of an even number r of bits, which that complement leaves as it is,
so only verification reads the plan's one flip bit and negates the inner
product.  A solve reports the final round's strongest flagged cells.

Each plan builds its detection kernel once, as a Detector, screening every
distinct planned level.  The planted products reach the planted cell only
through the matmul slots, so a level detects through its matmul slots of
coefficient 1: a 0/1 mask over the matmul slots (strassen, sw) keeps its
own decomposition, and any other level with such slots (t2112 at every
eps) runs the unit terms of exactly those slots, the squared-mass share
it drops recorded on the plan.  A level with no unit matmul slot runs its
rank recursion exactly, the sweep kind, and is refused when its
coefficient spread would destroy double precision at the planned power.
A mask level is described by its pair-weight matrix W_l and the slots E_l
it omits, and a plan of masks runs one of two mask kernels.  The
subset_diag kernel (levels whose E_l is one slot at each off cell and
none on the diagonal, as t2112's is) runs each off-digit mask as one
einsum over strided views of K-major operands whose row digits are
rotated so that the mask's longest run of free digits is contiguous; its
per-mask einsum table is built on the first apply.  The masked_matmul
kernel (any other mask, as sw's; an exact matmul level omits no slot)
expands the omitted slots by inclusion-exclusion into signed BLAS products
over fixed-digit sub-blocks, and is one A @ B.T for matmul.

The variance reads only the W_l; it has one closed form and one oracle.  When
every W_l is diagonal, as every mask level's is, _flag_cells flags a round
without any m x m float64 array: V = sizes_x[I] KA[ia, ja] sizes_y[J]
KB[ib, jb], KA and KB the Kronecker products of the diagonals of the two
halves of the W_l, and C is screened a block of rows at a time by a float32
test with a 1e-5 margin, far wider than its error, before the cells that
pass are scored by the float64 |C| / sqrt(V).  _variance_map sweeps any
W_l over the outer product of the bucket sizes; it scores the rounds of
non-diagonal plans, and detect(..., return_scores=True) builds every
plan's whole score map over it, the oracle of _flag_cells.

A mask plan's flag pass multiplies the unsigned bucket sums.  A mask level
sends input row I only to output row I, so the bucket signs only multiply
C[I, J] by s_x[I] s_y[J]; _flag_cells reads only C^2 and |C|, and C is an
integer below 2^24, exact in float32 either way, so the flags are the
same bits.  The signs are still drawn each round, so the random streams do
not move, and the score oracle and the sweep kind, whose rank recursion
mixes rows, multiply them in.
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
                       is_subset_of_matmul, typeclass_capacity)
from .instances import (Instance, SplitFamily, default_subset_size,
                        expand_vectors, pack_bits, packed_inner)

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
    "PlanError",
]

RANK_BUDGET = 4.0e8        # max prod(rank_l) the engine will run per apply
LEVEL_BUDGET = 14          # max bucket digits (memory: C is q^2L floats)
P_ROUND_MIN = 0.12         # minimum per-round success estimate the planner accepts
SIGMA_CANDIDATES = (10.0, 8.0, 6.0, 5.0, 4.5, 4.0, 3.5)
NOISE_FUDGE = 1.35         # measured inflation of bucket-size noise vs the mean-field model
STABILITY_TOL = 1e-3       # max tolerated relative fp error estimate per apply
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
    prod(rank_l) over the planned ones.  dropped_var is the largest
    squared-mass share a level dropped to run its unit matmul slots.  Every
    kind keeps weights, the transposed pair-weight matrices W_l that the
    variance reads; the mask kinds keep missing, each level's omitted
    (i, k, j) slots E_l, from which their kernels are built.
    """
    kind: str
    levels: tuple
    rank_product: int
    dropped_var: float
    weights: tuple
    missing: tuple = ()

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
    def factors(self):
        """The half-Kronecker factors (KA, KB) of _flag_cells' closed-form
        variance when every W_l is diagonal, else None; built on the first
        round that flags."""
        return _half_factors(self.weights)

    @cached_property
    def masks(self) -> tuple:
        """The subset_diag kernel's per-mask einsum table, built on the
        first apply rather than while planning."""
        return _subset_diag_masks(self.missing)

    def apply(self, A, B, counter: MultiplyCounter | None = None):
        """Scores C of the m x d' aggregates A and B."""
        if self.kind == "subset_diag":
            return _apply_subset_diag(self.masks, A, B, counter=counter)
        if self.kind == "masked_matmul":
            return _apply_masked_matmul(
                tuple(d.shape for d in self.levels), self.missing, A, B,
                counter=counter)
        return apply_power(self.levels, A, B, dtype=np.float32,
                           counter=counter)


@dataclass
class SolverPlan:
    # headline parameters
    N: int                        # Kronecker power of the planning tensor
    g: float                      # uniform: bucket load n t / m; hashing: 1.0
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
    flip: int = 0                 # hashing: 1 negates verified inner products
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
    agg_x: np.ndarray            # m x d' aggregates (before the bucket signs)
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


def _stability_scale(d: Decomposition) -> float:
    """Largest |alpha| |beta| |gamma| product over terms: the per-level factor
    by which the recursion can amplify rounding relative to the output."""
    return max(float(np.abs(t.alpha).max() * np.abs(t.beta).max()
                     * np.abs(t.gamma).max()) for t in d.terms)


def _unit_slot_decomposition(t: Tensor):
    """One unit rank-1 term per matmul slot (i, k, j) of t whose coefficient
    is 1, and the share (total - kept) / total of t's squared coefficient
    mass that the other coefficients hold; None when t has no such slot."""
    M = np.einsum("ikjkij->ikj", t.coeff)
    unit = np.abs(M - 1.0) < 1e-9
    if not unit.any():
        return None
    qi, qk, qj = t.shape.q_i, t.shape.q_k, t.shape.q_j
    terms = []
    for i, k, j in np.argwhere(unit):
        a = np.zeros((qi, qk)); a[i, k] = 1.0
        b = np.zeros((qj, qk)); b[j, k] = 1.0
        g = np.zeros((qi, qj)); g[i, j] = 1.0
        terms.append(Rank1Term(a, b, g))
    total = float((t.coeff ** 2).sum())
    # largest first, so the sum reads the values, not their layout
    kept = float(np.sort(M[unit] ** 2)[::-1].cumsum()[-1])
    return Decomposition(t.shape, tuple(terms)), (total - kept) / total


def _unit_mask(t: Tensor):
    """M[i, k, j] = coeff[i, k, j, k, i, j] when t is a unit-coefficient
    subset-of-matmul tensor (every coefficient 0 or 1, on a matmul slot),
    else None."""
    if not (is_subset_of_matmul(t) and np.isin(t.coeff, (0.0, 1.0)).all()):
        return None
    return np.einsum("ikjkij->ikj", t.coeff)


def _pair_weight_matrix(t: Tensor) -> np.ndarray:
    """w[(ia,jb),(i,j)] = sum_k sum_k' coeff(ia,k,jb,k' -> i,j)^2, the per-level
    transfer of squared coefficients used by the variance sweep."""
    c2 = t.coeff ** 2
    w = np.einsum("ikjlmn->ijmn", c2)
    qi, qj = t.shape.q_i, t.shape.q_j
    return w.reshape(qi * qj, qi * qj)


def _build_detector(levels) -> Detector:
    """Screen each distinct planned level once and fix how detection runs.

    A level that is a unit-coefficient subset of matmul keeps its own
    decomposition; any other level with matmul slots of coefficient 1 runs
    the unit-term decomposition of exactly those slots; a level with none
    runs exactly, and raises PlanError when its coefficient spread would
    destroy double precision at this power.  The kind is 'subset_diag'
    when every executable level is a q = 2 mask that omits one slot at
    each off cell and none on the diagonal, else 'masked_matmul' when
    every executable level is a mask, else 'sweep'.
    """
    L = len(levels)
    screened = {}
    for d in levels:
        if id(d) in screened:
            continue
        t = tensor_of_decomposition(d)
        exec_d, exec_t, share = d, t, 0.0
        mask = _unit_mask(t)
        if mask is None:
            unit = _unit_slot_decomposition(t)
            if unit is not None:
                exec_d, share = unit
                exec_t = tensor_of_decomposition(exec_d)
                mask = _unit_mask(exec_t)
            # relative error estimate of the full recursion: u * scale^L
            elif _stability_scale(d) ** L * 1.1e-16 > STABILITY_TOL:
                raise PlanError(
                    f"a level with no unit matmul slot loses double "
                    f"precision in its rank recursion at {L} levels")
        screened[id(d)] = (exec_d, _pair_weight_matrix(exec_t).T, mask,
                           share)
    exec_levels, weights, masks, shares = zip(
        *(screened[id(d)] for d in levels))
    common = dict(levels=exec_levels, weights=weights,
                  dropped_var=max(shares),
                  rank_product=math.prod(d.rank for d in levels))
    if any(M is None for M in masks):
        return Detector("sweep", **common)
    missing = tuple(tuple(tuple(map(int, e)) for e in np.argwhere(M == 0))
                    for M in masks)
    # argwhere lists E_l by i first: one slot at (0, 1), then one at (1, 0)
    if all(M.shape == (2, 2, 2)
           and [(i, j) for i, _, j in E] == [(0, 1), (1, 0)]
           for M, E in zip(masks, missing)):
        return Detector("subset_diag", missing=missing, **common)
    return Detector("masked_matmul", missing=missing, **common)


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


def _subset_diag_masks(missing) -> tuple:
    """The einsum of every off-digit mask of the subset_diag kernel.

    missing holds each level's two omitted slots, (0, k, 1) and (1, k', 0):
    its off cells (0, 1) and (1, 0) keep only the other k digit, so they
    force k digits 1 - k and 1 - k'.  The kernel reads K-major operands
    At[k, I'] whose rows are rotated: in rotation r, row digit l has weight
    2^((r - l) mod L), so digit r is least significant.  Each mask runs in
    the rotation whose lowest digits are its longest run of free digits, so
    the einsum's inner loop walks that run contiguously.  Returns (r, entries) pairs, r
    descending; an entry is (subscripts, shape, A offset, A strides,
    B offset, B strides, out shape, C shape, C offset, C strides), offsets
    and strides in bytes of float32, C[I, J] in the unrotated order.
    """
    forced = [[1 - k for _, k, _ in E] for E in missing]
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
                         end: int | None = None):
    """Exact application of unit-coefficient subset-of-matmul levels.

    shapes are the levels' TensorShapes and missing their omitted (i, k, j)
    slots E_l.  C[I, J] = sum_K A[I, K] B[J, K] prod_l (1 - [slot l in E_l]),
    expanded by inclusion-exclusion: every choice of "free" or one omitted
    slot per level is one BLAS product between the fixed-digit sub-blocks of
    A and B, signed into the matching sub-block of C.  The choices nest: C
    starts as A @ B.T, and each omitted slot (i, k, j) of a level p < end
    (every level at the top call), taken from end - 1 down to 0, subtracts,
    on the rows and columns whose digit p is i and j, the product of the
    sub-blocks whose digits p are (i, k) and (j, k) with only the levels
    before p masked (the recursion's end).  Deeper calls so fix the more
    significant digits, whose sub-blocks are longer contiguous runs.  With
    every E_l empty this is exactly one A @ B.T.  Executes
    prod_l(q_i q_k q_j + |E_l|) multiplies: 9^L for sw, m d' m for matmul.

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
    for p in reversed(range(len(shapes) if end is None else end)):
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


def _half_factors(weights):
    """(KA, KB) when every transposed pair-weight matrix in weights is
    diagonal, else None: the Kronecker products of the q x q diagonals K_l
    of the first and of the second half of the levels, so that the
    variance of cell (I, J) = ((ia, ib), (ja, jb)) is
    sizes_x[I] KA[ia, ja] sizes_y[J] KB[ib, jb]."""
    if not all(np.array_equal(W, np.diag(W.diagonal())) for W in weights):
        return None
    qs = [math.isqrt(W.shape[0]) for W in weights]
    counts = [W.diagonal().reshape(q, q) for W, q in zip(weights, qs)]
    h = len(counts) // 2
    return (reduce(np.kron, counts[:h], np.ones((1, 1))),
            reduce(np.kron, counts[h:], np.ones((1, 1))))


def _variance_map(weights, sizes_x, sizes_y) -> np.ndarray:
    """Exact realized-size variance of every output cell, by the sweep.

    var[I,J] = sum_{ia,jb} prod_l w_l[(ia_l,jb_l),(I_l,J_l)] |X_ia| |Y_jb|
    over the transposed per-level (q^2 x q^2) transfer matrices in weights,
    swept over the interleaved outer product of the sizes, diagonal or not.
    Levels are square (q_i = q_j), as the m x m bucket grid is.  It is the
    variance of non-diagonal plans and, sharing no code with _flag_cells,
    the oracle of its closed form.
    """
    qs = [math.isqrt(W.shape[0]) for W in weights]
    sizes = _interleave(np.outer(sizes_x, sizes_y), qs, qs, np.float64)
    return _uninterleave(_sweep(sizes, weights), qs, qs)


def _flag_cells(C, factors, sizes_x, sizes_y, sigma: float) -> list:
    """The (I, J, score) of every cell whose score |C| / sqrt(V) reaches
    sigma > 0, in row-major order: the flags of the whole float64 score
    map, without it.  V is the closed form of the half factors (KA, KB):
    cell ((ia, ib), (ja, jb)) has V = rows[ia, ib, ja] cols[ib, ja, jb],
    with the float64 rows = sizes_x[I] KA[ia, ja] and cols = sizes_y[J]
    KB[ib, jb].

    C is screened one block of rows at a time, one block per row ia of KA,
    by the float32 test C^2 > f32(rows) * f32(cols sigma^2 (1 - 1e-5)),
    and only the cells that pass are scored, by the float64 |C| / sqrt(V).
    The test keeps every flagged cell: C is an integer below 2^24, so C^2
    is exact to 2^-24 in float32, and rows and cols are integers below
    2^24, so the float32 right-hand side, rounded three times, is within
    about 2e-7 of sigma^2 V (1 - 1e-5).  Both errors are relative, so they
    hold for any operands in float32's normal range, and lie far inside the
    1e-5 margin.  The test is strict, so a cell with V = 0 (an empty
    bucket) passes only if C != 0, and its non-finite score never flags.
    """
    KA, KB = factors
    (a, a2), (b, b2) = KA.shape, KB.shape
    rows = sizes_x.reshape(a, b, 1) * KA.reshape(a, 1, a2)
    cols = sizes_y.reshape(1, a2, b2) * KB.reshape(b, 1, b2)
    rows32 = rows.astype(np.float32)[:, :, :, None]
    cols32 = (cols * (sigma * sigma * (1 - 1e-5))).astype(np.float32)
    square = np.empty_like(cols32)
    bound = np.empty_like(cols32)
    passed = np.empty(cols32.shape, dtype=bool)
    cells = []
    for ia, block in enumerate(C.reshape(a, b, a2, b2)):
        np.multiply(block, block, out=square)
        np.multiply(rows32[ia], cols32, out=bound)
        np.greater(square, bound, out=passed)
        cells.append(np.flatnonzero(passed) + ia * passed.size)
    cells = np.concatenate(cells)       # I m + J, ascending
    ia, ib, ja, jb = np.unravel_index(cells, (a, b, a2, b2))
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (np.abs(C.reshape(-1)[cells])
                 / np.sqrt(rows[ia, ib, ja] * cols[ib, ja, jb]))
    keep = np.isfinite(score) & (score >= sigma)
    I, J = np.divmod(cells[keep], a2 * b2)
    return list(zip(I.tolist(), J.tolist(), score[keep].tolist()))


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _class_weights(classes) -> list:
    """(share, f) of each efficacy class from typeclass_capacity: the share
    exp(logsize - log_space) of the digit strings it holds and its efficacy
    exp(logf); the class law that _estimate_p_round reads."""
    log_space = math.log(sum(math.exp(ls) for _, ls, _ in classes))
    return [(math.exp(logsize - log_space), math.exp(logf))
            for logf, logsize, _ in classes]


def _estimate_p_round(weights, lam: float, rho_det: float, sigma: float,
                      t_copies: int, matmul_like: bool):
    """Per-round probability estimate that some planted copy pair lands in a
    detectable class of the class law weights and clears the threshold."""
    if matmul_like:
        noise = 1.0 + lam
    else:
        noise = math.sqrt((1.0 + lam) * max(lam, 0.6)) * NOISE_FUDGE
    mass = 0.0
    for frac, f in weights:
        mass += frac * _phi(rho_det * f / noise - sigma)
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

    base_levels = ([decomp, reflect_decomposition(decomp)] if symmetrized
                   else [decomp])
    level_table = reduce(np.kron, [table0.per_entry, table0.per_entry.T]
                         [:len(base_levels)])
    q_lvl = math.prod(lv.shape.q_i for lv in base_levels)
    rank_lvl = math.prod(lv.rank for lv in base_levels)
    qk_lvl = math.prod(lv.shape.q_k for lv in base_levels)

    M = _unit_mask(t0)
    matmul_like = M is not None and bool(M.all())
    reps = reps if reps is not None else _default_reps(n)

    best = None
    fallback = None
    expansion = ""        # why the last N that could not expand failed
    N = 1
    while rank_lvl ** (N) <= RANK_BUDGET and N * len(base_levels) <= LEVEL_BUDGET:
        m = q_lvl ** N
        # expansion comes per candidate N: coordinates per round
        try:
            r = default_subset_size(d, rho, qk_lvl ** N * (reps + 1))
        except ValueError as err:
            expansion = f": {err}"
            N += 1
            continue
        rho_det = rho ** r
        weights = _class_weights(typeclass_capacity(level_table, N)[0])
        for t_copies in (1, 2, 3):
            lam = n * t_copies / m
            if lam > 64:
                continue
            for sigma in (SIGMA_CANDIDATES if detect_sigma is None
                          else (detect_sigma,)):
                p = _estimate_p_round(weights, lam, rho_det, sigma, t_copies,
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
                f"rank budget{expansion}")
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
    minus twice its count of one bits.

    The count adds whole uint64 words: the rows, zero-padded to a multiple
    of 8 columns, are read as words of eight uint8 lanes, one column's 0/1
    bit per lane.  Buckets are summed slot by slot, largest bucket first:
    slot j gathers the j-th member row of every bucket holding more than j
    rows, which are a prefix of the size-sorted buckets, and adds them to
    that prefix of the accumulator in one contiguous pass.  A lane cannot
    carry into the next while it sums at most 255 rows, so every 255 slots
    the lanes are flushed into int32 counts.  The bucket order is undone
    once, on the counts, before they become floats."""
    lane_max = 255
    sizes = np.diff(starts)
    width = expanded_bits.shape[1]
    if width % 8:
        expanded_bits = np.pad(expanded_bits, ((0, 0), (0, -width % 8)))
    words = np.ascontiguousarray(expanded_bits).view(np.uint64)
    order = np.argsort(-sizes, kind="stable")
    first = starts[order]
    # reach[j]: how many buckets hold more than j rows
    reach = np.searchsorted(-sizes[order], -np.arange(sizes.max(initial=0)))
    acc = np.zeros((sizes.size, words.shape[1]), dtype=np.uint64)
    flush = reach.size > lane_max
    counts = (np.zeros((sizes.size, 8 * words.shape[1]), dtype=np.int32)
              if flush else acc.view(np.uint8))
    for s in range(0, reach.size, lane_max):
        stretch = reach[s:s + lane_max].tolist()
        for j, c in enumerate(stretch, s):
            acc[:c] += words[rows[first[:c] + j]]
        if flush:
            c = stretch[0]
            counts[:c] += acc[:c].view(np.uint8)
            acc[:c] = 0
    lanes = np.empty_like(counts)
    lanes[order] = counts
    out = np.multiply(lanes[:, :width], -2, dtype=np.float32)
    out += sizes[:, None].astype(np.float32)   # int64 would add in float64
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
    return _bucket_state(instance, mem_x, mem_y, plan, offset, rng)


def _bucket_state(instance: Instance, mem_x, mem_y, plan: SolverPlan,
                  offset: int, rng) -> BucketState:
    """Shared tail of both bucketers: collapse duplicate ids, index and sum
    each side's buckets at window offset, and draw one sign per bucket row."""
    m = plan.m
    mem_x = _dedupe_rows(mem_x)
    mem_y = _dedupe_rows(mem_y)
    index_x, index_y = _bucket_index(mem_x, m), _bucket_index(mem_y, m)
    # one side at a time, so one n x d' expansion is alive at once
    agg_x = bucket_aggregate(
        expand_vectors(instance.X, plan.r, plan.d_prime, offset), *index_x)
    agg_y = bucket_aggregate(
        expand_vectors(instance.Y, plan.r, plan.d_prime, offset), *index_y)
    signs_x = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    signs_y = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    return BucketState(mem_x, mem_y, index_x, index_y, agg_x, agg_y,
                       signs_x, signs_y)


def detect(state: BucketState, plan: SolverPlan,
            counter: MultiplyCounter | None = None,
            return_scores: bool = False):
    """Score every bucket pair and flag |C|/sigma above the plan threshold.

    sigma is the square root of the realized-size variance; cells with zero
    variance never flag.  When every W_l is diagonal and no scores are
    asked for, _flag_cells flags C by the closed form; a mask kernel then
    multiplies the unsigned aggregates, since the bucket signs only flip
    the sign of C's cells there.  Otherwise the whole float64 score map is
    built from the signed aggregates over the swept _variance_map, the
    oracle, and return_scores returns it with C and V without the half
    factors.
    """
    det = plan.detector
    flag_pass = (not return_scores and plan.detect_sigma > 0
                 and det.factors is not None)
    if flag_pass and det.kind != "sweep":
        A, B = state.agg_x, state.agg_y
    else:
        A = state.agg_x * state.signs_x[:, None]
        B = state.agg_y * state.signs_y[:, None]
    C = det.apply(A, B, counter=counter)
    sizes_x, sizes_y = np.diff(state.index_x[1]), np.diff(state.index_y[1])
    if flag_pass:
        return _flag_cells(C, det.factors, sizes_x, sizes_y,
                           plan.detect_sigma)
    V = _variance_map(det.weights, sizes_x, sizes_y)
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
    inner product over all d bits, negated when plan.flip is set, reaches
    verify_threshold(d, plan.reps); words_x / words_y pack the bits.  Every
    key is scored, repeats too, and only the accepted keys are sorted and
    deduplicated."""
    keys = np.asarray(keys, dtype=np.int64)
    ai, bj = np.divmod(keys, instance.n)
    inner = packed_inner(np.take(words_x, ai, axis=0),
                         np.take(words_y, bj, axis=0), instance.d)
    inner *= 1 - 2 * plan.flip
    ok = inner >= verify_threshold(instance.d, plan.reps)
    ai, bj = np.divmod(np.unique(keys[ok]), instance.n)
    return list(zip(ai.tolist(), bj.tolist()))


def _collect_candidates(state: BucketState, flags):
    """Keys a * n + b of the member pairs (a, b) of each flagged bucket
    pair, in flag order, a-major within a flag; the flags after the first
    whose pairs take the running total past CAP_PAIRS are dropped.  The
    keys are laid out in one pass: each pair's flag by np.repeat, its
    place in the flag by a cumsum of the per-flag pair counts."""
    n = state.mem_x.shape[0]
    (rows_x, starts_x), (rows_y, starts_y) = state.index_x, state.index_y
    fi, fj = np.array([f[:2] for f in flags], dtype=np.int64).reshape(-1, 2).T
    size_y = starts_y[fj + 1] - starts_y[fj]
    pairs = (starts_x[fi + 1] - starts_x[fi]) * size_y
    ends = np.cumsum(pairs)
    kept = np.searchsorted(ends, CAP_PAIRS, side="right") + 1
    fi, fj, size_y, pairs = fi[:kept], fj[:kept], size_y[:kept], pairs[:kept]
    flag = np.repeat(np.arange(len(pairs)), pairs)
    place = np.arange(flag.size) - (ends[:kept] - pairs)[flag]
    a, b = np.divmod(place, size_y[flag])
    return (rows_x[starts_x[fi[flag]] + a] * n
            + rows_y[starts_y[fj[flag]] + b])


def _run_rounds(instance: Instance, plan: SolverPlan, seed: int, stream: int,
                draw, counter) -> DetectionReport:
    """The round loop both solvers share.

    Round k draws its buckets with draw(k, rng, offset) from the round's own
    RNG (spawn key (stream, k)) at a window offset that advances d' per
    round; members of flagged bucket pairs are verified on the instance's
    packed bits.  Stops after the first round that verifies a pair, and
    reports that round's flags, strongest first, at most 1000.
    """
    words_x, words_y = pack_bits(instance.X), pack_bits(instance.Y)
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
                  plan: SolverPlan, seed: int = 0,
                  counter: MultiplyCounter | None = None) -> DetectionReport:
    """Run up to plan.reps independent bucket+detect rounds with fresh
    expansion windows; flagged buckets' member pairs are verified on their
    raw bits.  Stops after the first round that verifies a pair.  An empty
    candidate list means nothing survived verification.  decomp is not
    read: plan holds the detector."""

    def draw(k, rng, offset):
        return bucket_uniform(instance, plan, rng, offset=offset)

    return _run_rounds(instance, plan, seed, 1, draw, counter)


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
    Each input gets max(1, round(m / n)) copies, the least load: the
    estimate's noise grows with the load and it counts no copy pairs, so no
    larger load can score higher.  reps and detect_sigma are checked as in
    plan_uniform; P must be 2 x 2.  The sign map's correlation is
    |c|, c = (P00 - P01) - (P10 - P11); flip is 1 when c < 0, where the map
    complements one side.  A P with c = 0, unexpandable windows, or a load
    over 64 at the largest N the budget allows raise PlanError.
    """
    _check_run_options(reps, detect_sigma)
    P = np.asarray(P, float)
    if P.shape != (2, 2):
        raise PlanError(f"the hashing solver needs q = 2; P is {P.shape}")
    c = (P[0, 0] - P[0, 1]) - (P[1, 0] - P[1, 1])
    if c == 0:
        raise PlanError(f"P = {P.tolist()} admits no correlated sign mapping")
    rho_out = float(abs(c))
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

    _require_verifiable(rho_out, d, reps)
    try:
        r = default_subset_size(d, rho_out, (qk ** (2 * N)) * (reps + 1))
    except ValueError as err:
        raise PlanError(f"no runnable hashing configuration for n={n} at "
                        f"N={N}: {err}") from err
    rho_det = rho_out ** r
    copies = max(1, round(m / n))
    lam = n * copies / m
    if lam > 64:
        raise PlanError(f"n={n} is too large for the hashing path: m={m} "
                        f"buckets at N={N}, the largest the budget allows, "
                        f"hold lambda = {lam:g} > 64 inputs each")

    # planted bucket digit law per level: T levels see (Q_x x, Q_y y), the
    # reflected levels (Q_y x, Q_x y) with the efficacy table transposed
    mu, sd = _lsh_digit_law(eff_table(t0).per_entry, qp.Q_x.T @ P @ qp.Q_y,
                            qp.Q_y.T @ P @ qp.Q_x, N)
    # the first sigma with the highest estimate; the grid's first if all are 0
    p_est, sigma = max(
        ((_lsh_p_round(mu, sd, lam, rho_det, s), s) for s in
         (SIGMA_CANDIDATES if detect_sigma is None else (detect_sigma,))),
        key=lambda ps: ps[0])

    detector = _build_detector([decomp, reflect_decomposition(decomp)] * N)
    return SolverPlan(
        N=N, g=1.0,
        t=1, reps=reps, detect_sigma=float(sigma),
        symmetrized=True, detector=detector, r=r, rho_det=rho_det,
        lsh=True, qp=qp, flip=int(c < 0), copies=copies,
        exponent=exponent_bound(decomp.rank, q * math.sqrt(g)),
        p_round_est=p_est, notes=_plan_notes(p_est, reps, detector),
    )


def _lsh_digit_law(table, PD_t, PD_r, N):
    """(mu, sd) of the normal law of the planted bucket pair's summed
    log-efficacy, its digits taken as independent: PD_t through table on
    the N T levels, PD_r through table.T on the N reflected ones."""
    mus, vas = [], []
    q = table.shape[0]
    for PD, tab in ((PD_t, table), (PD_r, table.T)):
        le, pr = [], []
        for i in range(q):
            for j in range(q):
                if tab[i, j] > 0 and PD[i, j] > 0:
                    le.append(math.log(tab[i, j]))
                    pr.append(PD[i, j])
        z = sum(pr)
        pr = [p / z for p in pr]
        mu = sum(p * x for p, x in zip(pr, le))
        mus.append(mu)
        vas.append(sum(p * x * x for p, x in zip(pr, le)) - mu * mu)
    return (N * (mus[0] + mus[1]),
            math.sqrt(max(N * (vas[0] + vas[1]), 1e-12)))


def _lsh_p_round(mu, sd, lam, rho_det, sigma):
    """Chance under the digit law (mu, sd) that the planted class signal
    clears sigma + 0.5 at load lam."""
    noise = math.sqrt((1.0 + lam) * max(lam, 0.6))
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


def solve_lsh(instance: Instance, decomp: Decomposition, plan: SolverPlan,
              seed: int = 0,
              counter: MultiplyCounter | None = None) -> DetectionReport:
    """Hashing-boosted solve: bucket ids from Q-perturbed raw coordinates,
    detection on fresh coordinates through the symmetrized tensor.  Stops
    after the first round that verifies a pair.  decomp is not read: plan
    holds the detector and the pair Q."""
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
        return _bucket_state(instance, mem_x, mem_y, plan, offset, rng)

    return _run_rounds(instance, plan, seed, 2, draw, counter)
