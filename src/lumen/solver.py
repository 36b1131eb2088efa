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

Each plan builds its detection kernel once, as a Detector.
_build_detector says how a planned level is screened and which kind runs
it; _subset_diag_masks and lumen.masked.schedule describe the two mask
kernels.  The variance reads only the W_l: _flag_cells holds its closed
form and _variance_map its oracle, and detect says when each scores a
round.
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

    kind is 'subset_diag' (_subset_diag_masks), 'masked_matmul'
    (lumen.masked) or 'sweep' (the rank recursion, in float64).  levels
    are the executable per-level decompositions and rank_product the
    paper's prod(rank_l) over the planned ones.  dropped_var is the
    largest squared-mass share a level dropped to run its unit matmul
    slots.  Every kind keeps weights, the transposed pair-weight matrices
    W_l that the variance reads; the mask kinds keep missing, each level's
    omitted (i, k, j) slots E_l, from which their kernel's schedule is
    built on the first apply.  The schedule holds buffers that every apply
    reuses, so a detector must not apply in two threads at once.
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
        """Multiplies one apply executes: the count of the schedule for
        masked_matmul, prod(rank_l) of the executable levels otherwise, so
        reading it builds no schedule for the other kinds."""
        if self.kind == "masked_matmul":
            return self.schedule[2]
        return math.prod(d.rank for d in self.levels)

    @cached_property
    def factors(self):
        """The half-Kronecker factors (KA, KB) of _flag_cells' closed-form
        variance when every W_l is diagonal, else None; built on the first
        round that flags."""
        return _half_factors(self.weights)

    @cached_property
    def schedule(self) -> tuple:
        """The mask kernel's schedule, _subset_diag_masks or
        lumen.masked.schedule, built on the first apply rather than while
        planning.  lumen.masked is imported here too: a fresh import of
        lumen is mostly compiling source, and only masked_matmul plans run
        it."""
        if self.kind == "subset_diag":
            return _subset_diag_masks(self.missing)
        from . import masked
        return masked.schedule(tuple(d.shape for d in self.levels),
                               self.missing)

    def apply(self, A, B, counter: MultiplyCounter | None = None):
        """Scores C of the m x d' aggregates A and B."""
        if self.kind == "subset_diag":
            return _apply_subset_diag(self.schedule, A, B, counter=counter)
        if self.kind == "masked_matmul":
            from .masked import apply
            return apply(self.schedule, A, B, counter=counter)
        # the stability screen charges float64's roundoff, so the rank
        # recursion runs in float64; C is scored in float32 like the others
        return apply_power(self.levels, A, B, dtype=np.float64,
                           counter=counter).astype(np.float32)


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

    The planted products reach the planted cell only through the matmul
    slots, so a level detects through its matmul slots of coefficient 1.
    Each level's tensor is built once and its matmul-slot coefficients
    read once.  A level that is a unit-coefficient subset of matmul keeps
    its own decomposition; any other level with matmul slots of
    coefficient 1 runs one unit term per such slot, the squared-mass share
    of its other coefficients recorded as dropped.  Either way the level
    is a mask, and its W_l is the diagonal of the k slots it keeps at each
    output cell.  A level with neither runs exactly, keeps the full W_l,
    and raises PlanError when its coefficient spread would destroy double
    precision at this power.  The kind is 'subset_diag' when every
    executable level is a q = 2 mask that omits one slot at each off cell
    and none on the diagonal, else 'masked_matmul' when every executable
    level is a mask, else 'sweep'.
    """
    L = len(levels)
    screened = {}
    for d in levels:
        if id(d) in screened:
            continue
        t = tensor_of_decomposition(d)
        M = np.einsum("ikjkij->ikj", t.coeff)
        unit = np.abs(M - 1.0) < 1e-9
        # all 0/1, and every 1 on a matmul slot: a mask already
        if (np.isin(t.coeff, (0.0, 1.0)).all()
                and M.sum() == t.coeff.sum()):
            exec_d, share = d, 0.0
        elif unit.any():
            qi, qk, qj = t.shape.q_i, t.shape.q_k, t.shape.q_j
            terms = []
            for i, k, j in np.argwhere(unit):
                a = np.zeros((qi, qk)); a[i, k] = 1.0
                b = np.zeros((qj, qk)); b[j, k] = 1.0
                g = np.zeros((qi, qj)); g[i, j] = 1.0
                terms.append(Rank1Term(a, b, g))
            exec_d = Decomposition(t.shape, tuple(terms))
            total = float((t.coeff ** 2).sum())
            # largest first, so the sum reads the values, not their layout
            kept = float(np.sort(M[unit] ** 2)[::-1].cumsum()[-1])
            share = (total - kept) / total
        # relative error estimate of the full recursion: u * scale^L
        elif _stability_scale(d) ** L * 1.1e-16 > STABILITY_TOL:
            raise PlanError(
                f"a level with no unit matmul slot loses double "
                f"precision in its rank recursion at {L} levels")
        else:
            screened[id(d)] = (d, _pair_weight_matrix(t).T, None, 0.0)
            continue
        screened[id(d)] = (exec_d, np.diag(unit.sum(axis=1, dtype=float)
                                           .ravel()), unit, share)
    exec_levels, weights, masks, shares = zip(
        *(screened[id(d)] for d in levels))
    common = dict(levels=exec_levels, weights=weights,
                  dropped_var=max(shares),
                  rank_product=math.prod(d.rank for d in levels))
    if any(U is None for U in masks):
        return Detector("sweep", **common)
    missing = tuple(tuple(tuple(map(int, e)) for e in np.argwhere(~U))
                    for U in masks)
    # argwhere lists E_l by i first: one slot at (0, 1), then one at (1, 0)
    if all(U.shape == (2, 2, 2)
           and [(i, j) for i, _, j in E] == [(0, 1), (1, 0)]
           for U, E in zip(masks, missing)):
        return Detector("subset_diag", missing=missing, **common)
    return Detector("masked_matmul", missing=missing, **common)


def _row_digits(levels, fixed, row: int):
    """(offset, shape, strides), in bytes, of the rows of a buffer whose
    rows of row bytes are indexed by the given levels, most significant
    first, with each level in fixed pinned to its digit there: one axis of
    size 2 for each level left free."""
    offset, shape, strides = 0, [], []
    for pos, l in enumerate(levels):
        stride = row << (len(levels) - 1 - pos)
        if l in fixed:
            offset += fixed[l] * stride
        else:
            shape.append(2)
            strides.append(stride)
    return offset, shape, strides


def _subset_diag_masks(missing) -> tuple:
    """The schedule of the subset_diag kernel.

    missing holds each level's two omitted slots, (0, k, 1) and (1, k', 0):
    its off cells (0, 1) and (1, 0) keep only the other k digit, so level
    l forces the k digits f_l(0) = 1 - k and f_l(1) = 1 - k'.  Level l is
    digit L - 1 - l of every index.  F(I) is the index whose digits are
    f_l(I_l) and Delta the one whose digits are f_l(0) ^ f_l(1), so
    F(I) = F(0) ^ (I & Delta).  With A'[X, I] = A[I, X ^ F(I)] and
    B'[X, J] = B[J, X ^ F(J)], every cell whose off digits (where I and J
    differ) are S reads

        C[I, I ^ S] = sum over X & S = 0 of
                      A'[X, I] B'[X ^ (Delta & S), I ^ S].

    The lowest b = 1 digit of S makes S_lo, the others S_hi, and
    D[S, P] = C[P ^ S_hi, P ^ S_lo].  Each further low digit would cut the
    copies of A' by a third but add half again to B_lo: at b = 1 an apply
    holds 4.5 m^2 floats (workspace 2 m^2, B_lo 1.5 m^2, D m^2), and b = 2
    was 5-8% faster at L = 10 with 5.25 m^2.  The workspace and B_lo live
    in the schedule, so an apply allocates only D and C.  Both are
    allocated first, and every view is made where its layout is computed.
    Returns (L, b, gathers, starts, steps, Z, work, B_lo):

    - gathers: for each S_lo, the rows Y & S_lo = 0 and the vector W_S_lo
      such that B.flat[Y ^ W_S_lo] is row Y ^ (Delta & S_lo) of B' with its
      columns XOR-permuted by S_lo: block S_lo of the buffer B_lo.  Block 0
      is B' itself, and the same rows and W gather A'.
    - starts: the first row of each block of B_lo, then its row count.
    - steps: one (copy, einsums) per S_hi, in depth-first order.  The rows
      X & S_hi = 0 of A', columns XOR-permuted by S_hi, are kept in the
      workspace work, which holds A' and one slot per |S_hi|.  copy (None
      for S_hi = 0, which reads A') is the (destination, source) pair of
      views that builds them from the slot of S_hi less its most
      significant digit: pin that digit to 0 in the rows and reverse it in
      the columns, so every copy moves runs of that digit's weight.
      einsums hold one (S, A view, B view, axes) per S_lo: the free rows
      of the workspace slot and of block S_lo of B_lo, summed into row S
      of D.
    - Z: the (2^b, m) table of the final gather, C[I, J] =
      D.flat[(I_hi << (b + L)) ^ Z[I_lo, J]], I_hi and I_lo the high and
      the low b digits of I.
    """
    L = len(missing)
    m = 1 << L
    b = 1
    forced = [(1 - E[0][1], 1 - E[1][1]) for E in missing]
    bit = [1 << (L - 1 - l) for l in range(L)]
    F0 = sum(f0 * w for (f0, _), w in zip(forced, bit))
    delta = [f0 ^ f1 for f0, f1 in forced]
    Delta = sum(d * w for d, w in zip(delta, bit))
    P = np.arange(m)
    size = np.dtype(np.float32).itemsize
    row = size * m

    def levels(S, inside):
        return [l for l in range(L) if bool(S & bit[l]) == inside]

    gathers, starts = [], [0]
    for s in range(1 << b):
        Ps = P ^ s
        gathers.append((P[P & s == 0],
                        ((Ps << L) | (F0 ^ (Ps & Delta))) ^ (Delta & s)))
        starts.append(starts[-1] + len(gathers[-1][0]))
    f32 = np.float32
    work = np.empty((2 * m - (1 << b), m), dtype=f32)
    B_lo = np.empty((starts[-1], m), dtype=f32)
    steps = []

    def visit(S_hi, slot, parent, top):
        # top is S_hi's most significant level, L - b when S_hi is 0
        rows = levels(S_hi, False)
        copy = None
        if S_hi:
            offset, shape, strides = _row_digits(
                levels(S_hi ^ bit[top], False), {top: 0}, row)
            run = size * bit[top]
            shape = tuple(shape + [m // (2 * bit[top]), 2, bit[top]])
            copy = (np.ndarray(shape, f32, work, slot * row),
                    np.ndarray(shape, f32, work, parent * row + offset + run,
                               tuple(strides + [2 * run, -run, size])))
        einsums = []
        for s in range(1 << b):
            ao, shape, a_st = _row_digits(rows, dict.fromkeys(
                levels(s, True), 0), row)
            bo, _, b_st = _row_digits(levels(s, False), {
                l: delta[l] for l in levels(S_hi, True)}, row)
            shape = tuple(shape + [m])
            einsums.append((
                S_hi | s,
                np.ndarray(shape, f32, work, slot * row + ao,
                           tuple(a_st + [size])),
                np.ndarray(shape, f32, B_lo, starts[s] * row + bo,
                           tuple(b_st + [size])),
                list(range(len(shape)))))
        steps.append((copy, einsums))
        for l in range(top):      # each child adds a more significant digit
            visit(S_hi | bit[l], slot + (1 << len(rows)), slot, l)

    visit(0, 0, 0, L - b)
    lo = np.arange(1 << b)[:, None]
    Jh, Jl = P >> b, P & ((1 << b) - 1)
    Z = (Jh << (b + L)) | ((lo ^ Jl) << L) | (Jh << b) | lo
    return L, b, gathers, starts, steps, Z, work, B_lo


def _xor_take(X, rows, W, out):
    """out[r, P] = X.flat[rows[r] ^ W[P]], a block of rows at a time.  The
    indices are in range; mode "clip", unlike "raise", writes into out
    without a buffer."""
    block = max(1, (1 << 16) // len(W))
    for r in range(0, len(rows), block):
        np.take(X.reshape(-1), rows[r:r + block, None] ^ W,
                out=out[r:r + block], mode="clip")


def _apply_subset_diag(masks, A, B, counter: MultiplyCounter | None = None):
    """Exact application of unit-coefficient diag-free/off-forced tensors.

    masks is the Detector's _subset_diag_masks schedule, which states the
    identity it runs.  A' and the blocks of B_lo are gathered, each high
    part's rows of A' are copied from its parent's, one einsum over all m
    contiguous columns per off-digit mask S fills row S of D, and one
    gather, a block of rows at a time, lays D out as a fresh C; D and C
    are the arrays an apply allocates.  On integer operands
    every partial sum is a sum of products, so C is exact whenever every
    cell's sum_K |A[I, K] B[J, K]| < 2^24.  The multiply count is exactly
    prod(rank_l), as in the rank recursion.
    """
    L, b, gathers, starts, steps, Z, work, B_lo = masks
    m = A.shape[0]
    _xor_take(A, *gathers[0], work[:m])
    for (rows, W), start in zip(gathers, starts):
        _xor_take(B, rows, W, B_lo[start:start + len(rows)])
    D = np.empty((m, m), dtype=np.float32)
    for copy, einsums in steps:
        if copy is not None:
            np.copyto(*copy)
        for S, a, b_view, axes in einsums:
            np.einsum(a, axes, b_view, axes, axes[-1:], out=D[S])
    C = np.empty((m, m), dtype=np.float32)
    block = max(1, 64 >> b)             # values of I_hi a gather fills
    for i in range(0, m >> b, block):
        I_hi = np.arange(i, min(i + block, m >> b))
        np.take(D.reshape(-1), (I_hi << (b + L))[:, None, None] ^ Z,
                out=C[i << b:(i + len(I_hi)) << b].reshape(-1, 1 << b, m),
                mode="clip")
    if counter is not None:
        counter.add(6 ** L)      # 2 x 2 diagonal and 2 off products a level
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
    asked for, _flag_cells flags C by the closed form.  A mask kernel then
    multiplies the unsigned aggregates: a mask level sends input row I only
    to output row I, so the bucket signs only multiply C[I, J] by s_x[I]
    s_y[J], and _flag_cells reads only C^2 and |C| of an integer C below
    2^24, exact in float32 either way, so the flags are the same bits.
    The signs are still drawn each round, so the random streams do not
    move.  Otherwise the whole float64 score map is built from the signed
    aggregates over the swept _variance_map, the oracle, and return_scores
    returns it with C and V without the half factors; the sweep kind, whose
    rank recursion mixes rows, always multiplies the signs in.
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
