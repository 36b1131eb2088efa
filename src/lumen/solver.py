"""End-to-end planted-pair detection.

Uniform solver: every input is copied into t random buckets per side; bucket
sums of expanded +-1 vectors are sign-randomized and multiplied through the
Kronecker power of the chosen tensor; output cells whose standardized score
clears the plan threshold name candidate bucket pairs, whose members are then
verified by direct inner products on fresh coordinates.  Rounds redraw
buckets, coordinates, and signs; a verified pair ends the run.

Hashing solver: bucket indices are drawn per copy by pushing raw coordinates
through the stochastic pair (Q_x, Q_y), the tensor is interleaved with its
reflection, and the same round driver runs detection and verification.

Detection kernels are numerically screened: an exact-matmul level product is
computed as one BLAS product, and decompositions whose coefficient spread
would destroy double precision at the planned power are replaced by the
unit-term decomposition of their expanded tensor (dropping coefficients whose
total variance share is negligible, checked and recorded on the plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Decomposition, MultiplyCounter, Rank1Term, Tensor,
                   apply_power, reflect_decomposition,
                   tensor_of_decomposition)
from .efficacy import (StochasticPair, eff_table, exponent_bound, gamma,
                       is_subset_of_matmul, rho_joint_matrix,
                       typeclass_capacity)
from .instances import (Instance, SplitFamily, default_subset_size,
                        expand_vectors, map_to_pm1)
from .aggregation import bucket_aggregate

__all__ = [
    "SolverPlan",
    "BucketState",
    "DetectionReport",
    "plan_uniform",
    "bucket_uniform",
    "detect",
    "solve_uniform",
    "plan_lsh",
    "solve_lsh",
    "verify_candidates",
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


class PlanError(Exception):
    pass


@dataclass
class SolverPlan:
    # headline parameters
    N: int                        # Kronecker power of the planning tensor
    f: float                      # base-level efficacy threshold
    S_f: np.ndarray               # q x q indicator of the threshold set
    m: int                        # bucket count per side
    g: float                      # target bucket size n t / m
    t: int                        # copies per input per side
    reps: int
    detect_sigma: float
    symmetrized: bool
    # execution detail
    levels: list = field(default_factory=list)    # per-level Decomposition
    r: int = 2                    # expansion subset size
    rho_det: float = 0.0          # post-expansion correlation of the planted pair
    d_prime: int = 0              # detection coordinates per round
    verify_dim: int = 1024
    kernel: str = "auto"
    n: int = 0
    lsh: bool = False
    qp: StochasticPair | None = None
    P: np.ndarray | None = None
    copies: int = 0               # per-copy count for the hashing path
    # provenance of the closed-form plan quantities
    formula_m: float = 0.0        # (20 n / rho)^(1/(1+log_q f))
    exponent: float = 0.0         # log rank / log(f sqrt|S_f|)
    p_round_est: float = 0.0
    surrogate_dropped_var: float = 0.0
    notes: list = field(default_factory=list)


@dataclass
class BucketState:
    m: int
    mem_x: np.ndarray            # n x t bucket ids, -1 where a duplicate collapsed
    mem_y: np.ndarray
    sizes_x: np.ndarray          # realized |X_i|
    sizes_y: np.ndarray
    agg_x: np.ndarray            # m x d' aggregates (before sign flips)
    agg_y: np.ndarray
    signs_x: np.ndarray          # +-1 per bucket row
    signs_y: np.ndarray
    offset: int                  # expansion window start


@dataclass
class DetectionReport:
    found: bool
    candidates: list             # verified (input_i, input_j) pairs
    flagged: list                # (bucket_i, bucket_j, hit_count) aggregated over rounds
    rounds_run: int
    stats: list                  # per-round dicts
    plan: SolverPlan


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


def _subset_diag_pattern(t: Tensor):
    """For q = 2 unit-coefficient subset-of-matmul tensors whose diagonal
    output cells carry both k terms and whose off cells carry exactly one,
    return the forced-k map {(0,1): k, (1,0): k}; else None."""
    if (t.shape.q_i, t.shape.q_j, t.shape.q_k) != (2, 2, 2):
        return None
    if not is_subset_of_matmul(t):
        return None
    c = t.coeff
    forced = {}
    for i in range(2):
        for j in range(2):
            ks = [k for k in range(2) if c[i, k, j, k, i, j] != 0]
            vals = [c[i, k, j, k, i, j] for k in ks]
            if any(abs(v - 1.0) > 1e-9 for v in vals):
                return None
            if i == j:
                if len(ks) != 2:
                    return None
            else:
                if len(ks) != 1:
                    return None
                forced[(i, j)] = ks[0]
    return forced


def _screen_levels(levels):
    """Map each planned level to an executable decomposition.

    Returns (exec_levels, kernel, dropped_share): kernel is 'matmul' when every
    level is exactly a matmul tensor (detection runs as one BLAS product),
    'subset_diag' when every executable level matches the forced/free digit
    pattern (detection runs gather + row-dot per digit pattern), else 'sweep'.
    """
    exec_levels = []
    dropped = 0.0
    all_matmul = True
    cache = {}
    for d in levels:
        key = id(d)
        if key not in cache:
            t = tensor_of_decomposition(d)
            cache[key] = (d, t)
        d, t = cache[key]
        if not _is_exact_matmul(t):
            all_matmul = False
        exec_levels.append((d, t))
    L = len(exec_levels)
    out = []
    patterns = []
    for d, t in exec_levels:
        scale = _stability_scale(d)
        # relative error estimate of the full recursion: u * scale^L
        if scale ** L * 1.1e-16 > STABILITY_TOL:
            sd, share = _unit_term_decomposition(t, SURROGATE_VAR_TOL)
            dropped = max(dropped, share)
            out.append(sd)
            patterns.append(_subset_diag_pattern(tensor_of_decomposition(sd)))
        else:
            out.append(d)
            patterns.append(_subset_diag_pattern(t))
    if all_matmul:
        kernel = "matmul"
    elif all(p is not None for p in patterns):
        kernel = "subset_diag"
    else:
        kernel = "sweep"
    return out, kernel, dropped


def _apply_subset_diag(levels, A, B, counter: MultiplyCounter | None = None):
    """Exact application of unit-coefficient diag-free/off-forced tensors.

    Every output pair (I, J) determines its off digits (where I and J
    disagree) and with them the forced k digits; the remaining digits
    contribute a plain inner product.  Grouping cells by the off-digit
    positions turns the whole C into gathers plus row-wise dot products;
    the multiply count is exactly prod(rank_l) as in the rank recursion.
    """
    L = len(levels)
    forced = [_subset_diag_pattern(tensor_of_decomposition(d)) for d in levels]
    if any(f is None for f in forced):
        raise ValueError("levels do not all match the subset_diag pattern")
    w = 1 << (L - 1 - np.arange(L))
    m = A.shape[0]
    A = np.ascontiguousarray(A, dtype=np.float32)
    B = np.ascontiguousarray(B, dtype=np.float32)
    C = np.zeros((m, m), dtype=np.float32)
    f01 = np.array([f[(0, 1)] for f in forced], dtype=np.int64)
    f10 = np.array([f[(1, 0)] for f in forced], dtype=np.int64)
    total = 0
    for mask in range(1 << L):
        off = np.nonzero((mask >> (L - 1 - np.arange(L))) & 1)[0]
        free = np.nonzero(1 - ((mask >> (L - 1 - np.arange(L))) & 1))[0]
        mo, mf = len(off), len(free)
        chi = np.arange(1 << mo)
        chi_bits = (chi[:, None] >> np.arange(mo - 1, -1, -1)[None, :]) & 1
        x_off = chi_bits @ w[off] if mo else np.zeros(1, dtype=np.int64)
        y_off = (1 - chi_bits) @ w[off] if mo else np.zeros(1, dtype=np.int64)
        if mo:
            koff_digits = np.where(chi_bits == 1, f10[off][None, :],
                                   f01[off][None, :])
            k_off = koff_digits @ w[off]
        else:
            k_off = np.zeros(1, dtype=np.int64)
        sig = np.arange(1 << mf)
        if mf:
            sig_bits = (sig[:, None] >> np.arange(mf - 1, -1, -1)[None, :]) & 1
            spread = sig_bits @ w[free]
        else:
            spread = np.zeros(1, dtype=np.int64)
        xrow = x_off[:, None] + spread[None, :]
        yrow = y_off[:, None] + spread[None, :]
        kcol = k_off[:, None] + spread[None, :]
        Ag = A[xrow[:, :, None], kcol[:, None, :]]
        Bg = B[yrow[:, :, None], kcol[:, None, :]]
        D = np.einsum("csk,csk->cs", Ag, Bg)
        C[xrow, yrow] = D
        total += D.size * spread.size
    if counter is not None:
        counter.add(total)
    return C


def _pair_weight_matrix(t: Tensor) -> np.ndarray:
    """w[(ia,jb),(i,j)] = sum_k sum_k' coeff(ia,k,jb,k' -> i,j)^2, the per-level
    transfer of squared coefficients used by the variance sweep."""
    c2 = t.coeff ** 2
    w = np.einsum("ikjlmn->ijmn", c2)
    qi, qj = t.shape.q_i, t.shape.q_j
    return w.reshape(qi * qj, qi * qj)


def _variance_map(levels_tensors, sizes_x, sizes_y) -> np.ndarray:
    """Exact realized-size variance of every output cell.

    var[I,J] = sum_{ia,jb} prod_l w_l[(ia_l,jb_l),(I_l,J_l)] |X_ia| |Y_jb|,
    evaluated by sweeping the per-level ( q^2 x q^2 ) transfer matrices over
    the interleaved outer product of the size vectors.
    """
    L = len(levels_tensors)
    qis = [t.shape.q_i for t in levels_tensors]
    qjs = [t.shape.q_j for t in levels_tensors]
    u = np.asarray(sizes_x, np.float64)
    v = np.asarray(sizes_y, np.float64)
    state = np.outer(u, v).reshape(qis + qjs)
    perm = []
    for l in range(L):
        perm += [l, L + l]
    state = np.ascontiguousarray(state.transpose(perm)).reshape(-1)
    pre = 1
    for t in levels_tensors:
        w = _pair_weight_matrix(t).T       # rows: out pair, cols: in pair
        r, dd = w.shape
        rest = state.size // (pre * dd)
        if rest == 1:
            state = (state.reshape(pre, dd) @ w.T).reshape(-1)
        else:
            state = np.matmul(w[None, :, :],
                              state.reshape(pre, dd, rest)).reshape(-1)
        pre *= r
    dims = []
    for l in range(L):
        dims += [qis[l], qjs[l]]
    back = state.reshape(dims)
    perm = [2 * l for l in range(L)] + [2 * l + 1 for l in range(L)]
    mi = int(np.prod(qis))
    mj = int(np.prod(qjs))
    return np.ascontiguousarray(back.transpose(perm)).reshape(mi, mj)


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


def plan_uniform(n: int, rho: float, decomp: Decomposition, d: int | None = None,
                 reps: int | None = None,
                 detect_sigma: float | None = None) -> SolverPlan:
    """Derive run parameters for the uniform-bucket solver.

    The threshold pair (f, S_f) and the implied exponent follow the base-level
    f^2 |S_f| maximization; skewed threshold sets switch the plan to the
    reflection-symmetrized tensor.  The operational power N, copy count, and
    score threshold come from a feasibility scan of the power-N efficacy
    classes at this instance size: the smallest configuration whose estimated
    per-round success clears P_ROUND_MIN is kept (the asymptotic constants
    would demand powers far past what double precision and desk runtimes
    support; the scan is recorded on the plan).
    """
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
    N_best = None
    while rank_lvl ** (N) <= RANK_BUDGET and N * len(base_levels) <= LEVEL_BUDGET:
        m = q_lvl ** N
        classes, _ = typeclass_capacity(level_table, N)
        # expansion comes per candidate N: coordinates per round
        dim = d if d is not None else max(64, n // 2)
        try:
            r = default_subset_size(dim, rho, qk_lvl ** N * (reps + 1))
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
                miss_all = (1.0 - p) ** reps
                if p >= P_ROUND_MIN and miss_all <= 0.02:
                    # among feasible configs at this N keep the highest
                    # per-round success; ties favor the larger threshold
                    if (best is None or cand[0] > best[0] + 0.02
                            or (abs(cand[0] - best[0]) <= 0.02
                                and cand[1] > best[1])):
                        best = cand
        if best is not None:
            break
        N += 1
    notes = []
    if best is None:
        if fallback is None:
            raise PlanError(
                f"no runnable configuration for n={n}, rho={rho} within the "
                f"rank budget")
        best = fallback
        notes.append(
            f"per-round success estimate {best[0]:.3f} is below the planning "
            f"target; recovery may need more repetitions")
    p, sigma, t_copies, r, rho_det, N = best

    levels = base_levels * N
    m = q_lvl ** N
    plan = SolverPlan(
        N=N, f=f, S_f=S_f.astype(np.uint8), m=m, g=n * t_copies / m,
        t=t_copies, reps=reps, detect_sigma=float(sigma),
        symmetrized=symmetrized, levels=levels, r=r, rho_det=rho_det,
        d_prime=qk_lvl ** N, n=n,
        formula_m=(20.0 * n / rho) ** (1.0 / (1.0 + math.log(f, t0.shape.q_i)))
        if rho > 0 and f > 0 else float("nan"),
        exponent=exponent_bound(decomp.rank, f * math.sqrt(S_f.sum())),
        p_round_est=p,
    )
    plan.notes.extend(notes)
    _finalize_kernel(plan)
    return plan


def _finalize_kernel(plan: SolverPlan):
    exec_levels, kernel, dropped = _screen_levels(plan.levels)
    plan.levels = exec_levels
    plan.kernel = kernel
    plan.surrogate_dropped_var = dropped
    if dropped > 0:
        plan.notes.append(
            f"detection decomposition replaced by unit-term surrogate; "
            f"dropped variance share {dropped:.2e}")


# ---------------------------------------------------------------------------
# bucketing and detection
# ---------------------------------------------------------------------------

def _dedupe_rows(mem: np.ndarray) -> np.ndarray:
    """Collapse duplicate bucket ids within each row to -1."""
    out = mem.astype(np.int64).copy()
    srt = np.sort(out, axis=1)
    dup_vals = srt[:, 1:][srt[:, 1:] == srt[:, :-1]]
    if dup_vals.size:
        for i in range(out.shape[0]):
            seen = set()
            row = out[i]
            for c in range(row.size):
                if row[c] in seen:
                    row[c] = -1
                else:
                    seen.add(row[c])
    return out


def _bucket_sizes(mem: np.ndarray, m: int) -> np.ndarray:
    valid = mem[mem >= 0]
    return np.bincount(valid, minlength=m).astype(np.int64)


def bucket_uniform(instance: Instance, plan: SolverPlan, seed,
                   offset: int | None = None,
                   force_planted=None) -> BucketState:
    """Draw t uniform bucket ids per input per side and aggregate the expanded
    vectors.  force_planted=(i_bucket, j_bucket) pins copy 0 of the planted
    pair (calibration hook for tests)."""
    rng = np.random.default_rng(seed)
    n, m, t = instance.n, plan.m, plan.t
    mem_x = rng.integers(0, m, size=(n, t))
    mem_y = rng.integers(0, m, size=(n, t))
    if force_planted is not None:
        i_star, j_star = instance.planted()
        mem_x[i_star, 0] = force_planted[0]
        mem_y[j_star, 0] = force_planted[1]
    fam = SplitFamily(instance.d, plan.r)
    if offset is None:
        offset = int(rng.integers(fam.size))
    return _bucket_state(instance.X, instance.Y, mem_x, mem_y, plan, offset,
                         rng, fam)


def _bucket_state(bits_x, bits_y, mem_x, mem_y, plan: SolverPlan,
                  offset: int, rng, fam: SplitFamily) -> BucketState:
    """Shared tail of both bucketers: collapse duplicate ids, aggregate the
    expanded window at offset, and draw one random sign per bucket row."""
    m = plan.m
    mem_x = _dedupe_rows(mem_x)
    mem_y = _dedupe_rows(mem_y)
    ex = expand_vectors(bits_x, plan.r, plan.d_prime, offset, fam)
    ey = expand_vectors(bits_y, plan.r, plan.d_prime, offset, fam)
    agg_x = bucket_aggregate(ex, mem_x, m)
    agg_y = bucket_aggregate(ey, mem_y, m)
    signs_x = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    signs_y = (1.0 - 2.0 * rng.integers(0, 2, size=m)).astype(np.float32)
    return BucketState(m, mem_x, mem_y, _bucket_sizes(mem_x, m),
                       _bucket_sizes(mem_y, m), agg_x, agg_y,
                       signs_x, signs_y, offset)


def detect(state: BucketState, plan: SolverPlan,
            counter: MultiplyCounter | None = None,
            return_scores: bool = False):
    """Score every bucket pair and flag |C|/sigma above the plan threshold.

    sigma is the square root of the realized-size variance map; cells with
    zero variance never flag.
    """
    A = state.agg_x * state.signs_x[:, None]
    B = state.agg_y * state.signs_y[:, None]
    tensors = [tensor_of_decomposition(d) for d in plan.levels]
    if plan.kernel == "matmul":
        C = A @ B.T
        if counter is not None:
            counter.add(A.shape[0] * A.shape[1] * B.shape[0])
        V = np.outer(state.sizes_x, state.sizes_y).astype(np.float64) * plan.d_prime
    elif plan.kernel == "subset_diag":
        C = _apply_subset_diag(plan.levels, A, B, counter=counter)
        V = _variance_map(tensors, state.sizes_x, state.sizes_y)
    else:
        C = apply_power(plan.levels, A.astype(np.float32), B.astype(np.float32),
                        dtype=np.float32, counter=counter)
        V = _variance_map(tensors, state.sizes_x, state.sizes_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.abs(C) / np.sqrt(V)
    score[~np.isfinite(score)] = 0.0
    ii, jj = np.nonzero(score >= plan.detect_sigma)
    flags = [(int(i), int(j), float(score[i, j])) for i, j in zip(ii, jj)]
    if return_scores:
        return flags, score, C, V
    return flags


def verify_candidates(instance: Instance, pairs, plan: SolverPlan, rng,
                      mapped_x: np.ndarray | None = None,
                      mapped_y: np.ndarray | None = None):
    """Keep pairs whose inner product on a fresh expanded window clears
    rho_det * dim / 2."""
    if not pairs:
        return []
    fam_src_x = mapped_x if mapped_x is not None else instance.X
    fam_src_y = mapped_y if mapped_y is not None else instance.Y
    fam = SplitFamily(instance.d, plan.r)
    dim = min(plan.verify_dim, fam.size)
    offset = int(rng.integers(fam.size))
    uniq = sorted(set(pairs))
    ai = np.array([p[0] for p in uniq])
    bj = np.array([p[1] for p in uniq])
    ex = expand_vectors(fam_src_x[ai], plan.r, dim, offset, fam)
    ey = expand_vectors(fam_src_y[bj], plan.r, dim, offset, fam)
    inner = dim - 2 * (ex ^ ey).sum(axis=1).astype(np.int64)
    thresh = plan.rho_det * dim / 2.0
    return [uniq[k] for k in range(len(uniq)) if inner[k] >= thresh]


def _members(mem: np.ndarray, bucket: int):
    rows = np.nonzero((mem == bucket).any(axis=1))[0]
    return rows


def _collect_candidates(state: BucketState, flags, cap_pairs: int = 200000):
    pairs = []
    for i, j, _ in flags:
        mx = _members(state.mem_x, i)
        my = _members(state.mem_y, j)
        for a in mx:
            for b in my:
                pairs.append((int(a), int(b)))
        if len(pairs) > cap_pairs:
            break
    return pairs


def _run_rounds(instance: Instance, plan: SolverPlan, seed: int, stream: int,
                draw, bits_x, bits_y, early_stop: bool,
                counter: MultiplyCounter | None) -> DetectionReport:
    """The round loop both solvers share.

    Round k draws its buckets with draw(k, rng, offset) from the round's own
    RNG (spawn key (stream, k)) at a window offset that advances d' per
    round; flagged bucket pairs' members are verified on fresh windows of
    bits_x / bits_y.  Stops at the first verified pair unless early_stop is
    off.
    """
    master = np.random.SeedSequence(seed)
    fam = SplitFamily(instance.d, plan.r)
    base_offset = int(np.random.default_rng(master.spawn(1)[0]).integers(fam.size))
    hits: dict = {}
    stats = []
    candidates: list = []
    for k in range(plan.reps):
        ss = np.random.SeedSequence(entropy=master.entropy, spawn_key=(stream, k))
        rng = np.random.default_rng(ss)
        offset = (base_offset + k * plan.d_prime) % fam.size
        state = draw(k, rng, offset)
        flags = detect(state, plan, counter=counter)
        for i, j, _ in flags:
            hits[(i, j)] = hits.get((i, j), 0) + 1
        cand = _collect_candidates(state, flags)
        good = verify_candidates(instance, cand, plan, rng,
                                 mapped_x=bits_x, mapped_y=bits_y)
        stats.append({"round": k, "flags": len(flags), "verified": len(good)})
        for p in good:
            if p not in candidates:
                candidates.append(p)
        if candidates and early_stop:
            break
    flagged = sorted(((i, j, c) for (i, j), c in hits.items()),
                     key=lambda x: -x[2])[:1000]
    return DetectionReport(bool(candidates), candidates, flagged, len(stats),
                           stats, plan)


def solve_uniform(instance: Instance, decomp: Decomposition,
                  plan: SolverPlan | None = None, seed: int = 0,
                  early_stop: bool = True,
                  counter: MultiplyCounter | None = None) -> DetectionReport:
    """Run up to plan.reps independent bucket+detect rounds with fresh
    expansion windows; flagged buckets' member pairs are verified on further
    fresh coordinates.  Stops at the first verified pair unless early_stop is
    off.  An empty candidate list means nothing survived verification."""
    if plan is None:
        plan = plan_uniform(instance.n, instance.rho, decomp, d=instance.d)

    def draw(k, rng, offset):
        return bucket_uniform(instance, plan, rng, offset=offset)

    return _run_rounds(instance, plan, seed, 1, draw, instance.X, instance.Y,
                       early_stop, counter)


# ---------------------------------------------------------------------------
# hashing plan and solver
# ---------------------------------------------------------------------------

def plan_lsh(n: int, P: np.ndarray, decomp: Decomposition, qp: StochasticPair,
             d: int | None = None, reps: int | None = None,
             detect_sigma: float | None = None) -> SolverPlan:
    """Parameters for the hashing-boosted solver on the symmetrized tensor.

    N solves (q^2 gamma)^N = 20 n (the polynomial analysis slack is dropped at
    this scale); buckets live on q^(2N) digit strings, each copy drawn by
    pushing 2N raw coordinates through Q_x then Q_y (mirrored on the y side).
    """
    t0 = tensor_of_decomposition(decomp)
    q = t0.shape.q_i
    P = np.asarray(P, float)
    g = gamma(qp, t0, P)
    if g <= 1.0 / q:
        raise PlanError(f"gamma = {g} <= 1/q: hashing cannot beat the trivial bound")
    N = max(1, math.ceil(math.log(20.0 * n) / math.log(q * q * g)))
    while (decomp.rank ** (2 * N) > RANK_BUDGET or 2 * N > LEVEL_BUDGET) and N > 1:
        N -= 1
    levels = [decomp, reflect_decomposition(decomp)] * N
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
    dim = d if d is not None else max(64, n // 2)
    r = default_subset_size(dim, mapping.rho_out, (qk ** (2 * N)) * (reps + 1))
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

    f, S_f = _threshold_choice(table)
    plan = SolverPlan(
        N=N, f=f, S_f=S_f.astype(np.uint8), m=m, g=float(g_target),
        t=1, reps=reps, detect_sigma=float(sigma),
        symmetrized=True, levels=levels, r=r, rho_det=rho_det,
        d_prime=qk ** (2 * N), n=n, lsh=True, qp=qp, P=P, copies=c,
        formula_m=float(m), exponent=exponent_bound(decomp.rank,
                                                    q * math.sqrt(g)),
        p_round_est=p_est,
    )
    _finalize_kernel(plan)
    return plan


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


def _lsh_memberships(symbols: np.ndarray, Qs, copies: int, rng, q: int):
    """Bucket digit strings: digit l of each copy is the Q-transition of raw
    coordinate l; Qs lists the per-digit transition matrix."""
    n = symbols.shape[0]
    L = len(Qs)
    mem = np.zeros((n, copies), dtype=np.int64)
    cum = [np.cumsum(Q, axis=1) for Q in Qs]
    for l in range(L):
        src = symbols[:, l].astype(int)
        u = rng.random((n, copies))
        thr = cum[l][src]                       # n x q
        digit = (u[:, :, None] >= thr[:, None, :]).sum(axis=2)
        mem = mem * q + digit
    return mem


def solve_lsh(instance: Instance, decomp: Decomposition,
              qp: StochasticPair | None = None, plan: SolverPlan | None = None,
              seed: int = 0, early_stop: bool = True,
              counter: MultiplyCounter | None = None) -> DetectionReport:
    """Hashing-boosted solve: bucket ids from Q-perturbed raw coordinates,
    detection on sign-mapped fresh coordinates through the symmetrized tensor."""
    if plan is None:
        if qp is None:
            raise ValueError("need a stochastic pair or a prebuilt plan")
        P = (instance.P if instance.P is not None
             else rho_joint_matrix(instance.rho))
        plan = plan_lsh(instance.n, P, decomp, qp, d=instance.d)
    q = plan.qp.q
    mapping = map_to_pm1(plan.P)
    rng_map = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(9,)))
    # sign-map symbols once; detection expands windows of the mapped bits
    bits_x = (mapping.apply_x(instance.X, rng_map) < 0).astype(np.uint8)
    bits_y = (mapping.apply_y(instance.Y, rng_map) < 0).astype(np.uint8)

    L = 2 * plan.N
    Q_x, Q_y = plan.qp.Q_x, plan.qp.Q_y
    Qs_x = [Q_x if (l % 2 == 0) else Q_y for l in range(L)]
    Qs_y = [Q_y if (l % 2 == 0) else Q_x for l in range(L)]
    fam = SplitFamily(instance.d, plan.r)

    def draw(k, rng, offset):
        start = (k * L) % max(instance.d - L, 1)
        win_x = instance.X[:, start:start + L]
        win_y = instance.Y[:, start:start + L]
        mem_x = _lsh_memberships(win_x, Qs_x, plan.copies, rng, q)
        mem_y = _lsh_memberships(win_y, Qs_y, plan.copies, rng, q)
        return _bucket_state(bits_x, bits_y, mem_x, mem_y, plan, offset, rng,
                             fam)

    return _run_rounds(instance, plan, seed, 2, draw, bits_x, bits_y,
                       early_stop, counter)


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
