"""Solver: planning, bucketing, detection statistics, end-to-end recovery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lumen import masked, solver
from lumen.core import (MultiplyCounter, Rank1Term, Decomposition,
                        TensorShape, _interleave, _sweep, _uninterleave,
                        apply_power, kronecker, reflect_decomposition,
                        tensor_of_decomposition)
from lumen.efficacy import (StochasticPair, eff_table, exponent_bound,
                            rho_joint_matrix, t2112_flip_pair,
                            t2112_optimal_a, uniform_pair)
from lumen.harness import lemma_checks
from lumen.instances import (SplitFamily, expand_vectors, gen_planted,
                             gen_planted_p, pack_bits)
from lumen.solver import (BucketState, PlanError, bucket_uniform, detect,
                          plan_lsh, plan_uniform, skew_metrics, solve_lsh,
                          solve_uniform, verify_candidates, verify_threshold,
                          _apply_subset_diag,
                          _bucket_index, _bucket_state, _build_detector,
                          _collect_candidates, _dedupe_rows,
                          _lsh_memberships, _pair_weight_matrix,
                          _threshold_choice, _unit_mask, _variance_map)
from lumen.zoo import (matmul_tensor, strassen_decomposition,
                       sw_decomposition, t2112_decomposition,
                       t2112_limit_tensor, zoo_decomposition)


def t2112():
    return t2112_decomposition(0.025, warn=False)


def threshold_set(decomp):
    """The base-level efficacy threshold pair (f, S_f) of decomp."""
    return _threshold_choice(eff_table(tensor_of_decomposition(decomp))
                             .per_entry)


def pinned_state(inst, plan, seed, pin, offset=None):
    """bucket_uniform's round with copy 0 of the planted pair pinned to the
    buckets pin: the same draws in the same order, then _bucket_state."""
    rng = np.random.default_rng(seed)
    mem_x = rng.integers(0, plan.m, size=(inst.n, plan.t))
    mem_y = rng.integers(0, plan.m, size=(inst.n, plan.t))
    i_star, j_star = inst.planted()
    mem_x[i_star, 0], mem_y[j_star, 0] = pin
    if offset is None:
        offset = int(rng.integers(SplitFamily(inst.d, plan.r).size))
    return _bucket_state(inst, mem_x, mem_y, plan, offset, rng)


class TestSkewMetrics:
    def test_diagonal(self):
        S = np.eye(2, dtype=bool)
        assert skew_metrics(S) == (2, 2, True)

    def test_single_row(self):
        S = np.zeros((2, 2), dtype=bool)
        S[0] = True
        assert skew_metrics(S) == (4, 2, True)

    def test_l_shape_not_regular(self):
        S = np.zeros((3, 3), dtype=bool)
        S[0, 0] = S[0, 1] = S[1, 0] = True
        V_x, V_y, reg = skew_metrics(S)
        assert (V_x, V_y, reg) == (5, 5, False)


def _keep_row_zero():
    """The matmul slots of output row i = 0 only, each with coefficient 1:
    a subset of matmul whose efficacy sits in one row."""
    terms = []
    for j in range(2):
        for k in range(2):
            a = np.zeros((2, 2)); a[0, k] = 1
            b = np.zeros((2, 2)); b[j, k] = 1
            g = np.zeros((2, 2)); g[0, j] = 1
            terms.append(Rank1Term(a, b, g))
    return Decomposition(TensorShape(2, 2, 2), tuple(terms))


def _swept_variance(weights, sizes_x, sizes_y):
    """The pair-weight sweep over the interleaved outer product of the
    sizes, on any weights, diagonal or not."""
    qs = [math.isqrt(W.shape[0]) for W in weights]
    sizes = _interleave(np.outer(sizes_x, sizes_y), qs, qs, np.float64)
    return _uninterleave(_sweep(sizes, weights), qs, qs)


def _closed_form(monkeypatch, det, sizes_x, sizes_y, ref):
    """The closed form where it lives, with the sweep refused: the
    Detector.factors product outer(sizes_x, sizes_y) * kron(KA, KB) equals
    the swept ref bit for bit, and _flag_cells, at a sigma that every
    nonzero cell clears, flags exactly the cells of nonzero ref, in
    row-major order, each scored |C| / sqrt(ref).  Returns the product."""
    def refuse(vec, mats):
        raise AssertionError("diagonal weights were swept")

    monkeypatch.setattr(solver, "_sweep", refuse)
    KA, KB = det.factors
    V = np.outer(sizes_x, sizes_y) * np.kron(KA, KB)
    assert V.dtype == np.float64 and np.array_equal(V, ref)
    rng = np.random.default_rng(len(ref))
    C = (rng.integers(1, 1000, size=ref.shape)
         * rng.choice((-1, 1), size=ref.shape)).astype(np.float32)
    I, J = np.nonzero(ref)
    want = np.abs(C[I, J]) / np.sqrt(ref[I, J])
    assert (solver._flag_cells(C, det.factors, sizes_x, sizes_y, 1e-6)
            == list(zip(I.tolist(), J.tolist(), want.tolist())))
    return V


def _halved_gammas(eps):
    """t2112 at eps with every gamma halved: its matmul slots hold 1/2 and
    eps^4 / 2, so it has no unit matmul slot, and its pair weights are not
    diagonal."""
    d = t2112_decomposition(eps, warn=False)
    return Decomposition(d.shape, tuple(
        dataclasses.replace(t, gamma=t.gamma / 2) for t in d.terms))


def _coefficient_two_matmul():
    """<2,2,2> with coefficient 2 on every matmul slot: diagonal pair
    weights, but not a 0/1 mask."""
    terms = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a = np.zeros((2, 2)); a[i, k] = 1
                b = np.zeros((2, 2)); b[j, k] = 1
                g = np.zeros((2, 2)); g[i, j] = 2
                terms.append(Rank1Term(a, b, g))
    return Decomposition(TensorShape(2, 2, 2), tuple(terms))


class TestPlanUniform:
    def test_t2112_threshold_tie_rule(self):
        p = plan_uniform(1024, 0.8, t2112(), d=512)
        f, S_f = threshold_set(t2112())
        assert abs(f - math.sqrt(2)) < 1e-2
        assert S_f.sum() == 2 and S_f[0, 0] and S_f[1, 1]
        assert not p.symmetrized

    def test_matmul_plan_exponent_consistency(self):
        p = plan_uniform(1024, 0.8, strassen_decomposition(), d=512)
        assert threshold_set(strassen_decomposition())[1].sum() == 4
        want = exponent_bound(7, math.sqrt(2) * 2)
        assert abs(p.exponent - want) < 1e-9
        assert abs(p.exponent - exponent_bound(7, math.sqrt(8))) < 1e-9
        assert p.kernel == "masked_matmul"
        assert p.detector.missing == ((),) * p.N

    def test_skewed_tensor_symmetrizes(self):
        """A subset of matmul keeping only the i = 0 slots puts its efficacy
        in one row (V_x = |S|^2 > |S|^1.5), so the plan runs T interleaved
        with its reflection: 2N levels, alternating, 4^N buckets a side.
        Its weights are diagonal and the closed form of its half factors
        equals the variance sweep.  Plan only; TestMaskedMatmulKernel runs
        it."""
        d = _keep_row_zero()
        t = tensor_of_decomposition(d)
        reflected = tensor_of_decomposition(reflect_decomposition(d))
        for n in (96, 128):
            p = plan_uniform(n, 0.9, d, d=256)
            assert p.symmetrized and p.kernel == "masked_matmul"
            assert len(p.levels) == 2 * p.N and p.m == 4 ** p.N
            for l, lv in enumerate(p.levels):
                want = reflected if l % 2 else t
                assert np.array_equal(tensor_of_decomposition(lv).coeff,
                                      want.coeff)
            assert all(len(E) == 4 for E in p.detector.missing)
            rng = np.random.default_rng(p.N)
            sizes_x = rng.integers(0, 9, size=p.m)
            sizes_y = rng.integers(0, 9, size=p.m)
            assert np.array_equal(
                np.outer(sizes_x, sizes_y) * np.kron(*p.detector.factors),
                _variance_map(p.detector.weights, sizes_x, sizes_y))

    def test_eff_at_most_one_refused(self):
        c = np.zeros((2, 2, 2, 2, 2, 2))
        c[0, 0, 0, 0, 0, 0] = 1.0
        a = np.zeros((2, 2)); a[0, 0] = 1
        b = np.zeros((2, 2)); b[0, 0] = 1
        g = np.zeros((2, 2)); g[0, 0] = 1
        d = Decomposition(TensorShape(2, 2, 2), (Rank1Term(a, b, g),))
        with pytest.raises(PlanError):
            plan_uniform(256, 0.8, d, d=128)

    def test_no_positive_efficacy_refused(self):
        """strassen with every gamma negated has eff(T) = sqrt 8 but no
        positive efficacy entry, so no threshold set exists."""
        d = strassen_decomposition()
        negated = Decomposition(d.shape, tuple(
            dataclasses.replace(t, gamma=-t.gamma) for t in d.terms))
        with pytest.raises(PlanError, match=(
                "^tensor has no positive efficacy entries$")):
            plan_uniform(64, 0.8, negated, d=256)

    def test_unexpandable_plan_names_the_cause(self):
        """At d = 4 no subset family covers a round's coordinates at any N,
        so no configuration runs, and the refusal says why."""
        with pytest.raises(PlanError, match=(
                r"^no runnable configuration for n=64, rho=0\.8 within the "
                r"rank budget: family of d=4 too small for \d+ coordinates$")):
            plan_uniform(64, 0.8, t2112(), d=4)

    @pytest.mark.parametrize("lsh", [False, True])
    @pytest.mark.parametrize("kw, why", [
        ({"reps": 0}, "reps = 0 is below 1"),
        ({"reps": -3}, "reps = -3 is below 1"),
        ({"detect_sigma": 0.0}, "detect_sigma = 0.0 is not positive"),
        ({"detect_sigma": float("nan")}, "detect_sigma = nan is not positive")])
    def test_bad_run_options_refused(self, kw, why, lsh):
        """Both planners refuse these before any arithmetic."""
        d = sw_decomposition()
        with pytest.raises(PlanError, match=f"^{why}$"):
            if lsh:
                plan_lsh(64, rho_joint_matrix(0.8), d, t2112_flip_pair(0.8),
                         d=512, **kw)
            else:
                plan_uniform(64, 0.8, d, d=512, **kw)

    def test_plan_invariants(self):
        for d in (strassen_decomposition(), t2112()):
            p = plan_uniform(1024, 0.8, d, d=512)
            # m g within a factor two of n t
            assert 0.5 <= p.m * p.g / (1024 * p.t) <= 2.0
            S_f = threshold_set(d)[1]
            Vx, Vy, _ = skew_metrics(S_f)
            assert Vx <= S_f.sum() ** 1.5 + 1e-9
            assert p.reps == 25


class TestBucketUniform:
    def test_occupancy_and_conservation(self):
        inst = gen_planted(512, 256, 0.8, seed=2)
        plan = plan_uniform(512, 0.8, strassen_decomposition(), d=256)
        st = bucket_uniform(inst, plan, np.random.default_rng(0))
        n_members = (st.mem_x >= 0).sum()
        dups = st.mem_x.size - n_members
        assert n_members == 512 * plan.t - dups
        sizes = np.diff(st.index_x[1])
        assert sizes.sum() == st.index_x[0].size == n_members
        # mean occupancy within 3 sigma of n t / m
        lam = 512 * plan.t / plan.m
        assert abs(sizes.mean() - lam) < 3 * math.sqrt(lam / plan.m)

    def test_forced_planting(self):
        inst = gen_planted(128, 256, 0.9, seed=3)
        plan = plan_uniform(128, 0.9, strassen_decomposition(), d=256)
        st = pinned_state(inst, plan, np.random.default_rng(1), (5, 9))
        i, j = inst.planted()
        assert 5 in st.mem_x[i] and 9 in st.mem_y[j]

    def test_dedupe_rows(self):
        """Rows with 0, 1 and 2 repeats: sorted, repeats collapsed to -1."""
        mem = np.array([[3, 1, 2], [4, 0, 4], [5, 5, 5]])
        assert _dedupe_rows(mem).tolist() == [[1, 2, 3], [0, 4, -1],
                                              [5, -1, -1]]


class TestDetect:
    def test_zero_aggregates_no_flags(self):
        plan = plan_uniform(128, 0.9, strassen_decomposition(), d=256)
        m, dp = plan.m, plan.d_prime
        one_each = (np.arange(m), np.arange(m + 1))
        st = BucketState(np.zeros((1, 1), int), np.zeros((1, 1), int),
                         one_each, one_each,
                         np.zeros((m, dp), np.float32),
                         np.zeros((m, dp), np.float32),
                         np.ones(m, np.float32), np.ones(m, np.float32))
        assert detect(st, plan) == []

    def test_null_flag_fraction_chebyshev(self):
        """At the default threshold of 10 the null flag rate must sit far
        below the Chebyshev budget 1/100."""
        inst = gen_planted(256, 256, 0.5, seed=4, planted=False)
        plan = plan_uniform(256, 0.5, strassen_decomposition(), d=256,
                            detect_sigma=10.0)
        total_cells = 0
        total_flags = 0
        for k in range(10):
            st = bucket_uniform(inst, plan, np.random.default_rng(50 + k),
                                offset=k * plan.d_prime)
            total_flags += len(detect(st, plan))
            total_cells += plan.m ** 2
        frac = total_flags / total_cells
        assert frac <= 1 / 100 + 3 * math.sqrt(0.01 / total_cells)

    def test_forced_diagonal_flags_with_high_probability(self):
        """With the planted copies pinned to a strong pair the flag rate must
        clear the 0.24 floor by a wide margin."""
        rho = 0.9
        inst = gen_planted(256, 512, rho, seed=5)
        plan = plan_uniform(256, rho, strassen_decomposition(), d=512)
        hits = 0
        reps = 20
        for k in range(reps):
            st = pinned_state(inst, plan, np.random.default_rng(100 + k),
                              (3, 3), offset=k * plan.d_prime)
            flags = detect(st, plan)
            hits += any(i == 3 and j == 3 for i, j, _ in flags)
        assert hits / reps >= 0.24

    def test_signal_calibration_forced_bucket(self):
        """E[C[i,j]] with pinned planting matches the realized expanded
        correlation times the diagonal coefficient sum within
        4 sigma / sqrt(reps)."""
        rho = 0.8
        n, dim = 128, 512
        inst = gen_planted(n, dim, rho, seed=6)
        plan = plan_uniform(n, rho, strassen_decomposition(), d=dim)
        # realized expanded correlation of this instance's planted pair over
        # the whole family (the per-window mean averages to this)
        from lumen.instances import expand_vectors
        i_star, j_star = inst.planted()
        fam = SplitFamily(dim, plan.r)
        ex = expand_vectors(inst.X[[i_star]], plan.r, fam.size)
        ey = expand_vectors(inst.Y[[j_star]], plan.r, fam.size)
        rho_hat = float(1.0 - 2.0 * (ex ^ ey).mean())
        reps = 200
        signed = []
        sig = None
        for k in range(reps):
            st = pinned_state(inst, plan, np.random.default_rng(1000 + k),
                              (7, 7), offset=(k * plan.d_prime) % fam.size)
            flags, score, C, V = detect(st, plan, return_scores=True)
            signed.append(C[7, 7] * st.signs_x[7] * st.signs_y[7])
            sig = math.sqrt(V[7, 7])
        mean = float(np.mean(signed))
        want = rho_hat * plan.d_prime   # diagonal coefficient sum = d'
        assert abs(mean - want) <= 4 * sig / math.sqrt(reps)

    def test_variance_calibration_null(self):
        """Pooled empirical variance of standardized scores within [0.8, 1.25]
        of the realized-size formula."""
        n, dim = 128, 512
        inst = gen_planted(n, dim, 0.0, seed=7, planted=False)
        plan = plan_uniform(n, 0.8, t2112(), d=dim)
        # shrink to N=4 for the calibration run
        plan.detector = _build_detector([t2112()] * 4)
        plan.N = 4
        ratios = []
        for k in range(200):
            st = bucket_uniform(inst, plan, np.random.default_rng(2000 + k),
                                offset=k * 16)
            flags, score, C, V = detect(st, plan, return_scores=True)
            ok = V > 0
            ratios.append((C[ok] ** 2 / V[ok]).mean())
        pooled = float(np.mean(ratios))
        assert 0.8 <= pooled <= 1.25

    def test_reflection_transposes_scores(self):
        d = t2112_decomposition(0.5)
        dr = reflect_decomposition(d)
        n, dim = 64, 256
        inst = gen_planted(n, dim, 0.8, seed=8)
        plan = plan_uniform(n, 0.8, d, d=dim)
        plan_r = plan_uniform(n, 0.8, dr, d=dim)
        plan_r.detect_sigma = plan.detect_sigma
        st = bucket_uniform(inst, plan, np.random.default_rng(3000))
        # swapped state: exchange the two sides
        st_sw = BucketState(st.mem_y, st.mem_x, st.index_y, st.index_x,
                            st.agg_y, st.agg_x, st.signs_y, st.signs_x)
        _, score, C, V = detect(st, plan, return_scores=True)
        _, score_r, C_r, V_r = detect(st_sw, plan_r, return_scores=True)
        assert np.allclose(C_r, C.T, rtol=1e-4, atol=1e-3)
        assert np.allclose(V_r, V.T, rtol=1e-9)


def _check_subset_diag(levels, seed):
    """The subset_diag kernel built from the detector's omitted slots
    agrees with the float64 rank recursion on its executed levels and runs
    exactly prod(rank) multiplies."""
    det = _build_detector(levels)
    assert det.kind == "subset_diag"
    L = len(levels)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 ** L, 2 ** L)).astype(np.float32)
    B = rng.standard_normal((2 ** L, 2 ** L)).astype(np.float32)
    counter = MultiplyCounter()
    C = _apply_subset_diag(det.schedule, A, B, counter=counter)
    ref = apply_power(det.levels, A, B, dtype=np.float64)
    assert np.abs(C - ref).max() <= 1e-4 * np.abs(ref).max()
    assert counter.count == math.prod(d.rank for d in det.levels)


class TestSubsetDiagKernel:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_oracle_equivalence_and_count(self, L):
        _check_subset_diag([t2112()] * L, L)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_interleaved_reflection(self, k):
        """The levels the t2112 hashing plan runs: T and its reflection."""
        t = t2112()
        _check_subset_diag([t, reflect_decomposition(t)] * k, 10 + k)

    @pytest.mark.parametrize("reflect, n", [
        *((False, L) for L in range(2, 9)), *((True, k) for k in range(1, 5))])
    def test_integer_operands_exact(self, reflect, n):
        """Bucket sums are small integers, so every float32 partial sum is
        exact: the kernel must equal the float64 rank recursion bit for
        bit, whatever order it sums in.  Levels are T^n, or [T, reflect(T)]
        repeated n times as the hashing plan runs them."""
        t = t2112()
        det = _build_detector([t, reflect_decomposition(t)] * n if reflect
                              else [t] * n)
        m = det.m
        rng = np.random.default_rng(m + n)
        A = rng.integers(-4, 5, (m, m)).astype(np.float32)
        B = rng.integers(-4, 5, (m, m)).astype(np.float32)
        C = _apply_subset_diag(det.schedule, A, B)
        assert np.array_equal(C, apply_power(det.levels, A, B,
                                             dtype=np.float64))

    @pytest.mark.parametrize("L", (1, 2, 3, 4, 7))
    @pytest.mark.parametrize("first", range(4))
    def test_every_forced_digit_pair(self, L, first):
        """Levels built through the Python API that omit (0, k, 1) and
        (1, k', 0), for all four (k, k'), mixed level by level; k = k'
        forces the same k digit at both off cells (Delta_l = 0), which no
        zoo plan has.  On integer operands in [-4, 4] the kernel equals the
        float64 rank recursion bit for bit and counts 6^L."""
        pairs = [(0, 1), (1, 0), (0, 0), (1, 1)]
        levels = [_six_slot_level(*pairs[(first + l) % 4]) for l in range(L)]
        det = _build_detector(levels)
        assert det.kind == "subset_diag"
        assert det.missing == tuple(((0, k, 1), (1, k2, 0)) for k, k2 in
                                    (pairs[(first + l) % 4]
                                     for l in range(L)))
        A, B = _integer_operands(det, 100 * L + first)
        counter = MultiplyCounter()
        C = _apply_subset_diag(det.schedule, A, B, counter=counter)
        assert np.array_equal(C, apply_power(det.levels, A, B,
                                             dtype=np.float64))
        assert counter.count == 6 ** L

    def test_ten_levels_equal_the_masked_matmul_kernel(self):
        """At the benchmark's L = 10, t2112's kernel equals the
        independent exact masked_matmul kernel on the same mask, bit for
        bit, on integer operands."""
        det = _build_detector([t2112()] * 10)
        A, B = _integer_operands(det, 10)
        C = _apply_subset_diag(det.schedule, A, B)
        assert np.array_equal(C, masked.apply(masked.schedule(
            tuple(d.shape for d in det.levels), det.missing), A, B))

    def test_peak_memory(self):
        """At L = 10 the schedule, whose buffers hold 4.5 m^2 float32, and
        two applies allocate at most 6 m^2 float32 at their peak, both C
        included: an apply allocates only its C."""
        det = _build_detector([t2112()] * 10)
        A, B = _integer_operands(det, 11)
        tracemalloc.start()
        try:
            masks = det.schedule
            _apply_subset_diag(masks, A, B)
            _apply_subset_diag(masks, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * det.m ** 2 * np.dtype(np.float32).itemsize


def _six_slot_level(k, k2):
    """The q = 2 unit level that keeps every diagonal slot and, at its off
    cells, only (0, 1 - k, 1) and (1, 1 - k2, 0)."""
    terms = []
    for i, kk, j in ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1),
                     (0, 1 - k, 1), (1, 1 - k2, 0)):
        a, b, g = np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        a[i, kk] = b[j, kk] = g[i, j] = 1.0
        terms.append(Rank1Term(a, b, g))
    return Decomposition(TensorShape(2, 2, 2), tuple(terms))


def _integer_operands(det, seed, top=4):
    rng = np.random.default_rng(seed)
    A = rng.integers(-top, top + 1, (det.m, det.d_prime)).astype(np.float32)
    B = rng.integers(-top, top + 1, (det.m, det.d_prime)).astype(np.float32)
    return A, B


def _masked_levels(name, n):
    sw = sw_decomposition()
    return {"sw": [sw] * n,
            "sw-reflected": [sw, reflect_decomposition(sw)] * n,
            "strassen": [strassen_decomposition()] * n}[name]


class TestMaskedMatmulKernel:
    @pytest.mark.parametrize("name, n", [
        *(("sw", L) for L in range(1, 9)),
        *(("sw-reflected", k) for k in range(1, 5))])
    def test_integer_operands_exact_and_count(self, name, n):
        """Bucket sums are small integers, so the kernel's float32 sums are
        exact: C must equal the float64 rank recursion bit for bit, and it
        runs the schedule's closed-form count, 9^L while no box is trimmed
        (L <= 7) and fewer beyond."""
        det = _build_detector(_masked_levels(name, n))
        assert det.kind == "masked_matmul"
        assert all(len(E) == 1 for E in det.missing)
        L = len(det.levels)
        A, B = _integer_operands(det, det.m + n)
        counter = MultiplyCounter()
        C = det.apply(A, B, counter=counter)
        assert C.dtype == np.float32
        assert np.array_equal(C, apply_power(det.levels, A, B,
                                             dtype=np.float64))
        assert counter.count == det.multiplies == _sw_multiplies(L)
        assert det.multiplies == _scheduled_multiplies(det.schedule)
        assert (det.multiplies == 9 ** L) == (L <= 7)
        assert det.rank_product == 6 ** L

    def test_sw_schedule_at_the_benchmark_plan(self):
        """The mixed-1k sw hashing plan's L = 10 schedule: 2^10 groups in
        1,122 products at 2.09e9 multiplies, where its untrimmed boxes
        would run 9^10 = 3.49e9.  Schedule only."""
        det = _build_detector(_masked_levels("sw-reflected", 5))
        ops = det.schedule[0]
        assert sum(out is not None for _, _, out in ops) == 1122
        assert det.multiplies == _sw_multiplies(10) == 2090081169
        assert det.multiplies == _scheduled_multiplies(det.schedule)

    @pytest.mark.parametrize("L", (1, 2, 3, 5))
    def test_matmul_is_one_blas_product(self, L):
        """With no omitted slot the kernel is exactly A @ B.T, byte for byte,
        at m d' m multiplies."""
        det = _build_detector(_masked_levels("strassen", L))
        assert det.kind == "masked_matmul" and det.missing == ((),) * L
        rng = np.random.default_rng(L)
        A = rng.standard_normal((det.m, det.d_prime)).astype(np.float32)
        B = rng.standard_normal((det.m, det.d_prime)).astype(np.float32)
        counter = MultiplyCounter()
        C = det.apply(A, B, counter=counter)
        assert C.tobytes() == (A @ B.T).tobytes()
        assert counter.count == det.multiplies == det.m ** 2 * det.d_prime
        assert det.rank_product == 7 ** L

    @pytest.mark.parametrize("L", (2, 4, 6))
    def test_several_omitted_slots_per_level(self, L):
        """t2112's unit slots omit two slots a level; run through this
        kernel they match the float64 rank recursion and run 10^L."""
        det = _build_detector([t2112()] * L)
        M = _unit_mask(tensor_of_decomposition(det.levels[0]))
        missing = tuple(map(tuple, np.argwhere(M == 0)))
        assert len(missing) == 2
        A, B = _integer_operands(det, L)
        counter = MultiplyCounter()
        C = masked.apply(masked.schedule(
            [d.shape for d in det.levels], [missing] * L), A, B,
            counter=counter)
        assert np.array_equal(C, apply_power(det.levels, A, B,
                                             dtype=np.float64))
        assert counter.count == 10 ** L

    @pytest.mark.parametrize("L", range(1, 11))
    def test_random_masks(self, L):
        """Levels built through the Python API that omit a random subset of
        the 8 slots, none and all included, mixed level by level.  Each
        level's subset is drawn until the schedule holds at most 2^12
        groups.  On integer operands the kernel equals the float64 rank
        recursion bit for bit and counts the multiplies of its products."""
        rng = np.random.default_rng(1000 + L)
        slots = [(i, k, j) for i in range(2) for k in range(2)
                 for j in range(2)]
        shape = TensorShape(2, 2, 2)
        levels, groups = [], 1
        draws = [set(), set(slots)] if L == 2 else []
        while len(levels) < L:
            E = draws.pop() if draws else {
                s for s in slots if rng.random() < 0.5}
            units = len(masked._level_units(shape, E))
            if groups * max(units, 1) <= 2 ** 12:
                levels.append(_mask_level(shape, E))
                groups *= max(units, 1)
        _check_masked_matmul(levels, L)

    @pytest.mark.parametrize("L", (1, 2, 3))
    def test_three_by_three_masks(self, L):
        """<3, 3, 3> levels, which only the Python API builds, whose cells
        allow inner digits that are no run ({0, 2}) and whose classes are
        no box: the units split into runs, and a level whose boxes cannot
        be painted in order splits by row."""
        shape = TensorShape(3, 3, 3)
        levels = [
            _mask_level(shape, {(0, 1, 0), (2, 1, 2), (1, 0, 1)}),
            _mask_level(shape, {(0, 0, 0), (1, 0, 1), (2, 0, 2), (0, 2, 1),
                                (1, 2, 0), (2, 1, 1)}),
            _mask_level(shape, {(i, k, j) for i in range(3) for k in range(3)
                                for j in range(3) if (i + j) % 2})]
        _check_masked_matmul(levels[:L], L)

    def test_mixed_shapes(self):
        """A <3, 2, 2> level (q_i = 3, q_j = 2, q_k = 2) among sw levels."""
        levels = [sw_decomposition(),
                  _mask_level(TensorShape(3, 2, 2), {(0, 0, 0), (2, 1, 1)}),
                  sw_decomposition()]
        _check_masked_matmul(levels, 7)

    def test_keep_row_zero_is_one_product(self):
        """Every omitted cell of the i = 0 tensor allows no k, so its
        symmetrized plan (N = 4, 8 levels, m = 256) is one product of the
        2^N rows that are 0 on the T levels and the 2^N columns that are 0
        on the reflected ones, over all d' inner digits."""
        d = _keep_row_zero()
        plan = plan_uniform(128, 0.9, d, d=256)
        det = plan.detector
        assert plan.N == 4 and len(det.levels) == 8
        assert sum(out is not None for _, _, out in det.schedule[0]) == 1
        assert det.multiplies == 2 ** 4 * det.d_prime * 2 ** 4
        _check_masked_matmul(det.levels, 128)

    @pytest.mark.parametrize("name, n", [("sw", 6), ("sw-reflected", 3)])
    def test_exact_up_to_the_single_product_bound(self, name, n):
        """Every partial sum of a cell is a sum of A B products over a set
        of K, so C is exact in float32 while sum_K |A B| < 2^24, the bound
        of one float32 A @ B.T, at any level count."""
        det = _build_detector(_masked_levels(name, n))
        top = math.isqrt(2 ** 24 // det.d_prime) - 1
        A, B = _integer_operands(det, n, top)
        # cell (0, 0) omits a slot at every level: its terms' sums reach
        # nearly 2^24 while C[0, 0] itself is one product
        A[0], B[0] = top, -top
        assert 2 ** 23 < det.d_prime * top ** 2 < 2 ** 24
        C = det.apply(A, B)
        assert np.array_equal(C, apply_power(det.levels, A, B,
                                             dtype=np.float64))


def _mask_level(shape, omitted):
    """The unit decomposition of the matmul slots (i, k, j) of shape that
    are not in omitted."""
    terms = []
    for i in range(shape.q_i):
        for k in range(shape.q_k):
            for j in range(shape.q_j):
                if (i, k, j) not in omitted:
                    a = np.zeros((shape.q_i, shape.q_k)); a[i, k] = 1
                    b = np.zeros((shape.q_j, shape.q_k)); b[j, k] = 1
                    g = np.zeros((shape.q_i, shape.q_j)); g[i, j] = 1
                    terms.append(Rank1Term(a, b, g))
    return Decomposition(shape, tuple(terms))


def _sw_multiplies(L):
    """The schedule's multiplies at L sw levels, in closed form.  The group
    that pins the levels Z has f = L - |Z| free levels and a 2^f x 2^f x
    2^f box, trimmed by row digit on its top max(0, f - b) levels, b =
    log2 BLOCK_ROWS, each of which keeps 3 of its 4 cells."""
    b = masked.BLOCK_ROWS.bit_length() - 1
    return sum(math.comb(L, f) * 8 ** f * 3 ** max(0, f - b)
               // 4 ** max(0, f - b) for f in range(L + 1))


def _scheduled_multiplies(groups):
    """The multiplies of a schedule's products, read off their operand
    shapes."""
    return sum(a.shape[0] * a.shape[1] * b.shape[1]
               if isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
               else math.prod(a[1]) * b[1][1]
               for a, b, out in groups[0] if out is not None)


def _check_masked_matmul(levels, seed):
    """The masked_matmul kernel on levels equals the float64 rank recursion
    bit for bit on integer operands, and counts exactly the multiplies of
    its products."""
    det = _build_detector(levels)
    assert det.kind == "masked_matmul"
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, (det.m, det.d_prime)).astype(np.float32)
    B = rng.integers(-3, 4, (math.prod(d.shape.q_j for d in levels),
                             det.d_prime)).astype(np.float32)
    counter = MultiplyCounter()
    C = det.apply(A, B, counter=counter)
    assert C.dtype == np.float32
    assert np.array_equal(C, apply_power(det.levels, A, B, dtype=np.float64))
    assert counter.count == det.multiplies == _scheduled_multiplies(
        det.schedule)


def _count_variance_cases():
    sw, t = sw_decomposition(), t2112()
    cases = {f"sw-L{L}": [sw] * L for L in (1, 2, 3, 6)}
    cases["sw-reflected-L4"] = [sw, reflect_decomposition(sw)] * 2
    cases["strassen-L3"] = [strassen_decomposition()] * 3
    cases["t2112-L4"] = [t] * 4
    cases["t2112-reflected-L4"] = [t, reflect_decomposition(t)] * 2
    return cases


class TestCountVariance:
    @pytest.mark.parametrize("name", list(_count_variance_cases()))
    def test_equals_the_variance_sweep(self, monkeypatch, name):
        """The mask kinds keep the pair-weight matrices of their executable
        levels; those are diagonal, and the closed form outer(sizes) *
        kron(K_l) of their half factors, which _flag_cells scores by,
        equals the sweep, bit for bit."""
        det = _build_detector(_count_variance_cases()[name])
        assert det.kind in ("masked_matmul", "subset_diag")
        for W, d in zip(det.weights, det.levels):
            assert np.array_equal(
                W, _pair_weight_matrix(tensor_of_decomposition(d)).T)
        rng = np.random.default_rng(det.m)
        sizes_x = rng.integers(0, 9, size=det.m)
        sizes_y = rng.integers(0, 9, size=det.m)
        ref = _swept_variance(det.weights, sizes_x, sizes_y)
        _closed_form(monkeypatch, det, sizes_x, sizes_y, ref)

    def test_counts_per_level(self):
        """The diagonal of each level's weights counts the k slots it keeps
        at each output cell: sw keeps one at (0, 0) and two elsewhere, the
        t2112 unit slots one at each off cell, matmul two everywhere; all-2
        counts give the former matmul variance outer(sizes) * d'."""
        def counts(det):
            return [W.diagonal().reshape(2, 2) for W in det.weights]

        sw, t = sw_decomposition(), t2112()
        assert np.array_equal(
            counts(_build_detector([sw, reflect_decomposition(sw)])),
            [[[1, 2], [2, 2]]] * 2)
        det = _build_detector([t, reflect_decomposition(t)] * 2)
        assert np.array_equal(counts(det), [[[2, 1], [1, 2]]] * 4)
        assert np.array_equal(
            counts(_build_detector([strassen_decomposition()] * 2)),
            np.full((2, 2, 2), 2))
        V = _variance_map((np.diag(np.full(4, 2.0)),) * 3,
                          np.arange(8), np.arange(8) + 1)
        assert np.array_equal(V, np.outer(np.arange(8), np.arange(8) + 1)
                              * 8.0)

    @pytest.mark.parametrize("L", (1, 2, 3, 5))
    def test_diagonal_non_mask_level(self, monkeypatch, L):
        """Coefficient-2 matmul is no 0/1 mask, so it detects with the rank
        sweep; its weights are still diagonal, 4 x 2 slots a cell, and the
        closed form of its half factors equals the sweep bit for bit."""
        det = _build_detector([_coefficient_two_matmul()] * L)
        assert det.kind == "sweep" and det.missing == ()
        assert all(np.array_equal(W, np.diag(np.full(4, 8.0)))
                   for W in det.weights)
        rng = np.random.default_rng(L)
        sizes_x = rng.integers(0, 9, size=det.m)
        sizes_y = rng.integers(0, 9, size=det.m)
        ref = _swept_variance(det.weights, sizes_x, sizes_y)
        V = _closed_form(monkeypatch, det, sizes_x, sizes_y, ref)
        assert np.array_equal(V, np.outer(sizes_x, sizes_y) * 8.0 ** L)

    def test_non_diagonal_weights_are_swept(self):
        """A level with no unit matmul slot runs exactly and keeps
        off-diagonal weight, so its variance map is the sweep itself."""
        det = _build_detector([_halved_gammas(0.5)])
        assert det.kind == "sweep"
        (W,) = det.weights
        assert not np.array_equal(W, np.diag(W.diagonal()))
        sizes_x, sizes_y = np.array([3, 0]), np.array([1, 4])
        assert np.array_equal(_variance_map(det.weights, sizes_x, sizes_y),
                              _swept_variance(det.weights, sizes_x, sizes_y))


class TestDetector:
    @pytest.mark.parametrize("name, lsh, kind", [
        ("t2112", False, "subset_diag"), ("strassen", False, "masked_matmul"),
        ("sw", True, "masked_matmul"),
        ("t2112-halved-eps0.5", False, "sweep")])
    def test_built_once(self, monkeypatch, name, lsh, kind):
        """Planning builds the detector, one executable level per distinct
        planned level; solving rounds never expand a decomposition again.
        The null instance verifies no pair, so both rounds run.  The N=8
        plan of t2112 at eps 0.5 with its gammas halved has no unit matmul
        slot, so it runs the rank sweep."""
        d = {"t2112": t2112, "strassen": strassen_decomposition,
             "sw": sw_decomposition,
             "t2112-halved-eps0.5": lambda: _halved_gammas(0.5)}[name]()
        rho = 0.6 if lsh else 0.8
        if lsh:
            plan = plan_lsh(64, rho_joint_matrix(rho), d, t2112_flip_pair(rho),
                            d=256, reps=2)
        elif kind == "sweep":
            # the digest's sweep plan (N=8 at the default round budget), of
            # which two rounds run
            plan = dataclasses.replace(plan_uniform(64, rho, d, d=256), reps=2)
        else:
            plan = plan_uniform(64, rho, d, d=256, reps=2)
        assert plan.kernel == kind
        assert len({id(lv) for lv in plan.levels}) == (2 if lsh else 1)

        def refuse(decomp):
            raise AssertionError("decomposition expanded after planning")

        monkeypatch.setattr(solver, "tensor_of_decomposition", refuse)
        solve = solve_lsh if lsh else solve_uniform
        inst = gen_planted(64, 256, rho, seed=14, planted=False)
        rep = solve(inst, d, plan=plan, seed=0)
        assert rep.rounds_run == 2

    def test_mask_table_built_once(self, monkeypatch):
        """Planning builds no mask table; the first round builds the plan's
        table and later rounds reuse it; another plan builds its own."""
        built = []
        make = solver._subset_diag_masks

        def counted(missing):
            built.append(len(missing))
            return make(missing)

        monkeypatch.setattr(solver, "_subset_diag_masks", counted)
        plan = plan_uniform(64, 0.8, t2112(), d=256, reps=2)
        assert plan.kernel == "subset_diag" and built == []
        inst = gen_planted(64, 256, 0.8, seed=14, planted=False)
        rep = solve_uniform(inst, t2112(), plan=plan, seed=0)
        assert rep.rounds_run == 2 and built == [len(plan.levels)]
        solve_uniform(inst, t2112(), plan=plan, seed=1)
        assert built == [len(plan.levels)]
        other = plan_uniform(64, 0.8, t2112(), d=256, reps=1)
        solve_uniform(inst, t2112(), plan=other, seed=0)
        assert built == [len(plan.levels), len(other.levels)]

    @pytest.mark.parametrize("lsh", [False, True])
    def test_multiplies_builds_no_schedule(self, monkeypatch, lsh):
        """A t2112 plan at n=4096, d=256 runs L = 12 levels, whose
        subset_diag schedule would allocate about 235 MB; its multiplies
        are prod(rank_l), read without building it."""
        def refuse(missing):
            raise AssertionError("schedule built to count multiplies")

        if lsh:
            plan = plan_lsh(4096, rho_joint_matrix(0.8), t2112(),
                            t2112_flip_pair(0.8), d=256)
        else:
            plan = plan_uniform(4096, 0.8, t2112(), d=256)
        assert plan.kernel == "subset_diag" and len(plan.levels) == 12
        monkeypatch.setattr(solver, "_subset_diag_masks", refuse)
        assert plan.detector.multiplies == 6 ** 12
        assert "schedule" not in vars(plan.detector)

    @pytest.mark.parametrize("name, eps", [
        (name, eps) for name in ("strassen", "sw", "t2112")
        for eps in (0.5, 0.1, 0.025)])
    def test_zoo_plans_run_a_mask_kernel(self, name, eps):
        """Every zoo plan, at every eps, detects through its unit matmul
        slots: both planners at every n plan a mask kernel, at no more than
        9^L multiplies a round.  Planning only."""
        d = zoo_decomposition(name, eps)
        rho = 0.8
        for n in (64, 1024, 4096):
            for plan in (plan_uniform(n, rho, d, d=256),
                         plan_lsh(n, rho_joint_matrix(rho), d,
                                  t2112_flip_pair(rho), d=256)):
                assert plan.kernel in ("subset_diag", "masked_matmul")
                assert plan.detector.multiplies <= 9 ** len(plan.levels)
        if name == "t2112":
            assert (tensor_of_decomposition(plan_uniform(64, rho, d, d=256)
                                            .levels[0])
                    == t2112_limit_tensor())

    def test_sweep_runs_in_double_precision(self):
        """The stability screen charges float64's roundoff, so the sweep
        kind must run its rank recursion in float64.  The digest's round of
        t2112 at eps 0.5 with every gamma halved (N=8, null instance, bucket
        seed 0) lost every bit of some cells in float32: cell (255, 255)
        read 37.89 against 0.0899, and the round flagged 585 cells, not
        39.  Its C must match float64 apply_power within the bench gate's
        1e-4."""
        d = _halved_gammas(0.5)
        plan = plan_uniform(64, 0.8, d, d=256)
        assert plan.kernel == "sweep" and plan.N == 8
        inst = gen_planted(64, 256, 0.8, seed=900, planted=False)
        state = bucket_uniform(inst, plan, 0)
        _, _, C, _ = detect(state, plan, return_scores=True)
        ref = apply_power(plan.levels, state.agg_x * state.signs_x[:, None],
                          state.agg_y * state.signs_y[:, None],
                          dtype=np.float64)
        assert C.dtype == np.float32
        assert np.abs(C - ref).max() <= 1e-4 * np.abs(ref).max()
        assert len(detect(state, plan)) == 39

    def test_unstable_level_without_unit_slot_is_refused(self):
        """A level with no unit matmul slot runs exactly, so one whose rank
        recursion would lose double precision at the planned level count
        is refused, naming that count; a stable one still plans the
        sweep."""
        d = _halved_gammas(0.025)
        assert _build_detector([d]).kind == "sweep"
        with pytest.raises(PlanError, match="at 2 levels"):
            _build_detector([d] * 2)
        plan = plan_uniform(64, 0.8, _coefficient_two_matmul(), d=256)
        assert plan.kernel == "sweep" and plan.notes == []


class TestExpansionPath:
    @pytest.mark.parametrize("name, lsh, n, rho", [
        ("strassen", False, 256, 0.8), ("sw", True, 128, 0.6)])
    def test_solves_build_no_half_product_tables(self, monkeypatch, name,
                                                 lsh, n, rho):
        """Rounds expand each window from its own coordinate columns: every
        parity call of a solve takes exactly the round's d' subsets, never a
        whole half's table as the aggregation reference does."""
        from lumen import instances

        calls = []
        parities = instances.subset_parities

        def recorded(bits, cols):
            calls.append(len(cols))
            return parities(bits, cols)

        monkeypatch.setattr(instances, "subset_parities", recorded)
        d = {"strassen": strassen_decomposition, "sw": sw_decomposition}[name]()
        if lsh:
            plan = plan_lsh(n, rho_joint_matrix(rho), d, t2112_flip_pair(rho),
                            d=256)
        else:
            plan = plan_uniform(n, rho, d, d=256)
        inst = gen_planted(n, 256, rho, seed=901)
        solve = solve_lsh if lsh else solve_uniform
        rep = solve(inst, d, plan=plan, seed=1)
        assert inst.planted() in rep.candidates
        assert calls and set(calls) == {plan.d_prime}


def _variance_cases():
    sw, t = sw_decomposition(), t2112()
    cases = {}
    for L in (1, 2, 3):
        cases[f"t2112-screened-L{L}"] = _build_detector([t] * L).levels
        cases[f"sw-L{L}"] = [sw] * L
    for name, d in (("t2112", t), ("sw", sw)):
        dr = reflect_decomposition(d)
        cases[f"{name}-reflected-L2"] = [d, dr]
        cases[f"{name}-reflected-L3"] = [d, dr, d]
    return cases


class TestVarianceMap:
    @pytest.mark.parametrize("name", list(_variance_cases()))
    def test_matches_brute_force_over_expanded_tensor(self, name):
        """var[I,J] = sum_{ia,jb} sum_{k,k'} coeff(ia,k,jb,k',I,J)^2
        |X_ia| |Y_jb| on the expanded product tensor."""
        levels = _variance_cases()[name]
        tensors = [tensor_of_decomposition(d) for d in levels]
        full = tensors[0]
        for t in tensors[1:]:
            full = kronecker(full, t)
        rng = np.random.default_rng(len(levels))
        m = full.shape.q_i
        sizes_x = rng.integers(0, 6, size=m)
        sizes_y = rng.integers(0, 6, size=m)
        ref = np.einsum("akblIJ,a,b->IJ", full.coeff ** 2,
                        sizes_x.astype(float), sizes_y.astype(float))
        weights = tuple(_pair_weight_matrix(t).T for t in tensors)
        V = _variance_map(weights, sizes_x, sizes_y)
        assert V.shape == (m, m)
        assert np.allclose(V, ref, rtol=1e-12, atol=0.0)


def _refuse_variance_map(*args):
    raise AssertionError("the flag pass built the variance map")


def _flag_round(name, seed):
    """A plan and one bucket round of it for each detector the flag pass
    sees: both mask kernels, a diagonal non-mask sweep level, an odd level
    count (unequal half factors), a non-diagonal level with no unit matmul
    slot (t2112 at eps 0.5 with its gammas halved), and a hashing round
    whose empty buckets give V = 0 cells."""
    n, dim, rho = 128, 256, 0.8
    inst = gen_planted(n, dim, rho, seed=950 + seed)
    if name == "sw-lsh":
        qp = t2112_flip_pair(0.6)
        plan = plan_lsh(n, rho_joint_matrix(0.6), sw_decomposition(), qp,
                        d=dim)
        stay_x, stay_y = qp.Q_x[:, 0], qp.Q_y[:, 0]
        L, rng = 2 * plan.N, np.random.default_rng(seed)
        mem_x = _lsh_memberships(inst.X[:, :L], [stay_x, stay_y] * plan.N,
                                 plan.copies, rng)
        mem_y = _lsh_memberships(inst.Y[:, :L], [stay_y, stay_x] * plan.N,
                                 plan.copies, rng)
        return plan, _bucket_state(inst, mem_x, mem_y, plan, 0, rng)
    levels = {"t2112": None, "strassen": None,
              "sw-L5": [sw_decomposition()] * 5,
              "coefficient-two-L4": [_coefficient_two_matmul()] * 4,
              "t2112-exact-L3": [_halved_gammas(0.5)] * 3,
              }[name]
    base = {"t2112": t2112}.get(name, strassen_decomposition)()
    plan = plan_uniform(n, rho, base, d=dim)
    if levels is not None:
        plan = dataclasses.replace(plan, detector=_build_detector(levels))
    return plan, bucket_uniform(inst, plan, np.random.default_rng(seed))


class TestFlagPass:
    @pytest.mark.parametrize("name, kind", [
        ("t2112", "subset_diag"), ("strassen", "masked_matmul"),
        ("sw-lsh", "masked_matmul"), ("sw-L5", "masked_matmul"),
        ("coefficient-two-L4", "sweep")])
    def test_equals_the_scored_flags(self, monkeypatch, name, kind):
        """With diagonal weights detect screens C a block of rows at a time
        and never builds the variance map, yet returns the flags of the
        whole float64 score map: the same cells, scores and row-major
        order, at the plan's sigma and at sigmas off SIGMA_CANDIDATES."""
        for seed in range(3):
            plan, st = _flag_round(name, seed)
            assert plan.kernel == kind and plan.detector.factors is not None
            if name == "sw-lsh":
                assert (np.diff(st.index_x[1]) == 0).any()
                assert (np.diff(st.index_y[1]) == 0).any()
            for sigma in (plan.detect_sigma, 3.3, 2.05):
                plan.detect_sigma = sigma
                want, score, _, _ = detect(st, plan, return_scores=True)
                with monkeypatch.context() as mp:
                    mp.setattr(solver, "_variance_map", _refuse_variance_map)
                    got = detect(st, plan)
                assert got == want
                assert all(s == score[i, j] for i, j, s in got)
                if sigma == 2.05:
                    assert got

    def test_non_diagonal_plan_scores_the_whole_map(self, monkeypatch):
        """The exact levels with no unit matmul slot keep off-diagonal pair
        weight, so they have no half factors and detect takes the whole-map
        path."""
        plan, st = _flag_round("t2112-exact-L3", 0)
        assert plan.kernel == "sweep" and plan.detector.factors is None
        plan.detect_sigma = 2.05
        want = detect(st, plan, return_scores=True)[0]

        def refuse(*args):
            raise AssertionError("non-diagonal weights took the flag pass")

        monkeypatch.setattr(solver, "_flag_cells", refuse)
        assert detect(st, plan) == want and want

    @pytest.mark.parametrize("name", ["strassen", "t2112-exact-L3"])
    def test_scores_build_no_half_factors(self, monkeypatch, name):
        """detect(..., return_scores=True) is the oracle: it reaches neither
        the half factors nor the flag pass, whatever the weights."""
        plan, st = _flag_round(name, 0)

        def refuse(*args):
            raise AssertionError("the oracle reached the closed form")

        monkeypatch.setattr(solver, "_half_factors", refuse)
        monkeypatch.setattr(solver, "_flag_cells", refuse)
        flags, score, C, V = detect(st, plan, return_scores=True)
        assert "factors" not in vars(plan.detector)
        assert V.shape == C.shape == (plan.m, plan.m)

    @pytest.mark.parametrize("name", ["t2112", "strassen", "sw-L5"])
    def test_mask_plans_read_no_signs(self, name):
        """A mask kernel sends input row I only to output row I, so the
        bucket signs only flip the sign of C's cells: with NaN signs the
        default path returns the flags of the signed oracle."""
        plan, st = _flag_round(name, 0)
        assert plan.kernel in ("subset_diag", "masked_matmul")
        plan.detect_sigma = 2.05
        want = detect(st, plan, return_scores=True)[0]
        nan = np.full(plan.m, np.nan, np.float32)
        st = dataclasses.replace(st, signs_x=nan, signs_y=nan)
        assert detect(st, plan) == want and want

    @pytest.mark.parametrize("name", ["coefficient-two-L4", "t2112-exact-L3"])
    def test_sweep_plans_read_the_signs(self, name):
        """The rank recursion mixes rows, diagonal weights or not, so a sweep
        plan multiplies the signed aggregates: NaN signs clear its flags."""
        plan, st = _flag_round(name, 0)
        assert plan.kernel == "sweep"
        plan.detect_sigma = 2.05
        assert detect(st, plan)
        nan = np.full(plan.m, np.nan, np.float32)
        st = dataclasses.replace(st, signs_x=nan, signs_y=nan)
        assert detect(st, plan) == []

    def test_exact_tie_flags_and_zero_variance_never_flags(self):
        """|C| = 7 over V = 4 is exactly sigma = 3.5 and flags on both
        paths; a nonzero C over V = 0 scores inf and flags on neither; one
        matmul level keeps two k slots a cell, so V = 2 sizes_x sizes_y."""
        plan = plan_uniform(128, 0.9, strassen_decomposition(), d=256)
        plan = dataclasses.replace(
            plan, detector=_build_detector([strassen_decomposition()]),
            detect_sigma=3.5)
        index_x = (np.array([0, 1, 2]), np.array([0, 2, 3]))     # sizes 2, 1
        index_y = (np.array([0]), np.array([0, 1, 1]))           # sizes 1, 0
        agg_x = np.array([[3, 2], [1, 1]], np.float32)
        agg_y = np.array([[1, 2], [3, 3]], np.float32)
        ones = np.ones(2, np.float32)
        st = BucketState(np.zeros((3, 1), int), np.zeros((1, 1), int),
                         index_x, index_y, agg_x, agg_y, ones, ones)
        want, score, C, V = detect(st, plan, return_scores=True)
        assert C[0, 0] == 7 and V[0, 0] == 4 and V[0, 1] == 0 != C[0, 1]
        assert want == [(0, 0, 3.5)] == detect(st, plan)

    def test_factors_built_once(self, monkeypatch):
        """The half factors are built on the first round of a plan and
        reused by later rounds and solves."""
        built = []
        make = solver._half_factors

        def counted(weights):
            built.append(len(weights))
            return make(weights)

        monkeypatch.setattr(solver, "_half_factors", counted)
        plan = plan_uniform(64, 0.8, strassen_decomposition(), d=256, reps=2)
        assert built == []
        inst = gen_planted(64, 256, 0.8, seed=14, planted=False)
        assert solve_uniform(inst, None, plan=plan, seed=0).rounds_run == 2
        solve_uniform(inst, None, plan=plan, seed=1)
        assert built == [plan.N]


def _verify(inst, pairs, plan):
    keys = [a * inst.n + b for a, b in pairs]
    return verify_candidates(inst, keys, plan, pack_bits(inst.X),
                             pack_bits(inst.Y))


class TestCollect:
    @staticmethod
    def _scan(state, flags, cap):
        """The per-flag scan of every membership the index replaced."""
        pairs = []
        for i, j, _ in flags:
            mx = np.nonzero((state.mem_x == i).any(axis=1))[0]
            my = np.nonzero((state.mem_y == j).any(axis=1))[0]
            pairs += [(int(a), int(b)) for a in mx for b in my]
            if len(pairs) > cap:
                break
        return pairs

    @pytest.mark.parametrize("cap", [solver.CAP_PAIRS, 40])
    def test_index_matches_membership_scan(self, monkeypatch, cap):
        """The same pairs in the same order as the per-flag scan, with
        repeats collapsed at t = 3, buckets left empty, and a cap that the
        flag list crosses."""
        monkeypatch.setattr(solver, "CAP_PAIRS", cap)
        rng = np.random.default_rng(17)
        n, m = 60, 32
        mem_x = _dedupe_rows(rng.integers(0, m, size=(n, 3)))
        mem_y = _dedupe_rows(rng.integers(0, m - 4, size=(n, 3)))
        assert (mem_x < 0).any()
        st = BucketState(mem_x, mem_y, _bucket_index(mem_x, m),
                         _bucket_index(mem_y, m), None, None, None, None)
        flags = [(int(i), int(j), 1.0) for i, j in
                 rng.integers(0, m, size=(12, 2))] + [(3, m - 1, 1.0)]
        keys = _collect_candidates(st, flags)
        want = self._scan(st, flags, cap)
        assert keys.dtype == np.int64
        assert list(zip(*np.divmod(keys, n))) == want
        every = self._scan(st, flags, math.inf)
        assert (len(want) < len(every)) == (cap == 40) and len(want) > 40


class TestVerify:
    def test_planted_accept_random_reject(self):
        rho = 0.5
        plan = plan_uniform(64, rho, strassen_decomposition(), d=2048)
        accepted = 0
        rejected = 0
        for k in range(50):
            inst = gen_planted(64, 2048, rho, seed=200 + k)
            i, j = inst.planted()
            accepted += bool(_verify(inst, [(i, j)], plan))
            rejected += not _verify(inst, [((i + 1) % 64, j)], plan)
        assert accepted == 50
        assert rejected == 50

    def test_rho_one_deterministic(self):
        inst = gen_planted(16, 1024, 1.0, seed=10)
        plan = plan_uniform(16, 1.0, strassen_decomposition(), d=1024)
        assert _verify(inst, [inst.planted()], plan) == [inst.planted()]

    def test_scores_the_raw_inner_product(self):
        """Every distinct pair, once and sorted, passes exactly when its +-1
        inner product over all d bits reaches the threshold; each key comes
        twice, in descending order."""
        inst = gen_planted(64, 256, 0.8, seed=15)
        plan = plan_uniform(64, 0.8, strassen_decomposition(), d=256)
        sx = 1 - 2 * inst.X.astype(np.int64)
        sy = 1 - 2 * inst.Y.astype(np.int64)
        tau = verify_threshold(256, plan.reps)
        want = [(i, j) for i in range(64) for j in range(64)
                if sx[i] @ sy[j] >= tau]
        pairs = [(i, j) for i in range(64) for j in range(64)] * 2
        assert _verify(inst, pairs[::-1], plan) == want == [inst.planted()]
        assert _verify(inst, [], plan) == []

    @staticmethod
    def _sw_lsh_plan():
        """sw on the hashing path at n=128, d=256, rho=0.6, capped at 6
        rounds, as tools/report_digest.py plans it."""
        plan = plan_lsh(128, rho_joint_matrix(0.6), sw_decomposition(),
                        t2112_flip_pair(0.6), d=256)
        return dataclasses.replace(plan, reps=6)

    @pytest.mark.parametrize("inst_seed, seed", [(900, 0), (902, 2)])
    def test_lsh_null_reports_no_pair(self, inst_seed, seed):
        """These null solves verified a false pair when verification scored
        an expanded window at rho_det * dim / 2."""
        inst = gen_planted(128, 256, 0.6, seed=inst_seed, planted=False)
        rep = solve_lsh(inst, sw_decomposition(), plan=self._sw_lsh_plan(),
                        seed=seed)
        assert not rep.found and rep.candidates == []
        assert rep.rounds_run == 6

    def test_lsh_planted_returns_only_the_planted_pair(self):
        inst = gen_planted(128, 256, 0.6, seed=900)
        rep = solve_lsh(inst, sw_decomposition(), plan=self._sw_lsh_plan(),
                        seed=0)
        assert rep.candidates == [inst.planted()]

    @pytest.mark.parametrize("lsh", [False, True])
    def test_unverifiable_plan_refused(self, lsh):
        """rho * d = 76.8 is below the threshold 106.9 at d=256, 25 rounds."""
        d = strassen_decomposition()
        with pytest.raises(PlanError, match=r"rho \* d = 76\.8 .* 106\.9"):
            if lsh:
                plan_lsh(256, rho_joint_matrix(0.3), d, t2112_flip_pair(0.3),
                         d=256)
            else:
                plan_uniform(256, 0.3, d, d=256)


class TestReport:
    @pytest.mark.parametrize("lsh", [False, True])
    def test_flagged_is_the_final_rounds_flags(self, lsh):
        """flagged lists the cells of the round the candidates came from,
        with their scores, strongest first."""
        if lsh:
            decomp, solve, n, rho = sw_decomposition(), solve_lsh, 128, 0.6
            plan = plan_lsh(n, rho_joint_matrix(rho), decomp,
                            t2112_flip_pair(rho), d=256)
        else:
            decomp, solve, n, rho = (strassen_decomposition(), solve_uniform,
                                     256, 0.8)
            plan = plan_uniform(n, rho, decomp, d=256)
        plan = dataclasses.replace(plan, reps=3)
        inst = gen_planted(n, 256, rho, seed=901, planted=False)
        rep = solve(inst, decomp, plan=plan, seed=1)
        scores = [s for _, _, s in rep.flagged]
        assert scores and min(scores) >= plan.detect_sigma
        assert scores == sorted(scores, reverse=True)
        assert len(rep.flagged) <= rep.stats[-1]["flags"]


class TestSolveUniform:
    def test_rho_one_always_recovers(self):
        d = strassen_decomposition()
        plan = None
        for s in range(5):
            inst = gen_planted(256, 256, 1.0, seed=400 + s)
            if plan is None:
                plan = plan_uniform(256, 1.0, d, d=256)
            rep = solve_uniform(inst, d, plan=plan, seed=s)
            assert rep.found and inst.planted() in rep.candidates

    def test_null_returns_empty(self):
        d = strassen_decomposition()
        plan = plan_uniform(256, 0.9, d, d=256)
        for s in range(3):
            inst = gen_planted(256, 256, 0.9, seed=500 + s, planted=False)
            rep = solve_uniform(inst, d, plan=plan, seed=s)
            assert not rep.found and rep.candidates == []
            assert rep.rounds_run == plan.reps

    def test_multiply_counter_accumulates(self):
        d = strassen_decomposition()
        plan = plan_uniform(256, 1.0, d, d=256)
        c = MultiplyCounter()
        inst = gen_planted(256, 256, 1.0, seed=600)
        rep = solve_uniform(inst, d, plan=plan, seed=0, counter=c)
        assert c.count > 0

    def test_copies_law(self):
        inst = gen_planted(200, 256, 0.8, seed=11)
        plan = plan_uniform(200, 0.8, t2112(), d=256)
        st = bucket_uniform(inst, plan, np.random.default_rng(6))
        dups = (st.mem_x < 0).sum()
        assert np.diff(st.index_x[1]).sum() == 200 * plan.t - dups


class TestLsh:
    @pytest.mark.parametrize("n, d, rho, reps, noted", [
        (128, 256, 0.6, None, True), (1024, 512, 0.8, 60, False)])
    def test_estimate_below_target_noted(self, n, d, rho, reps, noted):
        """The digest's sw plan estimates p ~ 0.0008 per round and carries
        the note; at n=1024 it estimates p ~ 0.31 and carries none."""
        plan = plan_lsh(n, rho_joint_matrix(rho), sw_decomposition(),
                        t2112_flip_pair(rho), d=d, reps=reps)
        note = (f"per-round success estimate {plan.p_round_est:.3f} is below "
                f"the planning target; recovery may need more repetitions")
        assert (plan.p_round_est < 0.01) == noted
        assert (note in plan.notes) == noted

    @pytest.mark.parametrize("tensor, n, rho, d, reps, copies", [
        ("sw", 128, 0.6, 256, None, 8), ("t2112", 112, 0.6, 256, None, 2),
        ("sw", 1024, 0.8, 512, 60, 1), ("strassen", 1024, 0.8, 512, None, 1)],
        ids=["digest-sw", "digest-t2112", "bench-sw", "bench-strassen-null"])
    def test_least_load(self, tensor, n, rho, d, reps, copies):
        """The digest's and the bench's hashing plans give each input the
        least copies, max(1, round(m / n)); t stays 1 and g 1.0."""
        decomp = {"sw": sw_decomposition(), "t2112": t2112(),
                  "strassen": strassen_decomposition()}[tensor]
        plan = plan_lsh(n, rho_joint_matrix(rho), decomp,
                        t2112_flip_pair(rho), d=d, reps=reps)
        assert plan.copies == max(1, round(plan.m / n)) == copies
        assert plan.t == 1 and plan.g == 1.0

    @pytest.mark.parametrize("sigma, want", [(3.3, 3.3), (None, 10.0)])
    def test_zero_estimate_keeps_first_sigma(self, sigma, want):
        """When every threshold estimates 0, the plan keeps the first of its
        grid: the caller's sigma, else the largest candidate."""
        plan = plan_lsh(32, rho_joint_matrix(0.3), strassen_decomposition(),
                        t2112_flip_pair(0.3), d=512, detect_sigma=sigma)
        assert plan.p_round_est == 0.0 and plan.detect_sigma == want

    @pytest.mark.parametrize("n, rho, d, reps, why", [
        (70000, 0.8, 256, 30,
         r"^n=70000 is too large for the hashing path: m=1024 buckets at "
         r"N=5, the largest the budget allows, hold lambda = 68\.3594 > 64 "
         r"inputs each$"),
        (20000, 0.3, 700, None,
         r"^no runnable hashing configuration for n=20000 at N=5: cannot "
         r"reach \d+ expanded coordinates")])
    def test_infeasible_plan_refused(self, n, rho, d, reps, why):
        """More than 64 inputs a bucket at the capped N, and windows that
        cannot expand, are refused with PlanError."""
        with pytest.raises(PlanError, match=why):
            plan_lsh(n, rho_joint_matrix(rho), strassen_decomposition(),
                     t2112_flip_pair(rho), d=d, reps=reps)

    def test_low_gamma_refused(self):
        # single-coefficient tensor has eff = 1; uniform-Q gamma = 1/4 < 1/2
        c = np.zeros((2, 2, 2, 2, 2, 2))
        c[0, 0, 0, 0, 0, 0] = 1.0
        a = np.zeros((2, 2)); a[0, 0] = 1
        b = np.zeros((2, 2)); b[0, 0] = 1
        g = np.zeros((2, 2)); g[0, 0] = 1
        d = Decomposition(TensorShape(2, 2, 2), (Rank1Term(a, b, g),))
        with pytest.raises(PlanError):
            plan_lsh(256, rho_joint_matrix(0.5), d, uniform_pair(2), d=256)

    def test_non_binary_alphabet_refused(self):
        """A q=3 joint law has no balanced sign mapping; the planner
        refuses it."""
        terms = []
        for i, j, k in np.ndindex(3, 3, 3):
            a = np.zeros((3, 3)); a[i, k] = 1
            b = np.zeros((3, 3)); b[j, k] = 1
            g = np.zeros((3, 3)); g[i, j] = 1
            terms.append(Rank1Term(a, b, g))
        d = Decomposition(TensorShape(3, 3, 3), tuple(terms))
        P = (np.full((3, 3), 0.15) + np.eye(3) * 0.55) / 3   # sums to 1
        with pytest.raises(PlanError, match=r"needs q = 2; P is \(3, 3\)"):
            plan_lsh(256, P, d, uniform_pair(3), d=512)

    def test_smaller_power_than_uniform_and_recovers(self):
        rho = 0.6
        qp = t2112_flip_pair(rho)
        d = t2112()
        pl = plan_lsh(112, rho_joint_matrix(rho), d, qp, d=256)
        pu = plan_uniform(112, rho, d, d=256)
        assert pl.N < pu.N
        wins = 0
        for s in range(8):
            inst = gen_planted(112, 256, rho, seed=700 + s)
            rep = solve_lsh(inst, d, plan=pl, seed=s)
            wins += inst.planted() in rep.candidates
        assert wins >= 6

    def test_transition_agreement_law(self):
        """Per-digit bucket agreement probability of the planted pair matches
        sum_uv P[u,v] (Q_x Q_y^T)[u,v]."""
        rho = 0.2
        a = t2112_optimal_a(rho)
        Q = np.array([[1 - a, a], [a, 1 - a]])
        P = rho_joint_matrix(rho)
        want = float((P * (Q @ Q.T)).sum())
        rng = np.random.default_rng(12)
        n = 200000
        flat = rng.choice(4, size=n, p=P.ravel())
        x, y = flat // 2, flat % 2
        fx = np.where(rng.random(n) < Q[x, 1], 1, 0)
        gx = np.where(rng.random(n) < Q[y, 1], 1, 0)
        rate = (fx == gx).mean()
        assert abs(rate - want) < 3 * math.sqrt(0.25 / n)

    def test_uniform_q_matches_uniform_occupancy(self):
        d = t2112()
        qp = uniform_pair(2)
        pl = plan_lsh(128, rho_joint_matrix(0.6), d, qp, d=256)
        inst = gen_planted(128, 256, 0.6, seed=13)
        rng = np.random.default_rng(7)
        L = 2 * pl.N
        stay = [qp.Q_x[:, 0]] * L
        mem = _lsh_memberships(inst.X[:, :L], stay, pl.copies, rng)
        sizes = np.diff(_bucket_index(mem, pl.m)[1])
        lam = 128 * pl.copies / pl.m
        # Poisson-like occupancy: mean and variance agree with the uniform law
        assert abs(sizes.mean() - lam) < 4 * math.sqrt(lam / pl.m)
        assert 0.6 < sizes.var() / lam < 1.5

    @staticmethod
    def _threshold_memberships(symbols, Qs, copies, rng):
        """The q-ary draw: digit l is the number of cumulative row sums of
        Qs[l] at the symbol that a uniform draw reaches."""
        mem = np.zeros((symbols.shape[0], copies), dtype=np.int64)
        for l, Q in enumerate(Qs):
            u = rng.random(mem.shape)
            thr = np.cumsum(Q, axis=1)[symbols[:, l].astype(int)]
            mem = mem * Q.shape[0] + (u[:, :, None] >= thr[:, None, :]).sum(2)
        return mem

    @pytest.mark.parametrize("qp", [t2112_flip_pair(0.2), t2112_flip_pair(0.8),
                                    uniform_pair(2)],
                             ids=["flip0.2", "flip0.8", "uniform"])
    def test_one_comparison_per_digit_matches_threshold_draw(self, qp):
        bits = np.random.default_rng(3).integers(0, 2, size=(300, 8),
                                                 dtype=np.uint8)
        Qs = [qp.Q_x, qp.Q_y] * 4
        want = self._threshold_memberships(bits, Qs, 3,
                                           np.random.default_rng(21))
        got = _lsh_memberships(bits, [Q[:, 0] for Q in Qs], 3,
                               np.random.default_rng(21))
        assert np.array_equal(got, want)

    def test_ids_stay_below_m_when_rows_sum_short(self):
        """Rows summing to 1 - 1e-10 are valid; a draw of 1 - 1e-12 lies past
        their cumulative sum, and still lands on digit 1."""
        class AlmostOne:
            def random(self, shape):
                return np.full(shape, 1.0 - 1e-12)

        Q = np.array([[0.3, 0.7 - 1e-10], [0.6, 0.4 - 1e-10]])
        qp = StochasticPair(Q, Q.copy())
        bits = np.random.default_rng(4).integers(0, 2, size=(50, 6),
                                                 dtype=np.uint8)
        mem = _lsh_memberships(bits, [qp.Q_x[:, 0]] * 6, 2, AlmostOne())
        assert (mem == 2 ** 6 - 1).all()

    @staticmethod
    def _complemented_plan():
        """sw hashing for a P that anti-correlates the raw bits, with
        Q_x = Q_y = I, so buckets copy the raw bits."""
        P = rho_joint_matrix(0.6)[:, ::-1]
        decomp = sw_decomposition()
        plan = plan_lsh(128, P, decomp, StochasticPair(np.eye(2), np.eye(2)),
                        d=256)
        return P, decomp, plan

    def test_complemented_side_recovers(self):
        """P anti-correlates the raw bits, so the sign map complements one
        side: the plan's flip is set."""
        P, decomp, plan = self._complemented_plan()
        assert plan.N == 4 and plan.flip == 1
        for s in range(5):
            inst = gen_planted_p(128, 256, P, seed=900 + s)
            rep = solve_lsh(inst, decomp, plan=plan, seed=s)
            assert rep.candidates == [inst.planted()]

    def test_flip_reaches_verification_only(self):
        """Clearing the flip changes no round's flags; only verification
        reads it, and without it the anti-correlated pair is not found."""
        P, decomp, plan = self._complemented_plan()
        inst = gen_planted_p(128, 256, P, seed=906)
        found = solve_lsh(inst, decomp, plan=plan, seed=6)
        cleared = solve_lsh(inst, decomp, seed=6, plan=dataclasses.replace(
            plan, flip=0, reps=found.rounds_run))
        assert found.rounds_run == cleared.rounds_run == 4
        assert ([s["flags"] for s in found.stats]
                == [s["flags"] for s in cleared.stats])
        assert found.flagged == cleared.flagged
        assert found.candidates == [inst.planted()]
        assert not cleared.found and cleared.candidates == []

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_complement_keeps_every_parity(self, r):
        """An expansion window is the parity of r bits, r even: complementing
        every bit of a side changes none."""
        X = np.random.default_rng(r).integers(0, 2, size=(20, 40),
                                              dtype=np.uint8)
        assert np.array_equal(expand_vectors(X ^ 1, r, 300, 17),
                              expand_vectors(X, r, 300, 17))

    @pytest.mark.parametrize("P", [
        rho_joint_matrix(0.6), rho_joint_matrix(0.6)[:, ::-1],
        np.array([[0.05, 0.3], [0.45, 0.2]])],
        ids=["correlated", "anti-correlated", "skewed"])
    def test_sign_bit(self, P):
        """The sign map's correlation is |E[(-1)^(x ^ y)]| under P, and the
        flip is set when that mean is negative."""
        mean = sum(P[a, b] * (-1) ** (a ^ b) for a in (0, 1) for b in (0, 1))
        plan = plan_lsh(128, P, sw_decomposition(),
                        StochasticPair(np.eye(2), np.eye(2)), d=512)
        assert plan.flip == int(mean < 0)
        assert plan.rho_det == pytest.approx(abs(mean) ** plan.r, abs=1e-12)

    @pytest.mark.parametrize("P", [np.full((2, 2), 0.25),
                                   np.array([[0.5, 0.5], [0.0, 0.0]])],
                             ids=["uniform", "one-row"])
    def test_uncorrelated_law_refused(self, P):
        with pytest.raises(PlanError, match="no correlated sign mapping"):
            plan_lsh(128, P, sw_decomposition(), uniform_pair(2), d=256)


class TestLemmaChecks:
    def test_all_pass_small(self):
        rep = lemma_checks(seed=5, draws=20000, n_matrices=8, n_sets=6)
        assert rep["pass"], rep
