"""Solver: planning, bucketing, detection statistics, end-to-end recovery."""

import math

import numpy as np
import pytest

from lumen.core import (MultiplyCounter, Rank1Term, Decomposition, Tensor,
                        TensorShape, apply_power, reflect_decomposition,
                        tensor_of_decomposition)
from lumen.efficacy import (eff_table, exponent_bound, rho_joint_matrix,
                            t2112_flip_pair, t2112_optimal_a, uniform_pair)
from lumen.instances import gen_planted
from lumen.solver import (BucketState, PlanError, bucket_uniform, detect,
                          lemma_checks, plan_lsh, plan_uniform, skew_metrics,
                          solve_lsh, solve_uniform, verify_candidates,
                          _apply_subset_diag, _screen_levels, _variance_map)
from lumen.zoo import (matmul_tensor, strassen_decomposition,
                       t2112_decomposition)


def t2112():
    return t2112_decomposition(0.025, warn=False)


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


class TestPlanUniform:
    def test_t2112_threshold_tie_rule(self):
        p = plan_uniform(1024, 0.8, t2112(), d=512)
        assert abs(p.f - math.sqrt(2)) < 1e-2
        assert p.S_f.sum() == 2 and p.S_f[0, 0] and p.S_f[1, 1]
        assert not p.symmetrized

    def test_matmul_plan_exponent_consistency(self):
        p = plan_uniform(1024, 0.8, strassen_decomposition(), d=512)
        assert p.S_f.sum() == 4
        want = exponent_bound(7, math.sqrt(2) * 2)
        assert abs(p.exponent - want) < 1e-9
        assert abs(p.exponent - exponent_bound(7, math.sqrt(8))) < 1e-9
        assert p.kernel == "matmul"

    def test_skewed_tensor_symmetrizes(self):
        # efficacy concentrated in one row: V_x = |S|^2 > |S|^1.5
        c = np.zeros((2, 2, 2, 2, 2, 2))
        for j in range(2):
            for k in range(2):
                c[0, k, j, k, 0, j] = 1.0
        t = Tensor(TensorShape(2, 2, 2), c)
        terms = []
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if c[i, k, j, k, i, j]:
                        a = np.zeros((2, 2)); a[i, k] = 1
                        b = np.zeros((2, 2)); b[j, k] = 1
                        g = np.zeros((2, 2)); g[i, j] = 1
                        terms.append(Rank1Term(a, b, g))
        d = Decomposition(TensorShape(2, 2, 2), tuple(terms))
        p = plan_uniform(96, 0.9, d, d=256)
        assert p.symmetrized
        assert len(p.levels) == 2 * p.N

    def test_eff_at_most_one_refused(self):
        c = np.zeros((2, 2, 2, 2, 2, 2))
        c[0, 0, 0, 0, 0, 0] = 1.0
        a = np.zeros((2, 2)); a[0, 0] = 1
        b = np.zeros((2, 2)); b[0, 0] = 1
        g = np.zeros((2, 2)); g[0, 0] = 1
        d = Decomposition(TensorShape(2, 2, 2), (Rank1Term(a, b, g),))
        with pytest.raises(PlanError):
            plan_uniform(256, 0.8, d, d=128)

    def test_plan_invariants(self):
        for d in (strassen_decomposition(), t2112()):
            p = plan_uniform(1024, 0.8, d, d=512)
            # m g within a factor two of n t
            assert 0.5 <= p.m * p.g / (1024 * p.t) <= 2.0
            Vx, Vy, _ = skew_metrics(p.S_f.astype(bool))
            assert Vx <= p.S_f.sum() ** 1.5 + 1e-9
            assert p.reps == 25


class TestBucketUniform:
    def test_occupancy_and_conservation(self):
        inst = gen_planted(512, 256, 0.8, seed=2)
        plan = plan_uniform(512, 0.8, strassen_decomposition(), d=256)
        st = bucket_uniform(inst, plan, np.random.default_rng(0))
        n_members = (st.mem_x >= 0).sum()
        dups = st.mem_x.size - n_members
        assert n_members == 512 * plan.t - dups
        assert st.sizes_x.sum() == n_members
        # mean occupancy within 3 sigma of n t / m
        lam = 512 * plan.t / plan.m
        assert abs(st.sizes_x.mean() - lam) < 3 * math.sqrt(lam / plan.m)

    def test_forced_planting(self):
        inst = gen_planted(128, 256, 0.9, seed=3)
        plan = plan_uniform(128, 0.9, strassen_decomposition(), d=256)
        st = bucket_uniform(inst, plan, np.random.default_rng(1),
                            force_planted=(5, 9))
        i, j = inst.planted()
        assert 5 in st.mem_x[i] and 9 in st.mem_y[j]


class TestDetect:
    def test_zero_aggregates_no_flags(self):
        plan = plan_uniform(128, 0.9, strassen_decomposition(), d=256)
        m, dp = plan.m, plan.d_prime
        st = BucketState(m, np.zeros((1, 1), int), np.zeros((1, 1), int),
                         np.ones(m, int), np.ones(m, int),
                         np.zeros((m, dp), np.float32),
                         np.zeros((m, dp), np.float32),
                         np.ones(m, np.float32), np.ones(m, np.float32), 0)
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
            st = bucket_uniform(inst, plan, np.random.default_rng(100 + k),
                                offset=k * plan.d_prime,
                                force_planted=(3, 3))
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
        from lumen.instances import SplitFamily, expand_vectors
        i_star, j_star = inst.planted()
        fam = SplitFamily(dim, plan.r)
        ex = expand_vectors(inst.X[[i_star]], plan.r, fam.size, 0, fam)
        ey = expand_vectors(inst.Y[[j_star]], plan.r, fam.size, 0, fam)
        rho_hat = float(1.0 - 2.0 * (ex ^ ey).mean())
        reps = 200
        signed = []
        sig = None
        for k in range(reps):
            st = bucket_uniform(inst, plan, np.random.default_rng(1000 + k),
                                offset=(k * plan.d_prime) % fam.size,
                                force_planted=(7, 7))
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
        from lumen.solver import _screen_levels
        lv, kern, _ = _screen_levels([t2112()] * 4)
        plan.levels = lv
        plan.kernel = kern
        plan.N = 4
        plan.m = 16
        plan.d_prime = 16
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
        st_sw = BucketState(st.m, st.mem_y, st.mem_x, st.sizes_y, st.sizes_x,
                            st.agg_y, st.agg_x, st.signs_y, st.signs_x,
                            st.offset)
        _, score, C, V = detect(st, plan, return_scores=True)
        _, score_r, C_r, V_r = detect(st_sw, plan_r, return_scores=True)
        assert np.allclose(C_r, C.T, rtol=1e-4, atol=1e-3)
        assert np.allclose(V_r, V.T, rtol=1e-9)


class TestSubsetDiagKernel:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_oracle_equivalence_and_count(self, L):
        """The subset_diag kernel agrees with the float64 rank recursion on
        the executed t2112 levels and runs exactly prod(rank) multiplies."""
        levels, kernel, _ = _screen_levels([t2112()] * L)
        rng = np.random.default_rng(L)
        A = rng.standard_normal((2 ** L, 2 ** L)).astype(np.float32)
        B = rng.standard_normal((2 ** L, 2 ** L)).astype(np.float32)
        if kernel != "subset_diag":
            # one stable level keeps the 1/eps identity, which the kernel
            # does not match and must refuse
            assert L == 1
            with pytest.raises(ValueError):
                _apply_subset_diag(levels, A, B)
            return
        counter = MultiplyCounter()
        C = _apply_subset_diag(levels, A, B, counter=counter)
        ref = apply_power(levels, A, B, dtype=np.float64)
        assert np.abs(C - ref).max() <= 1e-4 * np.abs(ref).max()
        assert counter.count == math.prod(d.rank for d in levels)


class TestVerify:
    def test_planted_accept_random_reject(self):
        rho = 0.5
        inst = gen_planted(64, 2048, rho, seed=9)
        plan = plan_uniform(64, rho, strassen_decomposition(), d=2048)
        plan.verify_dim = 2048
        i, j = inst.planted()
        rng = np.random.default_rng(123)
        accepted = 0
        rejected = 0
        for k in range(50):
            got = verify_candidates(inst, [(i, j)], plan,
                                    np.random.default_rng(200 + k))
            accepted += bool(got)
            got = verify_candidates(inst, [((i + 1) % 64, j)], plan,
                                    np.random.default_rng(300 + k))
            rejected += not got
        assert accepted == 50
        assert rejected == 50

    def test_rho_one_deterministic(self):
        inst = gen_planted(16, 1024, 1.0, seed=10)
        plan = plan_uniform(16, 1.0, strassen_decomposition(), d=1024)
        got = verify_candidates(inst, [inst.planted()], plan,
                                np.random.default_rng(0))
        assert got == [inst.planted()]


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
        assert st.sizes_x.sum() == 200 * plan.t - dups


class TestLsh:
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
        from lumen.solver import _lsh_memberships, _bucket_sizes
        rng = np.random.default_rng(7)
        L = 2 * pl.N
        Qs = [qp.Q_x] * L
        mem = _lsh_memberships(inst.X[:, :L], Qs, pl.copies, rng, 2)
        sizes = _bucket_sizes(mem, pl.m)
        lam = 128 * pl.copies / pl.m
        # Poisson-like occupancy: mean and variance agree with the uniform law
        assert abs(sizes.mean() - lam) < 4 * math.sqrt(lam / pl.m)
        assert 0.6 < sizes.var() / lam < 1.5


class TestLemmaChecks:
    def test_all_pass_small(self):
        rep = lemma_checks(seed=5, draws=20000, n_matrices=8, n_sets=6)
        assert rep["pass"], rep
