"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 5 runs the full 20-seed recovery grids and dominates the runtime;
everything else is desk-fast.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from lumen.core import (MultiplyCounter, apply_direct, apply_recursive,
                        tensor_of_decomposition, tensor_power)
from lumen.aggregation import (AggregationTask, aggregate_fast,
                               aggregate_naive, bench_aggregation)
from lumen.efficacy import (StochasticPair, design_q_matrices, eff_table,
                            exponent_bound, gamma, omega_rho_t2112,
                            optimize_gamma, rho_joint_matrix,
                            scalar_improvement_holds, t2112_optimal_a,
                            column_permutation_for_mixed_signs, uniform_pair)
from lumen.harness import cmd_success_curve, exponent_rows
from lumen.instances import SplitFamily, gen_planted
from lumen.solver import (bucket_uniform, detect, lemma_checks, plan_uniform,
                          _screen_levels)
from lumen.zoo import (matmul_tensor, strassen_decomposition, sw_decomposition,
                       sw_target, t2112_decomposition, t2112_derivation_check,
                       t2112_limit_tensor, t2112_target, zoo_entries)

EXAMPLE_GAMMA_02 = 1.8 ** 0.6 * 1.2 ** 0.4    # closed-form optimum at rho=0.2


def _report(num, msg):
    print(f"\n[criterion {num}] PASS: {msg}")


class TestCriterion1Identities:
    def test_identity_verification(self):
        t0 = time.perf_counter()
        st = tensor_of_decomposition(strassen_decomposition())
        assert np.array_equal(st.coeff, matmul_tensor(2, 2).coeff)
        sw = tensor_of_decomposition(sw_decomposition())
        assert np.array_equal(sw.coeff, sw_target().coeff)
        for eps in (0.5, 0.1, 0.025):
            exp = tensor_of_decomposition(t2112_decomposition(eps, warn=False))
            tgt = t2112_target(eps)
            rel = np.abs(exp.coeff - tgt.coeff).max() / np.abs(tgt.coeff).max()
            assert rel <= 1e-12, (eps, rel)
        assert t2112_derivation_check()
        wall = time.perf_counter() - t0
        assert wall < 1.0
        _report(1, f"all identities exact/<=1e-12, derivation ok, {wall:.2f}s")


class TestCriterion2Figure1:
    def test_tables_totals_exponents(self):
        # tables
        assert np.allclose(eff_table(matmul_tensor(2, 2)).per_entry,
                           math.sqrt(2), atol=1e-12)
        sw_tab = eff_table(sw_target())
        assert abs(sw_tab.per_entry[0, 0] - 1.0) < 1e-12
        assert abs(sw_tab.total - math.sqrt(7)) < 1e-12
        eps = 0.025
        t_tab = eff_table(t2112_target(eps))
        # closed forms evaluated directly
        want00 = 2 / math.sqrt(2 + eps ** 2 + eps ** 6)
        assert abs(t_tab.per_entry[0, 0] - want00) < 1e-4
        assert abs(t_tab.total - math.sqrt(6)) < 1e-3
        # exponents within 1e-4 of direct evaluation
        vals = {
            "strassen": (7, eff_table(matmul_tensor(2, 2)).total, 1.8716),
            "sw": (6, sw_tab.total, 1.8416),
        }
        for name, (rank, eff, printed) in vals.items():
            direct = math.log(rank) / math.log(eff)
            assert abs(exponent_bound(rank, eff) - direct) < 1e-12
            assert abs(direct - printed) < 1e-4, name
        direct_t = math.log(5) / math.log(t_tab.total)
        assert abs(exponent_bound(5, t_tab.total) - direct_t) < 1e-12
        limit = math.log(5) / math.log(math.sqrt(6))
        assert abs(limit - 1.7965) < 1e-4
        assert 0 < direct_t - limit < 1e-3

    def test_zoo_list_matches(self, capsys):
        from lumen.cli import main as cli_main
        assert cli_main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        assert "strassen" in out and "2.828427" in out
        assert "sw" in out and "2.645751" in out
        assert "t2112" in out and "2.448980" in out
        _report(2, "eff tables, totals, exponents and zoo list reproduced")


class TestCriterion3OracleEquivalence:
    def test_recursive_equals_direct_expansion(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        cases = [("strassen", strassen_decomposition(), True),
                 ("sw", sw_decomposition(), True),
                 ("t2112@0.5", t2112_decomposition(0.5), False)]
        pairs_per_case = 100
        for name, d, integer in cases:
            for N in (1, 2, 3):
                tN = tensor_power(tensor_of_decomposition(d), N)
                q, qk = 2 ** N, 2 ** N
                counter = MultiplyCounter()
                n_pairs = pairs_per_case // 3 + (1 if N == 1 else 0)
                for _ in range(n_pairs):
                    if integer:
                        A = rng.integers(-5, 6, size=(q, qk))
                        B = rng.integers(-5, 6, size=(q, qk))
                        C1 = apply_recursive(d, N, A, B, counter=counter)
                        C0 = apply_direct(tN, A, B)
                        assert np.array_equal(C1, C0), (name, N)
                    else:
                        A = rng.standard_normal((q, qk))
                        B = rng.standard_normal((q, qk))
                        C1 = apply_recursive(d, N, A, B, counter=counter)
                        C0 = apply_direct(tN, A, B)
                        rel = np.abs(C1 - C0).max() / max(np.abs(C0).max(), 1e-30)
                        assert rel <= 1e-9, (name, N, rel)
                assert counter.count == n_pairs * d.rank ** N, (name, N)
        wall = time.perf_counter() - t0
        assert wall < 30.0
        _report(3, f"recursion == direct expansion (exact int / <=1e-9), "
                   f"counter == rank^N, {wall:.1f}s")


class TestCriterion4Aggregation:
    def test_fast_equals_naive_and_crossover(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            g = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
            d = int(rng.choice([8, 12, 16, 20, 24]))
            r = int(rng.choice([2, 4]))
            if d < 2 * r:
                continue
            v = rng.integers(0, 2, size=(g, d), dtype=np.uint8)
            fam = SplitFamily(d, r)
            m = int(min(fam.size, 600))
            task = AggregationTask(v, r, m)
            rn = aggregate_naive(task)
            rf = aggregate_fast(task)
            assert np.array_equal(rn.values, rf.values), (g, d, r)
            assert np.abs(rn.values).max() <= g
            checked += 1
        rows = bench_aggregation(g_values=(1, 4, 16, 64, 256), d=24, r=4)
        crossover = [r["g"] for r in rows if r["fast_s"] < r["naive_s"]]
        assert crossover and min(crossover) <= 256
        wall = time.perf_counter() - t0
        assert wall < 60.0
        _report(4, f"50 tasks bit-identical; timing crossover at g<="
                   f"{min(crossover)}; {wall:.1f}s")


class TestCriterion5EndToEnd:
    def test_recovery_and_nulls(self):
        t0 = time.perf_counter()
        results = {}
        for tensor in ("t2112", "strassen"):
            rows, _ = cmd_success_curve(tensor, [1024], [0.8], seeds=20,
                                        d=512, reps=25, jobs=2)
            results[(tensor, "planted")] = rows[0]
            rows, _ = cmd_success_curve(tensor, [1024], [0.8], seeds=20,
                                        d=512, reps=25, jobs=2, null=True)
            results[(tensor, "null")] = rows[0]
        wall = time.perf_counter() - t0
        for tensor in ("t2112", "strassen"):
            planted = results[(tensor, "planted")]["successes"]
            nulls = results[(tensor, "null")]["successes"]
            assert planted >= 18, (tensor, planted)
            assert nulls >= 19, (tensor, nulls)
        assert wall < 600.0, wall
        _report(5, "recovery "
                   f"t2112 {results[('t2112', 'planted')]['successes']}/20, "
                   f"strassen {results[('strassen', 'planted')]['successes']}/20; "
                   f"nulls clean "
                   f"{results[('t2112', 'null')]['successes']}/20 and "
                   f"{results[('strassen', 'null')]['successes']}/20; "
                   f"{wall:.0f}s")


class TestCriterion6HashingCalculus:
    def test_optimizer_grid_curves(self):
        qp, g, _ = optimize_gamma(t2112_limit_tensor(), rho_joint_matrix(0.2),
                                  n_starts=16, n_iters=200, seed=0)
        assert g >= EXAMPLE_GAMMA_02 - 1e-3

        grid = np.linspace(0, 1, 101)
        vals = [omega_rho_t2112(r) for r in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        lo = omega_rho_t2112(1 / 3 - 1e-12)
        hi = omega_rho_t2112(1 / 3)
        assert abs(lo - hi) <= 1e-9

        flat = exponent_bound(5, math.sqrt(6))
        for rho in (0.0, 0.1, 1 / 3, 0.6, 1.0):
            row = exponent_rows([rho])[0]
            want_lsh = omega_rho_t2112(rho) if rho > 0 else flat
            assert abs(row["omega_lsh_t2112"] - want_lsh) < 1e-4
            assert abs(row["omega_uniform_t2112"] - flat) < 1e-4
            assert abs(row["omega_dubiner"] - 2 / (1 + rho)) < 1e-4
        _report(6, f"optimizer gamma {g:.6f} >= {EXAMPLE_GAMMA_02 - 1e-3:.6f}; "
                   "branch continuity <=1e-9; all three curves match formulas")


class TestCriterion7Designer:
    def test_sw_and_random_corpus(self):
        t0 = time.perf_counter()
        qp, g, eps = design_q_matrices(sw_target(), rho_joint_matrix(0.5))
        assert g > 7 / 4

        rng = np.random.default_rng(11)
        from test_efficacy import random_subset_tensor
        done = 0
        while done < 20:
            q = 2 if done % 2 == 0 else 3
            t = random_subset_tensor(q, rng)
            P = rng.dirichlet(np.ones(q * q)).reshape(q, q)
            P = (P + P.T) / 2
            P /= P.sum()
            if np.allclose(P, 1 / (q * q)):
                continue
            qp, gg, _ = design_q_matrices(t, P)
            base = eff_table(t).total ** 2 / (q * q)
            assert gg > base
            for Q in (qp.Q_x, qp.Q_y):
                assert np.abs(Q.sum(axis=1) - 1).max() < 1e-9
                assert Q.min() >= -1e-12 and Q.max() <= 1 + 1e-12
            # sub-checks: permutation existence and mixed signs in row 1
            A = eff_table(t).per_entry ** 2
            perm, Ap = column_permutation_for_mixed_signs(A)
            top = np.linalg.inv(Ap)[0]
            assert (top > 0).any() and (top < 0).any()
            done += 1
        # scalar inequality
        assert scalar_improvement_holds(1.75, 0.375, 2, 0.01)
        wall = time.perf_counter() - t0
        assert wall < 60.0
        _report(7, f"SW gamma {g:.4f} > 1.75; 20-tensor corpus strict; "
                   f"scalar/permutation/mixed-sign checks pass; {wall:.1f}s")


class TestCriterion8LemmaSuite:
    def test_probabilistic_lemmas(self):
        t0 = time.perf_counter()
        rep = lemma_checks(seed=0, draws=100000, n_matrices=20, n_sets=20)
        assert rep["pass"], rep
        assert rep["regular_lemma"]["violations"] == 0
        wall = time.perf_counter() - t0
        assert wall < 120.0
        _report(8, f"sign {rep['sign_lemma']['min_freq']:.4f} >= "
                   f"{rep['sign_lemma']['bound']:.4f}; rectangle "
                   f"{rep['rectangle_lemma']['min_rate']:.4f} >= "
                   f"{rep['rectangle_lemma']['bound']:.4f}; regular sets "
                   f"exhaustive on [4]^2; {wall:.0f}s")


class TestCriterion9Calibration:
    def test_null_variance_and_flag_fraction(self):
        n, dim = 128, 512
        inst = gen_planted(n, dim, 0.0, seed=99, planted=False)
        plan = plan_uniform(n, 0.8, t2112_decomposition(0.025, warn=False),
                            d=dim)
        lv, kern, _ = _screen_levels([t2112_decomposition(0.025, warn=False)] * 4)
        plan.levels = lv
        plan.kernel = kern
        plan.N = 4
        plan.m = 16
        plan.d_prime = 16
        plan.detect_sigma = 10.0
        ratios = []
        flags_total = 0
        cells_total = 0
        for k in range(200):
            st = bucket_uniform(inst, plan, np.random.default_rng(4000 + k),
                                offset=k * 16)
            flags, score, C, V = detect(st, plan, return_scores=True)
            ok = V > 0
            ratios.append(float((C[ok] ** 2 / V[ok]).mean()))
            flags_total += len(flags)
            cells_total += int(ok.sum())
        pooled = float(np.mean(ratios))
        assert 0.8 <= pooled <= 1.25, pooled
        frac = flags_total / cells_total
        bound = 1 / 100 + 3 * math.sqrt(0.01 * 0.99 / cells_total)
        assert frac <= bound, (frac, bound)
        _report(9, f"pooled variance ratio {pooled:.3f} in [0.8, 1.25]; "
                   f"null flag fraction {frac:.2e} <= {bound:.2e}")
