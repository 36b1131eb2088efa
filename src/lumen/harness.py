"""Experiment orchestration: exponent curves, success grids, verification
summary, CSV/JSON emission, and the paper's probabilistic lemma suite."""

from __future__ import annotations

# the package, not its ProcessPoolExecutor: that name loads multiprocessing,
# which only a --jobs grid needs, and the CLI imports this module at start
import concurrent.futures
import csv
import io
import math
import os

import numpy as np

from .core import (MultiplyCounter, apply_direct, apply_power,
                   tensor_of_decomposition, tensor_power)
from .efficacy import (dubiner_exponent, eff_table, exponent_bound,
                       omega_rho_t2112, rho_joint_matrix, t2112_flip_pair)
from .instances import gen_planted
from .solver import (PlanError, plan_lsh, plan_uniform, skew_metrics,
                     solve_lsh, solve_uniform)
from . import zoo

__all__ = [
    "cmd_exponents",
    "cmd_success_curve",
    "cmd_verify",
    "lemma_checks",
    "EXPONENTS_HEADER",
    "SUCCESS_HEADER",
    "default_jobs",
]

EXPONENTS_HEADER = ["rho", "omega_lsh_t2112", "omega_uniform_t2112", "omega_dubiner"]
SUCCESS_HEADER = ["tensor", "eps", "rho", "n", "N", "g", "seeds", "successes",
                  "rate", "wilson_lo", "wilson_hi", "mean_rounds", "multiply_count"]


def default_jobs() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def wilson_interval(successes: int, trials: int):
    z = 1.96                     # the 95% interval
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    den = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / den
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / den
    return max(0.0, centre - half), min(1.0, centre + half)


def _write_csv(rows, header, out=None) -> str:
    """CSV text of rows (floats to 6 places), also written to out if given."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=header)
    w.writeheader()
    for r in rows:
        w.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v)
                    for k, v in r.items()})
    text = buf.getvalue()
    if out:
        with open(out, "w") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# exponent curves
# ---------------------------------------------------------------------------

def exponent_rows(rhos):
    """Three curves: hashing-boosted, flat uniform bound, and the pure-hashing
    reference 2/(1+rho)."""
    flat = exponent_bound(5, math.sqrt(6.0))
    rows = []
    for rho in rhos:
        rows.append({
            "rho": float(rho),
            "omega_lsh_t2112": omega_rho_t2112(rho) if rho > 0 else flat,
            "omega_uniform_t2112": flat,
            "omega_dubiner": dubiner_exponent(rho),
        })
    return rows


def cmd_exponents(rhos=None, out=None) -> str:
    rhos = rhos if rhos is not None else np.linspace(0.0, 1.0, 101)
    return _write_csv(exponent_rows(rhos), EXPONENTS_HEADER, out)


# ---------------------------------------------------------------------------
# success grid
# ---------------------------------------------------------------------------

def _one_solve(args):
    """(success, rounds run, multiplies) of one seed's solve under plan."""
    decomp, n, d, rho, seed, null, plan = args
    inst = gen_planted(n, d, rho, seed=seed, planted=not null)
    counter = MultiplyCounter()
    solve = solve_lsh if plan.lsh else solve_uniform
    rep = solve(inst, decomp, plan=plan, seed=seed, counter=counter)
    success = not rep.found if null else inst.planted() in rep.candidates
    return success, rep.rounds_run, counter.count


def cmd_success_curve(tensor: str, n_list, rho_list, seeds: int = 20,
                      eps: float = zoo.DEFAULT_EPS, d: int | None = None,
                      reps: int | None = None, lsh: bool = False, null: bool = False,
                      jobs: int | None = None, out=None):
    """Per-(n, rho) success rates with Wilson intervals, optionally parallel
    over grid cells.  Every cell is planned once, before any solve; a cell
    that no plan can run raises PlanError."""
    jobs = jobs or default_jobs()
    cells = []
    try:
        decomp = zoo.zoo_decomposition(tensor, eps)
        for n in sorted(set(n_list)):
            dd = d if d is not None else max(64, n // 2)
            for rho in sorted(set(rho_list)):
                cells.append((n, rho, dd, plan_lsh(
                    n, rho_joint_matrix(rho), decomp, t2112_flip_pair(rho),
                    d=dd, reps=reps) if lsh
                    else plan_uniform(n, rho, decomp, d=dd, reps=reps)))
    except ValueError as e:
        raise PlanError(e.args[0]) from e
    tasks = [(decomp, n, dd, rho, 10_000 + s, null, plan)
             for n, rho, dd, plan in cells for s in range(seeds)]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_one_solve, tasks, chunksize=1))
    else:
        results = [_one_solve(t) for t in tasks]
    rows = []
    for k, (n, rho, _, plan) in enumerate(cells if seeds > 0 else ()):
        rs = results[k * seeds:(k + 1) * seeds]
        wins = sum(r[0] for r in rs)
        lo, hi = wilson_interval(wins, len(rs))
        rows.append({
            "tensor": tensor, "eps": eps, "rho": rho, "n": n,
            "N": plan.N, "g": plan.g, "seeds": len(rs),
            "successes": wins, "rate": wins / len(rs),
            "wilson_lo": lo, "wilson_hi": hi,
            "mean_rounds": float(np.mean([r[1] for r in rs])),
            "multiply_count": int(np.mean([r[2] for r in rs])),
        })
    return rows, _write_csv(rows, SUCCESS_HEADER, out)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _check(name, ok, details=""):
    return {"name": name, "pass": bool(ok), "details": details}


def locate_corrupt_term(d, target):
    """Assuming exactly one corrupted term, removing the culprit leaves a
    residual equal to minus one rank-1 tensor; a residual is rank one exactly
    when all three of its matricizations are.  Returns the first such index."""
    from .core import Decomposition

    def rank1(resid):
        qi, qk, qj = d.shape.q_i, d.shape.q_k, d.shape.q_j
        groups = [(0, 1), (2, 3), (4, 5)]
        for axes in groups:
            rest_axes = [a for a in range(6) if a not in axes]
            mat = resid.transpose(list(axes) + rest_axes).reshape(
                resid.shape[axes[0]] * resid.shape[axes[1]], -1)
            if np.linalg.matrix_rank(mat, tol=1e-9) > 1:
                return False
        return True

    for drop in range(d.rank):
        rest = Decomposition(d.shape, tuple(t for i, t in enumerate(d.terms)
                                            if i != drop))
        resid = tensor_of_decomposition(rest).coeff - target.coeff
        if not resid.any() or rank1(resid):
            return drop
    return None


def cmd_verify(fast: bool = False):
    """Identity, table, oracle-equivalence, and probabilistic-lemma checks."""
    checks = []
    rng = np.random.default_rng(0)

    st = zoo.strassen_decomposition()
    checks.append(_check(
        "strassen_identity",
        np.array_equal(tensor_of_decomposition(st).coeff,
                       zoo.matmul_tensor(2, 2).coeff)))
    sw = zoo.sw_decomposition()
    checks.append(_check(
        "sw_identity",
        np.array_equal(tensor_of_decomposition(sw).coeff, zoo.sw_target().coeff)))
    for eps in (0.5, 0.1, 0.025):
        exp = tensor_of_decomposition(zoo.t2112_decomposition(eps, warn=False))
        tgt = zoo.t2112_target(eps)
        err = np.abs(exp.coeff - tgt.coeff).max() / np.abs(tgt.coeff).max()
        checks.append(_check(f"t2112_identity_eps={eps}", err <= 1e-12,
                             f"rel err {err:.2e}"))
    checks.append(_check("t2112_derivation", zoo.t2112_derivation_check()))

    table = eff_table(zoo.matmul_tensor(2, 2))
    checks.append(_check("eff_matmul", abs(table.total - math.sqrt(8)) < 1e-12))
    checks.append(_check("eff_sw",
                         abs(eff_table(zoo.sw_target()).total - math.sqrt(7)) < 1e-12))

    # engine vs direct-expansion oracle at conditioning-safe parameters
    for name, d, NN in (("strassen", st, 3), ("sw", sw, 3),
                        ("t2112@0.5", zoo.t2112_decomposition(0.5), 3)):
        t1 = tensor_of_decomposition(d)
        tN = tensor_power(t1, NN)
        q, qk = d.shape.q_i ** NN, d.shape.q_k ** NN
        worst = 0.0
        for _ in range(3 if fast else 10):
            A = rng.standard_normal((q, qk))
            B = rng.standard_normal((q, qk))
            C1 = apply_power([d] * NN, A, B)
            C0 = apply_direct(tN, A, B)
            worst = max(worst, np.abs(C1 - C0).max() / np.abs(C0).max())
        checks.append(_check(f"oracle_{name}_N{NN}", worst <= 1e-9,
                             f"rel err {worst:.2e}"))

    if not fast:
        lc = lemma_checks(draws=20000, n_sets=8)
        checks.append(_check("lemma_suite", lc["pass"]))

    passed = all(c["pass"] for c in checks)
    return {"pass": passed, "checks": checks}


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
