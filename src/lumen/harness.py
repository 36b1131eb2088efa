"""Experiment orchestration: exponent curves, success grids, verification
summary, CSV/JSON emission."""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import (MultiplyCounter, apply_direct, apply_power,
                   tensor_of_decomposition, tensor_power)
from .efficacy import (dubiner_exponent, eff_table, exponent_bound,
                       omega_rho_t2112, rho_joint_matrix, t2112_flip_pair)
from .instances import gen_planted
from .solver import (PlanError, lemma_checks, plan_lsh, plan_uniform,
                     solve_lsh, solve_uniform)
from . import zoo

__all__ = [
    "cmd_exponents",
    "cmd_success_curve",
    "cmd_verify",
    "EXPONENTS_HEADER",
    "SUCCESS_HEADER",
    "default_jobs",
]

EXPONENTS_HEADER = ["rho", "omega_lsh_t2112", "omega_uniform_t2112", "omega_dubiner"]
SUCCESS_HEADER = ["tensor", "eps", "rho", "n", "N", "g", "seeds", "successes",
                  "rate", "wilson_lo", "wilson_hi", "mean_rounds", "multiply_count"]


def default_jobs() -> int:
    env = os.environ.get("LUMEN_JOBS")
    if env:
        return max(1, int(env))
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
        with ProcessPoolExecutor(max_workers=jobs) as ex:
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
