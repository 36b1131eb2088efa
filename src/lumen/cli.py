"""lumen command-line interface."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import zoo
from .core import decomposition_to_text, tensor_of_decomposition, MultiplyCounter
from .efficacy import (DesignerError, design_q_matrices, eff_table,
                       exponent_bound, optimize_gamma, omega_rho_t2112,
                       rho_joint_matrix, t2112_flip_pair)
from .harness import (cmd_exponents, cmd_success_curve, cmd_verify,
                      lemma_checks)
from .instances import (SplitFamily, gen_planted, read_instance,
                        write_instance)
from .solver import (PlanError, plan_lsh, plan_uniform, solve_lsh,
                     solve_uniform, verify_threshold)
from .aggregation import bench_aggregation


class _BadArgument(Exception):
    """An argument the command cannot run with: one line on stderr, exit 2."""


class _BadPath(_BadArgument):
    """A file the command cannot read, use or write: '<path>: <reason>'."""


def _from_args(make, *args):
    """make(*args) for what the arguments construct, so that their errors
    end as one line while faults in the computation keep their traceback."""
    try:
        return make(*args)
    except (KeyError, ValueError, PlanError, DesignerError) as e:
        raise _BadArgument(e.args[0]) from e


def _check_seed(seed: int):
    """numpy seeds are non-negative integers."""
    if seed < 0:
        raise _BadArgument(f"seed = {seed} is negative")


def _check_writable(path):
    """Create an output file before the work, so a bad path ends in one line."""
    if path:
        try:
            open(path, "a").close()
        except OSError as e:
            raise _BadPath(f"{path}: {e.strerror}") from e


def _check_rho(rho: float):
    """Planted instances take a correlation in [0, 1]."""
    if not 0.0 <= rho <= 1.0:
        raise _BadArgument(f"rho = {rho} must lie in [0, 1]")


def _tensor_args(p):
    p.add_argument("--tensor", default="t2112", choices=list(zoo.ZOO))
    p.add_argument("--eps", type=float, default=zoo.DEFAULT_EPS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lumen",
                                 description="light bulb solvers from low-rank tensors")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("zoo", help="list built-in tensors or dump one")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--eps", type=float, default=zoo.DEFAULT_EPS)

    p = sub.add_parser("eff", help="efficacy table of a tensor")
    _tensor_args(p)

    p = sub.add_parser("exponent", help="exponent bound of a tensor")
    _tensor_args(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--csv", action="store_true",
                   help="emit one row: tensor,epsilon,rho,eff,gamma,exponent")

    p = sub.add_parser("exponents", help="exponent curves over rho (CSV)")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="write a planted instance file")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--null", action="store_true")

    p = sub.add_parser("solve", help="solve an instance or a fresh one")
    _tensor_args(p)
    p.add_argument("--path", default=None)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--d", type=int, default=512)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lsh", action="store_true")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("bench", help="benchmarks")
    p.add_argument("what", choices=["agg"])
    p.add_argument("--d", type=int, default=24)
    p.add_argument("--r", type=int, default=4)

    p = sub.add_parser("verify", help="run identity and oracle checks")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--decomp-file", default=None,
                   help="verify a user decomposition (text format) instead")
    p.add_argument("--against", default=None,
                   choices=list(zoo.ZOO),
                   help="zoo target the user decomposition must expand to")
    p.add_argument("--eps", type=float, default=zoo.DEFAULT_EPS)

    p = sub.add_parser("gamma-opt", help="optimize gamma for a tensor")
    _tensor_args(p)
    p.add_argument("--rho", type=float, default=0.2)
    p.add_argument("--starts", type=int, default=16)

    p = sub.add_parser("design-q", help="constructive Q matrices (subset tensors)")
    p.add_argument("--tensor", default="sw", choices=["sw", "t2112-limit"])
    p.add_argument("--rho", type=float, default=0.5)

    p = sub.add_parser("lemma-check", help="probabilistic lemma suite")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("success-curve", help="success-rate grid (CSV)")
    _tensor_args(p)
    p.add_argument("--n", type=int, nargs="+", default=[1024])
    p.add_argument("--rho", type=float, nargs="+", default=[0.8])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--lsh", action="store_true")
    p.add_argument("--null", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    try:
        return _run(args)
    except (_BadArgument, PlanError) as e:
        print(e if isinstance(e, _BadPath) else f"lumen {args.cmd}: {e}",
              file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.cmd == "zoo":
        if args.action == "list":
            entries = _from_args(zoo.zoo_entries, args.eps)
            print(f"{'name':10s} {'shape':10s} {'rank':>4s} {'eff':>10s} {'exponent':>9s}")
            for e in entries:
                s = e.decomposition.shape
                expo = exponent_bound(e.declared_rank, e.declared_eff)
                print(f"{e.name:10s} <{s.q_i},{s.q_j},{s.q_k}>    "
                      f"{e.declared_rank:4d} {e.declared_eff:10.6f} {expo:9.4f}")
        else:
            if not args.name:
                print("dump needs a tensor name", file=sys.stderr)
                return 2
            d = _from_args(zoo.zoo_decomposition, args.name, args.eps)
            print(decomposition_to_text(d), end="")
        return 0

    if args.cmd == "eff":
        t = _from_args(zoo.zoo_target, args.tensor, args.eps)
        table = eff_table(t)
        for row in table.per_entry:
            print("  ".join(f"{v:.6f}" for v in row))
        print(f"total {table.total:.6f}")
        return 0

    if args.cmd == "exponent":
        d = _from_args(zoo.zoo_decomposition, args.tensor, args.eps)
        if args.rho is not None and not 0.0 <= args.rho <= 1.0:
            raise _BadArgument("rho must lie in [0, 1]")
        t = zoo.zoo_target(args.tensor, args.eps)
        e = eff_table(t).total
        expo = exponent_bound(d.rank, e)
        if args.csv:
            from .efficacy import gamma as gamma_fn, uniform_pair
            rho = args.rho if args.rho is not None else 0.0
            if rho > 0 and args.tensor == "t2112":
                expo_out = omega_rho_t2112(rho)
                g = gamma_fn(t2112_flip_pair(rho), zoo.t2112_limit_tensor(),
                             rho_joint_matrix(rho))
            else:
                g = gamma_fn(uniform_pair(t.shape.q_i), t,
                             rho_joint_matrix(rho))
                expo_out = expo
            print("tensor,epsilon,rho,eff,gamma,exponent")
            print(f"{args.tensor},{args.eps},{rho},{e:.6f},{g:.6f},{expo_out:.6f}")
            return 0
        hashing = None
        if args.rho is not None and args.tensor == "t2112":
            hashing = omega_rho_t2112(args.rho)
        print(f"rank {d.rank}  eff {e:.6f}  exponent {expo:.6f}")
        if hashing is not None:
            print(f"hashing exponent at rho={args.rho}: {hashing:.6f}")
        return 0

    if args.cmd == "exponents":
        rhos = _from_args(np.linspace, 0, 1, args.points)
        _check_writable(args.out)
        text = cmd_exponents(rhos, out=args.out)
        if not args.out:
            print(text, end="")
        return 0

    if args.cmd == "gen":
        _check_seed(args.seed)
        inst = _from_args(gen_planted, args.n, args.d, args.rho, args.seed,
                          not args.null)
        _check_writable(args.path)
        write_instance(args.path, inst)
        print(f"wrote {args.path} (n={args.n} d={args.d} rho={args.rho})")
        return 0

    if args.cmd == "solve":
        _check_seed(args.seed)
        try:
            decomp = zoo.zoo_decomposition(args.tensor, args.eps)
            if args.path:
                inst = read_instance(args.path, load_sidecar=True)
                if inst.q != 2:
                    raise _BadPath(f"{args.path}: the solvers need a q=2 "
                                   f"instance, this one has q={inst.q}")
                if inst.rho is None:
                    raise _BadPath(f"{args.path}: the solvers need a scalar "
                                   f"rho, this instance has only a joint "
                                   f"matrix P")
            else:
                inst = gen_planted(args.n, args.d, args.rho, args.seed)
            t0 = time.perf_counter()
            if args.lsh:
                plan = plan_lsh(inst.n, rho_joint_matrix(inst.rho), decomp,
                                t2112_flip_pair(inst.rho), d=inst.d,
                                reps=args.reps, detect_sigma=args.sigma)
            else:
                plan = plan_uniform(inst.n, inst.rho, decomp, d=inst.d,
                                    reps=args.reps, detect_sigma=args.sigma)
        except OSError as e:
            raise _BadPath(f"{args.path}: {e.strerror}") from e
        except ValueError as e:
            raise _BadArgument(e) from e
        _check_writable(args.json_out)
        counter = MultiplyCounter()
        solve = solve_lsh if args.lsh else solve_uniform
        rep = solve(inst, decomp, plan=plan, seed=args.seed, counter=counter)
        wall = time.perf_counter() - t0
        out = {
            "plan": {"N": plan.N, "m": plan.m, "t": plan.t, "g": plan.g,
                     "reps": plan.reps, "detect_sigma": plan.detect_sigma,
                     "r": plan.r, "rho_det": plan.rho_det, "kernel": plan.kernel,
                     "rank_product": plan.detector.rank_product,
                     "multiplies_per_round": plan.detector.multiplies,
                     "verify_threshold": verify_threshold(inst.d, plan.reps),
                     "symmetrized": plan.symmetrized, "lsh": plan.lsh,
                     "exponent": plan.exponent, "notes": plan.notes},
            "found": rep.found,
            "candidates": rep.candidates[:20],
            "rounds": rep.rounds_run,
            "flags_top": rep.flagged[:10],
            "wall_time_s": wall,
            "multiply_count": counter.count,
        }
        known = inst.planted()
        if known is not None:
            out["planted_recovered"] = list(known) in [list(c) for c in rep.candidates]
        text = json.dumps(out, indent=2, default=str)
        if args.json_out:
            with open(args.json_out, "w") as f:
                f.write(text)
        print(text)
        if known is not None:
            return 0 if out.get("planted_recovered") else 1
        return 0

    if args.cmd == "bench":
        _from_args(SplitFamily, args.d, args.r)
        rows = bench_aggregation(d=args.d, r=args.r)
        print("g,d,r,naive_s,fast_s,op_ratio")
        for r in rows:
            print(f"{r['g']},{r['d']},{r['r']},{r['naive_s']:.4f},"
                  f"{r['fast_s']:.4f},{r['op_ratio']:.4f}")
        return 0

    if args.cmd == "verify":
        if args.decomp_file:
            from .core import decomposition_from_text
            from .harness import locate_corrupt_term
            try:
                with open(args.decomp_file) as f:
                    d = decomposition_from_text(f.read())
            except OSError as e:
                raise _BadPath(f"{args.decomp_file}: {e.strerror}") from e
            except ValueError as e:
                raise _BadPath(f"{args.decomp_file}: {e}") from e
            if not args.against:
                print("loaded: rank", d.rank, "shape",
                      (d.shape.q_i, d.shape.q_j, d.shape.q_k))
                return 0
            target = _from_args(zoo.zoo_target, args.against, args.eps)
            exp = tensor_of_decomposition(d)
            scale = max(np.abs(target.coeff).max(), 1e-300)
            err = np.abs(exp.coeff - target.coeff).max() / scale
            if err <= 1e-12:
                print(f"[PASS] expansion matches {args.against} (rel {err:.2e})")
                return 0
            culprit = locate_corrupt_term(d, target)
            print(f"[FAIL] expansion differs from {args.against} "
                  f"(rel {err:.2e}); suspect term index: {culprit}")
            return 1
        rep = cmd_verify(fast=args.fast)
        for c in rep["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            print(f"[{mark}] {c['name']}  {c['details']}")
        print("overall:", "PASS" if rep["pass"] else "FAIL")
        return 0 if rep["pass"] else 1

    if args.cmd == "gamma-opt":
        t = (zoo.t2112_limit_tensor() if args.tensor == "t2112"
             else _from_args(zoo.zoo_target, args.tensor, args.eps))
        qp, g, conv = optimize_gamma(t, _from_args(rho_joint_matrix, args.rho),
                                     n_starts=args.starts)
        print(f"gamma {g:.6f} converged={conv}")
        print("Q_x:", np.round(qp.Q_x, 6).tolist())
        print("Q_y:", np.round(qp.Q_y, 6).tolist())
        return 0

    if args.cmd == "design-q":
        t = (zoo.sw_target() if args.tensor == "sw" else zoo.t2112_limit_tensor())
        qp, g, eps = _from_args(design_q_matrices, t,
                                _from_args(rho_joint_matrix, args.rho))
        base = eff_table(t).total ** 2 / 4
        print(f"gamma {g:.6f} (uniform baseline {base:.6f}) at eps={eps}")
        print("Q_x:", np.round(qp.Q_x, 6).tolist())
        print("Q_y:", np.round(qp.Q_y, 6).tolist())
        return 0

    if args.cmd == "lemma-check":
        _check_seed(args.seed)
        rep = lemma_checks(seed=args.seed)
        for k, v in rep.items():
            if isinstance(v, dict):
                print(f"[{'PASS' if v['pass'] else 'FAIL'}] {k}: {v}")
        print("overall:", "PASS" if rep["pass"] else "FAIL")
        return 0 if rep["pass"] else 1

    if args.cmd == "success-curve":
        for rho in args.rho:
            _check_rho(rho)
        _check_writable(args.out)
        rows, text = cmd_success_curve(
            args.tensor, args.n, args.rho, seeds=args.seeds, eps=args.eps,
            reps=args.reps, lsh=args.lsh, null=args.null, jobs=args.jobs,
            out=args.out)
        if not args.out:
            print(text, end="")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
