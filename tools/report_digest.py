"""Print the detection reports of a fixed grid of small solves, and a digest.

Two checkouts that should solve identically (a refactor and its parent)
must print the same lines.  Run from the repository root, once per
checkout, and compare the output:

    PYTHONPATH=src python3 tools/report_digest.py > new.txt
    PYTHONPATH=<parent checkout>/src python3 tools/report_digest.py > old.txt
    diff old.txt new.txt

The grid covers both solvers and all three kernel kinds on planted and null
instances, and one hashing plan whose sign mapping complements a side.
Every zoo plan runs a mask kernel, so the sweep kind's row is a
decomposition built here, with no unit matmul slot.  Rounds are capped at
REPS so that null solves stay short.  Each grid plan
prints its headline fields, the multiplies its detector plans a round and
its rank product, its verification threshold and its notes, so a planner,
detector or verification change shows.  It also scores one
uniform bucket round and prints the sha256 of its bucket sums agg_x and
agg_y, of its scores C and of its variance map V, so a change that moves
any bit of the bucket sums or the scores shows, not only one that moves a
flag.  It also prints the sha256 of repr() of the round's flags from
detect's default path, which screens the scores without building the whole
map where it can, so a change to that path shows even where no solve's
report moves.
"""

import dataclasses
import hashlib

from lumen import zoo
from lumen.core import Decomposition, MultiplyCounter
from lumen.efficacy import rho_joint_matrix, t2112_flip_pair
from lumen.instances import gen_planted
from lumen.solver import (bucket_uniform, detect, plan_lsh, plan_uniform,
                          solve_lsh, solve_uniform, verify_threshold)

REPS = 6
D = 256
SEEDS = (0, 1, 2)
EPS = zoo.DEFAULT_EPS
# (tensor, eps, lsh, n, rho, complemented); t2112-halved, t2112 with every
# gamma halved, has no unit matmul slot and runs the sweep kernel.  A
# complemented row plans for P with its columns reversed and solves
# instances whose Y bits are all flipped, so the plan's sign mapping
# anti-correlates the raw bits.
GRID = (("strassen", EPS, False, 256, 0.8, False),
        ("t2112", EPS, False, 128, 0.8, False),
        ("sw", EPS, True, 128, 0.6, False),
        ("t2112", EPS, True, 112, 0.6, False),
        ("t2112", 0.5, False, 64, 0.8, False),
        ("sw", EPS, True, 128, 0.6, True),
        ("t2112-halved", 0.5, False, 64, 0.8, False))


def decomposition(tensor, eps):
    """The zoo decomposition, or t2112's with every gamma halved."""
    if tensor != "t2112-halved":
        return zoo.zoo_decomposition(tensor, eps)
    d = zoo.t2112_decomposition(eps)
    return Decomposition(d.shape, tuple(
        dataclasses.replace(t, gamma=t.gamma / 2) for t in d.terms))


def instance(n, rho, seed, complemented, planted=True):
    inst = gen_planted(n, D, rho, seed=seed, planted=planted)
    return dataclasses.replace(inst, Y=inst.Y ^ 1) if complemented else inst


def solves():
    for tensor, eps, lsh, n, rho, complemented in GRID:
        decomp = decomposition(tensor, eps)
        name = f"{tensor} eps={eps} lsh={lsh} n={n}"
        if complemented:
            name += " complemented"
        if lsh:
            P = rho_joint_matrix(rho)
            plan = plan_lsh(n, P[:, ::-1] if complemented else P, decomp,
                            t2112_flip_pair(rho), d=D)
            solve = solve_lsh
        else:
            plan = plan_uniform(n, rho, decomp, d=D)
            solve = solve_uniform
        yield (f"{name} plan: kernel={plan.kernel} "
               f"multiplies={plan.detector.multiplies} "
               f"rank_product={plan.detector.rank_product} "
               f"N={plan.N} m={plan.m} t={plan.t} copies={plan.copies} "
               f"r={plan.r} rho_det={plan.rho_det} "
               f"detect_sigma={plan.detect_sigma} "
               f"p_round_est={plan.p_round_est} "
               f"verify_threshold={verify_threshold(D, plan.reps)} "
               f"notes={plan.notes}")
        plan = dataclasses.replace(plan, reps=min(plan.reps, REPS))
        inst = instance(n, rho, 900, complemented)
        state = bucket_uniform(inst, plan, 0)
        _, _, C, V = detect(state, plan, return_scores=True)
        flags = repr(detect(state, plan))
        yield (f"{name} round: kernel={plan.kernel} "
               f"agg_x={hashlib.sha256(state.agg_x.tobytes()).hexdigest()} "
               f"agg_y={hashlib.sha256(state.agg_y.tobytes()).hexdigest()} "
               f"C={hashlib.sha256(C.tobytes()).hexdigest()} "
               f"V={hashlib.sha256(V.tobytes()).hexdigest()} "
               f"flags={hashlib.sha256(flags.encode()).hexdigest()}")
        for planted in (True, False):
            for seed in SEEDS:
                inst = instance(n, rho, 900 + seed, complemented, planted)
                counter = MultiplyCounter()
                rep = solve(inst, decomp, plan=plan, seed=seed, counter=counter)
                yield (f"{name} planted={planted} "
                       f"seed={seed}: found={rep.found} "
                       f"candidates={rep.candidates} flagged={rep.flagged} "
                       f"rounds={rep.rounds_run} stats={rep.stats} "
                       f"multiplies={counter.count}")


def main():
    digest = hashlib.sha256()
    for line in solves():
        print(line)
        digest.update(line.encode())
    print("digest", digest.hexdigest())


if __name__ == "__main__":
    main()
