"""Print the detection reports of a fixed grid of small solves, and a digest.

Two checkouts that should solve identically (a refactor and its parent)
must print the same lines.  Run from the repository root, once per
checkout, and compare the output:

    PYTHONPATH=src python3 tools/report_digest.py > new.txt
    PYTHONPATH=<parent checkout>/src python3 tools/report_digest.py > old.txt
    diff old.txt new.txt

The grid covers both solvers on planted and null instances; rounds are
capped at REPS so that null solves stay short.
"""

import dataclasses
import hashlib

import numpy as np

from lumen import zoo
from lumen.core import MultiplyCounter
from lumen.efficacy import StochasticPair, rho_joint_matrix, t2112_optimal_a
from lumen.instances import gen_planted
from lumen.solver import plan_lsh, plan_uniform, solve_lsh, solve_uniform

REPS = 6
D = 256
SEEDS = (0, 1, 2)
# (tensor, lsh, n, rho)
GRID = (("strassen", False, 256, 0.8), ("t2112", False, 128, 0.8),
        ("sw", True, 128, 0.6), ("t2112", True, 112, 0.6))


def solves():
    for tensor, lsh, n, rho in GRID:
        decomp = zoo.zoo_decomposition(tensor)
        if lsh:
            a = t2112_optimal_a(rho)
            Q = np.array([[1 - a, a], [a, 1 - a]])
            plan = plan_lsh(n, rho_joint_matrix(rho), decomp,
                            StochasticPair(Q, Q.copy()), d=D)
            solve = solve_lsh
        else:
            plan = plan_uniform(n, rho, decomp, d=D)
            solve = solve_uniform
        plan = dataclasses.replace(plan, reps=min(plan.reps, REPS))
        for planted in (True, False):
            for seed in SEEDS:
                inst = gen_planted(n, D, rho, seed=900 + seed, planted=planted)
                counter = MultiplyCounter()
                rep = solve(inst, decomp, plan=plan, seed=seed, counter=counter)
                yield (f"{tensor} lsh={lsh} n={n} planted={planted} "
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
