"""The benchmark tracer's contract with the solver: every name it wraps is
an attribute of lumen.solver that the solves call through the module."""

import dataclasses
import importlib.util
from pathlib import Path

from lumen import solver
from lumen.core import MultiplyCounter
from lumen.efficacy import rho_joint_matrix, t2112_flip_pair
from lumen.instances import gen_planted
from lumen.zoo import (strassen_decomposition, sw_decomposition,
                       t2112_decomposition)


def _load_tracing():
    """bench/tracing.py, loaded from its file and left out of sys.modules."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solves(counter):
    """Two rounds each of t2112 uniform (subset_diag), strassen uniform
    (masked_matmul), sw hashing and t2112 at eps 0.5 (sweep), on null
    instances so that both rounds run, planned through lumen.solver."""
    n, d, rho = 64, 256, 0.8
    inst = gen_planted(n, d, rho, seed=14, planted=False)
    kinds = set()
    for decomp in (t2112_decomposition(0.025, warn=False),
                   strassen_decomposition()):
        plan = solver.plan_uniform(n, rho, decomp, d=d, reps=2)
        kinds.add(plan.kernel)
        solver.solve_uniform(inst, decomp, plan=plan, seed=0, counter=counter)
    exact = t2112_decomposition(0.5, warn=False)
    plan = dataclasses.replace(solver.plan_uniform(n, rho, exact, d=d), reps=2)
    kinds.add(plan.kernel)
    solver.solve_uniform(inst, exact, plan=plan, seed=0, counter=counter)
    sw = sw_decomposition()
    plan = solver.plan_lsh(n, rho_joint_matrix(0.6), sw, t2112_flip_pair(0.6),
                           d=d, reps=2)
    kinds.add(plan.kernel)
    inst = gen_planted(n, d, 0.6, seed=14, planted=False)
    solver.solve_lsh(inst, sw, plan=plan, seed=0, counter=counter)
    return kinds


def test_every_traced_name_is_reached():
    tracing = _load_tracing()
    assert len(tracing.SOLVER_LAYERS) == 15
    tracer = tracing.Tracer(MultiplyCounter())
    tracer.install(solver)
    try:
        kinds = _solves(tracer.counter)
    finally:
        tracer.uninstall()
    assert kinds == {"subset_diag", "masked_matmul", "sweep"}
    reached = {span[tracing.NAME] for span in tracer.spans}
    assert reached == set(tracing.SOLVER_LAYERS)
    assert all(getattr(solver, name).__module__ != tracing.__name__
               for name in tracing.SOLVER_LAYERS)

