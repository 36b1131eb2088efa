"""Workloads, set-up, closed-loop solving, correctness gate and metrics of the
lumen benchmark.

``run.py`` is the command-line entry point and ``README.md`` explains why each
workload and metric exists.  Every solve goes through lumen's public entry
points; the benchmark generates each instance, hides its planted pair from
the solver, and alone judges the answer.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np

from tracing import Tracer, layer_totals

RHO = 0.8                # planted correlation of every workload; d = n / 2
SETUP_REPEATS = 7        # set-ups before the first solve; one more follows each
GATE_RTOL = 1e-4         # float32 kernel output against the float64 reference
# Round budget of planted solves.  The planner picks a configuration whose
# estimated chance of missing within its default 25 rounds is up to 2%
# (t2112 at n = 1024: per-round success 0.168, about 1% of solves miss), so
# a run would fail at random.  60 rounds leave every per-round parameter of
# each planned kind unchanged and bring the estimated miss chance to about
# 1e-5 (t2112) or less.  Null solves keep the default 25 rounds.
PLANTED_REPS = 60

# Metrics of the untraced run, gated by BENCHMARK.json: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "recovered_frac": "ratio",
    "clean_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Reported beside them, not gated: a solve's wall time is its round count
# (a geometric draw per instance) times the round time, so it spreads far
# wider between seeds than any bound; the two false rates are 0 when the
# solver works, and a bound relative to 0 means nothing.
REPORTED = {
    "solve_s_p50": "s",
    "false_pair_frac": "ratio",
    "false_found_frac": "ratio",
}
# Metrics of the traced run: name -> unit.
PER_LAYER = {
    "plan.self_s": "s",
    "solve.self_s": "s",
    "bucket.self_s": "s",
    "expand.self_s": "s",
    "expand.entries": "count",
    "expand.entries_per_s": "1/s",
    "aggregate.self_s": "s",
    "aggregate.rows": "count",
    "kernel.self_s": "s",
    "kernel.multiplies": "count",
    "kernel.mults_per_s": "1/s",
    "variance.self_s": "s",
    "detect.self_s": "s",
    "detect.flags": "count",
    "detect.planted_hit_ratio": "ratio",
    "collect.self_s": "s",
    "collect.pairs": "count",
    "verify.self_s": "s",
    "verify.pairs": "count",
    "verify.useful_ratio": "ratio",
    "rounds": "count",
    "traced_solve_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Kind:
    """One kind of instance a workload solves."""
    tensor: str
    lsh: bool
    n: int
    planted: bool = True

    @property
    def plan_key(self):
        return (self.tensor, self.lsh, self.n, self.planted)

    @property
    def label(self) -> str:
        return (f"{self.tensor}-{'lsh' if self.lsh else 'uniform'}-{self.n}"
                + ("" if self.planted else "-null"))


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple     # Kinds, solved in this order and repeated until time is up

    def plan_keys(self) -> list:
        return list(dict.fromkeys(k.plan_key for k in self.cycle))


_SW_LSH = Kind("sw", True, 1024)
WORKLOADS = {w.name: w for w in (
    # kernel-bound: _apply_subset_diag is most of every round
    Workload("t2112-uniform-1k", (Kind("t2112", False, 1024),)),
    # expansion-bound: detection is one BLAS product, the kernel is bypassed
    Workload("strassen-uniform-4k", (Kind("strassen", False, 4096),)),
    # hashing bucketer, generic sweep engine, and 25-round null solves on both
    # paths; nulls sit between the planted solves so any prefix mixes kinds
    Workload("mixed-1k", (_SW_LSH, Kind("strassen", False, 1024, False),
                          _SW_LSH, Kind("strassen", True, 1024, False),
                          _SW_LSH)),
)}


@dataclass
class Outcome:
    kind: Kind
    inst_seed: int
    solve_seed: int
    wall: float
    rounds: int | None           # None when the solve raised
    candidates: list
    hidden: tuple | None         # planted pair, None for a null instance
    error: str | None = None

    @property
    def recovered(self) -> bool:
        return self.hidden is not None and self.hidden in self.candidates

    @property
    def false_pair(self) -> bool:
        return any(c != self.hidden for c in self.candidates)

    @property
    def ok(self) -> bool:
        return (self.error is None and not self.false_pair
                and (self.recovered or not self.kind.planted))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _lumen_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "lumen" or name.startswith("lumen.")}


def _fresh_lumen():
    for name in _lumen_modules():
        del sys.modules[name]
    return importlib.import_module("lumen")


def build_plans(lumen, keys) -> dict:
    """(decomposition, plan) per (tensor, lsh, n, planted).  The LSH path uses
    the same stochastic pair as ``lumen solve --lsh``; planted kinds get
    PLANTED_REPS rounds."""
    eff = lumen.efficacy
    plans = {}
    for tensor, lsh, n, planted in keys:
        decomp = lumen.zoo.zoo_decomposition(tensor)
        reps = PLANTED_REPS if planted else None
        if lsh:
            a = eff.t2112_optimal_a(RHO)
            Q = np.array([[1 - a, a], [a, 1 - a]])
            plan = lumen.solver.plan_lsh(n, eff.rho_joint_matrix(RHO), decomp,
                                         eff.StochasticPair(Q, Q.copy()),
                                         d=n // 2, reps=reps)
        else:
            plan = lumen.solver.plan_uniform(n, RHO, decomp, d=n // 2,
                                             reps=reps)
        plans[(tensor, lsh, n, planted)] = (decomp, plan)
    return plans


def _timed_setup(workload: Workload):
    # garbage left by earlier solves and module generations is collected
    # first, untimed, so that no set-up pays for another's
    gc.collect()
    t0 = time.perf_counter()
    lumen = _fresh_lumen()
    plans = build_plans(lumen, workload.plan_keys())
    return time.perf_counter() - t0, lumen, plans


def setup(workload: Workload, repeats: int = SETUP_REPEATS):
    """Import lumen afresh and build every plan, ``repeats`` times.

    Returns (the last lumen module, its plans, the seconds of every
    set-up).  numpy is imported before the first set-up, so it is not part
    of the time.
    """
    times = []
    for _ in range(repeats):
        seconds, lumen, plans = _timed_setup(workload)
        times.append(seconds)
    return lumen, plans, times


def setup_aside(workload: Workload) -> float:
    """Seconds of one more set-up, done beside the lumen modules in use:
    they are put back afterwards, so later solves run on the same, warm
    modules."""
    saved = _lumen_modules()
    try:
        return _timed_setup(workload)[0]
    finally:
        for name in _lumen_modules():
            del sys.modules[name]
        sys.modules.update(saved)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def instance_seeds(seed: int, workload: Workload, k: int):
    """(instance seed, solver seed) of the k-th solve, derived from the
    workload seed alone."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(zlib.crc32(workload.name.encode()), k))
    inst, solve = ss.generate_state(2)
    return int(inst), int(solve)


def make_instance(lumen, kind: Kind, inst_seed: int):
    """(instance without its hidden pair, hidden pair or None)."""
    inst = lumen.instances.gen_planted(kind.n, kind.n // 2, RHO, seed=inst_seed,
                                       planted=kind.planted)
    return dataclasses.replace(inst, _planted=None), inst.planted()


def solve_one(lumen, plans, kind: Kind, inst_seed: int, solve_seed: int,
              tracer: Tracer | None = None) -> Outcome:
    blind, hidden = make_instance(lumen, kind, inst_seed)
    decomp, plan = plans[kind.plan_key]
    solve = lumen.solver.solve_lsh if kind.lsh else lumen.solver.solve_uniform
    counter = None
    if tracer is not None:
        tracer.truth = hidden
        counter = tracer.counter
    t0 = time.perf_counter()
    try:
        rep = solve(blind, decomp, plan=plan, seed=solve_seed, counter=counter)
    except Exception:
        # a solve that raises is a miss; the run goes on and reports it
        return Outcome(kind, inst_seed, solve_seed, time.perf_counter() - t0,
                       None, [], hidden, traceback.format_exc(limit=4))
    wall = time.perf_counter() - t0
    return Outcome(kind, inst_seed, solve_seed, wall, rep.rounds_run,
                   [tuple(map(int, c)) for c in rep.candidates], hidden)


def run_stream(lumen, plans, workload: Workload, seed: int, seconds: float,
               setup_times: list) -> list:
    """Closed loop, one solve at a time: solve the workload's instances in
    cycle order until ``seconds`` have passed and every kind ran once.

    Untimed, one round of each kind runs first, so that first-touch and
    lazy set-up costs do not land in the first timed solve.  After each
    solve one more set-up is timed aside and appended to ``setup_times``:
    set-up lasts well under a second, and samples spread over the whole
    run follow the machine's speed as the solves do."""
    for k, kind in enumerate(workload.cycle):
        decomp, plan = plans[kind.plan_key]
        warm = {kind.plan_key: (decomp, dataclasses.replace(plan, reps=1))}
        solve_one(lumen, warm, kind, *instance_seeds(seed, workload, k))
    outcomes = []
    t0 = time.perf_counter()
    k = 0
    while k < len(workload.cycle) or time.perf_counter() - t0 < seconds:
        kind = workload.cycle[k % len(workload.cycle)]
        outcomes.append(solve_one(lumen, plans, kind,
                                  *instance_seeds(seed, workload, k)))
        setup_times.append(setup_aside(workload))
        k += 1
    return outcomes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def rounds_per_s(outcomes) -> float:
    """Detection rounds per second of solve wall time, at a fixed mix of one
    round per plan: the number of plans over the sum of each plan's seconds
    per round.  For a one-plan workload this is rounds over summed wall
    time; on the mixed workload it does not move when a seed changes how
    many rounds each plan needed."""
    per_plan: dict = {}
    for o in outcomes:
        if o.rounds:
            wall, rounds = per_plan.get(o.kind.plan_key, (0.0, 0))
            per_plan[o.kind.plan_key] = (wall + o.wall, rounds + o.rounds)
    total = sum(w / r for w, r in per_plan.values())
    return len(per_plan) / total if total > 0 else 0.0


def end_to_end(outcomes, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric, gated and reported: name -> value."""
    planted = [o for o in outcomes if o.kind.planted]
    nulls = [o for o in outcomes if not o.kind.planted]
    walls = [o.wall for o in planted if o.error is None]
    return {
        "setup_s": setup_s,
        "rounds_per_s": rounds_per_s(outcomes),
        "recovered_frac": _frac(sum(o.recovered for o in planted), len(planted)),
        "clean_frac": _frac(sum(o.error is None and not o.false_pair
                                for o in outcomes), len(outcomes)),
        "peak_rss_mb": peak_rss_mb,
        "solve_s_p50": statistics.median(walls) if walls else 0.0,
        "false_pair_frac": _frac(sum(o.false_pair for o in planted),
                                 len(planted)),
        "false_found_frac": _frac(sum(o.false_pair for o in nulls), len(nulls)),
    }


def per_layer(spans, counter_total: int, replay, first) -> dict:
    """Per-layer metrics of a traced replay.  ``first`` holds the untraced
    outcomes of the same solves, for the tracing overhead."""
    self_s, counts = layer_totals(spans)
    out = {name: self_s.get(name[:-len(".self_s")], 0.0)
           for name in PER_LAYER if name.endswith(".self_s")}
    out.update({
        "expand.entries": counts.get("expand.entries", 0),
        "expand.entries_per_s": _frac(counts.get("expand.entries", 0),
                                      out["expand.self_s"]),
        "aggregate.rows": counts.get("aggregate.rows", 0),
        "kernel.multiplies": counter_total,
        "kernel.mults_per_s": _frac(counts.get("kernel.multiplies", 0),
                                    out["kernel.self_s"]),
        "detect.flags": counts.get("detect.flags", 0),
        "detect.planted_hit_ratio": _frac(counts.get("detect.planted_hits", 0),
                                          counts.get("detect.planted_rounds", 0)),
        "collect.pairs": counts.get("collect.pairs", 0),
        "verify.pairs": counts.get("verify.pairs", 0),
        "verify.useful_ratio": _frac(counts.get("verify.useful", 0),
                                     counts.get("verify.accepted", 0)),
        "rounds": sum(o.rounds or 0 for o in replay),
        "traced_solve_s": sum(o.wall for o in replay),
        "trace_overhead_frac": (sum(o.wall for o in replay)
                                / sum(o.wall for o in first) - 1.0),
    })
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def kernel_error(C, ref) -> float:
    """max |C - ref| relative to max |ref|."""
    ref = np.asarray(ref, np.float64)
    scale = max(float(np.abs(ref).max()), 1e-300)
    return float(np.abs(np.asarray(C, np.float64) - ref).max()) / scale


def check_plans(lumen, plans, workload: Workload, seed: int):
    """Describe every plan, and gate one round per distinct detection kernel.

    The round is drawn by ``bucket_uniform`` on the first instance of the
    plan's kind; ``detect(..., return_scores=True)`` must return a ``C``
    within GATE_RTOL of ``core.apply_power`` on ``plan.levels`` in float64.
    Returns (plan records, gate records).
    """
    records, gates, gated = {}, [], set()
    for k, kind in enumerate(workload.cycle):
        label = kind.label
        if label in records:
            continue
        decomp, plan = plans[kind.plan_key]
        inst_seed, solve_seed = instance_seeds(seed, workload, k)
        blind, _ = make_instance(lumen, kind, inst_seed)
        state = lumen.solver.bucket_uniform(blind, plan, solve_seed)
        counter = lumen.core.MultiplyCounter()
        _, _, C, _ = lumen.solver.detect(state, plan, counter=counter,
                                         return_scores=True)
        records[label] = {
            "exponent": plan.exponent,
            "kernel": plan.kernel, "N": plan.N, "m": plan.m, "t": plan.t,
            "r": plan.r, "copies": plan.copies, "reps": plan.reps,
            "detect_sigma": plan.detect_sigma, "p_round_est": plan.p_round_est,
            "surrogate_dropped_var": plan.surrogate_dropped_var,
            "multiplies_per_round": counter.count, "notes": list(plan.notes)}
        if plan.kernel in gated:
            continue
        gated.add(plan.kernel)
        A = state.agg_x.astype(np.float64) * state.signs_x[:, None]
        B = state.agg_y.astype(np.float64) * state.signs_y[:, None]
        ref = lumen.core.apply_power(plan.levels, A, B, dtype=np.float64)
        err = kernel_error(C, ref)
        gates.append({"plan": label, "kernel": plan.kernel,
                      "rel_err": err, "rtol": GATE_RTOL,
                      "pass": bool(err <= GATE_RTOL)})
    return records, gates


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload.  Returns (result, report, spans): result is the
    final JSON line, report every detail beside it, spans the trace (empty
    for an untraced run)."""
    lumen, plans, setup_times = setup(workload)
    spans: list = []
    if not trace:
        outcomes = run_stream(lumen, plans, workload, seed, seconds,
                              setup_times)
        values = end_to_end(outcomes, statistics.median(setup_times),
                            peak_rss_mb())
        units = {**END_TO_END, **REPORTED}
        emitted = END_TO_END
    else:
        # the same solves twice: untraced for the overhead, then traced
        first = run_stream(lumen, plans, workload, seed, seconds / 2,
                           setup_times)
        tracer = Tracer(lumen.core.MultiplyCounter())
        tracer.install(lumen.solver)
        try:
            t0 = time.perf_counter()
            plans = build_plans(lumen, workload.plan_keys())
            outcomes = [solve_one(lumen, plans, o.kind, o.inst_seed,
                                  o.solve_seed, tracer) for o in first]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        spans = tracer.spans
        values = per_layer(spans, tracer.counter.count, outcomes, first)
        values["traced_wall_s"] = traced_wall
        units = {**PER_LAYER, "traced_wall_s": "s"}
        emitted = PER_LAYER
    records, gates = check_plans(lumen, plans, workload, seed)
    correct = all(g["pass"] for g in gates)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": emitted[name]}
                    for name in emitted},
    }
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "samples": {
            "solves": len(outcomes),
            "planted_solves": sum(o.kind.planted for o in outcomes),
            "null_solves": sum(not o.kind.planted for o in outcomes),
            "rounds": sum(o.rounds or 0 for o in outcomes),
            "setup_repeats": len(setup_times)},
        "setup_times_s": setup_times,
        "plans": records,
        "gate": gates,
        "solves": [{"kind": o.kind.label, "inst_seed": o.inst_seed,
                    "solve_seed": o.solve_seed, "wall_s": o.wall,
                    "rounds": o.rounds, "recovered": o.recovered,
                    "false_pair": o.false_pair, "error": o.error}
                   for o in outcomes],
    }
    return result, report, spans
