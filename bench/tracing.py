"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces the module attributes that ``lumen.solver`` calls
through (``lumen.solver.expand_vectors``, ``lumen.solver.apply_power``, ...)
with wrappers.  Each wrapped call records one span: its name, its layer, its
start and end, the span that was open when it began, and the counts taken at
that boundary.  Spans stay in memory; the caller writes them out when the run
ends.  Nothing inside ``lumen`` changes, and ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import time

import numpy as np

# Attribute of lumen.solver -> layer.  The round loops (solve_uniform,
# solve_lsh) and bucket_uniform look these names up in the module namespace
# on every call, so replacing the attribute reaches every call they make.
SOLVER_LAYERS = {
    "plan_uniform": "plan",
    "plan_lsh": "plan",
    "solve_uniform": "solve",
    "solve_lsh": "solve",
    "bucket_uniform": "bucket",
    "_lsh_memberships": "bucket",
    "_dedupe_rows": "bucket",
    "expand_vectors": "expand",
    "bucket_aggregate": "aggregate",
    "detect": "detect",
    "_apply_subset_diag": "kernel",
    "apply_power": "kernel",
    "_variance_map": "variance",
    "_collect_candidates": "collect",
    "verify_candidates": "verify",
}

# span fields
NAME, LAYER, START, END, PARENT, COUNTS = range(6)


class Tracer:
    """Records spans around the solver's layer calls.

    ``counter`` is the MultiplyCounter the traced solves receive; kernel
    spans record how many multiplies it gained while they ran.
    ``truth`` is the hidden pair of the instance being solved (None for a
    null instance); only the benchmark sets it, the solver never sees it.
    """

    def __init__(self, counter):
        self.counter = counter
        self.truth = None
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self, solver_module):
        for attr, layer in SOLVER_LAYERS.items():
            fn = getattr(solver_module, attr)
            self._saved.append((solver_module, attr, fn))
            setattr(solver_module, attr, self._wrap(fn, attr, layer))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, layer):
        count = _COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, None]
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            mults = tracer.counter.count
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            counts = count(tracer, args, result) if count else {}
            if layer == "kernel":
                counts["multiplies"] = tracer.counter.count - mults
            span[COUNTS] = counts
            return result

        return traced


def _detect_counts(tracer, args, flags):
    counts = {"flags": len(flags)}
    if tracer.truth is not None:
        state = args[0]
        bx = set(state.mem_x[tracer.truth[0]].tolist()) - {-1}
        by = set(state.mem_y[tracer.truth[1]].tolist()) - {-1}
        counts["planted_rounds"] = 1
        counts["planted_hits"] = int(any(i in bx and j in by
                                         for i, j, _ in flags))
    return counts


def _verify_counts(tracer, args, accepted):
    truth = tracer.truth
    return {"pairs": len(set(args[1])), "accepted": len(accepted),
            "useful": sum(1 for p in accepted
                          if truth is not None and tuple(p) == tuple(truth))}


_COUNTS = {
    "expand_vectors": lambda tr, args, out: {"entries": int(out.size)},
    "bucket_aggregate": lambda tr, args, out: {
        "rows": int(np.count_nonzero(np.atleast_2d(args[1]) >= 0))},
    "detect": _detect_counts,
    "_collect_candidates": lambda tr, args, out: {"pairs": len(out)},
    "verify_candidates": _verify_counts,
}


def self_times(spans) -> list:
    """Per-span self time: duration minus the time its child spans cover.

    One thread runs the solver, so children of one span never overlap and
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_totals(spans):
    """(self seconds per layer, summed counts keyed 'layer.count')."""
    self_s: dict = {}
    counts: dict = {}
    for s, own in zip(spans, self_times(spans)):
        self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + own
        for key, value in (s[COUNTS] or {}).items():
            name = f"{s[LAYER]}.{key}"
            counts[name] = counts.get(name, 0) + value
    return self_s, counts
