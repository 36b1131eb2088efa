"""Smoke test of the benchmark itself at a tiny size (strassen, n = 256).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from tracing import self_times  # noqa: E402

TINY = suite.Workload("tiny", (suite.Kind("strassen", False, 256),
                               suite.Kind("strassen", False, 256, False)))


@pytest.fixture(scope="module")
def untraced():
    return suite.run(TINY, seed=3, seconds=1, trace=False)


@pytest.fixture(scope="module")
def traced():
    return suite.run(TINY, seed=3, seconds=1, trace=True)


def _declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_every_metric_is_emitted_with_its_unit(untraced, traced):
    for (result, report, _), section, reported in (
            (untraced, "end_to_end", suite.REPORTED),
            (traced, "per_layer", {})):
        declared = _declared(section)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        for name, unit in {**declared, **reported}.items():
            assert report["metrics"][name]["unit"] == unit
        assert result["correct"] and result["attempted"] >= 2
        json.dumps(result)


def test_span_self_times_fit_in_the_traced_wall(traced):
    result, report, spans = traced
    assert spans
    total = sum(self_times(spans))
    assert 0 < total <= report["metrics"]["traced_wall_s"]["value"]
    assert all(s >= -1e-9 for s in self_times(spans))
    layers = {s[1] for s in spans}
    assert {"solve", "bucket", "expand", "aggregate", "detect",
            "plan"} <= layers


def test_gate_rejects_a_doctored_kernel_output(monkeypatch):
    lumen, plans, _ = suite.setup(TINY, repeats=1)
    real = lumen.solver.detect

    def doctored(state, plan, counter=None, return_scores=False):
        flags, score, C, V = real(state, plan, counter, return_scores=True)
        C = C.copy()
        C[0, 1] += 0.05 * np.abs(C).max()
        return flags, score, C, V

    _, good = suite.check_plans(lumen, plans, TINY, seed=3)
    assert all(g["pass"] for g in good)
    monkeypatch.setattr(lumen.solver, "detect", doctored)
    _, bad = suite.check_plans(lumen, plans, TINY, seed=3)
    assert not any(g["pass"] for g in bad)


def test_a_doctored_wrong_pair_is_a_false_pair_not_a_recovery():
    planted, null = TINY.cycle
    wrong = suite.Outcome(planted, 1, 2, 0.1, 1, [(5, 6)], (5, 7))
    assert wrong.false_pair and not wrong.recovered and not wrong.ok
    both = suite.Outcome(planted, 1, 2, 0.1, 1, [(5, 7), (5, 6)], (5, 7))
    assert both.recovered and both.false_pair and not both.ok
    found = suite.Outcome(null, 1, 2, 0.1, 25, [(1, 2)], None)
    assert found.false_pair and not found.ok
    metrics = suite.end_to_end([wrong, both, found], 0.1, 100.0)
    assert metrics["recovered_frac"] == 0.5
    assert metrics["false_pair_frac"] == 1.0
    assert metrics["false_found_frac"] == 1.0
    assert metrics["clean_frac"] == 0.0


def test_only_planted_solves_get_the_larger_round_budget():
    lumen, plans, _ = suite.setup(TINY, repeats=1)
    planted, null = TINY.cycle
    assert plans[planted.plan_key][1].reps == suite.PLANTED_REPS
    assert plans[null.plan_key][1].reps < suite.PLANTED_REPS
