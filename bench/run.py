"""Run one workload of the lumen benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload t2112-uniform-1k --seed 1 --seconds 20 --trace 0

Every line of standard output is one JSON object.  The one before last is
the full report: run context, plans, correctness gate, every metric with its
unit and sample counts, and each solve.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.  The
report, with the spans of a traced run, is also written to
``bench/results/``.  The exit code is 0 when the correctness gate passes, 1
when it fails, and 2 when lumen cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1   # one thread: steadier on a shared machine; recorded per run
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _context(seed: int, report: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "workload_seed": seed,
        "instance_seeds": [[s["kind"], s["inst_seed"], s["solve_seed"]]
                           for s in report["solves"]],
    }


def main(argv=None) -> int:
    # fixed before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec = importlib.util.find_spec("lumen")
    src = (ROOT / "src").resolve()
    if spec is None or src not in Path(spec.origin).resolve().parents:
        print(f"error: lumen is not importable from {src}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2

    result, report, spans = suite.run(suite.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    report["context"] = _context(args.seed, report)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**report, "spans": spans}))
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        print("error: correctness gate failed: "
              + json.dumps(report["gate"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
