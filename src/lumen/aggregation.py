"""The paper's bucket aggregation reference: summing groups of expanded +-1
vectors, naively and via one half-expansion matrix product per group.

The fast route builds M1 (m1 x g) of first-half subset products and M2
(g x m2) of second-half products; their product enumerates every (S1, S2)
family element at once and equals the naive sum exactly over the integers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .instances import SplitFamily

__all__ = [
    "AggregationTask",
    "AggregateResult",
    "aggregate_naive",
    "aggregate_fast",
    "bench_aggregation",
]


def _half_products(bits: np.ndarray, subsets) -> np.ndarray:
    """Bit-parity of each subset per row: n x len(subsets) in {0,1}."""
    n = bits.shape[0]
    out = np.zeros((n, len(subsets)), dtype=np.uint8)
    for idx, S in enumerate(subsets):
        acc = bits[:, S[0]].copy()
        for c in S[1:]:
            acc ^= bits[:, c]
        out[:, idx] = acc
    return out


@dataclass(frozen=True)
class AggregationTask:
    vectors: np.ndarray      # g x d in {0,1} bit form (0 -> +1)
    r: int
    m: int

    def __post_init__(self):
        fam = self.family
        if self.m > fam.size:
            raise ValueError(f"m={self.m} exceeds family size {fam.size}")
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError("need at least one vector")

    @property
    def family(self) -> SplitFamily:
        return SplitFamily(self.vectors.shape[1], self.r)


@dataclass(frozen=True)
class AggregateResult:
    values: np.ndarray
    multiplies: int


def aggregate_naive(task: AggregationTask) -> AggregateResult:
    """X_j = sum_i prod_{l in S_j} x_i[l], one member at a time."""
    fam = task.family
    s1, s2 = fam.half_subsets()
    m2 = len(s2)
    g, _ = task.vectors.shape
    out = np.zeros(task.m, dtype=np.int64)
    mults = 0
    idx = fam.window(task.m, 0)
    a, b = idx // m2, idx % m2
    for i in range(g):
        row = task.vectors[i:i + 1]
        p1 = _half_products(row, s1)[0]
        p2 = _half_products(row, s2)[0]
        # signs multiply; bits xor
        bits = p1[a] ^ p2[b]
        out += 1 - 2 * bits.astype(np.int64)
        mults += task.m * (task.r - 1)
    return AggregateResult(out, mults)


def aggregate_fast(task: AggregationTask) -> AggregateResult:
    """One integer matrix product over the split family; exact."""
    fam = task.family
    s1, s2 = fam.half_subsets()
    m2 = len(s2)
    M1 = (1 - 2 * _half_products(task.vectors, s1).astype(np.int64)).T  # m1 x g
    M2 = (1 - 2 * _half_products(task.vectors, s2).astype(np.int64))   # g x m2
    g = task.vectors.shape[0]
    full = M1 @ M2
    mults = M1.shape[0] * m2 * g
    idx = fam.window(task.m, 0)
    return AggregateResult(full.ravel()[idx], mults)


def bench_aggregation(g_values=(1, 4, 16, 64, 256), d: int = 24, r: int = 4,
                      seed: int = 0):
    """Wall-time rows (g, d, r, naive_s, fast_s, op_ratio) over random tasks."""
    rng = np.random.default_rng(seed)
    rows = []
    for g in g_values:
        vecs = rng.integers(0, 2, size=(g, d), dtype=np.uint8)
        task = AggregationTask(vecs, r, SplitFamily(d, r).size)
        t0 = time.perf_counter()
        rn = aggregate_naive(task)
        t1 = time.perf_counter()
        rf = aggregate_fast(task)
        t2 = time.perf_counter()
        if not np.array_equal(rn.values, rf.values):
            raise AssertionError(f"fast/naive mismatch at g={g}")
        rows.append({"g": g, "d": d, "r": r, "naive_s": t1 - t0,
                     "fast_s": t2 - t1,
                     "op_ratio": rf.multiplies / max(rn.multiplies, 1)})
    return rows
