"""Aggregation: naive vs fast equality, bounds, operation counts, crossover."""

import itertools

import numpy as np
import pytest

from lumen.aggregation import (AggregationTask, aggregate_fast, aggregate_naive,
                               bench_aggregation)
from lumen.instances import SplitFamily, expand_vectors
from lumen.solver import _bucket_index, _dedupe_rows, bucket_aggregate


def brute_force_oracle(vectors_bits, r, m):
    """Direct product-and-sum over the split family, scalar arithmetic."""
    g, d = vectors_bits.shape
    fam = SplitFamily(d, r)
    s1, s2 = fam.half_subsets()
    out = []
    for j in fam.window(m, 0):
        a, b = divmod(int(j), len(s2))
        total = 0
        for i in range(g):
            prod = 1
            for c in itertools.chain(s1[a], s2[b]):
                prod *= 1 - 2 * int(vectors_bits[i, c])
            total += prod
        out.append(total)
    return np.array(out, dtype=np.int64)


class TestAggregateNaive:
    def test_single_vector_is_its_expansion(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 2, size=(1, 8), dtype=np.uint8)
        task = AggregationTask(v, 2, 16)
        res = aggregate_naive(task)
        exp = 1 - 2 * expand_vectors(v, 2, 16).astype(np.int64)
        assert np.array_equal(res.values, exp[0])

    def test_negated_vector_doubles_even_products(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(1, 8), dtype=np.uint8)
        pair = np.vstack([x, 1 - x])   # negation flips every bit
        task = AggregationTask(pair, 2, 16)
        res = aggregate_naive(task)
        single = aggregate_naive(AggregationTask(x, 2, 16))
        assert np.array_equal(res.values, 2 * single.values)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        v = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        task = AggregationTask(v, 2, 16)
        res = aggregate_naive(task)
        assert np.array_equal(res.values, brute_force_oracle(v, 2, 16))


class TestAggregateFast:
    @pytest.mark.parametrize("g", [1, 2, 16, 64])
    @pytest.mark.parametrize("d", [8, 16, 24])
    @pytest.mark.parametrize("r", [2, 4])
    def test_bit_identical_to_naive(self, g, d, r):
        rng = np.random.default_rng(g * 1000 + d * 10 + r)
        v = rng.integers(0, 2, size=(g, d), dtype=np.uint8)
        fam = SplitFamily(d, r)
        m = min(fam.size, 500)
        task = AggregationTask(v, r, m)
        rn = aggregate_naive(task)
        rf = aggregate_fast(task)
        assert np.array_equal(rn.values, rf.values)
        assert np.abs(rf.values).max() <= g

    def test_operation_count_ratio_below_one(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 2, size=(256, 20), dtype=np.uint8)
        fam = SplitFamily(20, 4)
        task = AggregationTask(v, 4, fam.size)
        rn = aggregate_naive(task)
        rf = aggregate_fast(task)
        assert rf.multiplies < rn.multiplies

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            AggregationTask(np.zeros((2, 8), dtype=np.uint8), 2, 100)


class TestBench:
    def test_crossover_exists_by_g256(self):
        rows = bench_aggregation(g_values=(1, 16, 64, 256), d=24, r=4, seed=0)
        assert any(r["fast_s"] < r["naive_s"] for r in rows)
        big = rows[-1]
        assert big["g"] == 256 and big["fast_s"] < big["naive_s"]


def scatter_sum(bits, mem, m):
    """Each bucket's +-1 sum by a per-copy np.add.at scatter of its rows."""
    signs = (1.0 - 2.0 * bits).astype(np.float32)
    want = np.zeros((m, bits.shape[1]), dtype=np.float32)
    for c in range(mem.shape[1]):
        ok = mem[:, c] >= 0
        np.add.at(want, mem[ok, c], signs[ok])
    return want


class TestBucketAggregate:
    def test_scatter_matches_dense_sum(self):
        """The index sums equal a per-copy np.add.at scatter at t = 1, 2, 3,
        with repeats collapsed to -1 and buckets left empty."""
        rng = np.random.default_rng(4)
        n, d, m = 50, 32, 64
        bits = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        for t in (1, 2, 3):
            # ids in 1..39 leave bucket 0 and buckets 40..63 empty; row 0
            # repeats its first id in every copy
            ids = rng.integers(1, 40, size=(n, t))
            ids[0] = ids[0, 0]
            mem = _dedupe_rows(ids)
            assert (mem < 0).sum() >= t - 1
            out = bucket_aggregate(bits, *_bucket_index(mem, m))
            assert out.dtype == np.float32
            assert np.array_equal(out, scatter_sum(bits, mem, m))

    @pytest.mark.parametrize("fill", ["ones", "random"])
    @pytest.mark.parametrize("width", [1, 4, 13, 64])
    def test_exact_across_lane_limits(self, fill, width):
        """Buckets of 255, 256, 510, 511 and 600 rows, between empty ones,
        sum exactly at widths below one word or off a multiple of 8; with
        every bit set, every lane of every segment reaches its maximum."""
        rng = np.random.default_rng(width)
        big = {1: 255, 3: 256, 4: 510, 5: 511, 7: 600}   # 0, 2, 6, 9 empty
        ids = np.repeat(list(big), list(big.values()))
        n, m = ids.size, 10
        rng.shuffle(ids)
        # the second copy repeats the first (collapsed to -1) except on
        # three rows, which also join bucket 8
        again = ids.copy()
        again[:3] = 8
        mem = _dedupe_rows(np.stack([ids, again], axis=1))
        assert (mem[:, 1] < 0).sum() == n - 3
        if fill == "ones":
            bits = np.ones((n, width), dtype=np.uint8)
        else:
            bits = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
        rows, starts = _bucket_index(mem, m)
        assert np.diff(starts).tolist() == [0, 255, 0, 256, 510, 511, 0, 600,
                                            3, 0]
        out = bucket_aggregate(bits, rows, starts)
        assert out.dtype == np.float32
        assert np.array_equal(out, scatter_sum(bits, mem, m))

    @pytest.mark.parametrize("width", [5, 16])
    def test_size_order_is_undone(self, width):
        """Buckets whose sizes tie, and whose sizes rise and fall against
        their ids, between empty ones: the slot-major sums, taken largest
        bucket first, land back on their own bucket ids."""
        rng = np.random.default_rng(20 + width)
        sizes = [0, 1, 3, 3, 0, 5, 2, 5, 1, 0, 4, 3]
        ids = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(ids)
        mem = ids[:, None]
        bits = rng.integers(0, 2, size=(ids.size, width), dtype=np.uint8)
        rows, starts = _bucket_index(mem, len(sizes))
        assert np.diff(starts).tolist() == sizes
        out = bucket_aggregate(bits, rows, starts)
        assert np.array_equal(out, scatter_sum(bits, mem, len(sizes)))

    @pytest.mark.parametrize("n", [0, 6])
    def test_no_rows(self, n):
        """No input, or every membership collapsed away: every bucket sums
        to zero."""
        bits = np.ones((n, 12), dtype=np.uint8)
        rows, starts = _bucket_index(np.full((n, 1), -1), 7)
        assert rows.size == 0
        out = bucket_aggregate(bits, rows, starts)
        assert out.dtype == np.float32
        assert np.array_equal(out, np.zeros((7, 12), np.float32))

    def test_load_64(self):
        """A load of 64 rows a bucket at t = 2 runs about a hundred slots,
        each one gather over a shrinking prefix of the buckets."""
        rng = np.random.default_rng(64)
        n, m, width = 512, 16, 24
        bits = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
        mem = _dedupe_rows(rng.integers(0, m, size=(n, 2)))
        rows, starts = _bucket_index(mem, m)
        assert np.diff(starts).max() > 64
        out = bucket_aggregate(bits, rows, starts)
        assert np.array_equal(out, scatter_sum(bits, mem, m))

    def test_one_bucket_is_the_reference_aggregate(self):
        """A bucket of all g = 300 rows (past one lane's 255) sums to the
        paper's reference aggregate of the same vectors."""
        rng = np.random.default_rng(5)
        g, d, r, m = 300, 24, 4, 200
        bits = rng.integers(0, 2, size=(g, d), dtype=np.uint8)
        mem = np.zeros((g, 1), dtype=np.int64)
        out = bucket_aggregate(expand_vectors(bits, r, m, 0),
                               *_bucket_index(mem, 1))
        task = AggregationTask(bits, r, m)
        assert np.array_equal(out[0], aggregate_naive(task).values)
        assert np.array_equal(out[0], aggregate_fast(task).values)
