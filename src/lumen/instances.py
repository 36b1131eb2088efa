"""Planted-pair instances, packed +-1 vectors and subset-product expansion.

Instances are binary: a coordinate is one bit (0 -> +1, 1 -> -1) packed 64
per word, and inner products go through XOR + popcount.  Files of a larger
alphabet are refused.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from dataclasses import dataclass
from itertools import combinations, pairwise

import numpy as np

__all__ = [
    "Instance",
    "gen_planted",
    "gen_planted_p",
    "pack_bits",
    "unpack_bits",
    "packed_inner",
    "SplitFamily",
    "subset_parities",
    "expand_vectors",
    "default_subset_size",
    "write_instance",
    "read_instance",
    "sidecar_path",
]

MAGIC = b"LBv1"
MIN_SIGNAL = 0.05       # smallest planted correlation rho^r an expansion keeps


@dataclass(frozen=True)
class Instance:
    n: int
    d: int
    X: np.ndarray           # n x d {0,1} bits
    Y: np.ndarray
    rho: float | None       # classic correlation, or None when P given
    P: np.ndarray | None    # 2 x 2 joint law of a planted coordinate pair
    seed: int
    _planted: tuple | None  # test/sidecar access only

    def planted(self):
        """Hidden indices; production solvers must not call this."""
        return self._planted


def gen_planted(n: int, d: int, rho: float, seed: int,
                planted: bool = True) -> Instance:
    """Classic instance: uniform +-1 bits with one pair of correlation rho.

    Per coordinate the planted pair agrees with probability (1+rho)/2; passing
    planted=False generates the null instance with the same law elsewhere.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    Y = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    hidden = None
    if planted:
        i_star = int(rng.integers(n))
        j_star = int(rng.integers(n))
        flip = (rng.random(d) > (1 + rho) / 2).astype(np.uint8)
        Y[j_star] = X[i_star] ^ flip
        hidden = (i_star, j_star)
    return Instance(n, d, X, Y, float(rho), None, seed, hidden)


def gen_planted_p(n: int, d: int, P: np.ndarray, seed: int,
                  planted: bool = True) -> Instance:
    """Instance whose planted pair is jointly sampled coordinatewise from
    the 2 x 2 matrix P: P[a, b] is the chance of x bit a and y bit b."""
    P = np.asarray(P, float)
    if P.shape != (2, 2) or np.any(P < 0) or abs(P.sum() - 1.0) > 1e-9:
        raise ValueError("P must be a 2 x 2 joint probability matrix")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    Y = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    hidden = None
    if planted:
        i_star = int(rng.integers(n))
        j_star = int(rng.integers(n))
        flat = rng.choice(4, size=d, p=P.ravel())
        X[i_star] = flat // 2
        Y[j_star] = flat % 2
        hidden = (i_star, j_star)
    return Instance(n, d, X, Y, None, P, seed, hidden)


# ---------------------------------------------------------------------------
# packed bit arithmetic
# ---------------------------------------------------------------------------

def pack_bits(bits: np.ndarray) -> np.ndarray:
    """n x d {0,1} array -> n x ceil(d/64) uint64 words, zero-padded.

    Bit j lands at bit 8*(7 - (j mod 64) // 8) + j mod 8 of word j // 64:
    each word is the eight little-endian-packed bytes of its 64 bits read
    as one big-endian integer.
    """
    n, d = bits.shape
    words = np.zeros((n, (d + 63) // 64 * 8), dtype=np.uint8)
    words[:, :(d + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return words.view(">u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, d: int) -> np.ndarray:
    """Inverse of pack_bits: the first d bits of each row, as n x d uint8."""
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=1,
                         count=d, bitorder="little")


def packed_inner(wx: np.ndarray, wy: np.ndarray, d: int) -> np.ndarray:
    """Row-wise <x, y> of +-1 vectors stored as n x words bit arrays:
    d - 2 * popcount(x ^ y), as an int64 array of n values.

    Padding bits are zero in both operands so they cancel in the XOR.
    """
    return d - 2 * np.bitwise_count(wx ^ wy).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# subset-product expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitFamily:
    """Coordinate-subset family {S1 u S2}: S1 an (r/2)-subset of the first
    half, S2 of the second half, each half in lexicographic order (that of
    itertools.combinations) and the S2 index fastest.

    The two-block structure is what lets bucket aggregation run as one
    half-expansion matrix product.
    """
    d: int
    r: int

    def __post_init__(self):
        if self.r < 2 or self.r % 2:
            raise ValueError(f"subset size r must be even and >= 2, "
                             f"got r = {self.r}")
        if self.d < self.r:
            raise ValueError("dimension too small for the subset size")

    @property
    def d1(self) -> int:
        return self.d // 2

    @property
    def d2(self) -> int:
        return self.d - self.d // 2

    def half_sizes(self):
        from math import comb
        return comb(self.d1, self.r // 2), comb(self.d2, self.r // 2)

    @property
    def size(self) -> int:
        m1, m2 = self.half_sizes()
        return m1 * m2

    def half_subsets(self):
        """The two halves' (r/2)-subsets in lexicographic order, as
        k x r/2 intp arrays of coordinate indices."""
        h = self.r // 2
        return tuple(np.array(list(combinations(range(lo, hi), h)),
                              dtype=np.intp)
                     for lo, hi in ((0, self.d1), (self.d1, self.d)))

    def subsets(self, idx: np.ndarray) -> np.ndarray:
        """The family elements at indices idx, as a len(idx) x r intp array
        of coordinates: the rows of half_subsets() that idx reads, unranked
        one by one instead of listed whole."""
        m2 = self.half_sizes()[1]
        h = self.r // 2
        return np.hstack([_unrank(idx // m2, self.d1, h),
                          self.d1 + _unrank(idx % m2, self.d2, h)])

    @property
    def stride(self) -> int:
        """Family traversal step, coprime to the size and larger than the
        second-half block, so consecutive window elements use different
        subsets on both halves.  A contiguous window would reuse one
        first-half subset for a whole block, making window sums lumpy instead
        of concentrating."""
        from math import gcd
        m1, m2 = self.half_sizes()
        total = m1 * m2
        s = m2 + 1
        while gcd(s, total) != 1:
            s += 1
        return s

    def window(self, m: int, offset: int) -> np.ndarray:
        m1, m2 = self.half_sizes()
        total = m1 * m2
        return (offset + np.arange(m, dtype=np.int64) * self.stride) % total


def _unrank(ranks: np.ndarray, n: int, h: int) -> np.ndarray:
    """The h-subsets of range(n) at the given ranks of their lexicographic
    order, as a len(ranks) x h intp array.

    Element p of a subset is the largest c whose smaller choices, given the
    elements before it, number at most the rank left: the subsets with
    element p in [lo, c) number C(n - lo, h - p) - C(n - c, h - p)."""
    # tails[k][c] = C(n - c, k) for c = 0..n, non-increasing in c
    tails = [np.ones(n + 1, dtype=np.int64)]
    for _ in range(h):
        tails.append(np.append(np.cumsum(tails[-1][:0:-1])[::-1], 0))
    out = np.empty((len(ranks), h), dtype=np.intp)
    rest = np.asarray(ranks, dtype=np.int64)
    lo = np.zeros(len(ranks), dtype=np.int64)
    for p in range(h):
        tail = tails[h - p]
        need = tail[lo] - rest
        c = n - np.searchsorted(tail[::-1], need)
        rest = tail[c] - need
        out[:, p] = c
        lo = c + 1
    return out


def default_subset_size(d: int, rho: float, needed: int) -> int:
    """Smallest even r whose family covers `needed` coordinates while keeping
    rho^r at or above MIN_SIGNAL."""
    r = 2
    while True:
        fam = SplitFamily(d, r)
        if fam.size >= needed:
            if rho == 0 or rho ** r >= MIN_SIGNAL or r == 2:
                return r
            raise ValueError(
                f"cannot reach {needed} expanded coordinates with rho^r >= "
                f"{MIN_SIGNAL} at d={d}, rho={rho:g}")
        r += 2
        if r > d:
            raise ValueError(f"family of d={d} too small for {needed} coordinates")


def _pieces(v: np.ndarray):
    """(first, end, step) of each maximal piece of the index vector v that
    advances by one step, taken greedily from the front: a piece starting
    at a runs to the last element of the run of equal steps holding
    v[a + 1] - v[a]."""
    step = np.diff(v)
    # the last element of each run of equal steps
    ends = np.append(np.flatnonzero(np.diff(step)) + 1, len(v) - 1)
    steps, a = step.tolist(), 0
    for e in ends.tolist():
        if e > a:
            yield a, e + 1, steps[a]
            a = e + 1
    if a < len(v):
        yield a, len(v), 0


def _joint_pieces(u: np.ndarray, v: np.ndarray):
    """(first, end, step in u, step in v) of the pieces of _pieces(u) cut at
    the pieces of _pieces(v): on each, both index vectors advance by one
    step."""
    pu, pv = list(_pieces(u)), list(_pieces(v))
    iu = iv = 0
    for a, b in pairwise(sorted({p[0] for p in pu + pv} | {len(u)})):
        while pu[iu][1] <= a:
            iu += 1
        while pv[iv][1] <= a:
            iv += 1
        yield a, b, pu[iu][2], pv[iv][2]


def _strided(bits: np.ndarray, c: int, s: int, size: int) -> np.ndarray:
    """The columns c, c + s, ..., size of them, of bits as one view; a
    step-0 piece is the one column, which broadcasts."""
    return bits[:, c:c + 1] if s == 0 else bits[:, c::s][:, :size]


def subset_parities(bits: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """n x k {0,1} parities of the k column subsets in the k x h index array
    cols: entry (i, s) is the XOR of bits[i, cols[s]], the bit form of the
    +-1 product over subset s.

    Each member column cols[:, j] is cut, in one np.diff pass, into maximal
    pieces that advance by one step; a piece is one strided slice of bits
    (a step-0 piece one column, broadcast).  The first two members are
    XORed into place in one pass over their joint pieces, and every later
    member's pieces are XORed in.  A split family window's members mostly
    advance by 1 or stay put, so its few pieces read whole runs of columns
    instead of gathering bytes."""
    k, h = cols.shape
    if k == 0 or h == 0:
        return np.zeros((bits.shape[0], k), dtype=bits.dtype)
    out = np.empty((bits.shape[0], k), dtype=bits.dtype)
    if h == 1:
        for a, b, s in _pieces(cols[:, 0]):
            out[:, a:b] = _strided(bits, int(cols[a, 0]), s, b - a)
        return out
    u, v = cols[:, 0], cols[:, 1]
    for a, b, su, sv in _joint_pieces(u, v):
        np.bitwise_xor(_strided(bits, int(u[a]), su, b - a),
                       _strided(bits, int(v[a]), sv, b - a), out=out[:, a:b])
    for v in cols[:, 2:].T:
        for a, b, s in _pieces(v):
            out[:, a:b] ^= _strided(bits, int(v[a]), s, b - a)
    return out


def expand_vectors(bits: np.ndarray, r: int, m: int,
                   offset: int = 0) -> np.ndarray:
    """Expanded {0,1} parities of m consecutive SplitFamily(d, r) elements.

    Entry S of the expanded +-1 vector is the coordinate product over S; in
    bit form that is the XOR of the member bits, read straight from the
    window's m x r coordinate columns, which are unranked from the window's
    indices.  The window starts at field `offset` (wrapping around the
    family) so repeated detection rounds can use fresh, pairwise-independent
    coordinates.
    """
    fam = SplitFamily(bits.shape[1], r)
    if m > fam.size:
        raise ValueError(f"asked for {m} coordinates, family has {fam.size}")
    return subset_parities(bits, fam.subsets(fam.window(m, offset)))


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def sidecar_path(path: str) -> str:
    return path + ".sidecar.json"


def write_instance(path: str, inst: Instance):
    """Header: magic, n, d, the alphabet size q = 2, seed, mode flag, then
    rho or the four P entries as f64; payload is row-major packed bits.
    Planted indices go to a detachable sidecar so solve runs stay honest."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        has_p = inst.P is not None
        f.write(struct.pack("<QQQQB", inst.n, inst.d, 2, inst.seed & (2**64 - 1),
                            1 if has_p else 0))
        if has_p:
            f.write(struct.pack("<dddd", *inst.P.ravel()))
        else:
            f.write(struct.pack("<d", inst.rho))
        pack_bits(inst.X).tofile(f)
        pack_bits(inst.Y).tofile(f)
    if inst._planted is not None:
        with open(sidecar_path(path), "w") as f:
            json.dump({"i": inst._planted[0], "j": inst._planted[1]}, f)


def _need(f, size: int, path: str):
    """Refuse to read past the end: the next size bytes must be in the file."""
    if os.fstat(f.fileno()).st_size - f.tell() < size:
        raise ValueError(f"{path}: truncated instance file")


def read_instance(path: str, load_sidecar: bool = False) -> Instance:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError(f"{path}: not an instance file")
        _need(f, 33, path)
        n, d, q, seed, has_p = struct.unpack("<QQQQB", f.read(33))
        if q != 2:
            raise ValueError(f"{path}: the solvers need a q=2 instance, "
                             f"this one has q={q}")
        if has_p:
            _need(f, 32, path)
            P = np.array(struct.unpack("<dddd", f.read(32))).reshape(2, 2)
            rho = None
        else:
            _need(f, 8, path)
            (rho,) = struct.unpack("<d", f.read(8))
            P = None
        nw = (d + 63) // 64
        _need(f, 2 * n * nw * 8, path)
        wx = np.fromfile(f, dtype=np.uint64, count=n * nw).reshape(n, nw)
        wy = np.fromfile(f, dtype=np.uint64, count=n * nw).reshape(n, nw)
        X = unpack_bits(wx, d)
        Y = unpack_bits(wy, d)
    hidden = None
    if load_sidecar:
        side = sidecar_path(path)
        try:
            with open(side) as f:
                j = json.load(f)
            hidden = (operator.index(j["i"]), operator.index(j["j"]))
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{side}: bad sidecar: {e!r}") from None
    return Instance(int(n), int(d), X, Y,
                    None if has_p else float(rho), P, int(seed), hidden)
