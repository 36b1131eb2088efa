"""Planted-pair instances, packed +-1 vectors, subset-product expansion, and
the symbol-to-sign mappings used before detection.

For q = 2 a symbol is one bit (0 -> +1, 1 -> -1) packed 64 per word; inner
products go through XOR + popcount.  Larger alphabets use one byte per symbol.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "Instance",
    "PmMapping",
    "gen_planted",
    "gen_planted_p",
    "pack_bits",
    "unpack_bits",
    "packed_inner",
    "SplitFamily",
    "expand_vectors",
    "default_subset_size",
    "map_to_pm1",
    "check_vn",
    "write_instance",
    "read_instance",
    "sidecar_path",
]

MAGIC = b"LBv1"


@dataclass(frozen=True)
class Instance:
    n: int
    d: int
    q: int
    X: np.ndarray           # n x d symbols ({0,1} bits for q=2)
    Y: np.ndarray
    rho: float | None       # classic correlation, or None when P given
    P: np.ndarray | None    # joint matrix for the q-ary problem
    seed: int
    _planted: tuple | None  # test/sidecar access only

    def planted(self):
        """Hidden indices; production solvers must not call this."""
        return self._planted

    def signs_x(self) -> np.ndarray:
        """+-1 view for q = 2 instances."""
        if self.q != 2:
            raise ValueError("sign view only exists for q = 2")
        return 1.0 - 2.0 * self.X

    def signs_y(self) -> np.ndarray:
        if self.q != 2:
            raise ValueError("sign view only exists for q = 2")
        return 1.0 - 2.0 * self.Y


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
    return Instance(n, d, 2, X, Y, float(rho), None, seed, hidden)


def gen_planted_p(n: int, d: int, q: int, P: np.ndarray, seed: int,
                  planted: bool = True) -> Instance:
    """q-ary instance whose planted pair is jointly sampled coordinatewise
    from the q x q matrix P."""
    P = np.asarray(P, float)
    if P.shape != (q, q) or np.any(P < 0) or abs(P.sum() - 1.0) > 1e-9:
        raise ValueError("P must be a q x q joint probability matrix")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dtype = np.uint8 if q <= 256 else np.uint16
    X = rng.integers(0, q, size=(n, d), dtype=dtype)
    Y = rng.integers(0, q, size=(n, d), dtype=dtype)
    hidden = None
    if planted:
        i_star = int(rng.integers(n))
        j_star = int(rng.integers(n))
        flat = rng.choice(q * q, size=d, p=P.ravel())
        X[i_star] = (flat // q).astype(dtype)
        Y[j_star] = (flat % q).astype(dtype)
        hidden = (i_star, j_star)
    return Instance(n, d, q, X, Y, None, P, seed, hidden)


# ---------------------------------------------------------------------------
# packed bit arithmetic
# ---------------------------------------------------------------------------

def pack_bits(bits: np.ndarray) -> np.ndarray:
    """n x d {0,1} array -> n x ceil(d/64) uint64 words (little-endian bits)."""
    n, d = bits.shape
    nw = (d + 63) // 64
    padded = np.zeros((n, nw * 64), dtype=np.uint8)
    padded[:, :d] = bits
    b = np.packbits(padded.reshape(n, nw, 8, 8)[:, :, ::-1, :], axis=-1,
                    bitorder="little")
    return b.reshape(n, nw, 8).view(np.uint64).reshape(n, nw)


def unpack_bits(words: np.ndarray, d: int) -> np.ndarray:
    n, nw = words.shape
    b = words.reshape(n, nw, 1).view(np.uint8).reshape(n, nw, 8)
    bits = np.unpackbits(b[:, :, ::-1], axis=-1, bitorder="little")
    return bits.reshape(n, nw * 64)[:, :d].copy()


def packed_inner(wx: np.ndarray, wy: np.ndarray, d: int):
    """<x, y> for +-1 vectors stored as bit words: d - 2 * popcount(x ^ y).

    Padding bits are zero in both operands so they cancel in the XOR.
    """
    x = np.atleast_2d(wx)
    y = np.atleast_2d(wy)
    pops = np.bitwise_count(x ^ y).sum(axis=1).astype(np.int64)
    out = d - 2 * pops
    return out if out.size > 1 else int(out[0])


# ---------------------------------------------------------------------------
# subset-product expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitFamily:
    """Coordinate-subset family {S1 u S2}: S1 an (r/2)-subset of the first
    half, S2 of the second half, co-lex ordered with the S2 index fastest.

    The two-block structure is what lets bucket aggregation run as one
    half-expansion matrix product.
    """
    d: int
    r: int

    def __post_init__(self):
        if self.r < 2 or self.r % 2:
            raise ValueError("subset size r must be even and >= 2")
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
        h = self.r // 2
        s1 = list(combinations(range(self.d1), h))
        s2 = list(combinations(range(self.d1, self.d), h))
        return s1, s2

    @property
    def stride(self) -> int:
        """Family traversal step, coprime to the size and larger than the
        second-half block, so consecutive window elements use different
        subsets on both halves.  A contiguous co-lex window would reuse one
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


def default_subset_size(d: int, rho: float, needed: int,
                        min_signal: float = 0.05) -> int:
    """Smallest even r whose family covers `needed` coordinates while keeping
    rho^r at or above min_signal."""
    r = 2
    while True:
        fam = SplitFamily(d, r)
        if fam.size >= needed:
            if rho == 0 or rho ** r >= min_signal or r == 2:
                return r
            raise ValueError(
                f"cannot reach {needed} expanded coordinates with rho^r >= "
                f"{min_signal} at d={d}, rho={rho}")
        r += 2
        if r > d:
            raise ValueError(f"family of d={d} too small for {needed} coordinates")


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


def expand_vectors(bits: np.ndarray, r: int, m: int, offset: int = 0,
                   family: SplitFamily | None = None) -> np.ndarray:
    """Expanded {0,1} parity array for m consecutive family elements.

    Entry S of the expanded +-1 vector is the coordinate product over S; in
    bit form that is the XOR of the member bits.  The window starts at field
    `offset` (wrapping around the family) so repeated detection rounds can use
    fresh, pairwise-independent coordinates.  r = 1 is the identity embedding
    over single coordinates.
    """
    n, d = bits.shape
    if r == 1:
        if m > d:
            raise ValueError(f"asked for {m} coordinates, have {d}")
        idx = (offset + np.arange(m)) % d
        return bits[:, idx]
    fam = family or SplitFamily(d, r)
    if m > fam.size:
        raise ValueError(f"asked for {m} coordinates, family has {fam.size}")
    s1, s2 = fam.half_subsets()
    h1 = _half_products(bits, s1)
    h2 = _half_products(bits, s2)
    m2 = len(s2)
    idx = fam.window(m, offset)
    a = idx // m2
    b = idx % m2
    return h1[:, a] ^ h2[:, b]


# ---------------------------------------------------------------------------
# symbol-to-sign mapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmMapping:
    g: np.ndarray            # x-side symbol -> {-1, +1}
    h: np.ndarray            # y-side symbol -> {-1, +1}
    rho_out: float
    lifted: bool             # odd q lifted to 2q with a uniform bit

    def apply_x(self, symbols: np.ndarray, rng=None) -> np.ndarray:
        s = self._lift(symbols, rng)
        return self.g[s]

    def apply_y(self, symbols: np.ndarray, rng=None) -> np.ndarray:
        s = self._lift(symbols, rng)
        return self.h[s]

    def _lift(self, symbols, rng):
        if not self.lifted:
            return symbols
        if rng is None:
            raise ValueError("lifted mapping needs an rng for the extra bit")
        extra = rng.integers(0, 2, size=symbols.shape)
        return symbols * 2 + extra


def map_to_pm1(P: np.ndarray) -> PmMapping:
    """Greedy balanced sign mappings with E[g(x) h(y)] > 0 under P and zero
    correlation whenever either side is uniform.

    Odd alphabets are first lifted to 2q symbols by appending a uniform bit.
    """
    P = np.asarray(P, float)
    q = P.shape[0]
    if np.allclose(P, 1.0 / (q * q)):
        raise ValueError("uniform P admits no correlated sign mapping")
    lifted = bool(q % 2)
    if lifted:
        P = np.kron(P, np.full((2, 2), 0.25))
        q *= 2
    # pick the least uniform row; h signs its top half, g follows P h
    spread = np.abs(P - P.mean(axis=1, keepdims=True)).sum(axis=1)
    row = int(np.argmax(spread))
    h = -np.ones(q)
    h[np.argsort(P[row])[::-1][:q // 2]] = 1.0
    v = P @ h
    g = -np.ones(q)
    g[np.argsort(v)[::-1][:q // 2]] = 1.0
    rho_out = float(g @ v)
    if rho_out <= 0:
        raise ValueError("constructed mapping has nonpositive correlation")
    return PmMapping(g, h, rho_out, lifted)


def check_vn(x: np.ndarray, y: np.ndarray, P: np.ndarray, N: int) -> bool:
    """Exact per-cell count test: the pair is typical for P at length N when
    every (i,j) appears exactly round(P[i,j] * N) times."""
    P = np.asarray(P, float)
    q = P.shape[0]
    if len(x) != N or len(y) != N:
        raise ValueError("vectors must have length N")
    counts = np.zeros((q, q), dtype=int)
    np.add.at(counts, (np.asarray(x, int), np.asarray(y, int)), 1)
    return bool(np.all(counts == np.round(P * N).astype(int)))


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def sidecar_path(path: str) -> str:
    return path + ".sidecar.json"


def write_instance(path: str, inst: Instance, write_sidecar: bool = True):
    """Header: magic, n, d, q, seed, mode flag, P entries as f64; payload is
    row-major packed bits (q=2) or raw symbol bytes.  Planted indices go to a
    detachable sidecar so solve runs stay honest."""
    if inst.q > 256:
        raise ValueError(f"symbols are stored as single bytes; q={inst.q} "
                         f"exceeds 256")
    with open(path, "wb") as f:
        f.write(MAGIC)
        has_p = inst.P is not None
        f.write(struct.pack("<QQQQB", inst.n, inst.d, inst.q, inst.seed & (2**64 - 1),
                            1 if has_p else 0))
        if has_p:
            f.write(struct.pack("<" + "d" * (inst.q ** 2), *inst.P.ravel()))
        else:
            f.write(struct.pack("<d", inst.rho))
        if inst.q == 2:
            pack_bits(inst.X).tofile(f)
            pack_bits(inst.Y).tofile(f)
        else:
            inst.X.astype(np.uint8).tofile(f)
            inst.Y.astype(np.uint8).tofile(f)
    if write_sidecar and inst._planted is not None:
        with open(sidecar_path(path), "w") as f:
            json.dump({"i": inst._planted[0], "j": inst._planted[1]}, f)


def _need(f, size: int, path: str):
    """Refuse to read past the end: the next size bytes must be in the file."""
    if os.fstat(f.fileno()).st_size - f.tell() < size:
        raise ValueError(f"{path}: truncated instance file")


def read_instance(path: str, load_sidecar: bool = False) -> Instance:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError("not an instance file")
        _need(f, 33, path)
        n, d, q, seed, has_p = struct.unpack("<QQQQB", f.read(33))
        if has_p:
            _need(f, 8 * q * q, path)
            P = np.array(struct.unpack("<" + "d" * (q * q),
                                       f.read(8 * q * q))).reshape(q, q)
            rho = None
        else:
            _need(f, 8, path)
            (rho,) = struct.unpack("<d", f.read(8))
            P = None
        if q == 2:
            nw = (d + 63) // 64
            _need(f, 2 * n * nw * 8, path)
            wx = np.fromfile(f, dtype=np.uint64, count=n * nw).reshape(n, nw)
            wy = np.fromfile(f, dtype=np.uint64, count=n * nw).reshape(n, nw)
            X = unpack_bits(wx, d)
            Y = unpack_bits(wy, d)
        else:
            _need(f, 2 * n * d, path)
            X = np.fromfile(f, dtype=np.uint8, count=n * d).reshape(n, d)
            Y = np.fromfile(f, dtype=np.uint8, count=n * d).reshape(n, d)
    hidden = None
    if load_sidecar:
        try:
            with open(sidecar_path(path)) as f:
                j = json.load(f)
            hidden = (j["i"], j["j"])
        except FileNotFoundError:
            pass
    return Instance(int(n), int(d), int(q), X, Y,
                    None if has_p else float(rho), P, int(seed), hidden)
