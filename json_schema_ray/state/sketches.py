"""Mergeable sketches for distributed profiling.

Both sketches are associative/commutative merges, so per-block
partials can be combined in any order (tree-reduce, groupby-agg, or
driver-side fold) — the property the engine relies on to keep stats
stages shuffle-light (SURVEY.md §2.4).

- HyperLogLog: standard 2^p-register HLL with the classic bias
  corrections (Flajolet et al. 2007 as popularized in public
  implementations); register state is a numpy uint8 array.
- TDigest: a simplified merging t-digest (Dunning & Ertl) storing
  (mean, weight) centroids with k-size bounds; good enough for
  P50/P95/P99 drift tracking.
"""

from __future__ import annotations

import numpy as np


def hll_bucket_rank(hashes: np.ndarray, p: int):
    """Vectorized HLL decomposition of uint64 hashes: (bucket index
    from the top p bits, rank = leading-zero count of the remaining
    bits + 1, capped by a guard bit at 64-p+1)."""
    h = hashes.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    # low bits shifted up, with a guard bit so rank <= 64-p+1
    rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))
    # rank = leading zero count + 1, via floor(log2)
    nz = rest != 0
    fl = np.zeros(len(h), dtype=np.float64)
    fl[nz] = np.floor(np.log2(rest[nz].astype(np.float64)))
    lzc = np.where(nz, 63 - fl.astype(np.int64), 64)
    rank = (lzc + 1).astype(np.uint8)
    return idx, rank


class HyperLogLog:
    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (registers if registers is not None
                          else np.zeros(self.m, dtype=np.uint8))

    def add_hashed(self, hashes: np.ndarray) -> None:
        """Add pre-hashed uint64 values (vectorized)."""
        idx, rank = hll_bucket_rank(hashes, self.p)
        np.maximum.at(self.registers, idx, rank)

    def add(self, values) -> None:
        self.add_hashed(hash_strings(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.power(2.0, -self.registers.astype(np.float64)))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                est = m * np.log(m / zeros)
        return float(est)

    def serialize(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "HyperLogLog":
        p = blob[0]
        regs = np.frombuffer(blob[1:], dtype=np.uint8).copy()
        return cls(p, regs)


def hash_strings(values) -> np.ndarray:
    """Deterministic 64-bit hashes for a sequence of python strings
    (or an Arrow string array). Vectorized through polars' native
    hash kernel when available (fixed seeds => deterministic across
    workers and runs); blake2b loop as the fallback. For numeric
    numpy arrays use :func:`hash_ints` instead.
    """
    try:
        import polars as pl

        s = pl.Series("v", values, dtype=pl.Utf8)
        return s.hash(seed=42).fill_null(0).to_numpy().astype(np.uint64)
    except ImportError:  # pragma: no cover
        import hashlib

        out = np.empty(len(values), dtype=np.uint64)
        for i, v in enumerate(values):
            if v is None:
                out[i] = 0
            else:
                d = hashlib.blake2b(str(v).encode("utf-8"),
                                    digest_size=8).digest()
                out[i] = np.frombuffer(d, dtype=np.uint64)[0]
        return out


def hash_string_array(col) -> np.ndarray:
    """Hash an Arrow string array/chunked-array without a pylist
    round-trip (polars converts zero-copy, chunk by chunk, so a
    chunked column is never concatenated)."""
    try:
        import polars as pl

        s = pl.from_arrow(col)
        return s.hash(seed=42).fill_null(0).to_numpy().astype(np.uint64)
    except ImportError:  # pragma: no cover
        return hash_strings(col.to_pylist())


def hash_ints(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized avalanche hash for int64."""
    x = values.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class TDigest:
    """Simplified merging t-digest over (mean, weight) centroids."""

    __slots__ = ("compression", "means", "weights")

    def __init__(self, compression: int = 100,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None):
        self.compression = compression
        self.means = means if means is not None else np.empty(0)
        self.weights = weights if weights is not None else np.empty(0)

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        self.means = np.concatenate([self.means, values])
        self.weights = np.concatenate([self.weights, np.ones(len(values))])
        if len(self.means) > 10 * self.compression:
            self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        out = TDigest(self.compression,
                      np.concatenate([self.means, other.means]),
                      np.concatenate([self.weights, other.weights]))
        out._compress()
        return out

    def _compress(self) -> None:
        if len(self.means) == 0:
            return
        order = np.argsort(self.means)
        means, weights = self.means[order], self.weights[order]
        total = weights.sum()
        # scale function k1 (arcsin); bucket boundaries by quantile
        q = np.cumsum(weights) / total
        k = (self.compression / (2 * np.pi)) * np.arcsin(2 * np.minimum(q, 1.0) - 1)
        bucket = np.floor(k - k[0]).astype(np.int64)
        # merge equal buckets
        new_means, new_weights = [], []
        start = 0
        for i in range(1, len(means) + 1):
            if i == len(means) or bucket[i] != bucket[start]:
                w = weights[start:i].sum()
                new_means.append(float((means[start:i] * weights[start:i]).sum() / w))
                new_weights.append(float(w))
                start = i
        self.means = np.array(new_means)
        self.weights = np.array(new_weights)

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        self._compress()
        cw = np.cumsum(self.weights) - 0.5 * self.weights
        target = q * self.weights.sum()
        return float(np.interp(target, cw, self.means))

    def serialize(self) -> bytes:
        arr = np.concatenate([self.means, self.weights])
        header = np.array([self.compression, len(self.means)], dtype=np.float64)
        return np.concatenate([header, arr]).tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "TDigest":
        arr = np.frombuffer(blob, dtype=np.float64)
        compression, n = int(arr[0]), int(arr[1])
        means = arr[2:2 + n].copy()
        weights = arr[2 + n:2 + 2 * n].copy()
        return cls(compression, means, weights)


class CountMinSketch:
    """Mergeable Count-Min sketch over pre-hashed uint64 values.

    ``depth`` independent rows index ``width`` counters via splitmix
    re-hashing of the value hash with a per-row salt; estimates are
    the minimum over rows and NEVER undercount (one-sided error), so
    a CMS filter keeps every true heavy hitter."""

    __slots__ = ("width", "depth", "counts", "_salts")

    def __init__(self, width: int = 2048, depth: int = 4,
                 counts: np.ndarray | None = None):
        self.width = width
        self.depth = depth
        self.counts = (counts if counts is not None
                       else np.zeros((depth, width), dtype=np.int64))
        self._salts = hash_ints(np.arange(1, depth + 1, dtype=np.uint64))

    def _indices(self, hashes: np.ndarray) -> np.ndarray:
        h = hashes.astype(np.uint64)
        return np.stack([
            (hash_ints(h ^ self._salts[d]) % np.uint64(self.width))
            .astype(np.int64)
            for d in range(self.depth)])

    def add_many(self, hashes: np.ndarray,
                 weights: np.ndarray | None = None) -> None:
        idx = self._indices(hashes)
        w = (weights if weights is not None
             else np.ones(len(hashes), dtype=np.int64))
        for d in range(self.depth):
            np.add.at(self.counts[d], idx[d], w)

    def estimate_many(self, hashes: np.ndarray) -> np.ndarray:
        idx = self._indices(hashes)
        ests = np.stack([self.counts[d][idx[d]]
                         for d in range(self.depth)])
        return ests.min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        assert (self.width, self.depth) == (other.width, other.depth)
        return CountMinSketch(self.width, self.depth,
                              self.counts + other.counts)
