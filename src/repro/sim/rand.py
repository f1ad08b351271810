"""Deterministic randomness for reproducible experiments.

Every stochastic choice in the simulator (drop decisions, workload key
selection, jitter) draws from a :class:`Rng` seeded explicitly, so a run
is a pure function of (seed, parameters).
"""

from __future__ import annotations

import random
import zlib

__all__ = ["Rng", "ZIPF_SKEW"]

#: the key-popularity skew of every workload (YCSB's zipfian constant)
ZIPF_SKEW = 0.99


class Rng:
    """A seeded random source with the distributions experiments need."""

    def __init__(self, seed: int = 0xDEADBEEF):
        self.seed = seed
        self._r = random.Random(seed)

    def fork(self, salt: int) -> "Rng":
        """An independent stream derived from this one (stable per salt)."""
        return Rng((self.seed * 1000003 + salt) & 0xFFFFFFFFFFFF)

    def fork_named(self, label: str) -> "Rng":
        """An independent stream keyed by a string label.

        Subsystems fork by name ("faults", "workload") so adding a new
        consumer never shifts an existing stream.
        """
        return self.fork(zlib.crc32(label.encode("utf-8")))

    # -- primitives --------------------------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        return self._r.randint(lo, hi)

    def chance(self, p: float) -> bool:
        """True with probability *p*."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._r.random() < p

    def bytes(self, n: int) -> bytes:
        return self._r.getrandbits(8 * n).to_bytes(n, "little") if n else b""

    # -- distributions ------------------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival sample with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._r.expovariate(1.0 / mean)

    def zipf_index(self, n: int) -> int:
        """A Zipf-distributed index in [0, n), skew :data:`ZIPF_SKEW`
        (hot-key workloads)."""
        if n <= 0:
            raise ValueError("n must be positive")
        # Inverse-CDF over the generalized harmonic weights, computed lazily
        # and cached per n.
        cdf = _ZIPF_CACHE.get(n)
        if cdf is None:
            weights = [1.0 / ((i + 1) ** ZIPF_SKEW) for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            _ZIPF_CACHE[n] = cdf
        u = self._r.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


_ZIPF_CACHE: dict = {}
