"""Online statistics used by experiments and the Work Orchestrator.

- :class:`OnlineStats`: Welford mean/variance plus min/max.
- :class:`LatencyRecorder`: reservoir of samples with exact percentiles
  (bounded memory via optional reservoir sampling).
- :class:`Histogram`: fixed log-spaced latency histogram (HDR-style).
- :class:`Counter`: monotonically increasing named counters.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["OnlineStats", "LatencyRecorder", "Histogram", "Counter", "percentile"]


def percentile(samples: Iterable[float], p: float) -> float:
    """Exact percentile (linear interpolation); p in [0, 100]."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of empty sample set")
    return float(np.percentile(arr, p))


class OnlineStats:
    """Welford single-pass mean/variance with min/max tracking."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Chan et al. parallel merge; returns self."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            self.min, self.max = other.min, other.max
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


class LatencyRecorder:
    """Collects latency samples (ns) and reports mean/percentiles.

    With ``reservoir`` set, keeps at most that many samples via reservoir
    sampling (deterministic given the rng), so memory stays bounded on
    million-request runs while percentiles stay unbiased.
    """

    def __init__(self, reservoir: int | None = None, rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        self.stats = OnlineStats()
        self.reservoir = reservoir
        self.name = name
        self._rng = rng or np.random.default_rng(0)
        self._samples: list[float] = []

    def add(self, latency_ns: float) -> None:
        self.stats.add(latency_ns)
        if self.reservoir is None or len(self._samples) < self.reservoir:
            self._samples.append(latency_ns)
        else:
            j = int(self._rng.integers(0, self.stats.n))
            if j < self.reservoir:
                self._samples[j] = latency_ns

    @property
    def count(self) -> int:
        return self.stats.n

    @property
    def mean(self) -> float:
        return self.stats.mean

    def pct(self, p: float) -> float:
        return self.pcts((p,))[0]

    def pcts(self, ps: Iterable[float]) -> list[float]:
        """All requested percentiles from a single sample-array build.

        Million-sample runs pay the list→ndarray conversion once here, not
        once per percentile.
        """
        if not self._samples:
            who = f" (recorder {self.name!r})" if self.name else ""
            raise ValueError(f"percentile of empty sample set{who}")
        arr = np.asarray(self._samples, dtype=np.float64)
        return [float(v) for v in np.percentile(arr, list(ps))]

    @property
    def p50(self) -> float:
        return self.pct(50)

    @property
    def p99(self) -> float:
        return self.pct(99)

    @property
    def p999(self) -> float:
        return self.pct(99.9)

    def summary(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0,
                    "min": 0.0, "max": 0.0}
        p50, p99, p999 = self.pcts((50, 99, 99.9))
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p99": p99,
            "p999": p999,
            "min": self.stats.min,
            "max": self.stats.max,
        }


#: below this bound an int's bit length is its log2 bucket: a faithfully
#: rounded float log2 of ``2**k - 1`` stays under ``k`` for every k <= 47
_EXACT_INT_LOG2 = 2**47


class Histogram:
    """Log2-bucketed histogram of nanosecond latencies (HDR-style).

    Buckets are a plain list: ``add`` is a per-span hot path, and a list
    increment costs a fraction of a numpy scalar one.
    """

    def __init__(self, min_ns: int = 1, max_ns: int = 10**12) -> None:
        self.min_ns = max(1, min_ns)
        self.max_ns = max_ns
        nbuckets = int(math.ceil(math.log2(max_ns / self.min_ns))) + 1
        self.buckets = [0] * nbuckets
        self.total = 0
        # ints below _int_limit take the fast path in add(): those <= 1
        # clamp to bucket 0 (for any min_ns >= 1); with min_ns == 1 the
        # rest up to max_ns (or 2**47) bucket by bit length
        self._int_limit = min(max_ns, _EXACT_INT_LOG2) + 1 if self.min_ns == 1 else 1

    def add(self, ns: float) -> None:
        if ns.__class__ is int and ns < self._int_limit:
            # == the log2 formula below, without the float round trip
            self.buckets[ns.bit_length() - 1 if ns > 1 else 0] += 1
        else:
            ns = max(self.min_ns, min(ns, self.max_ns))
            idx = int(math.log2(ns / self.min_ns))
            self.buckets[min(idx, len(self.buckets) - 1)] += 1
        self.total += 1

    def bucket_bounds(self, idx: int) -> tuple[int, int]:
        # samples are clamped to max_ns on add(); the reported bounds must
        # be clamped the same way or quantiles exceed the largest value the
        # histogram can actually have recorded
        lo = self.min_ns * (2**idx)
        return min(lo, self.max_ns), min(lo * 2, self.max_ns)

    def dump(self) -> dict:
        """Plain-data capture for snapshot/restore."""
        return {
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "buckets": list(self.buckets),
            "total": self.total,
        }

    @classmethod
    def load(cls, state: dict) -> "Histogram":
        h = cls(min_ns=state["min_ns"], max_ns=state["max_ns"])
        h.buckets = [int(c) for c in state["buckets"]]
        h.total = state["total"]
        return h

    def fork_window(self) -> "Histogram":
        """Snapshot-and-reset seam for windowed consumers: return a new
        Histogram holding only the samples added since the previous
        ``fork_window()`` call (all samples, on the first call), without
        disturbing this cumulative histogram.

        SLO-burn health checks quantile the *last interval*, not the whole
        run — a lifetime histogram stops reacting once it holds enough
        history to drown any new tail.  One rolling window per histogram:
        the control daemon's sampling loop is the intended (sole) caller.
        """
        win = Histogram(min_ns=self.min_ns, max_ns=self.max_ns)
        base = getattr(self, "_window_base", None)
        diff = (list(self.buckets) if base is None
                else [c - b for c, b in zip(self.buckets, base)])
        win.buckets = diff
        win.total = sum(diff)
        self._window_base = list(self.buckets)
        return win

    def quantile(self, q: float) -> float:
        """Approximate quantile (bucket upper bound)."""
        if self.total == 0:
            raise ValueError("empty histogram")
        target = q * self.total
        cum = 0
        for i, c in enumerate(self.buckets):
            cum += c
            # `c` guard: quantile(0.0) must report the lowest *occupied*
            # bucket, not bucket 0 (cum >= 0 is vacuously true there)
            if c and cum >= target:
                return float(self.bucket_bounds(i)[1])
        return float(self.bucket_bounds(len(self.buckets) - 1)[1])


class Counter:
    """A bag of named monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def asdict(self) -> dict[str, int]:
        return dict(self._values)

    def __getitem__(self, name: str) -> int:
        return self.get(name)
