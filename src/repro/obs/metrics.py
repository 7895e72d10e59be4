"""Labeled metrics registry backing the telemetry subsystem.

Three metric families, all keyed by ``(name, sorted label items)``:

- **counters** — monotonically increasing integers (requests, spans, ops);
- **gauges**   — last-write-wins values (open spans, queue depths);
- **histograms** — :class:`repro.sim.stats.Histogram` log2-bucketed
  latency distributions (per-phase, per-device, end-to-end).

The registry is deliberately dumb: the hot path never touches it — spans
are aggregated into it only when they close (see
:class:`repro.obs.telemetry.Telemetry`), so its cost scales with the
number of *completed* requests, not with per-hop instrumentation.  Callers
that update the same metrics per request resolve them once: :meth:`key`
plus :meth:`inc_key` / :meth:`set_gauge_key` skip the label sort, and a
:meth:`histogram` handle stays valid until :attr:`generation` moves.
"""

from __future__ import annotations

from typing import Any

from ..sim.stats import Histogram

__all__ = ["MetricsRegistry"]

_Key = tuple  # (name, (label, value), ...)


def _key(name: str, labels: dict[str, Any]) -> _Key:
    if not labels:
        return (name,)
    return (name,) + tuple(sorted(labels.items()))


class MetricsRegistry:
    """Counters, gauges, and latency histograms with free-form labels."""

    def __init__(self) -> None:
        self._counters: dict[_Key, int] = {}
        self._gauges: dict[_Key, float] = {}
        self._histograms: dict[_Key, Histogram] = {}
        #: counter values at the last :meth:`mark` (window base)
        self._marks: dict[_Key, int] = {}
        #: bumped by :meth:`reset` and :meth:`load`, which drop every
        #: histogram object: cached :meth:`histogram` handles are stale
        self.generation = 0

    # -- pre-keyed access -------------------------------------------------
    @staticmethod
    def key(name: str, **labels: Any) -> _Key:
        """The key of ``name`` with ``labels``, for the ``*_key`` methods."""
        return _key(name, labels)

    def inc_key(self, k: _Key, value: int = 1) -> None:
        self._counters[k] = self._counters.get(k, 0) + value

    def set_gauge_key(self, k: _Key, value: float) -> None:
        self._gauges[k] = value

    # -- counters ---------------------------------------------------------
    def inc(self, name: str, value: int = 1, **labels: Any) -> None:
        k = _key(name, labels)
        self._counters[k] = self._counters.get(k, 0) + value

    def counter(self, name: str, **labels: Any) -> int:
        return self._counters.get(_key(name, labels), 0)

    def delta(self, name: str, **labels: Any) -> int:
        """Counter increase since the last :meth:`mark` (0 before any mark)."""
        k = _key(name, labels)
        return self._counters.get(k, 0) - self._marks.get(k, 0)

    def deltas(self) -> dict[_Key, int]:
        """All nonzero counter increases since the last :meth:`mark`."""
        out: dict[_Key, int] = {}
        for k, v in self._counters.items():
            d = v - self._marks.get(k, 0)
            if d:
                out[k] = d
        return out

    def mark(self) -> None:
        """Begin a new counter window: subsequent :meth:`delta` /
        :meth:`rates` calls report increases from this instant.  One
        window per registry — the control daemon is the intended (sole)
        consumer; see :class:`repro.ctl.MetricsView`."""
        self._marks = dict(self._counters)

    def rates(self, elapsed_ns: int) -> list[dict[str, Any]]:
        """Per-second rates of every counter that moved in the window."""
        if elapsed_ns <= 0:
            raise ValueError(f"elapsed_ns must be positive, got {elapsed_ns}")
        out = []
        for k in sorted(self.deltas(), key=self._sort_key):
            d = self._counters[k] - self._marks.get(k, 0)
            out.append({**self._unkey(k), "delta": d,
                        "per_sec": d * 1e9 / elapsed_ns})
        return out

    # -- gauges -----------------------------------------------------------
    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[_key(name, labels)] = value

    def gauge(self, name: str, **labels: Any) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def has_gauge(self, name: str, **labels: Any) -> bool:
        """Whether the gauge was ever set — health checks need to tell
        "absent" from a genuine 0.0 reading."""
        return _key(name, labels) in self._gauges

    def gauge_values(self, name: str, **labels: Any) -> list[tuple[dict, float]]:
        """Every ``(labels, value)`` whose gauge carries ``name`` and at
        least ``labels`` (a partial filter, like window delta sums)."""
        out = []
        for k, v in self._gauges.items():
            if k[0] != name:
                continue
            have = dict(k[1:])
            if all(have.get(lk) == lv for lk, lv in labels.items()):
                out.append((have, v))
        return out

    # -- histograms -------------------------------------------------------
    def histogram(self, name: str, **labels: Any) -> Histogram:
        k = _key(name, labels)
        h = self._histograms.get(k)
        if h is None:
            h = self._histograms[k] = Histogram()
        return h

    def observe(self, name: str, value_ns: float, **labels: Any) -> None:
        self.histogram(name, **labels).add(value_ns)

    def window_histograms(self) -> dict[_Key, Histogram]:
        """Per-window snapshot of every histogram via
        :meth:`~repro.sim.stats.Histogram.fork_window` — each returned
        histogram holds only the samples since the previous call.  Like
        :meth:`mark`, this is a single rolling window per registry (the
        control daemon's sampling loop)."""
        return {k: h.fork_window() for k, h in self._histograms.items()}

    # -- export -----------------------------------------------------------
    @staticmethod
    def _unkey(k: _Key) -> dict[str, Any]:
        return {"name": k[0], "labels": dict(k[1:])}

    @staticmethod
    def _sort_key(k: _Key) -> tuple:
        # Label values are free-form: the same metric name can carry e.g.
        # device=0 next to device="nvme", which a plain sorted() cannot
        # order (TypeError).  Compare by (label, type name, repr) instead —
        # total, stable, and type-aware.
        return (k[0],) + tuple(
            (label, type(v).__name__, repr(v)) for label, v in k[1:]
        )

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-able dump of every metric."""
        out: dict[str, list[dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for k in sorted(self._counters, key=self._sort_key):
            out["counters"].append({**self._unkey(k), "value": self._counters[k]})
        for k in sorted(self._gauges, key=self._sort_key):
            out["gauges"].append({**self._unkey(k), "value": self._gauges[k]})
        for k in sorted(self._histograms, key=self._sort_key):
            h = self._histograms[k]
            entry = {**self._unkey(k), "count": h.total}
            if h.total:
                entry["p50_ns"] = h.quantile(0.50)
                entry["p99_ns"] = h.quantile(0.99)
                entry["p999_ns"] = h.quantile(0.999)
            out["histograms"].append(entry)
        return out

    # -- snapshot/restore --------------------------------------------------
    def dump(self) -> dict:
        """Lossless picklable capture (unlike :meth:`snapshot`, which
        collapses histograms to quantiles)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: h.dump() for k, h in self._histograms.items()},
        }

    def load(self, state: dict) -> None:
        """Replace contents with a :meth:`dump` capture."""
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._histograms = {
            k: Histogram.load(h) for k, h in state["histograms"].items()
        }
        self._marks = {}  # a restored registry starts a fresh window
        self.generation += 1

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._marks.clear()
        self.generation += 1

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
