"""The telemetry hub: collects spans off the Tracer's telemetry slot.

Instrumented components publish ``obs.*`` events only when ``tracer.obs``
is armed, so with telemetry disabled (the default) every emission site
costs a single flag check and zero allocations.  Armed, the hub sits in
the tracer's one telemetry slot and receives each event by direct call
(``Tracer.span_opened`` -> :meth:`Telemetry.on_open`, ...): it is not a
generic sink, so it never turns on ``tracer.enabled`` and no
:class:`~repro.sim.trace.TraceEvent` is built for it.  Arming happens
either programmatically::

    telemetry = Telemetry().install(env)
    ...
    telemetry.spans            # closed SpanContexts
    telemetry.registry         # MetricsRegistry (counters/gauges/histograms)

via ``LabStorSystem(telemetry=...)``, or for every system/experiment
built through the facades by setting ``REPRO_TELEMETRY=1`` in the process
environment.

Event taxonomy (see DESIGN.md "Observability"):

- ``obs.open``   — a request span was opened (fields: ``span``)
- ``obs.span``   — a request span closed (fields: ``span``); the span's
  phases/cats/mods are aggregated into the registry here
- ``obs.device`` — one device command entered service (fields: ``device``,
  ``hctx``, ``op``, ``size``, ``queue_ns``, ``service_ns``)

``fault.*`` events from :mod:`repro.faults` (injections, retries,
giveups, runtime crash/restart) are aggregated into the registry too, so
goodput-under-faults and recovery time fall out of the same hub.

Per-span ingestion pays no label sorting: the registry keys and histogram
handles of each span kind and each device are resolved at first use and
cached until the registry's ``generation`` moves (``reset``/``load``).
Histograms are still created at the first event that observes into them,
so the registry's contents and insertion order match a plain labelled
``observe`` per value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import TELEMETRY_ENV_VAR
from ..config import current as _config
from ..sim.trace import TraceEvent
from .metrics import MetricsRegistry
from .spans import PHASES, SpanContext

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Environment

__all__ = ["Telemetry", "TELEMETRY_ENV_VAR", "telemetry_requested", "maybe_attach"]


def telemetry_requested() -> bool:
    return _config().telemetry


def maybe_attach(env: "Environment") -> "Telemetry | None":
    """Attach a telemetry hub to ``env`` iff ``REPRO_TELEMETRY`` is set."""
    if not telemetry_requested():
        return None
    return Telemetry().install(env)


_OPEN_SPANS = MetricsRegistry.key("open_spans")
#: per-kind phase histograms, created (after ``e2e_ns``) in PHASES order
_PHASE_HISTOGRAMS = tuple(f"phase_{p}_ns" for p in PHASES)


class _KindHandles:
    """The registry keys and histograms one span kind updates."""

    __slots__ = ("kind", "opened", "closed", "requests", "e2e", "phases")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.opened = MetricsRegistry.key("spans_opened", kind=kind)
        self.closed = MetricsRegistry.key("spans_closed", kind=kind)
        self.requests: dict[str, tuple] = {}   # op -> requests_total key
        self.e2e = None                        # histograms, at first close
        self.phases: tuple = ()


class _DeviceHandles:
    """The registry keys and histograms one device updates."""

    __slots__ = ("ops", "bytes", "hists")

    def __init__(self, device: str) -> None:
        self.ops: dict[str, tuple] = {}        # op -> device_ops_total key
        self.bytes = MetricsRegistry.key("device_bytes_total", device=device)
        self.hists = None                      # (queue, service), at first op


class Telemetry:
    """Span collector + metrics aggregator fed through the tracer's
    telemetry slot.

    ``keep_spans`` (default on) retains closed :class:`SpanContext`
    objects in :attr:`spans` for breakdown reports; ``max_spans`` bounds
    that retention on long runs (the registry keeps aggregating either
    way, and :attr:`dropped_spans` counts what fell off).
    """

    def __init__(self, *, keep_spans: bool = True, max_spans: int = 200_000) -> None:
        self.registry = MetricsRegistry()
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.spans: list[SpanContext] = []
        self.dropped_spans = 0
        self.opened_total = 0
        self.closed_total = 0
        self.env: Optional["Environment"] = None
        self._open: dict[int, SpanContext] = {}  # id(span) -> span
        self._kinds: dict[str, _KindHandles] = {}
        self._devices: dict[str, _DeviceHandles] = {}
        self._generation = self.registry.generation

    # ------------------------------------------------------------------
    def install(self, env: "Environment") -> "Telemetry":
        if self.env is env:
            return self  # already wired into this environment
        tracer = env.tracer
        if tracer.telemetry is not None:
            raise ValueError(f"environment already has a telemetry hub: {tracer.telemetry!r}")
        self.env = env
        tracer.telemetry = self
        tracer.obs = True
        return self

    # ------------------------------------------------------------------
    # telemetry-slot entry points (called by the Tracer's typed publishers)
    # ------------------------------------------------------------------
    def _drop_stale_histograms(self) -> None:
        """reset()/load() replaced the registry's histograms: forget the
        cached handles (keys stay valid)."""
        self._generation = self.registry.generation
        for h in self._kinds.values():
            h.e2e = None
        for d in self._devices.values():
            d.hists = None

    def on_open(self, span: SpanContext) -> None:
        self._open[id(span)] = span
        self.opened_total += 1
        h = self._kinds.get(span.kind)
        if h is None:
            h = self._kinds[span.kind] = _KindHandles(span.kind)
        reg = self.registry
        reg.inc_key(h.opened)
        reg.set_gauge_key(_OPEN_SPANS, len(self._open))

    def on_span(self, span: SpanContext) -> None:
        self._open.pop(id(span), None)
        self.closed_total += 1
        reg = self.registry
        if reg.generation != self._generation:
            self._drop_stale_histograms()
        h = self._kinds.get(span.kind)
        if h is None:
            h = self._kinds[span.kind] = _KindHandles(span.kind)
        reg.inc_key(h.closed)
        k = h.requests.get(span.op)
        if k is None:
            k = h.requests[span.op] = MetricsRegistry.key(
                "requests_total", kind=h.kind, op=span.op)
        reg.inc_key(k)
        reg.set_gauge_key(_OPEN_SPANS, len(self._open))
        if h.e2e is None:
            h.e2e = reg.histogram("e2e_ns", kind=h.kind)
            h.phases = tuple(reg.histogram(n, kind=h.kind) for n in _PHASE_HISTOGRAMS)
        h.e2e.add(span.e2e_ns)
        for hist, ns in zip(h.phases, span.phase_values()):
            hist.add(ns)
        if self.keep_spans:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped_spans += 1

    def on_device(self, device: str, op: str, size: int, queue_ns: int,
                  service_ns: int) -> None:
        reg = self.registry
        if reg.generation != self._generation:
            self._drop_stale_histograms()
        d = self._devices.get(device)
        if d is None:
            d = self._devices[device] = _DeviceHandles(device)
        k = d.ops.get(op)
        if k is None:
            k = d.ops[op] = MetricsRegistry.key("device_ops_total", device=device, op=op)
        reg.inc_key(k)
        reg.inc_key(d.bytes, size)
        hists = d.hists
        if hists is None:
            hists = d.hists = (reg.histogram("device_queue_ns", device=device),
                               reg.histogram("device_service_ns", device=device))
        hists[0].add(queue_ns)
        hists[1].add(service_ns)

    def on_fault(self, category: str, fields: dict) -> None:
        reg = self.registry
        if category == "fault.inject":
            reg.inc("faults_injected_total", kind=fields["kind"])
        elif category == "fault.retry":
            reg.inc("fault_retries_total", error=fields["error"])
        elif category == "fault.giveup":
            reg.inc("fault_giveups_total", error=fields["error"])
        elif category == "fault.runtime":
            if fields["action"] == "crash":
                reg.inc("runtime_crashes_total")
            else:  # restart
                reg.observe("runtime_recovery_ns", fields["recovery_ns"])

    def __call__(self, ev: TraceEvent) -> None:
        """Feed one recorded :class:`TraceEvent` (e.g. from
        ``tracer.events``) through the slot entry points; a live hub is
        fed by the tracer directly and never needs this."""
        cat, f = ev.category, ev.fields
        if cat == "obs.span":
            self.on_span(f["span"])
        elif cat == "obs.open":
            self.on_open(f["span"])
        elif cat == "obs.device":
            self.on_device(f["device"], f["op"], f["size"], f["queue_ns"], f["service_ns"])
        elif cat.startswith("fault."):
            self.on_fault(cat, f)

    # ------------------------------------------------------------------
    # introspection / reporting
    # ------------------------------------------------------------------
    def open_spans(self) -> list[SpanContext]:
        """Spans opened but not yet closed (should be [] at quiescence)."""
        return list(self._open.values())

    def breakdown(self, spans: list[SpanContext] | None = None) -> dict:
        """Aggregate Fig 4 phase breakdown over ``spans`` (default: all)."""
        from .report import phase_breakdown

        return phase_breakdown(self.spans if spans is None else spans)

    def reset(self) -> None:
        """Drop collected spans and metrics (e.g. after workload warm-up)."""
        self.spans.clear()
        self._open.clear()
        self.dropped_spans = 0
        self.opened_total = 0
        self.closed_total = 0
        self.registry.reset()

    def __repr__(self) -> str:
        return (
            f"<Telemetry spans={len(self.spans)} open={len(self._open)} "
            f"closed_total={self.closed_total}>"
        )
