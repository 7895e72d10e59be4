"""Lightweight structured tracing for simulations.

Components emit ``tracer.emit(category, **fields)``; experiments either
disable tracing entirely (zero cost beyond one branch) or register sinks
that aggregate spans.  The anatomy experiment (Fig 4a) is implemented as a
:class:`SpanAccumulator` sink over per-LabMod spans.

Telemetry is not a sink: it sits in the tracer's one telemetry slot and
receives ``obs.*`` / ``fault.*`` events by direct call through the typed
publishers (:meth:`Tracer.span_opened`, :meth:`Tracer.span_closed`,
:meth:`Tracer.device_op`, :meth:`Tracer.fault`).  Those publishers also
emit the same events as :class:`TraceEvent` s whenever a sink is attached,
so sinks see exactly the stream they would without the slot.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["TraceEvent", "Tracer", "SpanAccumulator"]


@dataclass(frozen=True)
class TraceEvent:
    time_ns: int
    category: str
    fields: dict[str, Any]


class Tracer:
    """Pub/sub trace hub. Disabled by default.

    The three gate flags (``enabled``, ``audit``, ``obs``) are properties:
    assigning them mirrors the value into a cached ``_trace`` / ``_audit``
    / ``_obs`` attribute on every attached :class:`~repro.sim.core.
    Environment`, so per-event hot paths (``Event.__init__``, ``step``,
    queue-pair accounting) test one environment attribute instead of
    chasing ``env.tracer.<flag>`` on every allocation.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self.events: list[TraceEvent] = []
        self.keep_events = False
        #: set by the sanitizer: makes the sim kernel and IPC/orchestrator
        #: layers emit ``san.*`` audit events.  Every emission site is
        #: gated on this flag, so the disabled-path cost is one branch.
        self._audit = False
        #: set by :class:`repro.obs.telemetry.Telemetry`: makes the client,
        #: queue pairs, workers, and devices thread per-request SpanContexts
        #: and emit ``obs.*`` events.  Same one-branch discipline as audit.
        self._obs = False
        #: ambient span for layers with no per-request plumbing (the kernel
        #: baseline's block layer reads the span of the syscall in progress)
        self.obs_span = None
        #: the one telemetry slot (a :class:`repro.obs.telemetry.Telemetry`
        #: or None).  It is fed by the typed publishers below, not through
        #: ``emit``, so arming telemetry alone leaves ``enabled`` off and
        #: builds no TraceEvent.
        self.telemetry = None
        self._sinks: list[Callable[[TraceEvent], None]] = []
        self._envs: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # -- gate flags (mirrored into attached environments) ---------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._sync_envs()

    @property
    def audit(self) -> bool:
        return self._audit

    @audit.setter
    def audit(self, value: bool) -> None:
        self._audit = value
        self._sync_envs()

    @property
    def obs(self) -> bool:
        return self._obs

    @obs.setter
    def obs(self, value: bool) -> None:
        self._obs = value
        self._sync_envs()

    def _attach_env(self, env: Any) -> None:
        """Called by ``Environment.__init__``: register for flag mirroring."""
        self._envs.add(env)
        env._trace = self._enabled
        env._audit = self._audit
        env._obs = self._obs

    def _sync_envs(self) -> None:
        for env in self._envs:
            env._trace = self._enabled
            env._audit = self._audit
            env._obs = self._obs

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        self._sinks.append(sink)
        self.enabled = True

    def emit(self, now_ns: int, category: str, **fields: Any) -> None:
        if not self._enabled:
            return
        ev = TraceEvent(now_ns, category, fields)
        if self.keep_events:
            self.events.append(ev)
        for sink in self._sinks:
            sink(ev)

    # -- typed publishers: the telemetry slot first, then the sinks -----
    def span_opened(self, now_ns: int, span: Any) -> None:
        """A request span was opened (``obs.open``)."""
        tel = self.telemetry
        if tel is not None:
            tel.on_open(span)
        if self._enabled:
            self.emit(now_ns, "obs.open", span=span)

    def span_closed(self, now_ns: int, span: Any) -> None:
        """A request span closed (``obs.span``)."""
        tel = self.telemetry
        if tel is not None:
            tel.on_span(span)
        if self._enabled:
            self.emit(now_ns, "obs.span", span=span)

    def device_op(self, now_ns: int, device: str, hctx: int, op: str, size: int,
                  queue_ns: int, service_ns: int) -> None:
        """One device command was serviced (``obs.device``)."""
        tel = self.telemetry
        if tel is not None:
            tel.on_device(device, op, size, queue_ns, service_ns)
        if self._enabled:
            self.emit(now_ns, "obs.device", device=device, hctx=hctx, op=op,
                      size=size, queue_ns=queue_ns, service_ns=service_ns)

    def fault(self, now_ns: int, category: str, **fields: Any) -> None:
        """A ``fault.*`` event.  Fault sites call this ungated: injections,
        retries and crashes are rare, and telemetry must count them even
        when no sink has enabled the tracer."""
        tel = self.telemetry
        if tel is not None:
            tel.on_fault(category, fields)
        if self._enabled:
            self.emit(now_ns, category, **fields)


@dataclass
class SpanAccumulator:
    """Accumulates total time per named span out of 'span' trace events.

    Components emit ``tracer.emit(now, "span", name=..., dur_ns=...)``;
    this sink sums durations per name — exactly the per-LabMod time
    breakdown the paper reports in Fig 4(a).
    """

    totals: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def __call__(self, ev: TraceEvent) -> None:
        if ev.category != "span":
            return
        name = ev.fields["name"]
        self.totals[name] = self.totals.get(name, 0) + int(ev.fields["dur_ns"])
        self.counts[name] = self.counts.get(name, 0) + 1

    def fractions(self) -> dict[str, float]:
        total = sum(self.totals.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.totals.items())}
