"""repro.obs — end-to-end request telemetry for the LabStor reproduction.

A span-based observability layer riding the :class:`repro.sim.trace.Tracer`
seam: when ``tracer.obs`` is armed, every request carries a
:class:`~repro.obs.spans.SpanContext` that records virtual-time stamps at
each hop — client submit, SQ accept, worker pop, per-LabMod service,
device queue + service, CQ reap — and a :class:`Telemetry` hub in the
tracer's telemetry slot aggregates closed spans into a
:class:`~repro.obs.metrics.MetricsRegistry`.

Disabled (the default), every instrumentation site costs one flag check
and allocates nothing.

Enable per system::

    from repro.obs import Telemetry
    telemetry = Telemetry()
    system = LabStorSystem(telemetry=telemetry)   # or telemetry=True

or process-wide with ``REPRO_TELEMETRY=1``.  See
``python -m repro.obs.report --help`` for the span-derived Fig 4 anatomy
CLI, and DESIGN.md "Observability" for the span taxonomy.
"""

from .metrics import MetricsRegistry
from .spans import PHASES, SpanContext
from .telemetry import TELEMETRY_ENV_VAR, Telemetry, maybe_attach, telemetry_requested

_REPORT_EXPORTS = (
    "phase_breakdown", "format_breakdown", "breakdown_to_json", "breakdown_to_csv",
)


def __getattr__(name: str):
    # lazy re-export: keeps `python -m repro.obs.report` from importing the
    # CLI module twice (runpy would warn about the stale sys.modules entry)
    if name in _REPORT_EXPORTS:
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PHASES",
    "SpanContext",
    "MetricsRegistry",
    "Telemetry",
    "TELEMETRY_ENV_VAR",
    "telemetry_requested",
    "maybe_attach",
    "phase_breakdown",
    "format_breakdown",
    "breakdown_to_json",
    "breakdown_to_csv",
]
