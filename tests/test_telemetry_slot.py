"""Telemetry rides the tracer's telemetry slot, not the generic sink list.

Armed telemetry must record exactly what it recorded as a sink (registry
contents, fault counters, the legacy ``span`` stream other sinks see)
while building no TraceEvent of its own.  The pinned values below were
taken from the sink-based implementation.
"""

import hashlib
import json
import math

import pytest

import repro.sim.trace as trace_mod
from repro.core.runtime import RuntimeConfig
from repro.experiments.fault_recovery import build_plan
from repro.faults import RetryPolicy
from repro.faults.report import run_report
from repro.mods.generic_fs import GenericFS
from repro.obs import Telemetry
from repro.sim.check import reset_global_counters
from repro.sim.stats import Histogram
from repro.sim.trace import SpanAccumulator, Tracer
from repro.system import LabStorSystem
from repro.units import msec

#: sha256 over repr(registry.dump()) + the sorted-JSON snapshot() of
#: :func:`_faulted_run`
PINNED_REGISTRY_DIGEST = "7ccd18e369fc42ecab9ee90b91b76eef9a7fdf1ffea0a2f5948814b90e8d0a6e"

#: SpanAccumulator totals / counts of :func:`_accumulated`
PINNED_SPAN_TOTALS = {
    "ipc": 64600, "runtime": 85000, "permissions": 24480, "fs_meta": 32860,
    "cache": 128000, "sched": 12800, "driver": 27200, "device_io": 256768,
}
PINNED_SPAN_COUNTS = {
    "ipc": 68, "runtime": 34, "permissions": 34, "fs_meta": 35,
    "cache": 48, "sched": 16, "driver": 32, "device_io": 16,
}


# ---------------------------------------------------------------------------
# Histogram.add: the fast path buckets like the log2 formula
# ---------------------------------------------------------------------------
def _formula_bucket(h: Histogram, ns) -> int:
    ns = max(h.min_ns, min(ns, h.max_ns))
    return min(int(math.log2(ns / h.min_ns)), len(h.buckets) - 1)


def _bucket_of(h: Histogram, ns) -> int:
    fresh = Histogram(min_ns=h.min_ns, max_ns=h.max_ns)
    fresh.add(ns)
    assert fresh.total == 1 and sum(fresh.buckets) == 1
    return fresh.buckets.index(1)


def _probe_values():
    vals = [0, -1, -7, -(2**20), 1, 2, 3, 0.5, 1.5, 2.5, 1e-9, 999.999, 10**13, 10**15,
            float(10**13), 2**70, float("inf")]
    for k in range(62):
        p = 2**k
        vals += [p - 1, p, p + 1, float(p), p - 0.5, p + 0.5,
                 math.nextafter(float(p), 0.0), math.nextafter(float(p), math.inf)]
    return vals


@pytest.mark.parametrize("min_ns,max_ns", [
    (1, 10**12), (1, 2**48), (1, 2**62), (1, 1024), (10, 1000), (3, 10**9),
])
def test_histogram_add_buckets_like_log2_formula(min_ns, max_ns):
    h = Histogram(min_ns=min_ns, max_ns=max_ns)
    for v in _probe_values():
        assert _bucket_of(h, v) == _formula_bucket(h, v), v


def test_histogram_dump_load_and_window_round_trip():
    h = Histogram()
    for v in (5, 900, 900, 10**7, 3.5):
        h.add(v)
    state = h.dump()
    assert state["buckets"] == h.buckets and state["total"] == 5
    assert all(type(c) is int for c in state["buckets"])
    back = Histogram.load(state)
    assert back.dump() == state and back.quantile(0.5) == h.quantile(0.5)
    first = h.fork_window()
    assert first.total == 5 and first.buckets == h.buckets
    h.add(10**7)
    second = h.fork_window()
    assert second.total == 1 and second.quantile(0.0) == h.quantile(1.0)


# ---------------------------------------------------------------------------
# armed telemetry builds no TraceEvent and leaves the tracer disabled
# ---------------------------------------------------------------------------
def _gfs_run(sys_, nops=16, mount="fs::/a"):
    gfs = GenericFS(sys_.client())

    def scenario():
        fd = yield from gfs.open(f"{mount}/f", create=True)
        for i in range(nops):
            yield from gfs.write(fd, b"w" * 4096, offset=i * 4096)
        for i in range(nops):
            yield from gfs.read(fd, 4096, offset=i * 4096)
        yield from gfs.close(fd)

    sys_.run(sys_.process(scenario()))


def test_install_alone_builds_no_trace_event(monkeypatch):
    built = []

    class CountingEvent(trace_mod.TraceEvent):
        def __init__(self, *a, **kw):
            built.append(a[1] if len(a) > 1 else kw.get("category"))
            super().__init__(*a, **kw)

    monkeypatch.setattr(trace_mod, "TraceEvent", CountingEvent)
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1),
                         telemetry=False)
    telemetry = Telemetry().install(sys_.env)
    sys_.stack("fs::/a").fs(variant="all").device("nvme").uuid_prefix("slot").mount()
    _gfs_run(sys_)
    tracer = sys_.env.tracer
    assert tracer.telemetry is telemetry and tracer.obs
    assert not tracer.enabled and not sys_.env._trace
    assert built == []
    assert telemetry.closed_total == telemetry.opened_total > 0
    assert telemetry.registry.counter("device_ops_total", device="nvme", op="write") > 0
    sys_.shutdown()


def test_second_telemetry_on_one_environment_is_rejected():
    sys_ = LabStorSystem(devices=("nvme",), telemetry=True)
    assert sys_.telemetry.install(sys_.env) is sys_.telemetry  # idempotent
    with pytest.raises(ValueError, match="already has a telemetry hub"):
        Telemetry().install(sys_.env)


# ---------------------------------------------------------------------------
# sinks next to telemetry see the stream they always saw
# ---------------------------------------------------------------------------
def _accumulated(telemetry):
    reset_global_counters()
    sys_ = LabStorSystem(seed=1, devices=("nvme",), config=RuntimeConfig(nworkers=1),
                         telemetry=telemetry)
    acc = SpanAccumulator()
    sys_.env.tracer.add_sink(acc)
    sys_.stack("fs::/a").fs(variant="all").device("nvme").uuid_prefix("acc").mount()
    _gfs_run(sys_)
    sys_.shutdown()
    return acc


def test_span_accumulator_next_to_telemetry_sees_the_same_spans():
    alone = _accumulated(False)
    beside = _accumulated(Telemetry())
    assert beside.totals == alone.totals == PINNED_SPAN_TOTALS
    assert beside.counts == alone.counts == PINNED_SPAN_COUNTS


def test_recorded_events_replay_into_an_equal_registry():
    live = Telemetry()
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1),
                         telemetry=live, fault_plan="latency:device=nvme,probability=0.5,"
                                                   "count=6,extra_ns=50us")
    tracer = sys_.env.tracer
    tracer.keep_events = True
    tracer.add_sink(lambda ev: None)
    sys_.stack("fs::/a").fs(variant="all").device("nvme").uuid_prefix("rec").mount()
    _gfs_run(sys_)
    sys_.shutdown()
    cats = {ev.category for ev in tracer.events}
    assert {"obs.open", "obs.span", "obs.device", "fault.inject"} <= cats
    replayed = Telemetry()
    for ev in tracer.events:
        replayed(ev)
    assert replayed.registry.dump() == live.registry.dump()
    assert replayed.closed_total == live.closed_total


# ---------------------------------------------------------------------------
# registry contents equal the sink-based implementation's
# ---------------------------------------------------------------------------
def _faulted_run():
    """A fixed Lab-All GenericFS run under media errors, latency spikes,
    queue rejections and a power cut with restart."""
    reset_global_counters()
    plan = build_plan(media_error_p=0.15, latency_p=0.1, qp_reject_p=0.05,
                      power_cut_at_ns=int(msec(1.0)), restart_after_ns=int(msec(0.5)))
    telemetry = Telemetry()
    sys_ = LabStorSystem(seed=5, devices=("nvme",),
                         config=RuntimeConfig(nworkers=2, max_workers=4),
                         telemetry=telemetry, fault_plan=plan)
    sys_.stack("fs::/p").fs(variant="all").device("nvme").uuid_prefix("pin").mount()
    gfs = GenericFS(sys_.client(),
                    retry=RetryPolicy(max_attempts=4, timeout_ns=int(msec(20.0))))

    def scenario():
        for i in range(48):
            try:
                yield from gfs.write_file(f"fs::/p/f{i % 12}",
                                          bytes([i]) * (4096 * (1 + i % 3)))
            except Exception:  # noqa: BLE001 - retries exhausted: keep going
                pass
        for i in range(12):
            try:
                yield from gfs.read_file(f"fs::/p/f{i}")
            except Exception:  # noqa: BLE001
                pass

    sys_.run(sys_.process(scenario()))
    sys_.shutdown()
    return telemetry


def _registry_digest(reg) -> str:
    h = hashlib.sha256()
    h.update(repr(reg.dump()).encode())
    h.update(json.dumps(reg.snapshot(), sort_keys=True).encode())
    return h.hexdigest()


def test_faulted_run_registry_matches_pinned_digest():
    telemetry = _faulted_run()
    reg = telemetry.registry
    assert reg.counter("runtime_crashes_total") == 1
    assert reg.histogram("runtime_recovery_ns").total == 1
    assert _registry_digest(reg) == PINNED_REGISTRY_DIGEST


def test_handles_follow_registry_reset_and_load():
    telemetry = Telemetry()
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1),
                         telemetry=telemetry)
    sys_.stack("fs::/a").fs(variant="all").device("nvme").uuid_prefix("gen").mount()
    _gfs_run(sys_, nops=4)
    reg = telemetry.registry
    per_run = reg.histogram("e2e_ns", kind="lab").total
    dev_per_run = reg.histogram("device_queue_ns", device="nvme").total
    assert per_run == telemetry.closed_total and dev_per_run > 0
    state = reg.dump()

    reg.reset()
    _gfs_run(sys_, nops=4)
    assert reg.histogram("e2e_ns", kind="lab").total == per_run
    assert reg.histogram("device_queue_ns", device="nvme").total == dev_per_run

    reg.load(state)
    _gfs_run(sys_, nops=4)
    assert reg.histogram("e2e_ns", kind="lab").total == 2 * per_run
    assert reg.histogram("phase_module_ns", kind="lab").total == 2 * per_run
    assert reg.histogram("device_service_ns", device="nvme").total == 2 * dev_per_run
    sys_.shutdown()


# ---------------------------------------------------------------------------
# fault.* events reach telemetry with no sink attached
# ---------------------------------------------------------------------------
def test_power_cut_report_counts_faults_with_telemetry_alone(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def no_sinks(self, sink):
        raise AssertionError(f"unexpected trace sink {sink!r}")

    monkeypatch.setattr(Tracer, "add_sink", no_sinks)
    result = run_report(nwrites=80)
    assert result["injected"] == 42
    assert result["retries"] == 27
    assert result["crashes"] == 1
    assert result["recovery_ms"] == 8.388608
