"""The four benchmark workloads.

Each workload builds a deployment through the public API, runs one input
(a sub-seed derived from the run's ``--seed``), checks the program's
outputs and returns a :class:`Rep`.  The host clock only brackets set-up
and the measured phase; everything else a rep reports is virtual
(simulated) and must repeat exactly for the same input.

A failed correctness check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.labstack import StackSpec
from repro.core.runtime import RuntimeConfig
from repro.devices.profiles import DeviceSpec
from repro.mods.cache_lru import LruCacheMod
from repro.mods.generic_fs import GenericFS
from repro.sim.check import reset_global_counters
from repro.sim import par
from repro.sim.stats import LatencyRecorder
from repro.system import LabStorSystem
from repro.traffic import arrivals as traffic_arrivals
from repro.traffic.presets import build_overload_engine
from repro.traffic.ycsb import YcsbWorkload
from repro.units import msec
from repro.workloads.fio import FioJob, LabStackEngine, run_fio

from e14_program import BenchE14Program

__all__ = ["CheckFailed", "Rep", "Workload", "WORKLOADS", "sub_seed", "fail_frac"]


class CheckFailed(AssertionError):
    """A correctness check on the program's outputs failed."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def sub_seed(workload: str, seed: int, k: int) -> int:
    """Seed of input ``k`` of a run: a pure function of (workload, seed, k)."""
    h = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def fail_frac(*, attempted: int, failed: int = 0, refused: int = 0,
              nacked: int = 0, timed_out: int = 0) -> float:
    """Share of attempted ops that failed, were refused, NACKed or timed out."""
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    return (failed + refused + nacked + timed_out) / attempted


def digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def pct(lat_ns, p: float) -> float:
    rec = LatencyRecorder()
    for v in lat_ns:
        rec.add(v)
    return rec.pct(p)


@dataclass
class Rep:
    """One input run once: host timings plus the virtual results."""

    setup_s: float
    measured_s: float
    ops: int                 # simulated ops completed
    attempted: int
    failed: int              # failed or timed out
    good: int                # ops completed within their SLO (all, if none)
    virt_ns: int             # virtual time of the measured phase
    lat_ns: list             # per-op virtual latency
    p99_ns: float
    virtual: dict            # everything virtual, hashed into the digest
    refused: int = 0
    nacked: int = 0
    counters: dict = field(default_factory=dict)  # per-layer counts
    traced: Any = None       # per-shard tracer totals (kvs-cluster)
    traced_wall_s: float = 0.0  # wall time the tracer covers, if not measured_s

    @property
    def digest(self) -> str:
        return digest(self.virtual)


class Workload:
    name = ""
    #: distinct inputs per run; the run cycles through them
    inputs = 1

    def rep(self, seed: int, tracer=None) -> Rep:
        """Run input ``seed``; ``tracer`` is installed by the caller."""
        raise NotImplementedError

    #: optional ``cross_check(seed, tracer=None)``: another way to run the
    #: same input, whose virtual results must equal :meth:`rep`'s
    cross_check = None

    def traced_rep(self, seed: int, tracer) -> Rep:
        """The run the traced pass times layer by layer."""
        return self.rep(seed, tracer)


# ----------------------------------------------------------------------
# blk-fio
# ----------------------------------------------------------------------
class _RecordingEngine(LabStackEngine):
    """LabStackEngine that remembers every write it submits, per job, and
    times every I/O in virtual time."""

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.writes: dict[int, list[int]] = {}
        self.lat: list[int] = []

    def submit(self, op, offset, size, data, core):
        if data is not None:
            self.writes.setdefault(core, []).append(offset)
        return self._timed(super().submit(op, offset, size, data, core))

    def _timed(self, io):
        env = self.client.env
        t = env.now
        value = yield from io
        self.lat.append(env.now - t)
        return value


def _fio_payload(job: int, bs: int) -> bytes:
    # the same payload run_fio writes for job ``job``
    return ((np.arange(bs) + job) % 251).astype(np.uint8).tobytes()


class BlkFio(Workload):
    """The paper's Fig 6/7 path: engine, queue pairs, workers and device."""

    name = "blk-fio"
    inputs = 4
    jobs = 4
    nops = 500
    region = 64 << 20
    # lognormal sigma of the NVMe service time: with a deterministic device
    # every op of every seed takes the same virtual time, and p99 is p50
    jitter = 0.2

    def rep(self, seed: int, tracer=None) -> Rep:
        reset_global_counters()
        t0 = time.perf_counter()
        sys_ = LabStorSystem(seed=seed, devices=[DeviceSpec("nvme", jitter=self.jitter)],
                             config=RuntimeConfig(nworkers=2))
        spec = StackSpec.linear(
            "blk::/bench",
            [("NoOpSchedMod", "bench.noop"), ("KernelDriverMod", "bench.drv")],
        )
        spec.nodes[0].attrs = {"nqueues": 8}
        spec.nodes[1].attrs = {"device": "nvme"}
        stack = sys_.runtime.mount_stack(spec)
        dev = sys_.devices["nvme"]
        engine = _RecordingEngine(sys_.client(), stack, dev)
        jobs = [
            FioJob(rw="randwrite" if i % 2 else "randread", bs=4096,
                   nops=self.nops, iodepth=4, core=i,
                   region_offset=i * self.region, region_size=self.region)
            for i in range(self.jobs)
        ]
        env = sys_.env
        setup_s = time.perf_counter() - t0
        v0, e0 = env.now, env._eid
        reused0 = env.pool_reused
        if tracer is not None:
            tracer.reset()
        t1 = time.perf_counter()
        res = run_fio(env, engine, jobs, seed=seed)
        measured_s = time.perf_counter() - t1

        nops = self.jobs * self.nops
        check(res.ops == nops, f"fio completed {res.ops} of {nops} ops")
        written = 0
        for core, offsets in sorted(engine.writes.items()):
            payload = _fio_payload(core, 4096)
            for off in offsets:
                check(dev.store.read(off, 4096) == payload,
                      f"job {core}: block at {off} does not read back")
            written += len(offsets)
        check(written == nops // 2, f"{written} writes recorded, want {nops // 2}")
        check(len(engine.lat) == nops, f"{len(engine.lat)} I/Os timed, want {nops}")
        virt_ns = env.now - v0
        counters = _env_counters(env, e0, reused0)
        counters.update(_device_counters([dev]))
        sys_.shutdown()
        return Rep(
            setup_s=setup_s, measured_s=measured_s, ops=res.ops,
            attempted=nops, failed=0, good=res.ops, virt_ns=virt_ns,
            lat_ns=engine.lat, p99_ns=pct(engine.lat, 99),
            virtual={"virt_ns": virt_ns, "ops": res.ops, "lat": engine.lat,
                     "mean": res.latency.mean, "bytes": res.bytes_moved,
                     "written": {str(c): o for c, o in sorted(engine.writes.items())}},
            counters=counters,
        )


# ----------------------------------------------------------------------
# fs-labfs
# ----------------------------------------------------------------------
class FsLabfs(Workload):
    """The only load on the mods (LabFS, LRU cache) and on telemetry."""

    name = "fs-labfs"
    inputs = 4
    clients = 4
    cache_pages = 64
    files = 128          # one page each: twice the cache
    txns = 100           # open + read|write + close, per client
    write_frac = 0.3
    zipf = 1.1

    def rep(self, seed: int, tracer=None) -> Rep:
        reset_global_counters()
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        sys_ = LabStorSystem(seed=seed, devices=("nvme",), telemetry=True)
        spec = (sys_.stack("fs::/bench").fs(variant="all").device("nvme")
                .cache().uuid_prefix("bench").build())
        for node in spec.nodes:
            if node.mod_name == "LruCacheMod":
                node.attrs["capacity_pages"] = self.cache_pages
        stack = sys_.runtime.mount_stack(spec)
        gfs = [GenericFS(sys_.client()) for _ in range(self.clients)]
        env = sys_.env
        content: dict[int, bytes] = {}

        def preload(fs, files):
            for f in files:
                fd = yield from fs.open(f"fs::/bench/f{f}", create=True)
                content[f] = rng.bytes(4096)
                yield from fs.write(fd, content[f], offset=0)
                yield from fs.close(fd)

        for c, fs in enumerate(gfs):
            env.run(env.process(preload(fs, range(c, self.files, self.clients))))
        # each client's schedule: its own files, Zipf-skewed, mixed r/w
        plans = []
        for c in range(self.clients):
            files = list(range(c, self.files, self.clients))
            w = 1.0 / np.arange(1, len(files) + 1) ** self.zipf
            order = rng.permutation(len(files))
            picks = rng.choice(len(files), size=self.txns, p=w / w.sum())
            writes = rng.random(self.txns) < self.write_frac
            plans.append([(files[order[p]], bool(wr), rng.bytes(4096) if wr else None)
                          for p, wr in zip(picks, writes)])
        tel = sys_.telemetry
        tel.reset()
        lru = next(m for m in stack.mods.values() if isinstance(m, LruCacheMod))
        hits0, misses0 = lru.hits, lru.misses
        setup_s = time.perf_counter() - t0

        lat: list[list[int]] = [[] for _ in gfs]
        mismatches: list[tuple[int, int]] = []

        def client_loop(fs, plan, out):
            for f, is_write, data in plan:
                t = env.now
                fd = yield from fs.open(f"fs::/bench/f{f}")
                out.append(env.now - t)
                t = env.now
                if is_write:
                    yield from fs.write(fd, data, offset=0)
                    content[f] = data
                else:
                    got = yield from fs.read(fd, 4096, offset=0)
                    if got != content[f]:
                        mismatches.append((f, len(got)))
                out.append(env.now - t)
                t = env.now
                yield from fs.close(fd)
                out.append(env.now - t)

        v0, e0, reused0 = env.now, env._eid, env.pool_reused
        if tracer is not None:
            tracer.reset()
        t1 = time.perf_counter()
        procs = [env.process(client_loop(fs, plan, out))
                 for fs, plan, out in zip(gfs, plans, lat)]
        env.run(env.all_of(procs))
        measured_s = time.perf_counter() - t1

        check(not mismatches, f"reads returned stale bytes: {mismatches[:5]}")
        b = tel.breakdown()
        phase_sum = sum(p["total_ns"] for p in b["phases"].values())
        check(phase_sum == b["e2e"]["total_ns"],
              f"telemetry phases sum to {phase_sum} ns, e2e is {b['e2e']['total_ns']} ns")
        check(not tel.open_spans(), f"{len(tel.open_spans())} spans left open")
        flat = [v for out in lat for v in out]
        nops = len(flat)
        check(nops == 3 * self.clients * self.txns, f"{nops} fs ops completed")
        # the sum above holds by construction; these can fail: one span per
        # fs op, none dropped, and no phase negative
        check(b["count"] == tel.opened_total == nops and not tel.dropped_spans,
              f"{b['count']} spans kept, {tel.opened_total} opened, "
              f"{tel.dropped_spans} dropped for {nops} fs ops")
        negative = [s.req_id for s in tel.spans if min(s.phases().values()) < 0]
        check(not negative, f"spans with a negative phase: {negative[:5]}")
        virt_ns = env.now - v0
        counters = _env_counters(env, e0, reused0)
        counters.update(_device_counters(sys_.devices.values()))
        counters["cache_hits"] = lru.hits - hits0
        counters["cache_misses"] = lru.misses - misses0
        counters["obs_spans"] = tel.closed_total
        n = b["count"] or 1
        for phase in ("submit", "queue", "module", "device", "completion"):
            counters[f"virt_{phase}_ns"] = b["phases"][phase]["total_ns"] / n
        sys_.shutdown()
        return Rep(
            setup_s=setup_s, measured_s=measured_s, ops=nops, attempted=nops,
            failed=0, good=nops, virt_ns=virt_ns, lat_ns=flat, p99_ns=pct(flat, 99),
            virtual={"virt_ns": virt_ns, "lat": lat,
                     "phases": {k: v["total_ns"] for k, v in b["phases"].items()},
                     "cache": [counters["cache_hits"], counters["cache_misses"]],
                     "content": digest([content[f].hex() for f in sorted(content)])},
            counters=counters,
        )


# ----------------------------------------------------------------------
# kvs-openloop
# ----------------------------------------------------------------------
class _ArrivalLog:
    """Due times of every arrival draw and the launch time of every op.

    Wraps the public ``next_interarrival_ns`` of each arrival schedule and
    ``YcsbWorkload.make_op`` for the life of one rep, so the rep can show
    the generator never ran behind its schedule and time each op from its
    due time."""

    def __init__(self) -> None:
        self.due: list[int] = []
        self.launched: list[int] = []
        self.lat: list[int] = []
        self._orig: list[tuple[type, str, Callable]] = []

    def install(self) -> "_ArrivalLog":
        log = self
        for cls in (traffic_arrivals.PoissonArrivals, traffic_arrivals.BurstyArrivals,
                    traffic_arrivals.DiurnalArrivals):
            orig = cls.__dict__["next_interarrival_ns"]

            def nxt(self, rng, now_ns, _orig=orig):
                gap = _orig(self, rng, now_ns)
                log.due.append(now_ns + gap)
                return gap

            self._patch(cls, "next_interarrival_ns", nxt)
        make_op = YcsbWorkload.__dict__["make_op"]

        def timed_make_op(self, rng):
            env = self.kvs.env
            log.launched.append(env.now)
            return log._timed(env, env.now, make_op(self, rng))

        self._patch(YcsbWorkload, "make_op", timed_make_op)
        return self

    def _patch(self, cls, name, fn) -> None:
        self._orig.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, fn)

    def _timed(self, env, due, gen):
        try:
            return (yield from gen)
        finally:
            self.lat.append(env.now - due)

    def uninstall(self) -> None:
        for cls, name, fn in reversed(self._orig):
            setattr(cls, name, fn)
        self._orig.clear()


class KvsOpenloop(Workload):
    """The only open loop: many in-flight ops, the traffic layer."""

    name = "kvs-openloop"
    inputs = 32
    duration_ms = 24
    policy = None  # no admission control

    def rep(self, seed: int, tracer=None) -> Rep:
        reset_global_counters()
        log = _ArrivalLog().install()
        try:
            t0 = time.perf_counter()
            system, engine = build_overload_engine(
                seed=seed, duration_ns=msec(self.duration_ms), load=1.0,
                policy=self.policy)
            env = system.env
            setup_s = time.perf_counter() - t0
            start, e0, reused0 = env.now, env._eid, env.pool_reused
            if tracer is not None:
                tracer.reset()
            t1 = time.perf_counter()
            summary = engine.run()
            measured_s = time.perf_counter() - t1
        finally:
            log.uninstall()
        tot = summary["totals"]
        check(tot["launched"] == tot["completed"],
              f"launched {tot['launched']} != completed {tot['completed']}")
        check(engine.inflight == 0, f"{engine.inflight} ops in flight after the drain")
        end = start + msec(self.duration_ms)
        due = sorted(t for t in log.due if t < end)
        # every arrival due inside the window was launched or refused, and
        # every launch happened exactly at a due time
        check(len(due) == tot["launched"] + tot["rejected"]
              and not Counter(log.launched) - Counter(due),
              "the arrival generator fell behind its schedule "
              f"({len(due)} due, {len(log.launched)} launched)")
        check(len(log.lat) == tot["completed"], "an op finished untimed")
        attempted = tot["launched"] + tot["rejected"]
        virt_ns = summary["elapsed_ns"]
        counters = _env_counters(env, e0, reused0)
        counters.update(_device_counters(system.devices.values()))
        counters["arrivals"] = attempted
        counters["peak_inflight"] = summary["peak_inflight"]
        system.shutdown()
        return Rep(
            setup_s=setup_s, measured_s=measured_s, ops=tot["completed"],
            attempted=attempted, failed=tot["errors"], refused=tot["rejected"],
            good=tot["good"], virt_ns=virt_ns, lat_ns=log.lat, p99_ns=pct(log.lat, 99),
            virtual={"summary": summary, "lat": log.lat, "due": due},
            counters=counters,
        )


# ----------------------------------------------------------------------
# kvs-cluster
# ----------------------------------------------------------------------
class KvsCluster(Workload):
    """The only load on cluster routing, the fabric and sim.par."""

    name = "kvs-cluster"
    inputs = 16
    shards = 2

    # The measured reps host every node-world in one process (shards=1).
    # At 2 shards the host rate hangs on cross-process barrier wake-ups and
    # swung 3x between runs on a 2-vCPU host, too wide for a gate; the
    # 2-shard run checks the virtual results and is what the traced pass
    # times, so sim.par's cost shows in the per-layer metrics.
    def rep(self, seed: int, tracer=None) -> Rep:
        return self.run(seed, tracer, shards=1)

    def cross_check(self, seed: int, tracer=None) -> Rep:
        return self.run(seed, tracer, shards=self.shards)

    traced_rep = cross_check

    def run(self, seed: int, tracer, shards: int) -> Rep:
        prog = BenchE14Program(seed, tracer=tracer)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        res = par.run_program(prog, shards=shards)
        t_end = time.perf_counter()
        red = res.reduced
        check(red["mismatches"] == 0, f"{red['mismatches']} gets returned a wrong value")
        check(red["missing"] == 0, f"{red['missing']} ops never completed")
        # measured: from the last world's drivers starting to the last
        # client finishing, so finish, shutdown and reduce stay out
        t_ready, t_done = red["t_ready"], red["t_done"]
        setup_s = t_ready - t0
        measured_s = t_done - t_ready
        check(setup_s > 0 and measured_s > 0 and t_done <= t_end, "shard clocks out of order")
        counters = {
            "events": red["events"],
            "pool_reused": red["pool_reused"],
            "heap_max": red["heap_max"],
            "remote_calls": red["remote_calls"],
            "nacks": red["nacks"],
            "fabric_bytes": red["fabric_bytes"],
            "rounds": res.rounds,
            "messages": res.messages,
            "busy_s": sum(s["busy_s"] for s in res.shard_stats),
            "barrier_wait_s": sum(res.wall_s - s["busy_s"] for s in res.shard_stats),
        }
        counters.update(red["devices"])
        virtual = {k: red[k] for k in ("ops", "elapsed_ms", "kops_s", "remote_calls",
                                       "fabric_MB", "fanout_failovers", "nacks",
                                       "lat", "node_ns")}
        lat = [v for n in sorted(red["lat"]) for v in red["lat"][n]]
        return Rep(
            setup_s=setup_s, measured_s=measured_s, ops=red["ops"],
            attempted=red["ops"], failed=0, nacked=red["nacks"], good=red["ops"],
            virt_ns=red["elapsed_ns"], lat_ns=lat, p99_ns=pct(lat, 99),
            virtual=virtual, counters=counters,
            # forked shards report their own tracer totals; in-process
            # worlds share the caller's tracer
            traced=red["traced"] if res.shards > 1 else [],
            traced_wall_s=t_end - t0,
        )


# ----------------------------------------------------------------------
def _env_counters(env, eid0: int, reused0: int) -> dict:
    events = env._eid - eid0
    return {"events": events, "pool_reused": env.pool_reused - reused0}


def _device_counters(devices) -> dict:
    devices = list(devices)
    return {
        "device_ios": sum(d.completed for d in devices),
        "device_bytes": sum(d.bytes_read + d.bytes_written for d in devices),
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (BlkFio(), FsLabfs(), KvsOpenloop(), KvsCluster())
}
