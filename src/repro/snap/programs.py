"""The registry of runnable programs: one protocol, one name-keyed dict.

Every scenario the repository can run by name is a
:class:`~repro.sim.par.Program` registered in :data:`PROGRAMS`; the
determinism checker (``python -m repro.sim.check``, also ``--shards``),
the snapshot machinery (:mod:`repro.snap.replay`, ``python -m
repro.snap.report``), ``python -m repro.sim.par`` and the
``determinism_check`` test fixture all read this one dict.

The one-world programs live here; on the audited serial path they run
as::

    world.ctx = program.build(world)     # system/cluster + workload
    program.drivers(world)               # started as processes
    ...                                  # (snapshot seam: pause anywhere)
    ...                                  # run until every driver is done
    out = program.finish(world)          # asserts + result dict

The multi-world programs (``cluster-par``, ``control-par``, ``e14``)
live in :mod:`repro.cluster.par` and run under the sharded runner.
``seed`` perturbs the workload and system RNG streams: every seed is its
own fully deterministic timeline.  Driver process names are hashed into
the digest (``san.step``), so each driver keeps the name its scenario's
digest was first pinned with (``"go"``, ``"_job_proc"``, ...).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..cluster.par import (
    ClusterParProgram,
    ControlParProgram,
    E14ParProgram,
    assert_nic_conservation,
    failover_story,
)
from ..sim.par import Program
from ..units import msec, usec

__all__ = [
    "Program",
    "QuickstartProgram",
    "OrchestrationProgram",
    "KvsProgram",
    "FaultsProgram",
    "BatchingProgram",
    "OpenLoopProgram",
    "ClusterProgram",
    "ControlProgram",
    "UpgradeUnderLoadProgram",
    "PROGRAMS",
    "registered",
]


class QuickstartProgram(Program):
    """The README quickstart: mount Lab-All, write + read one file."""

    name = "quickstart"
    default_pause_ns = int(usec(60))
    payload = b"determinism is a feature " * 160  # ~4KB

    def build(self, world) -> SimpleNamespace:
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        system = LabStorSystem(env=world.env, seed=self.seed, devices=("nvme",))
        system.mount_fs_stack("fs::/demo", variant="all")
        return SimpleNamespace(system=system, gfs=GenericFS(system.client()))

    def drivers(self, world):
        return [("go", self._go(world.ctx))]

    def _go(self, ctx):
        gfs = ctx.gfs
        fd = yield from gfs.open("fs::/demo/hello.txt", create=True)
        yield from gfs.write(fd, self.payload, offset=0)
        ctx.data = yield from gfs.read(fd, len(self.payload), offset=0)
        yield from gfs.fsync(fd)
        yield from gfs.close(fd)

    def finish(self, world) -> dict[str, Any]:
        ctx = world.ctx
        assert ctx.data == self.payload, "quickstart round-trip mismatch"
        return {"bytes": len(self.payload), "stats": ctx.system.runtime.stats()}


class OrchestrationProgram(Program):
    """Dynamic-policy scaling: a heavy fio wave (the drivers) makes the
    orchestrator spawn workers, then a light wave (run by ``finish``,
    once the heavy one has joined) makes it decommission them again."""

    name = "orchestration"
    default_pause_ns = int(msec(1.5))

    def build(self, world) -> SimpleNamespace:
        from ..core import RuntimeConfig, StackSpec
        from ..system import LabStorSystem
        from ..workloads.fio import LabStackEngine

        system = LabStorSystem(
            env=world.env,
            seed=self.seed,
            devices=("nvme",),
            config=RuntimeConfig(nworkers=1, policy="dynamic", max_workers=6,
                                 orchestrator_interval_ns=msec(1.0)),
        )
        spec = StackSpec.linear("blk::/w", [("NoOpSchedMod", "chk.noop"),
                                            ("KernelDriverMod", "chk.drv")])
        spec.nodes[0].attrs = {"nqueues": 8}
        spec.nodes[1].attrs = {"device": "nvme"}
        stack = system.runtime.mount_stack(spec)
        engines = [LabStackEngine(system.client(), stack, system.devices["nvme"])
                   for _ in range(4)]
        return SimpleNamespace(system=system, engines=engines)

    def _wave(self, world, engines, ops):
        import numpy as np

        from ..workloads.fio import FioJob, FioResult, _job_proc

        result = FioResult()
        return [
            ("_job_proc", _job_proc(world.env, e,
                                    FioJob(rw="randwrite", bs=4096, nops=ops, core=i),
                                    np.random.default_rng(i), result, b"x" * 4096))
            for i, e in enumerate(engines)
        ]

    def drivers(self, world):
        return self._wave(world, world.ctx.engines, 150)  # heavy: scale out

    def finish(self, world) -> dict[str, Any]:
        env, system = world.env, world.ctx.system
        procs = [env.process(gen, name=name)
                 for name, gen in self._wave(world, world.ctx.engines[:1], 250)]
        system.run(env.all_of(procs))  # light: the pool scales back in
        orch = system.runtime.orchestrator
        return {"workers": orch.worker_count(), "rebalances": orch.rebalances}


class KvsProgram(Program):
    """LabKVS put/get churn through the Runtime's workers."""

    name = "kvs"
    default_pause_ns = int(usec(800))

    def build(self, world) -> SimpleNamespace:
        from ..mods.generic_kvs import GenericKVS
        from ..system import LabStorSystem

        system = LabStorSystem(env=world.env, seed=self.seed, devices=("nvme",))
        system.mount_kvs_stack("kvs::/x", variant="all")
        return SimpleNamespace(system=system,
                               kvs=GenericKVS(system.client(), "kvs::/x"))

    def drivers(self, world):
        return [("go", self._go(world.ctx))]

    def _go(self, ctx):
        kvs = ctx.kvs
        for i in range(48):
            yield from kvs.put(f"key{i % 12}", bytes([i % 251]) * (64 + 16 * (i % 7)))
        ctx.hits = 0
        for i in range(12):
            if (yield from kvs.get(f"key{i}")) is not None:
                ctx.hits += 1

    def finish(self, world) -> dict[str, Any]:
        hits = world.ctx.hits
        assert hits == 12, f"kvs round-trip lost keys ({hits}/12)"
        return {"hits": hits}


class FaultsProgram(Program):
    """The "faults" chaos storm: media errors + qp rejects + a worker
    crash + a power cut with auto-restart against a retrying GenericFS,
    audited for crash consistency.  Every injection draws from the
    seeded "faults" RNG stream."""

    name = "faults"
    default_pause_ns = int(msec(1.2))

    def __init__(self, seed: int = 0, nfiles: int = 56) -> None:
        super().__init__(seed)
        self.nfiles = nfiles

    def build(self, world) -> SimpleNamespace:
        from ..faults import CrashConsistencyChecker, FaultPlan, FaultSpec, RetryPolicy
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        plan = FaultPlan.of(
            FaultSpec(kind="media_error", device="nvme", op="write", probability=0.08, count=6),
            FaultSpec(kind="latency", device="nvme", probability=0.1, count=8,
                      extra_ns=int(usec(80))),
            FaultSpec(kind="qp_reject", probability=0.05, count=3),
            FaultSpec(kind="worker_crash", at=int(msec(0.9))),
            FaultSpec(kind="torn_write", at=int(msec(2.0)), device="nvme", op="write"),
            FaultSpec(kind="power_cut", at=int(msec(2.0)), restart_after=int(msec(1.0))),
        )
        system = LabStorSystem(env=world.env, seed=self.seed, devices=("nvme",),
                               fault_plan=plan)
        system.mount_fs_stack("fs::/chaos", variant="min")
        retry = RetryPolicy(max_attempts=6, timeout_ns=int(msec(50)))
        gfs = GenericFS(system.client(), retry=retry)
        checker = CrashConsistencyChecker()
        return SimpleNamespace(
            system=system, gfs=gfs, checker=checker, retry=retry,
        )

    def drivers(self, world):
        return [("go", self._go(world.ctx))]

    def _go(self, ctx):
        gfs, checker = ctx.gfs, ctx.checker
        ctx.acked = 0
        for i in range(self.nfiles):
            path = f"fs::/chaos/f{i}"
            data = bytes([(i + self.seed) % 251]) * 4096
            checker.begin(path, data)
            try:
                yield from gfs.write_file(path, data)
            except Exception:  # noqa: BLE001 - gave up after retries: move on
                continue
            checker.ack(path)
            ctx.acked += 1

    def finish(self, world) -> dict[str, Any]:
        ctx = world.ctx
        system, retry, acked = ctx.system, ctx.retry, ctx.acked
        report = system.run(system.process(ctx.checker.verify(ctx.gfs)))
        assert report["acked_ok"] == acked, "acknowledged write lost after recovery"
        engine = system.faults
        assert engine is not None and engine.total_injected > 0, "no faults fired"
        return {
            "acked": acked,
            "injected": dict(sorted(engine.injected.items())),
            "retries": retry.retries,
            "crashes": system.runtime.crashes,
            "consistency": report,
        }


class BatchingProgram(Program):
    """The "batching" fast path: vectored writev/readv waves through
    Client.submit_batch, worker batch-pop, BatchSchedMod merging and
    device-level coalescing, so every batch-conservation invariant
    (san.qp batch counters + san.batch settle records) is exercised."""

    name = "batching"
    default_pause_ns = int(usec(120))

    def build(self, world) -> SimpleNamespace:
        from ..core import RuntimeConfig
        from ..devices.profiles import DeviceSpec
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        system = LabStorSystem(
            env=world.env,
            seed=self.seed,
            devices=(DeviceSpec("nvme", coalesce_max=8, coalesce_window_ns=2000),),
            config=RuntimeConfig(nworkers=1, worker_batch_max=8),
        )
        (system.stack("fs::/batch")
         .fs(variant="all")
         .sched("BatchSchedMod", window_ns=10_000, batch_max=8)
         .mount())
        gfs = GenericFS(system.client())
        return SimpleNamespace(system=system, gfs=gfs)

    def _chunk(self, wave: int, i: int) -> bytes:
        return bytes([(wave * 16 + i + self.seed) % 251]) * 4096

    def drivers(self, world):
        return [("go", self._go(world.ctx))]

    def _go(self, ctx):
        gfs = ctx.gfs
        fd = yield from gfs.open("fs::/batch/vec.dat", create=True)
        ctx.total = 0
        for wave in range(4):
            bufs = [self._chunk(wave, i) for i in range(8)]
            counts = yield from gfs.writev(fd, bufs, offset=wave * 8 * 4096)
            ctx.total += sum(counts)
        yield from gfs.fsync(fd)
        ctx.chunks = yield from gfs.readv(fd, [4096] * 32, offset=0)
        yield from gfs.close(fd)

    def finish(self, world) -> dict[str, Any]:
        ctx = world.ctx
        system, total, chunks = ctx.system, ctx.total, ctx.chunks
        assert total == 32 * 4096, f"writev short ({total} bytes)"
        for wave in range(4):
            for i in range(8):
                want = self._chunk(wave, i)
                assert chunks[wave * 8 + i] == want, f"readv mismatch at chunk {wave * 8 + i}"
        sched = system.runtime.namespace.resolve("fs::/batch")[0].mods["s1.sched"]
        dev = system.devices["nvme"]
        assert sched.merged_ops > 0, "BatchSchedMod never merged"
        return {
            "bytes": total,
            "merged_groups": sched.merged_groups,
            "merged_ops": sched.merged_ops,
            "coalesced_groups": dev.coalesced_groups,
            "coalesced_ops": dev.coalesced_ops,
        }


class OpenLoopProgram(Program):
    """Open-loop tenant traffic under overload: the canonical two-tenant
    population (diurnal YCSB-C frontend + bursty YCSB-A analytics) at
    2.5x nominal load behind queue-depth admission.  Every arrival, key
    choice and op-mix draw comes from the seeded per-tenant streams."""

    name = "openloop"

    def build(self, world) -> SimpleNamespace:
        from ..traffic.engine import QueueDepthAdmission
        from ..traffic.presets import build_overload_engine

        system, engine = build_overload_engine(
            env=world.env, seed=self.seed, duration_ns=msec(1.5), load=2.5,
            policy=QueueDepthAdmission(8),
        )
        # the YCSB preload advances the clock during build
        return SimpleNamespace(system=system, engine=engine, start_ns=world.env.now)

    def pause_point(self, world) -> int:
        return world.ctx.start_ns + int(msec(0.75))

    def drivers(self, world):
        return [("traffic.drive", world.ctx.engine.drive())]

    def finish(self, world) -> dict[str, Any]:
        engine = world.ctx.engine
        summary = engine.summary()
        tot = summary["totals"]
        assert tot["completed"] > 0, "open-loop run completed no ops"
        assert tot["completed"] == tot["launched"], "drain lost in-flight ops"
        assert tot["rejected"] > 0, "overload never tripped admission control"
        assert engine.inflight == 0, "inflight accounting leaked"
        return {
            "launched": tot["launched"],
            "good": tot["good"],
            "violations": tot["violations"],
            "rejected": tot["rejected"],
            "peak_inflight": summary["peak_inflight"],
            "elapsed_ns": summary["elapsed_ns"],
        }


class ClusterProgram(Program):
    """The "cluster" scenario: a 3-node sharded+replicated KVS doing
    cross-fabric puts, a power cut killing one replica node mid-run,
    then failover reads off the survivors.  NIC queue pairs, fabric
    links, replica fan-out, crash ride-out and quorum accounting all
    land in one digest."""

    name = "cluster"
    default_pause_ns = int(msec(2.0))
    nkeys = 18

    def build(self, world) -> SimpleNamespace:
        from ..cluster import cluster as cluster_builder
        from ..core import RuntimeConfig

        cfg = RuntimeConfig(nworkers=1, restart_wait_ns=int(usec(50)))
        cl = (
            cluster_builder(env=world.env, seed=11 + self.seed)
            .node("a", config=cfg, failure_domain="rack-1")
            .node("b", config=cfg, failure_domain="rack-2")
            .node("c", config=cfg, failure_domain="rack-3")
            .build()
        )
        kvs = cl.shard_kvs("kvs::/det", replicas=2, timeout_ns=int(msec(1)))
        cl.install_faults(f"power_cut:at={int(msec(3))}", node="b")
        return SimpleNamespace(cluster=cl, kvs=kvs)

    def target(self, world):
        return world.ctx.cluster

    def drivers(self, world):
        return [("go", self._go(world.ctx, world.env))]

    def _go(self, ctx, env):
        ctx.hits = yield from failover_story(ctx.kvs, env, self.seed, self.nkeys)

    def finish(self, world) -> dict[str, Any]:
        ctx = world.ctx
        cl, kvs, hits = ctx.cluster, ctx.kvs, ctx.hits
        assert hits == self.nkeys, f"failover reads lost keys ({hits}/{self.nkeys})"
        assert not cl.nodes["b"].online, "power cut never fired"
        assert kvs.failovers > 0, "no replica branch ever failed over"
        remote = sum(r.remote_calls for r in cl.transport.routes.values())
        assert remote > 0, "no call ever crossed the fabric"
        stats = cl.stats()
        cl.shutdown()
        assert_nic_conservation(cl)
        return {
            "hits": hits,
            "remote_calls": remote,
            "failovers": kvs.failovers,
            "nacks": sum(r.nacks for r in cl.transport.routes.values()),
            "fabric": stats["fabric"],
        }


class ControlProgram(Program):
    """Closed-loop control under chaos: the canonical 2-worker KVS storm
    (two worker crashes with inline respawn off, an unattended power
    cut, a latency tax, a device stall) steered by a ControlDaemon —
    healer, retry-tuner and worker-scaler acting through
    hysteresis-gated actuator seams on the seeded "ctl" stream."""

    name = "control"

    def build(self, world) -> SimpleNamespace:
        from ..ctl.presets import build_chaos_control

        system, engine, daemon = build_chaos_control(env=world.env, seed=self.seed)
        return SimpleNamespace(system=system, engine=engine, daemon=daemon,
                               start_ns=world.env.now)

    def pause_point(self, world) -> int:
        return world.ctx.start_ns + int(msec(2.5))

    def drivers(self, world):
        return [("traffic.drive", world.ctx.engine.drive())]

    def finish(self, world) -> dict[str, Any]:
        ctx = world.ctx
        system, daemon = ctx.system, ctx.daemon
        tot = ctx.engine.summary()["totals"]
        assert daemon is not None and daemon.ticks > 0, "daemon never ticked"
        assert daemon.actions_taken > 0, "chaos storm provoked no repairs"
        assert system.runtime.online, "daemon failed to restart the runtime"
        assert not system.runtime.orchestrator.dead_workers, \
            "daemon left crashed workers dead"
        assert tot["completed"] > 0, "controlled run completed no ops"
        return {
            "launched": tot["launched"],
            "good": tot["good"],
            "rejected": tot["rejected"],
            "ticks": daemon.ticks,
            "actions": daemon.actions_taken,
            "suppressed": daemon.actuators.suppressed,
        }


class UpgradeUnderLoadProgram(Program):
    """E2 under load: live-upgrade the KVS LabMod while the open-loop
    overload tenants keep firing, proving module state transfer loses no
    in-flight work.  A snapshot pauses mid-upgrade (``pause_point``
    lands between the upgrade trigger and the admin thread completing
    the swap) — the paper's Table I claim with teeth."""

    name = "upgrade_under_load"

    def __init__(
        self,
        seed: int = 0,
        *,
        duration_ns: int = int(msec(1.5)),
        load: float = 1.0,
        nupgrades: int = 1,
        upgrade_type: str = "centralized",
        upgrade_at_ns: int = int(msec(0.6)),
    ) -> None:
        super().__init__(seed)
        self.duration_ns = int(duration_ns)
        self.load = load
        self.nupgrades = nupgrades
        self.upgrade_type = upgrade_type
        # offset past build end (the preload phase advances the clock, so
        # absolute timestamps would land inside the build)
        self.upgrade_at_ns = int(upgrade_at_ns)

    def build(self, world) -> SimpleNamespace:
        from ..traffic.presets import build_overload_engine

        system, engine = build_overload_engine(
            env=world.env, seed=self.seed, duration_ns=self.duration_ns, load=self.load,
        )
        return SimpleNamespace(system=system, engine=engine, start_ns=world.env.now)

    def pause_point(self, world) -> int:
        # the admin thread polls every admin_poll_ns (1ms default): pause
        # while the upgrade request is queued/in flight, not after
        return world.ctx.start_ns + self.upgrade_at_ns + int(usec(50))

    def drivers(self, world):
        return [("go", self._go(world.ctx, world.env))]

    def _go(self, ctx, env):
        from ..core.module_manager import UpgradeRequest
        from ..mods.labkvs import LabKvs, LabKvsV2

        system = ctx.system
        drive_proc = env.process(ctx.engine.drive(), name="traffic.drive")
        trigger = ctx.start_ns + self.upgrade_at_ns
        if trigger > env.now:
            yield env.timeout(trigger - env.now)
        ctx.pre_upgrade = [
            (m.uuid, m.version, m.processed)
            for m in system.runtime.registry.instances_of(LabKvs)
        ]
        for _ in range(self.nupgrades):
            system.runtime.modify_mods(UpgradeRequest(
                mod_name="LabKvs", new_cls=LabKvsV2,
                upgrade_type=self.upgrade_type,
            ))
        ctx.summary = yield drive_proc

    def finish(self, world) -> dict[str, Any]:
        from ..mods.labkvs import LabKvsV2

        ctx = world.ctx
        system, summary = ctx.system, ctx.summary
        tot = summary["totals"]
        assert tot["completed"] == tot["launched"], "upgrade lost in-flight ops"
        assert tot["completed"] > 0, "no traffic ran"
        upgraded = system.runtime.registry.instances_of(LabKvsV2)
        assert upgraded, "LabKvs was never hot-swapped"
        pre = {uuid: (version, processed) for uuid, version, processed in ctx.pre_upgrade}
        for mod in upgraded:
            version, processed = pre[mod.uuid]
            assert mod.version == version + self.nupgrades, "version chain broken"
            assert mod.processed >= processed, "processed counter lost in transfer"
            assert mod.table, "KVS table lost in state transfer"
        return {
            "launched": tot["launched"],
            "completed": tot["completed"],
            "good": tot["good"],
            "violations": tot["violations"],
            "upgrades_done": system.runtime.module_manager.upgrades_done,
            "upgraded_mods": len(upgraded),
            "elapsed_ns": summary["elapsed_ns"],
        }


PROGRAMS: dict[str, type[Program]] = {
    cls.name: cls
    for cls in (QuickstartProgram, OrchestrationProgram, KvsProgram, FaultsProgram,
                BatchingProgram, OpenLoopProgram, ClusterProgram, ControlProgram,
                UpgradeUnderLoadProgram, ClusterParProgram, ControlParProgram,
                E14ParProgram)
}


def registered(multi_world: bool) -> list[str]:
    """The registry entries that run several worlds (or exactly one)."""
    return [name for name, cls in PROGRAMS.items()
            if (len(cls().nodes()) > 1) == multi_world]
