"""E14 as the ``kvs-cluster`` benchmark program.

A subclass of :class:`repro.cluster.par.E14ParProgram` that draws its keys
and values from the seed, times every op in virtual time, checks that
every get returns the value its client put, and carries per-world counts
(and, in a traced run, each shard process's tracer totals) home through
``finish``/``reduce``.  Everything it keeps lives on the world's view, so
the same code runs in-process (``shards=1``) and in forked shards.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cluster.fabric import FabricCost
from repro.cluster.par import E14ParProgram

__all__ = ["BenchE14Program"]


class BenchE14Program(E14ParProgram):
    def __init__(self, seed: int, *, tracer=None) -> None:
        self.tracer = tracer
        super().__init__(seed, nnodes=4, nclients=96, ops_per_client=6,
                         link_lat_ns=FabricCost().link_lat_ns)

    def drivers(self, world):
        if self.tracer is not None:
            # the measured phase starts here, in whichever process hosts
            # the world; set-up (and a forked shard's inherited totals) go
            self.tracer.reset()
        view = world.ctx
        env = view.env
        idx = int(world.node_name[1:])
        loops = [i for i in range(self.nclients) if i % self.nnodes == idx]
        view.bench = {"lat": [], "mismatches": 0, "done": 0, "loops": len(loops),
                      "eid0": env._eid, "reused0": env.pool_reused,
                      "t_ready": time.perf_counter(), "t_done": None}
        return [(f"bench.loop{i}", self._bench_loop(view, i)) for i in loops]

    def _bench_loop(self, view, i: int):
        kvs, env, st = view.kvs, view.env, view.bench
        rng = np.random.default_rng([self.seed, i])
        keys = [f"c{i}.k{j}.{int(x):x}"
                for j, x in enumerate(rng.integers(0, 1 << 48, self.ops_per_client))]
        values = [rng.bytes(self.value_size) for _ in keys]
        lat = st["lat"]
        for key, value in zip(keys, values):
            t = env.now
            yield from kvs.put(key, value)
            lat.append(env.now - t)
            st["done"] += 1
        for key, value in zip(keys, values):
            t = env.now
            got = yield from kvs.get(key)
            lat.append(env.now - t)
            st["done"] += 1
            if got != value:
                st["mismatches"] += 1
        st["loops"] -= 1
        if st["loops"] == 0:  # this world's last client is done
            st["t_done"] = time.perf_counter()

    def finish(self, world) -> dict:
        view = world.ctx
        env = view.env
        devices = list(view.node.devices.values())
        st = view.bench
        # the measured phase's engine work, before shutdown
        events, reused = env._eid - st["eid0"], env.pool_reused - st["reused0"]
        out = super().finish(world)  # shuts down and checks NIC conservation
        out.update(
            lat=st["lat"], mismatches=st["mismatches"], done=st["done"],
            t_ready=st["t_ready"], t_done=st["t_done"],
            events=events, pool_reused=reused,
            device_ios=sum(d.completed for d in devices),
            device_bytes=sum(d.bytes_read + d.bytes_written for d in devices),
            pid=os.getpid(),
            traced=self.tracer.export() if self.tracer is not None else None,
        )
        return out

    def reduce(self, results: dict) -> dict:
        red = super().reduce(results)
        names = sorted(results)
        rows = [results[n] for n in names]
        # one tracer export per shard process: the last world it finished
        traced = {r["pid"]: r["traced"] for r in rows if r["traced"] is not None}
        red.update(
            lat={n: results[n]["lat"] for n in names},
            node_ns={n: results[n]["virtual_ns"] for n in names},
            elapsed_ns=max(r["virtual_ns"] for r in rows) - self.epoch_ns,
            mismatches=sum(r["mismatches"] for r in rows),
            missing=red["ops"] - sum(r["done"] for r in rows),
            t_ready=max(r["t_ready"] for r in rows),
            t_done=max(r["t_done"] for r in rows),
            events=sum(r["events"] for r in rows),
            nacks=sum(r["nacks"] for r in rows),
            fabric_bytes=sum(r["fabric_bytes"] for r in rows),
            pool_reused=sum(r["pool_reused"] for r in rows),
            heap_max=max((t["heap_max"] for t in traced.values()), default=0),
            devices={"device_ios": sum(r["device_ios"] for r in rows),
                     "device_bytes": sum(r["device_bytes"] for r in rows)},
            traced=[traced[pid] for pid in sorted(traced)],
        )
        return red
