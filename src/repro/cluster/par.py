"""Per-node cluster views and the multi-world programs.

The sharded runner (:mod:`repro.sim.par`) gives every node its own
private Environment; this module supplies the cluster-side half of that
bargain.  A :class:`ClusterSpec` is pure data — node declarations, stack
chains, link costs — from which each world deterministically rebuilds
*its own node only*.  :class:`ParClusterView` then offers the
:class:`~repro.cluster.Cluster` surface a driver needs
(``client()``/``route()``/``owner_of()``/``shard_kvs()``) on a one-node
Cluster whose transport is the world: cross-node calls ride the same
:class:`~repro.cluster.routing.RemoteRoute` /
:class:`~repro.cluster.routing.RouteExecutor` halves as on a shared
clock, over the runner's timestamped message ports.

Because a world's construction consults nothing but the spec and its
own node name, the event stream each node observes is identical whether
its world shares a process with every other node (``shards=1``) or runs
alone in a fork — the invariant the byte-identical-digest guarantee
rests on.

Wiring rule, per bidirectionally-linked pair ``(me, peer)``, is
:func:`~repro.cluster.routing.wire_pair`'s, the same as on a shared
clock: one egress port ``"me->peer"`` (shared sequence counter), a
RemoteRoute sending ``req`` messages on it and consuming ``resp``
ingress from ``"peer->me"``, and a RouteExecutor consuming ``req``
ingress and answering on the same port — responses share the
locally-owned outbound :class:`~repro.cluster.fabric.FabricLink` with
this node's own requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

from ..core.runtime import RuntimeConfig
from ..errors import FabricError, LabStorError
from ..kernel.cpu import DEFAULT_COST, CostModel
from ..sim.par import Program
from ..units import msec, usec
from .builder import Cluster
from .fabric import DEFAULT_FABRIC_COST, FabricCost, FabricLink
from .kvs import HashRing, ShardedKVS
from .node import ClusterClient, Node
from .routing import RemoteRoute, linked_peers, wire_pair

__all__ = [
    "StackDecl", "NodeDecl", "LinkDecl", "ClusterSpec", "ParClusterView",
    "SpecParProgram", "ClusterParProgram", "ControlParProgram",
    "E14ParProgram", "CallbackParProgram", "ParHandle", "failover_story",
    "assert_nic_conservation",
]


# ----------------------------------------------------------------------
# the spec: topology as pure data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StackDecl:
    """One mounted stack: the mount path plus the chain of StackBuilder
    calls that shaped it, replayed verbatim at world build time."""

    mount: str
    #: ((method, args, kwargs), ...) applied to ``node.stack(mount)``
    calls: tuple = ()


@dataclass(frozen=True)
class NodeDecl:
    name: str
    devices: tuple = ("nvme",)
    config: Optional[RuntimeConfig] = None
    failure_domain: Optional[str] = None
    stacks: tuple = ()


@dataclass(frozen=True)
class LinkDecl:
    a: str
    b: str
    cost: Optional[FabricCost] = None
    bidirectional: bool = True


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster topology as data: everything a world needs to rebuild
    its node, and everything the runner needs for routing + lookahead."""

    seed: int = 0
    cost: CostModel = field(default=DEFAULT_COST)
    fabric_cost: Optional[FabricCost] = None
    nodes: tuple = ()
    links: tuple = ()

    def node(self, name: str) -> NodeDecl:
        for d in self.nodes:
            if d.name == name:
                return d
        raise LabStorError(
            f"spec has no node {name!r}; declared: {self.node_names()}")

    def node_names(self) -> list[str]:
        return sorted(d.name for d in self.nodes)

    def directed_links(self) -> dict[tuple[str, str], FabricCost]:
        """Every directed (src, dst) pair and its cost.  No declared
        links means full mesh — the ClusterBuilder default."""
        default = self.fabric_cost or DEFAULT_FABRIC_COST
        out: dict[tuple[str, str], FabricCost] = {}
        if self.links:
            for ld in self.links:
                pairs = ([(ld.a, ld.b), (ld.b, ld.a)] if ld.bidirectional
                         else [(ld.a, ld.b)])
                for pair in pairs:
                    out.setdefault(pair, ld.cost or default)
        else:
            names = self.node_names()
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    out[(a, b)] = out[(b, a)] = default
        return out

    def lookahead_ns(self) -> Optional[int]:
        links = self.directed_links()
        if not links:
            return None
        return min(c.link_lat_ns for c in links.values())

    def peers(self, me: str) -> list[str]:
        """The nodes ``me`` wires a route pair to (one-way links raise,
        as on a shared clock)."""
        links = self.directed_links()
        return linked_peers(me, self.node_names(),
                            lambda a, b: (a, b) in links)


# ----------------------------------------------------------------------
# the per-world view
# ----------------------------------------------------------------------
class ParClusterView:
    """One node's local slice of the cluster: the :class:`Cluster`
    surface drivers and :class:`ShardedKVS` consume, served by a one-node
    Cluster whose transport is the world.

    The backing Cluster's RngRegistry is seeded from the spec, and
    because every stream a node draws is qualified by the node's name,
    local draws are independent of which other nodes share the process.
    """

    def __init__(self, spec: ClusterSpec, world) -> None:
        self.spec = spec
        self.world = world
        self.env = world.env
        self.node_name = world.node_name
        self.cluster: Optional[Cluster] = None
        self.node: Optional[Node] = None

    # -- construction --------------------------------------------------
    def build_local(self) -> "ParClusterView":
        spec, me, world = self.spec, self.node_name, self.world
        decl = spec.node(me)
        cl = Cluster(seed=spec.seed, cost=spec.cost,
                     fabric_cost=spec.fabric_cost, env=self.env)
        cl.transport = world
        self.cluster = cl
        self.node = cl.add_node(
            me, devices=decl.devices, config=decl.config,
            failure_domain=decl.failure_domain,
        )
        for sd in decl.stacks:
            sb = self.node.stack(sd.mount)
            for meth, a, kw in sd.calls:
                sb = getattr(sb, meth)(*a, **kw)
            sb.mount()
        # the service registry spans the WHOLE spec
        for d in spec.nodes:
            for sd in d.stacks:
                cl.services[sd.mount] = d.name
        for (src, dst), cost in sorted(spec.directed_links().items()):
            if src == me:
                cl.fabric.add_link(src, dst, cost, bidirectional=False)
        cl._built = True  # sharding is legal once topology is frozen
        for peer in spec.peers(me):
            wire_pair(world, self.node, peer, cl.fabric.link(me, peer),
                      world.out_port(peer))
        return self

    # -- Cluster surface -----------------------------------------------
    def route(self, src: str, dst: str) -> RemoteRoute:
        return self.cluster.route(src, dst)

    def owner_of(self, path: str) -> str:
        return self.cluster.owner_of(path)

    def client(self, node: Optional[str] = None,
               ordered: bool = True) -> ClusterClient:
        if node is not None and node != self.node_name:
            raise FabricError(
                f"a sharded-runner client homes on its own world; this is "
                f"{self.node_name!r}, not {node!r}")
        return self.cluster.client(self.node_name, ordered=ordered)

    def shard_kvs(
        self,
        mount: str = "kvs::/shard",
        *,
        replicas: int = 1,
        quorum: Optional[int] = None,
        vnodes: int = 64,
        variant: str = "min",
        device: str = "nvme",
        nworkers: int = 8,
        timeout_ns: Optional[int] = None,
        anti_entropy: bool = False,
    ) -> ShardedKVS:
        """The :meth:`Cluster.shard_kvs` analogue: mount locally if
        absent, hash over the *spec's* full ``(name, failure_domain)``
        metadata, gateway on the local client."""
        if anti_entropy:
            raise LabStorError(
                "anti-entropy registers restart hooks on remote nodes, "
                "which don't exist in this world — unsupported under the "
                "sharded runner")
        try:
            self.node.runtime.namespace.resolve(mount)
        except LabStorError:
            (self.node.stack(mount)
                 .kvs(variant=variant, nworkers=nworkers)
                 .device(device)
                 .mount())
        ring = HashRing(
            [(d.name, d.failure_domain)
             for d in sorted(self.spec.nodes, key=lambda d: d.name)],
            vnodes=vnodes,
        )
        return ShardedKVS(
            self.client(), mount=mount, ring=ring, replicas=replicas,
            quorum=quorum, timeout_ns=timeout_ns, anti_entropy=False,
        )

    def install_faults(self, plan, *, node: str):
        """Arm ``plan`` iff this world owns ``node`` — programs declare
        faults symmetrically and only the owning world arms them."""
        if node != self.node_name:
            return None
        return self.node.install_faults(plan)

    def process(self, gen, **kw):
        return self.env.process(gen, **kw)

    def stats(self) -> dict:
        st = self.cluster.stats()
        return {"node": st["nodes"][self.node_name], "fabric": st["fabric"],
                "routes": st["routes"]}

    def shutdown(self, drain: bool = True) -> None:
        self.cluster.shutdown(drain=drain)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParClusterView {self.node_name!r} "
                f"routes={sorted(self.world.routes)}>")


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
class SpecParProgram(Program):
    """Base for spec-driven parallel programs: owns the ClusterSpec and
    the world -> view construction; subclasses add drivers and checks."""

    epoch_ns = int(msec(1))

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.spec = self.make_spec()

    def make_spec(self) -> ClusterSpec:
        raise NotImplementedError

    def nodes(self) -> list[str]:
        return self.spec.node_names()

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def build(self, world) -> ParClusterView:
        view = ParClusterView(self.spec, world).build_local()
        self.setup(view)
        return view

    def setup(self, view: ParClusterView) -> None:
        pass

    def finish(self, world) -> dict:
        view = world.ctx
        out = view.stats()
        view.shutdown()
        return out


def failover_story(kvs, env, seed: int, nkeys: int):
    """The "cluster" driver, serial and sharded: cross-fabric puts, ride
    past the 3 ms power cut, read through the outage, then let straggler
    replica branches (timeouts, crash ride-outs) settle so the failover
    count is not racing teardown.  Returns the read hits."""
    for i in range(nkeys):
        yield from kvs.put(f"det{i}", bytes([(i + seed) % 251]) * 96)
    if env.now < msec(3):
        yield env.timeout(int(msec(3)) - env.now + int(usec(100)))
    hits = 0
    for i in range(nkeys):
        if (yield from kvs.get(f"det{i}")) == bytes([(i + seed) % 251]) * 96:
            hits += 1
    yield env.timeout(int(msec(2)))
    return hits


def assert_nic_conservation(cl: Cluster) -> None:
    """Every NIC queue pair of a cluster (or a view's one-node slice)
    drained."""
    for (s, d), r in sorted(cl.transport.routes.items()):
        qp = r.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{s}->{d}: NIC conservation broken after shutdown "
            f"({qp.submitted_total} submitted, {qp.completed_total} completed)"
        )


class ClusterParProgram(SpecParProgram):
    """The "cluster" scenario under the sharded runner: the same 3-node
    replicated KVS, power cut on ``b`` at 3 ms, failover reads — with
    the cut landing mid-window so NACK discipline is exercised across a
    barrier (the in-flight replica op on ``b`` rides out the crash and
    comes back as a timestamped NACK message in a later round)."""

    name = "cluster-par"
    nkeys = 18

    def make_spec(self) -> ClusterSpec:
        cfg = RuntimeConfig(nworkers=1, restart_wait_ns=int(usec(50)))
        return ClusterSpec(
            seed=11 + self.seed,
            nodes=tuple(
                NodeDecl(name, config=cfg, failure_domain=f"rack-{i + 1}")
                for i, name in enumerate("abc")
            ),
        )

    def setup(self, view: ParClusterView) -> None:
        view.kvs = view.shard_kvs("kvs::/det", replicas=2,
                                  timeout_ns=int(msec(1)))
        view.install_faults(f"power_cut:at={int(msec(3))}", node="b")
        view.hits = None

    def drivers(self, world):
        if world.node_name != "a":
            return []
        return [("cluster.driver", self._drive(world.ctx))]

    def _drive(self, view: ParClusterView):
        view.hits = yield from failover_story(view.kvs, view.env, self.seed,
                                              self.nkeys)

    def finish(self, world) -> dict:
        view = world.ctx
        out = {
            "node": view.node_name,
            "online": view.node.online,
            "remote_calls": sum(r.remote_calls for r in world.routes.values()),
            "nacks": sum(r.nacks for r in world.routes.values()),
            "handled": sum(x.handled for x in world.executors),
        }
        if view.hits is not None:
            out["hits"] = view.hits
            out["failovers"] = view.kvs.failovers
        view.shutdown()
        assert_nic_conservation(view.cluster)
        return out

    def reduce(self, results: dict) -> dict:
        a = results["a"]
        assert a.get("hits") == self.nkeys, (
            f"failover reads lost keys ({a.get('hits')}/{self.nkeys})")
        assert not results["b"]["online"], "power cut never fired"
        assert a["failovers"] > 0, "no replica branch ever failed over"
        remote = sum(r["remote_calls"] for r in results.values())
        assert remote > 0, "no call ever crossed the fabric"
        return {
            "hits": a["hits"],
            "failovers": a["failovers"],
            "remote_calls": remote,
            "nacks": sum(r["nacks"] for r in results.values()),
            "handled": sum(r["handled"] for r in results.values()),
        }


class ControlParProgram(Program):
    """The "control" scenario sharded: two independent chaos-control
    deployments (open-loop tenants, fault plan, self-healing daemon) on
    their own nodes, plus a cross-node KVS exchange so every barrier
    round carries real fabric traffic — including NACKs while the peer
    rides out its 6 ms power cut."""

    name = "control-par"
    names = ("ctl0", "ctl1")

    def __init__(self, seed: int = 0, *,
                 duration_ns: int = int(msec(8))) -> None:
        super().__init__(seed)
        self.duration_ns = int(duration_ns)
        self._cost = FabricCost()
        # the YCSB preload advances the clock during build; 2 ms clears
        # it with margin while keeping the 2/3/6 ms chaos plan intact
        self.epoch_ns = int(msec(2))

    def nodes(self) -> list[str]:
        return list(self.names)

    def lookahead_ns(self) -> int:
        return self._cost.link_lat_ns

    def build(self, world) -> SimpleNamespace:
        from ..ctl.presets import build_chaos_control

        me = world.node_name
        idx = self.names.index(me)
        system, engine, daemon = build_chaos_control(
            env=world.env, seed=self.seed + 17 * idx,
            duration_ns=self.duration_ns,
        )
        peer = self.names[1 - idx]
        host = SimpleNamespace(name=me, runtime=system.runtime,
                               client=system.client)
        route, executor = wire_pair(
            world, host, peer, FabricLink(world.env, me, peer, self._cost),
            world.out_port(peer))
        return SimpleNamespace(system=system, engine=engine, daemon=daemon,
                               route=route, executor=executor, me=me,
                               summary=None, cross=None)

    def drivers(self, world):
        ctx = world.ctx
        return [
            (f"traffic.drive.{ctx.me}", self._engine(ctx)),
            (f"cross.drive.{ctx.me}", self._cross(ctx, world.env)),
        ]

    def _engine(self, ctx):
        ctx.summary = yield from ctx.engine.drive()

    def _cross(self, ctx, env):
        from ..core.requests import LabRequest
        from ..ctl.presets import MOUNT

        nops = 24
        val = bytes([33]) * 64
        oks = errors = hit = 0
        for i in range(nops):
            req = LabRequest(op="kvs.put",
                             payload={"key": f"x.{ctx.me}.{i}", "value": val})
            try:
                yield from ctx.route.call(MOUNT, req, timeout_ns=int(msec(2)))
                oks += 1
            except Exception:  # noqa: BLE001 - NACKed puts are the point
                errors += 1
            yield env.timeout(int(usec(250)))
        for i in range(nops):
            req = LabRequest(op="kvs.get", payload={"key": f"x.{ctx.me}.{i}"})
            try:
                if (yield from ctx.route.call(
                        MOUNT, req, timeout_ns=int(msec(2)))) == val:
                    hit += 1
            except Exception:  # noqa: BLE001
                errors += 1
        ctx.cross = {"puts_ok": oks, "gets_hit": hit, "remote_errors": errors}

    def finish(self, world) -> dict:
        ctx = world.ctx
        if ctx.daemon is not None:
            ctx.daemon.stop()
        env = world.env
        env.run(ctx.route.qp.drained())
        out = {
            "node": ctx.me,
            "summary": ctx.summary,
            "cross": ctx.cross,
            "remote_calls": ctx.route.remote_calls,
            "nacks": ctx.route.nacks,
            "handled": ctx.executor.handled,
            "ticks": ctx.daemon.ticks if ctx.daemon is not None else 0,
        }
        ctx.route.close()
        ctx.executor.close()
        ctx.system.shutdown()
        qp = ctx.route.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{ctx.me}: NIC conservation broken after shutdown")
        return out

    def reduce(self, results: dict) -> dict:
        for name in self.names:
            r = results[name]
            assert r["summary"] is not None, f"{name}: engine never finished"
            assert r["cross"] is not None, f"{name}: cross driver never finished"
            assert r["handled"] > 0, f"{name}: executed no remote requests"
            assert r["cross"]["puts_ok"] > 0, f"{name}: every remote put failed"
        return {
            "remote_calls": sum(r["remote_calls"] for r in results.values()),
            "nacks": sum(r["nacks"] for r in results.values()),
            "ticks": {n: results[n]["ticks"] for n in self.names},
            "cross": {n: results[n]["cross"] for n in self.names},
        }


class E14ParProgram(SpecParProgram):
    """E14 (sharded KVS scaling) as a parallel program: the same fixed
    offered load — ``nclients`` closed loops, client *i* entering at its
    home node ``n{i % nnodes}``'s gateway — over a cross-rack topology
    whose larger propagation delay buys the runner wide windows (many
    whole KVS ops per barrier)."""

    name = "e14"

    def __init__(self, seed: int = 0, *, nnodes: int = 4, replicas: int = 1,
                 nclients: int = 96, ops_per_client: int = 16,
                 value_size: int = 256, vnodes: int = 64,
                 link_lat_ns: int = int(usec(100))) -> None:
        self.nnodes = nnodes
        self.replicas = replicas
        self.nclients = nclients
        self.ops_per_client = ops_per_client
        self.value_size = value_size
        self.vnodes = vnodes
        self.link_lat_ns = int(link_lat_ns)
        super().__init__(seed)

    def make_spec(self) -> ClusterSpec:
        cfg = RuntimeConfig(nworkers=1, min_workers=1, max_workers=1)
        fc = FabricCost(link_lat_ns=self.link_lat_ns)
        return ClusterSpec(
            seed=self.seed,
            fabric_cost=fc,
            nodes=tuple(NodeDecl(f"n{i}", config=cfg)
                        for i in range(self.nnodes)),
        )

    def setup(self, view: ParClusterView) -> None:
        view.kvs = view.shard_kvs("kvs::/bench", replicas=self.replicas,
                                  vnodes=self.vnodes)

    def drivers(self, world):
        idx = int(world.node_name[1:])
        kvs = world.ctx.kvs
        return [
            (f"bench.loop{i}", self._loop(kvs, i))
            for i in range(self.nclients)
            if i % self.nnodes == idx
        ]

    def _loop(self, kvs, i: int):
        payload = bytes(self.value_size)
        for j in range(self.ops_per_client):
            yield from kvs.put(f"c{i}.k{j}", payload)
        for j in range(self.ops_per_client):
            yield from kvs.get(f"c{i}.k{j}")

    def finish(self, world) -> dict:
        view = world.ctx
        out = {
            "node": view.node_name,
            "virtual_ns": view.env.now,
            "remote_calls": sum(r.remote_calls for r in world.routes.values()),
            "nacks": sum(r.nacks for r in world.routes.values()),
            "fabric_bytes": sum(
                s["bytes"] for s in view.cluster.fabric.stats().values()),
            "failovers": view.kvs.failovers,
        }
        view.shutdown()
        assert_nic_conservation(view.cluster)
        return out

    def reduce(self, results: dict) -> dict:
        from ..units import to_sec

        total_ops = self.nclients * self.ops_per_client * 2
        end = max(r["virtual_ns"] for r in results.values())
        elapsed_ns = max(0, end - self.epoch_ns)
        return {
            "nnodes": self.nnodes,
            "replicas": self.replicas,
            "ops": total_ops,
            "elapsed_ms": elapsed_ns / 1e6,
            "kops_s": (total_ops / to_sec(elapsed_ns) / 1e3
                       if elapsed_ns else 0.0),
            "remote_calls": sum(r["remote_calls"] for r in results.values()),
            "fabric_MB": sum(r["fabric_bytes"]
                             for r in results.values()) / 1e6,
            "fanout_failovers": sum(r["failovers"]
                                    for r in results.values()),
        }


# ----------------------------------------------------------------------
# the ClusterBuilder front door: build(shards=N)
# ----------------------------------------------------------------------
class CallbackParProgram(SpecParProgram):
    """A SpecParProgram assembled from user callbacks instead of a
    subclass — what :meth:`ParHandle.run` constructs under the hood.

    Each callback receives the per-node :class:`ParClusterView`:

    - ``setup(view)`` runs after the local node is built (mount shards,
      install faults — gate on ``view.node_name``).
    - ``drivers(view)`` returns ``[(name, generator), ...]`` for that
      node; return ``[]`` (or gate on ``view.node_name``) for nodes that
      only serve remote traffic.
    - ``finish(view)`` returns the node's result dict; the default
      collects ``view.stats()`` and shuts the world down — a custom
      finish must call ``view.shutdown()`` itself.
    - ``reduce(results)`` folds the per-node dicts into one value.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
    ) -> None:
        Program.__init__(self, spec.seed)
        self.spec = spec
        self._drivers = drivers
        self._setup = setup
        self._finish = finish
        self.epoch_ns = int(epoch_ns)
        if reduce is not None:
            self.reduce = reduce

    def setup(self, view: ParClusterView) -> None:
        if self._setup is not None:
            self._setup(view)

    def drivers(self, world):
        if self._drivers is None:
            return []
        return list(self._drivers(world.ctx))

    def finish(self, world) -> dict:
        if self._finish is not None:
            return self._finish(world.ctx)
        return super().finish(world)


class ParHandle:
    """What ``ClusterBuilder.build(shards=N)`` returns: the frozen
    :class:`ClusterSpec` plus a shard count, runnable under the
    conservative windowed parallel runner::

        handle = (cluster(seed=7)
                  .node("n0").stack("kvs::/t").kvs(variant="min").device("nvme")
                  .node("n1").stack("kvs::/t").kvs(variant="min").device("nvme")
                  .build(shards=2))
        result = handle.run(drivers=my_drivers, trace=True)

    ``result`` is a :class:`repro.sim.par.ParResult`; with ``trace=True``
    its ``digest`` is byte-identical at every shard count.
    """

    def __init__(self, spec: ClusterSpec, shards: int) -> None:
        self.spec = spec
        self.shards = int(shards)

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def run(
        self,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
        trace: bool = False,
    ):
        from ..sim.par import run_program

        program = CallbackParProgram(
            self.spec, drivers=drivers, setup=setup, finish=finish,
            reduce=reduce, epoch_ns=epoch_ns,
        )
        return run_program(program, shards=self.shards, trace=trace)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParHandle nodes={self.spec.node_names()} "
                f"shards={self.shards}>")
