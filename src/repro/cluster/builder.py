"""Cluster composition: the :class:`Cluster` runtime and the fluent
:class:`ClusterBuilder` front door.

The builder extends the StackBuilder idiom one level up — nodes instead
of LabMods, links instead of layer edges::

    from repro.cluster import cluster

    cl = (
        cluster(seed=7)
        .node("n0").stack("kvs::/t").kvs(variant="min").device("nvme")
        .node("n1").stack("kvs::/t").kvs(variant="min").device("nvme")
        .node("n2", failure_domain="rack-b")
        .stack("kvs::/t").kvs(variant="min").device("nvme")
        .build()
    )
    skvs = cl.shard_kvs("kvs::/t", replicas=3)

Inside a ``.stack(...)`` scope every chainable StackBuilder knob is
available (``kvs``, ``fs``, ``device``, ``sched``, ...); calling a
builder-level verb (``node``, ``link``, ``connect_all``, ``build``,
``stack``) mounts the pending stack and pops back out.  Note this means
``build()`` after a ``stack(...)`` finishes the **cluster** — compose a
raw StackSpec through ``node_obj.stack(...)`` if that's what you need.

A Cluster owns exactly one Environment, sanitizer, telemetry pipeline,
and RngRegistry; nodes and the fabric share them, which is what makes a
multi-node run a single deterministic simulation.
"""

from __future__ import annotations

from typing import Optional, Union

from ..devices.profiles import DeviceSpec
from ..errors import FabricError, LabStorError
from ..kernel.cpu import DEFAULT_COST, CostModel
from ..obs.telemetry import Telemetry
from ..obs.telemetry import maybe_attach as _maybe_attach_telemetry
from ..sim import Environment, RngRegistry
from ..sim.sanitizer import maybe_attach
from .fabric import FabricCost, NetworkFabric
from .kvs import HashRing, ShardedKVS
from .node import ClusterClient, Node
from .routing import Loopback, RemoteRoute, linked_peers, wire_pair

__all__ = ["Cluster", "ClusterBuilder", "cluster"]


class Cluster:
    """A set of nodes on one shared clock, wired by a network fabric.

    Build through :func:`cluster` / :class:`ClusterBuilder` — that is the
    public path to multi-node composition; constructing a Node or wiring
    routes by hand skips topology bookkeeping.

    Cross-node calls ride the route halves :func:`~repro.cluster.routing.
    wire_pair` registers on :attr:`transport`: a
    :class:`~repro.cluster.routing.Loopback` on the shared clock, or the
    node's :class:`~repro.sim.par.ParWorld` when the cluster is one
    node's slice of a sharded run.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        cost: CostModel = DEFAULT_COST,
        fabric_cost: FabricCost | None = None,
        telemetry: Union[Telemetry, bool, None] = None,
        env: Environment | None = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        # one sanitizer / telemetry pipeline for the whole cluster: nodes
        # share the env, and attaching per node would double-count events
        self.sanitizer = maybe_attach(self.env)
        self.telemetry: Optional[Telemetry] = None
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry.install(self.env)
        elif telemetry is True:
            self.telemetry = Telemetry().install(self.env)
        elif telemetry is None:
            self.telemetry = _maybe_attach_telemetry(self.env)
        self.rngs = RngRegistry(seed)
        self.cost = cost
        self.fabric = NetworkFabric(self.env, fabric_cost)
        self.nodes: dict[str, Node] = {}
        #: ingress handlers + the registry of wired route halves
        self.transport = Loopback(self.env)
        #: service registry: mount path -> owning node name
        self.services: dict[str, str] = {}
        self._clients: list[ClusterClient] = []
        self._built = False

    # -- topology ------------------------------------------------------
    def add_node(self, name: str, **kw) -> Node:
        if self._built:
            raise LabStorError("cluster is built; topology is frozen")
        if name in self.nodes:
            raise LabStorError(f"node {name!r} already in cluster")
        node = Node(self, name, **kw)
        self.nodes[name] = node
        return node

    def link(self, a: str, b: str, cost: FabricCost | None = None,
             *, bidirectional: bool = True) -> None:
        for name in (a, b):
            if name not in self.nodes:
                raise FabricError(
                    f"cannot link unknown node {name!r}; "
                    f"cluster has {sorted(self.nodes)}"
                )
        self.fabric.add_link(a, b, cost, bidirectional=bidirectional)

    def connect_all(self, cost: FabricCost | None = None) -> None:
        """Full mesh over the current node set (idempotent)."""
        names = sorted(self.nodes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.fabric.add_link(a, b, cost)

    def build_routes(self) -> None:
        """Wire a RemoteRoute + RouteExecutor pair per linked node pair
        over the shared-clock loopback.

        Setup-time only: each executor's proxy connect drives the sim.
        Pairs are wired in sorted order so pids and queue ids assign
        deterministically regardless of declaration order."""
        loop, routes = self.transport, self.transport.routes
        for me in sorted(self.nodes):
            for peer in linked_peers(me, self.nodes, self.fabric.connected):
                if (me, peer) not in routes:
                    wire_pair(loop, self.nodes[me], peer,
                              self.fabric.link(me, peer), loop.port(me, peer))
        self._built = True

    def route(self, src: str, dst: str) -> RemoteRoute:
        routes = self.transport.routes
        try:
            return routes[(src, dst)]
        except KeyError:
            hint = (
                "cluster not built yet — call build()"
                if not self._built
                else f"declared routes: {sorted(routes)}"
            )
            raise FabricError(f"no route {src}->{dst}; {hint}") from None

    # -- services ------------------------------------------------------
    def register_service(self, path: str, node_name: str) -> None:
        if node_name not in self.nodes:
            raise LabStorError(f"unknown node {node_name!r}")
        owner = self.services.get(path)
        if owner is not None and owner != node_name:
            raise LabStorError(
                f"service {path!r} already registered on {owner!r}"
            )
        self.services[path] = node_name

    def owner_of(self, path: str) -> str:
        """Longest registered prefix wins (mirrors Namespace.resolve)."""
        best = None
        for mount, owner in self.services.items():
            if path == mount or path.startswith(mount):
                if best is None or len(mount) > len(best[0]):
                    best = (mount, owner)
        if best is None:
            raise LabStorError(
                f"no cluster service owns {path!r}; "
                f"registered: {sorted(self.services)}"
            )
        return best[1]

    # -- clients and sharding ------------------------------------------
    def client(self, node: str | None = None, ordered: bool = True) -> ClusterClient:
        """A cluster-wide client homed on ``node`` (default: first node
        in sorted order).  Setup-time only — connecting runs the sim."""
        if not self.nodes:
            raise LabStorError("cluster has no nodes")
        home = self.nodes[node] if node is not None else (
            self.nodes[sorted(self.nodes)[0]]
        )
        c = ClusterClient(self, home, ordered=ordered)
        self._clients.append(c)
        return c

    def shard_kvs(
        self,
        mount: str = "kvs::/shard",
        *,
        replicas: int = 1,
        quorum: int | None = None,
        vnodes: int = 64,
        variant: str = "min",
        device: str = "nvme",
        nworkers: int = 8,
        gateway: str | None = None,
        timeout_ns: int | None = None,
        anti_entropy: bool = False,
    ) -> ShardedKVS:
        """Shard (and replicate) a GenericKVS namespace across every node.

        Mounts a LabKVS stack at ``mount`` on each node that does not
        already carry one, builds the consistent-hash ring over
        ``(name, failure_domain)``, and returns the sharded surface.
        """
        if not self._built:
            raise LabStorError("build() the cluster before sharding a KVS")
        for name in sorted(self.nodes):
            node = self.nodes[name]
            try:
                node.runtime.namespace.resolve(mount)
            except LabStorError:
                (node.stack(mount)
                     .kvs(variant=variant, nworkers=nworkers)
                     .device(device)
                     .mount())
        ring = HashRing(
            [(n.name, n.failure_domain)
             for n in (self.nodes[k] for k in sorted(self.nodes))],
            vnodes=vnodes,
        )
        return ShardedKVS(
            self.client(gateway), mount=mount, ring=ring,
            replicas=replicas, quorum=quorum, timeout_ns=timeout_ns,
            anti_entropy=anti_entropy,
        )

    # -- faults --------------------------------------------------------
    def install_faults(self, plan, *, node: str) -> object:
        """Arm a fault plan scoped to one named node."""
        try:
            target = self.nodes[node]
        except KeyError:
            raise LabStorError(
                f"unknown node {node!r}; cluster has {sorted(self.nodes)}"
            ) from None
        return target.install_faults(plan)

    # -- lifecycle -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "nodes": {
                n.name: {"online": n.online, "domain": n.failure_domain}
                for n in (self.nodes[k] for k in sorted(self.nodes))
            },
            "fabric": self.fabric.stats(),
            "routes": {
                f"{s}->{d}": {"remote_calls": r.remote_calls, "nacks": r.nacks}
                for (s, d), r in sorted(self.transport.routes.items())
            },
        }

    def shutdown(self, drain: bool = True) -> None:
        """Tear the whole cluster down: drain NIC queue pairs, close
        routes, executors and clients, stop every node's Runtime daemons."""
        routes = [self.transport.routes[k] for k in sorted(self.transport.routes)]
        if drain:
            # a route to a dead node still drains: its in-flight ops ride
            # out the crash window and complete as NACKs
            for route in routes:
                self.env.run(route.qp.drained())
        for c in self._clients:
            c.close()
        self._clients.clear()
        for route in routes:
            route.close()
        for executor in self.transport.executors:
            executor.close()
        for name in sorted(self.nodes):
            self.nodes[name].shutdown(drain=drain)
        # unwind the just-scheduled interrupts (same dance as
        # LabStorSystem.shutdown) so no dead process lingers
        env = self.env
        while (env._urgent or env._due or env._heap) and env.peek() <= env.now:
            env.step()

    def run(self, *args, **kw):
        return self.env.run(*args, **kw)

    def process(self, gen, **kw):
        return self.env.process(gen, **kw)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<Cluster nodes={sorted(self.nodes)} "
                f"routes={len(self.transport.routes)} built={self._built}>")


class _StackScope:
    """A ``.stack(...)`` scope inside a ClusterBuilder chain.

    Chainable StackBuilder knobs return the scope; builder-level verbs
    flush (mount + register the service) and continue the outer chain.
    """

    _BUILDER_VERBS = frozenset(
        {"node", "link", "connect_all", "build", "stack"}
    )

    def __init__(self, outer: "ClusterBuilder", node: Node, mount: str) -> None:
        self._outer = outer
        self._node = node
        self._inner = node.stack(mount)
        self._mount = mount
        self._flushed = False
        self._calls: list[tuple] = []

    def _flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        self._inner.mount()
        self._outer._cluster.register_service(self._mount, self._node.name)
        self._outer._record_stack(self._node.name, self._mount,
                                  tuple(self._calls))

    def mount(self):
        """Mount now and return the outer builder (optional — any
        builder verb flushes implicitly)."""
        self._flush()
        return self._outer

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._BUILDER_VERBS:
            self._flush()
            return getattr(self._outer, name)
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def proxy(*args, **kw):
            out = attr(*args, **kw)
            if out is self._inner:
                # a chainable knob — record it so the scope can be
                # replayed verbatim inside each shard's private world
                self._calls.append((name, args, kw))
                return self
            return out

        return proxy


class ClusterBuilder:
    """Fluent cluster composition (create via :func:`cluster`)."""

    def __init__(self, **cluster_kw) -> None:
        self._cluster = Cluster(**cluster_kw)
        self._cluster_kw = dict(cluster_kw)
        self._current: Node | None = None
        self._linked = False
        # declaration log so build(shards=N) can freeze the topology as
        # data and replay it node-by-node inside forked shard worlds
        self._node_decls: list[dict] = []
        self._stack_decls: dict[str, list] = {}
        self._link_decls: list[tuple] = []

    def _record_stack(self, node_name: str, mount: str, calls: tuple) -> None:
        self._stack_decls.setdefault(node_name, []).append((mount, calls))

    def node(
        self,
        name: str,
        *,
        devices=("nvme",),
        config=None,
        failure_domain: str | None = None,
    ) -> "ClusterBuilder":
        """Add a node; subsequent ``stack()`` calls target it."""
        if devices is not None:
            devices = tuple(
                d if isinstance(d, DeviceSpec) else d for d in devices
            )
        self._current = self._cluster.add_node(
            name, devices=devices, config=config, failure_domain=failure_domain
        )
        self._node_decls.append({
            "name": name, "devices": devices, "config": config,
            "failure_domain": failure_domain,
        })
        return self

    def stack(self, mount: str) -> _StackScope:
        """Open a stack scope on the current node."""
        if self._current is None:
            raise LabStorError("call node(...) before stack(...)")
        return _StackScope(self, self._current, mount)

    def link(self, a: str, b: str, cost: FabricCost | None = None,
             *, bidirectional: bool = True) -> "ClusterBuilder":
        self._cluster.link(a, b, cost, bidirectional=bidirectional)
        self._linked = True
        self._link_decls.append((a, b, cost, bidirectional))
        return self

    def connect_all(self, cost: FabricCost | None = None) -> "ClusterBuilder":
        self._cluster.connect_all(cost)
        self._linked = True
        self._link_decls.append(("*", "*", cost, True))
        return self

    def _freeze_spec(self):
        from .par import ClusterSpec, LinkDecl, NodeDecl, StackDecl

        nodes = tuple(
            NodeDecl(
                d["name"], devices=d["devices"], config=d["config"],
                failure_domain=d["failure_domain"],
                stacks=tuple(
                    StackDecl(mount, calls)
                    for mount, calls in self._stack_decls.get(d["name"], [])
                ),
            )
            for d in self._node_decls
        )
        names = sorted(d["name"] for d in self._node_decls)
        links: list = []
        for rec in self._link_decls:
            if rec[0] == "*":  # connect_all marker: expand the full mesh
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        links.append(LinkDecl(a, b, rec[2], True))
            else:
                a, b, cost, bidi = rec
                links.append(LinkDecl(a, b, cost, bidi))
        kw = self._cluster_kw
        return ClusterSpec(
            seed=kw.get("seed", 0), cost=kw.get("cost", DEFAULT_COST),
            fabric_cost=kw.get("fabric_cost"),
            nodes=nodes, links=tuple(links),
        )

    def build(self, shards: int | None = None):
        """Finalize the topology.

        ``build()`` defaults to a full mesh when no links were declared,
        instantiates all routes, and returns the live :class:`Cluster`.

        ``build(shards=N)`` instead freezes the recorded declarations
        into a :class:`~repro.cluster.par.ClusterSpec` and returns a
        :class:`~repro.cluster.par.ParHandle` whose ``run(...)`` executes
        the topology under the conservative windowed parallel runner —
        node-sharded across ``N`` processes, byte-identical to serial.
        """
        if shards is None:
            if not self._linked and len(self._cluster.nodes) > 1:
                self._cluster.connect_all()
            self._cluster.build_routes()
            return self._cluster
        if not isinstance(shards, int) or shards < 1:
            raise LabStorError(f"shards must be a positive int, got {shards!r}")
        if self._cluster_kw.get("env") is not None:
            raise LabStorError(
                "build(shards=N) owns its environments per node-world; "
                "drop env= from cluster(...)"
            )
        from .par import ParHandle

        # the eagerly-built parent Cluster is discarded unrouted: shard
        # worlds rebuild their node subset from the frozen spec instead;
        # a one-way link fails here, as it does in build_routes, not
        # inside a forked shard
        spec = self._freeze_spec()
        for name in spec.node_names():
            spec.peers(name)
        return ParHandle(spec, shards)


def cluster(**kw) -> ClusterBuilder:
    """Begin a fluent cluster composition::

        cl = cluster(seed=3).node("n0").node("n1").build()
    """
    return ClusterBuilder(**kw)
