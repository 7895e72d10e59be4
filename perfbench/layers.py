"""Per-layer host-time attribution for the traced run.

The tracer wraps each layer's entry points from outside the program: the
methods through which the engine, or another layer, calls into it.  A
plain call is one span; a generator is timed on every resumption, since
the engine drives generators one ``send`` at a time.  A span's self time
is its duration minus the spans nested inside it, so self times add up to
the time spent inside wrapped code.  ``Environment.run`` is itself an
entry point of the ``sim`` layer, which makes engine self time the wall
time of ``Environment.run`` minus everything wrapped inside it.  A few
entry points are waits rather than work (see :data:`IDLE_ENTRY_POINTS`):
they are charged to no layer, but still taken out of their caller's self
time.

Spans are kept in memory (name, start, end, parent, ``req_id`` where the
call carries a request) up to a cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "LAYER_OF_MODULE", "UNMEASURED", "IDLE", "ENTRY_POINTS",
           "IDLE_ENTRY_POINTS", "layer_of", "LayerTracer"]

#: the measured layers, named after the ``repro`` modules
LAYERS = ("sim", "core", "ipc", "mods", "devices", "obs", "traffic", "cluster", "par")
#: code no open item optimises; it runs inside whichever layer calls it
UNMEASURED = "unmeasured"
#: time spent waiting, which is no layer's work
IDLE = "idle"

#: module prefix -> layer; the longest dotted prefix wins
LAYER_OF_MODULE = {
    "repro.sim": "sim",
    "repro.sim.par": "par",
    "repro.core": "core",
    "repro.builder": "core",
    "repro.system": "core",
    "repro.config": "core",
    "repro.errors": "core",
    "repro.units": "core",
    "repro.ipc": "ipc",
    "repro.mods": "mods",
    "repro.devices": "devices",
    "repro.obs": "obs",
    "repro.traffic": "traffic",
    "repro.cluster": "cluster",
    "repro.workloads": "workload",
    "repro.experiments": "workload",
    "repro.kernel": UNMEASURED,
    "repro.faults": UNMEASURED,
    "repro.ctl": UNMEASURED,
    "repro.snap": UNMEASURED,
    "repro.pfs": UNMEASURED,
    "repro.cli": UNMEASURED,
}


def layer_of(module: str) -> Optional[str]:
    """Layer of a dotted module name, or None if no prefix maps it."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = LAYER_OF_MODULE.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


def all_modules(package: str = "repro") -> list[str]:
    """Every module and subpackage below ``package``."""
    pkg = importlib.import_module(package)
    return sorted(m.name for m in pkgutil.walk_packages(pkg.__path__, prefix=package + "."))


#: ``module:Class.method`` entry points; LabMod ``handle`` methods are
#: found by :func:`labmod_entry_points`
ENTRY_POINTS = (
    "repro.sim.core:Environment.run",
    "repro.sim.core:Environment.step",
    "repro.core.client:LabStorClient.call",
    "repro.core.client:LabStorClient.submit_batch",
    "repro.core.client:LabStorClient._poll_completions",
    "repro.core.workers:Worker._loop",
    "repro.core.workers:Worker._run_request",
    "repro.core.runtime:LabStorRuntime._execute",
    "repro.core.runtime:LabStorRuntime.execute_sync",
    "repro.core.orchestrator:WorkOrchestrator._epoch_loop",
    "repro.core.labmod:LabMod.forward",
    "repro.core.labmod:ExecContext.work",
    "repro.core.labmod:ExecContext.wait",
    "repro.ipc.queue_pair:QueuePair.submit",
    "repro.ipc.queue_pair:QueuePair.submit_batch",
    "repro.ipc.queue_pair:QueuePair.pop_request",
    "repro.ipc.queue_pair:QueuePair.try_pop_request",
    "repro.ipc.queue_pair:QueuePair.complete",
    "repro.ipc.queue_pair:QueuePair.pop_completion",
    "repro.ipc.queue_pair:QueuePair.pop_completion_batch",
    "repro.ipc.queue_pair:QueuePair.sq_nonempty",
    "repro.mods.generic_fs:GenericFS.open",
    "repro.mods.generic_fs:GenericFS.close",
    "repro.mods.generic_fs:GenericFS.read",
    "repro.mods.generic_fs:GenericFS.write",
    "repro.mods.generic_kvs:GenericKVS.get",
    "repro.mods.generic_kvs:GenericKVS.put",
    "repro.mods.cache_lru:LruCacheMod._insert",
    "repro.devices.base:BlockDevice.submit",
    "repro.devices.base:BlockDevice._dispatch_loop",
    "repro.devices.base:BlockDevice._service",
    "repro.devices.base:BlockDevice._service_group",
    "repro.devices.nvme:Nvme._on_complete",
    "repro.obs.telemetry:Telemetry.__call__",
    "repro.obs.spans:SpanContext.mark_doorbell",
    "repro.obs.spans:SpanContext.mark_accept",
    "repro.obs.spans:SpanContext.mark_pop",
    "repro.obs.spans:SpanContext.mark_dispatched",
    "repro.obs.spans:SpanContext.mark_complete",
    "repro.obs.spans:SpanContext.add_cat",
    "repro.obs.spans:SpanContext.add_device_window",
    "repro.obs.spans:SpanContext.enter_mod",
    "repro.obs.spans:SpanContext.exit_mod",
    "repro.obs.spans:SpanContext.close",
    "repro.obs.metrics:MetricsRegistry.inc",
    "repro.obs.metrics:MetricsRegistry.observe",
    "repro.obs.metrics:MetricsRegistry.set_gauge",
    "repro.traffic.engine:OpenLoopEngine.drive",
    "repro.traffic.engine:OpenLoopEngine._arrivals",
    "repro.traffic.engine:OpenLoopEngine._op",
    "repro.traffic.arrivals:PoissonArrivals.next_interarrival_ns",
    "repro.traffic.arrivals:BurstyArrivals.next_interarrival_ns",
    "repro.traffic.arrivals:DiurnalArrivals.next_interarrival_ns",
    "repro.traffic.ycsb:YcsbWorkload.make_op",
    "repro.traffic.ycsb:YcsbWorkload._read",
    "repro.traffic.ycsb:YcsbWorkload._update",
    "repro.traffic.ycsb:YcsbWorkload._rmw",
    "repro.cluster.kvs:ShardedKVS.put",
    "repro.cluster.kvs:ShardedKVS.get",
    "repro.cluster.kvs:ShardedKVS._fanout",
    "repro.cluster.node:ClusterClient.call",
    "repro.cluster.node:ClusterClient.call_on",
    "repro.cluster.routing:RemoteRoute.call",
    "repro.cluster.routing:RemoteRoute.deliver",
    "repro.cluster.routing:RemoteRoute._tx_loop",
    "repro.cluster.routing:RemoteRoute._rx_loop",
    "repro.cluster.routing:RouteExecutor.deliver",
    "repro.cluster.routing:RouteExecutor._handle",
    "repro.cluster.fabric:FabricLink.transfer",
    "repro.cluster.fabric:FabricLink.send",
    "repro.sim.par:run_program",
    "repro.sim.par:ShardHost.setup",
    "repro.sim.par:ShardHost.step",
    "repro.sim.par:ShardHost.finish",
    "repro.sim.par:ParWorld.inject",
    "repro.sim.par:ParWorld.drain_outbox",
)

#: what the coordinator of a forked ``run_program`` does besides its own
#: work: fork a shard (set-up), block on a shard's reply at a barrier (the
#: shard's work, reported as ``par.barrier_wait_s``) and join a shard
#: that is exiting (teardown)
IDLE_ENTRY_POINTS = (
    "repro.sim.par:_ForkedShard.__init__",
    "repro.sim.par:_ForkedShard.wait",
    "repro.sim.par:_ForkedShard.close",
)

#: entry point -> position of the request argument (``self`` is 0)
REQ_ARG = {
    "LabStorClient.call": 2,
    "Worker._run_request": 2,
    "LabStorRuntime._execute": 1,
    "QueuePair.submit": 1,
}


def labmod_entry_points() -> list[str]:
    """``handle`` of every LabMod class defined under ``repro.mods``."""
    from repro.core.labmod import LabMod

    for name in all_modules("repro.mods"):
        importlib.import_module(name)
    out = []
    todo = [LabMod]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.mods") and "handle" in cls.__dict__:
            out.append(f"{cls.__module__}:{cls.__qualname__}.handle")
    return sorted(set(out))


def _resolve(entry: str) -> tuple[Any, str, Callable]:
    module, _, path = entry.partition(":")
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


class LayerTracer:
    """Wraps every entry point while installed; see the module docstring.

    One tracer serves one traced rep.  :meth:`reset` at the start of the
    measured phase drops what set-up recorded; :meth:`export` returns the
    totals as plain data, which is how forked shards send theirs home.
    """

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.keys: list[str] = []
        self.key_layer: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.errors: Counter = Counter()
        self.spans: list = []
        self.stack: list[list] = []
        self.missing: list[str] = []
        self.heap_max = 0
        self.evictions = 0
        self.batch_ops = 0
        self.dev_reqs: list = []
        self.env = None
        self._orig: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def install(self) -> "LayerTracer":
        for entry in ENTRY_POINTS + IDLE_ENTRY_POINTS + tuple(labmod_entry_points()):
            try:
                owner, attr, fn = _resolve(entry)
            except (AttributeError, KeyError):
                self.missing.append(entry)
                continue
            layer = IDLE if entry in IDLE_ENTRY_POINTS else layer_of(fn.__module__)
            self._orig.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(entry.partition(":")[2], fn, layer or UNMEASURED))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._orig):
            setattr(owner, attr, fn)
        self._orig.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        """Forget everything recorded so far.  Open spans stay open but
        restart now, so they are charged only for what follows."""
        for i in range(len(self.self_s)):
            self.self_s[i] = 0.0
            self.calls[i] = 0
        self.errors.clear()
        self.spans.clear()
        self.heap_max = 0
        self.evictions = 0
        self.batch_ops = 0
        self.dev_reqs.clear()
        now = perf_counter()
        for frame in self.stack:
            frame[0], frame[1], frame[2] = now, 0.0, -1

    def _sample_heap(self) -> None:
        n = len(self.env._heap)
        if n > self.heap_max:
            self.heap_max = n

    # -- wrappers ------------------------------------------------------
    def wrap(self, key: str, fn: Callable, layer: str) -> Callable:
        """``fn`` timed as ``key`` and charged to ``layer``."""
        kid = len(self.keys)
        self.keys.append(key)
        self.key_layer.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        pre, post = self._hooks(key)
        req_at = REQ_ARG.get(key)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, kid, req_at, pre, post)
        return self._wrap_plain(fn, kid, req_at, pre, post)

    def _hooks(self, key: str):
        tr = self
        # the event heap is sampled as each request enters the client and
        # as each run (a sharded world's window) returns
        if key == "Environment.run":
            def pre(args):
                tr.env = args[0]

            def post(args, state):
                tr._sample_heap()
            return pre, post
        if key == "LabStorClient.call":
            def pre(args):
                if tr.env is not None:
                    tr._sample_heap()
            return pre, None
        if key == "BlockDevice.submit":
            def pre(args):
                tr.dev_reqs.append((id(args[0]), args[1]))
            return pre, None
        if key == "QueuePair.submit_batch":
            def pre(args):
                tr.batch_ops += len(args[1])
            return pre, None
        if key == "LruCacheMod._insert":
            def pre(args):
                cache, page = args[0], args[1]
                return len(cache.pages) + (page not in cache.pages)

            def post(args, grown):
                tr.evictions += grown - len(args[0].pages)
            return pre, post
        return None, None

    def _open(self, kid: int, rid) -> list:
        """Push a frame ``[start, nested time, span index]``."""
        stack, spans = self.stack, self.spans
        sid = -1
        if len(spans) < self.max_spans:
            sid = len(spans)
            spans.append((kid, 0.0, 0.0, stack[-1][2] if stack else -1, rid))
        frame = [0.0, 0.0, sid]
        stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _close(self, kid: int, frame: list, t1: float) -> None:
        stack = self.stack
        stack.pop()
        t0 = frame[0]
        dt = t1 - t0
        self.self_s[kid] += dt - frame[1]
        if stack:
            stack[-1][1] += dt
        sid = frame[2]
        if sid >= 0:
            old = self.spans[sid]
            self.spans[sid] = (kid, t0, t1, old[3], old[4])

    def _wrap_plain(self, fn, kid, req_at, pre, post):
        tr = self
        calls, errors = self.calls, self.errors

        def wrapper(*args, **kw):
            calls[kid] += 1
            state = pre(args) if pre is not None else None
            rid = getattr(args[req_at], "req_id", None) if req_at is not None else None
            frame = tr._open(kid, rid)
            try:
                return fn(*args, **kw)
            except BaseException as exc:
                errors[(kid, type(exc).__name__)] += 1
                raise
            finally:
                tr._close(kid, frame, perf_counter())
                if post is not None:
                    post(args, state)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, fn, kid, req_at, pre, post):
        tr = self
        calls, errors = self.calls, self.errors

        def drive(gen, args, rid, state):
            send, throw = gen.send, gen.throw
            value = None
            exc: Optional[BaseException] = None
            out: list = []
            while True:
                frame = tr._open(kid, rid)
                try:
                    if exc is None:
                        out.append(send(value))
                    else:
                        err, exc = exc, None
                        out.append(throw(err))
                except StopIteration as stop:
                    tr._close(kid, frame, perf_counter())
                    if post is not None:
                        post(args, state)
                    return stop.value
                except BaseException as err:
                    tr._close(kid, frame, perf_counter())
                    errors[(kid, type(err).__name__)] += 1
                    raise
                tr._close(kid, frame, perf_counter())
                try:
                    # pop before yielding: holding the event would keep the
                    # engine from recycling it
                    value = yield out.pop()
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # thrown in by the engine
                    exc, value = err, None

        def wrapper(*args, **kw):
            calls[kid] += 1
            state = pre(args) if pre is not None else None
            rid = getattr(args[req_at], "req_id", None) if req_at is not None else None
            gen = fn(*args, **kw)
            traced = drive(gen, args, rid, state)
            traced.__name__ = gen.__name__  # process names come from it
            return traced

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------
    def device_busy_ns(self) -> list[int]:
        """Per device: virtual ns with at least one request inside it."""
        by_dev: dict[int, list[tuple[int, int]]] = {}
        for dev, req in self.dev_reqs:
            end = getattr(req, "complete_ns", None)
            if end is not None:
                by_dev.setdefault(dev, []).append((req.submit_ns, end))
        out = []
        for dev in sorted(by_dev):
            busy, cur_lo, cur_hi = 0, None, None
            for lo, hi in sorted(by_dev[dev]):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        busy += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                busy += cur_hi - cur_lo
            out.append(busy)
        return out

    def export(self) -> dict:
        """Totals since the last :meth:`reset`, as plain data."""
        return {
            "pid": os.getpid(),
            "self_s": {k: s for k, s in zip(self.keys, self.self_s) if s},
            "calls": {k: c for k, c in zip(self.keys, self.calls) if c},
            "layer": dict(zip(self.keys, self.key_layer)),
            "errors": {f"{self.keys[k]}:{name}": n
                       for (k, name), n in sorted(self.errors.items())},
            "heap_max": self.heap_max,
            "evictions": self.evictions,
            "batch_ops": self.batch_ops,
            "device_busy_ns": self.device_busy_ns(),
            # a span's parent is its index in this list; still-open spans
            # have no end
            "spans": [(self.keys[k], t0, t1 or None, parent, rid)
                      for (k, t0, t1, parent, rid) in self.spans],
            "missing": list(self.missing),
        }


def write_spans(path: str, exports: list[dict]) -> int:
    """Write every export's spans as JSON lines; returns the count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    n = 0
    with open(path, "w") as fh:
        for ex in exports:
            layer = ex["layer"]
            for name, t0, t1, parent, rid in ex["spans"]:
                fh.write(json.dumps({
                    "pid": ex["pid"], "name": name, "layer": layer.get(name),
                    "start_s": t0, "end_s": t1, "parent": parent, "req_id": rid,
                }) + "\n")
                n += 1
    return n
