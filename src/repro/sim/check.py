"""Determinism checker: replay a program and compare trace hashes.

The reproducibility contract of the DES kernel is that a seeded program
always produces the same event stream.  This module makes that claim
testable: it runs a registered program (``repro.snap.programs.PROGRAMS``)
twice in the same process, hashes every trace event (spans plus, for
one-world programs, the sanitizer's ``san.*`` kernel audit stream), and
reports whether the two digests match — alongside the sanitizer's
invariant report for each run.

Usage::

    python -m repro.sim.check                    # every program, twice each
    python -m repro.sim.check quickstart         # one program
    python -m repro.sim.check --list
    python -m repro.sim.check cluster-par --shards 1,2,4   # multi-world only

or from a test via the ``determinism_check`` pytest fixture
(``tests/conftest.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from typing import Any

from .core import Environment
from .sanitizer import Sanitizer
from .trace import TraceEvent

__all__ = [
    "TraceHasher",
    "AuditRun",
    "CounterScope",
    "reset_global_counters",
    "audit_program",
    "main",
]


def _canon(v: Any) -> str:
    """Stable projection of a trace-event field for hashing.

    Scalars hash by value; arbitrary objects hash by type name only, so
    memory addresses and process-global ids never leak into the digest.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return type(v).__name__


class TraceHasher:
    """A tracer sink folding every event into one SHA-256 digest.

    With ``arm_at_ns`` set, events before that virtual timestamp are
    counted (``skipped``) but not hashed — the digest then covers only
    the event-stream *suffix* from T on.  That is the seam replay-to-point
    restore needs: a restored run hashes nothing during replay and must
    match the armed digest of an unbroken run byte-for-byte
    (:mod:`repro.snap.replay`).
    """

    def __init__(self, arm_at_ns: int | None = None) -> None:
        self._h = hashlib.sha256()
        self.count = 0
        self.skipped = 0
        self.arm_at_ns = arm_at_ns

    def __call__(self, ev: TraceEvent) -> None:
        if self.arm_at_ns is not None and ev.time_ns < self.arm_at_ns:
            self.skipped += 1
            return
        parts = [str(ev.time_ns), ev.category]
        parts += [f"{k}={_canon(ev.fields[k])}" for k in sorted(ev.fields)]
        self._h.update("|".join(parts).encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class AuditRun:
    """One sanitized, hashed program execution.

    The serial runner (:func:`repro.snap.replay.straight_run`) calls
    :meth:`attach` on the world's Environment *before* building the
    program.  Afterwards :attr:`digest` is the trace hash and
    :meth:`finish` yields the sanitizer's teardown report.
    """

    def __init__(self, strict: bool = True, arm_at_ns: int | None = None) -> None:
        self.hasher = TraceHasher(arm_at_ns=arm_at_ns)
        self.sanitizer = Sanitizer(strict=strict)
        self.env: Environment | None = None

    def attach(self, env: Environment) -> Environment:
        self.env = env
        self.sanitizer.install(env)
        env.tracer.add_sink(self.hasher)
        return env

    def finish(self) -> dict[str, Any]:
        return self.sanitizer.finish()

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


#: every module-global identity counter: (module, attribute, start)
_COUNTER_SITES = (
    ("repro.builder", "_uuid_seq", 1),
    ("repro.core.client", "_pids", 1000),
    ("repro.core.labstack", "_stack_ids", 1),
    ("repro.core.requests", "_req_ids", 1),
    ("repro.devices.base", "_req_ids", 1),
    ("repro.ipc.queue_pair", "_qids", 1),
    ("repro.ipc.shmem", "_seg_ids", 1),
    ("repro.mods.labfs.log", "_seq", 1),
)


def _counter_modules() -> list[tuple[Any, str, int]]:
    import importlib

    return [(importlib.import_module(mod), attr, start)
            for mod, attr, start in _COUNTER_SITES]


def reset_global_counters() -> None:
    """Rewind every module-level id counter to its import-time start.

    Request/queue/segment/stack ids come from process-global counters, and
    process names (hashed via ``san.step``) embed them — so back-to-back
    runs of one program must start from identical counter state to be
    comparable.
    """
    for module, attr, start in _counter_modules():
        setattr(module, attr, itertools.count(start))


class CounterScope:
    """A private identity-counter universe.

    The sharded runner (:mod:`repro.sim.par`) hosts several node-worlds
    per process; were they to share the process-global counters, the ids
    a world draws would depend on which *other* worlds it cohabits with
    — and differ between ``shards=1`` and forked runs.  Each world owns
    a scope and :meth:`activate`\\ s it before executing, so every draw
    depends only on that world's own history: the exact values it would
    draw running alone in a fork.
    """

    def __init__(self) -> None:
        self._sites = [(module, attr, itertools.count(start))
                       for module, attr, start in _counter_modules()]

    def activate(self) -> None:
        for module, attr, counter in self._sites:
            setattr(module, attr, counter)


def audit_program(program, strict: bool = True) -> tuple[str, dict[str, Any]]:
    """Run a :class:`~repro.sim.par.Program` once on the runner its world
    count picks; returns ``(digest, report)``.

    One world runs on the audited serial path: the report is the
    sanitizer's, plus ``result`` and ``trace_events``.  Several worlds run
    in-process under :func:`~repro.sim.par.run_program` with trace
    collection: the digest is the merged one, ``result`` the reduced
    value, and no sanitizer is armed (``checks`` is empty).
    """
    if len(program.nodes()) == 1:
        from ..snap.replay import straight_run

        out = straight_run(program, strict=strict)
        return out.digest, dict(out.report, result=out.result,
                                trace_events=out.trace_events)
    from .par import run_program

    res = run_program(program, trace=True)
    return res.digest, {"result": res.reduced, "trace_events": res.merged_events,
                        "checks": {}, "violations": []}


def _main_shards(names: list[str], shards: list[int], seed: int) -> int:
    """``--shards`` mode: run each multi-world program once per shard
    count under the sharded runner and require every merged digest to be
    byte-identical to the first count's."""
    from ..snap.programs import PROGRAMS
    from .par import run_program

    failed = False
    for name in names:
        digests = {}
        for n in shards:
            res = run_program(PROGRAMS[name](seed), shards=n, trace=True)
            digests[n] = (res.digest, res.merged_events)
        base, base_events = digests[shards[0]]
        ok = all(d == base for d, _ in digests.values())
        failed |= not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {base_events} merged "
              f"trace events across shards={{{','.join(map(str, shards))}}}")
        for n in shards:
            d, _ = digests[n]
            mark = "" if d == base else "   <-- DIVERGES FROM shards=1"
            print(f"       shards={n}: {d}{mark}")
    return 1 if failed else 0


def shard_counts(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    import argparse

    from ..snap.programs import PROGRAMS, registered

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.check",
        description="Run registered programs twice each and compare their "
                    "trace digests; with --shards, once per shard count.",
    )
    parser.add_argument("programs", nargs="*", metavar="program",
                        help="registry entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the registry")
    parser.add_argument("--strict", action="store_true",
                        help="raise on the first sanitizer violation")
    parser.add_argument("--shards", type=shard_counts, metavar="1,2,4",
                        help="compare merged digests across these shard counts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(PROGRAMS))
        return 0
    unknown = [n for n in args.programs if n not in PROGRAMS]
    if unknown:
        parser.error(f"unknown program(s): {', '.join(unknown)}; try --list")
    if args.shards is not None:
        multi = registered(multi_world=True)
        if not args.programs or any(n not in multi for n in args.programs):
            parser.error(f"--shards takes multi-world programs: {', '.join(multi)}")
        return _main_shards(args.programs, args.shards, args.seed)
    failed = False
    for name in args.programs or PROGRAMS:
        d1, r1 = audit_program(PROGRAMS[name](args.seed), strict=args.strict)
        d2, r2 = audit_program(PROGRAMS[name](args.seed), strict=args.strict)
        ok = d1 == d2 and not r1["violations"] and not r2["violations"]
        failed |= not ok
        checks = (f", {sum(r1['checks'].values())} invariant checks" if r1["checks"]
                  else " (merged)")
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {r1['trace_events']} trace events{checks}")
        print(f"       run 1: {d1}")
        print(f"       run 2: {d2}{'' if d1 == d2 else '   <-- NON-DETERMINISTIC'}")
        for i, rep in enumerate((r1, r2), 1):
            for v in rep["violations"]:
                print(f"       run {i} violation: {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
