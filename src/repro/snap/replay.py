"""Replay-to-point snapshots of mid-flight runs.

Python generators — the substance of every simulated process — cannot
be pickled, so a mid-flight snapshot cannot serialize continuations
directly.  Instead, a :class:`ReplaySnapshot` records the *recipe*: the
deterministic one-world :class:`~repro.sim.par.Program` (seed included), the
virtual pause timestamp, the ordered history of mutation steps applied
along the way, and content digests of all durable state at the pause.

``restore()`` rebuilds the in-flight processes by replaying the program
from t=0 to the pause point with trace hashing suppressed (the hasher
arms exactly at T), then verifies the replayed durable state against
the captured digests — any mismatch raises
:class:`~repro.errors.ReplayDivergence` instead of silently continuing
from different state.  The restored run then continues on the original
timeline: its armed digest must be byte-identical to the suffix digest
of an unbroken run (see ``tests/test_snap_determinism.py``).

This is the honest answer to generator persistence the gem5 checkpoint
papers arrive at too: replay what you cannot serialize, and let an
automated determinism check prove the seam invisible.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..errors import ReplayDivergence, SnapshotError
from ..sim.check import AuditRun, TraceHasher
from ..sim.core import Event
from ..sim.par import ParWorld
from .state import SystemSnapshot

__all__ = [
    "ReplaySnapshot",
    "RestoredRun",
    "RunOutcome",
    "straight_run",
    "snapshot_run",
    "restore_run",
]


class RunOutcome:
    """What one audited program execution produced."""

    __slots__ = ("digest", "suffix_digest", "result", "report", "trace_events", "time_ns")

    def __init__(self, digest, suffix_digest, result, report, trace_events, time_ns):
        self.digest = digest
        self.suffix_digest = suffix_digest
        self.result = result
        self.report = report
        self.trace_events = trace_events
        self.time_ns = time_ns


def _launch(program, audit: AuditRun, suffix=None) -> tuple[ParWorld, Event]:
    """Build a one-world program's world under ``audit`` (plus the
    ``suffix`` hasher, if any) and start its drivers.  Returns the world
    and the event that fires once every driver is done: the lone driver
    itself, or a join over several (a join is one more hashed event, so
    a single driver is awaited directly)."""
    nodes = program.nodes()
    if len(nodes) != 1:
        from .programs import registered

        raise SnapshotError(
            f"{program.name!r} runs {len(nodes)} worlds; the audited serial "
            f"path (and snapshots) run one-world programs: "
            f"{', '.join(registered(multi_world=False))}")
    world = ParWorld(program, nodes[0])
    audit.attach(world.env)
    if suffix is not None:
        world.env.tracer.add_sink(suffix)
    world.build()
    world.start_drivers()
    procs = world.drivers
    return world, procs[0] if len(procs) == 1 else world.env.all_of(procs)


def straight_run(program, *, strict: bool = True, arm_at_ns: Optional[int] = None) -> RunOutcome:
    """Run a one-world program start to finish under audit.

    ``arm_at_ns`` additionally computes the digest of the event-stream
    *suffix* from that timestamp on (what a restored run must match),
    without a second execution.
    """
    audit = AuditRun(strict=strict)
    suffix = TraceHasher(arm_at_ns=arm_at_ns) if arm_at_ns is not None else None
    world, done = _launch(program, audit, suffix)
    world.env.run(until=done)
    result = program.finish(world)
    report = audit.finish()
    return RunOutcome(
        digest=audit.digest,
        suffix_digest=suffix.hexdigest() if suffix is not None else None,
        result=result,
        report=report,
        trace_events=audit.hasher.count,
        time_ns=world.env.now,
    )


class ReplaySnapshot:
    """A mid-flight snapshot: program + pause time + state digests.

    ``history`` is the ordered list of ``(at_ns, mutate)`` steps applied
    after the drivers start — the snapshot tree's branch edits.  ``mutate``
    callables take the program ctx and must be deterministic; restore
    replays them at the same virtual instants.
    """

    def __init__(
        self,
        program,
        *,
        time_ns: int,
        state: SystemSnapshot,
        history: Optional[list[tuple[int, Callable]]] = None,
    ) -> None:
        self.program = program
        self.time_ns = time_ns
        self.state = state
        self.history = list(history or [])

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        program,
        world: ParWorld,
        *,
        history: Optional[list[tuple[int, Callable]]] = None,
        tag: str = "replay",
    ) -> "ReplaySnapshot":
        """Capture the paused run's durable state (COW — the run may keep
        going; it pays copy-on-write for pages dirtied afterwards)."""
        now = world.env.now
        state = SystemSnapshot.capture(program.target(world), tag=f"{tag}@{now}")
        return cls(program, time_ns=now, state=state, history=history)

    # ------------------------------------------------------------------
    def restore(self, *, strict: bool = True, verify: bool = True) -> "RestoredRun":
        """Replay the program to the pause point and hand back a live run.

        The returned :class:`RestoredRun` sits exactly at the snapshot
        timestamp with all in-flight processes reconstructed; its trace
        hasher armed at T so the continued run's digest covers only the
        suffix — comparable byte-for-byte with a straight run's armed
        digest.
        """
        audit = AuditRun(strict=strict, arm_at_ns=self.time_ns)
        wall_start = time.perf_counter()
        world, done = _launch(self.program, audit)
        env = world.env
        if self.time_ns <= env.now:
            raise SnapshotError(
                f"pause point {self.time_ns} not after build end ({env.now})"
            )
        for at_ns, mutate in self.history:
            if at_ns > env.now:
                env.run(until=at_ns)
            mutate(world.ctx)
        if self.time_ns > env.now:
            env.run(until=self.time_ns)
        replay_wall_s = time.perf_counter() - wall_start
        if done.triggered:
            raise SnapshotError(
                f"program finished before the pause point {self.time_ns}"
            )
        if verify:
            mismatches = self.state.verify_against(self.program.target(world))
            if mismatches:
                raise ReplayDivergence(
                    "replayed state diverged from the capture:\n  "
                    + "\n  ".join(mismatches)
                )
        return RestoredRun(
            snapshot=self,
            audit=audit,
            world=world,
            done=done,
            replay_wall_s=replay_wall_s,
            replayed_events=audit.hasher.skipped,
        )


class RestoredRun:
    """A live run sitting at the snapshot point, ready to continue."""

    def __init__(self, *, snapshot, audit, world, done, replay_wall_s, replayed_events):
        self.snapshot = snapshot
        self.program = snapshot.program
        self.audit = audit
        self.world = world
        self.env = world.env
        self.ctx = world.ctx
        #: fires once every driver is done
        self.done = done
        self.replay_wall_s = replay_wall_s
        self.replayed_events = replayed_events

    def run_until(self, at_ns: int) -> None:
        if at_ns > self.env.now:
            self.env.run(until=at_ns)

    def finish(self) -> RunOutcome:
        """Continue to program completion; digest covers only the suffix."""
        self.env.run(until=self.done)
        result = self.program.finish(self.world)
        report = self.audit.finish()
        return RunOutcome(
            digest=None,
            suffix_digest=self.audit.digest,
            result=result,
            report=report,
            trace_events=self.audit.hasher.count,
            time_ns=self.env.now,
        )


def snapshot_run(
    program,
    *,
    at_ns: Optional[int] = None,
    strict: bool = True,
    tag: str = "replay",
) -> tuple[RunOutcome, ReplaySnapshot]:
    """Run a one-world program to completion, pausing once at ``at_ns``
    (default: the program's ``pause_point``) to capture a ReplaySnapshot.

    The capture is pure bookkeeping between two ``env.run()`` calls — no
    events are injected — so the full digest of this run must equal a
    straight run's digest (the property test pins exactly that).
    """
    audit = AuditRun(strict=strict)
    world, done = _launch(program, audit)
    env = world.env
    pause = at_ns if at_ns is not None else program.pause_point(world)
    if pause is None:
        raise SnapshotError(f"{program.name!r} declares no pause point; pass at_ns")
    if pause <= env.now:
        raise SnapshotError(f"pause point {pause} not after build end ({env.now})")
    env.run(until=pause)
    if done.triggered:
        raise SnapshotError(f"program finished before the pause point {pause}")
    snap = ReplaySnapshot.capture(program, world, tag=tag)
    env.run(until=done)
    result = program.finish(world)
    report = audit.finish()
    outcome = RunOutcome(
        digest=audit.digest,
        suffix_digest=None,
        result=result,
        report=report,
        trace_events=audit.hasher.count,
        time_ns=env.now,
    )
    return outcome, snap


def restore_run(snapshot: ReplaySnapshot, *, strict: bool = True, verify: bool = True) -> RunOutcome:
    """Convenience: restore + finish in one call."""
    return snapshot.restore(strict=strict, verify=verify).finish()
