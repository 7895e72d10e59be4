"""S3 property test: snapshot/restore is invisible to the trace digest.

For every one-world program in the registry × seed, three executions
are compared:

- a **straight** run, hashing the full event stream (and, via a second
  hasher armed at T, the suffix from T on);
- a **snapshot** run — identical program, but paused at T to capture a
  :class:`~repro.snap.ReplaySnapshot` before continuing;
- a **restored** run — replay to T from the snapshot, then run to the
  end with the armed hasher.

The pinned properties: capturing is a pure observer (full digests
byte-identical), and the restored continuation is seamless (suffix
digests byte-identical, results equal).  One broken ``on_snapshot``/
``on_restore`` hook, one RNG stream not rewound, one extra event
injected by the capture — and a digest flips.
"""

import pytest

from repro.snap import restore_run, snapshot_run, straight_run
from repro.snap.programs import PROGRAMS, UpgradeUnderLoadProgram, registered

#: programs pinned at three seeds; every other one-world entry runs seed 0
SEEDS = {"faults": (0, 1, 2), "batching": (0, 1, 2), "cluster": (0, 1, 2)}
CASES = [(name, seed) for name in registered(multi_world=False)
         for seed in SEEDS.get(name, (0,))]


@pytest.mark.parametrize("scenario,seed", CASES)
def test_snapshot_restore_digest_identical(scenario, seed):
    outcome, snap = snapshot_run(PROGRAMS[scenario](seed))
    base = straight_run(PROGRAMS[scenario](seed),
                        arm_at_ns=snap.time_ns)
    # the capture pause injected zero events into the run
    assert outcome.digest == base.digest, (
        f"{scenario}/seed={seed}: mid-run capture perturbed the event stream")
    assert outcome.result == base.result
    # the restored continuation replays to T, verifies state, and its
    # suffix digest matches the unbroken run's armed hasher
    cont = restore_run(snap)
    assert cont.suffix_digest == base.suffix_digest, (
        f"{scenario}/seed={seed}: restored run diverged after the seam")
    assert cont.result == base.result
    assert cont.time_ns == base.time_ns


def test_distinct_seeds_actually_change_the_run():
    """Guard against the property passing vacuously.  (The faults
    program threads its seed into the device RNG, so the whole event
    timeline moves; batching/cluster seeds only reshuffle payload bytes,
    which the trace hash deliberately does not cover.)"""
    a = straight_run(PROGRAMS["faults"](0))
    b = straight_run(PROGRAMS["faults"](1))
    assert a.digest != b.digest


def test_upgrade_under_load_snapshot_mid_upgrade():
    """The E2 rerun: snapshot taken while the hot-swap request is in
    flight under open-loop load; restore is still seamless."""
    outcome, snap = snapshot_run(UpgradeUnderLoadProgram())
    base = straight_run(UpgradeUnderLoadProgram(), arm_at_ns=snap.time_ns)
    assert outcome.digest == base.digest
    cont = restore_run(snap)
    assert cont.suffix_digest == base.suffix_digest
    assert cont.result == base.result
    assert base.result["completed"] == base.result["launched"]
    assert base.result["upgrades_done"] == 1
