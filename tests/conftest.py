"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture
def determinism_check():
    """Assert a program produces an identical trace digest on every run.

    Takes a :class:`repro.sim.par.Program` instance — a
    ``repro.snap.programs.PROGRAMS`` entry or a test-local subclass — and
    runs it ``runs`` times on the runner its world count picks
    (``repro.sim.check.audit_program``): one world on the audited serial
    path, several under the sharded runner at ``shards=1``.  Returns the
    common digest.
    """
    from repro.sim.check import audit_program

    def _check(program, runs=2, strict=True):
        digests = [audit_program(program, strict=strict)[0] for _ in range(runs)]
        assert len(set(digests)) == 1, f"non-deterministic trace stream: {digests}"
        return digests[0]

    return _check
