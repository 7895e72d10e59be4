"""One cluster model: the shared-clock :class:`~repro.cluster.Cluster`
and the per-node worlds of :mod:`repro.sim.par` run the same route
halves, so the same workload must give the same virtual results in both.

Elapsed time is measured from driver start to the last client's
completion in both models.  ``E14ParProgram.reduce`` reads each world's
clock at ``finish`` instead, which also counts daemon events that run
after the last client op, up to the end of the last window.
"""

import pytest

from repro.cluster.par import E14ParProgram
from repro.experiments.cluster_scaling import run_cluster_scaling
from repro.sim.check import reset_global_counters
from repro.sim.par import run_program
from repro.snap.programs import PROGRAMS
from repro.snap.replay import straight_run

LINK_NS = 1500  # FabricCost's default, which run_cluster_scaling uses
GRID = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)]


class _StampedE14(E14ParProgram):
    """E14 under the sharded runner, stamping each client's completion."""

    def __init__(self, seed=0, **kw):
        super().__init__(seed, link_lat_ns=LINK_NS, **kw)
        self.done_ns = {}

    def lookahead_ns(self):
        # every link has the same cost; a one-node spec has no link to
        # derive it from
        return self.link_lat_ns

    def _loop(self, kvs, i):
        yield from super()._loop(kvs, i)
        self.done_ns[i] = kvs.env.now


def _par_e14(nnodes, replicas, **kw):
    """Run in one process (shards=1), so the stamps land on ``prog``."""
    reset_global_counters()
    prog = _StampedE14(0, nnodes=nnodes, replicas=replicas, **kw)
    return run_program(prog, shards=1), prog.done_ns


@pytest.mark.parametrize("nnodes,replicas", GRID)
def test_e14_shared_clock_equals_per_node_worlds(nnodes, replicas):
    reset_global_counters()
    shared = run_cluster_scaling(nnodes=nnodes, replicas=replicas,
                                 nclients=32, ops_per_client=16, seed=0)
    res, done = _par_e14(nnodes, replicas, nclients=32, ops_per_client=16)
    par = res.reduced
    assert len(done) == 32
    elapsed_ns = max(done.values()) - E14ParProgram.epoch_ns
    assert elapsed_ns / 1e6 == shared["elapsed_ms"]
    for key in ("remote_calls", "fabric_MB", "fanout_failovers"):
        assert par[key] == shared[key], key
    if nnodes > 1:
        assert shared["remote_calls"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_program_equals_cluster_par(seed):
    reset_global_counters()
    shared = straight_run(PROGRAMS["cluster"](seed)).result
    reset_global_counters()
    par = run_program(PROGRAMS["cluster-par"](seed), shards=1).reduced
    for key in ("hits", "remote_calls", "failovers", "nacks"):
        assert par[key] == shared[key], key
    assert shared["nacks"] > 0, "the power cut produced no NACK"
