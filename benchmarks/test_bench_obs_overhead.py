"""Telemetry overhead: disabled repro.obs must cost only a flag check.

Runs the Fig 4(a)-style anatomy workload with telemetry off and on in
interleaved pairs, records the median host wall-time per op of each side
and the median per-pair enabled delta with its interquartile range, and
asserts that the disabled path perturbs nothing: identical virtual end
time, no spans allocated, no tracer sinks armed.
"""

import statistics
import time

from repro.core.runtime import RuntimeConfig
from repro.mods.generic_fs import GenericFS
from repro.obs import Telemetry
from repro.system import LabStorSystem

from conftest import write_bench_artifact

NOPS = 256
BS = 4096
#: interleaved off/on pairs; the delta is the median over pairs
PAIRS = 15


def _run_workload(telemetry):
    sys_ = LabStorSystem(
        devices=("nvme",), config=RuntimeConfig(nworkers=1), telemetry=telemetry
    )
    sys_.stack("fs::/b").fs(variant="all").device("nvme").uuid_prefix("bench").mount()
    gfs = GenericFS(sys_.client())

    def scenario():
        fd = yield from gfs.open("fs::/b/f", create=True)
        for i in range(NOPS):
            yield from gfs.write(fd, b"w" * BS, offset=i * BS)
        for i in range(NOPS):
            yield from gfs.read(fd, BS, offset=i * BS)

    t0 = time.perf_counter()
    sys_.run(sys_.process(scenario()))
    wall = time.perf_counter() - t0
    vnow = sys_.env.now
    sys_.shutdown()
    return wall, vnow, sys_


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def test_bench_obs_overhead(benchmark):
    def once():
        # interleave off/on pairs so host drift hits both sides alike; each
        # pair yields one enabled delta, and the median over pairs is robust
        # to a scheduling hiccup on either side
        walls_off, walls_on = [], []
        vt_off = vt_on = None
        for _ in range(PAIRS):
            w, vt_off, sys_off = _run_workload(False)
            walls_off.append(w)
            assert sys_off.telemetry is None
            assert not sys_off.env.tracer.obs
            assert not sys_off.env.tracer.enabled

            telemetry = Telemetry()
            w, vt_on, _ = _run_workload(telemetry)
            walls_on.append(w)
            assert telemetry.closed_total == 2 * NOPS + 1  # writes + reads + open
        return walls_off, walls_on, vt_off, vt_on

    walls_off, walls_on, vt_off, vt_on = benchmark.pedantic(once, rounds=1, iterations=1)

    # telemetry is passive: armed or not, the simulated timeline is identical
    assert vt_off == vt_on

    deltas = [(on - off) / off * 100 for off, on in zip(walls_off, walls_on)]
    q1, delta_pct, q3 = _quartiles(deltas)
    per_op_off_us = statistics.median(walls_off) / (2 * NOPS) * 1e6
    per_op_on_us = statistics.median(walls_on) / (2 * NOPS) * 1e6
    row = {
        "pairs": PAIRS,
        "per_op_off_us": round(per_op_off_us, 2),
        "per_op_on_us": round(per_op_on_us, 2),
        "enabled_delta_pct": round(delta_pct, 1),
        "enabled_delta_iqr_pct": [round(q1, 1), round(q3, 1)],
    }
    benchmark.extra_info.update(row)
    write_bench_artifact(
        "obs_overhead", [row], figure="telemetry overhead",
        method=f"median of {PAIRS} interleaved off/on pairs; IQR of the per-pair delta",
    )
    print(
        f"\ntelemetry off: {per_op_off_us:.2f} us/op   "
        f"on: {per_op_on_us:.2f} us/op   (enabled delta {delta_pct:+.1f}%, "
        f"IQR {q1:+.1f}%..{q3:+.1f}%, {PAIRS} pairs)"
    )
