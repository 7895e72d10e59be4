#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload blk-fio --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each workload has a fixed number of
inputs drawn from ``--seed``; the run cycles through them for
``--seconds`` (at least once through, plus one repeat).  Virtual metrics
aggregate the inputs' first runs and must repeat exactly.  Host metrics
are medians over every run but the first, which warms up; each run is
bracketed by two calibration samples and its host times are scaled to a
reference host speed (see :func:`host_scale`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs the
first inputs once more under the layer tracer and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON
object; the full result, with its host block and digests, goes to
``perfbench/out/results/``.  A failed correctness check exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: inputs a traced run also runs under the tracer (and cross-checks)
TRACED_INPUTS = 4
#: ``repro.sim.profile.calibrate`` score of the reference host, in
#: calibration ops per second: an unloaded 2-vCPU x86-64 VM, Python 3.11
REF_CAL_OPS_PER_S = 2.0e6
#: calibration ops in each sample that brackets a timed rep (~60 ms on
#: the reference host)
CAL_OPS = 120_000


def spec() -> dict:
    """BENCHMARK.json: the metrics a run reports, with units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_block() -> dict:
    from repro.sim.profile import calibrate

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "calibrate_ops_per_s": calibrate(),
    }


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def cal_sample() -> float:
    from repro.sim.profile import calibrate

    return calibrate(repeat=1, n=CAL_OPS)


def host_scale(cal_before: float, cal_after: float) -> float:
    """Factor from this host's speed during a rep to the reference host's.

    ``cal_before`` and ``cal_after`` are calibration scores taken right
    before and after the rep.  Other tenants of a shared host slow the
    CPU by tens of percent for seconds to minutes; they slow the
    calibration kernel (the engine's bytecode mix in miniature) alike,
    so a host rate times this factor reads the program's speed rather
    than the neighbours' load."""
    return REF_CAL_OPS_PER_S / ((cal_before + cal_after) / 2)


def end_to_end(first: list, timed: list, rss_mb: float) -> dict:
    """The end-to-end metrics from the inputs' first reps (virtual) and
    the timed ``(rep, scale)`` pairs (host, see :func:`host_scale`).

    p50 pools every op of every input; p99 is taken per input and the
    median over inputs, which resists the odd input whose burst builds a
    long backlog."""
    from workloads import fail_frac, pct

    virt_ns = sum(r.virt_ns for r in first)
    return {
        "setup_s": median([r.setup_s / scale for r, scale in timed]),
        "host_ops_per_s": median([r.ops / r.measured_s * scale for r, scale in timed]),
        "peak_rss_mb": rss_mb,
        "virt_kops": sum(r.ops for r in first) / virt_ns * 1e6,
        "virt_p50_us": pct([v for r in first for v in r.lat_ns], 50) / 1e3,
        "virt_p99_us": median([r.p99_ns for r in first]) / 1e3,
        "goodput_kops": sum(r.good for r in first) / virt_ns * 1e6,
        "ok_frac": 1.0 - fail_frac(attempted=sum(r.attempted for r in first),
                                   failed=sum(r.failed for r in first),
                                   refused=sum(r.refused for r in first),
                                   nacked=sum(r.nacked for r in first)),
    }


def per_layer(traced: list, checks: list, timed: list) -> dict:
    """Per-layer metrics, per rep, from the traced reps ``(rep, exports)``.

    ``timed`` are the measured ``(rep, scale)`` pairs and ``checks`` the
    cross-check runs;
    when a workload has cross-checks, they are what its traced reps trace.
    """
    from layers import LAYERS

    n = len(traced)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    evictions = batch_ops = heap_max = 0
    busy: list[int] = []
    attributed = 0.0
    for rep, exports in traced:
        for i, ex in enumerate(exports):
            for key, s in ex["self_s"].items():
                layer = ex["layer"][key]
                if layer in self_s:
                    self_s[layer] += s
                if i == 0:  # this process only: wall-clock share
                    attributed += s / (rep.traced_wall_s or rep.measured_s) / n
            for key, c in ex["calls"].items():
                calls[key] = calls.get(key, 0) + c
            for key, c in ex["errors"].items():
                errors[key] = errors.get(key, 0) + c
            evictions += ex["evictions"]
            batch_ops += ex["batch_ops"]
            heap_max = max(heap_max, ex["heap_max"])
        busy_rep = [b for ex in exports for b in ex["device_busy_ns"]]
        if busy_rep:
            busy.append(sum(busy_rep) / len(busy_rep) / rep.virt_ns)

    def c(key: str) -> int:
        return calls.get(key, 0)

    def cnt(name: str) -> float:
        return sum(r.counters.get(name, 0) for r, _ in traced) / n

    events = cnt("events")
    doorbells = c("QueuePair.submit") + c("QueuePair.submit_batch")
    submits = c("QueuePair.submit") + batch_ops
    hits, misses = cnt("cache_hits"), cnt("cache_misses")
    rounds = cnt("rounds")
    # raw host rates: the traced reps have no calibration samples
    reps = [r for r, _ in timed]
    untraced = checks or reps
    untraced_rate = median([r.ops / r.measured_s for r in untraced])
    traced_rate = median([r.ops / r.measured_s for r, _ in traced])
    out = {
        "sim.self_s": self_s["sim"] / n,
        "sim.events": events,
        "sim.events_per_s": events / median([r.measured_s for r in untraced]),
        "sim.heap_max": heap_max,
        "sim.pool_reuse_ratio": cnt("pool_reused") / events if events else 0.0,
        "core.calls": (c("LabStorClient.call") + c("LabStorClient.submit_batch")) / n,
        "ipc.submits": submits / n,
        "ipc.ops_per_doorbell": submits / doorbells if doorbells else 0.0,
        "ipc.queue_full": sum(v for k, v in errors.items()
                              if k.startswith("QueuePair.") and k.endswith(":QueueFull")) / n,
        "mods.calls": sum(v for k, v in calls.items() if k.endswith(".handle")) / n,
        "mods.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mods.cache_evictions": evictions / n,
        "devices.ios": cnt("device_ios"),
        "devices.bytes": cnt("device_bytes"),
        "devices.busy_frac_virt": median(busy),
        "obs.spans": cnt("obs_spans"),
        "traffic.arrivals": cnt("arrivals"),
        "traffic.peak_inflight": cnt("peak_inflight"),
        "cluster.remote_calls": cnt("remote_calls"),
        "cluster.nacks": cnt("nacks"),
        "cluster.fabric_mb": cnt("fabric_bytes") / 1e6,
        "par.rounds": rounds,
        "par.messages": cnt("messages"),
        "par.events_per_round": events / rounds if rounds else 0.0,
        "par.busy_s": cnt("busy_s"),
        "par.barrier_wait_s": cnt("barrier_wait_s"),
        # 2-shard over one-process host rate (kvs-cluster only)
        "par.speedup": (untraced_rate / median([r.ops / r.measured_s for r in reps])
                        if checks else 0.0),
        "trace.host_ops_per_s": traced_rate,
        "trace.slowdown": untraced_rate / traced_rate if traced_rate else 0.0,
        "trace.attributed_frac": attributed,
    }
    for layer in ("core", "ipc", "mods", "devices", "obs", "traffic", "cluster", "par"):
        out[f"{layer}.self_s"] = self_s[layer] / n
    for phase in ("submit", "queue", "module", "device", "completion"):
        out[f"virt.{phase}_us"] = cnt(f"virt_{phase}_ns") / 1e3
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (the printed result, the full record)."""
    from layers import LayerTracer, write_spans
    from workloads import WORKLOADS, sub_seed

    wl = WORKLOADS[workload]
    seeds = [sub_seed(workload, seed, k) for k in range(wl.inputs)]
    digests: dict[int, str] = {}
    first: dict[int, object] = {}
    timed: list = []
    checks: list = []
    traced: list = []
    attempted = failed = 0

    def same_virtual(k: int, rep, what: str) -> None:
        from workloads import CheckFailed

        if rep.digest != digests[k]:
            raise CheckFailed(f"input {k}: {what} changed the virtual results")

    t_start = time.perf_counter()
    i = 0
    while True:
        k = i % wl.inputs
        new_input = k not in first
        cal0 = cal_sample() if i > 0 else 0.0
        rep = wl.rep(seeds[k])
        gc.collect()  # between reps, so garbage never piles up across them
        if i > 0:
            timed.append((rep, host_scale(cal0, cal_sample())))
        attempted += rep.attempted
        failed += rep.failed + rep.refused + rep.nacked
        if new_input:
            first[k] = rep
            digests[k] = rep.digest
        same_virtual(k, rep, "a repeat")
        # the cross-check (kvs-cluster: 2 forked shards) runs on the first
        # input, and on the traced inputs of a traced run
        traced_input = new_input and trace and k < TRACED_INPUTS
        if wl.cross_check is not None and (traced_input or (new_input and k == 0)):
            checks.append(wl.cross_check(seeds[k]))
            gc.collect()
            same_virtual(k, checks[-1], "the cross-check")
        if traced_input:
            # spans are kept from the first traced rep only
            with LayerTracer(max_spans=0 if traced else 20_000) as tr:
                trep = wl.traced_rep(seeds[k], tr)
                traced.append((trep, [tr.export()] + list(trep.traced or [])))
            gc.collect()
            same_virtual(k, trep, "tracing")
        i += 1
        if i > wl.inputs and time.perf_counter() - t_start >= seconds:
            break

    # the forked shards of kvs-cluster count too
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    firsts = [first[k] for k in range(wl.inputs)]
    metrics = end_to_end(firsts, timed, rss_kb / 1024)
    unscaled = end_to_end(firsts, [(r, 1.0) for r, _ in timed], 0.0)
    kind = "end_to_end"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reps": i, "inputs": seeds,
        "input_digests": [digests[k] for k in range(wl.inputs)],
        "digest": hashlib.sha256("".join(digests[k] for k in range(wl.inputs))
                                 .encode()).hexdigest(),
        # per timed rep: unscaled host ops/s, unscaled setup s, scale
        "host_samples": [[r.ops / r.measured_s, r.setup_s, scale] for r, scale in timed],
        "end_to_end": dict(metrics),
        # the two host timings at this host's own speed
        "host_unscaled": {m: unscaled[m] for m in ("setup_s", "host_ops_per_s")},
    }
    if trace:
        layer_metrics = per_layer(traced, checks, timed)
        record["per_layer"] = layer_metrics
        spans_path = os.path.join(OUT, "spans", f"{workload}-seed{seed}.jsonl")
        record["spans_written"] = write_spans(spans_path, [ex for _, exs in traced for ex in exs])
        record["trace_missing_entries"] = traced[0][1][0]["missing"]
        metrics = layer_metrics
        kind = "per_layer"
    result = {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec()[kind]},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results"),
                        help="directory for the full result record")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    record["host"] = host_block()
    record["result"] = result
    os.makedirs(args.results, exist_ok=True)
    path = os.path.join(args.results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:<13} {name:<24} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:<13} {'digest':<24} {record['digest'][:16]}  ({record['reps']} reps)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
