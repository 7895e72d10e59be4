"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so a run takes a second or two."""
    monkeypatch.setattr(workloads.BlkFio, "nops", 60)
    monkeypatch.setattr(workloads.BlkFio, "inputs", 2)
    monkeypatch.setattr(workloads.KvsOpenloop, "duration_ms", 2)
    monkeypatch.setattr(workloads.KvsOpenloop, "inputs", 2)


def test_layer_map_covers_every_module():
    unmapped = [m for m in layers.all_modules("repro") if layers.layer_of(m) is None]
    assert unmapped == [], f"modules with no layer: {unmapped}"
    # every subpackage and top-level module is named explicitly, so a new
    # one cannot inherit a layer by accident
    top = {".".join(m.split(".")[:2]) for m in layers.all_modules("repro")}
    assert sorted(top - set(layers.LAYER_OF_MODULE)) == []
    assert set(layers.LAYER_OF_MODULE.values()) <= (
        set(layers.LAYERS) | {layers.UNMEASURED, "workload"})


def test_every_entry_point_resolves_and_uninstall_restores():
    from repro.sim.core import Environment

    run_before = Environment.__dict__["run"]
    tracer = layers.LayerTracer().install()
    try:
        assert tracer.missing == []
        assert Environment.__dict__["run"] is not run_before
        # each entry point belongs to the layer of the module defining it,
        # except the waits, which belong to none
        idle = {e.partition(":")[2] for e in layers.IDLE_ENTRY_POINTS}
        for key, layer in zip(tracer.keys, tracer.key_layer):
            assert (layer == layers.IDLE) if key in idle else (layer in layers.LAYERS), key
    finally:
        tracer.uninstall()
    assert Environment.__dict__["run"] is run_before


def test_reset_charges_open_spans_only_for_what_follows():
    tracer = layers.LayerTracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05), "sim")

    def body():
        inner()
        time.sleep(0.05)
        tracer.reset()
        time.sleep(0.02)

    outer = tracer.wrap("outer", body, "core")
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    ex = tracer.export()
    # the 0.1 s before the reset, nested or not, is gone
    assert ex["calls"] == {}
    assert 0.02 <= ex["self_s"]["outer"] <= wall - 0.1
    assert "inner" not in ex["self_s"]


def test_forked_shards_charge_only_the_measured_phase():
    """In the 2-shard traced run each process's layer time fits inside its
    measured phase, and the coordinator's barrier waits go to no layer."""
    wl = workloads.WORKLOADS["kvs-cluster"]
    with layers.LayerTracer(max_spans=0) as tracer:
        rep = wl.traced_rep(5, tracer)
        parent = tracer.export()
    assert len(rep.traced) == 2
    for ex in rep.traced:
        charged = sum(s for k, s in ex["self_s"].items() if ex["layer"][k] in layers.LAYERS)
        assert 0 < charged <= rep.measured_s
    assert parent["self_s"]["_ForkedShard.wait"] > 0
    par_self = sum(s for k, s in parent["self_s"].items() if parent["layer"][k] == "par")
    assert par_self < 0.5 * rep.measured_s


def test_self_times_add_up_to_the_traced_wall_time(small):
    """Layer self times, engine included, cover the measured phase: the
    sum stays within 3% of the traced wall time."""
    wl = workloads.WORKLOADS["blk-fio"]
    with layers.LayerTracer() as tracer:
        rep = wl.rep(7, tracer)
        ex = tracer.export()
    total = sum(ex["self_s"].values())
    assert 0.97 * rep.measured_s <= total <= 1.01 * rep.measured_s
    per_layer = {ex["layer"][k] for k in ex["self_s"]}
    assert {"sim", "core", "ipc", "mods", "devices"} <= per_layer


def test_tracing_leaves_virtual_results_alone(small):
    wl = workloads.WORKLOADS["blk-fio"]
    plain = wl.rep(3)
    with layers.LayerTracer() as tracer:
        traced = wl.rep(3, tracer)
    assert plain.digest == traced.digest


def test_fail_frac_counts_refusals_and_nacks():
    assert workloads.fail_frac(attempted=200, refused=6, nacked=4) == 0.05
    assert workloads.fail_frac(attempted=10, failed=1, timed_out=1) == 0.2
    with pytest.raises(ValueError):
        workloads.fail_frac(attempted=0)


def test_openloop_refusals_count_as_failures(small, monkeypatch):
    from repro.traffic.engine import QueueDepthAdmission

    monkeypatch.setattr(workloads.KvsOpenloop, "policy", QueueDepthAdmission(2))
    rep = workloads.WORKLOADS["kvs-openloop"].rep(11)
    refused = rep.virtual["summary"]["totals"]["rejected"]
    assert refused > 0
    assert rep.refused == refused
    assert rep.attempted == rep.ops + refused
    metrics = run.end_to_end([rep], [(rep, 1.0)], 1.0)
    assert metrics["ok_frac"] == pytest.approx(1 - refused / rep.attempted)


def test_host_times_scale_to_the_reference_host(small):
    rep = workloads.WORKLOADS["blk-fio"].rep(5)
    # calibration at half the reference speed: the host ran at half speed
    half = run.REF_CAL_OPS_PER_S / 2
    assert run.host_scale(half * 0.9, half * 1.1) == pytest.approx(2.0)
    m = run.end_to_end([rep], [(rep, 2.0)], 1.0)
    assert m["host_ops_per_s"] == pytest.approx(2 * rep.ops / rep.measured_s)
    assert m["setup_s"] == pytest.approx(rep.setup_s / 2)
    # a run scales every timed rep by its own samples and keeps the
    # unscaled figures
    _, record = run.run("blk-fio", 1, 0.0, False)
    samples = record["host_samples"]
    assert len(samples) == record["reps"] - 1 and all(s > 0 for *_, s in samples)
    assert record["end_to_end"]["host_ops_per_s"] == pytest.approx(
        run.median([rate * s for rate, _, s in samples]))
    assert record["host_unscaled"]["host_ops_per_s"] == pytest.approx(
        run.median([rate for rate, _, _ in samples]))


def test_seed_changes_inputs_but_not_metric_names(small):
    a, rec_a = run.run("blk-fio", 1, 0.0, False)
    b, rec_b = run.run("blk-fio", 2, 0.0, False)
    assert rec_a["inputs"] != rec_b["inputs"]
    assert rec_a["digest"] != rec_b["digest"]
    assert list(a["metrics"]) == list(b["metrics"]) == list(rec_a["end_to_end"])
    again, rec_again = run.run("blk-fio", 1, 0.0, False)
    assert rec_again["digest"] == rec_a["digest"]


def test_traced_run_reports_every_per_layer_metric(small):
    result, record = run.run("kvs-openloop", 1, 0.0, True)
    assert set(result["metrics"]) == set(record["per_layer"])
    m = result["metrics"]
    assert m["traffic.arrivals"]["value"] > 0
    assert m["traffic.self_s"]["value"] > 0
    assert m["trace.slowdown"]["value"] > 0


def test_benchmark_json_matches_the_runner(small):
    spec = run.spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, record = run.run("blk-fio", 1, 0.0, True)
    assert {m["name"] for m in spec["end_to_end"]} == set(record["end_to_end"])
    assert {m["name"] for m in spec["per_layer"]} == set(record["per_layer"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_compare_flags_behaviour_changes_and_regressions():
    compare = importlib.import_module("compare")
    metrics = [{"name": "host_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def rec(seed, rate, digest="d"):
        e2e = dict.fromkeys(compare.VIRTUAL, 1.0)
        e2e["host_ops_per_s"] = rate
        return {"workload": "w", "seed": seed, "digest": digest, "end_to_end": e2e}

    base = {"w": [rec(s, 100 + s) for s in range(5)]}
    lines, bad, unresolved = compare.compare(
        base, {"w": [rec(s, 101 + s) for s in range(5)]}, metrics)
    assert not bad and not unresolved
    assert "same virtual results" in lines[0] and " ok" in lines[0]
    lines, bad, _ = compare.compare(base, {"w": [rec(s, 70) for s in range(5)]}, metrics)
    assert bad and "REGRESSION" in lines[0]
    lines, bad, _ = compare.compare(base, {"w": [rec(0, 100, "x")]}, metrics)
    assert bad and "BEHAVIOUR CHANGE" in lines[0]
    # base spread wider than the bound
    noisy = {"w": [rec(s, r) for s, r in enumerate((50, 80, 100, 130, 160))]}
    lines, bad, unresolved = compare.compare(
        noisy, {"w": [rec(s, 90) for s in range(5)]}, metrics)
    assert "unresolved" in lines[0] and unresolved and not bad
    # ... yet every new run is worse than every base run by over the bound
    lines, bad, _ = compare.compare(noisy, {"w": [rec(s, 40) for s in range(5)]}, metrics)
    assert bad and "REGRESSION" in lines[0]
    lines, bad, _ = compare.compare(noisy, {"w": [rec(s, 170) for s in range(5)]}, metrics)
    assert not bad and "better" in lines[0]


def test_compare_exit_status(tmp_path, capsys):
    compare = importlib.import_module("compare")
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "host_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}))

    def write(dirname, rates):
        d = tmp_path / dirname
        d.mkdir()
        for seed, rate in enumerate(rates):
            e2e = dict.fromkeys(compare.VIRTUAL, 1.0)
            e2e["host_ops_per_s"] = rate
            (d / f"{seed}.json").write_text(json.dumps(
                {"workload": "w", "seed": seed, "trace": 0, "digest": "d", "end_to_end": e2e}))
        return str(d)

    argv = ["--bench", str(bench)]
    steady = write("steady", (100, 101, 102, 103, 104))
    assert compare.main([steady, write("same", (101, 102, 103, 104, 105))] + argv) == 0
    noisy = write("noisy", (50, 80, 100, 130, 160))
    assert compare.main([noisy, write("mid", (90,) * 5)] + argv) == 3
    assert compare.main([noisy, write("slow", (40,) * 5)] + argv) == 1
    capsys.readouterr()
