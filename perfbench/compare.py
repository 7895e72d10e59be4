#!/usr/bin/env python3
"""Compare two result sets of the benchmark, one row per workload.

    python3 perfbench/compare.py BASE NEW [--bench BENCHMARK.json]

BASE and NEW are directories of result files as ``perfbench/run.py``
writes them to ``perfbench/out/results/`` (untraced runs are compared;
traced ones are ignored).  For every workload:

- a change to the virtual digest or a virtual metric on a seed both sets
  ran is a *behaviour change*, to be explained rather than judged;
- each host metric is judged against its bound in BENCHMARK.json: the new
  median may be worse than the base median by at most the bound.  When
  the base runs spread wider than the bound (quartile distance over
  median) the metric is *unresolved*, unless every new run beats every
  base run (better) or is worse than every base run by more than the
  bound (a regression).

Exits 1 on a regression or a behaviour change, else 3 if a metric is
unresolved, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VIRTUAL = ("virt_kops", "virt_p50_us", "virt_p99_us", "goodput_kops", "ok_frac")


def load(path: str) -> dict[str, list[dict]]:
    """workload -> untraced records found under ``path``."""
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
    out: dict[str, list[dict]] = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if isinstance(rec, dict) and rec.get("trace") == 0 and "end_to_end" in rec:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def judge(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Verdict on one host metric."""
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    s = spread(base)
    if s is not None and s > bound:
        if better == "lower":
            beats = max(new) < min(base)
            loses = min(new) > max(base) * (1 + bound)
        else:
            beats = min(new) > max(base)
            loses = max(new) < min(base) * (1 - bound)
        return "better" if beats else "REGRESSION" if loses else "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "ok"


def behaviour(base: list[dict], new: list[dict]) -> str:
    by_seed = {r["seed"]: r for r in base}
    common = [r for r in new if r["seed"] in by_seed]
    if not common:
        return "no common seeds"
    changed = []
    for r in common:
        b = by_seed[r["seed"]]
        if r["digest"] != b["digest"]:
            changed.append(f"seed {r['seed']} digest")
        for m in VIRTUAL:
            if r["end_to_end"][m] != b["end_to_end"][m]:
                changed.append(f"seed {r['seed']} {m}")
    if changed:
        return "BEHAVIOUR CHANGE: " + ", ".join(changed[:4]) + (" ..." if len(changed) > 4 else "")
    return f"same virtual results on {len(common)} seed(s)"


def compare(base: dict, new: dict, metrics: list[dict]) -> tuple[list[str], bool, bool]:
    """(one line per workload, any regression or behaviour change, any
    unresolved metric)"""
    host = [m for m in metrics if m["name"] not in VIRTUAL]
    lines, bad, unresolved = [], False, False
    for wl in sorted(set(base) | set(new)):
        if wl not in base or wl not in new:
            lines.append(f"{wl}: only in {'base' if wl in base else 'new'}")
            continue
        verdict = behaviour(base[wl], new[wl])
        bad |= verdict.startswith("BEHAVIOUR")
        cells = []
        for m in host:
            b = [r["end_to_end"][m["name"]] for r in base[wl]]
            n = [r["end_to_end"][m["name"]] for r in new[wl]]
            v = judge(b, n, m["bound"], m["better"])
            bad |= v == "REGRESSION"
            unresolved |= v == "unresolved"
            mb, mn = statistics.median(b), statistics.median(n)
            cells.append(f"{m['name']} {mb:.4g}->{mn:.4g} {m['unit']} ({(mn - mb) / mb:+.1%}) {v}")
        lines.append(f"{wl} [{len(base[wl])} vs {len(new[wl])} runs]: {verdict}; " + "; ".join(cells))
    return lines, bad, unresolved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.bench) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no untraced results in one of the sets", file=sys.stderr)
        return 2
    lines, bad, unresolved = compare(base, new, metrics)
    print("\n".join(lines))
    return 1 if bad else 3 if unresolved else 0


if __name__ == "__main__":
    raise SystemExit(main())
