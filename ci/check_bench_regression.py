#!/usr/bin/env python3
"""Warn when bench wall-times regress versus a committed baseline.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_pipeline.json \
      --current BENCH_pipeline.json [MORE.json ...] [--threshold 0.25]

Entries are matched by (name, params). Given several --current files
(repeated runs of one bench), every entry is the median of its
ns_per_op across them, and every check below reads those medians. A
current ns_per_op more than
`threshold` above the baseline emits a GitHub Actions ::warning::
annotation. Advisory by design: CI hardware differs from the machine
that recorded the baseline, so regressions warn instead of failing; the
exit code is non-zero only for malformed input. A bench whose baseline
was never committed (a brand-new bench, or a fork without baselines)
prints an advisory note and exits 0 — missing history must not block
the run that would create it.

Every bench writes an `env` row first (bench/bench_json.h): the CPU
model, hardware threads and ISA flags of the host it ran on. When the
baseline or any current file lacks that row, or their rows differ, the
numbers were measured on different hosts: the check prints
`incomparable` and skips the baseline diff (exit 0). The same-run
checks below still run. env rows are excluded from the diff.

With --p50-overhead-threshold F, additionally compares WITHIN the
current file: every (name, params, quantile=p50) pair that differs
only in instrumentation=idle vs instrumentation=on. An instrumented
p50 more than F above its idle twin warns — both measurements come
from the same run on the same hardware, so this comparison is immune
to the cross-machine noise that keeps the baseline check advisory.

With --serve-anti-scaling, additionally HARD-FAILS (exit 1) when the
current serve_query_batch ns_per_op at the highest benched thread
count that the runner actually has cores for exceeds the 1-thread
figure, in the cache=off or the cache=on column. Adding threads making
the serve path slower is the anti-scaling bug this repo already
shipped once; like the p50 check this reads the current runs only, so
it is exact on any runner. On a shared runner one bench_serve run can
show no parallelism at all although the code scales, so CI passes
three runs and the gate reads each column's median. The runner's
parallelism is read from the bench's own serve_env row
(hardware_threads param); the gate skips, loudly, when that row is
missing or the runner has a single core. serve_env rows describe the
runner, not the code, and are excluded from baseline comparison.
"""

import argparse
import json
import os
import statistics
import sys

# Rows that describe the host a file was measured on, not the code.
RUNNER_ROWS = ("env", "serve_env")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("benchmarks", []):
        key = (entry["name"], tuple(sorted(entry.get("params", {}).items())))
        out[key] = float(entry["ns_per_op"])
    return out


def load_env(path):
    """The params of the file's env row, or None when it has none."""
    with open(path) as f:
        doc = json.load(f)
    for entry in doc.get("benchmarks", []):
        if entry["name"] == "env":
            return entry.get("params", {})
    return None


def describe_env(env):
    if env is None:
        return "no env row"
    return ", ".join(f"{k}={env[k]}" for k in sorted(env))


def load_median(paths):
    """Each entry's median ns_per_op over the runs in `paths` that have
    it (the one value when a single file is given)."""
    runs = {}
    for path in paths:
        for key, ns in load(path).items():
            runs.setdefault(key, []).append(ns)
    return {key: statistics.median(values) for key, values in runs.items()}


def check_instrumentation_overhead(current, threshold):
    """Warns when instrumentation=on p50 exceeds its idle twin by more
    than `threshold` (a fraction). Returns the number of warnings."""
    warnings = 0
    for (name, params), idle_ns in sorted(current.items()):
        pdict = dict(params)
        if pdict.get("instrumentation") != "idle":
            continue
        if pdict.get("quantile") != "p50":
            continue
        pdict["instrumentation"] = "on"
        on_key = (name, tuple(sorted(pdict.items())))
        on_ns = current.get(on_key)
        if on_ns is None or idle_ns <= 0:
            continue
        overhead = on_ns / idle_ns - 1.0
        label = f"{name} p50 instrumentation overhead"
        if overhead > threshold:
            warnings += 1
            print(
                f"::warning::{label}: idle {idle_ns:.0f} -> on {on_ns:.0f} "
                f"ns ({overhead:+.2%}, budget {threshold:.0%})"
            )
        else:
            print(
                f"ok: {label} {overhead:+.2%} (budget {threshold:.0%})"
            )
    return warnings


def check_serve_anti_scaling(current):
    """Hard gate: serve throughput, cache off and cache on alike, must not
    degrade between 1 thread and the highest benched thread count the
    runner can actually run in parallel. Returns 0 (ok/skip) or 1 (gate
    tripped in either column)."""
    hardware = None
    columns = {"off": {}, "on": {}}
    for (name, params) in current:
        pdict = dict(params)
        if name == "serve_env" and "hardware_threads" in pdict:
            hardware = int(pdict["hardware_threads"])
        elif name == "serve_query_batch" and pdict.get("cache") in columns:
            columns[pdict["cache"]][int(pdict["threads"])] = current[
                (name, params)]
    if hardware is None:
        print(
            "::notice::serve anti-scaling gate skipped: no serve_env "
            "row in the current bench json"
        )
        return 0
    tripped = 0
    for cache, by_threads in columns.items():
        eligible = [t for t in by_threads if t <= hardware]
        if 1 not in by_threads or not eligible or max(eligible) <= 1:
            print(
                f"::notice::serve anti-scaling gate (cache={cache}) "
                f"skipped: runner has {hardware} hardware thread(s)"
            )
            continue
        t_max = max(eligible)
        one_ns, top_ns = by_threads[1], by_threads[t_max]
        if top_ns > one_ns:
            print(
                f"::error::serve anti-scaling: cache={cache} {top_ns:.0f} "
                f"ns/op at {t_max} threads vs {one_ns:.0f} ns/op at 1 "
                f"thread ({top_ns / one_ns:.2f}x) — more threads made "
                f"serving slower"
            )
            tripped = 1
            continue
        print(
            f"ok: serve cache={cache} scaling 1 -> {t_max} threads: "
            f"{one_ns:.0f} -> {top_ns:.0f} ns/op "
            f"({one_ns / top_ns:.2f}x faster)"
        )
    return tripped


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, nargs="+",
                        help="one or more runs of the bench; each entry "
                        "is compared at its median across them")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--p50-overhead-threshold", type=float, default=None)
    parser.add_argument("--serve-anti-scaling", action="store_true")
    args = parser.parse_args()

    try:
        current = load_median(args.current)
    except (OSError, ValueError, KeyError) as err:
        print(f"::error::cannot read bench json: {err}")
        return 1
    if len(args.current) > 1:
        print(f"comparing medians over {len(args.current)} runs")

    # Same-run, same-hardware comparisons: work without any baseline.
    if args.p50_overhead_threshold is not None:
        check_instrumentation_overhead(current, args.p50_overhead_threshold)
    if args.serve_anti_scaling:
        if check_serve_anti_scaling(current):
            return 1

    if not os.path.exists(args.baseline):
        print(
            f"::notice::no committed baseline at {args.baseline}; "
            "skipping comparison (commit the current BENCH json to start "
            "tracking regressions)"
        )
        return 0

    try:
        baseline = load(args.baseline)
        base_env = load_env(args.baseline)
        current_envs = [load_env(path) for path in args.current]
    except (OSError, ValueError, KeyError) as err:
        print(f"::error::cannot read bench json: {err}")
        return 1
    for path, env in zip(args.current, current_envs):
        if base_env is None or env != base_env:
            print(
                f"incomparable: {args.baseline} ({describe_env(base_env)}) "
                f"vs {path} ({describe_env(env)}); skipping the baseline "
                "diff"
            )
            return 0

    regressions = 0
    for key, base_ns in sorted(baseline.items()):
        if key[0] in RUNNER_ROWS:
            continue  # describes the runner, not the code
        cur_ns = current.get(key)
        if cur_ns is None or base_ns <= 0:
            continue
        ratio = cur_ns / base_ns
        name = key[0] + "{" + ", ".join(f"{k}={v}" for k, v in key[1]) + "}"
        if ratio > 1.0 + args.threshold:
            regressions += 1
            print(
                f"::warning::bench regression: {name} "
                f"{base_ns:.0f} -> {cur_ns:.0f} ns/op ({ratio:.2f}x)"
            )
        else:
            print(f"ok: {name} {base_ns:.0f} -> {cur_ns:.0f} ns/op ({ratio:.2f}x)")
    missing = sorted(set(baseline) - set(current))
    for key in missing:
        if key[0] in RUNNER_ROWS:
            continue
        print(f"::warning::bench entry missing from current run: {key[0]}")
    print(f"{regressions} regression(s) beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
