#!/usr/bin/env python3
"""Compare two BENCH_perf.json files and flag regressions, or run a
same-session A/B between two builds.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 1.15]
                        [--metric cpu_time_ns|real_time_ns] [--filter REGEX]
    tools/bench_diff.py --ab PARENT_BUILD CHANGE_BUILD --bench BINARY
                        [--benchmark_filter REGEX]

Prints a per-benchmark table of baseline vs current times with the ratio
(current / baseline; > 1 is slower), then exits non-zero when any
benchmark regressed by more than the threshold factor. Benchmarks present
in only one file are listed but never fail the run (new benches appear,
old ones get renamed — that is not a regression).

Intended use: stash the committed BENCH_perf.json, rerun
tools/run_benches.sh, and diff —

    cp BENCH_perf.json /tmp/base.json
    tools/run_benches.sh
    tools/bench_diff.py /tmp/base.json BENCH_perf.json

Both files must carry the same host fingerprint (the "context" block
tools/run_benches.sh writes: this repo's CMAKE_BUILD_TYPE, the compiler,
nproc and the ISA extensions); the script refuses to compare files from
different hosts or builds. The 4-vCPU reference host is a shared VM whose
speed drifts by 10-50% over minutes, so even same-fingerprint numbers from
different sessions are weak evidence: prefer same-session A/B runs. Each
value is the median of BENCH_REPETITIONS runs (run_benches.sh records the
spread as "cv_real_time"). 1.15 (the default) tolerates run-to-run jitter
while catching real slips. Raise it (e.g. --threshold 1.3) for very short
micro benches.

A/B mode (--ab) runs BINARY from both build directories in 10 alternated
pairs (the parent first in even pairs, the change first in odd ones), one
repetition per run, under the same malloc tunables as run_benches.sh. For
each benchmark it prints each side's median and quartiles of the wall
time per iteration, the pairs the change won (lower time; ties count for
neither side), and whether the gain rule holds: the change wins at least
9 of every 10 pairs and the medians differ by more than the parent's
interquartile range. "slower" marks the same rule met the other way.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


FINGERPRINT_KEYS = ("cmake_build_type", "compiler", "nproc", "isa")


def load(path):
    """Returns (fingerprint, {binary:benchmark: metrics})."""
    with open(path) as f:
        data = json.load(f)
    if "benches" not in data:
        raise SystemExit(f"{path}: not a BENCH_perf.json (no 'benches' key)")
    context = data.get("context", {})
    missing = [key for key in FINGERPRINT_KEYS if key not in context]
    if missing:
        raise SystemExit(f"{path}: no host fingerprint ({', '.join(missing)} "
                         "missing); regenerate it with tools/run_benches.sh")
    flat = {}
    for binary, benches in data["benches"].items():
        for name, metrics in benches.items():
            flat[f"{binary}:{name}"] = metrics
    return {key: context[key] for key in FINGERPRINT_KEYS}, flat


# The gain rule needs at least ten pairs, so the A/B mode always runs ten.
AB_PAIRS = 10
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# The tunables tools/run_benches.sh sets, so A/B numbers compare with its.
MALLOC_TUNABLES = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=-1"


def run_once(binary, bench_filter):
    """One run of a google-benchmark binary: {name: real ns/iteration}."""
    cmd = [binary, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    env = dict(os.environ)
    env.setdefault("GLIBC_TUNABLES", MALLOC_TUNABLES)
    out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                         text=True).stdout
    times = {}
    for row in json.loads(out)["benchmarks"]:
        if row.get("run_type", "iteration") != "iteration":
            continue
        times[row["name"]] = row["real_time"] * NS_PER_UNIT[row["time_unit"]]
    return times


def quartiles(samples):
    """(q1, median, q3) by the inclusive method."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def ab(args):
    parent_dir, change_dir = args.ab
    binaries = [os.path.join(d, args.bench) for d in (parent_dir, change_dir)]
    for binary in binaries:
        if not os.access(binary, os.X_OK):
            raise SystemExit(f"{binary}: not an executable (build it first)")
    samples = ({}, {})  # parent, change: {name: [ns per pair]}
    for pair in range(AB_PAIRS):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            for name, ns in run_once(binaries[side],
                                     args.benchmark_filter).items():
                samples[side].setdefault(name, []).append(ns)
        print(f"pair {pair + 1}/{AB_PAIRS} done", file=sys.stderr)
    names = [n for n in samples[0] if len(samples[0][n]) == AB_PAIRS
             and len(samples[1].get(n, ())) == AB_PAIRS]
    if not names:
        raise SystemExit("no benchmark ran in every run on both sides")
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'parent q1/med/q3 (ms)':>23}  "
          f"{'change q1/med/q3 (ms)':>23}  wins  gain")
    for name in names:
        parent, change = samples[0][name], samples[1][name]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        iqr = p3 - p1
        if wins * 10 >= AB_PAIRS * 9 and pm - cm > iqr:
            verdict = "yes"
        elif losses * 10 >= AB_PAIRS * 9 and cm - pm > iqr:
            verdict = "slower"
        else:
            verdict = "no"
        print(f"{name:<{width}}  "
              f"{p1 / 1e6:>7.3f}/{pm / 1e6:>7.3f}/{p3 / 1e6:>7.3f}  "
              f"{c1 / 1e6:>7.3f}/{cm / 1e6:>7.3f}/{c3 / 1e6:>7.3f}  "
              f"{wins:>2}/{AB_PAIRS:<2} {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_perf.json files, or A/B two builds")
    parser.add_argument("files", nargs="*", metavar="BASELINE CURRENT",
                        help="two BENCH_perf.json files")
    parser.add_argument("--ab", nargs=2, metavar=("PARENT_BUILD",
                                                   "CHANGE_BUILD"),
                        help="run --bench from both build dirs in "
                             "alternated pairs")
    parser.add_argument("--bench", help="A/B: the bench binary's file name")
    parser.add_argument("--benchmark_filter", default="",
                        help="A/B: passed to the binary as is")
    parser.add_argument("--threshold", type=float, default=1.15,
                        help="fail when current/baseline exceeds this "
                             "(default 1.15)")
    parser.add_argument("--metric", default="cpu_time_ns",
                        choices=["cpu_time_ns", "real_time_ns"],
                        help="which time to compare (default cpu_time_ns)")
    parser.add_argument("--filter", default="",
                        help="only compare benchmarks matching this regex")
    args = parser.parse_args()
    if args.ab:
        if args.files or not args.bench:
            parser.error("--ab takes --bench and no files")
        return ab(args)
    if len(args.files) != 2:
        parser.error("give BASELINE.json and CURRENT.json, or --ab")

    base_host, base = load(args.files[0])
    cur_host, cur = load(args.files[1])
    differing = [key for key in FINGERPRINT_KEYS
                 if base_host[key] != cur_host[key]]
    if differing:
        lines = [f"  {key}: {base_host[key]!r} vs {cur_host[key]!r}"
                 for key in differing]
        raise SystemExit("refusing to compare runs from different hosts or "
                         "builds:\n" + "\n".join(lines))
    pattern = re.compile(args.filter) if args.filter else None

    shared = sorted(k for k in base if k in cur
                    and (pattern is None or pattern.search(k)))
    only_base = sorted(k for k in base if k not in cur
                       and (pattern is None or pattern.search(k)))
    only_cur = sorted(k for k in cur if k not in base
                      and (pattern is None or pattern.search(k)))

    if not shared and not only_base and not only_cur:
        raise SystemExit("no benchmarks matched")

    width = max((len(k) for k in shared), default=20)
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for key in shared:
        b = base[key].get(args.metric)
        c = cur[key].get(args.metric)
        if not b or not c:
            continue
        ratio = c / b
        flag = ""
        if ratio > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((key, ratio))
        elif ratio < 1.0 / args.threshold:
            flag = "  (faster)"
        print(f"{key:<{width}}  {b:>12.0f}  {c:>12.0f}  {ratio:5.2f}{flag}")

    for key in only_base:
        print(f"{key:<{width}}  only in baseline (removed or renamed)")
    for key in only_cur:
        print(f"{key:<{width}}  only in current (new benchmark)")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.2f}x:", file=sys.stderr)
        for key, ratio in regressions:
            print(f"  {key}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.2f}x "
          f"({len(shared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
