#!/usr/bin/env python3
"""Compare two BENCH_perf.json files and flag regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 1.15]
                        [--metric cpu_time_ns|real_time_ns] [--filter REGEX]

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
"""

import argparse
import json
import re
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


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_perf.json files")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=1.15,
                        help="fail when current/baseline exceeds this "
                             "(default 1.15)")
    parser.add_argument("--metric", default="cpu_time_ns",
                        choices=["cpu_time_ns", "real_time_ns"],
                        help="which time to compare (default cpu_time_ns)")
    parser.add_argument("--filter", default="",
                        help="only compare benchmarks matching this regex")
    args = parser.parse_args()

    base_host, base = load(args.baseline)
    cur_host, cur = load(args.current)
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
