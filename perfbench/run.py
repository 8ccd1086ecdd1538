#!/usr/bin/env python3
"""Builds and runs the bikegraph end-to-end benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark in
Release mode under .bench_build/ (or $CARGO_TARGET_DIR when set); later
calls rebuild incrementally. The benchmark's standard output is passed
through; its last line is the JSON result. The metric names in that result
are checked against BENCHMARK.json before this script exits.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"the bikegraph sources are not next to {HERE}; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        if subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            stdout=log,
            stderr=log,
        ).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail(f"build failed; see {log_path}")
    return os.path.join(out, "perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main(argv):
    spec = load_spec()
    selftest = "--selftest" in argv
    args = dict(zip(argv[::2], argv[1::2])) if not selftest else {}
    if not selftest and sorted(args) != ["--seconds", "--seed", "--trace", "--workload"]:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")

    binary = build()
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    for entry in os.listdir(workdir):
        if entry.startswith("wal-"):  # left by a killed run
            shutil.rmtree(os.path.join(workdir, entry), ignore_errors=True)

    # The allocator settings tools/run_benches.sh uses: freed memory stays
    # mapped, so passes reuse warm pages instead of paying page-fault churn
    # whose cost swings with the host's memory pressure.
    env = dict(os.environ)
    env.setdefault("GLIBC_TUNABLES", "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=-1")
    command = [binary, "--workdir", workdir]
    command += ["--selftest"] if selftest else [x for kv in args.items() for x in kv]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if selftest or proc.returncode != 0:
        return proc.returncode

    # The result must name exactly the metrics BENCHMARK.json declares.
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    listed = spec["per_layer"] if args["--trace"] == "1" else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != expected:
        print(
            "perfbench/run.py: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(reported))}, "
            f"extra {sorted(set(reported) - set(expected))}, units "
            f"{sorted(k for k in expected if k in reported and expected[k] != reported[k])}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
