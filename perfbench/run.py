#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild incrementally.
Build output goes to stderr; the benchmark's result is the last stdout line.

Untraced results are appended to <build>/results/<workload>.jsonl so that a
traced run can report its overhead against the untraced medians.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", out, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def arg_value(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def report_overhead(out, workload, traced_e2e):
    """Compares the traced run's end-to-end figures with the untraced medians."""
    path = os.path.join(out, "results", workload + ".jsonl")
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    if not runs or not traced_e2e:
        print("trace overhead: no untraced run of %s recorded in this checkout yet" % workload,
              file=sys.stderr)
        return
    for name in ("throughput_ops_s", "latency_p50_us"):
        values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        if not values or name not in traced_e2e:
            continue
        median = statistics.median(values)
        traced = traced_e2e[name]["value"]
        change = (traced - median) / median * 100.0 if median else 0.0
        print("trace overhead: %s traced %.6g vs untraced median %.6g over %d runs (%+.1f %%)"
              % (name, traced, median, len(values), change), file=sys.stderr)


def main():
    args = sys.argv[1:]
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run([os.path.join(out, "gae_perfbench")] + args + ["--workdir", workdir],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or "--self-check" in args:
        sys.stdout.write(proc.stdout)
        return proc.returncode

    workload = arg_value(args, "--workload")
    traced = arg_value(args, "--trace") == "1"
    e2e = None
    for line in lines[:-1]:
        if line.startswith("end_to_end: "):
            e2e = json.loads(line[len("end_to_end: "):])["metrics"]
        else:
            print(line)
    if traced:
        report_overhead(out, workload, e2e)
    elif lines:
        os.makedirs(os.path.join(out, "results"), exist_ok=True)
        with open(os.path.join(out, "results", workload + ".jsonl"), "a") as f:
            f.write(lines[-1] + "\n")
    if lines:
        print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
