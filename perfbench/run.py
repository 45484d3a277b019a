#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of the workloads below, or `all` to run each in turn (the
final JSON line then nests each workload's metrics under its name).
Run from the root of a checkout. The first run builds the library
(the repository's own CMake project) and the perfbench runner under
.bench_build/; later runs only re-check the build. Workloads:

    plan_cold   cold Standard-effort plans of resnet18, vgg16, yolov3
    exec_plans  resnet18's chosen plans, run
    serve_warm  warm solve / solve_network traffic over loopback RPC

Every workload reports the same end-to-end metrics (setup_s,
peak_rss_mb, op_ms), each measured on its own stage. --trace 0 prints
them. --trace 1 spends half of --seconds untraced and half traced, and
prints the traced half's per-layer metrics (the layer probes every
traced run ends with) plus the tracing overhead, traced minus untraced
per end-to-end metric; the traced run's raw report, spans included, is
kept as .bench_build/trace-<workload>.json. The last stdout line is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
BENCHMARK.json at the checkout root names every metric and its unit;
perfbench/NOTES.md says what each one means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats as bs  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("plan_cold", "exec_plans", "serve_warm")
RUN_BUDGET_S = 165  # every runner of one workload, after the build


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def jobs():
    return max(1, len(os.sched_getaffinity(0)))


def step(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
        fail("build step failed: %s (log: %s)" % (" ".join(cmd), log.name))


def build():
    """Build libmopt with the repository's CMake project, then the
    perfbench runner against it; returns the runner's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources at %s (CMakeLists.txt, src/)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    lib_dir = BUILD / "mopt"
    bench_dir = BUILD / "perfbench"
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "a") as log:
        if not (lib_dir / "CMakeCache.txt").is_file():
            step(["cmake", "-S", str(ROOT), "-B", str(lib_dir),
                  "-DCMAKE_BUILD_TYPE=Release", "-DMOPT_BUILD_TESTS=OFF",
                  "-DMOPT_BUILD_BENCH=OFF", "-DMOPT_BUILD_EXAMPLES=OFF"],
                 log)
        step(["cmake", "--build", str(lib_dir), "--target", "mopt",
              "-j", str(jobs())], log)
        if not (bench_dir / "CMakeCache.txt").is_file():
            step(["cmake", "-S", str(HERE), "-B", str(bench_dir),
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DMOPT_LIBRARY=" + str(lib_dir / "src" / "libmopt.a")],
                 log)
        step(["cmake", "--build", str(bench_dir), "-j", str(jobs())], log)
    return bench_dir / "perfbench"


def run_runner(exe, args, trace, deadline):
    """One runner process, killed at @deadline (time.monotonic());
    returns its raw report."""
    workdir = BUILD / "runs" / ("%s-%d-%d" % (args.workload, os.getpid(),
                                              trace))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "raw.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            fail("runner exited with %d" % proc.returncode)
        if trace:
            # Keep the last traced report (spans included) for reading.
            shutil.copy(out, BUILD / ("trace-%s.json" % args.workload))
        with open(out) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail("runners ran past %d s" % RUN_BUDGET_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(workload, raw):
    """{name: (value, sample count or None)}: every workload reports
    the same three metrics, each of its own stage."""
    s = raw["samples"]
    if workload == "exec_plans":
        # One run of the network: the sum of each layer's median.
        layers = [x for k, x in s.items() if k.startswith("exec.layer_ms.")]
        op = (sum(bs.median(x) for x in layers), min(map(len, layers)))
    else:
        op = (bs.median(s["op_ms"]), len(s["op_ms"]))
    return {"setup_s": (bs.median(raw["setup_s"]), len(raw["setup_s"])),
            "peak_rss_mb": (raw["values"]["peak_rss_mb"], None),
            "op_ms": op}


def per_layer(raw):
    """{name: value} of the traced run's layer probes and spans."""
    m = dict(raw["values"])
    m.update({k: bs.median(x) for k, x in raw["samples"].items()})
    spans = [{"name": x[0], "start": x[1], "end": x[2], "id": x[3],
              "parent": x[4], "req": x[5]} for x in raw["spans"]]
    m["trace.spans"] = len(spans)
    # The harness's own time inside its root spans (repetitions,
    # passes, probe sections): what the library calls under them do
    # not cover.
    self_ns = bs.self_times(spans)
    parents = {x["parent"] for x in spans}
    roots = [x["id"] for x in spans if x["parent"] == 0 and x["id"] in parents]
    m["bench.self_ms"] = bs.median([self_ns[r] for r in roots]) / 1e6
    return m


def run_workload(exe, args, spec):
    """Run one workload; prints its metric table and returns
    (metrics, attempted, failures)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        # Half of the run untraced, half traced: the traced half gives
        # the layer metrics, the difference between them the overhead.
        half = argparse.Namespace(**dict(vars(args),
                                         seconds=args.seconds / 2))
        base = run_runner(exe, half, 0, deadline)
        traced = run_runner(exe, half, 1, deadline)
        raws = [base, traced]
        shown = {k: (v, None) for k, v in per_layer(traced).items()}
        base_e2e = end_to_end(args.workload, base)
        for name, (value, _) in end_to_end(args.workload, traced).items():
            if name != "peak_rss_mb":
                shown["trace.overhead." + name] = (
                    value - base_e2e[name][0], None)
        declared = spec["per_layer"]
    else:
        raws = [run_runner(exe, args, 0, deadline)]
        shown = end_to_end(args.workload, raws[0])
        declared = spec["end_to_end"]
    attempted = sum(raw["attempted"] for raw in raws)
    failures = [msg for raw in raws for msg in raw["failures"]]

    metrics = {}
    for d in declared:
        if d["name"] not in shown:
            fail("%s reported no %s" % (args.workload, d["name"]))
        value, n = shown[d["name"]]
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        print("%-28s %16.6g %-8s%s" % (d["name"], value, d["unit"],
                                        "" if n is None else "  n=%d" % n))
    if not args.trace and args.workload != "exec_plans":
        # The highest percentile of op_ms with ten samples beyond it
        # (exec_plans' op_ms is a sum of medians, with no samples).
        for p in (99, 90):
            got = bs.percentile(raws[0]["samples"]["op_ms"], p)
            if got:
                print("%-28s %16.6g %-8s  n=%d" % ("(op_ms p%d)" % p, got[0],
                                                  "ms", got[1]))
                break
    for msg in failures:
        print("FAILED: " + msg)
    return metrics, attempted, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    exe = build()

    if args.workload != "all":
        metrics, attempted, failures = run_workload(exe, args, spec)
    else:
        # Every workload in turn; metrics nest under the workload name.
        metrics, attempted, failures = {}, 0, []
        for workload in WORKLOADS:
            print("== " + workload)
            one = argparse.Namespace(**dict(vars(args), workload=workload))
            metrics[workload], n, f = run_workload(exe, one, spec)
            attempted += n
            failures += f
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
