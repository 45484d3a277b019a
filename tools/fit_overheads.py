#!/usr/bin/env python3
"""Fit the cost model's overhead constants (MachineSpec::t_call, t_sync)
from bench_microkernel on this host.

    python3 tools/fit_overheads.py [build/bench/bench_microkernel]

t_call is the intercept of a least-squares line of time per register
block against reduction length (c*r*s terms) through the
BM_MicrokernelShortReduction rows (4 and 28 terms) and the
BM_MicrokernelWidth/6 row (144 terms). t_sync is the median time of
one BM_ParallelForRoundTrip region. Both print in seconds.
"""

import json
import subprocess
import sys

FLOPS_PER_TERM = 2 * 16 * 6  # one 16 x 6 block, one reduction term
ROWS = {"BM_MicrokernelWidth/6": 144,
        "BM_MicrokernelShortReduction/c:4/r:1/s:1": 4,
        "BM_MicrokernelShortReduction/c:14/r:2/s:1": 28}


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else "build/bench/bench_microkernel"
    out = subprocess.run(
        [exe, "--benchmark_filter=Width/6|ShortReduction|RoundTrip",
         "--benchmark_repetitions=5", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    rows = {b["run_name"]: b for b in json.loads(out)["benchmarks"]
            if b.get("aggregate_name") == "median"}
    pts = []
    for name, terms in ROWS.items():
        gflops = rows[name]["GFLOPS"]
        pts.append((terms, FLOPS_PER_TERM * terms / (gflops * 1e9)))
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    slope = (sum((x - mx) * (y - my) for x, y in pts) /
             sum((x - mx) ** 2 for x, _ in pts))
    rt = rows["BM_ParallelForRoundTrip/real_time"]
    scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[rt["time_unit"]]
    print("t_call = %.3g s  (%.3g s per reduction term)" %
          (my - slope * mx, slope))
    print("t_sync = %.3g s" % (rt["real_time"] * scale))


if __name__ == "__main__":
    main()
