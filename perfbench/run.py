#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper_grids|long_sessions|ssl_server
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. It builds perfbench/ (the cryptarch
libraries plus perfbench.cc) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the workload in fresh
processes under the default configuration: it refuses to run when any
CRYPTARCH_* variable is set.

--trace 0 (the untraced run) prints the end-to-end metrics. Set-up is a
per-process cost, so the run is split over several fresh processes:
each sets up, then makes its share of the timed passes. setup_s is the
median over the processes, the rates the median over all timed passes.
--trace 1 (the traced run) prints the per-layer metrics, from one
process that records spans on one thread and writes them as Chrome
trace events next to the build. perfbench/layers.json says which
end-to-end metric and workload each layer metric should move.

The last line of stdout is the result:
    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
A failed operation is a cell that is not ok, a failed server
simulation, or a failed output check (digest mismatch between passes or
processes, span nesting, coverage); fail_ratio = failed / attempted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Processes per untraced run: more where set-up is short and noisy,
# fewer where a cold pass takes seconds. Spreading the timed passes over
# processes also averages over each process's memory layout.
PROCESSES = {"paper_grids": 7, "long_sessions": 3, "ssl_server": 5}

# Once built, the whole command must end within this many seconds.
DEADLINE_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def run_child(exe, args, deadline):
    """Run one perfbench process; returns its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        fail("out of time before " + " ".join(args))
    try:
        res = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                             text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    if res.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited {res.returncode}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def config_line(r):
    return (f"config: backend={r['backend']} compression={r['compression']}"
            f" isolation={r['isolation']} workers={r['workers']:g}"
            f" cells={r['cells']:g} seed={r['seed']:g}")


def pooled(procs, key):
    """Median over every timed pass of every process."""
    return statistics.median(v for p in procs for v in p[key])


def untraced(exe, args, common, deadline):
    n = 2 if args.smoke else PROCESSES[args.workload]
    # Each process draws its own submission orders (paper_grids).
    procs = [run_child(exe, common + ["--mode", "run", "--process", str(i),
                                      "--seconds", str(args.seconds / n)],
                       deadline)
             for i in range(n)]
    first = procs[0]

    attempted = sum(int(p["attempted"]) for p in procs)
    failed = sum(int(p["failed"]) for p in procs)
    # Every process must compute the same stats digests.
    attempted += 2 * (n - 1)
    failed += sum((p["setup_digest"] != first["setup_digest"])
                  + (p["digest"] != first["digest"]) for p in procs[1:])
    if first["workload"] == "ssl_server":
        # The probe sweep is the only replay: its MIPS, median over
        # the processes.
        sim_mips = statistics.median(p["setup_sim_mips"] for p in procs)
    else:
        sim_mips = pooled(procs, "sim_mips")

    metrics = {
        "setup_s": metric(statistics.median(p["setup_s"] for p in procs),
                          "s"),
        "cells_per_s": metric(pooled(procs, "cells_per_s"), "cells/s"),
        "sim_mips": metric(sim_mips, "Minsts/s"),
        "sessions_per_s": metric(pooled(procs, "sessions_per_s"),
                                 "sessions/s"),
        # Allocator reuse makes one process's peak vary with thread
        # interleaving; the median over the run's processes is steadier.
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"]
                                                for p in procs), "MB"),
    }
    print(config_line(first))
    print(f"processes: {n}, timed passes:"
          f" {sum(len(p['pass_walls']) for p in procs)}")
    print(f"digest: {first['digest']}  isa.insts_recorded:"
          f" {first['insts_recorded']:.0f}  sim.cycles_total:"
          f" {first['cycles_total']:.0f}")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed}/{attempted})")
    print("note: the timing model is unvalidated against hardware, so no"
          " error figure is given")
    return attempted, failed, metrics


def traced(exe, args, common, out_dir, deadline):
    out = os.path.join(out_dir, f"trace_{args.workload}_{args.seed}.json")
    r = run_child(exe, common + ["--mode", "trace", "--trace-out", out],
                  deadline)
    t = r["trace"]
    print(config_line(r))
    print(f"spans: {t['spans']:g} written to {os.path.relpath(out, ROOT)}")
    print(f"traced wall {t['traced_wall_s']:.4f} s, layer self time"
          f" {t['layer_self_s']:.4f} s, span coverage"
          f" {t['span_coverage']:.4f}")
    overhead = t["overhead_s"]
    print(f"tracing overhead: {overhead:.4f} s"
          f" ({100 * overhead / t['untraced_pass_s']:.2f}%: traced pass"
          f" {t['traced_pass_s']:.4f} s, untraced one-thread pass"
          f" {t['untraced_pass_s']:.4f} s)")
    print(f"digest: {t['digest']}  isa.insts_recorded:"
          f" {t['insts_recorded']:.0f}  sim.cycles_total:"
          f" {t['cycles_total']:.0f}")
    attempted, failed = int(r["attempted"]), int(r["failed"])
    print(f"fail_ratio: {failed / attempted:.6g} ({failed}/{attempted})")
    return attempted, failed, r["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smaller sessions and populations (tests)")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("CRYPTARCH_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cryptarch sources next to perfbench/", 2)

    out_dir = build_dir()
    exe = build(out_dir)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload,
              "--seed", str(args.seed % (1 << 64))]
    if args.smoke:
        common.append("--smoke")
    if args.trace:
        attempted, failed, metrics = traced(exe, args, common, out_dir,
                                            deadline)
    else:
        attempted, failed, metrics = untraced(exe, args, common, deadline)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
