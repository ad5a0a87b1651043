#!/usr/bin/env python3
"""Host-time benchmark of the hetmig simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

Builds perfbench/main.exe from source with dune, then runs one workload.
With --trace 0 it times the set-up of the workload process and the
workload's simulated work on one domain (the end-to-end metrics); with
--trace 1 it makes the traced run that gives the per-layer metrics.
Every output is checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper-grid", "serve-burst", "serve-diurnal", "cluster"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "_out")
# Set-up is a few milliseconds of process start and input building;
# one reading does not repeat, the median of many does.
SETUPS_PER_SLICE = 8
SLICE_S = 3
MIN_PROCESSES = 3
# Host time is reported at a reference host speed: the speed at which
# main.exe's fixed probe takes this long (see README.md).
PROBE_REF_S = 0.003
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a hetmig checkout (no dune-project or lib/ here)")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if p.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args, deadline):
    """Run main.exe, return its last stdout line parsed as JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"main.exe {args[0]} exceeded {timeout:.0f} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die(f"main.exe {args[0]} exited with {p.returncode}")
    return json.loads(lines[-1])


def setup_time(workload, seed):
    """Set-up time of one workload process at the reference host speed,
    or None if the process failed."""
    p = subprocess.run([EXE, "setup", "--workload", workload, "--seed", str(seed)],
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=60)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    r = json.loads(lines[-1])
    return r["cpu_s"] * PROBE_REF_S / r["probe_s"]


def shown(v, spec=".4f"):
    return "n/a" if v is None else format(v, spec)


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def timed(args, deadline):
    """A run is spread over processes of about SLICE_S seconds each, with
    set-up measurements between them, until --seconds is used up."""
    start = time.monotonic()
    setups, procs = [], []
    while True:
        setups += [setup_time(args.workload, args.seed) for _ in range(SETUPS_PER_SLICE)]
        t0 = time.monotonic()
        procs.append(run_exe(["timed", "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(SLICE_S)], deadline))
        took = time.monotonic() - t0
        if len(procs) >= MIN_PROCESSES and time.monotonic() - start + took > args.seconds:
            break
    ok = [s for s in setups if s is not None]
    raw = [parts for p in procs for parts in p["run_parts"]]
    # Each process's times at the reference speed, by the host-speed
    # probe's median in that process.
    runs = [[x * PROBE_REF_S / statistics.median(p["probe_s"]) for x in parts]
            for p in procs for parts in p["run_parts"]]
    raised = sum(1 for p in procs for x in p["problems"] if x.startswith("raised"))
    attempted = len(runs) + raised + len(setups)
    failed = sum(p["failed_runs"] for p in procs) + (len(setups) - len(ok))
    problems = [x for p in procs for x in p["problems"]]
    if not ok:
        problems.append("every set-up process failed")
    if not runs:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        return (False, attempted, failed, {"setup_s": statistics.median(ok) if ok else None})
    first = next(p for p in procs if p["runs"] > 0)
    for i, p in enumerate(procs, 1):
        if p["runs"] > 0 and (p["digest"], p["counts"]) != (first["digest"], first["counts"]):
            problems.append(f"process {i}: render digest or counts differ from the first's")
            failed += p["runs"]
    # Each layer call's median over all runs, summed: a burst of host
    # contention moves only the calls it overlapped.
    def per_call_medians(rs):
        return sum(statistics.median(run[i] for run in rs) for i in range(len(rs[0])))
    wall_s = per_call_medians(runs)
    totals = [sum(run) for run in runs]
    probe = statistics.median(x for p in procs for x in p["probe_s"])
    unit = "jobs" if args.workload in ("paper-grid", "cluster") else "requests"
    units = first["units"]
    words = statistics.median(w for p in procs for w in p["minor_words"])

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs in {len(procs)} "
          f"processes, one domain each, {units} {unit} per run")
    print(f"render digest {first['digest']}")
    print("counts per run (base: one run of the workload): "
          + " ".join(f"{k}={v}" for k, v in first["counts"].items()))
    print(f"minor-heap words per run {words:.0f} (base: {units} {unit}; "
          f"{words / units:.1f} per unit)")
    q = quartiles(totals)
    print(f"host-speed probe median {probe * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:.3f} ms); "
          f"unscaled wall_s {per_call_medians(raw):.4f} s")
    print(f"run wall_s median {statistics.median(totals):.4f} s, quartiles "
          f"{q[0]:.4f}/{q[2]:.4f}; wall_s sums each layer call's median: {wall_s:.4f} s")
    if ok:
        q = quartiles(ok)
        print(f"setup_s median {statistics.median(ok):.5f} s, quartiles "
              f"{q[0]:.5f}/{q[2]:.5f} over {len(ok)} processes, at the reference host speed")
    if first["paper"]:
        figs = ", ".join(f"{f['figure']} {f['sim']:.2f} vs {f['paper']:.2f}"
                         for f in first["paper"])
        print(f"paper_err_pp {first['paper_err_pp']:.4f} pp (validated against the "
              f"paper's headline averages: {figs})")
    else:
        print("model unvalidated: the paper has no reference figures for this "
              "workload, so no error figure is reported")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics = {
        "setup_s": statistics.median(ok) if ok else None,
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
    }
    return (not problems and failed == 0, attempted, failed, metrics)


def traced(args, deadline):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    r = run_exe(["traced", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--spans", spans], deadline)
    print(f"workload {args.workload}, seed {args.seed}: {r['rounds']} rounds of an "
          f"untraced, a traced and a two-domain run; render digest {r['digest']}")
    print(f"wall_s one domain {shown(r['wall_s_1_domain'])} s, traced "
          f"{shown(r['wall_s_traced'])} s, two domains {shown(r['wall_s_2_domains'])} s")
    print(f"spans written to {spans}")
    for m in r["metrics"]:
        print(f"  {m['name']:<28} {shown(m['value'], '>16.6g')}   measured on {m['measured_on']}")
    for p in r["problems"]:
        print(f"CHECK FAILED: {p}")
    metrics = {m["name"]: m["value"] for m in r["metrics"]}
    return (not r["problems"] and r["failed"] == 0, r["attempted"], r["failed"], metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    correct, attempted, failed, values = (traced if args.trace else timed)(args, deadline)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            correct = False
            print(f"CHECK FAILED: metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
