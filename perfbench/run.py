"""Layered benchmark of modalforget: one command, four workloads.

    python3 perfbench/run.py --workload {decide,forget,verify,deep} \\
        --seed N --seconds S --trace {0,1} [--scale {full,smoke}]

Run it from the root of a checkout; it imports the package from ``src/``.

Every workload is a closed loop with one client: one process, one thread,
the next op issued only when the previous one returned.  Each run happens in
fresh worker processes (``worker.py``), so no input is ever seen twice by one
process.  Workloads, caps, the per-layer to end-to-end mapping and the
reference digests are described in ``design.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median, over
several fresh processes, of the time from starting the process to issuing
its first op; the other metrics come from one timed run of whole passes
lasting at least ``--seconds``.  ``--trace 1`` runs pass 0 untraced and then
traced, each in its own process, and prints the per-layer metrics, the
per-layer self-time table and the tracing overhead (traced minus untraced op
time).  Spans and a record of the run go to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 7
# A run must end within 180 s; the workers together get this much of it.
WORKERS_DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def worker(args, deadline: float, mode: str, trace: int = 0, spans: str = None):
    """Run one worker process to its end; returns (its result, when it started).

    The worker is killed if it is still running at ``deadline``.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--trace", str(trace), "--scale", args.scale]
    if spans:
        cmd += ["--spans", spans]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker still running after {WORKERS_DEADLINE_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1]), started


def untraced(args, deadline: float):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, started = worker(args, deadline, "setup")
        setups.append(res["ready"] - started)
    res, started = worker(args, deadline, "timed")
    setups.append(res["ready"] - started)
    metrics = dict(res, setup_s=statistics.median(setups))
    print(f"# timed run: {res['passes']} passes, {res['ops']} ops in {res['busy_s']:.3f} s; "
          f"tail is p{res['tail_percentile']} with {res['samples_beyond_tail']} samples beyond; "
          f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"# fail_ratio {res['failed'] / res['attempted']:.6f} ratio "
          f"({res['failed']} of {res['attempted']})")
    return res, metrics


def traced(args, deadline: float):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.tsv")
    plain, _ = worker(args, deadline, "pass0")
    res, _ = worker(args, deadline, "pass0", trace=1, spans=spans)
    metrics = dict(res["layers"])
    overhead = res["op_time_s"] - plain["op_time_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / plain["op_time_s"]
    print(f"# pass 0: {res['ops']} ops; op time {plain['op_time_s']:.4f} s untraced, "
          f"{res['op_time_s']:.4f} s traced; spans in {os.path.relpath(spans, ROOT)}")
    print("# layer          self_s      share_of_op_time")
    layer_self = res["layer_self_s"]
    for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"# {layer:<14} {secs:10.4f}  {secs / res['op_time_s']:8.1%}")
    package = sum(s for layer, s in layer_self.items() if layer != "bench")
    print(f"# package layers sum {package:.4f} s of {res['op_time_s']:.4f} s op time")
    attempted = plain["attempted"] + res["attempted"]
    failed = plain["failed"] + res["failed"]
    res = dict(res, attempted=attempted, failed=failed,
               failures=plain["failures"] + res["failures"],
               package_self_s=package)
    print(f"# fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
    return res, metrics


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "smoke"),
                    help="smoke: tiny sizes for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "modalforget", "__init__.py")):
        print(f"error: no modalforget sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKERS_DEADLINE_S
    try:
        res, values = (traced if args.trace else untraced)(args, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    machine = dict(res["machine"], seed=args.seed, workload=args.workload,
                   trace=args.trace, scale=args.scale, seconds=args.seconds)
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    # Exactly the metrics BENCHMARK.json names for this kind of run, with its units.
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in bench["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "result": res, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
