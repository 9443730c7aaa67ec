"""One workload run in a fresh process; ``run.py`` starts it and reads its result.

Modes:
  setup   build the inputs of pass 0, report when they were ready, exit;
  timed   run whole passes until the ops have taken ``--seconds``;
  pass0   run pass 0 only (traced with ``--trace 1``).

After the ops, every timed or pass0 run checks each answer (see
``workloads.check``) and then the reference: pass 0 of the same workload at
the reference seed and smoke size, whose rendered outputs must hash to the
digest recorded in ``design.json``.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from modalforget import calculus, interpolation  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "design.json"), encoding="utf-8") as _fh:
    DESIGN = json.load(_fh)

MAX_FAILURE_MESSAGES = 5


def percentile(ascending, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = -(-len(ascending) * pct // 100)
    return ascending[max(1, int(rank)) - 1]


class Run:
    """The ops of one workload in this process, their latencies and answers."""

    def __init__(self, workload: str, seed: int, size: dict, tracer=None,
                 digest=None):
        self.stream = workloads.STREAMS[workload](seed, size)
        self.tracer = tracer
        self.api = workloads.plain_api()
        if tracer is not None:
            self.api = tracer.traced_api(self.api)
        self.latencies = []
        self.results = []  # (op, cli stdout or None, facts, error)
        self.out_bytes = 0  # rendered output is ASCII: characters are bytes
        self.repeats = []
        self.digest = digest
        self.audit = {"edges": 0, "table": 0}
        self.table_calls_by_label = {}

    def run_pass(self, ops) -> float:
        """Issue ``ops`` one after another (one client, closed loop).

        Returns the seconds from the first op's start to the last op's end.
        """
        tracer, api, clock = self.tracer, self.api, time.perf_counter
        pass_start = clock()
        for op in ops:
            if tracer is not None:
                edges = calculus.AUDIT["edges_checked"]
                table = interpolation.AUDIT["table_calls_checked"]
                tracer.begin_op(len(self.results))
            start = clock()
            try:
                out, facts = workloads.execute(api, op)
                error = None
            except Exception as exc:  # a raising op is a failed op
                out, facts, error = "", None, f"raised {type(exc).__name__}: {exc}"
            latency = clock() - start
            if tracer is not None:
                latency = tracer.end_op()
                table = interpolation.AUDIT["table_calls_checked"] - table
                self.audit["edges"] += calculus.AUDIT["edges_checked"] - edges
                self.audit["table"] += table
                if op[3]:
                    self.table_calls_by_label[op[3]] = table
            self.latencies.append(latency)
            self.out_bytes += len(out)
            if self.digest is not None:
                self.digest.update(out.encode() + b"\0")
            kept = out if op[0].startswith("cli") else None
            self.results.append((op, kept, facts, error))
        return clock() - pass_start

    def next_pass(self, index: int):
        ops, repeats = self.stream.pass_(index)
        self.repeats.extend(repeats)
        return ops

    def check(self):
        """The correctness gate; returns the failure messages, one per op."""
        failures = []
        for op, out, facts, error in self.results:
            if error is None:
                try:
                    error = workloads.check(op, out, facts)
                except Exception as exc:  # a raising check is a failed op
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{op[0]} {op[1].value} {str(op[2])[:60]!r}: {error}")
        return failures


def layer_metrics(run: Run) -> dict:
    """Per-layer numbers of a traced run; names as in BENCHMARK.json."""
    t = run.tracer
    c, st = t.counts, t.self_time
    calls = int(c["calculus.prove.calls"])
    nodes = int(c["calculus.prove.nodes"])
    verify_total = t.total("interpolation.verify")
    m = {
        "parsing.time_s": st["parsing.parse"],
        "parsing.chars_per_s": c["parsing.chars"] / st["parsing.parse"]
        if st["parsing.parse"] else 0.0,
        "calculus.prove.calls": calls,
        "calculus.prove.calls_with_repeats":
            calls + sum(t.prove_calls_by_op[i] for i in run.repeats),
        "calculus.prove.distinct": len(t.prove_keys),
        "calculus.prove.distinct_ratio": len(t.prove_keys) / calls if calls else 0.0,
        "calculus.prove.time_s": st["calculus.prove"],
        "calculus.prove.nodes": nodes,
        "calculus.prove.max_depth": t.max_depth,
        "calculus.prove.us_per_node": st["calculus.prove"] / nodes * 1e6 if nodes else 0.0,
        "calculus.edges_audited": run.audit["edges"],
        "calculus.check.time_s": st["calculus.check"],
        "calculus.derivation_nodes": int(c["calculus.derivation_nodes"]),
        "interpolation.forget.calls": int(c["interpolation.forget.calls"]),
        "interpolation.forget.time_s": st["interpolation.forget"],
        "interpolation.table_calls": run.audit["table"],
        "interpolation.table_calls.k_rung8": run.table_calls_by_label.get("ladder:K:8", 0),
        "interpolation.table_calls.kt_rung2": run.table_calls_by_label.get("ladder:KT:2", 0),
        "interpolation.out_tree_nodes": int(c["interpolation.out_tree_nodes"]),
        "interpolation.out_dag_nodes": int(c["interpolation.out_dag_nodes"]),
        "interpolation.verify.time_s": st["interpolation.verify"],
        "interpolation.verify.prove_share":
            t.under("calculus.prove", "interpolation.verify") / verify_total
            if verify_total else 0.0,
        "quantifiers.eliminate.time_s": st["quantifiers.eliminate"],
        "quantifiers.steps": int(c["quantifiers.steps"]),
        "semantics.countermodel.calls": int(c["semantics.countermodel.calls"]),
        "semantics.countermodel.time_s": st["semantics.countermodel"],
        "semantics.model_worlds": int(c["semantics.model_worlds"]),
        "semantics.eval.time_s": st["semantics.eval"],
        "output.render.time_s": st["output.render"],
        "output.render.bytes": int(c["output.render.bytes"]),
        "cli.run.calls": int(c["cli.run.calls"]),
        "cli.run.time_s": st["cli.run"],
    }
    return m


def reference_check(workload: str):
    """Run the reference pass; returns (ops attempted, failure messages)."""
    run = Run(workload, DESIGN["reference_seed"], DESIGN["sizes"]["smoke"][workload],
              digest=hashlib.sha256())
    ops = run.next_pass(0)
    run.run_pass(ops)
    failures = run.check()
    digest = run.digest.hexdigest()
    if digest != DESIGN["reference_digests"][workload]:
        failures = [f"reference outputs of {workload} changed: digest {digest}"] * len(ops)
    return len(ops), failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "pass0"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=sorted(DESIGN["sizes"]))
    ap.add_argument("--spans", default=None, help="write the spans to this file")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, DESIGN["sizes"][args.scale][args.workload], tracer)
    ops = run.next_pass(0)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    busy, passes = 0.0, 0
    while True:
        busy += run.run_pass(ops)
        passes += 1
        if passes == 1:
            # Pass 0 is a fixed amount of work, so a faster program that
            # completes more passes (and interns more formulas) is not charged.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "pass0" or busy >= args.seconds:
            break
        ops = run.next_pass(passes)
    if tracer is not None:
        tracer.restore()
        if args.spans:
            tracer.write(args.spans)

    failures = run.check()
    ref_ops, ref_failures = reference_check(args.workload)
    failures += ref_failures
    lat = sorted(run.latencies)
    pct = DESIGN["tail_percentile"][args.workload]
    tail = percentile(lat, pct)
    result.update({
        "passes": passes,
        "ops": len(lat),
        "busy_s": busy,
        "op_time_s": sum(lat),
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "samples_beyond_tail": sum(1 for x in lat if x > tail),
        "peak_rss_mb": peak_rss_kb / 1024,
        "output_kb": run.out_bytes / len(lat) / 1024,
        "attempted": len(lat) + ref_ops,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
    })
    if tracer is not None:
        result["layers"] = layer_metrics(run)
        result["layer_self_s"] = tracer.layer_self_times()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
