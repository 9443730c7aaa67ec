"""Smoke test of the benchmark itself, at tiny sizes; about a minute.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --scale smoke`` untraced and traced and
checks that:
  * every metric named in BENCHMARK.json is printed, as ``name value unit``
    and in the final JSON line, with its unit;
  * no op failed (fail_ratio 0) and the result is correct;
  * the traced per-layer self times sum to no more than the op time;
  * a second traced run of the same seed gives identical counts.
Last, it checks that the benchmark refuses to run, with a non-zero exit and
no result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def checked_run(workload: str, trace: int, wanted):
    proc = run(ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: final line has keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
    check(any(line.startswith("# fail_ratio 0.000000 ") for line in lines),
          f"{workload} trace={trace}: fail_ratio line missing or not 0")
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        check(got is not None and got["unit"] == unit and isinstance(got["value"], (int, float)),
              f"{workload} trace={trace}: metric {name} [{unit}] missing: {got}")
        check(any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
              f"{workload} trace={trace}: no '{name} <value> {unit}' line")
    check(len(result["metrics"]) == len(wanted),
          f"{workload} trace={trace}: unexpected metrics "
          f"{sorted(set(result['metrics']) - {s['name'] for s in wanted})}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    counts = [s["name"] for s in bench["per_layer"] if s["unit"] in ("count", "bytes")]
    for spec in bench["workloads"]:
        workload = spec["name"]
        checked_run(workload, 0, bench["end_to_end"])
        first = checked_run(workload, 1, bench["per_layer"])
        record = os.path.join(ROOT, ".bench_build", "perfbench",
                              f"run-{workload}-s{SEED}-t1.json")
        with open(record, encoding="utf-8") as fh:
            traced = json.load(fh)["result"]
        check(traced["package_self_s"] <= traced["op_time_s"],
              f"{workload}: layer self times {traced['package_self_s']} exceed "
              f"op time {traced['op_time_s']}")
        second = checked_run(workload, 1, bench["per_layer"])
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            check(a == b, f"{workload}: count {name} differs between runs: {a} vs {b}")
        print(f"ok {workload}")

    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"without the sources the benchmark exited {proc.returncode}: {proc.stdout[-200:]}")
    print("ok refuses to run without the sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
