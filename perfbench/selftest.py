#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, plus the ungated tenant_mix, for two
seconds at the tiny setup scale, untraced with two seeds and traced with
one, and checks that
  * every named metric is printed with its declared unit and a finite value,
    and no other metric is printed;
  * sent = ok + failed + rejected, and the run is correct;
  * a different seed changes the generated inputs but not the metric names.
Exits non-zero on the first failed check.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--tiny", "1"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed={seed} trace={trace}: exit "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    traffic = next(json.loads(l[len("traffic "):]) for l in lines
                   if l.startswith("traffic "))
    return traffic, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def check_metrics(result, declared, where):
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{where}: metric names differ: missing "
          f"{sorted(set(declared) - set(metrics))}, extra "
          f"{sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics[name]
        check(m["unit"] == unit, f"{where}: {name} unit {m['unit']} != {unit}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{where}: {name} is not finite: {m['value']}")


# Workloads the program runs beyond the gated ones in BENCHMARK.json.
UNGATED = ["tenant_mix"]


def main():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in [w["name"] for w in SPEC["workloads"]] + UNGATED:
        names = []
        fingerprints = []
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            where = f"{name} seed={seed} trace={trace}"
            traffic, result = run(name, seed, trace)
            check(result["correct"] is True, f"{where}: run not correct")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(traffic["sent"] == traffic["ok"] + traffic["failed"] +
                  traffic["rejected"], f"{where}: sent != ok+failed+rejected")
            check_metrics(result, layers if trace else e2e, where)
            if not trace:
                names.append(sorted(result["metrics"]))
                fingerprints.append(traffic["input_fingerprint"])
            print(f"ok   {where}: {len(result['metrics'])} metrics, "
                  f"sent {traffic['sent']}", flush=True)
        check(fingerprints[0] != fingerprints[1],
              f"{name}: seeds 1 and 2 generated identical inputs")
        check(names[0] == names[1], f"{name}: metric names depend on the seed")
    print("selftest passed")


if __name__ == "__main__":
    main()
