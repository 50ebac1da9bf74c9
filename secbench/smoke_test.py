"""Smoke test of the secbench benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, with the
model checks on, and checks that each run is correct and that every metric
BENCHMARK.json names is emitted with its unit, plus the workload-specific
rows printed before the JSON line.  Run from the repository root:

    python3 secbench/smoke_test.py
"""

import json
import subprocess
import sys

SECONDS = "3"

# rows printed on "metric NAME VALUE UNIT" lines in untraced runs
REPORTED = {
    "oltp-point": {"read_p50_ms": "ms", "read_p99_ms": "ms", "write_p50_ms": "ms",
                   "write_p99_ms": "ms", "failed_frac": "share"},
    "analytic-scan": {"read_p50_ms": "ms", "read_p99_ms": "ms", "failed_frac": "share"},
    "durable-write": {"write_p50_ms": "ms", "write_p99_ms": "ms", "failed_frac": "share",
                      "repl_catchup_s": "s", "restart_s": "s", "log_bytes_per_write": "B"},
}


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reported = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            reported[name] = unit
    return result, reported


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, reported = run(bench, name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}/{trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name}/{trace}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{name}/{trace}: missing {m['name']}")
                elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name}/{trace}: {m['name']} = {got}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name}/{trace}: undeclared metrics {sorted(extra)}")
            if trace == 0:
                for row, unit in REPORTED[name].items():
                    if reported.get(row) != unit:
                        problems.append(f"{name}: report row {row} [{unit}] missing")
            print(f"ok {name} trace={trace}", flush=True)
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("secbench smoke: OK")


if __name__ == "__main__":
    main()
