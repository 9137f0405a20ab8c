"""Self-check of the benchmark: runs each workload briefly and confirms that

1. every metric named in BENCHMARK.json is printed with its unit, untraced
   (end_to_end) and traced (per_layer), and the result line has exactly
   the keys correct, attempted, failed and metrics; solver-routes also
   prints its count of the integrate defect;
2. a deliberately corrupted output is counted as a failed operation and
   makes the run incorrect, rather than passing silently;
3. two runs with the same seed generate identical inputs, and another
   seed generates different ones;
4. without the program's sources (only BENCHMARK.json and perfbench/)
   the benchmark exits with an error and prints no result.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py
Exits with 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def result_of(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-400:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def metric_problems(result, declared):
    problems = []
    printed = result["metrics"]
    if set(printed) != {m["name"] for m in declared}:
        problems.append(f"metrics {sorted(set(printed) ^ {m['name'] for m in declared})} "
                        "are printed but not declared, or declared but not printed")
    for metric in declared:
        got = printed.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')!r}, declared {metric['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{metric['name']}: value {got.get('value')!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []

    def report(name, problems):
        print(f"{'PASS' if not problems else 'FAIL'} {name}" +
              "".join(f"\n    {p}" for p in problems), flush=True)
        failures.extend(problems)

    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", "7", "--seconds", SECONDS]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            try:
                done = bench(*common, "--trace", trace)
                result = result_of(done)
                problems = metric_problems(result, declared)
                if not result["correct"]:
                    problems.append("run reported correct=false")
                if trace == "0" and "failed_ratio" not in done.stdout:
                    problems.append("failed_ratio line missing")
                if workload == "solver-routes" and "integrate defect:" not in done.stdout:
                    problems.append("integrate defect line missing")
                if trace == "0":
                    problems += [f"{m['name']} is {result['metrics'][m['name']]['value']}, not > 0"
                                 for m in declared if m["name"] in result["metrics"]
                                 and not result["metrics"][m["name"]]["value"] > 0]
            except (AssertionError, ValueError) as err:
                problems = [str(err)]
            report(f"{workload} trace={trace}: metrics printed with units", problems)

        try:
            result = result_of(bench(*common, "--trace", "0", "--corrupt-op", "0"))
            problems = []
            if result["failed"] < 1:
                problems.append("corrupted output was not counted as failed")
            if result["correct"]:
                problems.append("corrupted output left correct=true")
        except (AssertionError, ValueError) as err:
            problems = [str(err)]
        report(f"{workload}: corrupted output is caught", problems)

        first = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--dump-inputs")
        again = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--dump-inputs")
        other = bench("--workload", workload, "--seed", "8", "--seconds", "1", "--dump-inputs")
        problems = []
        if first.returncode or not first.stdout or first.stdout != again.stdout:
            problems.append("same seed gave different inputs")
        if first.stdout == other.stdout:
            problems.append("another seed gave the same inputs")
        report(f"{workload}: inputs depend on the seed only", problems)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", spec["workloads"][0]["name"], "--seed", "1",
                     "--seconds", SECONDS, cwd=bare)
        problems = []
        if done.returncode == 0:
            problems.append("exited with 0 without the program")
        if '"metrics"' in done.stdout:
            problems.append("printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("without src/ the benchmark fails and prints no result", problems)

    print(f"self-check: {'all checks passed' if not failures else f'{len(failures)} problem(s)'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
