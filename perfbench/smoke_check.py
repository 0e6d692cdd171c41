"""Smoke check of the benchmark itself, at its tiny size (a few seconds per
workload):

* every end-to-end metric in BENCHMARK.json is printed with its unit, and
  every per-layer metric in a traced run;
* result_digest repeats for a fixed seed, traced or not, and so do the
  traced ``.calls`` counts;
* in a directory holding only BENCHMARK.json and perfbench/, the command
  fails without printing a result.

    python3 perfbench/smoke_check.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc) -> tuple[dict, str]:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = [line.split(": ", 1)[1] for line in lines
               if line.startswith("# result_digest: ")]
    return json.loads(lines[-1]), digests[0]


def check_metrics(result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}")
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [result_of(bench(ROOT, workload, 0)) for _ in range(2)]
        traced = [result_of(bench(ROOT, workload, 1)) for _ in range(2)]
        problems = []
        for result, _ in plain:
            problems += check_metrics(result, spec["end_to_end"])
            problems += [f"{k} is not positive" for k, v in
                         result["metrics"].items() if v["value"] <= 0]
        for result, _ in traced:
            problems += check_metrics(result, spec["per_layer"])
        digests = {d for _, d in plain + traced}
        if len(digests) != 1:
            problems.append(f"result_digest differs between runs: {digests}")
        calls = [{k: v["value"] for k, v in r["metrics"].items()
                  if k.endswith(".calls")} for r, _ in traced]
        if calls[0] != calls[1]:
            problems.append("traced call counts differ between runs")
        status = "ok" if not problems else "FAIL"
        print(f"{workload}: {status}", flush=True)
        failures += [f"{workload}: {p}" for p in problems]

    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and "{" not in proc.stdout
    print(f"bare directory fails without a result: "
          f"{'ok' if bare_ok else 'FAIL'}")
    if not bare_ok:
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
