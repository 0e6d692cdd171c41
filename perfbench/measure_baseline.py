"""Repeat the benchmark over several seeds and summarise each end-to-end
metric by its median and quartile spread.

    python3 perfbench/measure_baseline.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/measure_baseline.py --workloads full_train --seeds 1 2 3 4 5
    python3 perfbench/measure_baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --write
    python3 perfbench/measure_baseline.py --seeds 11 12 13 14 15 16 17 18 19 20 --write --repeat-set

Runs are sequential, one workload after another. The spread of a metric is
the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median. With
``--write`` the workloads run replace their entries in
``perfbench/baseline.json``: medians, spreads, per-seed result digests, the
per-layer metrics of a traced run, and whether a second traced run of the
same seed repeated its call counts and result digest. With ``--repeat-set``
as well, the set is stored as the workloads' ``repeat_set`` instead (no
traced runs), and each median is compared with the stored set's.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# result_digest: "):
            result["result_digest"] = line.split(": ", 1)[1]
        elif line.startswith("# environment: "):
            result["header"] = json.loads(line.split(": ", 1)[1])
        elif line.startswith("# speed calibration: "):
            result["reference_ms"] = float(
                re.search(r"kernel median ([0-9.]+) ms", line).group(1))
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--write", action="store_true",
                        help="store the summary in perfbench/baseline.json")
    parser.add_argument("--repeat-set", action="store_true",
                        help="with --write: store a second set of runs and "
                             "compare its medians with the first")
    args = parser.parse_args(argv)
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, header = {}, None
    for workload in args.workloads:
        results = {}
        for seed in args.seeds:
            results[seed] = run(workload, seed, seconds, 0)
            header = results[seed].get("header", header)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in results[seed]["metrics"].items())
                + f"; reference kernel {results[seed]['reference_ms']:.4f} ms",
                flush=True)
        entry = {"seeds": args.seeds,
                 "failed": sum(r["failed"] for r in results.values()),
                 "attempted": [r["attempted"] for r in results.values()],
                 "result_digest": {str(s): r["result_digest"]
                                   for s, r in results.items()},
                 # the host's speed in each run (speed.py)
                 "reference_kernel_ms": [r["reference_ms"]
                                         for r in results.values()],
                 "metrics": {}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"]
                            for r in results.values()])
            stats["unit"] = results[args.seeds[0]]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            verdict = ("ok" if stats["spread"] < bound / 3 else
                       "within bound" if stats["spread"] <= bound else "WIDE")
            print(f"  {name}: median {stats['median']:.6g} spread "
                  f"{stats['spread']:.2%} (bound {bound:.0%}) {verdict}",
                  flush=True)
            if args.repeat_set:
                first = baseline["workloads"][workload]["metrics"][name]
                change = stats["median"] / first["median"] - 1
                print(f"    median {change:+.2%} against the first set",
                      flush=True)
        if args.write and not args.repeat_set:
            # two traced runs of one seed: counts and digest must repeat
            traced = [run(workload, args.seeds[0], seconds, 1)
                      for _ in range(2)]
            calls = [{k: v["value"] for k, v in t["metrics"].items()
                      if k.endswith(".calls")} for t in traced]
            entry["traced_seed"] = args.seeds[0]
            entry["traced_repeat_matches"] = {
                "calls": calls[0] == calls[1],
                "result_digest": (traced[0]["result_digest"]
                                  == traced[1]["result_digest"])}
            entry["traced"] = {k: v["value"]
                               for k, v in traced[0]["metrics"].items()}
            print(f"  traced repeat matches: "
                  f"{entry['traced_repeat_matches']}", flush=True)
        summary[workload] = entry

    if args.write and args.repeat_set:
        for workload, entry in summary.items():
            baseline["workloads"][workload]["repeat_set"] = entry
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    elif args.write:
        machine = {k: v for k, v in header.items()
                   if k not in ("workload", "seed", "seconds", "size")}
        baseline.update(run_seconds=seconds, environment=machine)
        baseline.setdefault("workloads", {}).update(summary)
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
