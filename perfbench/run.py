"""mbnsim benchmark: one command, one workload per fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``desk_train``: ``harness.run_experiment`` for dqn, double_dqn and
  duel_dqn over two seeds on ``ScenarioConfig.desk_default()`` with the
  acceptance trainer, writing CSVs and checkpoints to a temporary out_dir.
* ``full_train``: ``scenario.generate_scenario`` on ``full_default()``,
  ``env.JnsaEnv``, ``harness.train_policies`` (DuelDQN, 128x128) and
  ``harness.evaluate_policies``.
* ``desk_oracle``: ``baselines.optimal_allocation`` on a stream of desk
  instances (3+3 users) drawn from the seed, timed per solve.

End-to-end metrics (``--trace 0``), the same names on every workload; an
operation is a training episode or an oracle solve. Every time is scaled to
the reference speed of ``perfbench/speed.py`` (a fixed kernel timed in
short bursts between the operations), because the shared host's own speed
wanders by up to 2x; the unscaled wall-clock values are printed on a
comment line:

* ``ops_per_s``: correct operations per second of timed calls, set-up and
  checks excluded, as the median over the run's units
  (``train_episodes_per_s`` or ``oracle_solves_per_s``).
* ``op_ms_p50``, ``op_ms_p90``: per-operation latency. A training
  episode runs from one ``JnsaEnv.reset`` to the next (greedy evaluation
  episodes included); a solve is one ``optimal_allocation`` call.
* ``setup_s``: median over the run's set-ups (scenario and gain tensor,
  normalizers, environment, trainers), imports excluded.
* ``peak_rss_mb``: the workload process's peak resident set.

Failed operations count against ``attempted`` in the result line and are
printed as ``failed_ratio``. ``--trace 1`` runs the workload twice at its
minimum size, untraced and then traced, and prints the per-layer metrics of
the traced run plus the tracing overhead (traced minus untraced timed
seconds). Every result starts with an environment header; the last line of
stdout is the JSON result.

The workload process gets ``PYTHONPATH=src`` and one BLAS thread.
``perfbench/smoke_check.py`` exercises this command at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workload.py"
WORKLOADS = ("desk_train", "full_train", "desk_oracle")
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
TRAIN_ALIASES = ("train_episodes_per_s = ops_per_s; train_episode_ms_p50/p90 "
                 "= op_ms_p50/p90")
ALIASES = {"desk_train": TRAIN_ALIASES, "full_train": TRAIN_ALIASES,
           "desk_oracle": "oracle_solves_per_s = ops_per_s; "
                          "oracle_solve_ms_p50/p90 = op_ms_p50/p90"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_workload(args, deadline: float, *, trace: bool, fixed: bool) -> dict:
    cmd = [sys.executable, str(WORKLOAD_SCRIPT), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--size", args.size]
    if fixed:
        cmd.append("--fixed")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload {args.workload} exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {args.workload} exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def layer_values(traced: dict, untraced: dict) -> dict:
    values = {}
    for name, span in traced["trace"]["spans"].items():
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
    values.update(traced["trace"]["ratios"])
    values["import_s"] = traced["import_s"]
    values["trace.wall_s"] = traced["traced_s"]
    values["trace.overhead_s"] = traced["timed_s"] - untraced["timed_s"]
    values["trace.overhead_share"] = (values["trace.overhead_s"]
                                      / untraced["timed_s"])
    return values


def print_layer_table(traced: dict, values: dict) -> None:
    wall = traced["traced_s"]
    print(f"# per-layer spans, {traced['workload']} (traced wall {wall:.3f} s, "
          f"{traced['trace']['n_spans']} spans, written to "
          f"{traced['trace']['file']})")
    print(f"# {'span':<34} {'calls':>9} {'self_s':>10} {'share':>7} "
          f"{'us/call':>10}")
    for name, span in traced["trace"]["spans"].items():
        if span["calls"] == 0:
            continue
        share = span["self_s"] / wall if wall > 0 else 0.0
        per_call = 1e6 * span["self_s"] / span["calls"]
        print(f"# {name:<34} {span['calls']:>9d} {span['self_s']:>10.4f} "
              f"{share:>7.1%} {per_call:>10.2f}")
    for name in ("env.step.accept_ratio", "baselines.leaf_evals_per_solve",
                 "nets.adam.bytes_per_step_computed", "import_s",
                 "trace.overhead_s", "trace.overhead_share"):
        print(f"# {name} = {values[name]:.6g}")
    print("# oracle nodes expanded/pruned are not visible from outside "
          "optimal_allocation; leaf_evals_per_solve stands in for them")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="mbnsim benchmark; see the module docstring")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the tiny size smoke_check.py uses")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_LIMIT_S
    # a terminated benchmark still stops and reaps its workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        if not (ROOT / "src" / "mbnsim" / "__init__.py").is_file():
            raise BenchError(f"no mbnsim sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            untraced = run_workload(args, deadline, trace=False, fixed=True)
            result = run_workload(args, deadline, trace=True, fixed=True)
            if result["result_digest"] != untraced["result_digest"]:
                raise BenchError("tracing changed the workload's results")
            values = layer_values(result, untraced)
            wanted = spec["per_layer"]
        else:
            result = run_workload(args, deadline, trace=False, fixed=False)
            values = result["metrics"]
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"workload did not report {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"# mbnsim benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print("# environment: " + json.dumps(result["header"], sort_keys=True))
    print(f"# {attempted} {result['op_name']} attempted, {failed} failed, "
          f"failed_ratio={failed / attempted:.6g}; {result['units']} units, "
          f"{result['timed_s']:.3f} s timed, "
          f"{result['latency_samples']} latency samples")
    print(f"# speed calibration: {result['bursts']} bursts "
          f"({result['burst_s']:.3f} s, outside the timed spans); reference "
          f"kernel median {result['reference_ms_median']:.4f} ms, scaled to "
          f"{result['reference_ms']:.4f} ms")
    if not args.trace:
        print("# wall-clock, unscaled: " + ", ".join(
            f"{k}={v:.6g}" for k, v in result["wall_metrics"].items()))
    for error in result["errors"]:
        print(f"# check failed: {error}")
    print(f"# result_digest: {result['result_digest']}")
    if args.trace:
        print_layer_table(result, values)
    else:
        print(f"# {ALIASES[args.workload]}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
