"""One benchmark workload, run in a fresh process by run.py.

The workload drives only mbnsim's public API, times the calls from the
outside, checks every output outside the timed region, and prints one JSON
object as the last line of stdout. run.py starts it with PYTHONPATH set to
the checkout's ``src/`` and the BLAS thread count pinned in the environment.

Work comes in units, each drawing fresh inputs from the seed: a training
round on a new scenario for the training workloads, a chunk of oracle
instances for ``desk_oracle``. Episode cost depends on the scenario, so a
run covers several. An untraced run repeats units until their timed calls
add up to ``--seconds``; ``--fixed`` runs exactly the minimum number of
units, which is what traced runs and their untraced references do.
Every timed span (an operation, a unit's stretch outside its operations, a
set-up) is kept as its start and end; the metrics scale each span to the
reference speed of speed.py, whose calibration bursts run between spans.
``result_digest`` covers the minimum units, so it repeats for a fixed seed
in every mode.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import mbnsim
import speed as speeds
import tracer as tracing
from mbnsim import agents, baselines, env, harness, nets, scenario
from mbnsim.config import ScenarioConfig

_T_IMPORTED = time.monotonic()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

ALGORITHMS = ("dqn", "double_dqn", "duel_dqn")
RUN_SEEDS = (1, 2)
# The acceptance suite's trainer (tests/test_acceptance.py).
DESK_TRAINER = agents.TrainerConfig(hidden_sizes=(64, 64), learning_rate=5e-4)
DESK_DECAY_FRACTION = 0.25
FULL_TRAINER = agents.TrainerConfig(hidden_sizes=(128, 128))
EVAL_EPISODES = 3
RANDOM_EPISODES = 3

# Work per unit and the minimum number of units, by size. "smoke" is the
# tiny size used by smoke_check.py.
SIZES = {
    "full": {"desk_episodes": 150, "full_episodes": 30,
             "oracle_chunk": 50, "oracle_min_chunks": 8},
    "smoke": {"desk_episodes": 20, "full_episodes": 3,
              "oracle_chunk": 4, "oracle_min_chunks": 2},
}
# desk_default() with 3+3 users: the 4+4 instance's solve time has a
# coefficient of variation near 1, so the ~100 solves that fit in a run
# left seed-to-seed spreads near 20%; 3+3 solves ten times faster.
ORACLE_USERS = {"n_fembb": 3, "n_eurllc": 3}


class EpisodeClock:
    """Stamps every JnsaEnv.reset and runs the speed calibration bursts
    (speed.py) between timed intervals. An episode runs from its reset to
    the next reset (or the end of the unit); a burst due at a reset runs
    between the two episodes, in neither."""

    def __init__(self):
        self.speed = speeds.SpeedClock()
        self.marks: list[tuple[float, float]] = []  # (end, next start)
        original = env.JnsaEnv.reset
        marks, speed = self.marks, self.speed

        @functools.wraps(original)
        def reset(self_env, *args, **kwargs):
            end = time.perf_counter()
            speed.maybe_burst()
            marks.append((end, time.perf_counter()))
            return original(self_env, *args, **kwargs)
        env.JnsaEnv.reset = reset

    def take(self, unit_start: float, unit_end: float):
        """The unit's episode spans, and the span before its first episode."""
        starts = [unit_start] + [start for _, start in self.marks]
        ends = [end for end, _ in self.marks] + [unit_end]
        self.marks.clear()
        spans = list(zip(starts, ends))
        return spans[1:], spans[0]

    def timed_setup(self, setup, index: int, tracer=None):
        """Runs ``setup(index)`` between two bursts; returns its result and
        span."""
        self.speed.burst()
        with tracer.recording() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = setup(index)
            t1 = time.perf_counter()
        self.speed.burst()
        return result, (t0, t1)


@dataclasses.dataclass
class UnitResult:
    ops: int                  # operations attempted
    failed: int               # operations whose checks failed
    op_spans: list            # (start, end) of each operation's timed calls
    other_spans: list         # (start, end) of timed calls outside them
    digest_parts: list        # JSON-able values covered by result_digest
    setup_span: tuple         # (start, end) of this unit's set-up
    errors: list[str] = dataclasses.field(default_factory=list)

    @property
    def spans(self) -> list:
        return self.op_spans + self.other_spans


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# desk_train: harness.run_experiment over the three learners

class DeskTrain:
    op_name = "training episodes"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.episodes = size["desk_episodes"]
        self.min_units = 1
        self.out_root = OUT_DIR / f"desk_train-seed{seed}-pid{os.getpid()}"

    def config(self, index: int) -> ScenarioConfig:
        return ScenarioConfig.desk_default().replace(
            seed=harness.derived_seed(self.seed, index))

    def setup(self, index: int) -> None:
        """What run_experiment builds for each (algorithm, seed) run:
        scenario and gain tensor, normalizers, environment, trainers."""
        cfg = self.config(index)
        for seed in RUN_SEEDS:
            state = scenario.generate_scenario(
                cfg.replace(seed=harness.derived_seed(cfg.seed, seed, 0)))
            weights = env.ScalarizedObjective.for_state(
                state, weight_rate=cfg.weight_rate,
                violation_penalty=cfg.violation_penalty)
            jnsa = env.JnsaEnv(state.copy(), weights,
                               conflict_penalty=cfg.conflict_penalty,
                               seed=harness.derived_seed(cfg.seed, seed, 2))
            for algorithm in ALGORITHMS:
                for obs_dim, actions in (
                        (jnsa.fembb_obs_dim, jnsa.fembb_action_count),
                        (jnsa.eurllc_obs_dim, jnsa.eurllc_action_count)):
                    agents.DqnTrainer(agents.Algorithm.parse(algorithm),
                                      obs_dim, actions, DESK_TRAINER)

    def unit(self, index: int, clock: EpisodeClock, tracer) -> UnitResult:
        _, setup_span = clock.timed_setup(self.setup, index, tracer)
        ops = len(ALGORITHMS) * len(RUN_SEEDS) * self.episodes
        shutil.rmtree(self.out_root, ignore_errors=True)
        records, errors = {}, []
        with tracer.recording():
            t0 = time.perf_counter()
            try:
                for algorithm in ALGORITHMS:
                    spec = harness.ExperimentSpec(
                        scenario=self.config(index), algorithm=algorithm,
                        episodes=self.episodes, seeds=RUN_SEEDS,
                        trainer=DESK_TRAINER,
                        epsilon_decay_fraction=DESK_DECAY_FRACTION)
                    records[algorithm] = harness.run_experiment(
                        spec, self.out_root / algorithm)
            except Exception as exc:  # a crash fails the whole unit
                errors.append(_failure(exc))
            t1 = time.perf_counter()
        episodes, before = clock.take(t0, t1)
        if errors:
            shutil.rmtree(self.out_root, ignore_errors=True)
            return UnitResult(ops, ops, episodes, [before], [], setup_span,
                              errors)

        failed, parts = 0, []
        for algorithm, recs in records.items():
            try:
                self._check(algorithm, recs)
            except Exception as exc:  # every failed check counts
                failed += sum(r.episodes for r in recs)
                errors.append(_failure(exc))
            for r in recs:
                parts.append([algorithm, r.seed,
                              [repr(float(v)) for v in r.rewards],
                              repr(r.final_objective),
                              r.final_allocation.to_json()])
        shutil.rmtree(self.out_root, ignore_errors=True)
        return UnitResult(ops, failed, episodes, [before], parts, setup_span,
                          errors)

    def _check(self, algorithm: str, records) -> None:
        out = self.out_root / algorithm
        rows = harness.read_runs_csv(out / "runs.csv")
        got = sorted((row["algorithm"], row["seed"]) for row in rows)
        want = sorted((algorithm, seed) for seed in RUN_SEEDS)
        if got != want:
            raise AssertionError(f"runs.csv rows {got} != {want}")
        by_run = {row["run_id"]: row for row in rows}
        for r in records:
            row = by_run[r.run_id]
            if (row["final_objective"] != r.final_objective
                    or row["fembb_rate_bps"] != r.fembb_rate_bps
                    or row["episodes"] != r.episodes):
                raise AssertionError(f"runs.csv row {r.run_id} does not "
                                     "round-trip")
            if len(r.rewards) != r.episodes or not _finite(r.rewards):
                raise AssertionError(f"{r.run_id}: missing or non-finite reward")
            for role in ("fembb", "eurllc"):
                nets.load_checkpoint(out / "checkpoints" / f"{r.run_id}_{role}.json")


# ---------------------------------------------------------------------------
# full_train: full-scale DuelDQN training and greedy evaluation

class FullTrain:
    op_name = "training episodes"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.episodes = size["full_episodes"]
        self.min_units = 1

    def setup(self, index: int):
        """Scenario and gain tensor, normalizers, environment, trainers."""
        cfg = ScenarioConfig.full_default().replace(
            seed=harness.derived_seed(self.seed, index))
        state = scenario.generate_scenario(cfg)
        weights = env.ScalarizedObjective.for_state(
            state, weight_rate=cfg.weight_rate,
            violation_penalty=cfg.violation_penalty)
        jnsa = env.JnsaEnv(state.copy(), weights,
                           conflict_penalty=cfg.conflict_penalty,
                           seed=harness.derived_seed(cfg.seed, 2))
        for obs_dim, actions in ((jnsa.fembb_obs_dim, jnsa.fembb_action_count),
                                 (jnsa.eurllc_obs_dim, jnsa.eurllc_action_count)):
            agents.DqnTrainer(agents.Algorithm.DUEL_DQN, obs_dim, actions,
                              FULL_TRAINER)
        return cfg, state, weights, jnsa

    def unit(self, index: int, clock: EpisodeClock, tracer) -> UnitResult:
        (cfg, state, weights, jnsa), setup_span = clock.timed_setup(
            self.setup, index, tracer)
        ops, errors = self.episodes, []
        with tracer.recording():
            t0 = time.perf_counter()
            try:
                trainer_f, trainer_u, rewards = harness.train_policies(
                    jnsa, agents.Algorithm.DUEL_DQN, self.episodes,
                    FULL_TRAINER, seed=cfg.seed)
                results, alloc = harness.evaluate_policies(
                    state, weights, trainer_f.online, trainer_u.online,
                    harness.derived_seed(cfg.seed, 1), EVAL_EPISODES,
                    conflict_penalty=cfg.conflict_penalty)
            except Exception as exc:  # a crash fails the whole unit
                errors.append(_failure(exc))
            t1 = time.perf_counter()
        episodes, before = clock.take(t0, t1)
        if errors:
            return UnitResult(ops, ops, episodes, [before], [], setup_span,
                              errors)

        failed = 0
        try:
            if len(rewards) != self.episodes or not _finite(rewards):
                raise AssertionError("missing or non-finite training reward")
            for br in results:
                if not (_finite([br.value]) and _finite(br.fembb_rates_bps)
                        and _finite(br.eurllc_errors)):
                    raise AssertionError("non-finite evaluation value")
            alloc.validate()
        except Exception as exc:  # every failed check counts
            failed = ops
            errors.append(_failure(exc))
        parts = [[repr(float(v)) for v in rewards],
                 [repr(br.value) for br in results], alloc.to_json()]
        return UnitResult(ops, failed, episodes, [before], parts, setup_span,
                          errors)


# ---------------------------------------------------------------------------
# desk_oracle: exact branch-and-bound solves on a stream of desk instances

class DeskOracle:
    op_name = "oracle solves"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.cfg = ScenarioConfig.desk_default().replace(**ORACLE_USERS)
        self.chunk = size["oracle_chunk"]
        self.min_units = size["oracle_min_chunks"]

    def setup(self, index: int):
        """One chunk of the instance stream with its normalizers."""
        chunk = []
        for i in range(index * self.chunk, (index + 1) * self.chunk):
            state = scenario.generate_scenario(
                self.cfg.replace(seed=harness.derived_seed(self.seed, i)))
            chunk.append((i, state, env.ScalarizedObjective.for_state(state)))
        return chunk

    def unit(self, index: int, clock: EpisodeClock, tracer) -> UnitResult:
        chunk, setup_span = clock.timed_setup(self.setup, index, tracer)
        solved, spans, failed, errors = [], [], 0, []
        for i, state, weights in chunk:
            clock.speed.maybe_burst()
            with tracer.recording():
                t0 = time.perf_counter()
                try:
                    alloc, value = baselines.optimal_allocation(state, weights)
                except Exception as exc:  # a crash fails this solve
                    failed += 1
                    errors.append(_failure(exc))
                    continue
                spans.append((t0, time.perf_counter()))
            solved.append((i, state, weights, alloc, value))

        parts = []
        for i, state, weights, alloc, value in solved:
            try:
                self._check(i, state, weights, alloc, value)
            except Exception as exc:  # every failed check counts
                failed += 1
                errors.append(_failure(exc))
            parts.append([i, repr(value), alloc.to_json()])
        clock.marks.clear()  # the checks' random episodes are not operations
        return UnitResult(len(chunk), failed, spans, [], parts, setup_span,
                          errors)

    def _check(self, i, state, weights, alloc, value) -> None:
        alloc.validate()
        exact = env.objective(state, alloc, weights)
        if value != exact:
            raise AssertionError(f"instance {i}: solver value {value!r} != "
                                 f"objective {exact!r}")
        jnsa = env.JnsaEnv(state, weights, seed=harness.derived_seed(
            self.seed, i, 1), refresh_fading_on_reset=False)
        rng = np.random.default_rng(harness.derived_seed(self.seed, i, 2))
        for _ in range(RANDOM_EPISODES):
            jnsa.reset()
            while not jnsa.done:
                jnsa.step(int(rng.integers(
                    jnsa.action_count_for(jnsa.current_agent))))
            random_value = env.objective(state, jnsa.allocation, weights)
            if random_value > value:
                raise AssertionError(f"instance {i}: random episode scored "
                                     f"{random_value!r} > optimum {value!r}")


WORKLOADS = {"desk_train": DeskTrain, "full_train": FullTrain,
             "desk_oracle": DeskOracle}


# ---------------------------------------------------------------------------
# Environment header

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "mbnsim"
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_header(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


# ---------------------------------------------------------------------------

def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def timings(units, setup_spans, duration) -> dict:
    """The end-to-end timings, with ``duration(start, end)`` measuring every
    span."""
    rates = []
    for u in units:
        timed = sum(duration(*span) for span in u.spans)
        rates.append((u.ops - u.failed) / timed if timed > 0 else 0.0)
    latencies = sorted(duration(*span) for u in units for span in u.op_spans)
    return {
        "ops_per_s": float(np.median(rates)),
        "op_ms_p50": 1e3 * percentile(latencies, 0.50) if latencies else 0.0,
        "op_ms_p90": 1e3 * percentile(latencies, 0.90) if latencies else 0.0,
        "setup_s": float(np.median([duration(*s) for s in setup_spans])),
    }


def run(args) -> dict:
    size = SIZES[args.size]
    tracer = tracing.Tracer(args.workload)
    clock = EpisodeClock()
    if args.trace:
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, size)

    def wall(start, end):
        return end - start

    units: list[UnitResult] = []
    while True:
        units.append(workload.unit(len(units), clock, tracer))
        if len(units) < workload.min_units:
            continue
        timed_s = sum(wall(*span) for u in units for span in u.spans)
        if args.fixed or timed_s >= args.seconds:
            break
    # set-up is measured several times a run; units cover at least three
    setup_spans = [u.setup_span for u in units]
    while len(setup_spans) < 3:
        setup_spans.append(
            clock.timed_setup(workload.setup, len(setup_spans))[1])

    ops = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    speed = clock.speed
    digest = hashlib.sha256(json.dumps(
        [u.digest_parts for u in units[:workload.min_units]],
        sort_keys=True).encode()).hexdigest()
    metrics = timings(units, setup_spans, speed.scale)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result = {
        "workload": args.workload,
        "op_name": workload.op_name,
        "header": environment_header(args),
        "import_s": _T_IMPORTED - args.t0,
        "units": len(units),
        "timed_s": timed_s,
        "traced_s": timed_s + sum(wall(*u.setup_span) for u in units),
        "attempted": ops,
        "failed": failed,
        "errors": [e for u in units for e in u.errors][:20],
        "result_digest": digest,
        "latency_samples": sum(len(u.op_spans) for u in units),
        "metrics": metrics,
        "wall_metrics": timings(units, setup_spans, wall),
        "bursts": len(speed.burst_s),
        "burst_s": speed.burst_total_s,
        "reference_ms": 1e3 * speeds.REFERENCE_S,
        "reference_ms_median": 1e3 * float(np.median(speed.burst_s)),
    }
    if args.trace:
        summary = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_file)
        summary["file"] = str(trace_file.relative_to(ROOT))
        result["trace"] = summary
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed", action="store_true",
                        help="run exactly the minimum number of units")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() before spawning")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(mbnsim.__file__).resolve().parent.parent != src:
        print(f"error: mbnsim imported from {mbnsim.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
