"""Span tracer for the benchmark's traced runs.

Wrappers are installed on mbnsim's public functions and methods from the
outside: a module-level function is replaced in every loaded ``mbnsim``
module whose namespace holds it, a method is replaced on its class. No file
under ``src/`` is touched.

Each span records its name, start, end and parent span; the workload is
recorded once for the whole run. Spans are appended to compact in-memory
arrays and written out as one ``.npz`` file at the end. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Every span the tracer can record, in report order. The caller split of
# objective_breakdown uses the nearest enclosing span among _CALLER_LABELS.
SPANS = (
    "scenario.generate_scenario",
    "scenario.compute_gain_tensor",
    "scenario.refresh_fading",
    "env.JnsaEnv.reset",
    "env.JnsaEnv.step.fembb",
    "env.JnsaEnv.step.eurllc",
    "env.JnsaEnv.observe",
    "env.objective_breakdown.step",
    "env.objective_breakdown.reset",
    "env.objective_breakdown.oracle",
    "env.objective_breakdown.eval",
    "env.objective_breakdown.other",
    "env.Allocation.validate",
    "env.Allocation.eurllc_slot",
    "env.Allocation.occupied",
    "env.Allocation.puncture_counts",
    "env.Allocation.copy",
    "env.resolve_eurllc_host",
    "nets.forward.b1",
    "nets.forward.batch",
    "nets.backward",
    "nets.AdamOptimizer.step",
    "nets.clip_gradients",
    "nets.save_checkpoint",
    "agents.ReplayBuffer.sample",
    "agents.ReplayBuffer.push",
    "agents.td_targets",
    "agents.DqnTrainer.train_step",
    "agents.DqnTrainer.select_action",
    "baselines.optimal_allocation",
    "harness.run_experiment",
    "harness.train_policies",
    "harness.evaluate_policies",
)

_CALLER_LABELS = {
    "env.JnsaEnv.step.fembb": "step",
    "env.JnsaEnv.step.eurllc": "step",
    "env.JnsaEnv.reset": "reset",
    "baselines.optimal_allocation": "oracle",
    "harness.evaluate_policies": "eval",
}

# Adam reads p, g, m, v and writes p, m, v: seven float64 arrays per step.
_ADAM_ARRAYS_TOUCHED = 7


class Tracer:
    """In-memory span store. Records only inside `recording()`, and only
    once `install` has put the wrappers in place."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.ids = {name: i for i, name in enumerate(SPANS)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def top_name(self) -> str | None:
        return SPANS[self.name_id[self.stack[-1]]] if self.stack else None

    def caller_label(self) -> str:
        for i in reversed(self.stack):
            label = _CALLER_LABELS.get(SPANS[self.name_id[i]])
            if label is not None:
                return label
        return "other"

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls and self seconds, the counters, and the ratios."""
        nid = np.asarray(self.name_id, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        self_s = dur - covered
        calls = np.bincount(nid, minlength=len(SPANS))
        self_by_name = np.bincount(nid, weights=self_s, minlength=len(SPANS))
        spans = {name: {"calls": int(calls[i]), "self_s": float(self_by_name[i])}
                 for i, name in enumerate(SPANS)}
        c = self.counters
        solves = spans["baselines.optimal_allocation"]["calls"]
        adam_steps = spans["nets.AdamOptimizer.step"]["calls"]
        ratios = {
            "env.step.accept_ratio":
                c["steps_accepted"] / c["steps"] if c["steps"] else 0.0,
            "baselines.leaf_evals_per_solve":
                spans["env.objective_breakdown.oracle"]["calls"] / solves
                if solves else 0.0,
            "nets.adam.bytes_per_step_computed":
                c["adam_bytes"] / adam_steps if adam_steps else 0.0,
        }
        return {"spans": spans, "ratios": ratios, "n_spans": len(dur)}

    def write(self, path) -> None:
        np.savez(path, workload=np.array(self.workload),
                 names=np.array(SPANS),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 start=np.asarray(self.start, dtype=float),
                 end=np.asarray(self.end, dtype=float))


# ---------------------------------------------------------------------------
# Wrappers

def _plain(tracer: Tracer, name: str, fn):
    nid = tracer.ids[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def _step(tracer: Tracer, fn):
    """JnsaEnv.step, split by the acting agent's class, counting accepts
    (a rejected action raises conflict_penalty_total)."""
    ids = {"fembb": tracer.ids["env.JnsaEnv.step.fembb"],
           "eurllc": tracer.ids["env.JnsaEnv.step.eurllc"]}

    @functools.wraps(fn)
    def traced(self, action):
        if not tracer.enabled:
            return fn(self, action)
        agent = self.current_agent
        kind = "eurllc" if agent is None else self.user_class(agent).value
        before = self.conflict_penalty_total
        i = tracer.open(ids[kind])
        try:
            return fn(self, action)
        finally:
            tracer.close(i)
            tracer.counters["steps"] += 1
            if self.conflict_penalty_total == before:
                tracer.counters["steps_accepted"] += 1
    return traced


def _forward(tracer: Tracer, fn):
    """Network forward, split into single observations and batches. A 1-D
    call re-enters forward with a one-row batch; that inner call is part of
    the outer span."""
    b1, batch = tracer.ids["nets.forward.b1"], tracer.ids["nets.forward.batch"]

    @functools.wraps(fn)
    def traced(self, x, cache=None):
        if not tracer.enabled or tracer.top_name() in (
                "nets.forward.b1", "nets.forward.batch"):
            return fn(self, x, cache)
        i = tracer.open(b1 if x.ndim == 1 or x.shape[0] == 1 else batch)
        try:
            return fn(self, x, cache)
        finally:
            tracer.close(i)
    return traced


def _objective_breakdown(tracer: Tracer, fn):
    ids = {label: tracer.ids[f"env.objective_breakdown.{label}"]
           for label in ("step", "reset", "oracle", "eval", "other")}

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(ids[tracer.caller_label()])
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def _adam_step(tracer: Tracer, fn):
    inner = _plain(tracer, "nets.AdamOptimizer.step", fn)

    @functools.wraps(fn)
    def traced(self, params, grads):
        if tracer.enabled:
            tracer.counters["adam_bytes"] += _ADAM_ARRAYS_TOUCHED * sum(
                p.nbytes for p in params)
        return inner(self, params, grads)
    return traced


def _replace_function(module, attr: str, wrapper_factory) -> None:
    """Swap a module-level function in every loaded mbnsim module that
    looks it up by name."""
    original = getattr(module, attr)
    wrapped = wrapper_factory(original)
    for name, mod in list(sys.modules.items()):
        if (name == "mbnsim" or name.startswith("mbnsim.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Install every wrapper. Call once, after importing mbnsim."""
    from mbnsim import agents, baselines, env, harness, nets, scenario

    def plain(name):
        return lambda fn: _plain(tracer, name, fn)

    for attr in ("generate_scenario", "compute_gain_tensor", "refresh_fading"):
        _replace_function(scenario, attr, plain(f"scenario.{attr}"))
    _replace_function(env, "resolve_eurllc_host",
                      plain("env.resolve_eurllc_host"))
    _replace_function(env, "objective_breakdown",
                      lambda fn: _objective_breakdown(tracer, fn))
    _replace_function(nets, "clip_gradients", plain("nets.clip_gradients"))
    _replace_function(nets, "save_checkpoint", plain("nets.save_checkpoint"))
    _replace_function(agents, "td_targets", plain("agents.td_targets"))
    _replace_function(baselines, "optimal_allocation",
                      plain("baselines.optimal_allocation"))
    for attr in ("run_experiment", "train_policies", "evaluate_policies"):
        _replace_function(harness, attr, plain(f"harness.{attr}"))

    methods = [
        (env.JnsaEnv, "reset", plain("env.JnsaEnv.reset")),
        (env.JnsaEnv, "observe", plain("env.JnsaEnv.observe")),
        (env.JnsaEnv, "step", lambda fn: _step(tracer, fn)),
        (nets.AdamOptimizer, "step", lambda fn: _adam_step(tracer, fn)),
        (agents.ReplayBuffer, "sample", plain("agents.ReplayBuffer.sample")),
        (agents.ReplayBuffer, "push", plain("agents.ReplayBuffer.push")),
        (agents.DqnTrainer, "train_step", plain("agents.DqnTrainer.train_step")),
        (agents.DqnTrainer, "select_action",
         plain("agents.DqnTrainer.select_action")),
    ]
    for attr in ("validate", "eurllc_slot", "occupied", "puncture_counts",
                 "copy"):
        methods.append((env.Allocation, attr, plain(f"env.Allocation.{attr}")))
    for cls in (nets.QNetwork, nets.DuelingQNetwork):
        methods.append((cls, "forward", lambda fn: _forward(tracer, fn)))
        methods.append((cls, "backward", plain("nets.backward")))
    for cls, attr, factory in methods:
        setattr(cls, attr, factory(getattr(cls, attr)))
