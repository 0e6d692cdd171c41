"""Exact allocation baselines and ablation scenarios.

`optimal_allocation` maximizes the scalarized objective by depth-first
branch and bound: FeMBB users branch over (base station, subchannel) pairs
plus "unassigned", then eURLLC users branch over (subchannel, mini-slot)
pairs plus "unserved". Each user's bound is the objective's own per-user
term (`fembb_term`, `eurllc_term`) at the interference- and puncture-free
SINR, which can only raise a rate or lower a decoding error, so the bounds
always dominate the exact leaf value. Leaves are scored with the exact
objective, which keeps the result bit-identical to plain enumeration.
`enumerate_optimal` is that plain enumeration, kept as an independent
cross-check for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .env import (Allocation, ScalarizedObjective, eurllc_error, eurllc_term,
                  fembb_term, objective_breakdown, resolve_eurllc_host)
from .phy import sinr
from .scenario import NetworkState, _gain_log_bounds
from .service import shannon_rate


class InstanceSizeError(ValueError):
    """Instance exceeds the exact-search limits."""


@dataclass(frozen=True)
class SearchLimits:
    max_users: int = 12
    max_subchannels: int = 10
    node_budget: int = 20_000_000


def _static_space_bound(state: NetworkState) -> float:
    n_bs, c, m = state.n_bs, state.n_subchannels, state.n_minislots
    bound = 1.0
    for user in state.fembb_users:
        bound *= 1 + int(state.reachable[user].sum()) * c
    for _ in state.eurllc_users:
        bound *= 1 + c * m
    return bound


def _free_gamma(state: NetworkState, user: int, j: int, k: int) -> float:
    return sinr(state.subchannel_power_w(j), state.gains[user, j, k], 0.0,
                state.noise_w(j))


def _suffix_sums(values) -> np.ndarray:
    """suffix[i] = sum(values[i:]), with a trailing 0."""
    return np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])


def optimal_allocation(state: NetworkState,
                       weights: ScalarizedObjective | None = None,
                       limits: SearchLimits = SearchLimits()
                       ) -> tuple[Allocation, float]:
    """Exact maximizer of the scalarized objective, deterministic with
    lexicographically-smallest tie-breaking."""
    weights = weights or ScalarizedObjective.for_state(state)
    fembb_ids = state.fembb_users
    eurllc_ids = state.eurllc_users
    n_f, n_u = len(fembb_ids), len(eurllc_ids)
    if n_f + n_u > limits.max_users or state.n_subchannels > limits.max_subchannels:
        raise InstanceSizeError(
            f"instance exceeds search limits ({n_f + n_u} users, "
            f"{state.n_subchannels} subchannels; static search space "
            f"~{_static_space_bound(state):.3g} nodes)")
    c, m = state.n_subchannels, state.n_minislots
    n_bs = state.n_bs

    # weighted per-user terms at interference- and puncture-free SINR
    def fembb_value(user: int, j: int, k: int) -> float:
        rate = shannon_rate(state.frame_for(j).subchannel_bandwidth_hz,
                            _free_gamma(state, user, j, k))
        return weights.weight_rate * fembb_term(state, weights, rate, n_f)

    def eurllc_value(user: int, host: int, k: int) -> float:
        eps = eurllc_error(state.frame_for(host),
                           _free_gamma(state, user, host, k))
        return weights.weight_reliability * eurllc_term(state, weights, eps, n_u)

    unassigned = weights.weight_rate * fembb_term(state, weights, 0.0,
                                                  max(n_f, 1))
    unserved = weights.weight_reliability * eurllc_term(state, weights, 1.0,
                                                        max(n_u, 1))

    # per-FeMBB-user options sorted by optimistic value, best first
    f_options: list[list[tuple[float, int, int]]] = []
    for user in fembb_ids:
        opts = [(unassigned, -1, -1)]
        opts += [(fembb_value(user, j, k), j, k) for j in range(n_bs)
                 if state.reachable[user, j] for k in range(c)]
        opts.sort(key=lambda t: (-t[0], t[1], t[2]))
        f_options.append(opts)
    f_best_suffix = _suffix_sums([opts[0][0] for opts in f_options])

    # occupancy-independent eURLLC upper bound (best reachable host per k)
    u_bound_total = _suffix_sums([
        max([unserved] + [eurllc_value(user, j, k) for j in range(n_bs)
                          if state.reachable[user, j] for k in range(c)])
        for user in eurllc_ids])[0]

    best_val = -math.inf
    best_alloc: Allocation | None = None
    nodes = 0

    def count_node():
        nonlocal nodes
        nodes += 1
        if nodes > limits.node_budget:
            raise InstanceSizeError(
                f"search exceeded the node budget of {limits.node_budget}")

    def leaf(alloc: Allocation):
        nonlocal best_val, best_alloc
        value = objective_breakdown(state, alloc, weights).value
        if value > best_val or (value == best_val and best_alloc is not None
                                and alloc.canonical_key() < best_alloc.canonical_key()):
            best_val = value
            best_alloc = alloc.copy()

    def eurllc_stage(alloc: Allocation, occupied: np.ndarray,
                     fembb_partial: float):
        # resolved hosts and optimistic per-(user, k) values for this occupancy
        hosts = np.zeros((n_u, c), dtype=int)
        values = np.zeros((n_u, c))
        for q, user in enumerate(eurllc_ids):
            for k in range(c):
                host = resolve_eurllc_host(state, occupied, user, k)
                hosts[q, k] = host
                values[q, k] = (eurllc_value(user, host, k) if host >= 0
                                else unserved)
        order = [sorted(range(c), key=lambda k: -values[q, k])
                 for q in range(n_u)]
        suffix = _suffix_sums([values[q].max(initial=unserved)
                               for q in range(n_u)])
        used = np.zeros((c, m), dtype=bool)

        def descend(q: int, partial: float):
            count_node()
            if q == n_u:
                leaf(alloc)
                return
            if fembb_partial + partial + suffix[q] < best_val:
                return
            for k in order[q]:
                for slot in range(m):
                    if used[k, slot]:
                        continue
                    used[k, slot] = True
                    alloc.eurllc_k[q], alloc.eurllc_m[q] = k, slot
                    alloc.eurllc_host[q] = hosts[q, k]
                    descend(q + 1, partial + values[q, k])
                    alloc.eurllc_k[q] = alloc.eurllc_m[q] = alloc.eurllc_host[q] = -1
                    used[k, slot] = False
                    break  # mini-slots on one subchannel are interchangeable upward
            descend(q + 1, partial + unserved)  # leave this user unserved

        descend(0, 0.0)

    def fembb_stage(f: int, partial: float, alloc: Allocation,
                    occupied: np.ndarray):
        count_node()
        if f == n_f:
            if partial + u_bound_total >= best_val:
                eurllc_stage(alloc, occupied, partial)
            return
        if partial + f_best_suffix[f] + u_bound_total < best_val:
            return
        for value, j, k in f_options[f]:
            if j >= 0:
                if occupied[j, k]:
                    continue
                occupied[j, k] = True
                alloc.fembb_bs[f], alloc.fembb_k[f] = j, k
                fembb_stage(f + 1, partial + value, alloc, occupied)
                alloc.fembb_bs[f], alloc.fembb_k[f] = -1, -1
                occupied[j, k] = False
            else:
                fembb_stage(f + 1, partial + value, alloc, occupied)

    alloc0 = Allocation(n_f, n_u, c, m)
    fembb_stage(0, 0.0, alloc0, np.zeros((n_bs, c), dtype=bool))
    assert best_alloc is not None
    return best_alloc, best_val


def enumerate_optimal(state: NetworkState,
                      weights: ScalarizedObjective | None = None,
                      max_combinations: int = 2_000_000
                      ) -> tuple[Allocation, float]:
    """Brute-force maximizer over every valid allocation; independent
    cross-check for `optimal_allocation` on tiny instances."""
    weights = weights or ScalarizedObjective.for_state(state)
    fembb_ids = state.fembb_users
    eurllc_ids = state.eurllc_users
    c, m = state.n_subchannels, state.n_minislots
    n_bs = state.n_bs

    f_choices = []
    for user in fembb_ids:
        opts: list[tuple[int, int] | None] = [None]
        opts += [(j, k) for j in range(n_bs) if state.reachable[user, j]
                 for k in range(c)]
        f_choices.append(opts)
    u_choices = [[None] + [(k, slot) for k in range(c) for slot in range(m)]
                 for _ in eurllc_ids]

    total = math.prod([len(o) for o in f_choices + u_choices] or [1])
    if total > max_combinations:
        raise InstanceSizeError(
            f"enumeration space {total} exceeds {max_combinations}")

    best_val = -math.inf
    best_alloc: Allocation | None = None
    for f_combo in itertools.product(*f_choices) if f_choices else [()]:
        taken = [p for p in f_combo if p is not None]
        if len(set(taken)) != len(taken):
            continue
        alloc = Allocation(len(fembb_ids), len(eurllc_ids), c, m)
        for f, pair in enumerate(f_combo):
            if pair is not None:
                alloc.fembb_bs[f], alloc.fembb_k[f] = pair
        occupied = alloc.occupied(n_bs)
        for u_combo in itertools.product(*u_choices) if u_choices else [()]:
            slots = [s for s in u_combo if s is not None]
            if len(set(slots)) != len(slots):
                continue
            trial = alloc.copy()
            for q, slot in enumerate(u_combo):
                if slot is None:
                    continue
                k, mm = slot
                host = resolve_eurllc_host(state, occupied,
                                           eurllc_ids[q], k)
                if host < 0:
                    break
                trial.eurllc_k[q], trial.eurllc_m[q] = k, mm
                trial.eurllc_host[q] = host
            else:
                value = objective_breakdown(state, trial, weights).value
                if value > best_val or (
                        value == best_val and best_alloc is not None
                        and trial.canonical_key() < best_alloc.canonical_key()):
                    best_val = value
                    best_alloc = trial
    assert best_alloc is not None
    return best_alloc, best_val


# ---------------------------------------------------------------------------
# Ablation scenarios

def make_sbn_scenario(state: NetworkState) -> NetworkState:
    """Single-band network: same users, THz stations removed."""
    new = state.copy()
    new.topology.tbs_list = []
    new.gains = new.gains[:, :1, :].copy()
    new.reachable = new.reachable[:, :1].copy()
    new.gain_log_bounds = _gain_log_bounds(new.gains, new.reachable)
    new.serving_bs = None
    return new


def make_sc_scenario(state: NetworkState,
                     qos_enforced: bool = True) -> NetworkState:
    """Single-cell network: one RF station serving terrestrial users only.
    With qos_enforced=False the FeMBB minimum-rate constraint (and its
    penalty) is dropped from the objective."""
    from .scenario import UserKind
    new = make_sbn_scenario(state)
    keep = [i for i, u in enumerate(new.users)
            if u.kind is UserKind.TERRESTRIAL]
    new.users = [new.users[i] for i in keep]
    new.gains = new.gains[keep].copy()
    new.fading = new.fading[keep].copy()
    new.reachable = new.reachable[keep].copy()
    new.gain_log_bounds = _gain_log_bounds(new.gains, new.reachable)
    new.fembb_qos_enforced = qos_enforced
    new.serving_bs = None
    return new
