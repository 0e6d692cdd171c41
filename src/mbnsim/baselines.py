"""Exact allocation baselines.

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

import numpy as np

from .env import (Allocation, ScalarizedObjective, Stations, eurllc_error,
                  eurllc_term, fembb_term, objective_breakdown,
                  resolve_eurllc_host)
from .scenario import NetworkState
from .service import shannon_rate


class InstanceSizeError(ValueError):
    """Instance exceeds the exact-search limits."""


# exact-search limits: larger instances raise InstanceSizeError
MAX_USERS = 12
MAX_SUBCHANNELS = 10
NODE_BUDGET = 20_000_000


def check_instance_size(n_users: int, n_subchannels: int) -> None:
    """Raise InstanceSizeError for an instance beyond the exact-search limits."""
    if n_users > MAX_USERS or n_subchannels > MAX_SUBCHANNELS:
        raise InstanceSizeError(
            f"instance exceeds search limits: {n_users} users (at most "
            f"{MAX_USERS}), {n_subchannels} subchannels (at most {MAX_SUBCHANNELS})")


def _suffix_sums(values) -> np.ndarray:
    """suffix[i] = sum(values[i:]), with a trailing 0."""
    return np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])


def optimal_allocation(state: NetworkState,
                       weights: ScalarizedObjective | None = None
                       ) -> tuple[Allocation, float]:
    """Exact maximizer of the scalarized objective, deterministic with
    lexicographically-smallest tie-breaking."""
    weights = weights or ScalarizedObjective.for_state(state)
    fembb_ids = state.fembb_users
    eurllc_ids = state.eurllc_users
    n_f, n_u = len(fembb_ids), len(eurllc_ids)
    check_instance_size(n_f + n_u, state.n_subchannels)
    c, m = state.n_subchannels, state.n_minislots
    n_bs = state.n_bs
    stations = Stations(state)

    # weighted per-user terms at interference- and puncture-free SINR
    def fembb_value(user: int, j: int, k: int) -> float:
        rate = shannon_rate(stations.frame[j].subchannel_bandwidth_hz,
                            stations.free_gamma(user, j, k))
        return weights.weight_rate * fembb_term(state, weights, rate, n_f)

    def eurllc_value(user: int, host: int, k: int) -> float:
        eps = eurllc_error(stations.frame[host],
                           stations.free_gamma(user, host, k))
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
    alloc = Allocation(n_f, n_u, c, m)
    occupied = np.zeros((n_bs, c), dtype=bool)
    nodes = 0

    def count_node():
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise InstanceSizeError(
                f"search exceeded the node budget of {NODE_BUDGET}")

    def leaf():
        nonlocal best_val, best_alloc
        value = objective_breakdown(state, alloc, weights).value
        if value > best_val or (value == best_val and best_alloc is not None
                                and alloc.canonical_key() < best_alloc.canonical_key()):
            best_val = value
            best_alloc = alloc.copy()

    def eurllc_stage(fembb_partial: float):
        # per-eURLLC-user (value, subchannel, resolved host) options for this
        # occupancy, sorted by optimistic value, best first
        u_options: list[list[tuple[float, int, int]]] = []
        for user in eurllc_ids:
            opts = [(eurllc_value(user, host, k), k, host) for k in range(c)
                    for host in [resolve_eurllc_host(state, occupied, user, k)]]
            opts.sort(key=lambda t: (-t[0], t[1]))
            u_options.append(opts)
        suffix = _suffix_sums([max(opts[0][0], unserved) for opts in u_options])
        # mini-slots on one subchannel are interchangeable upward, so each
        # user takes the first free one: subchannel k uses 0..taken[k]-1
        taken = [0] * c

        def descend(q: int, partial: float):
            count_node()
            if q == n_u:
                leaf()
                return
            if fembb_partial + partial + suffix[q] < best_val:
                return
            for value, k, host in u_options[q]:
                if taken[k] == m:
                    continue
                alloc.eurllc_k[q], alloc.eurllc_m[q] = k, taken[k]
                alloc.eurllc_host[q] = host
                taken[k] += 1
                descend(q + 1, partial + value)
                taken[k] -= 1
                alloc.eurllc_k[q] = alloc.eurllc_m[q] = alloc.eurllc_host[q] = -1
            descend(q + 1, partial + unserved)  # leave this user unserved

        descend(0, 0.0)

    def fembb_stage(f: int, partial: float):
        count_node()
        if f == n_f:
            if partial + u_bound_total >= best_val:
                eurllc_stage(partial)
            return
        if partial + f_best_suffix[f] + u_bound_total < best_val:
            return
        for value, j, k in f_options[f]:
            if j >= 0:
                if occupied[j, k]:
                    continue
                occupied[j, k] = True
                alloc.fembb_bs[f], alloc.fembb_k[f] = j, k
                fembb_stage(f + 1, partial + value)
                alloc.fembb_bs[f], alloc.fembb_k[f] = -1, -1
                occupied[j, k] = False
            else:
                fembb_stage(f + 1, partial + value)

    fembb_stage(0, 0.0)
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

