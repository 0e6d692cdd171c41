"""The joint network-selection and subchannel-allocation decision process.

One episode builds one allocation: FeMBB agents act first (each picks a
(base station, subchannel) pair), then eURLLC agents (each picks a
(subchannel, mini-slot) pair that punctures the hosting subchannel). Every
agent acts exactly once per episode, in a per-episode random order within
its class. Accepted actions earn the marginal change of the scalarized
objective; infeasible or conflicting actions are rejected with a fixed
penalty and leave the state unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phy import sinr
from .scenario import (NetworkState, UserClass, compute_gain_tensor,
                       refresh_fading)
from .service import (FrameConfig, decoding_error_probability, punctured_rate,
                      shannon_rate)

ALLOCATION_SCHEMA_VERSION = 1
_UNASSIGNED_KEY = (1 << 30, 1 << 30, 1 << 30)


class AllocationError(ValueError):
    """An allocation violates a structural invariant."""


@dataclass
class Allocation:
    """FeMBB and eURLLC assignments as per-user index arrays.

    FeMBB user f transmits on subchannel `fembb_k[f]` of base station
    `fembb_bs[f]`. eURLLC user q punctures mini-slot `eurllc_m[q]` of
    subchannel `eurllc_k[q]`, hosted by base station `eurllc_host[q]`, so a
    user holds at most one slot by construction. Unassigned entries are -1.
    """

    n_fembb: int
    n_eurllc: int
    n_subchannels: int
    n_minislots: int
    fembb_bs: np.ndarray = field(default=None)
    fembb_k: np.ndarray = field(default=None)
    eurllc_k: np.ndarray = field(default=None)
    eurllc_m: np.ndarray = field(default=None)
    eurllc_host: np.ndarray = field(default=None)

    def __post_init__(self):
        for name, n in (("fembb_bs", self.n_fembb), ("fembb_k", self.n_fembb),
                        ("eurllc_k", self.n_eurllc), ("eurllc_m", self.n_eurllc),
                        ("eurllc_host", self.n_eurllc)):
            if getattr(self, name) is None:
                setattr(self, name, np.full(n, -1, dtype=int))

    def copy(self) -> "Allocation":
        return Allocation(self.n_fembb, self.n_eurllc, self.n_subchannels,
                          self.n_minislots, self.fembb_bs.copy(),
                          self.fembb_k.copy(), self.eurllc_k.copy(),
                          self.eurllc_m.copy(), self.eurllc_host.copy())

    def validate(self) -> None:
        _check_pairs(self.fembb_bs, self.fembb_k, "fembb_bs and fembb_k",
                     "a (bs, subchannel) pair is assigned twice")
        served = _check_pairs(self.eurllc_k, self.eurllc_m,
                              "eurllc_k and eurllc_m",
                              "a (subchannel, mini-slot) pair is punctured twice")
        if not np.array_equal(served, self.eurllc_host >= 0):
            raise AllocationError("eurllc_host must be set exactly for puncturing users")
        if (self.fembb_k.max(initial=-1) >= self.n_subchannels
                or self.eurllc_k.max(initial=-1) >= self.n_subchannels):
            raise AllocationError(f"a subchannel lies outside 0..{self.n_subchannels - 1}")
        if self.eurllc_m.max(initial=-1) >= self.n_minislots:
            raise AllocationError(f"a mini-slot lies outside 0..{self.n_minislots - 1}")

    def eurllc_slot(self, q: int) -> tuple[int, int] | None:
        if self.eurllc_k[q] < 0:
            return None
        return int(self.eurllc_k[q]), int(self.eurllc_m[q])

    def occupied(self, n_bs: int) -> np.ndarray:
        occ = np.zeros((n_bs, self.n_subchannels), dtype=bool)
        assigned = self.fembb_bs >= 0
        try:
            occ[self.fembb_bs[assigned], self.fembb_k[assigned]] = True
        except IndexError:
            raise _outside_grid(n_bs, self.n_subchannels) from None
        return occ

    def puncture_counts(self, n_bs: int) -> np.ndarray:
        counts = np.zeros((n_bs, self.n_subchannels), dtype=int)
        served = self.eurllc_k >= 0
        try:
            np.add.at(counts, (self.eurllc_host[served], self.eurllc_k[served]), 1)
        except IndexError:
            raise _outside_grid(n_bs, self.n_subchannels) from None
        return counts

    def canonical_key(self) -> tuple:
        """Total order used for deterministic tie-breaking among optima."""
        f_part = tuple(
            (int(b), int(k), 0) if b >= 0 else _UNASSIGNED_KEY
            for b, k in zip(self.fembb_bs, self.fembb_k))
        u_part = tuple(
            (int(k), int(m), int(h)) if k >= 0 else _UNASSIGNED_KEY
            for k, m, h in zip(self.eurllc_k, self.eurllc_m, self.eurllc_host))
        return f_part + u_part

    def to_json(self) -> dict:
        return {
            "schema_version": ALLOCATION_SCHEMA_VERSION,
            "n_fembb": self.n_fembb,
            "n_eurllc": self.n_eurllc,
            "n_subchannels": self.n_subchannels,
            "n_minislots": self.n_minislots,
            "fembb": [None if b < 0 else [int(b), int(k)]
                      for b, k in zip(self.fembb_bs, self.fembb_k)],
            "punctures": [None if k < 0 else [int(k), int(m), int(h)]
                          for k, m, h in zip(self.eurllc_k, self.eurllc_m,
                                             self.eurllc_host)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Allocation":
        if data.get("schema_version") != ALLOCATION_SCHEMA_VERSION:
            raise AllocationError(
                f"unsupported allocation schema: {data.get('schema_version')}")
        counts = [data.get(key) for key in
                  ("n_fembb", "n_eurllc", "n_subchannels", "n_minislots")]
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                   for n in counts):
            raise AllocationError(f"allocation counts {counts!r} are not all "
                                  "non-negative ints")
        for key, n_users, width in (("fembb", counts[0], 2),
                                    ("punctures", counts[1], 3)):
            entries = data.get(key)
            if not isinstance(entries, list) or len(entries) != n_users:
                raise AllocationError(f"{key} must list one entry for each "
                                      f"of {n_users} users")
            for entry in entries:
                if entry is None:
                    continue
                if not (isinstance(entry, list) and len(entry) == width
                        and all(isinstance(i, int) and not isinstance(i, bool)
                                for i in entry)):
                    raise AllocationError(f"{key} entry {entry!r} is not null "
                                          f"or a list of {width} ints")
                if min(entry) < 0:
                    raise AllocationError(f"{key} holds a negative index "
                                          "(an unassigned user is null)")
        alloc = cls(*counts)
        for f, entry in enumerate(data["fembb"]):
            if entry is not None:
                alloc.fembb_bs[f], alloc.fembb_k[f] = entry
        for q, entry in enumerate(data["punctures"]):
            if entry is not None:
                alloc.eurllc_k[q], alloc.eurllc_m[q], alloc.eurllc_host[q] = entry
        alloc.validate()
        return alloc


def _outside_grid(n_bs: int, n_subchannels: int) -> AllocationError:
    return AllocationError(f"a (base station, subchannel) index lies outside "
                           f"the {n_bs} x {n_subchannels} grid")


def _check_pairs(first: np.ndarray, second: np.ndarray, names: str,
                 duplicate: str) -> np.ndarray:
    """Mask of assigned entries; both arrays must agree on assignment and no
    (first, second) pair may repeat."""
    assigned = first >= 0
    if not np.array_equal(assigned, second >= 0):
        raise AllocationError(f"{names} must agree on assignment")
    pairs = set(zip(first[assigned].tolist(), second[assigned].tolist()))
    if len(pairs) != int(assigned.sum()):
        raise AllocationError(duplicate)
    return assigned


@dataclass(frozen=True)
class ScalarizedObjective:
    """Weighted-sum scalarization of FeMBB rate and eURLLC reliability."""

    weight_rate: float = 0.5
    weight_reliability: float = 0.5
    rate_scale_bps: float = 1.0
    reliability_scale: float = 1.0
    violation_penalty: float = 1.0

    def __post_init__(self):
        if self.weight_rate < 0 or self.weight_reliability < 0:
            raise ValueError("weights must be >= 0")
        if abs(self.weight_rate + self.weight_reliability - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.rate_scale_bps <= 0 or self.reliability_scale <= 0:
            raise ValueError("normalizers must be > 0")

    @classmethod
    def for_state(cls, state: NetworkState, weight_rate: float = 0.5,
                  violation_penalty: float = 1.0) -> "ScalarizedObjective":
        """Normalizers derived from the scenario: the rate scale is the user
        count times the best interference-free link rate, the reliability
        scale is the eURLLC user count."""
        best = 0.0
        for i in range(state.n_users):
            for j in range(state.n_bs):
                if not state.reachable[i, j]:
                    continue
                power = state.subchannel_power_w(j)
                noise = state.noise_w(j)
                w = state.frame_for(j).subchannel_bandwidth_hz
                g = state.gains[i, j, :].max()
                if g > 0:
                    best = max(best, shannon_rate(w, power * g / noise))
        if best <= 0:
            best = state.qos.fembb_min_rate_bps
        n_f = max(len(state.fembb_users), 1)
        n_u = max(len(state.eurllc_users), 1)
        return cls(weight_rate=weight_rate,
                   weight_reliability=1.0 - weight_rate,
                   rate_scale_bps=n_f * best,
                   reliability_scale=float(n_u),
                   violation_penalty=violation_penalty)


@dataclass
class ObjectiveBreakdown:
    value: float
    fembb_rates_bps: np.ndarray   # punctured rate per FeMBB user (0 if unassigned)
    fembb_ok: np.ndarray          # assigned and meeting the rate target
    eurllc_errors: np.ndarray     # decoding error per eURLLC user (1 if unserved)
    eurllc_ok: np.ndarray         # punctured a slot and meeting the error target

    @property
    def fembb_total_rate_bps(self) -> float:
        return float(self.fembb_rates_bps.sum())

    @property
    def eurllc_feasible_count(self) -> int:
        return int(self.eurllc_ok.sum())


def link_gamma(state: NetworkState, active: np.ndarray, user: int, j: int,
               k: int) -> float:
    """SINR of user's link on (bs j, subchannel k); co-channel interference
    comes from other same-band stations active on k."""
    band = state.band_of(j)
    interference = 0.0
    for j2 in range(state.n_bs):
        if j2 != j and active[j2, k] and state.band_of(j2) is band:
            interference += state.subchannel_power_w(j2) * state.gains[user, j2, k]
    return sinr(state.subchannel_power_w(j), state.gains[user, j, k],
                interference, state.noise_w(j))


def resolve_eurllc_host(state: NetworkState, occupied: np.ndarray, user: int,
                        k: int) -> int:
    """Base station hosting an eURLLC puncture on subchannel k.

    Prefers, among stations reachable by the user, the best-gain one whose
    subchannel k carries a FeMBB assignment; if none does, falls back to the
    best-gain reachable station (the RF station is always reachable).
    """
    best_occ, best_free = -1, -1
    for j in range(state.n_bs):
        if not state.reachable[user, j]:
            continue
        if occupied[j, k]:
            if best_occ < 0 or state.gains[user, j, k] > state.gains[user, best_occ, k]:
                best_occ = j
        if best_free < 0 or state.gains[user, j, k] > state.gains[user, best_free, k]:
            best_free = j
    return best_occ if best_occ >= 0 else best_free


def fembb_term(state: NetworkState, weights: ScalarizedObjective, rate: float,
               n_f: int) -> float:
    """One FeMBB user's unweighted share of the objective: its normalized
    rate when the rate target is met or not enforced, else minus the
    violation penalty split over the n_f FeMBB users. An unassigned user has
    rate 0, which misses every (positive) target."""
    if not state.fembb_qos_enforced or rate >= state.qos.fembb_min_rate_bps:
        return rate / weights.rate_scale_bps
    return -weights.violation_penalty / n_f


def eurllc_error(frame: FrameConfig, gamma: float) -> float:
    """Decoding error probability at SINR gamma; a zero SINR always fails."""
    return 1.0 if gamma <= 0 else decoding_error_probability(frame, gamma)


def eurllc_term(state: NetworkState, weights: ScalarizedObjective, eps: float,
                n_u: int) -> float:
    """One eURLLC user's unweighted share of the objective: its normalized
    reliability when the error target is met, else minus the violation
    penalty split over the n_u eURLLC users. An unserved user has error 1,
    which misses every (sub-unit) target."""
    if eps <= state.qos.eurllc_max_error:
        return (1.0 - eps) / weights.reliability_scale
    return -weights.violation_penalty / n_u


def objective_breakdown(state: NetworkState, alloc: Allocation,
                        weights: ScalarizedObjective) -> ObjectiveBreakdown:
    alloc.validate()
    n_bs = state.n_bs
    occupied = alloc.occupied(n_bs)
    punct = alloc.puncture_counts(n_bs)
    active = occupied | (punct > 0)
    minislots = state.n_minislots
    fembb_ids = state.fembb_users
    eurllc_ids = state.eurllc_users
    n_f, n_u = len(fembb_ids), len(eurllc_ids)

    rates = np.zeros(n_f)
    fembb_ok = np.zeros(n_f, dtype=bool)
    s_rate = 0.0
    for f, user in enumerate(fembb_ids):
        j = int(alloc.fembb_bs[f])
        if j < 0:
            s_rate += fembb_term(state, weights, 0.0, n_f)
            continue
        k = int(alloc.fembb_k[f])
        gamma = link_gamma(state, active, user, j, k)
        w = state.frame_for(j).subchannel_bandwidth_hz
        rates[f] = punctured_rate(w, gamma, int(punct[j, k]), minislots)
        fembb_ok[f] = rates[f] >= state.qos.fembb_min_rate_bps
        s_rate += fembb_term(state, weights, rates[f], n_f)

    errors = np.ones(n_u)
    eurllc_ok = np.zeros(n_u, dtype=bool)
    s_rel = 0.0
    for q, user in enumerate(eurllc_ids):
        k = int(alloc.eurllc_k[q])
        if k < 0:
            s_rel += eurllc_term(state, weights, 1.0, n_u)
            continue
        host = int(alloc.eurllc_host[q])
        gamma = link_gamma(state, active, user, host, k)
        errors[q] = eurllc_error(state.frame_for(host), gamma)
        eurllc_ok[q] = errors[q] <= state.qos.eurllc_max_error
        s_rel += eurllc_term(state, weights, errors[q], n_u)

    value = weights.weight_rate * s_rate + weights.weight_reliability * s_rel
    return ObjectiveBreakdown(value, rates, fembb_ok, errors, eurllc_ok)


def objective(state: NetworkState, alloc: Allocation,
              weights: ScalarizedObjective) -> float:
    """Scalarized objective of an allocation on a state."""
    return objective_breakdown(state, alloc, weights).value


def attach_serving(state: NetworkState, alloc: Allocation,
                   default_bs: int | None = None) -> None:
    """Record each user's serving base station on the state (for mobility).

    Unserved users get `default_bs` when given, else stay -1.
    """
    serving = np.full(state.n_users, -1, dtype=int)
    for f, user in enumerate(state.fembb_users):
        if alloc.fembb_bs[f] >= 0:
            serving[user] = alloc.fembb_bs[f]
    for q, user in enumerate(state.eurllc_users):
        if alloc.eurllc_host[q] >= 0:
            serving[user] = alloc.eurllc_host[q]
    if default_bs is not None:
        serving[serving < 0] = default_bs
    state.serving_bs = serving


class JnsaEnv:
    """Sequential multi-agent environment over one NetworkState.

    Single-writer: `step` mutates internal episode state and must be driven
    from one logical thread. Distinct instances are independent.
    """

    def __init__(self, state: NetworkState,
                 objective_cfg: ScalarizedObjective | None = None,
                 conflict_penalty: float = 1.0, seed: int = 0,
                 refresh_fading_on_reset: bool = True):
        self.state = state
        self.objective_cfg = objective_cfg or ScalarizedObjective.for_state(state)
        self.conflict_penalty = float(conflict_penalty)
        self.refresh_fading_on_reset = refresh_fading_on_reset
        self._rng = np.random.default_rng(seed)
        self.fembb_ids = state.fembb_users
        self.eurllc_ids = state.eurllc_users
        self._local_index = {u: f for f, u in enumerate(self.fembb_ids)}
        self._local_index.update({u: q for q, u in enumerate(self.eurllc_ids)})
        self.fembb_action_count = state.n_bs * state.n_subchannels
        self.eurllc_action_count = state.n_subchannels * state.n_minislots
        bitmap = state.n_bs * state.n_subchannels
        self.fembb_obs_dim = 2 + 2 * bitmap
        self.eurllc_obs_dim = 2 + 2 * bitmap + state.n_subchannels * state.n_minislots
        self._order: list[int] = []
        self._cursor = 0
        self._done = True
        self._alloc = Allocation(len(self.fembb_ids), len(self.eurllc_ids),
                                 state.n_subchannels, state.n_minislots)
        self._norm_gains = np.zeros_like(state.gains)
        self._obj_value = 0.0
        self.conflict_penalty_total = 0.0

    # -- episode control ---------------------------------------------------

    def reset(self) -> np.ndarray:
        if self.refresh_fading_on_reset:
            refresh_fading(self.state, self._rng)
        self._refresh_norm_gains()
        order = [int(u) for u in self._rng.permutation(self.fembb_ids)] if \
            self.fembb_ids else []
        order += [int(u) for u in self._rng.permutation(self.eurllc_ids)] if \
            self.eurllc_ids else []
        self._order = order
        self._cursor = 0
        self._done = len(order) == 0
        self._alloc = Allocation(len(self.fembb_ids), len(self.eurllc_ids),
                                 self.state.n_subchannels,
                                 self.state.n_minislots)
        self._obj_value = objective(self.state, self._alloc, self.objective_cfg)
        self.conflict_penalty_total = 0.0
        if self._done:
            return np.zeros(0)
        return self.observe(self._order[0])

    @property
    def current_agent(self) -> int | None:
        return None if self._done else self._order[self._cursor]

    @property
    def agent_order(self) -> list[int]:
        return list(self._order)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def allocation(self) -> Allocation:
        return self._alloc

    @property
    def objective_value(self) -> float:
        return self._obj_value

    def user_class(self, user: int) -> UserClass:
        return self.state.users[user].user_class

    def action_count_for(self, user: int) -> int:
        return (self.fembb_action_count
                if self.user_class(user) is UserClass.FEMBB
                else self.eurllc_action_count)

    # -- observations --------------------------------------------------------

    def _refresh_norm_gains(self):
        lo, hi = self.state.gain_log_bounds
        g = self.state.gains
        with np.errstate(divide="ignore"):
            logs = np.where(g > 0, np.log10(np.maximum(g, 1e-300)), lo)
        norm = np.clip((logs - lo) / (hi - lo), 0.0, 1.0)
        norm *= self.state.reachable[:, :, None]
        self._norm_gains = norm

    def observe(self, user: int) -> np.ndarray:
        """Feature vector: class flag, QoS target level, candidate link gains
        (log min-max scaled, unreachable zeroed), FeMBB occupancy bitmap and,
        for eURLLC agents, the mini-slot puncture bitmap. All in [0, 1]."""
        state = self.state
        occ = self._alloc.occupied(state.n_bs).astype(float).ravel()
        gains = self._norm_gains[user].ravel()
        if self.user_class(user) is UserClass.FEMBB:
            margin = min(1.0, state.qos.fembb_min_rate_bps
                         / (self.objective_cfg.rate_scale_bps
                            / max(len(self.fembb_ids), 1)))
            head = np.array([0.0, margin])
            return np.concatenate([head, gains, occ])
        margin = min(1.0, -math.log10(state.qos.eurllc_max_error) / 20.0)
        head = np.array([1.0, margin])
        punct = np.zeros((state.n_subchannels, state.n_minislots))
        served = self._alloc.eurllc_k >= 0
        punct[self._alloc.eurllc_k[served], self._alloc.eurllc_m[served]] = 1.0
        return np.concatenate([head, gains, occ, punct.ravel()])

    # -- transition ----------------------------------------------------------

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Commit the current agent's action if feasible; reward is the
        marginal objective change, or minus the conflict penalty on
        rejection. Returns (next agent's observation, reward, episode done).
        """
        if self._done:
            raise RuntimeError("episode is finished; call reset()")
        user = self._order[self._cursor]
        if self.user_class(user) is UserClass.FEMBB:
            reward = self._step_fembb(user, int(action))
        else:
            reward = self._step_eurllc(user, int(action))
        self._cursor += 1
        self._done = self._cursor >= len(self._order)
        next_obs = (np.zeros(0) if self._done
                    else self.observe(self._order[self._cursor]))
        return next_obs, reward, self._done

    def _reject(self) -> float:
        self.conflict_penalty_total += self.conflict_penalty
        return -self.conflict_penalty

    def _step_fembb(self, user: int, action: int) -> float:
        state = self.state
        if not 0 <= action < self.fembb_action_count:
            raise IndexError(f"FeMBB action {action} outside 0..{self.fembb_action_count - 1}")
        j, k = divmod(action, state.n_subchannels)
        f = self._local_index[user]
        if not state.reachable[user, j]:
            return self._reject()
        if self._alloc.occupied(state.n_bs)[j, k]:
            return self._reject()
        candidate = self._alloc.copy()
        candidate.fembb_bs[f] = j
        candidate.fembb_k[f] = k
        br = objective_breakdown(state, candidate, self.objective_cfg)
        if state.fembb_qos_enforced and not br.fembb_ok[f]:
            return self._reject()
        reward = br.value - self._obj_value
        self._alloc = candidate
        self._obj_value = br.value
        return reward

    def _step_eurllc(self, user: int, action: int) -> float:
        state = self.state
        if not 0 <= action < self.eurllc_action_count:
            raise IndexError(f"eURLLC action {action} outside 0..{self.eurllc_action_count - 1}")
        k, m = divmod(action, state.n_minislots)
        q = self._local_index[user]
        if ((self._alloc.eurllc_k == k) & (self._alloc.eurllc_m == m)).any():
            return self._reject()
        host = resolve_eurllc_host(state, self._alloc.occupied(state.n_bs),
                                   user, k)
        if host < 0:
            return self._reject()
        candidate = self._alloc.copy()
        candidate.eurllc_k[q], candidate.eurllc_m[q] = k, m
        candidate.eurllc_host[q] = host
        br = objective_breakdown(state, candidate, self.objective_cfg)
        if not br.eurllc_ok[q]:
            return self._reject()
        reward = br.value - self._obj_value
        self._alloc = candidate
        self._obj_value = br.value
        return reward


# ---------------------------------------------------------------------------
# Perturbations used by the robustness experiments

def perturb_csi(state: NetworkState, delta: float, seed: int) -> NetworkState:
    """Imperfect-CSI model as the paper writes it: every gain h becomes
    |sqrt(d)*h + sqrt(d-1)*w| with w standard complex normal, for a finite
    d >= 1. Deterministic per seed; d = 1 is the identity.
    """
    if not 1.0 <= delta < math.inf:
        raise ValueError("CSI noise requires a finite delta >= 1")
    noise_scale = math.sqrt(delta - 1.0)
    new = state.copy()
    if noise_scale == 0.0:
        return new
    rng = np.random.default_rng(seed)
    shape = state.gains.shape
    re = rng.standard_normal(shape) * math.sqrt(0.5)
    im = rng.standard_normal(shape) * math.sqrt(0.5)
    scaled = math.sqrt(delta) * state.gains
    new.gains = np.hypot(scaled + noise_scale * re, noise_scale * im)
    return new


def apply_mobility(state: NetworkState, elapsed_s: float,
                   speed_mps: float) -> NetworkState:
    """Translate every user radially away from its serving base station by
    speed*elapsed and recompute gains (same fading draws). Requires serving
    assignments on the state."""
    if not (math.isfinite(elapsed_s) and elapsed_s >= 0):
        raise ValueError(f"elapsed time must be finite and >= 0, got {elapsed_s!r}")
    if not (math.isfinite(speed_mps) and speed_mps >= 0):
        raise ValueError(f"speed must be finite and >= 0, got {speed_mps!r}")
    if state.serving_bs is None or (state.serving_bs < 0).any():
        raise ValueError("mobility requires a serving base station per user")
    new = state.copy()
    shift = speed_mps * elapsed_s
    if shift == 0.0:
        return new
    bs_list = new.topology.bs_list
    for i, user in enumerate(new.users):
        anchor = bs_list[int(new.serving_bs[i])].position
        direction = user.position - anchor
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        user.position = user.position + direction * (shift / norm)
    new.gains, new.reachable = compute_gain_tensor(new.channel, new.topology,
                                                   new.users, new.fading)
    return new
