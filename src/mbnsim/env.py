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

from .phy import Band, noise_power_w, sinr
from .scenario import (NetworkState, UserClass, compute_gain_tensor,
                       refresh_fading)
from .service import (FrameConfig, decoding_error_probability, punctured_rate,
                      shannon_rate)

ALLOCATION_SCHEMA_VERSION = 1
_UNASSIGNED_KEY = (1 << 30, 1 << 30, 1 << 30)
_MAX_INDEX = int(np.iinfo(int).max)  # largest index the int arrays hold


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
        if not isinstance(data, dict):
            raise AllocationError(f"an allocation is a JSON object, not "
                                  f"{type(data).__name__}")
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
                if not 0 <= min(entry) <= max(entry) <= _MAX_INDEX:
                    raise AllocationError(f"{key} holds an index outside 0.."
                                          f"{_MAX_INDEX} (unassigned is null)")
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
    rate_scale_bps: float = 1.0
    reliability_scale: float = 1.0
    violation_penalty: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.weight_rate <= 1.0:
            raise ValueError(f"weight_rate must lie in [0, 1], "
                             f"got {self.weight_rate!r}")
        if self.rate_scale_bps <= 0 or self.reliability_scale <= 0:
            raise ValueError("normalizers must be > 0")
        if not self.violation_penalty >= 0:
            raise ValueError(f"violation_penalty must be >= 0, "
                             f"got {self.violation_penalty!r}")

    @property
    def weight_reliability(self) -> float:
        """Weight of the reliability term; the two weights sum to 1."""
        return 1.0 - self.weight_rate

    @classmethod
    def for_state(cls, state: NetworkState, weight_rate: float = 0.5,
                  violation_penalty: float = 1.0) -> "ScalarizedObjective":
        """Normalizers derived from the scenario: the rate scale is the user
        count times the best interference-free link rate, the reliability
        scale is the eURLLC user count."""
        best = 0.0
        for i in range(state.n_users):
            for j in range(state.n_bs):
                if state.reachable[i, j]:
                    k = int(state.gains[i, j].argmax())
                    best = max(best, shannon_rate(
                        state.frame_for(j).subchannel_bandwidth_hz,
                        free_gamma(state, i, j, k)))
        if best <= 0:
            best = state.qos.fembb_min_rate_bps
        n_f = max(len(state.fembb_users), 1)
        n_u = max(len(state.eurllc_users), 1)
        return cls(weight_rate=weight_rate,
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
    fembb_terms: tuple            # unweighted objective share per FeMBB user
    eurllc_terms: tuple           # unweighted objective share per eURLLC user

    @property
    def fembb_total_rate_bps(self) -> float:
        return float(self.fembb_rates_bps.sum())

    @property
    def eurllc_feasible_count(self) -> int:
        return int(self.eurllc_ok.sum())


def free_gamma(state: NetworkState, user: int, j: int, k: int) -> float:
    """SINR of user's link on (bs j, subchannel k) with no interference."""
    return sinr(state.subchannel_power_w(j), state.gains[user, j, k], 0.0,
                state.noise_w(j))


class _Stations:
    """Per-station constants of a state: the values `NetworkState.band_of`,
    `subchannel_power_w`, `noise_w` and `frame_for` give, read in one pass
    per scoring call rather than once per link and per interferer. Frame
    and noise depend on the band alone, so each is computed once per
    band."""

    __slots__ = ("band", "power", "noise", "frame")

    def __init__(self, state: NetworkState):
        stations, c = state.topology.stations, state.n_subchannels
        rf, thz = state.frame_rf, state.frame_thz
        noise_rf, noise_thz = (
            noise_power_w(state.channel, frame.subchannel_bandwidth_hz)
            for frame in (rf, thz))
        self.band = [bs.band for bs in stations]
        self.power = [bs.max_power_w / c for bs in stations]
        self.frame = [rf if b is Band.RF else thz for b in self.band]
        self.noise = [noise_rf if b is Band.RF else noise_thz
                      for b in self.band]


def link_gamma(state: NetworkState, stations: _Stations,
               active: list[list[bool]], user: int, j: int, k: int) -> float:
    """SINR of user's link on (bs j, subchannel k); co-channel interference
    comes from other same-band stations active on k (`active[j2][k]`)."""
    gains, band = state.gains, stations.band[j]
    interference = 0.0
    for j2, band2 in enumerate(stations.band):
        if j2 != j and band2 is band and active[j2][k]:
            interference += stations.power[j2] * gains[user, j2, k]
    return sinr(stations.power[j], gains[user, j, k], interference,
                stations.noise[j])


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
    """Score an allocation from scratch: the reference every faster path
    must match bit for bit."""
    alloc.validate()
    n_bs = state.n_bs
    return _score(state, _Stations(state), weights, alloc,
                  alloc.occupied(n_bs), alloc.puncture_counts(n_bs))


class _Scorer:
    """The objective's per-user rule on fixed occupancy and puncture grids.
    `fembb`/`eurllc` score one assigned user into the per-user arrays and
    return its unweighted share of the objective; `breakdown` sums the
    shares in user order. A share is computed from the value read back
    from its array, so it is an np.float64 where the reference's always
    was: the value's type, and so its repr, never depends on the path."""

    def __init__(self, state: NetworkState, stations: _Stations,
                 weights: ScalarizedObjective, occupied: np.ndarray,
                 punct: np.ndarray, rates: np.ndarray, fembb_ok: np.ndarray,
                 errors: np.ndarray, eurllc_ok: np.ndarray):
        self.state, self.stations, self.weights = state, stations, weights
        self.active = (occupied | (punct > 0)).tolist()
        self.punct = punct
        self.rates, self.fembb_ok = rates, fembb_ok
        self.errors, self.eurllc_ok = errors, eurllc_ok

    def fembb(self, f: int, user: int, j: int, k: int) -> float:
        state, rates = self.state, self.rates
        gamma = link_gamma(state, self.stations, self.active, user, j, k)
        rates[f] = punctured_rate(
            self.stations.frame[j].subchannel_bandwidth_hz, gamma,
            int(self.punct[j, k]), state.n_minislots)
        self.fembb_ok[f] = rates[f] >= state.qos.fembb_min_rate_bps
        return fembb_term(state, self.weights, rates[f], len(rates))

    def eurllc(self, q: int, user: int, host: int, k: int) -> float:
        state, errors = self.state, self.errors
        gamma = link_gamma(state, self.stations, self.active, user, host, k)
        errors[q] = eurllc_error(self.stations.frame[host], gamma)
        self.eurllc_ok[q] = errors[q] <= state.qos.eurllc_max_error
        return eurllc_term(state, self.weights, errors[q], len(errors))

    def breakdown(self, fembb_terms: list, eurllc_terms: list
                  ) -> ObjectiveBreakdown:
        s_rate = 0.0
        for term in fembb_terms:
            s_rate += term
        s_rel = 0.0
        for term in eurllc_terms:
            s_rel += term
        value = (self.weights.weight_rate * s_rate
                 + self.weights.weight_reliability * s_rel)
        return ObjectiveBreakdown(value, self.rates, self.fembb_ok,
                                  self.errors, self.eurllc_ok,
                                  tuple(fembb_terms), tuple(eurllc_terms))


def _score(state: NetworkState, stations: _Stations,
           weights: ScalarizedObjective, alloc: Allocation,
           occupied: np.ndarray, punct: np.ndarray) -> ObjectiveBreakdown:
    """Breakdown of a valid allocation with its occupancy and puncture
    grids, every user scored."""
    fembb_ids, eurllc_ids = state.fembb_users, state.eurllc_users
    n_f, n_u = len(fembb_ids), len(eurllc_ids)
    scorer = _Scorer(state, stations, weights, occupied, punct,
                     np.zeros(n_f), np.zeros(n_f, dtype=bool),
                     np.ones(n_u), np.zeros(n_u, dtype=bool))
    fembb_terms = [
        fembb_term(state, weights, 0.0, n_f) if j < 0
        else scorer.fembb(f, user, j, k)
        for f, (user, j, k) in enumerate(zip(
            fembb_ids, alloc.fembb_bs.tolist(), alloc.fembb_k.tolist()))]
    eurllc_terms = [
        eurllc_term(state, weights, 1.0, n_u) if k < 0
        else scorer.eurllc(q, user, host, k)
        for q, (user, host, k) in enumerate(zip(
            eurllc_ids, alloc.eurllc_host.tolist(), alloc.eurllc_k.tolist()))]
    return scorer.breakdown(fembb_terms, eurllc_terms)


def _rescore(prev: ObjectiveBreakdown, state: NetworkState,
             stations: _Stations, weights: ScalarizedObjective,
             alloc: Allocation, fembb_ids: list[int], eurllc_ids: list[int],
             occupied: np.ndarray, punct: np.ndarray, j: int,
             k: int) -> ObjectiveBreakdown:
    """Breakdown of `alloc` after one assignment or puncture at (bs j,
    subchannel k), given the breakdown `prev` of the allocation before it.
    Only links on subchannel k in j's band see the change, so only their
    users are scored again; every other user keeps its cached share."""
    scorer = _Scorer(state, stations, weights, occupied, punct,
                     prev.fembb_rates_bps.copy(), prev.fembb_ok.copy(),
                     prev.eurllc_errors.copy(), prev.eurllc_ok.copy())
    band_of, band = stations.band, stations.band[j]
    fembb_terms = list(prev.fembb_terms)
    for f, (j2, k2) in enumerate(zip(alloc.fembb_bs.tolist(),
                                     alloc.fembb_k.tolist())):
        if k2 == k and band_of[j2] is band:
            fembb_terms[f] = scorer.fembb(f, fembb_ids[f], j2, k)
    eurllc_terms = list(prev.eurllc_terms)
    for q, (host, k2) in enumerate(zip(alloc.eurllc_host.tolist(),
                                       alloc.eurllc_k.tolist())):
        if k2 == k and band_of[host] is band:
            eurllc_terms[q] = scorer.eurllc(q, eurllc_ids[q], host, k)
    return scorer.breakdown(fembb_terms, eurllc_terms)


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

    The env keeps the occupancy and puncture grids of its committed
    allocation and scores a step incrementally from the committed breakdown
    (`_rescore`); the public `objective_breakdown` stays the reference.

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
        if not (math.isfinite(self.conflict_penalty)
                and self.conflict_penalty >= 0):
            raise ValueError(f"conflict_penalty must be finite and >= 0, "
                             f"got {conflict_penalty!r}")
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
        self._clear_allocation()
        self._norm_gains = np.zeros_like(state.gains)
        self._stations: _Stations | None = None  # set by reset
        self._breakdown: ObjectiveBreakdown | None = None  # set by reset
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
        self._clear_allocation()
        self._stations = _Stations(self.state)
        self._breakdown = _score(self.state, self._stations,
                                 self.objective_cfg, self._alloc,
                                 self._occupied, self._punct)
        self.conflict_penalty_total = 0.0
        if self.done:
            return np.zeros(0)
        return self.observe(self._order[0])

    def _clear_allocation(self) -> None:
        """Commit the empty allocation with its all-zero occupancy and
        puncture grids. The grids are the committed allocation's own: an
        accepted step replaces them, nothing mutates them."""
        state = self.state
        self._alloc = Allocation(len(self.fembb_ids), len(self.eurllc_ids),
                                 state.n_subchannels, state.n_minislots)
        grid = (state.n_bs, state.n_subchannels)
        self._occupied = np.zeros(grid, dtype=bool)
        self._punct = np.zeros(grid, dtype=int)

    @property
    def current_agent(self) -> int | None:
        return None if self.done else self._order[self._cursor]

    @property
    def agent_order(self) -> list[int]:
        return list(self._order)

    @property
    def done(self) -> bool:
        return self._cursor >= len(self._order)

    @property
    def allocation(self) -> Allocation:
        return self._alloc

    @property
    def breakdown(self) -> ObjectiveBreakdown:
        """Breakdown of the committed allocation. An accepted step replaces
        it with a new object; none is ever mutated."""
        return self._breakdown

    @property
    def objective_value(self) -> float:
        return self._breakdown.value

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
        occ = self._occupied.astype(float).ravel()
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
        """Commit the current agent's action if it is feasible for its class
        and leaves the acting user meeting its QoS target; reward is the
        marginal objective change, or minus the conflict penalty on
        rejection. Returns (next agent's observation, reward, episode done).
        """
        if self.done:
            raise RuntimeError("episode is finished; call reset()")
        state, alloc = self.state, self._alloc
        user = self._order[self._cursor]
        fembb = self.user_class(user) is UserClass.FEMBB
        n_actions = self.fembb_action_count if fembb else self.eurllc_action_count
        action = int(action)
        if not 0 <= action < n_actions:
            raise IndexError(f"{'FeMBB' if fembb else 'eURLLC'} action "
                             f"{action} outside 0..{n_actions - 1}")
        if fembb:
            j, k = divmod(action, state.n_subchannels)
            entries = {"fembb_bs": j, "fembb_k": k}
            feasible = state.reachable[user, j] and not self._occupied[j, k]
        else:
            k, m = divmod(action, state.n_minislots)
            taken = ((alloc.eurllc_k == k) & (alloc.eurllc_m == m)).any()
            j = -1 if taken else resolve_eurllc_host(state, self._occupied,
                                                     user, k)
            entries = {"eurllc_k": k, "eurllc_m": m, "eurllc_host": j}
            feasible = j >= 0

        accepted = False
        if feasible:
            i = self._local_index[user]
            candidate = alloc.copy()
            for name, value in entries.items():
                getattr(candidate, name)[i] = value
            occupied, punct = self._occupied, self._punct
            if fembb:
                occupied = occupied.copy()
                occupied[j, k] = True
            else:
                punct = punct.copy()
                punct[j, k] += 1
            br = _rescore(self._breakdown, state, self._stations,
                          self.objective_cfg, candidate, self.fembb_ids,
                          self.eurllc_ids, occupied, punct, j, k)
            accepted = ((br.fembb_ok[i] or not state.fembb_qos_enforced)
                        if fembb else br.eurllc_ok[i])
        if accepted:
            reward = br.value - self._breakdown.value
            self._alloc, self._breakdown = candidate, br
            self._occupied, self._punct = occupied, punct
        else:
            reward = -self.conflict_penalty
            self.conflict_penalty_total += self.conflict_penalty
        self._cursor += 1
        next_obs = (np.zeros(0) if self.done
                    else self.observe(self._order[self._cursor]))
        return next_obs, reward, self.done


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
    stations = new.topology.stations
    for i, user in enumerate(new.users):
        anchor = stations[int(new.serving_bs[i])].position
        direction = user.position - anchor
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        user.position = user.position + direction * (shift / norm)
    new.gains, new.reachable = compute_gain_tensor(new.channel, new.topology,
                                                   new.users, new.fading)
    return new
