"""Value-based deep RL: replay buffer, exploration schedule, temporal
difference targets for the three variants, and the trainer that glues them
to the networks."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nets import LEARNER_DTYPE, AdamOptimizer, build_network, clip_gradients


def _require_positive(name: str, value, integral: bool = False) -> None:
    """ValueError unless `value` is a positive finite number (an integer
    when `integral`); bools are rejected although Python counts them."""
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not math.isfinite(value) or value <= 0):
        what = "integer" if integral else "finite number"
        raise ValueError(f"{name} must be a positive {what}, got {value!r}")


class Algorithm(Enum):
    DQN = "dqn"
    DOUBLE_DQN = "double_dqn"
    DUEL_DQN = "duel_dqn"

    @classmethod
    def parse(cls, name: str) -> "Algorithm":
        """The algorithm with canonical name `name`; ValueError otherwise."""
        return cls(name)

    @property
    def network_kind(self) -> str:
        return "dueling" if self is Algorithm.DUEL_DQN else "plain"


@dataclass(frozen=True)
class ExplorationSchedule:
    """Linear epsilon decay from start to end over decay_steps, then flat."""

    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    decay_steps: int = 5000

    def __post_init__(self):
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        _require_positive("decay_steps", self.decay_steps, integral=True)

    def epsilon(self, step_count: int) -> float:
        frac = min(max(step_count, 0) / self.decay_steps, 1.0)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 1e-3
    discount: float = 0.9
    batch_size: int = 64
    target_sync_period: int = 200
    buffer_capacity: int = 10_000
    hidden_sizes: tuple[int, ...] = (128, 128)
    grad_clip: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        for name in ("batch_size", "target_sync_period", "buffer_capacity"):
            _require_positive(name, getattr(self, name), integral=True)
        for name in ("learning_rate", "grad_clip"):
            _require_positive(name, getattr(self, name))
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        for size in self.hidden_sizes:
            _require_positive("each hidden size", size, integral=True)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform no-replacement batches.
    Observations are stored in the learners' dtype; rewards stay float64."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # rows at or past `size` are never read, so the large observation
        # rings are left unfilled rather than zeroed
        self.obs = np.empty((capacity, obs_dim), dtype=LEARNER_DTYPE)
        self.next_obs = np.empty((capacity, obs_dim), dtype=LEARNER_DTYPE)
        self.actions = np.zeros(capacity, dtype=int)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.cursor = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, reward, next_obs, done) -> None:
        # assignment would broadcast a wrongly sized row without complaint
        for row in (obs, next_obs):
            if np.shape(row) != self.obs.shape[1:]:
                raise ValueError(f"observation shape {np.shape(row)} != "
                                 f"{self.obs.shape[1:]}")
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        if batch_size > self.size:
            raise ValueError(
                f"batch size {batch_size} exceeds buffer size {self.size}")
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


def td_targets(variant: Algorithm, online, target, rewards: np.ndarray,
               next_obs: np.ndarray, dones: np.ndarray,
               discount: float) -> np.ndarray:
    """Batched TD targets. DQN and DuelDQN bootstrap from the target net's
    max; double DQN evaluates the online argmax with the target net."""
    q_target = target.forward(next_obs)
    if variant is Algorithm.DOUBLE_DQN:
        greedy = online.forward(next_obs).argmax(axis=1)
        boot = q_target[np.arange(len(rewards)), greedy]
    else:
        boot = q_target.max(axis=1)
    return rewards + discount * boot * (~dones)


def select_action(model, observation: np.ndarray,
                  schedule: ExplorationSchedule, step_count: int,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the model's Q-values; argmax ties break to the
    lowest action index."""
    if rng.uniform() < schedule.epsilon(step_count):
        return int(rng.integers(model.action_count))
    return int(np.argmax(model.forward(observation)))


class DqnTrainer:
    """One policy: online/target networks, replay, exploration, updates."""

    def __init__(self, variant: Algorithm, obs_dim: int, action_count: int,
                 cfg: TrainerConfig,
                 schedule: ExplorationSchedule | None = None):
        self.variant = variant
        self.cfg = cfg
        self.schedule = schedule or ExplorationSchedule()
        self.rng = np.random.default_rng(cfg.seed)
        self.online = build_network(variant.network_kind, obs_dim,
                                    cfg.hidden_sizes, action_count, self.rng)
        self.target = self.online.clone()
        self.buffer = ReplayBuffer(cfg.buffer_capacity, obs_dim)
        self.step_count = 0      # action selections, drives epsilon
        self.train_count = 0     # gradient steps, drives target syncs
        self.optimizer = AdamOptimizer([self.online.flat], cfg.learning_rate)

    def select_action(self, obs: np.ndarray) -> int:
        action = select_action(self.online, obs, self.schedule,
                               self.step_count, self.rng)
        self.step_count += 1
        return action

    def push(self, obs, action, reward, next_obs, done) -> None:
        self.buffer.push(obs, action, reward, next_obs, done)

    def train_step(self) -> float:
        """One gradient step on the mean squared TD error of a sampled
        batch; returns the pre-step loss."""
        if len(self.buffer) < self.cfg.batch_size:
            raise ValueError("buffer holds fewer transitions than a batch")
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            self.rng, self.cfg.batch_size)
        targets = td_targets(self.variant, self.online, self.target,
                             rewards, next_obs, dones, self.cfg.discount)
        cache: list = []
        q = self.online.forward(obs, cache)
        rows = np.arange(len(actions))
        td_err = q[rows, actions] - targets
        loss = float(np.mean(td_err ** 2))
        # dq takes q's (the network's) dtype, so backward and the optimizer
        # see no float64 operand although td_err is float64
        dq = np.zeros_like(q)
        dq[rows, actions] = 2.0 * td_err / len(actions)
        grad = clip_gradients(self.online.backward(cache, dq),
                              self.cfg.grad_clip)
        self.optimizer.step([self.online.flat], [grad])
        self.train_count += 1
        if self.train_count % self.cfg.target_sync_period == 0:
            self.target.load_params_from(self.online)
        return loss
