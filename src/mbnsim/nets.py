"""Feed-forward value approximators with manual backprop, plus the
first/second-moment adaptive gradient optimizer and checkpoint io.

Networks train in float32 by default (`LEARNER_DTYPE`): weights, gradients,
the optimizer's moments and the observations a network reads. The TD
targets, rewards and losses around them stay float64, like the environment.
Forward passes and updates are bit-deterministic for a fixed seed, which the
training-reproducibility contract relies on.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

LEARNER_DTYPE = np.float32
# version 1 predates the "dtype" key; its weights load as float64
CHECKPOINT_FORMAT_VERSION = 2
CHECKPOINT_DTYPES = ("float32", "float64")


class CheckpointError(ValueError):
    """Checkpoint content does not match the declared architecture."""


class _Network:
    """Parameters live in one contiguous vector `flat` of type `dtype`;
    `params` is the list of per-layer weight/bias views into it (w0, b0, w1,
    b1, ...). `grad` is the gradient buffer `backward` fills, laid out the
    same way and of the same type.
    Subclasses give their (fan_in, fan_out) layers in `_layer_shapes` and
    their output head in `forward` and `backward`."""

    kind: str

    def __init__(self, input_dim: int, hidden_sizes: tuple[int, ...],
                 action_count: int, rng: np.random.Generator,
                 dtype=LEARNER_DTYPE):
        self.input_dim = input_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.action_count = action_count
        self._bind(np.zeros(sum((fan_in + 1) * fan_out
                                for fan_in, fan_out in self._layer_shapes()),
                            dtype=dtype))
        for w in self.params[::2]:
            # He-style scaling for rectified-linear hiddens; biases stay 0.
            # The draws are float64 whatever the dtype, so the stream of
            # `rng` does not depend on it.
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

    def _views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-layer weight/bias views into a vector laid out like `flat`."""
        views, offset = [], 0
        for fan_in, fan_out in self._layer_shapes():
            views.append(vec[offset:offset + fan_in * fan_out]
                         .reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            views.append(vec[offset:offset + fan_out])
            offset += fan_out
        return views

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.params = self._views(flat)
        # `backward` writes here, so a gradient step allocates no new vector
        self.grad = np.empty_like(flat)
        self._grad_views = self._views(self.grad)

    def clone(self):
        new = copy.copy(self)
        new._bind(self.flat.copy())
        return new

    def load_params_from(self, other: "_Network") -> None:
        # in place: rebinding `flat` would cut the `params` views off from it
        self.flat[...] = other.flat

    def _hidden_forward(self, x: np.ndarray, cache: list | None) -> np.ndarray:
        """ReLU hidden layers on a batch. The cache gets (input, pre-activation)
        per hidden layer, then the head's input."""
        if x.shape[1] != self.input_dim:
            raise ValueError(f"observation dim {x.shape[1]} != {self.input_dim}")
        # one cast at the boundary: a float64 batch would otherwise promote
        # every product with float32 weights back to float64
        h = x.astype(self.flat.dtype, copy=False)
        for layer in range(len(self.hidden_sizes)):
            z = h @ self.params[2 * layer] + self.params[2 * layer + 1]
            if cache is not None:
                cache.append((h, z))
            h = np.maximum(z, 0.0)
        if cache is not None:
            cache.append(h)
        return h

    def _hidden_backward(self, cache: list, grad: np.ndarray,
                         grad_views: list[np.ndarray]) -> None:
        """Back-propagate dloss/d(head input) through the hidden layers,
        writing their gradients into `grad_views`."""
        for layer in reversed(range(len(self.hidden_sizes))):
            h_in, z = cache[layer]
            grad = grad * (z > 0.0)
            np.matmul(h_in.T, grad, out=grad_views[2 * layer])
            grad.sum(axis=0, out=grad_views[2 * layer + 1])
            if layer > 0:
                grad = grad @ self.params[2 * layer].T


class QNetwork(_Network):
    """Plain value network: ReLU hidden layers, linear output head."""

    kind = "plain"

    def _layer_shapes(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.hidden_sizes, self.action_count]
        return list(zip(sizes[:-1], sizes[1:]))

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        if x.ndim == 1:
            return self.forward(x[None, :], cache)[0]
        h = self._hidden_forward(x, cache)
        return h @ self.params[-2] + self.params[-1]

    def backward(self, cache: list, dq: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss given dloss/dQ, laid out like `flat`.
        Returns the network's own `grad` buffer: the next call overwrites it."""
        views = self._grad_views
        h = cache[-1]
        np.matmul(h.T, dq, out=views[-2])
        dq.sum(axis=0, out=views[-1])
        self._hidden_backward(cache, dq @ self.params[-2].T, views)
        return self.grad


class DuelingQNetwork(_Network):
    """Shared ReLU trunk splitting into a scalar value head and a per-action
    advantage head; Q(s,a) = V(s) + A(s,a) - mean_a A(s,a), so the mean Q
    over actions equals V exactly. Head parameter count stays close to the
    plain network so the two train at comparable speed."""

    kind = "dueling"

    def _layer_shapes(self) -> list[tuple[int, int]]:
        if not self.hidden_sizes:
            raise ValueError("dueling head needs >= 1 hidden size")
        sizes = [self.input_dim, *self.hidden_sizes]
        return [*zip(sizes[:-1], sizes[1:]), (sizes[-1], 1),
                (sizes[-1], self.action_count)]

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        if x.ndim == 1:
            return self.forward(x[None, :], cache)[0]
        h = self._hidden_forward(x, cache)
        wv, bv, wa, ba = self.params[-4:]
        v = h @ wv + bv                          # (B, 1)
        a = h @ wa + ba                          # (B, A)
        return v + a - a.mean(axis=1, keepdims=True)

    def backward(self, cache: list, dq: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss given dloss/dQ, laid out like `flat`.
        Returns the network's own `grad` buffer: the next call overwrites it."""
        views = self._grad_views
        h = cache[-1]
        wv, _, wa, _ = self.params[-4:]
        dv = dq.sum(axis=1, keepdims=True)       # (B, 1)
        da = dq - dq.mean(axis=1, keepdims=True)
        np.matmul(h.T, dv, out=views[-4])
        dv.sum(axis=0, out=views[-3])
        np.matmul(h.T, da, out=views[-2])
        da.sum(axis=0, out=views[-1])
        self._hidden_backward(cache, dv @ wv.T + da @ wa.T, views)
        return self.grad


def build_network(kind: str, input_dim: int, hidden_sizes, action_count: int,
                  rng: np.random.Generator, dtype=LEARNER_DTYPE):
    cls = {"plain": QNetwork, "dueling": DuelingQNetwork}.get(kind)
    if cls is None:
        raise ValueError(f"unknown network kind: {kind}")
    return cls(input_dim, tuple(hidden_sizes), action_count, rng, dtype)


def clip_gradients(grad: np.ndarray, bound: float) -> np.ndarray:
    """Scale the gradient so its L2 norm is at most `bound`. A gradient whose
    norm is not finite in its own dtype (a NaN entry, or entries so large
    that the squared norm overflows) raises FloatingPointError: scaling it
    would write NaN or zeros into every weight."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
    if not math.isfinite(norm):
        raise FloatingPointError(
            f"gradient norm is {norm} in {grad.dtype}; training diverged")
    if norm <= bound or norm == 0.0:
        return grad
    return grad * (bound / norm)


class AdamOptimizer:
    """First/second-moment adaptive gradient steps with bias correction.

    Updates run in place through two scratch arrays per parameter array, in
    the same operations and order as p -= lr * (m / c1) / (sqrt(v / c2) + eps),
    so a step allocates nothing the size of the parameters and its results
    are bit-identical to that expression."""

    def __init__(self, params: list[np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v,
                                      self._scratch):
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            a *= g                       # ((1-b2)*g)*g, not (1-b2)*(g*g)
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, c1, out=b)
            np.multiply(self.lr, b, out=b)
            b /= a
            p -= b


# ---------------------------------------------------------------------------
# Checkpoints: versioned JSON with layer sizes and flat weight arrays

def checkpoint_dict(model, config_echo: dict | None = None) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dtype": model.flat.dtype.name,
        "kind": model.kind,
        "input_dim": model.input_dim,
        "hidden_sizes": list(model.hidden_sizes),
        "action_count": model.action_count,
        "arrays": [{"shape": list(p.shape), "data": p.ravel().tolist()}
                   for p in model.params],
        "config": config_echo or {},
    }


def save_checkpoint(model, path: str | Path,
                    config_echo: dict | None = None) -> None:
    Path(path).write_text(json.dumps(checkpoint_dict(model, config_echo)))


def model_from_checkpoint(data: dict):
    version = data.get("format_version")
    if version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise CheckpointError(f"unsupported checkpoint format: {version}")
    try:
        dtype = "float64" if version == 1 else data["dtype"]
        if dtype not in CHECKPOINT_DTYPES:
            raise CheckpointError(f"unsupported checkpoint dtype: {dtype!r}")
        model = build_network(data["kind"], data["input_dim"],
                              data["hidden_sizes"], data["action_count"],
                              np.random.default_rng(0), np.dtype(dtype))
        arrays = [(entry["shape"], entry["data"]) for entry in data["arrays"]]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks key {exc}") from exc
    if len(arrays) != len(model.params):
        raise CheckpointError(
            f"expected {len(model.params)} arrays, got {len(arrays)}")
    for p, (shape, values) in zip(model.params, arrays):
        if tuple(shape) != p.shape:
            raise CheckpointError(
                f"array shape {shape} does not match {list(p.shape)}")
        # a value beyond the dtype's range becomes inf, rejected just below
        with np.errstate(over="ignore"):
            p[...] = np.array(values, dtype=float).reshape(p.shape)
    if not np.isfinite(model.flat).all():
        raise CheckpointError("checkpoint holds a non-finite weight")
    return model


def load_checkpoint(path: str | Path):
    return model_from_checkpoint(json.loads(Path(path).read_text()))
