"""Small feed-forward embedding network with manual backprop, plus Adam.

The network is a stack of dense layers (ReLU or tanh between hidden
layers, linear output) with optional L2 normalization of the output
embedding. Everything operates on float64 numpy arrays and is fully
deterministic given a seed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import NoReturn

import numpy as np

NORM_GUARD = 1e-12


class ShapeError(ValueError):
    """Dimension mismatch between arrays that must agree."""


class ConfigError(ValueError):
    """Invalid configuration value: a network, run or data setting, or a count argument."""


def parse_int(text: str) -> int:
    """The integer an ASCII `-?[0-9]+` spelling names; ValueError for any other text."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated `parse_int` items; the empty text is the empty tuple."""
    return tuple(parse_int(v) for v in text.split(",")) if text else ()


def is_finite(name: str, value) -> bool:
    """Whether the real `value` is finite; a ConfigError naming `name` if it is not a real number."""
    try:
        return math.isfinite(value)
    except TypeError:
        raise ConfigError(f"{name} must be a real number, got {value!r}") from None


def check_field(name: str, value, minimum: int | None = None) -> None:
    """Refuse, naming `name`, a non-number or non-finite real or, given `minimum`, a non-integer or smaller count."""
    if minimum is None:
        if not is_finite(name, value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return
    try:
        if isinstance(value, bool):  # operator.index(True) is 1, but a bool is no count
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {count}")


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    embed_dim: int = 32
    activation: str = "relu"
    normalize_output: bool = True

    def __post_init__(self):
        if not isinstance(self.hidden_dims, Sequence):
            raise ConfigError(f"hidden_dims must be a sequence of integers, got {self.hidden_dims!r}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        check_field("input_dim", self.input_dim, 1)
        for i, d in enumerate(self.hidden_dims):
            check_field(f"hidden_dims[{i}]", d, 1)
        check_field("embed_dim", self.embed_dim, 1)
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not isinstance(self.normalize_output, (bool, np.bool_)):
            raise ConfigError(f"normalize_output must be a bool, got {self.normalize_output!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(out, in) shape of each weight matrix, input to output."""
        dims = [self.input_dim, *self.hidden_dims, self.embed_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        """Length of the flat parameter vector."""
        return sum(out_dim * (in_dim + 1) for out_dim, in_dim in self.layer_dims)


@dataclass(frozen=True, eq=False)
class EmbeddingNet:
    """A dense network whose parameters are one flat float64 vector, `params`.

    Layout, layer by layer from input to output: the (out, in) weight
    raveled row-major, then the (out,) bias. `weights` and `biases` build
    tuples of views into `params` when read: writing through them writes `params`.
    """

    config: NetConfig
    params: np.ndarray

    def __post_init__(self):
        if self.params.dtype != np.float64 or self.params.shape != (self.config.n_params,):
            raise ShapeError(f"params must be float64 of shape ({self.config.n_params},)")

    def _views(self):
        """Each layer's (weight, bias) views, input to output."""
        start = 0
        for out_dim, in_dim in self.config.layer_dims:
            stop = start + out_dim * in_dim
            yield self.params[start:stop].reshape(out_dim, in_dim), self.params[stop : stop + out_dim]
            start = stop + out_dim

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(w for w, _ in self._views())

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(b for _, b in self._views())


def init_net(config: NetConfig, seed: int) -> EmbeddingNet:
    """Build a network with 1/sqrt(fan_in)-scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    net = EmbeddingNet(config, np.zeros(config.n_params))
    for w in net.weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return net


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _layers(net: EmbeddingNet, inputs: np.ndarray) -> tuple[list, list]:
    """Each layer's input and pre-activation, input to output; the output layer is linear."""
    acts, pre = [], []
    for w, b in net._views():
        acts.append(_activate(pre[-1], net.config.activation) if pre else inputs)
        pre.append(acts[-1] @ w.T + b)
    return acts, pre


def _normalize(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `u` over their L2 norms, and the norms. A row with norm <= NORM_GUARD
    stays as it is; an overflowed norm gives NaN, not a silent zero row."""
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    scale = np.where(norms > NORM_GUARD, norms, 1.0)
    return u / np.where(np.isinf(norms), np.nan, scale), norms


def forward_batch(net: EmbeddingNet, inputs: np.ndarray) -> np.ndarray:
    """Map a (n, input_dim) batch to (n, embed_dim) embeddings."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1] != net.config.input_dim:
        raise ShapeError(
            f"input dim {inputs.shape[1]} != config input_dim {net.config.input_dim}"
        )
    h = _layers(net, inputs)[1][-1]
    return _normalize(h)[0] if net.config.normalize_output else h


def backward(net: EmbeddingNet, inputs: np.ndarray, grad_embeddings: np.ndarray) -> np.ndarray:
    """Gradient of sum_i <grad_i, g(x_i)> w.r.t. the parameters.

    Returns one flat vector laid out as `net.params`. Includes the Jacobian
    of the output L2 normalization when it is enabled; near-zero
    pre-normalization outputs pass through as identity (matching forward's guard).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    grad_embeddings = np.atleast_2d(np.asarray(grad_embeddings, dtype=np.float64))
    if inputs.shape[0] != grad_embeddings.shape[0]:
        raise ShapeError("batch size mismatch between inputs and gradients")
    if inputs.shape[1] != net.config.input_dim:
        raise ShapeError("input dim mismatch")
    if grad_embeddings.shape[1] != net.config.embed_dim:
        raise ShapeError("gradient dim mismatch")

    acts, pre = _layers(net, inputs)
    weights = net.weights
    g = grad_embeddings
    if net.config.normalize_output:
        y, norms = _normalize(pre[-1])
        safe = norms > NORM_GUARD
        # d/du (u/|u|) applied to g: (g - <g,y> y) / |u|
        proj = np.sum(g * y, axis=1, keepdims=True)
        g = np.where(safe, (g - proj * y) / np.where(safe, norms, 1.0), g)

    parts = []  # weight and bias gradients, input to output
    for i in reversed(range(len(pre))):
        parts[:0] = [(g.T @ acts[i]).ravel(), g.sum(axis=0)]
        if i:
            h = acts[i]  # the activation of pre[i - 1]
            slope = (h > 0) if net.config.activation == "relu" else 1.0 - h**2
            g = (g @ weights[i]) * slope
    return np.concatenate(parts)


# Adam's moment decay rates, and the guard added to the root of the second moment.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's learning rate, step count and moments; a moment is one flat vector laid out as `params`."""

    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: np.ndarray = field(default_factory=lambda: np.zeros(0))
    second_moment: np.ndarray = field(default_factory=lambda: np.zeros(0))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of `params`, the moments and the step count, in place."""
    if params.shape != grad.shape:
        raise ShapeError(f"shape mismatch: params {params.shape} vs grad {grad.shape}")
    if state.step_count == 0:
        state.first_moment, state.second_moment = np.zeros_like(params), np.zeros_like(params)
    if state.first_moment.shape != params.shape:
        raise ShapeError("accumulator/params shape mismatch")
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


# --- checkpoint serialization ----------------------------------------------

CHECKPOINT_MAGIC = "HETERO-EMBED-NET v1"
CHECKPOINT_KEYS = ("input_dim", "hidden_dims", "embed_dim", "activation", "normalize_output")


def _tensor_lines(config: NetConfig):
    """(name, shape) of each tensor line, in file order: the order of `EmbeddingNet.params`."""
    for i, (out_dim, in_dim) in enumerate(config.layer_dims):
        yield f"layer{i}.weight", (out_dim, in_dim)
        yield f"layer{i}.bias", (out_dim,)


def save_checkpoint(net: EmbeddingNet, path) -> None:
    """Write the network as the magic, one `key=value` line per CHECKPOINT_KEYS entry, then its tensor lines."""
    if not np.isfinite(net.params).all():
        raise ConfigError("cannot save a network with non-finite parameters")
    cfg = net.config
    values = (cfg.input_dim, ",".join(map(str, cfg.hidden_dims)), cfg.embed_dim, cfg.activation,
              "true" if cfg.normalize_output else "false")
    lines = [CHECKPOINT_MAGIC, *(f"{key}={value}" for key, value in zip(CHECKPOINT_KEYS, values))]
    tokens = iter([format(v, ".17g") for v in net.params.tolist()])
    for name, shape in _tensor_lines(cfg):
        lines.append(" ".join([name, *map(str, shape), *islice(tokens, math.prod(shape))]))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> EmbeddingNet:
    """Read back the lines `save_checkpoint` writes, each one in its place; any other text is refused."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")

    def line(n: int) -> str:
        return lines[n - 1] if n <= len(lines) else ""

    def refuse(n: int, expected: str) -> NoReturn:
        got = repr((line(n).split() or [""])[0]) if n <= len(lines) else "end of file"
        raise ConfigError(f"{path}: line {n}: expected {expected}, got {got}")

    values = []
    for n, key in enumerate(CHECKPOINT_KEYS, 2):
        got, sep, value = line(n).partition("=")
        if got != key or not sep:
            refuse(n, repr(f"{key}="))
        values.append(value)
    input_dim, hidden_dims, embed_dim, activation, normalize = values
    if normalize not in ("true", "false"):
        raise ConfigError(f"{path}: normalize_output must be true or false, got {normalize!r}")
    try:
        config = NetConfig(parse_int(input_dim), parse_int_list(hidden_dims), parse_int(embed_dim), activation,
                           normalize == "true")
    except ValueError as exc:
        raise ConfigError(f"{path}: bad checkpoint header: {exc}") from exc

    parts = []
    for n, (name, shape) in enumerate(_tensor_lines(config), len(CHECKPOINT_KEYS) + 2):
        got, *fields = line(n).split() or [""]
        if got != name:
            refuse(n, repr(name))
        try:
            dims = tuple(parse_int(v) for v in fields[: len(shape)])
            vals = np.array([float(v) for v in fields[len(shape) :]], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad tensor line for {name}") from exc
        if len(dims) != len(shape) or min(dims) < 0 or vals.size != math.prod(dims):
            raise ConfigError(f"{path}: bad tensor line for {name}")
        if not np.isfinite(vals).all():
            raise ConfigError(f"{path}: non-finite value in {name}")
        if dims != shape:
            raise ShapeError(f"{path}: {name} has shape {dims}, the header gives {shape}")
        parts.append(vals)
    if len(lines) > n:  # n is the last tensor line
        refuse(n + 1, "end of file")
    return EmbeddingNet(config, np.concatenate(parts))
