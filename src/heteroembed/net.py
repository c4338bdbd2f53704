"""Small feed-forward embedding network with manual backprop, plus Adam.

The network is a stack of dense layers (ReLU or tanh between hidden
layers, linear output) with optional L2 normalization of the output
embedding. Everything operates on float64 numpy arrays and is fully
deterministic given a seed.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field

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


def check_field(name: str, value, minimum: int | None = None) -> None:
    """Refuse, naming `name`, a non-finite real or, given `minimum`, a non-integer or smaller count."""
    if minimum is None:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return
    try:
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
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        check_field("input_dim", self.input_dim, 1)
        for i, d in enumerate(self.hidden_dims):
            check_field(f"hidden_dims[{i}]", d, 1)
        check_field("embed_dim", self.embed_dim, 1)
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}")

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_checkpoint(net: EmbeddingNet, path) -> None:
    """Write the network to the versioned text checkpoint format."""
    if not np.isfinite(net.params).all():
        raise ConfigError("cannot save a network with non-finite parameters")
    cfg = net.config
    buf = io.StringIO()
    buf.write(CHECKPOINT_MAGIC + "\n")
    buf.write(f"input_dim={cfg.input_dim}\n")
    buf.write(f"hidden_dims={','.join(str(d) for d in cfg.hidden_dims)}\n")
    buf.write(f"embed_dim={cfg.embed_dim}\n")
    buf.write(f"activation={cfg.activation}\n")
    buf.write(f"normalize_output={'true' if cfg.normalize_output else 'false'}\n")
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        vals = " ".join(_fmt(v) for v in w.ravel())
        buf.write(f"layer{i}.weight {w.shape[0]} {w.shape[1]} {vals}\n")
        vals = " ".join(_fmt(v) for v in b)
        buf.write(f"layer{i}.bias {b.shape[0]} {vals}\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> EmbeddingNet:
    """Read a network back from the text checkpoint format."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    kv = {}
    idx = 1
    while idx < len(lines) and "=" in lines[idx] and " " not in lines[idx].split("=")[0]:
        key, _, val = lines[idx].partition("=")
        if key in kv:
            raise ConfigError(f"{path}: duplicate checkpoint key {key!r}")
        if key not in CHECKPOINT_KEYS:
            raise ConfigError(f"{path}: unknown checkpoint key {key!r}")
        kv[key] = val
        idx += 1
    for key in CHECKPOINT_KEYS:
        if key not in kv:
            raise ConfigError(f"{path}: missing checkpoint key {key!r}")
    if kv["normalize_output"] not in ("true", "false"):
        raise ConfigError(
            f"{path}: normalize_output must be true or false, got {kv['normalize_output']!r}"
        )
    try:
        config = NetConfig(
            input_dim=parse_int(kv["input_dim"]),
            hidden_dims=parse_int_list(kv["hidden_dims"]),
            embed_dim=parse_int(kv["embed_dim"]),
            activation=kv["activation"],
            normalize_output=kv["normalize_output"] == "true",
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad checkpoint header: {exc}") from exc

    tensors = {}
    for line in lines[idx:]:
        if not line.strip():
            continue
        name, *fields = line.split()
        if name in tensors:
            raise ConfigError(f"{path}: duplicate tensor {name!r}")
        if not name.endswith((".weight", ".bias")):
            raise ConfigError(f"{path}: unknown tensor {name!r}")
        n_dims = 2 if name.endswith(".weight") else 1
        try:
            shape = tuple(parse_int(v) for v in fields[:n_dims])
            vals = np.array([float(v) for v in fields[n_dims:]], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad tensor line for {name}") from exc
        if len(shape) != n_dims or min(shape) < 0 or vals.size != math.prod(shape):
            raise ConfigError(f"{path}: bad tensor line for {name}")
        tensors[name] = vals.reshape(shape)
        if not np.isfinite(tensors[name]).all():
            raise ConfigError(f"{path}: non-finite value in {name}")

    parts = []
    for i, (out_dim, in_dim) in enumerate(config.layer_dims):
        w = tensors.get(f"layer{i}.weight")
        b = tensors.get(f"layer{i}.bias")
        if w is None or b is None:
            raise ConfigError(f"{path}: missing tensors for layer {i}")
        if w.shape != (out_dim, in_dim) or b.shape != (out_dim,):
            raise ShapeError(f"{path}: layer {i} shape mismatch with config")
        parts += [w.ravel(), b]
    if len(tensors) != 2 * len(config.layer_dims):
        raise ConfigError(f"{path}: unexpected extra tensors")
    return EmbeddingNet(config, np.concatenate(parts))
