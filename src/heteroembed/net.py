"""Small feed-forward embedding network with manual backprop, plus Adam.

The network is a stack of dense layers (ReLU or tanh between hidden
layers, linear output) with optional L2 normalization of the output
embedding. Everything operates on float64 numpy arrays and is fully
deterministic given a seed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

NORM_GUARD = 1e-12


class ShapeError(ValueError):
    """Dimension mismatch between arrays that must agree."""


class ConfigError(ValueError):
    """Invalid network or run configuration."""


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    embed_dim: int = 32
    activation: str = "relu"
    normalize_output: bool = True

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.embed_dim)
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"all layer dims must be >= 1, got {dims}")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(out, in) shape of each weight matrix, input to output."""
        dims = [self.input_dim, *self.hidden_dims, self.embed_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


@dataclass
class EmbeddingNet:
    config: NetConfig
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]  # each (out,)

    def params(self) -> list[np.ndarray]:
        """Flat parameter list, weights and biases interleaved per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_net(config: NetConfig, seed: int) -> EmbeddingNet:
    """Build a network with 1/sqrt(fan_in)-scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in config.layer_dims:
        weights.append(rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim))
        biases.append(np.zeros(out_dim))
    return EmbeddingNet(config=config, weights=weights, biases=biases)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def forward_batch(net: EmbeddingNet, inputs: np.ndarray) -> np.ndarray:
    """Map a (n, input_dim) batch to (n, embed_dim) embeddings."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1] != net.config.input_dim:
        raise ShapeError(
            f"input dim {inputs.shape[1]} != config input_dim {net.config.input_dim}"
        )
    h = inputs
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i < n_layers - 1:
            h = _activate(h, net.config.activation)
    if net.config.normalize_output:
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        scale = np.where(norms > NORM_GUARD, norms, 1.0)
        h = h / scale
    return h


def forward(net: EmbeddingNet, x: np.ndarray) -> np.ndarray:
    """Embed a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected 1-d input, got shape {x.shape}")
    return forward_batch(net, x[None, :])[0]


def backward(
    net: EmbeddingNet, inputs: np.ndarray, grad_embeddings: np.ndarray
) -> list[np.ndarray]:
    """Gradients of sum_i <grad_i, g(x_i)> w.r.t. every parameter.

    Returns a list shaped like net.params(). Includes the Jacobian of the
    output L2 normalization when it is enabled; near-zero pre-normalization
    outputs pass through as identity (matching forward's guard).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    grad_embeddings = np.atleast_2d(np.asarray(grad_embeddings, dtype=np.float64))
    if inputs.shape[0] != grad_embeddings.shape[0]:
        raise ShapeError("batch size mismatch between inputs and gradients")
    if inputs.shape[1] != net.config.input_dim:
        raise ShapeError("input dim mismatch")
    if grad_embeddings.shape[1] != net.config.embed_dim:
        raise ShapeError("gradient dim mismatch")

    # Forward pass, caching pre-activations.
    n_layers = len(net.weights)
    acts = [inputs]  # layer inputs
    pre = []
    h = inputs
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = _activate(z, net.config.activation) if i < n_layers - 1 else z
        acts.append(h)

    g = grad_embeddings
    if net.config.normalize_output:
        u = pre[-1]
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        safe = norms > NORM_GUARD
        y = np.where(safe, u / np.where(safe, norms, 1.0), u)
        # d/du (u/|u|) applied to g: (g - <g,y> y) / |u|
        proj = np.sum(g * y, axis=1, keepdims=True)
        g = np.where(safe, (g - proj * y) / np.where(safe, norms, 1.0), g)

    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            z = pre[i]
            if net.config.activation == "relu":
                g = g * (z > 0)
            else:
                g = g * (1.0 - np.tanh(z) ** 2)
        grads_w[i] = g.T @ acts[i]
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ net.weights[i]

    out = []
    for gw, gb in zip(grads_w, grads_b):
        out.append(gw)
        out.append(gb)
    return out


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    decay: float = 1.0
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1/beta2 must lie in [0, 1)")


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update. Returns new params and state."""
    if len(params) != len(grads):
        raise ShapeError("params/grads length mismatch")
    if not state.first_moment:
        state = replace(
            state,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )
    if len(state.first_moment) != len(params):
        raise ShapeError("accumulator/params length mismatch")

    t = state.step_count + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(
        state, step_count=t, first_moment=new_m, second_moment=new_v
    )


def decay_learning_rate(state: AdamState) -> AdamState:
    """Multiply the learning rate by the per-epoch decay factor."""
    return replace(state, learning_rate=state.learning_rate * state.decay)


# --- checkpoint serialization ----------------------------------------------

CHECKPOINT_MAGIC = "HETERO-EMBED-NET v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_checkpoint(net: EmbeddingNet, path) -> None:
    """Write the network to the versioned text checkpoint format."""
    if not all(np.isfinite(p).all() for p in net.params()):
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
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    kv = {}
    idx = 1
    while idx < len(lines) and "=" in lines[idx] and " " not in lines[idx].split("=")[0]:
        key, _, val = lines[idx].partition("=")
        if key in kv:
            raise ConfigError(f"{path}: duplicate checkpoint key {key!r}")
        kv[key] = val
        idx += 1
    try:
        config = NetConfig(
            input_dim=int(kv["input_dim"]),
            hidden_dims=tuple(
                int(d) for d in kv["hidden_dims"].split(",") if d
            ),
            embed_dim=int(kv["embed_dim"]),
            activation=kv["activation"],
            normalize_output=kv["normalize_output"] == "true",
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing checkpoint key {exc}") from exc

    tensors = {}
    for line in lines[idx:]:
        if not line.strip():
            continue
        parts = line.split()
        name = parts[0]
        if name in tensors:
            raise ConfigError(f"{path}: duplicate tensor {name!r}")
        if name.endswith(".weight"):
            rows, cols = int(parts[1]), int(parts[2])
            vals = np.array([float(v) for v in parts[3:]], dtype=np.float64)
            tensors[name] = vals.reshape(rows, cols)
        elif name.endswith(".bias"):
            n = int(parts[1])
            vals = np.array([float(v) for v in parts[2:]], dtype=np.float64)
            if vals.size != n:
                raise ConfigError(f"{path}: bad tensor line for {name}")
            tensors[name] = vals
        else:
            raise ConfigError(f"{path}: unknown tensor {name!r}")
        if not np.isfinite(tensors[name]).all():
            raise ConfigError(f"{path}: non-finite value in {name}")

    n_layers = len(config.layer_dims)
    weights, biases = [], []
    for i, (out_dim, in_dim) in enumerate(config.layer_dims):
        w = tensors.get(f"layer{i}.weight")
        b = tensors.get(f"layer{i}.bias")
        if w is None or b is None:
            raise ConfigError(f"{path}: missing tensors for layer {i}")
        if w.shape != (out_dim, in_dim) or b.shape != (out_dim,):
            raise ShapeError(f"{path}: layer {i} shape mismatch with config")
        weights.append(w)
        biases.append(b)
    if len(tensors) != 2 * n_layers:
        raise ConfigError(f"{path}: unexpected extra tensors")
    return EmbeddingNet(config=config, weights=weights, biases=biases)
