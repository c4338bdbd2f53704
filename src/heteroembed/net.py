"""Small feed-forward embedding network with manual backprop, plus Adam.

The network is a stack of dense layers (an `ACTIVATIONS` entry between hidden
layers, linear output). With `normalize_output`, each output row u is divided by
sqrt(|u|² + NORM_GUARD²), its L2 norm to the bit for |u|² >= 2**-26; an overflowed
row gives NaN. Everything is float64 numpy arrays, fully deterministic given a seed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

NORM_GUARD = 1e-12
# Each activation: the function, and its slope written in terms of the function's output.
ACTIVATIONS = {"relu": (lambda z: np.maximum(z, 0.0), lambda h: h > 0), "tanh": (np.tanh, lambda h: 1.0 - h**2)}


class ShapeError(ValueError):
    """Dimension mismatch between arrays that must agree."""


class ConfigError(ValueError):
    """A value a config dataclass refuses: a network, run or data setting, or a count argument."""


class ParseError(ValueError):
    """A file's text is refused: a malformed manifest, checkpoint or config file, or one that is not UTF-8 text."""


def text_lines(path):
    """The lines of the UTF-8 file at `path`, split as `str.splitlines` splits, read as they are consumed.

    A leading byte-order mark is dropped; undecodable bytes raise ParseError("<path>: not UTF-8 text (<reason>)").
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            for line in f:
                yield from line.splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def real_array(values, name: str) -> np.ndarray:
    """`values` as a float64 array, copying none that already is one; it must hold real numbers (integers or
    floats), or a ValueError names `name`: a string, complex, bool, object or ragged array is refused."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged list, refused below as an object array
        a = np.array(None)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


# 10**k for k = -4..16, each the double nearest it and none below it: v >= _POW10[i] exactly
# when v >= 10**(i - 4). `%.17g` writes |v| in [1e-4, 1e16) in positional notation.
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 17)])
# 10**(20 - i), the exact double scaling a value v >= _POW10[i] to 17 integer digits, and
# its Veltkamp split into two halves whose products with another half are exact.
_SCALE = np.array([10**q for q in range(20, 0, -1)], dtype=np.float64)
_SPLIT = 2.0**27 + 1
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# The four ASCII digits of each of 0..9999 as one uint32 (a grid of four digit columns, in order;
# uint8 throughout, no large temporaries), and the divisors that cut N into its leading digit
# and four such groups.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).view(np.uint32).ravel()
_QUADS = (10**16, 10**12, 10**8, 10**4, 1)
_ROWS = np.arange(22, dtype=np.int8)[:, None]
_SKIP = 0xFF  # a byte UTF-8 text never holds: it marks the bytes the writer drops


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round-half-even(v * 10**(16 - k)), 10**k <= v < 10**(k + 1), for each 1e-4 <= v < 1e16; and k + 4, as int8.

    A function of its own so that its float64 temporaries are freed before `float_lines` spells the digits.
    """
    k = np.searchsorted(_POW10, v, side="right") - 1
    scale, hi, lo = _SCALE[k], _SCALE_HI[k], _SCALE_LO[k]
    p = v * scale
    v_hi = v * _SPLIT - (v * _SPLIT - v)
    v_lo = v - v_hi
    err = ((v_hi * hi - p) + v_hi * lo + v_lo * hi) + v_lo * lo  # v * scale - p, exactly
    # p >= 2**53 is an even integer, so rounding err half-even rounds p + err half-even. N never
    # reaches 10**17: the double below each power of ten is 8 or more short of it in the 17th digit.
    return p.astype(np.int64) + np.rint(err).astype(np.int64), k.astype(np.int8)


def float_lines(prefixes: list[str], rows) -> bytes:
    """The UTF-8 text of `prefix + " ".join("%.17g" % v for v in row) + "\\n"`, one line per prefix and row.

    For 1e-4 <= |v| < 1e16 the 17 significant digits N = round-half-even(|v| * 10**(16 - k)),
    10**k <= |v| < 10**(k + 1), come exactly from an error-free (Dekker) product. A 4-digit
    table spells them into a 25-byte slot per value, whose unused bytes, and the zeros `%g`
    strips, are `_SKIP`; one `bytes.translate` drops those. `%` formats every other value in its slot.
    """
    x = real_array(rows, "rows")
    n, d = x.shape
    flat = x.ravel()
    m, a = flat.size, np.abs(flat)
    fast = (a >= 1e-4) & (a < 1e16)
    digits, units = _digits17(np.where(fast, a, 1.0))  # 1.0 stands in for the values `%` formats
    # text: the sign, then N as 21 digits (four leading zeros), reduced to the ones %g prints:
    # from the units digit, or the first non-zero one, to the last non-zero one or the units digit.
    text = np.empty((22, m), np.uint8)
    text[0] = np.where(np.signbit(flat), np.uint8(ord("-")), np.uint8(_SKIP))
    text[1] = ord("0")
    for i, quad in enumerate(_QUADS):  # N's leading digit, then four groups of four
        text[2 + 4 * i : 6 + 4 * i] = _DIGITS4[digits // quad % 10_000].view(np.uint8).reshape(m, 4).T
    last = ((text[1:] != ord("0")) * _ROWS[:21]).max(axis=0)
    np.copyto(text[1:], _SKIP, where=(_ROWS[:21] < np.minimum(units, 4)) | (_ROWS[:21] > np.maximum(units, last)))
    # slots: one column per value; the digits after the units digit move one byte on for the point.
    slots = np.empty((25, m), np.uint8)
    slots[:23] = text[[0, *range(22)]]
    np.copyto(slots[1:22], text[1:], where=_ROWS[1:22] <= units + 1)
    slots[units + 2, np.arange(m)] = np.where(last > units, np.uint8(ord(".")), np.uint8(_SKIP))
    slots[23], slots[24] = _SKIP, ord(" ")
    for i in np.flatnonzero(~fast):
        slots[:24, i] = np.frombuffer(("%.17g" % flat[i]).encode().ljust(24, b"\xff"), np.uint8)
    heads = [prefix.encode() for prefix in prefixes]
    widths = np.array([len(head) for head in heads])
    width = widths.max()
    lines = np.full((n, width + 25 * d), _SKIP, np.uint8)
    lines[:, :width][np.arange(width) < widths[:, None]] = np.frombuffer(b"".join(heads), np.uint8)
    lines[:, width:].reshape(n, d, 25)[...] = slots.T.reshape(n, d, 25)
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, bytes([_SKIP]))


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
        if isinstance(value, (bool, np.bool_)):  # math.isfinite accepts a bool, but a bool is no real
            raise TypeError
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
        if self.activation not in tuple(ACTIVATIONS):  # a tuple: an unhashable value is refused, not a TypeError
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
    check_field("seed", seed, 0)
    rng = np.random.default_rng(seed)
    net = EmbeddingNet(config, np.zeros(config.n_params))
    for w in net.weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return net


def _layers(net: EmbeddingNet, inputs: np.ndarray) -> tuple[list, list]:
    """Each layer's input and pre-activation, input to output; the output layer is linear."""
    activate = ACTIVATIONS[net.config.activation][0]
    acts, pre = [], []
    for w, b in net._views():
        acts.append(activate(pre[-1]) if pre else inputs)
        pre.append(acts[-1] @ w.T + b)
    return acts, pre


def _normalize(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `u` over s = sqrt(|u|² + NORM_GUARD²), and the scales s: the L2 norm to the bit for
    |u|² >= 2**-26, and a zero row maps to zero; an overflowed s gives NaN, not a silent zero row."""
    scale = np.sqrt(np.sum(u * u, axis=1, keepdims=True) + NORM_GUARD**2)
    scale[np.isinf(scale)] = np.nan
    return u / scale, scale


def _rows(batch, kind: str, field: str, width: int) -> np.ndarray:
    """`batch` as 2-D float64 rows (`real_array`, naming them "<kind>s"), a 1-D one as one row; a ShapeError names
    any other shape, or a width other than `width`, which the config's `field` sets for this `kind` of rows."""
    rows = np.atleast_2d(real_array(batch, f"{kind}s"))
    if rows.ndim != 2:
        raise ShapeError(f"expected a 2-D batch of rows, got shape {rows.shape}")
    if rows.shape[1] != width:
        raise ShapeError(f"{kind} dim {rows.shape[1]} != config {field} {width}")
    return rows


def forward_batch(net: EmbeddingNet, inputs: np.ndarray) -> np.ndarray:
    """Map a (n, input_dim) batch of real numbers (`real_array`'s rule) to (n, embed_dim) embeddings."""
    inputs = _rows(inputs, "input", "input_dim", net.config.input_dim)
    h = _layers(net, inputs)[1][-1]
    return _normalize(h)[0] if net.config.normalize_output else h


def backward(net: EmbeddingNet, inputs: np.ndarray, grad_embeddings: np.ndarray) -> np.ndarray:
    """Gradient of sum_i <grad_i, g(x_i)> w.r.t. the parameters; inputs and gradients are real numbers (`real_array`).

    Returns one flat vector laid out as `net.params`. With `normalize_output`,
    it applies the exact Jacobian of `_normalize`'s u / s: (g - <g, y> y) / s.
    """
    inputs = _rows(inputs, "input", "input_dim", net.config.input_dim)
    grad_embeddings = _rows(grad_embeddings, "gradient", "embed_dim", net.config.embed_dim)
    if inputs.shape[0] != grad_embeddings.shape[0]:
        raise ShapeError("batch size mismatch between inputs and gradients")

    acts, pre = _layers(net, inputs)
    weights = net.weights
    g = grad_embeddings
    if net.config.normalize_output:
        y, scale = _normalize(pre[-1])
        g = (g - np.sum(g * y, axis=1, keepdims=True) * y) / scale

    slope = ACTIVATIONS[net.config.activation][1]
    parts = []  # weight and bias gradients, input to output
    for i in reversed(range(len(pre))):
        parts[:0] = [(g.T @ acts[i]).ravel(), g.sum(axis=0)]
        if i:
            g = (g @ weights[i]) * slope(acts[i])  # acts[i] is the activation of pre[i - 1]
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
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    params -= state.learning_rate * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPSILON)


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
        raise ParseError("cannot save a network with non-finite parameters")
    cfg = net.config
    values = (cfg.input_dim, ",".join(map(str, cfg.hidden_dims)), cfg.embed_dim, cfg.activation,
              "true" if cfg.normalize_output else "false")
    head = [CHECKPOINT_MAGIC, *(f"{key}={value}" for key, value in zip(CHECKPOINT_KEYS, values)), ""]
    tensors = [tensor for layer in net._views() for tensor in layer]
    body = b"".join(float_lines([" ".join([name, *map(str, shape), ""])], tensor.reshape(1, -1))
                    for (name, shape), tensor in zip(_tensor_lines(cfg), tensors))
    with open(path, "wb") as f:
        f.write("\n".join(head).encode() + body)


def load_checkpoint(path) -> EmbeddingNet:
    """Read back the lines `save_checkpoint` writes, each one in its place; any other text is refused."""
    lines = list(text_lines(path))
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")

    def line(n: int) -> str:
        return lines[n - 1] if n <= len(lines) else ""

    def refuse(n: int, expected: str) -> NoReturn:
        got = repr((line(n).split() or [""])[0]) if n <= len(lines) else "end of file"
        raise ParseError(f"{path}: line {n}: expected {expected}, got {got}")

    values = []
    for n, key in enumerate(CHECKPOINT_KEYS, 2):
        got, sep, value = line(n).partition("=")
        if got != key or not sep:
            refuse(n, repr(f"{key}="))
        values.append(value)
    input_dim, hidden_dims, embed_dim, activation, normalize = values
    if normalize not in ("true", "false"):
        raise ParseError(f"{path}: normalize_output must be true or false, got {normalize!r}")
    try:
        config = NetConfig(parse_int(input_dim), parse_int_list(hidden_dims), parse_int(embed_dim), activation,
                           normalize == "true")
    except ValueError as exc:
        raise ParseError(f"{path}: bad checkpoint header: {exc}") from exc

    parts = []
    for n, (name, shape) in enumerate(_tensor_lines(config), len(CHECKPOINT_KEYS) + 2):
        got, *fields = line(n).split() or [""]
        if got != name:
            refuse(n, repr(name))
        try:
            dims = tuple(parse_int(v) for v in fields[: len(shape)])
            vals = np.array([float(v) for v in fields[len(shape) :]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}: bad tensor line for {name}") from exc
        if len(dims) != len(shape) or min(dims) < 0 or vals.size != math.prod(dims):
            raise ParseError(f"{path}: bad tensor line for {name}")
        if not np.isfinite(vals).all():
            raise ParseError(f"{path}: non-finite value in {name}")
        if dims != shape:
            raise ShapeError(f"{path}: {name} has shape {dims}, the header gives {shape}")
        parts.append(vals)
    if len(lines) > n:  # n is the last tensor line
        refuse(n + 1, "end of file")
    return EmbeddingNet(config, np.concatenate(parts))
