import copy
import dataclasses
import pickle
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from heteroembed.net import (
    AdamState,
    ConfigError,
    EmbeddingNet,
    NetConfig,
    ShapeError,
    adam_step,
    backward,
    forward_batch,
    init_net,
    load_checkpoint,
    parse_int,
    parse_int_list,
    save_checkpoint,
)


def identity_net(dim, normalize=False):
    cfg = NetConfig(input_dim=dim, hidden_dims=(), embed_dim=dim, normalize_output=normalize)
    net = init_net(cfg, 0)
    net.weights[0][...] = np.eye(dim)
    net.biases[0][...] = 0.0
    return net


class TestParseInt:
    @pytest.mark.parametrize("text,value", [("0", 0), ("7", 7), ("-3", -3), ("007", 7), ("-0", 0)])
    def test_ascii_digits(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("text", ["", "-", "+4", " 4", "4 ", "1_0", "\u0664", "2.0", "--1", "0x10", "\u00b2"])
    def test_other_spellings_refused(self, text):
        with pytest.raises(ValueError):
            parse_int(text)

    @pytest.mark.parametrize("text,value", [("", ()), ("8", (8,)), ("8,4", (8, 4))])
    def test_list(self, text, value):
        assert parse_int_list(text) == value

    @pytest.mark.parametrize("text", ["8,,8", "3,,", ",", "8, 8", " "])
    def test_list_refuses_empty_or_spaced_items(self, text):
        with pytest.raises(ValueError):
            parse_int_list(text)


class TestInit:
    def test_single_layer_shape(self):
        cfg = NetConfig(input_dim=2, hidden_dims=(), embed_dim=2)
        net = init_net(cfg, 7)
        assert len(net.weights) == 1
        assert net.weights[0].shape == (2, 2)
        assert np.all(net.biases[0] == 0.0)

    def test_deterministic(self):
        cfg = NetConfig(input_dim=3, hidden_dims=(5,), embed_dim=4)
        a, b = init_net(cfg, 7), init_net(cfg, 7)
        assert np.array_equal(a.params, b.params)

    def test_same_draws_as_per_layer_init(self):
        # the draws the per-array network made: one (out, in) block per layer, in order
        cfg = NetConfig(input_dim=3, hidden_dims=(5, 2), embed_dim=4)
        rng = np.random.default_rng(7)
        parts = []
        for out_dim, in_dim in cfg.layer_dims:
            parts += [(rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)).ravel(), np.zeros(out_dim)]
        assert init_net(cfg, 7).params.tobytes() == np.concatenate(parts).tobytes()

    def test_seed_sensitivity(self):
        cfg = NetConfig(input_dim=3, hidden_dims=(5,), embed_dim=4)
        a, b = init_net(cfg, 7), init_net(cfg, 8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigError):
            NetConfig(input_dim=0, hidden_dims=(), embed_dim=2)
        with pytest.raises(ConfigError):
            NetConfig(input_dim=2, hidden_dims=(0,), embed_dim=2)

    def test_hidden_dims_stored_as_tuple(self, tmp_path):
        config = NetConfig(input_dim=2, hidden_dims=[8])
        assert config == NetConfig(input_dim=2, hidden_dims=(8,)) and config.hidden_dims == (8,)
        assert hash(config) == hash(NetConfig(input_dim=2, hidden_dims=(8,)))
        save_checkpoint(init_net(config, 0), tmp_path / "n.ckpt")
        assert load_checkpoint(tmp_path / "n.ckpt").config == config


class TestForward:
    def test_identity_map(self):
        net = identity_net(2)
        np.testing.assert_array_equal(forward_batch(net, np.array([[3.0, 4.0]]))[0], [3.0, 4.0])

    def test_unit_norm(self):
        net = identity_net(2, normalize=True)
        np.testing.assert_allclose(forward_batch(net, np.array([[3.0, 4.0]]))[0], [0.6, 0.8])

    def test_zero_output_guard(self):
        net = identity_net(2, normalize=True)
        net.weights[0][...] = 0.0
        np.testing.assert_array_equal(forward_batch(net, np.array([[1.0, 2.0]]))[0], [0.0, 0.0])

    def test_overflowed_norm_is_nan(self):
        net = identity_net(2, normalize=True)
        with np.errstate(over="ignore"):
            out = forward_batch(net, np.array([[1e200, 1e200], [3.0, 4.0]]))
        assert np.isnan(out[0]).all()
        np.testing.assert_allclose(out[1], [0.6, 0.8])

    def test_dim_mismatch(self):
        net = identity_net(2)
        with pytest.raises(ShapeError):
            forward_batch(net, np.zeros((1, 3)))

    def test_norm_invariant(self):
        cfg = NetConfig(input_dim=4, hidden_dims=(6,), embed_dim=3, normalize_output=True)
        net = init_net(cfg, 1)
        rng = np.random.default_rng(2)
        out = forward_batch(net, rng.standard_normal((20, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


class TestFlatParams:
    CONFIG = NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2)

    def test_layout(self):
        net = init_net(self.CONFIG, 0)
        assert net.params.shape == (self.CONFIG.n_params,) == (4 * 3 + 4 + 2 * 4 + 2,)
        flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(net.weights, net.biases)])
        assert np.array_equal(flat, net.params)
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.params)

    def test_writing_through_weights_changes_params_and_forward(self):
        net = init_net(self.CONFIG, 0)
        x = np.ones((1, 3))
        before_params, before_out = net.params.copy(), forward_batch(net, x)
        net.weights[1][0, 2] += 1.0
        changed = np.flatnonzero(net.params != before_params)
        assert changed.tolist() == [4 * 3 + 4 + 2]  # layer 1's weight starts after layer 0's weight and bias
        assert not np.array_equal(forward_batch(net, x), before_out)

    def test_weights_and_biases_cannot_be_rebound(self):
        net = init_net(self.CONFIG, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.weights = tuple(w * 2 for w in net.weights)
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(4)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
    def test_copies_keep_views_on_their_own_vector(self, clone):
        net = init_net(self.CONFIG, 0)
        twin = clone(net)
        assert np.array_equal(twin.params, net.params)
        for view in twin.weights + twin.biases:
            assert np.shares_memory(view, twin.params)
        twin.weights[0][0, 0] += 1.0
        assert twin.params[0] == net.params[0] + 1.0

    @pytest.mark.parametrize("params", [np.zeros(25), np.zeros(27), np.zeros(26, dtype=np.float32)])
    def test_wrong_params_rejected(self, params):
        with pytest.raises(ShapeError):
            EmbeddingNet(self.CONFIG, params)


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        cfg = NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2)
        net = init_net(cfg, 0)
        grad = backward(net, np.ones((2, 3)), np.zeros((2, 2)))
        assert grad.shape == net.params.shape
        assert np.all(grad == 0.0)

    def test_linear_chain_rule(self):
        net = identity_net(2)
        x = np.array([1.0, 2.0])
        v = np.array([3.0, 5.0])
        grad = EmbeddingNet(net.config, backward(net, x[None], v[None]))  # the gradient, viewed by layer
        np.testing.assert_allclose(grad.weights[0], np.outer(v, x))
        np.testing.assert_allclose(grad.biases[0], v)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_finite_differences(self, activation, normalize):
        cfg = NetConfig(
            input_dim=5,
            hidden_dims=(6, 4),
            embed_dim=3,
            activation=activation,
            normalize_output=normalize,
        )
        net = init_net(cfg, 11)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((4, 5))
        G = rng.standard_normal((4, 3))
        analytic = backward(net, X, G)
        h = 1e-5
        p = net.params
        for idx in range(p.size):
            old = p[idx]
            p[idx] = old + h
            f_plus = float(np.sum(G * forward_batch(net, X)))
            p[idx] = old - h
            f_minus = float(np.sum(G * forward_batch(net, X)))
            p[idx] = old
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - analytic[idx]) <= 1e-4 * max(1.0, abs(fd))


@dataclass
class ListAdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)


def reference_adam_step(state, params, grads):
    """The per-array Adam update the flat `adam_step` replaced: new params and state."""
    if not state.first_moment:
        state = replace(
            state,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )
    t = state.step_count + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(state, step_count=t, first_moment=new_m, second_moment=new_v)


def per_array(net):
    """The parameters as the per-array list: weight then bias, layer by layer, copied."""
    return [p.copy() for wb in zip(net.weights, net.biases) for p in wb]


class TestAdam:
    def test_zero_grad_no_move(self):
        params = np.array([1.0, -2.0])
        state = AdamState(learning_rate=1e-3)
        adam_step(state, params, np.zeros(2))
        np.testing.assert_array_equal(params, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_value(self):
        # bias-corrected first step: m_hat = v_hat = g, so delta = -lr * g/(|g|+eps)
        params = np.array([0.0])
        adam_step(AdamState(learning_rate=1e-3), params, np.array([1.0]))
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(params, [expected], rtol=0, atol=1e-18)

    def test_descent_direction(self):
        params = np.array([0.5])
        state = AdamState(learning_rate=1e-3)
        adam_step(state, params, np.array([2.0]))
        p1 = params[0]
        adam_step(state, params, np.array([2.0]))
        assert p1 < 0.5
        assert params[0] < p1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(AdamState(), np.zeros(2), np.zeros(3))
        state = AdamState()
        adam_step(state, np.zeros(2), np.zeros(2))
        with pytest.raises(ShapeError):
            adam_step(state, np.zeros(3), np.zeros(3))

    def test_reproducible(self):
        rng = np.random.default_rng(5)
        params, grad = rng.standard_normal(9), rng.standard_normal(9)
        a, b = params.copy(), params.copy()
        adam_step(AdamState(learning_rate=1e-2), a, grad)
        adam_step(AdamState(learning_rate=1e-2), b, grad)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
    def test_bit_identical_to_per_array_update(self, hidden):
        net = init_net(NetConfig(input_dim=5, hidden_dims=hidden, embed_dim=3), 11)
        ref_params = per_array(net)
        state, ref_state = AdamState(learning_rate=3e-2), ListAdamState(learning_rate=3e-2)
        rng = np.random.default_rng(12)
        for _ in range(6):
            grad = rng.standard_normal(net.params.size) * rng.choice([1e-6, 1.0, 1e3])
            ref_params, ref_state = reference_adam_step(
                ref_state, ref_params, per_array(EmbeddingNet(net.config, grad))
            )
            adam_step(state, net.params, grad)
            for got, want in zip(per_array(net), ref_params):
                assert got.tobytes() == want.tobytes()
            for got, want in ((state.first_moment, ref_state.first_moment),
                              (state.second_moment, ref_state.second_moment)):
                assert got.tobytes() == np.concatenate([m.ravel() for m in want]).tobytes()
            assert state.step_count == ref_state.step_count
            state.learning_rate *= 0.9
            ref_state = replace(ref_state, learning_rate=ref_state.learning_rate * 0.9)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = NetConfig(
            input_dim=4, hidden_dims=(5,), embed_dim=3, activation="tanh",
            normalize_output=False,
        )
        net = init_net(cfg, 13)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert np.array_equal(net.params, loaded.params)
        # re-serialization is byte-identical
        path2 = tmp_path / "net2.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOT-A-CHECKPOINT\n")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_non_finite_value_rejected_on_read_and_write(self, tmp_path):
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        text = path.read_text()
        for bad in ("nan", "inf", "-inf"):
            lines = text.splitlines()
            name, rows, cols, first, *rest = lines[-2].split()
            lines[-2] = " ".join([name, rows, cols, bad, *rest])
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigError, match="non-finite"):
                load_checkpoint(path)
        net.biases[0][1] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            save_checkpoint(net, tmp_path / "nan.ckpt")
        assert not (tmp_path / "nan.ckpt").exists()

    @pytest.mark.parametrize("line", [-1, 1])
    def test_duplicate_line_rejected(self, tmp_path, line):
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        lines.insert(line, lines[line])  # a tensor line, then a header key
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda ls: ls[:6] + ["layer0.weight"] + ls[7:], "bad tensor line for layer0.weight"),
            (lambda ls: ls[:7] + ["layer0.bias"] + ls[8:], "bad tensor line for layer0.bias"),
            (lambda ls: ls[:6] + ["layer0.weight 2 x " + " ".join(ls[6].split()[3:])] + ls[7:],
             "bad tensor line for layer0.weight"),
            (lambda ls: ls[:7] + ["layer0.bias 2.0 " + " ".join(ls[7].split()[2:])] + ls[8:],
             "bad tensor line for layer0.bias"),
            (lambda ls: ls[:6] + ["layer0.weight -1 2 " + " ".join(ls[6].split()[3:])] + ls[7:],
             "bad tensor line for layer0.weight"),
            (lambda ls: ls[:6] + ["layer0.weight 2 2 1 2 3"] + ls[7:], "bad tensor line for layer0.weight"),
            (lambda ls: ls[:6] + ["layer0.weight 2 2 1 x 3 4"] + ls[7:], "bad tensor line for layer0.weight"),
            (lambda ls: [l.replace("normalize_output=true", "normalize_output=yes") for l in ls],
             "normalize_output must be true or false, got 'yes'"),
            (lambda ls: [l.replace("normalize_output=true", "normalize_output=") for l in ls],
             "normalize_output must be true or false"),
            (lambda ls: ls[:6] + ["extra_key=1"] + ls[6:], "unknown checkpoint key 'extra_key'"),
            (lambda ls: [l.replace("input_dim=2", "input_dim=x") for l in ls], "bad checkpoint header"),
            (lambda ls: [l.replace("activation=relu", "activation=gelu") for l in ls], "bad checkpoint header"),
            (lambda ls: [l for l in ls if not l.startswith("embed_dim=")], "missing checkpoint key 'embed_dim'"),
            *[(lambda ls, v=v: [l.replace("input_dim=2", f"input_dim={v}") for l in ls], "bad checkpoint header")
              for v in ("+2", " 2", "0_2", "\u0662")],
            *[(lambda ls, v=v: [l.replace("hidden_dims=", f"hidden_dims={v}") for l in ls], "bad checkpoint header")
              for v in ("8,,8", "3,,", ",")],
            *[(lambda ls, v=v: ls[:6] + [ls[6].replace("weight 2 2", f"weight 2 {v}")] + ls[7:],
               "bad tensor line for layer0.weight") for v in ("+2", "0_2", "\u0662")],
        ],
    )
    def test_malformed_text_names_the_file(self, tmp_path, edit, message):
        # a writer-made checkpoint: magic, 5 header keys, layer0.weight, layer0.bias
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        assert [l.split()[0] for l in lines[6:]] == ["layer0.weight", "layer0.bias"]
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ConfigError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
