import copy
import dataclasses
import pickle
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from heteroembed.net import (
    ACTIVATIONS,
    NORM_GUARD,
    AdamState,
    ConfigError,
    EmbeddingNet,
    NetConfig,
    ParseError,
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

    def test_batch_that_is_not_2d_refused(self):
        # a (2, 3, 3) array has input_dim columns along axis 1, but it is no batch of rows
        net = init_net(NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2), 0)
        with pytest.raises(ShapeError) as info:
            forward_batch(net, np.ones((2, 3, 3)))
        assert str(info.value) == "expected a 2-D batch of rows, got shape (2, 3, 3)"

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

    @pytest.mark.parametrize(
        "inputs,grads,message",
        [((3, 3), (2, 2), "batch size mismatch between inputs and gradients"),
         ((2, 4), (2, 2), "input dim 4 != config input_dim 3"),
         ((2, 3), (2, 3), "gradient dim 3 != config embed_dim 2"),
         ((2, 3, 3), (2, 2), "expected a 2-D batch of rows, got shape (2, 3, 3)"),
         ((2, 3), (2, 2, 2), "expected a 2-D batch of rows, got shape (2, 2, 2)")],
    )
    def test_shape_mismatch_refused(self, inputs, grads, message):
        net = init_net(NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2), 0)
        with pytest.raises(ShapeError) as info:
            backward(net, np.ones(inputs), np.ones(grads))
        assert str(info.value) == message

    def test_linear_chain_rule(self):
        net = identity_net(2)
        x = np.array([1.0, 2.0])
        v = np.array([3.0, 5.0])
        grad = EmbeddingNet(net.config, backward(net, x[None], v[None]))  # the gradient, viewed by layer
        np.testing.assert_allclose(grad.weights[0], np.outer(v, x))
        np.testing.assert_allclose(grad.biases[0], v)

    def test_zero_row_embeds_to_zero_and_scales_its_gradient(self):
        # a pre-normalization row of exactly zero: the smooth scale is NORM_GUARD,
        # so the row embeds to zero and its gradient is scaled by 1/NORM_GUARD
        net = identity_net(2, normalize=True)
        net.weights[0][...] = 0.0
        x, g = np.array([[1.0, 2.0]]), np.array([[3.0, -5.0]])
        assert forward_batch(net, x).tolist() == [[0.0, 0.0]]
        grad = EmbeddingNet(net.config, backward(net, x, g))
        assert grad.biases[0].tolist() == (g[0] / NORM_GUARD).tolist()
        assert grad.weights[0].tolist() == np.outer(g[0] / NORM_GUARD, x[0]).tolist()

    @staticmethod
    def assert_central_differences(net, X, G, h):
        analytic = backward(net, X, G)
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

    @staticmethod
    def fd_case(activation, normalize):
        cfg = NetConfig(input_dim=5, hidden_dims=(6, 4), embed_dim=3, activation=activation,
                        normalize_output=normalize)
        rng = np.random.default_rng(12)
        return init_net(cfg, 11), rng.standard_normal((4, 5)), rng.standard_normal((4, 3))

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_finite_differences(self, activation, normalize):
        self.assert_central_differences(*self.fd_case(activation, normalize), h=1e-5)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_matches_finite_differences_at_a_tiny_output_norm(self, activation):
        # output rows of norm ~1e-5: |u|² is below 2**-26, where the smooth scale
        # and the norm may round apart; the step is scaled to that norm
        net, X, G = self.fd_case(activation, normalize=True)
        net.weights[-1][...] *= 1e-5
        u = forward_batch(EmbeddingNet(replace(net.config, normalize_output=False), net.params), X)
        squares = np.sum(u * u, axis=1)
        assert (squares < 2**-26).all() and (squares > 1e-14).all()
        self.assert_central_differences(net, X, G, h=1e-3 * np.sqrt(squares.min()))


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

    @pytest.mark.parametrize("normalize", [True, False])
    def test_bytes_match_per_value_formatting(self, tmp_path, normalize):
        # every value formatted by `format(v, ".17g")`, over magnitudes from subnormal to the largest double
        net = init_net(NetConfig(input_dim=6, hidden_dims=(5, 4), embed_dim=3, normalize_output=normalize), 2)
        rng = np.random.default_rng(9)
        net.params[:] = rng.choice([-1.0, 1.0], net.params.size) * 10.0 ** rng.uniform(-320, 308, net.params.size)
        net.params[:4] = [0.0, -0.0, 1e-4, 0.99999999999999994]
        net.params[-3:] = rng.standard_normal(3)
        cfg = net.config
        lines = ["HETERO-EMBED-NET v1", f"input_dim={cfg.input_dim}", "hidden_dims=5,4", f"embed_dim={cfg.embed_dim}",
                 "activation=relu", f"normalize_output={str(normalize).lower()}"]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            for name, tensor in ((f"layer{i}.weight", w), (f"layer{i}.bias", b)):
                values = [format(v, ".17g") for v in tensor.ravel().tolist()]
                lines.append(" ".join([name, *map(str, tensor.shape), *values]))
        save_checkpoint(net, tmp_path / "net.ckpt")
        assert (tmp_path / "net.ckpt").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        net = init_net(NetConfig(input_dim=2, hidden_dims=(3,), embed_dim=2), 4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert np.array_equal(loaded.params, net.params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOT-A-CHECKPOINT\n")
        with pytest.raises(ParseError):
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
            with pytest.raises(ParseError, match="non-finite"):
                load_checkpoint(path)
        net.biases[0][1] = np.nan
        with pytest.raises(ParseError, match="non-finite"):
            save_checkpoint(net, tmp_path / "nan.ckpt")
        assert not (tmp_path / "nan.ckpt").exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            (-1, "line 9: expected end of file, got 'layer0.bias'"),  # a tensor line
            (1, "line 3: expected 'hidden_dims=', got 'input_dim=2'"),  # a header line
        ],
    )
    def test_duplicate_line_rejected(self, tmp_path, line, message):
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        lines.insert(line, lines[line])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("hidden", [(), (3,), (3, 5)])
    @pytest.mark.parametrize("edit", ["swap", "blank"])
    def test_lines_out_of_place_rejected(self, tmp_path, hidden, edit):
        # every line after the magic has one place: swap two neighbours or add a blank line, and it is refused there
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=2, hidden_dims=hidden, embed_dim=2), 0), path)
        lines = path.read_text().splitlines()
        for i in range(1, len(lines) - 1 if edit == "swap" else len(lines) + 1):
            edited = list(lines)
            if edit == "swap":
                edited[i], edited[i + 1] = edited[i + 1], edited[i]
            else:
                edited.insert(i, "")
            path.write_text("\n".join(edited) + "\n")
            with pytest.raises(ParseError) as info:
                load_checkpoint(path)
            assert str(info.value).startswith(f"{path}: line {i + 1}: expected "), (i, str(info.value))

    def test_shape_fields_disagreeing_with_header_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=2, embed_dim=2), 0), path)
        lines = path.read_text().splitlines()
        lines[6] = lines[6].replace("layer0.weight 2 2 ", "layer0.weight 1 4 ")  # still 4 values
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: layer0.weight has shape (1, 4), the header gives (2, 2)"

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
            (lambda ls: ls[:6] + ["extra_key=1"] + ls[6:], "line 7: expected 'layer0.weight', got 'extra_key=1'"),
            (lambda ls: [l.replace("hidden_dims=", "hidden_dims") for l in ls],
             "line 3: expected 'hidden_dims=', got 'hidden_dims'"),
            (lambda ls: ls[:-1], "line 8: expected 'layer0.bias', got end of file"),
            (lambda ls: [l.replace("input_dim=2", "input_dim=x") for l in ls], "bad checkpoint header"),
            (lambda ls: [l.replace("activation=relu", "activation=gelu") for l in ls], "bad checkpoint header"),
            (lambda ls: [l for l in ls if not l.startswith("embed_dim=")],
             "line 4: expected 'embed_dim=', got 'activation=relu'"),
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
        with pytest.raises(ParseError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
