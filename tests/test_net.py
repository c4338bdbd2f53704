import numpy as np
import pytest

from heteroembed.net import (
    AdamState,
    ConfigError,
    NetConfig,
    ShapeError,
    adam_step,
    backward,
    decay_learning_rate,
    forward,
    forward_batch,
    init_net,
    load_checkpoint,
    save_checkpoint,
)


def identity_net(dim, normalize=False):
    cfg = NetConfig(input_dim=dim, hidden_dims=(), embed_dim=dim, normalize_output=normalize)
    net = init_net(cfg, 0)
    net.weights[0] = np.eye(dim)
    net.biases[0] = np.zeros(dim)
    return net


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
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_seed_sensitivity(self):
        cfg = NetConfig(input_dim=3, hidden_dims=(5,), embed_dim=4)
        a, b = init_net(cfg, 7), init_net(cfg, 8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigError):
            NetConfig(input_dim=0, hidden_dims=(), embed_dim=2)
        with pytest.raises(ConfigError):
            NetConfig(input_dim=2, hidden_dims=(0,), embed_dim=2)


class TestForward:
    def test_identity_map(self):
        net = identity_net(2)
        np.testing.assert_array_equal(forward(net, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_unit_norm(self):
        net = identity_net(2, normalize=True)
        np.testing.assert_allclose(forward(net, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_output_guard(self):
        net = identity_net(2, normalize=True)
        net.weights[0] = np.zeros((2, 2))
        np.testing.assert_array_equal(forward(net, np.array([1.0, 2.0])), [0.0, 0.0])

    def test_dim_mismatch(self):
        net = identity_net(2)
        with pytest.raises(ShapeError):
            forward(net, np.zeros(3))

    def test_norm_invariant(self):
        cfg = NetConfig(input_dim=4, hidden_dims=(6,), embed_dim=3, normalize_output=True)
        net = init_net(cfg, 1)
        rng = np.random.default_rng(2)
        out = forward_batch(net, rng.standard_normal((20, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        cfg = NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2)
        net = init_net(cfg, 0)
        grads = backward(net, np.ones((2, 3)), np.zeros((2, 2)))
        for g in grads:
            assert np.all(g == 0.0)

    def test_linear_chain_rule(self):
        net = identity_net(2)
        x = np.array([1.0, 2.0])
        v = np.array([3.0, 5.0])
        grads = backward(net, x[None], v[None])
        np.testing.assert_allclose(grads[0], np.outer(v, x))
        np.testing.assert_allclose(grads[1], v)

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
        for p, g in zip(net.params(), analytic):
            for idx in np.ndindex(p.shape):
                old = p[idx]
                p[idx] = old + h
                f_plus = float(np.sum(G * forward_batch(net, X)))
                p[idx] = old - h
                f_minus = float(np.sum(G * forward_batch(net, X)))
                p[idx] = old
                fd = (f_plus - f_minus) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-4 * max(1.0, abs(fd))


class TestAdam:
    def test_zero_grad_no_move(self):
        params = [np.array([1.0, -2.0])]
        state = AdamState(learning_rate=1e-3)
        new, state = adam_step(state, params, [np.zeros(2)])
        np.testing.assert_array_equal(new[0], params[0])
        assert state.step_count == 1

    def test_first_step_value(self):
        # bias-corrected first step: m_hat = v_hat = g, so delta = -lr * g/(|g|+eps)
        params = [np.array([0.0])]
        new, _ = adam_step(AdamState(learning_rate=1e-3), params, [np.array([1.0])])
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(new[0], [expected], rtol=0, atol=1e-18)

    def test_descent_direction(self):
        params = [np.array([0.5])]
        state = AdamState(learning_rate=1e-3)
        p1, state = adam_step(state, params, [np.array([2.0])])
        p2, state = adam_step(state, p1, [np.array([2.0])])
        assert p1[0][0] < params[0][0]
        assert p2[0][0] < p1[0][0]

    def test_shape_mismatch(self):
        state = AdamState()
        with pytest.raises(ShapeError):
            adam_step(state, [np.zeros(2)], [np.zeros(3)])

    def test_reproducible(self):
        rng = np.random.default_rng(5)
        params = [rng.standard_normal((3, 2)), rng.standard_normal(3)]
        grads = [rng.standard_normal((3, 2)), rng.standard_normal(3)]
        a, _ = adam_step(AdamState(learning_rate=1e-2), [p.copy() for p in params], grads)
        b, _ = adam_step(AdamState(learning_rate=1e-2), [p.copy() for p in params], grads)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)


class TestDecay:
    def test_noop(self):
        state = AdamState(learning_rate=1e-3, decay=1.0)
        assert decay_learning_rate(state).learning_rate == 1e-3

    def test_single(self):
        state = AdamState(learning_rate=1e-3, decay=0.95)
        assert decay_learning_rate(state).learning_rate == pytest.approx(9.5e-4)

    def test_double(self):
        state = AdamState(learning_rate=1e-3, decay=0.95)
        state = decay_learning_rate(decay_learning_rate(state))
        assert state.learning_rate == pytest.approx(9.025e-4)


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
        for a, b in zip(net.params(), loaded.params()):
            assert np.array_equal(a, b)
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
