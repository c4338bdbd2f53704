import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed.loss import (
    EmbeddingTuple,
    Margins,
    hetero_loss,
    hetero_loss_grad,
    loss_l1,
    loss_l2,
    mean_embedding,
    triplet_loss,
    triplet_loss_grad,
)
from heteroembed.net import ShapeError


def v(*vals):
    return np.array(vals, dtype=np.float64)


def random_tuple(rng, dim, k1, k2, scale=1.0):
    def draw():
        return scale * rng.standard_normal(dim)

    return EmbeddingTuple(
        anchor=draw(),
        pos_same=draw(),
        pos_cross=draw(),
        negs_same=[draw() for _ in range(k1)],
        negs_cross=[draw() for _ in range(k2)],
    )


class TestTripletLoss:
    def test_separated_clips_to_zero(self):
        assert triplet_loss(v(0, 0), v(0, 0), v(1, 0), 0.4) == 0.0

    def test_all_coincident(self):
        assert triplet_loss(v(0, 0), v(0, 0), v(0, 0), 0.4) == pytest.approx(0.4)

    def test_scalar_case(self):
        # d2(a,p)=0.25, d2(a,n)=0.36 -> max(0, 0.25-0.36+0.4)
        assert triplet_loss(v(0.0), v(0.5), v(0.6), 0.4) == pytest.approx(0.29)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            triplet_loss(v(0, 0), v(0, 0, 0), v(0, 0), 0.4)


class TestMeanEmbedding:
    def test_singleton(self):
        np.testing.assert_array_equal(mean_embedding([v(1, 0)]), v(1, 0))

    def test_pair(self):
        np.testing.assert_array_equal(mean_embedding([v(1, 0), v(0, 1)]), v(0.5, 0.5))

    def test_permutation_invariant(self):
        vecs = [v(1, 2), v(-3, 0.5), v(0.25, 7)]
        np.testing.assert_array_equal(mean_embedding(vecs), mean_embedding(vecs[::-1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_embedding([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ShapeError, match="mixed dims"):
            mean_embedding([v(1, 0), v(1, 0, 0)])

    def test_nan_ignored_unused_propagated_in_use(self):
        sets = np.array([[[1.0, 2.0], [3.0, np.nan], [np.nan, np.nan]]])
        np.testing.assert_array_equal(mean_embedding(sets, np.array([1])), [[1.0, 2.0]])
        np.testing.assert_array_equal(mean_embedding(sets, np.array([2])), [[2.0, np.nan]])
        assert np.isnan(mean_embedding(sets, np.array([3]))).all()


class TestHingeTerms:
    def test_l1_separated(self):
        tup = EmbeddingTuple(v(0, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(1, 0)])
        assert loss_l1(tup, 0.4) == 0.0

    def test_l1_scalar(self):
        tup = EmbeddingTuple(v(0.0), v(0.5), v(0.0), [v(0.5), v(0.7)], [v(0.0)])
        assert loss_l1(tup, 0.4) == pytest.approx(0.29)

    def test_l1_negative_order_irrelevant(self):
        a = EmbeddingTuple(v(0.2, 0.1), v(0.3, 0), v(0, 0), [v(1, 0), v(0, 1)], [v(1, 1)])
        b = EmbeddingTuple(v(0.2, 0.1), v(0.3, 0), v(0, 0), [v(0, 1), v(1, 0)], [v(1, 1)])
        assert loss_l1(a, 0.4) == loss_l1(b, 0.4)

    def test_l2_separated(self):
        tup = EmbeddingTuple(v(0, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(0, 1)])
        assert loss_l2(tup, 0.4) == 0.0

    def test_l2_scalar(self):
        tup = EmbeddingTuple(v(0.0), v(0.0), v(0.4), [v(0.0)], [v(0.6), v(0.8)])
        assert loss_l2(tup, 0.4) == pytest.approx(0.07)

    def test_l2_identical_negatives_match_single(self):
        single = EmbeddingTuple(v(0.1, 0.2), v(0, 0), v(0.3, 0), [v(1, 1)], [v(0.9, 0.4)])
        many = EmbeddingTuple(
            v(0.1, 0.2), v(0, 0), v(0.3, 0), [v(1, 1)], [v(0.9, 0.4)] * 5
        )
        assert loss_l2(single, 0.4) == pytest.approx(loss_l2(many, 0.4))


class TestHeteroLoss:
    def test_all_coincident(self):
        z = v(0, 0)
        tup = EmbeddingTuple(z, z, z, [z], [z])
        val = hetero_loss(tup, Margins(0.4, 0.4))
        assert val.l1 == pytest.approx(0.4)
        assert val.l2 == pytest.approx(0.4)
        assert val.total == pytest.approx(0.8)

    def test_scalar_sum(self):
        tup = EmbeddingTuple(v(0.0), v(0.5), v(0.4), [v(0.5), v(0.7)], [v(0.6), v(0.8)])
        val = hetero_loss(tup, Margins(0.4, 0.4))
        assert val.total == pytest.approx(0.36)

    def test_well_separated_inactive(self):
        a = v(0, 0)
        tup = EmbeddingTuple(a, a, a, [v(2, 0)], [v(0, 2)])
        val = hetero_loss(tup, Margins(0.4, 0.4))
        assert val.total == 0.0
        assert not val.l1_active and not val.l2_active

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tup = random_tuple(rng, 4, 3, 2)
            prev = -1.0
            for alpha in (0.0, 0.2, 0.4, 0.8):
                total = hetero_loss(tup, Margins(alpha, alpha)).total
                assert total >= prev
                prev = total

    def test_reduction_to_triplet(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, p, n = rng.standard_normal((3, 5))
            tup = EmbeddingTuple(a, p, p.copy(), [n], [n.copy()])
            l1 = loss_l1(tup, 0.4)
            assert l1 == pytest.approx(triplet_loss(a, p, n, 0.4), abs=1e-12)
            total = hetero_loss(tup, Margins(0.4, 0.3)).total
            two_terms = triplet_loss(a, p, n, 0.4) + triplet_loss(a, p, n, 0.3)
            assert total == pytest.approx(two_terms, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_translation_invariance(seed, k1, k2):
    rng = np.random.default_rng(seed)
    tup = random_tuple(rng, 3, k1, k2)
    c = rng.standard_normal(3)
    shifted = EmbeddingTuple(
        anchor=tup.anchor + c,
        pos_same=tup.pos_same + c,
        pos_cross=tup.pos_cross + c,
        negs_same=[n + c for n in tup.negs_same],
        negs_cross=[n + c for n in tup.negs_cross],
    )
    before = hetero_loss(tup, Margins()).total
    after = hetero_loss(shifted, Margins()).total
    assert after == pytest.approx(before, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_negative_permutation_invariance(seed, k):
    rng = np.random.default_rng(seed)
    tup = random_tuple(rng, 3, k, k)
    perm = rng.permutation(k)
    permuted = EmbeddingTuple(
        anchor=tup.anchor,
        pos_same=tup.pos_same,
        pos_cross=tup.pos_cross,
        negs_same=[tup.negs_same[i] for i in perm],
        negs_cross=[tup.negs_cross[i] for i in perm],
    )
    assert hetero_loss(permuted, Margins()).total == hetero_loss(tup, Margins()).total
    _, ga = hetero_loss_grad(tup, Margins())
    _, gb = hetero_loss_grad(permuted, Margins())
    for i, j in enumerate(perm):
        np.testing.assert_array_equal(gb.d_negs_same[i], ga.d_negs_same[j])


class TestGradients:
    def test_inactive_all_zero(self):
        a = v(0, 0)
        tup = EmbeddingTuple(a, a, a, [v(2, 0)], [v(0, 2)])
        val, grad = hetero_loss_grad(tup, Margins())
        assert val.total == 0.0
        for g in [grad.d_anchor, grad.d_pos_same, grad.d_pos_cross,
                  *grad.d_negs_same, *grad.d_negs_cross]:
            assert np.all(g == 0.0)

    def test_coincident_distance_terms_cancel(self):
        z = v(0, 0)
        tup = EmbeddingTuple(z, z, z, [z, z], [z])
        val, grad = hetero_loss_grad(tup, Margins())
        assert val.total == pytest.approx(0.8)
        np.testing.assert_array_equal(grad.d_anchor, z)
        np.testing.assert_array_equal(grad.d_pos_same, z)
        np.testing.assert_array_equal(grad.d_pos_cross, z)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            dim = int(rng.integers(1, 9))
            tup = random_tuple(rng, dim, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            margins = Margins(0.4, 0.4)
            val = hetero_loss(tup, margins)
            # stay away from hinge kinks where the subgradient is one-sided
            arg1 = val.l1 if val.l1_active else loss_arg(tup, margins, 1)
            arg2 = val.l2 if val.l2_active else loss_arg(tup, margins, 2)
            if abs(arg1) < 1e-3 or abs(arg2) < 1e-3:
                continue
            checked += 1
            _, grad = hetero_loss_grad(tup, margins)
            flat_grads = [grad.d_anchor, grad.d_pos_same, grad.d_pos_cross,
                          *grad.d_negs_same, *grad.d_negs_cross]
            vecs = [tup.anchor, tup.pos_same, tup.pos_cross,
                    *tup.negs_same, *tup.negs_cross]
            h = 1e-5
            for vec, g in zip(vecs, flat_grads):
                for i in range(dim):
                    old = vec[i]
                    vec[i] = old + h
                    f_plus = hetero_loss(tup, margins).total
                    vec[i] = old - h
                    f_minus = hetero_loss(tup, margins).total
                    vec[i] = old
                    fd = (f_plus - f_minus) / (2 * h)
                    assert abs(fd - g[i]) <= 1e-4 * max(1.0, abs(fd))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def ragged_batch(rng, b, dim, k1, k2):
    """A batch whose tuples use 1..k negatives each; unused slots hold NaN."""
    def draw(*shape):
        return float(rng.choice([0.2, 1.0])) * rng.standard_normal((b, *shape, dim))

    n_same, n_cross = rng.integers(1, k1 + 1, size=b), rng.integers(1, k2 + 1, size=b)
    negs_same, negs_cross = draw(k1), draw(k2)
    negs_same[np.arange(k1) >= n_same[:, None]] = np.nan
    negs_cross[np.arange(k2) >= n_cross[:, None]] = np.nan
    return EmbeddingTuple(draw(), draw(), draw(), negs_same, negs_cross, n_same, n_cross)


class TestBatched:
    def test_equals_single_tuple_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        actives = set()
        for _ in range(40):
            b, dim = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            batch = ragged_batch(rng, b, dim, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            val, grad = hetero_loss_grad(batch, Margins(0.4, 0.3))
            for i in range(b):
                ks, kc = batch.n_same[i], batch.n_cross[i]
                single = EmbeddingTuple(
                    batch.anchor[i], batch.pos_same[i], batch.pos_cross[i],
                    list(batch.negs_same[i, :ks]), list(batch.negs_cross[i, :kc]),
                )
                v1, g1 = hetero_loss_grad(single, Margins(0.4, 0.3))
                for name in ("l1", "l2", "total", "l1_active", "l2_active"):
                    assert same_bits(getattr(val, name)[i], getattr(v1, name)), name
                assert same_bits(grad.d_anchor[i], g1.d_anchor)
                assert same_bits(grad.d_pos_same[i], g1.d_pos_same)
                assert same_bits(grad.d_pos_cross[i], g1.d_pos_cross)
                assert same_bits(grad.d_negs_same[i, :ks], g1.d_negs_same)
                assert same_bits(grad.d_negs_cross[i, :kc], g1.d_negs_cross)
                assert np.all(grad.d_negs_same[i, ks:] == 0.0)
                assert np.all(grad.d_negs_cross[i, kc:] == 0.0)
                actives.add((bool(v1.l1_active), bool(v1.l2_active)))
        assert len(actives) == 4  # every combination of active hinges was seen

    def test_centroid_permutation_invariant_per_set(self):
        rng = np.random.default_rng(12)
        batch = ragged_batch(rng, 16, 3, 5, 1)
        before = mean_embedding(batch.negs_same, batch.n_same)
        for i, k in enumerate(batch.n_same):
            # reference: one set, each component sorted, summed left to right
            rows = np.sort(batch.negs_same[i, :k], axis=0)
            total = rows[0]
            for r in rows[1:]:
                total = total + r
            assert same_bits(before[i], total / k)
        shuffled = batch.negs_same.copy()
        for i, k in enumerate(batch.n_same):
            shuffled[i, :k] = shuffled[i, rng.permutation(k)]
        assert same_bits(mean_embedding(shuffled, batch.n_same), before)

    def test_triplet_is_the_hinge_with_one_negative(self):
        rng = np.random.default_rng(13)
        a, p, n = rng.standard_normal((3, 50, 4))
        val, d_a, d_p, d_n = triplet_loss_grad(a, p, n, 0.4)
        # L2 term off: the cross positive is the anchor and alpha2 = 0, so
        # l2 = max(0, -d2(a, n)) is never active.
        tup = EmbeddingTuple(a, p, a, n[:, None], n[:, None])
        hv, hg = hetero_loss_grad(tup, Margins(0.4, 0.0))
        assert not hv.l2_active.any()
        assert same_bits(val, hv.l1)
        assert same_bits(val, loss_l1(tup, 0.4))
        np.testing.assert_array_equal(d_a, hg.d_anchor)
        assert same_bits(d_p, hg.d_pos_same)
        assert same_bits(d_n, hg.d_negs_same[:, 0])
        for i in range(len(a)):
            assert same_bits(val[i], triplet_loss(a[i], p[i], n[i], 0.4))

    def test_non_finite_embedding_gives_nan_not_zero(self):
        tup = EmbeddingTuple(v(np.nan, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(1, 0)])
        val = hetero_loss(tup, Margins())
        assert np.isnan(val.l1) and np.isnan(val.total)
        assert not val.l1_active
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.isnan(triplet_loss(v(np.inf), v(0.0), v(1.0), 0.4))


def loss_arg(tup, margins, which):
    """Raw (unclipped) hinge argument, for kink-proximity checks."""
    from heteroembed.loss import _sqdist, mean_embedding

    if which == 1:
        m = mean_embedding(tup.negs_same)
        return _sqdist(tup.anchor, tup.pos_same) - _sqdist(tup.anchor, m) + margins.alpha1
    m = mean_embedding(tup.negs_cross)
    return _sqdist(tup.anchor, tup.pos_cross) - _sqdist(tup.anchor, m) + margins.alpha2
