import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed.loss import (
    Margins,
    _sqdist,
    hetero_loss_grad,
    mean_embedding,
    triplet_loss_grad,
)
from heteroembed.net import ShapeError


def v(*vals):
    return np.array(vals, dtype=np.float64)


def stacked(negs_same, negs_cross):
    """The two negative sets as one (2, K, D) array, the shorter NaN-padded to the longer, and their counts."""
    k = max(len(negs_same), len(negs_cross))
    negatives = np.full((2, k, len(negs_same[0])), np.nan)
    for term, negs in enumerate((negs_same, negs_cross)):
        negatives[term, : len(negs)] = negs
    return negatives, np.array([len(negs_same), len(negs_cross)])


def hetero(anchor, pos_same, pos_cross, negs_same, negs_cross, margins=Margins(0.4, 0.4)):
    """`hetero_loss_grad` of one tuple given term by term, its negative sets as lists."""
    negatives, counts = stacked(negs_same, negs_cross)
    return hetero_loss_grad(anchor, np.stack([pos_same, pos_cross]), negatives, margins, counts)


def random_tuple(rng, dim, k1, k2, scale=1.0):
    """(anchor, positives, negatives, counts) of one tuple in the loss's layout."""
    def draw(*shape):
        return scale * rng.standard_normal((*shape, dim))

    anchor, positives = draw(), draw(2)
    return anchor, positives, *stacked(draw(k1), draw(k2))


def total(tup, margins=Margins()):
    return hetero_loss_grad(*tup[:3], margins, tup[3])[0].sum()


class TestTripletLoss:
    def test_separated_clips_to_zero(self):
        assert triplet_loss_grad(v(0, 0), v(0, 0), v(1, 0), 0.4)[0] == 0.0

    def test_all_coincident(self):
        assert triplet_loss_grad(v(0, 0), v(0, 0), v(0, 0), 0.4)[0] == pytest.approx(0.4)

    def test_scalar_case(self):
        # d2(a,p)=0.25, d2(a,n)=0.36 -> max(0, 0.25-0.36+0.4)
        assert triplet_loss_grad(v(0.0), v(0.5), v(0.6), 0.4)[0] == pytest.approx(0.29)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            triplet_loss_grad(v(0, 0), v(0, 0, 0), v(0, 0), 0.4)


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

    @pytest.mark.parametrize("shape, count, error, message", [
        ((1, 3, 2), [0], ValueError, "each negative set needs a count >= 1"),
        ((2, 3, 2), [2, 0], ValueError, "each negative set needs a count >= 1"),
        ((2, 3, 4), [1, 1, 1], ShapeError, "count shape (3,) does not match the sets' leading shape (2,)"),
        ((2, 3, 4), 2, ShapeError, "count shape () does not match the sets' leading shape (2,)"),
        ((3, 1), 2.5, ValueError, "each negative set needs an integer count, got dtype float64"),
        ((3, 1), True, ValueError, "each negative set needs an integer count, got dtype bool"),
        ((3, 1), "2", ValueError, "each negative set needs an integer count, got dtype <U1"),
    ], ids=["zero", "one_zero", "too_many_counts", "scalar_count", "fractional", "bool", "string"])
    def test_bad_count_rejected(self, shape, count, error, message):
        with pytest.raises(ValueError) as info:
            mean_embedding(np.zeros(shape), np.array(count))
        assert type(info.value) is error and str(info.value) == message

    def test_count_above_k_rejected(self):
        with pytest.raises(ValueError) as info:
            mean_embedding(np.arange(24.0).reshape(2, 3, 4), count=[5, 1])
        assert str(info.value) == "each negative set needs a count <= K=3, got 5"

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
        assert hetero(v(0, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(1, 0)])[0][0] == 0.0

    def test_l1_scalar(self):
        l1 = hetero(v(0.0), v(0.5), v(0.0), [v(0.5), v(0.7)], [v(0.0)])[0][0]
        assert l1 == pytest.approx(0.29)

    def test_l1_negative_order_irrelevant(self):
        a = hetero(v(0.2, 0.1), v(0.3, 0), v(0, 0), [v(1, 0), v(0, 1)], [v(1, 1)])[0][0]
        b = hetero(v(0.2, 0.1), v(0.3, 0), v(0, 0), [v(0, 1), v(1, 0)], [v(1, 1)])[0][0]
        assert a == b

    def test_l2_separated(self):
        assert hetero(v(0, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(0, 1)])[0][1] == 0.0

    def test_l2_scalar(self):
        l2 = hetero(v(0.0), v(0.0), v(0.4), [v(0.0)], [v(0.6), v(0.8)])[0][1]
        assert l2 == pytest.approx(0.07)

    def test_l2_identical_negatives_match_single(self):
        single = hetero(v(0.1, 0.2), v(0, 0), v(0.3, 0), [v(1, 1)], [v(0.9, 0.4)])[0][1]
        many = hetero(v(0.1, 0.2), v(0, 0), v(0.3, 0), [v(1, 1)], [v(0.9, 0.4)] * 5)[0][1]
        assert single == pytest.approx(many)


class TestHeteroLoss:
    def test_all_coincident(self):
        z = v(0, 0)
        val = hetero(z, z, z, [z], [z])[0]
        assert val[0] == pytest.approx(0.4)
        assert val[1] == pytest.approx(0.4)
        assert val.sum() == pytest.approx(0.8)

    def test_scalar_sum(self):
        val = hetero(v(0.0), v(0.5), v(0.4), [v(0.5), v(0.7)], [v(0.6), v(0.8)])[0]
        assert val.sum() == pytest.approx(0.36)

    def test_well_separated_inactive(self):
        a = v(0, 0)
        val = hetero(a, a, a, [v(2, 0)], [v(0, 2)])[0]
        assert val.sum() == 0.0
        assert not (val > 0).any()

    @pytest.mark.parametrize("counts, error, message", [
        ([[5, 4], [1, 1]], ValueError, "each negative set needs a count <= K=4, got 5"),
        ([[2, 4], [1, 5]], ValueError, "each negative set needs a count <= K=4, got 5"),
        ([2, 1], ShapeError, "count shape (2,) does not match the sets' leading shape (2, 2)"),
        ([[2.5, 1], [1, 1]], ValueError, "each negative set needs an integer count, got dtype float64"),
    ], ids=["same_above_k", "cross_above_k", "per_tuple_not_per_term", "fractional"])
    def test_bad_counts_rejected(self, counts, error, message):
        with pytest.raises(ValueError) as info:
            hetero_loss_grad(np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2, 4, 3)), Margins(), np.array(counts))
        assert type(info.value) is error and str(info.value) == message

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tup = random_tuple(rng, 4, 3, 2)
            prev = -1.0
            for alpha in (0.0, 0.2, 0.4, 0.8):
                loss = total(tup, Margins(alpha, alpha))
                assert loss >= prev
                prev = loss

    def test_reduction_to_triplet(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, p, n = rng.standard_normal((3, 5))
            l1 = hetero(a, p, p.copy(), [n], [n.copy()])[0][0]
            assert l1 == pytest.approx(triplet_loss_grad(a, p, n, 0.4)[0], abs=1e-12)
            loss = hetero(a, p, p.copy(), [n], [n.copy()], Margins(0.4, 0.3))[0].sum()
            two_terms = triplet_loss_grad(a, p, n, 0.4)[0] + triplet_loss_grad(a, p, n, 0.3)[0]
            assert loss == pytest.approx(two_terms, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_translation_invariance(seed, k1, k2):
    rng = np.random.default_rng(seed)
    anchor, positives, negatives, counts = random_tuple(rng, 3, k1, k2)
    c = rng.standard_normal(3)
    before = total((anchor, positives, negatives, counts))
    after = total((anchor + c, positives + c, negatives + c, counts))
    assert after == pytest.approx(before, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_negative_permutation_invariance(seed, k):
    rng = np.random.default_rng(seed)
    anchor, positives, negatives, counts = random_tuple(rng, 3, k, k)
    perm = rng.permutation(k)
    va, _, _, ga = hetero_loss_grad(anchor, positives, negatives, Margins(), counts)
    vb, _, _, gb = hetero_loss_grad(anchor, positives, negatives[:, perm], Margins(), counts)
    assert vb.sum() == va.sum()
    for i, j in enumerate(perm):
        np.testing.assert_array_equal(gb[:, i], ga[:, j])


class TestGradients:
    def test_inactive_all_zero(self):
        a = v(0, 0)
        val, *grads = hetero(a, a, a, [v(2, 0)], [v(0, 2)], Margins())
        assert val.sum() == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_coincident_distance_terms_cancel(self):
        z = v(0, 0)
        val, d_anchor, d_pos, _ = hetero(z, z, z, [z, z], [z], Margins())
        assert val.sum() == pytest.approx(0.8)
        np.testing.assert_array_equal(d_anchor, z)
        np.testing.assert_array_equal(d_pos, [z, z])

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        margins = Margins(0.4, 0.4)
        while checked < 60:
            dim = int(rng.integers(1, 9))
            tup = random_tuple(rng, dim, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            # stay away from hinge kinks where the subgradient is one-sided
            if min(abs(arg) for arg in hinge_args(*tup, margins)) < 1e-3:
                continue
            checked += 1
            grads = hetero_loss_grad(*tup[:3], margins, tup[3])[1:]
            h = 1e-5
            # every slot, the NaN padding too: an unused negative has zero gradient
            for vecs, g in zip(tup[:3], grads):
                for i in np.ndindex(vecs.shape):
                    old = vecs[i]
                    vecs[i] = old + h
                    f_plus = total(tup, margins)
                    vecs[i] = old - h
                    f_minus = total(tup, margins)
                    vecs[i] = old
                    fd = (f_plus - f_minus) / (2 * h)
                    assert abs(fd - g[i]) <= 1e-4 * max(1.0, abs(fd))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def ragged_batch(rng, b, dim, k1, k2):
    """(anchor, positives, negatives, counts) of a batch whose tuples use 1..k1 and 1..k2
    negatives; the sets are padded to the wider of k1 and k2, and unused slots hold NaN."""
    def draw(*shape):
        return float(rng.choice([0.2, 1.0])) * rng.standard_normal((b, *shape, dim))

    counts = np.stack([rng.integers(1, k1 + 1, size=b), rng.integers(1, k2 + 1, size=b)], axis=1)
    negatives = draw(2, max(k1, k2))
    negatives[np.arange(max(k1, k2)) >= counts[..., None]] = np.nan
    return draw(), draw(2), negatives, counts


class TestBatched:
    def test_equals_single_tuple_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        actives = set()
        for _ in range(40):
            b, dim = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            anchor, positives, negatives, counts = ragged_batch(
                rng, b, dim, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            val, d_anchor, d_pos, d_negs = hetero_loss_grad(anchor, positives, negatives, Margins(0.4, 0.3), counts)
            for i in range(b):
                ks, kc = counts[i]
                # one tuple, its sets padded only to the wider of the two
                v1, da1, dp1, dn1 = hetero(anchor[i], *positives[i], list(negatives[i, 0, :ks]),
                                           list(negatives[i, 1, :kc]), Margins(0.4, 0.3))
                assert same_bits(val[i], v1)
                assert same_bits(d_anchor[i], da1)
                assert same_bits(d_pos[i], dp1)
                assert same_bits(d_negs[i, 0, :ks], dn1[0, :ks])
                assert same_bits(d_negs[i, 1, :kc], dn1[1, :kc])
                assert np.all(d_negs[i, 0, ks:] == 0.0) and np.all(dn1[0, ks:] == 0.0)
                assert np.all(d_negs[i, 1, kc:] == 0.0) and np.all(dn1[1, kc:] == 0.0)
                actives.add(tuple(v1 > 0))
        assert len(actives) == 4  # every combination of active hinges was seen

    @pytest.mark.parametrize("inputs", ["random", "special"])
    def test_centroid_permutation_invariant_per_set(self, inputs):
        rng = np.random.default_rng(12)
        if inputs == "random":
            _, _, negatives, counts = ragged_batch(rng, 16, 3, 5, 1)
            negs_same, n_same = negatives[:, 0], counts[:, 0]
        else:  # signed zeros, +-inf and a NaN in use; unused slots hold NaN
            inf, nan = np.inf, np.nan
            negs_same = np.array([
                [[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [nan] * 3, [nan] * 3],  # all -0.0, count < K
                [[0.0, -0.0, -0.0], [-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [nan] * 3],
                [[inf, -inf, 1.0], [2.0, inf, -inf], [3.0, 4.0, 5.0], [nan] * 3],  # inf - inf is NaN
                [[nan, 1.0, -0.0], [2.0, -0.0, -0.0], [nan] * 3, [nan] * 3],
                [[-0.0, inf, nan], [-0.0, -0.0, 1.0], [-0.0, 1.0, 2.0], [-0.0, -inf, -0.0]],
            ])
            n_same = np.array([2, 3, 3, 2, 4])
        with np.errstate(invalid="ignore"):  # inf - inf
            before = mean_embedding(negs_same, n_same)
            for i, k in enumerate(n_same):
                # reference: one set, each component sorted, summed left to right
                rows = np.sort(negs_same[i, :k], axis=0)
                running = rows[0]
                for r in rows[1:]:
                    running = running + r
                assert same_bits(before[i], running / k)
            shuffled = negs_same.copy()
            for i, k in enumerate(n_same):
                shuffled[i, :k] = shuffled[i, rng.permutation(k)]
            assert same_bits(mean_embedding(shuffled, n_same), before)
        if inputs == "special":  # -0.0 pads the unused slots: an all -0.0 set keeps its sign
            assert same_bits(before[0], np.full(3, -0.0))

    @pytest.mark.parametrize("inputs", ["random", "signed_zero"])
    def test_triplet_is_the_hinge_with_one_negative(self, inputs):
        # each hetero term is the triplet loss of that term, bit for bit, and
        # d_anchor is the sum of the two terms' triplet d_a, term 1 + term 2
        if inputs == "random":
            a, p1, p2, n1, n2 = np.random.default_rng(13).standard_normal((5, 50, 4))
        else:  # two -0.0 anchor gradients sum to -0.0; np.sum over the terms gives +0.0
            a = p1 = p2 = np.zeros((1, 1))
            n1 = n2 = np.full((1, 1), -0.0)
        margins = Margins(0.4, 0.3)
        val, d_a, d_p, d_n = hetero_loss_grad(a, np.stack([p1, p2], 1), np.stack([n1, n2], 1)[:, :, None],
                                              margins)
        terms = [triplet_loss_grad(a, p1, n1, margins.alpha1), triplet_loss_grad(a, p2, n2, margins.alpha2)]
        for t, (tv, t_da, t_dp, t_dn) in enumerate(terms):
            assert same_bits(val[:, t], tv)
            assert same_bits(d_p[:, t], t_dp)
            assert same_bits(d_n[:, t, 0], t_dn)
        assert same_bits(d_a, terms[0][1] + terms[1][1])
        assert {bool(x) for x in (val > 0).ravel()} == ({True, False} if inputs == "random" else {True})
        for i in range(len(a)):
            assert same_bits(terms[0][0][i], triplet_loss_grad(a[i], p1[i], n1[i], margins.alpha1)[0])

    def test_non_finite_embedding_gives_nan_not_zero(self):
        val = hetero(v(np.nan, 0), v(0, 0), v(0, 0), [v(1, 0)], [v(1, 0)], Margins())[0]
        assert np.isnan(val[0]) and np.isnan(val.sum())
        assert not val[0] > 0
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.isnan(triplet_loss_grad(v(np.inf), v(0.0), v(1.0), 0.4)[0])


def hinge_args(anchor, positives, negatives, counts, margins):
    """Raw (unclipped) argument of each hinge, for kink-proximity checks."""
    m = mean_embedding(negatives, counts)
    return [_sqdist(anchor, positives[t]) - _sqdist(anchor, m[t]) + alpha
            for t, alpha in enumerate((margins.alpha1, margins.alpha2))]
