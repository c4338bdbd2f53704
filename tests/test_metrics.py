import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed import metrics
from heteroembed.data import Dataset, Sample, save_manifest
from heteroembed.metrics import (
    ScoreSet,
    distance_matrix,
    eer,
    embed_dataset,
    gar_at_far,
    identify,
    roc,
    verification_scores,
    write_roc_csv,
)
from heteroembed.net import (
    ConfigError,
    NetConfig,
    ShapeError,
    _rows,
    backward,
    float_lines,
    forward_batch,
    init_net,
)
from heteroembed.train import TrainConfig, train

# Inputs that are not real numbers, each with the dtype numpy holds it in.
NOT_REAL_NUMBERS = [
    (["a"], "<U1"), ([1j], "complex128"), ([{}], "object"), (["0.5"], "<U3"), ([b"1"], "|S1"),
    ([True], "bool"), ([[0.1], [0.2, 0.3]], "object"),  # ragged
    ([10**30], "object"),  # a Python int beyond int64
]


# --- independent brute-force oracles ---------------------------------------


def brute_rates(genuine, impostor, threshold):
    far = np.mean(np.asarray(impostor) <= threshold)
    gar = np.mean(np.asarray(genuine) <= threshold)
    return far, gar


def brute_roc_points(genuine, impostor):
    thresholds = [-np.inf] + sorted(set(list(genuine) + list(impostor))) + [np.inf]
    return [(*brute_rates(genuine, impostor, t), t) for t in thresholds]


def brute_eer(genuine, impostor):
    pts = brute_roc_points(genuine, impostor)
    best = None
    for (f0, g0, _), (f1, g1, _) in zip(pts, pts[1:]):
        r0, r1 = 1 - g0, 1 - g1
        d0, d1 = f0 - r0, f1 - r1
        if d0 <= 0 <= d1:
            if d1 == d0:
                best = f1
            else:
                t = -d0 / (d1 - d0)
                best = f0 + t * (f1 - f0)
            break
    if best is None:
        best = pts[0][0] if pts[0][0] - (1 - pts[0][1]) >= 0 else pts[-1][0]
    return best


def brute_gar_at_far(genuine, impostor, far_level):
    pts = brute_roc_points(genuine, impostor)
    best = {}
    for f, g, _ in pts:
        best[f] = max(best.get(f, 0.0), g)
    fars = sorted(best)
    positive = [f for f in fars if f > 0]
    if positive and far_level < positive[0]:
        return best.get(0.0, best[fars[0]])
    return float(np.interp(far_level, fars, [best[f] for f in fars]))


def brute_cmc(dist, probe_ids, gallery_ids):
    n_probes, n_gallery = dist.shape
    hits = np.zeros(n_gallery)
    for i in range(n_probes):
        ranked = sorted(range(n_gallery), key=lambda j: (dist[i, j], j))
        for rank, j in enumerate(ranked, start=1):
            if gallery_ids[j] == probe_ids[i]:
                hits[rank - 1] += 1
                break
    return np.cumsum(hits) / n_probes


# --- reference: the curve at every threshold ---------------------------------
# The metrics as computed from the whole per-threshold curve. `eer` and
# `gar_at_far` read the same operating points from the two sorted score arrays
# and must agree with these bit for bit.


def sweep_curve(genuine, impostor):
    genuine, impostor = np.asarray(genuine, dtype=float), np.asarray(impostor, dtype=float)
    thresholds = np.concatenate(([-np.inf], np.unique(np.concatenate([genuine, impostor])), [np.inf]))
    gar = np.searchsorted(np.sort(genuine), thresholds, side="right") / genuine.size
    far = np.searchsorted(np.sort(impostor), thresholds, side="right") / impostor.size
    return far, gar, thresholds


def sweep_eer(far, gar):
    diff = far - (1.0 - gar)
    idx = int(np.searchsorted(diff, 0.0, side="left"))
    if idx == 0:
        return float(far[0])
    if idx == len(diff):
        return float(far[-1])
    d0, d1 = diff[idx - 1], diff[idx]
    if d1 == d0:
        return float(far[idx])
    t = -d0 / (d1 - d0)
    return float(far[idx - 1] + t * (far[idx] - far[idx - 1]))


def sweep_gar_at_far(far, gar, far_level):
    run_starts = np.ones(far.shape, dtype=bool)
    run_starts[1:] = far[1:] != far[:-1]
    starts = np.flatnonzero(run_starts)
    fars = far[starts]
    gars = np.maximum.reduceat(gar, starts)
    positive = fars[fars > 0]
    if positive.size and far_level < positive[0]:
        return float(gars[fars == 0.0][0]) if (fars == 0.0).any() else float(gars[0])
    return float(np.interp(far_level, fars, gars))


# --- embed / distance -------------------------------------------------------


class TestEmbedDataset:
    def test_empty(self):
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        assert embed_dataset(net, Dataset(samples=[], feature_dim=2)).shape == (0, 2)

    def test_identity_weights(self):
        net = init_net(NetConfig(input_dim=2, hidden_dims=(), embed_dim=2, normalize_output=False), 0)
        net.weights[0][...] = np.eye(2)
        ds = Dataset(samples=[Sample(0, "a", "A", np.array([1.0, 2.0]))], feature_dim=2)
        out = embed_dataset(net, ds)
        np.testing.assert_array_equal(out[0], [1.0, 2.0])

    def test_deterministic(self):
        net = init_net(NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2), 1)
        rng = np.random.default_rng(2)
        ds = Dataset(
            samples=[Sample(i, "a", "A", rng.standard_normal(3)) for i in range(5)],
            feature_dim=3,
        )
        a = embed_dataset(net, ds)
        b = embed_dataset(net, ds)
        assert np.array_equal(a, b)

    def test_rows_in_sample_order(self):
        net = init_net(NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2), 1)
        rng = np.random.default_rng(3)
        ds = Dataset(
            samples=[Sample(i, "a", "A", rng.standard_normal(3)) for i in (7, 2, 5)],
            feature_dim=3,
        )
        out = embed_dataset(net, ds)
        assert out.shape == (3, 2)
        for row, s in enumerate(ds.samples):  # one row alone may round differently from the batch
            np.testing.assert_allclose(out[row], forward_batch(net, s.features[None])[0], rtol=1e-12)

    def test_dim_mismatch(self):
        # the one width check is forward_batch's
        net = init_net(NetConfig(input_dim=3, embed_dim=2), 0)
        ds = Dataset(samples=[Sample(0, "a", "A", np.zeros(2))], feature_dim=2)
        with pytest.raises(ShapeError) as info:
            embed_dataset(net, ds)
        assert str(info.value) == "input dim 2 != config input_dim 3"


class TestDistanceMatrix:
    def test_basic(self):
        d = distance_matrix(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(d, [[0.0, 25.0]])

    def test_self_symmetric(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        d = distance_matrix(x, x)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((1, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("probes,gallery", [((2, 2, 2), (2, 2, 2)), ((3, 2), (2, 2, 2)),
                                                ((2, 1, 2), (3, 2)), ((3, 2), (3, 4))])
    def test_shapes_refused(self, probes, gallery):
        with pytest.raises(ShapeError) as info:
            distance_matrix(np.zeros(probes), np.zeros(gallery))
        assert str(info.value) == f"probes {probes} and gallery {gallery} must be 2-D with equal dims"

    def test_one_dimensional_input_is_one_row(self):
        d = distance_matrix(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert d.tolist() == [[25.0]]

    @staticmethod
    def broadcast_form(p, g):
        diff = p[:, None, :] - g[None, :, :]  # reference: the full (P, G, D) tensor
        return np.einsum("ijk,ijk->ij", diff, diff)

    @pytest.mark.parametrize("shape", [(5, 7, 1), (9, 4, 8), (30, 25, 32), (11, 13, 33)])
    def test_within_the_stated_bound_of_the_broadcast_form(self, shape):
        rng = np.random.default_rng(sum(shape))
        p = rng.standard_normal(shape[::2]) * 10.0 ** rng.uniform(-3, 3, size=(shape[0], 1))
        g = rng.standard_normal(shape[1:]) * 10.0 ** rng.uniform(-3, 3, size=(shape[1], 1))
        g[: shape[1] // 2] = p[: shape[1] // 2] + 1e-6 * g[: shape[1] // 2]  # near-identical rows cancel
        bound = 8 * shape[2] * np.finfo(float).eps * (np.sum(p * p, axis=1)[:, None] + np.sum(g * g, axis=1))
        assert (np.abs(distance_matrix(p, g) - self.broadcast_form(p, g)) <= bound).all()

    @pytest.mark.parametrize("shape", [(5, 7, 1), (9, 4, 8), (30, 25, 32), (11, 13, 33)])
    def test_bit_identical_to_broadcast_form_on_small_integers(self, shape):
        rng = np.random.default_rng(sum(shape))
        p, g = (rng.integers(-8, 9, size=s).astype(float) for s in (shape[::2], shape[1:]))
        g[0] = p[0]  # a zero distance
        assert distance_matrix(p, g).tobytes() == self.broadcast_form(p, g).tobytes()

    @pytest.mark.parametrize("shape", [(1, 129, 33), (7, 9, 32), (16, 700, 8), (200, 700, 2)])
    def test_equal_gallery_rows_agree_within_the_stated_bound(self, shape):
        # equal rows first, in the middle, last and past 4- and 8-column tile edges: a BLAS product
        # may round each position's dot product its own way, so they need not be bit-equal
        rng = np.random.default_rng(sum(shape))
        p = rng.standard_normal(shape[::2]) * 10.0 ** rng.uniform(-3, 3, size=(shape[0], 1))
        g = rng.standard_normal(shape[1:]) * 10.0 ** rng.uniform(-3, 3, size=(shape[1], 1))
        at = sorted({j for j in (0, 4, 8, 9, 17, shape[1] // 2, shape[1] - 1) if j < shape[1]})
        g[at] = g[0]
        d = distance_matrix(p, g)
        bound = 8 * shape[2] * np.finfo(float).eps * (np.sum(p * p, axis=1) + np.sum(g[0] * g[0]))
        assert (np.abs(d[:, at] - d[:, :1]) <= 2 * bound[:, None]).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_and_near_identical_rows_are_not_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 32))
        p = x / np.linalg.norm(x, axis=1, keepdims=True) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
        g = np.concatenate([p, np.nextafter(p, np.inf), p * (1 + 1e-12 * rng.standard_normal(p.shape))])
        d = distance_matrix(p, g)
        assert not np.signbit(d).any()  # no negative entry, and no -0.0
        assert (np.diag(d) <= 8 * 32 * np.finfo(float).eps * 2 * np.sum(p * p, axis=1)).all()


# --- identification ---------------------------------------------------------


class TestIdentify:
    def test_perfect(self):
        dist = np.array([[0.1, 0.9], [0.8, 0.2]])
        report = identify(dist, ["a", "b"], ["a", "b"])
        assert report.rank1 == 1.0

    def test_tie_break_lower_index(self):
        dist = np.array([[0.5, 0.5]])
        report = identify(dist, ["right"], ["wrong", "right"])
        assert report.rank_accuracies[0] == 0.0
        assert report.rank_accuracies[1] == 1.0

    @pytest.mark.parametrize("n_gallery", [0, 3])
    def test_no_probes_refused(self, n_gallery):
        with pytest.raises(ValueError, match="no probes"):
            identify(np.zeros((0, n_gallery)), [], ["a", "b", "a"][:n_gallery])

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2), (2, 2, 1)])
    def test_matrix_not_matching_the_labels_refused(self, shape):
        with pytest.raises(ShapeError) as info:
            identify(np.zeros(shape), ["a", "b"], ["a", "b"])
        assert str(info.value) == "distance matrix does not match label lists"

    def test_strict_missing_identity(self):
        with pytest.raises(ValueError) as info:
            identify(np.array([[0.1]]), ["ghost"], ["a"])
        assert str(info.value) == "probe identity 'ghost' has no sample in the gallery"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gallery_ids = [f"g{i}" for i in rng.integers(0, 15, size=50)]
            probe_ids = [gallery_ids[i] for i in rng.integers(0, 50, size=20)]
            dist = rng.random((20, 50))
            report = identify(dist, probe_ids, gallery_ids)
            np.testing.assert_array_equal(
                report.rank_accuracies, brute_cmc(dist, probe_ids, gallery_ids)
            )

    def test_ties_and_inf_rank_as_a_stable_sort(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            gallery_ids = [f"g{i}" for i in rng.integers(0, 4, size=12)]
            probe_ids = [gallery_ids[i] for i in rng.integers(0, 12, size=6)]
            dist = rng.choice([0.0, -0.0, 1.0, 2.0, np.inf], size=(6, 12))
            # reference: each row in np.argsort's stable order, first genuine entry
            hits = np.zeros(12)
            for i, row in enumerate(dist):
                labels = np.array(gallery_ids)[np.argsort(row, kind="stable")]
                hits[np.flatnonzero(labels == probe_ids[i])[0]] += 1
            cmc = identify(dist, probe_ids, gallery_ids).rank_accuracies
            np.testing.assert_array_equal(cmc, np.cumsum(hits) / 6)

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_nan_distance_refused(self, monkeypatch, block):
        monkeypatch.setattr(metrics, "BLOCK", block)  # the check runs in every probe block
        dist = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, np.nan]])
        with pytest.raises(ValueError, match="NaN distance for probe 2"):
            identify(dist, ["a", "b", "a"], ["a", "b"])

    def test_monotone_cmc(self):
        rng = np.random.default_rng(9)
        gallery_ids = [f"g{i}" for i in range(10)]
        probe_ids = [gallery_ids[i] for i in rng.integers(0, 10, size=30)]
        report = identify(rng.random((30, 10)), probe_ids, gallery_ids)
        assert np.all(np.diff(report.rank_accuracies) >= 0)
        assert report.rank_accuracies[-1] == 1.0


class TestLabelsMatchByEquality:
    """`identify` and `verification_scores` pair labels as `==` does, the CLI's label check's rule."""

    DIST = np.array([[0.0, 1.0], [1.0, 0.0]])

    def test_int_never_matches_its_string(self):
        with pytest.raises(ValueError, match="probe identity 1 has no sample in the gallery"):
            identify(self.DIST, [1, 2], ["1", "2"])
        with pytest.raises(ValueError, match="genuine and impostor sets must be nonempty"):
            verification_scores(self.DIST, [1, 2], ["1", "2"])  # no pair is genuine

    def test_bool_never_matches_its_string(self):
        probes, gallery = [True, "True"], ["True", True]
        np.testing.assert_array_equal(identify(self.DIST, probes, gallery).rank_accuracies, [0.0, 1.0])
        scores = verification_scores(self.DIST, probes, gallery)
        np.testing.assert_array_equal(scores.genuine, [1.0, 1.0])
        np.testing.assert_array_equal(scores.impostor, [0.0, 0.0])

    def test_tuple_labels(self):
        probes, gallery = [("a", 1), ("b", 2)], [("b", 2), ("a", 1)]
        np.testing.assert_array_equal(identify(self.DIST, probes, gallery).rank_accuracies, [0.0, 1.0])
        scores = verification_scores(self.DIST, probes, gallery)
        np.testing.assert_array_equal(scores.genuine, [1.0, 1.0])
        np.testing.assert_array_equal(scores.impostor, [0.0, 0.0])

    def test_mixed_hashable_labels_match_brute_force(self):
        # 1, 1.0 and True are equal, and so are (1,) and (True,); "1", None and 2 match only themselves
        pool = [1, 1.0, True, "1", None, 2, (1,), (True,), ("a", 1), frozenset({3})]
        rng = np.random.default_rng(22)
        for _ in range(20):
            gallery_ids = [pool[i] for i in rng.integers(0, len(pool), size=9)]
            probe_ids = [gallery_ids[i] for i in rng.integers(0, 9, size=6)]
            dist = rng.choice([0.0, 1.0, 2.0, 3.0], size=(6, 9))
            np.testing.assert_array_equal(identify(dist, probe_ids, gallery_ids).rank_accuracies,
                                          brute_cmc(dist, probe_ids, gallery_ids))
            same = np.array([[p == g for g in gallery_ids] for p in probe_ids])
            scores = verification_scores(dist, probe_ids, gallery_ids)
            assert scores.genuine.tobytes() == np.sort(dist[same]).tobytes()
            assert scores.impostor.tobytes() == np.sort(dist[~same]).tobytes()


# --- verification -----------------------------------------------------------


class TestScoreSet:
    """Any `ScoreSet` is valid input to the ROC reads: it is sorted when built."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_arrays_give_the_sorted_results(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        genuine = np.round(rng.random(40), 1)  # ties, and values shared with the impostors
        impostor = np.round(rng.random(60) + 0.2, 1)
        ordered = ScoreSet(genuine=np.sort(genuine), impostor=np.sort(impostor))
        shuffled = ScoreSet(genuine=rng.permutation(genuine), impostor=rng.permutation(impostor))
        assert eer(shuffled) == eer(ordered)
        for level in (0.001, 0.1, 0.25):
            assert gar_at_far(shuffled, level) == gar_at_far(ordered, level)
        for got, want in zip(shuffled.points(), ordered.points()):
            assert got.tobytes() == want.tobytes()
        write_roc_csv(ordered, tmp_path / "ordered.csv")
        write_roc_csv(shuffled, tmp_path / "shuffled.csv")
        assert (tmp_path / "shuffled.csv").read_bytes() == (tmp_path / "ordered.csv").read_bytes()

    def test_unsorted_lists_are_read_in_order(self):
        scores = ScoreSet(genuine=[0.3, 0.1, 0.2], impostor=[0.9, 0.15, 0.5, 0.05])
        assert gar_at_far(scores, 0.25) == pytest.approx(1 / 3)
        assert scores.genuine.dtype == np.float64
        np.testing.assert_array_equal(scores.impostor, [0.05, 0.15, 0.5, 0.9])

    def test_sorted_float64_arrays_are_held_without_a_copy(self):
        genuine, impostor = np.array([0.1, 0.2]), np.array([0.9, 0.15, 0.5])
        scores = ScoreSet(genuine=genuine, impostor=impostor)
        assert np.shares_memory(scores.genuine, genuine)
        assert not np.shares_memory(scores.impostor, impostor)
        np.testing.assert_array_equal(impostor, [0.9, 0.15, 0.5])  # the caller's array is not sorted in place

    @pytest.mark.parametrize("side", ["genuine", "impostor"])
    @pytest.mark.parametrize("shape", [(2, 2), (), (1, 1, 3)])
    def test_scores_not_one_dimensional_refused(self, side, shape):
        sets = {"genuine": np.array([0.1, 0.2]), "impostor": np.array([0.5])}
        sets[side] = np.ones(shape)
        with pytest.raises(ShapeError) as info:
            ScoreSet(**sets)
        assert str(info.value) == f"{side} scores must be 1-D, got shape {shape}"

    @pytest.mark.parametrize("side", ["genuine", "impostor"])
    @pytest.mark.parametrize("scores,dtype", NOT_REAL_NUMBERS)
    def test_scores_not_real_numbers_refused(self, side, scores, dtype):
        sets = {"genuine": [0.1, 0.2], "impostor": [0.5]}
        sets[side] = scores
        with pytest.raises(ValueError) as info:
            ScoreSet(**sets)
        assert str(info.value) == f"{side} scores must be real numbers, got dtype {dtype}"

    @pytest.mark.parametrize("genuine,message", [
        ([], "genuine and impostor sets must be nonempty"), ([np.nan], "NaN genuine score"),
    ])
    def test_each_array_is_checked_whole_before_the_next(self, genuine, message):
        # real numbers, 1-D, nonempty, no NaN: genuine's fault is named before impostor's strings
        with pytest.raises(ValueError) as info:
            ScoreSet(genuine, ["a"])
        assert str(info.value) == message


# One sample whose features are `values`: the dataset each features entry is given.
def one_sample(values) -> Dataset:
    return Dataset(samples=[Sample(0, "s0", "A", values)], feature_dim=len(values))


RULE_NET = init_net(NetConfig(input_dim=1, embed_dim=2), 0)
# Each entry that takes caller numbers, the argument `values` stands for, and the name it refuses them by.
REAL_NUMBER_ENTRIES = {
    "forward_batch.inputs": (lambda values, path: forward_batch(RULE_NET, values), "inputs"),
    "backward.inputs": (lambda values, path: backward(RULE_NET, values, np.zeros((1, 2))), "inputs"),
    "backward.gradients": (lambda values, path: backward(RULE_NET, np.zeros((1, 1)), values), "gradients"),
    "distance_matrix.probes": (lambda values, path: distance_matrix(values, np.zeros((1, 1))), "probes"),
    "distance_matrix.gallery": (lambda values, path: distance_matrix(np.zeros((1, 1)), values), "gallery"),
    "identify.distances": (lambda values, path: identify(values, ["a"], ["a"]), "distances"),
    "verification_scores.distances": (lambda values, path: verification_scores(values, ["a"], ["a"]), "distances"),
    "embed_dataset.features": (lambda values, path: embed_dataset(RULE_NET, one_sample(values)), "features"),
    "train.features": (
        lambda values, path: train(one_sample(values), TrainConfig(net=NetConfig(len(values)), epochs=1)),
        "features",
    ),
    "save_manifest.features": (lambda values, path: save_manifest(one_sample(values), path), "features"),
    "float_lines.rows": (lambda values, path: float_lines(["p "], values), "rows"),
}


class TestRealNumberRule:
    """Every entry that takes caller numbers converts them by `net.real_array`, so refuses the same inputs."""

    @pytest.mark.parametrize("entry", list(REAL_NUMBER_ENTRIES))
    @pytest.mark.parametrize("values,dtype", NOT_REAL_NUMBERS)
    def test_not_real_numbers_refused_at_every_entry(self, tmp_path, entry, values, dtype):
        call, name = REAL_NUMBER_ENTRIES[entry]
        path = tmp_path / "d.hem"
        with pytest.raises(ValueError) as info:
            call(values, path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{name} must be real numbers, got dtype {dtype}"
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.int32, np.float32, np.float16])
    def test_real_inputs_give_their_float64_copies_results(self, tmp_path, dtype):
        x = (np.random.default_rng(3).standard_normal((5, 3)) * 40).astype(dtype)
        x64 = x.astype(np.float64)
        net = init_net(NetConfig(input_dim=3, hidden_dims=(4,), embed_dim=2), 0)
        assert forward_batch(net, x).tobytes() == forward_batch(net, x64).tobytes()
        assert distance_matrix(x, x[:2]).tobytes() == distance_matrix(x64, x64[:2]).tobytes()
        for name, rows in (("given", x), ("float64", x64)):
            samples = [Sample(i, f"s{i}", "A", row) for i, row in enumerate(rows)]
            save_manifest(Dataset(samples=samples, feature_dim=3), tmp_path / f"{name}.hem")
        assert (tmp_path / "given.hem").read_bytes() == (tmp_path / "float64.hem").read_bytes()

    def test_float64_batch_passes_through_as_the_callers_array(self):
        batch = np.zeros((4, 3))
        assert _rows(batch, "input", "input_dim", 3) is batch


class TestRoc:
    def test_returns_its_argument(self):
        scores = ScoreSet(genuine=np.array([0.3, 0.1]), impostor=np.array([0.9, 0.2]))
        assert roc(scores) is scores

    def test_returns_the_sorted_score_set(self):
        curve = roc(ScoreSet(genuine=np.array([0.3, 0.1]), impostor=np.array([0.9, 0.2])))
        assert isinstance(curve, ScoreSet)
        np.testing.assert_array_equal(curve.genuine, [0.1, 0.3])
        np.testing.assert_array_equal(curve.impostor, [0.2, 0.9])

    def test_separable(self):
        curve = roc(ScoreSet(genuine=np.array([0.1]), impostor=np.array([0.9])))
        far, gar, threshold = curve.points()
        hit = [(f, g) for f, g, t in zip(far, gar, threshold) if t == 0.1]
        assert hit == [(0.0, 1.0)]
        assert far[0] == 0.0 and far[-1] == 1.0

    def test_identical_distributions_on_diagonal(self):
        vals = np.array([0.1, 0.4, 0.7])
        far, gar, _ = roc(ScoreSet(genuine=vals, impostor=vals.copy())).points()
        np.testing.assert_array_equal(far, gar)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        genuine = rng.random(100)
        impostor = rng.random(100)
        far, gar, threshold = roc(ScoreSet(genuine=genuine, impostor=impostor)).points()
        expected = brute_roc_points(genuine, impostor)
        assert len(far) == len(expected)
        for (f, g, t), cf, cg, ct in zip(expected, far, gar, threshold):
            assert abs(cf - f) < 1e-12 and abs(cg - g) < 1e-12
            assert ct == t

    @pytest.mark.parametrize("side", ["genuine", "impostor", "both"])
    def test_empty_score_set_refused(self, side):
        sets = {"genuine": np.array([0.1]), "impostor": np.array([0.9])}
        for name in sets if side == "both" else [side]:
            sets[name] = np.array([])
        with pytest.raises(ValueError) as info:
            roc(ScoreSet(**sets))
        assert str(info.value) == "genuine and impostor sets must be nonempty"

    @pytest.mark.parametrize("side", ["genuine", "impostor"])
    @pytest.mark.parametrize("scores", [[np.nan], [0.1, 0.2, np.nan], [np.nan, -np.inf, np.inf]])
    def test_nan_score_refused(self, side, scores):
        sets = {"genuine": np.array([0.1, 0.2]), "impostor": np.array([0.15, 0.5, 0.9])}
        sets[side] = np.array(scores)
        with pytest.raises(ValueError, match=f"NaN {side} score"):
            roc(ScoreSet(**sets))

    def test_monotone(self):
        rng = np.random.default_rng(11)
        far, gar, _ = roc(ScoreSet(genuine=rng.random(50), impostor=rng.random(80) + 0.2)).points()
        assert np.all(np.diff(far) >= 0)
        assert np.all(np.diff(gar) >= 0)


class TestEer:
    def test_separable_zero(self):
        curve = roc(ScoreSet(genuine=np.array([0.1, 0.2]), impostor=np.array([0.8, 0.9])))
        assert eer(curve) == 0.0

    def test_identical_half(self):
        vals = np.array([0.1, 0.4, 0.7, 0.9])
        curve = roc(ScoreSet(genuine=vals, impostor=vals.copy()))
        assert eer(curve) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        genuine = [0.1, 0.3, 0.5, 0.7]
        impostor = [0.4, 0.6, 0.8, 1.0]
        curve = roc(ScoreSet(genuine=np.array(genuine), impostor=np.array(impostor)))
        assert eer(curve) == pytest.approx(brute_eer(genuine, impostor), abs=1e-12)

    def test_random_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            genuine = rng.random(rng.integers(2, 40))
            impostor = rng.random(rng.integers(2, 40)) + rng.random() * 0.5
            curve = roc(ScoreSet(genuine=genuine, impostor=impostor))
            assert eer(curve) == pytest.approx(brute_eer(list(genuine), list(impostor)), abs=1e-12)


class TestGarAtFar:
    def test_separable(self):
        curve = roc(ScoreSet(genuine=np.array([0.1]), impostor=np.array([0.9])))
        assert gar_at_far(curve, 0.001) == 1.0

    def test_accept_all(self):
        rng = np.random.default_rng(13)
        curve = roc(ScoreSet(genuine=rng.random(20), impostor=rng.random(20)))
        assert gar_at_far(curve, 1.0) == 1.0

    @pytest.mark.parametrize("level, message", [
        (1.5, "far_level must lie in [0, 1], got 1.5"),
        (-0.1, "far_level must lie in [0, 1], got -0.1"),
        (float("nan"), "far_level must lie in [0, 1], got nan"),
        (True, "far_level must be a real number, got True"),
        ("0.1", "far_level must be a real number, got '0.1'"),
    ], ids=["above", "below", "nan", "bool", "string"])
    def test_out_of_range(self, level, message):
        curve = roc(ScoreSet(genuine=np.array([0.1]), impostor=np.array([0.9])))
        with pytest.raises(ConfigError) as info:
            gar_at_far(curve, level)
        assert str(info.value) == message

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        genuine = rng.random(100)
        impostor = rng.random(100) + 0.1
        curve = roc(ScoreSet(genuine=genuine, impostor=impostor))
        for level in (0.001, 0.01, 0.1, 0.5):
            assert gar_at_far(curve, level) == pytest.approx(
                brute_gar_at_far(list(genuine), list(impostor), level), abs=1e-12
            )

    def test_unsorted_repeated_far_matches_brute_force(self):
        rng = np.random.default_rng(17)
        genuine = np.round(rng.random(40), 1)  # ties give repeated FAR values
        impostor = np.round(rng.random(60) + 0.2, 1)
        curve = roc(ScoreSet(genuine=rng.permutation(genuine), impostor=rng.permutation(impostor)))
        assert np.unique(curve.far).size < curve.far.size
        for level in (0.0, 0.001, 0.05, 0.1, 0.37, 1.0):
            assert gar_at_far(curve, level) == pytest.approx(
                brute_gar_at_far(list(genuine), list(impostor), level), abs=1e-12
            )

    def test_sorted_and_shuffled_curves_agree(self):
        rng = np.random.default_rng(18)
        genuine = np.round(rng.random(40), 1)
        impostor = np.round(rng.random(60), 1)  # shares values with the genuine scores
        ordered = roc(ScoreSet(genuine=np.sort(genuine), impostor=np.sort(impostor)))
        shuffled = roc(ScoreSet(genuine=rng.permutation(genuine), impostor=rng.permutation(impostor)))
        assert np.unique(ordered.far).size < ordered.far.size
        for level in (0.0, 0.001, 0.05, 0.1, 0.37, 1.0):
            assert gar_at_far(ordered, level) == gar_at_far(shuffled, level)
            assert gar_at_far(shuffled, level) == pytest.approx(
                brute_gar_at_far(list(genuine), list(impostor), level), abs=1e-12
            )

    def test_monotone_in_level(self):
        rng = np.random.default_rng(15)
        curve = roc(ScoreSet(genuine=rng.random(50), impostor=rng.random(50)))
        values = [gar_at_far(curve, lv) for lv in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# Scores from a small pool give ties, shared genuine/impostor values and the
# sweep's own -inf/+inf; other draws fall between the pool's values.
SCORES = st.lists(
    st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 1.0, 2.0, np.inf]) | st.floats(0.0, 3.0),
    min_size=1, max_size=30,
)
LEVELS = (0.0, 0.001, 0.01, 0.1, 0.25, 1 / 3, 0.37, 0.5, 1.0)


class TestAgainstTheSweep:
    @settings(max_examples=400, deadline=None)
    @given(genuine=SCORES, impostor=SCORES)
    def test_eer_and_gar_bit_identical(self, genuine, impostor):
        curve = roc(ScoreSet(genuine=np.array(genuine), impostor=np.array(impostor)))
        far, gar, threshold = sweep_curve(genuine, impostor)
        assert eer(curve) == sweep_eer(far, gar)
        for level in LEVELS:
            assert gar_at_far(curve, level) == sweep_gar_at_far(far, gar, level)
        for got, want in zip(curve.points(), (far, gar, threshold)):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(genuine=SCORES, impostor=SCORES)
    def test_points_never_fall(self, genuine, impostor):
        far, gar, threshold = roc(ScoreSet(genuine=np.array(genuine), impostor=np.array(impostor))).points()
        for values in (threshold, far, gar):
            assert (values[1:] >= values[:-1]).all()

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_roc_csv_bytes(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(metrics, "BLOCK", block)  # rows are written a block at a time
        rng = np.random.default_rng(19)
        genuine = np.round(rng.random(30), 1)
        impostor = np.round(rng.random(50) + 0.3, 1)
        write_roc_csv(roc(ScoreSet(genuine=genuine, impostor=impostor)), tmp_path / "roc.csv")
        expected = "far,gar,threshold\n" + "".join(
            f"{f:.9g},{g:.9g},{t:.9g}\n" for f, g, t in brute_roc_points(genuine, impostor)
        )
        assert (tmp_path / "roc.csv").read_bytes() == expected.encode()

    def test_scores_come_back_sorted_and_are_not_copied(self):
        rng = np.random.default_rng(20)
        gallery_ids = [f"g{i}" for i in rng.integers(0, 5, size=30)]
        probe_ids = [gallery_ids[i] for i in rng.integers(0, 30, size=12)]
        dist = np.round(rng.random((12, 30)), 2)
        scores = verification_scores(dist, probe_ids, gallery_ids)
        same = np.array(probe_ids)[:, None] == np.array(gallery_ids)[None, :]
        assert scores.genuine.tobytes() == np.sort(dist[same]).tobytes()
        assert scores.impostor.tobytes() == np.sort(dist[~same]).tobytes()
        curve = roc(scores)
        assert curve.genuine is scores.genuine and curve.impostor is scores.impostor

    def test_every_block_size_gives_the_same_results(self, monkeypatch):
        rng = np.random.default_rng(21)
        gallery_ids = ["a", "b", "a", "c", "b"]  # repeated labels
        probe_ids = [gallery_ids[i] for i in rng.integers(0, 5, size=7)]
        dist = rng.choice([0.0, -0.0, 1.0, 2.0, np.inf], size=(7, 5))  # ties, signed zeros and inf

        def results(block):
            monkeypatch.setattr(metrics, "BLOCK", block)
            scores = verification_scores(dist, probe_ids, gallery_ids)
            cmc = identify(dist, probe_ids, gallery_ids).rank_accuracies
            return [a.tobytes() for a in (cmc, scores.genuine, scores.impostor)]

        expected = results(1 << 16)
        for block in (1, 4, 5, 6, 15, 35):  # 1, G - 1, G, G + 1, 3G and P * G entries
            assert results(block) == expected, block


class TestScaleConsistency:
    def test_reports_unchanged_by_positive_scaling(self):
        rng = np.random.default_rng(16)
        gallery_ids = [f"g{i}" for i in range(8)]
        probe_ids = [gallery_ids[i] for i in rng.integers(0, 8, size=25)]
        dist = rng.random((25, 8))
        for transform in (lambda d: 3.7 * d, np.sqrt):
            d2 = transform(dist)
            r1 = identify(dist, probe_ids, gallery_ids)
            r2 = identify(d2, probe_ids, gallery_ids)
            np.testing.assert_array_equal(r1.rank_accuracies, r2.rank_accuracies)
            s1 = verification_scores(dist, probe_ids, gallery_ids)
            s2 = verification_scores(d2, probe_ids, gallery_ids)
            c1, c2 = roc(s1), roc(s2)
            assert eer(c1) == pytest.approx(eer(c2), abs=1e-12)
            for lv in (0.001, 0.1):
                assert gar_at_far(c1, lv) == pytest.approx(gar_at_far(c2, lv), abs=1e-12)
