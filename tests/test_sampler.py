import copy

import numpy as np
import pytest

from heteroembed.data import Dataset, Sample, SynthConfig, generate_synthetic, split_by_identity
from heteroembed.sampler import (
    InfeasibleError,
    SampledTuple,
    TupleSpec,
    build_index,
    epoch_tuples,
)


# These builders give each sample its row as its id, so the references' sorted ids
# are the sampler's rows.
def make_dataset(identities, domains, per_group):
    samples = []
    for ident in identities:
        for dom in domains:
            for _ in range(per_group):
                samples.append(Sample(len(samples), ident, dom, np.zeros(2)))
    return Dataset(samples=samples, feature_dim=2)


def add_samples(ds, identity, domain, n):
    for _ in range(n):
        ds.samples.append(Sample(len(ds.samples), identity, domain, np.zeros(2)))
    return ds


# --- reference: the materialised enumeration the table-driven draw replaced ---


def reference_groups(ds):
    """(identity, domain) -> sorted sample ids, grouped from the samples."""
    groups = {}
    for s in ds.samples:
        groups.setdefault((s.identity, s.domain), []).append(s.id)
    return {key: sorted(ids) for key, ids in groups.items()}


def reference_feasible(ds):
    """Every feasible (a, b, p, q) as one list, in draw order."""
    groups = reference_groups(ds)
    identities = sorted({s.identity for s in ds.samples})
    domains = sorted({s.domain for s in ds.samples})
    size = lambda ident, dom: len(groups.get((ident, dom), []))
    feasible = []
    for p, q in [(p, q) for p in domains for q in domains if p != q]:
        negatives = [b for b in identities if size(b, p) >= 1 and size(b, q) >= 1]
        anchors = [a for a in identities if size(a, p) >= 2 and size(a, q) >= 1]
        feasible += [(a, b, p, q) for a in anchors for b in negatives if b != a]
    return feasible


def reference_draws(ds, rng, spec, n):
    feasible, groups = reference_feasible(ds), reference_groups(ds)
    return [reference_compose(groups, rng, spec, *feasible[rng.integers(len(feasible))]) for _ in range(n)]


def missing_domain_dataset():
    ds = make_dataset(["a", "b", "c", "d"], ["0", "1"], 3)
    add_samples(ds, "e", "0", 4)  # no domain 1: neither anchor nor negative
    return add_samples(ds, "f", "1", 1)  # no domain 0


def anchors_and_negatives_dataset():
    # a, b: anchors (and negatives) both ways; c: anchor only for (0, 1);
    # d: 1 sample per domain, a negative only; e: 2 samples in 0 only
    ds = make_dataset(["a", "b"], ["0", "1"], 2)
    add_samples(add_samples(ds, "c", "0", 3), "c", "1", 1)
    add_samples(add_samples(ds, "d", "0", 1), "d", "1", 1)
    return add_samples(ds, "e", "0", 2)


def ragged_dataset():
    ds = Dataset(samples=[], feature_dim=2)
    for n, ident in enumerate(["a", "b", "c", "d", "e"]):
        add_samples(add_samples(ds, ident, "0", 2 + n), ident, "1", 1 + 2 * n)
    return ds


def one_pair_dataset():
    # only domain 1 holds >= 2 samples of an identity, so (1, 0) is the one
    # pair with anchors and the empty pair (0, 1) comes first in the table;
    # d: 1 sample per domain, a negative only
    ds = Dataset(samples=[], feature_dim=2)
    for ident in ["a", "b", "c"]:
        add_samples(add_samples(ds, ident, "0", 1), ident, "1", 3)
    return add_samples(add_samples(ds, "d", "0", 1), "d", "1", 1)


def sparse_dataset():
    # 200 identities, only 3 of them with domain B
    ids = [f"i{n:03d}" for n in range(200)]
    ds = make_dataset(ids, ["A"], 5)
    for ident in ids[:3]:
        add_samples(ds, ident, "B", 5)
    return ds


# case -> (make the dataset, spec)
REFERENCE_CASES = {
    "missing_domain": (missing_domain_dataset, TupleSpec(k=2)),
    "anchors_are_negatives": (anchors_and_negatives_dataset, TupleSpec(k=2)),
    "one_feasible_pair": (one_pair_dataset, TupleSpec(k=3)),
    "k_truncation": (ragged_dataset, TupleSpec(k=5)),
    "three_domains": (lambda: make_dataset(["a", "b", "c", "d"], ["x", "y", "z"], 3), TupleSpec(k=2)),
    "sparse_200": (sparse_dataset, TupleSpec()),
}


def check_tuple(tup, ds, spec):
    groups = reference_groups(ds)
    group = lambda ident, dom: groups.get((ident, dom), [])
    assert tup.identity_a != tup.identity_b
    assert tup.anchor != tup.pos_same
    group_ap = group(tup.identity_a, tup.domain_p)
    assert tup.anchor in group_ap and tup.pos_same in group_ap
    assert tup.pos_cross in group(tup.identity_a, tup.domain_q)
    assert tup.domain_p != tup.domain_q
    assert len(tup.negs_same) == min(spec.k, len(group(tup.identity_b, tup.domain_p)))
    assert len(tup.negs_cross) == min(spec.k, len(group(tup.identity_b, tup.domain_q)))
    assert len(set(tup.negs_same)) == len(tup.negs_same)
    for i in tup.negs_same:
        assert i in group(tup.identity_b, tup.domain_p)
    for i in tup.negs_cross:
        assert i in group(tup.identity_b, tup.domain_q)


class TestBuildIndex:
    def test_groups(self):
        # ids: a in 0 -> 0, 1; a in 1 -> 2, 3; b in 0 -> 4, 5; b in 1 -> 6, 7
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 2))
        assert index.pairs == [
            ("0", "1", ["a", "b"], [[0, 1], [4, 5]], [[2, 3], [6, 7]], [0, 1]),
            ("1", "0", ["a", "b"], [[2, 3], [6, 7]], [[0, 1], [4, 5]], [0, 1]),
        ]
        assert index.ends == [2, 4]
        assert index.identities == ["a", "b"]
        assert index.domains == ["0", "1"]

    def test_partial_identity(self):
        # b, with no sample in domain 1, is in no pair's table
        ds = make_dataset(["a"], ["0", "1"], 2)
        ds.samples.append(Sample(len(ds.samples), "b", "0", np.zeros(2)))
        index = build_index(ds)
        assert index.identities == ["a", "b"]
        assert [pair[2] for pair in index.pairs] == [["a"], ["a"]]
        assert index.ends == [0, 0]

    def test_anchors_and_negatives_table(self):
        # ids: a 0-3, b 4-7 (2 per domain); c in 0 -> 8, 9, 10, in 1 -> 11;
        # d in 0 -> 12, in 1 -> 13; e in 0 -> 14, 15 only, so in no pair
        index = build_index(anchors_and_negatives_dataset())
        p, q, negatives, in_p, in_q, anchors = index.pairs[0]
        assert (p, q, negatives, anchors) == ("0", "1", ["a", "b", "c", "d"], [0, 1, 2])
        assert in_p == [[0, 1], [4, 5], [8, 9, 10], [12]]
        assert in_q == [[2, 3], [6, 7], [11], [13]]
        p, q, negatives, in_p, in_q, anchors = index.pairs[1]
        assert (p, q, negatives, anchors) == ("1", "0", ["a", "b", "c", "d"], [0, 1])
        assert in_p == [[2, 3], [6, 7], [11], [13]]
        assert in_q == [[0, 1], [4, 5], [8, 9, 10], [12]]
        # 3 anchors x 3 other negatives, then 2 anchors x 3
        assert index.ends == [9, 15] and index.ends[-1] == len(reference_feasible(anchors_and_negatives_dataset()))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_index(Dataset(samples=[], feature_dim=2))

    def test_repeated_ids_rejected(self):
        ds = make_dataset(["a", "b"], ["0", "1"], 2)
        ds.samples[1].id = ds.samples[0].id
        with pytest.raises(ValueError, match="^sample ids must be distinct$"):
            build_index(ds)

    def test_rows_follow_sample_id_order(self):
        # One side of a split has ids that are not 0..n-1; reversing its list
        # puts them in decreasing order. The groups still run in id order, so
        # one seed draws the same samples from either list.
        full = generate_synthetic(SynthConfig(n_identities=10, samples_per_identity_per_domain=3,
                                              feature_dim=2, seed=0))
        side = split_by_identity(full, 0.5, 0)[1]
        reversed_side = Dataset(samples=side.samples[::-1], feature_dim=side.feature_dim)
        assert [s.id for s in side.samples] != list(range(len(side.samples)))
        ids = np.array([s.id for s in reversed_side.samples])
        for _, _, _, in_p, in_q, _ in build_index(reversed_side).pairs:
            for rows in in_p + in_q:
                assert (np.diff(ids[rows]) > 0).all()

        def drawn_samples(ds):
            ids = [s.id for s in ds.samples]
            tuples = epoch_tuples(build_index(ds), np.random.default_rng(4), TupleSpec(k=2), 300)
            return [(ids[t.anchor], ids[t.pos_same], ids[t.pos_cross], [ids[r] for r in t.negs_same],
                     [ids[r] for r in t.negs_cross], t.identity_a, t.identity_b, t.domain_p, t.domain_q)
                    for t in tuples]

        assert drawn_samples(reversed_side) == drawn_samples(side)


class TestSampleTuple:
    def test_minimal_index(self):
        ds = make_dataset(["a", "b"], ["0", "1"], 2)
        spec = TupleSpec(k=2)
        tup = epoch_tuples(build_index(ds), np.random.default_rng(0), spec, 1)[0]
        check_tuple(tup, ds, spec)
        assert len(tup.negs_same) == 2

    def test_k_truncation(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 3))
        spec = TupleSpec(k=5)
        tup = epoch_tuples(index, np.random.default_rng(1), spec, 1)[0]
        assert len(tup.negs_cross) == 3

    def test_single_identity_infeasible(self):
        index = build_index(make_dataset(["a"], ["0", "1"], 3))
        with pytest.raises(InfeasibleError):
            epoch_tuples(index, np.random.default_rng(0), TupleSpec(), 1)[0]

    def test_no_cross_domain_negative_infeasible(self):
        # b exists only in domain 0, so no negative is available in both domains
        ds = make_dataset(["a"], ["0", "1"], 3)
        ds.samples.append(Sample(len(ds.samples), "b", "0", np.zeros(2)))
        index = build_index(ds)
        with pytest.raises(InfeasibleError, match="negative identity"):
            epoch_tuples(index, np.random.default_rng(0), TupleSpec(), 1)[0]

    def test_invariants_over_many_draws(self):
        rng = np.random.default_rng(42)
        ds = make_dataset([f"i{n}" for n in range(6)], ["0", "1", "2"], 3)
        index = build_index(ds)
        spec = TupleSpec(k=3)
        for _ in range(2000):
            check_tuple(epoch_tuples(index, rng, spec, 1)[0], ds, spec)

    def test_sparse_index_draws_every_triple_evenly(self):
        # 200 identities, only 3 of them with domain B: the draw runs over the
        # feasible triples alone, so it reaches every one of them and none
        # dominates. 3 anchors x 2 other negatives x 2 domain orders = 12.
        index = build_index(sparse_dataset())
        tuples = epoch_tuples(index, np.random.default_rng(0), TupleSpec(), 2000)
        counts = {}
        for t in tuples:
            key = (t.identity_a, t.identity_b, t.domain_p, t.domain_q)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 12
        assert max(counts.values()) <= 0.15 * 2000


class TestReferenceDraw:
    """The table-driven draw returns exactly the materialised enumeration's tuples."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_epoch_tuples(self, case):
        make_ds, spec = REFERENCE_CASES[case]
        ds = make_ds()
        index = build_index(ds)
        for seed in range(3):
            # three epochs from one stream and one index, as `train` draws them
            rng = np.random.default_rng(seed)
            got = [t for _ in range(3) for t in epoch_tuples(index, rng, spec, 100)]
            assert got == reference_draws(ds, np.random.default_rng(seed), spec, 300)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_one_tuple_epochs(self, case):
        # epochs drawn from one stream continue it: an epoch draws nothing but its tuples
        make_ds, spec = REFERENCE_CASES[case]
        ds = make_ds()
        index = build_index(ds)
        rng = np.random.default_rng(7)
        got = [epoch_tuples(index, rng, spec, 1)[0] for _ in range(100)]
        assert got == reference_draws(ds, np.random.default_rng(7), spec, 100)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_every_feasible_triple_drawn(self, case):
        make_ds, spec = REFERENCE_CASES[case]
        ds = make_ds()
        feasible = reference_feasible(ds)
        assert len(set(feasible)) == len(feasible)
        tuples = epoch_tuples(build_index(ds), np.random.default_rng(0), spec, 40 * len(feasible))
        keys = {(t.identity_a, t.identity_b, t.domain_p, t.domain_q) for t in tuples}
        assert keys == set(feasible)
        for t in tuples:
            check_tuple(t, ds, spec)

    def test_dense_index_is_uniform(self):
        # every identity is an anchor in every pair: 6 pairs x 6 anchors x 5 negatives
        index = build_index(make_dataset([f"i{n}" for n in range(6)], ["0", "1", "2"], 3))
        n = 18_000
        tuples = epoch_tuples(index, np.random.default_rng(3), TupleSpec(k=2), n)
        counts = {}
        for t in tuples:
            key = (t.identity_a, t.identity_b, t.domain_p, t.domain_q)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 180
        expected = n / 180
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 179 + 5 * (2 * 179) ** 0.5  # 179 degrees of freedom, mean + 5 sd

    @pytest.mark.parametrize(
        "make_ds,message",
        [
            (lambda: make_dataset(["a"], ["0", "1"], 3), "fewer than 2 identities"),
            (lambda: make_dataset(["a", "b"], ["0"], 3), "no ordered domain pair"),
            (lambda: make_dataset(["a", "b"], ["0", "1"], 1), "no identity has >= 2 samples"),
            (lambda: add_samples(make_dataset(["a"], ["0", "1"], 3), "b", "0", 2), "no negative identity"),
        ],
    )
    def test_infeasible_messages(self, make_ds, message):
        index = build_index(make_ds())
        for draw in (lambda rng: epoch_tuples(index, rng, TupleSpec(), 1)[0],
                     lambda rng: epoch_tuples(index, rng, TupleSpec(), 5)):
            with pytest.raises(InfeasibleError, match=message):
                draw(np.random.default_rng(0))
        assert epoch_tuples(index, np.random.default_rng(0), TupleSpec(), 0) == []


class TestEpochTuples:
    def test_empty(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 2))
        assert epoch_tuples(index, np.random.default_rng(0), TupleSpec(), 0) == []

    def test_seed_determinism(self):
        index = build_index(make_dataset(["a", "b", "c"], ["0", "1"], 3))
        spec = TupleSpec(k=2)
        a = epoch_tuples(index, np.random.default_rng(5), spec, 50)
        b = epoch_tuples(index, np.random.default_rng(5), spec, 50)
        assert a == b

    def test_seed_sensitivity(self):
        index = build_index(make_dataset([f"i{n}" for n in range(10)], ["0", "1"], 3))
        spec = TupleSpec(k=2)
        a = epoch_tuples(index, np.random.default_rng(5), spec, 100)
        b = epoch_tuples(index, np.random.default_rng(6), spec, 100)
        assert a != b

    def test_domain_pair_frequencies_near_uniform(self):
        index = build_index(make_dataset([f"i{n}" for n in range(5)], ["0", "1", "2"], 3))
        rng = np.random.default_rng(11)
        tuples = epoch_tuples(index, rng, TupleSpec(k=2), 10_000)
        counts = {}
        for t in tuples:
            counts[(t.domain_p, t.domain_q)] = counts.get((t.domain_p, t.domain_q), 0) + 1
        expected = 1.0 / 6  # 6 ordered pairs of 3 domains
        for pair, n in counts.items():
            assert abs(n / 10_000 - expected) < 0.05, pair
        assert len(counts) == 6


# --- reference: group members as an index permutation mapped back to ids ---


def reference_members(rng, ids, n):
    return [ids[i] for i in rng.permutation(len(ids))[:n]]


def reference_compose(groups, rng, spec, a, b, p, q):
    anchor, pos_same = reference_members(rng, groups[a, p], 2)
    pos_cross = reference_members(rng, groups[a, q], 1)[0]
    neg_same, neg_cross = groups[b, p], groups[b, q]
    return SampledTuple(
        anchor, pos_same, pos_cross,
        reference_members(rng, neg_same, min(spec.k, len(neg_same))),
        reference_members(rng, neg_cross, min(spec.k, len(neg_cross))),
        a, b, p, q,
    )


class TestMemberDraw:
    """Members are drawn as the index-permutation reference draws them, on the same stream."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_epoch_tuples_match_reference(self, case):
        make_ds, spec = REFERENCE_CASES[case]
        ds = make_ds()
        index = build_index(ds)
        for seed in range(3):
            ref_rng = np.random.default_rng(seed)
            expected = reference_draws(ds, ref_rng, spec, 300)
            rng = np.random.default_rng(seed)
            assert epoch_tuples(index, rng, spec, 300) == expected
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_groups_unchanged(self, case):
        make_ds, spec = REFERENCE_CASES[case]
        index = build_index(make_ds())
        before = copy.deepcopy(index)
        epoch_tuples(index, np.random.default_rng(0), spec, 300)
        assert index == before


class TestTupleSpec:
    @pytest.mark.parametrize("k", [2.5, "4", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            TupleSpec(k=k)

    @pytest.mark.parametrize("k", [0, -1, np.int64(0)])
    def test_k_must_be_positive(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            TupleSpec(k=k)

    def test_numpy_integer_k(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 3))
        spec = TupleSpec(k=np.int64(2))
        tup = epoch_tuples(index, np.random.default_rng(0), spec, 1)[0]
        assert tup == epoch_tuples(index, np.random.default_rng(0), TupleSpec(k=2), 1)[0]
