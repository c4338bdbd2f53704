import copy

import numpy as np
import pytest

from heteroembed.data import Dataset, Sample
from heteroembed.sampler import (
    InfeasibleError,
    SampledTuple,
    TupleSpec,
    _compose,
    build_index,
    epoch_tuples,
)


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


def reference_feasible(index):
    """Every feasible (a, b, p, q) as one list, in draw order."""
    pairs = [(p, q) for p in index.domains for q in index.domains if p != q]
    feasible = []
    for p, q in pairs:
        negatives = [b for b in index.identities
                     if len(index.group(b, p)) >= 1 and len(index.group(b, q)) >= 1]
        anchors = [a for a in index.identities
                   if len(index.group(a, p)) >= 2 and len(index.group(a, q)) >= 1]
        feasible += [(a, b, p, q) for a in anchors for b in negatives if b != a]
    return feasible


def reference_draws(index, rng, spec, n):
    feasible = reference_feasible(index)
    tuples = []
    for _ in range(n):
        a, b, p, q = feasible[rng.integers(len(feasible))]
        tuples.append(_compose(index, rng, spec, a, b, p, q))
    return tuples


def missing_domain_index():
    ds = make_dataset(["a", "b", "c", "d"], ["0", "1"], 3)
    add_samples(ds, "e", "0", 4)  # no domain 1: neither anchor nor negative
    add_samples(ds, "f", "1", 1)  # no domain 0
    return build_index(ds)


def anchors_and_negatives_index():
    # a, b: anchors (and negatives) both ways; c: anchor only for (0, 1);
    # d: 1 sample per domain, a negative only; e: 2 samples in 0 only
    ds = make_dataset(["a", "b"], ["0", "1"], 2)
    add_samples(add_samples(ds, "c", "0", 3), "c", "1", 1)
    add_samples(add_samples(ds, "d", "0", 1), "d", "1", 1)
    return build_index(add_samples(ds, "e", "0", 2))


def ragged_index():
    ds = Dataset(samples=[], feature_dim=2)
    for n, ident in enumerate(["a", "b", "c", "d", "e"]):
        add_samples(add_samples(ds, ident, "0", 2 + n), ident, "1", 1 + 2 * n)
    return build_index(ds)


def one_pair_index():
    # only domain 1 holds >= 2 samples of an identity, so (1, 0) is the one
    # pair with anchors and the empty pair (0, 1) comes first in the table;
    # d: 1 sample per domain, a negative only
    ds = Dataset(samples=[], feature_dim=2)
    for ident in ["a", "b", "c"]:
        add_samples(add_samples(ds, ident, "0", 1), ident, "1", 3)
    return build_index(add_samples(add_samples(ds, "d", "0", 1), "d", "1", 1))


def sparse_index():
    # 200 identities, only 3 of them with domain B
    ids = [f"i{n:03d}" for n in range(200)]
    ds = make_dataset(ids, ["A"], 5)
    for ident in ids[:3]:
        add_samples(ds, ident, "B", 5)
    return build_index(ds)


REFERENCE_CASES = {
    "missing_domain": (missing_domain_index, TupleSpec(k=2)),
    "anchors_are_negatives": (anchors_and_negatives_index, TupleSpec(k=2)),
    "one_feasible_pair": (one_pair_index, TupleSpec(k=3)),
    "k_truncation": (ragged_index, TupleSpec(k=5)),
    "three_domains": (lambda: build_index(make_dataset(["a", "b", "c", "d"], ["x", "y", "z"], 3)), TupleSpec(k=2)),
    "sparse_200": (sparse_index, TupleSpec()),
}


def check_tuple(tup, index, spec):
    assert tup.identity_a != tup.identity_b
    assert tup.anchor_id != tup.pos_same_id
    group_ap = index.group(tup.identity_a, tup.domain_p)
    assert tup.anchor_id in group_ap and tup.pos_same_id in group_ap
    assert tup.pos_cross_id in index.group(tup.identity_a, tup.domain_q)
    assert tup.domain_p != tup.domain_q
    assert len(tup.neg_same_ids) == min(spec.k, len(index.group(tup.identity_b, tup.domain_p)))
    assert len(tup.neg_cross_ids) == min(spec.k, len(index.group(tup.identity_b, tup.domain_q)))
    assert len(set(tup.neg_same_ids)) == len(tup.neg_same_ids)
    for i in tup.neg_same_ids:
        assert i in index.group(tup.identity_b, tup.domain_p)
    for i in tup.neg_cross_ids:
        assert i in index.group(tup.identity_b, tup.domain_q)


class TestBuildIndex:
    def test_groups(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 2))
        assert len(index.groups) == 4
        assert all(len(ids) == 2 for ids in index.groups.values())
        assert index.identities == ["a", "b"]
        assert index.domains == ["0", "1"]

    def test_partial_identity(self):
        ds = make_dataset(["a"], ["0", "1"], 2)
        ds.samples.append(Sample(len(ds.samples), "b", "0", np.zeros(2)))
        index = build_index(ds)
        assert index.group("b", "0") and not index.group("b", "1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_index(Dataset(samples=[], feature_dim=2))


class TestSampleTuple:
    def test_minimal_index(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 2))
        spec = TupleSpec(k=2)
        tup = epoch_tuples(index, np.random.default_rng(0), spec, 1)[0]
        check_tuple(tup, index, spec)
        assert len(tup.neg_same_ids) == 2

    def test_k_truncation(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 3))
        spec = TupleSpec(k=5)
        tup = epoch_tuples(index, np.random.default_rng(1), spec, 1)[0]
        assert len(tup.neg_cross_ids) == 3

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
        index = build_index(make_dataset([f"i{n}" for n in range(6)], ["0", "1", "2"], 3))
        spec = TupleSpec(k=3)
        for _ in range(2000):
            check_tuple(epoch_tuples(index, rng, spec, 1)[0], index, spec)

    def test_sparse_fallback_is_uniform(self):
        # 200 identities, only 3 of them with domain B: the rejection loop
        # nearly always gives up, and the fallback must not collapse onto
        # one tuple. 3 anchors x 2 other negatives x 2 domain orders = 12.
        ids = [f"i{n:03d}" for n in range(200)]
        ds = make_dataset(ids, ["A"], 5)
        for ident in ids[:3]:
            for _ in range(5):
                ds.samples.append(Sample(len(ds.samples), ident, "B", np.zeros(2)))
        index = build_index(ds)
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
        make_index, spec = REFERENCE_CASES[case]
        index = make_index()
        for seed in range(3):
            got = epoch_tuples(index, np.random.default_rng(seed), spec, 300)
            assert got == reference_draws(index, np.random.default_rng(seed), spec, 300)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_one_tuple_epochs(self, case):
        # epochs drawn from one stream continue it: building the table draws nothing
        make_index, spec = REFERENCE_CASES[case]
        index = make_index()
        rng = np.random.default_rng(7)
        got = [epoch_tuples(index, rng, spec, 1)[0] for _ in range(100)]
        assert got == reference_draws(index, np.random.default_rng(7), spec, 100)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_every_feasible_triple_drawn(self, case):
        make_index, spec = REFERENCE_CASES[case]
        index = make_index()
        feasible = reference_feasible(index)
        assert len(set(feasible)) == len(feasible)
        tuples = epoch_tuples(index, np.random.default_rng(0), spec, 40 * len(feasible))
        keys = {(t.identity_a, t.identity_b, t.domain_p, t.domain_q) for t in tuples}
        assert keys == set(feasible)
        for t in tuples:
            check_tuple(t, index, spec)

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


def reference_compose(index, rng, spec, a, b, p, q):
    anchor_id, pos_same_id = reference_members(rng, index.group(a, p), 2)
    pos_cross_id = reference_members(rng, index.group(a, q), 1)[0]
    neg_same, neg_cross = index.group(b, p), index.group(b, q)
    return SampledTuple(
        anchor_id, pos_same_id, pos_cross_id,
        reference_members(rng, neg_same, min(spec.k, len(neg_same))),
        reference_members(rng, neg_cross, min(spec.k, len(neg_cross))),
        a, b, p, q,
    )


class TestMemberDraw:
    """Members are drawn as the index-permutation reference draws them, on the same stream."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_epoch_tuples_match_reference(self, case):
        make_index, spec = REFERENCE_CASES[case]
        index = make_index()
        feasible = reference_feasible(index)
        for seed in range(3):
            ref_rng = np.random.default_rng(seed)
            expected = [reference_compose(index, ref_rng, spec, *feasible[ref_rng.integers(len(feasible))])
                        for _ in range(300)]
            rng = np.random.default_rng(seed)
            assert epoch_tuples(index, rng, spec, 300) == expected
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_groups_unchanged(self, case):
        make_index, spec = REFERENCE_CASES[case]
        index = make_index()
        before = copy.deepcopy(index.groups)
        epoch_tuples(index, np.random.default_rng(0), spec, 300)
        assert index.groups == before


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
