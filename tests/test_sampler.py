import numpy as np
import pytest

from heteroembed.data import Dataset, Sample
from heteroembed.sampler import (
    InfeasibleError,
    TupleSpec,
    build_index,
    epoch_tuples,
    sample_tuple,
)


def make_dataset(identities, domains, per_group):
    samples = []
    for ident in identities:
        for dom in domains:
            for _ in range(per_group):
                samples.append(Sample(len(samples), ident, dom, np.zeros(2)))
    return Dataset(samples=samples, feature_dim=2)


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
        tup = sample_tuple(index, np.random.default_rng(0), spec)
        check_tuple(tup, index, spec)
        assert len(tup.neg_same_ids) == 2

    def test_k_truncation(self):
        index = build_index(make_dataset(["a", "b"], ["0", "1"], 3))
        spec = TupleSpec(k=5)
        tup = sample_tuple(index, np.random.default_rng(1), spec)
        assert len(tup.neg_cross_ids) == 3

    def test_single_identity_infeasible(self):
        index = build_index(make_dataset(["a"], ["0", "1"], 3))
        with pytest.raises(InfeasibleError):
            sample_tuple(index, np.random.default_rng(0), TupleSpec())

    def test_no_cross_domain_negative_infeasible(self):
        # b exists only in domain 0, so no negative is available in both domains
        ds = make_dataset(["a"], ["0", "1"], 3)
        ds.samples.append(Sample(len(ds.samples), "b", "0", np.zeros(2)))
        index = build_index(ds)
        with pytest.raises(InfeasibleError, match="negative identity"):
            sample_tuple(index, np.random.default_rng(0), TupleSpec())

    def test_fixed_policy(self):
        index = build_index(make_dataset(["a", "b", "c"], ["x", "y"], 3))
        spec = TupleSpec(k=2, domain_policy="fixed", fixed_p="y", fixed_q="x")
        for seed in range(20):
            tup = sample_tuple(index, np.random.default_rng(seed), spec)
            assert (tup.domain_p, tup.domain_q) == ("y", "x")

    def test_invariants_over_many_draws(self):
        rng = np.random.default_rng(42)
        index = build_index(make_dataset([f"i{n}" for n in range(6)], ["0", "1", "2"], 3))
        spec = TupleSpec(k=3)
        for _ in range(2000):
            check_tuple(sample_tuple(index, rng, spec), index, spec)

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
