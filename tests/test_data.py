import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed.data import (
    Dataset,
    DomainShift,
    ParseError,
    Sample,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    save_manifest,
    split_by_identity,
    split_enroll_probe,
)
from heteroembed.net import ShapeError


def write_manifest(tmp_path, lines, dim=3, name="data.hem"):
    path = tmp_path / name
    path.write_text(f"HETERO-EMBED-DATA v1 dim={dim}\n" + "".join(l + "\n" for l in lines))
    return path


class TestLoadManifest:
    def test_two_lines(self, tmp_path):
        path = write_manifest(tmp_path, ["s1,A,1 2 3", "s2,B,4 5 6"])
        ds = load_manifest(path)
        assert len(ds) == 2
        assert ds.feature_dim == 3
        assert ds.samples[0].identity == "s1"
        assert ds.samples[1].id == 1
        np.testing.assert_array_equal(ds.samples[1].features, [4, 5, 6])

    def test_non_numeric_names_line(self, tmp_path):
        path = write_manifest(tmp_path, ["s1,A,1 2 3", "s2,B,4 x 6"])
        with pytest.raises(ParseError, match=":3"):
            load_manifest(path)

    def test_inconsistent_dim(self, tmp_path):
        path = write_manifest(tmp_path, ["s1,A,1 2 3", "s2,B,4 5 6 7"])
        with pytest.raises(ShapeError):
            load_manifest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.hem"
        path.write_text("")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_manifest(tmp_path, ["# comment", "", "s1,A,1 2 3", "s2,A,4 5 6"])
        assert len(load_manifest(path)) == 2

    def test_round_trip_bytes(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n_identities=3, samples_per_identity_per_domain=2, seed=1))
        p1 = tmp_path / "a.hem"
        p2 = tmp_path / "b.hem"
        save_manifest(ds, p1)
        save_manifest(load_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def one_sample(identity="s1", domain="A", features=(1.0, 2.0)):
    return Dataset(samples=[Sample(0, identity, domain, np.array(features))], feature_dim=2)


class TestSaveManifest:
    @pytest.mark.parametrize(
        "identity,domain",
        [("a,b", "A"), ("s1", "A,B"), ("a\nb", "A"), ("s1", "A\r"), ("a\x1cb", "A"),
         ("a\u2028", "A"), ("#s1", "A")],
    )
    def test_unreadable_label_refused_before_open(self, tmp_path, identity, domain):
        path = tmp_path / "d.hem"
        with pytest.raises(ParseError):
            save_manifest(one_sample(identity, domain), path)
        assert not path.exists()

    @pytest.mark.parametrize("features", [(1.0, np.nan), (np.inf, 0.0)])
    def test_non_finite_features_refused(self, tmp_path, features):
        with pytest.raises(ParseError):
            save_manifest(one_sample(features=features), tmp_path / "d.hem")

    @settings(max_examples=300, deadline=None)
    @given(identity=st.text(), domain=st.text())
    def test_label_round_trips_or_is_refused(self, identity, domain):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.hem"
            try:
                save_manifest(one_sample(identity, domain), path)
            except ParseError:
                assert not path.exists()
                return
            sample = load_manifest(path).samples[0]
        assert (sample.identity, sample.domain) == (identity, domain)


class TestGenerateSynthetic:
    def test_default_counts(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        assert len(ds) == 2000
        assert ds.feature_dim == 16
        assert ds.domains() == ["A", "B"]
        assert len(ds.identities()) == 50

    def test_no_shift_means_match(self):
        cfg = SynthConfig(
            n_identities=10,
            samples_per_identity_per_domain=50,
            cluster_spread=0.3,
            domain_shift=DomainShift(rotation_angle_degrees=0, offset_magnitude=0, noise_scale=0),
            seed=5,
        )
        ds = generate_synthetic(cfg)
        tol = 3 * cfg.cluster_spread / np.sqrt(cfg.samples_per_identity_per_domain)
        for ident in ds.identities():
            mean_a = np.mean([s.features for s in ds.samples if s.identity == ident and s.domain == "A"], axis=0)
            mean_b = np.mean([s.features for s in ds.samples if s.identity == ident and s.domain == "B"], axis=0)
            assert np.all(np.abs(mean_a - mean_b) < 2 * tol)

    def test_deterministic(self):
        a = generate_synthetic(SynthConfig(seed=9))
        b = generate_synthetic(SynthConfig(seed=9))
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.features, sb.features)

    def test_offset_increases_center_distance(self):
        def mean_center_gap(offset):
            cfg = SynthConfig(
                n_identities=10,
                samples_per_identity_per_domain=20,
                domain_shift=DomainShift(rotation_angle_degrees=0, offset_magnitude=offset, noise_scale=0),
                seed=3,
            )
            ds = generate_synthetic(cfg)
            gaps = []
            for ident in ds.identities():
                a = np.mean([s.features for s in ds.samples if s.identity == ident and s.domain == "A"], axis=0)
                b = np.mean([s.features for s in ds.samples if s.identity == ident and s.domain == "B"], axis=0)
                gaps.append(np.linalg.norm(a - b))
            return np.mean(gaps)

        assert mean_center_gap(2.0) > mean_center_gap(0.0)


class TestSplitByIdentity:
    def test_40_10(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        train, test = split_by_identity(ds, 0.8, seed=1)
        assert len(train.identities()) == 40
        assert len(test.identities()) == 10
        assert not set(train.identities()) & set(test.identities())
        assert len(train) + len(test) == len(ds)

    def test_clamped(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        train, test = split_by_identity(ds, 0.98, seed=1)
        assert len(train.identities()) == 49
        assert len(test.identities()) == 1

    def test_deterministic(self):
        ds = generate_synthetic(SynthConfig(n_identities=8, samples_per_identity_per_domain=2, seed=2))
        a = split_by_identity(ds, 0.5, seed=7)
        b = split_by_identity(ds, 0.5, seed=7)
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]

    def test_single_identity_rejected(self):
        ds = Dataset(
            samples=[Sample(0, "x", "A", np.zeros(2)), Sample(1, "x", "B", np.zeros(2))],
            feature_dim=2,
        )
        with pytest.raises(ValueError):
            split_by_identity(ds, 0.5, seed=0)


class TestSplitEnrollProbe:
    def make(self, per_identity=4):
        samples = []
        for ident in ("a", "b"):
            for i in range(per_identity):
                samples.append(Sample(len(samples), ident, "A", np.array([float(i)])))
        return Dataset(samples=samples, feature_dim=1)

    def test_counts(self):
        gallery, probes = split_enroll_probe(self.make(), 1, seed=0)
        assert len(gallery) == 2
        assert len(probes) == 6

    def test_too_small(self):
        with pytest.raises(ValueError, match="'a'"):
            split_enroll_probe(self.make(4), 4, seed=0)

    def test_deterministic(self):
        a = split_enroll_probe(self.make(), 2, seed=3)
        b = split_enroll_probe(self.make(), 2, seed=3)
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]

    def test_partition(self):
        gallery, probes = split_enroll_probe(self.make(), 2, seed=1)
        ids = sorted([s.id for s in gallery.samples] + [s.id for s in probes.samples])
        assert ids == list(range(8))
