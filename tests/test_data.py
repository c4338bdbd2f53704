import dataclasses
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed import data as hdata
from heteroembed.data import (
    MANIFEST_MAGIC,
    Dataset,
    DomainShift,
    ParseError,
    Sample,
    SynthConfig,
    draw_distinct,
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


# --- per-sample references: the loops the whole-array code replaced ---------


def reference_load_manifest(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0]
    if not header.startswith(MANIFEST_MAGIC + " dim="):
        raise ParseError(f"{path}: bad header {header!r}")
    spelled = header.split("dim=", 1)[1]
    if not re.fullmatch("-?[0-9]+", spelled):  # ASCII digits: no sign, space, `_` or other script
        raise ParseError(f"{path}: bad dim in header")
    dim = int(spelled)
    if dim < 1:
        raise ParseError(f"{path}: header dim={dim}, expected >= 1")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected identity,domain,features")
        identity, domain, feat_str = parts
        try:
            feats = np.array([float(v) for v in feat_str.split()], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric feature") from exc
        if feats.size != dim:
            raise ShapeError(f"{path}:{lineno}: {feats.size} features, expected {dim}")
        if not np.all(np.isfinite(feats)):
            raise ParseError(f"{path}:{lineno}: non-finite feature")
        samples.append(Sample(id=len(samples), identity=identity, domain=domain, features=feats))
    if not samples:
        raise ParseError(f"{path}: no data lines")
    return Dataset(samples=samples, feature_dim=dim)


def reference_generate_synthetic(config: SynthConfig) -> Dataset:
    rng = np.random.default_rng(config.seed)
    dim = config.feature_dim
    shift = config.domain_shift
    theta = math.radians(shift.rotation_angle_degrees)
    rot = np.eye(dim)
    if dim >= 2:
        rot[0, 0] = math.cos(theta)
        rot[0, 1] = -math.sin(theta)
        rot[1, 0] = math.sin(theta)
        rot[1, 1] = math.cos(theta)
    offset = np.zeros(dim)
    if shift.offset_magnitude != 0.0:
        direction = rng.standard_normal(dim)
        offset = shift.offset_magnitude * direction / np.linalg.norm(direction)
    else:
        rng.standard_normal(dim)
    samples = []
    n = config.samples_per_identity_per_domain
    for ident in range(config.n_identities):
        label = f"id{ident:03d}"
        center = rng.standard_normal(dim)
        center_b = rot @ center + offset
        for _ in range(n):
            feats = center + config.cluster_spread * rng.standard_normal(dim)
            samples.append(Sample(len(samples), label, "A", feats))
        for _ in range(n):
            feats = (
                center_b
                + config.cluster_spread * rng.standard_normal(dim)
                + shift.noise_scale * rng.standard_normal(dim)
            )
            samples.append(Sample(len(samples), label, "B", feats))
    return Dataset(samples=samples, feature_dim=dim)


def assert_same_dataset(got: Dataset, want: Dataset):
    """Equal ids, labels and feature bits, sample by sample."""
    assert got.feature_dim == want.feature_dim
    assert len(got) == len(want)
    for g, w in zip(got.samples, want.samples):
        assert (g.id, g.identity, g.domain) == (w.id, w.identity, w.domain)
        assert g.features.dtype == w.features.dtype and g.features.shape == w.features.shape
        assert g.features.tobytes() == w.features.tobytes()


def outcome(load, path):
    """(dataset, None) or (None, (exception class, message))."""
    try:
        return load(path), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(path):
    got, got_error = outcome(load_manifest, path)
    want, want_error = outcome(reference_load_manifest, path)
    assert got_error == want_error
    if want is not None:
        assert_same_dataset(got, want)


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

    @pytest.mark.parametrize("dim,line", [(0, "s1,A,"), (-1, "s1,A,1"), (-1, "s1,A,")])
    def test_non_positive_dim_refused_at_header(self, tmp_path, dim, line):
        path = write_manifest(tmp_path, [line], dim=dim)
        with pytest.raises(ParseError, match=f"header dim={dim}, expected >= 1"):
            load_manifest(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_manifest(tmp_path, ["# comment", "", "s1,A,1 2 3", "s2,A,4 5 6"])
        assert len(load_manifest(path)) == 2

    @pytest.mark.parametrize(
        "lines,bad",
        [(["s1,A,1 2", "s2,A,3 4 5 6"], 2), (["s1,A,1 2 3 4", "s2,A,5 6"], 2),
         (["s1,A,1 2 3", "s2,A,4 5", "s3,A,6 7 8 9"], 3)],
    )
    def test_counts_checked_per_line(self, tmp_path, lines, bad):
        # the token counts sum to the right total; each short or long line is still refused
        path = write_manifest(tmp_path, lines)
        with pytest.raises(ShapeError, match=f":{bad}: "):
            load_manifest(path)
        assert_same_outcome(path)

    @pytest.mark.parametrize("bad_line", ["s,A,1 x 3", "s,A,1 2", "s,A,1 nan 3", "s,A,1,2 3"])
    def test_bad_line_after_first_chunk_names_its_line(self, tmp_path, bad_line):
        good = [f"s{i},A,{i} 2 3" for i in range(3 * hdata.MANIFEST_CHUNK_LINES)]
        at = hdata.MANIFEST_CHUNK_LINES + 7  # index into the body
        path = write_manifest(tmp_path, good[:at] + [bad_line] + good[at:])
        with pytest.raises(ValueError, match=f":{at + 2}: "):
            load_manifest(path)
        assert_same_outcome(path)

    def test_many_chunks_match_reference(self, tmp_path):
        lines = []
        for i in range(2 * hdata.MANIFEST_CHUNK_LINES + 5):
            lines.append(f"s{i % 7},{'AB'[i % 2]},{i * 0.1} -{i} 1e-{i % 300}")
            if i % 97 == 0:
                lines += ["# comment", "", "  \t"]
        path = write_manifest(tmp_path, lines)
        ds = load_manifest(path)
        assert [s.id for s in ds.samples] == list(range(2 * hdata.MANIFEST_CHUNK_LINES + 5))
        assert_same_outcome(path)

    def test_bad_line_refused_before_the_rest_is_read(self, tmp_path, monkeypatch):
        taken, text_lines = 0, hdata.text_lines

        def counting(path):
            nonlocal taken
            for line in text_lines(path):
                taken += 1
                yield line

        good = [f"s{i},A,{i} 2 3" for i in range(10 * hdata.MANIFEST_CHUNK_LINES)]
        path = write_manifest(tmp_path, ["s,A,1 2 3", "s,A,1 x 3"] + good)
        monkeypatch.setattr(hdata, "text_lines", counting)
        with pytest.raises(ParseError, match=":3: non-numeric feature"):
            load_manifest(path)
        assert 3 <= taken <= 1 + hdata.MANIFEST_CHUNK_LINES

    def test_chunk_no_line_of_which_is_bad_fails_loudly(self, tmp_path, monkeypatch):
        # numpy and `float` read the same spellings; were a chunk refused as a block
        # with no bad line, the reader must raise, not return part of the file
        path = write_manifest(tmp_path, ["s1,A,1 2 3", "# c", "s2,A,4 5 6"])
        monkeypatch.setattr(hdata.np, "isfinite", lambda a: np.zeros(np.shape(a), dtype=bool))
        with pytest.raises(ParseError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}:2-4: chunk refused as a block, yet every line in it parses"

    def test_manifest_io_holds_one_chunk_at_a_time(self, tmp_path):
        # 10 000 lines of 16 features: the whole file's Python strings and floats
        # at once would take about 20 MB to read and 7 MB to write.
        import tracemalloc

        ds = generate_synthetic(SynthConfig(n_identities=250, samples_per_identity_per_domain=20))
        assert len(ds) == 10_000 and ds.feature_dim == 16
        path = tmp_path / "big.hem"
        tracemalloc.start()
        try:
            save_manifest(ds, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            again = load_manifest(path)
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(again) == len(ds)
        assert write_peak < 3_000_000, f"save_manifest peaked at {write_peak / 1e6:.1f} MB"
        assert read_peak < 10_000_000, f"load_manifest peaked at {read_peak / 1e6:.1f} MB"

    def test_read_holds_one_chunk_of_text(self, tmp_path):
        # The 10 000 loaded samples keep about 4.4 MB; the file's whole line list
        # on top of them would take the load past 8 MB.
        import tracemalloc

        ds = generate_synthetic(SynthConfig(n_identities=250, samples_per_identity_per_domain=20))
        path = tmp_path / "big.hem"
        save_manifest(ds, path)
        tracemalloc.start()
        try:
            again = load_manifest(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(again) == len(ds)
        assert read_peak < 6_000_000, f"load_manifest peaked at {read_peak / 1e6:.1f} MB"

    def test_line_separator_in_a_label_splits_its_line(self, tmp_path):
        # str.splitlines breaks "s\u2028x" in two, so line 3 holds "s" alone
        path = write_manifest(tmp_path, ["s1,A,1 2 3", "s\u2028x,A,1 2 3"], name="sep.hem")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: expected identity,domain,features")):
            load_manifest(path)
        assert_same_outcome(path)

    def test_undecodable_file_names_its_path(self, tmp_path):
        path = tmp_path / "bad.hem"
        path.write_bytes(b"\xff" + b"HETERO-EMBED-DATA v1 dim=1\ns,A,1\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text (invalid start byte)")):
            load_manifest(path)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # a byte-order mark that starts the file is no text; one anywhere else is part of its line
        plain = write_manifest(tmp_path, ["s1,A,1 2 3", "\ufeffs2,B,4 5 6"])
        bom = tmp_path / "bom.hem"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert_same_dataset(load_manifest(bom), load_manifest(plain))
        assert load_manifest(bom).samples[1].identity == "\ufeffs2"

    def test_round_trip_bytes(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n_identities=3, samples_per_identity_per_domain=2, seed=1))
        p1 = tmp_path / "a.hem"
        p2 = tmp_path / "b.hem"
        save_manifest(ds, p1)
        save_manifest(load_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def one_sample(identity="s1", domain="A", features=(1.0, 2.0)):
    return Dataset(samples=[Sample(0, identity, domain, np.array(features))], feature_dim=2)


# Spellings `float` reads as finite numbers, and spellings a reader must refuse.
GOOD_FLOATS = ["1", "-2.5", "+3", ".5", "5.", "1E-3", "-0", "1e-400", "1_0", "\u0661\u0662",
               "\u0663.\u0661", "\uff11", "0.1000000000000000055511151231257827"]
BAD_FLOATS = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "infinit", "1__0", "_1",
              "1_", "0x10", "0x1p3", "1j", "x", "1.2.3", "--1", "1e"]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\u2028", "\x1c"]
BAD_HEADERS = ["", "HETERO-EMBED-DATA v2 dim=2", f"{MANIFEST_MAGIC} dim=", f"{MANIFEST_MAGIC} dim=x",
               f"{MANIFEST_MAGIC} dim=2.0", f"{MANIFEST_MAGIC}  dim=2"]


@st.composite
def manifest_texts(draw):
    """Mostly valid manifests, each line at risk of one fault a reader must report."""
    fault = st.integers(0, 15).map(lambda v: v == 0)  # true about one time in 16
    dim = draw(st.sampled_from([1, 2, 3, 0, -1, 10]))
    spelled = draw(st.sampled_from([str(dim), f" {dim}", f"+{dim}", f"{dim} "]))
    if dim == 10:
        spelled = draw(st.sampled_from(["10", "1_0", "\u0661\u0660"]))
    header = draw(st.sampled_from(BAD_HEADERS)) if draw(fault) else f"{MANIFEST_MAGIC} dim={spelled}"
    lines = [header]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank"]))
        if kind == "comment":
            lines.append("#" + draw(st.text(max_size=5)))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "\u3000"])))
            continue
        count = max(dim, 0) + (draw(st.sampled_from([-1, 1])) if draw(fault) else 0)
        tokens = [
            draw(st.sampled_from(BAD_FLOATS)) if draw(fault)
            else draw(st.one_of(st.sampled_from(GOOD_FLOATS),
                                st.floats(allow_nan=False, allow_infinity=False).map(repr)))
            for _ in range(max(count, 0))
        ]
        feats = "".join(draw(st.sampled_from(SEPARATORS)) + t for t in tokens)
        fields = [draw(st.sampled_from(["s1", "id 2", " a", "#x"])), draw(st.sampled_from(["A", "B", ""])), feats]
        if draw(fault):
            fields.insert(draw(st.integers(0, 3)), draw(st.sampled_from(["", "1", "A"])))
        lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestManifestProperty:
    @settings(max_examples=400, deadline=None)
    @given(text=manifest_texts(), chunk_lines=st.sampled_from([1, 2, 3, 256]))
    def test_loads_like_reference_or_raises_its_error(self, text, chunk_lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.hem"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(hdata, "MANIFEST_CHUNK_LINES", chunk_lines):
                assert_same_outcome(path)


# Labels from hypothesis's default alphabet, or from that alphabet plus the surrogates
# (category Cs) it leaves out: UTF-8 cannot encode them.
LABELS = st.text() | st.text(st.characters() | st.characters(categories=["Cs"]))


class TestSaveManifest:
    @pytest.mark.parametrize(
        "identity,domain",
        [("a,b", "A"), ("s1", "A,B"), ("a\nb", "A"), ("s1", "A\r"), ("a\x1cb", "A"),
         ("a\u2028", "A"), ("#s1", "A"), ("\ud800", "A"), (5, "A"), ("s1", 5.0), (None, "A"),
         ("s1", True), (b"x", "A"), (["a"], "A")],
    )
    def test_unreadable_label_refused_before_open(self, tmp_path, identity, domain):
        path = tmp_path / "d.hem"
        with pytest.raises(ParseError):
            save_manifest(one_sample(identity, domain), path)
        assert not path.exists()

    @pytest.mark.parametrize("identity,domain,message", [
        (5, "A", "label 5 is not text"), ("s1", ["a"], "label ['a'] is not text"),
    ])
    def test_label_not_text_named(self, tmp_path, identity, domain, message):
        with pytest.raises(ParseError) as info:
            save_manifest(one_sample(identity, domain), tmp_path / "d.hem")
        assert str(info.value) == message

    def test_numpy_str_labels_round_trip(self, tmp_path):
        save_manifest(one_sample(np.str_("s1"), np.str_("A")), tmp_path / "d.hem")
        assert [(s.identity, s.domain) for s in load_manifest(tmp_path / "d.hem").samples] == [("s1", "A")]

    def test_empty_dataset_refused_before_open(self, tmp_path):
        path = tmp_path / "d.hem"
        with pytest.raises(ParseError, match="empty dataset"):
            save_manifest(Dataset(samples=[], feature_dim=4), path)
        assert not path.exists()

    @pytest.mark.parametrize("features", [(1.0, np.nan), (np.inf, 0.0)])
    def test_non_finite_features_refused(self, tmp_path, features):
        with pytest.raises(ParseError):
            save_manifest(one_sample(features=features), tmp_path / "d.hem")

    @pytest.mark.parametrize("features", [np.array([1.0]), np.array([1.0, 2.0, 3.0]), np.ones((1, 2))])
    def test_wrong_shape_refused_before_open(self, tmp_path, features):
        path = tmp_path / "d.hem"
        dataset = Dataset(samples=[Sample(0, "s0", "A", np.zeros(2)), Sample(1, "s1", "A", features)], feature_dim=2)
        with pytest.raises(ShapeError, match="sample 1"):
            save_manifest(dataset, path)
        assert not path.exists()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_feature_dim_refused_before_open(self, tmp_path, dim):
        path = tmp_path / "d.hem"
        dataset = Dataset(samples=[Sample(0, "s0", "A", np.zeros(max(dim, 0)))], feature_dim=dim)
        with pytest.raises(ParseError, match=f"feature_dim={dim}"):
            save_manifest(dataset, path)
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(identity=LABELS, domain=LABELS)
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


HARD_SHIFT = DomainShift(rotation_angle_degrees=90.0, offset_magnitude=3.0, noise_scale=0.5)


class TestGenerateSynthetic:
    @pytest.mark.parametrize(
        "config",
        [
            SynthConfig(),
            SynthConfig(n_identities=200, samples_per_identity_per_domain=5, cluster_spread=0.6,
                        domain_shift=HARD_SHIFT, seed=1),
            SynthConfig(n_identities=500, samples_per_identity_per_domain=10),
            SynthConfig(n_identities=7, domain_shift=DomainShift(offset_magnitude=0.0), seed=3),
            SynthConfig(n_identities=6, samples_per_identity_per_domain=3, feature_dim=1, seed=4),
            SynthConfig(n_identities=6, samples_per_identity_per_domain=3, feature_dim=2,
                        domain_shift=HARD_SHIFT, seed=5),
            SynthConfig(n_identities=9, samples_per_identity_per_domain=1, feature_dim=5, seed=6),
        ],
        ids=["default", "hard_compare", "eval_large", "offset0", "dim1", "dim2", "one_per_domain"],
    )
    def test_matches_per_identity_reference(self, config):
        assert_same_dataset(generate_synthetic(config), reference_generate_synthetic(config))

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


def reference_draw(rng, items, n):
    """n distinct items as an index permutation mapped back to the items."""
    return [items[i] for i in rng.permutation(len(items))[:n]]


class TestDrawDistinct:
    CASES = [(length, n) for length in [*range(9), 500]
             for n in sorted({0, 1, max(length - 1, 0), length, length + 3})]

    @pytest.mark.parametrize("length,n", CASES)
    @pytest.mark.parametrize("kind", ["int", "object"])
    def test_matches_index_permutation(self, length, n, kind):
        items = list(range(100, 100 + length)) if kind == "int" else [object() for _ in range(length)]
        before = list(items)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = draw_distinct(rng, items, n)
            assert got == reference_draw(ref_rng, items, n)
            assert len(got) == min(n, length)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert items == before


def reference_split_by_identity(dataset, train_fraction, seed):
    identities = dataset.identities()
    order = reference_draw(np.random.default_rng(seed), identities, len(identities))
    n_train = min(max(round(train_fraction * len(identities)), 1), len(identities) - 1)
    train_ids = set(order[:n_train])
    return ([s.id for s in dataset.samples if s.identity in train_ids],
            [s.id for s in dataset.samples if s.identity not in train_ids])


def reference_split_enroll_probe(dataset, per_identity_enroll, seed):
    rng = np.random.default_rng(seed)
    gallery_ids = set()
    for ident in dataset.identities():
        group = sorted((s for s in dataset.samples if s.identity == ident), key=lambda s: s.id)
        gallery_ids.update(s.id for s in reference_draw(rng, group, per_identity_enroll))
    return ([s.id for s in dataset.samples if s.id in gallery_ids],
            [s.id for s in dataset.samples if s.id not in gallery_ids])


def ragged_dataset(seed):
    """Identities with 3 to 9 samples, in shuffled record order."""
    rng = np.random.default_rng(seed)
    samples = [(f"id{i:02d}", "AB"[j % 2]) for i in range(20) for j in range(3 + i % 7)]
    order = rng.permutation(len(samples))
    return Dataset([Sample(int(k), *samples[k], np.zeros(1)) for k in order], feature_dim=1)


class TestSplitDraws:
    """Both splits draw as an index permutation mapped back to the items would."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("train_fraction", [0.05, 0.5, 0.8])
    def test_split_by_identity(self, seed, train_fraction):
        ds = ragged_dataset(seed)
        train, test = split_by_identity(ds, train_fraction, seed)
        got = ([s.id for s in train.samples], [s.id for s in test.samples])
        assert got == reference_split_by_identity(ds, train_fraction, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("enroll", [1, 2])
    def test_split_enroll_probe(self, seed, enroll):
        ds = ragged_dataset(seed)
        gallery, probes = split_enroll_probe(ds, enroll, seed)
        got = ([s.id for s in gallery.samples], [s.id for s in probes.samples])
        assert got == reference_split_enroll_probe(ds, enroll, seed)

    def test_enroll_names_first_short_identity(self):
        # id<i> has 3 + i % 7 samples: enrolling 3 leaves id00 and id07 without a probe
        ds = ragged_dataset(0)
        with pytest.raises(ValueError, match="'id00' has 3 samples"):
            split_enroll_probe(ds, 3, seed=0)
        ds.samples = [s for s in ds.samples if s.identity != "id00"]
        with pytest.raises(ValueError, match="'id07' has 3 samples"):
            split_enroll_probe(ds, 3, seed=0)


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SynthConfig(seed=-1)


def test_synth_config_is_frozen():
    # A field assigned after construction would skip the checks in __post_init__.
    config = SynthConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = -1
    assert config.seed == 0
    shift = DomainShift()
    with pytest.raises(dataclasses.FrozenInstanceError):
        shift.noise_scale = math.nan
    assert shift.noise_scale == 0.1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["rotation_angle_degrees", "offset_magnitude", "noise_scale", "cluster_spread"])
def test_non_finite_synth_setting_refused(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if name == "cluster_spread":
            SynthConfig(cluster_spread=value)
        else:
            DomainShift(**{name: value})


@pytest.mark.parametrize("shift,spread", [(DomainShift(), 1e308), (DomainShift(offset_magnitude=1e308), 0.3),
                                          (DomainShift(noise_scale=1e308), 0.3)])
def test_overflowing_features_refused(shift, spread):
    config = SynthConfig(n_identities=3, samples_per_identity_per_domain=2, cluster_spread=spread,
                         domain_shift=shift)
    with pytest.raises(ValueError, match="synthetic features overflow"):
        generate_synthetic(config)  # pytest turns a numpy warning into an error


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
