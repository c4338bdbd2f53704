"""(identity, domain)-labeled feature vectors: manifest I/O, splits, synthesis.

Manifest format (`.hem`, UTF-8 text):
    HETERO-EMBED-DATA v1 dim=<D>
    <identity>,<domain>,<f1> <f2> ... <fD>
Lines starting with '#' are comments; blank lines are skipped.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .net import ConfigError, ParseError, ShapeError, check_field, is_finite, parse_int, text_lines

MANIFEST_MAGIC = "HETERO-EMBED-DATA v1"
# Manifest lines parsed or written per block: bounds the Python strings and
# floats held at once.
MANIFEST_CHUNK_LINES = 256


@dataclass
class Sample:
    id: int
    identity: str
    domain: str
    features: np.ndarray


@dataclass
class Dataset:
    samples: list[Sample]
    feature_dim: int

    def __len__(self):
        return len(self.samples)

    def identities(self) -> list[str]:
        return sorted({s.identity for s in self.samples})

    def domains(self) -> list[str]:
        return sorted({s.domain for s in self.samples})


@dataclass(frozen=True)
class DomainShift:
    rotation_angle_degrees: float = 30.0
    offset_magnitude: float = 1.0
    noise_scale: float = 0.1

    def __post_init__(self):
        for name in ("rotation_angle_degrees", "offset_magnitude", "noise_scale"):
            check_field(name, getattr(self, name))


@dataclass(frozen=True)
class SynthConfig:
    n_identities: int = 50
    samples_per_identity_per_domain: int = 20
    feature_dim: int = 16
    cluster_spread: float = 0.3
    domain_shift: DomainShift = field(default_factory=DomainShift)
    seed: int = 0

    def __post_init__(self):
        check_field("n_identities", self.n_identities, 2)
        check_field("samples_per_identity_per_domain", self.samples_per_identity_per_domain, 1)
        check_field("feature_dim", self.feature_dim, 1)
        check_field("seed", self.seed, 0)
        check_field("cluster_spread", self.cluster_spread)


def load_manifest(path) -> Dataset:
    """Parse a `.hem` manifest into a Dataset. Ids follow record order from 0.

    Lines are numbered as `net.text_lines` splits the text, and the file is
    read MANIFEST_CHUNK_LINES lines at a time: each chunk is split once and
    its features converted in one call. A chunk with a fault is walked line by
    line, in file order, to name its first bad line.
    """
    lines = text_lines(path)
    header = next(lines, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    if not header.startswith(MANIFEST_MAGIC + " dim="):
        raise ParseError(f"{path}: bad header {header!r}")
    try:
        dim = parse_int(header.split("dim=", 1)[1])
    except ValueError as exc:
        raise ParseError(f"{path}: bad dim in header") from exc
    if dim < 1:
        raise ParseError(f"{path}: header dim={dim}, expected >= 1")

    samples: list[Sample] = []
    lineno = 2
    while chunk := list(islice(lines, MANIFEST_CHUNK_LINES)):
        samples += _parse_chunk(path, chunk, lineno, dim, len(samples))
        lineno += len(chunk)
    if not samples:
        raise ParseError(f"{path}: no data lines")
    return Dataset(samples=samples, feature_dim=dim)


def _parse_chunk(path, lines: list[str], first_lineno: int, dim: int, first_id: int) -> list[Sample]:
    """The Samples of manifest body lines; the first bad line raises with its line number."""
    rows, tokens = [], []  # (line number, comma fields, feature tokens) per data line; all tokens
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.strip() and not line.startswith("#"):
            fields = line.split(",")
            feats = fields[-1].split()
            rows.append((lineno, fields, feats))
            tokens += feats
    if all(len(fields) == 3 and len(feats) == dim for _, fields, feats in rows):
        with suppress(ValueError):  # a token numpy cannot convert: the walk below names its line
            block = np.array(tokens, dtype=np.float64).reshape(len(rows), dim)
            if np.isfinite(block).all():
                return [Sample(first_id + i, f[0], f[1], block[i]) for i, (_, f, _) in enumerate(rows)]
    for lineno, fields, feats in rows:
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected identity,domain,features")
        try:
            values = [float(t) for t in feats]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric feature") from exc
        if len(values) != dim:
            raise ShapeError(f"{path}:{lineno}: {len(values)} features, expected {dim}")
        if not all(map(math.isfinite, values)):
            raise ParseError(f"{path}:{lineno}: non-finite feature")
    # numpy converts exactly the spellings `float` reads: a chunk refused as a
    # block holds a bad line. Should the two ever differ, fail loudly, not partly.
    raise ParseError(f"{path}:{first_lineno}-{first_lineno + len(lines) - 1}: "
                     "chunk refused as a block, yet every line in it parses")


def save_manifest(dataset: Dataset, path) -> None:
    """Write a Dataset as a `.hem` manifest (17 significant digits, round-trip exact).

    Raises ParseError or ShapeError, before the file is opened, for an empty
    dataset, a feature_dim or a sample `load_manifest` would reject or read
    back differently.
    """
    if not dataset.samples:
        raise ParseError("empty dataset: a manifest needs at least one data line")
    for label in (x for s in dataset.samples for x in (s.identity, s.domain) if not isinstance(x, str)):
        raise ParseError(f"label {label!r} is not text")
    identities = dict.fromkeys(s.identity for s in dataset.samples)
    domains = dict.fromkeys(s.domain for s in dataset.samples)
    for label in [*identities, *domains]:
        if "," in label or "".join(label.splitlines()) != label:
            raise ParseError(f"label {label!r} holds a comma or line break")
        try:
            label.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"label {label!r} is not UTF-8 text ({exc.reason})") from exc
    for identity in identities:
        if identity.startswith("#"):
            raise ParseError(f"identity {identity!r} would read as a comment")
    dim = dataset.feature_dim
    if dim < 1:
        raise ParseError(f"feature_dim={dim}, expected >= 1")
    for s in dataset.samples:
        if np.shape(s.features) != (dim,):
            raise ShapeError(
                f"sample {s.id}: features of shape {np.shape(s.features)}, expected ({dim},)"
            )
    features = np.array([s.features for s in dataset.samples]).reshape(len(dataset), dim)
    if not np.isfinite(features).all():
        raise ParseError("non-finite feature")
    row = "%s,%s," + " ".join(["%.17g"] * dim) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{MANIFEST_MAGIC} dim={dim}\n")
        for start in range(0, len(dataset), MANIFEST_CHUNK_LINES):
            rows = features[start : start + MANIFEST_CHUNK_LINES].tolist()
            chunk = dataset.samples[start : start + MANIFEST_CHUNK_LINES]
            f.writelines(row % (s.identity, s.domain, *v) for s, v in zip(chunk, rows))


# Features that overflow are refused once, as a ValueError, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(config: SynthConfig) -> Dataset:
    """Two-domain clustered data with a controlled domain shift.

    Each identity gets a Gaussian cluster center. Domain "A" samples scatter
    around the center; domain "B" samples scatter around the center rotated
    (in the first two coordinates) plus a shared offset, with extra noise.
    """
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

    direction = rng.standard_normal(dim)  # drawn for every offset: the stream stays aligned
    offset = np.zeros(dim)
    if shift.offset_magnitude != 0.0:
        offset = shift.offset_magnitude * direction / np.linalg.norm(direction)

    # One draw in stream order: per identity its center, n domain-A scatters,
    # then n (scatter, noise) pairs for domain B.
    n = config.samples_per_identity_per_domain
    draws = rng.standard_normal((config.n_identities, 1 + 3 * n, dim))
    centers = draws[:, 0]
    b_draws = draws[:, 1 + n :].reshape(config.n_identities, n, 2, dim)
    # One matrix-vector product per identity: `centers @ rot.T` sums in another
    # order and differs in the last bit.
    centers_b = np.array([rot @ center for center in centers]).reshape(-1, 1, dim) + offset
    feats_a = centers[:, None] + config.cluster_spread * draws[:, 1 : 1 + n]
    feats_b = (
        centers_b
        + config.cluster_spread * b_draws[:, :, 0]
        + shift.noise_scale * b_draws[:, :, 1]
    )
    features = np.concatenate([feats_a, feats_b], axis=1).reshape(-1, dim)
    if not np.isfinite(features).all():
        raise ValueError("synthetic features overflow: cluster_spread, offset_magnitude "
                         "or noise_scale is too large")
    labels = [f"id{ident:03d}" for ident in range(config.n_identities)]
    domains = ["A"] * n + ["B"] * n
    samples = [
        Sample(i, labels[i // (2 * n)], domains[i % (2 * n)], features[i])
        for i in range(len(features))
    ]
    return Dataset(samples=samples, feature_dim=dim)


def draw_distinct(rng: np.random.Generator, items: list, n: int) -> list:
    """The first n items of a shuffled copy: min(n, len(items)) distinct ones, uniformly.

    It uses the same random numbers, and returns the same items, as taking `items`
    at the first n indices of `Generator.permutation(len(items))`.
    """
    drawn = list(items)
    rng.shuffle(drawn)
    return drawn[:n]


def check_train_fraction(train_fraction) -> None:
    """Refuse a train_fraction outside the open interval (0, 1)."""
    if not (is_finite("train_fraction", train_fraction) and 0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction!r}")


def split_by_identity(dataset: Dataset, train_fraction: float, seed: int):
    """Identity-disjoint train/test split; both sides keep at least one identity."""
    check_train_fraction(train_fraction)
    check_field("seed", seed, 0)
    identities = dataset.identities()
    if len(identities) < 2:
        raise ValueError("need at least 2 identities to split")
    n_train = min(max(round(train_fraction * len(identities)), 1), len(identities) - 1)
    return _partition(dataset, "identity", set(draw_distinct(np.random.default_rng(seed), identities, n_train)))


def split_enroll_probe(dataset: Dataset, per_identity_enroll: int, seed: int):
    """Per identity, enroll a fixed number of samples; the rest become probes."""
    check_field("per_identity_enroll", per_identity_enroll, 1)
    check_field("seed", seed, 0)
    by_identity: dict[str, list[Sample]] = {}
    for s in sorted(dataset.samples, key=lambda s: s.id):
        by_identity.setdefault(s.identity, []).append(s)
    rng = np.random.default_rng(seed)
    gallery_ids = set()
    for ident, group in sorted(by_identity.items()):
        if len(group) < per_identity_enroll + 1:
            raise ValueError(f"identity {ident!r} has {len(group)} samples, "
                             f"needs at least {per_identity_enroll + 1}")
        gallery_ids.update(s.id for s in draw_distinct(rng, group, per_identity_enroll))
    return _partition(dataset, "id", gallery_ids)


def _partition(dataset: Dataset, key: str, chosen: set) -> tuple[Dataset, Dataset]:
    """The samples whose `key` attribute is in `chosen`, then the others; each in dataset order."""
    # Each side is built whole: two lists grown in turn fragment the heap, and a kept split holds that.
    inside = [s for s in dataset.samples if getattr(s, key) in chosen]
    outside = [s for s in dataset.samples if getattr(s, key) not in chosen]
    return Dataset(inside, dataset.feature_dim), Dataset(outside, dataset.feature_dim)
