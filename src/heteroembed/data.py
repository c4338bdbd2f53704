"""(identity, domain)-labeled feature vectors: manifest I/O, splits, synthesis.

Manifest format (`.hem`, UTF-8 text):
    HETERO-EMBED-DATA v1 dim=<D>
    <identity>,<domain>,<f1> <f2> ... <fD>
Lines starting with '#' are comments; blank lines are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .net import ShapeError, check_field, parse_int

MANIFEST_MAGIC = "HETERO-EMBED-DATA v1"
# Manifest lines parsed or written per block: bounds the Python strings and
# floats held at once.
MANIFEST_CHUNK_LINES = 256


class ParseError(ValueError):
    """Malformed manifest or config file."""


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

    Lines are numbered as `str.splitlines` splits the text, and the file is
    read MANIFEST_CHUNK_LINES lines at a time.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return _read_manifest(path, (part for line in f for part in line.splitlines()))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_manifest(path, lines) -> Dataset:
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
        parsed = _parse_block(chunk, dim, len(samples))
        if parsed is None:  # some line is bad: the per-line parser names the first one
            parsed = _parse_lines(path, chunk, lineno, dim, len(samples))
        samples.extend(parsed)
        lineno += len(chunk)
    if not samples:
        raise ParseError(f"{path}: no data lines")
    return Dataset(samples=samples, feature_dim=dim)


def _parse_block(lines: list[str], dim: int, first_id: int) -> list[Sample] | None:
    """Parse manifest body lines with one float conversion; None if any line is bad."""
    labels = []
    tokens: list[str] = []
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            return None
        feats = parts[2].split()
        if len(feats) != dim:
            return None
        labels.append(parts[:2])
        tokens.extend(feats)
    try:
        block = np.array(tokens, dtype=np.float64).reshape(len(labels), dim)
    except ValueError:
        return None
    if not np.isfinite(block).all():
        return None
    return [
        Sample(first_id + i, identity, domain, block[i])
        for i, (identity, domain) in enumerate(labels)
    ]


def _parse_lines(path, lines: list[str], first_lineno: int, dim: int, first_id: int) -> list[Sample]:
    """Parse manifest body lines one by one; the first bad line raises with its line number."""
    samples = []
    for lineno, line in enumerate(lines, start=first_lineno):
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
        samples.append(Sample(first_id + len(samples), identity, domain, feats))
    return samples


def save_manifest(dataset: Dataset, path) -> None:
    """Write a Dataset as a `.hem` manifest (17 significant digits, round-trip exact).

    Raises ParseError or ShapeError, before the file is opened, for an empty
    dataset, a feature_dim or a sample `load_manifest` would reject or read
    back differently.
    """
    if not dataset.samples:
        raise ParseError("empty dataset: a manifest needs at least one data line")
    identities = dict.fromkeys(s.identity for s in dataset.samples)
    domains = dict.fromkeys(s.domain for s in dataset.samples)
    for label in [*identities, *domains]:
        if "," in label or "".join(label.splitlines()) != label:
            raise ParseError(f"label {label!r} holds a comma or line break")
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


def split_by_identity(dataset: Dataset, train_fraction: float, seed: int):
    """Identity-disjoint train/test split; both sides keep at least one identity."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    identities = dataset.identities()
    if len(identities) < 2:
        raise ValueError("need at least 2 identities to split")
    n_train = min(max(round(train_fraction * len(identities)), 1), len(identities) - 1)
    train_ids = set(draw_distinct(np.random.default_rng(seed), identities, n_train))
    train = [s for s in dataset.samples if s.identity in train_ids]
    test = [s for s in dataset.samples if s.identity not in train_ids]
    return (
        Dataset(samples=train, feature_dim=dataset.feature_dim),
        Dataset(samples=test, feature_dim=dataset.feature_dim),
    )


def split_enroll_probe(dataset: Dataset, per_identity_enroll: int, seed: int):
    """Per identity, enroll a fixed number of samples; the rest become probes."""
    check_field("per_identity_enroll", per_identity_enroll, 1)
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
    gallery = [s for s in dataset.samples if s.id in gallery_ids]
    probes = [s for s in dataset.samples if s.id not in gallery_ids]
    return (
        Dataset(samples=gallery, feature_dim=dataset.feature_dim),
        Dataset(samples=probes, feature_dim=dataset.feature_dim),
    )
