"""Random tuple composition from an indexed dataset.

No hard mining: the sampler sees only labels and an RNG stream, never
embeddings or distances. All internal choices run over sorted label
lists so results are independent of dict iteration order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .data import Dataset, check_distinct_ids, draw_distinct
from .net import check_field


class InfeasibleError(ValueError):
    """No valid tuple can be drawn from the index."""


@dataclass(frozen=True)
class TupleSpec:
    """Up to k negatives per domain; (p, q) ranges over every ordered pair of the data's domains."""

    k: int = 4

    def __post_init__(self):
        check_field("k", self.k, 1)


@dataclass
class DatasetIndex:
    """The feasible-triple table, built once from the labels.

    `pairs` holds, per ordered domain pair (p != q, domains sorted), the tuple
    (p, q, negatives, in_p, in_q, anchors): the identities with >= 1 sample in p
    and in q (sorted), each one's rows (positions in `dataset.samples`) in p and
    in q in sample-id order, and the positions among them of the anchors, which
    also have >= 2 samples in p.
    Triples are numbered by pair, then anchor, then negative b != a; pair k
    holds the numbers ends[k - 1] to ends[k] - 1.
    """

    pairs: list[tuple[str, str, list[str], list[list[int]], list[list[int]], list[int]]]
    ends: list[int]
    identities: list[str]
    domains: list[str]


@dataclass
class SampledTuple:
    """One draw, as rows of the indexed dataset: the members, then the labels they came from."""

    anchor: int
    pos_same: int
    pos_cross: int
    negs_same: list[int]
    negs_cross: list[int]
    identity_a: str
    identity_b: str
    domain_p: str
    domain_q: str


def build_index(dataset: Dataset) -> DatasetIndex:
    """The dataset's feasible-triple table (see DatasetIndex); infeasibility shows at the first draw."""
    if not dataset.samples:
        raise ValueError("cannot index an empty dataset")
    check_distinct_ids(dataset)
    groups: dict[tuple[str, str], list[int]] = {}
    for row, s in sorted(enumerate(dataset.samples), key=lambda item: item[1].id):
        groups.setdefault((s.identity, s.domain), []).append(row)
    identities, domains = dataset.identities(), dataset.domains()
    pairs, ends = [], []
    for p, q in permutations(domains, 2):
        negatives = [b for b in identities if (b, p) in groups and (b, q) in groups]
        in_p, in_q = [groups[b, p] for b in negatives], [groups[b, q] for b in negatives]
        anchors = [s for s, rows in enumerate(in_p) if len(rows) >= 2]
        pairs.append((p, q, negatives, in_p, in_q, anchors))
        ends.append((ends[-1] if ends else 0) + len(anchors) * (len(negatives) - 1))
    return DatasetIndex(pairs=pairs, ends=ends, identities=identities, domains=domains)


def epoch_tuples(
    index: DatasetIndex, rng: np.random.Generator, spec: TupleSpec, n_tuples: int
) -> list[SampledTuple]:
    """n_tuples independent draws, each uniform over the index's feasible (pair, anchor, negative) triples."""
    check_field("n_tuples", n_tuples, 0)
    if n_tuples == 0:
        return []
    ends = index.ends
    if len(index.identities) < 2:
        raise InfeasibleError("index has fewer than 2 identities")
    if len(index.domains) < 2:
        raise InfeasibleError("no ordered domain pair available (need >= 2 domains)")
    if not any(pair[-1] for pair in index.pairs):
        raise InfeasibleError("no identity has >= 2 samples in one domain and >= 1 in another")
    if not ends[-1]:
        raise InfeasibleError("no negative identity has samples in both domains of any feasible pair")
    tuples = []
    for _ in range(n_tuples):
        i = int(rng.integers(ends[-1]))
        k = bisect_right(ends, i)
        p, q, negatives, in_p, in_q, anchors = index.pairs[k]
        s, r = divmod(i - (ends[k - 1] if k else 0), len(negatives) - 1)
        a = anchors[s]
        b = r + (r >= a)  # the negative's position skips the anchor's
        anchor, pos_same = draw_distinct(rng, in_p[a], 2)
        (pos_cross,) = draw_distinct(rng, in_q[a], 1)
        tuples.append(SampledTuple(
            anchor=anchor,
            pos_same=pos_same,
            pos_cross=pos_cross,
            negs_same=draw_distinct(rng, in_p[b], spec.k),
            negs_cross=draw_distinct(rng, in_q[b], spec.k),
            identity_a=negatives[a],
            identity_b=negatives[b],
            domain_p=p,
            domain_q=q,
        ))
    return tuples
