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

from .data import Dataset, draw_distinct
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
    groups: dict[tuple[str, str], list[int]]  # (identity, domain) -> sample ids
    identities: list[str]
    domains: list[str]

    def group(self, identity: str, domain: str) -> list[int]:
        return self.groups.get((identity, domain), [])


@dataclass
class SampledTuple:
    anchor_id: int
    pos_same_id: int
    pos_cross_id: int
    neg_same_ids: list[int]
    neg_cross_ids: list[int]
    identity_a: str
    identity_b: str
    domain_p: str
    domain_q: str


def build_index(dataset: Dataset) -> DatasetIndex:
    """Group sample ids by (identity, domain) with sorted label lists."""
    if not dataset.samples:
        raise ValueError("cannot index an empty dataset")
    groups: dict[tuple[str, str], list[int]] = {}
    for s in dataset.samples:
        groups.setdefault((s.identity, s.domain), []).append(s.id)
    for ids in groups.values():
        ids.sort()
    return DatasetIndex(
        groups=groups,
        identities=dataset.identities(),
        domains=dataset.domains(),
    )


def _compose(index, rng, spec, a, b, p, q) -> SampledTuple:
    anchor_id, pos_same_id = draw_distinct(rng, index.group(a, p), 2)
    (pos_cross_id,) = draw_distinct(rng, index.group(a, q), 1)
    return SampledTuple(
        anchor_id=anchor_id,
        pos_same_id=pos_same_id,
        pos_cross_id=pos_cross_id,
        neg_same_ids=draw_distinct(rng, index.group(b, p), spec.k),
        neg_cross_ids=draw_distinct(rng, index.group(b, q), spec.k),
        identity_a=a,
        identity_b=b,
        domain_p=p,
        domain_q=q,
    )


def _feasible_table(index: DatasetIndex) -> tuple[list, list[int]]:
    """Per domain pair (p, q, negatives, anchor positions among them), and cumulative counts.

    A negative has >= 1 sample in p and in q; an anchor also has >= 2 in p, so
    it is a negative too. Triples are numbered by ordered pair (p != q, domains
    sorted), then anchor, then negative b != a, identities sorted; pair k holds
    the numbers ends[k - 1] to ends[k] - 1.
    """
    if len(index.identities) < 2:
        raise InfeasibleError("index has fewer than 2 identities")
    if len(index.domains) < 2:
        raise InfeasibleError("no ordered domain pair available (need >= 2 domains)")
    table, ends = [], []
    for p, q in permutations(index.domains, 2):
        negatives = [b for b in index.identities if index.group(b, p) and index.group(b, q)]
        anchors = [s for s, a in enumerate(negatives) if len(index.group(a, p)) >= 2]
        table.append((p, q, negatives, anchors))
        ends.append((ends[-1] if ends else 0) + len(anchors) * (len(negatives) - 1))
    if not any(anchors for _, _, _, anchors in table):
        raise InfeasibleError("no identity has >= 2 samples in one domain and >= 1 in another")
    if not ends[-1]:
        raise InfeasibleError("no negative identity has samples in both domains of any feasible pair")
    return table, ends


def epoch_tuples(
    index: DatasetIndex, rng: np.random.Generator, spec: TupleSpec, n_tuples: int
) -> list[SampledTuple]:
    """n_tuples independent draws, each uniform over feasible (pair, anchor, negative), one table for all."""
    check_field("n_tuples", n_tuples, 0)
    if n_tuples == 0:
        return []
    table, ends = _feasible_table(index)
    tuples = []
    for _ in range(n_tuples):
        i = int(rng.integers(ends[-1]))
        k = bisect_right(ends, i)
        p, q, negatives, anchors = table[k]
        s, r = divmod(i - (ends[k - 1] if k else 0), len(negatives) - 1)
        a = anchors[s]  # a position among the negatives; the negative skips it
        tuples.append(_compose(index, rng, spec, negatives[a], negatives[r + (r >= a)], p, q))
    return tuples
