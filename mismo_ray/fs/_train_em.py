"""Unsupervised EM training (reference: /root/reference/mismo/fs/_train_em.py:17-93).

Exact reference semantics: init u from the sample's level proportions and m
uniform (1/n_levels); run **5 fixed iterations**; each iteration scores the
sample, splits at odds >= 10, and re-estimates m/u from the match/non-match
partitions with add-one smoothing.

Ray mapping: the pair sample (bounded by max_pairs) is labelled ONCE by
``fs._train.sample_labels``: the ~sqrt(max_pairs) sampled records are
collected and shared, and a few ``ray.remote`` tasks each label a fixed
range of pair indices — no pair Dataset. The label matrix is collected and
the 5 EM rounds run as numpy bincounts on the driver — the reference
likewise materializes the sample (cache(), _train_em.py:48-49) before
looping.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import ray.data

from mismo_ray.compare import LevelComparer
from mismo_ray.fs._train import level_proportions, make_weights, sample_labels
from mismo_ray.fs._weights import Weights


def train_using_em(
    comparers: Sequence[LevelComparer],
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
    n_iter: int = 5,
    match_odds: float = 10.0,
    columns=None,
) -> Weights:
    comparers = list(comparers)
    labels = sample_labels(  # (n_pairs, n_comparers)
        comparers, left, right, max_pairs=max_pairs, seed=seed, columns=columns
    )
    weights = Weights(
        [
            make_weights(
                c,
                [1 / len(c.levels)] * len(c.levels),
                level_proportions(c.levels, labels[:, i]),
            )
            for i, c in enumerate(comparers)
        ]
    )
    n = labels.shape[0]
    for _ in range(n_iter):
        odds = np.ones(n, dtype=np.float64)
        for i, c in enumerate(comparers):
            odds *= weights[c.name].odds(labels[:, i])
        is_match = odds >= match_odds
        weights = Weights(
            [
                make_weights(
                    c,
                    level_proportions(c.levels, labels[is_match, i]),
                    level_proportions(c.levels, labels[~is_match, i]),
                )
                for i, c in enumerate(comparers)
            ]
        )
    return weights
