"""Pair sampling (reference: /root/reference/mismo/linkage/_sample.py:11-117).

``sample_all_links`` draws a near-uniform sample of up to ``max_pairs`` pairs
from the M x N cross product. The reference generates random (row_idx_l,
row_idx_r) pairs and joins back by row number; Ray Data has no global row
index, so we instead take a deterministic hash-based record sample of each
side (~sqrt(max_pairs) records) and emit its cross product — the same
estimator splink uses for u-training (sample records, cross join). All
randomness derives from (seed, record_id) hashes: stable across parallelism
levels (SURVEY §4 determinism). ``sample_sides`` defines which records are
sampled; ``sample_all_links`` and the training label sample
(``fs._train.sample_labels``) both enumerate the pairs of its sides.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from mismo_ray._util import hash64
from mismo_ray.linker._common import Task
from mismo_ray.types import Linkage


def sample_records(
    ds: ray.data.Dataset, k: int, n: int | None = None, *, seed: int = 0
) -> ray.data.Dataset:
    """Deterministic uniform-ish sample of ~k records via a hash threshold on
    record_id (no global sort, no shuffle)."""
    if n is None:
        n = ds.count()
    if n == 0 or k >= n:
        return ds
    frac = min(1.0, k / n)
    thresh = np.uint64(int(frac * 2**64))

    def fn(batch: pa.Table) -> pa.Table:
        h = hash64(batch["record_id"], seed=seed or 0xD1CE)
        return batch.filter(pa.array(h < thresh))

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_sides(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> tuple[Task, ray.data.Dataset, ray.data.Dataset, int] | None:
    """The records whose pair product is the pair sample:
    ``(task, sub_l, sub_r, k)``, or None when the product is empty.

    ``task`` is "dedupe" (pairs ``record_id_l < record_id_r`` within
    ``sub_l``, which is then also ``sub_r``) when both sides are the same
    Dataset, else "link". When the full product fits ``max_pairs`` the sides
    are the inputs themselves and ``k`` is 0; otherwise each side is a hash
    sample of ``k = isqrt(max_pairs)`` records, seeded ``seed`` (left) and
    ``seed + 1`` (right)."""
    same = right is left
    n_l = left.count()
    n_r = n_l if same else right.count()
    if n_l * n_r == 0:
        return None
    task: Task = "dedupe" if same else "link"
    if n_l * n_r <= max_pairs:
        return task, left, right, 0
    k = max(2, math.isqrt(max_pairs))
    sub_l = sample_records(left, min(k, n_l), n_l, seed=seed)
    sub_r = sub_l if same else sample_records(right, min(k, n_r), n_r, seed=seed + 1)
    return task, sub_l, sub_r, k


def sample_all_links(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> Linkage:
    """Near-uniform sample of at most ~max_pairs pairs from the cross product.

    Dedupe-safe: when both sides are the same Dataset the FullLinker's task
    inference emits unordered non-self pairs.
    """
    from mismo_ray.linker._basic import EmptyLinker, FullLinker

    sides = sample_sides(left, right, max_pairs=max_pairs, seed=seed)
    if sides is None:
        return EmptyLinker()(left, right)
    task, sub_l, sub_r, k = sides
    if not k:
        return FullLinker(task=task)(left, right)
    # the sampled sides are ~sqrt(max_pairs) rows by construction: when that
    # fits one enumeration task, skip the count/salt pre-pass barriers
    linkage = FullLinker(task=task, salt_rows=None if k <= 2048 else 2048)(
        sub_l, sub_r
    )
    return Linkage(
        left=left, right=right, links=linkage.links_ds,
        links_schema=linkage.links.schema,
    )
