"""Fellegi-Sunter training (reference: /root/reference/mismo/fs/_train.py).

Semantics pinned by the reference:

- ``level_proportions``: histogram of labels per level with **add-one
  smoothing for unseen levels** (_train.py:17-41);
- m weights estimated from true pairs (label_true equi-join, dedupe-inferred,
  _train.py:120-175); u weights from a random cross-product sample, splink's
  "assume sampled pairs are non-matches" (_train.py:44-76);
- ``make_weights`` removes the else level (_train.py:271-280).

Ray mapping. The u-sample (and EM's whole sample, ``_train_em``) is
labelled by ``sample_labels``: the driver collects the sampled records of
``linker._sample.sample_sides`` (~sqrt(max_pairs) per side, only the compared
columns), sorts them by record_id and ``ray.put``s them once; ``ray.remote``
tasks then enumerate fixed ranges of pair indices (``i < j`` for dedupe,
``i x j`` for link), ``take`` their pair slice from the shared sample and
run the comparers on it. No pair Dataset is built. The m-sample of true
pairs is a Linkage of arbitrary pairs: its records are collected with a
map-only filter and attached per link batch by the same lookup as
``LinksTable.with_both``'s small-side route (``_pairs_broadcast``). The
label matrices are collected to the driver, where the per-level histograms
are numpy bincounts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mismo_ray._util import collect_table
from mismo_ray.compare import LevelComparer, compare
from mismo_ray.fs._weights import ComparerWeights, LevelWeights, Weights
from mismo_ray.linker._key_linker import KeyLinker
from mismo_ray.linker._sample import sample_sides
from mismo_ray.types import Linkage

# pairs labelled per remote task of ``sample_labels``
_LABEL_TASK_PAIRS = 1 << 16


def level_proportions(levels: Sequence[str], labels) -> list[float]:
    """Proportion of labels per level (integer labels over the full level
    list), add-one smoothed for unseen levels."""
    n_levels = len(levels)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        if labels.dtype.kind == "f":
            # pandas int-with-null round trip: NaN rows belong to no level
            labels = labels[~np.isnan(labels)]
        else:
            # representation="string" comparers label by LEVEL NAME: map
            # names to indices over the full level list (unknown names ->
            # the implicit else index, same slot integer labels use) — a
            # raw np.asarray(..., int64) raised on the string mode. An
            # object matrix mixing string and integer comparers keeps its
            # ints, which are already level indices.
            name_to_idx = {name: i for i, name in enumerate(levels)}
            labels = np.array(
                [
                    x
                    if isinstance(x, (int, np.integer))
                    else name_to_idx.get(x, n_levels)
                    for x in labels
                ],
                dtype=np.int64,
            )
    labels = labels.astype(np.int64)
    counts = np.bincount(labels, minlength=n_levels).astype(np.float64)
    counts[counts == 0] = 1.0  # add-one smoothing (reference :31-38)
    return list(counts / counts.sum())


def make_weights(
    comparer: LevelComparer, ms: Sequence[float], us: Sequence[float]
) -> ComparerWeights:
    levels = comparer.levels
    assert len(ms) == len(us) == len(levels)
    lws = [
        LevelWeights(lev, m=m, u=u) for lev, m, u in zip(levels, ms, us)
    ]
    return ComparerWeights(comparer.name, [lw for lw in lws if lw.name != "else"])


def _pairs_broadcast(linkage: Linkage, columns: Sequence[str]) -> "ray.data.Dataset":
    """Assemble (links + suffixed columns) pair rows for a SAMPLE linkage
    without shuffling the corpus: the sample is bounded by max_pairs by
    construction, so the referenced records fit a broadcast — collect them
    via a map-only filter pass, then attach them per link batch with
    ``attach_collected`` (no joins, no corpus reshuffle)."""
    from mismo_ray._joins import broadcast_isin
    from mismo_ray.types._linkage import attach_collected, collect_side

    links = linkage.links_ds
    ends = collect_table(links.select_columns(["record_id_l", "record_id_r"]))

    def ids(*names: str) -> pa.Array:
        if not ends.num_rows:
            return pa.array([])
        return pc.unique(pa.chunked_array([c for n in names for c in ends[n].chunks]))

    def collect(src, idset: pa.Array) -> pa.Table:
        src = src.select_columns(["record_id", *columns])
        return collect_side(broadcast_isin(src, "record_id", idset), columns)

    if linkage.right is linkage.left:
        slim_l = slim_r = collect(linkage.left, ids("record_id_l", "record_id_r"))
    else:
        slim_l = collect(linkage.left, ids("record_id_l"))
        slim_r = collect(linkage.right, ids("record_id_r"))
    return attach_collected(links, slim_l, slim_r)


def _collect_sorted(ds: ray.data.Dataset, columns) -> pa.Table | None:
    """``ds`` (record_id + ``columns``, or every column) as one table sorted
    by record_id; None when it has no rows."""
    if columns is not None:
        ds = ds.select_columns(["record_id", *columns])
    t = collect_table(ds)
    if not t.num_rows:
        return None
    return t.take(pc.sort_indices(t, [("record_id", "ascending")]))


@ray.remote
def _label_range(sides, comparers, dedupe: bool, start: int, stop: int) -> list:
    """Labels of pairs ``start..stop-1`` of the sample's pair enumeration:
    row-major ``i < j`` over the one sorted side (dedupe, so
    ``record_id_l < record_id_r``), else row-major ``i x j``."""
    sl, sr = sides
    p = np.arange(start, stop, dtype=np.int64)
    if dedupe:
        n = sl.num_rows
        rows = np.arange(n, dtype=np.int64)
        first = rows * n - rows * (rows + 1) // 2  # index of pair (i, i + 1)
        i = np.searchsorted(first, p, side="right") - 1
        j = p - first[i] + i + 1
    else:
        i, j = np.divmod(p, sr.num_rows)
    batch = pa.table(
        {
            f"{c}{suffix}": side[c].take(rows)
            for side, rows, suffix in ((sl, i, "_l"), (sr, j, "_r"))
            for c in side.column_names
        }
    )
    return [c.label_batch(batch).to_numpy(zero_copy_only=False) for c in comparers]


def sample_labels(
    comparers: Sequence[LevelComparer],
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
    columns: Sequence[str] | None = None,
) -> np.ndarray:
    """(n_pairs, n_comparers) level labels of the pair sample of
    ``sample_all_links`` (same pairs, same orientation; row order may
    differ). ``columns``: the record columns the comparers read (default:
    every column).

    The sampled sides are collected once, sorted by record_id and shared
    with ``ray.put``; each remote task labels a fixed range of
    ``_LABEL_TASK_PAIRS`` pair indices, building its slice with ``take``."""
    comparers = list(comparers)
    n_pairs = 0
    sides = sample_sides(left, right, max_pairs=max_pairs, seed=seed)
    if sides is not None:
        task, sub_l, sub_r, _ = sides
        dedupe = task == "dedupe"
        sl = _collect_sorted(sub_l, columns)
        sr = sl if dedupe else _collect_sorted(sub_r, columns)
        if sl is not None and sr is not None:
            n_l, n_r = sl.num_rows, sr.num_rows
            n_pairs = n_l * (n_l - 1) // 2 if dedupe else n_l * n_r
    if not n_pairs:
        return np.stack([np.array([], dtype=np.int64) for _ in comparers], axis=1)
    sides_ref = ray.put((sl, sr))
    comparers_ref = ray.put(comparers)
    parts = ray.get(
        [
            _label_range.remote(
                sides_ref, comparers_ref, dedupe, start,
                min(start + _LABEL_TASK_PAIRS, n_pairs),
            )
            for start in range(0, n_pairs, _LABEL_TASK_PAIRS)
        ]
    )
    return np.stack(
        [np.concatenate([part[k] for part in parts]) for k in range(len(comparers))],
        axis=1,
    )


def _labels_matrix(
    linkage: Linkage,
    comparers: Sequence[LevelComparer],
    columns: Sequence[str] | None = None,
) -> np.ndarray:
    """(n_pairs, n_comparers) integer level labels of the true-pair sample
    ``linkage``, computed distributed and collected (sample-sized by
    construction). With ``columns`` given, pair assembly uses the broadcast
    path (no corpus shuffle); otherwise the general with_both joins."""
    # pin the sample links: the pair-assembly consumes them (twice on the
    # join path) and a lazy pair DAG would be re-executed per consumption
    linkage = Linkage(
        left=linkage.left,
        right=linkage.right,
        links=linkage.links_ds.materialize(),
        links_schema=linkage.links.schema,
    )
    if columns is not None:
        pairs = _pairs_broadcast(linkage, list(columns))
    else:
        pairs = linkage.links.with_both()
    labeled = compare(pairs, list(comparers))
    names = [c.name for c in comparers]
    cols = [[] for _ in names]
    for b in labeled.iter_batches(batch_format="pyarrow"):
        for i, name in enumerate(names):
            cols[i].append(b[name].to_numpy(zero_copy_only=False))
    return np.stack(
        [
            np.concatenate(c) if c else np.array([], dtype=np.int64)
            for c in cols
        ],
        axis=1,
    )


def true_pairs_from_labels(
    left: ray.data.Dataset, right: ray.data.Dataset, **linker_kwargs
) -> Linkage:
    """Pairs sharing label_true (reference _train.py:166-175; null labels are
    ignored because null keys never match). ``linker_kwargs`` forward to
    KeyLinker (e.g. count_prepass=False when cluster sizes are bounded)."""
    return KeyLinker("label_true", **linker_kwargs)(left, right)


def train_using_labels(
    comparers: Sequence[LevelComparer],
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
    columns: Sequence[str] | None = None,
    true_linker_kwargs: dict | None = None,
) -> Weights:
    """m from true (label_true) pairs, u from a random cross-product sample.
    ``columns``: the record columns the comparers read — enables the
    broadcast (no-shuffle) pair assembly for the bounded samples."""
    comparers = list(comparers)
    # ---- m: true pairs (subsample records if the true-pair set is huge)
    tp = true_pairs_from_labels(left, right, **(true_linker_kwargs or {}))
    tp = Linkage(
        left=tp.left, right=tp.right,
        links=tp.links_ds.materialize(), links_schema=tp.links.schema,
    )
    n_true = tp.links_ds.count()
    if n_true > max_pairs:
        # sample PAIRS independently via a hash threshold on the
        # (record_id_l, record_id_r) pair — sampling by left record would
        # keep/drop whole clusters together and bias m-weights when cluster
        # sizes are skewed (reference samples pairs uniformly)
        from mismo_ray._util import combine_hash_columns

        thresh = np.uint64(int(min(1.0, max_pairs / n_true) * 2**64))
        pair_seed = (seed or 0) ^ 0xD1CE

        def sample_pairs(t: pa.Table) -> pa.Table:
            h = combine_hash_columns(
                t, ["record_id_l", "record_id_r"], seed=pair_seed
            )
            return t.filter(pa.array(h < thresh))

        links = tp.links_ds.map_batches(sample_pairs, batch_format="pyarrow")
        tp = Linkage(left=tp.left, right=tp.right, links=links)
    m_labels = _labels_matrix(tp, comparers, columns)
    # ---- u: random pair sample, assumed non-matches
    u_labels = sample_labels(
        comparers, left, right, max_pairs=max_pairs, seed=seed, columns=columns
    )
    out = []
    for i, c in enumerate(comparers):
        ms = level_proportions(c.levels, m_labels[:, i])
        us = level_proportions(c.levels, u_labels[:, i])
        out.append(make_weights(c, ms, us))
    return Weights(out)


def train_using_pairs(
    comparers: Sequence[LevelComparer],
    true_links: ray.data.Dataset,
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    max_pairs: int = 1_000_000,
    seed: int = 0,
    columns: Sequence[str] | None = None,
) -> Weights:
    """Like train_using_labels but with explicit true (record_id_l, record_id_r)
    pairs (reference _train.py:179-224)."""
    comparers = list(comparers)
    tp = Linkage(left=left, right=right, links=true_links)
    m_labels = _labels_matrix(tp, comparers, columns)
    u_labels = sample_labels(
        comparers, left, right, max_pairs=max_pairs, seed=seed, columns=columns
    )
    out = []
    for i, c in enumerate(comparers):
        out.append(
            make_weights(
                c,
                level_proportions(c.levels, m_labels[:, i]),
                level_proportions(c.levels, u_labels[:, i]),
            )
        )
    return Weights(out)
