"""Leipzig affiliations dedupe — real-world noisy-string ER.

The affiliations benchmark (playdata.load_affiliations) is raw publication
affiliation strings: abbreviations, addresses glued onto org names, e-mail
fragments, and ground-truth labels the upstream converter itself calls "not
very reliable" (reference leipzig/make_affiliations.py docstring) —
identical org strings can carry different labels. This pipeline is the
honest-noise end of the golden-data conformance suite: a simple tuned rule
whose achievable band (documented in tests/test_affiliations.py) is pair
precision ≳0.6 at recall ≳0.37 — far below febrl/RLdata ceilings, matching
the dataset's published difficulty. Transitive closure is deliberately NOT
applied: with labels this noisy a handful of bad links chain mega-clusters
(measured: CC drops precision from 0.6 to <0.1 at this threshold).

Shape (all distributed, same machinery as the big pipelines):
1. featurize: one vectorized batch map -> ``keys`` list column (lowercased
   alnum tokens, len > 2, tiny stopset).
2. blocking: UnnestLinker over rare tokens only — document frequency
   <= ``max_df`` via ``sets.rare_terms`` (distributed count), broadcast as
   one hash set per actor. Hot tokens ("university", city names) never
   explode.
3. verify: token-set jaccard >= ``bar`` on the carried key sets, computed
   from the pair's two joined key lists (one with_both join), vectorized
   over the flattened list arrays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mismo_ray.linker._unnest import UnnestLinker
from mismo_ray.types import Linkage

_STOP = ("of", "the", "and", "for", "de", "at", "in", "usa", "inc")


def featurize_affiliations(
    records: ray.data.Dataset, column: str = "affiliation"
) -> ray.data.Dataset:
    """Add ``keys``: distinct lowercased alnum tokens (len > 2, minus a tiny
    stopset) of the affiliation string."""
    stop = set(_STOP)

    def fn(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(t[column].combine_chunks())
        s = pc.replace_substring_regex(s, pattern=r"[^a-z0-9 ]", replacement=" ")
        toks = pc.split_pattern_regex(s, pattern=" +")
        flat = toks.values
        ok = np.asarray(pc.utf8_length(flat), dtype=np.int64) > 2
        ok &= ~np.asarray(pc.is_in(flat, value_set=pa.array(sorted(stop))), dtype=bool)
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        csum = np.concatenate([[0], np.cumsum(ok.astype(np.int64))])
        kept = flat.filter(pa.array(ok))
        new_off = csum[offsets]
        lists = pa.ListArray.from_arrays(pa.array(new_off, type=pa.int32()), kept)
        # distinct within each row (pairgen's explode dedups too, but the
        # jaccard below needs set semantics)
        return t.append_column("keys", _distinct_lists(lists))

    return records.map_batches(fn, batch_format="pyarrow")


def _distinct_lists(lists: pa.ListArray) -> pa.ListArray:
    """Per-row distinct over a list<string> array, vectorized."""
    from mismo_ray._util import hash64

    flat = lists.values
    offsets = np.asarray(lists.offsets, dtype=np.int64)
    n = len(lists)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    h = hash64(flat)
    order = np.lexsort((h, row))
    keep = np.ones(len(row), dtype=bool)
    keep[1:] = (row[order][1:] != row[order][:-1]) | (h[order][1:] != h[order][:-1])
    sel = np.sort(order[keep])  # original order of survivors
    kept_flat = flat.take(pa.array(sel))
    counts = np.bincount(row[sel], minlength=n)
    new_off = np.concatenate([[0], np.cumsum(counts)])
    return pa.ListArray.from_arrays(pa.array(new_off, type=pa.int32()), kept_flat)


def _block_keys_distributed(
    feat: ray.data.Dataset, rare: ray.data.Dataset, keyed_filter
) -> ray.data.Dataset:
    """The scale path of rare-token blocking: keys exploded to
    (record_id, term, pos) rows, semi-filtered against the rare-term
    Dataset (bucketed ``pc.is_in``, nothing collected), regrouped to
    ``block_keys`` lists per coarse hash bucket (vectorized lexsort, not
    per-record python), and attached back to ``feat`` with the same
    bucketed lookup join the cluster code uses for list payloads."""
    from mismo_ray._joins import bucketed_lookup_join, default_num_partitions
    from mismo_ray._util import hash64

    B = default_num_partitions()

    def explode(t: pa.Table) -> pa.Table:
        lists = t["keys"].combine_chunks()
        offsets = np.asarray(lists.offsets, dtype=np.int64)
        sizes = np.diff(offsets)
        rid = np.repeat(np.asarray(t["record_id"], dtype=np.int64), sizes)
        pos = np.arange(len(lists.values), dtype=np.int64) - np.repeat(
            offsets[:-1], sizes
        )
        return pa.table(
            {
                "record_id": pa.array(rid),
                "term": lists.values,
                "pos": pa.array(pos),
            }
        )

    exploded = feat.map_batches(explode, batch_format="pyarrow")
    kept = keyed_filter(exploded, rare, on="term")

    def bucket(t: pa.Table) -> pa.Table:
        h = hash64(np.asarray(t["record_id"], dtype=np.int64))
        return t.append_column(
            "__bkt__", pa.array((h % np.uint64(B)).astype(np.int64))
        )

    def regroup(g: pa.Table) -> pa.Table:
        rid = np.asarray(g["record_id"], dtype=np.int64)
        if len(rid) == 0:
            return pa.table(
                {
                    "record_id": pa.array([], type=pa.int64()),
                    "block_keys": pa.array([], type=pa.list_(pa.string())),
                }
            )
        pos = np.asarray(g["pos"], dtype=np.int64)
        order = np.lexsort((pos, rid))
        terms = g["term"].combine_chunks().take(
            pa.array(order, type=pa.int64())
        )
        rs = rid[order]
        starts = np.concatenate([[0], np.nonzero(rs[1:] != rs[:-1])[0] + 1])
        offsets = np.concatenate([starts, [len(rs)]])
        return pa.table(
            {
                "record_id": pa.array(rs[starts]),
                "block_keys": pa.ListArray.from_arrays(
                    pa.array(offsets, type=pa.int32()), terms
                ),
            }
        )

    regrouped = (
        kept.map_batches(bucket, batch_format="pyarrow")
        .groupby("__bkt__")
        .map_groups(regroup, batch_format="pyarrow")
    )
    return bucketed_lookup_join(
        feat,
        "record_id",
        regrouped,
        key_name="record_id",
        val_name="block_keys",
        out_type=pa.list_(pa.string()),
        result_name="block_keys",
        # records whose keys are all hot have no rare terms: empty block set
        on_missing=lambda missing: pa.array(
            [[]] * len(missing), type=pa.list_(pa.string())
        ),
    )


def affiliations_match_pairs(
    records: ray.data.Dataset,
    *,
    bar: float = 0.45,
    max_df: int = 200,
    max_broadcast_terms: int = 5_000_000,
) -> Linkage:
    """Predicted duplicate pairs: rare-token blocking + token-set jaccard
    >= ``bar`` over the full key sets.

    The rare-term set is broadcast (one ``ray.put`` array, read per actor)
    only while it holds <= ``max_broadcast_terms`` terms; past that — the
    rare-term TAIL of a web corpus grows with the corpus — blocking flips
    to the distributed path: explode keys -> ``keyed_filter`` semi join
    against the rare Dataset (never collected) -> regroup per record.
    Both paths produce identical block_keys (order preserved via element
    position); tests/test_affiliations.py forces the join path and checks
    pair-set equality."""
    from mismo_ray._joins import keyed_filter, partition_hint
    from mismo_ray.sets import rare_terms

    feat = featurize_affiliations(records).materialize()

    with partition_hint(8):
        rare = rare_terms(feat, "keys", max_records_n=max_df).materialize()
        if rare.count() <= max_broadcast_terms:
            rare_ref = ray.put(
                pa.array(sorted(r["term"] for r in rare.take_all()))
            )

            def block_keys(t: pa.Table) -> pa.Table:
                vs = ray.get(rare_ref)
                lists = t["keys"].combine_chunks()
                flat = lists.values
                ok = np.asarray(pc.is_in(flat, value_set=vs), dtype=bool)
                offsets = np.asarray(lists.offsets, dtype=np.int64)
                csum = np.concatenate([[0], np.cumsum(ok.astype(np.int64))])
                kept = flat.filter(pa.array(ok))
                lists2 = pa.ListArray.from_arrays(
                    pa.array(csum[offsets], type=pa.int32()), kept
                )
                return t.append_column("block_keys", lists2)

            blocked = feat.map_batches(block_keys, batch_format="pyarrow")
        else:
            blocked = _block_keys_distributed(feat, rare, keyed_filter)
        linkage = UnnestLinker("block_keys")(blocked, blocked)
        pairs = linkage.links

        both = pairs.with_both(["keys"], ["keys"], num_partitions=8)

        def verify(t: pa.Table) -> pa.Table:
            j = _listset_jaccard(
                t["keys_l"].combine_chunks(), t["keys_r"].combine_chunks()
            )
            return t.filter(pa.array(j >= bar)).select(
                ["record_id_l", "record_id_r"]
            )

        links = both.map_batches(verify, batch_format="pyarrow")
        links = links.materialize()
    return Linkage(left=records, right=records, links=links)


def _listset_jaccard(a: pa.ListArray, b: pa.ListArray) -> np.ndarray:
    """Row-wise jaccard of two list<string> arrays (rows already distinct):
    fully vectorized — hash both flattened sides, one lexsort over
    (row, hash, side), count adjacent same-(row,hash) cross-side matches."""
    from mismo_ray._util import hash64

    n = len(a)
    oa = np.asarray(a.offsets, dtype=np.int64)
    ob = np.asarray(b.offsets, dtype=np.int64)
    ca, cb = np.diff(oa), np.diff(ob)
    row = np.concatenate(
        [np.repeat(np.arange(n, dtype=np.int64), ca),
         np.repeat(np.arange(n, dtype=np.int64), cb)]
    )
    h = np.concatenate([hash64(a.values), hash64(b.values)])
    src = np.concatenate(
        [np.zeros(int(ca.sum()), dtype=np.int8), np.ones(int(cb.sum()), dtype=np.int8)]
    )
    order = np.lexsort((src, h, row))
    row, h, src = row[order], h[order], src[order]
    dup = np.zeros(len(row), dtype=bool)
    if len(row) > 1:
        dup[1:] = (
            (row[1:] == row[:-1]) & (h[1:] == h[:-1]) & (src[1:] != src[:-1])
        )
    inter = np.bincount(row[dup], minlength=n).astype(np.float64)
    union = (ca + cb).astype(np.float64) - inter
    return np.divide(inter, union, out=np.zeros(n), where=union > 0)
