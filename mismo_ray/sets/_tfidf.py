"""TF-IDF over array columns (reference: /root/reference/mismo/sets/_tfidf.py).

Pinned semantics (reference doctests):

- ``document_counts``: term -> number of records whose array contains the term
  (a term twice in one record counts once) (_tfidf.py:11-73).
- ``term_idf``: idf = ln(N / df) with N = number of non-null rows (_tfidf.py:76-117).
- ``add_array_value_counts``: per-row multiset -> map<term, count>; null -> null,
  ``[]`` -> {} (_tfidf.py:122-190).
- ``add_tfidf``: L2-normalized count vector x idf (normalize=True default)
  (_tfidf.py:193-274).
- ``rare_terms``: terms with df <= n or df/N <= frac (_tfidf.py:277-315).

Ray-Data mapping: the per-row parts are plain ``map_batches``; the df
aggregation is a partial-aggregate inside each batch (one (term, df_partial)
row per batch) followed by a small ``groupby(term).sum`` — the only shuffle is
over the vocabulary, not the corpus. The idf table is then broadcast via
``ray.put`` into the per-batch tfidf computation (no corpus-side join).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from mismo_ray._joins import lookup_positions, take_rows
from mismo_ray._util import collect_table


def _terms_column(batch: pa.Table, column: str) -> list:
    return batch[column].to_pylist()


def document_counts(ds: ray.data.Dataset, column: str) -> ray.data.Dataset:
    """term -> n_records lookup Dataset with columns (term, n_records)."""

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for row in _terms_column(batch, column):
            if row is None:
                continue
            for t in set(row):
                c[t] += 1
        return pa.table(
            {"term": list(c.keys()), "n_records": list(c.values())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (
        partials.groupby("term")
        .aggregate(Sum("n_records", alias_name="n_records"))
    )


def _count_non_null(ds: ray.data.Dataset, column: str) -> int:
    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"n": [len(batch) - batch[column].null_count]})

    import pyarrow.compute as pc

    return sum(
        pc.sum(b["n"]).as_py() or 0
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )


def term_idf(ds: ray.data.Dataset, column: str) -> ray.data.Dataset:
    """term -> idf Dataset with columns (term, idf); idf = ln(N / df)."""
    n_total = _count_non_null(ds, column)
    dc = document_counts(ds, column)

    def to_idf(batch: pa.Table) -> pa.Table:
        df = np.asarray(batch["n_records"], dtype=np.float64)
        return pa.table({"term": batch["term"], "idf": np.log(n_total / df)})

    return dc.map_batches(to_idf, batch_format="pyarrow")


def _value_counts_row(row) -> list | None:
    if row is None:
        return None
    return [
        {"key": k, "value": v} for k, v in Counter(row).items()
    ]


def add_array_value_counts(
    ds: ray.data.Dataset, column: str, *, result_name: str = "{name}_counts"
) -> ray.data.Dataset:
    """Per-row term multiset as map<term, int64> (list<struct<key,value>> layout)."""
    name = result_name.format(name=column)

    def fn(batch: pa.Table) -> pa.Table:
        rows = _terms_column(batch, column)
        counts = [_value_counts_row(r) for r in rows]
        term_type = batch.schema.field(column).type.value_type
        arr = pa.array(
            counts,
            type=pa.list_(
                pa.struct([("key", term_type), ("value", pa.int64())])
            ),
        )
        return batch.append_column(name, arr)

    return ds.map_batches(fn, batch_format="pyarrow")


def add_tfidf(
    ds: ray.data.Dataset,
    column: str,
    *,
    result_name: str = "{name}_tfidf",
    normalize: bool = True,
    max_broadcast_vocab: int = 20_000_000,
) -> ray.data.Dataset:
    """Add a map<term, float64> TF-IDF column.

    The idf lookup is computed distributed, collected (it is vocabulary-sized),
    and broadcast to workers with ``ray.put`` — a broadcast join, not a shuffle.
    Vocabularies beyond ``max_broadcast_vocab`` raise instead of silently
    exhausting the driver: at that scale, compute ``term_idf(ds, column)``
    (stays a Dataset), explode the documents to (record_id, term) rows,
    attach idf with ``_joins.bucketed_lookup_join`` and re-group per record
    — the per-document map column then never needs a global broadcast.
    """
    name = result_name.format(name=column)
    idf_ds = term_idf(ds, column).materialize()
    n_vocab = idf_ds.count()
    if n_vocab > max_broadcast_vocab:
        raise ValueError(
            f"vocabulary has {n_vocab} distinct terms (> max_broadcast_vocab="
            f"{max_broadcast_vocab}); use the explode + bucketed_lookup_join "
            "recipe in this docstring instead of the broadcast path"
        )
    idf_ref = ray.put(collect_table(idf_ds).combine_chunks())

    def fn(batch: pa.Table) -> pa.Table:
        # vectorized explode -> (row, term-code) run-length count -> re-list;
        # the batch-local term dictionary meets the idf table through the
        # lookup kernel (a term missing from it has idf 0.0)
        idf = ray.get(idf_ref)
        term_type = batch.schema.field(column).type.value_type
        out_type = pa.list_(
            pa.struct([("key", term_type), ("value", pa.float64())])
        )
        lists = batch[column].combine_chunks()
        n = len(lists)
        if n == 0:
            return batch.append_column(name, pa.array([], type=out_type))
        sizes = pc.fill_null(pc.list_value_length(lists), 0)
        sizes = np.asarray(sizes, dtype=np.int64)
        flat = lists.flatten()  # valid rows' values, null rows contribute 0
        if len(flat) == 0:
            empty_struct = pa.StructArray.from_arrays(
                [
                    pa.array([], type=term_type),
                    pa.array([], type=pa.float64()),
                ],
                names=["key", "value"],
            )
            arr = pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, dtype=np.int64), type=pa.int32()),
                empty_struct,
            )
        else:
            row = np.repeat(np.arange(n, dtype=np.int64), sizes)
            enc = pc.dictionary_encode(flat)
            dict_terms = enc.dictionary
            idx = enc.indices
            v = len(dict_terms)
            codes = np.asarray(pc.fill_null(idx, v), dtype=np.int64)
            has_null_term = bool(idx.null_count)
            # per-(row, code) counts via one lexsort + run-length boundaries
            order = np.lexsort((codes, row))
            rs, cs = row[order], codes[order]
            new = np.ones(len(rs), dtype=bool)
            new[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
            starts = np.nonzero(new)[0]
            counts = np.diff(np.concatenate([starts, [len(rs)]])).astype(
                np.float64
            )
            grow, gcode = rs[starts], cs[starts]
            if normalize:
                nrm2 = np.zeros(n, dtype=np.float64)
                np.add.at(nrm2, grow, counts * counts)
                tf = counts / np.sqrt(nrm2[grow])
            else:
                tf = counts
            terms = dict_terms
            if has_null_term:
                terms = pa.concat_arrays([terms, pa.nulls(1, term_type)])
            pos = lookup_positions(terms, idf["term"])
            idf_vals = np.asarray(
                take_rows(idf["idf"], pos).fill_null(0.0), dtype=np.float64
            )
            values = tf * idf_vals[gcode]
            keys = terms.take(pa.array(gcode, type=pa.int64()))
            struct = pa.StructArray.from_arrays(
                [keys, pa.array(values, type=pa.float64())],
                names=["key", "value"],
            )
            per_row = np.bincount(grow, minlength=n)
            offsets = np.concatenate([[0], np.cumsum(per_row)])
            arr = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()), struct
            )
        if lists.null_count:
            take_idx = pa.array(
                np.arange(n, dtype=np.int64),
                mask=~np.asarray(lists.is_valid(), dtype=bool),
            )
            arr = arr.take(take_idx)  # null rows -> null maps
        return batch.append_column(name, arr)

    return ds.map_batches(fn, batch_format="pyarrow")


def rare_terms(
    ds: ray.data.Dataset,
    column: str,
    *,
    max_records_n: int | None = None,
    max_records_frac: float | None = None,
) -> ray.data.Dataset:
    """Terms appearing in few records; Dataset with one column ``term``."""
    if (max_records_n is None) == (max_records_frac is None):
        raise ValueError(
            "Exactly one of max_records_n or max_records_frac must be set"
        )
    dc = document_counts(ds, column)
    if max_records_n is not None:
        thresh = max_records_n

        def keep(batch: pa.Table) -> pa.Table:
            mask = np.asarray(batch["n_records"]) <= thresh
            return batch.filter(pa.array(mask)).select(["term"])
    else:
        n_total = _count_non_null(ds, column)

        def keep(batch: pa.Table) -> pa.Table:
            frac = np.asarray(batch["n_records"], dtype=np.float64) / n_total
            return batch.filter(pa.array(frac <= max_records_frac)).select(["term"])

    return dc.map_batches(keep, batch_format="pyarrow")
