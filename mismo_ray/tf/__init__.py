"""Term-frequency weighting and lookup filterers
(reference: /root/reference/mismo/tf/).

- ``column_stats``: value -> (count, frequency) lookup for one column
  (_tf.py:17-49);
- ``TermFrequencyModel``: per-record product of per-column value frequencies,
  unseen values defaulting to 1/N (_tf.py:51-144);
- ``RareLookupFilterer``: drop needles whose key combination is too common in
  the haystack (_filterer.py:14-85);
- ``AmbiguousHaystackFilterer``: drop haystack records whose key appears more
  than once (_filterer.py:88-127).

Ray mapping: frequency tables are materialized (value, n) groupby-counts;
vocabularies up to ``broadcast_threshold`` are collected as Arrow tables,
shipped with ``ray.put`` and looked up map-side with the ``_joins`` lookup
kernel; larger ones stay Datasets and are applied with
``_joins.bucketed_lookup_join`` — corpus-sized vocabularies never touch the
driver. Both routes give each row a count ``n`` and one loop multiplies
``n / N`` (``1 / N`` for an unseen value).
The ambiguity filterer is a distributed bucketed window filter (no dup-set
collect).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count


def column_stats(ds: ray.data.Dataset, column: str) -> ray.data.Dataset:
    """(value, n, frequency) lookup Dataset for one column."""
    n_total = ds.count()
    counts = ds.groupby(column).aggregate(Count(alias_name="n"))

    def add_freq(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n"], dtype=np.float64)
        return t.append_column("frequency", pa.array(n / n_total))

    return counts.map_batches(add_freq, batch_format="pyarrow")


class TermFrequencyModel:
    """Per-column value->frequency lookups fit on a corpus; applied as the
    product of frequencies across columns (unseen value -> 1/N).

    ``fit`` keeps one materialized (value, n) count table per column.
    Vocabularies up to ``broadcast_threshold`` distinct values are collected
    and looked up map-side (one map, no shuffle); larger vocabularies apply
    via bucketed lookup joins (one keyed shuffle per column)."""

    def __init__(self, columns: Sequence[str], *, broadcast_threshold: int = 2_000_000):
        self.columns = list(columns)
        self.broadcast_threshold = broadcast_threshold
        self._count_ds: dict[str, ray.data.Dataset] = {}
        self._n_total = 0

    def fit(self, ds: ray.data.Dataset) -> "TermFrequencyModel":
        self._n_total = ds.count()
        for c in self.columns:
            self._count_ds[c] = (
                ds.groupby(c).aggregate(Count(alias_name="n")).materialize()
            )
        return self

    def add_term_frequencies(
        self,
        ds: ray.data.Dataset,
        *,
        name_as: str = "frequency",
        columns: dict[str, str] | None = None,
    ) -> ray.data.Dataset:
        """Append the product-of-frequencies column. ``columns`` maps the
        fitted column names to the names in ``ds`` (defaults to identity)."""
        from mismo_ray._joins import bucketed_lookup_join, lookup_positions, take_rows
        from mismo_ray._util import collect_table

        if not self._count_ds:
            raise RuntimeError("call fit() first")
        colmap = columns or {c: c for c in self.columns}
        n_total = max(self._n_total, 1)

        # per fitted column: its collected count table (small vocabulary) or
        # None, when a bucketed lookup join adds its counts as a column
        out = ds
        small: dict[str, pa.Table | None] = {}
        for fit_col, ds_col in colmap.items():
            counts = self._count_ds[fit_col]
            if counts.count() <= self.broadcast_threshold:
                small[fit_col] = collect_table(counts).combine_chunks()
                continue
            small[fit_col] = None
            out = bucketed_lookup_join(
                out,
                ds_col,
                counts,
                key_name=fit_col,
                val_name="n",
                out_type=pa.int64(),
                result_name=f"__tfn_{fit_col}",
                on_missing=lambda missing: pa.array(
                    [0] * len(missing), type=pa.int64()
                ),
            )
        tmp_cols = [f"__tfn_{f}" for f, t in small.items() if t is None]
        ref = ray.put(small)

        def fn(t: pa.Table) -> pa.Table:
            tables = ray.get(ref)
            prod = np.ones(len(t), dtype=np.float64)
            for fit_col, ds_col in colmap.items():
                counts = tables[fit_col]
                if counts is None:
                    n = t[f"__tfn_{fit_col}"]
                elif counts.num_rows:
                    pos = lookup_positions(t[ds_col], counts[fit_col])
                    n = take_rows(counts["n"], pos)
                else:
                    n = pa.nulls(len(t), pa.int64())
                n = np.asarray(n.fill_null(0), dtype=np.float64)
                prod *= np.where(n > 0, n / n_total, 1.0 / n_total)
            return t.drop_columns(tmp_cols).append_column(name_as, pa.array(prod))

        return out.map_batches(fn, batch_format="pyarrow")


class RareLookupFilterer:
    """Keep only needles whose key-combination frequency in the haystack is
    <= max_frequency."""

    def __init__(self, columns: Sequence[str], *, max_frequency: float):
        self.columns = list(columns)
        self.max_frequency = float(max_frequency)

    def rare_needle(
        self, *, haystack: ray.data.Dataset, needle: ray.data.Dataset
    ) -> ray.data.Dataset:
        model = TermFrequencyModel(self.columns).fit(haystack)
        with_freq = model.add_term_frequencies(needle, name_as="__freq__")
        thresh = self.max_frequency

        def keep(t: pa.Table) -> pa.Table:
            f = np.asarray(t["__freq__"], dtype=np.float64)
            return t.filter(pa.array(f <= thresh)).drop_columns(["__freq__"])

        return with_freq.map_batches(keep, batch_format="pyarrow")


class AmbiguousHaystackFilterer:
    """Drop haystack records whose key combination appears more than once
    (an ambiguous lookup target)."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)

    def unambiguous_haystack(self, haystack: ray.data.Dataset) -> ray.data.Dataset:
        """Distributed bucketed window filter (hash(key) % ~2xCPUs shuffle,
        vectorized duplicated-mask per bucket) — the ambiguous-key set is
        never collected to the driver."""
        from mismo_ray._joins import default_num_partitions
        from mismo_ray._util import combine_hash_columns

        cols = self.columns
        B = default_num_partitions()

        def bucketize(t: pa.Table) -> pa.Table:
            h = (combine_hash_columns(t, cols) % np.uint64(B)).astype(np.int64)
            return t.append_column("__abkt__", pa.array(h))

        def per_bucket(g: pa.Table) -> pa.Table:
            import pandas as pd

            df = pd.DataFrame({c: g[c].to_numpy(zero_copy_only=False) for c in cols})
            keep = ~df.duplicated(keep=False).to_numpy()
            return g.filter(pa.array(keep)).drop_columns(["__abkt__"])

        return (
            haystack.map_batches(bucketize, batch_format="pyarrow")
            .groupby("__abkt__")
            .map_groups(per_bucket, batch_format="pyarrow")
        )
