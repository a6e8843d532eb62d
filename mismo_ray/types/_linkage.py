"""Core pipeline currency: LinksTable and Linkage.

Reference:
- LinksTable: /root/reference/mismo/types/_links_table.py:15-44 (pairs table
  with >= columns record_id_l, record_id_r plus per-pair feature columns;
  ``with_both`` attaches ``_l``/``_r`` record columns).
- Linkage: /root/reference/mismo/linkage/_linkage.py:17-132 (dataclass of
  {left, right, links}; persists as three parquet directories — our natural
  per-stage checkpoint unit, with a JSON manifest carrying lineage + counters).
- link_counts / with_n_links: /root/reference/mismo/types/_linked_table.py:192-303
  (per-record link count incl. the zero bucket).

Ray-Data mapping: each member is a ``ray.data.Dataset``. Attaching
``_l``/``_r`` record columns and per-record link counts is one lookup: a
small side is collected once as an Arrow table, ``ray.put`` and looked up
per batch with the ``_joins`` kernel (``lookup_positions`` + ``take_rows``);
a large one goes through ``_joins.bucketed_lookup_join``, one keyed shuffle
whose buckets run the same kernel. Counts are bucketed aggregates over the
links only (never over the record corpus).
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count

from mismo_ray._joins import (
    bucketed_lookup_join,
    default_num_partitions,
    lookup_positions,
    partition_hint,
    take_rows,
)
from mismo_ray._util import EMPTY_LINKS_SCHEMA, base_schema_or, collect_table, hash64

# with_both collects record tables of at most this many rows
BROADCAST_ROWS = 200_000
# with_n_links collects at most this many per-record counts
N_LINKS_BROADCAST_ROWS = 5_000_000


def _names(columns: Sequence[str] | None) -> list[str] | None:
    return None if columns is None else list(columns)


def _side_schema(ds: ray.data.Dataset, columns: Sequence[str] | None) -> pa.Schema:
    """``ds``'s schema; for an empty side without one, null-typed record_id
    and ``columns`` (zero rows, so the types never meet data)."""
    names = ["record_id", *(columns or [])]
    return base_schema_or(ds, pa.schema([pa.field(c, pa.null()) for c in names]))


def collect_side(ds: ray.data.Dataset, columns: Sequence[str] | None) -> pa.Table:
    """A record table's record_id + ``columns`` (every column when None) as
    one Arrow table; an empty one has the ``_side_schema``."""
    names = None if columns is None else ["record_id", *columns]
    t = collect_table(ds if names is None else ds.select_columns(names))
    if not t.num_columns:
        t = _side_schema(ds, columns).empty_table()
    # select again: Ray's projection of an empty Dataset keeps the columns
    # it projected away
    return (t if names is None else t.select(names)).combine_chunks()


def attach_collected(
    links: ray.data.Dataset, left: pa.Table, right: pa.Table
) -> ray.data.Dataset:
    """links + every non-id column of ``left`` suffixed ``_l`` (looked up by
    record_id_l) and of ``right`` suffixed ``_r`` (by record_id_r): both
    tables are put in the object store once and each batch takes all their
    columns at the looked-up positions. A miss gives nulls; zero-row,
    column-less blocks pass through."""
    ref = ray.put((left, right))

    def attach(t: pa.Table) -> pa.Table:
        if not t.num_columns:
            return t
        for side, key, suffix in zip(
            ray.get(ref), ("record_id_l", "record_id_r"), ("_l", "_r")
        ):
            pos = lookup_positions(t[key], side["record_id"])
            rows = take_rows(side.drop_columns(["record_id"]), pos)
            for name, col in zip(rows.column_names, rows.columns):
                t = t.append_column(f"{name}{suffix}", col)
        return t

    return links.map_batches(attach, batch_format="pyarrow")


def _attach_shuffled(
    links: ray.data.Dataset,
    schema: pa.Schema,
    records: ray.data.Dataset,
    columns: Sequence[str] | None,
    key: str,
    suffix: str,
    num_partitions: int | None,
) -> tuple[ray.data.Dataset, pa.Schema]:
    """links (of ``schema``) + suffixed record columns looked up by ``key``
    in one bucketed lookup join: the columns travel packed in one struct,
    so list payloads and struct ids work. Returns the output schema too."""
    base = _side_schema(records, columns)
    cols = [c for c in base.names if c != "record_id"] if columns is None else list(columns)
    if not cols:
        return links, schema
    rec_type = pa.struct([base.field(c) for c in cols])

    def pack(t: pa.Table) -> pa.Table:
        rec = pa.StructArray.from_arrays(
            [t[c].combine_chunks() for c in cols], fields=list(rec_type)
        )
        return pa.table({"record_id": t["record_id"], "__rec__": rec})

    def unpack(t: pa.Table) -> pa.Table:
        rec = t["__rec__"].combine_chunks()
        t = t.drop_columns(["__rec__"])
        for c, col in zip(cols, rec.flatten()):
            t = t.append_column(f"{c}{suffix}", col)
        return t

    with partition_hint(num_partitions) if num_partitions else nullcontext():
        joined = bucketed_lookup_join(
            links,
            key,
            records.map_batches(pack, batch_format="pyarrow"),
            key_name="record_id",
            val_name="__rec__",
            out_type=rec_type,
            result_name="__rec__",
            on_missing=lambda missing: pa.nulls(len(missing), rec_type),
            ds_schema=schema,
        )
    out_schema = pa.schema(
        list(schema) + [pa.field(f"{c}{suffix}", base.field(c).type) for c in cols]
    )
    return joined.map_batches(unpack, batch_format="pyarrow"), out_schema


class LinksTable:
    """A Dataset of candidate/confirmed pairs + handles to both record tables."""

    def __init__(
        self,
        links: ray.data.Dataset,
        *,
        left: ray.data.Dataset,
        right: ray.data.Dataset,
        schema: pa.Schema | None = None,
    ):
        self.ds = links
        self.left = left
        self.right = right
        self.schema = schema  # known links schema (avoids plan execution)

    def _links_schema(self) -> pa.Schema:
        return self.schema or base_schema_or(self.ds, EMPTY_LINKS_SCHEMA)

    def with_left(
        self, columns: Sequence[str] | None = None, *, num_partitions: int | None = None
    ) -> ray.data.Dataset:
        """links + ``<col>_l`` columns, looked up in one keyed shuffle (a
        link whose id has no record gets nulls)."""
        return _attach_shuffled(
            self.ds, self._links_schema(), self.left, columns,
            "record_id_l", "_l", num_partitions,
        )[0]

    def with_right(
        self, columns: Sequence[str] | None = None, *, num_partitions: int | None = None
    ) -> ray.data.Dataset:
        """links + ``<col>_r`` columns, looked up like ``with_left``."""
        return _attach_shuffled(
            self.ds, self._links_schema(), self.right, columns,
            "record_id_r", "_r", num_partitions,
        )[0]

    def with_both(
        self,
        columns_l: Sequence[str] | None = None,
        columns_r: Sequence[str] | None = None,
        *,
        num_partitions: int | None = None,
    ) -> ray.data.Dataset:
        """links + ``<col>_l`` and ``<col>_r`` columns (every record column
        but record_id when ``columns_*`` is None); a link whose id has no
        record gets nulls, and a null id matches a null record_id.

        Record tables of at most ``BROADCAST_ROWS`` rows are collected once
        as Arrow tables and attached in one map over the links
        (``attach_collected``). Larger ones are attached with one bucketed
        lookup join per side (the scale path)."""
        n_left = self.left.count()
        n_right = n_left if self.right is self.left else self.right.count()
        if max(n_left, n_right) <= BROADCAST_ROWS:
            left = collect_side(self.left, columns_l)
            same = self.right is self.left and _names(columns_r) == _names(columns_l)
            right = left if same else collect_side(self.right, columns_r)
            return attach_collected(self.ds, left, right)
        schema = self._links_schema()
        out = self.ds
        for records, columns, key, suffix in (
            (self.left, columns_l, "record_id_l", "_l"),
            (self.right, columns_r, "record_id_r", "_r"),
        ):
            out, schema = _attach_shuffled(
                out, schema, records, columns, key, suffix, num_partitions
            )
        return out

    def count(self) -> int:
        return self.ds.count()


class Linkage:
    """{left, right, links} — the central unit passed between pipeline stages."""

    def __init__(
        self,
        *,
        left: ray.data.Dataset,
        right: ray.data.Dataset,
        links: ray.data.Dataset,
        links_schema: pa.Schema | None = None,
    ):
        self.left = left
        self.right = right
        self._links = links
        self._links_schema = links_schema

    @property
    def links(self) -> LinksTable:
        return LinksTable(
            self._links, left=self.left, right=self.right,
            schema=self._links_schema,
        )

    @property
    def links_ds(self) -> ray.data.Dataset:
        return self._links

    # ------------------------------------------------------------ persistence
    def to_parquets(self, directory: str, *, counters: dict | None = None) -> None:
        """Checkpoint: left/ right/ links/ parquet dirs + manifest.json."""
        os.makedirs(directory, exist_ok=True)
        for name, ds in (("left", self.left), ("right", self.right), ("links", self._links)):
            ds.write_parquet(os.path.join(directory, name))
        manifest = {
            "format": "mismo_ray.Linkage",
            "created_unix": time.time(),
            "counters": counters or {},
        }
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2)

    @classmethod
    def from_parquets(cls, directory: str) -> "Linkage":
        return cls(
            left=ray.data.read_parquet(os.path.join(directory, "left")),
            right=ray.data.read_parquet(os.path.join(directory, "right")),
            links=ray.data.read_parquet(os.path.join(directory, "links")),
        )

    # ------------------------------------------------------------ diagnostics
    def _n_links_ds(self, side: str) -> ray.data.Dataset:
        """(record_id, n_links) per record of ``side`` with links. Links are
        distinct pairs by construction (linkers dedup). One bucketed shuffle
        on the id hash, counted per bucket with the lookup kernel, so null
        and struct ids count like any other."""
        key = "record_id_l" if side == "left" else "record_id_r"
        B = default_num_partitions()

        def bucket(t: pa.Table) -> pa.Table:
            ids = t[key].combine_chunks()
            b = (hash64(ids) % np.uint64(B)).astype(np.int64)
            return pa.table({"record_id": ids, "__nb__": pa.array(b)})

        def count(g: pa.Table) -> pa.Table:
            ids = g["record_id"].combine_chunks()
            # each id's first row in the bucket, one count per first row
            first, n = np.unique(lookup_positions(ids, ids), return_counts=True)
            return pa.table(
                {"record_id": take_rows(ids, first), "n_links": pa.array(n)}
            )

        return (
            self._links.map_batches(bucket, batch_format="pyarrow")
            .groupby("__nb__")
            .map_groups(count, batch_format="pyarrow")
        )

    def with_n_links(self, side: str = "left") -> ray.data.Dataset:
        """Records of ``side`` with an ``n_links`` column (0 for unlinked).

        The per-record counts are materialized once. At most
        ``N_LINKS_BROADCAST_ROWS`` of them are collected and looked up in
        one map over the records (no shuffle); more are attached with a
        bucketed lookup join."""
        counts = self._n_links_ds(side).materialize()
        records = self.left if side == "left" else self.right
        if counts.count() > N_LINKS_BROADCAST_ROWS:
            return bucketed_lookup_join(
                records,
                "record_id",
                counts,
                key_name="record_id",
                val_name="n_links",
                out_type=pa.int64(),
                result_name="n_links",
                on_missing=lambda missing: pa.array(
                    np.zeros(len(missing), dtype=np.int64)
                ),
            )
        ref = ray.put(collect_table(counts).combine_chunks())

        def attach(t: pa.Table) -> pa.Table:
            c = ray.get(ref)
            if not t.num_columns:
                return t
            if c.num_rows:
                pos = lookup_positions(t["record_id"], c["record_id"])
                n = take_rows(c["n_links"], pos).fill_null(0)
            else:  # no links: every record has 0
                n = pa.array(np.zeros(len(t), dtype=np.int64))
            return t.append_column("n_links", n)

        return records.map_batches(attach, batch_format="pyarrow")

    def link_counts(self, side: str = "left") -> ray.data.Dataset:
        """Histogram: n_links -> n_records, including the zero bucket
        (reference _linked_table.py:247-303)."""
        with_n = self.with_n_links(side)
        return with_n.groupby("n_links").aggregate(Count(alias_name="n_records"))
