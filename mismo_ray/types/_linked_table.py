"""LinkedTable-style enrichment: with_linked_values
(reference: /root/reference/mismo/types/_linked_table.py:53-190).

``with_linked_values(linkage, side, columns)`` adds, for every record of
``side``, an array column per requested column holding the values of its
linked records from the OTHER side (the reference's default ``.collect()``
aggregate). Fully distributed: attach other-side values to the links
(LinksTable join), collect per-record value lists inside coarse hash-bucket
groups (one shuffle, vectorized sort+split per bucket — never a driver-side
gather), pack the lists into one struct column, and attach it to the records
with a bucketed lookup join (unlinked records get empty lists).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import ray.data

from mismo_ray._joins import default_num_partitions
from mismo_ray._util import hash64
from mismo_ray.types._linkage import Linkage


def with_linked_values(
    linkage: Linkage,
    columns: Sequence[str],
    *,
    side: str = "left",
    suffix: str = "_linked",
) -> ray.data.Dataset:
    """Records of ``side`` + one list column per requested other-side column
    (named ``{col}{suffix}``); records with no links get empty lists."""
    from mismo_ray._joins import bucketed_lookup_join

    columns = list(columns)
    own_key = "record_id_l" if side == "left" else "record_id_r"
    records = linkage.left if side == "left" else linkage.right

    if side == "left":
        pairs = linkage.links.with_right(columns)
        val_cols = [f"{c}_r" for c in columns]
    else:
        pairs = linkage.links.with_left(columns)
        val_cols = [f"{c}_l" for c in columns]

    _bs = records.schema(fetch_if_missing=True)
    if _bs is None:
        return records  # empty records: nothing to attach values to
    base = _bs.base_schema
    id_type = base.field("record_id").type
    elem_types = [
        base.field(c).type if c in base.names else pa.string() for c in columns
    ]
    struct_type = pa.struct(
        [pa.field(c, pa.list_(t)) for c, t in zip(columns, elem_types)]
    )
    B = default_num_partitions()

    def bucketize(t: pa.Table) -> pa.Table:
        h = (hash64(t[own_key]) % np.uint64(B)).astype(np.int64)
        return t.append_column("__wb__", pa.array(h))

    def collect_group(g: pa.Table) -> pa.Table:
        keys = g[own_key].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        # group boundaries over the sorted keys (vectorized split)
        bounds = np.flatnonzero(
            np.concatenate(([True], skeys[1:] != skeys[:-1]))
        )
        uniq = skeys[bounds]
        structs = []
        vals_sorted = [
            g[c].to_numpy(zero_copy_only=False)[order] for c in val_cols
        ]
        splits = [np.split(v, bounds[1:]) for v in vals_sorted]
        for gi in range(len(uniq)):
            structs.append(
                {c: splits[j][gi].tolist() for j, c in enumerate(columns)}
            )
        return pa.table(
            {
                "record_id": pa.array(uniq.tolist(), type=id_type),
                "__lv__": pa.array(structs, type=struct_type),
            }
        )

    mapping = (
        pairs.select_columns([own_key, *val_cols])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("__wb__")
        .map_groups(collect_group, batch_format="pyarrow")
    )

    empty_struct = {c: [] for c in columns}

    def empties(missing_keys: pa.Array) -> pa.Array:
        return pa.array([empty_struct] * len(missing_keys), type=struct_type)

    joined = bucketed_lookup_join(
        records,
        "record_id",
        mapping,
        key_name="record_id",
        val_name="__lv__",
        out_type=struct_type,
        result_name="__lv__",
        on_missing=empties,
        ds_schema=base,
    )

    def split(t: pa.Table) -> pa.Table:
        st = t["__lv__"].combine_chunks()
        t = t.drop_columns(["__lv__"])
        for c in columns:
            t = t.append_column(f"{c}{suffix}", st.field(c))
        return t

    return joined.map_batches(split, batch_format="pyarrow")
