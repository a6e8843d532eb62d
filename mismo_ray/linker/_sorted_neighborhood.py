"""Sorted-neighborhood blocking: pair each record with its ``window``
successors in global sort order of a key.

The reference has no SN linker (the north_star names it; SURVEY §7.2 step 4:
compose from ``ds.sort`` + windowed map over adjacent rows with boundary
overlap). Distributed design:

1. project to (record_id, __snkey__), drop null keys, global ``sort`` on
   (key, record_id) — a range shuffle producing ordered, range-disjoint
   blocks — and materialize it;
2. walk the sorted blocks in order; the driver reads only block refs and
   their row counts, and skips empty blocks;
3. one task per non-empty block gets that block plus the following
   non-empty blocks up to the one that completes ``window`` rows (a block
   smaller than the window reaches past its successor), reads only the
   first ``window`` rows of those, and emits every window pair whose LEFT
   row lies in its own block. The following blocks go in whole as object
   refs: on one node the task maps them from the object store without a
   copy, and a separate head-slicing task per block cost ~0.1 s more per
   call at 1,200 rows on one CPU (equal at 20,000 rows).

Each pair is owned by exactly one task — the one holding its left row — so
the union of the task outputs has no duplicates and needs no distinct.

Dedupe task only (two-table SN would interleave both sides; not needed by the
reference surface).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mismo_ray._util import base_schema_or, linker_fallback_schema
from mismo_ray.keys import KeySpec, resolve_keys
from mismo_ray.types import Linkage


@ray.remote
def _window_pairs(w: int, block: pa.Table, *following: pa.Table) -> pa.Table:
    """Pairs (row p, row p + d), 1 <= d <= w, for every row p of ``block``;
    ``following`` are the next non-empty sorted blocks, of which only the
    first ``w`` rows in total are read."""
    n = block.num_rows
    rid = pa.chunked_array(
        [t["record_id"] for t in (block, *following)], block["record_id"].type
    ).slice(0, n + w)
    left = [np.arange(min(n, len(rid) - d)) for d in range(1, w + 1)]
    il = np.concatenate(left)
    ir = np.concatenate([p + d for d, p in enumerate(left, 1)])
    a, b = rid.take(il), rid.take(ir)
    swap = pc.greater(a, b)
    return pa.table(
        {"record_id_l": pc.if_else(swap, b, a), "record_id_r": pc.if_else(swap, a, b)}
    )


class SortedNeighborhoodLinker:
    def __init__(self, key, *, window: int = 3):
        keys = resolve_keys(key)
        if len(keys) != 1:
            raise ValueError("SortedNeighborhoodLinker takes exactly one key")
        self.key: KeySpec = keys[0]
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.last_counters: dict = {}

    def __call__(
        self, left: ray.data.Dataset, right: ray.data.Dataset
    ) -> Linkage:
        if right is not left:
            raise NotImplementedError(
                "SortedNeighborhoodLinker supports the dedupe task only"
            )
        w = self.window
        key = self.key

        def project(t: pa.Table) -> pa.Table:
            arr = key(t, "left")
            out = pa.table({"record_id": t["record_id"], "__snkey__": arr})
            return out.filter(pc.is_valid(out["__snkey__"]))

        sorted_ds = (
            left.map_batches(project, batch_format="pyarrow")
            .sort(["__snkey__", "record_id"])
            .materialize()
        )
        blocks = [
            (ref, meta.num_rows)
            for bundle in sorted_ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks
            if meta.num_rows
        ]
        pair_refs = []
        for i, (ref, _) in enumerate(blocks):
            following, held = [], 0
            for next_ref, rows in blocks[i + 1 :]:
                if held >= w:
                    break
                following.append(next_ref)
                held += rows
            pair_refs.append(_window_pairs.remote(w, ref, *following))

        self.last_counters = {"window": w}
        rid_t = base_schema_or(left, linker_fallback_schema()).field("record_id").type
        schema = pa.schema(
            [pa.field("record_id_l", rid_t), pa.field("record_id_r", rid_t)]
        )
        links = (
            ray.data.from_arrow_refs(pair_refs)
            if pair_refs
            else ray.data.from_arrow(schema.empty_table())
        )
        return Linkage(left=left, right=right, links=links, links_schema=schema)
