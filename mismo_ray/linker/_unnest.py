"""UnnestLinker: link records sharing ANY element of an array key
(reference: /root/reference/mismo/linker/_unnest.py:12-99).

Ray mapping (SURVEY §2.3): explode the array column to (record_id, token)
rows inside ``map_batches`` (distinct per row, so duplicate tokens in one
record don't self-inflate), reuse the pair-generation core keyed on the
token (inheriting the max_pairs hot-token drop + salting), then one distinct
on the pair ids (a pair sharing k tokens is produced k times).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from mismo_ray._joins import distinct
from mismo_ray.keys import KeySpec, resolve_keys
from mismo_ray.linker._common import Task, infer_task
from mismo_ray.linker._pairgen import generate_pairs, links_schema
from mismo_ray.types import Linkage


def _explode(ds: ray.data.Dataset, key: KeySpec, side: str) -> ray.data.Dataset:
    """(record_id, token) rows — fully vectorized: arrow ``flatten`` +
    ``np.repeat`` for the unnest; per-row duplicate tokens dropped with one
    lexsort over (row, token-hash) and a consecutive-dup mask (so duplicate
    tokens in one record don't self-inflate pair counts)."""
    import numpy as np
    import pyarrow.compute as pc

    from mismo_ray._util import hash64

    def fn(t: pa.Table) -> pa.Table:
        arr = key(t, side)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        empty = pa.table(
            {
                "record_id": t["record_id"].combine_chunks().slice(0, 0),
                "token": pa.array([], type=arr.type.value_type),
            }
        )
        if n == 0:
            return empty
        lengths = np.asarray(
            pc.fill_null(pc.list_value_length(arr), 0), dtype=np.int64
        )
        row_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
        flat = arr.flatten()  # null rows contribute nothing (lengths 0)
        if len(flat) == 0:
            return empty
        valid = ~np.asarray(flat.is_null())
        # per-row distinct: sort (row, token hash), keep first of each run.
        # a 64-bit hash collision WITHIN one row would drop a distinct token
        # (p ~ k^2/2^64 per row — negligible, and blocking-recall-only).
        h = hash64(flat)
        order = np.lexsort((h, row_idx))
        dup = np.zeros(len(order), dtype=bool)
        if len(order) > 1:
            dup[1:] = (row_idx[order[1:]] == row_idx[order[:-1]]) & (
                h[order[1:]] == h[order[:-1]]
            )
        keep = order[~dup & valid[order]]
        take_tok = pa.array(keep, type=pa.int64())
        take_row = pa.array(row_idx[keep], type=pa.int64())
        return pa.table(
            {
                "record_id": t["record_id"].take(take_row),
                "token": flat.take(take_tok),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


class UnnestLinker:
    def __init__(
        self,
        key,
        *,
        max_pairs: int | None = None,
        salt_rows: int | None = 2048,
        task: Task | None = None,
    ):
        keys = resolve_keys(key)
        if len(keys) != 1:
            raise ValueError("UnnestLinker takes exactly one array key")
        self.key: KeySpec = keys[0]
        self.max_pairs = max_pairs
        self.salt_rows = salt_rows
        self.task = task
        self.last_counters: dict = {}

    def __call__(
        self, left: ray.data.Dataset, right: ray.data.Dataset
    ) -> Linkage:
        task = infer_task(task=self.task, left=left, right=right)
        ex_left = _explode(left, self.key, "left")
        ex_right = ex_left if right is left else _explode(right, self.key, "right")
        links, counters = generate_pairs(
            ex_left,
            ex_right,
            resolve_keys("token"),
            task=task,
            max_pairs=self.max_pairs,
            salt_rows=self.salt_rows,
        )
        self.last_counters = counters
        deduped = distinct(links, ["record_id_l", "record_id_r"])
        return Linkage(
            left=left,
            right=right,
            links=deduped,
            links_schema=links_schema(left, right, task),
        )
