"""FusedOrLinker: OR of several key-blocking rules in ONE pass + ONE shuffle.

``OrLinker([KeyLinker(r) for r in rules])`` runs each rule separately: K
passes over the records, K count pre-passes and K keyed sort shuffles. At
corpus scale every extra pass re-reads the table and every extra shuffle is
an all-to-all exchange. Fused: one map emits, per record, one keyed row PER
RULE — the block hash folds the rule id in, so rules occupy disjoint block
spaces — and the shared pair-generation core
(:func:`mismo_ray.linker._pairgen.block_pairs`: count pre-pass, hot-key and
one-sided drop, salting, bucketed enumeration, asymmetric-dedupe rule) runs
ONCE over the union. A second, independently-seeded key hash rides along as
the exact-key column ``__keyv__`` the enumerator sub-groups on (collision
probability 2^-128 instead of per-value equality — the key TUPLE itself
can't be a column because rules have heterogeneous key sets).

Semantics match OrLinker over KeyLinkers with the same settings, for both
tasks: per-rule hot-key drop and n*n max_pairs quirk (each (rule, key) group
is its own block), unordered dedupe pairs, overlaps removed via one distinct.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import ray.data

from mismo_ray._joins import distinct
from mismo_ray._util import hash64, splitmix64
from mismo_ray.keys import KeySpec, resolve_keys
from mismo_ray.linker._common import infer_task
from mismo_ray.linker._pairgen import block_pairs, eval_keys, links_schema
from mismo_ray.types import Linkage

_KEYV = "__keyv__"


def _rule_hashes(key_arrays, rule_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """(block, keyv): two independently-seeded combined hashes of the key
    tuple, each folded with the rule id."""
    n = len(key_arrays[0])
    h1 = np.full(n, np.uint64(1469598103934665603), dtype=np.uint64)
    h2 = np.full(n, np.uint64(0x9E3779B97F4A7C15), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for arr in key_arrays:
            h1 = splitmix64(h1 ^ hash64(arr))
            h2 = splitmix64(h2 ^ hash64(arr, seed=0x5EED))
        block = splitmix64(h1 ^ (np.uint64(0xF00D) + np.uint64(rule_idx)))
        keyv = splitmix64(h2 ^ (np.uint64(0xCAFE) + np.uint64(rule_idx)))
    return block, keyv


class FusedOrLinker:
    def __init__(
        self,
        rules: Sequence,
        *,
        max_pairs: int | None = None,
        salt_rows: int | None = 2048,
    ):
        self.rules: list[list[KeySpec]] = [resolve_keys(r) for r in rules]
        self.max_pairs = max_pairs
        self.salt_rows = salt_rows
        self.last_counters: dict = {}

    def _project(self, ds: ray.data.Dataset, side: str) -> ray.data.Dataset:
        """(record_id, __keyv__, __block__): one row per record per rule
        whose keys are all non-null."""
        rules = self.rules

        def fn(batch: pa.Table) -> pa.Table:
            outs = []
            for ridx, keys in enumerate(rules):
                key_arrays, null_mask = eval_keys(batch, keys, side)
                block, keyv = _rule_hashes(key_arrays, ridx)
                out = pa.table(
                    {
                        "record_id": batch["record_id"],
                        _KEYV: pa.array(keyv.astype(np.int64)),
                        "__block__": pa.array(block.astype(np.int64)),
                    }
                )
                if null_mask.any():
                    out = out.filter(pa.array(~null_mask))
                outs.append(out)
            return pa.concat_tables(outs)

        return ds.map_batches(fn, batch_format="pyarrow")

    def __call__(
        self, left: ray.data.Dataset, right: ray.data.Dataset
    ) -> Linkage:
        task = infer_task(task=None, left=left, right=right)
        links, counters = block_pairs(
            left,
            right,
            self._project,
            [_KEYV],
            task=task,
            symmetric=all(
                k.left_fn is k.right_fn for keys in self.rules for k in keys
            ),
            max_pairs=self.max_pairs,
            salt_rows=self.salt_rows,
        )
        counters["n_rules"] = len(self.rules)
        self.last_counters = counters
        # a pair found by several rules appears once per rule
        links = distinct(links, ["record_id_l", "record_id_r"])
        return Linkage(
            left=left,
            right=right,
            links=links,
            links_schema=links_schema(left, right, task),
        )
