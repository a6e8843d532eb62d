"""FullLinker / EmptyLinker (reference: /root/reference/mismo/linker/_basic.py:11-40)
and IDLinker (reference: /root/reference/mismo/linker/_id_linker.py:13-127)."""

from __future__ import annotations

import pyarrow as pa
import ray.data

from mismo_ray.keys import KeySpec
from mismo_ray.linker._common import Task, infer_task
from mismo_ray.linker._pairgen import generate_pairs, links_schema
from mismo_ray.types import Linkage


def _const_key() -> KeySpec:
    def one(batch: pa.Table) -> pa.Array:
        return pa.array([1] * len(batch), type=pa.int8())

    return KeySpec("__all__", one, one)


class FullLinker:
    """All M x N pairs (dedupe: n(n-1)/2). Salting keeps each enumeration task
    bounded, but the output volume is quadratic — test/sampling use only."""

    def __init__(self, *, task: Task | None = None, salt_rows: int | None = 2048):
        self.task = task
        self.salt_rows = salt_rows

    def __call__(self, left: ray.data.Dataset, right: ray.data.Dataset) -> Linkage:
        task = infer_task(task=self.task, left=left, right=right)
        links, _ = generate_pairs(
            left, right, [_const_key()], task=task, salt_rows=self.salt_rows
        )
        return Linkage(
            left=left,
            right=right,
            links=links,
            links_schema=links_schema(left, right, task),
        )


class EmptyLinker:
    """No pairs."""

    def __call__(self, left: ray.data.Dataset, right: ray.data.Dataset) -> Linkage:
        schema = links_schema(left, left, "dedupe")
        links = ray.data.from_arrow(schema.empty_table())
        return Linkage(left=left, right=right, links=links, links_schema=schema)


class IDLinker:
    """Equality on an authoritative id column: a KeyLinker on that column
    (nulls never match, per SQL semantics — the reference's null/not-equal
    policy knobs reduce to post-filters on the produced links)."""

    def __init__(self, id_column: str, *, task: Task | None = None):
        from mismo_ray.linker._key_linker import KeyLinker

        self._linker = KeyLinker(id_column, task=task)

    def __call__(self, left: ray.data.Dataset, right: ray.data.Dataset) -> Linkage:
        return self._linker(left, right)
