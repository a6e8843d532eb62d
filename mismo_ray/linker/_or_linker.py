"""OrLinker: union of N linkers with overlap removal.

Reference: /root/reference/mismo/linker/_or_linker.py:20-77 — pairs produced
by condition_i AND NOT any earlier condition, so each pair appears exactly
once. Ray-Data mapping (SURVEY §2.3): run each sub-linker, union the link
Datasets, and dedup with one hash-shuffle ``distinct`` on
(record_id_l, record_id_r) — same pair set, cheaper than re-evaluating
earlier predicates per pair.
"""

from __future__ import annotations

from collections.abc import Sequence

import ray.data

from mismo_ray._joins import distinct
from mismo_ray.linker._common import Linker
from mismo_ray.linker._pairgen import links_schema
from mismo_ray.types import Linkage


class OrLinker:
    def __init__(self, linkers: Sequence[Linker]):
        self.linkers = list(linkers)
        self.last_counters: dict = {}

    def __call__(
        self, left: ray.data.Dataset, right: ray.data.Dataset
    ) -> Linkage:
        links_list = []
        self.last_counters = {}
        for i, linker in enumerate(self.linkers):
            lk = linker(left, right)
            links_list.append(
                lk.links_ds.select_columns(["record_id_l", "record_id_r"])
            )
            sub = getattr(linker, "last_counters", None)
            if sub:
                self.last_counters[f"rule_{i}"] = dict(sub)
        unioned = links_list[0]
        for other in links_list[1:]:
            unioned = unioned.union(other)
        deduped = distinct(unioned, ["record_id_l", "record_id_r"])
        return Linkage(
            left=left,
            right=right,
            links=deduped,
            links_schema=links_schema(left, right, "link"),
        )
