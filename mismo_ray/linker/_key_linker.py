"""KeyLinker: link records sharing ALL derived keys.

Reference: /root/reference/mismo/linker/_key_linker.py:16-233 (equi-join on N
keys; ``max_pairs`` hot-key guard at :195-222; dedupe ``record_id_l <
record_id_r`` at :190-193) and the key/pair-count diagnostics
(:235-368, :408-445).

Ray-Data design: see mismo_ray/linker/_pairgen.py — one keyed shuffle with a
count pre-pass for the hot-key drop (reference parity) plus salting of
surviving heavy keys (scale path; the reference has no salting because DuckDB
handles its skew internally).

Unlike the reference (whose links eagerly carry every record column suffixed
_l/_r), links here carry only (record_id_l, record_id_r) plus explicitly
requested ``carry`` columns; use ``Linkage.links.with_both()`` to attach the
rest lazily — same information, far less shuffle traffic at scale.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import ray.data

from mismo_ray._joins import hash_join
from mismo_ray._util import base_schema_or
from mismo_ray.keys import KeySpec, resolve_keys
from mismo_ray.linker._common import Task, infer_task
from mismo_ray.linker._pairgen import generate_pairs, links_schema, project_keyed
from mismo_ray.types import Linkage


class KeyLinker:
    def __init__(
        self,
        keys,
        *,
        max_pairs: int | None = None,
        task: Task | None = None,
        salt_rows: int | None = 2048,
        carry: Sequence[str] | None = None,
        name: str | None = None,
        count_prepass: bool = True,
    ):
        self.keys: list[KeySpec] = resolve_keys(keys)
        self.max_pairs = max_pairs
        self.task = task
        self.salt_rows = salt_rows
        # count_prepass=False: enforce max_pairs inside the reduce tasks and
        # skip the per-key count barrier — only for keys whose group size is
        # bounded by construction (see the _pairgen.block_pairs docstring)
        self.count_prepass = count_prepass
        self.carry = list(carry) if carry else []
        self.name = name or "+".join(k.name for k in self.keys)
        self.last_counters: dict = {}

    def __call__(
        self, left: ray.data.Dataset, right: ray.data.Dataset
    ) -> Linkage:
        task = infer_task(task=self.task, left=left, right=right)
        links, self.last_counters = generate_pairs(
            left,
            right,
            self.keys,
            task=task,
            max_pairs=self.max_pairs,
            salt_rows=self.salt_rows,
            carry=self.carry,
            count_prepass=self.count_prepass,
        )
        return Linkage(
            left=left,
            right=right,
            links=links,
            links_schema=links_schema(left, right, task, self.carry),
        )

    # ------------------------------------------------------------ diagnostics
    def _key_counts(self, ds: ray.data.Dataset, side: str) -> ray.data.Dataset:
        """Per-key record counts, null-keyed rows dropped, descending
        (reference _key_linker.py:408-415).

        Map-side combine first: each batch pre-aggregates its keys with the
        C-speed arrow ``group_by`` kernel, so the groupby shuffle moves
        per-batch distinct keys instead of raw rows (the partial/combiner
        rule for aggregations at scale)."""
        from ray.data.aggregate import Sum

        keyed = project_keyed(ds, self.keys, side, None)
        kcols = [f"__key_{k.name}" for k in self.keys]

        def partial(t: pa.Table) -> pa.Table:
            agg = t.select(kcols).group_by(kcols).aggregate([([], "count_all")])
            return agg.rename_columns([*kcols, "__pn"])

        counts = (
            keyed.map_batches(partial, batch_format="pyarrow")
            .groupby(kcols)
            .aggregate(Sum("__pn", alias_name="n"))
        )

        def rename(t: pa.Table) -> pa.Table:
            return t.rename_columns(
                [c.removeprefix("__key_") for c in t.column_names]
            )

        return counts.map_batches(rename, batch_format="pyarrow").sort(
            "n", descending=True
        )

    def hot_keys(
        self,
        ds: ray.data.Dataset,
        *,
        side: str = "left",
        k: int = 10,
        candidate_cap: int | None = None,
    ):
        """The ``k`` hottest blocking keys with EXACT record counts — the
        salting/max_pairs advisory — via the Misra-Gries sketch
        (:func:`mismo_ray.sketch.heavy_hitters`) instead of a full key
        shuffle: :meth:`key_counts_left` moves every distinct key through a
        groupby; this moves only bounded per-block summaries, then looks up
        the <= k winning key tuples in one filtered scan.

        Returns ``(table, guaranteed)``: a pa.Table of the key columns plus
        ``n`` (exact count) and ``share_e6`` (count/total, micro-units),
        sorted hottest first, and the sketch's completeness-proof flag
        (False = data too flat for a provable top-k at this candidate_cap —
        which itself means no salting is needed). Keys are profiled through
        the 64-bit composite ``__block__`` hash project_keyed already emits
        (computed ONCE per row, shared by both passes); a hash collision
        would merge two key tuples (probability ~k*distinct/2^64 —
        negligible, and irrelevant to the advisory use)."""
        from mismo_ray.sketch import heavy_hitters

        # pin the projection: it is consumed THREE times (sketch summary
        # pass, exact-verify pass, exemplar lookup) — lazy, the key fns +
        # composite hash would re-run over the corpus per pass
        keyed = project_keyed(ds, self.keys, side, None).materialize()
        kcols = [f"__key_{k_.name}" for k_ in self.keys]

        hh = heavy_hitters(
            keyed.map_batches(
                lambda t: t.select(["__block__"]), batch_format="pyarrow"
            ),
            "__block__",
            k=k,
            candidate_cap=candidate_cap,
        )
        names = [k_.name for k_ in self.keys]
        if len(hh.table) == 0:
            schema = base_schema_or(
                keyed,
                # empty input downstream of a map: key types unobservable,
                # and with zero rows any consistent type is safe
                pa.schema([pa.field(c, pa.null()) for c in kcols]),
            )
            empty = pa.table(
                {
                    **{
                        n: pa.array([], type=schema.field(f"__key_{n}").type)
                        for n in names
                    },
                    "n": pa.array([], type=pa.int64()),
                    "share_e6": pa.array([], type=pa.int64()),
                }
            )
            return empty, hh.guaranteed
        top_hashes = np.asarray(hh.table["__block__"], dtype=np.int64)
        hot_set = pa.array(top_hashes)

        def lookup(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.is_in(t["__block__"].combine_chunks(), value_set=hot_set)
            sub = t.select(["__block__", *kcols]).filter(mask)
            sub = sub.rename_columns(["__kh", *kcols])
            # one exemplar per hash per block: <= k rows out per block
            return (
                sub.group_by("__kh")
                .aggregate([(c, "min") for c in kcols])
                .rename_columns(["__kh", *kcols])
            )

        from mismo_ray._util import collect_table

        exemplars = collect_table(
            keyed.map_batches(lookup, batch_format="pyarrow")
        )
        # driver dedupe of <= blocks*k exemplar rows down to <= k
        ex = exemplars.group_by("__kh").aggregate(
            [(c, "min") for c in kcols]
        ).rename_columns(["__kh", *kcols])
        order = {int(h): i for i, h in enumerate(top_hashes)}
        idx = sorted(range(len(ex)), key=lambda i: order[int(ex["__kh"][i].as_py())])
        ex = ex.take(pa.array(idx, type=pa.int64()))
        counts = np.asarray(hh.table["n"], dtype=np.int64)
        total = max(hh.n_total, 1)
        share = np.floor(counts * 1e6 / total + 0.5).astype(np.int64)
        out = pa.table(
            {
                **{n: ex[f"__key_{n}"] for n in names},
                "n": hh.table["n"],
                "share_e6": pa.array(share),
            }
        )
        return out, hh.guaranteed

    def key_counts_left(self, left: ray.data.Dataset) -> ray.data.Dataset:
        return self._key_counts(left, "left")

    def key_counts_right(self, right: ray.data.Dataset) -> ray.data.Dataset:
        return self._key_counts(right, "right")

    def pair_counts(
        self,
        left: ray.data.Dataset,
        right: ray.data.Dataset,
        *,
        task: Task | None = None,
    ) -> ray.data.Dataset:
        """Per-key pair counts: dedupe n*(n-1)/2, link nl*nr
        (reference _key_linker.py:418-445)."""
        t = infer_task(task=task or self.task, left=left, right=right)
        key_cols = [k.name for k in self.keys]
        if t == "dedupe":
            kc = self.key_counts_left(left)

            def to_pairs(tbl: pa.Table) -> pa.Table:
                n = np.asarray(tbl["n"], dtype=np.int64)
                return tbl.drop_columns(["n"]).append_column(
                    "n_pairs", pa.array(n * (n - 1) // 2)
                )

            return kc.map_batches(to_pairs, batch_format="pyarrow")
        kl = self.key_counts_left(left)
        kr = self.key_counts_right(right)
        joined = hash_join(kl, kr, on=key_cols, right_suffix="_r")

        def mul(tbl: pa.Table) -> pa.Table:
            n = np.asarray(tbl["n"], dtype=np.int64) * np.asarray(
                tbl["n_r"], dtype=np.int64
            )
            return tbl.drop_columns(["n", "n_r"]).append_column(
                "n_pairs", pa.array(n)
            )

        return joined.map_batches(mul, batch_format="pyarrow")
