"""Pair-generation core: the blocking shuffle.

The one module that turns keyed projections into candidate pairs. KeyLinker,
FusedOrLinker, UnnestLinker, FullLinker and the MinHash-LSH band join each
supply a per-side projection — (record_id, exact-key columns, carried
columns, ``__block__``) — and :func:`block_pairs` owns everything after it
(SURVEY §2.3, §7.3-7.5). Reference semantics from
/root/reference/mismo/linker/_key_linker.py:

- records block together when ALL key values are equal (null keys never match);
- dedupe task emits each unordered pair once with record_id_l < record_id_r
  (_key_linker.py:190-193); asymmetric keys (left fn != right fn) cannot use
  the triangle enumeration, so their dedupe runs link mode over the same
  table and keeps that orientation;
- ``max_pairs`` drops every pair of any key whose pair count (nl*nr, computed
  with the same table on both sides for dedupe — reference quirk,
  _key_linker.py:195-222) exceeds the cap.

Ray-Data mapping — one keyed shuffle, skew handled explicitly:

1. the projection hashes the key tuple to an int64 ``__block__``; link sides
   are tagged with ``__side__`` and unioned;
2. count pre-pass over the pinned projection, one groupby: dedupe counts n
   rows per block (nl = nr = n), link counts (nl, nr) over the tagged union,
   zero where a block is missing on one side. ONE planner (:func:`_plan`)
   collects the oversized blocks and broadcasts a drop set (nl*nr over
   ``max_pairs``; link blocks over ``salt_rows`` with no partner rows) and a
   {block: (nl, nr)} salt map (either side over ``salt_rows``);
3. **salting**: a dedupe group of n rows is split into s = ceil(n / salt_rows)
   sub-blocks by record-id hash; each unordered pair of sub-blocks (i <= j)
   becomes its own shuffle group, so no single task ever enumerates more than
   ~salt_rows^2 pairs. Link groups sub-block both sides. Rows are replicated
   s times (2·npairs/salt_rows total) — the price of bounding per-task memory;
4. ``groupby(__bkt__).map_groups`` enumerates pairs vectorized
   (numpy triu / meshgrid), with an exact key-tuple sub-group inside each hash
   group to guard against 64-bit hash collisions.

Determinism: sub-block assignment is hash(record_id, seed=block) — stable
across runs and parallelism levels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from mismo_ray._util import base_schema_or, hash64, linker_fallback_schema, splitmix64
from mismo_ray.keys import KeySpec

_ROLE_BOTH = 0  # unsalted dedupe group: triangle among all rows
_ROLE_L = 1  # left of a cross product
_ROLE_R = 2


def _key_col(name: str) -> str:
    return f"__key_{name}"


def _combine_key_hash(arrays: list[pa.Array]) -> np.ndarray:
    # shared fold (see _util.combine_hash_arrays): keeps the blocking hash
    # bit-identical with every other module's bucketing
    from mismo_ray._util import combine_hash_arrays

    return combine_hash_arrays(arrays, len(arrays[0]))


def eval_keys(
    batch: pa.Table, keys: Sequence[KeySpec], side: str
) -> tuple[list[pa.Array], np.ndarray]:
    """The key arrays of one side, and the mask of rows with any null key."""
    key_arrays = [k(batch, side) for k in keys]
    null_mask = np.zeros(len(batch), dtype=bool)
    for arr in key_arrays:
        null_mask |= np.asarray(arr.is_null())
    return key_arrays, null_mask


def project_keyed(
    ds: ray.data.Dataset,
    keys: Sequence[KeySpec],
    side: str,
    carry: Sequence[str] | None,
) -> ray.data.Dataset:
    """(record_id, __key_*, carry..., __block__) with null-key rows dropped."""
    carry = list(carry or [])

    def fn(batch: pa.Table) -> pa.Table:
        key_arrays, null_mask = eval_keys(batch, keys, side)
        block = _combine_key_hash(key_arrays)
        cols = {"record_id": batch["record_id"]}
        for k, arr in zip(keys, key_arrays):
            cols[_key_col(k.name)] = arr
        for c in carry:
            cols[c] = batch[c]
        cols["__block__"] = pa.array(block.astype(np.int64))
        out = pa.table(cols)
        if null_mask.any():
            out = out.filter(pa.array(~null_mask))
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def links_schema(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    task: str,
    carry: Sequence[str] = (),
) -> pa.Schema:
    """The links a blocking linker emits: record_id_l / record_id_r typed
    like each side's record_id, then every carried column suffixed _l, then
    _r (the enumerator's column order). Dedupe types both sides from left."""
    fallback = linker_fallback_schema(carry)
    lbase = base_schema_or(left, fallback)
    rbase = base_schema_or(right, fallback) if task == "link" else lbase
    return pa.schema(
        [
            pa.field("record_id_l", lbase.field("record_id").type),
            pa.field("record_id_r", rbase.field("record_id").type),
        ]
        + [pa.field(f"{c}_l", lbase.field(c).type) for c in carry]
        + [pa.field(f"{c}_r", rbase.field(c).type) for c in carry]
    )


def _tag(
    keyed: ray.data.Dataset, side_val: int, carry: list[str], other: pa.Schema
) -> ray.data.Dataset:
    """Add ``__side__`` and split each carried column into ``c__cl`` /
    ``c__cr``, null-filled (typed from ``other``) on the side that lacks it,
    so the two tagged projections union with one schema."""

    def fn(t: pa.Table) -> pa.Table:
        n = len(t)
        out = t.drop_columns(carry)
        for suffix, own in (("__cl", side_val == 0), ("__cr", side_val == 1)):
            for c in carry:
                col = t[c] if own else pa.nulls(n, other.field(c).type)
                out = out.append_column(f"{c}{suffix}", col)
        return out.append_column(
            "__side__", pa.array(np.full(n, side_val, dtype=np.int8))
        )

    return keyed.map_batches(fn, batch_format="pyarrow")


def _plan(
    keyed: ray.data.Dataset,
    *,
    link: bool,
    max_pairs: int | None,
    salt_rows: int | None,
    counters: dict,
) -> tuple[frozenset, dict]:
    """The skew decision: (drop set, salt map {block: (nl, nr)}).

    One groupby counts rows per block; link also sums ``__side__`` to split
    the count into (nl, nr), with 0 where a block has no rows on a side.
    Only the oversized blocks are collected. Pair counts are float64
    products: int64 wraps negative past ~3.04e9 rows per side, and a wrapped
    hot key would be salted into millions of sub-blocks instead of dropped.
    """
    mp = math.inf if max_pairs is None else float(max_pairs)
    sr = math.inf if salt_rows is None else float(salt_rows)
    aggs = [Count(alias_name="n")]
    if link:
        aggs.append(Sum("__side__", alias_name="n_r"))

    def oversized(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n"], dtype=np.int64)
        nr = np.asarray(t["n_r"], dtype=np.int64) if link else n
        nl = n - nr if link else n
        out = pa.table(
            {"__block__": t["__block__"], "n": n, "n_l": nl, "n_r": nr}
        )
        fl, fr = nl.astype(np.float64), nr.astype(np.float64)
        return out.filter(pa.array((fl * fr > mp) | (fl > sr) | (fr > sr)))

    pdf = (
        keyed.groupby("__block__")
        .aggregate(*aggs)
        .map_batches(oversized, batch_format="pyarrow")
        .to_pandas()
    )
    if "__block__" not in pdf.columns:  # no blocks at all: schemaless output
        pdf = pd.DataFrame({c: [] for c in ("__block__", "n", "n_l", "n_r")})
    block = pdf["__block__"].to_numpy(dtype=np.int64)
    nl = pdf["n_l"].to_numpy(dtype=np.float64)
    nr = pdf["n_r"].to_numpy(dtype=np.float64)
    drop = nl * nr > mp
    if link:
        # a block on ONE side only yields no pairs but would shuffle all its
        # rows into a single group (or be pointlessly salted): drop it
        one_sided = ((nl == 0) | (nr == 0)) & ((nl > sr) | (nr > sr))
        counters["one_sided_keys_dropped"] = int(one_sided.sum())
        drop |= one_sided
    counters["hot_keys_dropped"] = int(drop.sum())
    counters["hot_records_dropped"] = int(pdf["n"].to_numpy()[drop].sum())
    salted = ~drop & ((nl > sr) | (nr > sr))
    salt = {
        int(b): (int(x), int(y))
        for b, x, y in zip(block[salted], nl[salted], nr[salted])
    }
    return frozenset(int(b) for b in block[drop]), salt


def _expand_salt(
    keyed: ray.data.Dataset,
    *,
    drop_ref,
    salt_ref,
    salt_rows: int,
    link: bool,
    n_buckets: int,
) -> ray.data.Dataset:
    """Assign shuffle groups; replicate rows of salted blocks.

    Unsalted: grp = block, role = BOTH (dedupe) or L/R by side (link).
    Salted dedupe (salt[b] = (n, n)): row in sub-block b joins the triangle
    group (b,b) with role BOTH, and every cross group (i,j), i<j, with role L
    for i-rows and role R for j-rows.
    Salted link (salt[b] = (n_left, n_right)): BOTH sides are sub-blocked —
    sl = ceil(nl/salt_rows) left blocks, sr = ceil(nr/salt_rows) right — and
    every (i, j) cross group gets its left rows (role L, replicated sr times)
    and right rows (role R, replicated sl times), so per-task enumeration is
    bounded by ~salt_rows^2 under skew on EITHER side.
    """

    def grp_ids(block: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized sub-group id: mix (block, i, j) into one int64."""
        with np.errstate(over="ignore"):
            x = block.astype(np.uint64) ^ (
                i.astype(np.uint64) * np.uint64(1000003)
                + (j.astype(np.uint64) + np.uint64(1))
            )
        return splitmix64(x).astype(np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        drop: frozenset = ray.get(drop_ref) if drop_ref is not None else frozenset()
        salt: dict = ray.get(salt_ref) if salt_ref is not None else {}
        block = np.asarray(batch["__block__"], dtype=np.int64)
        # membership via np.isin against the (tiny) hot-key arrays — a
        # per-ROW python set probe here costs ~100ns x every corpus row
        if drop:
            drop_arr = np.fromiter(drop, dtype=np.int64, count=len(drop))
            keep = ~np.isin(block, drop_arr)
            batch = batch.filter(pa.array(keep))
            block = block[keep]
        side = (
            np.asarray(batch["__side__"], dtype=np.int8) if link else None
        )
        if salt:
            salt_arr = np.fromiter(salt.keys(), dtype=np.int64, count=len(salt))
            is_salted = np.isin(block, salt_arr)
        else:
            is_salted = np.zeros(len(block), dtype=bool)
        # fast path: unsalted rows, vectorized
        plain = batch.filter(pa.array(~is_salted))
        pblock = block[~is_salted]
        if link:
            proles = np.where(side[~is_salted] == 0, _ROLE_L, _ROLE_R).astype(np.int8)
        else:
            proles = np.full(len(pblock), _ROLE_BOTH, dtype=np.int8)
        tables = []
        if len(plain):
            tables.append(
                plain.append_column("__grp__", pa.array(pblock))
                .append_column("__role__", pa.array(proles))
            )
        # salted rows: fully vectorized replication (np.repeat + a replica
        # position index) — this is the skew path, so a hot key with millions
        # of rows x s replicas must not run a python loop
        if is_salted.any():
            hot = batch.filter(pa.array(is_salted))
            hblock = block[is_salted]
            rid = np.asarray(hot["record_id"])
            subh = hash64(rid, seed=0xBEEF)  # raw sub-block hash; mod per side
            # per-row salt params via unique-block factorization (few hot blocks)
            ub, inv = np.unique(hblock, return_inverse=True)
            if link:
                usl = np.array(
                    [max(1, math.ceil(salt[b][0] / salt_rows)) for b in ub],
                    dtype=np.int64,
                )
                usr = np.array(
                    [max(1, math.ceil(salt[b][1] / salt_rows)) for b in ub],
                    dtype=np.int64,
                )
                sl, sr = usl[inv], usr[inv]
                is_l = side[is_salted] == 0
                # a left row sits in one left sub-block and meets every right
                # sub-block (sr replicas); symmetric for right rows
                own = np.where(
                    is_l,
                    (subh % sl.astype(np.uint64)).astype(np.int64),
                    (subh % sr.astype(np.uint64)).astype(np.int64),
                )
                c = np.where(is_l, sr, sl)
                idx = np.repeat(np.arange(len(hblock), dtype=np.int64), c)
                p = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(
                    np.cumsum(c) - c, c
                )
                isl_rep = np.repeat(is_l, c)
                own_rep = np.repeat(own, c)
                i_arr = np.where(isl_rep, own_rep, p)
                j_arr = np.where(isl_rep, p, own_rep)
                roles = np.where(isl_rep, _ROLE_L, _ROLE_R).astype(np.int8)
            else:
                us = np.array(
                    [max(1, math.ceil(salt[b][0] / salt_rows)) for b in ub],
                    dtype=np.int64,
                )
                s = us[inv]
                bsub = (subh % s.astype(np.uint64)).astype(np.int64)
                c = s
                idx = np.repeat(np.arange(len(hblock), dtype=np.int64), c)
                p = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(
                    np.cumsum(c) - c, c
                )
                # replica p covers sub-pair (bsub,bsub) BOTH at p==bsub,
                # (bsub,p) L for p>bsub, (p,bsub) R for p<bsub — same set of
                # (i,j) groups the reference triangle enumeration produces
                bs_rep = np.repeat(bsub, c)
                i_arr = np.where(p < bs_rep, p, bs_rep)
                j_arr = np.where(p > bs_rep, p, bs_rep)
                roles = np.where(
                    p == bs_rep,
                    _ROLE_BOTH,
                    np.where(p > bs_rep, _ROLE_L, _ROLE_R),
                ).astype(np.int8)
            if len(idx):
                grp = grp_ids(np.repeat(hblock, c), i_arr, j_arr)
                rep = hot.take(pa.array(idx, type=pa.int64()))
                tables.append(
                    rep.append_column("__grp__", pa.array(grp))
                    .append_column("__role__", pa.array(roles))
                )
        if not tables:
            schema = (
                batch.schema.append(pa.field("__grp__", pa.int64()))
                .append(pa.field("__role__", pa.int8()))
                .append(pa.field("__bkt__", pa.int64()))
            )
            return schema.empty_table()
        out = pa.concat_tables(tables, promote_options="default")
        # coarse shuffle bucket: the groupby shuffles on ~n_buckets groups and
        # each reduce task enumerates MANY key groups vectorized — per-group
        # map_groups calls would dominate wall time at millions of keys
        grp = np.asarray(out["__grp__"], dtype=np.int64)
        bkt = (splitmix64(grp.astype(np.uint64)) % np.uint64(n_buckets)).astype(
            np.int64
        )
        return out.append_column("__bkt__", pa.array(bkt))

    return keyed.map_batches(fn, batch_format="pyarrow")


def _make_enumerator(
    key_cols: list[str],
    carry: list[str],
    link: bool,
    inline_max_pairs: int | None = None,
):
    """Vectorized within-group pair enumeration, arrow in / arrow out
    (arrow ``take`` preserves column types exactly; a pandas detour would
    coerce nullable ints to float)."""

    def sub_group_indices(g: pa.Table) -> list[np.ndarray]:
        # one bucket holds MANY key groups; split by (__grp__, exact key
        # tuple) with a single C-speed pandas groupby. Including the real key
        # values guards the 1-in-2^64 hash collision.
        cols = ["__grp__", *key_cols]
        kdf = pd.DataFrame(
            {c: g[c].to_numpy(zero_copy_only=False) for c in cols}
        )
        return list(kdf.groupby(cols, dropna=False, sort=False).indices.values())

    def enumerate_pairs(g: pa.Table) -> pa.Table:
        role = np.asarray(g["__role__"].to_numpy(zero_copy_only=False))
        ids = g["record_id"].to_numpy(zero_copy_only=False)
        all_l: list[np.ndarray] = []
        all_r: list[np.ndarray] = []
        for idx in sub_group_indices(g):
            srole = role[idx]
            if link:
                li = idx[srole == _ROLE_L]
                ri = idx[srole == _ROLE_R]
                if inline_max_pairs is not None and len(li) * len(ri) > inline_max_pairs:
                    continue  # in-task hot-key drop (no count pre-pass mode)
                if len(li) and len(ri):
                    il, ir = np.meshgrid(li, ri, indexing="ij")
                    all_l.append(il.ravel())
                    all_r.append(ir.ravel())
            else:
                both = idx[srole == _ROLE_BOTH]
                if (
                    inline_max_pairs is not None
                    and len(both) * len(both) > inline_max_pairs
                ):
                    continue  # n*n quirk parity (reference _key_linker.py:195-222)
                if len(both) > 1:
                    order = both[np.argsort(ids[both], kind="stable")]
                    a, b = np.triu_indices(len(order), k=1)
                    all_l.append(order[a])
                    all_r.append(order[b])
                li = idx[srole == _ROLE_L]
                ri = idx[srole == _ROLE_R]
                if len(li) and len(ri):
                    il, ir = np.meshgrid(li, ri, indexing="ij")
                    il, ir = il.ravel(), ir.ravel()
                    swap = ids[il] > ids[ir]
                    all_l.append(np.where(swap, ir, il))
                    all_r.append(np.where(swap, il, ir))
        if all_l:
            il = pa.array(np.concatenate(all_l), type=pa.int64())
            ir = pa.array(np.concatenate(all_r), type=pa.int64())
        else:
            il = ir = pa.array([], type=pa.int64())
        rid = g["record_id"]
        cols = {
            "record_id_l": pc.take(rid, il),
            "record_id_r": pc.take(rid, ir),
        }
        for c in carry:
            src = f"{c}__cl" if link else c
            cols[f"{c}_l"] = pc.take(g[src], il)
        for c in carry:
            src = f"{c}__cr" if link else c
            cols[f"{c}_r"] = pc.take(g[src], ir)
        return pa.table(cols)

    return enumerate_pairs


def block_pairs(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    project: Callable[[ray.data.Dataset, str], ray.data.Dataset],
    key_cols: list[str],
    *,
    task: str,
    symmetric: bool = True,
    max_pairs: int | None = None,
    salt_rows: int | None = 2048,
    carry: Sequence[str] = (),
    count_prepass: bool = True,
) -> tuple[ray.data.Dataset, dict]:
    """Candidate pairs of the records whose projections share ``__block__``
    and the exact values of ``key_cols``.

    ``project(ds, side)`` maps one side's records to (record_id, *key_cols,
    *carry, __block__) with null-key rows dropped; ``symmetric`` says both
    sides project alike. Returns (links Dataset, counters dict); the links
    have the columns :func:`links_schema` declares.

    ``count_prepass=False`` skips the per-key count pre-pass (one fewer
    barrier + no pinned projection): the ``max_pairs`` hot-key drop is
    enforced INSIDE each reduce task instead, and no salting happens. Only
    correct when every key group's ROWS fit one task (pair count is still
    bounded by max_pairs; row count is not) — use for keys whose group size
    is bounded by construction.
    """
    from mismo_ray._joins import default_num_partitions

    carry = list(carry)
    counters: dict = {"task": task}
    link = task == "link" or not symmetric
    if link:
        if task == "dedupe":
            right = left
        fallback = linker_fallback_schema(carry)
        lbase = base_schema_or(left, fallback) if carry else fallback
        rbase = base_schema_or(right, fallback) if carry else fallback
        keyed = _tag(project(left, "left"), 0, carry, rbase).union(
            _tag(project(right, "right"), 1, carry, lbase)
        )
    else:
        keyed = project(left, "left")
    prepass = count_prepass and (max_pairs is not None or salt_rows is not None)
    drop: frozenset = frozenset()
    salt: dict = {}
    if prepass:
        # the count pre-pass and the pair-gen pass both consume the
        # projection; pin it once instead of re-running the key functions
        # (and any upstream transforms) per consumption. At extreme scale
        # with heavy carried columns, prefer carry=None + a later join so
        # the pinned projection stays narrow.
        keyed = keyed.materialize()
        drop, salt = _plan(
            keyed, link=link, max_pairs=max_pairs, salt_rows=salt_rows,
            counters=counters,
        )
    counters["salted_keys"] = len(salt)
    expanded = _expand_salt(
        keyed,
        drop_ref=ray.put(drop) if drop else None,
        salt_ref=ray.put(salt) if salt else None,
        salt_rows=salt_rows or (1 << 62),
        link=link,
        n_buckets=default_num_partitions(),
    )
    enum = _make_enumerator(
        key_cols, carry, link=link,
        inline_max_pairs=None if prepass else max_pairs,
    )
    links = expanded.groupby("__bkt__").map_groups(enum, batch_format="pyarrow")
    if task == "dedupe" and link:
        # asymmetric dedupe: keep the record_id_l < record_id_r orientation
        # of the self-link (the reference's self-join condition,
        # _key_linker.py:190-193)
        def ordered(t: pa.Table) -> pa.Table:
            return t.filter(pc.less(t["record_id_l"], t["record_id_r"]))

        links = links.map_batches(ordered, batch_format="pyarrow")
    return links, counters


def generate_pairs(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: Sequence[KeySpec],
    *,
    task: str,
    max_pairs: int | None = None,
    salt_rows: int | None = 2048,
    carry: Sequence[str] | None = None,
    count_prepass: bool = True,
) -> tuple[ray.data.Dataset, dict]:
    """Candidate pairs of records sharing ALL ``keys``: :func:`block_pairs`
    over :func:`project_keyed`."""
    keys = list(keys)
    carry = list(carry or [])
    links, counters = block_pairs(
        left,
        right,
        lambda ds, side: project_keyed(ds, keys, side, carry),
        [_key_col(k.name) for k in keys],
        task=task,
        symmetric=all(k.left_fn is k.right_fn for k in keys),
        max_pairs=max_pairs,
        salt_rows=salt_rows,
        carry=carry,
        count_prepass=count_prepass,
    )
    counters["n_keys"] = len(keys)
    return links, counters
