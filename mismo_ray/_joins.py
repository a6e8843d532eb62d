"""Join helpers over ray.data.Dataset.

Two families, chosen by side size (SURVEY §4 / ray_guide "Joins and lookups"):

- ``hash_join``: both sides large -> an explicit partitioned hash join: add a
  ``__bucket__ = hash(key) % B`` column to both sides, tag + union them, group
  by bucket, and join each bucket with pyarrow's acero hash join inside
  ``map_groups``. One keyed shuffle, C++-speed per-bucket probe.
  (Ray 2.49's native ``Dataset.join`` emits schema-less empty partitions that
  crash any downstream join/shuffle, so we own the join primitive.)
- lookups: one kernel, ``lookup_positions`` (each key's row in the mapping,
  -1 for a miss) + ``take_rows``, joins a mapping to a Dataset. A small
  mapping is collected once, shipped via ``ray.put`` and applied inside
  ``map_batches`` (no shuffle: ``broadcast_isin``, pair assembly, link
  counts, TF, in-process CC labels); a corpus-sized one stays a Dataset and
  is applied per bucket of one keyed shuffle (``bucketed_lookup_join``).
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data

from mismo_ray._util import hash64, splitmix64

_HOW_TO_ARROW = {
    "inner": "inner",
    "left_outer": "left outer",
    "right_outer": "right outer",
    "full_outer": "full outer",
    "left_semi": "left semi",
    "left_anti": "left anti",
}


_PARTITION_HINT: list[int] = []


@contextlib.contextmanager
def partition_hint(n: int):
    """Scope a shuffle-partition override for plan CONSTRUCTION.

    Small known-size inputs (the golden conformance tables, driver-battery
    slices) drown in per-task overhead at 2x-CPU partitions; pipelines over
    them wrap their build in ``with partition_hint(8):``. Only affects
    ``default_num_partitions`` calls made while the context is open on the
    driver — partition counts already baked into a lazy plan are unchanged."""
    _PARTITION_HINT.append(max(2, int(n)))
    try:
        yield
    finally:
        _PARTITION_HINT.pop()


def default_num_partitions() -> int:
    """Shuffle partition count: 2x CPUs, overridable via
    MISMO_RAY_NUM_PARTITIONS. Pin the override when comparing runs at
    different parallelism levels (cluster-size scaling benchmarks) so both
    execute the identical plan and only parallelism varies."""
    import os

    if _PARTITION_HINT:
        return _PARTITION_HINT[-1]
    env = os.environ.get("MISMO_RAY_NUM_PARTITIONS")
    if env:
        return max(2, int(env))
    try:
        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        n = 8
    return max(2, min(256, n * 2))


def _combine_hash(table: pa.Table, cols: Sequence[str]) -> np.ndarray:
    # thin alias of the shared row-wise multi-column hash so every module
    # buckets identically (two drifting copies would silently break
    # cross-module bucketing consistency)
    from mismo_ray._util import combine_hash_columns

    return combine_hash_columns(table, cols)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str | Sequence[str],
    *,
    right_on: str | Sequence[str] | None = None,
    how: str = "inner",
    num_partitions: int | None = None,
    left_suffix: str | None = None,
    right_suffix: str | None = "_r",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Hash-partitioned equi-join of two Datasets.

    Key columns keep the left-side names in the output. Non-key name
    collisions get ``left_suffix``/``right_suffix``. Null keys never match
    (SQL semantics). Pass ``left_schema``/``right_schema`` when known to avoid
    triggering plan execution for schema inference on derived datasets.
    """
    on = (on,) if isinstance(on, str) else tuple(on)
    right_on = (
        on
        if right_on is None
        else ((right_on,) if isinstance(right_on, str) else tuple(right_on))
    )
    if how not in _HOW_TO_ARROW:
        raise ValueError(f"how must be one of {sorted(_HOW_TO_ARROW)}")
    B = num_partitions or default_num_partitions()

    _ls = left_schema or left.schema(fetch_if_missing=True)
    if _ls is None:
        if how in ("right_outer", "full_outer"):
            # those flavors must still emit every RIGHT row null-padded with
            # left columns, which need left's names/types — unknowable here;
            # returning the empty left would silently drop the right side.
            raise ValueError(
                "hash_join: left side is empty with unknown schema; pass "
                f"left_schema= to {how}-join against a derived empty dataset"
            )
        # inner/left_outer/left_semi/left_anti of an empty left are all
        # empty, and downstream map UDFs never execute on zero blocks, so
        # the empty input IS the correct (and only constructible) result.
        return left
    _rs = right_schema or right.schema(fetch_if_missing=True)
    if _rs is None:
        if how in ("inner", "left_semi", "right_outer"):
            # no right rows: inner/semi match nothing; right_outer has no
            # rows to null-pad -> empty result either way
            return right
        if how == "left_anti":
            return left  # nothing to subtract
        # left_outer/full_outer with a non-empty left need right's column
        # names/types to append null columns — unknowable here; fail with
        # intent.
        raise ValueError(
            "hash_join: right side is empty with unknown schema; pass "
            f"right_schema= to {how}-join against a derived empty dataset"
        )
    lschema = _ls if isinstance(_ls, pa.Schema) else _ls.base_schema
    rschema = _rs if isinstance(_rs, pa.Schema) else _rs.base_schema
    lvals = [c for c in lschema.names if c not in on]
    rvals = [c for c in rschema.names if c not in right_on]
    semi = how in ("left_semi", "left_anti")
    if semi:
        rvals = []
    # the output keeps the LEFT key names, so a right payload named like a
    # left key collides just as hard as a left/right payload overlap — a
    # silent duplicate column otherwise (right payload "id" vs key "id")
    overlap_l = set(lvals) & set(rvals)
    overlap_r = (set(lvals) | set(on)) & set(rvals)
    lout = {
        c: f"{c}{left_suffix}" if c in overlap_l and left_suffix else c
        for c in lvals
    }
    rout = {
        c: f"{c}{right_suffix}" if c in overlap_r and right_suffix else c
        for c in rvals
    }
    clash = (set(lout.values()) & set(rout.values())) | (
        (set(lout.values()) | set(rout.values())) & set(on)
    )
    if clash:
        raise ValueError(f"Column collision after suffixing: {sorted(clash)}")
    jk = [f"__jk{i}" for i in range(len(on))]
    key_types = [lschema.field(c).type for c in on]
    ltypes = {lout[c]: lschema.field(c).type for c in lvals}
    rtypes = {rout[c]: rschema.field(c).type for c in rvals}

    def project(side: int):
        keys = on if side == 0 else right_on
        vals = (lvals, lout, ltypes) if side == 0 else (rvals, rout, rtypes)
        other_types = rtypes if side == 0 else ltypes

        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            cols: dict = {}
            for i, k in enumerate(keys):
                arr = t[k]
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                cols[jk[i]] = arr.cast(key_types[i])
            for c in vals[0]:
                cols[vals[1][c]] = t[c]
            for name, typ in other_types.items():
                cols[name] = pa.nulls(n, typ)
            cols["__side__"] = pa.array(np.full(n, side, dtype=np.int8))
            out = pa.table(cols)
            bucket = (_combine_hash(out, jk) % np.uint64(B)).astype(np.int64)
            return out.append_column("__bucket__", pa.array(bucket))

        return fn

    tl = left.map_batches(project(0), batch_format="pyarrow")
    tr = right.map_batches(project(1), batch_format="pyarrow")
    unioned = tl.union(tr)

    lcols = jk + list(lout.values())
    rcols = jk + list(rout.values())
    arrow_how = _HOW_TO_ARROW[how]

    out_order = jk + list(lout.values()) + list(rout.values())
    if semi:
        out_order = jk + list(lout.values())
    final_names = [on[jk.index(c)] if c in jk else c for c in out_order]

    # expected per-side schemas: blocks that round-trip through pandas in
    # the sort shuffle (empty partitions do) lose arrow types — an all-null
    # string column comes back as type "null", which acero rejects as a join
    # payload. Cast both sides back before joining.
    lt_schema = pa.schema(
        [pa.field(k, typ) for k, typ in zip(jk, key_types)]
        + [pa.field(c, ltypes[c]) for c in lout.values()]
    )
    rt_schema = pa.schema(
        [pa.field(k, typ) for k, typ in zip(jk, key_types)]
        + [pa.field(c, rtypes[c]) for c in rout.values()]
    )

    def join_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = t["__side__"]
        lt = t.filter(pc.equal(side, 0)).select(lcols).cast(lt_schema)
        rt = t.filter(pc.equal(side, 1)).select(rcols).cast(rt_schema)
        joined = lt.join(
            rt, keys=jk, right_keys=jk, join_type=arrow_how, use_threads=False
        )
        # acero's output column ORDER varies with the join type/inputs; force
        # one canonical order (Ray treats blocks with permuted schemas as
        # mismatched) and restore the left-side key names.
        return joined.select(out_order).rename_columns(final_names)

    return unioned.groupby("__bucket__").map_groups(
        join_bucket, batch_format="pyarrow"
    )


def keyed_filter(
    ds: ray.data.Dataset,
    keys_ds: ray.data.Dataset,
    on: str,
    *,
    invert: bool = False,
    num_partitions: int | None = None,
    left_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Semi (or anti, ``invert=True``) filter of ``ds`` by the key set in
    ``keys_ds[on]`` — WITHOUT an acero join, so payload columns of any type
    survive (acero rejects list/struct non-key fields, which rules
    :func:`hash_join` out for embedding tables).

    Both sides bucket by ``hash(key) % B``; inside each bucket one
    ``pc.is_in`` builds the mask — no row-level python, and the key set
    never needs to fit on the driver (contrast ``broadcast_isin``).
    """
    import pyarrow.compute as pc

    _ls = left_schema or ds.schema(fetch_if_missing=True)
    if _ls is None:
        return ds  # empty input: nothing to filter
    lschema = _ls if isinstance(_ls, pa.Schema) else _ls.base_schema
    # NOTE: no keys_ds.count() pre-check — that would execute the (possibly
    # expensive) keys pipeline once just to test emptiness and then again in
    # the union. A zero-ROW keys side flows through naturally: is_in against
    # an empty value set is all-false, which is already the correct semi
    # (empty) / anti (everything) answer. Only a zero-BLOCK keys side with
    # unobservable schema needs the short-circuit below.
    _ks = keys_ds.schema(fetch_if_missing=True)
    if _ks is None:
        if invert:
            return ds  # empty key set: anti keeps everything
        # semi against an empty key set: nothing survives
        return ds.map_batches(
            lambda t: t.slice(0, 0), batch_format="pyarrow"
        )
    B = num_partitions or default_num_partitions()
    key_type = lschema.field(on).type
    payload = [c for c in lschema.names if c != on]

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            k = t[on]
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            k = k.cast(key_type)
            cols = {on: k}
            n = len(t)
            for c in payload:
                cols[c] = t[c] if side == 0 else pa.nulls(n, lschema.field(c).type)
            cols["__side__"] = pa.array(np.full(n, side, dtype=np.int8))
            out = pa.table(cols)
            bucket = (_combine_hash(out, [on]) % np.uint64(B)).astype(np.int64)
            return out.append_column("__bucket__", pa.array(bucket))

        return fn

    unioned = ds.map_batches(tag(0), batch_format="pyarrow").union(
        keys_ds.map_batches(tag(1), batch_format="pyarrow")
    )

    def filter_bucket(t: pa.Table) -> pa.Table:
        side = t["__side__"]
        data = t.filter(pc.equal(side, 0))
        keys = t.filter(pc.equal(side, 1))[on].combine_chunks().unique()
        # SQL semi/anti semantics: a NULL key never equals anything, so a
        # null in the key SET must not match null inputs.  pc.is_in's
        # default SetLookupOptions matches null-to-null, which would make
        # e.g. subtract_exact silently drop null-content rows whenever the
        # reference side contains any null.  Drop nulls from the value set;
        # null inputs then probe to False (semi drops them, anti keeps them).
        keys = keys.drop_null()
        mask = pc.is_in(data[on].combine_chunks(), value_set=keys)
        if invert:
            mask = pc.invert(mask)
        return data.filter(mask).drop_columns(["__side__", "__bucket__"])

    return unioned.groupby("__bucket__").map_groups(
        filter_bucket, batch_format="pyarrow"
    )


def distinct(ds: ray.data.Dataset, cols: str | Sequence[str]) -> ray.data.Dataset:
    """Distinct rows over ``cols`` as a Dataset (``Dataset.unique`` returns a
    python list, so it cannot stay in the plan).

    NULL keys are first-class (SQL DISTINCT keeps one null row): the shuffle
    key is the null-safe ``hash64`` bucket — grouping the raw columns would
    hit Ray's sort-based groupby, which rejects None keys (the repo-wide
    pitfall) — and each bucket dedupes with Arrow's own null-aware
    ``group_by``. Identical rows hash identically, so per-bucket distinct IS
    global distinct."""
    from mismo_ray._util import combine_hash_columns

    cols = [cols] if isinstance(cols, str) else list(cols)
    B = default_num_partitions()

    def pre(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        # per-block pre-dedup: the shuffle carries each distinct row once
        t = t.group_by(cols).aggregate([])
        bkt = (combine_hash_columns(t, cols) % np.uint64(B)).astype(np.int64)
        return t.append_column("__dbkt__", pa.array(bkt))

    def per_bucket(g: pa.Table) -> pa.Table:
        return g.drop_columns(["__dbkt__"]).group_by(cols).aggregate([])

    return (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("__dbkt__")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


# ------------------------------------------------------------ lookup kernel
def _freeze_key(v):
    """Recursively hashable form of a nested key value (list cells from
    ``to_pylist`` become tuples, struct dicts become sorted item tuples)."""
    if isinstance(v, (list, tuple)):
        return tuple(_freeze_key(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, _freeze_key(x)) for k, x in v.items()))
    return v


def lookup_positions(keys, mkeys) -> np.ndarray:
    """The row of each of ``keys`` in the mapping keys ``mkeys``, -1 for a
    miss: the one kernel behind every attach of a small table to a Dataset
    (callers ``take_rows`` from the mapping) and every per-bucket lookup.

    A null key matches a null mapping key (``pc.index_in``'s default, as a
    dict holding None); a duplicated mapping key answers with its first row.
    Mapping keys are cast to the keys' type. Scalar keys run
    ``pc.index_in``; nested (struct/list) keys, which it does not support,
    probe a dict of frozen keys."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if isinstance(mkeys, pa.ChunkedArray):
        mkeys = mkeys.combine_chunks()
    if not len(keys) or not len(mkeys):
        return np.full(len(keys), -1, dtype=np.int64)
    if pa.types.is_null(keys.type):
        keys = keys.cast(mkeys.type)
    mkeys = mkeys.cast(keys.type)
    if pa.types.is_nested(keys.type):
        local: dict = {}
        for i, k in enumerate(mkeys.to_pylist()):
            local.setdefault(_freeze_key(k), i)
        return np.fromiter(
            (local.get(_freeze_key(k), -1) for k in keys.to_pylist()),
            dtype=np.int64,
            count=len(keys),
        )
    import pyarrow.compute as pc

    return np.asarray(pc.index_in(keys, value_set=mkeys).fill_null(-1), dtype=np.int64)


def take_rows(values, pos: np.ndarray):
    """Rows ``pos`` of an Array or Table; a position of -1 gives a null."""
    miss = pos < 0
    return values.take(pa.array(pos, mask=miss) if miss.any() else pa.array(pos))


def _lookup(
    keys: pa.Array, mkeys: pa.Array, mvals: pa.Array, on_missing, what: str
) -> pa.Array:
    """The value of each of ``keys`` in the mapping ``mkeys -> mvals``.
    Missing keys raise ``KeyError`` unless ``on_missing(missing_key_array)
    -> fill value Array`` is given."""
    pos = lookup_positions(keys, mkeys)
    miss = pos < 0
    if miss.any():
        if on_missing is None:
            raise KeyError(
                f"{int(miss.sum())} keys of '{what}' missing from mapping"
            )
        fill = on_missing(keys.filter(pa.array(miss)))
        if not isinstance(fill, pa.Array):
            fill = pa.array(list(fill), type=mvals.type)
        # the fills go after the mapping values: one take serves both
        pos[miss] = len(mvals) + np.arange(int(miss.sum()))
        mvals = pa.concat_arrays([mvals, fill.cast(mvals.type)])
    return take_rows(mvals, pos)


def bucketed_lookup_join(
    ds: ray.data.Dataset,
    column: str,
    mapping_ds: ray.data.Dataset,
    *,
    key_name: str,
    val_name: str,
    out_type: pa.DataType,
    result_name: str | None = None,
    on_missing=None,
    ds_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed key -> value lookup where the mapping is itself a Dataset
    (corpus-sized — NEVER collected to the driver).

    One keyed shuffle: both sides get ``__bkt__ = hash(key) % B``, are tagged
    and unioned, and each bucket resolves its rows against its slice of the
    mapping with ``lookup_positions``. ``result_name=None`` replaces
    ``column`` in place, else appends. Missing keys raise unless
    ``on_missing`` is given (see ``_lookup``).
    """
    from mismo_ray._util import base_schema_or

    B = default_num_partitions()
    schema = ds_schema or base_schema_or(ds)  # clear error on empty-unknown
    key_type = schema.field(column).type
    data_cols = list(schema.names)

    def proj_map(t: pa.Table) -> pa.Table:
        cols = {
            "__key__": t[key_name].combine_chunks().cast(key_type),
            "__val__": t[val_name].combine_chunks().cast(out_type),
        }
        for c in data_cols:
            cols[f"__d_{c}"] = pa.nulls(len(t), schema.field(c).type)
        cols["__side__"] = pa.array(np.zeros(len(t), dtype=np.int8))
        out = pa.table(cols)
        bkt = (hash64(out["__key__"]) % np.uint64(B)).astype(np.int64)
        return out.append_column("__bkt__", pa.array(bkt))

    def proj_data(t: pa.Table) -> pa.Table:
        cols = {
            "__key__": t[column].combine_chunks(),
            "__val__": pa.nulls(len(t), out_type),
        }
        for c in data_cols:
            cols[f"__d_{c}"] = t[c]
        cols["__side__"] = pa.array(np.ones(len(t), dtype=np.int8))
        out = pa.table(cols)
        bkt = (hash64(out["__key__"]) % np.uint64(B)).astype(np.int64)
        return out.append_column("__bkt__", pa.array(bkt))

    tagged = mapping_ds.map_batches(proj_map, batch_format="pyarrow").union(
        ds.map_batches(proj_data, batch_format="pyarrow")
    )

    def resolve(g: pa.Table) -> pa.Table:
        side = np.asarray(g["__side__"].to_numpy(zero_copy_only=False))
        mrows = g.filter(pa.array(side == 0))
        drows = g.filter(pa.array(side == 1))
        vals = _lookup(
            drows["__key__"].combine_chunks(),
            mrows["__key__"].combine_chunks(),
            mrows["__val__"].combine_chunks(),
            on_missing,
            column,
        )
        cols = {}
        for c in data_cols:
            if c == column and result_name is None:
                cols[c] = vals
            else:
                cols[c] = drows[f"__d_{c}"]
        if result_name is not None:
            cols[result_name] = vals
        return pa.table(cols)

    return tagged.groupby("__bkt__").map_groups(resolve, batch_format="pyarrow")


def broadcast_isin(
    ds: ray.data.Dataset,
    column: str,
    values,
    *,
    invert: bool = False,
) -> ray.data.Dataset:
    """Semi (or anti, invert=True) join against a broadcast key set
    (``values``: an Arrow array or an iterable of python values), answered
    by ``lookup_positions`` — nested keys included."""
    # SQL semi/anti semantics: NULL never equals anything, so a None in the
    # broadcast value set must not match null inputs (same rule as
    # keyed_filter's drop_null on the bucketed path).
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        value_set = values.drop_null()
    else:
        value_set = pa.array([v for v in values if v is not None])
    ref = ray.put(value_set)

    def fn(batch: pa.Table) -> pa.Table:
        mask = lookup_positions(batch[column], ray.get(ref)) >= 0
        if invert:
            mask = ~mask
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")
