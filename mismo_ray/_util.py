"""Shared helpers: deterministic hashing, Arrow/batch utilities, suffixing.

Everything here is driver- and worker-safe (no Ray session required) and
deterministic across processes (no use of PYTHONHASHSEED-dependent ``hash``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# 64-bit mixing constants (splitmix64; public domain algorithm).
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

U64 = np.uint64
MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixer (vectorized). Input/output uint64."""
    with np.errstate(over="ignore"):
        z = (x + _SPLITMIX_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def hash64_base(values) -> np.ndarray:
    """The seed-independent (expensive) half of :func:`hash64`: pandas'
    siphash over python objects. Call once, then fold any number of seeds
    with :func:`hash64_fold` — multi-seed call sites (two line hashes, a
    MinHash family) pay the object hashing once instead of per seed."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        # to_pylist, not to_pandas: pandas would coerce nullable int columns
        # to float (2 -> 2.0), changing the hash across sides of a join.
        values = values.to_pylist()
    return pd.util.hash_array(
        np.asarray(values, dtype=object), categorize=False
    ).astype(np.uint64)


def hash64_fold(base: np.ndarray, seed: int = 0) -> np.ndarray:
    """Fold a seed into a :func:`hash64_base` result (bit-identical to
    ``hash64(values, seed)``)."""
    arr = base
    if seed:
        with np.errstate(over="ignore"):
            # mask: negative seeds must not raise on NumPy 2.x
            arr = arr ^ splitmix64(
                np.full(1, np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
            )[0]
    return splitmix64(arr.astype(np.uint64))


def hash64(values, seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hash of an array of values -> uint64 ndarray.

    Stable across processes and platforms (uses pandas' siphash-based
    ``hash_array`` with a fixed key, then splitmix64 with the seed folded in).
    Nulls hash to a fixed sentinel.
    """
    return hash64_fold(hash64_base(values), seed)


def combine_hash_arrays(arrays, n: int, seed: int = 0) -> np.ndarray:
    """Row-wise fold of several arrays into one uint64 key array — THE
    shared bucketing fold (FNV offset + splitmix64(out ^ hash64)); every
    module must use it so cross-module bucketing stays consistent."""
    out = np.full(
        n, np.uint64(seed if seed else 1469598103934665603), dtype=np.uint64
    )
    for a in arrays:
        h = hash64(a)
        with np.errstate(over="ignore"):
            out = splitmix64(out ^ h)
    return out


def combine_hash_columns(table: pa.Table, columns: Sequence[str], seed: int = 0) -> np.ndarray:
    """Hash several columns row-wise into one uint64 key array."""
    return combine_hash_arrays(
        (table[c] for c in columns), len(table), seed
    )


def is_null_mask(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Boolean numpy mask of nulls in an arrow array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return np.asarray(arr.is_null())


def factorize_pair_sides(vals_l, vals_r) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Codes of both sides of a pair batch into ONE dictionary of distinct
    values (-1 = null), via ``pc.dictionary_encode`` of each side and of
    their two dictionaries. ``vals_l`` / ``vals_r``: equal-length Arrow
    string arrays (chunked or not) or sequences of ``str | None``. Returns
    ``(codes_l, codes_r, values)``, ``values`` a null-free ``large_string``
    array, so a pair kernel can work once per distinct value."""

    def encode(v) -> tuple[np.ndarray, pa.Array]:
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        if not isinstance(v, pa.Array) or pa.types.is_null(v.type):
            v = pa.array(v, type=pa.large_string())
        d = pc.dictionary_encode(v)
        idx = pc.fill_null(d.indices, -1).to_numpy(zero_copy_only=False)
        return idx.astype(np.int64), d.dictionary.cast(pa.large_string())

    idx_l, dict_l = encode(vals_l)
    idx_r, dict_r = encode(vals_r)
    both = pc.dictionary_encode(pa.concat_arrays([dict_l, dict_r]))
    remap = both.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # a trailing -1 makes index -1 (null) map to -1
    map_l = np.append(remap[: len(dict_l)], -1)
    map_r = np.append(remap[len(dict_l) :], -1)
    return map_l[idx_l], map_r[idx_r], both.dictionary


def table_from_arrays(names_arrays: dict) -> pa.Table:
    cols, names = [], []
    for name, arr in names_arrays.items():
        names.append(name)
        if isinstance(arr, (pa.Array, pa.ChunkedArray)):
            cols.append(arr)
        else:
            cols.append(pa.array(arr))
    return pa.table(cols, names=names)


def suffix_columns(table: pa.Table, suffix: str, exclude: Iterable[str] = ()) -> pa.Table:
    """Rename every column not in ``exclude`` by appending ``suffix``."""
    exclude = set(exclude)
    return table.rename_columns(
        [c if c in exclude else f"{c}{suffix}" for c in table.column_names]
    )


def rename_dataset_columns(ds, mapping: dict[str, str]):
    """Rename columns of a ray.data.Dataset via a zero-copy map_batches."""
    def _rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])
    return ds.map_batches(_rename, batch_format="pyarrow")


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def base_schema_or(ds, fallback: pa.Schema | None = None) -> pa.Schema:
    """``ds.schema().base_schema``, robust to empty datasets.

    Ray Data returns ``None`` from ``Dataset.schema()`` when a dataset is
    empty downstream of a map stage (zero blocks — the UDF never ran, so the
    output schema is unobservable). That only ever happens for datasets with
    no rows, so any consistent ``fallback`` schema is semantically safe:
    there is no data for the types to disagree with. Operators pass the
    minimal schema they need (id/key fields); with no fallback this raises a
    clear error instead of ``NoneType has no attribute base_schema``.
    """
    s = ds.schema(fetch_if_missing=True)
    if s is None:
        if fallback is not None:
            return fallback
        raise ValueError(
            "dataset is empty and its schema cannot be inferred; the "
            "operator cannot derive its output schema from it"
        )
    return s.base_schema


def linker_fallback_schema(carry: Sequence[str] = ()) -> pa.Schema:
    """Fallback record schema for linkers on empty-with-unknown-schema input:
    int64 record ids, null-typed carry columns (zero rows, so the types never
    meet real data)."""
    return pa.schema(
        [pa.field("record_id", pa.int64())]
        + [pa.field(c, pa.null()) for c in carry]
    )


EMPTY_LINKS_SCHEMA = pa.schema(
    [pa.field("record_id_l", pa.int64()), pa.field("record_id_r", pa.int64())]
)


def ensure_list(x) -> list:
    if x is None:
        return []
    if isinstance(x, (list, tuple)):
        return list(x)
    return [x]


def collect_table(ds) -> pa.Table:
    """Driver-side collect of a SMALL (already size-gated) dataset as ONE
    Arrow table. ``take_all()`` converts every row to a python dict —
    pathologically slow on pandas-block datasets (~0.5 ms/row, i.e. tens
    of seconds for a few 10k rows); fetching the Arrow blocks keeps the
    columnar layout, and ``ray.get`` of ``to_arrow_refs()`` skips the batch
    iterator (3 vs 17 ms for 16 materialized blocks). Callers must size-gate
    first (this still moves every block to the driver).

    Zero-row blocks are skipped: Ray's shuffles emit them without columns.
    With no rows at all the result is the first zero-row block that has
    columns, else a zero-column empty table."""
    import ray

    blocks = ray.get(ds.to_arrow_refs())
    tables = [b for b in blocks if b.num_rows] or [
        b for b in blocks if b.num_columns
    ][:1]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


def int64_ids(col, op_name: str) -> np.ndarray:
    """Int64 view of an id column with a CLEAR contract error for other
    types — the line/substring dedupe kernels are int-id-only (their span
    bookkeeping packs ids into numpy int64 arithmetic); string/struct ids
    crash deep inside numpy otherwise. Factorize first
    (``cluster.Factorizer``) to use them."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_integer(col.type):
        raise ValueError(
            f"{op_name} requires an integer id column, got {col.type}; "
            "factorize non-integer ids first (mismo_ray.cluster.Factorizer)"
        )
    if col.null_count:
        raise ValueError(f"{op_name}: id column contains nulls")
    return np.asarray(col).astype(np.int64)
