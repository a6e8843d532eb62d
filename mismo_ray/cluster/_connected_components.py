"""Connected components: transitive clustering of linked records.

Reference: mismo ``cluster/_connected_components.py`` — iterative min-label
propagation, linear in the diameter of the largest component; non-int record
ids are factorized to int64 first; unlinked records get fresh labels above
the max existing label.

Both executors work in one int64 code space: int ids are their own codes,
other ids are factorized by one ``Factorizer`` (bucketed codes over the link
endpoints and the record ids). They differ only in who computes the labels:

- **in process** (``mode="driver"``, or ``"auto"`` at or below
  ``DRIVER_THRESHOLD`` edges): the edge arrays are collected once and
  labelled by a vectorized hook-and-pointer-jump pass
  (``_label_in_process``).
- **star contraction** (``mode="distributed"``, or ``"auto"`` above the
  threshold; the 10^12-row path): alternating large-star / small-star rounds
  (Kiveris et al., "Connected Components in MapReduce and Beyond", SoCC'14 —
  the arXiv:1802.09478 survey the reference cites) converge in O(log n)
  rounds instead of min-propagation's O(diameter). Every half-round, and the
  final per-node minimum, is one bucketed shuffle whose buckets run one
  vectorized sort + ``minimum.reduceat`` (``_runs``).

Labels attach to records by one lookup in code space
(``_attach_labels_coded``): per bucket of one shuffle for star labels,
map-side against one broadcast Arrow table for in-process labels.

Component label = the minimum int64 code over the component's members
(identical to the reference's fixpoint). Singletons use their own code as
the fresh label (unique, disjoint from min-member labels; the reference
numbers them ``max_label + row_number`` — same semantics, different arbitrary
values, and no int64 overflow on hash-derived ids). Both executors give the
same labels for every id type.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mismo_ray._joins import default_num_partitions, distinct
from mismo_ray._util import base_schema_or, hash64, splitmix64

logger = logging.getLogger(__name__)

# mode="auto" labels in process at or below this many edges
DRIVER_THRESHOLD = 2_000_000

# Factorizer codes: code = bucket + CODE_BUCKETS * rank within the bucket
CODE_BUCKETS = 1024


# --------------------------------------------------------------- factorizer
def _lookup(
    keys: pa.Array, mkeys: pa.Array, mvals: pa.Array, on_missing, what: str
) -> pa.Array:
    """The value of each of ``keys`` in the mapping ``mkeys -> mvals``:
    ``pc.index_in`` + ``take`` for scalar keys, a python dict keyed on
    ``_hashable`` for nested (struct/list) keys. Missing keys raise
    ``KeyError`` unless ``on_missing(missing_key_array) -> fill value
    Array`` is given."""
    # pos = each key's row in the mapping, -1 when missing
    if pa.types.is_nested(keys.type):
        local = {_hashable(k): i for i, k in enumerate(mkeys.to_pylist())}
        pos = np.fromiter(
            (local.get(_hashable(k), -1) for k in keys.to_pylist()),
            dtype=np.int64,
            count=len(keys),
        )
    else:
        idx = pc.index_in(keys, value_set=mkeys).fill_null(-1)
        pos = np.array(idx, dtype=np.int64)
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
    return pc.take(mvals, pa.array(pos))


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
    mapping with ``_lookup``. ``result_name=None`` replaces ``column`` in
    place, else appends. Missing keys raise unless ``on_missing`` is given
    (see ``_lookup``).
    """
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


class Factorizer:
    """record_id <-> dense-ish unique int64 codes.

    Int ids pass through unchanged (reference Factorizer noop,
    _factorizer.py:43-60). Other types get a unique int64 via bucketed dense
    assignment: code = bucket + CODE_BUCKETS * rank_within_bucket —
    sort-free, deterministic, distributed (SURVEY §2.9).

    The id<->code mapping stays a (materialized) Dataset; encode/decode run
    as bucketed lookup joins, so record-id vocabularies as large as the
    corpus never touch the driver.
    """

    def __init__(self, ids_ds: ray.data.Dataset):
        _s = ids_ds.schema(fetch_if_missing=True)
        schema = _s.base_schema if _s is not None else pa.schema(
            [pa.field("record_id", pa.int64())]  # empty ids: type is moot
        )
        self.id_type = schema.field("record_id").type
        self.is_int = pa.types.is_integer(self.id_type)
        if self.is_int:
            return
        # ids -> hash bucket; batch-local pre-dedupe cuts the shuffle volume,
        # the authoritative dedupe happens inside each bucket group. A
        # groupby on the raw id column would be wrong here: Ray's sort-based
        # shuffle cannot compare nested (struct/list) keys — the int bucket
        # is the only shuffle key this path ever sorts on.
        nested = pa.types.is_nested(self.id_type)

        def assign(t: pa.Table) -> pa.Table:
            ids = t["record_id"].combine_chunks()
            if nested:
                seen: dict = {}
                for v in ids.to_pylist():
                    seen.setdefault(_hashable(v), v)
                ids = pa.array(list(seen.values()), type=self.id_type)
            else:
                ids = pc.unique(ids)
            bucket = (hash64(ids) % np.uint64(CODE_BUCKETS)).astype(np.int64)
            return pa.table({"record_id": ids, "bucket": pa.array(bucket)})

        bucketed = ids_ds.map_batches(assign, batch_format="pyarrow")

        def code_group(g: pa.Table) -> pa.Table:
            b = g["bucket"][0].as_py()
            arr = g["record_id"].combine_chunks()
            if nested:
                seen: dict = {}
                for v in arr.to_pylist():
                    seen.setdefault(_hashable(v), v)
                vals = list(seen.values())
                order = np.argsort(hash64(vals), kind="stable")
                uniq = pa.array([vals[i] for i in order], type=self.id_type)
            else:
                uniq = pc.unique(arr)
                order = np.argsort(hash64(uniq), kind="stable")
                uniq = uniq.take(pa.array(order, type=pa.int64()))
            # rank within bucket ordered by id hash: deterministic across
            # runs and parallelism levels (group row order is not)
            codes = b + CODE_BUCKETS * np.arange(len(uniq), dtype=np.int64)
            return pa.table({"record_id": uniq, "code": pa.array(codes)})

        self.coded = (
            bucketed.groupby("bucket")
            .map_groups(code_group, batch_format="pyarrow")
            .materialize()
        )

    def encode_column(
        self,
        ds: ray.data.Dataset,
        column: str,
        *,
        ds_schema: pa.Schema | None = None,
    ) -> ray.data.Dataset:
        if self.is_int:
            return ds
        return bucketed_lookup_join(
            ds,
            column,
            self.coded,
            key_name="record_id",
            val_name="code",
            out_type=pa.int64(),
            ds_schema=ds_schema,
        )

    def decode_column(
        self,
        ds: ray.data.Dataset,
        column: str,
        *,
        ds_schema: pa.Schema | None = None,
    ) -> ray.data.Dataset:
        if self.is_int:
            return ds
        # join on the code side: swap key/val roles of the coded mapping
        return bucketed_lookup_join(
            ds,
            column,
            self.coded,
            key_name="code",
            val_name="record_id",
            out_type=self.id_type,
            ds_schema=ds_schema,
        )


def _hashable(v):
    if isinstance(v, dict):
        return tuple(sorted(v.items()))
    if isinstance(v, list):
        return tuple(v)
    return v


# ------------------------------------------------------------ in-process path
def _label_in_process(edges: ray.data.Dataset) -> pa.Table:
    """Collect the int64 edge set once and label it here -> (record_id,
    component), one row per endpoint.

    Ids are compressed by ``np.unique``, so index order is id order. Each
    pass hooks every edge's larger root under its smaller one
    (``np.minimum.at``) and pointer-jumps ``p = p[p]`` to a fixpoint; passes
    repeat on the edges whose endpoints still have two roots. Pointers only
    move to smaller members, so each component ends rooted at its minimum.
    Zero-row blocks are skipped: Ray's shuffles emit them without columns.
    """
    tables = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
    n = sum(t.num_rows for t in tables)
    ends = np.concatenate(
        [np.empty(0, np.int64)]
        + [
            np.asarray(t[c], dtype=np.int64)
            for c in ("record_id_l", "record_id_r")
            for t in tables
        ]
    )
    ids, inv = np.unique(ends, return_inverse=True)
    a, b = inv[:n], inv[n:]
    p = np.arange(len(ids))
    while True:
        ra, rb = p[a], p[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(p, q := p[p]):
            p = q
    return pa.table({"record_id": ids, "component": ids[p]})


# -------------------------------------------------------------- distributed path
def _runs(keys: np.ndarray, vals: np.ndarray):
    """Group one bucket's (key, val) rows by key: sort by key, return the
    sorted keys and vals, each key's first row and row count, and each key's
    minimum val. Callers pass at least one row."""
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[starts, len(keys)])
    return keys, vals, starts, counts, np.minimum.reduceat(vals, starts)


def _cc_star(
    edges: ray.data.Dataset,
    *,
    max_iter: int | None = None,
    checkpoint_dir: str | None = None,
) -> ray.data.Dataset:
    """Alternating large-star / small-star rounds over int64 edges -> labels
    Dataset (record_id, component).

    Each half-round is one bucketed groupby shuffle (all rows of a node land
    in node % B's bucket; per-node neighborhoods are processed with
    vectorized sort + minimum.reduceat inside the bucket — no python per
    node) followed by an edge-distinct. Both operations only re-point nodes
    at smaller members of their own component, so the component minimum is
    invariant and the converged stars are rooted at it — the SAME labels
    min-propagation produces.
    """
    # the edge set is consumed twice (the star rounds AND the final
    # identity-labels union); pin it so a lazy upstream pair-gen lineage
    # does not re-execute (a no-op when mode="auto" pinned it already)
    edges = edges.materialize()
    B = default_num_partitions()

    def canon(t: pa.Table) -> pa.Table:
        a = t["record_id_l"].combine_chunks().cast(pa.int64())
        b = t["record_id_r"].combine_chunks().cast(pa.int64())
        hi = pc.max_element_wise(a, b)
        lo = pc.min_element_wise(a, b)
        keep = pc.not_equal(hi, lo)
        return pa.table({"u": hi.filter(keep), "v": lo.filter(keep)})

    # B blocks: the rounds' sort-based shuffles keep the block count they
    # are given, and their cost grows with it (a factorized 1.6k-edge set
    # arrived in 80 blocks at B = 16 and ran ~30% slower end to end)
    E = (
        distinct(edges.map_batches(canon, batch_format="pyarrow"), ["u", "v"])
        .repartition(B)
        .materialize()
    )

    def per_node(ds: ray.data.Dataset, key: str, val: str, fn, out=("u", "v")):
        # fn(sorted keys, sorted vals, starts, counts, mins) -> the two
        # ``out`` columns, per bucket; every row of one key lands in the
        # same bucket
        out_a, out_b = out

        def bucketize(t: pa.Table) -> pa.Table:
            src = np.asarray(t[key], dtype=np.int64)
            bkt = (src.astype(np.uint64) % np.uint64(B)).astype(np.int64)
            return t.append_column("__b__", pa.array(bkt))

        def bucket(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                empty = pa.array([], pa.int64())
                return pa.table({out_a: empty, out_b: empty})
            a, b = fn(
                *_runs(
                    np.asarray(g[key], dtype=np.int64),
                    np.asarray(g[val], dtype=np.int64),
                )
            )
            return pa.table({out_a: pa.array(a), out_b: pa.array(b)})

        return (
            ds.map_batches(bucketize, batch_format="pyarrow")
            .groupby("__b__")
            .map_groups(bucket, batch_format="pyarrow")
        )

    def large_star(src, dst, starts, counts, m):
        # emit (v, min(N+(u))) for every neighbor v > u of each node u
        m_rep = np.repeat(np.minimum(m, src[starts]), counts)
        big = dst > src
        return dst[big], m_rep[big]

    def small_star(u, v, starts, counts, m):
        # edges are directed u > v here; per u: m = min neighbor, emit
        # (u, m) and (v, m) for the other small neighbors
        m_rep = np.repeat(m, counts)
        keep = v != m_rep
        return np.r_[v[keep], u[starts]], np.r_[m_rep[keep], m]

    def checksum(e: ray.data.Dataset) -> tuple[int, int]:
        # order-insensitive content hash: sum of mixed pair hashes + count
        def h(t: pa.Table) -> pa.Table:
            u = np.asarray(t["u"], dtype=np.int64).astype(np.uint64)
            v = np.asarray(t["v"], dtype=np.int64).astype(np.uint64)
            with np.errstate(over="ignore"):
                s = splitmix64(u * np.uint64(1000003) ^ v).sum(dtype=np.uint64)
            return pa.table(
                {
                    "s": pa.array([int(s.astype(np.int64))]),
                    "n": pa.array([len(t)]),
                }
            )

        tot_s, tot_n = 0, 0
        for bt in e.map_batches(h, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            tot_s = (tot_s + sum(bt["s"].to_pylist())) & 0xFFFFFFFFFFFFFFFF
            tot_n += sum(bt["n"].to_pylist())
        return tot_s, tot_n

    prev = checksum(E)
    i = 0
    while True:
        i += 1
        sym = E.map_batches(
            lambda t: pa.table(
                {
                    "src": pa.concat_arrays(
                        [t["u"].combine_chunks(), t["v"].combine_chunks()]
                    ),
                    "dst": pa.concat_arrays(
                        [t["v"].combine_chunks(), t["u"].combine_chunks()]
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        # no distinct between the half-rounds: duplicate edges cannot change
        # any per-node minimum (they at most double small-star's input), and
        # skipping it saves one full shuffle per round; the post-small-star
        # distinct restores the canonical edge set
        after_large = per_node(sym, "src", "dst", large_star)
        after_small = per_node(after_large, "u", "v", small_star)
        E = distinct(after_small, ["u", "v"]).materialize()
        if checkpoint_dir is not None:
            E.write_parquet(f"{checkpoint_dir}/star_edges_round_{i}")
        cur = checksum(E)
        logger.info("CC star round %d: %d edges", i, cur[1])
        if cur == prev or (max_iter is not None and i >= max_iter):
            break
        prev = cur

    # converged: E is a forest of stars rooted at each component's min node
    def stars_to_labels(t: pa.Table) -> pa.Table:
        u = t["u"].combine_chunks()
        v = t["v"].combine_chunks()
        return pa.table(
            {
                "record_id": pa.concat_arrays([u, v]),
                "component": pa.concat_arrays([v, v]),
            }
        )

    # identity rows cover nodes canon dropped (self-loop-only nodes) and
    # make every endpoint labeled
    def identity_labels(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [
                t["record_id_l"].combine_chunks().cast(pa.int64()),
                t["record_id_r"].combine_chunks().cast(pa.int64()),
            ]
        )
        return pa.table({"record_id": ids, "component": ids})

    labels = E.map_batches(stars_to_labels, batch_format="pyarrow").union(
        edges.map_batches(identity_labels, batch_format="pyarrow")
    )
    # min per node: keeps the star root where one exists (root = component
    # min <= own id), resolves a max_iter-truncated run's multiple candidates.
    # A sort-based groupby emits one block per input block, so the labels
    # would carry the union's block count (edge set + stars) into the
    # attach's lookup shuffle; B blocks keep that shuffle small
    return (
        per_node(
            labels,
            "record_id",
            "component",
            lambda node, _, starts, counts, m: (node[starts], m),
            out=("record_id", "component"),
        )
        .repartition(B)
        .materialize()
    )


# ------------------------------------------------------------------ public API
def connected_components(
    *,
    links: ray.data.Dataset,
    records: ray.data.Dataset | None = None,
    max_iter: int | None = None,
    label_as: str = "component",
    mode: str = "auto",
    checkpoint_dir: str | None = None,
) -> ray.data.Dataset:
    """Label records by connected component of the link graph.

    Returns (record_id, <label_as>) when ``records`` is None, else ``records``
    with a <label_as> column appended (singletons included).

    ``mode``: "driver" (vectorized labelling in this process),
    "distributed" (large-star/small-star contraction, O(log n) rounds) or
    "auto" (driver at or below ``DRIVER_THRESHOLD`` edges, else
    distributed). Both give the same labels for every id type: the min
    member code per component, a singleton's own code. ``max_iter`` and
    ``checkpoint_dir`` apply to the distributed rounds.
    """
    if mode not in ("auto", "driver", "distributed"):
        raise ValueError(f"mode must be auto/driver/distributed, got {mode!r}")
    if records is not None:
        _rs0 = records.schema(fetch_if_missing=True)
        if _rs0 is not None and label_as in _rs0.base_schema.names:
            # append_column would emit a DUPLICATE column name on the
            # map-side attach and the lookup join would silently overwrite
            # the records' original column on the bucketed one
            raise ValueError(
                f"records already have a column named {label_as!r}; pass a "
                "different label_as"
            )
    edges = links.select_columns(["record_id_l", "record_id_r"])
    if mode == "auto":
        # Materialize the pruned 2-col edge set BEFORE the routing count:
        # count() would otherwise execute the full upstream pair-gen lineage
        # (ngram/LSH shuffles) once for the count and AGAIN for the chosen
        # CC path. Both paths read the edge set anyway, so this only moves
        # the pin earlier; 16 B/edge, spills past the store budget.
        edges = edges.materialize()
        mode = "driver" if edges.count() <= DRIVER_THRESHOLD else "distributed"

    _es = edges.schema(fetch_if_missing=True)
    # empty edge set (zero blocks): any id type is consistent; int64 keeps
    # the singleton-labeling path typed
    id_type = _es.base_schema.field("record_id_l").type if _es is not None else pa.int64()
    if pa.types.is_list(id_type) or pa.types.is_large_list(id_type):
        # the Factorizer's hash64/pandas-key machinery handles scalars and
        # struct ids; LIST ids would crash three layers deep (2-D object
        # hash arrays, unhashable ndarray keys) — fail with intent
        raise ValueError(
            "list-typed record ids are not supported by "
            "connected_components; use a struct or scalar id column"
        )

    # ids must be int64 codes (factorize otherwise)
    f = None
    if not pa.types.is_integer(id_type):
        both = edges.map_batches(
            lambda t: pa.table(
                {
                    "record_id": pa.concat_arrays(
                        [
                            t["record_id_l"].combine_chunks(),
                            t["record_id_r"].combine_chunks(),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        )
        if records is not None:
            # factorize over link endpoints UNION record ids: every record —
            # singletons included — gets a dense code, so singleton labels
            # can be own-code (collision-free) instead of a 62-bit hash
            # (birthday-colliding at ~1e9 singletons)
            both = both.union(records.select_columns(["record_id"]))
        f = Factorizer(both)
        edges = f.encode_column(
            edges,
            "record_id_l",
            ds_schema=pa.schema(
                [pa.field("record_id_l", id_type), pa.field("record_id_r", id_type)]
            ),
        )
        edges = f.encode_column(
            edges,
            "record_id_r",
            ds_schema=pa.schema(
                [pa.field("record_id_l", pa.int64()), pa.field("record_id_r", id_type)]
            ),
        )
    if mode == "driver":
        labels = _label_in_process(edges)
    else:
        labels = _cc_star(edges, max_iter=max_iter, checkpoint_dir=checkpoint_dir)
    if records is not None:
        return _attach_labels_coded(records, labels, f, label_as, id_type)
    if isinstance(labels, pa.Table):
        labels = ray.data.from_arrow(labels)
    if f is not None:
        labels = f.decode_column(
            labels,
            "record_id",
            ds_schema=pa.schema(
                [pa.field("record_id", pa.int64()), pa.field("component", pa.int64())]
            ),
        )

    def finish(t: pa.Table) -> pa.Table:
        # int ids come back in their own type (codes are int64)
        rid = t["record_id"] if f is not None else t["record_id"].cast(id_type)
        return pa.table({"record_id": rid, label_as: t["component"]})

    return labels.map_batches(finish, batch_format="pyarrow")


def _attach_labels_coded(
    records: ray.data.Dataset,
    labels: ray.data.Dataset | pa.Table,
    f: Factorizer | None,
    label_as: str,
    id_type: pa.DataType,
) -> ray.data.Dataset:
    """Attach component labels to records by one lookup in code space.

    ``labels`` (record_id = code, component) is a Dataset from star
    contraction, looked up per bucket of one shuffle, or an Arrow table from
    the in-process pass, put in the object store once and looked up
    map-side. Int ids are their own codes (``f`` is None); other ids are
    encoded with the SAME factorizer, which covered the record ids at build
    time. A record missing from the labels — a singleton — takes its own
    code as the label. Own-codes are unique and belong to unlinked records,
    so they cannot collide with any linked component's min-code label
    (unlike a 62-bit id-hash scheme, which has non-negligible birthday
    collisions at ~1e9 singletons)."""
    # empty records: nothing to attach
    base = base_schema_or(records, pa.schema([pa.field("record_id", id_type)]))
    code = "record_id"
    if f is not None:
        code = "__cc_code__"

        def dup(t: pa.Table) -> pa.Table:
            return t.append_column(code, t["record_id"].combine_chunks())

        records = f.encode_column(
            records.map_batches(dup, batch_format="pyarrow"),
            code,
            ds_schema=base.append(pa.field(code, id_type)),
        )
        base = base.append(pa.field(code, pa.int64()))

    def own_code(missing: pa.Array) -> pa.Array:
        return missing.cast(pa.int64())

    if isinstance(labels, pa.Table):
        ref = ray.put(labels)

        def attach(t: pa.Table) -> pa.Table:
            lab = ray.get(ref)
            vals = _lookup(
                t[code].combine_chunks().cast(pa.int64()),
                lab["record_id"].combine_chunks(),
                lab["component"].combine_chunks(),
                own_code,
                code,
            )
            return t.append_column(label_as, vals)

        out = records.map_batches(attach, batch_format="pyarrow")
    else:
        out = bucketed_lookup_join(
            records,
            code,
            labels,
            key_name="record_id",
            val_name="component",
            out_type=pa.int64(),
            result_name=label_as,
            ds_schema=base,
            on_missing=own_code,
        )
    return out if f is None else out.drop_columns([code])
