"""Connected components: transitive clustering of linked records.

Reference: mismo ``cluster/_connected_components.py`` — iterative min-label
propagation, linear in the diameter of the largest component; non-int record
ids are factorized to int64 first; unlinked records get fresh labels above
the max existing label.

Two execution paths:

- **driver union-find** (``mode="driver"``, or ``"auto"`` at or below
  ``DRIVER_THRESHOLD`` edges): collect the edge ids, union-find in a dict,
  broadcast the labels back to the records.
- **star contraction** (``mode="distributed"``, or ``"auto"`` above the
  threshold; the 10^12-row path): alternating large-star / small-star rounds
  (Kiveris et al., "Connected Components in MapReduce and Beyond", SoCC'14 —
  the arXiv:1802.09478 survey the reference cites) converge in O(log n)
  rounds instead of min-propagation's O(diameter). Every half-round, and the
  final per-node minimum, is one bucketed shuffle whose buckets run one
  vectorized sort + ``minimum.reduceat`` (``_runs``). Non-int ids are
  factorized to int64 codes first; labels attach to records by one bucketed
  lookup in code space (``_attach_labels_coded``).

Component label = the minimum int64 code over the component's members
(identical to the reference's fixpoint). Singletons use their own id/code as
the fresh label (unique, disjoint from min-member labels; the reference
numbers them ``max_label + row_number`` — same semantics, different arbitrary
values, and no int64 overflow on hash-derived ids). The driver path's
non-int singletons take an id hash in the >= 2^62 range instead.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray.data

from mismo_ray._joins import distinct
from mismo_ray._util import hash64

logger = logging.getLogger(__name__)

# mode="auto" runs the driver union-find at or below this many edges
DRIVER_THRESHOLD = 2_000_000


# --------------------------------------------------------------- factorizer
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
    mapping — ``pc.index_in`` + ``take`` for scalar key types, a python dict
    keyed on ``_hashable`` for nested (struct/list) keys. ``result_name=None``
    replaces ``column`` in place, else appends. Missing keys raise unless
    ``on_missing(missing_key_array) -> fill value Array`` is given.
    """
    import pyarrow.compute as pc

    from mismo_ray._joins import default_num_partitions

    from mismo_ray._util import base_schema_or

    B = default_num_partitions()
    schema = ds_schema or base_schema_or(ds)  # clear error on empty-unknown
    key_type = schema.field(column).type
    data_cols = list(schema.names)
    nested = pa.types.is_nested(key_type)

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
        keys = drows["__key__"].combine_chunks()
        mkeys = mrows["__key__"].combine_chunks()
        mvals = mrows["__val__"].combine_chunks()
        # pos = each data row's row in the mapping slice, -1 when missing
        if nested:
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
                    f"{int(miss.sum())} keys of '{column}' missing from mapping"
                )
            fill = on_missing(keys.filter(pa.array(miss)))
            if not isinstance(fill, pa.Array):
                fill = pa.array(list(fill), type=out_type)
            # the fills go after the mapping values: one take serves both
            pos[miss] = len(mvals) + np.arange(int(miss.sum()))
            mvals = pa.concat_arrays([mvals, fill.cast(out_type)])
        vals = pc.take(mvals, pa.array(pos))
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
    assignment: code = bucket + n_buckets * rank_within_bucket — sort-free,
    deterministic, distributed (SURVEY §2.9).

    The id<->code mapping stays a (materialized) Dataset; encode/decode run
    as bucketed lookup joins, so record-id vocabularies as large as the
    corpus never touch the driver. Only when the vocabulary is provably small
    (<= broadcast_threshold) is it collected into a broadcast dict fast path.
    """

    def __init__(
        self,
        ids_ds: ray.data.Dataset,
        *,
        n_buckets: int = 1024,
        broadcast_threshold: int = 2_000_000,
    ):
        self.n_buckets = n_buckets
        _s = ids_ds.schema(fetch_if_missing=True)
        schema = _s.base_schema if _s is not None else pa.schema(
            [pa.field("record_id", pa.int64())]  # empty ids: type is moot
        )
        self.id_type = schema.field("record_id").type
        self.is_int = pa.types.is_integer(self.id_type)
        self.mapping = None
        self._decode = None
        if self.is_int:
            return
        # ids -> hash bucket; batch-local pre-dedupe cuts the shuffle volume,
        # the authoritative dedupe happens inside each bucket group. A
        # groupby on the raw id column would be wrong here: Ray's sort-based
        # shuffle cannot compare nested (struct/list) keys — the int bucket
        # is the only shuffle key this path ever sorts on.
        import pyarrow.compute as pc

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
            bucket = (hash64(ids) % np.uint64(n_buckets)).astype(np.int64)
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
            codes = b + n_buckets * np.arange(len(uniq), dtype=np.int64)
            return pa.table({"record_id": uniq, "code": pa.array(codes)})

        self.coded = (
            bucketed.groupby("bucket")
            .map_groups(code_group, batch_format="pyarrow")
            .materialize()
        )
        self.coded_schema = pa.schema(
            [pa.field("record_id", self.id_type), pa.field("code", pa.int64())]
        )
        self.n_codes = self.coded.count()
        if self.n_codes <= broadcast_threshold:
            # zero collected rows carry no columns: an empty vocabulary
            # must still give an (empty) mapping
            pdf = self.coded.to_pandas().reindex(columns=["record_id", "code"])
            self.mapping = dict(zip(pdf["record_id"].map(_hashable), pdf["code"]))
            self._decode = {v: k for k, v in self.mapping.items()}

    def encode_column(
        self,
        ds: ray.data.Dataset,
        column: str,
        *,
        ds_schema: pa.Schema | None = None,
    ) -> ray.data.Dataset:
        if self.is_int:
            return ds
        if self.mapping is not None:
            mapping = self.mapping

            def fn(t: pa.Table) -> pa.Table:
                vals = [mapping[_hashable(v)] for v in t[column].to_pylist()]
                idx = t.schema.get_field_index(column)
                return t.set_column(idx, column, pa.array(vals, type=pa.int64()))

            return ds.map_batches(fn, batch_format="pyarrow")
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
        if self._decode is not None:
            decode = self._decode
            id_type = self.id_type

            def fn(t: pa.Table) -> pa.Table:
                vals = [decode[v] for v in t[column].to_pylist()]
                idx = t.schema.get_field_index(column)
                return t.set_column(idx, column, pa.array(vals, type=id_type))

            return ds.map_batches(fn, batch_format="pyarrow")
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


# ------------------------------------------------------------------- driver path
def _cc_driver(edges: ray.data.Dataset) -> dict:
    """Union-find over collected edges -> {record_id(or hashable): min-code}."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for b in edges.iter_batches(batch_format="pyarrow"):
        ll = b["record_id_l"].to_pylist()
        rr = b["record_id_r"].to_pylist()
        for a, c in zip(ll, rr):
            union(_hashable(a), _hashable(c))
    return {x: find(x) for x in parent}


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
    import pyarrow.compute as pc

    from mismo_ray._joins import default_num_partitions
    from mismo_ray._util import splitmix64

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
    factorize_broadcast_threshold: int = 2_000_000,
    checkpoint_dir: str | None = None,
) -> ray.data.Dataset:
    """Label records by connected component of the link graph.

    Returns (record_id, <label_as>) when ``records`` is None, else ``records``
    with a <label_as> column appended (singletons included).

    ``mode``: "driver" (union-find on the driver), "distributed"
    (large-star/small-star contraction, O(log n) rounds) or "auto" (driver
    at or below ``DRIVER_THRESHOLD`` edges, else distributed). Both give the
    same labels: the min member id (code) per component.
    """
    if mode not in ("auto", "driver", "distributed"):
        raise ValueError(f"mode must be auto/driver/distributed, got {mode!r}")
    if records is not None:
        _rs0 = records.schema(fetch_if_missing=True)
        if _rs0 is not None and label_as in _rs0.base_schema.names:
            # append_column would emit a DUPLICATE column name on the
            # broadcast path and the lookup join would silently overwrite
            # the records' original column on the coded path
            raise ValueError(
                f"records already have a column named {label_as!r}; pass a "
                "different label_as"
            )
    edges = links.select_columns(["record_id_l", "record_id_r"])
    if mode == "auto":
        # Materialize the pruned 2-col edge set BEFORE the routing count:
        # count() would otherwise execute the full upstream pair-gen lineage
        # (ngram/LSH shuffles) once for the count and AGAIN for the chosen
        # CC path. The distributed path materializes edges internally
        # anyway (it iterates the edge set over rounds), so this only
        # moves the pin earlier; 16 B/edge, spills past the store budget.
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
    int_ids = pa.types.is_integer(id_type)

    if mode == "driver":
        comp = _cc_driver(edges)
        if not int_ids:
            # factorize: min-code semantics need int codes; order by first-seen
            codes = {k: i for i, k in enumerate(sorted(comp.keys(), key=repr))}
            roots = {k: codes[v] for k, v in comp.items()}
            # component = min code within component
            min_per_root: dict = {}
            for k, r in roots.items():
                c = codes[k]
                if r not in min_per_root or c < min_per_root[r]:
                    min_per_root[r] = c
            comp = {k: min_per_root[r] for k, r in roots.items()}
        labels_map = comp
        if records is None:
            keys = list(labels_map.keys())
            rid_arr = (
                pa.array(keys, type=id_type)
                if not isinstance(keys[0] if keys else None, tuple)
                else pa.array([dict(k) for k in keys], type=id_type)
            )
            return ray.data.from_arrow(
                pa.table(
                    {
                        "record_id": rid_arr,
                        label_as: pa.array(
                            [labels_map[k] for k in keys], type=pa.int64()
                        ),
                    }
                )
            )
        return _attach_labels_broadcast(records, labels_map, label_as)

    # distributed path: ids must be int64 (factorize otherwise)
    f = None
    if not int_ids:
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
        f = Factorizer(both, broadcast_threshold=factorize_broadcast_threshold)
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
    labels = _cc_star(edges, max_iter=max_iter, checkpoint_dir=checkpoint_dir)
    if records is not None:
        return _attach_labels_coded(records, labels, f, label_as, id_type)
    if f is not None:
        labels = f.decode_column(
            labels,
            "record_id",
            ds_schema=pa.schema(
                [pa.field("record_id", pa.int64()), pa.field("component", pa.int64())]
            ),
        )
    return labels.map_batches(
        lambda t: t.rename_columns(
            [label_as if c == "component" else c for c in t.column_names]
        ),
        batch_format="pyarrow",
    )


def _attach_labels_coded(
    records: ray.data.Dataset,
    labels: ray.data.Dataset,
    f: Factorizer | None,
    label_as: str,
    id_type: pa.DataType,
) -> ray.data.Dataset:
    """Attach component labels to records by one bucketed lookup in code
    space.

    ``labels`` is in code space (record_id = code). Int ids are their own
    codes (``f`` is None); other ids are encoded with the SAME factorizer,
    which covered the record ids at build time. A record missing from the
    labels — a singleton — takes its own code as the label. Own-codes are
    unique and belong to unlinked records, so they cannot collide with any
    linked component's min-code label (unlike a 62-bit id-hash scheme, which
    has non-negligible birthday collisions at ~1e9 singletons)."""
    _bs = records.schema(fetch_if_missing=True)
    base = _bs.base_schema if _bs is not None else pa.schema(
        [pa.field("record_id", id_type)]  # empty records: nothing to attach
    )
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
    out = bucketed_lookup_join(
        records,
        code,
        labels,
        key_name="record_id",
        val_name="component",
        out_type=pa.int64(),
        result_name=label_as,
        ds_schema=base,
        on_missing=lambda missing: missing.cast(pa.int64()),
    )
    return out if f is None else out.drop_columns([code])


def _attach_labels_broadcast(
    records: ray.data.Dataset, labels_map: dict, label_as: str
) -> ray.data.Dataset:
    """Attach component labels; singleton records (no links) get fresh
    unique labels (own-id / id-hash — see the branch comments; the
    reference's max_label+row_number numbering is deliberately not used)."""
    import ray

    ref = ray.put(labels_map)

    _rs = records.schema(fetch_if_missing=True)
    id_type = (
        _rs.base_schema.field("record_id").type if _rs is not None else pa.int64()
    )  # empty records: type is moot
    int_ids = pa.types.is_integer(id_type)

    def fn(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        ids = t["record_id"].to_pylist()
        out = []
        for i, v in enumerate(ids):
            k = _hashable(v)
            if k in m:
                out.append(int(m[k]))
            elif int_ids:
                # component labels are min-member ids of LINKED records; a
                # singleton's own id is unique and disjoint from those, so it
                # is itself a valid fresh label (and cannot overflow, unlike
                # the reference's max_label + row_number numbering).
                out.append(int(v))
            else:
                # unique fresh label from the id hash; the high bit-range
                # (>= 2^62) cannot collide with factorized codes.
                out.append(
                    int((hash64([k])[0] >> np.uint64(2)) | np.uint64(1 << 62))
                )
        return t.append_column(label_as, pa.array(out, type=pa.int64()))

    return records.map_batches(fn, batch_format="pyarrow")
