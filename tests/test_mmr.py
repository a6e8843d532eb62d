from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from mismo_ray.ann import mmr_select


def _mk(vectors, ids=None):
    n = len(vectors)
    ids = list(range(n)) if ids is None else ids
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "embedding": pa.array(
                    [None if v is None else list(map(float, v)) for v in vectors],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
    )


def _ref_mmr(vectors, ids, q, k, pool_n, lam):
    """Per-row python reference of the documented greedy contract."""
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q)
    rows = [
        (i, np.asarray(v, dtype=np.float64))
        for i, v in zip(ids, vectors)
        if v is not None and np.linalg.norm(v) > 0
    ]
    normed = [(i, v / np.linalg.norm(v)) for i, v in rows]
    rel = sorted(
        ((float(v @ q), i, v) for i, v in normed), key=lambda t: (-t[0], t[1])
    )[:pool_n]
    pool = [(i, r, v) for r, i, v in rel]
    out = []
    sel_vecs = []
    while len(out) < min(k, len(pool)):
        best = None
        for i, r, v in pool:
            if i in {o for o, _ in out}:
                continue
            if not sel_vecs:
                s = r
            else:
                s = lam * r - (1 - lam) * max(float(v @ sv) for sv in sel_vecs)
            s = round(s, 12)
            if best is None or s > best[0] or (s == best[0] and i < best[1]):
                best = (s, i, v)
        out.append((best[1], len(out)))
        sel_vecs.append(best[2])
    return [(rank, i) for i, rank in out]


def test_mmr_matches_reference(ray_session):
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(120, 8))
    q = rng.normal(size=8)
    ds = _mk(vecs.tolist()).repartition(5)
    for lam, k, pool in [(0.5, 6, 30), (0.7, 10, 50), (0.0, 4, 20), (1.0, 5, 10)]:
        got = mmr_select(ds, q, k=k, pool_n=pool, lambda_=lam)
        want = _ref_mmr(vecs.tolist(), list(range(120)), q, k, pool, lam)
        assert list(zip(got["rank"].to_pylist(), got["vec_id"].to_pylist())) == want, (
            lam,
            k,
            pool,
        )


def test_mmr_prefers_diversity_over_redundancy(ray_session):
    # two clusters of EXACT duplicates, equally relevant, mirrored around
    # the query: pure relevance ties to the min ids (all cluster A); MMR
    # must alternate clusters because a duplicate of an already-selected
    # item scores rel - 1
    a = [1.0, 0.3, 0.0]
    b = [1.0, -0.3, 0.0]
    vecs = [a] * 5 + [b] * 5
    ds = _mk(vecs)
    got = mmr_select(ds, [1.0, 0.0, 0.0], k=3, pool_n=10, lambda_=0.5)
    picked = got["vec_id"].to_pylist()
    assert picked == [0, 5, 1]  # A dup, then the B cluster, then A again
    # lambda=1 degenerates to pure relevance: equal rel ties to min ids
    rel_only = mmr_select(ds, [1.0, 0.0, 0.0], k=3, pool_n=10, lambda_=1.0)
    assert rel_only["vec_id"].to_pylist() == [0, 1, 2]


def test_mmr_nulls_and_clamp(ray_session):
    vecs = [[1.0, 0.0], None, [0.0, 1.0], [0.0, 0.0]]  # null + zero vector
    ds = _mk(vecs)
    got = mmr_select(ds, [1.0, 0.0], k=10, pool_n=10)
    assert got["vec_id"].to_pylist() == [0, 2]  # null/zero rows never enter


def test_mmr_validation(ray_session):
    ds = _mk([[1.0, 0.0]])
    with pytest.raises(ValueError, match="lambda"):
        mmr_select(ds, [1.0, 0.0], lambda_=1.5)
    with pytest.raises(ValueError, match="positive"):
        mmr_select(ds, [1.0, 0.0], k=0)
    with pytest.raises(ValueError, match="norm"):
        mmr_select(ds, [0.0, 0.0])


def test_mmr_partition_invariance_with_ties(ray_session):
    # exact duplicates straddling the per-block pool cutoff: the block
    # top-k must keep the MIN ids among sim-ties regardless of layout (an
    # argpartition cutoff kept an arbitrary tied subset per block)
    vecs = [[1.0, 0.1]] * 30 + [[0.5, 1.0]] * 30
    q = [1.0, 0.0]
    a = mmr_select(_mk(vecs).repartition(3), q, k=5, pool_n=10)
    b = mmr_select(_mk(vecs).repartition(17), q, k=5, pool_n=10)
    assert a.to_pydict() == b.to_pydict()
    # pool = min-id duplicates of the relevant cluster; greedy then walks
    # them in id order (equal scores -> min id)
    assert a["vec_id"].to_pylist() == [0, 1, 2, 3, 4]


def test_mmr_partition_invariance(ray_session):
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(80, 6)).tolist()
    q = rng.normal(size=6)
    a = mmr_select(_mk(vecs).repartition(2), q, k=7, pool_n=25)
    b = mmr_select(_mk(vecs).repartition(13), q, k=7, pool_n=25)
    assert a.to_pydict() == b.to_pydict()


def _ref_kcenter(vectors, ids, k, pool_n, seed=0):
    from mismo_ray._util import splitmix64

    rows = [
        (i, np.asarray(v, dtype=np.float64))
        for i, v in zip(ids, vectors)
        if v is not None and np.linalg.norm(v) > 0
    ]
    rk = {
        i: int(splitmix64(np.array([np.uint64(i + seed)], dtype=np.uint64))[0])
        for i, _ in rows
    }
    pool = sorted(rows, key=lambda t: (rk[t[0]], t[0]))[:pool_n]
    pool = [(i, v / np.linalg.norm(v)) for i, v in pool]
    pool.sort(key=lambda t: t[0])
    out = [pool[0][0]]
    sel = [pool[0][1]]
    while len(out) < min(k, len(pool)):
        best = None
        for i, v in pool:
            if i in out:
                continue
            s = round(max(float(v @ sv) for sv in sel), 12)
            if best is None or s < best[0] or (s == best[0] and i < best[1]):
                best = (s, i, v)
        out.append(best[1])
        sel.append(best[2])
    return [(r, i) for r, i in enumerate(out)]


def test_kcenter_matches_reference(ray_session):
    from mismo_ray.ann import kcenter_select

    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(100, 7)).tolist() + [None, [0.0] * 7]
    ids = list(range(102))
    ds = _mk(vecs, ids).repartition(7)
    for k, pool in [(6, 25), (10, 50), (3, 100)]:
        got = kcenter_select(ds, k=k, pool_n=pool, seed=0)
        want = _ref_kcenter(vecs, ids, k, pool)
        assert (
            list(zip(got["rank"].to_pylist(), got["vec_id"].to_pylist())) == want
        ), (k, pool)


def test_kcenter_spreads_clusters(ray_session):
    from mismo_ray.ann import kcenter_select

    # three tight clusters: the first three picks must hit all three
    a, b, c = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    vecs = [a] * 10 + [b] * 10 + [c] * 10
    got = kcenter_select(_mk(vecs), k=3, pool_n=30, seed=0)
    picked = got["vec_id"].to_pylist()
    clusters = {p // 10 for p in picked}
    assert clusters == {0, 1, 2}


def test_kcenter_partition_invariance(ray_session):
    from mismo_ray.ann import kcenter_select

    rng = np.random.default_rng(9)
    vecs = rng.normal(size=(80, 5)).tolist()
    a = kcenter_select(_mk(vecs).repartition(2), k=6, pool_n=20, seed=3)
    b = kcenter_select(_mk(vecs).repartition(19), k=6, pool_n=20, seed=3)
    assert a.to_pydict() == b.to_pydict()


def test_duplicate_id_rows_select_each_id_once(ray_session):
    from mismo_ray.ann import kcenter_select

    # duplicate vec_id rows must never yield the same id at two ranks
    vecs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]
    ids = [5, 5, 7, 9]
    ds = _mk(vecs, ids)
    got = kcenter_select(ds, k=3, pool_n=4, seed=0)
    assert sorted(got["vec_id"].to_pylist()) == [5, 7, 9]
    got2 = mmr_select(ds, [1.0, 0.0], k=3, pool_n=4)
    assert sorted(got2["vec_id"].to_pylist()) == [5, 7, 9]


def test_mmr_query_and_oracle_agree_on_zero_norm_query(ray_session, tmp_path):
    # vec_id 0 is the query; a zero vector has no direction, so the engine
    # query and its SQL oracle must both select nothing
    import duckdb
    import pyarrow.parquet as pq

    from mismo_ray.driver_queries import _mmr_oracle_sql, q_mmr_select

    rng = np.random.default_rng(4)
    vecs = [[0.0] * 4] + rng.normal(size=(20, 4)).tolist()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
                "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
                "label": pa.array([0] * len(vecs), type=pa.int32()),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    got = q_mmr_select(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{tmp_path / 'embeddings.parquet'}')"
    )
    want = con.execute(_mmr_oracle_sql(k=8, pool_n=50)).df()
    assert len(got) == 0
    assert len(want) == 0
