"""Regressions for the round-5 review of _joins/sketch/packing: null keys in
distinct(), nested broadcast_isin keys, hash_join name-collision and
empty-side flavors, negative-id ordering, heavy-hitter name collisions."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def test_distinct_keeps_one_null_row(ray_session):
    from mismo_ray._joins import distinct

    ds = ray.data.from_arrow(
        pa.table({"h": pa.array(["a", None, "a", None, "b"], pa.string())})
    )
    got = sorted(
        (r["h"] if r["h"] is not None else "<null>")
        for r in distinct(ds, "h").take_all()
    )
    assert got == ["<null>", "a", "b"]


def test_distinct_multi_column_with_nulls(ray_session):
    from mismo_ray._joins import distinct

    ds = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 1, None, None, 1], pa.int64()),
                "b": pa.array(["x", "x", "y", "y", None], pa.string()),
            }
        )
    )
    rows = {(r["a"], r["b"]) for r in distinct(ds, ["a", "b"]).take_all()}
    assert rows == {(1, "x"), (None, "y"), (1, None)}


def test_broadcast_isin_list_keys(ray_session):
    from mismo_ray._joins import broadcast_isin

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(
                    [[1, 2], [3, 4], None, [5]], type=pa.list_(pa.int64())
                ),
                "i": pa.array([0, 1, 2, 3], pa.int64()),
            }
        )
    )
    kept = sorted(
        r["i"] for r in broadcast_isin(ds, "k", [(1, 2), (5,)]).take_all()
    )
    assert kept == [0, 3]
    # null keys never match -> survive the anti filter (SQL NOT IN is
    # deliberately NOT mirrored here; the docstring pins semi/anti rules)
    anti = sorted(
        r["i"]
        for r in broadcast_isin(ds, "k", [(1, 2)], invert=True).take_all()
    )
    assert anti == [1, 2, 3]


def test_hash_join_right_payload_named_like_key_raises(ray_session):
    from mismo_ray._joins import hash_join

    left = ray.data.from_arrow(
        pa.table({"id": pa.array([1], pa.int64()), "x": pa.array([2], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"rid": pa.array([1], pa.int64()), "id": pa.array([9], pa.int64())})
    )
    # right payload "id" collides with the kept left key name -> suffixed
    out = hash_join(left, right, on="id", right_on="rid").to_pandas()
    assert sorted(out.columns) == ["id", "id_r", "x"]
    assert out.loc[0, "id_r"] == 9
    with pytest.raises(ValueError, match="collision"):
        hash_join(left, right, on="id", right_on="rid", right_suffix=None)


def test_hash_join_empty_left_outer_flavors(ray_session):
    from mismo_ray._joins import hash_join

    # derived empty left (schema unobservable) + right/full outer must not
    # silently drop the right side
    empty = ray.data.from_arrow(
        pa.table({"id": pa.array([], pa.int64()), "x": pa.array([], pa.int64())})
    ).map_batches(lambda t: t, batch_format="pyarrow")
    right = ray.data.from_arrow(
        pa.table({"id": pa.array([1], pa.int64()), "y": pa.array([5], pa.int64())})
    )
    with pytest.raises(ValueError, match="left_schema"):
        hash_join(empty, right, on="id", how="full_outer")
    # with the schema provided, the right row comes back null-padded
    out = hash_join(
        empty,
        right,
        on="id",
        how="full_outer",
        left_schema=pa.schema([("id", pa.int64()), ("x", pa.int64())]),
    ).to_pandas()
    assert len(out) == 1 and out.loc[0, "y"] == 5


def test_row_number_negative_ids(ray_session):
    from mismo_ray.packing import add_row_number

    ds = ray.data.from_arrow(
        pa.table({"record_id": pa.array([-5, 3, -1, 0], pa.int64())})
    )
    out = (
        add_row_number(ds, order="id")
        .to_pandas()
        .sort_values("record_id")
    )
    # id order: -5 < -1 < 0 < 3 (a raw uint64 view would sort negatives last)
    assert out.set_index("record_id")["row_number"].to_dict() == {
        -5: 0,
        -1: 1,
        0: 2,
        3: 3,
    }


def test_sketch_result_name_collisions(ray_session):
    from mismo_ray.sketch import add_approx_distinct, heavy_hitters

    ds = ray.data.from_arrow(pa.table({"n": pa.array([1, 1, 2], pa.int64())}))
    with pytest.raises(ValueError, match="result_name"):
        heavy_hitters(ds, "n", k=1)
    with pytest.raises(ValueError, match="group key"):
        add_approx_distinct(ds, "n", "n", result_name="n")


def test_diff_empty_before_reports_insertions(ray_session):
    """The review's live bug: a zero-block `before` + full_outer used to
    return the empty side, reporting zero insertions."""
    from mismo_ray.types import Diff

    empty_before = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([], pa.int64()),
                "v": pa.array([], pa.string()),
            }
        )
    ).map_batches(lambda t: t, batch_format="pyarrow")
    after = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([1, 2], pa.int64()),
                "v": pa.array(["a", "b"], pa.string()),
            }
        )
    )
    d = Diff(before=empty_before, after=after)
    assert d.insertions().count() == 2
    assert d.deletions().count() == 0


def test_cc_label_as_collision_raises(ray_session):
    from mismo_ray.cluster import connected_components

    links = ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array([1], pa.int64()),
                "record_id_r": pa.array([2], pa.int64()),
            }
        )
    )
    recs = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([1, 2], pa.int64()),
                "component": pa.array([9, 9], pa.int64()),  # stale labels
            }
        )
    )
    with pytest.raises(ValueError, match="label_as"):
        connected_components(links=links, records=recs)
    # a different label name works and IGNORES the stale column
    out = connected_components(
        links=links, records=recs, label_as="cluster"
    ).to_pandas()
    assert sorted(out["cluster"].tolist()) == [1, 1]
    with pytest.raises(ValueError, match="mode"):
        connected_components(links=links, mode="Star")
    # star contraction is the distributed path, not a mode of its own
    with pytest.raises(ValueError, match="mode"):
        connected_components(links=links, mode="star")


def test_cc_list_ids_clear_error(ray_session):
    from mismo_ray.cluster import connected_components

    links = ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array([[1, 2]], type=pa.list_(pa.int64())),
                "record_id_r": pa.array([[3, 4]], type=pa.list_(pa.int64())),
            }
        )
    )
    with pytest.raises(ValueError, match="list-typed"):
        connected_components(links=links)


def test_line_dedupe_string_ids_clear_error(ray_session):
    from mismo_ray.dedupe import dup_line_stats

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(["a", "b"], pa.string()),
                "text": pa.array(["x\ny", "x\nz"], pa.string()),
            }
        )
    )
    with pytest.raises(Exception, match="integer id column"):
        dup_line_stats(ds).to_pandas()


def test_comparer_weights_odds_null_labels():
    """One null label must NOT poison every row's odds: non-null labels
    index their level odds, nulls fall to the else slot (odds 1.0)."""
    from mismo_ray.fs import LevelWeights
    from mismo_ray.fs._weights import ComparerWeights

    cw = ComparerWeights(
        "c",
        [LevelWeights("exact", m=0.9, u=0.01), LevelWeights("near", m=0.08, u=0.09)],
    )
    got = cw.odds(pa.array([0, 1, None], type=pa.int64()))
    assert got[0] == pytest.approx(90.0)
    assert got[1] == pytest.approx(0.08 / 0.09)
    assert got[2] == 1.0
    # float labels (pandas int-with-null round trip) behave identically
    got_f = cw.odds(np.array([0.0, 1.0, np.nan]))
    assert got_f[0] == pytest.approx(90.0) and got_f[2] == 1.0


def test_level_proportions_string_labels():
    from mismo_ray.fs._train import level_proportions

    props = level_proportions(
        ["exact", "near"], np.array(["exact", "exact", "near", "huh"], dtype=object)
    )
    # 2 exact, 1 near, 1 else -> proportions over 3 slots sum to 1
    assert len(props) >= 2
    assert props[0] == pytest.approx(2 / 4)
    assert props[1] == pytest.approx(1 / 4)
    # an object label column from a matrix that mixes string and integer
    # comparers: its ints are level indices, not unknown level names
    props = level_proportions(["x", "y", "else"], np.array([0, 0, 1], dtype=object))
    assert props == pytest.approx([0.5, 0.25, 0.25])


@pytest.mark.parametrize("fused", [False, True], ids=["key", "fused_or"])
def test_link_salting_one_sided_hot_key(ray_session, fused):
    """A key hot on ONE side with no partner rows must be dropped by the
    count pre-pass (zero possible pairs), not shuffled into one group."""
    from mismo_ray.linker import FusedOrLinker, KeyLinker

    left = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(range(3000), type=pa.int64()),
                "k": pa.array(
                    ["hot"] * 2900 + [f"k{i}" for i in range(100)], pa.string()
                ),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(range(10_000, 10_050), type=pa.int64()),
                "k": pa.array([f"k{i}" for i in range(50)], pa.string()),
            }
        )
    )
    lk = (
        FusedOrLinker([["k"]], salt_rows=256)
        if fused
        else KeyLinker("k", salt_rows=256)
    )
    links = lk(left, right).links_ds.to_pandas()
    assert lk.last_counters.get("one_sided_keys_dropped", 0) >= 1
    # the 50 shared keys still link 1:1
    assert len(links) == 50


def test_minhash_empty_docs_never_pair(ray_session):
    """Empty-string docs have no shingles -> INVALID signature -> no band
    keys; under hybrid verify they used to form an all-accept clique
    (estimated agreement 1.0) that exact jaccard rejects."""
    from mismo_ray.dedupe import minhash_lsh_pairs

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(range(6), type=pa.int64()),
                "text": pa.array(
                    ["", "", "", "the same long text here", "the same long text here", None]
                ),
            }
        )
    )
    for mode in ("hybrid", "exact", "est"):
        got = {
            (r["record_id_l"], r["record_id_r"])
            for r in minhash_lsh_pairs(
                ds, "text", verify_jaccard=0.8, verify_mode=mode, shingle_w=5
            ).links_ds.take_all()
        }
        assert got == {(3, 4)}, (mode, got)


def test_minhash_band_divisibility_validated(ray_session):
    from mismo_ray.dedupe import minhash_lsh_pairs

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([1, 2], type=pa.int64()),
                "text": pa.array(["aaaaaaa", "bbbbbbb"]),
            }
        )
    )
    with pytest.raises(Exception, match="multiple"):
        minhash_lsh_pairs(ds, "text", num_hashes=8, n_bands=16).links_ds.take_all()


def test_dedup_index_snapshot_param_guard(ray_session, tmp_path):
    from mismo_ray.state.dedup_index import (
        StreamingDedupIndex,
        StreamingNearDupIndex,
    )

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([1], type=pa.int64()),
                "text": pa.array(["hello world document"]),
            }
        )
    )
    idx = StreamingDedupIndex(n_shards=2, seed=7)
    idx.filter_new(ds, "text")
    snap = str(tmp_path / "exact.pq")
    idx.snapshot(snap)
    idx.shutdown()
    with pytest.raises(ValueError, match="seed"):
        StreamingDedupIndex(n_shards=2, seed=8).restore(snap)
    # same seed, different shard count restores fine (keys re-shard on load)
    ok = StreamingDedupIndex(n_shards=4, seed=7).restore(snap)
    assert ok.n_seen() == 1
    ok.shutdown()

    nd = StreamingNearDupIndex(n_shards=2, shingle_w=5)
    nd.filter_new(ds, "text")
    snap2 = str(tmp_path / "near.pq")
    nd.snapshot(snap2)
    nd.shutdown()
    with pytest.raises(ValueError, match="params"):
        StreamingNearDupIndex(n_shards=2, shingle_w=6).restore(snap2)
