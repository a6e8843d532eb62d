"""Cross-run near-dup index (state.dedup_index.StreamingNearDupIndex)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

BASE = (
    "the quick brown fox jumps over the lazy dog while the band plays "
    "a slow waltz under heavy summer rain near the old stone bridge"
)
NEAR = BASE.replace("slow waltz", "slow foxtrot")  # small edit: near-dup
OTHER = (
    "completely different content about distributed query engines and "
    "arrow record batches streaming through an object store with backpressure"
)


def _ds(docs: list[tuple[int, str | None]]):
    t = pa.table(
        {
            "record_id": pa.array([d[0] for d in docs], type=pa.int64()),
            "text": pa.array([d[1] for d in docs], type=pa.string()),
        }
    )
    return ray.data.from_arrow(t)


def test_intra_batch_greedy_near_dedupe(ray_session):
    from mismo_ray.state.dedup_index import StreamingNearDupIndex

    idx = StreamingNearDupIndex(n_shards=4)
    out = idx.filter_new(_ds([(0, BASE), (1, NEAR), (2, OTHER)]), "text")
    kept = sorted(out.to_pandas()["record_id"])
    idx.shutdown()
    assert kept == [0, 2]  # first near-dup copy wins; distinct doc survives


def test_cross_run_near_dedupe_via_snapshot(ray_session, tmp_path):
    from mismo_ray.state.dedup_index import incremental_neardup_filter

    snap = str(tmp_path / "near.parquet")
    day1 = incremental_neardup_filter(
        _ds([(0, BASE), (1, OTHER)]), "text", snapshot_out=snap
    )
    assert sorted(day1.to_pandas()["record_id"]) == [0, 1]
    # day 2: a near-dup of day-1 content + an exact dup + a new doc
    day2 = incremental_neardup_filter(
        _ds([(10, NEAR), (11, OTHER), (12, "fresh short text unrelated to anything else entirely new")]),
        "text",
        snapshot_in=snap,
    )
    assert sorted(day2.to_pandas()["record_id"]) == [12]


def test_nulls_and_short_texts_pass(ray_session):
    from mismo_ray.state.dedup_index import StreamingNearDupIndex

    idx = StreamingNearDupIndex(n_shards=2, shingle_w=24)
    docs = [(0, None), (1, "tiny"), (2, "tiny"), (3, None)]
    out = idx.filter_new(_ds(docs), "text")
    idx.shutdown()
    # no signature -> never deduped (even identical short strings)
    assert sorted(out.to_pandas()["record_id"]) == [0, 1, 2, 3]


def test_result_consumable_twice(ray_session):
    from mismo_ray.state.dedup_index import StreamingNearDupIndex

    idx = StreamingNearDupIndex(n_shards=2)
    out = idx.filter_new(_ds([(0, BASE), (1, NEAR)]), "text")
    a = sorted(out.to_pandas()["record_id"])
    b = sorted(out.to_pandas()["record_id"])
    idx.shutdown()
    assert a == b == [0]


def test_matches_minhash_lsh_pairs_semantics(ray_session):
    """Docs the batch near-dup op links should also collide in the index
    (same signatures/band keys by construction)."""
    from mismo_ray.dedupe import (
        band_keys_from_signatures,
        minhash_signatures_charhash_batch,
    )
    from mismo_ray.state.dedup_index import StreamingNearDupIndex

    sig, valid = minhash_signatures_charhash_batch(
        [BASE, NEAR], num_hashes=16, shingle_w=24, seed=7
    )
    keys, _ = band_keys_from_signatures(sig, valid, n_bands=8)
    shared = set(keys[0].tolist()) & set(keys[1].tolist())
    assert shared  # precondition: they do share a band

    idx = StreamingNearDupIndex(n_shards=2)
    idx.filter_new(_ds([(0, BASE)]), "text")
    out = idx.filter_new(_ds([(1, NEAR)]), "text")
    idx.shutdown()
    assert out.count() == 0
