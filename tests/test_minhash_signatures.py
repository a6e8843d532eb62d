"""minhash_lsh_pairs signature_column path: precomputed list<int64>
signatures feed the band-explode / pair-gen / est-verify machinery directly
(the seam the engine-independent SQL oracle uses, and the 100 TB path for
re-using sketches persisted by an earlier pass)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def _mk(sigs):
    """sigs: list of (record_id, list-of-int | None)."""
    k = max(len(s) for _, s in sigs if s is not None)
    return ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(
                    [i for i, _ in sigs], type=pa.int64()
                ),
                "sig": pa.array(
                    [s for _, s in sigs], type=pa.list_(pa.int64(), k)
                ),
            }
        )
    )


def _pairs(ds, **kw):
    from mismo_ray.dedupe import minhash_lsh_pairs

    out = minhash_lsh_pairs(ds, None, signature_column="sig", **kw).links_ds
    return {(r["record_id_l"], r["record_id_r"]) for r in out.take_all()}


def test_banding_and_est_verify(ray_session):
    # 4 hashes, 2 bands of 2. docs 0/1 share band 1 (agree 2/4 = 0.5);
    # docs 0/2 share both bands (agree 4/4); doc 3 shares nothing.
    sigs = [
        (0, [11, 12, 21, 22]),
        (1, [99, 98, 21, 22]),
        (2, [11, 12, 21, 22]),
        (3, [51, 52, 61, 62]),
    ]
    ds = _mk(sigs)
    # candidates only (no verify): every band collision
    assert _pairs(ds, num_hashes=4, n_bands=2) == {(0, 1), (0, 2), (1, 2)}
    # est-verify at 0.75: only fully-agreeing pairs survive
    assert _pairs(
        ds, num_hashes=4, n_bands=2, verify_jaccard=0.75, verify_mode="est"
    ) == {(0, 2)}


def test_null_signature_rows_never_band(ray_session):
    sigs = [(0, [1, 2, 3, 4]), (1, None), (2, [1, 2, 3, 4]), (3, None)]
    ds = _mk(sigs)
    assert _pairs(ds, num_hashes=4, n_bands=2) == {(0, 2)}


def test_wrong_length_signature_raises(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([0, 1], type=pa.int64()),
                "sig": pa.array([[1, 2, 3], [1, 2]], type=pa.list_(pa.int64())),
            }
        )
    )
    from mismo_ray.dedupe import minhash_lsh_pairs

    with pytest.raises(Exception, match="FixedSizeList|expected size"):
        minhash_lsh_pairs(
            ds, None, signature_column="sig", num_hashes=3, n_bands=3
        ).links_ds.take_all()


def test_null_element_inside_signature_raises(ray_session):
    # a null SLOT would survive the fixed-size cast and turn into a garbage
    # band key (NaN -> INT64_MIN through the numpy reshape); invalid rows
    # must be expressed as a null LIST instead
    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array([0, 1], type=pa.int64()),
                "sig": pa.array(
                    [[1, None], [3, 4]], type=pa.list_(pa.int64(), 2)
                ),
            }
        )
    )
    from mismo_ray.dedupe import minhash_lsh_pairs

    with pytest.raises(Exception, match="null elements inside"):
        minhash_lsh_pairs(
            ds, None, signature_column="sig", num_hashes=2, n_bands=1
        ).links_ds.take_all()


def test_text_verify_without_text_column_raises(ray_session):
    ds = _mk([(0, [1, 2]), (1, [1, 2])])
    from mismo_ray.dedupe import minhash_lsh_pairs

    with pytest.raises(ValueError, match="est"):
        minhash_lsh_pairs(
            ds,
            None,
            signature_column="sig",
            num_hashes=2,
            n_bands=1,
            verify_jaccard=0.5,
            verify_mode="hybrid",
        )
    with pytest.raises(ValueError, match="text column or a signature"):
        minhash_lsh_pairs(ds, None)


def test_signature_column_matches_text_path(ray_session):
    """Precomputing the engine's own signatures and feeding them back via
    signature_column= reproduces the text path's candidate set exactly."""
    from mismo_ray.dedupe import (
        minhash_lsh_pairs,
        minhash_signatures_charhash_batch,
    )

    texts = []
    base = "the quick brown fox jumps over the lazy dog " * 4
    for i in range(40):
        # clusters of light edits -> real near-dup structure
        t = base[: 150 + (i % 5)] + f" tail{i % 7}"
        texts.append(t)
    tbl = pa.table(
        {
            "record_id": pa.array(np.arange(40, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    want = {
        (r["record_id_l"], r["record_id_r"])
        for r in minhash_lsh_pairs(
            ds, "text", num_hashes=16, n_bands=8
        ).links_ds.take_all()
    }
    sig, valid = minhash_signatures_charhash_batch(
        texts, num_hashes=16, shingle_w=24, seed=7
    )
    tbl2 = tbl.append_column(
        "sig",
        pa.array(
            [
                sig[i].astype(np.int64).tolist() if valid[i] else None
                for i in range(len(valid))
            ],
            type=pa.list_(pa.int64(), 16),
        ),
    )
    got = {
        (r["record_id_l"], r["record_id_r"])
        for r in minhash_lsh_pairs(
            ray.data.from_arrow(tbl2),
            None,
            signature_column="sig",
            num_hashes=16,
            n_bands=8,
        ).links_ds.take_all()
    }
    assert got == want


def test_sig_agreement_sliced_null_signatures():
    """Agreement of two signature columns, sliced (non-zero offset) and
    chunked, with null signatures built both ways (null slot over null child
    values from a pylist; masked slot over real values from ``from_arrays``):
    a null side agrees with nothing, every other row is the fraction of
    equal positions."""
    from mismo_ray.dedupe import sig_agreement, signature_array

    rng = np.random.default_rng(3)
    n, k = 40, 4
    left = rng.integers(0, 3, (n, k))
    right = np.where(rng.random((n, k)) < 0.5, left, rng.integers(0, 3, (n, k)))
    ok_l, ok_r = rng.random(n) < 0.8, rng.random(n) < 0.8
    expected = [
        float(np.mean(x == y)) if a and b else 0.0
        for x, y, a, b in zip(left, right, ok_l, ok_r)
    ]
    sl = pa.array(
        [x.tolist() if a else None for x, a in zip(left, ok_l)],
        type=pa.list_(pa.int64(), k),
    )
    sr = signature_array(right.astype(np.uint64), ok_r)
    assert sr.null_count == int((~ok_r).sum())
    for lo, hi in [(0, n), (7, 31), (n, n)]:
        got = sig_agreement(sl.slice(lo, hi - lo), sr.slice(lo, hi - lo))
        assert got.tolist() == expected[lo:hi]
    chunked = pa.chunked_array([sl.slice(0, 9), sl.slice(9)])
    assert sig_agreement(chunked, sr).tolist() == expected
