"""filter_links windows, TF module, with_linked_values, Diff, util ops,
MinhashLshLinker / JoinLinker / multimodal plumbing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from mismo_ray.linkage import (
    filter_links,
    keep_best_per,
    keep_min_agreement,
    keep_unambiguous,
)
from tests.conftest import rows_set


@pytest.fixture
def score_links(ray_session):
    # the reference filter_links doctest table (_linkage.py:206-301)
    return ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": [1, 1, 2, 2, 3, 4],
                "record_id_r": ["a", "b", "c", "c", "d", "d"],
                "score": [0.45, 0.67, 0.23, 0.87, 0.12, 0.97],
            }
        )
    )


def test_filter_links_predicate(score_links):
    import pyarrow.compute as pc

    got = rows_set(
        filter_links(score_links, lambda t: np.asarray(pc.greater(t["score"], 0.5))),
        ["record_id_l", "record_id_r", "score"],
    )
    assert got == {(1, "b", 0.67), (2, "c", 0.87), (4, "d", 0.97)}


def test_keep_unambiguous(score_links):
    got = rows_set(
        keep_unambiguous(score_links, group="record_id_r", distinct="record_id_l"),
        ["record_id_l", "record_id_r", "score"],
    )
    assert got == {(2, "c", 0.23), (1, "a", 0.45), (1, "b", 0.67), (2, "c", 0.87)}


def test_keep_best_per(score_links):
    got = rows_set(
        keep_best_per(score_links, group="record_id_r", score="score"),
        ["record_id_l", "record_id_r", "score"],
    )
    assert got == {(1, "a", 0.45), (1, "b", 0.67), (2, "c", 0.87), (4, "d", 0.97)}


def test_keep_min_agreement(score_links):
    got = rows_set(
        keep_min_agreement(score_links, n=2),
        ["record_id_l", "record_id_r", "score"],
    )
    assert got == {(2, "c", 0.23), (2, "c", 0.87)}


# ------------------------------------------------------------------------ tf
def test_term_frequency_model(ray_session):
    from mismo_ray.tf import TermFrequencyModel

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1, 2, 3],
                "given": ["ANNE", "ANNE", "BOB", "CARL"],
                "surname": ["SMITH", "JONES", "SMITH", "SMITH"],
            }
        )
    )
    model = TermFrequencyModel(["given", "surname"]).fit(ds)
    out = {
        r["record_id"]: r["frequency"]
        for r in model.add_term_frequencies(ds).take_all()
    }
    assert out[0] == pytest.approx((2 / 4) * (3 / 4))  # ANNE * SMITH
    assert out[3] == pytest.approx((1 / 4) * (3 / 4))
    # unseen values default to 1/N
    other = ray.data.from_arrow(
        pa.table({"record_id": [9], "given": ["ZED"], "surname": ["SMITH"]})
    )
    out2 = model.add_term_frequencies(other).take_all()[0]["frequency"]
    assert out2 == pytest.approx((1 / 4) * (3 / 4))


def test_rare_lookup_filterer(ray_session):
    from mismo_ray.tf import RareLookupFilterer

    haystack = ray.data.from_arrow(
        pa.table(
            {
                "record_id": list(range(10)),
                "name": ["JOHN"] * 8 + ["RARE", "OTHER"],
            }
        )
    )
    needle = ray.data.from_arrow(
        pa.table({"record_id": [100, 101], "name": ["JOHN", "RARE"]})
    )
    f = RareLookupFilterer(["name"], max_frequency=0.5)
    got = {r["record_id"] for r in f.rare_needle(haystack=haystack, needle=needle).take_all()}
    assert got == {101}  # JOHN has frequency 0.8 > 0.5


def test_ambiguous_haystack_filterer(ray_session):
    from mismo_ray.tf import AmbiguousHaystackFilterer

    haystack = ray.data.from_arrow(
        pa.table(
            {"record_id": [0, 1, 2], "name": ["JOHN", "JOHN", "UNIQUE"]}
        )
    )
    f = AmbiguousHaystackFilterer(["name"])
    got = {r["record_id"] for r in f.unambiguous_haystack(haystack).take_all()}
    assert got == {2}


# ------------------------------------------------------------ linked values
def test_with_linked_values(ray_session):
    from mismo_ray.linker import KeyLinker
    from mismo_ray.types import with_linked_values

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1, 2, 3],
                "k": ["a", "a", "a", "b"],
                "val": [10, 20, 30, 40],
            }
        )
    )
    linkage = KeyLinker("k")(ds, ds)
    out = {
        r["record_id"]: sorted(r["val_linked"])
        for r in with_linked_values(linkage, ["val"], side="left").take_all()
    }
    # pairs: (0,1),(0,2),(1,2); left-side links: 0->{20,30}, 1->{30}
    assert out[0] == [20, 30]
    assert out[1] == [30]
    assert out[2] == []
    assert out[3] == []


# -------------------------------------------------------------------- diff
def test_diff(ray_session):
    from mismo_ray.types import Diff

    before = ray.data.from_arrow(
        pa.table(
            {"record_id": [1, 2, 3], "x": ["a", "b", "c"], "y": [1, 2, 3]}
        )
    )
    after = ray.data.from_arrow(
        pa.table(
            {"record_id": [2, 3, 4], "x": ["b", "CHANGED", "d"], "y": [2, 3, 4]}
        )
    )
    d = Diff(before=before, after=after)
    assert {r["record_id"] for r in d.insertions().take_all()} == {4}
    assert {r["record_id"] for r in d.deletions().take_all()} == {1}
    ups = d.updates().take_all()
    assert {r["record_id"] for r in ups} == {3}
    assert ups[0]["x"] == {"before": "c", "after": "CHANGED"}


# ---------------------------------------------------------------- util ops
def test_cases():
    from mismo_ray.util_ops import cases

    out = cases(
        (np.array([True, False, False]), 1),
        (np.array([True, True, False]), 2),
        else_=9,
    )
    assert out.tolist() == [1, 2, 9]


def test_re_extract_struct():
    from mismo_ray.util_ops import re_extract_struct

    arr = pa.array(["John Smith", "Alice", None])
    out = re_extract_struct(arr, r"(?P<first>\w+)\s+(?P<last>\w+)")
    assert out.to_pylist() == [
        {"first": "John", "last": "Smith"},
        None,
        None,
    ]


def test_sample_table(ray_session):
    from mismo_ray.util_ops import sample_table

    ds = ray.data.from_arrow(pa.table({"record_id": list(range(1000))}))
    s1 = {r["record_id"] for r in sample_table(ds, 100, seed=1).take_all()}
    s2 = {r["record_id"] for r in sample_table(ds, 100, seed=1).take_all()}
    s3 = {r["record_id"] for r in sample_table(ds, 100, seed=2).take_all()}
    assert s1 == s2  # deterministic
    assert s1 != s3
    assert 50 <= len(s1) <= 200  # approximately n


def test_n_naive_comparisons(ray_session):
    from mismo_ray.util_ops import n_naive_comparisons

    assert n_naive_comparisons(10) == 45
    assert n_naive_comparisons(10, 20) == 200


# ----------------------------------------------------------------- linkers
def test_minhash_lsh_linker(ray_session):
    from mismo_ray.linker import MinhashLshLinker

    docs = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1, 2],
                "text": [
                    "the quick brown fox jumps over the lazy dog",
                    "the quick brown fox jumps over the lazy dogs",
                    "completely different content here entirely",
                ],
            }
        )
    )
    linker = MinhashLshLinker("text", verify_jaccard=0.5)
    got = rows_set(linker(docs, docs).links_ds, ["record_id_l", "record_id_r"])
    assert got == {(0, 1)}
    assert linker.blocking_probability(1.0) == 1.0
    assert linker.blocking_probability(0.0) == 0.0


def test_join_linker(t1, t2):
    from mismo_ray.linker import JoinLinker

    got = rows_set(
        JoinLinker("letter")(t1, t2).links_ds, ["record_id_l", "record_id_r"]
    )
    assert got == {(1, 90), (2, 91)}


# -------------------------------------------------------------- multimodal
def test_image_featurizer(ray_session):
    from mismo_ray.multimodal import fake_image_decoder, featurize_images

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1, 2],
                "payload": pa.array(
                    [b"img-a", b"img-b", None], type=pa.binary()
                ),
            }
        )
    )
    out = featurize_images(ds, decoder=fake_image_decoder).take_all()
    by_id = {r["record_id"]: r["image_features"] for r in out}
    assert len(by_id[0]) == 7
    assert by_id[2] is None
    # deterministic: same payload -> same features
    out2 = featurize_images(ds, decoder=fake_image_decoder).take_all()
    assert {r["record_id"]: r["image_features"] for r in out2} == by_id


def test_image_featurizer_stub_raises(ray_session):
    from mismo_ray.multimodal import featurize_images

    ds = ray.data.from_arrow(
        pa.table({"record_id": [0], "payload": pa.array([b"x"], type=pa.binary())})
    )
    with pytest.raises(Exception):  # NotImplementedError surfaces via Ray
        featurize_images(ds).take_all()


def test_sample_frames_plumbing(ray_session):
    from mismo_ray.multimodal import sample_frames

    def fake_frames(payload: bytes, i: int) -> bytes:
        return payload + bytes([i])

    ds = ray.data.from_arrow(
        pa.table(
            {"record_id": [7], "payload": pa.array([b"vid"], type=pa.binary())}
        )
    )
    rows = sample_frames(ds, n_frames=3, frame_decoder=fake_frames).take_all()
    assert len(rows) == 3
    assert rows[0]["frame_payload"] == b"vid\x00"


def test_datasets_unioned(ray_session):
    from mismo_ray.datasets import Datasets

    a = ray.data.from_arrow(
        pa.table({"record_id": [1, 2], "x": ["p", "q"], "only_a": [1, 2]})
    )
    b = ray.data.from_arrow(pa.table({"record_id": [3], "x": ["r"]}))
    ds = Datasets({"a": a, "b": b})
    assert list(ds) == ["a", "b"]
    rows = ds.unioned().take_all()
    assert {(r["record_id"], r["x"], r["dataset"]) for r in rows} == {
        (1, "p", "a"),
        (2, "q", "a"),
        (3, "r", "b"),
    }
    assert ds.all_record_ids().count() == 3


def test_image_resizer_and_audio_featurizer(ray_session):
    from mismo_ray.multimodal import (
        AudioFeaturizer,
        ImageResizer,
        fake_audio_decoder,
        fake_image_decoder,
        resize_nearest,
    )
    import numpy as np

    # the numpy kernel itself
    img = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    small = resize_nearest(img, 2, 3)
    assert small.shape == (2, 3, 3)
    assert (small[0, 0] == img[0, 0]).all()

    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1],
                "payload": pa.array([b"img-a", None], type=pa.binary()),
            }
        )
    )
    rows = ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs=dict(height=4, width=4, decoder=fake_image_decoder),
        batch_format="pyarrow",
        concurrency=1,
    ).take_all()
    by_id = {r["record_id"]: r for r in rows}
    assert len(by_id[0]["resized_payload"]) == 4 * 4 * 3  # uint8 bytes
    assert by_id[1]["resized_payload"] is None

    rows = ds.map_batches(
        AudioFeaturizer,
        fn_constructor_kwargs=dict(decoder=fake_audio_decoder),
        batch_format="pyarrow",
        concurrency=1,
    ).take_all()
    by_id = {r["record_id"]: r for r in rows}
    rms, zcr, peak, n = by_id[0]["audio_features"]
    assert 0 < rms < 1 and 0 < zcr < 1 and n == 1000.0
    assert by_id[1]["audio_features"] is None


def test_term_frequency_model_join_path(ray_session):
    """Force the corpus-sized-vocabulary path: frequencies applied via
    bucketed lookup joins (broadcast_threshold=0, no driver dict) must give
    the same numbers as the broadcast path."""
    from mismo_ray.tf import TermFrequencyModel

    tbl = pa.table(
        {
            "record_id": list(range(8)),
            "given": ["ANNE", "ANNE", "BOB", "CARL", "ANNE", "BOB", "DANA", "EMMA"],
            "surname": ["SMITH"] * 4 + ["JONES"] * 4,
        }
    )
    ds = ray.data.from_arrow(tbl)
    bcast = TermFrequencyModel(["given", "surname"]).fit(ds)
    joined = TermFrequencyModel(
        ["given", "surname"], broadcast_threshold=0
    ).fit(ds)
    fb = {r["record_id"]: r["frequency"] for r in bcast.add_term_frequencies(ds).take_all()}
    fj = {r["record_id"]: r["frequency"] for r in joined.add_term_frequencies(ds).take_all()}
    assert fb == fj
    assert fb[0] == pytest.approx((3 / 8) * (4 / 8))  # ANNE * SMITH


def test_term_frequencies_on_struct_column(ray_session):
    """Struct values count like any other (a sort-based groupby cannot
    order them): column_stats and both TermFrequencyModel routes."""
    from mismo_ray.tf import TermFrequencyModel, column_stats

    name = pa.struct([("first", pa.string()), ("last", pa.string())])
    anne = {"first": "ANNE", "last": "SMITH"}
    bob = {"first": "BOB", "last": "JONES"}
    tbl = pa.table(
        {
            "record_id": list(range(5)),
            "name": pa.array([anne, bob, anne, anne, bob], type=name),
        }
    )
    ds = ray.data.from_arrow([tbl.slice(0, 3), tbl.slice(3)])
    stats = {
        (r["name"]["first"], r["n"], r["frequency"])
        for r in column_stats(ds, "name").take_all()
    }
    assert stats == {("ANNE", 3, 3 / 5), ("BOB", 2, 2 / 5)}
    other = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1],
                "name": pa.array([bob, {"first": "ZED", "last": "SMITH"}], type=name),
            }
        )
    )
    for threshold in (2_000_000, 0):  # collected lookup, bucketed join
        model = TermFrequencyModel(["name"], broadcast_threshold=threshold).fit(ds)
        got = {r["record_id"]: r["frequency"] for r in model.add_term_frequencies(other).take_all()}
        assert got == {0: pytest.approx(2 / 5), 1: pytest.approx(1 / 5)}


def test_ambiguous_haystack_filterer_distributed(ray_session):
    from mismo_ray.tf import AmbiguousHaystackFilterer

    hay = ray.data.from_arrow(
        pa.table(
            {
                "record_id": [0, 1, 2, 3, 4],
                "k": ["a", "a", "b", "c", "c"],
            }
        )
    )
    out = AmbiguousHaystackFilterer(["k"]).unambiguous_haystack(hay)
    assert {r["record_id"] for r in out.take_all()} == {2}
