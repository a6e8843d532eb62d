"""The training pair sample labelled by index (``fs._train.sample_labels``)
and the posting-run set-jaccard kernel (``dedupe.hash_set_jaccard_batch``)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

import mismo_ray.dedupe as dedupe
import mismo_ray.fs._train as fs_train
from mismo_ray.compare import LevelComparer, compare
from mismo_ray.dedupe import hash_set_jaccard_batch
from mismo_ray.fs import train_using_em
from mismo_ray.fs._train import sample_labels
from mismo_ray.linker import sample_all_links
from mismo_ray.pipelines._webpages import _wordshingle_hashes

WORDS = [f"w{i}" for i in range(40)]


def _text(i: int, n_words: int = 12) -> str:
    # deterministic texts: records i and i + 7 share most of their words
    base = i % 7
    return " ".join(
        WORDS[(base * 5 + k * (1 + (i * k) % 3)) % 40] for k in range(n_words)
    )


def _set_jaccard(a, b) -> float:
    if a is None or b is None:
        return 0.0
    sa, sb = set(_wordshingle_hashes(a).tolist()), set(_wordshingle_hashes(b).tolist())
    inter = len(sa & sb)
    return inter / len(sa | sb) if inter else 0.0


def _check_jaccard(left: list, right: list) -> None:
    want = np.array([_set_jaccard(a, b) for a, b in zip(left, right)])
    for vals_l, vals_r in [
        (left, right),
        (pa.array(left, pa.string()), pa.array(right, pa.large_string())),
        (pa.chunked_array([pa.array(left, pa.string())]), right),
    ]:
        got = hash_set_jaccard_batch(vals_l, vals_r, _wordshingle_hashes)
        assert np.array_equal(got, want)


def _forbid(monkeypatch, name: str) -> None:
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} should not run on this batch")

    monkeypatch.setattr(dedupe, name, fail)


def test_hash_set_jaccard_dense_batch_uses_posting_runs(monkeypatch):
    texts = [_text(i) for i in range(30)]
    left = [texts[i] for i in range(30) for j in range(i + 1, 30)]
    right = [texts[j] for i in range(30) for j in range(i + 1, 30)]
    _forbid(monkeypatch, "_overlaps_per_pair")
    _check_jaccard(left, right)


def test_hash_set_jaccard_sparse_boilerplate_uses_per_pair(monkeypatch):
    # every value carries the same boilerplate shingle and each appears in
    # one pair only: the posting runs would enumerate ~n^2 owner pairs
    texts = [f"foo bar baz {_text(i, 4)} t{i}" for i in range(200)]
    _forbid(monkeypatch, "_overlaps_from_postings")
    _check_jaccard(texts[0::2], texts[1::2])


def test_hash_set_jaccard_nulls_empty_and_same_value():
    a, b = _text(1), _text(8)
    left = [None, "", "", a, a, "x y", None, "p q r s", b]
    right = [a, a, "", a, None, "x y", None, "p q r s", a]
    _check_jaccard(left, right)
    got = hash_set_jaccard_batch(left, right, _wordshingle_hashes)
    assert got[3] == 1.0 and got[5] == 1.0 and got[2] == 0.0
    assert hash_set_jaccard_batch([], [], _wordshingle_hashes).shape == (0,)
    assert np.array_equal(
        hash_set_jaccard_batch(pa.nulls(2), [None, "a"], _wordshingle_hashes),
        np.zeros(2),
    )


def _comparers() -> list[LevelComparer]:
    def text_jacc(t: pa.Table) -> np.ndarray:
        return hash_set_jaccard_batch(t["text_l"], t["text_r"], _wordshingle_hashes)

    def name_eq(t: pa.Table) -> np.ndarray:
        return pc.equal(t["name_l"], t["name_r"]).to_numpy(zero_copy_only=False)

    def ordered(t: pa.Table) -> np.ndarray:
        return pc.less(t["record_id_l"], t["record_id_r"]).to_numpy(
            zero_copy_only=False
        )

    return [
        LevelComparer(
            "text",
            ["near", "some", "else"],
            [
                (lambda t: text_jacc(t) >= 0.5, "near"),
                (lambda t: text_jacc(t) > 0.0, "some"),
            ],
        ),
        LevelComparer(
            "name",
            ["exact", "else"],
            [(name_eq, "exact")],
        ),
        # orientation: dedupe pairs must come as record_id_l < record_id_r
        LevelComparer(
            "order",
            ["lt", "else"],
            [(ordered, "lt")],
        ),
    ]


def _records(ids: range, n_blocks: int) -> ray.data.Dataset:
    ids = list(ids)
    t = pa.table(
        {
            "record_id": ids,
            "name": [f"n{i % 9}" for i in ids],
            "text": [_text(i) for i in ids],
            "other": [i * 3 for i in ids],
        }
    )
    step = max(1, -(-len(ids) // n_blocks))
    return ray.data.from_arrow(
        [t.slice(k, step) for k in range(0, max(len(ids), 1), step)][:n_blocks]
    )


@pytest.mark.parametrize("n_blocks", [1, 8])
@pytest.mark.parametrize(
    "shape, max_pairs",
    [("dedupe", 2_000), ("link", 2_000), ("dedupe", 100_000), ("link", 100_000),
     ("empty", 2_000)],
)
def test_sample_labels_match_sample_all_links(
    ray_session, monkeypatch, shape, max_pairs, n_blocks
):
    if n_blocks > 1:
        # task ranges that end mid-row of the pair enumeration
        monkeypatch.setattr(fs_train, "_LABEL_TASK_PAIRS", 997)
    left = _records(range(0 if shape == "empty" else 300), n_blocks)
    right = left if shape != "link" else _records(range(1000, 1250), n_blocks)
    comparers = _comparers()
    cols = ["name", "text"]
    got = sample_labels(
        comparers, left, right, max_pairs=max_pairs, seed=3, columns=cols
    )
    pairs = sample_all_links(left, right, max_pairs=max_pairs, seed=3)
    rows = compare(pairs.links.with_both(cols, cols), comparers).take_all()
    want = Counter(tuple(r[c.name] for c in comparers) for r in rows)
    assert got.shape == (len(rows), len(comparers))
    assert Counter(map(tuple, got.tolist())) == want
    if shape == "dedupe":
        assert (got[:, 2] == 0).all()
    if shape != "empty":
        assert len(rows) > 0


# ``train_using_em(...).to_json()`` on this corpus, as computed by the pair
# Dataset route (FullLinker sample + broadcast attach + compare) that
# ``sample_labels`` replaced
EM_DEDUPE = {
    "text": {
        "near": {"m": 0.26720647773279355, "u": 0.0003862495171881035},
        "some": {"m": 0.22874493927125505, "u": 0.0003862495171881035},
    },
    "name": {"exact": {"m": 0.6477732793522267, "u": 0.0003863987635239567}},
}
EM_LINK = {
    "text": {
        "near": {"m": 0.33217993079584773, "u": 0.035650940049663},
        "some": {"m": 0.6643598615916955, "u": 0.000177367860943597},
    },
    "name": {"exact": {"m": 0.53125, "u": 0.08869966294128083}},
}


@pytest.mark.parametrize("columns", [["name", "text"], None])
def test_train_using_em_weights_unchanged(ray_session, columns):
    comparers = _comparers()[:2]
    ds = _records(range(300), 4)
    w = train_using_em(comparers, ds, ds, max_pairs=5_000, seed=7, columns=columns)
    assert w.to_json() == EM_DEDUPE
    right = _records(range(100, 250), 1)
    w = train_using_em(
        comparers, ds, right, max_pairs=5_000, seed=7, columns=["name", "text"]
    )
    assert w.to_json() == EM_LINK
