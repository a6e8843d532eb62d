"""KeyLinker vs the reference's test suite
(/root/reference/mismo/linker/tests/test_key_linker.py:29-136)."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from mismo_ray.keys import KeySpec
from mismo_ray.linker import KeyLinker
from tests.conftest import rows_set


def links_set(linkage):
    return rows_set(linkage.links.ds, ["record_id_l", "record_id_r"])


def test_dedupe_single_key(t1):
    # t1 letters a,b,c unique -> no pairs; ints unique -> no pairs
    assert links_set(KeyLinker("letter")(t1, t1)) == set()


def test_dedupe_shared_key(ray_session):
    tbl = pa.table(
        {
            "record_id": [0, 1, 2, 3, 4],
            "letter": ["a", "b", "a", "a", None],
        }
    )
    ds = ray.data.from_arrow(tbl)
    got = links_set(KeyLinker("letter")(ds, ds))
    assert got == {(0, 2), (0, 3), (2, 3)}


def test_link_two_tables(t1, t2):
    # t1.letter: a,b,c; t2.letter: b,c,d,None -> matches on b and c
    got = links_set(KeyLinker("letter")(t1, t2))
    assert got == {(1, 90), (2, 91)}


def test_link_int_key(t1, t2):
    # t1.int: 1,2,3 ; t2.int: 2,4,None,None -> (1, 90)
    got = links_set(KeyLinker("int")(t1, t2))
    assert got == {(1, 90)}


def test_multi_key(ray_session):
    tbl = pa.table(
        {
            "record_id": [0, 1, 2, 3],
            "a": ["x", "x", "x", "y"],
            "b": [1, 1, 2, 1],
        }
    )
    ds = ray.data.from_arrow(tbl)
    got = links_set(KeyLinker(["a", "b"])(ds, ds))
    assert got == {(0, 1)}


def test_null_keys_never_match(ray_session):
    tbl = pa.table({"record_id": [0, 1], "k": [None, None]})
    ds = ray.data.from_arrow(tbl)
    assert links_set(KeyLinker("k")(ds, ds)) == set()


def test_callable_key(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1, 2], "name": ["ABC corp", "abc CORP", "xyz"]}
    )
    ds = ray.data.from_arrow(tbl)

    def norm_name(batch: pa.Table) -> pa.Array:
        import pyarrow.compute as pc

        return pc.utf8_lower(batch["name"])

    got = links_set(KeyLinker(norm_name)(ds, ds))
    assert got == {(0, 1)}


def test_keyspec_left_right(ray_session):
    l = ray.data.from_arrow(pa.table({"record_id": [0, 1], "la": ["p", "q"]}))
    r = ray.data.from_arrow(pa.table({"record_id": [10, 11], "ra": ["q", "z"]}))
    got = links_set(KeyLinker([("la", "ra")])(l, r))
    assert got == {(1, 10)}


def test_max_pairs_drops_hot_key(ray_session):
    # key "a" appears 3x (npairs=9 > 4 with the reference's n*n rule), "b" 2x
    tbl = pa.table(
        {"record_id": [0, 1, 2, 3, 4], "k": ["a", "a", "a", "b", "b"]}
    )
    ds = ray.data.from_arrow(tbl)
    linker = KeyLinker("k", max_pairs=4)
    got = links_set(linker(ds, ds))
    assert got == {(3, 4)}
    assert linker.last_counters["hot_keys_dropped"] == 1


def test_salting_preserves_pairs(ray_session):
    # 40 records sharing one key; salt_rows=8 forces sub-blocking; the pair
    # set must be identical to the unsalted run.
    n = 40
    tbl = pa.table({"record_id": list(range(n)), "k": ["x"] * n})
    ds = ray.data.from_arrow(tbl)
    unsalted = links_set(KeyLinker("k", salt_rows=None)(ds, ds))
    linker = KeyLinker("k", salt_rows=8)
    salted = links_set(linker(ds, ds))
    assert len(unsalted) == n * (n - 1) // 2
    assert salted == unsalted
    assert linker.last_counters["salted_keys"] == 1


def test_salting_link_task(ray_session):
    nl, nr = 30, 20
    l = ray.data.from_arrow(
        pa.table({"record_id": list(range(nl)), "k": ["x"] * nl})
    )
    r = ray.data.from_arrow(
        pa.table({"record_id": list(range(100, 100 + nr)), "k": ["x"] * nr})
    )
    unsalted = links_set(KeyLinker("k", salt_rows=None)(l, r))
    salted = links_set(KeyLinker("k", salt_rows=8)(l, r))
    assert len(unsalted) == nl * nr
    assert salted == unsalted


def test_string_ids_schema(ray_session):
    # links.schema declares the record_id type of the input, for the fused
    # OR linker as for KeyLinker, on both tasks
    from mismo_ray.linker import FusedOrLinker

    def mk(ids, keys):
        return ray.data.from_arrow(
            pa.table({"record_id": pa.array(ids, pa.string()), "k": keys})
        )

    ds = mk(["a", "b", "c"], ["x", "x", "y"])
    other = mk(["p", "q"], ["x", "y"])
    for linker in (KeyLinker("k"), FusedOrLinker([["k"]])):
        for left, right, n in ((ds, ds, 1), (ds, other, 3)):
            linkage = linker(left, right)
            schema = linkage.links.schema
            assert schema.field("record_id_l").type == pa.string()
            assert schema.field("record_id_r").type == pa.string()
            rows = linkage.links_ds.take_all()
            assert len(rows) == n
            assert all(isinstance(r["record_id_l"], str) for r in rows)


def test_carry_columns(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1], "k": ["a", "a"], "val": [10, 20]}
    )
    ds = ray.data.from_arrow(tbl)
    links = KeyLinker("k", carry=["val"])(ds, ds).links.ds.take_all()
    assert len(links) == 1
    assert links[0]["val_l"] == 10
    assert links[0]["val_r"] == 20


def test_key_counts(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1, 2, 3, 4], "k": ["a", "a", "a", "b", None]}
    )
    ds = ray.data.from_arrow(tbl)
    got = rows_set(KeyLinker("k").key_counts_left(ds), ["k", "n"])
    assert got == {("a", 3), ("b", 1)}


def test_pair_counts_dedupe(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1, 2, 3, 4], "k": ["a", "a", "a", "b", "b"]}
    )
    ds = ray.data.from_arrow(tbl)
    got = rows_set(KeyLinker("k").pair_counts(ds, ds), ["k", "n_pairs"])
    assert got == {("a", 3), ("b", 1)}


def test_pair_counts_link(ray_session):
    l = ray.data.from_arrow(
        pa.table({"record_id": [0, 1, 2], "k": ["a", "a", "b"]})
    )
    r = ray.data.from_arrow(
        pa.table({"record_id": [5, 6, 7], "k": ["a", "b", "b"]})
    )
    got = rows_set(
        KeyLinker("k").pair_counts(l, r, task="link"), ["k", "n_pairs"]
    )
    assert got == {("a", 2), ("b", 2)}


def test_with_both(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1], "k": ["a", "a"], "val": [10, 20]}
    )
    ds = ray.data.from_arrow(tbl)
    linkage = KeyLinker("k")(ds, ds)
    rows = linkage.links.with_both(["val"], ["val"]).take_all()
    assert len(rows) == 1
    assert {rows[0]["val_l"], rows[0]["val_r"]} == {10, 20}


def test_linkage_n_links(ray_session):
    tbl = pa.table(
        {"record_id": [0, 1, 2, 3], "k": ["a", "a", "a", "b"]}
    )
    ds = ray.data.from_arrow(tbl)
    linkage = KeyLinker("k")(ds, ds)
    n_links = {
        r["record_id"]: r["n_links"]
        for r in linkage.with_n_links("left").take_all()
    }
    # pairs (0,1),(0,2),(1,2): left-side counts 0->2, 1->1, others 0
    assert n_links == {0: 2, 1: 1, 2: 0, 3: 0}
    hist = rows_set(linkage.link_counts("left"), ["n_links", "n_records"])
    assert hist == {(0, 2), (1, 1), (2, 1)}
