"""Connected components vs the reference's parametrized structural suite
(/root/reference/mismo/cluster/test/test_connected_components.py:17-153) plus
eval metrics sanity."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from mismo_ray.cluster import (
    adjusted_rand_score,
    connected_components,
    degree,
    fowlkes_mallows_score,
    homogeneity_score,
    normalized_mutual_info_score,
    pairwise_metrics_from_links,
    pairwise_precision_recall_f1,
    rand_score,
    v_measure_score,
)
from tests.conftest import rows_set


def clusters_of(labels_ds) -> set[frozenset]:
    """set-of-frozensets cluster compare
    (reference mismo/tests/util.py:72-101)."""
    rows = labels_ds.take_all()
    by_comp: dict = {}
    for r in rows:
        by_comp.setdefault(r["component"], set()).add(r["record_id"])
    return {frozenset(v) for v in by_comp.values()}


def edges_ds(pairs, id_type=pa.int64()):
    l = [a for a, _ in pairs]
    r = [b for _, b in pairs]
    return ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array(l, type=id_type),
                "record_id_r": pa.array(r, type=id_type),
            }
        )
    )


CASES = [
    # (edges, expected clusters over linked nodes)
    ([(0, 1), (1, 2), (2, 3)], [{0, 1, 2, 3}]),  # linear chain
    ([(0, 1), (0, 2), (0, 3)], [{0, 1, 2, 3}]),  # hub
    ([(0, 0)], [{0}]),  # self loop
    ([(0, 1)], [{0, 1}]),  # single edge
    ([(0, 1), (2, 3)], [{0, 1}, {2, 3}]),  # two components
    ([], []),  # empty
    (
        [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
        [{0, 1, 2}, {3, 4, 5, 6, 7, 8}],
    ),  # long chain exercises multiple propagation rounds
]


@pytest.mark.parametrize("edges,expected", CASES)
def test_cc_structures_driver(ray_session, edges, expected):
    ds = edges_ds(edges)
    got = clusters_of(connected_components(links=ds, mode="driver"))
    assert got == {frozenset(e) for e in expected}


# the distributed path is expensive per round at toy scale; exercise it on
# the three structurally distinct cases (multi-round chain, two components,
# empty) — the property suite (test_property.py) additionally fuzzes it
@pytest.mark.parametrize(
    "edges,expected", [CASES[6], CASES[4], CASES[5]]
)
def test_cc_structures_distributed(ray_session, edges, expected):
    ds = edges_ds(edges)
    got = clusters_of(connected_components(links=ds, mode="distributed"))
    assert got == {frozenset(e) for e in expected}


@pytest.mark.parametrize("mode", ["driver", "distributed"])
def test_cc_string_ids(ray_session, mode):
    ds = edges_ds(
        [("a", "x"), ("b", "x"), ("b", "y"), ("c", "y"), ("g", "h")],
        id_type=pa.string(),
    )
    got = clusters_of(connected_components(links=ds, mode=mode))
    assert got == {frozenset({"a", "b", "c", "x", "y"}), frozenset({"g", "h"})}


def test_cc_string_ids_empty_distributed(ray_session):
    """An empty string-id vocabulary factorizes to an empty mapping (zero
    collected rows carry no columns)."""
    links = edges_ds([], id_type=pa.string())
    records = ray.data.from_arrow(
        pa.table({"record_id": pa.array([], type=pa.string())})
    )
    out = connected_components(links=links, records=records, mode="distributed")
    assert out.count() == 0


def test_cc_struct_ids(ray_session):
    id_type = pa.struct([("dataset", pa.string()), ("record_id", pa.int64())])
    mk = lambda d, i: {"dataset": d, "record_id": i}
    ds = edges_ds(
        [(mk("a", 1), mk("b", 1)), (mk("a", 2), mk("b", 2)), (mk("b", 2), mk("a", 3))],
        id_type=id_type,
    )
    rows = connected_components(links=ds, mode="driver").take_all()
    by_comp: dict = {}
    for r in rows:
        by_comp.setdefault(r["component"], set()).add(tuple(sorted(r["record_id"].items())))
    got = {frozenset(v) for v in by_comp.values()}
    a = lambda d, i: tuple(sorted({"dataset": d, "record_id": i}.items()))
    assert got == {
        frozenset({a("a", 1), a("b", 1)}),
        frozenset({a("a", 2), a("b", 2), a("a", 3)}),
    }


def test_cc_string_ids_join_path(ray_session):
    """The corpus-scale path end to end (mode="distributed"): Factorizer
    encode and singleton label attach all run as bucketed lookup joins."""
    links = edges_ds(
        [("a", "x"), ("b", "x"), ("b", "y"), ("c", "y"), ("g", "h")],
        id_type=pa.string(),
    )
    records = ray.data.from_arrow(
        pa.table(
            {
                "record_id": pa.array(
                    ["a", "b", "c", "x", "y", "g", "h", "solo1", "solo2"],
                    type=pa.string(),
                ),
                "v": list(range(9)),
            }
        )
    )
    labeled = connected_components(links=links, records=records, mode="distributed")
    rows = labeled.take_all()
    comp = {r["record_id"]: r["component"] for r in rows}
    assert comp["a"] == comp["b"] == comp["c"] == comp["x"] == comp["y"]
    assert comp["g"] == comp["h"] != comp["a"]
    # singletons: fresh unique labels disjoint from factorized codes
    assert comp["solo1"] != comp["solo2"]
    assert {comp["solo1"], comp["solo2"]}.isdisjoint({comp["a"], comp["g"]})
    assert {r["v"] for r in rows} == set(range(9))  # original columns survive


def test_cc_struct_ids_join_path(ray_session):
    """Nested (struct) record ids through the distributed path: Factorizer
    encode/decode run the python-dict fallback of the nested-key lookup."""
    id_type = pa.struct([("dataset", pa.string()), ("record_id", pa.int64())])
    mk = lambda d, i: {"dataset": d, "record_id": i}
    links = edges_ds(
        [(mk("a", 1), mk("b", 1)), (mk("a", 2), mk("b", 2)), (mk("b", 2), mk("a", 3))],
        id_type=id_type,
    )
    labels = connected_components(links=links, mode="distributed")
    rows = labels.take_all()
    by_comp: dict = {}
    for r in rows:
        by_comp.setdefault(r["component"], set()).add(
            tuple(sorted(r["record_id"].items()))
        )
    got = {frozenset(v) for v in by_comp.values()}
    a = lambda d, i: tuple(sorted({"dataset": d, "record_id": i}.items()))
    assert got == {
        frozenset({a("a", 1), a("b", 1)}),
        frozenset({a("a", 2), a("b", 2), a("a", 3)}),
    }


CROSS_MODE_IDS = ["b", "a", "d", "c", "x", "y", "s1", "s2"]


def _cross_mode_id(kind: str, i: int):
    if kind == "int":
        return i
    if kind == "string":
        return CROSS_MODE_IDS[i]
    return {"dataset": "ab"[i % 2], "record_id": 100 - i}


@pytest.mark.parametrize("with_records", [False, True])
@pytest.mark.parametrize("kind", ["int", "string", "struct"])
def test_cc_modes_give_equal_rows(ray_session, kind, with_records):
    """mode="driver" and mode="distributed" return the same
    (record_id, component) rows for every id type, singletons included:
    both label in one code space (graph b–a, d–c, x–y, s1 and s2 unlinked)."""
    id_type = {
        "int": pa.int64(),
        "string": pa.string(),
        "struct": pa.struct([("dataset", pa.string()), ("record_id", pa.int64())]),
    }[kind]
    ids = [_cross_mode_id(kind, i) for i in range(len(CROSS_MODE_IDS))]
    links = edges_ds([(ids[0], ids[1]), (ids[2], ids[3]), (ids[4], ids[5])], id_type)
    records = None
    if with_records:
        records = ray.data.from_arrow(
            pa.table({"record_id": pa.array(ids, type=id_type), "v": range(len(ids))})
        )

    def rows(mode):
        out = connected_components(links=links, records=records, mode=mode)
        key = lambda rid: tuple(sorted(rid.items())) if kind == "struct" else rid
        return {(key(r["record_id"]), r["component"], r.get("v")) for r in out.take_all()}

    driver, distributed = rows("driver"), rows("distributed")
    assert driver == distributed
    assert len({c for _, c, _ in driver}) == (5 if with_records else 3)


@pytest.mark.parametrize("mode", ["driver", "distributed"])
def test_cc_with_records_and_singletons(ray_session, mode):
    records = ray.data.from_arrow(
        pa.table({"record_id": [0, 1, 2, 3, 9], "x": list("abcde")})
    )
    links = edges_ds([(0, 1), (1, 2)])
    labeled = connected_components(links=links, records=records, mode=mode)
    rows = labeled.take_all()
    comp = {r["record_id"]: r["component"] for r in rows}
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] != comp[0]
    assert comp[9] != comp[0]
    assert comp[3] != comp[9]
    # original columns survive
    assert {r["x"] for r in rows} == set("abcde")


def test_cc_max_iter_non_convergence(ray_session):
    # long chain, max_iter=1 -> not yet fully merged (reference max_iter test)
    chain = [(i, i + 1) for i in range(8)]
    labels = connected_components(
        links=edges_ds(chain), mode="distributed", max_iter=1
    )
    n_components = len(clusters_of(labels))
    assert n_components > 1  # needs more rounds to converge


def test_cc_label_as(ray_session):
    labels = connected_components(links=edges_ds([(0, 1)]), label_as="cluster")
    assert set(labels.take_all()[0].keys()) == {"record_id", "cluster"}


def test_degree(ray_session):
    links = edges_ds([(0, 1), (0, 2), (1, 2), (0, 1)])
    got = rows_set(degree(links), ["record_id", "degree"])
    assert got == {(0, 2), (1, 2), (2, 2)}


def test_pairwise_metrics():
    t = [1, 1, 1, 2, 2, 3]
    p = [1, 1, 2, 2, 2, 3]
    m = pairwise_precision_recall_f1(t, p)
    # true pairs: C(3,2)+C(2,2)=4 ; pred pairs: 1+3=4 ; tp: C(2,2)+C(2,2)=2
    assert m["precision"] == pytest.approx(0.5)
    assert m["recall"] == pytest.approx(0.5)
    assert m["f1"] == pytest.approx(0.5)
    perfect = pairwise_precision_recall_f1(t, t)
    assert perfect["f1"] == 1.0


def test_sklearn_style_metrics_match_known_values():
    # values verified against sklearn formulas
    t = [0, 0, 1, 1]
    p = [0, 0, 1, 1]
    assert adjusted_rand_score(t, p) == 1.0
    assert rand_score(t, p) == 1.0
    assert v_measure_score(t, p) == 1.0
    assert normalized_mutual_info_score(t, p) == pytest.approx(1.0)
    assert fowlkes_mallows_score(t, p) == 1.0
    p2 = [0, 0, 1, 2]
    assert adjusted_rand_score(t, p2) == pytest.approx(0.5714285714285714)
    assert homogeneity_score(t, p2) == pytest.approx(1.0)


def test_pairwise_metrics_from_links(ray_session):
    records = ray.data.from_arrow(
        pa.table(
            {"record_id": [0, 1, 2, 3, 4], "label_true": [7, 7, 7, 8, 8]}
        )
    )
    # predicted links: (0,1),(1,2) correct; (3,0) wrong; missing (0,2),(3,4)
    links = edges_ds([(0, 1), (1, 2), (3, 0)])
    m = pairwise_metrics_from_links(links, records)
    assert m["tp"] == 2
    assert m["fp"] == 1
    assert m["true_pairs"] == 4
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(0.5)


def test_subgraph(ray_session):
    from mismo_ray.cluster import subgraph

    # two components: 0-1-2-3-4 chain and 10-11
    links = edges_ds([(0, 1), (1, 2), (2, 3), (3, 4), (10, 11)])
    out = subgraph(links, [0], hops=2)
    assert out["node_ids"] == {0, 1, 2}  # 2 hops from 0
    got = rows_set(out["links"], ["record_id_l", "record_id_r"])
    assert got == {(0, 1), (1, 2)}
    # enough hops reaches the whole component but never the other one
    out = subgraph(links, [0], hops=10)
    assert out["node_ids"] == {0, 1, 2, 3, 4}
    assert rows_set(out["links"], ["record_id_l", "record_id_r"]) == {
        (0, 1), (1, 2), (2, 3), (3, 4)
    }


def test_cc_star_chain_converges_in_log_rounds(ray_session):
    """Diameter-120 chain: the distributed (star contraction) path must
    finish within 12 rounds (O(log n)); min-propagation would need ~120.
    Labels = min member id, same as mode="driver"."""
    import pyarrow as pa

    from mismo_ray.cluster import connected_components

    edges = [(i, i + 1) for i in range(120)] + [(i, i + 1) for i in range(500, 560)]
    links = ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array([a for a, _ in edges], type=pa.int64()),
                "record_id_r": pa.array([b for _, b in edges], type=pa.int64()),
            }
        )
    ).repartition(4)
    out = connected_components(links=links, mode="distributed", max_iter=12).take_all()
    comp = {r["record_id"]: r["component"] for r in out}
    assert all(comp[i] == 0 for i in range(121))
    assert all(comp[i] == 500 for i in range(500, 561))


def test_cc_star_matches_driver_random_graph(ray_session):
    import numpy as np
    import pyarrow as pa

    from mismo_ray.cluster import connected_components

    rng = np.random.default_rng(7)
    a = rng.integers(0, 600, 1200)
    b = rng.integers(0, 600, 1200)
    # include self-loops and duplicate edges
    a = np.r_[a, [5, 5, 9]]
    b = np.r_[b, [5, 5, 9]]
    links = ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array(a, type=pa.int64()),
                "record_id_r": pa.array(b, type=pa.int64()),
            }
        )
    ).repartition(3)
    star = connected_components(links=links, mode="distributed").take_all()
    drv = connected_components(links=links, mode="driver").take_all()
    assert {r["record_id"]: r["component"] for r in star} == {
        r["record_id"]: r["component"] for r in drv
    }
