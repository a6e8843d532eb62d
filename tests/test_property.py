"""Property-based tests: distributed operators vs brute-force references on
random inputs (hypothesis). The reference has no property tests (SURVEY §5);
these guard the shuffle/salting/join machinery where hand-picked cases are
weakest."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mismo_ray._joins import hash_join
from mismo_ray.cluster import connected_components
from mismo_ray.linker import KeyLinker, SortedNeighborhoodLinker
from tests.conftest import rows_set

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

keys_strategy = st.lists(
    st.one_of(st.sampled_from(["a", "b", "c", "d"]), st.none()),
    min_size=0,
    max_size=40,
)


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(keys=keys_strategy, salt_rows=st.sampled_from([None, 2, 5]))
def test_key_linker_matches_bruteforce(keys, salt_rows):
    ids = list(range(len(keys)))
    expected = {
        (i, j)
        for i, j in combinations(ids, 2)
        if keys[i] is not None and keys[i] == keys[j]
    }
    ds = ray.data.from_arrow(
        pa.table({"record_id": ids, "k": pa.array(keys, type=pa.string())})
    )
    got = rows_set(
        KeyLinker("k", salt_rows=salt_rows)(ds, ds).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=0, max_size=30
    ),
    as_str=st.booleans(),
)
def test_cc_matches_unionfind(edges, as_str):
    """Both modes give the brute-force union-find's partition, and the same
    label values, for int and string ids."""
    # brute-force union-find
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    name = (lambda x: f"n{x}") if as_str else (lambda x: x)
    expected_clusters = {}
    for x in parent:
        expected_clusters.setdefault(find(x), set()).add(name(x))
    expected = {frozenset(v) for v in expected_clusters.values()}

    id_type = pa.string() if as_str else pa.int64()
    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id_l": pa.array([name(a) for a, _ in edges], type=id_type),
                "record_id_r": pa.array([name(b) for _, b in edges], type=id_type),
            }
        )
    )
    labels = {}
    for mode in ("driver", "distributed"):
        rows = connected_components(links=ds, mode=mode).take_all()
        labels[mode] = {r["record_id"]: r["component"] for r in rows}
        got_clusters = {}
        for rid, comp in labels[mode].items():
            got_clusters.setdefault(comp, set()).add(rid)
        assert {frozenset(v) for v in got_clusters.values()} == expected
    assert labels["driver"] == labels["distributed"]


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    left=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), max_size=20),
    right=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), max_size=20),
    how=st.sampled_from(["inner", "left_outer", "full_outer"]),
)
def test_hash_join_matches_pandas(left, right, how):
    ldf = pd.DataFrame(left, columns=["k", "x"])
    rdf = pd.DataFrame(right, columns=["k", "y"])
    expected = ldf.merge(
        rdf, on="k", how={"inner": "inner", "left_outer": "left", "full_outer": "outer"}[how]
    )
    exp_set = {
        (row.k, row.x if pd.notna(row.x) else None, row.y if pd.notna(row.y) else None)
        for row in expected.itertuples()
    }
    lds = ray.data.from_arrow(
        pa.table({"k": pa.array(ldf["k"], type=pa.int64()), "x": pa.array(ldf["x"], type=pa.int64())})
    )
    rds = ray.data.from_arrow(
        pa.table({"k": pa.array(rdf["k"], type=pa.int64()), "y": pa.array(rdf["y"], type=pa.int64())})
    )
    out = hash_join(lds, rds, on="k", how=how).to_pandas()
    got = {
        (row.k, row.x if pd.notna(row.x) else None, row.y if pd.notna(row.y) else None)
        for row in out.itertuples()
    }
    assert got == exp_set


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    vals=st.lists(
        st.one_of(st.integers(0, 10), st.none()), min_size=0, max_size=30
    ),
    window=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(["one", "row_per_block", "sixteen"]),
)
def test_sorted_neighborhood_matches_bruteforce(vals, window, layout):
    # tied keys break on record_id; null keys are never paired; one-row
    # input blocks make sorted blocks smaller than the window
    ids = list(range(len(vals)))
    keyed = [i for i in ids if vals[i] is not None]
    order = sorted(keyed, key=lambda i: (vals[i], i))
    expected = set()
    for pos in range(len(order)):
        for d in range(1, window + 1):
            if pos + d < len(order):
                a, b = order[pos], order[pos + d]
                expected.add((min(a, b), max(a, b)))
    ds = ray.data.from_arrow(
        pa.table({"record_id": ids, "v": pa.array(vals, type=pa.int64())})
    )
    if vals:
        n_blocks = {"one": 1, "row_per_block": len(vals), "sixteen": 16}[layout]
        ds = ds.repartition(n_blocks)
    links = SortedNeighborhoodLinker("v", window=window)(ds, ds).links_ds
    # nothing dedupes SN output: each pair must be emitted exactly once
    assert links.count() == len(expected)
    assert rows_set(links, ["record_id_l", "record_id_r"]) == expected


def test_sorted_neighborhood_many_blocks(ray_session):
    """SN across many sorted blocks: the cross-block pairs come from each
    block's task reading the heads of the blocks that follow it."""
    n, w = 2000, 3
    vals = [(i * 7919) % 10007 for i in range(n)]  # unique, scrambled
    ids = list(range(n))
    order = sorted(ids, key=lambda i: (vals[i], i))
    expected = set()
    for pos in range(len(order)):
        for d in range(1, w + 1):
            if pos + d < len(order):
                a, b = order[pos], order[pos + d]
                expected.add((min(a, b), max(a, b)))
    ds = (
        ray.data.from_arrow(
            pa.table({"record_id": ids, "v": pa.array(vals, type=pa.int64())})
        )
        .repartition(16)  # force many sorted blocks
    )
    got = rows_set(
        SortedNeighborhoodLinker("v", window=w)(ds, ds).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    lkeys=st.lists(st.one_of(st.sampled_from(["a", "b", "c"]), st.none()), max_size=25),
    rkeys=st.lists(st.one_of(st.sampled_from(["a", "b", "c"]), st.none()), max_size=25),
    salt_rows=st.sampled_from([None, 3]),
)
def test_key_linker_link_task_matches_bruteforce(lkeys, rkeys, salt_rows):
    lids = list(range(len(lkeys)))
    rids = [100 + i for i in range(len(rkeys))]
    expected = {
        (i, 100 + j)
        for i, ki in enumerate(lkeys)
        for j, kj in enumerate(rkeys)
        if ki is not None and ki == kj
    }
    lds = ray.data.from_arrow(
        pa.table({"record_id": lids, "k": pa.array(lkeys, type=pa.string())})
    )
    rds = ray.data.from_arrow(
        pa.table({"record_id": rids, "k": pa.array(rkeys, type=pa.string())})
    )
    got = rows_set(
        KeyLinker("k", salt_rows=salt_rows, task="link")(lds, rds).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    rows=st.lists(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(["x", "y", "z"]), max_size=3),
        ),
        max_size=20,
    ),
    max_pairs=st.sampled_from([None, 4]),
)
def test_unnest_linker_matches_bruteforce(rows, max_pairs):
    from collections import Counter

    from mismo_ray.linker import UnnestLinker

    ids = list(range(len(rows)))
    # brute force incl. the max_pairs token-drop rule (n*n > max_pairs)
    tok_counts = Counter()
    for r in rows:
        if r:
            for t in set(r):
                tok_counts[t] += 1
    dropped = {
        t
        for t, n in tok_counts.items()
        if max_pairs is not None and n * n > max_pairs
    }
    expected = set()
    for i, j in combinations(ids, 2):
        if rows[i] and rows[j]:
            shared = (set(rows[i]) & set(rows[j])) - dropped
            if shared:
                expected.add((i, j))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": ids,
                "toks": pa.array(rows, type=pa.list_(pa.string())),
            }
        )
    )
    got = rows_set(
        UnnestLinker("toks", max_pairs=max_pairs)(ds, ds).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
def test_key_linker_link_right_side_skew_salting():
    """A block heavy ONLY on the right side must still be salted (two-sided
    sub-blocking): correctness + the salt counter actually firing."""
    n_r = 500
    lds = ray.data.from_arrow(
        pa.table({"record_id": [0, 1, 2], "k": ["hot", "hot", "cold"]})
    )
    rds = ray.data.from_arrow(
        pa.table(
            {
                "record_id": list(range(100, 100 + n_r)),
                "k": ["hot"] * (n_r - 1) + ["cold"],
            }
        )
    )
    linker = KeyLinker("k", salt_rows=50, task="link")
    got = rows_set(linker(lds, rds).links_ds, ["record_id_l", "record_id_r"])
    expected = {(i, 100 + j) for i in (0, 1) for j in range(n_r - 1)} | {
        (2, 100 + n_r - 1)
    }
    assert got == expected
    assert linker.last_counters.get("salted_keys", 0) >= 1


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    lrows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=25
    ),
    rrows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=25
    ),
    direction=st.sampled_from(["backward", "forward"]),
)
def test_asof_join_matches_bruteforce(lrows, rrows, direction):
    """asof_join vs a per-row brute force (unique right (k, t) pairs)."""
    from mismo_ray.asof import asof_join

    rrows = list({(k, t) for k, t in rrows})  # unique right keys
    lds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([k for k, _ in lrows], type=pa.int64()),
                "t": pa.array([t for _, t in lrows], type=pa.int64()),
                "i": pa.array(list(range(len(lrows))), type=pa.int64()),
            }
        )
    )
    rds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([k for k, _ in rrows], type=pa.int64()),
                "t": pa.array([t for _, t in rrows], type=pa.int64()),
                "v": pa.array([k * 1000 + t for k, t in rrows], type=pa.int64()),
            }
        )
    )
    def brute(k, t):
        if direction == "backward":
            cand = [(rt, rv) for rk, rt in rrows if rk == k and rt <= t
                    for rv in [rk * 1000 + rt]]
            return max(cand)[1] if cand else None
        cand = [(rt, rv) for rk, rt in rrows if rk == k and rt >= t
                for rv in [rk * 1000 + rt]]
        return min(cand)[1] if cand else None

    out = asof_join(lds, rds, on="t", by="k", direction=direction).take_all()
    assert len(out) == len(lrows)
    for r in out:
        k, t = lrows[r["i"]]
        assert r["v_r"] == brute(k, t), (k, t, direction)


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    lvals=st.lists(st.integers(0, 100), max_size=30),
    intervals=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 60)), max_size=20
    ),
    width=st.sampled_from([7, 25, 200]),
)
def test_interval_join_property(lvals, intervals, width):
    """interval_join vs brute force across bucket widths (incl. a width
    larger than the whole domain)."""
    from mismo_ray.asof import interval_join

    lds = ray.data.from_arrow(
        pa.table(
            {
                "lid": pa.array(range(len(lvals)), type=pa.int64()),
                "v": pa.array([float(v) for v in lvals], type=pa.float64()),
            }
        )
    )
    rds = ray.data.from_arrow(
        pa.table(
            {
                "rid": pa.array(range(len(intervals)), type=pa.int64()),
                "lo": pa.array([float(a) for a, _ in intervals], type=pa.float64()),
                "hi": pa.array(
                    [float(a + w) for a, w in intervals], type=pa.float64()
                ),
            }
        )
    )
    expected = {
        (i, j)
        for i, v in enumerate(lvals)
        for j, (a, w) in enumerate(intervals)
        if a <= v <= a + w
    }
    got = rows_set(
        interval_join(
            lds, rds, left_value="v", right_lo="lo", right_hi="hi",
            bucket_width=float(width),
        ),
        ["lid", "rid_r"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    sets=st.lists(
        st.lists(st.tuples(st.integers(0, 6), st.integers(7, 13)), max_size=12),
        min_size=1,
        max_size=3,
    )
)
def test_upset_counts_property(sets):
    """upset_counts vs brute-force exact-subset attribution."""
    from collections import Counter

    from mismo_ray.viz import upset_counts

    names = [f"s{i}" for i in range(len(sets))]
    links = {}
    for name, pairs in zip(names, sets):
        pairs = list(set(pairs))
        links[name] = ray.data.from_arrow(
            pa.table(
                {
                    "record_id_l": pa.array([a for a, _ in pairs], type=pa.int64()),
                    "record_id_r": pa.array([b for _, b in pairs], type=pa.int64()),
                }
            )
        )
    counts = upset_counts(links)
    got = {
        tuple(i): n
        for i, n in zip(
            counts["intersection"].to_pylist(), counts["n_pairs"].to_pylist()
        )
    }
    brute = Counter()
    all_pairs = set().union(*(set(s) for s in sets)) if sets else set()
    for p in all_pairs:
        key = tuple(n for n, s in zip(names, sets) if p in set(s))
        brute[key] += 1
    assert got == dict(brute)


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    mapping=st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=3),
        st.integers(0, 1000),
        max_size=15,
    ),
    lookups=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=3), max_size=25
    ),
    as_struct=st.booleans(),
)
def test_bucketed_lookup_join_property(mapping, lookups, as_struct):
    """bucketed_lookup_join (the Factorizer/CC/TF core) vs a plain dict.

    The fill depends on the key, so a fill landing on the wrong row fails;
    the struct case is the value type ``_linked_table`` looks up."""
    from mismo_ray.cluster._connected_components import bucketed_lookup_join

    def fill_of(k):
        return -len(k)

    if as_struct:
        out_type = pa.struct([("n", pa.int64()), ("k", pa.string())])
        vals = pa.array(
            [{"n": v, "k": k} for k, v in mapping.items()], type=out_type
        )

        def expect(k):
            v = mapping.get(k)
            return {"n": fill_of(k), "k": None} if v is None else {"n": v, "k": k}

        def on_missing(missing):
            return pa.array(
                [{"n": fill_of(k), "k": None} for k in missing.to_pylist()],
                type=out_type,
            )

    else:
        out_type = pa.int64()
        vals = pa.array(list(mapping.values()), type=out_type)

        def expect(k):
            return mapping.get(k, fill_of(k))

        def on_missing(missing):
            return pa.array([fill_of(k) for k in missing.to_pylist()], pa.int64())

    mds = ray.data.from_arrow(
        pa.table({"k": pa.array(list(mapping.keys()), type=pa.string()), "v": vals})
    )
    dds = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array(lookups, type=pa.string()),
                "i": pa.array(range(len(lookups)), type=pa.int64()),
            }
        )
    )
    out = bucketed_lookup_join(
        dds,
        "key",
        mds,
        key_name="k",
        val_name="v",
        out_type=out_type,
        result_name="val",
        on_missing=on_missing,
    ).take_all()
    assert len(out) == len(lookups)
    for r in out:
        assert r["val"] == expect(lookups[r["i"]])


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 10_000)), max_size=40
    ),
    gap_s=st.sampled_from([1, 60, 3600]),
)
def test_sessionize_matches_bruteforce(events, gap_s):
    import pandas as pd

    from mismo_ray.streaming import sessionize

    ds = ray.data.from_arrow(
        pa.table(
            {
                "user_id": pa.array([u for u, _ in events], type=pa.int64()),
                "ts": pa.array(
                    [t * 1_000_000 for _, t in events], type=pa.timestamp("us")
                ),
            }
        )
    )
    # brute force per user
    expected = set()
    by_user: dict = {}
    for u, t in events:
        by_user.setdefault(u, []).append(t)
    for u, ts in by_user.items():
        ts = sorted(ts)
        sessions = [[ts[0]]]
        for a, b in zip(ts, ts[1:]):
            if b - a > gap_s:
                sessions.append([b])
            else:
                sessions[-1].append(b)
        for sid, sess in enumerate(sessions):
            expected.add((u, sid, sess[0], sess[-1], len(sess)))
    got = rows_set(
        sessionize(ds, gap_s=gap_s),
        ["user_id", "session_id", "session_start_s", "session_end_s", "n_events"],
    )
    assert got == expected


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    a=st.lists(st.one_of(st.integers(0, 4), st.none()), min_size=2, max_size=30),
    b=st.lists(st.one_of(st.integers(0, 3), st.none()), min_size=2, max_size=30),
    salt_rows=st.sampled_from([None, 3]),
)
def test_fused_or_linker_matches_or_linker(a, b, salt_rows):
    # FusedOrLinker (one pass + one shuffle) must produce exactly OrLinker's
    # pair set for the same rules, including null keys, salting and an
    # asymmetric rule (left a == right b)
    from mismo_ray.linker import FusedOrLinker, KeyLinker, OrLinker

    n = min(len(a), len(b))
    t = pa.table(
        {
            "record_id": pa.array(list(range(n)), type=pa.int64()),
            "a": pa.array(a[:n], type=pa.int64()),
            "b": pa.array(b[:n], type=pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2).materialize()
    rules = [["a"], ["b"], ["a", "b"], ("a", "b")]
    fused = rows_set(
        FusedOrLinker(rules, salt_rows=salt_rows)(ds, ds).links_ds,
        ["record_id_l", "record_id_r"],
    )
    plain = rows_set(
        OrLinker([KeyLinker(r, salt_rows=salt_rows) for r in rules])(
            ds, ds
        ).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert fused == plain


@pytest.mark.usefixtures("ray_session")
@settings(**SETTINGS)
@given(
    a=st.lists(st.one_of(st.integers(0, 4), st.none()), min_size=2, max_size=25),
    b=st.lists(st.one_of(st.integers(0, 3), st.none()), min_size=2, max_size=25),
    a2=st.lists(st.one_of(st.integers(0, 4), st.none()), min_size=2, max_size=25),
    b2=st.lists(st.one_of(st.integers(0, 3), st.none()), min_size=2, max_size=25),
    salt_rows=st.sampled_from([None, 3]),
    max_pairs=st.sampled_from([None, 6]),
)
def test_fused_or_linker_link_matches_or_linker(a, b, a2, b2, salt_rows, max_pairs):
    # link task (two distinct tables): fused OR of rules == OrLinker of
    # KeyLinkers, including two-sided salting and per-rule hot-key drop
    from mismo_ray.linker import FusedOrLinker, KeyLinker, OrLinker

    def mk(av, bv):
        n = min(len(av), len(bv))
        t = pa.table(
            {
                "record_id": pa.array(list(range(n)), type=pa.int64()),
                "a": pa.array(av[:n], type=pa.int64()),
                "b": pa.array(bv[:n], type=pa.int64()),
            }
        )
        return ray.data.from_arrow(t).repartition(2).materialize()

    dl, dr = mk(a, b), mk(a2, b2)
    rules = [["a"], ["b"], ["a", "b"]]
    fused = rows_set(
        FusedOrLinker(rules, salt_rows=salt_rows, max_pairs=max_pairs)(
            dl, dr
        ).links_ds,
        ["record_id_l", "record_id_r"],
    )
    plain = rows_set(
        OrLinker(
            [KeyLinker(r, salt_rows=salt_rows, max_pairs=max_pairs) for r in rules]
        )(dl, dr).links_ds,
        ["record_id_l", "record_id_r"],
    )
    assert fused == plain
