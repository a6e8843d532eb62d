"""Checks of a job's output, computed apart from the program.

The blocking-key pair count is recomputed by DuckDB straight from the
generated Parquet, the component partition by a union-find written here, and
the quality against the generator's truth file, which the program never sees.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# pairwise F1 floors (README.md: "Quality floors")
F1_FLOOR = {"flagship": 0.99, "sketch_scale": 0.99, "hot_key": 0.98}

_KEY_PAIRS_SQL = """
WITH p AS (
    SELECT regexp_extract(url, '^https?://([^/]+)', 1) AS domain,
           coalesce(regexp_extract(url, '^https?://[^/]+(/.*)$', 1), '') AS path
    FROM read_parquet('{glob}')
), s AS (
    SELECT domain, path, list_filter(string_split(path, '/'), x -> x <> '') AS parts
    FROM p
), k AS (
    SELECT domain,
           CASE WHEN len(parts) > 1
                THEN array_to_string(parts[1:len(parts) - 1], '/')
                ELSE path END AS stem
    FROM s
)
SELECT coalesce(sum(n * (n - 1) // 2), 0) FROM (
    SELECT count(*) AS n FROM k GROUP BY domain, stem
)
"""


def key_pairs(pages_dir: str) -> int:
    """Sum over (domain, path_stem) groups of n(n-1)/2, by DuckDB."""
    with duckdb.connect() as con:
        sql = _KEY_PAIRS_SQL.format(glob=f"{pages_dir}/*.parquet")
        return int(con.execute(sql).fetchone()[0])


def input_ids(pages_dir: str) -> np.ndarray:
    ids = pq.read_table(pages_dir, columns=["record_id"])["record_id"]
    return np.sort(ids.to_numpy())


def union_find(ids: np.ndarray, links: pa.Table) -> np.ndarray:
    """Min record id of each record's component, aligned with sorted ``ids``."""
    index = {int(r): i for i, r in enumerate(ids)}
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(
        links["record_id_l"].to_pylist(), links["record_id_r"].to_pylist()
    ):
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            # ids are sorted, so the smaller index is the smaller id
            parent[max(ra, rb)] = min(ra, rb)
    return ids[[find(i) for i in range(len(ids))]]


def canonical(labeled: pa.Table) -> np.ndarray:
    """The partition of ``labeled`` as min record id per component, aligned
    with its sorted record ids (so the label values themselves don't matter)."""
    rid = labeled["record_id"].to_numpy()
    comp = labeled["component"].to_numpy()
    order = np.argsort(rid)
    rid, comp = rid[order], comp[order]
    _, inv = np.unique(comp, return_inverse=True)
    mins = np.full(inv.max() + 1, np.iinfo(np.int64).max)
    np.minimum.at(mins, inv, rid)
    return mins[inv]


def link_set(links: pa.Table) -> np.ndarray:
    a = links["record_id_l"].to_numpy()
    b = links["record_id_r"].to_numpy()
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    return np.unique(pairs, axis=0)


def _pairs(groups: np.ndarray) -> int:
    _, n = np.unique(groups, return_counts=True)
    return int((n * (n - 1) // 2).sum())


def pairwise_f1(labeled: pa.Table, truth: pa.Table) -> float:
    rid = labeled["record_id"].to_numpy()
    comp = labeled["component"].to_numpy()
    order = np.argsort(rid)
    t_order = np.argsort(truth["record_id"].to_numpy())
    comp = comp[order]
    ent = truth["entity"].to_numpy()[t_order]
    _, comp_code = np.unique(comp, return_inverse=True)
    both = comp_code.astype(np.int64) * (int(ent.max()) + 1) + ent
    tp, pred, true = _pairs(both), _pairs(comp_code), _pairs(ent)
    if pred == 0 or true == 0:
        return 1.0 if pred == true else 0.0
    precision, recall = tp / pred, tp / true
    return 0.0 if tp == 0 else 2 * precision * recall / (precision + recall)


def same_output(result, other) -> list[str]:
    """A traced job must give the untraced job's link count and partition."""
    errors = []
    if len(result.links) != len(other.links):
        errors.append("trace: link count differs from the untraced job")
    if not np.array_equal(canonical(result.labeled), canonical(other.labeled)):
        errors.append("trace: partition differs from the untraced job")
    return errors


def check_job(result, ref: dict, workload: str) -> list[str]:
    """Checks (a)-(e) of one job; returns the failures, empty if it passed.

    ``ref`` holds what the input alone determines: ``ids`` (sorted input
    record ids), ``key_pairs``, ``truth``, ``sn_window`` and ``resume_parts``
    (partitions a resume must recompute and skip).
    """
    errors: list[str] = []
    ids = ref["ids"]
    lab_ids = np.sort(result.labeled["record_id"].to_numpy())
    if not np.array_equal(lab_ids, ids):  # (a)
        errors.append("a: output record ids differ from the input ids")
        return errors
    part = canonical(result.labeled)
    if not np.array_equal(union_find(ids, result.links), part):  # (b)
        errors.append("b: union-find over the links gives another partition")
    kp = ref["key_pairs"]  # (c)
    if workload == "flagship":
        # OR-blocking: every key pair plus at most window pairs per record
        hi = kp + ref["sn_window"] * len(ids)
        if not kp <= result.candidate_pairs <= hi:
            errors.append(
                f"c: {result.candidate_pairs} candidate pairs outside [{kp}, {hi}]"
            )
    elif result.candidate_pairs != kp:
        errors.append(f"c: {result.candidate_pairs} candidate pairs != {kp}")
    if workload == "hot_key" and result.salted_keys < 1:
        errors.append("c: no key was salted")
    f1 = pairwise_f1(result.labeled, ref["truth"])  # (d)
    if f1 < F1_FLOOR[workload]:
        errors.append(f"d: pairwise F1 {f1:.4f} < {F1_FLOOR[workload]}")
    if result.resume:  # (e)
        r = result.resume
        if not np.array_equal(link_set(r["links"]), link_set(result.links)):
            errors.append("e: resumed links differ")
        if not np.array_equal(canonical(r["labeled"]), part):
            errors.append("e: resumed partition differs")
        if (r["parts_computed"], r["parts_skipped"]) != ref["resume_parts"]:
            errors.append(
                f"e: resume computed {r['parts_computed']} and skipped "
                f"{r['parts_skipped']} partitions, not {ref['resume_parts']}"
            )
    return errors
