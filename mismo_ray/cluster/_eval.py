"""Cluster evaluation metrics (reference: /root/reference/mismo/cluster/_eval.py
wraps sklearn; sklearn is not available here so the metrics are implemented
natively from the contingency table — same definitions, verified against the
sklearn formulas).

Two granularities:

- label-based metrics on aligned (record_id, label) collections (test scale);
- ``pairwise_metrics_from_links``: streaming precision/recall/F1 of predicted
  LINKS against planted ``label_true`` — the F1 >= 0.99 gate of BASELINE.json,
  computable at corpus scale without materializing true pairs.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _contingency(labels_true, labels_pred):
    t = np.asarray(labels_true)
    p = np.asarray(labels_pred)
    if t.shape != p.shape:
        raise ValueError("label arrays must align")
    cont: Counter = Counter(zip(t.tolist(), p.tolist()))
    a: Counter = Counter(t.tolist())
    b: Counter = Counter(p.tolist())
    return cont, a, b, len(t)


def _comb2(x) -> float:
    x = np.asarray(list(x), dtype=np.float64)
    return float((x * (x - 1) / 2).sum())


def pairwise_precision_recall_f1(labels_true, labels_pred) -> dict:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    tp = _comb2(cont.values())
    pred_pairs = _comb2(b.values())
    true_pairs = _comb2(a.values())
    precision = tp / pred_pairs if pred_pairs else 1.0
    recall = tp / true_pairs if true_pairs else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def rand_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    total = _comb2([n])
    tp = _comb2(cont.values())
    fp = _comb2(b.values()) - tp
    fn = _comb2(a.values()) - tp
    tn = total - tp - fp - fn
    return (tp + tn) / total if total else 1.0


def adjusted_rand_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    sum_comb = _comb2(cont.values())
    sum_a = _comb2(a.values())
    sum_b = _comb2(b.values())
    total = _comb2([n])
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


def mutual_info_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    mi = 0.0
    for (ti, pj), nij in cont.items():
        mi += (nij / n) * math.log(n * nij / (a[ti] * b[pj]))
    return mi


def _entropy(counts, n) -> float:
    return -sum((c / n) * math.log(c / n) for c in counts if c)


def normalized_mutual_info_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    mi = mutual_info_score(labels_true, labels_pred)
    ht = _entropy(a.values(), n)
    hp = _entropy(b.values(), n)
    denom = (ht + hp) / 2  # sklearn default: arithmetic mean
    return mi / denom if denom else 1.0


def homogeneity_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    ht = _entropy(a.values(), n)
    if ht == 0:
        return 1.0
    h_t_given_p = ht - mutual_info_score(labels_true, labels_pred)
    return 1.0 - h_t_given_p / ht


def completeness_score(labels_true, labels_pred) -> float:
    return homogeneity_score(labels_pred, labels_true)


def v_measure_score(labels_true, labels_pred) -> float:
    h = homogeneity_score(labels_true, labels_pred)
    c = completeness_score(labels_true, labels_pred)
    return 2 * h * c / (h + c) if h + c else 0.0


def fowlkes_mallows_score(labels_true, labels_pred) -> float:
    cont, a, b, n = _contingency(labels_true, labels_pred)
    tp = _comb2(cont.values())
    pred_pairs = _comb2(b.values())
    true_pairs = _comb2(a.values())
    if pred_pairs == 0 or true_pairs == 0:
        return 0.0
    return tp / math.sqrt(pred_pairs * true_pairs)


# ------------------------------------------------------------ streaming gate
def pairwise_metrics_from_links(
    links: ray.data.Dataset,
    records: ray.data.Dataset,
    *,
    label_column: str = "label_true",
) -> dict:
    """Precision/recall/F1 of predicted links vs planted entity labels.

    Streams: the (record_id, label) table is label-table-sized, collected
    and broadcast; both sides' labels are looked up per link batch with the
    lookup kernel and counted from Arrow masks; the true-pair denominator
    comes from the label sizes (``pc.value_counts``). Records with null
    labels are ignored on both sides (reference _train.py: null ground truth
    rows are skipped).
    """
    from mismo_ray._joins import lookup_positions, take_rows
    from mismo_ray._util import collect_table

    labels = collect_table(records.select_columns(["record_id", label_column]))
    tp = fp = 0
    sizes = []
    if labels.num_rows:
        labels = labels.filter(pc.is_valid(labels[label_column])).combine_chunks()
        sizes = pc.value_counts(labels[label_column]).field("counts").to_numpy()
        ref = ray.put(labels)

        def score(t: pa.Table) -> pa.Table:
            m = ray.get(ref)
            la, lc = (
                take_rows(m[label_column], lookup_positions(t[k], m["record_id"]))
                for k in ("record_id_l", "record_id_r")
            )
            # null when either side has no label: neither tp nor fp
            same = pc.equal(la, lc)
            n_tp = pc.sum(same).as_py() or 0
            return pa.table({"tp": [n_tp], "fp": [len(same) - same.null_count - n_tp]})

        agg = links.map_batches(score, batch_format="pyarrow")
        for b in agg.iter_batches(batch_format="pyarrow"):
            tp += sum(b["tp"].to_pylist())
            fp += sum(b["fp"].to_pylist())
    true_pairs = _comb2(sizes)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / true_pairs if true_pairs else 1.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "tp": tp,
        "fp": fp,
        "true_pairs": int(true_pairs),
    }


def pr_curve(
    links: ray.data.Dataset,
    *,
    score_column: str,
    truth_column: str,
    thresholds,
) -> "pa.Table":
    """Precision/recall/F1 at each score threshold, in ONE streaming pass.

    ``links`` carries a numeric score and a boolean truth flag per candidate
    pair (tag it upstream: carried-column compare or a join against true
    links). For each threshold t the predicted set is ``score >= t``; tp/fn
    are counted within the candidate set (standard post-blocking pairwise
    metrics — blocking misses are :func:`blocking_report`'s job).

    Distributed shape: each batch histograms its true/false scores over the
    threshold boundaries (searchsorted — no per-threshold rescan) and emits
    one tiny partial row; the driver sums partials and suffix-cumulates.
    Output: one row per threshold (threshold as float64, tp/fp/fn int64,
    precision/recall/f1 float64). The threshold sweep the reference leaves
    to notebook code, as a distributed one-pass op.
    """
    import numpy as np

    th = np.asarray(sorted(thresholds), dtype=np.float64)
    k = len(th)
    if k == 0:
        raise ValueError("thresholds must be non-empty")

    def partial(t: pa.Table) -> pa.Table:
        s = np.asarray(
            t[score_column].combine_chunks().cast(pa.float64()), dtype=np.float64
        )
        tru = np.asarray(t[truth_column].combine_chunks(), dtype=bool)
        # bin i = count of scores in [th[i], th[i+1]); suffix-sum later gives
        # count(score >= th[i])
        bins_t = np.bincount(
            np.searchsorted(th, s[tru], side="right"), minlength=k + 1
        )[1:]
        bins_f = np.bincount(
            np.searchsorted(th, s[~tru], side="right"), minlength=k + 1
        )[1:]
        n_true = int(tru.sum())
        return pa.table(
            {
                "i": pa.array(np.arange(k, dtype=np.int64)),
                "t": pa.array(bins_t.astype(np.int64)),
                "f": pa.array(bins_f.astype(np.int64)),
                "n_true": pa.array(
                    np.full(k, n_true, dtype=np.int64) * (np.arange(k) == 0)
                ),
            }
        )

    t_bins = np.zeros(k, dtype=np.int64)
    f_bins = np.zeros(k, dtype=np.int64)
    n_true_total = 0
    for b in links.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        idx = np.asarray(b["i"], dtype=np.int64)
        np.add.at(t_bins, idx, np.asarray(b["t"], dtype=np.int64))
        np.add.at(f_bins, idx, np.asarray(b["f"], dtype=np.int64))
        n_true_total += int(np.asarray(b["n_true"], dtype=np.int64).sum())
    tp = np.cumsum(t_bins[::-1])[::-1]
    fp = np.cumsum(f_bins[::-1])[::-1]
    fn = n_true_total - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 1.0)
        recall = np.where(n_true_total > 0, tp / max(n_true_total, 1), 1.0)
        f1 = np.where(
            precision + recall > 0,
            2 * precision * recall / np.maximum(precision + recall, 1e-300),
            0.0,
        )
    return pa.table(
        {
            "threshold": pa.array(th),
            "tp": pa.array(tp.astype(np.int64)),
            "fp": pa.array(fp.astype(np.int64)),
            "fn": pa.array(fn.astype(np.int64)),
            "precision": pa.array(precision),
            "recall": pa.array(recall),
            "f1": pa.array(f1),
        }
    )


def blocking_report(
    candidate_links: ray.data.Dataset,
    true_links: ray.data.Dataset,
    *,
    n_left: int,
    n_right: int | None = None,
) -> dict:
    """Blocking-quality metrics: pair-completeness (recall of true pairs
    into the candidate set) and reduction ratio vs the full cross product.

    ``n_right=None`` means dedupe (denominator n*(n-1)/2). One semi join
    (candidates ∩ truth) + three counts; nothing is collected but scalars.
    """
    from mismo_ray._joins import hash_join

    n_cand = candidate_links.count()
    n_true = true_links.count()
    found = hash_join(
        true_links,
        candidate_links,
        on=["record_id_l", "record_id_r"],
        how="left_semi",
        left_schema=pa.schema(
            [pa.field("record_id_l", pa.int64()), pa.field("record_id_r", pa.int64())]
        ),
        right_schema=pa.schema(
            [pa.field("record_id_l", pa.int64()), pa.field("record_id_r", pa.int64())]
        ),
    ).count()
    total = (
        n_left * (n_left - 1) // 2 if n_right is None else n_left * n_right
    )
    return {
        "n_candidates": int(n_cand),
        "n_true": int(n_true),
        "true_found": int(found),
        "pair_completeness": found / n_true if n_true else 1.0,
        "reduction_ratio": 1.0 - (n_cand / total) if total else 0.0,
        "total_pairs": int(total),
    }
