"""FEBRL person-record dedupe: golden-data end-to-end for the FS stack.

The FEBRL datasets (bundled via mismo_ray.playdata) are the reference's
canonical noisy-person-record benchmark: each duplicate carries generator
typos in names, addresses, dates and ids. This pipeline is the full
blocking -> compare -> Fellegi-Sunter (trained on label_true) -> threshold
chain over them, Ray-Data-first:

- blocking: four single-field rules (soc_sec_id, date_of_birth, postcode,
  surname) fused into ONE pass + ONE shuffle (FusedOrLinker) — a duplicate
  that mangles one field is still caught by the others.
- comparison: vectorized LevelComparers (exact / JW-close tiers for names,
  exact / 1-edit tiers for ids) over pair batches.
- scoring: FS log-odds with m/u trained from label_true pairs
  (fs.train_using_labels) — the same weights the patents anchor test pins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from mismo_ray.compare import LevelComparer
from mismo_ray.fs import Weights, train_using_labels
from mismo_ray.linker import FusedOrLinker
from mismo_ray.text import jaro_winkler_similarity_array, levenshtein_array
from mismo_ray.types import Linkage

PAIR_COLUMNS = [
    "given_name",
    "surname",
    "address_1",
    "suburb",
    "postcode",
    "date_of_birth",
    "soc_sec_id",
]

_BLOCK_KEYS = ("soc_sec_id", "date_of_birth", "postcode", "surname")


def _jw_level(col: str, bar: float):
    def fn(t: pa.Table) -> np.ndarray:
        jw = jaro_winkler_similarity_array(t[f"{col}_l"], t[f"{col}_r"])
        return np.nan_to_num(
            jw.to_numpy(zero_copy_only=False).astype(np.float64)
        ) >= bar

    return fn


def _eq_level(col: str):
    def fn(t: pa.Table) -> np.ndarray:
        eq = pc.equal(t[f"{col}_l"], t[f"{col}_r"])
        return (
            pc.fill_null(eq, False).to_numpy(zero_copy_only=False).astype(bool)
        )

    return fn


def _edit1_level(col: str):
    """Within one edit — catches single-digit typos in ids/dates."""

    def fn(t: pa.Table) -> np.ndarray:
        a = pc.cast(t[f"{col}_l"], pa.string())
        b = pc.cast(t[f"{col}_r"], pa.string())
        d = levenshtein_array(a, b).to_numpy(zero_copy_only=False)
        d = np.where(d == None, 99, d).astype(np.float64)  # noqa: E711
        return d <= 1

    return fn


def _always(t: pa.Table) -> np.ndarray:
    return np.ones(len(t), dtype=bool)


def febrl_comparers() -> list[LevelComparer]:
    return [
        LevelComparer(
            "given_name",
            ["exact", "close", "else"],
            [
                (_eq_level("given_name"), "exact"),
                (_jw_level("given_name", 0.85), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "surname",
            ["exact", "close", "else"],
            [
                (_eq_level("surname"), "exact"),
                (_jw_level("surname", 0.85), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "address",
            ["exact", "close", "else"],
            [
                (_eq_level("address_1"), "exact"),
                (_jw_level("address_1", 0.8), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "suburb",
            ["exact", "close", "else"],
            [
                (_eq_level("suburb"), "exact"),
                (_jw_level("suburb", 0.85), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "postcode",
            ["exact", "close", "else"],
            [
                (_eq_level("postcode"), "exact"),
                (_edit1_level("postcode"), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "dob",
            ["exact", "close", "else"],
            [
                (_eq_level("date_of_birth"), "exact"),
                (_edit1_level("date_of_birth"), "close"),
                (_always, "else"),
            ],
        ),
        LevelComparer(
            "ssn",
            ["exact", "close", "else"],
            [
                (_eq_level("soc_sec_id"), "exact"),
                (_edit1_level("soc_sec_id"), "close"),
                (_always, "else"),
            ],
        ),
    ]


def febrl_match_pairs(
    records: ray.data.Dataset,
    *,
    weights: Weights | None = None,
    threshold_odds: float = 1e7,
    max_train_pairs: int = 100_000,
    seed: int = 0,
) -> tuple[Linkage, Weights]:
    """Predicted duplicate pairs + the fitted weights for a FEBRL table."""
    from mismo_ray._joins import partition_hint

    # golden tables are small (1k-5k rows); per-key group sizes are bounded
    # by construction (ids/dates near-unique), so skip the count-prepass
    # barrier and salting, fuse the four blocking rules into ONE pass + ONE
    # shuffle (FusedOrLinker), and build every shuffle with few partitions —
    # coordination, not compute, is the cost at this size
    with partition_hint(8):
        blocker = FusedOrLinker([[k] for k in _BLOCK_KEYS], salt_rows=None)
        linkage = blocker(records, records)
        linkage = Linkage(
            left=records,
            right=records,
            links=linkage.links_ds.materialize(),
            links_schema=linkage.links.schema,
        )
        comparers = febrl_comparers()
        if weights is None:
            weights = train_using_labels(
                comparers,
                records,
                records,
                max_pairs=max_train_pairs,
                seed=seed,
                columns=PAIR_COLUMNS,
                true_linker_kwargs={
                    "count_prepass": False,
                    "salt_rows": None,
                    "max_pairs": None,
                },
            )
        pairs = linkage.links.with_both(PAIR_COLUMNS, PAIR_COLUMNS)
        scored = weights.compare_and_score(pairs, comparers)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["odds"], threshold_odds)).select(
            ["record_id_l", "record_id_r", "odds"]
        )

    links = scored.map_batches(keep, batch_format="pyarrow")
    return Linkage(left=records, right=records, links=links), weights


def febrl_split_link_task(
    records: ray.data.Dataset,
    *,
    max_broadcast_ids: int = 5_000_000,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Turn a FEBRL dedupe table into a two-table LINK task: left = one
    canonical record per entity (min record_id per label_true), right = the
    rest (the noisy duplicates). The clean-vs-dirty lookup shape of the
    reference's address_linkage example, on golden labeled data.

    The canonical-id set is broadcast (one ``ray.put`` array) only while it
    holds <= ``max_broadcast_ids`` ids — at web scale one id per ENTITY is
    corpus-sized, so past the gate the split flips to a ``keyed_filter``
    anti join (bucketed, nothing collected).  tests/test_playdata.py forces
    the join path and checks both splits are identical."""
    from mismo_ray._joins import keyed_filter
    from mismo_ray.util_ops import top_k_per_group

    canon = top_k_per_group(
        records, ["label_true"], [("record_id", "asc")], 1
    ).materialize()
    if canon.count() <= max_broadcast_ids:
        canon_ids = set(
            r["record_id"] for r in canon.select_columns(["record_id"]).take_all()
        )
        import ray as _ray

        ids_ref = _ray.put(pa.array(sorted(canon_ids)))

        def rest(t: pa.Table) -> pa.Table:
            mask = pc.is_in(
                t["record_id"].combine_chunks(), value_set=_ray.get(ids_ref)
            )
            return t.filter(pc.invert(mask))

        dirty = records.map_batches(rest, batch_format="pyarrow").materialize()
    else:
        dirty = keyed_filter(
            records,
            canon.select_columns(["record_id"]),
            on="record_id",
            invert=True,
        ).materialize()
    return canon, dirty


def febrl_link_pairs(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    weights: Weights | None = None,
    threshold_odds: float = 1e7,
    max_train_pairs: int = 100_000,
    seed: int = 0,
) -> tuple[Linkage, Weights]:
    """Two-table linkage (clean left vs dirty right) with the same fused
    OR-blocking + FS stack as :func:`febrl_match_pairs`, in LINK task mode
    (cross-table pairs only, no within-table pairs)."""
    from mismo_ray._joins import partition_hint

    with partition_hint(8):
        blocker = FusedOrLinker([[k] for k in _BLOCK_KEYS], salt_rows=None)
        linkage = blocker(left, right)
        linkage = Linkage(
            left=left,
            right=right,
            links=linkage.links_ds.materialize(),
            links_schema=linkage.links.schema,
        )
        comparers = febrl_comparers()
        if weights is None:
            weights = train_using_labels(
                comparers,
                left,
                right,
                max_pairs=max_train_pairs,
                seed=seed,
                columns=PAIR_COLUMNS,
                true_linker_kwargs={
                    "count_prepass": False,
                    "salt_rows": None,
                    "max_pairs": None,
                },
            )
        pairs = linkage.links.with_both(PAIR_COLUMNS, PAIR_COLUMNS)
        scored = weights.compare_and_score(pairs, comparers)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["odds"], threshold_odds)).select(
            ["record_id_l", "record_id_r", "odds"]
        )

    links = scored.map_batches(keep, batch_format="pyarrow")
    return Linkage(left=left, right=right, links=links), weights
