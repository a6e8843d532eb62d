"""Zero-row robustness: every operator family must handle an EMPTY input
table gracefully (empty output or a clear error — never a crash or a hang).

Why this matters at scale: a 100 TB run's sub-jobs routinely see empty
inputs — an incremental run with no new documents, a filter that drops
everything (decontamination, language gates), an empty key-range partition
of a resumable job. Two failure classes this guards against, both observed
before the fix:

- ``Dataset.schema()`` returns ``None`` for an empty dataset downstream of a
  map stage (zero blocks: the UDF never ran, so the output schema is
  unobservable) — naked ``.schema().base_schema`` then crashes. Central
  helper: ``mismo_ray._util.base_schema_or``.
- A FIXED actor pool sized >= all cluster CPUs deadlocks a small session:
  the actors reserve every CPU slot before the upstream read task can
  produce input (observed: ``concurrency=4`` at ``num_cpus=4`` hangs
  forever). Central helper: ``mismo_ray._pool.clamp_pool`` — this suite
  runs under the 4-CPU test session, so the lang-ID / perplexity queries
  here exercise the clamp directly.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

SF_SRC = "/root/testdata/sf0.001"

# one representative per operator family, plus every query that crashed or
# hung on empty input before the round-4 fixes
QUERIES = [
    "flagship_er",
    "key_linker_pairs",  # was: NoneType.base_schema (KeyLinker)
    "key_linker_link",  # two-sided count pre-pass over an empty union
    "key_counts",
    "pair_counts",
    "unnest_linker",
    "sorted_neighborhood",
    "fs_score",  # was: NoneType.base_schema (carry path)
    "filter_links_best",
    "with_n_links",  # was: KeyError record_id (empty counts df)
    "with_linked_values",  # was: NoneType.base_schema (records side)
    "connected_components",  # was: NoneType.base_schema (edges + attach)
    "connected_components_star",  # was: KeyError record_id (labels df)
    "degree",
    "diff_updates",  # was: NoneType.base_schema (Diff)
    "tf_lookup",  # was: KeyError n (empty counts df)
    "asof_join",  # was: NoneType.base_schema (asof)
    "events_tumbling",
    "exact_dedupe",
    "minhash_lsh_dedupe",
    "simhash_pairs",  # was: NoneType.base_schema (UnnestLinker)
    "simhash_text",  # text-kernel flavor (empty corpus -> no signatures)
    "ngram_jaccard",  # was: NoneType.base_schema (with_both collect)
    "spelling_pairs",  # empty corpus -> no variants, no pairs
    "minhash_band_pairs",  # empty corpus -> no injected signatures, no bands
    "minhash_band_link",  # empty halves on both link sides
    "robots_filter",  # empty corpus -> no pages to gate
    "mmr_select",  # empty embeddings -> empty pool, empty selection
    "simhash_charhash",  # empty corpus -> no signatures, no pairs
    "kcenter_select",  # empty embeddings -> empty pool, empty selection
    "chunk_documents",  # empty corpus -> no chunks
    "chunk_sentences",  # empty corpus -> no sentence windows
    "fuzzy_dedupe",  # was: NoneType.names (schema probe)
    "semdedup",
    "drop_dup_lines",  # was: NoneType.base_schema (rewrite join)
    "substring_dedupe",
    "decontaminate",  # was: KeyError __h1__ (empty benchmark grams)
    "lang_id",  # was: DEADLOCK (fixed pool = all CPUs)
    "lm_perplexity",  # was: DEADLOCK (fixed pool = all CPUs)
    "ccnet_buckets",  # was: DEADLOCK (fixed pool = all CPUs)
    "gopher_quality",
    "c4_clean",
    "canonical_url",
    "host_pagerank",
    "anchor_stats",  # was: NoneType.base_schema (hash_join)
    "ann_topk",  # was: KeyError embedding (empty query head)
    "ivf_topk",  # was: KeyError embedding (empty query head)
    "ivfpq_topk",  # empty query head -> empty result, no codebook fit
    "dsir_sample",  # empty corpus: fit_dsir refuses, query returns empty
    "embedding_linker_link",  # both sides empty -> empty linkage
    "pack_sequences",
    "mixture_sample",
    "hash_split",
    "media_features",
    "read_warc",  # was: KeyError doc_id (empty shard frame)
    "compression_stats",  # zero docs -> zero stat rows
    "quality_classifier",  # empty corpus: zero-weight model, empty scores
    "token_budget",  # empty groups -> empty prefix
    "bpe_tokens",  # empty vocab -> empty merge table, empty encode
    "heavy_hitters",  # empty corpus -> empty sketch, guarantee trivially True
    "lang_distinct_approx",  # no groups -> empty register table
    "describe",  # zero-row profile: n=0 rows per column, null min/max/mean
    "window_fns",  # zero events -> zero window rows
    "quantiles_by",  # zero groups -> zero quantile rows
    "semantic_decontaminate",  # empty corpus -> empty survivors
    "subtract_exact",  # empty corpus -> empty survivors
]


@pytest.fixture(scope="module")
def empty_sf_dir(tmp_path_factory):
    """Zero-row copies of every testdata table, schemas intact."""
    d = tmp_path_factory.mktemp("sf_empty")
    for f in glob.glob(f"{SF_SRC}/*.parquet"):
        schema = pq.read_schema(f)
        pq.write_table(schema.empty_table(), str(d / os.path.basename(f)))
    return str(d)


@pytest.fixture(scope="module")
def queries(ray_session):
    import __ray_entry__ as entry_mod

    return entry_mod.queries()


# profiling queries legitimately emit one summary row per PROFILED COLUMN
# even over zero data rows (their SQL oracles do the same); everything else
# must yield zero rows
_SUMMARY_ROWS = {"describe": 2}


@pytest.mark.parametrize("name", QUERIES)
def test_query_handles_empty_input(queries, empty_sf_dir, name):
    result = queries[name](empty_sf_dir)
    if isinstance(result, ray.data.Dataset):
        n = result.count()
    else:
        n = len(result)
    want = _SUMMARY_ROWS.get(name, 0)
    assert n == want, f"{name} produced {n} rows from an empty input"
    if name == "describe":
        rows = result.to_pylist() if hasattr(result, "to_pylist") else []
        assert all(r["n"] == 0 and r["n_null"] == 0 for r in rows)


def test_clamp_pool_caps_fixed_pools():
    from mismo_ray._pool import clamp_pool

    total = int(ray.cluster_resources().get("CPU"))
    # an explicit fixed pool can never reserve every CPU slot
    assert clamp_pool(total) <= total - 2 or total <= 3
    assert clamp_pool(total * 4) == clamp_pool(total)
    # small explicit pools pass through unchanged
    assert clamp_pool(1) == 1
    # autoscaling: min capped, max preserved (never below min)
    lo, hi = clamp_pool((total * 2, total * 8))
    assert lo <= max(1, total - 2) and hi >= lo
    # the library default leaves headroom for task operators
    assert clamp_pool(None) <= max(2, total - 2)


def test_base_schema_or_fallback_and_error(ray_session):
    from mismo_ray._util import base_schema_or

    empty_unknown = ray.data.from_arrow(
        pa.table({"x": pa.array([], pa.int64())})
    ).map_batches(lambda t: t, batch_format="pyarrow")
    fb = pa.schema([pa.field("x", pa.int64())])
    assert base_schema_or(empty_unknown, fb) is fb
    with pytest.raises(ValueError, match="empty"):
        base_schema_or(empty_unknown)
    known = ray.data.from_arrow(pa.table({"y": pa.array([1], pa.int64())}))
    assert base_schema_or(known).names == ["y"]
