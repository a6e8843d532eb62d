"""Flagship web-page ER pipeline: extraction invariant, blocking recall,
end-to-end F1 gate (BASELINE.json north_star)."""

from __future__ import annotations

import pytest
import ray.data

from mismo_ray.cluster import pairwise_metrics_from_links, pairwise_precision_recall_f1
from mismo_ray.pipelines import (
    add_extracted_text,
    extract_text_bytes,
    featurize,
    load_pages,
    render_html,
    run_er_pipeline,
)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pages(ray_session):
    return featurize(add_extracted_text(load_pages(SF_DIR))).materialize()


def test_render_extract_roundtrip():
    text = 'hello <world> & "friends"\nsecond line'
    assert extract_text_bytes(render_html("t", text)) == text


def test_pages_schema_and_determinism(ray_session, pages):
    rows = pages.take(5)
    assert {"url", "warc_ts", "text", "lang", "label_true", "record_id",
            "extracted_text", "domain", "path_stem"} <= set(rows[0].keys())
    # regenerating yields identical pages (hash-derived randomness)
    again = featurize(add_extracted_text(load_pages(SF_DIR)))
    a = sorted(r["url"] for r in pages.take_all())
    b = sorted(r["url"] for r in again.take_all())
    assert a == b


def test_extraction_invariant_byte_identical(ray_session, pages):
    # per-row invariant: extracted text == ground-truth text for every url
    for r in pages.take_all():
        assert r["extracted_text"] == r["text"], r["url"]


def test_record_ids_unique(ray_session, pages):
    ids = [r["record_id"] for r in pages.take_all()]
    assert len(ids) == len(set(ids))


def test_blocking_recall(ray_session, pages):
    # KeyLinker on (domain, path_stem) must reach every true pair: cluster
    # members share domain+stem by construction
    from mismo_ray.linker import KeyLinker

    linkage = KeyLinker(["domain", "path_stem"])(pages, pages)
    m = pairwise_metrics_from_links(linkage.links_ds, pages)
    assert m["recall"] == 1.0


def test_end_to_end_f1(ray_session, pages):
    result = run_er_pipeline(pages, train="labels", threshold_odds=10.0)
    m = pairwise_metrics_from_links(result["links"], pages)
    assert m["f1"] >= 0.99, m
    # cluster membership: predicted components vs label_true
    rows = result["records"].select_columns(["label_true", "component"]).take_all()
    pm = pairwise_precision_recall_f1(
        [r["label_true"] for r in rows], [r["component"] for r in rows]
    )
    assert pm["f1"] >= 0.99, pm


def test_checkpoint_resume(ray_session, pages, tmp_path):
    result = run_er_pipeline(
        pages, train="labels", threshold_odds=10.0, checkpoint_dir=str(tmp_path)
    )
    n_links = result["links"].count()
    assert (tmp_path / "scored_linkage" / "manifest.json").exists()
    # resumable: the scored LINKS can be reloaded and clustered again.
    # The checkpoint is links-only by design — the resume path reuses the
    # in-memory pages, so writing the corpus twice (left/+right/) was pure
    # waste at scale.
    import ray.data as _rd

    links_back = _rd.read_parquet(str(tmp_path / "scored_linkage" / "links"))
    assert links_back.count() == n_links
    # a second run against the same checkpoint dir short-circuits blocking +
    # scoring and reproduces identical clusters
    result2 = run_er_pipeline(
        pages, train="labels", threshold_odds=10.0, checkpoint_dir=str(tmp_path)
    )
    assert result2["counters"].get("resumed_from_checkpoint") is True
    assert result2["links"].count() == n_links
    c1 = {
        (r["record_id"], r["component"])
        for r in result["records"].select_columns(["record_id", "component"]).take_all()
    }
    c2 = {
        (r["record_id"], r["component"])
        for r in result2["records"].select_columns(["record_id", "component"]).take_all()
    }
    assert c1 == c2


def test_end_to_end_f1_unsupervised_em(ray_session, pages):
    """The north_star's EM-fitted weights reach the same F1 gate with NO
    labels used for training."""
    result = run_er_pipeline(pages, train="em", threshold_odds=10.0)
    m = pairwise_metrics_from_links(result["links"], pages)
    assert m["f1"] >= 0.99, m


def test_partition_level_resume(ray_session, pages, tmp_path):
    """A run killed mid-scoring resumes recomputing ONLY the unfinished
    partitions (asserted via the partitions_computed/skipped counters), and
    produces the identical scored-link set."""
    import glob
    import shutil

    import pyarrow.parquet as pq

    ck = str(tmp_path / "ck")
    result = run_er_pipeline(
        pages, train="labels", threshold_odds=10.0, checkpoint_dir=ck,
        resume_partitions=8,
    )
    n_links = result["links"].count()
    assert result["counters"]["partitions_computed"] == 8
    assert result["counters"]["partitions_skipped"] == 0
    # the checkpointed run counts its candidate pairs: one per pairs/ row
    n_pairs = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(f"{ck}/pairs/**/*.parquet", recursive=True)
    )
    assert result["counters"]["pairs_generated"] == n_pairs > 0
    # consume the link set now — the deletions below would break the lazy read
    s1 = {
        (r["record_id_l"], r["record_id_r"])
        for r in result["links"].select_columns(
            ["record_id_l", "record_id_r"]
        ).take_all()
    }

    # simulate a kill after 5 completed partitions: 2 partitions fully lost,
    # 1 left as partial output without its _DONE marker
    shutil.rmtree(f"{ck}/scored_parts/part_0")
    shutil.rmtree(f"{ck}/scored_parts/part_1")
    (tmp_path / "ck" / "scored_parts" / "part_2" / "_DONE").unlink()
    # the stage-level scored_linkage checkpoint postdates the kill — drop it
    shutil.rmtree(f"{ck}/scored_linkage")

    result2 = run_er_pipeline(
        pages, train="labels", threshold_odds=10.0, checkpoint_dir=ck,
        resume_partitions=8,
    )
    assert result2["counters"].get("resumed_pairs_checkpoint") is True
    assert result2["counters"]["partitions_computed"] == 3
    assert result2["counters"]["partitions_skipped"] == 5
    assert result2["links"].count() == n_links
    s2 = {
        (r["record_id_l"], r["record_id_r"])
        for r in result2["links"].select_columns(
            ["record_id_l", "record_id_r"]
        ).take_all()
    }
    assert s1 == s2


def test_synth_pages_matches_loop_reference(ray_session):
    """The vectorized synth_pages must be BIT-identical to the original
    per-row loop (this reference) — the corpus hash anchors every
    F1/blocking/bench number across rounds."""
    import datetime

    import numpy as np
    import pyarrow as pa

    from mismo_ray._util import hash64, splitmix64
    from mismo_ray.pipelines import render_html
    from mismo_ray.pipelines._webpages import synth_pages

    def reference(batch, seed, multiplier):
        base_doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        base_texts = batch["text"].to_pylist()
        base_langs = batch["lang"].to_pylist()
        base_sources = batch["source"].to_pylist()
        n0 = len(base_doc_ids)
        doc_ids = np.repeat(base_doc_ids * multiplier, multiplier) + np.tile(
            np.arange(multiplier, dtype=np.int64), n0
        )
        texts = [t for t in base_texts for _ in range(multiplier)]
        langs = [x for x in base_langs for _ in range(multiplier)]
        sources = [x for x in base_sources for _ in range(multiplier)]
        with np.errstate(over="ignore"):
            h = splitmix64(doc_ids.astype(np.uint64) ^ np.uint64(seed))
        out = {k: [] for k in ("url", "warc_ts", "html", "text", "lang", "label_true")}
        base_ts = datetime.datetime(2024, 1, 1)
        for k in range(len(doc_ids)):
            hv = int(h[k])
            r = hv % 100
            size = 1 if r < 70 else 2 if r < 90 else 3 if r < 98 else 6
            domain = (
                "portal.example.com" if hv % 10 == 0 else f"site-{hv % 40}.example.org"
            )
            stem = f"d{hv % 1_000_000_000}"
            toks = texts[k].split()
            marked = []
            for i, t in enumerate(toks):
                if i % 6 == 0:
                    marked.append(stem)
                marked.append(t)
            toks = marked
            for v in range(size):
                vtoks = list(toks)
                if v > 0 and vtoks:
                    i = (hv + v * 7) % len(vtoks)
                    t = vtoks[i]
                    vtoks[i] = t[:-1] if len(t) > 2 and v % 2 else t + "x"
                vtext = " ".join(vtoks)
                out["url"].append(f"https://{domain}/{sources[k]}/{stem}/v{v}")
                out["warc_ts"].append(
                    base_ts + datetime.timedelta(seconds=(hv % 9_999_999) + v)
                )
                out["html"].append(render_html(f"{stem} {sources[k]}", vtext))
                out["text"].append(vtext)
                out["lang"].append(langs[k])
                out["label_true"].append(int(doc_ids[k]))
        tbl = pa.table(
            {
                "url": pa.array(out["url"], type=pa.string()),
                "warc_ts": pa.array(out["warc_ts"], type=pa.timestamp("us")),
                "html": pa.array(out["html"], type=pa.binary()),
                "text": pa.array(out["text"], type=pa.string()),
                "lang": pa.array(out["lang"], type=pa.string()),
                "label_true": pa.array(out["label_true"], type=pa.int64()),
            }
        )
        rid = hash64(tbl["url"]).astype(np.int64)
        return tbl.append_column("record_id", pa.array(rid))

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    batch = pa.concat_tables(
        docs.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    # add edge-case docs: empty text, 1 token, exactly 6, 7 tokens
    extra = pa.table(
        {
            "doc_id": pa.array([900001, 900002, 900003, 900004], type=pa.int64()),
            "text": ["", "xy", "a b c d e f", "a b c d e f g"],
            "lang": ["en"] * 4,
            "source": ["web"] * 4,
        }
    )
    batch = pa.concat_tables([batch.select(extra.column_names), extra])
    for mult in (1, 3):
        ref = reference(batch, 42, mult)
        got = pa.concat_tables(
            synth_pages(
                ray.data.from_arrow(batch), seed=42, multiplier=mult
            ).iter_batches(batch_format="pyarrow", batch_size=None)
        )
        got = got.select(ref.column_names)
        # order within one input batch is deterministic on both sides
        assert ref.num_rows == got.num_rows, mult
        for col in ref.column_names:
            assert ref[col].combine_chunks().equals(
                got[col].combine_chunks()
            ), (col, mult)


def test_skew_stress_salted_hot_domain(ray_session):
    """Skew-stress mode (north star: "explicit salting for hot blocking
    keys (e.g. high-frequency domains)"): reroute 1/3 of the corpus onto
    ONE mirror-domain key and verify the salted pair enumeration is EXACT —
    n_pairs_scored equals the per-group triangle sum computed brute-force
    in pandas — and that the hot key really went through the salt path."""
    import numpy as np

    from mismo_ray.pipelines._webpages import (
        add_extracted_text,
        reroute_hot_domain,
        scaling_pipeline,
        synth_pages,
    )

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    pages = reroute_hot_domain(
        featurize(add_extracted_text(synth_pages(docs, multiplier=4))), 3
    )
    pdf = pages.select_columns(["domain", "path_stem"]).to_pandas()
    sizes = pdf.groupby(["domain", "path_stem"]).size().to_numpy(np.int64)
    expected_pairs = int((sizes * (sizes - 1) // 2).sum())
    hot_rows = int(pdf["domain"].eq("mirror.example.net").sum())
    assert hot_rows > 64  # the hot key must overflow salt_rows below

    r = scaling_pipeline(SF_DIR, multiplier=4, hot_mod=3, salt_rows=64)
    assert r["n_pairs_scored"] == expected_pairs
    assert r["salted_keys"] == 1
    assert r["n_matches"] <= r["n_pairs_scored"]


def test_add_sketches_null_and_empty_text(ray_session):
    """``fp`` is null exactly for null or empty text; ``sig`` is null exactly
    where the text has no shingle; every other row carries the per-row
    fingerprint and signature."""
    import numpy as np
    import pyarrow as pa

    from mismo_ray._util import hash64
    from mismo_ray.dedupe import minhash_signatures_charhash_batch
    from mismo_ray.pipelines._webpages import add_sketches

    texts = [None, "", "short", "a much longer page body with enough text", None, ""]
    ds = ray.data.from_arrow(
        pa.table({"record_id": list(range(len(texts))), "extracted_text": texts})
    )
    got = pa.concat_tables(
        list(add_sketches(ds).iter_batches(batch_format="pyarrow", batch_size=None))
    ).sort_by("record_id")
    sig, valid = minhash_signatures_charhash_batch(texts, num_hashes=16, shingle_w=24)
    fp = hash64(texts).astype(np.int64)
    assert got["fp"].to_pylist() == [
        None if not t else int(f) for t, f in zip(texts, fp)
    ]
    assert got["sig"].to_pylist() == [
        s.astype(np.int64).tolist() if ok else None for s, ok in zip(sig, valid)
    ]
    assert got.schema.field("sig").type == pa.list_(pa.int64(), 16)
