"""Flagship pipeline: Common-Crawl-style web-page entity resolution.

Implements the BASELINE.json north_star over the input_hint table
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``:

    read -> extract byte-identical text per url (zero-copy Arrow map_batches)
    -> blocking (KeyLinker on (domain, path stem) + sorted-neighborhood on a
    text prefix) -> LevelComparer tiers (exact / token-set jaccard /
    jaro-winkler on url path / length ratio) -> Fellegi-Sunter log-odds fitted
    with EM -> threshold -> distributed connected components -> entity labels.

The synthetic corpus is derived deterministically from the driver's
``documents`` table (TESTDATA.md): each document becomes a planted duplicate
cluster (skewed sizes, hot domains, typo-perturbed variants) with
``label_true`` = doc_id, so blocking recall, comparer levels and final
cluster membership are all checkable (FIXTURES.md §1).
All randomness is hash-derived from ids — identical output at any
parallelism (SURVEY §4 determinism).
"""

from __future__ import annotations

import html as html_mod
import math
import re
from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from mismo_ray._util import hash64, splitmix64
from mismo_ray.compare import LevelComparer
from mismo_ray.fs import Weights, train_using_em, train_using_labels
from mismo_ray.keys import KeySpec
from mismo_ray.linker import KeyLinker
from mismo_ray.text import jaro_winkler_similarity_array
from mismo_ray.types import Linkage

_HTML_TEMPLATE = (
    "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
    "<title>{title}</title></head><body>"
    "<nav>deterministic boilerplate nav</nav>"
    "<main id=\"content\">{body}</main>"
    "<footer>generated corpus</footer></body></html>"
)
_MAIN_RE = re.compile(rb'<main id="content">(.*?)</main>', re.DOTALL)


def render_html(title: str, body_text: str) -> bytes:
    return _HTML_TEMPLATE.format(
        title=html_mod.escape(title), body=html_mod.escape(body_text)
    ).encode("utf-8")


def extract_text_bytes(html: bytes | None) -> str:
    """Inverse of render_html: byte-identical text per url (the per-row
    invariant in BASELINE.json input_hint). Null html (a fetch that stored
    no body) extracts to the same empty text as a page with no main block."""
    if html is None:
        return ""
    m = _MAIN_RE.search(html)
    if m is None:
        return ""
    return html_mod.unescape(m.group(1).decode("utf-8"))


# --------------------------------------------------------------- synthesis
def _mix(x: np.ndarray, seed: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return splitmix64(x.astype(np.uint64) ^ np.uint64(seed))


def synth_pages(
    documents: ray.data.Dataset, *, seed: int = 42, multiplier: int = 1
) -> ray.data.Dataset:
    """documents (doc_id, text, lang, source) -> web-page corpus with planted
    duplicate clusters.

    - cluster sizes: 70% 1, 20% 2, 8% 3, 2% 6 (skewed, FIXTURES.md §1);
    - ~10% of clusters land on one hot domain (exercises hot-key handling);
    - variants v>0 get a deterministic one-character typo in one token;
    - record_id = hash64(url);
    - ``multiplier`` replicates every document into that many independent
      clusters (distinct label_true, distinct stems) — used to amplify the
      corpus for compute-bound scaling benchmarks.
    """

    def gen(batch: pa.Table) -> pa.Table:
        # fully vectorized (np.repeat / segment arithmetic / Arrow join +
        # replace kernels): this synthesis sits inside the TIMED scaling
        # pipeline, so a per-row python loop here would be measured as
        # engine time. Output is bit-identical to the loop reference kept
        # in tests/test_webpages_pipeline.py.
        import pandas as pd

        empty = pa.table(
            {
                "url": pa.array([], type=pa.string()),
                "warc_ts": pa.array([], type=pa.timestamp("us")),
                "html": pa.array([], type=pa.binary()),
                "text": pa.array([], type=pa.string()),
                "lang": pa.array([], type=pa.string()),
                "label_true": pa.array([], type=pa.int64()),
                "record_id": pa.array([], type=pa.int64()),
            }
        )
        base_doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        n0 = len(base_doc_ids)
        if n0 == 0 or multiplier == 0:
            return empty
        # ---- doc level (after multiplier expansion): n = n0 * multiplier
        doc_ids = np.repeat(base_doc_ids * multiplier, multiplier) + np.tile(
            np.arange(multiplier, dtype=np.int64), n0
        )
        n = len(doc_ids)
        base_idx = np.repeat(np.arange(n0, dtype=np.int64), multiplier)
        texts = pd.Series(
            np.repeat(np.asarray(batch["text"].to_pylist(), dtype=object), multiplier)
        ).fillna("")  # null source text synthesizes an empty (but valid) page
        h = _mix(doc_ids, seed)
        r = h % np.uint64(100)
        size = np.select(
            [r < 70, r < 90, r < 98], [1, 2, 3], default=6
        ).astype(np.int64)
        hot = (h % np.uint64(10)) == 0
        stem_num = (h % np.uint64(1_000_000_000)).astype(np.int64)

        # ---- marked token stream: a doc-unique marker token before every
        # 6th token, so texts of DIFFERENT documents are never
        # near-duplicates while typo'd variants of the SAME doc stay
        # shingle-similar. Each group of 6 tokens + its marker spans 7
        # marked slots: marker m at slot 7m, token j at 7*(j//6)+1+(j%6).
        toks = texts.str.split()
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        n_marks = -(-n_tok // 6)
        seg_len = n_tok + n_marks
        doc_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(seg_len, out=doc_off[1:])
        flat = np.empty(doc_off[-1], dtype=object)
        ex = toks.explode()
        ex = ex[ex.notna()]
        tok_doc = ex.index.to_numpy(dtype=np.int64)
        tok_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_tok, out=tok_starts[1:])
        j = np.arange(len(ex), dtype=np.int64) - np.repeat(tok_starts[:-1], n_tok)
        flat[doc_off[tok_doc] + 7 * (j // 6) + 1 + (j % 6)] = ex.to_numpy()
        stems = pc.binary_join_element_wise(
            "d", pc.cast(pa.array(stem_num), pa.string()), ""
        )
        stems_np = np.asarray(stems.to_pylist(), dtype=object)
        mark_doc = np.repeat(np.arange(n, dtype=np.int64), n_marks)
        mark_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_marks, out=mark_starts[1:])
        m = np.arange(len(mark_doc), dtype=np.int64) - np.repeat(
            mark_starts[:-1], n_marks
        )
        flat[doc_off[mark_doc] + 7 * m] = stems_np[mark_doc]

        # ---- variant expansion (one row per cluster member)
        var_doc = np.repeat(np.arange(n, dtype=np.int64), size)
        var_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(size, out=var_starts[1:])
        v = np.arange(len(var_doc), dtype=np.int64) - np.repeat(
            var_starts[:-1], size
        )
        var_len = seg_len[var_doc]
        var_off = np.zeros(len(var_doc) + 1, dtype=np.int64)
        np.cumsum(var_len, out=var_off[1:])
        idx_flat = (
            np.arange(var_off[-1], dtype=np.int64)
            - np.repeat(var_off[:-1], var_len)
            + np.repeat(doc_off[var_doc], var_len)
        )
        var_vals = flat[idx_flat]

        # ---- deterministic one-character typo for variants v > 0:
        # token at (hv + 7v) mod L' loses its last char (odd v, len > 2)
        # or gains an "x". (h mod L) + 7v never overflows, exactly
        # matching arbitrary-precision hv + 7v mod L.
        tmask = (v > 0) & (var_len > 0)
        if tmask.any():
            ln = var_len[tmask].astype(np.uint64)
            tpos = (
                (h[var_doc[tmask]] % ln + np.uint64(7) * v[tmask].astype(np.uint64))
                % ln
            ).astype(np.int64)
            at = var_off[:-1][tmask] + tpos
            tk = pd.Series(var_vals[at], dtype=object)
            trunc = tk.str[:-1]
            longer = (tk.str.len() > 2).to_numpy(dtype=bool)
            odd = (v[tmask] % 2) == 1
            var_vals[at] = np.where(
                longer & odd, trunc.to_numpy(), (tk + "x").to_numpy()
            )

        # ---- per-variant strings, all Arrow kernels from here
        vtext = pc.binary_join(
            pa.LargeListArray.from_arrays(
                pa.array(var_off, type=pa.int64()),
                pa.array(var_vals, type=pa.string()),
            ),
            " ",
        )
        join = pc.binary_join_element_wise
        hot_v = pa.array(hot[var_doc])
        domain = pc.if_else(
            hot_v,
            pa.scalar("portal.example.com", pa.string()),  # hot domain
            join(
                "site-",
                pc.cast(pa.array((h % np.uint64(40)).astype(np.int64)[var_doc]), pa.string()),
                ".example.org",
                "",
            ),
        )
        # null source would null-propagate through every binary_join into
        # url/html; url is the page key and must be non-null
        src_v = pc.fill_null(
            batch["source"].combine_chunks().take(
                pa.array(base_idx[var_doc], type=pa.int64())
            ),
            "",
        )
        lang_v = batch["lang"].combine_chunks().take(
            pa.array(base_idx[var_doc], type=pa.int64())
        )
        stems_v = stems.take(pa.array(var_doc, type=pa.int64()))
        v_str = pc.cast(pa.array(v), pa.string())
        url = join("https://", domain, "/", src_v, "/", stems_v, "/v", v_str, "")
        title = join(stems_v, " ", src_v, "")

        secs = (h % np.uint64(9_999_999)).astype(np.int64)[var_doc] + v
        ts = (
            np.datetime64("2024-01-01") + secs.astype("timedelta64[s]")
        ).astype("datetime64[us]")

        def esc(a):  # html.escape(quote=True), same replacement order
            for pat, rep in (
                ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                ('"', "&quot;"), ("'", "&#x27;"),
            ):
                a = pc.replace_substring(a, pattern=pat, replacement=rep)
            return a

        html_str = join(
            '<!DOCTYPE html><html><head><meta charset="utf-8"><title>',
            esc(title),
            "</title></head><body>",
            "<nav>deterministic boilerplate nav</nav>",
            '<main id="content">',
            esc(vtext),
            "</main><footer>generated corpus</footer></body></html>",
            "",
        )
        tbl = pa.table(
            {
                "url": url,
                "warc_ts": pa.array(ts, type=pa.timestamp("us")),
                "html": html_str.cast(pa.binary()),
                "text": vtext,
                "lang": lang_v,
                "label_true": pa.array(doc_ids[var_doc]),
            }
        )
        rid = hash64(tbl["url"]).astype(np.int64)
        return tbl.append_column("record_id", pa.array(rid))

    return documents.map_batches(gen, batch_format="pyarrow")


def load_pages(sf_dir: str, *, seed: int = 42) -> ray.data.Dataset:
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    return synth_pages(docs, seed=seed)


# ------------------------------------------------------------ featurization
def add_extracted_text(pages: ray.data.Dataset) -> ray.data.Dataset:
    """html -> extracted_text column; drops html immediately after (wide
    binary rows are the block-size hazard, SURVEY §7.5)."""

    def fn(t: pa.Table) -> pa.Table:
        extracted = [extract_text_bytes(h) for h in t["html"].to_pylist()]
        t = t.append_column("extracted_text", pa.array(extracted, type=pa.string()))
        return t.drop_columns(["html"])

    return pages.map_batches(fn, batch_format="pyarrow")


_URL_RE = re.compile(r"^https?://([^/]+)(/.*)?$")


def featurize(pages: ray.data.Dataset) -> ray.data.Dataset:
    """Add blocking/comparison features: domain, path_stem, text token count."""

    def fn(t: pa.Table) -> pa.Table:
        domains, stems, paths = [], [], []
        for u in t["url"].to_pylist():
            m = _URL_RE.match(u)
            host = m.group(1) if m else ""
            path = (m.group(2) or "") if m else ""
            parts = [p for p in path.split("/") if p]
            stem = "/".join(parts[:-1]) if len(parts) > 1 else path
            domains.append(host)
            stems.append(stem)
            paths.append(path)
        t = t.append_column("domain", pa.array(domains, type=pa.string()))
        t = t.append_column("path_stem", pa.array(stems, type=pa.string()))
        t = t.append_column("path", pa.array(paths, type=pa.string()))
        prefix = pc.utf8_slice_codeunits(t["extracted_text"], 0, 30)
        return t.append_column("text_prefix", prefix)

    return pages.map_batches(fn, batch_format="pyarrow")


# ------------------------------------------------------------- comparison
def _tokens(s: str | None) -> list[str] | None:
    return None if s is None else s.split()


def _shingles(s: str | None, w: int = 3) -> list[str] | None:
    """Word w-gram shingles: sequence-sensitive, so texts drawn from a small
    shared vocabulary still separate cleanly (token SETS would not)."""
    if s is None:
        return None
    toks = s.split()
    if len(toks) < w:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + w]) for i in range(len(toks) - w + 1)]


def _wordshingle_hashes(s: str, w: int = 3) -> np.ndarray:
    """uint64 hashes of the word w-gram shingles of ``s`` (same set-jaccard as
    the string shingles whp, no python string-window churn): hash the tokens
    once, then a splitmix chain over each w-token window."""
    toks = s.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = hash64(toks)
    if len(th) < w:
        w = len(th)
    acc = th[: len(th) - w + 1].copy()
    with np.errstate(over="ignore"):
        for k in range(1, w):
            acc = splitmix64(acc ^ th[k : len(th) - w + 1 + k])
    return acc


def _per_table(fn):
    """``fn`` memoized on the identity of the last table it saw: the levels
    of one LevelComparer see the SAME table object per batch, so a value two
    levels share is computed once per batch. Identity through a live weakref
    is sound — a freed table's ref resolves to None, never to a new table."""
    import weakref

    memo = {"ref": None, "val": None}

    def wrapped(t: pa.Table):
        r = memo["ref"]
        if r is not None and r() is t:
            return memo["val"]
        val = fn(t)
        memo["ref"], memo["val"] = weakref.ref(t), val
        return val

    return wrapped


def _same_page(t: pa.Table) -> np.ndarray:
    return pc.and_(
        pc.equal(t["domain_l"], t["domain_r"]),
        pc.equal(t["path_stem_l"], t["path_stem_r"]),
    ).to_numpy(zero_copy_only=False)


def _path_close(t: pa.Table) -> np.ndarray:
    # the level is (same_page & jw): gate the JW kernel on the cheap
    # equality mask so it only runs on same-page candidates
    same = _same_page(t)
    jw = jaro_winkler_similarity_array(t["path_l"], t["path_r"], mask=same)
    jw = jw.to_numpy(zero_copy_only=False)
    return same & (np.nan_to_num(jw.astype(np.float64)) >= 0.95)


def _same_lang(t: pa.Table) -> np.ndarray:
    return pc.equal(t["lang_l"], t["lang_r"]).to_numpy(zero_copy_only=False)


def webpage_comparers() -> list[LevelComparer]:
    from mismo_ray.dedupe import hash_set_jaccard_batch

    def text_exact(t: pa.Table) -> np.ndarray:
        # empty text is NO evidence: two contentless pages (null-source
        # docs synthesize '') must not count as exact text matches — they
        # would chain unrelated planted clusters through CC
        eq = pc.fill_null(
            pc.equal(t["extracted_text_l"], t["extracted_text_r"]), False
        )
        nonempty = pc.not_equal(
            pc.fill_null(t["extracted_text_l"], ""), ""
        )
        return pc.and_(eq, nonempty).to_numpy(zero_copy_only=False)

    # one hash-shingle set per unique text (EM's record sample repeats each
    # text in ~sqrt(max_pairs) pairs), overlaps from posting runs; both
    # jaccard levels share one computation per batch
    shingle_jacc = _per_table(
        lambda t: hash_set_jaccard_batch(
            t["extracted_text_l"], t["extracted_text_r"], _wordshingle_hashes
        )
    )

    def text_jaccard_high(t: pa.Table) -> np.ndarray:
        return shingle_jacc(t) >= 0.75

    def text_jaccard_med(t: pa.Table) -> np.ndarray:
        return shingle_jacc(t) >= 0.35

    return [
        LevelComparer(
            "text",
            ["exact", "near", "similar", "else"],
            [
                (text_exact, "exact"),
                (text_jaccard_high, "near"),
                (text_jaccard_med, "similar"),
            ],
        ),
        # NOTE: a bare "same_domain" level here sends unsupervised EM to a
        # degenerate optimum (domains correlate with clusters but also pair
        # unrelated co-hosted pages); same_page + jaro-winkler levels keep EM
        # and supervised training consistent (both reach pairwise F1 = 1.0).
        LevelComparer("url", ["close", "same_page", "else"],
                      [(_path_close, "close"), (_same_page, "same_page")]),
        LevelComparer("lang", ["same", "else"], [(_same_lang, "same")]),
    ]


PAIR_COLUMNS = ["extracted_text", "path", "path_stem", "domain", "lang"]


def sn_key() -> KeySpec:
    def fn(batch: pa.Table) -> pa.Array:
        return batch["text_prefix"]

    return KeySpec("text_prefix", fn, fn)


# --------------------------------------------------------------- pipeline
def run_er_pipeline(
    pages: ray.data.Dataset,
    *,
    weights: Weights | None = None,
    train: str = "em",
    threshold_odds: float = 50.0,
    max_train_pairs: int = 200_000,
    sn_window: int = 3,
    checkpoint_dir: str | None = None,
    resume_partitions: int = 16,
    seed: int = 42,
) -> dict:
    """Full blocking -> compare -> score -> threshold -> cluster run.

    Returns dict with the labeled records Dataset, scored links Dataset,
    fitted weights and counters. ``pages`` must already carry
    ``extracted_text`` + features (see add_extracted_text / featurize), and
    should be materialized: the job consumes it about a dozen times
    (blocking, pair features, training, label attach), and a lazy Dataset
    re-runs its whole read -> extract -> featurize lineage each time.
    """
    from mismo_ray.linker._or_linker import OrLinker
    from mismo_ray.linker._sorted_neighborhood import SortedNeighborhoodLinker

    import json
    import os

    counters: dict = {}
    # ---- resume: a completed scored-linkage checkpoint short-circuits the
    # blocking + comparison + scoring stages entirely (north_rule: resumable
    # mid-pipeline; the manifest marks stage completion)
    ckpt = (
        f"{checkpoint_dir}/scored_linkage" if checkpoint_dir is not None else None
    )
    if ckpt is not None and os.path.exists(f"{ckpt}/manifest.json"):
        with open(f"{ckpt}/manifest.json") as f:
            manifest = json.load(f)
        counters = dict(manifest.get("counters", {}))
        counters["resumed_from_checkpoint"] = True
        matches = ray.data.read_parquet(f"{ckpt}/links")
        from mismo_ray.cluster import connected_components

        labeled = connected_components(
            links=matches,
            records=pages,
            label_as="component",
            checkpoint_dir=f"{checkpoint_dir}/cc" if checkpoint_dir else None,
        )
        return {
            "records": labeled,
            "links": matches,
            "weights": weights,
            "counters": counters,
        }

    from mismo_ray.state.resume import (
        PART_COL,
        is_complete,
        resume_map_partitions,
        write_partitioned,
    )

    comparers = webpage_comparers()
    pairs_ckpt = (
        f"{checkpoint_dir}/pairs" if checkpoint_dir is not None else None
    )
    pairs = None
    if pairs_ckpt is not None and is_complete(pairs_ckpt):
        # partition-level resume: the feature-carrying candidate pairs and
        # the fitted weights are already on disk; blocking + training are
        # skipped entirely, and scoring below recomputes only partitions
        # without a _DONE marker
        counters["resumed_pairs_checkpoint"] = True
        if weights is None:
            weights = Weights.from_json(f"{checkpoint_dir}/weights.json")
    else:
        # (domain, path_stem) group sizes are bounded by cluster size (<= 6
        # by synthesis; stems draw from a 1e9 space, so cross-cluster stem
        # collisions are birthday-rare — ~(n_clusters^2 / 2e9) pairs, i.e.
        # a ~1e-5 relative contamination of candidate pairs even at the
        # 2M-cluster scaling runs, and deterministic at every parallelism);
        # the count pre-pass barrier is skipped and the max_pairs guard
        # runs in-task
        key_linker = KeyLinker(
            ["domain", "path_stem"], max_pairs=1_000_000,
            salt_rows=None, count_prepass=False,
        )
        sn_linker = SortedNeighborhoodLinker(sn_key(), window=sn_window)
        blocker = OrLinker([key_linker, sn_linker])
        linkage = blocker(pages, pages)
        counters["blocking"] = dict(blocker.last_counters)

        # pin the candidate pairs once: the following joins/score/cluster
        # stages would otherwise re-execute the whole blocking DAG per
        # consumption (object-store materialization; spills if the pair set
        # is huge — the checkpoint_dir path writes parquet instead)
        linkage = Linkage(
            left=pages,
            right=pages,
            links=linkage.links_ds.materialize(),
            links_schema=linkage.links.schema,
        )
        # pairs generated == comparisons scored: every candidate goes
        # through compare+score once (a materialized count runs nothing)
        counters["pairs_generated"] = linkage.links_ds.count()

        pairs = linkage.links.with_both(PAIR_COLUMNS, PAIR_COLUMNS)

        if weights is None:
            if train == "em":
                weights = train_using_em(
                    comparers, pages, pages, max_pairs=max_train_pairs,
                    seed=seed, columns=PAIR_COLUMNS,
                )
            else:
                weights = train_using_labels(
                    comparers, pages, pages, max_pairs=max_train_pairs,
                    seed=seed, columns=PAIR_COLUMNS,
                    # planted clusters are <= 6 records by synthesis, so the
                    # true-pair key groups are bounded: skip the count
                    # pre-pass
                    true_linker_kwargs={"count_prepass": False,
                                        "salt_rows": None, "max_pairs": None},
                )
        if pairs_ckpt is not None:
            # feature-carrying pairs to hash-partitioned parquet + weights to
            # json: everything scoring needs, resumable per partition.
            # Weights FIRST: write_partitioned ends with the _DONE marker,
            # and a crash between marker and weights would leave a
            # "complete" checkpoint whose resume path can never load its
            # weights.json
            os.makedirs(checkpoint_dir, exist_ok=True)
            weights.to_json(f"{checkpoint_dir}/weights.json")
            write_partitioned(
                pairs, pairs_ckpt,
                key_columns=["record_id_l", "record_id_r"],
                n_parts=resume_partitions,
            )

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["odds"], threshold_odds))

    if pairs_ckpt is not None:

        def score_partition(ds_p: ray.data.Dataset) -> ray.data.Dataset:
            def drop_part(t: pa.Table) -> pa.Table:
                return (
                    t.drop_columns([PART_COL])
                    if PART_COL in t.column_names
                    else t
                )

            scored_p = weights.compare_and_score(
                ds_p.map_batches(drop_part, batch_format="pyarrow"), comparers
            )
            return scored_p.map_batches(keep, batch_format="pyarrow")

        matches = resume_map_partitions(
            pairs_ckpt,
            f"{checkpoint_dir}/scored_parts",
            score_partition,
            counters=counters,
        ).materialize()
        counters["pairs_matched"] = matches.count()
    else:
        scored = weights.compare_and_score(pairs, comparers)
        matches = scored.map_batches(keep, batch_format="pyarrow").materialize()
        counters["pairs_matched"] = matches.count()
    if ckpt is not None:
        # links-only checkpoint: the resume branch above reads ONLY
        # {ckpt}/links and reuses the in-memory pages; a full
        # Linkage.to_parquets would re-execute and write the entire
        # featurized corpus TWICE (left/ + right/) for nothing
        os.makedirs(ckpt, exist_ok=True)
        matches.write_parquet(f"{ckpt}/links")
        with open(f"{ckpt}/manifest.json", "w") as f:
            json.dump(
                {
                    "format": "mismo_ray.Linkage.links_only",
                    "counters": counters,
                },
                f,
                indent=2,
            )
        matches = ray.data.read_parquet(f"{ckpt}/links")

    from mismo_ray.cluster import connected_components

    labeled = connected_components(
        links=matches,
        records=pages,
        label_as="component",
        checkpoint_dir=f"{checkpoint_dir}/cc" if checkpoint_dir else None,
    )
    return {
        "records": labeled,
        "links": matches,
        "weights": weights,
        "counters": counters,
    }


def flagship(sf_dir: str, **kwargs) -> dict:
    pages = featurize(add_extracted_text(load_pages(sf_dir))).materialize()
    return run_er_pipeline(pages, **kwargs)


def fixed_weights() -> Weights:
    """Deterministic FS weights (what EM converges to on this corpus,
    rounded) — lets benchmark runs skip the training phase.

    Level names match :func:`sketch_comparers` (url: close/same_domain) —
    its only caller, ``scaling_pipeline``.  Do NOT pair these with
    :func:`webpage_comparers` (url: close/same_page): integer labels bind
    by POSITION, so same_page would silently receive same_domain's m/u."""
    from mismo_ray.fs import ComparerWeights, LevelWeights

    return Weights(
        [
            ComparerWeights(
                "text",
                [
                    LevelWeights("exact", m=0.05, u=1e-6),
                    LevelWeights("near", m=0.85, u=1e-4),
                    LevelWeights("similar", m=0.08, u=1e-3),
                ],
            ),
            ComparerWeights(
                "url",
                [
                    LevelWeights("close", m=0.98, u=1e-4),
                    LevelWeights("same_domain", m=0.01, u=0.04),
                ],
            ),
            ComparerWeights("lang", [LevelWeights("same", m=0.99, u=0.25)]),
        ]
    )


def add_sketches(pages: ray.data.Dataset, *, num_hashes: int = 16) -> ray.data.Dataset:
    """Compact per-record sketches for shuffle-light pair comparison:
    ``fp`` (64-bit content hash) + ``sig`` (k-minhash over word shingles).
    ~150 bytes/row vs ~1 KB of raw text — the 100 TB discipline: never ship
    the document through the blocking shuffle when a sketch will do."""
    from mismo_ray.dedupe import minhash_signatures_charhash_batch, signature_array
    from mismo_ray._util import hash64

    def fn(t: pa.Table) -> pa.Table:
        text = t["extracted_text"]
        texts = text.to_pylist()
        sig, valid = minhash_signatures_charhash_batch(
            texts, num_hashes=num_hashes, shingle_w=24
        )
        fp = hash64(texts).astype(np.int64)
        # contentless pages carry a NULL fingerprint: a shared hash of ''
        # would make every empty page an "exact" text match of every other
        empty = pc.fill_null(pc.equal(text, ""), True).to_numpy(zero_copy_only=False)
        t = t.append_column("fp", pa.array(fp, mask=empty))
        return t.append_column("sig", signature_array(sig, valid))

    return pages.map_batches(fn, batch_format="pyarrow")


def sketch_comparers() -> list[LevelComparer]:
    """Comparers over the compact sketches (same tiers as webpage_comparers;
    jaccard estimated by minhash agreement instead of exact shingles)."""

    from mismo_ray.dedupe import sig_agreement

    # text_near and text_similar share one 16-wide signature compare per batch
    sig_agree = _per_table(lambda t: sig_agreement(t["sig_l"], t["sig_r"]))

    def text_exact(t: pa.Table) -> np.ndarray:
        # null fp (contentless page) matches nothing
        return pc.fill_null(
            pc.equal(t["fp_l"], t["fp_r"]), False
        ).to_numpy(zero_copy_only=False)

    def text_near(t: pa.Table) -> np.ndarray:
        return sig_agree(t) >= 0.5

    def text_similar(t: pa.Table) -> np.ndarray:
        return sig_agree(t) >= 0.25

    def same_domain(t: pa.Table) -> np.ndarray:
        return pc.equal(t["domain_l"], t["domain_r"]).to_numpy(zero_copy_only=False)

    return [
        LevelComparer(
            "text",
            ["exact", "near", "similar", "else"],
            [(text_exact, "exact"), (text_near, "near"), (text_similar, "similar")],
        ),
        LevelComparer(
            "url",
            ["close", "same_domain", "else"],
            [(_path_close, "close"), (same_domain, "same_domain")],
        ),
        LevelComparer("lang", ["same", "else"], [(_same_lang, "same")]),
    ]


SKETCH_PAIR_COLUMNS = ["fp", "sig", "path", "path_stem", "domain", "lang"]


def reroute_hot_domain(
    pages: ray.data.Dataset,
    hot_mod: int,
    *,
    domain: str = "mirror.example.net",
    path_stem: str = "m",
) -> ray.data.Dataset:
    """Reroute a deterministic 1/hot_mod of pages onto ONE (domain,
    path_stem) blocking key — a synthetic mirror host concentrating a
    quadratic share of candidate pairs on a single hot key, the skew the
    north star calls out ("high-frequency domains"). Selection hashes off
    record_id, so the hot set is identical at any parallelism level; paths
    stay per-page, so the scoring work over hot pairs is the real JW
    kernel, not a degenerate equal-string fast path."""

    def reroute(t: pa.Table) -> pa.Table:
        rid = np.asarray(t["record_id"], dtype=np.int64)
        hot = (rid & np.int64(0x7FFFFFFFFFFFFFFF)) % hot_mod == 0
        dom = np.asarray(t["domain"].to_pylist(), dtype=object)
        stem = np.asarray(t["path_stem"].to_pylist(), dtype=object)
        dom[hot] = domain
        stem[hot] = path_stem
        t = t.set_column(
            t.schema.get_field_index("domain"),
            "domain",
            pa.array(dom, type=pa.string()),
        )
        return t.set_column(
            t.schema.get_field_index("path_stem"),
            "path_stem",
            pa.array(stem, type=pa.string()),
        )

    return pages.map_batches(reroute, batch_format="pyarrow")


def scaling_pipeline(
    sf_dir: str,
    *,
    multiplier: int = 100,
    threshold_odds: float = 10.0,
    hot_mod: int = 0,
    salt_rows: int = 2048,
) -> dict:
    """Compute-bound end-to-end ER for the two-cluster-size scaling benchmark.

    One fused streaming execution: synth(multiplier-amplified corpus) ->
    extract -> featurize -> per-record sketches (minhash + fingerprint) ->
    keyed blocking shuffle carrying ONLY the compact sketch columns (no count
    pre-pass: group sizes are bounded <= 6 by construction, so no hot keys
    and no salting needed) -> bucketed pair enumeration -> LevelComparer +
    fixed-weight FS scoring -> threshold -> count. Training and driver-side
    clustering are excluded so the measured time is the distributed
    map + shuffle work that actually scales with cluster size.

    ``hot_mod`` > 0 switches on the SKEW-STRESS variant: 1/hot_mod of the
    corpus is rerouted onto one mirror-domain blocking key
    (``reroute_hot_domain``), and the linker runs with ``salt_rows`` so the
    hot key's quadratic pair load is salted into bounded sub-block tasks
    (~salt_rows^2/2 pairs each) instead of one monster task — the explicit
    skew handling the north star requires for high-frequency domains. The
    returned counters then include ``salted_keys`` / ``n_hot_rows``."""
    import os
    import time

    t0 = time.time()
    # FIXED data layout regardless of CPU count: the cluster-size scaling
    # criterion compares the SAME job at two parallelism levels, so block
    # count and shuffle partition count must not scale with num_cpus (a
    # CPU-derived layout hands the low-parallelism run bigger, more efficient
    # blocks and biases the efficiency ratio low). 96 blocks / 64 shuffle
    # partitions keep every wave busy at both 8 and 32 CPUs.
    n_blocks = int(os.environ.get("GRAFT_SCALE_BLOCKS", "96"))
    os.environ.setdefault("MISMO_RAY_NUM_PARTITIONS", "64")
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    # the test corpus is ONE small parquet file -> one read block; split it so
    # the heavy synth/extract/featurize maps parallelize (a real corpus has
    # thousands of files and never needs this)
    docs = docs.repartition(n_blocks)
    pages = add_sketches(
        featurize(add_extracted_text(synth_pages(docs, multiplier=multiplier)))
    )
    if hot_mod:
        pages = reroute_hot_domain(pages, hot_mod)
    linker = KeyLinker(
        ["domain", "path_stem"],
        # skew-stress mode pays the count pre-pass to salt the hot key;
        # the plain benchmark's group sizes are bounded <= 6 by
        # construction and skip both the pre-pass and salting
        salt_rows=salt_rows if hot_mod else None,
        carry=SKETCH_PAIR_COLUMNS,
    )
    linkage = linker(pages, pages)
    weights = fixed_weights()
    scored = weights.compare_and_score(linkage.links_ds, sketch_comparers())

    # ONE execution counts both candidates scored and threshold survivors
    # (per-batch partial counts + a tiny sum — no second pass)
    def tally(t: pa.Table) -> pa.Table:
        m = pc.sum(pc.greater_equal(t["odds"], threshold_odds)).as_py() or 0
        return pa.table(
            {"n": pa.array([len(t)], type=pa.int64()),
             "m": pa.array([int(m)], type=pa.int64())}
        )

    agg = scored.map_batches(tally, batch_format="pyarrow").sum(["n", "m"])
    # Dataset.sum() returns None on a zero-row dataset (no candidate pairs)
    n_pairs_scored = int(agg["sum(n)"]) if agg else 0
    n_matches = int(agg["sum(m)"]) if agg else 0
    elapsed = time.time() - t0
    n_docs = docs.count()
    out = {
        "seconds": round(elapsed, 3),
        "n_matches": n_matches,
        "n_pairs_scored": n_pairs_scored,
        "n_source_docs": n_docs,
        "multiplier": multiplier,
    }
    if hot_mod:
        out["hot_mod"] = hot_mod
        out["salt_rows"] = salt_rows
        out["salted_keys"] = int(linker.last_counters.get("salted_keys", 0))
    return out


def train_em_at_scale(
    sf_dir: str,
    *,
    multiplier: int = 100,
    max_pairs: int = 200_000,
    seeds: Sequence[int] = (0, 1),
    n_blocks: int = 96,
    hot_mod: int | None = None,
) -> dict:
    """Unsupervised-EM training anchor at amplified-corpus scale.

    The reference trains EM only on the ~2.4k-row patents sample
    (mismo/fs/tests/test_train.py:127-157, bounds-only assertions); this
    anchor fits the same 5-iteration EM (fs/_train_em.py) on the
    multiplier-amplified web-page corpus and reports, per seed, the wall
    time and the converged per-level odds, plus a cross-seed stability
    figure: the max |log(odds_a / odds_b)| spread across seeds over all
    finite-odds levels. EM's pair sample is (seed, record_id)-hash driven,
    so different seeds draw genuinely different ~sqrt(max_pairs) record
    samples — the spread measures estimator variance at this corpus scale,
    not RNG noise.

    ``hot_mod`` reroutes 1/hot_mod of the corpus onto ONE mirror domain
    (:func:`reroute_hot_domain`) BEFORE training — the EM-under-skew
    witness (VERDICT r4 #9): when one block dominates, the sampled-pair
    agreement distribution shifts, and the reported spreads show whether
    the estimator stays put.  Compare against a ``hot_mod=None`` run of
    the same corpus (bench leg ``train_em_skewed``).

    The featurized corpus is built ONCE and materialized: every seed's
    sample pass re-reads it (sampling is a cheap hash-filter map; the
    expensive synth/extract/featurize lineage must not re-run per seed).
    """
    import time

    t0 = time.time()
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    ).repartition(n_blocks)
    pages = featurize(add_extracted_text(synth_pages(docs, multiplier=multiplier)))
    if hot_mod:  # 0 means OFF (scaling_pipeline's sentinel); numpy's
        # rid % 0 == 0 would otherwise silently reroute EVERY page
        if hot_mod < 0:
            raise ValueError("hot_mod must be >= 1 (or 0/None for off)")
        pages = reroute_hot_domain(pages, hot_mod)
    pages = pages.materialize()
    n_pages = pages.count()
    t_corpus = time.time() - t0

    comparers = webpage_comparers()
    per_seed: list[dict] = []
    odds_by_level: dict[str, list[float]] = {}
    for seed in seeds:
        t1 = time.time()
        w = train_using_em(
            comparers, pages, pages, max_pairs=max_pairs, seed=seed,
            columns=PAIR_COLUMNS,
        )
        dt = time.time() - t1
        odds = {
            f"{cw.name}/{lw.name}": lw.odds for cw in w for lw in cw
        }
        for k, v in odds.items():
            odds_by_level.setdefault(k, []).append(v)
        per_seed.append({"seed": seed, "seconds": round(dt, 3), "odds": odds})

    spread = 0.0
    for vals in odds_by_level.values():
        finite = [v for v in vals if 0.0 < v < float("inf")]
        if len(finite) == len(vals) and len(finite) > 1:
            spread = max(
                spread, abs(math.log(max(finite)) - math.log(min(finite)))
            )
    return {
        "seconds": round(time.time() - t0, 3),
        "seconds_corpus": round(t_corpus, 3),
        "n_pages": n_pages,
        "max_pairs": max_pairs,
        "multiplier": multiplier,
        "hot_mod": hot_mod,
        "per_seed": per_seed,
        "max_log_odds_spread": round(spread, 4),
    }
