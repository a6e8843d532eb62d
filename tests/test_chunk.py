from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from mismo_ray.textstats import chunk_documents


def _ref_chunks(docs, max_tokens, overlap):
    r"""Per-row python reference of the chunking contract. Tokens split on
    RE2's ``\s`` class ``[\t\n\f\r ]``, as the SQL oracle's
    ``string_split_regex(text, '\s+')`` does: VT and NBSP stay inside."""
    stride = max_tokens - overlap
    out = []
    for doc_id, text in docs:
        toks = [t for t in re.split(r"[\t\n\f\r ]+", text or "") if t]
        n = len(toks)
        if n == 0:
            continue
        if n <= max_tokens:
            nc = 1
        else:
            nc = -(-(n - max_tokens) // stride) + 1
        for j in range(nc):
            span = toks[j * stride : j * stride + max_tokens]
            out.append((doc_id, j, " ".join(span), len(span)))
    return sorted(out)


def _run(docs, **kw):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                "text": pa.array([t for _, t in docs], type=pa.string()),
            }
        )
    )
    t = chunk_documents(ds, "text", **kw).to_pandas()
    return sorted(
        zip(t["doc_id"], t["chunk_id"], t["text"], t["n_tokens"].astype(int))
    )


def test_chunk_matches_reference(ray_session):
    rng = np.random.default_rng(7)
    docs = []
    for i in range(80):
        n = int(rng.integers(0, 40))
        docs.append((i, " ".join(f"w{rng.integers(0, 9)}" for _ in range(n))))
    docs += [(100, None), (101, ""), (102, "   "), (103, "solo")]
    docs += [(104, " vt\x0bjoined nbsp\xa0joined\tw1\r\nw2\x0c ")]
    for max_tokens, overlap in [(8, 0), (8, 3), (5, 4), (1, 0), (64, 16)]:
        got = _run(docs, max_tokens=max_tokens, overlap=overlap)
        want = _ref_chunks(docs, max_tokens, overlap)
        assert got == want, (max_tokens, overlap)


def test_chunk_overlap_and_coverage(ray_session):
    text = " ".join(str(i) for i in range(100))
    got = _run([(1, text)], max_tokens=16, overlap=4)
    # every token appears in at least one chunk, in order
    seen = []
    for _, j, chunk, n in got:
        toks = chunk.split()
        assert len(toks) == n <= 16
        if j > 0:
            # consecutive chunks share exactly `overlap` tokens (except a
            # short terminal chunk, which still starts at j*stride)
            assert toks[0] == str(j * 12)
        seen.extend(toks)
    assert set(seen) == {str(i) for i in range(100)}
    # last chunk ends at the final token
    assert got[-1][2].split()[-1] == "99"


def test_chunk_partition_invariance(ray_session):
    docs = [(i, " ".join(f"t{j}" for j in range(i % 30))) for i in range(60)]
    a = _run(docs, max_tokens=7, overlap=2)
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "text": pa.array([t for _, t in docs], type=pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(13)
    t = chunk_documents(ds, "text", max_tokens=7, overlap=2).to_pandas()
    b = sorted(zip(t["doc_id"], t["chunk_id"], t["text"], t["n_tokens"].astype(int)))
    assert a == b


def test_chunk_validation(ray_session):
    ds = ray.data.from_items([{"doc_id": 1, "text": "a"}])
    with pytest.raises(ValueError):
        chunk_documents(ds, "text", max_tokens=0)
    with pytest.raises(ValueError):
        chunk_documents(ds, "text", max_tokens=4, overlap=4)
    with pytest.raises(ValueError):
        chunk_documents(ds, "text", max_tokens=4, overlap=-1)


def test_chunk_empty_table(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "text": pa.array([], type=pa.string()),
            }
        )
    )
    t = chunk_documents(ds, "text", max_tokens=4).to_pandas()
    assert len(t) == 0
    # Ray may collapse the schema of an all-empty pipeline to no columns;
    # when columns survive, they must be the documented four
    if len(t.columns):
        assert list(t.columns) == ["doc_id", "chunk_id", "text", "n_tokens"]


def _ref_sentence_chunks(docs, max_units, overlap):
    import re

    stride = max_units - overlap
    out = []
    for doc_id, text in docs:
        if text is None:
            continue
        marked = re.sub(r"([.!?])[\t\n\f\r ]+", "\\1\x1f", text.replace("\x1f", ""))
        units = [u for u in marked.split("\x1f") if u]
        n = len(units)
        if n == 0:
            continue
        nc = 1 if n <= max_units else -(-(n - max_units) // stride) + 1
        for j in range(nc):
            span = units[j * stride : j * stride + max_units]
            out.append((doc_id, j, " ".join(span), len(span)))
    return sorted(out)


def test_chunk_sentence_mode_matches_reference(ray_session):
    docs = [
        (1, "One two. Three four! Five six? Seven eight. Nine."),
        (2, "No punctuation here at all"),
        (3, None),
        (4, ""),
        (5, "Trailing period. "),
        (6, "A. B. C. D. E. F. G."),
        (7, "Multi  spaces.  After.   Boundaries. Stay!"),
    ]
    for mu, ov in [(2, 1), (3, 0), (1, 0), (4, 2)]:
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                    "text": pa.array([t for _, t in docs], type=pa.string()),
                }
            )
        )
        t = chunk_documents(
            ds, "text", max_tokens=mu, overlap=ov, unit="sentence",
            n_tokens_name="n_units",
        ).to_pandas()
        got = sorted(
            zip(t["doc_id"], t["chunk_id"], t["text"], t["n_units"].astype(int))
        )
        assert got == _ref_sentence_chunks(docs, mu, ov), (mu, ov)


def test_chunk_unit_validation(ray_session):
    ds = ray.data.from_items([{"doc_id": 1, "text": "a"}])
    with pytest.raises(ValueError, match="unit"):
        chunk_documents(ds, "text", max_tokens=4, unit="paragraph")
