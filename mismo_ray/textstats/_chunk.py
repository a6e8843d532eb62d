"""Document chunking: split long documents into overlapping unit windows.

The RAG / embedding-prep / long-context-training primitive the reference
has no counterpart for: every document becomes ceil-many chunks of at most
``max_tokens`` units, consecutive chunks sharing ``overlap`` units, chunk
text rejoined with single spaces. Units are whitespace tokens
(``unit="token"``, the default) or sentences (``unit="sentence"``:
boundaries after ``.!?`` + whitespace, detected with a marker-replace so
the identical rule is expressible in RE2/SQL — no lookbehind needed).  One stateless
``map_batches`` pass — each chunk's tokens are gathered from a flattened
per-batch token array with pure index arithmetic (no per-row python) and
rejoined with one Arrow ``binary_join`` kernel, so the op streams at any
corpus size with zero shuffles.

Chunk layout (stride = max_tokens - overlap):

- chunk j covers tokens ``[j*stride, min(j*stride + max_tokens, n))``
- ``n_chunks = 1`` when ``n <= max_tokens`` else
  ``ceil((n - max_tokens) / stride) + 1`` — the last chunk always ends at
  the final token and is never fully contained in its predecessor
- documents with null text or zero tokens produce no chunks
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# whitespace run: the class is EXPLICIT ASCII, not \s: Python's \s (and
# str.split) is Unicode-wide (VT, NBSP, LS/PS, \x1c-\x1f) while
# RE2/DuckDB's \s is [\t\n\f\r ] only — the explicit class keeps token
# and sentence splits byte-identical on both engines.
_WS = r"[\t\n\f\r ]+"
_WS_RUN = re.compile(_WS)
# sentence boundary: terminal punctuation followed by whitespace. The
# marker-replace form ('\1' + US control char, then split) is what RE2 can
# express too (no lookbehind): regexp_replace(text,
# '([.!?])[\t\n\f\r ]+', '\1' || chr(31), 'g'). The US character itself
# (0x1F) is RESERVED: it is stripped from input text before marking.
_SENT_BOUNDARY = re.compile("([.!?])" + _WS)
_UNIT_SEP = "\x1f"


def chunk_documents(
    ds: ray.data.Dataset,
    column: str = "text",
    *,
    max_tokens: int = 512,
    overlap: int = 0,
    id_column: str = "doc_id",
    chunk_id_name: str = "chunk_id",
    n_tokens_name: str = "n_tokens",
    unit: str = "token",
) -> ray.data.Dataset:
    """(id, chunk_id, text, n_units) rows: overlapping unit windows.

    ``unit="token"``: units are the runs between ``[\\t\\n\\f\\r ]``
    whitespace (RE2's ``\\s``: VT, NBSP and other Unicode spaces stay
    inside a token; leading/trailing whitespace dropped).
    ``unit="sentence"``: units are sentences (split after ``[.!?]`` +
    whitespace; ``max_tokens`` / ``overlap`` then count SENTENCES per
    window). Chunk text is the
    window's units joined with a single space — a byte-deterministic,
    engine-independent contract (DuckDB: ``array_to_string(list_slice(...),
    ' ')``).  ``overlap`` units are shared between consecutive chunks
    (0 = disjoint windows).
    """
    if unit not in ("token", "sentence"):
        raise ValueError(f"unit must be 'token' or 'sentence', got {unit!r}")
    if max_tokens <= 0:
        raise ValueError(f"max_tokens must be positive, got {max_tokens}")
    if not 0 <= overlap < max_tokens:
        raise ValueError(
            f"overlap must be in [0, max_tokens), got {overlap} "
            f"for max_tokens={max_tokens}"
        )
    stride = max_tokens - overlap

    def fn(t: pa.Table) -> pa.Table:
        import pandas as pd

        n = len(t)
        id_arr = t[id_column].combine_chunks() if n else t[id_column]
        texts = pd.Series(t[column].to_pylist(), dtype="object")
        if unit == "sentence":
            toks = (
                texts.str.replace(_UNIT_SEP, "", regex=False)
                .str.replace(_SENT_BOUNDARY, "\\1" + _UNIT_SEP, regex=True)
                .str.split(_UNIT_SEP)
            )
        else:
            toks = texts.str.split(_WS_RUN)
        ex = toks.explode()
        # leading/trailing whitespace and trailing boundaries yield empty
        # units that must not become chunks
        ex = ex[ex.notna() & (ex != "")]
        erows = ex.index.to_numpy(dtype=np.int64)
        ntok = np.bincount(erows, minlength=n).astype(np.int64)
        n_chunks = np.where(
            ntok == 0,
            0,
            np.where(
                ntok <= max_tokens,
                1,
                (ntok - max_tokens + stride - 1) // stride + 1,
            ),
        ).astype(np.int64)
        total = int(n_chunks.sum())
        empty = pa.table(
            {
                id_column: id_arr.slice(0, 0) if n else id_arr,
                chunk_id_name: pa.array([], type=pa.int64()),
                column: pa.array([], type=pa.string()),
                n_tokens_name: pa.array([], type=pa.int64()),
            }
        )
        if total == 0:
            return empty

        # flattened unit array + per-doc offsets into it
        flat = ex.to_numpy(dtype=object)
        doc_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(ntok, out=doc_off[1:])

        # one row per chunk: owning doc, chunk index within the doc
        doc_rep = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
        first_chunk_row = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        chunk_idx = np.arange(total, dtype=np.int64) - first_chunk_row[doc_rep]
        starts = chunk_idx * stride
        ends = np.minimum(starts + max_tokens, ntok[doc_rep])
        lengths = ends - starts

        # gather indices: for chunk c, flat[doc_off[d]+starts[c] : ...+ends[c]]
        gtotal = int(lengths.sum())
        gather_start = doc_off[doc_rep] + starts
        first_tok_row = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        gather = (
            np.arange(gtotal, dtype=np.int64)
            - np.repeat(first_tok_row, lengths)
            + np.repeat(gather_start, lengths)
        )
        values = pa.array(flat[gather], type=pa.string())
        # int64 offsets: high-overlap configs amplify tokens ~max_tokens/
        # stride-fold, so a big batch can exceed int32 list offsets; the
        # binary_join kernel returns plain `string` either way
        offsets = pa.array(
            np.concatenate(([0], np.cumsum(lengths))), type=pa.int64()
        )
        chunks_list = pa.LargeListArray.from_arrays(offsets, values)
        chunk_text = pc.binary_join(chunks_list, " ")
        return pa.table(
            {
                id_column: id_arr.take(pa.array(doc_rep)),
                chunk_id_name: pa.array(chunk_idx),
                column: chunk_text,
                n_tokens_name: pa.array(lengths),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
