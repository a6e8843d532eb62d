"""Deduplication operators for training-data pipelines.

The reference's whole library IS near-dedup (SURVEY §2.7); these wrap its
primitives into the dedup shapes a 100 TB corpus pipeline needs:

- ``exact_dedupe``: content-hash -> hash-partition -> per-group min-id keep
  (ray_guide "Aggregation at scale" pattern);
- ``minhash_lsh_pairs``/``minhash_lsh_dedupe``: shingle -> seeded minhash
  signature -> banded LSH keys -> UnnestLinker-style bucket groupby ->
  optional exact-jaccard verify -> connected components. The reference's
  ``minhash_lsh_keys`` (mismo/linker/_lsh.py:17-43) samples RANDOMLY per call;
  ours uses fixed seeded hash families so runs are deterministic (SURVEY §4);
- ``simhash64``/``simhash_pairs``: 64-bit simhash, banded into 4x16-bit keys,
  candidates verified by hamming distance;
- ``ngram_jaccard_pairs``: character-ngram UnnestLinker blocking + exact
  jaccard verify;
- ``embedding_neardup_pairs``: cosine >= tau via mismo_ray.ann.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from mismo_ray._util import factorize_pair_sides, hash64, splitmix64
from mismo_ray.linker._unnest import UnnestLinker
from mismo_ray.types import Linkage

# ------------------------------------------------------------------ exact
def exact_dedupe(
    ds: ray.data.Dataset,
    column: str,
    *,
    id_column: str = "record_id",
    normalize: Callable[[str], str] | None = None,
) -> ray.data.Dataset:
    """Hash-partitioned exact dedup: one row per distinct content hash with
    (content_hash_1, content_hash_2, keep_id = min id, n_dups).

    The content hash is two independently-seeded 64-bit siphash values
    (128 bits total — collision-free in practice at corpus scale; the
    expensive object-hash pass runs ONCE and both seeds fold into it).
    The shuffle is a single-int-key bucket groupby (hash % n_partitions)
    with the per-group (min id, count) aggregation done at C speed by
    pyarrow ``group_by`` inside each bucket task — measured 19x faster
    than Ray's multi-key Aggregate over the same 2M rows (0.9 s vs 17 s
    at 32 CPUs), because the sort key has n_buckets distinct values
    instead of one per document. Buckets follow MISMO_RAY_NUM_PARTITIONS,
    so per-task group size stays bounded at scale."""
    from mismo_ray._joins import default_num_partitions
    from mismo_ray._util import hash64_base, hash64_fold

    n_buckets = default_num_partitions()

    def add_hash(t: pa.Table) -> pa.Table:
        vals = t[column].to_pylist()
        if normalize is not None:
            vals = [None if v is None else normalize(v) for v in vals]
        base = hash64_base(vals)
        h1 = hash64_fold(base, 0xE0).astype(np.int64)
        h2 = hash64_fold(base, 0xE1).astype(np.int64)
        return pa.table(
            {
                "content_hash_1": pa.array(h1),
                "content_hash_2": pa.array(h2),
                id_column: t[id_column],
                "__bkt__": pa.array((h1 % n_buckets + n_buckets) % n_buckets),
            }
        )

    def bucket_agg(g: pa.Table) -> pa.Table:
        out = g.group_by(["content_hash_1", "content_hash_2"]).aggregate(
            [(id_column, "min"), (id_column, "count")]
        )
        # select BY NAME: pyarrow versions have differed on whether keys or
        # aggregates come first, and a positional rename would silently
        # relabel a content hash as keep_id
        return pa.table(
            {
                "content_hash_1": out["content_hash_1"],
                "content_hash_2": out["content_hash_2"],
                "keep_id": out[f"{id_column}_min"],
                "n_dups": out[f"{id_column}_count"],
            }
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return hashed.groupby("__bkt__").map_groups(
        lambda g: bucket_agg(g.drop_columns(["__bkt__"])),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------- minhash
def char_shingles(s: str | None, w: int = 5) -> list[str] | None:
    if s is None:
        return None
    if len(s) <= w:
        return [s] if s else []
    return [s[i : i + w] for i in range(len(s) - w + 1)]


def _affine_family(num_hashes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded minhash family h_k(x) = a_k * x + b_k (mod 2^64)."""
    with np.errstate(over="ignore"):
        a = splitmix64(np.arange(1, num_hashes + 1, dtype=np.uint64) * np.uint64(seed * 2 + 1))
    return a, splitmix64(a ^ np.uint64(0xABCDEF))


def minhash_signature(
    shingles: list[str] | None, *, num_hashes: int = 64, seed: int = 7
) -> np.ndarray | None:
    """Seeded k-minhash signature (one base hash + k affine mixes)."""
    if shingles is None:
        return None
    if not shingles:
        return np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = hash64(list(set(shingles)), seed=seed)  # (n_shingles,)
    a, b = _affine_family(num_hashes, seed)
    with np.errstate(over="ignore"):
        return (base[None, :] * a[:, None] + b[:, None]).min(axis=1)


def minhash_signatures_batch(
    texts: list[str | None], *, num_hashes: int = 64, shingle_w: int = 5, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized minhash for a whole batch.

    Returns (sig matrix (n_rows, num_hashes) uint64, valid bool mask). One
    pandas-siphash pass over ALL shingles of the batch, then per-hash-function
    ``np.minimum.reduceat`` over row segments — no per-row python.
    """
    n = len(texts)
    all_shingles: list[str] = []
    offsets = np.zeros(n + 1, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    for i, s in enumerate(texts):
        if s is not None:
            sh = set(char_shingles(s, shingle_w) or [])
            if sh:
                # shingle-less texts (empty string) stay INVALID: an
                # all-max signature would collide in every band and the
                # estimated-agreement verify would accept the clique at
                # 1.0 while exact jaccard says 0.0 (the index class
                # already guards this; the pairs path must too)
                valid[i] = True
                all_shingles.extend(sh)
        offsets[i + 1] = len(all_shingles)
    sig = np.full((n, num_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    if not all_shingles:
        return sig, valid
    base = hash64(all_shingles, seed=seed)  # (S,)
    a, b = _affine_family(num_hashes, seed)
    nonempty = offsets[:-1] < offsets[1:]
    starts = offsets[:-1][nonempty]
    with np.errstate(over="ignore"):
        for k in range(num_hashes):
            vals = base * a[k] + b[k]
            sig[nonempty, k] = np.minimum.reduceat(vals, starts)
    return sig, valid


# ------------------------------------------------------- charhash shingles
# The charhash family: the w-codepoint shingle at position g of a text with
# codepoints c is  h = splitmix64(sum_j c[g+j] * B**(w-1-j) ^ seed)  (mod 2^64;
# a text of at most w codepoints is one window of its own length). With the
# prefix sums Q[k] = sum_{i<k} c[i] * B**-i, every window is
# B**(g+w-1) * (Q[g+w] - Q[g]): O(1) per position. B is odd, so B**-1 exists
# mod 2^64 and uint64 wrap-around is exact.
_FNV_B = 1099511628211
_FNV_B_INV = pow(_FNV_B, -1, 1 << 64)
# codepoints per step of the kernel (at least one row per step): its
# temporaries, a few uint64 arrays of this length, stay near 1 MB however
# large the batch is
_CHUNK_CODEPOINTS = 1 << 14


def _powers(base: int, n: int) -> np.ndarray:
    """``base**k mod 2^64`` for k in [0, n)."""
    p = np.full(n, base, dtype=np.uint64)
    p[:1] = 1
    return np.multiply.accumulate(p, out=p)


@functools.cache
def _power_tables() -> tuple[np.ndarray, np.ndarray]:
    """B**k and B**-k for k below the chunk budget, built on first use (a
    process that never sketches does not hold them)."""
    return _powers(_FNV_B, _CHUNK_CODEPOINTS), _powers(_FNV_B_INV, _CHUNK_CODEPOINTS)


def _chunk_hashes(
    codes: np.ndarray, lens: np.ndarray, w: int, seed: np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """Shingle hashes of consecutive rows whose codepoints are ``codes``
    (row lengths ``lens``), row-major, plus each row's run offsets."""
    L = len(codes)
    pw, ipw = _power_tables()
    if L > len(pw):  # one row longer than the chunk budget
        pw, ipw = _powers(_FNV_B, L), _powers(_FNV_B_INV, L)
    off = np.cumsum(lens) - lens
    n_win = np.where(lens >= w, lens - w + 1, np.minimum(lens, 1))
    starts = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(n_win, out=starts[1:])
    q = np.zeros(L + 1, dtype=np.uint64)
    np.multiply(codes, ipw[:L], out=q[1:])
    np.cumsum(q[1:], out=q[1:])
    h = np.empty(0, dtype=np.uint64)
    if L >= w:
        # full-width windows at every position; keep those inside one row
        h = q[w:] - q[: L - w + 1]
        h *= pw[w - 1 : L]
        full = lens >= w
        inside = np.zeros(L - w + 2, dtype=np.int8)
        inside[off[full]] = 1
        inside[off[full] + lens[full] - w + 1] -= 1
        h = h[np.cumsum(inside[:-1], dtype=np.int8).astype(bool)]
    short = (lens > 0) & (lens < w)
    if short.any():
        # the whole text is the one window
        o, k = off[short], lens[short]
        at = starts[:-1][short]
        rest = np.ones(starts[-1], dtype=bool)
        rest[at] = False
        out = np.empty(starts[-1], dtype=np.uint64)
        out[rest] = h
        out[at] = pw[o + k - 1] * (q[o + k] - q[o])
        h = out
    h ^= seed
    return splitmix64(h), starts


def _charshingle_chunks(texts: list[str | None], w: int, seed: int):
    """Yield ``(lo, hi, hashes, starts)`` per run of rows ``[lo, hi)`` of at
    most ``_CHUNK_CODEPOINTS`` codepoints (or one longer row): row ``lo + i``'s
    shingle hashes are ``hashes[starts[i]:starts[i + 1]]``. None and ``''``
    have none. Each run is encoded once, as one utf-32 string."""
    texts = ["" if s is None else s for s in texts]
    lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    cum = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lens, out=cum[1:])
    seed = np.uint64(seed)
    lo = 0
    while lo < len(texts):
        hi = int(np.searchsorted(cum, cum[lo] + _CHUNK_CODEPOINTS, side="right")) - 1
        hi = max(hi, lo + 1)
        # utf-32: one code unit per codepoint, so str lengths are code offsets
        codes = np.frombuffer("".join(texts[lo:hi]).encode("utf-32-le"), dtype=np.uint32)
        yield (lo, hi, *_chunk_hashes(codes, lens[lo:hi], w, seed))
        lo = hi


def charshingle_hashes_batch(
    texts: list[str | None], w: int, *, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """uint64 hashes of every w-codepoint shingle of every text, WITHOUT
    materializing substrings: row i's are ``hashes[starts[i]:starts[i+1]]``,
    in position order (none for None or ``''``). Duplicates are kept:
    min-hashing is duplicate-insensitive."""
    starts = np.zeros(len(texts) + 1, dtype=np.int64)
    parts = []
    for lo, hi, h, st in _charshingle_chunks(texts, w, seed):
        starts[lo + 1 : hi + 1] = starts[lo] + st[1:]
        parts.append(h)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64), starts


def charshingle_hashes(s: str, w: int, *, seed: int = 7) -> np.ndarray:
    """The charhash shingle hashes of one text (see ``charshingle_hashes_batch``)."""
    return charshingle_hashes_batch([s], w, seed=seed)[0]


def minhash_signatures_charhash_batch(
    texts: list[str | None], *, num_hashes: int = 16, shingle_w: int = 24, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Fast minhash over character shingles via rolling hashes (no python
    string churn). Same output shape as minhash_signatures_batch; different
    hash family, so signatures are not interchangeable between the two."""
    n = len(texts)
    sig = np.full((n, num_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    valid = np.zeros(n, dtype=bool)
    a, b = _affine_family(num_hashes, seed)
    for lo, _hi, base, starts in _charshingle_chunks(texts, shingle_w, seed):
        # empty text: no shingles -> INVALID (an all-max signature would
        # alias every other empty doc across all bands)
        rows = np.flatnonzero(starts[:-1] < starts[1:])
        if not len(rows):
            continue
        valid[lo + rows] = True
        vals = np.empty_like(base)
        for k in range(num_hashes):
            np.multiply(base, a[k], out=vals)
            vals += b[k]
            sig[lo + rows, k] = np.minimum.reduceat(vals, starts[rows])
    return sig, valid


def band_keys_from_signatures(
    sig: np.ndarray, valid: np.ndarray, *, n_bands: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_rows, num_hashes) signatures -> ``(n_rows, n_bands)`` int64 band
    keys (band index folded into the key's high byte) and ``valid``; rows
    that are not valid have no keys and hold 0."""
    n, num_hashes = sig.shape
    if n_bands <= 0 or num_hashes % n_bands:
        # rows=0 would leave acc all-zeros — EVERY doc sharing every band
        # key, an O(n^2) cross-product with no warning; the index class
        # already validates, the pairs path must too
        raise ValueError(
            f"num_hashes ({num_hashes}) must be a positive multiple of "
            f"n_bands ({n_bands})"
        )
    rows = num_hashes // n_bands
    with np.errstate(over="ignore"):
        # combine the `rows` hash values of each band with a splitmix chain
        acc = np.zeros((n, n_bands), dtype=np.uint64)
        for r in range(rows):
            acc = splitmix64(acc ^ sig[:, np.arange(n_bands) * rows + r])
        band_tag = (np.arange(n_bands, dtype=np.uint64) << np.uint64(56))
        keys = (acc ^ band_tag).astype(np.int64)
    keys[~valid] = 0
    return keys, valid


def minhash_lsh_keys(
    s: str | None,
    *,
    num_hashes: int = 64,
    n_bands: int = 16,
    shingle_w: int = 5,
    seed: int = 7,
) -> list[int] | None:
    """Banded LSH keys from the minhash signature: one 64-bit key per band
    (reference mismo/linker/_lsh.py:17-43, determinized).

    NOTE: uses the STRING-SHINGLE hash family (minhash_signatures_batch).
    The corpus pipeline ``minhash_lsh_pairs`` uses the faster rolling
    CHARHASH family — the two are deliberately not interchangeable, so
    keys from this helper will not match that pipeline's buckets; use it
    for standalone banding, not to reproduce minhash_lsh_pairs."""
    sig, valid = minhash_signatures_batch(
        [s], num_hashes=num_hashes, shingle_w=shingle_w, seed=seed
    )
    keys, valid = band_keys_from_signatures(sig, valid, n_bands=n_bands)
    return keys[0].tolist() if valid[0] else None


# posting-run pair keys enumerated per step of ``_overlaps_from_postings``
# (bounds its temporaries to a few tens of MB)
_POSTING_CHUNK = 1 << 20


def _overlaps_per_pair(sets: list, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|A & B| per pair (a[i], b[i]): one ``np.intersect1d`` each."""
    return np.fromiter(
        (
            np.intersect1d(sets[x], sets[y], assume_unique=True).size
            for x, y in zip(a.tolist(), b.tolist())
        ),
        dtype=np.int64,
        count=len(a),
    )


def _overlaps_from_postings(
    owner: np.ndarray, run: np.ndarray, df: np.ndarray, n_values: int,
    a: np.ndarray, b: np.ndarray,
) -> np.ndarray:
    """|A & B| per pair (a[i], b[i]) of distinct values, from the posting
    runs of the hash-sorted shingles: ``owner[x]`` is the value holding
    sorted shingle x, ``run[x]`` its run of equal hashes (owners ascending
    within a run), ``df`` the run lengths. Every owner pair of a run shares
    that shingle, so the overlap is the number of runs holding both: the
    sum over runs of df(df-1)/2 pair keys, enumerated ``_POSTING_CHUNK`` at
    a time and counted for the requested keys only."""
    want, inv = np.unique(
        np.minimum(a, b) * n_values + np.maximum(a, b), return_inverse=True
    )
    counts = np.zeros(len(want), dtype=np.int64)
    # sorted shingle x pairs with x+1 .. (end of its run) - 1
    after = np.cumsum(df)[run] - np.arange(len(run)) - 1
    xs = np.flatnonzero(after)
    cnt = after[xs]
    cum = np.cumsum(cnt)
    lo = 0
    while lo < len(xs) and len(want):
        done = cum[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(cum, done + _POSTING_CHUNK, side="right")), lo + 1)
        c = cnt[lo:hi]
        x = np.repeat(xs[lo:hi], c)
        y = x + 1 + np.arange(len(x)) - np.repeat(np.cumsum(c) - c, c)
        keys = owner[x] * n_values + owner[y]
        pos = np.minimum(np.searchsorted(want, keys), len(want) - 1)
        hit = want[pos] == keys
        counts += np.bincount(pos[hit], minlength=len(want))
        lo = hi
    return counts[inv]


def hash_set_jaccard_batch(
    vals_l, vals_r, shingle_fn: Callable[[str], np.ndarray]
) -> np.ndarray:
    """Exact set-jaccard per pair over uint64 shingle hashes (collision-free
    whp). ``vals_l`` / ``vals_r``: equal-length lists or Arrow string arrays.
    Both sides are factorized with ``pc.dictionary_encode`` and each unique
    value is shingled once (near-dup candidates and EM's record sample
    repeat the same records many times). Overlaps are counted from the runs
    of the hash-sorted shingles of all values (cost: sum of df^2 over the
    shingles), or per pair with a C-speed ``np.intersect1d`` when that sum
    exceeds the per-pair work, sum of min(|A|, |B|) — a shingle shared by
    most values (boilerplate) makes the posting runs quadratic. Empty-vs-
    anything = 0.0 (matches ``sets.jaccard``); a null on either side = 0.0
    (candidates never have null keys)."""
    codes_l, codes_r, uniq = factorize_pair_sides(vals_l, vals_r)
    out = np.zeros(len(codes_l), dtype=np.float64)
    ok = np.flatnonzero((codes_l >= 0) & (codes_r >= 0))
    if not len(ok):
        return out
    a, b = codes_l[ok], codes_r[ok]
    used = np.unique(np.r_[a, b])  # values of non-null pairs only
    sets: list = [None] * len(uniq)
    for u, v in zip(used.tolist(), uniq.take(used).to_pylist()):
        sets[u] = np.unique(shingle_fn(v))
    sizes = np.zeros(len(uniq), dtype=np.int64)
    sizes[used] = [len(sets[u]) for u in used.tolist()]
    hashes = np.concatenate([sets[u] for u in used.tolist()])
    order = np.argsort(hashes, kind="stable")
    hashes = hashes[order]
    owner = np.repeat(used, sizes[used])[order]
    run = np.zeros(len(hashes), dtype=np.int64)
    run[1:] = np.cumsum(hashes[1:] != hashes[:-1])
    df = np.bincount(run)
    inter = sizes[a]  # |A & A| = |A|
    d = np.flatnonzero(a != b)
    if int((df * df).sum()) <= int(np.minimum(sizes[a], sizes[b]).sum()):
        inter[d] = _overlaps_from_postings(owner, run, df, len(uniq), a[d], b[d])
    else:
        inter[d] = _overlaps_per_pair(sets, a[d], b[d])
    hit = inter > 0
    out[ok[hit]] = inter[hit] / (sizes[a[hit]] + sizes[b[hit]] - inter[hit])
    return out


def signature_array(sig: np.ndarray, valid: np.ndarray) -> pa.FixedSizeListArray:
    """``(n, k)`` minhash signatures as a fixed-size-list column, null where
    not ``valid`` (no signature: null or empty text)."""
    return pa.FixedSizeListArray.from_arrays(
        pa.array(sig.astype(np.int64).ravel()), sig.shape[1], mask=pa.array(~valid)
    )


def signature_rows(col) -> tuple[np.ndarray, np.ndarray]:
    """A fixed-size-list signature column (chunked or not, possibly sliced)
    as an ``(n, k)`` int64 matrix plus its validity mask; null rows are 0."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    k = col.type.list_size
    # ``values`` ignores the slice offset; a null slot still holds k
    # (possibly null) child values, so the reshape stays row-aligned
    vals = pc.fill_null(col.values.slice(col.offset * k, len(col) * k), 0)
    mat = vals.to_numpy().astype(np.int64, copy=False).reshape(len(col), k)
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    if not valid.all():
        mat = np.where(valid[:, None], mat, 0)
    return mat, valid


def sig_agreement(sl, sr) -> np.ndarray:
    """Row-wise agreement fraction of two fixed-size-list minhash signature
    columns (the jaccard estimator, std ~ sqrt(j(1-j)/k)). A null signature
    on either side agrees with nothing (0.0)."""
    a, ok_a = signature_rows(sl)
    b, ok_b = signature_rows(sr)
    agree = (a == b).mean(axis=1)
    agree[~(ok_a & ok_b)] = 0.0
    return agree


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    column: str | None,
    *,
    right: ray.data.Dataset | None = None,
    num_hashes: int = 64,
    n_bands: int = 16,
    shingle_w: int = 5,
    verify_jaccard: float | None = None,
    verify_mode: str = "hybrid",
    verify_margin: float | None = None,
    max_pairs: int | None = None,
    seed: int = 7,
    max_broadcast_text_bytes: int = 2_000_000_000,
    signature_column: str | None = None,
) -> Linkage:
    """Candidate near-dup pairs via banded minhash LSH; optional
    shingle-jaccard verification (pairs below the bar are dropped).

    ``right=None`` (or ``right is ds``): dedupe task — unordered non-self
    pairs within one corpus. Otherwise: link task — cross-corpus (l, r)
    pairs, both corpora sketched with the SAME seeded hash families so band
    keys collide exactly like in-corpus ones.

    The signature is computed ONCE per record into a narrow sketch table
    (record_id, sig — ~8+8*num_hashes bytes/row) which is what gets pinned
    and shuffled; band keys derive from it, and verification re-uses it:

    - verify_mode="hybrid" (default): pairs whose signature-estimated jaccard
      is outside [bar-margin, bar+margin] are decided from the sketch alone;
      only the borderline band joins the raw texts back for an exact check.
      The estimator's sigma is sqrt(J(1-J)/num_hashes) <= 0.5/sqrt(num_hashes);
      the default margin (``verify_margin=None``) is 1.2/sqrt(num_hashes) =
      2.4 sigma_max, so a pair decided from the sketch alone is misclassified
      with probability <= ~1.6% at the margin edge (and exponentially less
      further out). Hybrid output is therefore NOT bit-identical to "exact"
      on adversarial distributions concentrated near the margin edges —
      widen verify_margin (more exact checks) to tighten the guarantee.
    - "exact": every pair exact-checked (memoized hash-shingle sets).
    - "est": sketch-only (cheapest; est error ~ 1/sqrt(num_hashes)).

    ``signature_column=`` skips the text sketching and reads PRECOMPUTED
    ``list<int64>`` signatures (exactly ``num_hashes`` long; null = invalid
    row, never banded) — the seam that lets an engine-independent oracle
    value-check the banding/dedup/est-verify machinery (mirrors simhash's
    ``signature_column``), or lets a 100 TB run reuse sketches persisted by
    an earlier pass instead of re-shingling the corpus. Text-dependent
    verification still needs ``column``; with ``column=None`` only
    ``verify_mode="est"`` (or no verification) is available.
    """
    if verify_margin is None:
        verify_margin = 1.2 / math.sqrt(num_hashes)
    if column is None and signature_column is None:
        raise ValueError("need a text column or a signature_column")
    if (
        column is None
        and verify_jaccard is not None
        and verify_mode != "est"
    ):
        raise ValueError(
            "verify_mode='hybrid'/'exact' re-checks raw text; pass the text "
            "column too, or use verify_mode='est' with signature_column"
        )

    if signature_column is not None:
        sig_t = pa.list_(pa.int64(), num_hashes)

        def add_sig(batch: pa.Table) -> pa.Table:
            sigcol = batch[signature_column]
            if isinstance(sigcol, pa.ChunkedArray):
                sigcol = sigcol.combine_chunks()
            # the cast validates every non-null row is num_hashes long
            cast = sigcol.cast(sig_t)
            # a null ELEMENT inside a non-null signature would survive the
            # cast and turn into a garbage band key downstream (NaN ->
            # INT64_MIN through the numpy reshape) — reject it loudly;
            # "invalid row" is expressed as a null LIST, never a null slot
            if pc.list_flatten(cast).null_count:
                raise ValueError(
                    f"{signature_column!r} has null elements inside "
                    "signatures; null out the whole list for invalid rows"
                )
            return pa.table({"record_id": batch["record_id"], "__sig__": cast})

    else:

        def add_sig(batch: pa.Table) -> pa.Table:
            # charhash signature family: string-free rolling hashes (the
            # string-shingle family in minhash_signatures_batch gives the same
            # LSH guarantees but materializes every shingle as a python string)
            sig, valid = minhash_signatures_charhash_batch(
                batch[column].to_pylist(),
                num_hashes=num_hashes,
                shingle_w=shingle_w,
                seed=seed,
            )
            return pa.table(
                {"record_id": batch["record_id"], "__sig__": signature_array(sig, valid)}
            )

    link = right is not None and right is not ds
    right_src = right if link else ds

    # narrow sketch table (≈ 8+8*num_hashes B/row); not materialized here —
    # generate_pairs pins its keyed projection (sig included) exactly once
    sketches = ds.map_batches(add_sig, batch_format="pyarrow")
    sketches_r = (
        right.map_batches(add_sig, batch_format="pyarrow") if link else None
    )

    # ---- explode band keys WITH the signature carried alongside, so the
    # pair-gen shuffle delivers (id_l, id_r, sig_l, sig_r) directly and the
    # verify stage needs NO join back to the corpus for the common case.
    def explode_bands(t: pa.Table) -> pa.Table:
        sig, valid = signature_rows(t["__sig__"])
        keys, _ = band_keys_from_signatures(
            sig.astype(np.uint64), valid, n_bands=n_bands
        )
        rows = np.flatnonzero(valid)
        take_rows = pa.array(np.repeat(rows, n_bands), type=pa.int64())
        return pa.table(
            {
                "record_id": t["record_id"].take(take_rows),
                "token": pa.array(keys[rows].ravel()),
                "__sig__": t["__sig__"].take(take_rows),
            }
        )

    from mismo_ray._joins import default_num_partitions
    from mismo_ray.keys import resolve_keys
    from mismo_ray.linker._pairgen import generate_pairs

    ex = sketches.map_batches(explode_bands, batch_format="pyarrow")
    ex_r = (
        sketches_r.map_batches(explode_bands, batch_format="pyarrow")
        if link
        else ex
    )
    links, _counters = generate_pairs(
        ex,
        ex_r,
        resolve_keys("token"),
        task="link" if link else "dedupe",
        max_pairs=max_pairs,
        salt_rows=2048,
        carry=["__sig__"],
    )

    ids_only = ["record_id_l", "record_id_r"]

    # ---- multi-band duplicate drop, carry-preserving: coarse bucket on the
    # pair hash + vectorized consecutive-dup mask per bucket (a raw distinct
    # would lose carried columns; a groupby per pair would be a task per pair)
    B = default_num_partitions()

    def pair_dedup(pairs: ray.data.Dataset) -> ray.data.Dataset:
        def pbucket(t: pa.Table) -> pa.Table:
            h = (hash64(t["record_id_l"]) ^ hash64(t["record_id_r"])) % np.uint64(B)
            return t.append_column("__pbkt__", pa.array(h.astype(np.int64)))

        def dedup_group(g: pa.Table) -> pa.Table:
            l = g["record_id_l"].to_numpy(zero_copy_only=False)
            r = g["record_id_r"].to_numpy(zero_copy_only=False)
            order = np.lexsort((r, l))
            dup = np.zeros(len(order), dtype=bool)
            if len(order) > 1:
                dup[1:] = (l[order[1:]] == l[order[:-1]]) & (
                    r[order[1:]] == r[order[:-1]]
                )
            keep = pa.array(order[~dup], type=pa.int64())
            return g.take(keep).drop_columns(["__pbkt__"])

        return (
            pairs.map_batches(pbucket, batch_format="pyarrow")
            .groupby("__pbkt__")
            .map_groups(dedup_group, batch_format="pyarrow")
        )

    if verify_jaccard is None:
        # project BEFORE the dedup shuffle: the carried __sig__ columns are
        # ~1 KB/pair and dedup_group only needs the two ids (~16 B)
        return Linkage(
            left=ds,
            right=right_src,
            links=pair_dedup(links.select_columns(ids_only)),
        )

    # ---- verify. The est-tag map runs BEFORE the dedup shuffle so the
    # (usually much smaller) surviving set is what gets shuffled:
    # tag 2 = clear accept from the sketch, 1 = borderline (exact check),
    # reject rows dropped immediately. Duplicate pairs carry identical sigs,
    # hence identical tags — tag-then-dedup == dedup-then-tag.
    if verify_mode == "est":
        lo, hi = verify_jaccard, verify_jaccard
    elif verify_mode == "exact":
        lo, hi = -1.0, 2.0  # everything borderline -> exact-checked
    elif verify_mode == "hybrid":
        lo, hi = verify_jaccard - verify_margin, verify_jaccard + verify_margin
    else:
        raise ValueError("verify_mode must be 'hybrid', 'exact' or 'est'")

    def tag_fn(t: pa.Table) -> pa.Table:
        est = sig_agreement(t["__sig___l"], t["__sig___r"])
        tag = np.where(est >= hi, 2, np.where(est > lo, 1, 0)).astype(np.int8)
        out = pa.table(
            {
                "record_id_l": t["record_id_l"],
                "record_id_r": t["record_id_r"],
                "__tag__": pa.array(tag),
            }
        )
        return out.filter(pa.array(tag > 0))

    decided = pair_dedup(
        links.map_batches(tag_fn, batch_format="pyarrow")
    ).materialize()

    def only(tag_val: int):
        def fn(t: pa.Table) -> pa.Table:
            m = np.asarray(t["__tag__"].to_numpy(zero_copy_only=False)) == tag_val
            return t.filter(pa.array(m)).select(ids_only)

        return fn

    accepted = decided.map_batches(only(2), batch_format="pyarrow")
    borderline = decided.map_batches(only(1), batch_format="pyarrow")
    nb = borderline.count()
    if nb == 0:
        return Linkage(left=ds, right=right_src, links=accepted)

    # exact hash-shingle jaccard for the (usually small) undecided band.
    # Small sets skip joins entirely: one map-only filter pass over the
    # corpus collects just the referenced texts into a broadcast dict, and
    # the verify is a single map over the borderline pairs. Large sets fall
    # back to the full corpus join (with_both).
    shingle = lambda s: charshingle_hashes(s, shingle_w, seed=seed)  # noqa: E731

    class _BudgetExceeded(Exception):
        pass

    broadcast_ok = nb <= 1_000_000
    texts_l = texts_r = None
    if broadcast_ok:
        idset_l: set = set()
        idset_r: set = set()
        for b in borderline.iter_batches(batch_format="pyarrow"):
            idset_l.update(b["record_id_l"].to_pylist())
            idset_r.update(b["record_id_r"].to_pylist())
        from mismo_ray._joins import broadcast_isin

        def collect_texts(
            src: ray.data.Dataset, idset: set, budget: list
        ) -> dict:
            out: dict = {}
            for b in broadcast_isin(
                src.select_columns(["record_id", column]), "record_id", idset
            ).iter_batches(batch_format="pyarrow"):
                # BYTE budget, not just a pair count: a million borderline
                # pairs over 100 KB documents would otherwise pull ~100 GB
                # onto the driver where the join path handles it streaming
                budget[0] -= int(
                    pc.sum(pc.binary_length(pc.fill_null(b[column], ""))).as_py()
                    or 0
                )
                if budget[0] < 0:
                    raise _BudgetExceeded
                out.update(zip(b["record_id"].to_pylist(), b[column].to_pylist()))
            return out

        budget = [int(max_broadcast_text_bytes)]
        try:
            if link:
                texts_l = collect_texts(ds, idset_l, budget)
                texts_r = collect_texts(right_src, idset_r, budget)
            else:
                texts_l = collect_texts(ds, idset_l | idset_r, budget)
                texts_r = texts_l
        except _BudgetExceeded:
            broadcast_ok = False
    if broadcast_ok:
        tref = ray.put((texts_l, texts_r))

        def verify_bcast(t: pa.Table) -> pa.Table:
            m_l, m_r = ray.get(tref)
            jacc = hash_set_jaccard_batch(
                [m_l.get(v) for v in t["record_id_l"].to_pylist()],
                [m_r.get(v) for v in t["record_id_r"].to_pylist()],
                shingle,
            )
            return t.filter(pa.array(jacc >= verify_jaccard)).select(ids_only)

        checked = borderline.map_batches(verify_bcast, batch_format="pyarrow")
    if not broadcast_ok:
        pairs = Linkage(
            left=ds, right=right_src, links=borderline
        ).links.with_both([column], [column])

        def verify(t: pa.Table) -> pa.Table:
            jacc = hash_set_jaccard_batch(
                t[f"{column}_l"].to_pylist(),
                t[f"{column}_r"].to_pylist(),
                shingle,
            )
            return t.filter(pa.array(jacc >= verify_jaccard)).select(ids_only)

        checked = pairs.map_batches(verify, batch_format="pyarrow")
    return Linkage(left=ds, right=right_src, links=accepted.union(checked))


def minhash_lsh_dedupe(
    ds: ray.data.Dataset,
    column: str,
    *,
    verify_jaccard: float = 0.8,
    label_as: str = "dup_group",
    **kwargs,
) -> ray.data.Dataset:
    """Near-dup clusters: LSH pairs -> verify -> connected components."""
    from mismo_ray.cluster import connected_components

    linkage = minhash_lsh_pairs(ds, column, verify_jaccard=verify_jaccard, **kwargs)
    return connected_components(
        links=linkage.links_ds, records=ds, label_as=label_as
    )


# ---------------------------------------------------------------- simhash
def _bit_majority_rows(hashes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """64-bit majority fold of each row run ``hashes[starts[i]:starts[i+1]]``
    -> signed-int64 simhash per row: bit k set iff strictly more of the
    row's hashes have bit k set than clear (an exact tie leaves the bit
    clear; an empty run gives 0). THE simhash construction, shared by both
    hash families and mirrored by the simhash_charhash SQL oracle."""
    out = np.zeros(len(starts) - 1, dtype=np.uint64)
    rows = np.flatnonzero(starts[:-1] < starts[1:])
    if len(rows):
        st, size = starts[rows], np.diff(starts)[rows].astype(np.uint64)
        acc = np.zeros(len(rows), dtype=np.uint64)
        for k in range(64):
            bit = np.uint64(k)
            ones = np.add.reduceat((hashes >> bit) & np.uint64(1), st)
            acc |= (ones * np.uint64(2) > size).astype(np.uint64) << bit
        out[rows] = acc
    return out.view(np.int64)


def simhash64_batch(
    texts: list[str | None], *, shingle_w: int = 4, seed: int = 11
) -> list[int | None]:
    """Vectorized simhash for a batch: one hash pass over all shingles, then
    one segmented bit-majority over the row runs."""
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    all_sh: list[str] = []
    for i, s in enumerate(texts):
        if s is not None:
            all_sh.extend(char_shingles(s, shingle_w))
        offsets[i + 1] = len(all_sh)
    base = hash64(all_sh, seed=seed) if all_sh else np.empty(0, dtype=np.uint64)
    sig = _bit_majority_rows(base, offsets).tolist()
    return [None if s is None else v for s, v in zip(texts, sig)]


def simhash64_charhash_batch(
    texts: list[str | None], *, shingle_w: int = 6, seed: int = 7
) -> list[int | None]:
    """Simhash over ROLLING-HASH char shingles (:func:`charshingle_hashes_batch`,
    the minhash charhash family) instead of the siphash fold of
    :func:`simhash64_batch`. Same bit-majority construction; the payoff is
    that the whole text -> signature computation is pure 64-bit polynomial
    + splitmix arithmetic, so an engine-independent SQL oracle can
    reproduce it bit-exactly (see driver_queries.q_simhash_charhash) —
    the siphash family has no SQL expression. None for null text, 0 for
    empty text; duplicate shingles are NOT deduplicated (rolling hashes
    skip the per-row set() — document-frequency weighting, equally valid
    simhash semantics, matched by the oracle)."""
    sig = np.zeros(len(texts), dtype=np.int64)
    for lo, hi, h, starts in _charshingle_chunks(texts, shingle_w, seed):
        sig[lo:hi] = _bit_majority_rows(h, starts)
    return [None if s is None else v for s, v in zip(texts, sig.tolist())]


def simhash64(s: str | None, *, shingle_w: int = 4, seed: int = 11) -> int | None:
    return simhash64_batch([s], shingle_w=shingle_w, seed=seed)[0]


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def simhash_pairs(
    ds: ray.data.Dataset,
    column: str | None,
    *,
    max_hamming: int = 3,
    shingle_w: int = 4,
    seed: int = 11,
    max_pairs: int | None = None,
    signature_column: str | None = None,
) -> Linkage:
    """Candidates via 4x16-bit simhash bands (any equal band blocks the pair
    — catches all pairs within hamming distance 3 of each other by
    pigeonhole), verified by exact hamming distance.

    ``signature_column`` feeds PRECOMPUTED int64 fingerprints straight into
    the banding (the text kernel is skipped; ``column`` may be None) — for
    corpora whose simhashes were computed upstream, and for SQL-oracle
    verification of the banding+hamming machinery with signatures both
    engines can derive (null signatures pair with nothing).
    """

    def add_simhash(t: pa.Table) -> pa.Table:
        if signature_column is not None:
            sig = t[signature_column].combine_chunks()
            if pa.types.is_unsigned_integer(sig.type):
                # uint64 fingerprints (~half have the top bit set): BIT-
                # REINTERPRET instead of a checked cast, which would raise
                # on values >= 2**63; banding/hamming only need the bits
                sig = sig.cast(pa.uint64()).view(pa.int64())
            else:
                sig = sig.cast(pa.int64())
            return pa.table(
                {
                    "record_id": t["record_id"],
                    "__simhash__": sig,
                }
            )
        hs = simhash64_batch(
            t[column].to_pylist(), shingle_w=shingle_w, seed=seed
        )
        return pa.table(
            {
                "record_id": t["record_id"],
                "__simhash__": pa.array(hs, type=pa.int64()),
            }
        )

    # compute each record's simhash ONCE; candidates carry it through the
    # join. Only the 16 B/row (id, simhash) sketch is pinned — never the
    # text corpus (at beyond-memory scale checkpoint it to parquet instead).
    hashed = ds.map_batches(add_simhash, batch_format="pyarrow").materialize()

    def band_keys(batch: pa.Table) -> pa.Array:
        out = []
        for h in batch["__simhash__"].to_pylist():
            if h is None:
                out.append(None)
                continue
            hu = h & 0xFFFFFFFFFFFFFFFF
            out.append(
                [((hu >> (16 * b)) & 0xFFFF) | (b << 16) for b in range(4)]
            )
        return pa.array(out, type=pa.list_(pa.int64()))

    band_keys.__name__ = "simhash_bands"
    linkage = UnnestLinker(band_keys, max_pairs=max_pairs)(hashed, hashed)
    pairs = linkage.links.with_both(["__simhash__"], ["__simhash__"])

    def verify(t: pa.Table) -> pa.Table:
        ha = np.asarray(t["__simhash___l"], dtype=np.int64).astype(np.uint64)
        hb = np.asarray(t["__simhash___r"], dtype=np.int64).astype(np.uint64)
        x = ha ^ hb
        dist = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            dist += (x & np.uint64(1)).astype(np.int64)
            x = x >> np.uint64(1)
        return t.filter(pa.array(dist <= max_hamming)).select(
            ["record_id_l", "record_id_r"]
        )

    verified = pairs.map_batches(verify, batch_format="pyarrow")
    return Linkage(left=ds, right=ds, links=verified)


# ------------------------------------------------------------ ngram jaccard
def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    column: str,
    *,
    n: int = 3,
    min_jaccard: float = 0.5,
    max_pairs: int | None = 100_000,
    rare_only_df: int | None = None,
) -> Linkage:
    """Character-ngram inverted-index blocking (hot grams dropped via
    max_pairs, exactly the address-notebook trigram pattern, SURVEY §3.2)
    + exact ngram-jaccard verification."""
    from mismo_ray.text import ngrams as ngrams_fn

    def gram_key(batch: pa.Table) -> pa.Array:
        out = [
            None if v is None else list(set(ngrams_fn(v, n) or []))
            for v in batch[column].to_pylist()
        ]
        return pa.array(out, type=pa.list_(pa.string()))

    gram_key.__name__ = f"ngrams{n}"
    linkage = UnnestLinker(gram_key, max_pairs=max_pairs)(ds, ds)
    pairs = linkage.links.with_both([column], [column])

    def verify(t: pa.Table) -> pa.Table:
        # memoized uint64 ngram-hash sets + C-speed intersections (equals
        # string-set jaccard whp; see hash_set_jaccard_batch)
        jacc = hash_set_jaccard_batch(
            t[f"{column}_l"].to_pylist(),
            t[f"{column}_r"].to_pylist(),
            # ngrams() of a string shorter than n is EMPTY (charshingle_hashes
            # would hash the whole short string instead) — keep that semantic
            lambda s: (
                charshingle_hashes(s, n)
                if len(s) >= n
                else np.empty(0, dtype=np.uint64)
            ),
        )
        return t.filter(pa.array(jacc >= min_jaccard)).select(
            ["record_id_l", "record_id_r"]
        )

    verified = pairs.map_batches(verify, batch_format="pyarrow")
    return Linkage(left=ds, right=ds, links=verified)


# ------------------------------------------------------------- embeddings
def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    *,
    tau: float = 0.95,
    id_column: str = "record_id",
    vector_column: str = "embedding",
    method: str = "auto",
    auto_exact_max_rows: int = 100_000,
    **kwargs,
) -> Linkage:
    """Near-dup pairs by embedding cosine.

    method="exact": distributed chunk-pair block join, recall 1, O(n^2) work
    spread over bounded-memory tasks. method="lsh": banded hyperplane LSH
    candidates + exact verify — near-linear, recall < 1; the 100 TB path.
    method="auto" (default): "exact" up to ``auto_exact_max_rows`` rows,
    "lsh" beyond — so a caller who never reads this docstring cannot launch
    a quadratic shuffle on a corpus-scale table. Pass method="exact"
    explicitly for oracle/baseline runs at any size.
    """
    from mismo_ray.ann import cosine_threshold_pairs, lsh_threshold_pairs

    if method == "auto":
        method = "exact" if ds.count() <= auto_exact_max_rows else "lsh"
    if method == "exact":
        links = cosine_threshold_pairs(
            ds, tau=tau, id_column=id_column, vector_column=vector_column, **kwargs
        )
    elif method == "lsh":
        links = lsh_threshold_pairs(
            ds, tau=tau, id_column=id_column, vector_column=vector_column, **kwargs
        )
    else:
        raise ValueError("method must be 'auto', 'exact' or 'lsh'")
    return Linkage(left=ds, right=ds, links=links)


# ------------------------------------------------------ corpus-level dedupe
def fuzzy_dedupe(
    ds: ray.data.Dataset,
    column: str,
    *,
    links: ray.data.Dataset | None = None,
    n: int = 3,
    min_jaccard: float = 0.8,
    max_pairs: int | None = 100_000,
    label_as: str = "component",
    with_counts: bool = False,
    keep: str | tuple[str, str] = "min_id",
) -> ray.data.Dataset:
    """Corpus-level fuzzy dedupe: near-dup pairs -> connected components ->
    ONE canonical survivor per duplicate cluster (singletons survive
    unchanged). Returns the surviving rows of ``ds`` with the cluster label
    attached (``label_as``), plus ``n_members`` when ``with_counts``.

    ``keep`` picks the survivor: ``"min_id"`` (default) keeps the
    min-record_id member; ``("max", col)`` / ``("min", col)`` keep the
    member with the best value of a quality column (longest text, lowest
    LM perplexity, highest pagerank — ties broken by min record_id), the
    curation-grade choice when duplicates differ in quality.

    ``links``: pre-computed near-dup pairs (record_id_l / record_id_r) from
    any pair generator — ``minhash_lsh_pairs`` (the 100 TB path),
    ``simhash_pairs``, ``embedding_neardup_pairs`` — else defaults to exact
    ``ngram_jaccard_pairs`` over ``column``.

    Cost: the pair-gen's shuffles + CC rounds + one stateless filter.
    ``min_id`` survivor selection is FREE for integer record ids: component
    labels ARE min member ids, so the survivor is the row whose record_id
    equals its label (no extra shuffle; the reference picks survivors with a
    separate groupby, mismo/cluster semantics). Non-integer ids get
    factorized labels, so survivors cost one groupby-min + one semi-join.
    ``keep=(how, col)`` costs one bucketed top-1-per-label shuffle over the
    projected (id, label, col) triple — the full rows never re-shuffle —
    plus one semi-join back.
    """
    from mismo_ray.cluster import connected_components

    if links is None:
        links = ngram_jaccard_pairs(
            ds, column, n=n, min_jaccard=min_jaccard, max_pairs=max_pairs
        ).links_ds
    labeled = connected_components(links=links, records=ds, label_as=label_as)
    _s = ds.schema(fetch_if_missing=True)
    if _s is None:
        return labeled  # empty corpus: nothing to keep/drop
    id_type = dict(zip(_s.names, _s.types))["record_id"]
    if keep != "min_id":
        if (
            not isinstance(keep, tuple)
            or len(keep) != 2
            or keep[0] not in ("max", "min")
        ):
            raise ValueError(
                f"keep must be 'min_id', ('max', col) or ('min', col); got {keep!r}"
            )
        how, qcol = keep
        from mismo_ray._joins import hash_join
        from mismo_ray.util_ops import top_k_per_group

        best = top_k_per_group(
            labeled.select_columns(["record_id", label_as, qcol]),
            label_as,
            [(qcol, "desc" if how == "max" else "asc"), ("record_id", "asc")],
            1,
        )
        survivors = hash_join(
            labeled,
            best.select_columns(["record_id"]),
            on=["record_id"],
            how="left_semi",
        )
    elif pa.types.is_integer(id_type):
        survivors = labeled.map_batches(
            lambda t: t.filter(pc.equal(t["record_id"], t[label_as])),
            batch_format="pyarrow",
        )
    else:
        from mismo_ray._joins import hash_join

        owners = (
            labeled.select_columns(["record_id", label_as])
            .groupby(label_as)
            .min("record_id")
        )
        survivors = hash_join(
            labeled,
            owners.map_batches(
                lambda t: pa.table(
                    {label_as: t[label_as], "record_id": t["min(record_id)"]}
                ),
                batch_format="pyarrow",
            ),
            on=["record_id", label_as],
        )
    if with_counts:
        from mismo_ray._joins import hash_join

        counts = labeled.groupby(label_as).count().map_batches(
            lambda t: pa.table(
                {label_as: t[label_as], "n_members": t["count()"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        survivors = hash_join(survivors, counts, on=[label_as])
    return survivors


def dedupe_report(
    ds: ray.data.Dataset,
    column: str,
    *,
    links: ray.data.Dataset | None = None,
    n: int = 3,
    min_jaccard: float = 0.8,
    max_pairs: int | None = 100_000,
) -> ray.data.Dataset:
    """Duplicate-cluster size distribution + dedupe savings — the curation
    report behind a "dedupe removed X% of the corpus" number.

    Output: one row per cluster size >= 2 with ``(cluster_size,
    n_clusters, n_dup_docs, dup_chars)`` — ``n_dup_docs`` = docs that a
    min-id dedupe would REMOVE (size-1 per cluster), ``dup_chars`` = their
    total ``column`` length (the bytes dedupe saves). Singletons are not
    reported (they cost nothing).

    Same pair source contract as :func:`fuzzy_dedupe` (``links=`` or exact
    ngram-jaccard default). Cost: the pair-gen + CC, then one labels-only
    groupby (label, size, chars) and one tiny groupby over sizes — the
    corpus text never re-shuffles; only (id, label, len) rows move.
    """
    from ray.data.aggregate import Count, Sum

    from mismo_ray.cluster import connected_components

    if links is None:
        links = ngram_jaccard_pairs(
            ds, column, n=n, min_jaccard=min_jaccard, max_pairs=max_pairs
        ).links_ds

    def project(t: pa.Table) -> pa.Table:
        txt = t[column].combine_chunks()
        return pa.table(
            {
                "record_id": t["record_id"],
                "__len__": pc.fill_null(
                    pc.utf8_length(txt).cast(pa.int64()), 0
                ),
            }
        )

    slim = ds.map_batches(project, batch_format="pyarrow")
    # consumed by both the size-count and the survivor branch; 24 B/row
    labeled = connected_components(
        links=links, records=slim, label_as="__comp__"
    ).materialize()

    counts = (
        labeled.groupby("__comp__")
        .aggregate(
            Count(alias_name="cluster_size"),
            Sum("__len__", alias_name="__chars__"),
        )
        # consumed twice (size>=2 filter branch + the final join)
        .materialize()
    )
    # chars of the SURVIVOR (the min-id member — what a min-id dedupe keeps)
    # so dup_chars = total - survivor; one bucketed top-1 over (comp, id,
    # len). Singletons (the overwhelming majority of a deduped corpus)
    # never reach the top-1 stage: members are semi-joined on the
    # size >= 2 components first.
    from mismo_ray._joins import hash_join as _hj
    from mismo_ray.util_ops import top_k_per_group

    multi = counts.filter(expr="cluster_size >= 2").select_columns(["__comp__"])
    members = _hj(
        labeled.select_columns(["record_id", "__comp__", "__len__"]),
        multi,
        on=["__comp__"],
        how="left_semi",
    )
    survivor = top_k_per_group(
        members,
        "__comp__",
        [("record_id", "asc")],
        1,
    )

    def surv_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {"__comp__": t["__comp__"], "__surv_chars__": t["__len__"]}
        )

    from mismo_ray._joins import hash_join

    joined = hash_join(
        counts,
        survivor.map_batches(surv_cols, batch_format="pyarrow"),
        on=["__comp__"],
    )

    def per_size(t: pa.Table) -> pa.Table:
        size = np.asarray(t["cluster_size"], dtype=np.int64)
        chars = np.asarray(t["__chars__"], dtype=np.int64)
        surv = np.asarray(t["__surv_chars__"], dtype=np.int64)
        keep = size >= 2
        return pa.table(
            {
                "cluster_size": pa.array(size[keep]),
                "n_clusters": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
                "n_dup_docs": pa.array(size[keep] - 1),
                "dup_chars": pa.array(chars[keep] - surv[keep]),
            }
        )

    return (
        joined.map_batches(per_size, batch_format="pyarrow")
        .groupby("cluster_size")
        .aggregate(
            Sum("n_clusters", alias_name="n_clusters"),
            Sum("n_dup_docs", alias_name="n_dup_docs"),
            Sum("dup_chars", alias_name="dup_chars"),
        )
    )



def subtract_exact(
    ds: ray.data.Dataset,
    ref: ray.data.Dataset,
    column: str = "text",
    *,
    normalize: Callable[[str], str] | None = None,
    invert: bool = False,
) -> ray.data.Dataset:
    """Cross-corpus exact subtraction: drop every row of ``ds`` whose
    ``column`` content (optionally normalized) appears ANYWHERE in ``ref``
    — the one-shot "remove the eval set from the training set byte-exactly"
    operation (the cross-RUN flavor lives in state.dedup_index).

    Both sides reduce to the same 128-bit content hash exact_dedupe uses
    (two independently-seeded siphash folds, hex-encoded into one key), so
    only ~40 B/row crosses the shuffle; the anti side is
    :func:`mismo_ray._joins.keyed_filter` (bucketed ``is_in``, no acero),
    so payload columns of any type survive. ``invert=True`` returns the
    INTERSECTION instead (rows of ``ds`` that do appear in ref — the audit
    view). Null content never matches anything.
    """
    from mismo_ray._joins import keyed_filter
    from mismo_ray._util import hash64_base, hash64_fold

    def add_key(t: pa.Table) -> pa.Table:
        import binascii

        vals = t[column].to_pylist()
        if normalize is not None:
            vals = [None if v is None else normalize(v) for v in vals]
        base = hash64_base(vals)
        n = len(base)
        combined = np.empty((n, 2), dtype=">u8")
        combined[:, 0] = hash64_fold(base, 0xE0)
        combined[:, 1] = hash64_fold(base, 0xE1)
        # one C hexlify over the whole batch, then a vectorized 32-char split
        key = np.frombuffer(binascii.hexlify(combined.tobytes()), dtype="S32")
        null_mask = np.array([v is None for v in vals], dtype=bool)
        return t.append_column(
            "__ch__",
            pa.array(key.astype("U32"), type=pa.string(), mask=null_mask),
        )

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    ref_keys = ref.map_batches(
        lambda t: add_key(t).select(["__ch__"]), batch_format="pyarrow"
    )
    out = keyed_filter(keyed, ref_keys, "__ch__", invert=not invert)
    return out.drop_columns(["__ch__"])


from mismo_ray.dedupe._decontam import (  # noqa: E402
    benchmark_grams,
    contamination_stats,
    drop_contaminated,
    drop_semantic_contaminated,
    semantic_contamination,
)
from mismo_ray.dedupe._lines import (  # noqa: E402
    drop_dup_lines,
    dup_line_stats,
)
from mismo_ray.dedupe._semdedup import semdedup  # noqa: E402
from mismo_ray.dedupe._substring import (  # noqa: E402
    strip_dup_spans,
    substring_dup_spans,
    substring_dup_stats,
)
