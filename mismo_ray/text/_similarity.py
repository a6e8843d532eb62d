"""String similarity kernels (reference: /root/reference/mismo/text/_similarity.py).

Pinned semantics (reference doctests):

- ``levenshtein_ratio`` = (lenmax - dist) / lenmax; ``("mile","mike")``->0.75;
  ``("mile","")``->0.0; ``("","")``->nan  (_similarity.py:50-88).
- ``jaro_similarity("foo","food")``->0.9166666666666666; empty-vs-anything->0.0
  (including empty-vs-empty); null -> null/nan (_similarity.py:112-142).
- ``jaro_winkler_similarity("foo","food")``->0.9416666666666667 (prefix scale
  p=0.1, prefix length capped at 4, no boost threshold) (_similarity.py:144-181).
- ``damerau_levenshtein``: optimal-string-alignment variant (adjacent
  transposition counts as one edit), matching the DuckDB builtin the reference
  delegates to (_similarity.py:40-47).

Scalar functions take ``str | None``; the ``*_array`` forms are vectorized
across a batch of pairs for use inside ``map_batches``. ``levenshtein_array``
and ``jaro(_winkler)_similarity_array`` factorize both sides into one
dictionary (``factorize_pair_sides``): identical values are answered from
their codes, and lengths and codepoint rows are built once per distinct value
(a hot key pairs a few thousand values into ~10^5 pairs) and gathered per
pair, so the per-string encode no longer runs per pair. The kernel itself
(numpy across the pair axis) runs once per non-identical pair. Results are
bit-identical to the scalar functions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mismo_ray._util import factorize_pair_sides


# ---------------------------------------------------------------- scalar fns
def levenshtein(a: str | None, b: str | None) -> int | None:
    if a is None or b is None:
        return None
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    cur = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur[0] = i
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev, cur = cur, prev
    return prev[lb]


def damerau_levenshtein(a: str | None, b: str | None) -> int | None:
    """Unrestricted Damerau-Levenshtein distance (matches the DuckDB builtin
    the reference delegates to: transposed substrings can be edited further)."""
    if a is None or b is None:
        return None
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    maxdist = la + lb
    da: dict[str, int] = {}
    # classic DL with the "da" last-occurrence table; 1-indexed DP with a
    # sentinel row/col of maxdist.
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            k = da.get(b[j - 1], 0)
            ell = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[k][ell] + (i - k - 1) + 1 + (j - ell - 1),
            )
        da[a[i - 1]] = i
    return d[la + 1][lb + 1]


def _ratio(a, b, dist_fn) -> float | None:
    if a is None or b is None:
        return None
    lenmax = max(len(a), len(b))
    if lenmax == 0:
        return float("nan")
    return (lenmax - dist_fn(a, b)) / lenmax


def levenshtein_ratio(a: str | None, b: str | None) -> float | None:
    return _ratio(a, b, levenshtein)


def damerau_levenshtein_ratio(a: str | None, b: str | None) -> float | None:
    return _ratio(a, b, damerau_levenshtein)


def jaro_similarity(a: str | None, b: str | None) -> float | None:
    if a is None or b is None:
        return None
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    if a == b:
        return 1.0
    match_dist = max(la, lb) // 2 - 1
    if match_dist < 0:
        match_dist = 0
    b_matched = [False] * lb
    a_matched = [False] * la
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - match_dist)
        hi = min(lb, i + match_dist + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # transpositions
    t = 0
    j = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                t += 1
            j += 1
    t //= 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler_similarity(
    a: str | None, b: str | None, prefix_weight: float = 0.1
) -> float | None:
    sj = jaro_similarity(a, b)
    if sj is None:
        return None
    if sj == 0.0 or sj == 1.0:
        return sj
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= 4:
            break
        prefix += 1
    return sj + prefix * prefix_weight * (1.0 - sj)


# ------------------------------------------------------------- batched forms
def _to_pylist(x):
    if isinstance(x, (pa.Array, pa.ChunkedArray)):
        return x.to_pylist()
    return list(x)


def _pair_codes(a, b, mask=None):
    """Factorize both sides once: ``(valid, cl, cr, values)``, where
    ``valid`` marks the pairs with both sides non-null (and ``mask`` true)
    and ``(cl, cr)`` are those pairs' codes into ``values``."""
    codes_l, codes_r, values = factorize_pair_sides(a, b)
    valid = (codes_l >= 0) & (codes_r >= 0)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    return valid, codes_l[valid], codes_r[valid], values


def _value_strings(values: pa.Array, cl, cr):
    """The values the pairs ``(cl, cr)`` name, once each: python strings,
    codepoint lengths, and each side's row into them."""
    used = np.zeros(len(values), dtype=bool)
    used[cl] = used[cr] = True
    row = np.cumsum(used) - 1
    strs = values.take(pa.array(np.flatnonzero(used))).to_pylist()
    lens = np.fromiter(map(len, strs), dtype=np.int32, count=len(strs))
    return strs, lens, row[cl], row[cr]


def _codepoint_matrix(strs, lens) -> np.ndarray:
    """Zero-padded ``(len(strs), max(lens))`` uint32 codepoint rows, from
    one utf-32 encode of all the strings."""
    flat = np.frombuffer("".join(strs).encode("utf-32-le"), dtype=np.uint32)
    M = np.zeros((len(strs), int(lens.max(initial=0))), dtype=np.uint32)
    col = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    M[np.repeat(np.arange(len(strs)), lens), col] = flat
    return M


def levenshtein_array(a, b) -> pa.Array:
    """Vectorized Levenshtein over two equal-length sequences of pairs.

    Runs the DP with numpy ops across the non-identical pairs:
    O(maxlen_a * maxlen_b) python iterations, each a vector op.
    Falls back to per-pair python for very long strings.
    """
    valid, cl, cr, values = _pair_codes(a, b)
    dist = np.zeros(len(cl), dtype=np.int64)  # identical values: 0
    rest = np.flatnonzero(cl != cr)
    if len(rest):
        strs, lens, il, ir = _value_strings(values, cl[rest], cr[rest])
        la, lb = lens[il], lens[ir]
        ma, mb = int(la.max()), int(lb.max())
        if ma * mb > 16384:
            dist[rest] = [
                levenshtein(strs[x], strs[y]) for x, y in zip(il.tolist(), ir.tolist())
            ]
        else:
            M = _codepoint_matrix(strs, lens)
            dist[rest] = _levenshtein_gather(M[il, :ma], M[ir, :mb], la, lb)
    out = np.zeros(len(valid), dtype=np.int64)
    out[valid] = dist
    return pa.array(out, mask=~valid)


def _levenshtein_gather(A, B, la, lb) -> np.ndarray:
    """DP across pair axis, snapshotting each pair's answer at its own (la, lb)."""
    m, ma = A.shape
    mb = B.shape[1]
    prev = np.tile(np.arange(mb + 1, dtype=np.int32), (m, 1))
    result = np.where(la == 0, lb, 0).astype(np.int32)
    done0 = la == 0
    cur = np.empty_like(prev)
    for i in range(1, ma + 1):
        cur[:, 0] = i
        ca = A[:, i - 1][:, None]
        cost = (ca != B).astype(np.int32)
        for j in range(1, mb + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost[:, j - 1],
            )
        finish = la == i
        if finish.any():
            result[finish] = cur[finish, lb[finish]]
        prev, cur = cur, prev
    result[done0] = lb[done0]
    return result


def _pairwise_pyfunc_array(fn, a, b, out_type=pa.float64()) -> pa.Array:
    al, bl = _to_pylist(a), _to_pylist(b)
    return pa.array([fn(x, y) for x, y in zip(al, bl)], type=out_type)


def _jaro_gather(A, B, la, lb) -> np.ndarray:
    """Jaro similarity vectorized across the pair axis.

    A/B are (m, maxlen) uint32 codepoint matrices (zero-padded); the greedy
    character-matching pass runs one python iteration per left-string
    position, each a vector op over all m pairs.
    """
    m, ma = A.shape
    mb = B.shape[1]
    d = np.maximum(np.maximum(la, lb) // 2 - 1, 0).astype(np.int32)[:, None]
    jgrid = np.arange(mb, dtype=np.int32)
    b_used = np.zeros((m, mb), dtype=bool)
    a_matched = np.zeros((m, ma), dtype=bool)
    alive = (la > 0) & (lb > 0)
    # sentinel trick: padding and already-used positions are marked with a
    # codepoint that can never equal a real char, folding the availability
    # check into the equality test (one pass instead of three). Narrow the
    # dtype when codepoints allow — halves memory bandwidth in the hot loop.
    mx = int(max(A.max(initial=0), B.max(initial=0)))
    if mx < 0xFFFF:
        dt, SENT = np.uint16, np.uint16(0xFFFF)
        A, B = A.astype(np.uint16), B.astype(np.uint16)
    else:
        dt, SENT = np.uint32, np.uint32(0xFFFFFFFF)
    Bw = np.where(jgrid < lb[:, None], B, SENT).astype(dt)
    rows = np.arange(m)
    cand = np.empty((m, mb), dtype=bool)
    win = np.empty((m, mb), dtype=bool)
    for i in range(ma):
        act = alive & (i < la)
        if not act.any():
            break
        np.equal(Bw, A[:, i][:, None], out=cand)
        np.less_equal(np.abs(jgrid - i), d, out=win)
        np.logical_and(cand, win, out=cand)
        j = cand.argmax(axis=1)  # first unmatched j in window (greedy)
        has = cand[rows, j] & act
        j = j[has]
        a_matched[has, i] = True
        b_used[has, j] = True
        Bw[has, j] = SENT
    matches = a_matched.sum(axis=1)
    # transpositions: compare matched chars in a-order vs b-order via a
    # rank-scatter (unmatched positions land on a scratch column; ranks >=
    # matches are masked out of the comparison below)
    def _compact(M, C, width):
        rank = np.cumsum(M, axis=1, dtype=np.int32) - 1
        out = np.zeros((m, width + 1), dtype=C.dtype)
        np.put_along_axis(out, np.where(M, rank, width), C, axis=1)
        return out
    SA = _compact(a_matched, A, ma)
    SB = _compact(b_used, B, mb)
    w = min(ma, mb)
    rgrid = np.arange(w)
    diff = (SA[:, :w] != SB[:, :w]) & (rgrid < matches[:, None])
    t = diff.sum(axis=1) // 2
    mt = matches.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        sj = (mt / la + mt / lb + (mt - t) / mt) / 3.0
    sj = np.where((matches == 0) | (la == 0) | (lb == 0), 0.0, sj)
    return sj


def _jaro_batched(a, b, prefix_weight: float | None, mask=None) -> pa.Array:
    """Shared driver for jaro / jaro-winkler batch kernels.

    ``prefix_weight=None`` -> plain jaro. ``mask``: optional bool ndarray;
    pairs where mask is False are skipped (returned as null) — used to gate
    the expensive kernel on a cheap predicate (e.g. same-page) for free.
    """
    valid, cl, cr, values = _pair_codes(a, b, mask)
    # identical values (common for near-dup pairs) are jaro 1 by
    # construction, except '' (an empty side scores 0)
    same = cl == cr
    empty = pc.equal(values, "").to_numpy(zero_copy_only=False)
    sim = (same & ~empty[cl]).astype(np.float64)
    rest = np.flatnonzero(~same)
    if len(rest):
        sim[rest] = _jaro_pairs(values, cl[rest], cr[rest], prefix_weight)
    out = np.zeros(len(valid), dtype=np.float64)
    out[valid] = sim
    return pa.array(out, mask=~valid)


def _jaro_pairs(values: pa.Array, cl, cr, prefix_weight) -> np.ndarray:
    """Jaro(-Winkler) of the value pairs ``(cl, cr)``, cl != cr."""
    strs, lens, il, ir = _value_strings(values, cl, cr)
    if lens.max() > 512:
        # very long strings: per-pair scalar beats the padded matrix
        fn = (
            jaro_similarity
            if prefix_weight is None
            else lambda x, y: jaro_winkler_similarity(x, y, prefix_weight)
        )
        return np.array(
            [fn(strs[x], strs[y]) for x, y in zip(il.tolist(), ir.tolist())],
            dtype=np.float64,
        )
    M = _codepoint_matrix(strs, lens)
    la, lb = lens[il], lens[ir]
    A, B = M[il, : la.max()], M[ir, : lb.max()]
    sj = _jaro_gather(A, B, la, lb)
    if prefix_weight is not None:
        # winkler prefix boost (a no-op where sj is 0 or 1)
        w = min(4, A.shape[1], B.shape[1])
        if w:
            k = np.arange(w)
            eq = (A[:, :w] == B[:, :w]) & (k < la[:, None]) & (k < lb[:, None])
            prefix = np.cumprod(eq, axis=1).sum(axis=1)
            sj = sj + prefix * prefix_weight * (1.0 - sj)
    return sj


def jaro_similarity_array(a, b, *, mask=None) -> pa.Array:
    return _jaro_batched(a, b, None, mask=mask)


def jaro_winkler_similarity_array(
    a, b, *, prefix_weight: float = 0.1, mask=None
) -> pa.Array:
    return _jaro_batched(a, b, prefix_weight, mask=mask)


def damerau_levenshtein_array(a, b) -> pa.Array:
    return _pairwise_pyfunc_array(damerau_levenshtein, a, b, out_type=pa.int64())


def levenshtein_ratio_array(a, b) -> pa.Array:
    al, bl = _to_pylist(a), _to_pylist(b)
    dist = levenshtein_array(al, bl).to_pylist()
    out = []
    for x, y, d in zip(al, bl, dist):
        if x is None or y is None:
            out.append(None)
        else:
            lenmax = max(len(x), len(y))
            out.append(float("nan") if lenmax == 0 else (lenmax - d) / lenmax)
    return pa.array(out, type=pa.float64())


def double_metaphone(s: str | None) -> list[str] | None:
    """Double Metaphone phonetic encoding (reference _similarity.py:9-36
    doctest shapes: catherine -> ['K0RN', 'KTRN'], '' -> ['', ''], None ->
    None). Bundled pure-python implementation of Philips' algorithm
    (text/_metaphone.py) — no optional native package needed."""
    from mismo_ray.text._metaphone import double_metaphone_py

    return double_metaphone_py(s)
