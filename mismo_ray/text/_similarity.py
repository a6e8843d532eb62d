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
across a batch of pairs (numpy DP across the pair axis for Levenshtein) for use
inside ``map_batches``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


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


def levenshtein_array(a, b) -> pa.Array:
    """Vectorized-across-pairs Levenshtein over two equal-length sequences.

    Runs the DP with numpy ops across the pair axis: O(maxlen_a * maxlen_b)
    python iterations, each a vector op over all pairs in the batch.
    Falls back to per-pair python for batches with very long strings.
    """
    al, bl = _to_pylist(a), _to_pylist(b)
    n = len(al)
    out = np.zeros(n, dtype=np.float64)
    valid = np.array([x is not None and y is not None for x, y in zip(al, bl)])
    idx = np.nonzero(valid)[0]
    if len(idx) == 0:
        return pa.array([None] * n, type=pa.int64())
    sa = [al[i] for i in idx]
    sb = [bl[i] for i in idx]
    la = np.array([len(s) for s in sa], dtype=np.int32)
    lb = np.array([len(s) for s in sb], dtype=np.int32)
    ma, mb = int(la.max(initial=0)), int(lb.max(initial=0))
    if ma == 0 or mb == 0 or ma * mb > 16384:
        dist = np.array([levenshtein(x, y) for x, y in zip(sa, sb)], dtype=np.float64)
    else:
        m = len(sa)
        A = np.zeros((m, ma), dtype=np.uint32)
        B = np.zeros((m, mb), dtype=np.uint32)
        for k, s in enumerate(sa):
            A[k, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        for k, s in enumerate(sb):
            B[k, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        dist = _levenshtein_gather(A, B, la, lb)
    out_arr = np.full(n, np.nan)
    out_arr[idx] = dist
    return pa.array(
        [None if not valid[i] else int(out_arr[i]) for i in range(n)], type=pa.int64()
    )


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
    return result.astype(np.float64)


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


def _codepoint_matrix(strs, lens):
    M = np.zeros((len(strs), int(lens.max(initial=0))), dtype=np.uint32)
    for k, s in enumerate(strs):
        if s:
            M[k, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    return M


def _jaro_batched(a, b, prefix_weight: float | None, mask=None) -> pa.Array:
    """Shared driver for jaro / jaro-winkler batch kernels.

    ``prefix_weight=None`` -> plain jaro. ``mask``: optional bool ndarray;
    pairs where mask is False are skipped (returned as null) — used to gate
    the expensive kernel on a cheap predicate (e.g. same-page) for free.
    """
    a, b = (
        x if isinstance(x, (pa.Array, pa.ChunkedArray)) else pa.array(list(x))
        for x in (a, b)
    )
    n = len(a)
    valid = pc.and_(pc.is_valid(a), pc.is_valid(b)).to_numpy(zero_copy_only=False)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    idx = np.nonzero(valid)[0]
    out = np.full(n, np.nan)
    if len(idx):
        keep = pa.array(valid)
        sa = a.filter(keep).to_pylist()
        sb = b.filter(keep).to_pylist()
        la = np.array([len(s) for s in sa], dtype=np.int32)
        lb = np.array([len(s) for s in sb], dtype=np.int32)
        if max(la.max(initial=0), lb.max(initial=0)) > 512:
            # very long strings: per-pair scalar beats the padded matrix
            fn = (
                jaro_similarity
                if prefix_weight is None
                else lambda x, y: jaro_winkler_similarity(x, y, prefix_weight)
            )
            out[idx] = [fn(x, y) for x, y in zip(sa, sb)]
        else:
            # fast path: identical strings (common for near-dup pairs) are
            # jaro==1 by construction; run the greedy matcher on the rest only
            same = np.fromiter(
                (x == y for x, y in zip(sa, sb)), dtype=bool, count=len(sa)
            )
            sj = np.where(same & (la > 0), 1.0, 0.0)
            rest = np.nonzero(~same)[0]
            if len(rest):
                ra = [sa[i] for i in rest]
                rb = [sb[i] for i in rest]
                rla, rlb = la[rest], lb[rest]
                A = _codepoint_matrix(ra, rla)
                B = _codepoint_matrix(rb, rlb)
                sjr = _jaro_gather(A, B, rla, rlb)
                if prefix_weight is not None:
                    # winkler prefix boost (identical strings are sj==1 so
                    # the boost is a no-op there — rest rows only)
                    w = min(4, A.shape[1], B.shape[1])
                    if w:
                        k = np.arange(w)
                        eq = (
                            (A[:, :w] == B[:, :w])
                            & (k < rla[:, None])
                            & (k < rlb[:, None])
                        )
                        prefix = np.cumprod(eq, axis=1).sum(axis=1)
                        sjr = sjr + prefix * prefix_weight * (1.0 - sjr)
                sj[rest] = sjr
            out[idx] = sj
    return pa.array(out, type=pa.float64(), mask=~valid)


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
