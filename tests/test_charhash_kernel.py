"""The batched charhash sketch kernel (``dedupe.charshingle_hashes_batch``,
prefix sums over the whole batch, walked in codepoint-bounded chunks) and
the minhash / simhash built on it, against a per-row reference kept here:
the direct sliding-window polynomial over one text at a time."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismo_ray import dedupe
from mismo_ray._util import splitmix64


def _ref_hashes(s: str, w: int, seed: int) -> np.ndarray:
    """One row's shingle hashes: every w-codepoint window (the whole text
    when it is at most w long) as a base-B polynomial, splitmix-finalized."""
    codes = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n = len(codes)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if n <= w:
        win = codes[None, :]
        w = n
    else:
        win = np.lib.stride_tricks.sliding_window_view(codes, w)
    B = np.uint64(1099511628211)
    powers = np.empty(w, dtype=np.uint64)
    p = np.uint64(1)
    with np.errstate(over="ignore"):
        for i in range(w - 1, -1, -1):
            powers[i] = p
            p = p * B
        h = (win * powers[None, :]).sum(axis=1, dtype=np.uint64)
        return splitmix64(h ^ np.uint64(seed))


def _ref_minhash(texts, num_hashes: int, w: int, seed: int):
    sig = np.full((len(texts), num_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    valid = np.zeros(len(texts), dtype=bool)
    with np.errstate(over="ignore"):
        a = splitmix64(np.arange(1, num_hashes + 1, dtype=np.uint64) * np.uint64(seed * 2 + 1))
        b = splitmix64(a ^ np.uint64(0xABCDEF))
        for i, s in enumerate(texts):
            base = np.empty(0, dtype=np.uint64) if s is None else _ref_hashes(s, w, seed)
            if len(base):
                valid[i] = True
                sig[i] = (base[:, None] * a[None, :] + b[None, :]).min(axis=0)
    return sig, valid


def _ref_simhash(s, w: int, seed: int):
    if s is None:
        return None
    hashes = _ref_hashes(s, w, seed)
    ones = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).sum(axis=0)
    # bit k set iff strictly more hashes have it set than clear
    sig = sum(1 << k for k in range(64) if 2 * int(ones[k]) > len(hashes))
    return sig - (1 << 64) if sig >= (1 << 63) else sig


# '' and astral codepoints (the top of the uint32 range) in the pool
_CHARS = "abé \U0001f600\U0010ffff"


@st.composite
def _batches(draw):
    w = draw(st.integers(1, 8))
    # lengths w-1 / w / w+1 (the whole-text window and its edges) or any
    length = st.one_of(st.sampled_from([0, max(w - 1, 0), w, w + 1]), st.integers(0, 60))
    n = draw(st.integers(0, 30))
    texts = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            texts.append(None)
        else:
            k = draw(length)
            texts.append(draw(st.text(_CHARS, min_size=k, max_size=k)))
    # small chunk budgets put chunk boundaries between most rows; a short
    # power table sends chunks past it down the computed-powers path
    chunk = draw(st.sampled_from([None, 1, 7, 50]))
    table = draw(st.sampled_from([None, 5, 40]))
    return texts, w, draw(st.sampled_from([7, 11])), chunk, table


# one batch larger than the default chunk budget (rows straddle it) and one
# row longer than the power table
_BIG = (["ab\U0001f600 " * 500 + str(i) for i in range(40)], 24, 7, None, None)
_LONG = (["x", "ab\U0010ffff" * 30_000, None, ""], 5, 7, None, None)


@settings(max_examples=150, deadline=None)
@given(batch=_batches())
@example(batch=_BIG)
@example(batch=_LONG)
@example(batch=([], 24, 7, None, None))
def test_charhash_kernels_match_per_row_reference(batch):
    texts, w, seed, chunk, table = batch
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(dedupe, "_CHUNK_CODEPOINTS", chunk)
        if table is not None:
            short = tuple(t[:table] for t in dedupe._power_tables())
            mp.setattr(dedupe, "_power_tables", lambda: short)
        hashes, starts = dedupe.charshingle_hashes_batch(texts, w, seed=seed)
        sig, valid = dedupe.minhash_signatures_charhash_batch(
            texts, num_hashes=16, shingle_w=w, seed=seed
        )
        simhash = dedupe.simhash64_charhash_batch(texts, shingle_w=w, seed=seed)
        one = [dedupe.charshingle_hashes(s, w, seed=seed) for s in texts if s is not None]

    ref = [_ref_hashes(s or "", w, seed) for s in texts]
    assert hashes.dtype == np.uint64
    assert starts.tolist() == np.cumsum([0] + [len(r) for r in ref]).tolist()
    assert hashes.tolist() == np.concatenate(ref or [np.empty(0, np.uint64)]).tolist()
    assert [h.tolist() for h in one] == [r.tolist() for s, r in zip(texts, ref) if s is not None]
    want_sig, want_valid = _ref_minhash(texts, 16, w, seed)
    assert valid.tolist() == want_valid.tolist()
    assert sig.tolist() == want_sig.tolist()
    assert simhash == [_ref_simhash(s, w, seed) for s in texts]
