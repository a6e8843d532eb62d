"""Scalar text functions vs the reference's doctest conformance corpus
(/root/reference/mismo/text/: _strings.py, _features.py, _similarity.py)."""

from __future__ import annotations

import math

import duckdb
import pyarrow as pa
import pytest
import ray.data
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismo_ray import text


def test_norm_whitespace():
    assert text.norm_whitespace("  a   b\t c ") == "a b c"
    assert text.norm_whitespace(None) is None
    arr = text.norm_whitespace(pa.array(["  x  y ", None, ""]))
    assert arr.to_pylist() == ["x y", None, ""]


def test_strip_accents():
    # doctest corpus from _strings.py:30-43
    assert text.strip_accents("müller") == "muller"
    assert text.strip_accents("François") == "Francois"
    assert text.strip_accents("Øslo") == "Øslo"
    assert text.strip_accents("æ") == "æ"
    assert text.strip_accents(None) is None
    arr = text.strip_accents(pa.array(["müller", None, "Øslo"]))
    assert arr.to_pylist() == ["muller", None, "Øslo"]


def test_strip_accents_matches_duckdb():
    vals = ["müller", "François", "Øslo", "æ", "ɑɽⱤoW", "crème brûlée", "naïve"]
    expected = [
        duckdb.execute("select strip_accents(?)", [v]).fetchone()[0] for v in vals
    ]
    assert [text.strip_accents(v) for v in vals] == expected


def test_tokenize():
    # doctests _features.py:13-28
    assert text.tokenize("  abc    def") == ["abc", "def"]
    assert text.tokenize("  abc") == ["abc"]
    assert text.tokenize(" ") == []
    assert text.tokenize(None) is None
    arr = text.tokenize(pa.array(["  abc    def", " ", None]))
    assert arr.to_pylist() == [["abc", "def"], [], None]


def test_ngrams():
    # doctests _features.py:46-64 (order not guaranteed by the reference;
    # we compare as multisets)
    assert text.ngrams("abc", 2) == ["ab", "bc"]
    assert text.ngrams("", 2) == []
    assert text.ngrams("a", 2) == []
    assert text.ngrams(None, 4) is None
    assert sorted(text.ngrams("abcdef", 3)) == sorted(
        ["abc", "def", "bcd", "cde"]
    )
    with pytest.raises(ValueError):
        text.ngrams("abc", 0)
    arr = text.ngrams(pa.array(["abc", None, ""]), 2)
    assert arr.to_pylist() == [["ab", "bc"], None, []]


def test_levenshtein():
    assert text.levenshtein("abc", "abd") == 1
    assert text.levenshtein("", "abc") == 3
    assert text.levenshtein("kitten", "sitting") == 3
    assert text.levenshtein(None, "a") is None


def test_levenshtein_ratio():
    # doctests _similarity.py:78-88
    assert text.levenshtein_ratio("mile", "mike") == 0.75
    assert text.levenshtein_ratio("mile", "mile") == 1.0
    assert text.levenshtein_ratio("mile", "") == 0.0
    assert math.isnan(text.levenshtein_ratio("", ""))
    assert text.levenshtein_ratio(None, "x") is None


def test_jaro():
    # doctests _similarity.py:126-142
    assert text.jaro_similarity("foo", "foo") == 1.0
    assert text.jaro_similarity("foo", "food") == pytest.approx(
        0.9166666666666666
    )
    assert text.jaro_similarity("a", "") == 0.0
    assert text.jaro_similarity("", "") == 0.0
    assert text.jaro_similarity(None, "food") is None


def test_jaro_winkler():
    # doctests _similarity.py:163-180
    assert text.jaro_winkler_similarity("foo", "foo") == 1.0
    assert text.jaro_winkler_similarity("foo", "food") == pytest.approx(
        0.9416666666666667
    )
    assert text.jaro_winkler_similarity("a", "") == 0.0
    assert text.jaro_winkler_similarity("", "") == 0.0
    assert text.jaro_winkler_similarity(None, "food") is None


PAIRS = [
    ("abc", "abd"),
    ("kitten", "sitting"),
    ("", "abc"),
    ("same", "same"),
    ("martha", "marhta"),
    ("dwayne", "duane"),
    ("dixon", "dicksonx"),
    ("a", "b"),
    ("foo", "food"),
    ("jellyfish", "smellyfish"),
    ("supercalifragilistic", "supercalifragilistik"),
    ("CRATES OF", "CRATE OF"),
]


def test_levenshtein_matches_duckdb():
    for a, b in PAIRS:
        exp = duckdb.execute("select levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert text.levenshtein(a, b) == exp, (a, b)


def test_damerau_levenshtein_matches_duckdb():
    for a, b in PAIRS + [("ca", "abc"), ("abcdef", "abcdfe"), ("ab", "ba")]:
        exp = duckdb.execute(
            "select damerau_levenshtein(?, ?)", [a, b]
        ).fetchone()[0]
        assert text.damerau_levenshtein(a, b) == exp, (a, b)


def test_jaro_winkler_matches_duckdb():
    for a, b in PAIRS:
        exp = duckdb.execute(
            "select jaro_winkler_similarity(?, ?)", [a, b]
        ).fetchone()[0]
        got = text.jaro_winkler_similarity(a, b)
        assert got == pytest.approx(exp, abs=1e-12), (a, b, got, exp)


def test_jaro_matches_duckdb():
    for a, b in PAIRS:
        exp = duckdb.execute(
            "select jaro_similarity(?, ?)", [a, b]
        ).fetchone()[0]
        got = text.jaro_similarity(a, b)
        assert got == pytest.approx(exp, abs=1e-12), (a, b, got, exp)


def test_jaro_winkler_array_parity_random():
    # vectorized-across-pairs kernel must match the scalar reference exactly
    import random
    import string

    rng = random.Random(42)
    a_col, b_col = [], []
    for _ in range(800):
        n1, n2 = rng.randint(0, 14), rng.randint(0, 14)
        alpha = "abcd " if rng.random() < 0.5 else string.ascii_lowercase + "é"
        a = "".join(rng.choice(alpha) for _ in range(n1))
        b = a if rng.random() < 0.2 else "".join(
            rng.choice(alpha) for _ in range(n2)
        )
        if rng.random() < 0.08:
            a = None
        if rng.random() < 0.08:
            b = None
        a_col.append(a)
        b_col.append(b)
    got_j = text.jaro_similarity_array(a_col, b_col).to_pylist()
    got_w = text.jaro_winkler_similarity_array(a_col, b_col).to_pylist()
    for a, b, gj, gw in zip(a_col, b_col, got_j, got_w):
        ej = text.jaro_similarity(a, b)
        ew = text.jaro_winkler_similarity(a, b)
        assert (gj is None) == (ej is None), (a, b)
        assert (gw is None) == (ew is None), (a, b)
        if ej is not None:
            assert gj == pytest.approx(ej, abs=1e-12), (a, b)
            assert gw == pytest.approx(ew, abs=1e-12), (a, b)


def test_jaro_winkler_array_mask():
    # masked-out pairs come back null without running the kernel
    got = text.jaro_winkler_similarity_array(
        ["foo", "bar", "baz"], ["food", "bar", "qux"], mask=[True, False, True]
    ).to_pylist()
    assert got[0] == pytest.approx(0.9416666666666667)
    assert got[1] is None
    assert got[2] == pytest.approx(text.jaro_winkler_similarity("baz", "qux"))


def test_levenshtein_array_vectorized():
    a = ["abc", "kitten", None, "", "supercalifragilistic"] * 10
    b = ["abd", "sitting", "x", "abc", "supercalifragilistik"] * 10
    got = text.levenshtein_array(a, b).to_pylist()
    exp = [text.levenshtein(x, y) for x, y in zip(a, b)]
    assert got == exp


def test_levenshtein_ratio_array():
    a = ["mile", "mile", "mile", "", None]
    b = ["mike", "mile", "", "", "x"]
    got = text.levenshtein_ratio_array(a, b).to_pylist()
    assert got[0] == 0.75
    assert got[1] == 1.0
    assert got[2] == 0.0
    assert math.isnan(got[3])
    assert got[4] is None


# value pool for the kernel property test: '' and astral codepoints (the
# uint32 path), one value long enough for the >512-char per-pair fallback
# (and, against a >= 32-char value, the Levenshtein ma*mb > 16384 one)
_POOL_CHARS = "ab\u00e9 \U0001f600"
_LONG = ("ab\U0001f600" * 180)[:520]


def _encode_side(vals, form, cut):
    """One side of a pair batch in one of the input forms callers use."""
    if form == "list":
        return vals
    if form == "array":
        return pa.array(vals, type=pa.string())
    if form == "sliced":
        return pa.array(["pad"] + vals + ["pad"], type=pa.string()).slice(1, len(vals))
    chunks = [pa.array(vals[:cut], type=pa.string()), pa.array(vals[cut:], type=pa.string())]
    if form == "chunked_dict":
        # dictionary chunks: each chunk has its own dictionary
        chunks = [c.dictionary_encode() for c in chunks]
    return pa.chunked_array(chunks)


@st.composite
def _pair_batches(draw):
    pool = draw(
        st.lists(st.text(_POOL_CHARS, max_size=40), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        pool.append(_LONG)
    value = st.one_of(st.none(), st.sampled_from(pool))  # heavy repeats
    left = draw(st.lists(value, max_size=30))
    n = len(left)
    right = draw(st.lists(value, min_size=n, max_size=n))
    mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
    forms = st.sampled_from(["list", "array", "sliced", "chunked", "chunked_dict"])
    cut = draw(st.integers(0, n))
    return left, right, mask, draw(forms), draw(forms), cut


@settings(max_examples=150, deadline=None)
@given(batch=_pair_batches())
@example(batch=([], [], None, "array", "chunked", 0))  # zero rows
@example(batch=(["a", "b"], ["a", "c"], [False, False], "list", "sliced", 1))  # all masked
@example(batch=([_LONG, "ab", _LONG], ["x" * 40, "ab", _LONG], None, "list", "list", 0))
def test_string_pair_kernels_match_scalar(batch):
    """The factorized pair kernels give exactly the scalar result per pair
    (bit-identical floats), null where a side is null or the mask is off."""
    left, right, mask, form_l, form_r, cut = batch
    a, b = _encode_side(left, form_l, cut), _encode_side(right, form_r, cut)

    def expect(fn, mask):
        on = [True] * len(left) if mask is None else mask
        return [
            fn(x, y) if ok and x is not None and y is not None else None
            for x, y, ok in zip(left, right, on)
        ]

    jaro = text.jaro_similarity_array(a, b, mask=mask)
    assert jaro.to_pylist() == expect(text.jaro_similarity, mask)
    jw = text.jaro_winkler_similarity_array(a, b, mask=mask)
    assert jw.to_pylist() == expect(text.jaro_winkler_similarity, mask)
    lev = text.levenshtein_array(a, b)  # takes no mask
    assert lev.type == pa.int64()
    assert lev.to_pylist() == expect(text.levenshtein, None)


def test_textstats_units():
    from mismo_ray.textstats import (
        LangId,
        fingerprint,
        rolling_hash_fingerprints,
        token_count_bpe_ish,
    )

    assert token_count_bpe_ish("") == 0
    assert token_count_bpe_ish("hi") == 1
    assert token_count_bpe_ish("abcdefgh xy") == 2 + 1  # 8//4 + 1
    assert fingerprint("  a   b ") == fingerprint("a b")
    assert fingerprint(None) is None
    fp1 = rolling_hash_fingerprints("the quick brown fox jumps over the lazy dog")
    fp2 = rolling_hash_fingerprints("the quick brown fox jumps over the lazy dog")
    assert fp1 == fp2  # deterministic
    assert rolling_hash_fingerprints(None) is None
    lang = LangId()
    assert lang.classify("the cat and the dog are in the house")[0] == "en"
    assert lang.classify("der Hund und die Katze sind im Haus")[0] == "de"
    assert lang.classify("")[0] == "und"


def test_lang_id_real_snippets(ray_session):
    """LangId on genuine-language snippets: script detection for non-Latin,
    stopword profiles for Latin-script languages."""
    from mismo_ray.textstats import LangId

    clf = LangId()
    cases = {
        "the quick brown fox jumps over the lazy dog and runs away": "en",
        "der schnelle braune fuchs springt über den faulen hund und läuft": "de",
        "el rápido zorro marrón salta sobre el perro perezoso y corre": "es",
        "le renard brun rapide saute par dessus le chien paresseux et court": "fr",
        "não há uma solução para os problemas que são muito difíceis também": "pt",
        "het is niet goed dat deze mensen hun huis nog niet hebben verkocht": "nl",
        "敏捷的棕色狐狸跳过了懒狗然后跑开了": "zh",
        "素早い茶色のキツネは怠け者の犬を飛び越えます": "ja",
        "빠른 갈색 여우가 게으른 개를 뛰어넘는다": "ko",
        "быстрая коричневая лиса прыгает через ленивую собаку": "ru",
        "η γρήγορη καφέ αλεπού πηδάει πάνω από το τεμπέλικο σκυλί": "el",
    }
    for text, expected in cases.items():
        lang, score = clf.classify(text)
        assert lang == expected, (text[:30], lang, expected)
        assert score > 0
    assert clf.classify(None) == ("und", 0.0)
    assert clf.classify("zzz qqq xxx")[0] == "und"


def test_lang_id_batch_parity():
    """Vectorized _classify_batch must be element-identical to per-row
    classify (same tie-breaks, same scores) over adversarial inputs."""
    import pandas as pd

    from mismo_ray.textstats import LangId

    clf = LangId()
    texts = [
        None,
        "",
        "   ",
        "the cat and the dog are in the house",
        "der Hund und die Katze sind im Haus",
        "zzz qqq xxx",
        "123 456 789",
        "敏捷的棕色狐狸跳过了懒狗",
        "素早い茶色のキツネ",
        "быстрая лиса",
        "mixed 敏捷 latin 狐狸 text here",
        "de la le el",  # marker-tie bait across languages
        "a" * 500,  # longer than the 400-char script sample
        "の",  # single kana: ja via the 5% kana rule
        "la " * 50,
        "THE AND OF",  # uppercase markers (lowercased before matching)
        "e o a",  # it/pt tie bait
        "!@# $%^ &*(",
    ]
    langs, scores = clf._classify_batch(pd.Series(texts, dtype="object"))
    for i, s in enumerate(texts):
        want = clf.classify(s)
        assert (langs[i], scores[i]) == want, (i, s, langs[i], scores[i], want)


def test_token_stats_parity(ray_session):
    """Vectorized add_token_stats == the scalar definition, bit-identical."""
    from mismo_ray.textstats import STOPWORDS_EN, add_token_stats

    texts = [
        None,
        "",
        "   ",
        "the cat and the cat",
        "one",
        "a  b\tc\nd a",
        "The THE the",
        "longword " * 7,
    ]
    ds = ray.data.from_arrow(
        pa.table({"i": list(range(len(texts))), "text": pa.array(texts, type=pa.string())})
    )
    got = add_token_stats(ds, "text").to_pandas().sort_values("i").reset_index(drop=True)
    for i, s in enumerate(texts):
        toks = s.split() if s else []
        assert got.n_chars[i] == (len(s) if s is not None else 0)
        assert got.n_tokens[i] == len(toks)
        assert got.n_uniq_tokens[i] == len(set(toks))
        if toks:
            assert got.avg_token_len[i] == sum(len(x) for x in toks) / len(toks)
            assert got.stopword_ratio[i] == sum(
                1 for x in toks if x.lower() in STOPWORDS_EN
            ) / len(toks)
        else:
            assert got.avg_token_len[i] == 0.0 and got.stopword_ratio[i] == 0.0


def test_add_compression_stats(ray_session):
    import zlib

    import pyarrow as pa
    import ray.data

    from mismo_ray.textstats import add_compression_stats

    docs = ["abc " * 200, "completely unrepetitive mixture 9f3k1", None, ""]
    t = pa.table(
        {
            "record_id": pa.array(list(range(4)), type=pa.int64()),
            "text": pa.array(docs, type=pa.string()),
        }
    )
    out = (
        add_compression_stats(ray.data.from_arrow(t), "text")
        .to_pandas()
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    for i, s in enumerate(docs):
        if s is None:
            assert out.loc[i, "utf8_bytes"] == 0 and out.loc[i, "deflate_bytes"] == 0
        else:
            b = s.encode()
            assert out.loc[i, "utf8_bytes"] == len(b)
            assert out.loc[i, "deflate_bytes"] == len(zlib.compress(b, 6))
    # the repetitive doc compresses far better than the unique one
    rep = out.loc[0, "deflate_bytes"] / out.loc[0, "utf8_bytes"]
    uni = out.loc[1, "deflate_bytes"] / out.loc[1, "utf8_bytes"]
    assert rep < 0.05 < uni
