"""Seeded web-page corpora for the ER benchmark, plus their ground truth.

Every workload is a table of pages ``(url, warc_ts, html, text, lang,
record_id)`` in which the generator plants entities: groups of 1-6 pages that
are variants of one document, each variant after the first carrying a
one-character typo. The page table goes to the program; the entity of every
page goes to a separate truth file that only the benchmark's checks read.

The layout of a URL fixes the blocking key the program derives from it:
``https://<domain>/<section>/<tag>/v<k>`` has ``path_stem = <section>/<tag>``,
unique per entity, so every ``(domain, path_stem)`` group is exactly one
entity. On ``hot_key`` whole entities (never single pages, which would split
a true cluster over two keys) are moved to ``https://mirror.example.net/m/
<tag>-v<k>``, so one key holds more than ``salt_rows`` pages.

Nothing here imports the program: the corpus is plain numpy + pyarrow.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HOT_DOMAIN = "mirror.example.net"
HOT_STEM = "m"
LANGS = ["en", "de", "fr", "es", "nl"]
SECTIONS = ["news", "blog", "docs", "shop", "wiki", "forum", "help", "about"]
# sizes 1..6 with a long-ish tail: most entities are singletons or pairs
SIZE_P = np.array([0.40, 0.25, 0.14, 0.10, 0.06, 0.05])
FILES = 4  # parquet files the page table is split into


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int  # exact page count of the corpus
    hot_pages: int  # pages moved onto the one hot key (0: no hot key)
    tokens: tuple[int, int]  # token count range of an entity's text
    salt_rows: int | None  # KeyLinker salt_rows on the key-blocked workloads
    why: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "flagship", pages=1_200, hot_pages=0, tokens=(40, 90),
            salt_rows=None,
            why="OR-blocking, EM and per-partition checkpoints: a dozen "
            "stages over few pairs, bound by coordination",
        ),
        Workload(
            "sketch_scale", pages=5_000, hot_pages=0, tokens=(60, 140),
            salt_rows=None,
            why="sketches ride the key shuffle, fixed weights score few pairs: "
            "bound by the per-page maps and the blocking shuffle",
        ),
        Workload(
            "hot_key", pages=2_400, hot_pages=480, tokens=(60, 140),
            salt_rows=256,
            why="one key holds whole entities past salt_rows, so salting "
            "engages and compare+score of its pairs dominates",
        ),
    ]
}

_HTML = (
    '<!DOCTYPE html><html><head><meta charset="utf-8"><title>{title}</title>'
    "</head><body><nav>site navigation</nav>"
    '<main id="content">{body}</main><footer>footer</footer></body></html>'
)


def _vocabulary(rng: np.random.Generator, n: int = 4_000) -> np.ndarray:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lengths = rng.integers(3, 10, size=n)
    words = {"".join(rng.choice(letters, size=k)) for k in lengths}
    return np.array(sorted(words), dtype=object)


def _typo(token: str, v: int) -> str:
    """One-character edit: odd variants drop the last char, even ones add x."""
    if v % 2 == 1 and len(token) > 2:
        return token[:-1]
    return token + "x"


def entity_sizes(rng: np.random.Generator, pages: int) -> np.ndarray:
    """Entity sizes drawn from SIZE_P, the last one trimmed to hit ``pages``."""
    sizes = rng.choice(np.arange(1, 7), size=pages, p=SIZE_P)
    cut = int(np.searchsorted(np.cumsum(sizes), pages))
    sizes = sizes[: cut + 1].copy()
    sizes[-1] -= int(sizes.sum()) - pages
    return sizes


def generate(workload: Workload, seed: int, out_dir: str) -> dict:
    """Write ``pages/`` (the program's input) and ``truth.parquet`` under
    ``out_dir``; return their paths and the corpus make-up."""
    rng = np.random.default_rng([seed, len(workload.name), workload.pages])
    vocab = _vocabulary(rng)
    sizes = entity_sizes(rng, workload.pages)
    n_ent = len(sizes)

    hot = np.zeros(n_ent, dtype=bool)
    if workload.hot_pages:
        order = rng.permutation(n_ent)
        reach = int(np.searchsorted(np.cumsum(sizes[order]), workload.hot_pages))
        hot[order[: reach + 1]] = True

    # a unique tag per entity; the tags never share a prefix structure that
    # would make two entities' keys equal
    tags = rng.choice(36**6, size=n_ent, replace=False)
    domains = rng.integers(0, 40, size=n_ent)
    sections = rng.integers(0, len(SECTIONS), size=n_ent)
    langs = rng.integers(0, len(LANGS), size=n_ent)
    n_tok = rng.integers(workload.tokens[0], workload.tokens[1] + 1, size=n_ent)
    ts0 = rng.integers(0, 30 * 86_400, size=n_ent)

    urls, texts, htmls, page_lang, page_ts, entity = [], [], [], [], [], []
    for e in range(n_ent):
        toks = list(vocab[rng.integers(0, len(vocab), size=n_tok[e])])
        tag = np.base_repr(int(tags[e]), 36).lower()
        for v in range(int(sizes[e])):
            vt = list(toks)
            if v > 0:
                pos = int(rng.integers(0, len(vt)))
                vt[pos] = _typo(vt[pos], v)
            text = " ".join(vt)
            if hot[e]:
                url = f"https://{HOT_DOMAIN}/{HOT_STEM}/{tag}-v{v}"
            else:
                url = (
                    f"https://site-{domains[e]}.example.org/"
                    f"{SECTIONS[sections[e]]}/{tag}/v{v}"
                )
            urls.append(url)
            texts.append(text)
            htmls.append(
                _HTML.format(title=html.escape(tag), body=html.escape(text)).encode()
            )
            page_lang.append(LANGS[langs[e]])
            page_ts.append(int(ts0[e]) + 3_600 * v)
            entity.append(e)

    n = len(urls)
    record_id = rng.choice(2**62, size=n, replace=False).astype(np.int64)
    perm = rng.permutation(n)
    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(
                np.datetime64("2024-01-01", "s") + np.array(page_ts, "timedelta64[s]"),
                pa.timestamp("us"),
            ),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(page_lang, pa.string()),
            "record_id": pa.array(record_id),
        }
    ).take(perm)
    truth = pa.table(
        {"record_id": pa.array(record_id), "entity": pa.array(entity, pa.int64())}
    )

    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    bounds = np.linspace(0, n, FILES + 1).astype(int)
    for i in range(FILES):
        part = pages.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(part, os.path.join(pages_dir, f"part-{i:03d}.parquet"))
    truth_path = os.path.join(out_dir, "truth.parquet")
    pq.write_table(truth, truth_path)
    return {
        "pages_dir": pages_dir,
        "truth": truth_path,
        "pages": n,
        "entities": n_ent,
        "hot_pages": int(sizes[hot].sum()),
        "hot_entities": int(hot.sum()),
    }
