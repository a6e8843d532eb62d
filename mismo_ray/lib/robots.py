"""robots.txt parsing + crawl-politeness filtering.

No reference analog (mismo has no crawl tier); for a Common-Crawl-style
pipeline the robots gate is the third standard URL-level curation filter
next to the blocklist (``drop_blocked_hosts``) and canonicalization —
pages a polite crawler should never have fetched get dropped before any
text processing spends compute on them.

The parser implements the RFC 9309 subset that decides fetchability:

- ``field: value`` lines, fields case-insensitive, ``#`` comments;
- consecutive ``User-agent`` lines open ONE group whose rules apply to
  all of them; multiple groups for the same agent merge;
- group selection: case-insensitive exact agent token match, else the
  ``*`` group, else no rules (everything allowed);
- ``Allow`` / ``Disallow`` path prefixes; an EMPTY ``Disallow:`` value
  is a no-op (historical "allow all");
- matching: longest-match wins, ties go to ``Allow``; no matching rule
  means allowed; the Google extensions ``*`` (any run) and ``$`` (end
  anchor) are supported — a wildcard rule's specificity is the length of
  its pattern string, like the de-facto implementations.

Scale shape of :func:`apply_robots`: a small robots corpus (dict /
iterable / Dataset whose bodies fit ``max_broadcast_bytes``) ships once via
``ray.put`` with rules parsed ONCE PER HOST on first use per actor; each
batch groups rows by host and evaluates every rule vectorized over that
host's rows (rules per host are few; rows per host in a crawl are many).
A corpus-scale robots Dataset takes the join path instead: rules explode
to (host, allow, pattern) rows, one hash join on host fans each page out
to only ITS host's rules (bounded by rules-per-host), matches evaluate
vectorized per batch, and a top-1-per-id longest-match pick plus a semi
join recover the verdicts — no driver collect of either side.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from mismo_ray.lib.url import parse_url_batch

_FIELD_RE = re.compile(r"^\s*([A-Za-z-]+)\s*:\s*(.*?)\s*$")


def _as_string(arr):
    """All-null blocks arrive null-typed; the regex kernels need string."""
    return arr.cast(pa.string()) if pa.types.is_null(arr.type) else arr


def parse_robots_txt(text: str | None, *, agent: str = "*") -> list[tuple[bool, str]]:
    """Rules ``[(allow, pattern), ...]`` of the group governing ``agent``.

    Exact (case-insensitive) agent-token group if present, else the ``*``
    group; multiple groups for the same agent merge. Unknown fields
    (Sitemap, Crawl-delay, ...) are tolerated and ignored.
    """
    if not text:
        return []
    agent = agent.lower()
    groups: dict[str, list[tuple[bool, str]]] = {}
    current: list[str] = []  # agents the upcoming rules apply to
    in_agent_run = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        m = _FIELD_RE.match(line)
        if not m:
            continue
        field, value = m.group(1).lower(), m.group(2)
        if field == "user-agent":
            if not in_agent_run:
                current = []
                in_agent_run = True
            current.append(value.strip().lower())
            groups.setdefault(value.strip().lower(), [])
        elif field in ("allow", "disallow"):
            in_agent_run = False
            if value == "":
                # historical empty "Disallow:" = allow everything (and an
                # empty Allow is equally a no-op)
                continue
            for a in current:
                groups.setdefault(a, []).append((field == "allow", value))
        # unknown fields (Sitemap, Crawl-delay, ...) are ignored WITHOUT
        # ending a user-agent run: "User-agent: a / Crawl-delay: 10 /
        # User-agent: b / Disallow: /x" is ONE group covering both agents
        # (RFC 9309: ignore unrecognized lines); only a rule line closes
        # the run so a later User-agent starts a fresh group
    if agent in groups:
        return groups[agent]
    return groups.get("*", [])


def _pattern_matcher(pattern: str):
    """Vectorized matcher for one rule pattern over a pandas string Series.

    Plain prefixes use ``str.startswith``; patterns containing the ``*`` /
    ``$`` extensions compile to one anchored RE2-compatible regex.
    """
    if "*" not in pattern and not pattern.endswith("$"):
        return lambda s: s.str.startswith(pattern)
    body = pattern[:-1] if pattern.endswith("$") else pattern
    rx = "^" + ".*".join(re.escape(part) for part in body.split("*"))
    if pattern.endswith("$"):
        rx += "$"
    compiled = re.compile(rx)
    return lambda s: s.str.match(compiled)


def is_allowed(path: str | None, rules: list[tuple[bool, str]]) -> bool:
    """Longest-match verdict for one path (ties -> Allow; no match -> True)."""
    if path is None or path == "":
        path = "/"
    best_len, best_allow = -1, True
    for allow, pattern in rules:
        matcher = _pattern_matcher(pattern)
        if bool(matcher(pd.Series([path], dtype="object")).iloc[0]):
            ln = len(pattern)
            if ln > best_len or (ln == best_len and allow and not best_allow):
                best_len, best_allow = ln, allow
    return best_allow


def _verdicts_for_host(
    paths: pd.Series, rules: list[tuple[bool, str]]
) -> np.ndarray:
    """Vectorized longest-match evaluation of one host's rule list over a
    Series of paths. Returns a bool allow-mask."""
    n = len(paths)
    best_len = np.full(n, -1, dtype=np.int64)
    allow = np.ones(n, dtype=bool)
    paths = paths.fillna("/").replace("", "/")
    for rule_allow, pattern in rules:
        m = _pattern_matcher(pattern)(paths).fillna(False).to_numpy(dtype=bool)
        ln = len(pattern)
        better = m & (ln > best_len)
        tie_allow = m & (ln == best_len) & rule_allow
        best_len[better] = ln
        allow[better] = rule_allow
        allow[tie_allow] = True
    return allow


# per-worker parse cache: robots bodies re-parse once per (host, agent,
# body) per worker process, not once per batch — keyed on the body digest so
# a changed robots.txt (new broadcast) can't serve stale rules
_RULE_CACHE: dict = {}
_RULE_CACHE_CAP = 100_000


def _cached_rules(host: str, txt: str, agent: str):
    # a real digest: a colliding 64-bit hash() would serve another body's
    # rules after a robots-map update
    digest = hashlib.blake2b((txt or "").encode(), digest_size=16).digest()
    key = (agent, host, digest)
    rules = _RULE_CACHE.get(key)
    if rules is None:
        if len(_RULE_CACHE) >= _RULE_CACHE_CAP:
            _RULE_CACHE.clear()
        rules = _RULE_CACHE[key] = parse_robots_txt(txt, agent=agent)
    return rules


def _merge_host(robots_map: dict, host, txt) -> None:
    """Case-fold the host (parse_url_batch lowercases page hosts — a
    mixed-case robots entry would silently never match) and MERGE duplicate
    hosts by body concatenation, which parses to the same rule union the
    join path produces (same-agent groups merge)."""
    if host is None:
        return
    host = str(host).lower()
    prev = robots_map.get(host)
    robots_map[host] = txt if prev is None else prev + "\n" + (txt or "")


def apply_robots(
    ds: ray.data.Dataset,
    robots,
    *,
    url_column: str = "url",
    id_column: str = "record_id",
    agent: str = "*",
    invert: bool = False,
    max_broadcast_bytes: int = 268_435_456,
) -> ray.data.Dataset:
    """Keep only rows a polite crawler for ``agent`` may fetch.

    ``robots``: ``{host: robots_txt}``, an iterable of ``(host,
    robots_txt)`` pairs, or a Dataset with ``host`` / ``robots_txt``
    columns. Hosts with no robots entry (and rows with unparseable URLs)
    are kept — absence of robots.txt means everything is allowed.
    ``invert=True`` KEEPS only disallowed rows (audit mode).

    The broadcast gate is BYTE-based (robots bodies carry payload, unlike
    a hostname blocklist): a Dataset whose bodies exceed
    ``max_broadcast_bytes`` falls back to the join path mid-collect; a
    too-large dict/iterable raises.
    """
    import ray

    from mismo_ray._joins import keyed_filter

    robots_map: dict = {}
    if isinstance(robots, ray.data.Dataset):
        budget = max_broadcast_bytes
        too_big = False
        for b in robots.select_columns(["host", "robots_txt"]).iter_batches(
            batch_format="pyarrow"
        ):
            for host, txt in zip(
                b["host"].to_pylist(), b["robots_txt"].to_pylist()
            ):
                budget -= len(txt or "")
                _merge_host(robots_map, host, txt)
            if budget < 0:
                too_big = True
                break
        if too_big:
            return _apply_robots_join(
                ds,
                robots,
                url_column=url_column,
                id_column=id_column,
                agent=agent,
                invert=invert,
                keyed_filter=keyed_filter,
            )
    else:
        items = robots.items() if isinstance(robots, dict) else robots
        for host, txt in items:
            _merge_host(robots_map, host, txt)
        if sum(len(t or "") for t in robots_map.values()) > max_broadcast_bytes:
            raise ValueError(
                f"robots bodies exceed max_broadcast_bytes="
                f"{max_broadcast_bytes}; pass them as a Dataset to use the "
                "join path"
            )
    ref = ray.put(robots_map)

    def fn(t: pa.Table) -> pa.Table:
        texts = ray.get(ref)
        parsed = parse_url_batch(_as_string(t[url_column]))
        hosts = pd.Series(parsed["host"].to_pylist(), dtype="object")
        paths = pd.Series(parsed["path"].to_pylist(), dtype="object")
        keep = np.ones(len(t), dtype=bool)
        # group rows by host: rules come from the per-worker parse cache,
        # evaluate vectorized over all of that host's rows
        for host, idx in hosts.groupby(hosts, sort=False).groups.items():
            if host is None or host not in texts:
                continue
            rules = _cached_rules(host, texts[host], agent)
            if not rules:
                continue
            rows = np.asarray(idx, dtype=np.int64)
            keep[rows] = _verdicts_for_host(paths.iloc[rows], rules)
        if invert:
            keep = ~keep
        return t.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def _apply_robots_join(
    ds: ray.data.Dataset,
    robots: ray.data.Dataset,
    *,
    url_column: str,
    id_column: str,
    agent: str,
    invert: bool,
    keyed_filter,
) -> ray.data.Dataset:
    """Corpus-scale path: explode robots to (host, allow, pattern) rule
    rows, fan pages out to their host's rules via one hash join, evaluate
    matches vectorized, longest-match top-1 per id, semi/anti join back.
    Only (id, host, path) and the bounded rule fan-out move — never the
    page payload, never a driver collect.
    """
    from mismo_ray._joins import hash_join

    def explode_rules(t: pa.Table) -> pa.Table:
        hosts_out, allow_out, pat_out = [], [], []
        for host, txt in zip(
            t["host"].to_pylist(), t["robots_txt"].to_pylist()
        ):
            if host is None:
                continue
            # case-fold like the broadcast path: page hosts come out of
            # parse_url_batch lowercased
            host = str(host).lower()
            for rule_allow, pattern in parse_robots_txt(txt, agent=agent):
                hosts_out.append(host)
                allow_out.append(rule_allow)
                pat_out.append(pattern)
        return pa.table(
            {
                "host": pa.array(hosts_out, type=pa.string()),
                "__allow__": pa.array(allow_out, type=pa.bool_()),
                "__pat__": pa.array(pat_out, type=pa.string()),
            }
        )

    rules = robots.map_batches(explode_rules, batch_format="pyarrow")

    def key_rows(t: pa.Table) -> pa.Table:
        parsed = parse_url_batch(_as_string(t[url_column]))
        return pa.table(
            {
                id_column: t[id_column],
                "host": parsed["host"],
                "__path__": parsed["path"],
            }
        )

    keyed = ds.map_batches(key_rows, batch_format="pyarrow")
    joined = hash_join(keyed, rules, on="host", how="inner")

    def match_rules(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    id_column: pa.array([], type=t[id_column].type),
                    "__allow__": pa.array([], type=pa.bool_()),
                    "__len__": pa.array([], type=pa.int64()),
                }
            )
        paths = pd.Series(t["__path__"].to_pylist(), dtype="object")
        pats = pd.Series(t["__pat__"].to_pylist(), dtype="object")
        hit = np.zeros(len(t), dtype=bool)
        for pattern, idx in pats.groupby(pats, sort=False).groups.items():
            rows = np.asarray(idx, dtype=np.int64)
            m = (
                _pattern_matcher(pattern)(paths.iloc[rows].fillna("/").replace("", "/"))
                .fillna(False)
                .to_numpy(dtype=bool)
            )
            hit[rows] = m
        lens = pats.str.len().fillna(0).to_numpy(dtype=np.int64)
        out = pa.table(
            {
                id_column: t[id_column],
                "__allow__": t["__allow__"],
                "__len__": pa.array(lens),
            }
        )
        return out.filter(pa.array(hit))

    matched = joined.map_batches(match_rules, batch_format="pyarrow")

    # longest-match winner per id, ties -> Allow (sort allow DESC within len)
    def best_per_group(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_column].to_numpy(zero_copy_only=False))
        lens = np.asarray(g["__len__"].to_numpy(zero_copy_only=False))
        allows = np.asarray(g["__allow__"].to_numpy(zero_copy_only=False))
        order = np.lexsort((~allows, -lens, ids))
        first = np.concatenate(([True], ids[order][1:] != ids[order][:-1]))
        win = order[first]
        return pa.table(
            {
                id_column: pa.array(ids[win]),
                "__allow__": pa.array(allows[win]),
            }
        )

    verdicts = matched.groupby(id_column).map_groups(
        best_per_group, batch_format="pyarrow"
    )

    def only_disallowed(t: pa.Table) -> pa.Table:
        m = ~np.asarray(t["__allow__"].to_numpy(zero_copy_only=False), dtype=bool)
        return t.filter(pa.array(m)).select([id_column])

    blocked = verdicts.map_batches(only_disallowed, batch_format="pyarrow")
    return keyed_filter(ds, blocked, on=id_column, invert=not invert)


def load_robots_dir(root: str) -> dict:
    """Load a directory of per-host robots.txt bodies into the map
    :func:`apply_robots` takes: one file per host, filename = hostname
    (an optional ``.txt`` suffix and a ``.gz`` compression suffix are
    stripped — ``example.com``, ``example.com.txt`` and
    ``example.com.txt.gz`` all key host ``example.com``). Hostnames
    case-fold; duplicate hosts (e.g. plain + .gz) merge by body
    concatenation, the same rule-union semantics apply_robots uses.
    """
    import gzip
    import os

    robots_map: dict = {}
    for name in sorted(os.listdir(root)):
        full = os.path.join(root, name)
        if not os.path.isfile(full):
            continue
        host = name
        gz = host.endswith(".gz")
        if gz:
            host = host[: -len(".gz")]
        if host.endswith(".txt"):
            host = host[: -len(".txt")]
        if not host:
            continue
        if gz:
            with gzip.open(full, "rt", encoding="utf-8", errors="replace") as f:
                txt = f.read()
        else:
            with open(full, encoding="utf-8", errors="replace") as f:
                txt = f.read()
        _merge_host(robots_map, host, txt)
    return robots_map
