"""Streaming dedup against a SHARED MUTABLE INDEX — the one shape the
Dataset API genuinely cannot express (task brief: "drop to raw Ray
tasks/actors only where the Dataset API can't, e.g. a shared mutable index").

``exact_dedupe`` answers "which rows are duplicates within THIS dataset" with
one groupby shuffle. An INCREMENTAL pipeline ("drop anything seen in any
earlier run, without re-shuffling all of history") needs state that outlives
a single Dataset execution: a sharded fingerprint index held in Ray actors.

- ``_IndexShard``: a plain Ray actor holding one hash-partitioned map of
  64-bit content fingerprint -> claim token; ``check_and_add`` is atomic per
  shard (actor calls serialize), so first-seen-wins is race-free.
- ``StreamingDedupIndex``: N shards + a ``filter_new(ds, column)`` stage —
  per batch: vectorized fingerprints, partition by shard, one actor call per
  touched shard, keep rows whose fingerprint is new. Batches are deduped
  internally first, so a batch is self-consistent; ACROSS batches the winner
  is arrival order (inherent to incremental dedup).

Replay safety: the map task mutates shared actor state, and Ray may re-run a
task (retry after failure, lineage reconstruction) or the caller may consume
the result twice. Two defenses:

1. ``filter_new`` MATERIALIZES its result before returning, so consuming the
   returned dataset repeatedly never re-executes the mutating map task.
2. every shard call carries a deterministic CLAIM TOKEN identifying the
   batch (position-mixed hash of the batch's fingerprint sequence + id
   column); the shard stores fp -> token, and a replay of the same batch
   presents the same token, so its own claims still answer "new" — task
   retries are idempotent instead of silently dropping rows.

Scale notes: memory is one dict entry (~60 B) x distinct docs spread over
n_shards actors (place shards across nodes in a real cluster); calls ship
only int64 arrays. ``snapshot``/``restore`` give parquet-backed persistence
between runs (tokens are not persisted: a claim's replay window ends with
the run that made it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from mismo_ray._util import hash64

_RESTORED = 0  # token sentinel for fingerprints loaded from a snapshot


@ray.remote(num_cpus=0)
class _IndexShard:
    # num_cpus=0: a shard is a dict holder answering short membership calls.
    # Reserving whole CPUs lets a 16-shard index starve the data-plane tasks
    # of a node (observed: 4x slowdown of a concurrent pipeline), and even
    # fractional reservations accumulate across indexes until actors stop
    # scheduling. Zero-cpu actors schedule freely; the work they do is
    # bounded by the caller's batch rate.
    def __init__(self) -> None:
        self._seen: dict[int, int] = {}

    def check_and_add(self, fps: list[int], token: int) -> list[bool]:
        """For each fingerprint, True when it is NOT already claimed (and
        claim it with ``token``). A fingerprint this same token already
        claimed answers True again, making batch replays idempotent.
        Atomic: actor method calls are serialized per actor."""
        out = []
        seen = self._seen
        for f in fps:
            owner = seen.get(f)
            if owner is None:
                seen[f] = token
                out.append(True)
            else:
                out.append(owner == token)
        return out

    def size(self) -> int:
        return len(self._seen)

    def dump(self) -> list[int]:
        return list(self._seen)

    def load(self, fps: list[int]) -> None:
        for f in fps:
            self._seen.setdefault(f, _RESTORED)

    def contains_excluding(self, fps: list[int], token: int) -> list[bool]:
        """True where the fingerprint is present AND owned by a DIFFERENT
        token. Claims made by this same token read as absent, so a replayed
        batch (same claim token) sees the pre-replay state of its own keys —
        the read half of the near-dup index's two-phase protocol."""
        seen = self._seen
        return [(f in seen and seen[f] != token) for f in fps]

    def add(self, fps: list[int], token: int) -> None:
        """Claim fingerprints unconditionally (first owner wins; re-adding
        an owned key is a no-op). The write half of the two-phase protocol."""
        seen = self._seen
        for f in fps:
            seen.setdefault(f, token)


class StreamingDedupIndex:
    """Sharded cross-run exact-dedup index.

    >>> idx = StreamingDedupIndex(n_shards=8)
    >>> first = idx.filter_new(ds_monday, "text")    # all new
    >>> second = idx.filter_new(ds_tuesday, "text")  # Monday's docs dropped
    """

    def __init__(self, *, n_shards: int = 16, seed: int = 0):
        self.n_shards = n_shards
        self.seed = seed
        self._shards = [_IndexShard.remote() for _ in range(n_shards)]

    def _fingerprints(self, t: pa.Table, column: str) -> np.ndarray:
        return hash64(t[column], seed=self.seed)

    def filter_new(
        self, ds: ray.data.Dataset, column: str
    ) -> ray.data.Dataset:
        """Rows whose ``column`` content was never seen by this index (rows
        with equal content within one batch keep only the first).

        The result is MATERIALIZED before returning: the map task mutates
        the shared index, so it must run exactly once per input batch —
        iterating a lazy result twice would replay the mutation and drop
        every genuinely-new row the second time. (Task retries within the
        single materializing run are idempotent via per-batch claim tokens.)
        """
        shards = self._shards
        n_shards = self.n_shards
        seed = self.seed

        def fn(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return t
            fps = hash64(t[column], seed=seed)
            # batch-internal first-seen
            _, first_pos = np.unique(fps, return_index=True)
            keep_local = np.zeros(len(t), dtype=bool)
            keep_local[first_pos] = True
            # null content never dedupes
            nulls = np.asarray(t[column].combine_chunks().is_null())
            keep_local |= nulls
            sh = (fps % np.uint64(n_shards)).astype(np.int64)
            # deterministic claim token identifying THIS batch: position-
            # mixed content hash of the full fp sequence, plus the id column
            # when present. A replayed batch presents the identical table ->
            # identical token; a different batch that happens to share a
            # fingerprint does not. (Two byte-identical batches — duplicate
            # record ids — are indistinguishable from a replay by design.)
            from mismo_ray._util import splitmix64

            with np.errstate(over="ignore"):
                tok = np.bitwise_xor.reduce(
                    splitmix64(fps ^ splitmix64(np.arange(len(t), dtype=np.uint64)))
                )
                if "record_id" in t.column_names:
                    tok ^= np.bitwise_xor.reduce(hash64(t["record_id"], seed=0x1D))
            token = int(tok.astype(np.int64))
            if token == _RESTORED:  # avoid the snapshot sentinel
                token = 1
            keep = keep_local.copy()
            futures, positions = [], []
            for s in np.unique(sh):
                pos = np.flatnonzero(keep_local & ~nulls & (sh == s))
                if len(pos):
                    # signed view: plain python ints that fit C long
                    sub = [int(f) for f in fps[pos].astype(np.int64)]
                    futures.append(
                        shards[int(s)].check_and_add.remote(sub, token)
                    )
                    positions.append(pos)
            for pos, new_mask in zip(positions, ray.get(futures)):
                keep[pos] = np.asarray(new_mask, dtype=bool)
            keep |= nulls
            return t.filter(pa.array(keep))

        return ds.map_batches(fn, batch_format="pyarrow").materialize()

    def n_seen(self) -> int:
        return int(sum(ray.get([s.size.remote() for s in self._shards])))

    def shutdown(self) -> None:
        """Kill the shard actors now (instead of waiting for GC of the last
        handle). Call when done with the index — filter_new results are
        materialized, so they never need the actors again."""
        for s in self._shards:
            ray.kill(s)
        self._shards = []

    def snapshot(self, path: str) -> None:
        """Persist the index to parquet (fingerprints + the hash seed: a
        snapshot restored under a different seed would silently never match
        anything — total loss of cross-run dedup; the Bloom index already
        validates its params the same way)."""
        fps: list[int] = []
        for chunk in ray.get([s.dump.remote() for s in self._shards]):
            fps.extend(chunk)
        pq.write_table(
            pa.table(
                {"fp": pa.array(fps, type=pa.int64())},
                metadata={"seed": str(self.seed)},
            ),
            path,
        )

    def restore(self, path: str) -> "StreamingDedupIndex":
        t = pq.read_table(path)
        meta = {k.decode(): v.decode() for k, v in (t.schema.metadata or {}).items()}
        if "seed" in meta and int(meta["seed"]) != self.seed:
            raise ValueError(
                f"dedup-index snapshot was built with seed={meta['seed']}, "
                f"this index uses seed={self.seed}; fingerprints would "
                "never match"
            )
        fps_signed = np.asarray(t["fp"], dtype=np.int64)
        sh = (fps_signed.astype(np.uint64) % np.uint64(self.n_shards)).astype(
            np.int64
        )
        ray.get(
            [
                self._shards[s].load.remote(
                    [int(f) for f in fps_signed[sh == s]]
                )
                for s in range(self.n_shards)
            ]
        )
        return self


class StreamingNearDupIndex:
    """Sharded cross-run NEAR-dup index: MinHash LSH band keys in the same
    actor shards the exact index uses.

    A document is dropped when ANY of its ``n_bands`` band keys is already
    claimed (standard LSH: two docs at jaccard j share a band with
    probability 1-(1-j^r)^b, r = num_hashes/n_bands); a kept document claims
    all of its band keys. Within a batch the rule is applied greedily in row
    order (exact). Across batches racing on DIFFERENT shards the check and
    the claim are not one atomic step, so two concurrently-ingested
    near-dups can occasionally both survive — the usual multi-writer
    dedup-index relaxation (a Bloom-filter dedupper has the same window);
    ingest days sequentially when that matters.

    Same replay defenses as :class:`StreamingDedupIndex`: results are
    materialized, and both phases carry the batch claim token —
    ``contains_excluding`` hides a replayed batch's own claims, so a task
    retry keeps exactly the rows the first attempt kept.

    Index memory: ``n_bands`` int64 keys per kept doc across all shards.
    """

    def __init__(
        self,
        *,
        n_shards: int = 16,
        num_hashes: int = 16,
        n_bands: int = 8,
        shingle_w: int = 24,
        seed: int = 7,
    ):
        if num_hashes % n_bands:
            raise ValueError("num_hashes must be divisible by n_bands")
        self.n_shards = n_shards
        self.num_hashes = num_hashes
        self.n_bands = n_bands
        self.shingle_w = shingle_w
        self.seed = seed
        self._shards = [_IndexShard.remote() for _ in range(n_shards)]

    def filter_new(
        self, ds: ray.data.Dataset, column: str
    ) -> ray.data.Dataset:
        """Rows not near-duplicating anything this index has seen (nor an
        earlier row of the same batch). Null/shingle-less texts always pass
        (no signature). Materialized before returning — see class docstring."""
        shards = self._shards
        n_shards = self.n_shards
        num_hashes, n_bands = self.num_hashes, self.n_bands
        shingle_w, seed = self.shingle_w, self.seed

        def fn(t: pa.Table) -> pa.Table:
            from mismo_ray._util import splitmix64
            from mismo_ray.dedupe import (
                band_keys_from_signatures,
                minhash_signatures_charhash_batch,
            )

            if len(t) == 0:
                return t
            texts = t[column].to_pylist()
            sig, valid = minhash_signatures_charhash_batch(
                texts, num_hashes=num_hashes, shingle_w=shingle_w, seed=seed
            )
            keys, valid = band_keys_from_signatures(sig, valid, n_bands=n_bands)
            # docs with no signature (null / shorter than one shingle) pass
            n_chars = pc.fill_null(pc.utf8_length(t[column]), 0)
            has_keys = valid & (n_chars.to_numpy() >= shingle_w)
            flat = keys[has_keys].ravel()
            with np.errstate(over="ignore"):
                tok = np.bitwise_xor.reduce(
                    splitmix64(
                        flat.astype(np.uint64)
                        ^ splitmix64(np.arange(len(flat), dtype=np.uint64))
                    )
                ) if len(flat) else np.uint64(1)
                if "record_id" in t.column_names:
                    tok ^= np.bitwise_xor.reduce(
                        hash64(t["record_id"], seed=0x1D)
                    )
            token = int(np.uint64(tok).astype(np.int64))
            if token == _RESTORED:
                token = 1
            # phase A: one membership call per touched shard, all keys
            sh = (flat.astype(np.uint64) % np.uint64(n_shards)).astype(np.int64)
            hit = np.zeros(len(flat), dtype=bool)
            futures, positions = [], []
            for s in np.unique(sh):
                pos = np.flatnonzero(sh == s)
                futures.append(
                    shards[int(s)].contains_excluding.remote(
                        flat[pos].tolist(), token
                    )
                )
                positions.append(pos)
            for pos, mask in zip(positions, ray.get(futures)):
                hit[pos] = np.asarray(mask, dtype=bool)
            # greedy in row order: keep unless a band key hits the index or
            # an earlier KEPT row of this batch
            keep = np.ones(len(t), dtype=bool)
            local: set[int] = set()
            j = 0
            claim: list[int] = []
            for i, ks in zip(
                np.flatnonzero(has_keys).tolist(), keys[has_keys].tolist()
            ):
                row_hit = False
                for b in range(n_bands):
                    if hit[j + b] or ks[b] in local:
                        row_hit = True
                if row_hit:
                    keep[i] = False
                else:
                    local.update(ks)
                    claim.extend(ks)
                j += n_bands
            # phase B: claim the kept rows' keys
            if claim:
                carr = np.array(claim, dtype=np.int64)
                csh = (carr.astype(np.uint64) % np.uint64(n_shards)).astype(
                    np.int64
                )
                ray.get(
                    [
                        shards[int(s)].add.remote(
                            carr[csh == s].tolist(), token
                        )
                        for s in np.unique(csh)
                    ]
                )
            return t.filter(pa.array(keep))

        return ds.map_batches(fn, batch_format="pyarrow").materialize()

    def n_seen_keys(self) -> int:
        return int(sum(ray.get([s.size.remote() for s in self._shards])))

    def shutdown(self) -> None:
        for s in self._shards:
            ray.kill(s)
        self._shards = []

    def snapshot(self, path: str) -> None:
        """Band keys + the sketch parameters they were computed under —
        restoring under different (num_hashes, n_bands, shingle_w, seed)
        would silently re-admit every known near-dup."""
        fps: list[int] = []
        for chunk in ray.get([s.dump.remote() for s in self._shards]):
            fps.extend(chunk)
        pq.write_table(
            pa.table(
                {"fp": pa.array(fps, type=pa.int64())},
                metadata={
                    "num_hashes": str(self.num_hashes),
                    "n_bands": str(self.n_bands),
                    "shingle_w": str(self.shingle_w),
                    "seed": str(self.seed),
                },
            ),
            path,
        )

    def restore(self, path: str) -> "StreamingNearDupIndex":
        t = pq.read_table(path)
        meta = {k.decode(): v.decode() for k, v in (t.schema.metadata or {}).items()}
        if meta:
            got = tuple(
                int(meta.get(k, -1))
                for k in ("num_hashes", "n_bands", "shingle_w", "seed")
            )
            want = (self.num_hashes, self.n_bands, self.shingle_w, self.seed)
            if got != want:
                raise ValueError(
                    f"near-dup snapshot params {got} != index params {want} "
                    "(num_hashes, n_bands, shingle_w, seed must all match)"
                )
        fps_signed = np.asarray(t["fp"], dtype=np.int64)
        sh = (fps_signed.astype(np.uint64) % np.uint64(self.n_shards)).astype(
            np.int64
        )
        ray.get(
            [
                self._shards[s].load.remote([int(f) for f in fps_signed[sh == s]])
                for s in range(self.n_shards)
            ]
        )
        return self


def incremental_neardup_filter(
    day: ray.data.Dataset,
    column: str,
    *,
    snapshot_in: str | None = None,
    snapshot_out: str | None = None,
    n_shards: int = 16,
    num_hashes: int = 16,
    n_bands: int = 8,
    shingle_w: int = 24,
    seed: int = 7,
) -> ray.data.Dataset:
    """One ingest step of an incremental cross-run NEAR-dedupe loop: restore
    the band-key index, drop near-dups of anything previously ingested,
    persist the updated index. The near analog of
    :func:`incremental_filter_new`."""
    import os

    idx = StreamingNearDupIndex(
        n_shards=n_shards,
        num_hashes=num_hashes,
        n_bands=n_bands,
        shingle_w=shingle_w,
        seed=seed,
    )
    if snapshot_in and os.path.exists(snapshot_in):
        idx.restore(snapshot_in)
    out = idx.filter_new(day, column)
    if snapshot_out:
        idx.snapshot(snapshot_out)
    idx.shutdown()
    return out


def incremental_filter_new(
    day: ray.data.Dataset,
    column: str,
    *,
    snapshot_in: str | None = None,
    snapshot_out: str | None = None,
    n_shards: int = 16,
    seed: int = 0,
    index: str = "exact",
    expected_keys: int = 1_000_000,
    fp_rate: float = 1e-6,
) -> ray.data.Dataset:
    """One ingest step of an incremental (cross-run) exact-dedupe loop.

    Restores the fingerprint index from ``snapshot_in`` (if it exists),
    drops every row of ``day`` whose content any earlier run — or an earlier
    batch of this run — already saw, and persists the updated index to
    ``snapshot_out``. The day-N job only ever touches day-N's data plus the
    index: no re-shuffle of history.

    ``index="exact"`` (default) holds ~60 B per distinct key and never errs;
    ``index="bloom"`` holds a constant ~1.2 bytes/key at ``fp_rate=1e-3``
    (sized by :func:`bloom_params` from ``expected_keys``/``fp_rate`` —
    size for the TOTAL keys the index will ever hold) and may drop a
    genuinely-new row at the false-positive rate, never the reverse. A
    snapshot is only restorable into an index of the same kind and sizing.
    """
    import os

    if index == "bloom":
        m, k = bloom_params(expected_keys, fp_rate)
        idx = StreamingBloomDedupIndex(
            n_bits=m, n_probes=k, n_shards=n_shards, seed=seed
        )
    elif index == "exact":
        idx = StreamingDedupIndex(n_shards=n_shards, seed=seed)
    else:
        raise ValueError(f"index must be 'exact' or 'bloom', got {index!r}")
    if snapshot_in and os.path.exists(snapshot_in):
        idx.restore(snapshot_in)
    out = idx.filter_new(day, column)
    if snapshot_out:
        idx.snapshot(snapshot_out)
    # the result is materialized and the index persisted — release the
    # actors instead of letting them outlive the ingest step
    idx.shutdown()
    return out


def bloom_params(expected_keys: int, fp_rate: float) -> tuple[int, int]:
    """Optimal Bloom sizing: bits m = -n ln p / (ln 2)^2, probes
    k = (m/n) ln 2. Returns (n_bits, n_probes)."""
    import math

    if expected_keys <= 0:
        raise ValueError("expected_keys must be positive")
    if not (0.0 < fp_rate < 1.0):
        raise ValueError("fp_rate must be in (0, 1)")
    m = int(math.ceil(-expected_keys * math.log(fp_rate) / (math.log(2) ** 2)))
    k = max(1, round(m / expected_keys * math.log(2)))
    return m, k


@ray.remote(num_cpus=0)
class _BloomShard:
    """A Bloom-filter index shard: ~``n_bits/8`` bytes regardless of key
    count, vs ~60 B/key for the exact dict shard — the memory trade for a
    100 TB incremental ingest (10 bits/key at 1% fp instead of 480).

    The cost is one-sided error: a false-positive bit pattern drops a
    genuinely-new row (never the reverse — a seen row is always dropped).
    Claim-token replay idempotency is kept by journaling, per recent
    token, the fingerprints that token claimed as new; the journal is an
    LRU over ``max_tokens`` batches (a replay arrives promptly or not at
    all), so the shard's memory stays bounded."""

    def __init__(self, n_bits: int, k: int, max_tokens: int = 256) -> None:
        self._m = int(n_bits)
        self._k = int(k)
        self._words = np.zeros((self._m + 63) // 64, dtype=np.uint64)
        self._journal: dict[int, set[int]] = {}
        self._order: list[int] = []
        self._max_tokens = max_tokens
        self._n_added = 0

    def _positions(self, fps: np.ndarray) -> np.ndarray:
        """(len(fps), k) bit positions via splitmix64 probe chains."""
        from mismo_ray._util import splitmix64

        u = fps.astype(np.uint64)
        cols = []
        with np.errstate(over="ignore"):
            for j in range(self._k):
                cols.append(
                    splitmix64(u ^ splitmix64(np.full(len(u), np.uint64(j + 1))))
                    % np.uint64(self._m)
                )
        return np.stack(cols, axis=1)

    def _journal_for(self, token: int) -> set[int]:
        j = self._journal.get(token)
        if j is None:
            j = set()
            self._journal[token] = j
            self._order.append(token)
            if len(self._order) > self._max_tokens:
                self._journal.pop(self._order.pop(0), None)
        return j

    def check_and_add(self, fps: list[int], token: int) -> list[bool]:
        """True where the fingerprint's bits were not all set (claim it) or
        where THIS token already claimed it (replay). Atomic per shard."""
        a = np.asarray(fps, dtype=np.int64)
        pos = self._positions(a)
        words, bits = pos >> 6, np.uint64(1) << (pos & np.uint64(63))
        journal = self._journal_for(token)
        out = []
        # per-row test against LIVE bit state (an earlier row of this same
        # call may have just set bits), k-element gather per row — same cost
        # class as the exact shard's per-row dict probe
        for i, f in enumerate(fps):
            w_i, b_i = words[i], bits[i]
            if bool(((self._words[w_i] & b_i) == b_i).all()):
                out.append(f in journal)
            else:
                # bitwise_or.at: two probes can land in the SAME word, and a
                # plain fancy-index |= would keep only one of their bits
                np.bitwise_or.at(self._words, w_i, b_i)
                journal.add(f)
                self._n_added += 1
                out.append(True)
        return out

    def size(self) -> int:
        """Adds observed by this shard (NOT distinct keys: false positives
        under-count, replays don't double-count)."""
        return self._n_added

    def dump_bits(self) -> np.ndarray:
        return self._words

    def load_bits(self, words: np.ndarray) -> None:
        if len(words) != len(self._words):
            raise ValueError(
                f"bloom snapshot has {len(words)} words, shard expects "
                f"{len(self._words)} — restore with the same n_bits/n_shards"
            )
        self._words |= np.asarray(words, dtype=np.uint64)


class StreamingBloomDedupIndex(StreamingDedupIndex):
    """Cross-run exact-dedupe index with Bloom-filter shards: constant
    ``n_bits/8`` bytes per shard instead of ~60 B per distinct key, at the
    price of a bounded false-positive rate (a genuinely-new row dropped).

    Size it with :func:`bloom_params`::

        m, k = bloom_params(expected_keys=10**9, fp_rate=1e-3)
        idx = StreamingBloomDedupIndex(n_bits=m, n_probes=k, n_shards=64)

    Same ``filter_new`` contract and claim-token replay protocol as
    :class:`StreamingDedupIndex` (the driver stage is shared; only the
    shard actor differs). ``n_seen`` reports adds, not distinct keys;
    ``snapshot``/``restore`` persist the bit arrays and require identical
    (n_bits, n_probes, n_shards, seed) on restore.
    """

    def __init__(
        self,
        *,
        n_bits: int = 1 << 24,
        n_probes: int = 7,
        n_shards: int = 16,
        seed: int = 0,
        max_tokens: int = 256,
    ):
        self.n_shards = n_shards
        self.seed = seed
        self.n_bits = int(n_bits)
        self.n_probes = int(n_probes)
        per_shard = (self.n_bits + n_shards - 1) // n_shards
        self._shards = [
            _BloomShard.remote(per_shard, self.n_probes, max_tokens)
            for _ in range(n_shards)
        ]

    def snapshot(self, path: str) -> None:
        """Persist the OR-able bit arrays (one row per shard) + sizing meta."""
        words = ray.get([s.dump_bits.remote() for s in self._shards])
        pq.write_table(
            pa.table(
                {
                    "shard": pa.array(range(len(words)), type=pa.int64()),
                    "words": pa.array(
                        [w.view(np.int64) for w in words],
                        type=pa.list_(pa.int64()),
                    ),
                },
                metadata={
                    "n_bits": str(self.n_bits),
                    "n_probes": str(self.n_probes),
                    "n_shards": str(self.n_shards),
                    "seed": str(self.seed),
                },
            ),
            path,
        )

    def restore(self, path: str) -> "StreamingBloomDedupIndex":
        t = pq.read_table(path)
        meta = {k.decode(): v.decode() for k, v in (t.schema.metadata or {}).items()}
        got = (
            int(meta.get("n_bits", -1)),
            int(meta.get("n_probes", -1)),
            int(meta.get("n_shards", -1)),
            int(meta.get("seed", -1)),
        )
        want = (self.n_bits, self.n_probes, self.n_shards, self.seed)
        if got != want:
            raise ValueError(
                f"bloom snapshot params {got} != index params {want} "
                "(n_bits, n_probes, n_shards, seed must all match)"
            )
        futures = []
        for row in range(t.num_rows):
            shard = int(t["shard"][row].as_py())
            words = np.asarray(
                t["words"][row].as_py(), dtype=np.int64
            ).view(np.uint64)
            futures.append(self._shards[shard].load_bits.remote(words))
        ray.get(futures)
        return self
