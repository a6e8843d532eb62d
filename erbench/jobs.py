"""The ER jobs the benchmark runs, through the program's public calls.

Each job reads the workload's Parquet pages and ends when the labeled
records ``(record_id, component)`` are materialized and counted. With a
``Tracer`` that is on, the same calls run with a ``materialize()`` at every
layer boundary, each inside a span named after the ``mismo_ray`` module that
does the work; with it off the spans and pins are no-ops.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from mismo_ray import KeyLinker, OrLinker, SortedNeighborhoodLinker
from mismo_ray.cluster import connected_components
from mismo_ray.fs import train_using_em
from mismo_ray.pipelines import add_extracted_text, featurize, run_er_pipeline
from mismo_ray.pipelines._webpages import (
    PAIR_COLUMNS,
    SKETCH_PAIR_COLUMNS,
    add_sketches,
    fixed_weights,
    sketch_comparers,
    sn_key,
    webpage_comparers,
)
from mismo_ray.state.resume import PART_COL, resume_map_partitions, write_partitioned
from mismo_ray.types import Linkage
from proctree import tree_cpu_s

# run_er_pipeline's defaults, spelled out so the traced mirror passes the same
FLAGSHIP_THRESHOLD = 50.0
FLAGSHIP_TRAIN_PAIRS = 200_000
FLAGSHIP_SN_WINDOW = 3
FLAGSHIP_EM_SEED = 42
FLAGSHIP_PARTS = 2  # scored partitions per checkpoint; half are deleted
SKETCH_THRESHOLD = 10.0
LABEL_COLUMNS = ["record_id", "component"]


class Tracer:
    """In-memory spans (name, start, end, parent, job) and per-job counts."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.job = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def pin(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.materialize() if self.on else ds

    def count(self, name: str, value: float) -> None:
        if self.on:
            self.counts[(self.job, name)] = value

    def self_times(self, job: int) -> dict[str, float]:
        """Seconds per span name for one job: each span's duration minus the
        part of it its children cover (children never overlap: one thread)."""
        spans = [s for s in self.spans if s["job"] == job]
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


@dataclass
class JobResult:
    job_s: float  # wall time
    job_cpu_s: float  # CPU time of the driver and all Ray processes
    labeled: pa.Table  # record_id, component
    links: pa.Table  # record_id_l, record_id_r of the emitted matches
    candidate_pairs: int
    salted_keys: int = 0
    resume: dict = field(default_factory=dict)


def to_table(ds: ray.data.Dataset, columns: list[str]) -> pa.Table:
    parts = [t.select(columns) for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({c: pa.array([], pa.int64()) for c in columns})
    return pa.concat_tables(parts)


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


def _pages(pages_dir: str, tr: Tracer, pin_all: bool = False) -> ray.data.Dataset:
    with tr.span("io.read"):
        raw = tr.pin(ray.data.read_parquet(pages_dir))
    with tr.span("pipelines.extract"):
        pages = tr.pin(add_extracted_text(raw))
    with tr.span("pipelines.featurize"):
        # run_er_pipeline reads the pages once per linker, join and sample,
        # so a flagship job pins them once, traced or not
        pages = featurize(pages)
        pages = pages.materialize() if pin_all else tr.pin(pages)
    if tr.on:
        tr.count("pipelines.rows", pages.count())
    return pages


def _label(labeled: ray.data.Dataset) -> ray.data.Dataset:
    labeled = labeled.select_columns(LABEL_COLUMNS).materialize()
    labeled.count()
    return labeled


# ------------------------------------------------------------------ flagship
def flagship_job(pages_dir: str, ckpt: str, tr: Tracer) -> JobResult:
    """run_er_pipeline with per-partition checkpoints. A traced job then
    deletes half of the scored partitions and resumes from the checkpoint."""
    t0, c0 = time.perf_counter(), tree_cpu_s()
    with tr.span("job"):
        if tr.on:
            out = _flagship_mirror(_pages(pages_dir, tr, pin_all=True), ckpt, tr)
        else:
            out = run_er_pipeline(
                _pages(pages_dir, tr, pin_all=True),
                checkpoint_dir=ckpt,
                resume_partitions=FLAGSHIP_PARTS,
                seed=FLAGSHIP_EM_SEED,
            )
        with tr.span("cluster.cc"):
            labeled = _label(out["records"])
    job_s, job_cpu_s = time.perf_counter() - t0, tree_cpu_s() - c0
    ckpt_bytes = dir_bytes(ckpt)
    pairs_dir = os.path.join(ckpt, "pairs")
    candidate_pairs = sum(
        pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
        for root, _, files in os.walk(pairs_dir)
        for f in files
        if f.endswith(".parquet")
    )
    result = JobResult(
        job_s=job_s,
        job_cpu_s=job_cpu_s,
        labeled=to_table(labeled, LABEL_COLUMNS),
        links=to_table(out["links"], ["record_id_l", "record_id_r"]),
        candidate_pairs=candidate_pairs,
    )
    if not tr.on:
        return result

    # partial resume: drop every other scored partition and the stages
    # downstream of scoring, then finish the job from the checkpoint
    for p in range(0, FLAGSHIP_PARTS, 2):
        shutil.rmtree(os.path.join(ckpt, "scored_parts", f"part_{p}"))
    shutil.rmtree(os.path.join(ckpt, "scored_linkage"))
    shutil.rmtree(os.path.join(ckpt, "cc"), ignore_errors=True)
    with tr.span("state.resume"):
        pages = featurize(add_extracted_text(ray.data.read_parquet(pages_dir)))
        again = run_er_pipeline(
            pages,
            checkpoint_dir=ckpt,
            resume_partitions=FLAGSHIP_PARTS,
            seed=FLAGSHIP_EM_SEED,
        )
        relabeled = _label(again["records"])
    result.resume = {
        "ckpt_bytes": ckpt_bytes,
        "labeled": to_table(relabeled, LABEL_COLUMNS),
        "links": to_table(again["links"], ["record_id_l", "record_id_r"]),
        "parts_computed": again["counters"].get("partitions_computed", 0),
        "parts_skipped": again["counters"].get("partitions_skipped", 0),
    }
    return result


def _flagship_mirror(
    pages: ray.data.Dataset, checkpoint_dir: str, tr: Tracer
) -> dict:
    """run_er_pipeline's fresh-checkpoint path: the same public calls with the
    same arguments in the same order, one span per layer."""
    comparers = webpage_comparers()
    pairs_ckpt = f"{checkpoint_dir}/pairs"
    ckpt = f"{checkpoint_dir}/scored_linkage"
    counters: dict = {}
    with tr.span("linker.block"):
        key_linker = KeyLinker(
            ["domain", "path_stem"], max_pairs=1_000_000,
            salt_rows=None, count_prepass=False,
        )
        sn_linker = SortedNeighborhoodLinker(sn_key(), window=FLAGSHIP_SN_WINDOW)
        blocker = OrLinker([key_linker, sn_linker])
        linkage = blocker(pages, pages)
        counters["blocking"] = dict(blocker.last_counters)
        linkage = Linkage(
            left=pages,
            right=pages,
            links=linkage.links_ds.materialize(),
            links_schema=linkage.links.schema,
        )
    with tr.span("linkage.attach"):
        pairs = tr.pin(linkage.links.with_both(PAIR_COLUMNS, PAIR_COLUMNS))
    with tr.span("fs.train"):
        weights = train_using_em(
            comparers, pages, pages, max_pairs=FLAGSHIP_TRAIN_PAIRS,
            seed=FLAGSHIP_EM_SEED, columns=PAIR_COLUMNS,
        )
    with tr.span("state.write"):
        os.makedirs(checkpoint_dir, exist_ok=True)
        weights.to_json(f"{checkpoint_dir}/weights.json")
        write_partitioned(
            pairs, pairs_ckpt,
            key_columns=["record_id_l", "record_id_r"],
            n_parts=FLAGSHIP_PARTS,
        )

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["odds"], FLAGSHIP_THRESHOLD))

    def score_partition(ds_p: ray.data.Dataset) -> ray.data.Dataset:
        def drop_part(t: pa.Table) -> pa.Table:
            return t.drop_columns([PART_COL]) if PART_COL in t.column_names else t

        scored_p = weights.compare_and_score(
            ds_p.map_batches(drop_part, batch_format="pyarrow"), comparers
        )
        return scored_p.map_batches(keep, batch_format="pyarrow")

    with tr.span("state.score_parts"):
        matches = resume_map_partitions(
            pairs_ckpt,
            f"{checkpoint_dir}/scored_parts",
            score_partition,
            counters=counters,
        ).materialize()
        counters["pairs_matched"] = matches.count()
    with tr.span("state.write"):
        os.makedirs(ckpt, exist_ok=True)
        matches.write_parquet(f"{ckpt}/links")
        with open(f"{ckpt}/manifest.json", "w") as f:
            json.dump(
                {"format": "mismo_ray.Linkage.links_only", "counters": counters},
                f,
                indent=2,
            )
        matches = ray.data.read_parquet(f"{ckpt}/links")
    with tr.span("cluster.cc"):
        labeled = connected_components(
            links=matches,
            records=pages,
            label_as="component",
            checkpoint_dir=f"{checkpoint_dir}/cc",
        )
    return {"records": labeled, "links": matches, "weights": weights}


# ------------------------------------------------------ sketch workloads
def sketch_job(pages_dir: str, salt_rows: int | None, tr: Tracer) -> JobResult:
    """Sketches carried through the KeyLinker shuffle, fixed-weight scoring,
    threshold, connected components over the input record ids."""
    t0, c0 = time.perf_counter(), tree_cpu_s()
    with tr.span("job"):
        pages = _pages(pages_dir, tr)
        with tr.span("pipelines.sketch"):
            pages = tr.pin(add_sketches(pages))
        with tr.span("linker.block"):
            linker = KeyLinker(
                ["domain", "path_stem"], salt_rows=salt_rows,
                carry=SKETCH_PAIR_COLUMNS,
            )
            links = tr.pin(linker(pages, pages).links_ds)
        with tr.span("fs.score"):
            weights = fixed_weights()
            scored = (
                weights.compare_and_score(links, sketch_comparers())
                .select_columns(["record_id_l", "record_id_r", "odds"])
                .materialize()
            )
            candidate_pairs = scored.count()

            def keep(t: pa.Table) -> pa.Table:
                return t.filter(pc.greater_equal(t["odds"], SKETCH_THRESHOLD))

            matches = tr.pin(scored.map_batches(keep, batch_format="pyarrow"))
        with tr.span("cluster.cc"):
            records = ray.data.read_parquet(pages_dir, columns=["record_id"])
            labeled = _label(
                connected_components(
                    links=matches, records=records, label_as="component"
                )
            )
    job_s, job_cpu_s = time.perf_counter() - t0, tree_cpu_s() - c0
    return JobResult(
        job_s=job_s,
        job_cpu_s=job_cpu_s,
        labeled=to_table(labeled, LABEL_COLUMNS),
        links=to_table(matches, ["record_id_l", "record_id_r"]),
        candidate_pairs=candidate_pairs,
        salted_keys=int(linker.last_counters.get("salted_keys", 0)),
    )
