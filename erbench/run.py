"""One-command ER benchmark: one workload per run, in a fresh Ray session.

    python3 erbench/run.py --workload flagship --seed 1 --seconds 15 --trace 0

Generates the workload's web-page Parquet from ``--seed``, starts Ray with
``num_cpus`` = what ``nproc`` reports, runs one untimed warm-up job, then runs
ER jobs back to back (a closed loop with one client) for ``--seconds``. Every
job's output is checked (checks.py); a job that raises or fails a check counts
as failed. The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (see README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the program under test, from this checkout; without it the import below
# fails and the run exits before any set-up
sys.path.insert(0, ROOT)

import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
from proctree import descendants, tree_peak_rss_mb  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# the end-to-end and per-layer metrics BENCHMARK.json lists, with their units
E2E_UNITS = {
    "setup_s": "s",
    "job_cpu_s": "s",
    "pages_per_cpu_s": "pages/cpu_s",
    "pairs_per_cpu_s": "pairs/cpu_s",
    "pairwise_f1": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "io.read_s": "s",
    "pipelines.extract_s": "s",
    "pipelines.featurize_s": "s",
    "pipelines.sketch_s": "s",
    "pipelines.rows": "count",
    "linker.block_s": "s",
    "linker.candidate_pairs": "count",
    "linker.salted_keys": "count",
    "linker.pair_yield": "ratio",
    "linkage.attach_s": "s",
    "fs.train_s": "s",
    "fs.score_s": "s",
    "fs.pairs_scored": "count",
    "cluster.cc_s": "s",
    "cluster.edges": "count",
    "cluster.components": "count",
    "state.write_s": "s",
    "state.score_parts_s": "s",
    "state.parts_computed": "count",
    "state.parts_skipped": "count",
    "state.resume_s": "s",
    "state.ckpt_mb": "MB",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# the program's own environment settings; a leftover value would change
# every shuffle's partition count
PROGRAM_ENV = ("MISMO_RAY_NUM_PARTITIONS", "GRAFT_")
# Ray's session sockets live under its temp dir; AF_UNIX paths stop at 107
# bytes and the session adds ~62, so a longer checkout path keeps Ray's default
RAY_TMP_MAX = 44
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def become_subreaper() -> None:
    """Make this process adopt its orphaned descendants (Linux
    PR_SET_CHILD_SUBREAPER), so a Ray worker whose raylet has exited stays
    in this process's tree, where ``stop_descendants`` finds and reaps it."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 10.0) -> None:
    """Wait for every process below this one to end: ``ray.shutdown`` signals
    the Ray processes but does not wait for them. Whatever is still running
    after ``grace_s`` gets SIGTERM, then SIGKILL; every child is reaped, so
    the run leaves neither a process nor a zombie behind. Gives up after
    ``grace_s`` + 20 s, so that a process no signal ends cannot hang the run."""
    t0 = time.monotonic()
    sig = None
    while True:
        reap()
        pids = descendants()
        waited = time.monotonic() - t0
        if not pids or waited > grace_s + 20:
            return
        if waited > grace_s + 5:
            sig = signal.SIGKILL
        elif waited > grace_s:
            sig = signal.SIGTERM
        if sig is not None:
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        time.sleep(0.05)


def nproc() -> int:
    """The CPU count ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def start_ray(tmp: str) -> None:
    ray_tmp = os.path.join(tmp, "ray")
    # Ray runs its workers at nice 15 by default, so on a shared host any
    # other busy process takes their CPU first: three busy loops beside a
    # hot_key run doubled its job_s at nice 15 and left it unchanged at 0.
    # The raylet reads this from the environment it inherits.
    os.environ["RAY_worker_niceness"] = "0"
    # "local" always starts a new cluster; with no address, ray.init would
    # join any Ray cluster already running on the host
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level=logging.ERROR,
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        _temp_dir=ray_tmp if len(ray_tmp) <= RAY_TMP_MAX else None,
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    def __init__(self, workload, seed: int, tmp: str):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.n_jobs = 0
        self.attempted = self.failed = self.wrong = 0

    def setup(self) -> float:
        """Input generation, Ray start and one warm-up job; returns seconds."""
        t0 = time.perf_counter()
        self.inp = generate(self.w, self.seed, os.path.join(self.tmp, "input"))
        start_ray(self.tmp)
        self.run(jobs.Tracer(False))
        setup_s = time.perf_counter() - t0
        self.ref = {
            "ids": checks.input_ids(self.inp["pages_dir"]),
            "key_pairs": checks.key_pairs(self.inp["pages_dir"]),
            "truth": pq.read_table(self.inp["truth"]),
            "sn_window": jobs.FLAGSHIP_SN_WINDOW,
            "resume_parts": (jobs.FLAGSHIP_PARTS // 2, jobs.FLAGSHIP_PARTS // 2),
        }
        return setup_s

    def run(self, tr):
        """One job; each job checkpoints into a fresh directory."""
        # free the previous job's datasets, which reference cycles keep alive
        # (and their blocks pinned in the object store) until a collection
        gc.collect()
        self.n_jobs += 1
        tr.job = self.n_jobs
        pages_dir = self.inp["pages_dir"]
        if self.w.name == "flagship":
            ckpt = os.path.join(self.tmp, f"ckpt-{self.n_jobs}")
            try:
                return jobs.flagship_job(pages_dir, ckpt, tr)
            finally:
                shutil.rmtree(ckpt, ignore_errors=True)
        return jobs.sketch_job(pages_dir, self.w.salt_rows, tr)

    def attempt(self, tr, same_as=None):
        """A job plus its checks; returns the result, or None if it failed.

        A job that raises counts as failed; one whose output fails a check
        (or, with ``same_as``, differs from that job's output) counts as
        failed and as wrong.
        """
        self.attempted += 1
        try:
            result = self.run(tr)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        errors = checks.check_job(result, self.ref, self.w.name)
        if same_as is not None:
            errors += checks.same_output(result, same_as)
        if errors:
            print(f"job {self.attempted} failed: {errors}", file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return None
        return result


def end_to_end(bench: Bench, setup_s: float, seconds: float) -> dict:
    pages = bench.inp["pages"]
    cpu_s, pps, sps, f1 = [], [], [], []
    t0 = time.perf_counter()
    while bench.attempted == 0 or time.perf_counter() - t0 < seconds:
        result = bench.attempt(jobs.Tracer(False))
        if result is None:
            continue
        cpu_s.append(result.job_cpu_s)
        pps.append(pages / result.job_cpu_s)
        sps.append(result.candidate_pairs / result.job_cpu_s)
        f1.append(checks.pairwise_f1(result.labeled, bench.ref["truth"]))
    values = {"setup_s": setup_s, "peak_rss_mb": tree_peak_rss_mb()}
    if cpu_s:
        values.update(
            job_cpu_s=median(cpu_s),
            pages_per_cpu_s=median(pps),
            pairs_per_cpu_s=median(sps),
            pairwise_f1=median(f1),
        )
    return {
        name: metric(values[name], unit)
        for name, unit in E2E_UNITS.items()
        if name in values
    }


def per_layer(bench: Bench, seconds: float, spans_path: str) -> dict:
    """One untraced reference job, then traced jobs for ``seconds``; each
    traced job must reproduce the reference's links and partition."""
    ref = bench.attempt(jobs.Tracer(False))
    if ref is None:
        return {}
    tr = jobs.Tracer(True)
    rows: list[dict] = []
    t0 = time.perf_counter()
    while not rows or time.perf_counter() - t0 < seconds:
        result = bench.attempt(tr, same_as=ref)
        if result is None:
            break
        rows.append({"job": tr.job, **layer_row(tr, result)})
    with open(spans_path, "w") as f:
        json.dump({"spans": tr.spans, "jobs": rows}, f)
    if not rows:
        return {}
    metrics = {
        name: metric(median([r.get(name, 0.0) for r in rows]), unit)
        for name, unit in LAYER_UNITS.items()
    }
    overhead = metrics["trace.job_s"]["value"] - ref.job_s
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def layer_row(tr, result) -> dict:
    """Per-layer figures of the traced job just run."""
    self_s = tr.self_times(tr.job)
    job_span = next(
        s for s in tr.spans if s["job"] == tr.job and s["name"] == "job"
    )
    wall = job_span["end"] - job_span["start"]
    row = {f"{name}_s": v for name, v in self_s.items() if name != "job"}
    row.update({name: v for (job, name), v in tr.counts.items() if job == tr.job})
    comps = len(set(result.labeled["component"].to_pylist()))
    row.update(
        {
            "trace.job_s": wall,
            "trace.coverage": 1 - self_s["job"] / wall,
            "linker.candidate_pairs": result.candidate_pairs,
            "linker.salted_keys": result.salted_keys,
            "linker.pair_yield": len(result.links) / max(result.candidate_pairs, 1),
            "fs.pairs_scored": result.candidate_pairs,
            "cluster.edges": len(result.links),
            "cluster.components": comps,
        }
    )
    if result.resume:
        row["state.ckpt_mb"] = result.resume["ckpt_bytes"] / 2**20
        row["state.parts_computed"] = result.resume["parts_computed"]
        row["state.parts_skipped"] = result.resume["parts_skipped"]
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for key in list(os.environ):
        if key.startswith(PROGRAM_ENV):
            del os.environ[key]

    become_subreaper()
    tmp = tempfile.mkdtemp(prefix=".erbench-", dir=ROOT)
    bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
    try:
        setup_s = bench.setup()
        if args.trace:
            spans = os.path.join(
                ROOT, ".erbench_spans", f"{args.workload}-{args.seed}.json"
            )
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            metrics = per_layer(bench, args.seconds, spans)
        else:
            metrics = end_to_end(bench, setup_s, args.seconds)
    finally:
        ray.shutdown()
        stop_descendants()
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
