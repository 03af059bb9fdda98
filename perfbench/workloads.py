"""The four workloads: one closed round of calls each, repeated.

Every workload has the same life cycle:

- ``start`` + ``prepare``: Ray start, plan compile and warm-up (the
  set-up the user waits for before the first operation);
- ``round``: the timed operations, returning their wall times and the
  outputs the checks read;
- ``expect`` + ``problems``: the same answers computed without the
  engine (``checks.py``), compared with every round's outputs;
- ``replica`` + ``probes`` (traced run only): the workload's public
  engine calls in the same order under spans, then single-layer
  probes over the workload's batches.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

from inputs import EVENTS_ROWS

KEYS = ["conv_id", "turn_idx"]

# The schema-form dependency routes every row to the row interpreter
# (TablePlan.full_row_fallback).
TOOL_DEPENDENCY = {"tool": {"properties": {"role": {"enum": ["tool"]}}}}

# Far above what any workload keeps in flight (the largest corpus is
# ~50 MB of Arrow data). A larger store makes the raylet slower to
# register, and Ray waits a whole second whenever its first look for
# the new node misses it.
OBJECT_STORE_BYTES = 256 << 20

REGISTRY_QUERIES = [
    "events_value_interp",
    "user_event_ntile",
    "user_range_sum_1h",
    "events_prev_value",
    "running_user_spend",
    "events_value_locf",
    "user_session_table",
    "events_rolling_median",
]


def available_cpus() -> int:
    """CPUs available to this process as ``nproc`` counts them: the
    affinity mask, capped by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT``
    when the environment sets them (a host that grants one CPU may
    say so this way while the mask still lists every core)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            n = min(n, int(os.environ[var]))
    return n


def busy_seconds(t0: float, t1: float) -> float:
    """Seconds in which at least one Ray task that started in the
    wall-clock window [t0, t1] was executing, from the cluster's task
    events. Tasks can overlap, so this is the union of their
    intervals, not their sum. Method calls of Ray's own bookkeeping
    actors are left out."""
    import ray

    time.sleep(2.0)  # task events reach the GCS about once a second
    spans = []
    for e in ray.timeline():
        cat = e.get("cat", "")
        if e.get("ph") != "X" or not cat.startswith("task::"):
            continue
        if "Actor" in cat or "AutoscalingRequester" in cat:
            continue
        if t0 * 1e6 <= e["ts"] <= t1 * 1e6:
            spans.append((e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6))
    busy, end = 0.0, float("-inf")
    for s, e in sorted(spans):
        if e > end:
            busy += e - max(s, end)
            end = e
    return busy


class Workload:
    name = ""
    # set-ups per timed run, each on a new cluster; set-up time is
    # their mean
    setups = 2

    def __init__(self, root: str, inputs: str, out: str):
        self.root = root
        self.inputs = inputs
        self.out = out
        self.rows = 0

    # -- set-up ------------------------------------------------------
    def start(self, tr) -> None:
        import ray

        with tr.span("ray.init"):
            ray.init(address="local", num_cpus=available_cpus(),
                     include_dashboard=False, log_to_driver=False,
                     object_store_memory=OBJECT_STORE_BYTES)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def prepare(self, tr) -> None:
        raise NotImplementedError

    # -- timed -------------------------------------------------------
    def round(self) -> dict:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that calls the engine:
        this one, read before the checks run."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks ------------------------------------------------------
    def expect(self, con) -> None:
        raise NotImplementedError

    def problems(self, rounds: List[dict]) -> List[str]:
        raise NotImplementedError

    # -- traced run --------------------------------------------------
    def replica(self, tr) -> dict:
        raise NotImplementedError

    def probes(self, tr) -> None:
        pass

    def layers(self, tr) -> Dict[str, float]:
        return {}


class _Transcripts(Workload):
    """Shared parts of the three transcript workloads; subclasses set
    ``schema``, ``files`` and ``rows``."""

    def compile(self, tr):
        from json_schema_ray.engine.validate import compile_plan_for

        with tr.span("plan.compile"):
            self.plan = compile_plan_for(
                self.schema, pq.read_schema(self.files[0]),
                key_columns=KEYS)

    def expect(self, con) -> None:
        from checks import expected_validation

        self.expected = expected_validation(con, self.files, self.schema)

    def probes(self, tr) -> None:
        """Single-layer figures over this workload's batches: the read
        floor through Ray, then each kernel in this process on one
        thread, in Parquet row-group batches as the manifest pass
        reads them."""
        import ray

        from json_schema_ray.engine.keys import ordering_batch_parts
        from json_schema_ray.engine.stats import _column_partial
        from json_schema_ray.engine.table_validator import (
            _batch_documents, validate_batch, verdict_mask)
        from json_schema_ray.interpreter import Validator

        with tr.span("ray.read_parquet", rows_in=self.rows) as s:
            n = 0
            for b in ray.data.read_parquet(self.files).iter_batches(
                    batch_format="pyarrow", batch_size=None):
                n += b.num_rows
            s["rows_out"] = n
        batches = [pa.Table.from_batches([rb]) for f in self.files
                   for rb in pq.ParquetFile(f).iter_batches()]
        plan = self.plan
        with tr.span("table_validator.validate_batch",
                     rows_in=self.rows) as s:
            s["rows_out"] = sum(validate_batch(b, plan).num_rows
                                for b in batches)
        with tr.span("table_validator.verdict_mask",
                     rows_in=self.rows) as s:
            s["rows_out"] = int(sum(verdict_mask(b, plan).sum()
                                    for b in batches))
        with tr.span("stats.column_stats", rows_in=self.rows):
            for b in batches:
                for name in b.column_names:
                    _column_partial(name, b[name], 12, False)
        with tr.span("keys.ordering_batch_parts", rows_in=self.rows):
            for b in batches:
                ordering_batch_parts(b, "conv_id", "turn_idx", "ts")
        self.interpreter_rows = self._interpreter_rows(batches)
        if self.interpreter_rows:
            docs = [d for b in batches for d in _batch_documents(b)]
            with tr.span("interpreter.validate", rows_in=len(docs)):
                # one Validator for all rows, as validate_batch does
                v = Validator(plan.schema)
                for d in docs:
                    v.validate(d)

    def _interpreter_rows(self, batches) -> int:
        """Rows the plan hands to the row interpreter. The workloads'
        schemas either lower to Arrow entirely or fall back for whole
        rows; a per-column fallback would need its own probe."""
        if any(cp.fallback_schema is not None for cp in self.plan.columns):
            raise ValueError("per-column interpreter fallback is not probed")
        if self.plan.full_row_fallback:
            return sum(b.num_rows for b in batches)
        return 0

    def kernel_layers(self, tr) -> Dict[str, float]:
        vb = tr.total("table_validator.validate_batch")
        interp = tr.total("interpreter.validate")
        return {
            "ray.read_parquet_s": tr.total("ray.read_parquet"),
            "table_validator.validate_batch_s": vb,
            "table_validator.verdict_mask_s":
                tr.total("table_validator.verdict_mask"),
            "table_validator.interpreter_rows": self.interpreter_rows,
            "table_validator.vectorized_share":
                1.0 - self.interpreter_rows / self.rows,
            "interpreter.validate_s": interp,
            "table_validator.row_marshal_s":
                vb - interp if self.interpreter_rows else 0.0,
            "stats.column_stats_s": tr.total("stats.column_stats"),
            "keys.ordering_batch_parts_s":
                tr.total("keys.ordering_batch_parts"),
        }


class JobFlat(_Transcripts):
    """``jobs/validate_transcripts.py`` as a user runs it: fresh, then
    ``--resume`` over the finished output, then the drift step over
    the nullable ``tool`` column, kept outside the job."""

    name = "job_flat"
    ops_per_round = 3
    # its set-up is only the cluster start and the compile, so four
    # samples cost less than a scan's two
    setups = 4

    def __init__(self, root, inputs, out):
        super().__init__(root, inputs, out)
        from json_schema_ray.sources.transcripts import VALIDATION_SCHEMA

        self.schema = VALIDATION_SCHEMA
        self.corpus = os.path.join(inputs, "corpus")
        self.files = sorted(glob.glob(os.path.join(self.corpus,
                                                   "*.parquet")))
        self.profile_path = os.path.join(inputs, "profile.json")
        with open(self.profile_path) as fh:
            self.profile = json.load(fh)
        self.rows = sum(pq.ParquetFile(f).metadata.num_rows
                        for f in self.files)
        self.job_out = os.path.join(out, "job_run")
        self.job_log = os.path.join(out, "job.log")
        open(self.job_log, "w").close()  # this run's jobs only
        self.job_peak_mb = 0.0

    def prepare(self, tr) -> None:
        # each job is a driver of its own and starts its own workers,
        # so nothing in this process can warm it: set-up is the
        # cluster start and the plan compile
        self.compile(tr)

    # the job is a driver of its own, attached to this cluster as a
    # submitted job would be
    def run_job(self, out: str, resume: bool) -> dict:
        import ray

        env = dict(os.environ,
                   RAY_ADDRESS=ray.get_runtime_context().gcs_address)
        cmd = [sys.executable, os.path.join("jobs", "validate_transcripts.py"),
               "--input", self.corpus, "--out", out,
               "--profile", self.profile_path]
        if resume:
            cmd.append("--resume")
        with open(self.job_log, "a") as log:
            start = log.tell()
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=self.root, env=env,
                                 stdout=log, stderr=log)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.job_peak_mb = max(self.job_peak_mb, usage.ru_maxrss / 1024)
        summary = None
        path = os.path.join(out, "summary.json")
        if os.path.exists(path):
            with open(path) as fh:
                summary = json.load(fh)
        tail = ""
        if p.returncode != 1 or summary is None:
            # this job's last words, for the check that will fail
            with open(self.job_log, errors="replace") as fh:
                fh.seek(start)
                tail = " | ".join(fh.read().strip().splitlines()[-3:])
        return {"wall": wall, "rc": p.returncode, "summary": summary,
                "tail": tail}

    def peak_rss_mb(self) -> float:
        """The jobs' own processes, largest of the run."""
        return self.job_peak_mb

    def drift_tool(self) -> dict:
        """Drift over the nullable ``tool`` column, on an input that
        does not depend on the seed: four blocks of alternating null
        and non-null tool names."""
        import ray

        from json_schema_ray.engine.drift import ReferenceProfile

        t = pa.table({"tool": [None if i % 2 == 0 else "search"
                               for i in range(400)]})
        ds = ray.data.from_arrow([t.slice(i * 100, 100) for i in range(4)])
        t0 = time.perf_counter()
        try:
            prof = ReferenceProfile.build(ds, categorical=["tool"])
            report = prof.compare(ds).to_pylist()
        except TypeError:
            return {"wall": time.perf_counter() - t0, "failed": True}
        return {"wall": time.perf_counter() - t0, "failed": False,
                "histogram": prof.histograms["tool"], "report": report}

    def round(self) -> dict:
        from checks import violation_counts

        shutil.rmtree(self.job_out, ignore_errors=True)
        fresh = self.run_job(self.job_out, resume=False)
        fresh_counts = violation_counts(
            os.path.join(self.job_out, "violations"))
        resume = self.run_job(self.job_out, resume=True)
        drift = self.drift_tool()
        # both jobs validate every turn in their fused pass (resume
        # skips only the per-fragment manifest pass)
        return {
            "attempted": self.ops_per_round,
            "failed": int(drift["failed"]),
            "rows": 2 * self.rows,
            "op_s": fresh["wall"] + resume["wall"],
            "round_s": fresh["wall"] + resume["wall"] + drift["wall"],
            "fresh": fresh, "resume": resume, "drift": drift,
            "counts": fresh_counts,
        }

    def expect(self, con) -> None:
        from checks import expected_drift

        super().expect(con)
        self.expected_drift = expected_drift(con, self.files, self.profile)

    def problems(self, rounds) -> List[str]:
        from checks import drift_problems, summary_problems

        out = []
        n_frag = len(self.files)
        for i, r in enumerate(rounds):
            fresh, resume = r["fresh"]["summary"], r["resume"]["summary"]
            # exit 1 is the job's answer for a corpus with invalid rows
            crashed = [f"round {i} {run} job: exit {r[run]['rc']}: "
                       f"{r[run]['tail']}" for run in ("fresh", "resume")
                       if r[run]["rc"] != 1 or r[run]["summary"] is None]
            if crashed:
                out += crashed
                continue
            out += summary_problems(fresh, self.expected)
            out += drift_problems(fresh.get("drift", []),
                                  self.expected_drift)
            if r["counts"] != self.expected["per_type"]:
                out.append(f"violations by error_type {r['counts']} != "
                           f"{self.expected['per_type']}")
            if (fresh["fragments"], fresh["fragments_skipped"]) != \
                    (n_frag, 0):
                out.append(f"fresh run fragments {fresh['fragments']}")
            if (resume["fragments"], resume["fragments_skipped"]) != \
                    (0, n_frag):
                out.append("resume did not skip every fragment: "
                           f"{resume['fragments_skipped']} of {n_frag}")
            same = {k: v for k, v in resume.items()
                    if not k.startswith("fragments")}
            if same != {k: v for k, v in fresh.items()
                        if not k.startswith("fragments")}:
                out.append("resume summary differs from the fresh one")
            d = r["drift"]
            if not d["failed"]:
                want = {"None": 200, "search": 200}
                if d["histogram"] != want or any(
                        x["value"] != 0.0 for x in d["report"]):
                    out.append(f"drift_tool: {d['histogram']}")
        return out

    def replica(self, tr) -> dict:
        """The job's engine calls, in the job's order, fresh and then
        resumed, followed by the drift step."""
        import ray

        from json_schema_ray.engine.drift import ReferenceProfile
        from json_schema_ray.engine.keys import uniqueness_violations
        from json_schema_ray.engine.manifest import run_resumable_validation
        from json_schema_ray.engine.validate import (
            compile_plan_for, full_validation_pass)

        out = os.path.join(self.out, "replica_run")
        shutil.rmtree(out, ignore_errors=True)
        res = {}
        for phase in ("job.fresh", "job.resume"):
            with tr.span(phase):
                with tr.span("plan.compile"):
                    plan = compile_plan_for(
                        self.schema, pq.read_schema(self.files[0]),
                        key_columns=KEYS)
                name = ("manifest.run_resumable_validation"
                        if phase == "job.fresh" else "manifest.resume")
                with tr.span(name, rows_in=self.rows) as s:
                    m = run_resumable_validation(self.files, out, plan)
                    s["rows_out"] = m["violations"]
                with tr.span("validate.full_validation_pass",
                             rows_in=self.rows) as s:
                    fused = full_validation_pass(
                        ray.data.read_parquet(self.files), plan,
                        presorted=False)
                    s["rows_out"] = fused["violation_rows"]
                with tr.span("keys.uniqueness_violations",
                             rows_in=self.rows) as s:
                    dup = uniqueness_violations(
                        ray.data.read_parquet(self.files), KEYS).count()
                    s["rows_out"] = dup
                with tr.span("drift.compare", rows_in=self.rows) as s:
                    with open(self.profile_path) as fh:
                        prof = ReferenceProfile.from_json(fh.read())
                    drift = prof.compare(ray.data.read_parquet(self.files))
                    s["rows_out"] = drift.num_rows
            res[phase] = dict(fused, duplicate_keys=dup,
                              ordering_violations=fused[
                                  "ordering_violation_counts"],
                              manifest=m, drift=drift.to_pylist())
        with tr.span("drift.build_tool"):
            res["drift_tool"] = self.drift_tool()
        self.last_replica = res
        return res

    def replica_problems(self, res) -> List[str]:
        from checks import drift_problems, summary_problems

        out = summary_problems(res["job.fresh"], self.expected)
        out += drift_problems(res["job.fresh"]["drift"], self.expected_drift)
        if res["job.resume"]["manifest"]["skipped"] != len(self.files):
            out.append("replica resume did not skip every fragment")
        return out

    def probes(self, tr) -> None:
        import ray

        from json_schema_ray.engine.relational import null_safe_sort

        super().probes(tr)
        with tr.span("relational.null_safe_sort", rows_in=self.rows) as s:
            ds = null_safe_sort(ray.data.read_parquet(self.files),
                                ["conv_id"], ["turn_idx"]).materialize()
            s["rows_out"] = ds.count()
        summ = ds._get_stats_summary()
        self.sort_remote = summ.get_total_time_all_blocks()
        self.sort_tasks = sum(
            (op.task_rows or {}).get("count", 0)
            for sub in summ._collect_dataset_stats_summaries(summ)
            for op in sub.operators_stats)
        # the real job once more, fresh and resumed, for its untraced
        # wall time next to the traced calls
        out = os.path.join(self.out, "probe_run")
        shutil.rmtree(out, ignore_errors=True)
        self.job_walls = [self.run_job(out, resume=False)["wall"],
                          self.run_job(out, resume=True)["wall"]]

    def layers(self, tr) -> Dict[str, float]:
        fresh = "job.fresh"
        skipped = self.last_replica["job.resume"]["manifest"]["skipped"]
        out = self.kernel_layers(tr)
        out.update({
            "relational.null_safe_sort_s":
                tr.total("relational.null_safe_sort"),
            "relational.null_safe_sort_remote_s": self.sort_remote,
            "relational.null_safe_sort_tasks": self.sort_tasks,
            "keys.uniqueness_violations_s":
                tr.total("keys.uniqueness_violations", under=fresh),
            "validate.full_validation_pass_s":
                tr.total("validate.full_validation_pass", under=fresh),
            "manifest.run_resumable_validation_s":
                tr.total("manifest.run_resumable_validation"),
            "manifest.resume_s": tr.total("manifest.resume"),
            "manifest.fragments_skipped": skipped,
            "manifest.fragments_skipped_share": skipped / len(self.files),
            "drift.compare_s": tr.total("drift.compare", under=fresh),
            "drift.build_tool_s": tr.total("drift.build_tool"),
            "job.wall_s": self.job_walls[0],
            "job.resume_wall_s": self.job_walls[1],
            "job.residual_s":
                self.job_walls[0] - tr.children_total(fresh),
        })
        return out


class ScanBucketed(_Transcripts):
    """``full_validation_pass(presorted=True)`` and the violations
    write over the sorted ``bucket=<i>`` layout: no exchange."""

    name = "scan_bucketed"
    ops_per_round = 2
    dependency = False

    def __init__(self, root, inputs, out):
        super().__init__(root, inputs, out)
        from json_schema_ray.sources.transcripts import VALIDATION_SCHEMA

        self.schema = copy.deepcopy(VALIDATION_SCHEMA)
        if self.dependency:
            self.schema["dependencies"] = TOOL_DEPENDENCY
        self.files = sorted(glob.glob(os.path.join(
            inputs, "bucket=*", "*.parquet")))
        self.rows = sum(pq.ParquetFile(f).metadata.num_rows
                        for f in self.files)
        self.viol_out = os.path.join(out, "violations")

    def prepare(self, tr) -> None:
        from tracing import Tracer

        self.compile(tr)
        # one whole untimed pass: the first pass on a new cluster
        # starts the worker pool Ray Data keeps for later passes
        with tr.span("warmup"):
            self.scan(Tracer(self.name, "", enabled=False))

    def scan(self, tr) -> dict:
        import ray

        from json_schema_ray.engine.validate import (
            full_validation_pass, violations_dataset)

        shutil.rmtree(self.viol_out, ignore_errors=True)
        with tr.span("validate.full_validation_pass",
                     rows_in=self.rows) as s:
            summary = full_validation_pass(
                ray.data.read_parquet(self.files), self.plan,
                presorted=True)
            s["rows_out"] = summary["violation_rows"]
        with tr.span("validate.violations_write", rows_in=self.rows):
            violations_dataset(ray.data.read_parquet(self.files),
                               self.plan).write_parquet(self.viol_out)
        return summary

    def round(self) -> dict:
        from checks import violation_counts
        from tracing import Tracer

        t0 = time.perf_counter()
        summary = self.scan(Tracer(self.name, "", enabled=False))
        wall = time.perf_counter() - t0
        return {"attempted": self.ops_per_round, "failed": 0,
                "rows": self.rows, "op_s": wall, "round_s": wall,
                "summary": summary,
                "counts": violation_counts(self.viol_out)}

    def problems(self, rounds) -> List[str]:
        from checks import summary_problems

        out = []
        for r in rounds:
            out += summary_problems(r["summary"], self.expected)
            if r["counts"] != self.expected["per_type"]:
                out.append(f"violations by error_type {r['counts']} != "
                           f"{self.expected['per_type']}")
        return out

    def replica(self, tr) -> dict:
        from checks import violation_counts

        with tr.span("scan.round"):
            summary = self.scan(tr)
        return {"summary": summary,
                "counts": violation_counts(self.viol_out)}

    def replica_problems(self, res) -> List[str]:
        return self.problems([res])

    def layers(self, tr) -> Dict[str, float]:
        out = self.kernel_layers(tr)
        out.update({
            "validate.full_validation_pass_s":
                tr.total("validate.full_validation_pass",
                         under="scan.round"),
            "validate.violations_write_s":
                tr.total("validate.violations_write", under="scan.round"),
        })
        return out


class ScanInterp(ScanBucketed):
    """The same calls with a schema-form dependency added, so every
    row goes to the row interpreter."""

    name = "scan_interp"
    dependency = True


class RegistrySorted(Workload):
    """Sorted-scan and carry queries of the registry over a seeded
    ``events`` table, each compared with its ``oracle_sql()``."""

    name = "registry_sorted"
    ops_per_round = len(REGISTRY_QUERIES)

    def __init__(self, root, inputs, out):
        super().__init__(root, inputs, out)
        self.rows = EVENTS_ROWS * len(REGISTRY_QUERIES)
        self.first = None

    def prepare(self, tr) -> None:
        import __ray_entry__ as entry
        from tools.check_oracle import to_arrow

        self.queries = entry.queries()
        # the suite's largest first-run cost: events_value_interp takes
        # ~2.4 s longer on a new cluster than afterwards, while every
        # other query runs warm after it (a whole untimed suite would
        # double the set-up for no steadier figures)
        with tr.span("warmup"):
            to_arrow(self.queries["events_value_interp"](self.inputs))

    def suite(self, tr) -> dict:
        from tools.check_oracle import to_arrow

        results = {}
        for name in REGISTRY_QUERIES:
            with tr.span(f"registry.{name}", rows_in=EVENTS_ROWS) as s:
                results[name] = to_arrow(self.queries[name](self.inputs))
                s["rows_out"] = results[name].num_rows
        return results

    def round(self) -> dict:
        from tracing import Tracer

        t0 = time.perf_counter()
        results = self.suite(Tracer(self.name, "", enabled=False))
        wall = time.perf_counter() - t0
        # a result equal to the first round's is checked with it; only
        # the others are kept, so that held results do not raise the
        # process's peak memory round after round
        if self.first is None:
            self.first = results
        else:
            results = {n: t for n, t in results.items()
                       if not t.equals(self.first[n])}
        return {"attempted": self.ops_per_round, "failed": 0,
                "rows": self.rows, "op_s": wall, "round_s": wall,
                "results": results}

    def expect(self, con) -> None:
        from checks import registry_oracles

        self.oracles = registry_oracles(
            con, self.inputs, REGISTRY_QUERIES,
            os.path.join(self.out, "oracle_corpora"))

    def problems(self, rounds) -> List[str]:
        from checks import registry_problems

        out = []
        for r in rounds:
            for name, res in r["results"].items():
                out += registry_problems(name, res, self.oracles[name])
        return out

    def replica(self, tr) -> dict:
        with tr.span("registry.suite"):
            return {"results": self.suite(tr)}

    def replica_problems(self, res) -> List[str]:
        return self.problems([res])

    def layers(self, tr) -> Dict[str, float]:
        return {f"registry.{q}_s": tr.total(f"registry.{q}",
                                            under="registry.suite")
                for q in REGISTRY_QUERIES}


WORKLOADS = {w.name: w for w in (JobFlat, ScanBucketed, ScanInterp,
                                 RegistrySorted)}
