"""Benchmark command: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload job_flat --seed 1 --seconds 10 --trace 0

Run from the repository root. Inputs are generated from the seed into
``.bench_cache/`` once and reused; outputs, logs and traces go to
``.bench_out/``. With ``--trace 0`` the last line of standard output
holds every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` a separate traced run reports every per-layer metric
and writes the spans (JSONL) and a per-layer summary next to the
outputs. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

# Ray puts its sockets under <tmp>/ray/session_<date>_<pid>/sockets/,
# and a Unix socket path may not exceed 107 bytes
_MAX_TMP = 36


def _fail(msg: str, code: int = 2) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return code


def _environment(root: str) -> None:
    """Keep Ray's session files and temporary files in the checkout and
    let Ray workers import the package and this benchmark from it.
    Ray's usage reporting is off (it would try to reach the network),
    and errors of tasks whose results are never read (the kept
    ``drift_tool`` failure leaves some) are not printed when their
    references are dropped, so that standard error ends with this
    run's own messages."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root, HERE, os.environ.get("PYTHONPATH", "")])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["RAY_IGNORE_UNHANDLED_ERRORS"] = "1"
    tmp = os.path.join(root, ".bench_tmp")
    if len(tmp) <= _MAX_TMP:
        os.makedirs(tmp, exist_ok=True)
        os.environ["RAY_TMPDIR"] = tmp
        os.environ["TMPDIR"] = tmp
    else:
        sys.stderr.write(f"perfbench: {root} is too long a path for Ray's "
                         "sockets; Ray keeps its default temp directory\n")
    sys.path.insert(0, root)


def _inputs(root: str, workload: str, seed: int) -> str:
    # keyed by the generator's source too, so a changed input size
    # never reuses a stale cache
    with open(os.path.join(HERE, "inputs.py"), "rb") as fh:
        tag = hashlib.sha1(fh.read()).hexdigest()[:8]
    path = os.path.join(root, ".bench_cache",
                        f"{workload}_s{seed}_{tag}")
    if not os.path.exists(os.path.join(path, "_DONE")):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        workload, str(seed), path], check=True, cwd=root)
    return path


def _metrics(spec: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def timed_run(wl, seconds: float, spec: list) -> dict:
    import duckdb
    import ray

    from tracing import Tracer

    off = Tracer(wl.name, "", enabled=False)
    setups = []
    for i in range(wl.setups):
        t0 = time.perf_counter()
        wl.start(off)
        wl.prepare(off)
        setups.append(time.perf_counter() - t0)
        if i < wl.setups - 1:
            ray.shutdown()
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.round())
    peak_mb = wl.peak_rss_mb()
    wl.expect(duckdb.connect())
    problems = wl.problems(rounds)
    for p in problems:
        sys.stderr.write(f"perfbench: check failed: {p}\n")
    values = {
        # a new cluster's start is two-valued (Ray's first look for the
        # new node finds it, or it waits 1 s and looks again), and the
        # median of a few such samples jumps between the two values
        "setup_s": statistics.mean(setups),
        "rows_per_s": statistics.median(r["rows"] / r["op_s"]
                                        for r in rounds),
        "round_s": statistics.median(r["round_s"] for r in rounds),
        "peak_rss_mb": peak_mb,
    }
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": _metrics(spec, values)}


def traced_run(wl, seed: int, spec: list) -> dict:
    import duckdb

    from tracing import Tracer
    from workloads import busy_seconds

    run_id = f"{wl.name}-s{seed}-{os.getpid()}"
    tr = Tracer(wl.name, run_id)
    with tr.span("setup"):
        wl.start(tr)
        wl.prepare(tr)
    # the same calls once to warm the workers, once untraced, then
    # traced: the difference of the last two is the tracing overhead
    tr.enabled = False
    wl.replica(tr)
    t0 = time.perf_counter()
    wl.replica(tr)
    untraced = time.perf_counter() - t0
    tr.enabled = True
    w0, t0 = time.time(), time.perf_counter()
    res = wl.replica(tr)
    traced = time.perf_counter() - t0
    w1 = time.time()
    wl.probes(tr)
    busy = busy_seconds(w0, w1)
    wl.expect(duckdb.connect())
    problems = wl.replica_problems(res)
    for p in problems:
        sys.stderr.write(f"perfbench: check failed: {p}\n")

    values = {m["name"]: 0.0 for m in spec}
    values.update({
        "ray.init_s": tr.total("ray.init"),
        "plan.compile_s": tr.total("plan.compile", under="setup"),
        "ray.sched_overhead_s": traced - busy,
        "trace.overhead_s": traced - untraced,
    })
    layers = wl.layers(tr)
    unknown = set(layers) - set(values)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    values.update(layers)
    tr.write_jsonl(os.path.join(wl.out, f"spans_s{seed}.jsonl"))
    with open(os.path.join(wl.out, f"layers_s{seed}.json"), "w") as fh:
        json.dump({"run_id": run_id, "traced_s": traced,
                   "untraced_s": untraced, "layers": values,
                   "self_s": tr.self_times()}, fh, indent=1)
    failed = int(bool(res.get("drift_tool", {}).get("failed")))
    return {"correct": not problems, "attempted": wl.ops_per_round,
            "failed": failed, "metrics": _metrics(spec, values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in ("BENCHMARK.json", os.path.join("json_schema_ray",
                                                "__init__.py"),
                 os.path.join("jobs", "validate_transcripts.py")):
        if not os.path.exists(os.path.join(root, need)):
            return _fail(f"{need} not found; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    _environment(root)
    try:
        import duckdb  # noqa: F401  (the checks need it)
        import ray
    except ImportError as e:
        return _fail(f"{sys.executable}: {e}", 1)

    phase, error = "input generation", None
    try:
        inputs = _inputs(root, args.workload, args.seed)
        out = os.path.join(root, ".bench_out", args.workload)
        os.makedirs(out, exist_ok=True)

        from workloads import WORKLOADS

        phase = "traced run" if args.trace else "timed run"
        wl = WORKLOADS[args.workload](root, inputs, out)
        if args.trace:
            result = traced_run(wl, args.seed, bench["per_layer"])
        else:
            result = timed_run(wl, args.seconds, bench["end_to_end"])
    except Exception as e:
        traceback.print_exc()
        error = (f"{args.workload} seed {args.seed}: {phase} failed: "
                 f"{type(e).__name__}: {e}")
    finally:
        ray.shutdown()
        tmp = os.environ.get("RAY_TMPDIR", "")
        if tmp.startswith(root):
            # only this process's sessions (Ray names them after the
            # pid that started them): another run may share the checkout
            for d in glob.glob(os.path.join(tmp, "ray",
                                            f"session_*_{os.getpid()}")):
                shutil.rmtree(d, ignore_errors=True)
    if error:
        # the last line of standard error, after Ray's shutdown messages
        return _fail(error, 1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
