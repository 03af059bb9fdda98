"""Transcript-corpus validation job — the `ray job submit` entry.

    ray job submit -- python jobs/validate_transcripts.py \
        --input /data/transcripts --out /data/validation_run \
        [--schema schema.json] [--resume] [--profile profile.json]

A fresh run reads each input fragment once, in one task per fragment
(``engine/manifest.py``): the task writes the fragment's violations
parquet and then its manifest, which holds the verdict counters, the
per-column stats partials and, with ``--profile``, the categorical
counts and length histograms that drift needs. One key-only pass
(``engine/keys.py::key_checks``: one sort of conv_id, turn_idx and ts)
counts duplicate (conv_id, turn_idx) keys and turn-ordering
violations, and is recorded in ``out/keys.json``. ``summary.json`` is
then a driver fold over the manifests, in fragment-name order, plus
the key record; it holds no timings or other run-specific fields.

A ``--resume`` run validates only the fragments without a manifest
(a killed run leaves those) and reruns the key pass only when its
record is missing or was made from other fragments. A finished run
resumes without starting Ray and writes the same ``summary.json``.

Exit codes: 0 when every row validated and no key or ordering check
failed, 1 otherwise, and 2 when the job refused to run:

- the input directory is missing or holds no parquet fragments;
- the output already holds manifests and ``--resume`` was not given;
- under ``--resume``, the recorded run does not match this one: its
  plan fingerprint differs (another ``--schema``, other profile
  columns or another engine version), a recorded fragment's size,
  mtime or footer row count changed, or a recorded fragment is no
  longer in ``--input``. The message names the fragment and the field.

Starts Ray (guarded init) only when there is work, and shuts down only
a session it started, so it also runs inside a driver that owns one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# invoked as a script (`python jobs/validate_transcripts.py` or via
# `ray job submit`), sys.path[0] is jobs/ — put the repo root first
# so the package imports without a PYTHONPATH; Ray workers inherit
# the driver's working_dir, and the engine ships its functions by
# closure, so this one insert covers the whole job
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

KEYS = ["conv_id", "turn_idx"]


def _init_ray(num_cpus):
    import ray

    # workers do NOT inherit the driver's sys.path — without this,
    # every map_batches task dies with ModuleNotFoundError when the
    # job runs from outside the repo (a real `ray job submit
    # --working-dir` covers it, plain `python jobs/...` does not)
    init_kwargs = dict(
        include_dashboard=False,
        runtime_env={"env_vars": {
            "PYTHONPATH": _REPO_ROOT + os.pathsep
            + os.environ.get("PYTHONPATH", "")}})
    if num_cpus:
        init_kwargs.update(address="local", num_cpus=num_cpus)
    ray.init(**init_kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True,
                        help="directory of transcript parquet fragments")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--schema", default=None,
                        help="JSON schema file (default: the canonical "
                             "transcript validation schema)")
    parser.add_argument("--resume", action="store_true",
                        help="skip fragments already recorded in the "
                             "output manifest")
    parser.add_argument("--profile", default=None,
                        help="reference profile JSON for drift checks")
    parser.add_argument("--num-cpus", type=int, default=None)
    args = parser.parse_args(argv)

    from json_schema_ray.engine.drift import ReferenceProfile
    from json_schema_ray.engine.keys import key_checks
    from json_schema_ray.engine.manifest import (
        ResumeMismatch, done_manifests, fold_manifests, fragment_identity,
        key_record, list_done_fragments, plan_fingerprint,
        run_resumable_validation, write_key_record)
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.sources.transcripts import VALIDATION_SCHEMA

    schema_json = VALIDATION_SCHEMA
    if args.schema:
        with open(args.schema) as fh:
            schema_json = json.load(fh)

    if not os.path.isdir(args.input):
        sys.stderr.write(f"{args.input}: No such directory.\n")
        return 2
    files = sorted(
        os.path.join(args.input, f) for f in os.listdir(args.input)
        if f.endswith(".parquet"))
    if not files:
        sys.stderr.write(f"{args.input}: no parquet fragments found\n")
        return 2

    import pyarrow.parquet as pq

    arrow_schema = pq.read_schema(files[0])
    plan = compile_plan_for(schema_json, arrow_schema, key_columns=KEYS)
    profile = None
    if args.profile:
        with open(args.profile) as fh:
            profile = ReferenceProfile.from_json(fh.read())

    if not args.resume:
        done = list_done_fragments(args.out)
        if done:
            sys.stderr.write(
                f"{args.out}: {len(done)} fragments already recorded; "
                "pass --resume to continue that run or choose a fresh "
                "output directory\n")
            return 2

    fingerprint = plan_fingerprint(plan, profile)
    identities = [fragment_identity(f) for f in files]
    keys = key_record(args.out, fingerprint, identities)
    started = False
    try:
        todo = len(done_manifests(args.out, files, fingerprint)) < len(files)
        if todo or keys is None:
            # a finished run resumes without importing Ray at all
            import ray

            if not ray.is_initialized():
                _init_ray(args.num_cpus)
                started = True
        run = run_resumable_validation(files, args.out, plan,
                                       profile=profile)
        if keys is None:
            key_cols = KEYS + (["ts"] if "ts" in arrow_schema.names
                               else [])
            keys = key_checks(ray.data.read_parquet(files,
                                                    columns=key_cols))
            write_key_record(args.out, fingerprint, identities, keys)
        manifests = list(done_manifests(args.out, files,
                                        fingerprint).values())
    except ResumeMismatch as e:
        sys.stderr.write(f"{args.out}: cannot resume: {e}\n")
        return 2
    finally:
        if started:
            ray.shutdown()

    folded = fold_manifests(manifests, profile)
    report = {
        "fragments": run["fragments"],
        "fragments_skipped": run["skipped"],
        "total_rows": folded["total_rows"],
        "valid_rows": folded["valid_rows"],
        "invalid_rows": folded["invalid_rows"],
        "violation_rows": folded["violation_rows"],
        "violations_by_type": folded["violations_by_type"],
        "duplicate_keys": keys["duplicate_keys"],
        "ordering_violations": keys["ordering_violations"],
        "stats": folded["stats"].to_pylist(),
    }
    if profile is not None:
        report["drift"] = folded["drift"].to_pylist()

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(report, fh, indent=2, default=str)

    ordering = report["ordering_violations"]
    clean = (report["invalid_rows"] == 0 and report["duplicate_keys"] == 0
             and sum(ordering.values()) == 0)
    print(json.dumps({k: report[k] for k in
                      ("total_rows", "valid_rows", "invalid_rows",
                       "duplicate_keys", "ordering_violations")}))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
