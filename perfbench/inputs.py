"""Seeded benchmark inputs, written once per seed and reused.

Run as a child process of ``perfbench/run.py`` so that generation
neither counts towards set-up time nor raises the benchmark process's
peak resident memory:

    python3 perfbench/inputs.py <workload> <seed> <out_dir>

Each input directory gets a ``_DONE`` marker last, so an interrupted
generation is redone instead of read half-written.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Input sizes, chosen so one round of each workload takes a few
# seconds on one CPU (see README.md for the measured figures).
JOB_TURNS = 24_000
JOB_FRAGMENTS = 4
BUCKETED_TURNS = 160_000
BUCKETED_BUCKETS = 8
INTERP_TURNS = 12_000
INTERP_BUCKETS = 4
EVENTS_ROWS = 10_000
VIOLATION_RATE = 0.01


def _done(path: str) -> None:
    with open(os.path.join(path, "_DONE"), "w") as fh:
        fh.write("ok")


def write_flat(out: str, seed: int) -> None:
    """Transcripts in generation order across JOB_FRAGMENTS files, plus
    a drift reference profile over ``role`` and exact ``text``
    lengths built from an independent clean corpus."""
    from json_schema_ray.sources.transcripts import (
        generate_transcripts, write_transcripts)

    write_transcripts(os.path.join(out, "corpus"), JOB_TURNS, seed=seed,
                      violation_rate=VIOLATION_RATE,
                      n_files=JOB_FRAGMENTS)
    ref = generate_transcripts(JOB_TURNS, seed=seed + 500_000)
    roles = pa.TableGroupBy(ref.select(["role"]), ["role"]) \
        .aggregate([([], "count_all")])
    lengths = pc.utf8_length(ref["text"])
    lt = pa.TableGroupBy(pa.table({"n": lengths}), ["n"]) \
        .aggregate([([], "count_all")])
    profile = {
        "histograms": {"role": dict(zip(roles["role"].to_pylist(),
                                        roles["count_all"].to_pylist()))},
        "digests": {},
        "length_hists": {"text": {str(n): c for n, c in zip(
            lt["n"].to_pylist(), lt["count_all"].to_pylist())}},
    }
    with open(os.path.join(out, "profile.json"), "w") as fh:
        json.dump(profile, fh)


def write_bucketed(out: str, seed: int, n_turns: int,
                   n_buckets: int) -> None:
    """The ``bucket=<i>`` hive layout of ``bench.py --diskpath``: one
    file per bucket of ``hash(conv) % n_buckets``, rows sorted by
    (conversation, turn, ts) so every conversation is one contiguous,
    turn-ordered run inside one file."""
    import __ray_entry__ as entry
    from json_schema_ray.sources.transcripts import generate_transcripts
    from json_schema_ray.state.sketches import hash_ints

    t = generate_transcripts(n_turns, seed=seed,
                             violation_rate=VIOLATION_RATE)
    cid = entry._conv_num_key(t["conv_id"]).to_numpy(zero_copy_only=False)
    bucket = (hash_ints(cid) % np.uint64(n_buckets)).astype(np.int64)
    turn = pc.cast(t["turn_idx"], pa.int64()).combine_chunks() \
        .to_numpy(zero_copy_only=False)
    ts = pc.cast(t["ts"], pa.int64()).combine_chunks() \
        .to_numpy(zero_copy_only=False)
    for i in range(n_buckets):
        d = os.path.join(out, f"bucket={i}")
        os.makedirs(d)
        mask = bucket == i
        part = t.filter(pa.array(mask))
        order = np.lexsort((ts[mask], turn[mask], cid[mask]))
        pq.write_table(part.take(pa.array(order)),
                       os.path.join(d, "part-0.parquet"))


def write_events(out: str, seed: int) -> None:
    """An ``events`` table shaped like the registry's testdata one:
    strictly increasing ts over 30 days, uniform users and event
    types, exponential values rounded to cents, small JSON props."""
    rng = np.random.default_rng(seed)
    n = EVENTS_ROWS
    users = max(1, n * 15 // 1000)
    base_us = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
    mean_gap = 30 * 86_400 * 1_000_000 // n
    ts = base_us + np.cumsum(rng.integers(1, 2 * mean_gap, size=n))
    types = np.array(["click", "view", "purchase", "signup", "error"],
                     dtype=object)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, users, size=n), pa.int64()),
        "event_type": pa.array(types[rng.integers(0, 5, size=n)],
                               pa.string()),
        "value": pa.array(np.round(rng.exponential(50.0, size=n), 2),
                          pa.float64()),
        "props": pa.array([f'{{"k": {k}}}' for k in
                           rng.integers(0, 100, size=n)], pa.string()),
    })
    pq.write_table(t, os.path.join(out, "events.parquet"))


def main(argv) -> int:
    # numpy takes only non-negative seeds; fold the rest into range
    workload, seed, out = argv[0], int(argv[1]) % (1 << 62), argv[2]
    sys.path.insert(0, ROOT)
    os.makedirs(out)
    if workload == "job_flat":
        write_flat(out, seed)
    elif workload == "scan_bucketed":
        write_bucketed(out, seed, BUCKETED_TURNS, BUCKETED_BUCKETS)
    elif workload == "scan_interp":
        write_bucketed(out, seed, INTERP_TURNS, INTERP_BUCKETS)
    elif workload == "registry_sorted":
        write_events(out, seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    _done(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
