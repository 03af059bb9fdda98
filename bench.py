"""Benchmark harness.

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32)`` and prints ONE JSON line.

``--scaling``: runs the fused validation scan in fresh subprocesses at
two CPU levels (default 2 vs 8, i.e. N and 4N; override with
``GRAFT_SCALING_CPUS=a,b``) on the same 48M-turn input and reports
median-of-3 throughput at both plus scaling efficiency
(= T_4N / (4 * T_N)) — the sandbox stand-in for the N vs 4N cluster
criterion. The default pair sits inside the compute-bound regime of
this single box; larger pairs ride the shared memory-bandwidth
ceiling (full measured curve + discussion in BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

HEADLINE_QUERIES = [
    "pricing_summary",
    "orders_by_segment",
    "duplicate_lineitem_keys",
    "distinct_users",
    "validate_documents",
    "validate_events_props",
    "docs_token_counts",
    "knn_top10",
    "user_sessions",
    "daily_event_volume",
    "minhash_near_dups",
    "transcript_stats",
    "text_equality",
]

# timed after the headline suite and reported under "extra_queries"
# (NOT in "value"), so round-over-round totals stay like-for-like
# while new operator families still get recorded numbers
EXTRA_QUERIES = [
    "docs_snapshot_diff",     # join-free added/removed/changed diff
    "docs_pack_contiguous",   # GPT-style stream packing (prefix scan)
    "doc_dedup_keep_best",    # keep-best-per-dup-cluster retention
    "top3_orders_per_cust",   # grouped top-k: sort + edge merge
    "running_user_spend",     # running totals: sort + carry stitch
    "user_value_quantiles",   # exact per-group quantiles
    "events_pivot_by_type",   # conditional-aggregation pivot
    "orders_hash_sample",     # shuffle-free deterministic sample
    "events_prev_value",      # SQL LAG: one carry row per block
    "user_event_type_diversity_sorted",  # sorted exact distinct-per-key
    "user_event_ntile",        # row_number + ntile: sort + carries
    "user_range_sum_1h",       # RANGE frame: one sort + two-pointer scan
    "user_first_last_value",   # arg-extremes as one hash aggregate
    "lineitems_small_parts",   # bloom pre-filter + exact semi verify
    "negbal_highvalue_full",   # full outer sort-merge join
    "docs_lang_source_cube",   # CUBE: one input shuffle + re-aggs
    "docs_bigram_lm",          # two-pass LM train + broadcast score
    "events_throttled",        # LAG-based windowed event dedup
    "lang_top_terms",          # grouped heavy hitters over terms
    "user_cohort_retention",   # week-set union agg, two shuffles
    "embedding_nn_join",       # broadcast slab-wise cosine NN join
    "docs_capped_per_lang",    # hash-draw domain cap (grouped top-k)
    "orders_weighted_sample",  # A-Res weighted sample, partial top-k
    "docs_url_domains",        # per-domain URL rollup, one RE2 pass
    "docs_lm_buckets",         # LM-score NTILE corpus split
    "event_transition_violations",  # protocol check: LAG + filter
    "docs_shared_spans",       # repeated-span pairs via fingerprints
    "host_pagerank",           # 3-iteration integer PageRank
    "incremental_dedup_docs",  # snapshot-over-snapshot dedup
    "weekly_active_users",     # exact sliding-window distinct
    "approx_weekly_active_users",  # HLL twin: register-row shuffle
    "user_value_mad",          # robust median+MAD gate
    "embedding_gram",          # int64 matmul partials aggregate
    "docs_line_dedup",         # repeated-line boilerplate scrub
    "lineitem_qty_price_corr",  # overflow-proof grouped Pearson
    "orders_lineitem_reconcile",  # parent-vs-child-sum validation
    "docs_source_lang_fd",     # functional-dependency violations
    "user_session_table",      # session-level rows: sort + edge merge
    "event_markov_matrix",     # transition counts: LAG + tiny exchange
    "event_type_overlap",      # co-occurrence Jaccard via pair machinery
    "user_event_entropy",      # fixed-point grouped Shannon entropy
    "embedding_dim_stats",     # per-dim integer sufficient stats
    "events_expectations",     # fused data-contract check scan
    "docs_keyword_search",     # boolean AND token search, no shuffle
    "user_activity_skew",      # key-skew profile: counts + quantiles
    "embedding_kmeans",        # exact fixed-point Lloyd iterations
    "docs_cross_snapshot_dups",  # cross-corpus near-dup join
    "embedding_kmeans_inertia",  # clustering quality diagnostic
    "daily_volume_cusum",      # sequential changepoint gate
    "embedding_split_leakage",  # train/test leakage at cosine level
    "revenue_by_region",       # TPC-H Q5-style star join composition
    "docs_cdc_merge",          # CDC upsert/delete compaction
    "user_twap",               # time-weighted value via lead + sum
    "events_rolling_median",   # sliding-sort window median kernel
    "host_triangles",          # degree-ordered triangle counting
    "docs_top_quality_per_lang",  # per-lang percentile gate
    "events_rolling_extrema",  # rolling min/max band, shared harness
    "session_concurrency",     # sweep-line interval overlap count
    "parts_copurchase",        # market-basket pair mining
    "drift_value_psi",         # numeric drift over quartile bins
    "docs_oov_rate",           # vocab coverage: top-k + OOV scan
    "corpus_integrity",        # cross-modal contract checks
    "embedding_outliers",      # integer centroid-distance top-k
    "docs_ngram_novelty",      # first-occurrence shingle fraction
    "events_value_locf",       # grouped forward fill (LOCF)
    "user_value_trend",        # integer OLS slope per user
    "nation_trade_matrix",     # Q7: broadcasts + fact-fact join
    "user_online_coverage",    # gaps-and-islands interval union
    "transcript_turn_stats",   # per-conversation mix profile
    "docs_template_clusters",  # word-shape skeleton dedup
    "events_global_seq",       # distributed zipWithIndex
    "orders_pareto_frontier",  # 2-D skyline, block frontiers
    "returned_item_revenue",   # Q10: fact join + top-k report
    "events_type_weekday_chi2",  # independence cells, e6 fixed point
    "user_daily_dense_counts",  # calendar gap-fill, sort + carries
    "events_nearest_error",    # bidirectional as-of enrichment
    "user_activity_gini",      # exact integer inequality index
    "corpus_zipf_slope",       # term-frequency power-law fit
    "transcript_tool_usage",   # join-free per-conv tool profile
    "shipping_priority",       # Q3: filters + fact join + top-k
    "customer_name_near_dups",  # blocking + hamming record linkage
    "lang_mixture_allocation",  # largest-remainder apportionment
    "events_csv_roundtrip",    # CSV sink+source parity
    "events_value_interp",     # linear imputation, 4 LOCF passes
    "events_session_assignment",  # lag + LOCF session lineage tag
    "lineitem_weighted_median_price",  # exact weighted median
    "big_quantity_orders",     # Q18 HAVING gate on sorted partials
    "transcript_turn_integrity",  # north-rule turn ordering, oracled
    "orders_benford",          # leading-digit DQ screen
    "user_cum_distinct_types",  # expanding distinct via first flags
    "docs_scd2",               # SCD2 validity intervals, one lead pass
    "lineitem_weighted_price_quartiles",  # 3 quantiles, one sort
    "docs_readability",        # 3 RE2 kernels + mirrored float score
    "docs_bm25",               # 2-pass BM25: int stats + scoring scan
    "small_quantity_part_revenue",  # Q17 all-integer correlated gate
    "docs_lang_imputed",       # group-mode categorical imputation
    "transcript_boilerplate_turns",  # cross-conv repeated-turn scrub
    "customer_order_distribution",   # Q13 zero-bucket histogram
    "promo_revenue_share",     # Q14 broadcast flag + one-row partials
    "global_sales_opportunity",  # Q22 windowed broadcast anti-join
    "purchase_attribution",    # first-touch credit via lag + LOCF
    "transcript_context_overflow",  # context-budget truncation point
    "transcript_packing",      # conversation-atomic stream packing
    "embedding_quantization",  # int8 calibration + error audit
    "events_partitioned_roundtrip",  # hive sink + pruned-read parity
    "docs_lexical_diversity",  # exact per-doc type-token ratio
    "late_shipment_priority",  # Q4 EXISTS as grouped-max + one join
    "nation_market_share",     # Q8 two-measure star join + int share
    "top_revenue_supplier",    # Q15 windowed max-tie supplier rollup
    "disjunctive_part_revenue",  # Q19 3-clause OR as numpy booleans
    "part_primary_supplier",   # Q20-ish dominant-supplier argmax
    "user_markov_divergence",  # per-user kernel L1 anomaly screen
    "user_value_running_max",  # watermark primitive, per-key carries
    "events_record_highs",     # running-record screen, 2 carry ops
    "user_max_drawdown",       # peak-to-trough via watermark + min
    "events_time_rollup",      # temporal ROLLUP (day, hour), 1 shuffle
    "multimodal_features",     # REAL PNG decode->resize->featurize
    "multimodal_audio",        # REAL WAV PCM decode + DSP features
    "multimodal_frames",       # REAL Y4M parse + frame sampling
    "part_typo_pairs",         # FastSS deletion-neighborhood ed-1 join
    "docs_span_corruption",    # deterministic T5 denoising pairs
    "sessions_error_overlap",  # interval coalesce + overlap probe
    "transcript_trailing_context",  # (context, target) example build
    "transcript_tool_args",    # schema-registry tool-arg dispatch
    "transcript_eval_examples",  # last-assistant-turn eval extraction
]


def _flagship_throughput(n_turns: int) -> dict:
    """Validated turns/sec over the synthetic transcript corpus:
    verdict path (fail-fast analogue) + violation rows."""
    import ray

    from json_schema_ray.engine.validate import (
        compile_plan_for, verdict_counts, violations_dataset)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA)

    path = transcripts_path(n_turns, violation_rate=0.01,
                            n_files=max(NUM_CPUS, 16))
    files = sorted(os.path.join(path, f) for f in os.listdir(path)
                   if f.endswith(".parquet"))
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])

    t0 = time.time()
    counts = verdict_counts(ray.data.read_parquet(files), plan)
    verdict_s = time.time() - t0

    t0 = time.time()
    n_viol = violations_dataset(ray.data.read_parquet(files), plan).count()
    viol_s = time.time() - t0

    return {
        "turns": counts["total_rows"],
        "verdict_sec": verdict_s,
        "violations_sec": viol_s,
        "violations": n_viol,
        "turns_per_sec": counts["total_rows"] / verdict_s,
    }


def cpu_calibration() -> float:
    """Fixed single-thread workload timed at bench start: the sandbox
    host's effective per-core throughput fluctuates ~30% between
    runs (BASELINE.md), so absolute suite seconds should be read
    relative to this number (larger calib_sec = slower box)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((600, 600))
    t0 = time.time()
    for _ in range(30):
        (a @ a).sum()
    return round(time.time() - t0, 3)


def run_bench() -> None:
    import ray

    calib = cpu_calibration()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    sf = entrymod._sf_of(SF_DIR)
    n_turns = entrymod._transcript_turns(SF_DIR)

    queries = {}
    total = 0.0

    flag = _flagship_throughput(n_turns)
    queries["flagship_verdicts"] = round(flag["verdict_sec"], 3)
    queries["flagship_violations"] = round(flag["violations_sec"], 3)
    total += flag["verdict_sec"] + flag["violations_sec"]

    qs = entrymod.queries()
    for name in HEADLINE_QUERIES:
        t0 = time.time()
        res = qs[name](SF_DIR)
        # force execution for lazy results
        if hasattr(res, "iter_batches"):
            for _ in res.iter_batches(batch_format="pyarrow"):
                pass
        dt = time.time() - t0
        queries[name] = round(dt, 3)
        total += dt

    extra = {}
    # dev loop: GRAFT_HEADLINE_ONLY=1 skips the (much longer) extras
    # pass; the headline "value" stays like-for-like either way
    extras_to_run = [] if os.environ.get("GRAFT_HEADLINE_ONLY") \
        else EXTRA_QUERIES
    for name in extras_to_run:
        t0 = time.time()
        res = qs[name](SF_DIR)
        if hasattr(res, "iter_batches"):
            for _ in res.iter_batches(batch_format="pyarrow"):
                pass
        extra[name] = round(time.time() - t0, 3)

    # calib-normalized per-query seconds (sec / calib_sec): the host's
    # per-core throughput swings ~30% between runs, so round-over-round
    # comparisons should use these fields, not raw seconds
    queries_norm = {k: round(v / calib, 3) for k, v in queries.items()}
    headline = {
        "metric": "headline suite wall time "
                  f"(incl. {flag['turns']} validated turns @ "
                  f"{flag['turns_per_sec']:.0f} turns/s)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "turns_per_sec": round(flag["turns_per_sec"], 1),
        "calib_sec": calib,
        "value_norm": round(total / calib, 3),
    }
    # Full record (incl. the 31 extra queries) first; the FINAL line is a
    # compact headline-only JSON so the driver's tail window can always
    # parse it (round 3's single giant line was truncated mid-record).
    print(json.dumps({**headline,
                      "queries_norm": queries_norm,
                      "extra_queries": extra,
                      "extra_queries_norm": {k: round(v / calib, 3)
                                             for k, v in extra.items()}}))
    sys.stdout.flush()
    print(json.dumps(headline))
    ray.shutdown()


def run_diskpath() -> None:
    """100-TB READ-PATH demo (SURVEY §4 'explicit design needed'):
    write the transcript corpus as hive-partitioned parquet laid out
    by ``hash(conv_num) % P`` buckets — each bucket ONE file, rows
    sorted by (conv, ts), the layout a 10^12-turn ingest writes per
    shard — then run, straight from DISK with streaming execution
    (no corpus materialize):

    1. the fused validation scan (verdicts + violations + stats +
       ordering partials in ONE map_batches), and
    2. a conv-keyed aggregate TWO ways: the layout-agnostic global
       path (grouped_multi_agg_sorted — pays one range-partitioned
       all-to-all on conv) vs the PARTITION-AWARE path (block ==
       bucket file, so every conversation is complete inside its
       block and a per-block Arrow groupby emits FINAL rows with
       ZERO exchange). Results are checksum-compared; both times,
       the fused-scan disk throughput, and a ds.stats() excerpt
       print as one JSON line and are recorded in BASELINE.md.

    Scale note: at a real 10^12 turns the same layout is written
    per input shard (bucket dirs, many files per bucket, conv ranges
    never straddling a bucket), and every conv-keyed stage —
    ordering checks, sessionization, trailing-context windows —
    drops its all-to-all exactly as path 2 does here.
    ``JSR_DISK_TURNS`` (default 12M) / ``JSR_DISK_BUCKETS``
    (default 32) scale the demo."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS,
             include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from json_schema_ray.engine.relational import (
        grouped_multi_agg_sorted, safe_groupby_aggregate)
    from json_schema_ray.engine.validate import (
        compile_plan_for, full_validation_pass)
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA, generate_transcripts)
    from json_schema_ray.state.sketches import hash_ints

    n_turns = int(os.environ.get("JSR_DISK_TURNS", "12000000"))
    n_buckets = int(os.environ.get("JSR_DISK_BUCKETS", "32"))
    root = f"/tmp/json_schema_ray/hive_n{n_turns}_p{n_buckets}"
    marker = os.path.join(root, "_DONE")
    write_sec = None
    if not os.path.exists(marker):
        t0 = time.time()
        t = generate_transcripts(n_turns, seed=42,
                                 violation_rate=0.01)
        cid = entrymod._conv_num_key(t["conv_id"]) \
            .to_numpy(zero_copy_only=False)
        buck = (hash_ints(cid) % np.uint64(n_buckets)) \
            .astype(np.int64)
        tsv = pc.cast(t["ts"], pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        # filter + sort PER BUCKET: any whole-corpus gather
        # (take/concat) overflows int32 string offsets past ~2GB of
        # text; filter preserves chunking and each bucket is
        # corpus/P-sized
        for i in range(n_buckets):
            d = os.path.join(root, f"bucket={i}")
            os.makedirs(d, exist_ok=True)
            mask = buck == i
            part = t.filter(pa.array(mask))
            o = np.lexsort((tsv[mask], cid[mask]))
            pq.write_table(part.take(pa.array(o)),
                           os.path.join(d, "part-0.parquet"))
        del t
        with open(marker, "w") as fh:
            fh.write("ok")
        write_sec = round(time.time() - t0, 2)

    files = [os.path.join(root, f"bucket={i}", "part-0.parquet")
             for i in range(n_buckets)]
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])

    # 1) fused scan, streaming from disk (read -> one map_batches;
    # backpressure keeps the corpus out of driver/object-store
    # residency beyond in-flight blocks)
    t0 = time.time()
    summary = full_validation_pass(
        ray.data.read_parquet(files), plan, presorted=True)
    scan_sec = time.time() - t0
    turns = summary["total_rows"]

    def conv_measures(b: pa.Table) -> pa.Table:
        return pa.table({
            "cid": entrymod._conv_num_key(b["conv_id"]),
            "__n": pa.array(np.ones(b.num_rows, np.int64)),
            "__tt": pc.cast(pc.fill_null(
                pc.equal(b["role"], "tool"), False), pa.int64()),
            "__ts": pc.cast(b["ts"], pa.int64())})

    def read_cols():
        return ray.data.read_parquet(
            files, columns=["conv_id", "role", "ts"])

    # 2a) layout-agnostic conv-keyed aggregate: global sorted path
    t0 = time.time()
    global_ds = grouped_multi_agg_sorted(
        read_cols().map_batches(conv_measures,
                                batch_format="pyarrow",
                                zero_copy_batch=True),
        "cid",
        [("__n", "sum", "n_turns"), ("__tt", "sum", "n_tool"),
         ("__ts", "min", "t0"), ("__ts", "max", "t1")])
    g_count, g_sums = 0, np.zeros(5, dtype=object)
    for b in global_ds.iter_batches(batch_format="pyarrow"):
        bt = pa.Table.from_batches([b]) \
            if isinstance(b, pa.RecordBatch) else b
        g_count += bt.num_rows
        for j, c in enumerate(["cid", "n_turns", "n_tool",
                               "t0", "t1"]):
            g_sums[j] += int(pc.sum(bt[c]).as_py() or 0)
    global_sec = round(time.time() - t0, 2)

    # 2b) partition-aware: one task per BUCKET FILE (the
    # aligned_text_compare pattern — the task streams its own
    # partition), so every conversation is complete inside its task
    # and ONE Arrow groupby emits FINAL rows, zero exchange
    def per_bucket_final(b: pa.Table) -> pa.Table:
        outs = []
        for path in b["path"].to_pylist():
            t = pq.read_table(path,
                              columns=["conv_id", "role", "ts"])
            m = conv_measures(t)
            g = safe_groupby_aggregate(
                m, ["cid"], [("__n", "sum"), ("__tt", "sum"),
                             ("__ts", "min"), ("__ts", "max")])
            outs.append(g.rename_columns(
                ["cid", "n_turns", "n_tool", "t0", "t1"]))
        return pa.concat_tables(outs)

    t0 = time.time()
    part_ds = ray.data.from_items(
        [{"path": f} for f in files]) \
        .map_batches(per_bucket_final, batch_format="pyarrow",
                     batch_size=1, zero_copy_batch=True)
    p_count, p_sums = 0, np.zeros(5, dtype=object)
    for b in part_ds.iter_batches(batch_format="pyarrow"):
        bt = pa.Table.from_batches([b]) \
            if isinstance(b, pa.RecordBatch) else b
        p_count += bt.num_rows
        for j, c in enumerate(["cid", "n_turns", "n_tool",
                               "t0", "t1"]):
            p_sums[j] += int(pc.sum(bt[c]).as_py() or 0)
    part_sec = round(time.time() - t0, 2)
    stats_txt = part_ds.stats()

    match = bool(g_count == p_count
                 and all(int(a) == int(b)
                         for a, b in zip(g_sums, p_sums)))

    # 3) bucket-PRUNED point lookup: re-validating one conversation
    # reads exactly its bucket file (1/P of the corpus) — the
    # prune-at-the-read path a targeted 100TB re-check takes.
    # Same hash the writer used picks the bucket; full-scan twin
    # for contrast.
    probe_conv = "conv-00000042"
    pc_cid = entrymod._conv_num_key(
        pa.array([probe_conv], pa.string())).to_numpy(
            zero_copy_only=False)
    b_idx = int(hash_ints(pc_cid)[0] % np.uint64(n_buckets))

    def count_conv(files_subset):
        dsx = ray.data.read_parquet(files_subset,
                                    columns=["conv_id"])
        return dsx.map_batches(
            lambda b: pa.table({"n": pa.array([int(pc.sum(
                pc.cast(pc.equal(b["conv_id"], probe_conv),
                        pa.int64())).as_py() or 0)], pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True) \
            .sum("n")

    t0 = time.time()
    n_pruned = count_conv([files[b_idx]])
    pruned_sec = round(time.time() - t0, 3)
    t0 = time.time()
    n_full = count_conv(files)
    full_sec = round(time.time() - t0, 3)
    print(json.dumps({
        "metric": "100TB read path: hive hash(conv)%P layout, "
                  "from-disk streaming",
        "value": round(turns / scan_sec, 1),
        "unit": "validated turns/sec from disk",
        "queries": {
            "write_sec": write_sec,
            "fused_scan_sec": round(scan_sec, 2),
            "conv_agg_global_sec": global_sec,
            "conv_agg_partition_aware_sec": part_sec,
            "conv_agg_speedup": round(global_sec / part_sec, 2)
            if part_sec else None,
            "convs": p_count,
            "results_match": match,
            "point_lookup_pruned_sec": pruned_sec,
            "point_lookup_fullscan_sec": full_sec,
            "point_lookup_rows_agree": bool(n_pruned == n_full),
        },
        "sf": n_turns / 6_000_000,
        "num_cpus": NUM_CPUS,
        "turns": turns,
        "buckets": n_buckets,
    }))
    sys.stdout.flush()
    # ds.stats() audit excerpt for the zero-shuffle path: the
    # per-bucket operator's section (wall/UDF time, rows, tasks)
    lines = stats_txt.splitlines()
    start = next((i for i, ln in enumerate(lines)
                  if "per_bucket_final" in ln), 0)
    print("\n".join(lines[start:start + 13]))
    ray.shutdown()


SCALING_MULTIPLIER = int(os.environ.get("GRAFT_SCALING_MULTIPLIER", "80"))


def run_scaling_child(num_cpus: int) -> None:
    """Timed workload: the all-in-one fused scan (keyword verdicts +
    violation rows + per-column stats partials + per-conversation
    ordering checks in ONE map_batches — the 100TB job shape), two
    passes, AFTER an untimed warmup pass.

    The corpus is 80x the sf size (48M turns at sf0.1, ~64 blocks) so per-task
    compute, not task scheduling, dominates — the same reason a real
    100TB job amortizes its fixed costs. Input is materialized into
    the object store first (= data already living in cluster storage);
    loading it is setup, not the throughput under test."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    from json_schema_ray.engine.validate import (
        compile_plan_for, full_validation_pass)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA)

    n_turns = entrymod._transcript_turns(SF_DIR) * SCALING_MULTIPLIER
    path = transcripts_path(n_turns, violation_rate=0.01, n_files=64)
    files = sorted(os.path.join(path, f) for f in os.listdir(path)
                   if f.endswith(".parquet"))
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])

    ds = ray.data.read_parquet(files).materialize()

    def suite() -> int:
        summary = full_validation_pass(ds, plan, presorted=True)
        return summary["total_rows"]

    turns = suite()  # warmup (untimed)
    # median of 3 timed passes: single-pass numbers are noisy on a
    # shared box (page cache, compaction, GC)
    passes = 3
    times = []
    for _ in range(passes):
        t0 = time.time()
        suite()
        times.append(time.time() - t0)
    times.sort()
    median = times[len(times) // 2]
    print(json.dumps({
        "turns": turns,
        "passes": passes,
        "pass_times": [round(t, 2) for t in times],
        "suite_sec": median,
        "turns_per_sec": turns / median,
    }))
    ray.shutdown()


SCALING_PAIR = tuple(
    int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "2,8").split(","))


def run_scaling() -> None:
    results = {}
    env = dict(os.environ)
    here = os.path.abspath(__file__)
    for n in SCALING_PAIR:
        env["RAY_GRAFT_CPUS"] = str(n)
        out = subprocess.run(
            [sys.executable, here, "--scaling-child", str(n)],
            capture_output=True, text=True, env=env, check=True)
        last = [l for l in out.stdout.strip().splitlines()
                if l.startswith("{")][-1]
        results[n] = json.loads(last)
    lo, hi = SCALING_PAIR
    t_lo = results[lo]["turns_per_sec"]
    t_hi = results[hi]["turns_per_sec"]
    efficiency = t_hi / ((hi / lo) * t_lo)
    print(json.dumps({
        "metric": f"scaling efficiency (num_cpus {lo} -> {hi}, fresh processes)",
        "value": round(efficiency, 3),
        "unit": "ratio",
        "queries": {
            f"turns_per_sec_cpus{lo}": round(t_lo, 1),
            f"turns_per_sec_cpus{hi}": round(t_hi, 1),
            "turns": results[hi]["turns"],
        },
        "sf": float(os.path.basename(SF_DIR.rstrip("/")).replace("sf", "") or 0.1),
        "num_cpus": 32,
    }))


if __name__ == "__main__":
    if "--scaling-child" in sys.argv:
        run_scaling_child(int(sys.argv[sys.argv.index("--scaling-child") + 1]))
    elif "--scaling" in sys.argv:
        run_scaling()
    elif "--diskpath" in sys.argv:
        run_diskpath()
    else:
        run_bench()
