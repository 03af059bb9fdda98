"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init`` / ``ray.shutdown`` happens here or in the library.

Each ``queries()`` entry exercises one engine operator family from
SURVEY.md §2 over the driver testdata; matching ``oracle_sql()``
entries give the DuckDB-equivalent SQL (same column names, float
aggregates rounded identically on both sides). Non-SQL-expressible
ops (sketches, LSH, drift, transcript pipelines over synthesized
input) have no oracle entry and get the weaker rows-only check.
"""

from __future__ import annotations

import datetime
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _read(sf_dir: str, table: str, columns=None):
    import ray

    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _read_transcripts(sf_dir: str, columns=None, **gen_kwargs):
    """Read the cached synthetic transcript corpus with blocks sized
    for its actual row count: the default parquet splitter shards
    this corpus into ~120 five-k-row blocks, and every downstream
    sort/scan then pays hundreds of tiny-task launches (measured
    ~3s of pure overhead per pipeline at sf0.1). One block per CPU
    is right for a corpus this size; a real 10^12-turn corpus gets
    real-sized row groups and the default splitter back."""
    import ray

    from json_schema_ray.pipelines.flagship import transcripts_path

    gen_kwargs.setdefault("violation_rate", 0.01)
    path = transcripts_path(_transcript_turns(sf_dir), **gen_kwargs)
    files = sorted(os.path.join(path, f) for f in os.listdir(path)
                   if f.endswith(".parquet"))
    return ray.data.read_parquet(files, columns=columns,
                                 override_num_blocks=32)


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.001


def _transcript_turns(sf_dir: str) -> int:
    return max(int(6_000_000 * _sf_of(sf_dir)), 1000)


def _round_col(t: pa.Table, col: str, digits: int) -> pa.Table:
    # python round() picks the same nearest-double as DuckDB's round;
    # pc.round can land one ulp away, which breaks value-hash compares
    i = t.column_names.index(col)
    vals = [None if v is None else round(v, digits)
            for v in t[col].to_pylist()]
    return t.set_column(i, col, pa.array(vals, pa.float64()))


def _parity_filter(ds, column: str, p: int):
    """Rows whose int ``column`` has parity ``p`` — the deterministic
    snapshot/split device several cross-corpus queries share."""
    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(
            pc.bit_wise_and(batch[column], 1), p))

    return ds.map_batches(f, batch_format="pyarrow",
                          zero_copy_batch=True)


def _collect(ds, empty_schema: pa.Schema = None) -> pa.Table:
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
              for b in ds.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return empty_schema.empty_table() if empty_schema is not None \
            else pa.table({})
    return pa.concat_tables(tables, promote_options="default")


# --------------------------------------------------------------------------
# flagship
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: full transcript validation report at sf0.001 scale."""
    from json_schema_ray.pipelines.flagship import run_flagship

    out = run_flagship(n_turns=6000, violation_rate=0.01, with_stats=False)
    return out["report"].to_pandas()


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice"])
    t = grouped_aggregate(ds, ["l_returnflag", "l_linestatus"],
                          [("l_quantity", "sum"),
                           ("l_extendedprice", "sum"), (None, "count")],
                          driver_merge=True)  # 6 groups
    t = t.rename_columns(["l_returnflag", "l_linestatus", "sum_qty",
                          "sum_base_price", "count_order"])
    return _round_col(t, "sum_base_price", 2)


def q_high_value_orders(sf_dir: str):
    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def flt(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["o_totalprice"], 400000.0))

    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64()),
                        ("o_totalprice", pa.float64())])
    return _collect(ds.map_batches(flt, batch_format="pyarrow",
                                   zero_copy_batch=True), schema)


def q_orders_by_segment(sf_dir: str):
    from json_schema_ray.engine.relational import (
        broadcast_hash_join, grouped_aggregate)

    customer = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_hash_join(orders, customer, "o_custkey", "c_custkey")
    t = grouped_aggregate(joined, ["c_mktsegment"],
                          [("o_totalprice", "sum"), (None, "count")],
                          driver_merge=True)  # 5 segments
    t = t.rename_columns(["c_mktsegment", "total_price", "n_orders"])
    return _round_col(t, "total_price", 2)


def q_orders_missing_customer(sf_dir: str):
    from json_schema_ray.engine.keys import referential_violations

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    customer = _read(sf_dir, "customer", columns=["c_custkey"])
    bad = referential_violations(orders, "o_custkey", customer, "c_custkey")
    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64())])
    return _collect(bad, schema)


def q_duplicate_lineitem_keys(sf_dir: str):
    from json_schema_ray.engine.keys import duplicate_keys

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    dups = duplicate_keys(ds, ["l_orderkey", "l_linenumber"])
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("l_linenumber", pa.int32()),
                        ("cnt", pa.int64())])
    return _collect(dups, schema)


def q_top10_orders(sf_dir: str):
    from json_schema_ray.engine.relational import top_k

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    t = top_k(ds, ["o_totalprice", "o_orderkey"], [True, False], 10)
    return t.select(["o_orderkey", "o_totalprice"])


def q_events_by_type(sf_dir: str):
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    t = grouped_aggregate(ds, ["event_type"],
                          [("value", "sum"), (None, "count")],
                          driver_merge=True)  # 5 event types
    t = t.rename_columns(["event_type", "total_value", "cnt"])
    return _round_col(t, "total_value", 2)




def q_events_by_type_salted(sf_dir: str):
    """Same aggregate as events_by_type via the skew-resistant salted
    two-stage shuffle (hot keys spread over 16 reducers first)."""
    from json_schema_ray.engine.relational import salted_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    t = salted_aggregate(ds, ["event_type"],
                         [("value", "sum"), (None, "count")])
    t = t.select(["event_type", "value_sum", "rows_count"])
    t = t.rename_columns(["event_type", "total_value", "cnt"])
    return _round_col(t, "total_value", 2)


def q_distinct_users(sf_dir: str):
    from json_schema_ray.engine.relational import exact_distinct_count

    ds = _read(sf_dir, "events", columns=["user_id"])
    return pa.table({"n_users": pa.array(
        [exact_distinct_count(ds, "user_id")], pa.int64())})


def q_stats_orders_totalprice(sf_dir: str):
    from json_schema_ray.engine.stats import column_stats

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    stats = column_stats(ds).to_pylist()[0]
    return pa.table({
        "min_price": pa.array([round(stats["num_min"], 2)], pa.float64()),
        "max_price": pa.array([round(stats["num_max"], 2)], pa.float64()),
        "avg_price": pa.array([round(stats["num_mean"], 2)], pa.float64()),
        "cnt": pa.array([stats["count"]], pa.int64()),
    })


def q_null_stats_documents(sf_dir: str):
    from json_schema_ray.engine.stats import column_stats

    ds = _read(sf_dir, "documents")
    stats = column_stats(ds)
    return stats.select(["column", "count", "null_count"]) \
        .rename_columns(["column", "cnt", "nulls"])


def q_orders_price_quantiles(sf_dir: str):
    from json_schema_ray.engine.stats import exact_quantiles

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    return exact_quantiles(ds, "o_totalprice", qs=(0.25, 0.5, 0.95, 0.99))


def q_stats_orders_std(sf_dir: str):
    from json_schema_ray.engine.stats import column_stats

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    stats = column_stats(ds).to_pylist()[0]
    return pa.table({
        "std_price": pa.array([round(stats["num_std"], 2)], pa.float64()),
    })


def q_orders_hash_sample(sf_dir: str):
    from json_schema_ray.engine.relational import hash_sample

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_totalprice", pa.float64())])
    return _collect(hash_sample(ds, "o_orderkey", 0.05, seed=3), schema)


def q_top3_orders_per_cust(sf_dir: str):
    from json_schema_ray.engine.rank import grouped_top_k

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_top_k(ds, ["o_custkey"], "o_totalprice", 3,
                        descending=True, tiebreak="o_orderkey")
    schema = pa.schema([("o_custkey", pa.int64()),
                        ("o_orderkey", pa.int64()),
                        ("o_totalprice", pa.float64()),
                        ("rn", pa.int64())])
    return _collect(out, schema)


def q_running_user_spend(sf_dir: str):
    from json_schema_ray.engine.rank import cumulative_sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    out = cumulative_sum(ds, "user_id", "ts", "value", "event_id")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "user_id", "running_sum"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("running_sum", pa.float64())])
    t = _collect(out.map_batches(project, batch_format="pyarrow",
                                 zero_copy_batch=True), schema)
    return _round_col(t, "running_sum", 2)


def q_orders_price_date_corr(sf_dir: str):
    from json_schema_ray.engine.stats import corr_stats

    ds = _read(sf_dir, "orders", columns=["o_totalprice", "o_orderdate"])

    def epoch(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_totalprice": b["o_totalprice"],
            "odate": pc.cast(pc.cast(b["o_orderdate"], pa.int64()),
                             pa.float64()),
        })

    t = corr_stats(ds.map_batches(epoch, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   "o_totalprice", "odate")
    return pa.table({
        "n": t["n"],
        "corr": pa.array([round(t["corr"][0].as_py(), 6)], pa.float64()),
    })


def q_price_histogram(sf_dir: str):
    from json_schema_ray.engine.stats import histogram

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    return histogram(ds, "o_totalprice", 20, 0.0, 600000.0)


def q_user_event_type_diversity(sf_dir: str):
    from json_schema_ray.engine.relational import grouped_distinct_count

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    schema = pa.schema([("user_id", pa.int64()),
                        ("n_distinct", pa.int64())])
    return _collect(grouped_distinct_count(ds, "user_id", "event_type"),
                    schema)


def q_building_segment_orders(sf_dir: str):
    from json_schema_ray.engine.relational import semi_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment"])

    def building(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["c_mktsegment"], "BUILDING"))

    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64()),
                        ("o_totalprice", pa.float64())])
    return _collect(semi_join(
        orders, cust.map_batches(building, batch_format="pyarrow",
                                 zero_copy_batch=True),
        "o_custkey", "c_custkey"), schema)


def q_user_event_type_diversity_sorted(sf_dir: str):
    from json_schema_ray.engine.relational import (
        grouped_distinct_count_sorted)

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    schema = pa.schema([("user_id", pa.int64()),
                        ("n_distinct", pa.int64())])
    return _collect(grouped_distinct_count_sorted(
        ds, "user_id", "event_type"), schema)


def q_custkeys_without_orders(sf_dir: str):
    from json_schema_ray.engine.relational import except_distinct

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    schema = pa.schema([("c_custkey", pa.int64())])
    return _collect(except_distinct(cust, orders, ["c_custkey"],
                                    ["o_custkey"]), schema)


def q_custkeys_with_orders(sf_dir: str):
    from json_schema_ray.engine.relational import intersect_distinct

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    schema = pa.schema([("c_custkey", pa.int64())])
    return _collect(intersect_distinct(cust, orders, ["c_custkey"],
                                       ["o_custkey"]), schema)


def q_event_type_mode_per_user(sf_dir: str):
    from json_schema_ray.engine.rank import grouped_mode

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    schema = pa.schema([("user_id", pa.int64()),
                        ("mode", pa.string()), ("cnt", pa.int64())])
    return _collect(grouped_mode(ds, "user_id", "event_type"), schema)


def q_dedup_docs_norm_key(sf_dir: str):
    from json_schema_ray.engine.dedup import exact_dedup_groups
    from json_schema_ray.engine.text import normalize_text

    ds = normalize_text(_read(sf_dir, "documents",
                              columns=["doc_id", "text"]))
    groups = exact_dedup_groups(ds.select_columns(
        ["doc_id", "norm_text"]), ["norm_text"], "doc_id")
    schema = pa.schema([("norm_text", pa.string()),
                        ("keep_id", pa.int64()),
                        ("n_copies", pa.int64())])
    return _collect(groups, schema)


def q_user_value_quantiles(sf_dir: str):
    from json_schema_ray.engine.rank import grouped_exact_quantiles

    ds = _read(sf_dir, "events",
               columns=["user_id", "value", "event_id"])
    out = grouped_exact_quantiles(ds, "user_id", "value",
                                  (0.5, 0.95), tiebreak="event_id")
    schema = pa.schema([("user_id", pa.int64()),
                        ("q", pa.float64()),
                        ("value", pa.float64())])
    return _collect(out, schema)


def q_events_prev_value(sf_dir: str):
    from json_schema_ray.engine.rank import lag_column

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    out = lag_column(ds, "user_id", "ts", "value", "event_id")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "user_id", "lag_value"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("lag_value", pa.float64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_events_pivot_by_type(sf_dir: str):
    from json_schema_ray.engine.relational import pivot_counts

    cats = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    out = pivot_counts(ds, "user_id", "event_type", cats)
    schema = pa.schema([("user_id", pa.int64())]
                       + [(f"cnt_{c}", pa.int64()) for c in cats])
    return _collect(out, schema)


def q_event_transition_violations(sf_dir: str):
    """Protocol / state-machine validation (engine/keys.py
    transition_violations): per user in (ts, event_id) order, a
    'signup' may only be followed by view/click, an 'error' only by
    view/signup, and a user's FIRST event must be signup or view.
    Returns the violating rows — one LAG scan (single null-safe
    sort, O(n_blocks) carries) plus a stateless vectorized filter."""
    from json_schema_ray.engine.keys import transition_violations

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    out = transition_violations(
        ds, "user_id", "ts", "event_type",
        allowed={"signup": {"view", "click"},
                 "error": {"view", "signup"}},
        tiebreak="event_id", start={"signup", "view"})
    schema = pa.schema([("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("prev_label", pa.string()),
                        ("event_type", pa.string())])
    return _collect(out, schema)


def q_event_markov_matrix(sf_dir: str):
    """Empirical Markov transition matrix (engine/keys.py
    transition_counts) — the mining twin of the protocol check
    above: per user in (ts, event_id) order, count every observed
    prev_type -> type transition (first events land in prev NULL,
    matching SQL lag()). One lag scan (single null-safe sort,
    O(n_blocks) carries) + an alphabet²-sized count exchange."""
    from json_schema_ray.engine.keys import transition_counts

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    out = transition_counts(ds, "user_id", "ts", "event_type",
                            tiebreak="event_id")
    schema = pa.schema([("prev_label", pa.string()),
                        ("label", pa.string()),
                        ("n", pa.int64())])
    t = _collect(out, schema)
    return t.sort_by([("prev_label", "ascending"),
                      ("label", "ascending")])


def q_event_markov_probs(sf_dir: str):
    """Conditional transition probabilities P(label | prev_label) —
    the estimated Markov kernel: transition_counts plus a per-prev
    row normalization done in pure INTEGER arithmetic on the
    alphabet²-sized count table (p_e6 = n * 1e6 // row_total), so
    the SQL window-sum twin is hash-exact by construction."""
    from json_schema_ray.engine.keys import transition_counts

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    out = transition_counts(ds, "user_id", "ts", "event_type",
                            tiebreak="event_id")
    schema = pa.schema([("prev_label", pa.string()),
                        ("label", pa.string()),
                        ("n", pa.int64())])
    t = _collect(out, schema)
    # alphabet²-sized: normalize per prev_label row driver-side
    prev = t["prev_label"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    keys = np.array(["\x00" if p is None else "v" + p for p in prev],
                    dtype=object)
    order = np.argsort(keys, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    ks, ns = keys[order], n[order]
    starts = np.concatenate([[0], np.nonzero(ks[1:] != ks[:-1])[0] + 1])
    seg = np.concatenate([starts[1:], [len(ks)]]) - starts
    totals_sorted = np.repeat(np.add.reduceat(ns, starts)
                              if len(ns) else np.empty(0, np.int64),
                              seg)
    totals = totals_sorted[inv]
    p_e6 = (n * 1000000 // np.maximum(totals, 1)).astype(np.int64)
    t = t.append_column("row_total", pa.array(totals)) \
        .append_column("p_e6", pa.array(p_e6))
    return t.sort_by([("prev_label", "ascending"),
                      ("label", "ascending")])


def q_user_markov_divergence(sf_dir: str):
    """Behavioral-anomaly screen: the 20 users whose observed
    transition kernel deviates most from the corpus kernel, measured
    as the L1 distance over the user's OBSERVED (prev, label) pairs
    in e6 fixed point — ALL-INTEGER (p_x1m = n * 1e6 // total on
    both sides, |a - b| sums), so the SQL lag + three-rollup twin is
    hash-exact by construction. One lag scan (single null-safe sort,
    O(blocks) carries) feeds per-(user, prev, label) counts — a
    key-dimension x alphabet²-sized exchange, never row-sized; the
    kernel comparison then runs as numpy segment math on that
    bounded table (code -> bincount -> gather, no Python loop), and
    ties at rank 20 break deterministically on user_id."""
    from json_schema_ray.engine.keys import transition_counts

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    out = transition_counts(ds, "user_id", "ts", "event_type",
                            tiebreak="event_id", per_key=True)
    schema = pa.schema([("user_id", pa.int64()),
                        ("prev_label", pa.string()),
                        ("label", pa.string()),
                        ("n", pa.int64())])
    t = _collect(out, schema)
    if t.num_rows == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "n_transitions": pa.array([], pa.int64()),
                         "div_x1m": pa.array([], pa.int64())})
    user = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    prev = np.array(["\x00" if p is None else p
                     for p in t["prev_label"].to_pylist()], object)
    lab = np.array(["\x00" if v is None else v
                    for v in t["label"].to_pylist()], object)
    nu = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    pcodes, pcode = np.unique(prev, return_inverse=True)
    lcodes, lcode = np.unique(lab, return_inverse=True)
    ucodes, ucode = np.unique(user, return_inverse=True)
    npv, nlv = len(pcodes), len(lcodes)
    pair = pcode * nlv + lcode
    # corpus kernel: n(a,b) and tot(a) by integer accumulation
    g_n = np.zeros(npv * nlv, np.int64)
    np.add.at(g_n, pair, nu)
    g_tot = np.zeros(npv, np.int64)
    np.add.at(g_tot, pcode, nu)
    p_corpus = g_n[pair] * 1_000_000 // g_tot[pcode]
    # user kernel: per-(user, prev) totals
    u_tot = np.zeros((len(ucodes), npv), np.int64)
    np.add.at(u_tot, (ucode, pcode), nu)
    p_user = nu * 1_000_000 // u_tot[ucode, pcode]
    dev = np.abs(p_user - p_corpus)
    div = np.zeros(len(ucodes), np.int64)
    np.add.at(div, ucode, dev)
    n_tr = np.zeros(len(ucodes), np.int64)
    np.add.at(n_tr, ucode, nu)
    order = np.lexsort((ucodes, -div))[:20]
    return pa.table({
        "user_id": pa.array(ucodes[order], pa.int64()),
        "n_transitions": pa.array(n_tr[order], pa.int64()),
        "div_x1m": pa.array(div[order], pa.int64())})


def q_event_type_overlap(sf_dir: str):
    """Audience overlap between event types (engine/relational.py
    category_overlap): distinct (user, type) pairs expand to
    per-user type pairs through the one-sort + interior-segment +
    edge-stitch pair machinery, then an alphabet²-sized count
    exchange; jaccard_e6 is ALL-INTEGER (n_both*1e6 // union), so
    the SQL self-join twin is hash-exact by construction."""
    from json_schema_ray.engine.relational import category_overlap

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return category_overlap(ds, "user_id", "event_type")


def q_transcript_role_protocol(sf_dir: str):
    """Role-sequence protocol over the transcript corpus: roles must
    cycle user -> assistant -> tool -> system -> user and each
    conversation must open with 'user'. The corrupted corpus's
    injected bad_role turns ('narrator') surface as violations of
    the incoming transition. Same transition_violations operator as
    the oracle-checked events variant; the oracle SQL reads the SAME
    deterministic cached corpus directly by parquet path (DuckDB
    read_parquet), generated on demand by oracle_sql() itself."""
    import ray

    from json_schema_ray.engine.keys import transition_violations
    from json_schema_ray.pipelines.flagship import transcripts_path

    ds = _read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "role"])
    out = transition_violations(
        ds, "conv_id", "turn_idx", "role",
        allowed={"user": {"assistant"}, "assistant": {"tool"},
                 "tool": {"system"}, "system": {"user"}},
        tiebreak="turn_idx", start={"user"})
    schema = pa.schema([("conv_id", pa.string()),
                        ("turn_idx", pa.int32()),
                        ("prev_label", pa.string()),
                        ("role", pa.string())])
    return _collect(out, schema)


def q_transcript_turn_stats(sf_dir: str):
    """Per-conversation shape profile over the transcript corpus —
    the mix diagnostics a dialogue-data pipeline reports before
    training: turn count, user/assistant turn counts, total and
    null-text character volume, all from ONE combinable per-
    conversation aggregate (conditional counters built per batch,
    merged by sum — no sort, hot conversations reduce per block).
    Oracle reads the SAME deterministic cached corpus by parquet
    path, the transcript_role_protocol pattern."""
    import ray

    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from ray.data.aggregate import Sum

    ds = _read_transcripts(sf_dir, columns=["conv_id", "role", "text"])

    def counters(batch: pa.Table) -> pa.Table:
        role = batch["role"]
        txt = batch["text"]
        return pa.table({
            "conv_id": batch["conv_id"],
            "__n": pa.array(np.ones(batch.num_rows, np.int64)),
            "__u": pc.cast(pc.fill_null(pc.equal(role, "user"),
                                        False), pa.int64()),
            "__a": pc.cast(pc.fill_null(pc.equal(role, "assistant"),
                                        False), pa.int64()),
            "__c": pc.fill_null(pc.cast(pc.utf8_length(txt),
                                        pa.int64()), 0),
            "__nt": pc.cast(pc.is_null(txt), pa.int64())})

    agg = null_safe_grouped_aggregate(
        ds.map_batches(counters, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["conv_id"],
        [Sum(c, alias_name=o, ignore_nulls=True) for c, o in
         (("__n", "n_turns"), ("__u", "n_user"),
          ("__a", "n_assistant"), ("__c", "n_chars"),
          ("__nt", "n_null_text"))],
        ["n_turns", "n_user", "n_assistant", "n_chars",
         "n_null_text"])

    def finish(batch: pa.Table) -> pa.Table:
        cols = {"conv_id": batch["conv_id"]}
        for c in ("n_turns", "n_user", "n_assistant", "n_chars",
                  "n_null_text"):
            cols[c] = pc.cast(batch[c], pa.int64())
        return pa.table(cols)

    schema = pa.schema([("conv_id", pa.string()),
                        ("n_turns", pa.int64()),
                        ("n_user", pa.int64()),
                        ("n_assistant", pa.int64()),
                        ("n_chars", pa.int64()),
                        ("n_null_text", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("conv_id", "ascending")])


def q_transcript_trailing_context(sf_dir: str):
    """(context, target) training-example construction over the
    transcript corpus: for every assistant turn, the concatenation
    of the preceding 4 turns' text within its conversation in time
    order — SQL ``string_agg(text) OVER (PARTITION BY conv_id ORDER
    BY ts, turn_idx ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING)`` —
    plus the frame's row count and the turn's own text as target.
    Runs the trailing_concat primitive: ONE range-partitioned sort,
    then each block gathers EVERY row's window vectorized (one flat
    take into a list-array + binary_join) and emits k carry rows, so
    the driver stitch state is k x n_blocks regardless of how many
    blocks a hot conversation spans. The assistant-only projection
    happens AFTER the window (frames count every role). Oracle reads
    the SAME cached corpus by path (transcript_role_protocol
    pattern). NULL text rides as '' on both sides."""
    from json_schema_ray.engine.rank import trailing_concat

    ds = _read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "text", "ts"])
    out = trailing_concat(ds, "conv_id", "ts", "text", "turn_idx",
                          4, sep="\n")

    def finish(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.fill_null(
            pc.equal(batch["role"], "assistant"), False))
        return pa.table({
            "conv_id": kept["conv_id"],
            "turn_idx": kept["turn_idx"],
            "ctx": kept["ctx"],
            "n_ctx": kept["n_ctx"],
            "target": pc.fill_null(kept["text"], "")})

    schema = pa.schema([("conv_id", pa.string()),
                        ("turn_idx", pa.int32()),
                        ("ctx", pa.string()),
                        ("n_ctx", pa.int64()),
                        ("target", pa.string())])
    return _collect(out.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_transcript_eval_examples(sf_dir: str):
    """Eval-set extraction: ONE example per conversation — the LAST
    assistant turn (by timestamp; the corpus's negative_turn
    corruption makes turn_idx non-unique, ts stays unique) as the
    target, with its 4-turn trailing context. Composition of two
    mergeable primitives: trailing_concat builds every turn's
    context in one carry-stitched sort, grouped_top_k(k=1, ts DESC)
    arg-maxes per conversation with per-block reduction first, so a
    hot conversation ships <= k rows per block into the exchange.
    Oracle: the same window + row_number() OVER (ORDER BY ts DESC)
    on the cached corpus parquet."""
    from json_schema_ray.engine.rank import grouped_top_k, trailing_concat

    ds = _read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "text", "ts"])
    win = trailing_concat(ds, "conv_id", "ts", "text", "turn_idx",
                          4, sep="\n")

    def asst(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.fill_null(
            pc.equal(batch["role"], "assistant"), False))
        return pa.table({
            "conv_id": kept["conv_id"],
            "turn_idx": kept["turn_idx"],
            "ts": kept["ts"],
            "ctx": kept["ctx"],
            "n_ctx": kept["n_ctx"],
            "target": pc.fill_null(kept["text"], "")})

    last = grouped_top_k(
        win.map_batches(asst, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["conv_id"], "ts", 1, descending=True, tiebreak="turn_idx",
        tiebreak_descending=True)

    def fin(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["ts", "rn"])

    schema = pa.schema([("conv_id", pa.string()),
                        ("turn_idx", pa.int32()),
                        ("ctx", pa.string()),
                        ("n_ctx", pa.int64()),
                        ("target", pa.string())])
    return _collect(last.map_batches(fin, batch_format="pyarrow",
                                     zero_copy_batch=True), schema)


def q_transcript_near_dup_convs(sf_dir: str):
    """Conversation-LEVEL near-duplicate detection — the dedup
    granularity a dialogue-training pipeline actually needs (two
    conversations that repeat the same exchange are one training
    example, however their turns are rowed). Two proven primitives
    composed: (1) grouped_string_agg assembles each conversation
    into ONE document (non-null turn text joined in ts order — ts is
    unique within a conversation, while the corpus's negative_turn
    injection makes turn_idx non-unique, so a turn_idx ordering
    would leave tied rows to assemble in either order; groups ship
    as n_blocks+1 partials, never their rows), then
    (2) exact word-5-gram Jaccard pairs >= 0.5 via the
    shingle-inverted-index + sort-based candidate machinery (exact
    recall: any qualifying pair shares a shingle). The synthetic
    corpus draws turn text from a bounded pool, so short
    conversations genuinely collide — the planted near-dup shape.
    Jaccard ships as floor(x*1e6+0.5) BIGINT for float-safe hash
    compare; oracle rebuilds the same conversation documents with
    windowed string_agg over the cached corpus parquet."""
    import math

    from json_schema_ray.engine.dedup import ngram_jaccard_dedup_pairs
    from json_schema_ray.engine.rank import grouped_string_agg

    ds = _read_transcripts(
        sf_dir, columns=["conv_id", "ts", "text"])
    convs = grouped_string_agg(ds, "conv_id", "ts", "text",
                               sep="\n")

    # candidate exchange keys on the injective int64 conv number
    # (_conv_num_key: digits*2 + alt-spelling bit — the corpus's
    # injected bad_conv_format rows spell 'conversation-%d');
    # pairs are report-sized, format back on the driver
    def to_int_id(batch: pa.Table) -> pa.Table:
        return pa.table({"cid": _conv_num_key(batch["conv_id"]),
                         "agg": batch["agg"]})

    # materialize the assembled conversation docs ONCE: the dedup's
    # verify pass re-reads its input dataset, and a lazy convs would
    # re-run the whole 3-execution string_agg pipeline (measured
    # 23.8s -> 12.9s at sf0.01); object-store-resident conv docs are
    # corpus-text-sized and spillable, the same bound the docs
    # variant carries via its parquet re-read
    conv_docs = convs.map_batches(to_int_id, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
    t = ngram_jaccard_dedup_pairs(conv_docs, "cid",
                                  text_column="agg", threshold=0.5)

    def fmt(v: int) -> str:
        return ("conversation-%d" % (v // 2)) if v % 2 \
            else ("conv-%08d" % (v // 2))

    # re-orient on the STRING ids (SQL's a.conv_id < b.conv_id):
    # int-key order and lexicographic order disagree across the two
    # spellings; jaccard is symmetric so swapping is sound
    pairs = sorted(
        tuple(sorted((fmt(a), fmt(b)))) + (int(math.floor(j * 1e6 + 0.5)),)
        for a, b, j in zip(t["id_a"].to_pylist(),
                           t["id_b"].to_pylist(),
                           t["jaccard"].to_pylist()))
    return pa.table({
        "id_a": pa.array([p[0] for p in pairs], pa.string()),
        "id_b": pa.array([p[1] for p in pairs], pa.string()),
        "jaccard_e6": pa.array([p[2] for p in pairs], pa.int64()),
    })


def q_transcript_response_latency(sf_dir: str):
    """Assistant response latency per conversation — the serving/
    agent-quality signal: for every user -> assistant adjacent turn
    pair, the timestamp gap, folded to per-conversation count, total
    and floor-mean microseconds. ONE sort total: the predecessor's
    (ts, role) travel through a single lag_column by packing role
    into the timestamp's low bits (combined = ts_us * 8 + role_id —
    exact, ts_us * 8 < 2^63), decoded after the shift — two lags
    would pay the null-safe sort twice. Oracle reads the same cached
    corpus by parquet path."""
    import ray

    from json_schema_ray.engine.rank import lag_column
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from ray.data.aggregate import Count, Sum

    ds = _read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "role", "ts"])
    roles = {"user": 0, "assistant": 1, "tool": 2, "system": 3}

    def encode(batch: pa.Table) -> pa.Table:
        rid = pa.array([roles.get(r, 4) for r in
                        batch["role"].to_pylist()], pa.int64())
        tsu = pc.cast(batch["ts"], pa.int64())
        return pa.table({
            "conv_id": batch["conv_id"], "ts": batch["ts"],
            "turn_idx": batch["turn_idx"],
            "__rid": rid,
            "__comb": pc.add(pc.multiply(tsu, 8), rid)})

    lagged = lag_column(
        ds.map_batches(encode, batch_format="pyarrow",
                       zero_copy_batch=True),
        "conv_id", "ts", "__comb", "turn_idx", out="__prev")

    def pairs(batch: pa.Table) -> pa.Table:
        prev = batch["__prev"].combine_chunks()
        pv = pc.fill_null(prev, -1).to_numpy(zero_copy_only=False)
        rid = batch["__rid"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        tsu = pc.cast(batch["ts"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = (rid == 1) & (pv >= 0) & (pv % 8 == 0)
        dt = tsu[keep] - pv[keep] // 8
        return pa.table({
            "conv_id": batch["conv_id"].filter(pa.array(keep)),
            "__dt": pa.array(dt, pa.int64()),
            "__one": pa.array(np.ones(int(keep.sum()), np.int64))})

    agg = null_safe_grouped_aggregate(
        lagged.map_batches(pairs, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["conv_id"],
        [Count(alias_name="n_responses"),
         Sum("__dt", alias_name="total_latency_us",
             ignore_nulls=True)],
        ["n_responses", "total_latency_us"])

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch["n_responses"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        s = pc.cast(batch["total_latency_us"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "conv_id": batch["conv_id"],
            "n_responses": pa.array(n),
            "total_latency_us": pa.array(s),
            "mean_latency_us": pa.array(s // n)})

    schema = pa.schema([("conv_id", pa.string()),
                        ("n_responses", pa.int64()),
                        ("total_latency_us", pa.int64()),
                        ("mean_latency_us", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("conv_id", "ascending")])


DOCUMENTS_SCHEMA = {
    "type": ["object"],
    "required": ["doc_id", "text", "lang", "source"],
    "properties": {
        "doc_id": {"type": ["integer"], "minimum": 0},
        "text": {"type": ["string"], "maxLength": 400},
        "lang": {"type": ["string"], "enum": ["en", "de", "es", "fr"]},
        "source": {"type": ["string"], "pattern": "^src[0-9]$"},
        "n_chars": {"type": ["integer"], "maximum": 500},
    },
}


def q_validate_documents(sf_dir: str):
    from json_schema_ray.engine.validate import compile_plan_for, violations_dataset

    ds = _read(sf_dir, "documents")
    arrow_schema = pq.read_schema(os.path.join(sf_dir, "documents.parquet"))
    plan = compile_plan_for(DOCUMENTS_SCHEMA, arrow_schema,
                            key_columns=["doc_id"])
    v = violations_dataset(ds, plan)
    schema = pa.schema([("doc_id", pa.int64()), ("path", pa.string()),
                        ("error_type", pa.string())])
    out = _collect(v, plan.violation_schema())
    return out.select(["doc_id", "path", "error_type"])


EVENTS_PROPS_SCHEMA = {
    "type": ["object"],
    "properties": {
        "props": {
            "type": ["object"],
            "required": ["k"],
            "properties": {"k": {"type": ["integer"], "maximum": 50}},
        },
    },
}


def q_validate_events_props(sf_dir: str):
    from json_schema_ray.engine.validate import compile_plan_for, violations_dataset

    ds = _read(sf_dir, "events", columns=["event_id", "props"])
    arrow_schema = pa.schema([("event_id", pa.int64()),
                              ("props", pa.string())])
    plan = compile_plan_for(EVENTS_PROPS_SCHEMA, arrow_schema,
                            key_columns=["event_id"],
                            json_columns={"props"})
    v = violations_dataset(ds, plan)
    out = _collect(v, plan.violation_schema())
    return out.select(["event_id", "path", "error_type"])




def q_validate_events_props_struct(sf_dir: str):
    """Scale path for JSON cells: decode the JSON column to a struct
    ONCE with a vectorized kernel, then validate through the
    vectorized struct path (pc.struct_field) — no per-cell
    interpreter. Same result as validate_events_props."""
    from json_schema_ray.engine.table_validator import (
        compile_table_plan, validate_batch)
    from json_schema_ray.engine.text import json_decode_column
    from json_schema_ray.engine.validate import compile_schema

    ds = _read(sf_dir, "events", columns=["event_id", "props"])
    schema = compile_schema(EVENTS_PROPS_SCHEMA)
    decoded_type = pa.struct([("k", pa.int64())])
    arrow_schema = pa.schema([("event_id", pa.int64()),
                              ("props", decoded_type)])
    plan = compile_table_plan(schema, arrow_schema,
                              key_columns=["event_id"])

    def fn(batch: pa.Table) -> pa.Table:
        decoded = json_decode_column(batch, "props")
        return validate_batch(decoded, plan)

    import ray

    out = _collect(ds.map_batches(fn, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   plan.violation_schema())
    return out.select(["event_id", "path", "error_type"]).sort_by("event_id")


def q_docs_token_counts(sf_dir: str):
    from json_schema_ray.engine.text import token_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_counts(ds)
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("n_tokens", pa.int64())])
    return _collect(out, schema).select(["doc_id", "n_tokens"])


def q_dedup_docs_content_key(sf_dir: str):
    from json_schema_ray.engine.dedup import exact_dedup_groups

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    groups = exact_dedup_groups(ds, ["lang", "n_chars"], "doc_id")
    schema = pa.schema([("lang", pa.string()), ("n_chars", pa.int64()),
                        ("keep_id", pa.int64()), ("n_copies", pa.int64())])
    return _collect(groups, schema)




EMBEDDINGS_SCHEMA = {
    "type": ["object"],
    "required": ["vec_id", "embedding"],
    "properties": {
        "vec_id": {"type": ["integer"], "minimum": 0},
        "embedding": {
            "type": ["array"], "minItems": 64, "maxItems": 64,
            "items": {"type": ["number"], "minimum": -0.4, "maximum": 0.4},
        },
        "label": {"type": ["integer"], "minimum": 0},
    },
}


def q_validate_embeddings(sf_dir: str):
    """List-column validation: items element range checks lowered to
    flatten/segment Arrow kernels. Returns per-vector element
    violation counts (only vectors with any out-of-range element)."""
    from json_schema_ray.engine.validate import compile_plan_for, violations_dataset

    ds = _read(sf_dir, "embeddings")
    arrow_schema = pq.read_schema(os.path.join(sf_dir, "embeddings.parquet"))
    plan = compile_plan_for(EMBEDDINGS_SCHEMA, arrow_schema,
                            key_columns=["vec_id"])
    v = violations_dataset(ds, plan)
    out = _collect(v, plan.violation_schema())
    t = out.select(["vec_id"])
    import pyarrow.compute as _pc

    g = pa.TableGroupBy(t, ["vec_id"]).aggregate([([], "count_all")])
    return g.rename_columns(["vec_id", "n_bad_elements"]).sort_by("vec_id")




def q_events_last_order(sf_dir: str):
    """As-of backward join: each event attached to the user's most
    recent order date at event time (engine/relational.py asof join;
    the right side is broadcast, never shuffled)."""
    from json_schema_ray.engine.relational import asof_join_backward

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_custkey", "o_orderdate"])
    joined = asof_join_backward(
        events, orders, left_by="user_id", right_by="o_custkey",
        left_time="ts", right_time="o_orderdate",
        value_columns=["o_orderdate"])
    t = _collect(joined)
    return pa.table({
        "event_id": t["event_id"],
        "last_order_date": pc.cast(t["o_orderdate"], pa.timestamp("us")),
    }).sort_by("event_id")


def q_lineitems_shipped_90d(sf_dir: str):
    """Range (interval) join — engine/relational.py::range_join: each
    lineitem matched to orders with the same key whose order date
    falls within [l_shipdate - 90 days, l_shipdate]. Broadcast right
    side, vectorized searchsorted + expansion, no shuffle of the big
    side."""
    from json_schema_ray.engine.relational import range_join

    lineitem = _read(sf_dir, "lineitem",
                     columns=["l_orderkey", "l_linenumber", "l_shipdate"])
    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_orderkey", "o_orderdate"])
    out = range_join(lineitem, orders, "l_orderkey", "o_orderkey",
                     "l_shipdate", "o_orderdate",
                     before_us=90 * 86400 * 1_000_000, after_us=0,
                     value_columns=["o_orderdate"])
    t = _collect(out)
    return pa.table({
        "l_orderkey": t["l_orderkey"],
        "l_linenumber": t["l_linenumber"],
        "o_orderdate": pc.cast(t["o_orderdate"], pa.timestamp("us")),
    }).sort_by([("l_orderkey", "ascending"),
                ("l_linenumber", "ascending")])


def q_dedup_docs_survivors(sf_dir: str):
    """End-to-end exact dedup: the surviving rows themselves (keeper
    id per (lang, n_chars) content key), via the broadcast keeper-id
    semi-join."""
    from json_schema_ray.engine.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    out = exact_dedup(ds, ["lang", "n_chars"], "doc_id")
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by("doc_id")


def q_heavy_hitter_users(sf_dir: str):
    """Exact heavy hitters via the Count-Min-assisted distributed
    algorithm (pigeonhole candidates -> mergeable CMS prune -> exact
    filtered count); identical to GROUP BY ... HAVING."""
    from json_schema_ray.engine.relational import heavy_hitters

    ds = _read(sf_dir, "events", columns=["user_id"])
    t = heavy_hitters(ds, "user_id", min_count=80)
    return t.rename_columns(["user_id", "cnt"])


def q_events_last_order_sorted(sf_dir: str):
    """Same as-of join computed with the TWO-BIG-SIDES realization:
    tag + union + one null-safe sort + vectorized carry scan with
    boundary stitching — no broadcast of either side."""
    from json_schema_ray.engine.relational import asof_join_backward_sorted

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    joined = asof_join_backward_sorted(
        events, orders, left_by="user_id", right_by="o_custkey",
        left_time="ts", right_time="o_orderdate",
        value_columns=["o_orderdate"])
    t = _collect(joined)
    return pa.table({
        "event_id": t["event_id"],
        "last_order_date": pc.cast(t["o_orderdate"], pa.timestamp("us")),
    }).sort_by("event_id")


def q_events_next_order(sf_dir: str):
    """FORWARD as-of join, two big sides: each event takes its
    user's EARLIEST order on/after the event — the backward sorted
    machinery under time reversal
    (engine/relational.py asof_join_forward_sorted)."""
    from json_schema_ray.engine.relational import asof_join_forward_sorted

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    joined = asof_join_forward_sorted(
        events, orders, left_by="user_id", right_by="o_custkey",
        left_time="ts", right_time="o_orderdate",
        value_columns=["o_orderdate"])
    t = _collect(joined)
    return pa.table({
        "event_id": t["event_id"],
        "next_order_date": pc.cast(t["o_orderdate"], pa.timestamp("us")),
    }).sort_by("event_id")


def _query_vector(sf_dir: str) -> np.ndarray:
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      filters=[("vec_id", "=", 0)])
    return np.asarray(t["embedding"][0].as_py(), dtype=np.float64)


def q_knn_top10(sf_dir: str):
    from json_schema_ray.engine.similarity import knn_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)
    t = knn_bruteforce(ds, q, k=10, exclude_ids={0})
    scores = [round(v, 4) for v in t["score"].to_pylist()]
    return pa.table({"vec_id": t["vec_id"],
                     "score": pa.array(scores, pa.float64())})


def q_embedding_dims(sf_dir: str):
    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def dims(b: pa.Table) -> pa.Table:
        ln = pc.list_value_length(b["embedding"])
        return pa.table({
            "min_dim": pa.array([pc.min(ln).as_py()], pa.int64()),
            "max_dim": pa.array([pc.max(ln).as_py()], pa.int64()),
            "cnt": pa.array([b.num_rows], pa.int64()),
        })

    parts = _collect(ds.map_batches(dims, batch_format="pyarrow",
                                    zero_copy_batch=True))
    return pa.table({
        "min_dim": pa.array([pc.min(parts["min_dim"]).as_py()], pa.int64()),
        "max_dim": pa.array([pc.max(parts["max_dim"]).as_py()], pa.int64()),
        "cnt": pa.array([pc.sum(parts["cnt"]).as_py()], pa.int64()),
    })


def q_lang_histogram(sf_dir: str):
    from json_schema_ray.engine.drift import categorical_histogram

    ds = _read(sf_dir, "documents", columns=["lang"])
    hist = categorical_histogram(ds, "lang")
    langs = sorted(hist)
    return pa.table({
        "lang": pa.array(langs, pa.string()),
        "cnt": pa.array([hist[l] for l in langs], pa.int64()),
    })


def q_user_sessions(sf_dir: str):
    from json_schema_ray.engine.window import sessionize_counts

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out = sessionize_counts(ds, gap_seconds=1800.0)
    schema = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64()),
                        ("n_sessions", pa.int64())])
    return _collect(out, schema)


def q_user_interarrival_stats(sf_dir: str):
    """Per-user inter-arrival gap statistics (burstiness / liveness
    profile): count, sum, min and max of the microsecond gaps
    between a user's consecutive events in (ts, event_id) order.
    Composition: ONE rank.lag_column scan (single null-safe sort,
    O(n_blocks) carries) + a key-sized grouped_aggregate — every
    statistic is an INTEGER (microsecond ticks), so the shuffle
    merge order can't move a bit. First events (NULL gap) drop,
    like the SQL twin's WHERE gap IS NOT NULL."""
    from json_schema_ray.engine.rank import lag_column
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id"])
    lagged = lag_column(ds, "user_id", "ts", value="ts",
                        tiebreak="event_id", out="__prev_ts")

    def gaps(b: pa.Table) -> pa.Table:
        gap = pc.cast(pc.subtract(b["ts"], b["__prev_ts"]),
                      pa.int64())
        t = b.append_column("gap", gap)
        return t.filter(pc.is_valid(gap)).select(["user_id", "gap"])

    gds = lagged.map_batches(gaps, batch_format="pyarrow",
                             zero_copy_batch=True)
    t = grouped_aggregate(gds, ["user_id"],
                          [(None, "count"), ("gap", "sum"),
                           ("gap", "min"), ("gap", "max")])
    t = t.rename_columns(["user_id", "n_gaps", "sum_gap_us",
                          "min_gap_us", "max_gap_us"])
    return t.sort_by([("user_id", "ascending")])


def q_signup_purchase_delay(sf_dir: str):
    """Conversion delay: per user, microseconds from FIRST signup to
    FIRST purchase (signed; users lacking either drop). Composition:
    per-block conditional-min combiners -> ONE (user, type)-sized
    Min exchange -> vectorized driver pivot of the user x 2 result —
    all-integer timestamps end to end, hash-exact by construction."""
    from ray.data.aggregate import Min

    from json_schema_ray.engine.relational import \
        null_safe_grouped_aggregate

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type"])
    kinds = pa.array(["signup", "purchase"], pa.string())

    def prep(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_in(b["event_type"], value_set=kinds),
                    pc.is_valid(b["ts"]))
        t = b.filter(m)
        g = pa.TableGroupBy(t, ["user_id", "event_type"]) \
            .aggregate([("ts", "min")])
        return pa.table({
            "user_id": g["user_id"], "event_type": g["event_type"],
            "first_us": g["ts_min"].cast(pa.int64())})

    parts = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    agg = null_safe_grouped_aggregate(
        parts, ["user_id", "event_type"],
        [Min("first_us", alias_name="first_us")], ["first_us"])
    schema = pa.schema([("user_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("first_us", pa.int64())])
    t = _collect(agg, schema)  # user x 2 rows: result-sized
    users = t["user_id"].to_numpy(zero_copy_only=False)
    kinds_np = t["event_type"].to_numpy(zero_copy_only=False)
    firsts = t["first_us"].to_numpy(zero_copy_only=False)
    su = {u: f for u, k, f in zip(users, kinds_np, firsts)
          if k == "signup"}
    out = sorted((int(u), int(su[u]), int(f), int(f - su[u]))
                 for u, k, f in zip(users, kinds_np, firsts)
                 if k == "purchase" and u in su)
    return pa.table({
        "user_id": pa.array([r[0] for r in out], pa.int64()),
        "signup_us": pa.array([r[1] for r in out], pa.int64()),
        "purchase_us": pa.array([r[2] for r in out], pa.int64()),
        "delay_us": pa.array([r[3] for r in out], pa.int64())})


def q_user_session_table(sf_dir: str):
    """Session-LEVEL table (engine/window.py session_table): one row
    per 30-minute-gap session with start/end/duration/event-count —
    the table engagement analyses aggregate. One null-safe sort;
    interior sessions finalize vectorized per block; only the <= 2
    boundary-touching sessions per block chain-merge on the driver
    (O(n_blocks) state, hot-key-proof)."""
    from json_schema_ray.engine.window import session_table

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out = session_table(ds, "user_id", "ts", gap_seconds=1800.0)
    schema = pa.schema([("user_id", pa.int64()),
                        ("session_start_us", pa.int64()),
                        ("session_end_us", pa.int64()),
                        ("n_events", pa.int64()),
                        ("duration_us", pa.int64())])
    return _collect(out, schema).sort_by(
        [("user_id", "ascending"),
         ("session_start_us", "ascending")])


def q_user_weekly_type_diversity(sf_dir: str):
    """Per-user sliding-window diversity (engine/window.py
    keyed_hopping_distinct_counts): each user's 7-day distinct
    event-type count as of each day — the keyed generalization of
    weekly_active_users. Hot users collapse to distinct (hop, user,
    type) triples per block BEFORE the 7x window expansion; the
    global dedupe is one (window, user, type)-cardinality exchange."""
    from json_schema_ray.engine.window import \
        keyed_hopping_distinct_counts

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type"])
    out = keyed_hopping_distinct_counts(
        ds, "ts", "user_id", "event_type",
        window_seconds=7 * 86400, hop_seconds=86400)
    schema = pa.schema([("window_start_us", pa.int64()),
                        ("user_id", pa.int64()),
                        ("n_distinct", pa.int64())])
    return _collect(out, schema).sort_by(
        [("window_start_us", "ascending"), ("user_id", "ascending")])


def q_weekly_volume_delta(sf_dir: str):
    """Period-over-period reporting: weekly event volume with the
    previous week's count and the week-over-week change in e4
    fixed-point ((n - prev) * 1e4 // prev — ALL-INTEGER, so the SQL
    lag twin is hash-exact). Composition: tumbling_window_counts'
    one combiner exchange produces the WEEK-SIZED table; the lag and
    ratio run vectorized on that result (driver-side, bounded by
    the number of weeks)."""
    from json_schema_ray.engine.window import tumbling_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    t = tumbling_window_counts(ds, window_seconds=7 * 86400)
    t = t.rename_columns(["window_start_us", "value_sum", "n_events"])
    t = t.sort_by([("window_start_us", "ascending")])
    n = t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
    prev = np.concatenate([[0], n[:-1]])
    has_prev = np.arange(len(n)) > 0
    # DuckDB // TRUNCATES toward zero (not python floor): mirror via
    # sign * (|q| // prev) so negative deltas agree
    q = (n - prev) * 10000
    delta = np.sign(q) * (np.abs(q) // np.maximum(prev, 1))
    return pa.table({
        "window_start_us": t["window_start_us"],
        "n_events": pa.array(n),
        "prev_events": pa.array(
            [None if not h else int(p)
             for h, p in zip(has_prev, prev)], pa.int64()),
        "delta_e4": pa.array(
            [None if (not h or p <= 0) else int(d)
             for h, p, d in zip(has_prev, prev, delta)], pa.int64())})


def q_daily_event_volume(sf_dir: str):
    from json_schema_ray.engine.window import tumbling_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    t = tumbling_window_counts(ds, window_seconds=86400)
    t = t.rename_columns(["window_start_us", "value_sum", "n_events"])
    return _round_col(t, "value_sum", 2)


def q_hopping_event_volume(sf_dir: str):
    """Hopping (sliding) windows: 24h windows every 6h — each event
    lands in exactly 4 windows, assigned vectorized (np.repeat), then
    pre-agg + one small shuffle over window keys."""
    from json_schema_ray.engine.window import hopping_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    t = hopping_window_counts(ds, window_seconds=86400,
                              hop_seconds=21600)
    t = t.rename_columns(["window_start_us", "value_sum", "n_events"])
    return _round_col(t, "value_sum", 2)


def _conv_turn(did):
    """(conv_id, turn_idx) = (doc_id // 10, doc_id % 10) — a stable
    transcript-shaped composite key derived from the document id."""
    conv = pc.divide(did, 10)
    return conv, pc.subtract(did, pc.multiply(conv, 10))


def _mod_eq(arr, m: int, r: int):
    return pc.equal(pc.subtract(arr, pc.multiply(pc.divide(arr, m), m)), r)


def q_text_equality(sf_dir: str):
    """The §2.4 per-row invariant: per-turn text equality vs a
    'reference output' corpus under the stable (conv_id, turn_idx)
    key. The reference side is the same corpus with a deterministic
    divergence: every doc_id % 7 == 3 text is edited, every
    doc_id % 101 == 5 row is missing. Layout-agnostic keyed path
    (one hash shuffle, no per-group Python)."""
    from json_schema_ray.engine.compare import keyed_text_compare

    def shape(b: pa.Table) -> pa.Table:
        conv, turn = _conv_turn(b["doc_id"])
        return pa.table({"conv_id": conv, "turn_idx": turn,
                         "text": b["text"]})

    def shape_ref(b: pa.Table) -> pa.Table:
        conv, turn = _conv_turn(b["doc_id"])
        edited = pc.binary_join_element_wise(
            b["text"], pa.scalar(" [EDITED]"), "")
        text = pc.if_else(_mod_eq(b["doc_id"], 7, 3), edited, b["text"])
        t = pa.table({"conv_id": conv, "turn_idx": turn, "text": text})
        return t.filter(pc.invert(_mod_eq(b["doc_id"], 101, 5)))

    # one scan: both sides derive from the same materialized read
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "text"]).materialize()
    a = docs.map_batches(shape, batch_format="pyarrow",
                         zero_copy_batch=True)
    b = docs.map_batches(shape_ref, batch_format="pyarrow",
                         zero_copy_batch=True)
    out = keyed_text_compare(a, b, ["conv_id", "turn_idx"])
    schema = pa.schema([("conv_id", pa.int64()), ("turn_idx", pa.int64()),
                        ("error_type", pa.string()),
                        ("text_a", pa.string()), ("text_b", pa.string())])
    return _collect(out, schema).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])


# ---- rows-only queries (no SQL equivalent) ----


def _aligned_cmp_dir(sf_dir: str = None) -> str:
    """Cached candidate/reference ALIGNED-PARTITION corpus pair for
    the zero-shuffle compare and its oracle: the clean seed-42
    transcript corpus as 8 candidate shards plus a reference output
    sharing the partition layout and diverging deterministically
    (every idx%97==13 text edited, every idx%1009==5 row missing).
    Same on-demand + cached generation contract as
    :func:`_protocol_corpus_glob` — pure numpy/pyarrow, no Ray — so
    the DuckDB oracle can run whether or not the query ran first."""
    from json_schema_ray.sources.transcripts import generate_transcripts

    if sf_dir is None:
        sf_dir = os.environ.get("JSR_PROTOCOL_SF_DIR",
                                "/root/testdata/sf0.01")
    n_turns = _transcript_turns(sf_dir)
    path = f"/tmp/json_schema_ray/aligned_cmp_n{n_turns}"
    marker = os.path.join(path, "_DONE")
    if os.path.exists(marker):
        return path
    os.makedirs(path, exist_ok=True)
    t = generate_transcripts(n_turns, seed=42)
    n = t.num_rows
    idx = np.arange(n)
    edited = pa.array(
        np.where(idx % 97 == 13, np.array(" [EDITED]"), np.array("")))
    ref_text = pc.binary_join_element_wise(t["text"].combine_chunks(),
                                           edited, "")
    ref = pa.table({"conv_id": t["conv_id"], "turn_idx": t["turn_idx"],
                    "text": ref_text}).filter(pa.array(idx % 1009 != 5))
    n_files = 8
    step = (n + n_files - 1) // n_files
    ref_off = 0
    for f in range(n_files):
        ca = t.slice(f * step, step)
        dropped = int(np.count_nonzero(
            (idx[f * step:(f + 1) * step] % 1009) == 5))
        cb = ref.slice(ref_off, ca.num_rows - dropped)
        ref_off += ca.num_rows - dropped
        pq.write_table(ca.select(["conv_id", "turn_idx", "text"]),
                       os.path.join(path, f"cand-{f}.parquet"))
        pq.write_table(cb, os.path.join(path, f"ref-{f}.parquet"))
    with open(marker, "w") as fh:
        fh.write("ok")
    return path


def q_text_equality_aligned(sf_dir: str):
    """Zero-shuffle co-partitioned compare (the 10^12-turn path): the
    candidate transcript corpus vs a reference output sharing its
    partition layout, diverging at deterministic rows. Each task
    streams ONE partition pair — no shuffle, nothing row-sized
    crosses the wire except actual mismatches. Returns mismatch
    counts by error_type; the oracle reads the SAME cached shard
    pair by path and reproduces the counts with a FULL OUTER JOIN +
    IS DISTINCT FROM (the keyed realization text_equality proves
    row-exactly in registered SQL)."""
    from json_schema_ray.engine.compare import aligned_text_compare

    path = _aligned_cmp_dir(sf_dir)
    pairs = [(os.path.join(path, f"cand-{f}.parquet"),
              os.path.join(path, f"ref-{f}.parquet"))
             for f in range(8)]
    out = _collect(
        aligned_text_compare(pairs, ["conv_id", "turn_idx"]),
        pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                   ("error_type", pa.string()),
                   ("text_a", pa.string()), ("text_b", pa.string())]))
    g = pa.TableGroupBy(out.select(["error_type"]), ["error_type"]) \
        .aggregate([([], "count_all")])
    return g.rename_columns(["error_type", "cnt"]).sort_by("error_type")

def q_transcript_validation(sf_dir: str):
    from json_schema_ray.pipelines.flagship import run_flagship

    out = run_flagship(n_turns=_transcript_turns(sf_dir),
                       violation_rate=0.01, with_stats=False)
    return out["report"].to_pandas()


def q_transcript_verdicts(sf_dir: str):
    import ray

    from json_schema_ray.engine.validate import compile_plan_for, verdict_counts
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA)

    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])
    counts = verdict_counts(_read_transcripts(sf_dir), plan)
    return pa.table({k: pa.array([v], pa.int64())
                     for k, v in sorted(counts.items())})


def q_transcript_stats(sf_dir: str):
    """Per-column stats over the transcript corpus (the north-rule
    column-stats stage on its own input). The FULL mergeable-partial
    column_stats pass runs; the returned projection is the
    integer-exact (count, null_count) slice so the parquet-path
    DuckDB oracle can hash-check it (the float moments are
    oracle-checked on the orders/documents twins)."""
    import ray

    from json_schema_ray.engine.stats import column_stats
    from json_schema_ray.pipelines.flagship import transcripts_path

    ds = _read_transcripts(sf_dir)
    stats = column_stats(ds)
    return stats.select(["column", "count", "null_count"]) \
        .rename_columns(["column", "cnt", "nulls"]) \
        .sort_by([("column", "ascending")])


def q_minhash_near_dups(sf_dir: str):
    """MinHash+LSH near-dup pairs, oracle-checked END-TO-END: shingle
    hashes are DuckDB ``hash()`` (dedup._duck_hash_strings), so the
    SQL oracle rebuilds the exact signatures (universal-hash minhash
    over Mersenne-2^61-1 with uint64 wrap-around), the splitmix band
    buckets, the candidate pairs, and the Jaccard verify. Jaccard
    ships as floor(x*1e6+0.5) BIGINT."""
    import math

    from json_schema_ray.engine.dedup import minhash_dedup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    t = minhash_dedup_pairs(ds, "doc_id", threshold=0.35, n_bands=16)
    return pa.table({
        "id_a": t["id_a"], "id_b": t["id_b"],
        "jaccard_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["jaccard"].to_pylist()], pa.int64()),
    })


def q_docs_decontamination(sf_dir: str):
    """Benchmark decontamination: fraction of each document's
    distinct 5-gram shingles found in a broadcast 'eval corpus'
    blocklist (here: docs with doc_id % 20 == 0, deterministically).
    Fractions ship as floor(x*1e6+0.5) BIGINT."""
    from json_schema_ray.engine.dedup import (
        build_ngram_blocklist, ngram_containment)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def eval_docs(b: pa.Table) -> pa.Table:
        import numpy as _np

        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 20 == 0))

    bl = build_ngram_blocklist(
        ds.map_batches(eval_docs, batch_format="pyarrow",
                       zero_copy_batch=True))
    out = ngram_containment(ds, bl)

    def project(b: pa.Table) -> pa.Table:
        import numpy as _np

        has = pc.is_valid(b["n_shingles"]).to_numpy(zero_copy_only=False)
        fr = pc.fill_null(b["containment"], 0.0) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b["doc_id"], "n_shingles": b["n_shingles"],
            "containment_x1m": pa.array(
                _np.floor(fr * 1e6 + 0.5).astype(_np.int64),
                mask=~has),
        }).filter(pa.array(has))

    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_shingles", pa.int64()),
                        ("containment_x1m", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_customer_rollup(sf_dir: str):
    """GROUP BY ROLLUP (mktsegment, nationkey) over account balances
    scaled to BIGINT cents on both sides (rolled-up sums re-aggregate
    per-group sums, so integer values keep them association-free)."""
    from json_schema_ray.engine.relational import rollup_aggregate

    ds = _read(sf_dir, "customer",
               columns=["c_mktsegment", "c_nationkey", "c_acctbal"])

    def scale(b: pa.Table) -> pa.Table:
        import numpy as _np

        v = b["c_acctbal"].combine_chunks()
        valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        x = pc.fill_null(v, 0.0).to_numpy(zero_copy_only=False)
        vi = _np.floor(x * 100.0 + 0.5).astype(_np.int64)
        return pa.table({
            "c_mktsegment": b["c_mktsegment"],
            "c_nationkey": b["c_nationkey"],
            "bal100": pa.array(vi, pa.int64(), mask=~valid),
        })

    out = rollup_aggregate(
        ds.map_batches(scale, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["c_mktsegment", "c_nationkey"], "bal100", "sum")

    def to_int(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": b["c_mktsegment"],
            "c_nationkey": pc.cast(b["c_nationkey"], pa.int64()),
            "sum_bal100": pc.cast(b["agg_value"], pa.int64()),
            "lvl": b["lvl"],
        })

    schema = pa.schema([("c_mktsegment", pa.string()),
                        ("c_nationkey", pa.int64()),
                        ("sum_bal100", pa.int64()),
                        ("lvl", pa.int64())])
    return _collect(out.map_batches(to_int, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_events_moving_sum(sf_dir: str):
    """3-row moving window total per user (SQL ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW). Values scale to BIGINT cents on BOTH
    sides first, so the windowed sums are association-free exact."""
    from json_schema_ray.engine.rank import windowed_sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def scale(b: pa.Table) -> pa.Table:
        import numpy as _np

        v = b["value"].combine_chunks()
        valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        x = pc.fill_null(v, 0.0).to_numpy(zero_copy_only=False)
        vi = _np.floor(x * 100.0 + 0.5).astype(_np.int64)
        return b.drop_columns(["value"]).append_column(
            "v100", pa.array(vi, pa.int64(), mask=~valid))

    out = windowed_sum(ds.map_batches(scale, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       "user_id", "ts", "v100", "event_id", 3)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "win_sum": pc.cast(b["win_sum"], pa.int64()),
            "win_cnt": b["win_cnt"],
        })

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("win_sum", pa.int64()),
                        ("win_cnt", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_user_event_ntile(sf_dir: str):
    """SQL ROW_NUMBER + NTILE(4) per user ordered by (ts, event_id)
    (engine/rank.py grouped_ntile): one sort and one carry scan; each
    block carries the row counts of its first and last users, which
    give the row numbers and totals of users spanning blocks."""
    from json_schema_ray.engine.rank import grouped_ntile

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
    out = grouped_ntile(ds, "user_id", "ts", "event_id", 4)

    def project(b: pa.Table) -> pa.Table:
        return b.select(["user_id", "event_id", "row_number", "ntile"])

    schema = pa.schema([("user_id", pa.int64()),
                        ("event_id", pa.int64()),
                        ("row_number", pa.int64()),
                        ("ntile", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_user_first_last_value(sf_dir: str):
    """SQL FIRST_VALUE / full-frame LAST_VALUE per user ordered by
    (ts, event_id) — arg-extremes as ONE combinable hash aggregate
    via the order-preserving byte encoding
    (engine/relational.py grouped_first_last): no sort, hot users
    reduce inside every block."""
    from json_schema_ray.engine.relational import grouped_first_last

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "value"])
    out = grouped_first_last(ds, "user_id", "ts", "event_id", "value")
    schema = pa.schema([("user_id", pa.int64()),
                        ("first_val", pa.float64()),
                        ("last_val", pa.float64())])
    return _collect(out, schema)


def q_user_range_sum_1h(sf_dir: str):
    """SQL RANGE-frame windowed sum: per user, sum/count of value
    over the trailing 1 hour, one row per distinct (user, ts)
    (engine/window.py range_windowed_sum — one sort on (user, ts), a
    two-pointer prefix-sum scan per sorted block, and a carry of each
    block's first run and its last user's runs inside one window).
    Values quantize to floor(v*1e4+0.5) BIGINT per element BEFORE the
    prefix scan (fixed-point-before-sum: exact integer prefix sums,
    no float cancellation), matching the oracle's sum of the same
    integers."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = range_windowed_sum(ds, "user_id", "ts", "value",
                             datetime.timedelta(hours=1),
                             out="range_sum_e4", scale=10 ** 4)

    schema = pa.schema([("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("range_sum_e4", pa.int64()),
                        ("range_cnt", pa.int64())])
    return _collect(out, schema)


def q_user_value_ranks(sf_dir: str):
    """SQL RANK / DENSE_RANK per (user, value) — the distinct-value
    rank profile from one combiner groupby + one prefix-scan sort."""
    from json_schema_ray.engine.rank import grouped_value_ranks

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    out = grouped_value_ranks(ds, "user_id", "value")
    schema = pa.schema([("user_id", pa.int64()), ("value", pa.float64()),
                        ("cnt", pa.int64()), ("rank", pa.int64()),
                        ("dense_rank", pa.int64())])
    return _collect(out, schema)


def q_user_value_rank_profiles(sf_dir: str):
    """RANK/DENSE_RANK profile extended with SQL PERCENT_RANK and
    CUME_DIST (engine/rank.py grouped_rank_profiles): the base
    prefix-scan plus one key-cardinality-sized broadcast of per-key
    totals. Fractions ship as floor(x*1e6+0.5) BIGINT."""
    from json_schema_ray.engine.rank import grouped_rank_profiles

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    out = grouped_rank_profiles(ds, "user_id", "value")

    def scale(b: pa.Table) -> pa.Table:
        pct = b["pct_rank"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cume = b["cume_dist"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return b.drop_columns(["pct_rank", "cume_dist"]) \
            .append_column("pct_e6", pa.array(
                np.floor(pct * 1e6 + 0.5).astype(np.int64))) \
            .append_column("cume_e6", pa.array(
                np.floor(cume * 1e6 + 0.5).astype(np.int64)))

    schema = pa.schema([("user_id", pa.int64()), ("value", pa.float64()),
                        ("cnt", pa.int64()), ("rank", pa.int64()),
                        ("dense_rank", pa.int64()),
                        ("pct_e6", pa.int64()), ("cume_e6", pa.int64())])
    return _collect(out.map_batches(scale, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_docs_repetition(sf_dir: str):
    """Gopher-style duplicate word-2-gram repetition metrics per
    document (boilerplate detector for a training corpus). Fractions
    ship as floor(x*1e6+0.5) BIGINT so float rendering can't break
    the value-hash compare."""
    from json_schema_ray.engine.text import repetition_scores

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = repetition_scores(ds)

    def project(b: pa.Table) -> pa.Table:
        import numpy as _np

        has = pc.is_valid(b["n_grams"]).to_numpy(zero_copy_only=False)
        dg = pc.fill_null(b["dup_gram_frac"], 0.0) \
            .to_numpy(zero_copy_only=False)
        dc = pc.fill_null(b["dup_char_frac"], 0.0) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b["doc_id"], "n_grams": b["n_grams"],
            "dup_gram_x1m": pa.array(
                _np.floor(dg * 1e6 + 0.5).astype(_np.int64), mask=~has),
            "dup_char_x1m": pa.array(
                _np.floor(dc * 1e6 + 0.5).astype(_np.int64), mask=~has),
        }).filter(pa.array(has))

    schema = pa.schema([("doc_id", pa.int64()), ("n_grams", pa.int64()),
                        ("dup_gram_x1m", pa.int64()),
                        ("dup_char_x1m", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_docs_pii_scrub(sf_dir: str):
    """C4-style PII scrub over the corpus with deterministic
    synthetic contact strings appended (the raw corpus carries no
    emails/URLs, so the scrub would otherwise be a no-op): both
    sides build ``text || ' contact user<id>@example.com via
    https://ex.com/d/<id>?u=a@b.co'`` and must agree on counts AND
    the scrubbed text (URL consumed first, then the email)."""
    from json_schema_ray.engine.text import scrub_pii

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def augment(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.string())
        aug = pc.binary_join_element_wise(
            b["text"], " contact user", ids, "@example.com via ",
            "https://ex.com/d/", ids, "?u=a@b.co", "")
        return pa.table({"doc_id": b["doc_id"], "text": aug})

    out = scrub_pii(ds.map_batches(augment, batch_format="pyarrow",
                                   zero_copy_batch=True))

    def project(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "n_urls", "n_emails", "scrubbed"])

    schema = pa.schema([("doc_id", pa.int64()), ("n_urls", pa.int64()),
                        ("n_emails", pa.int64()),
                        ("scrubbed", pa.string())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def _augment_urls(b: pa.Table, keep) -> pa.Table:
    """Deterministic URL augmentation shared by every URL-graph
    query (the raw corpus carries no URLs): ``' see http://site
    <id%7>.example.com/p/<id> via https://CDN<id%3>.Example.COM/a'``
    — the uppercase host exercises lowercase normalization. The
    oracle side is the shared ``_AUG_SQL`` CTE body; the two recipes
    must stay byte-identical or hash parity breaks."""
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    m7 = pc.cast(pa.array(ids % 7), pa.string())
    m3 = pc.cast(pa.array(ids % 3), pa.string())
    aug = pc.binary_join_element_wise(
        b["text"], " see http://site", m7, ".example.com/p/",
        pc.cast(b["doc_id"], pa.string()),
        " via https://CDN", m3, ".Example.COM/a", "")
    cols = {c: b[c] for c in keep}
    cols["text"] = aug
    return pa.table(cols)


def q_docs_url_domains(sf_dir: str):
    """Per-domain URL accounting (engine/text.py url_domain_counts):
    token-level first-match RE2 extraction (== regexp_extract_all —
    matches can't span whitespace), per-block (doc, host) combiner,
    ONE host-sized groupby. URLs appended by ``_augment_urls`` on
    both sides."""
    from json_schema_ray.engine.text import url_domain_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    out = url_domain_counts(
        ds.map_batches(lambda b: _augment_urls(b, ["doc_id"]),
                       batch_format="pyarrow", zero_copy_batch=True))
    schema = pa.schema([("domain", pa.string()),
                        ("n_urls", pa.int64()),
                        ("n_docs", pa.int64())])
    return _collect(out, schema).sort_by([("domain", "ascending")])


def q_weekly_active_users(sf_dir: str):
    """Sliding-window distinct users (engine/window.py
    ``hopping_distinct_counts``): 7-day windows hopping daily — the
    DAU/WAU metric. Exact distinct via the (window, user) pair-dedupe
    combiner; the 7x row expansion collapses per block before the
    shuffle."""
    from json_schema_ray.engine.window import hopping_distinct_counts

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    out = hopping_distinct_counts(ds, ts="ts", entity="user_id",
                                  window_seconds=7 * 86400,
                                  hop_seconds=86400)
    schema = pa.schema([("window_start_us", pa.int64()),
                        ("n_distinct", pa.int64())])
    t = _collect(out, schema)
    return pa.table({
        "window_start_us": t["window_start_us"],
        "n_distinct": t["n_distinct"].cast(pa.int64()),
    }).sort_by([("window_start_us", "ascending")])


def q_docs_ranked_hosts(sf_dir: str):
    """The curation pipeline PageRank exists FOR: per-doc host
    authority. Composition: host graph -> 3-iteration integer
    PageRank (node-sized result) -> broadcast rank lookup over each
    doc's extracted hosts -> per-doc MAX host rank (documents never
    span blocks, so the per-block groupby is exact) -> keep docs
    (the score a curation pipeline thresholds or weights by). All
    integer, hash-exact against the SQL oracle for every doc."""
    import ray

    from json_schema_ray.engine.graph import pagerank, url_host_edges

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "source"])
    aug_ds = ds.map_batches(
        lambda b: _augment_urls(b, ["doc_id", "source"]),
        batch_format="pyarrow", zero_copy_batch=True)
    ranks = pagerank(url_host_edges(aug_ds, src_column="source"),
                     n_iter=3)
    handle = ray.put((ranks["node"].combine_chunks(),
                      ranks["rank_fp"].to_numpy(zero_copy_only=False)))

    doc_hosts = url_host_edges(aug_ds, src_column="doc_id")

    def best_rank(batch: pa.Table) -> pa.Table:
        nodes, rank_np = ray.get(handle)
        idx = pc.index_in(batch["dst"], value_set=nodes) \
            .to_numpy(zero_copy_only=False)
        r = rank_np[idx]
        g = pa.TableGroupBy(
            pa.table({"doc_id": batch["src"].cast(pa.int64()),
                      "r": pa.array(r)}),
            ["doc_id"]).aggregate([("r", "max")])
        return pa.table({"doc_id": g["doc_id"],
                         "best_host_rank_fp": g["r_max"]})

    out = doc_hosts.map_batches(best_rank, batch_format="pyarrow",
                                zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("best_host_rank_fp", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_line_dedup(sf_dir: str):
    """RefinedWeb-style repeated-line removal (engine/text.py
    ``drop_repeated_lines``): the raw corpus has no newlines, so both
    sides build the same deterministic 3-line structure — two text
    halves around a middle line that is shared boilerplate for even
    doc_ids ('accept cookies to continue', ~250 docs, dropped at
    max_docs=5) and unique for odd ones (kept). Hash-exact cleaned
    texts."""
    from json_schema_ray.engine.text import drop_repeated_lines

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def lineify(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mid = pc.if_else(
            pa.array(ids % 2 == 0),
            pa.scalar("accept cookies to continue"),
            pc.binary_join_element_wise(
                "unique-", pc.cast(b["doc_id"], pa.string()), ""))
        text = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(b["text"], 0, 50), mid,
            pc.utf8_slice_codeunits(b["text"], 50, 100), "\n")
        return pa.table({"doc_id": b["doc_id"], "text": text})

    out = drop_repeated_lines(
        ds.map_batches(lineify, batch_format="pyarrow",
                       zero_copy_batch=True), max_docs=5)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("text_clean", pa.string())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_events_value_outliers(sf_dir: str):
    """The robust z-score gate IN ACTION (composition of
    grouped_median_mad): an event is an outlier when
    ``|v - median| > 3 * 1.4826 * MAD`` for its user. Comparison is
    all-integer after e6 quantization — ``|qv - qmed| * 10000 >
    3 * 14826 * qmad`` — so the flagged id set hash-matches SQL
    exactly. Returns only the outlier rows."""
    import numpy as np

    import ray

    from json_schema_ray.engine.rank import grouped_median_mad

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])
    mm = grouped_median_mad(ds, "user_id", "value", "event_id")
    keys = mm["user_id"].combine_chunks()
    qmed = np.floor(mm["median"].to_numpy(zero_copy_only=False)
                    * 10 ** 6 + 0.5).astype(np.int64)
    qmad = np.floor(mm["mad"].to_numpy(zero_copy_only=False)
                    * 10 ** 6 + 0.5).astype(np.int64)
    handle = ray.put((keys, qmed, qmad))

    def flag(b: pa.Table) -> pa.Table:
        k, med_r, mad_r = ray.get(handle)
        idx = pc.index_in(b["user_id"], value_set=k) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["value"].to_numpy(zero_copy_only=False)
        qv = np.floor(v * 10 ** 6 + 0.5)
        dev = np.abs(qv - med_r[idx])
        hot = dev * 10000 > 3 * 14826 * mad_r[idx]
        hot &= ~np.isnan(v)
        return b.filter(pa.array(hot)) \
            .select(["event_id", "user_id", "value"])

    out = ds.map_batches(flag, batch_format="pyarrow",
                         zero_copy_batch=True)
    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("value", pa.float64())])
    return _collect(out, schema).sort_by([("event_id", "ascending")])


def q_events_value_minmax(sf_dir: str):
    """Per-user min-max feature scaling
    (engine/relational.py ``minmax_normalize_by_group``):
    fixed-point [0, 1e6] normalization, degenerate groups NULL —
    hash-exact integers vs the SQL min/max window."""
    from json_schema_ray.engine.relational import (
        minmax_normalize_by_group,
    )

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])
    out = minmax_normalize_by_group(ds, "user_id", "value")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "norm_fp"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("norm_fp", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_weighted_avg_price(sf_dir: str):
    """Quantity-weighted mean extended price per return flag
    (engine/relational.py ``grouped_weighted_mean``): per-element
    fixed-point quantization before any sum, one combiner + one
    key-sized groupby — hash-exact integer output."""
    from json_schema_ray.engine.relational import grouped_weighted_mean

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice",
                        "l_quantity"])
    out = grouped_weighted_mean(ds, "l_returnflag",
                                "l_extendedprice", "l_quantity")
    schema = pa.schema([("l_returnflag", pa.string()),
                        ("wmean_fp", pa.int64()),
                        ("w_sum", pa.int64())])
    return _collect(out, schema) \
        .sort_by([("l_returnflag", "ascending")])


def q_lang_dup_rates(sf_dir: str):
    """Per-language exact-duplication rate — the corpus-health rollup
    a dedup pass is judged by: docs, distinct texts, and the
    duplicate fraction (fixed-point x1e6). Composition of
    grouped_distinct_count (pair-dedupe combiner) + a count
    aggregate; lang-sized join on the driver."""
    from json_schema_ray.engine.relational import (
        grouped_aggregate, grouped_distinct_count)

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    nd = _collect(grouped_distinct_count(ds, "lang", "text"),
                  pa.schema([("lang", pa.string()),
                             ("n_distinct", pa.int64())]))
    tot = grouped_aggregate(ds, ["lang"], [(None, "count")],
                            driver_merge=True)  # 5 langs
    idx = pc.index_in(nd["lang"], value_set=tot["lang"].combine_chunks())
    n_docs = tot["rows_count"].combine_chunks().take(idx)
    import numpy as np

    nd_np = nd["n_distinct"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    n_np = n_docs.to_numpy(zero_copy_only=False).astype(np.int64)
    rate = ((n_np - nd_np) * 10 ** 6) // n_np
    return pa.table({
        "lang": nd["lang"],
        "n_docs": pa.array(n_np),
        "n_distinct": pa.array(nd_np),
        "dup_x1m": pa.array(rate),
    }).sort_by([("lang", "ascending")])


def q_curation_summary(sf_dir: str):
    """The full curation pipeline (pipelines/curation.py): quality
    gate -> exact dedup -> near-dup cluster removal ->
    decontamination -> split -> packing -> partitioned parquet.
    Genuinely non-SQL (multi-stage, stateful, writes files): the
    driver records the rows-only check; per-stage operators are
    individually oracle-checked elsewhere. Returns (stage, rows)."""
    import shutil
    import tempfile

    from json_schema_ray.pipelines.curation import run_curation

    out = tempfile.mkdtemp(prefix="curation_", dir="/tmp")
    try:
        s = run_curation(sf_dir, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    c = s["counts"]
    stages = ["input", "after_quality", "after_exact_dedup",
              "after_near_dedup", "after_decontamination"]
    rows = [(st, int(c[st])) for st in stages]
    rows += [(f"split_{k}", int(v))
             for k, v in sorted(c["split_rows"].items())]
    return pa.table({"stage": pa.array([r[0] for r in rows]),
                     "rows": pa.array([r[1] for r in rows],
                                      pa.int64())})


def q_events_value_winsorized(sf_dir: str):
    """Per-user winsorization (engine/rank.py ``winsorize_by_group``):
    event values clipped into their own user's [p01, p99]
    quantile_disc band — one quantile sort + a key-sized threshold
    broadcast + a stateless elementwise clip scan."""
    from json_schema_ray.engine.rank import winsorize_by_group

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])
    out = winsorize_by_group(ds, "user_id", "value", "event_id",
                             q_lo=0.01, q_hi=0.99)

    def project(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "winsorized"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("winsorized", pa.float64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension embedding mean/variance (engine/similarity.py
    embedding_dim_stats): fixed-point e6 quantization, exact integer
    sufficient statistics merged as python ints == SQL HUGEINT, the
    two float finish expressions mirrored in the oracle — d*3
    integers per block on the wire, never row-sized data."""
    from json_schema_ray.engine.similarity import embedding_dim_stats

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return embedding_dim_stats(ds).sort_by([("dim", "ascending")])


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (engine/similarity.py
    grouped_embedding_centroids) — the class-mean statistic behind
    centroid-based curation. labels x d integer pairs per block on
    the wire; python-int merge == SQL HUGEINT; one mirrored float
    finish per (label, dim)."""
    from json_schema_ray.engine.similarity import \
        grouped_embedding_centroids

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    out = grouped_embedding_centroids(ds)
    return out.sort_by([("label", "ascending"), ("dim", "ascending")])


def q_embedding_gram(sf_dir: str):
    """Fixed-point Gram matrix of the embedding corpus
    (engine/similarity.py ``embedding_gram``): one d x d int64
    matmul partial per block, merged additively — the whitening/PCA
    statistic with zero float-order sensitivity, hash-exact vs the
    unnest self-join SQL."""
    from json_schema_ray.engine.similarity import embedding_gram

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return embedding_gram(ds)


def q_user_value_mad(sf_dir: str):
    """Per-user robust location/scale (engine/rank.py
    ``grouped_median_mad``): median + MAD of event values — the
    robust z-score gate's inputs. Two quantile sorts with a key-sized
    median broadcast between; elementwise-double deviations, so both
    outputs hash-match DuckDB quantile_disc exactly."""
    from json_schema_ray.engine.rank import grouped_median_mad

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])
    return grouped_median_mad(ds, "user_id", "value", "event_id")


def q_approx_weekly_active_users(sf_dir: str):
    """HLL sketch twin of weekly_active_users (engine/window.py
    ``hopping_approx_distinct_counts``): one 2^p-byte register row
    per (window, block) instead of the window/hop-times-wider exact
    dedupe shuffle — the 100-TB realization. Approximate by
    construction (rows-only check); its exact twin is oracle-checked
    and the error-bound test pins the estimate within the HLL
    tolerance."""
    from json_schema_ray.engine.window import (
        hopping_approx_distinct_counts,
    )

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    out = hopping_approx_distinct_counts(
        ds, ts="ts", entity="user_id",
        window_seconds=7 * 86400, hop_seconds=86400)
    schema = pa.schema([("window_start_us", pa.int64()),
                        ("n_approx", pa.float64())])
    return _collect(out, schema) \
        .sort_by([("window_start_us", "ascending")])


def q_host_hits(sf_dir: str):
    """Integer HITS hubs/authorities over the host graph
    (engine/graph.py ``hits``): sources score as hubs, mentioned
    hosts as authorities; max-normalized fixed-point, hash-exact vs
    the HUGEINT SQL chain."""
    from json_schema_ray.engine.graph import hits, url_host_edges

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "source"])
    edges = url_host_edges(
        ds.map_batches(lambda b: _augment_urls(b, ["source"]),
                       batch_format="pyarrow", zero_copy_batch=True),
        src_column="source")
    return hits(edges, n_iter=3)


def q_host_pagerank_weighted(sf_dir: str):
    """Weighted PageRank over the PRE-AGGREGATED host graph: mention
    edges collapse to (src, dst, w=count) first — the realistic edge
    layout after a corpus-scale edge-build — then contributions are
    (rank * w) // W(src), all integer. The aggregation changes the
    floor-division grouping, so this is a genuinely different result
    from host_pagerank, hash-checked against the weighted SQL
    chain."""
    import ray

    from json_schema_ray.engine.graph import pagerank, url_host_edges

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "source"])
    mentions = url_host_edges(
        ds.map_batches(lambda b: _augment_urls(b, ["source"]),
                       batch_format="pyarrow", zero_copy_batch=True),
        src_column="source")

    def agg_w(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["src", "dst"]) \
            .aggregate([([], "count_all")])
        return pa.table({"src": g["src"], "dst": g["dst"],
                         "w": g["count_all"].cast(pa.int64())})

    edges = mentions.map_batches(agg_w, batch_format="pyarrow",
                                 zero_copy_batch=True) \
        .groupby(["src", "dst"]).sum("w")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["src"], "dst": batch["dst"],
                         "w": batch["sum(w)"].cast(pa.int64())})

    edges = edges.map_batches(rename, batch_format="pyarrow",
                              zero_copy_batch=True)
    return pagerank(edges, n_iter=3, weight="w")


def q_lineitem_qty_price_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs extended
    price (engine/stats.py grouped_corr): e2 fixed-point sufficient
    statistics, ONE key-sized groupby, final combination in
    arbitrary-precision ints == SQL HUGEINT, two float roundings
    mirrored in the oracle -> hash-exact corr_e6."""
    from json_schema_ray.engine.stats import grouped_corr

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity",
                        "l_extendedprice"])
    out = grouped_corr(ds, "l_returnflag", "l_quantity",
                       "l_extendedprice", scale=100)
    schema = pa.schema([("l_returnflag", pa.string()),
                        ("n", pa.int64()), ("corr_e6", pa.int64())])
    return _collect(out, schema).sort_by(
        [("l_returnflag", "ascending")])


def q_docs_snapshot_diff(sf_dir: str):
    """Snapshot-over-snapshot table diff (engine/relational.py
    ``snapshot_diff``): old = documents minus every 7th doc; new =
    documents minus every 11th doc with n_chars bumped on every 5th.
    added/removed/changed via ONE sort + interior/edge classify — no
    join; SQL twin is the FULL OUTER JOIN + IS DISTINCT FROM CASE."""
    from json_schema_ray.engine.relational import snapshot_diff

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])

    def mk_old(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 != 0))

    def mk_new(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        kept = b.filter(pa.array(ids % 11 != 0))
        ids_k = kept["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        bump = pa.array(ids_k % 5 == 0)
        n_chars = pc.if_else(bump, pc.add(kept["n_chars"], 1),
                             kept["n_chars"])
        return kept.set_column(
            kept.column_names.index("n_chars"), "n_chars", n_chars)

    old_ds = ds.map_batches(mk_old, batch_format="pyarrow",
                            zero_copy_batch=True)
    new_ds = ds.map_batches(mk_new, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = snapshot_diff(old_ds, new_ds, ["doc_id"],
                        ["lang", "n_chars"])
    schema = pa.schema([("doc_id", pa.int64()),
                        ("change", pa.string())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_pack_contiguous(sf_dir: str):
    """GPT-style contiguous sequence packing (engine/window.py
    ``pack_contiguous``): the corpus concatenates into one stream in
    doc_id order, 4096-char training sequences; each doc reports the
    sequences it spans and its offset in the first. The corpus is
    stored doc_id-sorted, so the presorted path applies: NO
    all-to-all — one light block-stat pass, broadcast base offsets,
    one per-block scan (sortedness VERIFIED, raises if violated)."""
    from json_schema_ray.engine.window import pack_contiguous

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = pack_contiguous(ds, "doc_id", "n_chars", 4096,
                          presorted=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_chars", pa.int64()),
                        ("pack_first", pa.int64()),
                        ("pack_last", pa.int64()),
                        ("pack_offset", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_orders_lineitem_reconcile(sf_dir: str):
    """Cross-table aggregate reconciliation (engine/keys.py
    ``reconcile_aggregate``): every order's o_totalprice must equal
    the fixed-point sum of its lineitems' l_extendedprice; emits
    only violations — in this corpus every joined order mismatches
    (the synthetic totalprice is independent of the lineitems) and
    ~1.7% of orders have no lineitems, so the hash compare proves
    the distributed per-key child sums exact. No join: child rows
    pre-combine per block, one tagged sort, interior/edge stitch."""
    from json_schema_ray.engine.keys import reconcile_aggregate

    parent = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_totalprice"])
    child = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_extendedprice"])
    out = reconcile_aggregate(parent, child, "o_orderkey",
                              "l_orderkey", "o_totalprice",
                              "l_extendedprice", scale=100, tol=0)
    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("expected", pa.int64()),
                        ("actual", pa.int64()),
                        ("status", pa.string())])
    return _collect(out, schema).sort_by([("o_orderkey", "ascending")])


def q_docs_source_lang_fd(sf_dir: str):
    """Functional-dependency check (engine/keys.py
    ``functional_dependency_violations``): flag sources that publish
    in more than one language — the FD source -> lang as a
    column-consistency gate. One null-safe sort with O(blocks)
    carries, then a stateless filter on the distinct counts."""
    from json_schema_ray.engine.keys import (
        functional_dependency_violations)

    ds = _read(sf_dir, "documents", columns=["source", "lang"])
    out = functional_dependency_violations(ds, "source", "lang")
    schema = pa.schema([("source", pa.string()),
                        ("n_distinct", pa.int64())])
    return _collect(out, schema).sort_by([("source", "ascending")])


def q_user_value_running_max(sf_dir: str):
    """Per-user running maximum of value — SQL ``max(value) OVER
    (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED
    PRECEDING)`` (engine/rank.py cumulative_max, the streaming
    watermark primitive with a per-key kernel): one null-safe
    range-partitioned sort, a Hillis-Steele segmented prefix-max
    scan per block (log2(n) whole-array numpy passes, no per-segment
    Python), one fixed-size carry row per block, driver prefix-max
    offsets broadcast back. The running max SELECTS an input float —
    no arithmetic — so float parity with the SQL window twin is
    exact, row for row."""
    from json_schema_ray.engine.rank import cumulative_max

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    out = cumulative_max(ds, "user_id", "ts", "value",
                         tiebreak="event_id", out="running_max")
    schema = pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us")),
                        ("user_id", pa.int64()), ("value", pa.float64()),
                        ("running_max", pa.float64())])
    t = _collect(out.map_batches(
        lambda b: b.select(["event_id", "ts", "user_id", "value",
                            "running_max"]),
        batch_format="pyarrow", zero_copy_batch=True), schema)
    return t.sort_by([("event_id", "ascending")])


def q_events_record_highs(sf_dir: str):
    """Record-setting events: rows whose value strictly exceeds
    every earlier value in global (ts, event_id) stream order — the
    running-record screen (new-high detection over an unbounded
    stream). Composition of two O(blocks)-carry primitives on ONE
    constant partition key: cumulative_max gives each row the
    watermark-with-current (wm), lag_column gives the watermark
    BEFORE it (pwm); a record is value == wm AND (pwm NULL OR
    wm > pwm). Both ops select input floats — no arithmetic — so
    the SQL double-window twin is float-exact."""
    from json_schema_ray.engine.rank import cumulative_max, lag_column

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "value"])

    def const_key(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__gk", pa.array(np.zeros(b.num_rows, np.int8)))

    cm = cumulative_max(
        ds.map_batches(const_key, batch_format="pyarrow",
                       zero_copy_batch=True),
        "__gk", "ts", "value", tiebreak="event_id", out="wm")
    lg = lag_column(cm, "__gk", "ts", value="wm",
                    tiebreak="event_id", out="pwm")

    def records(b: pa.Table) -> pa.Table:
        is_rec = pc.and_(
            pc.equal(b["value"], b["wm"]),
            pc.or_(pc.is_null(b["pwm"]),
                   pc.greater(b["wm"], pc.fill_null(b["pwm"],
                                                    -np.inf))))
        b = b.filter(pc.fill_null(is_rec, False))
        return b.select(["event_id", "ts", "value"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("value", pa.float64())])
    t = _collect(lg.map_batches(records, batch_format="pyarrow",
                                zero_copy_batch=True), schema)
    return t.sort_by([("event_id", "ascending")])


def q_events_time_rollup(sf_dir: str):
    """Temporal-hierarchy ROLLUP — GROUP BY ROLLUP (day, hour) over
    e2-scaled value sums: the calendar drill-down report (period
    totals at every level plus the grand total in ONE pass). The
    hierarchy keys derive in-scan via Arrow temporal kernels;
    engine/relational.py rollup_aggregate shuffles the INPUT exactly
    once (finest level), coarser levels re-aggregate group-sized
    rows; sums are integer fixed-point so every level re-aggregates
    association-free."""
    from json_schema_ray.engine.relational import rollup_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def keys(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        x = pc.fill_null(v, 0.0).to_numpy(zero_copy_only=False)
        vi = np.floor(x * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "dy": pc.day(b["ts"]),
            "hr": pc.hour(b["ts"]),
            "v100": pa.array(vi, pa.int64(), mask=~valid)})

    out = rollup_aggregate(
        ds.map_batches(keys, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["dy", "hr"], "v100", "sum")
    j = _collect(out, pa.schema([
        ("dy", pa.int64()), ("hr", pa.int64()),
        ("agg_value", pa.int64()), ("lvl", pa.int64())]))
    return pa.table({
        "dy": pc.cast(j["dy"], pa.int64()),
        "hr": pc.cast(j["hr"], pa.int64()),
        "sum_v100": pc.cast(j["agg_value"], pa.int64()),
        "lvl": pc.cast(j["lvl"], pa.int64()),
    }).sort_by([("lvl", "ascending"), ("dy", "ascending"),
                ("hr", "ascending")])


def q_user_max_drawdown(sf_dir: str):
    """Per-user maximum drawdown: the most negative ``value -
    running_max(value)`` over the user's (ts, event_id) stream — the
    peak-to-trough quant statistic, a one-map composition over the
    cumulative_max watermark primitive plus a user-grain min
    aggregate. The subtraction is ONE IEEE double op on values both
    sides materialize identically (running max selects an input), so
    the SQL window twin is float-exact with no fixed-point step."""
    from json_schema_ray.engine.rank import cumulative_max
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    cm = cumulative_max(ds, "user_id", "ts", "value",
                        tiebreak="event_id", out="rm")

    def dd(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"],
            "dd": pc.subtract(b["value"], b["rm"])})

    g = grouped_aggregate(
        cm.map_batches(dd, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], [("dd", "min")], driver_merge=True)
    if g is None:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "max_drawdown": pa.array([], pa.float64())})
    return pa.table({
        "user_id": pc.cast(g["user_id"], pa.int64()),
        "max_drawdown": pc.cast(g["dd_min"], pa.float64()),
    }).sort_by([("user_id", "ascending")])


def q_events_unterminated(sf_dir: str):
    """Terminal-state protocol check (engine/keys.py
    ``accept_state_violations``): a user's event stream must END in
    'purchase' or 'signup'; users whose last event (by ts, event_id)
    is anything else surface with that label. Arg-max as ONE
    combinable hash aggregate — no sort, hot users reduce per
    block."""
    from json_schema_ray.engine.keys import accept_state_violations

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    out = accept_state_violations(
        ds, "user_id", "ts", "event_type",
        accept={"purchase", "signup"}, tiebreak="event_id")
    schema = pa.schema([("user_id", pa.int64()),
                        ("last_label", pa.string())])
    return _collect(out, schema).sort_by([("user_id", "ascending")])


def q_daily_volume_anomalies(sf_dir: str):
    """Partition-volume anomaly gate (north-rule drift family,
    composition): per-day event counts from the tumbling-window
    scan, then the robust z-score gate ``|n - median| * 10000 >
    3 * 14826 * MAD`` over the DAY-COUNT table — days whose volume
    departs from the corpus's typical day surface (e.g. truncated
    first/last partitions, ingestion gaps). The count table is
    day-sized (bounded), so the median/MAD step runs on the driver
    with DuckDB's ``quantile_disc`` convention
    (``sorted[ceil(q*n) - 1]``) — the corpus-sized work is the one
    tumbling-count scan."""
    import math

    from json_schema_ray.engine.window import tumbling_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    t = tumbling_window_counts(ds, window_seconds=86400)
    t = t.rename_columns(["window_start_us", "value_sum", "n_events"])
    n = t["n_events"].to_pylist()
    s = sorted(n)
    med = s[max(0, math.ceil(0.5 * len(s)) - 1)]
    devs = sorted(abs(v - med) for v in n)
    mad = devs[max(0, math.ceil(0.5 * len(devs)) - 1)]
    keep = [abs(v - med) * 10000 > 3 * 14826 * mad for v in n]
    out = t.filter(pa.array(keep)) \
        .select(["window_start_us", "n_events"])
    return out.sort_by([("window_start_us", "ascending")])


def q_incremental_dedup_docs(sf_dir: str):
    """Snapshot-over-snapshot dedup (engine/dedup.py
    ``incremental_dedup``): docs with doc_id % 3 == 0 play the
    historic index (their content keys were admitted in prior
    snapshots), the rest are the NEW delta. Survivors = min-doc_id
    per content key within the delta whose key is absent from the
    index. The index side is probed in ONE streaming pass against a
    broadcast delta key set — never shuffled or collected, so the
    shape holds when the index is corpus-lifetime-sized."""
    from json_schema_ray.engine.dedup import incremental_dedup

    def keyed(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            b["lang"], pc.cast(b["n_chars"], pa.string()), "|")
        return pa.table({"doc_id": b["doc_id"], "key": key})

    def read_keyed():
        return _read(sf_dir, "documents",
                     columns=["doc_id", "lang", "n_chars"]) \
            .map_batches(keyed, batch_format="pyarrow",
                         zero_copy_batch=True)

    def is_index(b: pa.Table) -> pa.Table:
        return b.filter(
            pa.array(b["doc_id"].to_numpy(zero_copy_only=False)
                     % 3 == 0))

    def is_delta(b: pa.Table) -> pa.Table:
        return b.filter(
            pa.array(b["doc_id"].to_numpy(zero_copy_only=False)
                     % 3 != 0))

    index = read_keyed().map_batches(is_index, batch_format="pyarrow",
                                     zero_copy_batch=True)
    delta = read_keyed().map_batches(is_delta, batch_format="pyarrow",
                                     zero_copy_batch=True)
    out = incremental_dedup(delta, index, "key", "doc_id")
    schema = pa.schema([("doc_id", pa.int64()), ("key", pa.string())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_host_pagerank(sf_dir: str):
    """Host-level PageRank over the corpus link graph
    (engine/graph.py ``pagerank`` — the iterative-algorithm family):
    edges are one (source, host) row per URL MENTION extracted with
    the same RE2 contract as docs_url_domains (the corpus carries no
    URLs, so both sides append the same deterministic ones). Ranks
    are ALL-INTEGER fixed-point (scale 1e9, damping 85/100 as integer
    ops, floor division), so three iterations reproduce bit-for-bit
    in DuckDB ``//`` arithmetic — no float summation order anywhere.
    Broadcast mode probes a node-sized rank vector per batch; the
    driver-state-free sorted mode is differential-tested in
    tests/test_graph.py."""
    from json_schema_ray.engine.graph import pagerank, url_host_edges

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "source"])
    edges = url_host_edges(
        ds.map_batches(lambda b: _augment_urls(b, ["source"]),
                       batch_format="pyarrow", zero_copy_batch=True),
        src_column="source")
    return pagerank(edges, n_iter=3)


def q_events_next_value(sf_dir: str):
    from json_schema_ray.engine.rank import lead_column

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    out = lead_column(ds, "user_id", "ts", "value", "event_id")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "user_id", "lead_value"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("lead_value", pa.float64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_simhash_docs(sf_dir: str):
    from json_schema_ray.engine.dedup import simhash_signatures

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    schema = pa.schema([("doc_id", pa.int64()), ("simhash", pa.uint64())])
    t = _collect(simhash_signatures(ds, "doc_id"), schema)
    return t.sort_by("doc_id")


def q_lang_id_accuracy(sf_dir: str):
    from json_schema_ray.engine.relational import grouped_aggregate
    from json_schema_ray.engine.text import language_id

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pred = language_id(ds)
    t = grouped_aggregate(pred, ["lang", "lang_pred"],
                          [(None, "count")], driver_merge=True)  # 25
    return t.rename_columns(["lang", "lang_pred", "cnt"]).sort_by([
        ("lang", "ascending"), ("lang_pred", "ascending")])


def q_doc_quality(sf_dir: str):
    from json_schema_ray.engine.text import quality_scores

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = quality_scores(ds)
    t = _collect(out.select_columns(
        ["doc_id", "n_tokens", "quality_score"]))
    # floor(x*1e4 + 0.5) on BOTH sides: Python round() (banker's) and
    # DuckDB round() (half away) disagree exactly on .5 boundaries
    import numpy as _np

    q = t["quality_score"].to_numpy(zero_copy_only=False)
    qi = _np.floor(q * 10000.0 + 0.5).astype(_np.int64)
    t = t.set_column(t.column_names.index("quality_score"),
                     "quality_x10k", pa.array(qi))
    return t.sort_by("doc_id")


def q_docs_quality_budget(sf_dir: str):
    """Budget-constrained data selection: keep the highest-quality
    documents (quality_x10k DESC, doc_id tiebreak) until the running
    character budget (50k chars) is exhausted — the 'best data
    under a token budget' curation selector. Composition: the
    quality scan + ONE constant-key cumulative_sum (the hot-key
    machinery is built for a single global key: one carry row per
    block, never the corpus) + a stateless threshold filter. The
    running sum is integer-valued, so the SQL window twin is
    hash-exact."""
    from json_schema_ray.engine.rank import cumulative_sum
    from json_schema_ray.engine.text import quality_scores

    budget = 50_000
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "n_chars"])
    scored = quality_scores(ds)

    def prep(b: pa.Table) -> pa.Table:
        q = b["quality_score"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        qi = np.floor(q * 10000.0 + 0.5).astype(np.int64)
        return pa.table({
            "doc_id": b["doc_id"],
            "quality_x10k": pa.array(qi),
            "__negq": pa.array(-qi),
            "sz": b["n_chars"],
            "__k": pa.array(np.zeros(b.num_rows, np.int64))})

    ranked = scored.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True)
    summed = cumulative_sum(ranked, "__k", "__negq", "sz",
                            tiebreak="doc_id")

    def keep(b: pa.Table) -> pa.Table:
        r = pc.cast(b["running_sum"], pa.int64())
        m = pc.and_(pc.is_valid(r), pc.less_equal(r, budget))
        kept = b.filter(m)
        return pa.table({
            "doc_id": kept["doc_id"],
            "quality_x10k": kept["quality_x10k"],
            "cum_chars": pc.cast(kept["running_sum"], pa.int64())})

    out = summed.map_batches(keep, batch_format="pyarrow",
                             zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("quality_x10k", pa.int64()),
                        ("cum_chars", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_bpe_token_counts(sf_dir: str):
    """Token counting with the BPE-ish word/number/punct splitter
    (both sides run the same RE2 engine, so non-overlapping match
    semantics agree)."""
    from json_schema_ray.engine.text import BPE_ISH_REGEX, token_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_counts(ds, regex=BPE_ISH_REGEX)
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("n_tokens", pa.int64())])
    return _collect(out, schema).select(["doc_id", "n_tokens"])


def q_tfidf_top_terms(sf_dir: str):
    """Top-3 TF-IDF terms per document: distributed DF aggregate,
    vocabulary broadcast once, per-doc scoring scan (engine/text.py).
    Scores ship as floor(x*1e6+0.5) BIGINT on both sides."""
    from json_schema_ray.engine.text import tfidf_top_terms

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = tfidf_top_terms(ds, id_column="doc_id", column="text", top_n=3)
    schema = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                        ("tf", pa.int64()), ("score_e6", pa.int64())])
    return _collect(out, schema).sort_by(
        [("doc_id", "ascending"), ("score_e6", "descending"),
         ("term", "ascending")])


def q_docs_bigram_lm(sf_dir: str):
    """Add-alpha bigram LM doc scoring (CCNet-style corpus quality):
    one model-sized shuffle trains the LM, the model broadcasts once,
    a stateless integer-only scan scores every document
    (engine/text.py bigram_lm_scores). Per-bigram log-probs are
    fixed-pointed BEFORE the per-doc sum so the distributed sum is
    order-free."""
    from json_schema_ray.engine.text import bigram_lm_scores

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = bigram_lm_scores(ds, id_column="doc_id", column="text")
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_bigrams", pa.int64()),
                        ("logprob_e6", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_lm_buckets(sf_dir: str):
    """CCNet-style head/middle/tail corpus split (engine/text.py
    lm_quality_buckets): bigram-LM scores ordered by the exact
    double division logprob_e6 / n_bigrams (tiebreak doc_id) and
    NTILE(3)-bucketed; per-bucket doc and bigram totals."""
    from json_schema_ray.engine.text import lm_quality_buckets

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return lm_quality_buckets(ds, "doc_id", "text", 3)


def q_cust_top_order(sf_dir: str):
    """Per-customer arg-max: the orderkey of each customer's most
    expensive order (ties by orderkey). Pure composition of the
    order-preserving-encoding min/max aggregate
    (engine/relational.py grouped_first_last) — no sort, hot keys
    combine inside every block."""
    from json_schema_ray.engine.relational import grouped_first_last

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_totalprice", "o_orderkey"])
    out = grouped_first_last(ds, "o_custkey", "o_totalprice",
                             "o_orderkey", "o_orderkey")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b["o_custkey"],
            "top_orderkey": pc.cast(b["last_val"], pa.int64()),
        })

    out = out.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)
    schema = pa.schema([("o_custkey", pa.int64()),
                        ("top_orderkey", pa.int64())])
    return _collect(out, schema).sort_by([("o_custkey", "ascending")])


def q_lineitem_melted(sf_dir: str):
    """UNPIVOT (engine/relational.py melt): shuffle-free per-batch
    flat expansion of (l_quantity, l_discount, l_tax) into
    (variable, value) rows."""
    from json_schema_ray.engine.relational import melt

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity",
                        "l_discount", "l_tax"])
    out = melt(ds, ["l_orderkey", "l_linenumber"],
               ["l_quantity", "l_discount", "l_tax"])
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("l_linenumber", pa.int64()),
                        ("variable", pa.string()),
                        ("value", pa.float64())])
    return _collect(out, schema).sort_by(
        [("l_orderkey", "ascending"), ("l_linenumber", "ascending"),
         ("variable", "ascending")])


def q_docs_above_p90(sf_dir: str):
    """Percentile quality gate — the canonical two-pass corpus
    filter: pass 1 computes the exact global p90 of n_chars
    (engine/stats.py exact_quantiles, one projected single-column
    sort); the scalar threshold is captured in the second stateless
    filter scan. Keeps every doc at or above the cut."""
    from json_schema_ray.engine.stats import exact_quantiles

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    thr = exact_quantiles(docs, "n_chars", qs=(0.9,))["value"][0].as_py()

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["n_chars"], thr))

    out = docs.map_batches(keep, batch_format="pyarrow",
                           zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_share_of_lang(sf_dir: str):
    """Ratio-to-report window (SQL value / sum(value) OVER
    (PARTITION BY key)) via engine/relational.py share_of_group:
    group totals broadcast once, stateless scan — no row-sized
    shuffle, no join. Fixed-point e6 so the one float division is
    the only inexact step on both sides."""
    from json_schema_ray.engine.relational import share_of_group

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    out = share_of_group(ds, "lang", "n_chars")
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("n_chars", pa.int64()),
                        ("share_e6", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_approx_price_quantiles(sf_dir: str):
    """Approx per-status price quantiles via the mergeable t-digest
    aggregate (engine/stats.py grouped_approx_quantiles) — the
    one-scan alternative to the exact per-group sort. Approximate
    and merge-order dependent -> rows-only; the error-bound evidence
    is the unit test, user_value_quantiles is the exact twin."""
    from json_schema_ray.engine.stats import grouped_approx_quantiles

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_totalprice"])
    out = grouped_approx_quantiles(ds, "o_orderstatus",
                                   "o_totalprice", qs=(0.5, 0.95))
    schema = pa.schema([("o_orderstatus", pa.string()),
                        ("q", pa.float64()), ("value", pa.float64())])
    return _collect(out, schema).sort_by(
        [("o_orderstatus", "ascending"), ("q", "ascending")])


def q_docs_split_counts(sf_dir: str):
    """Deterministic train/val/test split assignment
    (engine/relational.py split_assign: exact uint64 hash cut
    points, shuffle-free) rolled up to per-(lang, split) counts."""
    from json_schema_ray.engine.relational import (grouped_aggregate,
                                                   split_assign)

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = split_assign(ds, "doc_id", [0.8, 0.1])
    t = grouped_aggregate(out, ["lang", "split"], [(None, "count")],
                          driver_merge=True)  # 15 groups
    return t.rename_columns(["lang", "split", "cnt"]).sort_by(
        [("lang", "ascending"), ("split", "ascending")])


def q_event_funnel(sf_dir: str):
    """Ordered funnel over event types (engine/window.py
    funnel_user_counts): one pass per step — step filter, sort-merge
    join with the previous step's per-user earliest-completion
    table, grouped min. Greedy/earliest-time funnel semantics with
    strict time order."""
    from json_schema_ray.engine.window import funnel_user_counts

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    steps = ["view", "click", "purchase"]
    return funnel_user_counts(ds, steps)


def q_approx_users_by_type(sf_dir: str):
    """Approx distinct users per event type via the grouped HLL
    sketch aggregate (engine/stats.py grouped_approx_distinct): one
    fixed-size register row per (key, block), elementwise-max merge.
    Approximate by construction -> rows-only here; the error-bound
    and merge-determinism evidence is the unit test, and
    user_event_type_diversity is the exact twin."""
    from json_schema_ray.engine.stats import grouped_approx_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    out = grouped_approx_distinct(ds, "event_type", "user_id", p=12)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "n_approx": pc.cast(
                pc.round(b["n_approx"]), pa.int64()),
        })

    out = out.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)
    schema = pa.schema([("event_type", pa.string()),
                        ("n_approx", pa.int64())])
    return _collect(out, schema).sort_by([("event_type", "ascending")])


def q_embedding_nn_join(sf_dir: str):
    """KNN self-join (k=1): each vector's nearest other vector by
    cosine (engine/similarity.py nearest_neighbor_join) — normalized
    corpus broadcast once, slab-wise matmul probes, fixed-point
    ranking so the SQL QUALIFY oracle is order-identical."""
    from json_schema_ray.engine.similarity import nearest_neighbor_join

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = nearest_neighbor_join(ds)
    schema = pa.schema([("vec_id", pa.int64()), ("nn_id", pa.int64()),
                        ("cosine_e6", pa.int64())])
    return _collect(out, schema).sort_by([("vec_id", "ascending")])


def q_user_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix (engine/window.py
    cohort_retention): per-block (user -> sorted unique week blob)
    partials, ONE groupby(user) with a mergeable union aggregate
    (cohort = the union's first element — no min-groupby, no join),
    then a weeks^2-sized count — two shuffles total, nothing
    event-sized after the first combiner."""
    from json_schema_ray.engine.window import cohort_retention

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts")


def q_docs_capped_per_lang(sf_dir: str):
    """Corpus domain cap: at most 40 docs per language, chosen by a
    deterministic hash draw (engine/rank.py cap_per_group) — the
    mergeable grouped top-k over the hash order, no RNG state."""
    from json_schema_ray.engine.rank import cap_per_group

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = cap_per_group(ds, ["lang"], "doc_id", k=40)
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_orders_weighted_sample(sf_dir: str):
    """Deterministic weighted sample (Efraimidis-Spirakis A-Res with
    a splitmix64-derived uniform): 100 orders drawn with probability
    proportional to o_totalprice — per-block partial top-k, no
    shuffle, no RNG state (engine/relational.py weighted_sample)."""
    from json_schema_ray.engine.relational import weighted_sample

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    t = weighted_sample(ds, "o_orderkey", "o_totalprice", k=100)
    return t.sort_by([("o_orderkey", "ascending")])


def q_events_throttled(sf_dir: str):
    """Windowed event dedup: keep an event only if the previous one
    with the same (user_id, event_type) is > 5 minutes older — the
    LAG-based de-bounce (engine/window.py throttle_by_gap): one
    null-safe sort, O(n_blocks) carries, no per-key state."""
    from json_schema_ray.engine.window import throttle_by_gap

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts"])
    out = throttle_by_gap(ds, ["user_id", "event_type"], "ts",
                          gap=300_000_000, tiebreak="event_id")
    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("ts", pa.timestamp("us"))])
    t = _collect(out, schema)
    return t.select(["event_id"]).sort_by([("event_id", "ascending")])


def q_lang_top_terms(sf_dir: str):
    """Top-5 terms per language (grouped heavy hitters): per-batch
    (lang, term) combiner -> one vocabulary-sized null-safe shuffle
    -> mergeable grouped top-k (engine/text.py top_terms_per_group)."""
    from json_schema_ray.engine.text import top_terms_per_group

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = top_terms_per_group(ds, "lang", "text", k=5)
    schema = pa.schema([("lang", pa.string()), ("term", pa.string()),
                        ("cnt", pa.int64()), ("rn", pa.int64())])
    t = _collect(out, schema)
    return t.sort_by([("lang", "ascending"), ("rn", "ascending")])


def q_user_event_entropy(sf_dir: str):
    """Shannon entropy of each user's event-type mix — two mergeable
    groupbys, no row-sized shuffle after the combiner (engine/stats.py
    grouped_entropy). Fixed-point-before-sum: the per-(user, type)
    ``floor(c * ln(c) * 1e6 + 0.5)`` int64 terms make the shuffle
    merge order-free and the oracle hash-exact BY CONSTRUCTION (the
    float path's sum order only happened to agree at small scale)."""
    from json_schema_ray.engine.stats import grouped_entropy

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    out = grouped_entropy(ds, "user_id", "event_type")
    schema = pa.schema([("user_id", pa.int64()), ("n", pa.int64()),
                        ("entropy_e6", pa.int64())])
    return _collect(out, schema)


def q_events_zscore(sf_dir: str):
    """Row-level within-group standardization (z-score of value per
    event_type): group moments via one combiner groupby, broadcast
    probe — the 10k event rows never shuffle (engine/stats.py
    grouped_zscore). z ships as floor(x*1e6+0.5) BIGINT."""
    from json_schema_ray.engine.stats import grouped_zscore

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"])
    out = grouped_zscore(ds, "event_type", "value")

    def project(b: pa.Table) -> pa.Table:
        z = b["z"].combine_chunks()
        mask = pc.is_null(z).to_numpy(zero_copy_only=False)
        zv = pc.fill_null(z, 0.0).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": b["event_id"],
            "event_type": b["event_type"],
            "z_e6": pa.array(np.floor(zv * 1e6 + 0.5).astype(np.int64),
                             mask=mask),
        })

    schema = pa.schema([("event_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("z_e6", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_user_value_quantiles_cont(sf_dir: str):
    """Interpolated (quantile_cont) per-user value quantiles — the
    sort+carry machinery of the discrete version plus a final
    output-sized partial merge (engine/rank.py grouped_quantiles_cont).
    Values ship as floor(x*1e4+0.5) BIGINT."""
    from json_schema_ray.engine.rank import grouped_quantiles_cont

    ds = _read(sf_dir, "events",
               columns=["user_id", "value", "event_id"])
    out = grouped_quantiles_cont(ds, "user_id", "value",
                                 (0.25, 0.5, 0.95), tiebreak="event_id")

    def scale(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks().to_numpy(zero_copy_only=False)
        return b.drop_columns(["value"]).append_column(
            "value_e4", pa.array(
                np.floor(v * 1e4 + 0.5).astype(np.int64)))

    schema = pa.schema([("user_id", pa.int64()), ("q", pa.float64()),
                        ("value_e4", pa.int64())])
    return _collect(out.map_batches(scale, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_events_stratified_sample(sf_dir: str):
    """Deterministic 40-per-event-type uniform sample: shuffle-free
    splitmix64 hash + mergeable grouped top-k (engine/rank.py
    stratified_sample), hash-for-hash oracle-checkable."""
    from json_schema_ray.engine.rank import stratified_sample

    ds = _read(sf_dir, "events", columns=["event_type", "event_id"])
    out = stratified_sample(ds, "event_type", "event_id", 40, seed=5)
    schema = pa.schema([("event_type", pa.string()),
                        ("event_id", pa.int64()), ("rn", pa.int64())])
    return _collect(out, schema)


def q_user_event_type_concat(sf_dir: str):
    """Ordered per-user event-type concatenation (SQL string_agg with
    ORDER BY): one sort, vectorized per-segment joins, assembly over
    O(n_blocks) partials per key (engine/rank.py grouped_string_agg)."""
    from json_schema_ray.engine.rank import grouped_string_agg

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "event_type"])
    out = grouped_string_agg(ds, "user_id", "event_id", "event_type",
                             sep=",")
    schema = pa.schema([("user_id", pa.int64()), ("agg", pa.string())])
    return _collect(out, schema)


def q_docs_chunks(sf_dir: str):
    """Overlapping token context windows (32-token chunks every 24):
    one flat vectorized expansion per batch, no shuffle
    (engine/text.py chunk_documents)."""
    from json_schema_ray.engine.text import chunk_documents

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = chunk_documents(ds, window=32, stride=24)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("chunk_idx", pa.int64()),
                        ("n_tokens", pa.int64()),
                        ("chunk_text", pa.string())])
    return _collect(out, schema)


def q_docs_vocabulary(sf_dir: str):
    """Corpus vocabulary: top-100 terms by total frequency
    (min_count 5), with document frequency and dense rank — one
    vocabulary-sized shuffle + mergeable per-block top-k
    (engine/text.py vocabulary)."""
    from json_schema_ray.engine.text import vocabulary

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return vocabulary(ds, min_count=5, top_k=100)


def q_part_typo_pairs(sf_dir: str):
    """FULL-recall edit-distance-1 term pairs over the part-name
    vocabulary via FastSS deletion neighborhoods (engine/text.py
    vocab_edit1_pairs): substitutions AND insert/delete typos, found
    by bucketing each vocabulary term on its ``{t} ∪ {t minus one
    codepoint}`` keys (the one-sort + interior-segment + edge-stitch
    pairing machinery) and a single vectorized UTF-32 verify pass —
    the insert/delete recall that the equal-(length, prefix)
    blocked-hamming linkage (customer_name_near_dups) structurally
    cannot see. The SQL twin states the real predicate: levenshtein
    = 1 inside the length-banded vocabulary self-join."""
    from json_schema_ray.engine.text import vocab_edit1_pairs

    ds = _read(sf_dir, "part", columns=["p_name"])
    return vocab_edit1_pairs(ds, column="p_name", min_len=3,
                             min_count=1, top_k=2000)


def q_sessions_error_overlap(sf_dir: str):
    """Interval-overlap join: per user session (30-min-gap
    session_table), how many coalesced error windows (±30 min
    around each 'error' event, overlapping windows merged) the
    session intersects, and the first such window. Two new interval
    primitives (engine/window.py): interval_coalesce_table — per
    block local island merge, driver merges the island-count-sized
    partials, no shuffle — and interval_overlap_count — broadcast
    disjoint windows probed with TWO searchsorted calls per batch
    (contiguous index range, never a pair expansion). SQL twin:
    gaps-and-islands window coalesce + LEFT JOIN on the closed
    overlap predicate."""
    from json_schema_ray.engine.relational import _int64_us
    from json_schema_ray.engine.window import (
        interval_coalesce_table, interval_overlap_count,
        session_table)

    half_us = 1_800_000_000

    def widen(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(
            pc.equal(batch["event_type"], "error"),
            pc.is_valid(batch["ts"])))
        tu = _int64_us(t["ts"])
        return pa.table({
            "ws": pc.subtract(tu, half_us),
            "we": pc.add(tu, half_us)})

    err = _read(sf_dir, "events", columns=["event_type", "ts"])
    win = interval_coalesce_table(
        err.map_batches(widen, batch_format="pyarrow",
                        zero_copy_batch=True), "ws", "we")
    sess = session_table(
        _read(sf_dir, "events", columns=["user_id", "ts"]),
        "user_id", "ts", gap_seconds=1800.0)
    out = interval_overlap_count(
        sess, win, "session_start_us", "session_end_us",
        n_out="n_windows", first_out="first_window_start_us") \
        .select_columns(["user_id", "session_start_us",
                         "session_end_us", "n_windows",
                         "first_window_start_us"])
    schema = pa.schema([
        ("user_id", pa.int64()), ("session_start_us", pa.int64()),
        ("session_end_us", pa.int64()), ("n_windows", pa.int64()),
        ("first_window_start_us", pa.int64())])
    return _collect(out, schema).sort_by(
        [("user_id", "ascending"),
         ("session_start_us", "ascending")])


def q_docs_span_corruption(sf_dir: str):
    """T5-style denoising pairs over the document corpus
    (engine/text.py span_corruption): deterministic splitmix64 span
    starts/lengths stand in for the RNG, each maximal masked run
    becomes an ``<extra_id_k>`` sentinel in the encoder input and a
    ``<extra_id_k> tok ...`` segment in the decoder target — the
    full output STRINGS are hash-checked against a pure-SQL twin
    built on relational.splitmix64_sql. One stateless scan, no
    shuffle; documents never span batches."""
    from json_schema_ray.engine.text import span_corruption

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return span_corruption(ds)


_MIXTURE_RATES = {"en": 0.8, "de": 0.5, "fr": 0.25, "es": 0.1,
                  "zh": 0.05}


def q_docs_mixture_sample(sf_dir: str):
    """Deterministic per-language mixture sampling (domain
    re-weighting): shuffle-free splitmix64 filter with per-group
    thresholds, hash-for-hash oracle-checkable
    (engine/relational.py mixture_sample)."""
    from json_schema_ray.engine.relational import mixture_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = mixture_sample(ds, "lang", "doc_id", _MIXTURE_RATES,
                         default_rate=0.1, seed=11)
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string())])
    return _collect(out, schema)


def q_docs_packed(sf_dir: str):
    """Greedy sequence packing: per-language documents (ordered by
    doc_id) first-fit-sequentially into 512-token training bins —
    one null-safe sort, in-block packing for interior groups,
    boundary groups re-packed through one edge-rows-only groupby
    (engine/window.py pack_items)."""
    from json_schema_ray.engine.text import token_counts
    from json_schema_ray.engine.window import pack_items

    ds = token_counts(
        _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]))

    def prune(b: pa.Table) -> pa.Table:
        return b.select(["lang", "doc_id", "n_tokens"])

    out = pack_items(ds.map_batches(prune, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     key="lang", order="doc_id", size="n_tokens",
                     budget=512)
    schema = pa.schema([("lang", pa.string()), ("doc_id", pa.int64()),
                        ("n_tokens", pa.int64()), ("bin", pa.int64())])
    return _collect(out, schema)


def q_knn_lsh_top10(sf_dir: str):
    from json_schema_ray.engine.similarity import knn_lsh

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)
    t = knn_lsh(ds, q, k=10)
    return pa.table({"vec_id": t["vec_id"],
                     "score": pa.array([round(v, 4) for v in
                                        t["score"].to_pylist()],
                                       pa.float64())})


def q_knn_ivf_top10(sf_dir: str):
    """IVF approximate nearest neighbors: k-means coarse quantizer
    trained once on a bounded sample, inverted-list probe, then the
    brute-force partial-top-k over candidates only."""
    from json_schema_ray.engine.similarity import knn_ivf

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = _query_vector(sf_dir)
    t = knn_ivf(ds, q, k=10, n_centroids=16, n_probe=16,
                exclude_ids={0})
    return pa.table({"vec_id": t["vec_id"],
                     "score": pa.array([round(v, 4) for v in
                                        t["score"].to_pylist()],
                                       pa.float64())})


def q_embedding_near_dups(sf_dir: str):
    """LSH-bucketed near-dup pairs (in-bucket exact cosine). The
    synthetic embeddings have no true near-dups (max off-diagonal
    cosine ~0.6), so the threshold targets the actual similarity
    band; n_planes=6 keeps in-bucket recall non-trivial at sf0.01+.
    Oracle-checked end-to-end: the 6-plane bucket assignment is
    reproduced in SQL (plane literals baked, _knn_lsh_bucket_expr)
    and in-bucket pairs filter on list_cosine_similarity. Scores
    ship as floor(x*1e6+0.5) BIGINT like the exact variant."""
    import math

    from json_schema_ray.engine.similarity import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                        ("cosine", pa.float64())])
    t = _collect(embedding_near_dup_pairs(ds, threshold=0.4,
                                          n_planes=6), schema) \
        .sort_by([("id_a", "ascending"), ("id_b", "ascending")])
    return pa.table({
        "id_a": t["id_a"], "id_b": t["id_b"],
        "cosine_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["cosine"].to_pylist()], pa.int64()),
    })


def q_embedding_near_dups_exact(sf_dir: str):
    """Exact all-pairs cosine near-dup (distributed blocked matmul
    against the broadcast normalized corpus) — the brute-force ground
    truth for the LSH variant, fully oracle-checkable in DuckDB via
    list_cosine_similarity. Scores ship as floor(x*1e6+0.5) BIGINT
    so float formatting can't break the hash compare."""
    import math

    from json_schema_ray.engine.similarity import embedding_near_dup_exact

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                        ("cosine", pa.float64())])
    t = _collect(embedding_near_dup_exact(ds, threshold=0.45), schema) \
        .sort_by([("id_a", "ascending"), ("id_b", "ascending")])
    return pa.table({
        "id_a": t["id_a"], "id_b": t["id_b"],
        "cosine_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["cosine"].to_pylist()], pa.int64()),
    })


def q_simhash_near_dups(sf_dir: str):
    """SimHash end-to-end near-dups: quarter-bucket candidates with
    distributed pair generation, vectorized XOR-popcount Hamming
    verify (broadcast sparse candidate signatures)."""
    from json_schema_ray.engine.dedup import simhash_near_dup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_near_dup_pairs(ds, "doc_id", max_hamming=3)


def q_multimodal_frames(sf_dir: str):
    """REAL video frame-sampling pipeline WITH a full SQL oracle:
    per-doc YUV4MPEG2 streams (a genuine public interchange format —
    plain header + raw planar frames; engine/codecs.py encode_y4m /
    decode_y4m, stdlib-only) are built deterministically in the scan,
    then the actor-pool FrameSampler stage does a REAL Y4M parse and
    keeps every 2nd frame's luma plane (flat-map shape: one row per
    sampled frame); a second vectorized stage sums each kept plane.
    Luma values are exact integers over (doc_id, frame, y, x), so
    DuckDB regenerates the identical planes with generate_series and
    the whole encode -> container parse -> sample -> reduce chain is
    hash-checked with NO float anywhere."""
    from json_schema_ray.engine.codecs import (encode_y4m,
                                               y4m_luma_frames)
    from json_schema_ray.engine.multimodal import sample_frames

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    SIDE = 16

    def make_payloads(b: pa.Table) -> pa.Table:
        payloads = []
        for i in b["doc_id"].to_pylist():
            i = int(i)
            nf = 4 + i % 5
            k = i % 9 + 1
            f = np.arange(nf)[:, None, None]
            y = np.arange(SIDE)[None, :, None]
            x = np.arange(SIDE)[None, None, :]
            luma = ((y + x + f * k) % 256).astype(np.uint8)
            payloads.append(encode_y4m(
                np.broadcast_to(luma, (nf, SIDE, SIDE)).copy()))
        return pa.table({"doc_id": b["doc_id"],
                         "payload": pa.array(payloads, pa.binary())})

    ds = docs.map_batches(make_payloads, batch_format="pyarrow",
                          zero_copy_batch=True)
    frames = sample_frames(ds, every_n=2, sample_fn=y4m_luma_frames)

    def luma_sums(b: pa.Table) -> pa.Table:
        sums = [int(np.frombuffer(f, np.uint8).astype(np.int64).sum())
                for f in b["frame"].to_pylist()]
        return pa.table({
            "doc_id": b["doc_id"],
            "frame_idx": pc.cast(b["frame_idx"], pa.int64()),
            "luma_sum": pa.array(sums, pa.int64()),
            "n_px": pa.array([SIDE * SIDE] * len(sums), pa.int64())})

    t = _collect(frames.map_batches(luma_sums, batch_format="pyarrow",
                                    zero_copy_batch=True),
                 pa.schema([("doc_id", pa.int64()),
                            ("frame_idx", pa.int64()),
                            ("luma_sum", pa.int64()),
                            ("n_px", pa.int64())]))
    return t.sort_by([("doc_id", "ascending"),
                      ("frame_idx", "ascending")])


def q_doc_fingerprints(sf_dir: str):
    from json_schema_ray.engine.text import fingerprints

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    t = _collect(fingerprints(ds))
    return t.select(["doc_id", "fingerprint"]).sort_by("doc_id")


def q_docs_shared_spans(sf_dir: str):
    """Cross-document repeated-span candidates (engine/text.py
    shared_fingerprint_pairs): doc pairs sharing any of their 4
    smallest 16-byte Rabin-Karp window hashes, with the shared-span
    count — substring-level duplicate detection. One fingerprint
    scan, one hash-sorted pairing pass, one pair-combiner groupby."""
    from json_schema_ray.engine.text import shared_fingerprint_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    t = shared_fingerprint_pairs(ds)
    return t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def q_multimodal_features(sf_dir: str):
    """REAL in-sandbox image pipeline — no stub in the hot path: one
    actor-pool stage decodes genuine PNG payloads (RFC 2083 chunk
    walk + zlib inflate + scanline unfiltering, engine/codecs.py —
    stdlib only, no PIL), nearest-neighbor-resizes the raster to
    12x12 and extracts a 16-float raster profile. Payloads are
    deterministic per-doc rasters ENCODED with the same module's
    encoder inside the scan (never driver-materialized), so the
    corpus builds distributed and the whole decode -> resize ->
    featurize chain is exercised for real. rows-only: SQL cannot
    decode PNG; compensating evidence = codec spec tests
    (per-filter-type differential, roundtrips) in tests."""
    from json_schema_ray.engine.codecs import (decode_png, encode_png,
                                               raster_features,
                                               resize_nearest)
    from json_schema_ray.engine.multimodal import extract_features

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def make_payloads(b: pa.Table) -> pa.Table:
        payloads = []
        for i in b["doc_id"].to_pylist():
            side = 16 + int(i) % 9
            g = (np.add.outer(np.arange(side), np.arange(side))
                 * (int(i) % 11 + 1)) % 256
            rast = np.stack([g, (g * 2) % 256,
                             np.full_like(g, int(i) % 256)],
                            axis=2).astype(np.uint8)
            payloads.append(encode_png(rast))
        return pa.table({"doc_id": b["doc_id"],
                         "payload": pa.array(payloads, pa.binary())})

    ds = docs.map_batches(make_payloads, batch_format="pyarrow",
                          zero_copy_batch=True)

    def decode_resize_featurize(payload: bytes, dim: int) -> np.ndarray:
        return raster_features(
            resize_nearest(decode_png(payload), 12, 12), dim)

    out = extract_features(ds, decode_fn=decode_resize_featurize)
    t = _collect(out)
    feats = t["features"].to_pylist()
    return pa.table({
        "doc_id": t["doc_id"],
        "px_mean_e3": pa.array([int(np.floor(f[3] * 1e3 + 0.5))
                                for f in feats], pa.int64()),
        "px_std_e3": pa.array([int(np.floor(f[4] * 1e3 + 0.5))
                               for f in feats], pa.int64()),
    }).sort_by("doc_id")


def q_multimodal_audio(sf_dir: str):
    """REAL in-sandbox audio pipeline WITH a full SQL oracle: one
    actor-pool stage decodes genuine RIFF/WAVE PCM16 payloads
    (stdlib wave + numpy, engine/codecs.py) and extracts duration /
    RMS / zero-crossing rate. Payloads are deterministic INTEGER
    triangle waves (no trig — every PCM sample is exact integer
    arithmetic over doc_id), encoded in the scan (distributed build,
    small batches — payload bytes dominate worker memory), so DuckDB
    can regenerate the identical samples with generate_series and
    recompute RMS/ZCR: the entire WAV encode -> RIFF decode -> DSP
    chain is hash-checked end to end."""
    from json_schema_ray.engine.codecs import (encode_wav,
                                               wav_audio_features)
    from json_schema_ray.engine.multimodal import extract_features

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def make_payloads(b: pa.Table) -> pa.Table:
        payloads = []
        for i in b["doc_id"].to_pylist():
            i = int(i)
            n = 800 + (i % 5) * 160
            p = 16 + (i % 32)
            a = 12000 + (i % 7) * 1000
            m = np.arange(n, dtype=np.int64) % p
            x = a * (2 * np.abs(2 * m - p) - p) // p
            payloads.append(encode_wav(x.astype(np.int16), 8000))
        return pa.table({"doc_id": b["doc_id"],
                         "payload": pa.array(payloads, pa.binary())})

    ds = docs.map_batches(make_payloads, batch_format="pyarrow",
                          zero_copy_batch=True)
    out = extract_features(ds, decode_fn=wav_audio_features,
                           batch_size=32)
    t = _collect(out)
    feats = t["features"].to_pylist()
    return pa.table({
        "doc_id": t["doc_id"],
        "n_samples": pa.array([int(f[0]) for f in feats], pa.int64()),
        "rms_e6": pa.array([int(np.floor(f[3] * 1e6 + 0.5))
                            for f in feats], pa.int64()),
        "zcr_e6": pa.array([int(np.floor(f[5] * 1e6 + 0.5))
                            for f in feats], pa.int64()),
    }).sort_by("doc_id")


def q_docs_lang_source_cube(sf_dir: str):
    """SQL GROUP BY CUBE (lang, source) with doc counts: the input
    shuffles once into the finest grouped aggregate; the other three
    grouping sets re-aggregate that group-sized result
    (engine/relational.py cube_aggregate), gid = GROUPING_ID."""
    from json_schema_ray.engine.relational import cube_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    out = cube_aggregate(ds, ["lang", "source"], None, "count",
                         out="n_docs")
    schema = pa.schema([("lang", pa.string()), ("source", pa.string()),
                        ("n_docs", pa.int64()), ("gid", pa.int64())])
    return _collect(out, schema)


def q_lineitem_price_regression(sf_dir: str):
    """Per-returnflag OLS of extendedprice on quantity — mergeable
    sufficient-statistics aggregate (engine/stats.py
    grouped_regression): one moment row per key per block, one
    Sum-merge shuffle. Coefficients ship as floor(x*1e4+0.5)
    BIGINT."""
    from json_schema_ray.engine.stats import grouped_regression

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice",
                        "l_quantity"])
    out = grouped_regression(ds, "l_returnflag", "l_extendedprice",
                             "l_quantity")

    def scale(b: pa.Table) -> pa.Table:
        def e4(col):
            v = b[col].combine_chunks().to_numpy(zero_copy_only=False)
            r = np.floor(v * 1e4 + 0.5)
            return pa.array([None if np.isnan(x) else int(x)
                             for x in r], pa.int64())

        return pa.table({"l_returnflag": b["l_returnflag"],
                         "n": b["n"], "slope_e4": e4("slope"),
                         "intercept_e4": e4("intercept")})

    schema = pa.schema([("l_returnflag", pa.string()),
                        ("n", pa.int64()), ("slope_e4", pa.int64()),
                        ("intercept_e4", pa.int64())])
    return _collect(out.map_batches(scale, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_drift_roles(sf_dir: str):
    """Stored-profile drift over the transcript corpus — the north
    rule's distribution-drift stage on its own input. A
    ReferenceProfile (role histogram + EXACT text-length histogram)
    is built from the clean seed-42 corpus, round-tripped through
    its JSON serialization (the stored-artifact flow a nightly job
    uses), then compared against the seed-43 corpus: PSI on role
    (floor e6, the drift_events_psi contract) and the INTEGER-EXACT
    two-sample KS on text length (``ks_exact_e6``: cum-count
    cross-products in arbitrary-precision ints — a HUGEINT SQL
    oracle reproduces it bit-for-bit, which the t-digest KS, being
    approximate by construction, never could). Both corpora are
    cached deterministic parquet, so the oracle reads the SAME
    inputs by path."""
    import math

    import ray

    from json_schema_ray.engine.drift import (ReferenceProfile,
                                              categorical_histogram,
                                              ks_exact_e6,
                                              length_histogram, psi)

    ref_glob, new_glob = _drift_corpus_globs(sf_dir)
    ref = ReferenceProfile.build(
        ray.data.read_parquet(os.path.dirname(ref_glob),
                              columns=["role", "text"]),
        categorical=["role"], exact_lengths=["text"])
    ref = ReferenceProfile.from_json(ref.to_json())
    new_ds = ray.data.read_parquet(os.path.dirname(new_glob),
                                   columns=["role", "text"])
    psi_e6 = int(math.floor(
        psi(ref.histograms["role"],
            categorical_histogram(new_ds, "role")) * 1e6 + 0.5))
    ks_e6 = ks_exact_e6(ref.length_hists["text"],
                        length_histogram(new_ds, "text"))
    return pa.table({
        "column": pa.array(["role", "text_len"], pa.string()),
        "metric": pa.array(["psi", "ks"], pa.string()),
        "value_e6": pa.array([psi_e6, ks_e6], pa.int64())})


def q_orders_segment_join_sorted(sf_dir: str):
    """Two-big-sides sort-merge inner join (no broadcast side):
    orders x customer on custkey, carrying the market segment — the
    shuffle counterpart of the broadcast join behind
    orders_by_segment."""
    from json_schema_ray.engine.relational import sort_merge_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    customer = _read(sf_dir, "customer",
                     columns=["c_custkey", "c_mktsegment"])
    out = sort_merge_join(orders, customer, "o_custkey", "c_custkey",
                          value_columns=["c_mktsegment"])
    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64()),
                        ("c_mktsegment", pa.string())])
    return _collect(out, schema).sort_by([("o_orderkey", "ascending")])


def q_customer_highvalue_left(sf_dir: str):
    """Two-big-sides sort-merge LEFT OUTER join: every customer with
    their >300k orders, unmatched customers once with a null
    orderkey — unmatched lefts emit straight from the interior scan
    (engine/relational.py sort_merge_join how='left')."""
    from json_schema_ray.engine.relational import sort_merge_join

    customer = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def high(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["o_totalprice"], 300000)) \
            .select(["o_custkey", "o_orderkey"])

    out = sort_merge_join(
        customer,
        orders.map_batches(high, batch_format="pyarrow",
                           zero_copy_batch=True),
        "c_custkey", "o_custkey", value_columns=["o_orderkey"],
        how="left")
    schema = pa.schema([("c_custkey", pa.int64()),
                        ("o_orderkey", pa.int64())])
    return _collect(out, schema).sort_by(
        [("c_custkey", "ascending"), ("o_orderkey", "ascending")])


def q_negbal_highvalue_full(sf_dir: str):
    """Two-big-sides sort-merge FULL OUTER join: negative-balance
    customers x >300k orders on custkey — unmatched rows on BOTH
    sides emit once from the interior/edge scans (null orderkey for
    customers without such orders, null custkey/acctbal for orders
    of other customers; o_custkey rides along in value_columns so
    right-unmatched rows stay identifiable)."""
    from json_schema_ray.engine.relational import sort_merge_join

    customer = _read(sf_dir, "customer",
                     columns=["c_custkey", "c_acctbal"])
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def neg(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b["c_acctbal"], 0))

    def high(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["o_totalprice"], 300000))             .select(["o_custkey", "o_orderkey"])

    out = sort_merge_join(
        customer.map_batches(neg, batch_format="pyarrow",
                             zero_copy_batch=True),
        orders.map_batches(high, batch_format="pyarrow",
                           zero_copy_batch=True),
        "c_custkey", "o_custkey",
        value_columns=["o_custkey", "o_orderkey"], how="full")
    schema = pa.schema([("c_custkey", pa.int64()),
                        ("c_acctbal", pa.float64()),
                        ("o_custkey", pa.int64()),
                        ("o_orderkey", pa.int64())])
    return _collect(out, schema)


def q_lineitems_small_parts(sf_dir: str):
    """Bloom-accelerated semi-join: lineitems whose part is small
    (p_size <= 10). The reference keys reduce DISTRIBUTED to a 1 MiB
    OR-merged bitmap broadcast once; probes test 4 bits per row
    vectorized, and the bloom's no-false-negative guarantee plus the
    exact verify over the survivors makes the result exact
    (engine/relational.py bloom_semi_join)."""
    from json_schema_ray.engine.relational import bloom_semi_join

    lineitem = _read(sf_dir, "lineitem",
                     columns=["l_orderkey", "l_linenumber",
                              "l_partkey"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_size"])

    def small(b: pa.Table) -> pa.Table:
        return b.filter(pc.less_equal(b["p_size"], 10)) \
            .select(["p_partkey"])

    out = bloom_semi_join(
        lineitem,
        part.map_batches(small, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_partkey", "p_partkey")
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("l_linenumber", pa.int64()),
                        ("l_partkey", pa.int64())])
    return _collect(out, schema)


def q_ngram_jaccard_dups(sf_dir: str):
    """Exact all-pairs word-5-gram Jaccard near-dups via the
    shared-shingle inverted index — the ground truth the MinHash LSH
    pipeline approximates, recall-exact by construction (any pair
    with Jaccard > 0 shares a shingle). Jaccard ships as
    floor(x*1e6+0.5) BIGINT for a float-safe hash compare."""
    import math

    from json_schema_ray.engine.dedup import ngram_jaccard_dedup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    t = ngram_jaccard_dedup_pairs(ds, "doc_id", threshold=0.5)
    return pa.table({
        "id_a": t["id_a"], "id_b": t["id_b"],
        "jaccard_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["jaccard"].to_pylist()], pa.int64()),
    })


def q_doc_dup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: exact n-gram Jaccard pairs (threshold 0.5)
    -> connected components via distributed hash-min label
    propagation (engine/dedup.py::connected_components) -> per-doc
    cluster id + cluster size. Components are the unit a real dedup
    policy acts on (keep the min-id doc per cluster); the oracle
    recomputes them with a recursive transitive-closure CTE."""
    from json_schema_ray.engine.dedup import (
        connected_components, ngram_jaccard_dedup_pairs)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_dedup_pairs(ds, "doc_id", threshold=0.5)
    comp = connected_components(pairs)
    sizes = comp.group_by("component").aggregate([("id", "count")])
    out = comp.join(sizes, keys="component")
    return pa.table({
        "doc_id": out["id"],
        "component": out["component"],
        "cluster_size": out["id_count"],
    }).sort_by([("doc_id", "ascending")])


def q_doc_dedup_keep_best(sf_dir: str):
    """Quality-aware dedup retention (engine/dedup.py
    ``dedup_keep_best``): within each exact n-gram-Jaccard duplicate
    cluster keep the longest document (n_chars, ties to smallest
    doc_id; NULL length loses); singletons keep themselves. The
    verdict covers every document — the operator a curation pipeline
    actually applies after near-dup detection."""
    from json_schema_ray.engine.dedup import (dedup_keep_best,
                                              ngram_jaccard_dedup_pairs)

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "n_chars"])
    pairs = ngram_jaccard_dedup_pairs(ds, "doc_id", threshold=0.5)
    out = dedup_keep_best(ds, pairs, "doc_id", "n_chars")
    schema = pa.schema([("doc_id", pa.int64()),
                        ("component", pa.int64()),
                        ("kept", pa.bool_())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_drift_events_psi(sf_dir: str):
    """Categorical PSI drift between the first and last 15 days of
    the events stream — the same ReferenceProfile/psi code path as
    drift_roles, but over a driver-registered table so DuckDB can
    recompute the PSI in plain SQL. The PSI ships as
    floor(x*1e6+0.5) BIGINT for a float-safe hash compare."""
    import datetime
    import math

    from json_schema_ray.engine.drift import ReferenceProfile

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    split = ds.min("ts") + datetime.timedelta(days=15)

    def before(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["ts"], pa.scalar(
            split, batch["ts"].type)))

    def after(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["ts"], pa.scalar(
            split, batch["ts"].type)))

    ref = ReferenceProfile.build(
        ds.map_batches(before, batch_format="pyarrow",
                       zero_copy_batch=True),
        categorical=["event_type"], numeric_or_text=[])
    report = ref.compare(ds.map_batches(after, batch_format="pyarrow",
                                        zero_copy_batch=True))
    v = report.filter(pc.equal(report["metric"], "psi"))["value"][0] \
        .as_py()
    return pa.table({
        "col": pa.array(["event_type"], pa.string()),
        "metric": pa.array(["psi"], pa.string()),
        "psi_e6": pa.array([int(math.floor(v * 1e6 + 0.5))], pa.int64()),
    })


def q_resumable_validation(sf_dir: str):
    import shutil
    import tempfile

    from json_schema_ray.engine.manifest import run_resumable_validation
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA)

    path = transcripts_path(_transcript_turns(sf_dir), violation_rate=0.01)
    files = sorted(os.path.join(path, f) for f in os.listdir(path)
                   if f.endswith(".parquet"))
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])
    out_dir = tempfile.mkdtemp(prefix="jsr_resume_")
    try:
        first = run_resumable_validation(files[:2], out_dir, plan)
        second = run_resumable_validation(files, out_dir, plan)
        return pa.table({
            "run": pa.array([1, 2], pa.int64()),
            "fragments": pa.array([first["fragments"],
                                   second["fragments"]], pa.int64()),
            "skipped": pa.array([first["skipped"], second["skipped"]],
                                pa.int64()),
            "violations": pa.array([first["violations"],
                                    second["violations"]], pa.int64()),
        })
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_docs_leakage_free_split(sf_dir: str):
    """Leakage-free train/test split: near-dup CLUSTERS (not docs)
    are the unit of assignment, so no duplicate pair can straddle
    the split — the correct split discipline for training corpora.
    Composition: ngram_jaccard_dedup_pairs -> connected_components
    (labels O(dup docs), broadcast once) -> one scan hashing each
    doc's component-or-self through splitmix64 against the 80%% cut;
    the invariant (same component -> same split) holds by
    construction. Output: per-split doc and dup-doc counts."""
    import ray

    from json_schema_ray.engine.dedup import (
        connected_components, ngram_jaccard_dedup_pairs)
    from json_schema_ray.state.sketches import hash_ints

    thr = int(0.8 * float(1 << 64))
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_dedup_pairs(ds, "doc_id", threshold=0.5)
    comp = connected_components(pairs)
    ids = comp["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    labels = comp["component"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(ids)
    handle = ray.put((ids[order], labels[order]))

    def partial(batch: pa.Table) -> pa.Table:
        cids, clabels = ray.get(handle)
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        unit = d.copy()
        is_dup = np.zeros(len(d), bool)
        if len(cids):
            pos = np.searchsorted(cids, d)
            pos[pos == len(cids)] = 0
            hit = cids[pos] == d
            unit[hit] = clabels[pos[hit]]
            is_dup = hit
        split = (hash_ints(unit) >= np.uint64(thr)).astype(np.int64)
        n0 = int((split == 0).sum())
        return pa.table({
            "split": pa.array([0, 1], pa.int64()),
            "n_docs": pa.array([n0, len(d) - n0], pa.int64()),
            "n_dup_docs": pa.array(
                [int(is_dup[split == 0].sum()),
                 int(is_dup[split == 1].sum())], pa.int64())})

    acc = {0: [0, 0], 1: [0, 0]}
    for b in ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches(
            [b] if isinstance(b, pa.RecordBatch) else b.to_batches())
        for row in t.to_pylist():
            acc[row["split"]][0] += row["n_docs"]
            acc[row["split"]][1] += row["n_dup_docs"]
    return pa.table({
        "split": pa.array([0, 1], pa.int64()),
        "n_docs": pa.array([acc[0][0], acc[1][0]], pa.int64()),
        "n_dup_docs": pa.array([acc[0][1], acc[1][1]], pa.int64())})


def q_events_daily_quota(sf_dir: str):
    """Per-key-per-window ingestion quota: the FIRST 3 events per
    (user, day) by (ts, event_id) — the rate-cap realization of
    grouped_top_k (engine/rank.py) over a composite key, ascending.
    Hot users reduce to <= k rows per (key, block) BEFORE the one
    sort; the day column derives per batch (stateless)."""
    from json_schema_ray.engine.rank import grouped_top_k

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts"])

    def add_day(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        day = pc.multiply(
            pc.floor(pc.divide(pc.cast(us, pa.float64()),
                               86400000000.0)),
            86400000000.0)
        return batch.append_column(
            "day_us", pc.cast(day, pa.int64()))

    ds = ds.map_batches(add_day, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = grouped_top_k(ds, ["user_id", "day_us"], "ts", 3,
                        descending=False, tiebreak="event_id")
    out = out.select_columns(["event_id", "user_id", "day_us", "rn"])
    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("day_us", pa.int64()), ("rn", pa.int64())])
    return _collect(out, schema).sort_by(
        [("event_id", "ascending")])


def q_docs_jsonl_roundtrip(sf_dir: str):
    """Source/sink format parity (SURVEY §2.1 read_file -> Ray
    mapping): the documents corpus exports to JSONL via
    ``ds.write_json`` (one file per block — the resumable-output
    layout) and re-ingests via ``ray.data.read_json``; the per-lang
    rollup over the ROUND-TRIPPED data must hash-match the oracle
    computed from the original parquet view — proving the JSON
    ingest path preserves values and nulls."""
    import shutil
    import tempfile

    import ray

    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    out_dir = tempfile.mkdtemp(prefix="jsr_jsonl_")
    try:
        ds.write_json(out_dir)
        back = ray.data.read_json(out_dir)
        out = grouped_aggregate(
            back, ["lang"],
            [(None, "count"), ("n_chars", "sum"),
             ("doc_id", "min"), ("doc_id", "max")],
            driver_merge=True)
        out = out.rename_columns(
            ["lang", "n_docs", "n_chars_sum", "doc_id_min",
             "doc_id_max"])
        return out.sort_by([("lang", "ascending")])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_events_csv_roundtrip(sf_dir: str):
    """Source/sink format parity for CSV (SURVEY §2.1 source
    breadth, the docs_jsonl_roundtrip pattern): integer-and-string
    event columns export via ``ds.write_csv`` (one file per block)
    and re-ingest via ``ray.data.read_csv``; the per-type rollup
    over the round-tripped data must hash-match the oracle computed
    from the original parquet view — proving the CSV path preserves
    values. Columns are integers + strings only (CSV float
    round-trips are format-dependent and belong to the parquet/JSON
    paths)."""
    import shutil
    import tempfile

    import ray

    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type"])
    out_dir = tempfile.mkdtemp(prefix="jsr_csv_")
    try:
        ds.write_csv(out_dir)
        back = ray.data.read_csv(out_dir)
        out = grouped_aggregate(
            back, ["event_type"],
            [(None, "count"), ("event_id", "sum"),
             ("user_id", "min"), ("user_id", "max")],
            driver_merge=True)
        out = out.rename_columns(
            ["event_type", "n_events", "event_id_sum",
             "user_id_min", "user_id_max"])
        return out.sort_by([("event_type", "ascending")])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_revenue_by_region(sf_dir: str):
    """TPC-H Q5-flavored star join: revenue by region across
    lineitem x orders x customer x nation x region. Composition of
    the engine's join realizations by side size: lineitem revenue
    fixed-points PER ROW (house discipline — sums then commute);
    orders picks up r_name through ONE broadcast of the dimension
    chain (region x nation x customer — dimension-sized by TPC-H's
    10:1; beyond worker heaps the same map rides sort_merge_join);
    the two ORDER-keyed big sides join via sort_merge_join (no
    broadcast of a fact side, and no order-granularity Aggregate —
    the 150k-near-unique-group all-to-all costs more than the join's
    own sort). Lineitem collapses to per-(block, order) PARTIAL rows
    first — an Arrow combiner with NO shuffle (an order's items are
    adjacent in generation order, so this is ~4x) — carrying an item
    count so the final rollup still reports exact n_items; the
    region rollup collapses to 5 rows per block before the driver
    merge."""
    from json_schema_ray.engine.relational import (
        broadcast_hash_join, grouped_aggregate, sort_merge_join)

    # per-row revenue: fixed-point BEFORE any sum (house discipline),
    # then a shuffle-free per-block combiner to order granularity
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(batch: pa.Table) -> pa.Table:
        e = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        r = np.floor(e * (1 - d) * 100 + 0.5).astype(np.int64)
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "rev100": pa.array(r)})
        g = pa.TableGroupBy(t, ["l_orderkey"]).aggregate(
            [("rev100", "sum"), ([], "count_all")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "rev100": g["rev100_sum"],
                         "n_li": g["count_all"]})

    rev_ds = li.map_batches(rev, batch_format="pyarrow",
                            zero_copy_batch=True)

    # dimension chain, driver-assembled (region 5 x nation 25 x
    # customer rows — driver-read with pruned columns; three Ray
    # executions for KB-sized dims is pure fixed overhead), broadcast
    # once
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                        columns=["r_regionkey", "r_name"])
    dim = cust.join(nat, keys=["c_nationkey"],
                    right_keys=["n_nationkey"], join_type="inner") \
        .join(reg, keys=["n_regionkey"], right_keys=["r_regionkey"],
              join_type="inner") \
        .select(["c_custkey", "r_name"])

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey"])
    ord_region = broadcast_hash_join(orders, dim, "o_custkey",
                                     "c_custkey") \
        .select_columns(["o_orderkey", "r_name"])

    joined = sort_merge_join(rev_ds, ord_region, "l_orderkey",
                             "o_orderkey", value_columns=["r_name"])
    out = grouped_aggregate(joined, ["r_name"],
                            [("rev100", "sum"), ("n_li", "sum")],
                            driver_merge=True)
    out = out.rename_columns(["r_name", "revenue100", "n_items"])
    return out.sort_by([("r_name", "ascending")])


def q_embedding_split_leakage(sf_dir: str):
    """Train/test split-leakage gate (engine/similarity.py
    embedding_cross_pairs): eval items (odd vec_ids) whose cosine
    near-twin sits in the training split (even vec_ids). Train side
    broadcasts once; eval side streams slab-wise. cosine ships
    floor(x*1e6+0.5) BIGINT for the float-safe hash compare."""
    import math

    from json_schema_ray.engine.similarity import embedding_cross_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    test = _parity_filter(ds, "vec_id", 1)
    train = _parity_filter(ds, "vec_id", 0)
    out = embedding_cross_pairs(test, train, threshold=0.45)
    schema = pa.schema([("id_q", pa.int64()), ("id_r", pa.int64()),
                        ("cosine", pa.float64())])
    t = _collect(out, schema)
    t = pa.table({
        "id_q": t["id_q"], "id_r": t["id_r"],
        "cosine_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["cosine"].to_pylist()], pa.int64()),
    })
    return t.sort_by([("id_q", "ascending"), ("id_r", "ascending")])


def q_daily_volume_cusum(sf_dir: str):
    """Sequential mean-shift changepoint gate (engine/drift.py
    cusum_scan): two-sided integer CUSUM over the day-count table —
    catches sustained small drifts the pointwise robust-z gate
    (daily_volume_anomalies) can't. Corpus-sized work is the ONE
    tumbling-count combiner scan; the recurrence runs on the
    calendar-bounded day table. All-integer e6, hash-exact vs the
    recursive-CTE twin."""
    from json_schema_ray.engine.drift import cusum_scan
    from json_schema_ray.engine.window import tumbling_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    t = tumbling_window_counts(ds, window_seconds=86400)
    t = t.rename_columns(["window_start_us", "value_sum", "n_events"])
    return cusum_scan(t.select(["window_start_us", "n_events"]),
                      "window_start_us", "n_events")


def q_embedding_kmeans_inertia(sf_dir: str):
    """Clustering quality diagnostic (engine/similarity.py
    kmeans_assign_stats): per-cluster size + EXACT integer inertia
    under the final kmeans_fixed_point centroids. One extra scan;
    each block ships 3k integers (counts + hi/lo-split distance
    sums, the grouped_corr overflow discipline); python-int driver
    fold == SQL HUGEINT."""
    from json_schema_ray.engine.similarity import (
        kmeans_assign_stats, kmeans_fixed_point)

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents = kmeans_fixed_point(ds, k=4, n_iter=3)
    return kmeans_assign_stats(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        cents)


def q_docs_cross_snapshot_dups(sf_dir: str):
    """Cross-corpus near-dup JOIN (engine/dedup.py
    cross_jaccard_join): which "new snapshot" docs (odd ids) are
    near-copies (word-5-gram Jaccard >= 0.5) of the "old corpus"
    (even ids) — the incremental-ingestion gate at near-dup
    granularity. Side rides the id's low bit so the whole proven
    single-corpus inverted-index pipeline runs unchanged; same-side
    pairs drop from the result-sized pair table."""
    import math

    from json_schema_ray.engine.dedup import cross_jaccard_join

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    new_snap = _parity_filter(ds, "doc_id", 1)
    old_corp = _parity_filter(ds, "doc_id", 0)
    t = cross_jaccard_join(new_snap, old_corp, "doc_id",
                           threshold=0.5)
    return pa.table({
        "id_a": t["id_a"], "id_b": t["id_b"],
        "jaccard_e6": pa.array(
            [int(math.floor(v * 1e6 + 0.5))
             for v in t["jaccard"].to_pylist()], pa.int64()),
    })


def _kmeans_sql(k: int = 4, n_iter: int = 3,
                scale: int = 1_000_000, inertia: bool = False) -> str:
    """Generated CTE chain mirroring kmeans_fixed_point exactly
    (the pagerank/HITS iterative-SQL precedent): quantize -> init on
    the k smallest ids -> per iteration assign (argmin dist, ties to
    smallest cluster) + truncated-integer mean (DuckDB ``//``
    truncates toward zero, == the engine's sign * (|s| // n))."""
    parts = [f"""
        WITH pt AS (
          SELECT vec_id, CAST(i AS BIGINT) AS i,
                 CAST(floor(CAST(x AS DOUBLE) * {scale} + 0.5)
                      AS BIGINT) AS xq
          FROM (SELECT vec_id, unnest(embedding) AS x,
                       generate_subscripts(embedding, 1) AS i
                FROM embeddings)
        ),
        init AS (
          SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
                      AS BIGINT) AS cl, vec_id
          FROM (SELECT DISTINCT vec_id FROM pt
                ORDER BY vec_id LIMIT {k})
        ),
        c0 AS (SELECT init.cl, pt.i, pt.xq AS c
               FROM init JOIN pt USING (vec_id))"""]
    for t in range(1, n_iter + 1):
        p = t - 1
        parts.append(f""",
        d{t} AS (
          SELECT pt.vec_id, c.cl,
                 sum((pt.xq - c.c) * (pt.xq - c.c)) AS dist
          FROM pt JOIN c{p} c ON pt.i = c.i
          GROUP BY pt.vec_id, c.cl),
        a{t} AS (
          SELECT vec_id, cl FROM (
            SELECT vec_id, cl,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist, cl) AS rn
            FROM d{t}) WHERE rn = 1),
        s{t} AS (
          SELECT a.cl, pt.i, CAST(sum(pt.xq) AS HUGEINT) AS s,
                 CAST(count(*) AS HUGEINT) AS n
          FROM a{t} a JOIN pt USING (vec_id)
          GROUP BY a.cl, pt.i),
        c{t} AS (
          SELECT p.cl, p.i,
                 CAST(coalesce(CAST(s.s // s.n AS BIGINT), p.c)
                      AS BIGINT) AS c
          FROM c{p} p LEFT JOIN s{t} s
            ON p.cl = s.cl AND p.i = s.i)""")
    if inertia:
        # one more assignment under the FINAL centroids, keeping the
        # min distance per point; empty clusters still emit a row
        parts.append(f""",
        dF AS (
          SELECT pt.vec_id, c.cl,
                 sum((pt.xq - c.c) * (pt.xq - c.c)) AS dist
          FROM pt JOIN c{n_iter} c ON pt.i = c.i
          GROUP BY pt.vec_id, c.cl),
        aF AS (
          SELECT vec_id, cl, dist FROM (
            SELECT vec_id, cl, dist,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist, cl) AS rn
            FROM dF) WHERE rn = 1)
        SELECT s.cl AS cluster,
               CAST(coalesce(g.n, 0) AS BIGINT) AS n,
               CAST(coalesce(g.inertia, 0) AS BIGINT) AS inertia
        FROM (SELECT DISTINCT cl FROM c{n_iter}) s LEFT JOIN (
          SELECT cl, count(*) AS n, sum(dist) AS inertia
          FROM aF GROUP BY cl) g ON s.cl = g.cl
        ORDER BY cluster""")
        return "".join(parts)
    parts.append(f"""
        SELECT c.cl AS cluster, c.i AS dim, c.c AS centroid_e,
               CAST(coalesce(nn.n, 0) AS BIGINT) AS n
        FROM c{n_iter} c LEFT JOIN (
          SELECT cl, CAST(count(*) AS BIGINT) AS n
          FROM a{n_iter} GROUP BY cl) nn ON c.cl = nn.cl
        ORDER BY cluster, dim""")
    return "".join(parts)


def q_embedding_kmeans(sf_dir: str):
    """Distributed exact fixed-point k-means (engine/similarity.py
    kmeans_fixed_point): 3 Lloyd iterations, k=4, all-integer e6
    arithmetic — deterministic, float-order free, hash-exact vs the
    generated iterative SQL twin. Quantized corpus materializes
    once; each iteration is ONE scan emitting a k*d+k-integer
    partial row per block; python-int driver merge == SQL
    HUGEINT."""
    from json_schema_ray.engine.similarity import kmeans_fixed_point

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_fixed_point(ds, k=4, n_iter=3)


def q_user_activity_skew(sf_dir: str):
    """Partitioning-key skew profile (engine/stats.py
    key_skew_report): one row — n_keys, n_rows, max / p50 / p90 /
    p99 group sizes, hottest-key ppm share, mean group size. Exact
    counts ride the combiner shuffle; the size distribution pays one
    single-int-column sort. The pre-shuffle skew gate for the
    salting decision."""
    from json_schema_ray.engine.stats import key_skew_report

    ds = _read(sf_dir, "events", columns=["user_id"])
    return key_skew_report(ds, "user_id")


def q_docs_keyword_search(sf_dir: str):
    """Boolean AND keyword search (engine/text.py keyword_search):
    docs whose token set contains ALL of three query terms. Pure
    row-local filter — one map_batches scan, no shuffle, per-row
    uint64 term bitmask so duplicate occurrences can't
    double-count."""
    from json_schema_ray.engine.text import keyword_search

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "n_chars"])
    out = keyword_search(ds, ["spark", "merge", "window"],
                         column="text", mode="all")
    out = out.select_columns(["doc_id", "lang", "n_chars"])
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_events_expectations(sf_dir: str):
    """Declarative data-contract report (engine/expectations.py
    expectation_report): six row-local checks — not-null, set
    membership, numeric range, regex, string length — evaluated over
    events in ONE fused map_batches scan. Each block reduces to
    n_checks counter rows; the driver folds n_checks x n_blocks
    counters, never data. fail_e6 is the all-integer ppm failure
    rate so the SQL twin is hash-exact."""
    from json_schema_ray.engine import expectations as ex

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "value", "props"])
    return ex.expectation_report(ds, [
        ex.not_null("user_id"),
        ex.not_null("value"),
        ex.in_set("event_type",
                  ["click", "view", "purchase", "signup"],
                  name="event_type_known"),
        ex.between("value", lo=0.0, hi=400.0, name="value_range"),
        ex.matches("props", r'^\{"k": [0-9]+\}$', name="props_shape"),
        ex.str_length_between("props", lo=1, hi=9, name="props_len"),
    ])


def q_docs_cdc_merge(sf_dir: str):
    """Change-data-capture merge (LSM-style compaction): a base
    snapshot plus a derived op log (updates, deletes, inserts with a
    sequence number) collapse to latest-op-per-key in ONE combinable
    aggregate — engine/relational.py grouped_first_last's arg-max
    encoding, so hot keys reduce inside every block and nothing
    sorts. Tombstones travel as payload -1 and drop in the final
    stateless filter; the op log derives deterministically from the
    corpus (doc_id%5 update, %7 delete, %11 insert under new ids) so
    the SQL twin sees the identical stream."""
    from json_schema_ray.engine.relational import grouped_first_last

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    log = ds.map_batches(_cdc_ops_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    merged = grouped_first_last(log, "doc_id", "__seq", "__seq",
                                "__payload", last_out="__last")

    def finish(batch: pa.Table) -> pa.Table:
        live = batch.filter(pc.greater_equal(batch["__last"], 0.0))
        return pa.table({
            "doc_id": live["doc_id"],
            "n_chars": pc.cast(live["__last"], pa.int64())})

    out = merged.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def _cdc_ops_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        nc = pc.fill_null(pc.cast(batch["n_chars"], pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        parts = [pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "__seq": pa.array(np.zeros(len(ids), np.int64)),
            "__payload": pa.array(nc, pa.int64())})]
        upd = ids % 5 == 0
        if upd.any():
            parts.append(pa.table({
                "doc_id": pa.array(ids[upd], pa.int64()),
                "__seq": pa.array(np.ones(int(upd.sum()), np.int64)),
                "__payload": pa.array(nc[upd] + 1000, pa.int64())}))
        dele = ids % 7 == 0
        if dele.any():
            parts.append(pa.table({
                "doc_id": pa.array(ids[dele], pa.int64()),
                "__seq": pa.array(
                    np.full(int(dele.sum()), 2, np.int64)),
                "__payload": pa.array(
                    np.full(int(dele.sum()), -1, np.int64))}))
        ins = ids % 11 == 0
        if ins.any():
            parts.append(pa.table({
                "doc_id": pa.array(ids[ins] + 10_000_000, pa.int64()),
                "__seq": pa.array(np.ones(int(ins.sum()), np.int64)),
                "__payload": pa.array(nc[ins] + 7, pa.int64())}))
        return pa.concat_tables(parts)


def q_docs_scd2(sf_dir: str):
    """Type-2 slowly-changing-dimension build over the deterministic
    CDC op log (docs_cdc_merge's stream, shared generator): every
    non-tombstone op becomes a VERSION row with a half-open validity
    interval [valid_from, valid_to) where valid_to is the key's next
    op sequence (NULL = still current) — tombstones close the
    previous version's interval but emit no version themselves. ONE
    lead_column pass (a (key, seq) sort + O(blocks) first-row
    carries) builds every interval; no self-join, no per-key state."""
    from json_schema_ray.engine.rank import lead_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    log = ds.map_batches(_cdc_ops_batch, batch_format="pyarrow",
                         zero_copy_batch=True)

    def widen(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "__seq": b["__seq"],
            "__tb": b["__seq"], "__val": b["__seq"],
            "__payload": b["__payload"]})

    led = lead_column(
        log.map_batches(widen, batch_format="pyarrow",
                        zero_copy_batch=True),
        "doc_id", "__seq", "__val", "__tb", out="valid_to")

    def versions(b: pa.Table) -> pa.Table:
        live = b.filter(pc.greater_equal(b["__payload"], 0))
        return pa.table({
            "doc_id": live["doc_id"],
            "valid_from": pc.cast(live["__seq"], pa.int64()),
            "valid_to": pc.cast(live["valid_to"], pa.int64()),
            "n_chars": live["__payload"]})

    out = led.map_batches(versions, batch_format="pyarrow",
                          zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("valid_from", pa.int64()),
                        ("valid_to", pa.int64()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by(
        [("doc_id", "ascending"), ("valid_from", "ascending")])


def q_docs_top_quality_per_lang(sf_dir: str):
    """Per-language quality-percentile gate — the canonical curation
    filter 'keep each language's top 25% by length' (a global cut
    would drown low-resource languages): SQL ``percent_rank() OVER
    (PARTITION BY lang ORDER BY n_chars DESC) <= 0.25``. Because
    percent_rank is monotone in the order column, the kept set per
    language IS a value threshold — so the rank table
    (engine/rank.py grouped_value_ranks, one combiner groupby + one
    sort, O(blocks) carries) reduces to one cutoff value per
    language, broadcast into a final stateless filter scan. The
    25%-of-(N-1) cut evaluates in exact integers on both sides; ties
    at the cutoff keep together, exactly like rank()."""
    from json_schema_ray.engine.rank import grouped_value_ranks
    from json_schema_ray.engine.relational import grouped_aggregate

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "lang", "n_chars"])

    def non_null(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["n_chars"]))

    docs_nn = docs.map_batches(non_null, batch_format="pyarrow",
                               zero_copy_batch=True)
    counts = grouped_aggregate(docs_nn, ["lang"], [(None, "count")],
                               driver_merge=True)
    n_by_lang = dict(zip(counts["lang"].to_pylist(),
                         counts["rows_count"].to_pylist()))
    ranks = grouped_value_ranks(docs_nn, "lang", "n_chars")

    def kept_values(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_pylist()
        n = np.array([n_by_lang.get(lv, 0) for lv in langs], np.int64)
        rk = batch["rank"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        # ascending rank -> descending: rows above v = N - rank - cnt + 1
        rk_desc = n - rk - cnt + 2
        keep = (rk_desc - 1) * 100 <= 25 * (n - 1)
        return batch.filter(pa.array(keep)).select(["lang", "n_chars"])

    cut_t = grouped_aggregate(
        ranks.map_batches(kept_values, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["lang"], [("n_chars", "min")], driver_merge=True)
    cutoff = dict(zip(cut_t["lang"].to_pylist(),
                      cut_t["n_chars_min"].to_pylist()))

    def final_filter(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_pylist()
        thr = np.array([cutoff.get(lv, np.iinfo(np.int64).max)
                        for lv in langs], np.int64)
        nc = pc.fill_null(pc.cast(batch["n_chars"], pa.int64()),
                          np.iinfo(np.int64).min) \
            .to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(nc >= thr))

    out = docs.map_batches(final_filter, batch_format="pyarrow",
                           zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("n_chars", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_host_triangles(sf_dir: str):
    """Per-host triangle counts over the host co-mention graph
    (engine/graph.py triangle_counts): hosts cited by the SAME
    document connect, and triangles — the clustering signal link-spam
    filters key on — are counted by degree-ordered compact-forward
    search: orient every edge low-degree -> high-degree (out-degree
    then bounded by O(sqrt(E)) whatever the skew), expand wedge
    candidates via the sorted interior-segment + edge-stitch
    machinery, close them with ONE distributed sort-merge join
    against the packed edge set. Only the node table (hosts) touches
    the driver — the pagerank envelope. The corpus carries no URLs,
    so both sides append the same deterministic mod-97/89/83 hosts:
    wide enough that the edge set is data-dependent, not complete."""
    from json_schema_ray.engine.graph import (co_mention_pairs,
                                              triangle_counts)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def augment(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        aug = pc.binary_join_element_wise(
            b["text"],
            " plus http://hub", pc.cast(pa.array(ids % 83),
                                        pa.string()),
            ".example.com/x see http://site",
            pc.cast(pa.array(ids % 97), pa.string()),
            ".example.com/p via https://cdn",
            pc.cast(pa.array(ids % 89), pa.string()),
            ".example.com/a", "")
        return pa.table({"text": aug})

    pairs = co_mention_pairs(
        ds.map_batches(augment, batch_format="pyarrow",
                       zero_copy_batch=True))
    return triangle_counts(pairs)


def q_events_rolling_median(sf_dir: str):
    """Per-user rolling median over the trailing 5 events — the
    robust-smoothing twin of events_moving_sum, via engine/rank.py
    windowed_median: one null-safe sort, a per-block vectorized
    sliding-sort kernel, O(window * n_blocks) carries. Values
    quantize to e2 BEFORE the sort (fixed-point discipline) and the
    median ships DOUBLED (lower + upper middle) so it stays an exact
    int64 against DuckDB's interpolated window median."""
    from json_schema_ray.engine.rank import windowed_median

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def quantize(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "ts": batch["ts"], "__v": v})

    out = windowed_median(
        ds.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts", "__v", "event_id", 5, out="med2_e2")

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "user_id", "med2_e2",
                             "win_cnt"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("med2_e2", pa.int64()),
                        ("win_cnt", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_docs_template_clusters(sf_dir: str):
    """Template/boilerplate cluster detection: documents whose
    NORMALIZED skeleton (lowercased, alphanumeric word runs ->
    'w', whitespace runs -> ' ' — only punctuation and word
    STRUCTURE survive) is byte-identical group into one cluster — the
    form-letter/mad-libs dedup pass exact dedup misses. The skeleton
    hashes through the DuckDB hash() contract (collisions, if any,
    reproduce identically in the oracle which also groups by
    hash()); clusters of >= 2 surface via ONE sort + run scan
    (key_run_counts — skeletons are near-unique, a hash groupby is
    overhead), then only the clustered rows (cluster-sized, not
    corpus-sized) re-aggregate for the min-doc representative."""
    from json_schema_ray.engine.dedup import _duck_hash_strings
    from json_schema_ray.engine.keys import key_run_counts
    from json_schema_ray.engine.relational import (grouped_aggregate,
                                                   semi_join)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def skeleton(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(batch["text"], pa.string()), "")
        sk = pc.replace_substring_regex(
            pc.replace_substring_regex(pc.utf8_lower(txt),
                                       r"[a-z0-9]+", "w"),
            r"\s+", " ")
        h = _duck_hash_strings(sk).view(np.int64)
        return pa.table({"h": pa.array(h, pa.int64()),
                         "doc_id": batch["doc_id"]})

    rows = ds.map_batches(skeleton, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    dup_h = key_run_counts(rows, ["h"], min_count=2)
    clustered = semi_join(rows, dup_h, "h", "h")
    t = grouped_aggregate(clustered, ["h"],
                          [(None, "count"), ("doc_id", "min")],
                          driver_merge=True)
    if t is None:
        return pa.table({"rep_doc": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64())})
    return pa.table({
        "rep_doc": pc.cast(t["doc_id_min"], pa.int64()),
        "n_docs": pc.cast(t["rows_count"], pa.int64()),
    }).sort_by([("rep_doc", "ascending")])


def q_parts_multi_supplier(sf_dir: str):
    """Supply-chain fan-out: parts sourced from >= 4 distinct
    suppliers — two chained sort + run scans (key_run_counts): the
    first dedups (part, supplier) pairs, the second counts suppliers
    per part; no hash groupby anywhere (both key spaces are
    near-unique, the shape where aggregation machinery is pure
    overhead)."""
    from json_schema_ray.engine.keys import key_run_counts

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey"])
    pairs = key_run_counts(ds, ["l_partkey", "l_suppkey"]) \
        .map_batches(lambda t: t.select(["l_partkey"]),
                     batch_format="pyarrow", zero_copy_batch=True)
    counts = key_run_counts(pairs, ["l_partkey"], min_count=4)

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"l_partkey": t["l_partkey"],
                         "n_suppliers": pc.cast(t["cnt"], pa.int64())})

    schema = pa.schema([("l_partkey", pa.int64()),
                        ("n_suppliers", pa.int64())])
    return _collect(counts.map_batches(norm, batch_format="pyarrow",
                                       zero_copy_batch=True),
                    schema).sort_by([("l_partkey", "ascending")])


def q_nation_trade_matrix(sf_dir: str):
    """TPC-H Q7-flavored trade matrix: lineitem revenue rolled up by
    (customer nation, supplier nation). Join realizations by side
    size, exactly the revenue_by_region discipline: revenue
    fixed-points PER ROW then collapses per (block, order) with a
    shuffle-free combiner — keeping the supplier nation (broadcast
    supplier -> nation map, dimension-sized) in the combiner key —
    the two ORDER-keyed big sides meet in ONE sort_merge_join, and
    the customer-side nation rides a second dimension broadcast; the
    25 x 25 rollup driver-merges."""
    import ray

    from json_schema_ray.engine.relational import (grouped_aggregate,
                                                   sort_merge_join)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nmap = dict(zip(nation["n_nationkey"].to_pylist(),
                    nation["n_name"].to_pylist()))
    # key array + aligned nation-name array: probed per batch with
    # pc.index_in + take (the pagerank broadcast idiom) — never a
    # per-row Python dict loop
    sh = ray.put((supp["s_suppkey"].combine_chunks(),
                  pa.array([nmap.get(v) for v in
                            supp["s_nationkey"].to_pylist()],
                           pa.string())))
    ch = ray.put((cust["c_custkey"].combine_chunks(),
                  pa.array([nmap.get(v) for v in
                            cust["c_nationkey"].to_pylist()],
                           pa.string())))

    def rev(batch: pa.Table) -> pa.Table:
        skeys, snames = ray.get(sh)
        e = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        r = np.floor(e * (1 - d) * 100 + 0.5).astype(np.int64)
        idx = pc.index_in(batch["l_suppkey"].combine_chunks(),
                          value_set=skeys)
        snat = snames.take(idx)
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "supp_nation": snat, "rev100": pa.array(r)}) \
            .filter(pc.is_valid(snat))  # inner-join semantics
        g = pa.TableGroupBy(t, ["l_orderkey", "supp_nation"]) \
            .aggregate([("rev100", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "supp_nation": g["supp_nation"],
                         "rev100": g["rev100_sum"]})

    rev_ds = li.map_batches(rev, batch_format="pyarrow",
                            zero_copy_batch=True)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey"])
    joined = sort_merge_join(rev_ds, orders, "l_orderkey",
                             "o_orderkey", ["o_custkey"])

    def tag_cust(batch: pa.Table) -> pa.Table:
        ckeys, cnames = ray.get(ch)
        idx = pc.index_in(batch["o_custkey"].combine_chunks(),
                          value_set=ckeys)
        cnat = cnames.take(idx)
        return pa.table({"cust_nation": cnat,
                         "supp_nation": batch["supp_nation"],
                         "rev100": batch["rev100"]}) \
            .filter(pc.is_valid(cnat))  # inner-join semantics

    t = grouped_aggregate(
        joined.map_batches(tag_cust, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["cust_nation", "supp_nation"], [("rev100", "sum")],
        driver_merge=True)
    return pa.table({
        "cust_nation": t["cust_nation"],
        "supp_nation": t["supp_nation"],
        "revenue_e2": pc.cast(t["rev100_sum"], pa.int64()),
    }).sort_by([("cust_nation", "ascending"),
                ("supp_nation", "ascending")])


def q_user_online_coverage(sf_dir: str):
    """Merged-interval coverage (union of per-event presence
    intervals [ts, ts + 5min]) per user — the gaps-and-islands
    classic, realized by the OBSERVATION that intervals with hold H
    merge exactly like sessions with gap H: engine/window.py
    session_table (one sort, vectorized island detection, O(blocks)
    boundary chain-merge) gives the islands, and covered time is
    Sum(session_end - session_start + H) — all integer microseconds.
    Output per user: island count and total covered time."""
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.engine.window import session_table
    from ray.data.aggregate import Count, Sum

    hold_us = 300_000_000
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    sessions = session_table(ds, "user_id", "ts",
                             gap_seconds=hold_us / 1e6)

    def cover(batch: pa.Table) -> pa.Table:
        dur = pc.add(pc.subtract(batch["session_end_us"],
                                 batch["session_start_us"]),
                     hold_us)
        return pa.table({"user_id": batch["user_id"],
                         "__c": pc.cast(dur, pa.int64())})

    agg = null_safe_grouped_aggregate(
        sessions.map_batches(cover, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["user_id"],
        [Count(alias_name="n_intervals"),
         Sum("__c", alias_name="covered_us", ignore_nulls=True)],
        ["n_intervals", "covered_us"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "n_intervals": pc.cast(batch["n_intervals"], pa.int64()),
            "covered_us": pc.cast(batch["covered_us"], pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("n_intervals", pa.int64()),
                        ("covered_us", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_orders_price_by_date_decile(sf_dir: str):
    """Calibration curve over the corpus timeline: orders split into
    exact date deciles (engine/rank.py grouped_ntile over a constant
    partition — the deliberate one-hot-key case its one sort and
    O(blocks) row-count carries handle) and each decile reports its exact order count and
    summed / floor-mean price in e2 fixed point — the binned-means
    shape drift dashboards chart."""
    from json_schema_ray.engine.rank import grouped_ntile
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "__g": pa.array(np.zeros(batch.num_rows, np.int64)),
            "o_orderdate": batch["o_orderdate"],
            "o_orderkey": batch["o_orderkey"],
            "__p": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(batch["o_totalprice"], pa.float64()),
                100.0), 0.5)), pa.int64())})

    tiled = grouped_ntile(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "__g", "o_orderdate", "o_orderkey", 10, out="decile")
    t = grouped_aggregate(tiled, ["decile"],
                          [(None, "count"), ("__p", "sum")],
                          driver_merge=True)
    dec = t["decile"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t["rows_count"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = t["__p_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(dec)
    dec, n, s = dec[order], n[order], s[order]
    return pa.table({
        "decile": pa.array(dec), "n_orders": pa.array(n),
        "sum_price_e2": pa.array(s),
        "mean_price_e2": pa.array(s // n)})


def q_events_value_locf(sf_dir: str):
    """Gap repair by forward fill (LOCF) — the telemetry/feature
    maintenance primitive: values at deterministically-derived gap
    positions (event_id % 7 == 0, the corpus carries no nulls) fill
    from the user's most recent earlier value via engine/rank.py
    grouped_forward_fill: one null-safe sort, a single global
    max-accumulate per block, <= 1 carry row per block. Leading
    gaps (no earlier value) stay NULL, exactly SQL's last_value
    IGNORE NULLS. Values e2-quantized before nulling so parity is
    integer-exact."""
    from json_schema_ray.engine.rank import grouped_forward_fill

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def gap(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        ids = batch["event_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        v = pc.if_else(pa.array(ids % 7 == 0),
                       pa.scalar(None, pa.int64()), v)
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "ts": batch["ts"], "__v": v})

    out = grouped_forward_fill(
        ds.map_batches(gap, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts", "__v", "event_id", out="v_filled_e2")

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "user_id", "v_filled_e2"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("v_filled_e2", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_orders_pareto_share(sf_dir: str):
    """Revenue concentration (the Pareto check): what share of total
    spend comes from customers at or above the spend p95 — exact:
    per-customer spend in e2 fixed point (one combinable aggregate),
    the p95 threshold via the sort-paying exact quantile_disc
    (engine/stats.py), then ONE more pass over the customer-sized
    table folds (top spend, total spend, top count) and the share
    ships as an exact integer floor division e6."""
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.engine.stats import exact_quantiles
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "__m": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(batch["o_totalprice"], pa.float64()),
                100.0), 0.5)), pa.int64())})

    spend = null_safe_grouped_aggregate(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["o_custkey"],
        [Sum("__m", alias_name="__spend", ignore_nulls=True)],
        ["__spend"]).materialize()
    thr = int(exact_quantiles(spend, "__spend",
                              qs=(0.95,))["value"][0].as_py())

    def fold(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch["__spend"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        top = s >= thr
        return pa.table({
            "top_spend": pa.array([int(s[top].sum())], pa.int64()),
            "total_spend": pa.array([int(s.sum())], pa.int64()),
            "n_top": pa.array([int(top.sum())], pa.int64()),
            "n_cust": pa.array([len(s)], pa.int64())})

    parts = [r for r in spend.map_batches(
        fold, batch_format="pyarrow", zero_copy_batch=True).take_all()]
    top_spend = sum(r["top_spend"] for r in parts)
    total = sum(r["total_spend"] for r in parts)
    return pa.table({
        "spend_p95_e2": pa.array([thr], pa.int64()),
        "n_top": pa.array([sum(r["n_top"] for r in parts)],
                          pa.int64()),
        "n_cust": pa.array([sum(r["n_cust"] for r in parts)],
                           pa.int64()),
        "top_share_e6": pa.array(
            [top_spend * 1_000_000 // total if total else None],
            pa.int64())})


def q_events_value_autocorr(sf_dir: str):
    """Per-user lag-1 autocorrelation of event values — the
    repetitiveness/stickiness signal (a bot emitting the same value
    scores ~1): SIGNED SQUARED Pearson corr of (y_t, y_{t-1}) from
    EXACT integer sufficient statistics — engine/rank.py lag_column
    pairs each value with its predecessor (one sort, one carry row
    per block), a combinable per-user sum folds (n, Sx, Sy, Sxy,
    Sxx, Syy), and the finish forms corr2_e6 = sign(num) *
    (num^2 * 1e6) // (dx * dy) in arbitrary-precision Python ints.
    Squaring instead of sqrt keeps BOTH sides integer-exact: with e1
    quantization every intermediate fits DuckDB HUGEINT (envelope:
    (n * Sxy)^2 * 1e6 < 1.7e38, i.e. |y|_e1 * sqrt(n_user) < ~3e7).
    Degenerate users (< 2 pairs or zero variance) emit NULL."""
    from json_schema_ray.engine.rank import lag_column
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def quantize(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 10.0), 0.5)),
            pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "ts": batch["ts"], "__v": v})

    lagged = lag_column(
        ds.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts", "__v", "event_id", out="__pv")

    def partials(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.is_valid(batch["__v"]),
                                 pc.is_valid(batch["__pv"])))
        y = b["__v"].combine_chunks().to_numpy(zero_copy_only=False)
        x = b["__pv"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": b["user_id"],
            "__n": pa.array(np.ones(len(y), np.int64)),
            "__sx": pa.array(x), "__sy": pa.array(y),
            "__sxy": pa.array(x * y), "__sxx": pa.array(x * x),
            "__syy": pa.array(y * y)})

    agg = null_safe_grouped_aggregate(
        lagged.map_batches(partials, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["user_id"],
        [Sum(c, alias_name=c, ignore_nulls=True)
         for c in ("__n", "__sx", "__sy", "__sxy", "__sxx", "__syy")],
        ["__n", "__sx", "__sy", "__sxy", "__sxx", "__syy"])

    def finish(batch: pa.Table) -> pa.Table:
        out_ids, out_corr = [], []
        for r in batch.to_pylist():
            n = int(r["__n"] or 0)
            if n < 2:
                out_ids.append(r["user_id"])
                out_corr.append(None)
                continue
            sx, sy = int(r["__sx"]), int(r["__sy"])
            sxy, sxx, syy = (int(r["__sxy"]), int(r["__sxx"]),
                             int(r["__syy"]))
            num = n * sxy - sx * sy
            d = (n * sxx - sx * sx) * (n * syy - sy * sy)
            if d == 0:
                corr = None
            else:
                q = (num * num * 1_000_000) // d
                corr = -q if num < 0 else q
            out_ids.append(r["user_id"])
            out_corr.append(corr)
        return pa.table({"user_id": pa.array(out_ids, pa.int64()),
                         "corr2_e6": pa.array(out_corr, pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("corr2_e6", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_docs_ngram_novelty(sf_dir: str):
    """Per-document n-gram novelty — what fraction of a doc's
    distinct word-5-gram shingles appear in NO earlier document (by
    doc_id) — the contribution score data-mixing pipelines weight
    by (a doc whose shingles all appeared before adds nothing).
    Shingle keys are NEAR-UNIQUE, so first-occurrence membership is
    the engine's sort-based arg-min flag (engine/keys.py
    first_in_group — ONE sort + adjacent scan + O(blocks) boundary
    lookups; the hash-aggregate + join realization measured 3.7x
    slower on exactly this shape), over the DuckDB-hash shingle
    contract (dedup.shingle_sets_batch == SQL hash(shingle));
    per-doc totals then fold in one combinable sum. novelty_e6 is an
    exact integer floor division."""
    from json_schema_ray.engine.dedup import shingle_sets_batch
    from json_schema_ray.engine.keys import first_in_group
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def shingles(batch: pa.Table) -> pa.Table:
        offsets, values = shingle_sets_batch(batch["text"], 5)
        ids = batch["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        doc = np.repeat(ids, np.diff(offsets))
        # int64 REINTERPRETATION of the uint64 hash: h is engine-
        # internal (only equality/grouping), and signed keys keep the
        # group-key encoding within Arrow int64
        return pa.table({"h": pa.array(values.view(np.int64),
                                       pa.int64()),
                         "doc": pa.array(doc, pa.int64())})

    rows = ds.map_batches(shingles, batch_format="pyarrow",
                          zero_copy_batch=True)
    flagged = first_in_group(rows, ["h"], "doc", out="__f")

    def flag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc"],
            "__novel": pc.cast(batch["__f"], pa.int64()),
            "__one": pa.array(np.ones(batch.num_rows, np.int64))})

    agg = null_safe_grouped_aggregate(
        flagged.map_batches(flag, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["doc_id"],
        [Sum("__one", alias_name="n_shingles", ignore_nulls=True),
         Sum("__novel", alias_name="n_novel", ignore_nulls=True)],
        ["n_shingles", "n_novel"])

    def finish(batch: pa.Table) -> pa.Table:
        ns = pc.cast(batch["n_shingles"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        nv = pc.cast(batch["n_novel"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_shingles": pa.array(ns), "n_novel": pa.array(nv),
            "novelty_e6": pa.array(nv * 1_000_000 // ns)})

    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_shingles", pa.int64()),
                        ("n_novel", pa.int64()),
                        ("novelty_e6", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("doc_id", "ascending")])


def q_events_peak_hour_rate(sf_dir: str):
    """Peak sustained rate per user — the max trailing-1-hour event
    count, the statistic a rate-limiter or abuse gate is actually
    about: engine/window.py range_windowed_sum's RANGE-frame count
    (one sort and a two-pointer scan per sorted block, one row per
    distinct (user, ts)) reduced by a combinable per-user MAX."""
    import datetime

    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.engine.window import range_windowed_sum
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    win = range_windowed_sum(ds, "user_id", "ts", "value",
                             datetime.timedelta(hours=1))
    agg = null_safe_grouped_aggregate(
        win, ["user_id"],
        [Max("range_cnt", alias_name="peak_1h", ignore_nulls=True)],
        ["peak_1h"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": batch["user_id"],
                         "peak_1h": pc.cast(batch["peak_1h"],
                                            pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("peak_1h", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_orders_rfm_segments(sf_dir: str):
    """RFM customer segmentation — the classic
    recency/frequency/monetary quartile coding, realized exactly:
    ONE per-customer combinable aggregate (last order timestamp,
    order count, spend in e2 fixed point), three exact
    quantile_disc quartile-edge computations over the
    customer-sized table (engine/stats.py exact_quantiles — a
    projected single-column sort each), and a final stateless scan
    that codes each dimension 1-4 by the searchsorted-left ladder
    (v <= edge stays low, the SQL CASE contract). Recency counts
    whole days back from the corpus max order date, so every
    boundary is an exact integer."""
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from json_schema_ray.engine.stats import exact_quantiles
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "__d": pc.cast(batch["o_orderdate"], pa.int64()),
            "__m": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(batch["o_totalprice"], pa.float64()),
                100.0), 0.5)), pa.int64())})

    agg = null_safe_grouped_aggregate(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["o_custkey"],
        [Max("__d", alias_name="__last", ignore_nulls=True),
         Count(alias_name="__f"),
         Sum("__m", alias_name="__spend", ignore_nulls=True)],
        ["__last", "__f", "__spend"]).materialize()
    max_d = int(pa.scalar(agg.max("__last")).as_py())

    def rfm(batch: pa.Table) -> pa.Table:
        last = pc.cast(batch["__last"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "__r": pa.array((max_d - last) // 86_400_000_000,
                            pa.int64()),
            "__f": pc.cast(batch["__f"], pa.int64()),
            "__m": pc.cast(batch["__spend"], pa.int64())})

    feats = agg.map_batches(rfm, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    edges = {}
    for col in ("__r", "__f", "__m"):
        edges[col] = np.asarray(
            exact_quantiles(feats, col,
                            qs=(0.25, 0.5, 0.75))["value"].to_pylist(),
            np.float64)

    def code(batch: pa.Table) -> pa.Table:
        out = {"o_custkey": batch["o_custkey"]}
        for col, name in (("__r", "r_q"), ("__f", "f_q"),
                          ("__m", "m_q")):
            v = batch[col].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            out[name] = pa.array(
                np.searchsorted(edges[col], v, side="left") + 1,
                pa.int64())
        out["recency_days"] = batch["__r"]
        out["n_orders"] = batch["__f"]
        out["spend_e2"] = batch["__m"]
        return pa.table(out)

    schema = pa.schema([("o_custkey", pa.int64()),
                        ("r_q", pa.int64()), ("f_q", pa.int64()),
                        ("m_q", pa.int64()),
                        ("recency_days", pa.int64()),
                        ("n_orders", pa.int64()),
                        ("spend_e2", pa.int64())])
    return _collect(feats.map_batches(code, batch_format="pyarrow",
                                      zero_copy_batch=True),
                    schema).sort_by([("o_custkey", "ascending")])


def q_user_value_trend(sf_dir: str):
    """Per-user value trend — the OLS slope of value against time,
    the drift-per-entity signal engagement/quality monitors chart:
    classic sufficient-statistics regression, ALL-EXACT: x = whole
    seconds since the corpus min(ts), y = e2 fixed-point value, ONE
    combinable per-user sum of (n, Sx, Sy, Sxy, Sxx) int64 partials
    (envelope documented: span_s * |y|_e2 * n_user < 2^63), then the
    slope numerator/denominator form in arbitrary-precision Python
    ints INSIDE the per-batch finish over the group-sized table —
    never a float until the final e9 quantization. Division
    truncates toward zero, matching DuckDB's HUGEINT ``//``;
    degenerate users (one event / zero time spread) emit NULL."""
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    min_us = pc.cast(
        pa.scalar(ds.min("ts")), pa.timestamp("us")).cast(
        pa.int64()).as_py()

    def partials(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_valid(batch["value"]))
        x = (pc.cast(b["ts"], pa.int64())
             .to_numpy(zero_copy_only=False) - min_us) // 1_000_000
        y = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(b["value"], pa.float64()), 100.0), 0.5)),
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": b["user_id"],
            "__n": pa.array(np.ones(len(x), np.int64)),
            "__sx": pa.array(x), "__sy": pa.array(y),
            "__sxy": pa.array(x * y), "__sxx": pa.array(x * x)})

    agg = null_safe_grouped_aggregate(
        ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"],
        [Sum(c, alias_name=c, ignore_nulls=True)
         for c in ("__n", "__sx", "__sy", "__sxy", "__sxx")],
        ["__n", "__sx", "__sy", "__sxy", "__sxx"])

    def finish(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        out_ids, out_slopes = [], []
        for r in rows:
            n, sx, sy = int(r["__n"]), int(r["__sx"]), int(r["__sy"])
            sxy, sxx = int(r["__sxy"]), int(r["__sxx"])
            den = n * sxx - sx * sx
            if den == 0:
                slope = None
            else:
                num = (n * sxy - sx * sy) * 1_000_000_000
                q = abs(num) // abs(den)
                slope = -q if (num < 0) != (den < 0) else q
            out_ids.append(r["user_id"])
            out_slopes.append(slope)
        return pa.table({"user_id": pa.array(out_ids, pa.int64()),
                         "slope_e9": pa.array(out_slopes, pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("slope_e9", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_embedding_outliers(sf_dir: str):
    """Embedding-space outlier gate: the 20 vectors farthest (squared
    L2) from the corpus centroid — the cheap first-pass filter for
    corrupt/mislabeled embeddings before clustering. ALL-INTEGER like
    embedding_kmeans: values quantize to e3, the centroid travels as
    raw per-dim SUMS (never a float mean), and each vector's distance
    numerator sum((x*n - S)^2) is an exact int64 (envelope: e3 * n <
    3e9, i.e. < ~5e5 vectors at |x| <= 1; the SQL twin is HUGEINT-
    immune). Shape: one dim-sized partial-sum pass (64-row driver
    merge), broadcast, one distance scan, per-block partial top-k."""
    import ray

    from json_schema_ray.engine.relational import top_k

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table):
        emb = batch["embedding"].combine_chunks()
        flat = pc.cast(pc.list_flatten(emb), pa.float64())
        xi = pc.cast(pc.floor(pc.add(pc.multiply(flat, 1000.0), 0.5)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        widths = np.diff(emb.offsets.to_numpy(zero_copy_only=False))
        d = int(widths[0]) if len(widths) else 0
        if len(widths) and not (widths == d).all():
            raise ValueError("embedding_outliers requires uniform "
                             "vector widths")
        return xi.reshape(-1, d) if d else xi.reshape(0, 0)

    def partial_sums(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_valid(batch["embedding"]))
        x = quant(b)
        if x.shape[0] == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "dim": pa.array(np.arange(x.shape[1], dtype=np.int64)),
            "s": pa.array(x.sum(0, dtype=np.int64)),
            "n": pa.array(np.full(x.shape[1], x.shape[0], np.int64))})

    parts = [pa.Table.from_batches([b]) if isinstance(
        b, pa.RecordBatch) else b
        for b in ds.map_batches(partial_sums, batch_format="pyarrow",
                                zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "dist2_fp": pa.array([], pa.int64())})
    st = pa.TableGroupBy(
        pa.concat_tables(parts, promote_options="default"),
        ["dim"]).aggregate([("s", "sum"), ("n", "sum")]) \
        .sort_by([("dim", "ascending")])
    S = st["s_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(st["n_sum"][0].as_py())
    handle = ray.put((S, n))

    def dist(batch: pa.Table) -> pa.Table:
        S_r, n_r = ray.get(handle)
        b = batch.filter(pc.is_valid(batch["embedding"]))
        x = quant(b)
        if x.shape[0] == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "dist2_fp": pa.array([], pa.int64())})
        diff = x * n_r - S_r[None, :]
        return pa.table({
            "vec_id": pc.cast(b["vec_id"], pa.int64()),
            "dist2_fp": pa.array((diff * diff).sum(1,
                                                   dtype=np.int64))})

    top = top_k(ds.map_batches(dist, batch_format="pyarrow",
                               zero_copy_batch=True),
                ["dist2_fp", "vec_id"], [True, False], 20)
    return top.sort_by([("dist2_fp", "descending"),
                        ("vec_id", "ascending")])


def q_events_seasonal_residuals(sf_dir: str):
    """Seasonality-adjusted volume monitor: each day's event count
    against the mean of its weekday cohort (epoch-day mod 7 — the
    same deterministic bucket both sides), residual in exact e6
    fixed point (mean is a floor division of integers, never a
    float). The day table is calendar-sized — thousands of rows at
    ANY corpus scale — so the per-block daily partials driver-merge
    (grouped_aggregate's documented low-cardinality path) and the
    weekday means are driver math; the corpus itself is touched in
    ONE counting scan."""
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def day_of(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"day_us": pa.array(
            (us // 86_400_000_000) * 86_400_000_000, pa.int64())})

    days = grouped_aggregate(
        ds.map_batches(day_of, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["day_us"], [(None, "count")], driver_merge=True)
    day_us = np.asarray(days["day_us"].to_pylist(), np.int64)
    n = np.asarray(days["rows_count"].to_pylist(), np.int64)
    wd = (day_us // 86_400_000_000) % 7
    mean_e6 = np.empty(len(day_us), np.int64)
    for w in np.unique(wd):
        m = wd == w
        mean_e6[m] = int(n[m].sum()) * 1_000_000 // int(m.sum())
    order = np.argsort(day_us)
    return pa.table({
        "day_us": pa.array(day_us[order]),
        "n_events": pa.array(n[order]),
        "wd": pa.array(wd[order]),
        "wd_mean_e6": pa.array(mean_e6[order]),
        "resid_e6": pa.array(n[order] * 1_000_000 - mean_e6[order]),
    })


def q_docs_oov_rate(sf_dir: str):
    """Out-of-vocabulary rate per document against the corpus top-500
    vocabulary — the tokenizer-coverage gate an LM pipeline runs
    before committing to a vocab: ONE term-count groupby (per-block
    combiner first), a deterministic (count DESC, term) top-k that
    driver-merges k-sized partials, then the vocabulary broadcasts
    into a second stateless scan that bincounts per-doc token and
    OOV totals — the corpus is read twice, shuffled never (term
    counts move, vocabulary-sized). oov_e6 is an exact integer floor
    division; token-less documents are absent (no denominator),
    matching the SQL unnest."""
    import ray

    from json_schema_ray.engine.relational import pre_aggregate, top_k
    from json_schema_ray.engine.text import _flat_terms

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def term_rows(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_terms(batch, "text")
        return pa.table({"term": flat})

    counts = pre_aggregate(
        ds.map_batches(term_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["term"], [(None, "count")]) \
        .groupby("term").sum("rows_count")

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"term": t["term"],
                         "cnt": pc.cast(t["sum(rows_count)"],
                                        pa.int64())})

    vocab_t = top_k(counts.map_batches(norm, batch_format="pyarrow",
                                       zero_copy_batch=True),
                    ["cnt", "term"], [True, False], 500)
    handle = ray.put(vocab_t["term"].combine_chunks())

    def oov(batch: pa.Table) -> pa.Table:
        vocab = ray.get(handle)
        flat, par = _flat_terms(batch, "text")
        nrows = batch.num_rows
        tot = np.bincount(par, minlength=nrows).astype(np.int64)
        known = pc.fill_null(pc.is_in(flat, value_set=vocab), False) \
            .to_numpy(zero_copy_only=False)
        n_oov = tot - np.bincount(par[known],
                                  minlength=nrows).astype(np.int64)
        keep = tot > 0
        ids = batch["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_tokens": pa.array(tot[keep]),
            "n_oov": pa.array(n_oov[keep]),
            "oov_e6": pa.array(n_oov[keep] * 1_000_000 // tot[keep]),
        })

    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_tokens", pa.int64()),
                        ("n_oov", pa.int64()),
                        ("oov_e6", pa.int64())])
    return _collect(ds.map_batches(oov, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    schema).sort_by([("doc_id", "ascending")])


def q_corpus_integrity(sf_dir: str):
    """Cross-modal corpus integrity gate — the contract check a
    text+embedding training corpus needs before anything trains:
    (1) documents with NO embedding row and (2) orphan embeddings
    with no document, both as DISTRIBUTED set differences
    (engine/relational.py except_distinct — two big sides, no
    broadcast of a corpus-sized key set); (3) ragged vectors (length
    differing from the corpus minimum — any raggedness flags) and
    (4) null vectors, both from ONE stateless length scan folded to
    per-block counters. Four (check, n_bad) rows."""
    from ray.data.aggregate import Max

    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # BOTH set differences in ONE tag+union+groupby execution: each
    # side ships its per-block distinct keys with an L/R flag, one
    # key-level Max-merge shuffle, then flag combinations count to
    # two integers inside the same lazy pipeline (2 ints per block
    # reach the driver; the round-3 version ran two independent
    # except_distinct executions plus three stats passes — 5 chained
    # executions, 9.5s, for what two pipelines express)
    def tag(col, left: bool):
        def f(b: pa.Table) -> pa.Table:
            u = pc.unique(b[col].combine_chunks())
            n = len(u)
            one = pa.array(np.ones(n, np.int8))
            zero = pa.array(np.zeros(n, np.int8))
            return pa.table({"key": u, "__l": one if left else zero,
                             "__r": zero if left else one})
        return f

    parts = docs.map_batches(tag("doc_id", True),
                             batch_format="pyarrow",
                             zero_copy_batch=True) \
        .union(emb.map_batches(tag("vec_id", False),
                               batch_format="pyarrow",
                               zero_copy_batch=True))
    flags = null_safe_grouped_aggregate(
        parts, ["key"],
        [Max("__l", alias_name="__l"), Max("__r", alias_name="__r")],
        ["__l", "__r"])

    def cnt(b: pa.Table) -> pa.Table:
        lv = b["__l"].to_numpy(zero_copy_only=False)
        rv = b["__r"].to_numpy(zero_copy_only=False)
        return pa.table({
            "m": pa.array([int(((lv == 1) & (rv == 0)).sum())],
                          pa.int64()),
            "o": pa.array([int(((lv == 0) & (rv == 1)).sum())],
                          pa.int64())})

    missing = orphan = 0
    for r in flags.map_batches(cnt, batch_format="pyarrow",
                               zero_copy_batch=True).take_all():
        missing += r["m"]
        orphan += r["o"]

    # length stats in ONE pass: per block a (len, cnt) histogram
    # (embedding dims are near-constant, so a handful of rows) plus
    # the null count as the len = -1 row; the driver derives min,
    # ragged and null counts from the merged tiny histogram
    def lens(b: pa.Table) -> pa.Table:
        e = b["embedding"]
        ln = pc.fill_null(pc.list_value_length(e), -1)
        t = pa.table({"len": pc.cast(ln, pa.int64())})
        g = pa.TableGroupBy(t, ["len"]).aggregate([([], "count_all")])
        return g.rename_columns(["len", "cnt"])

    hist: dict = {}
    for r in emb.map_batches(lens, batch_format="pyarrow",
                             zero_copy_batch=True).take_all():
        hist[r["len"]] = hist.get(r["len"], 0) + r["cnt"]
    n_null = hist.pop(-1, 0)
    min_len = min(hist) if hist else 0
    n_ragged = sum(c for l, c in hist.items() if l != min_len)
    return pa.table({
        "chk": pa.array(["missing_embedding", "null_embedding",
                         "orphan_embedding", "ragged_dim"],
                        pa.string()),
        "n_bad": pa.array([missing, n_null, orphan, n_ragged],
                          pa.int64())})


def q_parts_copurchase(sf_dir: str):
    """Market-basket pair mining: the top-20 part pairs by the
    number of orders carrying BOTH — the association signal
    recommendation/dedup-blocking pipelines mine at corpus scale.
    Shape: NO hash groupby anywhere — raw (order, part) rows feed
    the proven one-sort interior-segment + edge-stitch pair
    machinery (engine/dedup.py _bucket_candidate_pairs, bucket =
    order, within-bucket ``unique`` dedup, so the global
    distinct-pairs shuffle disappears), pair occurrences then count
    by the sort + adjacent-run scan (engine/keys.py key_run_counts
    — the duplicate_lineitem_keys rewrite shape), and a per-block
    partial top-k merges on the driver. Deterministic total order:
    (count DESC, part_a, part_b)."""
    from json_schema_ray.engine.dedup import _bucket_candidate_pairs
    from json_schema_ray.engine.keys import key_run_counts
    from json_schema_ray.engine.relational import top_k

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey"])

    def as_rows(b: pa.Table) -> pa.Table:
        return pa.table({"bucket": pc.cast(b["l_orderkey"], pa.int64()),
                         "id": pc.cast(b["l_partkey"], pa.int64())})

    rows = ds.map_batches(as_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = _bucket_candidate_pairs(rows, "id", distinct=False,
                                    unique=True)
    counts = key_run_counts(pairs, ["id_a", "id_b"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({
            "part_a": t["id_a"],
            "part_b": t["id_b"],
            "n_orders": pc.cast(t["cnt"], pa.int64())})

    top = top_k(counts.map_batches(norm, batch_format="pyarrow",
                                   zero_copy_batch=True),
                ["n_orders", "part_a", "part_b"],
                [True, False, False], 20)
    return top.sort_by([("n_orders", "descending"),
                        ("part_a", "ascending"),
                        ("part_b", "ascending")])


def q_session_concurrency(sf_dir: str):
    """Peak-load / capacity profile: how many sessions are OPEN at
    every session-start instant — the classic sweep-line interval
    overlap count, distributed: sessions (engine/window.py
    session_table, closed intervals [start, end]) emit +1 at start
    and -1 at end+1us; grouped_multi_agg_sorted collapses deltas to
    UNIQUE timestamps (making the global running sum order-free and
    the timeline key-safe for carries — the SORTED realization,
    because a Ray groupby().aggregate() here pays per-group Python
    at unique-timestamp cardinality, the engine's documented
    pathology; round-5 fold, ~1s off the warm time), then ONE
    prefix scan (engine/rank.py _running_sums, O(blocks) driver
    state on the single global timeline) yields starts-minus-ends;
    rows with at least one start are the answer. Equal-time starts
    count each other (RANGE-peer semantics), a start exactly at
    another session's end+1us does not."""
    from json_schema_ray.engine.rank import _running_sums
    from json_schema_ray.engine.relational import (
        grouped_multi_agg_sorted)
    from json_schema_ray.engine.window import session_table

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    sessions = session_table(ds, "user_id", "ts", 1800.0)

    def deltas(batch: pa.Table) -> pa.Table:
        st = batch["session_start_us"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        en = batch["session_end_us"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        n = len(st)
        one = np.ones(n, np.int64)
        zero = np.zeros(n, np.int64)
        return pa.table({
            "t": pa.array(np.concatenate([st, en + 1]), pa.int64()),
            "__s": pa.array(np.concatenate([one, zero])),
            "__e": pa.array(np.concatenate([zero, one]))})

    uniq = grouped_multi_agg_sorted(
        sessions.map_batches(deltas, batch_format="pyarrow",
                             zero_copy_batch=True),
        "t",
        [("__s", "sum", "__ns"), ("__e", "sum", "__ne")])

    def prep(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "__g": pa.array(np.zeros(n, np.int64)),
            "t": batch["t"],
            "__one": pa.array(np.ones(n, np.int64)),
            "__ns": pc.cast(batch["__ns"], pa.float64()),
            "__ne": pc.cast(batch["__ne"], pa.float64())})

    run = _running_sums(
        uniq.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True),
        "__g", "t", [("__ns", "__S"), ("__ne", "__E")], "__one")

    def finish(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.greater(batch["__ns"], 0.0))
        return pa.table({
            "start_us": kept["t"],
            "n_starts": pc.cast(kept["__ns"], pa.int64()),
            "concurrency": pc.cast(
                pc.subtract(kept["__S"], kept["__E"]), pa.int64())})

    schema = pa.schema([("start_us", pa.int64()),
                        ("n_starts", pa.int64()),
                        ("concurrency", pa.int64())])
    return _collect(run.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("start_us", "ascending")])


def q_drift_value_psi(sf_dir: str):
    """NUMERIC drift — the companion of the categorical
    drift_events_psi: the value column bins into quartiles of the
    REFERENCE window (first 15 days, exact sort-based quantile_disc
    edges via engine/stats.py exact_quantiles, fixed-point e2 so the
    edges are exact integers), then ONE tagged scan counts the 4
    bins in both windows (a (2 x 4)-row driver merge) and the stored
    drift.psi contract scores the shift. PSI ships as
    floor(x*1e6+0.5) BIGINT for a float-safe hash compare."""
    import datetime
    import math

    from json_schema_ray.engine.drift import psi
    from json_schema_ray.engine.relational import grouped_aggregate
    from json_schema_ray.engine.stats import exact_quantiles

    ds = _read(sf_dir, "events", columns=["value", "ts"])
    split = ds.min("ts") + datetime.timedelta(days=15)

    def quantized(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_valid(batch["value"]))
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(b["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        is_ref = pc.less(b["ts"], pa.scalar(split, b["ts"].type))
        return pa.table({"__v": v, "__ref": is_ref})

    tagged = ds.map_batches(quantized, batch_format="pyarrow",
                            zero_copy_batch=True)
    ref_only = tagged.map_batches(
        lambda b: b.filter(b["__ref"]).select(["__v"]),
        batch_format="pyarrow", zero_copy_batch=True)
    edges = np.asarray(
        exact_quantiles(ref_only, "__v",
                        qs=(0.25, 0.5, 0.75))["value"].to_pylist(),
        np.float64)

    def binned(batch: pa.Table) -> pa.Table:
        v = batch["__v"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        # side='left': v == edge stays in the lower bin, exactly the
        # SQL CASE v <= e1 / <= e2 / <= e3 ladder
        return pa.table({
            "win": batch["__ref"],
            "bin": pa.array(np.searchsorted(edges, v, side="left")
                            .astype(np.int64))})

    counts = grouped_aggregate(
        tagged.map_batches(binned, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["win", "bin"], [(None, "count")], driver_merge=True)
    ref_hist: dict = {}
    act_hist: dict = {}
    for w, b, c in zip(counts["win"].to_pylist(),
                       counts["bin"].to_pylist(),
                       counts["rows_count"].to_pylist()):
        (ref_hist if w else act_hist)[b] = c
    v = psi(ref_hist, act_hist)
    return pa.table({
        "col": pa.array(["value"], pa.string()),
        "metric": pa.array(["psi_q4"], pa.string()),
        "psi_e6": pa.array([int(math.floor(v * 1e6 + 0.5))],
                           pa.int64()),
    })


def q_events_rolling_distinct(sf_dir: str):
    """Short-horizon diversity gate: distinct values among each
    user's trailing 8 events (SQL count(DISTINCT) OVER a ROWS
    frame) — a user whose rolling distinct count collapses is
    repeating itself, the classic bot/stuck-agent signal. Engine:
    engine/rank.py windowed_distinct_count (the shared
    _windowed_rows harness — one sort, per-frame sorted transition
    count, O(window * n_blocks) carries); e2 fixed-point makes
    equality testing exact."""
    from json_schema_ray.engine.rank import windowed_distinct_count

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def quantize(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "ts": batch["ts"], "__v": v})

    out = windowed_distinct_count(
        ds.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts", "__v", "event_id", 8)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "user_id", "win_distinct",
                             "win_cnt"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("win_distinct", pa.int64()),
                        ("win_cnt", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_user_decayed_value(sf_dir: str):
    """Recency-weighted user value — the exponential-decay feature
    every freshness-aware curation/ranking pipeline wants — made
    EXACT: with a one-week half-life, weight = 2^-(whole weeks of
    age), so scaling by 2^20 turns every weight into a left shift
    and the per-user sum into pure int64 arithmetic (bit-for-bit
    reproducible in SQL's ``<<``, no float pow anywhere). Events
    older than 20 half-lives carry weight < 1 ulp of the scale and
    drop (documented cutoff). Shape: one scalar max(ts) aggregate,
    then a stateless weighting scan + ONE combinable per-user sum —
    no sort, no window machinery. Envelope: sum(v_e2) * 2^20 per
    user < 2^63."""
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    max_us = pc.cast(
        pa.scalar(ds.max("ts")), pa.timestamp("us")).cast(
        pa.int64()).as_py()
    week_us = 7 * 86_400_000_000

    def weigh(batch: pa.Table) -> pa.Table:
        age_w = pc.divide(
            pc.subtract(pa.scalar(max_us, pa.int64()),
                        pc.cast(batch["ts"], pa.int64())),
            week_us).to_numpy(zero_copy_only=False)
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64()).to_numpy(zero_copy_only=False)
        keep = age_w <= 20
        w = np.zeros(len(age_w), np.int64)
        w[keep] = np.int64(1) << (20 - age_w[keep])
        t = pa.table({"user_id": batch["user_id"],
                      "__wv": pa.array(v * w, pa.int64())})
        return t.filter(pa.array(keep))

    agg = null_safe_grouped_aggregate(
        ds.map_batches(weigh, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"],
        [Sum("__wv", alias_name="decayed_e2_fp20",
             ignore_nulls=True)],
        ["decayed_e2_fp20"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "decayed_e2_fp20": pc.cast(batch["decayed_e2_fp20"],
                                       pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("decayed_e2_fp20", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_events_rolling_extrema(sf_dir: str):
    """Per-user rolling min/max band over the trailing 5 events —
    the volatility/range gate companion of events_rolling_median,
    via engine/rank.py windowed_extrema (the shared _windowed_rows
    harness: one null-safe sort, an O(n * w) masked min/max kernel,
    O(window * n_blocks) carries). Values quantize to e2 before the
    sort so both extrema are exact int64."""
    from json_schema_ray.engine.rank import windowed_extrema

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def quantize(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "ts": batch["ts"], "__v": v})

    out = windowed_extrema(
        ds.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts", "__v", "event_id", 5,
        min_out="min_e2", max_out="max_e2")

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "user_id", "min_e2",
                             "max_e2", "win_cnt"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("min_e2", pa.int64()), ("max_e2", pa.int64()),
                        ("win_cnt", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_user_twap(sf_dir: str):
    """Time-weighted value aggregate per user (the TWAP shape):
    every event's value is weighted by its holding interval — the
    milliseconds until the user's NEXT event — realized as
    engine/rank.py lead_column (one null-safe sort, ONE carry row
    per block) followed by a combinable per-user sum. Fixed-point
    discipline: value quantizes to e2 BEFORE the multiply, weights
    are integer milliseconds, so partials merge order-free
    (envelope: |sum(v_e2 * dt_ms)| < 2^63; at 100 TB the per-user
    history is the bound, not the corpus). The last event of a user
    has no interval and contributes nothing, exactly like SQL's
    NULL-propagating lead()."""
    from json_schema_ray.engine.rank import lead_column
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    led = lead_column(ds, "user_id", "ts", "ts", "event_id",
                      out="__next_ts")

    def weigh(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64())
        nt = pc.cast(batch["__next_ts"], pa.int64())
        # events.ts is microsecond-unit; weight in whole ms
        dt_ms = pc.divide(pc.subtract(nt, t), 1000)
        v_e2 = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch["value"], pa.float64()), 100.0), 0.5)),
            pa.int64())
        return pa.table({
            "user_id": batch["user_id"],
            "__num": pc.multiply(v_e2, dt_ms),
            "__den": dt_ms})

    agg = null_safe_grouped_aggregate(
        led.map_batches(weigh, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["user_id"],
        [Sum("__num", alias_name="twap_num_e2", ignore_nulls=True),
         Sum("__den", alias_name="span_ms", ignore_nulls=True)],
        ["twap_num_e2", "span_ms"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "twap_num_e2": pc.cast(batch["twap_num_e2"], pa.int64()),
            "span_ms": pc.cast(batch["span_ms"], pa.int64())})

    schema = pa.schema([("user_id", pa.int64()),
                        ("twap_num_e2", pa.int64()),
                        ("span_ms", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("user_id", "ascending")])


def q_events_global_seq(sf_dir: str):
    """GLOBAL row_number() OVER (ORDER BY ts, event_id) — the
    distributed zipWithIndex (engine/rank.py global_row_numbers).
    One constant-key pass through the hot-key-proof running-count
    machinery: range-partitioned sort + per-block prefix + O(blocks)
    fixed-size carries; no block funnels through one worker even
    though every row shares the partition key."""
    from json_schema_ray.engine.rank import global_row_numbers

    ds = _read(sf_dir, "events", columns=["event_id", "ts"])
    out = global_row_numbers(ds, "ts", "event_id", out="seq")

    def finish(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "seq"])

    schema = pa.schema([("event_id", pa.int64()), ("seq", pa.int64())])
    return _collect(out.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_orders_pareto_frontier(sf_dir: str):
    """2-D skyline over orders: maximize (o_totalprice,
    o_orderdate) — "no later order was also more expensive"
    (engine/relational.py pareto_frontier). Block-local frontiers
    (one lexsort + run scan each) union to a driver-resolved global
    frontier; dominance transitivity makes the union a superset, so
    the result is EXACT. Price compares on the raw float column —
    dominance is comparison-only, no arithmetic, so float parity
    with the SQL NOT EXISTS twin is exact."""
    from json_schema_ray.engine.relational import pareto_frontier

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_totalprice", "o_orderdate"])
    out = pareto_frontier(ds, "o_totalprice", "o_orderdate")
    return out.select(["o_orderkey", "o_totalprice", "o_orderdate"]) \
        .sort_by([("o_orderkey", "ascending")])


def q_returned_item_revenue(sf_dir: str):
    """TPC-H Q10-flavored returned-item report: top-20 customers by
    revenue on returned lineitems within a one-quarter order window.
    Composition by side size: lineitem filters l_returnflag = 'R'
    in-batch and fixed-points revenue PER ROW
    (price_e2 x (100 - disc_e2), exact int64 — house discipline),
    collapsing to per-(block, order) partials with a shuffle-free
    Arrow combiner; the two fact sides join via sort_merge_join
    (orders pruned to the date window at scan time — the window
    keeps ~4% of orders, so no broadcast of a fact side); customer
    name attaches through ONE dimension broadcast; top-20 rides the
    per-block partial top-k merge."""
    from json_schema_ray.engine.relational import (
        broadcast_hash_join, grouped_aggregate, sort_merge_join,
        top_k)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_returnflag"])

    def rev(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.equal(batch["l_returnflag"], "R"))
        e = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        p_e2 = np.floor(e * 100 + 0.5).astype(np.int64)
        d_e2 = np.floor(d * 100 + 0.5).astype(np.int64)
        r = p_e2 * (100 - d_e2)
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "rev_e4": pa.array(r)})
        g = pa.TableGroupBy(t, ["l_orderkey"]).aggregate(
            [("rev_e4", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "rev_e4": g["rev_e4_sum"]})

    rev_ds = li.map_batches(rev, batch_format="pyarrow",
                            zero_copy_batch=True)

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 4, 1)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def window(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(batch["o_orderdate"],
                                     pa.scalar(lo)),
                    pc.less(batch["o_orderdate"], pa.scalar(hi)))
        return batch.filter(m).select(["o_orderkey", "o_custkey"])

    ord_w = orders.map_batches(window, batch_format="pyarrow",
                               zero_copy_batch=True)
    joined = sort_merge_join(rev_ds, ord_w, "l_orderkey",
                             "o_orderkey", ["o_custkey"], how="inner")
    per_cust = grouped_aggregate(
        joined.map_batches(
            lambda b: b.select(["o_custkey", "rev_e4"]),
            batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"], [("rev_e4", "sum")])
    per_cust = per_cust.rename_columns(["o_custkey", "rev_e4"])
    import ray
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name"])
    named = broadcast_hash_join(
        ray.data.from_arrow(per_cust), cust, "o_custkey", "c_custkey")
    top = top_k(named, ["rev_e4", "o_custkey"], [True, False], 20)
    return pa.table({
        "c_custkey": top["o_custkey"],
        "c_name": top["c_name"],
        "revenue_e4": pc.cast(top["rev_e4"], pa.int64())})


def q_events_type_weekday_chi2(sf_dir: str):
    """Chi-square independence cells between event_type and weekday
    (engine/drift.py contingency_chi2): per observed cell, exact
    integer observed count plus expected count and chi-square
    contribution under independence, e6 fixed point. Every emitted
    float derives from exact integer margins with ONE double op
    chain per cell (exp = rt*ct/n; d = obs-exp; contrib = d*d/exp),
    mirrored verbatim in the SQL twin — no float sum ever crosses
    block boundaries, so hash parity is deterministic. Weekday is
    pure integer arithmetic ((epoch_day + 4) % 7, Sunday = 0): no
    calendar function on either side."""
    from json_schema_ray.engine.drift import contingency_chi2
    from json_schema_ray.engine.relational import _int64_us

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def derive(batch: pa.Table) -> pa.Table:
        tu = _int64_us(batch["ts"]).to_numpy(zero_copy_only=False)
        wd = (tu // 86_400_000_000 + 4) % 7
        return pa.table({
            "event_type": batch["event_type"],
            "weekday": pa.array(wd.astype(np.int64))})

    cells = contingency_chi2(
        ds.map_batches(derive, batch_format="pyarrow",
                       zero_copy_batch=True),
        "event_type", "weekday")
    return cells.sort_by([("event_type", "ascending"),
                          ("weekday", "ascending")])


def q_user_daily_dense_counts(sf_dir: str):
    """Calendar densification: per-user daily event counts with the
    missing days between a user's adjacent active days filled as
    zero rows (engine/window.py densify_gaps). One grouped count,
    then ONE null-safe sort whose blocks expand interior gaps
    vectorized; the only boundary-straddling pair resolves from 2
    fixed-size carry rows per block (O(blocks) driver state,
    hot-user-proof). Day is pure integer arithmetic
    (epoch_us // 86400e6) on both sides."""
    from ray.data.aggregate import Sum

    from json_schema_ray.engine.relational import (
        _int64_us, null_safe_grouped_aggregate, pre_aggregate)
    from json_schema_ray.engine.window import densify_gaps

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def derive(b: pa.Table) -> pa.Table:
        tu = _int64_us(b["ts"]).to_numpy(zero_copy_only=False)
        day = (tu // 86_400_000_000).astype(np.int64)
        return pa.table({"user_id": b["user_id"],
                         "day": pa.array(day)})

    pre = pre_aggregate(
        ds.map_batches(derive, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id", "day"], [(None, "count")])
    counts = null_safe_grouped_aggregate(
        pre, ["user_id", "day"],
        [Sum("rows_count", alias_name="cnt")], ["cnt"])

    def fix(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"], "day": b["day"],
                         "cnt": pc.cast(b["cnt"], pa.int64())})

    dense = densify_gaps(
        counts.map_batches(fix, batch_format="pyarrow",
                           zero_copy_batch=True),
        "user_id", "day", ["cnt"])
    schema = pa.schema([("user_id", pa.int64()), ("day", pa.int64()),
                        ("cnt", pa.int64())])
    return _collect(dense, schema).sort_by(
        [("user_id", "ascending"), ("day", "ascending")])


def q_events_nearest_error(sf_dir: str):
    """Nearest-event-in-time enrichment: every event gains the SIGNED
    microsecond delta to its user's nearest 'error' event (backward
    delta <= 0 wins ties; an error event is its own nearest at 0 —
    inclusive <= / >= on both sides). Composition of the engine's two
    sorted as-of realizations (engine/relational.py
    asof_join_backward_sorted / _forward_sorted): each is ONE
    tag+union range-partitioned sort with a vectorized carry scan and
    O(blocks) boundary stitch — no window-width timeline ever ships.
    SQL twin uses RANGE-frame running max/min so timestamp ties match
    the as-of joins' inclusive peer semantics."""
    from json_schema_ray.engine.rank import grouped_forward_fill
    from json_schema_ray.engine.relational import _int64_us

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts"])

    # self-enrichment realization: prev-error is LOCF of
    # (error ? ts : NULL) over (user, ts, id), next-error is the
    # SAME fill on the negated axis — two sorts total, no as-of
    # join machinery (the as-of composition ran 4x slower on pure
    # execution count). ROWS-vs-RANGE peer nuance is value-neutral
    # here: a same-ts error missed by one direction's positional
    # frame is always seen by the other at delta 0, and 0 wins both
    # tie rules.
    def prep(b: pa.Table) -> pa.Table:
        tu = _int64_us(b["ts"])
        err = pc.if_else(
            pc.fill_null(pc.equal(b["event_type"], "error"), False),
            tu, pa.scalar(None, pa.int64()))
        zero = pa.scalar(0, pa.int64())
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "tu": tu, "err": err,
            "neg": pc.subtract(zero, tu),
            "negid": pc.subtract(zero, b["event_id"])})

    base = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    f1 = grouped_forward_fill(base, "user_id", "tu", "err",
                              "event_id", out="__prev")
    both = grouped_forward_fill(f1, "user_id", "neg", "err",
                                "negid", out="__next")

    def finish(b: pa.Table) -> pa.Table:
        tu = b["tu"]
        d_prev = pc.subtract(b["__prev"], tu)   # <= 0
        d_next = pc.subtract(b["__next"], tu)   # >= 0
        # tie -> backward; one-sided when the other is NULL
        take_prev = pc.less_equal(pc.negate(d_prev), d_next)
        nearest = pc.if_else(
            pc.is_null(d_prev), d_next,
            pc.if_else(pc.is_null(d_next), d_prev,
                       pc.if_else(take_prev, d_prev, d_next)))
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "nearest_err_us": pc.cast(nearest, pa.int64())})

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("nearest_err_us", pa.int64())])
    return _collect(both.map_batches(finish, batch_format="pyarrow",
                                     zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_user_activity_gini(sf_dir: str):
    """Gini coefficient of per-user event counts — the standard
    inequality number for key-skew dashboards (0 = uniform load,
    -> 1 = one user owns the corpus). Exact integer pipeline: ONE
    grouped count, ONE global enumerate over (count, user) (the
    hot-key-proof constant-key sort machinery), per-block int64
    partial sums of (x, i*x), and a driver-side exact rational
    finish ((2*S1 - (n+1)*S0) * 1e6 // (n*S0), Python ints ==
    DuckDB HUGEINT //; numerator >= 0 so trunc == floor). Tie order
    among equal counts cannot change S1 (equal x swap-invariant).
    Envelope: per-block sum(i*x) must fit int64 — at 1e8 users the
    partial accumulates in float-free int64 chunks of rank x count
    < 2^63/block_rows, which holds through ~1e12 total events."""
    from json_schema_ray.engine.rank import global_row_numbers
    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate, pre_aggregate)
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id"])

    def nn(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["user_id"]))

    pre = pre_aggregate(
        ds.map_batches(nn, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], [(None, "count")])
    counts = null_safe_grouped_aggregate(
        pre, ["user_id"], [Sum("rows_count", alias_name="x")], ["x"])
    ranked = global_row_numbers(
        counts.map_batches(
            lambda b: pa.table({"user_id": b["user_id"],
                                "x": pc.cast(b["x"], pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True),
        "x", "user_id", out="i")

    def partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy(zero_copy_only=False)
        i = b["i"].to_numpy(zero_copy_only=False)
        return pa.table({
            "s0": pa.array([int(x.sum())], pa.int64()),
            "s1": pa.array([int((i * x).sum())], pa.int64()),
            "n": pa.array([len(x)], pa.int64())})

    s0 = s1 = n = 0
    for r in ranked.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True).take_all():
        s0 += r["s0"]
        s1 += r["s1"]
        n += r["n"]
    gini_e6 = ((2 * s1 - (n + 1) * s0) * 1_000_000) // (n * s0) \
        if n and s0 else 0
    return pa.table({"gini_e6": pa.array([gini_e6], pa.int64()),
                     "n_users": pa.array([n], pa.int64())})


def q_corpus_zipf_slope(sf_dir: str):
    """Zipf fit of the corpus term-frequency curve: OLS slope of
    ln(count) on ln(rank) over the top-1000 terms (healthy natural
    text sits near -1; template/boilerplate corpora flatten). Rides
    vocabulary()'s single vocabulary-sized shuffle + partial top-k;
    the driver finish is exact — per-term ln via math.log (bitwise ==
    DuckDB ln, see oracle-float-parity), e6 fixed point per element,
    then pure-integer OLS with the sign-split trunc divide (DuckDB
    // truncates toward zero and the slope is negative)."""
    import math

    from json_schema_ray.engine.text import vocabulary

    ds = _read(sf_dir, "documents", columns=["text"])
    v = vocabulary(ds, top_k=1000)
    cnt = v["tf"].to_pylist()
    n = len(cnt)
    if n < 2:
        return pa.table({"slope_e6": pa.array([0], pa.int64()),
                         "n_terms": pa.array([n], pa.int64())})
    xs = [math.floor(math.log(float(i)) * 1e6 + 0.5)
          for i in range(1, n + 1)]
    ys = [math.floor(math.log(float(c)) * 1e6 + 0.5) for c in cnt]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    slope_e6 = (abs(num) * 1_000_000 // den) * (1 if num >= 0 else -1)
    return pa.table({"slope_e6": pa.array([slope_e6], pa.int64()),
                     "n_terms": pa.array([n], pa.int64())})


def q_transcript_tool_usage(sf_dir: str):
    """Per-conversation tool-usage profile over the transcript
    corpus: turn count, tool-role turn count, DISTINCT tools used,
    and the conversation's time span — the agent-trace diagnostics a
    tool-use training pipeline gates on. ONE-sort shape (round-5
    execution fold; was a two-sort union): every turn row carries
    its counters plus the tool hash (NULL tool -> INT64_MIN
    sentinel), and grouped_multi_agg_sorted's ``distinct_sub``
    folds the exact COUNT(DISTINCT tool) into the SAME (conv,
    toolh) sort the measures ride — per-block (conv, toolh)
    combiners, reduceat interiors, O(blocks) edge carries with
    first/last-sub stitch. Both exchange and sort key on the int64
    conv number; the conv_id string never shuffles; no per-group
    Python at conversation cardinality. Oracle reads the SAME
    cached corpus by parquet path (transcript_role_protocol
    pattern)."""
    import ray

    from json_schema_ray.engine.relational import (
        _int64_us, grouped_multi_agg_sorted)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.state.sketches import hash_string_array

    ds = _read_transcripts(
        sf_dir, columns=["conv_id", "role", "tool", "ts"])

    SENT = -(1 << 63)

    def prep(b: pa.Table) -> pa.Table:
        tool = b["tool"].combine_chunks()
        th = hash_string_array(tool).view(np.int64).copy()
        th[pc.is_null(tool).to_numpy(zero_copy_only=False)] = SENT
        return pa.table({
            "cid": _conv_num_key(b["conv_id"]),
            "toolh": pa.array(th),
            "__n": pa.array(np.ones(b.num_rows, np.int64)),
            "__tt": pc.cast(pc.fill_null(
                pc.equal(b["role"], "tool"), False), pa.int64()),
            "__ts": _int64_us(b["ts"])})

    agg = grouped_multi_agg_sorted(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cid",
        [("__n", "sum", "n_turns"),
         ("__tt", "sum", "n_tool_turns"),
         ("__ts", "min", "__t0"),
         ("__ts", "max", "__t1")],
        distinct_sub="toolh", distinct_ignore=SENT,
        out_distinct="n_tools")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": _conv_id_from_key(b["cid"]),
            "n_turns": pc.cast(b["n_turns"], pa.int64()),
            "n_tool_turns": pc.cast(b["n_tool_turns"], pa.int64()),
            "n_tools": pc.cast(b["n_tools"], pa.int64()),
            "span_us": pc.cast(pc.subtract(b["__t1"], b["__t0"]),
                               pa.int64())})

    schema = pa.schema([("conv_id", pa.string()),
                        ("n_turns", pa.int64()),
                        ("n_tool_turns", pa.int64()),
                        ("n_tools", pa.int64()),
                        ("span_us", pa.int64())])
    return _collect(agg.map_batches(finish, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("conv_id", "ascending")])


TOOL_ARGS_SEED = 20260820

# one JSON-schema contract per tool FAMILY — the schema-registry
# dispatch shape of agent pipelines (every tool's arguments have
# their own contract; a validator must route each turn to the right
# compiled plan, not re-compile per row)
TOOL_ARGS_REGISTRY = {
    "search": {"type": ["object"], "properties": {"args": {
        "type": ["object"], "required": ["query", "limit"],
        "properties": {
            "query": {"type": ["string"], "minLength": 1},
            "limit": {"type": ["integer"], "minimum": 1,
                      "maximum": 100}}}}},
    "file": {"type": ["object"], "properties": {"args": {
        "type": ["object"], "required": ["path", "bytes"],
        "properties": {
            "path": {"type": ["string"], "pattern": "^/"},
            "bytes": {"type": ["integer"], "minimum": 0}}}}},
    "exec": {"type": ["object"], "properties": {"args": {
        "type": ["object"], "required": ["cmd", "timeout"],
        "properties": {
            "cmd": {"type": ["string"], "minLength": 1},
            "timeout": {"type": ["integer"], "multipleOf": 5}}}}},
    "net": {"type": ["object"], "properties": {"args": {
        "type": ["object"], "required": ["url", "retries"],
        "properties": {
            "url": {"type": ["string"], "pattern": "^https://"},
            "retries": {"type": ["integer"], "maximum": 5}}}}},
}


def q_transcript_tool_args(sf_dir: str):
    """Per-tool-FAMILY JSON-schema validation of tool-call arguments
    over the transcript corpus — the schema-REGISTRY dispatch stage
    (engine/validate.py RegistryValidator): four argument contracts
    (search/file/exec/net), each tool turn routed to its family's
    pre-compiled plan inside an actor pool (plans compile once per
    actor, never per batch), violations surfaced with the family
    tag. Arguments are synthesized DETERMINISTICALLY from the corpus
    keys (splitmix64 over conv_num*1024+turn_idx, the
    docs_span_corruption pattern), so the DuckDB oracle re-derives
    the exact violation set from the same parquet files with
    relational.splitmix64_sql — every emitted (row, path,
    error_type) is hash-checked, including rows that violate two
    checks at once. Reference message semantics per keyword:
    min_length/max/min/pattern/multiple_of/required (reference
    lib/json_schema/validator.rb; messages pinned elsewhere by the
    ported fixtures — this query checks the dispatch routing).

    Scale shape: stateless synth scan -> actor-pool registry
    validation; no shuffle at all (the final sort is the small
    violations table); corpus text column never read."""
    import ray

    from json_schema_ray.engine.validate import validate_by_registry
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.state.sketches import hash_ints

    ds = _read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "tool"])

    fam_names = np.array(["search", "file", "exec", "net"],
                         dtype=object)
    synth_schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("family", pa.string()), ("args", pa.string())])

    def synth(batch: pa.Table) -> pa.Table:
        tool_nn = pc.fill_null(batch["tool"], "")
        keep = pc.and_(
            pc.and_(
                pc.equal(pc.fill_null(batch["role"], ""), "tool"),
                pc.match_substring_regex(tool_nn,
                                         r"^tool-(1?[0-9])$")),
            pc.and_(
                pc.match_substring_regex(
                    pc.fill_null(batch["conv_id"], ""),
                    r"^conv-[0-9]{8}$"),
                pc.and_(
                    pc.greater_equal(pc.fill_null(batch["turn_idx"],
                                                  -1), 0),
                    pc.less_equal(pc.fill_null(batch["turn_idx"], -1),
                                  1023))))
        b = batch.filter(keep)
        if b.num_rows == 0:
            return synth_schema.empty_table()
        conv = b["conv_id"].combine_chunks()
        tool = b["tool"].combine_chunks()
        conv_num = pc.cast(pc.utf8_slice_codeunits(conv, 5, 13),
                           pa.int64()).to_numpy(zero_copy_only=False)
        turn = pc.cast(b["turn_idx"].combine_chunks(), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = hash_ints(conv_num * 1024 + turn + TOOL_ARGS_SEED)
        tool_num = pc.cast(pc.utf8_slice_codeunits(tool, 5, 10),
                           pa.int64()).to_numpy(zero_copy_only=False)
        fam_code = tool_num // 5
        fam = pa.array(fam_names[fam_code], pa.string())

        def istr(a: np.ndarray) -> pa.Array:
            return pc.cast(pa.array(a.astype(np.int64)), pa.string())

        # search: {"query": "" | "find <conv>", "limit": 1+(h>>8)%110}
        # with "limit" OMITTED when h%101 < 4 (required_failed)
        query = pc.if_else(
            pa.array(h % np.uint64(97) < np.uint64(5)), pa.scalar(""),
            pc.binary_join_element_wise("find ", conv, ""))
        limit = istr((np.uint64(1) + ((h >> np.uint64(8))
                                      % np.uint64(110))).astype(np.int64))
        base = pc.binary_join_element_wise('{"query":"', query, '"', "")
        args_search = pc.if_else(
            pa.array(h % np.uint64(101) < np.uint64(4)),
            pc.binary_join_element_wise(base, "}", ""),
            pc.binary_join_element_wise(base, ',"limit":', limit,
                                        "}", ""))
        # file: path misses the leading / when h%89 < 4; bytes goes
        # negative when h%83 < 3
        path_v = pc.if_else(
            pa.array(h % np.uint64(89) < np.uint64(4)),
            pc.binary_join_element_wise("data/", conv, ""),
            pc.binary_join_element_wise("/data/", conv, ""))
        bytes_v = istr(((h >> np.uint64(16)) % np.uint64(1000000))
                       .astype(np.int64)
                       - np.where(h % np.uint64(83) < np.uint64(3),
                                  1000000, 0))
        args_file = pc.binary_join_element_wise(
            '{"path":"', path_v, '","bytes":', bytes_v, "}", "")
        # exec: empty cmd when h%79 < 4; timeout off the 5-grid when
        # h%73 < 6
        cmd = pc.if_else(
            pa.array(h % np.uint64(79) < np.uint64(4)), pa.scalar(""),
            pc.binary_join_element_wise("run ", tool, ""))
        timeout = istr((np.uint64(5) * ((h >> np.uint64(8))
                                        % np.uint64(12))
                        + np.where(h % np.uint64(73) < np.uint64(6),
                                   np.uint64(1), np.uint64(0)))
                       .astype(np.int64))
        args_exec = pc.binary_join_element_wise(
            '{"cmd":"', cmd, '","timeout":', timeout, "}", "")
        # net: http:// (pattern fail) when h%71 < 5; retries 0..7
        # (maximum 5)
        url = pc.binary_join_element_wise(
            pc.if_else(pa.array(h % np.uint64(71) < np.uint64(5)),
                       pa.scalar("http://"), pa.scalar("https://")),
            "api.example.com/", conv, "")
        retries = istr(((h >> np.uint64(8)) % np.uint64(8))
                       .astype(np.int64))
        args_net = pc.binary_join_element_wise(
            '{"url":"', url, '","retries":', retries, "}", "")

        f0 = pa.array(fam_code == 0)
        f1 = pa.array(fam_code == 1)
        f2 = pa.array(fam_code == 2)
        args = pc.if_else(f0, args_search,
                          pc.if_else(f1, args_file,
                                     pc.if_else(f2, args_exec,
                                                args_net)))
        return pa.table({"conv_id": conv, "turn_idx": b["turn_idx"],
                         "family": fam, "args": args})

    v = validate_by_registry(
        ds.map_batches(synth, batch_format="pyarrow",
                       zero_copy_batch=True),
        TOOL_ARGS_REGISTRY, synth_schema, dispatch="family",
        key_columns=["conv_id", "turn_idx"], json_columns={"args"})
    out_schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("path", pa.string()), ("schema_pointer", pa.string()),
        ("error_type", pa.string()), ("message", pa.string()),
        ("data_json", pa.string()), ("family", pa.string())])
    out = _collect(v, out_schema)
    return out.select(["conv_id", "turn_idx", "family", "path",
                       "error_type"]) \
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"),
                  ("path", "ascending")])


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-flavored shipping priority: top-10 unshipped orders
    by open revenue for one customer segment. Composition by side
    size: customer segment membership broadcasts once (dimension);
    orders prune to the date window in-scan; lineitem filters
    l_shipdate in-batch and fixed-points revenue per row before a
    per-(block, order) combiner; the two fact sides meet in ONE
    sort_merge_join; the order-grained regroup is a sorted-scan
    multi-aggregate (order cardinality is too high for Ray's
    per-group-Python Aggregate), the top-10 rides the partial top-k
    merge with full deterministic tiebreak, and the 10 winners'
    priority strings resolve in one broadcast-filtered orders scan
    (strings never shuffle)."""
    from json_schema_ray.engine.relational import (
        broadcast_hash_join, grouped_multi_agg_sorted,
        sort_merge_join, top_k)

    cutoff = datetime.datetime(1996, 3, 15)
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])

    def rev(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch["l_shipdate"], pa.scalar(cutoff)))
        e = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        r = (np.floor(e * 100 + 0.5).astype(np.int64)
             * (100 - np.floor(d * 100 + 0.5).astype(np.int64)))
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "rev_e4": pa.array(r)})
        g = pa.TableGroupBy(t, ["l_orderkey"]).aggregate(
            [("rev_e4", "sum")])
        return g.rename_columns(["l_orderkey", "rev_e4"])

    rev_ds = li.map_batches(rev, batch_format="pyarrow",
                            zero_copy_batch=True)
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    bld = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING")) \
        .select(["c_custkey"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def window(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b["o_orderdate"], pa.scalar(cutoff)))

    ord_w = broadcast_hash_join(
        orders.map_batches(window, batch_format="pyarrow",
                           zero_copy_batch=True),
        bld.append_column("__bld", pa.array(
            np.ones(bld.num_rows, np.int8))),
        "o_custkey", "c_custkey")

    def keep_bld(b: pa.Table) -> pa.Table:
        from json_schema_ray.engine.relational import _int64_us
        t = b.filter(pc.is_valid(b["__bld"]))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "__od": _int64_us(t["o_orderdate"])})

    ord_b = ord_w.map_batches(keep_bld, batch_format="pyarrow",
                              zero_copy_batch=True)
    joined = sort_merge_join(
        rev_ds, ord_b, "l_orderkey", "o_orderkey",
        ["__od"], how="inner")
    # __od is functionally dependent on the order key, so max == the
    # value and it rides the same sorted scan as the revenue sum
    per_order = grouped_multi_agg_sorted(
        joined, "l_orderkey",
        [("rev_e4", "sum", "rev_e4"), ("__od", "max", "__od")])
    top = top_k(per_order,
                ["rev_e4", "__od", "l_orderkey"],
                [True, False, False], 10)
    # resolve the 10 winners' priority strings: one broadcast-
    # filtered scan of orders; priority never shuffles
    keyset = pa.array(top["l_orderkey"].to_pylist(), pa.int64())
    pri_scan = _read(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderpriority"])

    def pick(b: pa.Table) -> pa.Table:
        m = pc.is_in(pc.cast(b["o_orderkey"], pa.int64()),
                     value_set=keyset)
        return b.filter(pc.fill_null(m, False))

    pri = _collect(pri_scan.map_batches(pick, batch_format="pyarrow",
                                        zero_copy_batch=True),
                   pa.schema([("o_orderkey", pa.int64()),
                              ("o_orderpriority", pa.string())]))
    pri_map = dict(zip(pri["o_orderkey"].to_pylist(),
                       pri["o_orderpriority"].to_pylist()))
    return pa.table({
        "l_orderkey": top["l_orderkey"],
        "revenue_e4": pc.cast(top["rev_e4"], pa.int64()),
        "o_orderdate": pc.cast(top["__od"], pa.timestamp("us")),
        "o_orderpriority": pa.array(
            [pri_map[k] for k in top["l_orderkey"].to_pylist()],
            pa.string())})


def q_lang_mixture_allocation(sf_dir: str):
    """Training-mix budget allocation: split a 1,000-doc sampling
    budget across languages proportionally to corpus counts with the
    LARGEST-REMAINDER method (each language gets floor(B*cnt/total),
    the leftover units go to the largest division remainders, ties
    by language asc) — the standard exact-integer apportionment a
    mixture-sampling pipeline feeds into mixture_thresholds. One
    language-sized grouped count; the apportionment itself is pure
    Python-int driver math (== DuckDB HUGEINT arithmetic; all
    operands non-negative so // and % agree)."""
    from json_schema_ray.engine.relational import grouped_aggregate

    budget = 1000
    ds = _read(sf_dir, "documents", columns=["lang"])
    t = grouped_aggregate(ds, ["lang"], [(None, "count")],
                          driver_merge=True)
    langs = t["lang"].to_pylist()
    cnts = [int(v) for v in t["rows_count"].to_pylist()]
    total = sum(cnts)
    base = [budget * c // total for c in cnts]
    rem = [budget * c % total for c in cnts]
    extra = budget - sum(base)
    order = sorted(range(len(langs)),
                   key=lambda i: (-rem[i], langs[i] is None,
                                  langs[i] or ""))
    alloc = list(base)
    for i in order[:extra]:
        alloc[i] += 1
    idx = sorted(range(len(langs)),
                 key=lambda i: (langs[i] is None, langs[i] or ""))
    return pa.table({
        "lang": pa.array([langs[i] for i in idx], pa.string()),
        "cnt": pa.array([cnts[i] for i in idx], pa.int64()),
        "alloc": pa.array([alloc[i] for i in idx], pa.int64())})


def q_customer_name_near_dups(sf_dir: str):
    """Record linkage over customer names: pairs within one edit of
    each other, found by blocking on (length, 16-char prefix) and a
    vectorized suffix-hamming verify (engine/dedup.py
    blocked_hamming_pairs). The SQL twin states the REAL predicate —
    ``levenshtein(a, b) <= 1`` inside equal-(length, prefix) blocks —
    and the operator docstring carries the equal-length
    hamming == levenshtein equivalence proof that lets the verify be
    a byte compare instead of a DP. Blocking+verify is the canonical
    record-linkage shape: candidates never leave their block, so the
    all-pairs square never materializes."""
    from json_schema_ray.engine.dedup import blocked_hamming_pairs

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out = blocked_hamming_pairs(ds, "c_custkey", "c_name",
                                prefix_len=16, max_hamming=1)
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    return _collect(out, schema).sort_by(
        [("id_a", "ascending"), ("id_b", "ascending")])


def q_events_value_interp(sf_dir: str):
    """Per-user LINEAR interpolation of missing event values — the
    imputation step one past LOCF (engine/rank.py
    grouped_linear_interpolate): each NULL value takes the
    straight-line estimate between its user's nearest non-null
    neighbors in (ts, event_id) order, e4 fixed point, all-integer
    lerp (millisecond deltas, sign-split truncating division) so the
    IGNORE-NULLS-window SQL twin is hash-exact. One sort and one
    carry scan find both neighbors. One-sided rows stay NULL."""
    from json_schema_ray.engine.rank import grouped_linear_interpolate

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    out = grouped_linear_interpolate(
        ds, "user_id", "ts", "value", "event_id",
        scale=10_000, out="v_interp_e4")

    def fin(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "user_id", "v_interp_e4"])

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("v_interp_e4", pa.int64())])
    return _collect(out.map_batches(fin, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_events_systematic_sample(sf_dir: str):
    """Systematic (every k-th) sampling under a total order — the
    deterministic complement to hash sampling: global enumerate by
    (ts, event_id) via the constant-key carry machinery, keep rows
    with seq % 50 == 1. Unlike a random sample this is
    position-stratified: exactly one row per 50-row stripe of the
    timeline."""
    from json_schema_ray.engine.rank import global_row_numbers

    ds = _read(sf_dir, "events", columns=["event_id", "ts"])
    out = global_row_numbers(ds, "ts", "event_id", out="seq")

    def keep(b: pa.Table) -> pa.Table:
        seq = b["seq"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return b.filter(pa.array(seq % 50 == 1)) \
            .select(["event_id", "seq"])

    schema = pa.schema([("event_id", pa.int64()), ("seq", pa.int64())])
    return _collect(out.map_batches(keep, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    schema).sort_by([("seq", "ascending")])


def q_events_session_assignment(sf_dir: str):
    """Event -> session lineage: every event gains its session's
    START time (30-minute inactivity gap), the per-row tag that lets
    any downstream aggregate group by session WITHOUT a join:
    sessionization = LAG (gap test) + LOCF of the session-opening
    timestamp — both proven one-sort + O(blocks)-carry primitives
    (engine/rank.py lag_column, grouped_forward_fill). The SQL twin
    is the same two windows (lag + IGNORE NULLS last_value) over
    identical (ts, event_id) positional frames."""
    from json_schema_ray.engine.rank import (grouped_forward_fill,
                                             lag_column)
    from json_schema_ray.engine.relational import _int64_us

    gap_us = 1_800_000_000

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "tu": _int64_us(b["ts"])})

    lagged = lag_column(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "tu", value="tu", tiebreak="event_id",
        out="__prev")

    def mark(b: pa.Table) -> pa.Table:
        new = pc.or_kleene(
            pc.is_null(b["__prev"]),
            pc.greater(pc.subtract(b["tu"], b["__prev"]),
                       pa.scalar(gap_us, pa.int64())))
        start = pc.if_else(pc.fill_null(new, True), b["tu"],
                           pa.scalar(None, pa.int64()))
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "tu": b["tu"], "__start": start})

    marked = lagged.map_batches(mark, batch_format="pyarrow",
                                zero_copy_batch=True)
    filled = grouped_forward_fill(marked, "user_id", "tu",
                                  "__start", "event_id",
                                  out="session_start_us")

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "session_start_us": pc.cast(b["session_start_us"],
                                        pa.int64())})

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("session_start_us", pa.int64())])
    return _collect(filled.map_batches(fin, batch_format="pyarrow",
                                       zero_copy_batch=True),
                    schema).sort_by([("event_id", "ascending")])


def q_lineitem_weighted_median_price(sf_dir: str):
    """Quantity-weighted EXACT median price per return flag
    (engine/rank.py grouped_weighted_median): the smallest price
    whose running quantity reaches half the flag's total — one sort
    through the running-sum carry machinery, a group-sized totals
    broadcast, a stateless threshold filter and one grouped MIN.
    Price rides as e2 fixed point; quantities are exact ints."""
    from json_schema_ray.engine.rank import grouped_weighted_median

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice",
                        "l_quantity", "l_orderkey", "l_linenumber"])

    def prep(b: pa.Table) -> pa.Table:
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = pc.cast(b["l_linenumber"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "v": pa.array(np.floor(e * 100 + 0.5).astype(np.int64)),
            "w": pa.array(np.floor(q + 0.5).astype(np.int64)),
            "tb": pa.array(ok * 10 + ln)})

    out = grouped_weighted_median(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_returnflag", "v", "w", "tb", out="wmedian_e2")
    schema = pa.schema([("l_returnflag", pa.string()),
                        ("wmedian_e2", pa.int64())])
    return _collect(out, schema).sort_by(
        [("l_returnflag", "ascending")])


def q_lineitem_weighted_price_quartiles(sf_dir: str):
    """Quantity-weighted EXACT price quartiles (p25/p50/p75) per
    return flag, ALL THREE from ONE sort: grouped_weighted_quantiles
    runs the weighted-median machinery once and each fraction only
    adds a null-masked column into the final grouped MIN — the
    one-pass generalization a reporting layer wants instead of three
    median-shaped scans. Prices ride e2 fixed point, weights are
    exact integer quantities."""
    from json_schema_ray.engine.rank import grouped_weighted_quantiles

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice",
                        "l_quantity", "l_orderkey", "l_linenumber"])

    def prep(b: pa.Table) -> pa.Table:
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = pc.cast(b["l_linenumber"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "v": pa.array(np.floor(e * 100 + 0.5).astype(np.int64)),
            "w": pa.array(np.floor(q + 0.5).astype(np.int64)),
            "tb": pa.array(ok * 10 + ln)})

    out = grouped_weighted_quantiles(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_returnflag", "v", "w", "tb",
        [(1, 4), (1, 2), (3, 4)],
        ["wp25_e2", "wp50_e2", "wp75_e2"])
    schema = pa.schema([("l_returnflag", pa.string()),
                        ("wp25_e2", pa.int64()),
                        ("wp50_e2", pa.int64()),
                        ("wp75_e2", pa.int64())])
    return _collect(out, schema).sort_by(
        [("l_returnflag", "ascending")])


def q_docs_readability(sf_dir: str):
    """Per-document readability profile — word count, sentence-mark
    count, vowel-run count (the classic syllable proxy) and a
    Flesch-reading-ease score at e3 fixed point. Stateless
    vectorized scan: three Arrow RE2 count_substring_regex kernels
    per batch (DuckDB's regexp_extract_all is RE2 too, so counts
    match exactly) and ONE mirrored float expression for the score
    (div/mul/sub in the same IEEE order on both sides — verified
    bit-exact), floored to int before anything crosses the wire."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(b: pa.Table) -> pa.Table:
        live = b.filter(pc.is_valid(b["text"]))
        txt = live["text"]
        w = pc.count_substring_regex(txt, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        s = pc.count_substring_regex(txt, r"[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        v = pc.count_substring_regex(txt, r"[aeiouyAEIOUY]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        fre = (206.835 - 1.015 * (w / np.maximum(s, 1))
               - 84.6 * (v / np.maximum(w, 1)))
        return pa.table({
            "doc_id": live["doc_id"],
            "n_words": pa.array(w),
            "n_sentences": pa.array(s),
            "n_vowel_runs": pa.array(v),
            "fre_e3": pa.array(np.floor(fre * 1000 + 0.5)
                               .astype(np.int64))})

    out = ds.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_words", pa.int64()),
                        ("n_sentences", pa.int64()),
                        ("n_vowel_runs", pa.int64()),
                        ("fre_e3", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_docs_lang_imputed(sf_dir: str):
    """Categorical imputation by group mode — fill a masked ``lang``
    (every doc_id % 13 == 0 plays missing, the derived-corruption
    precedent) with the MODAL lang of the doc's source, ties to the
    smallest lang. (source, lang) counts are a driver-merged
    combiner aggregate (sources x langs is tiny by construction —
    alphabet-sized, not corpus-sized); the winner-per-source table
    broadcasts once and the fill is a stateless index_in + if_else
    scan. Sources whose every row is masked stay NULL."""
    import ray

    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "source"])

    def mask(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        missing = pa.array(ids % 13 == 0)
        return pa.table({
            "doc_id": b["doc_id"],
            "lang": pc.if_else(missing,
                               pa.scalar(None, pa.string()),
                               b["lang"]),
            "source": b["source"]})

    masked = ds.map_batches(mask, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    counts = grouped_aggregate(
        masked.map_batches(
            lambda b: b.filter(pc.and_(pc.is_valid(b["lang"]),
                                       pc.is_valid(b["source"])))
            .select(["source", "lang"]),
            batch_format="pyarrow", zero_copy_batch=True),
        ["source", "lang"], [(None, "count")], driver_merge=True)
    mode: dict = {}
    for r in counts.to_pylist():
        cur = mode.get(r["source"])
        cand = (-r["rows_count"], r["lang"])
        if cur is None or cand < cur:
            mode[r["source"]] = cand
    src = pa.array(list(mode.keys()), pa.string())
    win = pa.array([v[1] for v in mode.values()], pa.string())
    ref = ray.put((src, win))

    def fill(b: pa.Table) -> pa.Table:
        s, w = ray.get(ref)
        idx = pc.index_in(b["source"].combine_chunks(), value_set=s)
        imput = pc.take(w, idx)
        return pa.table({
            "doc_id": b["doc_id"],
            "lang_filled": pc.if_else(pc.is_valid(b["lang"]),
                                      b["lang"], imput)})

    out = masked.map_batches(fill, batch_format="pyarrow",
                             zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("lang_filled", pa.string())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_small_quantity_part_revenue(sf_dir: str):
    """TPC-H Q17-flavored correlated-aggregate gate: revenue from
    lineitems whose quantity is below 20% of their part's average
    quantity. The correlated avg never becomes a float: qty <
    0.2 * (sum/cnt) rewrites to the ALL-INTEGER 5*qty*cnt < sum
    (cnt > 0, quantities e2 fixed point), so both sides hash
    bit-exact. Composition: per-block part partials -> ONE part-sized
    aggregate broadcast once (ray.put + index_in — part cardinality
    is dimension-like; a fact-fact sort-merge join is the documented
    fallback if parts ever outgrow worker heap) -> stateless filter
    scan reduced to per-block (revenue, n) partials summed
    driver-side. Output is ONE row."""
    import ray

    from json_schema_ray.engine.relational import grouped_aggregate

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def fp(b: pa.Table) -> pa.Table:
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qty_e2": pa.array(np.floor(q * 100 + 0.5)
                               .astype(np.int64)),
            "price_e2": pa.array(np.floor(e * 100 + 0.5)
                                 .astype(np.int64))})

    fps = li.map_batches(fp, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    totals = grouped_aggregate(
        fps, ["l_partkey"], [("qty_e2", "sum"), (None, "count")])
    tot_ref = ray.put(pa.table({
        "l_partkey": totals["l_partkey"],
        "sq": pc.cast(totals["qty_e2_sum"], pa.int64()),
        "c": pc.cast(totals["rows_count"], pa.int64())}))

    def gate(b: pa.Table) -> pa.Table:
        t = ray.get(tot_ref)
        idx = pc.index_in(b["l_partkey"].combine_chunks(),
                          value_set=t["l_partkey"].combine_chunks())
        sq = t["sq"].combine_chunks().take(idx) \
            .to_numpy(zero_copy_only=False)
        c = t["c"].combine_chunks().take(idx) \
            .to_numpy(zero_copy_only=False)
        qty = b["qty_e2"].to_numpy(zero_copy_only=False)
        price = b["price_e2"].to_numpy(zero_copy_only=False)
        ok = 5 * qty * c < sq
        return pa.table({
            "revenue_e2": pa.array([int(price[ok].sum())],
                                   pa.int64()),
            "n": pa.array([int(ok.sum())], pa.int64())})

    rev = n = 0
    for bt in fps.map_batches(gate, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for r in (pa.Table.from_batches([bt]) if isinstance(
                bt, pa.RecordBatch) else bt).to_pylist():
            rev += r["revenue_e2"]
            n += r["n"]
    return pa.table({"revenue_e2": pa.array([rev], pa.int64()),
                     "n": pa.array([n], pa.int64())})


def q_docs_bm25(sf_dir: str):
    """BM25 ranking of the corpus for a fixed query (k1=1.2,
    b=0.75) — the search-scoring sibling of tfidf_top_terms. Two
    passes: (1) a combiner scan reduces each block to ONE row of
    exact integer corpus stats (doc count, total words, per-term
    document frequencies) merged driver-side — O(blocks) rows ever
    leave a worker; (2) a stateless scoring scan with the idf
    constants baked in. Every float expression (idf = ln(1 +
    (N-df+0.5)/(df+0.5)), the tf normalization, the term sum) is
    mirrored operation-for-operation in the SQL twin, so the e6
    floor hashes bit-exact; math.log == DuckDB ln."""
    import math

    TERMS = ["scan", "merge", "vector"]
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(bt: pa.Table) -> pa.Table:
        live = bt.filter(pc.is_valid(bt["text"]))
        txt = live["text"]
        w = pc.count_substring_regex(txt, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        row = {"n": pa.array([live.num_rows], pa.int64()),
               "s": pa.array([int(w.sum())], pa.int64())}
        for i, term in enumerate(TERMS):
            tf = pc.count_substring_regex(txt, rf"\b{term}\b") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            row[f"df{i}"] = pa.array([int((tf > 0).sum())],
                                     pa.int64())
        return pa.table(row)

    n = s = 0
    df = [0] * len(TERMS)
    for bt in ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for r in (pa.Table.from_batches([bt]) if isinstance(
                bt, pa.RecordBatch) else bt).to_pylist():
            n += r["n"]
            s += r["s"]
            for i in range(len(TERMS)):
                df[i] += r[f"df{i}"]
    avgdl = s / n
    idf = [math.log(1 + (n - df[i] + 0.5) / (df[i] + 0.5))
           for i in range(len(TERMS))]

    def score(bt: pa.Table) -> pa.Table:
        live = bt.filter(pc.is_valid(bt["text"]))
        txt = live["text"]
        dl = pc.count_substring_regex(txt, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ratio = dl / avgdl
        total = np.zeros(len(dl), np.float64)
        any_hit = np.zeros(len(dl), bool)
        for i, term in enumerate(TERMS):
            tf = pc.count_substring_regex(txt, rf"\b{term}\b") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            any_hit |= tf > 0
            total = total + idf[i] * (
                (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * ratio)))
        out = pa.table({
            "doc_id": live["doc_id"],
            "score_e6": pa.array(np.floor(total * 1e6 + 0.5)
                                 .astype(np.int64))})
        return out.filter(pa.array(any_hit))

    out = ds.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("score_e6", pa.int64())])
    return _collect(out, schema).sort_by([("doc_id", "ascending")])


def q_orders_benford(sf_dir: str):
    """Benford leading-digit profile of o_totalprice — the classic
    synthetic-data / fraud screen a data-quality pass reports.
    Prices ride as e2 fixed point and the leading digit comes from
    an Arrow decimal-string slice (exact — no float log10 whose
    power-of-ten boundaries round differently per platform). Nine
    groups: per-block combiner partials merge in ONE driver-side
    Arrow groupby (grouped_aggregate driver_merge — groups x blocks
    is trivially driver-safe); shares are exact integer division at
    e6, so the wire carries only int64."""
    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])

    def digit(b: pa.Table) -> pa.Table:
        p = b["o_totalprice"].to_numpy(zero_copy_only=False)
        e2 = np.floor(p * 100 + 0.5).astype(np.int64)
        s = pc.cast(pa.array(e2), pa.string())
        return pa.table({
            "digit": pc.cast(pc.utf8_slice_codeunits(s, 0, 1),
                             pa.int64())})

    g = grouped_aggregate(
        ds.map_batches(digit, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["digit"], [(None, "count")], driver_merge=True)
    n = pc.cast(g["rows_count"], pa.int64())
    total = int(pc.sum(n).as_py())
    share = (n.to_numpy(zero_copy_only=False)
             * 1_000_000) // total
    out = pa.table({"digit": g["digit"], "n": n,
                    "share_e6": pa.array(share.astype(np.int64))})
    return out.sort_by([("digit", "ascending")])


def q_user_cum_distinct_types(sf_dir: str):
    """Expanding per-user distinct-event-type count: every event row
    gains the number of DISTINCT event types its user has produced
    up to and including that event (event_id order) — the analytic
    behind breadth-of-usage curves. No per-user set state anywhere:
    first-occurrence membership is the sort-based first_in_group
    (one (user, type, id) sort + adjacent scan + O(blocks) boundary
    lookups — the docs_ngram_novelty shape), and the expanding count
    is the running-sum carry machinery over the 0/1 flags (one
    (user, id) sort, O(blocks) driver state, hot users never ship
    their timelines)."""
    from json_schema_ray.engine.keys import first_in_group
    from json_schema_ray.engine.rank import cumulative_sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type"])
    flagged = first_in_group(ds, ["user_id", "event_type"],
                             "event_id", out="is_first")

    def to_int(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"],
            "user_id": b["user_id"],
            "nf": pc.cast(b["is_first"], pa.int64()),
            "tb": b["event_id"]})

    out = cumulative_sum(
        flagged.map_batches(to_int, batch_format="pyarrow",
                            zero_copy_batch=True),
        "user_id", "event_id", "nf", "tb")

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"],
            "user_id": b["user_id"],
            "cum_types": pc.cast(b["running_sum"], pa.int64())})

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("cum_types", pa.int64())])
    return _collect(out.map_batches(project, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_transcript_turn_integrity(sf_dir: str):
    """Turn-ordering referential integrity over the transcript corpus
    — the north-rule check itself, as a standalone oracled query:
    within each conversation ``turn_idx`` must be a dense 0..n-1
    sequence (late starts, gaps, duplicates violate) and ``ts`` must
    be non-decreasing in turn order. Rides engine/keys.py
    turn_ordering_violations: ONE range-partitioned sort on
    (conv, turn, ts), vectorized adjacent-diff checks for interior
    conversations, O(blocks) fixed-size edge partials stitched
    driver-side (hot conversations never ship their timelines). The
    oracle SQL reproduces the exact violation rows (types AND
    message strings) from the same cached corpus by parquet path."""
    import ray

    from json_schema_ray.engine.keys import turn_ordering_violations
    from json_schema_ray.pipelines.flagship import transcripts_path

    ds = _read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "ts"])
    out = turn_ordering_violations(ds)
    schema = pa.schema([("conv_id", pa.string()),
                        ("error_type", pa.string()),
                        ("message", pa.string())])
    return _collect(out, schema)


def q_big_quantity_orders(sf_dir: str):
    """TPC-H Q18-flavored large-volume order gate: orders whose TOTAL
    lineitem quantity reaches a threshold no per-block partial can
    decide alone (the combiner-vs-threshold loss class).
    grouped_agg_sorted pre-combines per block (a hot order ships <= 1
    partial row per block), range-sorts only the partials, finalizes
    interior key segments vectorized in-block, stitches the O(blocks)
    edge segments driver-side, and applies HAVING strictly after the
    merge. Quantity rides as e2 fixed point (exact int64 sums)."""
    from json_schema_ray.engine.relational import grouped_agg_sorted

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_quantity"])

    def fp(b: pa.Table) -> pa.Table:
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "qty_e2": pa.array(np.floor(q * 100 + 0.5)
                               .astype(np.int64))})

    out = grouped_agg_sorted(
        li.map_batches(fp, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_orderkey", "qty_e2", agg="sum", having_min=20000,
        out="sum_qty_e2")
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("sum_qty_e2", pa.int64())])
    return _collect(out, schema).sort_by(
        [("l_orderkey", "ascending")])


def _conv_num_key(col) -> pa.Array:
    """int64 shuffle key for a transcript conv_id column: the id's
    digits * 2 + an alt-spelling bit ('conversation-%d' vs
    'conv-%08d' — a number can appear under BOTH spellings, and the
    pair is verified unique). Null-safe: NULL ids map to -1 (one
    group, matching SQL's NULL group)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    num = pc.cast(pc.replace_substring_regex(
        pc.fill_null(col, "0"), pattern="[^0-9]", replacement=""),
        pa.int64())
    alt = pc.cast(pc.starts_with(pc.fill_null(col, ""),
                                 "conversation-"), pa.int64())
    cid = pc.add(pc.multiply(num, pa.scalar(2, pa.int64())), alt)
    return pc.if_else(pc.is_valid(col), cid,
                      pa.scalar(-1, pa.int64()))


def _conv_id_from_key(cid) -> pa.Array:
    """Inverse of :func:`_conv_num_key`: rebuild the conv_id string
    from the int64 key ('conv-%08d' for even keys,
    'conversation-%d' for odd) — vectorized, NULL for the -1
    null-key group."""
    if isinstance(cid, pa.ChunkedArray):
        cid = cid.combine_chunks()
    num = pc.cast(pc.divide(cid, pa.scalar(2, pa.int64())),
                  pa.int64())
    alt = pc.equal(pc.bit_wise_and(cid, pa.scalar(1, pa.int64())),
                   pa.scalar(1, pa.int64()))
    digits = pc.cast(num, pa.string())
    plain = pc.binary_join_element_wise(
        pa.scalar("conv-"), pc.utf8_lpad(digits, 8, padding="0"), "")
    spelled = pc.binary_join_element_wise(
        pa.scalar("conversation-"), digits, "")
    out = pc.if_else(alt, spelled, plain)
    return pc.if_else(pc.greater_equal(cid, pa.scalar(0, pa.int64())),
                      out, pa.scalar(None, pa.string()))


def q_transcript_boilerplate_turns(sf_dir: str):
    """Cross-conversation boilerplate-turn detection over the
    transcript corpus: turn texts appearing in >= 3 DISTINCT
    conversations, with how many conversations and turns carry them —
    the transcript-side analogue of docs_line_dedup (repeated-line
    boilerplate), feeding a dedup/scrub decision.

    Texts never shuffle: the counting pipeline ships only int64
    (text-hash, conv-number) pairs — hash = 64-bit text hash << 1 |
    is-null bit (NULL and '' stay distinct groups, like SQL) —
    through two combiner-fronted integer groupbys; the qualifying
    (hash -> counts) table is result-sized, broadcasts, and a second
    scan resolves hashes back to texts with per-block dedup, so the
    only text-bearing exchange is over the qualifying boilerplate
    rows themselves. Membership is by text hash (collision odds
    negligible, the drop_repeated_lines contract)."""
    import ray

    from json_schema_ray.engine.relational import (
        grouped_distinct_sum_sorted, safe_groupby_aggregate)
    from json_schema_ray.pipelines.flagship import transcripts_path
    from json_schema_ray.state.sketches import hash_string_array

    ds = _read_transcripts(sf_dir, columns=["conv_id", "text"]).materialize()

    def text_key(col) -> pa.Array:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h = hash_string_array(pc.fill_null(col, ""))
        isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
        h2 = (h.astype(np.uint64) << np.uint64(1)) \
            | isnull.astype(np.uint64)
        return pa.array(h2.view(np.int64))

    def pair_cols(b: pa.Table) -> pa.Table:
        return pa.table({"h": text_key(b["text"]),
                         "c": _conv_num_key(b["conv_id"])})

    # per-text (distinct convs, turn count) in ONE sort — Ray's
    # groupby().aggregate() pays per-GROUP Python and this corpus has
    # ~one group per row (599k), which cost 3 chained Aggregates and
    # 14s before; the sorted-scan helper does it in one exchange
    per_text = grouped_distinct_sum_sorted(
        ds.map_batches(pair_cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        key="h", sub="c", having_min_distinct=3,
        out_distinct="n_convs", out_sum="n_turns")

    qual = _collect(per_text,
        pa.schema([("h", pa.int64()), ("n_convs", pa.int64()),
                   ("n_turns", pa.int64())]))
    hs = qual["h"].to_numpy(zero_copy_only=False)
    order = np.argsort(hs, kind="stable")
    handle = ray.put((hs[order],
                      qual["n_convs"].to_numpy(
                          zero_copy_only=False)[order],
                      qual["n_turns"].to_numpy(
                          zero_copy_only=False)[order]))

    def resolve(b: pa.Table) -> pa.Table:
        hsrt, nc, nt = ray.get(handle)
        h = text_key(b["text"]).to_numpy(zero_copy_only=False)
        if len(hsrt) == 0:
            member = np.zeros(len(h), bool)
            pos = np.zeros(len(h), np.int64)
        else:
            pos = np.searchsorted(hsrt, h)
            pos[pos == len(hsrt)] = 0
            member = hsrt[pos] == h        # verified equality probe
        t = pa.table({
            "text": b["text"].combine_chunks(),
            "n_convs": pa.array(nc[pos] if len(hsrt) else pos),
            "n_turns": pa.array(nt[pos] if len(hsrt) else pos),
            "__h": pa.array(h)}).filter(pa.array(member))
        # per-block dedup; the cross-block distinct ships only
        # qualifying boilerplate rows
        return safe_groupby_aggregate(
            t, ["__h", "text", "n_convs", "n_turns"], []) \
            .select(["__h", "text", "n_convs", "n_turns"])

    # cross-block dedup happens driver-side: the collected rows are
    # <= blocks x qualifying texts and the RESULT is qualifying-sized
    # by definition (it's what the query returns) — a distributed
    # re-aggregate here would shuffle result-sized data for nothing
    got = _collect(
        ds.map_batches(resolve, batch_format="pyarrow",
                       zero_copy_batch=True),
        pa.schema([("__h", pa.int64()), ("text", pa.string()),
                   ("n_convs", pa.int64()), ("n_turns", pa.int64())]))
    if got.num_rows == 0:
        return pa.table({"text": pa.array([], pa.string()),
                         "n_convs": pa.array([], pa.int64()),
                         "n_turns": pa.array([], pa.int64())})
    hcol = got["__h"].to_numpy(zero_copy_only=False)
    _, first = np.unique(hcol, return_index=True)
    return got.take(pa.array(np.sort(first))) \
        .select(["text", "n_convs", "n_turns"])


def q_customer_order_distribution(sf_dir: str):
    """TPC-H Q13-flavored customer order-count distribution: how many
    customers placed exactly k orders, INCLUDING the zero bucket the
    left outer join exists for. Shape: one distributed groupby
    collapses the fact table to customer grain (per-block combiner
    first), a per-block histogram combiner reduces that grain to
    (c_count, n) partials, and the driver merges the tiny histogram.
    The zero bucket is total customers (dimension-sized count) minus
    the distinct custkeys seen — no join at all."""
    import ray
    from ray.data.aggregate import Sum

    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate, safe_groupby_aggregate)

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def ones(b: pa.Table) -> pa.Table:
        t = b.append_column("__n", pa.array(
            np.ones(b.num_rows, np.int64)))
        g = safe_groupby_aggregate(t, ["o_custkey"], [("__n", "sum")])
        return g.rename_columns(["o_custkey", "__n"])

    per_cust = null_safe_grouped_aggregate(
        orders.map_batches(ones, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_custkey"], [Sum("__n", alias_name="__n")], ["__n"])

    def hist(b: pa.Table) -> pa.Table:
        c = pc.cast(b["__n"], pa.int64())
        t = pa.table({"c_count": c, "__h": pa.array(
            np.ones(len(c), np.int64))})
        g = pa.TableGroupBy(t, ["c_count"]).aggregate([("__h", "sum")])
        return g.rename_columns(["c_count", "custdist"])

    partials = _collect(
        per_cust.map_batches(hist, batch_format="pyarrow",
                             zero_copy_batch=True),
        pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())]))
    merged = pa.TableGroupBy(partials, ["c_count"]).aggregate(
        [("custdist", "sum")]).rename_columns(["c_count", "custdist"])
    n_cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"]).num_rows
    n_zero = n_cust - int(pc.sum(merged["custdist"]).as_py() or 0)
    if n_zero > 0:
        merged = pa.concat_tables([merged, pa.table({
            "c_count": pa.array([0], pa.int64()),
            "custdist": pa.array([n_zero], pa.int64())})])
    return merged.sort_by([("c_count", "ascending")])


def q_promo_revenue_share(sf_dir: str):
    """TPC-H Q14-flavored promo revenue share: the percentage of
    discounted lineitem revenue from PROMO-type parts. The part
    dimension broadcasts ONCE as a (p_partkey -> is_promo) lookup
    (ray.put, read per actor batch via pc.index_in); the lineitem
    scan fixed-points revenue per row (e4 BIGINT) and each block
    ships exactly one (promo, total) partial row; the driver sum and
    the final share are Python-int exact (== DuckDB HUGEINT //)."""
    import ray

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"])
    promo_keys = part.filter(
        pc.equal(part["p_type"], "PROMO"))["p_partkey"].combine_chunks()
    handle = ray.put(promo_keys)

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        keys = ray.get(handle)
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = b["l_discount"].to_numpy(zero_copy_only=False)
        rev = (np.floor(e * 100 + 0.5).astype(np.int64)
               * (100 - np.floor(d * 100 + 0.5).astype(np.int64)))
        is_promo = pc.is_valid(pc.index_in(b["l_partkey"],
                                           value_set=keys))
        pm = is_promo.to_numpy(zero_copy_only=False).astype(bool)
        return pa.table({
            "promo_e4": pa.array([int(rev[pm].sum())], pa.int64()),
            "total_e4": pa.array([int(rev.sum())], pa.int64())})

    partials = _collect(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        pa.schema([("promo_e4", pa.int64()), ("total_e4", pa.int64())]))
    promo = int(pc.sum(partials["promo_e4"]).as_py() or 0)
    total = int(pc.sum(partials["total_e4"]).as_py() or 0)
    share_e6 = 100 * promo * 1_000_000 // total if total else 0
    return pa.table({
        "promo_e4": pa.array([promo], pa.int64()),
        "total_e4": pa.array([total], pa.int64()),
        "promo_share_e6": pa.array([share_e6], pa.int64())})


def q_global_sales_opportunity(sf_dir: str):
    """TPC-H Q22-flavored dormant high-balance customers: per nation,
    count and total balance of customers with above-average positive
    account balance and NO RECENT orders (none since 2001-01-01 —
    plain "no orders ever" is vacuous on this corpus, every customer
    has some). The average comparison is the integer cross-multiply
    acctbal_e2 * n_pos > sum_pos_e2 (no float division on either
    side); the "no recent orders" side filters orders to the window
    in-scan and broadcast-anti-joins (distinct recent custkeys are
    customer-dimension-bounded); the final nation-grain aggregate is
    a per-block combiner + one tiny driver merge."""
    from json_schema_ray.engine.relational import (
        anti_join, grouped_aggregate)

    cust_t = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_acctbal"])
    bal = cust_t["c_acctbal"].to_numpy(zero_copy_only=False)
    pos = bal[bal > 0.0]
    n_pos = int(pos.size)
    sum_pos_e2 = int(np.floor(pos * 100 + 0.5).astype(np.int64).sum())

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def rich(b: pa.Table) -> pa.Table:
        e2 = np.floor(
            b["c_acctbal"].to_numpy(zero_copy_only=False) * 100
            + 0.5).astype(np.int64)
        keep = e2 * n_pos > sum_pos_e2
        t = b.append_column("bal_e2", pa.array(e2))
        return t.filter(pa.array(keep))

    cutoff = datetime.datetime(2001, 1, 1)
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderdate"])

    def recent(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(
            b["o_orderdate"], pa.scalar(cutoff))).select(["o_custkey"])

    dormant = anti_join(
        cust.map_batches(rich, batch_format="pyarrow",
                         zero_copy_batch=True),
        orders.map_batches(recent, batch_format="pyarrow",
                           zero_copy_batch=True),
        "c_custkey", "o_custkey")
    t = grouped_aggregate(
        dormant, ["c_nationkey"],
        [(None, "count"), ("bal_e2", "sum")], driver_merge=True)
    if t is None:
        return pa.table({"nationkey": pa.array([], pa.int64()),
                         "numcust": pa.array([], pa.int64()),
                         "totacctbal_e2": pa.array([], pa.int64())})
    return pa.table({
        "nationkey": pc.cast(t["c_nationkey"], pa.int64()),
        "numcust": pc.cast(t["rows_count"], pa.int64()),
        "totacctbal_e2": pc.cast(t["bal_e2_sum"], pa.int64())})


def q_purchase_attribution(sf_dir: str):
    """First-touch attribution: every purchase event credits the
    FIRST event type of its (user, 30-min-gap) session — the
    composition a marketing/agent-behavior pipeline runs after
    sessionization. Same LAG + LOCF realization as
    events_session_assignment, except the forward-filled payload is
    the session-opening event TYPE (grouped_forward_fill fills
    strings as naturally as numerics); purchases then collapse
    through a per-block combiner into a 5-row attribution table.
    Values ride e4 fixed point, null values count as 0 on both
    sides."""
    from json_schema_ray.engine.rank import (grouped_forward_fill,
                                             lag_column)
    from json_schema_ray.engine.relational import (
        _int64_us, grouped_aggregate)

    gap_us = 1_800_000_000
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type",
                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        ve = np.floor(np.where(np.isnan(v), 0.0, v) * 1e4
                      + 0.5).astype(np.int64)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "tu": _int64_us(b["ts"]),
                         "event_type": b["event_type"],
                         "ve": pa.array(ve)})

    lagged = lag_column(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "tu", value="tu", tiebreak="event_id",
        out="__prev")

    def mark(b: pa.Table) -> pa.Table:
        new = pc.or_kleene(
            pc.is_null(b["__prev"]),
            pc.greater(pc.subtract(b["tu"], b["__prev"]),
                       pa.scalar(gap_us, pa.int64())))
        ft = pc.if_else(pc.fill_null(new, True), b["event_type"],
                        pa.scalar(None, pa.string()))
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"], "tu": b["tu"],
                         "event_type": b["event_type"],
                         "ve": b["ve"], "__ft": ft})

    filled = grouped_forward_fill(
        lagged.map_batches(mark, batch_format="pyarrow",
                           zero_copy_batch=True),
        "user_id", "tu", "__ft", "event_id", out="first_touch")

    def purchases(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "purchase"))
        return pa.table({"first_touch": t["first_touch"],
                         "ve": t["ve"]})

    t = grouped_aggregate(
        filled.map_batches(purchases, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["first_touch"], [(None, "count"), ("ve", "sum")],
        driver_merge=True)
    if t is None:
        return pa.table({"first_touch": pa.array([], pa.string()),
                         "n_purchases": pa.array([], pa.int64()),
                         "value_e4": pa.array([], pa.int64())})
    return pa.table({
        "first_touch": t["first_touch"],
        "n_purchases": pc.cast(t["rows_count"], pa.int64()),
        "value_e4": pc.cast(t["ve_sum"], pa.int64())})


def q_transcript_context_overflow(sf_dir: str):
    """Context-budget enforcement over transcripts: per conversation,
    the first turn_idx at which the running character total (turns
    taken in turn_idx order) exceeds a 2,000-char context budget —
    the truncation point a context-window packer needs, plus the
    conversation's turn_idx count. Ill-formed NULL-turn_idx rows are
    excluded on both sides (they're surfaced by
    transcript_turn_integrity, not here). Shape: per-block
    (conv, turn_idx) combiner -> one grouped sum (ties collapse so
    the running order is well-defined), one keyed cumulative_sum
    (O(blocks) carries), one conv-grain count+min aggregate. Every
    exchange keys on the int64 conv number (digits*2 + spelling bit,
    _conv_num_key) — the string id never shuffles and is
    reconstructed vectorized at the conv-grain finish."""
    import ray

    from json_schema_ray.engine.rank import cumulative_sum
    from json_schema_ray.engine.relational import (
        grouped_agg_sorted, grouped_aggregate)
    from json_schema_ray.pipelines.flagship import transcripts_path

    budget = 2000
    ds = _read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "text"])

    # the (conv, turn) grain has ~one group per row, where Ray's
    # groupby().aggregate() pays per-group Python (this stage alone
    # cost ~5s); pack the pair into ONE int64 key — turn_idx is
    # int32 and biased by 2^31 so negatives (injected min_failed
    # turns) stay order-correct — and ride the sorted-scan sum
    def combine(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b["turn_idx"]))
        cid = _conv_num_key(b["conv_id"]) \
            .to_numpy(zero_copy_only=False)
        if len(cid) and int(cid.max()) >= (1 << 31):
            raise ValueError("context_overflow ckey packing needs "
                             "conv number < 2^31; re-key the corpus")
        ti = pc.cast(b["turn_idx"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "ckey": pa.array((cid << np.int64(32))
                             | (ti + np.int64(1 << 31))),
            "__ch": pc.cast(pc.fill_null(
                pc.utf8_length(b["text"]), 0), pa.int64())})

    per_turn = grouped_agg_sorted(
        ds.map_batches(combine, batch_format="pyarrow",
                       zero_copy_batch=True),
        key="ckey", value="__ch", agg="sum", out="__ch")

    def to_int(b: pa.Table) -> pa.Table:
        ck = b["ckey"].combine_chunks().to_numpy(zero_copy_only=False)
        ti = (ck & np.int64(0xFFFFFFFF)) - np.int64(1 << 31)
        # (conv, turn_idx) is unique after the grouped sum; the
        # machinery still needs a DISTINCT tiebreak column name
        return pa.table({
            "cid": pa.array(ck >> np.int64(32)),
            "turn_idx": pa.array(ti),
            "__tb": pa.array(ti),
            "__ch": pc.cast(b["__ch"], pa.int64())})

    cum = cumulative_sum(
        per_turn.map_batches(to_int, batch_format="pyarrow",
                             zero_copy_batch=True),
        "cid", "turn_idx", "__ch", "__tb")

    def mark(b: pa.Table) -> pa.Table:
        over = pc.greater(b["running_sum"],
                          pa.scalar(float(budget)))
        return pa.table({
            "cid": b["cid"],
            "__over_turn": pc.if_else(over, b["turn_idx"],
                                      pa.scalar(None, pa.int64()))})

    t = grouped_aggregate(
        cum.map_batches(mark, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["cid"], [(None, "count"), ("__over_turn", "min")])
    if t is None:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "n_turn_idx": pa.array([], pa.int64()),
                         "first_overflow": pa.array([], pa.int64())})
    return pa.table({
        "conv_id": _conv_id_from_key(t["cid"]),
        "n_turn_idx": pc.cast(t["rows_count"], pa.int64()),
        "first_overflow": pc.cast(t["__over_turn_min"], pa.int64())})


def q_transcript_packing(sf_dir: str):
    """Conversation-atomic sequence packing: conversations (taken in
    conv-number order — the id's digits, unique across both id
    spellings in the corpus) pack
    contiguously into 8,192-char training sequences, each
    conversation reporting the sequences it spans and its offset in
    the first — docs_pack_contiguous lifted to the transcript corpus,
    where the atom is a whole conversation, never a split turn.
    Conv sizes come from one combiner-fronted grouped sum; packing
    is the one-sort + O(blocks)-carry pack_contiguous scan."""
    import ray
    from ray.data.aggregate import Sum

    from json_schema_ray.engine.relational import (
        null_safe_grouped_aggregate, safe_groupby_aggregate)
    from json_schema_ray.engine.window import pack_contiguous
    from json_schema_ray.pipelines.flagship import transcripts_path

    ds = _read_transcripts(sf_dir, columns=["conv_id", "text"])

    def combine(b: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": b["conv_id"],
            "__ch": pc.cast(pc.fill_null(
                pc.utf8_length(b["text"]), 0), pa.int64())})
        g = safe_groupby_aggregate(t, ["conv_id"], [("__ch", "sum")])
        return g.rename_columns(["conv_id", "__ch"])

    per_conv = null_safe_grouped_aggregate(
        ds.map_batches(combine, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["conv_id"], [Sum("__ch", alias_name="__ch")], ["__ch"])

    def order_key(b: pa.Table) -> pa.Table:
        # ids mix 'conv-%08d' and 'conversation-%d' spellings and a
        # conv number can appear under BOTH (id-format violations),
        # so the unique stream order is (digits, spelling) packed
        # into one int: digits*2 + alt-spelling bit
        num = pc.cast(pc.replace_substring_regex(
            b["conv_id"], pattern="[^0-9]", replacement=""),
            pa.int64())
        alt = pc.cast(pc.starts_with(b["conv_id"], "conversation-"),
                      pa.int64())
        return pa.table({
            "conv_id": b["conv_id"],
            "cid": pc.add(pc.multiply(num, pa.scalar(2, pa.int64())),
                          alt),
            "n_chars": pc.cast(b["__ch"], pa.int64())})

    out = pack_contiguous(
        per_conv.map_batches(order_key, batch_format="pyarrow",
                             zero_copy_batch=True),
        "cid", "n_chars", 8192)

    def fin(b: pa.Table) -> pa.Table:
        # pack_contiguous projects to its (order, size) contract;
        # the numeric conv id IS the key on both sides
        t = b.select(["cid", "n_chars", "pack_first",
                      "pack_last", "pack_offset"])
        return t.rename_columns(["conv_num", "n_chars", "pack_first",
                                 "pack_last", "pack_offset"])

    schema = pa.schema([("conv_num", pa.int64()),
                        ("n_chars", pa.int64()),
                        ("pack_first", pa.int64()),
                        ("pack_last", pa.int64()),
                        ("pack_offset", pa.int64())])
    return _collect(out.map_batches(fin, batch_format="pyarrow",
                                    zero_copy_batch=True), schema)


def q_events_partitioned_roundtrip(sf_dir: str):
    """Partitioned-parquet sink/source parity — the resumable-output
    contract as a first-class query: events write hive-partitioned
    by event_type (``write_parquet(partition_cols=...)``, one
    directory per key so a failed 100-TB run skips finished
    partitions), then ONLY the 'purchase' partition re-ingests (the
    read touches no other directory) and its daily rollup must
    hash-match the oracle filtered on the ORIGINAL parquet view —
    proving both the partitioned write and the partition-pruned
    read preserve values."""
    import shutil
    import tempfile

    import ray

    from json_schema_ray.engine.relational import grouped_aggregate

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    out_dir = tempfile.mkdtemp(prefix="jsr_part_")
    try:
        ds.write_parquet(out_dir, partition_cols=["event_type"])
        part = os.path.join(out_dir, "event_type=purchase")
        back = ray.data.read_parquet(part)

        def day(b: pa.Table) -> pa.Table:
            return pa.table({
                "day": pc.cast(pc.floor_temporal(
                    pc.cast(b["ts"], pa.timestamp("us")),
                    unit="day"), pa.timestamp("us")),
                "event_id": b["event_id"],
                "user_id": b["user_id"]})

        out = grouped_aggregate(
            back.map_batches(day, batch_format="pyarrow",
                             zero_copy_batch=True),
            ["day"], [(None, "count"), ("event_id", "sum"),
                      ("user_id", "max")], driver_merge=True)
        out = out.rename_columns(
            ["day", "n_events", "event_id_sum", "user_id_max"])
        return out.sort_by([("day", "ascending")])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_docs_lexical_diversity(sf_dir: str):
    """Per-doc type-token ratio (engine/text.py lexical_diversity):
    word count, distinct-word count and the exact-integer TTR — the
    lexical-diversity quality gate (template/spam text scores low).
    One scan, distinctness by one per-block lexsort over word
    hashes; NULL texts yield (0, 0, NULL)."""
    from json_schema_ray.engine.text import lexical_diversity

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    schema = pa.schema([("doc_id", pa.int64()),
                        ("n_words", pa.int64()),
                        ("n_distinct_words", pa.int64()),
                        ("ttr_e6", pa.int64())])
    return _collect(lexical_diversity(ds), schema)


def q_late_shipment_priority(sf_dir: str):
    """TPC-H Q4-flavored order-priority screen: orders (in one
    quarter) with at least one lineitem shipped more than 90 days
    after the order date, counted by priority. The EXISTS realizes
    join-free on the fact side: per-order MAX(l_shipdate) pre-combines
    per block and rides one grouped max; the order scan prunes to the
    window in-batch; ONE sort_merge_join meets the two order-grained
    sides and a tiny grouped count finishes."""
    from json_schema_ray.engine.relational import (
        _int64_us, grouped_agg_sorted, grouped_aggregate,
        sort_merge_join)

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 4, 1)
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_shipdate"])

    def shipcols(b: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "__ship": _int64_us(b["l_shipdate"])})

    # per-order MAX over ~1.5M order groups: the sorted-scan grouped
    # max (one exchange, reduceat interiors, O(blocks) edge stitch) —
    # Ray's groupby().aggregate() pays per-group Python at this
    # cardinality (was 8s; this path ~3s)
    per_order = grouped_agg_sorted(
        li.map_batches(shipcols, batch_format="pyarrow",
                       zero_copy_batch=True),
        key="l_orderkey", value="__ship", agg="max", out="__ship")

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate",
                            "o_orderpriority"])

    def window(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["o_orderdate"],
                                        pa.scalar(lo)),
                       pc.less(b["o_orderdate"], pa.scalar(hi)))
        t = b.filter(keep)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "__od": _int64_us(t["o_orderdate"]),
                         "o_orderpriority": t["o_orderpriority"]})

    joined = sort_merge_join(
        orders.map_batches(window, batch_format="pyarrow",
                           zero_copy_batch=True),
        per_order, "o_orderkey", "l_orderkey", ["__ship"],
        how="inner")

    day_us = 86_400_000_000

    def late(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.cast(b["__ship"], pa.int64()),
            pc.add(b["__od"], pa.scalar(90 * day_us, pa.int64())))
        return pa.table(
            {"o_orderpriority": b.filter(keep)["o_orderpriority"]})

    t = grouped_aggregate(
        joined.map_batches(late, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_orderpriority"], [(None, "count")], driver_merge=True)
    if t is None:
        return pa.table({"o_orderpriority": pa.array([], pa.string()),
                         "order_count": pa.array([], pa.int64())})
    return pa.table({
        "o_orderpriority": t["o_orderpriority"],
        "order_count": pc.cast(t["rows_count"], pa.int64())}) \
        .sort_by([("o_orderpriority", "ascending")])


def q_embedding_quantization(sf_dir: str):
    """int8-style scalar-quantization audit of the embedding corpus
    (engine/similarity.py embedding_quantization_stats): per-dim
    min/max calibration range, quantized-code sum and total absolute
    reconstruction error of a 254-level uniform quantizer — the
    compression/recall tradeoff statistic an ANN index build needs.
    Integer-exact end to end (e6 fixed point, round-half-up
    rationals), so the audit hash-matches the SQL twin."""
    from json_schema_ray.engine.similarity import \
        embedding_quantization_stats

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return embedding_quantization_stats(ds) \
        .sort_by([("dim", "ascending")])


def q_nation_market_share(sf_dir: str):
    """TPC-H Q8-flavored market share: NATION_3 suppliers' share of
    EUROPE customers' PROMO-part revenue, by order year. Composition
    by side size, the revenue_by_region discipline: the PROMO partkey
    set and the supplier -> is-target-nation flags broadcast ONCE
    (ray.put, probed per batch with pc.index_in — never a per-row
    dict); lineitem fixed-points revenue per row (rev100 BIGINT) and
    collapses to per-(block, order) partials carrying BOTH measures
    (target-nation revenue and total revenue) in one shuffle-free
    combiner; orders tag the customer region through one dimension
    broadcast and keep EUROPE; the two ORDER-keyed fact sides meet in
    ONE sort_merge_join; the year-grain rollup driver-merges (<= 7
    groups) and the share is Python-int exact (== DuckDB HUGEINT //).
    """
    import ray

    from json_schema_ray.engine.relational import (
        broadcast_hash_join, grouped_aggregate, sort_merge_join)

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"])
    promo = part.filter(
        pc.equal(part["p_type"], "PROMO"))["p_partkey"].combine_chunks()
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    target = pc.equal(supp["s_nationkey"], 3)
    handle = ray.put((promo, supp["s_suppkey"].combine_chunks(),
                      target.combine_chunks()))

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        promo_keys, skeys, sflags = ray.get(handle)
        b = b.filter(pc.is_valid(pc.index_in(b["l_partkey"],
                                             value_set=promo_keys)))
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = b["l_discount"].to_numpy(zero_copy_only=False)
        r = np.floor(e * (1 - d) * 100 + 0.5).astype(np.int64)
        idx = pc.index_in(b["l_suppkey"].combine_chunks(),
                          value_set=skeys)
        is_nat = pc.fill_null(sflags.take(idx), False) \
            .to_numpy(zero_copy_only=False).astype(bool)
        t = pa.table({"l_orderkey": b["l_orderkey"],
                      "nat100": pa.array(np.where(is_nat, r, 0)),
                      "rev100": pa.array(r)})
        g = pa.TableGroupBy(t, ["l_orderkey"]).aggregate(
            [("nat100", "sum"), ("rev100", "sum")])
        return g.rename_columns(["l_orderkey", "nat100", "rev100"])

    rev_ds = li.map_batches(rev, batch_format="pyarrow",
                            zero_copy_batch=True)

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                        columns=["r_regionkey", "r_name"])
    eur = cust.join(nat, keys=["c_nationkey"],
                    right_keys=["n_nationkey"], join_type="inner") \
        .join(reg, keys=["n_regionkey"], right_keys=["r_regionkey"],
              join_type="inner")
    eur = eur.filter(pc.equal(eur["r_name"], "EUROPE")) \
        .select(["c_custkey"])

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])
    # broadcast_hash_join is INNER by default: non-EUROPE orders drop
    # in the probe itself, no marker column or post-filter needed
    ord_t = broadcast_hash_join(orders, eur, "o_custkey", "c_custkey")

    def to_year(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_year": pc.year(b["o_orderdate"])})

    ord_eur = ord_t.map_batches(to_year, batch_format="pyarrow",
                                zero_copy_batch=True)
    joined = sort_merge_join(rev_ds, ord_eur, "l_orderkey",
                             "o_orderkey", ["o_year"])
    g = grouped_aggregate(joined, ["o_year"],
                          [("nat100", "sum"), ("rev100", "sum")],
                          driver_merge=True)
    if g is None:
        return pa.table({"o_year": pa.array([], pa.int64()),
                         "rev_nation_e2": pa.array([], pa.int64()),
                         "rev_total_e2": pa.array([], pa.int64()),
                         "mkt_share_x1m": pa.array([], pa.int64())})
    yrs = g["o_year"].to_pylist()
    nat_s = [int(v) for v in g["nat100_sum"].to_pylist()]
    tot_s = [int(v) for v in g["rev100_sum"].to_pylist()]
    share = [n * 1_000_000 // t if t else 0
             for n, t in zip(nat_s, tot_s)]
    return pa.table({
        "o_year": pa.array(yrs, pa.int64()),
        "rev_nation_e2": pa.array(nat_s, pa.int64()),
        "rev_total_e2": pa.array(tot_s, pa.int64()),
        "mkt_share_x1m": pa.array(share, pa.int64()),
    }).sort_by([("o_year", "ascending")])


def q_top_revenue_supplier(sf_dir: str):
    """TPC-H Q15-flavored top supplier: the supplier(s) with maximum
    discounted revenue over one shipdate quarter (1996-Q1), ties
    kept. Lineitem prunes to the window in-batch, fixed-points
    revenue per row, and collapses to per-(block, supplier) partials;
    the supplier-grain rollup driver-merges (supplier dimension is
    KB-sized by TPC-H's 1:10000 ratio); the max + tie filter + name
    join run on that dimension-sized result — no second pass over
    the fact table (the SQL subquery-max shape with one scan)."""
    from json_schema_ray.engine.relational import grouped_aggregate

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 4, 1)
    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])

    def rev(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(b["l_shipdate"], pa.scalar(lo)),
                    pc.less(b["l_shipdate"], pa.scalar(hi)))
        b = b.filter(m)
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = b["l_discount"].to_numpy(zero_copy_only=False)
        r = np.floor(e * (1 - d) * 100 + 0.5).astype(np.int64)
        t = pa.table({"l_suppkey": b["l_suppkey"],
                      "rev100": pa.array(r)})
        g = pa.TableGroupBy(t, ["l_suppkey"]).aggregate(
            [("rev100", "sum")])
        return g.rename_columns(["l_suppkey", "rev100"])

    g = grouped_aggregate(
        li.map_batches(rev, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["l_suppkey"], [("rev100", "sum")], driver_merge=True)
    if g is None or g.num_rows == 0:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "total_rev_e2": pa.array([], pa.int64())})
    best = pc.max(g["rev100_sum"])
    g = g.filter(pc.equal(g["rev100_sum"], best))
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"])
    out = g.join(supp, keys=["l_suppkey"], right_keys=["s_suppkey"],
                 join_type="inner")
    return pa.table({
        "s_suppkey": pc.cast(out["l_suppkey"], pa.int64()),
        "s_name": out["s_name"],
        "total_rev_e2": pc.cast(out["rev100_sum"], pa.int64()),
    }).sort_by([("s_suppkey", "ascending")])


def q_disjunctive_part_revenue(sf_dir: str):
    """TPC-H Q19-flavored disjunctive-predicate revenue: discounted
    revenue of lineitems matching any of three (brand, size-range,
    quantity-range) clauses. The part attributes (brand id, size)
    broadcast ONCE as aligned arrays keyed by partkey (ray.put,
    pc.index_in + take per batch); the whole three-clause OR
    evaluates as numpy boolean algebra over the batch — no row loop,
    no join shuffle; each block ships one (revenue, count) partial
    row and the driver sum is Python-int exact. Revenue uses the
    exact e4 integer product (e2 price x e2 discount complement), so
    the hash compare with DuckDB is float-free."""
    import ray

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    # brand -> small int id so the broadcast ships ints, not strings
    brands = ["Brand#19", "Brand#8", "Brand#2"]
    bid = pc.index_in(part["p_brand"],
                      value_set=pa.array(brands, pa.string()))
    handle = ray.put((part["p_partkey"].combine_chunks(),
                      bid.combine_chunks(),
                      part["p_size"].combine_chunks()))

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice",
                        "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        pkeys, pbid, psize = ray.get(handle)
        idx = pc.index_in(b["l_partkey"].combine_chunks(),
                          value_set=pkeys)
        bidv = pc.fill_null(pbid.take(idx), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        size = pc.fill_null(psize.take(idx), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # compare the RAW double (SQL BETWEEN semantics): fractional
        # quantities must not truncate into range, NULL -> NaN ->
        # every comparison False, matching SQL three-valued logic
        q = pc.fill_null(pc.cast(b["l_quantity"], pa.float64()),
                         np.nan).to_numpy(zero_copy_only=False)
        hit = (((bidv == 0) & (size >= 1) & (size <= 5)
                & (q >= 1) & (q <= 11))
               | ((bidv == 1) & (size >= 1) & (size <= 10)
                  & (q >= 10) & (q <= 20))
               | ((bidv == 2) & (size >= 1) & (size <= 15)
                  & (q >= 20) & (q <= 30)))
        e = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = b["l_discount"].to_numpy(zero_copy_only=False)
        rev = (np.floor(e * 100 + 0.5).astype(np.int64)
               * (100 - np.floor(d * 100 + 0.5).astype(np.int64)))
        return pa.table({
            "revenue_e4": pa.array([int(rev[hit].sum())], pa.int64()),
            "n_items": pa.array([int(hit.sum())], pa.int64())})

    partials = _collect(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        pa.schema([("revenue_e4", pa.int64()),
                   ("n_items", pa.int64())]))
    return pa.table({
        "revenue_e4": pa.array(
            [int(pc.sum(partials["revenue_e4"]).as_py() or 0)],
            pa.int64()),
        "n_items": pa.array(
            [int(pc.sum(partials["n_items"]).as_py() or 0)],
            pa.int64())})


def q_part_primary_supplier(sf_dir: str):
    """TPC-H Q20-flavored dominant-supplier screen: for every part
    shipped by >= 2 distinct suppliers, the supplier that shipped the
    largest total quantity (deterministic tiebreak: lowest suppkey),
    with its exact quantity share. EVERYTHING pair-grained stays
    distributed: the (part, supplier) rollup rides the engine's
    pre-agg -> shuffle -> re-agg pipeline with ``as_dataset=True``
    (pair cardinality is fact-derived — ~4x parts at TPC-H scale,
    never driver-sized), then ONE null-safe range-partitioned sort
    on l_partkey co-locates each part's pair rows and every block
    reduces its part segments to combinable partials — (sum qty,
    pair count, max qty, min suppkey among max-qty rows), all
    reduceat kernels. A part's rows are contiguous after the sort,
    so the driver merge state is O(parts + blocks) rows — the same
    result grain the query returns — and the final argmax/tie
    resolution (min suppkey among partials matching the global max)
    plus the x1m integer share run vectorized over that table. No
    pair-grained table ever materializes on the driver."""
    from json_schema_ray.engine.relational import (grouped_aggregate,
                                                   null_safe_sort)

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_quantity"])

    def q100(b: pa.Table) -> pa.Table:
        # projection only — grouped_aggregate's pre-agg stage does
        # the one per-block groupby
        q = np.floor(b["l_quantity"].to_numpy(zero_copy_only=False)
                     * 100 + 0.5).astype(np.int64)
        return pa.table({"l_partkey": b["l_partkey"],
                         "l_suppkey": b["l_suppkey"],
                         "qty100": pa.array(q)})

    pairs_ds = grouped_aggregate(
        li.map_batches(q100, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["l_partkey", "l_suppkey"], [("qty100", "sum")],
        as_dataset=True)

    def rn(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": pc.cast(b["l_partkey"], pa.int64()),
            "l_suppkey": pc.cast(b["l_suppkey"], pa.int64()),
            "qty100": pc.cast(b["qty100_sum"], pa.int64())})

    sorted_pairs = null_safe_sort(
        pairs_ds.map_batches(rn, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["l_partkey"], ["l_suppkey"])

    def part_partials(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return pa.table({
                "l_partkey": pa.array([], pa.int64()),
                "s100": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "bq": pa.array([], pa.int64()),
                "bs": pa.array([], pa.int64())})
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        qv = b["qty100"].to_numpy(zero_copy_only=False).astype(np.int64)
        sv = b["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        newseg = np.concatenate([[True], pk[1:] != pk[:-1]])
        starts = np.nonzero(newseg)[0]
        seg_ids = np.cumsum(newseg) - 1
        sums = np.add.reduceat(qv, starts)
        cnts = np.diff(np.append(starts, n)).astype(np.int64)
        mx = np.maximum.reduceat(qv, starts)
        sv_m = np.where(qv == mx[seg_ids], sv,
                        np.iinfo(np.int64).max)
        best = np.minimum.reduceat(sv_m, starts)
        return pa.table({
            "l_partkey": pa.array(pk[starts].astype(np.int64)),
            "s100": pa.array(sums), "cnt": pa.array(cnts),
            "bq": pa.array(mx), "bs": pa.array(best)})

    partials = _collect(
        sorted_pairs.map_batches(part_partials,
                                 batch_format="pyarrow",
                                 zero_copy_batch=True),
        pa.schema([("l_partkey", pa.int64()), ("s100", pa.int64()),
                   ("cnt", pa.int64()), ("bq", pa.int64()),
                   ("bs", pa.int64())]))
    partials = partials.sort_by([("l_partkey", "ascending")])
    n = partials.num_rows
    empty = pa.table({
        "p_partkey": pa.array([], pa.int64()),
        "s_suppkey": pa.array([], pa.int64()),
        "qty100_supp": pa.array([], pa.int64()),
        "qty100_part": pa.array([], pa.int64()),
        "n_suppliers": pa.array([], pa.int64()),
        "share_x1m": pa.array([], pa.int64())})
    if n == 0:
        return empty
    pk = partials["l_partkey"].to_numpy(zero_copy_only=False)
    s100 = partials["s100"].to_numpy(zero_copy_only=False)
    cnt = partials["cnt"].to_numpy(zero_copy_only=False)
    bq = partials["bq"].to_numpy(zero_copy_only=False)
    bs = partials["bs"].to_numpy(zero_copy_only=False)
    newseg = np.concatenate([[True], pk[1:] != pk[:-1]])
    starts = np.nonzero(newseg)[0]
    seg_ids = np.cumsum(newseg) - 1
    tot = np.add.reduceat(s100, starts)
    nsupp = np.add.reduceat(cnt, starts)
    gmx = np.maximum.reduceat(bq, starts)
    bs_m = np.where(bq == gmx[seg_ids], bs, np.iinfo(np.int64).max)
    gbest = np.minimum.reduceat(bs_m, starts)
    keep = nsupp >= 2
    if not keep.any():
        return empty
    share = gmx[keep] * 1_000_000 // tot[keep]
    return pa.table({
        "p_partkey": pa.array(pk[starts][keep]),
        "s_suppkey": pa.array(gbest[keep]),
        "qty100_supp": pa.array(gmx[keep]),
        "qty100_part": pa.array(tot[keep]),
        "n_suppliers": pa.array(nsupp[keep]),
        "share_x1m": pa.array(share, pa.int64()),
    }).sort_by([("p_partkey", "ascending")])


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # relational / aggregation / shuffle operators
        "pricing_summary": q_pricing_summary,
        "high_value_orders": q_high_value_orders,
        "orders_by_segment": q_orders_by_segment,
        "orders_missing_customer": q_orders_missing_customer,
        "duplicate_lineitem_keys": q_duplicate_lineitem_keys,
        "top10_orders": q_top10_orders,
        "events_by_type": q_events_by_type,
        "events_by_type_salted": q_events_by_type_salted,
        "distinct_users": q_distinct_users,
        "stats_orders_totalprice": q_stats_orders_totalprice,
        "null_stats_documents": q_null_stats_documents,
        "orders_price_quantiles": q_orders_price_quantiles,
        "stats_orders_std": q_stats_orders_std,
        "orders_hash_sample": q_orders_hash_sample,
        "top3_orders_per_cust": q_top3_orders_per_cust,
        "running_user_spend": q_running_user_spend,
        "events_pivot_by_type": q_events_pivot_by_type,
        "events_prev_value": q_events_prev_value,
        "event_transition_violations": q_event_transition_violations,
        "event_markov_matrix": q_event_markov_matrix,
        "user_interarrival_stats": q_user_interarrival_stats,
        "event_type_overlap": q_event_type_overlap,
        "event_markov_probs": q_event_markov_probs,
        "user_session_table": q_user_session_table,
        "signup_purchase_delay": q_signup_purchase_delay,
        "weekly_volume_delta": q_weekly_volume_delta,
        "docs_quality_budget": q_docs_quality_budget,
        "user_weekly_type_diversity": q_user_weekly_type_diversity,
        "transcript_role_protocol": q_transcript_role_protocol,
        "transcript_trailing_context": q_transcript_trailing_context,
        "transcript_near_dup_convs": q_transcript_near_dup_convs,
        "transcript_eval_examples": q_transcript_eval_examples,
        "events_next_value": q_events_next_value,
        "docs_repetition": q_docs_repetition,
        "user_value_ranks": q_user_value_ranks,
        "user_value_rank_profiles": q_user_value_rank_profiles,
        "user_event_ntile": q_user_event_ntile,
        "user_range_sum_1h": q_user_range_sum_1h,
        "user_first_last_value": q_user_first_last_value,
        "events_moving_sum": q_events_moving_sum,
        "customer_rollup": q_customer_rollup,
        "docs_lang_source_cube": q_docs_lang_source_cube,
        "docs_decontamination": q_docs_decontamination,
        "docs_pii_scrub": q_docs_pii_scrub,
        "docs_url_domains": q_docs_url_domains,
        "host_pagerank": q_host_pagerank,
        "host_pagerank_weighted": q_host_pagerank_weighted,
        "host_hits": q_host_hits,
        "incremental_dedup_docs": q_incremental_dedup_docs,
        "docs_snapshot_diff": q_docs_snapshot_diff,
        "docs_pack_contiguous": q_docs_pack_contiguous,
        "orders_lineitem_reconcile": q_orders_lineitem_reconcile,
        "docs_source_lang_fd": q_docs_source_lang_fd,
        "daily_volume_anomalies": q_daily_volume_anomalies,
        "events_expectations": q_events_expectations,
        "docs_keyword_search": q_docs_keyword_search,
        "user_activity_skew": q_user_activity_skew,
        "embedding_kmeans": q_embedding_kmeans,
        "docs_cross_snapshot_dups": q_docs_cross_snapshot_dups,
        "embedding_kmeans_inertia": q_embedding_kmeans_inertia,
        "daily_volume_cusum": q_daily_volume_cusum,
        "embedding_split_leakage": q_embedding_split_leakage,
        "revenue_by_region": q_revenue_by_region,
        "events_global_seq": q_events_global_seq,
        "events_type_weekday_chi2": q_events_type_weekday_chi2,
        "user_daily_dense_counts": q_user_daily_dense_counts,
        "events_nearest_error": q_events_nearest_error,
        "user_activity_gini": q_user_activity_gini,
        "corpus_zipf_slope": q_corpus_zipf_slope,
        "transcript_tool_usage": q_transcript_tool_usage,
        "transcript_tool_args": q_transcript_tool_args,
        "shipping_priority": q_shipping_priority,
        "lang_mixture_allocation": q_lang_mixture_allocation,
        "events_csv_roundtrip": q_events_csv_roundtrip,
        "customer_name_near_dups": q_customer_name_near_dups,
        "events_value_interp": q_events_value_interp,
        "events_systematic_sample": q_events_systematic_sample,
        "lineitem_weighted_median_price": q_lineitem_weighted_median_price,
        "big_quantity_orders": q_big_quantity_orders,
        "transcript_turn_integrity": q_transcript_turn_integrity,
        "orders_benford": q_orders_benford,
        "docs_scd2": q_docs_scd2,
        "lineitem_weighted_price_quartiles":
            q_lineitem_weighted_price_quartiles,
        "docs_readability": q_docs_readability,
        "docs_bm25": q_docs_bm25,
        "small_quantity_part_revenue": q_small_quantity_part_revenue,
        "docs_lang_imputed": q_docs_lang_imputed,
        "transcript_boilerplate_turns": q_transcript_boilerplate_turns,
        "customer_order_distribution": q_customer_order_distribution,
        "promo_revenue_share": q_promo_revenue_share,
        "global_sales_opportunity": q_global_sales_opportunity,
        "purchase_attribution": q_purchase_attribution,
        "transcript_context_overflow": q_transcript_context_overflow,
        "transcript_packing": q_transcript_packing,
        "embedding_quantization": q_embedding_quantization,
        "events_partitioned_roundtrip": q_events_partitioned_roundtrip,
        "docs_lexical_diversity": q_docs_lexical_diversity,
        "late_shipment_priority": q_late_shipment_priority,
        "user_cum_distinct_types": q_user_cum_distinct_types,
        "events_session_assignment": q_events_session_assignment,
        "orders_pareto_frontier": q_orders_pareto_frontier,
        "returned_item_revenue": q_returned_item_revenue,
        "docs_jsonl_roundtrip": q_docs_jsonl_roundtrip,
        "events_daily_quota": q_events_daily_quota,
        "docs_leakage_free_split": q_docs_leakage_free_split,
        "docs_cdc_merge": q_docs_cdc_merge,
        "user_twap": q_user_twap,
        "events_rolling_median": q_events_rolling_median,
        "host_triangles": q_host_triangles,
        "docs_top_quality_per_lang": q_docs_top_quality_per_lang,
        "events_rolling_extrema": q_events_rolling_extrema,
        "user_decayed_value": q_user_decayed_value,
        "events_rolling_distinct": q_events_rolling_distinct,
        "drift_value_psi": q_drift_value_psi,
        "session_concurrency": q_session_concurrency,
        "parts_copurchase": q_parts_copurchase,
        "corpus_integrity": q_corpus_integrity,
        "events_seasonal_residuals": q_events_seasonal_residuals,
        "embedding_outliers": q_embedding_outliers,
        "user_value_trend": q_user_value_trend,
        "events_peak_hour_rate": q_events_peak_hour_rate,
        "docs_ngram_novelty": q_docs_ngram_novelty,
        "orders_pareto_share": q_orders_pareto_share,
        "events_value_autocorr": q_events_value_autocorr,
        "events_value_locf": q_events_value_locf,
        "user_online_coverage": q_user_online_coverage,
        "docs_template_clusters": q_docs_template_clusters,
        "parts_multi_supplier": q_parts_multi_supplier,
        "nation_trade_matrix": q_nation_trade_matrix,
        "nation_market_share": q_nation_market_share,
        "user_markov_divergence": q_user_markov_divergence,
        "user_value_running_max": q_user_value_running_max,
        "events_record_highs": q_events_record_highs,
        "user_max_drawdown": q_user_max_drawdown,
        "events_time_rollup": q_events_time_rollup,
        "top_revenue_supplier": q_top_revenue_supplier,
        "disjunctive_part_revenue": q_disjunctive_part_revenue,
        "part_primary_supplier": q_part_primary_supplier,
        "transcript_turn_stats": q_transcript_turn_stats,
        "transcript_response_latency": q_transcript_response_latency,
        "orders_price_by_date_decile": q_orders_price_by_date_decile,
        "orders_rfm_segments": q_orders_rfm_segments,
        "docs_oov_rate": q_docs_oov_rate,
        "events_unterminated": q_events_unterminated,
        "lineitem_qty_price_corr": q_lineitem_qty_price_corr,
        "weekly_active_users": q_weekly_active_users,
        "approx_weekly_active_users": q_approx_weekly_active_users,
        "user_value_mad": q_user_value_mad,
        "embedding_gram": q_embedding_gram,
        "embedding_dim_stats": q_embedding_dim_stats,
        "label_centroids": q_label_centroids,
        "events_value_winsorized": q_events_value_winsorized,
        "curation_summary": q_curation_summary,
        "lang_dup_rates": q_lang_dup_rates,
        "weighted_avg_price": q_weighted_avg_price,
        "docs_line_dedup": q_docs_line_dedup,
        "events_value_minmax": q_events_value_minmax,
        "events_value_outliers": q_events_value_outliers,
        "docs_ranked_hosts": q_docs_ranked_hosts,
        "user_value_quantiles": q_user_value_quantiles,
        "custkeys_without_orders": q_custkeys_without_orders,
        "building_segment_orders": q_building_segment_orders,
        "orders_price_date_corr": q_orders_price_date_corr,
        "lineitem_price_regression": q_lineitem_price_regression,
        "price_histogram": q_price_histogram,
        "user_event_type_diversity": q_user_event_type_diversity,
        "user_event_type_diversity_sorted":
            q_user_event_type_diversity_sorted,
        "custkeys_with_orders": q_custkeys_with_orders,
        "event_type_mode_per_user": q_event_type_mode_per_user,
        "dedup_docs_norm_key": q_dedup_docs_norm_key,
        # schema validation engine
        "validate_documents": q_validate_documents,
        "validate_events_props": q_validate_events_props,
        "validate_embeddings": q_validate_embeddings,
        "validate_events_props_struct": q_validate_events_props_struct,
        # text / dedup / embedding operators
        "docs_token_counts": q_docs_token_counts,
        "dedup_docs_content_key": q_dedup_docs_content_key,
        "knn_top10": q_knn_top10,
        "embedding_dims": q_embedding_dims,
        "lang_histogram": q_lang_histogram,
        "user_sessions": q_user_sessions,
        "daily_event_volume": q_daily_event_volume,
        "events_last_order": q_events_last_order,
        "events_last_order_sorted": q_events_last_order_sorted,
        "events_next_order": q_events_next_order,
        "text_equality": q_text_equality,
        "hopping_event_volume": q_hopping_event_volume,
        "lineitems_shipped_90d": q_lineitems_shipped_90d,
        "dedup_docs_survivors": q_dedup_docs_survivors,
        "heavy_hitter_users": q_heavy_hitter_users,
        # rows-only pipelines (no SQL equivalent)
        "transcript_validation": q_transcript_validation,
        "transcript_verdicts": q_transcript_verdicts,
        "transcript_stats": q_transcript_stats,
        "minhash_near_dups": q_minhash_near_dups,
        "simhash_docs": q_simhash_docs,
        "simhash_near_dups": q_simhash_near_dups,
        "lang_id_accuracy": q_lang_id_accuracy,
        "doc_quality": q_doc_quality,
        "docs_bpe_token_counts": q_docs_bpe_token_counts,
        "tfidf_top_terms": q_tfidf_top_terms,
        "docs_bigram_lm": q_docs_bigram_lm,
        "docs_lm_buckets": q_docs_lm_buckets,
        "lang_top_terms": q_lang_top_terms,
        "events_throttled": q_events_throttled,
        "cust_top_order": q_cust_top_order,
        "orders_weighted_sample": q_orders_weighted_sample,
        "docs_capped_per_lang": q_docs_capped_per_lang,
        "user_cohort_retention": q_user_cohort_retention,
        "embedding_nn_join": q_embedding_nn_join,
        "approx_users_by_type": q_approx_users_by_type,
        "event_funnel": q_event_funnel,
        "docs_split_counts": q_docs_split_counts,
        "approx_price_quantiles": q_approx_price_quantiles,
        "docs_share_of_lang": q_docs_share_of_lang,
        "lineitem_melted": q_lineitem_melted,
        "docs_above_p90": q_docs_above_p90,
        "user_event_entropy": q_user_event_entropy,
        "events_zscore": q_events_zscore,
        "user_value_quantiles_cont": q_user_value_quantiles_cont,
        "events_stratified_sample": q_events_stratified_sample,
        "user_event_type_concat": q_user_event_type_concat,
        "docs_chunks": q_docs_chunks,
        "docs_vocabulary": q_docs_vocabulary,
        "part_typo_pairs": q_part_typo_pairs,
        "docs_span_corruption": q_docs_span_corruption,
        "sessions_error_overlap": q_sessions_error_overlap,
        "docs_mixture_sample": q_docs_mixture_sample,
        "docs_packed": q_docs_packed,
        "knn_lsh_top10": q_knn_lsh_top10,
        "knn_ivf_top10": q_knn_ivf_top10,
        "embedding_near_dups": q_embedding_near_dups,
        "embedding_near_dups_exact": q_embedding_near_dups_exact,
        "customer_highvalue_left": q_customer_highvalue_left,
        "negbal_highvalue_full": q_negbal_highvalue_full,
        "lineitems_small_parts": q_lineitems_small_parts,
        "ngram_jaccard_dups": q_ngram_jaccard_dups,
        "doc_dup_clusters": q_doc_dup_clusters,
        "doc_dedup_keep_best": q_doc_dedup_keep_best,
        "orders_segment_join_sorted": q_orders_segment_join_sorted,
        "drift_events_psi": q_drift_events_psi,
        "doc_fingerprints": q_doc_fingerprints,
        "docs_shared_spans": q_docs_shared_spans,
        "multimodal_features": q_multimodal_features,
        "multimodal_audio": q_multimodal_audio,
        "multimodal_frames": q_multimodal_frames,
        "text_equality_aligned": q_text_equality_aligned,
        "drift_roles": q_drift_roles,
        "resumable_validation": q_resumable_validation,
    }


# SimHash signatures recomputed in pure SQL: DuckDB's hash() is the
# engine's token hash (see dedup._duck_hash_strings), so the oracle
# derives the exact same 64-bit signatures from the documents table.
_SIMHASH_SIG_CTE = """
    toks AS (
        SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS tok
        FROM documents
    ), th AS (
        SELECT doc_id, hash(tok) AS h FROM toks WHERE tok <> ''
    ), votes AS (
        SELECT doc_id, g.i,
               SUM(CASE WHEN (h >> g.i) & 1 = 1 THEN 1 ELSE -1 END) AS v
        FROM th CROSS JOIN
             (SELECT unnest(generate_series(0, 63)) AS i) g
        GROUP BY doc_id, g.i
    ), sig AS (
        SELECT doc_id,
               CAST(SUM(CASE WHEN v > 0 THEN (1::UBIGINT << i)
                        ELSE 0::UBIGINT END) AS UBIGINT) AS simhash
        FROM votes GROUP BY doc_id
    ), sigs AS (
        SELECT d.doc_id, COALESCE(s.simhash, 0::UBIGINT) AS simhash
        FROM documents d LEFT JOIN sig s USING (doc_id)
    )
"""


def _minhash_oracle_sql() -> str:
    """The FULL MinHash+LSH near-dup pipeline recomputed in pure SQL:
    word 5-gram shingles, DuckDB ``hash()`` shingle hashes (the
    engine's kernel, dedup._duck_hash_strings), 64 universal-hash
    minhash rows over the Mersenne prime 2^61-1 with numpy's uint64
    wrap-around semantics (HUGEINT product % 2^64), 16 splitmix-mixed
    band buckets (salts and FNV offset identical to
    MinHashBander.bucket_matrix), candidate pairs from shared
    buckets, and the exact Jaccard verify at threshold 0.35. The
    a/b permutation coefficients and band salts are baked from the
    same seed-42 generator the engine uses. The four per-band mix
    rounds are CHAINED CTEs — nesting splitmix expressions would
    blow up ~72x per level."""
    from json_schema_ray.engine.dedup import MinHasher
    from json_schema_ray.engine.relational import splitmix64_sql
    from json_schema_ray.state.sketches import hash_ints

    h = MinHasher(n_perm=64, seed=42, shingle_k=5)
    perm_rows = ", ".join(
        f"({j}, {int(a)}::UBIGINT, {int(b)}::UBIGINT)"
        for j, (a, b) in enumerate(zip(h.a, h.b)))
    salts = hash_ints(np.arange(16, dtype=np.uint64))
    salt_rows = ", ".join(
        f"({b}, {int(s)}::UBIGINT)" for b, s in enumerate(salts))
    M = (1 << 61) - 1
    W = 1 << 64
    return f"""
        WITH words AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '\\s+'),
                               w -> w <> '') AS arr
            FROM documents
        ), shs AS (
            SELECT DISTINCT doc_id,
                   CASE WHEN len(arr) < 5
                        THEN array_to_string(arr, ' ')
                        ELSE array_to_string(
                            list_slice(arr, i, i + 4), ' ')
                   END AS shingle
            FROM words,
                 LATERAL (SELECT unnest(generate_series(
                     1, greatest(len(arr) - 4, 1))) AS i) g
            WHERE len(arr) > 0
        ), sh AS (
            SELECT DISTINCT doc_id, hash(shingle) AS h FROM shs
        ), perms(j, a, b) AS (VALUES {perm_rows}
        ), salts(band, salt) AS (VALUES {salt_rows}
        ), sig AS (
            SELECT doc_id, j,
                   min(CAST(((CAST(a AS HUGEINT) * (h % {M})) % {W}
                             + b) % {W} % {M} AS UBIGINT)) AS r
            FROM sh CROSS JOIN perms GROUP BY doc_id, j
        ), sigb AS (
            SELECT doc_id, j // 4 AS band,
                   max(CASE WHEN j % 4 = 0 THEN r END) AS m0,
                   max(CASE WHEN j % 4 = 1 THEN r END) AS m1,
                   max(CASE WHEN j % 4 = 2 THEN r END) AS m2,
                   max(CASE WHEN j % 4 = 3 THEN r END) AS m3
            FROM sig GROUP BY 1, 2
        ), acc0 AS (
            SELECT doc_id,
                   xor(14695981039346656037::UBIGINT, salt) AS acc,
                   m0, m1, m2, m3
            FROM sigb JOIN salts USING (band)
        ), acc1 AS (
            SELECT doc_id, {splitmix64_sql("xor(acc, m0)")} AS acc,
                   m1, m2, m3 FROM acc0
        ), acc2 AS (
            SELECT doc_id, {splitmix64_sql("xor(acc, m1)")} AS acc,
                   m2, m3 FROM acc1
        ), acc3 AS (
            SELECT doc_id, {splitmix64_sql("xor(acc, m2)")} AS acc,
                   m3 FROM acc2
        ), buck AS (
            SELECT doc_id,
                   CAST(({splitmix64_sql("xor(acc, m3)")} >> 1)
                        AS BIGINT) AS bucket
            FROM acc3
        ), cand AS (
            SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
            FROM buck a JOIN buck b
              ON a.bucket = b.bucket AND a.doc_id < b.doc_id
        ), cnt AS (
            SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
        ), inter AS (
            SELECT c.id_a, c.id_b, count(*) AS i
            FROM cand c
            JOIN sh a ON a.doc_id = c.id_a
            JOIN sh b ON b.doc_id = c.id_b AND b.h = a.h
            GROUP BY 1, 2
        )
        SELECT c.id_a, c.id_b,
               CAST(floor(CAST(COALESCE(i.i, 0) AS DOUBLE)
                    / (ca.c + cb.c - COALESCE(i.i, 0)) * 1e6 + 0.5)
                    AS BIGINT) AS jaccard_e6
        FROM cand c
        LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
        JOIN cnt ca ON ca.doc_id = c.id_a
        JOIN cnt cb ON cb.doc_id = c.id_b
        WHERE CAST(COALESCE(i.i, 0) AS DOUBLE)
              / (ca.c + cb.c - COALESCE(i.i, 0)) >= 0.35
        ORDER BY c.id_a, c.id_b
    """


def _docs_split_oracle_sql() -> str:
    """Train/val/test assignment recomputed with the exact integer
    cut points split_assign uses."""
    from json_schema_ray.engine.relational import (split_thresholds,
                                                   splitmix64_sql)

    c0, c1 = split_thresholds([0.8, 0.1])
    h = splitmix64_sql("doc_id")
    return f"""
        WITH s AS (
            SELECT lang,
                   CASE WHEN doc_id IS NULL THEN NULL
                        WHEN {h} < {c0} THEN 'train'
                        WHEN {h} < {c1} THEN 'val'
                        ELSE 'test' END AS split
            FROM documents)
        SELECT lang, split, count(*)::BIGINT AS cnt
        FROM s GROUP BY 1, 2 ORDER BY 1, 2
    """


def _mixture_sample_oracle_sql() -> str:
    """docs_mixture_sample recomputed in SQL: the SAME uint64
    thresholds the engine compares against (relational.py
    mixture_thresholds) baked as per-language UBIGINT literals, keys
    hashed with the splitmix64 SQL replica."""
    from json_schema_ray.engine.relational import (mixture_thresholds,
                                                   splitmix64_sql)

    thr = mixture_thresholds(_MIXTURE_RATES, 0.1)
    whens = " ".join(
        f"WHEN '{g}' THEN {int(t)}::UBIGINT"
        for g, t in thr.items() if g is not None)
    return f"""
        SELECT doc_id, lang FROM documents
        WHERE {splitmix64_sql('doc_id', 11)} <
              CASE lang {whens} ELSE {int(thr[None])}::UBIGINT END
        ORDER BY doc_id
    """


def _span_corruption_oracle_sql() -> str:
    """docs_span_corruption recomputed in SQL: the same splitmix64
    span starts/lengths (key = doc_id * 2^20 + token_index), masked
    runs found with LAG windows, sentinel/target strings rebuilt
    with ordered string_agg + FILTER — full string-level parity with
    the engine's one-scan kernel."""
    from json_schema_ray.engine.relational import splitmix64_sql

    h = splitmix64_sql("t.doc_id * 1048576 + t.j")
    return f"""
        WITH w AS (
            SELECT doc_id, regexp_split_to_array(text, '\\s+') AS arr
            FROM documents
        ), tok0 AS (
            SELECT doc_id, arr[i] AS tok, i
            FROM w, LATERAL (SELECT unnest(
                generate_series(1, len(arr))) AS i) g
            WHERE len(arr) > 0
        ), t AS (
            SELECT doc_id, tok,
                   row_number() OVER (PARTITION BY doc_id
                                      ORDER BY i) - 1 AS j
            FROM tok0 WHERE tok <> ''
        ), f AS (
            SELECT t.doc_id, t.tok, t.j,
                   ({h}) % 20 = 0 AS strt,
                   1 + CAST((({h}) >> 8) % 3 AS BIGINT) AS slen
            FROM t
        ), m AS (
            SELECT doc_id, tok, j, strt, slen,
                   (strt
                    OR coalesce(lag(strt) OVER w
                                AND lag(slen) OVER w >= 2, FALSE)
                    OR coalesce(lag(strt, 2) OVER w
                                AND lag(slen, 2) OVER w >= 3, FALSE))
                   AS masked
            FROM f WINDOW w AS (PARTITION BY doc_id ORDER BY j)
        ), r AS (
            SELECT *, masked AND NOT coalesce(
                lag(masked) OVER w, FALSE) AS run_start
            FROM m WINDOW w AS (PARTITION BY doc_id ORDER BY j)
        ), k AS (
            SELECT *, CAST(sum(CASE WHEN run_start THEN 1 ELSE 0 END)
                           OVER w AS BIGINT) - 1 AS run_id
            FROM r WINDOW w AS (PARTITION BY doc_id ORDER BY j
                                ROWS UNBOUNDED PRECEDING)
        )
        SELECT doc_id,
               count(*) AS n_tokens,
               CAST(coalesce(sum(CASE WHEN masked THEN 1 END), 0)
                    AS BIGINT) AS n_masked,
               CAST(coalesce(sum(CASE WHEN run_start THEN 1 END), 0)
                    AS BIGINT) AS n_spans,
               string_agg(CASE WHEN run_start
                               THEN '<extra_id_' || run_id || '>'
                               ELSE tok END, ' ' ORDER BY j)
                 FILTER (WHERE NOT masked OR run_start) AS inputs,
               string_agg(CASE WHEN run_start
                               THEN '<extra_id_' || run_id || '> '
                                    || tok
                               ELSE tok END, ' ' ORDER BY j)
                 FILTER (WHERE masked) AS targets
        FROM k GROUP BY doc_id ORDER BY doc_id
    """


def _lang_id_pred_sql() -> str:
    """The language-ID heuristic as SQL: marker-word counts via the
    same RE2 regexes the engine's Arrow kernel uses, CJK codepoints
    weighted 5x, first-wins argmax as an ordered CASE chain (the
    first language whose score >= every later score IS np.argmax's
    first-max), zero total -> 'unknown'."""
    import re as _re

    from json_schema_ray.engine.text import _LANG_MARKERS

    score_exprs, names = [], []
    for lang, words in _LANG_MARKERS.items():
        if not words:
            continue
        pat = "(?i)\\b(" + "|".join(_re.escape(w) for w in words) \
            + ")\\b"
        score_exprs.append(
            f"len(regexp_extract_all(text, '{pat}')) AS s_{lang}")
        names.append(lang)
    score_exprs.append(
        "5 * len(regexp_extract_all(text, '[一-鿿]')) AS s_zh")
    names.append("zh")
    case = []
    for i, lang in enumerate(names):
        conds = " AND ".join(f"s_{lang} >= s_{o}"
                             for o in names[i + 1:]) or "TRUE"
        case.append(f"WHEN {conds} THEN '{lang}'")
    total = " + ".join(f"s_{lang}" for lang in names)
    return f"""
        WITH scores AS (
            SELECT lang, {", ".join(score_exprs)} FROM documents
        )
        SELECT lang,
               CASE WHEN {total} = 0 THEN 'unknown'
                    ELSE CASE {" ".join(case)} END
               END AS lang_pred,
               count(*) AS cnt
        FROM scores GROUP BY lang, lang_pred
        ORDER BY lang, lang_pred
    """


def _knn_lsh_bucket_expr(n_planes: int = 8) -> str:
    """The hyperplane-LSH bucket of a vector as a SQL expression —
    the plane matrix is deterministic (seed 42, dim 64), so its
    float64 literals are baked into the query; the sign of the
    dot product is scale-invariant, so the raw (un-normalized)
    embedding gives the same bucket as the engine's normalized one."""
    from json_schema_ray.engine.similarity import HyperplaneLSH

    planes = HyperplaneLSH(64, n_planes=n_planes, seed=42).planes
    terms = []
    for i, row in enumerate(planes):
        lit = "[" + ", ".join(repr(float(x)) for x in row) + "]"
        terms.append(
            f"(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]),"
            f" {lit}) > 0 THEN {1 << i} ELSE 0 END)")
    return " + ".join(terms)


def _fingerprint_mins_cte() -> str:
    """Shared CTE prefix: the winnowing fingerprint recomputed in
    pure SQL — UTF-8 bytes via hex-pair extraction from
    ``encode(text)``, the Rabin-Karp window hash (base 257,
    mod 2^61-1, window 16) as a 16-term HUGEINT sum grouped by window
    start, the 4 smallest distinct hashes per doc in ``mins`` —
    byte-identical to engine/text.py ``fingerprint_batch`` /
    ``shared_fingerprint_pairs``."""
    p = (1 << 61) - 1
    pows = [pow(257, k, p) for k in range(16)]
    offsets = ", ".join(f"({j}, {pows[15 - j]}::HUGEINT)"
                        for j in range(16))
    return f"""
        raw AS (
          SELECT doc_id, upper(hex(encode(text))) AS hx,
                 octet_length(encode(text)) AS n
          FROM documents WHERE text IS NOT NULL
        ), bytes AS (
          SELECT doc_id, unnest(generate_series(1, n)) AS pos, hx
          FROM raw
        ), bv AS (
          SELECT doc_id, pos,
                 (CASE WHEN substr(hx, 2*pos-1, 1) BETWEEN '0' AND '9'
                       THEN ascii(substr(hx, 2*pos-1, 1)) - 48
                       ELSE ascii(substr(hx, 2*pos-1, 1)) - 55 END) * 16
                 + (CASE WHEN substr(hx, 2*pos, 1) BETWEEN '0' AND '9'
                       THEN ascii(substr(hx, 2*pos, 1)) - 48
                       ELSE ascii(substr(hx, 2*pos, 1)) - 55 END) AS b
          FROM bytes
        ), contrib AS (
          SELECT v.doc_id, v.pos - o.j AS i,
                 CAST(v.b AS HUGEINT) * o.powv AS term
          FROM bv v JOIN (VALUES {offsets}) AS o(j, powv) ON TRUE
          WHERE v.pos - o.j >= 1
        ), hashes AS (
          SELECT doc_id, i,
                 CAST(SUM(term) % {p} AS BIGINT) AS h
          FROM contrib GROUP BY doc_id, i HAVING count(*) = 16
        ), ranked AS (
          SELECT doc_id, h,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY h) AS rn
          FROM (SELECT DISTINCT doc_id, h FROM hashes)
        ), mins AS (
          SELECT doc_id, h FROM ranked WHERE rn <= 4
        )
    """


def _fingerprint_sql() -> str:
    return f"""
        WITH {_fingerprint_mins_cte()},
        agg AS (
          SELECT doc_id,
                 string_agg(printf('%x', h), '-' ORDER BY h) AS fp
          FROM mins GROUP BY doc_id
        )
        SELECT r.doc_id, coalesce(a.fp, '') AS fingerprint
        FROM raw r LEFT JOIN agg a USING (doc_id)
    """


# the SQL twin of _augment_urls — byte-identical recipe, shared by
# every URL-graph oracle so the parity contract has ONE definition
_AUG_SQL = r"""
              SELECT doc_id, source,
                     text || ' see http://site' || (doc_id % 7)
                          || '.example.com/p/' || doc_id
                          || ' via https://CDN' || (doc_id % 3)
                          || '.Example.COM/a' AS text
              FROM documents
"""

def _pagerank_iters_sql(weighted: bool = False) -> str:
    """The 3-iteration integer PageRank chain (graph.py pagerank,
    scale 1e9, damping 85/100): expects an `edges`(src, dst[, w])
    CTE in scope, leaves `r3`(node, rank) in scope. ``weighted``
    switches to the (rank * w) // W(src) contribution, W = total
    out-weight — graph.py's exact integer formula."""
    deg = ("sum(w)::BIGINT" if weighted else "count(*)::BIGINT")
    contrib = ("(r.rank * e.w) // d.outdeg" if weighted
               else "r.rank // d.outdeg")
    parts = [f"""
            nodes AS (
              SELECT src AS node FROM edges
              UNION SELECT dst FROM edges
            ), deg AS (
              SELECT src AS node, {deg} AS outdeg
              FROM edges GROUP BY 1
            ),
            r0 AS (SELECT node, 1000000000::BIGINT AS rank FROM nodes)"""]
    for i in range(1, 4):
        parts.append(f""",
            s{i} AS (SELECT e.dst AS node,
                          sum({contrib})::BIGINT AS s
                   FROM edges e
                   JOIN deg d ON d.node = e.src
                   JOIN r{i - 1} r ON r.node = e.src GROUP BY 1),
            r{i} AS (SELECT n.node,
                          (150000000 + (85 * COALESCE(s{i}.s, 0)) // 100)
                            ::BIGINT AS rank
                   FROM nodes n LEFT JOIN s{i} USING (node))""")
    return "".join(parts)


_PAGERANK_ITERS_SQL = _pagerank_iters_sql()


def _hits_iters_sql(n_iter: int = 3) -> str:
    """Integer HITS chain (graph.py hits, scale 1e9, max-
    normalization): expects `edges`(src, dst) and `nodes`(node) CTEs
    in scope, leaves `h{n}`(node, h) and `a{n}`(node, a) in scope.
    Normalization multiplies before dividing, so the intermediate
    rides HUGEINT exactly like the engine's Python-int math."""
    parts = [f"""
            h0 AS (SELECT node, 1000000000::HUGEINT AS h FROM nodes)"""]
    for i in range(1, n_iter + 1):
        parts.append(f""",
            a{i}r AS (SELECT e.dst AS node, sum(h{i - 1}.h)::HUGEINT AS v
                    FROM edges e
                    JOIN h{i - 1} ON h{i - 1}.node = e.src GROUP BY 1),
            a{i} AS (SELECT n.node,
                          (COALESCE(a{i}r.v, 0) * 1000000000
                           // (SELECT max(v) FROM a{i}r))::HUGEINT AS a
                   FROM nodes n LEFT JOIN a{i}r USING (node)),
            h{i}r AS (SELECT e.src AS node, sum(a{i}.a)::HUGEINT AS v
                    FROM edges e
                    JOIN a{i} ON a{i}.node = e.dst GROUP BY 1),
            h{i} AS (SELECT n.node,
                          (COALESCE(h{i}r.v, 0) * 1000000000
                           // (SELECT max(v) FROM h{i}r))::HUGEINT AS h
                   FROM nodes n LEFT JOIN h{i}r USING (node))""")
    return "".join(parts)


def _shared_spans_sql() -> str:
    """Docs pairing when any of their 4 smallest window hashes
    collide, with the shared-span count — the SQL mirror of
    engine/text.py ``shared_fingerprint_pairs``."""
    return f"""
        WITH {_fingerprint_mins_cte()}
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               count(*) AS n_shared
        FROM mins a JOIN mins b
          ON a.h = b.h AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    """


# The add-1 bigram LM scoring SQL (fixed-point per-pair log-probs so
# document sums are exact integer sums — see engine/text.py
# bigram_lm_scores). Shared by the docs_bigram_lm oracle and the
# docs_lm_buckets CTE.
_BIGRAM_LM_SQL = r"""
            WITH arr AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x <> '') AS f
                FROM documents
            ), big AS (
                SELECT doc_id, unnest(f[1:len(f)-1]) AS w1,
                       unnest(f[2:len(f)]) AS w2
                FROM arr WHERE len(f) >= 2
            ), bc AS (
                SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2
            ), cc AS (
                SELECT w1, CAST(sum(c) AS BIGINT) AS cw
                FROM bc GROUP BY 1
            ), v AS (
                SELECT count(DISTINCT tok) AS v FROM
                    (SELECT w1 AS tok FROM bc
                     UNION SELECT w2 AS tok FROM bc)
            ), lp AS (
                SELECT bc.w1, bc.w2,
                       CAST(floor(ln((bc.c + 1.0) / (cc.cw + 1.0 * v.v))
                                  * 1e6 + 0.5) AS BIGINT) AS lp_e6
                FROM bc JOIN cc USING (w1), v
            )
            SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(sum(lp.lp_e6) AS BIGINT) AS logprob_e6
            FROM big b JOIN lp ON b.w1 = lp.w1 AND b.w2 = lp.w2
            GROUP BY b.doc_id ORDER BY b.doc_id
"""


def _protocol_corpus_glob() -> str:
    """Parquet glob of the deterministic transcript corpus the
    transcript_role_protocol oracle reads. Scale comes from
    JSR_PROTOCOL_SF_DIR (set by tools/check_oracle.py to its sf_dir)
    and defaults to the driver's correctness scale (sf0.01 ->
    60,000 turns), so query and oracle always read the SAME corpus.
    Generation is on demand + cached (pure numpy/pyarrow, no Ray):
    the deliberate side effect keeps the oracle order-proof — DuckDB
    can run it whether or not the query ran first."""
    from json_schema_ray.pipelines.flagship import transcripts_path

    sf_dir = os.environ.get("JSR_PROTOCOL_SF_DIR", "/root/testdata/sf0.01")
    path = transcripts_path(
        _transcript_turns(sf_dir), violation_rate=0.01)
    return os.path.join(path, "*.parquet")


def _drift_corpus_globs(sf_dir: str = None) -> tuple:
    """(reference, new) parquet globs for the drift_roles pair: the
    clean seed-42 corpus the stored profile is built from and the
    seed-43 corpus it is compared against. Same on-demand + cached
    generation contract as :func:`_protocol_corpus_glob` so the
    DuckDB oracle can run whether or not the query ran first."""
    from json_schema_ray.pipelines.flagship import transcripts_path

    if sf_dir is None:
        sf_dir = os.environ.get("JSR_PROTOCOL_SF_DIR",
                                "/root/testdata/sf0.01")
    n = _transcript_turns(sf_dir)
    ref = transcripts_path(n, seed=42, violation_rate=0.0)
    new = transcripts_path(n, seed=43, violation_rate=0.01)
    return (os.path.join(ref, "*.parquet"),
            os.path.join(new, "*.parquet"))


def oracle_sql() -> dict[str, str]:
    from json_schema_ray.engine.relational import splitmix64_sql

    sample_thr = int(0.05 * float(1 << 64))
    drift_ref, drift_new = _drift_corpus_globs()
    aligned_dir = _aligned_cmp_dir()
    return {
        "text_equality_aligned": f"""
            WITH a AS (
                SELECT conv_id, turn_idx, text, 1 AS ina
                FROM read_parquet('{aligned_dir}/cand-*.parquet')
            ), b AS (
                SELECT conv_id, turn_idx, text, 1 AS inb
                FROM read_parquet('{aligned_dir}/ref-*.parquet')
            ), j AS (
                SELECT CASE WHEN b.inb IS NULL THEN 'missing_in_b'
                            WHEN a.ina IS NULL THEN 'missing_in_a'
                            ELSE 'text_mismatch' END AS error_type
                FROM a FULL JOIN b
                    ON a.conv_id = b.conv_id
                   AND a.turn_idx = b.turn_idx
                WHERE a.ina IS NULL OR b.inb IS NULL
                   OR a.text IS DISTINCT FROM b.text
            )
            SELECT error_type, CAST(count(*) AS BIGINT) AS cnt
            FROM j GROUP BY error_type ORDER BY error_type
        """,
        "drift_roles": f"""
            WITH ref AS (
                SELECT role, count(*) AS c
                FROM read_parquet('{drift_ref}') GROUP BY role
            ), act AS (
                SELECT role, count(*) AS c
                FROM read_parquet('{drift_new}') GROUP BY role
            ), keys AS (
                SELECT role FROM ref UNION SELECT role FROM act
            ), parts AS (
                SELECT greatest(CAST(COALESCE(r.c, 0) AS DOUBLE)
                           / greatest((SELECT sum(c) FROM ref), 1),
                           1e-6) AS pe,
                       greatest(CAST(COALESCE(a.c, 0) AS DOUBLE)
                           / greatest((SELECT sum(c) FROM act), 1),
                           1e-6) AS pa
                FROM keys k
                LEFT JOIN ref r
                    ON r.role IS NOT DISTINCT FROM k.role
                LEFT JOIN act a
                    ON a.role IS NOT DISTINCT FROM k.role
            ), rl AS (
                SELECT length(text) AS v, count(*) AS c
                FROM read_parquet('{drift_ref}')
                WHERE text IS NOT NULL GROUP BY 1
            ), al AS (
                SELECT length(text) AS v, count(*) AS c
                FROM read_parquet('{drift_new}')
                WHERE text IS NOT NULL GROUP BY 1
            ), m AS (
                SELECT v, sum(rc) AS rc, sum(ac) AS ac FROM (
                    SELECT v, c AS rc, 0 AS ac FROM rl
                    UNION ALL
                    SELECT v, 0, c FROM al) GROUP BY v
            ), cum AS (
                SELECT sum(rc) OVER (ORDER BY v) AS cr,
                       sum(ac) OVER (ORDER BY v) AS ca
                FROM m
            ), ks AS (
                SELECT max(abs(
                    CAST(cr AS HUGEINT) * (SELECT sum(c) FROM al)
                  - CAST(ca AS HUGEINT) * (SELECT sum(c) FROM rl)))
                    AS d
                FROM cum
            )
            SELECT * FROM (
                SELECT 'role' AS "column", 'psi' AS metric,
                       CAST(floor((SELECT SUM((pa - pe) * ln(pa / pe))
                                   FROM parts) * 1e6 + 0.5)
                            AS BIGINT) AS value_e6
                UNION ALL
                SELECT 'text_len', 'ks',
                       CAST((SELECT d FROM ks) * 1000000
                            // ((SELECT sum(c) FROM rl)
                                * (SELECT sum(c) FROM al))
                            AS BIGINT)
            ) ORDER BY "column"
        """,
        "lineitem_weighted_price_quartiles": """
            WITH e AS (
                SELECT l_returnflag,
                       CAST(floor(l_extendedprice * 100 + 0.5)
                            AS BIGINT) AS v,
                       CAST(floor(l_quantity + 0.5) AS BIGINT) AS w,
                       l_orderkey * 10 + l_linenumber AS tb
                FROM lineitem
            ), r AS (
                SELECT l_returnflag, v,
                       sum(w) OVER (PARTITION BY l_returnflag
                                    ORDER BY v, tb
                                    ROWS UNBOUNDED PRECEDING) AS cum,
                       sum(w) OVER (PARTITION BY l_returnflag) AS tot
                FROM e
            )
            SELECT l_returnflag,
                   CAST(min(v) FILTER (WHERE 4 * cum >= tot)
                        AS BIGINT) AS wp25_e2,
                   CAST(min(v) FILTER (WHERE 2 * cum >= tot)
                        AS BIGINT) AS wp50_e2,
                   CAST(min(v) FILTER (WHERE 4 * cum >= 3 * tot)
                        AS BIGINT) AS wp75_e2
            FROM r GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "docs_lang_imputed": """
            WITH d AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 13 = 0 THEN NULL
                            ELSE lang END AS lang,
                       source
                FROM documents
            ), c AS (
                SELECT source, lang, CAST(count(*) AS BIGINT) AS c
                FROM d
                WHERE lang IS NOT NULL AND source IS NOT NULL
                GROUP BY source, lang
            ), m AS (
                SELECT source, lang AS mode_lang FROM (
                    SELECT source, lang,
                           row_number() OVER (PARTITION BY source
                               ORDER BY c DESC, lang) AS rn
                    FROM c) WHERE rn = 1
            )
            SELECT d.doc_id,
                   coalesce(d.lang, m.mode_lang) AS lang_filled
            FROM d LEFT JOIN m ON d.source = m.source
            ORDER BY d.doc_id
        """,
        "small_quantity_part_revenue": """
            WITH s AS (
                SELECT l_partkey,
                       CAST(sum(CAST(floor(l_quantity * 100 + 0.5)
                            AS BIGINT)) AS BIGINT) AS sq,
                       CAST(count(*) AS BIGINT) AS c
                FROM lineitem GROUP BY l_partkey
            )
            SELECT CAST(coalesce(sum(CAST(floor(
                       l.l_extendedprice * 100 + 0.5) AS BIGINT)), 0)
                       AS BIGINT) AS revenue_e2,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem l JOIN s ON l.l_partkey = s.l_partkey
            WHERE 5 * CAST(floor(l.l_quantity * 100 + 0.5)
                      AS BIGINT) * s.c < s.sq
        """,
        "docs_bm25": r"""
            WITH d AS (
                SELECT doc_id,
                       CAST(length(regexp_extract_all(text, '\S+'))
                            AS BIGINT) AS dl,
                       CAST(length(regexp_extract_all(
                            text, '\bscan\b')) AS BIGINT) AS tf0,
                       CAST(length(regexp_extract_all(
                            text, '\bmerge\b')) AS BIGINT) AS tf1,
                       CAST(length(regexp_extract_all(
                            text, '\bvector\b')) AS BIGINT) AS tf2
                FROM documents WHERE text IS NOT NULL
            ), st AS (
                SELECT CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(dl) AS BIGINT) AS s,
                       CAST(count(*) FILTER (WHERE tf0 > 0)
                            AS BIGINT) AS df0,
                       CAST(count(*) FILTER (WHERE tf1 > 0)
                            AS BIGINT) AS df1,
                       CAST(count(*) FILTER (WHERE tf2 > 0)
                            AS BIGINT) AS df2
                FROM d
            )
            SELECT doc_id,
                   CAST(floor((
                       ln(1 + (n - df0 + 0.5) / (df0 + 0.5))
                         * ((tf0 * 2.2) / (tf0 + 1.2 * (0.25
                            + 0.75 * (dl / (CAST(s AS DOUBLE) / n)))))
                     + ln(1 + (n - df1 + 0.5) / (df1 + 0.5))
                         * ((tf1 * 2.2) / (tf1 + 1.2 * (0.25
                            + 0.75 * (dl / (CAST(s AS DOUBLE) / n)))))
                     + ln(1 + (n - df2 + 0.5) / (df2 + 0.5))
                         * ((tf2 * 2.2) / (tf2 + 1.2 * (0.25
                            + 0.75 * (dl / (CAST(s AS DOUBLE) / n)))))
                   ) * 1e6 + 0.5) AS BIGINT) AS score_e6
            FROM d, st
            WHERE tf0 > 0 OR tf1 > 0 OR tf2 > 0
            ORDER BY doc_id
        """,
        "docs_readability": r"""
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text, '\S+'))
                        AS BIGINT) AS n_words,
                   CAST(length(regexp_extract_all(text, '[.!?]+'))
                        AS BIGINT) AS n_sentences,
                   CAST(length(regexp_extract_all(
                        text, '[aeiouyAEIOUY]+'))
                        AS BIGINT) AS n_vowel_runs,
                   CAST(floor((206.835
                        - 1.015 * (CAST(length(regexp_extract_all(
                              text, '\S+')) AS BIGINT)
                           / greatest(CAST(length(regexp_extract_all(
                              text, '[.!?]+')) AS BIGINT), 1))
                        - 84.6 * (CAST(length(regexp_extract_all(
                              text, '[aeiouyAEIOUY]+')) AS BIGINT)
                           / greatest(CAST(length(regexp_extract_all(
                              text, '\S+')) AS BIGINT), 1)))
                        * 1000 + 0.5) AS BIGINT) AS fre_e3
            FROM documents WHERE text IS NOT NULL
            ORDER BY doc_id
        """,
        "docs_scd2": """
            WITH ops AS (
                SELECT doc_id, 0 AS seq,
                       CAST(coalesce(n_chars, 0) AS BIGINT) AS payload
                FROM documents
                UNION ALL
                SELECT doc_id, 1,
                       CAST(coalesce(n_chars, 0) + 1000 AS BIGINT)
                FROM documents WHERE doc_id % 5 = 0
                UNION ALL
                SELECT doc_id, 2, CAST(-1 AS BIGINT)
                FROM documents WHERE doc_id % 7 = 0
                UNION ALL
                SELECT doc_id + 10000000, 1,
                       CAST(coalesce(n_chars, 0) + 7 AS BIGINT)
                FROM documents WHERE doc_id % 11 = 0
            ), led AS (
                SELECT doc_id, seq, payload,
                       lead(seq) OVER (PARTITION BY doc_id
                                       ORDER BY seq) AS valid_to
                FROM ops
            )
            SELECT doc_id, CAST(seq AS BIGINT) AS valid_from,
                   CAST(valid_to AS BIGINT) AS valid_to,
                   payload AS n_chars
            FROM led WHERE payload >= 0
            ORDER BY doc_id, valid_from
        """,
        "orders_benford": """
            WITH d AS (
                SELECT CAST(substr(CAST(CAST(floor(
                           o_totalprice * 100 + 0.5) AS BIGINT)
                           AS VARCHAR), 1, 1) AS BIGINT) AS digit
                FROM orders
            ), g AS (
                SELECT digit, CAST(count(*) AS BIGINT) AS n
                FROM d GROUP BY digit
            )
            SELECT digit, n,
                   CAST((n * 1000000) // CAST((SELECT sum(n) FROM g)
                        AS BIGINT) AS BIGINT) AS share_e6
            FROM g ORDER BY digit
        """,
        "user_cum_distinct_types": """
            WITH f AS (
                SELECT event_id, user_id,
                       CASE WHEN row_number() OVER (
                                PARTITION BY user_id, event_type
                                ORDER BY event_id) = 1
                            THEN 1 ELSE 0 END AS nf
                FROM events
            )
            SELECT event_id, user_id,
                   CAST(sum(nf) OVER (PARTITION BY user_id
                        ORDER BY event_id) AS BIGINT) AS cum_types
            FROM f
        """,
        "transcript_turn_integrity": f"""
            WITH s AS (
                SELECT conv_id,
                       CAST(turn_idx AS BIGINT) AS turn_idx,
                       lag(CAST(turn_idx AS BIGINT)) OVER w AS pt,
                       lag(ts) OVER w AS pts, ts,
                       row_number() OVER w AS rn
                FROM read_parquet('{_protocol_corpus_glob()}')
                WINDOW w AS (PARTITION BY conv_id
                             ORDER BY turn_idx, ts)
            )
            SELECT conv_id, 'turn_gap' AS error_type,
                   'turn_idx sequence starts at ' || turn_idx
                       || ', expected 0.' AS message
            FROM s WHERE rn = 1 AND turn_idx <> 0
            UNION ALL
            SELECT DISTINCT conv_id, 'duplicate_turn',
                   'turn_idx ' || turn_idx
                       || ' appears more than once.'
            FROM s WHERE pt = turn_idx
            UNION ALL
            SELECT conv_id, 'turn_gap',
                   'turn_idx jumps from ' || pt || ' to '
                       || turn_idx || '.'
            FROM s WHERE pt IS NOT NULL AND turn_idx - pt > 1
            UNION ALL
            SELECT DISTINCT conv_id, 'ts_out_of_order',
                   'ts is not non-decreasing in turn order.'
            FROM s WHERE pts IS NOT NULL AND ts < pts
        """,
        "big_quantity_orders": """
            SELECT l_orderkey,
                   CAST(SUM(CAST(floor(l_quantity * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_qty_e2
            FROM lineitem
            GROUP BY l_orderkey
            HAVING CAST(SUM(CAST(floor(l_quantity * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) >= 20000
            ORDER BY l_orderkey
        """,
        "transcript_boilerplate_turns": f"""
            WITH p AS (
                SELECT text, conv_id, CAST(count(*) AS BIGINT) AS n
                FROM read_parquet('{_protocol_corpus_glob()}')
                GROUP BY text, conv_id)
            SELECT text, CAST(count(*) AS BIGINT) AS n_convs,
                   CAST(sum(n) AS BIGINT) AS n_turns
            FROM p GROUP BY text
            HAVING count(*) >= 3
        """,
        "customer_order_distribution": """
            WITH c AS (
                SELECT c_custkey,
                       CAST(count(o_orderkey) AS BIGINT) AS c_count
                FROM customer LEFT JOIN orders
                  ON c_custkey = o_custkey
                GROUP BY c_custkey)
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM c GROUP BY c_count
            ORDER BY c_count
        """,
        "promo_revenue_share": """
            WITH e AS (
                SELECT CAST(floor(l_extendedprice * 100 + 0.5)
                            AS BIGINT)
                       * (100 - CAST(floor(l_discount * 100 + 0.5)
                                     AS BIGINT)) AS rev_e4,
                       p_type
                FROM lineitem JOIN part ON l_partkey = p_partkey),
            s AS (
                SELECT CAST(sum(CASE WHEN p_type = 'PROMO'
                                     THEN rev_e4 ELSE 0 END)
                            AS BIGINT) AS promo_e4,
                       CAST(sum(rev_e4) AS BIGINT) AS total_e4
                FROM e)
            SELECT promo_e4, total_e4,
                   CAST(CAST(promo_e4 AS HUGEINT) * 100 * 1000000
                        // CAST(total_e4 AS HUGEINT)
                        AS BIGINT) AS promo_share_e6
            FROM s
        """,
        "global_sales_opportunity": """
            WITH s AS (
                SELECT CAST(count(*) AS BIGINT) AS n_pos,
                       CAST(sum(CAST(floor(c_acctbal * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS sum_pos
                FROM customer WHERE c_acctbal > 0.0)
            SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
                   CAST(count(*) AS BIGINT) AS numcust,
                   CAST(sum(CAST(floor(c_acctbal * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT)
                       AS totacctbal_e2
            FROM customer, s
            WHERE CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)
                  * s.n_pos > s.sum_pos
              AND NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderdate >=
                                    TIMESTAMP '2001-01-01')
            GROUP BY c_nationkey
        """,
        "docs_lexical_diversity": """
            WITH w AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(
                         coalesce(text, ''), '\\s+'),
                         x -> x <> '') AS ws
              FROM documents)
            SELECT doc_id,
                   CAST(len(ws) AS BIGINT) AS n_words,
                   CAST(len(list_distinct(ws)) AS BIGINT)
                       AS n_distinct_words,
                   CASE WHEN len(ws) > 0
                        THEN CAST(CAST(len(list_distinct(ws))
                                       AS HUGEINT) * 1000000
                                  // len(ws) AS BIGINT)
                   END AS ttr_e6
            FROM w
        """,
        "late_shipment_priority": """
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS order_count
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1996-04-01'
              AND EXISTS (
                  SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey
                    AND l_shipdate > o_orderdate
                                     + INTERVAL 90 DAY)
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "events_partitioned_roundtrip": """
            SELECT CAST(date_trunc('day', CAST(ts AS TIMESTAMP))
                        AS TIMESTAMP) AS day,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(event_id) AS BIGINT) AS event_id_sum,
                   CAST(max(user_id) AS BIGINT) AS user_id_max
            FROM events
            WHERE event_type = 'purchase'
            GROUP BY 1 ORDER BY 1
        """,
        "embedding_quantization": """
            WITH e AS (
              SELECT CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                          AS BIGINT) AS xi, i
              FROM (SELECT unnest(embedding) AS x,
                           generate_subscripts(embedding, 1) AS i
                    FROM embeddings)
              WHERE x IS NOT NULL
            ), m AS (
              SELECT i, min(xi) AS mn, max(xi) AS mx,
                     max(xi) - min(xi) AS rng
              FROM e GROUP BY i
            ), q AS (
              SELECT e.i, mn, mx, rng, xi,
                     CASE WHEN rng > 0
                          THEN ((xi - mn) * 508 + rng) // (2 * rng)
                          ELSE 0 END AS code
              FROM e JOIN m ON e.i = m.i
            ), r AS (
              SELECT i, mn, mx, code,
                     abs(xi - (mn + (code * rng * 2 + 254) // 508))
                         AS err
              FROM q)
            SELECT CAST(i AS BIGINT) AS dim,
                   CAST(mn AS BIGINT) AS mn_e6,
                   CAST(mx AS BIGINT) AS mx_e6,
                   CAST(sum(code) AS BIGINT) AS q_sum,
                   CAST(sum(err) AS BIGINT) AS abs_err_e6
            FROM r GROUP BY i, mn, mx
        """,
        "transcript_context_overflow": f"""
            WITH t AS (
              SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
                     CAST(sum(coalesce(length(text), 0)) AS BIGINT)
                         AS ch
              FROM read_parquet('{_protocol_corpus_glob()}')
              WHERE turn_idx IS NOT NULL
              GROUP BY conv_id, turn_idx),
            c AS (
              SELECT conv_id, turn_idx,
                     sum(ch) OVER (PARTITION BY conv_id
                                   ORDER BY turn_idx) AS cum
              FROM t)
            SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turn_idx,
                   CAST(min(turn_idx) FILTER (WHERE cum > 2000)
                        AS BIGINT) AS first_overflow
            FROM c GROUP BY conv_id
        """,
        "transcript_packing": f"""
            WITH s AS (
              SELECT conv_id,
                     CAST(regexp_replace(conv_id, '[^0-9]', '', 'g')
                          AS BIGINT) * 2
                     + CASE WHEN conv_id LIKE 'conversation-%'
                            THEN 1 ELSE 0 END AS cid,
                     CAST(sum(coalesce(length(text), 0)) AS BIGINT)
                         AS n_chars
              FROM read_parquet('{_protocol_corpus_glob()}')
              GROUP BY conv_id),
            r AS (
              SELECT cid, n_chars,
                     sum(n_chars) OVER (ORDER BY cid) AS run
              FROM s WHERE n_chars > 0)
            SELECT cid AS conv_num, n_chars,
                   CAST((run - n_chars) // 8192 AS BIGINT)
                       AS pack_first,
                   CAST((run - 1) // 8192 AS BIGINT) AS pack_last,
                   CAST((run - n_chars) % 8192 AS BIGINT)
                       AS pack_offset
            FROM r
        """,
        "purchase_attribution": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS tu,
                     event_type,
                     CAST(floor(CAST(coalesce(value, 0) AS DOUBLE)
                                * 1e4 + 0.5) AS BIGINT) AS ve
              FROM events),
            l AS (
              SELECT *, lag(tu) OVER (PARTITION BY user_id
                                      ORDER BY tu, event_id) AS prev
              FROM e),
            m AS (
              SELECT *, CASE WHEN prev IS NULL
                                  OR tu - prev > 1800000000
                             THEN event_type END AS ft
              FROM l),
            f AS (
              SELECT event_type, ve,
                     last_value(ft IGNORE NULLS)
                         OVER (PARTITION BY user_id
                               ORDER BY tu, event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND CURRENT ROW) AS first_touch
              FROM m)
            SELECT first_touch,
                   CAST(count(*) AS BIGINT) AS n_purchases,
                   CAST(sum(ve) AS BIGINT) AS value_e4
            FROM f WHERE event_type = 'purchase'
            GROUP BY first_touch
        """,
        "docs_cdc_merge": """
            WITH ops AS (
                SELECT doc_id, 0 AS seq,
                       CAST(coalesce(n_chars, 0) AS BIGINT) AS payload
                FROM documents
                UNION ALL
                SELECT doc_id, 1,
                       CAST(coalesce(n_chars, 0) + 1000 AS BIGINT)
                FROM documents WHERE doc_id % 5 = 0
                UNION ALL
                SELECT doc_id, 2, CAST(-1 AS BIGINT)
                FROM documents WHERE doc_id % 7 = 0
                UNION ALL
                SELECT doc_id + 10000000, 1,
                       CAST(coalesce(n_chars, 0) + 7 AS BIGINT)
                FROM documents WHERE doc_id % 11 = 0
            ), last AS (
                SELECT doc_id, payload,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY seq DESC) AS rn
                FROM ops
            )
            SELECT doc_id, payload AS n_chars
            FROM last WHERE rn = 1 AND payload >= 0
            ORDER BY doc_id
        """,
        "docs_top_quality_per_lang": """
            WITH r AS (
                SELECT doc_id, lang, n_chars,
                       rank() OVER (PARTITION BY lang
                                    ORDER BY n_chars DESC) AS rk,
                       count(*) OVER (PARTITION BY lang) AS n
                FROM documents WHERE n_chars IS NOT NULL
            )
            SELECT doc_id, lang, n_chars FROM r
            WHERE (rk - 1) * 100 <= 25 * (n - 1)
            ORDER BY doc_id
        """,
        "host_triangles": r"""
            WITH aug AS (
                SELECT doc_id,
                       text || ' plus http://hub' || (doc_id % 83)
                            || '.example.com/x see http://site'
                            || (doc_id % 97)
                            || '.example.com/p via https://cdn'
                            || (doc_id % 89)
                            || '.example.com/a' AS text
                FROM documents
            ), u AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text,
                              'https?://[^\s]+')) AS url
                FROM aug
            ), hosts AS (
                SELECT DISTINCT doc_id, h FROM (
                    SELECT doc_id,
                           lower(regexp_extract(url,
                                 '^https?://([^/:?#\s]+)', 1)) AS h
                    FROM u) WHERE h <> ''
            ), ed AS (
                SELECT DISTINCT h1.h AS a, h2.h AS b
                FROM hosts h1 JOIN hosts h2
                  ON h1.doc_id = h2.doc_id AND h1.h < h2.h
            ), tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM ed e1
                JOIN ed e2 ON e2.a = e1.b
                JOIN ed e3 ON e3.a = e1.a AND e3.b = e2.b
            ), m AS (
                SELECT x AS node FROM tri
                UNION ALL SELECT y FROM tri
                UNION ALL SELECT z FROM tri
            )
            SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
            FROM m GROUP BY node ORDER BY node
        """,
        "events_rolling_median": """
            WITH e AS (
                SELECT event_id, user_id, ts,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
                FROM events
            )
            SELECT event_id, user_id,
                   CAST(2 * median(v) OVER w AS BIGINT) AS med2_e2,
                   CAST(count(v) OVER w AS BIGINT) AS win_cnt
            FROM e WINDOW w AS (PARTITION BY user_id
                ORDER BY ts, event_id
                ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        "docs_template_clusters": r"""
            WITH sk AS (
                SELECT doc_id,
                       hash(regexp_replace(regexp_replace(
                           lower(coalesce(text, '')),
                           '[a-z0-9]+', 'w', 'g'),
                           '\s+', ' ', 'g')) AS h
                FROM documents
            )
            SELECT CAST(min(doc_id) AS BIGINT) AS rep_doc,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM sk GROUP BY h HAVING count(*) >= 2
            ORDER BY rep_doc
        """,
        "parts_multi_supplier": """
            SELECT l_partkey,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT)
                       AS n_suppliers
            FROM lineitem GROUP BY l_partkey
            HAVING count(DISTINCT l_suppkey) >= 4
            ORDER BY l_partkey
        """,
        "user_value_running_max": """
            SELECT event_id, ts, user_id, value,
                   max(value) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS running_max
            FROM events ORDER BY event_id
        """,
        "multimodal_frames": """
            WITH prm AS (
                SELECT doc_id, 4 + (doc_id % 5) AS nf,
                       (doc_id % 9) + 1 AS k
                FROM documents),
            fr AS (
                SELECT doc_id, g.f AS f, k
                FROM prm, generate_series(0, 8) AS g(f)
                WHERE g.f < nf AND g.f % 2 = 0),
            px AS (
                SELECT doc_id, f // 2 AS frame_idx,
                       (gy.y + gx.x + f * k) % 256 AS v
                FROM fr,
                     generate_series(0, 15) AS gy(y),
                     generate_series(0, 15) AS gx(x))
            SELECT doc_id,
                   CAST(frame_idx AS BIGINT) AS frame_idx,
                   CAST(sum(v) AS BIGINT) AS luma_sum,
                   CAST(count(*) AS BIGINT) AS n_px
            FROM px GROUP BY doc_id, frame_idx
            ORDER BY doc_id, frame_idx
        """,
        "multimodal_features": """
            WITH prm AS (
                SELECT doc_id, 16 + (doc_id % 9) AS side,
                       (doc_id % 11) + 1 AS k1,
                       doc_id % 256 AS bch
                FROM documents),
            cells AS (
                -- regenerate the 12x12 nearest-neighbor-resized
                -- raster: source pixel (y*side//12, x*side//12) of
                -- the deterministic gradient (integer, nonneg: //
                -- truncation == floor here)
                SELECT doc_id,
                       ((((gy.y * side) // 12)
                         + ((gx.x * side) // 12)) * k1) % 256 AS r,
                       bch AS b
                FROM prm,
                     generate_series(0, 11) AS gy(y),
                     generate_series(0, 11) AS gx(x)),
            ch AS (
                SELECT doc_id, r, (r * 2) % 256 AS g2, b FROM cells),
            st AS (
                SELECT doc_id,
                       avg((r + g2 + b) / 3.0) AS mu,
                       avg((r*r + g2*g2 + b*b) / 3.0) AS m2
                FROM ch GROUP BY doc_id)
            SELECT doc_id,
                   CAST(floor(mu * 1e3 + 0.5) AS BIGINT)
                       AS px_mean_e3,
                   CAST(floor(sqrt(greatest(m2 - mu * mu, 0))
                        * 1e3 + 0.5) AS BIGINT) AS px_std_e3
            FROM st ORDER BY doc_id
        """,
        "multimodal_audio": """
            WITH prm AS (
                SELECT doc_id,
                       800 + (doc_id % 5) * 160 AS n,
                       16 + (doc_id % 32) AS p,
                       12000 + (doc_id % 7) * 1000 AS a
                FROM documents),
            s AS (
                -- lateral column args to generate_series are not
                -- supported: cross-join the max grid, filter k < n.
                -- DuckDB's // truncates toward zero; numpy floors —
                -- floor explicitly (numerator < 2^21, double-exact)
                SELECT doc_id, n, g.k AS k,
                       CAST(floor(CAST(a * (2 * abs(2 * (g.k % p) - p)
                                            - p) AS DOUBLE) / p)
                            AS BIGINT) AS x
                FROM prm, generate_series(0, 1439) AS g(k)
                WHERE g.k < n),
            z AS (
                SELECT doc_id, n, x,
                       CASE WHEN x < 0 THEN 1 ELSE 0 END AS neg,
                       lag(CASE WHEN x < 0 THEN 1 ELSE 0 END) OVER (
                           PARTITION BY doc_id ORDER BY k) AS pneg
                FROM s)
            SELECT doc_id,
                   CAST(max(n) AS BIGINT) AS n_samples,
                   CAST(floor(sqrt(avg(pow(x / 32768.0, 2)))
                        * 1e6 + 0.5) AS BIGINT) AS rms_e6,
                   CAST(floor(CAST(sum(CASE WHEN pneg IS NOT NULL
                                AND neg <> pneg THEN 1 ELSE 0 END)
                            AS DOUBLE) / (max(n) - 1) * 1e6 + 0.5)
                        AS BIGINT) AS zcr_e6
            FROM z GROUP BY doc_id ORDER BY doc_id
        """,
        "events_time_rollup": """
            SELECT CAST(EXTRACT(day FROM ts) AS BIGINT) AS dy,
                   CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hr,
                   CAST(sum(CAST(floor(value * 100 + 0.5)
                        AS BIGINT)) AS BIGINT) AS sum_v100,
                   CAST(CASE grouping(EXTRACT(day FROM ts),
                                      EXTRACT(hour FROM ts))
                        WHEN 0 THEN 0 WHEN 1 THEN 1
                        ELSE 2 END AS BIGINT) AS lvl
            FROM events
            GROUP BY ROLLUP (EXTRACT(day FROM ts),
                             EXTRACT(hour FROM ts))
            ORDER BY lvl, dy, hr
        """,
        "user_max_drawdown": """
            WITH w AS (
                SELECT user_id,
                       value - max(value) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS dd
                FROM events)
            SELECT user_id, min(dd) AS max_drawdown
            FROM w GROUP BY user_id ORDER BY user_id
        """,
        "events_record_highs": """
            WITH w AS (
                SELECT event_id, ts, value,
                       max(value) OVER (ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS wm
                FROM events),
            l AS (
                SELECT event_id, ts, value, wm,
                       lag(wm) OVER (ORDER BY ts, event_id) AS pwm
                FROM w)
            SELECT event_id, ts, value
            FROM l WHERE value = wm AND (pwm IS NULL OR wm > pwm)
            ORDER BY event_id
        """,
        "user_markov_divergence": """
            WITH lagged AS (
                SELECT user_id,
                       coalesce(lag(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id), chr(0)) AS p,
                       coalesce(event_type, chr(0)) AS c
                FROM events),
            u AS (
                SELECT user_id, p, c,
                       CAST(count(*) AS BIGINT) AS nu
                FROM lagged GROUP BY 1, 2, 3),
            g AS (
                SELECT p, c, CAST(sum(nu) AS BIGINT) AS n
                FROM u GROUP BY 1, 2),
            gt AS (
                SELECT p, CAST(sum(n) AS BIGINT) AS tot
                FROM g GROUP BY 1),
            ut AS (
                SELECT user_id, p, CAST(sum(nu) AS BIGINT) AS utot
                FROM u GROUP BY 1, 2),
            d AS (
                SELECT u.user_id, u.nu,
                       abs(CAST(u.nu AS HUGEINT) * 1000000 // ut.utot
                           - CAST(g.n AS HUGEINT) * 1000000 // gt.tot)
                           AS dev
                FROM u
                JOIN g ON u.p = g.p AND u.c = g.c
                JOIN gt ON u.p = gt.p
                JOIN ut ON u.user_id = ut.user_id AND u.p = ut.p)
            SELECT user_id,
                   CAST(sum(nu) AS BIGINT) AS n_transitions,
                   CAST(sum(dev) AS BIGINT) AS div_x1m
            FROM d GROUP BY user_id
            ORDER BY div_x1m DESC, user_id LIMIT 20
        """,
        "nation_market_share": """
            WITH e AS (
                SELECT EXTRACT(year FROM o_orderdate) AS o_year,
                       CAST(floor(l_extendedprice * (1 - l_discount)
                            * 100 + 0.5) AS BIGINT) AS rev100,
                       CASE WHEN s_nationkey = 3 THEN 1 ELSE 0 END
                           AS is_nat
                FROM lineitem
                JOIN part ON l_partkey = p_partkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN orders ON l_orderkey = o_orderkey
                JOIN customer ON o_custkey = c_custkey
                JOIN nation n1 ON c_nationkey = n1.n_nationkey
                JOIN region ON n1.n_regionkey = r_regionkey
                WHERE p_type = 'PROMO' AND r_name = 'EUROPE')
            SELECT CAST(o_year AS BIGINT) AS o_year,
                   CAST(sum(is_nat * rev100) AS BIGINT)
                       AS rev_nation_e2,
                   CAST(sum(rev100) AS BIGINT) AS rev_total_e2,
                   CAST(CAST(sum(is_nat * rev100) AS HUGEINT)
                        * 1000000 // CAST(sum(rev100) AS HUGEINT)
                        AS BIGINT) AS mkt_share_x1m
            FROM e GROUP BY o_year ORDER BY o_year
        """,
        "top_revenue_supplier": """
            WITH r AS (
                SELECT l_suppkey,
                       CAST(sum(CAST(floor(l_extendedprice
                            * (1 - l_discount) * 100 + 0.5)
                            AS BIGINT)) AS BIGINT) AS total_rev_e2
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate < TIMESTAMP '1996-04-01'
                GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, total_rev_e2
            FROM r JOIN supplier ON l_suppkey = s_suppkey
            WHERE total_rev_e2 = (SELECT max(total_rev_e2) FROM r)
            ORDER BY s_suppkey
        """,
        "disjunctive_part_revenue": """
            SELECT CAST(coalesce(sum(
                       CAST(floor(l_extendedprice * 100 + 0.5)
                            AS BIGINT)
                       * (100 - CAST(floor(l_discount * 100 + 0.5)
                                     AS BIGINT))), 0) AS BIGINT)
                       AS revenue_e4,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#19' AND p_size BETWEEN 1 AND 5
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#8' AND p_size BETWEEN 1 AND 10
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "part_primary_supplier": """
            WITH ps AS (
                SELECT l_partkey, l_suppkey,
                       CAST(sum(CAST(floor(l_quantity * 100 + 0.5)
                            AS BIGINT)) AS BIGINT) AS q100
                FROM lineitem GROUP BY 1, 2),
            tot AS (
                SELECT l_partkey, CAST(sum(q100) AS BIGINT) AS t100,
                       CAST(count(*) AS BIGINT) AS n_suppliers
                FROM ps GROUP BY 1),
            rk AS (
                SELECT ps.l_partkey, ps.l_suppkey, ps.q100,
                       tot.t100, tot.n_suppliers,
                       row_number() OVER (PARTITION BY ps.l_partkey
                           ORDER BY ps.q100 DESC, ps.l_suppkey)
                           AS rn
                FROM ps JOIN tot ON ps.l_partkey = tot.l_partkey)
            SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
                   q100 AS qty100_supp, t100 AS qty100_part,
                   n_suppliers,
                   CAST(CAST(q100 AS HUGEINT) * 1000000
                        // CAST(t100 AS HUGEINT) AS BIGINT)
                       AS share_x1m
            FROM rk WHERE rn = 1 AND n_suppliers >= 2
            ORDER BY p_partkey
        """,
        "nation_trade_matrix": """
            SELECT n1.n_name AS cust_nation,
                   n2.n_name AS supp_nation,
                   CAST(sum(CAST(floor(l_extendedprice
                                       * (1 - l_discount) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_e2
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation n1 ON c_nationkey = n1.n_nationkey
            JOIN nation n2 ON s_nationkey = n2.n_nationkey
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "user_online_coverage": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS tu,
                       lag(epoch_us(ts)) OVER (PARTITION BY user_id
                         ORDER BY ts) AS prev
                FROM events WHERE ts IS NOT NULL
            ), f AS (
                SELECT user_id, tu,
                       CASE WHEN prev IS NULL
                                 OR tu - prev > 300000000
                            THEN 1 ELSE 0 END AS new_s
                FROM o
            ), s AS (
                SELECT user_id, tu,
                       sum(new_s) OVER (PARTITION BY user_id
                         ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                FROM f
            ), sess AS (
                SELECT user_id, max(tu) - min(tu) + 300000000 AS cov
                FROM s GROUP BY user_id, sid
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_intervals,
                   CAST(sum(cov) AS BIGINT) AS covered_us
            FROM sess GROUP BY user_id ORDER BY user_id
        """,
        "orders_price_by_date_decile": """
            WITH t AS (
                SELECT ntile(10) OVER (ORDER BY o_orderdate,
                                       o_orderkey) AS decile,
                       CAST(floor(o_totalprice * 100 + 0.5)
                            AS BIGINT) AS p
                FROM orders
            )
            SELECT CAST(decile AS BIGINT) AS decile,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(p) AS BIGINT) AS sum_price_e2,
                   CAST(sum(p) // count(*) AS BIGINT)
                       AS mean_price_e2
            FROM t GROUP BY decile ORDER BY decile
        """,
        "events_value_locf": """
            WITH g AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN event_id % 7 = 0 THEN NULL
                            ELSE CAST(floor(value * 100 + 0.5)
                                      AS BIGINT) END AS v
                FROM events
            )
            SELECT event_id, user_id,
                   last_value(v IGNORE NULLS) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS v_filled_e2
            FROM g ORDER BY event_id
        """,
        "orders_pareto_share": """
            WITH s AS (
                SELECT o_custkey,
                       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS spend
                FROM orders GROUP BY o_custkey
            ), t AS (
                SELECT quantile_disc(spend, 0.95) AS thr FROM s
            )
            SELECT (SELECT thr FROM t) AS spend_p95_e2,
                   CAST(count(*) FILTER (WHERE spend >= thr)
                        AS BIGINT) AS n_top,
                   CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(CAST(sum(spend) FILTER (WHERE spend >= thr)
                             AS HUGEINT) * 1000000
                        // CAST(sum(spend) AS HUGEINT) AS BIGINT)
                       AS top_share_e6
            FROM s, t
        """,
        "events_value_autocorr": """
            WITH q AS (
                SELECT user_id, event_id, ts,
                       CAST(floor(value * 10 + 0.5) AS BIGINT) AS v
                FROM events
            ), l AS (
                SELECT user_id, v AS y,
                       lag(v) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS x
                FROM q
            ), p AS (
                SELECT user_id,
                       CAST(count(*) AS HUGEINT) AS n,
                       CAST(sum(x) AS HUGEINT) AS sx,
                       CAST(sum(y) AS HUGEINT) AS sy,
                       CAST(sum(x * y) AS HUGEINT) AS sxy,
                       CAST(sum(x * x) AS HUGEINT) AS sxx,
                       CAST(sum(y * y) AS HUGEINT) AS syy
                FROM l WHERE x IS NOT NULL AND y IS NOT NULL
                GROUP BY user_id
            )
            SELECT user_id,
                   CASE WHEN n < 2 OR (n * sxx - sx * sx)
                             * (n * syy - sy * sy) = 0 THEN NULL
                        ELSE CAST(
                          CASE WHEN n * sxy - sx * sy < 0 THEN
                            -(((n * sxy - sx * sy)
                               * (n * sxy - sx * sy) * 1000000)
                              // ((n * sxx - sx * sx)
                                  * (n * syy - sy * sy)))
                          ELSE
                            (((n * sxy - sx * sy)
                              * (n * sxy - sx * sy) * 1000000)
                             // ((n * sxx - sx * sx)
                                 * (n * syy - sy * sy)))
                          END AS BIGINT)
                   END AS corr2_e6
            FROM p ORDER BY user_id
        """,
        "docs_ngram_novelty": r"""
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), shs AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), sh AS (
                SELECT DISTINCT doc_id, hash(shingle) AS h FROM shs
            ), f AS (
                SELECT h, min(doc_id) AS first_doc FROM sh GROUP BY h
            ), agg AS (
                SELECT sh.doc_id, count(*) AS n_shingles,
                       count(*) FILTER (WHERE f.first_doc = sh.doc_id)
                           AS n_novel
                FROM sh JOIN f USING (h) GROUP BY sh.doc_id
            )
            SELECT doc_id, CAST(n_shingles AS BIGINT) AS n_shingles,
                   CAST(n_novel AS BIGINT) AS n_novel,
                   CAST(n_novel * 1000000 // n_shingles AS BIGINT)
                       AS novelty_e6
            FROM agg ORDER BY doc_id
        """,
        "events_peak_hour_rate": """
            WITH w AS (
                SELECT DISTINCT user_id, ts,
                       count(value) OVER (PARTITION BY user_id
                           ORDER BY ts
                           RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                     AND CURRENT ROW) AS c
                FROM events
            )
            SELECT user_id, CAST(max(c) AS BIGINT) AS peak_1h
            FROM w GROUP BY user_id ORDER BY user_id
        """,
        "orders_rfm_segments": """
            WITH a AS (
                SELECT o_custkey,
                       max(epoch_us(o_orderdate)) AS last_us,
                       count(*) AS f,
                       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS m
                FROM orders GROUP BY o_custkey
            ), b AS (
                SELECT o_custkey,
                       (SELECT max(last_us) FROM a) - last_us AS back,
                       f, m
                FROM a
            ), c AS (
                SELECT o_custkey, back // 86400000000 AS r, f, m
                FROM b
            ), q AS (
                SELECT quantile_disc(r, 0.25) AS r1,
                       quantile_disc(r, 0.5) AS r2,
                       quantile_disc(r, 0.75) AS r3,
                       quantile_disc(f, 0.25) AS f1,
                       quantile_disc(f, 0.5) AS f2,
                       quantile_disc(f, 0.75) AS f3,
                       quantile_disc(m, 0.25) AS m1,
                       quantile_disc(m, 0.5) AS m2,
                       quantile_disc(m, 0.75) AS m3
                FROM c
            )
            SELECT o_custkey,
                   CAST(CASE WHEN r <= r1 THEN 1 WHEN r <= r2 THEN 2
                        WHEN r <= r3 THEN 3 ELSE 4 END AS BIGINT)
                       AS r_q,
                   CAST(CASE WHEN f <= f1 THEN 1 WHEN f <= f2 THEN 2
                        WHEN f <= f3 THEN 3 ELSE 4 END AS BIGINT)
                       AS f_q,
                   CAST(CASE WHEN m <= m1 THEN 1 WHEN m <= m2 THEN 2
                        WHEN m <= m3 THEN 3 ELSE 4 END AS BIGINT)
                       AS m_q,
                   CAST(r AS BIGINT) AS recency_days,
                   CAST(f AS BIGINT) AS n_orders,
                   m AS spend_e2
            FROM c, q ORDER BY o_custkey
        """,
        "user_value_trend": """
            WITH m AS (SELECT min(epoch_us(ts)) AS mn FROM events),
            e AS (
                SELECT user_id,
                       (epoch_us(ts) - mn) // 1000000 AS x,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
                FROM events, m WHERE value IS NOT NULL
            ), a AS (
                SELECT user_id,
                       CAST(count(*) AS HUGEINT) AS n,
                       CAST(sum(x) AS HUGEINT) AS sx,
                       CAST(sum(y) AS HUGEINT) AS sy,
                       CAST(sum(x * y) AS HUGEINT) AS sxy,
                       CAST(sum(x * x) AS HUGEINT) AS sxx
                FROM e GROUP BY user_id
            )
            SELECT user_id,
                   CASE WHEN n * sxx - sx * sx = 0 THEN NULL
                        ELSE CAST(((n * sxy - sx * sy)
                                   * 1000000000)
                                  // (n * sxx - sx * sx) AS BIGINT)
                   END AS slope_e9
            FROM a ORDER BY user_id
        """,
        "embedding_outliers": r"""
            WITH e AS (
                SELECT vec_id,
                       CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5)
                            AS BIGINT) AS xi,
                       i
                FROM (SELECT vec_id, unnest(embedding) AS x,
                             generate_subscripts(embedding, 1) AS i
                      FROM embeddings
                      WHERE embedding IS NOT NULL)
            ), s AS (
                SELECT i, CAST(sum(xi) AS HUGEINT) AS sd,
                       CAST(count(DISTINCT vec_id) AS HUGEINT) AS nd
                FROM e GROUP BY i
            ), nn AS (
                SELECT CAST(count(*) AS HUGEINT) AS n
                FROM embeddings WHERE embedding IS NOT NULL
            ), d AS (
                SELECT e.vec_id,
                       sum((CAST(e.xi AS HUGEINT) * nn.n - s.sd)
                           * (CAST(e.xi AS HUGEINT) * nn.n - s.sd))
                           AS d2
                FROM e JOIN s USING (i) CROSS JOIN nn
                GROUP BY e.vec_id
            )
            SELECT vec_id, CAST(d2 AS BIGINT) AS dist2_fp
            FROM d ORDER BY d2 DESC, vec_id LIMIT 20
        """,
        "events_seasonal_residuals": """
            WITH d AS (
                SELECT CAST(floor(epoch_us(ts) / 86400000000)
                            * 86400000000 AS BIGINT) AS day_us,
                       count(*) AS n
                FROM events GROUP BY 1
            ), w AS (
                SELECT day_us, n,
                       (day_us // 86400000000) % 7 AS wd
                FROM d
            ), m AS (
                SELECT wd,
                       sum(n) * 1000000 // count(*) AS mean_e6
                FROM w GROUP BY wd
            )
            SELECT w.day_us, CAST(w.n AS BIGINT) AS n_events,
                   CAST(w.wd AS BIGINT) AS wd,
                   CAST(m.mean_e6 AS BIGINT) AS wd_mean_e6,
                   CAST(w.n * 1000000 - m.mean_e6 AS BIGINT)
                       AS resid_e6
            FROM w JOIN m USING (wd) ORDER BY w.day_us
        """,
        "docs_oov_rate": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(text, '\s+'))
                           AS term
                FROM documents
            ), t2 AS (
                SELECT doc_id, term FROM toks WHERE term <> ''
            ), tc AS (
                SELECT term, count(*) AS cnt FROM t2 GROUP BY term
            ), vocab AS (
                SELECT term FROM tc ORDER BY cnt DESC, term LIMIT 500
            ), agg AS (
                SELECT t2.doc_id, count(*) AS n_tokens,
                       count(*) FILTER (WHERE v.term IS NULL)
                           AS n_oov
                FROM t2 LEFT JOIN vocab v USING (term)
                GROUP BY t2.doc_id
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(n_oov AS BIGINT) AS n_oov,
                   CAST(n_oov * 1000000 // n_tokens AS BIGINT)
                       AS oov_e6
            FROM agg ORDER BY doc_id
        """,
        "corpus_integrity": """
            WITH ml AS (
                SELECT min(len(embedding)) AS d FROM embeddings
                WHERE embedding IS NOT NULL
            )
            SELECT 'missing_embedding' AS chk, CAST(count(*) AS BIGINT)
                       AS n_bad
            FROM (SELECT doc_id FROM documents
                  EXCEPT SELECT vec_id FROM embeddings)
            UNION ALL
            SELECT 'null_embedding', CAST(count(*) AS BIGINT)
            FROM embeddings WHERE embedding IS NULL
            UNION ALL
            SELECT 'orphan_embedding', CAST(count(*) AS BIGINT)
            FROM (SELECT vec_id FROM embeddings
                  EXCEPT SELECT doc_id FROM documents)
            UNION ALL
            SELECT 'ragged_dim', CAST(count(*) AS BIGINT)
            FROM embeddings, ml
            WHERE embedding IS NOT NULL AND len(embedding) <> d
        """,
        "parts_copurchase": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ), pairs AS (
                SELECT a.l_partkey AS part_a, b.l_partkey AS part_b
                FROM lp a JOIN lp b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey
            )
            SELECT part_a, part_b,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM pairs GROUP BY part_a, part_b
            ORDER BY n_orders DESC, part_a, part_b
            LIMIT 20
        """,
        "session_concurrency": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS tu,
                       lag(epoch_us(ts)) OVER (PARTITION BY user_id
                         ORDER BY ts) AS prev
                FROM events WHERE ts IS NOT NULL
            ), f AS (
                SELECT user_id, tu,
                       CASE WHEN prev IS NULL
                                 OR tu - prev > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM o
            ), s AS (
                SELECT user_id, tu,
                       sum(new_s) OVER (PARTITION BY user_id
                         ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                FROM f
            ), sess AS (
                SELECT user_id, min(tu) AS st, max(tu) AS en
                FROM s GROUP BY user_id, sid
            ), d AS (
                SELECT st AS t, 1 AS ds_, 0 AS de FROM sess
                UNION ALL
                SELECT en + 1, 0, 1 FROM sess
            ), u AS (
                SELECT t, sum(ds_) AS ns, sum(de) AS ne
                FROM d GROUP BY t
            ), r AS (
                SELECT t, ns,
                       sum(ns) OVER (ORDER BY t)
                           - sum(ne) OVER (ORDER BY t) AS conc
                FROM u
            )
            SELECT CAST(t AS BIGINT) AS start_us,
                   CAST(ns AS BIGINT) AS n_starts,
                   CAST(conc AS BIGINT) AS concurrency
            FROM r WHERE ns > 0 ORDER BY start_us
        """,
        "drift_value_psi": """
            WITH b AS (
                SELECT min(ts) + INTERVAL 15 DAY AS split FROM events
            ), e AS (
                SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       ts < (SELECT split FROM b) AS is_ref
                FROM events WHERE value IS NOT NULL
            ), q AS (
                SELECT quantile_disc(v, 0.25) AS e1,
                       quantile_disc(v, 0.5) AS e2,
                       quantile_disc(v, 0.75) AS e3
                FROM e WHERE is_ref
            ), binned AS (
                SELECT is_ref,
                       CASE WHEN v <= e1 THEN 0
                            WHEN v <= e2 THEN 1
                            WHEN v <= e3 THEN 2
                            ELSE 3 END AS bin
                FROM e, q
            ), rc AS (
                SELECT bin, count(*) AS c FROM binned
                WHERE is_ref GROUP BY bin
            ), ac AS (
                SELECT bin, count(*) AS c FROM binned
                WHERE NOT is_ref GROUP BY bin
            ), parts AS (
                SELECT greatest(CAST(coalesce(r.c, 0) AS DOUBLE)
                           / greatest((SELECT sum(c) FROM rc), 1),
                           1e-6) AS pe,
                       greatest(CAST(coalesce(a.c, 0) AS DOUBLE)
                           / greatest((SELECT sum(c) FROM ac), 1),
                           1e-6) AS pa
                FROM rc r FULL OUTER JOIN ac a USING (bin)
            )
            SELECT 'value' AS col, 'psi_q4' AS metric,
                   CAST(floor(sum((pa - pe) * ln(pa / pe)) * 1e6
                              + 0.5) AS BIGINT) AS psi_e6
            FROM parts
        """,
        "events_rolling_distinct": """
            WITH e AS (
                SELECT event_id, user_id, ts,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
                FROM events
            )
            SELECT event_id, user_id,
                   CAST(count(DISTINCT v) OVER w AS BIGINT)
                       AS win_distinct,
                   CAST(count(v) OVER w AS BIGINT) AS win_cnt
            FROM e WINDOW w AS (PARTITION BY user_id
                ORDER BY ts, event_id
                ROWS BETWEEN 7 PRECEDING AND CURRENT ROW)
        """,
        "user_decayed_value": """
            WITH m AS (SELECT max(ts) AS mt FROM events),
            e AS (
                SELECT user_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       (epoch_us(mt) - epoch_us(ts))
                           // 604800000000 AS age_w
                FROM events, m
            )
            SELECT user_id,
                   CAST(sum(v * (CAST(1 AS BIGINT) << (20 - age_w)))
                        AS BIGINT) AS decayed_e2_fp20
            FROM e WHERE age_w <= 20
            GROUP BY user_id ORDER BY user_id
        """,
        "events_rolling_extrema": """
            WITH e AS (
                SELECT event_id, user_id, ts,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
                FROM events
            )
            SELECT event_id, user_id,
                   min(v) OVER w AS min_e2,
                   max(v) OVER w AS max_e2,
                   CAST(count(v) OVER w AS BIGINT) AS win_cnt
            FROM e WINDOW w AS (PARTITION BY user_id
                ORDER BY ts, event_id
                ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        "user_twap": """
            WITH e AS (
                SELECT user_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       (epoch_us(lead(ts) OVER (PARTITION BY user_id
                                                ORDER BY ts, event_id))
                        - epoch_us(ts)) // 1000 AS dt_ms
                FROM events
            )
            SELECT user_id,
                   CAST(sum(v * dt_ms) AS BIGINT) AS twap_num_e2,
                   CAST(sum(dt_ms) AS BIGINT) AS span_ms
            FROM e GROUP BY user_id ORDER BY user_id
        """,
        "doc_fingerprints": _fingerprint_sql(),
        "docs_shared_spans": _shared_spans_sql(),
        "embedding_kmeans": _kmeans_sql(k=4, n_iter=3),
        "embedding_kmeans_inertia": _kmeans_sql(k=4, n_iter=3,
                                                inertia=True),
        "docs_leakage_free_split": f"""
            WITH RECURSIVE words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                                    AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            ), pairs AS (
                SELECT id_a, id_b
                FROM inter
                JOIN cnt ca ON ca.doc_id = id_a
                JOIN cnt cb ON cb.doc_id = id_b
                WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ), edges AS (
                SELECT id_a AS n, id_b AS m FROM pairs
                UNION
                SELECT id_b, id_a FROM pairs
            ), reach AS (
                SELECT n, n AS m FROM edges
                UNION
                SELECT e.n, r.m
                FROM edges e JOIN reach r ON e.m = r.n
            ), comp AS (
                SELECT n AS doc_id, min(m) AS component
                FROM reach GROUP BY n
            ), unit AS (
                SELECT d.doc_id,
                       coalesce(c.component, d.doc_id) AS unit,
                       CASE WHEN c.doc_id IS NULL THEN 0 ELSE 1 END
                         AS is_dup
                FROM documents d LEFT JOIN comp c
                  ON d.doc_id = c.doc_id
            ), sp AS (
                SELECT CASE WHEN {splitmix64_sql('unit')}
                            < CAST({int(0.8 * float(1 << 64))}
                                   AS UBIGINT)
                       THEN 0 ELSE 1 END AS split, is_dup
                FROM unit
            )
            SELECT v.split,
                   CAST(coalesce(g.n_docs, 0) AS BIGINT) AS n_docs,
                   CAST(coalesce(g.n_dup, 0) AS BIGINT) AS n_dup_docs
            FROM (VALUES (CAST(0 AS BIGINT)), (CAST(1 AS BIGINT)))
                 v(split)
            LEFT JOIN (SELECT split, count(*) AS n_docs,
                              sum(is_dup) AS n_dup
                       FROM sp GROUP BY split) g
              ON v.split = g.split
            ORDER BY v.split
        """,
        "events_daily_quota": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(floor(epoch_us(ts) / 86400000000)
                          * 86400000000 AS BIGINT) AS day_us
              FROM events)
            SELECT event_id, user_id, day_us, CAST(rn AS BIGINT) AS rn
            FROM (SELECT event_id, user_id, day_us,
                         row_number() OVER (
                           PARTITION BY user_id, day_us
                           ORDER BY ts, event_id) AS rn
                  FROM e)
            WHERE rn <= 3
            ORDER BY event_id
        """,
        "events_csv_roundtrip": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(event_id) AS BIGINT) AS event_id_sum,
                   CAST(min(user_id) AS BIGINT) AS user_id_min,
                   CAST(max(user_id) AS BIGINT) AS user_id_max
            FROM events
            GROUP BY event_type ORDER BY event_type
        """,
        "docs_jsonl_roundtrip": """
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS n_chars_sum,
                   CAST(min(doc_id) AS BIGINT) AS doc_id_min,
                   CAST(max(doc_id) AS BIGINT) AS doc_id_max
            FROM documents
            GROUP BY lang ORDER BY lang
        """,
        "revenue_by_region": """
            SELECT r_name,
                   CAST(sum(CAST(floor(l_extendedprice
                        * (1 - l_discount) * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue100,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name ORDER BY r_name
        """,
        "lineitem_weighted_median_price": """
            WITH t AS (
              SELECT l_returnflag,
                     CAST(floor(l_extendedprice * 100 + 0.5)
                          AS BIGINT) AS v,
                     CAST(floor(l_quantity + 0.5) AS BIGINT) AS w,
                     l_orderkey * 10 + l_linenumber AS tb
              FROM lineitem),
            w2 AS (
              SELECT l_returnflag, v,
                     sum(w) OVER (PARTITION BY l_returnflag
                                  ORDER BY v, tb
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS cum,
                     sum(w) OVER (PARTITION BY l_returnflag) AS tot
              FROM t)
            SELECT l_returnflag,
                   CAST(min(v) AS BIGINT) AS wmedian_e2
            FROM w2 WHERE 2 * cum >= tot
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "events_systematic_sample": """
            WITH r AS (
              SELECT event_id,
                     CAST(row_number() OVER (ORDER BY ts, event_id)
                          AS BIGINT) AS seq
              FROM events)
            SELECT event_id, seq FROM r WHERE seq % 50 = 1
            ORDER BY seq
        """,
        "events_session_assignment": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS tu
              FROM events),
            l AS (
              SELECT event_id, user_id, tu,
                     lag(tu) OVER (PARTITION BY user_id
                                   ORDER BY tu, event_id) AS prev
              FROM e),
            m AS (
              SELECT event_id, user_id, tu,
                     CASE WHEN prev IS NULL
                               OR tu - prev > 1800000000
                          THEN tu END AS start
              FROM l)
            SELECT event_id, user_id,
                   CAST(last_value(start IGNORE NULLS)
                        OVER (PARTITION BY user_id
                              ORDER BY tu, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS BIGINT)
                       AS session_start_us
            FROM m
        """,
        "events_value_interp": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS tu,
                     CASE WHEN value IS NULL THEN NULL
                          ELSE CAST(floor(CAST(value AS DOUBLE)
                                          * 1e4 + 0.5) AS BIGINT)
                     END AS ve
              FROM events),
            w AS (
              SELECT event_id, user_id, tu, ve,
                     last_value(ve IGNORE NULLS) OVER pw AS vp,
                     last_value(CASE WHEN ve IS NOT NULL THEN tu END
                                IGNORE NULLS) OVER pw AS tp,
                     first_value(ve IGNORE NULLS) OVER nw AS vn,
                     first_value(CASE WHEN ve IS NOT NULL THEN tu
                                 END IGNORE NULLS) OVER nw AS tn
              FROM e WINDOW
                pw AS (PARTITION BY user_id ORDER BY tu, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND CURRENT ROW),
                nw AS (PARTITION BY user_id ORDER BY tu, event_id
                       ROWS BETWEEN CURRENT ROW
                       AND UNBOUNDED FOLLOWING))
            SELECT event_id, user_id,
                   CAST(CASE
                     WHEN ve IS NOT NULL THEN ve
                     WHEN vp IS NULL OR vn IS NULL THEN NULL
                     ELSE vp + CASE
                       WHEN (tn - tp) // 1000 > 0 THEN
                         CASE WHEN (vn - vp) * ((tu - tp) // 1000)
                                   >= 0
                           THEN ((vn - vp) * ((tu - tp) // 1000))
                                // ((tn - tp) // 1000)
                           ELSE -((-((vn - vp)
                                     * ((tu - tp) // 1000)))
                                  // ((tn - tp) // 1000))
                         END
                       ELSE 0
                     END
                   END AS BIGINT) AS v_interp_e4
            FROM w
        """,
        "customer_name_near_dups": """
            SELECT a.c_custkey AS id_a, b.c_custkey AS id_b
            FROM customer a JOIN customer b
              ON len(a.c_name) = len(b.c_name)
             AND substr(a.c_name, 1, 16) = substr(b.c_name, 1, 16)
             AND a.c_custkey < b.c_custkey
            WHERE levenshtein(a.c_name, b.c_name) <= 1
            ORDER BY id_a, id_b
        """,
        "lang_mixture_allocation": """
            WITH c AS (
              SELECT lang, CAST(count(*) AS BIGINT) AS cnt
              FROM documents GROUP BY 1),
            t AS (SELECT CAST(sum(cnt) AS BIGINT) AS total FROM c),
            q AS (
              SELECT lang, cnt,
                     CAST(1000 * cnt // total AS BIGINT) AS base,
                     CAST(1000 * cnt % total AS BIGINT) AS rem
              FROM c, t),
            l AS (SELECT CAST(1000 - sum(base) AS BIGINT) AS extra
                  FROM q),
            r AS (
              SELECT lang, cnt, base,
                     row_number() OVER (ORDER BY rem DESC, lang)
                         AS rk
              FROM q)
            SELECT lang, cnt,
                   CAST(base + CASE WHEN rk <= extra THEN 1 ELSE 0
                        END AS BIGINT) AS alloc
            FROM r, l ORDER BY lang
        """,
        "transcript_stats": f"""
            WITH t AS (
              SELECT * FROM read_parquet('{_protocol_corpus_glob()}'))
            SELECT 'conv_id' AS column, CAST(count(*) AS BIGINT)
                       AS cnt,
                   CAST(count(*) - count(conv_id) AS BIGINT) AS nulls
            FROM t
            UNION ALL SELECT 'role', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(role) AS BIGINT) FROM t
            UNION ALL SELECT 'text', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(text) AS BIGINT) FROM t
            UNION ALL SELECT 'tool', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(tool) AS BIGINT) FROM t
            UNION ALL SELECT 'ts', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(ts) AS BIGINT) FROM t
            UNION ALL SELECT 'turn_idx', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(turn_idx) AS BIGINT) FROM t
            ORDER BY "column"
        """,
        "transcript_tool_args": f"""
            WITH t AS (
                SELECT conv_id, turn_idx,
                       CAST(substr(conv_id, 6) AS BIGINT) AS cnum,
                       CAST(substr(tool, 6) AS BIGINT) AS tnum
                FROM read_parquet('{_protocol_corpus_glob()}')
                WHERE role = 'tool' AND tool IS NOT NULL
                  AND regexp_matches(tool, '^tool-(1?[0-9])$')
                  AND regexp_matches(conv_id, '^conv-[0-9]{{8}}$')
                  AND turn_idx BETWEEN 0 AND 1023
            ), hh AS (
                SELECT conv_id, turn_idx, tnum // 5 AS fam,
                       {splitmix64_sql('cnum * 1024 + turn_idx',
                                       TOOL_ARGS_SEED)} AS h
                FROM t
            ), v AS (
                SELECT conv_id, turn_idx, 'search' AS family,
                       '#/args/query' AS path,
                       'min_length_failed' AS error_type
                FROM hh WHERE fam = 0 AND h % 97 < 5
                UNION ALL
                SELECT conv_id, turn_idx, 'search', '#/args/limit',
                       'max_failed'
                FROM hh WHERE fam = 0 AND h % 101 >= 4
                  AND (h >> 8) % 110 >= 100
                UNION ALL
                SELECT conv_id, turn_idx, 'search', '#/args',
                       'required_failed'
                FROM hh WHERE fam = 0 AND h % 101 < 4
                UNION ALL
                SELECT conv_id, turn_idx, 'file', '#/args/path',
                       'pattern_failed'
                FROM hh WHERE fam = 1 AND h % 89 < 4
                UNION ALL
                SELECT conv_id, turn_idx, 'file', '#/args/bytes',
                       'min_failed'
                FROM hh WHERE fam = 1 AND h % 83 < 3
                UNION ALL
                SELECT conv_id, turn_idx, 'exec', '#/args/cmd',
                       'min_length_failed'
                FROM hh WHERE fam = 2 AND h % 79 < 4
                UNION ALL
                SELECT conv_id, turn_idx, 'exec', '#/args/timeout',
                       'multiple_of_failed'
                FROM hh WHERE fam = 2 AND h % 73 < 6
                UNION ALL
                SELECT conv_id, turn_idx, 'net', '#/args/url',
                       'pattern_failed'
                FROM hh WHERE fam = 3 AND h % 71 < 5
                UNION ALL
                SELECT conv_id, turn_idx, 'net', '#/args/retries',
                       'max_failed'
                FROM hh WHERE fam = 3 AND (h >> 8) % 8 > 5
            )
            SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
                   family, path, error_type
            FROM v ORDER BY conv_id, turn_idx, path
        """,
        "transcript_tool_usage": f"""
            SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
                   CAST(sum(CASE WHEN role = 'tool' THEN 1 ELSE 0
                            END) AS BIGINT) AS n_tool_turns,
                   CAST(count(DISTINCT tool) AS BIGINT) AS n_tools,
                   CAST(max(epoch_us(ts)) - min(epoch_us(ts))
                        AS BIGINT) AS span_us
            FROM read_parquet('{_protocol_corpus_glob()}')
            GROUP BY conv_id
        """,
        "shipping_priority": """
            SELECT l_orderkey,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                 AS BIGINT)
                            * (100 - CAST(floor(l_discount * 100
                                               + 0.5) AS BIGINT)))
                        AS BIGINT) AS revenue_e4,
                   o_orderdate, o_orderpriority
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1996-03-15'
              AND l_shipdate > TIMESTAMP '1996-03-15'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue_e4 DESC, o_orderdate, l_orderkey
            LIMIT 10
        """,
        "user_activity_gini": """
            WITH c AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS x
              FROM events WHERE user_id IS NOT NULL GROUP BY 1),
            r AS (
              SELECT x, CAST(row_number() OVER (ORDER BY x, user_id)
                             AS BIGINT) AS i
              FROM c),
            s AS (
              SELECT CAST(sum(x) AS HUGEINT) AS s0,
                     CAST(sum(i * x) AS HUGEINT) AS s1,
                     CAST(count(*) AS HUGEINT) AS n
              FROM r)
            SELECT CAST((2 * s1 - (n + 1) * s0) * 1000000
                        // (n * s0) AS BIGINT) AS gini_e6,
                   CAST(n AS BIGINT) AS n_users
            FROM s
        """,
        "corpus_zipf_slope": """
            WITH toks AS (
              SELECT unnest(regexp_split_to_array(text, '\\s+')) AS t
              FROM documents),
            c AS (
              SELECT t AS term, CAST(count(*) AS BIGINT) AS cnt
              FROM toks WHERE t <> '' GROUP BY t),
            k AS (
              SELECT cnt,
                     row_number() OVER (ORDER BY cnt DESC, term) AS i
              FROM c QUALIFY i <= 1000),
            f AS (
              SELECT CAST(floor(ln(CAST(i AS DOUBLE)) * 1e6 + 0.5)
                          AS HUGEINT) AS x,
                     CAST(floor(ln(CAST(cnt AS DOUBLE)) * 1e6 + 0.5)
                          AS HUGEINT) AS y
              FROM k),
            s AS (
              SELECT CAST(count(*) AS HUGEINT) AS n,
                     sum(x) AS sx, sum(y) AS sy,
                     sum(x * y) AS sxy, sum(x * x) AS sxx
              FROM f)
            SELECT CAST(CASE WHEN n * sxy - sx * sy < 0
                        THEN -((sx * sy - n * sxy) * 1000000
                               // (n * sxx - sx * sx))
                        ELSE (n * sxy - sx * sy) * 1000000
                             // (n * sxx - sx * sx)
                        END AS BIGINT) AS slope_e6,
                   CAST(n AS BIGINT) AS n_terms
            FROM s
        """,
        "events_nearest_error": """
            WITH e AS (
              SELECT event_id, user_id, event_type,
                     epoch_us(ts) AS tu
              FROM events),
            w AS (
              SELECT event_id, user_id, tu,
                     max(CASE WHEN event_type = 'error' THEN tu END)
                         OVER (PARTITION BY user_id ORDER BY tu
                               RANGE BETWEEN UNBOUNDED PRECEDING
                               AND CURRENT ROW) AS prev_err,
                     min(CASE WHEN event_type = 'error' THEN tu END)
                         OVER (PARTITION BY user_id ORDER BY tu
                               RANGE BETWEEN CURRENT ROW
                               AND UNBOUNDED FOLLOWING) AS next_err
              FROM e)
            SELECT event_id, user_id,
                   CAST(CASE
                     WHEN prev_err IS NULL AND next_err IS NULL
                       THEN NULL
                     WHEN next_err IS NULL THEN prev_err - tu
                     WHEN prev_err IS NULL THEN next_err - tu
                     WHEN tu - prev_err <= next_err - tu
                       THEN prev_err - tu
                     ELSE next_err - tu
                   END AS BIGINT) AS nearest_err_us
            FROM w
        """,
        "user_daily_dense_counts": """
            WITH c AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                         AS day,
                     CAST(count(*) AS BIGINT) AS cnt
              FROM events GROUP BY 1, 2),
            b AS (SELECT user_id, min(day) AS d0, max(day) AS d1
                  FROM c GROUP BY 1),
            g AS (SELECT user_id,
                         unnest(generate_series(d0, d1)) AS day
                  FROM b)
            SELECT g.user_id, g.day,
                   CAST(coalesce(c.cnt, 0) AS BIGINT) AS cnt
            FROM g LEFT JOIN c
              ON g.user_id = c.user_id AND g.day = c.day
        """,
        "events_type_weekday_chi2": """
            WITH e AS (
              SELECT event_type,
                     CAST((epoch_us(ts) // 86400000000 + 4) % 7
                          AS BIGINT) AS weekday
              FROM events),
            c AS (SELECT event_type, weekday,
                         CAST(count(*) AS BIGINT) AS obs
                  FROM e GROUP BY 1, 2),
            tot AS (SELECT CAST(sum(obs) AS BIGINT) AS n FROM c),
            r AS (SELECT event_type, CAST(sum(obs) AS BIGINT) AS rt
                  FROM c GROUP BY 1),
            cl AS (SELECT weekday, CAST(sum(obs) AS BIGINT) AS ct
                   FROM c GROUP BY 1)
            SELECT c.event_type, c.weekday, c.obs,
                   CAST(floor(CAST(rt AS DOUBLE) * CAST(ct AS DOUBLE)
                              / CAST(n AS DOUBLE) * 1e6 + 0.5)
                        AS BIGINT) AS exp_e6,
                   CAST(floor(
                       (CAST(obs AS DOUBLE)
                        - CAST(rt AS DOUBLE) * CAST(ct AS DOUBLE)
                          / CAST(n AS DOUBLE))
                       * (CAST(obs AS DOUBLE)
                          - CAST(rt AS DOUBLE) * CAST(ct AS DOUBLE)
                            / CAST(n AS DOUBLE))
                       / (CAST(rt AS DOUBLE) * CAST(ct AS DOUBLE)
                          / CAST(n AS DOUBLE)) * 1e6 + 0.5)
                        AS BIGINT) AS contrib_e6
            FROM c
            JOIN r ON c.event_type = r.event_type
            JOIN cl ON c.weekday = cl.weekday
            CROSS JOIN tot
        """,
        "events_global_seq": """
            SELECT event_id,
                   CAST(row_number() OVER (ORDER BY ts, event_id)
                        AS BIGINT) AS seq
            FROM events
        """,
        "orders_pareto_frontier": """
            SELECT o_orderkey, o_totalprice, o_orderdate
            FROM orders o1
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o2
                WHERE o2.o_totalprice >= o1.o_totalprice
                  AND o2.o_orderdate >= o1.o_orderdate
                  AND (o2.o_totalprice > o1.o_totalprice
                       OR o2.o_orderdate > o1.o_orderdate))
            ORDER BY o_orderkey
        """,
        "returned_item_revenue": """
            SELECT c_custkey, c_name,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                 AS BIGINT)
                            * (100 - CAST(floor(l_discount * 100 + 0.5)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE l_returnflag = 'R'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1996-04-01'
            GROUP BY c_custkey, c_name
            ORDER BY revenue_e4 DESC, c_custkey
            LIMIT 20
        """,
        "embedding_split_leakage": """
            SELECT a.vec_id AS id_q, b.vec_id AS id_r,
                   CAST(floor(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])) * 1e6 + 0.5)
                       AS BIGINT) AS cosine_e6
            FROM embeddings a JOIN embeddings b
              ON a.vec_id % 2 = 1 AND b.vec_id % 2 = 0
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) >= 0.45
            ORDER BY id_q, id_r
        """,
        "daily_volume_cusum": """
            WITH RECURSIVE c AS (
                SELECT CAST(floor(epoch_us(ts) / 86400000000)
                            * 86400000000 AS BIGINT) AS w,
                       CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1
            ), ord AS (
                SELECT row_number() OVER (ORDER BY w) AS rn, w, n
                FROM c
            ), par AS (
                SELECT mu_e6, mu_e6 * 1 // 8 AS kappa_e6,
                       mu_e6 * 1 // 2 AS h_e6
                FROM (SELECT (sum(n) * 1000000) // count(*) AS mu_e6
                      FROM ord)
            ), r AS (
                SELECT o.rn, o.w, o.n,
                       CAST(greatest(0, (o.n * 1000000 - p.mu_e6)
                                        - p.kappa_e6) AS BIGINT) AS sp,
                       CAST(greatest(0, -(o.n * 1000000 - p.mu_e6)
                                        - p.kappa_e6) AS BIGINT) AS sn
                FROM ord o, par p WHERE o.rn = 1
                UNION ALL
                SELECT o.rn, o.w, o.n,
                       CAST(greatest(0, r.sp + (o.n * 1000000
                            - p.mu_e6) - p.kappa_e6) AS BIGINT),
                       CAST(greatest(0, r.sn - (o.n * 1000000
                            - p.mu_e6) - p.kappa_e6) AS BIGINT)
                FROM r JOIN ord o ON o.rn = r.rn + 1
                CROSS JOIN par p
            )
            SELECT r.w AS window_start_us, r.n AS n_events,
                   r.sp AS cusum_pos_e6, r.sn AS cusum_neg_e6,
                   CAST(CASE WHEN r.sp > p.h_e6 OR r.sn > p.h_e6
                        THEN 1 ELSE 0 END AS BIGINT) AS flag
            FROM r, par p ORDER BY window_start_us
        """,
        "docs_cross_snapshot_dups": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                WHERE a.doc_id % 2 = 1 AND b.doc_id % 2 = 0
                GROUP BY 1, 2
            )
            SELECT id_a, id_b,
                   CAST(floor(CAST(i AS DOUBLE) / (ca.c + cb.c - i)
                              * 1e6 + 0.5) AS BIGINT) AS jaccard_e6
            FROM inter
            JOIN cnt ca ON ca.doc_id = id_a
            JOIN cnt cb ON cb.doc_id = id_b
            WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ORDER BY id_a, id_b
        """,
        "user_activity_skew": """
            WITH c AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS cnt
              FROM events GROUP BY user_id)
            SELECT CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(sum(cnt) AS BIGINT) AS n_rows,
                   CAST(max(cnt) AS BIGINT) AS max_count,
                   CAST(quantile_disc(cnt, 0.5) AS BIGINT) AS p50_count,
                   CAST(quantile_disc(cnt, 0.9) AS BIGINT) AS p90_count,
                   CAST(quantile_disc(cnt, 0.99) AS BIGINT)
                     AS p99_count,
                   (CAST(max(cnt) AS BIGINT) * 1000000)
                     // CAST(sum(cnt) AS BIGINT) AS top_share_e6,
                   (CAST(sum(cnt) AS BIGINT) * 1000000)
                     // CAST(count(*) AS BIGINT) AS avg_count_e6
            FROM c
        """,
        "docs_keyword_search": r"""
            SELECT doc_id, lang, n_chars FROM documents
            WHERE list_contains(regexp_split_to_array(text, '\s+'),
                                'spark')
              AND list_contains(regexp_split_to_array(text, '\s+'),
                                'merge')
              AND list_contains(regexp_split_to_array(text, '\s+'),
                                'window')
            ORDER BY doc_id
        """,
        "events_expectations": r"""
            WITH base AS (
              SELECT
                CAST(count(*) AS BIGINT) AS n,
                CAST(count(*) - count(user_id) AS BIGINT) AS f_user,
                CAST(count(*) - count(value) AS BIGINT) AS f_val,
                CAST(coalesce(sum(CASE WHEN event_type IS NOT NULL
                      AND event_type NOT IN
                        ('click','view','purchase','signup')
                      THEN 1 END), 0) AS BIGINT) AS f_set,
                CAST(coalesce(sum(CASE WHEN value IS NOT NULL
                      AND (value < 0.0 OR value > 400.0)
                      THEN 1 END), 0) AS BIGINT) AS f_range,
                CAST(coalesce(sum(CASE WHEN props IS NOT NULL
                      AND NOT regexp_matches(props, '^\{"k": [0-9]+\}$')
                      THEN 1 END), 0) AS BIGINT) AS f_shape,
                CAST(coalesce(sum(CASE WHEN props IS NOT NULL
                      AND (length(props) < 1 OR length(props) > 9)
                      THEN 1 END), 0) AS BIGINT) AS f_len
              FROM events)
            SELECT check_name, n_rows, n_failed,
                   (n_failed * 1000000) // n_rows AS fail_e6,
                   CAST(CASE WHEN n_failed = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS passed
            FROM (
              SELECT 'event_type_known' AS check_name, n AS n_rows,
                     f_set AS n_failed FROM base
              UNION ALL SELECT 'props_len', n, f_len FROM base
              UNION ALL SELECT 'props_shape', n, f_shape FROM base
              UNION ALL SELECT 'user_id_not_null', n, f_user FROM base
              UNION ALL SELECT 'value_not_null', n, f_val FROM base
              UNION ALL SELECT 'value_range', n, f_range FROM base)
            ORDER BY check_name
        """,
        "orders_price_quantiles": """
            SELECT CAST(0.25 AS DOUBLE) AS q,
                   quantile_disc(o_totalprice, 0.25) AS value FROM orders
            UNION ALL SELECT 0.5, quantile_disc(o_totalprice, 0.5) FROM orders
            UNION ALL SELECT 0.95, quantile_disc(o_totalprice, 0.95) FROM orders
            UNION ALL SELECT 0.99, quantile_disc(o_totalprice, 0.99) FROM orders
        """,
        "stats_orders_std": """
            SELECT round(stddev_pop(o_totalprice), 2) AS std_price
            FROM orders
        """,
        "orders_hash_sample": f"""
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE {splitmix64_sql('o_orderkey', 3)} < {sample_thr}
        """,
        "docs_share_of_lang": """
            SELECT doc_id, lang, n_chars,
                   CAST(floor(CAST(n_chars AS DOUBLE)
                        / CAST(sum(n_chars) OVER (PARTITION BY lang)
                               AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
                       AS share_e6
            FROM documents ORDER BY doc_id
        """,
        "docs_split_counts": _docs_split_oracle_sql(),
        "event_funnel": """
            WITH s1 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' AND user_id IS NOT NULL
                  AND ts IS NOT NULL GROUP BY 1
            ), s2 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s1 USING (user_id)
                WHERE e.event_type = 'click' AND e.ts > s1.t GROUP BY 1
            ), s3 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s2 USING (user_id)
                WHERE e.event_type = 'purchase' AND e.ts > s2.t
                GROUP BY 1
            )
            SELECT 1::BIGINT AS step, 'view' AS event_type,
                   count(*)::BIGINT AS n_keys FROM s1
            UNION ALL SELECT 2, 'click', count(*) FROM s2
            UNION ALL SELECT 3, 'purchase', count(*) FROM s3
            ORDER BY step
        """,
        "embedding_nn_join": """
            WITH s AS (
                SELECT a.vec_id, b.vec_id AS nn_id,
                       CAST(floor(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])) * 1e6 + 0.5)
                           AS BIGINT) AS cosine_e6
                FROM embeddings a JOIN embeddings b
                  ON a.vec_id <> b.vec_id)
            SELECT vec_id, nn_id, cosine_e6 FROM s
            QUALIFY row_number() OVER (PARTITION BY vec_id
                ORDER BY cosine_e6 DESC, nn_id) = 1
            ORDER BY vec_id
        """,
        "user_cohort_retention": """
            WITH pw AS (
                SELECT DISTINCT user_id,
                       date_trunc('week', ts)::TIMESTAMP AS week
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL
            ), c AS (
                SELECT user_id, min(week) AS cohort_week
                FROM pw GROUP BY 1
            )
            SELECT c.cohort_week, pw.week,
                   count(*)::BIGINT AS n_users
            FROM pw JOIN c USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "docs_capped_per_lang": f"""
            SELECT doc_id, lang FROM (
                SELECT doc_id, lang,
                       row_number() OVER (PARTITION BY lang
                           ORDER BY CAST({splitmix64_sql('doc_id')}
                                         AS DOUBLE), doc_id) AS rn
                FROM documents)
            WHERE rn <= 40 ORDER BY doc_id
        """,
        "orders_weighted_sample": f"""
            WITH s AS (
                SELECT o_orderkey, o_totalprice,
                       ln((2.0 * ({splitmix64_sql('o_orderkey')} >> 11)
                           + 1) / 18014398509481984.0)
                           / o_totalprice AS score
                FROM orders
                WHERE o_orderkey IS NOT NULL AND o_totalprice > 0)
            SELECT o_orderkey, o_totalprice FROM s
            ORDER BY score DESC, o_orderkey LIMIT 100
        """,
        "top3_orders_per_cust": """
            SELECT o_custkey, o_orderkey, o_totalprice, rn FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rn
              FROM orders) WHERE rn <= 3
        """,
        "running_user_spend": """
            SELECT event_id, user_id,
                   round(sum(value) OVER (PARTITION BY user_id
                     ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING),
                     2) AS running_sum
            FROM events
        """,
        "orders_price_date_corr": """
            SELECT count(*) AS n,
                   round(corr(o_totalprice,
                              CAST(epoch_us(o_orderdate) AS DOUBLE)),
                         6) AS corr
            FROM orders
        """,
        "price_histogram": """
            WITH b AS (SELECT least(greatest(CAST(floor(
                     o_totalprice / 30000.0) AS BIGINT), 0), 19) AS bin,
                   count(*) AS cnt
              FROM orders WHERE o_totalprice IS NOT NULL GROUP BY 1)
            SELECT g.bin, CAST(g.bin * 30000.0 AS DOUBLE) AS bin_lo,
                   coalesce(b.cnt, 0) AS cnt
            FROM (SELECT unnest(range(20)) AS bin) g
            LEFT JOIN b ON g.bin = b.bin
        """,
        "user_event_type_diversity": """
            SELECT user_id, count(DISTINCT event_type) AS n_distinct
            FROM events GROUP BY user_id
            HAVING count(DISTINCT event_type) > 0
        """,
        "building_segment_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders o
            WHERE EXISTS (SELECT 1 FROM customer c
                          WHERE c.c_custkey = o.o_custkey
                            AND c.c_mktsegment = 'BUILDING')
        """,
        "user_event_type_diversity_sorted": """
            SELECT user_id, count(DISTINCT event_type) AS n_distinct
            FROM events GROUP BY user_id
            HAVING count(DISTINCT event_type) > 0
        """,
        "custkeys_without_orders": """
            SELECT c_custkey FROM customer
            EXCEPT SELECT o_custkey FROM orders
        """,
        "custkeys_with_orders": """
            SELECT c_custkey FROM customer
            INTERSECT SELECT o_custkey FROM orders
        """,
        "event_type_mode_per_user": """
            SELECT user_id, mode, cnt FROM (
              SELECT user_id, event_type AS mode, count(*) AS cnt,
                     row_number() OVER (PARTITION BY user_id
                       ORDER BY count(*) DESC, event_type) AS rn
              FROM events WHERE event_type IS NOT NULL
              GROUP BY user_id, event_type) WHERE rn = 1
        """,
        "dedup_docs_norm_key": """
            SELECT nfc_normalize(lower(trim(regexp_replace(
                     text, '\\s+', ' ', 'g')))) AS norm_text,
                   min(doc_id) AS keep_id, count(*) AS n_copies
            FROM documents GROUP BY 1
        """,
        "user_value_quantiles": """
            SELECT user_id, CAST(0.5 AS DOUBLE) AS q,
                   quantile_disc(value, 0.5) AS value
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            UNION ALL SELECT user_id, 0.95, quantile_disc(value, 0.95)
              FROM events WHERE value IS NOT NULL GROUP BY user_id
        """,
        "events_prev_value": """
            SELECT event_id, user_id,
                   lag(value) OVER (PARTITION BY user_id
                     ORDER BY ts, event_id) AS lag_value
            FROM events
        """,
        "event_transition_violations": """
            WITH lagged AS (
                SELECT user_id, ts, event_type,
                       lag(event_type) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id) AS prev_label
                FROM events
            )
            SELECT user_id, ts, prev_label, event_type
            FROM lagged
            WHERE (prev_label = 'signup' AND (event_type IS NULL
                       OR event_type NOT IN ('view', 'click')))
               OR (prev_label = 'error' AND (event_type IS NULL
                       OR event_type NOT IN ('view', 'signup')))
               OR (prev_label IS NULL AND (event_type IS NULL
                       OR event_type NOT IN ('signup', 'view')))
        """,
        "events_next_value": """
            SELECT event_id, user_id,
                   lead(value) OVER (PARTITION BY user_id
                     ORDER BY ts, event_id) AS lead_value
            FROM events
        """,
        "event_markov_matrix": """
            WITH l AS (
                SELECT lag(event_type) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id) AS prev_label,
                       event_type AS label
                FROM events
            )
            SELECT prev_label, label, CAST(count(*) AS BIGINT) AS n
            FROM l GROUP BY prev_label, label
        """,
        "signup_purchase_delay": """
            WITH f AS (
                SELECT user_id,
                       min(CASE WHEN event_type = 'signup'
                                THEN epoch_us(ts) END) AS signup_us,
                       min(CASE WHEN event_type = 'purchase'
                                THEN epoch_us(ts) END) AS purchase_us
                FROM events WHERE ts IS NOT NULL
                GROUP BY user_id
            )
            SELECT user_id, CAST(signup_us AS BIGINT) AS signup_us,
                   CAST(purchase_us AS BIGINT) AS purchase_us,
                   CAST(purchase_us - signup_us AS BIGINT)
                     AS delay_us
            FROM f WHERE signup_us IS NOT NULL
                  AND purchase_us IS NOT NULL
        """,
        "user_session_table": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS tu,
                       lag(epoch_us(ts)) OVER (PARTITION BY user_id
                         ORDER BY ts) AS prev
                FROM events WHERE ts IS NOT NULL
            ), f AS (
                SELECT user_id, tu,
                       CASE WHEN prev IS NULL
                                 OR tu - prev > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM o
            ), s AS (
                SELECT user_id, tu,
                       sum(new_s) OVER (PARTITION BY user_id
                         ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                FROM f
            )
            SELECT user_id,
                   CAST(min(tu) AS BIGINT) AS session_start_us,
                   CAST(max(tu) AS BIGINT) AS session_end_us,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(max(tu) - min(tu) AS BIGINT) AS duration_us
            FROM s GROUP BY user_id, sid
        """,
        "event_markov_probs": """
            WITH l AS (
                SELECT lag(event_type) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id) AS prev_label,
                       event_type AS label
                FROM events
            ), c AS (
                SELECT prev_label, label,
                       CAST(count(*) AS BIGINT) AS n
                FROM l GROUP BY prev_label, label
            )
            SELECT prev_label, label, n,
                   CAST(sum(n) OVER (PARTITION BY prev_label)
                        AS BIGINT) AS row_total,
                   CAST(n * 1000000 // sum(n) OVER (
                        PARTITION BY prev_label) AS BIGINT) AS p_e6
            FROM c
        """,
        "event_type_overlap": """
            WITH d AS (
                SELECT DISTINCT user_id, event_type FROM events
                WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            ), n AS (
                SELECT event_type, count(*) AS n FROM d GROUP BY 1
            ), p AS (
                SELECT a.event_type AS cat_a, b.event_type AS cat_b,
                       count(*) AS n_both
                FROM d a JOIN d b ON a.user_id = b.user_id
                     AND a.event_type < b.event_type
                GROUP BY 1, 2
            )
            SELECT cat_a, cat_b, CAST(na.n AS BIGINT) AS n_a,
                   CAST(nb.n AS BIGINT) AS n_b,
                   CAST(p.n_both AS BIGINT) AS n_both,
                   CAST(p.n_both * 1000000
                        // (na.n + nb.n - p.n_both) AS BIGINT)
                     AS jaccard_e6
            FROM p JOIN n na ON na.event_type = cat_a
                 JOIN n nb ON nb.event_type = cat_b
        """,
        "user_interarrival_stats": """
            WITH l AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                         PARTITION BY user_id
                         ORDER BY ts, event_id) AS gap
                FROM events
            )
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(sum(gap) AS BIGINT) AS sum_gap_us,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us
            FROM l WHERE gap IS NOT NULL GROUP BY user_id
        """,
        "lineitem_qty_price_corr": """
            WITH q AS (
                SELECT l_returnflag,
                       CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)
                         AS qx,
                       CAST(floor(l_extendedprice * 100 + 0.5)
                            AS BIGINT) AS qy
                FROM lineitem
                WHERE l_quantity IS NOT NULL
                  AND l_extendedprice IS NOT NULL
            ), s AS (
                SELECT l_returnflag,
                       CAST(count(*) AS HUGEINT) AS n,
                       CAST(sum(qx) AS HUGEINT) AS sx,
                       CAST(sum(qy) AS HUGEINT) AS sy,
                       CAST(sum(qx * qx) AS HUGEINT) AS sxx,
                       CAST(sum(qy * qy) AS HUGEINT) AS syy,
                       CAST(sum(qx * qy) AS HUGEINT) AS sxy
                FROM q GROUP BY l_returnflag
            )
            SELECT l_returnflag, CAST(n AS BIGINT) AS n,
                   CASE WHEN n < 2 OR n*sxx - sx*sx <= 0
                             OR n*syy - sy*sy <= 0 THEN NULL
                        ELSE CAST(floor(
                          CAST(n*sxy - sx*sy AS DOUBLE)
                          / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                 * CAST(n*syy - sy*sy AS DOUBLE))
                          * 1e6 + 0.5) AS BIGINT)
                   END AS corr_e6
            FROM s
        """,
        "docs_pack_contiguous": """
            WITH f AS (
                SELECT doc_id, n_chars FROM documents
                WHERE n_chars IS NOT NULL AND n_chars > 0
            ), c AS (
                SELECT doc_id, n_chars,
                       sum(n_chars) OVER (ORDER BY doc_id
                         ROWS UNBOUNDED PRECEDING) AS r
                FROM f)
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                   CAST((r - n_chars) // 4096 AS BIGINT) AS pack_first,
                   CAST((r - 1) // 4096 AS BIGINT) AS pack_last,
                   CAST((r - n_chars) % 4096 AS BIGINT) AS pack_offset
            FROM c
        """,
        "docs_snapshot_diff": """
            WITH old AS (
                SELECT doc_id, lang, n_chars FROM documents
                WHERE doc_id % 7 <> 0
            ), new AS (
                SELECT doc_id, lang,
                       CASE WHEN doc_id % 5 = 0 THEN n_chars + 1
                            ELSE n_chars END AS n_chars
                FROM documents WHERE doc_id % 11 <> 0
            )
            SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS change
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
            WHERE o.doc_id IS NULL OR n.doc_id IS NULL
               OR (o.lang IS DISTINCT FROM n.lang)
               OR (o.n_chars IS DISTINCT FROM n.n_chars)
        """,
        "events_unterminated": """
            WITH ranked AS (
                SELECT user_id, event_type,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC NULLS FIRST,
                                    event_id DESC NULLS FIRST) AS rn
                FROM events
            )
            SELECT user_id, event_type AS last_label
            FROM ranked
            WHERE rn = 1
              AND (event_type IS NULL
                   OR event_type NOT IN ('purchase', 'signup'))
            ORDER BY user_id
        """,
        "daily_volume_anomalies": """
            WITH c AS (
                SELECT CAST(floor(epoch_us(ts) / 86400000000)
                            * 86400000000 AS BIGINT) AS window_start_us,
                       CAST(count(*) AS BIGINT) AS n_events
                FROM events GROUP BY 1
            ), m AS (
                SELECT quantile_disc(n_events, 0.5) AS med FROM c
            ), d AS (
                SELECT quantile_disc(abs(n_events - m.med), 0.5) AS mad
                FROM c, m
            )
            SELECT c.window_start_us, c.n_events
            FROM c, m, d
            WHERE abs(c.n_events - m.med) * 10000 > 3 * 14826 * d.mad
            ORDER BY window_start_us
        """,
        "docs_source_lang_fd": """
            SELECT source,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_distinct
            FROM documents
            WHERE lang IS NOT NULL
            GROUP BY source
            HAVING count(DISTINCT lang) > 1
            ORDER BY source
        """,
        "orders_lineitem_reconcile": """
            WITH p AS (
                SELECT o_orderkey AS k,
                       CAST(floor(o_totalprice * 100 + 0.5)
                            AS BIGINT) AS expected
                FROM orders
                WHERE o_orderkey IS NOT NULL
                  AND o_totalprice IS NOT NULL
            ), c AS (
                SELECT l_orderkey AS k,
                       CAST(sum(CAST(floor(l_extendedprice * 100
                                           + 0.5) AS BIGINT))
                            AS BIGINT) AS actual
                FROM lineitem
                WHERE l_orderkey IS NOT NULL
                  AND l_extendedprice IS NOT NULL
                GROUP BY 1
            )
            SELECT COALESCE(p.k, c.k) AS o_orderkey,
                   p.expected, c.actual,
                   CASE WHEN p.k IS NULL THEN 'orphan_children'
                        WHEN c.k IS NULL THEN 'no_children'
                        ELSE 'mismatch' END AS status
            FROM p FULL OUTER JOIN c ON p.k = c.k
            WHERE p.k IS NULL OR c.k IS NULL
               OR abs(p.expected - c.actual) > 0
            ORDER BY o_orderkey
        """,
        # reads the SAME deterministic transcript corpus the query
        # uses, by parquet path (no registered view needed); the
        # helper generates the cached corpus if absent. Driver
        # correctness runs at sf0.01 -> 60,000 turns.
        "transcript_response_latency": f"""
            WITH l AS (
                SELECT conv_id, role, epoch_us(ts) AS tu,
                       lag(role) OVER w AS prev_role,
                       lag(epoch_us(ts)) OVER w AS prev_tu
                FROM read_parquet('{_protocol_corpus_glob()}')
                WINDOW w AS (PARTITION BY conv_id
                             ORDER BY ts, turn_idx)
            )
            SELECT conv_id,
                   CAST(count(*) AS BIGINT) AS n_responses,
                   CAST(sum(tu - prev_tu) AS BIGINT)
                       AS total_latency_us,
                   CAST(sum(tu - prev_tu) // count(*) AS BIGINT)
                       AS mean_latency_us
            FROM l WHERE role = 'assistant' AND prev_role = 'user'
            GROUP BY conv_id ORDER BY conv_id
        """,
        "transcript_turn_stats": f"""
            SELECT conv_id,
                   CAST(count(*) AS BIGINT) AS n_turns,
                   CAST(count(*) FILTER (WHERE role = 'user')
                        AS BIGINT) AS n_user,
                   CAST(count(*) FILTER (WHERE role = 'assistant')
                        AS BIGINT) AS n_assistant,
                   CAST(coalesce(sum(length(text)), 0) AS BIGINT)
                       AS n_chars,
                   CAST(count(*) FILTER (WHERE text IS NULL)
                        AS BIGINT) AS n_null_text
            FROM read_parquet('{_protocol_corpus_glob()}')
            GROUP BY conv_id ORDER BY conv_id
        """,
        "transcript_trailing_context": f"""
            WITH win AS (
                SELECT conv_id, turn_idx, role,
                       coalesce(text, '') AS target,
                       string_agg(coalesce(text, ''), chr(10))
                           OVER w AS ctx,
                       CAST(count(*) OVER w AS BIGINT) AS n_ctx
                FROM read_parquet('{_protocol_corpus_glob()}')
                WINDOW w AS (PARTITION BY conv_id
                             ORDER BY ts, turn_idx
                             ROWS BETWEEN 4 PRECEDING
                             AND 1 PRECEDING)
            )
            SELECT conv_id, turn_idx, ctx, n_ctx, target
            FROM win WHERE role = 'assistant'
        """,
        "transcript_eval_examples": f"""
            WITH win AS (
                SELECT conv_id, turn_idx, ts, role,
                       coalesce(text, '') AS target,
                       string_agg(coalesce(text, ''), chr(10))
                           OVER w AS ctx,
                       CAST(count(*) OVER w AS BIGINT) AS n_ctx
                FROM read_parquet('{_protocol_corpus_glob()}')
                WINDOW w AS (PARTITION BY conv_id
                             ORDER BY ts, turn_idx
                             ROWS BETWEEN 4 PRECEDING
                             AND 1 PRECEDING)
            ), a AS (
                SELECT *, row_number() OVER (
                           PARTITION BY conv_id
                           ORDER BY ts DESC, turn_idx DESC) AS rn
                FROM win WHERE role = 'assistant'
            )
            SELECT conv_id, turn_idx, ctx, n_ctx, target
            FROM a WHERE rn = 1
        """,
        "transcript_near_dup_convs": f"""
            WITH conv AS (
                SELECT conv_id,
                       string_agg(text, chr(10) ORDER BY ts)
                           AS text
                FROM read_parquet('{_protocol_corpus_glob()}')
                GROUP BY conv_id
            ), words AS (
                SELECT conv_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM conv WHERE text IS NOT NULL
            ), sh AS (
                SELECT DISTINCT conv_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT conv_id, count(*) AS c FROM sh
                GROUP BY conv_id
            ), inter AS (
                SELECT a.conv_id AS id_a, b.conv_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                                    AND a.conv_id < b.conv_id
                GROUP BY 1, 2
            )
            SELECT id_a, id_b,
                   CAST(floor(CAST(i AS DOUBLE) / (ca.c + cb.c - i)
                              * 1e6 + 0.5) AS BIGINT) AS jaccard_e6
            FROM inter
            JOIN cnt ca ON ca.conv_id = id_a
            JOIN cnt cb ON cb.conv_id = id_b
            WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ORDER BY id_a, id_b
        """,
        "transcript_role_protocol": f"""
            WITH lagged AS (
                SELECT conv_id, turn_idx, role,
                       lag(role) OVER (PARTITION BY conv_id
                         ORDER BY turn_idx) AS prev_label
                FROM read_parquet('{_protocol_corpus_glob()}')
            )
            SELECT conv_id, turn_idx, prev_label, role
            FROM lagged
            WHERE (prev_label IS NULL AND (role IS NULL
                       OR role <> 'user'))
               OR (prev_label = 'user' AND (role IS NULL
                       OR role <> 'assistant'))
               OR (prev_label = 'assistant' AND (role IS NULL
                       OR role <> 'tool'))
               OR (prev_label = 'tool' AND (role IS NULL
                       OR role <> 'system'))
               OR (prev_label = 'system' AND (role IS NULL
                       OR role <> 'user'))
        """,
        "docs_decontamination": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), bl AS (
                SELECT DISTINCT shingle FROM sh WHERE doc_id % 20 = 0
            )
            SELECT s.doc_id, count(*) AS n_shingles,
                   CAST(floor(CAST(count(b.shingle) AS DOUBLE)
                        / count(*) * 1e6 + 0.5) AS BIGINT)
                     AS containment_x1m
            FROM sh s LEFT JOIN bl b ON s.shingle = b.shingle
            GROUP BY s.doc_id
        """,
        "customer_rollup": """
            SELECT c_mktsegment,
                   CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_bal100,
                   CAST(CASE grouping(c_mktsegment, c_nationkey)
                        WHEN 0 THEN 0 WHEN 1 THEN 1
                        ELSE 2 END AS BIGINT) AS lvl
            FROM customer
            GROUP BY ROLLUP (c_mktsegment, c_nationkey)
        """,
        "events_moving_sum": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
              FROM events)
            SELECT event_id, user_id,
                   CAST(sum(v) OVER w AS BIGINT) AS win_sum,
                   CAST(count(v) OVER w AS BIGINT) AS win_cnt
            FROM e WINDOW w AS (PARTITION BY user_id
              ORDER BY ts, event_id
              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "user_range_sum_1h": """
            WITH e AS (
              SELECT user_id, ts,
                     CAST(floor(value * 1e4 + 0.5) AS BIGINT) AS v,
                     value
              FROM events)
            SELECT DISTINCT user_id, ts,
                   CAST(sum(v) OVER w AS BIGINT) AS range_sum_e4,
                   CAST(count(value) OVER w AS BIGINT) AS range_cnt
            FROM e
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                          AND CURRENT ROW)
        """,
        "user_first_last_value": """
            SELECT DISTINCT user_id,
                   first_value(value) OVER w AS first_val,
                   last_value(value) OVER w AS last_val
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING)
        """,
        "user_event_ntile": """
            SELECT user_id, event_id,
                   row_number() OVER w AS row_number,
                   ntile(4) OVER w AS ntile
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "user_value_rank_profiles": """
            SELECT DISTINCT user_id, value,
                   CAST(count(*) OVER (PARTITION BY user_id, value)
                        AS BIGINT) AS cnt,
                   rank() OVER w AS rank,
                   dense_rank() OVER w AS dense_rank,
                   CAST(floor(percent_rank() OVER w * 1e6 + 0.5)
                        AS BIGINT) AS pct_e6,
                   CAST(floor(cume_dist() OVER w * 1e6 + 0.5)
                        AS BIGINT) AS cume_e6
            FROM events WHERE value IS NOT NULL
            WINDOW w AS (PARTITION BY user_id ORDER BY value)
            ORDER BY user_id, value
        """,
        "user_value_ranks": """
            SELECT DISTINCT user_id, value,
                   count(*) OVER (PARTITION BY user_id, value) AS cnt,
                   rank() OVER (PARTITION BY user_id
                                ORDER BY value) AS "rank",
                   dense_rank() OVER (PARTITION BY user_id
                                      ORDER BY value) AS "dense_rank"
            FROM events WHERE value IS NOT NULL
        """,
        "docs_repetition": """
            WITH arrs AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text,
                     '\\s+'), x -> x <> '') AS w
              FROM documents WHERE text IS NOT NULL
            ), grams AS (
              SELECT doc_id, unnest(list_transform(
                       generate_series(1, len(w) - 1),
                       i -> w[i] || ' ' || w[i+1])) AS g
              FROM arrs WHERE len(w) >= 2
            ), pg AS (
              SELECT doc_id, g, count(*) AS cnt, length(g) AS chars
              FROM grams GROUP BY doc_id, g
            )
            SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n_grams,
                   CAST(floor(CAST(sum(cnt) - count(*) AS DOUBLE)
                        / sum(cnt) * 1000000 + 0.5) AS BIGINT)
                     AS dup_gram_x1m,
                   CAST(floor(CAST(sum(CASE WHEN cnt > 1
                             THEN cnt * chars ELSE 0 END) AS DOUBLE)
                        / sum(cnt * chars) * 1000000 + 0.5) AS BIGINT)
                     AS dup_char_x1m
            FROM pg GROUP BY doc_id
        """,
        "docs_url_domains": rf"""
            WITH aug AS ({_AUG_SQL}
            ), u AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text,
                            'https?://[^\s]+')) AS url
              FROM aug
            ), d AS (
              SELECT doc_id,
                     lower(regexp_extract(url,
                           '^https?://([^/:?#\s]+)', 1)) AS domain
              FROM u
            )
            SELECT domain, count(*)::BIGINT AS n_urls,
                   count(DISTINCT doc_id)::BIGINT AS n_docs
            FROM d GROUP BY 1 ORDER BY 1
        """,
        "host_pagerank": rf"""
            WITH aug AS ({_AUG_SQL}
            ), u AS (
              SELECT source,
                     unnest(regexp_extract_all(text,
                            'https?://[^\s]+')) AS url
              FROM aug
            ), edges AS (
              SELECT source AS src,
                     lower(regexp_extract(url,
                           '^https?://([^/:?#\s]+)', 1)) AS dst
              FROM u
            ), {_PAGERANK_ITERS_SQL}
            SELECT node, rank AS rank_fp FROM r3 ORDER BY node
        """,
        "host_pagerank_weighted": rf"""
            WITH aug AS ({_AUG_SQL}
            ), u AS (
              SELECT source,
                     unnest(regexp_extract_all(text,
                            'https?://[^\s]+')) AS url
              FROM aug
            ), edges AS (
              SELECT source AS src,
                     lower(regexp_extract(url,
                           '^https?://([^/:?#\s]+)', 1)) AS dst,
                     count(*)::BIGINT AS w
              FROM u GROUP BY 1, 2
            ), {_pagerank_iters_sql(weighted=True)}
            SELECT node, rank AS rank_fp FROM r3 ORDER BY node
        """,
        "host_hits": rf"""
            WITH aug AS ({_AUG_SQL}
            ), u AS (
              SELECT source,
                     unnest(regexp_extract_all(text,
                            'https?://[^\s]+')) AS url
              FROM aug
            ), edges AS (
              SELECT source AS src,
                     lower(regexp_extract(url,
                           '^https?://([^/:?#\s]+)', 1)) AS dst
              FROM u
            ), nodes AS (
              SELECT src AS node FROM edges
              UNION SELECT dst FROM edges
            ), {_hits_iters_sql(3)}
            SELECT n.node, h3.h::BIGINT AS hub_fp,
                   a3.a::BIGINT AS auth_fp
            FROM nodes n
            JOIN h3 ON h3.node = n.node
            JOIN a3 ON a3.node = n.node
            ORDER BY 1
        """,
        "incremental_dedup_docs": r"""
            WITH k AS (
              SELECT doc_id, lang || '|' || n_chars AS key
              FROM documents
            ), idx AS (
              SELECT DISTINCT key FROM k WHERE doc_id % 3 = 0
            ), delta AS (
              SELECT * FROM k WHERE doc_id % 3 <> 0
            ), firsts AS (
              SELECT min(doc_id) AS doc_id, key FROM delta GROUP BY key
            )
            SELECT doc_id, key FROM firsts f
            WHERE NOT EXISTS (SELECT 1 FROM idx i WHERE i.key = f.key)
            ORDER BY doc_id
        """,
        "docs_ranked_hosts": rf"""
            WITH aug AS ({_AUG_SQL}
            ), u AS (
              SELECT doc_id, source,
                     unnest(regexp_extract_all(text,
                            'https?://[^\s]+')) AS url
              FROM aug
            ), h AS (
              SELECT doc_id, source,
                     lower(regexp_extract(url,
                           '^https?://([^/:?#\s]+)', 1)) AS dst
              FROM u
            ), edges AS (
              SELECT source AS src, dst FROM h
            ), {_PAGERANK_ITERS_SQL}
            SELECT h.doc_id,
                   max(r3.rank)::BIGINT AS best_host_rank_fp
            FROM h JOIN r3 ON r3.node = h.dst
            GROUP BY 1 ORDER BY 1
        """,
        "events_value_outliers": r"""
            WITH med AS (
              SELECT user_id, quantile_disc(value, 0.5) AS median
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            ), mad AS (
              SELECT e.user_id,
                     quantile_disc(abs(e.value - m.median), 0.5) AS mad
              FROM events e
              JOIN med m ON m.user_id = e.user_id
              WHERE e.value IS NOT NULL GROUP BY e.user_id
            ), q AS (
              SELECT e.event_id, e.user_id, e.value,
                     CAST(floor(e.value * 1000000 + 0.5) AS BIGINT)
                       AS qv,
                     CAST(floor(m.median * 1000000 + 0.5) AS BIGINT)
                       AS qmed,
                     CAST(floor(d.mad * 1000000 + 0.5) AS BIGINT)
                       AS qmad
              FROM events e
              JOIN med m ON m.user_id = e.user_id
              JOIN mad d ON d.user_id = e.user_id
              WHERE e.value IS NOT NULL
            )
            SELECT event_id, user_id, value FROM q
            WHERE abs(qv - qmed) * 10000 > 3 * 14826 * qmad
            ORDER BY 1
        """,
        "events_value_minmax": r"""
            WITH q AS (
              SELECT event_id, user_id,
                     CASE WHEN value IS NULL THEN NULL
                          ELSE CAST(floor(value * 1000000 + 0.5)
                                    AS BIGINT) END AS qv
              FROM events
            ), th AS (
              SELECT user_id, min(qv) AS lo, max(qv) AS hi
              FROM q WHERE qv IS NOT NULL GROUP BY user_id
            )
            SELECT q.event_id,
                   CASE WHEN q.qv IS NULL OR th.user_id IS NULL
                             OR th.hi = th.lo THEN NULL
                        ELSE ((q.qv - th.lo) * 1000000)
                             // (th.hi - th.lo) END AS norm_fp
            FROM q LEFT JOIN th ON th.user_id = q.user_id
            ORDER BY 1
        """,
        "docs_line_dedup": r"""
            WITH aug AS (
              SELECT doc_id,
                     substr(text, 1, 50) || chr(10) ||
                     CASE WHEN doc_id % 2 = 0
                          THEN 'accept cookies to continue'
                          ELSE 'unique-' || doc_id END
                     || chr(10) || substr(text, 51, 50) AS text
              FROM documents
            ), l AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     generate_subscripts(
                       string_split(text, chr(10)), 1) AS i
              FROM aug
            ), freq AS (
              SELECT line FROM l
              GROUP BY line HAVING count(DISTINCT doc_id) > 5
            ), kept AS (
              SELECT doc_id, line, i FROM l
              WHERE line NOT IN (SELECT line FROM freq)
            )
            SELECT a.doc_id,
                   COALESCE(string_agg(k.line, chr(10)
                                       ORDER BY k.i), '')
                     AS text_clean
            FROM aug a LEFT JOIN kept k USING (doc_id)
            GROUP BY a.doc_id ORDER BY a.doc_id
        """,
        "weighted_avg_price": r"""
            WITH q AS (
              SELECT l_returnflag,
                     CAST(floor(l_extendedprice * 1000000 + 0.5)
                          AS BIGINT) AS qv,
                     CAST(floor(l_quantity + 0.5) AS BIGINT) AS qw
              FROM lineitem
              WHERE l_extendedprice IS NOT NULL
                AND l_quantity IS NOT NULL
            )
            SELECT l_returnflag,
                   (sum(qv * qw)::BIGINT // sum(qw)::BIGINT)
                     AS wmean_fp,
                   sum(qw)::BIGINT AS w_sum
            FROM q GROUP BY 1 ORDER BY 1
        """,
        "lang_dup_rates": r"""
            SELECT lang, count(*)::BIGINT AS n_docs,
                   count(DISTINCT text)::BIGINT AS n_distinct,
                   ((count(*) - count(DISTINCT text)) * 1000000)
                     // count(*) AS dup_x1m
            FROM documents GROUP BY 1 ORDER BY 1
        """,
        "events_value_winsorized": r"""
            WITH th AS (
              SELECT user_id,
                     quantile_disc(value, 0.01) AS lo,
                     quantile_disc(value, 0.99) AS hi
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            )
            SELECT e.event_id,
                   CASE WHEN e.value IS NULL OR th.user_id IS NULL
                        THEN e.value
                        ELSE least(greatest(e.value, th.lo), th.hi)
                   END AS winsorized
            FROM events e LEFT JOIN th ON th.user_id = e.user_id
            ORDER BY 1
        """,
        "label_centroids": r"""
            WITH e AS (
              SELECT label, i,
                     CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                          AS BIGINT) AS xi
              FROM (SELECT label, unnest(embedding) AS x,
                           generate_subscripts(embedding, 1) AS i
                    FROM embeddings)
              WHERE x IS NOT NULL
            )
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(i AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(floor(CAST(sum(xi) AS DOUBLE) / 1000000.0
                        / count(*) * 1e6 + 0.5) AS BIGINT)
                     AS mean_e6
            FROM e GROUP BY label, i
        """,
        "embedding_dim_stats": r"""
            WITH e AS (
              SELECT i,
                     CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                          AS BIGINT) AS xi
              FROM (SELECT unnest(embedding) AS x,
                           generate_subscripts(embedding, 1) AS i
                    FROM embeddings)
              WHERE x IS NOT NULL
            ), s AS (
              SELECT i, CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(xi) AS HUGEINT) AS s,
                     CAST(sum(xi * xi) AS HUGEINT) AS ss
              FROM e GROUP BY i
            )
            SELECT CAST(i AS BIGINT) AS dim, CAST(n AS BIGINT) AS n,
                   CAST(floor(CAST(s AS DOUBLE) / 1000000.0 / n
                        * 1e6 + 0.5) AS BIGINT) AS mean_e6,
                   CAST(floor(CAST(n * ss - s * s AS DOUBLE)
                        / n / n / 1000000.0 / 1000000.0
                        * 1e6 + 0.5) AS BIGINT) AS var_e6
            FROM s
        """,
        "embedding_gram": r"""
            WITH e AS (
              SELECT vec_id,
                     CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                          AS BIGINT) AS xi,
                     i
              FROM (SELECT vec_id, unnest(embedding) AS x,
                           generate_subscripts(embedding, 1) AS i
                    FROM embeddings)
            )
            SELECT a.i AS i, b.i AS j,
                   sum(a.xi * b.xi)::BIGINT AS sxy_fp
            FROM e a JOIN e b USING (vec_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "user_value_mad": r"""
            -- IS NOT DISTINCT FROM joins keep a NULL-user group
            -- (the engine computes it; events has none today)
            WITH med AS (
              SELECT user_id, quantile_disc(value, 0.5) AS median
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            ), mad AS (
              SELECT e.user_id,
                     quantile_disc(abs(e.value - m.median), 0.5) AS mad
              FROM events e
              JOIN med m ON m.user_id IS NOT DISTINCT FROM e.user_id
              WHERE e.value IS NOT NULL GROUP BY e.user_id
            )
            SELECT m.user_id, m.median, d.mad
            FROM med m
            JOIN mad d ON d.user_id IS NOT DISTINCT FROM m.user_id
            ORDER BY 1
        """,
        "weekly_active_users": r"""
            SELECT CAST(floor(epoch_us(ts) / 86400000000)
                        * 86400000000
                        - k.k * 86400000000 AS BIGINT)
                     AS window_start_us,
                   count(DISTINCT user_id)::BIGINT AS n_distinct
            FROM events
            CROSS JOIN (SELECT unnest([0,1,2,3,4,5,6]) AS k) k
            GROUP BY 1 ORDER BY 1
        """,
        "docs_pii_scrub": r"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' contact user' || doc_id
                          || '@example.com via https://ex.com/d/'
                          || doc_id || '?u=a@b.co' AS text
              FROM documents
            ), s AS (
              SELECT doc_id,
                     len(regexp_extract_all(text,
                         'https?://[^\s]+')) AS n_urls,
                     regexp_replace(text, 'https?://[^\s]+',
                                    '<URL>', 'g') AS t1
              FROM aug)
            SELECT doc_id, n_urls,
                   len(regexp_extract_all(t1,
                     '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}'))
                     AS n_emails,
                   regexp_replace(t1,
                     '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                     '<EMAIL>', 'g') AS scrubbed
            FROM s
        """,
        "events_pivot_by_type": """
            SELECT user_id,
              CAST(coalesce(sum(CASE WHEN event_type = 'click' THEN 1 END), 0) AS BIGINT) AS cnt_click,
              CAST(coalesce(sum(CASE WHEN event_type = 'error' THEN 1 END), 0) AS BIGINT) AS cnt_error,
              CAST(coalesce(sum(CASE WHEN event_type = 'purchase' THEN 1 END), 0) AS BIGINT) AS cnt_purchase,
              CAST(coalesce(sum(CASE WHEN event_type = 'signup' THEN 1 END), 0) AS BIGINT) AS cnt_signup,
              CAST(coalesce(sum(CASE WHEN event_type = 'view' THEN 1 END), 0) AS BIGINT) AS cnt_view
            FROM events GROUP BY user_id
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   count(*) AS count_order
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
        """,
        "high_value_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders WHERE o_totalprice > 400000
        """,
        "orders_by_segment": """
            SELECT c_mktsegment,
                   round(sum(o_totalprice), 2) AS total_price,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "orders_missing_customer": """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey NOT IN
              (SELECT c_custkey FROM customer WHERE c_custkey IS NOT NULL)
        """,
        "duplicate_lineitem_keys": """
            SELECT l_orderkey, l_linenumber, count(*) AS cnt
            FROM lineitem GROUP BY l_orderkey, l_linenumber
            HAVING count(*) > 1
        """,
        "top10_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "events_by_type": """
            SELECT event_type, round(sum(value), 2) AS total_value,
                   count(*) AS cnt
            FROM events GROUP BY event_type
        """,
        "events_by_type_salted": """
            SELECT event_type, round(sum(value), 2) AS total_value,
                   count(*) AS cnt
            FROM events GROUP BY event_type
        """,
        "distinct_users": """
            SELECT count(DISTINCT user_id) AS n_users FROM events
        """,
        "stats_orders_totalprice": """
            SELECT round(min(o_totalprice), 2) AS min_price,
                   round(max(o_totalprice), 2) AS max_price,
                   round(avg(o_totalprice), 2) AS avg_price,
                   count(*) AS cnt
            FROM orders
        """,
        "null_stats_documents": """
            SELECT 'doc_id' AS column, count(*) AS cnt,
                   count(*) - count(doc_id) AS nulls FROM documents
            UNION ALL SELECT 'lang', count(*), count(*) - count(lang) FROM documents
            UNION ALL SELECT 'n_chars', count(*), count(*) - count(n_chars) FROM documents
            UNION ALL SELECT 'source', count(*), count(*) - count(source) FROM documents
            UNION ALL SELECT 'text', count(*), count(*) - count(text) FROM documents
        """,
        "validate_documents": """
            SELECT doc_id, '#/lang' AS path, 'invalid_type' AS error_type
              FROM documents
             WHERE lang IS NOT NULL AND lang NOT IN ('en', 'de', 'es', 'fr')
            UNION ALL
            SELECT doc_id, '#/text', 'max_length_failed' FROM documents
             WHERE length(text) > 400
            UNION ALL
            SELECT doc_id, '#/n_chars', 'max_failed' FROM documents
             WHERE n_chars > 500
            UNION ALL
            SELECT doc_id, '#/source', 'pattern_failed' FROM documents
             WHERE source IS NOT NULL
               AND NOT regexp_matches(source, '^src[0-9]$')
        """,
        "validate_events_props": """
            SELECT event_id, '#/props/k' AS path, 'max_failed' AS error_type
            FROM events
            WHERE CAST(json_extract_string(props, '$.k') AS BIGINT) > 50
        """,
        "validate_events_props_struct": """
            SELECT event_id, '#/props/k' AS path, 'max_failed' AS error_type
            FROM events
            WHERE CAST(json_extract_string(props, '$.k') AS BIGINT) > 50
            ORDER BY event_id
        """,
        "validate_embeddings": """
            SELECT vec_id,
                   len(list_filter(embedding,
                       x -> x < -0.4 OR x > 0.4)) AS n_bad_elements
            FROM embeddings
            WHERE len(list_filter(embedding, x -> x < -0.4 OR x > 0.4)) > 0
            ORDER BY vec_id
        """,
        "docs_token_counts": """
            SELECT doc_id,
                   length(regexp_extract_all(text, '\\S+')) AS n_tokens
            FROM documents
        """,
        "dedup_docs_content_key": """
            SELECT lang, n_chars, min(doc_id) AS keep_id,
                   count(*) AS n_copies
            FROM documents GROUP BY lang, n_chars
        """,
        "knn_top10": """
            SELECT vec_id,
                   round(CAST(list_cosine_similarity(
                       embedding,
                       (SELECT embedding FROM embeddings WHERE vec_id = 0)
                   ) AS DOUBLE), 4) AS score
            FROM embeddings WHERE vec_id <> 0
            ORDER BY score DESC, vec_id LIMIT 10
        """,
        "knn_ivf_top10": """
            SELECT vec_id,
                   round(CAST(list_cosine_similarity(
                       embedding,
                       (SELECT embedding FROM embeddings WHERE vec_id = 0)
                   ) AS DOUBLE), 4) AS score
            FROM embeddings WHERE vec_id <> 0
            ORDER BY score DESC, vec_id LIMIT 10
        """,
        "embedding_dims": """
            SELECT min(len(embedding)) AS min_dim,
                   max(len(embedding)) AS max_dim,
                   count(*) AS cnt
            FROM embeddings
        """,
        "lang_histogram": """
            SELECT lang, count(*) AS cnt FROM documents GROUP BY lang
        """,
        "user_sessions": """
            WITH g AS (
                SELECT user_id,
                       epoch(ts - lag(ts) OVER
                           (PARTITION BY user_id ORDER BY ts)) AS gap
                FROM events
            )
            SELECT user_id, count(*) AS n_events,
                   CAST(1 + sum(CASE WHEN gap > 1800 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_sessions
            FROM g GROUP BY user_id
        """,
        "events_last_order": """
            SELECT e.event_id, o.o_orderdate AS last_order_date
            FROM events e
            ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
            ORDER BY e.event_id
        """,
        "events_next_order": """
            SELECT e.event_id, o.o_orderdate AS next_order_date
            FROM events e
            ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts <= o.o_orderdate
            ORDER BY e.event_id
        """,
        "events_last_order_sorted": """
            SELECT e.event_id, o.o_orderdate AS last_order_date
            FROM events e
            ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
            ORDER BY e.event_id
        """,
        "daily_event_volume": """
            SELECT CAST(floor(epoch_us(ts) / 86400000000)
                        * 86400000000 AS BIGINT) AS window_start_us,
                   round(sum(value), 2) AS value_sum,
                   count(*) AS n_events
            FROM events GROUP BY 1
        """,
        "user_weekly_type_diversity": """
            SELECT CAST(floor(epoch_us(ts) / 86400000000)
                        * 86400000000
                        - k.k * 86400000000 AS BIGINT)
                     AS window_start_us,
                   user_id,
                   count(DISTINCT event_type)::BIGINT AS n_distinct
            FROM events
            CROSS JOIN (SELECT unnest([0,1,2,3,4,5,6]) AS k) k
            WHERE event_type IS NOT NULL
            GROUP BY 1, 2
        """,
        "weekly_volume_delta": """
            WITH w AS (
                SELECT CAST(floor(epoch_us(ts) / 604800000000)
                            * 604800000000 AS BIGINT)
                         AS window_start_us,
                       CAST(count(*) AS BIGINT) AS n_events
                FROM events GROUP BY 1
            ), l AS (
                SELECT window_start_us, n_events,
                       lag(n_events) OVER (ORDER BY window_start_us)
                         AS prev_events
                FROM w
            )
            SELECT window_start_us, n_events, prev_events,
                   CASE WHEN prev_events IS NULL OR prev_events <= 0
                        THEN NULL
                        ELSE CAST((n_events - prev_events) * 10000
                             // prev_events AS BIGINT)
                   END AS delta_e4
            FROM l
        """,
        "hopping_event_volume": """
            SELECT CAST(floor(epoch_us(ts) / 21600000000)
                        * 21600000000
                        - k.k * 21600000000 AS BIGINT) AS window_start_us,
                   round(sum(value), 2) AS value_sum,
                   count(*) AS n_events
            FROM events CROSS JOIN (SELECT unnest([0,1,2,3]) AS k) k
            GROUP BY 1
        """,
        "lineitems_shipped_90d": """
            SELECT l.l_orderkey, l.l_linenumber, o.o_orderdate
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
             AND o.o_orderdate BETWEEN l.l_shipdate - INTERVAL 90 DAY
                                   AND l.l_shipdate
            ORDER BY l.l_orderkey, l.l_linenumber
        """,
        "docs_bpe_token_counts": """
            SELECT doc_id,
                   length(regexp_extract_all(text,
                       '[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]')) AS n_tokens
            FROM documents
        """,
        "tfidf_top_terms": """
            WITH toks AS (
                SELECT doc_id, t FROM (
                    SELECT doc_id,
                           unnest(regexp_split_to_array(text, '\\s+')) AS t
                    FROM documents) WHERE t <> ''
            ), tf AS (
                SELECT doc_id, t, count(*) AS tf FROM toks GROUP BY 1, 2
            ), df AS (
                SELECT t, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1
            ), nd AS (
                SELECT count(DISTINCT doc_id) AS n FROM toks
            ), scored AS (
                SELECT tf.doc_id, tf.t AS term, tf.tf,
                       CAST(floor(tf.tf * ln(CAST(nd.n AS DOUBLE) / df.df)
                                  * 1e6 + 0.5) AS BIGINT) AS score_e6,
                       row_number() OVER (PARTITION BY tf.doc_id
                           ORDER BY floor(tf.tf
                               * ln(CAST(nd.n AS DOUBLE) / df.df)
                               * 1e6 + 0.5) DESC, tf.t ASC) AS rn
                FROM tf JOIN df USING (t), nd
            )
            SELECT doc_id, term, tf, score_e6 FROM scored WHERE rn <= 3
            ORDER BY doc_id, score_e6 DESC, term
        """,
        "docs_bigram_lm": _BIGRAM_LM_SQL,
        "docs_lm_buckets": f"""
            WITH scored AS ({_BIGRAM_LM_SQL}),
            t AS (
                SELECT n_bigrams,
                       ntile(3) OVER (ORDER BY
                           CAST(logprob_e6 AS DOUBLE) / n_bigrams,
                           doc_id) AS bucket
                FROM scored
            )
            SELECT bucket, count(*)::BIGINT AS n_docs,
                   CAST(sum(n_bigrams) AS BIGINT) AS n_bigrams_total
            FROM t GROUP BY 1 ORDER BY 1
        """,
        "cust_top_order": """
            SELECT o_custkey, o_orderkey AS top_orderkey FROM (
                SELECT o_custkey, o_orderkey,
                       row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC,
                                    o_orderkey DESC) AS rn
                FROM orders)
            WHERE rn = 1 ORDER BY o_custkey
        """,
        "lineitem_melted": """
            SELECT l_orderkey, l_linenumber, 'l_quantity' AS variable,
                   CAST(l_quantity AS DOUBLE) AS value FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_discount',
                   CAST(l_discount AS DOUBLE) FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_tax',
                   CAST(l_tax AS DOUBLE) FROM lineitem
            ORDER BY l_orderkey, l_linenumber, variable
        """,
        "docs_above_p90": """
            SELECT doc_id, n_chars FROM documents
            WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.9)
                              FROM documents)
            ORDER BY doc_id
        """,
        "events_throttled": """
            SELECT event_id FROM (
                SELECT event_id, ts,
                       lag(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS pts
                FROM events)
            WHERE pts IS NULL OR ts - pts > INTERVAL 5 MINUTE
            ORDER BY event_id
        """,
        "lang_top_terms": r"""
            WITH toks AS (
                SELECT lang,
                       unnest(regexp_split_to_array(text, '\s+')) AS term
                FROM documents
            ), tc AS (
                SELECT lang, term, count(*) AS cnt FROM toks
                WHERE term <> '' GROUP BY 1, 2
            )
            SELECT lang, term, cnt,
                   row_number() OVER (PARTITION BY lang
                                      ORDER BY cnt DESC, term) AS rn
            FROM tc QUALIFY rn <= 5
            ORDER BY lang, rn
        """,
        "user_event_entropy": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS cnt
                FROM events WHERE event_type IS NOT NULL GROUP BY 1, 2
            ), t AS (
                SELECT user_id, CAST(sum(cnt) AS BIGINT) AS n,
                       CAST(sum(CAST(floor(cnt * ln(CAST(cnt AS DOUBLE))
                                           * 1e6 + 0.5) AS BIGINT))
                            AS BIGINT) AS s
                FROM c GROUP BY user_id
            )
            SELECT user_id, n,
                   CAST(floor((ln(CAST(n AS DOUBLE))
                        - CAST(s AS DOUBLE) / 1000000.0 / n)
                        * 1e6 + 0.5) AS BIGINT) AS entropy_e6
            FROM t
        """,
        "events_zscore": """
            SELECT event_id, event_type,
                   CAST(floor((value - avg(value) OVER w)
                        / stddev_samp(value) OVER w * 1e6 + 0.5)
                        AS BIGINT) AS z_e6
            FROM events
            WINDOW w AS (PARTITION BY event_type)
        """,
        "user_value_quantiles_cont": """
            SELECT user_id, CAST(0.25 AS DOUBLE) AS q,
                   CAST(floor(quantile_cont(value, 0.25) * 1e4 + 0.5)
                        AS BIGINT) AS value_e4
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            UNION ALL SELECT user_id, 0.5,
                   CAST(floor(quantile_cont(value, 0.5) * 1e4 + 0.5)
                        AS BIGINT)
              FROM events WHERE value IS NOT NULL GROUP BY user_id
            UNION ALL SELECT user_id, 0.95,
                   CAST(floor(quantile_cont(value, 0.95) * 1e4 + 0.5)
                        AS BIGINT)
              FROM events WHERE value IS NOT NULL GROUP BY user_id
        """,
        "events_stratified_sample": f"""
            SELECT event_type, event_id, rn FROM (
              SELECT event_type, event_id,
                     row_number() OVER (PARTITION BY event_type
                       ORDER BY {splitmix64_sql('event_id', 5)},
                                event_id) AS rn
              FROM events) WHERE rn <= 40
        """,
        "user_event_type_concat": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY event_id) AS agg
            FROM events WHERE event_type IS NOT NULL
            GROUP BY user_id
        """,
        "doc_quality": """
            WITH f AS (
                SELECT doc_id,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(length(regexp_extract_all(text, '\\S+'))
                            AS DOUBLE) AS n_tok,
                       CAST(length(regexp_extract_all(text, '[^\\w\\s]'))
                            AS DOUBLE) AS n_punct,
                       CAST(length(regexp_extract_all(text,
                            '(?i)\\b(a|an|and|as|at|by|for|in|is|it|of|on|or|that|the|this|to|with)\\b'))
                            AS DOUBLE) AS n_stop,
                       CAST(length(regexp_extract_all(text, '[A-Z]'))
                            AS DOUBLE) AS n_upper
                FROM documents
            )
            SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tokens,
                   CAST(floor(
                     least(1.0, greatest(0.0,
                       0.35 * least(n_tok / 50.0, 1.0)
                       + 0.25 * least(n_stop / greatest(n_tok, 1.0) * 4, 1.0)
                       + 0.2 * (1 - least(n_punct / greatest(n_chars, 1.0) * 5, 1.0))
                       + 0.2 * (1 - least(n_upper / greatest(n_chars, 1.0) * 5, 1.0))
                     )) * 10000.0 + 0.5) AS BIGINT) AS quality_x10k
            FROM f ORDER BY doc_id
        """,
        "heavy_hitter_users": """
            SELECT CAST(user_id AS VARCHAR) AS user_id,
                   count(*) AS cnt
            FROM events GROUP BY user_id HAVING count(*) >= 80
            ORDER BY 1
        """,
        "docs_quality_budget": """
            WITH f AS (
                SELECT doc_id, n_chars AS sz,
                       CAST(length(text) AS DOUBLE) AS c_chars,
                       CAST(length(regexp_extract_all(text, '\\S+'))
                            AS DOUBLE) AS n_tok,
                       CAST(length(regexp_extract_all(text, '[^\\w\\s]'))
                            AS DOUBLE) AS n_punct,
                       CAST(length(regexp_extract_all(text,
                            '(?i)\\b(a|an|and|as|at|by|for|in|is|it|of|on|or|that|the|this|to|with)\\b'))
                            AS DOUBLE) AS n_stop,
                       CAST(length(regexp_extract_all(text, '[A-Z]'))
                            AS DOUBLE) AS n_upper
                FROM documents
            ), q AS (
                SELECT doc_id, sz,
                       CAST(floor(
                         least(1.0, greatest(0.0,
                           0.35 * least(n_tok / 50.0, 1.0)
                           + 0.25 * least(n_stop / greatest(n_tok, 1.0) * 4, 1.0)
                           + 0.2 * (1 - least(n_punct / greatest(c_chars, 1.0) * 5, 1.0))
                           + 0.2 * (1 - least(n_upper / greatest(c_chars, 1.0) * 5, 1.0))
                         )) * 10000.0 + 0.5) AS BIGINT) AS quality_x10k
                FROM f
            ), c AS (
                SELECT doc_id, quality_x10k,
                       sum(sz) OVER (ORDER BY quality_x10k DESC,
                         doc_id ROWS UNBOUNDED PRECEDING) AS r
                FROM q
            )
            SELECT doc_id, quality_x10k,
                   CAST(r AS BIGINT) AS cum_chars
            FROM c WHERE r <= 50000
        """,
        "dedup_docs_survivors": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents
                             GROUP BY lang, n_chars)
            ORDER BY doc_id
        """,
        "text_equality": """
            WITH a AS (
                SELECT doc_id // 10 AS conv_id, doc_id % 10 AS turn_idx,
                       text
                FROM documents
            ), b AS (
                SELECT doc_id // 10 AS conv_id, doc_id % 10 AS turn_idx,
                       CASE WHEN doc_id % 7 = 3 THEN text || ' [EDITED]'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 101 <> 5
            )
            SELECT coalesce(a.conv_id, b.conv_id) AS conv_id,
                   coalesce(a.turn_idx, b.turn_idx) AS turn_idx,
                   CASE WHEN b.conv_id IS NULL THEN 'missing_in_b'
                        WHEN a.conv_id IS NULL THEN 'missing_in_a'
                        ELSE 'text_mismatch' END AS error_type,
                   a.text AS text_a, b.text AS text_b
            FROM a FULL JOIN b
              ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
            WHERE a.conv_id IS NULL OR b.conv_id IS NULL
               OR a.text IS DISTINCT FROM b.text
            ORDER BY conv_id, turn_idx
        """,
        "orders_segment_join_sorted": """
            SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment
            FROM orders o JOIN customer c
              ON o.o_custkey = c.c_custkey
            ORDER BY o.o_orderkey
        """,
        "lang_id_accuracy": _lang_id_pred_sql(),
        "simhash_docs": f"""
            WITH {_SIMHASH_SIG_CTE}
            SELECT doc_id, simhash FROM sigs ORDER BY doc_id
        """,
        "minhash_near_dups": _minhash_oracle_sql(),
        "simhash_near_dups": f"""
            WITH {_SIMHASH_SIG_CTE}
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                       AS hamming
            FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
            ORDER BY id_a, id_b
        """,
        "docs_chunks": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            )
            SELECT doc_id, i AS chunk_idx,
                   CAST(len(list_slice(arr, i * 24 + 1, i * 24 + 32))
                        AS BIGINT) AS n_tokens,
                   array_to_string(
                       list_slice(arr, i * 24 + 1, i * 24 + 32),
                       ' ') AS chunk_text
            FROM words,
                 LATERAL (SELECT unnest(generate_series(0,
                     CAST(ceil(greatest(len(arr) - 32, 0) / 24.0)
                          AS BIGINT))) AS i) g
            WHERE len(arr) > 0
            ORDER BY doc_id, chunk_idx
        """,
        "docs_vocabulary": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(text, '\\s+')) AS t
                FROM documents
            ), tt AS (
                SELECT t AS term, count(*) AS tf,
                       count(DISTINCT doc_id) AS df
                FROM toks WHERE t <> '' GROUP BY t
            )
            SELECT term, tf, df,
                   row_number() OVER (ORDER BY tf DESC, term) AS rank
            FROM tt WHERE tf >= 5
            ORDER BY rank LIMIT 100
        """,
        "part_typo_pairs": """
            WITH toks AS (
                SELECT unnest(regexp_split_to_array(p_name, '\\s+'))
                       AS term
                FROM part
            ), tc AS (
                SELECT term, count(*) AS tf FROM toks
                WHERE term <> '' AND length(term) >= 3
                GROUP BY 1
            ), v AS (
                SELECT term, tf,
                       row_number() OVER (ORDER BY tf DESC, term) AS rn
                FROM tc QUALIFY rn <= 2000
            )
            SELECT a.term AS term_a, b.term AS term_b,
                   a.tf AS tf_a, b.tf AS tf_b
            FROM v a JOIN v b
              ON a.term < b.term
             AND abs(length(a.term) - length(b.term)) <= 1
             AND levenshtein(a.term, b.term) = 1
            ORDER BY term_a, term_b
        """,
        "docs_mixture_sample": _mixture_sample_oracle_sql(),
        "docs_span_corruption": _span_corruption_oracle_sql(),
        "sessions_error_overlap": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS tu,
                       lag(epoch_us(ts)) OVER (PARTITION BY user_id
                         ORDER BY ts) AS prev
                FROM events WHERE ts IS NOT NULL
            ), fl AS (
                SELECT user_id, tu,
                       CASE WHEN prev IS NULL
                                 OR tu - prev > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM o
            ), sg AS (
                SELECT user_id, tu,
                       sum(new_s) OVER (PARTITION BY user_id
                         ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                FROM fl
            ), sess AS (
                SELECT user_id,
                       CAST(min(tu) AS BIGINT) AS session_start_us,
                       CAST(max(tu) AS BIGINT) AS session_end_us
                FROM sg GROUP BY user_id, sid
            ), err AS (
                SELECT epoch_us(ts) AS tu FROM events
                WHERE event_type = 'error' AND ts IS NOT NULL
            ), iv AS (
                SELECT tu - 1800000000 AS ws, tu + 1800000000 AS we
                FROM err
            ), x AS (
                SELECT ws, we,
                       max(we) OVER (ORDER BY ws, we
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS pm
                FROM iv
            ), f AS (
                SELECT ws, we, CASE WHEN pm IS NULL OR ws > pm
                                    THEN 1 ELSE 0 END AS ni
                FROM x
            ), g AS (
                SELECT ws, we, sum(ni) OVER (ORDER BY ws, we
                         ROWS UNBOUNDED PRECEDING) AS iid
                FROM f
            ), w AS (
                SELECT CAST(min(ws) AS BIGINT) AS w_start,
                       CAST(max(we) AS BIGINT) AS w_end
                FROM g GROUP BY iid
            )
            SELECT s.user_id, s.session_start_us, s.session_end_us,
                   CAST(count(w.w_start) AS BIGINT) AS n_windows,
                   CAST(min(w.w_start) AS BIGINT)
                     AS first_window_start_us
            FROM sess s LEFT JOIN w
              ON w.w_start <= s.session_end_us
             AND w.w_end >= s.session_start_us
            GROUP BY 1, 2, 3
            ORDER BY 1, 2
        """,
        "docs_packed": """
            WITH RECURSIVE c AS (
                SELECT lang, doc_id,
                       length(regexp_extract_all(text, '\\S+'))
                           AS n_tokens,
                       row_number() OVER (PARTITION BY lang
                                          ORDER BY doc_id) AS rn
                FROM documents
            ), s AS (
                SELECT lang, doc_id, n_tokens, rn,
                       CAST(0 AS BIGINT) AS bin, n_tokens AS fill
                FROM c WHERE rn = 1
                UNION ALL
                SELECT c.lang, c.doc_id, c.n_tokens, c.rn,
                       CASE WHEN s.fill + c.n_tokens <= 512
                            THEN s.bin ELSE s.bin + 1 END,
                       CASE WHEN s.fill + c.n_tokens <= 512
                            THEN s.fill + c.n_tokens
                            ELSE c.n_tokens END
                FROM s JOIN c
                  ON c.lang IS NOT DISTINCT FROM s.lang
                 AND c.rn = s.rn + 1
            )
            SELECT lang, doc_id, n_tokens, bin FROM s
            ORDER BY lang, doc_id
        """,
        "knn_lsh_top10": f"""
            WITH b AS (
                SELECT vec_id, embedding,
                       {_knn_lsh_bucket_expr()} AS bucket
                FROM embeddings
            ), q AS (
                SELECT bucket AS qb, embedding AS qe FROM b
                WHERE vec_id = 0
            ), masks AS (
                SELECT 0 AS m
                UNION ALL
                SELECT (1 << i) FROM generate_series(0, 7) t(i)
            )
            SELECT b.vec_id,
                   round(CAST(list_cosine_similarity(
                       b.embedding, (SELECT qe FROM q)) AS DOUBLE), 4)
                       AS score
            FROM b
            WHERE b.bucket IN
                  (SELECT xor((SELECT qb FROM q), m) FROM masks)
            ORDER BY score DESC, vec_id LIMIT 10
        """,
        "embedding_near_dups": f"""
            WITH b AS (
                SELECT vec_id, embedding,
                       {_knn_lsh_bucket_expr(n_planes=6)} AS bucket
                FROM embeddings
            )
            SELECT a.vec_id AS id_a, c.vec_id AS id_b,
                   CAST(floor(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(c.embedding AS DOUBLE[])) * 1e6 + 0.5)
                       AS BIGINT) AS cosine_e6
            FROM b a JOIN b c ON a.bucket = c.bucket
                              AND a.vec_id < c.vec_id
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(c.embedding AS DOUBLE[])) >= 0.4
            ORDER BY id_a, id_b
        """,
        "embedding_near_dups_exact": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   CAST(floor(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])) * 1e6 + 0.5)
                       AS BIGINT) AS cosine_e6
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) >= 0.45
            ORDER BY id_a, id_b
        """,
        "lineitem_price_regression": """
            SELECT l_returnflag,
                   CAST(regr_count(l_extendedprice, l_quantity)
                        AS BIGINT) AS n,
                   CAST(floor(regr_slope(l_extendedprice, l_quantity)
                              * 1e4 + 0.5) AS BIGINT) AS slope_e4,
                   CAST(floor(regr_intercept(l_extendedprice,
                                             l_quantity)
                              * 1e4 + 0.5) AS BIGINT) AS intercept_e4
            FROM lineitem GROUP BY l_returnflag
        """,
        "docs_lang_source_cube": """
            SELECT lang, source, count(*) AS n_docs,
                   CAST(grouping_id(lang, source) AS BIGINT) AS gid
            FROM documents GROUP BY CUBE (lang, source)
        """,
        "lineitems_small_parts": """
            SELECT l_orderkey, l_linenumber, l_partkey
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_size <= 10)
        """,
        "negbal_highvalue_full": """
            SELECT c_custkey, c_acctbal, o_custkey, o_orderkey
            FROM (SELECT c_custkey, c_acctbal FROM customer
                  WHERE c_acctbal < 0) c
            FULL JOIN (SELECT o_custkey, o_orderkey FROM orders
                       WHERE o_totalprice > 300000) o
              ON c_custkey = o_custkey
        """,
        "customer_highvalue_left": """
            SELECT c_custkey, o_orderkey
            FROM customer LEFT JOIN (
                SELECT o_custkey, o_orderkey FROM orders
                WHERE o_totalprice > 300000) o
              ON c_custkey = o_custkey
            ORDER BY c_custkey, o_orderkey
        """,
        "ngram_jaccard_dups": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                                    AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT id_a, id_b,
                   CAST(floor(CAST(i AS DOUBLE) / (ca.c + cb.c - i)
                              * 1e6 + 0.5) AS BIGINT) AS jaccard_e6
            FROM inter
            JOIN cnt ca ON ca.doc_id = id_a
            JOIN cnt cb ON cb.doc_id = id_b
            WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ORDER BY id_a, id_b
        """,
        "doc_dup_clusters": """
            WITH RECURSIVE words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                                    AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            ), pairs AS (
                SELECT id_a, id_b
                FROM inter
                JOIN cnt ca ON ca.doc_id = id_a
                JOIN cnt cb ON cb.doc_id = id_b
                WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ), edges AS (
                SELECT id_a AS n, id_b AS m FROM pairs
                UNION
                SELECT id_b, id_a FROM pairs
            ), reach AS (
                SELECT n, n AS m FROM edges
                UNION
                SELECT e.n, r.m
                FROM edges e JOIN reach r ON e.m = r.n
            ), comp AS (
                SELECT n AS doc_id, min(m) AS component
                FROM reach GROUP BY n
            ), sizes AS (
                SELECT component, count(*) AS cluster_size
                FROM comp GROUP BY component
            )
            SELECT c.doc_id, c.component, s.cluster_size
            FROM comp c JOIN sizes s USING (component)
            ORDER BY c.doc_id
        """,
        "doc_dedup_keep_best": """
            WITH RECURSIVE words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   w -> w <> '') AS arr
                FROM documents
            ), sh AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN len(arr) < 5
                            THEN array_to_string(arr, ' ')
                            ELSE array_to_string(
                                list_slice(arr, i, i + 4), ' ')
                       END AS shingle
                FROM words,
                     LATERAL (SELECT unnest(generate_series(
                         1, greatest(len(arr) - 4, 1))) AS i) g
                WHERE len(arr) > 0
            ), cnt AS (
                SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                       count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle
                                    AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            ), pairs AS (
                SELECT id_a, id_b
                FROM inter
                JOIN cnt ca ON ca.doc_id = id_a
                JOIN cnt cb ON cb.doc_id = id_b
                WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
            ), edges AS (
                SELECT id_a AS n, id_b AS m FROM pairs
                UNION
                SELECT id_b, id_a FROM pairs
            ), reach AS (
                SELECT n, n AS m FROM edges
                UNION
                SELECT e.n, r.m
                FROM edges e JOIN reach r ON e.m = r.n
            ), comp AS (
                SELECT n AS doc_id, min(m) AS component
                FROM reach GROUP BY n
            ), win AS (
                SELECT c.component, c.doc_id,
                       row_number() OVER (PARTITION BY c.component
                         ORDER BY d.n_chars DESC NULLS LAST,
                                  c.doc_id) AS rn
                FROM comp c JOIN documents d USING (doc_id)
            )
            SELECT d.doc_id,
                   coalesce(c.component, d.doc_id) AS component,
                   (c.doc_id IS NULL OR w.rn = 1) AS kept
            FROM documents d
            LEFT JOIN comp c ON d.doc_id = c.doc_id
            LEFT JOIN win w ON w.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        "drift_events_psi": """
            WITH bounds AS (
                SELECT min(ts) + INTERVAL 15 DAY AS split FROM events
            ), ref AS (
                SELECT event_type, count(*) AS c FROM events, bounds
                WHERE ts < split GROUP BY event_type
            ), act AS (
                SELECT event_type, count(*) AS c FROM events, bounds
                WHERE ts >= split GROUP BY event_type
            ), keys AS (
                SELECT event_type FROM ref
                UNION
                SELECT event_type FROM act
            ), parts AS (
                SELECT
                    greatest(CAST(COALESCE(r.c, 0) AS DOUBLE)
                             / greatest((SELECT sum(c) FROM ref), 1),
                             1e-6) AS pe,
                    greatest(CAST(COALESCE(a.c, 0) AS DOUBLE)
                             / greatest((SELECT sum(c) FROM act), 1),
                             1e-6) AS pa
                FROM keys k
                LEFT JOIN ref r USING (event_type)
                LEFT JOIN act a USING (event_type)
            )
            SELECT 'event_type' AS col, 'psi' AS metric,
                   CAST(floor(SUM((pa - pe) * ln(pa / pe)) * 1e6 + 0.5)
                       AS BIGINT) AS psi_e6
            FROM parts
        """,
    }
