"""Per-column profiling stats.

Scale shape: each input block is reduced to ONE partial row per
column inside ``map_batches`` (count, nulls, numeric moments, string
lengths, an HLL register blob). The shuffle that follows moves only
``n_columns x n_blocks`` tiny rows — never data — and the merge is a
small ``groupby("column").map_groups``. This is the engine analogue
of the north-star's "null fraction / distinct counts via HyperLogLog
sketches merged in a groupby-aggregate shuffle".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import (
    HyperLogLog, TDigest, hash_ints, hash_string_array, hash_strings,
    hll_bucket_rank)

_PARTIAL_SCHEMA = pa.schema([
    ("column", pa.string()),
    ("cnt", pa.int64()),
    ("nulls", pa.int64()),
    ("num_min", pa.float64()),
    ("num_max", pa.float64()),
    ("num_sum", pa.float64()),
    ("num_sum_sq", pa.float64()),
    ("len_sum", pa.int64()),
    ("len_min", pa.int64()),
    ("len_max", pa.int64()),
    ("hll", pa.binary()),
    ("tdigest", pa.binary()),
])


def _column_partial(name: str, col: pa.ChunkedArray, hll_p: int,
                    with_tdigest: bool) -> dict:
    n = len(col)
    nulls = col.null_count
    out = {
        "column": name, "cnt": n, "nulls": nulls,
        "num_min": None, "num_max": None,
        "num_sum": None, "num_sum_sq": None,
        "len_sum": None, "len_min": None, "len_max": None,
        "hll": None, "tdigest": None,
    }
    hll = HyperLogLog(hll_p)
    t = col.type
    valid = col.drop_null() if nulls else col
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        if len(valid):
            vals = valid.combine_chunks().to_numpy(zero_copy_only=False)
            out["num_min"] = float(np.min(vals))
            out["num_max"] = float(np.max(vals))
            out["num_sum"] = float(np.sum(vals))
            out["num_sum_sq"] = float(np.sum(vals.astype(np.float64) ** 2))
            if pa.types.is_integer(t):
                hll.add_hashed(hash_ints(vals.astype(np.int64)))
            else:
                hll.add_hashed(hash_ints(vals.view(np.int64)))
            if with_tdigest:
                td = TDigest()
                td.add(vals.astype(np.float64))
                out["tdigest"] = td.serialize()
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        if len(valid):
            lens = pc.utf8_length(valid)
            out["len_sum"] = int(pc.sum(lens).as_py())
            out["len_min"] = int(pc.min(lens).as_py())
            out["len_max"] = int(pc.max(lens).as_py())
            hll.add_hashed(hash_string_array(valid))
            if with_tdigest:
                td = TDigest()
                td.add(lens.combine_chunks().to_numpy(zero_copy_only=False)
                       .astype(np.float64))
                out["tdigest"] = td.serialize()
    elif pa.types.is_timestamp(t):
        if len(valid):
            vals = pc.cast(valid, pa.int64()).combine_chunks() \
                .to_numpy(zero_copy_only=False)
            out["num_min"] = float(np.min(vals))
            out["num_max"] = float(np.max(vals))
            hll.add_hashed(hash_ints(vals))
    else:
        if len(valid):
            hll.add_hashed(hash_strings([str(v) for v in valid.to_pylist()]))
    out["hll"] = hll.serialize()
    return out


def exact_quantiles(ds, column: str, qs=(0.25, 0.5, 0.95, 0.99)):
    """EXACT distributed quantiles, DuckDB ``quantile_disc``
    convention (the element with 1-based rank ``ceil(q * n)``): drop
    nulls, ONE range-partitioned sort of the single projected column,
    then a streaming pass over the sorted blocks picks the target
    ranks as the cumulative row count crosses them. The driver holds
    one counter and the k requested values — never a block. (The
    t-digest path in :func:`column_stats` is the approximate
    one-scan alternative; this is the sort-paying ground truth.)"""
    import math

    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError(f"quantiles must lie in [0, 1], got {list(qs)}")
    proj = ds.select_columns([column])

    def drop_null(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch[column]))

    srt = proj.map_batches(drop_null, batch_format="pyarrow",
                           zero_copy_batch=True) \
        .sort(column).materialize()
    n = srt.count()
    out_q = sorted(qs)
    if n == 0:
        return pa.table({"q": pa.array(out_q, pa.float64()),
                         "value": pa.nulls(len(out_q), pa.float64())})
    targets = {q: max(0, math.ceil(q * n) - 1) for q in out_q}
    # split_at_indices keeps the selection distributed: the driver
    # receives exactly one row per requested rank, never the data
    idxs = sorted(set(targets.values()))
    splits = srt.split_at_indices(idxs)
    vals_by_idx = {t: splits[i + 1].take(1)[0][column]
                   for i, t in enumerate(idxs)}
    return pa.table({
        "q": pa.array(out_q, pa.float64()),
        "value": pa.array([float(vals_by_idx[targets[q]])
                           for q in out_q], pa.float64()),
    })


def column_stats(
    ds,
    columns: Optional[List[str]] = None,
    hll_p: int = 12,
    with_tdigest: bool = False,
):
    """One result row per column: count, null_count, null_fraction,
    min/max/mean (numeric), length stats (string), approx_distinct.

    Returns a small ``pyarrow.Table`` (n_columns rows) materialized on
    the driver — the merged result is tiny by construction.
    """
    cols = columns

    def partials(batch: pa.Table) -> pa.Table:
        names = cols or batch.column_names
        rows = [_column_partial(n, batch[n], hll_p, with_tdigest)
                for n in names]
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)

    part_ds = ds.map_batches(partials, batch_format="pyarrow",
                             zero_copy_batch=True)

    # merge: the partial table is tiny; fold it on the driver.
    merged: dict = {}
    for batch in part_ds.iter_batches(batch_format="pyarrow"):
        for row in batch.to_pylist():
            _merge_partial(merged, row)

    return _finalize_stats(merged)


def _finalize_stats(merged: dict) -> pa.Table:
    import math

    out_rows = []
    for name, m in merged.items():
        if m.get("_num_sum_parts"):
            m["num_sum"] = math.fsum(m["_num_sum_parts"])
            m["num_sum_sq"] = math.fsum(m["_num_sq_parts"])
        cnt, nulls = m["cnt"], m["nulls"]
        non_null = cnt - nulls
        row = {
            "column": name,
            "count": cnt,
            "null_count": nulls,
            "null_fraction": (nulls / cnt) if cnt else 0.0,
            "approx_distinct": int(round(m["hll"].estimate())) if m["hll"] else 0,
            "num_min": m["num_min"],
            "num_max": m["num_max"],
            "num_mean": (m["num_sum"] / non_null)
            if (m["num_sum"] is not None and non_null) else None,
            # population stddev from the (sum, sum_sq) partials
            "num_std": (
                max(m["num_sum_sq"] / non_null
                    - (m["num_sum"] / non_null) ** 2, 0.0) ** 0.5
                if (m["num_sum_sq"] is not None and non_null) else None),
            "len_min": m["len_min"],
            "len_max": m["len_max"],
            "len_mean": (m["len_sum"] / non_null)
            if (m["len_sum"] is not None and non_null) else None,
        }
        if m["tdigest"] is not None:
            row["p50"] = m["tdigest"].quantile(0.5)
            row["p95"] = m["tdigest"].quantile(0.95)
            row["p99"] = m["tdigest"].quantile(0.99)
        out_rows.append(row)
    out_rows.sort(key=lambda r: r["column"])
    return pa.Table.from_pylist(out_rows)


def _merged_partials(merged: dict) -> List[dict]:
    """A fold's state back as one partial row per column, for a
    checkpoint that :func:`_merge_partial` folds again later: float
    sums collapse to their correctly rounded ``math.fsum``, so the
    rows do not depend on the order the fold saw its blocks in."""
    import math

    rows = []
    for name, m in merged.items():
        parts = m.get("_num_sum_parts")
        rows.append({
            "column": name, "cnt": m["cnt"], "nulls": m["nulls"],
            "num_min": m["num_min"], "num_max": m["num_max"],
            "num_sum": math.fsum(parts) if parts else None,
            "num_sum_sq": (math.fsum(m["_num_sq_parts"]) if parts
                           else None),
            "len_sum": m["len_sum"], "len_min": m["len_min"],
            "len_max": m["len_max"],
            "hll": None if m["hll"] is None else m["hll"].serialize(),
            "tdigest": (None if m["tdigest"] is None
                        else m["tdigest"].serialize()),
        })
    return rows


def _opt(f, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return f(a, b)


def _merge_partial(merged: dict, row: dict) -> None:
    name = row["column"]
    m = merged.setdefault(name, {
        "cnt": 0, "nulls": 0, "num_min": None, "num_max": None,
        "num_sum": None, "num_sum_sq": None,
        "len_sum": None, "len_min": None, "len_max": None,
        "hll": None, "tdigest": None,
    })
    m["cnt"] += row["cnt"]
    m["nulls"] += row["nulls"]
    m["num_min"] = _opt(min, m["num_min"], row["num_min"])
    m["num_max"] = _opt(max, m["num_max"], row["num_max"])
    # float partials accumulate into LISTS and fold with math.fsum
    # at finalize: fsum is correctly rounded, hence PERMUTATION-
    # INVARIANT — Ray delivers blocks in nondeterministic order, and
    # naive left-to-right float addition would make mean/std wobble
    # in the last ulp run to run (len_sum is int64: order-free)
    if row["num_sum"] is not None:
        m.setdefault("_num_sum_parts", []).append(row["num_sum"])
        m.setdefault("_num_sq_parts", []).append(row["num_sum_sq"])
    m["len_sum"] = _opt(lambda a, b: a + b, m["len_sum"], row["len_sum"])
    m["len_min"] = _opt(min, m["len_min"], row["len_min"])
    m["len_max"] = _opt(max, m["len_max"], row["len_max"])
    if row["hll"] is not None:
        h = HyperLogLog.deserialize(row["hll"])
        m["hll"] = h if m["hll"] is None else m["hll"].merge(h)
    if row["tdigest"] is not None:
        td = TDigest.deserialize(row["tdigest"])
        m["tdigest"] = td if m["tdigest"] is None else m["tdigest"].merge(td)


def corr_stats(ds, x: str, y: str) -> pa.Table:
    """Pearson correlation + sample covariance of two numeric
    columns in ONE pass: each block reduces to a single
    (n, sx, sy, sxx, syy, sxy) moment row over rows where BOTH values
    are non-null (SQL ``corr``/``covar_samp`` semantics); the driver
    folds the O(n_blocks) partials. Returns one row
    (n, corr, covar_samp)."""

    def partial(batch: pa.Table) -> pa.Table:
        xv = pc.cast(batch[x], pa.float64())
        yv = pc.cast(batch[y], pa.float64())
        m = pc.and_(pc.is_valid(xv), pc.is_valid(yv))
        t = pa.table({"x": xv, "y": yv}).filter(m)
        a = t["x"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["y"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([len(a)], pa.int64()),
            "sx": pa.array([float(a.sum())], pa.float64()),
            "sy": pa.array([float(b.sum())], pa.float64()),
            "sxx": pa.array([float((a * a).sum())], pa.float64()),
            "syy": pa.array([float((b * b).sum())], pa.float64()),
            "sxy": pa.array([float((a * b).sum())], pa.float64()),
        })

    import math

    # fold with fsum: correctly rounded and permutation-invariant,
    # so block arrival order can't wobble corr/cov in the last ulp
    parts: dict = {"n": [], "sx": [], "sy": [], "sxx": [],
                   "syy": [], "sxy": []}
    for batch in ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for row in batch.to_pylist():
            for k in parts:
                parts[k].append(row[k])
    tot = {k: (sum(v) if k == "n" else math.fsum(v))
           for k, v in parts.items()}
    n = tot["n"]
    if n < 2:
        return pa.table({"n": pa.array([n], pa.int64()),
                         "corr": pa.nulls(1, pa.float64()),
                         "covar_samp": pa.nulls(1, pa.float64())})
    cov = (tot["sxy"] - tot["sx"] * tot["sy"] / n) / (n - 1)
    vx = (tot["sxx"] - tot["sx"] ** 2 / n) / (n - 1)
    vy = (tot["syy"] - tot["sy"] ** 2 / n) / (n - 1)
    corr = cov / (vx * vy) ** 0.5 if vx > 0 and vy > 0 else None
    return pa.table({"n": pa.array([n], pa.int64()),
                     "corr": pa.array([corr], pa.float64()),
                     "covar_samp": pa.array([cov], pa.float64())})


def grouped_regression(ds, key: str, y: str, x: str):
    """Per-group simple OLS — SQL ``regr_count / regr_slope /
    regr_intercept (y, x) GROUP BY key``: rows where either value is
    NULL are ignored; slope is NULL when x has zero variance (or
    fewer than one pair), intercept NULL with it.

    Shape: each block reduces to one (n, sx, sy, sxx, sxy) moment
    row per key (vectorized ``pa.TableGroupBy`` over derived
    columns), ONE Sum-merge shuffle over the group-sized partials,
    and a vectorized finalize — the canonical mergeable-sufficient-
    statistics aggregate, hot keys reduce inside every block.
    Returns a Dataset of (key, n, slope, intercept)."""
    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        xv = pc.cast(batch[x], pa.float64())
        yv = pc.cast(batch[y], pa.float64())
        m = pc.and_(pc.is_valid(xv), pc.is_valid(yv))
        t = pa.table({key: batch[key], "__x": xv, "__y": yv}).filter(m)
        a = t["__x"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["__y"].combine_chunks().to_numpy(zero_copy_only=False)
        t = t.append_column("__xx", pa.array(a * a)) \
             .append_column("__xy", pa.array(a * b))
        g = pa.TableGroupBy(t, key).aggregate(
            [("__x", "sum"), ("__y", "sum"), ("__xx", "sum"),
             ("__xy", "sum"), ([], "count_all")])
        return pa.table({key: g[key], "__sx": g["__x_sum"],
                         "__sy": g["__y_sum"], "__sxx": g["__xx_sum"],
                         "__sxy": g["__xy_sum"],
                         "__n": pc.cast(g["count_all"], pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = null_safe_grouped_aggregate(
        partials, [key],
        [Sum("__sx", alias_name="__sx"), Sum("__sy", alias_name="__sy"),
         Sum("__sxx", alias_name="__sxx"),
         Sum("__sxy", alias_name="__sxy"),
         Sum("__n", alias_name="n")],
        ["__sx", "__sy", "__sxx", "__sxy", "n"])

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(batch["n"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sx = pc.fill_null(batch["__sx"], 0.0) \
            .to_numpy(zero_copy_only=False)
        sy = pc.fill_null(batch["__sy"], 0.0) \
            .to_numpy(zero_copy_only=False)
        sxx = pc.fill_null(batch["__sxx"], 0.0) \
            .to_numpy(zero_copy_only=False)
        sxy = pc.fill_null(batch["__sxy"], 0.0) \
            .to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = n * sxx - sx * sx
            slope = (n * sxy - sx * sy) / denom
            intercept = (sy - slope * sx) / np.maximum(n, 1)
        bad = (n < 1) | ~np.isfinite(slope)
        return pa.table({
            key: batch[key],
            "n": pc.cast(batch["n"], pa.int64()),
            "slope": pa.array(np.where(bad, 0.0, slope), pa.float64(),
                              mask=bad),
            "intercept": pa.array(np.where(bad, 0.0, intercept),
                                  pa.float64(), mask=bad),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def histogram(ds, column: str, n_bins: int, lo: float,
              hi: float) -> pa.Table:
    """Fixed-range histogram in ONE pass: per block a vectorized
    ``np.bincount`` over ``floor((x - lo) / width)`` produces one
    fixed-size count vector; the driver sums the O(n_blocks) vectors.
    Values outside [lo, hi) clamp into the edge bins (SQL analogue:
    ``least(greatest(floor(...), 0), n_bins - 1)``); NULLs drop.
    Returns (bin, bin_lo, cnt) — n_bins rows, empty bins included."""
    if hi <= lo or n_bins < 1:
        raise ValueError("need hi > lo and n_bins >= 1")
    width = (hi - lo) / n_bins

    def partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[column], pa.float64())
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        a = v.drop_null().to_numpy(zero_copy_only=False)
        a = a[~np.isnan(a)]  # NaN has no bin (dropped like NULL)
        # clip in FLOAT space first: +/-inf clamp to the edge bins;
        # a float->int64 astype of inf/NaN is undefined in numpy
        idx = np.clip(np.floor((a - lo) / width), 0,
                      n_bins - 1).astype(np.int64)
        cnt = np.bincount(idx, minlength=n_bins)
        return pa.table({"cnt": pa.array(cnt, pa.int64())})

    # batches may arrive re-chunked across partial boundaries:
    # concatenate the stream (n_blocks * n_bins rows total), then
    # fold per-block vectors with one reshape
    chunks = [batch["cnt"].to_numpy(zero_copy_only=False)
              for batch in ds.map_batches(
                  partial, batch_format="pyarrow",
                  zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow")]
    flat = np.concatenate(chunks) if chunks else np.zeros(0, np.int64)
    total = flat.reshape(-1, n_bins).sum(axis=0) if len(flat) \
        else np.zeros(n_bins, np.int64)
    bins = np.arange(n_bins, dtype=np.int64)
    return pa.table({
        "bin": pa.array(bins),
        "bin_lo": pa.array(lo + bins * width, pa.float64()),
        "cnt": pa.array(total, pa.int64()),
    })


def grouped_zscore(ds, key: str, col: str, out: str = "z"):
    """Row-level standardization: every row gains ``out`` =
    ``(col - mean) / stddev`` over its ``key`` group (SQL
    ``(col - avg(col) OVER w) / stddev_samp(col) OVER w``,
    ``w = PARTITION BY key``). Sample stddev (ddof=1); rows whose
    group has fewer than two non-null values or zero variance get a
    NULL ``out`` (SQL: stddev_samp NULL or division yielding no
    finite value), as do NULL ``col`` rows.

    Scale shape: per-block moment partials ``(n, sum, sum_sq)`` per
    key reduce through one combiner groupby to a GROUP-sized stats
    table, which is broadcast once (``ray.put``) and probed per batch
    (:func:`broadcast_hash_join` shape) — the row-sized side never
    shuffles. Use this when group cardinality fits one worker's heap
    (the usual case: groups are entities, not rows); for unbounded
    group counts compose the same stats Dataset with
    :func:`sort_merge_join` instead of the broadcast.
    """
    from .relational import broadcast_hash_join, grouped_aggregate

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        sq = pc.multiply(t[col], t[col])
        return t.append_column("__sq", pc.cast(sq, pa.float64()))

    stats = grouped_aggregate(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], [(col, "sum"), ("__sq", "sum"), (None, "count")])
    if stats is None or stats.num_rows == 0:
        def null_out(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                out, pa.nulls(batch.num_rows, pa.float64()))
        return ds.map_batches(null_out, batch_format="pyarrow",
                              zero_copy_batch=True)
    n = stats["rows_count"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    s = stats[f"{col}_sum"].to_numpy(zero_copy_only=False)
    ss = stats["__sq_sum"].to_numpy(zero_copy_only=False)
    mean = s / n
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (ss - n * mean * mean) / (n - 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    usable = (n > 1.5) & (std > 0.0)
    side = pa.table({
        key: stats[key],
        "__mean": pa.array(mean, pa.float64()),
        "__std": pa.array(std, pa.float64(), mask=~usable),
    })

    joined = broadcast_hash_join(ds, side, key, key, how="left")

    def project(batch: pa.Table) -> pa.Table:
        z = pc.divide(pc.subtract(pc.cast(batch[col], pa.float64()),
                                  batch["__mean"]), batch["__std"])
        return batch.drop_columns(["__mean", "__std"]) \
            .append_column(out, z)

    return joined.map_batches(project, batch_format="pyarrow",
                              zero_copy_batch=True)


def _hash_column(col: pa.ChunkedArray) -> np.ndarray:
    """Type-dispatched 64-bit value hashes (same scheme as
    :func:`column_stats`' HLL path)."""
    t = col.type
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    if pa.types.is_integer(t):
        return hash_ints(arr.to_numpy(zero_copy_only=False)
                         .astype(np.int64))
    if pa.types.is_floating(t):
        # widen to float64 first (float32 can't view as int64) and
        # fold -0.0 onto 0.0 so SQL-equal values hash equal
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64) + 0.0
        return hash_ints(v.view(np.int64))
    if pa.types.is_timestamp(t):
        return hash_ints(pc.cast(arr, pa.int64())
                         .to_numpy(zero_copy_only=False))
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return hash_string_array(arr)
    return hash_strings([str(v) for v in arr.to_pylist()])


def grouped_approx_distinct(ds, key: str, col: str, p: int = 12):
    """Approximate ``count(DISTINCT col) GROUP BY key`` as a
    mergeable HLL sketch aggregate — the scale path when the exact
    variant's (key, col) dedupe shuffle is itself too wide (e.g.
    distinct URLs per domain over a web corpus). Standard error is
    ~1.04/sqrt(2^p) (~1.6% at the default p=12).

    Shape: each input block reduces to ONE 2^p-byte register row per
    key present in it (vectorized: one hash pass, one
    ``np.maximum.at`` scatter into an (n_groups, m) matrix — no
    per-group Python on the data path), so the single shuffle moves
    O(keys x blocks) fixed-size rows regardless of input size or
    skew; a custom Ray aggregate merges registers with elementwise
    max and finalizes the HLL estimate. NULL values don't count
    (SQL COUNT(DISTINCT)); NULL keys form their own group. Returns
    (key, n_approx float64). Approximate by construction — evidence
    is the error-bound test vs the exact operator, not a SQL hash
    match."""
    from ray.data.aggregate import AggregateFn

    from .relational import null_safe_grouped_aggregate

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        kt = batch[key].type
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        if t.num_rows == 0:
            return pa.table({key: pa.array([], kt),
                             "__regs": pa.array([], pa.binary())})
        g = t[key].combine_chunks().dictionary_encode()
        # null keys make .indices nullable (float64 + NaN via numpy):
        # fill first, then route them to their own trailing group
        null_rows = pc.is_null(g).to_numpy(zero_copy_only=False)
        codes = g.indices.fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_dict = len(g.dictionary)
        has_null_group = bool(null_rows.any())
        codes[null_rows] = n_dict
        n_groups = n_dict + (1 if has_null_group else 0)
        bucket, rank = hll_bucket_rank(_hash_column(t[col]), p)
        regs = np.zeros((n_groups, m), np.uint8)
        np.maximum.at(regs, (codes, bucket), rank)
        keys_out = g.dictionary.cast(kt)
        if has_null_group:
            keys_out = pa.concat_arrays(
                [keys_out, pa.nulls(1, kt)])
        return pa.table({
            key: keys_out,
            "__regs": pa.array([regs[i].tobytes()
                                for i in range(n_groups)],
                               pa.binary()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def _merge_row(acc, row):
        r = np.frombuffer(row["__regs"], np.uint8)
        return r.copy() if acc is None else np.maximum(acc, r)

    hll_agg = AggregateFn(
        init=lambda k: None,
        accumulate_row=_merge_row,
        merge=lambda a, b: (b if a is None else
                            a if b is None else np.maximum(a, b)),
        finalize=lambda a: 0.0 if a is None
        else HyperLogLog(p, a).estimate(),
        name="n_approx")
    return null_safe_grouped_aggregate(partials, [key], [hll_agg],
                                       ["n_approx"])


def grouped_approx_quantiles(ds, key: str, col: str, qs=(0.5,),
                             compression: int = 100):
    """Approximate per-group quantiles as a mergeable t-digest
    aggregate — the one-scan alternative to
    :func:`rank.grouped_exact_quantiles` when the per-group sort is
    the bottleneck (few groups, huge groups). Each block reduces to
    ONE compressed digest per key it contains; a custom Ray
    aggregate merges digests and the final map explodes the
    requested quantiles. Estimates are t-digest-approximate AND
    merge-order dependent in the last decimals — evidence is the
    error-bound test vs exact, not a SQL hash. NULL values are
    skipped; NULL keys form their own group. Returns
    (key, q, value)."""
    from ray.data.aggregate import AggregateFn

    from .relational import null_safe_grouped_aggregate

    qs = sorted(qs)

    def partial(batch: pa.Table) -> pa.Table:
        kt = batch[key].type
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        if t.num_rows == 0:
            return pa.table({key: pa.array([], kt),
                             "__td": pa.array([], pa.binary())})
        g = t[key].combine_chunks().dictionary_encode()
        null_rows = pc.is_null(g).to_numpy(zero_copy_only=False)
        codes = g.indices.fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_dict = len(g.dictionary)
        has_null = bool(null_rows.any())
        codes[null_rows] = n_dict
        vals = pc.cast(t[col], pa.float64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        order = np.argsort(codes, kind="stable")
        sc, sv = codes[order], vals[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sc[1:] != sc[:-1])))
        ends = np.concatenate((starts[1:], [len(sc)]))
        blobs = [None] * (n_dict + (1 if has_null else 0))
        for s, e in zip(starts, ends):
            td = TDigest(compression)
            td.add(sv[s:e])
            blobs[sc[s]] = td.serialize()
        keys_out = g.dictionary.cast(kt)
        if has_null:
            keys_out = pa.concat_arrays([keys_out, pa.nulls(1, kt)])
        return pa.table({key: keys_out,
                         "__td": pa.array(blobs, pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def _acc(acc, row):
        td = TDigest.deserialize(row["__td"])
        return td if acc is None else acc.merge(td)

    td_agg = AggregateFn(
        init=lambda k: None,
        accumulate_row=_acc,
        merge=lambda a, b: (b if a is None else
                            a if b is None else a.merge(b)),
        finalize=lambda a: b"" if a is None else a.serialize(),
        name="__blob")
    merged = null_safe_grouped_aggregate(partials, [key], [td_agg],
                                         ["__blob"])

    def explode(batch: pa.Table) -> pa.Table:
        kt = batch[key].type
        keys_rep, q_out, v_out = [], [], []
        for i in range(batch.num_rows):
            blob = batch["__blob"][i].as_py()
            td = TDigest.deserialize(blob) if blob else TDigest()
            for q in qs:
                keys_rep.append(i)
                q_out.append(q)
                v_out.append(td.quantile(q))
        return pa.table({
            key: batch[key].take(pa.array(keys_rep, pa.int64())),
            "q": pa.array(q_out, pa.float64()),
            "value": pa.array(v_out, pa.float64()),
        })

    return merged.map_batches(explode, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_corr(ds, key: str, x: str, y: str, scale: int = 100,
                 out: str = "corr_e6"):
    """Per-group Pearson correlation, fixed-point-before-sum: both
    columns quantize per element to ``floor(v * scale + 0.5)`` int64,
    the six sufficient statistics (n, Sx, Sy, Sxx, Syy, Sxy) combine
    per block and merge in ONE key-sized groupby, and the final
    combination ``(n*Sxy - Sx*Sy) / sqrt((n*Sxx - Sx^2) *
    (n*Syy - Sy^2))`` runs in ARBITRARY-PRECISION Python ints (== SQL
    HUGEINT — int64 would overflow the n*S products) with exactly
    TWO float roundings (numerator -> double, denominator product ->
    double, mirroring ``CAST(... AS DOUBLE)`` placement in the
    oracle) so the e6 fixed-point result is hash-exact vs DuckDB.
    Rows with a NULL on either side drop pairwise; groups with n < 2
    or zero variance yield NULL. The finish pass is a Python loop
    over GROUP rows (result-sized by construction, never input-
    sized). The squared/cross products are summed as hi/lo 32-bit
    halves (p >> 32 and p & 0xffffffff, each an int64 sum) and
    reconstructed exactly as Python ints at finish — a straight
    int64 sum of q^2 values wraps silently around ~10^5 rows/key at
    q ~ 10^7 (sf >= ~0.2 for l_extendedprice at scale=100).
    Envelope: per key, sum(|q|) < 2^63 and n < 2^31 rows.

    Returns a Dataset of (key, n, out)."""
    import math

    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    _MASK = (1 << 32) - 1

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch[x]), pc.is_valid(batch[y]))
        t = batch.select([key, x, y]).filter(m)
        qx = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t[x], pa.float64()), float(scale)), 0.5)),
            pa.int64())
        qy = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t[y], pa.float64()), float(scale)), 0.5)),
            pa.int64())
        prods = {"__sxx": pc.multiply(qx, qx),
                 "__syy": pc.multiply(qy, qy),
                 "__sxy": pc.multiply(qx, qy)}
        base = pa.table({
            key: t[key], "__n": pa.array(np.ones(t.num_rows, np.int64)),
            "__sx": qx, "__sy": qy} | {
            # arithmetic >> keeps p == hi*2^32 + lo exact for
            # negative cross products too (lo is the non-negative
            # low word)
            f"{c}{suf}": arr
            for c, p in prods.items()
            for suf, arr in (("h", pc.shift_right(p, 32)),
                             ("l", pc.bit_wise_and(p, _MASK)))})
        cols = [c for c in base.column_names if c != key]
        g = pa.TableGroupBy(base, key).aggregate(
            [(c, "sum") for c in cols])
        return pa.table({key: g[key]} | {
            c: g[f"{c}_sum"].cast(pa.int64()) for c in cols})

    cols = ["__n", "__sx", "__sy",
            "__sxxh", "__sxxl", "__syyh", "__syyl", "__sxyh", "__sxyl"]
    agg = null_safe_grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], [Sum(c, alias_name=c) for c in cols], cols)

    def finish(batch: pa.Table) -> pa.Table:
        out_n, out_c = [], []
        rows = batch.to_pylist()  # GROUP rows: result-sized
        for r in rows:
            n, sx, sy = r["__n"], r["__sx"], r["__sy"]
            out_n.append(n)
            if n is None or n < 2:
                out_c.append(None)
                continue
            sxx = (r["__sxxh"] << 32) + r["__sxxl"]
            syy = (r["__syyh"] << 32) + r["__syyl"]
            sxy = (r["__sxyh"] << 32) + r["__sxyl"]
            num = n * sxy - sx * sy          # exact (python int)
            d1 = n * sxx - sx * sx
            d2 = n * syy - sy * sy
            if d1 <= 0 or d2 <= 0:
                out_c.append(None)
                continue
            # each variance factor converts to double EXACTLY like
            # the oracle's CAST(... AS DOUBLE), then ONE IEEE
            # multiply — the exact-int product would overflow the
            # oracle's INT128 at sf0.1 magnitudes (observed:
            # 8.4e16 * 3.6e23), while the factors themselves stay
            # far inside both int128 and the double range
            corr = float(num) / math.sqrt(float(d1) * float(d2))
            out_c.append(int(math.floor(corr * 1e6 + 0.5)))
        return pa.table({key: batch[key],
                         "n": pa.array(out_n, pa.int64()),
                         out: pa.array(out_c, pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def grouped_entropy(ds, key: str, col: str, out: str = "entropy_e6"):
    """Per-group Shannon entropy (nats) of a categorical column's
    distribution — the label-diversity / mode-collapse gate a
    curation pipeline runs per source, per user, or per shard.

    Fixed-point-before-sum: entropy decomposes as ``ln(n) -
    (1/n) * sum_v c_v * ln(c_v)`` over the per-(key, value) counts
    ``c_v``, so the only per-value float work quantizes INDEPENDENTLY
    to ``floor(c * ln(c) * 1e6 + 0.5)`` int64 terms whose sum is
    order-free — no float accumulation across the shuffle. ``ln`` is
    evaluated with ``math.log`` through a unique-count LUT per batch
    (np.log's SIMD path differs from libm in the last ulp and would
    break hash parity with DuckDB ``ln``; counts repeat heavily so
    the LUT loop is tiny). The finish combines the two integer
    sufficient statistics per key with exactly the oracle's float
    expression ``ln(n) - (s / 1e6) / n``.

    Shape: per-block (key, value) pair counts combine BEFORE the
    first shuffle (pair-cardinality exchange), terms reduce again per
    block, and the second shuffle is key-sized. NULL values drop
    (``WHERE col IS NOT NULL``); NULL keys form their own group.
    Envelope: per key ``sum(c * ln(c) * 1e6) < 2^63`` — safe to
    ~3e11 rows per key.

    Returns a Dataset of (key, n, out).
    """
    import math

    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    def pair_counts(batch: pa.Table) -> pa.Table:
        from .relational import safe_groupby_aggregate
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        g = safe_groupby_aggregate(t, [key, col],
                                   [([], "count_all")])
        return pa.table({key: g[key], col: g[col],
                         "__c": g["count_all"].cast(pa.int64())})

    pairs = null_safe_grouped_aggregate(
        ds.map_batches(pair_counts, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key, col], [Sum("__c", alias_name="__c")], ["__c"])

    def terms(batch: pa.Table) -> pa.Table:
        c = batch["__c"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(c, return_inverse=True)
        # math.log, not np.log: libm == DuckDB ln bit-exact
        lut = np.fromiter(
            (math.floor(float(u) * math.log(float(u)) * 1e6 + 0.5)
             for u in uniq), np.int64, len(uniq))
        t = pa.table({key: batch[key], "__n": batch["__c"],
                      "__s": pa.array(lut[inv] if len(c) else
                                      np.empty(0, np.int64))})
        g = pa.TableGroupBy(t, key).aggregate(
            [("__n", "sum"), ("__s", "sum")])
        return pa.table({key: g[key],
                         "__n": g["__n_sum"].cast(pa.int64()),
                         "__s": g["__s_sum"].cast(pa.int64())})

    agg = null_safe_grouped_aggregate(
        pairs.map_batches(terms, batch_format="pyarrow",
                          zero_copy_batch=True),
        [key], [Sum("__n", alias_name="__n"),
                Sum("__s", alias_name="__s")], ["__n", "__s"])

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["__n"].combine_chunks().to_numpy(
            zero_copy_only=False)
        s = batch["__s"].combine_chunks().to_numpy(
            zero_copy_only=False)
        ent = [None if nv is None or nv <= 0 else
               int(math.floor(
                   (math.log(float(nv)) - float(sv) / 1e6 / float(nv))
                   * 1e6 + 0.5))
               for nv, sv in zip(n.tolist(), s.tolist())]
        return pa.table({key: batch[key],
                         "n": batch["__n"],
                         out: pa.array(ent, pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def key_skew_report(ds, key: str, qs=(0.5, 0.9, 0.99)) -> pa.Table:
    """Partitioning-key skew profile: ONE summary row describing how
    rows distribute over ``key`` — n_keys, n_rows, max/quantile group
    sizes, the hottest key's row share and the mean group size (both
    ppm integers). The operational input to the salting / hot-key
    decisions every wide stage in this engine makes (SURVEY §2.4 skew
    salting): p99_count >> avg flags a salt-worthy key before the
    shuffle that would discover it the hard way.

    Scale shape: exact per-key counts via the standard
    pre-aggregate -> keys-sized shuffle (a hot key reduces per block
    first), materialized ONCE as a distributed key-sized Dataset —
    never on the driver. The size distribution then pays one
    single-column range-partitioned sort (`exact_quantiles`, DuckDB
    quantile_disc convention) plus one count/sum/max aggregate; the
    driver holds only the k quantile values and three counters. NULL
    keys form their own group, exactly like SQL GROUP BY.
    """
    from ray.data.aggregate import Count, Max, Sum

    from .relational import null_safe_grouped_aggregate, pre_aggregate

    partial = pre_aggregate(ds.select_columns([key]), [key],
                            [(None, "count")])
    counts = null_safe_grouped_aggregate(
        partial, [key], [Sum("rows_count", alias_name="cnt")],
        ["cnt"]).materialize()

    agg = counts.aggregate(Count(alias_name="n_keys"),
                           Sum("cnt", alias_name="n_rows"),
                           Max("cnt", alias_name="max_count"))
    n_keys = int(agg["n_keys"]) if agg else 0
    if n_keys == 0:
        cols = (["n_keys", "n_rows", "max_count"]
                + [f"p{str(q)[2:].ljust(2, '0')}_count" for q in qs]
                + ["top_share_e6", "avg_count_e6"])
        return pa.table({c: pa.array([0], pa.int64()) for c in cols})
    n_rows = int(agg["n_rows"])
    max_count = int(agg["max_count"])

    qt = exact_quantiles(counts, "cnt", qs=tuple(qs))
    # counts are int64 < 2^53, so the float round trip is exact
    qvals = {float(q): int(v) for q, v in
             zip(qt["q"].to_pylist(), qt["value"].to_pylist())}

    row = {"n_keys": n_keys, "n_rows": n_rows, "max_count": max_count}
    for q in qs:
        row[f"p{str(q)[2:].ljust(2, '0')}_count"] = qvals[float(q)]
    row["top_share_e6"] = (max_count * 1_000_000) // n_rows
    row["avg_count_e6"] = (n_rows * 1_000_000) // n_keys
    return pa.Table.from_pylist(
        [row], schema=pa.schema([(c, pa.int64()) for c in row]))
