"""Rank / running-window operators: grouped top-k, per-key running
totals and ROWS-frame windows, lag/lead, forward fill, exact
per-group quantiles, deterministic per-group mode.

Scale shape: top-k partials are MERGEABLE (top-k of a union is
contained in the union of per-part top-ks), so each block is first
reduced to <= k rows per group before anything moves; one
range-partitioned sort then co-locates groups, and only the <= 2 key
segments that can straddle a block boundary surface as fixed-size
edge rows — driver memory is O(k * n_blocks), independent of any
single group's row count, and no per-group Python (``map_groups``)
runs anywhere.

The ordered-window operators (running sums and maxima, moving-window
sum/median/extrema/distinct count, lag/lead, forward fill, trailing
concatenation) and the exact quantile pair all run on the one
sort-scan-carry round-trip of :mod:`.sorted_scan`
(:func:`.sorted_scan.sorted_carry`): one null-safe range-partitioned
sort, a vectorized scan per sorted block, O(n_blocks) carry rows
folded on the driver and broadcast once, and a distributed resolve of
the few rows that need another block's state. Positions cross blocks
in one exact encoding, :func:`.sorted_scan.order_np`. The quantile
pair is one global-rank carry (:func:`_grouped_quantiles`) that
differs only in its target ranks; ``grouped_mode`` is a pure
composition of a combiner counts groupby and ``grouped_top_k(k=1)``
over the reduced counts.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .sorted_scan import (_is_string_type as _is_str, _np,
                          group_key_expr, key_segments, order_np,
                          replace_rows, sorted_carry)


def _segment_topk(kk: np.ndarray, sort_key: np.ndarray,
                  tb: np.ndarray, k: int):
    """Indices of the <= k best rows of every key group in one batch
    plus their 0-based in-group ranks — one lexsort, no Python per
    group. ``kk`` is the encoded key vector (any order)."""
    n = len(kk)
    _, codes = np.unique(kk, return_inverse=True)
    order = np.lexsort((tb, sort_key, codes))
    sk = codes[order]
    newseg = np.concatenate([[True], sk[1:] != sk[:-1]])
    starts = np.nonzero(newseg)[0]
    seg_ids = np.cumsum(newseg) - 1
    rank = np.arange(n) - starts[seg_ids]
    keep = rank < k
    return order[keep], rank[keep]


def _fill_from_carries(kept: pa.Table, groups, out: str,
                       forward: bool) -> pa.Table:
    """Shared resolve of lag, lead and forward fill: a pending row
    takes the carried value of its key's nearest carry before its
    block (the earliest one after it, with ``forward``); rows with
    none keep theirs. Each key's state is its carried values."""
    rows, vals = [], []
    for r, pos, vv in groups:
        for i, p in zip(r, pos if forward else pos - 1):
            if 0 <= p < len(vv):
                rows.append(i)
                vals.append(vv[p])
    if not rows:
        return kept
    return replace_rows(kept, out, rows,
                         pa.array(vals, kept[out].type))


def grouped_top_k(ds, keys: List[str], order_col: str, k: int,
                  descending: bool = True,
                  tiebreak: Optional[str] = None,
                  tiebreak_descending: bool = False):
    """Top-k rows PER GROUP (SQL ``row_number() OVER (PARTITION BY
    keys ORDER BY order_col [DESC] [, tiebreak]) <= k``), with the
    1-based rank appended as ``rn``.

    Two passes: (1) per-block reduction to <= k rows per group —
    mergeable, so the sort that follows moves at most ``k *
    n_blocks`` rows per group regardless of input skew; (2) one
    null-safe sort on the encoded group key co-locates groups, a
    second vectorized reduction finalizes every interior segment, and
    the first/last segment of each sorted block (the only ones a
    neighbouring block can continue) resolve from <= 2k fixed-size
    edge rows per block on the driver. Ties beyond ``tiebreak`` (or
    all ties when it is None) are broken arbitrarily but
    deterministically within a run — pass a unique ``tiebreak`` for
    reproducible results, exactly as SQL ``row_number`` requires a
    total order. The tiebreak direction is INDEPENDENT of the order
    column's: it defaults to ascending (SQL ``ORDER BY order_col
    DESC, tiebreak ASC``); pass ``tiebreak_descending=True`` for
    ``tiebreak DESC`` — match whichever direction the comparison
    oracle's ORDER BY uses, since a tied ``order_col`` otherwise
    silently picks a different row. NULL group keys form their own
    group (SQL PARTITION BY semantics); NULL order values rank last.
    """
    out_names = None  # closed over lazily: original column order

    def encode(batch: pa.Table) -> pa.Table:
        return batch.append_column("__k", group_key_expr(batch, keys))

    def tb_np(batch: pa.Table) -> np.ndarray:
        if tiebreak is None:
            return np.arange(batch.num_rows, dtype=np.int64)
        return order_np(batch, tiebreak,
                         descending=tiebreak_descending)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        kk = batch["__k"].combine_chunks().to_numpy(zero_copy_only=False)
        sel, _ = _segment_topk(kk, order_np(batch, order_col, descending),
                               tb_np(batch), k)
        return batch.take(pa.array(np.sort(sel)))

    enc = ds.map_batches(encode, batch_format="pyarrow",
                         zero_copy_batch=True)
    reduced = enc.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    sorted_ds = reduced.sort("__k")

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column(
                "rn", pa.array([], pa.int64())).append_column(
                "__edge", pa.array([], pa.bool_()))
        kk = batch["__k"].combine_chunks().to_numpy(zero_copy_only=False)
        sel, rank = _segment_topk(
            kk, order_np(batch, order_col, descending), tb_np(batch), k)
        out = batch.take(pa.array(sel))
        edge = (kk[sel] == kk[0]) | (kk[sel] == kk[n - 1])
        return out.append_column(
            "rn", pa.array(rank + 1, pa.int64())).append_column(
            "__edge", pa.array(edge))

    scanned = sorted_ds.map_batches(finalize, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()

    def interior(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(batch["__edge"])) \
            .drop_columns(["__k", "__edge"])

    interior_ds = scanned.map_batches(interior, batch_format="pyarrow",
                                      zero_copy_batch=True)

    # edge segments: <= 2k candidate rows per block reach the driver;
    # the __edge filter runs DISTRIBUTED so full blocks never do
    def edge_only(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["__edge"])

    edge_tables = []
    for kept in scanned.map_batches(edge_only, batch_format="pyarrow",
                                    zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        if kept.num_rows:
            edge_tables.append(pa.Table.from_batches([kept])
                               if isinstance(kept, pa.RecordBatch)
                               else kept)
    if not edge_tables:
        return interior_ds
    edges = pa.concat_tables(edge_tables, promote_options="default")
    kk = edges["__k"].combine_chunks().to_numpy(zero_copy_only=False)
    sel, rank = _segment_topk(
        kk, order_np(edges, order_col, descending), tb_np(edges), k)
    resolved = edges.take(pa.array(sel)) \
        .drop_columns(["rn", "__k", "__edge"]) \
        .append_column("rn", pa.array(rank + 1, pa.int64()))

    import ray

    out_names = [c for c in scanned.schema().base_schema.names
                 if c not in ("__k", "__edge")]
    return interior_ds.map_batches(
        lambda b: b.select(out_names), batch_format="pyarrow",
        zero_copy_batch=True) \
        .union(ray.data.from_arrow(resolved.select(out_names)))


def cumulative_sum(ds, key: str, ts: str, value: str,
                   tiebreak: str):
    """Per-key running total: every row gains ``running_sum`` = SQL
    ``sum(value) OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS
    UNBOUNDED PRECEDING)``. ``tiebreak`` must make ``(ts, tiebreak)``
    unique within a key (same total-order requirement as a
    deterministic SQL ROWS window).

    Shape (shared with :func:`grouped_value_ranks` via
    :func:`_running_sums`): :func:`sorted_carry` with a vectorized
    per-block prefix scan (every segment that STARTS in a block is
    final) and one carry row per block, the (sum, non-null count) of
    its last key segment. A Zipf-hot key spanning every block costs
    one carry row per block, never its timeline. NULL values don't
    contribute (SQL SUM ignores them); a row with no non-null value
    so far carries a NULL running_sum. ``ts`` / ``tiebreak`` must be
    numeric or temporal (exact carry positions, see
    :func:`sorted_carry`).
    """
    return _running_sums(ds, key, ts, [(value, "running_sum")],
                         tiebreak)


def cumulative_max(ds, key: str, ts: str, value: str,
                   tiebreak: str, out: str = "running_max"):
    """Per-key running maximum: every row gains ``out`` = SQL
    ``max(value) OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS
    UNBOUNDED PRECEDING)`` — the streaming WATERMARK primitive (with
    ``value = ts`` the running max IS the event-time watermark over
    ingestion order, and ``watermark - ts`` is each row's lateness).

    Shape identical to :func:`cumulative_sum` — it delegates to
    :func:`_running_sums` with the ``max`` combine (Hillis-Steele
    segmented prefix max in-block, prefix-max carry offsets on the
    driver). NULL values
    don't participate (SQL MAX ignores them); rows before the first
    non-null value carry NULL. Values travel as float64 — exact for
    temporal/int columns up to 2**53 ticks (us timestamps are
    ~2**51); the running max SELECTS an input, so float parity with
    a SQL window twin is exact."""
    return _running_sums(ds, key, ts, [(value, out, "max")], tiebreak)


def _running_sums(ds, key: str, ts: str, pairs, tiebreak: str):
    """Multi-column per-key running aggregates in ONE sort + scan:
    ``pairs`` is a list of ``(value_col, out_col)`` or ``(value_col,
    out_col, op)`` with ``op`` in {"sum", "max"} (default "sum");
    every row gains each ``out_col`` = running sum/max of its
    ``value_col`` (NULL until the first non-null value). Runs on
    :func:`sorted_carry`: each block carries its last row, whose
    in-segment running values are its last segment's totals, and the
    driver folds them into per-key prefix sums for "sum" and prefix
    maxima for "max" (identity 0 / -inf)."""
    pairs = [(p[0], p[1], p[2] if len(p) > 2 else "sum")
             for p in pairs]
    cnt_cols = [f"__cnt{i}" for i in range(len(pairs))]
    NEG = -np.inf

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        cols = {}
        for (value, oname, op), cc in zip(pairs, cnt_cols):
            varr = pc.cast(batch[value], pa.float64())
            if isinstance(varr, pa.ChunkedArray):
                varr = varr.combine_chunks()
            valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
            cn = np.cumsum(valid.astype(np.int64))
            cn = cn - np.concatenate([[0], cn])[starts][seg_ids]
            if op == "sum":
                v = pc.fill_null(varr, 0.0).to_numpy(zero_copy_only=False)
                cs = np.cumsum(v)
                cs = cs - np.concatenate([[0.0], cs])[starts][seg_ids]
            else:
                # segmented prefix max: no cumsum-subtraction trick
                # exists for max, so run a Hillis-Steele doubling
                # scan gated on segment ids — log2(n) whole-array
                # numpy passes, no per-segment Python loop
                cs = pc.fill_null(varr, NEG) \
                    .to_numpy(zero_copy_only=False).copy()
                step = 1
                while step < n:
                    same = seg_ids[step:] == seg_ids[:-step]
                    cs[step:] = np.maximum(
                        cs[step:], np.where(same, cs[:-step], NEG))
                    step <<= 1
            cols[oname] = pa.array(cs, pa.float64())
            cols[cc] = pa.array(cn, pa.int64())
        return None, cols, seg_ids == 0, [n - 1], \
            {c: a.slice(n - 1, 1) for c, a in cols.items()}

    def fold(carries: pa.Table):
        pre_s, pre_c = [], []
        for (_, o, op), cc in zip(pairs, cnt_cols):
            vals = _np(carries[o])
            pre_s.append(
                np.concatenate([[0.0], np.cumsum(vals)]) if op == "sum"
                else np.concatenate([[NEG], np.maximum.accumulate(vals)]))
            pre_c.append(np.concatenate([[0], np.cumsum(_np(carries[cc]))]))
        return pre_s, pre_c

    def resolve(kept: pa.Table, groups) -> pa.Table:
        runs = [_np(kept[o]).copy() for _, o, _ in pairs]
        cnts = [_np(kept[cc]).copy() for cc in cnt_cols]
        for rows, pos, (pre_s, pre_c) in groups:
            for i, (_, _, op) in enumerate(pairs):
                if op == "sum":
                    runs[i][rows] += pre_s[i][pos]
                else:
                    runs[i][rows] = np.maximum(runs[i][rows],
                                               pre_s[i][pos])
                cnts[i][rows] += pre_c[i][pos]
        for (_, o, _), run, cnt in zip(pairs, runs, cnts):
            kept = kept.set_column(kept.column_names.index(o), o, pa.array(
                run, pa.float64(), mask=(cnt == 0)))
        return kept

    return sorted_carry(ds, [key], [ts, tiebreak], "running sums", scan,
                        fold, resolve, drop=cnt_cols)


def windowed_sum(ds, key: str, ts: str, value: str, tiebreak: str,
                 window_n: int, out: str = "win_sum"):
    """Per-key moving-window total: every row gains ``out`` = SQL
    ``sum(value) OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS
    BETWEEN window_n-1 PRECEDING AND CURRENT ROW)`` plus
    ``win_cnt`` (non-null values in the frame, NULL sum when 0 —
    SQL SUM semantics). ``(ts, tiebreak)`` must be unique per key,
    numeric/temporal only (the :func:`cumulative_sum` contract).

    Shape: :func:`sorted_carry` with per-block windowed prefix-sum
    differences (every row with ``window_n - 1`` same-key in-block
    predecessors is final) and <= window_n - 1 carry rows per block,
    the tail of its last key segment. Only each block's first <=
    window_n - 1 rows are pending, and they add the non-null values
    among their key's last carries before the block, so the in-block
    part is never double-counted. Driver state is O(window_n *
    n_blocks), independent of any key's row count. Exactness note:
    sums are float64 prefix differences — for bit-exact parity with a
    sequential SQL engine feed integer (or integer-scaled) values.
    """
    if window_n < 1:
        raise ValueError("windowed_sum requires window_n >= 1")
    tail = window_n - 1

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        varr = pc.cast(batch[value], pa.float64())
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
        v = pc.fill_null(varr, 0.0).to_numpy(zero_copy_only=False)
        idx = np.arange(n)
        in_seg = idx - starts[seg_ids]
        cs0 = np.concatenate([[0.0], np.cumsum(v)])
        cn0 = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        lo = np.maximum(idx - tail, starts[seg_ids])
        cidx = np.arange(max(int(starts[-1]), n - tail), n)
        # a carry's `out` holds the row's OWN value
        return (None,
                {out: pa.array(cs0[idx + 1] - cs0[lo], pa.float64()),
                 "win_cnt": pa.array(cn0[idx + 1] - cn0[lo], pa.int64()),
                 "__j": pa.array(in_seg, pa.int64())},
                (seg_ids == 0) & (in_seg < tail), cidx,
                {out: varr.take(pa.array(cidx))})

    def resolve(kept: pa.Table, groups) -> pa.Table:
        wsum = _np(kept[out]).copy()
        wcnt = _np(kept["win_cnt"]).copy()
        j = _np(kept["__j"])
        for rows, pos, vv in groups:
            for i, p in zip(rows, pos):
                take = min(tail - int(j[i]), int(p))
                vals = [x for x in vv[p - take:p] if x is not None]
                if vals:
                    wsum[i] += float(np.sum(vals))
                    wcnt[i] += len(vals)
        res = kept.set_column(kept.column_names.index(out), out,
                              pa.array(wsum, pa.float64(),
                                       mask=(wcnt == 0)))
        return res.set_column(res.column_names.index("win_cnt"),
                              "win_cnt", pa.array(wcnt, pa.int64()))

    return sorted_carry(ds, [key], [ts, tiebreak], "windowed_sum", scan,
                        lambda t: t[out].to_pylist(), resolve,
                        drop=["__j"])


def _windowed_rows(ds, key: str, ts: str, value: str, tiebreak: str,
                   window_n: int, outs, block_kernel, pending_fn,
                   cnt_out: str):
    """Shared harness for order-sensitive ROWS-frame window operators
    whose per-frame statistic cannot fold into a combinable partial
    (median, min/max, ...): :func:`sorted_carry` with a vectorized
    ``sliding_window_view`` kernel per block and the
    :func:`windowed_sum` carries — the last <= window_n - 1 values
    (nulls kept) of each block's last key segment. Each pending row
    also keeps its in-block frame, so it recomputes distributed from
    carries and that frame. Driver state is O(window_n * n_blocks),
    independent of any key's size.

    ``outs`` is the ordered list of output column names (int64;
    quantize float inputs BEFORE calling — the repo's fixed-point
    discipline). ``block_kernel(vals, sw_ok, cnt) -> {name: float
    ndarray}`` sees each row's frame as a (n, window_n) slab with
    invalid positions masked to +inf (``sw_ok`` marks valid);
    ``pending_fn(frame) -> tuple`` recomputes one boundary row from
    its SORTED non-null frame values (never called on empty frames —
    empty frames emit NULL). ``(ts, tiebreak)`` must be unique per
    key, numeric/temporal only (the :func:`cumulative_sum`
    contract)."""
    if window_n < 1:
        raise ValueError("windowed_* requires window_n >= 1")
    from numpy.lib.stride_tricks import sliding_window_view

    tail = window_n - 1

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        varr = pc.cast(batch[value], pa.float64())
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
        v = pc.fill_null(varr, 0.0).to_numpy(zero_copy_only=False)
        vp = np.concatenate([np.zeros(tail, np.float64), v])
        okp = np.concatenate([np.zeros(tail, bool), valid])
        sgp = np.concatenate([np.full(tail, -1, np.int64), seg_ids])
        sw_ok = (sliding_window_view(okp, window_n)
                 & (sliding_window_view(sgp, window_n)
                    == seg_ids[:, None]))
        vals = np.where(sw_ok, sliding_window_view(vp, window_n),
                        np.inf)
        cnt = sw_ok.sum(1).astype(np.int64)
        stats = block_kernel(vals, sw_ok, cnt)
        cols = {name: pa.array(
            np.round(np.where(cnt > 0, stats[name], 0.0)).astype(np.int64),
            pa.int64(), mask=(cnt == 0)) for name in outs}
        cols[cnt_out] = pa.array(cnt, pa.int64())
        # a pending row j keeps its in-block frame, rows 0..j (nulls
        # kept); other rows an empty list
        in_seg = np.arange(n) - starts[seg_ids]
        pend = (seg_ids == 0) & (in_seg < tail)
        lens = np.where(pend, in_seg + 1, 0)
        offs = np.concatenate([[0], np.cumsum(lens)])
        flat = np.arange(offs[-1]) - np.repeat(offs[:-1], lens)
        cols["__fv"] = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), varr.take(pa.array(flat)))
        cidx = np.arange(max(int(starts[-1]), n - tail), n)
        return None, cols, pend, cidx, {"__cv": varr.take(pa.array(cidx))}

    def resolve(kept: pa.Table, groups) -> pa.Table:
        stats = {name: _np(pc.fill_null(kept[name], 0)).copy()
                 for name in outs}
        cnt = _np(kept[cnt_out]).copy()
        fvs = kept["__fv"]
        for rows, pos, vv in groups:
            for i, p in zip(rows, pos):
                inblock = fvs[int(i)].as_py()
                take = min(window_n - len(inblock), int(p))
                frame = (vv[p - take:p] if take > 0 else []) + inblock
                fv = np.sort(np.array(
                    [x for x in frame if x is not None], np.float64))
                cnt[i] = len(fv)
                if len(fv):
                    for name, val in zip(outs, pending_fn(fv)):
                        stats[name][i] = val
        for name in outs:
            kept = kept.set_column(
                kept.column_names.index(name), name,
                pa.array(stats[name], pa.int64(), mask=(cnt == 0)))
        return kept.set_column(kept.column_names.index(cnt_out),
                               cnt_out, pa.array(cnt, pa.int64()))

    return sorted_carry(ds, [key], [ts, tiebreak], "windowed op", scan,
                        lambda t: t["__cv"].to_pylist(), resolve,
                        drop=["__fv", "__cv"])


def windowed_median(ds, key: str, ts: str, value: str, tiebreak: str,
                    window_n: int, out: str = "med2",
                    cnt_out: str = "win_cnt"):
    """Per-key moving-window median, emitted DOUBLED so it stays an
    exact integer: every row gains ``out`` = SQL ``2 * median(value)
    OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS BETWEEN
    window_n-1 PRECEDING AND CURRENT ROW)`` — the sum of the frame's
    lower and upper middle non-null values (equal when the non-null
    count is odd), plus ``cnt_out`` (non-null values in the frame;
    NULL median when 0). For integer-valued inputs the result is an
    exact int64, hash-stable against a SQL oracle's interpolated
    ``median`` — quantize floats BEFORE calling. Shape: the
    :func:`_windowed_rows` harness; the kernel is ONE ``np.sort``
    per block over the (n, window_n) frame slab (O(n * w log w)) and
    a take_along_axis gather of the two middles — unlike a sum, a
    median cannot fold carries into a partial, so boundary rows
    re-gather their full frame, still O(blocks * window_n) total."""

    def kernel(vals, sw_ok, cnt):
        srt = np.sort(vals, axis=1)
        lo = np.maximum((cnt - 1) // 2, 0)
        hi = np.maximum(cnt // 2, 0)
        a = np.take_along_axis(srt, lo[:, None], 1)[:, 0]
        b = np.take_along_axis(srt, hi[:, None], 1)[:, 0]
        return {out: a + b}

    def pending(fv):
        return (int(round(fv[(len(fv) - 1) // 2] + fv[len(fv) // 2])),)

    return _windowed_rows(ds, key, ts, value, tiebreak, window_n,
                          [out], kernel, pending, cnt_out)


def windowed_extrema(ds, key: str, ts: str, value: str, tiebreak: str,
                     window_n: int, min_out: str = "win_min",
                     max_out: str = "win_max",
                     cnt_out: str = "win_cnt"):
    """Per-key moving-window min AND max in one pass: every row gains
    SQL ``min(value) OVER (PARTITION BY key ORDER BY ts, tiebreak
    ROWS BETWEEN window_n-1 PRECEDING AND CURRENT ROW)`` and the
    matching ``max``, plus the frame's non-null count (NULL extrema
    when 0) — the rolling band trackers range/volatility gates key
    on. Integer-valued inputs only (quantize floats first); shape is
    the :func:`_windowed_rows` harness with an O(n * w) min/max
    kernel (invalid frame positions masked to +/-inf)."""

    def kernel(vals, sw_ok, cnt):
        return {min_out: vals.min(axis=1),
                max_out: np.where(sw_ok, vals, -np.inf).max(axis=1)}

    def pending(fv):
        return (int(fv[0]), int(fv[-1]))

    return _windowed_rows(ds, key, ts, value, tiebreak, window_n,
                          [min_out, max_out], kernel, pending, cnt_out)


def grouped_value_ranks(ds, key: str, col: str):
    """SQL ``rank()`` / ``dense_rank() OVER (PARTITION BY key ORDER
    BY col)`` profiled per DISTINCT value: returns one row per
    ``(key, col)`` with ``cnt`` (rows holding that value), ``rank``
    (the RANK every such row receives) and ``dense_rank``. Ascending
    numeric/temporal order; NULL values are EXCLUDED (under SQL's
    NULLS LAST default their presence never changes a non-null row's
    rank, and a null order value cannot cross block boundaries as a
    carry position). Attach row-level ranks by joining back on
    ``(key, col)`` (broadcast or sort-merge join, both in
    :mod:`.relational`).

    Shape: one distributed combiner ``groupby (key, col) -> cnt``
    (the only all-to-all), then ONE sort + prefix scan over the
    distinct-value table via :func:`_running_sums` — rank =
    running_rows − cnt + 1, dense_rank = running distinct index.
    Driver state stays O(n_blocks) carry rows; a key with millions
    of distinct values never materializes in one place.
    """
    from .relational import null_safe_grouped_aggregate

    agg = null_safe_grouped_aggregate(
        ds.map_batches(
            lambda b: b.select([key, col])
            .filter(pc.is_valid(b[col])),
            batch_format="pyarrow", zero_copy_batch=True),
        [key, col], [_count_agg()], ["cnt"])

    def add_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__one", pa.array(np.ones(batch.num_rows, np.int64)))

    with_one = agg.map_batches(add_one, batch_format="pyarrow",
                               zero_copy_batch=True)
    # (col, __one) is unique per key — distinct values after the
    # combiner — so the constant __one column doubles as the
    # (redundant) tiebreak without repeating col in the sort spec
    run = _running_sums(with_one, key, col,
                        [("cnt", "__run_rows"), ("__one", "__run_d")],
                        tiebreak="__one")

    def project(batch: pa.Table) -> pa.Table:
        rr = batch["__run_rows"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        rd = batch["__run_d"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        rank = (rr - cnt + 1).astype(np.int64)
        dense = rd.astype(np.int64)
        return batch.drop_columns(["__run_rows", "__run_d", "__one"]) \
            .append_column("rank", pa.array(rank)) \
            .append_column("dense_rank", pa.array(dense))

    return run.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True)


def _count_agg():
    from ray.data.aggregate import Count

    return Count(alias_name="cnt")


def grouped_rank_profiles(ds, key: str, col: str):
    """:func:`grouped_value_ranks` extended with SQL
    ``percent_rank()`` and ``cume_dist()``: one row per distinct
    ``(key, col)`` with cnt/rank/dense_rank plus
    ``pct_rank = (rank-1)/(n-1)`` (0 for single-row groups, the SQL
    convention) and ``cume_dist = (rank+cnt-1)/n`` — both constant
    across the rows sharing a value, so the value-level profile is
    lossless. NULL order values are excluded like the base op.

    Shape: the base op's combiner groupby + one sort/prefix scan,
    plus ONE key-cardinality-sized total-rows aggregate that is
    broadcast through the object store (``ray.put`` once, read per
    batch). The broadcast is bounded by the number of DISTINCT keys;
    for key cardinalities beyond worker heaps, join the totals back
    with :func:`.relational.sort_merge_join` instead."""
    import ray
    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    ranks = grouped_value_ranks(ds, key, col).materialize()
    totals = null_safe_grouped_aggregate(
        ranks.map_batches(lambda b: b.select([key, "cnt"]),
                          batch_format="pyarrow", zero_copy_batch=True),
        [key], [Sum("cnt", alias_name="n")], ["n"])
    tot_tables = [pa.Table.from_batches([b])
                  if isinstance(b, pa.RecordBatch) else b
                  for b in totals.iter_batches(batch_format="pyarrow")]
    tot_tables = [t for t in tot_tables if t.num_rows]
    if not tot_tables:
        return ranks.map_batches(
            lambda b: b.append_column(
                "pct_rank", pa.array([], pa.float64())).append_column(
                "cume_dist", pa.array([], pa.float64())),
            batch_format="pyarrow", zero_copy_batch=True)
    tot = pa.concat_tables(tot_tables, promote_options="default")
    tot_ref = ray.put(tot)

    def attach(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "pct_rank", pa.array([], pa.float64())).append_column(
                "cume_dist", pa.array([], pa.float64()))
        t = ray.get(tot_ref)
        idx = pc.index_in(batch[key].combine_chunks(),
                          value_set=t[key].combine_chunks())
        n = t["n"].combine_chunks().take(idx) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        rank = batch["rank"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = batch["cnt"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        pct = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
        cume = (rank + cnt - 1) / n
        return batch.append_column("pct_rank", pa.array(pct)) \
            .append_column("cume_dist", pa.array(cume))

    return ranks.map_batches(attach, batch_format="pyarrow",
                             zero_copy_batch=True)


def grouped_row_numbers(ds, key: str, ts: str, tiebreak: str,
                        out: str = "row_number"):
    """SQL ``row_number() OVER (PARTITION BY key ORDER BY ts,
    tiebreak)``: every row gains its 1-based position within its
    key. ``(ts, tiebreak)`` must be unique within a key (the same
    total-order requirement any deterministic SQL row_number has).

    Shape: a running COUNT is a running sum of ones, so this is
    :func:`_running_sums` verbatim — one null-safe sort, a per-block
    prefix scan, O(n_blocks) fixed-size carries; a hot key costs one
    carry row per block, never its timeline."""
    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__one", pa.array(np.ones(batch.num_rows, np.float64)))

    rs = _running_sums(ds.map_batches(ones, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       key, ts, [("__one", out)], tiebreak)

    def finish(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index(out)
        return batch.set_column(
            i, out, pc.cast(batch[out], pa.int64())) \
            .drop_columns(["__one"])

    return rs.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)


def global_row_numbers(ds, ts: str, tiebreak: str,
                       out: str = "row_number"):
    """SQL ``row_number() OVER (ORDER BY ts, tiebreak)`` — a GLOBAL
    1-based enumeration of the whole dataset (the distributed
    zipWithIndex). ``(ts, tiebreak)`` must be a total order.

    Shape: :func:`grouped_row_numbers` with ONE constant partition
    key. The carry machinery was built hot-key-proof (a key spanning
    every block costs one fixed-size carry row per block, verified
    by the 200k single-conversation test), so the degenerate
    all-rows-one-key case is exactly the shape it already handles:
    one range-partitioned sort on (ts, tiebreak), a per-block prefix
    scan, O(n_blocks) driver carries — no block ever funnels through
    one worker."""
    def const_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__gk", pa.array(np.zeros(batch.num_rows, np.int8)))

    numbered = grouped_row_numbers(
        ds.map_batches(const_key, batch_format="pyarrow",
                       zero_copy_batch=True),
        "__gk", ts, tiebreak, out=out)
    return numbered.map_batches(
        lambda b: b.drop_columns(["__gk"]),
        batch_format="pyarrow", zero_copy_batch=True)


def grouped_ntile(ds, key: str, ts: str, tiebreak: str, k: int,
                  out: str = "ntile", rn_out: str = "row_number"):
    """SQL ``ntile(k) OVER (PARTITION BY key ORDER BY ts,
    tiebreak)`` plus the row_number it is derived from: the key's n
    rows split into k tiles, the first ``n % k`` tiles one row
    larger (the ANSI distribution). Rows keep their full width.

    Shape: :func:`grouped_row_numbers` (one sort + prefix scan +
    O(n_blocks) carries) plus ONE key-cardinality-sized row-count
    aggregate broadcast via ``ray.put`` — same totals-broadcast
    bound as :func:`grouped_rank_profiles`; beyond worker-heap key
    cardinality, join totals back with a sort-merge join instead."""
    import ray

    from .relational import null_safe_grouped_aggregate

    if k < 1:
        raise ValueError(f"ntile k must be >= 1, got {k}")
    numbered = grouped_row_numbers(ds, key, ts, tiebreak,
                                   out=rn_out).materialize()
    totals = null_safe_grouped_aggregate(
        numbered.map_batches(lambda b: b.select([key]),
                             batch_format="pyarrow",
                             zero_copy_batch=True),
        [key], [_count_agg()], ["cnt"])
    tot_tables = [pa.Table.from_batches([b])
                  if isinstance(b, pa.RecordBatch) else b
                  for b in totals.iter_batches(batch_format="pyarrow")]
    tot_tables = [t for t in tot_tables if t.num_rows]
    if not tot_tables:
        return numbered.map_batches(
            lambda b: b.append_column(out, pa.array([], pa.int64())),
            batch_format="pyarrow", zero_copy_batch=True)
    tot = pa.concat_tables(tot_tables, promote_options="default")
    tot_ref = ray.put(tot)

    def attach(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(out, pa.array([], pa.int64()))
        t = ray.get(tot_ref)
        karr = batch[key].combine_chunks()
        tv = t[key].combine_chunks()
        idx = pc.index_in(karr, value_set=tv)
        if karr.null_count:
            # index_in maps a null needle to null, but NULL is a real
            # partition (one row per null-key row of tot, which was
            # built from this very dataset)
            null_pos = int(np.nonzero(
                pc.is_null(tv).to_numpy(zero_copy_only=False))[0][0])
            idx = pc.fill_null(idx, null_pos)
        n = t["cnt"].combine_chunks().take(idx) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        rn = batch[rn_out].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        q, r = n // k, n % k
        big_span = r * (q + 1)  # rows covered by the (q+1)-sized tiles
        tile = np.where(
            rn <= big_span,
            (rn - 1) // np.maximum(q + 1, 1) + 1,
            r + (rn - big_span - 1) // np.maximum(q, 1) + 1)
        return batch.append_column(out, pa.array(tile, pa.int64()))

    return numbered.map_batches(attach, batch_format="pyarrow",
                                zero_copy_batch=True)


def grouped_exact_quantiles(ds, key: str, col: str, qs,
                            tiebreak: str):
    """EXACT per-group quantiles, DuckDB ``quantile_disc(col, q)
    GROUP BY key`` convention (the element with 1-based rank
    ``ceil(q * n)`` among the group's non-null values). Returns
    ``(key, q, value)`` rows. Shape: :func:`_grouped_quantiles`.
    ``tiebreak`` must make ``(col, tiebreak)`` unique within a key so
    global ranks form a permutation (equal values make the SELECTED
    VALUE tie-insensitive, but rank bookkeeping needs the total
    order).
    """
    def targets(cnt, q):
        lo = np.maximum(np.ceil(q * cnt).astype(np.int64) - 1, 0)
        return lo, lo, np.zeros(len(cnt))

    return _grouped_quantiles(ds, key, col, qs, tiebreak,
                              "grouped_exact_quantiles", targets,
                              lambda q: q)


def _grouped_quantiles(ds, key: str, col: str, qs, tiebreak: str,
                       op: str, targets, q_out):
    """The global-rank carry behind the exact quantile pair.
    ``targets(cnt, q) -> (lo, hi, frac)`` gives, per group size, the
    0-based ranks whose values interpolate quantile ``q``: ``v[lo] +
    (v[hi] - v[lo]) * frac``, or ``v[lo]`` when ``hi == lo``.
    ``q_out(q)`` is the ``q`` written to the output.

    Shape: NULL values drop (SQL quantile semantics), then
    :func:`sorted_carry` on ``(key, col, tiebreak)``.
    Every key segment that neither starts nor ends a block is
    complete, so its targets resolve in-block and its other rows are
    dropped at the scan. The first/last segment of each block keeps
    its rows as pending rows and carries one row, its size and first
    value. The driver folds each key's carries into prefix counts and
    targets, so a pending row's GLOBAL rank is its in-block rank plus
    the sizes of its key's earlier pieces, and a ``hi`` rank just past
    a piece's last row reads the next piece's first value. A hot key
    spanning every block costs one carry row per block, never its
    rows; no second exchange merges partial values."""
    qlist = sorted(set(float(q) for q in qs))
    if not qlist:
        raise ValueError("qs must be non-empty")
    if qlist[0] < 0.0 or qlist[-1] > 1.0:
        raise ValueError(f"quantiles must lie in [0, 1], got {qlist}")

    def prep(batch: pa.Table) -> pa.Table:
        for c in (col, tiebreak):
            if _is_str(batch[c].type):
                raise ValueError(
                    f"{op}: column {c!r} is a string; only"
                    " numeric/temporal value/tiebreak columns carry"
                    " across block boundaries")
        return batch.select([key, col, tiebreak]) \
            .filter(pc.is_valid(batch[col]))

    def value_at(v, nxt, lo, hi, frac):
        with np.errstate(invalid="ignore"):
            return np.where(hi > lo, v + (nxt - v) * frac, v)

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        g = len(starts)
        cnt = np.diff(np.append(starts, n))
        v = _np(pc.cast(batch[col], pa.float64()))
        inner = starts[1:g - 1]
        rows, qv, val = [], [], []
        for q in qlist:
            lo, hi, fr = targets(cnt[1:g - 1], q)
            rows.append(inner + lo)
            qv.append(np.full(len(inner), q_out(q)))
            val.append(value_at(v[inner + lo], v[inner + hi], lo, hi, fr))
        m = len(inner) * len(qlist)
        e = np.nonzero((seg_ids == 0) | (seg_ids == g - 1))[0]
        has_next = np.append(seg_ids[1:] == seg_ids[:-1], False)[e]
        nxt = np.append(v[1:], 0.0)[e]
        cidx = np.unique(starts[[0, g - 1]])
        return (np.concatenate(rows + [e]), {
            "q": pa.array(np.concatenate(qv + [np.zeros(len(e))]),
                          pa.float64(), mask=np.arange(m + len(e)) >= m),
            "value": pa.array(np.concatenate(val + [v[e]]), pa.float64()),
            "__vn": pa.array(np.concatenate([np.zeros(m), nxt]),
                             pa.float64(), mask=np.concatenate(
                                 [np.ones(m, bool), ~has_next])),
            "__j": pa.array(np.concatenate(
                [np.zeros(m, np.int64), e - starts[seg_ids[e]]])),
        }, np.arange(m + len(e)) >= m, cidx, {
            "value": pa.array(v[cidx], pa.float64()),
            "__cnt": pa.array(cnt[seg_ids[cidx]], pa.int64())})

    def fold(carries: pa.Table):
        pre = np.concatenate([[0], np.cumsum(_np(carries["__cnt"]))])
        total = np.array([pre[-1]])
        tq, tlo, thi, tfr = [], [], [], []
        for q in qlist:
            lo, hi, fr = targets(total, q)
            tq.append(q_out(q))
            tlo.append(int(lo[0]))
            thi.append(int(hi[0]))
            tfr.append(float(fr[0]))
        return pre, _np(carries["value"]), list(zip(tq, tlo, thi, tfr))

    def resolve(kept: pa.Table, groups) -> pa.Table:
        out = [kept.filter(pc.is_valid(kept["q"]))
               .select([key, "q", "value"])]
        v, j = _np(kept["value"]), _np(kept["__j"])
        vn = _np(pc.fill_null(kept["__vn"], 0.0))
        has_next = _np(pc.is_valid(kept["__vn"]))
        take, qv, val = [], [], []
        for rows, pos, (pre, firsts, tg) in groups:
            rank = j[rows] + pre[pos]
            for q, lo, hi, fr in tg:
                hit = rank == lo
                r = rows[hit]
                nxt = np.where(has_next[r], vn[r], firsts[
                    np.minimum(pos[hit] + 1, len(firsts) - 1)])
                take.append(r)
                qv.append(np.full(len(r), q))
                val.append(value_at(v[r], nxt, lo, hi, fr))
        if take:
            r = np.concatenate(take)
            out.append(pa.table({
                key: kept[key].take(pa.array(r, pa.int64())),
                "q": pa.array(np.concatenate(qv), pa.float64()),
                "value": pa.array(np.concatenate(val), pa.float64())}))
        return pa.concat_tables(out)

    return sorted_carry(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        [key], [col, tiebreak], op, scan, fold, resolve)


def grouped_mode(ds, key: str, col: str):
    """Most frequent ``col`` value per ``key`` with DETERMINISTIC
    tie-breaking (smallest value wins — SQL's own ``mode()`` leaves
    ties unspecified, so the oracle-checkable contract is
    ``row_number() OVER (PARTITION BY key ORDER BY cnt DESC, value)
    = 1`` over the grouped counts). Pure composition: one combiner
    groupby counts ``(key, col)`` pairs — the only pass over the
    data — then :func:`grouped_top_k` with ``k=1`` runs on the
    already-reduced counts table. Returns ``(key, mode, cnt)``; NULL
    ``col`` values don't vote (SQL aggregate semantics)."""
    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        from .relational import safe_groupby_aggregate
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        g = safe_groupby_aggregate(t, [key, col], [([], "count_all")])
        return g.rename_columns([key, col, "cnt"])

    counts = null_safe_grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key, col], [Sum("cnt", alias_name="cnt")], ["cnt"])
    top = grouped_top_k(counts, [key], "cnt", 1, descending=True,
                        tiebreak=col)

    def project(batch: pa.Table) -> pa.Table:
        out = batch.select([key, col, "cnt"])
        return out.rename_columns([key, "mode", "cnt"])

    return top.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True)


def lag_column(ds, key, ts: str, value: str, tiebreak: str,
               out: str = "lag_value"):
    """SQL ``lag(value) OVER (PARTITION BY key ORDER BY ts,
    tiebreak)``: every row gains its predecessor's value (NULL for
    the first row of a key). ``key`` may be one column name or a
    list (composite partition). ``(ts, tiebreak)`` must be unique
    per key (numeric/temporal only, same contract as
    :func:`cumulative_sum`).

    Shape: :func:`sorted_carry` with a per-block vectorized shift
    per key segment and ONE carry row per block (its last row) —
    only each block's FIRST row can have a cross-block predecessor,
    and the globally sorted order makes that predecessor the latest
    earlier carry of the same key. Driver state is O(n_blocks).
    """
    return _shift_column(ds, key, ts, value, tiebreak, out,
                         forward=False)


def lead_column(ds, key, ts: str, value: str, tiebreak: str,
                out: str = "lead_value"):
    """SQL ``lead(value) OVER (PARTITION BY key ORDER BY ts,
    tiebreak)`` — the exact mirror of :func:`lag_column`: every row
    gains its successor's value (NULL for the last row of a key).
    Carry = each block's FIRST row; only each block's LAST row can
    have a cross-block successor, resolved as the earliest LATER
    carry of the same key. Same O(n_blocks) driver envelope.
    """
    return _shift_column(ds, key, ts, value, tiebreak, out,
                         forward=True)


def _shift_column(ds, key, ts: str, value: str, tiebreak: str,
                  out: str, forward: bool):
    keys = [key] if isinstance(key, str) else list(key)

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        varr = batch[value]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        # in-block shift: neighbour row's value where the neighbour
        # shares the key, else null
        idx = np.arange(n)
        same = seg_ids[1:] == seg_ids[:-1]
        if forward:
            nb_ok = np.concatenate([same, [False]])
            gather = np.where(nb_ok, idx + 1, 0)
        else:
            nb_ok = np.concatenate([[False], same])
            gather = np.where(nb_ok, idx - 1, 0)
        shifted = pc.if_else(pa.array(nb_ok),
                             varr.take(pa.array(gather)),
                             pa.scalar(None, varr.type))
        # only the block's boundary row can look across blocks; the
        # carry is the opposite boundary row with its OWN value
        pend = np.zeros(n, bool)
        pend[n - 1 if forward else 0] = True
        c = 0 if forward else n - 1
        return None, {out: shifted}, pend, [c], {out: varr.slice(c, 1)}

    return sorted_carry(
        ds, keys, [ts, tiebreak],
        "lead_column" if forward else "lag_column", scan,
        lambda t: t[out].to_pylist(),
        lambda kept, groups: _fill_from_carries(kept, groups, out, forward),
        forward=forward)


def grouped_quantiles_cont(ds, key: str, col: str, qs, tiebreak: str):
    """EXACT per-group INTERPOLATED quantiles, DuckDB
    ``quantile_cont(col, q) GROUP BY key`` convention: with the
    group's n non-null values sorted, ``h = (n - 1) * q``,
    ``value = v[floor(h)] + (v[ceil(h)] - v[floor(h)]) * (h -
    floor(h))``. Returns ``(key, q, value)`` rows, ``q`` rounded to
    six decimals.

    Shape: :func:`_grouped_quantiles` — each q SELECTS up to two
    adjacent ranks (floor/ceil of h); when they fall in different
    blocks the floor row reads the ceil value from the next piece's
    carried first value. ``tiebreak`` must make ``(col, tiebreak)``
    unique within a key (rank bookkeeping needs a total order; the
    interpolated value itself is tie-insensitive).
    """
    import math

    def targets(cnt, q):
        h = (cnt - 1) * q
        lo = np.floor(h).astype(np.int64)
        return lo, np.ceil(h).astype(np.int64), h - lo

    return _grouped_quantiles(
        ds, key, col, qs, tiebreak, "grouped_quantiles_cont", targets,
        lambda q: math.floor(q * 1e6 + 0.5) / 1e6)


def stratified_sample(ds, key: str, id_column: str, k: int,
                      seed: int = 0):
    """Deterministic per-group uniform sample WITHOUT replacement:
    the k rows with the smallest ``splitmix64(id + seed)`` per
    ``key`` group (order statistics of a uniform hash are a uniform
    k-subset). Repeatable across runs/resumes and oracle-checkable
    (``row_number() OVER (PARTITION BY key ORDER BY splitmix64(id),
    id) <= k`` with :func:`.relational.splitmix64_sql`). Null ids are
    never sampled.

    Shape: one shuffle-free per-batch hash projection, then
    :func:`grouped_top_k` — mergeable per-block top-k partials, one
    range-partitioned sort over <= k rows per group per block,
    O(k * n_blocks) edge handling. Hash order crosses blocks as
    float64 (2^64 -> 53-bit mantissa): two DISTINCT hashes closer
    than one ulp could tie-break differently than exact integer
    order — probability ~ m^2 / 2^54 per m-row group.
    """
    from ..state.sketches import hash_ints, hash_string_array
    from .relational import _is_string_type

    def add_hash(batch: pa.Table) -> pa.Table:
        col = batch[id_column].combine_chunks()
        t = col.type
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if pa.types.is_integer(t) or pa.types.is_timestamp(t):
            vals = pc.cast(col.fill_null(0), pa.int64()) \
                .to_numpy(zero_copy_only=False)
            h = hash_ints((vals.astype(np.uint64)
                           + np.uint64(seed)).view(np.int64))
        elif _is_string_type(t):
            h = hash_ints((hash_string_array(col)
                           + np.uint64(seed)).view(np.int64))
        else:
            raise ValueError(
                f"stratified_sample: unsupported id type {t}")
        return batch.filter(pa.array(valid)).append_column(
            "__h", pa.array(h.astype(np.float64)[valid], pa.float64()))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = grouped_top_k(hashed, [key], "__h", k,
                        descending=False, tiebreak=id_column)

    def drop(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["__h"])

    return out.map_batches(drop, batch_format="pyarrow",
                           zero_copy_batch=True)


def grouped_string_agg(ds, key: str, ord_col: str, val_col: str,
                       sep: str = ","):
    """SQL ``string_agg(val_col, sep ORDER BY ord_col) GROUP BY
    key``: one row ``(key, agg)`` per group, values concatenated in
    ``ord_col`` order. NULL ``val_col`` rows are excluded (SQL
    string_agg skips NULLs) — a key with only NULL values disappears
    (SQL would keep it with a NULL aggregate; filter-side semantics
    are the mergeable contract here). ``(key, ord_col)`` must be
    unique per key for a deterministic result; ``ord_col`` must be
    numeric/temporal (its value orders partials across blocks).

    Shape: ONE null-safe range-partitioned sort on ``(key, ord)``;
    each key segment of each block concatenates VECTORIZED
    (list-offsets + ``pc.binary_join``) into a single partial row
    ``(key, first_ord, piece)`` — so a group contributes at most
    n_blocks + 1 partials, never its rows — and the final assembly
    is a groupby over partials only (bounded per-group fan-in),
    ordered by each piece's first_ord (pieces of one key never
    interleave: the sort totally orders (key, ord)). The assembled
    string is inherently group-sized — the one thing that cannot
    stream — which is the same bound SQL's own string_agg carries.
    """
    from .relational import (decode_null_safe_keys,
                             encode_null_safe_keys, null_safe_sort)

    def prep(batch: pa.Table) -> pa.Table:
        if _is_str(batch[ord_col].type):
            raise ValueError(
                f"grouped_string_agg: order column {ord_col!r} is a"
                " string; only numeric/temporal order columns carry"
                " across block boundaries")
        return batch.select([key, ord_col, val_col]) \
            .filter(pc.is_valid(batch[val_col]))

    sorted_ds = null_safe_sort(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True), [key], [ord_col])

    def piece(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ordv = order_np(batch, ord_col)
        starts = np.nonzero(key_segments(batch, [key]))[0]
        vals = batch[val_col].combine_chunks()
        if pa.types.is_large_string(vals.type):
            offs = np.append(starts, n).astype(np.int64)
            la = pa.LargeListArray.from_arrays(offs, vals)
        else:
            offs = np.append(starts, n).astype(np.int32)
            la = pa.ListArray.from_arrays(offs, vals)
        joined = pc.binary_join(la, sep)
        st = pa.array(starts, pa.int64())
        return pa.table({
            key: batch[key].take(st),
            "__ord0": pa.array(ordv[starts]),
            "__piece": joined,
        })

    partials = sorted_ds.map_batches(piece, batch_format="pyarrow",
                                     zero_copy_batch=True)

    def encode(batch: pa.Table) -> pa.Table:
        return encode_null_safe_keys(batch, [key])

    def assemble(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group, sort_keys=[("__ord0", "ascending")])
        g = group.take(idx)
        text = sep.join(g["__piece"].to_pylist())
        return pa.table({
            "__gs0": g["__gs0"][:1],
            "agg": pa.array([text], pa.string()),
        })

    grouped = partials.map_batches(encode, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .groupby(["__gs0"]).map_groups(assemble, batch_format="pyarrow")

    def decode(batch: pa.Table) -> pa.Table:
        return decode_null_safe_keys(batch, [key], ["agg"])

    return grouped.map_batches(decode, batch_format="pyarrow",
                               zero_copy_batch=True)


def trailing_concat(ds, key, ts: str, value: str, tiebreak: str,
                    k: int, sep: str = "\n",
                    out: str = "ctx", out_n: str = "n_ctx",
                    _build_budget: int = 1 << 30):
    """SQL ``string_agg(value, sep) OVER (PARTITION BY key ORDER BY
    ts, tiebreak ROWS BETWEEN k PRECEDING AND 1 PRECEDING)`` plus the
    frame's row count — the trailing-context window that turns an
    ordered transcript into (context, target) training examples.
    NULL ``value`` strings participate as ``''`` (callers coalesce
    first; SQL parity then needs the same coalesce). Rows whose frame
    is empty get a NULL ``out`` and ``out_n = 0`` (SQL: string_agg
    over an empty frame is NULL). ``(key, ts, tiebreak)`` must be
    unique per row; ``ts``/``tiebreak`` must be numeric/temporal
    (their values stitch windows across block boundaries, exactly:
    see :func:`sorted_carry`).

    Shape: :func:`sorted_carry`. Each block builds every row's
    window VECTORIZED — a flat gather of at most ``k * n`` child
    indices into one list-array ``pc.binary_join`` — and only rows in
    the block's FIRST key segment with fewer than ``k`` in-block
    predecessors are pended. Each block carries the LAST ``k`` rows
    of its last key segment, so the driver stitch state is ``k *
    n_blocks`` rows regardless of key skew (the hot-conversation
    bound: one conversation owning the corpus still carries k rows
    per block, never its rows)."""
    keys = [key] if isinstance(key, str) else list(key)

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        vals = batch[value]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = pc.fill_null(vals, "")
        i = np.arange(n)
        start = np.maximum(i - k, starts[seg_ids])
        win_len = (i - start).astype(np.int64)

        def build(lo: int, hi: int) -> pa.Array:
            wl = win_len[lo:hi]
            cs = np.concatenate([[0], np.cumsum(wl)])
            fl = np.arange(cs[-1], dtype=np.int64) \
                - np.repeat(cs[:-1], wl) \
                + np.repeat(start[lo:hi], wl)
            child = vals.take(pa.array(fl, pa.int64()))
            if pa.types.is_large_string(child.type):
                la = pa.LargeListArray.from_arrays(
                    cs.astype(np.int64), child)
            else:
                la = pa.ListArray.from_arrays(cs.astype(np.int32),
                                              child)
            j = pc.cast(pc.binary_join(la, sep), pa.string())
            # empty in-block frame: NULL unless the stitch fills it
            return pc.if_else(pa.array(wl > 0), j,
                              pa.scalar(None, pa.string()))

        # int32 string offsets overflow on the gathered child's total
        # BYTES, not its element count: the window gather duplicates
        # each row's text up to k times, so a ~150MB-text block with
        # k >= 15 exceeds 2GB of child bytes while staying far below
        # 2^31 elements. Budget on bytes AND elements and build the
        # windows in slices whose gathered cost stays under 1GB each
        # — the output column becomes a chunked string array, every
        # chunk safely inside int32 offsets.
        bl = pc.cast(pc.binary_length(vals), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pfx = np.concatenate([[0], np.cumsum(bl)])
        i64 = np.arange(n, dtype=np.int64)
        cost = (pfx[i64] - pfx[start]) + win_len + 1
        cum = np.cumsum(cost)
        budget = _build_budget
        if cum[-1] <= budget:
            ctx = build(0, n)
        else:
            cuts = np.searchsorted(
                cum, np.arange(budget, cum[-1], budget), side="left")
            # a budget-crossing row becomes its OWN slice (both cut
            # and cut+1 are bounds), so no slice ever holds a
            # near-budget prefix plus an oversized row
            bounds = np.unique(np.clip(np.concatenate(
                [[0], cuts, cuts + 1, [n]]), 0, n))
            ctx = pa.chunked_array(
                [build(int(lo), int(hi))
                 for lo, hi in zip(bounds[:-1], bounds[1:])
                 if hi > lo])
        cidx = np.arange(max(int(starts[-1]), n - k), n)
        return (None, {out: ctx, out_n: pa.array(win_len)},
                (seg_ids == 0) & (win_len < k), cidx,
                {out: pc.cast(vals.take(pa.array(cidx)), pa.string())})

    def resolve(kept: pa.Table, groups) -> pa.Table:
        cnt = _np(kept[out_n]).copy()
        rows, texts = [], []
        for r, pos, vv in groups:
            for i, p in zip(r, pos):
                take = min(k - int(cnt[i]), int(p))
                if take <= 0:
                    continue
                own = kept[out][int(i)].as_py()
                rows.append(int(i))
                texts.append(sep.join(
                    vv[p - take:p] + ([own] if own is not None else [])))
                cnt[i] += take
        if not rows:
            return kept
        kept = replace_rows(kept, out, rows, pa.array(texts, pa.string()))
        return kept.set_column(kept.column_names.index(out_n), out_n,
                               pa.array(cnt))

    return sorted_carry(ds, keys, [ts, tiebreak], "trailing_concat", scan,
                        lambda t: t[out].to_pylist(), resolve)


def cap_per_group(ds, keys: List[str], id_column: str, k: int,
                  seed: int = 0):
    """Keep at most ``k`` rows per group, chosen by a deterministic
    hash draw — the corpus-curation domain cap ("at most k documents
    per source/domain") that bounds any one group's contribution
    without an RNG or a full shuffle of the group's rows. Selection
    is ``row_number() OVER (PARTITION BY keys ORDER BY
    CAST(splitmix64(id+seed) AS DOUBLE), id) <= k`` — repeatable across runs,
    resumes, and cluster sizes. Rides :func:`grouped_top_k`'s
    mergeable per-block reduction (the appended ``rn`` is dropped;
    the hash column never ships further than the top-k sort)."""
    from ..state.sketches import hash_ints

    def add_hash(batch: pa.Table) -> pa.Table:
        col = batch[id_column].combine_chunks()
        vals = pc.cast(col.fill_null(0), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = hash_ints((vals.astype(np.uint64)
                       + np.uint64(seed)).view(np.int64))
        # float64 of the uint64 hash: the top-k machinery orders
        # float64 keys, and SQL mirrors with CAST(h AS DOUBLE) so
        # both sides share one total order (ties -> id tiebreak).
        # NULL ids hash to NULL (ranked last, as SQL splitmix64(NULL)
        # is NULL with NULLS LAST); among several NULL-id rows the
        # pick is unspecified on both sides.
        harr = pa.array(h.astype(np.float64), pa.float64())
        harr = pc.if_else(pc.is_null(col),
                          pa.scalar(None, pa.float64()), harr)
        return batch.append_column("__h", harr)

    capped = grouped_top_k(
        ds.map_batches(add_hash, batch_format="pyarrow",
                       zero_copy_batch=True),
        keys, "__h", k, descending=False, tiebreak=id_column)
    return capped.map_batches(
        lambda b: b.drop_columns(["__h", "rn"]),
        batch_format="pyarrow", zero_copy_batch=True)


def grouped_median_mad(ds, key: str, col: str, tiebreak: str):
    """Per-group ROBUST location/scale: median (DuckDB
    ``quantile_disc(col, 0.5)`` convention) and MAD = median of
    ``|x - median|`` — the inputs of a robust z-score outlier gate,
    which survives the heavy-tailed value distributions a plain
    mean/stddev gate drowns in.

    Shape: two :func:`grouped_exact_quantiles` passes (one sort
    each); between them the per-key median table — key-sized, the
    one structure this operator legitimately broadcasts — ships via
    ``ray.put`` and fills each row's deviation vectorized
    (``pc.index_in`` + take; NULL keys resolve against the NULL
    group's own median). Deviations are elementwise doubles (no
    summation order anywhere), so DuckDB reproduces both outputs
    bit-for-bit. Returns a driver pyarrow Table
    ``(key, median, mad)``, key-sized by construction."""
    import ray

    med_ds = grouped_exact_quantiles(ds, key, col, [0.5], tiebreak)
    parts = [pa.Table.from_batches([b]) if isinstance(
        b, pa.RecordBatch) else b
        for b in med_ds.iter_batches(batch_format="pyarrow")]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        ktype = ds.schema().base_schema.field(key).type
        return pa.table({key: pa.array([], ktype),
                         "median": pa.array([], pa.float64()),
                         "mad": pa.array([], pa.float64())})
    med_t = pa.concat_tables(parts, promote_options="default")
    key_arr = med_t[key].combine_chunks()
    med_np = pc.cast(med_t["value"], pa.float64()) \
        .to_numpy(zero_copy_only=False)
    key_null = pc.is_null(key_arr).to_numpy(zero_copy_only=False)
    null_med = float(med_np[key_null][0]) if key_null.any() else None
    handle = ray.put((key_arr, med_np, null_med))

    def dev(batch: pa.Table) -> pa.Table:
        keys_r, med_r, nmed = ray.get(handle)
        idx = pc.index_in(batch[key], value_set=keys_r)
        idx_np = idx.to_numpy(zero_copy_only=False)
        have = ~np.isnan(idx_np) if idx_np.dtype.kind == "f" \
            else np.ones(len(idx_np), bool)
        m = np.full(batch.num_rows, np.nan)
        ii = np.where(have, np.nan_to_num(idx_np), 0).astype(np.int64)
        m[have] = med_r[ii[have]]
        if nmed is not None:
            knull = pc.is_null(batch[key]) \
                .to_numpy(zero_copy_only=False)
            m[knull] = nmed
        v = pc.cast(batch[col], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        d = np.abs(v - m)
        return pa.table({key: batch[key],
                         "__dev": pa.array(d, pa.float64(),
                                           mask=np.isnan(d)),
                         tiebreak: batch[tiebreak]})

    mad_ds = grouped_exact_quantiles(
        ds.map_batches(dev, batch_format="pyarrow",
                       zero_copy_batch=True),
        key, "__dev", [0.5], tiebreak)
    mparts = [pa.Table.from_batches([b]) if isinstance(
        b, pa.RecordBatch) else b
        for b in mad_ds.iter_batches(batch_format="pyarrow")]
    mparts = [t for t in mparts if t.num_rows]
    mad_t = pa.concat_tables(mparts, promote_options="default")

    idx = pc.index_in(mad_t[key], value_set=key_arr) \
        .to_numpy(zero_copy_only=False)
    mad_vals = np.full(len(key_arr), np.nan)
    src = pc.cast(mad_t["value"], pa.float64()) \
        .to_numpy(zero_copy_only=False)
    m_null = pc.is_null(mad_t[key]).to_numpy(zero_copy_only=False)
    ok = ~m_null
    mad_vals[idx[ok].astype(np.int64)] = src[ok]
    if m_null.any() and key_null.any():
        mad_vals[np.nonzero(key_null)[0][0]] = src[m_null][0]
    return pa.table({
        key: key_arr,
        "median": pa.array(med_np, pa.float64()),
        "mad": pa.array(mad_vals, pa.float64(),
                        mask=np.isnan(mad_vals)),
    }).sort_by([(key, "ascending")])


def winsorize_by_group(ds, key: str, col: str, tiebreak: str,
                       q_lo: float = 0.01, q_hi: float = 0.99,
                       out: str = "winsorized"):
    """Per-group winsorization: clip ``col`` into its OWN group's
    ``[quantile_disc(q_lo), quantile_disc(q_hi)]`` — the standard
    heavy-tail feature clamp. One :func:`grouped_exact_quantiles`
    pass computes both thresholds (one sort); the key-sized threshold
    table broadcasts and a stateless scan clips vectorized
    (elementwise min/max — no float summation, SQL-exact). NULL
    values pass through NULL; rows whose key has no thresholds (all
    values NULL in the group) pass through unclipped, and so do
    NULL-KEY rows (SQL equality-join semantics: a NULL key matches
    no threshold row). Appends ``out`` to the input rows."""
    import ray

    th_ds = grouped_exact_quantiles(ds, key, col, [q_lo, q_hi],
                                    tiebreak)
    parts = [pa.Table.from_batches([b]) if isinstance(
        b, pa.RecordBatch) else b
        for b in th_ds.iter_batches(batch_format="pyarrow")]
    parts = [t for t in parts if t.num_rows]
    if parts:
        th = pa.concat_tables(parts, promote_options="default")
        # drop the NULL-key group's thresholds: pc.index_in MATCHES a
        # null needle against a null in the value set, which would
        # clip NULL-key rows — SQL's equality join never matches them
        th = th.filter(pc.is_valid(th[key]))
        lo_t = th.filter(pc.equal(th["q"], pa.scalar(float(q_lo))))
        hi_t = th.filter(pc.equal(th["q"], pa.scalar(float(q_hi))))
        keys_arr = lo_t[key].combine_chunks()
        lo_np = pc.cast(lo_t["value"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        # align hi rows to lo order (same key set by construction)
        hidx = pc.index_in(hi_t[key], value_set=keys_arr) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        hi_np = np.empty_like(lo_np)
        hi_np[hidx] = pc.cast(hi_t["value"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
    else:
        keys_arr, lo_np, hi_np = pa.array([]), \
            np.zeros(0), np.zeros(0)
    handle = ray.put((keys_arr, lo_np, hi_np))

    def clip(batch: pa.Table) -> pa.Table:
        keys_r, lo_r, hi_r = ray.get(handle)
        v = pc.cast(batch[col], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        w = v.copy()
        if len(keys_r):
            idx = pc.index_in(batch[key], value_set=keys_r) \
                .to_numpy(zero_copy_only=False)
            have = ~np.isnan(idx.astype(np.float64)) \
                if idx.dtype.kind == "f" else np.ones(len(idx), bool)
            ii = np.where(have, np.nan_to_num(
                idx.astype(np.float64)), 0).astype(np.int64)
            lo = np.where(have, lo_r[ii], -np.inf)
            hi = np.where(have, hi_r[ii], np.inf)
            w = np.minimum(np.maximum(v, lo), hi)
        mask = np.isnan(w) if w.dtype.kind == "f" else None
        return batch.append_column(
            out, pa.array(w, pa.float64(),
                          mask=mask if mask is not None and
                          mask.any() else None))

    return ds.map_batches(clip, batch_format="pyarrow",
                          zero_copy_batch=True)


def windowed_distinct_count(ds, key: str, ts: str, value: str,
                            tiebreak: str, window_n: int,
                            out: str = "win_distinct",
                            cnt_out: str = "win_cnt"):
    """Per-key moving-window DISTINCT count: every row gains ``out``
    = SQL ``count(DISTINCT value) OVER (PARTITION BY key ORDER BY
    ts, tiebreak ROWS BETWEEN window_n-1 PRECEDING AND CURRENT
    ROW)`` plus the plain non-null frame count — the short-horizon
    diversity signal (is this key suddenly repeating itself?) that
    repetition/bot gates key on. One difference from SQL on EMPTY
    frames (all window_n values null): SQL says 0, this op emits
    NULL alongside ``cnt_out`` = 0 — coalesce if the SQL contract is
    needed. Shape: the :func:`_windowed_rows` harness; the kernel
    sorts each frame slab once and counts value transitions among
    the valid prefix — O(n * w log w), no per-row Python."""

    def kernel(vals, sw_ok, cnt):
        srt = np.sort(vals, axis=1)
        w = srt.shape[1]
        base = (cnt > 0).astype(np.float64)
        if w == 1:
            return {out: base}
        neq = srt[:, 1:] != srt[:, :-1]
        in_prefix = np.arange(1, w)[None, :] < cnt[:, None]
        return {out: base + (neq & in_prefix).sum(axis=1)}

    def pending(fv):
        return (len(np.unique(fv)),)

    return _windowed_rows(ds, key, ts, value, tiebreak, window_n,
                          [out], kernel, pending, cnt_out)


def grouped_forward_fill(ds, key, ts: str, value: str, tiebreak: str,
                         out: str = "filled"):
    """SQL ``last_value(value IGNORE NULLS) OVER (PARTITION BY key
    ORDER BY ts, tiebreak ROWS UNBOUNDED PRECEDING AND CURRENT
    ROW)`` — per-key forward fill (LOCF), the gap-repair primitive
    for telemetry/feature streams; value may be ANY type (string
    states fill as naturally as numerics). Rows before a key's first
    non-null stay NULL.

    Shape: :func:`sorted_carry` with a per-block vectorized fill —
    ONE global max-accumulate of last-valid indices, with a
    segment-start comparison masking cross-key leakage (no per-
    segment Python) — and <= 1 carry row per block, the LAST non-null
    of its last key segment. Only first-segment rows before the
    block's first in-segment non-null are pending; they fill from
    their key's latest carry before the block. Driver state is
    O(n_blocks). ``(ts, tiebreak)`` must be unique per key,
    numeric/temporal only (the :func:`cumulative_sum` contract)."""
    keys = [key] if isinstance(key, str) else list(key)

    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        varr = batch[value]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
        li = np.maximum.accumulate(np.where(valid, np.arange(n), -1))
        ok = li >= starts[seg_ids]
        filled = pc.if_else(
            pa.array(ok), varr.take(pa.array(np.maximum(li, 0))),
            pa.scalar(None, varr.type))
        cidx = [li[-1]] if li[-1] >= starts[-1] else []
        return None, {out: filled}, (seg_ids == 0) & ~ok, cidx, \
            {out: varr.take(pa.array(cidx, pa.int64()))}

    return sorted_carry(
        ds, keys, [ts, tiebreak], "grouped_forward_fill", scan,
        lambda t: t[out].to_pylist(),
        lambda kept, groups: _fill_from_carries(kept, groups, out, False))


def grouped_linear_interpolate(ds, key, ts: str, value: str,
                               tiebreak: str, scale: int = 10_000,
                               out: str = "interp"):
    """Per-key LINEAR interpolation of missing values: every NULL
    ``value`` row gains the straight-line estimate between its key's
    nearest non-null neighbors in ``(ts, tiebreak)`` order; non-null
    rows keep their own (quantized) value; rows with no neighbor on
    one side stay NULL — the imputation step one past LOCF
    (:func:`grouped_forward_fill`). Output column ``out`` is
    ``floor(v * scale + 0.5)`` int64 fixed point, and the arithmetic
    is ALL integer — ``vp + sign_split((vn - vp) * dt_ms // dn_ms)``
    with millisecond tick deltas and DuckDB-style truncating
    division — so the SQL twin (IGNORE NULLS window frames + the
    same integer expression) is hash-exact. Envelope:
    |v_e| * gap_ms must stay under 2^63 (1e10 quantized units x
    1e8 ms holds with 10x margin).

    Shape: FOUR :func:`grouped_forward_fill` passes — (value, its
    ts) forward and the same pair on the negated axis. The value
    and value-ts columns share one validity mask, so each pass pair
    picks the SAME source row by construction; each pass is one
    null-safe sort + O(blocks) carries, nothing new to prove. A
    fused two-direction single-sort variant is the optimization
    path if this ever dominates a pipeline."""
    from .relational import _int64_us

    def prep(b: pa.Table) -> pa.Table:
        tu = _int64_us(b[ts])
        v = pc.cast(b[value], pa.float64())
        ve = pc.cast(pc.floor(pc.add(pc.multiply(
            v, float(scale)), 0.5)), pa.int64())
        tv = pc.if_else(pc.is_valid(ve), tu, pa.scalar(None, pa.int64()))
        zero = pa.scalar(0, pa.int64())
        out_cols = {c: b[c] for c in b.column_names}
        out_cols["__tu"] = tu
        out_cols["__ve"] = ve
        out_cols["__tv"] = tv
        out_cols["__ntu"] = pc.subtract(zero, tu)
        out_cols["__ntb"] = pc.subtract(
            zero, pc.cast(b[tiebreak], pa.int64()))
        return pa.table(out_cols)

    base = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    f = grouped_forward_fill(base, key, "__tu", "__ve", tiebreak,
                             out="__vp")
    f = grouped_forward_fill(f, key, "__tu", "__tv", tiebreak,
                             out="__tp")
    f = grouped_forward_fill(f, key, "__ntu", "__ve", "__ntb",
                             out="__vn")
    f = grouped_forward_fill(f, key, "__ntu", "__tv", "__ntb",
                             out="__tn")

    def finish(b: pa.Table) -> pa.Table:
        ve = b["__ve"].combine_chunks()
        have = pc.is_valid(ve).to_numpy(zero_copy_only=False)
        vp = b["__vp"].combine_chunks()
        vn = b["__vn"].combine_chunks()
        both = (pc.is_valid(vp).to_numpy(zero_copy_only=False)
                & pc.is_valid(vn).to_numpy(zero_copy_only=False)
                & ~have)
        n = b.num_rows
        res = np.zeros(n, np.int64)
        ok = have | both
        ven = pc.fill_null(ve, 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        res[have] = ven[have]
        if both.any():
            vpn = pc.fill_null(vp, 0).to_numpy(zero_copy_only=False)
            vnn = pc.fill_null(vn, 0).to_numpy(zero_copy_only=False)
            tpn = pc.fill_null(b["__tp"], 0) \
                .to_numpy(zero_copy_only=False)
            tnn = pc.fill_null(b["__tn"], 0) \
                .to_numpy(zero_copy_only=False)
            tun = b["__tu"].combine_chunks() \
                .to_numpy(zero_copy_only=False)
            dt = (tun - tpn) // 1000
            dn = (tnn - tpn) // 1000
            dv = vnn - vpn
            num = dv * dt
            step = np.where(num >= 0,
                            num // np.maximum(dn, 1),
                            -((-num) // np.maximum(dn, 1)))
            lerp = vpn + np.where(dn > 0, step, 0)
            res[both] = lerp[both]
        drop = [c for c in ("__tu", "__ve", "__tv", "__ntu", "__ntb",
                            "__vp", "__tp", "__vn", "__tn")
                if c in b.column_names]
        return b.drop_columns(drop).append_column(
            out, pa.array(np.where(ok, res, 0), pa.int64(),
                          mask=~ok))

    return f.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


def grouped_weighted_median(ds, key: str, value: str, weight: str,
                            tiebreak: str, out: str = "wmedian"):
    """EXACT weighted median per group: the smallest ``value`` whose
    running weight (ordered by value) reaches half the group's total
    — ``min(v) WHERE 2*cum >= tot`` in SQL terms. The num/den = 1/2
    case of :func:`grouped_weighted_quantiles` (shape documented
    there). Tie runs of equal value are selection-invariant:
    whichever tied row crosses the half-total line, the emitted
    value is the run's."""
    return grouped_weighted_quantiles(ds, key, value, weight,
                                      tiebreak, [(1, 2)], [out])


def grouped_weighted_quantiles(ds, key: str, value: str, weight: str,
                               tiebreak: str, fracs, outs):
    """EXACT weighted quantiles per group, every fraction in ONE
    pass: for each ``(num, den)`` in ``fracs`` the smallest
    ``value`` whose running weight (ordered by value) reaches
    num/den of the group's total — ``min(v) WHERE den*cum >=
    num*tot``. Integer weights only (exact running sums); selected
    values return as-is.

    Shape: ONE null-safe sort by (key, value, tiebreak) drives the
    multi-column running-sum machinery (:func:`_running_sums` — a
    hot key costs one carry row per block); group totals are
    group-sized and broadcast once (``pc.index_in`` — exact, no hash
    routing). Rows qualifying for ANY fraction filter statelessly
    (each fraction contributes a null-masked copy of ``value``) and
    collapse with one grouped MIN per fraction — extra fractions add
    columns, never passes. NULL values don't vote (their weight is
    skipped); NULL keys form their own group."""
    import ray

    from .relational import null_safe_grouped_aggregate
    from ray.data.aggregate import Min, Sum

    if not fracs or len(fracs) != len(outs):
        raise ValueError("fracs and outs must align and be non-empty")
    for num, den in fracs:
        if den <= 0 or num <= 0 or num > den:
            raise ValueError(f"fraction {num}/{den} outside (0, 1]")

    def prep(batch: pa.Table) -> pa.Table:
        w = pc.cast(batch[weight], pa.int64())
        # NULL values don't vote: zero their weight so cum skips them
        w = pc.if_else(pc.is_valid(batch[value]), w,
                       pa.scalar(0, pa.int64()))
        return pa.table({key: batch[key], value: batch[value],
                         tiebreak: batch[tiebreak], "__w": w})

    base = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    rs = _running_sums(base, key, value, [("__w", "__cum")], tiebreak)

    totals = null_safe_grouped_aggregate(
        base.map_batches(lambda b: b.select([key, "__w"]),
                         batch_format="pyarrow",
                         zero_copy_batch=True),
        [key], [Sum("__w", alias_name="__tot")], ["__tot"])
    tot_tables = [pa.Table.from_batches([b])
                  if isinstance(b, pa.RecordBatch) else b
                  for b in totals.iter_batches(batch_format="pyarrow")]
    tot_tables = [t for t in tot_tables if t.num_rows]
    mins = [Min(o, alias_name=o) for o in outs]

    def empty_out(b: pa.Table) -> pa.Table:
        cols = {key: b[key]}
        for o in outs:
            cols[o] = b[value]
        return pa.table(cols).slice(0, 0)

    if not tot_tables:
        return null_safe_grouped_aggregate(
            base.map_batches(empty_out, batch_format="pyarrow",
                             zero_copy_batch=True),
            [key], mins, list(outs))
    tot = pa.concat_tables(tot_tables, promote_options="default")
    tot_ref = ray.put(tot)

    def qualify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty_out(batch)
        t = ray.get(tot_ref)
        tv = t[key].combine_chunks()
        idx = pc.index_in(batch[key].combine_chunks(), value_set=tv)
        if batch[key].null_count:
            null_pos = int(np.nonzero(pc.is_null(tv)
                           .to_numpy(zero_copy_only=False))[0][0])
            idx = pc.fill_null(idx, null_pos)
        tot_v = pc.cast(t["__tot"], pa.float64()).combine_chunks() \
            .take(idx).to_numpy(zero_copy_only=False)
        cum = batch["__cum"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        valid = pc.is_valid(batch[value]) \
            .to_numpy(zero_copy_only=False)
        oks = [(float(den) * cum >= float(num) * tot_v) & valid
               for num, den in fracs]
        any_ok = np.logical_or.reduce(oks)
        kept = batch.filter(pa.array(any_ok))
        vcol = kept[value]
        null_scalar = pa.scalar(None, type=vcol.type)
        cols = {key: kept[key]}
        for ok, o in zip(oks, outs):
            cols[o] = pc.if_else(pa.array(ok[any_ok]), vcol,
                                 null_scalar)
        return pa.table(cols)

    return null_safe_grouped_aggregate(
        rs.map_batches(qualify, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], mins, list(outs))
