"""Windowed / sessionized aggregates.

Sessionization scale shape (same pattern as turn-ordering checks in
``keys.py``): ONE range-partitioned sort on ``(key, ts)`` co-locates
and orders each entity's timeline, then a vectorized adjacent-diff
pass over sorted batches emits final counts for every key that lies
wholly inside a batch and a MERGEABLE PARTIAL — one fixed-size
(n_events, n_sessions, first_ts, last_ts) row — for the first/last
key of each batch (the ones that can straddle a block boundary).
The partial stitch holds at most 2 rows per block, so driver memory
is O(n_blocks) and independent of any single key's event count,
Zipf-hot keys included. No per-group Python (``map_groups``)
anywhere: at 10^8 users the per-group task overhead would dominate
the actual arithmetic.

The RANGE-frame windowed sum (``range_windowed_sum``) has the same
shape: one sort on ``(key, ts)``, one two-pointer scan per sorted
block over its ``(key, ts)`` runs, and a window-tail carry. Each
block ships its first run and the runs of its last key segment
inside one window, three numbers per run, so driver memory is bounded
by the block boundaries' keys and one window each, never by a key's
full timeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


from .relational import _int64_us


def _same_adjacent_keys(col) -> np.ndarray:
    """Null-safe adjacent-equality for a sorted key column, as a
    bool[n-1] numpy mask: NULL == NULL, because SQL PARTITION BY
    groups null keys together — a numpy ``==`` on the converted
    array would turn nullable-int nulls into NaN and split every
    null-key row into its own segment."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n <= 1:
        return np.zeros(0, bool)
    a, b = col.slice(1), col.slice(0, n - 1)
    eq = pc.fill_null(pc.equal(a, b), False) \
        .to_numpy(zero_copy_only=False)
    both_null = pc.and_(pc.is_null(a), pc.is_null(b)) \
        .to_numpy(zero_copy_only=False)
    return eq | both_null


_I64_MIN = np.iinfo(np.int64).min
_US_PER_TICK = {"s": 1_000_000, "ms": 1_000, "us": 1}


def _window_ticks(t: pa.DataType, win_us: int) -> int:
    """A microsecond window in the int64 ticks of an order column of
    type ``t``: its own unit for timestamps and durations, and
    microseconds for integer columns. Raises if the window is not a
    whole number of ticks."""
    unit = getattr(t, "unit", "us")
    if unit == "ns":
        return win_us * 1_000
    per = _US_PER_TICK[unit]
    if win_us % per:
        raise ValueError(
            f"window ({win_us}us) is not a whole number of {t} ticks")
    return win_us // per


def _ticks_np(col):
    """(int64 ticks, null mask) of a timestamp, duration or integer
    column, in the column's own unit, with nulls filled by 0. Exact:
    no float64 on the way, so nanosecond epochs keep every tick."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    iv = pc.cast(col, pa.int64())
    return (pc.fill_null(iv, 0).to_numpy(zero_copy_only=False),
            pc.is_null(iv).to_numpy(zero_copy_only=False))


def _probe_ticks(tick: np.ndarray, win_ticks: int) -> np.ndarray:
    """``tick - window - 1``: the last tick just outside each RANGE
    frame, clipped at INT64_MIN instead of wrapping."""
    back = win_ticks + 1
    if back > -int(_I64_MIN):
        return np.full(len(tick), _I64_MIN, np.int64)
    return np.maximum(tick, _I64_MIN + back) - back


def range_windowed_sum(ds, key: str, ts: str, value: str, window,
                       out: str = "range_sum",
                       cnt_out: str = "range_cnt",
                       scale: int = None):
    """SQL ``sum(value) OVER (PARTITION BY key ORDER BY ts RANGE
    BETWEEN window PRECEDING AND CURRENT ROW)`` (plus the matching
    ``count(value)``), one output row per DISTINCT ``(key, ts)`` —
    RANGE-frame peers share the sum by definition, so the
    ts-granular result is lossless. NULL values don't contribute;
    a window with no non-null value yields NULL (SQL SUM). A NULL
    ``ts`` orders last within its key and its frame is its NULL
    peers (DuckDB's RANGE frame for a NULL order value). NULL keys
    form one partition. ``window`` is a ``datetime.timedelta`` or
    microseconds int; ``ts`` may be any temporal unit (the frame is
    computed in the column's own int64 ticks — a window that isn't a
    whole number of ticks raises) or an integer column counted in
    microseconds.

    Shape — ONE null-safe sort on ``(key, ts)`` over the input rows,
    then one scan per sorted block: equal ``(key, ts)`` collapse into
    runs, prefix sums run over the runs, and one ``searchsorted`` on
    ``(key segment, ts ticks)`` finds each run's frame start (the
    first run after ``ts - window - 1``), so a run's frame is a
    difference of two prefix sums. Only runs whose frame can cross
    the block boundary are left pending: runs of the block's first
    key segment whose frame reaches the block start, and the block's
    last run (its peers may continue in the next block).

    Carry: each block ships its first run and the runs of its last
    key segment inside one window of its last ``ts``, as ``(ts, sum,
    count)``. The driver folds them into per-key prefix sums over
    ``ts`` and broadcasts them with ``ray.put``; a pending run adds
    the carried sum over ``(ts - window - 1, ts]`` less its own
    block's share. A ``(key, ts)`` run split across blocks is emitted
    once, by the lowest block id that holds it, with all its peers
    counted. Driver memory is bounded by the block boundaries: each
    boundary's key contributes its runs inside one window, three
    numbers per run (a hot key with a window wider than a block
    ships that block's whole segment) — never a full timeline.

    Exactness: with ``scale`` set, each value quantizes to
    ``floor(v * scale + 0.5)`` BEFORE any summation (the repo's
    fixed-point-before-sum discipline), every prefix sum is an
    integer represented exactly in float64, and the difference of
    two exact integers is exact — no cancellation, hash-stable vs a
    SQL oracle that sums the same quantized integers; ``out`` is
    then int64. Envelope: any key's prefix sum within one block or
    carry must stay under 2^53 (|sum(v)| * scale < 9e15). Without
    ``scale`` the sum is raw float64 prefix differences (last-ulp
    sensitive vs direct-summation oracles)."""
    import datetime

    from .relational import null_safe_sort

    win_us = int(window.total_seconds() * 1_000_000) \
        if isinstance(window, datetime.timedelta) else int(window)
    if win_us < 0:
        raise ValueError(f"window must be >= 0, got {win_us}")

    def prep(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[value], pa.float64())
        if scale is not None:
            # quantize per element BEFORE any summation: prefix sums
            # become exact integer-valued floats (<= 2^53 envelope)
            v = pc.floor(pc.add(pc.multiply(v, float(scale)), 0.5))
        return pa.table({key: batch[key], ts: batch[ts], "__v": v})

    sorted_ds = null_safe_sort(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True), [key], [ts])
    return _range_frames(sorted_ds, key, ts, "__v", win_us, out,
                         cnt_out, as_int=scale is not None)


def _range_frames(sorted_ds, key: str, ts: str, value: str,
                  win_us: int, out: str, cnt_out: str,
                  as_int: bool = False):
    """The scan, carry and resolve of :func:`range_windowed_sum`
    over a dataset already sorted by ``(key, ts)`` with NULLS LAST,
    whose blocks are contiguous slices of that order (any slicing:
    a ``(key, ts)`` run may span blocks, blocks may be empty).
    ``as_int`` casts the sums to int64."""
    import uuid

    import ray

    from .rank import _group_key_expr

    # __rt: 0 = final run, 1 = pending run, 2 = pending run at a block
    # edge (its peers may sit in other blocks), 3 = carried run,
    # 4 = carried run at a block edge
    def with_aux(tab: pa.Table, fs, fc, rt, blk: int) -> pa.Table:
        return tab.select([key, ts]) \
            .append_column("__s", pa.array(fs, pa.float64())) \
            .append_column("__c", pa.array(fc, pa.int64())) \
            .append_column("__rt", pa.array(rt, pa.int8())) \
            .append_column("__blk", pa.array(np.full(len(rt), blk),
                                             pa.int64()))

    def scan(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            # a sorted block can be empty, even of columns
            if key not in batch.column_names:
                return batch
            return with_aux(batch, [], [], [], 0)
        win_ticks = _window_ticks(batch[ts].type, win_us)
        tick, tnull = _ticks_np(batch[ts])
        varr = pc.cast(batch[value], pa.float64()).combine_chunks()
        valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
        v = pc.fill_null(varr, 0.0).to_numpy(zero_copy_only=False)
        # runs of equal (key, ts), NULL ts equal to NULL ts
        same_k = _same_adjacent_keys(batch[key])
        same_t = (tick[1:] == tick[:-1]) & (tnull[1:] == tnull[:-1])
        rstart = np.concatenate(
            [[0], np.nonzero(~(same_k & same_t))[0] + 1])
        nr = len(rstart)
        s = np.add.reduceat(v, rstart)
        c = np.add.reduceat(valid.astype(np.int64), rstart)
        seg = np.cumsum(np.concatenate(
            [[True], ~same_k[rstart[1:] - 1]])) - 1
        rtick, rnull = tick[rstart], tnull[rstart]
        # frame start: the first run of the same key segment after
        # ts - window - 1. NULL ts sort last in their segment (as the
        # INT64_MAX sentinel here) and frame only their peers.
        pos = np.empty(nr, [("g", np.int64), ("t", np.int64)])
        pos["g"] = seg
        pos["t"] = np.where(rnull, np.iinfo(np.int64).max, rtick)
        probe = np.empty(nr, pos.dtype)
        probe["g"] = seg
        probe["t"] = _probe_ticks(rtick, win_ticks)
        idx = np.arange(nr)
        start = np.where(rnull, idx,
                         np.searchsorted(pos, probe, side="right"))
        P = np.concatenate([[0.0], np.cumsum(s)])
        C = np.concatenate([[0], np.cumsum(c)])
        fs = P[idx + 1] - P[start]
        fc = C[idx + 1] - C[start]
        # pending: first-segment runs whose frame reaches the block
        # start, and the edge runs
        rt = np.where((seg == 0) & (start == 0), 1, 0).astype(np.int8)
        rt[0] = rt[-1] = 2
        # carried: run 0 plus the last run's frame, [tail, nr). The
        # resolve adds the carried sum of every block, this one
        # included, so take this block's carried runs inside [start,
        # i] back out: [max(start, tail), i], plus run 0 if start is 0
        tail = int(start[-1])
        lo = np.minimum(np.maximum(start, tail), idx + 1)
        own_s = P[idx + 1] - P[lo]
        own_c = C[idx + 1] - C[lo]
        first = (start == 0) & (tail > 0)
        own_s += np.where(first, s[0], 0.0)
        own_c += np.where(first, c[0], 0)
        pend = rt > 0
        fs[pend] -= own_s[pend]
        fc[pend] -= own_c[pend]
        # map_batches cannot see block order; the id only has to tell
        # blocks apart (random, non-negative int64)
        blk = uuid.uuid4().int >> 65
        runs = batch.take(pa.array(rstart))
        cidx = np.union1d([0], np.arange(tail, nr))
        crt = np.where((cidx == 0) | (cidx == nr - 1), 4, 3)
        return pa.concat_tables([
            with_aux(runs, fs, fc, rt, blk),
            with_aux(runs.take(pa.array(cidx)), s[cidx], c[cidx], crt,
                     blk)])

    scanned = sorted_ds.map_batches(scan, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()

    # carried runs only: the filter runs distributed, so full blocks
    # never reach the driver
    def carry_only(batch: pa.Table) -> pa.Table:
        if "__rt" not in batch.column_names:
            return batch
        return batch.filter(pc.greater_equal(batch["__rt"], 3))

    parts = [b for b in scanned.map_batches(
        carry_only, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow") if b.num_rows]
    carried: dict = {}
    holder: dict = {}
    if parts:
        ct = pa.concat_tables(parts)
        kk = _group_key_expr(ct, [key]).to_numpy(zero_copy_only=False)
        _, kcode = np.unique(kk, return_inverse=True)
        tick, tnull = _ticks_np(ct[ts])
        order = np.lexsort((tick, tnull, kcode))
        kk, kcode, tick, tnull = (a[order] for a in
                                  (kk, kcode, tick, tnull))
        s = ct["__s"].to_numpy()[order]
        c = ct["__c"].to_numpy()[order]
        bounds = np.nonzero(np.concatenate(
            [[True], kcode[1:] != kcode[:-1], [True]]))[0]
        # per key: non-null ts ascending with prefix sum and count,
        # then the NULL-ts total
        for a, b in zip(bounds[:-1], bounds[1:]):
            nn = a + int(np.count_nonzero(~tnull[a:b]))
            carried[kk[a]] = (
                tick[a:nn],
                np.concatenate([[0.0], np.cumsum(s[a:nn])]),
                np.concatenate([[0], np.cumsum(c[a:nn])]),
                float(s[nn:b].sum()), int(c[nn:b].sum()))
        # a (key, ts) run at the edge of several blocks was split
        # across them: the lowest block id emits it
        edge = ct["__rt"].to_numpy()[order] == 4
        seen: dict = {}
        for kv, t, tn, bk in zip(
                kk[edge], tick[edge].tolist(), tnull[edge],
                ct["__blk"].to_numpy()[order][edge].tolist()):
            seen.setdefault((kv, None if tn else t), []).append(bk)
        holder = {pk: min(bs) for pk, bs in seen.items()
                  if len(bs) > 1}

    handle = ray.put((carried, holder))

    def resolve(batch: pa.Table) -> pa.Table:
        if "__rt" not in batch.column_names:
            return batch
        batch = batch.filter(pc.less(batch["__rt"], 3))
        rt = batch["__rt"].to_numpy()
        fs = batch["__s"].to_numpy().copy()
        fc = batch["__c"].to_numpy().copy()
        keep = np.ones(batch.num_rows, bool)
        pend = np.nonzero(rt > 0)[0]
        if len(pend):
            carry, split = ray.get(handle)
            win_ticks = _window_ticks(batch[ts].type, win_us)
            pb = batch.take(pa.array(pend))
            kk = _group_key_expr(pb, [key]) \
                .to_numpy(zero_copy_only=False)
            tick, tnull = _ticks_np(pb[ts])
            # a pending run is in its block's first key segment or is
            # its last run, and both of those keys are carried
            for kv in np.unique(kk):
                cts, cs, cc, ns, nc = carry[kv]
                m = kk == kv
                t, tn = tick[m], tnull[m]
                hi = np.searchsorted(cts, t, side="right")
                lo = np.searchsorted(
                    cts, _probe_ticks(t, win_ticks), side="right")
                fs[pend[m]] += np.where(tn, ns, cs[hi] - cs[lo])
                fc[pend[m]] += np.where(tn, nc, cc[hi] - cc[lo])
            blk = batch["__blk"].to_numpy()
            for j in np.nonzero(rt[pend] == 2)[0]:
                i = pend[j]
                pk = (kk[j], None if tnull[j] else int(tick[j]))
                keep[i] = split.get(pk, blk[i]) == blk[i]
        win = pa.array(fs, pa.float64(), mask=(fc == 0))
        if as_int:
            # exact integer-valued floats -> int64 (round is a no-op
            # numerically; it guards the cast against -0.0 etc.)
            win = pc.cast(pc.round(win), pa.int64())
        res = pa.table({key: batch[key], ts: batch[ts],
                        out: win, cnt_out: pa.array(fc, pa.int64())})
        return res if keep.all() else res.filter(pa.array(keep))

    return scanned.map_batches(resolve, batch_format="pyarrow",
                               zero_copy_batch=True)


def sessionize_counts(ds, key: str = "user_id", ts: str = "ts",
                      gap_seconds: float = 1800.0):
    """Per-key session count: a new session starts when the gap
    between consecutive events exceeds ``gap_seconds`` (strictly).
    Returns a Dataset of (key, n_events, n_sessions)."""
    gap_us = gap_seconds * 1_000_000.0
    from .relational import null_safe_sort

    def drop_null_ts(batch: pa.Table) -> pa.Table:
        # an event without a timestamp cannot be placed on a session
        # timeline; excluded (documented semantics — pair with the
        # engine's null-fraction stats / required checks to surface
        # them)
        return batch.filter(pc.is_valid(batch[ts]))

    proj = ds.select_columns([key, ts]).map_batches(
        drop_null_ts, batch_format="pyarrow", zero_copy_batch=True)
    sorted_ds = null_safe_sort(proj, [key], [ts])

    def per_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ktype = batch[key].type
        empty = {
            key: pa.array([], ktype),
            "n_events": pa.array([], pa.int64()),
            "n_sessions": pa.array([], pa.int64()),
            "_edge": pa.array([], pa.bool_()),
            "_first": pa.array([], pa.int64()),
            "_last": pa.array([], pa.int64()),
        }
        if n == 0:
            return pa.table(empty)
        kcol = batch[key].combine_chunks()
        tsv = _int64_us(batch[ts]).to_numpy(zero_copy_only=False)
        # one vectorized pass over the sorted block: per-key-segment
        # event counts, session counts (adjacent-diff breaks), and
        # first/last timestamps. Null-safe key comparison: NULL keys
        # form ONE group (SQL PARTITION BY), not one group per row
        same = _same_adjacent_keys(kcol)
        change = np.nonzero(~same)[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        brk = same & ((tsv[1:] - tsv[:-1]) > gap_us)
        cs = np.concatenate([[0], np.cumsum(brk)])
        # the block is sorted, so only its FIRST and LAST key segment
        # can straddle a block boundary — those become mergeable
        # partials; every other segment is complete (final row)
        g = len(starts)
        edge_g = np.zeros(g, dtype=bool)
        edge_g[0] = edge_g[g - 1] = True
        return pa.table({
            key: kcol.take(pa.array(starts, pa.int64())),
            "n_events": pa.array(ends - starts, pa.int64()),
            "n_sessions": pa.array(1 + cs[ends - 1] - cs[starts],
                                   pa.int64()),
            "_edge": pa.array(edge_g),
            "_first": pa.array(tsv[starts]),
            "_last": pa.array(tsv[ends - 1]),
        })

    parts = sorted_ds.map_batches(per_batch, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    # interior keys STAY a distributed Dataset. Block-boundary keys
    # are stitched from MERGEABLE PARTIALS — one fixed-size row
    # (n_events, n_sessions, first_ts, last_ts) per edge key per
    # block, at most 2 per block — so driver memory is O(n_blocks)
    # and INDEPENDENT of how many events a Zipf-hot key has: merging
    # two adjacent segments only needs the boundary gap
    # next.first - prev.last (<= gap joins the sessions).
    def interior_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.invert(batch["_edge"]))
        return kept.drop_columns(["_edge", "_first", "_last"])

    interior = parts.map_batches(interior_only, batch_format="pyarrow",
                                 zero_copy_batch=True)

    edge: dict = {}
    for batch in parts.iter_batches(batch_format="pyarrow"):
        em = batch["_edge"].to_numpy(zero_copy_only=False)
        eidx = np.nonzero(em)[0]
        if not len(eidx):
            continue
        sub = batch.take(pa.array(eidx))
        for r in sub.to_pylist():
            edge.setdefault(r[key], []).append(
                (r["_first"], r["_last"], r["n_events"],
                 r["n_sessions"]))
    rows = []
    for k, segs in sorted(edge.items(),
                          key=lambda kv: (kv[0] is None, str(kv[0]))):
        segs.sort()  # by (first_ts, last_ts): segments are disjoint
        # in ts order within a key up to boundary ties
        n_events = sum(s[2] for s in segs)
        n_sessions = sum(s[3] for s in segs)
        for prev, nxt in zip(segs[:-1], segs[1:]):
            if (nxt[0] - prev[1]) <= gap_us:
                n_sessions -= 1  # boundary gap joins the sessions
        rows.append((k, n_events, n_sessions))

    import ray

    ktype = parts.schema().base_schema.field(key).type
    edge_table = pa.table({
        key: pa.array([r[0] for r in rows], ktype),
        "n_events": pa.array([r[1] for r in rows], pa.int64()),
        "n_sessions": pa.array([r[2] for r in rows], pa.int64()),
    })
    if edge_table.num_rows == 0:
        return interior
    return interior.union(ray.data.from_arrow(edge_table))


def _hopping_assign(ts: str, window_seconds: int, hop_seconds: int):
    """Vectorized hopping-window assignment kernel shared by the
    hopping aggregates: each row expands to its window/hop containing
    windows (one np.repeat, no per-row loop), gaining a
    ``window_start_us`` int64 column."""
    if window_seconds % hop_seconds:
        raise ValueError("window_seconds must be a multiple of "
                         "hop_seconds")
    hop_us = hop_seconds * 1_000_000
    n_win = window_seconds // hop_seconds

    def assign(batch: pa.Table) -> pa.Table:
        tsv = _int64_us(batch[ts])
        valid = pc.is_valid(tsv).to_numpy(zero_copy_only=False)
        t_np = pc.fill_null(tsv, 0).to_numpy(zero_copy_only=False)
        base = (t_np // hop_us) * hop_us
        # windows base, base-hop, ..., base-(n_win-1)*hop all contain
        # t; a null timestamp keeps its n_win copies in the NULL
        # window (mirroring SQL: NULL window expression x cross join)
        starts = (base[:, None]
                  - (np.arange(n_win, dtype=np.int64) * hop_us)[None, :])
        n = batch.num_rows
        row_idx = np.repeat(np.arange(n), n_win)
        out = batch.take(pa.array(row_idx, pa.int64()))
        null_mask = np.repeat(~valid, n_win)
        win = pa.array(starts.ravel(), pa.int64(),
                       mask=null_mask if null_mask.any() else None)
        return out.append_column("window_start_us", win)

    return assign


def hopping_window_counts(ds, ts: str = "ts", value: str = "value",
                          window_seconds: int = 86400,
                          hop_seconds: int = 21600):
    """Event-time hopping (sliding) window aggregate: windows of
    ``window_seconds`` starting every ``hop_seconds`` (window must be
    a multiple of hop). Each event lands in exactly window/hop
    windows — assigned VECTORIZED per batch (one np.repeat expansion,
    no per-row loop), pre-aggregated per block, then one small
    shuffle over the window keys."""
    from .relational import grouped_aggregate

    assign = _hopping_assign(ts, window_seconds, hop_seconds)
    with_win = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    return grouped_aggregate(with_win, ["window_start_us"],
                             [(value, "sum"), (None, "count")])


def hopping_distinct_counts(ds, ts: str = "ts",
                            entity: str = "user_id",
                            window_seconds: int = 7 * 86400,
                            hop_seconds: int = 86400):
    """Sliding-window EXACT distinct entities — the DAU/WAU family
    ("7-day active users as of each day").

    Shape: window membership depends only on the HOP BUCKET, so each
    block first collapses to its distinct (hop_bucket, entity) pairs
    (one vectorized groupby — the repeat factor of hot entities never
    survives the block), THEN the window/hop-fold expansion runs on
    that combiner output, and
    :func:`~json_schema_ray.engine.relational.grouped_distinct_count`
    finishes with the global (window, entity) dedupe + per-window
    count. The expansion factor multiplies combiner-sized rows, not
    input rows. NULL timestamps keep SQL semantics (their pairs land
    in the NULL window); NULL entities are dropped by the final
    COUNT(DISTINCT). Returns (window_start_us, n_distinct)."""
    from .relational import grouped_distinct_count

    # (the multiple-of-hop contract is validated by _hopping_assign)
    hop_us = hop_seconds * 1_000_000

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        tsv = _int64_us(batch[ts])
        valid = pc.is_valid(tsv).to_numpy(zero_copy_only=False)
        t_np = pc.fill_null(tsv, 0).to_numpy(zero_copy_only=False)
        base = (t_np // hop_us) * hop_us
        hop = pa.array(base, pa.int64(),
                       mask=None if valid.all() else ~valid)
        from .relational import safe_groupby_aggregate
        g = safe_groupby_aggregate(
            pa.table({"__hop": hop, entity: batch[entity]}),
            ["__hop", entity], [])
        return g

    pairs = ds.map_batches(bucket_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)
    # hop-bucket int64 doubles as the assignment timestamp (us)
    assign = _hopping_assign("__hop", window_seconds, hop_seconds)
    with_win = pairs.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return grouped_distinct_count(with_win, "window_start_us", entity)


def tumbling_window_counts(ds, ts: str = "ts", value: str = "value",
                           window_seconds: int = 86400):
    """Event-time tumbling-window aggregate: (window_start, n, sum).

    Expressed as a derived-column groupby: assign each row its window
    start inside ``map_batches`` (vectorized), pre-aggregate per
    block, then a small shuffle over window keys.
    """
    from .relational import grouped_aggregate

    win_us = window_seconds * 1_000_000

    def assign(batch: pa.Table) -> pa.Table:
        tsv = _int64_us(batch[ts])
        # FLOOR division (numpy // truncates toward -inf), matching
        # SQL floor(): pre-1970 (negative) timestamps land in the
        # window that CONTAINS them, not the one above
        null_mask = pc.is_null(tsv).to_numpy(zero_copy_only=False)
        filled = pc.fill_null(tsv, 0).to_numpy(zero_copy_only=False)
        win = (filled // win_us) * win_us
        win_arr = pa.array(win, pa.int64(),
                           mask=null_mask if null_mask.any() else None)
        return batch.append_column("window_start_us", win_arr)

    with_win = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    return grouped_aggregate(with_win, ["window_start_us"],
                             [(value, "sum"), (None, "count")])


def _greedy_bins(sizes: np.ndarray, budget: int) -> np.ndarray:
    """Greedy sequential packing of ordered item sizes into bins of
    capacity ``budget``: an item joins the current bin iff it fits
    (fill + size <= budget); the FIRST item of a bin always joins,
    so oversized items occupy a bin alone. Returns the 0-based bin
    index per item. O(n_bins) searchsorted steps over the prefix
    sum, not O(n) Python."""
    n = len(sizes)
    bins = np.empty(n, dtype=np.int64)
    cum = np.cumsum(sizes.astype(np.int64))
    start, b, base = 0, 0, 0
    while start < n:
        end = int(np.searchsorted(cum, base + budget, side="right"))
        if end <= start:
            end = start + 1
        bins[start:end] = b
        base = int(cum[end - 1])
        b += 1
        start = end
    return bins


def pack_items(ds, key: str, order: str, size: str, budget: int):
    """Greedy sequence packing (training-batch assembly): within each
    ``key`` group, items ordered by ``order`` are packed
    first-fit-sequentially into bins of ``budget`` total ``size``
    (see :func:`_greedy_bins` for the exact rule). Returns a Dataset
    of (key, order, size, bin) rows.

    Scale shape: ONE range-partitioned null-safe sort on
    (key, order) co-locates and orders each group; groups lying
    wholly inside a block pack in-block (vectorized prefix sums, a
    searchsorted step per BIN); only the first/last group of each
    block — the ones that can straddle a boundary — are re-packed
    through one groupby over those edge rows alone. Packing is
    inherently sequential WITHIN a group (bin boundaries depend on
    every prior size), so a group that spans blocks must meet in one
    worker — the operator's documented partitioning assumption is
    that a single group's rows fit a worker, the same contract as
    any per-group map_groups stage; everything else never shuffles
    twice. Null ``order``/``size`` rows are dropped (they cannot be
    placed); null keys form their own group."""
    from .relational import (decode_null_safe_keys,
                             encode_null_safe_keys, null_safe_sort)

    def prep(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, order, size])
        return sel.filter(pc.and_(pc.is_valid(batch[order]),
                                  pc.is_valid(batch[size])))

    proj = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)
    sorted_ds = null_safe_sort(proj, [key], [order])

    def pack_block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ktype = batch[key].type
        empty = pa.table({
            key: pa.array([], ktype),
            order: pa.array([], batch[order].type),
            size: pa.array([], batch[size].type),
            "bin": pa.array([], pa.int64()),
            "_edge": pa.array([], pa.bool_()),
        })
        if n == 0:
            return empty
        enc = encode_null_safe_keys(batch, [key])
        kk = enc["__gs0"].combine_chunks().to_numpy(
            zero_copy_only=False)
        sizes = pc.cast(batch[size], pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        change = np.nonzero(kk[1:] != kk[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        g = len(starts)
        bins = np.zeros(n, dtype=np.int64)
        edge = np.zeros(n, dtype=bool)
        edge[starts[0]:ends[0]] = True
        edge[starts[g - 1]:ends[g - 1]] = True
        for s, e in zip(starts[1:g - 1], ends[1:g - 1]):
            bins[s:e] = _greedy_bins(sizes[s:e], budget)
        return pa.table({
            key: batch[key],
            order: batch[order],
            size: batch[size],
            "bin": pa.array(bins),
            "_edge": pa.array(edge),
        })

    parts = sorted_ds.map_batches(pack_block, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    def interior_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(batch["_edge"])) \
            .drop_columns(["_edge"])

    interior = parts.map_batches(interior_only, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # boundary groups re-pack DISTRIBUTED: their rows (at most the
    # first/last group of each block) shuffle once by encoded key and
    # each group packs in one worker — never on the driver
    def edge_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(batch["_edge"]).drop_columns(["_edge"])
        return encode_null_safe_keys(kept, [key])

    edge_ds = parts.map_batches(edge_only, batch_format="pyarrow",
                                zero_copy_batch=True)

    def pack_group(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group, sort_keys=[(order, "ascending")])
        group = group.take(idx)
        sizes = pc.cast(group[size], pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        packed = group.set_column(
            group.schema.get_field_index("bin"), "bin",
            pa.array(_greedy_bins(sizes, budget)))
        return decode_null_safe_keys(packed, [key],
                                     [order, size, "bin"])

    edge_packed = edge_ds.groupby("__gs0").map_groups(
        pack_group, batch_format="pyarrow")
    return interior.union(edge_packed)


def throttle_by_gap(ds, keys, ts: str = "ts", gap=None,
                    tiebreak: str = "event_id"):
    """Windowed event dedup (throttle): keep a row iff the previous
    row with the same key(s) — SQL ``lag(ts) OVER (PARTITION BY keys
    ORDER BY ts, tiebreak)`` — is NULL or more than ``gap`` older;
    equivalently, the first event of each gap-session. The standard
    de-bounce for event streams (repeated clicks, retried tool
    calls) ahead of sessionization or training-data extraction.

    ``gap`` for timestamp columns is a ``pa.duration`` scalar (used
    as-is) or an integer in MICROSECONDS — converted into the ts
    column's own ticks, raising if not a whole number of ticks (so
    an s/ms-unit column can't silently get a 1e6/1e3x-wrong gap);
    for numeric ts columns it is a plain number in the column's
    units. Rides :func:`rank.lag_column`'s one null-safe sort
    with O(n_blocks) fixed-size carries — no per-key state, no
    driver-side timeline.

    SQL-null semantics: a NULL ts row never starts or extends a
    throttle window (``ts - lag(ts)`` is NULL -> dropped) unless it
    is its key's first row."""
    from .rank import lag_column

    if gap is None:
        raise ValueError("throttle_by_gap: gap is required (duration"
                         " in the ts column's units)")
    lagged = lag_column(ds, keys, ts, value=ts, tiebreak=tiebreak,
                        out="__prev_ts")

    def keep(batch: pa.Table) -> pa.Table:
        t, p = batch[ts], batch["__prev_ts"]
        if pa.types.is_timestamp(t.type):
            if isinstance(gap, pa.Scalar):
                g = gap
            else:
                # an integer gap is MICROSECONDS (as documented);
                # pa.duration(unit) counts the column's own ticks, so
                # convert us -> ticks or an s/ms column silently gets
                # a 1e6/1e3x-too-large gap (the unit-bug class
                # range_windowed_sum guards against)
                gap_us = int(gap)
                us_per_tick = {"s": 1_000_000, "ms": 1_000, "us": 1,
                               "ns": None}[t.type.unit]
                if us_per_tick is None:  # ns ticks are finer than us
                    gap_ticks = gap_us * 1_000
                else:
                    if gap_us % us_per_tick:
                        raise ValueError(
                            f"gap ({gap_us}us) is not a whole number"
                            f" of {t.type} ticks")
                    gap_ticks = gap_us // us_per_tick
                g = pa.scalar(gap_ticks, pa.duration(t.type.unit))
        else:
            g = pa.scalar(gap, t.type)
        mask = pc.or_kleene(pc.is_null(p),
                            pc.greater(pc.subtract(t, p), g))
        return batch.filter(pc.fill_null(mask, False)) \
            .drop_columns(["__prev_ts"])

    return lagged.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def cohort_retention(ds, key: str = "user_id", ts: str = "ts"):
    """Cohort retention matrix — the standard product-analytics /
    corpus-freshness rollup: users are cohorted by the ISO week of
    their first event; each (cohort_week, week) cell counts the
    cohort's users still active that week.

    Distributed shape — ONE lazy pipeline, TWO shuffles, nothing
    event-sized past the first combiner (this replaced a five-
    execution pairs-groupby + min-groupby + sort-merge-join chain
    whose fixed per-execution costs dominated at bench scale):

    1. per-block partial: ONE row per key present in the block —
       its sorted unique activity weeks as an int64 blob
       (vectorized dictionary_encode + lexsort + adjacent-dedupe);
    2. ``groupby(key)`` with a mergeable union aggregate
       (``np.union1d`` of sorted blobs) — the only key-sized
       shuffle; the cohort is the union's FIRST element, so the
       min-week groupby and the pairs×cohorts join both vanish;
    3. explode (cohort_week, week) pairs and count them via the
       pre-aggregate combiner — the second shuffle moves
       weeks²-sized partials only.

    Week truncation is ``pc.floor_temporal(week_starts_monday)`` ==
    DuckDB ``date_trunc('week', ...)``. NULL keys/timestamps are
    ignored. Returns a driver-side table
    (cohort_week, week, n_users) — weeks^2-bounded by construction."""
    from ray.data.aggregate import AggregateFn

    from .relational import grouped_aggregate

    def weeks_partial(batch: pa.Table) -> pa.Table:
        kt = batch[key].type
        mask = pc.and_(pc.is_valid(batch[key]),
                       pc.is_valid(batch[ts]))
        t = batch.select([key, ts]).filter(mask)
        if t.num_rows == 0:
            return pa.table({key: pa.array([], kt),
                             "__weeks": pa.array([], pa.binary())})
        wk = pc.floor_temporal(t[ts], unit="week",
                               week_starts_monday=True) \
            .cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = t[key].combine_chunks().dictionary_encode()
        codes = g.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)  # no nulls: filtered above
        order = np.lexsort((wk, codes))
        cs, ws = codes[order], wk[order]
        keep = np.empty(len(cs), bool)
        keep[0] = True
        keep[1:] = (cs[1:] != cs[:-1]) | (ws[1:] != ws[:-1])
        cs, ws = cs[keep], ws[keep]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        ends = np.r_[starts[1:], len(cs)]
        return pa.table({
            key: g.dictionary.take(pa.array(cs[starts])).cast(kt),
            "__weeks": pa.array([ws[s:e].tobytes()
                                 for s, e in zip(starts, ends)],
                                pa.binary()),
        })

    def _acc(acc, row):
        w = np.frombuffer(row["__weeks"], np.int64)
        return w.copy() if acc is None else np.union1d(acc, w)

    union_agg = AggregateFn(
        init=lambda k: None,
        accumulate_row=_acc,
        merge=lambda a, b: (b if a is None else
                            a if b is None else np.union1d(a, b)),
        finalize=lambda a: b"" if a is None else a.tobytes(),
        name="__weeks_u")

    merged = ds.map_batches(weeks_partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby(key).aggregate(union_agg)

    def explode(batch: pa.Table) -> pa.Table:
        arrs = [np.frombuffer(b, np.int64)
                for b in batch["__weeks_u"].to_pylist() if b]
        if not arrs:
            return pa.table({"cohort_week": pa.array([], pa.int64()),
                             "week": pa.array([], pa.int64())})
        lens = np.fromiter((a.size for a in arrs), np.int64,
                           len(arrs))
        cohort = np.repeat(
            np.fromiter((a[0] for a in arrs), np.int64, len(arrs)),
            lens)
        return pa.table({"cohort_week": cohort,
                         "week": np.concatenate(arrs)})

    exploded = merged.map_batches(explode, batch_format="pyarrow",
                                  zero_copy_batch=True)
    out = grouped_aggregate(exploded, ["cohort_week", "week"],
                            [(None, "count")])
    if out is None:
        return pa.table({"cohort_week": pa.array([], pa.timestamp("us")),
                         "week": pa.array([], pa.timestamp("us")),
                         "n_users": pa.array([], pa.int64())})
    return pa.table({"cohort_week": out["cohort_week"]
                     .cast(pa.timestamp("us")),
                     "week": out["week"].cast(pa.timestamp("us")),
                     "n_users": out["rows_count"].cast(pa.int64())}) \
        .sort_by([("cohort_week", "ascending"), ("week", "ascending")])


def funnel_user_counts(ds, steps, key: str = "user_id",
                       ts: str = "ts", type_col: str = "event_type"):
    """Ordered-funnel analysis: for the step sequence ``steps``
    (event types), count the keys that completed each prefix in
    strict time order — step j counts keys with some step-j event
    STRICTLY AFTER their earliest completion time of step j-1 (the
    greedy/earliest-time funnel, the standard product-analytics
    definition; ties at the same timestamp do NOT advance).

    Shape: one pass per step (k is small and fixed). Each pass
    filters the input to that step's events (step 1 pre-aggregates
    per-block per-key minima — lossless with no threshold; later
    steps only dedupe exact (key, ts) repeats, since any event could
    be the first one past the yet-unjoined threshold), joins the
    previous step's per-key threshold table with the two-big-sides
    sort-merge join — no broadcast assumption — and re-reduces to
    the new per-key earliest-completion table. Driver holds only the
    k counts. NULL keys/timestamps never advance a funnel.

    Returns a driver-side table (step:int64 1-based, event_type,
    n_keys) — k rows by construction."""
    from ray.data.aggregate import Min

    from .relational import (null_safe_grouped_aggregate,
                             sort_merge_join)

    if not steps:
        raise ValueError("steps must be a non-empty sequence")

    def step_events(step_val, min_only):
        def keep(batch: pa.Table) -> pa.Table:
            mask = pc.and_(
                pc.and_(pc.is_valid(batch[key]),
                        pc.is_valid(batch[ts])),
                pc.equal(batch[type_col], step_val))
            t = batch.select([key, ts]).filter(pc.fill_null(mask, False))
            if min_only:
                # step 1 has no threshold: the per-block per-key min
                # is a lossless combiner
                g = pa.TableGroupBy(t, key).aggregate([(ts, "min")])
                return pa.table({key: g[key], ts: g[f"{ts}_min"]})
            # later steps filter by a per-key threshold AFTER the
            # join, so any event could be the first qualifying one —
            # reduce only exact (key, ts) duplicates per block
            from .relational import safe_groupby_aggregate
            g = safe_groupby_aggregate(t, [key, ts], [])
            return g.select([key, ts])
        return ds.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)

    counts = []
    thresholds = None  # Dataset of (key, __thr): earliest completion
    for j, step_val in enumerate(steps):
        ev = step_events(step_val, min_only=(j == 0))
        if j == 0:
            merged = null_safe_grouped_aggregate(
                ev, [key], [Min(ts, alias_name="__thr")], ["__thr"])
        else:
            # keep only events strictly after the key's previous
            # threshold, then take the earliest per key
            joined = sort_merge_join(ev, thresholds, key, key,
                                     value_columns=["__thr"])

            def after(batch: pa.Table) -> pa.Table:
                m = pc.greater(batch[ts], batch["__thr"])
                return batch.filter(pc.fill_null(m, False)) \
                    .drop_columns(["__thr"])

            merged = null_safe_grouped_aggregate(
                joined.map_batches(after, batch_format="pyarrow",
                                   zero_copy_batch=True),
                [key], [Min(ts, alias_name="__thr")], ["__thr"])
        thresholds = merged.materialize()
        counts.append(thresholds.count())

    return pa.table({
        "step": pa.array(range(1, len(steps) + 1), pa.int64()),
        "event_type": pa.array(list(steps), pa.string()),
        "n_keys": pa.array(counts, pa.int64()),
    })


def hopping_approx_distinct_counts(ds, ts: str = "ts",
                                   entity: str = "user_id",
                                   window_seconds: int = 7 * 86400,
                                   hop_seconds: int = 86400,
                                   p: int = 12):
    """The sketch twin of :func:`hopping_distinct_counts` — sliding-
    window APPROXIMATE distinct entities via the mergeable HLL
    aggregate of
    :func:`~json_schema_ray.engine.stats.grouped_approx_distinct`.
    This is the 100-TB path: the exact variant's (window, entity)
    dedupe shuffle is window/hop times wider than the input, while
    here every block reduces to ONE 2^p-byte register row per window
    it touches, so the shuffle is O(windows x blocks) regardless of
    entity cardinality. ~1.6% standard error at the default p=12
    (evidence: the error-bound test vs the exact twin, not a SQL
    hash match). Returns (window_start_us, n_approx)."""
    from .stats import grouped_approx_distinct

    assign = _hopping_assign(ts, window_seconds, hop_seconds)
    with_win = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    return grouped_approx_distinct(with_win, "window_start_us",
                                   entity, p=p)


def pack_contiguous(ds, order: str, size: str, budget: int,
                    presorted: bool = False):
    """GPT-style contiguous sequence packing: documents taken in
    global ``order`` concatenate into ONE token stream; training
    sequence k owns stream interval ``[k*budget, (k+1)*budget)``.
    Every surviving row gains ``pack_first`` / ``pack_last`` (the
    sequences it lands in — a doc longer than the remaining room
    spans several) and ``pack_offset`` (its start offset inside
    ``pack_first``). Rows with NULL or non-positive ``size`` are
    DROPPED (they occupy no stream space; SQL twin filters the
    same). ``order`` must be globally unique and numeric/temporal.

    Shape: one constant-key :func:`rank.cumulative_sum` — the single
    stream IS the hot-key case that machinery is built for
    (O(n_blocks) fixed-size carries, never a timeline) — then a
    stateless integer scan: with inclusive running sum R and size s,
    ``pack_first = (R-s) // budget``, ``pack_last = (R-1) //
    budget``, ``pack_offset = (R-s) % budget``. Sizes quantize
    exactly (int64 through float64 prefix sums; total stream length
    must stay under 2^53).

    ``presorted=True`` is the sort-free path for input already
    globally ordered by ``order`` (the common case: corpora stored
    in id order): the filtered (order, size) projection materializes
    once (stable blocks), ONE light pass emits a fixed-size
    (first, last, sum) row per block, the driver VERIFIES strict
    block ordering (raising if the input isn't actually sorted) and
    broadcasts exclusive base offsets, and a second per-block scan
    adds base + in-block cumsum — no all-to-all at all, exact int64
    arithmetic throughout."""
    import ray

    from .rank import cumulative_sum

    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    def prep(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch[size]),
                    pc.greater(batch[size], 0))
        t = batch.select([order, size]).filter(pc.fill_null(m, False))
        n = t.num_rows
        return t.append_column(
            "__k", pa.array(np.zeros(n, np.int8))) \
            .append_column("__tb", t[order])

    def emit(batch: pa.Table, r: np.ndarray) -> pa.Table:
        s = pc.cast(batch[size], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        prev = r - s
        return pa.table({
            order: batch[order], size: batch[size],
            "pack_first": pa.array(prev // budget, pa.int64()),
            "pack_last": pa.array((r - 1) // budget, pa.int64()),
            "pack_offset": pa.array(prev % budget, pa.int64())})

    if presorted:
        def prep_sorted(batch: pa.Table) -> pa.Table:
            m = pc.and_(pc.is_valid(batch[size]),
                        pc.greater(batch[size], 0))
            return batch.select([order, size]) \
                .filter(pc.fill_null(m, False))

        def _order_np(batch: pa.Table) -> np.ndarray:
            o = batch[order]
            if pa.types.is_timestamp(o.type):
                o = pc.cast(o, pa.int64())
            return o.combine_chunks().to_numpy(zero_copy_only=False)

        pre_m = ds.map_batches(prep_sorted, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()

        def _f_l_type(t: pa.DataType) -> pa.DataType:
            # keep the order column's own numeric type for the block
            # first/last stats: int(o[0]) truncation on a float order
            # column produced false "blocks overlap" errors and
            # misrouted searchsorted lookups in assign()
            return pa.int64() if pa.types.is_timestamp(t) else t

        def block_stat(batch: pa.Table) -> pa.Table:
            otype = _f_l_type(batch.schema.field(order).type)
            schema = pa.schema([("f", otype), ("l", otype),
                                ("s", pa.int64())])
            if batch.num_rows == 0:
                return schema.empty_table()
            o = _order_np(batch)
            if len(o) > 1 and not (o[1:] > o[:-1]).all():
                raise ValueError(
                    "pack_contiguous(presorted=True): input is not"
                    f" strictly sorted by {order!r} within a block")
            s = pc.cast(batch[size], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            return pa.table({"f": pa.array([o[0].item()], otype),
                             "l": pa.array([o[-1].item()], otype),
                             "s": pa.array([int(s.sum())], pa.int64())})

        stats = [r for b in pre_m.map_batches(
            block_stat, batch_format="pyarrow", batch_size=None)
            .iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()]
        if not stats:
            return ray.data.from_arrow(pa.schema(
                [(order, pa.int64()), (size, pa.int64()),
                 ("pack_first", pa.int64()), ("pack_last", pa.int64()),
                 ("pack_offset", pa.int64())]).empty_table())
        stats.sort(key=lambda r: r["f"])
        firsts = np.asarray([r["f"] for r in stats])
        lasts = np.asarray([r["l"] for r in stats])
        if (lasts[:-1] >= firsts[1:]).any():
            raise ValueError(
                "pack_contiguous(presorted=True): blocks overlap in"
                f" {order!r} — input is not globally sorted")
        sums = np.array([r["s"] for r in stats], np.int64)
        bases = np.concatenate([[0], np.cumsum(sums)[:-1]])
        handle = ray.put((firsts, bases))

        def assign(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return emit(batch, np.zeros(0, np.int64))
            fs, bs = ray.get(handle)
            o = _order_np(batch)
            idx = np.searchsorted(fs, o[0])
            base = int(bs[idx])
            s = pc.cast(batch[size], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            return emit(batch, base + np.cumsum(s))

        return pre_m.map_batches(assign, batch_format="pyarrow",
                                 batch_size=None)

    pre = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
    run = cumulative_sum(pre, "__k", order, size, tiebreak="__tb")

    def finish(batch: pa.Table) -> pa.Table:
        r = pc.cast(pc.round(batch["running_sum"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return emit(batch, r)

    return run.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def session_table(ds, key: str = "user_id", ts: str = "ts",
                  gap_seconds: float = 1800.0):
    """Session-LEVEL realization of :func:`sessionize_counts`: one
    row PER SESSION — (key, session_start_us, session_end_us,
    n_events, duration_us) — where a new session starts when the gap
    between a key's consecutive events strictly exceeds
    ``gap_seconds``. This is the table downstream session-duration /
    engagement analyses aggregate, not just the per-key counts.

    Scale shape: ONE null-safe sort on (key, ts); within each sorted
    block every session of an INTERIOR key segment — and every
    boundary-UNTOUCHED session of an edge segment — finalizes
    vectorized (adjacent-diff breaks, reduceat bounds). Only the
    sessions actually touching a block boundary (<= 2 per block,
    fixed-size (first, last, n) partials) stitch on the driver by
    chain-merging ts-adjacent partials whose boundary gap <= gap —
    O(n_blocks) driver state, independent of key heat. NULL-ts rows
    drop (same documented semantics as sessionize_counts).
    """
    gap_us = gap_seconds * 1_000_000.0
    from .relational import null_safe_sort

    def drop_null_ts(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch[ts]))

    proj = ds.select_columns([key, ts]).map_batches(
        drop_null_ts, batch_format="pyarrow", zero_copy_batch=True)
    sorted_ds = null_safe_sort(proj, [key], [ts])

    def per_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ktype = batch[key].type
        empty = {
            key: pa.array([], ktype),
            "session_start_us": pa.array([], pa.int64()),
            "session_end_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "_edge": pa.array([], pa.bool_()),
        }
        if n == 0:
            return pa.table(empty)
        kcol = batch[key].combine_chunks()
        tsv = _int64_us(batch[ts]).to_numpy(zero_copy_only=False)
        # null-safe: NULL keys form ONE group (SQL PARTITION BY)
        same = _same_adjacent_keys(kcol)
        brk = ~same | ((tsv[1:] - tsv[:-1]) > gap_us)
        s_starts = np.concatenate([[0], np.nonzero(brk)[0] + 1])
        s_ends = np.concatenate([s_starts[1:], [n]])
        # a session is boundary-exposed iff it contains the block's
        # first row and its key segment could continue the previous
        # block, or contains the last row and could continue into
        # the next — i.e. exactly the first and last session rows
        m = len(s_starts)
        exposed = np.zeros(m, dtype=bool)
        exposed[0] = exposed[m - 1] = True
        return pa.table({
            key: kcol.take(pa.array(s_starts, pa.int64())),
            "session_start_us": pa.array(tsv[s_starts]),
            "session_end_us": pa.array(tsv[s_ends - 1]),
            "n_events": pa.array(s_ends - s_starts, pa.int64()),
            "_edge": pa.array(exposed),
        })

    parts = sorted_ds.map_batches(per_batch, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    def interior_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.invert(batch["_edge"]))
        kept = kept.drop_columns(["_edge"])
        dur = pc.subtract(kept["session_end_us"],
                          kept["session_start_us"])
        return kept.append_column("duration_us", dur)

    interior = parts.map_batches(interior_only, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # boundary sessions: <= 2 fixed-size partial rows per block
    edge: dict = {}
    for batch in parts.iter_batches(batch_format="pyarrow"):
        em = batch["_edge"].to_numpy(zero_copy_only=False)
        eidx = np.nonzero(em)[0]
        if not len(eidx):
            continue
        sub = batch.take(pa.array(eidx))
        for r in sub.to_pylist():
            edge.setdefault(r[key], []).append(
                (r["session_start_us"], r["session_end_us"],
                 r["n_events"]))
    rows = []
    for k, segs in sorted(edge.items(),
                          key=lambda kv: (kv[0] is None, str(kv[0]))):
        segs.sort()
        cur = list(segs[0])
        for nxt in segs[1:]:
            if (nxt[0] - cur[1]) <= gap_us:
                cur[1] = max(cur[1], nxt[1])
                cur[2] += nxt[2]
            else:
                rows.append((k, cur[0], cur[1], cur[2]))
                cur = list(nxt)
        rows.append((k, cur[0], cur[1], cur[2]))

    import ray

    if not rows:
        return interior
    ktype = parts.schema().base_schema.field(key).type
    edge_table = pa.table({
        key: pa.array([r[0] for r in rows], ktype),
        "session_start_us": pa.array([r[1] for r in rows], pa.int64()),
        "session_end_us": pa.array([r[2] for r in rows], pa.int64()),
        "n_events": pa.array([r[3] for r in rows], pa.int64()),
        "duration_us": pa.array([r[2] - r[1] for r in rows],
                                pa.int64()),
    })
    return interior.union(ray.data.from_arrow(edge_table))


def keyed_hopping_distinct_counts(ds, ts: str = "ts",
                                  key: str = "user_id",
                                  value: str = "event_type",
                                  window_seconds: int = 7 * 86400,
                                  hop_seconds: int = 86400):
    """PER-KEY sliding-window exact distinct — "each user's 7-day
    distinct event types as of each day": the keyed generalization
    of :func:`hopping_distinct_counts` (whose output is corpus-wide).
    The engagement-diversity / feature-freshness signal per entity.

    Shape: window membership depends only on the HOP BUCKET, so each
    block first collapses to its distinct (hop, key, value) triples
    (hot keys never survive a block at their raw multiplicity), the
    window/hop-fold expansion multiplies COMBINER-sized rows, a
    second per-block dedupe collapses the fold overlap, and ONE
    null-safe groupby on (window, key, value) finishes the global
    dedupe; the per-(window, key) count is then a triple-cardinality
    combiner + ONE (window, key)-sized exchange. NULL timestamps
    land in the NULL window (SQL semantics); NULL values drop
    (COUNT(DISTINCT)); NULL keys form their own group.

    Returns a Dataset of (window_start_us, key, n_distinct)."""
    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    hop_us = hop_seconds * 1_000_000

    def bucket_triples(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch[value]))
        tsv = _int64_us(t[ts])
        valid = pc.is_valid(tsv).to_numpy(zero_copy_only=False)
        t_np = pc.fill_null(tsv, 0).to_numpy(zero_copy_only=False)
        base = (t_np // hop_us) * hop_us
        hop = pa.array(base, pa.int64(),
                       mask=None if valid.all() else ~valid)
        from .relational import safe_groupby_aggregate
        g = safe_groupby_aggregate(
            pa.table({"__hop": hop, key: t[key], value: t[value]}),
            ["__hop", key, value], [])
        return g

    triples = ds.map_batches(bucket_triples, batch_format="pyarrow",
                             zero_copy_batch=True)
    assign = _hopping_assign("__hop", window_seconds, hop_seconds)

    def expand_dedupe(batch: pa.Table) -> pa.Table:
        from .relational import safe_groupby_aggregate
        w = assign(batch)
        g = safe_groupby_aggregate(
            w.select(["window_start_us", key, value]),
            ["window_start_us", key, value], [])
        return g.append_column(
            "__c", pa.array(np.ones(g.num_rows, np.int64)))

    expanded = triples.map_batches(expand_dedupe,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
    distinct = null_safe_grouped_aggregate(
        expanded, ["window_start_us", key, value],
        [Sum("__c", alias_name="__c")], ["__c"])

    def pair_counts(batch: pa.Table) -> pa.Table:
        from .relational import safe_groupby_aggregate
        g = safe_groupby_aggregate(
            batch.select(["window_start_us", key]),
            ["window_start_us", key], [([], "count_all")])
        return pa.table({
            "window_start_us": g["window_start_us"], key: g[key],
            "__n": g["count_all"].cast(pa.int64())})

    agg = null_safe_grouped_aggregate(
        distinct.map_batches(pair_counts, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["window_start_us", key], [Sum("__n", alias_name="__n")],
        ["__n"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"window_start_us": batch["window_start_us"],
                         key: batch[key],
                         "n_distinct": batch["__n"]})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def densify_gaps(ds, key: str, period: str, fill_cols):
    """Gap-fill a per-(key, period) table: every input row survives,
    and each missing integer period STRICTLY BETWEEN a key's adjacent
    observed periods gains a row with 0 in every ``fill_cols`` column
    (SQL twin: ``generate_series`` between per-key min/max LEFT JOIN
    the observed rows). ``(key, period)`` must be unique — this
    operator consumes the output of a grouped aggregate, which
    guarantees it. NULL keys form their own group like SQL GROUP BY;
    a NULL period raises (a grouped aggregate never produces one).

    Shape: ONE null-safe range-partitioned sort on (key, period).
    Interior adjacent pairs expand their gaps fully vectorized per
    block (np.repeat over gap sizes, one arange subtraction — no
    per-key Python). The only pair a block cannot see straddles its
    boundary, and it is resolvable from each block's FIRST and LAST
    row alone: 2 fixed-size carry rows per block, O(n_blocks) driver
    state, hot-key-proof (a key spanning every block costs carries,
    never its timeline). Driver-generated rows are bounded by the
    cross-boundary missing periods — output-sized, the bound any
    exact densification already pays."""
    import ray

    from .relational import null_safe_sort

    fill_cols = list(fill_cols)
    sorted_ds = null_safe_sort(ds, [key], [period])

    def expand(batch: pa.Table) -> pa.Table:
        out_cols = [key, period] + fill_cols
        batch = batch.select(out_cols)
        tagged = batch.append_column(
            "__bt", pa.array(np.zeros(batch.num_rows, np.int8)))
        n = batch.num_rows
        if n == 0:
            return tagged.append_column(
                "__rt", pa.array([], pa.int8()))
        pcol = batch[period]
        if not pa.types.is_integer(pcol.type):
            raise ValueError(
                f"densify_gaps: period column {period!r} must be an"
                f" integer period index, got {pcol.type}")
        if pcol.null_count:
            raise ValueError(
                "densify_gaps: NULL period — feed the output of a"
                " grouped aggregate")
        pv = pc.cast(pcol, pa.int64()).to_numpy(zero_copy_only=False)
        same = _same_adjacent_keys(batch[key])
        d = pv[1:] - pv[:-1]
        mask = same & (d > 1)
        rt0 = tagged.append_column(
            "__rt", pa.array(np.zeros(n, np.int8)))
        # carry rows: the block's first and last row (__bt 0 = block
        # first, 1 = block last) — the only rows the boundary stitch
        # needs
        carry = batch.take(pa.array([0, n - 1])).append_column(
            "__bt", pa.array(np.array([0, 1], np.int8))).append_column(
            "__rt", pa.array(np.full(2, 2, np.int8)))
        if not mask.any():
            return pa.concat_tables([rt0, carry])
        reps = (d - 1)[mask]
        starts = pv[:-1][mask] + 1
        total = int(reps.sum())
        offs = np.concatenate([[0], np.cumsum(reps)[:-1]])
        fill_p = np.repeat(starts, reps) + \
            (np.arange(total) - np.repeat(offs, reps))
        src = np.repeat(np.nonzero(mask)[0], reps)
        fills = {key: batch[key].combine_chunks().take(
            pa.array(src, pa.int64())),
            period: pa.array(fill_p, pcol.type)}
        for c in fill_cols:
            fills[c] = pa.array(
                np.zeros(total, np.int64)).cast(batch[c].type)
        ft = pa.table(fills).append_column(
            "__bt", pa.array(np.zeros(total, np.int8))).append_column(
            "__rt", pa.array(np.zeros(total, np.int8)))
        return pa.concat_tables([rt0, ft, carry])

    scanned = sorted_ds.map_batches(expand, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()

    def carry_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["__rt"], 2))

    carries = [pa.Table.from_batches([b])
               if isinstance(b, pa.RecordBatch) else b
               for b in scanned.map_batches(
                   carry_only, batch_format="pyarrow",
                   zero_copy_batch=True)
               .iter_batches(batch_format="pyarrow")]
    carries = [t for t in carries if t.num_rows]

    def keep_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["__rt"], 0)) \
            .drop_columns(["__bt", "__rt"])

    kept = scanned.map_batches(keep_only, batch_format="pyarrow",
                               zero_copy_batch=True)
    if not carries:
        return kept
    ct = pa.concat_tables(carries, promote_options="default")
    idx = pc.sort_indices(ct, sort_keys=[
        (key, "ascending"), (period, "ascending"),
        ("__bt", "ascending")])
    ct = ct.take(idx)
    m = ct.num_rows
    if m < 2:
        return kept
    pv = pc.cast(ct[period], pa.int64()).to_numpy(zero_copy_only=False)
    bt = ct["__bt"].to_numpy(zero_copy_only=False)
    same = _same_adjacent_keys(ct[key])
    d = pv[1:] - pv[:-1]
    # a cross-block gap is (block-LAST row) -> (next block's FIRST
    # row) of the same key with a hole between them
    mask = same & (d > 1) & (bt[:-1] == 1) & (bt[1:] == 0)
    if not mask.any():
        return kept
    reps = (d - 1)[mask]
    starts = pv[:-1][mask] + 1
    total = int(reps.sum())
    offs = np.concatenate([[0], np.cumsum(reps)[:-1]])
    fill_p = np.repeat(starts, reps) + \
        (np.arange(total) - np.repeat(offs, reps))
    src = np.repeat(np.nonzero(mask)[0], reps)
    fills = {key: ct[key].combine_chunks().take(
        pa.array(src, pa.int64())),
        period: pa.array(fill_p, ct[period].type)}
    for c in fill_cols:
        fills[c] = pa.array(
            np.zeros(total, np.int64)).cast(ct[c].type)
    return kept.union(
        __import__("ray").data.from_arrow(pa.table(fills)))


def _coalesce_np(s: np.ndarray, e: np.ndarray):
    """Merge overlapping-or-touching [s, e] intervals (int64) into
    disjoint islands: sort by (s, e), running max of ends, an island
    opens where a start exceeds every previous end. Vectorized —
    lexsort + maximum.accumulate + reduceat."""
    order = np.lexsort((e, s))
    s, e = s[order], e[order]
    runmax = np.maximum.accumulate(e)
    new = np.concatenate([[True], s[1:] > runmax[:-1]])
    heads = np.nonzero(new)[0]
    return s[heads], np.maximum.reduceat(e, heads)


def interval_coalesce_table(ds, start: str, end: str) -> pa.Table:
    """Disjoint union of an interval set: merge every group of
    overlapping-or-touching [start, end] intervals into one window.
    Returns the driver-side (w_start, w_end) table sorted by
    w_start — the broadcast side of
    :func:`interval_overlap_count`, so the result is REQUIRED to be
    dimension-sized (incident windows, maintenance calendars,
    blackout lists); that bound is inherent to any broadcast probe,
    not an implementation shortcut.

    Shape: ONE stateless ``map_batches`` pass pre-coalesces each
    block to its local islands (:func:`_coalesce_np` — never emits
    more rows than true local islands), then the driver merges the
    per-block island lists with the same kernel. No Ray sort, no
    shuffle; driver input is island-count-sized, not corpus-sized.
    NULL starts/ends drop.
    """

    def block_islands(batch: pa.Table) -> pa.Table:
        empty = pa.table({"w_start": pa.array([], pa.int64()),
                          "w_end": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        mask = pc.and_(pc.is_valid(batch[start]),
                       pc.is_valid(batch[end]))
        t = batch.filter(mask)
        if t.num_rows == 0:
            return empty
        s = pc.cast(t[start], pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        e = pc.cast(t[end], pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        ws, we = _coalesce_np(s, e)
        return pa.table({"w_start": pa.array(ws, pa.int64()),
                         "w_end": pa.array(we, pa.int64())})

    parts = []
    for b in ds.map_batches(block_islands, batch_format="pyarrow",
                            zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            parts.append(t)
    if not parts:
        return pa.table({"w_start": pa.array([], pa.int64()),
                         "w_end": pa.array([], pa.int64())})
    allt = pa.concat_tables(parts, promote_options="default")
    ws, we = _coalesce_np(
        allt["w_start"].to_numpy(zero_copy_only=False),
        allt["w_end"].to_numpy(zero_copy_only=False))
    return pa.table({"w_start": pa.array(ws, pa.int64()),
                     "w_end": pa.array(we, pa.int64())})


def interval_overlap_count(ds, windows: pa.Table, start: str,
                           end: str, n_out: str = "n_windows",
                           first_out: str = "first_window_start"):
    """Interval-interval overlap join against a broadcast DISJOINT
    window table (:func:`interval_coalesce_table`): every row of
    ``ds`` (an interval [start, end]) gains the count of windows it
    overlaps and the first overlapping window's start (NULL when
    none) — closed-interval semantics, ``w_start <= end AND w_end >=
    start``.

    Shape: windows ship ONCE via ``ray.put`` as two sorted int64
    arrays; each probe batch is two ``searchsorted`` calls — because
    disjoint sorted windows have co-sorted starts AND ends, the
    overlapping windows of any interval form the contiguous index
    range [first window ending >= start, last window starting <=
    end]. Stateless scan, no shuffle, never expands pairs."""
    import ray

    ws = windows["w_start"].to_numpy(zero_copy_only=False)
    we = windows["w_end"].to_numpy(zero_copy_only=False)
    if len(ws) and not (np.all(ws <= we)
                        and np.all(ws[1:] > we[:-1])):
        raise ValueError("interval_overlap_count: windows must be "
                         "disjoint and sorted (interval_coalesce_table"
                         " output)")
    handle = ray.put((ws, we))
    n_windows = len(ws)  # closure ships the COUNT, never the arrays

    def probe(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_n = pa.array(np.zeros(n, np.int64))
        out_f = pa.nulls(n, pa.int64())
        if n == 0 or n_windows == 0:
            return batch.append_column(n_out, out_n) \
                .append_column(first_out, out_f)
        w_s, w_e = ray.get(handle)
        sc = pc.cast(batch[start], pa.int64())
        ec = pc.cast(batch[end], pa.int64())
        ok = pc.and_(pc.is_valid(sc), pc.is_valid(ec)) \
            .to_numpy(zero_copy_only=False)
        s = pc.fill_null(sc, 0).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        e = pc.fill_null(ec, -1).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        lo = np.searchsorted(w_e, s, side="left")
        hi = np.searchsorted(w_s, e, side="right") - 1
        cnt = np.where(ok, np.maximum(hi - lo + 1, 0), 0)
        first = np.where(cnt > 0, w_s[np.minimum(lo, len(w_s) - 1)],
                         0)
        return batch.append_column(n_out, pa.array(cnt, pa.int64())) \
            .append_column(first_out, pa.array(
                first, pa.int64(), mask=(cnt == 0)))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)
