"""Keyed constraint checks: uniqueness and referential integrity.

Scale shape (SURVEY.md §2.4):

- uniqueness and key-run counts: :func:`.sorted_scan.stitch` on the
  key tuple — one null-safe sort co-locates equal keys, each sorted
  block counts its runs, and only the first/last run of each block
  merges on the driver. Keys are compared by
  :func:`.sorted_scan.key_segments`, so a NULL key is one group.
- first-in-group: the arg-min membership flag, on
  :func:`.sorted_scan.sorted_carry` with one carry row per block.
- referential integrity: the small side's key set is collected and
  broadcast via ``ray.put`` once; each task checks membership
  per batch against the shared set — no shuffle join for a
  dimension-sized right side.
- turn ordering: one sort (:func:`ordering_sort`, by group, turn and
  ts), per-batch :func:`ordering_batch_parts` and one driver fold of
  them (:func:`ordering_fold`). The validation job's key pass
  (:func:`key_checks`), :func:`turn_ordering_violations` and the
  fused ``validate.full_validation_pass`` all run on these three.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .sorted_scan import (_np, key_segments, null_safe_sort,
                          sorted_carry, stitch)

# the transcript layout: conversation, turn and timestamp columns
GROUP_KEY, ORDER_KEY, TS_KEY = "conv_id", "turn_idx", "ts"


def duplicate_keys(ds, keys: List[str]):
    """Dataset of (keys..., cnt) rows for key tuples appearing more
    than once — :func:`key_run_counts` with ``min_count=2``."""
    return key_run_counts(ds, keys, min_count=2)


def key_run_counts(ds, keys: List[str], min_count: int = 1):
    """Dataset of (keys..., cnt) rows — one row per DISTINCT key
    tuple with ``cnt >= min_count`` occurrences: the sort-based
    count-per-key that replaces a hash groupby when keys are
    (near-)unique, so per-block pre-aggregation cannot shrink the
    exchange and the groupby's aggregation machinery is pure
    overhead (the duplicate_lineitem_keys rewrite measured 7.5s ->
    2.8s on exactly this shape).

    Shape: :func:`.sorted_scan.stitch` on the key tuple — one run
    count per key segment of each sorted block; interior runs are
    final and those below ``min_count`` drop at the scan, and the
    first/last run of each block merge per key on the driver (their
    counts add) and are emitted once. NULL keys form one group, as
    in SQL ``GROUP BY``."""
    min_count = int(min_count)

    def pieces(batch: pa.Table, seg_ids, starts):
        cnt = np.diff(np.append(starts, batch.num_rows))
        edge = np.zeros(len(starts), bool)
        edge[[0, -1]] = True
        keep = edge | (cnt >= min_count)
        return starts[keep], {"cnt": pa.array(cnt[keep], pa.int64())}, \
            edge[keep]

    def merge(carries: pa.Table):
        total = int(pc.sum(carries["cnt"]).as_py())
        return [(0, {"cnt": total})] if total >= min_count else []

    return stitch(ds.select_columns(keys), keys, [], "key_run_counts",
                  pieces, merge, list(keys) + ["cnt"])


def uniqueness_violations(ds, keys: List[str]):
    """Violation rows for duplicated key tuples, in the engine's
    generic violation shape."""
    dups = duplicate_keys(ds, keys)

    def to_violations(batch: pa.Table) -> pa.Table:
        import json as _json

        n = batch.num_rows
        key_json = [
            _json.dumps({k: batch[k][i].as_py() for k in keys}, default=str)
            for i in range(n)
        ]
        cnts = batch["cnt"].to_pylist()
        return pa.table({
            "key": pa.array(key_json, pa.string()),
            "error_type": pa.array(["duplicate_key"] * n, pa.string()),
            "message": pa.array(
                [f"Key {kj} appears {c} times; keys must be unique."
                 for kj, c in zip(key_json, cnts)], pa.string()),
        })

    return dups.map_batches(to_violations, batch_format="pyarrow")


def referential_violations(ds, fk: str, ref_ds, pk: str,
                           allow_null: bool = True):
    """Rows of ``ds`` whose ``fk`` has no match in ``ref_ds[pk]``.

    The reference side is assumed dimension-sized: its distinct key
    set is collected once and broadcast through the object store
    (``ray.put``), then each task probes it per batch — a broadcast
    semi-join, not a shuffle.
    """
    import ray

    # distinct reference keys collected ONCE as an Arrow array (never
    # a Python set) and shared through the object store — each task
    # probes it zero-copy with pc.is_in, no per-batch conversion
    chunks = []
    for batch in ref_ds.select_columns([pk]) \
            .iter_batches(batch_format="pyarrow"):
        col = batch[pk].drop_null()
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col):
            chunks.append(col)
    ref_keys = (pc.unique(pa.concat_arrays(chunks)) if chunks
                else pa.array([]))
    ref_handle = ray.put(ref_keys)

    def probe(batch: pa.Table) -> pa.Table:
        keys = ray.get(ref_handle)
        col = batch[fk]
        if len(keys) == 0:
            keys = pa.array([], type=col.type)
        mask = pc.is_in(col, value_set=keys)
        missing = pc.invert(pc.fill_null(mask, allow_null))
        if allow_null:
            missing = pc.and_(missing, pc.is_valid(col))
        return batch.filter(missing)

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def _check_sorted_run(gid, turns: np.ndarray, ts: Optional[np.ndarray],
                      rows: list, check_start: bool = True,
                      tok: Optional[np.ndarray] = None,
                      sok: Optional[np.ndarray] = None) -> None:
    """Exact per-conversation checks over turn-sorted arrays.
    ``check_start=False`` for a block-boundary SEGMENT of a
    conversation: whether it starts at 0 is only known globally.
    ``tok``/``sok`` mark non-null turns/ts (default: all): as in
    SQL, a row is compared with its predecessor only when both values
    are non-null, and a NULL first turn is no late start."""
    if len(turns) == 0:
        return
    tok = np.ones(len(turns), bool) if tok is None else tok
    if check_start and tok[0] and turns[0] != 0:
        rows.append((gid, "turn_gap",
                     f"turn_idx sequence starts at {int(turns[0])}, "
                     "expected 0."))
    pair = tok[1:] & tok[:-1]
    d = np.diff(turns)
    for v in np.unique(turns[:-1][pair & (d == 0)]):
        rows.append((gid, "duplicate_turn",
                     f"turn_idx {int(v)} appears more than once."))
    for i in np.nonzero(pair & (d > 1))[0]:
        rows.append((gid, "turn_gap",
                     f"turn_idx jumps from {int(turns[i])} to "
                     f"{int(turns[i + 1])}."))
    if ts is not None and len(ts) > 1:
        back = np.diff(ts) < 0
        if sok is not None:
            back &= sok[1:] & sok[:-1]
        if back.any():
            rows.append((gid, "ts_out_of_order",
                         "ts is not non-decreasing in turn order."))


def _int64_valid(col):
    """(int64 values with nulls as 0, non-null mask) of a column."""
    arr = pc.cast(col, pa.int64())
    return (pc.fill_null(arr, 0).to_numpy(zero_copy_only=False),
            pc.is_valid(arr).to_numpy(zero_copy_only=False))


def ordering_batch_parts(batch: pa.Table, group_key: str, order_key: str,
                         ts_key: Optional[str]):
    """Vectorized per-batch ordering checks over a group-sorted batch.

    Returns ``(rows, stitch_rows, partials)``:

    - ``rows``: final violations of conversations wholly inside the
      batch, as (gid, type, message) tuples.
    - ``stitch_rows``: segment-local violations of the edge
      segments, computed WITHOUT the start-at-0 check. A segment is
      an edge when its conversation may continue outside it: the
      batch's first and last segment, and the two segments at each
      chunk boundary. A batch that bundles several blocks
      concatenates them in arrival order and keeps each block's
      chunks, so blocks of different files interleave only at a
      chunk boundary.
    - ``partials``: one fixed-size mergeable tuple
      (gid, first_turn, last_turn, first_ts, last_ts) per edge
      segment — the only extra state the boundary merge needs, so
      driver memory is O(chunks), independent of how many turns a
      hot conversation has. The merge dedupes stitch rows against
      boundary-derived rows (``stitch_edge_partials``).

    Conversations are the runs of :func:`.sorted_scan.key_segments`
    (a NULL group key is one conversation); strings materialize only
    for violating or edge conversations. A NULL turn or ts takes no
    part in the comparisons that need it (``None`` in a partial), as
    SQL's comparison of a row with its ``lag`` is never a violation
    when either side is NULL.
    """
    n = batch.num_rows
    turns, tok = _int64_valid(batch[order_key])
    ts, sok = _int64_valid(batch[ts_key]) if ts_key is not None \
        else (None, None)
    newseg = key_segments(batch, [group_key])
    seg_ids = np.cumsum(newseg) - 1
    starts = np.nonzero(newseg)[0]
    ends = np.append(starts[1:], n)
    g = len(starts)
    conv = batch[group_key]

    def check(i, out, check_start=True):
        s, e = starts[i], ends[i]
        _check_sorted_run(conv[int(s)].as_py(), turns[s:e],
                          None if ts is None else ts[s:e], out,
                          check_start, tok[s:e],
                          None if ts is None else sok[s:e])

    # fast path: only visit interior conversations with an anomaly
    inside = ~newseg[1:]
    anom = inside & tok[1:] & tok[:-1] & (np.diff(turns) != 1)
    if ts is not None:
        anom |= inside & sok[1:] & sok[:-1] & (np.diff(ts) < 0)
    bad = set(seg_ids[1:][anom].tolist()) | \
        set(np.nonzero(tok[starts] & (turns[starts] != 0))[0].tolist())
    edges = {0, g - 1}
    if g > 2:
        cuts = np.cumsum([len(c) for c in conv.chunks])[:-1]
        cuts = cuts[(cuts > 0) & (cuts < n)]
        edges.update(seg_ids[cuts - 1].tolist())
        edges.update(seg_ids[cuts].tolist())
    rows: list = []
    for i in sorted(bad - edges):
        check(i, rows)

    stitch_rows: list = []
    partials: list = []
    for i in sorted(edges):
        s, e = starts[i], ends[i] - 1

        def at(v, ok, j):
            return int(v[j]) if ok[j] else None

        partials.append((
            conv[int(s)].as_py(), at(turns, tok, s), at(turns, tok, e),
            at(ts, sok, s) if ts is not None else 0,
            at(ts, sok, e) if ts is not None else 0))
        check(i, stitch_rows, check_start=False)
    return rows, stitch_rows, partials


def stitch_edge_partials(edge: dict, has_ts: bool, rows: list) -> None:
    """Driver-side merge of edge-conversation state collected from all
    batches: ``edge`` maps gid -> (stitch_row_set, [partials]) where
    each partial is (first_turn, last_turn, first_ts, last_ts) for one
    block segment, ``None`` for a NULL value. Segments are contiguous
    runs of the globally sorted stream, so merging only needs the
    boundary between adjacent segments: equal turns = duplicate, a
    jump > 1 = gap, a ts drop = out-of-order, each only between
    non-null values; the start-at-0 check runs on the globally first
    segment. Duplicate messages (a value duplicated both inside a
    segment and across a boundary, or ts regressions in several
    segments) collapse via the per-gid row set, matching the exact
    single-array semantics."""
    for gid, (row_set, partials) in edge.items():
        # NULLS LAST, as the sort orders them
        partials.sort(key=lambda p: [(x is None, x or 0) for x in p])
        merged = set(row_set)
        ft0 = partials[0][0]
        if ft0 is not None and ft0 != 0:
            merged.add((gid, "turn_gap",
                        f"turn_idx sequence starts at {ft0}, "
                        "expected 0."))
        for prev, nxt in zip(partials[:-1], partials[1:]):
            if nxt[0] is not None and prev[1] is not None:
                if nxt[0] == prev[1]:
                    merged.add((gid, "duplicate_turn",
                                f"turn_idx {nxt[0]} appears more than "
                                "once."))
                elif nxt[0] - prev[1] > 1:
                    merged.add((gid, "turn_gap",
                                f"turn_idx jumps from {prev[1]} to "
                                f"{nxt[0]}."))
            if has_ts and nxt[2] is not None and prev[3] is not None \
                    and nxt[2] < prev[3]:
                merged.add((gid, "ts_out_of_order",
                            "ts is not non-decreasing in turn "
                            "order."))
        rows.extend(sorted(merged, key=lambda r: (r[1], r[2])))


def ordering_sort(ds, group_key: str, order_key: str,
                  ts_key: Optional[str]):
    """``ds`` null-safe sorted by ``group_key``, then ``order_key`` and
    ``ts_key`` (None: no ts column): ts orders the rows of a repeated
    turn, as SQL's ``ORDER BY turn_idx, ts`` does, so a duplicated
    turn's rows cannot fake a ts regression. The one sort behind
    every ordering surface."""
    return null_safe_sort(ds, [group_key],
                          [order_key] + ([ts_key] if ts_key else []))


def ordering_fold(parts, has_ts: bool) -> list:
    """The driver fold of the :func:`ordering_batch_parts` results of
    every batch of a group-sorted stream, in any order: the final rows
    as they are, and the edge segments merged per group by
    :func:`stitch_edge_partials`. A group key is its own value, NULL
    included. Returns the violation rows ``(gid, type, message)``,
    sorted with NULL groups last."""
    rows: list = []
    edge: dict = {}
    for final, stitch_rows, partials in parts:
        rows.extend(final)
        for row in stitch_rows:
            edge.setdefault(row[0], (set(), []))[0].add(row)
        for gid, *p in partials:
            edge.setdefault(gid, (set(), []))[1].append(tuple(p))
    stitch_edge_partials(edge, has_ts, rows)
    rows.sort(key=lambda r: (r[0] is None, r[0], r[1], r[2]))
    return rows


def ordering_counts(rows) -> dict:
    """Ordering violation rows counted by type."""
    out = dict.fromkeys(("duplicate_turn", "turn_gap", "ts_out_of_order"),
                        0)
    for _, etype, _ in rows:
        out[etype] += 1
    return out


def turn_ordering_violations(ds, group_key: str = GROUP_KEY,
                             order_key: str = ORDER_KEY,
                             ts_key: Optional[str] = TS_KEY):
    """Per-conversation sequence checks: ``order_key`` must be a dense
    0..n-1 sequence (gaps, duplicates, late starts all violate) and
    ``ts`` must be non-decreasing in turn order. Returns a dataset of
    ``(group_key, error_type, message)`` rows, the group column typed
    as in ``ds``.

    Scale shape: the key pass of :func:`key_checks` — ONE
    :func:`ordering_sort`, per-batch :func:`ordering_batch_parts`
    (vectorized, no per-group Python in the hot path) and the driver's
    :func:`ordering_fold` over O(chunks) fixed-size edge partials,
    independent of conversation length, hot conversations included.
    """
    import ray

    rows, _ = _key_scan(ds, group_key, order_key, ts_key)
    return ray.data.from_arrow(pa.table({
        group_key: pa.array([r[0] for r in rows],
                            ds.schema().base_schema.field(group_key).type),
        "error_type": pa.array([r[1] for r in rows], pa.string()),
        "message": pa.array([r[2] for r in rows], pa.string()),
    }))


def _key_runs(batch: pa.Table, group_key: str, order_key: str):
    """Runs of equal ``(group, order)`` keys in a key-sorted batch,
    nulls equal to nulls as in SQL ``GROUP BY``
    (:func:`.sorted_scan.key_segments`). Returns the number of
    interior runs longer than one row (final: equal keys are
    contiguous in the sorted stream) and ``((group, order), rows)`` of
    the first and last run, which may continue in a neighbouring
    block."""
    starts = np.nonzero(key_segments(batch, [group_key, order_key]))[0]
    cnt = np.diff(np.append(starts, batch.num_rows))

    def key(i):
        s = int(starts[i])
        return (batch[group_key][s].as_py(), batch[order_key][s].as_py())

    edges = [(key(0), int(cnt[0]))]
    if len(starts) > 1:
        edges.append((key(len(starts) - 1), int(cnt[-1])))
    return int((cnt[1:-1] > 1).sum()), edges


def _key_scan(ds, group_key: str, order_key: str, ts_key: Optional[str]):
    """ONE :func:`ordering_sort` of the key columns, one scan whose
    blocks emit the ordering partials and the key-run counts with
    their block-edge runs, and one driver fold of those O(blocks)
    partials (:func:`ordering_fold`). Returns the ordering violation
    rows ``(gid, type, message)``, sorted, and the number of distinct
    ``(group, order)`` keys that occur more than once."""
    import pickle

    if not (ts_key and ts_key in ds.schema().names):
        ts_key = None
    cols = [group_key, order_key] + ([ts_key] if ts_key else [])
    srt = ordering_sort(ds.select_columns(cols), group_key, order_key,
                        ts_key)

    def scan(batch: pa.Table) -> pa.Table:
        return pa.table({"part": [pickle.dumps((
            ordering_batch_parts(batch, group_key, order_key, ts_key),
            _key_runs(batch, group_key, order_key)))]})

    orders: list = []
    edge_runs: dict = {}
    duplicates = 0
    for batch in srt.map_batches(scan, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for blob in batch["part"].to_pylist():
            order, (interior_dups, runs) = pickle.loads(blob)
            orders.append(order)
            duplicates += interior_dups
            for k, c in runs:
                edge_runs[k] = edge_runs.get(k, 0) + c
    duplicates += sum(1 for c in edge_runs.values() if c > 1)
    return ordering_fold(orders, ts_key is not None), duplicates


def key_checks(ds, group_key: str = GROUP_KEY,
               order_key: str = ORDER_KEY,
               ts_key: Optional[str] = TS_KEY) -> dict:
    """Duplicate ``(group, order)`` keys and the counts of
    :func:`turn_ordering_violations`, from ONE key-only sort and one
    scan (the validation job's key pass).

    Returns ``{"duplicate_keys": n, "ordering_violations":
    {type: n}}``; ``duplicate_keys`` counts the distinct key tuples
    that occur more than once, as ``GROUP BY ... HAVING count(*) > 1``
    does, NULL keys included."""
    rows, duplicates = _key_scan(ds, group_key, order_key, ts_key)
    return {"duplicate_keys": duplicates,
            "ordering_violations": ordering_counts(rows)}


_NULL_LABEL = "\x00__null_label__"


def _lagged_labels(ds, key, order: str, label: str, tiebreak: str):
    """``ds`` with ``__prev``, the ``label`` of the previous row of the
    same ``key`` in ``(order, tiebreak)`` order (``rank.lag_column``).
    The lag runs over a copy of ``label`` with NULL coalesced to
    ``_NULL_LABEL``, so a NULL ``__prev`` means only "first row of
    key", never "predecessor's label was NULL". ``tiebreak`` may be
    ``order`` itself (a turn index that is both the order and the
    unique tiebreaker): the shift scan selects the two as separate
    columns, so an alias ``__tb`` stands in for it."""
    from .rank import lag_column

    tb = "__tb" if tiebreak == order else tiebreak

    def prep(batch: pa.Table) -> pa.Table:
        if tb != tiebreak:
            batch = batch.append_column(tb, batch[order])
        return batch.append_column("__lab_nn", pc.fill_null(
            pc.cast(batch[label], pa.string()), _NULL_LABEL))

    return lag_column(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        key, order, value="__lab_nn", tiebreak=tb, out="__prev")


def transition_violations(ds, key, order: str, label: str,
                          allowed: dict, tiebreak: str,
                          start=None):
    """Protocol / state-machine validation over ordered per-key
    sequences — the transcript-shaped generalization of turn
    ordering: within each ``key``'s rows taken in ``(order,
    tiebreak)`` order, the transition ``prev_label -> label`` must be
    permitted. ``allowed`` maps a from-label to its permitted
    successor labels; a from-label ABSENT from ``allowed`` permits
    any successor (open-world: validate only the states you care
    about). ``start``, if given, is the set of labels a key's FIRST
    row may carry (None = any). A NULL label is open-world as a
    FROM-state (its successor is never restricted) and fails as a
    TO-state whenever its predecessor's successors are restricted or
    (for first rows) ``start`` is set. First-of-key detection is
    exact even when labels themselves are NULL: the lagged column is
    sentinel-coalesced, so a NULL lag uniquely means "no
    predecessor".

    Returns the violating rows as a Dataset of
    (key..., order, prev_label, label) — violation-sized, never
    corpus-sized.

    Scale shape: rides :func:`rank.lag_column` — ONE null-safe sort
    with O(n_blocks) fixed-size carries (a hot key never ships its
    timeline anywhere) — then a stateless vectorized filter: one
    ``pc.equal`` + ``pc.is_in`` pair per restricted from-label (the
    protocol alphabet is small and fixed), no per-row Python, no
    driver state."""
    keys = [key] if isinstance(key, str) else list(key)
    lagged = _lagged_labels(ds, key, order, label, tiebreak)

    allowed_sets = {f: pa.array(sorted(set(s)), pa.string())
                    for f, s in allowed.items()}
    start_set = (pa.array(sorted(set(start)), pa.string())
                 if start is not None else None)

    def check(batch: pa.Table) -> pa.Table:
        prev = batch["__prev"]
        # mirror the coalesce step's cast: the allowed/start sets are
        # string arrays, so a dictionary- or int-typed label column
        # must compare as strings too (pc.is_in on a non-string cur
        # would error or silently never match)
        cur = pc.cast(batch[label], pa.string())
        n = batch.num_rows
        bad = pa.array(np.zeros(n, bool))
        for f, succ in allowed_sets.items():
            is_f = pc.fill_null(pc.equal(prev, f), False)
            ok = pc.fill_null(pc.is_in(cur, value_set=succ), False)
            bad = pc.or_(bad, pc.and_(is_f, pc.invert(ok)))
        if start_set is not None:
            first = pc.is_null(prev)
            ok0 = pc.fill_null(pc.is_in(cur, value_set=start_set),
                               False)
            bad = pc.or_(bad, pc.and_(first, pc.invert(ok0)))
        out = batch.filter(bad)
        prev_out = pc.if_else(
            pc.fill_null(pc.equal(out["__prev"], _NULL_LABEL), False),
            pa.scalar(None, pa.string()), out["__prev"])
        return out.select(keys + [order]) \
            .append_column("prev_label", prev_out) \
            .append_column(label, out[label])

    return lagged.map_batches(check, batch_format="pyarrow",
                              zero_copy_batch=True)


def reconcile_aggregate(parent_ds, child_ds, parent_key: str,
                        child_key: str, parent_col: str,
                        child_col: str, scale: int = 100,
                        tol: int = 0):
    """Cross-table aggregate reconciliation — the numeric sibling of
    referential integrity: every ``parent_key`` row's ``parent_col``
    must equal the SUM of its child rows' ``child_col`` (both
    quantized to ``floor(v * scale + 0.5)`` int64 fixed-point, the
    repo's fixed-point-before-sum discipline) within ``tol``
    fixed-point units. Emits ONLY violations: ``mismatch`` (both
    sides present, |expected - actual| > tol), ``no_children``
    (parent without child rows) and ``orphan_children`` (child rows
    without a parent — the classic FK hole, here with the amount
    attached). Rows with a NULL key or NULL value drop on both
    sides (mirrored in the SQL oracle). A parent key appearing twice
    raises — reconciliation over duplicate parents is ill-defined.

    Scale shape: NO join. Child rows pre-combine per block
    (``pa.TableGroupBy`` sum — a hot parent key contributes at most
    one partial row per child block), parent rows tag side 0 /
    child partials side 1, and the union runs through ONE
    range-partitioned sort on (key, side); each key's rows are then
    adjacent with the parent row FIRST, so interior segments
    classify vectorized in-block (prefix-sum ``reduceat`` over the
    side mask and value column) and only each block's first/last
    segment — O(blocks) partial rows, never corpus-sized — re-unites
    through a ``repartition(1)`` stitch, the snapshot_diff / dedup
    edge discipline. Envelope: per-key sum(|q|) < 2^63.

    Returns a Dataset of (parent_key, expected, actual, status)."""
    import ray  # noqa: F401  (parity with sibling operators)

    def _quant(col: pa.ChunkedArray) -> pa.ChunkedArray:
        return pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(col, pa.float64()), float(scale)), 0.5)),
            pa.int64())

    def prep_parent(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch[parent_key]),
                    pc.is_valid(batch[parent_col]))
        t = batch.select([parent_key, parent_col]).filter(m)
        return pa.table({
            "__k": t[parent_key], "__v": _quant(t[parent_col]),
            "__side": pa.array(np.zeros(t.num_rows, np.int8))})

    def prep_child(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch[child_key]),
                    pc.is_valid(batch[child_col]))
        t = batch.select([child_key, child_col]).filter(m)
        base = pa.table({"__k": t[child_key],
                         "__v": _quant(t[child_col])})
        g = pa.TableGroupBy(base, "__k").aggregate([("__v", "sum")])
        return pa.table({
            "__k": g["__k"], "__v": g["__v_sum"].cast(pa.int64()),
            "__side": pa.array(np.ones(g.num_rows, np.int8))})

    both = parent_ds.map_batches(prep_parent, batch_format="pyarrow",
                                 zero_copy_batch=True) \
        .union(child_ds.map_batches(prep_child, batch_format="pyarrow",
                                    zero_copy_batch=True)) \
        .sort(["__k", "__side"])

    def _newseg(batch: pa.Table) -> np.ndarray:
        n = batch.num_rows
        newseg = np.zeros(n, bool)
        newseg[0] = True
        col = batch["__k"].combine_chunks()
        # keys are non-null by prep; Arrow compare keeps int64 exact
        newseg[1:] |= pc.not_equal(col.slice(1), col.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
        return newseg

    def classify(batch: pa.Table, interior_only: bool) -> pa.Table:
        empty = pa.schema(
            [("__k", batch.schema.field("__k").type),
             ("expected", pa.int64()), ("actual", pa.int64()),
             ("status", pa.string())]).empty_table()
        n = batch.num_rows
        if n == 0:
            return empty
        newseg = _newseg(batch)
        starts = np.nonzero(newseg)[0]
        ends = np.concatenate([starts[1:], [n]])
        g = len(starts)
        if interior_only and g <= 2:
            return empty
        lo = 1 if interior_only else 0
        hi = g - 1 if interior_only else g
        s_in, e_in = starts[lo:hi], ends[lo:hi]
        side = batch["__side"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        v = batch["__v"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        pre_par = np.concatenate([[0], np.cumsum(side == 0)])
        n_par = pre_par[e_in] - pre_par[s_in]
        if (n_par > 1).any():
            raise ValueError(
                "reconcile_aggregate: duplicate parent key — a"
                f" {parent_key!r} value appears more than once")
        pre_cnt = np.concatenate([[0], np.cumsum(side == 1)])
        n_child = pre_cnt[e_in] - pre_cnt[s_in]
        pre_sum = np.concatenate(
            [[0], np.cumsum(np.where(side == 1, v, 0))])
        csum = pre_sum[e_in] - pre_sum[s_in]
        has_par = n_par == 1
        has_child = n_child > 0
        # parent sorts first within its segment (side 0 < 1)
        expected = np.where(has_par, v[s_in], 0)
        bad = np.where(
            ~has_par, 1, np.where(~has_child, 2, np.where(
                np.abs(expected - csum) > tol, 3, 0)))
        keep = bad > 0
        labels = np.array(["", "orphan_children", "no_children",
                           "mismatch"])
        return pa.table({
            "__k": batch["__k"].take(pa.array(s_in[keep], pa.int64())),
            "expected": pa.array(expected[keep],
                                 mask=~has_par[keep]),
            "actual": pa.array(csum[keep], mask=~has_child[keep]),
            "status": pa.array(labels[bad[keep]].tolist(),
                               pa.string())})

    def interior(batch: pa.Table) -> pa.Table:
        return classify(batch, interior_only=True)

    def edge_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        starts = np.nonzero(_newseg(batch))[0]
        if len(starts) <= 2:
            return batch
        eidx = np.concatenate([np.arange(0, starts[1]),
                               np.arange(starts[-1], n)])
        return batch.take(pa.array(eidx, pa.int64()))

    def stitch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return classify(batch, interior_only=False)
        srt = batch.sort_by([("__k", "ascending"),
                             ("__side", "ascending")])
        return classify(srt, interior_only=False)

    scanned = both.materialize()
    verdicts = scanned.map_batches(interior, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .union(scanned.map_batches(edge_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
               .repartition(1)
               .map_batches(stitch, batch_format="pyarrow",
                            batch_size=None))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [parent_key, "expected", "actual", "status"])

    return verdicts.map_batches(rename, batch_format="pyarrow",
                                zero_copy_batch=True)


def functional_dependency_violations(ds, determinant: str,
                                     dependent: str):
    """Functional-dependency check — the column-level consistency
    sibling of uniqueness: the FD ``determinant -> dependent`` holds
    when every determinant value maps to exactly ONE distinct
    non-null dependent value; emit the determinant values that map
    to more than one, with the distinct count. NULL dependent values
    don't count (SQL ``count(DISTINCT ...)``); NULL determinants
    form their own group.

    Scale shape: rides
    :func:`relational.grouped_distinct_count_sorted` — ONE null-safe
    range-partitioned sort with O(blocks) fixed-size carries (a hot
    determinant never ships its rows anywhere twice) — then a
    stateless filter. Returns (determinant, n_distinct),
    violation-sized."""
    from .relational import grouped_distinct_count_sorted

    counts = grouped_distinct_count_sorted(ds, determinant, dependent)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n_distinct"], 1))

    return counts.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def accept_state_violations(ds, key, order: str, label: str,
                            accept, tiebreak: str):
    """Terminal-state check completing the protocol family
    (:func:`transition_violations` covers transitions and ``start``;
    this covers the END): each key's LAST ``label`` row — by
    ``(order, tiebreak)``, SQL ascending NULLS LAST, i.e. SQL
    ``row_number() OVER (... ORDER BY order DESC, tiebreak DESC) = 1``
    on non-null orders — must carry a label in ``accept``; keys whose
    conversation never reaches an accepted terminal state surface
    with that last label. A NULL last label always violates.

    Scale shape: NO sort. The (order, tiebreak) pair encodes into a
    fixed-width order-preserving hex prefix with the label riding as
    payload (the :func:`relational.grouped_first_last` trick), so
    arg-max is a plain combinable aggregate: one encoded MAX per key
    per block (``pa.TableGroupBy``), ONE hash-aggregate MAX merge,
    then a stateless decode + set filter. Hot keys reduce inside
    every block. ``order`` / ``tiebreak`` must be integer or
    timestamp columns.

    Returns a Dataset of (key, last_label), violation-sized."""
    from ray.data.aggregate import Max

    from .relational import null_safe_grouped_aggregate

    def _sortable_u64(arr: pa.ChunkedArray) -> tuple:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if not (pa.types.is_integer(arr.type)
                or pa.types.is_timestamp(arr.type)):
            raise TypeError(
                "accept_state_violations: order/tiebreak must be"
                f" integer or timestamp, got {arr.type}")
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        v = pc.fill_null(pc.cast(arr, pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return v.view(np.uint64) ^ np.uint64(1 << 63), valid

    def partial(batch: pa.Table) -> pa.Table:
        import binascii

        t = batch.select([key, order, tiebreak, label])
        n = t.num_rows
        if n == 0:
            return pa.table({key: pa.array([], t[key].type),
                             "__enc": pa.array([], pa.string())})
        o_u, o_valid = _sortable_u64(t[order])
        t_u, t_valid = _sortable_u64(t[tiebreak])
        buf = np.empty((n, 18), np.uint8)
        buf[:, 0] = (~o_valid).view(np.uint8)  # NULLS LAST
        buf[:, 1:9] = o_u.astype(">u8").view(np.uint8).reshape(n, 8)
        buf[:, 9] = (~t_valid).view(np.uint8)  # NULLS LAST
        buf[:, 10:18] = t_u.astype(">u8").view(np.uint8).reshape(n, 8)
        hexed = np.frombuffer(binascii.hexlify(buf.tobytes()),
                              dtype="S36")
        prefix = pa.array(hexed.astype("U36"))
        lab = pc.cast(t[label].combine_chunks()
                      if isinstance(t[label], pa.ChunkedArray)
                      else t[label], pa.string())
        payload = pc.if_else(
            pc.is_null(lab), pa.scalar("n"),
            pc.binary_join_element_wise("v", lab, ""))
        enc = pc.binary_join_element_wise(prefix, payload, "")
        base = pa.table({key: t[key], "__enc": enc})
        g = pa.TableGroupBy(base, key).aggregate([("__enc", "max")])
        return g.rename_columns([key, "__enc"])

    agg = null_safe_grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], [Max("__enc", alias_name="__enc")], ["__enc"])

    accept_arr = pa.array(sorted(set(accept)), pa.string())

    def finish(batch: pa.Table) -> pa.Table:
        payload = pc.utf8_slice_codeunits(batch["__enc"], 36)
        lab = pc.if_else(pc.equal(payload, "n"),
                         pa.scalar(None, pa.string()),
                         pc.utf8_slice_codeunits(payload, 1))
        ok = pc.fill_null(pc.is_in(lab, value_set=accept_arr), False)
        out = pa.table({key: batch[key], "last_label": lab})
        return out.filter(pc.invert(ok))

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def transition_counts(ds, key, order: str, label: str,
                      tiebreak: str, per_key: bool = False):
    """Empirical Markov transition matrix over ordered per-key
    sequences — the mining twin of :func:`transition_violations`:
    instead of checking ``prev_label -> label`` against a declared
    protocol, COUNT every observed transition so the protocol (or a
    drifted one) can be read off the data. First rows of a key count
    under ``prev_label = NULL``, and — exactly like SQL ``lag()``
    over a nullable label — a predecessor whose label was NULL also
    lands in ``prev_label = NULL``: the two collapse into ONE group.
    A NULL label on the CURRENT side is its own category (SQL GROUP
    BY keeps a NULL group).

    Returns a Dataset of (prev_label, label, n) — alphabet²-sized.
    With ``per_key=True`` the count keeps the sequence key: rows are
    (key, prev_label, label, n) — key-dimension x alphabet²-sized —
    the per-entity kernel a divergence screen compares against the
    corpus kernel.

    Scale shape: rides :func:`rank.lag_column` (ONE null-safe sort,
    O(n_blocks) fixed-size carries; a hot key never ships its
    timeline anywhere), then per-block pair-count combiners feed a
    groupby whose input is alphabet² x n_blocks tiny rows — the
    count exchange never sees row-sized data."""
    from ray.data.aggregate import Sum

    from .relational import null_safe_grouped_aggregate

    lagged = _lagged_labels(ds, key, order, label, tiebreak)

    group_cols = ([key] if per_key else []) + ["__p", "__c"]

    def pair_counts(batch: pa.Table) -> pa.Table:
        # SQL lag() can't distinguish "no predecessor" from
        # "predecessor's label was NULL" — both are NULL — so both
        # map onto the SAME sentinel before counting (the coalesced
        # lag already carries the sentinel for NULL labels; a NULL
        # lag means first-of-key and joins it)
        cur = pc.fill_null(pc.cast(batch[label], pa.string()),
                           _NULL_LABEL)
        prev = pc.fill_null(batch["__prev"], _NULL_LABEL)
        cols = {"__p": prev, "__c": cur}
        if per_key:
            cols = {key: batch[key], **cols}
        t = pa.table(cols)
        g = pa.TableGroupBy(t, group_cols).aggregate(
            [([], "count_all")])
        out = {c: g[c] for c in group_cols}
        out["__n"] = g["count_all"].cast(pa.int64())
        return pa.table(out)

    agg = null_safe_grouped_aggregate(
        lagged.map_batches(pair_counts, batch_format="pyarrow",
                           zero_copy_batch=True),
        group_cols, [Sum("__n", alias_name="__n")], ["__n"])

    def finish(batch: pa.Table) -> pa.Table:
        def dec(col):
            return pc.if_else(pc.equal(col, _NULL_LABEL),
                              pa.scalar(None, pa.string()), col)

        cols = {}
        if per_key:
            cols[key] = batch[key]
        cols["prev_label"] = dec(batch["__p"])
        cols["label"] = dec(batch["__c"])
        cols["n"] = batch["__n"]
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def first_in_group(ds, keys: List[str], order: str,
                   out: str = "is_first"):
    """Flag each row that is its key group's MINIMUM-``order`` row —
    the distributed arg-min membership test behind first-occurrence /
    novelty scoring. The right shape for NEAR-UNIQUE keys (corpus
    shingles, content hashes), where a hash aggregate's machinery is
    pure overhead: :func:`.sorted_scan.sorted_carry` on (keys...,
    order) flags in-block key-segment heads, and only each block's
    FIRST row is pending — it heads a run that may continue an
    earlier block's, and every such predecessor run, by sorted
    contiguity, ends at some earlier block's LAST row, so each block
    carries its last row and a pending row is first iff no carry of
    its key lies before it. NULL keys form one group. ``order`` must
    be unique per key tuple and numeric/temporal."""
    def scan(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        pend = np.zeros(n, bool)
        pend[0] = True
        first = np.zeros(n, bool)
        first[starts] = True
        return None, {out: pa.array(first)}, pend, [n - 1], {}

    def resolve(kept: pa.Table, groups) -> pa.Table:
        flags = _np(kept[out]).copy()
        for rows, pos, _ in groups:
            flags[rows[pos > 0]] = False
        return kept.set_column(kept.column_names.index(out), out,
                               pa.array(flags))

    return sorted_carry(ds, keys, [order], "first_in_group", scan,
                        lambda t: None, resolve)
