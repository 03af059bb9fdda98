"""Relational building blocks tuned for the 100TB shape.

- ``pre_aggregate``: the combiner pattern — reduce each block with
  ``pyarrow.TableGroupBy`` BEFORE the hash shuffle so the exchange
  moves one partial row per (block, group) instead of every row.
- ``broadcast_hash_join``: dimension-sized right side collected once,
  shipped through the object store via ``ray.put``, probed per batch
  — no shuffle of the big side.
- ``top_k``: per-block partial top-k inside ``map_batches`` (k rows
  per block survive), then a driver-side merge of the partials.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .sorted_scan import (_is_string_type, _zero_scalar,
                          decode_null_safe_keys, encode_null_safe_keys,
                          null_safe_sort)


def safe_groupby_aggregate(t: pa.Table, keys, spec):
    """Drop-in for ``pa.TableGroupBy(t, keys).aggregate(spec)``
    guarded against a pyarrow 16.x MULTI-KEY grouper defect: with a
    plain ``string``-typed key column CONTAINING NULLS alongside a
    fixed-width key, the grouper emits DUPLICATE groups for the null
    string's cells once the table is large enough (~40+ groups;
    minimal repro in test_engine_ops.py
    ``test_arrow_null_string_multikey_guard`` — 31 groups where 25
    exist; large_string, str+str and int-first shapes are
    unaffected). Any nullable string/large_string key in a multi-key
    grouping is routed through the invertible ``"n"`` / ``"v"+value``
    prefix encoding (the same trick the Ray exchange uses in
    :func:`encode_null_safe_keys`) so no nullable string ever reaches
    the grouper, then decoded back — output schema identical to the
    raw call. Single-key and null-free inputs take the raw path."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    risky = [k for k in keys
             if (pa.types.is_string(t[k].type)
                 or pa.types.is_large_string(t[k].type))
             and t[k].null_count > 0] if len(keys) > 1 else []
    if not risky:
        return pa.TableGroupBy(t, keys).aggregate(spec)
    enc = t
    for k in risky:
        col = enc[k]
        joined = pc.binary_join_element_wise(
            "v", pc.cast(col, pa.string()), "")
        d = pc.if_else(pc.is_null(col), pa.scalar("n"), joined)
        enc = enc.set_column(enc.column_names.index(k), k, d)
    g = pa.TableGroupBy(enc, keys).aggregate(spec)
    for k in risky:
        d = g[k]
        dec = pc.if_else(pc.equal(d, "n"),
                         pa.scalar(None, pa.string()),
                         pc.utf8_slice_codeunits(d, 1))
        g = g.set_column(g.column_names.index(k), k,
                         pc.cast(dec, t[k].type))
    return g


def pre_aggregate(ds, keys: List[str],
                  aggs: Sequence[Tuple[str, str]]):
    """groupby(keys) with per-block partial aggregation.

    ``aggs`` is a list of (column, fn) with fn in
    {sum, min, max, count}. Returns a Dataset of partially-reduced
    rows; follow with ``.groupby(keys)`` + the matching re-aggregation
    via :func:`final_aggregate`.
    """

    def partial(batch: pa.Table) -> pa.Table:
        needed = list(dict.fromkeys(
            keys + [c for c, _ in aggs if c and c in batch.column_names]))
        spec = [(([], "count_all") if fn == "count" else (col, fn))
                for col, fn in aggs]
        t = safe_groupby_aggregate(batch.select(needed), keys, spec)
        # normalize output: keys first, then one column per agg with a
        # stable "<col>_<fn>" name
        arrays = [t[k] for k in keys]
        names = list(keys)
        for col, fn in aggs:
            src = "count_all" if fn == "count" else f"{col}_{fn}"
            arrays.append(t[src])
            names.append(f"{col or 'rows'}_{fn}")
        return pa.Table.from_arrays(arrays, names=names)

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)


def grouped_aggregate(ds, keys: List[str],
                      aggs: Sequence[Tuple[str, str]],
                      driver_merge: bool = False,
                      as_dataset: bool = False):
    """Full pre-agg -> shuffle -> re-agg pipeline.

    CARDINALITY CONTRACT: the default return is a driver-side
    ``pa.Table``, so it is only correct when the GROUP COUNT is
    driver-sized — dimension-grained keys (event types, languages,
    users at report grain, calendar buckets), where "group-sized,
    small by construction" genuinely holds. A FACT-DERIVED key — any
    pair/cross grain like (part, supplier), (user, url), (doc,
    shingle) — grows with the corpus and MUST pass
    ``as_dataset=True``, which returns the re-aggregated ``Dataset``
    (one exact row per group, still distributed) for further
    distributed stages; only a final result-sized table may then
    land on the driver. ``as_dataset`` is incompatible with
    ``driver_merge``.

    ``driver_merge=True`` is the LOW-CARDINALITY fast path: the
    per-block partials (groups x blocks rows) stream to the driver
    and merge in ONE Arrow groupby, skipping the Ray Aggregate
    all-to-all whose fixed cost dominates when groups number in the
    dozens (status codes, languages, calendar buckets). Only opt in
    when groups x blocks is driver-safe — at 10^6 groups x 10^5
    blocks the default shuffle path is the correct one. Results are
    dtype-identical to the shuffle path (int64 sums/counts,
    type-preserving min/max, NULL keys form their own group)."""
    if as_dataset and driver_merge:
        raise ValueError(
            "grouped_aggregate: as_dataset and driver_merge are"
            " mutually exclusive")
    partial = pre_aggregate(ds, keys, aggs)
    if driver_merge:
        tables = [pa.Table.from_batches([b])
                  if isinstance(b, pa.RecordBatch) else b
                  for b in partial.iter_batches(batch_format="pyarrow")]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return None
        merged = pa.concat_tables(tables, promote_options="default")
        arrow_aggs = []
        renames = {}
        for col, fn in aggs:
            src = f"{col or 'rows'}_{fn}"
            afn = "sum" if fn in ("sum", "count") else fn
            arrow_aggs.append((src, afn))
            renames[f"{src}_{afn}"] = src
        g = safe_groupby_aggregate(merged, keys, arrow_aggs)
        g = g.rename_columns([renames.get(c, c)
                              for c in g.column_names])
        # match the shuffle path's column order (keys, then aggs in
        # declaration order) — callers rename positionally
        return g.select(list(keys) + [f"{c or 'rows'}_{f}"
                                      for c, f in aggs])
    # re-aggregate: sum of partial sums/counts, min of mins, max of maxs
    from ray.data.aggregate import Max, Min, Sum

    agg_objs = []
    out_cols = []
    for col, fn in aggs:
        src = f"{col or 'rows'}_{fn}"
        out_cols.append(src)
        if fn in ("sum", "count"):
            agg_objs.append(Sum(src, alias_name=src))
        elif fn == "min":
            agg_objs.append(Min(src, alias_name=src))
        elif fn == "max":
            agg_objs.append(Max(src, alias_name=src))
    result = null_safe_grouped_aggregate(partial, keys, agg_objs, out_cols)
    if as_dataset:
        return result
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
              for b in result.iter_batches(batch_format="pyarrow")]
    if not tables:
        return None
    return pa.concat_tables(tables)


def rollup_aggregate(ds, keys: List[str], value: Optional[str],
                     agg: str = "sum", out: str = "agg_value"):
    """SQL ``GROUP BY ROLLUP (keys)``: one row per group at every
    prefix level of ``keys`` — (k1..kn), (k1..kn-1), ..., () — with
    rolled-up key columns NULL and ``lvl`` = number of rolled keys
    (0 = finest; SQL ``GROUPING_ID`` equivalent, which also
    disambiguates a rolled NULL from a genuine NULL key value).
    ``agg`` is ``sum`` / ``count`` / ``min`` / ``max`` — the
    re-aggregable partials.

    Scale shape: the INPUT is shuffled exactly once (the finest
    grouped aggregate, with per-block pre-aggregation); every
    coarser level re-aggregates the previous level's already
    group-sized result grouping by the KEPT keys only (Ray's
    aggregate partition search cannot order an all-null numeric
    column), with the rolled keys re-appended as typed null columns
    — types read from the materialized finest level, which costs no
    re-execution. Levels shrink monotonically, so the extra
    shuffles move group rows, never input rows. Float caveat:
    rolled-up sums are sums of per-group sums — feed
    integer(-scaled) values for bit-exact parity with a
    row-at-a-time SQL engine.
    """
    if agg not in ("sum", "count", "min", "max"):
        raise ValueError(f"rollup_aggregate: unsupported agg {agg!r}")
    import ray
    from ray.data.aggregate import Max, Min, Sum

    def level_tag(level_ds, lvl: int):
        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "lvl", pa.array(np.full(batch.num_rows, lvl, np.int64)))
        return level_ds.map_batches(tag, batch_format="pyarrow",
                                    zero_copy_batch=True)

    # finest level: the only pass over the input
    partial = pre_aggregate(ds, keys, [(value, agg)])
    src = f"{value or 'rows'}_{agg}"
    first_obj = (Sum(src, alias_name=out) if agg in ("sum", "count")
                 else Min(src, alias_name=out) if agg == "min"
                 else Max(src, alias_name=out))
    finest = null_safe_grouped_aggregate(partial, keys, [first_obj],
                                         [out]).materialize()
    sch = finest.schema().base_schema  # materialized: no re-execution
    key_types = {k: sch.field(k).type for k in keys}
    out_type = sch.field(out).type
    re_obj = (Sum(out, alias_name=out) if agg in ("sum", "count")
              else Min(out, alias_name=out) if agg == "min"
              else Max(out, alias_name=out))
    order = keys + [out]
    levels = [level_tag(finest, 0)]
    prev = finest
    for lvl in range(1, len(keys) + 1):
        kept = keys[:len(keys) - lvl]
        rolled = tuple(keys[len(keys) - lvl:])
        if kept:
            agg_ds = null_safe_grouped_aggregate(
                prev.map_batches(
                    lambda b, c=tuple(kept) + (out,): b.select(list(c)),
                    batch_format="pyarrow", zero_copy_batch=True),
                kept, [re_obj], [out])

            def add_nulls(batch: pa.Table, cols=rolled) -> pa.Table:
                for c in cols:
                    batch = batch.append_column(
                        c, pa.nulls(batch.num_rows, key_types[c]))
                return batch.select(order)

            prev = agg_ds.map_batches(
                add_nulls, batch_format="pyarrow",
                zero_copy_batch=True).materialize()
        else:
            # grand total: a global aggregate, one driver-side row
            total = prev.aggregate(re_obj)
            val = None if total is None else total.get(out)
            row = {k: pa.nulls(1, key_types[k]) for k in keys}
            row[out] = pa.array([val], out_type)
            prev = ray.data.from_arrow(pa.table(row).select(order)) \
                .materialize()
        levels.append(level_tag(prev, lvl))
    result = levels[0]
    for lv in levels[1:]:
        result = result.union(lv)
    return result


def grouping_sets_aggregate(ds, keys: List[str], sets,
                            value: Optional[str], agg: str = "sum",
                            out: str = "agg_value"):
    """SQL ``GROUP BY GROUPING SETS (...)``: one result row per group
    of each requested subset of ``keys``, rolled keys NULL and
    ``gid`` = the SQL ``GROUPING_ID(keys...)`` bitmask (keys[0] is
    the most significant bit; set bit = key rolled — disambiguates a
    rolled NULL from a genuine NULL key value).

    Scale shape (same discipline as :func:`rollup_aggregate`): the
    INPUT is shuffled exactly once into the finest (all-keys)
    grouped aggregate; every requested set re-aggregates that
    already group-sized result by its kept keys only, so the extra
    shuffles move group rows, never input rows. Sets re-aggregate
    INDEPENDENTLY from the finest level (they need not be nested,
    unlike ROLLUP's prefix chain). ``agg`` is sum/count/min/max (the
    re-aggregable partials); the float-sum caveat from ROLLUP
    applies."""
    if agg not in ("sum", "count", "min", "max"):
        raise ValueError(f"grouping_sets: unsupported agg {agg!r}")
    import ray
    from ray.data.aggregate import Max, Min, Sum

    sets = [tuple(s) for s in sets]
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of "
                             f"{keys!r}")

    partial = pre_aggregate(ds, keys, [(value, agg)])
    src = f"{value or 'rows'}_{agg}"
    first_obj = (Sum(src, alias_name=out) if agg in ("sum", "count")
                 else Min(src, alias_name=out) if agg == "min"
                 else Max(src, alias_name=out))
    finest = null_safe_grouped_aggregate(partial, keys, [first_obj],
                                         [out]).materialize()
    sch = finest.schema().base_schema
    key_types = {k: sch.field(k).type for k in keys}
    out_type = sch.field(out).type
    re_obj = (Sum(out, alias_name=out) if agg in ("sum", "count")
              else Min(out, alias_name=out) if agg == "min"
              else Max(out, alias_name=out))
    order = keys + [out]

    def tagged(level_ds, gid: int):
        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "gid", pa.array(np.full(batch.num_rows, gid, np.int64)))
        return level_ds.map_batches(tag, batch_format="pyarrow",
                                    zero_copy_batch=True)

    result = None
    for s in sets:
        kept = [k for k in keys if k in s]
        rolled = tuple(k for k in keys if k not in s)
        gid = sum(1 << (len(keys) - 1 - i)
                  for i, k in enumerate(keys) if k not in s)
        if not rolled:
            level = finest
        elif kept:
            agg_ds = null_safe_grouped_aggregate(
                finest.map_batches(
                    lambda b, c=tuple(kept) + (out,): b.select(list(c)),
                    batch_format="pyarrow", zero_copy_batch=True),
                kept, [re_obj], [out])

            def add_nulls(batch: pa.Table, cols=rolled) -> pa.Table:
                for c in cols:
                    batch = batch.append_column(
                        c, pa.nulls(batch.num_rows, key_types[c]))
                return batch.select(order)

            level = agg_ds.map_batches(add_nulls,
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)
        else:
            total = finest.aggregate(re_obj)
            val = None if total is None else total.get(out)
            row = {k: pa.nulls(1, key_types[k]) for k in keys}
            row[out] = pa.array([val], out_type)
            level = ray.data.from_arrow(pa.table(row).select(order))
        level = tagged(level, gid)
        result = level if result is None else result.union(level)
    return result


def cube_aggregate(ds, keys: List[str], value: Optional[str],
                   agg: str = "sum", out: str = "agg_value"):
    """SQL ``GROUP BY CUBE (keys)`` — :func:`grouping_sets_aggregate`
    over all ``2^len(keys)`` subsets (keep ``len(keys)`` small; the
    input is still shuffled only once)."""
    n = len(keys)
    sets = [tuple(k for i, k in enumerate(keys) if m & (1 << i))
            for m in range(1 << n)]
    return grouping_sets_aggregate(ds, keys, sets, value, agg, out)


def broadcast_hash_join(ds, right_table: pa.Table, left_on: str,
                        right_on: str, how: str = "inner"):
    """Join a big Dataset against a small in-memory Arrow table by
    broadcasting the small side (ray.put once, probe per batch)."""
    import ray

    right_handle = ray.put(right_table)

    def probe(batch: pa.Table) -> pa.Table:
        right = ray.get(right_handle)
        return batch.join(right, keys=[left_on], right_keys=[right_on],
                          join_type=("inner" if how == "inner"
                                     else "left outer"))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def top_k(ds, columns: List[str], descending, k: int) -> pa.Table:
    """Global top-k via per-block partial top-k + driver merge."""
    if isinstance(descending, bool):
        descending = [descending] * len(columns)
    sort_keys = [(c, "descending" if d else "ascending")
                 for c, d in zip(columns, descending)]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        idx = pc.sort_indices(batch, sort_keys=sort_keys)[:k]
        return batch.take(idx)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
              for b in parts.iter_batches(batch_format="pyarrow")]
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        if tables:
            return tables[0]
        return pa.table({c: pa.array([]) for c in columns})
    merged = pa.concat_tables(nonempty, promote_options="default")
    idx = pc.sort_indices(merged, sort_keys=sort_keys)[:k]
    return merged.take(idx)


def _skyline_mask(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows NOT dominated under maximize-(p, d):
    row i is dominated iff some j has ``p[j] >= p[i] and d[j] >= d[i]``
    with at least one strict. Exact duplicates of a frontier point all
    survive (neither dominates the other). One lexsort + run scan,
    no Python loop."""
    if p.dtype.kind == "M":
        p = p.view("int64")
    if d.dtype.kind == "M":
        d = d.view("int64")
    n = len(p)
    if n == 0:
        return np.zeros(0, bool)
    # ascending lexsort reversed = descending by (p, then d) — avoids
    # negating (int64 min / float precision hazards)
    order = np.lexsort((d, p))[::-1]
    ps, dsrt = p[order], d[order]
    newrun = np.concatenate([[True], ps[1:] != ps[:-1]])
    run_ids = np.cumsum(newrun) - 1
    run_max_d = dsrt[newrun]  # d desc within a run: first = run max
    prior = np.maximum.accumulate(run_max_d)
    # exclusive prior-run max; first run has no prior, always beats it
    beats_prior = np.concatenate(
        [[True], run_max_d[1:] > prior[:-1]])
    keep_sorted = (dsrt == run_max_d[run_ids]) & beats_prior[run_ids]
    mask = np.zeros(n, bool)
    mask[order] = keep_sorted
    return mask


def pareto_frontier(ds, x: str, y: str):
    """2-D skyline: rows not dominated by any other row under
    maximize-(``x``, ``y``) (flip a column's sign upstream to
    minimize it). SQL twin: ``WHERE NOT EXISTS (SELECT 1 ... o2
    WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR
    o2.y > o1.y))``. Rows with a NULL in either dimension can
    neither dominate nor join the frontier and are dropped.

    Shape: each block computes its LOCAL frontier with one
    lexsort + run scan (:func:`_skyline_mask`); dominance is
    transitive, so the union of block frontiers is a superset of the
    global frontier, and one more :func:`_skyline_mask` pass over
    that union resolves it on the driver. Driver state = sum of
    block skyline sizes — O(log n) expected per block for
    independent dimensions, and in the adversarial fully
    anti-correlated case the skyline IS the output, a bound no exact
    skyline operator can beat. Returns a pyarrow Table."""
    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        batch = batch.filter(pc.and_(pc.is_valid(batch[x]),
                                     pc.is_valid(batch[y])))
        if batch.num_rows == 0:
            return batch
        p = batch[x].combine_chunks().to_numpy(zero_copy_only=False)
        d = batch[y].combine_chunks().to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(_skyline_mask(p, d)))

    parts = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True)
    tables = [pa.Table.from_batches([b])
              if isinstance(b, pa.RecordBatch) else b
              for b in parts.iter_batches(batch_format="pyarrow")]
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return tables[0] if tables else pa.table({})
    merged = pa.concat_tables(nonempty, promote_options="default")
    p = merged[x].combine_chunks().to_numpy(zero_copy_only=False)
    d = merged[y].combine_chunks().to_numpy(zero_copy_only=False)
    return merged.filter(pa.array(_skyline_mask(p, d)))


def salted_aggregate(ds, keys: List[str],
                     aggs: Sequence[Tuple[str, str]],
                     n_salts: int = 16) -> "pa.Table":
    """Skew-resistant grouped aggregation: rows get a deterministic
    salt derived from their block position, the first shuffle groups
    on (keys..., salt) so one hot key spreads over ``n_salts``
    reducers, and a second (tiny) aggregation folds the salts away.
    Correct for the same decomposable aggregates as
    :func:`grouped_aggregate`; use when a handful of keys dominate
    the corpus (hot conversations, dominant event types)."""
    import pyarrow as _pa

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = np.arange(batch.num_rows, dtype=np.int32) % n_salts
        return batch.append_column("__salt", _pa.array(salt))

    salted = ds.map_batches(add_salt, batch_format="pyarrow",
                            zero_copy_batch=True)
    partial = grouped_aggregate(salted, keys + ["__salt"], aggs)
    if partial is None:
        return None
    # fold the salt away driver-side: the partial is (n_keys x salts)
    spec = []
    renames = {}
    for col, fn in aggs:
        src = f"{col or 'rows'}_{fn}"
        refn = "sum" if fn in ("sum", "count") else fn
        spec.append((src, refn))
        renames[f"{src}_{refn}"] = src
    out = safe_groupby_aggregate(partial.drop_columns(["__salt"]),
                                 keys, spec)
    return out.rename_columns([renames.get(c, c) for c in out.column_names])


def _int64_us(col):
    """Int64 view of a temporal or integer column normalized to
    MICROSECONDS regardless of the column's own unit — the raw int64
    cast of a timestamp is in that column's ticks (and of a date32 in
    DAYS), so absolute-microsecond window/tolerance constants and
    cross-side comparisons in mixed-unit joins silently mis-scale
    without this. Integer columns pass through (documented as already
    microseconds); ns floor-divides (toward -inf) so pre-1970 values
    keep floor-assignment semantics. Nulls are preserved."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    t = col.type
    if pa.types.is_date32(t):
        iv = pc.cast(pc.cast(arr, pa.int32()), pa.int64())
        return pc.multiply_checked(
            iv, pa.scalar(86_400_000_000, pa.int64()))
    if pa.types.is_date64(t):  # int64 view is milliseconds
        return pc.multiply_checked(pc.cast(arr, pa.int64()),
                                   pa.scalar(1_000, pa.int64()))
    iv = pc.cast(arr, pa.int64())
    unit = getattr(t, "unit", None)
    if unit in (None, "us"):
        return iv
    if unit == "s":
        return pc.multiply_checked(iv, pa.scalar(1_000_000, pa.int64()))
    if unit == "ms":
        return pc.multiply_checked(iv, pa.scalar(1_000, pa.int64()))
    # ns
    nulls = pc.is_null(iv)
    v = pc.fill_null(iv, 0).to_numpy(zero_copy_only=False)
    has_null = pc.any(nulls).as_py() or False
    return pa.array(v // 1000, pa.int64(),
                    mask=nulls.to_numpy(zero_copy_only=False)
                    if has_null else None)


def asof_join_backward(ds, right_table: pa.Table, left_by: str,
                       right_by: str, left_time: str, right_time: str,
                       value_columns: List[str]):
    """As-of (backward) join: for each left row, attach the right row
    with the greatest ``right_time <= left_time`` within the same
    ``by`` key. Ray Data has no native as-of join; this is the
    broadcast realization for a dimension-sized right side: the right
    table is grouped and time-sorted once on the driver, shipped via
    ``ray.put``, and each batch resolves all its rows with one
    ``searchsorted`` per (key-group x batch) — no shuffle of the big
    side. (For two big sides, range-bucket both by time and co-group;
    not needed for the testdata shapes.)
    """
    import ray

    # driver-side index: globally time-sorted-within-key right side;
    # each key maps to its (times segment, segment offset) and value
    # columns stay ONE Arrow array each — the per-batch gather is a
    # single vectorized take per column, never a Python loop
    idx: dict = {}
    rt = right_table.sort_by([(right_by, "ascending"),
                              (right_time, "ascending")])
    by_np = rt[right_by].to_numpy(zero_copy_only=False)
    t_np = _int64_us(rt[right_time]).to_numpy(zero_copy_only=False)
    if len(by_np):
        starts = np.concatenate(
            [[0], np.nonzero(by_np[1:] != by_np[:-1])[0] + 1, [len(by_np)]])
        for s, e in zip(starts[:-1], starts[1:]):
            if by_np[s] is None:
                continue  # SQL semantics: null keys never match
            idx[by_np[s]] = (t_np[s:e], int(s))
    value_arrays = {c: (rt[c].combine_chunks()
                        if isinstance(rt[c], pa.ChunkedArray) else rt[c])
                    for c in value_columns}
    handle = ray.put((idx, value_arrays))

    def probe(batch: pa.Table) -> pa.Table:
        index, values = ray.get(handle)
        n = batch.num_rows
        lb = batch[left_by].to_numpy(zero_copy_only=False)
        lt = _int64_us(batch[left_time]) \
            .to_numpy(zero_copy_only=False)
        # global position into the sorted right side; -1 = no match
        gpos = np.full(n, -1, dtype=np.int64)
        # null-key left rows can never match (and None is unorderable
        # vs str under np.argsort) — probe only the valid-key rows
        vi = np.nonzero(pc.is_valid(batch[left_by])
                        .to_numpy(zero_copy_only=False))[0]
        order = vi[np.argsort(lb[vi], kind="stable")]
        nv = len(order)
        i = 0
        while i < nv:
            j = i
            key = lb[order[i]]
            while j < nv and lb[order[j]] == key:
                j += 1
            entry = index.get(key)
            if entry is not None:
                times, seg_start = entry
                rows = order[i:j]
                pos = np.searchsorted(times, lt[rows], side="right") - 1
                hit = pos >= 0
                gpos[rows[hit]] = seg_start + pos[hit]
            i = j
        matched = pa.array(gpos >= 0)
        take_idx = pa.array(np.maximum(gpos, 0))
        result = batch
        for c in value_columns:
            arr = values[c]
            if len(arr) == 0:
                col = pa.nulls(n, arr.type)
            else:
                taken = arr.take(take_idx)
                col = pc.if_else(matched, taken,
                                 pa.scalar(None, arr.type))
            result = result.append_column(c, col)
        return result

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def range_join(ds, right_table: pa.Table, left_by: str, right_by: str,
               left_time: str, right_time: str,
               before_us: int, after_us: int,
               value_columns: List[str]):
    """Range (interval) join: each left row matches every right row
    with the same ``by`` key whose ``right_time`` lies in
    ``[left_time - before_us, left_time + after_us]`` (inclusive);
    one output row per match (inner semantics). Ray Data has no
    native range join; like the as-of join this is the broadcast
    realization for a dimension-sized right side — the right table is
    key-grouped and time-sorted once, shipped via ``ray.put``, and
    each batch resolves its matches with two ``searchsorted`` calls
    per key group plus ONE vectorized expansion (np.repeat /
    cumulative offsets) and one Arrow ``take`` per output column. For
    two big sides, time-bucket both and co-group on (key,
    time_bucket); not needed for the testdata shapes.
    """
    import ray

    idx: dict = {}
    rt = right_table.sort_by([(right_by, "ascending"),
                              (right_time, "ascending")])
    by_np = rt[right_by].to_numpy(zero_copy_only=False)
    t_np = _int64_us(rt[right_time]).to_numpy(zero_copy_only=False)
    if len(by_np):
        starts = np.concatenate(
            [[0], np.nonzero(by_np[1:] != by_np[:-1])[0] + 1, [len(by_np)]])
        for s, e in zip(starts[:-1], starts[1:]):
            if by_np[s] is None:
                continue  # SQL semantics: null keys never match
            idx[by_np[s]] = (t_np[s:e], int(s))
    value_arrays = {c: (rt[c].combine_chunks()
                        if isinstance(rt[c], pa.ChunkedArray) else rt[c])
                    for c in value_columns}
    handle = ray.put((idx, value_arrays))

    def probe(batch: pa.Table) -> pa.Table:
        index, values = ray.get(handle)
        lb = batch[left_by].to_numpy(zero_copy_only=False)
        lt = _int64_us(batch[left_time]) \
            .to_numpy(zero_copy_only=False)
        left_rows: list = []
        right_pos: list = []
        # null-key left rows drop (inner join) and None is unorderable
        # vs str under np.argsort — probe only the valid-key rows
        vi = np.nonzero(pc.is_valid(batch[left_by])
                        .to_numpy(zero_copy_only=False))[0]
        order = vi[np.argsort(lb[vi], kind="stable")]
        nv = len(order)
        i = 0
        while i < nv:
            j = i
            key = lb[order[i]]
            while j < nv and lb[order[j]] == key:
                j += 1
            entry = index.get(key)
            if entry is not None:
                times, seg_start = entry
                rows = order[i:j]
                lo = np.searchsorted(times, lt[rows] - before_us,
                                     side="left")
                hi = np.searchsorted(times, lt[rows] + after_us,
                                     side="right")
                counts = hi - lo
                m = counts > 0
                if m.any():
                    rows, lo, counts = rows[m], lo[m], counts[m]
                    total = int(counts.sum())
                    # positions lo[k] .. lo[k]+counts[k]-1 per left row
                    offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
                    expand = (np.arange(total)
                              - np.repeat(offs, counts)
                              + np.repeat(lo, counts))
                    left_rows.append(np.repeat(rows, counts))
                    right_pos.append(expand + seg_start)
            i = j
        if left_rows:
            li = np.concatenate(left_rows)
            ri = np.concatenate(right_pos)
        else:
            li = np.zeros(0, dtype=np.int64)
            ri = np.zeros(0, dtype=np.int64)
        out = batch.take(pa.array(li, pa.int64()))
        for c in value_columns:
            out = out.append_column(
                c, values[c].take(pa.array(ri, pa.int64())))
        return out

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def sort_merge_join(left_ds, right_ds, left_on: str, right_on: str,
                    value_columns: List[str], how: str = "inner"):
    """Inner or LEFT OUTER equi-join for TWO BIG SIDES — the shuffle
    realization
    :func:`broadcast_hash_join`'s docstring defers to when no side is
    dimension-sized. (Ray's experimental ``Dataset.join`` crashes on
    hash partitions with zero left rows, so the engine builds the
    join from primitives it already trusts.)

    Shape: tag + union both sides, ONE null-safe range-partitioned
    sort on the key co-locates each key's rows, then every sorted
    block expands its INTERIOR key segments' left x right cross
    products fully vectorized (np.repeat over per-left-row match
    counts — no per-key Python). The first/last key of each block
    (the only ones that can straddle a boundary) emit their raw rows
    instead; those O(boundary keys) rows join in one worker-side pass
    over the collected edge table. NULL keys never match (SQL
    semantics). ``how`` is one of ``"inner" | "left" | "right" |
    "full"``: unmatched left rows (null keys included) emit once with
    null value columns, unmatched right rows emit once with ALL left
    columns null (put ``right_on`` in ``value_columns`` to keep their
    key) — both straight from the interior/edge scans, no extra
    shuffle. Skew caveat: a hot key's cross product is inherent to
    the join's output — for a hot-key-heavy workload salt upstream or
    use the broadcast variant.
    """
    import ray

    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"how must be inner|left|right|full, got {how!r}")
    emit_left_un = how in ("left", "full")
    emit_right_un = how in ("right", "full")

    if set(value_columns) & set(left_ds.schema().base_schema.names):
        raise ValueError(
            "value_columns must not collide with left columns: "
            f"{sorted(set(value_columns) & set(left_ds.schema().base_schema.names))}")

    key_col, side_col = "__k", "__side"
    left_schema_probe = left_ds.schema().base_schema
    left_names = list(left_schema_probe.names)
    right_schema = right_ds.schema().base_schema
    value_types = {c: right_schema.field(c).type for c in value_columns}
    # exchange key type: SIGNED-integer pairs ride as native int64
    # (the string detour cost real sort time on fact-fact joins —
    # int64 range-sort + numpy segment compares are much cheaper);
    # everything else unifies through the string cast as before.
    # Unsigned 64-bit stays on the string path (uint64 > 2^63 wraps
    # in an int64 exchange — the documented group-key pitfall).
    lt_ = left_schema_probe.field(left_on).type
    rt_ = right_schema.field(right_on).type
    key_type = pa.int64() if (pa.types.is_signed_integer(lt_)
                              and pa.types.is_signed_integer(rt_)) \
        else pa.string()

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: pa.nulls(n, left_schema_probe.field(c).type)
                for c in left_names}
        cols[key_col] = pc.cast(batch[right_on], key_type)
        cols[side_col] = pa.array(np.zeros(n, np.int8))
        for c in value_columns:
            cols[c] = batch[c]
        return pa.table(cols)

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: batch[c] for c in left_names}
        cols[key_col] = pc.cast(batch[left_on], key_type)
        cols[side_col] = pa.array(np.ones(n, np.int8))
        for c in value_columns:
            cols[c] = pa.nulls(n, value_types[c])
        return pa.table(cols)

    unioned = left_ds.map_batches(tag_left, batch_format="pyarrow",
                                  zero_copy_batch=True) \
        .union(right_ds.map_batches(tag_right, batch_format="pyarrow",
                                    zero_copy_batch=True))
    sorted_ds = null_safe_sort(unioned, [key_col], [side_col])

    out_names = left_names + value_columns
    meta_names = [key_col, side_col]

    def expand(batch: pa.Table, interior_only: bool) -> tuple:
        """(el, er) row indices of the cross products of this
        (key, side)-sorted batch's matched segments; with
        ``interior_only`` the first/last key segments are skipped
        (returned as the edge row-index array)."""
        n = batch.num_rows
        kc = batch[key_col].combine_chunks()
        key_valid = pc.is_valid(kc).to_numpy(zero_copy_only=False)
        if pa.types.is_integer(kc.type):
            # nullable int64 -> float64 NaN conversion would lose
            # > 2^53 precision (two distinct keys could compare
            # equal); fill nulls instead — null rows are never
            # usable, and a zero-fill gluing a null run onto a
            # key-0 segment is harmless because pairing uses only
            # key_valid rows
            keys_np = pc.fill_null(kc, 0) \
                .to_numpy(zero_copy_only=False)
        else:
            keys_np = kc.to_numpy(zero_copy_only=False)
        side = batch[side_col].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        change = np.nonzero(keys_np[1:] != keys_np[:-1])[0] + 1
        segid = np.zeros(n, dtype=np.int64)
        segid[change] = 1
        segid = np.cumsum(segid)
        g = int(segid[-1]) + 1 if n else 0
        usable = key_valid.copy()
        eidx = np.zeros(0, dtype=np.int64)
        if interior_only and n:
            em = (segid == 0) | (segid == g - 1)
            eidx = np.nonzero(em & key_valid)[0]
            usable &= ~em
        ridx = np.nonzero(usable & (side == 0))[0]
        lidx = np.nonzero(usable & (side == 1))[0]
        nr_seg = np.bincount(segid[ridx], minlength=g) if n else \
            np.zeros(0, dtype=np.int64)
        rbase = np.concatenate([[0], np.cumsum(nr_seg)[:-1]]) if g else \
            np.zeros(0, dtype=np.int64)
        nmatch = nr_seg[segid[lidx]]
        total = int(nmatch.sum())
        el = np.repeat(lidx, nmatch)
        # exclusive prefix sum; stays shape-(0,) when no usable left
        # rows exist (e.g. a block that is entirely one key's edge)
        offs = np.cumsum(nmatch) - nmatch
        pos = (np.arange(total, dtype=np.int64)
               - np.repeat(offs, nmatch))
        er = ridx[np.repeat(rbase[segid[lidx]], nmatch) + pos]
        # outer-join bookkeeping: usable rows with zero matches on
        # the opposite side, plus (interior pass only) null-key rows
        # — null keys can never match anywhere and never enter the
        # edge table, so they emit exactly once here
        lun = run = np.zeros(0, dtype=np.int64)
        if emit_left_un:
            lun = lidx[nmatch == 0]
            if interior_only and n:
                lun = np.concatenate(
                    [lun, np.nonzero((side == 1) & ~key_valid)[0]])
        if emit_right_un:
            nl_seg = np.bincount(segid[lidx], minlength=g) if n else \
                np.zeros(0, dtype=np.int64)
            run = ridx[nl_seg[segid[ridx]] == 0]
            if interior_only and n:
                run = np.concatenate(
                    [run, np.nonzero((side == 0) & ~key_valid)[0]])
        return el, er, eidx, lun, run

    def joined_table(batch: pa.Table, el, er, lun, run) -> pa.Table:
        """Output rows in the fixed order [matched, left-unmatched,
        right-unmatched] — callers taking per-row metadata must use
        the same concatenation of (el, lun, run)."""
        cols = {}
        for c in left_names:
            cols[c] = batch[c].take(pa.array(el, pa.int64()))
        for c in value_columns:
            cols[c] = batch[c].take(pa.array(er, pa.int64()))
        parts = [pa.table(cols) if cols else pa.table({})]
        if len(lun):
            ucols = {c: batch[c].take(pa.array(lun, pa.int64()))
                     for c in left_names}
            for c in value_columns:
                ucols[c] = pa.nulls(len(lun), value_types[c])
            parts.append(pa.table(ucols))
        if len(run):
            rcols = {c: pa.nulls(
                len(run), left_schema_probe.field(c).type)
                for c in left_names}
            for c in value_columns:
                rcols[c] = batch[c].take(pa.array(run, pa.int64()))
            parts.append(pa.table(rcols))
        return pa.concat_tables(parts) if len(parts) > 1 else parts[0]

    def scan(batch: pa.Table) -> pa.Table:
        out_order = out_names + meta_names + ["__edge"]
        if batch.num_rows == 0:
            fields = [batch.schema.field(c)
                      for c in out_names + meta_names]
            return pa.schema(fields + [pa.field("__edge", pa.bool_())]
                             ).empty_table()
        el, er, eidx, lun, run = expand(batch, interior_only=True)
        out = joined_table(batch, el, er, lun, run)
        emitted = np.concatenate([el, lun, run])
        for c in meta_names:
            out = out.append_column(c, batch[c].take(
                pa.array(emitted, pa.int64())))
        out = out.append_column(
            "__edge", pa.array(np.zeros(len(emitted), bool)))
        parts = [out.select(out_order)]
        if len(eidx):
            etab = batch.take(pa.array(eidx)) \
                .select(out_names + meta_names) \
                .append_column("__edge",
                               pa.array(np.ones(len(eidx), bool)))
            parts.append(etab.select(out_order))
        return pa.concat_tables(parts)

    scanned = sorted_ds.map_batches(scan, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()

    def interior(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(batch["__edge"])) \
            .select(out_names)

    inner = scanned.map_batches(interior, batch_format="pyarrow",
                                zero_copy_batch=True)

    # boundary keys: raw rows collect (key-sorted by block order) and
    # join in ONE worker pass over the whole edge table
    edge_tables = []
    for batch in scanned.iter_batches(batch_format="pyarrow"):
        kept = batch.filter(batch["__edge"])
        if kept.num_rows:
            edge_tables.append(kept.select(out_names + meta_names))
    if not edge_tables:
        return inner
    et = pa.concat_tables(edge_tables, promote_options="default") \
        .sort_by([(key_col, "ascending"), (side_col, "ascending")])

    def edge_join(batch: pa.Table) -> pa.Table:
        el, er, _, lun, run = expand(batch, interior_only=False)
        return joined_table(batch, el, er, lun, run).select(out_names)

    edge_ds = ray.data.from_arrow(et).map_batches(
        edge_join, batch_format="pyarrow", batch_size=None)
    return inner.union(edge_ds)


def exact_distinct_count(ds, column: str) -> int:
    """Exact COUNT(DISTINCT col): per-block distinct -> hash shuffle
    of distinct values only -> count groups."""

    def per_block_unique(batch: pa.Table) -> pa.Table:
        # SQL COUNT(DISTINCT col) excludes NULLs — drop them here,
        # which also keeps nullable string keys out of the shuffle
        u = pc.unique(batch[column].combine_chunks().drop_null())
        return pa.table({column: u})

    uniq = ds.map_batches(per_block_unique, batch_format="pyarrow",
                          zero_copy_batch=True)
    return uniq.groupby(column).count().count()


def _broadcast_key_set(ref_ds, pk: str):
    """Distinct non-null reference keys collected once as ONE Arrow
    array and shared via ``ray.put`` — every task probes zero-copy
    with ``pc.is_in``. The reference side must be dimension-sized
    (same contract as :func:`broadcast_hash_join`)."""
    import ray

    chunks = []
    for batch in ref_ds.select_columns([pk]) \
            .iter_batches(batch_format="pyarrow"):
        col = batch[pk].drop_null()
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col):
            chunks.append(col)
    keys = pc.unique(pa.concat_arrays(chunks)) if chunks else pa.array([])
    return ray.put(keys)


def semi_join(ds, ref_ds, fk: str, pk: str):
    """Row-level SQL ``WHERE EXISTS`` (left semi join): keep the rows
    of ``ds`` whose ``fk`` matches some ``ref_ds[pk]``. NULL keys
    never match. Broadcast probe — no shuffle of the big side; for
    two big sides route through :func:`sort_merge_join` + projection
    instead."""
    import ray

    handle = _broadcast_key_set(ref_ds, pk)

    def probe(batch: pa.Table) -> pa.Table:
        keys = ray.get(handle)
        col = batch[fk]
        if len(keys) == 0:
            keys = pa.array([], type=col.type)
        return batch.filter(
            pc.fill_null(pc.is_in(col, value_set=keys), False))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def _bloom_hashes(col) -> tuple:
    """(uint64 hashes, valid mask) for an int/temporal/string Arrow
    column — the shared key-hash kernel of the Bloom family."""
    from ..state.sketches import hash_ints, hash_string_array

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    t = arr.type
    if pa.types.is_integer(t) or pa.types.is_timestamp(t):
        vals = pc.cast(pc.fill_null(arr, 0), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return hash_ints(vals), valid
    if _is_string_type(t):
        return hash_ints(hash_string_array(arr).view(np.int64)), valid
    raise ValueError(f"bloom: unsupported key type {t}")


def _bloom_positions(h: np.ndarray, n_bits: int, n_hashes: int):
    """Double-hashing bit positions, one (len(h),) array per probe."""
    h2 = (h >> np.uint64(32)) | np.uint64(1)  # odd => full-cycle step
    mask = np.uint64(n_bits - 1)
    return [(h + np.uint64(i) * h2) & mask for i in range(n_hashes)]


def build_bloom_filter(ds, column: str, n_bits: int = 1 << 23,
                       n_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom filter over ``ds[column]`` as an OR-mergeable
    global aggregate: each block scatters its keys' bits into a local
    bitmap partial, Ray's aggregate tree ORs the partials — the
    driver never sees keys, only ``n_bits/8`` bytes (1 MiB at the
    2^23 default). Returns the uint64 word array. NULL keys are
    never inserted. ``n_bits`` must be a power of two."""
    from ray.data.aggregate import AggregateFn

    if n_bits & (n_bits - 1) or n_bits < 64:
        raise ValueError(f"n_bits must be a power of two >= 64, "
                         f"got {n_bits}")
    n_words = n_bits // 64

    def acc_block(acc: np.ndarray, block: pa.Table) -> np.ndarray:
        if block.num_rows == 0:
            return acc
        h, valid = _bloom_hashes(block[column])
        h = h[valid]
        if not len(h):
            return acc
        out = acc.copy()
        for pos in _bloom_positions(h, n_bits, n_hashes):
            np.bitwise_or.at(out, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))
        return out

    agg = AggregateFn(
        init=lambda k: np.zeros(n_words, np.uint64),
        accumulate_block=acc_block,
        merge=lambda a, b: a | b,
        name="bloom")
    res = ds.aggregate(agg)
    return res["bloom"] if res else np.zeros(n_words, np.uint64)


def bloom_semi_join(ds, ref_ds, fk: str, pk: str,
                    n_bits: int = 1 << 23, n_hashes: int = 4,
                    exact: bool = True):
    """SQL ``WHERE EXISTS`` with a Bloom pre-filter: the reference
    keys reduce to an ``n_bits`` bitmap (:func:`build_bloom_filter`),
    broadcast ONCE via ``ray.put``; every probe batch tests
    ``n_hashes`` bits per row, fully vectorized. Bloom filters have
    no false negatives, so with ``exact=True`` (default) the
    surviving superset is finished by the exact broadcast
    :func:`semi_join` and the result is EXACT; ``exact=False`` keeps
    the ~``(1-e^(-kn/m))^k`` false-positive rate for pipelines that
    only need a pre-filter. NULL ``fk`` rows never match.

    Scale shape: at 10^10+ reference keys the exact key-set
    broadcast is multi-GB per worker while the bitmap stays ~MiB;
    the exact pass then runs over the survivors only (compose with
    :func:`sort_merge_join` instead of the broadcast verify when
    even the reference side is beyond worker heaps)."""
    import ray

    words = build_bloom_filter(ref_ds, pk, n_bits, n_hashes)
    handle = ray.put(words)

    def probe(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        w = ray.get(handle)
        h, valid = _bloom_hashes(batch[fk])
        member = valid.copy()
        for pos in _bloom_positions(h, n_bits, n_hashes):
            bits = (w[(pos >> np.uint64(6)).astype(np.int64)]
                    >> (pos & np.uint64(63))) & np.uint64(1)
            member &= bits.astype(bool)
        return batch.filter(pa.array(member))

    filtered = ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)
    return semi_join(filtered, ref_ds, fk, pk) if exact else filtered


def anti_join(ds, ref_ds, fk: str, pk: str):
    """Row-level SQL ``WHERE NOT EXISTS`` (left anti join): keep the
    rows of ``ds`` with NO ``ref_ds[pk]`` match. NULL-``fk`` rows are
    KEPT (NOT EXISTS semantics, unlike NOT IN); pass the result of
    ``engine.keys.referential_violations`` for the drop-null-fk
    variant. Broadcast probe, no shuffle of the big side."""
    import ray

    handle = _broadcast_key_set(ref_ds, pk)

    def probe(batch: pa.Table) -> pa.Table:
        keys = ray.get(handle)
        col = batch[fk]
        if len(keys) == 0:
            keys = pa.array([], type=col.type)
        return batch.filter(pc.invert(
            pc.fill_null(pc.is_in(col, value_set=keys), False)))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def _distinct_set_op(left_ds, right_ds, left_on: List[str],
                     right_on: List[str], op: str):
    """SQL ``INTERSECT`` / ``EXCEPT`` (distinct set semantics, NULLs
    compare equal): per-block distinct combiner on each projected
    side — the shuffle moves unique key rows, never data — one tagged
    union, one null-safe groupby taking max of the side flags, then a
    filter. Output is one row per distinct key tuple, named after
    ``left_on``. The right columns must be union-compatible in type
    (cast upstream if not)."""
    from ray.data.aggregate import Max

    def tag(on: List[str], is_left: bool):
        def f(batch: pa.Table) -> pa.Table:
            u = safe_groupby_aggregate(batch.select(on), on, []) \
                .rename_columns(left_on)
            n = u.num_rows
            one = pa.array(np.ones(n, np.int8))
            zero = pa.array(np.zeros(n, np.int8))
            return u.append_column("__l", one if is_left else zero) \
                .append_column("__r", zero if is_left else one)
        return f

    parts = left_ds.map_batches(tag(left_on, True),
                                batch_format="pyarrow",
                                zero_copy_batch=True) \
        .union(right_ds.map_batches(tag(right_on, False),
                                    batch_format="pyarrow",
                                    zero_copy_batch=True))
    agg = null_safe_grouped_aggregate(
        parts, left_on,
        [Max("__l", alias_name="__l"), Max("__r", alias_name="__r")],
        ["__l", "__r"])

    def pick(batch: pa.Table) -> pa.Table:
        in_l = pc.equal(batch["__l"], 1)
        in_r = pc.equal(batch["__r"], 1)
        m = pc.and_(in_l, in_r) if op == "intersect" \
            else pc.and_(in_l, pc.invert(in_r))
        return batch.filter(m).select(left_on)

    return agg.map_batches(pick, batch_format="pyarrow",
                           zero_copy_batch=True)


def intersect_distinct(left_ds, right_ds, left_on: List[str],
                       right_on: Optional[List[str]] = None):
    """SQL ``SELECT left_on FROM left INTERSECT SELECT right_on FROM
    right`` (output columns named after ``left_on``)."""
    return _distinct_set_op(left_ds, right_ds, left_on,
                            right_on or left_on, "intersect")


def except_distinct(left_ds, right_ds, left_on: List[str],
                    right_on: Optional[List[str]] = None):
    """SQL ``SELECT left_on FROM left EXCEPT SELECT right_on FROM
    right`` (output columns named after ``left_on``)."""
    return _distinct_set_op(left_ds, right_ds, left_on,
                            right_on or left_on, "except")


def _arg_encode(batch: pa.Table, order_col: str, tiebreak: str,
                value_col: str) -> pa.Array:
    """Order-preserving 26-byte hex encoding of (order, tiebreak)
    carrying the value as payload: [order-null flag | sign-flipped
    big-endian order | big-endian tiebreak | raw float64 value bits |
    value-null flag]. Lexicographic MIN/MAX of the encodings IS
    arg_min/arg_max by (order, tiebreak) with SQL NULLS LAST, so
    first/last_value reduces to a plain combinable aggregate."""
    import binascii

    n = batch.num_rows

    def sortable_u64(col) -> tuple:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        if pa.types.is_floating(arr.type):
            v = pc.fill_null(pc.cast(arr, pa.float64()), 0.0) \
                .to_numpy(zero_copy_only=False)
            bits = v.view(np.uint64)
            # IEEE-754 total order: flip all bits of negatives, flip
            # only the sign bit of non-negatives (NaN order undefined)
            flip = np.where(bits >> np.uint64(63),
                            np.uint64(0xFFFFFFFFFFFFFFFF),
                            np.uint64(0x8000000000000000))
            return bits ^ flip, valid
        v = pc.fill_null(pc.cast(arr, pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return v.view(np.uint64) ^ np.uint64(1 << 63), valid

    o_u, o_valid = sortable_u64(batch[order_col])
    t_u, _ = sortable_u64(batch[tiebreak])
    varr = pc.cast(batch[value_col].combine_chunks()
                   if isinstance(batch[value_col], pa.ChunkedArray)
                   else batch[value_col], pa.float64())
    v_valid = pc.is_valid(varr).to_numpy(zero_copy_only=False)
    v_np = pc.fill_null(varr, 0.0).to_numpy(zero_copy_only=False)

    buf = np.empty((n, 26), np.uint8)
    buf[:, 0] = (~o_valid).view(np.uint8)  # NULLS LAST
    buf[:, 1:9] = o_u.astype(">u8").view(np.uint8).reshape(n, 8)
    buf[:, 9:17] = t_u.astype(">u8").view(np.uint8).reshape(n, 8)
    buf[:, 17:25] = v_np.astype("<f8").view(np.uint8).reshape(n, 8)
    buf[:, 25] = (~v_valid).view(np.uint8)
    hexed = np.frombuffer(binascii.hexlify(buf.tobytes()), dtype="S52")
    return pa.array(hexed.astype("U52"))


def _arg_decode(col) -> pa.Array:
    """Inverse of :func:`_arg_encode`'s payload: the float64 value
    (or null) carried by each winning encoding."""
    import binascii

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    n = len(arr)
    if n == 0:
        return pa.array([], pa.float64())
    raw = binascii.unhexlify("".join(arr.to_pylist()).encode())
    buf = np.frombuffer(raw, np.uint8).reshape(n, 26)
    vals = buf[:, 17:25].copy().view("<f8").ravel()
    nulls = buf[:, 25] == 1
    return pa.array(vals, pa.float64(), mask=nulls)


def grouped_first_last(ds, key: str, order_col: str, tiebreak: str,
                       value_col: str, first_out: str = "first_val",
                       last_out: str = "last_val"):
    """SQL ``first_value(value) OVER (PARTITION BY key ORDER BY
    order_col, tiebreak)`` and the full-frame ``last_value`` — per
    key, the value at the smallest and largest (order, tiebreak),
    order nulls last, null values preserved (ANSI first/last_value
    does NOT skip nulls).

    Shape: each row encodes to a fixed 52-char order-preserving hex
    key (:func:`_arg_encode`), a per-block ``pa.TableGroupBy``
    combiner keeps one (min, max) encoding per key per block, and
    ONE hash aggregate (MIN, MAX over strings) merges the partials —
    arg-extremes as plain combinable aggregates: no sort, no per-key
    state, hot keys reduce inside every block. ``order_col`` /
    ``tiebreak`` must be numeric or temporal, ``value_col`` numeric
    (the payload travels as float64 bits)."""
    from ray.data.aggregate import Max, Min

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({key: pa.array([], batch[key].type),
                             "__mn": pa.array([], pa.string()),
                             "__mx": pa.array([], pa.string())})
        enc = _arg_encode(batch, order_col, tiebreak, value_col)
        t = pa.table({key: batch[key], "__enc": enc})
        g = pa.TableGroupBy(t, key).aggregate(
            [("__enc", "min"), ("__enc", "max")])
        return pa.table({key: g[key], "__mn": g["__enc_min"],
                         "__mx": g["__enc_max"]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = null_safe_grouped_aggregate(
        partials, [key],
        [Min("__mn", alias_name="__fe"), Max("__mx", alias_name="__le")],
        ["__fe", "__le"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch[key],
                         first_out: _arg_decode(batch["__fe"]),
                         last_out: _arg_decode(batch["__le"])})

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def pivot_counts(ds, group_key: str, pivot_col: str,
                 categories: List[str], value: Optional[str] = None):
    """Pivot to a wide table: one row per ``group_key``, one column
    per category with ``count(*)`` (or ``sum(value)``) of the rows
    whose ``pivot_col`` equals it — SQL conditional aggregation
    (``sum(CASE WHEN pivot = cat THEN 1 END)``).

    ``categories`` is explicit (no driver-side discovery scan; pipe
    the distinct values through :func:`exact_distinct_count`'s shape
    first if unknown). Scale shape: the indicator columns are built
    and PRE-AGGREGATED inside ``map_batches`` (combiner), so the
    shuffle moves one partial row per (block, group) however many
    categories there are. Output columns are ``cnt_<cat>`` (or
    ``sum_<cat>``), rows with ``pivot_col`` outside ``categories``
    (or NULL) count toward no column.
    """
    from ray.data.aggregate import Sum

    prefix = "sum_" if value else "cnt_"
    out_cols = [f"{prefix}{c}" for c in categories]

    def partial(batch: pa.Table) -> pa.Table:
        pv = batch[pivot_col]
        cols = {group_key: batch[group_key]}
        if value is not None:
            # NULL values add 0, matching the documented
            # coalesce(sum(CASE WHEN m THEN v END), 0) contract even
            # for groups whose every matching value is NULL
            vals = pc.fill_null(pc.cast(batch[value], pa.float64()),
                                0.0)
        for cat, name in zip(categories, out_cols):
            m = pc.equal(pv, cat)
            if value is None:
                cols[name] = pc.cast(pc.fill_null(m, False), pa.int64())
            else:
                cols[name] = pc.if_else(pc.fill_null(m, False), vals,
                                        pa.scalar(0.0, pa.float64()))
        g = pa.TableGroupBy(pa.table(cols), [group_key])
        agg = g.aggregate([(n, "sum") for n in out_cols])
        return agg.rename_columns([group_key] + out_cols)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    return null_safe_grouped_aggregate(
        parts, [group_key],
        [Sum(n, alias_name=n) for n in out_cols],
        out_cols)


def hash_sample(ds, key_column: str, fraction: float, seed: int = 0):
    """Deterministic hash sampling: keep a row iff
    ``splitmix64(key + seed) < fraction * 2**64``.

    Scale shape: an embarrassingly parallel per-batch filter — no
    shuffle, no RNG state, no driver participation. The same key
    always lands on the same side, so the sample is repeatable across
    runs and resumes, and CONSISTENT across tables sharing the key
    (sample orders at 1% and the matching lineitems fall out of the
    same predicate). Change ``seed`` to draw an independent sample.
    Null keys are never sampled (SQL-filter semantics).
    """
    from ..state.sketches import hash_ints, hash_string_array

    if fraction >= 1.0:
        return ds
    threshold = np.uint64(int(fraction * float(1 << 64)))

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[key_column].combine_chunks()
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
                f"hash_sample: unsupported key type {t} for "
                f"column {key_column!r}")
        return batch.filter(pa.array((h < threshold) & valid))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def mixture_sample(ds, group_column: str, key_column: str,
                   rates: dict, default_rate: float = 0.0,
                   seed: int = 0):
    """Per-group deterministic sampling — the domain-mixture
    re-weighting step of a training-data pipeline (keep 80% of web,
    5% of logs, ...): a row is kept iff
    ``splitmix64(key + seed) < rates[group] * 2**64``. Groups
    missing from ``rates`` (and null groups) use ``default_rate``.

    Same scale shape as :func:`hash_sample` — an embarrassingly
    parallel per-batch filter with no shuffle, no RNG state, and no
    driver participation; repeatable across runs/resumes and
    consistent across tables sharing the key. Null keys are never
    sampled. Use :func:`mixture_thresholds` for the exact integer
    thresholds (the correctness oracles bake the same values)."""
    from ..state.sketches import hash_ints

    thr = mixture_thresholds(rates, default_rate)
    default_thr = np.uint64(thr[None])

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[key_column].combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        vals = pc.cast(col.fill_null(0), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = hash_ints((vals.astype(np.uint64)
                       + np.uint64(seed)).view(np.int64))
        g = batch[group_column].combine_chunks().dictionary_encode()
        dict_thr = np.array(
            [thr.get(v, default_thr)
             for v in g.dictionary.to_pylist()] or [default_thr],
            dtype=np.uint64)
        idx = g.indices.fill_null(0).to_numpy(zero_copy_only=False)
        row_thr = dict_thr[idx]
        row_thr = np.where(
            pc.is_valid(g).to_numpy(zero_copy_only=False),
            row_thr, default_thr)
        return batch.filter(pa.array((h < row_thr) & valid))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def mixture_thresholds(rates: dict, default_rate: float = 0.0) -> dict:
    """The exact uint64 comparison thresholds :func:`mixture_sample`
    uses, keyed by group (``None`` key = the default). Exposed so SQL
    oracles compare against the SAME integers instead of re-deriving
    them from floats."""
    def to_thr(r: float) -> int:
        return min(max(int(float(r) * float(1 << 64)), 0),
                   (1 << 64) - 1)

    out = {g: np.uint64(to_thr(r)) for g, r in rates.items()}
    out[None] = np.uint64(to_thr(default_rate))
    return out


def splitmix64_sql(expr: str, seed: int = 0) -> str:
    """The exact DuckDB-SQL replication of :func:`hash_ints`
    (splitmix64) over an integer SQL expression — 64-bit modular
    arithmetic via 32-bit limb decomposition in HUGEINT. Used by the
    correctness oracles so ``hash_sample`` is hash-for-hash checkable
    against plain SQL."""
    m, m32 = 1 << 64, 1 << 32

    def mulmod(x: str, c: int) -> str:
        return (f"CAST((((CAST({x} AS HUGEINT) % {m32}) * {c} + "
                f"((CAST({x} AS HUGEINT) >> 32) * {c % m32} % {m32})"
                f" * {m32}) % {m}) AS UBIGINT)")

    s0 = (f"CAST((CAST(({expr}) + {seed} AS HUGEINT) + "
          f"11400714819323198485) % {m} AS UBIGINT)")
    s1 = f"xor({s0}, {s0} >> 30)"
    s2 = mulmod(s1, 0xBF58476D1CE4E5B9)
    s3 = f"xor({s2}, {s2} >> 27)"
    s4 = mulmod(s3, 0x94D049BB133111EB)
    return f"xor({s4}, {s4} >> 31)"


def null_safe_grouped_aggregate(partial_ds, keys: List[str], agg_objs,
                                out_columns: List[str]):
    """Ray ``groupby(keys).aggregate(...)`` that tolerates null keys
    (string keys shuffle via the invertible prefixed encoding; other
    types pass through zero-copy). No schema inspection — the
    encode/decode decision is made per batch by column type, so the
    lazy upstream pipeline is never executed twice. Returns columns
    ``keys + out_columns`` in order."""
    group_cols = [f"__gs{i}" for i in range(len(keys))]

    def encode(batch: pa.Table) -> pa.Table:
        return encode_null_safe_keys(batch, keys)

    grouped = partial_ds.map_batches(encode, batch_format="pyarrow",
                                     zero_copy_batch=True) \
        .groupby(group_cols).aggregate(*agg_objs)

    def decode(batch: pa.Table) -> pa.Table:
        return decode_null_safe_keys(batch, keys, out_columns)

    return grouped.map_batches(decode, batch_format="pyarrow",
                               zero_copy_batch=True)


def heavy_hitters(ds, column: str, min_count: int,
                  cms_width: int = 2048, cms_depth: int = 4) -> pa.Table:
    """EXACT heavy hitters (values with total count >= ``min_count``),
    identical to ``GROUP BY ... HAVING count(*) >= N`` — including the
    NULL group.

    Scale shape (three bounded passes, no full shuffle):
    (1) every block pre-counts locally and emits ONE mergeable
    Count-Min partial (O(width x depth) — the only thing that reaches
    the driver from this pass); (2) the merged sketch is broadcast
    and each block emits the distinct values whose CMS estimate
    clears the threshold — CMS never undercounts, so no true heavy
    hitter is missed, and the candidate volume is bounded by the
    sketch's false-positive rate (size ``cms_width`` for the expected
    distinct count); (3) one filtered pre-aggregated pass computes
    exact counts for the surviving candidates only. Values travel in
    the invertible null-safe encoding throughout, so a NULL-keyed
    heavy group is preserved."""
    import ray

    from ..state.sketches import CountMinSketch, hash_strings

    ds = ds.materialize()

    def enc_col(batch: pa.Table):
        col = pc.cast(batch[column].combine_chunks(), pa.string())
        joined = pc.binary_join_element_wise("v", col, "")
        return pc.if_else(pc.is_null(col), pa.scalar("n"), joined)

    def cms_partial(batch: pa.Table) -> pa.Table:
        col = enc_col(batch)
        g = pa.TableGroupBy(pa.table({"v": col}), ["v"]) \
            .aggregate([([], "count_all")])
        cnts = g["count_all"].to_numpy(zero_copy_only=False)
        cms = CountMinSketch(cms_width, cms_depth)
        cms.add_many(hash_strings(g["v"].to_pylist()),
                     cnts.astype(np.int64))
        return pa.table({"cms": pa.array([cms.counts.ravel().tolist()],
                                         pa.list_(pa.int64()))})

    merged = CountMinSketch(cms_width, cms_depth)
    for batch in ds.map_batches(cms_partial, batch_format="pyarrow",
                                zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for row in batch.to_pylist():
            merged = merged.merge(CountMinSketch(
                cms_width, cms_depth,
                np.asarray(row["cms"], dtype=np.int64)
                .reshape(cms_depth, cms_width)))
    cms_handle = ray.put(merged.counts)

    def candidates_of(batch: pa.Table) -> pa.Table:
        cms = CountMinSketch(cms_width, cms_depth,
                             ray.get(cms_handle))
        col = enc_col(batch)
        uniq = pc.unique(col).to_pylist()
        if not uniq:
            return pa.table({"candidate": pa.array([], pa.string())})
        est = cms.estimate_many(hash_strings(uniq))
        keep = [u for u, e in zip(uniq, est) if e >= min_count]
        return pa.table({"candidate": pa.array(keep, pa.string())})

    candidates: set = set()
    for batch in ds.map_batches(candidates_of, batch_format="pyarrow",
                                zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        candidates.update(batch["candidate"].to_pylist())

    def decode_vals(encoded: list) -> pa.Array:
        return pa.array([None if v == "n" else v[1:] for v in encoded],
                        pa.string())

    if not candidates:
        return pa.table({column: pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    surv = sorted(candidates)
    handle = ray.put(pa.array(surv, pa.string()))

    def exact(batch: pa.Table) -> pa.Table:
        want = ray.get(handle)
        col = enc_col(batch)
        kept = pa.table({"v": col}).filter(
            pc.is_in(col, value_set=want))
        g = pa.TableGroupBy(kept, ["v"]).aggregate([([], "count_all")])
        return g.rename_columns(["v", "cnt"])

    from ray.data.aggregate import Sum

    exact_parts = ds.map_batches(exact, batch_format="pyarrow",
                                 zero_copy_batch=True)
    summed = exact_parts.groupby("v").aggregate(
        Sum("cnt", alias_name="cnt"))
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b
              for b in summed.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({column: pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    out = pa.concat_tables(tables, promote_options="default")
    out = out.filter(pc.greater_equal(out["cnt"], min_count))
    out = out.sort_by("v")
    return pa.table({column: decode_vals(out["v"].to_pylist()),
                     "cnt": out["cnt"]})


def _asof_carry(keys_np: np.ndarray, side: np.ndarray,
                key_valid: np.ndarray):
    """Vectorized backward-asof carry over a (key, time, side)-sorted
    stream: for every row, the index of the most recent RIGHT row in
    the same key segment (NULL keys never match, like SQL ASOF).
    Returns ``(last_r, has_match)``."""
    n = len(keys_np)
    idxs = np.arange(n)
    seg_new = np.concatenate(
        [[True], keys_np[1:] != keys_np[:-1]]) if n else \
        np.zeros(0, bool)
    seg_start = np.maximum.accumulate(np.where(seg_new, idxs, 0))
    ridx = np.where(side == 0, idxs, -1)
    last_r = np.maximum.accumulate(ridx) if n else ridx
    has_match = (last_r >= seg_start) & (last_r >= 0) & key_valid
    return last_r, has_match


def asof_join_forward_sorted(left_ds, right_ds, left_by: str,
                             right_by: str, left_time: str,
                             right_time: str,
                             value_columns: List[str]):
    """As-of FORWARD join (each left row takes its key's EARLIEST
    right row with ``right_time >= left_time``, inclusive) by time
    reversal: both time axes negate into int64 microseconds and the
    backward machinery — same single sort, carry scan and O(n_blocks)
    boundary stitch — runs unchanged. Unmatched left rows keep null
    value columns; NULL keys never match; among right ties at the
    minimal time the chosen row is unspecified (mirror of the
    backward contract)."""
    tmp = "__negt"

    def negate(col: str):
        def f(batch: pa.Table) -> pa.Table:
            t = _int64_us(batch[col])
            return batch.append_column(
                tmp, pc.subtract(pa.scalar(0, pa.int64()), t))
        return f

    left = left_ds.map_batches(negate(left_time),
                               batch_format="pyarrow",
                               zero_copy_batch=True)
    right = right_ds.map_batches(negate(right_time),
                                 batch_format="pyarrow",
                                 zero_copy_batch=True)
    out = asof_join_backward_sorted(left, right, left_by, right_by,
                                    tmp, tmp, value_columns)
    return out.map_batches(lambda b: b.drop_columns([tmp]),
                           batch_format="pyarrow", zero_copy_batch=True)


def asof_join_backward_sorted(left_ds, right_ds, left_by: str,
                              right_by: str, left_time: str,
                              right_time: str,
                              value_columns: List[str]):
    """As-of (backward) join for TWO BIG SIDES — the co-grouped
    realization :func:`asof_join_backward`'s docstring defers to.

    Shape: tag + union both sides, ONE null-safe range-partitioned
    sort on ``(key, time, side)`` (right rows before left rows at
    equal times, so ``right_time <= left_time`` is inclusive), then a
    vectorized carry scan per sorted batch: every left row takes the
    most recent right row of its key via ``np.maximum.accumulate`` —
    no broadcast, no per-group Python.

    Block boundaries: a left row whose predecessor lies in an earlier
    block can ONLY be a first-segment row with no in-block right
    predecessor ("pending"), and — because the stream is globally
    sorted — its answer is always the LAST right row of a key segment
    that ends an earlier block. So each block emits at most two
    fixed-size CARRY-OUT rows (the last right row of its first and
    last key segments); the driver holds only those O(n_blocks) rows
    and broadcasts them as the right side of a tiny as-of probe that
    resolves the pending rows DISTRIBUTED. Driver memory is therefore
    independent of any key's row count — a Zipf-hot key spanning
    every block costs two carry rows per block, never its timeline.
    NULL join keys never match (SQL ASOF semantics). Among multiple
    right rows sharing the same maximal ``right_time`` the chosen row
    is unspecified (same as the broadcast variant and SQL ASOF).
    """
    if set(value_columns) & set(left_ds.schema().base_schema.names):
        raise ValueError(
            "value_columns must not collide with left columns: "
            f"{sorted(set(value_columns) & set(left_ds.schema().base_schema.names))}")

    key_col, t_col, side_col = "__k", "__t", "__side"
    # schema() is metadata-cheap for read-rooted datasets; for
    # map-derived inputs it executes one block to infer
    left_schema_probe = left_ds.schema().base_schema
    left_names = list(left_schema_probe.names)
    value_types = {}

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for c in left_names:
            cols[c] = pa.nulls(n, left_schema_probe.field(c).type)
        cols[key_col] = pc.cast(batch[right_by], pa.string())
        cols[t_col] = _int64_us(batch[right_time])
        cols[side_col] = pa.array(np.zeros(n, np.int8))
        for c in value_columns:
            cols[c] = batch[c]
        return pa.table(cols)

    right_schema = right_ds.schema().base_schema
    for c in value_columns:
        value_types[c] = right_schema.field(c).type

    def tag_left_typed(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: batch[c] for c in left_names}
        cols[key_col] = pc.cast(batch[left_by], pa.string())
        cols[t_col] = _int64_us(batch[left_time])
        cols[side_col] = pa.array(np.ones(n, np.int8))
        for c in value_columns:
            cols[c] = pa.nulls(n, value_types[c])
        return pa.table(cols)

    unioned = left_ds.map_batches(tag_left_typed, batch_format="pyarrow",
                                  zero_copy_batch=True) \
        .union(right_ds.map_batches(tag_right, batch_format="pyarrow",
                                    zero_copy_batch=True))
    sorted_ds = null_safe_sort(unioned, [key_col], [t_col, side_col])

    out_names = left_names + value_columns
    meta_names = [key_col, t_col, side_col]

    # __rt row types: 0 = final (resolved locally), 1 = pending left
    # row (needs an earlier block's carry), 2 = carry-out right row
    def scan(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_order = out_names + meta_names + ["__rt"]
        if n == 0:
            fields = [batch.schema.field(c) for c in
                      out_names + meta_names]
            return pa.schema(fields + [pa.field("__rt", pa.int8())]
                             ).empty_table()
        keys = batch[key_col].combine_chunks()
        keys_np = keys.to_numpy(zero_copy_only=False)
        key_valid = pc.is_valid(keys).to_numpy(zero_copy_only=False)
        side = batch[side_col].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        last_r, has_match = _asof_carry(keys_np, side, key_valid)

        # pending: first-segment left rows with a valid key and no
        # in-block right predecessor. Left rows of any LATER segment
        # start inside this block, so "no in-block match" is final
        # there (null values).
        first_seg = ((keys_np == keys_np[0]) & key_valid) \
            if key_valid[0] else np.zeros(n, bool)
        pending = first_seg & (side == 1) & ~has_match

        krows = np.nonzero((side == 1) & ~pending)[0]
        take_left = pa.array(krows)
        matched = has_match[krows]
        rpos = np.where(matched, last_r[krows], 0)
        cols = {}
        for c in left_names:
            cols[c] = batch[c].take(take_left)
        for c in value_columns:
            arr = batch[c].combine_chunks()
            taken = arr.take(pa.array(rpos))
            cols[c] = pc.if_else(pa.array(matched), taken,
                                 pa.scalar(None, arr.type))
        for c in meta_names:
            cols[c] = batch[c].take(take_left)
        final = pa.table(cols).append_column(
            "__rt", pa.array(np.zeros(len(krows), np.int8)))
        parts = [final.select(out_order)]

        pidx = np.nonzero(pending)[0]
        if len(pidx):
            ptab = pa.table({c: batch[c].take(pa.array(pidx))
                             for c in out_names + meta_names})
            parts.append(ptab.append_column(
                "__rt", pa.array(np.ones(len(pidx), np.int8)))
                .select(out_order))

        # carry-out: the last right row of the first and last key
        # segments (the only segments a later block can continue)
        change = np.nonzero(keys_np[1:] != keys_np[:-1])[0] + 1
        e0 = int(change[0]) if len(change) else n
        sL = int(change[-1]) if len(change) else 0
        cidx = set()
        if key_valid[0] and last_r[e0 - 1] >= 0:
            cidx.add(int(last_r[e0 - 1]))
        if key_valid[n - 1]:
            rr = np.nonzero(side[sL:] == 0)[0]
            if len(rr):
                cidx.add(sL + int(rr[-1]))
        if cidx:
            ctab = batch.take(pa.array(sorted(cidx))) \
                .select(out_names + meta_names)
            parts.append(ctab.append_column(
                "__rt", pa.array(np.full(len(cidx), 2, np.int8)))
                .select(out_order))
        return pa.concat_tables(parts)

    scanned = sorted_ds.map_batches(scan, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()

    def interior_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["__rt"], 0))
        return kept.select(out_names)

    interior = scanned.map_batches(interior_only,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)

    # driver holds ONLY the fixed-size carry rows (<= 2 per block)
    carry_tables = []
    for batch in scanned.iter_batches(batch_format="pyarrow"):
        kept = batch.filter(pc.equal(batch["__rt"], 2))
        if kept.num_rows:
            carry_tables.append(kept)

    def pending_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["__rt"], 1))
        return kept.select(left_names + [key_col, t_col])

    pending_ds = scanned.map_batches(pending_only,
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
    if carry_tables:
        carry = pa.concat_tables(carry_tables,
                                 promote_options="default") \
            .select([key_col, t_col] + value_columns)
        # pending rows resolve DISTRIBUTED: the carry rows are the
        # right side of a broadcast as-of probe (same kernel as the
        # dimension-sized variant)
        resolved = asof_join_backward(pending_ds, carry, key_col,
                                      key_col, t_col, t_col,
                                      value_columns)
    else:
        def null_values(batch: pa.Table) -> pa.Table:
            out = batch
            for c in value_columns:
                out = out.append_column(
                    c, pa.nulls(batch.num_rows, value_types[c]))
            return out

        resolved = pending_ds.map_batches(null_values,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(out_names)

    return interior.union(resolved.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True))


def grouped_distinct_count(ds, key: str, col: str):
    """Exact ``count(DISTINCT col) GROUP BY key``: a per-block
    distinct combiner on (key, col) pairs bounds what the first
    shuffle moves, a global (key, col) groupby dedupes, then the
    already-reduced distinct pairs re-aggregate per key. NULL values
    don't count (SQL COUNT(DISTINCT)); NULL keys form their own
    group. Returns (key, n_distinct)."""
    from ray.data.aggregate import Count, Sum

    def uniq(batch: pa.Table) -> pa.Table:
        t = batch.select([key, col]).filter(pc.is_valid(batch[col]))
        return safe_groupby_aggregate(t, [key, col], [])

    # the Count is a throwaway (Ray's groupby needs >= 1 agg); the
    # shuffle's purpose is the global (key, col) dedupe
    pairs = null_safe_grouped_aggregate(
        ds.map_batches(uniq, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key, col], [Count(alias_name="__c")], ["__c"])

    def ones(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select([key]), [key]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([key, "n_distinct"])

    return null_safe_grouped_aggregate(
        pairs.map_batches(ones, batch_format="pyarrow",
                          zero_copy_batch=True),
        [key], [Sum("n_distinct", alias_name="n_distinct")],
        ["n_distinct"])


def grouped_distinct_count_sorted(ds, key: str, col: str):
    """Exact ``count(DISTINCT col) GROUP BY key``, sort-based:
    :func:`.sorted_scan.stitch` on ``(key, col)`` makes each key's
    values contiguous and ordered, so a vectorized adjacent-inequality
    pass counts distinct values per segment exactly. Key segments
    wholly inside a block finalize there; the first/last segment of
    each block is a piece ``(n_distinct, first_value, last_value)``,
    and the driver stitches a key's O(n_blocks) pieces — two adjacent
    pieces merge by subtracting 1 when the boundary values are equal.

    vs :func:`grouped_distinct_count`: same result, ONE all-to-all
    instead of two, and no reliance on (key, value)-pair combining —
    prefer this shape when values are high-cardinality per key (the
    pair combiner would barely reduce). NULL values don't count; NULL
    keys form their own group. Returns (key, n_distinct).
    """
    from .sorted_scan import _np, stitch

    def prep(batch: pa.Table) -> pa.Table:
        return batch.select([key, col]) \
            .filter(pc.is_valid(batch[col]))

    def pieces(batch: pa.Table, seg_ids, starts):
        n = batch.num_rows
        ends = np.append(starts[1:], n)
        varr = batch[col].combine_chunks()
        # a row opens a new value run iff it starts a segment or
        # differs from its predecessor
        neq = pc.fill_null(pc.not_equal(varr.slice(1), varr.slice(
            0, n - 1)), True).to_numpy(zero_copy_only=False)
        new_run = np.concatenate([[True], neq])
        new_run[starts] = True
        runs = np.cumsum(new_run)
        n_distinct = runs[ends - 1] - runs[starts] + 1
        edge = np.zeros(len(starts), bool)
        edge[[0, -1]] = True
        return starts, {
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "__first": varr.take(pa.array(starts)),
            "__last": varr.take(pa.array(ends - 1))}, edge

    def merge(carries: pa.Table):
        # value ranges are sorted within a key, so block order is
        # (first, last) order
        t = carries.sort_by([("__first", "ascending"),
                             ("__last", "ascending")])
        first, last = t["__first"].to_pylist(), t["__last"].to_pylist()
        total = int(_np(t["n_distinct"]).sum()) - sum(
            1 for a, b in zip(last, first[1:]) if a == b)
        return [(0, {"n_distinct": total})]

    return stitch(ds.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True),
                  [key], [col], "grouped_distinct_count_sorted", pieces,
                  merge, [key, "n_distinct"])


def melt(ds, id_cols: List[str], value_cols: List[str],
         var_name: str = "variable", value_name: str = "value"):
    """UNPIVOT / melt: one output row per (input row, value column),
    with the source column's name in ``var_name`` and its value cast
    to float64 in ``value_name`` (SQL ``UNPIVOT`` / ``UNION ALL`` of
    per-column SELECTs). Embarrassingly parallel — a per-batch
    k-way concat of zero-copy column slices, no shuffle, no per-row
    Python; k stays the number of melted columns."""

    def expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parts = []
        for c in value_cols:
            cols = {k: batch[k] for k in id_cols}
            cols[var_name] = pa.array([c] * n, pa.string()) if n else \
                pa.array([], pa.string())
            cols[value_name] = pc.cast(batch[c], pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(expand, batch_format="pyarrow",
                          zero_copy_batch=True)


def weighted_sample(ds, key_column: str, weight_column: str, k: int,
                    seed: int = 0) -> pa.Table:
    """Deterministic weighted sample of k rows without replacement —
    Efraimidis–Spirakis A-Res with a hash-derived uniform: each row
    scores ``ln(u) / w`` where ``u = (2*(splitmix64(key+seed)>>11)+1)
    / 2^54`` (strictly inside (0,1), so the log is finite on both
    the engine and SQL side) and the k largest scores win; a row's
    win probability is proportional to its weight. No RNG state, no
    shuffle: the same per-block partial top-k + O(k*blocks) driver
    merge as :func:`top_k`, repeatable across runs and resumes.
    Rows with null keys or null/non-positive weights never win; ties
    (score, then key) are totally ordered.

    Float discipline: block-level pruning scores with numpy's
    vectorized log (up to 2 ulps off libm — a candidate is lost only
    if it sits within that of its block's k-th score), and the final
    k are re-ranked DRIVER-SIDE over the <= k x n_blocks candidates
    with ``math.log``, bitwise-equal to DuckDB ``ln``, so the
    decision boundary matches the SQL oracle exactly."""
    import math

    from ..state.sketches import hash_ints

    def _u(col: pa.Array) -> np.ndarray:
        vals = pc.cast(col.fill_null(0), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = hash_ints((vals.astype(np.uint64)
                       + np.uint64(seed)).view(np.int64))
        return ((h >> np.uint64(11)).astype(np.float64) * 2.0 + 1.0) \
            / float(1 << 54)

    def scored(batch: pa.Table) -> pa.Table:
        col = batch[key_column].combine_chunks()
        w = pc.cast(batch[weight_column], pa.float64()).combine_chunks()
        valid = (pc.is_valid(col).to_numpy(zero_copy_only=False)
                 & pc.fill_null(pc.greater(w, 0.0), False)
                 .to_numpy(zero_copy_only=False))
        wv = pc.fill_null(w, 1.0).to_numpy(zero_copy_only=False)
        score = np.log(_u(col)) / np.maximum(wv, 1e-300)
        return batch.filter(pa.array(valid)).append_column(
            "__ws", pa.array(score[valid], pa.float64()))

    best = top_k(ds.map_batches(scored, batch_format="pyarrow",
                                zero_copy_batch=True),
                 ["__ws", key_column], [True, False], k)
    best = best.drop_columns(["__ws"])
    if best.num_rows == 0:
        return best
    # exact re-rank of the candidate set with libm log
    u = _u(best[key_column].combine_chunks())
    wv = pc.cast(best[weight_column], pa.float64()) \
        .to_numpy(zero_copy_only=False)
    exact = np.array([math.log(x) for x in u]) / wv
    order = pc.sort_indices(pa.table({
        "__ws": pa.array(exact, pa.float64()),
        key_column: best[key_column]}),
        sort_keys=[("__ws", "descending"), (key_column, "ascending")])
    return best.take(order[:k])


def split_assign(ds, key_column: str, fractions,
                 names=("train", "val", "test"), seed: int = 0,
                 out: str = "split"):
    """Deterministic dataset split — the train/val/test assignment
    step: a row lands in split i when its uniform hash
    ``splitmix64(key+seed)`` falls in that split's integer threshold
    band (exact uint64 cut points, same construction as
    :func:`mixture_sample`, so SQL oracles compare the SAME
    integers). Shuffle-free per-batch column append; repeatable
    across runs/resumes and consistent across tables sharing the
    key. ``fractions`` are the first ``len(names)-1`` split sizes
    (the last split takes the remainder); NULL keys get a NULL
    split."""
    from ..state.sketches import hash_ints

    if len(fractions) != len(names) - 1:
        raise ValueError("need len(names)-1 fractions"
                         f" ({len(names) - 1}), got {len(fractions)}")
    cuts = np.array([min(max(int(sum(fractions[:i + 1])
                               * float(1 << 64)), 0), (1 << 64) - 1)
                     for i in range(len(fractions))], dtype=np.uint64)

    def assign(batch: pa.Table) -> pa.Table:
        col = batch[key_column].combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        vals = pc.cast(col.fill_null(0), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = hash_ints((vals.astype(np.uint64)
                       + np.uint64(seed)).view(np.int64))
        idx = np.searchsorted(cuts, h, side="right")
        lab = np.asarray(list(names), dtype=object)[idx]
        return batch.append_column(
            out, pa.array(lab.tolist(), pa.string(),
                          mask=~valid))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def split_thresholds(fractions) -> list:
    """The exact uint64 cut points :func:`split_assign` uses, for
    SQL oracles."""
    return [min(max(int(sum(fractions[:i + 1]) * float(1 << 64)), 0),
                (1 << 64) - 1) for i in range(len(fractions))]


def share_of_group(ds, key: str, value: str, out: str = "share_e6"):
    """Ratio-to-report window: each row gains its value's share of
    its group's total — SQL ``value / sum(value) OVER (PARTITION BY
    key)`` — fixed-pointed to ``floor(x*1e6+0.5)`` BIGINT so the
    division is the only float step and both engine and SQL compute
    it from the SAME exact integers (int64 value sums).

    Shape: a combiner-backed grouped SUM (group-sized), totals
    broadcast ONCE through the object store as the EXACT key array +
    totals (``pc.index_in`` lookup — no hash routing, so two live
    keys can never collide onto each other's total), then a
    stateless scan — no row-sized shuffle, no join. Requires an
    integer value column (exact sums); NULL values contribute
    nothing and get a NULL share, NULL keys form their own group
    (``index_in`` matches the value-set's null slot), zero-total
    groups yield NULL (SQL NULL division)."""
    import ray
    from ray.data.aggregate import Sum

    def pre(batch: pa.Table) -> pa.Table:
        # per-batch type check (Dataset.schema() on a lazy pipeline
        # would execute it once extra just to inspect types)
        if not pa.types.is_integer(batch[value].type):
            raise ValueError("share_of_group requires an integer"
                             " value column (exact distributed sums)")
        g = pa.TableGroupBy(batch.select([key, value]), key) \
            .aggregate([(value, "sum")])
        return pa.table({key: g[key],
                         "__t": g[f"{value}_sum"].cast(pa.int64())})

    totals_parts = []
    agg = null_safe_grouped_aggregate(
        ds.map_batches(pre, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], [Sum("__t", alias_name="__t")], ["__t"])
    for b in agg.iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            totals_parts.append(t)
    if not totals_parts:
        return ds.map_batches(
            lambda b: b.append_column(out, pa.nulls(b.num_rows,
                                                    pa.int64())),
            batch_format="pyarrow", zero_copy_batch=True)
    totals = pa.concat_tables(totals_parts, promote_options="default")
    keys_arr = totals[key].combine_chunks()
    tv = totals["__t"].to_numpy(zero_copy_only=False).astype(np.int64)
    handle = ray.put((keys_arr, tv))

    def score(batch: pa.Table) -> pa.Table:
        ks, tot = ray.get(handle)
        idx = pc.index_in(batch[key].combine_chunks(), value_set=ks)
        found = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        pos = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
        t = np.where(found, tot[pos], 0).astype(np.float64)
        v = pc.cast(batch[value], pa.float64()).combine_chunks()
        vn = pc.fill_null(v, 0.0).to_numpy(zero_copy_only=False)
        share = np.floor(vn / np.where(t == 0, np.nan, t) * 1e6 + 0.5)
        ok = (~np.isnan(share)) \
            & pc.is_valid(v).to_numpy(zero_copy_only=False)
        return batch.append_column(out, pa.array(
            np.where(ok, share, 0).astype(np.int64), pa.int64(),
            mask=~ok))

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def grouped_weighted_mean(ds, key: str, value: str, weight: str,
                          scale: int = 10 ** 6,
                          out: str = "wmean_fp"):
    """Per-group weighted mean, ALL-INTEGER: value quantizes per
    element to ``floor(v * scale + 0.5)`` int64 (SQL's exact tie
    rule), weights round the same way, and the mean is
    ``sum(q(v) * w) // sum(w)`` — fixed-point-before-sum, so the
    result is summation-order-free and hash-exact vs DuckDB. The
    division TRUNCATES toward zero, exactly DuckDB ``//`` on
    integers (which truncates: ``-7 // 2 = -3`` there — NOT Python
    floor). NULL values/weights drop pairwise, and so do pairs whose
    rounded weight is <= 0 (weights are counts/sizes by contract);
    a group with no surviving pairs is ABSENT from the result,
    matching a SQL pre-filtered GROUP BY. Overflow envelope: pick
    ``scale`` so ``n_rows_per_group * v_max * scale * w_max``
    stays under 2^63 — numpy wraps silently past it while DuckDB
    rides HUGEINT.

    Shape: per-block (key)-combiner reduces to two int64 partial
    sums per key per block; ONE key-sized groupby finishes. Returns
    a Dataset of (key, out, w_sum)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[value], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        w = pc.cast(batch[weight], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        ok = ~(np.isnan(v) | np.isnan(w))
        qv = np.zeros(len(v), np.int64)
        qw = np.zeros(len(v), np.int64)
        qv[ok] = np.floor(v[ok] * scale + 0.5).astype(np.int64)
        qw[ok] = np.floor(w[ok] + 0.5).astype(np.int64)
        nonpos = qw <= 0
        qv[nonpos] = 0
        qw[nonpos] = 0
        g = pa.TableGroupBy(
            pa.table({key: batch[key],
                      "__vw": pa.array(qv * qw),
                      "__w": pa.array(qw)}),
            [key]).aggregate([("__vw", "sum"), ("__w", "sum")])
        return pa.table({key: g[key],
                         "__vw": g["__vw_sum"].cast(pa.int64()),
                         "__w": g["__w_sum"].cast(pa.int64())})

    agg = null_safe_grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key],
        [Sum("__vw", alias_name="__vw"), Sum("__w", alias_name="__w")],
        ["__vw", "__w"])

    def finish(batch: pa.Table) -> pa.Table:
        vw = pc.fill_null(batch["__vw"], 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        w = pc.fill_null(batch["__w"], 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        has = w > 0
        vw, w = vw[has], w[has]
        # DuckDB // truncates toward zero on integers — NOT floor
        m = np.sign(vw) * (np.abs(vw) // np.maximum(w, 1))
        t = batch.filter(pa.array(has))
        return pa.table({
            key: t[key],
            out: pa.array(m, pa.int64()),
            "w_sum": pa.array(w)})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def minmax_normalize_by_group(ds, key: str, value: str,
                              scale: int = 10 ** 6,
                              out: str = "norm_fp"):
    """Per-group min-max feature scaling, fixed-point:
    ``norm = ((q(v) - q(min)) * scale) // (q(max) - q(min))`` with
    ``q(x) = floor(x * scale + 0.5)`` int64 — all-integer, so the
    [0, scale] output hash-matches SQL exactly (non-negative
    numerator/denominator: floor == trunc, no // dialect gap).
    NULL values stay NULL; a degenerate group (min == max, incl.
    singletons) yields NULL like SQL's NULL division guard.

    Shape: one grouped min/max aggregate (per-block combiner,
    key-sized result broadcast via ``ray.put``) + one stateless
    scan appending ``out``."""
    import ray

    from ray.data.aggregate import Max, Min

    def quant(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[value], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        q = np.floor(v * scale + 0.5)
        return pa.table({
            key: batch[key],
            "__q": pa.array(q, pa.float64(),
                            mask=np.isnan(q) if np.isnan(q).any()
                            else None)})

    agg = null_safe_grouped_aggregate(
        ds.map_batches(quant, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key],
        [Min("__q", alias_name="__lo", ignore_nulls=True),
         Max("__q", alias_name="__hi", ignore_nulls=True)],
        ["__lo", "__hi"])

    parts = [pa.Table.from_batches([b]) if isinstance(
        b, pa.RecordBatch) else b
        for b in agg.iter_batches(batch_format="pyarrow")]
    parts = [t for t in parts if t.num_rows]
    if parts:
        th = pa.concat_tables(parts, promote_options="default")
        th = th.filter(pc.is_valid(th[key]))  # equality-join parity
        keys_arr = th[key].combine_chunks()
        lo = pc.cast(th["__lo"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        hi = pc.cast(th["__hi"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
    else:
        keys_arr = pa.array([])
        lo = hi = np.zeros(0)
    handle = ray.put((keys_arr, lo.astype(np.int64),
                      hi.astype(np.int64)))

    def norm(batch: pa.Table) -> pa.Table:
        keys_r, lo_r, hi_r = ray.get(handle)
        v = pc.cast(batch[value], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        q = np.floor(v * scale + 0.5)
        res = np.full(batch.num_rows, np.nan)
        if len(keys_r):
            idx = pc.index_in(batch[key], value_set=keys_r) \
                .to_numpy(zero_copy_only=False)
            have = ~np.isnan(idx.astype(np.float64)) \
                if idx.dtype.kind == "f" \
                else np.ones(len(idx), bool)
            ii = np.where(have, np.nan_to_num(
                idx.astype(np.float64)), 0).astype(np.int64)
            span = hi_r[ii] - lo_r[ii]
            ok = have & ~np.isnan(q) & (span > 0)
            num = (q[ok].astype(np.int64) - lo_r[ii[ok]]) * scale
            res[ok] = num // span[ok]
        m = np.isnan(res)
        return batch.append_column(
            out, pa.array(np.nan_to_num(res).astype(np.int64),
                          pa.int64(), mask=m if m.any() else None))

    return ds.map_batches(norm, batch_format="pyarrow",
                          zero_copy_batch=True)


def snapshot_diff(old_ds, new_ds, keys: List[str], compare: List[str],
                  out: str = "change"):
    """Snapshot-over-snapshot table diff — the incremental-pipeline
    primitive: classify every key as ``added`` (only in the new
    snapshot), ``removed`` (only in the old) or ``changed`` (present
    in both with any ``compare`` column differing under SQL
    ``IS DISTINCT FROM`` — NULL==NULL, NULL!=value); unchanged keys
    are dropped. Equivalent SQL: a FULL OUTER JOIN of the two
    snapshots on ``keys`` plus a CASE over the match/compare state.
    Keys must be unique WITHIN each snapshot (the operator raises on
    a duplicate — a diff over non-keyed rows is ill-defined).

    Scale shape: no join. Each side is tagged 0/1 and the union runs
    through ONE null-safe range-partitioned sort on (keys, side); a
    key then occupies at most two ADJACENT rows, so every interior
    key group classifies vectorized inside its sorted block, and
    only the first/last key group of each block (the boundary-
    straddle candidates, O(4 rows/block) regardless of data) re-
    unites through a tiny repartition(1) stitch — the same interior/
    edge discipline as the dedup candidate machinery. Compare
    columns ship once; nothing row-sized hits the driver. Returns a
    Dataset of (keys..., change)."""
    import ray  # noqa: F401  (parity with sibling operators)

    group_cols = [f"__gs{i}" for i in range(len(keys))]
    need = list(keys) + list(compare)

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.select(need).append_column(
                "__side", pa.array(np.full(batch.num_rows, side,
                                           np.int8)))
            t = encode_null_safe_keys(t, keys)
            # Ray's range-partitioned sort DUPLICATES rows when a
            # primary sort column contains nulls (nullable int64 /
            # timestamp keys) — ship every key column non-null
            # through the exchange (is-null flag + type-zero fill)
            # and restore right after the sort, so the scan logic
            # below still sees the original nullable encoding
            for i in range(len(keys)):
                c = f"__gs{i}"
                col = t[c]
                flag = pc.cast(pc.is_null(col), pa.int8())
                filled = col if _is_string_type(col.type) else \
                    pc.fill_null(col, _zero_scalar(col.type))
                t = t.set_column(t.column_names.index(c), c, filled) \
                    .append_column(f"__gs{i}f", flag)
            return t
        return fn

    sort_cols: List[str] = []
    for i in range(len(keys)):
        sort_cols += [f"__gs{i}f", f"__gs{i}"]

    def restore_nulls(batch: pa.Table) -> pa.Table:
        out_t = batch
        for i in range(len(keys)):
            f = f"__gs{i}f"
            c = f"__gs{i}"
            col = out_t[c]
            if not _is_string_type(col.type):
                restored = pc.if_else(
                    pc.equal(out_t[f], pa.scalar(1, pa.int8())),
                    pa.scalar(None, col.type), col)
                out_t = out_t.set_column(
                    out_t.column_names.index(c), c, restored)
            out_t = out_t.drop_columns([f])
        return out_t

    both = old_ds.map_batches(tag(0), batch_format="pyarrow",
                              zero_copy_batch=True) \
        .union(new_ds.map_batches(tag(1), batch_format="pyarrow",
                                  zero_copy_batch=True)) \
        .sort(sort_cols + ["__side"]) \
        .map_batches(restore_nulls, batch_format="pyarrow",
                     zero_copy_batch=True)

    def _newseg(batch: pa.Table) -> np.ndarray:
        # Arrow compares throughout: a numpy round-trip would coerce
        # nullable int64 keys to float64 and merge distinct keys
        # >= 2^53 into one segment
        n = batch.num_rows
        newseg = np.zeros(n, bool)
        newseg[0] = True
        for g in group_cols:
            col = batch[g].combine_chunks()
            a, b = col.slice(1), col.slice(0, n - 1)
            # null-safe IS DISTINCT FROM: NULL == NULL for grouping
            ne = pc.fill_null(pc.not_equal(a, b), True)
            both_null = pc.and_(pc.is_null(a), pc.is_null(b))
            newseg[1:] |= pc.and_(ne, pc.invert(both_null)) \
                .to_numpy(zero_copy_only=False)
        return newseg

    def _null_safe_ne(col: pa.Array, i0: np.ndarray,
                      i1: np.ndarray) -> np.ndarray:
        a = col.take(pa.array(i0, pa.int64()))
        b = col.take(pa.array(i1, pa.int64()))
        ne = pc.fill_null(pc.not_equal(a, b), True)
        both_null = pc.and_(pc.is_null(a), pc.is_null(b))
        return pc.and_(ne, pc.invert(both_null)) \
            .to_numpy(zero_copy_only=False)

    def _classify(batch: pa.Table, interior_only: bool) -> pa.Table:
        """Verdict table over this block's segments (interior
        segments only when ``interior_only``)."""
        empty_v = pa.schema(
            [(g, batch[g].type) for g in group_cols]
            + [(out, pa.string())]).empty_table()
        n = batch.num_rows
        if n == 0:
            return empty_v
        newseg = _newseg(batch)
        starts = np.nonzero(newseg)[0]
        ends = np.concatenate([starts[1:], [n]])
        g = len(starts)
        if interior_only and g <= 2:
            # every segment touches a boundary: all rows are edge
            return empty_v
        lo = 1 if interior_only else 0
        hi = g - 1 if interior_only else g
        s_in, e_in = starts[lo:hi], ends[lo:hi]
        sizes = e_in - s_in
        if (sizes > 2).any():
            raise ValueError(
                "snapshot_diff: a key appears more than twice across"
                " the two snapshots (duplicate key in a snapshot)")
        side = batch["__side"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        one = s_in[sizes == 1]
        two = s_in[sizes == 2]
        if len(two) and (side[two] != 0).any() or \
                len(two) and (side[two + 1] != 1).any():
            raise ValueError(
                "snapshot_diff: duplicate key within one snapshot")
        verdicts = np.empty(len(s_in), dtype=object)
        vmap = {s: i for i, s in enumerate(s_in)}
        for s in one:
            verdicts[vmap[s]] = "removed" if side[s] == 0 else "added"
        keep = np.ones(len(s_in), bool)
        if len(two):
            ch = np.zeros(len(two), bool)
            for c in compare:
                ch |= _null_safe_ne(batch[c].combine_chunks(),
                                    two, two + 1)
            for s, is_ch in zip(two, ch):
                verdicts[vmap[s]] = "changed"
                if not is_ch:
                    keep[vmap[s]] = False
        take_idx = s_in[keep]
        return batch.select(group_cols) \
            .take(pa.array(take_idx, pa.int64())) \
            .append_column(out, pa.array(verdicts[keep].tolist(),
                                         pa.string()))

    def interior(batch: pa.Table) -> pa.Table:
        return _classify(batch, interior_only=True)

    def edge_rows(batch: pa.Table) -> pa.Table:
        # boundary extraction needs only the segment bounds — no
        # verdict/compare work (that runs once, in interior/stitch)
        n = batch.num_rows
        if n == 0:
            return batch
        starts = np.nonzero(_newseg(batch))[0]
        if len(starts) <= 2:
            return batch  # every segment touches a boundary
        eidx = np.concatenate([np.arange(0, starts[1]),
                               np.arange(starts[-1], n)])
        return batch.take(pa.array(eidx, pa.int64()))

    def stitch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _classify(batch, interior_only=False)
        srt = batch.sort_by([(g, "ascending") for g in group_cols]
                            + [("__side", "ascending")])
        return _classify(srt, interior_only=False)

    scanned = both.materialize()
    verdicts = scanned.map_batches(interior, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .union(scanned.map_batches(edge_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
               .repartition(1)
               .map_batches(stitch, batch_format="pyarrow",
                            batch_size=None))

    def decode(batch: pa.Table) -> pa.Table:
        return decode_null_safe_keys(batch, keys, [out])

    return verdicts.map_batches(decode, batch_format="pyarrow",
                                zero_copy_batch=True)


def category_overlap(ds, entity: str, category: str):
    """Audience-overlap (co-occurrence Jaccard) between every pair of
    categories: for categories a < b, how many distinct entities
    carry BOTH, and the Jaccard overlap of their entity sets — the
    "which event types / sources / tags share an audience" analytic.
    ``entity`` must be an integer column (hash string entities
    first); ``category`` is a string drawn from a SMALL alphabet
    (the output is alphabet²-sized). NULL entities and NULL
    categories drop (SQL DISTINCT + inner-join semantics).

    Returns a pyarrow Table (alphabet²-sized by construction) of
    (cat_a, cat_b, n_a, n_b, n_both, jaccard_e6) with cat_a < cat_b
    and ``jaccard_e6 = n_both * 1000000 // (n_a + n_b - n_both)`` —
    ALL-INTEGER arithmetic end to end, so there is no float rounding
    to mirror and the SQL twin is hash-exact by construction.

    Scale shape: the corpus reduces to DISTINCT (entity, category)
    rows via per-block dedupe + one pair-cardinality groupby BEFORE
    anything quadratic. For alphabets of <= 63 categories (the
    stated contract) the pair expansion is BITMASK-free of sorts
    and quadratic work entirely: each distinct pair contributes
    ``1 << code`` and, because the pair set is globally unique,
    per-entity bitmasks are SUM-mergeable — one entity-keyed
    aggregate yields each entity's category set as an int64, blocks
    then count entities per MASK locally, and the driver folds the
    <= 2^alphabet (in practice alphabet²-ish) mask counts into pair
    co-occurrence counts with popcount combinatorics. Wider
    alphabets fall back to :func:`dedup._bucket_candidate_pairs`
    (ONE sort on entity, vectorized upper-triangle interior
    segments, O(blocks) edge stitch — a hot entity expands in a
    worker, never on the driver) with an alphabet²-sized count
    exchange. Driver state either way: the category alphabet,
    per-category totals, and mask/pair counts — alphabet-bounded.
    """
    from ray.data.aggregate import Sum

    from .dedup import _bucket_candidate_pairs

    def distinct_block(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch[entity]),
                    pc.is_valid(batch[category]))
        t = batch.select([entity, category]).filter(m)
        g = safe_groupby_aggregate(t, [entity, category],
                                   [([], "count_all")])
        return pa.table({entity: g[entity], category: g[category],
                         "__c": g["count_all"].cast(pa.int64())})

    pairs = null_safe_grouped_aggregate(
        ds.map_batches(distinct_block, batch_format="pyarrow",
                       zero_copy_batch=True),
        [entity, category], [Sum("__c", alias_name="__c")],
        ["__c"]).materialize()

    # per-category distinct-entity totals: alphabet-sized, and the
    # code assignment follows SORTED category order so integer pair
    # order == the oracle's lexicographic cat_a < cat_b.
    # driver_merge: the input is the materialized distinct-pair set
    # and the group count is the category alphabet — the documented
    # low-cardinality fast path (alphabet x blocks partials), so the
    # totals never pay a Ray Aggregate all-to-all
    per_cat = grouped_aggregate(pairs, [category],
                                [(None, "count")], driver_merge=True)
    if per_cat is None or per_cat.num_rows == 0:
        return pa.table({
            "cat_a": pa.array([], pa.string()),
            "cat_b": pa.array([], pa.string()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "n_both": pa.array([], pa.int64()),
            "jaccard_e6": pa.array([], pa.int64())})
    per_cat = per_cat.sort_by([(category, "ascending")])
    cats = per_cat[category].to_pylist()
    totals = per_cat["rows_count"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    cat_arr = pa.array(cats, pa.string())

    if len(cats) <= 63:
        # bitmask path: pairs are globally DISTINCT, so each
        # entity's category-set mask is the SUM of its pairs' bits —
        # sum-mergeable through one entity-keyed aggregate; no sort,
        # no quadratic expansion
        from ray.data.aggregate import Sum as _Sum

        def bit_partial(batch: pa.Table) -> pa.Table:
            code = pc.cast(pc.index_in(batch[category],
                                       value_set=cat_arr),
                           pa.int64()).combine_chunks() \
                .to_numpy(zero_copy_only=False)
            t = pa.table({
                entity: pc.cast(batch[entity], pa.int64()),
                "__bit": pa.array(np.int64(1) << code)})
            g = safe_groupby_aggregate(t, [entity],
                                       [("__bit", "sum")])
            return pa.table({entity: g[entity],
                             "__bit": g["__bit_sum"]})

        masks = null_safe_grouped_aggregate(
            pairs.map_batches(bit_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
            [entity], [_Sum("__bit", alias_name="__m")], ["__m"])

        def mask_counts(batch: pa.Table) -> pa.Table:
            g = safe_groupby_aggregate(
                batch.select(["__m"]), ["__m"], [([], "count_all")])
            return g.rename_columns(["__m", "__c"])

        counts: dict = {}
        for b in masks.map_batches(mask_counts,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True) \
                .iter_batches(batch_format="pyarrow"):
            for m, c in zip(b["__m"].to_pylist(),
                            b["__c"].to_pylist()):
                counts[m] = counts.get(m, 0) + c
        mk = np.array(list(counts.keys()), np.int64)
        mc = np.array(list(counts.values()), np.int64)
        ia_l, ib_l, nb_l = [], [], []
        for a in range(len(cats)):
            in_a = (mk >> a) & 1
            for bb in range(a + 1, len(cats)):
                nb = int(mc[(in_a & ((mk >> bb) & 1)) == 1].sum()) \
                    if len(mk) else 0
                if nb > 0:
                    ia_l.append(a)
                    ib_l.append(bb)
                    nb_l.append(nb)
        ia = np.array(ia_l, np.int64)
        ib = np.array(ib_l, np.int64)
        nboth = np.array(nb_l, np.int64)
    else:
        def encode(batch: pa.Table) -> pa.Table:
            code = pc.cast(pc.index_in(batch[category],
                                       value_set=cat_arr), pa.int64())
            return pa.table({"bucket": pc.cast(batch[entity],
                                               pa.int64()),
                             "id": code})

        coded = pairs.map_batches(encode, batch_format="pyarrow",
                                  zero_copy_batch=True)
        both = _bucket_candidate_pairs(coded, "id", distinct=False) \
            .groupby(["id_a", "id_b"]).count()

        tables = [pa.Table.from_batches([b])
                  if isinstance(b, pa.RecordBatch) else b
                  for b in both.iter_batches(batch_format="pyarrow")]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            merged = pa.table({"id_a": pa.array([], pa.int64()),
                               "id_b": pa.array([], pa.int64()),
                               "count()": pa.array([], pa.int64())})
        else:
            merged = pa.concat_tables(tables,
                                      promote_options="default")
        ia = merged["id_a"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ib = merged["id_b"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nboth = merged.column(2).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
    na, nb = totals[ia], totals[ib]
    union = na + nb - nboth
    jac = np.where(union > 0, nboth * 1000000 // np.maximum(union, 1),
                   0).astype(np.int64)
    cats_np = np.array(cats, dtype=object)
    out = pa.table({
        "cat_a": pa.array(cats_np[ia].tolist(), pa.string()),
        "cat_b": pa.array(cats_np[ib].tolist(), pa.string()),
        "n_a": pa.array(na), "n_b": pa.array(nb),
        "n_both": pa.array(nboth),
        "jaccard_e6": pa.array(jac)})
    return out.sort_by([("cat_a", "ascending"), ("cat_b", "ascending")])


def grouped_agg_sorted(ds, key: str, value: str, agg: str = "sum",
                       having_min=None, out: str = None):
    """Exact ``agg(value) GROUP BY key`` (agg in sum|max|min) with an
    optional ``HAVING agg >= having_min`` applied only AFTER full
    aggregation — a threshold must never see a per-block partial
    (the combiner-vs-threshold loss class), which is why the plain
    pre-aggregate path can't express TPC-H Q18-style gates.

    Scale shape: per-block partials combine first (a hot key ships
    <= 1 row per block), then :func:`.sorted_scan.stitch` on ``key``:
    interior key segments finalize vectorized in-block (np
    ``reduceat``), and only each block's first/last segment —
    O(blocks) fixed-size pieces — merges driver-side and is emitted
    once. ``value`` must already be integer (the house
    int64-fixed-point-before-sum discipline; per-key sum(|v|) must
    stay < 2^63). NULL values drop (SQL aggregate semantics); NULL
    keys form their own group. Returns a Dataset of (key, out),
    group-sized (post-HAVING when ``having_min`` is given)."""
    from .sorted_scan import _np, stitch

    if agg not in ("sum", "max", "min"):
        raise ValueError(f"agg must be sum|max|min, got {agg!r}")
    out = out or f"{value}_{agg}"
    reducer = {"sum": np.add, "max": np.maximum,
               "min": np.minimum}[agg]

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key, value]) \
            .filter(pc.is_valid(batch[value]))
        if not pa.types.is_integer(t.schema.field(value).type):
            raise ValueError(
                "grouped_agg_sorted: value must be integer "
                f"fixed-point, got {t.schema.field(value).type}")
        g = safe_groupby_aggregate(t, [key], [(value, agg)])
        return pa.table({key: g[key],
                         "__v": pc.cast(g[f"{value}_{agg}"],
                                        pa.int64())})

    def passes(v):
        return having_min is None or v >= int(having_min)

    def pieces(batch: pa.Table, seg_ids, starts):
        totals = reducer.reduceat(_np(batch["__v"]).astype(np.int64),
                                  starts)
        edge = np.zeros(len(starts), bool)
        edge[[0, -1]] = True
        keep = edge | passes(totals)
        return starts[keep], {out: pa.array(totals[keep], pa.int64())}, \
            edge[keep]

    def merge(carries: pa.Table):
        total = int(reducer.reduce(_np(carries[out])))
        return [(0, {out: total})] if passes(total) else []

    return stitch(ds.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True),
                  [key], [], "grouped_agg_sorted", pieces, merge,
                  [key, out])


def grouped_distinct_sum_sorted(ds, key: str, sub: str,
                                value: Optional[str] = None,
                                having_min_distinct: Optional[int] = None,
                                out_distinct: str = "n_distinct",
                                out_sum: str = "n_rows"):
    """Exact per-key ``(COUNT(DISTINCT sub), SUM(value|COUNT(*)))``
    — SQL ``GROUP BY key`` with a distinct sub-count — WITHOUT the
    per-group Python cost of Ray's ``groupby().aggregate()``, which
    collapses at high group cardinality (~600k groups cost seconds
    of per-group interpreter work; the same pathology
    ``grouped_agg_sorted`` exists for).

    Shape: :func:`grouped_multi_agg_sorted` with one sum measure and
    ``distinct_sub=sub`` — per-block ``(key, sub)`` combiners, ONE
    sort on ``(key, sub)``, interior key segments final in-block,
    O(blocks) edge pieces carrying their first/last sub so a pair
    straddling blocks is never double-counted. ``HAVING n_distinct >=
    having_min_distinct`` applies only AFTER full aggregation.
    Requires NON-NULL integer ``key``/``sub`` columns (raise
    otherwise — callers hash/encode first, the house int64
    discipline); ``value`` (optional) must be integer, summed
    exactly; absent means COUNT(*). Returns a Dataset of
    ``(key, out_distinct, out_sum)``, group-sized post-HAVING."""
    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__one", pa.array(np.ones(batch.num_rows, np.int64)))

    sums = grouped_multi_agg_sorted(
        ds if value else ds.map_batches(ones, batch_format="pyarrow",
                                        zero_copy_batch=True),
        key, [(value or "__one", "sum", out_sum)], distinct_sub=sub,
        out_distinct=out_distinct)

    def having(batch: pa.Table) -> pa.Table:
        out = batch.select([key, out_distinct, out_sum])
        if having_min_distinct is None:
            return out
        return out.filter(pc.greater_equal(
            out[out_distinct], pa.scalar(int(having_min_distinct))))

    return sums.map_batches(having, batch_format="pyarrow",
                            zero_copy_batch=True)


def grouped_multi_agg_sorted(ds, key: str, specs,
                             key_out: Optional[str] = None,
                             distinct_sub: Optional[str] = None,
                             distinct_ignore: Optional[int] = None,
                             out_distinct: str = "n_distinct"):
    """Several exact aggregates ``GROUP BY key`` in ONE sorted scan —
    ``specs`` is a list of ``(value_col, agg, out_col)`` with agg in
    sum|min|max — for the high-group-cardinality regime where Ray's
    ``groupby().aggregate()`` pays per-group Python
    (``grouped_agg_sorted``'s pathology, lifted to multi-measure
    shapes like per-conversation turn/tool/span profiles).

    ``distinct_sub`` additionally computes an exact
    ``COUNT(DISTINCT sub)`` per key ON THE SAME SORT (the sort key
    becomes ``(key, sub)``, per-block partials combine on the pair,
    pair-boundary rows count vectorized, and each edge segment
    carries its first/last sub so a pair straddling blocks is never
    double-counted — the :func:`grouped_distinct_sum_sorted`
    machinery folded in, saving that primitive's second sort when a
    query needs both). ``sub`` must be NON-NULL integer; rows whose
    sub equals ``distinct_ignore`` (the caller's null sentinel)
    still aggregate their measures but are excluded from the
    distinct count. The result gains an ``out_distinct`` column.

    Scale shape: identical to :func:`grouped_agg_sorted` — per-block
    combiners, then :func:`.sorted_scan.stitch` on ``key``:
    ``reduceat`` interiors, O(blocks) first/last-segment pieces
    stitched driver-side — but every measure rides the same sort. Values may
    be NULL (SQL semantics: ignored; an all-null group yields NULL —
    per-measure valid counts travel with the partials). ``key`` must
    be NON-NULL integer (callers encode strings/nulls first);
    values must be integer columns. Returns a Dataset of
    ``(key_out or key, *outs[, out_distinct])``, group-sized."""
    from .sorted_scan import _np, stitch

    _identity = {"sum": 0,
                 "min": (1 << 63) - 1,
                 "max": -(1 << 63)}
    _reducer = {"sum": np.add, "min": np.minimum, "max": np.maximum}
    for _, agg, _o in specs:
        if agg not in _identity:
            raise ValueError(f"agg must be sum|min|max, got {agg!r}")
    key_out = key_out or key
    outs = [o for _, _, o in specs]
    group_cols = [key] + ([distinct_sub] if distinct_sub else [])

    def partial(batch: pa.Table) -> pa.Table:
        for c in group_cols:
            f = batch.schema.field(c)
            if not pa.types.is_integer(f.type):
                raise ValueError(
                    f"grouped_multi_agg_sorted: {c} must be "
                    f"an integer column, got {f.type}")
            if batch[c].null_count:
                raise ValueError(
                    f"grouped_multi_agg_sorted: {c} contains"
                    " nulls; encode them to a sentinel first")
        aggs = []
        t_cols = {c: pc.cast(batch[c], pa.int64())
                  for c in group_cols}
        for col, agg, out in specs:
            cf = batch.schema.field(col)
            if not pa.types.is_integer(cf.type):
                raise ValueError(
                    f"grouped_multi_agg_sorted: {col} must be integer"
                    f" fixed-point, got {cf.type}")
            t_cols[f"__v_{out}"] = pc.cast(batch[col], pa.int64())
            t_cols[f"__c_{out}"] = pc.cast(
                pc.is_valid(batch[col]), pa.int64())
            aggs += [(f"__v_{out}", agg), (f"__c_{out}", "sum")]
        g = safe_groupby_aggregate(pa.table(t_cols), group_cols, aggs)
        cols = {c: pc.cast(g[c], pa.int64()) for c in group_cols}
        for col, agg, out in specs:
            cols[f"__v_{out}"] = pc.cast(
                g[f"__v_{out}_{agg}"], pa.int64())
            cols[f"__c_{out}"] = pc.cast(
                g[f"__c_{out}_sum"], pa.int64())
        return pa.table(cols)

    def pieces(batch: pa.Table, seg_ids, starts):
        edge = np.zeros(len(starts), bool)
        edge[[0, -1]] = True
        cols = {}
        for _c, agg, out in specs:
            filled = _np(pc.fill_null(batch[f"__v_{out}"],
                                      _identity[agg])).astype(np.int64)
            cols[f"__v_{out}"] = pa.array(
                _reducer[agg].reduceat(filled, starts))
            cols[f"__c_{out}"] = pa.array(
                np.add.reduceat(_np(batch[f"__c_{out}"]), starts))
        if distinct_sub:
            s = _np(batch[distinct_sub])
            counted = np.concatenate([[True], s[1:] != s[:-1]])
            counted[starts] = True
            if distinct_ignore is not None:
                counted &= s != distinct_ignore
            cols[out_distinct] = pa.array(
                np.add.reduceat(counted.astype(np.int64), starts))
            cols["__fs"] = pa.array(s[starts].astype(np.int64))
            cols["__ls"] = pa.array(
                s[np.append(starts[1:], len(s)) - 1].astype(np.int64))
        return starts, cols, edge

    def merge(carries: pa.Table):
        vals = {}
        for _c, agg, out in specs:
            vals[f"__v_{out}"] = int(
                _reducer[agg].reduce(_np(carries[f"__v_{out}"])))
            vals[f"__c_{out}"] = int(_np(carries[f"__c_{out}"]).sum())
        if distinct_sub:
            # sub ranges are globally sorted within a key, so block
            # order == (first_sub, last_sub) order; a pair straddling
            # B blocks appears as B adjacent pieces sharing boundary
            # subs — an ignored-sentinel boundary was counted by
            # neither side, so it never subtracts
            t = carries.sort_by([("__fs", "ascending"),
                                 ("__ls", "ascending")])
            fs, ls = _np(t["__fs"]), _np(t["__ls"])
            dup = ls[:-1] == fs[1:]
            if distinct_ignore is not None:
                dup &= ls[:-1] != distinct_ignore
            vals[out_distinct] = int(_np(t[out_distinct]).sum()
                                     - dup.sum())
        return [(0, vals)]

    def finish(t: pa.Table) -> pa.Table:
        cols = {key_out: t[key]}
        for _c, _a, out in specs:
            cols[out] = pc.if_else(
                pc.greater(t[f"__c_{out}"], 0),
                t[f"__v_{out}"], pa.scalar(None, pa.int64()))
        if distinct_sub:
            cols[out_distinct] = pc.cast(t[out_distinct], pa.int64())
        return pa.table(cols)

    measures = [f"__{p}_{out}" for out in outs for p in "vc"]
    return stitch(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key], group_cols[1:], "grouped_multi_agg_sorted", pieces, merge,
        [key] + measures + ([out_distinct] if distinct_sub else [])) \
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
