"""One sorted scan for every operator that reads a dataset in key
order: the null-safe sort, the key-segment test, empty blocks and the
carry round-trip live here and nowhere else.

- :func:`null_safe_sort` is the one range-partitioned sort. No sort
  column reaches Ray's exchange nullable, and NULL keys and NULL tail
  values order LAST.
- :func:`key_segments` is the one test of "same key as the previous
  row". It is null-safe: NULL equals NULL, NaN equals NaN and -0.0
  equals 0.0, as in SQL ``GROUP BY`` / ``PARTITION BY``.
- Empty blocks: when a dataset has more blocks than rows, the sort
  emits blocks with no rows and no columns. Ray Data's
  ``map_batches`` passes a zero-row block on without calling its
  function, so every scan, carry filter and resolve below sees a
  non-empty block with its columns; the driver fold skips zero-row
  batches. No operator guards for them.
- :func:`sorted_carry` is the sort-scan-carry round-trip: one sort
  and scan in one ``materialize``, a distributed carry filter, one
  driver fold, one ``ray.put`` and a lazy distributed resolve.
  :func:`stitch` builds on it for operators whose per-key-segment
  partial rows merge across block edges and are emitted once.
"""

from __future__ import annotations

import uuid
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_SEP = "\x1f"
_ESC = "\x1e"
_I64_MAX = (1 << 63) - 1


def _is_string_type(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _np(col) -> np.ndarray:
    """One Arrow column (chunked or not) as a numpy vector."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def encode_null_safe_keys(batch: pa.Table, keys: List[str]) -> pa.Table:
    """Replace the grouping-key columns with shuffle-safe ``__gs{i}``
    columns: STRING keys (which Ray's sort-based shuffle cannot order
    when null) become an invertible prefixed encoding — null -> "n",
    value -> "v" + value (total order, bijective) — while other types
    alias through zero-copy. The originals are dropped so the
    exchange ships exactly one column per key; ``decode`` inverts by
    TYPE (a string ``__gs{i}`` is always an encoding)."""
    out = batch
    for i, k in enumerate(keys):
        col = out[k]
        if _is_string_type(col.type):
            joined = pc.binary_join_element_wise("v", col, "")
            d = pc.if_else(pc.is_null(col), pa.scalar("n"), joined)
        else:
            d = col
        out = out.append_column(f"__gs{i}", d)
    return out.drop_columns(list(keys))


def decode_null_safe_keys(batch: pa.Table, keys: List[str],
                          out_columns: List[str]) -> pa.Table:
    """Invert :func:`encode_null_safe_keys` and project
    ``keys + out_columns`` in order."""
    cols = {}
    for i, k in enumerate(keys):
        d = batch[f"__gs{i}"]
        if _is_string_type(d.type):
            cols[k] = pc.if_else(
                pc.equal(d, "n"), pa.scalar(None, pa.string()),
                pc.utf8_slice_codeunits(d, 1))
        else:
            cols[k] = d
    for c in out_columns:
        cols[c] = batch[c]
    return pa.table(cols)


def _zero_scalar(t: pa.DataType):
    if pa.types.is_boolean(t):
        return pa.scalar(False, t)
    if _is_string_type(t):
        return pa.scalar("", t)
    return pa.scalar(0, t)


def null_safe_sort(ds, keys: List[str], tail: List[str]):
    """Range-partitioned sort tolerating null values in ANY sort
    column. String keys travel as the invertible prefixed encoding;
    every other key gains an ``__gs{i}f`` is-null flag (int8, sorted
    BEFORE the value at that key level) and its nulls filled with a
    type-zero — Ray's range-partitioned sort DUPLICATES rows
    nondeterministically when a sort column contains nulls (observed
    on nullable int64 and timestamp KEYS: 800-row inputs returned
    830-930 rows varying run to run, and on a nullable timestamp
    TAIL: 2,245-row inputs returned 2,462/2,631/2,510 rows on 3 of 12
    trials), so NO sort column may reach the exchange nullable. Tail
    columns therefore get the same ``__gt{i}f`` flag + type-zero fill
    treatment, sorted (flag, value) so nulls rank LAST within equal
    keys — exactly the NULLS-LAST tail order rank callers rely on —
    and ``decode`` restores the original nullable tail values."""
    group_cols = [f"__gs{i}" for i in range(len(keys))]

    def encode(batch: pa.Table) -> pa.Table:
        out = encode_null_safe_keys(batch, keys)
        # EVERY key/tail gains a flag so the sort-column list is
        # static (no lazy schema() peek, which would execute the
        # upstream); for string keys the prefixed encoding is already
        # non-null, so its flag is constant 0 and order is unchanged
        for i in range(len(keys)):
            c = f"__gs{i}"
            col = out[c]
            flag = pc.cast(pc.is_null(col), pa.int8())
            filled = col if _is_string_type(col.type) else \
                pc.fill_null(col, _zero_scalar(col.type))
            out = out.set_column(out.column_names.index(c), c,
                                 filled) \
                .append_column(f"__gs{i}f", flag)
        for i, c in enumerate(tail):
            col = out[c]
            flag = pc.cast(pc.is_null(col), pa.int8())
            out = out.set_column(
                out.column_names.index(c), c,
                pc.fill_null(col, _zero_scalar(col.type))) \
                .append_column(f"__gt{i}f", flag)
        return out

    sort_cols: List[str] = []
    for i in range(len(keys)):
        sort_cols += [f"__gs{i}f", f"__gs{i}"]
    for i, c in enumerate(tail):
        sort_cols += [f"__gt{i}f", c]

    def decode(batch: pa.Table) -> pa.Table:
        out = batch
        for i in range(len(keys)):
            f = f"__gs{i}f"
            c = f"__gs{i}"
            col = out[c]
            if not _is_string_type(col.type):
                restored = pc.if_else(
                    pc.equal(out[f], pa.scalar(1, pa.int8())),
                    pa.scalar(None, col.type), col)
                out = out.set_column(out.column_names.index(c), c,
                                     restored)
            out = out.drop_columns([f])
        for i, c in enumerate(tail):
            f = f"__gt{i}f"
            col = out[c]
            restored = pc.if_else(
                pc.equal(out[f], pa.scalar(1, pa.int8())),
                pa.scalar(None, col.type), col)
            out = out.set_column(out.column_names.index(c), c,
                                 restored) \
                .drop_columns([f])
        others = [c for c in out.column_names
                  if c not in group_cols]
        return decode_null_safe_keys(out, keys, others)

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .sort(sort_cols) \
        .map_batches(decode, batch_format="pyarrow",
                     zero_copy_batch=True)


def group_key_expr(batch: pa.Table, keys: List[str]) -> pa.Array:
    """One null-safe STRING key per row: each key column rendered as
    ``"v" + str(value)`` / ``"n"`` and joined with an unprintable
    separator. Only EQUALITY of the encoding matters (it is exact per
    column): it names a key in driver-side state and per-batch
    lookups, and its lexicographic order is never a result order.
    Injective: separator and escape bytes inside string values are
    escaped (multi-key only), and float ``-0.0`` folds onto ``0.0``
    (SQL GROUP BY equality)."""
    parts = []
    multi = len(keys) > 1
    for k in keys:
        col = batch[k]
        if _is_string_type(col.type):
            s = col
            if multi:
                s = pc.replace_substring(s, _ESC, _ESC + _ESC)
                s = pc.replace_substring(s, _SEP, _ESC + "s")
        else:
            if pa.types.is_floating(col.type):
                col = pc.add(col, pa.scalar(0.0, col.type))
            s = pc.cast(col, pa.string())
        parts.append(pc.if_else(
            pc.is_null(s), pa.scalar("n"),
            pc.binary_join_element_wise("v", s, "")))
    if len(parts) == 1:
        return parts[0] if isinstance(parts[0], pa.Array) \
            else parts[0].combine_chunks()
    out = pc.binary_join_element_wise(*parts, _SEP)
    return out if isinstance(out, pa.Array) else out.combine_chunks()


def key_segments(batch: pa.Table, keys: List[str]) -> np.ndarray:
    """The key-segment test: bool[n], True where a row of a
    key-sorted batch starts a new run of equal key tuples. Null-safe —
    NULL equals NULL, NaN equals NaN, -0.0 equals 0.0 — so a NULL or
    NaN key is ONE group, as in SQL ``GROUP BY``; a numpy ``!=`` on
    converted values would split it row by row. Exact: values are
    compared in Arrow, never through float64."""
    n = batch.num_rows
    same = np.ones(max(n - 1, 0), bool)
    for k in keys:
        col = batch[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_dictionary(col.type):
            col = col.dictionary_decode()
        a, b = col.slice(1), col.slice(0, n - 1)
        eq = pc.or_kleene(pc.equal(a, b),
                          pc.and_(pc.is_null(a), pc.is_null(b)))
        if pa.types.is_floating(col.type):
            eq = pc.or_kleene(eq, pc.and_(pc.is_nan(a), pc.is_nan(b)))
        same &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
    return np.concatenate([[True], ~same]) if n else np.zeros(0, bool)


def _int64_order(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_temporal(t) \
        or _is_string_type(t)


def order_np(batch: pa.Table, col: str,
             descending: bool = False) -> np.ndarray:
    """Order column as an EXACT ascending-sortable vector — the one
    position encoding for in-batch ranking and carry anchors alike.
    NULLs rank LAST either way (DuckDB's NULLS LAST default for ASC
    and DESC, and :func:`null_safe_sort`'s order).

    - Integer and temporal columns stay int64 (a float64 mantissa
      would merge nanosecond epochs and ids above 2**53); descending
      is bitwise NOT, which never overflows; NULLs sit at INT64_MAX,
      and a real value landing on that sentinel raises.
    - Other numeric columns are float64, descending negated, NULLs at
      +inf.
    - STRING columns factorize to their lexicographic rank WITHIN the
      batch (``np.unique`` codes are order-isomorphic to the strings):
      exact for in-batch comparisons, never comparable across blocks.
    """
    src = batch[col]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    t = src.type
    null = pc.is_null(src).to_numpy(zero_copy_only=False)
    if not _int64_order(t):
        v = pc.fill_null(pc.cast(src, pa.float64()), 0.0) \
            .to_numpy(zero_copy_only=False).copy()
        if descending:
            v = -v
        v[null] = np.inf
        return v
    if _is_string_type(t):
        vals = pc.fill_null(src, "").to_numpy(zero_copy_only=False)
        v = np.unique(vals.astype(str), return_inverse=True)[1] \
            .astype(np.int64)
    else:
        if pa.types.is_temporal(t) and t.bit_width == 32:
            src = pc.cast(src, pa.int32())  # no direct int64 cast
        v = np.array(pc.fill_null(pc.cast(src, pa.int64()), 0)
                     .to_numpy(zero_copy_only=False), np.int64)
    if descending:
        v = ~v
    if (v == _I64_MAX).any():
        raise ValueError(
            f"order column {col!r} contains"
            f" {'INT64_MIN' if descending else 'INT64_MAX'}, which"
            " encodes to the nulls-last sentinel")
    v[null] = _I64_MAX
    return v


def replace_rows(kept: pa.Table, name: str, rows, vals) -> pa.Table:
    """``kept`` with column ``name`` set to ``vals`` at ``rows``
    (any order; chunking is kept)."""
    rows = np.asarray(rows, np.int64)
    order = np.argsort(rows, kind="stable")
    mask = np.zeros(kept.num_rows, bool)
    mask[rows] = True
    i = kept.column_names.index(name)
    return kept.set_column(i, name, pc.replace_with_mask(
        kept[name], pa.array(mask), vals.take(pa.array(order))))


def _anchors(t: pa.Table, n: int) -> np.ndarray:
    """The ``__a{i}`` anchor columns of ``t`` as one structured array,
    compared lexicographically by ``np.searchsorted``."""
    cols = [_np(t[f"__a{i}"]) for i in range(n)]
    out = np.empty(t.num_rows, [(f"a{i}", c.dtype)
                                for i, c in enumerate(cols)])
    for i, c in enumerate(cols):
        out[f"a{i}"] = c
    return out


def _with(t: pa.Table, name: str, col) -> pa.Table:
    if name in t.column_names:
        return t.set_column(t.column_names.index(name), name, col)
    return t.append_column(name, col)


def sorted_carry(ds, keys: List[str], order: List[str], op: str, scan,
                 fold, resolve, forward: bool = False, drop=()):
    """:func:`carry_scan` over ``ds`` sorted by ``(keys, order)`` with
    :func:`null_safe_sort`, anchored on ``order``."""
    return carry_scan(null_safe_sort(ds, keys, list(order)), keys,
                      list(order), op, scan, fold, resolve, forward, drop)


def carry_scan(sorted_ds, keys: List[str], anchor: List[str], op: str,
               scan, fold, resolve, forward: bool = False, drop=()):
    """The sort-scan-carry round-trip over a dataset whose blocks are
    contiguous slices of ``(keys, anchor)`` order: a vectorized scan
    per sorted block, O(n_blocks) carry rows folded on the driver and
    broadcast once, then a lazy distributed resolve of the rows that
    need state from other blocks. The scan runs in one
    ``materialize``, then the carry read; the resolve runs when the
    caller consumes it.

    Sorted blocks are contiguous key ranges, so only a block's FIRST
    and LAST key segments can continue in another block, and a key's
    state crosses blocks as those segments' carry rows. Each carry row
    is stamped with the exact :func:`order_np` anchor of its source
    row over the ``anchor`` columns; each output row with the anchor
    of its key segment's first row in its block (last row with
    ``forward``), and counts its key's carries strictly before that
    anchor (at or before it with ``forward``). The resolve thus never
    depends on how Ray re-batches the scanned blocks. Every row also
    carries ``__blk``, a random id of the batch it was scanned in, so
    a partial split over several blocks can be emitted once.

    - ``scan(batch, seg_ids, starts) -> (rows, cols, pend, carry_idx,
      carry_cols)`` sees one non-empty sorted block, its per-row key
      segment ids and the segment start rows. ``rows`` picks the
      batch rows to output (None: every row once; a scan may drop
      rows that are final and not output, or repeat them); ``cols``
      maps column names to arrays aligned with the output rows and
      replaces a batch column of the same name; ``pend`` marks the
      output rows that need carries; ``carry_idx`` picks the batch
      rows to carry and ``carry_cols`` their values. A new name
      missing on one side is NULL there (a batch column keeps its
      values); carry-only names belong in ``drop``.
    - ``fold(carries) -> state`` reduces one key's carry rows, sorted
      by ``(anchor, __blk)``.
    - ``resolve(kept, groups) -> table`` finishes one batch without
      its carry rows; ``groups`` holds ``(rows, pos, state)`` for each
      key with pending rows and carries, ``pos[i]`` being the count
      above for row ``rows[i]``.

    ``anchor`` columns must be numeric or temporal: a string's
    in-batch factorization is not comparable across blocks. Integer
    and temporal anchors are int64, so nanosecond epochs and
    tiebreaks above 2**53 stay distinct."""
    import ray

    na = len(anchor)
    aux = ["__rt", "__blk"] + [f"__a{i}" for i in range(na)]

    def stamp(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        for c in anchor:
            if _is_string_type(batch[c].type):
                raise ValueError(
                    f"{op}: order column {c!r} is a string; only"
                    " numeric/temporal order columns carry across"
                    " block boundaries")
        newseg = key_segments(batch, keys)
        seg_ids = np.cumsum(newseg) - 1
        starts = np.nonzero(newseg)[0]
        rows, cols, pend, cidx, ccols = scan(batch, seg_ids, starts)
        cidx = np.asarray(cidx, np.int64)
        m = len(cidx)
        if rows is None:
            main, src = batch, np.arange(n)
        else:
            src = np.asarray(rows, np.int64)
            main = batch.take(pa.array(src))
        carry = batch.take(pa.array(cidx))
        k = len(src)
        for c in list(cols) + [c for c in ccols if c not in cols]:
            x, y = cols.get(c), ccols.get(c)
            if x is not None or c not in batch.column_names:
                main = _with(main, c,
                             pa.nulls(k, y.type) if x is None else x)
            if y is not None or c not in batch.column_names:
                carry = _with(carry, c,
                              pa.nulls(m, x.type) if y is None else y)
        ends = np.concatenate([starts[1:], [n]])
        edge = (ends - 1 if forward else starts)[seg_ids[src]]
        blk = uuid.uuid4().int >> 65
        main = main.append_column(
            "__rt", pa.array(np.asarray(pend, np.int8))) \
            .append_column("__blk", pa.array(np.full(k, blk, np.int64)))
        carry = carry.append_column(
            "__rt", pa.array(np.full(m, 2, np.int8))) \
            .append_column("__blk", pa.array(np.full(m, blk, np.int64)))
        for i, c in enumerate(anchor):
            a = order_np(batch, c)
            main = main.append_column(f"__a{i}", pa.array(a[edge]))
            carry = carry.append_column(f"__a{i}", pa.array(a[cidx]))
        return pa.concat_tables([main, carry])

    scanned = sorted_ds.map_batches(
        stamp, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # only carry rows reach the driver: the filter runs distributed
    def carry_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["__rt"], 2))

    parts = [b for b in scanned.map_batches(
        carry_only, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow") if b.num_rows]
    state: dict = {}
    if parts:
        ct = pa.concat_tables(parts, promote_options="default")
        kv, code = np.unique(
            group_key_expr(ct, keys).to_numpy(zero_copy_only=False),
            return_inverse=True)
        by = [_np(ct["__blk"])] + [_np(ct[f"__a{i}"])
                                   for i in reversed(range(na))]
        order = np.lexsort(by + [code])
        ct, code = ct.take(pa.array(order)), code[order]
        bounds = np.append(np.nonzero(key_segments(ct, keys))[0],
                           ct.num_rows)
        ca = _anchors(ct, na) if na else None
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            state[str(kv[code[lo]])] = (ca[lo:hi] if na else None,
                                        fold(ct.slice(lo, hi - lo)))
    handle = ray.put(state)

    def finish(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.not_equal(batch["__rt"], 2))
        pend = np.nonzero(_np(kept["__rt"]) == 1)[0]
        groups = []
        if len(pend):
            offs = ray.get(handle)
            pt = kept.take(pa.array(pend))
            kk = group_key_expr(pt, keys).to_numpy(zero_copy_only=False)
            ra = _anchors(pt, na) if na else None
            for kval in np.unique(kk):
                if kval in offs:
                    ca, st = offs[kval]
                    sel = kk == kval
                    pos = np.searchsorted(
                        ca, ra[sel], side="right" if forward else "left") \
                        if na else np.zeros(int(sel.sum()), np.int64)
                    groups.append((pend[sel], pos, st))
        out = resolve(kept, groups)
        return out.drop_columns(
            [c for c in aux + list(drop) if c in out.column_names])

    return scanned.map_batches(finish, batch_format="pyarrow",
                               zero_copy_batch=True)


def stitch(ds, keys: List[str], order: List[str], op: str, pieces,
           merge, out: List[str]):
    """Per-key-segment partial rows whose pieces at block edges merge
    into whole results, each emitted ONCE, on :func:`sorted_carry`.

    - ``pieces(batch, seg_ids, starts) -> (rows, cols, edge)``: one
      output row per piece of a sorted block — ``rows`` its source
      row, ``cols`` its columns, ``edge`` True for the pieces that may
      continue in another block (those of the block's first and last
      key segments). Other pieces are final as they are.
    - ``merge(carries) -> [(i, values)]``: one key's edge pieces, in
      no particular order, merged into output groups; ``i`` is the
      row of one piece of a group and ``values`` maps column names to
      the merged values. That piece's row is emitted with them; every
      other edge piece of the key is dropped. A merge that needs the
      pieces in key order sorts them by the piece columns, so
      ``order`` may hold any sortable type.

    Returns ``out`` columns. Driver state is O(n_blocks) pieces,
    independent of a key's row count."""
    def scan(batch: pa.Table, seg_ids, starts):
        rows, cols, edge = pieces(batch, seg_ids, starts)
        e = np.nonzero(edge)[0]
        cols["__pid"] = pa.array(np.arange(len(rows)), pa.int64())
        ei = pa.array(e)
        return rows, cols, edge, np.asarray(rows)[e], \
            {c: a.take(ei) for c, a in cols.items()}

    def fold(carries: pa.Table) -> dict:
        blk, pid = _np(carries["__blk"]), _np(carries["__pid"])
        return {(int(blk[i]), int(pid[i])): v for i, v in merge(carries)}

    def resolve(kept: pa.Table, groups) -> pa.Table:
        keep = np.ones(kept.num_rows, bool)
        blk, pid = _np(kept["__blk"]), _np(kept["__pid"])
        heads, vals = [], {}
        for rows, _, st in groups:
            for i in rows:
                v = st.get((int(blk[i]), int(pid[i])))
                if v is None:
                    keep[i] = False
                    continue
                heads.append(i)
                for c, x in v.items():
                    vals.setdefault(c, []).append(x)
        for c, xs in vals.items():
            kept = replace_rows(kept, c, heads,
                                pa.array(xs, kept[c].type))
        return kept.filter(pa.array(keep)).select(out)

    return carry_scan(null_safe_sort(ds, keys, list(order)), keys, [],
                      op, scan, fold, resolve)
