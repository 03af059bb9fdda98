"""Distribution-drift checks against a stored reference profile.

Categorical columns (role/tool/event_type...) -> per-block value
counts pre-aggregated in ``map_batches`` and folded on the driver;
numeric/text-length distributions -> per-block TDigest partials
merged driver-side. PSI and KS statistics are computed on the driver
from the merged summaries (they are O(bins), never O(rows)).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import TDigest


def categorical_histogram(ds, column: str) -> Dict[str, int]:
    """str(value) -> count. Each block pre-aggregates to its distinct
    values; the driver folds those partials (a categorical domain is
    small), so there is no exchange, and null keys, which a sort-based
    groupby cannot order against strings, count as ``"None"``."""

    def pre_agg(batch: pa.Table) -> pa.Table:
        counts = _category_counts(batch[column])
        return pa.table({"v": pa.array(list(counts), pa.string()),
                         "cnt": pa.array(list(counts.values()),
                                         pa.int64())})

    partial = ds.map_batches(pre_agg, batch_format="pyarrow",
                             zero_copy_batch=True)
    out: Dict[str, int] = {}
    for batch in partial.iter_batches(batch_format="pyarrow"):
        for v, c in zip(batch["v"].to_pylist(), batch["cnt"].to_pylist()):
            out[v] = out.get(v, 0) + c
    return out


def _category_counts(col) -> Dict[str, int]:
    """str(value) -> count of one column of one batch, null as
    ``"None"``: the per-block partial of :func:`categorical_histogram`."""
    t = pa.TableGroupBy(pa.table({"v": col}), ["v"]) \
        .aggregate([([], "count_all")])
    return {str(v): int(c) for v, c in zip(t["v"].to_pylist(),
                                           t["count_all"].to_pylist())}


def _lengths(col) -> pa.Array:
    """utf8 lengths of a string column, the values of any other."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return pc.utf8_length(col)
    return col


def _length_counts(col) -> Dict[int, int]:
    """Exact length (or integer value) -> count of one column of one
    batch, nulls dropped: the per-block partial of
    :func:`length_histogram`."""
    v = pc.cast(_lengths(col), pa.int64()).drop_null()
    vals, cnts = np.unique(v.to_numpy(zero_copy_only=False),
                           return_counts=True)
    return dict(zip(vals.tolist(), cnts.tolist()))


def _column_digest(col, compression: int = 100) -> TDigest:
    """t-digest of one column's lengths (or numeric values) in one
    batch: the per-block partial of :func:`length_digest`."""
    vals = _lengths(col).to_numpy(zero_copy_only=False).astype(np.float64)
    td = TDigest(compression)
    td.add(vals)
    return td


def length_digest(ds, column: str, compression: int = 100) -> TDigest:
    """Merged t-digest of utf8 lengths (or numeric values) of a column."""

    def partial(batch: pa.Table) -> pa.Table:
        td = _column_digest(batch[column], compression)
        return pa.table({"blob": pa.array([td.serialize()], pa.binary())})

    merged: Optional[TDigest] = None
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    for batch in parts.iter_batches(batch_format="pyarrow"):
        for blob in batch["blob"].to_pylist():
            td = TDigest.deserialize(blob)
            merged = td if merged is None else merged.merge(td)
    return merged if merged is not None else TDigest(compression)


def length_histogram(ds, column: str) -> Dict[int, int]:
    """EXACT value -> count histogram of utf8 lengths (string
    columns) or integer values (numeric columns), null rows dropped.
    The mergeable-exact alternative to :func:`length_digest` when
    the value domain is bounded (text lengths, categorical codes):
    per-block pre-aggregation reduces each block to its distinct
    lengths, the merge shuffle moves O(distinct x blocks) rows, and
    the result supports an integer-exact KS statistic
    (:func:`ks_exact_e6`) a SQL oracle can reproduce bit-for-bit."""

    def pre_agg(batch: pa.Table) -> pa.Table:
        v = pc.cast(_lengths(batch[column]), pa.int64())
        t = pa.table({"v": v}).filter(pc.is_valid(v))
        g = pa.TableGroupBy(t, ["v"]).aggregate([([], "count_all")])
        return g.rename_columns(["v", "cnt"])

    partial = ds.map_batches(pre_agg, batch_format="pyarrow",
                             zero_copy_batch=True)
    out: Dict[int, int] = {}
    for batch in partial.groupby("v").sum("cnt") \
            .iter_batches(batch_format="pyarrow"):
        batch = pa.Table.from_batches([batch]) \
            if isinstance(batch, pa.RecordBatch) else batch
        batch = batch.rename_columns(["v", "cnt"])
        for v, c in zip(batch["v"].to_pylist(),
                        batch["cnt"].to_pylist()):
            out[int(v)] = out.get(int(v), 0) + int(c)
    return out


def ks_exact_e6(h1: Dict[int, int], h2: Dict[int, int]) -> int:
    """EXACT two-sample KS statistic from two exact histograms,
    returned as ``floor(KS * 1e6)`` computed entirely in integers:
    ``D = max_v |cum1(v) * N2 - cum2(v) * N1|`` over the union of
    values, then ``D * 1e6 // (N1 * N2)``. Python ints are
    arbitrary-precision, so 10^12-row corpora cannot overflow; a SQL
    oracle matches with HUGEINT arithmetic. Empty sides -> 0."""
    n1 = sum(h1.values())
    n2 = sum(h2.values())
    if not n1 or not n2:
        return 0
    vals = sorted(set(h1) | set(h2))
    d = c1 = c2 = 0
    for v in vals:
        c1 += h1.get(v, 0)
        c2 += h2.get(v, 0)
        d = max(d, abs(c1 * n2 - c2 * n1))
    return d * 1_000_000 // (n1 * n2)


def psi(expected: Dict[str, int], actual: Dict[str, int],
        epsilon: float = 1e-6) -> float:
    """Population Stability Index over categorical histograms."""
    # sorted: set iteration order of string keys varies with
    # PYTHONHASHSEED, and float addition is order-sensitive — a
    # fixed summation order keeps the e6-floored value identical
    # across processes/machines
    keys = sorted(set(expected) | set(actual), key=str)
    e_total = max(sum(expected.values()), 1)
    a_total = max(sum(actual.values()), 1)
    out = 0.0
    for k in keys:
        e = max(expected.get(k, 0) / e_total, epsilon)
        a = max(actual.get(k, 0) / a_total, epsilon)
        out += (a - e) * np.log(a / e)
    return float(out)


def ks_statistic(d1: TDigest, d2: TDigest, n_points: int = 256) -> float:
    """Approximate two-sample KS statistic from two t-digests by
    comparing their quantile functions on a shared value grid."""
    if len(d1.means) == 0 or len(d2.means) == 0:
        return 0.0
    lo = min(float(d1.means.min()), float(d2.means.min()))
    hi = max(float(d1.means.max()), float(d2.means.max()))
    if hi <= lo:
        return 0.0
    grid = np.linspace(lo, hi, n_points)
    cdf1 = _digest_cdf(d1, grid)
    cdf2 = _digest_cdf(d2, grid)
    return float(np.max(np.abs(cdf1 - cdf2)))


def _digest_cdf(d: TDigest, grid: np.ndarray) -> np.ndarray:
    d._compress()
    order = np.argsort(d.means)
    means = d.means[order]
    weights = d.weights[order]
    cw = np.cumsum(weights) - 0.5 * weights
    total = weights.sum()
    return np.interp(grid, means, cw / total, left=0.0, right=1.0)


class ReferenceProfile:
    """Stored profile: categorical histograms + numeric digests.
    Serializable to JSON so jobs can compare against a checked-in
    baseline profile."""

    def __init__(self, histograms: Dict[str, Dict[str, int]] = None,
                 digests: Dict[str, TDigest] = None,
                 length_hists: Dict[str, Dict[int, int]] = None):
        self.histograms = histograms or {}
        self.digests = digests or {}
        self.length_hists = length_hists or {}

    @classmethod
    def build(cls, ds, categorical: List[str],
              numeric_or_text: List[str] = (),
              exact_lengths: List[str] = ()) -> "ReferenceProfile":
        """``numeric_or_text`` columns store mergeable t-digests
        (approximate KS, unbounded domains); ``exact_lengths``
        columns store EXACT length histograms (integer-exact KS via
        :func:`ks_exact_e6`, bounded domains like text lengths)."""
        return cls(
            histograms={c: categorical_histogram(ds, c) for c in categorical},
            digests={c: length_digest(ds, c) for c in numeric_or_text},
            length_hists={c: length_histogram(ds, c)
                          for c in exact_lengths},
        )

    def compare(self, ds) -> pa.Table:
        """Drift report vs a new dataset: PSI per categorical column,
        KS per numeric/text column (t-digest approximate for digest
        columns, exact for length-histogram columns)."""
        return self.report(ReferenceProfile.build(
            ds, list(self.histograms), list(self.digests),
            list(self.length_hists)))

    def report(self, actual: "ReferenceProfile") -> pa.Table:
        """The :meth:`compare` report against ``actual``, a profile of
        the new data over the same columns."""
        rows = []
        for col, hist in self.histograms.items():
            rows.append({"column": col, "metric": "psi",
                         "value": psi(hist, actual.histograms[col])})
        for col, digest in self.digests.items():
            rows.append({"column": col, "metric": "ks",
                         "value": ks_statistic(digest,
                                               actual.digests[col])})
        for col, hist in self.length_hists.items():
            rows.append({"column": col, "metric": "ks",
                         "value": ks_exact_e6(
                             hist, actual.length_hists[col]) / 1e6})
        return pa.Table.from_pylist(rows)

    def profile_batch(self, batch: pa.Table) -> "ReferenceProfile":
        """A profile of one batch over this profile's columns;
        :meth:`merge` folds such profiles across batches."""
        return ReferenceProfile(
            {c: _category_counts(batch[c]) for c in self.histograms},
            {c: _column_digest(batch[c]) for c in self.digests},
            {c: _length_counts(batch[c]) for c in self.length_hists})

    def merge(self, other: "ReferenceProfile") -> "ReferenceProfile":
        def add(x, y):
            out = dict(x)
            for k, v in y.items():
                out[k] = out.get(k, 0) + v
            return out

        return ReferenceProfile(
            {c: add(h, other.histograms[c])
             for c, h in self.histograms.items()},
            {c: d.merge(other.digests[c]) for c, d in self.digests.items()},
            {c: add(h, other.length_hists[c])
             for c, h in self.length_hists.items()})

    def to_json(self) -> str:
        return json.dumps({
            "histograms": self.histograms,
            "digests": {k: v.serialize().hex() for k, v in self.digests.items()},
            "length_hists": {k: {str(v): c for v, c in h.items()}
                             for k, h in self.length_hists.items()},
        })

    @classmethod
    def from_json(cls, blob: str) -> "ReferenceProfile":
        data = json.loads(blob)
        return cls(
            histograms=data["histograms"],
            digests={k: TDigest.deserialize(bytes.fromhex(v))
                     for k, v in data["digests"].items()},
            length_hists={k: {int(v): int(c) for v, c in h.items()}
                          for k, h in data.get("length_hists",
                                               {}).items()},
        )


def cusum_scan(t: pa.Table, order_col: str, value_col: str,
               kappa_num: int = 1, kappa_den: int = 8,
               h_num: int = 1, h_den: int = 2) -> pa.Table:
    """Two-sided integer CUSUM (mean-shift changepoint detector)
    over an ORDERED, BOUNDED series table — the drift-family
    complement to the pointwise robust-z gate
    (``daily_volume_anomalies``): CUSUM accumulates small sustained
    departures that never individually cross a z threshold.

    All-integer e6 arithmetic, hash-exact in a SQL recursive CTE:
    ``mu_e6 = (sum(x) * 1e6) // n`` (truncated mean),
    ``kappa_e6 = mu_e6 * kappa_num // kappa_den`` (allowance; the
    default mu/8 absorbs Poisson-level noise at count scales while a
    sustained ~20%+ level shift accumulates),
    ``h_e6 = mu_e6 * h_num // h_den`` (decision threshold, default
    mu/2),
    ``S+ = max(0, S+ + (x*1e6 - mu_e6) - kappa_e6)``,
    ``S- = max(0, S- - (x*1e6 - mu_e6) - kappa_e6)``,
    ``flag = S+ > h_e6 OR S- > h_e6``.

    Scale shape: the input is a window-count table (days/hours —
    calendar-bounded, e.g. from ``window.tumbling_window_counts``'s
    one distributed combiner scan), so this recurrence runs on the
    driver over thousands of rows at most; the corpus-sized work is
    the scan that produced the counts. Returns
    (order_col, value_col, cusum_pos_e6, cusum_neg_e6, flag).
    """
    raw = t[value_col].to_pylist()
    if any(v is None for v in raw):
        raise ValueError("cusum_scan: null values in the series "
                         "(aggregate counts can't be null; filter "
                         "or fill first)")
    t = t.sort_by([(order_col, "ascending")])
    xs = [int(v) for v in t[value_col].to_pylist()]
    n = len(xs)
    if n == 0:
        return pa.table({
            order_col: pa.array([], t[order_col].type),
            value_col: pa.array([], pa.int64()),
            "cusum_pos_e6": pa.array([], pa.int64()),
            "cusum_neg_e6": pa.array([], pa.int64()),
            "flag": pa.array([], pa.int64())})
    def _trunc_div(a: int, b: int) -> int:
        # DuckDB // truncates toward zero; python // floors — mirror
        # the SQL twin on negative-sum series too
        return (abs(a) // b) * (1 if a >= 0 else -1)

    mu_e6 = _trunc_div(sum(xs) * 1_000_000, n)
    kappa_e6 = _trunc_div(mu_e6 * kappa_num, kappa_den)
    h_e6 = _trunc_div(mu_e6 * h_num, h_den)
    sp = sn = 0
    pos, neg, flags = [], [], []
    for x in xs:
        dev = x * 1_000_000 - mu_e6
        sp = max(0, sp + dev - kappa_e6)
        sn = max(0, sn - dev - kappa_e6)
        pos.append(sp)
        neg.append(sn)
        flags.append(int(sp > h_e6 or sn > h_e6))
    return pa.table({
        order_col: t[order_col],
        value_col: pa.array(xs, pa.int64()),
        "cusum_pos_e6": pa.array(pos, pa.int64()),
        "cusum_neg_e6": pa.array(neg, pa.int64()),
        "flag": pa.array(flags, pa.int64())})


def contingency_chi2(ds, a: str, b: str) -> pa.Table:
    """Chi-square independence cells between two categorical columns:
    for every observed (a, b) cell — observed count, expected count
    under independence, and the cell's chi-square contribution, both
    as ``floor(x * 1e6 + 0.5)`` fixed point. The statistic itself is
    ``sum(contrib_e6) / 1e6`` (left to the caller so no float sum
    crosses the wire; every emitted number is computed from exact
    integer totals with ONE double divide per cell, deterministic
    regardless of summation order — the SQL twin mirrors the same
    double ops).

    Shape: per-block (a, b) combiner counts -> one cell-sized
    groupby; row/column margins derive from the merged cell table on
    the driver (cells = |a| x |b|, drift-check-sized by
    construction). NULL categories form their own cell like SQL
    GROUP BY. Rows with a NULL in either column are dropped BEFORE
    counting only if drop_null were requested — they are kept here;
    the oracle groups identically."""
    from .relational import decode_null_safe_keys, encode_null_safe_keys

    # string keys group via the invertible null-safe encoding: the
    # Arrow grouper mis-splits NULL string groups on sliced
    # (non-zero-offset) block views, so no raw nullable string column
    # ever reaches a TableGroupBy here
    def pre(batch: pa.Table) -> pa.Table:
        enc = encode_null_safe_keys(batch.select([a, b]), [a, b])
        g = pa.TableGroupBy(enc, ["__gs0", "__gs1"])
        t = g.aggregate([([], "count_all")])
        return t.rename_columns(["__gs0", "__gs1", "obs"])

    parts = ds.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
    tables = [pa.Table.from_batches([bt])
              if isinstance(bt, pa.RecordBatch) else bt
              for bt in parts.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({a: pa.array([]), b: pa.array([]),
                         "obs": pa.array([], pa.int64()),
                         "exp_e6": pa.array([], pa.int64()),
                         "contrib_e6": pa.array([], pa.int64())})
    merged = pa.concat_tables(
        tables, promote_options="default").combine_chunks()
    enc_cells = pa.TableGroupBy(merged, ["__gs0", "__gs1"]) \
        .aggregate([("obs", "sum")])
    cells = decode_null_safe_keys(
        enc_cells.rename_columns(["__gs0", "__gs1", "obs_sum"]),
        [a, b], ["obs_sum"])
    obs = cells["obs_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(obs.sum())
    # margins via index_in against the cell table's own key columns
    av = cells[a].combine_chunks()
    bv = cells[b].combine_chunks()
    a_keys = pc.unique(av)
    b_keys = pc.unique(bv)

    def _codes(vals, keys):
        # index_in maps a null needle to null, but NULL is a real
        # category (unique() kept its slot) — point nulls at it
        idx = pc.index_in(vals, value_set=keys)
        if vals.null_count:
            null_pos = int(np.nonzero(
                pc.is_null(keys).to_numpy(zero_copy_only=False))[0][0])
            idx = pc.fill_null(idx, null_pos)
        return idx.to_numpy(zero_copy_only=False).astype(np.int64)

    ai = _codes(av, a_keys)
    bi = _codes(bv, b_keys)
    rt = np.zeros(len(a_keys), np.int64)
    np.add.at(rt, ai, obs)
    ct = np.zeros(len(b_keys), np.int64)
    np.add.at(ct, bi, obs)
    # ONE double op chain per cell, mirrored verbatim by the SQL twin:
    # exp = rt*ct/n ; d = obs - exp ; contrib = d*d/exp
    exp = rt[ai].astype(np.float64) * ct[bi].astype(np.float64) / float(n)
    d = obs.astype(np.float64) - exp
    contrib = d * d / exp
    return pa.table({
        a: av, b: bv,
        "obs": pa.array(obs, pa.int64()),
        "exp_e6": pa.array(np.floor(exp * 1e6 + 0.5).astype(np.int64)),
        "contrib_e6": pa.array(
            np.floor(contrib * 1e6 + 0.5).astype(np.int64))})
