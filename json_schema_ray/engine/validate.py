"""Ray Data validation stages.

The compile happens once on the driver (parse -> expand ->
``compile_table_plan``); the resulting plan is a small pure-Python
object captured in the ``map_batches`` closure — the analogue of the
reference's "DocumentStore loaded once" (reference:
lib/json_schema/document_store.rb:8-30). Validation itself is
stateless Arrow-compute tasks; no shuffle. What validation computes
per document (verdicts, violations by type, column stats) folds into
one mergeable :class:`ValidationPartial`, shared by the fused scan
and the resumable run's fragment manifests. The three scans
(:func:`violations_dataset`, :func:`full_validation_pass`,
:func:`verdict_counts`) run through :func:`_scan`, which sizes their
tasks to the input and the cluster (:func:`_task_rows`): when the plan
has more blocks than about four tasks per CPU, Ray bundles the
reader's small blocks into tasks of at most ``_TASK_ROWS`` rows, and a
write after :func:`violations_dataset` emits one file per task;
otherwise each block is one task.
"""

from __future__ import annotations

import base64
import pickle
from collections import Counter
from typing import List, Optional

import pyarrow as pa

from ..expander import ReferenceExpander
from ..parser import Parser
from ..schema import Schema
from .stats import (_column_partial, _finalize_stats, _merge_partial,
                    _merged_partials)
from .table_validator import (
    TablePlan,
    compile_table_plan,
    validate_batch,
    verdict_mask,
)


def compile_schema(schema_json: dict, store=None) -> Schema:
    """parse + $ref-expand a JSON schema document (driver-side)."""
    schema = Parser().parse_bang(schema_json)
    ReferenceExpander().expand_bang(schema, store=store)
    return schema


def compile_plan_for(
    schema_json: dict,
    arrow_schema: pa.Schema,
    key_columns: Optional[List[str]] = None,
    json_columns: Optional[set] = None,
    store=None,
) -> TablePlan:
    schema = compile_schema(schema_json, store=store)
    return compile_table_plan(schema, arrow_schema,
                              key_columns=key_columns,
                              json_columns=json_columns)


# Most rows one validation scan task takes. A Ray task costs about
# 10-14 ms of scheduling on a 1-CPU host, and the reader splits files
# into blocks of about 1 MiB (a few thousand transcript turns), so a
# task per block spent more time starting than validating; at 64k rows
# the overhead is about 6% of a task. Bound: Ray's
# target_max_block_size (128 MiB) / 65,536 rows = 2 KiB a row, and the
# widest table the registry validates, `documents`, averages 332 B a
# row (embeddings 280, transcripts 244), so a task's input is about
# 21 MiB.
_TASK_ROWS = 65_536


def _task_rows(ds) -> Optional[int]:
    """Rows per scan task over ``ds``, or None for one task per block.

    For N input rows in B planned blocks on C cluster CPUs the scan
    aims at N / rows tasks, rows = N // (4*C), at most ``_TASK_ROWS``.
    Ray packs blocks into a task until it holds at least ``rows``, so
    a task of blocks no larger holds under twice as many and the scan
    runs more than 2*C tasks; a larger block is a task of its own.
    Bundling only pays when B is above the task count aimed at: with
    fewer blocks it would cut few tasks, yet it stops the read from
    fusing with the map and slices blocks into more calls. None too
    when N or B is not known. Both come from the plan and never run
    it (Parquet footers, a materialized dataset's metadata); B counts
    read tasks, not the blocks a read task may split its output
    into."""
    import ray

    n, blocks = ds._meta_count(), ds._plan.initial_num_blocks()
    if n is None or not blocks or not ray.is_initialized():
        return None
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    rows = max(1, min(_TASK_ROWS, n // (4 * cpus)))
    return rows if blocks * rows > n else None


def _scan(ds, fn):
    """``fn`` over ``ds`` in pyarrow batches of ``_task_rows(ds)``
    rows: Ray bundles small blocks into one task, whose batch
    concatenates them in arrival order (one chunk or more per block),
    and slices a larger block into several calls."""
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=_task_rows(ds))


def violations_dataset(ds, plan: TablePlan):
    """Dataset of violation rows (key columns + path/schema_pointer/
    error_type/message/data_json). Streaming, stateless tasks."""

    def batch_fn(batch: pa.Table) -> pa.Table:
        return validate_batch(batch, plan)

    return _scan(ds, batch_fn)


class RegistryValidator:
    """Actor-pool stage: validate each row against the schema chosen
    by its ``dispatch`` column — the tool-call-arguments shape, where
    an agent transcript carries N tool families each with its own
    JSON-schema contract (reference semantics per schema: the same
    compile -> TablePlan path as every other validator; reference
    message strings via lib/json_schema/validator.rb fixtures).

    Scale shape: the registry's plans compile ONCE PER ACTOR in
    ``__init__`` (parse + $ref-expand + Arrow lowering for every
    family) — never per batch; ``__call__`` splits a batch by the
    small set of distinct dispatch values present (dictionary-encode,
    one ``filter`` per family actually present — O(families-in-batch)
    masks, each sub-batch validated fully vectorized) and emits the
    union of violation rows with a ``family`` column appended. Rows
    whose dispatch value has no registry entry (or is null) surface
    as one ``unknown_schema`` violation row each rather than
    vanishing. No shuffle; stateless between batches; the registry
    (a dict of plain schema dicts) ships to each actor once."""

    def __init__(self, registry: dict, arrow_schema: pa.Schema,
                 dispatch: str, key_columns: Optional[List[str]] = None,
                 json_columns: Optional[set] = None,
                 family_col: str = "family"):
        body = arrow_schema.remove(arrow_schema.get_field_index(dispatch))
        self.plans = {
            name: compile_plan_for(schema_json, body,
                                   key_columns=key_columns,
                                   json_columns=json_columns)
            for name, schema_json in registry.items()
        }
        self.dispatch = dispatch
        self.key_columns = list(key_columns or [])
        self.family_col = family_col
        any_plan = next(iter(self.plans.values()))
        self.out_schema = any_plan.violation_schema().append(
            pa.field(family_col, pa.string()))

    def _empty(self) -> pa.Table:
        return self.out_schema.empty_table()

    def _unknown_rows(self, sub: pa.Table, value) -> pa.Table:
        n = sub.num_rows
        cols, names = [], []
        for k in self.key_columns:
            cols.append(sub[k]); names.append(k)
        label = "" if value is None else str(value)
        fill = {
            "path": "#", "schema_pointer": "#",
            "error_type": "unknown_schema",
            "message": f"no schema registered for {label!r}.",
            "data_json": "null",
        }
        for f in self.out_schema:
            if f.name in self.key_columns or f.name == self.family_col:
                continue
            cols.append(pa.array([fill.get(f.name, "")] * n, f.type))
            names.append(f.name)
        cols.append(pa.array([label] * n, pa.string()))
        names.append(self.family_col)
        return pa.table(dict(zip(names, cols))).select(
            [f.name for f in self.out_schema])

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if batch.num_rows == 0:
            return self._empty()
        d = batch[self.dispatch].combine_chunks().dictionary_encode()
        body = batch.drop_columns([self.dispatch])
        outs = []
        null_mask = pc.is_null(d)
        if pc.any(null_mask).as_py():
            outs.append(self._unknown_rows(body.filter(null_mask), None))
        for i, value in enumerate(d.dictionary.to_pylist()):
            mask = pc.equal(d.indices, i)
            sub = body.filter(pc.fill_null(mask, False))
            plan = self.plans.get(value)
            if plan is None:
                outs.append(self._unknown_rows(sub, value))
                continue
            v = validate_batch(sub, plan)
            outs.append(v.append_column(
                self.family_col, pa.array([value] * v.num_rows,
                                          pa.string())))
        outs = [t for t in outs if t.num_rows] or [self._empty()]
        return pa.concat_tables(outs).select(
            [f.name for f in self.out_schema])


def validate_by_registry(ds, registry: dict, arrow_schema: pa.Schema,
                         dispatch: str,
                         key_columns: Optional[List[str]] = None,
                         json_columns: Optional[set] = None,
                         family_col: str = "family",
                         concurrency: Optional[int] = None):
    """Dataset of violation rows where each row was validated against
    ``registry[row[dispatch]]`` (see :class:`RegistryValidator`).
    The stage is an ACTOR POOL precisely because the per-family
    compile is real setup work multiplied by len(registry)."""
    # class-based map_batches requires an actor pool size
    extra = {"concurrency": concurrency or 4}
    return ds.map_batches(
        RegistryValidator,
        fn_constructor_kwargs=dict(
            registry=registry, arrow_schema=arrow_schema,
            dispatch=dispatch, key_columns=key_columns,
            json_columns=json_columns, family_col=family_col),
        batch_format="pyarrow", zero_copy_batch=True, **extra)


def _sketches(row: dict, code) -> dict:
    """A stats partial row with its sketch blobs passed through
    ``code``."""
    return {k: code(v) if k in ("hll", "tdigest") and v else v
            for k, v in row.items()}


class ValidationPartial:
    """What validation computes per document, folded over any set of
    rows: row, valid-row and violation-row counts, violations by
    ``error_type`` and the per-column stats partials (the
    ``stats._merge_partial`` state). Partials merge in any order and
    :meth:`summary` finishes one. The fused scan builds one per batch
    and merges them on the driver; a fragment task of the resumable
    run folds its batches into one and writes it as its manifest
    (:meth:`to_manifest`), and the job's summary merges the manifests."""

    def __init__(self):
        self.rows = self.valid_rows = self.violation_rows = 0
        self.by_type: Counter = Counter()
        self.stats: dict = {}

    def add(self, batch: pa.Table, plan: TablePlan) -> pa.Table:
        """Fold ``batch`` in and return its violation rows. ONE keyword
        evaluation: a row is valid iff it contributes no violation
        row, so the verdict needs no second ``verdict_mask`` pass."""
        viol, n_invalid = validate_batch(batch, plan,
                                         with_invalid_count=True)
        self.rows += batch.num_rows
        self.valid_rows += batch.num_rows - n_invalid
        self.violation_rows += viol.num_rows
        self.by_type.update(viol["error_type"].to_pylist())
        for name in batch.column_names:
            _merge_partial(self.stats,
                           _column_partial(name, batch[name], 12, False))
        return viol

    def merge(self, other: "ValidationPartial") -> None:
        self.rows += other.rows
        self.valid_rows += other.valid_rows
        self.violation_rows += other.violation_rows
        self.by_type.update(other.by_type)
        for row in _merged_partials(other.stats):
            _merge_partial(self.stats, row)

    def to_manifest(self) -> dict:
        """The manifest fields: the counters, the verdict and one stats
        partial per column, sketches base64-encoded."""
        return {
            "rows": self.rows,
            "valid_rows": self.valid_rows,
            "violations": self.violation_rows,
            "violations_by_type": dict(sorted(self.by_type.items())),
            "verdict": "pass" if self.valid_rows == self.rows else "fail",
            "stats": [_sketches(row, lambda v: base64.b64encode(v).decode())
                      for row in _merged_partials(self.stats)],
        }

    @classmethod
    def from_manifest(cls, m: dict) -> "ValidationPartial":
        out = cls()
        out.rows, out.valid_rows = m["rows"], m["valid_rows"]
        out.violation_rows = m["violations"]
        out.by_type.update(m["violations_by_type"])
        for row in m["stats"]:
            _merge_partial(out.stats, _sketches(row, base64.b64decode))
        return out

    def summary(self) -> dict:
        return {
            "total_rows": self.rows,
            "valid_rows": self.valid_rows,
            "invalid_rows": self.rows - self.valid_rows,
            "violation_rows": self.violation_rows,
            "violations_by_type": dict(sorted(self.by_type.items())),
            "stats": _finalize_stats(self.stats),
        }


def full_validation_pass(ds, plan: TablePlan,
                         presorted: bool = True) -> dict:
    """THE single-scan job: one scan (:func:`_scan`) over input in
    (conversation, turn, ts) order, each batch emitting one
    :class:`ValidationPartial` and its ordering partials
    (``keys.ordering_batch_parts``); the driver merges the former and
    folds the latter (``keys.ordering_fold``). ``presorted=False``
    sorts the input first (``keys.ordering_sort``). A batch may bundle
    blocks of several files in arrival order; ``ordering_batch_parts``
    sends every conversation that may continue outside its segment to
    the stitch, so the counts do not depend on the block layout. This
    is the shape a 10^12-turn job runs: one pass, no second scan, and
    only partials and violation-sized ordering rows cross the wire.
    """
    from .keys import (GROUP_KEY, ORDER_KEY, TS_KEY, ordering_batch_parts,
                       ordering_counts, ordering_fold, ordering_sort)

    ts_key = TS_KEY if TS_KEY in ds.schema().names else None
    if not presorted:
        ds = ordering_sort(ds, GROUP_KEY, ORDER_KEY, ts_key)

    def batch_fn(batch: pa.Table) -> pa.Table:
        part = ValidationPartial()
        part.add(batch, plan)
        order = ordering_batch_parts(batch, GROUP_KEY, ORDER_KEY, ts_key)
        return pa.table({"part": [pickle.dumps((part, order))]})

    total, orders = ValidationPartial(), []
    for batch in _scan(ds, batch_fn).iter_batches(batch_format="pyarrow"):
        for blob in batch["part"].to_pylist():
            part, order = pickle.loads(blob)
            total.merge(part)
            orders.append(order)
    rows = ordering_fold(orders, ts_key is not None)
    return {**total.summary(),
            "ordering_violation_counts": ordering_counts(rows)}


def verdict_counts(ds, plan: TablePlan) -> dict:
    """Aggregate pass/fail counts without materializing rows: each
    batch emits one (valid, total) row and the driver folds them."""

    def batch_fn(batch: pa.Table) -> pa.Table:
        ok = verdict_mask(batch, plan)
        return pa.table({
            "valid_rows": pa.array([int(ok.sum())], pa.int64()),
            "total_rows": pa.array([len(ok)], pa.int64()),
        })

    valid = total = 0
    for part in _scan(ds, batch_fn).iter_batches(batch_format="pyarrow"):
        valid += sum(part["valid_rows"].to_pylist())
        total += sum(part["total_rows"].to_pylist())
    return {"valid_rows": valid, "total_rows": total,
            "invalid_rows": total - valid}
