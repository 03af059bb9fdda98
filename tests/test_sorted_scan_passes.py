"""Ordered-window operators that run as ONE sorted-scan pass: one
null-safe sort and no groupby exchange. Counted at run time by
wrapping ``sorted_scan.null_safe_sort``, ``Dataset.sort`` and
``Dataset.groupby``, so a return to chained passes (a sort per fill
direction, a totals aggregate beside the scan) fails here.

A consumed carry scan is two Ray Data executions: the scan's
``materialize`` and the caller's read of the resolve. Counted by
wrapping ``StreamingExecutor.execute``, so a carry read that starts
another execution fails here."""

import datetime

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

ONE_PASS = {
    "grouped_linear_interpolate":
        lambda rank, ds: rank.grouped_linear_interpolate(
            ds, "k", "ts", "v", "eid"),
    "grouped_ntile":
        lambda rank, ds: rank.grouped_ntile(ds, "k", "ts", "eid", 4),
}


@pytest.mark.parametrize("op", sorted(ONE_PASS))
def test_one_sort_and_no_groupby(op, monkeypatch):
    import ray

    import json_schema_ray.engine.rank as rank
    import json_schema_ray.engine.sorted_scan as sorted_scan

    calls = {"null_safe_sort": 0, "sort": 0, "groupby": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sorted_scan, "null_safe_sort", counted(
        "null_safe_sort", sorted_scan.null_safe_sort))
    for name in ("sort", "groupby"):
        monkeypatch.setattr(ray.data.Dataset, name,
                            counted(name, getattr(ray.data.Dataset, name)))
    n = 60
    rng = np.random.default_rng(5)
    t = pa.table({
        "k": pa.array(rng.integers(0, 3, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10**9, n), pa.int64())
        .cast(pa.timestamp("us")),
        "eid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(rng.normal(size=n), mask=rng.random(n) < 0.5)})
    out = ONE_PASS[op](rank, ray.data.from_arrow(t).repartition(3))
    assert len(out.take_all()) == n
    assert calls == {"null_safe_sort": 1, "sort": 1, "groupby": 0}


CARRY_SCANS = {
    "cumulative_sum":
        lambda rank, window, ds: rank.cumulative_sum(
            ds, "k", "ts", "v", "eid"),
    "lag_column":
        lambda rank, window, ds: rank.lag_column(
            ds, "k", "ts", "v", "eid"),
    "grouped_ntile":
        lambda rank, window, ds: rank.grouped_ntile(
            ds, "k", "ts", "eid", 4),
    "grouped_linear_interpolate":
        lambda rank, window, ds: rank.grouped_linear_interpolate(
            ds, "k", "ts", "v", "eid"),
    "grouped_forward_fill":
        lambda rank, window, ds: rank.grouped_forward_fill(
            ds, "k", "ts", "v", "eid"),
    "range_windowed_sum":
        lambda rank, window, ds: window.range_windowed_sum(
            ds, "k", "ts", "v", datetime.timedelta(minutes=5)),
    "session_table":
        lambda rank, window, ds: window.session_table(
            ds, "k", "ts", gap_seconds=60.0),
    "windowed_median":
        lambda rank, window, ds: rank.windowed_median(
            ds, "k", "ts", "v", "eid", 3),
}


@pytest.mark.parametrize("n,blocks", [(60, 3), (12, 40)])
@pytest.mark.parametrize("op", sorted(CARRY_SCANS))
def test_carry_scan_runs_two_executions(op, n, blocks, monkeypatch):
    """The scan's ``materialize`` and the read of the resolve; the
    carry rows come from the scanned blocks. 12 rows in 40 blocks
    leaves empty blocks without columns."""
    import ray
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    import json_schema_ray.engine.rank as rank
    import json_schema_ray.engine.window as window

    rng = np.random.default_rng(11)
    t = pa.table({
        "k": pa.array(rng.integers(0, 3, n), pa.int64()),
        "ts": pa.array(1_700_000_000_000_000
                       + rng.integers(0, 600, n) * 1_000_000, pa.int64())
        .cast(pa.timestamp("us")),
        "eid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(rng.integers(-20, 50, n), pa.int64(),
                      mask=rng.random(n) < 0.3)})
    ds = ray.data.from_arrow(t).repartition(blocks)
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    out = CARRY_SCANS[op](rank, window, ds).take_all()
    assert out
    assert len(executions) == 2
