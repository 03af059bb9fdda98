"""Ordered-window operators that run as ONE sorted-scan pass: one
null-safe sort and no groupby exchange. Counted at run time by
wrapping ``sorted_scan.null_safe_sort``, ``Dataset.sort`` and
``Dataset.groupby``, so a return to chained passes (a sort per fill
direction, a totals aggregate beside the scan) fails here."""

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
