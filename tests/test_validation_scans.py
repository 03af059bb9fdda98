"""The three validation scans of ``engine/validate.py`` bundle reader
blocks into tasks of ``validate._task_rows`` rows. Their results must
not depend on the block layout: the same rows as 1, 6 or 40 blocks, in
one batch or sliced into many, give the DuckDB counts. A bundled batch
concatenates blocks in arrival order, so a conversation may recur
inside one batch or continue in another; the ordering checks stitch
both."""

from collections import Counter

import pyarrow as pa
import pytest

from test_validation_job import (TWELVE, _turns, duckdb_keys,
                                 duckdb_validation)

ORDER = [("conv_id", "ascending"), ("turn_idx", "ascending"),
         ("ts", "ascending")]

# [a0 a1 x0 x1] [y0 y1 y2] [x2 x3 z0]: x's turns run on in a block of
# the same file after a block of another file; x's ts drops from 11 to
# 5 across that split, the one real ordering violation
BLOCKS = [
    _turns([("a", 0, 0), ("a", 1, 1), ("x", 0, 10), ("x", 1, 11)]),
    _turns([("y", 0, 20), ("y", 1, 21), ("y", 2, 22)]),
    _turns([("x", 2, 5), ("x", 3, 13), ("z", 0, 30)]),
]
WANT = {"duplicate_turn": 0, "turn_gap": 0, "ts_out_of_order": 1}


def _fold(batches) -> dict:
    """Ordering counts of ``ordering_batch_parts`` over ``batches``
    and the driver stitch, as the scans fold them."""
    from json_schema_ray.engine.keys import (ordering_batch_parts,
                                             stitch_edge_partials)

    rows, edge = [], {}
    for b in batches:
        final, stitch_rows, partials = ordering_batch_parts(
            b, "conv_id", "turn_idx", "ts")
        rows += final
        for r in stitch_rows:
            edge.setdefault(r[0], (set(), []))[0].add(r)
        for gid, *p in partials:
            edge.setdefault(gid, (set(), []))[1].append(tuple(p))
    stitch_edge_partials(edge, True, rows)
    return {k: sum(r[1] == k for r in rows) for k in WANT}


def _oracle(t: pa.Table) -> dict:
    import duckdb

    con = duckdb.connect()
    con.register("t", t)
    return duckdb_keys(con, "t")["ordering_violations"]


def test_recurring_conversation_in_one_batch_is_stitched():
    """x occurs in two segments of one batch, each at a chunk boundary
    that marks a block: both go to the stitch."""
    batch = pa.concat_tables(BLOCKS)
    assert _oracle(batch) == WANT
    assert _fold([batch]) == WANT


def test_conversation_continued_in_another_batch_is_stitched():
    """x ends a block inside batch 1, between other conversations, and
    continues at the start of batch 2: the chunk boundary makes its
    batch-1 segment an edge."""
    one = pa.concat_tables(BLOCKS[:2])
    two = pa.concat_tables([BLOCKS[2], _turns([("b", 0, 40)])])
    assert _oracle(pa.concat_tables([one, two])) == WANT
    assert _fold([one, two]) == WANT


@pytest.mark.usefixtures("ray_session")
def test_full_pass_bundles_interleaved_blocks(monkeypatch):
    """The three blocks above bundle into one task of
    ``full_validation_pass(presorted=True)`` and give DuckDB's LAG
    counts over ``ORDER BY conv_id, turn_idx, ts``."""
    import ray

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.validate import (compile_plan_for,
                                                 full_validation_pass)

    monkeypatch.setattr(validate, "_task_rows", lambda ds: 10)
    plan = compile_plan_for({"type": "object"}, BLOCKS[0].schema,
                            key_columns=["conv_id", "turn_idx"])
    got = full_validation_pass(ray.data.from_arrow(BLOCKS), plan,
                               presorted=True)
    assert got["ordering_violation_counts"] == \
        _oracle(pa.concat_tables(BLOCKS)) == WANT


def _viol_multiset(table: pa.Table, keys) -> Counter:
    return Counter(tuple(r[k] for k in keys) + (
        r["path"], r["error_type"], r["message"])
        for r in table.to_pylist())


def _stats_counts(summary: dict) -> dict:
    return {r["column"]: (r["count"], r["null_count"])
            for r in summary["stats"].to_pylist()}


def _duckdb_stats(con, t: pa.Table) -> dict:
    return {c: con.sql(f"SELECT count(*), count(*) - count({c}) "
                       "FROM t").fetchone() for c in t.column_names}


def _three_scans(make_ds, plan, presorted: bool):
    """verdict_counts, the violation rows and full_validation_pass,
    each over a new dataset from ``make_ds``."""
    from json_schema_ray.engine.validate import (full_validation_pass,
                                                 verdict_counts,
                                                 violations_dataset)

    viol = pa.concat_tables(
        [plan.violation_schema().empty_table()]
        + list(violations_dataset(make_ds(), plan).iter_batches(
            batch_format="pyarrow")))
    return (verdict_counts(make_ds(), plan), viol,
            full_validation_pass(make_ds(), plan, presorted=presorted))


@pytest.fixture(scope="module")
def corpus():
    """3,000 turns with injected violations, in (conv, turn, ts)
    order: the presorted layout."""
    from json_schema_ray.sources.transcripts import generate_transcripts

    return generate_transcripts(3000, seed=11,
                                violation_rate=0.02).sort_by(ORDER)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("task_rows", [None, 3000, 97])
@pytest.mark.parametrize("blocks", [1, 6, 40])
def test_scans_do_not_depend_on_block_layout(corpus, blocks, task_rows,
                                             monkeypatch):
    """The three scans over 1, 6 or 40 blocks, in tasks sized by
    ``_task_rows``, bundled into one batch (``task_rows`` 3000) or
    sliced into batches that start and end inside blocks (97), give
    DuckDB's counts and the in-process violation rows."""
    import duckdb
    import ray

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.table_validator import validate_batch
    from json_schema_ray.sources.transcripts import VALIDATION_SCHEMA

    if task_rows:
        monkeypatch.setattr(validate, "_task_rows", lambda ds: task_rows)
    keys = ["conv_id", "turn_idx"]
    plan = validate.compile_plan_for(VALIDATION_SCHEMA, corpus.schema,
                                     key_columns=keys)
    con = duckdb.connect()
    con.register("t", corpus)
    want = duckdb_validation(con, "t")
    verdicts, viol, summary = _three_scans(
        lambda: ray.data.from_arrow(corpus).repartition(blocks), plan,
        presorted=True)

    assert want["invalid_rows"] > 0
    assert verdicts == {"total_rows": want["total_rows"],
                        "valid_rows": want["total_rows"]
                        - want["invalid_rows"],
                        "invalid_rows": want["invalid_rows"]}
    assert _viol_multiset(viol, keys) == \
        _viol_multiset(validate_batch(corpus, plan), keys)
    assert dict(Counter(viol["error_type"].to_pylist())) == \
        want["violations_by_type"]
    for k in ("total_rows", "invalid_rows", "violation_rows"):
        assert summary[k] == want[k], k
    assert summary["ordering_violation_counts"] == \
        duckdb_keys(con, "t")["ordering_violations"]
    assert _stats_counts(summary) == _duckdb_stats(con, corpus)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("task_rows", [12, 1])
def test_scans_twelve_rows_in_40_blocks(task_rows, monkeypatch):
    """12 unsorted rows in 40 blocks (empty blocks, some without
    columns), through the unsorted full pass, in one batch or
    (``task_rows`` 1) one row per batch, so every conversation goes
    through the stitch."""
    import duckdb
    import ray

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.table_validator import validate_batch

    monkeypatch.setattr(validate, "_task_rows", lambda ds: task_rows)
    keys = ["conv_id", "turn_idx"]
    plan = validate.compile_plan_for(
        {"type": "object",
         "properties": {"turn_idx": {"type": "integer", "maximum": 1}}},
        TWELVE.schema, key_columns=keys)
    con = duckdb.connect()
    con.register("t", TWELVE)
    verdicts, viol, summary = _three_scans(
        lambda: ray.data.from_arrow(TWELVE).repartition(40), plan,
        presorted=False)

    invalid = con.sql("SELECT count(*) FROM t WHERE turn_idx > 1") \
        .fetchone()[0]
    assert invalid == 4
    assert verdicts == {"total_rows": 12, "valid_rows": 12 - invalid,
                        "invalid_rows": invalid}
    assert _viol_multiset(viol, keys) == \
        _viol_multiset(validate_batch(TWELVE, plan), keys)
    assert summary["invalid_rows"] == invalid
    assert summary["ordering_violation_counts"] == \
        duckdb_keys(con, "t")["ordering_violations"]
    assert _stats_counts(summary) == _duckdb_stats(con, TWELVE)


@pytest.mark.usefixtures("ray_session")
def test_task_rows_gives_two_tasks_per_cpu(corpus, monkeypatch):
    """``_task_rows`` sizes a task to N // (4*C) rows, at most
    ``_TASK_ROWS``, so 40 blocks of 75 rows still run as more than
    2*C batches. It leaves the blocks alone (None) when they are no
    more than the tasks it aims at, or when the row count is not known
    without running the plan."""
    import ray

    from json_schema_ray.engine import validate

    cpus = int(ray.cluster_resources()["CPU"])
    n = corpus.num_rows
    ds = ray.data.from_arrow(corpus).repartition(40)
    assert validate._task_rows(ds) == n // (4 * cpus)
    sizes = [r["n"] for r in validate._scan(
        ds, lambda b: pa.table({"n": [b.num_rows]})).iter_rows()]
    assert sum(sizes) == n and len(sizes) > 2 * cpus
    assert validate._task_rows(
        ray.data.from_arrow(corpus).repartition(4 * cpus)) is None
    assert validate._task_rows(
        ds.map_batches(lambda b: b, batch_format="pyarrow")) is None
    monkeypatch.setattr(validate, "_TASK_ROWS", 50)
    assert validate._task_rows(ds) is None
    assert validate._task_rows(
        ray.data.from_arrow(corpus).repartition(100)) == 50
