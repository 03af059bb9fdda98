"""The three validation scans of ``engine/validate.py`` bundle reader
blocks into tasks of ``validate._task_rows`` rows. Their results must
not depend on the block layout: the same rows as 1, 6 or 40 blocks, in
one batch or sliced into many, give the DuckDB counts. A bundled batch
concatenates blocks in arrival order, so a conversation may recur
inside one batch or continue in another; the ordering checks stitch
both."""

import glob
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from test_validation_job import (TWELVE, _rel, _turns, duckdb_keys,
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
    and the engine's driver fold."""
    from json_schema_ray.engine.keys import (ordering_batch_parts,
                                             ordering_counts,
                                             ordering_fold)

    return ordering_counts(ordering_fold(
        [ordering_batch_parts(b, "conv_id", "turn_idx", "ts")
         for b in batches], True))


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


def _full_pass(t: pa.Table, blocks: int, presorted: bool) -> dict:
    """``full_validation_pass`` over ``t`` (sorted first when
    ``presorted``) in ``blocks`` blocks, with an all-pass schema."""
    import ray

    from json_schema_ray.engine.validate import (compile_plan_for,
                                                 full_validation_pass)

    if presorted:
        t = t.sort_by([(c, "ascending") for c in t.column_names])
    plan = compile_plan_for({"type": "object"}, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    return full_validation_pass(
        ray.data.from_arrow(t).repartition(blocks), plan,
        presorted=presorted)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("presorted", [True, False])
@pytest.mark.parametrize("blocks", [1, 2])
def test_null_group_is_not_the_empty_string(blocks, presorted):
    """A NULL conversation and a ``""`` one stay two groups in the
    ordering fold: the NULL one starts at turn 2, a late start that
    DuckDB's ``PARTITION BY conv_id`` counts."""
    import duckdb
    import ray

    from json_schema_ray.engine.keys import key_checks

    t = pa.table({
        "conv_id": pa.array(["", "", None, None], pa.string()),
        "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
        "ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
    })
    con = duckdb.connect()
    con.register("t", t)
    want = duckdb_keys(con, "t")["ordering_violations"]
    assert want == {"duplicate_turn": 0, "turn_gap": 1,
                    "ts_out_of_order": 0}
    assert _full_pass(t, blocks, presorted)[
        "ordering_violation_counts"] == want
    assert key_checks(ray.data.from_arrow(t).repartition(blocks))[
        "ordering_violations"] == want


# int64 conversation ids, 0 and NULL among them: 0 has a gap, 1 a
# duplicate turn, NULL a late start, 2 a ts regression, 5 is clean
INT_GROUPS = pa.table({
    "conv_id": pa.array([1, 0, None, 2, 5, 0, 1, 2, 5, None, 1, 0, 5],
                        pa.int64()),
    "turn_idx": pa.array([0, 0, 1, 0, 0, 1, 1, 1, 1, 2, 1, 3, 2],
                         pa.int32()),
    "ts": pa.array([1, 1, 1, 9, 1, 2, 2, 3, 2, 2, 3, 4, 3],
                   pa.timestamp("us")),
})


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("blocks", [1, 2, 6])
def test_integer_group_keys_on_every_ordering_surface(blocks):
    """Integer conversation ids, 0 and NULL included, through the
    fused pass (presorted or not), the key pass and
    ``turn_ordering_violations``, whose group column keeps the input
    type."""
    import duckdb
    import ray

    from json_schema_ray.engine.keys import (key_checks,
                                             turn_ordering_violations)

    con = duckdb.connect()
    con.register("t", INT_GROUPS)
    want = duckdb_keys(con, "t")["ordering_violations"]
    assert want == {"duplicate_turn": 1, "turn_gap": 2,
                    "ts_out_of_order": 1}
    for presorted in (True, False):
        assert _full_pass(INT_GROUPS, blocks, presorted)[
            "ordering_violation_counts"] == want, presorted
    ds = ray.data.from_arrow(INT_GROUPS).repartition(blocks)
    assert key_checks(ds)["ordering_violations"] == want
    out = pa.concat_tables(
        turn_ordering_violations(ds).iter_batches(batch_format="pyarrow"))
    assert out.schema.field("conv_id").type == pa.int64()
    assert dict(Counter(out["error_type"].to_pylist())) == \
        {k: n for k, n in want.items() if n}
    assert set(out["conv_id"].to_pylist()) == {0, 1, 2, None}


@pytest.fixture(scope="module")
def job_corpus(tmp_path_factory):
    """A ``write_transcripts`` corpus of 4 fragments, its plan and the
    fold of its fragment manifests."""
    from json_schema_ray.engine.manifest import (done_manifests,
                                                 fold_manifests,
                                                 plan_fingerprint,
                                                 run_resumable_validation)
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.sources.transcripts import (VALIDATION_SCHEMA,
                                                     write_transcripts)

    root = tmp_path_factory.mktemp("differential")
    data, out = str(root / "in"), str(root / "out")
    write_transcripts(data, 3000, violation_rate=0.02, n_files=4)
    files = sorted(glob.glob(os.path.join(data, "*.parquet")))
    plan = compile_plan_for(VALIDATION_SCHEMA, pq.read_schema(files[0]),
                            key_columns=["conv_id", "turn_idx"])
    run_resumable_validation(files, out, plan)
    manifests = done_manifests(out, files, plan_fingerprint(plan))
    return {"files": files, "plan": plan,
            "folded": fold_manifests(list(manifests.values()))}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("blocks", [1, 6, 40])
def test_fused_pass_manifests_and_key_pass_agree(job_corpus, blocks):
    """The fused pass, the fold of the fragment manifests and the key
    pass give the same counters, stats table and ordering counts over
    one corpus in 1, 6 or 40 blocks; the ordering counts are
    DuckDB's."""
    import duckdb
    import ray

    from json_schema_ray.engine.keys import key_checks
    from json_schema_ray.engine.validate import full_validation_pass

    files, folded = job_corpus["files"], job_corpus["folded"]
    fused = full_validation_pass(
        ray.data.read_parquet(files).repartition(blocks),
        job_corpus["plan"], presorted=False)
    keys = key_checks(ray.data.read_parquet(
        files, columns=["conv_id", "turn_idx", "ts"]).repartition(blocks))

    assert folded["invalid_rows"] > 0
    for k in ("total_rows", "valid_rows", "invalid_rows",
              "violation_rows", "violations_by_type"):
        assert fused[k] == folded[k], k
    assert fused["stats"].to_pylist() == folded["stats"].to_pylist()
    want = duckdb_keys(duckdb.connect(), _rel(files))
    assert fused["ordering_violation_counts"] == \
        keys["ordering_violations"] == want["ordering_violations"]
    assert sum(want["ordering_violations"].values()) > 0
