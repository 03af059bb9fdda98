"""jobs/validate_transcripts.py end to end, and its key pass, checked
against DuckDB: fresh run, resume, resume after a kill, and the resume
refusals (exit 2)."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

ORDERING_SQL = """
    WITH s AS (
        SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, ts,
               lag(CAST(turn_idx AS BIGINT)) OVER w AS pt,
               lag(ts) OVER w AS pts,
               row_number() OVER w AS rn
        FROM {rel}
        WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx, ts))
    SELECT
        count(DISTINCT (conv_id, turn_idx)) FILTER (WHERE pt = turn_idx),
        count(*) FILTER (WHERE rn = 1 AND turn_idx <> 0)
          + count(*) FILTER (WHERE pt IS NOT NULL AND turn_idx - pt > 1),
        count(DISTINCT conv_id) FILTER (WHERE pts IS NOT NULL
                                        AND ts < pts)
    FROM s"""

# the default transcript schema's keywords, one SQL condition each
SCHEMA_SQL = [
    ("required_failed", "conv_id IS NULL"),
    ("required_failed", "turn_idx IS NULL"),
    ("required_failed", "role IS NULL"),
    ("required_failed", "text IS NULL"),
    ("required_failed", "ts IS NULL"),
    ("pattern_failed", "NOT regexp_matches(conv_id, '^conv-[0-9]{8}$')"),
    ("min_failed", "turn_idx < 0"),
    ("invalid_type",
     "role NOT IN ('user', 'assistant', 'tool', 'system')"),
    ("min_length_failed", "length(text) < 1"),
    ("max_length_failed", "length(text) > 4000"),
    ("pattern_failed", "NOT regexp_matches(tool, '^[a-z][a-z0-9-]*$')"),
]


def _rel(files):
    return "read_parquet([" + ", ".join(f"'{f}'" for f in files) + "])"


def duckdb_keys(con, rel: str) -> dict:
    dup = con.sql(f"SELECT count(*) FROM (SELECT conv_id, turn_idx "
                  f"FROM {rel} GROUP BY conv_id, turn_idx "
                  "HAVING count(*) > 1)").fetchone()[0]
    dup_turn, gap, ts_ooo = con.sql(ORDERING_SQL.format(rel=rel)).fetchone()
    return {"duplicate_keys": dup,
            "ordering_violations": {"duplicate_turn": dup_turn,
                                    "turn_gap": gap,
                                    "ts_out_of_order": ts_ooo}}


def duckdb_validation(con, rel: str) -> dict:
    flags = ", ".join(f"CAST({c} AS INT) AS f{i}"
                      for i, (_, c) in enumerate(SCHEMA_SQL))
    sums = ", ".join(f"coalesce(sum(f{i}), 0)"
                     for i in range(len(SCHEMA_SQL)))
    any_bad = " OR ".join(f"f{i} = 1" for i in range(len(SCHEMA_SQL)))
    row = con.sql(f"SELECT {sums}, count(*) FILTER (WHERE {any_bad}), "
                  f"count(*) FROM (SELECT {flags} FROM {rel})").fetchone()
    by_type: dict = {}
    for (etype, _), n in zip(SCHEMA_SQL, row[:-2]):
        if n:
            by_type[etype] = by_type.get(etype, 0) + n
    return {"total_rows": row[-1], "invalid_rows": row[-2],
            "violation_rows": sum(by_type.values()),
            "violations_by_type": dict(sorted(by_type.items()))}


def _turns(rows):
    """(conv_id, turn_idx, ts seconds) rows as a transcript key table."""
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "ts": pa.array([r[2] * 1_000_000 for r in rows], pa.int64())
        .cast(pa.timestamp("us")),
    })


# 12 rows: duplicated turns inside and across conversations, late
# starts, gaps, ts ties and regressions, in no particular order
TWELVE = _turns([
    ("c2", 1, 50), ("c1", 0, 0), ("c3", 0, 5), ("c1", 1, 20),
    ("c2", 1, 40), ("c1", 1, 10), ("c3", 2, 4), ("c1", 2, 30),
    ("c3", 2, 6), ("c2", 3, 60), ("c4", 0, 9), ("c3", 0, 5),
])


@pytest.mark.parametrize("blocks", [1, 6, 40])
def test_key_checks_match_duckdb(blocks):
    """One key-only sort and scan gives the DuckDB duplicate-key and
    LAG-window ordering counts; 12 rows in 40 blocks leaves empty
    blocks, some without columns."""
    import duckdb
    import ray

    from json_schema_ray.engine.keys import key_checks

    con = duckdb.connect()
    con.register("t", TWELVE)
    got = key_checks(ray.data.from_arrow(TWELVE).repartition(blocks))
    assert got == duckdb_keys(con, "t")
    assert got["duplicate_keys"] > 0
    assert all(got["ordering_violations"].values())


@pytest.mark.parametrize("blocks", [1, 2, 7])
def test_key_checks_null_turn_at_block_edge(blocks):
    """A NULL ``turn_idx`` (a required_failed row) in a block's first
    or last conversation gives the DuckDB counts, as the same NULL
    inside a block does: NULL turns and ts take no part in the
    comparisons that need them. Conversation ``c`` has only NULL
    turns; ``d`` has a NULL ts."""
    import duckdb
    import ray

    from json_schema_ray.engine.keys import key_checks

    t = pa.table({
        "conv_id": pa.array(["a", "a", "b", "c", "c", "b", "d", "d"]),
        "turn_idx": pa.array([0, None, 0, None, None, 2, 0, 1],
                             pa.int32()),
        "ts": pa.array([0, 5, 1, 2, 3, 4, 9, None], pa.int64())
        .cast(pa.timestamp("us")),
    })
    con = duckdb.connect()
    con.register("t", t)
    want = duckdb_keys(con, "t")
    assert want["duplicate_keys"] == 1
    assert key_checks(ray.data.from_arrow(t).repartition(blocks)) == want


@pytest.mark.parametrize("blocks", [1, 4])
def test_unsorted_full_pass_orders_equal_turns_by_ts(blocks, monkeypatch):
    """Rows of one turn come back ordered by ts, as in SQL's
    ``ORDER BY turn_idx, ts``: turn 1 at 20 s then at 10 s in file
    order is a duplicate turn, not a ts regression. One batch per
    block, so 4 blocks meet in the cross-batch stitch."""
    import duckdb
    import ray

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.validate import (
        compile_plan_for, full_validation_pass)

    monkeypatch.setattr(validate, "_task_rows", lambda ds: 4 // blocks)

    t = _turns([("c1", 0, 0), ("c1", 1, 20), ("c1", 1, 10), ("c1", 2, 30)])
    con = duckdb.connect()
    con.register("t", t)
    plan = compile_plan_for({"type": "object"}, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    ds = ray.data.from_arrow([t.slice(i * 4 // blocks, 4 // blocks)
                              for i in range(blocks)])
    got = full_validation_pass(ds, plan, presorted=False)
    assert got["ordering_violation_counts"] == \
        duckdb_keys(con, "t")["ordering_violations"] == \
        {"duplicate_turn": 1, "turn_gap": 0, "ts_out_of_order": 0}


def _profile(path: str) -> str:
    """A reference profile over role counts and exact text lengths of
    an independent clean corpus."""
    import ray

    from json_schema_ray.engine.drift import ReferenceProfile
    from json_schema_ray.sources.transcripts import generate_transcripts

    ref = ray.data.from_arrow(generate_transcripts(2000, seed=7))
    prof = ReferenceProfile.build(ref, categorical=["role"],
                                  exact_lengths=["text"])
    with open(path, "w") as fh:
        fh.write(prof.to_json())
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from json_schema_ray.sources.transcripts import write_transcripts

    root = tmp_path_factory.mktemp("job")
    data = str(root / "in")
    write_transcripts(data, 3000, violation_rate=0.01, n_files=4)
    return {"input": data, "profile": _profile(str(root / "profile.json")),
            "files": sorted(glob.glob(os.path.join(data, "*.parquet")))}


def _job(corpus, out, *extra, profile=True):
    from jobs.validate_transcripts import main

    argv = ["--input", corpus["input"], "--out", out]
    if profile:
        argv += ["--profile", corpus["profile"]]
    return main(argv + list(extra))


def _summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def _no_fragment_lines(out):
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        return [ln for ln in fh.read().splitlines()
                if not ln.startswith(b'  "fragments')]


@pytest.fixture(scope="module")
def fresh(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fresh") / "out")
    rc = _job(corpus, out)
    return {"rc": rc, "out": out, "summary": _summary(out)}


def test_fresh_job_matches_duckdb(corpus, fresh):
    import duckdb
    import ray

    from json_schema_ray.engine.drift import ReferenceProfile

    assert fresh["rc"] == 1
    assert ray.is_initialized()  # the session is the caller's
    s = fresh["summary"]
    con = duckdb.connect()
    rel = _rel(corpus["files"])
    want = duckdb_validation(con, rel)
    assert want["invalid_rows"] > 0
    for k, v in want.items():
        assert s[k] == v, k
    assert s["valid_rows"] == want["total_rows"] - want["invalid_rows"]
    keys = duckdb_keys(con, rel)
    assert s["duplicate_keys"] == keys["duplicate_keys"]
    assert s["ordering_violations"] == keys["ordering_violations"]
    assert (s["fragments"], s["fragments_skipped"]) == (4, 0)
    written = con.sql(
        "SELECT error_type, count(*) FROM read_parquet('"
        + os.path.join(fresh["out"], "violations", "*.parquet")
        + "') GROUP BY 1 ORDER BY 1").fetchall()
    assert dict(written) == s["violations_by_type"]
    with open(corpus["profile"]) as fh:
        prof = ReferenceProfile.from_json(fh.read())
    drift = prof.compare(ray.data.read_parquet(corpus["files"]))
    assert s["drift"] == drift.to_pylist()
    assert {r["column"] for r in s["stats"]} == set(
        pq.read_schema(corpus["files"][0]).names)


def test_resume_of_finished_run_does_no_ray_work(corpus, fresh,
                                                 monkeypatch, tmp_path):
    import ray

    out = str(tmp_path / "out")
    shutil.copytree(fresh["out"], out)

    def no_ray_work(*a, **k):
        raise AssertionError("a finished run resumed with Ray work")

    monkeypatch.setattr(ray.data, "read_parquet", no_ray_work)
    monkeypatch.setattr(ray.data, "from_items", no_ray_work)
    assert _job(corpus, out, "--resume") == 1
    s = _summary(out)
    assert (s["fragments"], s["fragments_skipped"]) == (0, 4)
    assert {k: v for k, v in s.items() if not k.startswith("fragments")} \
        == {k: v for k, v in fresh["summary"].items()
            if not k.startswith("fragments")}


def test_resume_after_kill_gives_the_same_summary(corpus, fresh, tmp_path):
    """A killed run has violations files without manifests (a manifest
    is written last) and no key record yet."""
    out = str(tmp_path / "out")
    shutil.copytree(fresh["out"], out)
    for name in sorted(os.listdir(os.path.join(out, "manifest")))[1:3]:
        os.remove(os.path.join(out, "manifest", name))
    os.remove(os.path.join(out, "keys.json"))
    os.remove(os.path.join(out, "summary.json"))
    assert _job(corpus, out, "--resume") == 1
    s = _summary(out)
    assert (s["fragments"], s["fragments_skipped"]) == (2, 2)
    assert _no_fragment_lines(out) == _no_fragment_lines(fresh["out"])
    for f in sorted(os.listdir(os.path.join(out, "violations"))):
        assert pq.read_table(os.path.join(out, "violations", f)).equals(
            pq.read_table(os.path.join(fresh["out"], "violations", f)))


@pytest.fixture
def finished(tmp_path):
    """A small finished run of its own, for a test to change."""
    from json_schema_ray.sources.transcripts import write_transcripts

    data = str(tmp_path / "in")
    write_transcripts(data, 400, violation_rate=0.01, n_files=2)
    run = {"input": data, "out": str(tmp_path / "out"),
           "profile": _profile(str(tmp_path / "profile.json")),
           "files": sorted(glob.glob(os.path.join(data, "*.parquet")))}
    assert _job(run, run["out"]) in (0, 1)
    return run


def _refused(run, capsys, *extra, profile=True) -> str:
    capsys.readouterr()
    assert _job(run, run["out"], "--resume", *extra, profile=profile) == 2
    return capsys.readouterr().err


def test_resume_refuses_another_schema(finished, capsys, tmp_path):
    from json_schema_ray.engine.manifest import (
        ResumeMismatch, run_resumable_validation)
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.sources.transcripts import VALIDATION_SCHEMA

    other = json.loads(json.dumps(VALIDATION_SCHEMA))
    other["properties"]["text"]["maxLength"] = 100
    path = str(tmp_path / "other.json")
    with open(path, "w") as fh:
        json.dump(other, fh)
    err = _refused(finished, capsys, "--schema", path)
    assert "part-00000" in err and "plan fingerprint" in err
    plan = compile_plan_for(other, pq.read_schema(finished["files"][0]),
                            key_columns=["conv_id", "turn_idx"])
    with pytest.raises(ResumeMismatch, match="plan fingerprint"):
        run_resumable_validation(finished["files"], finished["out"], plan)


def test_resume_refuses_other_profile_columns(finished, capsys):
    err = _refused(finished, capsys, profile=False)
    assert "part-00000" in err and "plan fingerprint" in err


def test_resume_refuses_a_changed_fragment(finished, capsys):
    path = finished["files"][1]
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    err = _refused(finished, capsys)
    assert "part-00001" in err and "mtime_ns" in err
    assert "size" not in err and "rows" not in err

    t = pq.read_table(path)
    pq.write_table(t.slice(0, t.num_rows - 1), path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    err = _refused(finished, capsys)
    assert "part-00001" in err and "size" in err and "rows" in err
    assert "mtime_ns" not in err


def test_resume_refuses_a_fragment_gone_from_input(finished, capsys):
    os.remove(finished["files"][0])
    err = _refused(finished, capsys)
    assert "part-00000" in err and "no longer in the input" in err
