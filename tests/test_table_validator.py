"""Differential tests: the vectorized Arrow plan vs the row
interpreter oracle, plus the Ray Data validation stages."""

import json

import numpy as np
import pyarrow as pa
import pytest

from json_schema_ray.engine.table_validator import (
    compile_table_plan,
    validate_batch,
    verdict_mask,
)
from json_schema_ray.engine.validate import compile_plan_for, compile_schema
from json_schema_ray.interpreter import Validator
from json_schema_ray.sources.transcripts import (
    TRANSCRIPT_SCHEMA,
    VALIDATION_SCHEMA,
    generate_transcripts,
)


def row_as_document(row: dict) -> dict:
    """Engine semantics: a NULL cell = key absent."""
    return {k: v for k, v in row.items() if v is not None}


def interpreter_verdicts(table: pa.Table, schema) -> list:
    v = Validator(schema)
    out = []
    for row in table.to_pylist():
        doc = row_as_document(row)
        if "ts" in doc and hasattr(doc["ts"], "strftime"):
            doc["ts"] = doc["ts"].strftime("%Y-%m-%dT%H:%M:%SZ")
        out.append(v.validate(doc))
    return out


def test_verdicts_match_interpreter_on_transcripts():
    t = generate_transcripts(3000, violation_rate=0.02)
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    vec = verdict_mask(t, plan)
    schema = compile_schema(VALIDATION_SCHEMA)
    oracle = interpreter_verdicts(t, schema)
    assert list(vec) == oracle
    assert not all(oracle)  # violations actually present


def test_violation_rows_match_interpreter():
    t = generate_transcripts(3000, violation_rate=0.02)
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    violations = validate_batch(t, plan).to_pylist()

    schema = compile_schema(VALIDATION_SCHEMA)
    v = Validator(schema)
    expected = []
    for row in t.to_pylist():
        doc = row_as_document(row)
        if "ts" in doc and hasattr(doc["ts"], "strftime"):
            doc["ts"] = doc["ts"].strftime("%Y-%m-%dT%H:%M:%SZ")
        if not v.validate(doc):
            for e in v.errors:
                expected.append((e.pointer, e.type, e.message))
    got = [(r["path"], r["error_type"], r["message"]) for r in violations]
    assert got == expected


def test_violation_rows_ignore_chunking():
    """A batch split into many chunks, with failing cells in several
    of them, gives the same violation table as its one-chunk copy:
    the failing values are picked per chunk, in row order."""
    t = generate_transcripts(3000, violation_rate=0.05).combine_chunks()
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    chunked = pa.Table.from_batches(t.to_batches(max_chunksize=97))
    assert chunked.column("role").num_chunks > 30
    failing_chunks = set(np.nonzero(~verdict_mask(t, plan))[0] // 97)
    assert len(failing_chunks) > 5
    one = validate_batch(t, plan)
    assert one.num_rows > 0
    assert validate_batch(chunked, plan).equals(one)


def _plan_for(schema_json, table, **kw):
    return compile_plan_for(schema_json, table.schema, **kw)


def test_numeric_checks_and_multiple_of_quirk():
    table = pa.table({
        "cost": pa.array([0.005, 0.02, 10.5, None, -1.0], pa.float64()),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "cost": {"type": ["number"], "minimum": 0.0, "maximum": 10.0,
                     "multipleOf": 0.01},
        },
    }
    plan = _plan_for(schema_json, table)
    violations = validate_batch(table, plan).to_pylist()
    msgs = [v["message"] for v in violations]
    # Ruby float modulo: 0.005 % 0.01 != 0 (validator.rb:420-429)
    assert "0.005 is not a multiple of 0.01." in msgs
    assert "10.5 must be less than or equal to 10.0." in msgs
    assert "-1.0 must be greater than or equal to 0.0." in msgs
    # null row contributes nothing
    assert not any(v["message"].startswith("None") for v in violations)

    schema = compile_schema(schema_json)
    oracle = [Validator(schema).validate(row_as_document(r))
              for r in table.to_pylist()]
    assert list(verdict_mask(table, plan)) == oracle


def test_enum_bool_int_distinction():
    table = pa.table({"flag": pa.array([True, False, None], pa.bool_()),
                      "n": pa.array([1, 0, 2], pa.int64())})
    schema_json = {
        "type": ["object"],
        "properties": {
            "flag": {"enum": [True]},
            "n": {"enum": [1, True]},  # Ruby: true != 1
        },
    }
    plan = _plan_for(schema_json, table)
    vec = list(verdict_mask(table, plan))
    schema = compile_schema(schema_json)
    oracle = [Validator(schema).validate(row_as_document(r))
              for r in table.to_pylist()]
    assert vec == oracle == [True, False, False]


def test_list_column_checks():
    table = pa.table({
        "tags": pa.array([["a"], ["a", "b", "c"], [], None],
                         pa.list_(pa.string())),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "tags": {"type": ["array"], "minItems": 1, "maxItems": 2},
        },
    }
    plan = _plan_for(schema_json, table)
    violations = validate_batch(table, plan).to_pylist()
    msgs = [v["message"] for v in violations]
    assert "No more than 2 items are allowed; 3 were supplied." in msgs
    assert "1 item required; only 0 were supplied." in msgs
    assert len(msgs) == 2


def test_json_cell_fallback():
    table = pa.table({
        "props": pa.array(['{"k": 5}', '{"k": "x"}', "not json", None],
                          pa.string()),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "props": {
                "type": ["object"],
                "required": ["k"],
                "properties": {"k": {"type": ["integer"], "minimum": 0}},
            },
        },
    }
    plan = compile_plan_for(schema_json, table.schema,
                            json_columns={"props"})
    violations = validate_batch(table, plan).to_pylist()
    assert len(violations) == 2
    assert violations[0]["path"] == "#/props/k"
    assert "is not an integer" in violations[0]["message"]
    assert violations[1]["error_type"] == "invalid_json"


def test_wrong_arrow_type_fails_type_check():
    table = pa.table({"n": pa.array([1.5, 2.0], pa.float64())})
    schema_json = {
        "type": ["object"],
        "properties": {"n": {"type": ["integer"]}},
    }
    plan = _plan_for(schema_json, table)
    violations = validate_batch(table, plan).to_pylist()
    assert len(violations) == 2
    assert violations[0]["message"] == "For 'properties/n', 1.5 is not an integer."


def test_required_with_missing_column():
    table = pa.table({"a": pa.array([1, 2], pa.int64())})
    schema_json = {
        "type": ["object"],
        "required": ["a", "b"],
        "properties": {"a": {"type": ["integer"]},
                       "b": {"type": ["string"]}},
    }
    plan = _plan_for(schema_json, table)
    violations = validate_batch(table, plan).to_pylist()
    assert [v["message"] for v in violations] == ['"b" wasn\'t supplied.'] * 2
    assert list(verdict_mask(table, plan)) == [False, False]


def test_format_checks_vectorized():
    table = pa.table({
        "email": pa.array(["a@b.com", "@bad.com", None], pa.string()),
        "when": pa.array(["2014-05-13", "2014-24-60", "13/05/2014"], pa.string()),
        "link": pa.array(["https://example.com", "http://example.com[]", "#frag"],
                         pa.string()),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "email": {"type": ["string"], "format": "email"},
            "when": {"type": ["string"], "format": "date"},
            "link": {"type": ["string"], "format": "uri"},
        },
    }
    plan = _plan_for(schema_json, table)
    violations = validate_batch(table, plan).to_pylist()
    msgs = {v["message"] for v in violations}
    assert msgs == {
        "@bad.com is not a valid email.",
        "2014-24-60 is not a valid date.",
        "13/05/2014 is not a valid date.",
        "http://example.com[] is not a valid uri.",
    }


@pytest.mark.usefixtures("ray_session")
def test_ray_violations_dataset(tmp_path):
    import ray

    from json_schema_ray.engine.validate import (
        compile_plan_for, verdict_counts, violations_dataset)
    from json_schema_ray.sources.transcripts import write_transcripts

    path = str(tmp_path / "tr")
    write_transcripts(path, 5000, violation_rate=0.01, n_files=4)
    ds = ray.data.read_parquet(path)
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])
    vds = violations_dataset(ds, plan)
    rows = vds.take_all()
    assert len(rows) > 0
    assert {"conv_id", "turn_idx", "path", "error_type", "message"} <= set(rows[0])

    counts = verdict_counts(ray.data.read_parquet(path), plan)
    # one violation may produce >1 violation rows but >=1 invalid row each
    assert counts["invalid_rows"] > 0
    assert counts["total_rows"] == ds.count()
    assert counts["valid_rows"] + counts["invalid_rows"] == counts["total_rows"]


def test_full_validation_pass_matches_separate_stages(ray_session, tmp_path,
                                                     monkeypatch):
    import ray

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.validate import (
        compile_plan_for, full_validation_pass, verdict_counts)
    from json_schema_ray.sources.transcripts import write_transcripts

    # batches of a few hundred rows, so the 4 files still meet in the
    # cross-batch stitch rather than in one bundled batch
    monkeypatch.setattr(validate, "_task_rows", lambda ds: 300)
    path = str(tmp_path / "tr")
    write_transcripts(path, 4000, violation_rate=0.01, n_files=4)
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])
    summary = full_validation_pass(
        ray.data.read_parquet(path), plan, presorted=True)
    counts = verdict_counts(ray.data.read_parquet(path), plan)
    assert summary["total_rows"] == counts["total_rows"]
    assert summary["valid_rows"] == counts["valid_rows"]
    assert summary["violation_rows"] >= summary["invalid_rows"]
    stats = {r["column"]: r for r in summary["stats"].to_pylist()}
    assert stats["conv_id"]["count"] == counts["total_rows"]
    assert sum(summary["ordering_violation_counts"].values()) > 0


def test_vectorized_combinators_match_interpreter():
    """allOf/anyOf/oneOf/not lowered to Arrow masks (no fallback)."""
    table = pa.table({
        "contrived": pa.array(["ab", "foo", "zzz", "aaa", "", None,
                               "abcdef", "x" * 40], pa.string()),
        "n": pa.array([1, 5, 10, 15, 20, 3, None, 7], pa.int64()),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "contrived": {
                "allOf": [{"maxLength": 30}, {"minLength": 3}],
                "anyOf": [{"minLength": 3}, {"minLength": 5}],
                "oneOf": [{"pattern": "^(foo|aaa)$"},
                          {"pattern": "^(foo|zzz)$"}],
                "not": {"pattern": "^$"},
            },
            "n": {"oneOf": [{"minimum": 10}, {"multipleOf": 5}]},
        },
    }
    plan = compile_plan_for(schema_json, table.schema)
    assert all(cp.fallback_schema is None for cp in plan.columns)

    got = [(r["path"], r["error_type"], r["message"])
           for r in validate_batch(table, plan).to_pylist()]
    schema = compile_schema(schema_json)
    v = Validator(schema)
    expected = []
    oracle_verdicts = []
    for row in table.to_pylist():
        doc = row_as_document(row)
        ok = v.validate(doc)
        oracle_verdicts.append(ok)
        if not ok:
            expected.extend((e.pointer, e.type, e.message)
                            for e in v.errors)
    assert got == expected
    assert list(verdict_mask(table, plan)) == oracle_verdicts


def test_vectorized_list_items_match_interpreter():
    """items (list form) + uniqueItems lowered to flatten/segment
    kernels — no fallback."""
    table = pa.table({
        "vec": pa.array([[0.1, 0.2], [0.1, 5.0], [0.3, 0.3], None,
                         [], [0.1, None]], pa.list_(pa.float64())),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "vec": {"type": ["array"], "minItems": 1, "maxItems": 3,
                    "uniqueItems": True,
                    "items": {"type": ["number"], "minimum": -1.0,
                              "maximum": 1.0}},
        },
    }
    plan = compile_plan_for(schema_json, table.schema)
    cp = plan.columns[0]
    assert cp.fallback_schema is None and cp.element_checks \
        and cp.unique_items

    got = [(r["path"], r["error_type"], r["message"])
           for r in validate_batch(table, plan).to_pylist()]
    schema = compile_schema(schema_json)
    v = Validator(schema)
    expected = []
    verd = []
    for row in table.to_pylist():
        doc = row_as_document(row)
        ok = v.validate(doc)
        verd.append(ok)
        if not ok:
            expected.extend((e.pointer, e.type, e.message)
                            for e in v.errors)
    assert got == expected
    assert list(verdict_mask(table, plan)) == verd


def test_vectorized_struct_fields_match_interpreter():
    table = pa.table({
        "props": pa.array(
            [{"k": 5, "tag": "ok"}, {"k": 99, "tag": "x"},
             {"k": None, "tag": "ok"}, None, {"k": 3, "tag": None}],
            pa.struct([("k", pa.int64()), ("tag", pa.string())])),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "props": {
                "type": ["object"],
                "required": ["k"],
                "properties": {
                    "k": {"type": ["integer"], "maximum": 50},
                    "tag": {"type": ["string"], "minLength": 2},
                },
            },
        },
    }
    plan = compile_plan_for(schema_json, table.schema)
    cp = plan.columns[0]
    assert cp.fallback_schema is None and len(cp.struct_field_checks) == 2

    got = [(r["path"], r["error_type"], r["message"])
           for r in validate_batch(table, plan).to_pylist()]
    schema = compile_schema(schema_json)
    v = Validator(schema)
    expected, verd = [], []
    for row in table.to_pylist():
        doc = row_as_document(row)
        if "props" in doc:
            doc["props"] = {k: x for k, x in doc["props"].items()
                            if x is not None}
        ok = v.validate(doc)
        verd.append(ok)
        if not ok:
            expected.extend((e.pointer, e.type, e.message)
                            for e in v.errors)
    assert got == expected
    assert list(verdict_mask(table, plan)) == verd


def test_first_error_only_matches_fail_fast_selection():
    """first_error_only = the reference's deterministic fail_fast
    first error per document (keyword-order argmin)."""
    t = generate_transcripts(2000, violation_rate=0.03)
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    firsts = validate_batch(t, plan, first_error_only=True).to_pylist()

    schema = compile_schema(VALIDATION_SCHEMA)
    v = Validator(schema)
    expected = []
    for row in t.to_pylist():
        doc = row_as_document(row)
        if "ts" in doc and hasattr(doc["ts"], "strftime"):
            doc["ts"] = doc["ts"].strftime("%Y-%m-%dT%H:%M:%SZ")
        if not v.validate(doc, fail_fast=True):
            e = v.errors[0]
            expected.append((e.pointer, e.type, e.message))
    got = [(r["path"], r["error_type"], r["message"]) for r in firsts]
    assert got == expected
    assert len(got) > 0


def _diff_against_interpreter(table, schema_json):
    plan = compile_plan_for(schema_json, table.schema)
    got = [(r["path"], r["error_type"], r["message"])
           for r in validate_batch(table, plan).to_pylist()]
    schema = compile_schema(schema_json)
    v = Validator(schema)
    expected, verd = [], []
    for row in table.to_pylist():
        doc = row_as_document(row)
        ok = v.validate(doc)
        verd.append(ok)
        if not ok:
            expected.extend((e.pointer, e.type, e.message)
                            for e in v.errors)
    assert got == expected, (got, expected)
    assert list(verdict_mask(table, plan)) == verd
    return plan


def test_top_level_object_keywords_match_interpreter():
    table = pa.table({
        "a": pa.array(["x", None, "y", None], pa.string()),
        "b": pa.array([1, 2, None, None], pa.int64()),
        "S_extra": pa.array(["ok", "no", None, "yes"], pa.string()),
    })
    schema_json = {
        "type": ["object"],
        "required": ["a", "b"],
        "minProperties": 2,
        "maxProperties": 2,
        "dependencies": {"a": ["b"], "b": "a"},
        "patternProperties": {"^S_": {"type": ["string"], "minLength": 3}},
        "properties": {"a": {"type": ["string"]},
                       "b": {"type": ["integer"]}},
    }
    plan = _diff_against_interpreter(table, schema_json)
    assert not plan.full_row_fallback
    assert plan.pattern_plans and plan.simple_dependencies


def test_strict_properties_table_level():
    table = pa.table({
        "a": pa.array(["x", None], pa.string()),
        "zz": pa.array([1, 2], pa.int64()),
    })
    schema_json = {
        "type": ["object"],
        "strictProperties": True,
        "properties": {"a": {"type": ["string"]},
                       "c": {"type": ["integer"]}},
    }
    _diff_against_interpreter(table, schema_json)


def test_schema_dependency_lowers_to_verdict_mask():
    table = pa.table({
        "ssl": pa.array([True, None, True], pa.bool_()),
        "cost": pa.array([10.0, 5.0, 30.0], pa.float64()),
    })
    schema_json = {
        "type": ["object"],
        "dependencies": {
            "ssl": {"properties": {"cost": {"minimum": 20.0}}},
        },
    }
    plan = _diff_against_interpreter(table, schema_json)
    assert not plan.full_row_fallback
    assert [k for k, _, _ in plan.row_checks] == ["dependency"]


# ---------------------------------------------------------------------------
# row-level keywords: schema-form dependencies and allOf/anyOf/oneOf/not on
# the row object lower to verdict masks; the interpreter then runs only on
# the rows whose combined verdict fails
# ---------------------------------------------------------------------------

def _row_table():
    n = 12
    return pa.table({
        "id": pa.array(range(n), pa.int64()),
        "a": pa.array(["x1", None, "y", "x", None, "zz", "x22", "y",
                       None, "x", "q", "xy"], pa.string()),
        "n": pa.array([3, 7, None, -1, 0, 12, None, 5, 2, None, 9, 4],
                      pa.int64()),
        "flag": pa.array([True, False, None, True, None, False, True,
                          None, False, True, None, False], pa.bool_()),
    })


def _diff_batches_against_interpreter(table, schema_json, batch_rows=5):
    """Validate ``table`` in batches of ``batch_rows`` and compare with
    the interpreter row by row: verdicts, every violation's (id,
    pointer, type, message), the first error per row and the
    invalid-row count."""
    plan = compile_plan_for(schema_json, table.schema, key_columns=["id"])
    v = Validator(compile_schema(schema_json))
    exp_verdicts, exp_all, exp_first = [], [], []
    for row in table.to_pylist():
        ok = v.validate(row_as_document(row))
        exp_verdicts.append(ok)
        errs = [(row["id"], e.pointer, e.type, e.message) for e in v.errors]
        exp_all += errs
        exp_first += errs[:1]
    verdicts, got_all, got_first, invalid = [], [], [], 0
    for off in range(0, table.num_rows, batch_rows):
        b = table.slice(off, batch_rows)
        verdicts += list(verdict_mask(b, plan))
        viol, n_invalid = validate_batch(b, plan, with_invalid_count=True)
        invalid += n_invalid
        got_all += [(r["id"], r["path"], r["error_type"], r["message"])
                    for r in viol.to_pylist()]
        got_first += [(r["id"], r["path"], r["error_type"], r["message"])
                      for r in validate_batch(
                          b, plan, first_error_only=True).to_pylist()]
    assert verdicts == exp_verdicts
    assert got_all == exp_all
    assert got_first == exp_first
    assert invalid == exp_verdicts.count(False)
    return plan


ROW_COMBINATOR_SCHEMAS = {
    "allOf": {"allOf": [
        {"required": ["a"]},
        {"properties": {"n": {"minimum": 0}}},
    ]},
    "anyOf": {"anyOf": [
        {"required": ["a"], "properties": {"a": {"pattern": "^x"}}},
        {"required": ["n"]},
    ]},
    "oneOf": {"oneOf": [
        {"properties": {"a": {"pattern": "^x"}}},
        {"properties": {"n": {"maximum": 5}}},
        {"type": ["string"]},
    ]},
    "not": {"not": {"required": ["flag"],
                    "properties": {"n": {"minimum": 3}}}},
    "all four": {
        "allOf": [{"minProperties": 2}],
        "anyOf": [{"required": ["n"]}, {"required": ["flag"]}],
        "oneOf": [{"required": ["a"]}, {"type": ["object", "null"]}],
        "not": {"required": ["a", "n", "flag"]},
    },
}


@pytest.mark.parametrize("name", sorted(ROW_COMBINATOR_SCHEMAS))
def test_row_level_combinators_match_interpreter(name):
    schema_json = dict(ROW_COMBINATOR_SCHEMAS[name], type=["object"],
                       properties={"a": {"type": ["string"]}})
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert not plan.full_row_fallback and plan.row_checks
    assert all(cp.fallback_schema is None for cp in plan.columns)


def test_dependency_triggers_match_interpreter():
    """A boolean trigger fires only when true (null and false do not);
    any other non-null trigger fires; a trigger column absent from the
    table never fires."""
    schema_json = {
        "type": ["object"],
        "dependencies": {
            "flag": {"required": ["n"],
                     "properties": {"n": {"minimum": 1}}},
            "a": {"properties": {"n": {"maximum": 8}}},
            "missing": {"required": ["nowhere"]},
            "n": ["a"],
        },
    }
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert [k for k, _, _ in plan.row_checks] == ["dependency"] * 3
    assert plan.simple_dependencies == [("n", ["a"])]


def test_dependency_nested_in_combinator_matches_interpreter():
    schema_json = {
        "type": ["object"],
        "anyOf": [
            {"dependencies": {"flag": {"required": ["a"]}},
             "properties": {"n": {"maximum": 6}}},
            {"not": {"dependencies": {"a": {"required": ["n"]}}}},
        ],
        "dependencies": {
            "n": {"oneOf": [{"required": ["a"]}, {"required": ["flag"]}]},
        },
    }
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert not plan.full_row_fallback
    inner = plan.row_checks[1][2][0]  # the anyOf's first branch
    assert [k for k, _, _ in inner.row_checks] == ["dependency"]


def test_root_ref_cycle_falls_back_to_whole_row():
    schema_json = {
        "type": ["object"],
        "properties": {"n": {"type": ["integer"], "maximum": 8}},
        "dependencies": {"flag": {"$ref": "#"}},
    }
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert plan.full_row_fallback and not plan.row_checks


@pytest.mark.parametrize("extra", [
    {"enum": [{"id": 0, "a": "x1", "n": 3, "flag": True}, {"id": 4}]},
    {"allOf": [{"enum": [{"id": 0, "a": "x1", "n": 3, "flag": True}]}]},
    {"dependencies": {"a": {"additionalProperties": {"type": ["integer"]},
                            "properties": {"a": {}}}}},
], ids=["top-level enum", "enum in allOf", "additionalProperties schema"])
def test_unlowered_row_keywords_stay_whole_row(extra):
    schema_json = dict(extra, type=["object"])
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert plan.full_row_fallback and not plan.row_checks


def test_root_type_without_object_fails_every_row():
    schema_json = {"type": ["array"], "properties": {"n": {"minimum": 0}}}
    plan = _diff_batches_against_interpreter(_row_table(), schema_json)
    assert not plan.object_type_ok and not plan.full_row_fallback


def test_non_re2_patterns_fall_back_to_python_regex():
    t = pa.table({"name": pa.array(["ababc", "zzz", None], pa.string())})
    for pattern, expect in [("(?<word>ab)+c$", [True, False, True]),
                            ("(?<=a)b", [True, False, True])]:
        plan = compile_plan_for(
            {"type": ["object"],
             "properties": {"name": {"pattern": pattern}}}, t.schema)
        assert list(verdict_mask(t, plan)) == expect


def test_extra_columns_null_cells_pass_per_row():
    # a NULL cell in a non-allowed column is an absent key: the row
    # must validate; only rows with a present extra cell fail, and the
    # message lists exactly that row's extra keys
    table = pa.table({
        "a": pa.array([1, 2, 3, None], pa.int64()),
        "extra": pa.array([None, "x", None, "y"], pa.string()),
        "extra2": pa.array([None, "z", None, None], pa.string()),
    })
    schema_json = {
        "type": ["object"],
        "additionalProperties": False,
        "properties": {"a": {"type": ["integer"]}},
    }
    _diff_against_interpreter(table, schema_json)


def test_strict_properties_null_extra_cells_per_row():
    table = pa.table({
        "a": pa.array(["x", "y", "q"], pa.string()),
        "zz": pa.array([1, None, 2], pa.int64()),
    })
    schema_json = {
        "type": ["object"],
        "strictProperties": True,
        "properties": {"a": {"type": ["string"]}},
    }
    _diff_against_interpreter(table, schema_json)


def test_unique_items_nested_elements_fall_back():
    # uniqueItems over struct/list elements must route to the
    # interpreter (deep equality); the vectorized pandas `duplicated`
    # path raises TypeError on unhashable elements
    table = pa.table({
        "ls": pa.array([[{"k": 1}, {"k": 1}], [{"k": 1}, {"k": 2}], None],
                       pa.list_(pa.struct([("k", pa.int64())]))),
        "ll": pa.array([[[1, 2], [1, 2]], [[1], [2]], None],
                       pa.list_(pa.list_(pa.int64()))),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "ls": {"type": ["array"], "uniqueItems": True},
            "ll": {"type": ["array"], "uniqueItems": True},
        },
    }
    plan = _diff_against_interpreter(table, schema_json)
    for cp in plan.columns:
        assert cp.fallback_schema is not None


JSON_PROPS_SCHEMA = {
    "type": ["object"],
    "properties": {
        "props": {
            "type": ["object"],
            "required": ["k"],
            "properties": {
                "k": {"type": ["integer"], "maximum": 50},
                "name": {"type": ["string"], "minLength": 2},
            },
        },
    },
}


def _json_plan(arrow_schema, fast: bool):
    plan = compile_plan_for(JSON_PROPS_SCHEMA, arrow_schema,
                            json_columns={"props"})
    if not fast:
        for cp in plan.columns:
            cp.json_struct_type = None
    return plan


def test_map_column_vectorized_matches_interpreter():
    """pa.map_ columns with max/minProperties + patternProperties
    lower to vectorized kernels (offsets for counts, dictionary-coded
    key regex for patterns); verdicts AND violation rows must equal
    the row interpreter over dict-converted cells."""
    mt = pa.map_(pa.string(), pa.int64())
    table = pa.table({
        "attrs": pa.array([
            [("x_a", 1), ("x_b", 2)],        # valid
            [("x_a", 99)],                   # pattern value too big
            [("x_a", 1), ("x_b", 2), ("x_c", 3), ("other", 4)],  # >3
            [],                              # < 1 property
            None,                            # absent cell
            [("other", 123456)],             # non-matching key: free
            [("x_n", None)],                 # null value under pattern
        ], mt),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "attrs": {
                "type": ["object"],
                "minProperties": 1,
                "maxProperties": 3,
                "patternProperties": {"^x_": {"type": ["integer"],
                                              "maximum": 50}},
            },
        },
    }
    plan = compile_plan_for(schema_json, table.schema)
    assert plan.columns[0].map_vectorized  # took the lowered path
    got = [(r["path"], r["error_type"], r["message"])
           for r in validate_batch(table, plan).to_pylist()]
    schema = compile_schema(schema_json)
    v = Validator(schema)
    expected, verd = [], []
    for row in table.to_pylist():
        doc = {k: (dict(val) if val is not None else None)
               for k, val in row.items()}
        doc = {k: val for k, val in doc.items() if val is not None}
        ok = v.validate(doc)
        verd.append(ok)
        if not ok:
            expected.extend((e.pointer, e.type, e.message)
                            for e in v.errors)
    assert got == expected, (got, expected)
    assert list(verdict_mask(table, plan)) == verd
    assert len(expected) >= 3  # violations actually exercised


def test_json_decode_struct_fast_path_matches_interpreter():
    # decodable batch incl. cells ROUTED around the decode (float
    # lexemes, literal null) — the fast path must equal the
    # interpreter fallback exactly
    table = pa.table({"props": pa.array([
        '{"k": 5, "name": "ok"}',
        '{"k": 99}',                      # max_failed
        '{"name": "x"}',                  # required k missing + minLength
        '{"k": 5, "extra": true}',        # extra key allowed
        None,                             # absent cell
        'null',                           # literal null -> routed
        '{"k": 1.5}',                     # float lexeme -> routed
        '{"k": 1.0}',                     # integral float -> routed (Ruby Float)
        '{"k": 12, "name": "a"}',         # minLength fail
        '{"k": true}',                    # bool -> Int64 coercion -> routed
        '{"k": false}',                   # bool -> Int64 coercion -> routed
        '{"name": 77}',                   # int -> Utf8 coercion -> routed
        '{"k": 99999999999999999999}',    # int64 overflow -> routed
        '{"k": 18446744073709551615}',    # uint64-range overflow -> routed
        '{"k": 5, "name": "no null route"}',  # "null" in a string: fast path
        '{"k": "5"}',                     # string -> Int64 -> routed
    ], pa.string())})
    fast = _json_plan(table.schema, True)
    slow = _json_plan(table.schema, False)
    assert any(cp.json_struct_type is not None for cp in fast.columns)
    got = validate_batch(table, fast).to_pylist()
    want = validate_batch(table, slow).to_pylist()
    assert got == want
    assert list(verdict_mask(table, fast)) == list(verdict_mask(table, slow))
    assert len(got) >= 4  # violations actually present


def test_json_decode_struct_fallback_on_undecodable_batch():
    # wrong-typed field / malformed JSON break the strict decode: the
    # whole batch must fall back to the interpreter, identical output
    table = pa.table({"props": pa.array([
        '{"k": 5}', '{"k": "str"}', 'not json', '[1,2]',
    ], pa.string())})
    fast = _json_plan(table.schema, True)
    slow = _json_plan(table.schema, False)
    got = validate_batch(table, fast).to_pylist()
    want = validate_batch(table, slow).to_pylist()
    assert got == want
    assert list(verdict_mask(table, fast)) == list(verdict_mask(table, slow))


def test_tuple_items_vectorized_matches_interpreter():
    table = pa.table({
        "tup": pa.array(
            [["a", "bb", "ccc"],      # valid
             ["a"],                   # too short -> min_items only
             ["a", "bb", "ccc", "d"], # extra element -> additionalItems
             ["", "x", None],         # slot0 minLength, slot1 ok, null elem
             None],                   # absent cell
            pa.list_(pa.string())),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "tup": {
                "type": ["array"],
                "items": [
                    {"type": ["string"], "minLength": 1},
                    {"type": ["string"], "maxLength": 2},
                    {"type": ["string", "null"]},
                ],
                "additionalItems": {"type": ["string"], "maxLength": 1},
            },
        },
    }
    plan = _diff_against_interpreter(table, schema_json)
    assert plan.columns[0].tuple_count == 3
    assert plan.columns[0].fallback_schema is None


def test_tuple_items_additional_false_matches_interpreter():
    table = pa.table({
        "tup": pa.array(
            [[1, 2], [1, 2, 3], [1], [None, 5]],
            pa.list_(pa.int64())),
    })
    schema_json = {
        "type": ["object"],
        "properties": {
            "tup": {
                "type": ["array"],
                "items": [{"type": ["integer"], "minimum": 0},
                          {"type": ["integer"], "maximum": 10}],
                "additionalItems": False,
            },
        },
    }
    plan = _diff_against_interpreter(table, schema_json)
    assert plan.columns[0].tuple_additional_false


@pytest.mark.usefixtures("ray_session")
def test_full_validation_pass_unsorted_input(monkeypatch):
    """presorted=False: the fused pass must null-safe-sort first and
    produce the same summary as the presorted contiguous layout."""
    import ray

    import numpy as np_mod

    from json_schema_ray.engine import validate
    from json_schema_ray.engine.validate import (
        compile_plan_for, full_validation_pass)
    from json_schema_ray.sources.transcripts import generate_transcripts

    # batches of a few hundred rows, so the sorted blocks still meet in
    # the cross-batch stitch rather than in one bundled batch
    monkeypatch.setattr(validate, "_task_rows", lambda ds: 250)

    t = generate_transcripts(3000, violation_rate=0.02)
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    # ground truth = the presorted contract actually satisfied: a
    # globally (conv, turn)-sorted layout. (The generator's UNSORTED
    # layout with injected violations breaks the contiguity contract,
    # under which presorted=True is documented to give layout-
    # dependent counts.)
    truth_layout = t.sort_by([("conv_id", "ascending"),
                              ("turn_idx", "ascending")])
    sorted_res = full_validation_pass(
        ray.data.from_arrow(truth_layout), plan, presorted=True)

    rng = np_mod.random.default_rng(3)
    perm = rng.permutation(t.num_rows)
    shuffled = t.take(pa.array(perm))
    unsorted_res = full_validation_pass(
        ray.data.from_arrow(shuffled).repartition(6), plan,
        presorted=False)
    for k in ("total_rows", "valid_rows", "invalid_rows",
              "violation_rows", "ordering_violation_counts"):
        assert unsorted_res[k] == sorted_res[k], k


def test_invalid_count_matches_verdict_mask():
    """validate_batch(with_invalid_count=True) must agree with
    verdict_mask row-for-row: a row is valid iff it contributes no
    violation row (the fused-scan contract that lets the single-scan
    job skip the second keyword evaluation)."""
    from json_schema_ray.engine.table_validator import (
        compile_table_plan, validate_batch, verdict_mask)
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.sources.transcripts import (
        VALIDATION_SCHEMA, generate_transcripts)

    t = generate_transcripts(20_000, seed=7, violation_rate=0.05)
    plan = compile_plan_for(VALIDATION_SCHEMA, t.schema,
                            key_columns=["conv_id", "turn_idx"])
    ok = verdict_mask(t, plan)
    viol, n_invalid = validate_batch(t, plan, with_invalid_count=True)
    assert n_invalid == int((~ok).sum())
    assert viol.num_rows >= n_invalid > 0


# ---------------------------------------------------------------------------
# schema-registry dispatch (RegistryValidator)
# ---------------------------------------------------------------------------

_REG = {
    "search": {"type": ["object"], "properties": {"args": {
        "type": ["object"], "required": ["query", "limit"],
        "properties": {
            "query": {"type": ["string"], "minLength": 1},
            "limit": {"type": ["integer"], "minimum": 1,
                      "maximum": 100}}}}},
    "net": {"type": ["object"], "properties": {"args": {
        "type": ["object"],
        "properties": {
            "url": {"type": ["string"], "pattern": "^https://"},
            "retries": {"type": ["integer"], "maximum": 5}}}}},
}

_REG_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("family", pa.string()), ("args", pa.string())])


def _reg_batch():
    return pa.table({
        "conv_id": ["c1", "c2", "c3", "c4", "c5"],
        "turn_idx": pa.array([0, 1, 2, 3, 4], pa.int32()),
        "family": ["search", "net", "search", "mystery", None],
        "args": ['{"query":"","limit":101}',
                 '{"url":"http://x","retries":7}',
                 '{"query":"ok","limit":5}', '{}', '{}'],
    })


def test_registry_validator_routes_by_family():
    """Each row is validated against ITS family's schema: the same
    args string produces different verdicts under different
    families, and both violations of a doubly-bad row surface."""
    from json_schema_ray.engine.validate import RegistryValidator

    rv = RegistryValidator(_REG, _REG_SCHEMA, dispatch="family",
                           key_columns=["conv_id", "turn_idx"],
                           json_columns={"args"})
    out = rv(_reg_batch())
    rows = {(r["conv_id"], r["path"], r["error_type"], r["family"])
            for r in out.to_pylist()}
    assert ("c1", "#/args/query", "min_length_failed",
            "search") in rows
    assert ("c1", "#/args/limit", "max_failed", "search") in rows
    assert ("c2", "#/args/url", "pattern_failed", "net") in rows
    assert ("c2", "#/args/retries", "max_failed", "net") in rows
    # the valid search row emits nothing
    assert not any(r[0] == "c3" for r in rows)


def test_registry_validator_unknown_and_null_families_surface():
    """A dispatch value with no registry entry (or null) must emit an
    unknown_schema row per input row, never silently vanish."""
    from json_schema_ray.engine.validate import RegistryValidator

    rv = RegistryValidator(_REG, _REG_SCHEMA, dispatch="family",
                           key_columns=["conv_id", "turn_idx"],
                           json_columns={"args"})
    out = rv(_reg_batch())
    unk = {(r["conv_id"], r["family"]) for r in out.to_pylist()
           if r["error_type"] == "unknown_schema"}
    assert unk == {("c4", "mystery"), ("c5", "")}


def test_registry_validator_empty_batch_and_dataset(ray_session):
    """Zero-row batches return the typed empty violation table; the
    actor-pool dataset wrapper streams and preserves the schema."""
    import ray as ray_mod

    from json_schema_ray.engine.validate import (
        RegistryValidator, validate_by_registry)

    rv = RegistryValidator(_REG, _REG_SCHEMA, dispatch="family",
                           key_columns=["conv_id", "turn_idx"],
                           json_columns={"args"})
    empty = rv(_reg_batch().slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.names[-1] == "family"

    ds = ray_mod.data.from_arrow(_reg_batch()).repartition(3)
    out = pa.concat_tables(
        [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
         else b
         for b in validate_by_registry(
             ds, _REG, _REG_SCHEMA, dispatch="family",
             key_columns=["conv_id", "turn_idx"],
             json_columns={"args"},
             concurrency=2).iter_batches(batch_format="pyarrow")],
        promote_options="default")
    assert out.num_rows == 6
    assert set(out["error_type"].to_pylist()) == {
        "min_length_failed", "max_failed", "pattern_failed",
        "unknown_schema"}
