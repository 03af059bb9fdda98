"""Property-based differential testing: random tables + random simple
schemas through the vectorized plan vs the row interpreter (SURVEY §4:
'differential-test vectorized vs interpreter on ... randomized
tables')."""

import json

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from json_schema_ray.engine.table_validator import (
    validate_batch, verdict_mask)
from json_schema_ray.engine.validate import compile_plan_for, compile_schema
from json_schema_ray.interpreter import Validator


# draft-04 subschema fragments the vectorized path claims to lower
string_schemas = st.fixed_dictionaries({}, optional={
    "minLength": st.integers(0, 10),
    "maxLength": st.integers(0, 20),
    "pattern": st.sampled_from(["^a", "b$", "^[a-z]+$", "[0-9]", "^$"]),
    "enum": st.lists(st.text(alphabet="abc", max_size=3), min_size=1,
                     max_size=4),
    "format": st.sampled_from(["email", "ipv4", "uuid", "date"]),
})

number_schemas = st.fixed_dictionaries({}, optional={
    "minimum": st.integers(-5, 5),
    "maximum": st.integers(-5, 10),
    "exclusiveMinimum": st.booleans(),
    "exclusiveMaximum": st.booleans(),
    "multipleOf": st.sampled_from([1, 2, 0.5, 0.01]),
    "enum": st.lists(st.integers(-5, 10), min_size=1, max_size=4),
})


def combinator_of(base):
    return st.one_of(
        base,
        st.fixed_dictionaries({"allOf": st.lists(base, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({"anyOf": st.lists(base, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({"oneOf": st.lists(base, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({"not": base}),
    )


string_values = st.one_of(
    st.none(),
    st.text(alphabet="ab0c.@-$é", max_size=12),
    st.sampled_from(["a@b.com", "1.2.3.4", "2014-05-13", ""]),
)

number_values = st.one_of(
    st.none(),
    st.integers(-10, 15),
)

float_values = st.one_of(
    st.none(),
    st.floats(-10, 15, allow_nan=False),
)


def _oracle(table, schema_json):
    schema = compile_schema(schema_json)
    v = Validator(schema)
    verdicts, errors = [], []
    for row in table.to_pylist():
        doc = {k: x for k, x in row.items() if x is not None}
        ok = v.validate(doc)
        verdicts.append(ok)
        if not ok:
            errors.extend((e.pointer, e.type, e.message)
                          for e in v.errors)
    return verdicts, errors


@settings(max_examples=60, deadline=None)
@given(
    s_schema=combinator_of(string_schemas),
    n_schema=combinator_of(number_schemas),
    s_vals=st.lists(string_values, min_size=1, max_size=8),
    n_vals=st.lists(number_values, min_size=1, max_size=8),
)
def test_random_schemas_match_interpreter(s_schema, n_schema, s_vals, n_vals):
    n = max(len(s_vals), len(n_vals))
    s_vals = (s_vals * n)[:n]
    n_vals = (n_vals * n)[:n]
    table = pa.table({
        "s": pa.array(s_vals, pa.string()),
        "n": pa.array(n_vals, pa.int64()),
    })
    schema_json = {
        "type": ["object"],
        "properties": {"s": s_schema, "n": n_schema},
    }
    plan = compile_plan_for(schema_json, table.schema)
    vec_verdicts = list(verdict_mask(table, plan))
    got_errors = [(r["path"], r["error_type"], r["message"])
                  for r in validate_batch(table, plan).to_pylist()]
    exp_verdicts, exp_errors = _oracle(table, schema_json)
    assert vec_verdicts == exp_verdicts
    assert got_errors == exp_errors


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(
        st.one_of(st.none(),
                  st.lists(float_values, max_size=5)),
        min_size=1, max_size=6),
    min_items=st.integers(0, 3),
    max_items=st.integers(2, 6),
    unique=st.booleans(),
)
def test_random_list_schemas_match_interpreter(vals, min_items, max_items,
                                               unique):
    table = pa.table({"v": pa.array(vals, pa.list_(pa.float64()))})
    schema_json = {
        "type": ["object"],
        "properties": {
            "v": {"type": ["array"], "minItems": min_items,
                  "maxItems": max_items, "uniqueItems": unique,
                  "items": {"type": ["number"], "minimum": -5.0}},
        },
    }
    plan = compile_plan_for(schema_json, table.schema)
    vec_verdicts = list(verdict_mask(table, plan))
    got_errors = [(r["path"], r["error_type"], r["message"])
                  for r in validate_batch(table, plan).to_pylist()]
    exp_verdicts, exp_errors = _oracle(table, schema_json)
    assert vec_verdicts == exp_verdicts
    assert got_errors == exp_errors


@settings(max_examples=40, deadline=None)
@given(
    f_schema=combinator_of(st.fixed_dictionaries({}, optional={
        "minimum": st.floats(-5, 5, allow_nan=False),
        "maximum": st.floats(-5, 10, allow_nan=False),
        "exclusiveMinimum": st.booleans(),
        "multipleOf": st.sampled_from([0.5, 0.01, 2]),
        "type": st.sampled_from([["number"], ["integer"],
                                 ["number", "null"]]),
    })),
    f_vals=st.lists(float_values, min_size=1, max_size=8),
)
def test_random_float_schemas_match_interpreter(f_schema, f_vals):
    table = pa.table({"f": pa.array(f_vals, pa.float64())})
    schema_json = {"type": ["object"], "properties": {"f": f_schema}}
    plan = compile_plan_for(schema_json, table.schema)
    vec_verdicts = list(verdict_mask(table, plan))
    got_errors = [(r["path"], r["error_type"], r["message"])
                  for r in validate_batch(table, plan).to_pylist()]
    exp_verdicts, exp_errors = _oracle(table, schema_json)
    assert vec_verdicts == exp_verdicts
    assert got_errors == exp_errors


# row-object subschemas over the columns s, n and b; row-level
# combinators and schema-form dependencies nest them, so a dependency
# can sit inside a combinator and the other way round
object_subschemas = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from([["object"], ["string"], ["object", "null"]]),
    "properties": st.fixed_dictionaries({}, optional={
        "s": string_schemas, "n": number_schemas}),
    "required": st.lists(st.sampled_from(["s", "n", "b"]), min_size=1,
                         max_size=2, unique=True),
    "minProperties": st.integers(1, 3),
    "dependencies": st.fixed_dictionaries({}, optional={
        "s": st.lists(st.sampled_from(["n", "b"]), min_size=1,
                      max_size=2, unique=True)}),
})


def row_level_of(children):
    return st.builds(
        lambda base, extra: {**base, **extra},
        object_subschemas,
        st.fixed_dictionaries({}, optional={
            "allOf": st.lists(children, min_size=1, max_size=2),
            "anyOf": st.lists(children, min_size=1, max_size=2),
            "oneOf": st.lists(children, min_size=1, max_size=2),
            "not": children,
            "dependencies": st.fixed_dictionaries({}, optional={
                "b": children, "s": children, "n": children}),
        }))


row_schemas = st.recursive(object_subschemas, row_level_of, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(
    r_schema=row_level_of(row_schemas),
    s_schema=combinator_of(string_schemas),
    s_vals=st.lists(string_values, min_size=1, max_size=8),
    n_vals=st.lists(number_values, min_size=1, max_size=8),
    b_vals=st.lists(st.sampled_from([None, False, True]), min_size=1,
                    max_size=8),
)
def test_random_row_level_schemas_match_interpreter(r_schema, s_schema,
                                                    s_vals, n_vals, b_vals):
    """Row-level allOf/anyOf/oneOf/not and schema-form dependencies
    lower to verdict masks; the interpreter's messages for the failing
    rows must match it row by row, over two batches."""
    n = max(len(s_vals), len(n_vals), len(b_vals))
    table = pa.table({
        "s": pa.array((s_vals * n)[:n], pa.string()),
        "n": pa.array((n_vals * n)[:n], pa.int64()),
        "b": pa.array((b_vals * n)[:n], pa.bool_()),
    })
    schema_json = dict(r_schema, properties={"s": s_schema})
    plan = compile_plan_for(schema_json, table.schema)
    has_row_keywords = any(k in r_schema for k in
                           ("allOf", "anyOf", "oneOf", "not"))
    if has_row_keywords or any(isinstance(d, dict) for d in
                               r_schema.get("dependencies", {}).values()):
        assert plan.row_checks and not plan.full_row_fallback
    half = (n + 1) // 2
    vec_verdicts, got_errors = [], []
    for b in (table.slice(0, half), table.slice(half)):
        vec_verdicts += list(verdict_mask(b, plan))
        got_errors += [(r["path"], r["error_type"], r["message"])
                       for r in validate_batch(b, plan).to_pylist()]
    exp_verdicts, exp_errors = _oracle(table, schema_json)
    assert vec_verdicts == exp_verdicts
    assert got_errors == exp_errors


tuple_slot_schemas = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from([["string"], ["string", "null"]]),
    "minLength": st.integers(0, 4),
    "maxLength": st.integers(1, 8),
    "pattern": st.sampled_from(["^a", "[0-9]"]),
})

tuple_elem_values = st.one_of(
    st.none(), st.text(alphabet="ab1", max_size=5))


@settings(max_examples=40, deadline=None)
@given(
    slots=st.lists(tuple_slot_schemas, min_size=1, max_size=3),
    additional=st.one_of(st.just(True), st.just(False),
                         tuple_slot_schemas),
    vals=st.lists(
        st.one_of(st.none(),
                  st.lists(tuple_elem_values, max_size=5)),
        min_size=1, max_size=6),
)
def test_random_tuple_items_match_interpreter(slots, additional, vals):
    table = pa.table({"v": pa.array(vals, pa.list_(pa.string()))})
    prop = {"type": ["array"], "items": slots}
    if additional is not True:
        prop["additionalItems"] = additional
    schema_json = {"type": ["object"], "properties": {"v": prop}}
    plan = compile_plan_for(schema_json, table.schema)
    assert plan.columns[0].tuple_count == len(slots)
    vec_verdicts = list(verdict_mask(table, plan))
    got_errors = [(r["path"], r["error_type"], r["message"])
                  for r in validate_batch(table, plan).to_pylist()]
    exp_verdicts, exp_errors = _oracle(table, schema_json)
    assert vec_verdicts == exp_verdicts
    assert got_errors == exp_errors


json_cells = st.one_of(
    st.none(),
    st.just("null"),
    st.just("not json"),
    st.just("[1, 2]"),
    st.builds(
        lambda k, name, extra: json.dumps(
            {key: (None if val == "<NULL>" else val)
             for key, val in
             [("k", k), ("name", name), ("x", extra)]
             if val is not None}),
        k=st.one_of(st.none(), st.just("<NULL>"), st.integers(-5, 60),
                    st.just(1.5), st.just(2.0),
                    st.text(alphabet="ab", max_size=2)),
        name=st.one_of(st.none(), st.just("<NULL>"),
                       st.text(alphabet="ab", max_size=4),
                       st.just("has null inside")),
        extra=st.one_of(st.none(), st.booleans()),
    ),
)


@settings(max_examples=50, deadline=None)
@given(cells=st.lists(json_cells, min_size=1, max_size=8))
def test_random_json_cells_fast_path_matches_fallback(cells):
    """The decode->struct fast path must be indistinguishable from the
    per-cell interpreter fallback on arbitrary JSON cells (malformed,
    literal null, float lexemes, wrong-typed/missing/extra fields)."""
    table = pa.table({"props": pa.array(cells, pa.string())})
    schema_json = {
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
    fast = compile_plan_for(schema_json, table.schema,
                            json_columns={"props"})
    assert fast.columns[0].json_struct_type is not None
    slow = compile_plan_for(schema_json, table.schema,
                            json_columns={"props"})
    for cp in slow.columns:
        cp.json_struct_type = None
    assert list(verdict_mask(table, fast)) == \
        list(verdict_mask(table, slow))
    assert validate_batch(table, fast).to_pylist() == \
        validate_batch(table, slow).to_pylist()
