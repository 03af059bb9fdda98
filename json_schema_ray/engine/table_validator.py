"""Vectorized table validation: compiled schema -> Arrow compute plan.

The compile step runs once on the driver: a parsed+expanded ``Schema``
whose top level is an object with ``properties`` mapping column names
to subschemas is lowered to per-column ``CompiledCheck``s, each an
Arrow-compute kernel (``pyarrow.compute``) evaluated per batch inside
``ds.map_batches(..., batch_format="pyarrow", zero_copy_batch=True)``.

Keyword semantics, application order and message templates follow the
reference validator (reference: lib/json_schema/validator.rb:82-133);
messages are materialized ONLY for failing rows (the vectorized
analogue of fail_fast's "skip error materialization" optimization,
reference validator.rb:16-23). Columns whose subschema uses keywords
with no columnar lowering fall back to the row interpreter on just
that column's cells. Schema-form dependencies and allOf/anyOf/oneOf/
not on the row object lower to combinations of sub-plan verdicts; the
whole-row interpreter then runs only on the rows that fail them (see
``TablePlan.row_checks`` and ``full_row_fallback``).

Arrow-type mapping (documented engine semantics for tabular data):

- a NULL cell = "key absent": it trips ``required`` and skips all
  other checks, UNLESS the property's ``type`` includes ``"null"``,
  in which case the cell is a present JSON null (valid for type, and
  value checks are skipped since null is neither string nor number).
- a column missing from the table = key absent on every row.
- Arrow int* -> "integer"/"number"; floating -> "number" only (Ruby
  Float is never Integer); string -> "string"; bool -> "boolean";
  list -> "array"; struct -> "object"; timestamp -> treated as an
  RFC3339 date-time string (valid for type "string" and format
  "date-time"; other string checks apply to its ISO rendering).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..errors import ruby_inspect, ruby_to_s, to_list
from ..formats import DEFAULT_FORMAT_VALIDATORS
from ..config import configuration
from ..interpreter import Validator, ruby_eq
from ..schema import Schema

# keyword ranks reproduce the reference's application order
# (validator.rb:90-130); violation rows are sorted by
# (row, property, rank) so per-row first-error selection matches.
RANK = {
    "all_of": 0, "any_of": 1, "enum": 2, "one_of": 3, "not": 4, "type": 5,
    "items": 6, "max_items": 7, "min_items": 8, "unique_items": 9,
    "max": 10, "min": 11, "multiple_of": 12,
    "additional_properties": 13, "dependencies": 14,
    "max_properties": 15, "min_properties": 16,
    "pattern_properties": 17, "properties": 18, "required": 19,
    "strict_properties": 20,
    "format": 21, "max_length": 22, "min_length": 23, "pattern": 24,
}

VIOLATION_SCHEMA_FIELDS = [
    ("path", pa.string()),
    ("schema_pointer", pa.string()),
    ("error_type", pa.string()),
    ("message", pa.string()),
    ("data_json", pa.string()),
]


def _skip_nulls(col, mask) -> Any:
    """Null cells are 'key absent': they skip value checks. Force the
    mask to null wherever the input is null (pass-through skip)."""
    return pc.if_else(pc.is_valid(col), mask, pa.scalar(None, pa.bool_()))


def _re2_supported(pattern: str) -> bool:
    # probe with a real element: RE2 compiles lazily, so an empty
    # array would accept patterns it can't actually handle
    try:
        pc.match_substring_regex(pa.array(["x"], type=pa.string()),
                                 pattern=pattern)
        return True
    except pa.ArrowException:
        return False


def _as_string_array(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Render a column as strings for string-keyword checks."""
    if pa.types.is_timestamp(col.type):
        return pc.strftime(col, format="%Y-%m-%dT%H:%M:%SZ")
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col
    return pc.cast(col, pa.string())


@dataclass
class CompiledCheck:
    """One vectorized keyword check over one column.

    ``mask_fn(col) -> BooleanArray`` where True/null = pass/skip and
    False = violation. ``msg_fn(value) -> str`` renders the reference
    message for a failing cell (called only on failing rows).

    ``rank`` is a (major, child, minor) triple reproducing the
    reference's error ordering: combinator children report inline
    before their summary (validator.rb:155-180), plain keywords sort
    by the keyword-application order.
    """

    kind: str
    error_type: str
    mask_fn: Callable[[pa.ChunkedArray], pa.ChunkedArray]
    msg_fn: Callable[[Any], str]
    rank: tuple = ()
    # inline child checks (allOf): evaluated for messages only; the
    # combinator's own mask already covers the verdict
    inline_children: Optional[List["CompiledCheck"]] = None

    def __post_init__(self):
        if not self.rank:
            self.rank = (RANK[self.kind], 0, 0)


@dataclass
class ColumnPlan:
    column: str
    schema_pointer: str
    # sort group for violation ordering: (keyword-group rank, index)
    # — properties plans are (18, i), patternProperties plans (17, j)
    order: tuple = (18, 0)
    checks: List[CompiledCheck] = field(default_factory=list)
    # list columns: per-element checks (items list form,
    # validator.rb:290-297) applied to the flattened values and
    # segment-reduced back to rows
    element_checks: List[CompiledCheck] = field(default_factory=list)
    element_pointer: str = ""
    # items type excludes null -> null elements fail the type check
    element_null_fails: bool = False
    element_type_msg: Optional[Callable[[Any], str]] = None
    # uniqueItems on a primitive list column (validator.rb:539-548)
    unique_items: bool = False
    # tuple-form items (validator.rb:257-289): per-slot checks over
    # positions 0..tuple_count-1, additionalItems schema checks over
    # the rest (or a hard length cap when additionalItems is false).
    # Each slot entry: (slot, checks, pointer, null_fails, null_msg).
    tuple_count: int = -1
    tuple_slots: List[tuple] = field(default_factory=list)
    tuple_additional: Optional[List[CompiledCheck]] = None
    tuple_additional_pointer: str = ""
    tuple_additional_null_fails: bool = False
    tuple_additional_null_msg: Optional[Callable[[Any], str]] = None
    tuple_additional_false: bool = False
    # struct columns: per-field checks on pc.struct_field(col, name)
    # (validator.rb:496-518 over a nested object)
    struct_field_checks: List[tuple] = field(default_factory=list)
    struct_required: List[str] = field(default_factory=list)
    struct_pointer: str = ""
    # non-null cells must be validated by the row interpreter
    # (residual keywords with no columnar lowering)
    fallback_schema: Optional[Schema] = None
    # pa.map_ columns with object keywords lowered to vectorized
    # kernels: max/minProperties from the map offsets,
    # patternProperties as (compiled_rx, checks, null_fails) over the
    # flattened entries. Verdicts are fully vectorized; violation
    # MESSAGES come from the interpreter on failing cells only
    # (fallback_schema stays set for that).
    map_vectorized: bool = False
    map_pattern_checks: List[tuple] = field(default_factory=list)
    # decode the cell as a JSON document before interpreting
    json_cell: bool = False
    # JSON-string cells with a struct-vectorizable subschema decode to
    # this Arrow struct type ONCE per batch (vectorized polars kernel)
    # and take the struct_field_checks path; cells the decode cannot
    # represent faithfully route to the interpreter (see
    # _decode_json_struct's typed routing), and a decode error falls
    # back to the interpreter for the whole batch
    json_struct_type: Optional[pa.DataType] = None
    # lazily-built DuckDB routing query for json_struct_type cells
    json_route_sql: Optional[str] = None
    # property type includes "null" -> null cells are valid values
    null_ok: bool = False


@dataclass
class TablePlan:
    schema: Schema
    columns: List[ColumnPlan]
    required: List[str]
    key_columns: List[str]
    key_types: List[pa.DataType]
    # columns allowed by the schema; None = additionalProperties true
    allowed_columns: Optional[set] = None
    # top-level patternProperties lowered to per-matching-column plans
    pattern_plans: List[ColumnPlan] = field(default_factory=list)
    # simple dependencies: (trigger column, [required columns])
    # (validator.rb:201-214; Ruby truthiness: false doesn't trigger)
    simple_dependencies: List[tuple] = field(default_factory=list)
    min_properties: Optional[int] = None
    max_properties: Optional[int] = None
    strict_properties: bool = False
    strict_allowed: Optional[set] = None
    # schema-form dependencies and allOf/anyOf/oneOf/not on the row
    # object, lowered to combinations of sub-plan verdicts: entries are
    # (kind, trigger column or None, [TablePlan]) with kind one of
    # "dependency", "all_of", "any_of", "one_of", "not". Sub-plans
    # compile against the same Arrow schema and never join ``columns``.
    row_checks: List[tuple] = field(default_factory=list)
    # the schema's type excludes "object": no row passes
    object_type_ok: bool = True
    # top-level keywords with no lowering (enum, a schema-valued
    # additionalProperties, a row-level subschema that needs the whole
    # row, a $ref cycle, row-level keywords over JSON-cell columns)
    # -> every row goes to the whole-row interpreter
    full_row_fallback: bool = False

    def violation_schema(self) -> pa.Schema:
        key_fields = list(zip(self.key_columns, self.key_types))
        return pa.schema(key_fields + VIOLATION_SCHEMA_FIELDS)


# NOTE: the routing decision between vectorized lowering and the row
# interpreter is made by _uses_only_vectorizable/_struct_vectorizable
# below (the single source of truth).

_ARROW_TYPE_TAGS = {}


def _arrow_type_tags(t: pa.DataType) -> set:
    """JSON type names an Arrow value of this physical type satisfies."""
    if pa.types.is_boolean(t):
        return {"boolean"}
    if pa.types.is_integer(t):
        return {"integer", "number"}
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        return {"number"}
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return {"string"}
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return {"string"}  # rendered as RFC3339 text
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return {"array"}
    if pa.types.is_struct(t) or pa.types.is_map(t):
        return {"object"}
    if pa.types.is_null(t):
        return {"null"}
    return set()


def _find_parent(schema: Schema) -> Optional[str]:
    v = Validator(schema)
    return v._find_parent(schema)


def _struct_vectorizable(prop: Schema) -> bool:
    """A struct-typed column can vectorize when its subschema is an
    object check whose fields are themselves vectorizable: type /
    properties / required only (other object keywords fall back)."""
    if prop.all_of or prop.any_of or prop.one_of or prop.not_ is not None:
        return False
    if prop.enum is not None or prop.items is not None:
        return False
    if prop.pattern_properties or prop.dependencies:
        return False
    if prop.additional_properties is not True or prop.strict_properties:
        return False
    if prop.max_properties is not None or prop.min_properties is not None:
        return False
    return all(_uses_only_vectorizable(sub)
               for sub in prop.properties.values())


# faithful Arrow targets for JSON-decoded struct fields. "number" is
# deliberately absent: Ruby distinguishes 1 (Integer) from 1.0 (Float)
# by LEXEME, which a numeric decode destroys — number-typed fields
# stay on the interpreter path (and integer fields route any cell
# containing a float lexeme to the interpreter, see _decode_json_struct)
_JSON_FIELD_TYPES = {"integer": pa.int64(), "string": pa.string(),
                     "boolean": pa.bool_()}


def _json_struct_type(prop: Schema) -> Optional[pa.DataType]:
    """The Arrow struct type a JSON-string column decodes to when its
    subschema is struct-vectorizable with faithfully-decodable field
    types; None keeps the column on the interpreter path."""
    if not _struct_vectorizable(prop):
        return None
    if not prop.properties:
        return None
    outer = set(prop.type or [])
    if not outer or not outer <= {"object", "null"}:
        return None
    fields = []
    for fname, sub in prop.properties.items():
        tps = [t for t in (sub.type or []) if t != "null"]
        if len(tps) != 1 or tps[0] not in _JSON_FIELD_TYPES:
            return None
        fields.append(pa.field(fname, _JSON_FIELD_TYPES[tps[0]]))
    return pa.struct(fields)


def _compile_struct_plan(cp: ColumnPlan, prop: Schema,
                         col_type: pa.DataType) -> None:
    """Lower an object subschema over a struct(-decoded) column."""
    cp.checks = _compile_property_checks(prop, col_type)
    struct_fields = {col_type.field(i).name: col_type.field(i).type
                     for i in range(col_type.num_fields)}
    for fi, (fname, sub) in enumerate(prop.properties.items()):
        if fname in struct_fields:
            f_checks = _compile_property_checks(sub, struct_fields[fname])
            cp.struct_field_checks.append((fi, fname, f_checks,
                                           sub.pointer))
    cp.struct_required = list(prop.required or [])
    cp.struct_pointer = prop.pointer


def _null_elem_msg(sub: Schema):
    etypes = [t for t in (sub.type or [])]
    parent = _find_parent(sub)
    return (lambda v, _p=parent, _t=etypes:
            f"For '{_p}', {ruby_inspect(v)} is not {to_list(_t)}.")


def _compile_tuple_plan(cp: ColumnPlan, prop: Schema,
                        elem_type: pa.DataType) -> None:
    """Lower tuple-form items + additionalItems (validator.rb:257-289)
    over a list column: per-slot compiled checks applied to flattened
    elements selected by position."""
    cp.tuple_count = len(prop.items)
    for i, sub in enumerate(prop.items):
        checks = _compile_property_checks(sub, elem_type)
        etypes = sub.type or []
        null_fails = bool(etypes) and "null" not in etypes
        msg = _null_elem_msg(sub) if null_fails else None
        cp.tuple_slots.append((i, checks, sub.pointer, null_fails, msg))
    ai = prop.additional_items
    if ai is False:
        cp.tuple_additional_false = True
    elif isinstance(ai, Schema):
        cp.tuple_additional = _compile_property_checks(ai, elem_type)
        cp.tuple_additional_pointer = ai.pointer
        etypes = ai.type or []
        if etypes and "null" not in etypes:
            cp.tuple_additional_null_fails = True
            cp.tuple_additional_null_msg = _null_elem_msg(ai)


def _tuple_parts(col, cp: ColumnPlan):
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = pc.list_flatten(arr)
    parents = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
    pos = np.arange(len(parents)) - np.searchsorted(parents, parents)
    lens = pc.fill_null(pc.list_value_length(arr), 0) \
        .to_numpy(zero_copy_only=False)
    row_valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    cnt = cp.tuple_count
    short = row_valid & (lens < cnt)
    long_rows = row_valid & (lens > cnt)
    # reference short-circuits: a too-short row (or too-long with
    # additionalItems false) reports ONLY the length error
    gate = row_valid & ~short
    if cp.tuple_additional_false:
        gate = gate & ~long_rows
    return arr, flat, parents, pos, lens, short, long_rows, gate


def _tuple_ok_mask(col, cp: ColumnPlan) -> np.ndarray:
    arr, flat, parents, pos, lens, short, long_rows, gate = \
        _tuple_parts(col, cp)
    ok = np.ones(len(arr), dtype=bool)
    ok &= ~short
    if cp.tuple_additional_false:
        ok &= ~long_rows
    flat_null = pc.is_null(flat).to_numpy(zero_copy_only=False)

    def apply(checks, sel, null_fails):
        nonlocal ok
        if null_fails:
            bad_rows = parents[sel & flat_null]
            bad_rows = bad_rows[gate[bad_rows]]
            ok[bad_rows] = False
        for c in checks:
            m = pc.fill_null(c.mask_fn(flat), True)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            fail = sel & ~m.to_numpy(zero_copy_only=False)
            rows_f = parents[fail]
            rows_f = rows_f[gate[rows_f]]
            ok[rows_f] = False

    for i, checks, _ptr, null_fails, _msg in cp.tuple_slots:
        apply(checks, pos == i, null_fails)
    if cp.tuple_additional is not None:
        apply(cp.tuple_additional, pos >= cp.tuple_count,
              cp.tuple_additional_null_fails)
    return ok


def _tuple_violation_rows(col, cp: ColumnPlan, prop_idx,
                          path_prefix: str, rows: list) -> None:
    arr, flat, parents, pos, lens, short, long_rows, gate = \
        _tuple_parts(col, cp)
    cnt = cp.tuple_count
    for i in np.nonzero(short)[0]:
        size = int(lens[i])
        msg = (f"{cnt} item" + ("" if cnt == 1 else "s")
               + f" required; only {size} "
               + ("was" if size == 1 else "were") + " supplied.")
        rows.append((int(i), prop_idx, (RANK["items"], 0, 0),
                     path_prefix, cp.schema_pointer, "min_items_failed",
                     msg, json.dumps(arr[int(i)].as_py(), default=str)))
    if cp.tuple_additional_false:
        for i in np.nonzero(long_rows)[0]:
            size = int(lens[i])
            msg = (f"No more than {cnt} item"
                   + (" is" if cnt == 1 else "s are")
                   + f" allowed; {size} "
                   + ("were" if size > 1 else "was") + " supplied.")
            rows.append((int(i), prop_idx, (RANK["items"], 0, 0),
                         path_prefix, cp.schema_pointer,
                         "max_items_failed", msg,
                         json.dumps(arr[int(i)].as_py(), default=str)))
    flat_null = pc.is_null(flat).to_numpy(zero_copy_only=False)

    def emit(checks, sel, pointer, null_fails, null_msg, order):
        # `order` sorts additionalItems errors (1) before slot errors
        # (2), mirroring the reference's loop order
        if null_fails:
            for fi in np.nonzero(sel & flat_null)[0]:
                r = int(parents[fi])
                if not gate[r]:
                    continue
                rows.append((r, prop_idx,
                             (RANK["items"], order, int(pos[fi]),
                              RANK["type"]),
                             f"{path_prefix}/{int(pos[fi])}", pointer,
                             "invalid_type", null_msg(None), "null"))
        for check in checks:
            inline = list(check.inline_children or []) + [check]
            for c in inline:
                m = pc.fill_null(pc.invert(c.mask_fn(flat)), False)
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                fail = sel & m.to_numpy(zero_copy_only=False)
                idxs = np.nonzero(fail)[0]
                if len(idxs) == 0:
                    continue
                vals = flat.take(pa.array(idxs)).to_pylist()
                for fi, val in zip(idxs, vals):
                    r = int(parents[fi])
                    if not gate[r]:
                        continue
                    rows.append((r, prop_idx,
                                 (RANK["items"], order, int(pos[fi]),
                                  c.rank[0]),
                                 f"{path_prefix}/{int(pos[fi])}", pointer,
                                 c.error_type, c.msg_fn(val),
                                 json.dumps(val, default=str)))

    if cp.tuple_additional is not None:
        emit(cp.tuple_additional, pos >= cnt,
             cp.tuple_additional_pointer,
             cp.tuple_additional_null_fails,
             cp.tuple_additional_null_msg, 1)
    for i, checks, ptr, null_fails, msg in cp.tuple_slots:
        emit(checks, pos == i, ptr, null_fails, msg, 2)


def _polars_struct_dtype(struct_type: pa.DataType):
    import polars as pl

    mapping = {pa.int64(): pl.Int64, pa.string(): pl.Utf8,
               pa.bool_(): pl.Boolean}
    return pl.Struct({struct_type.field(i).name:
                      mapping[struct_type.field(i).type]
                      for i in range(struct_type.num_fields)})


_DUCK_CON = None


def _duck_con():
    global _DUCK_CON
    if _DUCK_CON is None:
        import duckdb
        _DUCK_CON = duckdb.connect()
    return _DUCK_CON


def _json_route_sql(struct_type: pa.DataType) -> str:
    """DuckDB query computing the per-cell interpreter-routing mask.

    A cell stays on the vectorized decode path only when DuckDB's JSON
    parser proves the typed polars decode is faithful: the document is
    a JSON object and every schema field is absent or has exactly the
    expected JSON type. Everything else routes to the row interpreter:
    malformed JSON, non-object documents (incl. the literal ``null``),
    present-null fields (the interpreter distinguishes present-null
    from absent; a decode maps both to null), float lexemes into
    integer fields (Ruby Float semantics and message rendering depend
    on the lexeme), cross-type coercions polars would otherwise accept
    (true -> 1 into Int64, 77 -> "77" into Utf8), and integers that
    overflow int64 (polars decodes them to null, i.e. absent).
    DuckDB tags non-negative integers UBIGINT, so integer fields
    accept BIGINT or a UBIGINT value that still fits in int64.
    """
    conds = ["json_type(c) != 'OBJECT'"]
    for i in range(struct_type.num_fields):
        f = struct_type.field(i)
        name = f.name.replace("'", "''").replace('"', '\\"')
        p = f'$."{name}"'
        t = f"json_type(c, '{p}')"
        if pa.types.is_integer(f.type):
            conds.append(
                f"({t} IS NOT NULL AND NOT ({t} = 'BIGINT' OR "
                f"({t} = 'UBIGINT' AND TRY_CAST(c->>'{p}' AS BIGINT)"
                f" IS NOT NULL)))")
        elif pa.types.is_boolean(f.type):
            conds.append(f"({t} IS NOT NULL AND {t} != 'BOOLEAN')")
        else:
            conds.append(f"({t} IS NOT NULL AND {t} != 'VARCHAR')")
    return ("SELECT c IS NOT NULL AND (CASE WHEN json_valid(c) THEN ("
            + " OR ".join(conds) + ") ELSE TRUE END) AS route FROM t")


def _decode_json_struct(col, cp: ColumnPlan):
    """Vectorized JSON-string -> struct decode for the fast path.

    Returns ``(decoded_struct_array, routed_mask)`` or None when the
    strict decode fails (caller falls back to the interpreter for the
    whole batch). ``routed_mask`` marks cells the decode cannot
    represent faithfully, computed exactly per field by DuckDB's JSON
    type inspection (see _json_route_sql). Routed cells are nulled
    before decoding and validated by the row interpreter.
    """
    import polars as pl

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if cp.json_route_sql is None:
        cp.json_route_sql = _json_route_sql(cp.json_struct_type)
    con = _duck_con()
    con.register("t", pa.table({"c": arr}))
    route = con.execute(cp.json_route_sql).arrow()["route"] \
        .combine_chunks()
    route = pc.fill_null(route, False)
    routed_np = route.to_numpy(zero_copy_only=False)
    masked = pc.if_else(route, pa.scalar(None, arr.type), arr) \
        if routed_np.any() else arr
    try:
        decoded = pl.from_arrow(masked).str.json_decode(
            _polars_struct_dtype(cp.json_struct_type)).to_arrow()
    except Exception:
        return None
    if isinstance(decoded, pa.ChunkedArray):
        decoded = decoded.combine_chunks()
    return decoded, routed_np


def _uses_only_vectorizable(prop: Schema, allow_list_keywords: bool = False) -> bool:
    for sub in list(prop.all_of) + list(prop.any_of) + list(prop.one_of) \
            + ([prop.not_] if prop.not_ is not None else []):
        if not isinstance(sub, Schema) or not _uses_only_vectorizable(sub):
            return False
    if prop.all_of and configuration().all_of_sub_errors:
        return False  # sub_errors mode needs the interpreter's nesting
    if prop.items is not None:
        if not allow_list_keywords:
            return False
        if isinstance(prop.items, Schema):
            if not _uses_only_vectorizable(prop.items):
                return False
        elif isinstance(prop.items, list):
            # tuple form: every slot (and a schema-valued
            # additionalItems) must lower
            if not all(isinstance(s, Schema) and _uses_only_vectorizable(s)
                       for s in prop.items):
                return False
            ai = prop.additional_items
            if isinstance(ai, Schema) and not _uses_only_vectorizable(ai):
                return False
        else:
            return False
    if prop.unique_items and not allow_list_keywords:
        return False
    if prop.properties or prop.pattern_properties or prop.dependencies:
        return False
    if prop.additional_properties is not True or prop.strict_properties:
        return False
    if prop.required or prop.max_properties is not None or prop.min_properties is not None:
        return False
    return True


def _map_vectorizable(prop: Schema) -> bool:
    """A pa.map_ column lowers when its subschema is an object check
    using only max/minProperties and patternProperties with
    vectorizable value subschemas (validator.rb:345-358, :482-494
    semantics); anything else keeps the interpreter fallback."""
    if prop.all_of or prop.any_of or prop.one_of or prop.not_ is not None:
        return False
    if prop.enum is not None or prop.items is not None:
        return False
    if prop.properties or prop.dependencies or prop.required:
        return False
    if prop.additional_properties is not True or prop.strict_properties:
        return False
    outer = set(prop.type or [])
    if not outer or not outer <= {"object", "null"}:
        return False
    return all(isinstance(sub, Schema) and _uses_only_vectorizable(sub)
               for sub in prop.pattern_properties.values())


def _map_ok_mask(col, cp: ColumnPlan) -> np.ndarray:
    """Vectorized verdicts for a pa.map_ column: cell-level checks,
    entry counts straight from the map offsets, and per-pattern value
    checks over the flattened entries (key-regex evaluated once per
    DISTINCT key via dictionary encoding, preserving exact Python
    regex semantics)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    ok = np.ones(n, dtype=bool)
    for check in cp.checks:
        ok &= pc.fill_null(check.mask_fn(arr), True) \
            .to_numpy(zero_copy_only=False)
    prop = cp.fallback_schema
    offsets = arr.offsets.to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    counts = np.diff(offsets)
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    if prop.max_properties is not None:
        ok &= ~valid | (counts <= prop.max_properties)
    if prop.min_properties is not None:
        ok &= ~valid | (counts >= prop.min_properties)
    if cp.map_pattern_checks and offsets[-1] > offsets[0]:
        lo, total = int(offsets[0]), int(offsets[-1] - offsets[0])
        flat_keys = arr.keys.slice(lo, total)
        flat_items = arr.items.slice(lo, total)
        parents = np.repeat(np.arange(n), counts)
        enc = flat_keys.dictionary_encode()
        codes = pc.fill_null(enc.indices, -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        for rx, checks, null_fails in cp.map_pattern_checks:
            matched_codes = np.array(
                [ci for ci, k in enumerate(uniq)
                 if k is not None and rx.search(k)], dtype=np.int64)
            m = np.isin(codes, matched_codes)
            if not m.any():
                continue
            for check in checks:
                cm = pc.fill_null(check.mask_fn(flat_items), True) \
                    .to_numpy(zero_copy_only=False)
                bad = m & ~cm
                if bad.any():
                    ok[parents[bad]] = False
            if null_fails:
                nulls = pc.is_null(flat_items) \
                    .to_numpy(zero_copy_only=False)
                bad = m & nulls
                if bad.any():
                    ok[parents[bad]] = False
    return ok


def _lower_row_keywords(schema: Schema, table_arrow_schema: pa.Schema,
                        json_columns: set, stack: tuple):
    """Compile the row-level subschemas of schema-form dependencies and
    allOf/anyOf/oneOf/not (validator.rb:155-214, applied to the row
    object) into sub-plans over the same table.

    Returns ``(row_checks, whole_row)``; ``whole_row`` is True when
    any of them cannot lower: a subschema that itself needs the whole
    row, a $ref cycle back into ``stack`` (the schemas being compiled),
    or JSON-cell columns, which the whole-row interpreter reads as raw
    strings while a sub-plan would decode them."""
    parts = [("dependency", key, [dep])
             for key, dep in schema.dependencies.items()
             if not isinstance(dep, list)]
    for kind in ("all_of", "any_of", "one_of"):
        if getattr(schema, kind):
            parts.append((kind, None, list(getattr(schema, kind))))
    if schema.not_ is not None:
        parts.append(("not", None, [schema.not_]))
    if not parts:
        return [], False
    if json_columns & set(table_arrow_schema.names):
        return [], True
    row_checks = []
    for kind, trigger, subs in parts:
        plans = []
        for sub in subs:
            if not isinstance(sub, Schema) or id(sub) in stack:
                return [], True
            p = compile_table_plan(sub, table_arrow_schema, _stack=stack)
            if p.full_row_fallback:
                return [], True
            plans.append(p)
        row_checks.append((kind, trigger, plans))
    return row_checks, False


def compile_table_plan(
    schema: Schema,
    table_arrow_schema: pa.Schema,
    key_columns: Optional[List[str]] = None,
    json_columns: Optional[set] = None,
    _stack: tuple = (),
) -> TablePlan:
    """Lower a compiled object schema to a per-column validation plan
    for a table with the given Arrow schema. ``_stack`` holds the ids
    of the enclosing schemas while row-level subschemas compile."""
    json_columns = json_columns or set()
    key_columns = list(key_columns or [])
    plans: List[ColumnPlan] = []

    prop_i = 0
    for name, prop in schema.properties.items():
        if name not in table_arrow_schema.names:
            continue
        col_type = table_arrow_schema.field(name).type
        cp = ColumnPlan(column=name, schema_pointer=prop.pointer)
        cp.null_ok = "null" in (prop.type or [])
        is_list_col = (pa.types.is_list(col_type)
                       or pa.types.is_large_list(col_type)
                       or pa.types.is_fixed_size_list(col_type))
        # uniqueItems over nested (struct/list/map) elements needs the
        # interpreter's deep equality — pandas `duplicated` raises on
        # unhashable dict/ndarray elements, so never vectorize it
        nested_unique = (
            is_list_col and prop.unique_items
            and pa.types.is_nested(col_type.value_type))
        if name in json_columns:
            cp.json_cell = True
            cp.fallback_schema = prop
            jst = _json_struct_type(prop)
            if jst is not None:
                cp.json_struct_type = jst
                _compile_struct_plan(cp, prop, jst)
        elif pa.types.is_struct(col_type) and _struct_vectorizable(prop):
            _compile_struct_plan(cp, prop, col_type)
        elif pa.types.is_map(col_type) and _map_vectorizable(prop):
            cp.fallback_schema = prop  # messages for failing cells
            cp.map_vectorized = True
            cp.checks = _compile_property_checks(prop, col_type)
            for rx, sub in prop.pattern_properties.items():
                null_fails = bool(sub.type) and "null" not in sub.type
                cp.map_pattern_checks.append(
                    (rx, _compile_property_checks(sub,
                                                  col_type.item_type),
                     null_fails))
        elif (not nested_unique
              and _uses_only_vectorizable(prop,
                                          allow_list_keywords=is_list_col)):
            cp.checks = _compile_property_checks(prop, col_type)
            if is_list_col and isinstance(prop.items, list):
                _compile_tuple_plan(cp, prop, col_type.value_type)
            elif is_list_col and isinstance(prop.items, Schema):
                elem_type = col_type.value_type
                cp.element_checks = _compile_property_checks(
                    prop.items, elem_type)
                cp.element_pointer = prop.items.pointer
                etypes = prop.items.type or []
                if etypes and "null" not in etypes:
                    cp.element_null_fails = True
                    parent = _find_parent(prop.items)
                    cp.element_type_msg = (
                        lambda v, _p=parent, _t=list(etypes):
                        f"For '{_p}', {ruby_inspect(v)} is not {to_list(_t)}.")
            if is_list_col and prop.unique_items:
                cp.unique_items = True
        else:
            cp.fallback_schema = prop
        cp.order = (RANK["properties"], prop_i)
        prop_i += 1
        plans.append(cp)

    # top-level patternProperties: every matching COLUMN gets the
    # subschema's checks (validator.rb:482-494 applies patterns to all
    # data keys, including ones also in properties)
    pattern_plans: List[ColumnPlan] = []
    pp_i = 0
    for rx, sub in schema.pattern_properties.items():
        for name in table_arrow_schema.names:
            if not rx.search(name):
                continue
            col_type = table_arrow_schema.field(name).type
            pp = ColumnPlan(column=name, schema_pointer=sub.pointer,
                            order=(RANK["pattern_properties"], pp_i))
            pp_i += 1
            if _uses_only_vectorizable(sub):
                pp.checks = _compile_property_checks(sub, col_type)
            else:
                pp.fallback_schema = sub
            pattern_plans.append(pp)

    allowed = None
    if schema.additional_properties is False:
        allowed = set(schema.properties.keys())
        for rx in schema.pattern_properties.keys():
            for f in table_arrow_schema.names:
                if rx.search(f):
                    allowed.add(f)

    simple_deps = [(key, list(dep))
                   for key, dep in schema.dependencies.items()
                   if isinstance(dep, list)]
    full_row_fallback = schema.enum is not None or isinstance(
        schema.additional_properties, Schema)
    row_checks = []
    if not full_row_fallback:
        row_checks, full_row_fallback = _lower_row_keywords(
            schema, table_arrow_schema, json_columns,
            _stack + (id(schema),))

    strict_allowed = None
    if schema.strict_properties:
        strict_allowed = set(schema.properties.keys())
        for rx in schema.pattern_properties.keys():
            for f in table_arrow_schema.names:
                if rx.search(f):
                    strict_allowed.add(f)

    key_types = [
        table_arrow_schema.field(k).type if k in table_arrow_schema.names
        else pa.string()
        for k in key_columns
    ]
    return TablePlan(
        schema=schema,
        columns=plans,
        required=list(schema.required or []),
        key_columns=key_columns,
        key_types=key_types,
        allowed_columns=allowed,
        pattern_plans=pattern_plans,
        simple_dependencies=simple_deps,
        min_properties=schema.min_properties,
        max_properties=schema.max_properties,
        strict_properties=bool(schema.strict_properties),
        strict_allowed=strict_allowed,
        row_checks=row_checks,
        object_type_ok=not schema.type or "object" in schema.type,
        full_row_fallback=full_row_fallback,
    )


def _subschema_mask_fn(sub: Schema, col_type: pa.DataType):
    """Combined pass/fail mask of a whole subschema over a column
    (nulls treated as pass — the outer combinator skips nulls)."""
    sub_checks = _compile_property_checks(sub, col_type)

    def mask(col, _checks=sub_checks):
        out = None
        for c in _checks:
            m = pc.fill_null(c.mask_fn(col), True)
            out = m if out is None else pc.and_(out, m)
        if out is None:
            return pc.if_else(pc.is_valid(col), True, True)
        return out

    return mask, sub_checks


def _compile_combinators(prop: Schema, col_type: pa.DataType) -> List[CompiledCheck]:
    """Lower allOf/anyOf/oneOf/not to Arrow mask combinations
    (validator.rb:155-199, 431-468): allOf = AND (child errors emitted
    inline before the summary, mirroring the non-sub_errors path),
    anyOf = OR, oneOf = exactly-one, not = inversion with inner
    errors discarded."""
    checks: List[CompiledCheck] = []

    if prop.all_of:
        child_fns = [_subschema_mask_fn(s, col_type) for s in prop.all_of]
        # Ruby's Array#all? short-circuits (validator.rb:171-173): per
        # row, only the FIRST failing subschema reports inline errors.
        # Each child's checks get gated on "all earlier children
        # passed" for that row.
        inline: List[CompiledCheck] = []
        for i, (_, sub_checks) in enumerate(child_fns):
            prefix = [f for f, _ in child_fns[:i]]

            def gate(mask_fn, _prefix=prefix):
                def gated(col):
                    m = mask_fn(col)
                    for f in _prefix:
                        # earlier child failed -> this child never ran
                        m = pc.or_kleene(m, pc.invert(f(col)))
                    return m
                return gated

            for c in sub_checks:
                inline.append(CompiledCheck(
                    c.kind, c.error_type, gate(c.mask_fn), c.msg_fn,
                    rank=(RANK["all_of"], i, c.rank[0])))

        def all_of_mask(col, _fns=[f for f, _ in child_fns]):
            out = None
            for f in _fns:
                m = f(col)
                out = m if out is None else pc.and_(out, m)
            return _skip_nulls(col, out)

        checks.append(CompiledCheck(
            "all_of", "all_of_failed", all_of_mask,
            lambda v: 'Not all subschemas of "allOf" matched.',
            rank=(RANK["all_of"], len(child_fns), 0),
            inline_children=inline))

    if prop.any_of:
        child_fns = [_subschema_mask_fn(s, col_type)[0] for s in prop.any_of]

        def any_of_mask(col, _fns=child_fns):
            out = None
            for f in _fns:
                m = f(col)
                out = m if out is None else pc.or_(out, m)
            return _skip_nulls(col, out)

        checks.append(CompiledCheck(
            "any_of", "any_of_failed", any_of_mask,
            lambda v: 'No subschema in "anyOf" matched.'))

    if prop.one_of:
        child_fns = [_subschema_mask_fn(s, col_type)[0] for s in prop.one_of]

        def match_count(col, _fns=child_fns):
            total = None
            for f in _fns:
                m = pc.cast(f(col), pa.int32())
                total = m if total is None else pc.add(total, m)
            return total

        checks.append(CompiledCheck(
            "one_of", "one_of_failed",
            lambda col, _mc=match_count: _skip_nulls(
                col, pc.greater_equal(_mc(col), 1)),
            lambda v: 'No subschema in "oneOf" matched.'))
        checks.append(CompiledCheck(
            "one_of", "one_of_failed",
            lambda col, _mc=match_count: _skip_nulls(
                col, pc.less_equal(_mc(col), 1)),
            lambda v: 'More than one subschema in "oneOf" matched.',
            rank=(RANK["one_of"], 0, 1)))

    if prop.not_ is not None:
        not_fn = _subschema_mask_fn(prop.not_, col_type)[0]
        checks.append(CompiledCheck(
            "not", "not_failed",
            lambda col, _f=not_fn: _skip_nulls(col, pc.invert(_f(col))),
            lambda v: 'Matched "not" subschema.'))

    return checks


def _compile_property_checks(prop: Schema, col_type: pa.DataType) -> List[CompiledCheck]:
    checks: List[CompiledCheck] = []
    type_tags = _arrow_type_tags(col_type)
    is_stringish = "string" in type_tags
    is_numeric = "number" in type_tags

    checks.extend(_compile_combinators(prop, col_type))

    # --- type (validator.rb:527-537); static per batch ---
    if prop.type:
        ok = any(
            t in type_tags or (t == "number" and "integer" in type_tags)
            for t in prop.type
            if t != "null"
        )
        parent = _find_parent(prop)
        types = list(prop.type)

        def type_mask(col, _ok=ok):
            return _skip_nulls(col, pa.scalar(_ok, pa.bool_()))

        checks.append(CompiledCheck(
            "type", "invalid_type", type_mask,
            lambda v, _p=parent, _t=types:
                f"For '{_p}', {ruby_inspect(v)} is not {to_list(_t)}.",
        ))

    # --- enum (validator.rb:231-240) ---
    if prop.enum is not None:
        enum_vals = prop.enum
        typed_vals = [v for v in enum_vals if _value_fits(v, col_type)]

        def enum_mask(col, _vals=typed_vals):
            if not _vals:
                return _skip_nulls(col, pa.scalar(False, pa.bool_()))
            return _skip_nulls(
                col, pc.is_in(col, value_set=pa.array(_vals, type=col.type)))

        checks.append(CompiledCheck(
            "enum", "invalid_type", enum_mask,
            lambda v, _e=enum_vals:
                f"{ruby_to_s(v)} is not a member of {ruby_inspect(_e)}.",
        ))

    if is_stringish:
        checks.extend(_compile_string_checks(prop, col_type))
    if is_numeric:
        checks.extend(_compile_numeric_checks(prop))
    if "array" in type_tags:
        checks.extend(_compile_list_checks(prop))
    return checks


def _value_fits(v: Any, col_type: pa.DataType) -> bool:
    # Ruby equality: true/false never equal 1/0 (validator.rb:231-240
    # via Array#include?), so bools only match boolean columns
    if isinstance(v, bool) != pa.types.is_boolean(col_type):
        return False
    try:
        pa.array([v], type=col_type)
        return True
    except (pa.ArrowException, OverflowError, TypeError):
        return False


def _compile_string_checks(prop: Schema, col_type: pa.DataType) -> List[CompiledCheck]:
    checks: List[CompiledCheck] = []
    is_ts = pa.types.is_timestamp(col_type) or pa.types.is_date(col_type)

    # --- format (validator.rb:216-229, 569-604) ---
    if prop.format:
        fmt = prop.format
        if is_ts and fmt in ("date-time", "date"):
            # native temporal storage is by construction a valid
            # rendering of these formats
            def fmt_mask(col):
                return pc.if_else(pc.is_valid(col), True, pa.NA)
        elif fmt == "date-time":
            def fmt_mask(col):
                s = _as_string_array(col)
                return pc.match_substring_regex(
                    s, pattern="(?m)" + _ruby_src("date-time"))
        elif fmt == "date":
            def fmt_mask(col):
                s = _as_string_array(col)
                shape = pc.match_substring_regex(
                    s, pattern="(?m)" + _ruby_src("date"))
                parsed = pc.strptime(s, format="%Y-%m-%d", unit="s",
                                     error_is_null=True)
                # is_valid is false (not null) for null inputs; keep
                # null cells as skip
                return _skip_nulls(s, pc.and_kleene(shape,
                                                    pc.is_valid(parsed)))
        elif fmt in ("email", "hostname", "ipv4", "ipv6", "uuid"):
            pattern = _ruby_src(fmt)
            flags = "(?mi)" if fmt == "email" else "(?m)"
            if fmt == "hostname":
                # RE2 has no lookahead: split the reference's
                # (?=.{1,255}$) into a separate length check
                body = pattern.replace("(?=.{1,255}$)", "")

                def fmt_mask(col, _p="(?m)" + body):
                    s = _as_string_array(col)
                    len_ok = pc.less_equal(pc.utf8_length(s), 255)
                    return pc.and_kleene(len_ok, pc.match_substring_regex(s, pattern=_p))
            elif _re2_supported(flags + pattern):
                def fmt_mask(col, _p=flags + pattern):
                    return pc.match_substring_regex(_as_string_array(col), pattern=_p)
            else:  # pragma: no cover - all shipped patterns are RE2-safe
                fmt_mask = _python_format_mask(fmt)
        else:
            # uri / uri-reference / regex / custom formats: python
            # fallback over unique values, joined back
            fmt_mask = _python_format_mask(fmt)
        checks.append(CompiledCheck(
            "format", "invalid_format", fmt_mask,
            lambda v, _f=fmt: f"{ruby_to_s(v)} is not a valid {_f}.",
        ))

    # --- maxLength / minLength (unicode codepoints) ---
    if prop.max_length is not None:
        n = prop.max_length
        checks.append(CompiledCheck(
            "max_length", "max_length_failed",
            lambda col, _n=n: pc.less_equal(pc.utf8_length(_as_string_array(col)), _n),
            lambda v, _n=n: (
                f"Only {_n} character" + (" is" if _n == 1 else "s are")
                + f" allowed; {len(v)} " + ("was" if len(v) == 1 else "were")
                + " supplied."),
        ))
    if prop.min_length is not None:
        n = prop.min_length
        checks.append(CompiledCheck(
            "min_length", "min_length_failed",
            lambda col, _n=n: pc.greater_equal(pc.utf8_length(_as_string_array(col)), _n),
            lambda v, _n=n: (
                f"At least {_n} character" + (" is" if _n == 1 else "s are")
                + f" required; only {len(v)} " + ("was" if len(v) == 1 else "were")
                + " supplied."),
        ))

    # --- pattern: unanchored search, Ruby ^$ are line anchors -> (?m) ---
    if prop.pattern is not None:
        rx = prop.pattern
        re2_pattern = "(?m)" + rx.source
        if _re2_supported(re2_pattern):
            def pat_mask(col, _p=re2_pattern):
                return pc.match_substring_regex(_as_string_array(col), pattern=_p)
        else:
            def pat_mask(col, _rx=rx):
                return _python_value_mask(col, lambda s: _rx.search(s) is not None)
        checks.append(CompiledCheck(
            "pattern", "pattern_failed", pat_mask,
            lambda v, _rx=rx: f"{ruby_to_s(v)} does not match {_rx.inspect()}.",
        ))
    return checks


def _compile_numeric_checks(prop: Schema) -> List[CompiledCheck]:
    checks: List[CompiledCheck] = []
    if prop.max is not None:
        mx, excl = prop.max, prop.max_exclusive
        checks.append(CompiledCheck(
            "max", "max_failed",
            (lambda col, _m=mx: pc.less(col, _m)) if excl
            else (lambda col, _m=mx: pc.less_equal(col, _m)),
            lambda v, _m=mx, _e=excl: (
                f"{ruby_to_s(v)} must be less than"
                + ("" if _e else " or equal to") + f" {ruby_to_s(_m)}."),
        ))
    if prop.min is not None:
        mn, excl = prop.min, prop.min_exclusive
        checks.append(CompiledCheck(
            "min", "min_failed",
            (lambda col, _m=mn: pc.greater(col, _m)) if excl
            else (lambda col, _m=mn: pc.greater_equal(col, _m)),
            lambda v, _m=mn, _e=excl: (
                f"{ruby_to_s(v)} must be greater than"
                + ("" if _e else " or equal to") + f" {ruby_to_s(_m)}."),
        ))
    if prop.multiple_of is not None:
        m = prop.multiple_of

        def mult_mask(col, _m=m):
            # numpy floored mod == Ruby Float#% (validator.rb:420-429)
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            np_vals = arr.to_numpy(zero_copy_only=False)
            with np.errstate(invalid="ignore"):
                ok = np.mod(np_vals, _m) == 0
            null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
            return pa.array(ok, type=pa.bool_(), mask=null_mask)

        checks.append(CompiledCheck(
            "multiple_of", "multiple_of_failed", mult_mask,
            lambda v, _m=m: f"{ruby_to_s(v)} is not a multiple of {ruby_to_s(_m)}.",
        ))
    return checks


def _compile_list_checks(prop: Schema) -> List[CompiledCheck]:
    checks: List[CompiledCheck] = []
    if prop.max_items is not None:
        n = prop.max_items
        checks.append(CompiledCheck(
            "max_items", "max_items_failed",
            lambda col, _n=n: pc.less_equal(pc.list_value_length(col), _n),
            lambda v, _n=n: (
                f"No more than {_n} item" + (" is" if _n == 1 else "s are")
                + f" allowed; {len(v)} " + ("was" if len(v) == 1 else "were")
                + " supplied."),
        ))
    if prop.min_items is not None:
        n = prop.min_items
        checks.append(CompiledCheck(
            "min_items", "min_items_failed",
            lambda col, _n=n: pc.greater_equal(pc.list_value_length(col), _n),
            lambda v, _n=n: (
                f"{_n} item" + ("" if _n == 1 else "s")
                + f" required; only {len(v)} " + ("was" if len(v) == 1 else "were")
                + " supplied."),
        ))
    return checks


_RUBY_SRC = {
    "date": r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$",
    "date-time": r"^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-2][0-9]:[0-5][0-9]:[0-5][0-9](\.[0-9]+)?(Z|[\-+][0-9]{2}:[0-5][0-9])$",
    "email": r"^[A-Z0-9._%+-]+@[A-Z0-9.-]+\.[A-Z]+$",
    "hostname": r"^(?=.{1,255}$)[0-9A-Za-z](?:(?:[0-9A-Za-z]|-){0,61}[0-9A-Za-z])?(?:\.[0-9A-Za-z](?:(?:[0-9A-Za-z]|-){0,61}[0-9A-Za-z])?)*\.?$",
    "ipv4": r"^((25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9])\.){3,3}(25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9])$",
    "ipv6": r"^(([0-9a-fA-F]{1,4}:){7,7}[0-9a-fA-F]{1,4}|([0-9a-fA-F]{1,4}:){1,7}:|([0-9a-fA-F]{1,4}:){1,6}:[0-9a-fA-F]{1,4}|([0-9a-fA-F]{1,4}:){1,5}(:[0-9a-fA-F]{1,4}){1,2}|([0-9a-fA-F]{1,4}:){1,4}(:[0-9a-fA-F]{1,4}){1,3}|([0-9a-fA-F]{1,4}:){1,3}(:[0-9a-fA-F]{1,4}){1,4}|([0-9a-fA-F]{1,4}:){1,2}(:[0-9a-fA-F]{1,4}){1,5}|[0-9a-fA-F]{1,4}:((:[0-9a-fA-F]{1,4}){1,6})|:((:[0-9a-fA-F]{1,4}){1,7}|:)|fe80:(:[0-9a-fA-F]{0,4}){0,4}%[0-9a-zA-Z]{1,}|::(ffff(:0{1,4}){0,1}:){0,1}((25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9]).){3,3}(25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9])|([0-9a-fA-F]{1,4}:){1,4}:)$",
    "uuid": r"^[a-f0-9]{8}-[a-f0-9]{4}-[a-f0-9]{4}-[a-f0-9]{4}-[a-f0-9]{12}$",
}


def _ruby_src(fmt: str) -> str:
    return _RUBY_SRC[fmt]


def _python_format_mask(fmt: str):
    def mask(col, _f=fmt):
        validator = (configuration().custom_formats.get(_f)
                     or DEFAULT_FORMAT_VALIDATORS.get(_f))
        return _python_value_mask(_as_string_array(col),
                                  lambda s: bool(validator(s)))
    return mask


def _python_value_mask(col, fn) -> pa.Array:
    """Apply a python predicate over the distinct values of a column
    (cheap when cardinality << rows), preserving null -> null."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    uniq = pc.unique(arr)
    ok_values = [v.as_py() for v in uniq
                 if v.is_valid and fn(v.as_py())]
    if not ok_values:
        return _skip_nulls(arr, pa.scalar(False, pa.bool_()))
    return _skip_nulls(
        arr, pc.is_in(arr, value_set=pa.array(ok_values, type=arr.type)))


# ---------------------------------------------------------------------------
# list-column element kernels
# ---------------------------------------------------------------------------

def _flatten_with_parents(col):
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = pc.list_flatten(arr)
    parents = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
    # position of each element within its list
    pos = np.arange(len(parents)) - np.searchsorted(parents, parents)
    return arr, flat, parents, pos


def _element_failures(col, cp: ColumnPlan):
    """Yields (check_or_None, fail_indices_into_flat) — None identifies
    the null-element type failure."""
    _, flat, parents, pos = _flatten_with_parents(col)
    out = []
    if cp.element_null_fails and flat.null_count:
        null_idx = np.nonzero(pc.is_null(flat).to_numpy(zero_copy_only=False))[0]
        out.append((None, null_idx))
    for check in cp.element_checks:
        inline = list(check.inline_children or []) + [check]
        for c in inline:
            mask = c.mask_fn(flat)
            fail = pc.fill_null(pc.invert(mask), False)
            if isinstance(fail, pa.ChunkedArray):
                fail = fail.combine_chunks()
            idxs = np.nonzero(fail.to_numpy(zero_copy_only=False))[0]
            if len(idxs):
                out.append((c, idxs))
    return flat, parents, pos, out


def _unique_fail_rows(col) -> np.ndarray:
    """Row indices whose list contains duplicate elements (deep
    equality is only needed for nested lists, which stay on the
    fallback path; primitive elements compare by value).

    Arrow/numpy kernel: dictionary-encode the flattened elements so
    equal values share a code (nulls all map to -1 — null == null is
    a duplicate, Ruby semantics), then one lexsort over
    (parent, code) and an adjacent-equal scan."""
    arr, flat, parents, _ = _flatten_with_parents(col)
    if len(flat) == 0:
        return np.zeros(0, dtype=np.int64)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    codes = pc.fill_null(flat.dictionary_encode().indices, -1) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((codes, parents))
    sp, sc = parents[order], codes[order]
    dup = (sp[1:] == sp[:-1]) & (sc[1:] == sc[:-1])
    return np.unique(sp[1:][dup])


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

def _batch_documents(batch: pa.Table) -> list:
    """Rows as JSON documents under engine semantics: null cells are
    absent keys, timestamps render as RFC3339 strings, map cells as
    the JSON objects they represent (Arrow yields (k, v) tuples)."""
    ts_cols = [f.name for f in batch.schema
               if pa.types.is_timestamp(f.type)]
    map_cols = [f.name for f in batch.schema if pa.types.is_map(f.type)]
    docs = []
    for row in batch.to_pylist():
        doc = {k: v for k, v in row.items() if v is not None}
        for c in ts_cols:
            if c in doc and hasattr(doc[c], "strftime"):
                doc[c] = doc[c].strftime("%Y-%m-%dT%H:%M:%SZ")
        for c in map_cols:
            if c in doc:
                doc[c] = dict(doc[c])
        docs.append(doc)
    return docs


def _present_counts(batch: pa.Table) -> np.ndarray:
    n = batch.num_rows
    counts = np.zeros(n, dtype=np.int64)
    for name in batch.column_names:
        counts += pc.is_valid(batch[name]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
    return counts


def _dependency_triggered(col) -> np.ndarray:
    """Rows where a dependency's trigger key is present: a null cell is
    an absent key, and Ruby truthiness keeps false from triggering
    (validator.rb:201-214)."""
    triggered = pc.is_valid(col).to_numpy(zero_copy_only=False)
    if pa.types.is_boolean(col.type):
        triggered &= pc.fill_null(col, False).to_numpy(zero_copy_only=False)
    return triggered


def _row_checks_ok(batch: pa.Table, plan: TablePlan) -> np.ndarray:
    """Combined verdict of the lowered row-level keywords: dependency =
    not triggered or sub-verdict, allOf = AND, anyOf = OR, oneOf =
    exactly one, not = NOT."""
    ok = np.ones(batch.num_rows, dtype=bool)
    for kind, trigger, subs in plan.row_checks:
        if kind == "dependency":
            if trigger in batch.column_names:
                ok &= (~_dependency_triggered(batch[trigger])
                       | verdict_mask(batch, subs[0]))
            continue
        verdicts = [verdict_mask(batch, p) for p in subs]
        if kind == "all_of":
            ok &= np.logical_and.reduce(verdicts)
        elif kind == "any_of":
            ok &= np.logical_or.reduce(verdicts)
        elif kind == "one_of":
            ok &= np.sum(verdicts, axis=0) == 1
        else:
            ok &= ~verdicts[0]
    return ok


def verdict_mask(batch: pa.Table, plan: TablePlan) -> np.ndarray:
    """Boolean per-row verdict (the fail_fast analogue: no message
    materialization, just masks AND-ed together)."""
    n = batch.num_rows
    ok = np.ones(n, dtype=bool)

    if plan.full_row_fallback:
        v = Validator(plan.schema)
        for i, doc in enumerate(_batch_documents(batch)):
            ok[i] = v.validate(doc, fail_fast=True)
        return ok
    if not plan.object_type_ok:
        return np.zeros(n, dtype=bool)
    ok &= _row_checks_ok(batch, plan)

    for name in plan.required:
        if name in batch.column_names:
            ok &= pc.is_valid(batch[name]).to_numpy(zero_copy_only=False)
        else:
            ok[:] = False

    if plan.allowed_columns is not None:
        # a NULL cell is an absent key: a row only fails when at least
        # one non-allowed column's cell is actually present (non-null)
        for c in batch.column_names:
            if c not in plan.allowed_columns:
                ok &= pc.is_null(batch[c]).to_numpy(zero_copy_only=False)

    for trigger, req_cols in plan.simple_dependencies:
        if trigger not in batch.column_names:
            continue
        triggered = _dependency_triggered(batch[trigger])
        for rc in req_cols:
            present = (pc.is_valid(batch[rc])
                       .to_numpy(zero_copy_only=False)
                       if rc in batch.column_names
                       else np.zeros(n, dtype=bool))
            ok &= ~(triggered & ~present)

    if plan.min_properties is not None or plan.max_properties is not None \
            or plan.strict_properties:
        counts = _present_counts(batch)
        if plan.max_properties is not None:
            ok &= counts <= plan.max_properties
        if plan.min_properties is not None:
            ok &= counts >= plan.min_properties
        if plan.strict_properties:
            # per-row extra-key mask (null cell = absent key)
            for c in batch.column_names:
                if c not in plan.strict_allowed:
                    ok &= pc.is_null(batch[c]) \
                        .to_numpy(zero_copy_only=False)
            for name in plan.schema.properties.keys():
                if name in batch.column_names:
                    ok &= pc.is_valid(batch[name]) \
                        .to_numpy(zero_copy_only=False)
                else:
                    ok[:] = False

    for cp in list(plan.columns) + list(plan.pattern_plans):
        if cp.column not in batch.column_names:
            continue
        col = batch[cp.column]
        if cp.json_struct_type is not None:
            res = _decode_json_struct(col, cp)
            if res is not None:
                decoded, routed = res
                for check in cp.checks:
                    ok &= pc.fill_null(check.mask_fn(decoded), True) \
                        .to_numpy(zero_copy_only=False)
                ok &= _struct_ok_mask(decoded, cp)
                if routed.any():
                    ok &= _routed_ok_mask(col, cp, routed)
                continue
            # strict decode failed somewhere in the batch: exact
            # per-cell interpreter fallback below
        if cp.map_vectorized:
            ok &= _map_ok_mask(col, cp)
            continue
        if cp.fallback_schema is not None:
            ok &= _fallback_ok_mask(col, cp)
            continue
        for check in cp.checks:
            mask = check.mask_fn(col)
            # null = skip = pass
            m = pc.fill_null(mask, True).to_numpy(zero_copy_only=False)
            ok &= m
        if cp.element_checks or cp.element_null_fails:
            _, parents, _, failures = _element_failures(col, cp)
            for _, idxs in failures:
                ok[np.unique(parents[idxs])] = False
        if cp.tuple_count >= 0:
            ok &= _tuple_ok_mask(col, cp)
        if cp.unique_items:
            ok[_unique_fail_rows(col)] = False
        if cp.struct_field_checks or cp.struct_required:
            ok &= _struct_ok_mask(col, cp)
    return ok


def _struct_ok_mask(col, cp: ColumnPlan) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ok = np.ones(len(arr), dtype=bool)
    available = {arr.type.field(i).name for i in range(arr.type.num_fields)}
    for _, fname, checks, _ in cp.struct_field_checks:
        fcol = pc.struct_field(arr, fname)
        for check in checks:
            ok &= pc.fill_null(check.mask_fn(fcol), True) \
                .to_numpy(zero_copy_only=False)
    parent_valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    for fname in cp.struct_required:
        if fname not in available:
            ok &= ~parent_valid
            continue
        fcol = pc.struct_field(arr, fname)
        miss = parent_valid & pc.is_null(fcol).to_numpy(zero_copy_only=False)
        ok &= ~miss
    return ok


def _routed_ok_mask(col, cp: ColumnPlan, routed: np.ndarray) -> np.ndarray:
    """fail_fast interpreter verdicts for just the routed cells."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    out = np.ones(len(routed), dtype=bool)
    v = Validator(cp.fallback_schema)
    idxs = np.nonzero(routed)[0]
    vals = arr.take(pa.array(idxs)).to_pylist()
    for i, raw in zip(idxs, vals):
        if raw is None:
            continue
        try:
            val = json.loads(raw)
        except (ValueError, TypeError):
            out[i] = False
            continue
        out[i] = v.validate(val, fail_fast=True)
    return out


def _map_cells_to_docs(col, values: list) -> list:
    """Arrow renders map cells as lists of (key, value) tuples; the
    interpreter needs the JSON object they represent."""
    t = col.type if not isinstance(col, pa.ChunkedArray) \
        else col.chunk(0).type if col.num_chunks else None
    if t is not None and pa.types.is_map(t):
        return [dict(v) if v is not None else None for v in values]
    return values


def _fallback_ok_mask(col: pa.ChunkedArray, cp: ColumnPlan) -> np.ndarray:
    values = _map_cells_to_docs(col, col.to_pylist())
    out = np.ones(len(values), dtype=bool)
    v = Validator(cp.fallback_schema)
    for i, val in enumerate(values):
        if val is None:
            continue
        if cp.json_cell:
            try:
                val = json.loads(val)
            except (ValueError, TypeError):
                out[i] = False
                continue
        out[i] = v.validate(val, fail_fast=True)
    return out


def validate_batch(batch: pa.Table, plan: TablePlan,
                   first_error_only: bool = False,
                   with_invalid_count: bool = False):
    """Full-error mode: returns the violation table for this batch.

    Violation rows are ordered (row, property-order, keyword rank) to
    reproduce the reference's error ordering within each document.
    With ``first_error_only`` each failing row keeps just its first
    error under that order — the deterministic per-row fail_fast
    selection (reference validator.rb:24-29 + keyword order
    :90-130), computed as an argmin over keyword rank instead of
    short-circuiting, which is the columnar-friendly equivalent.

    ``with_invalid_count=True`` returns ``(table, n_invalid_rows)``
    with the distinct count of violating rows taken from the
    internal row indices — a row is valid iff it contributes no
    violation, so fused scans (full_validation_pass) get the verdict
    tally WITHOUT a second keyword evaluation (verdict_mask)."""
    n = batch.num_rows
    # collected as (row_idx, group_order, rank, path, schema_pointer,
    #               error_type, message, data_json)
    rows: list = []

    if plan.full_row_fallback or plan.row_checks or not plan.object_type_ok:
        # messages from the whole-row interpreter, on every row under
        # full_row_fallback, else only on the rows the combined
        # verdict fails; rows keep their batch index
        if plan.full_row_fallback:
            idxs = np.arange(n)
            sub_batch = batch
        else:
            idxs = np.nonzero(~verdict_mask(batch, plan))[0]
            sub_batch = batch.take(pa.array(idxs, type=pa.int64()))
        v = Validator(plan.schema)
        for i, doc in zip(idxs, _batch_documents(sub_batch)):
            if not v.validate(doc):
                for e in v.errors:
                    sub = "/".join(str(p) for p in e.path[1:])
                    rows.append((
                        int(i), (0, 0), (0, 0, 0),
                        "#" + ("/" + sub if sub else ""),
                        e.schema.pointer if e.schema else "#",
                        e.type, e.message, json.dumps(e.data, default=str)))
        if first_error_only:
            seen, firsts = set(), []
            for r in rows:
                if r[0] not in seen:
                    seen.add(r[0])
                    firsts.append(r)
            rows = firsts
        if with_invalid_count:
            return (_rows_to_table(rows, batch, plan),
                    len({r[0] for r in rows}))
        return _rows_to_table(rows, batch, plan)

    for cp in list(plan.columns) + list(plan.pattern_plans):
        prop_idx = cp.order
        if cp.column not in batch.column_names:
            continue
        col = batch[cp.column]
        path_prefix = f"#/{cp.column}"
        if cp.json_struct_type is not None:
            res = _decode_json_struct(col, cp)
            if res is not None:
                decoded, routed = res
                _emit_check_rows(decoded, cp, prop_idx, path_prefix, rows)
                _struct_violation_rows(decoded, cp, prop_idx,
                                       path_prefix, rows)
                if routed.any():
                    arr = (col.combine_chunks()
                           if isinstance(col, pa.ChunkedArray) else col)
                    routed_arrow = pa.array(routed)
                    masked = pc.if_else(routed_arrow, arr,
                                        pa.scalar(None, arr.type))
                    _fallback_violations(masked, cp, prop_idx,
                                         path_prefix, rows)
                continue
        if cp.map_vectorized:
            # vectorized verdicts select the failing cells; only
            # those run the interpreter for exact messages
            bad = ~_map_ok_mask(col, cp)
            if bad.any():
                _fallback_violations(col, cp, prop_idx, path_prefix,
                                     rows, row_mask=bad)
            continue
        if cp.fallback_schema is not None:
            _fallback_violations(col, cp, prop_idx, path_prefix, rows)
            continue
        _emit_check_rows(col, cp, prop_idx, path_prefix, rows)

        # list element checks (items list form, validator.rb:290-297)
        if cp.element_checks or cp.element_null_fails:
            flat, parents, pos, failures = _element_failures(col, cp)
            for check, idxs in failures:
                vals = flat.take(pa.array(idxs)).to_pylist()
                for i, val in zip(idxs, vals):
                    row_i, p = int(parents[i]), int(pos[i])
                    if check is None:
                        rows.append((
                            row_i, prop_idx, (RANK["items"], p, RANK["type"]),
                            f"{path_prefix}/{p}", cp.element_pointer,
                            "invalid_type", cp.element_type_msg(val),
                            json.dumps(val, default=str)))
                    else:
                        rows.append((
                            row_i, prop_idx, (RANK["items"], p, check.rank[0]),
                            f"{path_prefix}/{p}", cp.element_pointer,
                            check.error_type, check.msg_fn(val),
                            json.dumps(val, default=str)))
        if cp.tuple_count >= 0:
            _tuple_violation_rows(col, cp, prop_idx, path_prefix, rows)
        if cp.unique_items:
            for row_i in _unique_fail_rows(col):
                data = col[int(row_i)].as_py()
                rows.append((
                    int(row_i), prop_idx, (RANK["unique_items"], 0, 0),
                    path_prefix, cp.schema_pointer, "unique_items_failed",
                    "Duplicate items are not allowed.",
                    json.dumps(data, default=str)))

        # struct fields (nested properties/required, validator.rb:496-518)
        if cp.struct_field_checks or cp.struct_required:
            _struct_violation_rows(col, cp, prop_idx, path_prefix, rows)

    req_pointer = plan.schema.pointer

    # simple dependencies (validator.rb:201-214)
    for di, (trigger, req_cols) in enumerate(plan.simple_dependencies):
        if trigger not in batch.column_names:
            continue
        triggered = _dependency_triggered(batch[trigger])
        miss_cols = {}
        for rc in req_cols:
            present = (pc.is_valid(batch[rc])
                       .to_numpy(zero_copy_only=False)
                       if rc in batch.column_names
                       else np.zeros(n, dtype=bool))
            miss_cols[rc] = triggered & ~present
        any_miss = np.zeros(n, dtype=bool)
        for m in miss_cols.values():
            any_miss |= m
        for i in np.nonzero(any_miss)[0]:
            missing = [rc for rc in req_cols if miss_cols[rc][i]]
            rows.append((
                int(i), (RANK["dependencies"], di),
                (RANK["dependencies"], 0, 0), "#",
                req_pointer, "required_failed",
                _required_message(missing), json.dumps(missing)))

    # min/maxProperties over present (non-null) keys
    if plan.min_properties is not None or plan.max_properties is not None:
        counts = _present_counts(batch)
        if plan.max_properties is not None:
            mx = plan.max_properties
            for i in np.nonzero(counts > mx)[0]:
                c = int(counts[i])
                msg = (f"No more than {mx} propert"
                       + ("y is" if mx == 1 else "ies are")
                       + f" allowed; {c} " + ("was" if c == 1 else "were")
                       + " supplied.")
                rows.append((int(i), (RANK["max_properties"], 0),
                             (RANK["max_properties"], 0, 0), "#",
                             req_pointer, "max_properties_failed", msg,
                             "null"))
        if plan.min_properties is not None:
            mn = plan.min_properties
            for i in np.nonzero(counts < mn)[0]:
                c = int(counts[i])
                msg = (f"At least {mn} propert"
                       + ("y is" if mn == 1 else "ies are")
                       + f" required; {c} " + ("was" if c == 1 else "were")
                       + " supplied.")
                rows.append((int(i), (RANK["min_properties"], 0),
                             (RANK["min_properties"], 0, 0), "#",
                             req_pointer, "min_properties_failed", msg,
                             "null"))

    # required (validator.rb:507-518): null cell or missing column;
    # ONE error per row listing every missing key (sorted in the
    # message, required-order in the data payload)
    if plan.required:
        miss_per = {}
        for name in plan.required:
            if name in batch.column_names:
                miss_per[name] = pc.is_null(batch[name]) \
                    .to_numpy(zero_copy_only=False)
            else:
                miss_per[name] = np.ones(n, dtype=bool)
        any_miss = np.zeros(n, dtype=bool)
        for m in miss_per.values():
            any_miss |= m
        for i in np.nonzero(any_miss)[0]:
            missing = [k for k in plan.required if miss_per[k][i]]
            rows.append((
                int(i), (RANK["required"], 0), (RANK["required"], 0, 0), "#",
                req_pointer, "required_failed",
                _required_message(missing), json.dumps(missing),
            ))

    # strictProperties (validator.rb:520-525): extra keys + required
    # over all declared properties
    if plan.strict_properties:
        _extra_key_rows(batch, plan.strict_allowed, req_pointer,
                        (RANK["strict_properties"], 0), rows)
        prop_keys = list(plan.schema.properties.keys())
        miss_per = {}
        for name in prop_keys:
            if name in batch.column_names:
                miss_per[name] = pc.is_null(batch[name]) \
                    .to_numpy(zero_copy_only=False)
            else:
                miss_per[name] = np.ones(n, dtype=bool)
        any_miss = np.zeros(n, dtype=bool)
        for m in miss_per.values():
            any_miss |= m
        for i in np.nonzero(any_miss)[0]:
            missing = [k for k in prop_keys if miss_per[k][i]]
            rows.append((
                int(i), (RANK["strict_properties"], 1),
                (RANK["strict_properties"], 0, 0), "#",
                req_pointer, "required_failed",
                _required_message(missing), json.dumps(missing)))

    # additionalProperties false -> extra columns (validator.rb:242-255)
    if plan.allowed_columns is not None:
        _extra_key_rows(batch, plan.allowed_columns, req_pointer,
                        (RANK["additional_properties"], 0), rows)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if first_error_only:
        seen = set()
        firsts = []
        for r in rows:
            if r[0] not in seen:
                seen.add(r[0])
                firsts.append(r)
        rows = firsts
    if with_invalid_count:
        return (_rows_to_table(rows, batch, plan),
                len({r[0] for r in rows}))
    return _rows_to_table(rows, batch, plan)


def _emit_check_rows(col, cp: ColumnPlan, prop_idx, path_prefix: str,
                     rows: list) -> None:
    """Violation rows for the column-level compiled checks (incl.
    inline combinator children), messages materialized only for
    failing cells."""
    all_checks: List[CompiledCheck] = []
    for check in cp.checks:
        if check.inline_children:
            all_checks.extend(check.inline_children)
        all_checks.append(check)
    for check in all_checks:
        mask = check.mask_fn(col)
        fail = pc.fill_null(pc.invert(mask), False)
        if isinstance(fail, pa.ChunkedArray):
            fail = fail.combine_chunks()
        idxs = np.nonzero(fail.to_numpy(zero_copy_only=False))[0]
        if len(idxs) == 0:
            continue
        # a filter keeps idxs' order and, unlike a take, does not
        # concatenate a chunked column first
        failing_vals = col.filter(fail).to_pylist()
        for i, val in zip(idxs, failing_vals):
            if pa.types.is_timestamp(col.type):
                val = _ts_to_str(val)
            rows.append((
                int(i), prop_idx, check.rank, path_prefix,
                cp.schema_pointer, check.error_type,
                check.msg_fn(val), json.dumps(val, default=str),
            ))


def _struct_violation_rows(col, cp: ColumnPlan, prop_idx,
                           path_prefix: str, rows: list) -> None:
    """Struct-column (or JSON-decoded) nested properties/required
    violation rows (validator.rb:496-518)."""
    arr = (col.combine_chunks()
           if isinstance(col, pa.ChunkedArray) else col)
    available = {arr.type.field(i).name
                 for i in range(arr.type.num_fields)}
    for fi, fname, checks, f_pointer in cp.struct_field_checks:
        fcol = pc.struct_field(arr, fname)
        flat_checks: List[CompiledCheck] = []
        for check in checks:
            if check.inline_children:
                flat_checks.extend(check.inline_children)
            flat_checks.append(check)
        for check in flat_checks:
            fail = pc.fill_null(pc.invert(check.mask_fn(fcol)), False)
            idxs = np.nonzero(
                fail.to_numpy(zero_copy_only=False))[0]
            if len(idxs) == 0:
                continue
            vals = fcol.take(pa.array(idxs)).to_pylist()
            for i, val in zip(idxs, vals):
                rows.append((
                    int(i), prop_idx,
                    (RANK["properties"], fi, check.rank[0]),
                    f"{path_prefix}/{fname}", f_pointer,
                    check.error_type, check.msg_fn(val),
                    json.dumps(val, default=str)))
    parent_valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    if cp.struct_required:
        miss_per = {}
        for fname in cp.struct_required:
            if fname in available:
                fcol = pc.struct_field(arr, fname)
                miss_per[fname] = parent_valid & pc.is_null(fcol) \
                    .to_numpy(zero_copy_only=False)
            else:
                miss_per[fname] = parent_valid.copy()
        any_miss = np.zeros(len(arr), dtype=bool)
        for m in miss_per.values():
            any_miss |= m
        for i in np.nonzero(any_miss)[0]:
            missing = [k for k in cp.struct_required
                       if miss_per[k][i]]
            rows.append((
                int(i), prop_idx, (RANK["required"], 0, 0),
                path_prefix, cp.struct_pointer, "required_failed",
                _required_message(missing),
                json.dumps(missing)))


def _extra_key_rows(batch: pa.Table, allowed: set, req_pointer: str,
                    group_order: tuple, rows: list) -> None:
    """invalid_keys violation rows for extra columns — per row: a NULL
    cell is an absent key, so only rows where at least one non-allowed
    column is non-null fail, and each row's message lists exactly ITS
    present extra keys (matching the row-interpreter oracle over
    _batch_documents)."""
    extra_cols = sorted(c for c in batch.column_names if c not in allowed)
    if not extra_cols:
        return
    present = {c: pc.is_valid(batch[c]).to_numpy(zero_copy_only=False)
               for c in extra_cols}
    any_extra = np.zeros(batch.num_rows, dtype=bool)
    for m in present.values():
        any_extra |= m
    for i in np.nonzero(any_extra)[0]:
        extra = [c for c in extra_cols if present[c][i]]
        joined = '", "'.join(extra)
        message = (f'"{joined}" '
                   + ("is not a" if len(extra) == 1 else "are not")
                   + " permitted key" + ("." if len(extra) == 1 else "s."))
        rows.append((int(i), group_order, (group_order[0], 0, 0), "#",
                     req_pointer, "invalid_keys", message, "null"))


def _required_message(missing: list) -> str:
    joined = '", "'.join(sorted(missing))
    return (f'"{joined}" '
            + ("wasn't" if len(missing) == 1 else "weren't")
            + " supplied.")


def _ts_to_str(val: Any) -> Any:
    if val is None:
        return None
    if hasattr(val, "strftime"):
        return val.strftime("%Y-%m-%dT%H:%M:%SZ")
    return val


def _fallback_violations(col, cp: ColumnPlan, prop_idx: int,
                         path_prefix: str, rows: list,
                         row_mask: Optional[np.ndarray] = None) -> None:
    values = _map_cells_to_docs(col, col.to_pylist())
    v = Validator(cp.fallback_schema)
    for i, val in enumerate(values):
        if val is None or (row_mask is not None and not row_mask[i]):
            continue
        raw = val
        if cp.json_cell:
            try:
                val = json.loads(val)
            except (ValueError, TypeError):
                rows.append((
                    i, prop_idx, (RANK["type"], 0, 0), path_prefix,
                    cp.schema_pointer, "invalid_json",
                    f"{ruby_to_s(raw)} is not parsable JSON.",
                    json.dumps(raw, default=str),
                ))
                continue
        if not v.validate(val):
            for ei, e in enumerate(v.errors):
                # e.path starts at '#'; splice under the column path.
                # Rank = the interpreter's own emission order, which
                # IS the reference's keyword application order
                # (validator.rb:90-130) — re-ranking by keyword kind
                # would reorder nested sub-errors vs required.
                sub = "/".join(str(p) for p in e.path[1:])
                path = path_prefix + ("/" + sub if sub else "")
                rows.append((
                    i, prop_idx, (ei, 0, 0), path,
                    e.schema.pointer if e.schema else cp.schema_pointer,
                    e.type, e.message, json.dumps(e.data, default=str),
                ))


def _rows_to_table(rows: list, batch: pa.Table, plan: TablePlan) -> pa.Table:
    out_schema = plan.violation_schema()
    if not rows:
        return out_schema.empty_table()
    idxs = pa.array([r[0] for r in rows], type=pa.int64())
    cols = []
    for k, kt in zip(plan.key_columns, plan.key_types):
        key_col = (batch[k].take(idxs).combine_chunks()
                   if k in batch.column_names
                   else pa.nulls(len(rows), kt))
        cols.append(key_col)
    cols.append(pa.array([r[3] for r in rows], type=pa.string()))
    cols.append(pa.array([r[4] for r in rows], type=pa.string()))
    cols.append(pa.array([r[5] for r in rows], type=pa.string()))
    cols.append(pa.array([r[6] for r in rows], type=pa.string()))
    cols.append(pa.array([r[7] for r in rows], type=pa.string()))
    return pa.Table.from_arrays(cols, schema=out_schema)

