"""Expected outputs computed without the engine.

Validation results are recomputed with DuckDB SQL over the same
Parquet files: one SQL predicate per keyword of the JSON schema,
Parquet footers for row totals, ``GROUP BY ... HAVING`` for duplicate
keys and a ``LAG`` window for turn ordering. Drift statistics are
recomputed from DuckDB histograms. Registry queries are compared with
their own ``oracle_sql()`` text, as ``tools/check_oracle.py`` does.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Dict, List, Tuple

import pyarrow.parquet as pq


def _lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v)


def _property_predicates(col: str, prop: dict) -> List[Tuple[str, str]]:
    """(error_type, SQL condition) per keyword of one property schema;
    a true condition is one violation row. Null cells are absent keys
    and fail no property keyword."""
    q = f'"{col}"'
    out = []
    for kw, v in prop.items():
        if kw in ("type", "exclusiveMinimum"):
            # the Arrow column types already satisfy every declared
            # type (timestamps render as strings); exclusiveMinimum
            # only modifies minimum
            continue
        if kw == "format" and v == "date-time":
            continue  # timestamp cells render as RFC 3339 strings
        if kw == "enum":
            cond = f"{q} NOT IN ({', '.join(_lit(x) for x in v)})"
            out.append(("invalid_type", cond))
        elif kw == "minLength":
            out.append(("min_length_failed", f"length({q}) < {v}"))
        elif kw == "maxLength":
            out.append(("max_length_failed", f"length({q}) > {v}"))
        elif kw == "minimum":
            op = "<=" if prop.get("exclusiveMinimum") else "<"
            out.append(("min_failed", f"{q} {op} {v}"))
        elif kw == "pattern":
            out.append(("pattern_failed",
                        f"NOT regexp_matches({q}, {_lit(v)})"))
        else:
            raise ValueError(f"no SQL predicate for keyword {kw!r}")
    return [(t, f"coalesce({q} IS NOT NULL AND {c}, false)")
            for t, c in out]


def schema_predicates(schema: dict) -> List[Tuple[str, str]]:
    """Every violation condition of a flat object schema: required
    columns, property keywords and schema-form dependencies (whose
    subschema applies only when the trigger column is present)."""
    preds = [("required_failed", f'"{name}" IS NULL')
             for name in schema.get("required", [])]
    for col, prop in schema.get("properties", {}).items():
        preds += _property_predicates(col, prop)
    for trigger, sub in schema.get("dependencies", {}).items():
        if not isinstance(sub, dict) or set(sub) != {"properties"}:
            raise ValueError(f"no SQL predicate for dependency {trigger!r}")
        for col, prop in sub["properties"].items():
            preds += [(t, f'("{trigger}" IS NOT NULL AND {c})')
                      for t, c in _property_predicates(col, prop)]
    return preds


def _relation(files: List[str]) -> str:
    return "read_parquet([" + ", ".join(_lit(f) for f in files) + "])"


def expected_validation(con, files: List[str], schema: dict) -> dict:
    """Row totals, per-error_type violation counts, invalid rows,
    duplicate keys and ordering violation counts for ``files``."""
    rel = _relation(files)
    preds = schema_predicates(schema)
    flags = ", ".join(f"CAST({c} AS INT) AS f{i}"
                      for i, (_, c) in enumerate(preds))
    sums = ", ".join(f"sum(f{i})" for i in range(len(preds)))
    any_bad = " OR ".join(f"f{i} = 1" for i in range(len(preds)))
    row = con.sql(
        f"SELECT {sums}, count(*) FILTER (WHERE {any_bad}) "
        f"FROM (SELECT {flags} FROM {rel})").fetchone()
    per_type: Dict[str, int] = {}
    for (etype, _), n in zip(preds, row[:-1]):
        if n:
            per_type[etype] = per_type.get(etype, 0) + int(n)
    dup = con.sql(
        f"SELECT count(*) FROM (SELECT conv_id, turn_idx FROM {rel} "
        "GROUP BY conv_id, turn_idx HAVING count(*) > 1)").fetchone()[0]
    # the engine's ordering rules over turn order within a
    # conversation: a sequence must start at 0 and step by 1 (one
    # turn_gap per jump), a repeated turn value is one
    # duplicate_turn, and any ts decrease marks the conversation once
    gap, dup_turn, ts_ooo = con.sql(f"""
        WITH s AS (
            SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, ts,
                   lag(CAST(turn_idx AS BIGINT)) OVER w AS pt,
                   lag(ts) OVER w AS pts,
                   row_number() OVER w AS rn
            FROM {rel}
            WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx, ts))
        SELECT
            count(*) FILTER (WHERE rn = 1 AND turn_idx <> 0)
              + count(*) FILTER (WHERE pt IS NOT NULL
                                 AND turn_idx - pt > 1),
            count(DISTINCT (conv_id, turn_idx)) FILTER (WHERE pt = turn_idx),
            count(DISTINCT conv_id) FILTER (WHERE pts IS NOT NULL
                                            AND ts < pts)
        FROM s""").fetchone()
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    return {
        "total_rows": total,
        "invalid_rows": int(row[-1]),
        "violation_rows": sum(per_type.values()),
        "per_type": per_type,
        "duplicate_keys": int(dup),
        "ordering": {"duplicate_turn": int(dup_turn),
                     "turn_gap": int(gap),
                     "ts_out_of_order": int(ts_ooo)},
    }


def violation_counts(directory: str) -> Dict[str, int]:
    """error_type -> rows of the engine's violation Parquet files
    under ``directory``."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc

    files = sorted(glob.glob(os.path.join(directory, "*.parquet")))
    col = pa.chunked_array(
        [pq.read_table(f, columns=["error_type"])["error_type"]
         for f in files], pa.string())
    return {v["values"]: v["counts"]
            for v in pc.value_counts(col).to_pylist()}


def summary_problems(got: dict, exp: dict) -> List[str]:
    """Differences between an engine summary (job summary.json or
    ``full_validation_pass`` result) and the expected figures."""
    out = []
    for k in ("total_rows", "invalid_rows", "violation_rows"):
        if got.get(k) != exp[k]:
            out.append(f"{k}: engine {got.get(k)} != expected {exp[k]}")
    if got.get("valid_rows") != exp["total_rows"] - exp["invalid_rows"]:
        out.append(f"valid_rows: engine {got.get('valid_rows')}")
    ordering = got.get("ordering_violations",
                       got.get("ordering_violation_counts"))
    if ordering != exp["ordering"]:
        out.append(f"ordering: engine {ordering} != {exp['ordering']}")
    if "duplicate_keys" in got and got["duplicate_keys"] != \
            exp["duplicate_keys"]:
        out.append(f"duplicate_keys: engine {got['duplicate_keys']} "
                   f"!= {exp['duplicate_keys']}")
    return out


def _psi(expected: Dict[str, int], actual: Dict[str, int]) -> float:
    keys = sorted(set(expected) | set(actual), key=str)
    e_total = max(sum(expected.values()), 1)
    a_total = max(sum(actual.values()), 1)
    out = 0.0
    for k in keys:
        e = max(expected.get(k, 0) / e_total, 1e-6)
        a = max(actual.get(k, 0) / a_total, 1e-6)
        out += (a - e) * math.log(a / e)
    return out


def _ks(h1: Dict[int, int], h2: Dict[int, int]) -> float:
    n1, n2 = sum(h1.values()), sum(h2.values())
    d = c1 = c2 = 0
    for v in sorted(set(h1) | set(h2)):
        c1 += h1.get(v, 0)
        c2 += h2.get(v, 0)
        d = max(d, abs(c1 * n2 - c2 * n1))
    return (d * 1_000_000 // (n1 * n2)) / 1e6


def expected_drift(con, files: List[str], profile: dict) -> Dict[tuple, float]:
    """(column, metric) -> value for the job's ``--profile`` drift
    report: PSI per categorical column, exact KS per length column."""
    rel = _relation(files)
    out = {}
    for col, hist in profile["histograms"].items():
        rows = con.sql(f'SELECT CAST("{col}" AS VARCHAR), count(*) '
                       f"FROM {rel} GROUP BY 1").fetchall()
        actual = {("None" if v is None else v): n for v, n in rows}
        out[(col, "psi")] = _psi(hist, actual)
    for col, hist in profile["length_hists"].items():
        rows = con.sql(f'SELECT length("{col}"), count(*) FROM {rel} '
                       f'WHERE "{col}" IS NOT NULL GROUP BY 1').fetchall()
        ref = {int(k): int(v) for k, v in hist.items()}
        out[(col, "ks")] = _ks(ref, {int(v): n for v, n in rows})
    return out


def drift_problems(report: list, exp: Dict[tuple, float]) -> List[str]:
    got = {(r["column"], r["metric"]): r["value"] for r in report}
    if set(got) != set(exp):
        return [f"drift rows {sorted(got)} != {sorted(exp)}"]
    return [f"drift {k}: engine {got[k]} != expected {exp[k]}"
            for k in exp
            if not math.isclose(got[k], exp[k], rel_tol=1e-9,
                                abs_tol=1e-12)]


@contextmanager
def _no_corpus_side_effects(cache: str):
    """``oracle_sql()`` builds the text of every oracle, and a few of
    those name generated transcript corpora that the program writes
    under /tmp on first use. None of them is read here, so while the
    text is built the path helper answers with a path inside the
    benchmark's cache and generates nothing."""
    from json_schema_ray.pipelines import flagship

    real = flagship.transcripts_path

    def placeholder(n_turns, seed=42, violation_rate=0.01, n_files=8):
        return os.path.join(cache, f"unused_n{n_turns}_s{seed}")

    flagship.transcripts_path = placeholder
    try:
        yield
    finally:
        flagship.transcripts_path = real


def registry_oracles(con, data_dir: str, names: List[str],
                     cache: str) -> Dict[str, tuple]:
    """name -> (column types, canonical rows) of each query's oracle."""
    import __ray_entry__ as entry
    from tools.check_oracle import canonical

    with _no_corpus_side_effects(cache):
        sql = entry.oracle_sql()
    con.execute("CREATE OR REPLACE VIEW events AS SELECT * FROM "
                f"{_lit(os.path.join(data_dir, 'events.parquet'))}")
    out = {}
    for name in names:
        t = con.sql(sql[name]).arrow()
        out[name] = (_types(t), canonical(t))
    return out


def _types(t) -> list:
    return sorted((c, str(t.schema.field(c).type)) for c in t.column_names)


def registry_problems(name: str, result, oracle) -> List[str]:
    from tools.check_oracle import canonical

    types, rows = oracle
    if _types(result) != types:
        return [f"{name}: columns {_types(result)} != oracle {types}"]
    if canonical(result) != rows:
        return [f"{name}: {result.num_rows} rows differ from the oracle's "
                f"{len(rows)}"]
    return []
