"""Driver-style correctness check: run each queries() entry and its
oracle_sql() through DuckDB on the same parquet tables; compare row
count, column names, and order-insensitive values.

Usage: python tools/check_oracle.py [sf_dir] [name ...]

Ray gets the CPUs this process may run on (its affinity mask), capped
by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when they are set, and
at least ``MIN_CPUS``: on any host with 8 CPUs or fewer that is 8.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_arrow(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    # ray Dataset (iter_batches yields RecordBatch or Table
    # depending on block layout)
    return pa.concat_tables(
        [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
         else b for b in res.iter_batches(batch_format="pyarrow")],
        promote_options="default")


def canonical(t):
    """Sort columns by name, rows by all values; stringify."""
    t = t.select(sorted(t.column_names))
    rows = [tuple(str(v) for v in row.values()) for row in t.to_pylist()]
    return sorted(rows)


# an actor-pool stage holds a logical CPU per actor for the life of
# its pool, and the tasks around it wait for the CPUs left over: with
# 1, docs_quality_budget's reads never start (a pool of 1 to 4
# quality-score actors); with 4, neither do transcript_tool_args'
# (validate_by_registry's 4 actors)
MIN_CPUS = 8


def ray_cpus() -> int:
    """Logical CPUs for the sweep's Ray session: the CPUs this process
    may use as ``nproc`` counts them (the affinity mask, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when the environment
    sets them), but at least ``MIN_CPUS``, so 8 on any host with 8
    CPUs or fewer."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            n = min(n, int(os.environ[var]))
    return max(n, MIN_CPUS)


def main():
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # oracles whose SQL reads a generated corpus by path (e.g.
    # transcript_role_protocol) must build it at THIS sf, not the
    # driver default, or row counts diverge at sf != 0.01
    os.environ["JSR_PROTOCOL_SF_DIR"] = sf_dir

    ray.init(address="local", num_cpus=ray_cpus(), include_dashboard=False,
             ignore_reinit_error=True)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for tbl in TABLES:
        path = os.path.join(sf_dir, f"{tbl}.parquet")
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM '{path}'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = to_arrow(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows-only {name}: {res.num_rows} rows "
                  f"({', '.join(res.column_names)}) [{dt:.1f}s]")
            continue
        try:
            oracle = con.sql(oracles[name]).arrow()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            n_fail += 1
            continue
        ok_rows = res.num_rows == oracle.num_rows
        ok_cols = sorted(res.column_names) == sorted(oracle.column_names)
        ok_vals = ok_rows and ok_cols and canonical(res) == canonical(oracle)
        # The driver's value hash is TYPE-sensitive (int64 vs decimal128
        # mismatch even when values agree — the round-3 HUGEINT pitfall),
        # so compare name-sorted dtypes too.
        ok_types = ok_cols and (
            [str(res.schema.field(c).type) for c in sorted(res.column_names)]
            == [str(oracle.schema.field(c).type)
                for c in sorted(oracle.column_names)])
        if ok_rows and ok_cols and ok_vals and not ok_types:
            print(f"FAIL {name}: values match but dtypes differ "
                  f"(driver hash would mismatch): "
                  f"{[(c, str(res.schema.field(c).type), str(oracle.schema.field(c).type)) for c in sorted(res.column_names) if str(res.schema.field(c).type) != str(oracle.schema.field(c).type)]}")
            n_fail += 1
        elif ok_rows and ok_cols and ok_vals:
            print(f"PASS {name}: {res.num_rows} rows [{dt:.1f}s]")
            n_pass += 1
        else:
            print(f"FAIL {name}: rows {res.num_rows} vs {oracle.num_rows}, "
                  f"cols {sorted(res.column_names)} vs "
                  f"{sorted(oracle.column_names)}")
            if ok_rows and ok_cols:
                a, b = canonical(res), canonical(oracle)
                diffs = [(x, y) for x, y in zip(a, b) if x != y][:3]
                print("   first diffs:", diffs)
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
