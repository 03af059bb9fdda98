"""Resumable, checkpointed validation runs.

The resumable unit is the input Parquet fragment (file). A run writes,
per fragment: a violations parquet under ``out/violations/`` and an
atomically-renamed lineage manifest JSON under ``out/manifest/``
recording input fragment, row counts, verdict and output path. A
re-submitted run lists the manifest directory first and skips
finished fragments — so a killed job resumes mid-scan without
duplicating violation rows (deterministic per-fragment output names
make retries idempotent).

This stage is expressed as a Ray Data pipeline over a dataset of
*work items* (fragment paths) flowing through ``map_batches`` tasks:
streaming, backpressured, and embarrassingly parallel. Fragment
contents are read row-group-at-a-time inside the task, so memory per
task stays bounded regardless of fragment size.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from .table_validator import TablePlan, validate_batch


def _fragment_id(path: str) -> str:
    base = os.path.basename(path)
    return base.replace(".parquet", "")


def list_done_fragments(out_dir: str) -> set:
    mdir = os.path.join(out_dir, "manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            done.add(f[:-len(".json")])
    return done


def run_resumable_validation(
    input_files: List[str],
    out_dir: str,
    plan: TablePlan,
    concurrency: Optional[int] = None,
) -> dict:
    """Validate each input fragment, writing violations + manifest per
    fragment; skips fragments already recorded in ``out_dir/manifest``.

    Returns the merged run summary (rows, valid/invalid, fragments
    processed and skipped).
    """
    import ray

    os.makedirs(os.path.join(out_dir, "violations"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "manifest"), exist_ok=True)

    done = list_done_fragments(out_dir)
    todo = [f for f in input_files if _fragment_id(f) not in done]
    skipped = len(input_files) - len(todo)
    if not todo:
        return {"fragments": 0, "skipped": skipped,
                "total_rows": 0, "valid_rows": 0, "violations": 0}

    def process(batch: pa.Table) -> pa.Table:
        out_rows = []
        for path in batch["path"].to_pylist():
            frag = _fragment_id(path)
            pf = pq.ParquetFile(path)
            total = valid = n_viol = 0
            viol_tables = []
            for rb in pf.iter_batches():
                t = pa.Table.from_batches([rb])
                # one plan evaluation: a row is valid iff it has no
                # violation row
                v, n_invalid = validate_batch(t, plan,
                                              with_invalid_count=True)
                total += t.num_rows
                valid += t.num_rows - n_invalid
                if v.num_rows:
                    viol_tables.append(v)
            viol = (pa.concat_tables(viol_tables) if viol_tables
                    else plan.violation_schema().empty_table())
            n_viol = viol.num_rows
            viol_path = os.path.join(out_dir, "violations", f"{frag}.parquet")
            pq.write_table(viol, viol_path)
            # manifest written last, atomically: its existence == done
            manifest = {
                "fragment": frag,
                "input": path,
                "rows": total,
                "valid_rows": valid,
                "violations": n_viol,
                "verdict": "pass" if valid == total else "fail",
                "output": viol_path,
            }
            fd, tmp = tempfile.mkstemp(dir=os.path.join(out_dir, "manifest"))
            with os.fdopen(fd, "w") as fh:
                json.dump(manifest, fh)
            os.replace(tmp, os.path.join(out_dir, "manifest", f"{frag}.json"))
            out_rows.append({
                "fragment": frag, "rows": total, "valid_rows": valid,
                "violations": n_viol,
            })
        return pa.Table.from_pylist(out_rows)

    items = ray.data.from_items([{"path": p} for p in todo])
    results = items.map_batches(
        process, batch_size=1, batch_format="pyarrow",
        concurrency=concurrency,
    ).take_all()

    return {
        "fragments": len(results),
        "skipped": skipped,
        "total_rows": sum(r["rows"] for r in results),
        "valid_rows": sum(r["valid_rows"] for r in results),
        "violations": sum(r["violations"] for r in results),
    }
