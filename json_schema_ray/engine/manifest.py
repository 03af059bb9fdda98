"""Resumable, checkpointed validation runs.

The resumable unit is the input Parquet fragment (file). A run writes,
per fragment, a violations parquet under ``out/violations/`` and then,
atomically renamed into place, a manifest JSON under ``out/manifest/``
whose existence means the fragment is done. A manifest holds:

- ``fragment``, ``output``: the fragment's name and its violations
  file;
- ``identity``: the input's ``path``, ``size``, ``mtime_ns`` and
  footer ``rows`` when it was read;
- ``fingerprint``: the plan fingerprint (:func:`plan_fingerprint`);
- the fragment's :class:`.validate.ValidationPartial`
  (``ValidationPartial.to_manifest``): ``rows``, ``valid_rows``,
  ``violations``, ``violations_by_type``, ``verdict`` and one
  mergeable stats partial per input column;
- ``profile`` (only with a reference profile): the fragment's own
  ``ReferenceProfile`` JSON over the reference's columns: categorical
  counts, exact length histograms and t-digests.

So the fragment's task is the only full-width scan a run needs: a
summary merges the manifests' partials (:func:`fold_manifests`), and a
finished fragment never has to be read again.

A re-submitted run checks the manifests first (:func:`done_manifests`)
and skips finished fragments, so a killed job resumes mid-scan without
duplicating violation rows (deterministic per-fragment output names
make retries idempotent). It refuses, with :class:`ResumeMismatch`,
to mix outputs: a manifest written under another plan fingerprint, a
recorded fragment whose identity changed, or one no longer among the
inputs.

``out/keys.json`` records the job's key pass (``keys.key_checks``)
the same way, with the fingerprint and the identities of the
fragments it read (:func:`key_record`, :func:`write_key_record`).

The fragment stage is a Ray Data pipeline over a dataset of *work
items* (fragment paths) flowing through ``map_batches`` tasks:
streaming, backpressured, and embarrassingly parallel. Fragment
contents are read batch-at-a-time inside the task, so memory per task
stays bounded regardless of fragment size.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from .table_validator import TablePlan
from .validate import ValidationPartial


class ResumeMismatch(ValueError):
    """The output directory holds results this run must not mix with
    its own: another plan, or input fragments that changed or left."""


def _fragment_id(path: str) -> str:
    base = os.path.basename(path)
    return base.replace(".parquet", "")


def fragment_identity(path: str) -> dict:
    st = os.stat(path)
    return {"path": path, "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "rows": pq.read_metadata(path).num_rows}


@functools.lru_cache(maxsize=1)
def _engine_version() -> str:
    """Hash of the package's Python sources: any change to the code
    that validates is a new engine version."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _schema_documents(schema) -> List[str]:
    """The root document and every document a ``$ref`` resolved to
    (an expanded ``$ref`` node carries its target's data), as
    canonical JSON: what the expanded schema is made of."""
    from ..expander import ReferenceExpander

    children = ReferenceExpander()._schema_children
    docs = {json.dumps(schema.data, sort_keys=True, default=str)}
    seen, stack = set(), [schema]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.reference is not None:
            docs.add(json.dumps(node.data, sort_keys=True, default=str))
        stack.extend(children(node))
    return sorted(docs)


def plan_fingerprint(plan: TablePlan, profile=None) -> str:
    """Hash of what a run's results depend on besides its input: the
    expanded schema, the key columns, the profile's column lists and
    the engine version."""
    blob = json.dumps({
        "schema": _schema_documents(plan.schema),
        "keys": plan.key_columns,
        "profile": None if profile is None else {
            kind: sorted(getattr(profile, kind))
            for kind in ("histograms", "digests", "length_hists")},
        "engine": _engine_version(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def list_done_fragments(out_dir: str) -> set:
    mdir = os.path.join(out_dir, "manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            done.add(f[:-len(".json")])
    return done


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_json_atomic(path: str, obj) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def _identity_problem(recorded: dict, path: str) -> Optional[str]:
    now = fragment_identity(path)
    changed = [k for k in ("path", "size", "mtime_ns", "rows")
               if recorded.get(k) != now[k]]
    if not changed:
        return None
    detail = ", ".join(f"{k} {recorded.get(k)} -> {now[k]}"
                       for k in changed)
    return f"{', '.join(changed)} changed since it was recorded ({detail})"


def done_manifests(out_dir: str, input_files: List[str],
                   fingerprint: str) -> Dict[str, dict]:
    """fragment -> manifest of the finished fragments in ``out_dir``.

    Raises :class:`ResumeMismatch` naming the fragment and what
    differs when a manifest was written under another plan
    fingerprint, its fragment is no longer among ``input_files``, or
    the fragment's size, mtime or footer row count changed."""
    by_id = {_fragment_id(f): f for f in input_files}
    out = {}
    for frag in sorted(list_done_fragments(out_dir)):
        m = _read_json(os.path.join(out_dir, "manifest", f"{frag}.json"))
        if m.get("fingerprint") != fingerprint:
            raise ResumeMismatch(
                f"fragment {frag}: plan fingerprint differs from the "
                "recorded run (another schema, key columns, profile "
                "columns or engine version)")
        if frag not in by_id:
            raise ResumeMismatch(
                f"fragment {frag}: recorded but no longer in the input")
        problem = _identity_problem(m["identity"], by_id[frag])
        if problem:
            raise ResumeMismatch(f"fragment {frag}: {problem}")
        out[frag] = m
    return out


def run_resumable_validation(
    input_files: List[str],
    out_dir: str,
    plan: TablePlan,
    concurrency: Optional[int] = None,
    profile=None,
) -> dict:
    """Validate each input fragment, writing violations + manifest per
    fragment; skips fragments already recorded in ``out_dir/manifest``
    and raises :class:`ResumeMismatch` when a recorded one no longer
    matches (see :func:`done_manifests`). ``profile``, a
    ``drift.ReferenceProfile``, adds a profile of the fragment over
    its columns to each manifest.

    Returns the merged summary of the fragments this call processed
    (rows, valid rows, violations, fragments processed and skipped).
    """
    fingerprint = plan_fingerprint(plan, profile)
    done = done_manifests(out_dir, input_files, fingerprint)
    todo = [f for f in input_files if _fragment_id(f) not in done]
    skipped = len(input_files) - len(todo)
    if not todo:
        return {"fragments": 0, "skipped": skipped,
                "total_rows": 0, "valid_rows": 0, "violations": 0}

    import ray

    os.makedirs(os.path.join(out_dir, "violations"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "manifest"), exist_ok=True)

    def validate_fragment(path: str) -> dict:
        frag = _fragment_id(path)
        identity = fragment_identity(path)
        part = ValidationPartial()
        viol_tables = []
        seen = None  # the fragment's profile
        for rb in pq.ParquetFile(path).iter_batches():
            t = pa.Table.from_batches([rb])
            v = part.add(t, plan)
            if v.num_rows:
                viol_tables.append(v)
            if profile is not None:
                p = profile.profile_batch(t)
                seen = p if seen is None else seen.merge(p)
        viol = (pa.concat_tables(viol_tables) if viol_tables
                else plan.violation_schema().empty_table())
        viol_path = os.path.join(out_dir, "violations", f"{frag}.parquet")
        pq.write_table(viol, viol_path)
        manifest = {"fragment": frag, "identity": identity,
                    "fingerprint": fingerprint, "output": viol_path,
                    **part.to_manifest()}
        if profile is not None:
            if seen is None:  # a fragment without rows
                seen = profile.profile_batch(
                    pq.read_schema(path).empty_table())
            manifest["profile"] = json.loads(seen.to_json())
        # manifest written last, atomically: its existence == done
        _write_json_atomic(
            os.path.join(out_dir, "manifest", f"{frag}.json"), manifest)
        return manifest

    def process(batch: pa.Table) -> pa.Table:
        out_rows = []
        for path in batch["path"].to_pylist():
            m = validate_fragment(path)
            out_rows.append({k: m[k] for k in
                             ("fragment", "rows", "valid_rows",
                              "violations")})
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


def fold_manifests(manifests: List[dict], profile=None) -> dict:
    """Driver fold of fragment manifests, in the order given: the
    merged :class:`.validate.ValidationPartial` summary (verdict
    counters, violations by error type, the per-column stats table)
    and, with ``profile``, the drift report against the folded
    fragment profiles."""
    total = ValidationPartial()
    seen = None
    for m in manifests:
        total.merge(ValidationPartial.from_manifest(m))
        if profile is not None:
            p = profile.from_json(json.dumps(m["profile"]))
            seen = p if seen is None else seen.merge(p)
    out = total.summary()
    if profile is not None:
        out["drift"] = profile.report(seen)
    return out


def key_record(out_dir: str, fingerprint: str,
               identities: List[dict]) -> Optional[dict]:
    """The key pass result recorded in ``out_dir/keys.json``, if it
    was made under ``fingerprint`` from exactly ``identities``."""
    path = os.path.join(out_dir, "keys.json")
    if not os.path.exists(path):
        return None
    rec = _read_json(path)
    if rec["fingerprint"] != fingerprint or rec["fragments"] != identities:
        return None
    return rec["result"]


def write_key_record(out_dir: str, fingerprint: str,
                     identities: List[dict], result: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json_atomic(os.path.join(out_dir, "keys.json"), {
        "fingerprint": fingerprint, "fragments": identities,
        "result": result})
