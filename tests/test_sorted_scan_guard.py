"""``engine/sorted_scan.py`` owns the null-safe sort: an operator
that scans a dataset in key order runs on its carry round-trip, not on
a hand-written copy of it. A call to ``null_safe_sort`` anywhere else
must be one of the not-yet-ported callers listed here, each with the
reason it still sorts by hand. The list may only shrink: a ported
caller leaves it, and a new copy of the idiom fails here."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file, top-level def or class) -> why it calls the sort itself
NOT_YET_PORTED = {
    ("json_schema_ray/engine/relational.py", "sort_merge_join"):
        "join: both sides meet in one sorted stream",
    ("json_schema_ray/engine/relational.py", "asof_join_backward_sorted"):
        "join: the as-of carry predates the module",
    ("json_schema_ray/engine/dedup.py", "exact_dedup_sorted"):
        "dedup keeps its own edge stitch",
    ("json_schema_ray/engine/validate.py", "full_validation_pass"):
        "the fused validation scan folds ordering partials itself",
    ("json_schema_ray/engine/keys.py", "_key_scan"):
        "the job's key pass folds the same ordering partials",
    ("json_schema_ray/engine/rank.py", "grouped_string_agg"):
        "edge pieces assemble through a groupby, not a carry",
    ("json_schema_ray/engine/window.py", "pack_items"):
        "edge groups re-pack through a groupby, not a carry",
    ("__ray_entry__.py", "q_part_primary_supplier"):
        "registry query sorting its own pairs",
    ("perfbench/workloads.py", "JobFlat"):
        "the benchmark times the sort itself",
}


def _sort_callers():
    files = [os.path.relpath(f, ROOT) for pattern in (
        "json_schema_ray/**/*.py", "jobs/*.py", "tools/*.py",
        "perfbench/*.py", "__ray_entry__.py", "bench.py")
        for f in glob.glob(os.path.join(ROOT, pattern), recursive=True)]
    found = set()
    for path in files:
        if path == os.path.join("json_schema_ray", "engine",
                                "sorted_scan.py"):
            continue
        with open(os.path.join(ROOT, path)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = getattr(fn, "id", None) or getattr(fn, "attr",
                                                              None)
                    if name == "null_safe_sort":
                        found.add((path.replace(os.sep, "/"),
                                   getattr(top, "name", "<module>")))
    return found


def test_null_safe_sort_called_only_by_the_module_or_listed_callers():
    found = _sort_callers()
    assert found - set(NOT_YET_PORTED) == set(), (
        "run the scan on engine/sorted_scan.py (sorted_carry / stitch)"
        " instead of sorting by hand")
    # a caller that no longer sorts leaves the list
    assert set(NOT_YET_PORTED) - found == set()
