"""``engine/validate.py`` sizes its scan tasks in one place: every
``map_batches`` call there goes through ``_scan``, which sets
``batch_size`` to ``_task_rows(ds)``. A scan that called
``map_batches`` itself would run one task per reader block again. The stages listed
here are the exceptions, each with its reason.

The validation surfaces share one partial and one ordering fold: in
the program (perfbench, which times kernels one by one, aside)
``validate_batch(..., with_invalid_count=True)`` is called only by
``validate.ValidationPartial`` and ``stitch_edge_partials`` only by
``keys.ordering_fold``. A second caller is a copy of the fold."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "json_schema_ray", "engine", "validate.py")
PROGRAM = ("json_schema_ray/**/*.py", "jobs/*.py", "tools/*.py",
           "__ray_entry__.py", "bench.py")

# top-level def or class -> why it calls map_batches itself
EXCEPTIONS = {
    "validate_by_registry":
        "actor pool: each actor compiles every family's plan once, so "
        "its batches are sized by the pool, not bundled per task",
}


def _map_batches_callers():
    with open(PATH) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) == "map_batches":
                found.setdefault(getattr(top, "name", "<module>"),
                                 []).append(node)
    return found


def test_validation_scans_map_only_through_the_helper():
    found = _map_batches_callers()
    assert set(found) - {"_scan"} - set(EXCEPTIONS) == set(), (
        "run the scan through validate._scan instead of calling "
        "map_batches")
    # an exception that no longer calls map_batches leaves the list
    assert set(EXCEPTIONS) - set(found) == set()
    (call,) = found["_scan"]
    kw = {k.arg: k.value for k in call.keywords}
    size = kw.get("batch_size")
    assert isinstance(size, ast.Call) and \
        getattr(size.func, "id", None) == "_task_rows"


def _callers(name: str, keyword=None):
    """(file, top-level def or class) of every call to ``name`` in the
    program, passing ``keyword`` when given."""
    found = []
    for pattern in PROGRAM:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern),
                                     recursive=True)):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for top in tree.body:
                for node in ast.walk(top):
                    if not isinstance(node, ast.Call):
                        continue
                    fn = node.func
                    if (getattr(fn, "id", None) or getattr(
                            fn, "attr", None)) != name:
                        continue
                    if keyword and keyword not in {
                            k.arg for k in node.keywords}:
                        continue
                    found.append((os.path.relpath(path, ROOT).replace(
                        os.sep, "/"), getattr(top, "name", "<module>")))
    return found


def test_one_validation_partial_and_one_ordering_fold():
    assert _callers("validate_batch", "with_invalid_count") == [
        ("json_schema_ray/engine/validate.py", "ValidationPartial")]
    assert _callers("stitch_edge_partials") == [
        ("json_schema_ray/engine/keys.py", "ordering_fold")]
