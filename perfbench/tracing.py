"""In-memory spans around the benchmark's calls into the engine.

A span records name, start, end, parent span, workload and run id,
plus rows in and out. Spans stay in a list until the run ends and are
then written as JSONL. A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, workload: str, run_id: str, enabled: bool = True):
        self.workload = workload
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, rows_in: Optional[int] = None):
        """Yield a dict the caller may fill with ``rows_out`` or
        ``error``; with tracing off nothing is recorded."""
        rec = {"name": name, "rows_in": rows_in, "rows_out": None}
        if not self.enabled:
            yield rec
            return
        rec.update(id=len(self.spans),
                   parent=self._stack[-1] if self._stack else None,
                   workload=self.workload, run_id=self.run_id)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of spans called ``name``; with ``under``,
        only those with an ancestor span of that name."""
        return sum(s["end"] - s["start"] for s in self._named(name, under))

    def children_total(self, name: str) -> float:
        """Summed duration of the direct children of spans ``name``."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] in ids)

    def _named(self, name: str, under: Optional[str]) -> List[dict]:
        out = []
        for s in self.spans:
            if s["name"] != name or "end" not in s:
                continue
            if under is not None and not self._has_ancestor(s, under):
                continue
            out.append(s)
        return out

    def _has_ancestor(self, span: dict, name: str) -> bool:
        p = span["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def self_times(self) -> Dict[str, float]:
        """name -> summed self time (duration minus children)."""
        child: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) \
                    + s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
