"""Env-gated all-queries oracle sweep — the sampling-rot gate
(COVERAGE.md): the driver samples ~50 of the queries() entries per
round, so this sweep is the only thing standing between an unsampled
query and a silent regression. Run once per round:

    RUN_ORACLE_SWEEP=1 python -m pytest tests/test_oracle_sweep.py -q

and commit the tally to tools/oracle_sweep_r{N}.log / COVERAGE.md.
Skipped by default (~15 min of Ray + DuckDB work).
"""

import os
import subprocess
import sys

import pytest


@pytest.mark.skipif(not os.environ.get("RUN_ORACLE_SWEEP"),
                    reason="set RUN_ORACLE_SWEEP=1 (costs ~15 min)")
def test_all_queries_match_their_oracles():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(repo, "tools", "check_oracle.py"),
         "/root/testdata/sf0.01"],
        capture_output=True, text=True, cwd=repo, timeout=3600)
    tail = "\n".join(out.stdout.strip().splitlines()[-5:])
    assert out.returncode == 0, f"oracle sweep failed:\n{tail}"
    assert ", 0 fail" in out.stdout, tail


def test_sweep_sizes_ray_to_the_host(monkeypatch):
    """The sweep starts Ray with the CPUs of its affinity mask, capped
    by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT``, never a fixed count
    that starts more workers than the host runs; a small host still
    gets the few logical CPUs an actor-pool query needs."""
    import importlib.util

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(repo, "tools", "check_oracle.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(16)))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        monkeypatch.delenv(var, raising=False)
    assert mod.ray_cpus() == 16
    monkeypatch.setenv("OMP_NUM_THREADS", "12")
    assert mod.ray_cpus() == 12
    monkeypatch.setenv("OMP_THREAD_LIMIT", "10")
    assert mod.ray_cpus() == 10
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert mod.ray_cpus() == mod.MIN_CPUS
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.delenv("OMP_THREAD_LIMIT")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert mod.ray_cpus() == mod.MIN_CPUS
