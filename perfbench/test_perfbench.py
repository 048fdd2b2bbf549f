"""The benchmark's own tests: seeded inputs, metric names, tiny smoke runs.

    python3 -m pytest perfbench -q

The smoke runs start a local Ray session per workload (about two minutes
in all).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import bench, gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, workload):
    c1, q1 = bench.make_inputs(workload, 7, str(tmp_path / "a"))
    c2, q2 = bench.make_inputs(workload, 7, str(tmp_path / "b"))
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))
    assert q1.equals(q2)
    live = sorted(zip(c1["repo"].to_pylist(), c1["path"].to_pylist()))
    d1, s1, g1 = gen.maintenance_round(live, 7, 0)
    d2, s2, g2 = gen.maintenance_round(live, 7, 0)
    assert d1.equals(d2) and s1.equals(s2) and g1 == g2
    _c3, q3 = bench.make_inputs(workload, 8, str(tmp_path / "c"))
    assert not q1.equals(q3)


def test_query_log_shape_is_seed_independent():
    a = gen.query_log(50, np.random.default_rng(1))["text"].to_pylist()
    b = gen.query_log(50, np.random.default_rng(2))["text"].to_pylist()
    assert [len(t.split()) for t in a] == [len(t.split()) for t in b]
    assert [t.count("nope") for t in a] == [t.count("nope") for t in b]


def test_metric_names_and_units():
    d = _declared()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in d[kind]]
    assert len(names) == len(set(names))
    for kind in ("end_to_end", "per_layer"):
        for m in d[kind]:
            assert NAME.match(m["name"]), m["name"]
            assert UNIT.match(m["unit"]), m["unit"]
    assert {w["name"] for w in d["workloads"]} == set(bench.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in d["end_to_end"])


def test_refuses_a_bare_benchmark_directory(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every size so one workload runs in seconds."""
    monkeypatch.setenv("PYTHONPATH", ROOT)
    monkeypatch.setattr(bench, "WORKLOADS", {
        w: dict(n_src=60, n_cfg=200 if spec["n_cfg"] else 0, n_files=4)
        for w, spec in bench.WORKLOADS.items()
    })
    monkeypatch.setattr(bench, "MIX", {op: min(n, 20) for op, n in bench.MIX.items()})
    monkeypatch.setattr(bench, "BUILD_CFG", dict(n_buckets=16, salt_threshold=100, salt_target_group=50))
    monkeypatch.setattr(bench, "MINIMUMS", dict(build=2, query=40, bmw=20, batch=1, maintain=1))
    for name, value in (("LOG_QUERIES", 40), ("PROBE_QUERIES", 10), ("COLD_QUERIES", 10)):
        monkeypatch.setattr(bench, name, value)


def _smoke(workload: str, trace: bool) -> dict:
    import ray

    run = bench.Run(ROOT, workload, seed=3, seconds=0.5, trace=trace)
    try:
        run.execute()
    finally:
        run.calls.close()
        ray.shutdown()
        run.cleanup()
    return run.result(_declared())


@pytest.mark.parametrize("workload,trace", [("build", False), ("serve", False), ("serve", True)])
def test_smoke_run_is_correct(tiny, workload, trace):
    out = _smoke(workload, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == {m["name"] for m in _declared()[kind]}
    if not trace:
        assert out["metrics"]["ok_frac"]["value"] == 1.0
    else:  # the one-file update took the bucket-scoped re-encode
        assert out["metrics"]["update.partial_frac"]["value"] > 0
        assert out["metrics"]["update.small_affected_buckets"]["value"] <= 2
