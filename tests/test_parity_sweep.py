"""tools/parity_sweep.py writes its final artifact only once every requested
op has a result: a killed run leaves ``<out>.partial`` (never a partial
file under the final name), and resuming from it completes the artifact."""

from __future__ import annotations

import importlib.util
import json
import os

import pandas as pd
import pytest

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "parity_sweep.py",
)


def _sweep():
    spec = importlib.util.spec_from_file_location("parity_sweep", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ok(_sf_dir):
    return pd.DataFrame({"x": [1]})


def _killed(_sf_dir):
    raise KeyboardInterrupt  # what a killed run looks like mid-op


def _not_rerun(_sf_dir):
    raise AssertionError("a resumed green op must not run again")


def test_killed_sweep_leaves_only_partial_then_resumes(
    tmp_path, monkeypatch, sf_dir
):
    import __ray_entry__ as e

    sweep = _sweep()
    monkeypatch.setattr(e, "oracle_sql", lambda: {})
    monkeypatch.setattr(e, "queries", lambda: {"a_op": _ok, "b_op": _killed})
    out = str(tmp_path / "CORRECTNESS.json")
    with pytest.raises(KeyboardInterrupt):
        sweep.run_sweep(sf_dir, out_path=out)
    assert not os.path.exists(out)
    with open(out + ".partial") as f:
        prev = json.load(f)
    assert list(prev) == ["a_op"]

    monkeypatch.setattr(e, "queries", lambda: {"a_op": _not_rerun, "b_op": _ok})
    res = sweep.run_sweep(sf_dir, skip_done=prev, out_path=out)
    assert sorted(res) == ["a_op", "b_op"]
    with open(out) as f:
        assert json.load(f) == res
    assert not os.path.exists(out + ".partial")
