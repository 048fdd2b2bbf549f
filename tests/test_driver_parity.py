"""Mimics the driver's correctness gate: run every queries()[name] and the
matching oracle_sql()[name] in DuckDB on the same parquet tables; compare
row count, schema arity and the order-insensitive multiset of row values
(floats compared EXACTLY — outputs are designed to be bit-deterministic;
see ops.py float-safety policy)."""

from __future__ import annotations

import math
import os

import duckdb
import pandas as pd
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        df = res.to_pandas()
        if df.shape[1] == 0:
            # Ray 2.49 to_pandas drops columns on 0-row datasets; the
            # dataset itself still carries the schema
            sch = res.schema()
            if sch is not None:
                df = pa.schema(
                    list(zip(sch.names, sch.types))
                ).empty_table().to_pandas()
        return df
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> list[tuple]:
    df = df[sorted(df.columns)]
    rows = []
    for tup in df.itertuples(index=False, name=None):
        canon = []
        for v in tup:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                canon.append(("null",))  # NULL == NULL, never == a number
            elif isinstance(v, float):
                canon.append(("f", v))
            elif hasattr(v, "to_pydatetime"):
                canon.append(("t", v.to_pydatetime()))
            else:
                canon.append(("v", v))
        rows.append(tuple(canon))
    return sorted(rows, key=repr)


@pytest.fixture(scope="module")
def con(sf_dir_001=None):
    sf = os.environ.get("GRAFT_PARITY_SF_DIR", "/root/testdata/sf0.01")
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    return sf, c


def _query_names():
    import __ray_entry__ as e

    return sorted(e.queries().keys())


@pytest.mark.parametrize("name", _query_names())
def test_parity(ray_session, con, name):
    import __ray_entry__ as e

    sf, c = con
    q = e.queries()[name]
    sqls = e.oracle_sql()
    got = _to_pandas(q(sf))
    assert got is not None
    if name not in sqls:
        assert len(got) >= 0  # rows-only check (driver does the same)
        return
    exp = c.execute(sqls[name]).fetchdf()
    assert len(got) == len(exp), f"{name}: rows {len(got)} != {len(exp)}"
    assert sorted(map(str.lower, got.columns)) == sorted(map(str.lower, exp.columns)), (
        f"{name}: columns {sorted(got.columns)} vs {sorted(exp.columns)}"
    )
    exp = exp.rename(columns={c_: c_ for c_ in exp.columns})
    g, x = _canon(got), _canon(exp)
    n_bad = sum(1 for a, b in zip(g, x) if a != b)
    assert n_bad == 0, f"{name}: {n_bad} mismatched rows; first: " + str(
        next(((a, b) for a, b in zip(g, x) if a != b), None)
    )
