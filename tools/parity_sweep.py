#!/usr/bin/env python
"""Self-serve full-registry correctness artifact (VERDICT r4 #3).

The driver samples 50 registry ops per round for CORRECTNESS_r{N}.json;
this tool replays the IDENTICAL gate (row count + schema arity +
order-insensitive multiset of row values, floats exact) over ALL registry
ops and writes a CORRECTNESS-shaped JSON so every op has driver-grade
evidence every round, not just the sampled 50.

Progress goes to ``<out>.partial`` after every op; ``<out>`` itself is
written only once every requested op has a result, so a killed run can
never leave a partial artifact under the final name.  ``--resume`` takes
either file (a missing ``<out>`` falls back to its ``.partial``).

Usage:
    python tools/parity_sweep.py --out CORRECTNESS_full_r06.json
    python tools/parity_sweep.py --out X.json --resume X.json
    python tools/parity_sweep.py --sf-dir /root/testdata/sf0.1 --only bm25_topk
    PYTHONPATH=../other-checkout python tools/parity_sweep.py --out X.json

Every op's record carries ``wall_s``, the wall of its engine call (not the
oracle's); the summary line sums them over the registry.  The package comes
from ``PYTHONPATH`` when that holds a checkout, else from this tool's own
checkout, so one copy of the tool can time two checkouts on one host.

Owns its Ray session (CLI entry point); __ray_entry__ itself never inits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(res):
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


def _canon(df) -> list[tuple]:
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


def _dump(obj: dict, path: str) -> None:
    """Write JSON atomically (temp file + rename)."""
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f, indent=2)
    os.replace(path + ".tmp", path)


def run_sweep(
    sf_dir: str,
    only: list[str] | None = None,
    rows_only: list[str] | None = None,
    skip_done: dict | None = None,
    out_path: str | None = None,
) -> dict:
    import duckdb

    # appended, so a checkout on PYTHONPATH takes precedence
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    queries = e.queries()
    sqls = e.oracle_sql()
    names = sorted(queries) if not only else [n for n in sorted(queries) if n in only]
    rows_only = set(rows_only or ())
    out: dict[str, dict] = {}
    t0 = time.time()
    for i, name in enumerate(names):
        if skip_done and name in skip_done and skip_done[name].get("hash_match"):
            out[name] = skip_done[name]
            print(f"[{i + 1}/{len(names)}] {name}: resumed", file=sys.stderr, flush=True)
            continue
        rec = {
            "rows_match": False, "schema_match": False, "hash_match": False,
            "spark_rows": None, "oracle_rows": None, "err": None, "wall_s": None,
        }
        try:
            t_op = time.perf_counter()
            try:
                got = _to_pandas(queries[name](sf_dir))
            finally:
                rec["wall_s"] = round(time.perf_counter() - t_op, 3)
            rec["spark_rows"] = int(len(got))
            if name in rows_only:
                # engine-only stress row: the SQL twin is super-linear
                # (O(n^2) self-join / recursive CTE) and infeasible at this
                # scale; full parity for this op holds at the smaller sfs
                rec.update(rows_match=True, schema_match=True, hash_match=True,
                           err="no_oracle(rows_only@stress)")
            elif name not in sqls:
                # rows-only check — same weaker gate the driver records
                rec.update(rows_match=True, schema_match=True, hash_match=True,
                           err="no_oracle(rows_only)")
            else:
                exp = con.execute(sqls[name]).fetchdf()
                rec["oracle_rows"] = int(len(exp))
                rec["rows_match"] = len(got) == len(exp)
                rec["schema_match"] = sorted(map(str.lower, got.columns)) == sorted(
                    map(str.lower, exp.columns)
                )
                if rec["rows_match"] and rec["schema_match"]:
                    g, x = _canon(got), _canon(exp)
                    rec["hash_match"] = all(a == b for a, b in zip(g, x))
        except Exception:
            rec["err"] = traceback.format_exc(limit=3).splitlines()[-1][:300]
        out[name] = rec
        status = "ok" if rec["hash_match"] else ("ERR" if rec["err"] else "MISMATCH")
        print(f"[{i + 1}/{len(names)}] {name}: {status}", file=sys.stderr, flush=True)
        if out_path:
            # incremental progress: a killed/hung run keeps it in the
            # .partial file, which --resume accepts
            _dump(out, out_path + ".partial")
    ok = sum(1 for r in out.values() if r["hash_match"] and not r["err"])
    walls = sum(r.get("wall_s") or 0.0 for r in out.values())
    print(
        f"sweep: {ok}/{len(names)} green in {time.time() - t0:.0f}s, "
        f"registry wall {walls:.1f}s (sf_dir={sf_dir})",
        file=sys.stderr,
    )
    if out_path and len(out) == len(names):  # every requested op has a result
        _dump(out, out_path)
        os.remove(out_path + ".partial")
        print(f"wrote {out_path}", file=sys.stderr)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--out", default=None, help="output JSON path")
    ap.add_argument("--only", nargs="*", default=None)
    ap.add_argument(
        "--rows-only", nargs="*", default=None,
        help="ops to run engine-only (oracle infeasible at stress scale)",
    )
    ap.add_argument(
        "--resume", default=None,
        help="previous output JSON or its .partial; green ops in it are "
        "carried over, not re-run",
    )
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", 16)))
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus,
            include_dashboard=False, logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    prev = None
    if args.resume:
        for path in (args.resume, args.resume + ".partial"):
            if os.path.exists(path):
                with open(path) as f:
                    prev = json.load(f)
                break
    res = run_sweep(args.sf_dir, args.only, args.rows_only, prev, args.out)
    if not args.out:
        json.dump(res, sys.stdout, indent=2)
    ray.shutdown()
    bad = [n for n, r in res.items() if not (r["hash_match"] and not r["err"])
           and not (r["err"] or "").startswith("no_oracle")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
