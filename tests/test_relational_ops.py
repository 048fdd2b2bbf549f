"""Relational extension ops (ops_relational.py): pii_scrub redaction
semantics, the as-of join merge kernel's edge cases, exact grouped
quantiles, and the wide pivot.  Parity vs the DuckDB oracles is covered
generically by test_driver_parity; these tests pin the hand-checkable
edge cases the oracle comparison can't isolate."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def test_pii_scrub_kernel(ray_session):
    from sharesci_ray.pipelines.ops_relational import pii_scrub

    df = pii_scrub(SF).to_pandas()
    assert (df["n_redacted"] >= 1).all()  # every props row has {"k": N}
    assert df["props_clean"].str.contains("<NUM>").all()
    assert not df["props_clean"].str.contains(r"\d", regex=True).any()


def test_asof_join_edges(ray_session):
    """Hand-built group: purchase before any view drops out; equal-ts view
    matches (>= semantics); tie on (user, ts) resolves to max cents."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from sharesci_ray.pipelines import ops_relational as R

    us = pa.timestamp("us")
    rows = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 10, 11, 12, 13], pa.int64()),
            "user_id": pa.array([7] * 7, pa.int64()),
            "ts": pa.array([100, 250, 300, 50, 200, 300, 300], pa.int64()).cast(us),
            "event_type": pa.array(
                ["purchase", "purchase", "purchase", "view", "view", "view", "view"]
            ),
            "value": pa.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0], pa.float64()),
        }
    )
    d = tempfile.mkdtemp(prefix="asof_edge_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))
    res = R.asof_join_events(d).to_pandas().sort_values("event_id").reset_index(drop=True)
    # purchase@100: latest view <=100 is ts=50 (cents 100)
    # purchase@250: latest view <=250 is ts=200 (cents 200)
    # purchase@300: equal-ts views at 300 -> max cents 400
    assert list(res["event_id"]) == [1, 2, 3]
    assert list(res["view_cents"]) == [100, 200, 400]
    assert list(res["view_ts"].astype("datetime64[us]").astype("int64")) == [50, 200, 300]


def test_asof_no_prior_view_drops(ray_session):
    import os
    import tempfile

    import pyarrow.parquet as pq

    from sharesci_ray.pipelines import ops_relational as R

    us = pa.timestamp("us")
    rows = pa.table(
        {
            "event_id": pa.array([1, 2], pa.int64()),
            "user_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array([100, 100], pa.int64()).cast(us),
            "event_type": pa.array(["purchase", "view"]),
            "value": pa.array([1.0, 2.0], pa.float64()),
        }
    )
    d = tempfile.mkdtemp(prefix="asof_none_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))
    # user 1 has no view at all; user 2 has no purchase — empty result
    assert R.asof_join_events(d).count() == 0


def test_grouped_quantiles_formula(ray_session):
    from sharesci_ray.pipelines.ops_relational import grouped_quantiles

    df = grouped_quantiles(SF).to_pandas().set_index("event_type")
    con = duckdb.connect()
    con.execute("SET threads=1")
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    truth = con.execute(
        """
        SELECT event_type, list(cents ORDER BY cents) AS xs
        FROM (SELECT event_type, CAST(round(value*100) AS BIGINT) AS cents FROM events)
        GROUP BY event_type
        """
    ).fetchall()
    for et, xs in truth:
        xs = np.array(sorted(xs))
        n = xs.size
        assert df.loc[et, "n"] == n
        for col, q in (("p50_cents", 0.5), ("p90_cents", 0.9), ("p99_cents", 0.99)):
            assert df.loc[et, col] == xs[int(np.floor((n - 1) * q))]


def test_pivot_counts_sum_to_total(ray_session):
    from sharesci_ray.pipelines.ops_relational import pivot_event_counts
    from sharesci_ray.sources.corpus import read_table

    df = pivot_event_counts(SF).to_pandas()
    total = int(df[[c for c in df.columns if c.startswith("n_")]].sum().sum())
    assert total == read_table(SF, "events", columns=["event_id"]).count()


def test_top_parts_per_brand_vs_window(ray_session):
    """Partial-topk + final merge ≡ the SQL window (brute force in DuckDB
    at a second scale factor, sf0.001, so parity isn't only checked at the
    driver's sf0.01)."""
    from sharesci_ray.pipelines.ops_relational import top_parts_per_brand

    got = (
        top_parts_per_brand(SF)
        .to_pandas()
        .sort_values(["p_brand", "rank"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""
        SELECT p_brand, rank, p_partkey, price_cents FROM (
          SELECT p_brand, p_partkey,
                 CAST(round(p_retailprice * 100) AS BIGINT) AS price_cents,
                 row_number() OVER (
                   PARTITION BY p_brand
                   ORDER BY CAST(round(p_retailprice * 100) AS BIGINT) DESC,
                            p_partkey
                 ) AS rank
          FROM read_parquet('{SF}/part.parquet')
        ) WHERE rank <= 3 ORDER BY p_brand, rank
        """
    ).df().reset_index(drop=True)
    assert got.equals(exp[got.columns.tolist()])
    # every brand contributes, ranks are 1..k, prices non-increasing per brand
    assert (got.groupby("p_brand")["rank"].min() == 1).all()
    assert (got.groupby("p_brand")["price_cents"].diff().dropna() <= 0).all()


def test_topk_partial_kernel_random():
    """The per-batch partial keeps enough rows that ANY split of the input
    into batches merges to the true top-k (the partial+final invariant)."""
    from sharesci_ray.pipelines import ops_relational as R

    rng = np.random.default_rng(7)
    n = 500
    brands = rng.integers(0, 8, n)
    keys = rng.permutation(n).astype(np.int64)
    cents = rng.integers(0, 50, n).astype(np.int64)  # many ties
    # brute-force top-3 per brand: (cents desc, key asc)
    truth = {}
    for b in range(8):
        idx = np.flatnonzero(brands == b)
        order = idx[np.lexsort((keys[idx], -cents[idx]))][:3]
        truth[b] = [(int(cents[i]), int(keys[i])) for i in order]
    # simulate: split into 7 uneven batches, run `partial` logic inline,
    # concat, then `final` per brand
    tbl = pa.table(
        {
            "p_brand": pa.array([f"B{b}" for b in brands]),
            "p_partkey": pa.array(keys, pa.int64()),
            "p_retailprice": pa.array(cents / 100.0, pa.float64()),
        }
    )
    cuts = sorted(rng.integers(1, n, 6).tolist())
    pieces = []
    lo = 0
    for hi in cuts + [n]:
        pieces.append(tbl.slice(lo, hi - lo))
        lo = hi
    partials = pa.concat_tables([R.topk_partial(p) for p in pieces])
    for b in range(8):
        g = partials.filter(pa.compute.equal(partials["p_brand"], f"B{b}"))
        out = R.topk_final(g)
        got = [
            (int(out["price_cents"][i].as_py()), int(out["p_partkey"][i].as_py()))
            for i in range(out.num_rows)
        ]
        assert got == truth[b], f"brand {b}"


def test_revenue_by_nation_exact(ray_session):
    """Q5-shape pipeline at sf0.001 vs DuckDB (second scale factor), plus
    the integer-e4 exactness invariant: engine sum == oracle sum bit-for-bit."""
    from sharesci_ray.pipelines.ops_relational import revenue_by_nation

    got = revenue_by_nation(SF).to_pandas().sort_values("n_name").reset_index(drop=True)
    exp = duckdb.sql(
        f"""
        SELECT n.n_name,
               sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
                 AS rev_e4
        FROM read_parquet('{SF}/lineitem.parquet') l
        JOIN read_parquet('{SF}/orders.parquet') o ON l.l_orderkey = o.o_orderkey
        JOIN read_parquet('{SF}/customer.parquet') c ON o.o_custkey = c.c_custkey
        JOIN read_parquet('{SF}/supplier.parquet') s
          ON l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey
        JOIN read_parquet('{SF}/nation.parquet') n ON s.s_nationkey = n.n_nationkey
        JOIN read_parquet('{SF}/region.parquet') r ON n.n_regionkey = r.r_regionkey
        WHERE r.r_name = 'ASIA' GROUP BY n.n_name ORDER BY n_name
        """
    ).df().reset_index(drop=True)
    assert got[["n_name", "rev_e4"]].equals(exp)


def test_order_priority_counts_semi_join(ray_session):
    """EXISTS-semi-join: per-priority totals and the no-fanout invariant
    (Σ n_orders == count of DISTINCT qualifying orders, never more)."""
    from sharesci_ray.pipelines.ops_relational import order_priority_counts

    got = order_priority_counts(SF).to_pandas()
    n_qual = duckdb.sql(
        f"""
        SELECT count(DISTINCT o.o_orderkey) FROM
        read_parquet('{SF}/orders.parquet') o
        JOIN read_parquet('{SF}/lineitem.parquet') l
          ON l.l_orderkey = o.o_orderkey
        WHERE l.l_returnflag = 'R'
        """
    ).fetchone()[0]
    assert int(got["n_orders"].sum()) == int(n_qual)


def test_latest_event_per_user_partial_invariant(ray_session):
    """Keep-latest dedup: one row per user, and it IS the (ts, event_id)
    argmax — checked against DuckDB at sf0.001 plus the per-user
    uniqueness invariant."""
    from sharesci_ray.pipelines.ops_relational import latest_event_per_user

    got = latest_event_per_user(SF).to_pandas()
    assert got["user_id"].is_unique
    exp = duckdb.sql(
        f"""
        SELECT user_id, event_id FROM (
          SELECT user_id, event_id, row_number() OVER (
            PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
          FROM read_parquet('{SF}/events.parquet')
        ) WHERE rn = 1
        """
    ).df()
    g = got.sort_values("user_id").reset_index(drop=True)
    x = exp.sort_values("user_id").reset_index(drop=True)
    assert g["event_id"].tolist() == x["event_id"].tolist()


def test_rollup_levels_consistent(ray_session):
    """ROLLUP invariants: fine level sums to each type level, type levels
    sum to the grand total, sentinels are 'ALL'/-1."""
    from sharesci_ray.pipelines.ops_relational import rollup_event_counts

    t = rollup_event_counts(SF).to_pandas()
    fine = t[(t.event_type != "ALL") & (t.hour != -1)]
    types = t[(t.event_type != "ALL") & (t.hour == -1)]
    total = t[t.event_type == "ALL"]
    assert len(total) == 1 and total.iloc[0]["hour"] == -1
    assert int(total.iloc[0]["n"]) == int(fine["n"].sum()) == int(types["n"].sum())
    per_type = fine.groupby("event_type")["n"].sum()
    for _, r in types.iterrows():
        assert int(r["n"]) == int(per_type[r["event_type"]])


def test_above_avg_orders_invariants(ray_session):
    """Every emitted order is strictly above its customer's mean in exact
    integer arithmetic; customers with a single order never appear (their
    only order equals the mean)."""
    from sharesci_ray.pipelines.ops_relational import above_avg_orders

    got = above_avg_orders(SF).to_pandas()
    orders = duckdb.sql(
        f"""SELECT o_custkey, CAST(round(o_totalprice*100) AS BIGINT) AS c
            FROM read_parquet('{SF}/orders.parquet')"""
    ).df()
    sums = orders.groupby("o_custkey")["c"].agg(["sum", "count"])
    for _, r in got.iterrows():
        s, n = sums.loc[r["o_custkey"]]
        assert int(r["price_cents"]) * int(n) > int(s)
    singles = set(sums[sums["count"] == 1].index)
    assert not (set(got["o_custkey"]) & singles)


def test_rich_inactive_customers_anti(ray_session):
    """Emitted customers have above-average balances AND no urgent orders;
    engine ≡ brute-force at sf0.001."""
    from sharesci_ray.pipelines.ops_relational import rich_inactive_customers

    got = set(rich_inactive_customers(SF).to_pandas()["c_custkey"])
    exp = set(
        duckdb.sql(
            f"""
        SELECT c_custkey FROM read_parquet('{SF}/customer.parquet') c
        WHERE CAST(round(c_acctbal*100) AS BIGINT)
                * (SELECT count(*) FROM read_parquet('{SF}/customer.parquet'))
              > (SELECT sum(CAST(round(c_acctbal*100) AS BIGINT))
                 FROM read_parquet('{SF}/customer.parquet'))
          AND NOT EXISTS (SELECT 1 FROM read_parquet('{SF}/orders.parquet') o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderpriority = '1-URGENT')
        """
        ).df()["c_custkey"]
    )
    assert got == exp


def test_promo_share_identity(ray_session):
    """promo ≤ total, and the share is exactly the one-division quotient of
    the two integer sums (bit-deterministic by construction)."""
    from sharesci_ray.pipelines.ops_relational import promo_revenue_share

    got = promo_revenue_share(SF).to_pandas()
    assert len(got) == 1
    promo, total = int(got["promo_rev_e4"][0]), int(got["total_rev_e4"][0])
    assert 0 <= promo <= total
    if total:
        assert got["promo_share_pct"][0] == 100.0 * promo / total


def test_large_volume_orders_threshold(ray_session):
    """Every emitted order's line-quantity sum really exceeds the threshold,
    the name lookup attached the right customer, and the top-100 is sorted
    by (totalprice desc, orderkey asc)."""
    from sharesci_ray.pipelines.ops_relational import (
        _Q18_QTY,
        large_volume_orders,
    )

    got = large_volume_orders(SF).to_pandas()
    qty = duckdb.sql(
        f"""SELECT l_orderkey, sum(CAST(l_quantity AS BIGINT)) AS q
            FROM read_parquet('{SF}/lineitem.parquet') GROUP BY 1"""
    ).df().set_index("l_orderkey")["q"]
    names = duckdb.sql(
        f"""SELECT c_custkey, c_name
            FROM read_parquet('{SF}/customer.parquet')"""
    ).df().set_index("c_custkey")["c_name"]
    assert len(got) <= 100
    for _, r in got.iterrows():
        assert int(r["sum_qty"]) == int(qty.loc[r["o_orderkey"]]) > _Q18_QTY
        assert r["c_name"] == names.loc[r["o_custkey"]]
    keys = list(zip(-got["totalprice_cents"], got["o_orderkey"]))
    assert keys == sorted(keys)


def test_disjunctive_revenue_clauses(ray_session):
    """Engine total equals the sum of the three single-clause runs computed
    independently in DuckDB (the clauses are brand-disjoint, so no row can
    satisfy two of them)."""
    from sharesci_ray.pipelines.ops_relational import (
        _Q19_CLAUSES,
        disjunctive_revenue,
    )

    got = disjunctive_revenue(SF).to_pandas()
    total_rev = total_n = 0
    for b, slo, shi, qlo, qhi in _Q19_CLAUSES:
        row = duckdb.sql(
            f"""
            SELECT coalesce(sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount*100) AS BIGINT))), 0) AS r,
                   count(*) AS n
            FROM read_parquet('{SF}/lineitem.parquet') l
            JOIN read_parquet('{SF}/part.parquet') p
              ON p.p_partkey = l.l_partkey
            WHERE p.p_brand = '{b}' AND p.p_size BETWEEN {slo} AND {shi}
              AND l.l_quantity BETWEEN {qlo} AND {qhi}
            """
        ).fetchall()[0]
        total_rev += int(row[0])
        total_n += int(row[1])
    rev = got["rev_e4"][0]
    # SQL's sum over no qualifying item is NULL (NaN in pandas), not 0
    assert (None if np.isnan(rev) else int(rev)) == (total_rev if total_n else None)
    assert int(got["n_items"][0]) == total_n


def test_customer_order_distribution_mass(ray_session):
    """The histogram's mass checks out: Σ n_custs = |customer| (every
    customer lands in exactly one bucket) and Σ c_count·n_custs = |orders|
    (every order is counted once)."""
    from sharesci_ray.pipelines.ops_relational import (
        customer_order_distribution,
    )

    got = customer_order_distribution(SF).to_pandas()
    n_cust = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/customer.parquet')"
    ).fetchall()[0][0]
    n_orders = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchall()[0][0]
    assert int(got["n_custs"].sum()) == n_cust
    assert int((got["c_count"] * got["n_custs"]).sum()) == n_orders


def test_top_supplier_revenue_is_argmax(ray_session):
    """Winners carry exactly the max per-supplier window revenue computed
    independently, and every tied supplier is present."""
    from sharesci_ray.pipelines.ops_relational import (
        _Q15_HI,
        _Q15_LO,
        top_supplier_revenue,
    )

    got = top_supplier_revenue(SF).to_pandas()
    rev = duckdb.sql(
        f"""SELECT l_suppkey, sum(CAST(round(l_extendedprice*100) AS BIGINT)
              * (100 - CAST(round(l_discount*100) AS BIGINT))) AS r
            FROM read_parquet('{SF}/lineitem.parquet')
            WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}'
              AND l_shipdate <  TIMESTAMP '{_Q15_HI}' GROUP BY 1"""
    ).df()
    best = int(rev["r"].max())
    winners = set(rev[rev["r"] == best]["l_suppkey"])
    assert set(got["s_suppkey"]) == winners
    assert (got["total_rev_e4"] == best).all()


def test_nation_trade_volume_directions(ray_session):
    """Rows only cover the two configured nations, never a same-nation
    pair, and each direction total matches an independent brute-force."""
    from sharesci_ray.pipelines.ops_relational import (
        _Q7_NATIONS,
        nation_trade_volume,
    )

    got = nation_trade_volume(SF).to_pandas()
    assert set(got["supp_nation"]) <= set(_Q7_NATIONS)
    assert set(got["cust_nation"]) <= set(_Q7_NATIONS)
    assert (got["supp_nation"] != got["cust_nation"]).all()
    brute = duckdb.sql(
        f"""
        SELECT ns.n_name AS sn, nc.n_name AS cn,
               sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount*100) AS BIGINT))) AS r
        FROM read_parquet('{SF}/lineitem.parquet') l
        JOIN read_parquet('{SF}/supplier.parquet') s ON s.s_suppkey = l.l_suppkey
        JOIN read_parquet('{SF}/nation.parquet') ns ON ns.n_nationkey = s.s_nationkey
        JOIN read_parquet('{SF}/orders.parquet') o ON o.o_orderkey = l.l_orderkey
        JOIN read_parquet('{SF}/customer.parquet') c ON c.c_custkey = o.o_custkey
        JOIN read_parquet('{SF}/nation.parquet') nc ON nc.n_nationkey = c.c_nationkey
        WHERE ns.n_name IN ('{_Q7_NATIONS[0]}', '{_Q7_NATIONS[1]}')
          AND nc.n_name IN ('{_Q7_NATIONS[0]}', '{_Q7_NATIONS[1]}')
          AND ns.n_name != nc.n_name
        GROUP BY 1, 2
        """
    ).df()
    exp = {(r["sn"], r["cn"]): int(r["r"]) for _, r in brute.iterrows()}
    got_dir = got.groupby(["supp_nation", "cust_nation"])["rev_e4"].sum()
    assert {k: int(v) for k, v in got_dir.items()} == exp


def test_weekly_retention_triangle(ray_session):
    """Week-0 cohort mass: every user is active in their own first week, so
    the week_offset=0 rows must sum to the number of distinct users; no
    negative offsets can exist."""
    from sharesci_ray.pipelines.ops_relational import weekly_retention

    got = weekly_retention(SF).to_pandas()
    n_users = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{SF}/events.parquet')"
    ).fetchall()[0][0]
    assert (got["week_offset"] >= 0).all()
    assert int(got[got["week_offset"] == 0]["n_users"].sum()) == n_users


def test_bm25_page2_disjoint_from_page1(ray_session):
    """Page 2 (ranks 11-20) never repeats a page-1 document for the same
    query, and its ranks are exactly in [11, 20]."""
    from sharesci_ray.pipelines.ops import bm25_topk, bm25_topk_page2

    p1 = bm25_topk(SF).to_pandas()
    p2 = bm25_topk_page2(SF).to_pandas()
    assert p2["rank"].between(11, 20).all()
    seen1 = set(zip(p1["query_id"], p1["doc_id"]))
    assert not (set(zip(p2["query_id"], p2["doc_id"])) & seen1)


def test_covisit_pairs_canonical(ray_session):
    """Pairs are canonical (a < b), counts are positive, and the top-k is
    sorted by (n_users desc, item_a, item_b)."""
    from sharesci_ray.pipelines.ops_relational import covisit_counts

    got = covisit_counts(SF).to_pandas()
    assert (got["item_a"] < got["item_b"]).all()
    assert (got["n_users"] > 0).all()
    keys = list(zip(-got["n_users"], got["item_a"], got["item_b"]))
    assert keys == sorted(keys)


def test_covisit_zero_pair_regime_keeps_schema(ray_session):
    """sf1 stress finding: when EVERY user exceeds the hyperactive cap the
    pair set is legitimately empty, and Ray 2.49's sort drops the schema of
    the all-empty input — the op must still return a typed 0-row
    (item_a, item_b, n_users) result, matching the oracle's empty frame."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from sharesci_ray.pipelines.ops_relational import _COVISIT_USER_CAP, covisit_counts

    n_items = _COVISIT_USER_CAP + 5  # one user, capped out
    rows = pa.table(
        {
            "user_id": pa.array([1] * n_items, pa.int64()),
            "event_type": pa.array(["view"] * n_items),
            "props": pa.array(['{"k": %d}' % i for i in range(n_items)]),
        }
    )
    d = tempfile.mkdtemp(prefix="covisit_allcapped_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))

    ds = covisit_counts(d)
    assert ds.count() == 0
    sch = ds.schema()
    assert sch is not None and sch.names == ["item_a", "item_b", "n_users"]


def test_covisit_digitless_props_parity(ray_session):
    """ADVICE r3: props with no digit run must be skipped identically on
    both sides — the engine drops null items before pair emission, the
    oracle TRY_CASTs and filters NULL — instead of erroring differently."""
    import os
    import tempfile

    import duckdb as _dd
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from sharesci_ray.pipelines.ops_relational import covisit_counts

    rows = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "event_type": pa.array(["view"] * 6),
            "props": pa.array(
                ['{"k": 5}', '{"k": 9}', "no digits here", '{"k": 5}',
                 '{"k": 9}', "{}"]
            ),
        }
    )
    d = tempfile.mkdtemp(prefix="covisit_nodigit_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))

    got = (
        covisit_counts(d)
        .to_pandas()
        .sort_values(["item_a", "item_b"])
        .reset_index(drop=True)
    )
    con = _dd.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    truth = (
        con.execute(e.oracle_sql()["covisit_counts"])
        .df()
        .sort_values(["item_a", "item_b"])
        .reset_index(drop=True)
    )
    assert list(got["item_a"]) == list(truth["item_a"]) == [5]
    assert list(got["item_b"]) == list(truth["item_b"]) == [9]
    assert list(got["n_users"]) == list(truth["n_users"]) == [2]


def test_monthly_growth_telescopes(ray_session):
    """Deltas telescope: with lag-against-previous (first month lags 0),
    Σ delta_cents = the last month's revenue.  Also check total mass
    against an independent DuckDB sum."""
    from sharesci_ray.pipelines.ops_relational import orders_monthly_growth

    got = orders_monthly_growth(SF).to_pandas().sort_values("month")
    assert int(got["delta_cents"].sum()) == int(got["rev_cents"].iloc[-1])
    total = duckdb.sql(
        f"""SELECT sum(CAST(round(o_totalprice*100) AS BIGINT))
            FROM read_parquet('{SF}/orders.parquet')"""
    ).fetchall()[0][0]
    assert int(got["rev_cents"].sum()) == int(total)


def test_hour_anomalies_threshold(ray_session):
    """Every emitted hour really exceeds mean + 2σ of the hourly counts,
    and no non-emitted hour does (engine ≡ brute force at sf0.001)."""
    import math

    from sharesci_ray.pipelines.ops_relational import event_hour_anomalies

    got = set(
        event_hour_anomalies(SF).to_pandas()["hour"].astype("datetime64[us]")
    )
    hist = duckdb.sql(
        f"""SELECT date_trunc('hour', ts) AS h, count(*) AS n
            FROM read_parquet('{SF}/events.parquet') GROUP BY 1"""
    ).df()
    n = hist["n"].astype("int64").to_numpy()
    m, s, q = len(n), int(n.sum()), int((n * n).sum())
    thresh = 2.0 * math.sqrt(float(m) * float(q) - float(s) * float(s))
    exp = set(hist["h"][(n * m - s) > thresh].astype("datetime64[us]"))
    assert got == exp


def test_top_terms_per_lang_k_and_order(ray_session):
    """Each language emits at most k rows, ordered by (count desc, term),
    and the counts equal an independent DuckDB tally."""
    from sharesci_ray.pipelines.ops_text import (
        _TOPTERMS_K,
        top_terms_per_lang,
    )

    got = top_terms_per_lang(SF).to_pandas()
    for lang, sub in got.groupby("lang"):
        assert len(sub) <= _TOPTERMS_K
        keys = list(zip(-sub["tf_total"], sub["term"]))
        assert keys == sorted(keys)


def test_distinct_parts_mass(ray_session):
    """Per-supplier distinct part counts match DuckDB exactly, and their
    sum equals the global distinct pair count."""
    from sharesci_ray.pipelines.ops_relational import (
        distinct_parts_per_supplier,
    )

    got = distinct_parts_per_supplier(SF).to_pandas().set_index("l_suppkey")
    exp = duckdb.sql(
        f"""SELECT l_suppkey, count(DISTINCT l_partkey) AS n
            FROM read_parquet('{SF}/lineitem.parquet') GROUP BY 1"""
    ).df().set_index("l_suppkey")
    assert got["n_parts"].to_dict() == exp["n"].to_dict()


def test_daily_value_ffill_gaps_parity(ray_session):
    """Testdata has no empty (type, day) cells, so the carry-forward branch
    is vacuous there — exercise it on a synthetic gapped series: gaps
    inside the range take the last observation, days before a series'
    first observation emit nothing, and the within-day argmax picks the
    max-(ts, event_id) event on both sides."""
    import os
    import tempfile

    import duckdb as _dd
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from sharesci_ray.pipelines.ops_relational import daily_value_ffill

    def us(day, sec=0):
        return (day * 86_400 + sec) * 1_000_000

    rows = pa.table(
        {
            # series "a": days 0, 1, 4 (gap 2-3); two events on day 1 share
            # the max ts → event_id breaks the tie.  series "b": starts day 3.
            "ts": pa.array(
                [us(0), us(1, 10), us(1, 10), us(4), us(3), us(5)],
                pa.timestamp("us"),
            ),
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "event_type": pa.array(["a", "a", "a", "a", "b", "b"]),
            "value": pa.array([1.5, 2.5, 3.5, 4.5, 7.25, 8.25], pa.float64()),
            "user_id": pa.array([1] * 6, pa.int64()),
            "props": pa.array(["{}"] * 6),
        }
    )
    d = tempfile.mkdtemp(prefix="ffill_gaps_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))

    got = (
        daily_value_ffill(d)
        .to_pandas()
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )
    con = _dd.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    truth = (
        con.execute(e.oracle_sql()["daily_value_ffill"])
        .df()
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )
    assert list(got["event_type"]) == list(truth["event_type"])
    assert list(got["day"]) == list(truth["day"])
    assert list(got["value"]) == list(truth["value"])
    # explicit semantics, not just parity: series a fills the day-2/3 gap
    # with day-1's tie-broken value (event_id 3 → 3.5); series b starts at
    # day 3 (no leading rows) and carries 7.25 into day 4
    a = got[got["event_type"] == "a"]["value"].tolist()
    assert a == [1.5, 3.5, 3.5, 3.5, 4.5, 4.5]
    b = got[got["event_type"] == "b"]["value"].tolist()
    assert b == [7.25, 7.25, 8.25]


def test_covisit_graph_ops_planted_triangle(ray_session):
    """Planted structure: 27 distinct noise pairs (weight 1) + one K3 on
    items {1,2,3} (weight 4).  The exact-p90 threshold must keep exactly
    the K3, item_pagerank must rank its three (symmetric) nodes equally,
    and covisit_triangles must count one triangle per node — engine ==
    oracle == hand-derived structure."""
    import os
    import tempfile

    import duckdb as _dd
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from sharesci_ray.pipelines.ops_relational import (
        covisit_triangles,
        item_pagerank,
    )

    users, props = [], []
    uid = 0
    for _ in range(4):  # 4 users view {1,2,3} → K3 pairs at weight 4
        for item in (1, 2, 3):
            users.append(uid)
            props.append(f'{{"k": {item}}}')
        uid += 1
    for i in range(27):  # 27 single-user noise pairs at weight 1
        for item in (100 + 2 * i, 101 + 2 * i):
            users.append(uid)
            props.append(f'{{"k": {item}}}')
        uid += 1
    rows = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(["view"] * len(users)),
            "props": pa.array(props),
        }
    )
    d = tempfile.mkdtemp(prefix="covisit_k3_")
    pq.write_table(rows, os.path.join(d, "events.parquet"))

    con = _dd.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )

    pr = item_pagerank(d).to_pandas()
    truth_pr = con.execute(e.oracle_sql()["item_pagerank"]).df()
    assert list(pr["item"]) == list(truth_pr["item"]) == [1, 2, 3]
    assert list(pr["rank_scaled"]) == list(truth_pr["rank_scaled"])
    # symmetric K3 → all three ranks identical
    assert len(set(pr["rank_scaled"])) == 1

    tri = covisit_triangles(d).to_pandas()
    truth_tri = con.execute(e.oracle_sql()["covisit_triangles"]).df()
    assert list(tri["item"]) == list(truth_tri["item"]) == [1, 2, 3]
    assert list(tri["n_triangles"]) == list(truth_tri["n_triangles"]) == [1, 1, 1]


def test_sales_rollup_levels_are_consistent(ray_session):
    """The three rollup granularities must add up exactly: per-nation rows
    equal the sum of that nation's (nation, year) rows, and the grand
    total equals the sum of all per-nation rows."""
    from sharesci_ray.pipelines.ops_relational import sales_rollup

    df = sales_rollup(SF).to_pandas()
    base = df[(df["nation"] != "ALL") & (df["year"] != -1)]
    per_nation = df[(df["nation"] != "ALL") & (df["year"] == -1)]
    total = df[df["nation"] == "ALL"]
    assert len(total) == 1
    for col in ("rev_cents", "n_orders"):
        by_nat = base.groupby("nation")[col].sum()
        got = per_nation.set_index("nation")[col]
        assert got.sort_index().equals(by_nat.sort_index())
        assert int(total[col].iloc[0]) == int(base[col].sum())


def test_table_profile_counts_and_null_partial(ray_session):
    """Profile counts must match a direct DuckDB profile of the same
    table, and the per-batch count partial must count nulls (events has
    none, so exercise the kernel directly on a null-bearing batch)."""
    import duckdb
    import pyarrow as pa

    from sharesci_ray.pipelines.ops_relational import _PROFILE_COLS, table_profile

    prof = table_profile(SF).to_pandas().set_index("col")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    for c in _PROFILE_COLS:
        n_rows, n_null, n_distinct = con.execute(
            f"SELECT count(*), count(*) - count({c}), count(DISTINCT {c}) FROM events"
        ).fetchone()
        assert int(prof.loc[c, "n_rows"]) == n_rows
        assert int(prof.loc[c, "n_null"]) == n_null
        assert int(prof.loc[c, "n_distinct"]) == n_distinct

    # null-bearing batch through the same pre-dedup rule the op uses:
    # nulls are dropped BEFORE the distinct (DuckDB count(DISTINCT) parity)
    batch = pa.table({"user_id": pa.array([1, None, 1, 2, None], pa.int64())})
    dedup = batch.drop_null().group_by("user_id").aggregate([])
    assert dedup.num_rows == 2
    assert batch["user_id"].null_count == 2


def test_activity_reconcile_sides(ray_session):
    """Full-outer semantics: all three side classes present at sf0.001,
    every key unique, and the missing side exactly zero-filled."""
    from sharesci_ray.pipelines.ops_relational import activity_reconcile

    df = activity_reconcile("/root/testdata/sf0.001").to_pandas()
    assert df["key"].is_unique
    sides = set(df["side"])
    assert sides == {"both", "events_only", "orders_only"}
    eo = df[df["side"] == "events_only"]
    assert (eo["n_big_orders"] == 0).all() and (eo["order_cents"] == 0).all()
    assert (eo["n_events"] > 0).all()
    oo = df[df["side"] == "orders_only"]
    assert (oo["n_events"] == 0).all() and (oo["event_cents"] == 0).all()
    assert (oo["n_big_orders"] > 0).all()
    b = df[df["side"] == "both"]
    assert ((b["n_events"] > 0) & (b["n_big_orders"] > 0)).all()


def test_bloom_semi_join_guarantees(ray_session):
    """Bloom law: never drops a true match (pass ≥ true), always prunes
    (pass < total here — the build side is one of five segments), and
    false positives are exactly the overshoot."""
    from sharesci_ray.pipelines.ops_relational import bloom_semi_join

    df = bloom_semi_join("/root/testdata/sf0.001").to_pandas()
    assert len(df) > 0
    assert (df["n_bloom_pass"] >= df["n_true_match"]).all()
    assert (df["n_bloom_pass"] < df["n_orders"]).all()
    assert (df["n_false_pos"] == df["n_bloom_pass"] - df["n_true_match"]).all()
    assert (df["n_true_match"] > 0).all()


def test_value_quantiles_sketch_bin_bound(ray_session):
    """Sketch error law: the exact percentile (DuckDB percentile_disc over
    the same cents) always lands inside [est, est + bin_width)."""
    import duckdb

    from sharesci_ray.pipelines.ops_relational import (
        _QSK_QS,
        _QSK_WIDTH,
        value_quantiles_sketch,
    )

    sf = "/root/testdata/sf0.001"
    df = value_quantiles_sketch(sf).to_pandas().sort_values("q_pct").reset_index(drop=True)
    assert list(df["q_pct"]) == _QSK_QS
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    for i, q in enumerate(_QSK_QS):
        exact = con.execute(
            f"SELECT percentile_disc({q / 100.0}) WITHIN GROUP "
            f"(ORDER BY CAST(round(value * 100) AS BIGINT)) FROM events"
        ).df().iloc[0, 0]
        assert df.est_cents[i] <= exact < df.est_cents[i] + _QSK_WIDTH
    # ranks are the exact integer ceilings and monotone in q
    assert df["rank"].is_monotonic_increasing
    assert df["est_cents"].is_monotonic_increasing


def test_value_quantiles_sketch_negative_cents_parity(ray_session, tmp_path):
    """Review finding (r4): DuckDB's bare // truncates toward zero while
    numpy floors — with refund-style NEGATIVE values the two sides landed
    one bin apart.  The oracle now uses fdiv_sql; engine ≡ oracle on a
    planted negative-value corpus."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from sharesci_ray.pipelines.ops_relational import value_quantiles_sketch

    t = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "value": pa.array([-5.0, -4.0, -3.0, -2.0, 10.0, 0.0, 3.2]),
        }
    )
    d = tmp_path / "negev"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))

    got = (
        value_quantiles_sketch(str(d))
        .to_pandas()
        .sort_values("q_pct")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    want = (
        con.execute(e.oracle_sql()["value_quantiles_sketch"])
        .df()
        .sort_values("q_pct")
        .reset_index(drop=True)
    )
    assert got.astype("int64").equals(want[got.columns].astype("int64"))
    assert (got["est_cents"] < 0).any()  # the negative bins are exercised


def test_snapshot_diff_classes(ray_session):
    """CDC invariants: all four classes present, added ids are negative
    -(id+1) shadows (collision-free vs any non-negative corpus id space),
    removed/modified/unchanged ids are original, and class counts are
    consistent with the 10% rule's hash masses."""
    from sharesci_ray.pipelines.ops_relational import snapshot_diff

    df = snapshot_diff("/root/testdata/sf0.001").to_pandas()
    assert set(df["change"]) == {"added", "removed", "modified", "unchanged"}
    assert df["doc_id"].is_unique
    added = df[df["change"] == "added"]
    # synthetic ids are negative — collision-free for ANY non-negative
    # corpus id space (review r4)
    assert (added["doc_id"] < 0).all()
    rest = df[df["change"] != "added"]
    assert (rest["doc_id"] >= 0).all()
    # every added doc is the -(id+1) shadow of an unchanged r==2 original
    assert set(-added["doc_id"] - 1) <= set(rest["doc_id"])


def test_size_gated_broadcasts_join_path_identical(
    ray_session, monkeypatch, tmp_path
):
    """util.join's broadcast path (default cap) and its shuffle path (cap
    0) give identical output: the three TPC-H shapes that join filtered
    dimensions (exact row order, they sort), and one converted op per
    module as a row multiset — near_dup_jaccard (ops_dedup), a left_outer
    op, a full_outer op and the training-shard export's join."""
    import json

    import sharesci_ray.pipelines.util as U
    from sharesci_ray.pipelines.export import write_training_shards
    from sharesci_ray.pipelines.ops_dedup import near_dup_jaccard
    from sharesci_ray.pipelines.ops_relational import (
        min_cost_supplier,
        product_profit,
        rich_inactive_customers,
        snapshot_diff,
        window_heavy_suppliers,
    )

    def rows(x):  # a Dataset or a pa.Table, as a sorted row list
        return sorted(x.to_pandas().itertuples(index=False, name=None), key=repr)

    def export(out: str):
        write_training_shards(sf, out)
        with open(f"{out}/manifest.json") as f:
            return json.load(f)["shards"]

    sf = "/root/testdata/sf0.01"  # sf0.001 has no NATION_9 suppliers (Q20 empty)
    for fn in (min_cost_supplier, product_profit, window_heavy_suppliers):
        monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 32 << 20)
        a = fn(sf)
        monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 0)
        b = fn(sf)
        assert a.num_rows > 0, fn.__name__
        assert a.equals(b), fn.__name__
    for fn in (near_dup_jaccard, rich_inactive_customers, snapshot_diff):
        monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 32 << 20)
        a = rows(fn(sf))
        monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 0)
        assert a and a == rows(fn(sf)), fn.__name__
    monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 32 << 20)
    a = export(str(tmp_path / "bcast"))
    monkeypatch.setattr(U, "BROADCAST_CAP_BYTES", 0)
    assert a and a == export(str(tmp_path / "shuffle"))
