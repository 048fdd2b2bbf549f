"""Relational / training-data-prep extension ops (registry side-module).

Four operators a large-scale training-data pipeline needs that the core
registry lacked:

  pii_scrub          — regex redaction (emails, digit runs) with per-row
                       redaction counts; RE2 semantics shared with the
                       DuckDB oracle.
  asof_join_events   — a genuine AS-OF join (purchase → most recent view
                       at-or-before it, per user): an operator Ray Data
                       has no native form for, composed as tag + union +
                       per-key map_groups merge (searchsorted).
  grouped_quantiles  — exact per-group quantiles by integer index formula
                       floor((n-1)*q) over the sorted values — deterministic
                       and hash-comparable, unlike interpolated quantiles.
  pivot_event_counts — wide pivot (one count column per event type) via
                       per-batch partial pivot + small groupby-sum.

Scale notes: pii_scrub is embarrassingly parallel (one RE2 pass per batch);
the as-of join and quantiles shuffle by key/group exactly once and assume a
single key's history fits one group (time-bucket the key at extreme per-key
volume — same caveat as the windowed ops in ops.py); the pivot pre-aggregates
per batch so only (n_users × n_types) partial rows shuffle.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import topk as tk
from ..functions.vectors import fdiv_sql as _fdiv_sql_q
from ..sources.corpus import read_table
from .ops import _cents, _rename, op

# ---------------------------------------------------------------------------
# pii_scrub — regex redaction over events.props
# ---------------------------------------------------------------------------

_EMAIL_RE = "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}"
_NUM_RE = "[0-9]+"


@op(
    "pii_scrub",
    f"""
    SELECT event_id,
           regexp_replace(regexp_replace(props, '{_EMAIL_RE}', '<EMAIL>', 'g'),
                          '{_NUM_RE}', '<NUM>', 'g') AS props_clean,
           len(regexp_extract_all(props, '{_EMAIL_RE}'))::BIGINT
             + len(regexp_extract_all(regexp_replace(props, '{_EMAIL_RE}', '<EMAIL>', 'g'),
                                      '{_NUM_RE}'))::BIGINT AS n_redacted
    FROM events
    """,
)
def pii_scrub(sf_dir: str):
    """PII redaction: emails then digit runs, with a per-row redaction
    count.  One vectorized RE2 pass per pattern per batch (pyarrow and
    DuckDB both use RE2, so the engine and the oracle share regex
    semantics exactly).  Stateless map_batches — no shuffle."""
    ev = read_table(sf_dir, "events", columns=["event_id", "props"])

    def scrub(batch: pa.Table) -> pa.Table:
        props = batch["props"]
        n_email = pc.count_substring_regex(props, pattern=_EMAIL_RE)
        no_email = pc.replace_substring_regex(
            props, pattern=_EMAIL_RE, replacement="<EMAIL>"
        )
        n_num = pc.count_substring_regex(no_email, pattern=_NUM_RE)
        clean = pc.replace_substring_regex(
            no_email, pattern=_NUM_RE, replacement="<NUM>"
        )
        return pa.table(
            {
                "event_id": batch["event_id"],
                "props_clean": clean,
                "n_redacted": pc.cast(pc.add(n_email, n_num), pa.int64()),
            }
        )

    return ev.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# asof_join_events — purchase → most recent view at-or-before, per user
# ---------------------------------------------------------------------------

_ASOF_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("view_ts", pa.timestamp("us")),
        ("view_cents", pa.int64()),
    ]
)


@op(
    "asof_join_events",
    """
    SELECT p.event_id, p.user_id, p.ts, v.ts AS view_ts, v.value_c AS view_cents
    FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
    ASOF JOIN (
      SELECT user_id, ts, max(CAST(round(value * 100) AS BIGINT)) AS value_c
      FROM events WHERE event_type = 'view' GROUP BY user_id, ts
    ) v ON p.user_id = v.user_id AND p.ts >= v.ts
    """,
)
def asof_join_events(sf_dir: str):
    """AS-OF join: each 'purchase' event matched to the same user's most
    recent 'view' event at-or-before it (inner: purchases with no prior
    view drop out).  Ray Data has no native as-of join; composition: tag
    both sides, union, ONE shuffle (groupby user), then a vectorized
    searchsorted merge inside each group.  Partitioning assumption: one
    user's history fits one group (time-bucket the key at extreme per-user
    volume).  The right side is pre-deduplicated to one row per
    (user, ts) via max(cents) so equal-timestamp ties are deterministic on
    both the engine and the oracle side."""
    ev = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type", "value"]
    )

    def split(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        keep = pc.or_(pc.equal(et, "purchase"), pc.equal(et, "view"))
        t = batch.filter(keep)
        is_left = pc.equal(t["event_type"], "purchase")
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "ts": t["ts"],
                "cents": _cents(t["value"]),
                "is_left": pc.cast(is_left, pa.int8()),
            }
        )

    tagged = ev.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("user_id").map_groups(asof_merge_group, batch_format="pyarrow")


def asof_merge_group(group: pa.Table) -> pa.Table:
    """One key's as-of merge (vectorized): rows tagged ``is_left`` 1/0;
    each left row matches the greatest right ``ts`` ≤ its own, ties on a
    right ``ts`` pre-resolved to max ``cents``.  Module-level so the
    kernel is property-testable against a brute-force reference without
    a Ray pipeline around it."""
    if group.num_rows == 0:
        return _ASOF_SCHEMA.empty_table()
    side = group["is_left"].to_numpy(zero_copy_only=False)
    ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cents = group["cents"].to_numpy(zero_copy_only=False)
    lmask, rmask = side == 1, side == 0
    if not lmask.any() or not rmask.any():
        return _ASOF_SCHEMA.empty_table()
    # right side: one row per ts, max(cents) on ties (mirrors the oracle)
    r_ts, r_cents = ts[rmask], cents[rmask]
    order = np.lexsort((r_cents, r_ts))
    r_ts, r_cents = r_ts[order], r_cents[order]
    last = np.r_[r_ts[1:] != r_ts[:-1], True]  # keep last (max cents) per ts
    r_ts, r_cents = r_ts[last], r_cents[last]
    l_ts = ts[lmask]
    idx = np.searchsorted(r_ts, l_ts, side="right") - 1
    hit = idx >= 0
    lidx = np.flatnonzero(lmask)[hit]
    ridx = idx[hit]
    return pa.table(
        {
            "event_id": group["event_id"].take(pa.array(lidx)),
            "user_id": group["user_id"].take(pa.array(lidx)),
            "ts": group["ts"].take(pa.array(lidx)),
            "view_ts": pa.array(r_ts[ridx], pa.timestamp("us")),
            "view_cents": pa.array(r_cents[ridx], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# grouped_quantiles — exact per-group p50/p90/p99 by index formula
# ---------------------------------------------------------------------------

_QS = (("p50_cents", 0.5), ("p90_cents", 0.9), ("p99_cents", 0.99))


@op(
    "grouped_quantiles",
    """
    SELECT event_type, max(cnt) AS n,
           max(CASE WHEN rn = CAST(floor((cnt - 1) * 0.5) AS BIGINT) THEN cents END) AS p50_cents,
           max(CASE WHEN rn = CAST(floor((cnt - 1) * 0.9) AS BIGINT) THEN cents END) AS p90_cents,
           max(CASE WHEN rn = CAST(floor((cnt - 1) * 0.99) AS BIGINT) THEN cents END) AS p99_cents
    FROM (
      SELECT event_type, cents,
             row_number() OVER (PARTITION BY event_type ORDER BY cents) - 1 AS rn,
             count(*) OVER (PARTITION BY event_type) AS cnt
      FROM (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents FROM events)
    )
    GROUP BY event_type
    """,
)
def grouped_quantiles(sf_dir: str):
    """Exact per-group quantiles: the value at sorted index floor((n-1)*q)
    — integer indexing into the sorted group, so the result is exact and
    hash-comparable (interpolated quantiles are float-rounding hazards).
    One shuffle (groupby event_type); the in-group sort assumes a group
    fits one task — for groups beyond that, length_deciles' distributed
    histogram shape (ops_text.py) is the scale path for discrete values."""
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def quantiles(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.schema(
                [("event_type", pa.string()), ("n", pa.int64())]
                + [(name, pa.int64()) for name, _ in _QS]
            ).empty_table()
        cents = np.sort(_cents(group["value"]).to_numpy(zero_copy_only=False))
        n = cents.size
        out = {
            "event_type": pa.array([group["event_type"][0].as_py()]),
            "n": pa.array([n], pa.int64()),
        }
        for name, q in _QS:
            # same double expression as the oracle: floor((n-1)*q)
            out[name] = pa.array([int(cents[int(np.floor((n - 1) * q))])], pa.int64())
        return pa.table(out)

    return ev.groupby("event_type").map_groups(quantiles, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# pivot_event_counts — wide per-user event-type counts
# ---------------------------------------------------------------------------

_EVENT_TYPES = ("click", "view", "purchase", "signup", "error")


@op(
    "pivot_event_counts",
    "SELECT user_id, "
    + ", ".join(
        f"count(*) FILTER (WHERE event_type = '{t}')::BIGINT AS n_{t}"
        for t in _EVENT_TYPES
    )
    + " FROM events GROUP BY user_id",
)
def pivot_event_counts(sf_dir: str):
    """Pivot to wide: one count column per event type, keyed by user.
    Per-batch partial pivot (np.add.at over user codes × a mask per type)
    so only n_users × n_types partial rows enter the final groupby-sum."""
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"]
        users, codes = np.unique(uid, return_inverse=True)
        cols = {"user_id": pa.array(users, pa.int64())}
        for t in _EVENT_TYPES:
            mask = pc.equal(et, t).to_numpy(zero_copy_only=False)
            cnt = np.zeros(users.size, dtype=np.int64)
            np.add.at(cnt, codes[mask], 1)
            cols[f"n_{t}"] = pa.array(cnt, pa.int64())
        return pa.table(cols)

    parts = ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.groupby("user_id").sum([f"n_{t}" for t in _EVENT_TYPES])
    return _rename(
        agg,
        {f"sum(n_{t})": f"n_{t}" for t in _EVENT_TYPES},
        int64_cols=tuple(f"n_{t}" for t in _EVENT_TYPES),
    )


# ---------------------------------------------------------------------------
# top_revenue_customers — 3-table join pipeline (lineitem ⋈ orders ⋈ customer)
# ---------------------------------------------------------------------------

@op(
    "top_revenue_customers",
    """
    SELECT c.c_custkey, c.c_name, r.rev_e4
    FROM (
      SELECT o.o_custkey,
             sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
               AS rev_e4
      FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
      GROUP BY o.o_custkey
      ORDER BY rev_e4 DESC, o.o_custkey LIMIT 10
    ) r JOIN customer c ON c.c_custkey = r.o_custkey
    """,
)
def top_revenue_customers(sf_dir: str):
    """Deep relational pipeline (TPC-H Q3/Q10 flavor): revenue per customer
    through lineitem ⋈ orders, global top-10, names attached last.

    Exactness: revenue is computed in integer "e4" units — cents × (100 −
    discount%), both factors exact int64 round-trips of 2-decimal doubles
    — so no float summation or .5-rounding hazard anywhere.

    Scale shape: per-batch partial sums by l_orderkey shrink lineitem
    before its only wide exchange; the orders join is a native hash join
    (scale-adaptive partitions); the per-customer aggregate is partial+
    final; the top-10 is a global sort-limit over the already-small
    per-customer table; and customer NAMES are attached to just the 10
    winners (a driver-side lookup of a bounded set — never a join against
    the full customer table)."""
    import ray

    from .util import drop_empty_blocks, join_partitions

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def partial(t: pa.Table) -> pa.Table:
        price_cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_pct = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)  # 0-100
        rev = price_cents * (100 - disc_pct)
        g = (
            pa.table({"l_orderkey": t["l_orderkey"], "rev": pa.array(rev, pa.int64())})
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev"])

    per_order = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .sum("rev")
    )
    per_order = _rename(per_order, {"sum(rev)": "rev"}, int64_cols=("rev",))

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    joined = drop_empty_blocks(
        per_order.join(
            orders,
            join_type="inner",
            num_partitions=join_partitions(per_order, orders),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("rev", pa.int64()),
             ("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
    )
    per_cust = _rename(
        joined.groupby("o_custkey").sum("rev"), {"sum(rev)": "rev_e4"},
        int64_cols=("rev_e4",),
    )
    top = per_cust.sort(["rev_e4", "o_custkey"], descending=[True, False]).limit(10)
    winners = top.take_all()  # exactly 10 rows
    keys = pa.array([r["o_custkey"] for r in winners], pa.int64())
    revs = {int(r["o_custkey"]): int(r["rev_e4"]) for r in winners}
    names = (
        read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
        .map_batches(
            lambda t, _k=keys: t.filter(pc.is_in(t["c_custkey"], value_set=_k)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )  # bounded: 10 rows
    return pa.table(
        {
            "c_custkey": pa.array([r["c_custkey"] for r in names], pa.int64()),
            "c_name": pa.array([r["c_name"] for r in names], pa.string()),
            "rev_e4": pa.array(
                [revs[int(r["c_custkey"])] for r in names], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# top_parts_per_brand — per-group top-k (the window row_number() shape)
# ---------------------------------------------------------------------------

_TOPK_PER_GROUP = 3


@op(
    "top_parts_per_brand",
    f"""
    SELECT p_brand, rank, p_partkey, price_cents FROM (
      SELECT p_brand, p_partkey,
             CAST(round(p_retailprice * 100) AS BIGINT) AS price_cents,
             row_number() OVER (
               PARTITION BY p_brand
               ORDER BY CAST(round(p_retailprice * 100) AS BIGINT) DESC, p_partkey
             ) AS rank
      FROM part
    ) WHERE rank <= {_TOPK_PER_GROUP}
    """,
)
def top_parts_per_brand(sf_dir: str):
    """Per-group top-k (SQL: row_number() OVER (PARTITION BY ...)): the 3
    highest-priced parts per brand, tie-break p_partkey asc.  Exact integer
    cents ordering — hash-comparable.

    Scale shape: each batch emits AT MOST k rows per brand it contains
    (vectorized partial top-k: one lexsort + per-group position, no Python
    row loop), so only n_brands × k × n_blocks partial rows reach the one
    groupby; the final per-group top-k is over those partials, never the
    full table."""
    part = read_table(
        sf_dir, "part", columns=["p_brand", "p_partkey", "p_retailprice"]
    )
    partials = part.map_batches(
        topk_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("p_brand").map_groups(
        topk_final, batch_format="pyarrow"
    )


_TOPK_PARTIAL_SCHEMA = pa.schema(
    [("p_brand", pa.string()), ("p_partkey", pa.int64()), ("price_cents", pa.int64())]
)
_TOPK_OUT_SCHEMA = pa.schema(
    [("p_brand", pa.string()), ("rank", pa.int64()),
     ("p_partkey", pa.int64()), ("price_cents", pa.int64())]
)


@tk.partial_topk(_TOPK_PER_GROUP, _TOPK_PARTIAL_SCHEMA)
def topk_partial(batch: pa.Table):
    """Per-batch partial top-k per brand (module-level so the partial+final
    invariant is property-testable against brute force without a Ray
    pipeline around it): the shared grouped kernel over
    (brand, cents desc, key asc) — no Python row loop."""
    return (
        batch["p_brand"].to_numpy(zero_copy_only=False),
        batch["p_partkey"].to_numpy(zero_copy_only=False),
        _cents(batch["p_retailprice"]).to_numpy(zero_copy_only=False),
    )


def topk_final(group: pa.Table) -> pa.Table:
    """One brand's merge of partials → ranked top-k (cents desc, key asc)."""
    return tk.final_topk(
        group, _TOPK_PER_GROUP, _TOPK_OUT_SCHEMA, score="price_cents"
    )


# ---------------------------------------------------------------------------
# revenue_by_nation — TPC-H Q5-shape 6-table join pipeline
# ---------------------------------------------------------------------------

_Q5_REGION = "ASIA"


@op(
    "revenue_by_nation",
    f"""
    SELECT n.n_name,
           sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
             AS rev_e4
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
                   AND c.c_nationkey = s.s_nationkey
    JOIN nation n ON s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    WHERE r.r_name = '{_Q5_REGION}'
    GROUP BY n.n_name
    """,
)
def revenue_by_nation(sf_dir: str):
    """TPC-H Q5 shape: local-supplier revenue per nation in one region,
    through lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ nation ⋈ region.
    Exact integer e4 revenue (cents × (100 − discount%)) — no float sums.

    Scale shape: revenue is computed per lineitem row up front and the
    money columns dropped (projection hygiene); the three
    scale-proportional tables (lineitem, orders, customer, supplier) meet
    in native hash joins with scale-adaptive partition counts; nation ⋈
    region (≤ a few hundred rows at any scale) collapses to a broadcast
    is_in filter + dict lookup — never a shuffle; the final aggregate is
    a partial+final groupby over ≤ n_nations keys."""
    from .util import drop_empty_blocks, join_partitions

    # broadcast side: nation ⋈ region → allowed nationkeys + key→name map
    nations = read_table(sf_dir, "nation").take_all()      # ≤ 25 rows
    regions = read_table(sf_dir, "region").take_all()      # ≤ 5 rows
    region_keys = {
        int(r["r_regionkey"]) for r in regions if r["r_name"] == _Q5_REGION
    }
    name_of = {
        int(r["n_nationkey"]): r["n_name"]
        for r in nations
        if int(r["n_regionkey"]) in region_keys
    }
    allowed = pa.array(sorted(name_of), pa.int64())

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def to_rev(t: pa.Table) -> pa.Table:
        price_cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_pct = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "l_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
                "rev": pa.array(price_cents * (100 - disc_pct), pa.int64()),
            }
        )

    li = li.map_batches(to_rev, batch_format="pyarrow", zero_copy_batch=True)

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j1_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()), ("rev", pa.int64()),
         ("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
    )
    j1 = drop_empty_blocks(
        li.join(orders, join_type="inner",
                num_partitions=join_partitions(li, orders),
                on=("l_orderkey",), right_on=("o_orderkey",)),
        j1_schema,
    )

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    j2_schema = j1_schema.append(pa.field("c_custkey", pa.int64())).append(
        pa.field("c_nationkey", pa.int32())
    )
    j2 = drop_empty_blocks(
        j1.join(cust, join_type="inner",
                num_partitions=join_partitions(j1, cust),
                on=("o_custkey",), right_on=("c_custkey",)),
        j2_schema,
    )

    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    j3_schema = j2_schema.append(pa.field("s_suppkey", pa.int64())).append(
        pa.field("s_nationkey", pa.int32())
    )
    j3 = drop_empty_blocks(
        j2.join(sup, join_type="inner",
                num_partitions=join_partitions(j2, sup),
                on=("l_suppkey",), right_on=("s_suppkey",)),
        j3_schema,
    )

    def local_in_region(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([("n_name", pa.string()), ("rev", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        c_nat = pc.cast(t["c_nationkey"], pa.int64())
        s_nat = pc.cast(t["s_nationkey"], pa.int64())
        keep = pc.and_(pc.equal(c_nat, s_nat), pc.is_in(s_nat, value_set=allowed))
        t = t.filter(keep)
        if t.num_rows == 0:
            return out_schema.empty_table()
        nat = pc.cast(t["s_nationkey"], pa.int64()).to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        # partial per-nation sums inside the batch: ≤ n_nations rows leave
        keys, codes = np.unique(nat, return_inverse=True)
        sums = np.zeros(keys.size, dtype=np.int64)
        np.add.at(sums, codes, rev)
        return pa.table(
            {
                "n_name": pa.array([name_of[int(k)] for k in keys], pa.string()),
                "rev": pa.array(sums, pa.int64()),
            },
            schema=out_schema,
        )

    partials = j3.map_batches(local_in_region, batch_format="pyarrow",
                              zero_copy_batch=True)
    return _rename(
        partials.groupby("n_name").sum("rev"), {"sum(rev)": "rev_e4"},
        int64_cols=("rev_e4",),
    )


# ---------------------------------------------------------------------------
# order_priority_counts — EXISTS-semi-join aggregate (TPC-H Q4 shape)
# ---------------------------------------------------------------------------

@op(
    "order_priority_counts",
    """
    SELECT o_orderpriority, count(*)::BIGINT AS n_orders
    FROM orders o
    WHERE EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
    GROUP BY o_orderpriority
    """,
)
def order_priority_counts(sf_dir: str):
    """TPC-H Q4 shape: orders per priority having at least one returned
    lineitem (EXISTS semi-join + aggregate).

    Scale shape: the existence side is reduced FIRST — per-batch unique
    orderkeys, then a distinct groupby — so the semi join ships one row
    per qualifying order, not one per lineitem; the join is a native hash
    join with scale-adaptive partitions (distinct keys → no fanout, an
    inner join IS the semi join); the count is a partial+final groupby
    over 5 keys."""
    from .util import drop_empty_blocks, join_partitions

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def returned_keys(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["l_returnflag"], "R")
        keys = np.unique(t.filter(keep)["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": pa.array(keys, pa.int64())})

    keys = (
        li.map_batches(returned_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .count()
    )

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = drop_empty_blocks(
        orders.join(keys, join_type="inner",
                    num_partitions=join_partitions(orders, keys),
                    on=("o_orderkey",), right_on=("l_orderkey",)),
        pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string()),
             ("l_orderkey", pa.int64()), ("count()", pa.int64())]
        ),
    )
    return _rename(
        joined.groupby("o_orderpriority").count(), {"count()": "n_orders"},
        int64_cols=("n_orders",),
    )


# ---------------------------------------------------------------------------
# latest_event_per_user — keep-latest-record dedup (argmax per key)
# ---------------------------------------------------------------------------

@op(
    "latest_event_per_user",
    """
    SELECT user_id, event_id, ts, event_type,
           CAST(round(value * 100) AS BIGINT) AS value_cents
    FROM (
      SELECT *, row_number() OVER (
               PARTITION BY user_id ORDER BY ts DESC, event_id DESC
             ) AS rn
      FROM events
    ) WHERE rn = 1
    """,
)
def latest_event_per_user(sf_dir: str):
    """Keep-latest-record per key (the "newest crawl of each URL" dedup a
    training-data pipeline runs constantly): each user's most recent event,
    ties on ts broken by highest event_id.

    Scale shape: per-batch partial argmax (one lexsort, keeps ONE row per
    key per batch) so the shuffle carries n_keys × n_blocks rows, not the
    event stream; final argmax per group over those partials."""
    ev = read_table(
        sf_dir, "events",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("event_id", pa.int64()),
         ("ts", pa.timestamp("us")), ("event_type", pa.string()),
         ("value_cents", pa.int64())]
    )

    def argmax_rows(t: pa.Table, per_batch: bool) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        if per_batch:
            # lexsort: user asc, ts desc, event_id desc → first row per user
            order = np.lexsort((-eid, -ts, uid))
            su = uid[order]
            keep = order[np.r_[True, su[1:] != su[:-1]]]
        else:
            order = np.lexsort((-eid, -ts))
            keep = order[:1]
        keep = pa.array(np.sort(keep))
        return pa.table(
            {
                "user_id": pc.cast(t["user_id"].take(keep), pa.int64()),
                "event_id": pc.cast(t["event_id"].take(keep), pa.int64()),
                "ts": t["ts"].take(keep),
                "event_type": t["event_type"].take(keep),
                "value_cents": (
                    _cents(t["value"].take(keep))
                    if "value" in t.column_names
                    else t["value_cents"].take(keep)
                ),
            },
            schema=out_schema,
        )

    partials = ev.map_batches(
        lambda t: argmax_rows(t, per_batch=True),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return partials.groupby("user_id").map_groups(
        lambda g: argmax_rows(g, per_batch=False), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# rollup_event_counts — multi-level aggregate (GROUP BY ROLLUP shape)
# ---------------------------------------------------------------------------

@op(
    "rollup_event_counts",
    """
    SELECT coalesce(event_type, 'ALL') AS event_type,
           coalesce(hour, -1) AS hour,
           count(*)::BIGINT AS n
    FROM (SELECT event_type, CAST(extract(hour FROM ts) AS BIGINT) AS hour
          FROM events)
    GROUP BY ROLLUP(event_type, hour)
    """,
)
def rollup_event_counts(sf_dir: str):
    """GROUP BY ROLLUP shape: counts at (type, hour), (type) and grand-total
    levels, NULL markers encoded as 'ALL'/-1 sentinels (hash-stable — no
    NaN-vs-NULL comparison hazard).

    Scale shape: events are scanned ONCE for the finest level (per-batch
    partial counts folded to integer type×24+hour keys → one small groupby
    over ≤ types×24 keys); the two coarser levels are derived from that
    BOUNDED fine-level aggregate (≤ types×24 rows reach the driver — never
    the event stream) — rollup as partial reuse, not a second scan."""
    ev = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def fine_partial(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("event_type", pa.string()), ("hour", pa.int64()), ("n", pa.int64())]
        )
        if t.num_rows == 0:
            return out_schema.empty_table()
        hour = pc.cast(pc.hour(t["ts"]), pa.int64()).to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        types, tcodes = np.unique(et, return_inverse=True)
        folded = tcodes.astype(np.int64) * 24 + hour  # int key: type×24+hour
        keys, codes = np.unique(folded, return_inverse=True)
        cnt = np.zeros(keys.size, dtype=np.int64)
        np.add.at(cnt, codes, 1)
        return pa.table(
            {
                "event_type": pa.array(types[keys // 24], pa.string()),
                "hour": pa.array(keys % 24, pa.int64()),
                "n": pa.array(cnt, pa.int64()),
            },
            schema=out_schema,
        )

    fine = _rename(
        ev.map_batches(fine_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour"])
        .sum("n"),
        {"sum(n)": "n"}, int64_cols=("n",),
    )
    rows = fine.take_all()  # bounded: ≤ n_event_types × 24
    et = [r["event_type"] for r in rows]
    hour = [int(r["hour"]) for r in rows]
    n = [int(r["n"]) for r in rows]
    by_type: dict[str, int] = {}
    for e, c in zip(et, n):
        by_type[e] = by_type.get(e, 0) + c
    for e in sorted(by_type):
        et.append(e); hour.append(-1); n.append(by_type[e])
    et.append("ALL"); hour.append(-1); n.append(sum(by_type.values()))
    return pa.table(
        {
            "event_type": pa.array(et, pa.string()),
            "hour": pa.array(hour, pa.int64()),
            "n": pa.array(n, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# above_avg_orders — correlated-subquery shape (TPC-H Q17 flavor)
# ---------------------------------------------------------------------------

@op(
    "above_avg_orders",
    """
    SELECT o.o_orderkey, o.o_custkey,
           CAST(round(o.o_totalprice * 100) AS BIGINT) AS price_cents
    FROM orders o
    JOIN (
      SELECT o_custkey,
             sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS sum_cents,
             count(*) AS n
      FROM orders GROUP BY o_custkey
    ) a ON o.o_custkey = a.o_custkey
    WHERE CAST(round(o.o_totalprice * 100) AS BIGINT) * a.n > a.sum_cents
    """,
)
def above_avg_orders(sf_dir: str):
    """Correlated-subquery shape (TPC-H Q17 flavor): orders priced above
    their own customer's average order value.  The float-hazard comparison
    ``price > avg`` is algebraically lifted to exact integers:
    ``price_cents · n > sum_cents`` — bit-identical on both sides.

    Scale shape: per-customer (sum, count) via per-batch partials + one
    small groupby; the correlated probe is a native hash join back against
    orders (both sides scale-proportional) + a vectorized integer filter."""
    from .util import drop_empty_blocks, join_partitions

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "price_cents": _cents(t["o_totalprice"]),
            }
        )

    oc = orders.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    oc = oc.materialize()  # two consumers (aggregate + probe): pin the slim
    # projection once instead of re-reading/re-projecting orders per branch

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"k": t["o_custkey"], "s": t["price_cents"]})
            .group_by("k")
            .aggregate([("s", "sum"), ([], "count_all")])
        )
        return pa.table(
            {
                "cust": g["k"],
                "sum_cents": pc.cast(g["s_sum"], pa.int64()),
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    per_cust = (
        oc.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cust")
        .sum(["sum_cents", "n"])
    )
    per_cust = _rename(
        per_cust, {"sum(sum_cents)": "sum_cents", "sum(n)": "n"},
        int64_cols=("sum_cents", "n"),
    )

    joined = drop_empty_blocks(
        oc.join(per_cust, join_type="inner",
                num_partitions=join_partitions(oc, per_cust),
                on=("o_custkey",), right_on=("cust",)),
        pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("price_cents", pa.int64()), ("cust", pa.int64()),
             ("sum_cents", pa.int64()), ("n", pa.int64())]
        ),
    )

    def probe(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("price_cents", pa.int64())]
        )
        if t.num_rows == 0:
            return out_schema.empty_table()
        keep = pc.greater(
            pc.multiply(t["price_cents"], t["n"]), t["sum_cents"]
        )
        t = t.filter(keep)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "price_cents": t["price_cents"],
            },
            schema=out_schema,
        )

    return joined.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# rich_inactive_customers — global-scalar broadcast + anti join (Q22 flavor)
# ---------------------------------------------------------------------------

@op(
    "rich_inactive_customers",
    """
    SELECT c.c_custkey,
           CAST(round(c.c_acctbal * 100) AS BIGINT) AS acctbal_cents
    FROM customer c
    WHERE CAST(round(c.c_acctbal * 100) AS BIGINT)
            * (SELECT count(*) FROM customer)
          > (SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT)) FROM customer)
      AND NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey
                        AND o.o_orderpriority = '1-URGENT')
    """,
)
def rich_inactive_customers(sf_dir: str):
    """TPC-H Q22 flavor: customers with above-average account balance and
    no URGENT orders — a GLOBAL scalar aggregate broadcast into a filter,
    plus an anti join.  ``bal > avg`` lifted to exact integers
    (``bal_cents · N > total_cents``).

    Scale shape: the global (count, sum) reduce to two driver scalars
    (bounded); the order-holder key set is reduced to distinct custkeys
    BEFORE leaving the orders scan, then applied as a vectorized anti
    filter via a native join-free broadcast when small — here the distinct
    keyset is scale-proportional, so it ships as a Dataset and the anti
    join is a left join + null filter."""
    from .util import drop_empty_blocks, join_partitions

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def cust_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                "acctbal_cents": _cents(t["c_acctbal"]),
            }
        )

    cc = cust.map_batches(cust_cents, batch_format="pyarrow", zero_copy_batch=True)
    cc = cc.materialize()  # consumed by the scalar aggregate AND the probe
    from ray.data.aggregate import Count, Sum

    agg = cc.aggregate(Count(), Sum("acctbal_cents"))
    n_cust = int(agg["count()"])
    total_cents = int(agg["sum(acctbal_cents)"] or 0)

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def distinct_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        keys = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({"o_custkey": pa.array(keys, pa.int64())})

    holders = (
        orders.map_batches(distinct_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_custkey")
        .count()
    )

    rich = cc.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.multiply(t["acctbal_cents"], pa.scalar(n_cust, pa.int64())),
                pa.scalar(total_cents, pa.int64()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # left_outer join coalesces the right key into the left key column, so
    # right-side presence is read off the (nullable) count() payload
    joined = drop_empty_blocks(
        rich.join(holders, join_type="left_outer",
                  num_partitions=join_partitions(rich, holders),
                  on=("c_custkey",), right_on=("o_custkey",)),
        pa.schema(
            [("c_custkey", pa.int64()), ("acctbal_cents", pa.int64()),
             ("count()", pa.int64())]
        ),
    )

    def anti(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("c_custkey", pa.int64()), ("acctbal_cents", pa.int64())]
        )
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.filter(pc.is_null(t["count()"]))
        return pa.table(
            {"c_custkey": t["c_custkey"], "acctbal_cents": t["acctbal_cents"]},
            schema=out_schema,
        )

    return joined.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# top_unshipped_orders — TPC-H Q3 shape (segment filter + 3-table join + topk)
# ---------------------------------------------------------------------------

_Q3_SEGMENT = "BUILDING"
_Q3_CUTOFF = "1998-06-01"


@op(
    "top_unshipped_orders",
    f"""
    SELECT l.l_orderkey,
           sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
             AS rev_e4,
           o.o_orderdate
    FROM customer c
    JOIN orders o ON o.o_custkey = c.c_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    WHERE c.c_mktsegment = '{_Q3_SEGMENT}'
      AND o.o_orderdate < TIMESTAMP '{_Q3_CUTOFF}'
      AND l.l_shipdate > TIMESTAMP '{_Q3_CUTOFF}'
    GROUP BY 1, 3
    ORDER BY rev_e4 DESC, l.l_orderkey LIMIT 10
    """,
)
def top_unshipped_orders(sf_dir: str):
    """TPC-H Q3 shape: the 10 highest-value orders from one market segment
    that were placed before the cutoff but still have lineitems shipping
    after it.  Revenue in exact integer e4 units (cents × (100 − disc%)).

    Scale shape: each table is filtered AT ITS SCAN (segment mask,
    order-date mask, ship-date mask) before anything wide happens;
    lineitem — the big table — is pre-aggregated per batch to one row per
    orderkey before its only shuffle; both joins are native hash joins
    with scale-adaptive partitions (the customer side is 1/5 of customers
    — scale-proportional, NOT broadcastable); the final top-10 sorts the
    already-small per-order revenue table."""
    import datetime as _dt

    from .util import drop_empty_blocks, join_partitions

    cutoff = _dt.datetime.fromisoformat(_Q3_CUTOFF)

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    bld = cust.filter(
        lambda r: r["c_mktsegment"] == _Q3_SEGMENT
    ).select_columns(["c_custkey"])

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def before_cutoff(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["o_orderdate"], pa.scalar(cutoff)))

    orders = orders.map_batches(
        before_cutoff, batch_format="pyarrow", zero_copy_batch=True
    )
    qual = drop_empty_blocks(
        orders.join(
            bld,
            join_type="inner",
            num_partitions=join_partitions(orders, bld),
            on=("o_custkey",),
            right_on=("c_custkey",),
        ),
        pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us")), ("c_custkey", pa.int64())]
        ),
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(cutoff)))
        if t.num_rows == 0:
            return pa.schema(
                [("l_orderkey", pa.int64()), ("rev", pa.int64())]
            ).empty_table()
        price_cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_pct = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        rev = price_cents * (100 - disc_pct)
        g = (
            pa.table(
                {"l_orderkey": t["l_orderkey"], "rev": pa.array(rev, pa.int64())}
            )
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev"])

    per_order = _rename(
        li.map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .sum("rev"),
        {"sum(rev)": "rev_e4"},
        int64_cols=("rev_e4",),
    )

    res = drop_empty_blocks(
        per_order.join(
            qual,
            join_type="inner",
            num_partitions=join_partitions(per_order, qual),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("rev_e4", pa.int64()),
             ("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
    ).select_columns(["l_orderkey", "rev_e4", "o_orderdate"])
    return res.sort(["rev_e4", "l_orderkey"], descending=[True, False]).limit(10)


# ---------------------------------------------------------------------------
# returned_items_report — TPC-H Q10 shape (returned revenue per customer)
# ---------------------------------------------------------------------------

_Q10_LO = "1997-01-01"
_Q10_HI = "1997-07-01"


@op(
    "returned_items_report",
    f"""
    SELECT r.c_custkey, c.c_name, n.n_name, r.rev_e4
    FROM (
      SELECT o.o_custkey AS c_custkey,
             sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
               AS rev_e4
      FROM lineitem l
      JOIN orders o ON o.o_orderkey = l.l_orderkey
      WHERE l.l_returnflag = 'R'
        AND o.o_orderdate >= TIMESTAMP '{_Q10_LO}'
        AND o.o_orderdate <  TIMESTAMP '{_Q10_HI}'
      GROUP BY 1
      ORDER BY rev_e4 DESC, c_custkey LIMIT 20
    ) r
    JOIN customer c ON c.c_custkey = r.c_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    """,
)
def returned_items_report(sf_dir: str):
    """TPC-H Q10 shape: the 20 customers who returned the most revenue in
    one order-date window, reported with name and nation.

    Scale shape: lineitem is masked to returnflag='R' and pre-summed per
    orderkey per batch before its only shuffle; the window-filtered orders
    join is a native hash join; the per-customer aggregate is partial+
    final; the top-20 sort runs over the small per-customer table; and
    name/nation are attached to just the 20 winners — customer via a
    bounded is_in scan, nation via a 25-row broadcast lookup — never a
    full-table join after the ranking."""
    import datetime as _dt

    import ray

    from .util import drop_empty_blocks, join_partitions

    lo = _dt.datetime.fromisoformat(_Q10_LO)
    hi = _dt.datetime.fromisoformat(_Q10_HI)

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        if t.num_rows == 0:
            return pa.schema(
                [("l_orderkey", pa.int64()), ("rev", pa.int64())]
            ).empty_table()
        price_cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_pct = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        rev = price_cents * (100 - disc_pct)
        g = (
            pa.table(
                {"l_orderkey": t["l_orderkey"], "rev": pa.array(rev, pa.int64())}
            )
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev"])

    per_order = _rename(
        li.map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .sum("rev"),
        {"sum(rev)": "rev"},
        int64_cols=("rev",),
    )

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def in_window(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
            pc.less(t["o_orderdate"], pa.scalar(hi)),
        )
        return t.filter(m).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(
        in_window, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = drop_empty_blocks(
        per_order.join(
            orders,
            join_type="inner",
            num_partitions=join_partitions(per_order, orders),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("rev", pa.int64()),
             ("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
    )
    per_cust = _rename(
        joined.groupby("o_custkey").sum("rev"), {"sum(rev)": "rev_e4"},
        int64_cols=("rev_e4",),
    )
    top = per_cust.sort(["rev_e4", "o_custkey"], descending=[True, False]).limit(20)
    winners = top.take_all()  # exactly 20 rows
    keys = pa.array([r["o_custkey"] for r in winners], pa.int64())
    revs = {int(r["o_custkey"]): int(r["rev_e4"]) for r in winners}

    cust = (
        read_table(
            sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"]
        )
        .map_batches(
            lambda t, _k=keys: t.filter(pc.is_in(t["c_custkey"], value_set=_k)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )  # bounded: 20 rows
    nations = {
        int(r["n_nationkey"]): r["n_name"]
        for r in read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
        .take_all()  # 25-row dimension table
    }
    return pa.table(
        {
            "c_custkey": pa.array([r["c_custkey"] for r in cust], pa.int64()),
            "c_name": pa.array([r["c_name"] for r in cust], pa.string()),
            "n_name": pa.array(
                [nations[int(r["c_nationkey"])] for r in cust], pa.string()
            ),
            "rev_e4": pa.array(
                [revs[int(r["c_custkey"])] for r in cust], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# events_funnel — ordered multi-step funnel (view -> click -> purchase)
# ---------------------------------------------------------------------------

_FUNNEL_STEPS = ("view", "click", "purchase")


@op(
    "events_funnel",
    """
    WITH v AS (
      SELECT user_id, min(ts) AS t FROM events
      WHERE event_type = 'view' GROUP BY 1
    ),
    c AS (
      SELECT e.user_id, min(e.ts) AS t
      FROM events e JOIN v ON v.user_id = e.user_id AND e.ts > v.t
      WHERE e.event_type = 'click' GROUP BY 1
    ),
    p AS (
      SELECT e.user_id, min(e.ts) AS t
      FROM events e JOIN c ON c.user_id = e.user_id AND e.ts > c.t
      WHERE e.event_type = 'purchase' GROUP BY 1
    )
    SELECT 'view' AS step, count(*)::BIGINT AS n_users FROM v
    UNION ALL SELECT 'click', count(*)::BIGINT FROM c
    UNION ALL SELECT 'purchase', count(*)::BIGINT FROM p
    """,
)
def events_funnel(sf_dir: str):
    """Ordered conversion funnel: users who viewed, then clicked STRICTLY
    after their first view, then purchased strictly after that first
    qualifying click — the product-analytics shape that needs cross-event
    sequencing per user, not just per-type counts.

    Scale shape: the scan keeps only the three funnel event types and two
    columns; one shuffle groups each user's (type, ts) stream; the
    in-group kernel is three numpy min/mask steps; per-user output is ONE
    row of three flags, and the final aggregate is a 3-integer sum.  Same
    per-key-history-fits-one-group caveat as the windowed ops (time-bucket
    hot users at extreme volume)."""
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    typed = ev.filter(lambda r: r["event_type"] in _FUNNEL_STEPS)

    _FLAGS = pa.schema(
        [("user_id", pa.int64()), ("v", pa.int64()), ("c", pa.int64()),
         ("p", pa.int64())]
    )

    def flags(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _FLAGS.empty_table()
        et = group["event_type"].to_numpy(zero_copy_only=False)
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = int(group["user_id"][0].as_py())
        v = c = p = 0
        vt = ts[et == "view"]
        if vt.size:
            v = 1
            t0 = vt.min()
            ct = ts[(et == "click") & (ts > t0)]
            if ct.size:
                c = 1
                t1 = ct.min()
                pt = ts[(et == "purchase") & (ts > t1)]
                if pt.size:
                    p = 1
        return pa.table(
            {"user_id": pa.array([uid], pa.int64()),
             "v": pa.array([v], pa.int64()),
             "c": pa.array([c], pa.int64()),
             "p": pa.array([p], pa.int64())},
            schema=_FLAGS,
        )

    from ray.data.aggregate import Sum

    per_user = typed.groupby("user_id").map_groups(
        flags, batch_format="pyarrow"
    )
    agg = per_user.aggregate(Sum("v"), Sum("c"), Sum("p"))
    return pa.table(
        {
            "step": pa.array(["view", "click", "purchase"], pa.string()),
            "n_users": pa.array(
                [int(agg["sum(v)"] or 0), int(agg["sum(c)"] or 0),
                 int(agg["sum(p)"] or 0)],
                pa.int64(),
            ),
        }
    )


# ---------------------------------------------------------------------------
# forecast_revenue_change — TPC-H Q6 shape (pure filter + global sum)
# ---------------------------------------------------------------------------

_Q6_LO = "1997-01-01"
_Q6_HI = "1998-01-01"


@op(
    "forecast_revenue_change",
    f"""
    SELECT COALESCE(sum(
             CAST(round(l_extendedprice * 100) AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)
           ), 0)::BIGINT AS rev_e4,
           count(*)::BIGINT AS n_items
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{_Q6_LO}'
      AND l_shipdate <  TIMESTAMP '{_Q6_HI}'
      AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
      AND l_quantity < 24
    """,
)
def forecast_revenue_change(sf_dir: str):
    """TPC-H Q6 shape: revenue delta if mid-range discounts were dropped —
    a pure filter + global sum with zero shuffle, the simplest possible
    100 TB op (every batch reduces to two integers).  Revenue in exact e4
    units: cents × discount%, both exact int64 round-trips.
    """
    import datetime as _dt

    lo = _dt.datetime.fromisoformat(_Q6_LO)
    hi = _dt.datetime.fromisoformat(_Q6_HI)

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    _PART = pa.schema([("rev_e4", pa.int64()), ("n_items", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)), pa.int64())
        m = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            ),
            pc.and_(
                pc.and_(pc.greater_equal(disc, 5), pc.less_equal(disc, 7)),
                pc.less(t["l_quantity"], 24),
            ),
        )
        k = t.filter(m)
        if k.num_rows == 0:
            return pa.table(
                {"rev_e4": pa.array([0], pa.int64()),
                 "n_items": pa.array([0], pa.int64())},
                schema=_PART,
            )
        cents = _cents(k["l_extendedprice"]).to_numpy(zero_copy_only=False)
        dpct = _cents(k["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "rev_e4": pa.array([int((cents * dpct).sum())], pa.int64()),
                "n_items": pa.array([k.num_rows], pa.int64()),
            },
            schema=_PART,
        )

    from ray.data.aggregate import Sum

    parts = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.aggregate(Sum("rev_e4"), Sum("n_items"))
    return pa.table(
        {
            "rev_e4": pa.array([int(agg["sum(rev_e4)"] or 0)], pa.int64()),
            "n_items": pa.array([int(agg["sum(n_items)"] or 0)], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# promo_revenue_share — TPC-H Q14 shape (promo revenue fraction, one month)
# ---------------------------------------------------------------------------

_Q14_LO = "1996-03-01"
_Q14_HI = "1996-04-01"


@op(
    "promo_revenue_share",
    f"""
    SELECT sum(CASE WHEN p.p_type = 'PROMO' THEN r.rev_e4 ELSE 0 END)::BIGINT
             AS promo_rev_e4,
           sum(r.rev_e4)::BIGINT AS total_rev_e4,
           100.0 * sum(CASE WHEN p.p_type = 'PROMO' THEN r.rev_e4 ELSE 0 END)
             / sum(r.rev_e4) AS promo_share_pct
    FROM (
      SELECT l_partkey,
             sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))::BIGINT
               AS rev_e4
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '{_Q14_LO}'
        AND l_shipdate <  TIMESTAMP '{_Q14_HI}'
      GROUP BY 1
    ) r
    JOIN part p ON p.p_partkey = r.l_partkey
    """,
)
def promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape: what fraction of one month's revenue came from
    promotional parts.  Revenue in exact integer e4 units (cents ×
    (100 − disc%)); the share is ONE double division of two exact int
    sums, so the value hash is bit-deterministic.

    Scale shape: lineitem is filtered at the scan to the month window and
    pre-aggregated per batch to one row per partkey before its only
    shuffle; part — scale-proportional, NOT broadcastable — joins with a
    native hash join at adaptive parallelism; the CASE/total sums are
    per-batch integer partials that reduce to two scalars."""
    import datetime as _dt

    from .util import drop_empty_blocks, join_partitions

    lo = _dt.datetime.fromisoformat(_Q14_LO)
    hi = _dt.datetime.fromisoformat(_Q14_HI)

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        if t.num_rows == 0:
            return pa.schema(
                [("l_partkey", pa.int64()), ("rev", pa.int64())]
            ).empty_table()
        cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {"l_partkey": t["l_partkey"],
                 "rev": pa.array(cents * (100 - disc), pa.int64())}
            )
            .group_by("l_partkey")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_partkey", "rev"])

    per_part = _rename(
        li.map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_partkey")
        .sum("rev"),
        {"sum(rev)": "rev_e4"},
        int64_cols=("rev_e4",),
    )

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    joined = drop_empty_blocks(
        per_part.join(
            part,
            join_type="inner",
            num_partitions=join_partitions(per_part, part),
            on=("l_partkey",),
            right_on=("p_partkey",),
        ),
        pa.schema(
            [("l_partkey", pa.int64()), ("rev_e4", pa.int64()),
             ("p_partkey", pa.int64()), ("p_type", pa.string())]
        ),
    )

    _PART = pa.schema([("promo", pa.int64()), ("total", pa.int64())])

    def share_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        is_promo = pc.equal(t["p_type"], "PROMO").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "promo": pa.array([int(rev[is_promo].sum())], pa.int64()),
                "total": pa.array([int(rev.sum())], pa.int64()),
            },
            schema=_PART,
        )

    from ray.data.aggregate import Sum

    agg = joined.map_batches(
        share_partial, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("promo"), Sum("total"))
    promo = int(agg["sum(promo)"] or 0)
    total = int(agg["sum(total)"] or 0)
    return pa.table(
        {
            "promo_rev_e4": pa.array([promo], pa.int64()),
            "total_rev_e4": pa.array([total], pa.int64()),
            "promo_share_pct": pa.array(
                [100.0 * promo / total if total else None], pa.float64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# large_volume_orders — TPC-H Q18 shape (orders with huge total quantity)
# ---------------------------------------------------------------------------

_Q18_QTY = 190


@op(
    "large_volume_orders",
    f"""
    SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
           CAST(round(o.o_totalprice * 100) AS BIGINT) AS totalprice_cents,
           q.sum_qty
    FROM (
      SELECT l_orderkey, sum(CAST(l_quantity AS BIGINT))::BIGINT AS sum_qty
      FROM lineitem GROUP BY 1 HAVING sum(CAST(l_quantity AS BIGINT)) > {_Q18_QTY}
    ) q
    JOIN orders o ON o.o_orderkey = q.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    ORDER BY totalprice_cents DESC, o.o_orderkey LIMIT 100
    """,
)
def large_volume_orders(sf_dir: str):
    """TPC-H Q18 shape: the 100 biggest-ticket orders among those whose
    total line quantity exceeds a threshold (a HAVING over a big-table
    aggregate, then enrichment joins).  Quantities are whole numbers in
    this corpus, so ``sum_qty`` is an exact int64; the ORDER BY carries
    an o_orderkey tiebreak so the top-100 SET is deterministic.

    Scale shape: lineitem pre-aggregates (orderkey, qty) per batch before
    its only shuffle; the HAVING filter runs on the small aggregate
    BEFORE the orders join (only qualifying orders — a tiny fraction —
    enter the join); the customer name attaches to just the top-100
    winners via a bounded is_in lookup, never a full join."""
    from .util import drop_empty_blocks, join_partitions

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {"l_orderkey": t["l_orderkey"],
                 "qty": pc.cast(t["l_quantity"], pa.int64())}
            )
            .group_by("l_orderkey")
            .aggregate([("qty", "sum")])
        )
        return g.rename_columns(["l_orderkey", "qty"])

    per_order = _rename(
        li.map_batches(qty_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .sum("qty"),
        {"sum(qty)": "sum_qty"},
        int64_cols=("sum_qty",),
    ).filter(lambda r: r["sum_qty"] > _Q18_QTY)

    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    joined = drop_empty_blocks(
        per_order.join(
            orders,
            join_type="inner",
            num_partitions=join_partitions(per_order, orders),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        # Ray's join merges the right key into the left key column, so the
        # joined schema carries l_orderkey (== o_orderkey) once.
        pa.schema(
            [("l_orderkey", pa.int64()), ("sum_qty", pa.int64()),
             ("o_custkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us")), ("o_totalprice", pa.float64())]
        ),
    )

    def with_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "o_orderkey": t["l_orderkey"],
                "o_orderdate": t["o_orderdate"],
                "totalprice_cents": _cents(t["o_totalprice"]),
                "sum_qty": t["sum_qty"],
            }
        )

    top = (
        joined.map_batches(with_cents, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["totalprice_cents", "o_orderkey"], descending=[True, False])
        .limit(100)
        .to_pandas()  # ≤100 rows — bounded
    )

    keys = pa.array(top["o_custkey"].tolist(), pa.int64())
    names = (
        read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
        .map_batches(
            lambda t, _k=keys: t.filter(pc.is_in(t["c_custkey"], value_set=_k)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )  # bounded: ≤100 rows
    name_of = {int(r["c_custkey"]): r["c_name"] for r in names}
    top.insert(0, "c_name", top["o_custkey"].map(name_of))
    return pa.Table.from_pandas(top, preserve_index=False)


# ---------------------------------------------------------------------------
# disjunctive_revenue — TPC-H Q19 shape (OR-of-conjunctions filter join)
# ---------------------------------------------------------------------------

_Q19_CLAUSES = (
    ("Brand#12", 1, 5, 1, 11),    # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#23", 1, 10, 10, 20),
    ("Brand#34", 1, 15, 20, 30),
)


def _q19_sql() -> str:
    ors = " OR ".join(
        f"(p.p_brand = '{b}' AND p.p_size BETWEEN {slo} AND {shi} "
        f"AND l.l_quantity BETWEEN {qlo} AND {qhi})"
        for b, slo, shi, qlo, qhi in _Q19_CLAUSES
    )
    return f"""
    SELECT sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
             AS rev_e4,
           count(*)::BIGINT AS n_items
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    WHERE {ors}
    """


@op("disjunctive_revenue", _q19_sql())
def disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue from lineitems matching ANY of three
    (brand, size-range, quantity-range) conjunctions — the classic
    OR-of-ANDs predicate that defeats naive pushdown.  Revenue in exact
    integer e4 units.

    Scale shape: the part side is filtered to rows matching any
    brand+size clause BEFORE the join (a small fraction, but still
    scale-proportional → native hash join, not a broadcast); lineitem is
    pre-filtered at the scan to the qty envelope [min qty_lo, max qty_hi]
    — the only rows any clause could accept; the residual disjunction
    (clause-specific brand × qty) is one vectorized mask per joined
    batch; every batch reduces to two integers."""
    from .util import drop_empty_blocks, join_partitions

    qty_lo = min(c[3] for c in _Q19_CLAUSES)
    qty_hi = max(c[4] for c in _Q19_CLAUSES)

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])

    def part_filter(t: pa.Table) -> pa.Table:
        m = None
        for b, slo, shi, _, _ in _Q19_CLAUSES:
            c = pc.and_(
                pc.equal(t["p_brand"], b),
                pc.and_(
                    pc.greater_equal(t["p_size"], slo),
                    pc.less_equal(t["p_size"], shi),
                ),
            )
            m = c if m is None else pc.or_(m, c)
        return t.filter(m)

    # Heal before the join: the brand+size filter can empty whole blocks
    # (schema-less in Ray 2.49), which crashes the join's finalize.
    cand_parts = drop_empty_blocks(
        part.map_batches(part_filter, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema(
            [("p_partkey", pa.int64()), ("p_brand", pa.string()),
             ("p_size", pa.int64())]
        ),
    )

    zero = pa.table(
        {"rev_e4": pa.array([0], pa.int64()),
         "n_items": pa.array([0], pa.int64())}
    )
    # Short-circuit an empty candidate set (legitimate at tiny scale):
    # a fully-empty join side is stored schema-less and crashes the join.
    # count() here reads bundle metadata of the already-healed blocks.
    if cand_parts.count() == 0:
        return zero

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def li_filter(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(
                pc.greater_equal(t["l_quantity"], float(qty_lo)),
                pc.less_equal(t["l_quantity"], float(qty_hi)),
            )
        )

    li = li.map_batches(li_filter, batch_format="pyarrow", zero_copy_batch=True)

    joined = drop_empty_blocks(
        li.join(
            cand_parts,
            join_type="inner",
            num_partitions=join_partitions(li, cand_parts),
            on=("l_partkey",),
            right_on=("p_partkey",),
        ),
        pa.schema(
            [("l_partkey", pa.int64()), ("l_quantity", pa.float64()),
             ("l_extendedprice", pa.float64()), ("l_discount", pa.float64()),
             ("p_partkey", pa.int64()), ("p_brand", pa.string()),
             ("p_size", pa.int64())]
        ),
    )

    _PART = pa.schema([("rev_e4", pa.int64()), ("n_items", pa.int64())])

    def rev_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        m = None
        for b, slo, shi, qlo, qhi in _Q19_CLAUSES:
            c = pc.and_(
                pc.and_(
                    pc.equal(t["p_brand"], b),
                    pc.and_(
                        pc.greater_equal(t["p_size"], slo),
                        pc.less_equal(t["p_size"], shi),
                    ),
                ),
                pc.and_(
                    pc.greater_equal(t["l_quantity"], float(qlo)),
                    pc.less_equal(t["l_quantity"], float(qhi)),
                ),
            )
            m = c if m is None else pc.or_(m, c)
        k = t.filter(m)
        if k.num_rows == 0:
            return _PART.empty_table()
        cents = _cents(k["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(k["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "rev_e4": pa.array([int((cents * (100 - disc)).sum())], pa.int64()),
                "n_items": pa.array([k.num_rows], pa.int64()),
            },
            schema=_PART,
        )

    from ray.data.aggregate import Sum

    agg = joined.map_batches(
        rev_partial, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("rev_e4"), Sum("n_items"))
    return pa.table(
        {
            "rev_e4": pa.array([int(agg["sum(rev_e4)"] or 0)], pa.int64()),
            "n_items": pa.array([int(agg["sum(n_items)"] or 0)], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# customer_order_distribution — TPC-H Q13 shape (order-count histogram)
# ---------------------------------------------------------------------------


@op(
    "customer_order_distribution",
    """
    SELECT c_count, count(*)::BIGINT AS n_custs FROM (
      SELECT c.c_custkey, count(o.o_orderkey)::BIGINT AS c_count
      FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
      GROUP BY 1
    ) GROUP BY 1
    """,
)
def customer_order_distribution(sf_dir: str):
    """TPC-H Q13 shape: the distribution of per-customer order counts,
    INCLUDING the zero-order bucket (the left-join semantics that a plain
    orders groupby misses).

    Scale shape: orders pre-aggregates (custkey, n) per batch before its
    only shuffle; the histogram of those counts is a second, tiny groupby
    (≤ max order count keys); the zero bucket is exact scalar arithmetic —
    total customers (a metadata count) minus customers having orders —
    relying on the corpus's FK integrity (every o_custkey exists in
    customer; TPC-H guarantees this), so no customer-side join or
    anti-join shuffle is needed at any scale."""
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.table(
            {"o_custkey": g["o_custkey"],
             "n": pc.cast(g["count_all"], pa.int64())}
        )

    per_cust = _rename(
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_custkey")
        .sum("n"),
        {"sum(n)": "c_count"},
        int64_cols=("c_count",),
    )

    _HIST = pa.schema([("c_count", pa.int64()), ("one", pa.int64())])

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _HIST.empty_table()
        g = t.select(["c_count"]).group_by("c_count").aggregate([([], "count_all")])
        return pa.table(
            {"c_count": g["c_count"],
             "one": pc.cast(g["count_all"], pa.int64())},
            schema=_HIST,
        )

    hist = (
        per_cust.map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_count")
        .aggregate(Sum("one"))
    )
    out = _rename(hist, {"sum(one)": "n_custs"}, int64_cols=("n_custs",)).to_pandas()

    n_customers = read_table(sf_dir, "customer", columns=["c_custkey"]).count()
    n_with = int(out["n_custs"].sum())
    n_zero = n_customers - n_with
    if n_zero > 0:
        out.loc[len(out)] = {"c_count": 0, "n_custs": n_zero}
    return pa.table(
        {
            "c_count": pa.array(out["c_count"].astype("int64"), pa.int64()),
            "n_custs": pa.array(out["n_custs"].astype("int64"), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# top_supplier_revenue — TPC-H Q15 shape (argmax-with-ties over a window)
# ---------------------------------------------------------------------------

_Q15_LO = "1996-01-01"
_Q15_HI = "1996-04-01"


@op(
    "top_supplier_revenue",
    f"""
    WITH rev AS (
      SELECT l_suppkey,
             sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))::BIGINT
               AS total_rev_e4
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}'
        AND l_shipdate <  TIMESTAMP '{_Q15_HI}'
      GROUP BY 1
    )
    SELECT s.s_suppkey, s.s_name, r.total_rev_e4
    FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
    WHERE r.total_rev_e4 = (SELECT max(total_rev_e4) FROM rev)
    """,
)
def top_supplier_revenue(sf_dir: str):
    """TPC-H Q15 shape: the supplier(s) with the maximum revenue in a
    three-month window — the argmax-WITH-TIES semantics (every supplier
    achieving the max is emitted, not an arbitrary one), exact because
    revenue is an integer e4 sum.

    Scale shape: lineitem filters at the scan and pre-aggregates
    (suppkey, rev) per batch before its only shuffle; the max is a scalar
    aggregate over the per-supplier table; winners (≥1 row, almost always
    1) are filtered vectorized and their names attach via a bounded is_in
    lookup — the supplier table is never shuffled."""
    import datetime as _dt

    from ray.data.aggregate import Max

    lo = _dt.datetime.fromisoformat(_Q15_LO)
    hi = _dt.datetime.fromisoformat(_Q15_HI)

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        if t.num_rows == 0:
            return pa.schema(
                [("l_suppkey", pa.int64()), ("rev", pa.int64())]
            ).empty_table()
        cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {"l_suppkey": t["l_suppkey"],
                 "rev": pa.array(cents * (100 - disc), pa.int64())}
            )
            .group_by("l_suppkey")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_suppkey", "rev"])

    per_supp = _rename(
        li.map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_suppkey")
        .sum("rev"),
        {"sum(rev)": "total_rev_e4"},
        int64_cols=("total_rev_e4",),
    )

    best = per_supp.aggregate(Max("total_rev_e4"))["max(total_rev_e4)"]
    if best is None:
        return pa.schema(
            [("s_suppkey", pa.int64()), ("s_name", pa.string()),
             ("total_rev_e4", pa.int64())]
        ).empty_table()
    best = int(best)
    winners = per_supp.filter(
        lambda r, _b=best: r["total_rev_e4"] == _b
    ).take_all()  # ≥1 row, ties only — bounded

    keys = pa.array([int(r["l_suppkey"]) for r in winners], pa.int64())
    names = (
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
        .map_batches(
            lambda t, _k=keys: t.filter(pc.is_in(t["s_suppkey"], value_set=_k)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )
    name_of = {int(r["s_suppkey"]): r["s_name"] for r in names}
    return pa.table(
        {
            "s_suppkey": pa.array([int(r["l_suppkey"]) for r in winners], pa.int64()),
            "s_name": pa.array(
                [name_of[int(r["l_suppkey"])] for r in winners], pa.string()
            ),
            "total_rev_e4": pa.array(
                [int(r["total_rev_e4"]) for r in winners], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# nation_trade_volume — TPC-H Q7 shape (nation-pair shipping volume by year)
# ---------------------------------------------------------------------------

_Q7_NATIONS = ("NATION_1", "NATION_2")


@op(
    "nation_trade_volume",
    f"""
    SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
           CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
           sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
             AS rev_e4
    FROM lineitem l
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation ns ON ns.n_nationkey = s.s_nationkey
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN nation nc ON nc.n_nationkey = c.c_nationkey
    WHERE ((ns.n_name = '{_Q7_NATIONS[0]}' AND nc.n_name = '{_Q7_NATIONS[1]}')
        OR (ns.n_name = '{_Q7_NATIONS[1]}' AND nc.n_name = '{_Q7_NATIONS[0]}'))
    GROUP BY 1, 2, 3
    """,
)
def nation_trade_volume(sf_dir: str):
    """TPC-H Q7 shape: shipping volume between two nations, split by
    direction (supplier nation → customer nation) and ship year.  Exact
    integer e4 revenue.

    Scale shape: the nation dimension (25 rows) collapses to broadcast
    nationkey sets, so supplier and customer filter AT THE SCAN to the
    two nations (2/25 of rows) before anything wide; lineitem joins the
    filtered supplier side first (dropping ~23/25 of lineitems), then
    pre-aggregates per (orderkey, supp_nation, year) before the orders
    join; orders ⋈ filtered-customer produces (orderkey, cust_nation) and
    the final join + direction filter reduce to ≤ 2 × years rows."""
    from .util import drop_empty_blocks, join_partitions

    nations = {
        int(r["n_nationkey"]): r["n_name"]
        for r in read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
        .take_all()  # 25-row dimension table
    }
    wanted_keys = pa.array(
        [k for k, v in nations.items() if v in _Q7_NATIONS], pa.int64()
    )

    supp = (
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        .map_batches(
            lambda t, _k=wanted_keys: t.filter(
                pc.is_in(t["s_nationkey"], value_set=_k)
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    supp = drop_empty_blocks(
        supp, pa.schema([("s_suppkey", pa.int64()), ("s_nationkey", pa.int64())])
    )

    cust = (
        read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        .map_batches(
            lambda t, _k=wanted_keys: t.filter(
                pc.is_in(t["c_nationkey"], value_set=_k)
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    cust = drop_empty_blocks(
        cust, pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())])
    )

    _OUT = pa.schema(
        [("supp_nation", pa.string()), ("cust_nation", pa.string()),
         ("l_year", pa.int64()), ("rev_e4", pa.int64())]
    )
    if supp.count() == 0 or cust.count() == 0:
        return _OUT.empty_table()

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
    )
    li_s = drop_empty_blocks(
        li.join(
            supp,
            join_type="inner",
            num_partitions=join_partitions(li, supp),
            on=("l_suppkey",),
            right_on=("s_suppkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("l_extendedprice", pa.float64()), ("l_discount", pa.float64()),
             ("l_shipdate", pa.timestamp("us")), ("s_nationkey", pa.int64())]
        ),
    )

    _LPART = pa.schema(
        [("l_orderkey", pa.int64()), ("supp_key", pa.int64()),
         ("l_year", pa.int64()), ("rev", pa.int64())]
    )

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LPART.empty_table()
        cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "supp_key": t["s_nationkey"],
                    "l_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
                    "rev": pa.array(cents * (100 - disc), pa.int64()),
                }
            )
            .group_by(["l_orderkey", "supp_key", "l_year"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "supp_key", "l_year", "rev"])

    li_agg = li_s.map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ord_c = drop_empty_blocks(
        orders.join(
            cust,
            join_type="inner",
            num_partitions=join_partitions(orders, cust),
            on=("o_custkey",),
            right_on=("c_custkey",),
        ),
        pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("c_nationkey", pa.int64())]
        ),
    ).select_columns(["o_orderkey", "c_nationkey"])

    joined = drop_empty_blocks(
        li_agg.join(
            ord_c,
            join_type="inner",
            num_partitions=join_partitions(li_agg, ord_c),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("supp_key", pa.int64()),
             ("l_year", pa.int64()), ("rev", pa.int64()),
             ("c_nationkey", pa.int64())]
        ),
    )

    _GPART = pa.schema(
        [("supp_key", pa.int64()), ("cust_key", pa.int64()),
         ("l_year", pa.int64()), ("rev", pa.int64())]
    )

    def direction_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _GPART.empty_table()
        t = t.filter(pc.not_equal(t["supp_key"], t["c_nationkey"]))
        if t.num_rows == 0:
            return _GPART.empty_table()
        g = (
            pa.table(
                {
                    "supp_key": t["supp_key"],
                    "cust_key": t["c_nationkey"],
                    "l_year": t["l_year"],
                    "rev": t["rev"],
                }
            )
            .group_by(["supp_key", "cust_key", "l_year"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["supp_key", "cust_key", "l_year", "rev"])

    agg = (
        joined.map_batches(
            direction_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["supp_key", "cust_key", "l_year"])
        .sum("rev")
    ).to_pandas()  # ≤ 2 directions × years rows — bounded

    return pa.table(
        {
            "supp_nation": pa.array(
                [nations[int(k)] for k in agg["supp_key"]], pa.string()
            ),
            "cust_nation": pa.array(
                [nations[int(k)] for k in agg["cust_key"]], pa.string()
            ),
            "l_year": pa.array(agg["l_year"].astype("int64"), pa.int64()),
            "rev_e4": pa.array(
                agg["sum(rev)"].round().astype("int64"), pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# weekly_retention — cohort retention triangle over the events stream
# ---------------------------------------------------------------------------


@op(
    "weekly_retention",
    """
    WITH fw AS (
      SELECT user_id, date_trunc('week', min(ts)) AS cohort
      FROM events GROUP BY 1
    ),
    act AS (
      SELECT DISTINCT user_id, date_trunc('week', ts) AS w FROM events
    )
    SELECT CAST(fw.cohort AS TIMESTAMP) AS cohort_week,
           date_diff('day', fw.cohort, act.w) // 7 AS week_offset,
           count(*)::BIGINT AS n_users
    FROM act JOIN fw ON fw.user_id = act.user_id
    GROUP BY 1, 2
    """,
)
def weekly_retention(sf_dir: str):
    """Cohort retention triangle: users grouped by the ISO week of their
    first event; for each cohort, how many were active k weeks later —
    the standard product-analytics retention report.

    Scale shape: two per-batch partial reductions over ONE events scan
    shape — (user, min ts) partials → groupby min gives the cohort;
    distinct (user, week) partials → groupby dedup gives activity — then
    one native hash join on user_id and a final bounded groupby
    (≤ weeks² triangle rows).  Week truncation and the integer week
    offset are exact integer arithmetic on epoch days, bit-deterministic
    in any order."""
    from ray.data.aggregate import Min

    from .util import drop_empty_blocks, join_partitions

    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    _WEEK_US = 7 * 86400 * 1_000_000

    def _week_floor(ts: pa.ChunkedArray) -> pa.Array:
        return pc.floor_temporal(ts, unit="week", week_starts_monday=True)

    # --- cohort: first-event timestamp per user (min partials) -------------
    def min_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([("ts", "min")])
        return g.rename_columns(["user_id", "first_ts"])

    first = _rename(
        ev.map_batches(min_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Min("first_ts")),
        {"min(first_ts)": "first_ts"},
    )

    def to_cohort(t: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": t["user_id"], "cohort_week": _week_floor(t["first_ts"])}
        )

    cohorts = first.map_batches(
        to_cohort, batch_format="pyarrow", zero_copy_batch=True
    )

    # --- activity: distinct (user, week) pairs (distinct partials) ---------
    def week_partial(t: pa.Table) -> pa.Table:
        pairs = (
            pa.table({"user_id": t["user_id"], "w": _week_floor(t["ts"])})
            .group_by(["user_id", "w"])
            .aggregate([])
        )
        return pairs

    weeks = (
        ev.map_batches(week_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "w"])
        .count()
        .select_columns(["user_id", "w"])
    )

    joined = drop_empty_blocks(
        weeks.join(
            cohorts,
            join_type="inner",
            num_partitions=join_partitions(weeks, cohorts),
            on=("user_id",),
            right_on=("user_id",),
        ),
        pa.schema(
            [("user_id", pa.int64()), ("w", pa.timestamp("us")),
             ("cohort_week", pa.timestamp("us"))]
        ),
    )

    _PART = pa.schema(
        [("cohort_week", pa.timestamp("us")), ("week_offset", pa.int64()),
         ("one", pa.int64())]
    )

    def offset_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        # Ray's groupby shuffle can downcast timestamps (us → s through its
        # numpy path) — normalize BOTH sides to epoch-us before the integer
        # subtraction, or the offsets mix units
        w_us = pc.cast(t["w"], pa.timestamp("us"))
        c_us = pc.cast(t["cohort_week"], pa.timestamp("us"))
        w = pc.cast(w_us, pa.int64()).to_numpy(zero_copy_only=False)
        c = pc.cast(c_us, pa.int64()).to_numpy(zero_copy_only=False)
        off = (w - c) // _WEEK_US
        g = (
            pa.table(
                {
                    "cohort_week": c_us,
                    "week_offset": pa.array(off, pa.int64()),
                    "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["cohort_week", "week_offset"])
            .aggregate([("one", "sum")])
        )
        return g.rename_columns(["cohort_week", "week_offset", "one"])

    from ray.data.aggregate import Sum

    agg = (
        joined.map_batches(
            offset_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("one"))
    )
    return _rename(agg, {"sum(one)": "n_users"}, int64_cols=("n_users",))


# ---------------------------------------------------------------------------
# covisit_counts — item co-occurrence (the recommender candidate generator)
# ---------------------------------------------------------------------------

_COVISIT_K = 50
# Hyperactive users (bots/crawlers) make pair emission quadratic in their
# distinct-item count and concentrate weight on junk pairs; the standard
# covisit safeguard drops them.  20 bites at sf0.1 (max 24, p99 21) and is
# vacuous below, so both the capped and uncapped paths stay driver-tested.
_COVISIT_USER_CAP = 20


@op(
    "covisit_counts",
    f"""
    WITH it0 AS (
      SELECT DISTINCT user_id, item FROM (
        SELECT user_id,
               TRY_CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS item
        FROM events WHERE event_type = 'view'
      ) WHERE item IS NOT NULL
    ),
    uc AS (
      SELECT user_id FROM it0 GROUP BY 1 HAVING count(*) <= {_COVISIT_USER_CAP}
    ),
    it AS (SELECT it0.* FROM it0 JOIN uc ON uc.user_id = it0.user_id)
    SELECT item_a, item_b, n_users FROM (
      SELECT a.item AS item_a, b.item AS item_b, count(*)::BIGINT AS n_users
      FROM it a JOIN it b ON a.user_id = b.user_id AND a.item < b.item
      GROUP BY 1, 2
    ) ORDER BY n_users DESC, item_a, item_b LIMIT {_COVISIT_K}
    """,
)
def covisit_counts(sf_dir: str):
    """Item co-visitation: the top-{50} item pairs viewed by the most
    common users — the classic recommender candidate-generation
    co-occurrence matrix.  The item id is parsed from the event props
    (one RE2 kernel per batch, semantics shared with the oracle).

    Scale shape: distinct (user, item) partials reduce each batch before
    the one groupby-by-user shuffle; pair emission is a vectorized
    np.triu per user group (bounded by the per-user distinct-item count —
    cap or sample hyperactive users at extreme skew, same caveat as the
    windowed ops); pair counts pre-aggregate per batch before the small
    pair groupby, and the final top-k carries a full deterministic
    tie-break."""
    from .util import drop_empty_blocks

    # schema pin for the zero-pair regime (sf1 stress finding: 10× events
    # over the same user population puts EVERY user over the hyperactive
    # cap, so the pair set is legitimately empty — and Ray 2.49's sort
    # loses the schema of an all-empty input); pinned AFTER sort/limit so
    # nothing downstream can drop it again, at the cost of materializing
    # ≤ _COVISIT_K rows
    return drop_empty_blocks(
        _covisit_pair_counts(sf_dir)
        .sort(["n_users", "item_a", "item_b"], descending=[True, False, False])
        .limit(_COVISIT_K),
        pa.schema(
            [("item_a", pa.int64()), ("item_b", pa.int64()), ("n_users", pa.int64())]
        ),
    )


def _covisit_pair_counts(sf_dir: str):
    """Shared covisitation kernel: distinct (user, item) → unordered item
    pairs → (item_a, item_b, n_users) counts dataset (covisit_counts takes
    the top-k of it; item_pagerank builds its graph from it)."""
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", columns=["user_id", "event_type", "props"])

    _UI = pa.schema([("user_id", pa.int64()), ("item", pa.int64())])

    def ui_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "view"))
        if t.num_rows == 0:
            return _UI.empty_table()
        extracted = pc.extract_regex(
            t["props"].combine_chunks(), pattern="(?P<i>[0-9]+)"
        )
        item = pc.cast(pc.struct_field(extracted, "i"), pa.int64())
        # digit-less props extract to null (ADVICE r3): drop them here,
        # mirroring the oracle's TRY_CAST + IS NOT NULL — a null item would
        # reach emit_pairs' int64 arrays as garbage otherwise
        return (
            pa.table({"user_id": t["user_id"], "item": item}, schema=_UI)
            .filter(pc.is_valid(item))
            .group_by(["user_id", "item"])
            .aggregate([])
        )

    ui = (
        ev.map_batches(ui_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "item"])
        .count()
        .select_columns(["user_id", "item"])
    )

    _PAIRS = pa.schema(
        [("item_a", pa.int64()), ("item_b", pa.int64()), ("one", pa.int64())]
    )

    def emit_pairs(group: pa.Table) -> pa.Table:
        items = np.unique(group["item"].to_numpy(zero_copy_only=False))
        if items.size < 2 or items.size > _COVISIT_USER_CAP:
            # hyperactive user: dropped, mirroring the oracle's HAVING cap
            return _PAIRS.empty_table()
        ia, ib = np.triu_indices(items.size, k=1)
        return pa.table(
            {
                "item_a": pa.array(items[ia], pa.int64()),
                "item_b": pa.array(items[ib], pa.int64()),
                "one": pa.array(np.ones(ia.size, dtype=np.int64)),
            },
            schema=_PAIRS,
        )

    pairs = ui.groupby("user_id").map_groups(emit_pairs, batch_format="pyarrow")

    def pair_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIRS.empty_table()
        g = t.group_by(["item_a", "item_b"]).aggregate([("one", "sum")])
        return g.rename_columns(["item_a", "item_b", "one"])

    return _rename(
        pairs.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("one")),
        {"sum(one)": "n_users"},
        int64_cols=("n_users",),
    )


# ---------------------------------------------------------------------------
# item_pagerank — iterative graph algorithm over the covisitation graph
# ---------------------------------------------------------------------------
# Integer-exact damped PageRank: ranks live in fixed-point units (SCALE),
# each neighbor contribution is ONE floor division (r*85) // (100*deg) and
# the update is an integer sum — bit-identical on both sides regardless of
# summation order (the repo's float-safety policy, ops.py docstring).
# Edge set: covisit pairs whose weight exceeds the exact index-based p90 of
# the weight multiset (value at index ((cnt-1)*9)//10 ascending — the same
# exact-quantile definition length_deciles uses), so the fixture
# discriminates at every testdata scale without a scale-tuned constant.

_PR_SCALE = 1_000_000_000_000  # fixed-point unit for rank values
_PR_BASE = (_PR_SCALE * 15) // 100  # (1-d)·SCALE with d = 0.85
_PR_ITERS = 3
_PR_TOPN = 20

_PR_EDGES_SQL = f"""
    WITH it0 AS (
      SELECT DISTINCT user_id, item FROM (
        SELECT user_id,
               TRY_CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS item
        FROM events WHERE event_type = 'view'
      ) WHERE item IS NOT NULL
    ),
    uc AS (
      SELECT user_id FROM it0 GROUP BY 1 HAVING count(*) <= {_COVISIT_USER_CAP}
    ),
    it AS (SELECT it0.* FROM it0 JOIN uc ON uc.user_id = it0.user_id),
    p AS (
      SELECT a.item AS ia, b.item AS ib, count(*)::BIGINT AS n
      FROM it a JOIN it b ON a.user_id = b.user_id AND a.item < b.item
      GROUP BY 1, 2
    ),
    wcnt AS (SELECT count(*) AS c FROM p),
    thr AS (
      SELECT n AS t FROM (
        SELECT n, row_number() OVER (ORDER BY n) AS rn FROM p
      ) q, wcnt WHERE rn - 1 = ((wcnt.c - 1) * 9) // 10
    ),
    keep AS (SELECT ia, ib FROM p, thr WHERE p.n > thr.t),
    edges AS (
      SELECT ia AS src, ib AS dst FROM keep
      UNION ALL
      SELECT ib AS src, ia AS dst FROM keep
    ),
    deg AS (SELECT src, count(*)::BIGINT AS d FROM edges GROUP BY 1)
"""


def _pagerank_sql() -> str:
    iters = [f"r0 AS (SELECT src AS item, CAST({_PR_SCALE} AS BIGINT) AS r FROM deg)"]
    for k in range(1, _PR_ITERS + 1):
        iters.append(
            f"""r{k} AS (
      SELECT e.dst AS item,
             CAST({_PR_BASE} + sum((r.r * 85) // (100 * d.d)) AS BIGINT) AS r
      FROM edges e
      JOIN r{k - 1} r ON r.item = e.src
      JOIN deg d ON d.src = e.src
      GROUP BY 1
    )"""
        )
    return f"""
    {_PR_EDGES_SQL},
    {", ".join(iters)}
    SELECT item, r AS rank_scaled FROM r{_PR_ITERS}
    ORDER BY r DESC, item LIMIT {_PR_TOPN}
    """


def _covisit_graph_pairs(sf_dir: str):
    """Shared covisit GRAPH edge source: the pair-counts dataset plus the
    exact index-based p90 weight threshold (keep n_users > thr — the
    `keep` CTE of _PR_EDGES_SQL).  Returns (pairs_dataset, thr), or
    (None, 0) on an empty pair set.  The threshold reduces to a tiny
    (weight → count) histogram like length_deciles — the histogram, not
    the pair set, reaches the driver."""
    from ray.data.aggregate import Sum

    pairs = _covisit_pair_counts(sf_dir)
    hist = (
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "n": t["n_users"],
                    "c": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("n")
        .aggregate(Sum("c"))
        .take_all()
    )  # distinct-weight-sized, NOT pair-sized
    if not hist:
        return None, 0
    vals = np.array(sorted((int(r["n"]), int(r["sum(c)"])) for r in hist))
    cum = np.cumsum(vals[:, 1])
    thr = int(vals[np.searchsorted(cum, (int(cum[-1]) - 1) * 9 // 10 + 1), 0])
    return pairs, thr


@op("item_pagerank", _pagerank_sql())
def item_pagerank(sf_dir: str):
    """Damped PageRank ({_PR_ITERS} iterations, d=0.85) over the item
    covisitation graph — the iterative-graph-algorithm class (recommender
    item authority), exact by integer fixed-point arithmetic.

    Scale shape: the pair counts reuse the covisit kernel (one groupby-by-
    user shuffle); the weight-p90 threshold reduces to a tiny (weight →
    count) histogram like length_deciles — the histogram, not the pair
    set, reaches the driver.  Per iteration, the rank and degree maps are
    BROADCAST (one ray.put, item catalogs are bounded — here ≤100, at web
    scale the catalog still fits a worker heap) while the EDGE set stays
    distributed: each batch computes its edges' contributions vectorized
    and pre-aggregates by dst before the one small groupby-sum per
    round.  No edge-sized state ever reaches the driver; per round only
    |items| rows do (documented bounded take_all)."""
    import ray

    from ray.data.aggregate import Sum

    pairs, thr = _covisit_graph_pairs(sf_dir)
    _OUT = pa.schema([("item", pa.int64()), ("rank_scaled", pa.int64())])
    if pairs is None:
        return _OUT.empty_table()

    _EDGE = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def symmetrize(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n_users"], thr))
        if t.num_rows == 0:
            return _EDGE.empty_table()
        a = t["item_a"].to_numpy(zero_copy_only=False)
        b = t["item_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": np.concatenate([a, b]),
                "dst": np.concatenate([b, a]),
            },
            schema=_EDGE,
        )

    edges = pairs.map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused every iteration; edge set ≪ input events

    deg_rows = edges.groupby("src").count().take_all()  # ≤ |catalog| rows
    if not deg_rows:
        return _OUT.empty_table()
    items = np.array(sorted(int(r["src"]) for r in deg_rows), dtype=np.int64)
    deg = np.zeros(items.size, dtype=np.int64)
    for r in deg_rows:
        deg[np.searchsorted(items, int(r["src"]))] = int(r["count()"])
    ranks = np.full(items.size, _PR_SCALE, dtype=np.int64)

    for _ in range(_PR_ITERS):
        state_ref = ray.put((items, ranks, deg))

        def contrib(t: pa.Table, _ref=state_ref) -> pa.Table:
            it, rk, dg = ray.get(_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            j = np.searchsorted(it, src)
            c = (rk[j] * 85) // (100 * dg[j])
            g = (
                pa.table({"dst": t["dst"], "contrib": pa.array(c)})
                .group_by("dst")
                .aggregate([("contrib", "sum")])
            )
            return g.rename_columns(["dst", "contrib"])

        rows = (
            edges.map_batches(contrib, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("dst")
            .aggregate(Sum("contrib"))
            .take_all()  # ≤ |catalog| rows — bounded
        )
        new_ranks = np.zeros(items.size, dtype=np.int64)
        for r in rows:
            new_ranks[np.searchsorted(items, int(r["dst"]))] = int(
                r["sum(contrib)"]
            )
        ranks = _PR_BASE + new_ranks

    order = np.lexsort((items, -ranks))[:_PR_TOPN]
    return pa.table(
        {
            "item": pa.array(items[order], pa.int64()),
            "rank_scaled": pa.array(ranks[order], pa.int64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# covisit_triangles — motif counting on the covisit graph
# ---------------------------------------------------------------------------

_TRI_TOPN = 10


def _tri_sql() -> str:
    # reuses _PR_EDGES_SQL verbatim (single source of truth for the graph);
    # its edges/deg CTEs go unused here, which DuckDB permits
    return f"""
    {_PR_EDGES_SQL},
    tri AS (
      SELECT k1.ia AS a, k1.ib AS b, k2.ib AS c
      FROM keep k1
      JOIN keep k2 ON k2.ia = k1.ib
      JOIN keep k3 ON k3.ia = k1.ia AND k3.ib = k2.ib
    ),
    m AS (
      SELECT a AS item FROM tri
      UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri
    )
    SELECT item, count(*)::BIGINT AS n_triangles
    FROM m GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT {_TRI_TOPN}
    """


@op("covisit_triangles", _tri_sql())
def covisit_triangles(sf_dir: str):
    """Per-item triangle participation in the thresholded covisit graph
    (top-{10}) — motif counting, the community-density signal recommender
    pipelines use next to raw covisitation.

    Scale shape: same graph source as item_pagerank (one covisit shuffle +
    histogram threshold).  The adjacency matrix of the BOUNDED item
    catalog is built once on the driver from the kept pair list (≤
    |catalog|²/2 rows — documented bounded take_all, the same catalog
    assumption as the pagerank broadcast; a web-scale unbounded vertex
    set would need the vertex-partitioned variant instead) and broadcast
    via ray.put; the EDGE list stays distributed — each batch counts its
    edges\' triangles as one vectorized boolean matrix reduction
    ("common neighbors above b", enumerating each triangle exactly once
    at its lexicographically-least edge) and pre-aggregates per-item
    counts before the one catalog-bounded groupby-sum."""
    import ray

    from ray.data.aggregate import Sum

    pairs, thr = _covisit_graph_pairs(sf_dir)
    _OUT = pa.schema([("item", pa.int64()), ("n_triangles", pa.int64())])
    if pairs is None:
        return _OUT.empty_table()

    keep = pairs.map_batches(
        lambda t, _th=thr: t.filter(pc.greater(t["n_users"], _th)).select(
            ["item_a", "item_b"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # scanned twice: adjacency build + distributed count

    kp = keep.take_all()  # ≤ |catalog|²/2 — bounded by the item catalog
    if not kp:
        return _OUT.empty_table()
    ia = np.array([int(r["item_a"]) for r in kp], dtype=np.int64)
    ib = np.array([int(r["item_b"]) for r in kp], dtype=np.int64)
    items = np.unique(np.concatenate([ia, ib]))
    n = items.size
    adj = np.zeros((n, n), dtype=bool)
    ja, jb = np.searchsorted(items, ia), np.searchsorted(items, ib)
    adj[ja, jb] = True
    adj[jb, ja] = True
    state_ref = ray.put((items, adj))

    _PART = pa.schema([("item", pa.int64()), ("cnt", pa.int64())])

    def tri_partial(t: pa.Table, _ref=state_ref) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        it, A = ray.get(_ref)
        u = np.searchsorted(it, t["item_a"].to_numpy(zero_copy_only=False))
        v = np.searchsorted(it, t["item_b"].to_numpy(zero_copy_only=False))
        # triangle (a<b<c) counted once at edge (a,b): common neighbors c>b
        gt = np.arange(A.shape[0])[None, :] > v[:, None]
        common = A[u] & A[v] & gt  # (edges_in_batch × |catalog|) bool
        per_edge = common.sum(axis=1).astype(np.int64)
        w_counts = common.sum(axis=0).astype(np.int64)
        cnt = w_counts.copy()
        np.add.at(cnt, u, per_edge)
        np.add.at(cnt, v, per_edge)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "item": pa.array(it[nz], pa.int64()),
                "cnt": pa.array(cnt[nz], pa.int64()),
            },
            schema=_PART,
        )

    rows = (
        keep.map_batches(tri_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("item")
        .aggregate(Sum("cnt"))
        .take_all()  # ≤ |catalog| rows — bounded
    )
    got = sorted(
        ((int(r["sum(cnt)"]), int(r["item"])) for r in rows),
        key=lambda x: (-x[0], x[1]),
    )[:_TRI_TOPN]
    return pa.table(
        {
            "item": pa.array([i for _, i in got], pa.int64()),
            "n_triangles": pa.array([c for c, _ in got], pa.int64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# orders_monthly_growth — month-over-month revenue delta (LAG window shape)
# ---------------------------------------------------------------------------


@op(
    "orders_monthly_growth",
    """
    WITH m AS (
      SELECT date_trunc('month', o_orderdate) AS month,
             sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS rev_cents
      FROM orders GROUP BY 1
    )
    SELECT CAST(month AS TIMESTAMP) AS month, rev_cents,
           rev_cents - lag(rev_cents, 1, 0) OVER (ORDER BY month) AS delta_cents
    FROM m
    """,
)
def orders_monthly_growth(sf_dir: str):
    """Month-over-month revenue growth — the LAG() window shape of every
    revenue dashboard.  Exact integer cents; the first month lags against
    0 (lag default), keeping the output NULL-free for stable value
    hashes (house float-safety policy).

    Scale shape: orders pre-aggregates (month, cents) per batch before
    the one groupby shuffle; the month table is bounded (years × 12 rows
    regardless of data size), so the sequential lag computes driver-side
    on the sorted bounded result — a LAG over an unbounded key would
    instead use the per-key map_groups pattern of the windowed event
    ops."""
    orders = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    _PART = pa.schema([("month", pa.timestamp("us")), ("cents", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        g = (
            pa.table(
                {
                    "month": pc.floor_temporal(t["o_orderdate"], unit="month"),
                    "cents": _cents(t["o_totalprice"]),
                }
            )
            .group_by("month")
            .aggregate([("cents", "sum")])
        )
        return g.rename_columns(["month", "cents"])

    months = (
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("month")
        .sum("cents")
        .to_pandas()  # bounded: one row per month
        .sort_values("month")
        .reset_index(drop=True)
    )
    rev = months["sum(cents)"].round().astype("int64").to_numpy()
    delta = rev - np.concatenate(([0], rev[:-1]))  # lag(…, 1, 0)
    return pa.table(
        {
            "month": pa.array(
                months["month"].astype("datetime64[us]"), pa.timestamp("us")
            ),
            "rev_cents": pa.array(rev, pa.int64()),
            "delta_cents": pa.array(delta, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# event_hour_anomalies — hours with event volume > mean + 2σ (monitoring)
# ---------------------------------------------------------------------------


@op(
    "event_hour_anomalies",
    """
    WITH h AS (
      SELECT date_trunc('hour', ts) AS hour, count(*)::BIGINT AS n
      FROM events GROUP BY 1
    ),
    st AS (
      SELECT count(*)::BIGINT AS m, sum(n)::BIGINT AS s,
             sum(n * n)::BIGINT AS q
      FROM h
    )
    SELECT CAST(hour AS TIMESTAMP) AS hour, n
    FROM h, st
    WHERE (n * st.m - st.s)
          > 2 * sqrt(CAST(st.m AS DOUBLE) * st.q - CAST(st.s AS DOUBLE) * st.s)
    """,
)
def event_hour_anomalies(sf_dir: str):
    """Volume anomaly detection: hours whose event count exceeds the
    global hourly mean by more than two standard deviations — the
    monitoring sweep a pipeline operator runs over an ingest stream.
    Deterministic floats: the moments are exact int64 sums over the
    bounded hour histogram; the threshold comparison keeps the left side
    in exact integers ((n·m − s) vs 2·sqrt(m·q − s²)), the same
    expression tree as the SQL twin.

    Scale shape: one per-batch partial (hour, count) pre-aggregation →
    one small groupby; the hour histogram is bounded (24 × days rows
    regardless of event volume), so moments + threshold run driver-side
    on the bounded table."""
    ev = read_table(sf_dir, "events", columns=["ts"])

    _PART = pa.schema([("hour", pa.timestamp("us")), ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        g = (
            pa.table({"hour": pc.floor_temporal(t["ts"], unit="hour")})
            .group_by("hour")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"hour": g["hour"], "n": pc.cast(g["count_all"], pa.int64())},
            schema=_PART,
        )

    hist = (
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour")
        .sum("n")
        .to_pandas()  # bounded: one row per hour
    )
    n = hist["sum(n)"].round().astype("int64").to_numpy()
    m = np.int64(len(n))
    s = np.int64(n.sum())
    q = np.int64((n * n).sum())
    thresh = 2.0 * float(np.sqrt(float(m) * float(q) - float(s) * float(s)))
    keep = (n * m - s) > thresh
    return pa.table(
        {
            "hour": pa.array(
                hist["hour"][keep].astype("datetime64[us]"), pa.timestamp("us")
            ),
            "n": pa.array(n[keep], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# distinct_parts_per_supplier — per-key exact COUNT(DISTINCT) at scale
# ---------------------------------------------------------------------------


@op(
    "distinct_parts_per_supplier",
    """
    SELECT l_suppkey, count(DISTINCT l_partkey)::BIGINT AS n_parts
    FROM lineitem GROUP BY 1
    """,
)
def distinct_parts_per_supplier(sf_dir: str):
    """Per-supplier exact distinct part count — the grouped
    COUNT(DISTINCT) shape (global distinct is G4; this is the per-key
    variant every assortment/coverage report needs).

    Scale shape: per-batch distinct (suppkey, partkey) pairs reduce each
    block before the one pair-level groupby dedup; the final per-key
    count is a second groupby over the already-distinct pairs — both
    shuffles carry only distinct pairs, never raw lineitems.  (An
    approximate variant would swap the pair dedup for a per-key HLL
    sketch; the exact form is the oracle-checkable one.)"""
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def pair_partial(t: pa.Table) -> pa.Table:
        return t.group_by(["l_suppkey", "l_partkey"]).aggregate([])

    pairs = (
        li.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_suppkey", "l_partkey"])
        .count()
        .select_columns(["l_suppkey", "l_partkey"])
    )

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.select(["l_suppkey"]).group_by("l_suppkey").aggregate([([], "count_all")])
        return pa.table(
            {"l_suppkey": g["l_suppkey"],
             "n": pc.cast(g["count_all"], pa.int64())}
        )

    return _rename(
        pairs.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_suppkey")
        .sum("n"),
        {"sum(n)": "n_parts"},
        int64_cols=("n_parts",),
    )


# ---------------------------------------------------------------------------
# small_qty_order_revenue — TPC-H Q17 shape (correlated per-part average)
# ---------------------------------------------------------------------------

_Q17_BRAND = "Brand#1"


@op(
    "small_qty_order_revenue",
    f"""
    WITH lp AS (
      SELECT l.l_partkey, CAST(l.l_quantity AS BIGINT) AS qty,
             CAST(round(l.l_extendedprice * 100) AS BIGINT) AS price_cents
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
      WHERE p.p_brand = '{_Q17_BRAND}'
    ),
    pstat AS (
      SELECT l_partkey, sum(qty)::BIGINT AS sum_qty, count(*)::BIGINT AS n
      FROM lp GROUP BY 1
    )
    SELECT COALESCE(sum(lp.price_cents), 0)::BIGINT AS rev_cents,
           count(*)::BIGINT AS n_small,
           CAST(COALESCE(sum(lp.price_cents), 0) AS DOUBLE) / 700.0
             AS avg_yearly
    FROM lp JOIN pstat USING (l_partkey)
    WHERE lp.qty * 5 * pstat.n < pstat.sum_qty
    """,
)
def small_qty_order_revenue(sf_dir: str):
    """TPC-H Q17 shape: yearly revenue lost if small-quantity orders
    (quantity below 20% of the part's average order quantity) for one
    brand's parts were not taken.  The correlated ``qty < 0.2·avg``
    comparison is lifted to exact integers — ``qty·5·n < Σqty`` — so the
    filter is bit-identical on both sides; the only float is the final
    ``Σcents / 700`` division of one exact integer sum.

    Scale shape: the brand's part-key set is a bounded broadcast
    (one brand ≈ |parts|/|brands| keys) applied AT THE SCAN, so lineitem
    is filtered to ~1/|brands| before anything else; per-part (Σqty, n)
    stats reduce per batch and the bounded per-brand stats table is
    broadcast back for the probe pass — no corpus-sized shuffle at all,
    every batch reduces to three integers."""
    import ray

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    pk_rows = part.map_batches(
        lambda t: t.filter(pc.equal(t["p_brand"], _Q17_BRAND)).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded: one brand's parts
    pk = pa.array(sorted(int(r["p_partkey"]) for r in pk_rows), pa.int64())
    pk_ref = ray.put(pk)

    li = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice"]
    )

    def slim(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_partkey"], value_set=ray.get(pk_ref)))
        return pa.table(
            {
                "l_partkey": pc.cast(t["l_partkey"], pa.int64()),
                "qty": pc.cast(t["l_quantity"], pa.int64()),
                "price_cents": _cents(t["l_extendedprice"]),
            }
        )

    lp = li.map_batches(slim, batch_format="pyarrow", zero_copy_batch=True)
    lp = lp.materialize()  # two passes (stats + probe) over ~1/|brands| rows

    def stat_partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["l_partkey", "qty"])
            .group_by("l_partkey")
            .aggregate([("qty", "sum"), ([], "count_all")])
        )
        return pa.table(
            {
                "l_partkey": g["l_partkey"],
                "sum_qty": pc.cast(g["qty_sum"], pa.int64()),
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    stat_rows = (
        lp.map_batches(stat_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_partkey")
        .sum(["sum_qty", "n"])
    ).take_all()  # bounded: one brand's parts
    sum_qty = {int(r["l_partkey"]): int(r["sum(sum_qty)"]) for r in stat_rows}
    n_li = {int(r["l_partkey"]): int(r["sum(n)"]) for r in stat_rows}
    keys = pa.array(sorted(sum_qty), pa.int64())
    sq_arr = np.array([sum_qty[int(k.as_py())] for k in keys], dtype=np.int64)
    n_arr = np.array([n_li[int(k.as_py())] for k in keys], dtype=np.int64)
    stat_ref = ray.put((keys, sq_arr, n_arr))

    _PART = pa.schema([("rev_cents", pa.int64()), ("n_small", pa.int64())])

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        k, sq, nn = ray.get(stat_ref)
        idx = pc.index_in(t["l_partkey"], value_set=k).to_numpy(
            zero_copy_only=False
        )
        qty = t["qty"].to_numpy(zero_copy_only=False)
        cents = t["price_cents"].to_numpy(zero_copy_only=False)
        small = qty * 5 * nn[idx] < sq[idx]
        return pa.table(
            {
                "rev_cents": pa.array([int(cents[small].sum())], pa.int64()),
                "n_small": pa.array([int(small.sum())], pa.int64()),
            },
            schema=_PART,
        )

    from ray.data.aggregate import Sum

    agg = lp.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("rev_cents"), Sum("n_small"))
    rev = int(agg["sum(rev_cents)"] or 0)
    n_small = int(agg["sum(n_small)"] or 0)
    return pa.table(
        {
            "rev_cents": pa.array([rev], pa.int64()),
            "n_small": pa.array([n_small], pa.int64()),
            "avg_yearly": pa.array([float(rev) / 700.0], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# sessionize_events — gap-based sessionization (the classic event-log op)
# ---------------------------------------------------------------------------

_SESSION_GAP_US = 8 * 3600 * 1_000_000  # 8 h idle gap starts a new session


@op(
    "sessionize_events",
    f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS tus FROM events),
    s AS (
      SELECT user_id, tus,
             CASE WHEN lag(tus) OVER w IS NULL
                    OR tus - lag(tus) OVER w > {_SESSION_GAP_US}
                  THEN 1 ELSE 0 END AS new_s
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tus)
    ),
    sid AS (
      SELECT user_id,
             sum(new_s) OVER (
               PARTITION BY user_id ORDER BY tus
               ROWS UNBOUNDED PRECEDING
             ) AS session_id
      FROM s
    ),
    per AS (SELECT user_id, session_id, count(*) AS n FROM sid GROUP BY 1, 2)
    SELECT user_id, sum(n)::BIGINT AS n_events, count(*)::BIGINT AS n_sessions,
           max(n)::BIGINT AS max_session_events
    FROM per GROUP BY user_id
    """,
)
def sessionize_events(sf_dir: str):
    """Gap-based sessionization (the canonical event-log windowing op): a
    user's events split into sessions wherever the idle gap exceeds
    {gap} hours; per user: event count, session count, and the largest
    session.  Integer-exact (epoch-µs diffs), so the window-function SQL
    twin matches bit-for-bit; tie timestamps are safe — the diff sequence
    of a sorted multiset doesn't depend on tie order.

    Scale shape: ts is cast to int64 epoch-µs BEFORE the one groupby
    shuffle (no timestamp type crosses the exchange — Ray 2.49's numpy
    path can downcast [us]→[s]); per-user session stats are a vectorized
    sort + diff + boundary-count inside map_groups, with per-session
    sizes from one np.diff over boundary indices.  Hyperactive users make
    single large groups — at extreme skew, pre-split such users by day
    and merge session runs at the seams."""
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "tus": pc.cast(
                    pc.cast(t["ts"], pa.timestamp("us")), pa.int64()
                ),
            }
        )

    _OUT = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("n_sessions", pa.int64()),
            ("max_session_events", pa.int64()),
        ]
    )

    def sessions(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _OUT.empty_table()
        tus = np.sort(group["tus"].to_numpy(zero_copy_only=False))
        gaps = np.diff(tus)
        bounds = np.flatnonzero(gaps > _SESSION_GAP_US)
        sizes = np.diff(np.concatenate([[0], bounds + 1, [tus.size]]))
        return pa.table(
            {
                "user_id": pa.array([int(group["user_id"][0].as_py())], pa.int64()),
                "n_events": pa.array([int(tus.size)], pa.int64()),
                "n_sessions": pa.array([int(sizes.size)], pa.int64()),
                "max_session_events": pa.array([int(sizes.max())], pa.int64()),
            },
            schema=_OUT,
        )

    return (
        ev.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .map_groups(sessions, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# market_share — TPC-H Q8 shape (nation market share in a region, by year)
# ---------------------------------------------------------------------------

_Q8_REGION = "ASIA"
_Q8_NATION = "NATION_7"
_Q8_TYPE = "PROMO"


@op(
    "market_share",
    f"""
    WITH vol AS (
      SELECT year(o_orderdate) AS o_year,
             CAST(round(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_e4,
             ns.n_name AS supp_nation
      FROM lineitem
      JOIN part     ON p_partkey = l_partkey
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN orders   ON o_orderkey = l_orderkey
      JOIN customer ON c_custkey = o_custkey
      JOIN nation nc ON nc.n_nationkey = c_nationkey
      JOIN region   ON r_regionkey = nc.n_regionkey
      JOIN nation ns ON ns.n_nationkey = s_nationkey
      WHERE r_name = '{_Q8_REGION}' AND p_type = '{_Q8_TYPE}'
    )
    SELECT o_year,
           sum(CASE WHEN supp_nation = '{_Q8_NATION}' THEN rev_e4 ELSE 0 END)::BIGINT
             AS nation_rev_e4,
           sum(rev_e4)::BIGINT AS total_rev_e4,
           CAST(sum(CASE WHEN supp_nation = '{_Q8_NATION}' THEN rev_e4 ELSE 0 END)
                AS DOUBLE) / sum(rev_e4) AS mkt_share
    FROM vol GROUP BY o_year ORDER BY o_year
    """,
)
def market_share(sf_dir: str):
    """TPC-H Q8 shape: of all revenue for parts of one type sold into one
    region's customers, what fraction came from suppliers of one nation,
    per order year.  Revenue is exact integer e4 units (cents x discount
    percent); the share is ONE float division over two exact integers, so
    engine and oracle agree bit-for-bit.

    Scale shape: nation/region are driver lookups; part filters to the
    target type AT THE SCAN (only keys leave), so the lineitem⋈part join
    drops ~5/6 of lineitems first; supplier joins next (adds one int
    column); per-(orderkey, supp_nation, year is unknown yet) partials
    collapse lineitems to order granularity BEFORE the orders join; the
    customer side is pre-filtered to the region's nations (1/5 of rows).
    The final aggregate is <= years x 2 rows on the driver."""
    from .util import drop_empty_blocks, join_partitions

    nat = {
        int(r["n_nationkey"]): (r["n_name"], int(r["n_regionkey"]))
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"]
        ).take_all()
    }
    regions = {
        int(r["r_regionkey"]): r["r_name"]
        for r in read_table(sf_dir, "region").take_all()
    }
    region_nations = pa.array(
        [k for k, (_, rk) in nat.items() if regions[rk] == _Q8_REGION],
        pa.int64(),
    )
    target_key = next(k for k, (n, _) in nat.items() if n == _Q8_NATION)

    _OUT = pa.schema(
        [("o_year", pa.int64()), ("nation_rev_e4", pa.int64()),
         ("total_rev_e4", pa.int64()), ("mkt_share", pa.float64())]
    )

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_type"], _Q8_TYPE)).select(["p_partkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    part = drop_empty_blocks(part, pa.schema([("p_partkey", pa.int64())]))

    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )
    li_p = drop_empty_blocks(
        li.join(
            part,
            join_type="inner",
            num_partitions=join_partitions(li, part),
            on=("l_partkey",),
            right_on=("p_partkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_partkey", pa.int64()),
             ("l_suppkey", pa.int64()), ("l_extendedprice", pa.float64()),
             ("l_discount", pa.float64())]
        ),
    )
    if li_p.count() == 0:
        return _OUT.empty_table()
    li_s = drop_empty_blocks(
        li_p.join(
            supp,
            join_type="inner",
            num_partitions=join_partitions(li_p, supp),
            on=("l_suppkey",),
            right_on=("s_suppkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_partkey", pa.int64()),
             ("l_suppkey", pa.int64()), ("l_extendedprice", pa.float64()),
             ("l_discount", pa.float64()), ("s_nationkey", pa.int64())]
        ),
    )

    _LPART = pa.schema(
        [("l_orderkey", pa.int64()), ("is_target", pa.int64()),
         ("rev", pa.int64())]
    )

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LPART.empty_table()
        cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        is_target = pc.cast(
            pc.equal(t["s_nationkey"], pa.scalar(target_key, pa.int64())),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "is_target": is_target,
                    "rev": pa.array(cents * (100 - disc), pa.int64()),
                }
            )
            .group_by(["l_orderkey", "is_target"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "is_target", "rev"])

    li_agg = li_s.map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda t, _k=region_nations: t.filter(
            pc.is_in(t["c_nationkey"], value_set=_k)
        ).select(["c_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    cust = drop_empty_blocks(cust, pa.schema([("c_custkey", pa.int64())]))
    if cust.count() == 0:
        return _OUT.empty_table()

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    ord_c = drop_empty_blocks(
        orders.join(
            cust,
            join_type="inner",
            num_partitions=join_partitions(orders, cust),
            on=("o_custkey",),
            right_on=("c_custkey",),
        ),
        pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us"))]
        ),
    ).select_columns(["o_orderkey", "o_orderdate"])

    joined = drop_empty_blocks(
        li_agg.join(
            ord_c,
            join_type="inner",
            num_partitions=join_partitions(li_agg, ord_c),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("is_target", pa.int64()),
             ("rev", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
    )

    _GPART = pa.schema(
        [("o_year", pa.int64()), ("is_target", pa.int64()), ("rev", pa.int64())]
    )

    def year_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _GPART.empty_table()
        g = (
            pa.table(
                {
                    "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                    "is_target": t["is_target"],
                    "rev": t["rev"],
                }
            )
            .group_by(["o_year", "is_target"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["o_year", "is_target", "rev"])

    agg = (
        joined.map_batches(year_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["o_year", "is_target"])
        .sum("rev")
    ).to_pandas()  # <= years x 2 rows — bounded

    if agg.empty:
        return _OUT.empty_table()
    years = sorted(agg["o_year"].unique())
    nat_rev, tot_rev, shares = [], [], []
    for y in years:
        sub = agg[agg["o_year"] == y]
        n = int(sub[sub["is_target"] == 1]["sum(rev)"].sum())
        tot = int(sub["sum(rev)"].sum())
        nat_rev.append(n)
        tot_rev.append(tot)
        shares.append(n / tot)
    return pa.table(
        {
            "o_year": pa.array([int(y) for y in years], pa.int64()),
            "nation_rev_e4": pa.array(nat_rev, pa.int64()),
            "total_rev_e4": pa.array(tot_rev, pa.int64()),
            "mkt_share": pa.array(shares, pa.float64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# late_sole_supplier — TPC-H Q21 shape (correlated EXISTS / NOT EXISTS)
# ---------------------------------------------------------------------------

_Q21_NATION = "NATION_9"
_Q21_LATE_DAYS = 60
_Q21_TOPN = 20


@op(
    "late_sole_supplier",
    f"""
    WITH li AS (
      SELECT l_orderkey, l_suppkey,
             max(CASE WHEN l_shipdate > o_orderdate + INTERVAL {_Q21_LATE_DAYS} DAY
                      THEN 1 ELSE 0 END) AS late
      FROM lineitem JOIN orders ON o_orderkey = l_orderkey
      WHERE o_orderstatus = 'F'
      GROUP BY 1, 2
    ),
    per_ord AS (
      SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late,
             sum(l_suppkey * late) AS late_key
      FROM li GROUP BY 1
    )
    SELECT s_name, count(*)::BIGINT AS numwait
    FROM per_ord
    JOIN supplier ON s_suppkey = late_key
    JOIN nation   ON n_nationkey = s_nationkey
    WHERE n_supp >= 2 AND n_late = 1 AND n_name = '{_Q21_NATION}'
    GROUP BY s_name
    ORDER BY numwait DESC, s_name
    LIMIT {_Q21_TOPN}
    """,
)
def late_sole_supplier(sf_dir: str):
    """TPC-H Q21 shape (adapted to this schema's columns: `lateness` is
    l_shipdate > o_orderdate + {_Q21_LATE_DAYS} days): suppliers from one
    nation who were the ONLY late shipper on a finished ('F')
    multi-supplier order — the classic correlated EXISTS (another supplier
    on the order) + NOT EXISTS (another LATE supplier) pair, computed
    without self-joins.

    Plan: the EXISTS/NOT-EXISTS pair collapses to per-order counters over
    per-(order, supplier) partials — n_supp >= 2 encodes EXISTS, n_late = 1
    encodes NOT EXISTS, and sum(suppkey x late) recovers the culprit's key
    exactly when n_late = 1.  One lineitem⋈orders join (orders pre-filtered
    to 'F' at the scan), per-batch partials so only (order, supplier, late)
    distinct rows shuffle into the single per-order groupby, then a tiny
    per-supplier count joined to the 1/25-filtered supplier dimension on
    the driver."""
    from .util import drop_empty_blocks, join_partitions

    nat_key = {
        r["n_name"]: int(r["n_nationkey"])
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_name"]
        ).take_all()
    }[_Q21_NATION]
    suppliers = {
        int(r["s_suppkey"]): r["s_name"]
        for r in read_table(
            sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_nationkey"]
        )
        .map_batches(
            lambda t, _k=nat_key: t.filter(
                pc.equal(t["s_nationkey"], pa.scalar(_k, pa.int64()))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()  # 1/25 of an already-small dimension — driver-safe
    }

    _OUT = pa.schema([("s_name", pa.string()), ("numwait", pa.int64())])
    if not suppliers:
        return _OUT.empty_table()

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderstatus", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).select(
            ["o_orderkey", "o_orderdate"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = drop_empty_blocks(
        orders,
        pa.schema([("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]),
    )
    if orders.count() == 0:
        return _OUT.empty_table()

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    )
    li_o = drop_empty_blocks(
        li.join(
            orders,
            join_type="inner",
            num_partitions=join_partitions(li, orders),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("l_shipdate", pa.timestamp("us")), ("o_orderdate", pa.timestamp("us"))]
        ),
    )

    _LPART = pa.schema(
        [("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
         ("late", pa.int64())]
    )
    late_us = _Q21_LATE_DAYS * 86_400_000_000

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LPART.empty_table()
        ship = pc.cast(t["l_shipdate"], pa.int64())
        cutoff = pc.add(pc.cast(t["o_orderdate"], pa.int64()),
                        pa.scalar(late_us, pa.int64()))
        g = (
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "l_suppkey": t["l_suppkey"],
                    "late": pc.cast(pc.greater(ship, cutoff), pa.int64()),
                }
            )
            .group_by(["l_orderkey", "l_suppkey"])
            .aggregate([("late", "max")])
        )
        return g.rename_columns(["l_orderkey", "l_suppkey", "late"])

    _ORD = pa.schema([("s_suppkey", pa.int64()), ("one", pa.int64())])

    def per_order(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _ORD.empty_table()
        # Partials from different batches may repeat a (order, supplier)
        # pair — reduce to per-supplier max(late) first, then apply the
        # EXISTS / NOT-EXISTS counters.
        supp = group["l_suppkey"].to_numpy(zero_copy_only=False)
        late = group["late"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(supp, return_inverse=True)
        lmax = np.zeros(uniq.size, np.int64)
        np.maximum.at(lmax, inv, late)
        if uniq.size >= 2 and int(lmax.sum()) == 1:
            culprit = int(uniq[np.flatnonzero(lmax)[0]])
            return pa.table(
                {"s_suppkey": pa.array([culprit], pa.int64()),
                 "one": pa.array([1], pa.int64())},
                schema=_ORD,
            )
        return _ORD.empty_table()

    counts = (
        li_o.map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .map_groups(per_order, batch_format="pyarrow")
        .groupby("s_suppkey")
        .sum("one")
    ).to_pandas()  # <= |suppliers| rows — bounded

    counts = counts[counts["s_suppkey"].isin(suppliers)]
    if counts.empty:
        return _OUT.empty_table()
    out = pa.table(
        {
            "s_name": pa.array(
                [suppliers[int(k)] for k in counts["s_suppkey"]], pa.string()
            ),
            "numwait": pa.array(
                counts["sum(one)"].round().astype("int64"), pa.int64()
            ),
        },
        schema=_OUT,
    )
    idx = pc.sort_indices(
        out, sort_keys=[("numwait", "descending"), ("s_name", "ascending")]
    )
    return out.take(idx[:_Q21_TOPN])


# ---------------------------------------------------------------------------
# min_cost_supplier — TPC-H Q2 shape (argmin-per-group + join-back)
# ---------------------------------------------------------------------------
# This schema has no partsupp table, so a supplier's "offer price" for a
# part is defined as its cheapest observed lineitem for that part
# (min cents(l_extendedprice)) — exact integers, no division.

_Q2_REGION = "ASIA"
_Q2_TYPE = "STANDARD"
_Q2_MAX_SIZE = 15
_Q2_TOPN = 100


@op(
    "min_cost_supplier",
    f"""
    WITH offers AS (
      SELECT l_partkey, l_suppkey,
             min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS cost_e2
      FROM lineitem
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN nation   ON n_nationkey = s_nationkey
      JOIN region   ON r_regionkey = n_regionkey
      WHERE r_name = '{_Q2_REGION}'
      GROUP BY 1, 2
    ),
    best AS (SELECT l_partkey, min(cost_e2) AS min_cost FROM offers GROUP BY 1)
    SELECT s_acctbal, s_name, p_partkey, p_name, o.cost_e2
    FROM offers o
    JOIN best ON best.l_partkey = o.l_partkey AND o.cost_e2 = best.min_cost
    JOIN part     ON p_partkey = o.l_partkey
    JOIN supplier ON s_suppkey = o.l_suppkey
    WHERE p_type = '{_Q2_TYPE}' AND p_size <= {_Q2_MAX_SIZE}
    ORDER BY s_acctbal DESC, p_partkey, s_name
    LIMIT {_Q2_TOPN}
    """,
)
def min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape: for each part of one type/size class, the
    region's supplier(s) offering it cheapest — the classic correlated
    min subquery, computed as argmin-per-group + equality join-back
    (all ties kept, like Q2).

    Plan (size-gated, VERDICT r4 #2): the region's supplier set and the
    type/size-filtered part dimension are scale-proportional, so both
    route through util.fetch_if_small.  Under the broadcast cap they are
    driver maps (is_in pruning at the scan + O(1) name/acctbal lookups);
    over it, the (part, supplier) min partials hash-join BOTH dimensions
    natively — the region/type filters then apply at the join, and the
    final ORDER BY/LIMIT runs as a distributed sort+limit.  Either way
    only |offers| <= |filtered parts| x |region suppliers| rows ever
    shuffle, and the argmin join-back runs inside per-part map_groups."""
    from .util import drop_empty_blocks, fetch_if_small, join_partitions

    nat = {
        int(r["n_nationkey"]): int(r["n_regionkey"])
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]
        ).take_all()
    }
    region_nat_keys = pa.array(
        sorted(
            k for k, rk in nat.items()
            if {
                int(r["r_regionkey"]): r["r_name"]
                for r in read_table(sf_dir, "region").take_all()
            }[rk] == _Q2_REGION
        ),
        pa.int64(),
    )

    _SUPP = pa.schema(
        [("l_suppkey", pa.int64()), ("s_name", pa.string()),
         ("s_acctbal", pa.float64())]
    )
    supp_tbl, supp_ds = fetch_if_small(
        read_table(
            sf_dir, "supplier",
            columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
        ).map_batches(
            lambda t: t.filter(
                pc.is_in(t["s_nationkey"], value_set=region_nat_keys)
            )
            .select(["s_suppkey", "s_name", "s_acctbal"])
            .rename_columns(["l_suppkey", "s_name", "s_acctbal"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _SUPP,
    )
    _PNAME = pa.schema([("l_partkey", pa.int64()), ("p_name", pa.string())])
    part_tbl, part_ds = fetch_if_small(
        read_table(
            sf_dir, "part", columns=["p_partkey", "p_name", "p_type", "p_size"]
        ).map_batches(
            lambda t: t.filter(
                pc.and_(
                    pc.equal(t["p_type"], _Q2_TYPE),
                    pc.less_equal(t["p_size"], _Q2_MAX_SIZE),
                )
            )
            .select(["p_partkey", "p_name"])
            .rename_columns(["l_partkey", "p_name"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _PNAME,
    )

    _OUT = pa.schema(
        [("s_acctbal", pa.float64()), ("s_name", pa.string()),
         ("p_partkey", pa.int64()), ("p_name", pa.string()),
         ("cost_e2", pa.int64())]
    )
    broadcast = supp_tbl is not None and part_tbl is not None
    if broadcast:
        if supp_tbl.num_rows == 0 or part_tbl.num_rows == 0:
            return _OUT.empty_table()
        supp = {
            int(k): (n, float(b))
            for k, n, b in zip(
                supp_tbl["l_suppkey"].to_pylist(),
                supp_tbl["s_name"].to_pylist(),
                supp_tbl["s_acctbal"].to_pylist(),
            )
        }
        parts = dict(
            zip(part_tbl["l_partkey"].to_pylist(), part_tbl["p_name"].to_pylist())
        )
        supp_keys = pa.array(sorted(supp), pa.int64())
        part_keys = pa.array(sorted(parts), pa.int64())

    _PART = pa.schema(
        [("l_partkey", pa.int64()), ("l_suppkey", pa.int64()),
         ("cost_e2", pa.int64())]
    )

    def offer_partial(t: pa.Table) -> pa.Table:
        if broadcast:
            t = t.filter(
                pc.and_(
                    pc.is_in(t["l_partkey"], value_set=part_keys),
                    pc.is_in(t["l_suppkey"], value_set=supp_keys),
                )
            )
        if t.num_rows == 0:
            return _PART.empty_table()
        g = (
            pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "l_suppkey": t["l_suppkey"],
                    "cost_e2": _cents(t["l_extendedprice"]),
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("cost_e2", "min")])
        )
        return g.rename_columns(["l_partkey", "l_suppkey", "cost_e2"]).cast(_PART)

    offers = (
        read_table(
            sf_dir, "lineitem",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        )
        .map_batches(offer_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_partkey", "l_suppkey"])
        .min("cost_e2")
    )
    if not broadcast:
        # inner-join semantics: an empty dimension means an empty result
        if part_ds.count() == 0 or supp_ds.count() == 0:
            return _OUT.empty_table()
        # dimension filters arrive via native hash joins BEFORE the argmin
        # (the min must range over region suppliers x filtered parts only)
        _MIN = pa.schema(
            [("l_partkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("min(cost_e2)", pa.int64())]
        )
        offers = drop_empty_blocks(offers, _MIN)
        offers = offers.join(
            part_ds, join_type="inner",
            num_partitions=join_partitions(offers, part_ds), on=("l_partkey",),
        )
        offers = drop_empty_blocks(
            offers, _MIN.append(pa.field("p_name", pa.string()))
        )
        offers = offers.join(
            supp_ds, join_type="inner",
            num_partitions=join_partitions(offers, supp_ds), on=("l_suppkey",),
        )

    _WIN = pa.schema(
        [("s_acctbal", pa.float64()), ("s_name", pa.string()),
         ("p_partkey", pa.int64()), ("p_name", pa.string()),
         ("cost_e2", pa.int64())]
    )

    def argmin(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _WIN.empty_table()
        cost = group["min(cost_e2)"]
        k = group.filter(pc.equal(cost, pc.min(cost)))
        if broadcast:
            sk = k["l_suppkey"].to_pylist()
            return pa.table(
                {
                    "s_acctbal": pa.array(
                        [supp[int(s)][1] for s in sk], pa.float64()
                    ),
                    "s_name": pa.array([supp[int(s)][0] for s in sk], pa.string()),
                    "p_partkey": k["l_partkey"],
                    "p_name": pa.array(
                        [parts[int(p)] for p in k["l_partkey"].to_pylist()],
                        pa.string(),
                    ),
                    "cost_e2": k["min(cost_e2)"],
                },
                schema=_WIN,
            )
        return pa.table(
            {
                "s_acctbal": k["s_acctbal"],
                "s_name": k["s_name"],
                "p_partkey": k["l_partkey"],
                "p_name": k["p_name"],
                "cost_e2": k["min(cost_e2)"],
            },
            schema=_WIN,
        )

    winners = (
        offers.groupby("l_partkey")
        .map_groups(argmin, batch_format="pyarrow")
        .sort(
            ["s_acctbal", "p_partkey", "s_name"],
            descending=[True, False, False],
        )
        .limit(_Q2_TOPN)
        .take_all()  # exactly the top-N rows — bounded
    )
    if not winners:
        return _OUT.empty_table()
    return pa.table(
        {
            "s_acctbal": pa.array([w["s_acctbal"] for w in winners], pa.float64()),
            "s_name": pa.array([w["s_name"] for w in winners], pa.string()),
            "p_partkey": pa.array(
                [int(w["p_partkey"]) for w in winners], pa.int64()
            ),
            "p_name": pa.array([w["p_name"] for w in winners], pa.string()),
            "cost_e2": pa.array([int(w["cost_e2"]) for w in winners], pa.int64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# product_profit — TPC-H Q9 shape (multi-join profit rollup by nation, year)
# ---------------------------------------------------------------------------
# No partsupp/ps_supplycost in this schema: unit cost is p_retailprice, so
# profit_e4 = cents(extendedprice) x (100 - disc%) - cents(retailprice) x qty x 100
# — every term an exact int64.

_Q9_NAME_SUBSTR = "widget"


@op(
    "product_profit",
    f"""
    SELECT n_name AS nation,
           year(o_orderdate) AS o_year,
           sum(
             CAST(round(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l_discount * 100) AS BIGINT))
             - CAST(round(p_retailprice * 100) AS BIGINT)
               * CAST(round(l_quantity) AS BIGINT) * 100
           )::BIGINT AS profit_e4
    FROM lineitem
    JOIN part     ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN nation   ON n_nationkey = s_nationkey
    WHERE p_name LIKE '%{_Q9_NAME_SUBSTR}%'
    GROUP BY 1, 2
    ORDER BY nation, o_year DESC
    """,
)
def product_profit(sf_dir: str):
    """TPC-H Q9 shape: profit on a product line, by supplier nation and
    order year.

    Plan (size-gated, VERDICT r4 #2): the name-filtered part table and
    the full supplier dimension are scale-proportional, so both route
    through util.fetch_if_small.  Under the broadcast cap: {part: retail
    cents} and {suppkey: nation} driver maps, ONE lineitem pass computes
    per-row exact profit and pre-aggregates to (l_orderkey, nation)
    partials.  Over it: per-batch partials keep (l_partkey, l_suppkey)
    and the revenue/quantity components separately, then native hash
    joins bring in part cost and supplier nation — nothing
    dimension-sized on the driver.  Either way the only big join (with
    orders, for the year) sees order-granularity rows; a second partial
    collapses to (nation, year) before the final tiny groupby."""
    from .util import drop_empty_blocks, fetch_if_small, join_partitions

    nation_names = {
        int(r["n_nationkey"]): r["n_name"]
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_name"]
        ).take_all()
    }
    nat_keys = pa.array(sorted(nation_names), pa.int64())
    nat_names_sorted = pa.array(
        [nation_names[int(k)] for k in nat_keys.to_pylist()], pa.string()
    )

    _SUPP = pa.schema([("l_suppkey", pa.int64()), ("nation", pa.string())])
    supp_tbl, supp_ds = fetch_if_small(
        read_table(
            sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
        ).map_batches(
            lambda t: pa.table(
                {
                    "l_suppkey": pc.cast(t["s_suppkey"], pa.int64()),
                    "nation": pc.take(
                        nat_names_sorted,
                        pc.index_in(t["s_nationkey"], value_set=nat_keys),
                    ),
                },
                schema=_SUPP,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _SUPP,
    )
    _PCOST = pa.schema([("l_partkey", pa.int64()), ("cost_e2", pa.int64())])
    part_tbl, part_ds = fetch_if_small(
        read_table(
            sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice"]
        ).map_batches(
            lambda t: (
                lambda k: pa.table(
                    {
                        "l_partkey": pc.cast(k["p_partkey"], pa.int64()),
                        "cost_e2": _cents(k["p_retailprice"]),
                    },
                    schema=_PCOST,
                )
            )(t.filter(pc.match_substring(t["p_name"], _Q9_NAME_SUBSTR))),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _PCOST,
    )
    _OUT = pa.schema(
        [("nation", pa.string()), ("o_year", pa.int64()),
         ("profit_e4", pa.int64())]
    )
    broadcast = supp_tbl is not None and part_tbl is not None
    _LPART = pa.schema(
        [("l_orderkey", pa.int64()), ("nation", pa.string()),
         ("profit_e4", pa.int64())]
    )

    if broadcast:
        if part_tbl.num_rows == 0:
            return _OUT.empty_table()
        supp_keys = supp_tbl["l_suppkey"].combine_chunks()
        supp_nation = supp_tbl["nation"].combine_chunks()
        part_keys = part_tbl["l_partkey"].combine_chunks()
        part_cost = part_tbl["cost_e2"].combine_chunks()

        def li_partial(t: pa.Table) -> pa.Table:
            k = t.filter(pc.is_in(t["l_partkey"], value_set=part_keys))
            if k.num_rows == 0:
                return _LPART.empty_table()
            cents = _cents(k["l_extendedprice"]).to_numpy(zero_copy_only=False)
            disc = _cents(k["l_discount"]).to_numpy(zero_copy_only=False)
            qty = (
                pc.cast(pc.round(k["l_quantity"]), pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            cost = (
                pc.take(part_cost, pc.index_in(k["l_partkey"], value_set=part_keys))
                .to_numpy(zero_copy_only=False)
            )
            profit = cents * (100 - disc) - cost * qty * 100
            nation = pc.take(
                supp_nation, pc.index_in(k["l_suppkey"], value_set=supp_keys)
            )
            g = (
                pa.table(
                    {
                        "l_orderkey": k["l_orderkey"],
                        "nation": nation,
                        "profit_e4": pa.array(profit, pa.int64()),
                    }
                )
                .group_by(["l_orderkey", "nation"])
                .aggregate([("profit_e4", "sum")])
            )
            return g.rename_columns(["l_orderkey", "nation", "profit_e4"])

        li_agg = read_table(
            sf_dir, "lineitem",
            columns=["l_orderkey", "l_partkey", "l_suppkey",
                     "l_quantity", "l_extendedprice", "l_discount"],
        ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
    else:
        # inner-join semantics: no filtered parts means an empty result
        if part_ds.count() == 0 or supp_ds.count() == 0:
            return _OUT.empty_table()
        # join plan: component partials keyed by (order, part, supp), then
        # part cost and supplier nation arrive via native hash joins
        _CPART = pa.schema(
            [("l_orderkey", pa.int64()), ("l_partkey", pa.int64()),
             ("l_suppkey", pa.int64()), ("rev_e4", pa.int64()),
             ("qty", pa.int64())]
        )

        def comp_partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _CPART.empty_table()
            cents = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
            disc = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
            qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
            g = (
                pa.table(
                    {
                        "l_orderkey": t["l_orderkey"],
                        "l_partkey": t["l_partkey"],
                        "l_suppkey": t["l_suppkey"],
                        "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                        "qty": qty,
                    }
                )
                .group_by(["l_orderkey", "l_partkey", "l_suppkey"])
                .aggregate([("rev_e4", "sum"), ("qty", "sum")])
            )
            return g.rename_columns(
                ["l_orderkey", "l_partkey", "l_suppkey", "rev_e4", "qty"]
            ).cast(_CPART)

        comp = drop_empty_blocks(
            read_table(
                sf_dir, "lineitem",
                columns=["l_orderkey", "l_partkey", "l_suppkey",
                         "l_quantity", "l_extendedprice", "l_discount"],
            ).map_batches(comp_partial, batch_format="pyarrow", zero_copy_batch=True),
            _CPART,
        )
        with_part = comp.join(
            part_ds, join_type="inner",
            num_partitions=join_partitions(comp, part_ds), on=("l_partkey",),
        )
        _JPART = pa.schema(
            [("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("profit_e4", pa.int64())]
        )

        def profit_partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _JPART.empty_table()
            rev = t["rev_e4"].to_numpy(zero_copy_only=False)
            qty = t["qty"].to_numpy(zero_copy_only=False)
            cost = t["cost_e2"].to_numpy(zero_copy_only=False)
            g = (
                pa.table(
                    {
                        "l_orderkey": t["l_orderkey"],
                        "l_suppkey": t["l_suppkey"],
                        "profit_e4": pa.array(rev - cost * qty * 100, pa.int64()),
                    }
                )
                .group_by(["l_orderkey", "l_suppkey"])
                .aggregate([("profit_e4", "sum")])
            )
            return g.rename_columns(
                ["l_orderkey", "l_suppkey", "profit_e4"]
            ).cast(_JPART)

        prof = drop_empty_blocks(
            with_part.map_batches(
                profit_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            _JPART,
        )
        with_nation = prof.join(
            supp_ds, join_type="inner",
            num_partitions=join_partitions(prof, supp_ds), on=("l_suppkey",),
        )

        def nation_partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _LPART.empty_table()
            g = (
                t.select(["l_orderkey", "nation", "profit_e4"])
                .group_by(["l_orderkey", "nation"])
                .aggregate([("profit_e4", "sum")])
            )
            return g.rename_columns(
                ["l_orderkey", "nation", "profit_e4"]
            ).cast(_LPART)

        li_agg = with_nation.map_batches(
            nation_partial, batch_format="pyarrow", zero_copy_batch=True
        )

    li_agg = drop_empty_blocks(li_agg, _LPART)
    if li_agg.count() == 0:
        return _OUT.empty_table()

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    joined = drop_empty_blocks(
        li_agg.join(
            orders,
            join_type="inner",
            num_partitions=join_partitions(li_agg, orders),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("nation", pa.string()),
             ("profit_e4", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
    )

    _GPART = pa.schema(
        [("nation", pa.string()), ("o_year", pa.int64()),
         ("profit_e4", pa.int64())]
    )

    def year_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _GPART.empty_table()
        g = (
            pa.table(
                {
                    "nation": t["nation"],
                    "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                    "profit_e4": t["profit_e4"],
                }
            )
            .group_by(["nation", "o_year"])
            .aggregate([("profit_e4", "sum")])
        )
        return g.rename_columns(["nation", "o_year", "profit_e4"])

    agg = (
        joined.map_batches(year_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["nation", "o_year"])
        .sum("profit_e4")
    ).to_pandas()  # <= 25 nations x ~7 years — bounded
    if agg.empty:
        return _OUT.empty_table()
    out = pa.table(
        {
            "nation": pa.array(agg["nation"], pa.string()),
            "o_year": pa.array(agg["o_year"].astype("int64"), pa.int64()),
            "profit_e4": pa.array(
                agg["sum(profit_e4)"].astype("int64"), pa.int64()
            ),
        },
        schema=_OUT,
    )
    idx = pc.sort_indices(
        out, sort_keys=[("nation", "ascending"), ("o_year", "descending")]
    )
    return out.take(idx)


# ---------------------------------------------------------------------------
# important_parts — TPC-H Q11 shape (HAVING sum > fraction of a global sum)
# ---------------------------------------------------------------------------
# No partsupp: a part's "stock value" from one nation's suppliers is the
# total cents of that nation's lineitems for it.  TPC-H scales Q11's
# FRACTION by 1/SF because a fixed share of the total can't survive a
# growing part count (a fixed 1/1000 rule left ZERO survivors at sf0.1);
# the self-normalizing equivalent keeps parts worth more than K x the MEAN
# part value — value_e2 * n_parts > K * total, a pure integer comparison
# with no scale-tuned constant (K=3 keeps 1/22/193 parts at the three
# testdata scales).

_Q11_NATION = "NATION_3"
_Q11_MEAN_MULT = 3  # keep parts holding > 3x the mean per-part value


@op(
    "important_parts",
    f"""
    WITH v AS (
      SELECT l_partkey AS p_partkey,
             sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT AS value_e2
      FROM lineitem
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN nation   ON n_nationkey = s_nationkey
      WHERE n_name = '{_Q11_NATION}'
      GROUP BY 1
    )
    SELECT p_partkey, value_e2
    FROM v
    WHERE value_e2 * (SELECT count(*) FROM v)
          > {_Q11_MEAN_MULT} * (SELECT sum(value_e2) FROM v)
    ORDER BY value_e2 DESC, p_partkey
    """,
)
def important_parts(sf_dir: str):
    """TPC-H Q11 shape: parts whose value from one nation's suppliers
    exceeds {_Q11_MEAN_MULT}x the mean per-part value — the scalar-subquery
    HAVING, computed as (per-part aggregate) -> (global sum + count over
    the aggregate, broadcast back as two int64s) -> distributed filter.

    Plan: supplier+nation collapse to a driver keyset; ONE lineitem pass
    with per-batch (part, sum) partials; the per-part aggregate (bounded
    by |part|) is materialized once and consumed twice — once for the
    global total (streaming Sum), once for the threshold filter — so the
    corpus-sized input is never re-read."""
    nat_key = {
        r["n_name"]: int(r["n_nationkey"])
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_name"]
        ).take_all()
    }[_Q11_NATION]
    supp_keys = pa.array(
        sorted(
            int(r["s_suppkey"])
            for r in read_table(
                sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
            ).take_all()
            if int(r["s_nationkey"]) == nat_key
        ),
        pa.int64(),
    )
    _OUT = pa.schema([("p_partkey", pa.int64()), ("value_e2", pa.int64())])
    if len(supp_keys) == 0:
        return _OUT.empty_table()

    _PART = pa.schema([("p_partkey", pa.int64()), ("value_e2", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        k = t.filter(pc.is_in(t["l_suppkey"], value_set=supp_keys))
        if k.num_rows == 0:
            return _PART.empty_table()
        g = (
            pa.table(
                {
                    "p_partkey": k["l_partkey"],
                    "value_e2": _cents(k["l_extendedprice"]),
                }
            )
            .group_by(["p_partkey"])
            .aggregate([("value_e2", "sum")])
        )
        return g.rename_columns(["p_partkey", "value_e2"])

    per_part = (
        read_table(
            sf_dir, "lineitem",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("p_partkey")
        .sum("value_e2")
        .materialize()  # bounded by |part| — consumed twice below
    )
    total = per_part.sum("sum(value_e2)")
    if not total:
        return _OUT.empty_table()
    total = int(total)
    n_parts = int(per_part.count())

    def keep(t: pa.Table) -> pa.Table:
        v = t["sum(value_e2)"]
        k = t.filter(
            pc.greater(
                pc.multiply(pc.cast(v, pa.int64()), pa.scalar(n_parts, pa.int64())),
                pa.scalar(_Q11_MEAN_MULT * total, pa.int64()),
            )
        )
        if k.num_rows == 0:
            return _OUT.empty_table()
        return pa.table(
            {"p_partkey": k["p_partkey"], "value_e2": k["sum(value_e2)"]},
            schema=_OUT,
        )

    surv = per_part.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # survivors: > Kx-mean shares => < n_parts/K rows — bounded
    out = pa.table(
        {
            "p_partkey": pa.array([int(r["p_partkey"]) for r in surv], pa.int64()),
            "value_e2": pa.array([int(r["value_e2"]) for r in surv], pa.int64()),
        },
        schema=_OUT,
    )
    idx = pc.sort_indices(
        out, sort_keys=[("value_e2", "descending"), ("p_partkey", "ascending")]
    )
    return out.take(idx)


# ---------------------------------------------------------------------------
# window_heavy_suppliers — TPC-H Q20 shape (nested aggregate semi-join)
# ---------------------------------------------------------------------------
# Testdata shipdates span 1995-2001 (~7 years), so Q20's literal ">1/2 of
# all-time volume in one year" never fires; the same nested-aggregate shape
# with ">1/6" (still integer-exact: qty_window*6 > qty_total) discriminates
# at every driver scale (sf0.01: 3 of NATION_9's 10 qualifying suppliers).

_Q20_NATION = "NATION_9"
_Q20_NAME_SUBSTR = "ol"
_Q20_LO = "1997-01-01"
_Q20_HI = "1998-01-01"


@op(
    "window_heavy_suppliers",
    f"""
    WITH q AS (
      SELECT l_suppkey,
             sum(CASE WHEN l_shipdate >= TIMESTAMP '{_Q20_LO}'
                       AND l_shipdate <  TIMESTAMP '{_Q20_HI}'
                      THEN CAST(round(l_quantity) AS BIGINT) ELSE 0 END)
               AS qty_window,
             sum(CAST(round(l_quantity) AS BIGINT)) AS qty_total
      FROM lineitem
      JOIN part ON p_partkey = l_partkey
      WHERE p_name LIKE '%{_Q20_NAME_SUBSTR}%'
      GROUP BY 1
    )
    SELECT s_name, qty_window::BIGINT AS qty_window, qty_total::BIGINT AS qty_total
    FROM q
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation   ON n_nationkey = s_nationkey
    WHERE n_name = '{_Q20_NATION}' AND qty_window * 6 > qty_total
    ORDER BY s_name
    """,
)
def window_heavy_suppliers(sf_dir: str):
    """TPC-H Q20 shape: one nation's suppliers who shipped more than a
    sixth of their all-time volume of a product line inside one year —
    the nested IN-with-aggregates, computed as conditional-sum partials +
    one bounded groupby + an integer comparison (qty_window*6 >
    qty_total; no fraction on either side).

    Plan (size-gated, VERDICT r4 #2): the part name-filter and the
    nation's supplier set are scale-proportional, so each is routed
    through util.fetch_if_small — under the broadcast cap they become
    driver keysets (is_in pruning at the scan; the nation filter pushed
    BEFORE the aggregate); over it, the per-batch conditional-sum
    partials hash-join BOTH dimensions natively and nothing
    dimension-sized ever reaches the driver.  Either way: one lineitem
    pass, final groupby bounded by the nation's supplier count."""
    import datetime as _dt

    from .util import drop_empty_blocks, fetch_if_small, join_partitions

    nat_key = {
        r["n_name"]: int(r["n_nationkey"])
        for r in read_table(
            sf_dir, "nation", columns=["n_nationkey", "n_name"]
        ).take_all()
    }[_Q20_NATION]

    _SUPP = pa.schema([("l_suppkey", pa.int64()), ("s_name", pa.string())])
    supp_tbl, supp_ds = fetch_if_small(
        read_table(
            sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_nationkey"]
        ).map_batches(
            lambda t: t.filter(pc.equal(t["s_nationkey"], nat_key))
            .select(["s_suppkey", "s_name"])
            .rename_columns(["l_suppkey", "s_name"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _SUPP,
    )
    _PKEY = pa.schema([("l_partkey", pa.int64())])
    part_tbl, part_ds = fetch_if_small(
        read_table(sf_dir, "part", columns=["p_partkey", "p_name"]).map_batches(
            lambda t: t.filter(
                pc.match_substring(t["p_name"], _Q20_NAME_SUBSTR)
            )
            .select(["p_partkey"])
            .rename_columns(["l_partkey"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        _PKEY,
    )
    _OUT = pa.schema(
        [("s_name", pa.string()), ("qty_window", pa.int64()),
         ("qty_total", pa.int64())]
    )
    lo = _dt.datetime.fromisoformat(_Q20_LO)
    hi = _dt.datetime.fromisoformat(_Q20_HI)
    broadcast = supp_tbl is not None and part_tbl is not None
    if broadcast:
        if supp_tbl.num_rows == 0 or part_tbl.num_rows == 0:
            return _OUT.empty_table()
        supp = dict(
            zip(supp_tbl["l_suppkey"].to_pylist(), supp_tbl["s_name"].to_pylist())
        )
        supp_keys = pa.array(sorted(supp), pa.int64())
        part_keys = pa.array(
            sorted(part_tbl["l_partkey"].to_pylist()), pa.int64()
        )

    _PART = pa.schema(
        [("l_partkey", pa.int64()), ("l_suppkey", pa.int64()),
         ("qty_window", pa.int64()), ("qty_total", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        if broadcast:
            t = t.filter(
                pc.and_(
                    pc.is_in(t["l_partkey"], value_set=part_keys),
                    pc.is_in(t["l_suppkey"], value_set=supp_keys),
                )
            )
        if t.num_rows == 0:
            return _PART.empty_table()
        qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        in_win = pc.cast(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            ),
            pa.int64(),
        )
        g = (
            pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "l_suppkey": t["l_suppkey"],
                    "qty_window": pc.multiply(qty, in_win),
                    "qty_total": qty,
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("qty_window", "sum"), ("qty_total", "sum")])
        )
        return g.rename_columns(
            ["l_partkey", "l_suppkey", "qty_window", "qty_total"]
        ).cast(_PART)

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    if not broadcast:
        # inner-join semantics: an empty dimension means an empty result
        if part_ds.count() == 0 or supp_ds.count() == 0:
            return _OUT.empty_table()
        # native hash joins: part keys prune, then the supplier names ride
        li = drop_empty_blocks(li, _PART)
        li = li.join(
            part_ds, join_type="inner",
            num_partitions=join_partitions(li, part_ds), on=("l_partkey",),
        )

    _SPART = pa.schema(
        [("l_suppkey", pa.int64()), ("qty_window", pa.int64()),
         ("qty_total", pa.int64())]
    )

    def resum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _SPART.empty_table()
        g = (
            t.select(["l_suppkey", "qty_window", "qty_total"])
            .group_by("l_suppkey")
            .aggregate([("qty_window", "sum"), ("qty_total", "sum")])
        )
        return g.rename_columns(
            ["l_suppkey", "qty_window", "qty_total"]
        ).cast(_SPART)

    agg = (
        li.map_batches(resum, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_suppkey")
        .aggregate(*_sum_cols("qty_window", "qty_total"))
    )
    if broadcast:
        rows = agg.take_all()  # <= the nation's supplier count — bounded
        keep = [
            (supp[int(r["l_suppkey"])], int(r["sum(qty_window)"]),
             int(r["sum(qty_total)"]))
            for r in rows
            if int(r["sum(qty_window)"]) * 6 > int(r["sum(qty_total)"])
        ]
    else:
        _AGG = pa.schema(
            [("l_suppkey", pa.int64()), ("sum(qty_window)", pa.int64()),
             ("sum(qty_total)", pa.int64())]
        )
        agg = drop_empty_blocks(agg, _AGG)
        named = agg.join(
            supp_ds, join_type="inner",
            num_partitions=join_partitions(agg, supp_ds), on=("l_suppkey",),
        )
        keep = [
            (r["s_name"], int(r["sum(qty_window)"]), int(r["sum(qty_total)"]))
            for r in named.take_all()  # <= the nation's supplier count
            if int(r["sum(qty_window)"]) * 6 > int(r["sum(qty_total)"])
        ]
    keep.sort()
    return pa.table(
        {
            "s_name": pa.array([k[0] for k in keep], pa.string()),
            "qty_window": pa.array([k[1] for k in keep], pa.int64()),
            "qty_total": pa.array([k[2] for k in keep], pa.int64()),
        },
        schema=_OUT,
    )


def _sum_cols(*names: str):
    from ray.data.aggregate import Sum

    return tuple(Sum(n) for n in names)


def _pick_last(
    etype: "np.ndarray",
    day: "np.ndarray",
    ts: "np.ndarray",
    eid: "np.ndarray",
) -> "np.ndarray":
    """Indices of the max-(ts, event_id) row per (event_type, day) — one
    vectorized lexsort, then the last element of each key run (shared by
    daily_value_ffill and the hypothesis property test)."""
    codes, inv = np.unique(etype, return_inverse=True)
    key = inv.astype(np.int64) * 1_000_000 + day  # day ≪ 1e6
    order = np.lexsort((eid, ts, key))
    k = key[order]
    last = np.flatnonzero(np.append(k[1:] != k[:-1], True))
    return order[last]


# ---------------------------------------------------------------------------
# daily_value_ffill — date-spine + forward-fill (gap-filled daily series)
# ---------------------------------------------------------------------------
# The missing windowed shape: build a complete daily spine per series and
# carry the last observation forward across gap days (the time-series
# normalization step before any resample/rolling model input).  The carried
# value is copied bit-for-bit from ONE deterministically-chosen event (max
# (ts, event_id) within the day) — no float arithmetic, so the double
# survives the compare exactly.


@op(
    "daily_value_ffill",
    """
    WITH ev AS (
      SELECT ts, event_id, event_type, value FROM events WHERE value IS NOT NULL
    ),
    days AS (
      SELECT unnest(generate_series(
        date_trunc('day', (SELECT min(ts) FROM ev)),
        date_trunc('day', (SELECT max(ts) FROM ev)),
        INTERVAL 1 DAY)) AS day
    ),
    types AS (SELECT DISTINCT event_type FROM ev),
    lastobs AS (
      SELECT event_type, day, value FROM (
        SELECT event_type, date_trunc('day', ts) AS day, value,
               row_number() OVER (PARTITION BY event_type, date_trunc('day', ts)
                                  ORDER BY ts DESC, event_id DESC) AS rn
        FROM ev
      ) WHERE rn = 1
    ),
    spine AS (SELECT t.event_type, d.day FROM types t CROSS JOIN days d),
    filled AS (
      SELECT s.event_type, s.day,
             last_value(l.value IGNORE NULLS) OVER (
               PARTITION BY s.event_type ORDER BY s.day
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS value
      FROM spine s
      LEFT JOIN lastobs l ON l.event_type = s.event_type AND l.day = s.day
    )
    SELECT event_type, day, value FROM filled WHERE value IS NOT NULL
    ORDER BY event_type, day
    """,
)
def daily_value_ffill(sf_dir: str):
    """Gap-filled daily series per event_type: the last observed event
    value of each day (deterministic pick: max (ts, event_id)), carried
    forward over days with no observation, starting at each series' first
    observed day.

    Scale shape: per-batch partials keep ONE candidate row per
    (event_type, day) via a vectorized lexsort + last-of-run pick, so the
    groupby shuffle moves ≤ |series|·|days|·|blocks| tiny rows; the final
    per-cell argmax runs in map_groups over those candidates.  The filled
    spine itself is |series| × |days| — bounded (a daily series is small
    by construction; the corpus-sized event stream never leaves the
    partials)."""
    ev = read_table(
        sf_dir, "events", columns=["ts", "event_id", "event_type", "value"]
    )

    _CAND = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.int64()),  # epoch days (int64 survives the shuffle)
            ("ts_us", pa.int64()),
            ("event_id", pa.int64()),
            ("value", pa.float64()),
        ]
    )
    _US_PER_DAY = 86_400_000_000

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        if t.num_rows == 0:
            return _CAND.empty_table()
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        etype = np.asarray(t["event_type"].to_pylist())
        day = ts // _US_PER_DAY
        idx = _pick_last(etype, day, ts, eid)
        return pa.table(
            {
                "event_type": pa.array(etype[idx], pa.string()),
                "day": pa.array(day[idx], pa.int64()),
                "ts_us": pa.array(ts[idx], pa.int64()),
                "event_id": pa.array(eid[idx], pa.int64()),
                "value": t["value"].take(pa.array(idx)),
            },
            schema=_CAND,
        )

    def reduce_cell(group: pa.Table) -> pa.Table:
        ts = group["ts_us"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        j = int(np.lexsort((eid, ts))[-1])
        return group.slice(j, 1).select(["event_type", "day", "value"])

    rows = (
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "day"])
        .map_groups(reduce_cell, batch_format="pyarrow")
        .take_all()  # |series| × |observed days| — bounded
    )
    _OUT = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.timestamp("us")),
            ("value", pa.float64()),
        ]
    )
    if not rows:
        return _OUT.empty_table()
    obs = {(r["event_type"], int(r["day"])): float(r["value"]) for r in rows}
    days = sorted({d for _, d in obs})
    lo, hi = days[0], days[-1]
    types = sorted({t for t, _ in obs})
    out_t, out_d, out_v = [], [], []
    for t in types:
        carried = None
        for d in range(lo, hi + 1):
            v = obs.get((t, d))
            if v is not None:
                carried = v
            if carried is not None:
                out_t.append(t)
                out_d.append(d * _US_PER_DAY)
                out_v.append(carried)
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "day": pa.array(out_d, pa.timestamp("us")),
            "value": pa.array(out_v, pa.float64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# orders_rfm_segments — RFM segmentation (multi-dim exact-quantile bucketing)
# ---------------------------------------------------------------------------
# Classic marketing/recommender feature: each customer scored 1-4 on
# Recency (days since last order, vs the global max order day), Frequency
# (order count) and Monetary (total cents), where the quartile thresholds
# are EXACT index-based quantiles of each dimension's multiset (the same
# definition length_deciles uses: value at index ((n-1)*q)//4 ascending).
# bucket(v) = 1 + (v > t1) + (v > t2) + (v > t3) — pure integer compares.

_RFM_US_PER_DAY = 86_400_000_000


def _rfm_sql() -> str:
    def thr(col: str, q: int) -> str:
        return (
            f"(SELECT v FROM (SELECT {col} AS v, row_number() OVER (ORDER BY {col}) AS rn "
            f"FROM cust) x, n WHERE x.rn - 1 = ((n.c - 1) * {q}) // 4)"
        )

    def bucket(col: str) -> str:
        return (
            f"1 + (({col} > {thr(col, 1)})::INT + ({col} > {thr(col, 2)})::INT"
            f" + ({col} > {thr(col, 3)})::INT)"
        )

    return f"""
    WITH cust AS (
      SELECT o_custkey,
             (CAST(epoch_us((SELECT max(o_orderdate) FROM orders)) AS BIGINT)
               // {_RFM_US_PER_DAY})
             - (CAST(epoch_us(max(o_orderdate)) AS BIGINT)
               // {_RFM_US_PER_DAY}) AS rec,
             count(*)::BIGINT AS freq,
             sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS mon
      FROM orders GROUP BY 1
    ),
    n AS (SELECT count(*) AS c FROM cust)
    SELECT {bucket('rec')}::BIGINT AS r_bucket,
           {bucket('freq')}::BIGINT AS f_bucket,
           {bucket('mon')}::BIGINT AS m_bucket,
           count(*)::BIGINT AS n_customers
    FROM cust GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
    """


@op("orders_rfm_segments", _rfm_sql())
def orders_rfm_segments(sf_dir: str):
    """RFM segmentation: customers bucketed 1-4 per dimension by exact
    index-based quartiles, reported as (r, f, m) → customer count (≤64
    rows).

    Scale shape: ONE orders pass with per-batch (custkey → max-day,
    count, cents) partials before the customer-keyed groupby; the
    per-customer aggregate is materialized once and consumed four times
    (three value HISTOGRAMS — distinct-value-sized, the same trick as
    length_deciles — plus the bucket-assignment scan).  The nine
    thresholds broadcast as plain ints; assignment emits per-batch
    (r, f, m) partial counts so the final shuffle is ≤ 64 rows × blocks.
    The monetary histogram's distinct-value count approaches |customer|
    in the worst case — swap for a sort + split_at_indices quantile pass
    at extreme customer cardinality (annotated trade, same as the
    pagerank catalog bound)."""
    from ray.data.aggregate import Max, Sum

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    _P = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("last_day", pa.int64()),
            ("cnt", pa.int64()),
            ("cents", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t["o_orderdate"], pa.int64()), _RFM_US_PER_DAY)
        g = (
            pa.table(
                {
                    "o_custkey": t["o_custkey"],
                    "last_day": day,
                    "cnt": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "cents": _cents(t["o_totalprice"]),
                }
            )
            .group_by(["o_custkey"])
            .aggregate([("last_day", "max"), ("cnt", "sum"), ("cents", "sum")])
        )
        return g.rename_columns(["o_custkey", "last_day", "cnt", "cents"]).cast(_P)

    cust = (
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_custkey")
        .aggregate(Max("last_day"), Sum("cnt"), Sum("cents"))
        .materialize()  # |customer|-bounded; consumed 4x below
    )
    gmax = cust.max("max(last_day)")
    _OUT = pa.schema(
        [
            ("r_bucket", pa.int64()),
            ("f_bucket", pa.int64()),
            ("m_bucket", pa.int64()),
            ("n_customers", pa.int64()),
        ]
    )
    if gmax is None:
        return _OUT.empty_table()
    gmax = int(gmax)

    dims = {  # output column → (source column, transform to the scored value)
        "rec": ("max(last_day)", lambda v: gmax - v),
        "freq": ("sum(cnt)", lambda v: v),
        "mon": ("sum(cents)", lambda v: v),
    }

    def _histogram(col: str, fn) -> np.ndarray:
        rows = (
            cust.map_batches(
                lambda t, _c=col, _f=fn: pa.table(
                    {
                        "v": pa.array(
                            _f(
                                pc.cast(t[_c], pa.int64()).to_numpy(
                                    zero_copy_only=False
                                )
                            ),
                            pa.int64(),
                        ),
                        "c": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    }
                )
                .group_by("v")
                .aggregate([("c", "sum")])
                .rename_columns(["v", "c"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby("v")
            .sum("c")
            .take_all()
        )  # distinct-value-sized
        return np.array(sorted((int(r["v"]), int(r["sum(c)"])) for r in rows))

    thresholds = {}
    for name, (col, fn) in dims.items():
        vals = _histogram(col, fn)
        cum = np.cumsum(vals[:, 1])
        n = int(cum[-1])
        thresholds[name] = [
            int(vals[np.searchsorted(cum, ((n - 1) * q) // 4 + 1), 0])
            for q in (1, 2, 3)
        ]

    def assign(t: pa.Table) -> pa.Table:
        out = {}
        for name, (col, fn) in dims.items():
            v = fn(pc.cast(t[col], pa.int64()).to_numpy(zero_copy_only=False))
            t1, t2, t3 = thresholds[name]
            out[name] = 1 + (v > t1) + (v > t2) + (v > t3)
        g = (
            pa.table(
                {
                    "r_bucket": out["rec"].astype(np.int64),
                    "f_bucket": out["freq"].astype(np.int64),
                    "m_bucket": out["mon"].astype(np.int64),
                    "n_customers": np.ones(t.num_rows, dtype=np.int64),
                }
            )
            .group_by(["r_bucket", "f_bucket", "m_bucket"])
            .aggregate([("n_customers", "sum")])
        )
        return g.rename_columns(
            ["r_bucket", "f_bucket", "m_bucket", "n_customers"]
        )

    rows = (
        cust.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["r_bucket", "f_bucket", "m_bucket"])
        .sum("n_customers")
        .take_all()  # ≤ 64 rows
    )
    got = sorted(
        (int(r["r_bucket"]), int(r["f_bucket"]), int(r["m_bucket"]),
         int(r["sum(n_customers)"]))
        for r in rows
    )
    return pa.table(
        {
            "r_bucket": pa.array([g[0] for g in got], pa.int64()),
            "f_bucket": pa.array([g[1] for g in got], pa.int64()),
            "m_bucket": pa.array([g[2] for g in got], pa.int64()),
            "n_customers": pa.array([g[3] for g in got], pa.int64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# priority_split_by_status — TPC-H Q12 shape (two-way conditional counts
# after a fact-to-fact join)
# ---------------------------------------------------------------------------

_Q12_LO = "1996-01-01"
_Q12_HI = "1997-01-01"
_HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")


@op(
    "priority_split_by_status",
    f"""
    SELECT l.l_linestatus,
           sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END)::BIGINT AS high_count,
           sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                    THEN 0 ELSE 1 END)::BIGINT AS low_count
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE l.l_shipdate >= TIMESTAMP '{_Q12_LO}'
      AND l.l_shipdate <  TIMESTAMP '{_Q12_HI}'
    GROUP BY 1
    """,
)
def priority_split_by_status(sf_dir: str):
    """TPC-H Q12 shape (adapted: testdata lineitem has no l_shipmode /
    receipt dates, so the split key is l_linestatus and the window is the
    1996 ship year): per line status, how many shipped lineitems belonged
    to high-priority (URGENT/HIGH) orders vs everything else — the
    join-then-two-way-conditional-count plan.

    Scale shape: lineitem is filtered to the ship-year at the scan task
    and projected to (l_orderkey, l_linestatus) before its only shuffle;
    orders — scale-proportional, NOT broadcastable — collapses to
    (o_orderkey, is_high∈{0,1}) so the hash join carries one int flag,
    not the priority strings; after the join a per-batch partial
    (status → Σis_high, count) reduces every block to ≤|statuses| rows
    before the final tiny groupby.  low = count − high needs no second
    CASE pass."""
    import datetime as _dt

    from .util import drop_empty_blocks, join_partitions

    lo = _dt.datetime.fromisoformat(_Q12_LO)
    hi = _dt.datetime.fromisoformat(_Q12_HI)

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_linestatus", "l_shipdate"]
    )

    def window(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        return t.select(["l_orderkey", "l_linestatus"])

    li_w = drop_empty_blocks(
        li.map_batches(window, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("l_orderkey", pa.int64()), ("l_linestatus", pa.string())]),
    )

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def flag(t: pa.Table) -> pa.Table:
        is_high = pc.cast(
            pc.is_in(t["o_orderpriority"], value_set=pa.array(_HIGH_PRIORITIES)),
            pa.int64(),
        )
        return pa.table({"o_orderkey": t["o_orderkey"], "is_high": is_high})

    ord_f = orders.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)

    joined = drop_empty_blocks(
        li_w.join(
            ord_f,
            join_type="inner",
            num_partitions=join_partitions(li_w, ord_f),
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        ),
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_linestatus", pa.string()),
             ("o_orderkey", pa.int64()), ("is_high", pa.int64())]
        ),
    )

    def split_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {"l_linestatus": t["l_linestatus"],
                 "high": t["is_high"],
                 "n": pa.array(np.ones(t.num_rows, dtype=np.int64))}
            )
            .group_by("l_linestatus")
            .aggregate([("high", "sum"), ("n", "sum")])
        )
        return g.rename_columns(["l_linestatus", "high", "n"])

    agg = (
        joined.map_batches(split_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_linestatus")
        .sum(["high", "n"])
    )

    def finish(t: pa.Table) -> pa.Table:
        high = pc.cast(t["sum(high)"], pa.int64())
        return pa.table(
            {
                "l_linestatus": t["l_linestatus"],
                "high_count": high,
                "low_count": pc.subtract(pc.cast(t["sum(n)"], pa.int64()), high),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# part_supplier_variety — TPC-H Q16 shape (supplier variety per part
# attribute, excluding a derived supplier blocklist)
# ---------------------------------------------------------------------------


@op(
    "part_supplier_variety",
    """
    WITH stat AS (
      SELECT sum(CAST(round(s_acctbal * 100) AS BIGINT))::BIGINT AS total_cents,
             count(*)::BIGINT AS n
      FROM supplier
    ),
    bad AS (
      SELECT s_suppkey FROM supplier, stat
      WHERE CAST(round(s_acctbal * 100) AS BIGINT) * stat.n < stat.total_cents
    )
    SELECT p.p_brand, p.p_size,
           count(DISTINCT l.l_suppkey)::BIGINT AS supplier_cnt
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    WHERE l.l_suppkey NOT IN (SELECT s_suppkey FROM bad)
    GROUP BY 1, 2
    """,
)
def part_supplier_variety(sf_dir: str):
    """TPC-H Q16 shape (adapted: testdata has no partsupp, so the
    part↔supplier relation is the distinct (l_partkey, l_suppkey) pairs
    observed in lineitem; the excluded-supplier predicate is
    below-mean account balance — self-normalizing at every scale,
    unlike Q16's fixed comment pattern, and exact via the integer
    cross-multiplication cents·n < Σcents, no float mean): distinct
    supplier count per (brand, size), skipping blocklisted suppliers.

    Scale shape: the supplier mean needs only two integer scalars (one
    streaming aggregate); the blocklist is an int64 key set broadcast
    once via ray.put and applied with a vectorized is_in at the lineitem
    scan (at extreme supplier cardinality swap this broadcast for a hash
    anti-join — same output); lineitem then collapses per batch to
    distinct (partkey, suppkey) pairs, so the pair-dedup groupby and the
    part join carry only distinct pairs, never raw lineitems; the final
    COUNT(DISTINCT) is a second dedup on (brand, size, suppkey) triples
    followed by per-batch count partials — the same two-stage exact
    grouped-distinct plan as distinct_parts_per_supplier."""
    import ray
    from ray.data.aggregate import Count, Sum

    from .util import drop_empty_blocks, join_partitions

    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])

    def sup_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"s_suppkey": t["s_suppkey"], "cents": _cents(t["s_acctbal"])}
        )

    sup_c = sup.map_batches(sup_cents, batch_format="pyarrow", zero_copy_batch=True)
    stat = sup_c.aggregate(Count(), Sum("cents"))  # two scalars
    total_cents = int(stat["sum(cents)"] or 0)
    n_sup = int(stat["count()"])

    def bad_keys(t: pa.Table) -> pa.Table:
        keep = pc.less(
            pc.multiply(pc.cast(t["cents"], pa.int64()), pa.scalar(n_sup, pa.int64())),
            pa.scalar(total_cents, pa.int64()),
        )
        return t.filter(keep).select(["s_suppkey"])

    bad = (
        sup_c.map_batches(bad_keys, batch_format="pyarrow", zero_copy_batch=True)
        .unique("s_suppkey")
    )  # blocklist-sized (≈ half the suppliers' int64 keys)
    bad_ref = ray.put(np.asarray(sorted(bad), dtype=np.int64))

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pair_partial(t: pa.Table) -> pa.Table:
        ks = ray.get(bad_ref)
        t = t.filter(pc.invert(pc.is_in(t["l_suppkey"], value_set=pa.array(ks))))
        return t.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    pairs = drop_empty_blocks(
        li.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_partkey", "l_suppkey"])
        .count()
        .select_columns(["l_partkey", "l_suppkey"]),
        pa.schema([("l_partkey", pa.int64()), ("l_suppkey", pa.int64())]),
    )

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])

    joined = drop_empty_blocks(
        pairs.join(
            part,
            join_type="inner",
            num_partitions=join_partitions(pairs, part),
            on=("l_partkey",),
            right_on=("p_partkey",),
        ),
        pa.schema(
            [("l_partkey", pa.int64()), ("l_suppkey", pa.int64()),
             ("p_partkey", pa.int64()), ("p_brand", pa.string()),
             ("p_size", pa.int64())]
        ),
    )

    def triple_partial(t: pa.Table) -> pa.Table:
        return (
            t.select(["p_brand", "p_size", "l_suppkey"])
            .group_by(["p_brand", "p_size", "l_suppkey"])
            .aggregate([])
        )

    triples = (
        joined.map_batches(triple_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["p_brand", "p_size", "l_suppkey"])
        .count()
        .select_columns(["p_brand", "p_size", "l_suppkey"])
    )

    def count_partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["p_brand", "p_size"])
            .group_by(["p_brand", "p_size"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"p_brand": g["p_brand"],
             "p_size": pc.cast(g["p_size"], pa.int64()),
             "n": pc.cast(g["count_all"], pa.int64())}
        )

    return _rename(
        triples.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["p_brand", "p_size"])
        .sum("n"),
        {"sum(n)": "supplier_cnt"},
        int64_cols=("supplier_cnt",),
    )


# ---------------------------------------------------------------------------
# sales_rollup — GROUP BY ROLLUP grouping-sets shape (nation, year)
# ---------------------------------------------------------------------------


@op(
    "sales_rollup",
    """
    SELECT COALESCE(n_name, 'ALL') AS nation,
           COALESCE(yr, -1)::BIGINT AS year,
           COALESCE(sum(cents), 0)::BIGINT AS rev_cents,
           count(*)::BIGINT AS n_orders
    FROM (
      SELECT n.n_name, EXTRACT(year FROM o.o_orderdate)::BIGINT AS yr,
             CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
      FROM orders o
      JOIN customer c ON c.c_custkey = o.o_custkey
      JOIN nation n ON n.n_nationkey = c.c_nationkey
    )
    GROUP BY ROLLUP (n_name, yr)
    """,
)
def sales_rollup(sf_dir: str):
    """Grouping-sets / ROLLUP shape: revenue and order counts at three
    granularities — (nation, year), (nation), grand total — the OLAP
    cube slice every warehouse rollup report needs, with 'ALL' / -1
    sentinel keys standing in for SQL's rollup NULLs (hash-stable and
    NULL-free on both sides).

    Scale shape: the fact stream is aggregated ONCE to the finest level —
    customer (scale-proportional) collapses to (custkey → nationkey) for
    the only fact-sized hash join, nation names broadcast as a 25-entry
    dict, and per-batch partials reduce each block to ≤ |nations×years|
    rows before the single groupby.  The two coarser levels are then
    aggregates OF the base aggregate (≤ nations×years rows — bounded,
    annotated), so the fact table is scanned exactly once for all three
    levels; counts and integer-cent sums add across levels exactly."""
    import ray

    from .util import drop_empty_blocks, join_partitions

    nation = read_table(sf_dir, "nation").take_all()  # 25-row dimension
    name_of = {int(r["n_nationkey"]): str(r["n_name"]) for r in nation}
    names_ref = ray.put(name_of)

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"]
    )

    def order_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "cents": _cents(t["o_totalprice"]),
                "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        )

    ord_p = orders.map_batches(order_proj, batch_format="pyarrow", zero_copy_batch=True)

    joined = drop_empty_blocks(
        ord_p.join(
            cust,
            join_type="inner",
            num_partitions=join_partitions(ord_p, cust),
            on=("o_custkey",),
            right_on=("c_custkey",),
        ),
        pa.schema(
            [("o_custkey", pa.int64()), ("cents", pa.int64()), ("yr", pa.int64()),
             ("c_custkey", pa.int64()), ("c_nationkey", pa.int32())]
        ),
    )

    def base_partial(t: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        nk = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(zero_copy_only=False)
        nation_col = pa.array([names[int(k)] for k in nk], pa.string())
        g = (
            pa.table(
                {"nation": nation_col, "year": t["yr"], "rev": t["cents"],
                 "n": pa.array(np.ones(t.num_rows, dtype=np.int64))}
            )
            .group_by(["nation", "year"])
            .aggregate([("rev", "sum"), ("n", "sum")])
        )
        return g.rename_columns(["nation", "year", "rev", "n"])

    base = _rename(
        joined.map_batches(base_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["nation", "year"])
        .sum(["rev", "n"]),
        {"sum(rev)": "rev_cents", "sum(n)": "n_orders"},
        int64_cols=("rev_cents", "n_orders"),
    )

    _OUT = pa.schema(
        [("nation", pa.string()), ("year", pa.int64()),
         ("rev_cents", pa.int64()), ("n_orders", pa.int64())]
    )
    # the base aggregate is bounded (≤ |nations| × |years| ≈ 25×7 rows at
    # any corpus size — grouping keys, not data size), so the two coarser
    # rollup levels are computed from it driver-side:
    rows = base.take_all()
    if not rows:
        return pa.table(
            {"nation": ["ALL"], "year": pa.array([-1], pa.int64()),
             "rev_cents": pa.array([0], pa.int64()),
             "n_orders": pa.array([0], pa.int64())},
            schema=_OUT,
        )
    per_nation: dict[str, list[int]] = {}
    total = [0, 0]
    out = {c: [] for c in ("nation", "year", "rev_cents", "n_orders")}
    for r in rows:
        out["nation"].append(str(r["nation"]))
        out["year"].append(int(r["year"]))
        out["rev_cents"].append(int(r["rev_cents"]))
        out["n_orders"].append(int(r["n_orders"]))
        agg = per_nation.setdefault(str(r["nation"]), [0, 0])
        agg[0] += int(r["rev_cents"])
        agg[1] += int(r["n_orders"])
        total[0] += int(r["rev_cents"])
        total[1] += int(r["n_orders"])
    for nat, (rev, n) in per_nation.items():
        out["nation"].append(nat)
        out["year"].append(-1)
        out["rev_cents"].append(rev)
        out["n_orders"].append(n)
    out["nation"].append("ALL")
    out["year"].append(-1)
    out["rev_cents"].append(total[0])
    out["n_orders"].append(total[1])
    return pa.table(
        {
            "nation": pa.array(out["nation"], pa.string()),
            "year": pa.array(out["year"], pa.int64()),
            "rev_cents": pa.array(out["rev_cents"], pa.int64()),
            "n_orders": pa.array(out["n_orders"], pa.int64()),
        },
        schema=_OUT,
    )


# ---------------------------------------------------------------------------
# table_profile — per-column data profile (rows / nulls / exact distincts)
# ---------------------------------------------------------------------------

_PROFILE_COLS = ("event_id", "ts", "user_id", "event_type", "value", "props")


def _profile_sql() -> str:
    parts = [
        f"""SELECT '{c}' AS col, count(*)::BIGINT AS n_rows,
           (count(*) - count({c}))::BIGINT AS n_null,
           count(DISTINCT {c})::BIGINT AS n_distinct
        FROM events"""
        for c in _PROFILE_COLS
    ]
    return " UNION ALL ".join(parts)


@op("table_profile", _profile_sql())
def table_profile(sf_dir: str):
    """Per-column profile of the events table: row count, null count and
    EXACT distinct count per column — the data-engine primitive behind
    schema inference, join planning and data-quality dashboards.

    Plan shape (scale rationale): one streamed pass computes row + null
    counts for every column at once (each batch reduces to a single
    partial row — no shuffle); then one column-pruned pass PER COLUMN for
    the exact distinct count, with per-batch pre-dedup
    (``group_by(col)``) so only each block's unique values enter the one
    intrinsic exact-distinct shuffle.  Values never cross engines — only
    the final integer counts are compared — so there is no float/VARCHAR
    cast-parity hazard.  At 100 TB you would swap the distinct passes for
    an HLL sketch (approximate, shuffle-free); the exact form is the
    oracle-checkable contract.
    """
    ev = read_table(sf_dir, "events", columns=list(_PROFILE_COLS))

    def count_partial(batch: pa.Table) -> pa.Table:
        cols: dict[str, Any] = {"n_rows": pa.array([batch.num_rows], pa.int64())}
        for c in _PROFILE_COLS:
            cols[f"null_{c}"] = pa.array([batch[c].null_count], pa.int64())
        return pa.table(cols)

    counts = ev.map_batches(
        count_partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["n_rows"] + [f"null_{c}" for c in _PROFILE_COLS])
    # counts is a dict of scalar sums (one row of integers — bounded).

    n_distinct: dict[str, int] = {}
    for c in _PROFILE_COLS:
        col_ds = read_table(sf_dir, "events", columns=[c])

        def pre_dedup(batch: pa.Table, _c: str = c) -> pa.Table:
            return batch.drop_null().group_by(_c).aggregate([])

        n_distinct[c] = (
            col_ds.map_batches(pre_dedup, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(c)
            .count()
            .count()
        )

    return pa.table(
        {
            "col": pa.array(list(_PROFILE_COLS), pa.string()),
            "n_rows": pa.array([int(counts["sum(n_rows)"])] * len(_PROFILE_COLS), pa.int64()),
            "n_null": pa.array(
                [int(counts[f"sum(null_{c})"]) for c in _PROFILE_COLS], pa.int64()
            ),
            "n_distinct": pa.array(
                [int(n_distinct[c]) for c in _PROFILE_COLS], pa.int64()
            ),
        }
    )


# ===========================================================================
# activity_reconcile — FULL OUTER join shape (two-system reconciliation)
# ===========================================================================

_RECON_MIN_PRICE = 400_000  # "big order" threshold; all 3 side classes
                            # are non-empty at every testdata scale


@op(
    "activity_reconcile",
    f"""
    WITH ev AS (
      SELECT user_id AS key, count(*)::BIGINT AS n_events,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS event_cents
      FROM events GROUP BY 1
    ),
    hv AS (
      SELECT o_custkey AS key, count(*)::BIGINT AS n_big_orders,
             CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS order_cents
      FROM orders WHERE o_totalprice > {_RECON_MIN_PRICE} GROUP BY 1
    )
    SELECT COALESCE(e.key, h.key) AS key,
           COALESCE(e.n_events, 0)::BIGINT AS n_events,
           COALESCE(e.event_cents, 0)::BIGINT AS event_cents,
           COALESCE(h.n_big_orders, 0)::BIGINT AS n_big_orders,
           COALESCE(h.order_cents, 0)::BIGINT AS order_cents,
           CASE WHEN e.key IS NULL THEN 'orders_only'
                WHEN h.key IS NULL THEN 'events_only'
                ELSE 'both' END AS side
    FROM ev e FULL OUTER JOIN hv h ON e.key = h.key
    """,
)
def activity_reconcile(sf_dir: str):
    """Two-system reconciliation — the FULL OUTER join shape: per-user
    event activity vs per-customer big-order spend (totalprice > 400k),
    matched on the shared key, with each row tagged 'both' /
    'events_only' / 'orders_only' and the missing side zero-filled
    (NULL-free output → stable value hashes).

    Scale shape: BOTH inputs collapse to per-key partials inside
    map_batches before their groupby (the combiner rule), so the full
    outer join only ever sees two already-aggregated key-sized streams;
    the orders side is filtered at the scan.  The side tag is one
    vectorized is_null pass after the join."""
    from ray.data.aggregate import Sum

    from .util import drop_empty_blocks, join_partitions

    ev = read_table(sf_dir, "events", columns=["user_id", "value"])

    _EVP = pa.schema(
        [("key", pa.int64()), ("n_events", pa.int64()),
         ("event_cents", pa.int64())]
    )

    def ev_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EVP.empty_table()
        g = (
            pa.table(
                {
                    "key": pc.cast(t["user_id"], pa.int64()),
                    "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "event_cents": _cents(t["value"]),
                }
            )
            .group_by("key")
            .aggregate([("n_events", "sum"), ("event_cents", "sum")])
        )
        return g.rename_columns(["key", "n_events", "event_cents"]).cast(_EVP)

    _HVP = pa.schema(
        [("key", pa.int64()), ("n_big_orders", pa.int64()),
         ("order_cents", pa.int64())]
    )

    def hv_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["o_totalprice"], _RECON_MIN_PRICE))
        if t.num_rows == 0:
            return _HVP.empty_table()
        g = (
            pa.table(
                {
                    "key": pc.cast(t["o_custkey"], pa.int64()),
                    "n_big_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "order_cents": _cents(t["o_totalprice"]),
                }
            )
            .group_by("key")
            .aggregate([("n_big_orders", "sum"), ("order_cents", "sum")])
        )
        return g.rename_columns(["key", "n_big_orders", "order_cents"]).cast(_HVP)

    def rn(names):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": pc.cast(t["key"], pa.int64()),
                    **{
                        n: pc.cast(t[f"sum({n})"], pa.int64()) for n in names
                    },
                }
            )

        return fn

    evs = drop_empty_blocks(
        ev.map_batches(ev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("key")
        .aggregate(Sum("n_events"), Sum("event_cents"))
        .map_batches(rn(["n_events", "event_cents"]), batch_format="pyarrow",
                     zero_copy_batch=True),
        _EVP,
    )
    hvs = drop_empty_blocks(
        read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
        .map_batches(hv_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("key")
        .aggregate(Sum("n_big_orders"), Sum("order_cents"))
        .map_batches(rn(["n_big_orders", "order_cents"]), batch_format="pyarrow",
                     zero_copy_batch=True),
        _HVP,
    )

    _jp = join_partitions(evs, hvs)
    j = evs.join(hvs, join_type="full_outer", num_partitions=_jp, on=("key",))

    _OUT = pa.schema(
        [("key", pa.int64()), ("n_events", pa.int64()),
         ("event_cents", pa.int64()), ("n_big_orders", pa.int64()),
         ("order_cents", pa.int64()), ("side", pa.string())]
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        ev_null = pc.is_null(t["n_events"])
        hv_null = pc.is_null(t["n_big_orders"])
        side = pc.if_else(
            ev_null,
            pa.scalar("orders_only"),
            pc.if_else(hv_null, pa.scalar("events_only"), pa.scalar("both")),
        )
        return pa.table(
            {
                "key": pc.cast(t["key"], pa.int64()),
                "n_events": pc.cast(pc.fill_null(t["n_events"], 0), pa.int64()),
                "event_cents": pc.cast(pc.fill_null(t["event_cents"], 0), pa.int64()),
                "n_big_orders": pc.cast(pc.fill_null(t["n_big_orders"], 0), pa.int64()),
                "order_cents": pc.cast(pc.fill_null(t["order_cents"], 0), pa.int64()),
                "side": side,
            },
            schema=_OUT,
        )

    return j.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# bloom_semi_join — Bloom-filter join pruning, with an exact audit
# ===========================================================================
#
# The 100 TB join-pruning technique this registry otherwise only implies:
# instead of shipping the build side's key set to every probe task (or
# shuffling the probe side), broadcast an m-bit Bloom filter of the keys
# (Bloom, CACM 1970) and drop non-matching probe rows where they are
# read.  Bits come from the md5-int60 → (a·h+b) mod P31 hash family the
# minhash/CMS kernels already share with SQL, so the filter — false
# positives included — is bit-identical in the engine and the oracle.
# The op reports, per order status, how many rows the Bloom pass keeps
# vs the exact semi join, making the false-positive cost a measured,
# driver-checked number rather than a claim.

_BLOOM_M = 1 << 15        # 32768 bits = 4 KiB broadcast
_BLOOM_K = 3              # hash functions (first 3 shared permutations)
_BLOOM_SEG = "BUILDING"   # build-side predicate (selective at every sf)


def _bloom_bits_sql(key_expr: str) -> list[str]:
    """The k bit positions of ``key_expr`` (an integer column), via
    md5-int60 of its decimal string — the engine's exact rule."""
    from ..functions import dedup as dd

    h = dd.SQL_H60.format(s=f"CAST({key_expr} AS VARCHAR)")
    return [
        f"((({h} % {dd.P31}) * {int(dd.PERM_A[j])} + {int(dd.PERM_B[j])})"
        f" % {dd.P31}) % {_BLOOM_M}"
        for j in range(_BLOOM_K)
    ]


def _bloom_sql() -> str:
    kbits = _bloom_bits_sql("k")
    obits = _bloom_bits_sql("o_custkey")
    return f"""
    WITH keys AS (
      SELECT DISTINCT c_custkey AS k FROM customer
      WHERE c_mktsegment = '{_BLOOM_SEG}'
    ),
    bits AS (
      SELECT DISTINCT bit FROM (
        SELECT unnest([{', '.join(kbits)}]) AS bit FROM keys)
    ),
    ob AS (
      SELECT DISTINCT o_orderkey, o_orderstatus, o_custkey, bit FROM (
        SELECT o_orderkey, o_orderstatus, o_custkey,
               unnest([{', '.join(obits)}]) AS bit
        FROM orders)
    ),
    chk AS (
      SELECT o_orderkey, any_value(o_orderstatus) AS o_orderstatus,
             any_value(o_custkey) AS o_custkey,
             count(*) = count(b.bit) AS pass
      FROM ob LEFT JOIN bits b USING (bit) GROUP BY o_orderkey
    )
    SELECT o_orderstatus,
           count(*)::BIGINT AS n_orders,
           count(*) FILTER (WHERE pass)::BIGINT AS n_bloom_pass,
           count(*) FILTER (WHERE o_custkey IN (SELECT k FROM keys))::BIGINT
             AS n_true_match,
           (count(*) FILTER (WHERE pass)
            - count(*) FILTER (WHERE o_custkey IN (SELECT k FROM keys))
           )::BIGINT AS n_false_pos
    FROM chk GROUP BY 1
    """


def _bloom_positions(keys: "pa.Array") -> np.ndarray:
    """int64 key column → sorted distinct bit positions (the engine's
    twin of _bloom_bits_sql)."""
    from ..functions import dedup as dd

    h31 = dd.hash_strings(pc.cast(keys, pa.string())) % dd.P31
    bits = [
        ((h31 * int(dd.PERM_A[j]) + int(dd.PERM_B[j])) % dd.P31) % _BLOOM_M
        for j in range(_BLOOM_K)
    ]
    return np.stack(bits, axis=1)


@op("bloom_semi_join", _bloom_sql)
def bloom_semi_join(sf_dir: str):
    """Bloom-pruned semi join of orders against BUILDING-segment customers,
    audited per order status: total orders, Bloom survivors, exact semi
    matches, and the false-positive overshoot (Bloom never drops a true
    match — n_bloom_pass ≥ n_true_match by construction).

    Scale shape: the build side folds to ≤m distinct BIT POSITIONS per
    batch (constant traffic — the filter, not the keys, crosses the
    cluster) and the driver broadcasts one 4 KiB bitmap via ray.put;
    probe batches evaluate membership with three vectorized gathers and
    reduce to per-(status, outcome) count partials.  The exact-semi audit
    column runs as a distributed left_semi join (no key-set broadcast),
    so the op itself never ships the thing the Bloom exists to avoid."""
    import ray
    from ray.data.aggregate import Sum

    from .util import drop_empty_blocks, join_partitions

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    _BITS = pa.schema([("bit", pa.int64())])

    def bit_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], _BLOOM_SEG))
        if t.num_rows == 0:
            return _BITS.empty_table()
        pos = np.unique(_bloom_positions(t["c_custkey"]).ravel())
        return pa.table({"bit": pa.array(pos)}, schema=_BITS)

    bit_rows = (
        cust.map_batches(bit_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bit")
        .count()
        .take_all()  # ≤ m rows — the whole filter
    )
    bitmap = np.zeros(_BLOOM_M, dtype=bool)
    for r in bit_rows:
        bitmap[int(r["bit"])] = True
    bm_ref = ray.put(bitmap)

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]
    )

    _CNT = pa.schema(
        [("o_orderstatus", pa.string()), ("n_orders", pa.int64()),
         ("n_bloom_pass", pa.int64())]
    )

    def probe_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _CNT.empty_table()
        bm = ray.get(bm_ref)
        pos = _bloom_positions(t["o_custkey"])
        passed = bm[pos].all(axis=1)
        g = (
            pa.table(
                {
                    "o_orderstatus": t["o_orderstatus"],
                    "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "n_bloom_pass": pa.array(passed.astype(np.int64)),
                }
            )
            .group_by("o_orderstatus")
            .aggregate([("n_orders", "sum"), ("n_bloom_pass", "sum")])
        )
        return g.rename_columns(
            ["o_orderstatus", "n_orders", "n_bloom_pass"]
        ).cast(_CNT)

    counts = {
        r["o_orderstatus"]: (int(r["sum(n_orders)"]), int(r["sum(n_bloom_pass)"]))
        for r in orders.map_batches(
            probe_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("o_orderstatus")
        .aggregate(Sum("n_orders"), Sum("n_bloom_pass"))
        .take_all()  # ≤ |statuses| rows
    }

    # exact audit: distributed left_semi join — no key-set broadcast
    keys = drop_empty_blocks(
        cust.map_batches(
            lambda t: t.filter(pc.equal(t["c_mktsegment"], _BLOOM_SEG))
            .select(["c_custkey"])
            .rename_columns(["o_custkey"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        pa.schema([("o_custkey", pa.int64())]),
    )
    _jp = join_partitions(orders)
    true_counts = {
        r["o_orderstatus"]: int(r["count()"])
        for r in orders.join(
            keys, join_type="left_semi", num_partitions=_jp, on=("o_custkey",)
        )
        .groupby("o_orderstatus")
        .count()
        .take_all()  # ≤ |statuses| rows
    }

    statuses = sorted(counts)
    n_orders = [counts[s][0] for s in statuses]
    n_pass = [counts[s][1] for s in statuses]
    n_true = [true_counts.get(s, 0) for s in statuses]
    return pa.table(
        {
            "o_orderstatus": pa.array(statuses, pa.string()),
            "n_orders": pa.array(n_orders, pa.int64()),
            "n_bloom_pass": pa.array(n_pass, pa.int64()),
            "n_true_match": pa.array(n_true, pa.int64()),
            "n_false_pos": pa.array(
                [p - t for p, t in zip(n_pass, n_true)], pa.int64()
            ),
        }
    )


# ===========================================================================
# value_quantiles_sketch — mergeable quantile sketch (fixed-bin histogram)
# ===========================================================================

_QSK_BINS = 4096          # counters
_QSK_WIDTH = 16           # cents per bin → covers [0, 655.36) currency
_QSK_QS = [25, 50, 75, 90, 99]


@op(
    "value_quantiles_sketch",
    f"""
    WITH c AS (
      SELECT CAST(round(value * 100) AS BIGINT) AS cents FROM events
    ),
    b AS (
      -- FLOOR division (fdiv_sql): DuckDB's bare // truncates toward zero
      -- while the engine's numpy // floors — negative cents (refunds)
      -- would land one bin apart on the two sides (review finding, r4)
      SELECT LEAST({_fdiv_sql_q('cents', str(_QSK_WIDTH))}, {_QSK_BINS - 1}) AS bin,
             count(*)::BIGINT AS n
      FROM c GROUP BY 1
    ),
    tot AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM b),
    cum AS (SELECT bin, CAST(sum(n) OVER (ORDER BY bin) AS BIGINT) AS cn FROM b),
    qs(q_pct) AS (VALUES {', '.join(f'({q})' for q in _QSK_QS)}),
    r AS (
      SELECT q_pct, (q_pct * tot.n + 99) // 100 AS rank
      FROM qs CROSS JOIN tot
    ),
    sel AS (
      SELECT r.q_pct, r.rank, CAST(min(cum.bin) AS BIGINT) AS bin
      FROM r JOIN cum ON cum.cn >= r.rank GROUP BY 1, 2
    )
    SELECT q_pct, rank, bin, bin * {_QSK_WIDTH} AS est_cents FROM sel
    """,
)
def value_quantiles_sketch(sf_dir: str):
    """Quantile estimates of the event value column from a fixed-bin
    histogram sketch (4096 bins × 16 cents): per requested
    percentile, the 1-based rank ⌈q·n⌉ (computed with exact integer
    ceiling), the first bin whose cumulative count reaches it, and the
    bin's lower edge as the estimate — error bounded by the bin width
    by construction (asserted against the exact percentile in pytest).

    Scale shape — the quantile member of the sketch trio (HLL
    cardinality, CMS frequency): an exact quantile needs a global sort;
    this op's traffic is ≤ 4096 integer (bin, count) partial rows per
    block, the counters merge by + across shards, and the driver touches
    one bounded histogram.  Everything is integer-exact, so the oracle
    replays the sketch bit-for-bit."""
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", columns=["value"])

    _BP = pa.schema([("bin", pa.int64()), ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _BP.empty_table()
        cents = _cents(t["value"]).to_numpy(zero_copy_only=False)
        bins = np.minimum(cents // _QSK_WIDTH, _QSK_BINS - 1)
        uniq, counts = np.unique(bins, return_counts=True)
        return pa.table(
            {"bin": pa.array(uniq), "n": pa.array(counts.astype(np.int64))},
            schema=_BP,
        )

    rows = (
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bin")
        .aggregate(Sum("n"))
        .take_all()  # ≤ bins rows — the whole sketch
    )
    _QOUT = pa.schema(
        [("q_pct", pa.int64()), ("rank", pa.int64()), ("bin", pa.int64()),
         ("est_cents", pa.int64())]
    )
    rows.sort(key=lambda r: int(r["bin"]))
    bins = np.array([int(r["bin"]) for r in rows], dtype=np.int64)
    cum = np.cumsum([int(r["sum(n)"]) for r in rows]).astype(np.int64)
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:  # empty input: the oracle's rank join yields no rows
        return _QOUT.empty_table()
    out_q, out_r, out_b = [], [], []
    for q in _QSK_QS:
        rank = (q * n + 99) // 100
        i = int(np.searchsorted(cum, rank))
        out_q.append(q)
        out_r.append(rank)
        out_b.append(int(bins[i]))
    return pa.table(
        {
            "q_pct": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "bin": pa.array(out_b, pa.int64()),
            "est_cents": pa.array(
                [b * _QSK_WIDTH for b in out_b], pa.int64()
            ),
        }
    )


# ===========================================================================
# snapshot_diff — change-data-capture between two corpus snapshots
# ===========================================================================
#
# The CDC shape an incremental pipeline runs before update_index: given
# yesterday's corpus A and today's corpus B, classify every doc id as
# added / removed / modified / unchanged.  Snapshot B is synthesized from
# the documents table by a deterministic md5 rule (no external data —
# both sides replay it bit-for-bit), and the DIFF ITSELF never sees the
# rule: it is a full-outer join on doc_id with a text comparison, exactly
# what it would be against a real second snapshot.

_SNAP_MOD = 10  # rule modulus: ~10% removed, ~10% modified, ~10% added


def _snap_sql() -> str:
    from ..functions import dedup as dd

    r = f"{dd.SQL_H60.format(s='CAST(doc_id AS VARCHAR)')} % {_SNAP_MOD}"
    return f"""
    WITH a AS (SELECT doc_id, text FROM documents),
    rr AS (SELECT doc_id, text, {r} AS r FROM a),
    b AS (
      SELECT doc_id,
             CASE WHEN r = 1 THEN text || ' rev2' ELSE text END AS text
      FROM rr WHERE r != 0
      UNION ALL
      -- synthetic ids are NEGATIVE (-(id+1)): disjoint from ANY
      -- non-negative corpus id space (review r4: +1000000 collided with
      -- real ids on corpora with >= 1M documents)
      SELECT -(doc_id + 1) AS doc_id, text || ' new' AS text
      FROM rr WHERE r = 2
    )
    SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
           CASE WHEN a.doc_id IS NULL THEN 'added'
                WHEN b.doc_id IS NULL THEN 'removed'
                WHEN a.text != b.text THEN 'modified'
                ELSE 'unchanged' END AS change
    FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
    """


@op("snapshot_diff", _snap_sql)
def snapshot_diff(sf_dir: str):
    """Corpus change-data-capture: full-outer join of snapshot A (the
    documents table) against snapshot B (~10% docs removed, ~10% text-
    modified, ~10% new ids in the negative range, disjoint from any
    non-negative corpus — synthesized by a deterministic md5 rule so
    the oracle replays it), classifying every doc id as added / removed /
    modified / unchanged by TEXT COMPARISON, never by the rule.

    Scale shape: the synthesis is one stateless vectorized map (B never
    materializes outside the streamed join); the diff is ONE hash-join
    exchange on doc_id; classification is a vectorized null/equality pass.
    Against a real second snapshot the same plan applies unchanged — feed
    B from read_parquet instead of the synth map."""
    from ..functions import dedup as dd

    from .util import join_partitions

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": pc.cast(t["doc_id"], pa.int64()), "text_a": t["text"]}
        )

    _B = pa.schema([("doc_id", pa.int64()), ("text_b", pa.string())])

    def to_b(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _B.empty_table()
        ids = pc.cast(t["doc_id"], pa.int64())
        r = dd.hash_strings(pc.cast(ids, pa.string())) % _SNAP_MOD
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        mod = pc.binary_join_element_wise(text, pa.scalar("rev2"), " ")
        kept_text = pc.if_else(pa.array(r == 1), mod, text)
        keep = pa.array(r != 0)
        base = pa.table(
            {"doc_id": ids, "text_b": kept_text}, schema=_B
        ).filter(keep)
        addm = pa.array(r == 2)
        added = pa.table(
            {
                "doc_id": pc.negate(pc.add(ids, pa.scalar(1, pa.int64()))),
                "text_b": pc.binary_join_element_wise(
                    text, pa.scalar("new"), " "
                ),
            },
            schema=_B,
        ).filter(addm)
        return pa.concat_tables([base, added])

    a = docs.map_batches(to_a, batch_format="pyarrow", zero_copy_batch=True)
    b = docs.map_batches(to_b, batch_format="pyarrow", zero_copy_batch=True)
    _jp = join_partitions(a, b)
    j = a.join(b, join_type="full_outer", num_partitions=_jp, on=("doc_id",))

    _OUT = pa.schema([("doc_id", pa.int64()), ("change", pa.string())])

    def classify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        a_null = pc.is_null(t["text_a"])
        b_null = pc.is_null(t["text_b"])
        diff = pc.fill_null(
            pc.not_equal(t["text_a"], t["text_b"]), False
        )
        change = pc.if_else(
            a_null,
            pa.scalar("added"),
            pc.if_else(
                b_null,
                pa.scalar("removed"),
                pc.if_else(diff, pa.scalar("modified"), pa.scalar("unchanged")),
            ),
        )
        return pa.table(
            {"doc_id": pc.cast(t["doc_id"], pa.int64()), "change": change},
            schema=_OUT,
        )

    return j.map_batches(classify, batch_format="pyarrow", zero_copy_batch=True)
