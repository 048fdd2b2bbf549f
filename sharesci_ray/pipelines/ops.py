"""Operator registry: one Ray pipeline + matching DuckDB oracle SQL per
SURVEY.md §2 operator (driver contract, __ray_entry__.py).

Float-safety policy (the driver hashes values order-insensitively, so every
output must be BIT-deterministic across summation orders):
  * counts / mins / maxes / integer sums → exact in any order.
  * money/value sums → per-row conversion to integer cents FIRST, then an
    integer sum (exact, order-independent); column names say ``*_cents``.
  * ratios/averages → exact integer sums divided once (IEEE double division
    is deterministic given identical operands).
Each Ray op and its SQL twin use the *same* expression tree and the same
output column names.

(ref: n/a — SURVEY.md §0: the reference checkout is empty; op inventory from
SURVEY.md §2, which binds each op to BASELINE.json lines.)
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import topk as tk
from ..functions.text import SQL_TOKENIZE, flat_tokens, tokenize
from ..sources.corpus import documents_as_corpus, read_table
from .util import join_partitions

REGISTRY: dict[str, Callable[[str], Any]] = {}
# values are SQL strings, or zero-arg callables producing one (deferred:
# an op whose oracle EMBEDS another op's SQL — export.training_shard_manifest
# wraps clean_chunks' — can't resolve it at its own import time without
# pinning module import order; resolve_oracle_sql() finalizes the dict)
ORACLE_SQL: dict[str, str | Callable[[], str]] = {}

_TOKS = SQL_TOKENIZE.format(col="text")


def op(name: str, sql: str | Callable[[], str] | None = None):
    def deco(fn):
        REGISTRY[name] = fn
        if sql is not None:
            ORACLE_SQL[name] = sql
        return fn

    return deco


def resolve_oracle_sql() -> dict[str, str]:
    """ORACLE_SQL with deferred (callable) entries resolved — the driver-
    facing form (__ray_entry__.oracle_sql)."""
    return {k: (v() if callable(v) else v) for k, v in ORACLE_SQL.items()}


def _rename(ds, mapping: dict[str, str], int64_cols: tuple[str, ...] = ()):
    """Rename columns and pin the listed columns to int64 — Ray's Sum
    aggregate sometimes widens int64 to float64, which would fail the
    driver's schema comparison."""

    def fn(t: pa.Table) -> pa.Table:
        t = t.rename_columns([mapping.get(c, c) for c in t.column_names])
        for c in int64_cols:
            i = t.column_names.index(c)
            t = t.set_column(i, c, pc.cast(pc.round(t[c]), pa.int64()))
        return t

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _cents(col) -> pa.Array:
    """double currency → exact int64 cents (round-half-even ~ never at .5)."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


# ===========================================================================
# A. Search-engine core over `documents` (M2/M4/G1/G2, Q1, K1/K3, U2)
# ===========================================================================

@op(
    "term_df",
    f"""
    SELECT term, count(*) AS df FROM (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ) GROUP BY term
    """,
)
def term_df(sf_dir: str):
    """G1: document frequency per term.  Partial per-batch distinct counts →
    small groupby (pre-aggregation pattern, SURVEY.md G3)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(batch["text"])
        pairs = (
            pa.table({"row": pa.array(parent), "term": flat})
            .group_by(["row", "term"])  # distinct (doc, term)
            .aggregate([])
        )
        g = pa.table({"term": pairs["term"]}).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "cnt": pc.cast(g["count_all"], pa.int64())})

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _rename(parts.groupby("term").sum("cnt"), {"sum(cnt)": "df"}, int64_cols=("df",))


@op(
    "term_tf_total",
    f"""
    SELECT term, count(*) AS tf_total FROM (
      SELECT unnest({_TOKS}) AS term FROM documents
    ) GROUP BY term
    """,
)
def term_tf_total(sf_dir: str):
    """G1/G3: total occurrences per term (partial + final)."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = flat_tokens(batch["text"])
        g = pa.table({"term": flat}).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "cnt": pc.cast(g["count_all"], pa.int64())})

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _rename(parts.groupby("term").sum("cnt"), {"sum(cnt)": "tf_total"}, int64_cols=("tf_total",))


@op(
    "doc_token_stats",
    f"SELECT doc_id, len({_TOKS})::BIGINT AS n_tokens FROM documents",
)
def doc_token_stats(sf_dir: str):
    """M3: tokens per document."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        _, parent = flat_tokens(batch["text"])
        n = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(n, parent, 1)
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": pa.array(n)})

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


@op(
    "corpus_stats",
    f"""
    SELECT count(*) AS n_docs, sum(n_tokens)::BIGINT AS total_tokens,
           sum(n_tokens)::DOUBLE / count(*) AS avgdl
    FROM (SELECT len({_TOKS})::BIGINT AS n_tokens FROM documents)
    """,
)
def corpus_stats(sf_dir: str):
    """G2: global scalar stats (exact int sums; one double division)."""
    from ray.data.aggregate import Count, Sum

    ds = doc_token_stats(sf_dir)
    agg = ds.aggregate(Count(), Sum("n_tokens"))
    n, total = int(agg["count()"]), int(agg["sum(n_tokens)"])
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "total_tokens": pa.array([total], pa.int64()),
            "avgdl": pa.array([float(total) / n], pa.float64()),
        }
    )


@op(
    "top_docs_by_chars",
    "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 20",
)
def top_docs_by_chars(sf_dir: str):
    """K3: global top-k with deterministic tie-break."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return docs.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


@op(
    "filter_lang_en",
    "SELECT doc_id, lang, n_chars FROM documents WHERE lang = 'en' AND n_chars > 500",
)
def filter_lang_en(sf_dir: str):
    """M5/M7: predicate filter + projection, vectorized mask."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return docs.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t["lang"], "en"), pc.greater(t["n_chars"], 500))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


@op("lang_counts", "SELECT lang, count(*) AS n FROM documents GROUP BY lang")
def lang_counts(sf_dir: str):
    """G4: distinct + count per group."""
    docs = read_table(sf_dir, "documents", columns=["lang"])
    return _rename(docs.groupby("lang").count(), {"count()": "n"}, int64_cols=("n",))


@op(
    "dedup_exact",
    """
    SELECT min(doc_id) AS doc_id, count(*) AS n_dupes
    FROM documents GROUP BY md5(text)
    """,
)
def dedup_exact(sf_dir: str):
    """U2: exact dedup — hash text, keep first doc per hash group.

    Pre-aggregates (min doc_id, count) per batch before the groupby so only
    one tiny row per (hash, batch) shuffles — the 100TB-safe shape.
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import hashlib as _h

        h = pa.array(
            [_h.md5((s or "").encode()).hexdigest() for s in batch["text"].to_pylist()]
        )
        g = (
            pa.table({"h": h, "doc_id": batch["doc_id"]})
            .group_by("h")
            .aggregate([("doc_id", "min"), ([], "count_all")])
        )
        return pa.table(
            {
                "h": g["h"],
                "doc_id": g["doc_id_min"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    from ray.data.aggregate import Min, Sum

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.groupby("h").aggregate(Min("doc_id"), Sum("n"))
    out = _rename(agg, {"min(doc_id)": "doc_id", "sum(n)": "n_dupes"}, int64_cols=("doc_id", "n_dupes"))
    return out.select_columns(["doc_id", "n_dupes"])


@op(
    "distinct_terms",
    f"SELECT count(DISTINCT term)::BIGINT AS n_terms FROM (SELECT unnest({_TOKS}) AS term FROM documents)",
)
def distinct_terms(sf_dir: str):
    """G4: global distinct count via per-batch unique partials."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = flat_tokens(batch["text"])
        return pa.table({"term": pc.unique(flat)})

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    n = parts.unique("term")
    return pa.table({"n_terms": pa.array([len(n)], pa.int64())})


# ---- flagship: BM25 top-k with a full SQL BM25 oracle ---------------------

DOC_QUERIES = [
    "table scan",
    "hash join merge",
    "sort window",
    "spark batch",
    "key value",
    "slow query plan",
    "agg row",
    "fast part",
    "line item filter",
    "shuffle partition spill",
]

# Every fixture query must tokenize to ≥1 term (ADVICE r3): the boolean
# count ops (ops_search) seed a zero row for every DOC_QUERIES index, while
# their SQL twins derive the query set from the per-term VALUES list — a
# zero-term query would emit an engine row with no oracle counterpart.
for _q in DOC_QUERIES:
    if not tokenize(_q):
        raise AssertionError(f"DOC_QUERIES entry tokenizes to zero terms: {_q!r}")
del _q

_INDEX_CACHE: dict[str, str] = {}


def _code_fingerprint() -> str:
    """Hash of the modules that determine the on-disk index bytes — a /tmp
    index built by an older kernel version must never be resumed (the build
    config hash can't see code changes)."""
    import inspect

    from ..functions import codecs, text
    from ..sources import corpus as corpus_mod
    from ..stages import docvec, encode

    h = hashlib.sha256()
    for mod in (text, codecs, docvec, encode, corpus_mod):
        h.update(inspect.getsource(mod).encode())
    return h.hexdigest()[:8]


def _index_for(sf_dir: str, positions: bool = False) -> str:
    """Build (or reuse) the inverted index for a testdata dir's documents
    (``positions=True`` → the positional variant, its own cache dir).  The
    cache dir is salted with a source-code fingerprint so kernel edits
    invalidate stale /tmp indexes automatically."""
    from .build import BuildConfig, build_index

    key = f"{sf_dir}:{int(positions)}"
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    tag = hashlib.sha256(
        f"{sf_dir}:{int(positions)}:{_code_fingerprint()}".encode()
    ).hexdigest()[:10]
    build_dir = os.path.join(tempfile.gettempdir(), f"sharesci_idx_{tag}")
    build_index(
        documents_as_corpus(sf_dir),
        build_dir,
        BuildConfig(n_buckets=16, positions=positions),
    )
    _INDEX_CACHE[key] = build_dir
    return build_dir


def _bm25_sql(
    facet_lang: str | None = None, rank_lo: int = 1, rank_hi: int = 10
) -> str:
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    facet = (
        f"JOIN documents fd ON fd.doc_id = sc.doc_id AND fd.lang = '{facet_lang}'"
        if facet_lang
        else ""
    )
    return f"""
    WITH toks AS (
      SELECT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    st AS (SELECT count(*)::BIGINT AS n, sum(dl)::DOUBLE / count(*) AS avgdl FROM dl),
    df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {values}),
    ts AS (
      SELECT q.query_id, tf.doc_id, q.term,
             ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
               * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS s
      FROM q
      JOIN tf ON tf.term = q.term
      JOIN df ON df.term = q.term
      JOIN dl ON dl.doc_id = tf.doc_id
      CROSS JOIN st
    ),
    -- list(... ORDER BY term) + sequential list sum replays the engine's
    -- SORTED-TERM float64 accumulation bit-for-bit (functions/bm25.py),
    -- so near-tied docs rank identically instead of diverging in the
    -- last ulp the way an unordered sum() can at deep ranks
    sc AS (
      SELECT query_id, doc_id,
             list_aggregate(list(s ORDER BY term), 'sum') AS score
      FROM ts GROUP BY 1, 2
    )
    SELECT query_id, rank, doc_id FROM (
      SELECT query_id, sc.doc_id AS doc_id,
             row_number() OVER (PARTITION BY query_id ORDER BY score DESC, sc.doc_id) AS rank
      FROM sc {facet}
    ) WHERE rank BETWEEN {rank_lo} AND {rank_hi}
    """


def _bm25_run(sf_dir: str, facet_lang: str | None = None, scorer: str = "bmw"):
    """Shared flagship runner: index build/reuse → BM25 top-10 over
    DOC_QUERIES (optionally restricted to a lang facet) → remap engine ids
    back to the original documents.doc_id (the adapter's zero-padded
    ``path`` carries it, and makes engine-id order == numeric id order so
    tie-breaks agree with the SQL oracle).  The remap is a Dataset.join of
    the (k·|queries|)-row result against the docvec checkpoint — nothing
    corpus-sized ever reaches the driver; the lang facet set is likewise
    derived inside each scorer actor (run_queries facet hook).  Scores are
    excluded from the comparison payload — DuckDB's summation order differs
    in the last ulp — rank identity is the contract (BASELINE.json:14)."""
    import ray
    import ray.data

    from .query import run_queries
    from .util import drop_empty_blocks

    build_dir = _index_for(sf_dir)

    q_tbl = pa.table(
        {
            "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
            "text": pa.array(DOC_QUERIES, pa.string()),
        }
    )
    res = run_queries(
        build_dir,
        ray.data.from_arrow(q_tbl),
        k=10,
        scorer=scorer,
        facet=("lang", facet_lang) if facet_lang else None,
    )
    return _remap_to_docids(res, build_dir)


def _remap_to_docids(res, build_dir: str):
    """Map engine result ids back to documents.doc_id (carried in the
    adapter's zero-padded ``path``): a Dataset.join of the bounded
    (k·|queries|)-row result against the docvec checkpoint — nothing
    corpus-sized reaches the driver."""
    import ray.data

    from .util import drop_empty_blocks

    res = drop_empty_blocks(
        res,
        pa.schema(
            [
                ("query_id", pa.int64()),
                ("rank", pa.int32()),
                ("doc_id", pa.int64()),
                ("score", pa.float64()),
            ]
        ),
    )
    docvec = ray.data.read_parquet(
        os.path.join(build_dir, "stage=docvec"), columns=["doc_id", "path"]
    )
    _jp = join_partitions(res, docvec)
    joined = res.join(docvec, join_type="inner", num_partitions=_jp, on=("doc_id",))

    _REMAP_SCHEMA = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()), ("doc_id", pa.int64())]
    )

    def remap(batch: pa.Table) -> pa.Table:
        # the join operator emits schema-less 0-row partitions for empty key
        # ranges (ADVICE r2) — a KeyError here would be key-distribution-
        # dependent, so guard explicitly
        if batch.num_rows == 0:
            return _REMAP_SCHEMA.empty_table()
        return pa.table(
            {
                "query_id": batch["query_id"],
                "rank": pc.cast(batch["rank"], pa.int64()),
                "doc_id": pc.cast(batch["path"], pa.int64()),
            },
            schema=_REMAP_SCHEMA,
        )

    return joined.map_batches(remap, batch_format="pyarrow", zero_copy_batch=True)


@op("bm25_topk", _bm25_sql())
def bm25_topk(sf_dir: str):
    """Flagship: full index build + BM25 top-10 (see _bm25_run)."""
    return _bm25_run(sf_dir)


@op("bm25_topk_page2", _bm25_sql(rank_lo=11, rank_hi=20))
def bm25_topk_page2(sf_dir: str):
    """Result pagination: ranks 11–20 (the search UI's "page 2").  The
    scorer actors keep a k=20 heap per query and the page is sliced from
    the ranked output — the standard deep-pagination cost model (page N
    costs a top-(N·page_size) heap inside the actor; nothing extra
    shuffles, the emitted page is still ≤ page_size rows per query).
    Rank identity (not scores) is the contract, same as bm25_topk."""
    import ray
    import ray.data

    from .query import run_queries

    build_dir = _index_for(sf_dir)
    q_tbl = pa.table(
        {
            "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
            "text": pa.array(DOC_QUERIES, pa.string()),
        }
    )
    res = run_queries(build_dir, ray.data.from_arrow(q_tbl), k=20, scorer="bmw")

    def page(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return t.filter(pc.greater_equal(t["rank"], 11))

    return _remap_to_docids(
        res.map_batches(page, batch_format="pyarrow", zero_copy_batch=True),
        build_dir,
    )


# ---------------------------------------------------------------------------
# bm25_topk_snippets — result snippets (the search-UI context window)
# ---------------------------------------------------------------------------

_SNIP_BEFORE = 30   # chars of context before the first matched term
_SNIP_LEN = 80      # snippet window length (chars)


def _bm25_snippet_sql() -> str:
    """Twin of the engine's snippet rule over the bm25_topk result set:
    pos = min 1-based strpos of any query term in lower(text) (every BM25
    match contains at least one term as a substring — the tokenizer only
    lowercases and splits); snippet = substr(text, max(1, pos−before), len)."""
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH res AS ({_bm25_sql()}),
    qt(query_id, term) AS (VALUES {values}),
    pos AS (
      SELECT res.query_id, res.rank, res.doc_id,
             min(CASE WHEN strpos(lower(d.text), qt.term) > 0
                      THEN strpos(lower(d.text), qt.term) END) AS p,
             max(d.text) AS text
      FROM res
      JOIN documents d ON d.doc_id = res.doc_id
      JOIN qt ON qt.query_id = res.query_id
      GROUP BY 1, 2, 3
    )
    SELECT query_id, rank, doc_id,
           substr(text, greatest(1, coalesce(p, 1) - {_SNIP_BEFORE}),
                  {_SNIP_LEN}) AS snippet
    FROM pos
    """


@op("bm25_topk_snippets", _bm25_snippet_sql())
def bm25_topk_snippets(sf_dir: str):
    """Search results WITH contextual snippets (what a search UI renders):
    each top-10 hit carries an {snip_len}-char window starting
    {snip_before} chars before the first occurrence of any query term in
    the document.

    Scale shape: the ranked result set is bounded (|queries|·k rows), so
    collecting it and broadcasting its doc-id set is safe at any corpus
    size; snippet extraction is ONE pruned pass over documents filtered to
    the matched ids (at real scale: predicate-pushdown read of just those
    row groups), never a join against the full text column."""
    res_rows = _bm25_run(sf_dir).take_all()  # bounded: |queries| × k
    by_doc: dict[int, list[tuple[int, int]]] = {}
    for r in res_rows:
        by_doc.setdefault(int(r["doc_id"]), []).append(
            (int(r["query_id"]), int(r["rank"]))
        )
    terms_by_qid = [sorted(set(tokenize(t))) for t in DOC_QUERIES]
    keys = pa.array(sorted(by_doc), pa.int64())

    out_schema = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()),
         ("doc_id", pa.int64()), ("snippet", pa.string())]
    )

    def extract(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["doc_id"], value_set=keys))
        if t.num_rows == 0:
            return out_schema.empty_table()
        qids, ranks, dids, snips = [], [], [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            hay = text.lower()
            for qid, rank in by_doc[int(did)]:
                positions = (hay.find(term) for term in terms_by_qid[qid])
                found = [p0 + 1 for p0 in positions if p0 >= 0]
                p = min(found) if found else 1
                start = max(1, p - _SNIP_BEFORE)  # 1-based, same as substr
                qids.append(qid)
                ranks.append(rank)
                dids.append(int(did))
                snips.append(text[start - 1 : start - 1 + _SNIP_LEN])
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
                "snippet": pa.array(snips, pa.string()),
            },
            schema=out_schema,
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# B. Relational generic ops (J/G/K/M8/U) over the TPC-H-ish tables
# ===========================================================================

@op(
    "grouped_agg_lineitem",
    """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
           count(*) AS count_order,
           sum(CAST(l_quantity AS BIGINT))::DOUBLE / count(*) AS avg_qty
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
)
def grouped_agg_lineitem(sf_dir: str):
    """G3 (TPC-H Q1-like): partial per-batch aggregation, tiny final groupby."""
    from ray.data.aggregate import Count, Sum

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_returnflag": t["l_returnflag"],
                    "l_linestatus": t["l_linestatus"],
                    "qty": pc.cast(t["l_quantity"], pa.int64()),
                    "cents": _cents(t["l_extendedprice"]),
                }
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("qty", "sum"), ("cents", "sum"), ([], "count_all")])
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "qty", "cents", "n"]
        )

    parts = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty"), Sum("cents"), Sum("n")
    )
    out = _rename(
        agg,
        {"sum(qty)": "sum_qty", "sum(cents)": "sum_price_cents", "sum(n)": "count_order"},
        int64_cols=("sum_qty", "sum_price_cents", "count_order"),
    )

    def add_avg(t: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.cast(t["sum_qty"], pa.float64()), pc.cast(t["count_order"], pa.float64())
        )
        return t.append_column("avg_qty", avg)

    return out.map_batches(add_avg, batch_format="pyarrow", zero_copy_batch=True)


@op(
    "join_orders_customer",
    """
    SELECT c_mktsegment,
           count(*) AS n_orders,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    """,
)
def join_orders_customer(sf_dir: str):
    """J2: native hash join (Dataset.join) + grouped aggregate."""
    from ray.data.aggregate import Count, Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    _jp = join_partitions(orders, cust)
    joined = orders.join(
        cust, join_type="inner", num_partitions=_jp, on=("o_custkey",), right_on=("c_custkey",)
    )

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {"c_mktsegment": t["c_mktsegment"], "cents": _cents(t["o_totalprice"])}
            )
            .group_by("c_mktsegment")
            .aggregate([("cents", "sum"), ([], "count_all")])
        )
        return g.rename_columns(["c_mktsegment", "cents", "n"])

    parts = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.groupby("c_mktsegment").aggregate(Sum("n"), Sum("cents"))
    out = _rename(agg, {"sum(n)": "n_orders", "sum(cents)": "total_cents"}, int64_cols=("n_orders", "total_cents"))
    return out.select_columns(["c_mktsegment", "n_orders", "total_cents"])


@op(
    "broadcast_join_nation_region",
    """
    SELECT r_name, count(*) AS n_nations
    FROM nation JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def broadcast_join_nation_region(sf_dir: str):
    """J1: small side via ray.put broadcast, lookup inside map_batches."""
    import ray

    region = read_table(sf_dir, "region").take_all()  # 5-row dimension table
    keys = pa.array([r["r_regionkey"] for r in region], pa.int64())
    names = pa.array([r["r_name"] for r in region], pa.string())
    lut_ref = ray.put((keys, names))
    nation = read_table(sf_dir, "nation", columns=["n_regionkey"])

    def attach(t: pa.Table) -> pa.Table:
        ks, ns = ray.get(lut_ref)
        # vectorized broadcast lookup: index_in + take (no per-row Python)
        idx = pc.index_in(pc.cast(t["n_regionkey"], pa.int64()), value_set=ks)
        return pa.table({"r_name": ns.take(idx)})

    named = nation.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)
    return _rename(named.groupby("r_name").count(), {"count()": "n_nations"}, int64_cols=("n_nations",))


@op(
    "semi_join_customers",
    "SELECT c_custkey FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)",
)
def semi_join_customers(sf_dir: str):
    """J3 semi: native left_semi join."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])
    return cust.join(
        orders,
        join_type="left_semi",
        num_partitions=join_partitions(cust, orders),
        on=("c_custkey",),
        right_on=("o_custkey",),
    )


@op(
    "anti_join_customers",
    """
    SELECT c_custkey FROM customer
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 150000)
    """,
)
def anti_join_customers(sf_dir: str):
    """J3 anti: customers with no high-value order.  Broadcast key-set +
    vectorized is_in mask (the 100TB-safe shape when the excluded side's key
    set is small)."""
    import ray

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    big = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 150000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    keys = big.unique("o_custkey")
    key_ref = ray.put(np.asarray(keys, dtype=np.int64))
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])

    def mask(t: pa.Table) -> pa.Table:
        ks = ray.get(key_ref)
        keep = pc.invert(pc.is_in(t["c_custkey"], value_set=pa.array(ks)))
        return t.filter(keep)

    return cust.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True)


@op(
    "global_sort_orders",
    """
    SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents
    FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
    """,
)
def global_sort_orders(sf_dir: str):
    """K2/K3: global sort (range shuffle) + limit."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    top = orders.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(100)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": t["o_orderkey"], "total_cents": _cents(t["o_totalprice"])}
        )

    return top.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True)


@op(
    "union_filters",
    """
    SELECT count(*) AS n FROM (
      SELECT l_orderkey FROM lineitem WHERE l_quantity >= 45
      UNION ALL
      SELECT l_orderkey FROM lineitem WHERE l_discount >= 0.09
    )
    """,
)
def union_filters(sf_dir: str):
    """U1: dataset union (UNION ALL semantics)."""
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity", "l_discount"])
    a = li.map_batches(
        lambda t: t.filter(pc.greater_equal(t["l_quantity"], 45)).select(["l_orderkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    b = li.map_batches(
        lambda t: t.filter(pc.greater_equal(t["l_discount"], 0.09)).select(["l_orderkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n = a.union(b).count()
    return pa.table({"n": pa.array([n], pa.int64())})


@op(
    "events_by_type",
    """
    SELECT event_type, count(*) AS n,
           max(CAST(round(value * 100) AS BIGINT)) AS max_cents,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
    FROM events GROUP BY event_type
    """,
)
def events_by_type(sf_dir: str):
    """G3/G4 over the events table (cents-exact)."""
    from ray.data.aggregate import Count, Max, Sum

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def conv(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"], "cents": _cents(t["value"])})

    c = ev.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)
    agg = c.groupby("event_type").aggregate(Count(), Max("cents"), Sum("cents"))
    out = _rename(
        agg,
        {"count()": "n", "max(cents)": "max_cents", "sum(cents)": "sum_cents"},
        int64_cols=("n", "max_cents", "sum_cents"),
    )
    return out


@op(
    "events_hourly",
    """
    SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
    FROM events GROUP BY event_type, hour
    """,
)
def events_hourly(sf_dir: str):
    """M8+G3: temporal bucketing (floor to hour) + grouped count."""
    ev = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour": pc.floor_temporal(t["ts"], unit="hour"),
            }
        )

    b = ev.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
    return _rename(b.groupby(["event_type", "hour"]).count(), {"count()": "n"}, int64_cols=("n",))


@op(
    "scalar_fns_events",
    """
    SELECT event_id, upper(event_type) AS etype_upper,
           CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT) AS k_val,
           CAST(round(value * 100) AS BIGINT) AS value_cents
    FROM events
    """,
)
def scalar_fns_events(sf_dir: str):
    """M8: scalar string/regex/math functions, all pyarrow.compute kernels."""
    ev = read_table(sf_dir, "events", columns=["event_id", "event_type", "props", "value"])

    def fn(t: pa.Table) -> pa.Table:
        ext = pc.extract_regex(t["props"], r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        return pa.table(
            {
                "event_id": t["event_id"],
                "etype_upper": pc.utf8_upper(t["event_type"]),
                "k_val": k,
                "value_cents": _cents(t["value"]),
            }
        )

    return ev.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


@op(
    "systematic_sample",
    "SELECT doc_id, lang FROM documents WHERE doc_id % 10 = 0",
)
def systematic_sample(sf_dir: str):
    """K4: deterministic systematic sample (seeded random_sample is exercised
    in tests; this registry entry is the oracle-checkable variant)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 10 == 0))

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_FACET_LANG = "en"


@op("bm25_topk_lang", _bm25_sql(facet_lang=_FACET_LANG))
def bm25_topk_lang(sf_dir: str):
    """Faceted search: BM25 top-10 restricted to lang='en' documents —
    collection stats stay global, only candidates are filtered (standard
    filtered-search semantics; facet doc-id set broadcast once per actor).
    The faceted path is exhaustive DAAT by construction (see
    query.ScorerActor.score_query)."""
    return _bm25_run(sf_dir, facet_lang=_FACET_LANG)


def _bm25_meta_sql() -> str:
    return f"""
    WITH ranked AS ({_bm25_sql()})
    SELECT r.query_id, r.rank, r.doc_id, d.lang, d.source
    FROM ranked r JOIN documents d ON d.doc_id = r.doc_id
    """


@op("bm25_topk_meta", _bm25_meta_sql())
def bm25_topk_meta(sf_dir: str):
    """Flagship + J2 composition: BM25 top-k results hash-joined back to
    document metadata (the 'return the matching files' step a search user
    actually sees).  Join is a native Dataset.join on doc_id — the scale
    shape for a result set too big to broadcast."""
    res = bm25_topk(sf_dir)
    meta = read_table(sf_dir, "documents", columns=["doc_id", "lang", "source"])
    joined = res.join(
        meta, join_type="inner", num_partitions=join_partitions(res, meta), on=("doc_id",)
    )
    return joined.select_columns(["query_id", "rank", "doc_id", "lang", "source"])


def _tfidf_sql() -> str:
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    st AS (SELECT count(DISTINCT doc_id)::BIGINT AS n FROM toks),
    df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
    w AS (
      SELECT tf.doc_id, tf.term, tf.tf * ln(st.n * 1.0 / df.df) AS w
      FROM tf JOIN df ON df.term = tf.term CROSS JOIN st
    ),
    nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS norm FROM w GROUP BY 1),
    q(query_id, term) AS (VALUES {values}),
    sc AS (
      SELECT q.query_id, w.doc_id,
             sum(ln(st.n * 1.0 / df.df) * w.w) / any_value(nrm.norm) AS score
      FROM q
      JOIN w ON w.term = q.term
      JOIN df ON df.term = q.term
      JOIN nrm ON nrm.doc_id = w.doc_id
      CROSS JOIN st
      GROUP BY 1, 2
    )
    SELECT query_id, rank, doc_id FROM (
      SELECT query_id, doc_id,
             row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS rank
      FROM sc
    ) WHERE rank <= 10
    """


@op("tfidf_cosine_topk", _tfidf_sql())
def tfidf_cosine_topk(sf_dir: str):
    """The REFERENCE's original scorer (BASELINE.json:6: sharesci used a
    TF-IDF/cosine ranker) re-expressed as pure Ray dataflow — capability
    parity for users migrating from the old engine.  Query weight = idf
    (binary tf; |q| is rank-invariant), doc weight = tf·idf, score =
    Σ idf·(tf·idf) / |d| (the oracle's exact expression tree).

    Scale shape (nothing corpus-sized touches the driver):
      * per-term df lives as a DATASET and reaches the tf rows via a
        distributed hash join on term (J2);
      * per-doc norms are a dataset joined onto the numerators by doc_id;
      * only the ≤|query-vocab| idf entries are broadcast (bounded by the
        query set, not the corpus).
    Float determinism (ADVICE): a document's numerator is accumulated in
    ONE batch in sorted-term order — each doc's tf rows are emitted whole
    by one tf_rows batch, so no distributed float sum with unspecified
    order exists on the score path.  Ranks only in the output (same float
    policy as bm25_topk)."""
    import ray

    from ..functions.text import flat_tokens
    from .util import drop_empty_blocks

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = docs.count()

    def tf_rows(batch: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(batch["text"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parent]
        g = (
            pa.table({"doc_id": pa.array(ids), "term": flat})
            .group_by(["doc_id", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "term": g["term"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            }
        )

    tf_mat = docs.map_batches(
        tf_rows, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed by df, norms and scores below

    # ---- per-term df as a dataset (vocab-sized, stays distributed) --------
    dfc = drop_empty_blocks(
        tf_mat.groupby("term").count(),
        pa.schema([("term", pa.string()), ("count()", pa.int64())]),
    )

    # ---- per-doc norms: tf ⋈ df on term (J2), then per-doc sum ------------
    w_rows = tf_mat.join(
        dfc, join_type="inner", num_partitions=join_partitions(tf_mat, dfc), on=("term",)
    )

    def wsq_partial(batch: pa.Table) -> pa.Table:
        """per-batch partial Σw² per doc (pre-aggregation before the
        groupby; w² terms are all ≥ 0, and the oracle's own sum order is
        unspecified — norm magnitude, not order, is the contract here)."""
        idf = np.log(n_docs / batch["count()"].to_numpy(zero_copy_only=False))
        w = batch["tf"].to_numpy(zero_copy_only=False) * idf
        t = pa.table({"doc_id": batch["doc_id"], "wsq": pa.array(w * w, pa.float64())})
        g = t.group_by("doc_id").aggregate([("wsq", "sum")])
        return g.rename_columns(["doc_id", "wsq"])

    norms2 = drop_empty_blocks(
        w_rows.map_batches(wsq_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .sum("wsq"),
        pa.schema([("doc_id", pa.int64()), ("sum(wsq)", pa.float64())]),
    )

    # ---- query-term idfs: bounded by the query vocab, broadcast ----------
    q_vocab = sorted({t for text in DOC_QUERIES for t in tokenize(text)})
    q_df_rows = dfc.map_batches(
        lambda t, _qv=pa.array(q_vocab, pa.string()): t.filter(
            pc.is_in(t["term"], value_set=_qv)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # ≤|q_vocab| rows — bounded by the query set
    idf_q = {
        r["term"]: float(np.log(n_docs / r["count()"])) for r in q_df_rows
    }
    q_terms_by_qid = [sorted(set(tokenize(text))) for text in DOC_QUERIES]
    bcast = ray.put((idf_q, q_terms_by_qid, q_vocab))

    # ---- numerators: whole-doc accumulation inside one batch --------------
    _NUM_SCHEMA = pa.schema(
        [("query_id", pa.int64()), ("doc_id", pa.int64()), ("num", pa.float64())]
    )

    def numerators(batch: pa.Table) -> pa.Table:
        im, qts, qv = ray.get(bcast)
        code = (
            pc.index_in(batch["term"], value_set=pa.array(qv, pa.string()))
            .fill_null(-1)
            .to_numpy(zero_copy_only=False)
        )
        hit_rows = np.flatnonzero(code >= 0)
        if hit_rows.size == 0:
            return _NUM_SCHEMA.empty_table()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        tfs = batch["tf"].to_numpy(zero_copy_only=False)
        uniq_ids, inv = np.unique(ids[hit_rows], return_inverse=True)
        rows_by_code: dict[int, np.ndarray] = {}
        hit_codes = code[hit_rows]
        for c in np.unique(hit_codes):
            rows_by_code[int(c)] = hit_rows[hit_codes == c]
        code_of = {t: i for i, t in enumerate(qv)}
        out_q, out_d, out_n = [], [], []
        for qid, terms in enumerate(qts):
            acc = np.zeros(uniq_ids.size, dtype=np.float64)
            touched = np.zeros(uniq_ids.size, dtype=bool)
            for t in terms:  # sorted-term order per doc, by construction
                rows = rows_by_code.get(code_of.get(t, -1))
                if rows is None or t not in im:
                    continue
                slot = np.searchsorted(uniq_ids, ids[rows])
                # oracle expression tree: idf · (tf · idf), one doc per term
                acc[slot] += im[t] * (tfs[rows] * im[t])
                touched[slot] = True
            hit = np.flatnonzero(touched)
            out_q.append(np.full(hit.size, qid, dtype=np.int64))
            out_d.append(uniq_ids[hit])
            out_n.append(acc[hit])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "num": pa.array(np.concatenate(out_n), pa.float64()),
            },
            schema=_NUM_SCHEMA,
        )

    # batch_size=None: feed WHOLE blocks — a doc's tf rows live in one
    # tf_rows output block and must not be re-batched apart (the whole-doc
    # single-batch numerator accumulation depends on it)
    nums = drop_empty_blocks(
        tf_mat.map_batches(
            numerators, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        ),
        _NUM_SCHEMA,
    )
    # safety re-aggregation (ADVICE r2): Ray's dynamic block splitting
    # (target_max_block_size) can in principle split a tf_rows output block
    # mid-document, yielding two partial numerator rows for one
    # (query_id, doc_id).  A no-op groupby-sum when the whole-doc invariant
    # holds (one row per key, so the float value is untouched); when it
    # doesn't, it repairs the ranking at the cost of a last-ulp summation-
    # order difference for the affected doc only.
    nums = drop_empty_blocks(
        nums.groupby(["query_id", "doc_id"]).sum("num"),
        pa.schema(
            [("query_id", pa.int64()), ("doc_id", pa.int64()), ("sum(num)", pa.float64())]
        ),
    ).map_batches(
        lambda t: pa.table(
            {"query_id": t["query_id"], "doc_id": t["doc_id"], "num": t["sum(num)"]}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # ---- attach norms by hash join, rank per query ------------------------
    joined = nums.join(
        norms2,
        join_type="inner",
        num_partitions=join_partitions(nums, norms2),
        on=("doc_id",),
    )

    ranked = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()), ("doc_id", pa.int64())]
    )

    def topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return ranked.empty_table()
        num = group["num"].to_numpy(zero_copy_only=False)
        nrm = np.sqrt(group["sum(wsq)"].to_numpy(zero_copy_only=False))
        scored = group.append_column("score", pa.array(num / nrm))
        return tk.final_topk(scored, 10, ranked)

    return joined.groupby("query_id").map_groups(topk, batch_format="pyarrow")


@op(
    "events_running_sum",
    """
    SELECT event_id, user_id,
           CAST(sum(CAST(round(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
             AS running_cents
    FROM events
    """,
)
def events_running_sum(sf_dir: str):
    """Windowed aggregate (running per-user sum): groupby(user).map_groups
    with an in-group (ts, event_id) sort + int cumsum — the partitioning
    assumption is one user's history fits one group (time-bucket the key at
    extreme per-user volumes)."""
    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def running(group: pa.Table) -> pa.Table:
        g = group.sort_by([("ts", "ascending"), ("event_id", "ascending")])
        cents = _cents(g["value"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "running_cents": pa.array(np.cumsum(cents), pa.int64()),
            }
        )

    return ev.groupby("user_id").map_groups(running, batch_format="pyarrow")


_SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 minutes


@op(
    "user_sessions",
    f"""
    SELECT user_id, session_id, count(*) AS n_events, min(ts) AS start_ts
    FROM (
      SELECT user_id, ts,
             CAST(sum(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
      FROM (
        SELECT user_id, ts, event_id,
               CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                         OR epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)) > {_SESSION_GAP_US}
                    THEN 1 ELSE 0 END AS is_new
        FROM events
      )
    ) GROUP BY user_id, session_id
    """,
)
def user_sessions(sf_dir: str):
    """Sessionization (30-min inactivity gap): the canonical stateful
    windowed op of a training-data events pipeline.  One user's history is
    one group (time-bucket the key for extreme per-user volume)."""
    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def sessions(group: pa.Table) -> pa.Table:
        g = group.sort_by([("ts", "ascending"), ("event_id", "ascending")])
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)  # µs epoch
        is_new = np.ones(ts.size, dtype=np.int64)
        if ts.size > 1:
            is_new[1:] = (ts[1:] - ts[:-1] > _SESSION_GAP_US).astype(np.int64)
        sid = np.cumsum(is_new)
        t = pa.table(
            {
                "user_id": g["user_id"],
                "session_id": pa.array(sid, pa.int64()),
                "ts": g["ts"],
            }
        )
        agg = t.group_by(["user_id", "session_id"]).aggregate(
            [([], "count_all"), ("ts", "min")]
        )
        return pa.table(
            {
                "user_id": agg["user_id"],
                "session_id": agg["session_id"],
                "n_events": pc.cast(agg["count_all"], pa.int64()),
                "start_ts": agg["ts_min"],
            }
        )

    return ev.groupby("user_id").map_groups(sessions, batch_format="pyarrow")


@op(
    "events_rolling_avg",
    """
    SELECT event_id, user_id,
           CAST(sum(CAST(round(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT)
             AS window_cents,
           CAST(count(*)
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT)
             AS window_n,
           CAST(sum(CAST(round(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE)
             / count(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
             AS rolling_avg_cents
    FROM events
    """,
)
def events_rolling_avg(sf_dir: str):
    """Bounded-frame windowed aggregate: per-user 5-event rolling average
    (ROWS BETWEEN 4 PRECEDING AND CURRENT ROW).  Exact integer window sums
    via cumsum differences inside a per-user map_groups, one int/int double
    division at the end (bit-deterministic, float-safety policy)."""
    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def rolling(group: pa.Table) -> pa.Table:
        g = group.sort_by([("ts", "ascending"), ("event_id", "ascending")])
        cents = _cents(g["value"]).to_numpy(zero_copy_only=False)
        n = cents.size
        cum = np.concatenate([[0], np.cumsum(cents)])
        lo = np.maximum(np.arange(n) - 4, 0)
        win = cum[np.arange(n) + 1] - cum[lo]
        wn = np.arange(n) + 1 - lo
        return pa.table(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "window_cents": pa.array(win, pa.int64()),
                "window_n": pa.array(wn, pa.int64()),
                "rolling_avg_cents": pa.array(
                    win.astype(np.float64) / wn, pa.float64()
                ),
            }
        )

    return ev.groupby("user_id").map_groups(rolling, batch_format="pyarrow")


@op(
    "parts_by_brand",
    """
    SELECT p_brand, count(*) AS n_parts,
           CAST(sum(CAST(round(p_retailprice * 100) AS BIGINT)) AS BIGINT) AS retail_cents
    FROM part GROUP BY p_brand
    """,
)
def parts_by_brand(sf_dir: str):
    """G3 over the part table (cents-exact)."""
    from ray.data.aggregate import Count, Sum

    p = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def conv(t: pa.Table) -> pa.Table:
        return pa.table({"p_brand": t["p_brand"], "cents": _cents(t["p_retailprice"])})

    c = p.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)
    agg = c.groupby("p_brand").aggregate(Count(), Sum("cents"))
    return _rename(
        agg,
        {"count()": "n_parts", "sum(cents)": "retail_cents"},
        int64_cols=("n_parts", "retail_cents"),
    )


@op(
    "supplier_by_region",
    """
    SELECT r_name, count(*) AS n_suppliers
    FROM supplier
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def supplier_by_region(sf_dir: str):
    """J1 two-hop broadcast: nation→region lookup chain attached to the
    supplier stream with one composed driver-side map."""
    import ray

    nation = read_table(sf_dir, "nation").take_all()  # 25 + 5-row dimensions
    region = read_table(sf_dir, "region").take_all()
    r_name = {r["r_regionkey"]: r["r_name"] for r in region}
    keys = pa.array([n["n_nationkey"] for n in nation], pa.int64())
    names = pa.array([r_name[n["n_regionkey"]] for n in nation], pa.string())
    lut_ref = ray.put((keys, names))
    sup = read_table(sf_dir, "supplier", columns=["s_nationkey"])

    def attach(t: pa.Table) -> pa.Table:
        ks, ns = ray.get(lut_ref)
        idx = pc.index_in(pc.cast(t["s_nationkey"], pa.int64()), value_set=ks)
        return pa.table({"r_name": ns.take(idx)})

    named = sup.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)
    return _rename(named.groupby("r_name").count(), {"count()": "n_suppliers"}, int64_cols=("n_suppliers",))


# ---------------------------------------------------------------------------
# bm25_explain — the search "explain" surface (integer-exact payload)
# ---------------------------------------------------------------------------

_EXPLAIN_TOP = 3


def _bm25_explain_sql() -> str:
    """Top-3 docs per fixture query (the rank-identical bm25 replay as a
    subquery CTE) joined back to the exact integer scoring inputs.  The
    payload is tf/df/dl INTEGERS, not the float contributions: per-term
    float order differs between the engine kernel (idf·(tf/denom)) and a
    natural SQL expression ((idf·tf)/denom) by ulps — the same reason
    bm25_topk excludes scores from its comparison — while the integers
    reproduce the score exactly for whoever reads the explain."""
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH base AS (
      SELECT * FROM ({_bm25_sql(rank_lo=1, rank_hi=_EXPLAIN_TOP)})
    ),
    toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
    q(query_id, term) AS (VALUES {values})
    SELECT b.query_id, b.rank, b.doc_id, q.term, tf.tf, df.df, dl.dl
    FROM base b
    JOIN q ON q.query_id = b.query_id
    JOIN tf ON tf.doc_id = b.doc_id AND tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = b.doc_id
    """


@op("bm25_explain", _bm25_explain_sql)
def bm25_explain(sf_dir: str):
    """Why did this document rank here?  One row per (query, top-3 doc,
    matched query term) with the exact integer scoring inputs — tf of the
    term in the doc, the term's corpus df, and the doc length — i.e. the
    explain endpoint a search UI shows next to each hit.

    Scale shape: the ranking comes from the normal engine path (index
    build amortized via _index_for); the bounded 30-row result set and
    the ≤24 query terms broadcast into ONE pruned corpus pass that
    computes df partials over all docs and tf/dl for just the hit docs
    under disjoint groupby keys (the bm25_topk_snippets pattern) — the
    corpus is never joined against itself."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.text import flat_tokens

    hits = [
        r
        for r in _bm25_run(sf_dir).take_all()  # bounded: 10 queries × k
        if int(r["rank"]) <= _EXPLAIN_TOP
    ]
    hit_docs = sorted({int(r["doc_id"]) for r in hits})
    qterms = {qid: sorted(set(tokenize(t))) for qid, t in enumerate(DOC_QUERIES)}
    all_terms = sorted({t for ts in qterms.values() for t in ts})
    ref = ray.put((np.array(hit_docs, dtype=np.int64), all_terms))

    _PART = pa.schema(
        [("term", pa.string()), ("doc_id", pa.int64()), ("v", pa.int64())]
    )
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        docs_np, terms = ray.get(ref)
        term_set = pa.array(terms, pa.string())
        flat, parent = flat_tokens(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        isq = pc.is_in(flat, value_set=term_set).to_numpy(zero_copy_only=False)
        # df partials over ALL docs: distinct (term, doc) → (term, -1, 1)
        qtab = pa.table(
            {
                "term": pc.filter(flat, pa.array(isq)),
                "doc": pa.array(ids[parent[isq]]),
            }
        ).group_by(["term", "doc"]).aggregate([([], "count_all")])
        parts = [
            pa.table(
                {
                    "term": qtab["term"],
                    "doc_id": pa.array(
                        np.full(qtab.num_rows, -1, dtype=np.int64)
                    ),
                    "v": pa.array(np.ones(qtab.num_rows, dtype=np.int64)),
                },
                schema=_PART,
            )
        ]
        # tf + dl for the bounded hit docs only
        in_hits = np.isin(ids, docs_np)
        if in_hits.any():
            tok_hit = in_hits[parent]
            tf_tab = pa.table(
                {
                    "term": pc.filter(flat, pa.array(isq & tok_hit)),
                    "doc": pa.array(ids[parent[isq & tok_hit]]),
                }
            ).group_by(["term", "doc"]).aggregate([([], "count_all")])
            parts.append(
                pa.table(
                    {
                        "term": tf_tab["term"],
                        "doc_id": pc.cast(tf_tab["doc"], pa.int64()),
                        "v": pc.cast(tf_tab["count_all"], pa.int64()),
                    },
                    schema=_PART,
                )
            )
            dl_cnt = np.zeros(t.num_rows, dtype=np.int64)
            np.add.at(dl_cnt, parent, 1)
            hit_rows = np.flatnonzero(in_hits)
            parts.append(
                pa.table(
                    {
                        "term": pa.array([""] * hit_rows.size, pa.string()),
                        "doc_id": pa.array(ids[hit_rows]),
                        "v": pa.array(dl_cnt[hit_rows]),
                    },
                    schema=_PART,
                )
            )
        return pa.concat_tables(parts)

    rows = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["term", "doc_id"])
        .aggregate(Sum("v"))
        .take_all()  # ≤ |terms|·(1 + |hit docs|) + |hit docs| rows
    )
    df_map: dict[str, int] = {}
    tf_map: dict[tuple[str, int], int] = {}
    dl_map: dict[int, int] = {}
    for r in rows:
        v = int(r["sum(v)"])
        if r["term"] == "":
            dl_map[int(r["doc_id"])] = v
        elif int(r["doc_id"]) == -1:
            df_map[r["term"]] = v
        else:
            tf_map[(r["term"], int(r["doc_id"]))] = v

    out = {k: [] for k in ["query_id", "rank", "doc_id", "term", "tf", "df", "dl"]}
    for r in sorted(hits, key=lambda x: (int(x["query_id"]), int(x["rank"]))):
        qid, rank, doc = int(r["query_id"]), int(r["rank"]), int(r["doc_id"])
        for term in qterms[qid]:
            tf = tf_map.get((term, doc), 0)
            if tf == 0:
                continue  # SQL inner join: unmatched terms emit no row
            out["query_id"].append(qid)
            out["rank"].append(rank)
            out["doc_id"].append(doc)
            out["term"].append(term)
            out["tf"].append(tf)
            out["df"].append(df_map[term])
            out["dl"].append(dl_map[doc])
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "term": pa.array(out["term"], pa.string()),
            "tf": pa.array(out["tf"], pa.int64()),
            "df": pa.array(out["df"], pa.int64()),
            "dl": pa.array(out["dl"], pa.int64()),
        }
    )


# -- extension registries (import side-effect: registers into REGISTRY) -----
from . import ops_dedup  # noqa: E402,F401  (dedup + similarity search)
from . import ops_embed  # noqa: E402,F401  (embedder stage + vector index)
from . import ops_media  # noqa: E402,F401  (multimodal column plumbing)
from . import ops_ml  # noqa: E402,F401  (k-means, range join, split, mix)
from . import ops_relational  # noqa: E402,F401  (pii scrub, as-of join, pivot)
from . import ops_search  # noqa: E402,F401  (boolean/prefix search, repetition)
from . import ops_text  # noqa: E402,F401  (text analysis)
from . import export  # noqa: E402,F401  (training-shard export)
