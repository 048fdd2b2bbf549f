"""Dedup + similarity-search operators (task brief: training-data pipeline
ops as first-class components; ref: n/a — SURVEY.md §0).

Every op here has a value-checkable DuckDB oracle built from the SAME hash
constants as the Python kernels (functions/dedup.py): md5-int60 string
hashes, (a·h+b) mod 2^31−1 minhash permutations, md5 band keys, integer
simhash sums — bit-exact on both sides, so the driver's order-insensitive
value hash matches exactly.

Scale notes (100 TB): the pair-emitting group stages (shared shingle /
band bucket / simhash chunk) are the classic LSH shapes — group sizes are
bounded by band selectivity, not corpus size, and the df-cap guards
(LSH_BUCKET_CAP on band buckets, SHINGLE_DF_CAP on the exact-Jaccard
shingle universe — encoded in BOTH the engine and the oracle SQL) bound
the one degenerate case: a stopword-like shingle / hot band bucket whose
O(|group|²) pair emission would otherwise dominate.  The embedding ops
broadcast only genuinely small sides (the ≤nq-row query matrix); the
exact all-pairs op block-partitions the table in the object store and
cross-joins block pairs (bounded per-task memory, no driver
materialization); the approximate scale path is the LSH variant
(ann_lsh_topk) whose buckets shard the cross-join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import dedup as dd
from ..functions import topk as tk
from ..functions import vectors as vx
from ..functions.text import SQL_TOKENIZE, flat_tokens
from ..sources.corpus import read_table
from .ops import op
from .util import join

_TOKS = SQL_TOKENIZE.format(col="text")
_H60_S = dd.SQL_H60.format(s="s")

# shared SQL CTE prefix: documents → tokens → distinct shingle hashes (h31).
# hs dedups per (doc, h31) — the HASH, not the string — because the engine's
# per-doc shingle sets are hash-keyed; two distinct shingles colliding in
# 31 bits must count once on BOTH sides or sizes/intersections diverge.
_SQL_SHINGLE_CTES = f"""
    toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    sh AS (
      SELECT DISTINCT doc_id, unnest({dd.sql_shingles('t')}) AS s
      FROM toks WHERE len(t) >= {dd.SHINGLE_K}
    ),
    hs AS (SELECT DISTINCT doc_id, {_H60_S} % {dd.P31} AS h31 FROM sh)
"""


# shared vector kernels live in the functions/vectors leaf module (same
# circular-import containment as the ANN fixture constants, ADVICE r3);
# aliased here so every call site below keeps its original name
_embedding_matrix = vx.embedding_matrix
_normalize = vx.normalize


_PAIRS_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


def _fold_count() -> int:
    """Shuffle-bucket count for folded LSH pair emission: bounded group
    count (→ bounded map_groups Python-call overhead) while each bucket
    stays a small slice of the key space.  At extreme scale size this
    ~(pair-stage rows / 10^6) instead so per-bucket tables stay in one
    worker's heap."""
    from .util import cluster_cpus

    return max(256, 16 * cluster_cpus())


def _key_runs(group: pa.Table, key_cols: list[str], id_col: str):
    """Sort a fold bucket by (keys, id) and return (ids, run starts, run
    ends) for the multi-row TRUE key groups inside it — vectorized; the
    only Python loop left downstream is over groups that actually contain
    candidate pairs."""
    keys = [
        group[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in key_cols
    ]
    ids = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, *reversed(keys)))
    keys = [k[order] for k in keys]
    ids = ids[order]
    n = ids.size
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    ends = np.concatenate([starts[1:], [n]])
    multi = (ends - starts) >= 2
    return ids, order, starts[multi], ends[multi]


def _emit_pairs_bucket(
    group: pa.Table,
    key_cols: list[str],
    id_col: str = "doc_id",
    cap: int = dd.LSH_BUCKET_CAP,
) -> pa.Table:
    """Fold bucket of many (key → doc set) groups → all within-key
    (doc_a < doc_b) candidate pairs.  One Python call per FOLD bucket
    (bounded by _fold_count), not one per near-singleton key group — the
    round-2 shape paid ~µs of scheduling per group at corpus-sized key
    cardinality.  Key groups larger than ``cap`` are dropped (df-cap
    pre-pass; the oracle SQL applies the same cap).  A pair co-bucketed
    under k distinct keys is emitted k times — downstream counts rely on
    it (Jaccard intersections) or dedupe (candidate sets)."""
    ids, _order, starts, ends = _key_runs(group, key_cols, id_col)
    out_a, out_b = [], []
    for s, e in zip(starts, ends):  # multi-row true key groups only
        u = np.unique(ids[s:e])
        if u.size < 2 or u.size > cap:
            continue
        ia, ib = np.triu_indices(u.size, k=1)
        out_a.append(u[ia])
        out_b.append(u[ib])
    if not out_a:
        return _PAIRS_SCHEMA.empty_table()
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
        },
        schema=_PAIRS_SCHEMA,
    )


def _with_fold(key_cols: list[str], n_buckets: int):
    """map_batches fn appending the int64 ``fold`` shuffle key."""

    def add_fold(t: pa.Table) -> pa.Table:
        cols = [
            t[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in key_cols
        ]
        return t.append_column(
            "fold", pa.array(dd.fold_bucket(*cols, n_buckets=n_buckets), pa.int64())
        )

    return add_fold


def _query_matrix(emb, n_queries: int):
    """First-n query rows → (ids, normalized float64 matrix); bounded by
    the query sample size (vectorized predicate, not per-row Python)."""
    q_rows = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], n_queries)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    q_ids = np.array([r["vec_id"] for r in q_rows], dtype=np.int64)
    q_mat = _normalize(np.array([r["embedding"] for r in q_rows], dtype=np.float64))
    return q_ids, q_mat


# ===========================================================================
# MinHash + LSH candidate pairs
# ===========================================================================

def _minhash_sql(cap: int = dd.LSH_BUCKET_CAP) -> str:
    return f"""
    WITH {_SQL_SHINGLE_CTES},
    perms(perm, a, b, powv) AS (VALUES {dd.sql_perm_values()}),
    sig AS (
      SELECT doc_id, perm, min((a * h31 + b) % {dd.P31}) AS mh
      FROM hs CROSS JOIN perms GROUP BY doc_id, perm
    ),
    band AS (
      -- integer band-fold key (same formula as functions/dedup.band_keys):
      -- products < 2^62, mod before the 4-term sum → exact in BIGINT
      SELECT s.doc_id, s.perm // {dd.BAND_ROWS} AS band,
             sum((s.mh * p.powv) % {dd.P31}) % {dd.P31} AS band_key
      FROM sig s JOIN perms p ON p.perm = s.perm
      GROUP BY 1, 2
    ),
    bsz AS (SELECT band, band_key, count(*) AS n FROM band GROUP BY 1, 2)
    SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM band a JOIN band b
      ON a.band = b.band AND a.band_key = b.band_key AND a.doc_id < b.doc_id
    JOIN bsz ON bsz.band = a.band AND bsz.band_key = a.band_key
    WHERE bsz.n <= {cap}
    """


@op("dedup_minhash_lsh", _minhash_sql())
def dedup_minhash_lsh(sf_dir: str, cap: int = dd.LSH_BUCKET_CAP):
    """MinHash(16 perms) + LSH(4 bands × 4 rows) near-dup candidate pairs.

    shingle → minhash → band → bucket-groupby → pair emission; the all-to-all
    exchange keys on the int64 band_key (bounded buckets), never on raw
    text.  Buckets larger than ``cap`` are dropped on both sides (df-cap
    pre-pass — see _emit_pairs).
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def bands(batch: pa.Table) -> pa.Table:
        sh, parent = dd.token_shingles(batch["text"])
        h60 = dd.hash_strings(sh) if len(sh) else np.empty(0, dtype=np.int64)
        rows, sigs = dd.minhash_signatures(h60, parent, batch.num_rows)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[rows]
        return dd.band_keys(ids, sigs)

    band_ds = docs.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)

    folded = band_ds.map_batches(
        _with_fold(["band", "band_key"], _fold_count()),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    pairs = folded.groupby("fold").map_groups(
        lambda g: _emit_pairs_bucket(g, ["band", "band_key"], cap=cap),
        batch_format="pyarrow",
    )
    distinct = pairs.groupby(["doc_a", "doc_b"]).count()
    from .util import drop_empty_blocks

    # heal: a zero-pair corpus must still present (doc_a, doc_b) columns
    return drop_empty_blocks(
        distinct.select_columns(["doc_a", "doc_b"]),
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
    )


# ===========================================================================
# Exact n-gram Jaccard near-dup (verification-grade, SQL-exact)
# ===========================================================================

_JACCARD_MIN = 0.8


def _jaccard_sql(cap: int = dd.SHINGLE_DF_CAP) -> str:
    return f"""
    WITH {_SQL_SHINGLE_CTES},
    dfc AS (SELECT h31, count(*) AS df FROM hs GROUP BY 1),
    hsf AS (
      SELECT hs.doc_id, hs.h31 FROM hs
      JOIN dfc ON dfc.h31 = hs.h31 WHERE dfc.df <= {cap}
    ),
    sz AS (SELECT doc_id, count(*) AS n FROM hsf GROUP BY doc_id),
    pair AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
      FROM hsf a JOIN hsf b ON a.h31 = b.h31 AND a.doc_id < b.doc_id
      GROUP BY 1, 2
    )
    SELECT doc_a, doc_b, inter,
           (sa.n + sb.n - inter) AS union_sz,
           inter * 1.0 / (sa.n + sb.n - inter) AS jaccard
    FROM pair
    JOIN sz sa ON sa.doc_id = doc_a
    JOIN sz sb ON sb.doc_id = doc_b
    WHERE inter * 1.0 / (sa.n + sb.n - inter) >= {_JACCARD_MIN}
    """


@op("near_dup_jaccard", _jaccard_sql())
def near_dup_jaccard(sf_dir: str, cap: int = dd.SHINGLE_DF_CAP):
    """Exact 3-token-shingle Jaccard ≥ 0.8 pairs (inter/union exact ints)
    over the df-capped shingle universe (shingles in > ``cap`` docs are
    excluded from sizes AND intersections on both sides — the stopword-
    shingle guard that keeps every inverted-index group ≤ cap docs).

    Inverted-index pair generation: distinct (doc, shingle-hash) rows group
    by hash; each group emits its doc pairs; pair counts = intersection
    sizes; per-doc set sizes attach via util.join (J2).
    """
    import ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def distinct_shingles(batch: pa.Table) -> pa.Table:
        sh, parent = dd.token_shingles(batch["text"])
        h31 = dd.hash_strings(sh) % dd.P31
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parent]
        return (
            pa.table({"doc_id": pa.array(ids), "h31": pa.array(h31)})
            .group_by(["doc_id", "h31"])
            .aggregate([])
        )

    # materialized once: consumed by the hot-shingle pass, sizes and pairs
    # (Ray re-executes shared subplans per consumer otherwise)
    hs = docs.map_batches(
        distinct_shingles, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # df-cap pre-pass: only the HOT hashes (df > cap) come to the driver —
    # their count is bounded by total_shingles/cap, the classic hot-key set
    hot = (
        hs.groupby("h31")
        .count()
        .map_batches(
            lambda t: t.filter(pc.greater(t["count()"], cap))
            if t.num_rows
            else t,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )
    if hot:
        hot_ref = ray.put(np.sort(np.array([r["h31"] for r in hot], dtype=np.int64)))

        def drop_hot(t: pa.Table) -> pa.Table:
            hs_arr = ray.get(hot_ref)
            return t.filter(
                pc.invert(pc.is_in(t["h31"], value_set=pa.array(hs_arr, pa.int64())))
            )

        hs = hs.map_batches(drop_hot, batch_format="pyarrow", zero_copy_batch=True)

    from .util import drop_empty_blocks

    sizes = drop_empty_blocks(
        hs.groupby("doc_id").count(),
        pa.schema([("doc_id", pa.int64()), ("count()", pa.int64())]),
    )  # (doc_id, count())

    # Intersection lower bound (sf1 stress finding, r5): jac ≥ J forces
    # inter·(1+J) ≥ J·(n_a+n_b) ≥ J·2·n_min, so pairs below the bound can
    # NEVER pass the final filter and are dropped at the count — on a
    # corpus where the shingle vocabulary saturates (df ~ cap everywhere),
    # candidate pair INSTANCES are bounded by vocab·cap² (~126M at sf1)
    # but pairs sharing ≥bound shingles are only the true near-dups.
    # floor() keeps the pre-filter conservative; the exact per-pair
    # jaccard test below is unchanged.
    n_min_row = sizes.min("count()")
    n_min = int(n_min_row if n_min_row is not None else 0)
    inter_lb = max(1, int(np.floor(2.0 * _JACCARD_MIN / (1.0 + _JACCARD_MIN) * n_min)))

    _PFOLD = _fold_count()

    def add_pair_fold(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "pfold", pa.array(dd.fold_bucket(a, b, n_buckets=_PFOLD), pa.int64())
        )

    _PC_SCHEMA = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("count()", pa.int64())]
    )

    def count_bucket(g: pa.Table) -> pa.Table:
        """Per-pfold-bucket exact intersection counts — all instances of a
        pair land in ONE bucket (key-based fold), so the in-bucket count
        IS the global count; the lb filter then drops the random-overlap
        noise before anything reaches the size joins.  One vectorized
        group_by per bucket (the dedup-family fold pattern): the 2-column
        global sort-aggregate this replaces serialized its reduce phase at
        sf1's 126M pair instances."""
        t = (
            pa.table({"doc_a": g["doc_a"], "doc_b": g["doc_b"]})
            .group_by(["doc_a", "doc_b"])
            .aggregate([([], "count_all")])
        )
        t = t.filter(pc.greater_equal(t["count_all"], inter_lb))
        return t.rename_columns(["doc_a", "doc_b", "count()"]).cast(_PC_SCHEMA)

    pair_counts = (
        hs.map_batches(
            _with_fold(["h31"], _fold_count()),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("fold")
        .map_groups(
            lambda g: add_pair_fold(_emit_pairs_bucket(g, ["h31"], cap=cap)),
            batch_format="pyarrow",
        )
        .groupby("pfold")
        .map_groups(count_bucket, batch_format="pyarrow")
    )  # (doc_a, doc_b, count() = intersection; one emit per shared h31)

    _J_OUT = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("inter", pa.int64()),
         ("union_sz", pa.int64()), ("jaccard", pa.float64())]
    )
    sz_a = sizes.map_batches(
        lambda t: t.rename_columns(["doc_a", "n_a"]), batch_format="pyarrow"
    )
    sz_b = sizes.map_batches(
        lambda t: t.rename_columns(["doc_b", "n_b"]), batch_format="pyarrow"
    )
    _PC_A = _PC_SCHEMA.append(pa.field("n_a", pa.int64()))
    j = join(pair_counts, sz_a, ("doc_a",), "inner", _PC_A)
    j = join(j, sz_b, ("doc_b",), "inner", _PC_A.append(pa.field("n_b", pa.int64())))

    def finalize(t: pa.Table) -> pa.Table:
        inter = pc.cast(t["count()"], pa.int64())
        union = pc.cast(
            pc.subtract(pc.add(t["n_a"], t["n_b"]), inter), pa.int64()
        )
        jac = pc.divide(
            pc.cast(inter, pa.float64()), pc.cast(union, pa.float64())
        )
        out = pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "inter": inter,
                "union_sz": union,
                "jaccard": jac,
            }
        )
        return out.filter(pc.greater_equal(jac, _JACCARD_MIN))

    # heal: every pair can fail the threshold — keep the output schema
    return drop_empty_blocks(
        j.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True),
        _J_OUT,
    )


# ===========================================================================
# Near-dup clusters: connected components over the Jaccard pair graph
# ===========================================================================

def _cluster_sql() -> str:
    return f"""
    WITH RECURSIVE
    {_SQL_SHINGLE_CTES},
    dfc AS (SELECT h31, count(*) AS df FROM hs GROUP BY 1),
    hsf AS (
      SELECT hs.doc_id, hs.h31 FROM hs
      JOIN dfc ON dfc.h31 = hs.h31 WHERE dfc.df <= {dd.SHINGLE_DF_CAP}
    ),
    sz AS (SELECT doc_id, count(*) AS n FROM hsf GROUP BY doc_id),
    pair AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
      FROM hsf a JOIN hsf b ON a.h31 = b.h31 AND a.doc_id < b.doc_id
      GROUP BY 1, 2
    ),
    dup AS (
      SELECT doc_a, doc_b FROM pair
      JOIN sz sa ON sa.doc_id = doc_a
      JOIN sz sb ON sb.doc_id = doc_b
      WHERE inter * 1.0 / (sa.n + sb.n - inter) >= {_JACCARD_MIN}
    ),
    edges AS (
      SELECT doc_a AS u, doc_b AS v FROM dup
      UNION SELECT doc_b, doc_a FROM dup
    ),
    reach(u, v) AS (
      SELECT u, v FROM edges
      UNION
      SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
    ),
    comp AS (
      SELECT u AS doc_id, least(u, min(v)) AS cluster_id FROM reach GROUP BY u
    )
    SELECT d.doc_id, COALESCE(c.cluster_id, d.doc_id) AS cluster_id
    FROM documents d LEFT JOIN comp c ON c.doc_id = d.doc_id
    """


def _connected_components(pairs, max_rounds: int = 64):
    """(doc_a, doc_b) pair Dataset → (u, label) min-component labels for
    every node that appears in a pair.

    Distributed min-label propagation WITH POINTER DOUBLING (VERDICT r3
    #6): each round (a) takes the per-node min over neighbors ∪ self via a
    hash join onto the bidirectional edge list, then (b) jumps every
    node's label to its label's label (path halving) — so convergence is
    O(log diameter) rounds instead of O(diameter), and the ``max_rounds``
    bound covers components of diameter up to ~2^rounds rather than
    ~rounds (a 200-long chain converges in ~9 rounds; the old
    propagation-only loop would have hit the bound and raised).

    Labels are monotonically non-increasing ints with label(x) ≤ x, so
    Σlabels is stationary exactly at the fixpoint — convergence costs one
    tiny aggregate per round.  Still fails loudly if the bound is ever hit
    (ADVICE r2: never return silently wrong cluster ids).
    """
    from ray.data.aggregate import Min, Sum

    def both_dirs(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        v = pa.concat_arrays(
            [t["doc_b"].combine_chunks(), t["doc_a"].combine_chunks()]
        )
        return pa.table({"u": pc.cast(u, pa.int64()), "v": pc.cast(v, pa.int64())})

    edges = pairs.map_batches(
        both_dirs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # label(u) starts at min(u, min neighbor)
    def self_edge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": t["u"],
                "label": pc.min_element_wise(t["u"], t["v"]),
            }
        )

    labels = (
        edges.map_batches(self_edge, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("u")
        .aggregate(Min("label"))
    ).map_batches(
        lambda t: t.rename_columns(["u", "label"]), batch_format="pyarrow"
    ).materialize()

    def label_sum(ds) -> int:
        agg = ds.aggregate(Sum("label"))
        return int(agg["sum(label)"] or 0)

    prev = label_sum(labels)
    converged = False
    for _round in range(max_rounds):
        # (a) propagate: edges (u,v) ⋈ labels(v) → candidate label for u
        lab_v = labels.map_batches(
            lambda t: t.rename_columns(["v", "vlabel"]), batch_format="pyarrow"
        )
        cand = join(
            edges, lab_v, ("v",), "inner",
            pa.schema([("u", pa.int64()), ("v", pa.int64()), ("vlabel", pa.int64())]),
        )
        merged = (
            cand.select_columns(["u", "vlabel"])
            .map_batches(
                lambda t: t.rename_columns(["u", "label"]), batch_format="pyarrow"
            )
            .union(labels)
            .groupby("u")
            .aggregate(Min("label"))
        )
        labels = merged.map_batches(
            lambda t: t.rename_columns(["u", "label"]), batch_format="pyarrow"
        )

        # (b) pointer-double: label(u) ← label(label(u)).  Every label IS a
        # node of the same component (labels are node ids), so the lookup
        # is a self-join; left_outer + coalesce keeps the row if a label
        # has no own row (cannot happen, but cheap insurance).  label(l) ≤
        # l, so the jump only ever decreases — the Σlabels fixpoint test
        # stays valid.
        lab_l = labels.map_batches(
            lambda t: pa.table(
                {"lu": t["u"], "llabel": t["label"]}
            ),
            batch_format="pyarrow",
        )
        jumped = join(
            labels, lab_l, ("label",), "left_outer",
            pa.schema(
                [("u", pa.int64()), ("label", pa.int64()), ("llabel", pa.int64())]
            ),
            right_on=("lu",),
        )
        labels = jumped.map_batches(
            lambda t: pa.table(
                {
                    "u": pc.cast(t["u"], pa.int64()),
                    "label": pc.cast(
                        pc.coalesce(t["llabel"], t["label"]), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()

        cur = label_sum(labels)
        if cur == prev:  # labels only decrease → stationary sum == fixpoint
            converged = True
            break
        prev = cur
    if not converged:
        # a component needing more doubling rounds than the bound would
        # otherwise return silently wrong cluster ids (ADVICE r2) — fail
        # loudly instead (with doubling the bound covers diameter ~2^rounds,
        # so hitting it indicates a bug, not a deep component)
        raise RuntimeError(
            "connected components: label propagation did not reach a fixpoint "
            f"within {max_rounds} pointer-doubling rounds"
        )
    return labels


@op("dedup_cluster", _cluster_sql())
def dedup_cluster(sf_dir: str):
    """Connected components over the exact-Jaccard near-dup graph: every
    document labeled with its cluster representative (the MIN doc id in its
    component; singletons label themselves) — the "keep one per cluster"
    step of a dedup pipeline.

    The label machinery is _connected_components (min-label propagation +
    pointer doubling, O(log diameter) rounds, loud failure at the round
    bound); this op wires it to the near_dup_jaccard edge set and fills
    singletons from the documents table.
    """
    pairs = near_dup_jaccard(sf_dir).select_columns(["doc_a", "doc_b"])
    labels = _connected_components(pairs)

    docs = read_table(sf_dir, "documents", columns=["doc_id"])
    lab = labels.map_batches(
        lambda t: t.rename_columns(["doc_id", "cluster_id"]), batch_format="pyarrow"
    )
    # zero pairs: no labels, and every document is its own cluster
    joined = join(
        docs, lab, ("doc_id",), "left_outer",
        pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())]),
    )

    def fill(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "cluster_id": pc.cast(
                    pc.coalesce(t["cluster_id"], t["doc_id"]), pa.int64()
                ),
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# SimHash
# ===========================================================================

def _simhash_sql() -> str:
    h60_term = dd.SQL_H60.format(s="term")
    return f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
    th AS (SELECT doc_id, tf, {h60_term} AS h FROM tf),
    bits AS (
      SELECT doc_id, b, sum(tf * (2 * ((h >> CAST(b AS INT)) & 1) - 1)) AS s
      FROM th, range({dd.SIMHASH_BITS}) r(b) GROUP BY 1, 2
    ),
    sh AS (
      SELECT doc_id,
             CAST(sum(CASE WHEN s > 0 THEN (CAST(1 AS BIGINT) << CAST(b AS INT))
                           ELSE 0 END) AS BIGINT) AS simhash
      FROM bits GROUP BY doc_id
    )
    SELECT d.doc_id, COALESCE(sh.simhash, 0) AS simhash
    FROM documents d LEFT JOIN sh ON sh.doc_id = d.doc_id
    """


@op("doc_simhash", _simhash_sql())
def doc_simhash(sf_dir: str):
    """60-bit tf-weighted SimHash per document (integer-exact)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "simhash": pa.array(dd.simhash60(batch["text"]), pa.int64()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_HAMMING_MAX = 3


def _simhash_pairs_sql() -> str:
    return f"""
    WITH sh AS ({_simhash_sql()})
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.simhash, b.simhash)) <= {_HAMMING_MAX}
    """


@op("dedup_simhash", _simhash_pairs_sql())
def dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs: Hamming ≤ 3 over 60 bits.

    Candidate generation by 15-bit chunk banding (pigeonhole: Hamming ≤ 3
    ⇒ at least one of 4 chunks identical), then exact Hamming verify —
    identical output to the oracle's O(n²) scan without the O(n²) shuffle.
    """
    sims = doc_simhash(sf_dir)

    n_fold = _fold_count()

    def explode_chunks(batch: pa.Table) -> pa.Table:
        """Each simhash → 4 (chunk_idx, chunk_val) rows, pre-folded into the
        bounded shuffle-bucket key (see _emit_pairs_bucket)."""
        sim = batch["simhash"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ch = dd.simhash_chunks(sim)  # (n, 4)
        n = sim.size
        cidx = np.repeat(np.arange(4, dtype=np.int64), n)
        cval = ch.T.reshape(-1)
        return pa.table(
            {
                "chunk_idx": pa.array(cidx.astype(np.int32)),
                "chunk_val": pa.array(cval),
                "doc_id": pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(sim, 4)),
                "fold": pa.array(
                    dd.fold_bucket(cidx, cval, n_buckets=n_fold), pa.int64()
                ),
            }
        )

    chunks = sims.map_batches(explode_chunks, batch_format="pyarrow", zero_copy_batch=True)

    _EMIT_SCHEMA = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int64())]
    )

    def emit(group: pa.Table) -> pa.Table:
        """Exact-Hamming verify over every true (chunk_idx, chunk_val) run
        inside one fold bucket — pairwise xor + SWAR popcount per run; one
        Python call per BUCKET (bounded), not per near-singleton chunk
        group (the round-2 scheduling-bound shape)."""
        ids, order, starts, ends = _key_runs(group, ["chunk_idx", "chunk_val"], "doc_id")
        sh = group["simhash"].to_numpy(zero_copy_only=False)[order]
        out_a, out_b, out_h = [], [], []
        for s, e in zip(starts, ends):
            ia, ib = np.triu_indices(e - s, k=1)
            h = dd.popcount64((sh[s + ia] ^ sh[s + ib]).astype(np.uint64))
            m = h <= _HAMMING_MAX
            out_a.append(ids[s + ia[m]])
            out_b.append(ids[s + ib[m]])
            out_h.append(h[m])
        if not out_a:
            return _EMIT_SCHEMA.empty_table()
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
                "hamming": pa.array(np.concatenate(out_h), pa.int64()),
            },
            schema=_EMIT_SCHEMA,
        )

    pairs = chunks.groupby("fold").map_groups(emit, batch_format="pyarrow")
    from ray.data.aggregate import Min

    distinct = pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("hamming"))

    def rn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "hamming": pc.cast(t["min(hamming)"], pa.int64()),
            }
        )

    from .util import drop_empty_blocks

    # heal: a zero-pair corpus must still present the 3-column schema
    return drop_empty_blocks(
        distinct.map_batches(rn, batch_format="pyarrow", zero_copy_batch=True),
        _EMIT_SCHEMA,
    )


# ===========================================================================
# Embedding near-dup + ANN similarity search
# ===========================================================================

_COS_MIN = 0.4
# near_dup_embedding occupancy gate: the LSH-first plan (candidate-pair
# materialization) loses to the verify-first blocked matmul once the pair
# count is large in absolute terms AND a substantial fraction of all n²/2
# pairs (the no-pruning regime); a clustered corpus at huge n keeps
# est_pairs « n², so the linear LSH-first plan survives the gate there
_CAND_PAIR_CUTOFF = 2_000_000
# shared ANN fixture (functions/dedup.py leaf module — ADVICE r3: ops_search
# uses the same values in its oracle SQL; a drift would silently desync them)
_ANN_K = dd.ANN_K
_ANN_NQ = dd.ANN_NQ


def _near_dup_embedding_scan(sf_dir: str):
    """EXACT all-pairs cosine threshold join — the A/B reference kernel
    behind near_dup_embedding's ``exact_scan=True`` flag (VERDICT r3 #4:
    the default plan is now LSH candidates + exact verify; this kernel is
    O(B²) in block count BY CONSTRUCTION and kept only for recall A/B).

    No driver materialization: the normalized table is materialized as
    object-store blocks (``to_arrow_refs`` — the driver holds only the
    refs), and a dataset of block-pair indices (i ≤ j) fans out over
    ``map_batches``; each task ray.gets exactly two blocks (bounded
    memory), does one float64 matmul, and emits the threshold survivors.
    """
    import ray
    import ray.data

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prep(t: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(t))
        return pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "embedding": pa.array(list(m), pa.list_(pa.float64())),
            }
        )

    refs = emb.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True).to_arrow_refs()
    # row-stripe decomposition: one task = block i × a STRIPE of blocks
    # j ∈ [j0, j1) with j ≥ i, so block i ships once per stripe instead of
    # once per (i, j) pair — ~2× fewer cross-cluster block transfers at
    # large B, and the task count drops from B(B+1)/2 to ~B·⌈B/STRIPE⌉/2.
    _STRIPE = 8
    n_blocks = len(refs)
    stripes = [
        {"i": i, "j0": j0, "j1": min(j0 + _STRIPE, n_blocks)}
        for i in range(n_blocks)
        for j0 in range(i, n_blocks, _STRIPE)
    ]

    _PAIR_SCHEMA = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())])

    def cross(batch: pa.Table, _refs=refs) -> pa.Table:
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for i, j0, j1 in zip(
            batch["i"].to_pylist(), batch["j0"].to_pylist(), batch["j1"].to_pylist()
        ):
            bi = ray.get(_refs[i])
            ids_i = bi["vec_id"].to_numpy(zero_copy_only=False)
            mat_i = _embedding_matrix(bi)
            for j in range(j0, j1):
                bj = ray.get(_refs[j])
                ids_j = bj["vec_id"].to_numpy(zero_copy_only=False)
                sims = mat_i @ _embedding_matrix(bj).T
                hit_i, hit_j = np.nonzero(
                    (sims >= _COS_MIN) & (ids_i[:, None] != ids_j[None, :])
                )
                a, b = ids_i[hit_i], ids_j[hit_j]
                if i == j:  # within-block: keep each unordered pair once
                    keep = a < b
                    a, b = a[keep], b[keep]
                else:  # cross-block ids are arbitrary: order each pair
                    a, b = np.minimum(a, b), np.maximum(a, b)
                out_a.append(a)
                out_b.append(b)
        if not out_a:
            return _PAIR_SCHEMA.empty_table()
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(out_a), pa.int64()),
                "vec_b": pa.array(np.concatenate(out_b), pa.int64()),
            },
            schema=_PAIR_SCHEMA,
        )

    pair_ds = ray.data.from_items(stripes)
    return pair_ds.map_batches(cross, batch_format="pyarrow", batch_size=1)


# 8-bit popcount LUT: vectorizes the per-table Hamming check on survivors
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _near_dup_verify_first(sf_dir: str):
    """Verify-first plan for near_dup_embedding: blocked exact-cosine scan
    with the LSH candidate rule applied as a POST-filter on the (few)
    threshold survivors, instead of materializing the candidate pair set.

    Chosen by the occupancy gate in near_dup_embedding when the candidate
    relation is pair-explosive: with FIXED 2^planes buckets per table, the
    Hamming ≤ MULTIPROBE rule admits a constant FRACTION of all pairs on
    near-uniform data (≈50%/table at 5 planes), so bucket occupancy — and
    LSH-first pair emission — grows quadratically with corpus size (the
    sf1 stress run spilled 17 GB and ran > 1 h at 20k vectors).  Output is
    IDENTICAL set algebra: {cos ≥ τ} ∩ {Hamming ≤ r in any table} commutes.
    The matmul side is Θ(n²) flops but vectorized and pair-row-free —
    exactly the work the fixed candidate semantics demand in this regime;
    where the rule actually prunes (clustered corpora), the gate keeps the
    linear LSH-first plan.
    """
    import ray
    import ray.data

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    dim = _LSH_DIM
    assert _LSH_TABLES * 8 <= 63 and _LSH_PLANES <= 8  # packed int64 buckets

    def prep(t: pa.Table) -> pa.Table:
        m_raw = _embedding_matrix(t)
        q = _quantize(m_raw)
        pk = np.zeros(t.num_rows, dtype=np.int64)
        for tb in range(_LSH_TABLES):
            pk |= _bucket_of(q, tb).astype(np.int64) << (8 * tb)
        m = _normalize(m_raw)
        return pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "embedding": pa.array(list(m), pa.list_(pa.float64())),
                "pk": pa.array(pk, pa.int64()),
            }
        )

    refs = emb.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True
    ).to_arrow_refs()
    _STRIPE = 8
    n_blocks = len(refs)
    stripes = [
        {"i": i, "j0": j0, "j1": min(j0 + _STRIPE, n_blocks)}
        for i in range(n_blocks)
        for j0 in range(i, n_blocks, _STRIPE)
    ]

    _PAIR_SCHEMA = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())])

    def _unpack(b: pa.Table):
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        pk = b["pk"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return ids, _embedding_matrix(b), pk

    def cross(batch: pa.Table, _refs=refs) -> pa.Table:
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for i, j0, j1 in zip(
            batch["i"].to_pylist(), batch["j0"].to_pylist(), batch["j1"].to_pylist()
        ):
            ids_i, mat_i, pk_i = _unpack(ray.get(_refs[i]))
            for j in range(j0, j1):
                ids_j, mat_j, pk_j = _unpack(ray.get(_refs[j]))
                sims = mat_i @ mat_j.T
                hit_i, hit_j = np.nonzero(
                    (sims >= _COS_MIN) & (ids_i[:, None] != ids_j[None, :])
                )
                if hit_i.size:
                    x = pk_i[hit_i] ^ pk_j[hit_j]
                    ok = np.zeros(hit_i.size, dtype=bool)
                    for tb in range(_LSH_TABLES):
                        byte = ((x >> np.uint64(8 * tb)) & np.uint64(0xFF)).astype(
                            np.uint8
                        )
                        ok |= _POP8[byte] <= _LSH_MULTIPROBE
                    hit_i, hit_j = hit_i[ok], hit_j[ok]
                a, b = ids_i[hit_i], ids_j[hit_j]
                if i == j:
                    keep = a < b
                    a, b = a[keep], b[keep]
                else:
                    a, b = np.minimum(a, b), np.maximum(a, b)
                out_a.append(a)
                out_b.append(b)
        if not out_a:
            return _PAIR_SCHEMA.empty_table()
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(out_a), pa.int64()),
                "vec_b": pa.array(np.concatenate(out_b), pa.int64()),
            },
            schema=_PAIR_SCHEMA,
        )

    pair_ds = ray.data.from_items(stripes)
    return pair_ds.map_batches(cross, batch_format="pyarrow", batch_size=1)


@op(
    "ann_topk_cosine",
    f"""
    SELECT query_id, rank, neighbor_id FROM (
      SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             row_number() OVER (
               PARTITION BY a.vec_id
               ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                               CAST(b.embedding AS DOUBLE[])) DESC,
                        b.vec_id
             ) AS rank
      FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id
      WHERE a.vec_id < {_ANN_NQ}
    ) WHERE rank <= {_ANN_K}
    """,
)
def ann_topk_cosine(sf_dir: str):
    """Brute-force cosine top-k ANN baseline: queries = vec_id < 10, k=10.

    Query matrix broadcast via ray.put; per-batch float64 matmul + partial
    top-k (only k rows per query leave each batch); tiny final per-query
    merge.  Tie-break (score desc, vec_id asc); ranks only in the output —
    rank identity is the contract, scores differ in the last ulp across
    engines (same policy as bm25_topk).
    """
    import ray

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_mat = _query_matrix(emb, _ANN_NQ)
    ref = ray.put((q_ids, q_mat))

    @tk.partial_topk(_ANN_K)
    def partial(batch: pa.Table):
        qi, qm = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = qm @ _normalize(_embedding_matrix(batch)).T  # (nq, batch)
        r, c = np.nonzero(b_ids != qi[:, None])  # never self-match
        return qi[r], b_ids[c], sims[r, c]

    partials = emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, _ANN_K)


# ---- LSH-bucketed ANN: the scale path (now with a FULL SQL oracle) --------

# Tuned on the testdata distribution, which is ADVERSARIAL for LSH: the
# synthetic embeddings are near-uniform (a query's true top-10 sits at
# cos ≈ 0.27), so wide probing is required for recall ≥ 0.9.  On a real
# embedding corpus (neighbors at cos ≥ 0.7) the same recall comes much
# cheaper — raise _LSH_PLANES / drop _LSH_MULTIPROBE there.
# shared LSH kernels/constants live in the functions/vectors leaf module
# (same circular-import containment as the IVF pieces): ops_embed's
# persisted LSH index shares the exact bucket math and oracle SQL
_LSH_TABLES = vx.LSH_TABLES
_LSH_PLANES = vx.LSH_PLANES
_LSH_MULTIPROBE = vx.LSH_MULTIPROBE
_LSH_MIN_RECALL = 0.9  # asserted vs the brute-force truth (verify=True path)
_LSH_DIM = vx.VEC_DIM      # embeddings table dim (asserted at runtime)
_LSH_QSCALE = vx.QSCALE    # embedding quantization: q = floor(x · 2^20)
_LSH_W = vx.LSH_W
_quantize = vx.quantize
_bucket_of = vx.bucket_of
_lsh_buckets_sql = vx.lsh_buckets_sql
_ann_lsh_sql = vx.ann_lsh_sql


@op("ann_lsh_topk", _ann_lsh_sql())
def ann_lsh_topk(sf_dir: str, verify: bool = False):
    """LSH-bucketed ANN (scale path): _LSH_TABLES independent hyperplane
    tables (Indyk & Motwani, STOC 1998; multi-probe per Lv et al., VLDB
    2007); the corpus is bucketed by ONE groupby over exploded
    (table, bucket) keys, brute-force scoring happens only inside each
    query's probed buckets, and per-table candidates are unioned before
    the exact top-k merge.

    Integer-exact bucketing (round-3): projections are int64 dot products
    over floor-quantized embeddings and frozen integer plane weights, so
    the DuckDB oracle replays the EXACT same buckets, multiprobe set and
    candidate list in SQL — the op is value-hash-checkable like any exact
    op (an approximate ALGORITHM with a deterministic, verifiable output).

    ``verify=True`` additionally computes recall@k against the exact
    brute-force ranking (ann_topk_cosine) and RAISES below
    _LSH_MIN_RECALL — the production spot-check on a query sample, kept
    off the default path so callers don't pay the exact-truth cost per
    run (round-2 item: it used to run unconditionally).
    """
    import ray

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_rows = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], _ANN_NQ)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded by the query sample
    q_ids = np.array([r["vec_id"] for r in q_rows], dtype=np.int64)
    q_raw = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    if q_raw.shape[1] != _LSH_DIM:
        raise ValueError(
            f"ann_lsh_topk: embedding dim {q_raw.shape[1]} != configured "
            f"{_LSH_DIM} (the SQL-twin plane table is dim-specific)"
        )
    q_mat = _normalize(q_raw)   # scoring side (exact cosine)
    q_quant = _quantize(q_raw)  # bucketing side (integer-exact)
    # probe set per (table, bucket): every bucket within Hamming
    # _LSH_MULTIPROBE of the query's bucket in that table
    probe: dict[tuple[int, int], list[int]] = {}
    for t in range(_LSH_TABLES):
        q_buckets = _bucket_of(q_quant, t)
        for qi, b in zip(q_ids, q_buckets):
            for nb in range(1 << _LSH_PLANES):
                if bin(int(b) ^ nb).count("1") <= _LSH_MULTIPROBE:
                    probe.setdefault((t, nb), []).append(int(qi))
    ref = ray.put((q_ids, q_mat, probe))

    def add_buckets(batch: pa.Table) -> pa.Table:
        """Explode each vector into _LSH_TABLES (table, bucket) rows."""
        m = _quantize(_embedding_matrix(batch))
        ids = pc.cast(batch["vec_id"], pa.int64())
        n = batch.num_rows
        buckets = np.concatenate([_bucket_of(m, t) for t in range(_LSH_TABLES)])
        return pa.table(
            {
                "table_id": pa.array(
                    np.repeat(np.arange(_LSH_TABLES, dtype=np.int64), n), pa.int64()
                ),
                "bucket": pa.array(buckets, pa.int64()),
                "vec_id": pa.concat_arrays([ids.combine_chunks()] * _LSH_TABLES),
                "embedding": pa.concat_arrays(
                    [batch["embedding"].combine_chunks()] * _LSH_TABLES
                ),
            }
        )

    bucketed = emb.map_batches(add_buckets, batch_format="pyarrow", zero_copy_batch=True)

    @tk.partial_topk(_ANN_K)
    def score_bucket(group: pa.Table):
        qi, qm, pr = ray.get(ref)
        t = int(group["table_id"][0].as_py())
        bucket = int(group["bucket"][0].as_py())
        want = pr.get((t, bucket))
        if not want:
            return None
        b_ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = {int(q): i for i, q in enumerate(qi)}
        return vx.probe_candidates(
            want, rows, qm, b_ids, _normalize(_embedding_matrix(group))
        )

    partials = bucketed.groupby(["table_id", "bucket"]).map_groups(
        score_bucket, batch_format="pyarrow"
    )

    # union candidates across tables (dedupe — scores for a (query,
    # neighbor) pair are identical across tables) → exact top-k
    lsh = tk.merge_topk(partials, _ANN_K, dedupe=True)
    if not verify:
        return lsh  # streaming result; buckets/candidates oracle-checked

    # ---- recall spot-check: compare against the exact brute-force ranking --
    # both sides are nq·k rows (bounded by the query sample, NOT corpus-sized)
    lsh_t = lsh.take_all()
    truth_t = ann_topk_cosine(sf_dir).take_all()
    truth_sets: dict[int, set[int]] = {}
    for r in truth_t:
        truth_sets.setdefault(int(r["query_id"]), set()).add(int(r["neighbor_id"]))
    got_sets: dict[int, set[int]] = {}
    for r in lsh_t:
        got_sets.setdefault(int(r["query_id"]), set()).add(int(r["neighbor_id"]))
    recall = {
        q: len(got_sets.get(q, set()) & t) / max(len(t), 1)
        for q, t in truth_sets.items()
    }
    mean_recall = float(np.mean(list(recall.values()))) if recall else 0.0
    if mean_recall < _LSH_MIN_RECALL:
        raise AssertionError(
            f"ann_lsh_topk mean recall@{_ANN_K} = {mean_recall:.3f} < "
            f"{_LSH_MIN_RECALL} vs brute-force truth — LSH parameters "
            f"(tables={_LSH_TABLES}, planes={_LSH_PLANES}, "
            f"multiprobe={_LSH_MULTIPROBE}) are mis-tuned for this corpus"
        )
    return pa.table(
        {
            "query_id": pa.array([int(r["query_id"]) for r in lsh_t], pa.int64()),
            "rank": pa.array([int(r["rank"]) for r in lsh_t], pa.int64()),
            "neighbor_id": pa.array([int(r["neighbor_id"]) for r in lsh_t], pa.int64()),
            "recall10": pa.array(
                [recall.get(int(r["query_id"]), 0.0) for r in lsh_t], pa.float64()
            ),
        }
    )


# ===========================================================================
# Embedding near-dup pairs: LSH candidates + exact cosine verify (default)
# ===========================================================================


def _near_dup_lsh_sql() -> str:
    """Oracle for the DEFAULT near_dup_embedding plan: the same integer
    plane buckets as ann_lsh_topk, pairs colliding within Hamming ≤
    _LSH_MULTIPROBE in ANY table, exact cosine verify on candidates.  The
    candidate rule is mirrored on both sides, so parity is structural at
    every scale — including where the LSH recall floor is < 1."""
    return f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {_LSH_QSCALE}) AS BIGINT)) AS q,
             CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings
    ),
    buck AS ({_lsh_buckets_sql()}),
    cand AS (
      SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
      FROM buck a JOIN buck b
        ON b.table_id = a.table_id
       AND bit_count(xor(a.bucket, b.bucket)) <= {_LSH_MULTIPROBE}
      WHERE a.vec_id < b.vec_id
    )
    SELECT c.vec_a, c.vec_b
    FROM cand c
    JOIN emb ea ON ea.vec_id = c.vec_a
    JOIN emb eb ON eb.vec_id = c.vec_b
    WHERE list_cosine_similarity(ea.e, eb.e) >= {_COS_MIN}
    """


@op("near_dup_embedding", _near_dup_lsh_sql())
def near_dup_embedding(sf_dir: str, exact_scan: bool = False):
    """Embedding-cosine near-dup pairs (cos ≥ 0.4): LSH candidate
    generation + exact float64 cosine verify on the candidates only
    (VERDICT r3 #4 — the scale-safe default; the O(B²) all-pairs kernel
    survives behind ``exact_scan=True`` as the A/B recall reference).

    Candidate rule: two vectors are candidates iff their integer
    hyperplane buckets (ann_lsh_topk's tables/planes, exact int64 dots)
    are within Hamming ≤ 2 in ANY of the 4 tables.  The engine
    realizes it as bucket-collision after radius-1 probe expansion (a
    vector is emitted under its own bucket and each 1-bit flip; two
    buckets at distance ≤ 2 always share an expanded key), which is
    EXACTLY the xor/bit_count join the oracle runs — so engine and oracle
    agree structurally at every scale.  Measured recall vs the exact scan:
    59/59 true pairs at sf0.01, 916/920 at sf0.1 (the testdata is
    near-uniform — adversarial for LSH; on a clustered real-dup corpus the
    same rule prunes orders of magnitude harder at recall ~1).

    Scale shape — ADAPTIVE (sf1 stress finding): a constant-size occupancy
    pre-pass (≤ tables·2^planes counters) computes the EXACT candidate-pair
    count from the bucket adjacency before any pair is emitted.  Where the
    rule prunes (clustered corpora: est_pairs « n²), the linear LSH-first
    plan runs: expansion emits (planes+1)·tables bounded-int rows per
    vector; pair emission is the same fold-bucketed map_groups as
    dedup_minhash_lsh; dedup + the two verify joins are util.joins
    (hash shuffles once the vectors exceed the broadcast cap); verify loads
    only candidate rows' vectors.  Where it does NOT prune (near-uniform data: candidates a
    constant fraction of all pairs, quadratic in n because the bucket space
    is FIXED), the gate flips to verify-first — a blocked exact-cosine scan
    with the candidate rule as a post-filter on threshold survivors — which
    computes the identical output set with zero pair materialization (at
    20k vectors: 905M candidate rows avoided; >1 h + 17 GB spill → ~1 s).

    Parity caveat (unchanged from the exact variant): engine
    normalize-then-dot vs oracle dot/(|a||b|) differ in the last ulp; the
    testdata margin at the 0.4 threshold is ≥ 1e-5.
    """
    if exact_scan:
        return _near_dup_embedding_scan(sf_dir)

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # ---- occupancy gate (sf1 stress finding): with FIXED 2^planes buckets
    # per table, the Hamming ≤ r candidate rule admits a constant FRACTION
    # of all pairs on near-uniform data, so LSH-first pair emission grows
    # quadratically with corpus size (20k vectors → ~905M candidate rows).
    # Count (table, bucket) occupancy — ≤ tables·2^planes keys, constant in
    # corpus size — and compute the EXACT candidate-pair count from the
    # bucket adjacency; above the cutoff, run the verify-first plan
    # (identical output set, zero candidate materialization).
    _OCC_SCHEMA = pa.schema(
        [("table_id", pa.int64()), ("bucket", pa.int64()), ("cnt", pa.int64())]
    )

    def occ_partial(t: pa.Table) -> pa.Table:
        q = _quantize(_embedding_matrix(t))
        tids, bks, cnts = [], [], []
        for tb in range(_LSH_TABLES):
            u, c = np.unique(_bucket_of(q, tb), return_counts=True)
            tids.append(np.full(u.size, tb, dtype=np.int64))
            bks.append(u.astype(np.int64))
            cnts.append(c.astype(np.int64))
        return pa.table(
            {
                "table_id": pa.array(np.concatenate(tids), pa.int64()),
                "bucket": pa.array(np.concatenate(bks), pa.int64()),
                "cnt": pa.array(np.concatenate(cnts), pa.int64()),
            },
            schema=_OCC_SCHEMA,
        )

    occ = (
        emb.map_batches(occ_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["table_id", "bucket"])
        .sum("cnt")
        .take_all()  # ≤ tables · 2^planes rows — constant in corpus size
    )
    nb = 1 << _LSH_PLANES
    counts = np.zeros((_LSH_TABLES, nb), dtype=np.float64)
    for r in occ:
        counts[int(r["table_id"]), int(r["bucket"])] = float(r["sum(cnt)"])
    bb = np.arange(nb)
    adj = (_POP8[(bb[:, None] ^ bb[None, :]).astype(np.uint8)] <= _LSH_MULTIPROBE
           ).astype(np.float64)
    est_pairs = sum(
        (counts[tb] @ adj @ counts[tb] - counts[tb].sum()) / 2.0
        for tb in range(_LSH_TABLES)
    )
    n_vec = counts[0].sum()
    if est_pairs > _CAND_PAIR_CUTOFF and est_pairs > (n_vec * n_vec) / 8.0:
        return _near_dup_verify_first(sf_dir)

    def exp_buckets(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = _quantize(_embedding_matrix(t))
        vids, tids, bks = [], [], []
        for tb in range(_LSH_TABLES):
            b = _bucket_of(q, tb)
            probes = [b] + [b ^ (1 << p) for p in range(_LSH_PLANES)]
            bks.append(np.concatenate(probes))
            vids.append(np.tile(ids, _LSH_PLANES + 1))
            tids.append(
                np.full(ids.size * (_LSH_PLANES + 1), tb, dtype=np.int64)
            )
        return pa.table(
            {
                "vec_id": pa.array(np.concatenate(vids), pa.int64()),
                "table_id": pa.array(np.concatenate(tids), pa.int64()),
                "bucket": pa.array(np.concatenate(bks), pa.int64()),
            }
        )

    exp = emb.map_batches(
        exp_buckets, batch_format="pyarrow", zero_copy_batch=True
    )
    folded = exp.map_batches(
        _with_fold(["table_id", "bucket"], _fold_count()),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # no df-cap here: dropping a hot bucket would silently lose PAIRS (the
    # op's output unit), not just inflate a candidate set — degenerate
    # buckets cost work, never correctness
    pairs = folded.groupby("fold").map_groups(
        lambda g: _emit_pairs_bucket(
            g, ["table_id", "bucket"], id_col="vec_id", cap=1 << 62
        ),
        batch_format="pyarrow",
    )
    cand = (
        pairs.groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
        .rename_columns({"doc_a": "vec_a", "doc_b": "vec_b"})
    )

    # normalized vectors packed as fixed_size_binary: acero (every util.join path)
    # rejects list<double> payload columns, and the fixed-width buffer
    # decodes back to a (n, dim) matrix with one zero-copy frombuffer
    dim = _LSH_DIM
    _BIN = pa.binary(dim * 8)

    def prep(t: pa.Table) -> pa.Table:
        m = np.ascontiguousarray(_normalize(_embedding_matrix(t)))
        arr = pa.Array.from_buffers(_BIN, t.num_rows, [None, pa.py_buffer(m.tobytes())])
        return pa.table(
            {"vec_id": pc.cast(t["vec_id"], pa.int64()), "embedding": arr}
        )

    def _bin_mat(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        raw = np.frombuffer(col.buffers()[1], dtype=np.float64)
        return raw[col.offset * dim : (col.offset + len(col)) * dim].reshape(-1, dim)

    norm = emb.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    j1 = join(
        cand, norm, ("vec_a",), "inner",
        pa.schema(
            [("vec_a", pa.int64()), ("vec_b", pa.int64()), ("embedding", _BIN)]
        ),
        right_on=("vec_id",),
    ).rename_columns({"embedding": "emb_a"})
    j2 = join(
        j1, norm, ("vec_b",), "inner",
        pa.schema(
            [("vec_a", pa.int64()), ("vec_b", pa.int64()),
             ("emb_a", _BIN), ("embedding", _BIN)]
        ),
        right_on=("vec_id",),
    )

    _OUT_SCHEMA = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())])

    def verify(t: pa.Table) -> pa.Table:
        cos = (_bin_mat(t["emb_a"]) * _bin_mat(t["embedding"])).sum(axis=1)
        return (
            t.select(["vec_a", "vec_b"])
            .filter(pa.array(cos >= _COS_MIN))
            .cast(_OUT_SCHEMA)
        )

    return j2.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# IVF-bucketed ANN: the clustered-partition scale path
# ===========================================================================

# Parameters tuned on the testdata distribution — which is ADVERSARIAL for
# any partition-pruning ANN: the synthetic embeddings are near-uniform (a
# query's true top-10 sits at cos ≈ 0.27), so neighbors spread uniformly
# over lists and recall ≈ the scanned fraction (measured 0.69 at P/C = 1/2
# on sf0.01).  On a real embedding corpus (clustered; neighbors at
# cos ≥ 0.7) IVF prunes 10-100× at the same recall — that, not the uniform
# floor, is the production operating point.
_IVF_C = vx.IVF_C          # number of inverted lists (centroids)
_IVF_PROBE = vx.IVF_PROBE  # lists probed per query
_IVF_MIN_RECALL = 0.6  # asserted vs brute-force truth (verify=True path)

# Centroids are a deterministic data sample: the _IVF_C embedding rows with
# vec_id in [NQ, NQ+C) — a fixed, SQL-replayable rule (k-means would refine
# them but makes the oracle impossible; at scale swap in any offline
# centroid table and keep the same assignment/probe/rerank dataflow).
# Assignment/probe use EXACT int64 dot products over floor-quantized
# embeddings (same lattice as ann_lsh_topk: q = floor(x·2^20), |dot| <
# 64·2^42 « 2^63), so buckets and probe sets replay exactly in SQL.


_ivf_assign = vx.ivf_assign


_ivf_sql = vx.ivf_sql


@op("ann_ivf_topk", _ivf_sql())
def ann_ivf_topk(sf_dir: str, verify: bool = False):
    """IVF-bucketed ANN (clustered-partition scale path, complementing
    ann_lsh_topk's hashed-partition one): every vector is assigned to its
    nearest of _IVF_C centroid lists; a query scores only the _IVF_PROBE
    lists nearest to it (Sivic & Zisserman ICCV 2003 "Video Google"
    inverted-file retrieval; the IVF stage of Jégou et al. TPAMI 2011).

    Assignment and probing are integer-exact (floor-quantized embeddings ×
    integer centroid dots) so the DuckDB oracle replays the exact lists,
    probe sets and candidates in SQL — deterministic, value-hash-checkable
    output like every exact op, even though the ALGORITHM is approximate.

    Scale shape: centroid matrix (C×dim) is the only broadcast; one
    stateless map assigns lists and emits per-query partial top-k rows for
    probed candidates (only nq·k rows per batch leave); the final merge
    groups by query.  At real scale the same dataflow reads centroids from
    an offline k-means table and writes list-partitioned parquet
    (partition_cols=[cid]) so queries prune at the read — the brief's
    "IVF variant as the scale path".

    ``verify=True`` computes recall@k vs the brute-force truth and raises
    below _IVF_MIN_RECALL (0.6 on the near-uniform testdata, where recall
    ≈ scanned fraction = P/C; see the parameter comment)."""
    import ray

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # centroids: bounded C-row sample, deterministic order (vec_id asc)
    cent_rows = emb.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["vec_id"], _ANN_NQ),
                pc.less(t["vec_id"], _ANN_NQ + _IVF_C),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    cent_rows.sort(key=lambda r: int(r["vec_id"]))
    if len(cent_rows) != _IVF_C:
        raise ValueError(
            f"ann_ivf_topk: expected {_IVF_C} centroid rows "
            f"(vec_id in [{_ANN_NQ}, {_ANN_NQ + _IVF_C})), got {len(cent_rows)}"
        )
    cent_raw = np.array([r["embedding"] for r in cent_rows], dtype=np.float64)
    if cent_raw.shape[1] != _LSH_DIM:
        raise ValueError(
            f"ann_ivf_topk: embedding dim {cent_raw.shape[1]} != configured "
            f"{_LSH_DIM} (the SQL-twin dot unroll is dim-specific)"
        )
    cent_q = _quantize(cent_raw)

    # queries: bounded nq-row sample; probe sets from the same integer dots
    q_rows = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], _ANN_NQ)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    q_ids = np.array([r["vec_id"] for r in q_rows], dtype=np.int64)
    q_raw = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    q_mat = _normalize(q_raw)
    q_dots = _quantize(q_raw) @ cent_q.T  # (nq, C) exact int64
    # top-P lists per query; ties → smaller cid (stable argsort on -d;
    # SQL twin orders d DESC, cid ASC)
    probe = np.argsort(-q_dots, axis=1, kind="stable")[:, :_IVF_PROBE]
    probe_masks = np.zeros((q_ids.size, _IVF_C), dtype=bool)
    for r in range(q_ids.size):
        probe_masks[r, probe[r]] = True
    ref = ray.put((q_ids, q_mat, cent_q, probe_masks))

    @tk.partial_topk(_ANN_K)
    def partial(batch: pa.Table):
        qi, qm, cq, pm = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        b_raw = _embedding_matrix(batch)
        assign = _ivf_assign(_quantize(b_raw), cq)
        sims = qm @ _normalize(b_raw).T  # (nq, batch) float64
        r, c = np.nonzero(pm[:, assign] & (b_ids != qi[:, None]))
        return qi[r], b_ids[c], sims[r, c]

    partials = emb.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
    ivf = tk.merge_topk(partials, _ANN_K)
    if not verify:
        return ivf

    # ---- recall spot-check vs the exact brute-force ranking (bounded) ------
    ivf_t = ivf.take_all()
    truth_t = ann_topk_cosine(sf_dir).take_all()
    truth_sets: dict[int, set[int]] = {}
    for r in truth_t:
        truth_sets.setdefault(int(r["query_id"]), set()).add(int(r["neighbor_id"]))
    got_sets: dict[int, set[int]] = {}
    for r in ivf_t:
        got_sets.setdefault(int(r["query_id"]), set()).add(int(r["neighbor_id"]))
    recall = {
        q: len(got_sets.get(q, set()) & t) / max(len(t), 1)
        for q, t in truth_sets.items()
    }
    mean_recall = float(np.mean(list(recall.values()))) if recall else 0.0
    if mean_recall < _IVF_MIN_RECALL:
        raise AssertionError(
            f"ann_ivf_topk mean recall@{_ANN_K} = {mean_recall:.3f} < "
            f"{_IVF_MIN_RECALL} vs brute-force truth — IVF parameters "
            f"(C={_IVF_C}, probe={_IVF_PROBE}) are mis-tuned for this corpus"
        )
    return pa.table(
        {
            "query_id": pa.array([int(r["query_id"]) for r in ivf_t], pa.int64()),
            "rank": pa.array([int(r["rank"]) for r in ivf_t], pa.int64()),
            "neighbor_id": pa.array([int(r["neighbor_id"]) for r in ivf_t], pa.int64()),
            "recall10": pa.array(
                [recall.get(int(r["query_id"]), 0.0) for r in ivf_t], pa.float64()
            ),
        }
    )


# ===========================================================================
# Benchmark contamination check (shared-shingle overlap vs a held-out set)
# ===========================================================================

_CONTAM_BENCH_DOCS = 5  # benchmark set = doc_id < this (stand-in for an
                        # eval-set table; swap the filter for a real one)


@op(
    "benchmark_contamination",
    f"""
    WITH {_SQL_SHINGLE_CTES},
    bench AS (
      SELECT DISTINCT h31 FROM hs WHERE doc_id < {_CONTAM_BENCH_DOCS}
    )
    SELECT hs.doc_id, count(*)::BIGINT AS n_shared
    FROM hs JOIN bench USING (h31)
    WHERE hs.doc_id >= {_CONTAM_BENCH_DOCS}
    GROUP BY hs.doc_id
    """,
)
def benchmark_contamination(sf_dir: str):
    """Decontamination scan (the "did eval data leak into training data"
    check every LLM pipeline runs): for each corpus document, how many of
    its distinct 3-token shingles also occur in a benchmark set (here:
    doc_id < {bench}); only overlapping documents are emitted.

    Scale shape: the benchmark's shingle-hash set is the ONLY broadcast
    (bounded by the benchmark size, never the corpus); the corpus-side
    scan is one stateless map pass — per-batch distinct (doc, shingle)
    pairs via a fused int64 key, membership via np.isin against the
    sorted benchmark array, per-doc counts via np.add.at.  No shuffle at
    all: each document's shingles live in its own row."""
    import ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    out_schema = pa.schema([("doc_id", pa.int64()), ("n_shared", pa.int64())])

    def doc_shingle_h31(batch: pa.Table):
        """Per-doc DISTINCT shingle h31s: (doc_row_idx, h31) both np.int64.
        Distinctness is per batch row == per document (a doc never spans
        rows), via one np.unique over the fused (row << 31 | h31) key."""
        sh, parent = dd.token_shingles(batch["text"])
        h31 = dd.hash_strings(sh) % dd.P31
        fused = np.unique((parent.astype(np.int64) << 31) | h31)
        return fused >> 31, fused & ((1 << 31) - 1)

    def bench_partial(batch: pa.Table) -> pa.Table:
        _, h31 = doc_shingle_h31(batch)
        return pa.table({"h31": pa.array(np.unique(h31), pa.int64())})

    # benchmark extraction prunes at the READ (parquet predicate pushdown):
    # only the benchmark rows' row groups leave storage — the corpus is not
    # scanned twice just to find 5 documents
    bench_rows = read_table(
        sf_dir, "documents", columns=["doc_id", "text"],
        filter=pc.field("doc_id") < _CONTAM_BENCH_DOCS,
    ).map_batches(
        bench_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # bounded by the benchmark set's shingle vocabulary
    bench_set = np.unique(np.array([r["h31"] for r in bench_rows], dtype=np.int64))
    ref = ray.put(bench_set)

    def scan(batch: pa.Table) -> pa.Table:
        bs = ray.get(ref)
        t = batch.filter(pc.greater_equal(batch["doc_id"], _CONTAM_BENCH_DOCS))
        if bs.size == 0:
            return out_schema.empty_table()
        rows, h31 = doc_shingle_h31(t)
        hit = np.isin(h31, bs)  # bs sorted → binary-search path
        cnt = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(cnt, rows[hit], 1)
        keep = np.flatnonzero(cnt > 0)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"].take(pa.array(keep)), pa.int64()),
                "n_shared": pa.array(cnt[keep], pa.int64()),
            },
            schema=out_schema,
        )

    return docs.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Near-dup survivors (the composed dedup deliverable)
# ===========================================================================


def _survivors_sql() -> str:
    return f"""
    SELECT cluster_id AS doc_id, count(*)::BIGINT AS cluster_size
    FROM ( {_cluster_sql()} ) GROUP BY 1
    """


@op("near_dup_survivors", _survivors_sql())
def near_dup_survivors(sf_dir: str):
    """The corpus-dedup deliverable: one representative document per
    near-dup cluster (the MIN doc id — dedup_cluster's label), with the
    number of documents it stands for.  Keep-set = these doc_ids; a
    training pipeline joins it back as a semi-join filter.

    Composition of already-scaled parts: dedup_cluster's distributed
    label propagation → one groupby(count) over (doc, cluster) rows —
    no new shuffle shape, and the output is |survivors| rows.
    """
    clusters = dedup_cluster(sf_dir)
    agg = clusters.groupby("cluster_id").count()

    def rn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(t["cluster_id"], pa.int64()),
                "cluster_size": pc.cast(t["count()"], pa.int64()),
            }
        )

    return agg.map_batches(rn, batch_format="pyarrow", zero_copy_batch=True)


def _family_sizes_sql() -> str:
    return f"""
    SELECT cluster_size, count(*)::BIGINT AS n_clusters
    FROM ( {_survivors_sql()} ) GROUP BY 1 ORDER BY 1
    """


@op("dedup_family_sizes", _family_sizes_sql())
def dedup_family_sizes(sf_dir: str):
    """Duplicate-family size distribution: how many near-dup clusters have
    1, 2, 3, … members — the dedup health report a data engineer reads
    before trusting a keep-set (a fat tail means the similarity threshold
    or the shingle rule is wrong).

    Composition: near_dup_survivors' (representative, cluster_size) rows →
    one histogram groupby; the output is bounded by the largest family
    size, and nothing new reaches the driver."""
    surv = near_dup_survivors(sf_dir)
    agg = surv.groupby("cluster_size").count()

    def rn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster_size": pc.cast(t["cluster_size"], pa.int64()),
                "n_clusters": pc.cast(t["count()"], pa.int64()),
            }
        )

    out = agg.map_batches(rn, batch_format="pyarrow", zero_copy_batch=True)
    return out.sort("cluster_size")


# ===========================================================================
# clean_corpus — the full dedup+quality decision per document
# ===========================================================================

_CC_MIN_TOKENS = 20  # same integer-exact gate as clean_chunks
_CC_DIGIT_NUM = 3


def _clean_corpus_sql() -> str:
    toks = _TOKS
    return f"""
    WITH
    ex AS (
      SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text)) AS first_id
      FROM documents
    ),
    cl AS ( {_cluster_sql()} ),
    q AS (
      SELECT doc_id,
             (len({toks}) >= {_CC_MIN_TOKENS}
              AND 10 * (length(text)
                        - length(regexp_replace(text, '[0-9]', '', 'g')))
                    <= {_CC_DIGIT_NUM} * length(text)) AS ok
      FROM documents
    )
    SELECT d.doc_id,
           CASE WHEN ex.first_id <> d.doc_id THEN 'exact_dup'
                WHEN cl.cluster_id <> d.doc_id THEN 'near_dup'
                WHEN NOT q.ok THEN 'low_quality'
                ELSE 'kept' END AS reason,
           CASE WHEN ex.first_id = d.doc_id AND cl.cluster_id = d.doc_id
                     AND q.ok THEN 1 ELSE 0 END::BIGINT AS keep
    FROM documents d
    JOIN ex ON ex.doc_id = d.doc_id
    JOIN cl ON cl.doc_id = d.doc_id
    JOIN q ON q.doc_id = d.doc_id
    """


@op("clean_corpus", _clean_corpus_sql())
def clean_corpus(sf_dir: str):
    """The corpus-hygiene decision table a training pipeline materializes
    before tokenizing anything: every document labeled keep/drop with a
    reason, precedence exact_dup > near_dup > low_quality > kept.

    Composition of already-scaled parts, all decisions co-joined on
    doc_id: exact firsts are (md5 → min id) partial aggregates joined
    back on the hash (the dedup_exact shape); near-dup representatives
    come from dedup_cluster's distributed label propagation; the quality
    gate is clean_chunks' integer-exact vectorized predicates fused into
    the same pass that hashes.  Two util.joins (a side under the broadcast
    cap is broadcast, else hash-joined); nothing corpus-sized reaches the
    driver.
    """
    from ray.data.aggregate import Min

    from ..functions.text import flat_tokens

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    _GATED = pa.schema(
        [("doc_id", pa.int64()), ("h", pa.string()), ("ok", pa.int64())]
    )

    def hash_and_gate(batch: pa.Table) -> pa.Table:
        import hashlib as _h

        _, parent = flat_tokens(batch["text"])
        toks_per_row = np.bincount(parent, minlength=batch.num_rows).astype(
            np.int64
        )
        n_chars = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        n_digits = pc.cast(
            pc.count_substring_regex(batch["text"], "[0-9]"), pa.int64()
        )
        ok = pc.and_(
            pc.greater_equal(pa.array(toks_per_row), _CC_MIN_TOKENS),
            pc.less_equal(
                pc.multiply(n_digits, 10), pc.multiply(n_chars, _CC_DIGIT_NUM)
            ),
        )
        h = pa.array(
            [
                _h.md5((s or "").encode()).hexdigest()
                for s in batch["text"].to_pylist()
            ]
        )
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "h": h,
                "ok": pc.cast(ok, pa.int64()),
            },
            schema=_GATED,
        )

    gated = docs.map_batches(
        hash_and_gate, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # two consumers below — hash/tokenize once

    def min_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"h": t["h"], "doc_id": t["doc_id"]})
            .group_by("h")
            .aggregate([("doc_id", "min")])
        )
        return g.rename_columns(["h", "doc_id"])

    firsts = (
        gated.map_batches(min_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Min("doc_id"))
    )
    firsts = firsts.map_batches(
        lambda t: t.rename_columns(["h2", "first_id"]), batch_format="pyarrow"
    )

    with_first = join(
        gated, firsts, ("h",), "inner",
        pa.schema(
            [("doc_id", pa.int64()), ("h", pa.string()), ("ok", pa.int64()),
             ("h2", pa.string()), ("first_id", pa.int64())]
        ),
        right_on=("h2",),
    ).select_columns(["doc_id", "ok", "first_id"])

    labels = dedup_cluster(sf_dir).map_batches(
        lambda t: t.rename_columns(["doc_id2", "cluster_id"]),
        batch_format="pyarrow",
    )
    full = join(
        with_first, labels, ("doc_id",), "inner",
        pa.schema(
            [("doc_id", pa.int64()), ("ok", pa.int64()), ("first_id", pa.int64()),
             ("doc_id2", pa.int64()), ("cluster_id", pa.int64())]
        ),
        right_on=("doc_id2",),
    )

    _OUT = pa.schema(
        [("doc_id", pa.int64()), ("reason", pa.string()), ("keep", pa.int64())]
    )

    def decide(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        first = t["first_id"].to_numpy(zero_copy_only=False)
        clus = t["cluster_id"].to_numpy(zero_copy_only=False)
        ok = t["ok"].to_numpy(zero_copy_only=False).astype(bool)
        reason = np.full(did.size, "kept", dtype=object)
        reason[~ok] = "low_quality"
        reason[clus != did] = "near_dup"
        reason[first != did] = "exact_dup"
        keep = (first == did) & (clus == did) & ok
        return pa.table(
            {
                "doc_id": did,
                "reason": pa.array(reason, pa.string()),
                "keep": keep.astype(np.int64),
            },
            schema=_OUT,
        )

    return full.map_batches(decide, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Cross-source near-dup leakage (the train/eval contamination report)
# ===========================================================================


def _cross_source_sql() -> str:
    return f"""
    WITH pairs AS ({_jaccard_sql()})
    SELECT p.doc_a, p.doc_b, da.source AS source_a, db.source AS source_b,
           p.jaccard
    FROM pairs p
    JOIN documents da ON da.doc_id = p.doc_a
    JOIN documents db ON db.doc_id = p.doc_b
    WHERE da.source != db.source
    """


@op("cross_source_dup_pairs", _cross_source_sql())
def cross_source_dup_pairs(sf_dir: str):
    """Near-duplicate pairs that SPAN two different sources — the leakage
    report a training-data owner runs before splitting by source (a doc
    near-duplicated across sources contaminates any source-keyed
    train/eval split).  Jaccard is the one exact int/int division, same
    as near_dup_jaccard.

    Scale shape: pair generation is near_dup_jaccard's df-capped inverted
    index unchanged; the source labels attach via two util.joins
    of the (already small, so broadcast) pair set against the (doc_id, source)
    projection; the cross-source filter is one vectorized mask."""
    from .util import drop_empty_blocks

    pairs = near_dup_jaccard(sf_dir)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    _PAIR_SCHEMA = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("inter", pa.int64()),
         ("union_sz", pa.int64()), ("jaccard", pa.float64())]
    )
    _OUT = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("source_a", pa.string()), ("source_b", pa.string()),
         ("jaccard", pa.float64())]
    )

    j1 = join(
        pairs, docs, ("doc_a",), "inner",
        pa.schema(
            list(_PAIR_SCHEMA) + [("source", pa.string())]
        ),
        right_on=("doc_id",),
    )

    def tag_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_a": t["doc_a"], "doc_b": t["doc_b"],
             "jaccard": t["jaccard"], "source_a": t["source"]}
        )

    j1 = j1.map_batches(tag_a, batch_format="pyarrow", zero_copy_batch=True)

    j2 = join(
        j1, docs, ("doc_b",), "inner",
        pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64()),
             ("jaccard", pa.float64()), ("source_a", pa.string()),
             ("source", pa.string())]
        ),
        right_on=("doc_id",),
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["source_a"], t["source"]))
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "source_a": t["source_a"],
                "source_b": t["source"],
                "jaccard": t["jaccard"],
            },
            schema=_OUT,
        )

    # heal: a zero-pair corpus must still present the output columns
    return drop_empty_blocks(
        j2.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True), _OUT
    )


# ===========================================================================
# Filtered vector search (metadata predicate + top-k — the hybrid-search shape)
# ===========================================================================

_FILTER_LABELS = (0, 1, 2, 3, 4)


def _ann_filtered_sql() -> str:
    labels = ", ".join(str(l) for l in _FILTER_LABELS)
    return f"""
    SELECT query_id, rank, neighbor_id FROM (
      SELECT a.vec_id AS query_id, b.vec_id AS neighbor_id,
             row_number() OVER (
               PARTITION BY a.vec_id
               ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                               CAST(b.embedding AS DOUBLE[])) DESC,
                        b.vec_id
             ) AS rank
      FROM embeddings a JOIN embeddings b
        ON a.vec_id != b.vec_id AND b.label IN ({labels})
      WHERE a.vec_id < {_ANN_NQ}
    ) WHERE rank <= {_ANN_K}
    """


@op("ann_topk_filtered", _ann_filtered_sql())
def ann_topk_filtered(sf_dir: str):
    """Filtered vector search: cosine top-k restricted to candidates whose
    metadata passes a predicate (here ``label ∈ {0..4}``) — the hybrid
    filter-plus-ANN shape every vector store serves ("nearest docs
    matching this facet").

    Scale shape: the predicate applies AT THE SCAN (pre-filter, the only
    correct order — post-filtering a top-k can starve it below k), so the
    matmul never sees a rejected candidate; everything downstream is
    ann_topk_cosine's broadcast-queries + per-batch partial top-k +
    bounded per-query merge.  Rank identity is the contract, same ulp
    policy as the unfiltered op."""
    import ray

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    q_ids, q_mat = _query_matrix(emb, _ANN_NQ)
    ref = ray.put((q_ids, q_mat))
    allowed = pa.array(list(_FILTER_LABELS), pa.int64())

    @tk.partial_topk(_ANN_K)
    def partial(batch: pa.Table):
        batch = batch.filter(
            pc.is_in(pc.cast(batch["label"], pa.int64()), value_set=allowed)
        )
        if batch.num_rows == 0:
            return None
        qi, qm = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = qm @ _normalize(_embedding_matrix(batch)).T
        r, c = np.nonzero(b_ids != qi[:, None])
        return qi[r], b_ids[c], sims[r, c]

    partials = emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, _ANN_K)


# ===========================================================================
# dedup_spans — duplicated-substring removal (sub-document exact dedup)
# ===========================================================================
#
# The ExactSubstr shape (Lee et al., "Deduplicating Training Data Makes
# Language Models Better", ACL 2022 §4.1, adapted from suffix-array byte
# spans to token windows): a token is *duplicated* iff it is covered by at
# least one K-token window whose exact text occurs in ≥2 distinct
# documents.  Unlike the doc-level ops above, this removes the repeated
# SPANS (license headers, navigation chrome, templated boilerplate) while
# keeping each document's unique remainder in the corpus.

_SPAN_K = 5


def _dedup_spans_sql() -> str:
    K = _SPAN_K
    return f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    win AS (
      SELECT doc_id, s, {dd.SQL_H60.format(s='gram')} AS gh FROM (
        SELECT doc_id, unnest(range(1, len(t) - {K - 2})) AS s,
               unnest({dd.sql_shingles('t', k=K)}) AS gram
        FROM toks WHERE len(t) >= {K})
    ),
    dup AS (SELECT gh FROM win GROUP BY gh HAVING count(DISTINCT doc_id) >= 2),
    cov AS (
      SELECT DISTINCT doc_id, i FROM (
        SELECT w.doc_id, unnest(range(w.s, w.s + {K})) AS i
        FROM win w JOIN dup USING (gh))
    ),
    tokpos AS (
      SELECT doc_id, unnest(t) AS tok, unnest(range(1, len(t) + 1)) AS i
      FROM toks
    ),
    kept AS (
      SELECT tp.doc_id,
             count(*) FILTER (WHERE c.i IS NULL)::BIGINT AS n_kept,
             coalesce(string_agg(tp.tok, ' ' ORDER BY tp.i)
                      FILTER (WHERE c.i IS NULL), '') AS text_clean
      FROM tokpos tp
      LEFT JOIN cov c ON c.doc_id = tp.doc_id AND c.i = tp.i
      GROUP BY 1
    )
    SELECT t.doc_id, len(t.t)::BIGINT AS n_tokens,
           (len(t.t) - coalesce(k.n_kept, 0))::BIGINT AS n_dup_tokens,
           coalesce(k.text_clean, '') AS text_clean
    FROM toks t LEFT JOIN kept k USING (doc_id)
    """


# windows carry the 60-bit gram HASH, not the string: the df shuffle and
# the dup join move vocabulary-scale rows, and 8-byte keys make both ~3×
# cheaper than ~25-byte gram text — the same md5-int60 rule every other
# dedup op (and its SQL twin) already keys on, so "duplicated" means the
# identical thing on both sides, collisions included
_SPAN_WIN = pa.schema(
    [("doc_id", pa.int64()), ("s", pa.int64()), ("gh", pa.int64())]
)
_SPAN_DFP = pa.schema([("gh", pa.int64()), ("nd", pa.int64())])
# covered positions ride the doc_id join as ONE comma-joined string row —
# acero hash joins reject list<> payload columns, and the string round-trips
# through split_pattern/cast fully vectorized on the other side
_SPAN_COV = pa.schema([("doc_id", pa.int64()), ("cov", pa.string())])
_SPAN_OUT = pa.schema(
    [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
     ("n_dup_tokens", pa.int64()), ("text_clean", pa.string())]
)


def _row_firsts(parent: np.ndarray, n_rows: int) -> np.ndarray:
    """First flat-token index per batch row (parent is sorted ascending;
    rows with no tokens keep 0, which no consumer dereferences)."""
    first = np.zeros(n_rows, dtype=np.int64)
    rows, firsts = np.unique(parent, return_index=True)
    first[rows] = firsts
    return first


def _span_windows(t: pa.Table) -> pa.Table:
    """(doc_id, text) batch → one row per K-token window: (doc_id,
    1-based start, gram text) — token_shingles' windowing with the
    in-document start position retained (the SQL twin's ``s``)."""
    K = _SPAN_K
    flat, parent = flat_tokens(t["text"])
    n = len(flat)
    if n < K:
        return _SPAN_WIN.empty_table()
    valid = parent[: n - K + 1] == parent[K - 1 :]
    joined = flat.slice(0, n - K + 1)
    for j in range(1, K):
        joined = pc.binary_join_element_wise(joined, flat.slice(j, n - K + 1), " ")
    grams = pc.filter(joined, pa.array(valid))
    par = parent[: n - K + 1][valid]
    starts = np.flatnonzero(valid) - _row_firsts(parent, t.num_rows)[par] + 1
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[par]),
            "s": pa.array(starts),
            "gh": pa.array(dd.hash_strings(grams)),
        },
        schema=_SPAN_WIN,
    )


@op("dedup_spans", _dedup_spans_sql())
def dedup_spans(sf_dir: str):
    """Duplicated-substring removal (sub-document exact dedup): every
    token covered by a 5-token window whose exact text appears in ≥2
    distinct documents is dropped; one row per document with its token
    count, duplicated-token count and the cleaned text (kept tokens in
    original order, space-joined).  The span-level complement to
    dedup_exact/dedup_minhash_lsh: repeated boilerplate is removed while
    each document's unique remainder survives.

    Scale shape (100 TB): window df runs as per-batch (gram, doc)-distinct
    partials → one vocabulary-sized groupby (docs live in exactly one
    batch, so batch distincts sum to global df; the hot_ngram_report
    rule).  The duplicated-gram set is corpus-proportional, so it is
    JOINED against the window stream (util.join keyed on gram; broadcast
    only while it is under the cap); hot grams pass through the join without per-group compute.
    Duplicated-window starts fold to ≤1 row per (document, block) in ONE
    vectorized call per block (sort + ListArray offsets + binary_join);
    the per-document merge that follows is O(1)-work string concatenation
    per group.  The final left_outer join streams the corpus once more to
    rebuild the cleaned text fully vectorized (offset-gathered keep mask
    → ListArray → binary_join).
    The corpus is scanned three times (df pre-pass, window join, rebuild)
    rather than any stage materializing it."""
    from ray.data.aggregate import Sum

    K = _SPAN_K
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(t: pa.Table) -> pa.Table:
        w = _span_windows(t)
        per_doc = (
            pa.table({"gh": w["gh"], "doc_id": w["doc_id"]})
            .group_by(["gh", "doc_id"])
            .aggregate([([], "count_all")])
        )
        g = (
            pa.table(
                {
                    "gh": per_doc["gh"],
                    "nd": pa.array(np.ones(per_doc.num_rows, dtype=np.int64)),
                }
            )
            .group_by("gh")
            .aggregate([("nd", "sum")])
        )
        return g.rename_columns(["gh", "nd"]).cast(_SPAN_DFP)

    def only_dup(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.greater_equal(t["sum(nd)"], 2))
        return keep.select(["gh"])

    dupg = (
        docs.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gh")
        .aggregate(Sum("nd"))
        .map_batches(only_dup, batch_format="pyarrow", zero_copy_batch=True)
    )
    # zero-dup regime (no 5-gram in ≥2 docs): no dupwins, no cov rows, and
    # the left_outer join below keeps every doc with its full text
    dupwins = join(
        docs.map_batches(_span_windows, batch_format="pyarrow", zero_copy_batch=True),
        dupg, ("gh",), "inner", _SPAN_WIN,
    )

    def fold_starts(t: pa.Table) -> pa.Table:
        # ONE vectorized call per BLOCK (review finding r4: the previous
        # per-doc map_groups fold was corpus-proportional Python): every
        # duplicated window start of a doc in this block folds to a single
        # comma-joined string via sort + ListArray offsets + binary_join.
        # Starts are globally unique per doc (one row per window), so the
        # cross-block merge is plain concatenation — no dedup needed.
        t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, counts = np.unique(ids, return_counts=True)
        s_str = pc.cast(t["s"], pa.string())
        if isinstance(s_str, pa.ChunkedArray):
            s_str = s_str.combine_chunks()
        offs = np.zeros(uniq.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), s_str)
        return pa.table(
            {"doc_id": pa.array(uniq), "cov": pc.binary_join(lst, ",")},
            schema=_SPAN_COV,
        )

    def merge_covs(g: pa.Table) -> pa.Table:
        # per-group work is O(blocks touching this doc) string joins
        return pa.table(
            {
                "doc_id": pa.array([g["doc_id"][0].as_py()], pa.int64()),
                "cov": pa.array([",".join(g["cov"].to_pylist())], pa.string()),
            },
            schema=_SPAN_COV,
        )

    cov = (
        dupwins.map_batches(fold_starts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .map_groups(merge_covs, batch_format="pyarrow")
    )
    joined = join(
        docs, cov, ("doc_id",), "left_outer",
        pa.schema([("doc_id", pa.int64()), ("text", pa.string()), ("cov", pa.string())]),
    )

    def finalize(t: pa.Table) -> pa.Table:
        n_rows = t.num_rows
        flat, parent = flat_tokens(t["text"])
        n_tok = np.zeros(n_rows, dtype=np.int64)
        np.add.at(n_tok, parent, 1)
        first = _row_firsts(parent, n_rows)
        covcol = pc.fill_null(t["cov"], "")
        if isinstance(covcol, pa.ChunkedArray):
            covcol = covcol.combine_chunks()
        keep = np.ones(len(flat), dtype=bool)
        lists = pc.split_pattern(covcol, ",")
        flat_cov_s = pc.list_flatten(lists)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        cov_parent = np.repeat(np.arange(n_rows, dtype=np.int64), lens.astype(np.int64))
        nonempty = pc.greater(pc.utf8_length(flat_cov_s), 0).to_numpy(
            zero_copy_only=False
        )
        if nonempty.any():
            # cov carries window STARTS; expand each to its K positions
            starts = (
                pc.cast(pc.filter(flat_cov_s, pa.array(nonempty)), pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            pos = (starts[:, None] + np.arange(K, dtype=np.int64)[None, :]).ravel()
            par = np.repeat(cov_parent[nonempty], K)
            keep[first[par] + pos - 1] = False
        n_kept = np.zeros(n_rows, dtype=np.int64)
        np.add.at(n_kept, parent[keep], 1)
        kept_flat = pc.filter(flat, pa.array(keep))
        if isinstance(kept_flat, pa.ChunkedArray):
            kept_flat = kept_flat.combine_chunks()
        offs = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(n_kept, out=offs[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), kept_flat
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pa.array(n_tok),
                "n_dup_tokens": pa.array(n_tok - n_kept),
                "text_clean": pc.binary_join(kept_list, " "),
            },
            schema=_SPAN_OUT,
        )

    return joined.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# distinct_shingles_hll — mergeable cardinality sketch (HyperLogLog)
# ===========================================================================
#
# The dedup-planning statistic ("how many distinct shingles will the LSH
# stage see?") computed WITHOUT the vocabulary shuffle an exact distinct
# needs: HyperLogLog (Flajolet et al., AofA 2007) over the md5-int60
# shingle hashes.  Every piece is integer-exact — register indices and ρ
# come from exact bit arithmetic on the 60-bit hash, the harmonic sum is
# kept as the INTEGER Σ 2^(51−M_r) — so the one float at the end (a
# shared literal constant divided by that integer) is bit-identical in
# the engine and the DuckDB twin.  Raw estimator only (n ≫ 2.5m on all
# testdata, so the small-range correction branch never fires; v_zero is
# reported so that claim is checkable).

_HLL_P = 10
_HLL_M = 1 << _HLL_P            # 1024 registers
_HLL_WBITS = 60 - _HLL_P        # 50-bit suffix scored by ρ
# alpha_m · m² · 2^51 as ONE shared double literal: both sides compute
# estimate = _HLL_A / S with a single division, so the float is bit-equal
_HLL_A = 0.7213 / (1.0 + 1.079 / _HLL_M) * _HLL_M * _HLL_M * 2.0 ** 51


def _hll_chain_sql(keyed: bool) -> str:
    """The HLL register CTE chain (toks → shingles → hashed (reg, w) →
    ρ via the exact pows join → per-register max), optionally keyed by
    ``source`` — ONE definition shared by distinct_shingles_hll and
    source_overlap_hll (review r4 drift containment: the register rule
    must stay bit-identical across every HLL twin)."""
    M, W = _HLL_M, _HLL_WBITS
    pows = ", ".join(f"({k}, {1 << k})" for k in range(W))
    h = dd.SQL_H60.format(s="s")
    key_out = "source, " if keyed else ""
    key_ws = "ws.source, " if keyed else ""
    key_join = "rhos.source = s.source AND " if keyed else ""
    grid = (
        "srcs s CROSS JOIN range(0, {m}) r(i)".format(m=M)
        if keyed
        else "range(0, {m}) r(i)".format(m=M)
    )
    grid_sel = "s.source, " if keyed else ""
    srcs_cte = (
        "srcs AS (SELECT DISTINCT source FROM documents),\n    " if keyed else ""
    )
    return f"""
    toks AS (SELECT doc_id, {key_out}{_TOKS} AS t FROM documents),
    sh AS (
      SELECT {key_out}unnest({dd.sql_shingles('t')}) AS s
      FROM toks WHERE len(t) >= {dd.SHINGLE_K}
    ),
    rw AS (SELECT {key_out}{h} % {M} AS reg, {h} // {M} AS w FROM sh),
    ws AS (SELECT DISTINCT {key_out}reg, w FROM rw),
    pows(k, p) AS (VALUES {pows}),
    rhos AS (
      SELECT {key_ws}ws.reg, {W} - max(pows.k) AS rho
      FROM ws JOIN pows ON pows.p <= ws.w GROUP BY {key_ws}ws.reg, ws.w
      UNION ALL
      SELECT {key_out}reg, {W + 1} AS rho FROM ws WHERE w = 0
    ),
    {srcs_cte}regs AS (
      SELECT {grid_sel}r.i AS reg, COALESCE(max(rhos.rho), 0) AS mr
      FROM {grid} LEFT JOIN rhos ON {key_join}rhos.reg = r.i
      GROUP BY {'1, 2' if keyed else '1'}
    )"""


def _hll_sql() -> str:
    M, W = _HLL_M, _HLL_WBITS
    return f"""
    WITH {_hll_chain_sql(keyed=False)},
    agg AS (
      SELECT count(*) FILTER (WHERE mr = 0)::BIGINT AS v_zero,
             CAST(sum(CAST(1 AS BIGINT) << ({W + 1} - mr)) AS BIGINT)
               AS s_scaled
      FROM regs
    )
    SELECT {M}::BIGINT AS m, v_zero, s_scaled,
           {_HLL_A!r} / CAST(s_scaled AS DOUBLE) AS estimate
    FROM agg
    """


def _hll_reg_rho(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """60-bit hashes → (register index, ρ): the ONE engine register rule
    (twin of _hll_chain_sql's rw/rhos CTEs), shared by both HLL ops.
    frexp exponents are exact for w < 2^53, so ρ is exact integer math."""
    reg = h % _HLL_M
    w = h >> _HLL_P
    rho = np.full(w.size, _HLL_WBITS + 1, dtype=np.int64)
    nz = w > 0
    rho[nz] = _HLL_WBITS - (np.frexp(w[nz].astype(np.float64))[1] - 1)
    return reg, rho


_HLL_PART = pa.schema([("reg", pa.int64()), ("mx", pa.int64())])
_HLL_OUT = pa.schema(
    [("m", pa.int64()), ("v_zero", pa.int64()), ("s_scaled", pa.int64()),
     ("estimate", pa.float64())]
)


@op("distinct_shingles_hll", _hll_sql)
def distinct_shingles_hll(sf_dir: str):
    """HyperLogLog estimate of the corpus's distinct-shingle cardinality
    (m=1024 registers over the md5-int60 shingle hash).  One row:
    (m, zero-register count, the integer harmonic sum Σ 2^(51−M_r), and
    the raw estimate).

    Scale shape — the reason sketches exist at 100 TB: each batch folds
    its shingles into ≤m (register, ρ-max) partial rows with exact bit
    arithmetic (np.frexp exponents are exact for w < 2^53), the only
    shuffle is a ≤m·blocks-row groupby-max, and the driver touches m
    rows.  An exact distinct of the same column shuffles the whole
    shingle vocabulary (cf. near_dup_jaccard's df pre-pass); this op's
    traffic is CONSTANT in corpus size, and registers merge by max, so
    per-shard sketches combine losslessly across a 256-node cluster."""
    from ray.data.aggregate import Max

    M, W = _HLL_M, _HLL_WBITS
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        grams, _ = dd.token_shingles(t["text"])
        reg, rho = _hll_reg_rho(dd.hash_strings(grams))
        regs = np.zeros(M, dtype=np.int64)
        np.maximum.at(regs, reg, rho)
        touched = np.flatnonzero(regs)
        return pa.table(
            {"reg": pa.array(touched), "mx": pa.array(regs[touched])},
            schema=_HLL_PART,
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("reg")
        .aggregate(Max("mx"))
        .take_all()  # ≤ m rows — the whole sketch
    )
    regs = np.zeros(M, dtype=np.int64)
    for r in rows:
        regs[int(r["reg"])] = int(r["max(mx)"])
    v_zero = int((regs == 0).sum())
    s_scaled = int((np.int64(1) << (W + 1 - regs)).sum())
    return pa.table(
        {
            "m": pa.array([M], pa.int64()),
            "v_zero": pa.array([v_zero], pa.int64()),
            "s_scaled": pa.array([s_scaled], pa.int64()),
            "estimate": pa.array([_HLL_A / float(s_scaled)], pa.float64()),
        },
        schema=_HLL_OUT,
    )


# ===========================================================================
# term_counts_cms — mergeable frequency sketch (count-min)
# ===========================================================================
#
# The heavy-hitter companion to the HLL op: a count-min sketch (Cormode &
# Muthukrishnan, J.Alg 2005) of corpus term frequencies — d=4 counter
# rows × w=2048 columns, hashed with the SAME (a·h31+b) mod P31
# permutation constants the minhash kernel publishes to SQL — probed for
# the fixture-query terms and reported next to the exact counts (CMS
# guarantees est ≥ true; the slack IS the collision mass, so the row is
# self-auditing).  All counters are exact int64 sums: both sides agree
# bit-for-bit, collisions included.

_CMS_D = 4            # counter rows (first 4 minhash permutations)
_CMS_W = 2048         # columns per row


def _cms_probe_terms() -> list[str]:
    from ..functions.text import tokenize
    from .ops import DOC_QUERIES

    return sorted({t for q in DOC_QUERIES for t in tokenize(q)})


def _cms_sql() -> str:
    D, W = _CMS_D, _CMS_W
    perms = ", ".join(
        f"({j}, {int(dd.PERM_A[j])}, {int(dd.PERM_B[j])})" for j in range(D)
    )
    probes = ", ".join(f"('{t}')" for t in _cms_probe_terms())
    h_term = dd.SQL_H60.format(s="term")
    return f"""
    WITH toks AS (SELECT unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT term, count(*)::BIGINT AS tf FROM toks GROUP BY 1),
    h AS (SELECT term, tf, {h_term} % {dd.P31} AS h31 FROM tf),
    perms(j, a, b) AS (VALUES {perms}),
    cells AS (
      SELECT p.j, ((h.h31 * p.a + p.b) % {dd.P31}) % {W} AS col,
             CAST(sum(h.tf) AS BIGINT) AS cnt
      FROM h CROSS JOIN perms p GROUP BY 1, 2
    ),
    probes(term) AS (VALUES {probes}),
    ph AS (SELECT term, {h_term} % {dd.P31} AS h31 FROM probes),
    pcells AS (
      SELECT ph.term, p.j, ((ph.h31 * p.a + p.b) % {dd.P31}) % {W} AS col
      FROM ph CROSS JOIN perms p
    ),
    est AS (
      SELECT pc.term, CAST(min(COALESCE(c.cnt, 0)) AS BIGINT) AS est_count
      FROM pcells pc LEFT JOIN cells c ON c.j = pc.j AND c.col = pc.col
      GROUP BY 1
    )
    SELECT e.term, e.est_count,
           COALESCE(t.tf, 0)::BIGINT AS true_count
    FROM est e LEFT JOIN h t USING (term)
    """


_CMS_PART = pa.schema(
    [("j", pa.int64()), ("col", pa.int64()), ("term", pa.string()),
     ("cnt", pa.int64())]
)
_CMS_OUT = pa.schema(
    [("term", pa.string()), ("est_count", pa.int64()),
     ("true_count", pa.int64())]
)


@op("term_counts_cms", _cms_sql)
def term_counts_cms(sf_dir: str):
    """Count-min sketch of corpus term frequencies (d=4 × w=2048 exact
    int64 counters), probed for the fixture-query terms; one row per
    probe term with the sketch estimate and the exact count (est ≥ true
    by construction — the gap is the audited collision mass).

    Scale shape: ONE corpus scan emits both the sketch and the exact
    probe counts — each batch folds its tokens into ≤ d·w (j, col)
    partial cells PLUS ≤ |probes| exact (term, n) rows, disjoint keys in
    one (j, col, term) groupby; total shuffle traffic is bounded by
    d·w + |probes| rows per block regardless of corpus size, and cells
    merge by + (the CMS merge law), so per-shard sketches combine
    losslessly across nodes.  The driver touches ≤ d·w + |probes| rows."""
    from ray.data.aggregate import Sum

    D, W = _CMS_D, _CMS_W
    probes = _cms_probe_terms()
    probe_set = pa.array(probes, pa.string())
    pa_ = dd.PERM_A[:D].astype(np.int64)
    pb_ = dd.PERM_B[:D].astype(np.int64)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        flat, _ = flat_tokens(t["text"])
        g = (
            pa.table({"term": flat})
            .group_by("term")
            .aggregate([([], "count_all")])
        )
        terms = g["term"]
        tfs = pc.cast(g["count_all"], pa.int64()).to_numpy(zero_copy_only=False)
        h31 = dd.hash_strings(terms) % dd.P31
        parts = []
        for j in range(D):
            col = ((h31 * pa_[j] + pb_[j]) % dd.P31) % W
            cell = (
                pa.table({"col": pa.array(col), "cnt": pa.array(tfs)})
                .group_by("col")
                .aggregate([("cnt", "sum")])
            )
            parts.append(
                pa.table(
                    {
                        "j": pa.array(
                            np.full(cell.num_rows, j, dtype=np.int64)
                        ),
                        "col": pc.cast(cell["col"], pa.int64()),
                        "term": pa.array([""] * cell.num_rows, pa.string()),
                        "cnt": pc.cast(cell["cnt_sum"], pa.int64()),
                    },
                    schema=_CMS_PART,
                )
            )
        # exact probe counts ride the same shuffle under disjoint keys
        isp = pc.is_in(terms, value_set=probe_set)
        hit = pa.table({"term": terms, "cnt": pa.array(tfs)}).filter(isp)
        parts.append(
            pa.table(
                {
                    "j": pa.array(np.full(hit.num_rows, -1, dtype=np.int64)),
                    "col": pa.array(np.full(hit.num_rows, -1, dtype=np.int64)),
                    "term": hit["term"],
                    "cnt": pc.cast(hit["cnt"], pa.int64()),
                },
                schema=_CMS_PART,
            )
        )
        return pa.concat_tables(parts)

    rows = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["j", "col", "term"])
        .aggregate(Sum("cnt"))
        .take_all()  # ≤ d·w + |probes| rows — the whole sketch
    )
    counters = np.zeros((D, W), dtype=np.int64)
    true_counts: dict[str, int] = {}
    for r in rows:
        if int(r["j"]) >= 0:
            counters[int(r["j"]), int(r["col"])] = int(r["sum(cnt)"])
        else:
            true_counts[r["term"]] = int(r["sum(cnt)"])

    ph31 = dd.hash_strings(pa.array(probes, pa.string())) % dd.P31
    ests = []
    for i, term in enumerate(probes):
        cols = ((ph31[i] * pa_ + pb_) % dd.P31) % W
        ests.append(int(counters[np.arange(D), cols].min()))
    return pa.table(
        {
            "term": pa.array(probes, pa.string()),
            "est_count": pa.array(ests, pa.int64()),
            "true_count": pa.array(
                [true_counts.get(t, 0) for t in probes], pa.int64()
            ),
        },
        schema=_CMS_OUT,
    )


# ===========================================================================
# source_overlap_hll — sketch ALGEBRA: pairwise source overlap by HLL merge
# ===========================================================================
#
# The data-mix question dedup planning actually asks — "how much of
# source A's shingle universe is also in source B?" — answered WITHOUT
# any pairwise scan: one pass builds per-source HLL registers, and every
# pairwise union is a register-wise max (the HLL merge law, exercised
# here as an op rather than a claim); the intersection estimate is
# inclusion–exclusion over three bit-replayable estimates.

def _overlap_sql() -> str:
    M, W = _HLL_M, _HLL_WBITS
    A = repr(_HLL_A)
    return f"""
    WITH {_hll_chain_sql(keyed=True)},
    ssum AS (
      SELECT source,
             CAST(sum(CAST(1 AS BIGINT) << ({W + 1} - mr)) AS BIGINT) AS sc
      FROM regs GROUP BY 1
    ),
    usum AS (
      SELECT ra.source AS source_a, rb.source AS source_b,
             CAST(sum(CAST(1 AS BIGINT)
                      << ({W + 1} - GREATEST(ra.mr, rb.mr))) AS BIGINT) AS su
      FROM regs ra JOIN regs rb
        ON ra.reg = rb.reg AND ra.source < rb.source
      GROUP BY 1, 2
    )
    SELECT u.source_a, u.source_b,
           {A} / CAST(sa.sc AS DOUBLE) AS est_a,
           {A} / CAST(sb.sc AS DOUBLE) AS est_b,
           {A} / CAST(u.su AS DOUBLE) AS est_union,
           ({A} / CAST(sa.sc AS DOUBLE) + {A} / CAST(sb.sc AS DOUBLE))
             - {A} / CAST(u.su AS DOUBLE) AS est_inter
    FROM usum u
    JOIN ssum sa ON sa.source = u.source_a
    JOIN ssum sb ON sb.source = u.source_b
    """


_OVL_PART = pa.schema(
    [("source", pa.string()), ("reg", pa.int64()), ("mx", pa.int64())]
)


@op("source_overlap_hll", _overlap_sql)
def source_overlap_hll(sf_dir: str):
    """Pairwise shingle-universe overlap between sources, estimated from
    per-source HyperLogLog registers: one row per (source_a < source_b)
    with the two per-source estimates, the union estimate from the
    register-wise max merge, and the inclusion–exclusion intersection
    (raw — small negative values are natural HLL noise on disjoint
    sources).  Every float is a division/sum of the shared literal
    constant over integer harmonic sums, so both sides agree bit-for-bit.

    Scale shape: ONE corpus pass (the only one — each batch emits every
    batch source's register 0 as a sentinel, so even all-short-doc
    sources reach the driver) emits ≤ |sources|·m register partials
    per block, one bounded groupby-max, and the driver does |pairs|·m
    integer max/sum work on a 20×1024 int matrix — the corpus is never
    paired against itself.  Registers merge by max, so per-shard
    sketches of a 256-node run combine into the same answer."""
    from ray.data.aggregate import Max

    M, W = _HLL_M, _HLL_WBITS
    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        src_col = t["source"]
        if isinstance(src_col, pa.ChunkedArray):
            src_col = src_col.combine_chunks()
        uniq_src = pc.unique(src_col)
        grams, parent = dd.token_shingles(t["text"])
        regs = np.zeros((len(uniq_src), M), dtype=np.int64)
        if len(grams):
            sidx = pc.index_in(src_col, value_set=uniq_src).to_numpy(
                zero_copy_only=False
            )[parent]
            reg, rho = _hll_reg_rho(dd.hash_strings(grams))
            np.maximum.at(regs, (sidx, reg), rho)
        # register 0 is ALWAYS emitted per batch source (mx may be 0): a
        # source whose docs all have < K tokens still reaches the driver,
        # removing the separate source-enumeration corpus scan (review r4)
        mask = regs != 0
        mask[:, 0] = True
        si, ri = np.nonzero(mask)
        return pa.table(
            {
                "source": uniq_src.take(pa.array(si)),
                "reg": pa.array(ri.astype(np.int64)),
                "mx": pa.array(regs[si, ri]),
            },
            schema=_OVL_PART,
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "reg"])
        .aggregate(Max("mx"))
        .take_all()  # ≤ |sources|·m rows — all the sketches
    )
    per_src: dict[str, np.ndarray] = {}
    for r in rows:
        # every source reaches here: partials always emit its register 0
        per_src.setdefault(r["source"], np.zeros(M, dtype=np.int64))[
            int(r["reg"])
        ] = int(r["max(mx)"])

    def est(regs: np.ndarray) -> float:
        return _HLL_A / float(int((np.int64(1) << (W + 1 - regs)).sum()))

    names = sorted(per_src)
    out = {k: [] for k in
           ["source_a", "source_b", "est_a", "est_b", "est_union", "est_inter"]}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ea, eb = est(per_src[a]), est(per_src[b])
            eu = est(np.maximum(per_src[a], per_src[b]))
            out["source_a"].append(a)
            out["source_b"].append(b)
            out["est_a"].append(ea)
            out["est_b"].append(eb)
            out["est_union"].append(eu)
            out["est_inter"].append((ea + eb) - eu)
    return pa.table(
        {
            "source_a": pa.array(out["source_a"], pa.string()),
            "source_b": pa.array(out["source_b"], pa.string()),
            "est_a": pa.array(out["est_a"], pa.float64()),
            "est_b": pa.array(out["est_b"], pa.float64()),
            "est_union": pa.array(out["est_union"], pa.float64()),
            "est_inter": pa.array(out["est_inter"], pa.float64()),
        }
    )
