"""ML / training-data-prep extension ops, round 4 (registry side-module).

Four operators that close real gaps a large-scale training-data pipeline
hits after dedup + indexing (ref: n/a — SURVEY.md §0: the reference
checkout is empty; algorithms from the published literature: Lloyd,
"Least squares quantization in PCM", IEEE Trans. IT 1982):

  kmeans_embeddings — genuinely ITERATIVE distributed k-means (Lloyd's):
                      broadcast centroids → per-batch partial sums →
                      K-row groupby → driver update, repeated R rounds.
                      Integer-exact end to end (quantized lattice dots,
                      floor-division centroid means) so a DuckDB oracle
                      replays every round bit-for-bit — the hard part of
                      oracle-checking an iterative algorithm.
  range_join_events — interval/window join (an operator Ray Data has no
                      native form for): each purchase joined to ALL of
                      the same user's views in the preceding hour
                      (count + cents sum), not just the latest (that one
                      is asof_join_events).
  split_by_cluster  — leakage-safe train/valid/test split: the split key
                      is the near-dup CLUSTER label, not the document id,
                      so near-duplicates can never straddle a split
                      boundary (the classic eval-contamination bug).
  balance_sources   — data-mix rebalancing: deterministically downsample
                      every source to the size of the smallest one via a
                      stable per-document hash rule (same md5 rule as
                      hash_sample, so membership is reproducible across
                      runs and shard layouts).

Scale notes: k-means moves only K×(dim+2) partial rows per block per
round (the embeddings stream from parquet each round — nothing is pinned
in memory); the window join shuffles each user's history exactly once and
assumes one user's history fits one group (time-bucket the key at extreme
per-user volume — same caveat as asof_join_events); split_by_cluster
rides dedup_cluster's distributed label propagation and adds one
stateless map; balance_sources broadcasts a source→count dict (tiny) and
filters in one vectorized pass — no shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import dedup as dd
from ..functions import topk as tk
from ..functions import vectors as vx
from ..sources.corpus import read_table
from .ops import _cents, op

# ---------------------------------------------------------------------------
# kmeans_embeddings — iterative Lloyd's k-means, integer-exact both sides
# ---------------------------------------------------------------------------

KMEANS_K = 8        # clusters (distinct from IVF_C=16 so fixtures differ)
KMEANS_ROUNDS = 3   # Lloyd iterations (fixed → SQL-replayable)
_DIM = vx.VEC_DIM


# exact BIGINT floor division, shared with the PQ oracle (vectors.fdiv_sql)
_fdiv_sql = vx.fdiv_sql


def _kmeans_sql() -> str:
    """Replay all R rounds as chained CTEs: integer centroid dots →
    argmax assignment (ties → smallest cid) → floor-div integer centroid
    means (empty clusters keep their previous centroid)."""
    dot = " + ".join(f"e.q[{d + 1}]*c.cq[{d + 1}]" for d in range(_DIM))
    parts = [
        f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {vx.QSCALE}) AS BIGINT)) AS q
      FROM embeddings
    ),
    cent0 AS (SELECT vec_id AS cid, q AS cq FROM emb WHERE vec_id < {KMEANS_K})"""
    ]
    for r in range(1, KMEANS_ROUNDS + 1):
        mean_list = ", ".join(
            _fdiv_sql(f"sum(e.q[{d + 1}])", "count(*)") for d in range(_DIM)
        )
        parts.append(
            f"""
    dots{r} AS (
      SELECT e.vec_id, c.cid, {dot} AS d FROM emb e CROSS JOIN cent{r - 1} c
    ),
    asg{r} AS (
      SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
        FROM dots{r}
      ) WHERE rn = 1
    ),
    upd{r} AS (
      SELECT a.cid, [{mean_list}] AS cq
      FROM asg{r} a JOIN emb e USING (vec_id) GROUP BY a.cid
    ),
    cent{r} AS (
      SELECT c.cid, COALESCE(u.cq, c.cq) AS cq
      FROM cent{r - 1} c LEFT JOIN upd{r} u USING (cid)
    )"""
        )
    R = KMEANS_ROUNDS
    parts.append(
        f"""
    final_dots AS (
      SELECT e.vec_id, c.cid, {dot} AS d FROM emb e CROSS JOIN cent{R} c
    )
    SELECT vec_id, cid AS cluster_id FROM (
      SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
      FROM final_dots
    ) WHERE rn = 1"""
    )
    return ",".join(parts)


_KM_PARTIAL_COLS = [f"s{d:02d}" for d in range(_DIM)]


def _km_partials(cent_q: np.ndarray):
    """Per-batch partial: assign each quantized row to its centroid, emit
    one row per touched centroid with (count, per-dim int sums) — the
    combiner that keeps the per-round shuffle at K rows per block."""

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("cid", pa.int64()), ("n", pa.int64())]
                + [(c, pa.int64()) for c in _KM_PARTIAL_COLS]
            ).empty_table()
        quant = vx.quantize(vx.embedding_matrix(batch))
        asg = vx.ivf_assign(quant, cent_q)
        cids = np.unique(asg)
        counts = np.empty(cids.size, np.int64)
        sums = np.empty((cids.size, _DIM), np.int64)
        for i, c in enumerate(cids):
            m = asg == c
            counts[i] = int(m.sum())
            sums[i] = quant[m].sum(axis=0)
        cols = {"cid": pa.array(cids, pa.int64()), "n": pa.array(counts, pa.int64())}
        for d, name in enumerate(_KM_PARTIAL_COLS):
            cols[name] = pa.array(sums[:, d], pa.int64())
        return pa.table(cols)

    return fn


@op("kmeans_embeddings", _kmeans_sql)
def kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table: K=8
    centroids initialized from the first K quantized vectors, R=3 rounds of (broadcast centroids → per-batch partial sums → K-row
    groupby-sum → driver-side floor-div mean), then a final assignment
    pass.  Everything is integer-exact (int64 lattice dots; floor-division
    means; argmax ties → smallest cid) so the oracle replays each round
    bit-for-bit.  Per round the embeddings STREAM from parquet (nothing
    pinned); only K×(dim+2) partial rows per block shuffle, and the
    driver-side state is the K×dim centroid matrix — constant in corpus
    size, the canonical scalable k-means shape."""
    from ray.data.aggregate import Sum

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def init_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["vec_id"], KMEANS_K))

    seed = emb.map_batches(init_rows, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    seed.sort(key=lambda r: r["vec_id"])
    assert len(seed) == KMEANS_K, f"need vec_ids 0..{KMEANS_K - 1} as seeds"
    cent_q = np.floor(
        np.array([r["embedding"] for r in seed], np.float64) * vx.QSCALE
    ).astype(np.int64)

    aggs = [Sum("n")] + [Sum(c) for c in _KM_PARTIAL_COLS]
    for _ in range(KMEANS_ROUNDS):
        rows = (
            read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
            .map_batches(_km_partials(cent_q), batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("cid")
            .aggregate(*aggs)
            .take_all()  # K rows — the per-round reduce is constant-size
        )
        new = cent_q.copy()  # empty clusters keep their previous centroid
        for r in rows:
            n = int(r["sum(n)"])  # Sum may widen to float64; < 2^43, exact
            s = np.array([r[f"sum({c})"] for c in _KM_PARTIAL_COLS], np.int64)
            new[int(r["cid"])] = np.floor_divide(s, n)
        cent_q = new

    final = cent_q

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("vec_id", pa.int64()), ("cluster_id", pa.int64())]
            ).empty_table()
        quant = vx.quantize(vx.embedding_matrix(batch))
        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "cluster_id": pa.array(vx.ivf_assign(quant, final), pa.int64()),
            }
        )

    return emb.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# range_join_events — interval join: purchase ← all views in preceding hour
# ---------------------------------------------------------------------------

_WINDOW_US = 3_600_000_000  # 1 hour in timestamp[us] ticks

_RANGE_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("n_views", pa.int64()),
        ("views_cents", pa.int64()),
    ]
)


@op(
    "range_join_events",
    """
    SELECT p.event_id, p.user_id, p.ts,
           count(v.ts)::BIGINT AS n_views,
           COALESCE(sum(v.cents), 0)::BIGINT AS views_cents
    FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
    LEFT JOIN (
      SELECT user_id, ts, CAST(round(value * 100) AS BIGINT) AS cents
      FROM events WHERE event_type = 'view'
    ) v ON v.user_id = p.user_id
       AND v.ts <= p.ts AND v.ts > p.ts - INTERVAL 1 HOUR
    GROUP BY 1, 2, 3
    """,
)
def range_join_events(sf_dir: str):
    """Interval (window) join: each 'purchase' matched to ALL of the same
    user's 'view' events in the preceding hour, aggregated to a count and
    a cents sum (purchases with no views keep a zero row — LEFT join
    semantics).  Ray Data has no native range join; composition: tag both
    sides, union, ONE shuffle (groupby user), then a vectorized
    two-searchsorted prefix-sum window inside each group — O(n log n) per
    user, never the O(n²) pairwise expansion.  Partitioning assumption:
    one user's history fits one group (time-bucket the key at extreme
    per-user volume)."""
    ev = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type", "value"]
    )

    def split(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        keep = pc.or_(pc.equal(et, "purchase"), pc.equal(et, "view"))
        t = batch.filter(keep)
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "ts": t["ts"],
                "cents": _cents(t["value"]),
                "is_left": pc.cast(pc.equal(t["event_type"], "purchase"), pa.int8()),
            }
        )

    tagged = ev.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("user_id").map_groups(
        range_merge_group, batch_format="pyarrow"
    )


def range_merge_group(group: pa.Table) -> pa.Table:
    """One user's window join (vectorized): sort the views once, prefix-sum
    their cents, then two searchsorted calls bound each purchase's
    (ts − 1h, ts] window.  Module-level so the kernel is property-testable
    against a brute-force reference without a Ray pipeline around it."""
    if group.num_rows == 0:
        return _RANGE_SCHEMA.empty_table()
    side = group["is_left"].to_numpy(zero_copy_only=False)
    ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cents = group["cents"].to_numpy(zero_copy_only=False)
    lmask = side == 1
    if not lmask.any():
        return _RANGE_SCHEMA.empty_table()
    v_ts, v_cents = ts[~lmask], cents[~lmask]
    order = np.argsort(v_ts, kind="stable")
    v_ts, v_cents = v_ts[order], v_cents[order]
    pref = np.concatenate([[0], np.cumsum(v_cents)])
    l_ts = ts[lmask]
    lo = np.searchsorted(v_ts, l_ts - _WINDOW_US, side="right")
    hi = np.searchsorted(v_ts, l_ts, side="right")
    lidx = pa.array(np.flatnonzero(lmask))
    return pa.table(
        {
            "event_id": group["event_id"].take(lidx),
            "user_id": group["user_id"].take(lidx),
            "ts": group["ts"].take(lidx),
            "n_views": pa.array(hi - lo, pa.int64()),
            "views_cents": pa.array(pref[hi] - pref[lo], pa.int64()),
        },
        schema=_RANGE_SCHEMA,
    )


# ---------------------------------------------------------------------------
# split_by_cluster — leakage-safe train/valid/test split on near-dup labels
# ---------------------------------------------------------------------------

_SPLIT_TRAIN, _SPLIT_VALID = 80, 90  # md5(cluster) % 100 thresholds


def _split_sql() -> str:
    """Deferred (callable) oracle — embeds dedup_cluster's SQL, which
    lives in ops_dedup; importing it at decorator time would be the
    circular import ops.py's bottom-import order forbids."""
    from .ops_dedup import _cluster_sql

    return f"""
    SELECT doc_id, cluster_id,
           CASE WHEN h < {_SPLIT_TRAIN} THEN 'train'
                WHEN h < {_SPLIT_VALID} THEN 'valid'
                ELSE 'test' END AS split
    FROM (
      SELECT doc_id, cluster_id,
             CAST(('0x' || substr(md5(CAST(cluster_id AS VARCHAR)), 1, 15))
                  AS BIGINT) % 100 AS h
      FROM ( {_cluster_sql()} )
    )
    """


@op("split_by_cluster", _split_sql)
def split_by_cluster(sf_dir: str):
    """Leakage-safe dataset split: hash the near-dup CLUSTER label (from
    dedup_cluster's distributed label propagation), not the document id,
    into train/valid/test — so two near-duplicate documents can never
    land on opposite sides of an eval boundary (the contamination bug a
    per-document split has by construction).  Same md5-int60 rule as
    hash_sample: membership is stable across runs, machines and shard
    layouts.  One stateless vectorized map over the cluster labels; all
    the heavy lifting is dedup_cluster's already-distributed pipeline."""
    from .ops_dedup import dedup_cluster

    labels = dedup_cluster(sf_dir)

    def tag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("cluster_id", pa.int64()),
                 ("split", pa.string())]
            ).empty_table()
        h = dd.hash_strings(pc.cast(batch["cluster_id"], pa.string())) % 100
        split = np.where(
            h < _SPLIT_TRAIN, "train", np.where(h < _SPLIT_VALID, "valid", "test")
        )
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "cluster_id": pc.cast(batch["cluster_id"], pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    return labels.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def export_split_corpus(sf_dir: str, out_dir: str) -> dict:
    """Write the corpus hive-partitioned by the leakage-safe split
    (``split=train/ split=valid/ split=test/``) — the artifact a training
    run actually consumes.  One native hash join carries only doc ids and
    labels; the text column rides the documents scan, never the shuffle.
    Returns {split: n_docs} for the CLI.  Partitioned output means a
    failed run resumes by re-writing only the missing partition."""
    from .util import drop_empty_blocks, join_partitions

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "lang", "source"])
    labels = split_by_cluster(sf_dir)
    joined = drop_empty_blocks(
        docs.join(
            labels, join_type="inner",
            num_partitions=join_partitions(docs, labels),
            on=("doc_id",),
        ),
        pa.schema(
            [("doc_id", pa.int64()), ("text", pa.string()),
             ("lang", pa.string()), ("source", pa.string()),
             ("cluster_id", pa.int64()), ("split", pa.string())]
        ),
    )
    joined.write_parquet(out_dir, partition_cols=["split"])
    import pyarrow.dataset as pds

    counts: dict[str, int] = {}
    for frag in pds.dataset(out_dir, partitioning="hive").get_fragments():
        part = str(frag.partition_expression)
        key = "train" if "train" in part else ("valid" if "valid" in part else "test")
        counts[key] = counts.get(key, 0) + frag.count_rows()
    return counts


# ---------------------------------------------------------------------------
# ann_recall_report — the approximate path's ACCURACY as an oracle-checked op
# ---------------------------------------------------------------------------


def _recall_sql() -> str:
    """Deferred oracle composed from the REGISTERED SQL of the two ANN ops
    (ann_topk_cosine = exact truth, ann_ivf_topk = scale path) — read from
    ORACLE_SQL at driver time so the three ops can never drift apart."""
    from .ops import ORACLE_SQL

    def _resolved(name: str) -> str:
        s = ORACLE_SQL[name]
        return s() if callable(s) else s

    return f"""
    SELECT e.query_id,
           count(a.neighbor_id)::BIGINT AS n_hit,
           count(a.neighbor_id) * 1.0 / {dd.ANN_K} AS recall
    FROM ( {_resolved("ann_topk_cosine")} ) e
    LEFT JOIN ( {_resolved("ann_ivf_topk")} ) a
      ON a.query_id = e.query_id AND a.neighbor_id = e.neighbor_id
    GROUP BY 1
    """


@op("ann_recall_report", _recall_sql)
def ann_recall_report(sf_dir: str):
    """Recall@k of the IVF scale path against the brute-force cosine
    truth, per query, as a first-class driver-checked op — the accuracy
    of the approximate index is itself part of the correctness contract,
    not a hidden tuning detail.  Composition of two already-distributed
    ops: tag + union their bounded top-k outputs (2·NQ·K rows total),
    one groupby, a set-intersection count per query.  recall is one
    division of the exact intersection count by K — bit-identical to the
    oracle's count(*) * 1.0 / k."""
    from .ops_dedup import ann_ivf_topk, ann_topk_cosine

    k = dd.ANN_K

    def tag(flag: int):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "query_id": pc.cast(batch["query_id"], pa.int64()),
                    "neighbor_id": pc.cast(batch["neighbor_id"], pa.int64()),
                    "is_exact": pa.array(
                        np.full(batch.num_rows, flag, np.int8), pa.int8()
                    ),
                }
            )

        return fn

    exact = ann_topk_cosine(sf_dir).map_batches(
        tag(1), batch_format="pyarrow", zero_copy_batch=True
    )
    approx = ann_ivf_topk(sf_dir).map_batches(
        tag(0), batch_format="pyarrow", zero_copy_batch=True
    )

    def merge(group: pa.Table) -> pa.Table:
        side = group["is_exact"].to_numpy(zero_copy_only=False)
        nb = group["neighbor_id"].to_numpy(zero_copy_only=False)
        hits = np.intersect1d(nb[side == 1], nb[side == 0]).size
        return pa.table(
            {
                "query_id": group["query_id"].slice(0, 1).cast(pa.int64()),
                "n_hit": pa.array([hits], pa.int64()),
                "recall": pa.array([hits / k], pa.float64()),
            }
        )

    return exact.union(approx).groupby("query_id").map_groups(
        merge, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# balance_sources — deterministic downsample to a balanced source mix
# ---------------------------------------------------------------------------


@op(
    "balance_sources",
    """
    WITH c AS (SELECT source, count(*)::BIGINT AS n FROM documents GROUP BY 1),
    m AS (SELECT min(n) AS m FROM c)
    SELECT d.doc_id, d.source, d.lang
    FROM documents d JOIN c ON c.source = d.source, m
    WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 15)) AS BIGINT)
            % c.n < m.m
    """,
)
def balance_sources(sf_dir: str):
    """Data-mix rebalancing: downsample every source to (approximately)
    the size of the smallest source, deterministically — keep a document
    iff md5(doc_id) % source_count < min_count, so each source keeps a
    ~min/count fraction via a stable per-document rule (reproducible
    across runs; re-crawls keep their membership).  Two phases: a tiny
    source→count groupby (take_all on n_sources rows) broadcast into a
    stateless vectorized filter — no data shuffle at any scale."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "lang"])

    counts = docs.groupby("source").count().take_all()
    n_by_src = {r["source"]: int(r["count()"]) for r in counts}
    m = min(n_by_src.values())

    srcs = sorted(n_by_src)
    src_set = pa.array(srcs, pa.string())
    src_n = np.array([n_by_src[s] for s in srcs], np.int64)

    def pick(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        h = dd.hash_strings(pc.cast(batch["doc_id"], pa.string()))
        idx = pc.index_in(batch["source"], value_set=src_set).to_numpy(
            zero_copy_only=False
        )
        n = src_n[idx]  # vectorized source → count gather
        return batch.filter(pa.array(h % n < m))

    return docs.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# knn_label_vote — k-NN majority-vote classification over the embeddings
# ---------------------------------------------------------------------------


@op(
    "knn_label_vote",
    f"""
    WITH nn AS (
      SELECT query_id, label FROM (
        SELECT a.vec_id AS query_id, b.label::BIGINT AS label,
               row_number() OVER (
                 PARTITION BY a.vec_id
                 ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                                 CAST(b.embedding AS DOUBLE[])) DESC,
                          b.vec_id
               ) AS rank
        FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id
        WHERE a.vec_id < {dd.ANN_NQ}
      ) WHERE rank <= {dd.ANN_K}
    ),
    votes AS (
      SELECT query_id, label, count(*)::BIGINT AS votes
      FROM nn GROUP BY 1, 2
    )
    SELECT query_id, label AS pred_label, votes FROM (
      SELECT query_id, label, votes,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY votes DESC, label) AS rn
      FROM votes
    ) WHERE rn = 1
    """,
)
def knn_label_vote(sf_dir: str):
    """k-NN classification by majority vote: for each fixture query
    vector (vec_id < ANN_NQ), the predicted label is the most frequent
    label among its ANN_K exact cosine nearest neighbors (self excluded);
    vote ties break to the smallest label — the standard weak-labeling /
    label-propagation primitive a training pipeline uses to label
    unlabeled data from a seed set.

    Scale shape: identical to ann_topk_cosine — the query matrix is
    broadcast once via ray.put, each batch computes one float64 matmul
    and emits only its per-query partial top-k (now carrying the int64
    neighbor label), and the per-query merge + vote runs in map_groups
    over ≤ n_batches·k candidate rows per query.  The output is
    ANN_NQ rows; ranks/votes only (no float scores), same rank-identity
    policy as ann_topk_cosine."""
    import ray

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    q_rows = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], dd.ANN_NQ)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded by the query sample (ANN_NQ rows)
    q_ids = np.array([r["vec_id"] for r in q_rows], dtype=np.int64)
    q_mat = vx.normalize(
        np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    )
    ref = ray.put((q_ids, q_mat))

    # the neighbor's label rides along as a carried column
    _PARTIAL = tk.PARTIAL_SCHEMA.append(pa.field("label", pa.int64()))
    _TOP = tk.TOPK_SCHEMA.append(pa.field("label", pa.int64()))

    @tk.partial_topk(dd.ANN_K, _PARTIAL)
    def partial(batch: pa.Table):
        qi, qm = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        b_lab = (
            pc.cast(batch["label"], pa.int64()).to_numpy(zero_copy_only=False)
        )
        sims = qm @ vx.normalize(vx.embedding_matrix(batch)).T
        r, c = np.nonzero(b_ids != qi[:, None])
        return qi[r], b_ids[c], sims[r, c], b_lab[c]

    _OUT = pa.schema(
        [("query_id", pa.int64()), ("pred_label", pa.int64()),
         ("votes", pa.int64())]
    )

    def vote(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _OUT.empty_table()
        top = tk.final_topk(group, dd.ANN_K, _TOP)  # exact top-k merge
        labs, counts = np.unique(top["label"].to_numpy(), return_counts=True)
        # majority; ties -> smallest label (np.unique sorts labels asc,
        # argmax takes the first max — exactly votes DESC, label ASC)
        win = int(np.argmax(counts))
        return pa.table(
            {
                "query_id": pa.array([int(group["query_id"][0].as_py())], pa.int64()),
                "pred_label": pa.array([int(labs[win])], pa.int64()),
                "votes": pa.array([int(counts[win])], pa.int64()),
            },
            schema=_OUT,
        )

    partials = emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("query_id").map_groups(vote, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# label_propagation_knn — semi-supervised weak labeling over the k-NN graph
# ---------------------------------------------------------------------------

LP_SEEDS = 100   # vec_id < LP_SEEDS are the labeled seed set (clamped)
LP_ROUNDS = 2    # synchronous propagation rounds (fixed → SQL-unrollable)


def _lp_sql() -> str:
    """Twin: embed the knn_graph_ivf oracle as the edge set, then unroll
    both synchronous rounds — per-round vote counts, majority with ties to
    the smallest label, seeds clamped; labeled_round via n2 ⟕ n1."""
    graph = vx.ivf_sql(q_pred="TRUE", probe=vx.KNN_GRAPH_PROBE, k=vx.KNN_GRAPH_K)
    return f"""
    WITH edges AS (SELECT query_id, neighbor_id FROM ({graph})),
    seeds AS (
      SELECT vec_id, label::BIGINT AS label FROM embeddings
      WHERE vec_id < {LP_SEEDS}
    ),
    c1 AS (
      SELECT e.query_id AS vec_id, s.label, count(*)::BIGINT AS votes
      FROM edges e JOIN seeds s ON s.vec_id = e.neighbor_id
      WHERE e.query_id >= {LP_SEEDS}
      GROUP BY 1, 2
    ),
    n1 AS (
      SELECT vec_id, label FROM (
        SELECT vec_id, label,
               row_number() OVER (
                 PARTITION BY vec_id ORDER BY votes DESC, label
               ) AS rn
        FROM c1
      ) WHERE rn = 1
    ),
    lab1 AS (SELECT * FROM seeds UNION ALL SELECT * FROM n1),
    c2 AS (
      SELECT e.query_id AS vec_id, l.label, count(*)::BIGINT AS votes
      FROM edges e JOIN lab1 l ON l.vec_id = e.neighbor_id
      WHERE e.query_id >= {LP_SEEDS}
      GROUP BY 1, 2
    ),
    n2 AS (
      SELECT vec_id, label FROM (
        SELECT vec_id, label,
               row_number() OVER (
                 PARTITION BY vec_id ORDER BY votes DESC, label
               ) AS rn
        FROM c2
      ) WHERE rn = 1
    )
    SELECT vec_id, label, CAST(0 AS BIGINT) AS labeled_round FROM seeds
    UNION ALL
    SELECT n2.vec_id, n2.label,
           CAST(CASE WHEN n1.vec_id IS NULL THEN 2 ELSE 1 END AS BIGINT)
             AS labeled_round
    FROM n2 LEFT JOIN n1 ON n1.vec_id = n2.vec_id
    """


@op("label_propagation_knn", _lp_sql)
def label_propagation_knn(sf_dir: str):
    """Semi-supervised label propagation (Zhu & Ghahramani CMU-CALD-02-107)
    over the IVF k-NN graph: vec_id < LP_SEEDS are clamped labeled seeds;
    two synchronous rounds give every other node the majority label of its
    out-neighbors' current labels (ties → smallest label; nodes with no
    labeled neighbor stay unlabeled).  Output: every labeled node with its
    final label and the round it FIRST became labeled (0 = seed) — the
    standard "grow a seed taxonomy over the corpus" weak-labeling step,
    composed end-to-end on the engine's own graph op.

    Scale shape: the graph comes from knn_graph_ivf (no all-pairs stage)
    and is checkpointed once (both rounds read it); each round is one
    linear hash join (edges ⋈ current labels on neighbor) + a groupby
    whose groups are ≤ k rows (one node's out-edges); the labeled_round
    tag is a (vec_id, round) groupby-min, never a driver pass.  Rounds are
    a fixed constant, so the whole plan is a static dataflow."""
    from .ops_embed import knn_graph_ivf  # lazy: op modules never import
    from .util import drop_empty_blocks, join_partitions  # each other at module level

    _LAB = pa.schema([("vec_id", pa.int64()), ("label", pa.int64())])

    edges = (
        knn_graph_ivf(sf_dir)
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["query_id"], LP_SEEDS)).select(
                ["query_id", "neighbor_id"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()  # both rounds read the edge set
    )
    seeds = read_table(sf_dir, "embeddings", columns=["vec_id", "label"]).map_batches(
        lambda t: pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "label": pc.cast(t["label"], pa.int64()),
            },
            schema=_LAB,
        ).filter(pc.less(t["vec_id"], LP_SEEDS)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def majority(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _LAB.empty_table()
        lab = group["label"].to_numpy(zero_copy_only=False)
        labs, counts = np.unique(lab, return_counts=True)
        # np.unique sorts labels asc, argmax takes the first max —
        # exactly votes DESC, label ASC
        w = int(np.argmax(counts))
        return pa.table(
            {
                "vec_id": pa.array([int(group["query_id"][0].as_py())], pa.int64()),
                "label": pa.array([int(labs[w])], pa.int64()),
            },
            schema=_LAB,
        )

    def lp_round(labels):
        joined = edges.join(
            labels,
            join_type="inner",
            num_partitions=join_partitions(edges, labels),
            on=("neighbor_id",),
            right_on=("vec_id",),
        ).map_batches(
            lambda t: t.select(["query_id", "label"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        joined = drop_empty_blocks(
            joined, pa.schema([("query_id", pa.int64()), ("label", pa.int64())])
        )
        return joined.groupby("query_id").map_groups(
            majority, batch_format="pyarrow"
        )

    n1 = lp_round(seeds).materialize()       # (round-1 labels; read twice)
    n2 = lp_round(seeds.union(n1)).materialize()

    def tag(ds, r):
        return ds.map_batches(
            lambda t, _r=r: pa.table(
                {
                    "vec_id": t["vec_id"],
                    "labeled_round": pa.array(
                        np.full(t.num_rows, _r, np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    rounds = (
        tag(n1, 1).union(tag(n2, 2)).groupby("vec_id").min("labeled_round")
    )
    non_seed = drop_empty_blocks(
        n2.join(
            rounds,
            join_type="inner",
            num_partitions=join_partitions(n2, rounds),
            on=("vec_id",),
        ),
        pa.schema(
            [("vec_id", pa.int64()), ("label", pa.int64()),
             ("min(labeled_round)", pa.int64())]
        ),
    ).map_batches(
        lambda t: pa.table(
            {
                "vec_id": t["vec_id"],
                "label": t["label"],
                "labeled_round": pc.cast(t["min(labeled_round)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    seeds0 = seeds.map_batches(
        lambda t: t.append_column(
            "labeled_round", pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return seeds0.union(non_seed)


def _lp_acc_sql() -> str:
    """Twin: embed the propagation oracle, join ground truth, count exact
    matches per round."""
    return f"""
    WITH lp AS (SELECT * FROM ({_lp_sql()}))
    SELECT lp.labeled_round, count(*)::BIGINT AS n_nodes,
           sum(CASE WHEN lp.label = e.label::BIGINT THEN 1 ELSE 0 END)::BIGINT
             AS n_correct
    FROM lp JOIN embeddings e ON e.vec_id = lp.vec_id
    GROUP BY 1
    """


@op("label_propagation_accuracy", _lp_acc_sql)
def label_propagation_accuracy(sf_dir: str):
    """Close the weak-labeling loop: score label_propagation_knn against
    the embeddings table's ground-truth labels, per propagation round —
    the "is the grown taxonomy any good" report a pipeline runs before
    trusting propagated labels downstream.  Integer counts only (callers
    divide; ops.py float-safety policy).

    Plan: one hash join of the propagation output against the
    column-pruned (vec_id, label) truth stream, then per-batch partial
    (round, n, correct) triples into a ≤ 3-row groupby — nothing here is
    corpus-materializing."""
    from .util import drop_empty_blocks, join_partitions

    lp = label_propagation_knn(sf_dir).map_batches(
        lambda t: t.rename_columns(["vec_id", "pred", "labeled_round"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    truth = read_table(sf_dir, "embeddings", columns=["vec_id", "label"])
    joined = drop_empty_blocks(
        lp.join(
            truth,
            join_type="inner",
            num_partitions=join_partitions(lp, truth),
            on=("vec_id",),
        ),
        pa.schema(
            [("vec_id", pa.int64()), ("pred", pa.int64()),
             ("labeled_round", pa.int64()),
             ("label", pa.int64())]
        ),
    )

    _PART = pa.schema(
        [("labeled_round", pa.int64()), ("n_nodes", pa.int64()),
         ("n_correct", pa.int64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PART.empty_table()
        ok = pc.cast(
            pc.equal(t["pred"], pc.cast(t["label"], pa.int64())), pa.int64()
        )
        g = (
            pa.table(
                {
                    "labeled_round": t["labeled_round"],
                    "n_nodes": pa.array(np.ones(t.num_rows, np.int64)),
                    "n_correct": ok,
                }
            )
            .group_by("labeled_round")
            .aggregate([("n_nodes", "sum"), ("n_correct", "sum")])
        )
        return g.rename_columns(["labeled_round", "n_nodes", "n_correct"])

    agg = (
        joined.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("labeled_round")
        .sum(["n_nodes", "n_correct"])
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "labeled_round": t["labeled_round"],
                "n_nodes": pc.cast(t["sum(n_nodes)"], pa.int64()),
                "n_correct": pc.cast(t["sum(n_correct)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
