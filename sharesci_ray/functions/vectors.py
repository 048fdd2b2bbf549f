"""Shared vector-search kernels + the IVF SQL twin.

Leaf module (no imports from the pipelines package): both ops_dedup and
ops_embed need these, and importing between op modules at decorator time
is a circular import — the same containment as the ANN fixture constants
(ANN_K / ANN_NQ) living in functions/dedup.py.

Everything here is integer-exact or float-closed-form so the DuckDB
oracles replay it bit-for-bit: quantization is a lossless power-of-two
floor, centroid assignment an int64 argmax, and the only floats are the
final cosine scores (one dot product of normalized float64 rows).
(ref: n/a — SURVEY.md §0: the reference checkout is empty; IVF per Sivic
& Zisserman ICCV 2003 / Jégou et al. TPAMI 2011.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import ANN_K, ANN_NQ

VEC_DIM = 64        # embeddings table dim (asserted at runtime by the ops)
QSCALE = 1 << 20    # embedding quantization: q = floor(x · 2^20)
QSCALE_LOG2 = QSCALE.bit_length() - 1  # persisted in artifact meta.json


def check_meta_qscale(meta: dict) -> None:
    """Validate a persisted vector artifact's quantization constant against
    this kernel's QSCALE (ADVICE r4: the writers used to hardcode 20, so a
    QSCALE change would silently mis-describe externally built artifacts).
    """
    got = meta.get("qscale_log2", QSCALE_LOG2)
    if int(got) != QSCALE_LOG2:
        raise ValueError(
            f"vector artifact built with qscale_log2={got}, "
            f"kernel expects {QSCALE_LOG2} — rebuild the artifact"
        )
IVF_C = 16          # number of inverted lists (centroids)
IVF_PROBE = 8       # lists probed per query

# knn_graph_ivf (ops_embed) — graph out-degree and probe width; leaf-module
# residents so ops_ml's label propagation can embed the graph SQL without
# importing another op module
KNN_GRAPH_K = 5
KNN_GRAPH_PROBE = 2

# Hyperplane LSH (ops_dedup's ann_lsh_topk + ops_embed's persisted variant).
# Tuned on the testdata distribution, which is ADVERSARIAL for LSH (near-
# uniform embeddings); see ops_dedup for the full parameter rationale.
LSH_TABLES = 4       # independent hash tables (union of candidates)
LSH_PLANES = 5       # 32 buckets per table
LSH_MULTIPROBE = 2   # probe buckets within Hamming 2 of the query bucket

# INTEGER hyperplane weights (fixed seed, embedded verbatim in the oracle
# SQL): bucketing is an exact int64 dot-product sign on BOTH sides —
# q_d = floor(x_d · 2^20) (lossless), w from a frozen RNG rounded to
# integers.  |q| < 2^21 · |w| < 2^22 · 64 terms → |dot| < 2^47, exact in
# int64 everywhere — no float-sign parity hazard at the bucket boundary.
LSH_W = np.floor(
    np.random.RandomState(0xBEEF).standard_normal((LSH_TABLES, LSH_PLANES, VEC_DIM))
    * 1_000_000
).astype(np.int64)


def bucket_of(qmat: np.ndarray, table: int) -> np.ndarray:
    """Hyperplane LSH bucket per QUANTIZED row (int in [0, 2^planes));
    integer matmul — bit p set iff Σ_d q_d·w_pd > 0, exact in int64."""
    proj = qmat @ LSH_W[table].T > 0  # (n, planes) int64 matmul, no overflow
    return (proj.astype(np.int64) * (1 << np.arange(LSH_PLANES))).sum(axis=1)


def lsh_buckets_sql() -> str:
    """SQL UNION replaying every table's integer plane dots → (vec_id,
    table_id, bucket) over the ``emb`` CTE — shared by the LSH oracles."""
    per_table = []
    for t in range(LSH_TABLES):
        bits = []
        for p in range(LSH_PLANES):
            dot = " + ".join(
                f"q[{d + 1}]*({int(LSH_W[t, p, d])})" for d in range(VEC_DIM)
            )
            bits.append(f"(CASE WHEN {dot} > 0 THEN {1 << p} ELSE 0 END)")
        per_table.append(
            f"SELECT vec_id, {t} AS table_id, {' + '.join(bits)} AS bucket FROM emb"
        )
    return " UNION ALL ".join(per_table)


def ann_lsh_sql() -> str:
    """Full oracle: replay quantization, all T·P integer plane dots, bucket
    assembly, Hamming-≤2 multiprobe and exact cosine re-ranking in SQL —
    shared by ann_lsh_topk AND ann_lsh_persisted (identical bucket/probe
    math by construction)."""
    return f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {QSCALE}) AS BIGINT)) AS q,
             CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings
    ),
    buck AS ({lsh_buckets_sql()}),
    qb AS (
      SELECT vec_id AS qid, table_id, bucket FROM buck WHERE vec_id < {ANN_NQ}
    ),
    cand AS (
      SELECT DISTINCT qb.qid, b.vec_id
      FROM qb JOIN buck b
        ON b.table_id = qb.table_id
       AND bit_count(xor(qb.bucket, b.bucket)) <= {LSH_MULTIPROBE}
      WHERE b.vec_id != qb.qid
    ),
    scored AS (
      SELECT c.qid AS query_id, c.vec_id AS neighbor_id,
             list_cosine_similarity(qe.e, be.e) AS score
      FROM cand c
      JOIN emb qe ON qe.vec_id = c.qid
      JOIN emb be ON be.vec_id = c.vec_id
    )
    SELECT query_id, rank, neighbor_id FROM (
      SELECT query_id, neighbor_id,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, neighbor_id
             ) AS rank
      FROM scored
    ) WHERE rank <= {ANN_K}
    """

def embedding_matrix(batch: pa.Table) -> np.ndarray:
    """list<float> column → (n, dim) float64 matrix, zero-copy flatten."""
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    return flat.reshape(batch.num_rows, -1).astype(np.float64)


def normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)


def quantize(mat: np.ndarray) -> np.ndarray:
    """float64 embedding rows → exact int64 lattice (SQL twin:
    CAST(floor(x * 2^20) AS BIGINT) over CAST(embedding AS DOUBLE[]))."""
    return np.floor(mat * QSCALE).astype(np.int64)


def ivf_assign(quant: np.ndarray, cent_q: np.ndarray) -> np.ndarray:
    """Nearest centroid per QUANTIZED row by int64 inner product; ties →
    smallest centroid id (np.argmax takes the first max; SQL twin orders
    d DESC, cid ASC)."""
    return np.argmax(quant @ cent_q.T, axis=1).astype(np.int64)


def probe_candidates(want, q_rows: dict, q_mat: np.ndarray, ids, mat):
    """Flat (query_id, neighbor_id, cosine) candidates of the probing
    queries ``want`` against one LSH bucket's (ids, normalized matrix),
    self-matches dropped.  One vector-matrix product per query: the same
    score expression in every table, so a pair's score is identical
    wherever it is probed (the union merge dedupes on it)."""
    q = np.asarray(want, dtype=np.int64)
    sims = np.stack([q_mat[q_rows[x]] @ mat.T for x in want])
    r, c = np.nonzero(ids[None, :] != q[:, None])
    return q[r], ids[c], sims[r, c]


def ivf_cand_ctes(
    q_pred: str | None = None, probe: int = IVF_PROBE, cand_pred: str = "TRUE"
) -> str:
    """The IVF candidate-generation CTE chain over an existing
    ``emb(vec_id, q, ...)`` CTE: fixture-centroid extraction → integer
    dots → argmax list assignment (ties → smallest cid) → top-``probe``
    probing of the ``q_pred`` rows → candidate (qid, vec_id) pairs.
    ONE definition embedded by ivf_sql AND the IVF×PQ oracle
    (ops_embed._ivfpq_sql) — the ADVICE-r3 drift-containment rule; a
    change to the assignment/probe math propagates to every twin.
    ``cand_pred`` filters the CANDIDATE side only (``a.vec_id`` in scope)
    — the oracle twin of a tombstone-deleted artifact, where retired
    vectors stay out of every list but queries and centroids are
    untouched (ann_ivf_maintained)."""
    if q_pred is None:
        q_pred = f"vec_id < {ANN_NQ}"
    dot = " + ".join(f"e.q[{d + 1}]*c.cq[{d + 1}]" for d in range(VEC_DIM))
    return f"""
    cent AS (
      SELECT vec_id - {ANN_NQ} AS cid, q AS cq FROM emb
      WHERE vec_id >= {ANN_NQ} AND vec_id < {ANN_NQ + IVF_C}
    ),
    dots AS (
      SELECT e.vec_id, c.cid, {dot} AS d FROM emb e CROSS JOIN cent c
    ),
    assign AS (
      SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
        FROM dots
      ) WHERE rn = 1
    ),
    probe AS (
      SELECT vec_id AS qid, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
        FROM dots WHERE {q_pred}
      ) WHERE rn <= {probe}
    ),
    cand AS (
      SELECT p.qid, a.vec_id
      FROM probe p JOIN assign a ON a.cid = p.cid
      WHERE a.vec_id != p.qid AND ({cand_pred})
    )"""


def ivf_sql(
    q_pred: str | None = None,
    probe: int = IVF_PROBE,
    k: int = ANN_K,
    cand_pred: str = "TRUE",
) -> str:
    """Replay quantization, all n×C integer centroid dots, argmax list
    assignment, top-``probe`` probe and exact cosine re-ranking in SQL —
    the shared oracle of ann_ivf_topk AND ann_ivf_persisted (identical
    assignment/probe math by construction).  ``q_pred`` selects the query
    rows (default: the fixture sample ``vec_id < ANN_NQ``; knn_graph_ivf
    passes ``TRUE`` — every vector is a query)."""
    return f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {QSCALE}) AS BIGINT)) AS q,
             CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings
    ),{ivf_cand_ctes(q_pred, probe, cand_pred)},
    scored AS (
      SELECT c.qid AS query_id, c.vec_id AS neighbor_id,
             list_cosine_similarity(qe.e, be.e) AS score
      FROM cand c
      JOIN emb qe ON qe.vec_id = c.qid
      JOIN emb be ON be.vec_id = c.vec_id
    )
    SELECT query_id, rank, neighbor_id FROM (
      SELECT query_id, neighbor_id,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, neighbor_id
             ) AS rank
      FROM scored
    ) WHERE rank <= {k}
    """


# Product quantization (ann_pq_topk, ops_embed): M subspaces × K codes,
# codebooks trained by the same integer-lattice Lloyd's rounds as
# kmeans_embeddings so the DuckDB oracle replays training bit-for-bit.
# 64 dims → 8 codes of 3 bits each: 64×8B float64 → 8×3bit ≈ 85× smaller
# vectors at serving time (the ADC memory story at 100 TB).
PQ_M = 8                      # subspaces
PQ_SUB = VEC_DIM // PQ_M      # dims per subspace
PQ_K = 8                      # codes per subspace
PQ_ROUNDS = 2                 # Lloyd iterations per subspace (fixed)


def fdiv_sql(s: str, n: str) -> str:
    """Exact FLOOR division in BIGINT (DuckDB ``//`` truncates toward
    zero; numpy floor_divide floors): subtract the positive mod first so
    the remaining quotient is exact under either rounding rule.  Shared
    by the kmeans and PQ oracles (one definition — ADVICE r3's
    drift-containment rule for cross-module twins)."""
    return f"(({s}) - ((({s}) % ({n})) + ({n})) % ({n})) // ({n})"


def pq_encode(quant: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(n, VEC_DIM) int64 lattice rows → (n, PQ_M) int64 codes: per
    subspace, argmax integer inner product against that subspace's
    codebook (ties → smallest code; SQL twin orders d DESC, cid ASC)."""
    codes = np.empty((quant.shape[0], PQ_M), np.int64)
    for m in range(PQ_M):
        sub = quant[:, m * PQ_SUB:(m + 1) * PQ_SUB]
        codes[:, m] = np.argmax(sub @ cb[m].T, axis=1)
    return codes
