"""Deterministic embedding stage + persisted vector-index artifact.

(ref: n/a — SURVEY.md §0: the reference checkout is empty; these ops come
from the task brief's training-data-pipeline requirements and close
VERDICT r3 "What's missing" #1-#2.)

Two pieces real pipelines run before any ANN query:

* **embed_documents** — the canonical "model loaded once per actor,
  ``map_batches`` over text → vectors" stage.  The model is a seeded
  random-projection / hashing-trick embedder (Weinberger et al., ICML 2009
  "Feature Hashing for Large Scale Multitask Learning"): token t
  contributes weight ``w_d(t) ∈ {-1, 0, +1}`` to dimension d, with
  ``w_d = ((h31(t)·EA_d + EB_d) mod P31) mod 3 − 1`` — ``h31`` the
  SQL-replayable md5-int60 token hash mod P31 (functions/dedup.py), EA/EB
  frozen seeded constants.  Raw components are exact integer sums over
  token occurrences (order-independent, bit-stable); the only float work
  is one sqrt + one division per component, so the DuckDB oracle
  reproduces every output bit (ops.py float-safety policy: sums of exact
  small integers in float64 are exact; IEEE-754 sqrt and division are
  correctly rounded on both sides).

* **build_vector_index / ann_ivf_persisted** — the vector twin of the BM25
  segment artifact: build ONCE (centroid sidecar + every vector written
  into its nearest-centroid list, hive-partitioned by ``cid=``), then
  answer query batches from the artifact alone.  The query plan reads the
  two tiny sidecars plus ONLY the probed ``cid=`` partitions (partition
  pruning at the read) — the corpus table is never re-scanned.  Assignment
  and probing reuse ann_ivf_topk's integer-exact quantized dots, so the
  persisted op shares its SQL oracle verbatim.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import dedup as dd
from ..functions import topk as tk
from ..functions import vectors as vx
from ..functions.text import flat_tokens
from ..sources.corpus import read_table
from .ops import _TOKS, op

# shared leaf-module kernels/constants (functions/vectors.py): importing
# them from ops_dedup here would be circular (ops.py registers both side
# modules) — the same containment as the ANN fixture constants (ADVICE r3)
_ANN_K, _ANN_NQ = dd.ANN_K, dd.ANN_NQ
_IVF_C, _IVF_PROBE = vx.IVF_C, vx.IVF_PROBE
_embedding_matrix = vx.embedding_matrix
_ivf_assign = vx.ivf_assign
_ivf_sql = vx.ivf_sql
_normalize = vx.normalize
_quantize = vx.quantize

# ===========================================================================
# Deterministic hashing-trick embedder
# ===========================================================================

EMBED_DIM = 16


def _embed_params(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The frozen "model weights": per-dimension (EA, EB) projection
    constants from a fixed seed — regenerated identically in every actor's
    ``__init__`` and embedded verbatim in the oracle SQL VALUES list."""
    rng = np.random.RandomState(0x5EEDED)
    ea = rng.randint(1, dd.P31, size=dim).astype(np.int64)
    eb = rng.randint(0, dd.P31, size=dim).astype(np.int64)
    return ea, eb


EMBED_A, EMBED_B = _embed_params(EMBED_DIM)

_EMB_SCHEMA = pa.schema([("doc_id", pa.int64()), ("embedding", pa.list_(pa.float64()))])


class HashEmbedder:
    """Stateful embedding stage (actor pool): the projection model is
    materialized ONCE per actor in ``__init__`` — the shape a real
    model-inference stage uses (load weights once, embed every batch) —
    and ``__call__`` embeds one Arrow batch fully vectorized (one md5 per
    UNIQUE token via hash_strings, then numpy matmul-shaped modular
    arithmetic; no per-row Python)."""

    def __init__(
        self, dim: int = EMBED_DIM, text_col: str = "text", id_col: str = "doc_id"
    ):
        self.dim = dim
        self.text_col = text_col
        self.id_col = id_col
        self.ea, self.eb = _embed_params(dim)  # the "model load"

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat, parent = flat_tokens(t[self.text_col])
        v = np.zeros((n, self.dim), dtype=np.int64)
        if len(flat):
            h31 = dd.hash_strings(flat) % dd.P31
            # (n_tokens, dim): h31 < 2^31, ea < 2^31 → products < 2^62, exact
            g = (h31[:, None] * self.ea[None, :] + self.eb[None, :]) % dd.P31
            w = (g % 3) - 1
            # parent is nondecreasing (flat_tokens order): one reduceat per
            # token run instead of np.add.at's per-element scatter
            starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
            v[parent[starts]] = np.add.reduceat(w, starts, axis=0)
        vf = v.astype(np.float64)
        norm = np.sqrt((vf * vf).sum(axis=1))
        x = np.divide(
            vf,
            norm[:, None],
            out=np.zeros((n, self.dim), dtype=np.float64),
            where=norm[:, None] > 0,
        )
        offsets = pa.array(np.arange(0, (n + 1) * self.dim, self.dim, dtype=np.int32))
        emb = pa.ListArray.from_arrays(offsets, pa.array(x.ravel(), pa.float64()))
        return pa.table(
            {"doc_id": pc.cast(t[self.id_col], pa.int64()), "embedding": emb},
            schema=_EMB_SCHEMA,
        )


def document_vectors(
    sf_dir: str, concurrency: int | None = None
) -> "ray.data.Dataset":
    """documents table → (doc_id, embedding) unit vectors via the
    HashEmbedder actor pool — the stage downstream vector ops consume.

    Pool size leaves ≥1 CPU for the upstream read: a pool holding every
    cluster CPU backpressures ReadParquet forever (deadlock on small
    ``ray.init(num_cpus=...)`` sessions)."""
    from .util import cluster_cpus

    if concurrency is None:
        concurrency = max(1, min(cluster_cpus() // 2, cluster_cpus() - 1))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        HashEmbedder,
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )


def _embed_sql() -> str:
    values = ", ".join(
        f"({d}, {int(EMBED_A[d])}, {int(EMBED_B[d])})" for d in range(EMBED_DIM)
    )
    h60 = dd.SQL_H60.format(s="term")
    return f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    h AS (SELECT doc_id, tf, {h60} % {dd.P31} AS h31 FROM tf),
    dims(dim, ea, eb) AS (VALUES {values}),
    comp AS (
      SELECT doc_id, dim,
             SUM(tf * (((h31 * ea + eb) % {dd.P31}) % 3 - 1))::BIGINT AS v
      FROM h CROSS JOIN dims GROUP BY 1, 2
    ),
    grid AS (SELECT doc_id, dim FROM documents CROSS JOIN dims),
    vals AS (
      SELECT g.doc_id, g.dim, COALESCE(c.v, 0)::BIGINT AS v
      FROM grid g LEFT JOIN comp c ON c.doc_id = g.doc_id AND c.dim = g.dim
    ),
    nrm AS (
      SELECT doc_id,
             sqrt(SUM(CAST(v AS DOUBLE) * CAST(v AS DOUBLE))) AS n
      FROM vals GROUP BY 1
    )
    SELECT v.doc_id, v.dim,
           CASE WHEN n.n = 0 THEN 0.0
                ELSE CAST(v.v AS DOUBLE) / n.n END AS val
    FROM vals v JOIN nrm n USING (doc_id)
    """


_FLAT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("dim", pa.int64()), ("val", pa.float64())]
)


@op("embed_documents", _embed_sql())
def embed_documents(sf_dir: str):
    """Text → embedding stage over the documents table, flattened to one
    (doc_id, dim, val) row per vector component so the driver's value-hash
    gate checks every float bit against the SQL twin.

    Scale shape: stateless w.r.t. the data but STATEFUL w.r.t. the model —
    the projection constants are built once per actor (``HashEmbedder``,
    the brief's "load model once in ``__init__``" shape) and each batch is
    one vectorized hash+matmul; nothing shuffles (embed is embarrassingly
    parallel) and only the (doc, dim) rows leave each task."""

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        col = t["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = pc.list_flatten(col)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(
                        t["doc_id"].to_numpy(zero_copy_only=False), EMBED_DIM
                    ),
                    pa.int64(),
                ),
                "dim": pa.array(
                    np.tile(np.arange(EMBED_DIM, dtype=np.int64), n), pa.int64()
                ),
                "val": pc.cast(vals, pa.float64()),
            },
            schema=_FLAT_SCHEMA,
        )

    return document_vectors(sf_dir).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )


# ===========================================================================
# End-to-end text → embed → ANN (full SQL oracle)
# ===========================================================================


def _ann_docs_sql() -> str:
    """Replay the embedder bit-exactly (its SQL twin), then rank by exact
    cosine — dot products summed in ASCENDING dim order via
    list_aggregate(list(...ORDER BY dim), 'sum'), replaying the engine's
    sequential per-dim accumulation bit-for-bit (the bm25 oracle's
    sorted-term trick) so near-tied neighbors rank identically."""
    return f"""
    WITH emb AS ({_embed_sql()}),
    p AS (
      SELECT a.doc_id AS query_id, b.doc_id AS neighbor_id, a.dim AS dim,
             a.val * b.val AS prod
      FROM emb a JOIN emb b ON a.dim = b.dim AND a.doc_id != b.doc_id
      WHERE a.doc_id < {_ANN_NQ}
    ),
    sc AS (
      SELECT query_id, neighbor_id,
             list_aggregate(list(prod ORDER BY dim), 'sum') AS score
      FROM p GROUP BY 1, 2
    )
    SELECT query_id, rank, neighbor_id FROM (
      SELECT query_id, neighbor_id,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, neighbor_id
             ) AS rank
      FROM sc
    ) WHERE rank <= {_ANN_K}
    """


@op("ann_docs_topk", _ann_docs_sql())
def ann_docs_topk(sf_dir: str):
    """The full text→vector→search chain as ONE driver-checked op:
    documents are embedded by the HashEmbedder actor pool and the first
    10 doc ids act as queries for brute-force cosine top-10 over the
    derived vectors — nothing here reads the embeddings table.

    Scale shape: identical to ann_topk_cosine's (broadcast query matrix,
    per-batch partial top-k — only k rows per query leave a batch) but fed
    by the embedding stage instead of stored vectors; the two stages fuse
    into one streamed map per batch.  Scores are computed with a
    SEQUENTIAL per-dim accumulation (ascending dim) so the oracle can
    replay the float sum exactly — embedder outputs are bit-equal on both
    sides, so rank parity is exact, not margin-dependent."""
    import ray

    vecs = document_vectors(sf_dir)
    q_rows = vecs.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], _ANN_NQ)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded: _ANN_NQ rows
    q_rows.sort(key=lambda r: int(r["doc_id"]))
    q_ids = np.array([r["doc_id"] for r in q_rows], dtype=np.int64)
    q_mat = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    ref = ray.put((q_ids, q_mat))

    @tk.partial_topk(_ANN_K)
    def partial(batch: pa.Table):
        qi, qm = ray.get(ref)
        b_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        b_mat = (
            pc.list_flatten(col)
            .to_numpy(zero_copy_only=False)
            .reshape(batch.num_rows, -1)
        )
        # sequential per-dim accumulation, ascending dim — the exact float
        # order the oracle's list(... ORDER BY dim) sum replays
        sims = np.zeros((qi.size, b_ids.size), dtype=np.float64)
        for d in range(qm.shape[1]):
            sims += qm[:, d : d + 1] * b_mat[:, d][None, :]
        r, c = np.nonzero(b_ids != qi[:, None])
        return qi[r], b_ids[c], sims[r, c]

    partials = vecs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, _ANN_K)


# ===========================================================================
# Persisted IVF vector-index artifact
# ===========================================================================


def _fixture_sidecars(
    vectors, tmp: str, n_queries: int, n_lists: int, who: str
):
    """The fixture-sidecar protocol shared by build_vector_index and
    build_pq_index (review r4: it was copy-pasted): pull and validate the
    bounded head rows (queries + centroids), write centroids.parquet and
    queries.parquet into the uncommitted tmp dir, and return
    (dim, q_raw, cent_raw, cent_q)."""
    import pyarrow.parquet as pqt

    head = vectors.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], n_queries + n_lists)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded: n_queries + n_lists rows
    head.sort(key=lambda r: int(r["vec_id"]))
    if len(head) != n_queries + n_lists:
        raise ValueError(
            f"{who}: expected vec_ids [0, {n_queries + n_lists}) "
            f"for the query/centroid fixture, got {len(head)} rows"
        )
    dim = len(head[0]["embedding"])
    q_raw = np.array([r["embedding"] for r in head[:n_queries]], np.float64)
    cent_raw = np.array([r["embedding"] for r in head[n_queries:]], np.float64)

    def emb_list(mat: np.ndarray) -> pa.ListArray:
        n = mat.shape[0]
        offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
        return pa.ListArray.from_arrays(offs, pa.array(mat.ravel(), pa.float64()))

    pqt.write_table(
        pa.table(
            {"cid": pa.array(np.arange(n_lists, dtype=np.int64)),
             "embedding": emb_list(cent_raw)}
        ),
        os.path.join(tmp, "centroids.parquet"),
    )
    pqt.write_table(
        pa.table(
            {"vec_id": pa.array(np.arange(n_queries, dtype=np.int64)),
             "embedding": emb_list(q_raw)}
        ),
        os.path.join(tmp, "queries.parquet"),
    )
    return dim, q_raw, cent_raw, _quantize(cent_raw)


def build_vector_index(
    vectors: "ray.data.Dataset",
    out_dir: str,
    n_queries: int = _ANN_NQ,
    n_lists: int = _IVF_C,
) -> dict:
    """Build-once IVF artifact over a (vec_id, embedding) dataset — the
    vector twin of the BM25 segments directory:

      out_dir/centroids.parquet   (cid, embedding) — the n_lists fixture
                                  centroids (rows n_queries ..
                                  n_queries+n_lists, same deterministic
                                  scheme as ann_ivf_topk so the SQL twin
                                  replays assignment exactly)
      out_dir/queries.parquet     the first n_queries rows (the fixture
                                  query set, kept out of the hot path)
      out_dir/lists/cid=K/...     every vector in its nearest-centroid
                                  list; hive-partitioned so a query reads
                                  ONLY its probed lists.  ``list_id``
                                  duplicates the partition value inside
                                  the file (hive writers drop the
                                  partition column from row data).
      out_dir/meta.json           dim / list count / row count / qscale.

    Assignment is the integer-exact quantized argmax of ann_ivf_topk —
    no float-boundary hazard between build and oracle.  The build's one
    corpus pass + partitioned write is amortized over every subsequent
    query batch.  Crash-safe: built under ``out_dir + '.tmp'`` and
    committed by a single rename."""
    import ray

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(tmp)

    import pyarrow.parquet as pq

    # three consumers below (sidecar take, count/max aggregate, assignment
    # write): checkpoint the input once into the object store so an
    # upstream compute stage (e.g. the embedder) runs once, not three times
    vectors = vectors.materialize()

    # ---- bounded sidecars: centroids + fixture queries --------------------
    dim, _q_raw, _cent_raw, cent_q = _fixture_sidecars(
        vectors, tmp, n_queries, n_lists, "build_vector_index"
    )

    # ---- assignment + partitioned list write (the one corpus pass) --------
    cent_ref = ray.put(cent_q)

    def assign(t: pa.Table) -> pa.Table:
        cids = _ivf_assign(_quantize(_embedding_matrix(t)), ray.get(cent_ref))
        t = t.select(["vec_id", "embedding"])
        t = t.append_column("cid", pa.array(cids, pa.int64()))
        return t.append_column("list_id", pa.array(cids, pa.int64()))

    from ray.data.aggregate import Count, Max

    agg = vectors.aggregate(Count(), Max("vec_id"))
    n_rows, max_id = int(agg["count()"]), int(agg["max(vec_id)"])
    vectors.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(os.path.join(tmp, "lists"), partition_cols=["cid"])

    meta = {
        "dim": dim,
        "n_lists": n_lists,
        "n_queries": n_queries,
        "n_vectors": n_rows,
        "max_vec_id": max_id,
        "qscale_log2": vx.QSCALE_LOG2,
        "updates": 0,
        # committed file set per list: readers trust THIS, not the
        # directory listing — an update that crashes after writing delta
        # files but before the meta rewrite leaves only ignored orphans
        "files": _list_files(tmp),
    }
    _write_meta(tmp, meta)
    os.rename(tmp, out_dir)
    return meta


def _list_files(index_dir: str, subdir: str = "lists") -> dict[str, list[str]]:
    """{cid: [parquet basenames]} from the hive-partitioned ``subdir`` tree."""
    import glob as _glob

    out: dict[str, list[str]] = {}
    for d in sorted(_glob.glob(os.path.join(index_dir, subdir, "cid=*"))):
        cid = os.path.basename(d).split("=", 1)[1]
        out[cid] = sorted(
            os.path.basename(f) for f in _glob.glob(os.path.join(d, "*.parquet"))
        )
    return out


def _write_meta(index_dir: str, meta: dict) -> None:
    """Atomic meta.json replace — the artifact's single commit point."""
    tmp = os.path.join(index_dir, "meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(index_dir, "meta.json"))


def update_vector_index(index_dir: str, new_vectors: "ray.data.Dataset") -> dict:
    """Incremental append to a persisted IVF artifact (the vector twin of
    build.update_index): new (vec_id, embedding) rows are assigned to the
    artifact's FROZEN centroids (so assignment/probe math — and the shared
    SQL oracle's rule — never changes across updates) and written as delta
    parquet files inside only the touched ``cid=`` directories; the
    existing lists are never read or rewritten — an update costs
    O(delta), not O(index).

    Crash safety: readers resolve the file set from meta.json's committed
    ``files`` map, never from the directory listing, and the meta rewrite
    is a single atomic replace — a crash after the delta writes but before
    the commit leaves orphan files that are invisible to queries and swept
    by the next update.

    New vec_ids must extend the id space (min(new) > stored max_vec_id):
    the fixture queries/centroids are id-addressed, and duplicate ids
    would double-count in top-k."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Count, Max, Min

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    new_vectors = new_vectors.materialize()  # two consumers: validate + write
    agg = new_vectors.aggregate(Count(), Min("vec_id"), Max("vec_id"))
    n_new = int(agg["count()"])
    if n_new == 0:
        return meta
    lo, hi = int(agg["min(vec_id)"]), int(agg["max(vec_id)"])
    if lo <= int(meta["max_vec_id"]):
        raise ValueError(
            f"update_vector_index: new vec_ids must extend the id space "
            f"(min new id {lo} <= stored max {meta['max_vec_id']})"
        )

    # sweep orphans from a previously crashed update (committed set wins)
    committed = meta["files"]
    for d in _glob.glob(os.path.join(index_dir, "lists", "cid=*")):
        cid = os.path.basename(d).split("=", 1)[1]
        keep = set(committed.get(cid, []))
        for f_ in _glob.glob(os.path.join(d, "*.parquet")):
            if os.path.basename(f_) not in keep:
                os.remove(f_)

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    cent_q = _quantize(
        _embedding_matrix(cent_t.rename_columns(["vec_id", "embedding"]))
    )
    cent_ref = ray.put(cent_q)

    def assign(t: pa.Table) -> pa.Table:
        cids = _ivf_assign(_quantize(_embedding_matrix(t)), ray.get(cent_ref))
        t = t.select(["vec_id", "embedding"])
        t = t.append_column("cid", pa.array(cids, pa.int64()))
        return t.append_column("list_id", pa.array(cids, pa.int64()))

    k = int(meta.get("updates", 0))
    stage = os.path.join(index_dir, f"update-{k}.stage")
    shutil.rmtree(stage, ignore_errors=True)
    new_vectors.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(stage, partition_cols=["cid"])

    # move delta files into the live lists/ tree under update-salted names
    # (collision-free), then commit the whole update with one meta replace
    new_files: dict[str, list[str]] = {c: list(v) for c, v in committed.items()}
    for d in sorted(_glob.glob(os.path.join(stage, "cid=*"))):
        cid = os.path.basename(d).split("=", 1)[1]
        dest = os.path.join(index_dir, "lists", f"cid={cid}")
        os.makedirs(dest, exist_ok=True)
        for f_ in sorted(_glob.glob(os.path.join(d, "*.parquet"))):
            name = f"upd{k}-{os.path.basename(f_)}"
            os.replace(f_, os.path.join(dest, name))
            new_files.setdefault(cid, []).append(name)
    shutil.rmtree(stage, ignore_errors=True)

    meta["files"] = {c: sorted(v) for c, v in new_files.items()}
    meta["n_vectors"] = int(meta["n_vectors"]) + n_new
    meta["max_vec_id"] = hi
    meta["updates"] = k + 1
    _write_meta(index_dir, meta)
    return meta


# ---------------------------------------------------------------------------
# Vector-artifact maintenance: tombstone delete + compaction (VERDICT r4 #5)
# ---------------------------------------------------------------------------
# The BM25 segments have the full maintenance story (tombstones, crash debt,
# compact, merge); these two give the vector artifacts the symmetric side so
# a corpus-refresh loop can retire vectors as well as append them.  Both
# work on the IVF artifact (lists/) and the IVF×PQ artifact (codes/) — the
# rows of both carry ``list_id``, so compaction re-partitions without ever
# touching raw embeddings on the PQ side.


def _artifact_subdir(meta: dict) -> str:
    return "codes" if "pq_m" in meta else "lists"


def _load_tombstones(index_dir: str, meta: dict) -> "np.ndarray":
    """Committed tombstoned vec_ids (deduped int64 array; empty if none).
    Readers resolve the file set from meta.json, never the directory —
    same crash rule as the list files themselves."""
    import pyarrow.parquet as pq

    names = meta.get("tombstone_files", [])
    if not names:
        return np.empty(0, np.int64)
    ids = [
        pq.read_table(
            os.path.join(index_dir, "tombstones", n), columns=["vec_id"]
        )["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        for n in names
    ]
    return np.unique(np.concatenate(ids))


def _drop_tombstoned(t: pa.Table, tombs: "np.ndarray") -> pa.Table:
    if tombs.size == 0:
        return t
    return t.filter(
        pc.invert(pc.is_in(t["vec_id"], value_set=pa.array(tombs, pa.int64())))
    )


def delete_vectors(
    index_dir: str, vec_ids: "list[int] | ray.data.Dataset"
) -> dict:
    """Tombstone vec_ids in a persisted vector artifact (IVF or IVF×PQ):
    an O(tombstones) append — the lists are NOT rewritten; queries drop
    tombstoned rows at read time until :func:`compact_vector_index`
    rewrites them out.

    Crash safety mirrors update_vector_index: tombstone parquet files are
    written first, then ONE atomic meta replace commits them; a crash in
    between leaves orphans invisible to readers (swept by the next
    maintenance call).

    Scale shape: a Dataset of ids streams straight to parquet (nothing
    driver-side); readers broadcast the tombstone set into their scans,
    which is bounded by the compaction cadence — compact before the
    retired fraction grows past a few percent of the corpus."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    k = int(meta.get("deletes", 0))
    tomb_dir = os.path.join(index_dir, "tombstones")
    os.makedirs(tomb_dir, exist_ok=True)

    # sweep orphans from a previously crashed delete (committed set wins)
    import glob as _glob

    committed_tombs = set(meta.get("tombstone_files", []))
    for f_ in _glob.glob(os.path.join(tomb_dir, "*.parquet")):
        if os.path.basename(f_) not in committed_tombs:
            os.remove(f_)

    new_names: list[str] = []
    if isinstance(vec_ids, list):
        if not vec_ids:
            return meta
        name = f"tomb{k}-0.parquet"
        pq.write_table(
            pa.table({"vec_id": pa.array(sorted(set(vec_ids)), pa.int64())}),
            os.path.join(tomb_dir, name),
        )
        new_names.append(name)
    else:
        stage = os.path.join(index_dir, f"delete-{k}.stage")
        shutil.rmtree(stage, ignore_errors=True)
        vec_ids.map_batches(
            lambda t: pa.table({"vec_id": pc.cast(t["vec_id"], pa.int64())}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).write_parquet(stage)
        for f_ in sorted(_glob.glob(os.path.join(stage, "*.parquet"))):
            name = f"tomb{k}-{os.path.basename(f_)}"
            os.replace(f_, os.path.join(tomb_dir, name))
            new_names.append(name)
        shutil.rmtree(stage, ignore_errors=True)
        if not new_names:
            return meta

    meta["tombstone_files"] = sorted(committed_tombs | set(new_names))
    meta["deletes"] = k + 1
    _write_meta(index_dir, meta)
    return meta


def compact_vector_index(index_dir: str) -> dict:
    """Rewrite a vector artifact's partitioned lists WITHOUT tombstoned
    rows and clear the tombstones — the vector twin of the BM25 segment
    compaction.  One distributed pass: the committed files stream through
    a tombstone filter (``list_id`` rides in every row, so re-partitioning
    needs no re-assignment and, on the PQ side, no raw embeddings) and are
    rewritten hive-partitioned under generation-salted names.

    Crash-idempotent: the rewrite lands in a stage dir, files move under
    ``gen{g}-`` names, and ONE atomic meta replace commits the new file
    set + empty tombstone list; a crash at any point leaves the committed
    view intact (orphans are invisible to readers and swept here and by
    update_vector_index).  Post-commit, superseded files are removed."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray
    import ray.data

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    sub = _artifact_subdir(meta)
    g = int(meta.get("generation", 0))

    # sweep stage leftovers + uncommitted files from any crashed maintenance
    for d in _glob.glob(os.path.join(index_dir, "*.stage")):
        shutil.rmtree(d, ignore_errors=True)
    for d in _glob.glob(os.path.join(index_dir, sub, "cid=*")):
        cid = os.path.basename(d).split("=", 1)[1]
        keep = set(meta["files"].get(cid, []))
        for f_ in _glob.glob(os.path.join(d, "*.parquet")):
            if os.path.basename(f_) not in keep:
                os.remove(f_)

    tombs = _load_tombstones(index_dir, meta)
    old_paths = [
        os.path.join(index_dir, sub, f"cid={c}", name)
        for c, names in meta["files"].items()
        for name in names
    ]
    stage = os.path.join(index_dir, f"compact-{g}.stage")
    shutil.rmtree(stage, ignore_errors=True)
    n_live = 0
    if old_paths:
        tomb_ref = ray.put(tombs)

        def rewrite(t: pa.Table) -> pa.Table:
            if "cid" in t.column_names:  # hive-inferred (string) — rebuild it
                t = t.drop_columns(["cid"])
            t = _drop_tombstoned(t, ray.get(tomb_ref))
            # restore the hive partition column the old write consumed
            return t.append_column("cid", t["list_id"])

        live = (
            ray.data.read_parquet(old_paths)
            .map_batches(rewrite, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()
        )
        n_live = live.count()
        if n_live:
            live.write_parquet(stage, partition_cols=["cid"])

    new_files: dict[str, list[str]] = {}
    for d in sorted(_glob.glob(os.path.join(stage, "cid=*"))):
        cid = os.path.basename(d).split("=", 1)[1]
        dest = os.path.join(index_dir, sub, f"cid={cid}")
        os.makedirs(dest, exist_ok=True)
        for f_ in sorted(_glob.glob(os.path.join(d, "*.parquet"))):
            name = f"gen{g + 1}-{os.path.basename(f_)}"
            os.replace(f_, os.path.join(dest, name))
            new_files.setdefault(cid, []).append(name)
    shutil.rmtree(stage, ignore_errors=True)

    old_meta_files = meta["files"]
    old_tomb_files = meta.get("tombstone_files", [])
    meta["files"] = {c: sorted(v) for c, v in new_files.items()}
    meta["n_vectors"] = int(n_live)
    meta["tombstone_files"] = []
    meta["generation"] = g + 1
    _write_meta(index_dir, meta)  # the single commit point

    # post-commit cleanup of superseded files (crash here only re-orphans)
    for c, names in old_meta_files.items():
        for name in names:
            try:
                os.remove(os.path.join(index_dir, sub, f"cid={c}", name))
            except FileNotFoundError:
                pass
    for name in old_tomb_files:
        try:
            os.remove(os.path.join(index_dir, "tombstones", name))
        except FileNotFoundError:
            pass
    return meta


def query_vector_index(
    index_dir: str, k: int = _ANN_K, n_probe: int = _IVF_PROBE
) -> "ray.data.Dataset":
    """Answer the artifact's fixture query set from the artifact ALONE:
    load the two tiny sidecars, pick each query's top-``n_probe`` lists by
    the same integer dots, then scan ONLY the union of probed ``cid=``
    partitions — partition pruning at the read; the corpus table is never
    touched.  Output schema and ranking are identical to ann_ivf_topk."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    q_t = pq.read_table(os.path.join(index_dir, "queries.parquet"))
    cent_q = _quantize(_embedding_matrix(cent_t.rename_columns(["vec_id", "embedding"])))
    q_raw = _embedding_matrix(q_t)
    q_ids = q_t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _normalize(q_raw)
    n_lists = cent_t.num_rows

    q_dots = _quantize(q_raw) @ cent_q.T  # (nq, C) exact int64
    probe = np.argsort(-q_dots, axis=1, kind="stable")[:, :n_probe]
    probe_masks = np.zeros((q_ids.size, n_lists), dtype=bool)
    for r in range(q_ids.size):
        probe_masks[r, probe[r]] = True
    probed_cids = sorted(set(int(c) for c in probe.ravel()))

    # the pruned read: only probed lists' COMMITTED files enter the plan —
    # file set from meta.json (a crashed update's orphan deltas are
    # invisible), never the directory listing
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    paths = [
        os.path.join(index_dir, "lists", f"cid={c}", name)
        for c in probed_cids
        for name in meta["files"].get(str(c), [])
    ]
    if not paths:  # every probed list empty — no candidates
        return ray.data.from_arrow(tk.TOPK_SCHEMA.empty_table())
    ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding", "list_id"])
    ref = ray.put((q_ids, q_mat, probe_masks, _load_tombstones(index_dir, meta)))

    @tk.partial_topk(k)
    def partial(batch: pa.Table):
        qi, qm, pm, tombs = ray.get(ref)
        batch = _drop_tombstoned(batch, tombs)
        if batch.num_rows == 0:
            return None
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lids = batch["list_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = qm @ _normalize(_embedding_matrix(batch)).T
        r, c = np.nonzero(pm[:, lids] & (b_ids != qi[:, None]))
        return qi[r], b_ids[c], sims[r, c]

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, k)


def _vindex_stats_sql() -> str:
    """Recompute per-list sizes from scratch in SQL (the assign CTE of the
    shared IVF oracle) — the artifact's bookkeeping must match exactly."""
    return f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {vx.QSCALE}) AS BIGINT)) AS q
      FROM embeddings
    ),
    cent AS (
      SELECT vec_id - {_ANN_NQ} AS cid, q AS cq FROM emb
      WHERE vec_id >= {_ANN_NQ} AND vec_id < {_ANN_NQ + _IVF_C}
    ),
    dots AS (
      SELECT e.vec_id, c.cid,
             {" + ".join(f"e.q[{d + 1}]*c.cq[{d + 1}]" for d in range(vx.VEC_DIM))}
               AS d
      FROM emb e CROSS JOIN cent c
    ),
    assign AS (
      SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
        FROM dots
      ) WHERE rn = 1
    )
    SELECT cid, count(*)::BIGINT AS n_vectors FROM assign GROUP BY cid
    """


@op("vector_index_stats", _vindex_stats_sql)
def vector_index_stats(sf_dir: str):
    """Index bookkeeping == corpus truth, as a driver-checked op (the
    vector twin of index_dictionary_stats): per-list vector counts read
    from the PERSISTED artifact's parquet FOOTERS (committed files only —
    zero data bytes read), compared against a from-scratch SQL recompute
    of the centroid assignment.  A green row proves the artifact's lists
    partition the corpus exactly as the assignment rule says."""
    import pyarrow.parquet as pq

    idx = _vector_index_for(sf_dir)
    with open(os.path.join(idx, "meta.json")) as f:
        meta = json.load(f)
    cids, counts = [], []
    for cid, names in sorted(meta["files"].items(), key=lambda kv: int(kv[0])):
        n = sum(
            pq.read_metadata(
                os.path.join(idx, "lists", f"cid={cid}", name)
            ).num_rows
            for name in names
        )
        if n:
            cids.append(int(cid))
            counts.append(n)
    return pa.table(
        {
            "cid": pa.array(cids, pa.int64()),
            "n_vectors": pa.array(counts, pa.int64()),
        }
    )


# ===========================================================================
# Persisted LSH vector-index artifact (the hashed-partition twin of the IVF)
# ===========================================================================


def build_lsh_index(
    vectors: "ray.data.Dataset", out_dir: str, n_queries: int = _ANN_NQ
) -> dict:
    """Build-once LSH artifact over a (vec_id, embedding) dataset:

      out_dir/queries.parquet                    the fixture query rows
      out_dir/lists/table_id=T/bucket=B/...      each vector exploded into
                                                 its LSH_TABLES (table,
                                                 bucket) copies — the
                                                 standard multi-table LSH
                                                 storage trade (T× bytes
                                                 buys per-table pruning)
      out_dir/meta.json                          committed-file map (same
                                                 reader contract as the
                                                 IVF artifact)

    Bucketing is the integer-exact hyperplane math of ann_lsh_topk
    (functions/vectors.py), so the persisted query path shares that op's
    SQL oracle verbatim."""
    import pyarrow.parquet as pq
    import ray

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(tmp)

    # three consumers (sidecar take, count, exploded write): checkpoint once
    vectors = vectors.materialize()

    q_rows = vectors.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], n_queries)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded: the fixture query sample
    q_rows.sort(key=lambda r: int(r["vec_id"]))
    dim = len(q_rows[0]["embedding"])
    q_mat = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    offs = pa.array(
        np.arange(0, (len(q_rows) + 1) * dim, dim, dtype=np.int32)
    )
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([int(r["vec_id"]) for r in q_rows], pa.int64()),
                "embedding": pa.ListArray.from_arrays(
                    offs, pa.array(q_mat.ravel(), pa.float64())
                ),
            }
        ),
        os.path.join(tmp, "queries.parquet"),
    )

    def explode(batch: pa.Table) -> pa.Table:
        m = _quantize(_embedding_matrix(batch))
        n = batch.num_rows
        buckets = np.concatenate(
            [vx.bucket_of(m, t) for t in range(vx.LSH_TABLES)]
        )
        tids = np.repeat(np.arange(vx.LSH_TABLES, dtype=np.int64), n)
        ids = pc.cast(batch["vec_id"], pa.int64()).combine_chunks()
        emb = batch["embedding"].combine_chunks()
        return pa.table(
            {
                "vec_id": pa.concat_arrays([ids] * vx.LSH_TABLES),
                "embedding": pa.concat_arrays([emb] * vx.LSH_TABLES),
                # in-file duplicates (hive writers drop partition columns)
                "t_id": pa.array(tids, pa.int64()),
                "bkt": pa.array(buckets, pa.int64()),
                "table_id": pa.array(tids, pa.int64()),
                "bucket": pa.array(buckets, pa.int64()),
            }
        )

    from ray.data.aggregate import Count

    n_rows = int(vectors.aggregate(Count())["count()"])
    vectors.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(os.path.join(tmp, "lists"), partition_cols=["table_id", "bucket"])

    import glob as _glob

    files: dict[str, list[str]] = {}
    for d in sorted(_glob.glob(os.path.join(tmp, "lists", "table_id=*", "bucket=*"))):
        b = os.path.basename(d).split("=", 1)[1]
        t = os.path.basename(os.path.dirname(d)).split("=", 1)[1]
        files[f"{t}/{b}"] = sorted(
            os.path.basename(f) for f in _glob.glob(os.path.join(d, "*.parquet"))
        )
    meta = {
        "dim": dim,
        "n_queries": n_queries,
        "n_vectors": n_rows,
        "tables": vx.LSH_TABLES,
        "planes": vx.LSH_PLANES,
        "qscale_log2": vx.QSCALE_LOG2,
        "files": files,
    }
    _write_meta(tmp, meta)
    os.rename(tmp, out_dir)
    return meta


def query_lsh_index(
    index_dir: str, k: int = _ANN_K, multiprobe: int = vx.LSH_MULTIPROBE
) -> "ray.data.Dataset":
    """Answer the artifact's fixture query set from the artifact ALONE:
    compute each query's per-table bucket, expand to every bucket within
    Hamming ``multiprobe``, and read ONLY those (table, bucket) partitions'
    committed files — ann_lsh_topk semantics without re-hashing the corpus.
    """
    import pyarrow.parquet as pq
    import ray
    import ray.data

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    q_t = pq.read_table(os.path.join(index_dir, "queries.parquet"))
    q_ids = q_t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    q_raw = _embedding_matrix(q_t)
    q_mat = _normalize(q_raw)
    q_quant = _quantize(q_raw)

    probe: dict[tuple[int, int], list[int]] = {}
    for t in range(int(meta["tables"])):
        q_buckets = vx.bucket_of(q_quant, t)
        for qi, b in zip(q_ids, q_buckets):
            for nb in range(1 << int(meta["planes"])):
                if bin(int(b) ^ nb).count("1") <= multiprobe:
                    probe.setdefault((t, nb), []).append(int(qi))

    paths = [
        os.path.join(index_dir, "lists", f"table_id={t}", f"bucket={b}", name)
        for (t, b) in sorted(probe)
        for name in meta["files"].get(f"{t}/{b}", [])
    ]
    if not paths:
        return ray.data.from_arrow(tk.TOPK_SCHEMA.empty_table())
    ds = ray.data.read_parquet(
        paths, columns=["vec_id", "embedding", "t_id", "bkt"]
    )
    ref = ray.put((q_ids, q_mat, probe))

    # a pair probed in two tables of one batch must count once per batch
    @tk.partial_topk(k, dedupe=True)
    def score_batch(batch: pa.Table):
        qi, qm, pr = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tids = batch["t_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bkts = batch["bkt"].to_numpy(zero_copy_only=False).astype(np.int64)
        b_mat = _normalize(_embedding_matrix(batch))
        rows = {int(q): i for i, q in enumerate(qi)}
        # a read batch can span several (table, bucket) partitions: score
        # each distinct pair's slice against its probing queries
        parts = []
        for t, b in np.unique(np.stack([tids, bkts], axis=1), axis=0):
            want = pr.get((int(t), int(b)))
            if want:
                sel = np.flatnonzero((tids == t) & (bkts == b))
                parts.append(
                    vx.probe_candidates(want, rows, qm, b_ids[sel], b_mat[sel])
                )
        return [np.concatenate(c) for c in zip(*parts)] if parts else None

    partials = ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, k, dedupe=True)


def _artifact_for(cache: dict, prefix: str, build, sf_dir: str) -> str:
    """Build (or reuse) a persisted /tmp artifact for a testdata dir —
    the shared amortization shape of ops._index_for, ONE definition for
    the IVF / LSH / IVF×PQ caches (review r4: the 10-line cache recipe
    was maintained in three places).  The /tmp name is salted with a
    source fingerprint over this module + both kernel modules, so ANY
    kernel edit invalidates stale artifacts.

    Cross-process safety (ADVICE r4): two concurrent runs on one machine
    resolve the same fingerprinted path, so the build happens in a
    per-PID stage dir and the ONLY publish step is an atomic rename —
    never an rmtree of the shared destination.  If another process
    published meanwhile, the loser discards its stage and reads the
    winner's artifact (identical by construction: same fingerprint)."""
    if sf_dir in cache:
        return cache[sf_dir]
    import inspect
    import shutil
    import sys

    src = (
        inspect.getsource(sys.modules[__name__])
        + inspect.getsource(dd)
        + inspect.getsource(vx)
    )
    tag = hashlib.sha256(f"{prefix}:{sf_dir}:{src}".encode()).hexdigest()[:10]
    out = os.path.join(tempfile.gettempdir(), f"sharesci_{prefix}_{tag}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        stage = f"{out}.stage.{os.getpid()}"
        shutil.rmtree(stage, ignore_errors=True)
        build(sf_dir, stage)
        if os.path.exists(os.path.join(out, "meta.json")):
            shutil.rmtree(stage, ignore_errors=True)  # lost the race; reuse winner
        else:
            try:
                os.rename(stage, out)
            except OSError:
                shutil.rmtree(stage, ignore_errors=True)  # raced on the rename
    cache[sf_dir] = out
    return out


def _emb_dataset(sf_dir: str):
    return read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])


_LSHINDEX_CACHE: dict[str, str] = {}


def _lsh_index_for(sf_dir: str) -> str:
    return _artifact_for(
        _LSHINDEX_CACHE,
        "lshidx",
        lambda sf, out: build_lsh_index(_emb_dataset(sf), out),
        sf_dir,
    )


@op("ann_lsh_persisted", vx.ann_lsh_sql())
def ann_lsh_persisted(sf_dir: str):
    """ann_lsh_topk semantics answered from the PERSISTED artifact: build
    the multi-table LSH index once per corpus (vectors exploded into their
    (table, bucket) partitions), then serve top-k from the artifact alone —
    query buckets + multiprobe expansion select the partitions to read, the
    corpus is never re-hashed.  Identical output to ann_lsh_topk (same
    integer bucket math), so it shares that op's full SQL oracle."""
    return query_lsh_index(_lsh_index_for(sf_dir))


# ===========================================================================
# Vector serving: actor pool over the persisted IVF artifact (A2 analog)
# ===========================================================================


class VectorScorerActor:
    """Stateful vector-search stage over a persisted IVF artifact — the
    vector twin of query.ScorerActor: centroids + meta load ONCE per actor
    in ``__init__``, inverted lists load lazily per cid on first probe and
    stay cached (an actor serving a query stream touches each hot list
    once, not once per batch).  ``__call__`` takes a (query_id, embedding)
    Arrow batch and returns ranked (query_id, rank, neighbor_id) — ranking
    identical to query_vector_index for the same queries.

    Scale note: per-actor list cache duplicates hot lists across pool
    actors; at multi-node scale hand actors plasma refs of the list tables
    (shared_segment_refs pattern) instead of per-actor parquet reads."""

    def __init__(self, index_dir: str, k: int = _ANN_K, n_probe: int = _IVF_PROBE):
        import pyarrow.parquet as pq

        self.k, self.n_probe = k, n_probe
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "meta.json")) as f:
            self.meta = json.load(f)
        vx.check_meta_qscale(self.meta)
        cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
        self.cent_q = _quantize(
            _embedding_matrix(cent_t.rename_columns(["vec_id", "embedding"]))
        )
        self._lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._tombs = _load_tombstones(index_dir, self.meta)

    def _list(self, cid: int) -> tuple[np.ndarray, np.ndarray]:
        """(vec_ids, normalized matrix) of one inverted list, cached
        post-tombstone-filter."""
        if cid not in self._lists:
            import pyarrow.parquet as pq

            names = self.meta["files"].get(str(cid), [])
            if not names:
                self._lists[cid] = (
                    np.empty(0, np.int64),
                    np.empty((0, int(self.meta["dim"])), np.float64),
                )
            else:
                t = _drop_tombstoned(
                    pa.concat_tables(
                        pq.read_table(
                            os.path.join(self.index_dir, "lists", f"cid={cid}", n),
                            columns=["vec_id", "embedding"],
                        )
                        for n in names
                    ),
                    self._tombs,
                )
                self._lists[cid] = (
                    t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                    _normalize(_embedding_matrix(t)),
                )
        return self._lists[cid]

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_ids = batch["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        q_raw = _embedding_matrix(batch)
        q_mat = _normalize(q_raw)
        dots = _quantize(q_raw) @ self.cent_q.T
        probes = np.argsort(-dots, axis=1, kind="stable")[:, : self.n_probe]
        # flat (query row, neighbor, score) candidates over each query's
        # probed lists; the query ROW is the key, so a repeated query_id
        # in one batch is answered once per row
        cand = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        for i in range(q_ids.size):
            for cid in probes[i]:
                l_ids, mat = self._list(int(cid))
                keep = l_ids != q_ids[i]  # fixture semantics: never self-match
                cand.append(
                    (np.full(int(keep.sum()), i), l_ids[keep], (q_mat[i] @ mat.T)[keep])
                )
        rows, ids, scores = (np.concatenate(c) for c in zip(*cand))
        top, ranks = tk.topk_rows(rows, ids, scores, self.k)
        return pa.table(
            [pa.array(c) for c in (q_ids[rows[top]], ranks, ids[top])],
            schema=tk.TOPK_SCHEMA,
        )


def query_vectors(
    index_dir: str,
    queries: "ray.data.Dataset",
    k: int = _ANN_K,
    n_probe: int = _IVF_PROBE,
    concurrency: int | tuple[int, int] = (1, 8),
    batch_size: int = 64,
) -> "ray.data.Dataset":
    """Arbitrary (query_id, embedding) batches → ranked top-k neighbors
    through a VectorScorerActor pool — the serving path for query streams
    that are NOT the artifact's stored fixture set."""
    return queries.map_batches(
        VectorScorerActor,
        fn_constructor_kwargs={
            "index_dir": index_dir, "k": k, "n_probe": n_probe
        },
        concurrency=concurrency,
        batch_size=batch_size,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


_VINDEX_CACHE: dict[str, str] = {}


def _vector_index_for(sf_dir: str) -> str:
    """Build (or reuse) the persisted IVF artifact for a testdata dir's
    embeddings table — the ANN ops share one artifact per corpus
    (_artifact_for's fingerprint-salted /tmp cache)."""
    return _artifact_for(
        _VINDEX_CACHE,
        "vidx",
        lambda sf, out: build_vector_index(_emb_dataset(sf), out),
        sf_dir,
    )


@op("ann_ivf_persisted", _ivf_sql())
def ann_ivf_persisted(sf_dir: str):
    """ann_ivf_topk semantics answered from the PERSISTED artifact
    (VERDICT r3 next-round #2): build the IVF index once per corpus
    (centroid sidecar + hive-partitioned lists), then serve top-k from the
    artifact alone — sidecars + probed ``cid=`` partitions only, no corpus
    re-scan, build cost amortized across every query batch.  Identical
    output to ann_ivf_topk (same integer-exact assignment and probe sets),
    so it shares that op's full SQL oracle."""
    return query_vector_index(_vector_index_for(sf_dir))


# ===========================================================================
# ann_ivf_maintained — the full maintenance cycle as a driver-checked op
# ===========================================================================

_VMAINT_CACHE: dict[str, str] = {}
_MAINT_MOD, _MAINT_RES = 5, 2  # retire every vec_id ≡ 2 (mod 5)


def _doomed_ids(t: pa.Table) -> pa.Table:
    """map_batches fn: the batch's retired ids (vec_id ≡ _MAINT_RES mod
    _MAINT_MOD)."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {"vec_id": pa.array(ids[ids % _MAINT_MOD == _MAINT_RES], pa.int64())}
    )


def _doomed_stream(sf_dir: str):
    """The delete stream of both maintained artifacts: the retired ids,
    read from the ``vec_id`` column alone (no embedding re-read)."""
    return read_table(sf_dir, "embeddings", columns=["vec_id"]).map_batches(
        _doomed_ids, batch_format="pyarrow", zero_copy_batch=True
    )


def _maintained_index_for(sf_dir: str) -> str:
    """Build the IVF artifact, then run the FULL maintenance cycle on it:
    stream the retired ids (vec_id ≡ _MAINT_RES mod _MAINT_MOD) through
    delete_vectors (tombstone append) and rewrite the lists with
    compact_vector_index — its own cache prefix so the shared
    ann_ivf_persisted artifact is never mutated."""

    def build(sf, out):
        build_vector_index(_emb_dataset(sf), out)

        delete_vectors(out, _doomed_stream(sf))
        compact_vector_index(out)

    return _artifact_for(_VMAINT_CACHE, "vmaint", build, sf_dir)


def _ivf_maint_sql() -> str:
    """The shared IVF oracle with the retired ids excluded from the
    CANDIDATE side only — tombstone semantics exactly: queries and the
    centroid fixture are untouched, deleted vectors just never appear in
    any list."""
    return vx.ivf_sql(
        cand_pred=f"(a.vec_id % {_MAINT_MOD}) != {_MAINT_RES}"
    )


@op("ann_ivf_maintained", _ivf_maint_sql())
def ann_ivf_maintained(sf_dir: str):
    """VERDICT r4 #5, driver-checkable: top-k served from an IVF artifact
    AFTER a delete_vectors (streamed tombstone append) + a
    compact_vector_index (generation-salted distributed rewrite) — the
    maintenance cycle a 100 TB corpus-refresh loop runs continuously.
    The SQL twin replays the identical assignment/probe/cosine math with
    the retired ids excluded from candidates, so a tombstone leak, a
    compaction that drops a survivor, or a stale-file read all surface as
    a hash mismatch at the driver gate (the pytest side additionally pins
    delete+compact ≡ fresh-build-over-survivors)."""
    return query_vector_index(_maintained_index_for(sf_dir))


# ===========================================================================
# knn_graph_ivf — the full k-NN graph, IVF-bucketed (no all-pairs stage)
# ===========================================================================

# graph out-degree and probe width — leaf-module constants (vectors.py)
# so ops_ml's label propagation can embed the graph SQL; the probe is
# tighter than query-time IVF_PROBE=8 because graph construction touches
# EVERY vector, so probe width is the whole cost knob
KNN_GRAPH_K = vx.KNN_GRAPH_K
KNN_GRAPH_PROBE = vx.KNN_GRAPH_PROBE


def _knn_graph_sql() -> str:
    """Shared IVF oracle with every vector as a query: probe TOP-2 lists,
    exact cosine within the probed lists, top-5 per vector."""
    return vx.ivf_sql(q_pred="TRUE", probe=KNN_GRAPH_PROBE, k=KNN_GRAPH_K)


@op("knn_graph_ivf", _knn_graph_sql)
def knn_graph_ivf(sf_dir: str):
    """k-NN graph over ALL embeddings — the diversity-sampling / dedup /
    label-propagation substrate a training pipeline builds once per corpus
    — restricted to IVF probe lists so NO stage is all-pairs: each vector's
    candidates are the members of its top-KNN_GRAPH_PROBE centroid lists
    (the same integer-exact assignment/probe math as ann_ivf_persisted,
    read from the persisted artifact), scored by exact float64 cosine,
    top-KNN_GRAPH_K kept per vector.

    Scale shape: the corpus enters once from the artifact's committed list
    files; each vector is exploded into 1 member row (its own list — free,
    ``list_id`` is already in the file) + KNN_GRAPH_PROBE prober rows, so
    the ONE shuffle is a linear groupby(cid) carrying (1+P)·N rows; each
    group is a single inverted list (members ≈ N/C + its probers) and
    computes one probers×members matmul emitting ≤ k rows per prober — the
    per-group cost is the IVF graph-construction cost itself, not an
    artifact of the plan.  Skewed lists are the degenerate shape; C scales
    with N (√N lists keeps groups √N-sized) and hot lists can be salted by
    stripe exactly like the LSH fold buckets.  The per-query merge is
    bounded at P·k candidate rows per vector."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    idx = _vector_index_for(sf_dir)
    cent_t = pq.read_table(os.path.join(idx, "centroids.parquet"))
    cent_q = _quantize(
        _embedding_matrix(cent_t.rename_columns(["vec_id", "embedding"]))
    )
    cent_ref = ray.put(cent_q)
    with open(os.path.join(idx, "meta.json")) as f:
        meta = json.load(f)
    paths = [
        os.path.join(idx, "lists", f"cid={c}", name)
        for c, names in meta["files"].items()
        for name in names
    ]
    ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding", "list_id"])

    def explode_roles(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        dots = _quantize(_embedding_matrix(batch)) @ ray.get(cent_ref).T
        # ties -> smaller cid: stable argsort on -dots (SQL: d DESC, cid)
        probe = np.argsort(-dots, axis=1, kind="stable")[:, :KNN_GRAPH_PROBE]
        ids = pc.cast(batch["vec_id"], pa.int64()).combine_chunks()
        emb = batch["embedding"].combine_chunks()
        rep = pa.array(np.repeat(np.arange(n), KNN_GRAPH_PROBE))
        member = pa.table(
            {
                "cid": pc.cast(batch["list_id"], pa.int64()),
                "role": pa.array(np.zeros(n, np.int64)),
                "vec_id": ids,
                "embedding": emb,
            }
        )
        prober = pa.table(
            {
                "cid": pa.array(probe.ravel(), pa.int64()),
                "role": pa.array(np.ones(n * KNN_GRAPH_PROBE, np.int64)),
                "vec_id": ids.take(rep),
                "embedding": emb.take(rep),
            }
        )
        return pa.concat_tables([member, prober])

    @tk.partial_topk(KNN_GRAPH_K)
    def pair_scores(group: pa.Table):
        role = group["role"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        mem = np.flatnonzero(role == 0)
        prb = np.flatnonzero(role == 1)
        if mem.size == 0 or prb.size == 0:
            return None
        mat = _normalize(_embedding_matrix(group))
        sims = mat[prb] @ mat[mem].T  # (probers, members) — one matmul
        q_ids, m_ids = ids[prb], ids[mem]
        r, c = np.nonzero(m_ids != q_ids[:, None])
        return q_ids[r], m_ids[c], sims[r, c]

    partials = (
        ds.map_batches(explode_roles, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cid")
        .map_groups(pair_scores, batch_format="pyarrow")
    )
    # a neighbor lives in exactly one list, so (query, neighbor) candidates
    # are globally unique — plain merge, no dedupe needed
    return tk.merge_topk(partials, KNN_GRAPH_K)


# ===========================================================================
# ann_pq_topk — product-quantization ANN (compressed-domain / ADC serving)
# ===========================================================================
#
# The memory-compression serving path for web-scale ANN (Jégou, Douze,
# Schmid, "Product Quantization for Nearest Neighbor Search", TPAMI 2011):
# train PQ_M per-subspace codebooks of PQ_K centroids with the same
# integer-lattice Lloyd's rounds as kmeans_embeddings, encode every vector
# to PQ_M small codes (here 8 × 3 bits ≈ 85× smaller than the float64
# rows), and answer queries by Asymmetric Distance Computation — one tiny
# query→codebook lookup table, then a pure table-gather per database
# vector.  Everything is exact int64 (quantized dots, floor-div means,
# integer LUT sums) so the DuckDB oracle replays training, encoding AND
# scoring bit-for-bit — including the ranking.

_PQ_PART_COLS = [f"s{d}" for d in range(vx.PQ_SUB)]


def _pq_train(sf_dir: str) -> np.ndarray:
    """Train the (PQ_M, PQ_K, PQ_SUB) integer codebooks: seeds are the
    first PQ_K quantized vectors' subvectors; each round streams the
    embeddings once and shuffles only ≤ PQ_M×PQ_K partial rows per block
    (count + per-dim int sums) — constant in corpus size, like kmeans."""
    import ray.data
    from ray.data.aggregate import Sum

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def seed_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["vec_id"], vx.PQ_K))

    seed = emb.map_batches(seed_rows, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    seed.sort(key=lambda r: r["vec_id"])
    assert len(seed) == vx.PQ_K, f"need vec_ids 0..{vx.PQ_K - 1} as PQ seeds"
    seed_q = np.floor(
        np.array([r["embedding"] for r in seed], np.float64) * vx.QSCALE
    ).astype(np.int64)
    cb = np.stack(
        [seed_q[:, m * vx.PQ_SUB:(m + 1) * vx.PQ_SUB] for m in range(vx.PQ_M)]
    )  # (M, K, SUB)

    aggs = [Sum("n")] + [Sum(c) for c in _PQ_PART_COLS]
    for _ in range(vx.PQ_ROUNDS):
        cb_now = cb

        def partial(t: pa.Table) -> pa.Table:
            quant = vx.quantize(_embedding_matrix(t))
            codes = vx.pq_encode(quant, cb_now)
            out_m, out_c, out_n = [], [], []
            sums = []
            for m in range(vx.PQ_M):
                sub = quant[:, m * vx.PQ_SUB:(m + 1) * vx.PQ_SUB]
                for c in np.unique(codes[:, m]):
                    mask = codes[:, m] == c
                    out_m.append(m)
                    out_c.append(int(c))
                    out_n.append(int(mask.sum()))
                    sums.append(sub[mask].sum(axis=0))
            sums_arr = np.asarray(sums, np.int64)
            cols = {
                "m": pa.array(out_m, pa.int64()),
                "cid": pa.array(out_c, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
            for d, name in enumerate(_PQ_PART_COLS):
                cols[name] = pa.array(sums_arr[:, d], pa.int64())
            return pa.table(cols)

        rows = (
            read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["m", "cid"])
            .aggregate(*aggs)
            .take_all()  # ≤ M×K rows — the per-round reduce is constant-size
        )
        new = cb.copy()  # empty codes keep their previous centroid
        for r in rows:
            n = int(r["sum(n)"])
            s = np.array([r[f"sum({c})"] for c in _PQ_PART_COLS], np.int64)
            new[int(r["m"]), int(r["cid"])] = np.floor_divide(s, n)
        cb = new
    return cb


_PQ_EMB_CTE = f"""
    WITH emb AS (
      SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(floor(x * {vx.QSCALE}) AS BIGINT)) AS q
      FROM embeddings
    )"""


def _pq_chain_sql() -> str:
    """The shared PQ CTE chain over the ``emb`` CTE: per-subspace Lloyd
    rounds (exactly the kmeans_embeddings pattern), final code assignment
    for every vector (``codes``), and the query→codebook LUT (``lut``).
    Shared verbatim by the ann_pq_topk and ann_ivfpq_persisted oracles —
    one definition, no drift (ADVICE r3 containment rule)."""
    M, K, SUB, R = vx.PQ_M, vx.PQ_K, vx.PQ_SUB, vx.PQ_ROUNDS

    def dotq(m: int, lhs: str, rhs: str) -> str:
        return " + ".join(
            f"{lhs}.q[{m * SUB + d + 1}]*{rhs}.cq[{d + 1}]" for d in range(SUB)
        )

    parts = []
    for m in range(M):
        parts.append(
            f"""
    cent0_{m} AS (
      SELECT vec_id AS cid, q[{m * SUB + 1}:{(m + 1) * SUB}] AS cq
      FROM emb WHERE vec_id < {K}
    )"""
        )
        for r in range(1, R + 1):
            mean_list = ", ".join(
                vx.fdiv_sql(f"sum(e.q[{m * SUB + d + 1}])", "count(*)")
                for d in range(SUB)
            )
            parts.append(
                f"""
    dots{r}_{m} AS (
      SELECT e.vec_id, c.cid, {dotq(m, 'e', 'c')} AS d
      FROM emb e CROSS JOIN cent{r - 1}_{m} c
    ),
    asg{r}_{m} AS (
      SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cid) AS rn
        FROM dots{r}_{m}
      ) WHERE rn = 1
    ),
    upd{r}_{m} AS (
      SELECT a.cid, [{mean_list}] AS cq
      FROM asg{r}_{m} a JOIN emb e USING (vec_id) GROUP BY a.cid
    ),
    cent{r}_{m} AS (
      SELECT c.cid, COALESCE(u.cq, c.cq) AS cq
      FROM cent{r - 1}_{m} c LEFT JOIN upd{r}_{m} u USING (cid)
    )"""
            )
        parts.append(
            f"""
    codes_{m} AS (
      SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (
                 PARTITION BY e.vec_id ORDER BY {dotq(m, 'e', 'c')} DESC, c.cid
               ) AS rn
        FROM emb e CROSS JOIN cent{R}_{m} c
      ) WHERE rn = 1
    ),
    lut_{m} AS (
      SELECT qe.vec_id AS qid, c.cid, {dotq(m, 'qe', 'c')} AS d
      FROM (SELECT vec_id, q FROM emb WHERE vec_id < {dd.ANN_NQ}) qe
      CROSS JOIN cent{R}_{m} c
    )"""
        )
    codes_union = " UNION ALL ".join(
        f"SELECT {m} AS m, vec_id, cid FROM codes_{m}" for m in range(M)
    )
    lut_union = " UNION ALL ".join(
        f"SELECT {m} AS m, qid, cid, d FROM lut_{m}" for m in range(M)
    )
    parts.append(
        f"""
    codes AS ({codes_union}),
    lut AS ({lut_union})"""
    )
    return ",".join(parts)


def _pq_sql() -> str:
    """ann_pq_topk oracle: emb + the shared PQ chain + the exhaustive ADC
    sum over every (query, vector) pair."""
    return f"""{_PQ_EMB_CTE},{_pq_chain_sql()},
    scored AS (
      SELECT l.qid AS query_id, c.vec_id AS neighbor_id,
             sum(l.d)::BIGINT AS score_q
      FROM codes c JOIN lut l ON l.m = c.m AND l.cid = c.cid
      WHERE c.vec_id != l.qid
      GROUP BY 1, 2
    )
    SELECT query_id, rank, neighbor_id, score_q FROM (
      SELECT query_id, neighbor_id, score_q,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score_q DESC, neighbor_id
             ) AS rank
      FROM scored
    ) WHERE rank <= {dd.ANN_K}"""


_PQ_PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("score_q", pa.int64())]
)
_PQ_OUT_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("rank", pa.int64()),
     ("neighbor_id", pa.int64()), ("score_q", pa.int64())]
)


@op("ann_pq_topk", _pq_sql)
def ann_pq_topk(sf_dir: str):
    """PQ/ADC top-k: queries = the first 10 vec_ids, k = 10, score = Σ_m
    LUT[q, m, code_m(v)] (exact int64 — ranks AND scores are
    hash-comparable, unlike the float cosine ops).

    Scale shape: training shuffles ≤ M×K partial rows per block per round;
    the broadcast state is the (M, K, SUB) codebook + the (NQ, M, K) LUT —
    constant in corpus size (ray.put once, read per task).  The scoring
    pass streams the corpus once: per batch one encode (M small matmuls)
    + one LUT gather per query, then a partial top-k so only k rows per
    query leave each block.  At serving scale the codes table (M bytes a
    vector) replaces the raw float rows entirely — that 85× compression
    is why PQ exists.
    """
    import ray

    cb = _pq_train(sf_dir)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # LUT from the bounded query rows (vec_id < NQ — fixture, not data)
    def q_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["vec_id"], _ANN_NQ))

    qrows = emb.map_batches(q_rows, batch_format="pyarrow",
                            zero_copy_batch=True).take_all()
    qrows.sort(key=lambda r: r["vec_id"])
    q_ids = np.array([r["vec_id"] for r in qrows], np.int64)
    q_quant = np.floor(
        np.array([r["embedding"] for r in qrows], np.float64) * vx.QSCALE
    ).astype(np.int64)
    lut = np.empty((q_ids.size, vx.PQ_M, vx.PQ_K), np.int64)
    for m in range(vx.PQ_M):
        qsub = q_quant[:, m * vx.PQ_SUB:(m + 1) * vx.PQ_SUB]
        lut[:, m, :] = qsub @ cb[m].T
    ref = ray.put((q_ids, cb, lut))

    @tk.partial_topk(_ANN_K, _PQ_PARTIAL_SCHEMA)
    def partial(batch: pa.Table):
        qi, cbk, lt = ray.get(ref)
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = vx.pq_encode(vx.quantize(_embedding_matrix(batch)), cbk)
        # ADC: scores[q, v] = Σ_m LUT[q, m, codes[v, m]]
        scores = np.zeros((qi.size, b_ids.size), np.int64)
        for m in range(vx.PQ_M):
            scores += lt[:, m, codes[:, m]]
        r, c = np.nonzero(b_ids != qi[:, None])
        return qi[r], b_ids[c], scores[r, c]

    partials = emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, _ANN_K, _PQ_OUT_SCHEMA, score="score_q")


# ===========================================================================
# ann_ivfpq_persisted — the web-scale serving index: IVF lists × PQ codes
# ===========================================================================
#
# The canonical 100 TB ANN artifact (FAISS's IVFADC, Jégou et al. TPAMI
# 2011 §IV): vectors are bucketed into IVF lists AND stored as PQ codes —
# a query probes top-P lists and ADC-scores ONLY the codes in them.  The
# serving artifact holds no raw embeddings at all: the hot path reads
# PQ_M int8-sized codes per vector (here materialized as int64 columns
# for Arrow simplicity; the information content is PQ_M × 3 bits), so the
# working set is ~85× smaller than the float rows and the probed
# partitions are the only bytes that leave storage.

_PQ_CODE_COLS = [f"code{m}" for m in range(vx.PQ_M)]


def _ivfpq_sql(cand_pred: str = "TRUE") -> str:
    """emb + the SHARED IVF candidate chain (vx.ivf_cand_ctes — the same
    fragment ann_ivf_topk's oracle embeds, so assignment/probe math can
    never drift between the twins; review finding r4) + the shared PQ
    chain, ADC-summed over probed candidates only.  ``cand_pred`` filters
    the candidate side only (tombstone semantics; ann_ivfpq_maintained)."""
    return f"""{_PQ_EMB_CTE},{vx.ivf_cand_ctes(cand_pred=cand_pred)},{_pq_chain_sql()},
    scored AS (
      SELECT cd.qid AS query_id, cd.vec_id AS neighbor_id,
             sum(l.d)::BIGINT AS score_q
      FROM cand cd
      JOIN codes c ON c.vec_id = cd.vec_id
      JOIN lut l ON l.m = c.m AND l.cid = c.cid AND l.qid = cd.qid
      GROUP BY 1, 2
    )
    SELECT query_id, rank, neighbor_id, score_q FROM (
      SELECT query_id, neighbor_id, score_q,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score_q DESC, neighbor_id
             ) AS rank
      FROM scored
    ) WHERE rank <= {dd.ANN_K}"""


def build_pq_index(
    sf_dir: str,
    out_dir: str,
    n_queries: int = _ANN_NQ,
    n_lists: int = _IVF_C,
) -> dict:
    """Build-once IVF×PQ artifact over the embeddings table:

      out_dir/codebooks.parquet   (m, cid, c0..c{SUB-1}) — the trained
                                  integer PQ codebooks (M×K rows)
      out_dir/centroids.parquet   the IVF coarse centroids (cid, embedding)
      out_dir/queries.parquet     the fixture query rows (kept out of the
                                  hot path, as in build_vector_index)
      out_dir/codes/cid=K/...     PQ CODES ONLY per vector, hive-
                                  partitioned by IVF list — the serving
                                  files carry no raw embeddings
      out_dir/meta.json           dims/counts + committed file set.

    Training streams the corpus once per Lloyd round (≤ M×K partial rows
    per block shuffle); encode+write is one more pass.  Crash-safe via
    tmp-dir + atomic rename, like build_vector_index."""
    import ray
    import pyarrow.parquet as pqt

    cb = _pq_train(sf_dir)

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(tmp)

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    dim, _q_raw, _cent_raw, cent_q = _fixture_sidecars(
        emb, tmp, n_queries, n_lists, "build_pq_index"
    )

    cb_rows = {"m": [], "cid": []}
    cb_cols = {f"c{d}": [] for d in range(vx.PQ_SUB)}
    for m in range(vx.PQ_M):
        for c in range(vx.PQ_K):
            cb_rows["m"].append(m)
            cb_rows["cid"].append(c)
            for d in range(vx.PQ_SUB):
                cb_cols[f"c{d}"].append(int(cb[m, c, d]))
    pqt.write_table(
        pa.table(
            {
                "m": pa.array(cb_rows["m"], pa.int64()),
                "cid": pa.array(cb_rows["cid"], pa.int64()),
                **{k: pa.array(v, pa.int64()) for k, v in cb_cols.items()},
            }
        ),
        os.path.join(tmp, "codebooks.parquet"),
    )

    refs = ray.put((cent_q, cb))

    def encode(t: pa.Table) -> pa.Table:
        cq, cbk = ray.get(refs)
        quant = _quantize(_embedding_matrix(t))
        lists = _ivf_assign(quant, cq)
        codes = vx.pq_encode(quant, cbk)
        cols = {"vec_id": pc.cast(t["vec_id"], pa.int64())}
        for m, name in enumerate(_PQ_CODE_COLS):
            cols[name] = pa.array(codes[:, m], pa.int64())
        cols["cid"] = pa.array(lists, pa.int64())
        cols["list_id"] = pa.array(lists, pa.int64())
        return pa.table(cols)

    n_rows = emb.count()
    emb.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        os.path.join(tmp, "codes"), partition_cols=["cid"]
    )

    meta = {
        "dim": dim,
        "n_lists": n_lists,
        "n_queries": n_queries,
        "n_vectors": int(n_rows),
        "pq_m": vx.PQ_M,
        "pq_k": vx.PQ_K,
        "qscale_log2": vx.QSCALE_LOG2,
        "files": _list_files(tmp, "codes"),
    }
    _write_meta(tmp, meta)
    os.rename(tmp, out_dir)
    return meta


def query_pq_index(
    index_dir: str, k: int = _ANN_K, n_probe: int = _IVF_PROBE
) -> "ray.data.Dataset":
    """Serve the fixture query set from the PQ artifact ALONE: sidecars →
    per-query LUT + probe set → scan ONLY the probed ``cid=`` code
    partitions (no raw embeddings anywhere in the plan) → ADC partial
    top-k per block → tiny per-query merge."""
    import ray
    import ray.data
    import pyarrow.parquet as pqt

    cb_t = pqt.read_table(os.path.join(index_dir, "codebooks.parquet"))
    cent_t = pqt.read_table(os.path.join(index_dir, "centroids.parquet"))
    q_t = pqt.read_table(os.path.join(index_dir, "queries.parquet"))
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    vx.check_meta_qscale(meta)
    M, K, SUB = int(meta["pq_m"]), int(meta["pq_k"]), vx.PQ_SUB

    cb = np.zeros((M, K, SUB), np.int64)
    ms = cb_t["m"].to_numpy(zero_copy_only=False)
    cs = cb_t["cid"].to_numpy(zero_copy_only=False)
    for d in range(SUB):
        cb[ms, cs, d] = cb_t[f"c{d}"].to_numpy(zero_copy_only=False)

    cent_q = _quantize(_embedding_matrix(cent_t.rename_columns(["vec_id", "embedding"])))
    q_ids = q_t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    q_quant = _quantize(_embedding_matrix(q_t))
    n_lists = cent_t.num_rows

    lut = np.empty((q_ids.size, M, K), np.int64)
    for m in range(M):
        lut[:, m, :] = q_quant[:, m * SUB:(m + 1) * SUB] @ cb[m].T

    q_dots = q_quant @ cent_q.T
    probe = np.argsort(-q_dots, axis=1, kind="stable")[:, :n_probe]
    probe_masks = np.zeros((q_ids.size, n_lists), dtype=bool)
    for r in range(q_ids.size):
        probe_masks[r, probe[r]] = True
    probed_cids = sorted(set(int(c) for c in probe.ravel()))

    paths = [
        os.path.join(index_dir, "codes", f"cid={c}", name)
        for c in probed_cids
        for name in meta["files"].get(str(c), [])
    ]
    if not paths:
        return ray.data.from_arrow(_PQ_OUT_SCHEMA.empty_table())
    ds = ray.data.read_parquet(paths, columns=["vec_id", *_PQ_CODE_COLS, "list_id"])
    ref = ray.put((q_ids, lut, probe_masks, _load_tombstones(index_dir, meta)))

    @tk.partial_topk(k, _PQ_PARTIAL_SCHEMA)
    def partial(batch: pa.Table):
        qi, lt, pm, tombs = ray.get(ref)
        batch = _drop_tombstoned(batch, tombs)
        if batch.num_rows == 0:
            return None
        b_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lids = batch["list_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.stack(
            [batch[c].to_numpy(zero_copy_only=False) for c in _PQ_CODE_COLS], axis=1
        ).astype(np.int64)
        scores = np.zeros((qi.size, b_ids.size), np.int64)
        for m in range(lt.shape[1]):
            scores += lt[:, m, codes[:, m]]
        r, c = np.nonzero(pm[:, lids] & (b_ids != qi[:, None]))
        return qi[r], b_ids[c], scores[r, c]

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return tk.merge_topk(partials, k, _PQ_OUT_SCHEMA, score="score_q")


_PQINDEX_CACHE: dict[str, str] = {}


def _pq_index_for(sf_dir: str) -> str:
    return _artifact_for(_PQINDEX_CACHE, "pqidx", build_pq_index, sf_dir)


_PQMAINT_CACHE: dict[str, str] = {}


def _maintained_pq_for(sf_dir: str) -> str:
    """build_pq_index + the full maintenance cycle (streamed
    delete_vectors of vec_id ≡ _MAINT_RES mod _MAINT_MOD, then
    compact_vector_index) — own cache prefix, the shared pqidx artifact
    is never mutated.  Codebooks and coarse centroids are trained at
    build time over the FULL corpus and survive maintenance untouched,
    exactly like the IVF centroid sidecar."""

    def build(sf, out):
        build_pq_index(sf, out)

        delete_vectors(out, _doomed_stream(sf))
        compact_vector_index(out)

    return _artifact_for(_PQMAINT_CACHE, "pqmaint", build, sf_dir)


def _ivfpq_maint_sql() -> str:
    return _ivfpq_sql(
        cand_pred=f"(a.vec_id % {_MAINT_MOD}) != {_MAINT_RES}"
    )


@op("ann_ivfpq_maintained", _ivfpq_maint_sql)
def ann_ivfpq_maintained(sf_dir: str):
    """ann_ivf_maintained's PQ twin: ADC top-k served from the CODES
    artifact after a streamed delete + compaction — on the PQ side the
    compactor re-partitions code rows by the ``list_id`` they carry, so
    maintenance never touches raw embeddings (the property that matters
    when the raw vectors no longer exist anywhere at serving time).  SQL
    twin: the shared IVF candidate chain with retired ids excluded, then
    the full PQ training/ADC replay."""
    return query_pq_index(_maintained_pq_for(sf_dir))


@op("ann_ivfpq_persisted", _ivfpq_sql)
def ann_ivfpq_persisted(sf_dir: str):
    """IVF×PQ serving from the persisted artifact: probe the top-8 lists,
    ADC-score ONLY their code rows, exact integer ranking — the shape a
    256-node cluster actually serves 100 TB of vectors with.  The query
    plan touches sidecars + probed ``cid=`` partitions of PQ codes; raw
    embeddings appear nowhere after the build.  The SQL twin replays IVF
    assignment/probing AND the full PQ training chain bit-for-bit."""
    return query_pq_index(_pq_index_for(sf_dir))


# ===========================================================================
# cluster_top_terms — corpus data map: embed → k-means → label clusters
# ===========================================================================
#
# The domain-discovery step real training pipelines run before choosing a
# data mix (cluster the corpus in embedding space, then read each cluster
# through its most characteristic vocabulary).  Composes three subsystems
# end-to-end: the HashEmbedder stage, the integer-exact Lloyd's machinery
# (kmeans_embeddings' recipe, re-instantiated over DERIVED doc vectors),
# and the tokenizer — with one SQL twin replaying the whole chain.

_CTT_K = 6        # clusters (≠ KMEANS_K / IVF_C so fixtures differ)
_CTT_ROUNDS = 2   # Lloyd rounds (fixed → SQL-replayable)
_CTT_TOP = 5      # terms reported per cluster


def _ctt_sql() -> str:
    """emb (the embedder's bit-exact twin) → quantized doc lattice →
    _CTT_ROUNDS Lloyd rounds (kmeans_embeddings' CTE pattern) → final
    assignment → per-cluster term counts → top-_CTT_TOP terms."""
    K, R, DIM = _CTT_K, _CTT_ROUNDS, EMBED_DIM
    dot = " + ".join(f"e.q[{d + 1}]*c.cq[{d + 1}]" for d in range(DIM))
    parts = [
        f"""
    WITH emb AS ({_embed_sql()}),
    qemb AS (
      SELECT doc_id,
             list(CAST(floor(val * {vx.QSCALE}) AS BIGINT) ORDER BY dim) AS q
      FROM emb GROUP BY doc_id
    ),
    cent0 AS (SELECT doc_id AS cid, q AS cq FROM qemb WHERE doc_id < {K})"""
    ]
    for r in range(1, R + 1):
        mean_list = ", ".join(
            vx.fdiv_sql(f"sum(e.q[{d + 1}])", "count(*)") for d in range(DIM)
        )
        parts.append(
            f"""
    dots{r} AS (
      SELECT e.doc_id, c.cid, {dot} AS d FROM qemb e CROSS JOIN cent{r - 1} c
    ),
    asg{r} AS (
      SELECT doc_id, cid FROM (
        SELECT doc_id, cid,
               row_number() OVER (PARTITION BY doc_id ORDER BY d DESC, cid) AS rn
        FROM dots{r}
      ) WHERE rn = 1
    ),
    upd{r} AS (
      SELECT a.cid, [{mean_list}] AS cq
      FROM asg{r} a JOIN qemb e USING (doc_id) GROUP BY a.cid
    ),
    cent{r} AS (
      SELECT c.cid, COALESCE(u.cq, c.cq) AS cq
      FROM cent{r - 1} c LEFT JOIN upd{r} u USING (cid)
    )"""
        )
    parts.append(
        f"""
    fdots AS (
      SELECT e.doc_id, c.cid, {dot} AS d FROM qemb e CROSS JOIN cent{R} c
    ),
    fasg AS (
      SELECT doc_id, cid AS cluster_id FROM (
        SELECT doc_id, cid,
               row_number() OVER (PARTITION BY doc_id ORDER BY d DESC, cid) AS rn
        FROM fdots
      ) WHERE rn = 1
    ),
    toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tc AS (
      SELECT a.cluster_id, t.term, count(*)::BIGINT AS n_occurrences
      FROM toks t JOIN fasg a USING (doc_id) GROUP BY 1, 2
    ),
    nd AS (SELECT cluster_id, count(*)::BIGINT AS n_docs FROM fasg GROUP BY 1)
    SELECT r.cluster_id, r.rank, r.term, r.n_occurrences, nd.n_docs
    FROM (
      SELECT cluster_id, term, n_occurrences,
             row_number() OVER (
               PARTITION BY cluster_id ORDER BY n_occurrences DESC, term
             ) AS rank
      FROM tc
    ) r JOIN nd USING (cluster_id)
    WHERE r.rank <= {_CTT_TOP}"""
    )
    return ",".join(parts)


_CTT_PART_COLS = [f"s{d:02d}" for d in range(EMBED_DIM)]
_CTT_OUT = pa.schema(
    [("cluster_id", pa.int64()), ("rank", pa.int64()), ("term", pa.string()),
     ("n_occurrences", pa.int64()), ("n_docs", pa.int64())]
)
_CTT_TC = pa.schema(
    [("cluster_id", pa.int64()), ("term", pa.string()),
     ("n_occurrences", pa.int64())]
)


@op("cluster_top_terms", _ctt_sql)
def cluster_top_terms(sf_dir: str):
    """Corpus data map: HashEmbedder doc vectors → integer-exact Lloyd's
    k-means (K=6, seeds = docs 0..K-1, quantized lattice dots,
    floor-div means) → each cluster labeled by its top terms
    (count desc, term asc) plus its document count.

    Scale shape: per Lloyd round only K×(dim+2) partial rows per block
    shuffle and the driver holds the K×dim centroid matrix
    (kmeans_embeddings' recipe — the vectors are re-derived streaming
    each round, nothing pinned); the term profile joins the bounded
    (doc → cluster) assignment into the token stream with ONE hash join,
    pre-aggregates (cluster, term) per batch, and caps the vocabulary
    shuffle's output with per-batch partial top-k before the final
    per-cluster merge — only K×top×blocks candidate rows survive."""
    import ray
    from ray.data.aggregate import Sum

    K, R, TOP = _CTT_K, _CTT_ROUNDS, _CTT_TOP

    seed_rows = (
        document_vectors(sf_dir)
        .map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], K)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()  # bounded: K rows
    )
    seed_rows.sort(key=lambda r: int(r["doc_id"]))
    if len(seed_rows) != K:
        raise ValueError(f"cluster_top_terms: need doc_ids 0..{K - 1} as seeds")
    cent_q = vx.quantize(
        np.array([r["embedding"] for r in seed_rows], np.float64)
    )

    def partials(cq: np.ndarray):
        def fn(batch: pa.Table) -> pa.Table:
            quant = vx.quantize(vx.embedding_matrix(batch))
            asg = vx.ivf_assign(quant, cq)
            cids = np.unique(asg)
            counts = np.empty(cids.size, np.int64)
            sums = np.empty((cids.size, EMBED_DIM), np.int64)
            for i, c in enumerate(cids):
                m = asg == c
                counts[i] = int(m.sum())
                sums[i] = quant[m].sum(axis=0)
            cols = {"cid": pa.array(cids), "n": pa.array(counts)}
            for d, name in enumerate(_CTT_PART_COLS):
                cols[name] = pa.array(sums[:, d], pa.int64())
            return pa.table(cols)

        return fn

    aggs = [Sum("n")] + [Sum(c) for c in _CTT_PART_COLS]
    for _ in range(R):
        rows = (
            document_vectors(sf_dir)
            .map_batches(partials(cent_q), batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("cid")
            .aggregate(*aggs)
            .take_all()  # K rows — constant-size per-round reduce
        )
        new = cent_q.copy()  # empty clusters keep their previous centroid
        for r in rows:
            n = int(r["sum(n)"])
            s = np.array([r[f"sum({c})"] for c in _CTT_PART_COLS], np.int64)
            new[int(r["cid"])] = np.floor_divide(s, n)
        cent_q = new

    final = cent_q

    def assign(batch: pa.Table) -> pa.Table:
        quant = vx.quantize(vx.embedding_matrix(batch))
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "cluster_id": pa.array(vx.ivf_assign(quant, final)),
            }
        )

    # two consumers (n_docs + the token join): checkpoint the bounded
    # (doc_id, cluster_id) projection once instead of re-embedding per
    # consumer — 16 bytes/doc in the object store, never on the driver
    asg = document_vectors(sf_dir).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_docs = {
        int(r["cluster_id"]): int(r["count()"])
        for r in asg.groupby("cluster_id").count().take_all()  # ≤ K rows
    }

    from .util import join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    labeled = join(
        docs, asg, ("doc_id",), "inner",
        pa.schema(
            [("doc_id", pa.int64()), ("text", pa.string()), ("cluster_id", pa.int64())]
        ),
    )

    def term_partial(t: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(t["text"])
        cl = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = (
            pa.table({"cluster_id": pa.array(cl[parent]), "term": flat})
            .group_by(["cluster_id", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "cluster_id": g["cluster_id"],
                "term": g["term"],
                "n_occurrences": pc.cast(g["count_all"], pa.int64()),
            },
            schema=_CTT_TC,
        )

    def batch_topk(t: pa.Table) -> pa.Table:
        # per-batch partial top-k per cluster: only K×TOP rows per block
        # survive into the final merge (top_terms_per_lang's cap rule)
        out = []
        for cid in pc.unique(t["cluster_id"]).to_pylist():
            sub = t.filter(pc.equal(t["cluster_id"], cid))
            n = sub["n_occurrences"].to_numpy(zero_copy_only=False)
            terms = sub["term"].to_pylist()
            order = sorted(range(len(terms)), key=lambda i: (-n[i], terms[i]))
            out.append(sub.take(pa.array(order[:_CTT_TOP])))
        return pa.concat_tables(out).cast(_CTT_TC)

    def merge(g: pa.Table) -> pa.Table:
        n = g["n_occurrences"].to_numpy(zero_copy_only=False)
        terms = g["term"].to_pylist()
        order = sorted(range(len(terms)), key=lambda i: (-n[i], terms[i]))[:_CTT_TOP]
        cid = int(g["cluster_id"][0].as_py())
        return pa.table(
            {
                "cluster_id": pa.array([cid] * len(order), pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1)),
                "term": pa.array([terms[i] for i in order], pa.string()),
                "n_occurrences": pa.array(n[order], pa.int64()),
                "n_docs": pa.array([n_docs.get(cid, 0)] * len(order), pa.int64()),
            },
            schema=_CTT_OUT,
        )

    return (
        labeled.map_batches(term_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
        .groupby(["cluster_id", "term"])
        .aggregate(Sum("n_occurrences"))
        .map_batches(
            lambda t: pa.table(
                {
                    "cluster_id": pc.cast(t["cluster_id"], pa.int64()),
                    "term": t["term"],
                    "n_occurrences": pc.cast(t["sum(n_occurrences)"], pa.int64()),
                },
                schema=_CTT_TC,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .map_batches(batch_topk, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster_id")
        .map_groups(merge, batch_format="pyarrow")
    )
