"""Flagship pipeline 2: BM25 top-k query engine (SURVEY.md §3.2, A2/Q1-Q3/K1).

(ref: n/a, SURVEY.md §0 — reference checkout empty; contract BASELINE.json:6:
"BM25 top-k query engine using block-max WAND over the materialized index".)

Execution model: the *query* dataset flows through an actor pool
(``map_batches(ScorerActor, concurrency=N)``); each actor loads stats + the
segment tables ONCE in ``__init__`` and answers every query in a batch
locally — one query never crosses workers (its few posting lists are
co-resident), parallelism is across queries.

Determinism (rank-identity contract, BASELINE.json:14): scores are float64;
per doc, term contributions are accumulated in SORTED-TERM order — the
exhaustive DAAT path and the WAND/BMW interval scorer both sum term-major
with np.add.at, reproducing the oracle's summation order bit-for-bit.  Ties
break (score desc, doc_id asc).

Scorers:
  daat : exhaustive document-at-a-time, fully vectorized (numpy gather+add).
  bmw  : block-max WAND (Ding & Suel, SIGIR 2011), vectorized: the union of
         the terms' block starts cuts the doc-id space into intervals bounded
         by the sum of their per-block maxes; the best intervals seed a
         threshold, then only intervals whose bound reaches it are scored
         (score_block_max).
  wand : WAND (Broder et al., CIKM 2003): the same scorer with one block per
         term, bounded by the term's overall max.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..functions.bm25 import top_k_with_ties
from ..functions.codecs import decode_docids, decode_values
from ..functions.hashing import polyhash_column
from ..functions.text import tokenize

# relative slack on WAND/BMW upper bounds: bounds and scores are both float64
# sums taken in different orders, so a strict comparison could drop a doc that
# ties the threshold within rounding; the slack keeps skipping conservative.
_UB_EPS = 1e-9


class _TermPostings:
    """One segment row, loaded lazily: the bucket table's Arrow buffers are
    shared; bytes are copied out only when this term is actually queried
    (keeps actor init metadata-only — important for pool spin-up time)."""

    __slots__ = ("df", "_tbl", "_row")

    def __init__(self, df, tbl, row):
        self.df = df
        self._tbl = tbl
        self._row = row

    @property
    def docids(self):
        return self._tbl["docids"][self._row].as_py()

    @property
    def tfs(self):
        return self._tbl["tfs"][self._row].as_py()

    @property
    def dls(self):
        return self._tbl["dls"][self._row].as_py()

    @property
    def positions(self):
        return self._tbl["positions"][self._row].as_py()

    @property
    def blk_first(self):
        return self._tbl["block_first_docid"][self._row].values.to_numpy()

    @property
    def blk_max(self):
        return self._tbl["block_max_tfnorm"][self._row].values.to_numpy()


@ray.remote
def _load_bucket_table(seg_root: str, bucket: int):
    """Load one bucket's segment rows into the OBJECT STORE (plasma): every
    same-node scorer actor then maps the same physical buffers zero-copy
    instead of each re-reading + re-decoding the parquet — N actors share
    ONE copy of the raw index bytes (VERDICT r1 item 2)."""
    part = os.path.join(seg_root, f"term_bucket={bucket}")
    files = sorted(glob.glob(os.path.join(part, "*.parquet")))
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()


def shared_segment_refs(build_dir: str) -> dict[int, "ray.ObjectRef"]:
    """One plasma ObjectRef per term bucket (parallel load tasks)."""
    with open(os.path.join(build_dir, "stats.json")) as f:
        n_buckets = int(json.load(f)["n_buckets"])
    seg_root = os.path.join(build_dir, "stage=segments")
    return {
        b: _load_bucket_table.remote(seg_root, b) for b in range(n_buckets)
    }


class ScorerActor:
    """Stateful scorer: one instance per pool actor; state loaded once.

    ``preload=True`` pins every segment row in memory (fits easily at sandbox
    scale; at 10^12-doc scale set ``preload=False`` for lazy per-bucket
    parquet reads with row-group pruning on the sorted ``term`` column).
    ``bucket_refs`` (from :func:`shared_segment_refs`) swaps the per-actor
    parquet read for zero-copy plasma mapping of bucket tables shared by
    every actor on the node.
    """

    def __init__(
        self,
        build_dir: str,
        k: int = 10,
        scorer: str = "daat",
        preload: bool = True,
        scoring=None,
        tokenize_fn=None,
        allowed_ref=None,
        facet: tuple[str, str] | None = None,
        doc_shard: int | None = None,
        bucket_refs: dict[int, "ray.ObjectRef"] | None = None,
    ):
        """``allowed_ref``: optional ``ray.put`` ObjectRef of a sorted int64
        doc-id array — every query this actor answers is restricted to that
        facet (broadcast once per actor, not per batch).

        ``facet``: ``(column, value)`` alternative that needs NO driver-side
        id materialization at all — each actor derives the allowed doc-id
        set itself from the index's docvec checkpoint (column-pruned
        parquet read, predicate pushed to the scan).  Per-actor memory is
        one int64 array over the facet; at 10^12-doc scale the facet set
        would instead be stored as facet postings next to the segments.

        ``doc_shard``: on a doc-sharded index (BuildConfig.doc_shards), load
        ONLY this shard's segment rows — the actor owns one complete
        per-doc-range slice (every term present), so its top-k is exact for
        its range and a tiny cross-shard merge yields the global top-k
        (run_queries_sharded)."""
        from ..functions.scoring import Bm25Scoring

        # fail fast on an index that is mid-maintenance: update/delete/
        # compact remove the segments manifest BEFORE touching stats or
        # segment files (crash-safe ordering, build.py) — loading now
        # would pair new stats with old segments, the exact WAND/BMW
        # mis-pruning hazard that ordering exists to prevent.  Actors
        # constructed before the maintenance keep serving their loaded
        # state; only NEW loads are refused.
        if not os.path.exists(os.path.join(build_dir, "manifests", "segments.json")):
            raise ValueError(
                f"{build_dir}: segments manifest absent — the index is "
                "incomplete or an update/delete/compact is in flight; retry "
                "when it completes (or rebuild if it crashed mid-write)"
            )
        with open(os.path.join(build_dir, "stats.json")) as f:
            self.stats = json.load(f)
        # dense-id upper bound: after tombstoned incremental updates the id
        # space exceeds the live doc count (ids are never reused)
        self.id_space = int(self.stats.get("id_space") or self.stats["n_docs"])
        self.k = k
        self.scorer = scorer
        # §2.11 extension hooks: scoring model + query tokenizer.  A model
        # whose upper_bound_valid is False can't use the stored BM25 block
        # maxes — such models always take the exhaustive DAAT path.
        self.scoring = scoring or Bm25Scoring(
            k1=self.stats["k1"], b=self.stats["b"]
        )
        self.tokenize_fn = tokenize_fn or tokenize
        if allowed_ref is not None:
            import ray as _ray

            self.allowed = np.asarray(_ray.get(allowed_ref), dtype=np.int64)
        elif facet is not None:
            col, val = facet
            t = pq.read_table(
                os.path.join(build_dir, "stage=docvec"),
                columns=["doc_id", col],
                filters=[(col, "==", val)],
            )
            self.allowed = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
        else:
            self.allowed = None
        self.build_dir = build_dir
        self.n_buckets = int(self.stats["n_buckets"])
        # block-max slack for bucket-scoped incremental updates: untouched
        # buckets keep maxes computed under an older avgdl (bm_avgdl_lo =
        # smallest encode-time avgdl among live segments).  For any dl, tf:
        # tf_norm(avgdl') ≤ tf_norm(avgdl0) · max(1, avgdl'/avgdl0) — the
        # BM25 length normalizer k1·(1−b+b·dl/avgdl) shrinks by at most
        # factor avgdl0/avgdl' when avgdl grows — so scaling stored maxes
        # by this keeps WAND/BMW upper bounds valid (exact scores are always
        # recomputed from the stored tf/dl under the CURRENT avgdl; rank
        # identity is unaffected, only skip tightness).  build.py caps the
        # drift at _BM_SLACK_LIMIT before falling back to a full re-encode.
        _avgdl = float(self.stats["avgdl"]) or 1.0
        self.bm_slack = max(
            1.0, _avgdl / (float(self.stats.get("bm_avgdl_lo") or _avgdl) or 1.0)
        )
        self.doc_shard = doc_shard
        if doc_shard is not None:
            n_shards = self.stats.get("doc_shards")
            if not n_shards:
                raise ValueError("doc_shard requested but the index is not doc-sharded")
            if not (0 <= doc_shard < int(n_shards)):
                # an out-of-range shard would filter every segment row away
                # and silently answer all queries with empty results
                raise ValueError(
                    f"doc_shard {doc_shard} out of range for index with "
                    f"{n_shards} shards"
                )
        self.seg_root = os.path.join(build_dir, "stage=segments")
        self.bucket_refs = bucket_refs
        from collections import OrderedDict

        self._terms: dict[str, list[_TermPostings]] = {}
        self._global_df: dict[str, int] = {}  # sharded mode: corpus-wide df
        self._loaded_buckets: set[int] = set()
        self._decoded: OrderedDict[str, tuple] = OrderedDict()
        self._contribs: OrderedDict[str, tuple] = OrderedDict()
        self._cached_postings = 0
        if preload:
            for b in range(self.n_buckets):
                self._load_bucket(b)

    # ---- segment access ---------------------------------------------------
    def _load_bucket(self, bucket: int) -> None:
        if bucket in self._loaded_buckets:
            return
        self._loaded_buckets.add(bucket)
        if self.bucket_refs is not None:
            import ray as _ray

            ref = self.bucket_refs.get(bucket)
            t = _ray.get(ref) if ref is not None else None  # zero-copy plasma map
            if t is None:
                return
        else:
            part = os.path.join(self.seg_root, f"term_bucket={bucket}")
            files = sorted(glob.glob(os.path.join(part, "*.parquet")))
            if not files:
                return
            t = pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()
        if self.doc_shard is not None:
            # idf needs GLOBAL df: aggregate the (term, df) metadata across
            # ALL shards' rows (vocab-sized) before dropping other shards'
            # payload rows
            g = (
                t.select(["term", "df"])
                .group_by("term")
                .aggregate([("df", "sum")])
            )
            for term, df in zip(g["term"].to_pylist(), g["df_sum"].to_pylist()):
                self._global_df[term] = int(df)
            t = t.filter(
                pc.equal(t["salt_idx"], pa.scalar(self.doc_shard, pa.int32()))
            ).combine_chunks()
        # only the small metadata columns are materialized at load time; the
        # posting payload stays in the shared Arrow buffers (lazy per term)
        terms = t["term"].to_pylist()
        dfs = t["df"].to_pylist()
        salt = t["salt_idx"].to_pylist()
        order = sorted(range(len(terms)), key=lambda i: (terms[i], salt[i]))
        for i in order:
            self._terms.setdefault(terms[i], []).append(_TermPostings(dfs[i], t, i))

    def _term_rows(self, term: str) -> list[_TermPostings] | None:
        """term → its segment rows (salt order), loading the term's bucket
        first; the hash is skipped once every bucket is loaded."""
        if len(self._loaded_buckets) < self.n_buckets:
            # int() BEFORE the mod: numpy uint64 % python int silently promotes
            # to float64 and rounds the 64-bit hash (wrong bucket)
            self._load_bucket(int(polyhash_column(pa.array([term]))[0]) % self.n_buckets)
        return self._terms.get(term)

    # decoded-postings LRU: repeated query terms (stopword-like identifiers
    # dominate real query logs) skip varbyte re-decode.  Budget counts
    # postings, not entries, so a few huge lists can't blow the heap.
    _CACHE_MAX_POSTINGS = 20_000_000

    def _postings(self, term: str, need_blocks: bool = True):
        """term → (df_total, docids, tfs, dls, blk_first, blk_max) or None.

        Multi-row terms (unmerged salted partials) concatenate in salt order —
        partials cover disjoint ascending doc-id ranges by construction.
        ``need_blocks=False`` (DAAT path) skips materializing the block
        skip-pointer arrays, which only WAND/BMW consume.
        """
        hit = self._decoded.get(term)
        if hit is not None and (hit[4] is not None or not need_blocks):
            self._decoded.move_to_end(term)
            return hit
        rows = self._term_rows(term)
        if not rows:
            return None
        if hit is not None:  # decoded before without blocks; add them now
            df, docids, tfs, dls = hit[:4]
        else:
            df = (
                self._global_df[term]
                if self.doc_shard is not None
                else sum(r.df for r in rows)
            )
            docids = np.concatenate([decode_docids(r.docids) for r in rows])
            tfs = np.concatenate([decode_values(r.tfs) for r in rows])
            dls = np.concatenate([decode_values(r.dls) for r in rows])
            self._cached_postings += docids.size
        if need_blocks:
            blk_first = np.concatenate([r.blk_first for r in rows])
            blk_max = np.concatenate([r.blk_max for r in rows])
        else:
            blk_first = blk_max = None
        out = (df, docids, tfs, dls, blk_first, blk_max)
        self._decoded[term] = out
        while self._cached_postings > self._CACHE_MAX_POSTINGS and self._decoded:
            _t, old = self._decoded.popitem(last=False)
            self._cached_postings -= old[1].size
        return out

    # ---- positional access (phrase queries) -------------------------------
    def _postings_pos(self, term: str):
        """term → (docids, per-posting offsets, flat positions) or None.

        Requires a positional build (BuildConfig.positions); raises on an
        index without stored positions.  Multi-row terms concatenate in
        salt order like _postings (disjoint ascending doc ranges)."""
        from ..functions.codecs import decode_positions

        rows = self._term_rows(term)
        if not rows:
            return None
        docids_parts, tf_parts, pos_parts = [], [], []
        for r in rows:
            blob = r.positions
            if not blob:
                raise ValueError(
                    "phrase query on an index built without positions — "
                    "rebuild with BuildConfig(positions=True)"
                )
            d = decode_docids(r.docids)
            tf = decode_values(r.tfs)
            docids_parts.append(d)
            tf_parts.append(tf)
            pos_parts.append(decode_positions(blob, tf))
        docids = np.concatenate(docids_parts)
        tfs = np.concatenate(tf_parts)
        off = np.concatenate([[0], np.cumsum(tfs)]).astype(np.int64)
        return docids, off, np.concatenate(pos_parts)

    def phrase_occurrences(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Exact-phrase match via the positional index: (doc_ids,
        occurrence counts) of docs containing the phrase's tokens at
        CONSECUTIVE positions in the filtered token stream (the same
        adjacency the bigram/shingle oracle uses).

        Candidates come from the doc-id intersection of the phrase terms'
        posting lists — never a corpus scan; the positional verify then
        intersects per-doc position sets term by term (pos(term_i) − i)."""
        terms = self.tokenize_fn(text)  # in phrase order, duplicates kept
        if not terms:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        plists = []
        for term in terms:
            p = self._postings_pos(term)
            if p is None:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            plists.append(p)
        cand = plists[0][0]
        for d, _, _ in plists[1:]:
            # both sorted ascending unique → searchsorted membership
            pos = np.searchsorted(d, cand)
            pos[pos == d.size] = 0
            cand = cand[d[pos] == cand]
            if cand.size == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        out_docs, out_n = [], []
        for doc in cand:
            match = None
            for i, (d, off, flat) in enumerate(plists):
                j = int(np.searchsorted(d, doc))
                p = flat[off[j] : off[j + 1]] - i  # shift to phrase start
                match = p if match is None else np.intersect1d(match, p, assume_unique=True)
                if match.size == 0:
                    break
            if match is not None and match.size:
                out_docs.append(int(doc))
                out_n.append(int(match.size))
        return (
            np.array(out_docs, dtype=np.int64),
            np.array(out_n, dtype=np.int64),
        )

    def proximity_count(self, text: str, window: int) -> int:
        """Unordered within-window match: the number of docs containing
        ALL of the query's distinct terms with min cover span (max chosen
        position − min chosen position, positions in the same filtered
        token stream the phrase verify uses) ≤ ``window``.

        Candidates come from the posting doc-id intersection — never a
        corpus scan; the verify runs the classic smallest-range-covering-
        k-lists two-pointer per candidate doc, O(occurrences) each."""
        terms = list(dict.fromkeys(self.tokenize_fn(text)))
        if not terms:
            return 0
        plists = []
        for term in terms:
            p = self._postings_pos(term)
            if p is None:
                return 0
            plists.append(p)
        cand = plists[0][0]
        for d, _, _ in plists[1:]:
            pos = np.searchsorted(d, cand)
            pos[pos == d.size] = 0
            cand = cand[d[pos] == cand]
            if cand.size == 0:
                return 0
        if len(plists) == 1:
            return int(cand.size)  # single term: span 0 ≤ any window
        n = 0
        k = len(plists)
        for doc in cand:
            evs = []
            for i, (d, off, flat) in enumerate(plists):
                j = int(np.searchsorted(d, doc))
                ps = flat[off[j] : off[j + 1]].astype(np.int64)
                evs.append(
                    np.stack([ps, np.full(ps.size, i, dtype=np.int64)], axis=1)
                )
            ev = np.concatenate(evs)
            ev = ev[np.argsort(ev[:, 0], kind="stable")]
            if _min_cover_span(ev, k) <= window:
                n += 1
        return n

    # ---- scoring ----------------------------------------------------------
    def _contrib(self, term: str):
        """term → (docids, per-posting score contribution) — contribution =
        idf·tf_norm is QUERY-INDEPENDENT, so it is computed once per term
        per actor (LRU shared with the decoded-postings budget)."""
        hit = self._contribs.get(term)
        if hit is not None:
            self._contribs.move_to_end(term)
            return hit
        p = self._postings(term, need_blocks=False)
        if p is None:
            return None
        df, docids, tfs, dls, _, _ = p
        contrib = self.scoring.idf(df, self.stats["n_docs"]) * self.scoring.tf_norm(
            tfs, dls, self.stats["avgdl"]
        )
        out = (docids, contrib)
        self._contribs[term] = out
        self._cached_postings += docids.size
        while self._cached_postings > self._CACHE_MAX_POSTINGS and self._contribs:
            _t, old = self._contribs.popitem(last=False)
            self._cached_postings -= old[0].size
        return out

    # dense-accumulator DAAT is used while n_docs * 8 bytes fits comfortably
    # in a worker heap; past that (multi-hundred-million-doc partitions) the
    # sparse unique/scatter path takes over
    _DENSE_MAX_DOCS = 16_000_000

    def _score_query_daat(self, terms: list[str], allowed: np.ndarray | None = None):
        """Exhaustive DAAT, vectorized. Accumulation in sorted-term order
        (term-major — per doc this IS sorted-term-order float64 summation,
        bit-identical to the oracle).  ``allowed`` filters candidates BEFORE
        the top-k cut (filtered-search semantics)."""
        n = self.id_space
        plists = []
        for term in terms:  # terms already sorted unique
            pc_ = self._contrib(term)
            if pc_ is None:
                continue
            plists.append(pc_)
        if not plists:
            return np.empty(0, dtype=np.int64), np.empty(0)
        total = sum(d.size for d, _ in plists)
        # dense accumulator only when the candidate volume justifies touching
        # an n_docs-sized buffer; tail-term queries stay on the sparse path
        if n <= self._DENSE_MAX_DOCS and total >= max(4096, n // 16):
            scores = np.zeros(n, dtype=np.float64)
            for docids, contrib in plists:
                scores[docids] += contrib  # doc ids are unique within a term
            hit = np.flatnonzero(scores > 0.0)  # BM25 contributions are > 0
            if allowed is not None:
                # both sides sorted unique → searchsorted membership, no sort
                pos = np.searchsorted(allowed, hit)
                pos[pos == allowed.size] = 0
                hit = hit[allowed[pos] == hit]
            return top_k_with_ties(hit, scores[hit], self.k)
        uniq, scores = _sum_by_doc(
            np.concatenate([d for d, _ in plists]), np.concatenate([c for _, c in plists])
        )
        if allowed is not None:
            pos = np.searchsorted(allowed, uniq)
            pos[pos == allowed.size] = 0
            keep = allowed[pos] == uniq
            uniq, scores = uniq[keep], scores[keep]
        return top_k_with_ties(uniq, scores, self.k)

    def _score_query_wand(self, terms: list[str], use_block_max: bool):
        """WAND / block-max WAND via :func:`score_block_max`. WAND is the
        same scorer with one block per term, bounded by the term's max."""
        lists = []
        for term in terms:
            p = self._postings(term)
            if p is None:
                continue
            df, docids, _tfs, _dls, blk_first, blk_max = p
            bound = self.scoring.idf(df, self.stats["n_docs"]) * self.bm_slack * blk_max
            if not use_block_max:
                blk_first, bound = docids[:1], bound.max(initial=0.0, keepdims=True)
            lists.append((docids, self._contrib(term)[1], blk_first, bound))
        return score_block_max(lists, self.k)[:2]

    # crossover for the "auto" scorer: vectorized exhaustive DAAT costs
    # ~10ns/posting (numpy gather+add); the interval BMW scorer adds fixed
    # per-query work (interval bounds, two scoring passes) that only pays
    # once the candidate volume is large AND bounds prune most of it.  This
    # value was tuned for a per-pivot Python loop; the crossover against
    # score_block_max has not been re-measured yet.
    AUTO_DAAT_MAX_POSTINGS = 5_000_000

    def _df_total(self, terms: list[str]) -> int:
        return sum(r.df for term in terms for r in self._term_rows(term) or ())

    def score_query(self, text: str, allowed: np.ndarray | None = None):
        """Rank top-k for one query; ``allowed`` (optional SORTED unique
        int64 doc-id array, e.g. a facet like lang=py) restricts RESULTS to
        that subset while keeping collection statistics (df, avgdl) global —
        standard filtered-search semantics.

        Faceted queries always take the exhaustive-DAAT path: the stored
        block maxes bound UNfiltered scores, so WAND/BMW skipping cannot be
        applied to a filtered candidate set without facet-aware bounds (a
        requested wand/bmw scorer is intentionally ignored here)."""
        terms = sorted(set(self.tokenize_fn(text)))
        scorer = self.scorer
        if not self.scoring.upper_bound_valid:
            scorer = "daat"  # stored block maxes are BM25-specific
        if allowed is not None:
            if allowed.size == 0:
                return np.empty(0, dtype=np.int64), np.empty(0)
            return self._score_query_daat(terms, allowed=allowed)
        if scorer == "auto":
            scorer = (
                "daat"
                if self._df_total(terms) <= self.AUTO_DAAT_MAX_POSTINGS
                else "bmw"
            )
        if scorer == "daat":
            return self._score_query_daat(terms)
        return self._score_query_wand(terms, use_block_max=(scorer == "bmw"))

    # ---- Ray Data entry ---------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            d, s = self.score_query(text or "", allowed=self.allowed)
            for r in range(len(d)):
                qids.append(qid)
                ranks.append(r + 1)
                docs.append(int(d[r]))
                scores.append(float(s[r]))
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def _sum_by_doc(docs: np.ndarray, contribs: np.ndarray):
    """Term-major (doc, contribution) pairs → (sorted unique docs, scores).
    np.add.at adds in array order, so each doc's terms are summed in the
    order their lists were concatenated (sorted-term order: oracle bits)."""
    uniq, inv = np.unique(docs, return_inverse=True)
    scores = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(scores, inv, contribs)
    return uniq, scores


def score_block_max(lists: list[tuple], k: int):
    """Exact top-k by block-max interval pruning → (doc_ids, scores,
    postings_scored).

    ``lists`` holds one ``(docids, contrib, blk_first, blk_bound)`` per query
    term, in sorted-term order: ascending unique doc ids, each posting's
    score contribution, each block's first doc id (``blk_first[0] ==
    docids[0]``) and an upper bound on the contributions in each block.

    The union of all block starts cuts the doc-id space into intervals in
    which every term stays inside one block, so an interval's bound is the
    sum of the bounds of the blocks with postings in it.  Pass 1 scores the
    highest-bound intervals until one term has k postings there; the k-th
    best of those exact scores, ``th``, is at most the true k-th score.
    Pass 2 scores every other interval whose bound can reach ``th`` — each
    true top-k doc lies in one.  Every doc is scored whole (all its postings
    share one interval) by :func:`_sum_by_doc`, so scores equal DAAT's bit
    for bit; ``postings_scored`` counts each posting touched once."""
    lists = [t for t in lists if t[0].size]
    if not lists or k < 1:
        return np.empty(0, dtype=np.int64), np.empty(0), 0
    cuts = np.unique(np.concatenate([t[2] for t in lists]))
    # one past the last doc id closes the last interval
    edges = np.append(cuts, max(int(t[0][-1]) for t in lists) + 1)
    counts, ub = [], np.zeros(cuts.size)
    for docids, _contrib, blk_first, blk_bound in lists:
        c = np.diff(np.searchsorted(docids, edges))
        j = np.searchsorted(blk_first, cuts, side="right") - 1
        ub += np.where(c > 0, blk_bound[j], 0.0)
        counts.append(c)

    def score(mask):
        docs, contribs = [], []
        for (docids, contrib, _f, _b), c in zip(lists, counts):
            keep = np.repeat(mask, c)
            docs.append(docids[keep])
            contribs.append(contrib[keep])
        docs = np.concatenate(docs)
        return _sum_by_doc(docs, np.concatenate(contribs)), docs.size

    order = np.argsort(-ub, kind="stable")
    reach = np.cumsum(np.stack(counts)[:, order], axis=1).max(axis=0) >= k
    done = np.zeros(cuts.size, dtype=bool)
    th, d1, s1, n1 = -np.inf, np.empty(0, dtype=np.int64), np.empty(0), 0
    if reach[-1]:
        done[order[: int(np.argmax(reach)) + 1]] = True
        (d1, s1), n1 = score(done)
        th = np.partition(s1, s1.size - k)[s1.size - k]
    (d2, s2), n2 = score(~done & (ub * (1 + _UB_EPS) + 1e-300 > th))
    d, s = top_k_with_ties(np.concatenate([d1, d2]), np.concatenate([s1, s2]), k)
    return d, s, n1 + n2


def _min_cover_span(ev: np.ndarray, k: int) -> int:
    """Smallest window (max−min of positions) covering all ``k`` labels in
    ``ev`` — rows (position, label), sorted ascending by position.  The
    standard two-pointer sweep, O(len(ev))."""
    counts = np.zeros(k, dtype=np.int64)
    covered = 0
    best = np.iinfo(np.int64).max
    left = 0
    for right in range(ev.shape[0]):
        t = int(ev[right, 1])
        if counts[t] == 0:
            covered += 1
        counts[t] += 1
        while covered == k:
            span = int(ev[right, 0] - ev[left, 0])
            if span < best:
                best = span
            tl = int(ev[left, 1])
            counts[tl] -= 1
            if counts[tl] == 0:
                covered -= 1
            left += 1
    return best


class ProximityCounter:
    """Actor-pool stage for unordered proximity queries over a POSITIONAL
    index: (query, win) rows → (query, win, n_docs).  Emits exactly one
    row per input row (zero-match queries included), so row parity with a
    seeded oracle is structural.  Index state loads once per actor; a
    query touches only its terms' buckets — no corpus scan in the plan."""

    def __init__(self, build_dir: str, tokenize_fn=None):
        with open(os.path.join(build_dir, "config.json")) as f:
            if not json.load(f).get("positions"):
                raise ValueError(
                    "ProximityCounter needs a positional index — build with "
                    "BuildConfig(positions=True)"
                )
        self.scorer = ScorerActor(
            build_dir, k=1, scorer="daat", preload=False, tokenize_fn=tokenize_fn
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        qs = batch["query"].to_pylist()
        ws = [int(w) for w in batch["win"].to_pylist()]
        counts = [
            self.scorer.proximity_count(q or "", w) for q, w in zip(qs, ws)
        ]
        return pa.table(
            {
                "query": pa.array(qs, pa.string()),
                "win": pa.array(ws, pa.int64()),
                "n_docs": pa.array(counts, pa.int64()),
            }
        )


class PhraseCounter:
    """Actor-pool stage for phrase queries over a POSITIONAL index: each
    batch of phrases → (phrase, n_docs, n_occurrences).  Index state loads
    once per actor (ScorerActor machinery, lazy buckets — a phrase touches
    only its terms' buckets; no corpus scan anywhere in the plan)."""

    def __init__(self, build_dir: str, tokenize_fn=None, topk: int | None = None):
        with open(os.path.join(build_dir, "config.json")) as f:
            if not json.load(f).get("positions"):
                raise ValueError(
                    "PhraseCounter needs a positional index — build with "
                    "BuildConfig(positions=True)"
                )
        self.scorer = ScorerActor(
            build_dir, k=1, scorer="daat", preload=False, tokenize_fn=tokenize_fn
        )
        self.topk = topk  # None → per-phrase aggregate counts; N → top-N docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.topk is None:
            phrases, n_docs, n_occ = [], [], []
            for phrase in batch["phrase"].to_pylist():
                docs, occ = self.scorer.phrase_occurrences(phrase or "")
                phrases.append(phrase)
                n_docs.append(int(docs.size))
                n_occ.append(int(occ.sum()))
            return pa.table(
                {
                    "phrase": pa.array(phrases, pa.string()),
                    "n_docs": pa.array(n_docs, pa.int64()),
                    "n_occurrences": pa.array(n_occ, pa.int64()),
                }
            )
        # ranked mode: top-k matching docs per phrase by occurrence count,
        # ties broken toward the lower doc_id (deterministic, like BM25 k1)
        p_out, r_out, d_out, o_out = [], [], [], []
        for phrase in batch["phrase"].to_pylist():
            docs, occ = self.scorer.phrase_occurrences(phrase or "")
            order = np.lexsort((docs, -occ))[: self.topk]
            for rank, j in enumerate(order, start=1):
                p_out.append(phrase)
                r_out.append(rank)
                d_out.append(int(docs[j]))
                o_out.append(int(occ[j]))
        return pa.table(
            {
                "phrase": pa.array(p_out, pa.string()),
                "rank": pa.array(r_out, pa.int64()),
                "doc_id": pa.array(d_out, pa.int64()),
                "n_occurrences": pa.array(o_out, pa.int64()),
            }
        )


def run_queries(
    build_dir: str,
    queries: ray.data.Dataset,
    k: int = 10,
    scorer: str = "daat",
    concurrency: int | tuple[int, int] = (1, 8),
    batch_size: int = 32,
    scoring=None,
    tokenize_fn=None,
    allowed_ref=None,
    facet: tuple[str, str] | None = None,
    doc_shard: int | None = None,
    num_cpus_per_actor: float = 1.0,
    shared_segments: bool = False,
    bucket_refs: dict[int, "ray.ObjectRef"] | None = None,
) -> ray.data.Dataset:
    """S3→A2→S7: queries dataset → ranked (query_id, rank, doc_id, score).

    ``scoring`` / ``tokenize_fn`` are the §2.11 hooks, forwarded to each
    pool actor's constructor (must be picklable).

    ``shared_segments=True`` loads each term bucket into the object store
    ONCE (parallel tasks) and hands every actor the refs — same-node actors
    then map one shared copy of the index zero-copy instead of N parquet
    re-reads (the per-actor duplicate-load cost VERDICT r1 flagged).

    The query set is split to ≥2 blocks per pool slot first: one Ray Data
    block is processed by one actor, so a single-block query table (the
    common ``from_arrow`` case) would serialize the whole batch through one
    actor no matter the pool size."""
    cmax = concurrency[1] if isinstance(concurrency, tuple) else concurrency
    queries = queries.repartition(max(2 * cmax, 2))
    kwargs = {"build_dir": build_dir, "k": k, "scorer": scorer}
    if scoring is not None:
        kwargs["scoring"] = scoring
    if tokenize_fn is not None:
        kwargs["tokenize_fn"] = tokenize_fn
    if allowed_ref is not None:
        kwargs["allowed_ref"] = allowed_ref
    if facet is not None:
        kwargs["facet"] = facet
    if bucket_refs is not None:
        kwargs["bucket_refs"] = bucket_refs
    elif shared_segments:
        kwargs["bucket_refs"] = shared_segment_refs(build_dir)
    if doc_shard is not None:
        kwargs["doc_shard"] = doc_shard
    return queries.map_batches(
        ScorerActor,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus_per_actor,
    )


def run_queries_sharded(
    build_dir: str,
    queries: ray.data.Dataset,
    k: int = 10,
    scorer: str = "auto",
    concurrency_per_shard: int | tuple[int, int] = 1,
    batch_size: int = 32,
    fanout: bool = False,
) -> ray.data.Dataset:
    """Doc-sharded query serving — the layout for indexes too big for one
    actor's memory (requires a build with ``BuildConfig(doc_shards=S)``).

    Each shard's actors hold one complete per-doc-range slice of the index
    (every term present in-range), so per-shard scores are bit-identical to
    the unsharded engine's for those docs and the per-shard top-k is exact
    for its range; the cross-shard merge handles only k·S rows per query.
    (Term-partitioned scatter would NOT work: one document's BM25 score sums
    across terms that would live on different shards.)

    ``fanout=True`` is the multi-node shape: all S shard pools execute as
    ONE lazy streaming union (every shard scores concurrently, its actors
    living wherever the scheduler places them — on a real cluster one node
    per shard), and the merge consumes shard streams with backpressure.
    The default (False) is the local-mode-safe shape: shards score one pool
    at a time with a materialize in between, because S concurrent pools ×
    their CPU reservations starve the merge shuffle on a single small box.
    Both shapes are bit-identical (tested).
    """
    with open(os.path.join(build_dir, "stats.json")) as f:
        n_shards = json.load(f).get("doc_shards")
    if not n_shards:
        raise ValueError(
            "index is not doc-sharded; build with BuildConfig(doc_shards=S) "
            "or use run_queries"
        )

    def _shard_ds(shard: int, num_cpus_per_actor: float) -> ray.data.Dataset:
        return run_queries(
            build_dir,
            queries,
            k=k,
            scorer=scorer,
            concurrency=concurrency_per_shard,
            batch_size=batch_size,
            doc_shard=shard,
            num_cpus_per_actor=num_cpus_per_actor,
        )

    if fanout:
        # fractional actor CPUs: S concurrent pools at num_cpus=1 each would
        # reserve the whole of a small cluster and starve the merge shuffle
        # (observed deadlock in local mode).  On a multi-node cluster the
        # scheduler spreads the half-CPU actors the same way full ones would.
        shard_results = [_shard_ds(s, 0.5) for s in range(n_shards)]
    else:
        shard_results = [_shard_ds(s, 1.0).materialize() for s in range(n_shards)]
    merged = shard_results[0]
    for r in shard_results[1:]:
        merged = merged.union(r)

    def final_topk(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy(zero_copy_only=False)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -s))[:k]
        return pa.table(
            {
                "query_id": group["query_id"].take(pa.array(order)),
                "rank": pa.array(
                    np.arange(1, order.size + 1, dtype=np.int32), pa.int32()
                ),
                "doc_id": pa.array(d[order], pa.int64()),
                "score": pa.array(s[order], pa.float64()),
            }
        )

    return merged.groupby("query_id").map_groups(final_topk, batch_format="pyarrow")
