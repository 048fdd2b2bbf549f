"""Flagship pipeline 2: BM25 top-k query engine (SURVEY.md §3.2, A2/Q1-Q3/K1).

(ref: n/a, SURVEY.md §0 — reference checkout empty; contract BASELINE.json:6:
"BM25 top-k query engine using block-max WAND over the materialized index".)

Execution model: the *query* dataset flows through an actor pool
(``map_batches(ScorerActor, concurrency=N)``); each actor loads stats + the
segment tables ONCE in ``__init__`` and answers every query in a batch
locally — one query never crosses workers (its few posting lists are
co-resident), parallelism is across queries.  Each actor keeps one LRU of
per-term views — (doc ids, per-posting contribution, block starts, block
bounds), all query-independent — that every scorer reads.

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

from ..functions import topk as tk
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
    (keeps actor init metadata-only — important for pool spin-up time).
    ``blocks`` holds the bucket's two block columns as flat zero-copy
    (offsets, values) numpy views: a term's blocks are then two slices, not
    two Arrow scalar round trips on every cold term load."""

    __slots__ = ("df", "_tbl", "_row", "_blocks")

    def __init__(self, df, tbl, row, blocks):
        self.df = df
        self._tbl = tbl
        self._row = row
        self._blocks = blocks

    def blob(self, col: str) -> bytes:
        """This row's encoded ``docids``, ``tfs``, ``dls`` or ``positions``."""
        return self._tbl[col][self._row].as_py()

    def blocks(self):
        """(first doc id, max tf_norm) of each of this row's blocks."""
        (fo, first), (mo, bmax) = self._blocks
        i = self._row
        return first[fo[i] : fo[i + 1]], bmax[mo[i] : mo[i + 1]]


def _read_bucket(seg_root: str, bucket: int) -> pa.Table | None:
    """One bucket's segment rows as one contiguous table (None if empty)."""
    part = os.path.join(seg_root, f"term_bucket={bucket}")
    files = sorted(glob.glob(os.path.join(part, "*.parquet")))
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()


_load_bucket_table = ray.remote(_read_bucket)


def shared_segment_refs(build_dir: str) -> dict[int, "ray.ObjectRef"]:
    """One plasma ObjectRef per term bucket (parallel load tasks): every
    same-node scorer actor then maps the same physical buffers zero-copy
    instead of each re-reading + re-decoding the parquet — N actors share
    ONE copy of the raw index bytes (VERDICT r1 item 2)."""
    with open(os.path.join(build_dir, "stats.json")) as f:
        n_buckets = int(json.load(f)["n_buckets"])
    seg_root = os.path.join(build_dir, "stage=segments")
    return {b: _load_bucket_table.remote(seg_root, b) for b in range(n_buckets)}


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
        facet: tuple[str, str] | None = None,
        doc_shard: int | None = None,
        bucket_refs: dict[int, "ray.ObjectRef"] | None = None,
    ):
        """``facet``: optional ``(column, value)`` restricting every query
        this actor answers, with NO driver-side id materialization — each
        actor derives the allowed doc-id set itself from the index's docvec
        checkpoint (column-pruned parquet read, predicate pushed to the scan).  Per-actor memory is
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
        self.allowed = None
        if facet is not None:
            col, val = facet
            t = pq.read_table(
                os.path.join(build_dir, "stage=docvec"),
                columns=["doc_id", col],
                filters=[(col, "==", val)],
            )
            self.allowed = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
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
        self._cache: OrderedDict[str, tuple] = OrderedDict()  # term → _term
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
            ref = self.bucket_refs.get(bucket)
            t = ray.get(ref) if ref is not None else None  # zero-copy plasma map
        else:
            t = _read_bucket(self.seg_root, bucket)
        if t is None:
            return
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
        if t.num_rows == 0:  # a filter that keeps no rows leaves no chunks
            return
        # only the small metadata columns are materialized at load time; the
        # posting payload stays in the shared Arrow buffers (lazy per term),
        # the block columns mapped as flat numpy views of those buffers
        blocks = [
            (c.offsets.to_numpy(), c.values.to_numpy())
            for c in (t["block_first_docid"].chunk(0), t["block_max_tfnorm"].chunk(0))
        ]
        terms = t["term"].to_pylist()
        dfs = t["df"].to_pylist()
        salt = t["salt_idx"].to_pylist()
        order = sorted(range(len(terms)), key=lambda i: (terms[i], salt[i]))
        for i in order:
            self._terms.setdefault(terms[i], []).append(_TermPostings(dfs[i], t, i, blocks))

    def _term_rows(self, term: str) -> list[_TermPostings] | None:
        """term → its segment rows (salt order), loading the term's bucket
        first; the hash is skipped once every bucket is loaded."""
        if len(self._loaded_buckets) < self.n_buckets:
            # int() BEFORE the mod: numpy uint64 % python int silently promotes
            # to float64 and rounds the 64-bit hash (wrong bucket)
            self._load_bucket(int(polyhash_column(pa.array([term]))[0]) % self.n_buckets)
        return self._terms.get(term)

    # per-term LRU: repeated query terms (stopword-like identifiers dominate
    # real query logs) skip varbyte re-decode and re-scoring.  Budget counts
    # postings (16 B each: doc id + contribution), not entries, so a few huge
    # lists can't blow the heap.
    _CACHE_MAX_POSTINGS = 20_000_000

    def _term(self, term: str):
        """term → (docids, contrib, blk_first, blk_bound) or None — exactly
        :func:`score_block_max`'s per-term input.

        contrib = idf·tf_norm per posting and blk_bound = idf·bm_slack·
        blk_max per block are QUERY-INDEPENDENT, so both are computed once
        per term per actor.  Multi-row terms (unmerged salted partials)
        concatenate in salt order — partials cover disjoint ascending doc-id
        ranges by construction.
        """
        hit = self._cache.get(term)
        if hit is not None:
            self._cache.move_to_end(term)
            return hit
        rows = self._term_rows(term)
        if not rows:
            return None
        df = self._global_df[term] if self.doc_shard is not None else sum(r.df for r in rows)
        idf = self.scoring.idf(df, self.stats["n_docs"])
        parts = [
            (decode_docids(r.blob("docids")), decode_values(r.blob("tfs")),
             decode_values(r.blob("dls")), *r.blocks())
            for r in rows
        ]
        # one row (the common case) is used as is, not copied
        docids, tfs, dls, blk_first, blk_max = (
            c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts)
        )
        contrib = idf * self.scoring.tf_norm(tfs, dls, self.stats["avgdl"])
        blk_bound = idf * self.bm_slack * blk_max
        out = self._cache[term] = (docids, contrib, blk_first, blk_bound)
        self._cached_postings += docids.size
        while self._cached_postings > self._CACHE_MAX_POSTINGS and self._cache:
            _t, old = self._cache.popitem(last=False)
            self._cached_postings -= old[0].size
        return out

    # ---- positional access (phrase queries) -------------------------------
    def _postings_pos(self, term: str):
        """term → (docids, per-posting offsets, flat positions) or None.

        Requires a positional build (BuildConfig.positions); raises on an
        index without stored positions.  Multi-row terms concatenate in
        salt order like _term (disjoint ascending doc ranges)."""
        from ..functions.codecs import decode_positions

        rows = self._term_rows(term)
        if not rows:
            return None
        docids_parts, tf_parts, pos_parts = [], [], []
        for r in rows:
            blob = r.blob("positions")
            if not blob:
                raise ValueError(
                    "phrase query on an index built without positions — "
                    "rebuild with BuildConfig(positions=True)"
                )
            d = decode_docids(r.blob("docids"))
            tf = decode_values(r.blob("tfs"))
            docids_parts.append(d)
            tf_parts.append(tf)
            pos_parts.append(decode_positions(blob, tf))
        docids = np.concatenate(docids_parts)
        tfs = np.concatenate(tf_parts)
        off = np.concatenate([[0], np.cumsum(tfs)]).astype(np.int64)
        return docids, off, np.concatenate(pos_parts)

    def _positional_candidates(self, terms: list[str]):
        """terms → (per-term _postings_pos, candidate doc ids) or None when
        no doc holds them all.  Candidates come from the doc-id
        intersection of the terms' posting lists — never a corpus scan."""
        plists = []
        for term in terms:
            p = self._postings_pos(term)
            if p is None:
                return None
            plists.append(p)
        if not plists:
            return None
        cand = plists[0][0]
        for d, _, _ in plists[1:]:
            cand = cand[_in_sorted(cand, d)]
            if cand.size == 0:
                return None
        return plists, cand

    def phrase_occurrences(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Exact-phrase match via the positional index: (doc_ids,
        occurrence counts) of docs containing the phrase's tokens at
        CONSECUTIVE positions in the filtered token stream (the same
        adjacency the bigram/shingle oracle uses).

        Candidates come from :meth:`_positional_candidates`; the positional
        verify then intersects per-doc position sets term by term
        (pos(term_i) − i)."""
        terms = self.tokenize_fn(text)  # in phrase order, duplicates kept
        found = self._positional_candidates(terms)
        if found is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        plists, cand = found
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

        Candidates come from :meth:`_positional_candidates`; the verify
        runs the classic smallest-range-covering-k-lists two-pointer per
        candidate doc, O(occurrences) each."""
        found = self._positional_candidates(list(dict.fromkeys(self.tokenize_fn(text))))
        if found is None:
            return 0
        plists, cand = found
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
        # terms already sorted unique
        plists = [t[:2] for t in map(self._term, terms) if t is not None]
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
            scores = scores[hit]
        else:
            hit, scores = _sum_by_doc(
                np.concatenate([d for d, _ in plists]),
                np.concatenate([c for _, c in plists]),
            )
        if allowed is not None:
            keep = _in_sorted(hit, allowed)
            hit, scores = hit[keep], scores[keep]
        return top_k_with_ties(hit, scores, self.k)

    def _score_query_wand(self, terms: list[str], use_block_max: bool):
        """WAND / block-max WAND via :func:`score_block_max`. WAND is the
        same scorer with one block per term, bounded by the term's max."""
        lists = [t for t in map(self._term, terms) if t is not None]
        if not use_block_max:
            lists = [(d, c, d[:1], b.max(initial=0.0, keepdims=True)) for d, c, _, b in lists]
        return score_block_max(lists, self.k)[:2]

    # crossover for the "auto" scorer: vectorized exhaustive DAAT costs
    # ~10ns/posting (numpy gather+add); the interval BMW scorer adds fixed
    # per-query work (interval bounds, two scoring passes) that only pays
    # once the candidate volume is large AND bounds prune most of it.  This
    # value was tuned for a per-pivot Python loop; the crossover against
    # score_block_max has not been re-measured yet.
    AUTO_DAAT_MAX_POSTINGS = 5_000_000

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
            total = sum(r.df for t in terms for r in self._term_rows(t) or ())
            scorer = "daat" if total <= self.AUTO_DAAT_MAX_POSTINGS else "bmw"
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


def _in_sorted(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Mask of the elements of ``x`` present in ``a`` (sorted ascending
    unique, non-empty) — searchsorted membership, no sort."""
    pos = np.searchsorted(a, x)
    pos[pos == a.size] = 0
    return a[pos] == x


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
    for docids, _c, blk_first, blk_bound in lists:
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


def _positional_scorer(build_dir: str, tokenize_fn, stage: str) -> ScorerActor:
    """A lazy-bucket ScorerActor over a POSITIONAL index (refuses others)."""
    with open(os.path.join(build_dir, "config.json")) as f:
        if not json.load(f).get("positions"):
            raise ValueError(
                f"{stage} needs a positional index — build with "
                "BuildConfig(positions=True)"
            )
    return ScorerActor(
        build_dir, k=1, scorer="daat", preload=False, tokenize_fn=tokenize_fn
    )


class ProximityCounter:
    """Actor-pool stage for unordered proximity queries over a POSITIONAL
    index: (query, win) rows → (query, win, n_docs).  Emits exactly one
    row per input row (zero-match queries included), so row parity with a
    seeded oracle is structural.  Index state loads once per actor; a
    query touches only its terms' buckets — no corpus scan in the plan."""

    def __init__(self, build_dir: str, tokenize_fn=None):
        self.scorer = _positional_scorer(build_dir, tokenize_fn, "ProximityCounter")

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
        self.scorer = _positional_scorer(build_dir, tokenize_fn, "PhraseCounter")
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
        # ties broken toward the lower doc_id (deterministic, like BM25 k1);
        # the phrase's row in the batch is the group key
        phrases = batch["phrase"].cast(pa.string())
        found = [
            self.scorer.phrase_occurrences(p or "") for p in phrases.to_pylist()
        ]
        keys = np.repeat(np.arange(len(found)), [d.size for d, _ in found])
        docs = np.concatenate([np.empty(0, np.int64)] + [d for d, _ in found])
        occ = np.concatenate([np.empty(0, np.int64)] + [o for _, o in found])
        rows, ranks = tk.topk_rows(keys, docs, occ, self.topk)
        return pa.table(
            {
                "phrase": phrases.take(pa.array(keys[rows])),
                "rank": pa.array(ranks, pa.int64()),
                "doc_id": pa.array(docs[rows], pa.int64()),
                "n_occurrences": pa.array(occ[rows], pa.int64()),
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
    facet: tuple[str, str] | None = None,
    doc_shard: int | None = None,
    num_cpus_per_actor: float = 1.0,
    bucket_refs: dict[int, "ray.ObjectRef"] | None = None,
) -> ray.data.Dataset:
    """S3→A2→S7: queries dataset → ranked (query_id, rank, doc_id, score).

    ``scoring`` / ``tokenize_fn`` are the §2.11 hooks, forwarded to each
    pool actor's constructor (must be picklable).

    ``bucket_refs=shared_segment_refs(build_dir)`` loads each term bucket
    into the object store ONCE (parallel tasks) and hands every actor the
    refs — same-node actors then map one shared copy of the index zero-copy
    instead of N parquet re-reads (the per-actor duplicate-load cost
    VERDICT r1 flagged).

    The query set is split to ≥2 blocks per pool slot first: one Ray Data
    block is processed by one actor, so a single-block query table (the
    common ``from_arrow`` case) would serialize the whole batch through one
    actor no matter the pool size."""
    cmax = concurrency[1] if isinstance(concurrency, tuple) else concurrency
    queries = queries.repartition(max(2 * cmax, 2))
    kwargs = dict(
        build_dir=build_dir, k=k, scorer=scorer, scoring=scoring,
        tokenize_fn=tokenize_fn, facet=facet, doc_shard=doc_shard,
        bucket_refs=bucket_refs,
    )
    return queries.map_batches(
        ScorerActor,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus_per_actor,
    )


_SHARDED_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("rank", pa.int32()),
     ("doc_id", pa.int64()), ("score", pa.float64())]
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

    return tk.merge_topk(merged, k, _SHARDED_SCHEMA)
