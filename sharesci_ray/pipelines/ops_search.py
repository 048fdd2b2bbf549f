"""Index-backed search ops beyond ranked BM25, plus training-data
repetition statistics and the composed near-dup survivor set.

- boolean_and_counts: conjunctive (AND) retrieval answered from the
  inverted index — only the queried term rows leave the segment files.
- term_prefix_counts: dictionary prefix search (wildcard ``pre*``) over
  the segment term dictionary — an index READ, not a corpus scan.
- repetition_stats: Gopher-style repetition quality signals (duplicate
  line fraction, top-bigram fraction) — the standard repetition filters
  of an LLM training-data pipeline.
- near_dup_survivors: the deliverable of the dedup pipeline — one
  representative per near-dup cluster with its cluster size.

Reference: n/a (SURVEY.md §0 — empty checkout); oracle parity against
DuckDB is the check, same as every other registry op.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import dedup as dd
from ..functions.codecs import decode_docids
from ..functions.text import tokenize
from ..sources.corpus import read_table
from .ops import _TOKS, DOC_QUERIES, _index_for, _rename, op

# ===========================================================================
# Boolean AND retrieval (conjunctive queries off the inverted index)
# ===========================================================================


def _bool_sql() -> str:
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    q(query_id, term) AS (VALUES {values}),
    qsz AS (SELECT query_id, count(*) AS nt FROM q GROUP BY 1),
    hit AS (
      SELECT q.query_id, t.doc_id, count(*) AS nhit
      FROM q JOIN toks t ON t.term = q.term GROUP BY 1, 2
    ),
    conj AS (
      SELECT h.query_id, count(*) AS n_match
      FROM hit h JOIN qsz ON qsz.query_id = h.query_id AND h.nhit = qsz.nt
      GROUP BY 1
    )
    SELECT qs.query_id, COALESCE(c.n_match, 0)::BIGINT AS n_match
    FROM qsz qs LEFT JOIN conj c ON c.query_id = qs.query_id
    """


@op("boolean_and_counts", _bool_sql())
def boolean_and_counts(sf_dir: str):
    """Conjunctive boolean retrieval: for each fixture query, how many
    documents contain ALL of its terms.

    Scale shape: this is an INDEX READ — ``read_parquet`` over the
    segments with an ``is_in`` filter on the term dictionary (row-group
    pruning; segment rows are term-sorted), so only the ≤|query vocab|
    matching posting rows are ever decoded.  Hits explode to
    (query_id, doc_id) rows, a groupby counts per-doc term coverage, and
    docs covering every query term are counted per query.  The corpus
    itself is never re-scanned, and nothing corpus-sized reaches the
    driver (the result is one row per query).
    """
    import ray.data
    from ray.data.aggregate import Sum

    build_dir = _index_for(sf_dir)

    term_to_qids: dict[str, list[int]] = {}
    qsize = np.zeros(len(DOC_QUERIES), dtype=np.int64)
    for qid, text in enumerate(DOC_QUERIES):
        ts = sorted(set(tokenize(text)))
        qsize[qid] = len(ts)
        for t in ts:
            term_to_qids.setdefault(t, []).append(qid)

    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"),
        columns=["term", "docids"],
        filter=pc.field("term").isin(sorted(term_to_qids)),
    )

    _HITS = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])

    def hits(batch: pa.Table) -> pa.Table:
        qids_out, docs_out = [], []
        for term, buf in zip(
            batch["term"].to_pylist(), batch["docids"].to_pylist()
        ):
            d = decode_docids(buf).astype(np.int64)
            for qid in term_to_qids.get(term, ()):
                qids_out.append(np.full(len(d), qid, dtype=np.int64))
                docs_out.append(d)
        if not qids_out:
            return _HITS.empty_table()
        return pa.table(
            {
                "query_id": np.concatenate(qids_out),
                "doc_id": np.concatenate(docs_out),
            },
            schema=_HITS,
        )

    per_doc = (
        segs.map_batches(hits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["query_id", "doc_id"])
        .count()
    )

    _ONE = pa.schema([("query_id", pa.int64()), ("one", pa.int64())])

    def full_match(t: pa.Table) -> pa.Table:
        q = pc.cast(t["query_id"], pa.int64()).to_numpy(zero_copy_only=False)
        n = pc.cast(t["count()"], pa.int64()).to_numpy(zero_copy_only=False)
        keep = n == qsize[q]
        return pa.table(
            {
                "query_id": q[keep],
                "one": np.ones(int(keep.sum()), dtype=np.int64),
            },
            schema=_ONE,
        )

    matched = per_doc.map_batches(
        full_match, batch_format="pyarrow", zero_copy_batch=True
    )
    # seed every query with 0 so zero-match queries still emit a row
    seeds = ray.data.from_arrow(
        pa.table(
            {
                "query_id": np.arange(len(DOC_QUERIES), dtype=np.int64),
                "one": np.zeros(len(DOC_QUERIES), dtype=np.int64),
            },
            schema=_ONE,
        )
    )
    agg = matched.union(seeds).groupby("query_id").aggregate(Sum("one"))
    return _rename(agg, {"sum(one)": "n_match"}, int64_cols=("n_match",))


# ===========================================================================
# Dictionary prefix search (wildcard ``pre*``) over the segment dictionary
# ===========================================================================

_PREFIXES = ["con", "in", "pa", "re", "se", "zz"]  # zz: empty-result case


def _prefix_sql() -> str:
    values = ", ".join(f"('{p}')" for p in _PREFIXES)
    return f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    df AS (SELECT term, count(*) AS df FROM toks GROUP BY 1),
    p(prefix) AS (VALUES {values}),
    m AS (
      SELECT p.prefix, count(*) AS n_terms, sum(df.df) AS sum_df
      FROM p JOIN df ON df.term LIKE p.prefix || '%'
      GROUP BY 1
    )
    SELECT p.prefix,
           COALESCE(m.n_terms, 0)::BIGINT AS n_terms,
           COALESCE(m.sum_df, 0)::BIGINT AS sum_df
    FROM p LEFT JOIN m ON m.prefix = p.prefix
    """


@op("term_prefix_counts", _prefix_sql())
def term_prefix_counts(sf_dir: str):
    """Wildcard/prefix dictionary search: for each fixed prefix, the number
    of distinct indexed terms starting with it and their summed document
    frequency.

    Scale shape: reads ONLY the (term, df) dictionary columns of the
    segment parquet (no postings bytes, no corpus scan); one vectorized
    ``starts_with`` mask per prefix per batch produces per-batch partial
    (n_terms, sum_df) pairs, and the final groupby moves ≤ |prefixes| ×
    |blocks| tiny rows.  Terms are unique across segment rows (bucketed by
    hash, merged per term), so count-of-rows == count-of-distinct-terms.
    """
    import ray.data
    from ray.data.aggregate import Sum

    build_dir = _index_for(sf_dir)
    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"), columns=["term", "df"]
    )

    _PART = pa.schema(
        [("prefix", pa.string()), ("n_terms", pa.int64()), ("sum_df", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pc.cast(batch["df"], pa.int64()).to_numpy(zero_copy_only=False)
        rows_p, rows_n, rows_s = [], [], []
        for p in _PREFIXES:
            mask = pc.starts_with(batch["term"], p).to_numpy(
                zero_copy_only=False
            )
            rows_p.append(p)
            rows_n.append(int(mask.sum()))
            rows_s.append(int(df[mask].sum()))
        return pa.table(
            {
                "prefix": pa.array(rows_p, pa.string()),
                "n_terms": pa.array(rows_n, pa.int64()),
                "sum_df": pa.array(rows_s, pa.int64()),
            },
            schema=_PART,
        )

    partials = segs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    # seed rows keep empty prefixes present even if every batch missed them
    seeds = ray.data.from_arrow(
        pa.table(
            {
                "prefix": pa.array(_PREFIXES, pa.string()),
                "n_terms": pa.array([0] * len(_PREFIXES), pa.int64()),
                "sum_df": pa.array([0] * len(_PREFIXES), pa.int64()),
            },
            schema=_PART,
        )
    )
    agg = (
        partials.union(seeds)
        .groupby("prefix")
        .aggregate(Sum("n_terms"), Sum("sum_df"))
    )
    return _rename(
        agg,
        {"sum(n_terms)": "n_terms", "sum(sum_df)": "sum_df"},
        int64_cols=("n_terms", "sum_df"),
    )


# ===========================================================================
# Repetition statistics (Gopher repetition rules — Rae et al. 2021)
# ===========================================================================


def _repetition_sql() -> str:
    bigrams = dd.sql_shingles("ts", k=2)
    return f"""
    WITH lines AS (
      SELECT doc_id, str_split(text, chr(10)) AS ls FROM documents
    ),
    lstats AS (
      SELECT doc_id, len(ls)::BIGINT AS n_lines,
             len(list_distinct(ls))::BIGINT AS n_distinct
      FROM lines
    ),
    toks AS (SELECT doc_id, {_TOKS} AS ts FROM documents),
    bg AS (SELECT doc_id, unnest({bigrams}) AS b FROM toks),
    bgc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY 1, 2),
    bmax AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM bgc GROUP BY 1)
    SELECT d.doc_id,
           l.n_lines,
           (l.n_lines - l.n_distinct) AS n_dup_lines,
           (l.n_lines - l.n_distinct) * 1.0 / l.n_lines AS dup_line_frac,
           COALESCE(b.mx, 0)::BIGINT AS top_bigram_n,
           COALESCE(b.tot, 0)::BIGINT AS n_bigrams,
           CASE WHEN COALESCE(b.tot, 0) = 0 THEN 0.0
                ELSE b.mx * 1.0 / b.tot END AS top_bigram_frac
    FROM documents d
    JOIN lstats l ON l.doc_id = d.doc_id
    LEFT JOIN bmax b ON b.doc_id = d.doc_id
    """


@op("repetition_stats", _repetition_sql())
def repetition_stats(sf_dir: str):
    """Per-document repetition quality signals (the Gopher repetition
    filters an LLM data pipeline applies before training): duplicate-line
    fraction and most-frequent-bigram fraction.

    Fully vectorized per batch: lines/bigrams explode to flat arrays with
    parent row indices, Arrow ``group_by`` computes per-(row, value)
    counts, numpy scatter-max folds them back per row.  Each ratio is one
    int/int → float64 division — bit-identical to the SQL twin.  Purely
    per-row (no shuffle at all): at 100 TB this is one streamed pass.
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    _OUT = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_lines", pa.int64()),
            ("n_dup_lines", pa.int64()),
            ("dup_line_frac", pa.float64()),
            ("top_bigram_n", pa.int64()),
            ("n_bigrams", pa.int64()),
            ("top_bigram_frac", pa.float64()),
        ]
    )

    def _per_row_max_count(
        parent: np.ndarray, values: pa.Array, n_rows: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(parent idx, value) stream → per-row (max value count, total)."""
        total = np.zeros(n_rows, dtype=np.int64)
        np.add.at(total, parent, 1)
        mx = np.zeros(n_rows, dtype=np.int64)
        if len(parent):
            g = (
                pa.table({"p": parent, "v": values})
                .group_by(["p", "v"])
                .aggregate([([], "count_all")])
            )
            gp = g["p"].to_numpy(zero_copy_only=False)
            gc = g["count_all"].to_numpy(zero_copy_only=False)
            np.maximum.at(mx, gp, gc)
        return mx, total

    def fn(batch: pa.Table) -> pa.Table:
        from ..functions.text import flat_tokens

        n = batch.num_rows
        text = batch["text"]
        # --- duplicate lines -------------------------------------------
        line_lists = pc.split_pattern(text, "\n")
        flat_lines = pc.list_flatten(line_lists)
        line_parent = pc.list_parent_indices(line_lists).to_numpy(
            zero_copy_only=False
        )
        n_lines = pc.list_value_length(line_lists).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if isinstance(flat_lines, pa.ChunkedArray):
            flat_lines = flat_lines.combine_chunks()
        n_distinct = np.zeros(n, dtype=np.int64)
        if len(line_parent):
            g = (
                pa.table({"p": line_parent, "v": flat_lines})
                .group_by(["p", "v"])
                .aggregate([([], "count_all")])
            )
            gp = g["p"].to_numpy(zero_copy_only=False)
            np.add.at(n_distinct, gp, 1)
        n_dup = n_lines - n_distinct
        dup_frac = n_dup / np.maximum(n_lines, 1)  # n_lines >= 1 always
        # --- top bigram -------------------------------------------------
        flat, parent = flat_tokens(text)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(parent) > 1:
            same = parent[:-1] == parent[1:]
            same_pa = pa.array(same)
            lefts = pc.filter(flat.slice(0, len(flat) - 1), same_pa)
            rights = pc.filter(flat.slice(1), same_pa)
            bg_vals = pc.binary_join_element_wise(lefts, rights, " ")
            bg_parent = parent[:-1][same]
        else:
            bg_parent = np.empty(0, dtype=np.int64)
            bg_vals = pa.array([], pa.string())
        mx, tot = _per_row_max_count(bg_parent, bg_vals, n)
        bg_frac = np.where(tot == 0, 0.0, mx / np.maximum(tot, 1))
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_lines": n_lines,
                "n_dup_lines": n_dup,
                "dup_line_frac": dup_frac,
                "top_bigram_n": mx,
                "n_bigrams": tot,
                "top_bigram_frac": bg_frac,
            },
            schema=_OUT,
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# near_dup_survivors (the composed dedup deliverable) lives in ops_dedup.py
# next to dedup_cluster — its oracle SQL wraps _cluster_sql, which must be
# fully defined before the @op decorator runs (a cross-module reference here
# would trip the worker-side re-entrant import of ops_dedup).


# ===========================================================================
# Spell suggestion (SymSpell deletion-neighborhood over the dictionary)
# ===========================================================================

_MISSPELLED = ["jion", "partion", "quer", "tabel", "windw", "zzzzq"]
_SUGGEST_K = 5


def dl_distance_le1(a: str, b: str) -> int | None:
    """Exact Damerau-Levenshtein distance when it is ≤ 1, else None.

    Cases: equal (0); same length with one substitution or one adjacent
    transposition (1); length off by one with one insertion/deletion (1).
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == lb:
        diff = [i for i in range(la) if a[i] != b[i]]
        if len(diff) == 1:
            return 1
        if (
            len(diff) == 2
            and diff[1] == diff[0] + 1
            and a[diff[0]] == b[diff[1]]
            and a[diff[1]] == b[diff[0]]
        ):
            return 1
        return None
    if abs(la - lb) != 1:
        return None
    s, t = (a, b) if la < lb else (b, a)  # s shorter
    i = 0
    while i < len(s) and s[i] == t[i]:
        i += 1
    return 1 if s[i:] == t[i + 1 :] else None


def _deletions(word: str) -> list[str]:
    return [word[:i] + word[i + 1 :] for i in range(len(word))]


def _suggest_sql() -> str:
    values = ", ".join(f"('{w}')" for w in _MISSPELLED)
    return f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    df AS (SELECT term, count(*) AS df FROM toks GROUP BY 1),
    q(input_term) AS (VALUES {values}),
    cand AS (
      SELECT q.input_term, df.term, df.df,
             damerau_levenshtein(q.input_term, df.term) AS dist
      FROM q JOIN df ON damerau_levenshtein(q.input_term, df.term) <= 1
    ),
    ranked AS (
      SELECT *, row_number() OVER (
               PARTITION BY input_term ORDER BY df DESC, term
             ) AS rn
      FROM cand
    )
    SELECT input_term, term, df::BIGINT AS df, dist::BIGINT AS dist
    FROM ranked WHERE rn <= {_SUGGEST_K}
    """


def suggest_terms(build_dir: str, words: list[str], k: int = _SUGGEST_K):
    """Did-you-mean spelling suggestions from ANY built index's dictionary
    (the CLI ``suggest`` command and the ``spell_suggest`` registry op both
    call this): for each input word, the top-k dictionary terms within
    Damerau-Levenshtein distance 1, ranked (df desc, term asc).

    Scale shape (SymSpell, Garbe 2012): candidate generation is a
    deletion-neighborhood intersection — a term can be within distance 1
    of a query only if {term} ∪ deletions(term) intersects {query} ∪
    deletions(query).  The query-side neighborhood (Σ|q|+1 strings) is
    the only broadcast; the dictionary side prunes to terms within ±1 of
    the query length band, generates variants position-by-position with
    Arrow slice kernels (O(max_len) vectorized passes, no per-term
    Python), and is_in-filters each pass immediately, so only true
    candidates leave a batch.  The exact distance check then runs on the
    tiny surviving candidate set.  The corpus is never touched — this is
    a dictionary-only read of the segment (term, df) columns.
    """
    import ray.data

    var_to_inputs: dict[str, list[str]] = {}
    for w in words:
        for v in [w, *_deletions(w)]:
            var_to_inputs.setdefault(v, []).append(w)
    qlens = [len(w) for w in words]
    lo_len, hi_len = min(qlens) - 1, max(qlens) + 1
    var_set = pa.array(sorted(var_to_inputs))

    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"), columns=["term", "df"]
    )

    _CAND = pa.schema(
        [
            ("input_term", pa.string()),
            ("term", pa.string()),
            ("df", pa.int64()),
            ("dist", pa.int64()),
        ]
    )

    def candidates(batch: pa.Table) -> pa.Table:
        ln = pc.utf8_length(batch["term"])
        band = pc.and_(
            pc.greater_equal(ln, lo_len), pc.less_equal(ln, hi_len)
        )
        t = batch.filter(band)
        terms = t["term"]
        n = t.num_rows
        hit_rows: list[np.ndarray] = []
        hit_vars: list[pa.Array] = []
        # pass 0: the term itself
        m = pc.is_in(terms, value_set=var_set).to_numpy(zero_copy_only=False)
        if m.any():
            idx = np.flatnonzero(m)
            hit_rows.append(idx)
            hit_vars.append(terms.take(pa.array(idx)).combine_chunks())
        # passes 1..max_len: delete position i (Arrow slice kernels)
        max_len = int(pc.max(pc.utf8_length(terms)).as_py() or 0)
        for i in range(max_len):
            has = pc.greater(pc.utf8_length(terms), i).to_numpy(
                zero_copy_only=False
            )
            rows = np.flatnonzero(has)
            if rows.size == 0:
                continue
            sub = terms.take(pa.array(rows))
            head = pc.utf8_slice_codeunits(sub, 0, i)
            tail = pc.utf8_slice_codeunits(sub, i + 1, 2**30)
            variant = pc.binary_join_element_wise(head, tail, "")
            vm = pc.is_in(variant, value_set=var_set).to_numpy(
                zero_copy_only=False
            )
            if vm.any():
                keep = np.flatnonzero(vm)
                hit_rows.append(rows[keep])
                hit_vars.append(variant.take(pa.array(keep)).combine_chunks())
        if not hit_rows:
            return _CAND.empty_table()
        rows_all = np.concatenate(hit_rows)
        vars_all = pa.concat_arrays(
            [v if isinstance(v, pa.Array) else v.combine_chunks() for v in hit_vars]
        )
        term_np = terms.to_numpy(zero_copy_only=False)
        df_np = pc.cast(t["df"], pa.int64()).to_numpy(zero_copy_only=False)
        out_i, out_t, out_d, out_dist = [], [], [], []
        seen: set[tuple[str, str]] = set()
        for r, v in zip(rows_all, vars_all.to_pylist()):
            term = term_np[r]
            for inp in var_to_inputs[v]:
                key = (inp, term)
                if key in seen:
                    continue
                seen.add(key)
                d = dl_distance_le1(inp, term)
                if d is None:  # neighborhood over-generates (e.g. dist-2)
                    continue
                out_i.append(inp)
                out_t.append(term)
                out_d.append(int(df_np[r]))
                out_dist.append(d)
        return pa.table(
            {
                "input_term": pa.array(out_i, pa.string()),
                "term": pa.array(out_t, pa.string()),
                "df": pa.array(out_d, pa.int64()),
                "dist": pa.array(out_dist, pa.int64()),
            },
            schema=_CAND,
        )

    cand = segs.map_batches(
        candidates, batch_format="pyarrow", zero_copy_batch=True
    )
    # a (input, term) pair can surface from several batches only if the term
    # did — terms are unique across segment rows, so pairs are unique; the
    # groupby below is a per-input top-k merge, not a dedup
    def final(group: pa.Table) -> pa.Table:
        df_np = group["df"].to_numpy(zero_copy_only=False)
        term_np = group["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((term_np, -df_np))[:k]
        keep = pa.array(order)
        return group.select(["input_term", "term", "df", "dist"]).take(keep)

    return cand.groupby("input_term").map_groups(final, batch_format="pyarrow")


@op("spell_suggest", _suggest_sql())
def spell_suggest(sf_dir: str):
    """Registry wrapper: fixed misspelled fixture terms against the
    testdata index (see :func:`suggest_terms` for the dataflow)."""
    return suggest_terms(_index_for(sf_dir), _MISSPELLED, _SUGGEST_K)


# ===========================================================================
# More-like-this (related-document retrieval through the index)
# ===========================================================================

_MLT_SEEDS = [3, 141, 297]
_MLT_TERMS = 3


def _mlt_sql() -> str:
    seeds = ", ".join(f"({qid}, {d})" for qid, d in enumerate(_MLT_SEEDS))
    return f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    st AS (SELECT count(*)::BIGINT AS n, sum(dl)::DOUBLE / count(*) AS avgdl FROM dl),
    df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
    seeds(query_id, seed_doc) AS (VALUES {seeds}),
    sterm AS (
      SELECT s.query_id, tf.term,
             row_number() OVER (PARTITION BY s.query_id
                                ORDER BY tf.tf DESC, df.df ASC, tf.term) AS rn
      FROM seeds s
      JOIN tf ON tf.doc_id = s.seed_doc
      JOIN df ON df.term = tf.term
    ),
    q AS (SELECT query_id, term FROM sterm WHERE rn <= {_MLT_TERMS}),
    sc AS (
      SELECT q.query_id, tf.doc_id,
             sum(ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
                 * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)))
               AS score
      FROM q
      JOIN tf ON tf.term = q.term
      JOIN df ON df.term = q.term
      JOIN dl ON dl.doc_id = tf.doc_id
      CROSS JOIN st
      GROUP BY 1, 2
    )
    SELECT query_id, rank, doc_id FROM (
      SELECT query_id, sc.doc_id AS doc_id,
             row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, sc.doc_id
             ) AS rank
      FROM sc
    ) WHERE rank <= 10
    """


@op("more_like_this", _mlt_sql())
def more_like_this(sf_dir: str):
    """Related-document retrieval ("more like this"): each seed document's
    most characteristic terms (tf desc, df asc, term asc — an
    integer-exact keyword profile, no float idf in the SELECTION so the
    oracle can rank terms identically) become a BM25 pseudo-query answered
    from the inverted index; output is the top-10 per seed, rank-identical
    to the SQL twin (scores excluded — summation-order ulp, same policy as
    bm25_topk).

    Scale shape: the seed fetch is an is_in-pruned scan returning |seeds|
    rows; the per-seed term profile and its df lookup (an is_in-filtered
    dictionary read, ≤ one doc's vocab) are driver-side but bounded by
    document size, never corpus size; the actual retrieval is the same
    index-backed scorer-actor path as the flagship, and the id remap is a
    util.join of the (k·|seeds|)-row result against the checkpoint.
    """
    import ray.data

    from .ops import _remap_to_docids
    from .query import run_queries

    build_dir = _index_for(sf_dir)

    seed_set = pa.array([int(x) for x in _MLT_SEEDS], pa.int64())
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    seed_rows = docs.map_batches(
        lambda t: t.filter(
            pc.is_in(pc.cast(t["doc_id"], pa.int64()), value_set=seed_set)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # bounded: |seeds| rows
    texts = {int(r["doc_id"]): r["text"] for r in seed_rows}

    from collections import Counter

    tf_by_seed = {d: Counter(tokenize(texts[d])) for d in _MLT_SEEDS}
    all_terms = sorted({t for c in tf_by_seed.values() for t in c})
    seg = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"),
        columns=["term", "df"],
        filter=pc.field("term").isin(all_terms),
    )
    dfmap = {r["term"]: int(r["df"]) for r in seg.take_all()}  # ≤ seed vocab

    q_texts = []
    for d in _MLT_SEEDS:
        ranked = sorted(
            tf_by_seed[d].items(), key=lambda kv: (-kv[1], dfmap[kv[0]], kv[0])
        )[:_MLT_TERMS]
        q_texts.append(" ".join(t for t, _ in ranked))

    q_tbl = pa.table(
        {
            "query_id": pa.array(range(len(_MLT_SEEDS)), pa.int64()),
            "text": pa.array(q_texts, pa.string()),
        }
    )
    res = run_queries(build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="bmw")
    return _remap_to_docids(res, build_dir)


# ===========================================================================
# Boolean OR retrieval (disjunctive hit counts — the "N results" number)
# ===========================================================================


def _bool_or_sql() -> str:
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    q(query_id, term) AS (VALUES {values}),
    hit AS (
      SELECT DISTINCT q.query_id, t.doc_id
      FROM q JOIN toks t ON t.term = q.term
    ),
    ors AS (SELECT query_id, count(*) AS n_match FROM hit GROUP BY 1),
    qs AS (SELECT DISTINCT query_id FROM q)
    SELECT qs.query_id, COALESCE(o.n_match, 0)::BIGINT AS n_match
    FROM qs LEFT JOIN ors o ON o.query_id = qs.query_id
    """


@op("boolean_or_counts", _bool_or_sql())
def boolean_or_counts(sf_dir: str):
    """Disjunctive (OR) hit counts — the "N results" total a search UI
    shows next to the ranked page: how many documents contain ANY term of
    each fixture query.

    Same index-read shape as boolean_and_counts (is_in-pruned dictionary
    read → posting decode → (query, doc) hits); the groupby dedupes hits
    (a doc matching two terms counts once) and a second tiny aggregate
    counts per query, zero-seeded so empty queries still emit a row.
    """
    import ray.data
    from ray.data.aggregate import Sum

    build_dir = _index_for(sf_dir)

    term_to_qids: dict[str, list[int]] = {}
    for qid, text in enumerate(DOC_QUERIES):
        for t in sorted(set(tokenize(text))):
            term_to_qids.setdefault(t, []).append(qid)

    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"),
        columns=["term", "docids"],
        filter=pc.field("term").isin(sorted(term_to_qids)),
    )

    _HITS = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])

    def hits(batch: pa.Table) -> pa.Table:
        qids_out, docs_out = [], []
        for term, buf in zip(
            batch["term"].to_pylist(), batch["docids"].to_pylist()
        ):
            d = decode_docids(buf).astype(np.int64)
            for qid in term_to_qids.get(term, ()):
                qids_out.append(np.full(len(d), qid, dtype=np.int64))
                docs_out.append(d)
        if not qids_out:
            return _HITS.empty_table()
        return pa.table(
            {
                "query_id": np.concatenate(qids_out),
                "doc_id": np.concatenate(docs_out),
            },
            schema=_HITS,
        )

    _ONE = pa.schema([("query_id", pa.int64()), ("one", pa.int64())])

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": pc.cast(t["query_id"], pa.int64()),
                "one": np.ones(t.num_rows, dtype=np.int64),
            },
            schema=_ONE,
        )

    distinct_hits = (
        segs.map_batches(hits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["query_id", "doc_id"])
        .count()
        .map_batches(ones, batch_format="pyarrow", zero_copy_batch=True)
    )
    seeds = ray.data.from_arrow(
        pa.table(
            {
                "query_id": np.arange(len(DOC_QUERIES), dtype=np.int64),
                "one": np.zeros(len(DOC_QUERIES), dtype=np.int64),
            },
            schema=_ONE,
        )
    )
    agg = distinct_hits.union(seeds).groupby("query_id").aggregate(Sum("one"))
    return _rename(agg, {"sum(one)": "n_match"}, int64_cols=("n_match",))


# ===========================================================================
# Index dictionary stats (index bookkeeping == corpus truth, as an op)
# ===========================================================================


@op(
    "index_dictionary_stats",
    f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    d AS (SELECT term, count(*) AS df FROM toks GROUP BY 1)
    SELECT count(*)::BIGINT AS n_terms,
           sum(df)::BIGINT AS n_postings,
           max(df)::BIGINT AS max_df
    FROM d
    """,
)
def index_dictionary_stats(sf_dir: str):
    """Index-integrity accounting AS a registry op: distinct term count,
    total postings and the hottest term's df, read from the segment
    dictionary — the oracle recomputes the same numbers from the raw
    corpus, so a drifting index (lost postings, double-counted df after a
    bad merge) fails the driver's hash check, not just a unit test.

    Scale shape: a (df)-column-only read of the segments; per-batch
    partial (count, sum, max) triplets; one 3-column global aggregate.
    """
    import ray.data
    from ray.data.aggregate import Max, Sum

    build_dir = _index_for(sf_dir)
    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"), columns=["df"]
    )

    _PART = pa.schema(
        [("n_terms", pa.int64()), ("n_postings", pa.int64()), ("max_df", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pc.cast(t["df"], pa.int64())
        return pa.table(
            {
                "n_terms": pa.array([t.num_rows], pa.int64()),
                "n_postings": pa.array([pc.sum(df).as_py() or 0], pa.int64()),
                "max_df": pa.array([pc.max(df).as_py() or 0], pa.int64()),
            },
            schema=_PART,
        )

    parts = segs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.aggregate(Sum("n_terms"), Sum("n_postings"), Max("max_df"))
    return pa.table(
        {
            "n_terms": pa.array([int(agg["sum(n_terms)"])], pa.int64()),
            "n_postings": pa.array([int(agg["sum(n_postings)"])], pa.int64()),
            "max_df": pa.array([int(agg["max(max_df)"])], pa.int64()),
        }
    )


# ===========================================================================
# Faceted search counts (per-language match counts off the inverted index)
# ===========================================================================


def _facet_sql() -> str:
    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH toks AS (
      SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
    ),
    q(query_id, term) AS (VALUES {values}),
    qsz AS (SELECT query_id, count(*) AS nt FROM q GROUP BY 1),
    hit AS (
      SELECT q.query_id, t.doc_id, count(*) AS nhit
      FROM q JOIN toks t ON t.term = q.term GROUP BY 1, 2
    ),
    conj AS (
      SELECT h.query_id, h.doc_id
      FROM hit h JOIN qsz ON qsz.query_id = h.query_id AND h.nhit = qsz.nt
    )
    SELECT c.query_id, d.lang, count(*)::BIGINT AS n_match
    FROM conj c JOIN documents d ON d.doc_id = c.doc_id
    GROUP BY 1, 2
    """


@op("facet_counts", _facet_sql())
def facet_counts(sf_dir: str):
    """Faceted navigation: for each fixture query, the per-language counts
    of documents matching ALL query terms — the sidebar every search UI
    renders next to ranked results.

    Scale shape: candidates come from the INDEX (is_in-pruned dictionary
    read, only queried posting rows decoded — same path as
    boolean_and_counts); the facet column attaches via ONE util.join
    against the docvec checkpoint's (doc_id, lang) projection (the small
    matched set is the broadcast side until it outgrows the cap); the
    result reduces to ≤ |queries| × |langs| rows.  The corpus text is
    never re-scanned."""
    import ray.data

    from .util import drop_empty_blocks, join

    build_dir = _index_for(sf_dir)

    term_to_qids: dict[str, list[int]] = {}
    qsize = np.zeros(len(DOC_QUERIES), dtype=np.int64)
    for qid, text in enumerate(DOC_QUERIES):
        ts = sorted(set(tokenize(text)))
        qsize[qid] = len(ts)
        for t in ts:
            term_to_qids.setdefault(t, []).append(qid)

    segs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=segments"),
        columns=["term", "docids"],
        filter=pc.field("term").isin(sorted(term_to_qids)),
    )

    _HITS = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])

    def hits(batch: pa.Table) -> pa.Table:
        qids_out, docs_out = [], []
        for term, buf in zip(
            batch["term"].to_pylist(), batch["docids"].to_pylist()
        ):
            d = decode_docids(buf).astype(np.int64)
            for qid in term_to_qids.get(term, ()):
                qids_out.append(np.full(len(d), qid, dtype=np.int64))
                docs_out.append(d)
        if not qids_out:
            return _HITS.empty_table()
        return pa.table(
            {
                "query_id": np.concatenate(qids_out),
                "doc_id": np.concatenate(docs_out),
            },
            schema=_HITS,
        )

    per_doc = (
        segs.map_batches(hits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["query_id", "doc_id"])
        .count()
    )

    def full_match(t: pa.Table) -> pa.Table:
        q = pc.cast(t["query_id"], pa.int64()).to_numpy(zero_copy_only=False)
        d = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        n = pc.cast(t["count()"], pa.int64()).to_numpy(zero_copy_only=False)
        keep = n == qsize[q]
        return pa.table(
            {"query_id": q[keep], "doc_id": d[keep]}, schema=_HITS
        )

    matched = per_doc.map_batches(
        full_match, batch_format="pyarrow", zero_copy_batch=True
    )
    langs = ray.data.read_parquet(
        os.path.join(build_dir, "stage=docvec"), columns=["doc_id", "lang"]
    )
    joined = join(
        matched, langs, ("doc_id",), "inner",
        pa.schema(
            [("query_id", pa.int64()), ("doc_id", pa.int64()),
             ("lang", pa.string())]
        ),
    )
    agg = joined.groupby(["query_id", "lang"]).count()
    # heal: no full match must still present the output columns
    return drop_empty_blocks(
        _rename(agg, {"count()": "n_match"}, int64_cols=("n_match",)),
        pa.schema(
            [("query_id", pa.int64()), ("lang", pa.string()), ("n_match", pa.int64())]
        ),
    )


# ===========================================================================
# Hybrid search: Reciprocal Rank Fusion of BM25 and vector ranks
# ===========================================================================

_RRF_K = 60       # the standard RRF damping constant (Cormack et al. 2009)
_HYBRID_TOPK = 10
# shared ANN fixture from the functions/dedup leaf module (ADVICE r3):
# ops_dedup's engine/oracle use the same source, so they cannot drift
_ANN_NQ = dd.ANN_NQ
_ANN_K = dd.ANN_K


def _hybrid_sql() -> str:
    from .ops import _bm25_sql

    ann_sql = f"""
      SELECT query_id, rank, neighbor_id AS doc_id FROM (
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
    """
    return f"""
    WITH b AS ({_bm25_sql()}),
    a AS ({ann_sql}),
    f AS (
      SELECT coalesce(b.query_id, a.query_id) AS query_id,
             coalesce(b.doc_id, a.doc_id) AS doc_id,
             coalesce(1.0 / ({_RRF_K} + b.rank), 0)
               + coalesce(1.0 / ({_RRF_K} + a.rank), 0) AS rrf
      FROM b FULL OUTER JOIN a
        ON a.query_id = b.query_id AND a.doc_id = b.doc_id
      WHERE coalesce(b.query_id, a.query_id) < {_ANN_NQ}
    )
    SELECT query_id, rank, doc_id FROM (
      SELECT query_id, doc_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY rrf DESC, doc_id) AS rank
      FROM f
    ) WHERE rank <= {_HYBRID_TOPK}
    """


@op("hybrid_search_rrf", _hybrid_sql())
def hybrid_search_rrf(sf_dir: str):
    """Hybrid retrieval: Reciprocal Rank Fusion (Cormack et al., SIGIR
    2009) of the BM25 ranking and the cosine vector ranking — the
    standard two-tower search stack (lexical + semantic) fused without
    score calibration.  Query q pairs DOC_QUERIES[q] with the embedding
    of vec_id q; rrf = Σ 1/(60 + rank) over the lists that ranked the
    doc.  Two IEEE divisions + one two-operand addition — identical
    expression tree on both sides, so values hash exactly.

    Scale shape: both input rankings are the already-distributed ops
    (index-backed BM25, broadcast-matmul ANN); fusion itself operates on
    the bounded rank lists (≤ queries × 2k rows), which is where RRF
    always runs — fusing AFTER per-system top-k is the algorithm, not a
    shortcut."""
    from .ops import _bm25_run
    from .ops_dedup import ann_topk_cosine

    bm25 = _bm25_run(sf_dir).to_pandas()  # bounded: queries × k
    bm25 = bm25[bm25["query_id"] < _ANN_NQ]
    ann = ann_topk_cosine(sf_dir).to_pandas()  # bounded: queries × k

    scores: dict[tuple[int, int], float] = {}
    for _, r in bm25.iterrows():
        key = (int(r["query_id"]), int(r["doc_id"]))
        scores[key] = scores.get(key, 0.0) + 1.0 / (_RRF_K + int(r["rank"]))
    for _, r in ann.iterrows():
        key = (int(r["query_id"]), int(r["neighbor_id"]))
        scores[key] = scores.get(key, 0.0) + 1.0 / (_RRF_K + int(r["rank"]))

    out_q, out_r, out_d = [], [], []
    by_query: dict[int, list[tuple[float, int]]] = {}
    for (qid, doc), s in scores.items():
        by_query.setdefault(qid, []).append((s, doc))
    for qid in sorted(by_query):
        ranked = sorted(by_query[qid], key=lambda t: (-t[0], t[1]))[:_HYBRID_TOPK]
        for i, (_, doc) in enumerate(ranked, start=1):
            out_q.append(qid)
            out_r.append(i)
            out_d.append(doc)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


# ===========================================================================
# Unordered proximity search (within-window match off the positional index)
# ===========================================================================

# (query text, window): a doc matches when ALL the query's distinct terms
# occur with min cover span <= window in the filtered token stream.  The
# last fixture's OOV term is the structural zero-match case.
_PROX_QUERIES = [
    ("hash join", 3),
    ("table scan", 2),
    ("hash join key", 6),
    ("merge sort", 1),
    ("dup spark", 2),
    ("zzqx join", 3),
]


def _prox_sql() -> str:
    selects = []
    for q, w in _PROX_QUERIES:
        terms = list(dict.fromkeys(tokenize(q)))
        if len(terms) == 1:
            sub = f"(SELECT count(DISTINCT doc_id) FROM pos WHERE tok = '{terms[0]}')"
        else:
            joins = " ".join(
                f"JOIN pos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.tok = '{t}'"
                for i, t in enumerate(terms[1:], 1)
            )
            g = ", ".join(f"p{i}.p" for i in range(len(terms)))
            sub = (
                f"(SELECT count(DISTINCT p0.doc_id) FROM pos p0 {joins} "
                f"WHERE p0.tok = '{terms[0]}' "
                f"AND greatest({g}) - least({g}) <= {w})"
            )
        selects.append(
            f"SELECT '{q}' AS query, CAST({w} AS BIGINT) AS win, "
            f"CAST({sub} AS BIGINT) AS n_docs"
        )
    body = " UNION ALL ".join(selects)
    return f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    pos AS (
      SELECT doc_id, unnest(t) AS tok, generate_subscripts(t, 1) AS p
      FROM toks
    )
    SELECT * FROM ({body}) ORDER BY query
    """


@op("proximity_match_counts", _prox_sql())
def proximity_match_counts(sf_dir: str):
    """Unordered proximity search ("all terms within W tokens") answered
    from the POSITIONAL index: candidate docs come from the posting
    doc-id intersection, the verify runs a min-cover-span two-pointer per
    candidate (ScorerActor.proximity_count) — no corpus scan anywhere in
    the Ray plan; the index build is amortized across every index-backed
    op via the /tmp cache.  Emits exactly one row per fixture query
    (zero-match rows included, mirroring the oracle's scalar subqueries),
    sorted by query text.

    Position bases differ (engine 0-based stream index, oracle 1-based
    generate_subscripts) but only position DIFFERENCES enter the
    predicate, so the two sides agree exactly."""
    import ray.data

    from .query import ProximityCounter

    build_dir = _index_for(sf_dir, positions=True)
    qs = ray.data.from_arrow(
        pa.table(
            {
                "query": pa.array([q for q, _ in _PROX_QUERIES], pa.string()),
                "win": pa.array([w for _, w in _PROX_QUERIES], pa.int64()),
            }
        )
    )
    res = qs.map_batches(
        ProximityCounter,
        fn_constructor_kwargs={"build_dir": build_dir},
        batch_format="pyarrow",
        batch_size=None,
        concurrency=1,
    )
    t = pa.Table.from_pandas(res.to_pandas(), preserve_index=False)
    return t.take(pc.sort_indices(t, sort_keys=[("query", "ascending")]))


# ===========================================================================
# Search-quality evaluation: rank of the first AND-relevant hit per query
# ===========================================================================


def _eval_sql() -> str:
    from .ops import DOC_QUERIES, _bm25_sql

    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    allq = ", ".join(f"({i})" for i in range(len(DOC_QUERIES)))
    return f"""
    WITH bm AS (SELECT * FROM ({_bm25_sql()})),
    dtoks AS (SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents),
    q(query_id, term) AS (VALUES {values}),
    qsz AS (SELECT query_id, count(*) AS nt FROM q GROUP BY 1),
    rel AS (
      SELECT q.query_id, t.doc_id
      FROM q JOIN dtoks t ON t.term = q.term
      GROUP BY 1, 2
      HAVING count(*) = (SELECT nt FROM qsz WHERE qsz.query_id = q.query_id)
    ),
    fr AS (
      SELECT bm.query_id, min(bm.rank) AS r
      FROM bm JOIN rel ON rel.query_id = bm.query_id AND rel.doc_id = bm.doc_id
      GROUP BY 1
    ),
    allq(query_id) AS (VALUES {allq})
    SELECT allq.query_id::BIGINT AS query_id,
           COALESCE(fr.r, 0)::BIGINT AS first_rel_rank
    FROM allq LEFT JOIN fr ON fr.query_id = allq.query_id
    ORDER BY query_id
    """


@op("first_relevant_rank", _eval_sql())
def first_relevant_rank(sf_dir: str):
    """IR evaluation over the engine's own ranking: for every fixture
    query, the rank of the FIRST result that is AND-relevant (contains
    every query term — the same pseudo-label boolean_and_counts counts),
    0 when no top-10 hit qualifies.  Integer-exact (ranks only — no MRR
    float ever crosses the compare).

    Plan: the BM25 ranking is the flagship pipeline's bounded k·|queries|
    result; the relevance check is ONE column-pruned pass over documents
    filtered to the ≤ k·|queries| candidate doc ids at the batch level —
    per batch a token-set containment test against the fixture term sets
    (both fixture-bounded).  Only candidate-doc rows are ever tokenized;
    the join back to ranks happens on the driver over the bounded result
    set."""
    from .ops import DOC_QUERIES, bm25_topk

    ranked = [
        (int(r["query_id"]), int(r["rank"]), int(r["doc_id"]))
        for r in bm25_topk(sf_dir)
        .select_columns(["query_id", "rank", "doc_id"])
        .take_all()  # k·|queries| rows — bounded
    ]
    cand = pa.array(sorted({d for _, _, d in ranked}), pa.int64())
    qterms = [sorted(set(tokenize(q))) for q in DOC_QUERIES]

    _REL = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])

    def check(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"], value_set=cand))
        out_q, out_d = [], []
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = set(tokenize(x or ""))
            for qid, ts in enumerate(qterms):
                if all(tm in toks for tm in ts):
                    out_q.append(qid)
                    out_d.append(int(d))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
            },
            schema=_REL,
        )

    rel = {
        (int(r["query_id"]), int(r["doc_id"]))
        for r in read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(check, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()  # ≤ |queries| × |candidates| — bounded
    }
    first = {}
    for qid, rank, doc in ranked:
        if (qid, doc) in rel and rank < first.get(qid, 1 << 30):
            first[qid] = rank
    return pa.table(
        {
            "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
            "first_rel_rank": pa.array(
                [first.get(i, 0) for i in range(len(DOC_QUERIES))], pa.int64()
            ),
        }
    )


# ===========================================================================
# Pseudo-relevance-feedback query expansion (RM1-style, integer weights)
# ===========================================================================

_EXPANSION_K = 5       # expansion terms kept per query
_FEEDBACK_DEPTH = 10   # feedback docs = the engine's own top-10 (== bm25 k)


def _expansion_sql() -> str:
    """Twin: replay the BM25 ranking (shared builder), per-(doc, term)
    tf with multiplicity, sum tf over each query's feedback docs, exclude
    the query's own terms, top-_EXPANSION_K by (tf_total DESC, term)."""
    from .ops import _bm25_sql

    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH bm AS (SELECT * FROM ({_bm25_sql()})),
    dtoks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM dtoks GROUP BY 1, 2),
    qt(query_id, term) AS (VALUES {values}),
    agg AS (
      SELECT bm.query_id, tf.term, sum(tf.tf)::BIGINT AS tf_total
      FROM bm JOIN tf ON tf.doc_id = bm.doc_id
      WHERE NOT EXISTS (
        SELECT 1 FROM qt
        WHERE qt.query_id = bm.query_id AND qt.term = tf.term
      )
      GROUP BY 1, 2
    )
    SELECT query_id, rank, term, tf_total FROM (
      SELECT query_id, term, tf_total,
             row_number() OVER (
               PARTITION BY query_id ORDER BY tf_total DESC, term
             ) AS rank
      FROM agg
    ) WHERE rank <= {_EXPANSION_K}
    """


@op("query_expansion_terms", _expansion_sql)
def query_expansion_terms(sf_dir: str):
    """Pseudo-relevance-feedback expansion (RM1 shape, Lavrenko & Croft
    SIGIR 2001, integer-weighted per the ops.py float-safety policy): for
    each fixture query, rank every term of its top-{_FEEDBACK_DEPTH} BM25
    feedback docs by TOTAL term frequency across those docs, drop the
    query's own terms, keep the top {_EXPANSION_K} — the classic automatic
    query-expansion loop a search engine runs between two index passes.

    Plan: the feedback ranking is the flagship pipeline's bounded
    k·|queries| result; the tf pass is ONE column-pruned corpus scan with
    an is_in batch filter (only feedback docs are ever tokenized), emitting
    (doc_id, term, tf) for ≤ k·|queries| docs; the per-query accumulation
    and top-k run on the driver over that bounded set (≤ feedback docs ×
    doc length rows — fixture-bounded, never corpus-sized)."""
    from collections import defaultdict

    from ..functions.text import flat_tokens
    from .ops import bm25_topk

    ranked = [
        (int(r["query_id"]), int(r["doc_id"]))
        for r in bm25_topk(sf_dir)
        .select_columns(["query_id", "doc_id"])
        .take_all()  # k·|queries| rows — bounded
    ]
    cand = pa.array(sorted({d for _, d in ranked}), pa.int64())
    docs_of: dict[int, list[int]] = defaultdict(list)
    for qid, d in ranked:
        docs_of[qid].append(d)
    own_terms = [set(tokenize(q)) for q in DOC_QUERIES]

    _TF = pa.schema(
        [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
    )

    def doc_tf(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"], value_set=cand))
        toks, parent = flat_tokens(t["text"])
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        g = (
            pa.table({"doc_id": pa.array(ids[parent], pa.int64()), "term": toks})
            .group_by(["doc_id", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "term": g["term"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            },
            schema=_TF,
        )

    tf_rows = (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(doc_tf, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()  # ≤ |feedback docs| × doc length — fixture-bounded
    )
    by_doc: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for r in tf_rows:
        by_doc[int(r["doc_id"])].append((str(r["term"]), int(r["tf"])))

    out = {c: [] for c in ("query_id", "rank", "term", "tf_total")}
    for qid in sorted(docs_of):
        total: dict[str, int] = defaultdict(int)
        for d in docs_of[qid]:
            for term, tf in by_doc.get(d, ()):
                if term not in own_terms[qid]:
                    total[term] += tf
        top = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))[:_EXPANSION_K]
        for rank, (term, tf_total) in enumerate(top, 1):
            out["query_id"].append(qid)
            out["rank"].append(rank)
            out["term"].append(term)
            out["tf_total"].append(tf_total)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int64()),
            "term": pa.array(out["term"], pa.string()),
            "tf_total": pa.array(out["tf_total"], pa.int64()),
        }
    )


# ===========================================================================
# rerank_topk — two-stage retrieval: BM25 recall set -> feature reranker
# ===========================================================================

_RERANK_CAND_K = 20   # stage-1 recall set per query (BM25 top-20)
_RERANK_K = 10        # final page size
# integer feature weights: matched dominates, then total tf, then a short-
# document preference — all exact int64, so both engines rank identically
_W_MATCH = 1_000_000_000
_W_TF = 1_000


def _rerank_sql() -> str:
    from .ops import _bm25_sql

    q_rows = []
    for qid, text in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(text))):
            q_rows.append(f"({qid}, '{term}')")
    values = ", ".join(q_rows)
    return f"""
    WITH s1 AS ({_bm25_sql(rank_lo=1, rank_hi=_RERANK_CAND_K)}),
    toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
    dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY 1),
    q(query_id, term) AS (VALUES {values}),
    feat AS (
      SELECT s1.query_id, s1.doc_id,
             count(tf.term)::BIGINT AS matched,
             COALESCE(sum(tf.tf), 0)::BIGINT AS sumtf
      FROM s1
      JOIN q ON q.query_id = s1.query_id
      LEFT JOIN tf ON tf.doc_id = s1.doc_id AND tf.term = q.term
      GROUP BY 1, 2
    ),
    sc AS (
      SELECT f.query_id, f.doc_id,
             f.matched * {_W_MATCH} + f.sumtf * {_W_TF} - dl.dl AS rerank_score
      FROM feat f JOIN dl ON dl.doc_id = f.doc_id
    )
    SELECT query_id, rank, doc_id, rerank_score FROM (
      SELECT query_id, doc_id, rerank_score,
             row_number() OVER (
               PARTITION BY query_id ORDER BY rerank_score DESC, doc_id
             ) AS rank
      FROM sc
    ) WHERE rank <= {_RERANK_K}
    """


@op("rerank_topk", _rerank_sql)
def rerank_topk(sf_dir: str):
    """Two-stage retrieval (the production search-serving shape): stage 1
    pulls a BM25 top-20 recall set per query from the inverted
    index (same engine path as bm25_topk_page2 — rank identity with the
    SQL twin is already driver-proven at k=20); stage 2 re-scores ONLY
    those candidates with a feature model — matched query terms, total
    query-term tf, document length — combined by exact integer weights so
    both engines agree bit-for-bit.

    Scale shape: the expensive ranker touches candidates only.  The
    recall set is ≤ |queries|·20 rows (bounded — safe to collect);
    the feature pass re-reads JUST the candidate documents via an is_in
    predicate applied AT THE SCAN, tokenizes those rows once, and every
    feature is a vectorized bincount over the exploded (row, term) pairs.
    Nothing corpus-sized shuffles and the reranker's cost is
    O(candidates), not O(corpus) — the reason two-stage serving exists.
    """
    import ray
    import ray.data

    from .ops import _remap_to_docids
    from .query import run_queries

    build_dir = _index_for(sf_dir)
    q_tbl = pa.table(
        {
            "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
            "text": pa.array(DOC_QUERIES, pa.string()),
        }
    )
    cand = _remap_to_docids(
        run_queries(build_dir, ray.data.from_arrow(q_tbl), k=_RERANK_CAND_K,
                    scorer="bmw"),
        build_dir,
    ).take_all()  # ≤ |queries| × cand_k rows — bounded by the fixture, not data

    cand_docs_of: dict[int, set[int]] = {}
    for r in cand:
        cand_docs_of.setdefault(int(r["query_id"]), set()).add(int(r["doc_id"]))
    all_cand = sorted({d for s in cand_docs_of.values() for d in s})
    qterm_sets = [
        pa.array(sorted(set(tokenize(q))), pa.string()) for q in DOC_QUERIES
    ]
    cand_arrays = {
        qid: np.array(sorted(s), np.int64) for qid, s in cand_docs_of.items()
    }

    _FEAT = pa.schema(
        [("query_id", pa.int64()), ("doc_id", pa.int64()),
         ("matched", pa.int64()), ("sumtf", pa.int64()), ("dl", pa.int64())]
    )

    def feats(batch: pa.Table) -> pa.Table:
        from ..functions.text import flat_tokens

        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, parent = flat_tokens(batch["text"])
        parent = np.asarray(parent, np.int64)
        dl = np.bincount(parent, minlength=doc_ids.size).astype(np.int64)
        out = {c: [] for c in ("query_id", "doc_id", "matched", "sumtf", "dl")}
        # per (row, term) tf once; per query a vectorized is_in + two bincounts
        pairs = (
            pa.table({"row": pa.array(parent), "term": flat})
            .group_by(["row", "term"])
            .aggregate([([], "count_all")])
        )
        rows = pairs["row"].to_numpy(zero_copy_only=False).astype(np.int64)
        tfs = pairs["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        for qid, cand_ids in cand_arrays.items():
            hit = np.isin(doc_ids, cand_ids)
            if not hit.any():
                continue
            member = pc.is_in(pairs["term"], value_set=qterm_sets[qid])
            m = member.to_numpy(zero_copy_only=False)
            rw, tw = rows[m], tfs[m]
            matched = np.bincount(rw, minlength=doc_ids.size)
            sumtf = np.bincount(rw, weights=tw, minlength=doc_ids.size)
            sel = np.flatnonzero(hit)
            out["query_id"].extend([qid] * sel.size)
            out["doc_id"].extend(doc_ids[sel])
            out["matched"].extend(matched[sel])
            out["sumtf"].extend(sumtf[sel].astype(np.int64))
            out["dl"].extend(dl[sel])
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], pa.int64()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "matched": pa.array(out["matched"], pa.int64()),
                "sumtf": pa.array(out["sumtf"], pa.int64()),
                "dl": pa.array(out["dl"], pa.int64()),
            },
            schema=_FEAT,
        )

    feat_rows = (
        read_table(
            sf_dir, "documents", columns=["doc_id", "text"],
            filter=pc.field("doc_id").isin(all_cand),  # predicate AT THE SCAN
        )
        .map_batches(feats, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()  # ≤ Σ_q |cand_q| rows — bounded
    )

    out = {c: [] for c in ("query_id", "rank", "doc_id", "rerank_score")}
    by_q: dict[int, list[tuple[int, int]]] = {}
    for r in feat_rows:
        score = (
            int(r["matched"]) * _W_MATCH + int(r["sumtf"]) * _W_TF - int(r["dl"])
        )
        by_q.setdefault(int(r["query_id"]), []).append((score, int(r["doc_id"])))
    for qid in sorted(by_q):
        ranked = sorted(by_q[qid], key=lambda sd: (-sd[0], sd[1]))[:_RERANK_K]
        for rank, (score, doc) in enumerate(ranked, 1):
            out["query_id"].append(qid)
            out["rank"].append(rank)
            out["doc_id"].append(doc)
            out["rerank_score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "rerank_score": pa.array(out["rerank_score"], pa.int64()),
        }
    )
