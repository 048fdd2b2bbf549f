"""Text-analysis operators for training-data pipelines (task brief:
language-ID, quality scoring, token counting, document fingerprinting;
ref: n/a — SURVEY.md §0).

Kernels live in functions/text.py (shared with tests); every op except the
rolling-hash fingerprint has a bit-exact DuckDB oracle (integer counts and
single int/int → double divisions only).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import dedup as dd
from ..functions.text import (
    LANG_STOPWORDS,
    SQL_TOKENIZE,
    fingerprint_column,
    flat_tokens,
    quality_stats,
)
from ..sources.corpus import read_table
from .ops import op
from .util import join

_TOKS = SQL_TOKENIZE.format(col="text")


# ===========================================================================
# Language ID (stopword vote)
# ===========================================================================

def _lang_sql() -> str:
    rows = ", ".join(
        f"('{lang}', '{t}')"
        for lang in sorted(LANG_STOPWORDS)
        for t in sorted(LANG_STOPWORDS[lang])
    )
    return f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    sw(lang, term) AS (VALUES {rows}),
    votes AS (
      SELECT t.doc_id, sw.lang, count(*) AS hits
      FROM toks t JOIN sw ON sw.term = t.term GROUP BY 1, 2
    ),
    best AS (
      SELECT doc_id, lang,
             row_number() OVER (PARTITION BY doc_id ORDER BY hits DESC, lang) AS rn
      FROM votes
    )
    SELECT d.doc_id, COALESCE(b.lang, 'und') AS lang_pred
    FROM documents d LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
    """


@op("lang_id", _lang_sql())
def lang_id(sf_dir: str):
    """Stopword-vote language heuristic, fully vectorized: one is_in mask
    per language over the flat token stream, per-doc vote counts via
    np.add.at, argmax with (hits desc, lang asc) tie-break, 'und' on zero."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    langs = sorted(LANG_STOPWORDS)
    sets = [pa.array(sorted(LANG_STOPWORDS[l])) for l in langs]

    def fn(batch: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(batch["text"])
        n = batch.num_rows
        hits = np.zeros((n, len(langs)), dtype=np.int64)
        for j, vs in enumerate(sets):
            mask = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False)
            np.add.at(hits[:, j], parent, mask)
        best = np.argmax(hits, axis=1)  # first max → alphabetical tie-break
        pred = np.array(langs, dtype=object)[best]
        pred[hits.max(axis=1) == 0] = "und"
        return pa.table(
            {"doc_id": batch["doc_id"], "lang_pred": pa.array(pred, pa.string())}
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Quality scoring (length / punct / digit / upper ratios)
# ===========================================================================

@op(
    "quality_score",
    f"""
    SELECT doc_id,
           length(text)::BIGINT AS n_chars,
           len({_TOKS})::BIGINT AS n_tokens,
           COALESCE(list_sum(list_transform({_TOKS}, t -> length(t))), 0)::DOUBLE
             / greatest(len({_TOKS}), 1) AS mean_token_len,
           (length(text) - length(regexp_replace(text, '[\\.,;:!\\?]', '', 'g')))::DOUBLE
             / greatest(length(text), 1) AS punct_ratio,
           (length(text) - length(regexp_replace(text, '[0-9]', '', 'g')))::DOUBLE
             / greatest(length(text), 1) AS digit_ratio,
           (length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')))::DOUBLE
             / greatest(length(text), 1) AS upper_ratio
    FROM documents
    """,
)
def quality_score(sf_dir: str):
    """Per-doc quality signals (task brief).  All ratios are one int/int →
    float64 division — bit-identical to the SQL twin in any order."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        q = quality_stats(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(q["n_chars"], pa.int64()),
                "n_tokens": pa.array(q["n_tokens"], pa.int64()),
                "mean_token_len": pa.array(q["mean_token_len"], pa.float64()),
                "punct_ratio": pa.array(q["punct_ratio"], pa.float64()),
                "digit_ratio": pa.array(q["digit_ratio"], pa.float64()),
                "upper_ratio": pa.array(q["upper_ratio"], pa.float64()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Token counting (BPE-ish regex segmentation)
# ===========================================================================

_BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


@op(
    "token_count_regex",
    f"SELECT doc_id, len(regexp_extract_all(text, '{_BPE_RE}'))::BIGINT AS n_bpe_tokens"
    " FROM documents",
)
def token_count_regex(sf_dir: str):
    """BPE-ish token counting: word / number / single-symbol segmentation,
    one RE2 kernel per batch (pc.count_substring_regex)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], _BPE_RE)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_bpe_tokens": pc.cast(n, pa.int64())}
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Document fingerprinting
# ===========================================================================

def _fp_sql() -> str:
    h60 = dd.SQL_H60.format(s="s")
    return f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    sh AS (
      SELECT doc_id, unnest({dd.sql_shingles('t')}) AS s
      FROM toks WHERE len(t) >= {dd.SHINGLE_K}
    ),
    m AS (SELECT doc_id, min({h60}) AS fp FROM sh GROUP BY doc_id)
    SELECT d.doc_id, COALESCE(m.fp, -1) AS fingerprint
    FROM documents d LEFT JOIN m ON m.doc_id = d.doc_id
    """


@op("doc_fingerprint", _fp_sql())
def doc_fingerprint(sf_dir: str):
    """Shift-robust document fingerprint: minimum md5-int60 over 3-token
    shingles (winnowing-style min-sampling; Schleimer et al. SIGMOD 2003).
    Docs with < 3 tokens → -1."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        sh, parent = dd.token_shingles(batch["text"])
        fp = np.full(batch.num_rows, np.iinfo(np.int64).max, dtype=np.int64)
        if len(sh):
            np.minimum.at(fp, parent, dd.hash_strings(sh))
        fp[fp == np.iinfo(np.int64).max] = -1
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": pa.array(fp)})

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# N-gram statistics: top bigrams (training-data LM-ish counts)
# ===========================================================================

_TOP_BIGRAMS = 50


def _bigram_sql() -> str:
    return f"""
    WITH toks AS (SELECT {_TOKS} AS t FROM documents),
    bg AS (
      SELECT unnest({dd.sql_shingles('t', k=2)}) AS bigram
      FROM toks WHERE len(t) >= 2
    )
    SELECT bigram, count(*) AS n FROM bg GROUP BY bigram
    ORDER BY n DESC, bigram LIMIT {_TOP_BIGRAMS}
    """


@op("bigram_counts", _bigram_sql())
def bigram_counts(sf_dir: str):
    """Global top-{50} token bigrams (count desc, bigram asc): per-batch
    partial counts (pre-aggregation) → small groupby-sum → top-k sort.
    Bigrams never cross document boundaries (same windowing as shingles)."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        bg, _parent = dd.token_shingles(batch["text"], k=2)
        g = pa.table({"bigram": bg}).group_by("bigram").aggregate([([], "count_all")])
        return pa.table(
            {"bigram": g["bigram"], "cnt": pc.cast(g["count_all"], pa.int64())}
        )

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = parts.groupby("bigram").sum("cnt")
    top = summed.sort(["sum(cnt)", "bigram"], descending=[True, False]).limit(
        _TOP_BIGRAMS
    )
    return top.map_batches(
        lambda t: pa.table(
            {"bigram": t["bigram"], "n": pc.cast(t["sum(cnt)"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# ===========================================================================
# Collocation extraction: top bigrams by PMI (pointwise mutual information)
# ===========================================================================

_PMI_MIN_N = 5       # drop bigrams rarer than this before ranking
_PMI_TOP = 50


def _pmi_sql() -> str:
    return f"""
    WITH toks AS (SELECT {_TOKS} AS t FROM documents),
    uni AS (SELECT unnest(t) AS term FROM toks),
    ucnt AS (SELECT term, count(*)::BIGINT AS n FROM uni GROUP BY 1),
    bg AS (
      SELECT unnest({dd.sql_shingles('t', k=2)}) AS bigram
      FROM toks WHERE len(t) >= 2
    ),
    bcnt AS (
      SELECT bigram, count(*)::BIGINT AS n FROM bg GROUP BY 1
      HAVING count(*) >= {_PMI_MIN_N}
    )
    SELECT b.bigram, b.n, b.n * 1.0 / (ux.n * uy.n) AS pmi_ratio
    FROM bcnt b
    JOIN ucnt ux ON ux.term = split_part(b.bigram, ' ', 1)
    JOIN ucnt uy ON uy.term = split_part(b.bigram, ' ', 2)
    ORDER BY pmi_ratio DESC, b.bigram LIMIT {_PMI_TOP}
    """


@op("bigram_pmi_topk", _pmi_sql())
def bigram_pmi_topk(sf_dir: str):
    """Collocation extraction: top-{50} bigrams by pointwise mutual
    information (Church & Hanks, CL 1990), ranked by the PMI-monotone
    ratio c_xy / (c_x · c_y) — the corpus-size constant log(T²/B) shifts
    every PMI equally, so dropping it keeps the ranking and keeps the
    score ONE division of exact integer counts (float-safety policy:
    bit-identical on both sides; no logs, whose libm could differ).

    Distributed shape: per-batch (left, right) pair counts and unigram
    counts pre-aggregate before their groupbys; the min-count filter
    (n ≥ {5}) prunes the long tail BEFORE the two unigram joins; the
    final sort sees only the surviving collocations.  At 100 TB the join
    keys are vocabulary-sized, never corpus-sized."""

    docs = read_table(sf_dir, "documents", columns=["text"])

    def bg_partial(batch: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(batch["text"])
        n = len(flat)
        empty = pa.schema(
            [("l", pa.string()), ("r", pa.string()), ("cnt", pa.int64())]
        ).empty_table()
        if n < 2:
            return empty
        valid = parent[: n - 1] == parent[1:]
        if not valid.any():
            return empty
        t = pa.table(
            {
                "l": pc.filter(flat.slice(0, n - 1), pa.array(valid)),
                "r": pc.filter(flat.slice(1, n - 1), pa.array(valid)),
            }
        )
        g = t.group_by(["l", "r"]).aggregate([([], "count_all")])
        return pa.table(
            {"l": g["l"], "r": g["r"], "cnt": pc.cast(g["count_all"], pa.int64())}
        )

    def uni_partial(batch: pa.Table) -> pa.Table:
        flat, _parent = flat_tokens(batch["text"])
        g = pa.table({"term": flat}).group_by("term").aggregate([([], "count_all")])
        return pa.table(
            {"term": g["term"], "ucnt": pc.cast(g["count_all"], pa.int64())}
        )

    bg = (
        docs.map_batches(bg_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l", "r"])
        .sum("cnt")
    )

    def keep_common(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["sum(cnt)"], _PMI_MIN_N))
        return pa.table(
            {"l": t["l"], "r": t["r"], "n": pc.cast(t["sum(cnt)"], pa.int64())}
        )

    bg = bg.map_batches(keep_common, batch_format="pyarrow", zero_copy_batch=True)

    uni = (
        docs.map_batches(uni_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .sum("ucnt")
    )
    uni = uni.map_batches(
        lambda t: pa.table(
            {"term": t["term"], "un": pc.cast(t["sum(ucnt)"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    j1 = join(
        bg, uni, ("l",), "inner",
        pa.schema([("l", pa.string()), ("r", pa.string()), ("n", pa.int64()),
                   ("un", pa.int64())]),
        right_on=("term",),
    )
    j1 = j1.map_batches(
        lambda t: t.rename_columns(
            [{"un": "n_l"}.get(c, c) for c in t.column_names]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j2 = join(
        j1, uni, ("r",), "inner",
        pa.schema([("l", pa.string()), ("r", pa.string()), ("n", pa.int64()),
                   ("n_l", pa.int64()), ("un", pa.int64())]),
        right_on=("term",),
    )

    def score(t: pa.Table) -> pa.Table:
        num = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        den = (
            t["n_l"].to_numpy(zero_copy_only=False)
            * t["un"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        bigram = pc.binary_join_element_wise(
            pc.cast(t["l"], pa.string()), pc.cast(t["r"], pa.string()), " "
        )
        return pa.table(
            {
                "bigram": bigram,
                "n": pc.cast(t["n"], pa.int64()),
                "pmi_ratio": pa.array(num / den, pa.float64()),
            }
        )

    scored = j2.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return scored.sort(["pmi_ratio", "bigram"], descending=[True, False]).limit(
        _PMI_TOP
    )


# ===========================================================================
# Exact length deciles (distributed histogram quantiles)
# ===========================================================================

def _decile_sql() -> str:
    qs = ", ".join(f"({q})" for q in range(1, 10))
    return f"""
    WITH t AS (SELECT len({_TOKS})::BIGINT AS n FROM documents),
    o AS (SELECT n, row_number() OVER (ORDER BY n) - 1 AS rn FROM t),
    c AS (SELECT count(*) AS cnt FROM t)
    SELECT q.q AS decile, o.n AS n_tokens
    FROM (VALUES {qs}) q(q)
    JOIN c ON true
    JOIN o ON o.rn = ((c.cnt - 1) * q.q) // 10
    """


@op("length_deciles", _decile_sql())
def length_deciles(sf_dir: str):
    """EXACT token-length deciles over the corpus: decile q = the value at
    index ⌊(n-1)·q/10⌋ of the sorted length multiset.

    Distributed histogram quantiles: per-batch (length → count) partials
    shuffle as one tiny row per distinct length (doc lengths are integers
    with bounded cardinality — the histogram, not the corpus, reaches the
    driver), then a cumulative walk picks the exact decile values.  Exact,
    unlike sketch-based approximate quantiles, and no corpus-sized sort."""
    from .ops import doc_token_stats

    lens = doc_token_stats(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"n_tokens": batch["n_tokens"]})
            .group_by("n_tokens")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"n_tokens": g["n_tokens"], "cnt": pc.cast(g["count_all"], pa.int64())}
        )

    hist = (
        lens.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_tokens")
        .sum("cnt")
        .take_all()
    )  # distinct-length-sized, NOT corpus-sized
    vals = np.array(sorted((int(r["n_tokens"]), int(r["sum(cnt)"])) for r in hist))
    lengths, counts = vals[:, 0], vals[:, 1]
    cum = np.cumsum(counts)
    n = int(cum[-1])
    out_q, out_v = [], []
    for q in range(1, 10):
        idx = (n - 1) * q // 10
        out_q.append(q)
        out_v.append(int(lengths[np.searchsorted(cum, idx + 1)]))
    return pa.table(
        {
            "decile": pa.array(out_q, pa.int32()),
            "n_tokens": pa.array(out_v, pa.int64()),
        }
    )


# ===========================================================================
# Phrase matching (adjacency verify — scan-based; positions are not indexed)
# ===========================================================================

_PHRASES = ["hash join", "table scan", "query plan"]


def _phrase_sql() -> str:
    rows = ", ".join(f"('{p}')" for p in _PHRASES)
    return f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    bg AS (
      SELECT doc_id, unnest({dd.sql_shingles('t', k=2)}) AS bigram
      FROM toks WHERE len(t) >= 2
    ),
    ph(phrase) AS (VALUES {rows})
    SELECT ph.phrase,
           count(DISTINCT bg.doc_id) AS n_docs,
           count(*) AS n_occurrences
    FROM ph JOIN bg ON bg.bigram = ph.phrase
    GROUP BY ph.phrase
    """


@op("phrase_match_counts", _phrase_sql())
def phrase_match_counts(sf_dir: str):
    """Exact phrase matching via the POSITIONAL index (round-3): candidate
    docs come from the doc-id intersection of the phrase terms' posting
    lists, the verify intersects per-doc position sets — no corpus scan
    anywhere in the Ray plan (the index build is amortized across every
    index-backed op via the /tmp cache).  Counts matching docs and total
    occurrences per phrase; phrases with zero matches are dropped (the
    oracle's inner join does the same).  The scan-path twin
    (phrase_match_counts_scan) is kept for A/B tests."""
    import ray.data

    from .ops import _index_for
    from .query import PhraseCounter

    build_dir = _index_for(sf_dir, positions=True)
    phrases = ray.data.from_arrow(
        pa.table({"phrase": pa.array(_PHRASES, pa.string())})
    )
    res = phrases.map_batches(
        PhraseCounter,
        fn_constructor_kwargs={"build_dir": build_dir},
        batch_format="pyarrow",
        batch_size=None,
        concurrency=1,
    )
    return res.map_batches(
        lambda t: t.filter(pc.greater(t["n_docs"], 0)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def phrase_match_counts_scan(sf_dir: str):
    """Scan-path twin of phrase_match_counts (bigram-adjacency verify over
    the whole corpus) — the fallback when no positional index exists, and
    the A/B reference for the index path (tests assert equality)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    phrase_set = pa.array(_PHRASES, pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        bg, parent = dd.token_shingles(batch["text"], k=2)
        keep = pc.is_in(bg, value_set=phrase_set).to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return pa.schema(
                [("phrase", pa.string()), ("doc_id", pa.int64()), ("occ", pa.int64())]
            ).empty_table()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parent[idx]]
        g = (
            pa.table({"phrase": bg.take(pa.array(idx)), "doc_id": pa.array(ids)})
            .group_by(["phrase", "doc_id"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "phrase": g["phrase"],
                "doc_id": g["doc_id"],
                "occ": pc.cast(g["count_all"], pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    parts = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # per (phrase, doc) rows are unique after the per-batch groupby (a doc
    # lives in one batch), so n_docs = row count and occurrences = Σocc
    agg = parts.groupby("phrase").aggregate(Count(), Sum("occ"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "phrase": t["phrase"],
                "n_docs": pc.cast(t["count()"], pa.int64()),
                "n_occurrences": pc.cast(t["sum(occ)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


_RH_WINDOW = 16
_RH_BASE = 257
_RH_MOD = 1 << 32


def _rolling_fp_sql() -> str:
    """SQL twin of functions/text.rolling_fingerprint for ASCII corpora
    (the testdata is pure ASCII, so byte == character): every byte
    contributes to its 16 covering windows via a cross join with the
    position-power table; complete windows (16 terms, start ≥ 1) take the
    min; sub-window docs fall back to the closed-form prefix hash."""
    wpows = ", ".join(
        f"({j}, {pow(_RH_BASE, _RH_WINDOW - 1 - j, _RH_MOD)})"
        for j in range(_RH_WINDOW)
    )
    spows = ", ".join(
        f"({e}, {pow(_RH_BASE, e, _RH_MOD)})" for e in range(_RH_WINDOW)
    )
    return f"""
    WITH pows(j, pw) AS (VALUES {wpows}),
    spows(e, pw) AS (VALUES {spows}),
    ba AS (
      SELECT doc_id, r.i AS i,
             ascii(substring(text, CAST(r.i AS INT), 1)) AS b,
             length(text) AS n
      FROM documents, range(1, 2048) r(i) WHERE r.i <= length(text)
    ),
    wh AS (
      SELECT b.doc_id, b.i - p.j AS wi,
             sum(b.b * p.pw) % {_RH_MOD} AS h, count(*) AS cnt
      FROM ba b CROSS JOIN pows p
      GROUP BY 1, 2
    ),
    m AS (
      SELECT doc_id, min(h) AS fp FROM wh
      WHERE cnt = {_RH_WINDOW} AND wi >= 1 GROUP BY doc_id
    ),
    shrt AS (
      SELECT b.doc_id, sum(b.b * s.pw) % {_RH_MOD} AS fp
      FROM ba b JOIN spows s ON s.e = b.n - b.i
      WHERE b.n < {_RH_WINDOW} GROUP BY b.doc_id
    )
    SELECT d.doc_id,
           CAST(CASE WHEN length(d.text) = 0 THEN 0
                     WHEN length(d.text) < {_RH_WINDOW} THEN s.fp
                     ELSE m.fp END AS BIGINT) AS fingerprint
    FROM documents d
    LEFT JOIN m ON m.doc_id = d.doc_id
    LEFT JOIN shrt s ON s.doc_id = d.doc_id
    """


@op("doc_fingerprint_rolling", _rolling_fp_sql())
def doc_fingerprint_rolling(sf_dir: str):
    """Char-level Rabin-Karp rolling-hash fingerprint (min window hash),
    numpy sliding-window vectorized (functions/text.py).  The SQL twin
    replays the byte-window polynomial exactly (integer mod-2^32 arithmetic
    on both sides; the testdata is pure ASCII so bytes == characters)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(fingerprint_column(batch["text"]), pa.int64()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Unigram log-probability quality score (CCNet-style LM filter, exact ints)
# ===========================================================================

@op(
    "unigram_logprob",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    freq AS (
      SELECT term,
             CAST(round(1000000.0 * ln(
               count(*)::DOUBLE / (SELECT count(*) FROM toks))) AS BIGINT)
               AS w_micronats
      FROM toks GROUP BY term
    )
    SELECT t.doc_id,
           sum(f.w_micronats)::BIGINT AS sum_micronats,
           count(*)::BIGINT AS n_tokens
    FROM toks t JOIN freq f ON f.term = t.term
    GROUP BY t.doc_id
    """,
)
def unigram_logprob(sf_dir: str):
    """Unigram LM document score (the CCNet/Wikipedia-LM quality-filter
    shape): per-token weight = round(1e6·ln(corpus_tf/total)) in integer
    "micronats", per-doc score = exact int sum — integer accumulation makes
    the result order-independent, so the engine and the SQL oracle agree
    bit-for-bit (double ln agreement verified across sf0.001-0.1; both
    sides are libm).

    Scale shape (VERDICT r4 #1): on a 100 TB source-code corpus the
    identifier vocabulary is effectively unbounded (Heaps exponent near 1),
    so the (term, weight) table stays DISTRIBUTED — the same hash-join
    shape bigram_logprob uses.  One partial-agg pass builds the (term, tf)
    table; the only driver value is the single scalar total (Dataset.sum);
    the weight stream joins into per-batch (doc_id, term, c) partials,
    and per-doc integer partials pre-reduce inside each batch before the
    final doc groupby.  No take_all / ray.put of anything vocab-sized."""
    from ray.data.aggregate import Sum

    from .ops import term_tf_total

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    tf = term_tf_total(sf_dir).materialize()  # block refs only; distributed
    total = float(tf.sum("tf_total"))  # ONE scalar reaches the driver

    _WT = pa.schema([("term", pa.string()), ("w", pa.int64())])

    def weigh(t: pa.Table) -> pa.Table:
        c = t["tf_total"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.round(1_000_000.0 * np.log(c / total)).astype(np.int64)
        return pa.table({"term": t["term"], "w": pa.array(w)}, schema=_WT)

    wt = tf.map_batches(weigh, batch_format="pyarrow", zero_copy_batch=True)

    _TOKP = pa.schema(
        [("doc_id", pa.int64()), ("term", pa.string()), ("c", pa.int64())]
    )

    def tok_partial(t: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = (
            pa.table({"doc_id": pa.array(ids[parent]), "term": flat})
            .group_by(["doc_id", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"doc_id": g["doc_id"], "term": g["term"],
             "c": pc.cast(g["count_all"], pa.int64())},
            schema=_TOKP,
        )

    toks = docs.map_batches(
        tok_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    scored = join(toks, wt, ("term",), "inner", _TOKP.append(pa.field("w", pa.int64())))

    _PART = pa.schema(
        [("doc_id", pa.int64()), ("sum_micronats", pa.int64()),
         ("n_tokens", pa.int64())]
    )

    def doc_partial(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = (
            pa.table(
                {
                    "doc_id": pc.cast(t["doc_id"], pa.int64()),
                    "sum_micronats": pa.array(c * w),
                    "n_tokens": pa.array(c),
                }
            )
            .group_by("doc_id")
            .aggregate([("sum_micronats", "sum"), ("n_tokens", "sum")])
        )
        return g.rename_columns(["doc_id", "sum_micronats", "n_tokens"]).cast(_PART)

    return (
        scored.map_batches(doc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(Sum("sum_micronats"), Sum("n_tokens"))
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pc.cast(t["doc_id"], pa.int64()),
                    "sum_micronats": pc.cast(t["sum(sum_micronats)"], pa.int64()),
                    "n_tokens": pc.cast(t["sum(n_tokens)"], pa.int64()),
                },
                schema=_PART,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


# ===========================================================================
# Stratified systematic sample (per-lang every-k-th)
# ===========================================================================

_STRATA_K = 10


@op(
    "stratified_sample",
    f"""
    SELECT doc_id, lang FROM (
      SELECT doc_id, lang,
             row_number() OVER (PARTITION BY lang ORDER BY doc_id) - 1 AS rn
      FROM documents
    ) WHERE rn % {_STRATA_K} = 0
    """,
)
def stratified_sample(sf_dir: str):
    """Stratified systematic sampling: within each language stratum, every
    k-th document by doc_id — proportional allocation with deterministic
    membership (the training-data "balanced subsample" op).  One shuffle
    (groupby lang); in-group sort assumes a stratum fits one group — for
    corpus-scale strata, range-partition by doc_id and offset each range's
    phase by its cumulative count (same arithmetic, no global sort)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(group: pa.Table) -> pa.Table:
        g = group.sort_by([("doc_id", "ascending")])
        sel = np.arange(0, g.num_rows, _STRATA_K)
        return pa.table(
            {
                "doc_id": g["doc_id"].take(pa.array(sel)),
                "lang": g["lang"].take(pa.array(sel)),
            }
        )

    return docs.groupby("lang").map_groups(pick, batch_format="pyarrow")


# ===========================================================================
# Fixed-window text chunking (the LLM-pipeline "split long docs" op)
# ===========================================================================

CHUNK_W = 200      # window size (characters)
CHUNK_STRIDE = 150  # window stride (overlap = W - stride = 50)


def n_chunks_of(length: int) -> int:
    """Chunk count for a document of ``length`` chars: one window if it
    fits, else enough stride steps that the last window reaches the end.
    Exact-double arithmetic (lengths are small ints), same expression as
    the SQL twin."""
    if length <= CHUNK_W:
        return 1
    return int(np.ceil((length - CHUNK_W) / float(CHUNK_STRIDE))) + 1


@op(
    "text_chunks",
    f"""
    WITH spans AS (
      SELECT doc_id, text,
             unnest(generate_series(
               0,
               CASE WHEN length(text) <= {CHUNK_W} THEN 0
                    ELSE CAST(ceil((length(text) - {CHUNK_W}) / {CHUNK_STRIDE}.0)
                              AS BIGINT)
               END
             )) AS chunk_id
      FROM documents
    )
    SELECT doc_id, chunk_id,
           substr(text, chunk_id * {CHUNK_STRIDE} + 1, {CHUNK_W}) AS chunk,
           length(substr(text, chunk_id * {CHUNK_STRIDE} + 1, {CHUNK_W}))::BIGINT
             AS n_chunk_chars
    FROM spans
    """,
)
def text_chunks(sf_dir: str):
    """Overlapping fixed-window chunking: every document becomes
    ceil-covering windows of CHUNK_W chars at CHUNK_STRIDE spacing (the
    standard pre-tokenization split for long documents in a training-data
    pipeline; overlap preserves cross-boundary context).

    Vectorized batch-level flat_map (chunk_explode): no shuffle; output
    streams."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(chunk_explode, batch_format="pyarrow",
                            zero_copy_batch=True)


def chunk_explode(batch: pa.Table) -> pa.Table:
    """(doc_id, text) rows → overlapping CHUNK_W windows at CHUNK_STRIDE.

    Chunk counts from utf8 lengths, then ONE vectorized slice pass per
    chunk ordinal (pyarrow's slice kernel takes scalar offsets, so rows
    are grouped by ordinal — the loop is over max-chunks-per-doc, bounded
    by maxlen/stride, never over rows).  Character (codepoint) semantics
    match DuckDB substr/length exactly.  Module-level: shared by
    text_chunks and the clean_chunks composition."""
    lens = pc.utf8_length(batch["text"]).to_numpy(zero_copy_only=False)
    if lens.size == 0:
        return pa.schema(
            [("doc_id", pa.int64()), ("chunk_id", pa.int64()),
             ("chunk", pa.string()), ("n_chunk_chars", pa.int64())]
        ).empty_table()
    n_chunks = np.where(
        lens <= CHUNK_W,
        1,
        np.ceil((lens - CHUNK_W) / float(CHUNK_STRIDE)).astype(np.int64) + 1,
    ).astype(np.int64)
    parts = []
    for j in range(int(n_chunks.max())):
        sel = np.flatnonzero(n_chunks > j)
        rows = batch.take(pa.array(sel))
        start = j * CHUNK_STRIDE
        chunk = pc.utf8_slice_codeunits(
            rows["text"], start=start, stop=start + CHUNK_W
        )
        parts.append(
            pa.table(
                {
                    "doc_id": pc.cast(rows["doc_id"], pa.int64()),
                    "chunk_id": pa.array(
                        np.full(sel.size, j, dtype=np.int64), pa.int64()
                    ),
                    "chunk": chunk,
                    "n_chunk_chars": pc.cast(pc.utf8_length(chunk), pa.int64()),
                }
            )
        )
    return pa.concat_tables(parts)


# ===========================================================================
# clean_chunks — the composed training-data prep pipeline
# ===========================================================================

_CLEAN_MIN_TOKENS = 20   # quality gate: at least this many code-aware tokens
_CLEAN_DIGIT_NUM = 3     # ... and 10·n_digit_chars ≤ 3·n_chars (int-exact)


@op(
    "clean_chunks",
    f"""
    WITH q AS (
      SELECT doc_id, text FROM documents
      WHERE len({_TOKS}) >= {_CLEAN_MIN_TOKENS}
        AND 10 * (length(text) - length(regexp_replace(text, '[0-9]', '', 'g')))
              <= {_CLEAN_DIGIT_NUM} * length(text)
    ),
    keep AS (SELECT min(doc_id) AS doc_id FROM q GROUP BY md5(text)),
    surv AS (SELECT q.doc_id, q.text FROM q JOIN keep USING (doc_id)),
    spans AS (
      SELECT doc_id, text,
             unnest(generate_series(
               0,
               CASE WHEN length(text) <= {CHUNK_W} THEN 0
                    ELSE CAST(ceil((length(text) - {CHUNK_W}) / {CHUNK_STRIDE}.0)
                              AS BIGINT)
               END
             )) AS chunk_id
      FROM surv
    )
    SELECT doc_id, chunk_id,
           substr(text, chunk_id * {CHUNK_STRIDE} + 1, {CHUNK_W}) AS chunk,
           length(substr(text, chunk_id * {CHUNK_STRIDE} + 1, {CHUNK_W}))::BIGINT
             AS n_chunk_chars
    FROM spans
    """,
)
def clean_chunks(sf_dir: str):
    """The composed training-data prep pipeline — quality filter → exact
    dedup (keep first) → overlapping chunking — as ONE streaming dataflow,
    demonstrating that the registry's ops chain (the task brief's actual
    100 TB use-case, not isolated operators).

    Stage shapes: the quality gate is integer-exact vectorized predicates
    (token count ≥ {min_tokens}, 10·digit_chars ≤ {digit_num}·chars) fused
    with md5 fingerprinting into one map pass; keep-first dedup shuffles
    only (hash → min doc_id) partials (same shape as dedup_exact); the
    survivor set returns via a util.join (distinct keys → semi
    join, no fanout); chunking reuses chunk_explode.  Content crosses the
    wire once — the join carries doc ids, and the text column rides the
    filtered dataset, never the shuffle."""
    from ray.data.aggregate import Min

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def gate_and_hash(batch: pa.Table) -> pa.Table:
        import hashlib as _h

        _, parent = flat_tokens(batch["text"])
        toks_per_row = pa.array(
            np.bincount(parent, minlength=batch.num_rows).astype(np.int64),
            pa.int64(),
        )
        n_chars = pc.utf8_length(batch["text"])
        n_digits = pc.count_substring_regex(batch["text"], "[0-9]")
        keep = pc.and_(
            pc.greater_equal(toks_per_row, _CLEAN_MIN_TOKENS),
            pc.less_equal(
                pc.multiply(pc.cast(n_digits, pa.int64()), 10),
                pc.multiply(pc.cast(n_chars, pa.int64()), _CLEAN_DIGIT_NUM),
            ),
        )
        t = batch.filter(keep)
        h = pa.array(
            [_h.md5((s or "").encode()).hexdigest() for s in t["text"].to_pylist()]
        )
        return pa.table(
            {"doc_id": pc.cast(t["doc_id"], pa.int64()), "text": t["text"], "h": h}
        )

    gated = docs.map_batches(gate_and_hash, batch_format="pyarrow",
                             zero_copy_batch=True)
    # Two consumers read `gated` (the keeper aggregate and the join's left
    # side); without a checkpoint Ray would re-execute the gate — and its
    # tokenize pass, the pipeline's dominant cost — once per consumer.
    # Materialize the slim (doc_id, text, h) projection into the object
    # store (spillable) instead: the same pass-once pattern as the build's
    # docvec checkpoint, which uses parquet for durability where this
    # transient pipeline doesn't need it.
    gated = gated.materialize()

    def min_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"h": t["h"], "doc_id": t["doc_id"]})
            .group_by("h")
            .aggregate([("doc_id", "min")])
        )
        return g.rename_columns(["h", "doc_id"])

    keepers = (
        gated.map_batches(min_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Min("doc_id"))
    )

    def keeper_ids(t: pa.Table) -> pa.Table:
        return pa.table({"keep_id": pc.cast(t["min(doc_id)"], pa.int64())})

    keepers = keepers.map_batches(keeper_ids, batch_format="pyarrow",
                                  zero_copy_batch=True)

    surv = join(
        gated.select_columns(["doc_id", "text"]), keepers, ("doc_id",), "inner",
        pa.schema(
            [("doc_id", pa.int64()), ("text", pa.string()),
             ("keep_id", pa.int64())]
        ),
        right_on=("keep_id",),
    )
    return surv.map_batches(chunk_explode, batch_format="pyarrow",
                            zero_copy_batch=True)


# ===========================================================================
# Deterministic hash-based sampling (reproducible train/heldout splits)
# ===========================================================================

_HASH_SAMPLE_PCT = 10  # keep doc iff md5-int60(doc_id) % 100 < this


@op(
    "hash_sample",
    f"""
    SELECT doc_id, lang, n_chars FROM documents
    WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15)) AS BIGINT)
            % 100 < {_HASH_SAMPLE_PCT}
    """,
)
def hash_sample(sf_dir: str):
    """Deterministic hash-based sampling: keep a document iff
    md5(doc_id) % 100 < pct — the reproducible split rule training-data
    pipelines use so membership is stable across runs, machines and
    shard layouts (unlike seeded random_sample, which depends on block
    boundaries).  Keyed on the stable id, so re-crawls of a document land
    in the same split.

    Stateless vectorized map (one md5 per UNIQUE id via hash_strings);
    no shuffle."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.string())
        h = dd.hash_strings(ids) % 100
        return batch.filter(pa.array(h < _HASH_SAMPLE_PCT))

    return docs.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Domain-mix report (the data-mix accounting step of a training pipeline)
# ===========================================================================


@op(
    "domain_mix_report",
    f"""
    WITH t AS (
      SELECT source, count(*)::BIGINT AS n_docs,
             sum(len({_TOKS}))::BIGINT AS n_tokens
      FROM documents GROUP BY 1
    ),
    tot AS (SELECT sum(n_tokens) AS tot FROM t)
    SELECT t.source, t.n_docs, t.n_tokens,
           t.n_tokens * 1.0 / tot.tot AS token_share
    FROM t, tot
    """,
)
def domain_mix_report(sf_dir: str):
    """Per-source corpus accounting: document count, token count and the
    source's share of all tokens — the data-mix report every training run
    starts from (and the input to mix re-weighting).

    Scale shape: one streamed tokenize pass emits per-batch partial
    (source, n_docs, n_tokens) rows, so the groupby moves |sources| ×
    |blocks| tiny rows; the share division runs over the final
    |sources|-row table (bounded — domains are a catalog, not a corpus).
    Each share is one int/int → float64 division — bit-identical to SQL.
    """
    from ..functions.text import flat_tokens

    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    _PART = pa.schema(
        [("source", pa.string()), ("n_docs", pa.int64()), ("n_tokens", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        _, parent = flat_tokens(batch["text"])
        per_row = np.zeros(batch.num_rows, dtype=np.int64)
        np.add.at(per_row, parent, 1)
        g = (
            pa.table({"source": batch["source"], "n_tokens": per_row})
            .group_by("source")
            .aggregate([("n_tokens", "sum"), ([], "count_all")])
        )
        return pa.table(
            {
                "source": g["source"],
                "n_docs": pc.cast(g["count_all"], pa.int64()),
                "n_tokens": pc.cast(g["n_tokens_sum"], pa.int64()),
            },
            schema=_PART,
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .sum(["n_docs", "n_tokens"])
    )
    # the aggregate is |sources| rows — bounded; total + share in one pass
    tbl = pa.concat_tables(
        [pa.table(b) for b in agg.iter_batches(batch_format="pyarrow")]
    )
    n_docs = pc.cast(pc.round(tbl["sum(n_docs)"]), pa.int64())
    n_tokens = pc.cast(pc.round(tbl["sum(n_tokens)"]), pa.int64())
    tot = int(pc.sum(n_tokens).as_py() or 0)
    share = n_tokens.to_numpy(zero_copy_only=False) / tot
    return pa.table(
        {
            "source": tbl["source"],
            "n_docs": n_docs,
            "n_tokens": n_tokens,
            "token_share": pa.array(share, pa.float64()),
        }
    )


# ===========================================================================
# Language confusion (declared lang vs n-gram prediction)
# ===========================================================================


@op(
    "lang_confusion",
    f"""
    WITH pred AS ( {_lang_sql()} )
    SELECT d.lang, p.lang_pred, count(*)::BIGINT AS n
    FROM documents d JOIN pred p ON p.doc_id = d.doc_id
    GROUP BY 1, 2
    """,
)
def lang_confusion(sf_dir: str):
    """Language-metadata QA: the confusion matrix between each document's
    DECLARED lang column and the stopword-vote prediction — the check a
    training pipeline runs before trusting crawl-supplied language tags.

    Composition: lang_id's shuffle-free prediction pass re-keyed by the
    declared lang — one map emits (lang, lang_pred) partial counts per
    batch, one tiny groupby over ≤ |langs|² keys.  No join needed: the
    declared lang rides the same batch the prediction is computed from.
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    langs = sorted(LANG_STOPWORDS)
    sets = [pa.array(sorted(LANG_STOPWORDS[l])) for l in langs]

    _PART = pa.schema(
        [("lang", pa.string()), ("lang_pred", pa.string()), ("n", pa.int64())]
    )

    def fn(batch: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(batch["text"])
        n = batch.num_rows
        hits = np.zeros((n, len(langs)), dtype=np.int64)
        for j, vs in enumerate(sets):
            mask = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False)
            np.add.at(hits[:, j], parent, mask)
        best = np.argmax(hits, axis=1)  # first max -> alphabetical tie-break
        pred = np.array(langs, dtype=object)[best]
        pred[hits.max(axis=1) == 0] = "und"
        g = (
            pa.table({"lang": batch["lang"], "lang_pred": pa.array(pred, pa.string())})
            .group_by(["lang", "lang_pred"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "lang": g["lang"],
                "lang_pred": g["lang_pred"],
                "n": pc.cast(g["count_all"], pa.int64()),
            },
            schema=_PART,
        )

    from .ops import _rename

    agg = (
        docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "lang_pred"])
        .sum("n")
    )
    return _rename(agg, {"sum(n)": "n"}, int64_cols=("n",))


# ===========================================================================
# Per-language top terms (domain vocabulary report)
# ===========================================================================

_TOPTERMS_K = 10


@op(
    "top_terms_per_lang",
    f"""
    SELECT lang, term, tf_total FROM (
      SELECT lang, term, tf_total,
             row_number() OVER (PARTITION BY lang
                                ORDER BY tf_total DESC, term) AS rn
      FROM (
        SELECT lang, term, count(*)::BIGINT AS tf_total FROM (
          SELECT lang, unnest({_TOKS}) AS term FROM documents
        ) GROUP BY 1, 2
      )
    ) WHERE rn <= {_TOPTERMS_K}
    """,
)
def top_terms_per_lang(sf_dir: str):
    """Per-language top-{10} terms by total occurrences — the domain
    vocabulary report a data-mix audit reads per source/language.
    Deterministic tie-break (count desc, term asc).

    Scale shape: per-batch partial (lang, term, count) reduces each block
    to its distinct pairs before the one groupby shuffle; per-batch
    partial top-k then caps what the final per-lang selection sees at
    ≤ blocks × langs × k rows — the row_number() window collapses to a
    bounded map_groups."""
    from .ops import _rename

    docs = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(t["text"])
        langs = t["lang"].take(pa.array(parent))
        g = (
            pa.table({"lang": langs, "term": flat})
            .group_by(["lang", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"lang": g["lang"], "term": g["term"],
             "n": pc.cast(g["count_all"], pa.int64())}
        )

    totals = _rename(
        read_table(sf_dir, "documents", columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "term"])
        .sum("n"),
        {"sum(n)": "tf_total"},
        int64_cols=("tf_total",),
    )

    def topk_partial(t: pa.Table) -> pa.Table:
        out = []
        for lang_val in pc.unique(t["lang"]).to_pylist():
            sub = t.filter(pc.equal(t["lang"], lang_val))
            sub = sub.sort_by([("tf_total", "descending"), ("term", "ascending")])
            out.append(sub.slice(0, _TOPTERMS_K))
        return pa.concat_tables(out).select(["lang", "term", "tf_total"])

    def topk_final(group: pa.Table) -> pa.Table:
        g = group.sort_by([("tf_total", "descending"), ("term", "ascending")])
        return g.slice(0, _TOPTERMS_K).select(["lang", "term", "tf_total"])

    capped = totals.map_batches(
        topk_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return capped.groupby("lang").map_groups(
        topk_final, batch_format="pyarrow"
    )


# ===========================================================================
# Document-length z-scores (two-pass standardization)
# ===========================================================================


@op(
    "doc_length_zscore",
    """
    WITH st AS (
      SELECT count(*)::BIGINT AS n, sum(n_chars)::BIGINT AS s,
             sum(n_chars * n_chars)::BIGINT AS q
      FROM documents
    )
    SELECT doc_id, n_chars,
           (n_chars * st.n - st.s)
             / sqrt(CAST(st.n AS DOUBLE) * st.q - CAST(st.s AS DOUBLE) * st.s)
             AS z
    FROM documents, st
    """,
)
def doc_length_zscore(sf_dir: str):
    """Feature standardization: z-score of each document's length — the
    canonical two-pass (global stats, then map) normalization every
    feature pipeline needs.  Deterministic floats: the moments are exact
    int64 sums; z = (x·n − s) / sqrt(n·q − s²) keeps the numerator in
    exact integers and uses one IEEE-exact sqrt + one division, the same
    expression tree as the SQL twin.

    Scale shape: pass 1 reduces every batch to three integers (count,
    sum, sum of squares — a scalar aggregate, no shuffle); the three
    scalars broadcast via closure into the stateless pass-2 map.
    Overflow bound: the sum-of-squares moment leaves int64 range around
    10^12 ten-KB documents — past that, promote the q partials to a
    (hi, lo) int64 pair or float128 partials (the SQL twin's DuckDB sum
    already widens to int128 internally)."""
    from ray.data.aggregate import Sum

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    _ST = pa.schema([("n", pa.int64()), ("s", pa.int64()), ("q", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "s": pa.array([int(x.sum())], pa.int64()),
                "q": pa.array([int((x * x).sum())], pa.int64()),
            },
            schema=_ST,
        )

    agg = docs.map_batches(
        moments, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("n"), Sum("s"), Sum("q"))
    n, s, q = int(agg["sum(n)"]), int(agg["sum(s)"]), int(agg["sum(q)"])
    denom = float(np.sqrt(float(n) * float(q) - float(s) * float(s)))

    def zmap(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        z = (x * n - s) / denom
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "z": pa.array(z, pa.float64()),
            }
        )

    return docs.map_batches(zmap, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# Per-source quality rollup (the "which source is junk" report)
# ===========================================================================

_PUNCT_RE = r"[\.,;:!\?]"
_DIGIT_RE = "[0-9]"


@op(
    "source_quality_report",
    f"""
    SELECT source,
           count(*)::BIGINT AS n_docs,
           sum(length(text))::BIGINT AS total_chars,
           sum(len({_TOKS}))::BIGINT AS total_tokens,
           sum(length(text)
               - length(regexp_replace(text, '{_PUNCT_RE}', '', 'g')))::DOUBLE
             / sum(length(text)) AS punct_ratio,
           sum(length(text)
               - length(regexp_replace(text, '{_DIGIT_RE}', '', 'g')))::DOUBLE
             / sum(length(text)) AS digit_ratio,
           sum(length(text))::DOUBLE / count(*) AS mean_doc_chars
    FROM documents GROUP BY 1
    """,
)
def source_quality_report(sf_dir: str):
    """Per-source corpus quality rollup: document/char/token mass plus
    aggregate punctuation and digit ratios — the report that decides
    which sources enter the training mix.  Every ratio is ONE division
    of two exact int64 sums (not a mean of per-doc ratios), so the
    values are bit-deterministic across summation orders and engines.

    Scale shape: each batch reduces to one row per source (bounded:
    |sources| × blocks partials); the final groupby sums integers; no
    row-level data survives the first map."""
    from .ops import _rename

    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        text = t["text"]
        n_chars = pc.utf8_length(text)
        _, parent = flat_tokens(text)
        n_tokens = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(n_tokens, parent, 1)

        def matched(pattern: str) -> pa.Array:
            stripped = pc.replace_substring_regex(text, pattern, "")
            return pc.subtract(n_chars, pc.utf8_length(stripped))

        g = (
            pa.table(
                {
                    "source": t["source"],
                    "docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "chars": pc.cast(n_chars, pa.int64()),
                    "toks": pa.array(n_tokens),
                    "punct": pc.cast(matched(_PUNCT_RE), pa.int64()),
                    "digit": pc.cast(matched(_DIGIT_RE), pa.int64()),
                }
            )
            .group_by("source")
            .aggregate(
                [("docs", "sum"), ("chars", "sum"), ("toks", "sum"),
                 ("punct", "sum"), ("digit", "sum")]
            )
        )
        return g.rename_columns(["source", "docs", "chars", "toks", "punct", "digit"])

    from ray.data.aggregate import Sum

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("docs"), Sum("chars"), Sum("toks"), Sum("punct"), Sum("digit"))
        .to_pandas()  # bounded: one row per source
    )
    docs_n = agg["sum(docs)"].astype("int64").to_numpy()
    chars = agg["sum(chars)"].astype("int64").to_numpy()
    toks = agg["sum(toks)"].astype("int64").to_numpy()
    punct = agg["sum(punct)"].astype("int64").to_numpy()
    digit = agg["sum(digit)"].astype("int64").to_numpy()
    return pa.table(
        {
            "source": pa.array(agg["source"], pa.string()),
            "n_docs": pa.array(docs_n, pa.int64()),
            "total_chars": pa.array(chars, pa.int64()),
            "total_tokens": pa.array(toks, pa.int64()),
            "punct_ratio": pa.array(punct / chars, pa.float64()),
            "digit_ratio": pa.array(digit / chars, pa.float64()),
            "mean_doc_chars": pa.array(chars / docs_n, pa.float64()),
        }
    )


# ===========================================================================
# Hot n-gram report (memorization / boilerplate hotspots)
# ===========================================================================

_HOT_NGRAM_K = 5
_HOT_NGRAM_TOPN = 25


def _hot_ngram_sql() -> str:
    return f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    sh AS (
      SELECT doc_id, unnest({dd.sql_shingles('t', k=_HOT_NGRAM_K)}) AS gram
      FROM toks WHERE len(t) >= {_HOT_NGRAM_K}
    ),
    g AS (
      SELECT gram, count(DISTINCT doc_id)::BIGINT AS n_docs,
             count(*)::BIGINT AS n_occurrences
      FROM sh GROUP BY 1
    )
    SELECT gram, n_docs, n_occurrences
    FROM g ORDER BY n_occurrences DESC, gram LIMIT {_HOT_NGRAM_TOPN}
    """


@op("hot_ngram_report", _hot_ngram_sql())
def hot_ngram_report(sf_dir: str):
    """The {_HOT_NGRAM_TOPN} most-repeated {_HOT_NGRAM_K}-gram shingles
    across the corpus, with document reach — the memorization/boilerplate
    hotspot report an LLM training pipeline reads next to its dedup stats
    (license headers, templated pages, benchmark leaks all surface here).

    Scale shape: per-batch vectorized shingling (token_shingles — the
    minhash kernel's shingle rule), then a per-batch (gram, doc) dedup +
    per-gram partial (n_docs, n_occurrences); docs live in exactly one
    batch, so batch-level distinct-doc counts sum to the global distinct
    count.  The one shuffle moves distinct-gram-sized partial rows (the
    vocabulary, not the corpus), and only the global top-{_HOT_NGRAM_TOPN}
    with a full (count desc, gram asc) tie-break reaches the driver."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    _PART = pa.schema(
        [("gram", pa.string()), ("n_docs", pa.int64()), ("n_occurrences", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        grams, parent = dd.token_shingles(t["text"], k=_HOT_NGRAM_K)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[parent]
        per_doc = (
            pa.table({"gram": grams, "doc_id": pa.array(ids)})
            .group_by(["gram", "doc_id"])
            .aggregate([([], "count_all")])
        )
        g = (
            pa.table(
                {
                    "gram": per_doc["gram"],
                    "n_docs": pa.array(
                        np.ones(per_doc.num_rows, dtype=np.int64)
                    ),
                    "n_occurrences": pc.cast(per_doc["count_all"], pa.int64()),
                }
            )
            .group_by("gram")
            .aggregate([("n_docs", "sum"), ("n_occurrences", "sum")])
        )
        return g.rename_columns(["gram", "n_docs", "n_occurrences"]).cast(_PART)

    from ray.data.aggregate import Sum

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gram")
        .aggregate(Sum("n_docs"), Sum("n_occurrences"))
    )
    top = agg.sort(
        ["sum(n_occurrences)", "gram"], descending=[True, False]
    ).limit(_HOT_NGRAM_TOPN)

    def rn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "gram": t["gram"],
                "n_docs": pc.cast(t["sum(n_docs)"], pa.int64()),
                "n_occurrences": pc.cast(t["sum(n_occurrences)"], pa.int64()),
            }
        )

    return top.map_batches(rn, batch_format="pyarrow", zero_copy_batch=True)


# ===========================================================================
# bigram_logprob — conditional bigram LM score (context-aware quality)
# ===========================================================================


@op(
    "bigram_logprob",
    f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS t FROM documents),
    bg AS (
      SELECT doc_id, unnest(t[1:len(t) - 1]) AS w1, unnest(t[2:len(t)]) AS w2
      FROM toks WHERE len(t) >= 2
    ),
    cnt AS (SELECT w1, w2, count(*)::BIGINT AS c FROM bg GROUP BY 1, 2),
    lft AS (SELECT w1, sum(c)::BIGINT AS cl FROM cnt GROUP BY 1),
    wt AS (
      SELECT cnt.w1, cnt.w2,
             CAST(round(1000000.0 * ln(cnt.c::DOUBLE / lft.cl)) AS BIGINT) AS w
      FROM cnt JOIN lft USING (w1)
    )
    SELECT b.doc_id, sum(wt.w)::BIGINT AS sum_micronats,
           count(*)::BIGINT AS n_bigrams
    FROM bg b JOIN wt ON wt.w1 = b.w1 AND wt.w2 = b.w2
    GROUP BY 1
    """,
)
def bigram_logprob(sf_dir: str):
    """Conditional bigram LM document score — unigram_logprob's
    context-aware upgrade: per adjacent token pair, weight =
    round(1e6·ln(C(w1,w2)/C(w1·))) integer micronats (P(w2|w1) of the
    corpus-trained bigram LM; every scored pair is observed, so no
    smoothing branch), per-doc score = exact int sum.  Docs with < 2
    tokens emit no row (both sides' inner-join semantics).

    Scale shape: unlike the unigram op's broadcast LUT (safe for a word
    vocab), the bigram vocabulary is corpus-proportional, so the weight
    table stays DISTRIBUTED: bigram-count partials → one vocab groupby →
    left-count join → the weight stream joins back into the bigram
    stream on (w1, w2), and per-doc integer partials pre-reduce inside
    each batch before the final doc groupby."""
    from ray.data.aggregate import Sum

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    _BG = pa.schema(
        [("doc_id", pa.int64()), ("w1", pa.string()), ("w2", pa.string())]
    )

    def bigrams(t: pa.Table) -> pa.Table:
        flat, parent = flat_tokens(t["text"])
        n = len(flat)
        if n < 2:
            return _BG.empty_table()
        valid = parent[: n - 1] == parent[1:]
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vmask = pa.array(valid)
        return pa.table(
            {
                "doc_id": pa.array(ids[parent[: n - 1][valid]]),
                "w1": pc.filter(flat.slice(0, n - 1), vmask),
                "w2": pc.filter(flat.slice(1, n - 1), vmask),
            },
            schema=_BG,
        )

    _CNT = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("c", pa.int64())]
    )

    def cnt_partial(t: pa.Table) -> pa.Table:
        b = bigrams(t)
        g = (
            pa.table({"w1": b["w1"], "w2": b["w2"]})
            .group_by(["w1", "w2"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"w1": g["w1"], "w2": g["w2"], "c": pc.cast(g["count_all"], pa.int64())},
            schema=_CNT,
        )

    cnt = (
        docs.map_batches(cnt_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["w1", "w2"])
        .aggregate(Sum("c"))
        .map_batches(
            lambda t: pa.table(
                {"w1": t["w1"], "w2": t["w2"],
                 "c": pc.cast(t["sum(c)"], pa.int64())},
                schema=_CNT,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()  # two consumers: left counts + the weight join
    )

    lft = (
        cnt.groupby("w1")
        .aggregate(Sum("c"))
        .map_batches(
            lambda t: pa.table(
                {"w1": t["w1"], "cl": pc.cast(t["sum(c)"], pa.int64())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    _WT = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("w", pa.int64())]
    )

    def weigh(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cl = t["cl"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.round(1_000_000.0 * np.log(c / cl)).astype(np.int64)
        return pa.table(
            {"w1": t["w1"], "w2": t["w2"], "w": pa.array(w)}, schema=_WT
        )

    wt = join(
        cnt, lft, ("w1",), "inner", _CNT.append(pa.field("cl", pa.int64()))
    ).map_batches(weigh, batch_format="pyarrow", zero_copy_batch=True)

    bg = docs.map_batches(bigrams, batch_format="pyarrow", zero_copy_batch=True)
    scored = join(bg, wt, ("w1", "w2"), "inner", _BG.append(pa.field("w", pa.int64())))

    _PART = pa.schema(
        [("doc_id", pa.int64()), ("sum_micronats", pa.int64()),
         ("n_bigrams", pa.int64())]
    )

    def doc_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "doc_id": pc.cast(t["doc_id"], pa.int64()),
                    "sum_micronats": pc.cast(t["w"], pa.int64()),
                    "n_bigrams": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by("doc_id")
            .aggregate([("sum_micronats", "sum"), ("n_bigrams", "sum")])
        )
        return g.rename_columns(
            ["doc_id", "sum_micronats", "n_bigrams"]
        ).cast(_PART)

    return (
        scored.map_batches(doc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(Sum("sum_micronats"), Sum("n_bigrams"))
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pc.cast(t["doc_id"], pa.int64()),
                    "sum_micronats": pc.cast(t["sum(sum_micronats)"], pa.int64()),
                    "n_bigrams": pc.cast(t["sum(n_bigrams)"], pa.int64()),
                },
                schema=_PART,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
