"""BM25 scoring kernel — shared by the Ray scorer actors AND the oracle.

SURVEY.md §2.9 Q1 (ref: n/a, SURVEY.md §0). Formula (Robertson et al.,
TREC-3, 1994; Lucene-style non-negative idf):

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    tf_norm     = tf / (tf + k1 * (1 - b + b * dl / avgdl))
    score(d, q) = sum over query terms t, in SORTED TERM ORDER, of
                  idf(t) * tf_norm(tf_td, dl_d)

All arithmetic float64.  The fixed summation order (sorted unique query
terms) is load-bearing: it makes engine scores bit-identical to the oracle's
(rank-identity contract, BASELINE.json:14).
"""

from __future__ import annotations

import numpy as np

K1 = 1.2
B = 0.75


def idf(df: int | np.ndarray, n_docs: int) -> float | np.ndarray:
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def tf_norm(
    tf: np.ndarray, dl: np.ndarray, avgdl: float, k1: float = K1, b: float = B
) -> np.ndarray:
    """Vectorized normalized term frequency, float64."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return tf / (tf + k1 * (1.0 - b + b * dl / avgdl))


def term_scores(
    tf: np.ndarray,
    dl: np.ndarray,
    df: int,
    n_docs: int,
    avgdl: float,
    k1: float = K1,
    b: float = B,
) -> np.ndarray:
    """Per-posting BM25 contribution of one term, float64 vector."""
    return float(idf(df, n_docs)) * tf_norm(tf, dl, avgdl, k1, b)


def top_k_with_ties(
    doc_ids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k: order by (score desc, doc_id asc). Vectorized.

    Uses lexsort on (-score, doc_id); argpartition pre-prune when the
    candidate set is much larger than k.
    """
    n = doc_ids.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    if n > 4 * k and k > 0:
        # cheap pre-prune: take the 2k best scores (ties safe: any doc tied
        # with the k-th score survives only if within the 2k cut — to be
        # exact, cut at the k-th distinct score instead
        part = np.argpartition(-scores, min(2 * k, n - 1))[: min(2 * k, n)]
        kth = np.sort(-scores[part])[: k][-1] * -1.0  # k-th best score
        keep = scores >= kth
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]
