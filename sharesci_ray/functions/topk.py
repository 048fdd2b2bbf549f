"""Grouped top-k: the one (score desc, id asc) cut every ranked op shares.

Ranked ops run the local-prune / global-merge shape (REPOSE, ICDE 2021):
each batch scores its rows into flat candidate columns
``(key, id, score, *carried)`` and keeps at most k rows per key
(``partial_topk``); one groupby on the key then makes the final cut and
numbers the ranks (``final_topk`` / ``merge_topk``).  Both cuts run the
same kernel, ``topk_rows``: one lexsort on (key asc, score desc, id asc)
plus a position-within-key filter — no per-key Python loop.  The order is
total on (score, id), so the merge over ANY split of the candidates into
batches equals the top-k of their union.

Leaf module (numpy + pyarrow only), importable from every op module.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("score", pa.float64())]
)

TOPK_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("rank", pa.int64()), ("neighbor_id", pa.int64())]
)


def _run_heads(*cols: np.ndarray) -> np.ndarray:
    """Mask of the rows that start a run of equal values over sorted cols."""
    head = np.zeros(cols[0].size, dtype=bool)
    head[:1] = True
    for c in cols:
        head[1:] |= c[1:] != c[:-1]
    return head


def topk_rows(
    keys: np.ndarray, ids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the k best rows per key by (score desc, id asc) —
    exact ties on both keep input order — listed key asc then rank, and
    each kept row's 1-based rank within its key."""
    order = np.lexsort((ids, -scores, keys))
    pos = np.arange(order.size)
    start = np.maximum.accumulate(np.where(_run_heads(keys[order]), pos, 0))
    ranks = pos - start + 1
    keep = ranks <= k
    return order[keep], ranks[keep]


def _cut(keys, ids, scores, k: int, dedupe: bool):
    """topk_rows, optionally over the first row of each (key, id) only —
    for candidate unions where one pair arrives several times with the
    same score (LSH tables)."""
    if not dedupe:
        return topk_rows(keys, ids, scores, k)
    order = np.lexsort((ids, keys))
    first = order[_run_heads(keys[order], ids[order])]
    rows, ranks = topk_rows(keys[first], ids[first], scores[first], k)
    return first[rows], ranks


def partial_topk(k: int, schema: pa.Schema = PARTIAL_SCHEMA, dedupe: bool = False):
    """Decorator: a scoring closure ``batch -> (keys, ids, scores,
    *carried)`` (flat candidate columns in ``schema``'s order, or None when
    the batch has no candidates) becomes a map_batches fn that emits at
    most k rows per key as a ``schema`` table.

    No map fn in this package tests for zero rows: Ray's ``map_batches``
    passes a 0-row block through without calling the fn, and
    ``map_groups`` calls it only on non-empty groups
    (``tests/test_property.py`` pins both)."""

    def wrap(score):
        def fn(batch: pa.Table) -> pa.Table:
            cols = score(batch)
            if cols is None:
                return schema.empty_table()
            rows, _ = _cut(cols[0], cols[1], cols[2], k, dedupe)
            return pa.table(
                [pa.array(c[rows], f.type) for c, f in zip(cols, schema)],
                schema=schema,
            )

        return fn

    return wrap


def final_topk(
    group: pa.Table,
    k: int,
    schema: pa.Schema = TOPK_SCHEMA,
    score: str = "score",
    dedupe: bool = False,
) -> pa.Table:
    """Merge partial rows into the ranked k best per key as ``schema`` =
    ``(key, rank, id, *carried)``: ``rank`` is numbered 1..k in the
    schema's type, every other column is taken from ``group`` by name.
    ``score`` names the ranking column (carried only if in ``schema``)."""
    key, _, id_col = schema.names[:3]
    keys, ids, scores = (
        group[c].to_numpy(zero_copy_only=False) for c in (key, id_col, score)
    )
    rows, ranks = _cut(keys, ids, scores, k, dedupe)
    take = pa.array(rows)
    return pa.table(
        [
            pa.array(ranks, f.type) if f.name == "rank" else group[f.name].take(take)
            for f in schema
        ],
        schema=schema,
    )


def merge_topk(
    partials,
    k: int,
    schema: pa.Schema = TOPK_SCHEMA,
    score: str = "score",
    dedupe: bool = False,
):
    """Dataset of partial rows → one ``final_topk`` per key group."""
    return partials.groupby(schema.names[0]).map_groups(
        lambda g: final_topk(g, k, schema, score, dedupe), batch_format="pyarrow"
    )
