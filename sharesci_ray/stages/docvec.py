"""Stages 00-02: fingerprint → per-doc term vectors → deterministic doc ids.

SURVEY.md §3.1 stages 00/01/02 (ref: n/a, §0 — reference checkout empty;
contract BASELINE.json:15: per-row content sha256 invariant; M1/M2/M3/M4/M9).

Scale notes
-----------
* ``add_fingerprint`` is a stateless ``map_batches`` over zero-copy Arrow.
* Doc-id assignment is the one place the Dataset API can't express the
  semantics (a global dense index over a sorted dataset), so we drop to raw
  block refs — and the ROW DATA NEVER MOVES: only the sort keys (a ~100-byte
  projection per row) go through the all-to-all.  Per-block key tables are
  extracted remotely, key rows are range-sorted (tiny shuffle), global ranks
  come from a driver-side prefix-sum over per-block COUNTS (one int per
  block), and the (block, row, doc_id) rank rows shuffle back grouped by
  source block so each original block gets its id column attached in place.
  Shipping the content through the sort — the naive shape — costs ~100× the
  bytes and was the single worst-scaling exchange of the whole build.
* Sort keys include the content sha as final tie-break so duplicate
  (repo,path,commit) rows still get deterministic, resume-stable doc ids;
  (block, row) break full-key ties deterministically for a fixed blocking.
* Term-vector extraction tokenizes ONCE per document (pure pyarrow RE2
  kernels + one Arrow hash-aggregation per batch) and drops ``content``
  immediately after (wide-record hygiene, M6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import sha256_column
from ..functions.text import flat_tokens

SORT_KEYS = ["repo", "path", "commit", "content_sha256"]


def add_fingerprint(batch: pa.Table) -> pa.Table:
    """M1: append hex sha256 of content (the per-row invariant column)."""
    return batch.append_column("content_sha256", sha256_column(batch["content"]))


@ray.remote
def _block_num_rows(block: pa.Table) -> int:
    return block.num_rows


def _id_first(block: pa.Table) -> pa.Table:
    """Canonical column order (doc_id first) — zero-copy metadata reorder."""
    return block.select(
        ["doc_id"] + [c for c in block.column_names if c != "doc_id"]
    )


@ray.remote
def _attach_range_ids(block: pa.Table, offset: int) -> pa.Table:
    """Small-corpus path: block is already globally sorted; ids are a range."""
    if block.num_rows == 0:
        # Ray stores 0-row blocks schema-less (ZERO columns); appending
        # doc_id to one would create a block whose only column is doc_id,
        # and that block can become the dataset's schema donor — leave the
        # empty block untouched (schema-less empties are ignored for schema)
        return block
    ids = pa.array(np.arange(offset, offset + block.num_rows, dtype=np.int64))
    return _id_first(block.append_column("doc_id", ids))


_KEY_SCHEMA = pa.schema(
    [(k, pa.string()) for k in SORT_KEYS]
    + [("block", pa.int32()), ("row", pa.int32())]
)


@ray.remote
def _extract_keys(block: pa.Table, block_idx: int) -> pa.Table:
    """Sort-key projection of one block: ~100 B/row instead of the full row."""
    if block.num_rows == 0:  # filters can leave schema-less empty blocks
        return _KEY_SCHEMA.empty_table()
    cols = {k: block[k] for k in SORT_KEYS}
    cols["block"] = pa.array(np.full(block.num_rows, block_idx, dtype=np.int32))
    cols["row"] = pa.array(np.arange(block.num_rows, dtype=np.int32))
    return pa.table(cols)


@ray.remote
def _rank_rows(key_block: pa.Table, offset: int) -> pa.Table:
    """Sorted key block → (block, row, doc_id) rank rows."""
    n = key_block.num_rows
    if n == 0:
        return pa.schema(
            [("block", pa.int32()), ("row", pa.int32()), ("doc_id", pa.int64())]
        ).empty_table()
    return pa.table(
        {
            "block": key_block["block"],
            "row": key_block["row"],
            "doc_id": pa.array(np.arange(offset, offset + n, dtype=np.int64)),
        }
    )


# below this size the whole-data sort is cheaper than the key-only path's
# extra shuffle rounds (two barriers + a rank groupby cost ~0.5 s of fixed
# overhead that dominates tiny corpora); both paths assign identical ids
_SMALL_SORT_BYTES = 256 << 20


def assign_doc_ids(ds: ray.data.Dataset, base: int = 0) -> ray.data.Dataset:
    """M9: dense deterministic int64 doc ids via a KEY-ONLY sort +
    distributed prefix-sum; row data stays in place (module docstring).
    Corpora under ``_SMALL_SORT_BYTES`` take the classic whole-data sort —
    at that size the data IS key-sized and fewer barriers win.

    ``base`` offsets the id space — incremental updates assign the delta
    corpus ids starting at the existing doc count (append semantics)."""
    blocks = ds.materialize()
    refs = blocks.to_arrow_refs()
    if not refs or blocks.count() == 0:
        return blocks  # nothing to rank; caller's empty-corpus guard fires
    if (blocks.size_bytes() or 0) <= _SMALL_SORT_BYTES:
        sorted_ds = blocks.sort(SORT_KEYS).materialize()
        srefs = sorted_ds.to_arrow_refs()
        counts = ray.get([_block_num_rows.remote(r) for r in srefs])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) + base
        return ray.data.from_arrow_refs(
            [
                _attach_range_ids.remote(r, int(off))
                for r, off in zip(srefs, offsets)
            ]
        )
    key_refs = [_extract_keys.remote(r, i) for i, r in enumerate(refs)]
    sorted_keys = (
        ray.data.from_arrow_refs(key_refs)
        .sort(SORT_KEYS + ["block", "row"])
        .materialize()
    )
    krefs = sorted_keys.to_arrow_refs()
    counts = ray.get([_block_num_rows.remote(r) for r in krefs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) + base if counts else []
    rank_refs = [
        _rank_rows.remote(kr, int(off)) for kr, off in zip(krefs, offsets)
    ]

    def attach(group: pa.Table) -> pa.Table:
        """One source block's rank rows → the block with its id column."""
        b = int(group["block"][0].as_py())
        blk = ray.get(refs[b])
        ids = np.empty(blk.num_rows, dtype=np.int64)
        ids[group["row"].to_numpy(zero_copy_only=False)] = group[
            "doc_id"
        ].to_numpy(zero_copy_only=False)
        return _id_first(blk.append_column("doc_id", pa.array(ids)))

    # groupby shuffles only (block, row, doc_id) rank rows — 16 B/doc
    return ray.data.from_arrow_refs(rank_refs).groupby("block").map_groups(
        attach, batch_format="pyarrow"
    )


def to_term_vectors(
    batch: pa.Table, tokenizer=flat_tokens, positions: bool = False
) -> pa.Table:
    """M2/M3/M4 (doc-level): content → sorted (terms, tfs) lists + doc_len.

    Output schema: doc_id, repo, path, commit, lang, content_sha256,
    doc_len:int64, terms:list<string>, tfs:list<int32>
    [, positions:list<int32>].  ``content`` is dropped here (M6).  Terms
    within a doc are sorted ascending — the scorer and oracle both rely on
    deterministic order.

    ``positions=True`` additionally stores, per doc, the FLAT list of
    token positions (index within the doc's filtered token stream, the
    same stream the oracle's shingle adjacency walks) grouped by term in
    term-sorted order — term i's positions are the next tfs[i] entries,
    ascending.  This is the source for the positional posting payload
    (phrase queries); off by default since it ~doubles checkpoint size.

    ``tokenizer`` is the §2.11 hook: a vectorized callable
    ``(string column) -> (flat token array, row index per token)``; the
    default is the shared code-aware tokenizer (functions/text.py).
    """
    has_id = "doc_id" in batch.column_names
    flat, parent = tokenizer(batch["content"])
    n_rows = batch.num_rows
    # doc_len = total token occurrences per row
    doc_len = np.zeros(n_rows, dtype=np.int64)
    np.add.at(doc_len, parent, 1)
    if positions:
        # position of each token within its doc's filtered stream: tokens
        # arrive in document order, so pos = global index − doc start.
        # That is an extra requirement on the §2.11 tokenizer hook (the
        # shared tokenizers satisfy it): tokens grouped by row, in-row in
        # document order.  Validate the checkable half — an out-of-order
        # hook would otherwise yield negative positions that wrap to huge
        # varbyte deltas and decode to garbage phrase matches.
        if parent.size and (parent[1:] < parent[:-1]).any():
            raise ValueError(
                "positional indexing requires the tokenizer hook to emit "
                "tokens grouped by row in document order (non-decreasing "
                "parent indices); this tokenizer violates that — build "
                "without positions=True or fix the hook"
            )
        doc_start = np.concatenate([[0], np.cumsum(doc_len)])[:-1]
        pos = np.arange(parent.size, dtype=np.int64) - doc_start[parent]
        trip = pa.table(
            {
                "row": pa.array(parent, type=pa.int64()),
                "term": flat,
                "pos": pa.array(pos.astype(np.int32)),
            }
        ).sort_by(
            [("row", "ascending"), ("term", "ascending"), ("pos", "ascending")]
        )
        rows_t = trip["row"].to_numpy(zero_copy_only=False)
        # term-run boundaries within the sorted triples → tfs + term heads
        term_codes = pc.dictionary_encode(
            trip["term"].combine_chunks()
            if isinstance(trip["term"], pa.ChunkedArray)
            else trip["term"]
        )
        code_np = np.asarray(term_codes.indices, dtype=np.int64)
        n_tok = rows_t.size
        is_head = np.ones(n_tok, dtype=bool)
        if n_tok > 1:
            is_head[1:] = (rows_t[1:] != rows_t[:-1]) | (code_np[1:] != code_np[:-1])
        heads = np.flatnonzero(is_head)
        run_len = np.diff(np.concatenate([heads, [n_tok]]))
        terms_flat = term_codes.dictionary.take(pa.array(code_np[heads]))
        tfs_np = run_len.astype(np.int32)
        head_rows = rows_t[heads]
        counts = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(counts, head_rows + 1, 1)
        offsets = np.cumsum(counts)
        pcounts = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(pcounts, rows_t + 1, 1)
        poffsets = np.cumsum(pcounts)
        off32 = pa.array(offsets, type=pa.int32())
        terms_list = pa.ListArray.from_arrays(off32, terms_flat)
        tfs_list = pa.ListArray.from_arrays(off32, pa.array(tfs_np))
        pos_col = trip["pos"].combine_chunks() if isinstance(trip["pos"], pa.ChunkedArray) else trip["pos"]
        pos_list = pa.ListArray.from_arrays(pa.array(poffsets, type=pa.int32()), pos_col)
    else:
        # per-(row, term) counts via Arrow hash aggregation (C++, vectorized)
        pairs = pa.table(
            {"row": pa.array(parent, type=pa.int64()), "term": flat}
        ).group_by(["row", "term"]).aggregate([([], "count_all")])
        # sort by (row, term) so each doc's term list is sorted
        pairs = pairs.sort_by([("row", "ascending"), ("term", "ascending")])
        rows = pairs["row"].to_numpy(zero_copy_only=False)
        counts = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(counts, rows + 1, 1)
        offsets = np.cumsum(counts)
        terms_flat = pairs["term"].combine_chunks() if isinstance(pairs["term"], pa.ChunkedArray) else pairs["term"]
        tfs_flat = pc.cast(pairs["count_all"], pa.int32())
        tfs_flat = tfs_flat.combine_chunks() if isinstance(tfs_flat, pa.ChunkedArray) else tfs_flat
        off32 = pa.array(offsets, type=pa.int32())  # batches are << 2^31 tokens
        terms_list = pa.ListArray.from_arrays(off32, terms_flat)
        tfs_list = pa.ListArray.from_arrays(off32, tfs_flat)
    out = {
        **({"doc_id": batch["doc_id"]} if has_id else {}),
        "repo": batch["repo"],
        "path": batch["path"],
        "commit": batch["commit"],
        "lang": batch["lang"],
        "content_sha256": batch["content_sha256"],
        "doc_len": pa.array(doc_len),
        "terms": terms_list,
        "tfs": tfs_list,
    }
    if positions:
        out["positions"] = pos_list
    return pa.table(out)


def explode_postings(batch: pa.Table) -> pa.Table:
    """M4: term-vector rows → postings rows (term, doc_id, tf, dl
    [, positions]).

    Pure Arrow flatten — no Python per row.  ``dl`` (doc length) is carried
    with every posting so segments are self-contained at query time (no
    global doc-length broadcast needed at 10^12-doc scale; costs ~1 byte per
    posting after varbyte).  When the input carries a ``positions`` column
    (positional build), each posting gets its own list<int32> of in-doc
    token positions — the per-doc flat list re-split by tf counts, a pure
    offset rebuild (no value copy).
    """
    terms = batch["terms"].combine_chunks() if isinstance(batch["terms"], pa.ChunkedArray) else batch["terms"]
    flat_terms = pc.list_flatten(terms)
    parent = pc.list_parent_indices(terms).to_numpy(zero_copy_only=False)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parent]
    dls = batch["doc_len"].to_numpy(zero_copy_only=False)[parent]
    tfs = pc.list_flatten(batch["tfs"])
    out = {
        "term": flat_terms,
        "doc_id": pa.array(doc_ids),
        "tf": tfs,
        "dl": pa.array(dls.astype(np.int32)),
    }
    if "positions" in batch.column_names:
        pos = batch["positions"].combine_chunks() if isinstance(batch["positions"], pa.ChunkedArray) else batch["positions"]
        pos_flat = pc.list_flatten(pos)
        if isinstance(pos_flat, pa.ChunkedArray):
            pos_flat = pos_flat.combine_chunks()
        # per-posting offsets: docs' flat position lists split by tf runs
        tf_np = tfs.to_numpy(zero_copy_only=False) if not isinstance(tfs, pa.ChunkedArray) else tfs.combine_chunks().to_numpy(zero_copy_only=False)
        off = np.concatenate([[0], np.cumsum(tf_np.astype(np.int64))])
        out["positions"] = pa.ListArray.from_arrays(
            pa.array(off, type=pa.int64()).cast(pa.int32()), pos_flat
        )
    return pa.table(out)
