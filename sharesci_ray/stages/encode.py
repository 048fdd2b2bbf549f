"""Stages 02b-04: hot-term detection, salted bucket keys, posting-list encoding.

SURVEY.md §3.1 stages 02b/03/04; A1/A3/C1-C3 (ref: n/a, §0 — reference
checkout empty; contract BASELINE.json:6,14: "term-partitioned posting-list
construction via groupby-aggregate shuffle with explicit salting for hot
terms", "delta + varbyte-compressed posting lists", "partitioning / shuffle /
skew handled explicitly").

Shuffle design
--------------
The wide step is ONE ``groupby("bucket")`` over the postings.  The key is
``hash(term) % P`` — P buckets, not |vocab| keys, which caps the sort-shuffle
key cardinality and lets the reducer encode thousands of terms per group in
one vectorized pass.  Hot terms (detected by a cheap partial-count pre-pass)
get *dedicated salted buckets*: term t with salt factor S occupies S buckets,
``salt = doc_id * S // n_docs`` — doc-RANGE salting, so the S partial posting
lists cover disjoint ascending doc-id ranges and merge by concatenation.
A hot term therefore never funnels 1-10%% of all postings through a single
reducer (the skew hazard called out in SURVEY.md §7).

Segment schema (T3): term, df, salt_idx(-1=final), n_postings, docids(binary,
delta+varbyte), tfs(binary, varbyte), dls(binary, varbyte), block_first_docid
(list<int64>), block_max_tfnorm(list<float64>), term_bucket(int32).
Block maxes exclude idf — the scorer multiplies by idf(global df), which
keeps salted partials mergeable AND usable unmerged (multi-row terms) at
extreme scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.bm25 import tf_norm
from ..functions.codecs import (
    decode_docids,
    decode_positions,
    decode_values,
    delta_decode,
    delta_within_sublists,
    sublist_gather,
    varbyte_decode,
    varbyte_encode_with_lengths,
)
from ..functions.hashing import polyhash_column

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("salt_idx", pa.int32()),
        ("n_postings", pa.int64()),
        ("docids", pa.binary()),
        ("tfs", pa.binary()),
        ("dls", pa.binary()),
        # positional payload (BuildConfig.positions): per posting, its token
        # positions delta+varbyte encoded, concatenated in posting order —
        # the decoded tf array is the split key.  b"" on non-positional
        # builds (schema stays uniform).
        ("positions", pa.binary()),
        ("block_first_docid", pa.list_(pa.int64())),
        ("block_max_tfnorm", pa.list_(pa.float64())),
        ("term_bucket", pa.int32()),
    ]
)


@dataclass(frozen=True)
class SaltPlan:
    """Hot-term salting: term → (first dedicated bucket id, salt factor).

    ``doc_shards`` generalizes the doc-range split to EVERY term: with S
    shards, every posting gets ``salt_idx = doc_id·S // n_docs`` and routes
    to bucket ``hash(term) % n_buckets + n_buckets·salt_idx`` — the layout
    behind doc-sharded query serving (each query actor owns one complete
    per-doc-range slice of the index; see query.run_queries_sharded).
    """

    n_buckets: int
    n_docs: int
    salts: dict[str, tuple[int, int]] = field(default_factory=dict)  # term -> (base, S)
    doc_shards: int | None = None

    @staticmethod
    def plan(
        hot_counts: dict[str, int], n_buckets: int, n_docs: int, target_group: int
    ) -> "SaltPlan":
        salts: dict[str, tuple[int, int]] = {}
        base = n_buckets
        for term in sorted(hot_counts):
            s = max(1, min(64, -(-hot_counts[term] // target_group)))
            if s > 1:
                salts[term] = (base, s)
                base += s
        return SaltPlan(n_buckets=n_buckets, n_docs=n_docs, salts=salts)


def detect_hot_terms(
    postings: ray.data.Dataset, top_m: int = 256
) -> dict[str, int]:
    """A3: estimated posting counts of the globally hottest terms.

    Per-batch exact partial counts, truncated to the per-batch top 4M (heavy
    hitters survive truncation under uniform partitioning), then a tiny
    groupby over the partials.  Never shuffles the postings themselves.
    """

    def partial(batch: pa.Table) -> pa.Table:
        gb = (
            pa.table({"term": batch["term"]})
            .group_by("term")
            .aggregate([([], "count_all")])
        )
        gb = gb.sort_by([("count_all", "descending")]).slice(0, 4 * top_m)
        return pa.table({"term": gb["term"], "cnt": pc.cast(gb["count_all"], pa.int64())})

    parts = postings.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # Partials are bounded (≤ 4·top_m rows per block), so merge them on the
    # driver — a groupby+sort shuffle for a few hundred KB costs more in
    # scheduling than it saves.  At extreme block counts (10^12-doc scale)
    # insert a repartition(√n_blocks) partial-merge round before this.
    from collections import Counter

    acc: Counter = Counter()
    for row_batch in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        # per-pair += (NOT Counter.update(dict(...)): the dict() would dedupe
        # a term repeated within one coalesced batch, dropping counts)
        for t, c in zip(row_batch["term"].to_pylist(), row_batch["cnt"].to_pylist()):
            acc[t] += c
    return dict(acc.most_common(top_m))


def make_bucket_packer(plan: SaltPlan):
    """Stage 03 (packed + compressed shuffle): one OUTPUT ROW PER
    (input batch, bucket), with the posting payload varbyte-compressed
    BEFORE the all-to-all.

    Raw postings cost ~20 B/posting plus a term string each; at 10^12-file
    scale the exchange is memory/network-bandwidth-bound, so the shuffle
    unit here is a mini-segment: doc ids delta+varbyte (ascending within a
    bucket run — the pack lexsorts (bucket, doc_id)), tf/dl varbyte, terms
    as a per-pack dictionary ('\\n'-joined uniques — tokens are [a-z0-9]+
    so '\\n' never collides) + varbyte dictionary indices.  ~5 B/posting on
    the wire, ~n_batches × n_buckets rows through the groupby instead of
    one row per posting.  salt_idx is constant within a pack (a salted
    bucket IS one (term, salt) slice), so it ships once.

    DICTIONARY-FIRST: the only per-POSTING string operation is one
    ``dictionary_encode`` hash pass; bucket hashing (polyhash), hot-term
    lookup and salting all happen on the block VOCAB (~2-3 orders of
    magnitude smaller) and fan back out through int-code gathers.
    """
    n_buckets = plan.n_buckets
    n_docs = max(1, plan.n_docs)
    salts = plan.salts
    hot_set = pa.array(sorted(salts.keys())) if salts else None

    def pack(batch: pa.Table) -> pa.Table:
        terms = batch["term"]
        terms = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
        dic = pc.dictionary_encode(terms)
        codes = np.asarray(dic.indices, dtype=np.int64)
        g_dict = dic.dictionary  # block vocab
        # the pack wire format joins dictionary terms with '\n'; the default
        # tokenizer can't emit one, but a custom §2.11 tokenizer could — and
        # a '\n' inside a term would silently shift every dictionary index
        # in the pack.  Fail loudly instead.
        if len(g_dict) and pc.any(pc.match_substring(g_dict, "\n")).as_py():
            raise ValueError(
                "tokenizer produced a term containing '\\n' — incompatible "
                "with the packed-shuffle dictionary format"
            )
        uniq_hash = polyhash_column(g_dict)  # vocab-sized string hashing
        bucket_u = (uniq_hash % np.uint64(n_buckets)).astype(np.int64)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if plan.doc_shards:
            # doc-sharded layout: every posting carries its doc-range shard
            s = np.int64(plan.doc_shards)
            shard = np.minimum(doc_ids * s // n_docs, s - 1)
            bucket = bucket_u[codes] + np.int64(n_buckets) * shard
            salt_idx = shard.astype(np.int32)
        else:
            bucket = bucket_u[codes]
            salt_idx = np.full(batch.num_rows, -1, dtype=np.int32)
            if salts:
                hot_mask_u = pc.is_in(g_dict, value_set=hot_set).to_numpy(
                    zero_copy_only=False
                )
                if hot_mask_u.any():
                    base_u = np.zeros(len(g_dict), dtype=np.int64)
                    s_u = np.ones(len(g_dict), dtype=np.int64)
                    hot_u = np.flatnonzero(hot_mask_u)
                    hot_terms = g_dict.take(pa.array(hot_u)).to_pylist()
                    base_u[hot_u] = [salts[t][0] for t in hot_terms]
                    s_u[hot_u] = [salts[t][1] for t in hot_terms]
                    p_hot = np.flatnonzero(hot_mask_u[codes])
                    if p_hot.size:
                        cs = codes[p_hot]
                        si = np.minimum(
                            doc_ids[p_hot] * s_u[cs] // n_docs, s_u[cs] - 1
                        )
                        bucket[p_hot] = base_u[cs] + si
                        salt_idx[p_hot] = si.astype(np.int32)

        # lexsort (bucket, doc_id): ascending doc ids inside every bucket
        # run — required for non-negative delta gaps (blocks are NOT in
        # doc-id order since the key-only id assignment)
        order = np.lexsort((doc_ids, bucket))
        b_sorted = bucket[order]
        if order.size:
            run_start = np.concatenate(
                [[0], np.flatnonzero(b_sorted[1:] != b_sorted[:-1]) + 1]
            )
            run_end = np.concatenate([run_start[1:], [order.size]])
        else:
            run_start = run_end = np.empty(0, dtype=np.int64)

        g_idx = codes[order]  # int gather — no per-posting string take
        doc_ids = doc_ids[order]
        tf0 = batch["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        tfs = tf0.astype(np.uint64)[order]
        dls = batch["dl"].to_numpy(zero_copy_only=False).astype(np.uint64)[order]
        salt = salt_idx[order]
        has_pos = "positions" in batch.column_names
        if has_pos:
            # positional payload: permute the per-posting sublists with the
            # same order, delta within posting, one varbyte pass, slice per
            # bucket run (all vectorized — same shape as the id/tf columns)
            pos_col = batch["positions"]
            if isinstance(pos_col, pa.ChunkedArray):
                pos_col = pos_col.combine_chunks()
            pos_flat0 = pc.list_flatten(pos_col).to_numpy(zero_copy_only=False).astype(np.int64)
            off0 = np.concatenate([[0], np.cumsum(tf0)])[:-1]
            pos_perm = sublist_gather(pos_flat0, off0, order, tf0)
            enc_p, len_p = varbyte_encode_with_lengths(
                delta_within_sublists(pos_perm, tf0[order])
            )
            offB = np.concatenate([[0], np.cumsum(len_p)])
            voff = np.concatenate([[0], np.cumsum(tf0[order])])

        # ---- fully vectorized encode: ONE varbyte call per column over the
        # whole batch, then byte-sliced per run via the returned lengths ----
        n_rows = order.size

        # doc gaps: global diff, reset to the absolute id at each run start
        gaps = doc_ids.copy()
        if n_rows:
            gaps[1:] -= doc_ids[:-1]
            gaps[run_start] = doc_ids[run_start]

        def _enc_offsets(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            enc, lens = varbyte_encode_with_lengths(vals.astype(np.uint64))
            off = np.concatenate([[0], np.cumsum(lens)])
            return enc, off

        enc_d, off_d = _enc_offsets(gaps)
        enc_tf, off_tf = _enc_offsets(tfs)
        enc_dl, off_dl = _enc_offsets(dls)
        local_idx = np.empty(n_rows, dtype=np.int64)
        uniq_concat: list[np.ndarray] = []
        uniq_counts = np.empty(run_start.size, dtype=np.int64)
        for r, (s, e) in enumerate(zip(run_start, run_end)):
            uniq, inv = np.unique(g_idx[s:e], return_inverse=True)
            local_idx[s:e] = inv
            uniq_concat.append(uniq)
            uniq_counts[r] = uniq.size
        enc_ti, off_ti = _enc_offsets(local_idx)
        all_uniq = (
            np.concatenate(uniq_concat) if uniq_concat else np.empty(0, dtype=np.int64)
        )
        dict_offsets = pa.array(
            np.concatenate([[0], np.cumsum(uniq_counts)]), type=pa.int64()
        )
        dict_lists = pa.LargeListArray.from_arrays(
            dict_offsets, g_dict.take(pa.array(all_uniq))
        )
        term_dicts = pc.binary_join(dict_lists, "\n")

        def _slices(enc: np.ndarray, off: np.ndarray) -> list[bytes]:
            return [
                enc[off[s] : off[e]].tobytes() for s, e in zip(run_start, run_end)
            ]

        out = {
            "bucket": pa.array(b_sorted[run_start].astype(np.int32)),
            "salt": pa.array(salt[run_start] if n_rows else salt),
            "n": pa.array((run_end - run_start).astype(np.int64)),
            "term_dict": term_dicts,
            "term_idx": pa.array(_slices(enc_ti, off_ti), pa.large_binary()),
            "docids_vb": pa.array(_slices(enc_d, off_d), pa.large_binary()),
            "tfs_vb": pa.array(_slices(enc_tf, off_tf), pa.large_binary()),
            "dls_vb": pa.array(_slices(enc_dl, off_dl), pa.large_binary()),
        }
        if has_pos:
            out["pos_vb"] = pa.array(
                [
                    enc_p[offB[voff[s]] : offB[voff[e]]].tobytes()
                    for s, e in zip(run_start, run_end)
                ],
                pa.large_binary(),
            )
        return pa.table(out)

    return pack


def make_packed_encoder(
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    n_route_buckets: int,
):
    """A1 (packed shuffle): per-bucket reducer over compressed packs —
    vectorized varbyte decode, dictionary gather, one (term, doc_id) sort,
    then the shared run encoder."""

    def encode(group: pa.Table) -> pa.Table:
        has_pos = "pos_vb" in group.column_names
        term_parts, did_parts, tf_parts, dl_parts, salt_parts = [], [], [], [], []
        pos_parts = []
        salts = group["salt"].to_pylist()
        dicts = group["term_dict"].to_pylist()
        for i in range(group.num_rows):
            idx = varbyte_decode(group["term_idx"][i].as_py()).astype(np.int64)
            dict_arr = pa.array(dicts[i].split("\n"), pa.string())
            term_parts.append(dict_arr.take(pa.array(idx)))
            did_parts.append(delta_decode(varbyte_decode(group["docids_vb"][i].as_py())))
            tf_parts.append(varbyte_decode(group["tfs_vb"][i].as_py()).astype(np.int64))
            dl_parts.append(varbyte_decode(group["dls_vb"][i].as_py()).astype(np.int64))
            salt_parts.append(np.full(idx.size, salts[i], dtype=np.int32))
            if has_pos:
                pos_parts.append(
                    decode_positions(group["pos_vb"][i].as_py(), tf_parts[-1])
                )
        terms_all = pa.concat_arrays(term_parts)
        docids = np.concatenate(did_parts).astype(np.int64)
        tfs = np.concatenate(tf_parts)
        dls = np.concatenate(dl_parts)
        salt = np.concatenate(salt_parts)

        # (term, doc_id) ordering WITHOUT an O(n·len) string sort over the
        # postings: dictionary-encode (hash pass), sort only the VOCAB
        # strings, rank-map the codes, then one integer np.lexsort.  The
        # salted case sorts (term, salt, doc_id) — a salted bucket holds one
        # (term, salt) slice whose doc range is disjoint and ordered by
        # salt_idx, so (rank, salt, doc_id) == (rank, doc_id) globally.
        dic = pc.dictionary_encode(terms_all)
        codes = np.asarray(dic.indices, dtype=np.int64)
        uniq = dic.dictionary
        order_u = np.asarray(pc.sort_indices(uniq), dtype=np.int64)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order_u] = np.arange(len(uniq))
        perm = np.lexsort((docids, salt, rank[codes]))
        dict_sorted = uniq.take(pa.array(order_u))
        term_col = pa.DictionaryArray.from_arrays(
            pa.array(rank[codes][perm].astype(np.int32)), dict_sorted
        )
        positions = None
        if has_pos:
            pos_flat = np.concatenate(pos_parts)
            off = np.concatenate([[0], np.cumsum(tfs)])[:-1]
            positions = sublist_gather(pos_flat, off, perm, tfs)
        return _encode_runs(
            term_col,
            docids[perm],
            tfs[perm],
            dls[perm],
            salt[perm],
            avgdl,
            k1,
            b,
            block_size,
            n_route_buckets,
            positions=positions,
        )

    return encode


def _encode_runs(
    terms: pa.Array,
    docids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    salt_idx: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    n_route_buckets: int,
    positions: np.ndarray | None = None,
) -> pa.Table:
    """Vectorized core: rows sorted by (term, doc_id) → one segment row per
    term run.  ``positions`` (optional): flat per-posting position values in
    the SAME sorted order (counts = tfs) → delta+varbyte positions blob per
    run."""
    n = docids.size
    if n == 0:
        return SEGMENT_SCHEMA.empty_table()
    codes = (
        terms
        if isinstance(terms, pa.DictionaryArray)
        else pc.dictionary_encode(terms)
    )
    code_np = np.asarray(codes.indices)
    run_start = np.concatenate([[0], np.flatnonzero(code_np[1:] != code_np[:-1]) + 1])
    run_end = np.concatenate([run_start[1:], [n]])
    run_len = run_end - run_start

    gaps = docids.astype(np.int64).copy()
    gaps[1:] -= docids[:-1]
    gaps[run_start] = docids[run_start]
    enc_d, len_d = varbyte_encode_with_lengths(gaps.astype(np.uint64))
    enc_t, len_t = varbyte_encode_with_lengths(tfs.astype(np.uint64))
    enc_l, len_l = varbyte_encode_with_lengths(dls.astype(np.uint64))
    off_d = np.concatenate([[0], np.cumsum(len_d)])
    off_t = np.concatenate([[0], np.cumsum(len_t)])
    off_l = np.concatenate([[0], np.cumsum(len_l)])

    tfn = tf_norm(tfs, dls, avgdl, k1, b)
    # global block starts: for each run, run_start + block_size * j
    n_blocks = -(-run_len // block_size)
    total_blocks = int(n_blocks.sum())
    blk_run = np.repeat(np.arange(run_start.size), n_blocks)
    blk_first_of_run = np.concatenate([[0], np.cumsum(n_blocks)])[:-1]
    intra = np.arange(total_blocks) - blk_first_of_run[blk_run]
    blk_starts = run_start[blk_run] + intra * block_size
    bmax = np.maximum.reduceat(tfn, blk_starts) if total_blocks else np.empty(0)
    bfirst = docids[blk_starts] if total_blocks else np.empty(0, dtype=np.int64)

    uniq_terms = pc.take(codes.dictionary, pa.array(code_np[run_start]))
    route = (polyhash_column(uniq_terms) % np.uint64(n_route_buckets)).astype(np.int32)

    d_bytes = [enc_d[off_d[s] : off_d[e]].tobytes() for s, e in zip(run_start, run_end)]
    t_bytes = [enc_t[off_t[s] : off_t[e]].tobytes() for s, e in zip(run_start, run_end)]
    l_bytes = [enc_l[off_l[s] : off_l[e]].tobytes() for s, e in zip(run_start, run_end)]
    if positions is not None:
        enc_p, len_p = varbyte_encode_with_lengths(
            delta_within_sublists(positions, tfs.astype(np.int64))
        )
        offB = np.concatenate([[0], np.cumsum(len_p)])
        voff = np.concatenate([[0], np.cumsum(tfs.astype(np.int64))])
        p_bytes = [
            enc_p[offB[voff[s]] : offB[voff[e]]].tobytes()
            for s, e in zip(run_start, run_end)
        ]
    else:
        p_bytes = [b""] * run_start.size

    blk_offsets = pa.array(np.concatenate([[0], np.cumsum(n_blocks)]), type=pa.int32())
    return pa.table(
        {
            "term": uniq_terms,
            "df": pa.array(run_len.astype(np.int64)),
            "salt_idx": pa.array(salt_idx[run_start].astype(np.int32)),
            "n_postings": pa.array(run_len.astype(np.int64)),
            "docids": pa.array(d_bytes, type=pa.binary()),
            "tfs": pa.array(t_bytes, type=pa.binary()),
            "dls": pa.array(l_bytes, type=pa.binary()),
            "positions": pa.array(p_bytes, type=pa.binary()),
            "block_first_docid": pa.ListArray.from_arrays(
                blk_offsets, pa.array(bfirst.astype(np.int64))
            ),
            "block_max_tfnorm": pa.ListArray.from_arrays(
                blk_offsets, pa.array(bmax.astype(np.float64))
            ),
            "term_bucket": pa.array(route),
        }
    )


def make_salted_merger(avgdl: float, k1: float, b: float, block_size: int, n_route_buckets: int):
    """Stage 04: merge one term's salted partial rows into a final segment row.

    Partials cover disjoint ascending doc-id ranges (doc-range salting), so
    the merge is decode → concatenate in salt order → re-encode.
    """

    def merge(group: pa.Table) -> pa.Table:
        # input is pre-filtered to salted partials (salt_idx != -1) by
        # build.py; every group is decoded, concatenated, re-encoded.
        # Partials cover disjoint ascending doc ranges, so concatenation in
        # salt order IS (doc_id) order — positions ride along unchanged.
        g = group.sort_by([("salt_idx", "ascending")])
        tf_rows = [decode_values(bs.as_py()) for bs in g["tfs"]]
        docids = np.concatenate([decode_docids(bs.as_py()) for bs in g["docids"]])
        tfs = np.concatenate(tf_rows)
        dls = np.concatenate([decode_values(bs.as_py()) for bs in g["dls"]])
        positions = None
        if "positions" in g.column_names and any(
            len(bs.as_py()) for bs in g["positions"]
        ):
            positions = np.concatenate(
                [
                    decode_positions(bs.as_py(), tf_i)
                    for bs, tf_i in zip(g["positions"], tf_rows)
                ]
            )
        term_arr = pa.array([g["term"][0].as_py()] * docids.size, type=pa.string())
        return _encode_runs(
            term_arr,
            docids.astype(np.int64),
            tfs,
            dls,
            np.full(docids.size, -1, dtype=np.int32),
            avgdl,
            k1,
            b,
            block_size,
            n_route_buckets,
            positions=positions,
        )

    return merge
