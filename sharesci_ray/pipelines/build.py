"""Flagship pipeline 1: checkpoint-resumable inverted-index build.

SURVEY.md §3.1 (ref: n/a, §0 — reference checkout empty; contract
BASELINE.json:6,14,15).  Stages, each gated by a manifest (resume skips
complete stages):

  docvec   : read corpus → sha256 fingerprint → per-doc sorted term vectors
             (content dropped in the same fused task that decoded it) →
             deterministic dense doc ids (key-only sort + distributed
             prefix-sum over the content-free rows) → parquet checkpoint.
             The ONLY stage that touches raw content; resume never
             re-tokenizes.
  stats    : N, avgdl, total_tokens → stats.json sidecar.
  segments : explode postings → hot-term pre-pass → salted bucket keys →
             groupby(bucket) encode (delta+varbyte+block-max) → optional
             merge of salted partials → parquet partitioned by term_bucket.

All heavy transforms are stateless ``map_batches`` over zero-copy Arrow; the
single all-to-all exchange is the bucketed groupby (see stages/encode.py).

Writes: update_index and delete_docs share one preamble
(_begin_maintenance), one checkpoint probe (_probe_keys) and one
crash-ordered window (_rewrite_window: debt record → segments manifest
removed → tombstones → stats → bucket-scoped or full re-encode → debt
cleared).  compact_index and merge_indexes rebuild from one survivor
reader (_survivor_termvecs) without re-tokenizing.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from ..functions.bm25 import B, K1
from ..stages.docvec import (
    add_fingerprint,
    assign_doc_ids,
    explode_postings,
    to_term_vectors,
)
from ..stages.encode import (
    SaltPlan,
    detect_hot_terms,
    make_bucket_packer,
    make_packed_encoder,
    make_salted_merger,
)
from ..state.manifest import BuildState, StageManifest


@dataclass(frozen=True)
class BuildConfig:
    n_buckets: int = 64
    block_size: int = 128
    k1: float = K1
    b: float = B
    hot_top_m: int = 128
    hot_sample: float = 0.1           # row-sample fraction for the hot-term pre-pass
    salt_threshold: int = 100_000     # min est. postings before a term is "hot"
    salt_target_group: int = 100_000  # postings per salted partial
    merge_salted: bool = True         # False = leave multi-row terms (extreme scale)
    doc_shards: int | None = None     # doc-sharded layout for sharded query serving
    langs: tuple[str, ...] | None = None
    positions: bool = False           # store token positions (phrase queries)


def _clean_dir(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)


def _parquet_rows(directory: str) -> int:
    """Row count from parquet footers only (no data pages touched)."""
    import pyarrow.parquet as pq

    total = 0
    for root, _dirs, files in os.walk(directory):
        for fn in files:
            if fn.endswith(".parquet"):
                total += pq.ParquetFile(os.path.join(root, fn)).metadata.num_rows
    return total


TOMBSTONES_FILE = "tombstones.parquet"


def _read_tombstones(build_dir: str) -> np.ndarray:
    """Sorted int64 doc ids superseded by incremental updates (empty if none).

    A tombstoned doc stays in the docvec checkpoint (ids are never reused)
    but is excluded from stats AND from segment encoding — the rebuilt index
    is exactly what a fresh build over the surviving docs would produce."""
    import pyarrow.parquet as pq

    p = os.path.join(build_dir, TOMBSTONES_FILE)
    if not os.path.exists(p):
        return np.empty(0, dtype=np.int64)
    return np.sort(
        pq.read_table(p)["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    )


def _write_tombstones(build_dir: str, ids: np.ndarray) -> None:
    import pyarrow.parquet as pq

    p = os.path.join(build_dir, TOMBSTONES_FILE)
    tmp = p + ".tmp"
    pq.write_table(
        pa.table({"doc_id": pa.array(np.sort(ids).astype(np.int64), pa.int64())}), tmp
    )
    os.replace(tmp, p)


_PENDING_FILE = "pending_reencode.json"


def _read_reencode_debt(build_dir: str) -> tuple[set[int] | None, np.ndarray]:
    """Unpaid re-encode debt left by a previously crashed maintenance
    window: the term buckets whose on-disk segment partitions may not
    reflect tombstones/stats (``None`` = every bucket, unknown scope;
    empty set = no debt), and the window's ``window_dead`` ids (see
    _write_reencode_debt).  A missing debt file with a missing segments
    manifest means a crash predating the debt record (or a crashed
    original build) — full debt."""
    import json

    p = os.path.join(build_dir, _PENDING_FILE)
    if not os.path.exists(p):
        seg = os.path.join(build_dir, "manifests", "segments.json")
        return (set() if os.path.exists(seg) else None), np.empty(0, dtype=np.int64)
    with open(p) as f:
        rec = json.load(f)
    b = rec["buckets"]
    window_dead = np.array(rec.get("window_dead", []), dtype=np.int64)
    return (None if b is None else {int(x) for x in b}), window_dead


def _write_reencode_debt(
    build_dir: str,
    buckets: set[int] | None,
    window_dead: np.ndarray | None = None,
) -> None:
    """Atomically record the re-encode scope BEFORE the window's first
    destructive write, so a crash followed by a DIFFERENT maintenance op
    still re-encodes every bucket this op may leave half-updated.

    ``window_dead`` (update windows only): the doc ids THIS window newly
    tombstones — if the window's orphan delta is later absorbed (the
    update never happened), these tombstones are resurrected so the
    superseded originals aren't silently lost along with their
    replacements.  Deletions never set it: a crashed delete's tombstones
    legitimately persist (the deletion is idempotent and user-intended)."""
    import json

    p = os.path.join(build_dir, _PENDING_FILE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(
            {
                "buckets": sorted(int(b) for b in buckets)
                if buckets is not None
                else None,
                "window_dead": [int(x) for x in window_dead]
                if window_dead is not None
                else [],
            },
            f,
        )
    os.replace(tmp, p)


def _healthy(build_dir: str) -> bool:
    """Segments manifest committed and no unpaid re-encode debt."""
    return os.path.exists(
        os.path.join(build_dir, "manifests", "segments.json")
    ) and not os.path.exists(os.path.join(build_dir, _PENDING_FILE))


def _clear_reencode_debt(build_dir: str) -> None:
    p = os.path.join(build_dir, _PENDING_FILE)
    if os.path.exists(p):
        os.remove(p)


def _absorb_orphan_deltas(state: BuildState) -> None:
    """Undo a crashed update_index window at the next maintenance op:
    resurrect the tombstones that window wrote, then remove its
    uncommitted ``update-k`` delta subdirs (their id range is reused) —
    an update that never committed never happened, so the superseded
    ORIGINALS must survive when their replacements are dropped.

    Ordering and idempotency: resurrection runs FIRST, keyed on the debt
    file's ``window_dead`` (NOT on whether an orphan dir is still present
    — a crash between a previous absorb's rmtree and its tombstone write
    must not lose the resurrection), and ``window_dead`` is cleared from
    the debt file only at the end; a crash anywhere here re-applies the
    same (idempotent) steps next time.  When resurrection actually
    revives ids, the debt is widened to ALL buckets: the crashed window
    may already have swapped the revived docs' postings out of their
    segment partitions, and only a full re-encode from the docvec
    checkpoint can restore them (a partial pass decodes segments only).

    The orphan is never read: if its window opened, its buckets are
    already in its own debt record, and if it crashed pre-window the
    segments were never touched — so rmtree alone is safe, and a delta
    parquet torn mid-write can't brick later maintenance ops."""
    build_dir, docvec_dir = state.build_dir, state.stage_dir("docvec")
    debt, window_dead = _read_reencode_debt(build_dir)
    resurrected = False
    if window_dead.size:
        tomb = _read_tombstones(build_dir)
        kept = np.setdiff1d(tomb, window_dead)
        if kept.size != tomb.size:
            _write_tombstones(build_dir, kept)
            resurrected = True
    for d in _orphan_deltas(state):
        shutil.rmtree(os.path.join(docvec_dir, d))
    if window_dead.size:
        _write_reencode_debt(build_dir, None if resurrected else debt, None)


def _orphan_deltas(state: BuildState) -> set[str]:
    """Names of ``update-k`` delta subdirs with no committed manifest."""
    docvec_dir = state.stage_dir("docvec")
    if not os.path.isdir(docvec_dir):
        return set()
    return {
        d
        for d in os.listdir(docvec_dir)
        if d.startswith("update-")
        and os.path.isdir(os.path.join(docvec_dir, d))
        and state.read_manifest(d) is None
    }


def _committed_docvec_files(state: BuildState) -> list[str]:
    """Parquet files of a docvec checkpoint EXCLUDING uncommitted
    ``update-k`` delta subdirs (ADVICE r3: update_index crashing after the
    delta parquet write but before the debt/pending record leaves an
    orphan dir with no manifest and no _PENDING_FILE — merge_indexes
    and the key probe must not fold those never-committed, possibly torn
    rows in; "an update that never committed never happened").  The orphan dirs themselves are left on disk: the input
    index is not ours to mutate, and its own next maintenance op heals
    them via _absorb_orphan_deltas."""
    docvec_dir = state.stage_dir("docvec")
    orphans = _orphan_deltas(state)
    files: list[str] = []
    for root, _dirs, fs in os.walk(docvec_dir):
        rel = os.path.relpath(root, docvec_dir)
        if rel != "." and rel.split(os.sep)[0] in orphans:
            continue
        files += [os.path.join(root, f) for f in fs if f.endswith(".parquet")]
    return sorted(files)


def _drop_dead_fn(dead: np.ndarray):
    """map_batches filter excluding tombstoned doc ids (broadcast once)."""
    dead_ref = ray.put(pa.array(dead, pa.int64()))

    def drop(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t["doc_id"], value_set=ray.get(dead_ref)))
        )

    return drop


def _live_stats(ds: ray.data.Dataset, dead: np.ndarray) -> tuple[int, int]:
    """(n_docs, total_tokens) over the rows of ``ds`` (doc_id, doc_len)
    whose ids are not in ``dead`` — exact integer count and sum."""
    if dead.size:
        ds = ds.map_batches(
            _drop_dead_fn(dead), batch_format="pyarrow", zero_copy_batch=True
        )
    agg = ds.aggregate(Count(), Sum("doc_len"))
    return int(agg["count()"]), int(agg["sum(doc_len)"] or 0)


# avgdl-drift bound for bucket-scoped incremental re-encode: block maxes in
# UNtouched buckets were computed under an older avgdl; the scorer keeps
# WAND/BMW pruning safe by scaling them with max(1, avgdl_now/bm_avgdl_lo)
# (tf_norm(avgdl') ≤ tf_norm(avgdl0)·max(1, avgdl'/avgdl0) — see
# query.ScorerActor).  Once the live range of encode-time avgdls exceeds
# this ratio the bounds get loose enough to erode skipping, so the next
# update triggers a full re-encode instead.
_BM_SLACK_LIMIT = 1.10


def _set_encode_avgdl(state: BuildState, lo: float, hi: float) -> None:
    """Record the [lo, hi] range of avgdl values live segments were encoded
    under (stats.json sidecar keys ``bm_avgdl_lo``/``bm_avgdl_hi``)."""
    stats = state.read_sidecar("stats.json")
    stats["bm_avgdl_lo"] = lo
    stats["bm_avgdl_hi"] = hi
    state.write_sidecar("stats.json", stats)


def _encode_segments_from_postings(
    postings: ray.data.Dataset,
    cfg: BuildConfig,
    stats: dict,
    out_dir: str,
    metrics: dict,
    hot_sample_frac: float = 1.0,
) -> None:
    """Shared segments-encode core (full build AND bucket-scoped partial
    re-encode): postings (term, doc_id, tf, dl) → hot-term plan → packed
    shuffle → per-bucket encode → salted merge → parquet partitioned by
    term_bucket at ``out_dir`` (wiped first)."""
    import time as _time

    _t0 = _time.perf_counter()
    if cfg.doc_shards:
        plan = SaltPlan(
            n_buckets=cfg.n_buckets,
            n_docs=stats.get("id_space", stats["n_docs"]),
            doc_shards=cfg.doc_shards,
        )
    else:
        src = postings
        if hot_sample_frac < 1.0:
            src = src.random_sample(hot_sample_frac, seed=7)
        hot = detect_hot_terms(src, top_m=cfg.hot_top_m)
        hot = {t: int(c / hot_sample_frac) for t, c in hot.items()}
        hot = {t: c for t, c in hot.items() if c >= cfg.salt_threshold}
        metrics["hot_pass_s"] = round(_time.perf_counter() - _t0, 3)
        plan = SaltPlan.plan(
            hot, cfg.n_buckets, stats.get("id_space", stats["n_docs"]), cfg.salt_target_group
        )
        metrics["hot_terms"] = {t: list(plan.salts[t]) for t in plan.salts}

    packed = postings.map_batches(
        make_bucket_packer(plan), batch_format="pyarrow", zero_copy_batch=True
    )
    encoder = make_packed_encoder(
        stats["avgdl"], cfg.k1, cfg.b, cfg.block_size, cfg.n_buckets
    )
    seg = packed.groupby("bucket").map_groups(encoder, batch_format="pyarrow")
    if cfg.merge_salted and plan.salts:
        # the finals/partials branches below both consume `seg`; Ray Data
        # re-executes shared subplans per consumer, so pin the encoded
        # segments in the object store once before branching
        seg = seg.materialize()
        finals = seg.map_batches(
            lambda t: t.filter(pc.equal(t["salt_idx"], pa.scalar(-1, pa.int32()))),
            batch_format="pyarrow",
        )
        partials = seg.map_batches(
            lambda t: t.filter(pc.not_equal(t["salt_idx"], pa.scalar(-1, pa.int32()))),
            batch_format="pyarrow",
        )
        merger = make_salted_merger(
            stats["avgdl"], cfg.k1, cfg.b, cfg.block_size, cfg.n_buckets
        )
        merged = partials.groupby("term").map_groups(merger, batch_format="pyarrow")
        seg = finals.union(merged)
    _t0 = _time.perf_counter()
    _clean_dir(out_dir)
    seg.write_parquet(out_dir, partition_cols=["term_bucket"])
    metrics["encode_write_s"] = round(_time.perf_counter() - _t0, 3)


def _postings_schema(positions: bool) -> pa.Schema:
    fields = [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("dl", pa.int32()),
    ]
    if positions:
        fields.append(("positions", pa.list_(pa.int32())))
    return pa.schema(fields)


def _terms_to_buckets(t: pa.Table, n_buckets: int) -> pa.Table:
    """terms list-column batch → unique route-bucket ids touched by it."""
    from ..functions.hashing import polyhash_column

    terms = t["terms"]
    terms = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
    flat = pc.unique(pc.list_flatten(terms))
    b = (polyhash_column(flat) % np.uint64(n_buckets)).astype(np.int32)
    return pa.table({"bucket": pa.array(np.unique(b))})


def _path_keys(t: pa.Table) -> pa.Array:
    """One ``repo\\x00path`` string per row: a document's identity."""
    return pc.binary_join_element_wise(
        t["repo"].combine_chunks(), t["path"].combine_chunks(), "\x00"
    )


def _probe_keys(
    state: BuildState, n_buckets: int, keys: pa.Array
) -> tuple[np.ndarray, set[int]]:
    """The one checkpoint probe of update_index and delete_docs: the doc
    ids of committed checkpoint rows whose (repo, path) key is in ``keys``
    (already-dead rows included), and the route buckets of those rows'
    terms — the buckets whose posting lists dropping them can change.  A
    term whose docs are untouched keeps byte-identical postings, so its
    bucket never needs rewriting.

    One column-pruned pass over the whole checkpoint (a broadcast key set
    + vectorized is_in, no corpus materialization); only the matched rows
    reach the driver, so the result is bounded by ``len(keys)``.
    Uncommitted ``update-k`` dirs — including the in-flight delta of the
    calling update, which has no manifest yet — are not read."""
    key_ref = ray.put(pc.unique(keys))

    def match(t: pa.Table) -> pa.Table:
        hit = pc.is_in(_path_keys(t), value_set=ray.get(key_ref))
        return t.filter(hit).select(["doc_id", "terms"])

    files = _committed_docvec_files(state)
    hits = ray.data.read_parquet(
        files, columns=["doc_id", "repo", "path", "terms"]
    ).map_batches(match, batch_format="pyarrow", zero_copy_batch=True)
    parts = [
        t for t in hits.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not parts:
        return np.empty(0, dtype=np.int64), set()
    rows = pa.concat_tables(parts)
    ids = rows["doc_id"].to_numpy().astype(np.int64)
    buckets = _terms_to_buckets(rows, n_buckets)["bucket"].to_pylist()
    return ids, {int(b) for b in buckets}


def _segments_to_postings_fn(dead: np.ndarray, min_dead_id: int, positions: bool):
    """map_batches fn decoding segment rows back to posting rows, dropping
    doc ids that are tombstoned or ≥ ``min_dead_id`` (the current delta's
    id base — dropping-then-re-adding the delta makes a crash rerun
    idempotent even over half-rewritten buckets).  ``positions=True``
    (positional index) re-emits each posting's token-position sublist."""
    from ..functions.codecs import decode_docids, decode_positions, decode_values

    dead_ref = ray.put(np.sort(dead.astype(np.int64)))
    schema = _postings_schema(positions)

    def decode(t: pa.Table) -> pa.Table:
        ids_parts, tf_parts, dl_parts, pos_parts, counts = [], [], [], [], []
        for i in range(t.num_rows):
            ids_parts.append(decode_docids(t["docids"][i].as_py()))
            tf_parts.append(decode_values(t["tfs"][i].as_py()))
            dl_parts.append(decode_values(t["dls"][i].as_py()))
            counts.append(ids_parts[-1].size)
            if positions:
                pos_parts.append(
                    decode_positions(t["positions"][i].as_py(), tf_parts[-1])
                )
        ids = np.concatenate(ids_parts).astype(np.int64)
        tfs = np.concatenate(tf_parts).astype(np.int32)
        dls = np.concatenate(dl_parts).astype(np.int32)
        term_col = t["term"].combine_chunks() if isinstance(t["term"], pa.ChunkedArray) else t["term"]
        idx = np.repeat(np.arange(t.num_rows), counts)
        terms = pc.cast(
            pa.DictionaryArray.from_arrays(pa.array(idx.astype(np.int32)), term_col),
            pa.string(),
        )
        dead_arr = ray.get(dead_ref)
        keep = ids < min_dead_id
        if dead_arr.size:
            pos = np.searchsorted(dead_arr, ids)
            pos[pos == dead_arr.size] = 0
            keep &= dead_arr[pos] != ids
        k = np.flatnonzero(keep)
        out = {
            "term": terms.take(pa.array(k)),
            "doc_id": pa.array(ids[k]),
            "tf": pa.array(tfs[k]),
            "dl": pa.array(dls[k]),
        }
        if positions:
            from ..functions.codecs import sublist_gather

            pos_flat = np.concatenate(pos_parts)
            off = np.concatenate([[0], np.cumsum(tfs.astype(np.int64))])[:-1]
            kept_flat = sublist_gather(pos_flat, off, k, tfs.astype(np.int64))
            koff = np.concatenate([[0], np.cumsum(tfs[k].astype(np.int64))])
            out["positions"] = pa.ListArray.from_arrays(
                pa.array(koff, type=pa.int64()).cast(pa.int32()),
                pa.array(kept_flat.astype(np.int32)),
            )
        return pa.table(out, schema=schema)

    return decode


def _partial_reencode_segments(
    state: BuildState,
    cfg: BuildConfig,
    affected: set[int],
    dead: np.ndarray,
    delta_dir: str | None,
    delta_base: int,
    metrics: dict,
) -> None:
    """Bucket-scoped incremental re-encode (O(delta-touched buckets), not
    O(index)): decode ONLY the affected term buckets' existing segment
    rows back to postings, drop tombstoned + current-delta ids, union the
    delta's fresh postings, re-run the standard pack→encode→merge over
    that subset, and swap just those ``term_bucket=`` partition dirs.

    The corpus checkpoint is never scanned; untouched buckets' parquet is
    never rewritten.  Untouched block maxes stay encoded under an older
    avgdl — valid upper bounds via the scorer's bm_avgdl_lo slack
    (_rewrite_window enforces _BM_SLACK_LIMIT and falls back to a full
    re-encode beyond it).  Crash-safe: the segments manifest is already
    deleted AND the window persisted ``affected`` in the debt file
    (pending_reencode.json) before any destructive write — a rerun of the
    SAME op recomputes the same scope, and a DIFFERENT follow-up op unions
    the recorded debt into its own scope, so half-swapped buckets are
    always re-covered; the decode filter (ids ≥ delta_base dropped, then
    re-added from the delta dir) makes re-processing them idempotent."""
    stats = state.read_sidecar("stats.json")
    seg_dir = state.stage_dir("segments")
    srcs = []
    # expand bucket dirs to their parquet FILES: ray 2.49's read_parquet
    # treats a multi-element path list as files, so a 2+-bucket directory
    # list raises "Cannot open for reading: ... is a directory".
    # A missing bucket dir falls back to its ``.old`` twin: the swap below
    # parks the previous content there before installing the new, so a
    # crash between its two renames still leaves the pre-window postings
    # decodable (when BOTH exist, the main dir wins — it already holds the
    # new content, over which the decode filter is idempotent).
    existing = []
    for b in sorted(affected):
        bd = os.path.join(seg_dir, f"term_bucket={b}")
        if not os.path.isdir(bd):
            bd = bd + ".old"
        if os.path.isdir(bd):
            existing += [
                os.path.join(bd, f)
                for f in sorted(os.listdir(bd))
                if f.endswith(".parquet")
            ]
    seg_cols = ["term", "docids", "tfs", "dls"]
    delta_cols = ["doc_id", "doc_len", "terms", "tfs"]
    if cfg.positions:
        seg_cols.append("positions")
        delta_cols.append("positions")
    if existing:
        old = ray.data.read_parquet(existing, columns=seg_cols).map_batches(
            _segments_to_postings_fn(dead, delta_base, cfg.positions),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        srcs.append(old)
    if delta_dir is not None:
        srcs.append(
            ray.data.read_parquet(delta_dir, columns=delta_cols).map_batches(
                explode_postings, batch_format="pyarrow", zero_copy_batch=True
            )
        )
    if not srcs:
        return
    postings = srcs[0]
    for s in srcs[1:]:
        postings = postings.union(s)
    # bounded by the affected buckets + delta → materialize once (the hot
    # pass and the pack both consume it)
    postings = postings.materialize()

    tmp_dir = seg_dir + ".partial"
    _encode_segments_from_postings(postings, cfg, stats, tmp_dir, metrics)
    for b in sorted(affected):
        dst = os.path.join(seg_dir, f"term_bucket={b}")
        src = os.path.join(tmp_dir, f"term_bucket={b}")
        trash = dst + ".old"
        # park-then-install (never rmtree the only copy): a crash between
        # the renames leaves the old content in .old, which the decode
        # fallback above recovers on the rerun
        shutil.rmtree(trash, ignore_errors=True)  # stale from a prior crash
        if os.path.isdir(dst):
            os.rename(dst, trash)
        if os.path.isdir(src):
            shutil.move(src, dst)
        shutil.rmtree(trash, ignore_errors=True)
    _clean_dir(tmp_dir)
    metrics["affected_buckets"] = sorted(affected)
    metrics["reencode_mode"] = "partial"


def _docvec_hash(cfg: BuildConfig, tok_id: str, extra: list[str]) -> str:
    """Fingerprint of the docvec stage: only the config subset the term
    vectors depend on."""
    from ..state.manifest import config_hash

    return config_hash(
        {"langs": cfg.langs, "tokenizer": tok_id,
         "positions": cfg.positions, "extra": extra}
    )


def _tokenizer_id(tokenizer) -> str:
    """Stable identity for the §2.11 tokenizer hook — part of the docvec
    stage fingerprint, so resuming with a DIFFERENT tokenizer re-runs the
    stage instead of silently reusing mismatched term vectors."""
    if tokenizer is None:
        return "default"
    return f"{getattr(tokenizer, '__module__', '?')}.{getattr(tokenizer, '__qualname__', repr(tokenizer))}"


# docs per ingest batch: ~10 MB of source at typical doc sizes — big enough
# to amortize Arrow per-batch costs and keep block counts low, small enough
# that batch × concurrency stays far under a worker heap
_DOCVEC_BATCH = 1000


def _ingest_termvecs(ds: ray.data.Dataset, cfg: BuildConfig, tokenizer, base: int):
    """Shared ingest chain (fresh build AND incremental update): lang filter
    → sha256 fingerprint → term vectors → dense doc ids from ``base``.

    Order is load-bearing for scale: read → filter → fingerprint →
    tokenize all FUSE into one streamed pass (raw ``content`` never hits
    the object store — it is dropped inside the same task that decoded
    it), and the id-assignment sort/attach then moves only the ~2× smaller
    content-free term-vector rows.  The sort keys (repo/path/commit/sha)
    all survive tokenization, so ids are identical to the old
    assign-then-tokenize order.

    ``_DOCVEC_BATCH`` coalesces the reader's dynamically-split ~250-row
    blocks into ~1000-doc batches: Arrow's per-batch hash aggregation
    amortizes, and the downstream id sort sees tens of multi-MB blocks
    instead of hundreds of ~1 MB ones (6× faster sort leg at 50 k docs)."""
    kw = dict(batch_format="pyarrow", zero_copy_batch=True, batch_size=_DOCVEC_BATCH)
    if cfg.langs:
        allowed = pa.array(list(cfg.langs))
        ds = ds.map_batches(
            lambda t, _a=allowed: t.filter(pc.is_in(t["lang"], value_set=_a)), **kw
        )
    ds = ds.map_batches(add_fingerprint, **kw)
    if tokenizer is not None:
        ds = ds.map_batches(
            lambda t, _tok=tokenizer, _p=cfg.positions: to_term_vectors(
                t, tokenizer=_tok, positions=_p
            ),
            **kw,
        )
    else:
        ds = ds.map_batches(
            lambda t, _p=cfg.positions: to_term_vectors(t, positions=_p), **kw
        )
    return assign_doc_ids(ds, base=base)


def build_index(
    corpus: ray.data.Dataset,
    build_dir: str,
    cfg: BuildConfig | None = None,
    resume: bool = True,
    tokenizer=None,
    extra_stages=None,
    _tok_id: str | None = None,
    _termvecs: ray.data.Dataset | None = None,
) -> BuildState:
    """Run (or resume) the index build; returns the BuildState handle.

    §2.11 extension hooks: ``tokenizer`` is a vectorized
    ``(string column) -> (flat tokens, parent rows)`` callable (default: the
    shared code-aware tokenizer — queries must use the scalar twin);
    ``extra_stages`` is a list of ``(name, Dataset -> Dataset)`` transforms
    applied to the corpus at ingest (before fingerprinting), recorded in the
    docvec manifest for lineage.
    """
    from ..state.manifest import config_hash as _cfg_hash

    cfg = cfg or BuildConfig()
    # _tok_id: internal override for maintenance flows (update/delete
    # windows, compact, merge) that re-run stages on an index whose
    # tokenizer OBJECT is unavailable — stage fingerprints and config.json
    # must keep the original identity
    tok_id = _tok_id if _tok_id is not None else _tokenizer_id(tokenizer)
    state = BuildState(build_dir, {**asdict(cfg), "tokenizer": tok_id})
    state.write_sidecar(
        "config.json",
        {**asdict(cfg), "tokenizer": tok_id,
         "extra_stages": [n for n, _ in (extra_stages or [])]},
    )  # update_index reloads + checks it
    # per-stage fingerprints: each stage is keyed only by the config subset
    # it depends on — retuning a segments-only knob must not force a full
    # re-tokenize of the corpus
    docvec_hash = _docvec_hash(cfg, tok_id, [n for n, _ in (extra_stages or [])])
    # stats.json carries the scoring params, so those join its fingerprint
    stats_hash = _cfg_hash(
        {"docvec": docvec_hash, "k1": cfg.k1, "b": cfg.b,
         "block_size": cfg.block_size, "n_buckets": cfg.n_buckets}
    )
    segments_hash = state.cfg_hash

    # ---- stage: docvec -----------------------------------------------------
    docvec_dir = state.stage_dir("docvec")
    termvec_mem: ray.data.Dataset | None = None
    if not (resume and state.is_complete("docvec", docvec_hash)):
        m = state.begin("docvec", inputs=["corpus"], upstream=[], cfg_hash=docvec_hash)
        ds = corpus
        for stage_name, stage_fn in extra_stages or []:
            ds = stage_fn(ds)
            m.metrics.setdefault("extra_stages", []).append(stage_name)
        import time as _time

        _t0 = _time.perf_counter()
        if _termvecs is not None:
            # maintenance flows (compact_index) hand the stage pre-built
            # term vectors with ids already assigned — the ingest/tokenize
            # pass is skipped, everything downstream is identical
            ds = _termvecs
        else:
            ds = _ingest_termvecs(ds, cfg, tokenizer, base=0)
        # materialize ONCE: the checkpoint write below streams from the
        # pinned blocks, and stats/segments consume the same blocks without
        # re-reading (and re-decoding) the parquet — one full-corpus pass
        # less through the storage backplane per build.  The object store
        # spills if the corpus outgrows memory; resumed builds (no in-memory
        # copy) fall back to column-pruned checkpoint reads.
        termvec_mem = ds.materialize()
        if termvec_mem.count() == 0:
            # must fire BEFORE the write: writing an all-empty dataset dies
            # on Ray's schema-less empty blocks
            raise ValueError(
                f"corpus is empty after ingest filters (langs={cfg.langs!r}) — "
                "refusing to build an empty index"
            )
        _clean_dir(docvec_dir)
        # a docvec re-run reassigns doc ids from 0, which invalidates every
        # stored tombstone id — stale tombstones surviving here would
        # silently drop unrelated NEW documents from stats and segments
        tomb = os.path.join(build_dir, TOMBSTONES_FILE)
        if os.path.exists(tomb):
            os.remove(tomb)
        termvec_mem.write_parquet(docvec_dir)
        m.metrics["ingest_write_s"] = round(_time.perf_counter() - _t0, 3)
        m.rows_out = _parquet_rows(docvec_dir)  # metadata-only, no re-read
        m.metrics["stage"] = "ingest+fingerprint+docid+termvec"
        state.commit(m)

    def docvec_cols(columns: list[str]) -> ray.data.Dataset:
        if termvec_mem is not None:
            return termvec_mem.select_columns(columns)
        return ray.data.read_parquet(docvec_dir, columns=columns)

    # ---- stage: stats ------------------------------------------------------
    if not (resume and state.is_complete("stats", stats_hash)):
        m = state.begin("stats", inputs=[docvec_dir], upstream=["docvec"], cfg_hash=stats_hash)
        n_docs, total = _live_stats(
            docvec_cols(["doc_id", "doc_len"]), _read_tombstones(build_dir)
        )
        # exact int sum / count (not a float Mean): bit-identical to the oracle
        avgdl = float(total) / n_docs if n_docs else 0.0
        state.write_sidecar(
            "stats.json",
            {
                "n_docs": n_docs,
                "total_tokens": total,
                "avgdl": avgdl,
                # id_space = dense id upper bound INCLUDING tombstoned docs
                # (ids are never reused; the dense DAAT accumulator and the
                # doc-range salt/shard math size by this, not by n_docs)
                "id_space": _parquet_rows(docvec_dir),
                "k1": cfg.k1,
                "b": cfg.b,
                "block_size": cfg.block_size,
                "n_buckets": cfg.n_buckets,
                "doc_shards": cfg.doc_shards,
            },
        )
        m.rows_out = 1
        m.metrics = {"n_docs": n_docs, "avgdl": avgdl, "total_tokens": total}
        state.commit(m)
    stats = state.read_sidecar("stats.json")

    # ---- stage: segments ---------------------------------------------------
    seg_dir = state.stage_dir("segments")
    if not (resume and state.is_complete("segments", segments_hash)):
        m = state.begin(
            "segments", inputs=[docvec_dir], upstream=["docvec", "stats"], cfg_hash=segments_hash
        )

        import time as _time

        # hot-term pre-pass on a seeded row sample: only the salting PLAN
        # depends on it, and salted builds merge to byte-identical segments
        # (tested), so sampling noise can't change the output — it only
        # trades a little salting precision for skipping 90% of the pass.
        _t0 = _time.perf_counter()
        frac = 1.0 if stats["n_docs"] < 20_000 else cfg.hot_sample
        slim_cols = ["doc_id", "doc_len", "terms", "tfs"]
        if cfg.positions:
            slim_cols.append("positions")
        slim = docvec_cols(slim_cols)
        dead = _read_tombstones(build_dir)
        if dead.size:
            # tombstoned docs are excluded from encoding entirely: segments,
            # df and block maxes all match a fresh build over survivors
            slim = slim.map_batches(
                _drop_dead_fn(dead), batch_format="pyarrow", zero_copy_batch=True
            )
        if termvec_mem is None:
            # resumed build: the hot-term pass and the pack both consume
            # `slim`; pin it once so the checkpoint's list columns are
            # parquet-decoded a single time.  (Fresh builds skip this: the
            # termvecs are already pinned and re-projecting them per
            # consumer is cheaper than a second full in-memory copy.)
            slim = slim.materialize()
        m.metrics["slim_mat_s"] = round(_time.perf_counter() - _t0, 3)
        postings = slim.map_batches(
            explode_postings, batch_format="pyarrow", zero_copy_batch=True
        )
        _encode_segments_from_postings(
            postings, cfg, stats, seg_dir, m.metrics, hot_sample_frac=frac
        )
        # a full encode resets the avgdl-slack range: every live segment's
        # block maxes are now exact under the current avgdl
        _set_encode_avgdl(state, stats["avgdl"], stats["avgdl"])
        m.rows_out = _parquet_rows(seg_dir)  # metadata-only, no re-read
        state.commit(m)

    return state


def _load_stored_state(build_dir: str, op_name: str):
    """Shared maintenance-op loader (_begin_maintenance, compact, merge): load
    config.json, reject indexes whose docvec content cannot be
    reconstructed from disk (extra_stages), rebuild the BuildConfig +
    BuildState, and require the docvec + stats manifests (the segments
    manifest may legitimately be absent after a crashed maintenance run —
    every caller rebuilds segments anyway).

    Checks config.json BEFORE constructing any BuildState: BuildState's
    constructor creates the manifests/ skeleton as a side effect, and a
    skeleton dir must not be mistaken for an index by later recovery
    logic (see compact_index's swap recovery).

    Returns ``(cfg, stored_tok, state)``."""
    if not os.path.exists(os.path.join(build_dir, "config.json")):
        raise ValueError(
            f"{build_dir} is not an index (missing config.json); "
            "run build_index first"
        )
    stored = BuildState(build_dir, {}).read_sidecar("config.json")
    stored_tok = stored.pop("tokenizer", "default")
    if stored.pop("extra_stages", []):
        raise ValueError(
            f"{op_name} on an index built with extra_stages is not supported "
            "(the custom stages cannot be reconstructed from disk); rebuild "
            "over the corpus instead"
        )
    cfg = BuildConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in stored.items()}
    )
    state = BuildState(build_dir, {**asdict(cfg), "tokenizer": stored_tok})
    if state.read_manifest("docvec") is None or state.read_manifest("stats") is None:
        raise ValueError(f"{build_dir} is not a complete index; run build_index first")
    return cfg, stored_tok, state


def _begin_maintenance(
    build_dir: str, op_name: str, inputs: list[str], tok_id: str | None = None
) -> tuple[BuildConfig, str, BuildState, StageManifest]:
    """Preamble of update_index and delete_docs: load the stored config,
    check the tokenizer (``tok_id``, update only) and the docvec
    fingerprint, absorb a crashed update's orphan deltas, and open the
    next ``update-k``/``delete-k`` manifest.  Returns ``(cfg, stored_tok,
    state, m)``.

    Both checks run before any write (ADVICE r2): a full re-encode's inner
    build_index reconstructs the docvec fingerprint WITHOUT the original
    tokenizer/extra_stages objects, and on a mismatch would re-run docvec
    over the empty placeholder corpus AFTER segments and stats were
    clobbered, stranding the index half-updated."""
    cfg, stored_tok, state = _load_stored_state(build_dir, op_name)
    if tok_id is not None and tok_id != stored_tok:
        raise ValueError(
            f"tokenizer mismatch: index was built with {stored_tok!r}, "
            f"{op_name} called with {tok_id!r}"
        )
    if not state.is_complete("docvec", _docvec_hash(cfg, stored_tok, [])):
        raise ValueError(
            f"{op_name} cannot reconstruct this index's docvec stage "
            "fingerprint from config.json (custom tokenizer/stages?) — the "
            "re-encode would re-ingest an empty corpus; rebuild instead"
        )
    _absorb_orphan_deltas(state)
    kind = op_name.split("_")[0]  # update_index → update-k, delete_docs → delete-k
    k = 0
    while state.read_manifest(f"{kind}-{k}") is not None:
        k += 1
    m = state.begin(
        f"{kind}-{k}", inputs=inputs, upstream=["docvec", "stats", "segments"]
    )
    return cfg, stored_tok, state, m


def _rewrite_window(
    state: BuildState,
    cfg: BuildConfig,
    stored_tok: str,
    m: StageManifest,
    newly_dead: np.ndarray,
    dead_buckets: set[int],
    delta_dir: str | None = None,
    base: int | None = None,
) -> None:
    """The crash-ordered maintenance window of update_index and
    delete_docs: tombstone ``newly_dead`` (for an update, next to the delta
    already in ``delta_dir`` with ids from ``base``), recompute stats from
    the checkpoint (exact integer sums, never incremented from a possibly
    already-bumped stats.json, so a crash rerun is idempotent) and
    re-encode segments; records ``reencode_mode``, ``affected_buckets``
    (partial only), ``new_n_docs``, ``total_tombstones`` and
    ``delta_tokens`` (net live-token change) in ``m.metrics``.

    The re-encode is BUCKET-SCOPED: only the buckets of the dead docs'
    terms (``dead_buckets``), of the delta's terms and of unpaid debt are
    rewritten.  It falls back to the full re-encode when the index is
    doc-sharded (id_space growth shifts every posting's doc-range shard),
    avgdl drifted past _BM_SLACK_LIMIT, the debt scope is unknown, or the
    scope covers every bucket anyway.  The writes are bucket-scoped; the
    reads are not (the stats aggregate and the caller's probe each scan
    the whole checkpoint, column-pruned)."""
    build_dir = state.build_dir
    docvec_dir = state.stage_dir("docvec")
    prior = _read_tombstones(build_dir)
    dead = np.union1d(prior, newly_dead)

    # ---- decide the re-encode scope BEFORE the window opens ----------------
    # (pure reads: new stats values, avgdl-drift check, affected buckets —
    # so the debt record written below names every bucket this op may leave
    # half-updated if it crashes)
    n_docs, total = _live_stats(
        ray.data.read_parquet(docvec_dir, columns=["doc_id", "doc_len"]), dead
    )
    if n_docs == 0:
        raise ValueError(f"{m.stage} would empty the index; rebuild instead")
    stats = state.read_sidecar("stats.json")
    old_total = int(stats["total_tokens"])
    new_avgdl = float(total) / n_docs
    lo2 = min(float(stats.get("bm_avgdl_lo") or new_avgdl), new_avgdl)
    hi2 = max(float(stats.get("bm_avgdl_hi") or new_avgdl), new_avgdl)
    debt, _ = _read_reencode_debt(build_dir)
    scope: set[int] | None = None
    if debt is not None and not cfg.doc_shards and hi2 <= lo2 * _BM_SLACK_LIMIT:
        # the delta scan is skipped entirely when debt or drift already
        # forces a full re-encode (debt None = unknown scope)
        scope = dead_buckets | debt
        if delta_dir is not None:
            # the delta's term buckets, reduced per batch: only ints shuffle
            parts = ray.data.read_parquet(delta_dir, columns=["terms"]).map_batches(
                lambda t, _n=cfg.n_buckets: _terms_to_buckets(t, _n),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            scope |= {int(b) for b in parts.unique("bucket")}
    id_space = _parquet_rows(docvec_dir)  # includes the delta
    if base is None:
        # decoded postings with ids past the live id space are ghosts from
        # a crashed, since-absorbed delta — dropped
        base = id_space

    # ---- open the window: record debt, then invalidate segments -----------
    # Ordering is load-bearing (crash safety): the debt file is written
    # FIRST so a crash followed by a DIFFERENT maintenance op still
    # re-encodes this op's buckets; the segments manifest is deleted before
    # stats/tombstones so a crash leaves an index that resume treats as
    # segments-incomplete (ScorerActor refuses to serve it) rather than one
    # whose block-max bounds were baked under the old avgdl — WAND/BMW
    # could silently mis-prune.
    # window_dead (updates only) = the ids THIS window newly tombstones:
    # absorbing the uncommitted delta resurrects them, and ids already dead
    # from committed ops must never be resurrected.  A crashed delete's
    # tombstones are kept (the deletion is idempotent and user-intended).
    window_dead = None if delta_dir is None else np.setdiff1d(newly_dead, prior)
    _write_reencode_debt(build_dir, scope, window_dead)
    seg_manifest = os.path.join(build_dir, "manifests", "segments.json")
    if os.path.exists(seg_manifest):
        os.remove(seg_manifest)
    if dead.size:
        _write_tombstones(build_dir, dead)
    stats.update(n_docs=n_docs, total_tokens=total, avgdl=new_avgdl, id_space=id_space)
    state.write_sidecar("stats.json", stats)

    # ---- re-encode segments: bucket-scoped when the scope allows ---------
    if scope is not None and len(scope) < cfg.n_buckets:
        _set_encode_avgdl(state, lo2, hi2)
        sm = state.begin(
            "segments", inputs=[docvec_dir], upstream=["docvec", "stats"],
            cfg_hash=state.cfg_hash,
        )
        _partial_reencode_segments(
            state, cfg, scope, dead, delta_dir, base, sm.metrics
        )
        sm.rows_out = _parquet_rows(state.stage_dir("segments"))
        state.commit(sm)
        m.metrics.update(reencode_mode="partial", affected_buckets=len(scope))
    else:
        # sweep a crashed partial run's tmp dir: the full encode cleans only
        # stage=segments, and a stale .partial would otherwise persist.
        # _tok_id keeps the stored tokenizer identity (the fingerprint was
        # checked up front), so config.json is rewritten unchanged.
        shutil.rmtree(state.stage_dir("segments") + ".partial", ignore_errors=True)
        # docvec complete → the empty corpus is never touched
        build_index(ray.data.from_items([]), build_dir, cfg, _tok_id=stored_tok)
        m.metrics["reencode_mode"] = "full"
    _clear_reencode_debt(build_dir)  # window closed: segments consistent
    m.metrics.update(
        new_n_docs=n_docs, total_tombstones=int(dead.size), delta_tokens=total - old_total
    )


def delete_docs(build_dir: str, keys: list[tuple[str, str]]) -> BuildState:
    """Delete documents by (repo, path) from an existing index: matching
    docs are tombstoned, stats are recomputed over the survivors, and the
    term buckets of the deleted docs' terms are re-encoded, through the
    same crash-ordered window as overwrite updates (see _rewrite_window).
    Rerunning the same delete is a no-op: when every matched doc is
    already tombstoned and no re-encode debt is unpaid, the window is not
    opened at all (``reencode_mode: "none"``).  A crashed delete's rerun
    still opens it, because its debt is still recorded.
    """
    cfg, stored_tok, state, m = _begin_maintenance(
        build_dir, "delete_docs", ["delete-keys"]
    )
    key_set = pa.array([f"{r}\x00{p}" for r, p in keys], pa.string())
    matched, dead_buckets = _probe_keys(state, cfg.n_buckets, key_set)
    if (
        _read_reencode_debt(build_dir)[0] == set()
        and state.read_manifest("segments") is not None
        and not np.setdiff1d(matched, _read_tombstones(build_dir)).size
    ):
        m.metrics["reencode_mode"] = "none"
    else:
        _rewrite_window(state, cfg, stored_tok, m, matched, dead_buckets)
    m.rows_out = m.metrics["deleted_docs"] = int(matched.size)
    state.commit(m)
    return state


def update_index(
    build_dir: str,
    new_corpus: ray.data.Dataset,
    tokenizer=None,
) -> BuildState:
    """Incremental build (SURVEY.md U1): append a delta corpus to an
    existing index WITHOUT re-tokenizing the existing documents.

    Semantics: delta docs get fresh ids appended after the existing id
    space (old ids are stable — resume/rank determinism preserved); a live
    doc whose (repo, path) re-appears in the delta is superseded
    (tombstoned); stats are recomputed exactly and only the term buckets
    the delta or the superseded docs touch are re-encoded (see
    _rewrite_window: bucket-scoped writes, whole-checkpoint reads).
    Untouched buckets keep block maxes from an older avgdl; the scorer's
    bm_avgdl_lo slack keeps WAND/BMW bounds valid.  Query results are
    exactly what a from-scratch build over old∪new would score (doc ids
    aside).  The update is recorded as an ``update-<k>`` manifest with the
    delta's lineage.

    ``tokenizer`` must match the original build's (§2.11 hook, default
    code-aware tokenizer).
    """
    import pyarrow.parquet as pq

    cfg, stored_tok, state, m = _begin_maintenance(
        build_dir, "update_index", ["delta-corpus"], _tokenizer_id(tokenizer)
    )

    # ---- crash-idempotent delta ingest ------------------------------------
    # The delta lands in its OWN subdir of the docvec checkpoint, which is
    # wiped first: a rerun after a crash re-derives the doc-id base from the
    # remaining files and overwrites the partial delta — no duplicate docs,
    # no duplicate ids.
    docvec_dir = state.stage_dir("docvec")
    delta_dir = os.path.join(docvec_dir, m.stage)
    _clean_dir(delta_dir)
    base = _parquet_rows(docvec_dir)
    _ingest_termvecs(new_corpus, cfg, tokenizer, base=base).write_parquet(delta_dir)
    delta_rows = _parquet_rows(delta_dir)

    # ---- delta rows SUPERSEDE same-(repo, path) docs -----------------------
    # Overwrite semantics: the superseded doc's id stays allocated, its
    # postings are dropped by the re-encode and stats exclude it.  The
    # dead-id set is bounded by the DELTA size, so collecting it on the
    # driver is safe at any corpus size.  Idempotent on crash-rerun: the
    # same delta yields the same ids and the tombstone union absorbs
    # duplicates.
    delta_keys = _path_keys(pq.read_table(delta_dir, columns=["repo", "path"]))
    superseded, dead_buckets = _probe_keys(state, cfg.n_buckets, delta_keys)
    _rewrite_window(
        state, cfg, stored_tok, m, superseded, dead_buckets, delta_dir, base
    )
    m.rows_out = delta_rows
    m.metrics.update(
        delta_docs=delta_rows, superseded_docs=int(superseded.size), delta_dir=m.stage
    )
    state.commit(m)
    return state


def _survivor_termvecs(states: list[BuildState]) -> tuple[ray.data.Dataset, int]:
    """Surviving term vectors of every index in ``states`` with dense doc
    ids reassigned from 0 by the build's own (repo, path, commit) sort —
    the docvec input of compact_index's and merge_indexes' fresh builds.
    Returns ``(termvecs, n_dropped)``, the number of tombstones dropped.

    Committed files only: an orphan ``update-k`` delta (crashed pre-window
    update_index — no manifest, no pending file, segments intact) must not
    leak in; compact_index absorbs its own orphans first, and merge's
    inputs are not ours to mutate."""
    import pyarrow.parquet as pq

    from .util import drop_empty_blocks

    parts, n_dropped, first = [], 0, None
    for state in states:
        files = _committed_docvec_files(state)
        first = first or files[0]
        dead = _read_tombstones(state.build_dir)
        n_dropped += int(dead.size)
        dv = ray.data.read_parquet(files)
        if dead.size:
            dv = dv.map_batches(
                _drop_dead_fn(dead), batch_format="pyarrow", zero_copy_batch=True
            )
        parts.append(dv.drop_columns(["doc_id"]))
    merged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    # the dead-filter can empty whole blocks, and Ray stores those
    # schema-less — heal before the id sort so no schema-less empty can
    # poison the sorted dataset's schema (pipelines/util.py containment).
    # Schema comes from a COMMITTED file (a torn orphan parquet could fail
    # or mislead the footer read).
    schema = pa.schema([f for f in pq.read_schema(first) if f.name != "doc_id"])
    return assign_doc_ids(drop_empty_blocks(merged, schema), base=0), n_dropped


def compact_index(build_dir: str) -> BuildState:
    """Compact an index after incremental updates/deletes: drop tombstoned
    rows from the docvec checkpoint, reassign dense doc ids, and rebuild
    stats + segments from the SURVIVING term vectors — equivalent to a
    fresh build over the surviving corpus (tested bit-equal, ids included:
    the id sort keys survive in the checkpoint) WITHOUT re-running the
    ingest/tokenize pass, which is the expensive stage at corpus scale.

    Reclaims the dead rows' checkpoint space, resets ``id_space`` to
    ``n_docs`` (the dense DAAT accumulator and doc-range salt math size by
    id_space, so a long overwrite history degrades both until compaction),
    and resets the block-max avgdl slack, re-arming bucket-scoped
    incremental updates that had drifted toward the full-re-encode
    fallback.

    Crash-safe via shadow-dir + swap: the compacted index is built next to
    the live one (``<build_dir>.compact``) and swapped in with two renames;
    the live index serves unmodified until the swap, a crash before it
    leaves the original untouched (a rerun restarts cleanly), and a crash
    between the renames is healed by the recovery branch below on the next
    call.  No tombstones exist afterwards.
    """
    old_dir = build_dir + ".old"
    tmp_dir = build_dir + ".compact"
    if os.path.isdir(old_dir) and not os.path.exists(
        os.path.join(build_dir, "config.json")
    ):
        # crash between the two swap renames: the original is intact under
        # .old — restore it and fall through to a normal (re)compaction.
        # Keyed on config.json, NOT on the directory's existence: a failed
        # maintenance call in the crash window leaves a manifests/ skeleton
        # (BuildState constructor side effect) that must not mask recovery.
        shutil.rmtree(build_dir, ignore_errors=True)
        os.rename(old_dir, build_dir)

    # ---- validation (same contract as delete_docs, before any write) ------
    cfg, stored_tok, state = _load_stored_state(build_dir, "compact_index")
    # the live index is valid here, so any surviving .old (crash after the
    # swap completed, before its cleanup rmtree) or .compact (aborted
    # shadow build) is garbage — sweep it on every call, including no-ops
    shutil.rmtree(old_dir, ignore_errors=True)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    # crashed-update deltas never committed: drop them before the survivor
    # scan below reads the checkpoint (their buckets land in the debt file,
    # which the swap discards along with the fully re-encoded segments)
    _absorb_orphan_deltas(state)

    dead = _read_tombstones(build_dir)
    # no-op ONLY when the index is healthy: with the segments manifest
    # missing or debt unpaid (a crashed maintenance window), compaction
    # must proceed — its full shadow re-encode + swap is the heal — else
    # "compact to recover" would return success and leave the index
    # unservable (ScorerActor refuses a manifest-less index)
    if dead.size == 0 and _healthy(build_dir):
        return state  # nothing tombstoned — the index is already compact

    # ---- survivor term vectors, ids reassigned densely --------------------
    survivors, n_dropped = _survivor_termvecs([state])

    # ---- shadow build (stats + segments from the given termvecs) ----------
    build_index(
        ray.data.from_items([]),  # unused: _termvecs supplies the stage
        tmp_dir,
        cfg,
        resume=False,
        _tok_id=stored_tok,
        _termvecs=survivors,
    )

    # ---- swap --------------------------------------------------------------
    shutil.rmtree(old_dir, ignore_errors=True)
    os.rename(build_dir, old_dir)
    os.rename(tmp_dir, build_dir)
    shutil.rmtree(old_dir, ignore_errors=True)

    new_state = BuildState(build_dir, {**asdict(cfg), "tokenizer": stored_tok})
    # always compact-0: the swap replaces the whole directory, so prior
    # maintenance manifests (update-k/delete-k/compact-0) are deliberately
    # discarded with the old id space they describe — compaction is the
    # history reset point
    m = new_state.begin(
        "compact-0",
        inputs=[state.stage_dir("docvec")],
        upstream=["docvec", "stats", "segments"],
    )
    m.rows_out = int(new_state.read_sidecar("stats.json")["n_docs"])
    m.metrics = {
        "dropped_tombstones": n_dropped,
        "n_docs": m.rows_out,
    }
    new_state.commit(m)
    return new_state


def merge_indexes(build_dirs: list[str], out_dir: str) -> BuildState:
    """Merge N built indexes into a fresh one at ``out_dir`` — the
    Lucene-style segment-merge surface: combine separately-built shards
    (per-source crawls, per-month batches) into one servable index
    WITHOUT re-running the ingest/tokenize pass, which is the expensive
    stage at corpus scale.

    Semantics: bit-equal to a fresh ``build_index`` over the concatenation
    of every input's SURVIVING corpus (each input's tombstones are dropped
    while reading its checkpoint; dense doc ids are reassigned by the same
    (repo, path, commit) sort, so the id → document map is identical to
    the fresh build's).  Documents sharing a (repo, path) across inputs
    are all kept — conflict resolution is ``update_index``'s overwrite
    job, not the merge's.

    Requirements: every input must be a healthy index (complete manifests,
    no crashed-maintenance debt — run ``compact_index`` to heal first) and
    all configs must be identical (tokenizer, langs, positions, scoring
    and layout knobs) — merging indexes tokenized differently cannot be
    correct without re-tokenizing.

    Crash behavior: ``out_dir`` is built fresh and never serves until its
    manifests commit (ScorerActor refuses an incomplete index); the inputs
    are never written to.  A crashed merge leaves a ``merge_in_progress``
    marker in ``out_dir`` (written before the first byte of output,
    removed after the merge manifest commits): a rerun wipes the debris
    and rebuilds from scratch, while a genuine pre-existing index (no
    marker) is still refused.

    Scale shape: the only data motion is one read of each input's docvec
    checkpoint (already tokenized term vectors), the id-assign sort (a
    key-only all-to-all, content never enters it) and the packed posting
    shuffle of the normal segments stage — exactly the fresh-build plan
    minus tokenization.
    """
    if len(build_dirs) < 2:
        raise ValueError("merge_indexes needs at least two input indexes")
    marker = os.path.join(out_dir, "merge_in_progress.json")
    if os.path.exists(marker):
        # crashed merge: the marker outlives any partial build output —
        # wipe the debris and rebuild from scratch (inputs were never
        # touched, so this is always safe)
        shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(os.path.join(out_dir, "config.json")):
        raise ValueError(f"output {out_dir} is already an index; refusing to overwrite")

    # ---- validate all inputs up front (no writes until all pass) ----------
    loaded = []  # (cfg, tokenizer id, state) per input
    for d in build_dirs:
        loaded.append(_load_stored_state(d, "merge_indexes"))
        if not _healthy(d):
            raise ValueError(
                f"{d} has a crashed maintenance window or incomplete segments; "
                "run compact_index on it before merging"
            )
    states = [st for _, _, st in loaded]
    base_cfg, base_tok = asdict(loaded[0][0]), loaded[0][1]
    for d, (cfg, tok, _) in zip(build_dirs[1:], loaded[1:]):
        if asdict(cfg) != base_cfg or tok != base_tok:
            raise ValueError(
                f"config mismatch: {d} was built with different settings "
                f"({asdict(cfg)}, tokenizer={tok!r}) than {build_dirs[0]} "
                f"({base_cfg}, tokenizer={base_tok!r}); merge requires "
                "identical configs"
            )

    # ---- union of surviving term vectors, ids reassigned densely ----------
    termvecs, n_dropped = _survivor_termvecs(states)

    # ---- fresh build (stats + segments from the merged termvecs) ----------
    # marker BEFORE the first output byte: a crash anywhere below leaves
    # it in place, and the rerun's debris sweep above handles the rest
    import json as _json

    os.makedirs(out_dir, exist_ok=True)
    with open(marker, "w") as f:
        _json.dump({"inputs": build_dirs}, f)

    state = build_index(
        ray.data.from_items([]),  # unused: _termvecs supplies the stage
        out_dir,
        loaded[0][0],
        resume=False,
        _tok_id=base_tok,
        _termvecs=termvecs,
    )

    m = state.begin(
        "merge-0",
        inputs=[s.stage_dir("docvec") for s in states],
        upstream=["docvec", "stats", "segments"],
    )
    m.rows_out = int(state.read_sidecar("stats.json")["n_docs"])
    m.metrics = {
        "n_inputs": len(build_dirs),
        "dropped_tombstones": n_dropped,
        "n_docs": m.rows_out,
    }
    state.commit(m)
    os.remove(marker)
    return state
