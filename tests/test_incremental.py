"""Incremental index builds (SURVEY.md U1): update_index appends a delta
corpus without re-tokenizing existing docs, and queries against the updated
index score EXACTLY like a from-scratch build over the union (doc-id
assignment aside — ids are compared through (repo, path) identity)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from sharesci_ray.pipelines.build import BuildConfig, build_index, update_index
from sharesci_ray.pipelines.query import ScorerActor
from sharesci_ray.sources.corpus import corpus_from_table
from sharesci_ray.sources.synth import make_corpus, make_queries

N_ALL = 300
N_OLD = 200


@pytest.fixture(scope="module")
def corpora():
    full = make_corpus(N_ALL, seed=77)
    return full, full.slice(0, N_OLD), full.slice(N_OLD)


def _path_map(build_dir: str) -> dict[int, tuple]:
    import glob

    t = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "repo", "path"])
        for f in glob.glob(f"{build_dir}/stage=docvec/**/*.parquet", recursive=True)
    )
    return {
        d: (r, p)
        for d, r, p in zip(
            t["doc_id"].to_pylist(), t["repo"].to_pylist(), t["path"].to_pylist()
        )
    }


def test_incremental_equals_full_build(ray_session, corpora, tmp_path_factory):
    full, old, delta = corpora
    d_full = str(tmp_path_factory.mktemp("full"))
    d_incr = str(tmp_path_factory.mktemp("incr"))
    cfg = BuildConfig(n_buckets=8)
    build_index(corpus_from_table(full), d_full, cfg, resume=False)
    build_index(corpus_from_table(old), d_incr, cfg, resume=False)
    state = update_index(d_incr, corpus_from_table(delta))

    # exact stats equality (integer-sum update == recompute)
    import json

    with open(f"{d_full}/stats.json") as f:
        s_full = json.load(f)
    with open(f"{d_incr}/stats.json") as f:
        s_incr = json.load(f)
    assert s_full["n_docs"] == s_incr["n_docs"] == N_ALL
    assert s_full["total_tokens"] == s_incr["total_tokens"]
    assert s_full["avgdl"] == s_incr["avgdl"]  # bit-equal: same int sums

    # update manifest records the delta lineage
    man = state.read_manifest("update-0")
    assert man["metrics"]["delta_docs"] == N_ALL - N_OLD
    assert man["metrics"]["new_n_docs"] == N_ALL

    # rank/score equality through (repo, path) identity
    pm_full, pm_incr = _path_map(d_full), _path_map(d_incr)
    s_f = ScorerActor(d_full, k=10, scorer="daat")
    s_i = ScorerActor(d_incr, k=10, scorer="daat")
    queries = make_queries(30, seed=91)["text"].to_pylist()
    for q in queries:
        df_, sf_ = s_f.score_query(q)
        di_, si_ = s_i.score_query(q)
        assert sf_.size == si_.size, q
        # scores are bit-identical (same stats, same summation order); the
        # hit multiset maps to the same documents
        assert (np.sort(sf_)[::-1] == np.sort(si_)[::-1]).all(), q
        assert sorted(pm_full[d] for d in df_) == sorted(pm_incr[d] for d in di_), q


@pytest.mark.parametrize("doc_shards", [None, 2], ids=["unsharded", "sharded"])
def test_update_overwrites_changed_path(ray_session, tmp_path_factory, doc_shards):
    """Tombstone semantics: re-ingesting a changed (repo, path) supersedes
    the old doc — queries return ONLY the new version, stats exclude the
    dead doc, and the updated index scores exactly like a fresh build over
    the post-overwrite corpus.  A doc-sharded index always takes the full
    re-encode, and config.json comes through the op byte-identical."""
    import json

    from sharesci_ray.functions.text import tokenize
    from sharesci_ray.pipelines.build import _read_tombstones

    base = make_corpus(80, seed=123)
    d_incr = str(tmp_path_factory.mktemp("tomb_incr"))
    d_full = str(tmp_path_factory.mktemp("tomb_full"))
    cfg = BuildConfig(n_buckets=8, doc_shards=doc_shards)
    build_index(corpus_from_table(base), d_incr, cfg, resume=False)
    config_before = Path(d_incr, "config.json").read_bytes()

    # delta: same (repo, path) as base row 5, brand-new content
    row = base.slice(5, 1).to_pydict()
    old_content = row["content"][0]
    row["content"] = ["freshoverwrite uniquenewbody replacement text"]
    delta = pa.Table.from_pydict(row, schema=base.schema)
    state = update_index(d_incr, corpus_from_table(delta, parallelism=1))
    metrics = state.read_manifest("update-0")["metrics"]
    assert metrics["superseded_docs"] == 1
    if doc_shards:
        assert metrics["reencode_mode"] == "full"
    assert Path(d_incr, "config.json").read_bytes() == config_before

    dead = _read_tombstones(d_incr)
    assert dead.size == 1
    with open(f"{d_incr}/stats.json") as f:
        s = json.load(f)
    assert s["n_docs"] == 80  # one superseded + one added
    assert s["id_space"] == 81  # ids never reused

    sc = ScorerActor(d_incr, k=10, scorer="daat")
    ids, _ = sc.score_query("freshoverwrite uniquenewbody")
    assert ids.size == 1 and ids[0] not in dead
    # the dead doc must be unreachable through any of its old terms
    for q in sorted(set(tokenize(old_content)))[:8]:
        hit, _ = sc.score_query(q)
        assert dead[0] not in hit, q

    # equivalence with a fresh build over the post-overwrite corpus
    post = base.to_pydict()
    post["content"] = [
        row["content"][0] if i == 5 else c for i, c in enumerate(post["content"])
    ]
    build_index(
        corpus_from_table(pa.Table.from_pydict(post, schema=base.schema)),
        d_full,
        cfg,
        resume=False,
    )
    with open(f"{d_full}/stats.json") as f:
        s_full = json.load(f)
    assert s_full["n_docs"] == s["n_docs"]
    assert s_full["total_tokens"] == s["total_tokens"]
    assert s_full["avgdl"] == s["avgdl"]
    pm_full, pm_incr = _path_map(d_full), _path_map(d_incr)
    sf = ScorerActor(d_full, k=10, scorer="daat")
    for q in make_queries(20, seed=5)["text"].to_pylist() + ["freshoverwrite"]:
        df_, sfs = sf.score_query(q)
        di_, sis = sc.score_query(q)
        assert sfs.size == sis.size, q
        assert (np.sort(sfs)[::-1] == np.sort(sis)[::-1]).all(), q
        assert sorted(pm_full[d] for d in df_) == sorted(pm_incr[d] for d in di_), q


def test_update_overwrite_crash_rerun(ray_session, tmp_path_factory):
    """Crash-window rerun with tombstones: rerunning the same overwrite
    update must not double-tombstone or duplicate docs."""
    import json
    import os

    from sharesci_ray.pipelines.build import _read_tombstones

    base = make_corpus(60, seed=321)
    d = str(tmp_path_factory.mktemp("tomb_crash"))
    build_index(corpus_from_table(base), d, BuildConfig(n_buckets=8), resume=False)
    row = base.slice(3, 1).to_pydict()
    row["content"] = ["overwrittenagain body"]
    delta = pa.Table.from_pydict(row, schema=base.schema)
    update_index(d, corpus_from_table(delta, parallelism=1))
    os.remove(os.path.join(d, "manifests", "update-0.json"))
    seg = os.path.join(d, "manifests", "segments.json")
    if os.path.exists(seg):
        os.remove(seg)
    update_index(d, corpus_from_table(delta, parallelism=1))  # rerun
    assert _read_tombstones(d).size == 1
    with open(f"{d}/stats.json") as f:
        s = json.load(f)
    assert s["n_docs"] == 60
    assert s["id_space"] == 61


@pytest.mark.parametrize("doc_shards", [None, 2], ids=["unsharded", "sharded"])
def test_delete_docs_equals_fresh_build(ray_session, tmp_path_factory, doc_shards):
    """delete_docs tombstones by (repo, path); the resulting index scores
    exactly like a fresh build over the survivors, and a rerun of the same
    delete is a no-op.  A doc-sharded index always takes the full
    re-encode, and config.json comes through both deletes byte-identical."""
    import json

    from sharesci_ray.pipelines.build import _read_tombstones, delete_docs

    base = make_corpus(70, seed=555)
    d_del = str(tmp_path_factory.mktemp("del"))
    d_ref = str(tmp_path_factory.mktemp("del_ref"))
    cfg = BuildConfig(n_buckets=8, doc_shards=doc_shards)
    build_index(corpus_from_table(base), d_del, cfg, resume=False)
    config_before = Path(d_del, "config.json").read_bytes()

    victims = [3, 17]
    keys = [
        (base["repo"][i].as_py(), base["path"][i].as_py()) for i in victims
    ]
    state = delete_docs(d_del, keys)
    assert state.read_manifest("delete-0")["metrics"]["deleted_docs"] == 2
    assert _read_tombstones(d_del).size == 2
    # rerun: no-op, and the window is not opened at all
    seg_before = Path(d_del, "manifests", "segments.json").read_bytes()
    state2 = delete_docs(d_del, keys)
    assert state2.read_manifest("delete-1")["metrics"]["deleted_docs"] == 2
    assert _read_tombstones(d_del).size == 2
    assert state2.read_manifest("delete-1")["metrics"]["reencode_mode"] == "none"
    assert Path(d_del, "manifests", "segments.json").read_bytes() == seg_before
    if doc_shards:
        assert state2.read_manifest("delete-0")["metrics"]["reencode_mode"] == "full"
    assert Path(d_del, "config.json").read_bytes() == config_before

    keep = [i for i in range(70) if i not in victims]
    survivors = base.take(keep)
    build_index(corpus_from_table(survivors), d_ref, cfg, resume=False)
    with open(f"{d_del}/stats.json") as f:
        s_del = json.load(f)
    with open(f"{d_ref}/stats.json") as f:
        s_ref = json.load(f)
    assert s_del["n_docs"] == s_ref["n_docs"] == 68
    assert s_del["total_tokens"] == s_ref["total_tokens"]
    assert s_del["avgdl"] == s_ref["avgdl"]

    pm_del, pm_ref = _path_map(d_del), _path_map(d_ref)
    sd = ScorerActor(d_del, k=10, scorer="daat")
    sr = ScorerActor(d_ref, k=10, scorer="daat")
    dead = set(_read_tombstones(d_del).tolist())
    for q in make_queries(20, seed=9)["text"].to_pylist():
        dd_, sds = sd.score_query(q)
        dr_, srs = sr.score_query(q)
        assert not (set(dd_.tolist()) & dead), q
        assert sds.size == srs.size, q
        assert (np.sort(sds)[::-1] == np.sort(srs)[::-1]).all(), q
        assert sorted(pm_del[x] for x in dd_) == sorted(pm_ref[x] for x in dr_), q


def test_update_requires_complete_index(ray_session, corpora, tmp_path):
    _full, _old, delta = corpora
    with pytest.raises((ValueError, FileNotFoundError)):
        update_index(str(tmp_path / "nope"), corpus_from_table(delta))


def test_second_increment(ray_session, corpora, tmp_path_factory):
    full, old, delta = corpora
    d = str(tmp_path_factory.mktemp("incr2"))
    cfg = BuildConfig(n_buckets=8)
    build_index(corpus_from_table(old), d, cfg, resume=False)
    half = (N_ALL - N_OLD) // 2
    update_index(d, corpus_from_table(delta.slice(0, half)))
    state = update_index(d, corpus_from_table(delta.slice(half)))
    assert state.read_manifest("update-1") is not None
    import json

    with open(f"{d}/stats.json") as f:
        assert json.load(f)["n_docs"] == N_ALL


def test_update_crash_rerun_is_idempotent(ray_session, corpora, tmp_path_factory):
    """A rerun after a mid-update crash must not duplicate the delta: the
    delta lives in its own wiped-first subdir and stats are recomputed from
    the checkpoint (simulated by deleting the update manifest — the state a
    crash leaves behind after the delta files landed)."""
    import json
    import os

    full, old, delta = corpora
    d = str(tmp_path_factory.mktemp("crash"))
    cfg = BuildConfig(n_buckets=8)
    build_index(corpus_from_table(old), d, cfg, resume=False)
    update_index(d, corpus_from_table(delta))
    # simulate the crash window: delta files + bumped stats exist, but the
    # update never committed (and segments may be half-done)
    os.remove(os.path.join(d, "manifests", "update-0.json"))
    os.remove(os.path.join(d, "manifests", "segments.json"))
    state = update_index(d, corpus_from_table(delta))  # rerun of "update-0"
    with open(f"{d}/stats.json") as f:
        s = json.load(f)
    assert s["n_docs"] == N_ALL  # NOT N_ALL + len(delta) — no duplicates
    assert state.read_manifest("update-0")["metrics"]["new_n_docs"] == N_ALL


def test_resume_reruns_docvec_on_tokenizer_change(ray_session, corpora, tmp_path_factory):
    """A resumed build with a DIFFERENT tokenizer must re-tokenize, not
    silently reuse the old checkpoint (tokenizer id is in the stage hash)."""
    from sharesci_ray.functions.text import whitespace_flat_tokens
    from sharesci_ray.pipelines.query import ScorerActor

    _full, old, _delta = corpora
    d = str(tmp_path_factory.mktemp("tokswap"))
    cfg = BuildConfig(n_buckets=8)
    build_index(corpus_from_table(old), d, cfg, resume=False)
    # default tokenizer splits snake_case -> 'get_value90' becomes get/value
    s = ScorerActor(d, k=5, scorer="daat")
    assert s.score_query("value")[0].size > 0
    # resume with whitespace tokenizer: docvec must rebuild
    build_index(
        corpus_from_table(old), d, cfg, resume=True, tokenizer=whitespace_flat_tokens
    )
    from sharesci_ray.functions.text import whitespace_tokenize

    s2 = ScorerActor(d, k=5, scorer="daat", tokenize_fn=whitespace_tokenize)
    assert s2.score_query("get_value90")[0].size > 0  # unsplit token indexed


def test_update_rejects_tokenizer_mismatch(ray_session, corpora, tmp_path_factory):
    from sharesci_ray.functions.text import whitespace_flat_tokens

    _full, old, delta = corpora
    d = str(tmp_path_factory.mktemp("tokmismatch"))
    build_index(corpus_from_table(old), d, BuildConfig(n_buckets=8), resume=False)
    with pytest.raises(ValueError, match="tokenizer mismatch"):
        update_index(d, corpus_from_table(delta), tokenizer=whitespace_flat_tokens)


def test_segments_param_change_keeps_docvec(ray_session, corpora, tmp_path_factory):
    """Retuning a segments-only knob must NOT re-run the expensive docvec
    stage (per-stage config fingerprints)."""
    import json

    _full, old, _delta = corpora
    d = str(tmp_path_factory.mktemp("retune"))
    build_index(corpus_from_table(old), d, BuildConfig(n_buckets=8), resume=False)
    with open(f"{d}/manifests/docvec.json") as f:
        started_before = json.load(f)["started_unix"]
    import os

    os.remove(f"{d}/manifests/segments.json")
    build_index(corpus_from_table(old), d, BuildConfig(n_buckets=16, block_size=64), resume=True)
    with open(f"{d}/manifests/docvec.json") as f:
        assert json.load(f)["started_unix"] == started_before  # not re-run
    with open(f"{d}/stats.json") as f:
        assert json.load(f)["n_buckets"] == 16  # stats refreshed


def test_empty_corpus_fails_loudly(ray_session, tmp_path):
    from sharesci_ray.sources.synth import make_corpus

    with pytest.raises(ValueError, match="empty after ingest"):
        build_index(
            corpus_from_table(make_corpus(50, seed=3)),
            str(tmp_path / "empty"),
            BuildConfig(n_buckets=4, langs=("nosuchlang",)),
            resume=False,
        )


def _bucket_dirs_state(build_dir: str) -> dict[str, tuple]:
    """term_bucket partition dir → sorted (file, size, mtime_ns) tuples."""
    import glob
    import os

    out = {}
    for d in glob.glob(f"{build_dir}/stage=segments/term_bucket=*"):
        files = []
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            st = os.stat(f)
            files.append((os.path.basename(f), st.st_size, st.st_mtime_ns))
        out[os.path.basename(d)] = tuple(files)
    return out


def test_partial_reencode_touches_only_affected_buckets(ray_session, tmp_path_factory):
    """O(delta) contract: a single-doc delta whose vocabulary routes to one
    term bucket must rewrite ONLY that bucket's partition (<10% of segment
    files on a 16-bucket index), record reencode_mode=partial, and still
    score bit-identically to a fresh build over the union — on the
    exhaustive DAAT path AND the block-max WAND path (whose bounds for
    untouched buckets rely on the bm_avgdl_lo slack)."""
    base = make_corpus(120, seed=2024)
    d_incr = str(tmp_path_factory.mktemp("part_incr"))
    d_full = str(tmp_path_factory.mktemp("part_full"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(base), d_incr, cfg, resume=False)
    before = _bucket_dirs_state(d_incr)

    delta = pa.Table.from_pydict(
        {
            "repo": ["zzz/newrepo"],
            "path": ["src/zq.py"],
            "commit": ["deadbeef"],
            "lang": ["py"],
            "content": ["zqxwv zqxwv zqxwv zqxwv"],  # one distinct term
        },
        schema=base.schema,
    )
    state = update_index(d_incr, corpus_from_table(delta, parallelism=1))
    man = state.read_manifest("update-0")
    assert man["metrics"]["reencode_mode"] == "partial"
    assert man["metrics"]["affected_buckets"] == 1

    after = _bucket_dirs_state(d_incr)
    changed = {b for b in before | after.keys() if before.get(b) != after.get(b)}
    n_files = sum(len(v) for v in before.values())
    n_changed_files = sum(
        len(after.get(b, ())) + (len(before.get(b, ())) if b not in after else 0)
        for b in changed
    )
    assert len(changed) == 1, changed
    assert n_changed_files / max(n_files, 1) < 0.10

    # fresh build over the union: rank AND score equality on both scorers
    union = pa.concat_tables([base, delta])
    build_index(corpus_from_table(union), d_full, cfg, resume=False)
    pm_full, pm_incr = _path_map(d_full), _path_map(d_incr)
    for scorer in ("daat", "bmw"):
        s_f = ScorerActor(d_full, k=10, scorer=scorer)
        s_i = ScorerActor(d_incr, k=10, scorer=scorer)
        for q in make_queries(25, seed=77)["text"].to_pylist() + ["zqxwv"]:
            df_, sf_ = s_f.score_query(q)
            di_, si_ = s_i.score_query(q)
            assert sf_.size == si_.size, (scorer, q)
            assert (np.sort(sf_)[::-1] == np.sort(si_)[::-1]).all(), (scorer, q)
            assert sorted(pm_full[d] for d in df_) == sorted(
                pm_incr[d] for d in di_
            ), (scorer, q)


def test_partial_delete_rank_identity(ray_session, tmp_path_factory):
    """Deleting one low-vocabulary doc re-encodes only its buckets and the
    surviving index scores exactly like a fresh build over the survivors
    (DAAT bit-equal; BMW rank-identical under the avgdl slack)."""
    import glob as _glob

    base = make_corpus(100, seed=909)
    # append one tiny doc so the delete touches few buckets
    extra = pa.Table.from_pydict(
        {
            "repo": ["zzz/tiny"],
            "path": ["src/tiny.py"],
            "commit": ["cafecafe"],
            "lang": ["py"],
            "content": ["qvxzw qvxzw qvxzw"],
        },
        schema=base.schema,
    )
    corpus = pa.concat_tables([base, extra])
    d_del = str(tmp_path_factory.mktemp("pdel"))
    d_ref = str(tmp_path_factory.mktemp("pdel_ref"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(corpus), d_del, cfg, resume=False)
    before = _bucket_dirs_state(d_del)

    from sharesci_ray.pipelines.build import delete_docs

    state = delete_docs(d_del, [("zzz/tiny", "src/tiny.py")])
    assert state.read_manifest("delete-0")["metrics"]["reencode_mode"] == "partial"
    after = _bucket_dirs_state(d_del)
    changed = {b for b in before | after.keys() if before.get(b) != after.get(b)}
    assert 1 <= len(changed) <= 2, changed

    build_index(corpus_from_table(base), d_ref, cfg, resume=False)
    pm_del, pm_ref = _path_map(d_del), _path_map(d_ref)
    for scorer in ("daat", "bmw"):
        sd = ScorerActor(d_del, k=10, scorer=scorer)
        sr = ScorerActor(d_ref, k=10, scorer=scorer)
        for q in make_queries(20, seed=31)["text"].to_pylist() + ["qvxzw"]:
            dd_, sds = sd.score_query(q)
            dr_, srs = sr.score_query(q)
            assert sds.size == srs.size, (scorer, q)
            assert (np.sort(sds)[::-1] == np.sort(srs)[::-1]).all(), (scorer, q)
            assert sorted(pm_del[x] for x in dd_) == sorted(
                pm_ref[x] for x in dr_
            ), (scorer, q)


def test_compact_equals_fresh_build(ray_session, tmp_path_factory):
    """update(overwrite) + delete → compact: the compacted index is
    BIT-equal to a fresh build over the final corpus — same stats, same
    dense doc ids (sort keys survive the checkpoint), identical top-k ids
    AND scores — with no tombstones left, id_space re-densified, and the
    ingest/tokenize stage never re-run."""
    import json
    import os

    from sharesci_ray.pipelines.build import (
        _read_tombstones,
        compact_index,
        delete_docs,
    )

    base = make_corpus(80, seed=909)
    d_cmp = str(tmp_path_factory.mktemp("cmp"))
    d_ref = str(tmp_path_factory.mktemp("cmp_ref"))
    cfg = BuildConfig(n_buckets=8)
    build_index(corpus_from_table(base), d_cmp, cfg, resume=False)

    # overwrite one doc (tombstones the old row) and delete two others
    row = base.slice(5, 1).to_pydict()
    row["content"] = ["compactme replacement body entirely new tokens"]
    update_index(d_cmp, corpus_from_table(pa.table(row)))
    victims = [11, 42]
    delete_docs(d_cmp, [(base["repo"][i].as_py(), base["path"][i].as_py()) for i in victims])
    assert _read_tombstones(d_cmp).size == 3  # 1 overwritten + 2 deleted

    state = compact_index(d_cmp)
    assert _read_tombstones(d_cmp).size == 0
    s_cmp = state.read_sidecar("stats.json")
    assert s_cmp["n_docs"] == 78 and s_cmp["id_space"] == 78  # re-densified
    assert not os.path.isdir(d_cmp + ".compact") and not os.path.isdir(d_cmp + ".old")
    assert state.read_manifest("compact-0")["metrics"]["dropped_tombstones"] == 3

    # reference: fresh build over the final corpus
    keep = [i for i in range(80) if i not in (5, *victims)]
    final = pa.concat_tables([base.take(keep), pa.table(row)])
    build_index(corpus_from_table(final), d_ref, cfg, resume=False)
    with open(f"{d_ref}/stats.json") as f:
        s_ref = json.load(f)
    assert s_cmp["n_docs"] == s_ref["n_docs"]
    assert s_cmp["total_tokens"] == s_ref["total_tokens"]
    assert s_cmp["avgdl"] == s_ref["avgdl"]
    # identical dense id assignment → identical (doc_id → key) maps
    assert _path_map(d_cmp) == _path_map(d_ref)

    sc = ScorerActor(d_cmp, k=10, scorer="bmw")
    sr = ScorerActor(d_ref, k=10, scorer="bmw")
    for q in make_queries(25, seed=6)["text"].to_pylist() + ["compactme replacement"]:
        ic, scs = sc.score_query(q)
        ir, srs = sr.score_query(q)
        assert (ic == ir).all() and (scs == srs).all(), q

    # compact with nothing tombstoned: no-op, index untouched
    before = os.stat(f"{d_cmp}/stats.json").st_mtime_ns
    compact_index(d_cmp)
    assert os.stat(f"{d_cmp}/stats.json").st_mtime_ns == before

    # incremental update still works after compaction (slack re-armed)
    update_index(d_cmp, corpus_from_table(make_corpus(10, seed=31)))
    assert json.load(open(f"{d_cmp}/stats.json"))["n_docs"] == 88


def test_compact_crash_between_renames_recovers(ray_session, tmp_path_factory):
    """A crash between the two swap renames leaves the original under
    .old; the next compact_index call restores and completes."""
    import os
    import shutil

    from sharesci_ray.pipelines.build import (
        _read_tombstones,
        compact_index,
        delete_docs,
    )

    base = make_corpus(40, seed=111)
    d = str(tmp_path_factory.mktemp("crash"))
    cfg = BuildConfig(n_buckets=4)
    build_index(corpus_from_table(base), d, cfg, resume=False)
    delete_docs(d, [(base["repo"][0].as_py(), base["path"][0].as_py())])

    # simulate the crash window: build_dir renamed away, swap unfinished
    shutil.move(d, d + ".old")
    assert not os.path.isdir(d)
    state = compact_index(d)  # recovery branch restores, then compacts
    assert _read_tombstones(d).size == 0
    assert state.read_sidecar("stats.json")["n_docs"] == 39


def _rank_equal(d_a: str, d_b: str, n_queries: int = 15, seed: int = 4) -> None:
    """Assert two indexes score identically through (repo, path) identity."""
    pa_map, pb_map = _path_map(d_a), _path_map(d_b)
    sa = ScorerActor(d_a, k=10, scorer="daat")
    sb = ScorerActor(d_b, k=10, scorer="daat")
    for q in make_queries(n_queries, seed=seed)["text"].to_pylist():
        ia, va = sa.score_query(q)
        ib, vb = sb.score_query(q)
        assert va.size == vb.size, q
        assert (np.sort(va)[::-1] == np.sort(vb)[::-1]).all(), q
        assert sorted(pa_map[x] for x in ia) == sorted(pb_map[x] for x in ib), q


def test_crash_then_different_op_pays_reencode_debt(
    ray_session, tmp_path_factory, monkeypatch
):
    """A crash INSIDE the partial re-encode window followed by a DIFFERENT
    maintenance op must still heal the crashed op's state: the debt file
    unions into the follow-up's scope and the orphan delta is dropped
    (an update that never committed never happened).

    Scenario: update A (new tiny-vocab doc → partial path) crashes
    mid-window with zero buckets swapped → delete_docs of an unrelated key
    runs next → the index must score exactly like a fresh build over
    (original − deleted), with A absent."""
    import os

    from sharesci_ray.pipelines import build as B
    from sharesci_ray.pipelines.build import delete_docs

    base = make_corpus(60, seed=808)
    d = str(tmp_path_factory.mktemp("debt"))
    d_ref = str(tmp_path_factory.mktemp("debt_ref"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    delta_a = pa.Table.from_pydict(
        {
            "repo": ["zzz/crash"], "path": ["a.py"], "commit": ["c0"],
            "lang": ["py"], "content": ["zzcrasha zzcrasha zzcrasha"],
        },
        schema=base.schema,
    )

    real = B._partial_reencode_segments

    def crash_before_swap(*a, **k):
        raise RuntimeError("injected crash before any bucket swap")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash_before_swap)
    with pytest.raises(RuntimeError, match="injected crash"):
        update_index(d, corpus_from_table(delta_a, parallelism=1))
    monkeypatch.setattr(B, "_partial_reencode_segments", real)

    # mid-window state: debt recorded, segments manifest gone
    assert os.path.exists(os.path.join(d, "pending_reencode.json"))
    assert not os.path.exists(os.path.join(d, "manifests", "segments.json"))

    # DIFFERENT op: delete doc 7
    key7 = [(base["repo"][7].as_py(), base["path"][7].as_py())]
    delete_docs(d, key7)
    assert not os.path.exists(os.path.join(d, "pending_reencode.json"))
    assert os.path.exists(os.path.join(d, "manifests", "segments.json"))
    # A's orphan delta dir was absorbed (removed)
    assert not os.path.isdir(os.path.join(d, "stage=docvec", "update-0"))

    # reference: fresh build over original − doc 7 (A never committed)
    survivors = base.take([i for i in range(60) if i != 7])
    build_index(corpus_from_table(survivors), d_ref, cfg, resume=False)
    _rank_equal(d, d_ref)
    s = ScorerActor(d, k=10, scorer="daat")
    assert s.score_query("zzcrasha")[0].size == 0  # A truly absent


def test_crash_then_different_delta_no_id_collision(
    ray_session, tmp_path_factory, monkeypatch
):
    """Crash mid-window on update A AFTER its buckets were swapped (A's
    postings are in the segment parquet), then update B with a DIFFERENT
    delta: B reuses A's id range once the orphan is absorbed, so A's
    swapped postings MUST be dropped — final index ≡ fresh build over
    original ∪ B, and A's distinctive term resolves to nothing."""
    from sharesci_ray.pipelines import build as B

    base = make_corpus(60, seed=909)
    d = str(tmp_path_factory.mktemp("idcol"))
    d_ref = str(tmp_path_factory.mktemp("idcol_ref"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    delta_a = pa.Table.from_pydict(
        {
            "repo": ["zzz/a"], "path": ["a.py"], "commit": ["c1"],
            "lang": ["py"], "content": ["xqueryalpha xqueryalpha"],
        },
        schema=base.schema,
    )
    delta_b = pa.Table.from_pydict(
        {
            "repo": ["zzz/b"], "path": ["b.py"], "commit": ["c2"],
            "lang": ["py"], "content": ["xquerybeta xquerybeta"],
        },
        schema=base.schema,
    )

    real = B._partial_reencode_segments

    def crash_after_swap(*a, **k):
        real(*a, **k)  # complete the swap, then die before the commit
        raise RuntimeError("injected crash after swap")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash_after_swap)
    with pytest.raises(RuntimeError, match="injected crash"):
        update_index(d, corpus_from_table(delta_a, parallelism=1))
    monkeypatch.setattr(B, "_partial_reencode_segments", real)

    update_index(d, corpus_from_table(delta_b, parallelism=1))

    # reference: original ∪ B; A never committed
    build_index(
        corpus_from_table(pa.concat_tables([base, delta_b])), d_ref, cfg,
        resume=False,
    )
    _rank_equal(d, d_ref)
    s = ScorerActor(d, k=10, scorer="daat")
    assert s.score_query("xqueryalpha")[0].size == 0  # A's postings purged
    assert s.score_query("xquerybeta")[0].size == 1


def test_crashed_overwrite_resurrects_superseded_doc(
    ray_session, tmp_path_factory, monkeypatch
):
    """A crashed OVERWRITE update tombstoned the original doc inside its
    window; absorbing the orphan must resurrect that tombstone — otherwise
    neither the original nor the replacement survives (silent doc loss)."""
    from sharesci_ray.pipelines import build as B
    from sharesci_ray.pipelines.build import _read_tombstones, delete_docs

    base = make_corpus(60, seed=717)
    d = str(tmp_path_factory.mktemp("resurrect"))
    d_ref = str(tmp_path_factory.mktemp("resurrect_ref"))
    cfg = BuildConfig(n_buckets=64)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    # delta A overwrites doc 3 → window tombstones doc 3
    row = base.slice(3, 1).to_pydict()
    row["content"] = ["replacement body that never commits"]
    delta_a = pa.Table.from_pydict(row, schema=base.schema)

    def crash(*a, **k):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        update_index(d, corpus_from_table(delta_a, parallelism=1))
    monkeypatch.undo()
    assert _read_tombstones(d).size == 1  # doc 3 tombstoned mid-window

    # DIFFERENT op absorbs the orphan → doc 3's tombstone is resurrected
    key7 = [(base["repo"][7].as_py(), base["path"][7].as_py())]
    delete_docs(d, key7)
    # only doc 7's tombstone remains
    assert _read_tombstones(d).size == 1

    survivors = base.take([i for i in range(60) if i != 7])  # doc 3 SURVIVES
    build_index(corpus_from_table(survivors), d_ref, cfg, resume=False)
    _rank_equal(d, d_ref)


@pytest.mark.parametrize("swapped", [False, True], ids=["before_swap", "after_swap"])
def test_crashed_delete_stays_deleted(
    ray_session, tmp_path_factory, monkeypatch, swapped
):
    """A delete window crashes inside its bucket-scoped re-encode (before
    any bucket swap, or after swapping the victim's buckets), then an
    update with an unrelated delta runs: a delete's tombstones are never
    resurrected, so the victim stays deleted; the update pays the crashed
    delete's debt; and the index ranks equal to a fresh build over
    (original − victim) ∪ delta."""
    import os

    from sharesci_ray.pipelines import build as B
    from sharesci_ray.pipelines.build import _read_tombstones, delete_docs

    base = make_corpus(60, seed=727)
    victim = pa.Table.from_pydict(
        {
            "repo": ["zzz/victim"], "path": ["v.py"], "commit": ["c5"],
            "lang": ["py"], "content": ["qqvictim qqvictim qqvictim"],
        },
        schema=base.schema,
    )
    delta = pa.Table.from_pydict(
        {
            "repo": ["zzz/new"], "path": ["n.py"], "commit": ["c6"],
            "lang": ["py"], "content": ["xxnewdoc xxnewdoc"],
        },
        schema=base.schema,
    )
    d = str(tmp_path_factory.mktemp("delcrash"))
    d_ref = str(tmp_path_factory.mktemp("delcrash_ref"))
    cfg = BuildConfig(n_buckets=64)
    build_index(corpus_from_table(pa.concat_tables([base, victim])), d, cfg, resume=False)

    real = B._partial_reencode_segments

    def crash(*a, **k):
        if swapped:
            real(*a, **k)
        raise RuntimeError("injected crash")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        delete_docs(d, [("zzz/victim", "v.py")])
    monkeypatch.undo()
    assert os.path.exists(os.path.join(d, "pending_reencode.json"))
    assert _read_tombstones(d).size == 1  # victim tombstoned mid-window

    st = update_index(d, corpus_from_table(delta, parallelism=1))
    # the debt (the victim's buckets) joined the update's partial scope
    assert st.read_manifest("update-0")["metrics"]["reencode_mode"] == "partial"
    assert not os.path.exists(os.path.join(d, "pending_reencode.json"))
    assert os.path.exists(os.path.join(d, "manifests", "segments.json"))
    assert _read_tombstones(d).size == 1  # not resurrected

    build_index(
        corpus_from_table(pa.concat_tables([base, delta])), d_ref, cfg,
        resume=False,
    )
    _rank_equal(d, d_ref)
    s = ScorerActor(d, k=10, scorer="daat")
    assert s.score_query("qqvictim")[0].size == 0
    assert s.score_query("xxnewdoc")[0].size == 1


def test_compact_heals_crashed_window(ray_session, tmp_path_factory, monkeypatch):
    """compact_index as the recovery tool: after a crashed update window
    with NO tombstones it must not no-op — the shadow rebuild + swap is
    the heal, restoring a servable index equal to the original."""
    import os

    from sharesci_ray.pipelines import build as B
    from sharesci_ray.pipelines.build import compact_index

    base = make_corpus(50, seed=818)
    d = str(tmp_path_factory.mktemp("compact_heal"))
    d_ref = str(tmp_path_factory.mktemp("compact_heal_ref"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    delta = pa.Table.from_pydict(
        {
            "repo": ["zz/new"], "path": ["n.py"], "commit": ["c9"],
            "lang": ["py"], "content": ["zzhealme zzhealme"],
        },
        schema=base.schema,
    )

    def crash(*a, **k):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        update_index(d, corpus_from_table(delta, parallelism=1))
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(d, "manifests", "segments.json"))

    compact_index(d)  # must heal, not early-return

    assert os.path.exists(os.path.join(d, "manifests", "segments.json"))
    assert not os.path.exists(os.path.join(d, "pending_reencode.json"))
    build_index(corpus_from_table(base), d_ref, cfg, resume=False)
    _rank_equal(d, d_ref)
    s = ScorerActor(d, k=10, scorer="daat")
    assert s.score_query("zzhealme")[0].size == 0


def test_crashed_overwrite_after_swap_restores_postings(
    ray_session, tmp_path_factory, monkeypatch
):
    """The hardest crash: an overwrite update tombstones doc X AND swaps
    X's buckets (postings removed from segments) before dying.  Absorption
    resurrects X's tombstone and must widen the debt to ALL buckets so the
    follow-up op's full re-encode restores X's postings from the
    checkpoint — a partial pass could not (segments no longer hold them)."""
    from sharesci_ray.pipelines import build as B
    from sharesci_ray.pipelines.build import delete_docs

    base = make_corpus(60, seed=611)
    d = str(tmp_path_factory.mktemp("swapres"))
    d_ref = str(tmp_path_factory.mktemp("swapres_ref"))
    cfg = BuildConfig(n_buckets=64)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    row = base.slice(3, 1).to_pydict()
    row["content"] = ["ephemeral replacement xyzzyqq"]
    delta_a = pa.Table.from_pydict(row, schema=base.schema)

    real = B._partial_reencode_segments

    def crash_after_swap(*a, **k):
        real(*a, **k)
        raise RuntimeError("injected crash after swap")

    monkeypatch.setattr(B, "_partial_reencode_segments", crash_after_swap)
    with pytest.raises(RuntimeError, match="injected crash"):
        update_index(d, corpus_from_table(delta_a, parallelism=1))
    monkeypatch.undo()

    key7 = [(base["repo"][7].as_py(), base["path"][7].as_py())]
    st = delete_docs(d, key7)
    # resurrection forced the full path (debt widened to all buckets)
    assert st.read_manifest("delete-0")["metrics"]["reencode_mode"] == "full"

    survivors = base.take([i for i in range(60) if i != 7])  # doc 3 restored
    build_index(corpus_from_table(survivors), d_ref, cfg, resume=False)
    _rank_equal(d, d_ref)
    s = ScorerActor(d, k=10, scorer="daat")
    assert s.score_query("xyzzyqq")[0].size == 0  # replacement truly gone


def test_mid_swap_crash_bucket_recovered_from_old_twin(
    ray_session, tmp_path_factory
):
    """Simulate a crash between the swap's two renames: a bucket dir parked
    at .old with the main dir missing must still be decodable by the next
    partial re-encode (the collection falls back to the .old twin)."""
    import glob
    import json
    import os

    base = make_corpus(80, seed=622)
    d = str(tmp_path_factory.mktemp("midswap"))
    d_ref = str(tmp_path_factory.mktemp("midswap_ref"))
    cfg = BuildConfig(n_buckets=16)
    build_index(corpus_from_table(base), d, cfg, resume=False)

    buckets = sorted(glob.glob(os.path.join(d, "stage=segments", "term_bucket=*")))
    victim = buckets[0]
    b = int(victim.rsplit("=", 1)[1])
    os.rename(victim, victim + ".old")  # park: main dir gone, .old holds data
    os.remove(os.path.join(d, "manifests", "segments.json"))
    with open(os.path.join(d, "pending_reencode.json"), "w") as f:
        json.dump({"buckets": [b], "window_dead": []}, f)

    delta = pa.Table.from_pydict(
        {
            "repo": ["zz/new"], "path": ["m.py"], "commit": ["c3"],
            "lang": ["py"], "content": ["zzmidswap zzmidswap"],
        },
        schema=base.schema,
    )
    st = update_index(d, corpus_from_table(delta, parallelism=1))
    assert st.read_manifest("update-0")["metrics"]["reencode_mode"] == "partial"
    assert not os.path.isdir(victim + ".old")  # trash swept after install

    build_index(
        corpus_from_table(pa.concat_tables([base, delta])), d_ref, cfg,
        resume=False,
    )
    _rank_equal(d, d_ref)


def test_merge_indexes_equals_fresh_build(ray_session, tmp_path_factory):
    """merge(build(A), build(B), build(C)) is BIT-equal to a fresh build
    over A+B+C — same stats, same dense id map, identical top-k ids and
    scores — without re-tokenizing, and with one input's tombstones
    dropped on the way in."""
    import json
    import os

    from sharesci_ray.pipelines.build import (
        _read_tombstones,
        delete_docs,
        merge_indexes,
    )

    full = make_corpus(150, seed=404)
    a, b, c = full.slice(0, 60), full.slice(60, 50), full.slice(110)
    dirs = []
    cfg = BuildConfig(n_buckets=8)
    for i, part in enumerate((a, b, c)):
        d = str(tmp_path_factory.mktemp(f"mrg_{i}"))
        build_index(corpus_from_table(part), d, cfg, resume=False)
        dirs.append(d)
    # tombstone two docs in shard B: the merge must drop them
    victims = [62, 70]
    delete_docs(dirs[1], [(full["repo"][i].as_py(), full["path"][i].as_py()) for i in victims])
    assert _read_tombstones(dirs[1]).size == 2

    d_out = str(tmp_path_factory.mktemp("mrg_out"))
    state = merge_indexes(dirs, d_out)
    man = state.read_manifest("merge-0")
    assert man["metrics"]["n_inputs"] == 3
    assert man["metrics"]["dropped_tombstones"] == 2

    d_ref = str(tmp_path_factory.mktemp("mrg_ref"))
    keep = [i for i in range(150) if i not in victims]
    build_index(corpus_from_table(full.take(keep)), d_ref, cfg, resume=False)

    s_out = json.load(open(f"{d_out}/stats.json"))
    s_ref = json.load(open(f"{d_ref}/stats.json"))
    assert s_out["n_docs"] == s_ref["n_docs"] == 148
    assert s_out["total_tokens"] == s_ref["total_tokens"]
    assert s_out["avgdl"] == s_ref["avgdl"]
    assert _path_map(d_out) == _path_map(d_ref)

    so = ScorerActor(d_out, k=10, scorer="bmw")
    sr = ScorerActor(d_ref, k=10, scorer="bmw")
    for q in make_queries(25, seed=17)["text"].to_pylist():
        io_, sco = so.score_query(q)
        ir_, scr = sr.score_query(q)
        assert (io_ == ir_).all() and (sco == scr).all(), q

    # merged index supports the normal maintenance surface afterwards
    update_index(d_out, corpus_from_table(make_corpus(5, seed=88)))
    assert json.load(open(f"{d_out}/stats.json"))["n_docs"] == 153


def test_merge_indexes_validation(ray_session, tmp_path_factory):
    """Rejections: <2 inputs, config mismatch, existing output, unhealthy
    input (crashed-maintenance debt) — and nothing is written in any
    rejected case."""
    import os

    import pytest as _pt

    from sharesci_ray.pipelines.build import _PENDING_FILE, merge_indexes

    c1 = make_corpus(30, seed=1)
    c2 = make_corpus(30, seed=2)
    d1 = str(tmp_path_factory.mktemp("mv_a"))
    d2 = str(tmp_path_factory.mktemp("mv_b"))
    build_index(corpus_from_table(c1), d1, BuildConfig(n_buckets=8), resume=False)
    build_index(corpus_from_table(c2), d2, BuildConfig(n_buckets=4), resume=False)

    out = str(tmp_path_factory.mktemp("mv_out")) + "/idx"
    with _pt.raises(ValueError, match="at least two"):
        merge_indexes([d1], out)
    with _pt.raises(ValueError, match="config mismatch"):
        merge_indexes([d1, d2], out)
    assert not os.path.exists(os.path.join(out, "config.json"))

    # identical config but simulated crashed window on one input
    d3 = str(tmp_path_factory.mktemp("mv_c"))
    build_index(corpus_from_table(c2), d3, BuildConfig(n_buckets=8), resume=False)
    open(os.path.join(d3, _PENDING_FILE), "w").write("{}")
    with _pt.raises(ValueError, match="crashed maintenance"):
        merge_indexes([d1, d3], out)
    os.remove(os.path.join(d3, _PENDING_FILE))

    # existing-output refusal
    merge_indexes([d1, d3], out)
    with _pt.raises(ValueError, match="already an index"):
        merge_indexes([d1, d3], out)


def test_merge_skips_uncommitted_orphan_delta(ray_session, tmp_path_factory):
    """ADVICE r3 (build.py merge_indexes): an input whose update_index
    crashed after the delta parquet write but BEFORE the debt/pending
    record (so segments manifest intact, no _PENDING_FILE — validation
    passes) has an orphan ``update-0`` docvec subdir that no manifest
    commits.  The merge must NOT fold those never-committed rows into the
    output, and must not mutate the input (the input's own next
    maintenance op heals the orphan)."""
    import glob
    import json
    import os
    import shutil

    from sharesci_ray.pipelines.build import merge_indexes

    full = make_corpus(40, seed=909)
    d1 = str(tmp_path_factory.mktemp("mo_a"))
    d2 = str(tmp_path_factory.mktemp("mo_b"))
    cfg = BuildConfig(n_buckets=4)
    build_index(corpus_from_table(full.slice(0, 20)), d1, cfg, resume=False)
    build_index(corpus_from_table(full.slice(20)), d2, cfg, resume=False)

    # plant the orphan: a valid delta parquet under docvec/update-0 with
    # rows that would double-count d1's docs if merged
    docvec = glob.glob(os.path.join(d1, "**", "stage=docvec"), recursive=True)[0]
    src = sorted(glob.glob(os.path.join(docvec, "*.parquet")))[0]
    orphan = os.path.join(docvec, "update-0")
    os.makedirs(orphan)
    shutil.copy(src, os.path.join(orphan, "orphan.parquet"))

    out = str(tmp_path_factory.mktemp("mo_out")) + "/idx"
    merge_indexes([d1, d2], out)

    # the output matches a merge of the COMMITTED corpora only
    s_out = json.load(open(f"{out}/stats.json"))
    assert s_out["n_docs"] == 40
    d_ref = str(tmp_path_factory.mktemp("mo_ref"))
    build_index(corpus_from_table(full), d_ref, cfg, resume=False)
    assert _path_map(out) == _path_map(d_ref)
    assert s_out["total_tokens"] == json.load(open(f"{d_ref}/stats.json"))["total_tokens"]

    # input untouched: the orphan is still there for its owner to heal
    assert os.path.isfile(os.path.join(orphan, "orphan.parquet"))


def test_merge_crash_rerun_rebuilds(ray_session, tmp_path_factory, monkeypatch):
    """A merge that crashes mid-build leaves the in-progress marker; the
    rerun wipes the debris and produces a complete, servable index — while
    a genuine pre-existing index (no marker) is still refused."""
    import os

    import pytest as _pt

    import sharesci_ray.pipelines.build as B

    full = make_corpus(60, seed=55)
    d1 = str(tmp_path_factory.mktemp("mc_a"))
    d2 = str(tmp_path_factory.mktemp("mc_b"))
    cfg = BuildConfig(n_buckets=4)
    build_index(corpus_from_table(full.slice(0, 30)), d1, cfg, resume=False)
    build_index(corpus_from_table(full.slice(30)), d2, cfg, resume=False)

    out = str(tmp_path_factory.mktemp("mc_out")) + "/idx"

    real_build = B.build_index

    def crash_mid_build(*a, **k):
        # simulate dying after the inner build started writing output
        real_build(*a, **k)
        raise RuntimeError("injected crash before merge manifest commit")

    monkeypatch.setattr(B, "build_index", crash_mid_build)
    with _pt.raises(RuntimeError, match="injected crash"):
        B.merge_indexes([d1, d2], out)
    assert os.path.exists(os.path.join(out, "merge_in_progress.json"))
    monkeypatch.setattr(B, "build_index", real_build)

    # rerun: debris swept, merge completes, marker gone, index servable
    state = B.merge_indexes([d1, d2], out)
    assert not os.path.exists(os.path.join(out, "merge_in_progress.json"))
    assert state.read_manifest("merge-0")["metrics"]["n_inputs"] == 2
    s = ScorerActor(out, k=5, scorer="bmw")
    ids, scores = s.score_query("get_value index")
    assert ids.size > 0

    # a completed index without the marker is still refused
    with _pt.raises(ValueError, match="already an index"):
        B.merge_indexes([d1, d2], out)
