"""Golden end-to-end: Ray build + query vs single-process oracle (SURVEY.md §5.3),
salting equivalence (§5.2c), sha256 invariant (§5.4), resume (§5.5)."""

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sharesci_ray.pipelines.build import BuildConfig, build_index
from sharesci_ray.pipelines.query import ScorerActor, run_queries
from sharesci_ray.sources.synth import make_corpus, make_queries
from tests.oracle import OracleIndex

N_DOCS = 400
N_QUERIES = 40


@pytest.fixture(scope="module")
def corpus_tbl():
    return make_corpus(N_DOCS, seed=42)


@pytest.fixture(scope="module")
def built(ray_session, corpus_tbl, tmp_path_factory):
    import ray.data

    build_dir = str(tmp_path_factory.mktemp("build"))
    cfg = BuildConfig(n_buckets=8, salt_threshold=150, salt_target_group=150, hot_top_m=16)
    state = build_index(ray.data.from_arrow(corpus_tbl), build_dir, cfg)
    return build_dir, state, cfg


@pytest.fixture(scope="module")
def oracle(corpus_tbl):
    return OracleIndex(corpus_tbl)


def test_stats_match_oracle(built, oracle):
    build_dir, state, _ = built
    stats = state.read_sidecar("stats.json")
    assert stats["n_docs"] == oracle.n_docs
    assert stats["avgdl"] == oracle.avgdl  # bit-identical


def test_salting_engaged(built):
    _, state, _ = built
    m = state.read_manifest("segments")
    assert m["metrics"]["hot_terms"], "fixture must exercise the salted path"


def test_docmeta_sha_invariant(built, corpus_tbl):
    """Per-row content sha256 must survive the pipeline (BASELINE.json:15)."""
    build_dir, _, _ = built
    docvec = pq.read_table(
        os.path.join(build_dir, "stage=docvec"),
        columns=["repo", "path", "commit", "content_sha256"],
    ).to_pylist()
    expect = {}
    for r in corpus_tbl.to_pylist():
        sha = hashlib.sha256(r["content"].encode()).hexdigest()
        expect[(r["repo"], r["path"], r["commit"], sha)] = sha
    assert len(docvec) == corpus_tbl.num_rows
    for r in docvec:
        key = (r["repo"], r["path"], r["commit"], r["content_sha256"])
        assert key in expect and expect[key] == r["content_sha256"]


def test_docids_dense_and_sorted(built):
    build_dir, _, _ = built
    t = pq.read_table(
        os.path.join(build_dir, "stage=docvec"),
        columns=["doc_id", "repo", "path", "commit", "content_sha256"],
    )
    t = t.sort_by([("doc_id", "ascending")])
    ids = t["doc_id"].to_numpy()
    assert np.array_equal(ids, np.arange(len(ids)))
    keys = list(
        zip(
            t["repo"].to_pylist(),
            t["path"].to_pylist(),
            t["commit"].to_pylist(),
            t["content_sha256"].to_pylist(),
        )
    )
    assert keys == sorted(keys), "doc_id order must equal sort order"


def test_rank_identity_vs_oracle(built, oracle, ray_session):
    """The load-bearing golden test: identical top-10 ids, scores ≤1e-12."""
    import ray.data

    build_dir, _, _ = built
    queries_tbl = make_queries(N_QUERIES, seed=43)
    res = run_queries(
        build_dir, ray.data.from_arrow(queries_tbl), k=10, scorer="daat"
    ).take_all()
    got: dict[int, list] = {}
    for r in res:
        got.setdefault(r["query_id"], []).append((r["doc_id"], r["score"]))
    n_nonempty = 0
    for qid, text in zip(
        queries_tbl["query_id"].to_pylist(), queries_tbl["text"].to_pylist()
    ):
        exp = oracle.score(text, 10)
        g = got.get(qid, [])
        assert [d for d, _ in exp] == [d for d, _ in g], (qid, text)
        for (ed, es), (gd, gs) in zip(exp, g):
            assert abs(es - gs) <= 1e-12, (qid, ed, es, gs)
        n_nonempty += bool(exp)
    assert n_nonempty > N_QUERIES // 2  # fixture sanity: most queries hit


@pytest.mark.parametrize(
    "scorer,tight",
    [
        pytest.param(s, t, id=s + "-tight" * t)
        for t in (False, True)
        for s in ("wand", "bmw", "auto")
    ],
)
def test_wand_bmw_rank_identical_to_daat(built, scorer, tight):
    """Q3 ≡ exhaustive DAAT — rank AND score identical (SURVEY.md §5.2b),
    also filtered.  ``tight`` forces the sparse accumulator and a per-term
    cache small enough to evict on nearly every query."""
    build_dir, _, _ = built
    queries_tbl = make_queries(60, seed=44)
    daat = ScorerActor(build_dir, k=10, scorer="daat")
    other = ScorerActor(build_dir, k=10, scorer=scorer)
    if tight:
        other._DENSE_MAX_DOCS = 0
        other._CACHE_MAX_POSTINGS = 1_000
    ids = np.arange(daat.id_space, dtype=np.int64)
    for text in queries_tbl["text"].to_pylist():
        for allowed in (None, ids[::3]):
            d1, s1 = daat.score_query(text, allowed=allowed)
            d2, s2 = other.score_query(text, allowed=allowed)
            assert list(d1) == list(d2), text
            np.testing.assert_array_equal(s1, s2)
    assert other._cached_postings <= other._CACHE_MAX_POSTINGS


def _segment_fingerprint(build_dir: str) -> list[tuple]:
    rows = []
    for f in sorted(glob.glob(os.path.join(build_dir, "stage=segments", "**", "*.parquet"), recursive=True)):
        t = pq.read_table(f)
        for r in t.select(["term", "df", "salt_idx", "docids", "tfs", "dls"]).to_pylist():
            rows.append((r["term"], r["df"], r["salt_idx"], r["docids"], r["tfs"], r["dls"]))
    return sorted(rows)


def test_salted_equals_unsalted(ray_session, corpus_tbl, tmp_path_factory):
    """Salted build must produce identical final segments to an unsalted one."""
    import ray.data

    d1 = str(tmp_path_factory.mktemp("salted"))
    d2 = str(tmp_path_factory.mktemp("unsalted"))
    build_index(
        ray.data.from_arrow(corpus_tbl),
        d1,
        BuildConfig(n_buckets=8, salt_threshold=150, salt_target_group=150),
    )
    build_index(
        ray.data.from_arrow(corpus_tbl),
        d2,
        BuildConfig(n_buckets=8, salt_threshold=10**9),
    )
    f1, f2 = _segment_fingerprint(d1), _segment_fingerprint(d2)
    assert f1 == f2


def test_resume_skips_and_reproduces(ray_session, corpus_tbl, tmp_path_factory):
    """Delete the segments stage, rebuild with resume: docvec is skipped and
    the segments come back byte-identical (SURVEY.md §5.5)."""
    import ray.data

    d = str(tmp_path_factory.mktemp("resume"))
    cfg = BuildConfig(n_buckets=8, salt_threshold=150, salt_target_group=150)
    state = build_index(ray.data.from_arrow(corpus_tbl), d, cfg)
    fp1 = _segment_fingerprint(d)
    docvec_manifest_1 = state.read_manifest("docvec")
    # wipe segments stage + manifest; keep docvec
    shutil.rmtree(os.path.join(d, "stage=segments"))
    os.remove(os.path.join(d, "manifests", "segments.json"))
    state2 = build_index(ray.data.from_arrow(corpus_tbl), d, cfg)
    assert _segment_fingerprint(d) == fp1
    # docvec was NOT recomputed: manifest identical (same started ts)
    assert state2.read_manifest("docvec") == docvec_manifest_1
    # config change invalidates resume
    assert not state2.is_complete("segments") or state2.read_manifest("segments")[
        "config_hash"
    ] == state2.cfg_hash


def test_scorer_refuses_mid_maintenance_index(ray_session, tmp_path_factory):
    """A ScorerActor constructed while the segments manifest is absent
    (update/delete/compact in flight, or a crashed maintenance run) must
    refuse to load rather than pair fresh stats with stale segments."""
    import os
    import shutil

    import pytest as _pytest

    from sharesci_ray.pipelines.build import BuildConfig, build_index
    from sharesci_ray.pipelines.query import ScorerActor
    from sharesci_ray.sources.corpus import corpus_from_table
    from sharesci_ray.sources.synth import make_corpus

    d = str(tmp_path_factory.mktemp("midmaint"))
    build_index(corpus_from_table(make_corpus(30, seed=22)), d, BuildConfig(n_buckets=4), resume=False)
    ScorerActor(d, k=5)  # complete index loads fine

    man = os.path.join(d, "manifests", "segments.json")
    bak = man + ".bak"
    shutil.move(man, bak)
    with _pytest.raises(ValueError, match="segments manifest absent"):
        ScorerActor(d, k=5)
    shutil.move(bak, man)
    ids, _ = ScorerActor(d, k=5).score_query("table scan")
    assert ids.size >= 0  # restored index serves again


def test_snippets_contain_a_query_term(ray_session):
    """Every snippet row corresponds to a bm25_topk row, and its window
    contains at least one query term as a substring of the lowered text
    (the rule both the engine and the SQL twin implement)."""
    from sharesci_ray.functions.text import tokenize
    from sharesci_ray.pipelines.ops import DOC_QUERIES, bm25_topk, bm25_topk_snippets

    SF = "/root/testdata/sf0.001"
    snips = bm25_topk_snippets(SF).to_pandas()
    base = bm25_topk(SF).to_pandas()
    key = ["query_id", "rank", "doc_id"]
    assert sorted(map(tuple, snips[key].values.tolist())) == sorted(
        map(tuple, base[key].values.tolist())
    )
    for _, r in snips.iterrows():
        terms = set(tokenize(DOC_QUERIES[int(r["query_id"])]))
        low = r["snippet"].lower()
        # context window starts ≤30 chars before the first hit, so the hit
        # itself is inside the 80-char window unless truncated mid-term —
        # accept a prefix match at the window edge too
        assert any(t[:4] in low for t in terms), r["snippet"]
