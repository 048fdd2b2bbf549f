"""Doc-sharded query serving (BuildConfig.doc_shards + run_queries_sharded):
per-shard slices are complete per doc range, idf uses corpus-global df, and
the cross-shard merge reproduces the unsharded engine bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest
import ray.data

from sharesci_ray.pipelines.build import BuildConfig, build_index
from sharesci_ray.pipelines.query import (
    ScorerActor,
    run_queries,
    run_queries_sharded,
    shared_segment_refs,
)
from sharesci_ray.sources.corpus import corpus_from_table
from sharesci_ray.sources.synth import make_corpus, make_queries


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    corpus = make_corpus(400, seed=13)
    d_plain = str(tmp_path_factory.mktemp("plain"))
    d_shard = str(tmp_path_factory.mktemp("sharded"))
    build_index(corpus_from_table(corpus), d_plain, BuildConfig(n_buckets=8), resume=False)
    build_index(
        corpus_from_table(corpus),
        d_shard,
        BuildConfig(n_buckets=8, doc_shards=4),
        resume=False,
    )
    return d_plain, d_shard


def test_sharded_merge_is_rank_identical(ray_session, indexes):
    d_plain, d_shard = indexes
    q_tbl = make_queries(40, seed=21)
    plain = (
        run_queries(d_plain, ray.data.from_arrow(q_tbl), k=10, scorer="daat")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    sharded = (
        run_queries_sharded(d_shard, ray.data.from_arrow(q_tbl), k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(plain) == len(sharded)
    assert (plain["query_id"].values == sharded["query_id"].values).all()
    assert (plain["doc_id"].values == sharded["doc_id"].values).all()
    assert (plain["score"].values == sharded["score"].values).all()  # bit-equal


def test_shard_actor_uses_global_df(ray_session, indexes):
    """A single shard's scores must equal the unsharded engine's scores for
    the docs it owns — requires corpus-wide df in the idf, not shard df."""
    d_plain, d_shard = indexes
    full = ScorerActor(d_plain, k=400, scorer="daat")
    s0 = ScorerActor(d_shard, k=400, scorer="daat", doc_shard=0)
    dF, sF = full.score_query("get_value90 index")
    d0, s0_scores = s0.score_query("get_value90 index")
    full_map = dict(zip(dF.tolist(), sF.tolist()))
    assert d0.size > 0
    for doc, sc in zip(d0.tolist(), s0_scores.tolist()):
        assert full_map[doc] == sc  # bit-equal per doc


def test_fanout_mode_is_identical(ray_session, indexes):
    """Lazy fan-out (the multi-node shape: all shard pools streaming into
    one union) must be bit-identical to the sequential local-mode shape."""
    _d_plain, d_shard = indexes
    q_tbl = make_queries(25, seed=33)
    seq = (
        run_queries_sharded(d_shard, ray.data.from_arrow(q_tbl), k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    fan = (
        run_queries_sharded(d_shard, ray.data.from_arrow(q_tbl), k=10, fanout=True)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(seq) == len(fan)
    assert (seq["query_id"].values == fan["query_id"].values).all()
    assert (seq["doc_id"].values == fan["doc_id"].values).all()
    assert (seq["score"].values == fan["score"].values).all()  # bit-equal


def test_shared_segments_identical(ray_session, indexes):
    """Plasma-shared bucket tables must be bit-identical to per-actor
    parquet loads."""
    d_plain, _ = indexes
    q_tbl = make_queries(30, seed=77)
    plain = (
        run_queries(d_plain, ray.data.from_arrow(q_tbl), k=10, scorer="auto")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    shared = (
        run_queries(
            d_plain, ray.data.from_arrow(q_tbl), k=10, scorer="auto",
            bucket_refs=shared_segment_refs(d_plain),
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(plain) == len(shared)
    assert (plain["doc_id"].values == shared["doc_id"].values).all()
    assert (plain["score"].values == shared["score"].values).all()


def test_shard_out_of_range_rejected(ray_session, indexes):
    _d_plain, d_shard = indexes
    with pytest.raises(ValueError, match="out of range"):
        ScorerActor(d_shard, doc_shard=99)


def test_shard_guard_on_unsharded_index(ray_session, indexes):
    d_plain, _ = indexes
    with pytest.raises(ValueError, match="not doc-sharded"):
        ScorerActor(d_plain, doc_shard=0)
    with pytest.raises(ValueError, match="not doc-sharded"):
        run_queries_sharded(d_plain, ray.data.from_arrow(make_queries(2, seed=1)))


def test_merge_of_doc_sharded_indexes(ray_session, tmp_path_factory):
    """merge_indexes on doc-sharded configs: the merged index is itself a
    valid doc-sharded layout, and sharded queries over it are bit-equal to
    a fresh sharded build over the union corpus."""
    from sharesci_ray.pipelines.build import merge_indexes

    full = make_corpus(200, seed=31)
    cfg = BuildConfig(n_buckets=8, doc_shards=2)
    d1 = str(tmp_path_factory.mktemp("sm_a"))
    d2 = str(tmp_path_factory.mktemp("sm_b"))
    d_ref = str(tmp_path_factory.mktemp("sm_ref"))
    build_index(corpus_from_table(full.slice(0, 100)), d1, cfg, resume=False)
    build_index(corpus_from_table(full.slice(100)), d2, cfg, resume=False)
    build_index(corpus_from_table(full), d_ref, cfg, resume=False)

    out = str(tmp_path_factory.mktemp("sm_out")) + "/idx"
    merge_indexes([d1, d2], out)

    q_tbl = make_queries(25, seed=9)
    got = (
        run_queries_sharded(out, ray.data.from_arrow(q_tbl), k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    ref = (
        run_queries_sharded(d_ref, ray.data.from_arrow(q_tbl), k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(got) == len(ref) > 0
    assert (got["doc_id"].values == ref["doc_id"].values).all()
    assert (got["score"].values == ref["score"].values).all()  # bit-equal


def test_shard_missing_from_bucket(ray_session, tmp_path_factory):
    """A bucket with no rows for some shard (many buckets, few docs) loads
    as empty for that shard: the sharded engine still starts and matches
    the unsharded one bit for bit."""
    import pyarrow.parquet as pq

    corpus = make_corpus(20, seed=5, min_tokens=5, max_tokens=20)
    d_plain = str(tmp_path_factory.mktemp("few_plain"))
    d_shard = str(tmp_path_factory.mktemp("few_sharded"))
    build_index(corpus_from_table(corpus), d_plain, BuildConfig(n_buckets=64), resume=False)
    build_index(
        corpus_from_table(corpus),
        d_shard,
        BuildConfig(n_buckets=64, doc_shards=4),
        resume=False,
    )
    segs = pq.read_table(f"{d_shard}/stage=segments", columns=["term_bucket", "salt_idx"]).to_pandas()
    shards_per_bucket = segs.groupby("term_bucket", observed=True)["salt_idx"].nunique()
    assert (shards_per_bucket < 4).any()  # the case under test occurs

    q_tbl = make_queries(25, seed=3)
    plain = (
        run_queries(d_plain, ray.data.from_arrow(q_tbl), k=10, scorer="daat")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    sharded = (
        run_queries_sharded(d_shard, ray.data.from_arrow(q_tbl), k=10)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(plain) == len(sharded) > 0
    assert (plain["query_id"].values == sharded["query_id"].values).all()
    assert (plain["doc_id"].values == sharded["doc_id"].values).all()
    assert (plain["score"].values == sharded["score"].values).all()  # bit-equal
