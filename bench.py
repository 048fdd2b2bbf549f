#!/usr/bin/env python
"""Benchmark harness (driver contract + BASELINE.md measurement plan).

Headline pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1):

  build_index      : flagship inverted-index build (SURVEY.md §3.1) — the
                     docs/sec number of BASELINE.json:2.
  bm25_query_batch : fixture query set through the BMW scorer actor pool
                     (SURVEY.md §3.2).
  bm25_p50         : single-query p50 latency, warm local scorer (seconds).
  + representative training-data ops (dedup, ANN) when present.

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

``--scaling`` reruns the headline build in TWO FRESH PROCESSES at
num_cpus=N and 4N (default 8 vs 32) on the same input — the sandbox
stand-in for the N vs 4N-node cluster criterion (BASELINE.json:14) — and
reports both throughputs plus scaling efficiency = dps_4N / (4 * dps_N).

This script OWNS its Ray session (the driver's entry()/queries() path does
not — __ray_entry__.py docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def _quiet_empty_schema_warnings() -> None:
    """Filter Ray 2.49's 'RefBundle with a different schema ... new schema: .'
    WARNING: this version stores every 0-row block schema-less (even when
    the UDF returned a typed empty table), so sparse-keyed shuffles always
    trip it.  The actionable failure mode behind it — joins crashing on
    schema-less empties — is handled by sharesci_ray.pipelines.util.join;
    the remaining log line is a known-cosmetic Ray
    artifact (see .claude/skills/verify)."""
    import logging

    class _Drop(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in record.getMessage()

    # a filter on the ORIGINATING logger blocks the record before it
    # propagates to any ancestor handler
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_Drop())


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def run_bench(sf_dir: str, num_cpus: int, n_queries: int = 200) -> dict:
    # host probe FIRST and embedded in the output (VERDICT r3): the box
    # frequently delivers a fraction of its 32 cores during co-tenant
    # windows — carrying the probe inside the headline JSON makes every
    # recorded number self-interpreting.
    probe = run_host_probe()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    import ray.data

    _quiet_empty_schema_warnings()

    from sharesci_ray.pipelines.build import BuildConfig, build_index
    from sharesci_ray.pipelines.query import (
        ScorerActor,
        run_queries,
        shared_segment_refs,
    )
    from sharesci_ray.sources.corpus import documents_as_corpus, read_table
    from sharesci_ray.sources.synth import make_queries

    timings: dict[str, float] = {}
    build_dir = os.path.join(tempfile.gettempdir(), f"sharesci_bench_{os.getpid()}")
    shutil.rmtree(build_dir, ignore_errors=True)

    n_docs = read_table(sf_dir, "documents", columns=["doc_id"]).count()

    # ---- steady-state warmup (NOT timed) ----------------------------------
    # A fixed-size cluster is long-lived: worker processes exist and the
    # library is imported long before any measured job starts.  Force-spawn
    # the worker pool and run a tiny throwaway build so the measured phases
    # see warm workers instead of process-spawn + import cost (VERDICT r3:
    # cold-start dominated the driver-visible numbers in degraded windows).
    @ray.remote(num_cpus=1)
    def _spin() -> int:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass
        return 0

    ray.get([_spin.remote() for _ in range(num_cpus)])
    warm_dir = build_dir + "_warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_index(
        documents_as_corpus(sf_dir).limit(200),
        warm_dir,
        BuildConfig(n_buckets=8),
        resume=False,
    )
    shutil.rmtree(warm_dir, ignore_errors=True)

    # ---- headline 1: index build -----------------------------------------
    t0 = time.perf_counter()
    build_index(
        documents_as_corpus(sf_dir),
        build_dir,
        BuildConfig(n_buckets=max(16, 2 * num_cpus)),
        resume=False,
    )
    timings["build_index"] = time.perf_counter() - t0
    docs_per_sec = n_docs / timings["build_index"]

    # ---- headline 2: BM25 query batch through the actor pool -------------
    # Steady-state serving shape: the segment buckets are loaded into the
    # object store ONCE (plasma refs shared zero-copy by every actor) and a
    # warm pass spins the pool before the clock starts — the measured
    # number is query throughput, not actor spin-up (VERDICT r3 #1).
    q_tbl = make_queries(n_queries, seed=43)
    refs = shared_segment_refs(build_dir)
    pool = dict(
        concurrency=max(2, num_cpus // 2), batch_size=32, bucket_refs=refs
    )
    run_queries(
        build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="bmw", **pool
    ).count()  # warm pass (not timed)
    t0 = time.perf_counter()
    res = run_queries(
        build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="bmw", **pool
    )
    n_results = res.count()  # consume the stream
    timings["bm25_query_batch"] = time.perf_counter() - t0

    # qps over a LONGER stream (reported, NOT in the headline total): the
    # per-call fixed cost (query repartition + pool spin-up, ~1-2 s) makes
    # a 200-query batch read ~10× under the engine's steady-state
    # throughput; 2000 queries amortize it to a fair figure.
    q_big = make_queries(max(2000, n_queries), seed=47)
    t0 = time.perf_counter()
    run_queries(
        build_dir, ray.data.from_arrow(q_big), k=10, scorer="bmw", **pool
    ).count()
    qps = q_big.num_rows / (time.perf_counter() - t0)

    # ---- headline 3: single-query p50 latency, warm scorer ---------------
    scorer = ScorerActor(build_dir, k=10, scorer="bmw")
    texts = q_tbl["text"].to_pylist()
    lat = []
    for text in texts:
        t0 = time.perf_counter()
        scorer.score_query(text)
        lat.append(time.perf_counter() - t0)
    timings["bm25_p50"] = statistics.median(lat)

    # ---- training-data ops (registered pipelines) ------------------------
    from sharesci_ray.pipelines import ops as _ops

    def _consume(result) -> None:
        if hasattr(result, "count") and callable(result.count) and not hasattr(result, "num_rows"):
            result.count()

    for name in ("dedup_minhash_lsh", "dedup_simhash", "ann_topk_cosine", "quality_score"):
        fn = _ops.REGISTRY.get(name)
        if fn is None:
            continue
        t0 = time.perf_counter()
        _consume(fn(sf_dir))
        timings[name] = time.perf_counter() - t0

    shutil.rmtree(build_dir, ignore_errors=True)
    out = {
        "metric": "headline_total_wall",
        "value": round(sum(timings.values()), 4),
        "unit": "sec",
        "queries": {k: round(v, 4) for k, v in timings.items()},
        "sf": _sf_of(sf_dir),
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "n_queries": n_queries,
        "n_results": n_results,
        "docs_per_sec": round(docs_per_sec, 2),
        "bm25_qps": round(qps, 1),
        "host_probe": {
            k: probe[k]
            for k in ("single_task_s", "speedup_8wide", "speedup_32wide",
                      "usable_32wide", "loadavg_1m")
            if k in probe
        },
    }
    ray.shutdown()
    return out


SCALE_DOCS = int(os.environ.get("GRAFT_SCALE_DOCS", "200000"))
SCALE_DIR = f"/tmp/sharesci_scale_corpus_{SCALE_DOCS}_v50k1250"


def run_scaling_child(num_cpus: int) -> dict:
    """One fresh-process measurement: build + query the synthetic
    source-code corpus (BASELINE.json:15 shape) at the given parallelism.

    Steady-state protocol (models a long-lived cluster): the worker pool is
    force-spawned and a tiny warmup build runs BEFORE the clock starts.
    """
    import time as _t

    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    _quiet_empty_schema_warnings()

    from sharesci_ray.pipelines.build import BuildConfig, build_index
    from sharesci_ray.pipelines.query import run_queries
    from sharesci_ray.sources.synth import SCALE_VOCAB, ensure_scale_corpus, make_queries

    ensure_scale_corpus(SCALE_DOCS, SCALE_DIR, shard_docs=1250)

    @ray.remote(num_cpus=1)
    def _spin() -> int:
        t = _t.perf_counter()
        while _t.perf_counter() - t < 0.5:
            pass
        return 0

    ray.get([_spin.remote() for _ in range(num_cpus)])
    warm_dir = os.path.join(tempfile.gettempdir(), "sharesci_scale_warm")
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_index(
        ray.data.read_parquet(SCALE_DIR).limit(500),
        warm_dir,
        BuildConfig(n_buckets=8),
        resume=False,
    )

    build_dir = os.path.join(tempfile.gettempdir(), "sharesci_scale_build")
    shutil.rmtree(build_dir, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(
        ray.data.read_parquet(SCALE_DIR),
        build_dir,
        BuildConfig(n_buckets=64),
        resume=False,
    )
    build_s = time.perf_counter() - t0

    # query throughput through the scorer actor pool (warm pass first so the
    # measured pass sees loaded actors — steady-state qps)
    from sharesci_ray.pipelines.query import shared_segment_refs

    q_tbl = make_queries(10_000, seed=43, n_terms=SCALE_VOCAB)
    # fixed pool, eager actors; bucket_refs: ONE plasma copy of the index
    # shared zero-copy by every actor (loaded once, reused by both passes)
    refs = shared_segment_refs(build_dir)
    pool = dict(concurrency=max(2, num_cpus // 2), batch_size=64, bucket_refs=refs)
    run_queries(build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="auto", **pool).count()
    # median of 3 measured passes: a single ~10 s pass is short enough for
    # the host's documented ±2× wall-clock noise to dominate the qps sample
    # (round-3 batteries saw 1.9× pre/post-baseline swings); the median is
    # robust to one slow pass while leaving the workload unchanged
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_queries(build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="auto", **pool).count()
        passes.append(time.perf_counter() - t0)
    query_s = sorted(passes)[1]

    shutil.rmtree(build_dir, ignore_errors=True)
    shutil.rmtree(warm_dir, ignore_errors=True)
    out = {
        "num_cpus": num_cpus,
        "n_docs": SCALE_DOCS,
        "build_s": round(build_s, 2),
        "docs_per_sec": round(SCALE_DOCS / build_s, 1),
        "query_s": round(query_s, 2),
        "query_s_passes": [round(p, 2) for p in passes],
        "queries_per_sec": round(10_000 / query_s, 1),
    }
    ray.shutdown()
    return out


def run_node_child(cpu_list: str, shard_lo: int, shard_hi: int, num_cpus: int) -> dict:
    """One simulated NODE: a taskset-pinned process with its own Ray
    instance, its own object store, building (and querying) its own doc
    shard of the corpus — the data-parallel layout a doc-sharded multi-node
    build uses (BuildConfig.doc_shards / run_queries_sharded).

    The parent pins this process to ``cpu_list`` BEFORE exec (taskset), so
    the only shared resources across concurrent nodes are the memory bus
    and the SSD — exactly what separate physical nodes would NOT share;
    measured efficiency is therefore a LOWER bound on real N→4N scaling.
    """
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        object_store_memory=8_000_000_000,
        ignore_reinit_error=True,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    _quiet_empty_schema_warnings()

    from sharesci_ray.pipelines.build import BuildConfig, build_index
    from sharesci_ray.pipelines.query import run_queries
    from sharesci_ray.sources.synth import SCALE_VOCAB, make_queries

    shard_files = sorted(
        os.path.join(SCALE_DIR, f)
        for f in os.listdir(SCALE_DIR)
        if f.endswith(".parquet")
    )[shard_lo:shard_hi]
    n_docs = 1250 * len(shard_files)

    @ray.remote(num_cpus=1)
    def _spin() -> int:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.5:
            pass
        return 0

    import ray as _ray

    _ray.get([_spin.remote() for _ in range(num_cpus)])
    warm_dir = tempfile.mkdtemp(prefix="sharesci_node_warm_")
    build_index(
        ray.data.read_parquet(shard_files[:1]).limit(500),
        warm_dir,
        BuildConfig(n_buckets=8),
        resume=False,
    )

    build_dir = tempfile.mkdtemp(prefix="sharesci_node_build_")
    shutil.rmtree(build_dir, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(
        ray.data.read_parquet(shard_files),
        build_dir,
        BuildConfig(n_buckets=64),
        resume=False,
    )
    build_s = time.perf_counter() - t0

    from sharesci_ray.pipelines.query import shared_segment_refs

    q_tbl = make_queries(2_500, seed=43, n_terms=SCALE_VOCAB)
    refs = shared_segment_refs(build_dir)
    pool = dict(concurrency=max(2, num_cpus // 2), batch_size=64, bucket_refs=refs)
    run_queries(build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="auto", **pool).count()
    # median of 3 measured passes (see run_scaling_child): the ~4 s single
    # pass this replaced produced 1.9× pre/post-baseline qps swings in the
    # round-3 batteries — pure host noise, not engine behavior
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_queries(build_dir, ray.data.from_arrow(q_tbl), k=10, scorer="auto", **pool).count()
        passes.append(time.perf_counter() - t0)
    query_s = sorted(passes)[1]

    shutil.rmtree(build_dir, ignore_errors=True)
    shutil.rmtree(warm_dir, ignore_errors=True)
    out = {
        "cpu_list": cpu_list,
        "shards": [shard_lo, shard_hi],
        "n_docs": n_docs,
        "build_s": round(build_s, 2),
        "docs_per_sec": round(n_docs / build_s, 1),
        "query_s": round(query_s, 2),
        "query_s_passes": [round(p, 2) for p in passes],
        "queries_per_sec": round(2_500 / query_s, 1),
    }
    ray.shutdown()
    return out


def run_scaling_nodes(n_nodes: int = 4, cpus_per_node: int = 8) -> dict:
    """N → 4N NODE scaling evidence on one box: each simulated node is a
    taskset-pinned process (own Ray runtime, own object store, own CPU set)
    building + querying its own doc shard — the doc-sharded data-parallel
    layout of a real multi-node deployment.

    Phase 1 runs ONE node alone (uncontended baseline); phase 2 runs
    ``n_nodes`` concurrently on disjoint CPU sets.  Efficiency =
    aggregate_throughput / (n_nodes × single_node_throughput).  Because the
    concurrent phase still SHARES one memory bus and one SSD (which real
    nodes would not), the measured number is a lower bound on the
    cluster-level efficiency."""
    import ray  # noqa: F401  (import check before spawning children)

    # pre-generate the shared corpus once (children only read it)
    sub = subprocess.run(
        [
            sys.executable,
            "-c",
            (
                "from sharesci_ray.sources.synth import ensure_scale_corpus; "
                f"ensure_scale_corpus({SCALE_DOCS}, '{SCALE_DIR}', shard_docs=1250)"
            ),
        ],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True,
        text=True,
    )
    if sub.returncode != 0:
        raise RuntimeError(f"corpus generation failed:\n{sub.stderr[-2000:]}")

    n_shards_total = len([f for f in os.listdir(SCALE_DIR) if f.endswith(".parquet")])
    per_node = n_shards_total // n_nodes

    def _spawn(node_idx: int) -> subprocess.Popen:
        cpu_list = f"{node_idx * cpus_per_node}-{(node_idx + 1) * cpus_per_node - 1}"
        cmd = [
            "taskset",
            "-c",
            cpu_list,
            sys.executable,
            os.path.abspath(__file__),
            "--node-child",
            cpu_list,
            str(node_idx * per_node),
            str((node_idx + 1) * per_node),
            str(cpus_per_node),
        ]
        return subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )

    def _collect(procs: list[subprocess.Popen]) -> list[dict]:
        outs = []
        for p in procs:
            stdout, stderr = p.communicate()
            lines = [l for l in stdout.strip().splitlines() if l.startswith("{")]
            if p.returncode != 0 or not lines:
                raise RuntimeError(f"node child failed:\n{stderr[-3000:]}")
            outs.append(json.loads(lines[-1]))
        return outs

    # drift-robust protocol: the box's background load drifts on a minutes
    # timescale, which injects error straight into the single/concurrent
    # ratio.  Measure the UNCONTENDED baseline both BEFORE and AFTER the
    # concurrent phase and use the mean — first-order drift cancels.
    single_a = _collect([_spawn(0)])[0]
    procs = [_spawn(i) for i in range(n_nodes)]
    nodes = _collect(procs)
    single_b = _collect([_spawn(0)])[0]
    base_dps = (single_a["docs_per_sec"] + single_b["docs_per_sec"]) / 2
    base_qps = (single_a["queries_per_sec"] + single_b["queries_per_sec"]) / 2
    agg_wall = max(n["build_s"] for n in nodes)
    agg_docs = sum(n["n_docs"] for n in nodes)
    agg_dps = agg_docs / agg_wall
    eff_build = agg_dps / (n_nodes * base_dps)
    agg_qps = sum(n["queries_per_sec"] for n in nodes)
    eff_query = agg_qps / (n_nodes * base_qps)
    return {
        "metric": "scaling_efficiency_nodes_build",
        "value": round(eff_build, 4),
        "unit": "ratio",
        "queries": {
            "single_node_docs_per_sec_pre": single_a["docs_per_sec"],
            "single_node_docs_per_sec_post": single_b["docs_per_sec"],
            "aggregate_docs_per_sec": round(agg_dps, 1),
            "single_node_qps_pre": single_a["queries_per_sec"],
            "single_node_qps_post": single_b["queries_per_sec"],
            "aggregate_qps": round(agg_qps, 1),
            **{
                f"node{i}_docs_per_sec": n["docs_per_sec"] for i, n in enumerate(nodes)
            },
        },
        "sf": -1.0,
        "n_docs": SCALE_DOCS,
        "num_cpus": n_nodes * cpus_per_node,
        "n_nodes": n_nodes,
        "cpus_per_node": cpus_per_node,
        "scaling_efficiency_query": round(eff_query, 4),
    }


def run_scaling(n_low: int, n_high: int) -> dict:
    """Same job, same input, two fresh processes at num_cpus=n_low / n_high
    — the sandbox stand-in for N vs 4N Ray nodes (BASELINE.json:14).  See
    BASELINE.md for the single-box caveat: past ~16 cores one machine's
    memory/IO backplane saturates, which a multi-node cluster does not."""

    def _one(n: int) -> dict:
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-child", str(n)],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        last = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
        if proc.returncode != 0 or not last:
            raise RuntimeError(f"bench subprocess ({n} cpus) failed:\n{proc.stderr[-3000:]}")
        return json.loads(last[-1])

    hi, lo = _one(n_high), _one(n_low)  # high first: generates the corpus fast
    factor = n_high / n_low
    eff_build = hi["docs_per_sec"] / (factor * lo["docs_per_sec"])
    eff_query = hi["queries_per_sec"] / (factor * lo["queries_per_sec"])
    return {
        "metric": "scaling_efficiency_build",
        "value": round(eff_build, 4),
        "unit": "ratio",
        "queries": {
            f"build_docs_per_sec_cpus{n_low}": lo["docs_per_sec"],
            f"build_docs_per_sec_cpus{n_high}": hi["docs_per_sec"],
            f"query_qps_cpus{n_low}": lo["queries_per_sec"],
            f"query_qps_cpus{n_high}": hi["queries_per_sec"],
            f"build_sec_cpus{n_low}": lo["build_s"],
            f"build_sec_cpus{n_high}": hi["build_s"],
        },
        "sf": -1.0,
        "n_docs": SCALE_DOCS,
        "num_cpus": n_high,
        "cpus_low": n_low,
        "cpus_high": n_high,
        "speedup_build": round(hi["docs_per_sec"] / lo["docs_per_sec"], 3),
        "scaling_efficiency_query": round(eff_query, 4),
    }


def run_skew_bench(num_cpus: int, n_docs: int = 1_000_000, reps: int = 2) -> dict:
    """VERDICT r4 #6: measure the SaltPlan payoff on a planted-skew corpus
    with the DEFAULT salting knobs (threshold 100k postings, 100k-posting
    target groups) vs salt_threshold = 2^62 (the ∞ of the brief).

    Corpus: 1M tiny docs (12 Zipf-1.2 tokens each) with ONE planted term in
    EVERY document — it owns ~9% of all (term, doc) postings, the 'one
    identifier appears in every file' shape a 100 TB source-code corpus
    actually has.  At this posting count a single encode group is a full
    task's worth of work, so without salting the planted term's bucket IS
    the encode-stage wall; with salting it splits into ~10 doc-range
    partials.  Reported wall is the min over reps per config (co-tenant
    noise suppression); the headline ratio is the encode stage, where the
    skew lives (ingest/tokenize are embarrassingly parallel either way)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        logging_level="ERROR",
    )
    import ray.data

    _quiet_empty_schema_warnings()
    import pyarrow.compute as pc

    from sharesci_ray.functions.text import flat_tokens
    from sharesci_ray.pipelines.build import BuildConfig, build_index
    from sharesci_ray.sources.synth import _vocab

    corpus_path = os.path.join(
        tempfile.gettempdir(), f"sharesci_skew_{n_docs}.parquet"
    )
    if not os.path.exists(corpus_path):
        rng = np.random.default_rng(42)
        vocab = np.array(_vocab(2000, rng))
        ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
        probs = ranks ** -1.2
        probs /= probs.sum()
        toks = vocab[
            rng.choice(len(vocab), size=(n_docs, 12), p=probs)
        ]
        contents = [" ".join(row) + " plantedhotterm" for row in toks]
        t = pa.table(
            {
                "repo": pa.array([f"org{i % 7}/repo{i % 23}" for i in range(n_docs)]),
                "path": pa.array([f"src/f{i}.py" for i in range(n_docs)]),
                "commit": pa.array([f"c{i:012d}" for i in range(n_docs)]),
                "lang": pa.array(["py"] * n_docs),
                "content": pa.array(contents),
            }
        )
        pq.write_table(t, corpus_path)

    @ray.remote(num_cpus=1)
    def _spin() -> int:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return 0

    ray.get([_spin.remote() for _ in range(num_cpus)])
    warm_dir = os.path.join(tempfile.gettempdir(), "sharesci_skew_warm")
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_index(
        ray.data.read_parquet(corpus_path).limit(200),
        warm_dir,
        BuildConfig(n_buckets=8),
        resume=False,
    )
    shutil.rmtree(warm_dir, ignore_errors=True)

    def pairs_partial(t) -> "pa.Table":
        import pyarrow as pa

        flat, parent = flat_tokens(t["content"])
        g = (
            pa.table({"d": pa.array(parent), "t": flat})
            .group_by(["d", "t"])
            .aggregate([([], "count_all")])
        )
        hot = int(pc.sum(pc.equal(g["t"], "plantedhotterm")).as_py() or 0)
        return pa.table({"n_pairs": pa.array([g.num_rows], pa.int64()),
                         "n_hot": pa.array([hot], pa.int64())})

    import pyarrow as pa  # noqa: F401  (pairs_partial's closure)

    corpus = ray.data.read_parquet(corpus_path)
    agg = corpus.map_batches(pairs_partial, batch_format="pyarrow").sum(
        ["n_pairs", "n_hot"]
    )
    n_pairs, n_hot = int(agg["sum(n_pairs)"]), int(agg["sum(n_hot)"])

    # bucket count ~ cores/2: at 100 TB each encode group IS a full task's
    # worth of work, so the hot bucket is the stage wall — 2*cpus buckets
    # would dilute the skew the bench exists to show
    n_buckets = 16
    walls: dict[str, list[float]] = {"salted": [], "unsalted": []}
    encode_s: dict[str, list[float]] = {"salted": [], "unsalted": []}
    hot_detected = None
    import json as _json

    for _ in range(reps):
        for mode, thr in (("salted", 10_000), ("unsalted", 1 << 62)):
            bdir = os.path.join(tempfile.gettempdir(), f"sharesci_skewidx_{mode}")
            shutil.rmtree(bdir, ignore_errors=True)
            t0 = time.perf_counter()
            build_index(
                ray.data.read_parquet(corpus_path),
                bdir,
                BuildConfig(n_buckets=n_buckets, salt_threshold=thr),
                resume=False,
            )
            walls[mode].append(time.perf_counter() - t0)
            m = _json.load(
                open(os.path.join(bdir, "manifests", "segments.json"))
            )
            encode_s[mode].append(
                float(m.get("metrics", {}).get("encode_write_s", 0.0))
            )
            if mode == "salted" and hot_detected is None:
                hot_detected = sorted(m.get("metrics", {}).get("hot_terms", {}))
            shutil.rmtree(bdir, ignore_errors=True)
    ray.shutdown()
    salted = min(walls["salted"])
    unsalted = min(walls["unsalted"])
    enc_salted = min(encode_s["salted"])
    enc_unsalted = min(encode_s["unsalted"])
    return {
        "metric": "skew_bench",
        "value": round(enc_unsalted / enc_salted, 3),
        "unit": "ratio(unsalted/salted encode-stage wall)",
        "salted_s": round(salted, 3),
        "unsalted_s": round(unsalted, 3),
        "salted_encode_s": round(enc_salted, 3),
        "unsalted_encode_s": round(enc_unsalted, 3),
        "salted_walls": [round(x, 3) for x in walls["salted"]],
        "unsalted_walls": [round(x, 3) for x in walls["unsalted"]],
        "salted_encode_walls": [round(x, 3) for x in encode_s["salted"]],
        "unsalted_encode_walls": [round(x, 3) for x in encode_s["unsalted"]],
        "n_docs": n_docs,
        "n_postings": n_pairs,
        "hot_share": round(n_hot / n_pairs, 4),
        "hot_terms_detected": hot_detected,
        "n_buckets": n_buckets,
        "num_cpus": num_cpus,
        "host_probe": run_host_probe(),
    }


def _burn(_: int) -> float:
    """Fixed-work arithmetic loop (module-level: Pool workers must be able
    to pickle it)."""
    import math

    x = 0.0
    for i in range(12_000_000):
        x += math.sqrt(i)
    return x


def run_host_probe() -> dict:
    """Engine-independent host-health check: fixed-work CPU scaling at
    8-wide vs 32-wide (multiprocessing, one arithmetic loop per process —
    no Ray, no memory pressure).  On a healthy 32-core box the 32-wide
    speedup is ~25-32×; during co-tenant oversubscription windows it drops
    to well under 24×, and ANY concurrent node-sim / scale-up measurement
    taken in such a window reads a fraction of its true value (all nodes
    uniformly depressed, uncontended baselines healthy).  Run this BEFORE
    trusting --scaling / --scaling-nodes numbers; re-measure when
    `usable_32wide` is true."""
    import multiprocessing as mp

    t0 = time.time()
    _burn(0)
    single = time.time() - t0
    out: dict = {"metric": "host_probe", "unit": "ratio",
                 "single_task_s": round(single, 3)}
    for n in (8, 32):
        t0 = time.time()
        with mp.Pool(n) as p:
            p.map(_burn, range(n))
        wall = time.time() - t0
        out[f"speedup_{n}wide"] = round(n * single / wall, 1)
    out["value"] = round(out["speedup_32wide"] / 32, 4)
    out["usable_32wide"] = out["speedup_32wide"] >= 24.0
    try:
        out["loadavg_1m"] = round(os.getloadavg()[0], 2)
    except OSError:
        pass
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument(
        "--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    )
    ap.add_argument("--n-queries", type=int, default=200)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument(
        "--scaling-nodes",
        action="store_true",
        help="N vs 4N simulated NODES (taskset-pinned processes, own Ray "
        "runtime + object store each) — the measurement that maps to the "
        "contract's two-cluster-size criterion",
    )
    ap.add_argument(
        "--host-probe",
        action="store_true",
        help="engine-independent CPU-width health check; run before "
        "trusting --scaling/--scaling-nodes numbers (co-tenant "
        "oversubscription makes concurrent measurements meaningless)",
    )
    ap.add_argument(
        "--skew",
        action="store_true",
        help="planted-skew build: one term owning ~5%% of all postings, "
        "salting on vs salt_threshold=inf (the number that justifies "
        "SaltPlan at 100x)",
    )
    ap.add_argument("--scaling-child", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--node-child", nargs=4, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--cpus-low", type=int, default=8)
    ap.add_argument("--n-nodes", type=int, default=4)
    ap.add_argument("--cpus-per-node", type=int, default=8)
    args = ap.parse_args()

    if args.host_probe:
        out = run_host_probe()
    elif args.skew:
        out = run_skew_bench(args.num_cpus)
    elif args.scaling_child is not None:
        out = run_scaling_child(args.scaling_child)
    elif args.node_child is not None:
        cpu_list, lo, hi, ncpu = args.node_child
        out = run_node_child(cpu_list, int(lo), int(hi), int(ncpu))
    elif args.scaling_nodes:
        out = run_scaling_nodes(args.n_nodes, args.cpus_per_node)
    elif args.scaling:
        out = run_scaling(args.cpus_low, args.num_cpus)
    else:
        out = run_bench(args.sf_dir, args.num_cpus, args.n_queries)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
