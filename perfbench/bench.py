"""One benchmark run: one workload, one seed, one process.

Run through ``perfbench/run.py``, which supervises this module in a child
process.  The run generates its inputs from the seed and starts a local Ray
session with ``RAY_CPUS`` logical CPUs.  Set-up then builds the index once,
opens it three times for serving (``setup_s``) and warms the serving actor.
The measured part repeats slices of five operations, each slice running
them as often as ``MIX`` gives:

  build     a fresh ``build_index(read_corpus(dir), ...)``
  query     one query at a time through a warm ``scorer="auto"`` actor
  bmw       the next log queries, each once, through a ``scorer="bmw"`` actor
  batch     the whole query log through ``run_queries(...).take_all()``
  maintain  ``update_index`` with a large and with a one-file delta,
            ``delete_docs`` and a fresh in-process ``ScorerActor``
            answering a query sample cold

Traced runs add spans around every call and time public stage functions in
isolation for the per-layer metrics.  Only calls into public functions of
``sources``, ``pipelines.build`` and ``pipelines.query`` are timed for the
end-to-end metrics.  Every output is checked against ``tests/oracle.py``
after the call that produced it, outside its timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import gen, host
from perfbench.calls import Calls, Stall, Tracer

# Ray logical CPUs.  At 1, run_queries stalls in Repartition when a scorer
# actor holds the only CPU; at 2 its pool actor and the repartition tasks
# each get one, on any host.
RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
K = 10
LOG_QUERIES = 400      # query-log length (query and batch phases)
PROBE_QUERIES = 30     # build check
COLD_QUERIES = 100     # maintain: queries on the fresh scorer of each round
RUN_BUDGET_S = 160     # hard stop for calls into the program
# Timings are reported at this host speed: seconds of ``host.loop_s()``.
# Each run scales its timings by REF_LOOP_S / (the run's median loop time).
REF_LOOP_S = 0.025
MEASURE_CAP_S = 110    # no new slice starts past this point of the run

# Salting thresholds scaled with the corpus: the build workload's 2,000
# header-sharing files push the header identifiers past them, so the salted
# encode path does real work (the defaults need >100k postings per term).
BUILD_CFG = dict(n_buckets=16, salt_threshold=1_200, salt_target_group=600)

# Both workloads run the same operations; they differ in corpus shape.
WORKLOADS = {
    "build": dict(n_src=150, n_cfg=2_000, n_files=16),
    "serve": dict(n_src=500, n_cfg=0, n_files=8),
}
# Operations per slice.  Slices repeat until --seconds have passed and every
# operation has MINIMUMS samples.
MIX = dict(build=1, query=100, bmw=134, batch=1, maintain=1)
# bmw: every log query once, 20 samples beyond p95; builds, batch calls and
# write rounds: a median of 3, which also keeps out the slower first call of
# a process.  More samples would take a run past a minute on a loaded host.
MINIMUMS = dict(build=3, query=300, bmw=400, batch=3, maintain=3)


def make_inputs(workload: str, seed: int, out_dir: str) -> tuple[pa.Table, pa.Table]:
    """Corpus (written to ``out_dir`` as multi-file Parquet) and query log for
    one workload and seed."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    parts = [gen.source_files(spec["n_src"], rng)]
    if spec["n_cfg"]:
        parts.append(gen.config_files(spec["n_cfg"], rng))
    corpus = pa.concat_tables(parts)
    gen.write_parquet_files(corpus, out_dir, spec["n_files"])
    return corpus, gen.query_log(LOG_QUERIES, rng)


def median(xs: list[float]) -> float:
    return float(statistics.median(xs))


def pct(xs: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    s = sorted(xs)
    return float(s[max(0, min(len(s), math.ceil(q * len(s) / 100)) - 1)])


def _same(ids: np.ndarray, scores: np.ndarray, expected: list[tuple[int, float]]) -> bool:
    return ids.tolist() == [d for d, _ in expected] and scores.tolist() == [
        s for _, s in expected
    ]


def _listing(d: str) -> dict[str, tuple[int, int, int]]:
    out = {}
    for root, _dirs, files in os.walk(d):
        for f in files:
            st = os.stat(os.path.join(root, f))
            out[os.path.join(root, f)] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def _rewritten_bytes(before: dict, after: dict) -> int:
    return sum(v[0] for p, v in after.items() if before.get(p) != v)


def _dir_bytes(d: str) -> int:
    return sum(v[0] for v in _listing(d).values())


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.spec = WORKLOADS[workload]
        self.t_start = time.perf_counter()
        self.tracer = Tracer(trace)
        self.calls = Calls(self.tracer, self.t_start + RUN_BUDGET_S)
        self.work = os.path.join(root, ".perfbench_tmp", f"{workload}-{seed}-{os.getpid()}")
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.context: dict = {"workload": workload, "seed": seed, "ray_cpus": RAY_CPUS}
        self.samples: dict[str, list] = defaultdict(list)
        self.manifests: list[dict] = []
        self.rss: list[float] = []
        self.ray_tmp: str | None = None
        self.q_pos = self.b_pos = self.rounds = self.n_updates = 0

    # ---- inputs and oracle ------------------------------------------------
    def make_inputs(self) -> None:
        import tests.oracle as oracle_mod

        self.corpus_dir = os.path.join(self.work, "corpus")
        self.corpus, log = make_inputs(self.workload, self.seed, self.corpus_dir)
        self.log = log
        self.texts = log["text"].to_pylist()
        self.content_bytes = int(pc.sum(pc.binary_length(self.corpus["content"])).as_py())
        # the oracle is rebuilt after every maintenance round; tokenizing each
        # distinct content once keeps that cheap without changing any result
        if not hasattr(oracle_mod.tokenize, "cache_info"):
            tok = oracle_mod.tokenize
            oracle_mod.tokenize = functools.lru_cache(maxsize=None)(lambda s: tuple(tok(s)))
        self.Oracle = oracle_mod.OracleIndex
        self.oracle = self.Oracle(self.corpus)
        self.expected = {t: self.oracle.score(t, K) for t in set(self.texts)}
        self.context["n_docs"] = self.corpus.num_rows
        self.context["content_bytes"] = self.content_bytes

    def start_ray(self) -> None:
        import ray
        import ray.data

        kw = {}
        tmp = os.path.join(self.root, ".pbr")
        # Ray's socket paths must fit in 107 bytes (about 64 past the temp dir)
        if len(tmp) <= 43:
            os.makedirs(tmp, exist_ok=True)
            self.ray_tmp = tmp
            kw["_temp_dir"] = tmp
        else:
            print("perfbench: checkout path too long for Ray sockets; using Ray's default temp dir", file=sys.stderr)
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            **kw,
        )
        ray.data.DataContext.get_current().enable_progress_bars = False

    # ---- set-up: base index, serving actors -------------------------------
    def setup(self) -> None:
        from sharesci_ray.pipelines.build import BuildConfig
        from sharesci_ray.pipelines.query import ScorerActor

        self.cfg = BuildConfig(**BUILD_CFG)
        # the first build of a process also starts Ray workers and imports
        # modules: it gives the serving index, not a sample
        self.index = os.path.join(self.work, "index")
        self._build(self.index)
        seg_bytes = _dir_bytes(os.path.join(self.index, "stage=segments"))
        self.e2e["index_bytes_per_content_byte"] = seg_bytes / self.content_bytes
        self.open_index()
        for t in dict.fromkeys(self.texts):  # warm the actor's decoded-postings cache
            self.calls.get("query.warmup", self.auto_actor.score_query, t)
        self.maintained = os.path.join(self.work, "maintained")
        shutil.copytree(self.index, self.maintained)
        self.live = {(r["repo"], r["path"]): r for r in self.corpus.to_pylist()}
        if self.trace:
            self.local_auto, _ = self.calls.run("open.local", ScorerActor, self.index, k=K, scorer="auto")
            self.calls.run("query.warmup", lambda: [self.local_auto.score_query(t) for t in dict.fromkeys(self.texts)])
            self.local_bmw, _ = self.calls.run("open.local", ScorerActor, self.index, k=K, scorer="bmw")

    def open_index(self) -> None:
        """``setup_s``: segment refs loaded and a scorer actor answering, three
        times.  The scorer kind does not change what opening costs; the last
        two actors stay up to serve.  They reserve no CPU, so builds, writes
        and run_queries proceed beside them."""
        import ray
        from sharesci_ray.pipelines.query import ScorerActor, shared_segment_refs

        remote = ray.remote(num_cpus=0)(ScorerActor)

        def load_refs():
            refs = shared_segment_refs(self.index)
            ray.get(list(refs.values()))
            return refs

        setups, actors = [], []
        for kind in ("auto", "bmw", "auto"):
            self._settle()
            t0 = time.perf_counter()
            refs, _ = self.calls.run("open.refs", load_refs)
            actors.append(remote.remote(self.index, k=K, scorer=kind, bucket_refs=refs))
            self.calls.get("open.actor", actors[-1].score_query, "", timeout=60)
            setups.append(time.perf_counter() - t0)
        self.samples["setup"] = setups
        ray.kill(actors[0])
        self.bmw_actor, self.auto_actor = actors[1:]

    # ---- measured operations ----------------------------------------------
    def _build(self, bd: str) -> float:
        """One fresh build of the whole corpus into ``bd``, then its probe
        check → build seconds."""
        from sharesci_ray.pipelines.build import build_index
        from sharesci_ray.sources.corpus import read_corpus

        _, dt = self.calls.run(
            "build.build_index", lambda: build_index(read_corpus(self.corpus_dir), bd, self.cfg), timeout=120
        )
        self._check_probe(bd)
        return dt

    def op_build(self, n: int) -> None:
        """``n`` fresh builds, each removed after its check."""
        bd = os.path.join(self.work, "rebuild")
        for _ in range(n):
            dt = self._build(bd)
            self.samples["build"].append(dt)
            self.manifests.append(self._read_manifests(bd, dt))
            shutil.rmtree(bd)

    def op_query(self, n: int) -> None:
        """``n`` queries, one at a time, through the warm auto actor.

        Traced runs send each query twice, once traced and once bare, in
        alternating order.  A bare iteration is what an untraced run does;
        a traced one adds the spans and the paired in-process score.  Their
        walls give the tracing overhead."""
        for _ in range(n):
            t = self.texts[self.q_pos % len(self.texts)]
            modes = (True, False) if self.q_pos % 2 else (False, True)
            for traced in modes if self.trace else (False,):
                self.tracer.enabled = traced
                t0 = time.perf_counter()
                (ids, scores), dt = self.calls.get("query.handle", self.auto_actor.score_query, t, timeout=10)
                if traced:
                    _, dl = self.calls.run("query.score_auto", self.local_auto.score_query, t)
                    self.samples["rpc"].append(dt - dl)
                else:
                    self.samples["query"].append(dt)
                self.calls.check(_same(ids, scores, self.expected[t]), f"auto {t!r}")
                self.samples["iter_traced" if traced else "iter_bare"].append(time.perf_counter() - t0)
            self.tracer.enabled = self.trace
            self.q_pos += 1

    def op_bmw(self, n: int) -> None:
        """The next ``n`` log queries through the BMW actor, each once (none
        once the log is used up)."""
        for t in self.texts[self.b_pos : self.b_pos + n]:
            (ids, scores), dt = self.calls.get("bmw.handle", self.bmw_actor.score_query, t, timeout=30)
            self.samples["bmw"].append(dt)
            self.calls.check(_same(ids, scores, self.expected[t]), f"bmw {t!r}")
            if self.trace:
                self.calls.run("query.score_bmw", self.local_bmw.score_query, t, timeout=30)
        self.b_pos += n

    def op_batch(self, n: int) -> None:
        """``n`` calls of the whole log through ``run_queries(...)``, its rows
        fetched to this process; each query's rows, in rank order, must be the
        oracle's (doc id, score) list."""
        import ray
        from sharesci_ray.pipelines.query import run_queries

        for _ in range(n):
            rows, dt = self.calls.run(
                "batch.run_queries",
                lambda: run_queries(
                    self.index, ray.data.from_arrow(self.log), k=K, scorer="auto", concurrency=1
                ).take_all(),
                timeout=90,
            )
            self.samples["batch"].append(dt)
            got = defaultdict(list)
            for r in sorted(rows, key=lambda r: (r["query_id"], r["rank"])):
                got[r["query_id"]].append((r["doc_id"], r["score"]))
            for qid, t in zip(self.log["query_id"].to_pylist(), self.texts):
                self.calls.check(got.pop(qid, []) == list(self.expected[t]), f"run_queries {t!r}")
            self.calls.check(not got, f"run_queries rows for unknown query ids {sorted(got)[:5]}")

    def op_maintain(self, n: int) -> None:
        """``n`` write rounds: a large update, ``gen.ROUND_DELETES`` deletes,
        in the first round a one-file update, then a fresh scorer answering
        the query sample cold; the oracle checks each round.

        The one-file update comes last: a delete after the bucket-scoped
        re-encode it takes runs about a third slower than one after a full
        re-encode, so every delete follows a full one."""
        from sharesci_ray.pipelines.build import delete_docs, update_index
        from sharesci_ray.pipelines.query import ScorerActor
        from sharesci_ray.sources.corpus import corpus_from_table

        md = self.maintained
        sample = self.texts[:COLD_QUERIES]

        def update(kind: str, rows: pa.Table) -> None:
            self._write(kind, update_index, md, corpus_from_table(rows))
            with open(os.path.join(md, "manifests", f"update-{self.n_updates}.json")) as f:
                um = json.load(f)["metrics"]
            self.n_updates += 1
            self.samples["partial"].append(um.get("reencode_mode") == "partial")
            self.samples[f"{kind}_buckets"].append(um.get("affected_buckets", BUILD_CFG["n_buckets"]))
            for r in rows.to_pylist():
                self.live[(r["repo"], r["path"])] = r

        for _ in range(n):
            delta, small, gone = gen.maintenance_round(sorted(self.live), self.seed, self.rounds)
            update("update", delta)
            for keys in gone:
                self._write("delete", delete_docs, md, keys)
                with open(os.path.join(md, "manifests", "segments.json")) as f:
                    sm = json.load(f)["metrics"]
                self.samples["delete_buckets"].append(len(sm.get("affected_buckets", range(BUILD_CFG["n_buckets"]))))
                with open(os.path.join(md, "manifests", f"delete-{len(self.samples['delete']) - 1}.json")) as f:
                    self.samples["delete_mode"].append(json.load(f)["metrics"]["reencode_mode"])
                for key in keys:
                    del self.live[key]
            if self.rounds == 0:  # the bucket-scoped re-encode
                update("update_small", small)

            self._settle()
            scorer, dt = self.calls.run("maintain.reload", ScorerActor, md, k=K, scorer="auto")
            self.samples["reload"].append(dt)
            answers = []
            for t in sample:
                res, dt = self.calls.run("maintain.cold_query", scorer.score_query, t)
                self.samples["cold"].append(dt)
                answers.append(res)
            if self.trace:
                for t in sample:
                    self.samples["warm"].append(self.calls.run("maintain.warm_query", scorer.score_query, t)[1])
            self._check_maintained(sample, answers)
            self.rounds += 1

    def _settle(self) -> None:
        """Wait for the process tree to go idle, then sample the host's
        speed; both untimed."""
        self.samples["settle"].append(host.settle())
        self.samples["speed"].append(host.loop_s())

    def _write(self, kind: str, fn, *args) -> None:
        """One timed write call on the maintained index; its wall goes to
        ``samples[kind]``, the segment bytes it rewrote to
        ``samples[kind + "_rewritten"]``."""
        seg_dir = os.path.join(self.maintained, "stage=segments")
        before = _listing(seg_dir)
        self._settle()
        _, dt = self.calls.run(f"maintain.{kind}", fn, *args, timeout=90)
        self.samples[kind].append(dt)
        self.samples[f"{kind}_rewritten"].append(_rewritten_bytes(before, _listing(seg_dir)))

    def measure(self) -> None:
        """Interleave the operations in slices until every minimum sample
        count is met and ``--seconds`` have passed; past ``--seconds`` a
        slice runs only the operations still short of their minimum.  Host
        speed drifts within a run; interleaving spreads every metric's
        samples over it."""
        # samples per operation: a maintain round yields one "update" sample
        key = dict(build="build", query="query", bmw="bmw", batch="batch", maintain="update")
        t_end = time.perf_counter() + self.seconds
        i, op_s = 0, defaultdict(float)
        while time.perf_counter() < t_end or any(len(self.samples[key[op]]) < n for op, n in MINIMUMS.items()):
            if time.perf_counter() - self.t_start > MEASURE_CAP_S:
                self.calls.notes.append("measurement cap reached")
                break
            for op, n in MIX.items():
                if time.perf_counter() >= t_end and len(self.samples[key[op]]) >= MINIMUMS[op]:
                    continue
                self._settle()
                t0 = time.perf_counter()
                getattr(self, f"op_{op}")(n)
                op_s[op] += time.perf_counter() - t0
            i += 1
        self.context["slices"] = i
        self.context["op_s"] = {op: round(v, 2) for op, v in op_s.items()}
        self.context["samples"] = {k: len(v) for k, v in self.samples.items()}
        self.context["settle_s"] = round(sum(self.samples["settle"]), 2)
        self.context["write_s"] = {k: [round(x, 3) for x in self.samples[k]] for k in ("update", "update_small", "delete")}
        self.context["delete_mode"] = self.samples["delete_mode"]

    def _check_maintained(self, sample: list[str], answers: list[tuple]) -> None:
        """(doc key, score) lists must equal the oracle over the surviving
        corpus.  Engine and oracle ids differ after writes, so docs tied on
        score may be listed in another order: each engine doc must be one
        the oracle scores exactly the same."""
        keys = {}
        for root, _dirs, files in os.walk(os.path.join(self.maintained, "stage=docvec")):
            for f in files:
                if f.endswith(".parquet"):
                    t = pq.read_table(os.path.join(root, f), columns=["doc_id", "repo", "path"])
                    keys.update(zip(t["doc_id"].to_pylist(), zip(t["repo"].to_pylist(), t["path"].to_pylist())))
        oracle = self.Oracle(pa.Table.from_pylist(list(self.live.values()), schema=self.corpus.schema))
        for t, (ids, scores) in zip(sample, answers):
            full = oracle.score(t, k=oracle.n_docs)
            want = [s for _, s in full[:K]]
            tied = defaultdict(set)
            for d, s in full:
                if not want or s < want[-1]:
                    break
                tied[s].add((oracle.doc_meta[d]["repo"], oracle.doc_meta[d]["path"]))
            got = [keys.get(d) for d in ids.tolist()]
            ok = scores.tolist() == want and len(set(got)) == len(got) and all(
                k in tied[s] for k, s in zip(got, want)
            )
            self.calls.check(ok, f"maintained {t!r}")

    def _read_manifests(self, bd: str, wall: float) -> dict:
        ms = {}
        for st in ("docvec", "stats", "segments"):
            with open(os.path.join(bd, "manifests", f"{st}.json")) as f:
                ms[st] = json.load(f)
        seg = ms["segments"]["metrics"]
        named = sum(seg.get(k, 0.0) for k in ("slim_mat_s", "hot_pass_s", "encode_write_s"))
        return {
            "wall": wall,
            "docvec": ms["docvec"]["wall_s"],
            "stats": ms["stats"]["wall_s"],
            "segments": ms["segments"]["wall_s"],
            "hot_pass_s": seg.get("hot_pass_s", 0.0),
            "encode_write_s": seg.get("encode_write_s", 0.0),
            "unattributed_s": ms["segments"]["wall_s"] - named,
            "hot_terms": sorted(seg.get("hot_terms", {})),
            "bytes_written": _dir_bytes(bd),
        }

    def _check_probe(self, bd: str) -> None:
        from sharesci_ray.pipelines.query import ScorerActor

        scorer, _ = self.calls.run("check.open", ScorerActor, bd, k=K, scorer="daat")
        for t in self.texts[:PROBE_QUERIES]:
            (ids, scores), _ = self.calls.run("check.probe", scorer.score_query, t)
            self.calls.check(_same(ids, scores, self.expected[t]), f"build probe {t!r}")

    def summarize(self) -> None:
        """End-to-end metrics and the per-layer numbers read from samples,
        spans and manifests."""
        smp, ms = self.samples, self.manifests
        # end-to-end timings at the reference host speed (f < 1 on a slow run)
        f = REF_LOOP_S / median(smp["speed"])
        raw = {
            "setup_s": median(smp["setup"]),
            "build_docs_per_s": self.corpus.num_rows / median(smp["build"]),
            "query_p50_ms": median(smp["query"]) * 1e3,
            "bmw_p50_ms": median(smp["bmw"]) * 1e3,
            "bmw_p95_ms": pct(smp["bmw"], 95) * 1e3,
            "batch_qps": len(self.texts) / median(smp["batch"]),
            "update_p50_s": median(smp["update"]),
            "delete_p50_s": median(smp["delete"]),
            "cold_query_p50_ms": median(smp["cold"]) * 1e3,
        }
        for name, v in raw.items():
            self.e2e[name] = v / f if name in ("build_docs_per_s", "batch_qps") else v * f
        self.context["host_factor"] = round(f, 4)
        self.context["speed"] = [round(x, 5) for x in smp["speed"]]
        self.context["raw"] = raw
        self.context["hot_terms"] = [m["hot_terms"] for m in ms]

        lay = self.layer
        for name in ("docvec", "stats", "segments"):
            lay[f"{name}.wall_s"] = median([m[name] for m in ms])
        for name in ("hot_pass_s", "encode_write_s", "unattributed_s"):
            lay[f"segments.{name}"] = median([m[name] for m in ms])
        lay["segments.hot_terms"] = median([len(m["hot_terms"]) for m in ms])
        lay["build.stage_cover_frac"] = median([(m["docvec"] + m["stats"] + m["segments"]) / m["wall"] for m in ms])
        lay["build.bytes_written_per_content_byte"] = median([m["bytes_written"] for m in ms]) / self.content_bytes
        lay["update.affected_buckets"] = median(smp["update_buckets"])
        lay["update.partial_frac"] = sum(smp["partial"]) / len(smp["partial"])
        lay["update.small_s"] = median(smp["update_small"])
        lay["update.small_affected_buckets"] = median(smp["update_small_buckets"])
        lay["delete.affected_buckets"] = median(smp["delete_buckets"])
        lay["maintain.segment_bytes_rewritten"] = median(smp["update_rewritten"] + smp["delete_rewritten"])
        lay["update.small_bytes_rewritten"] = median(smp["update_small_rewritten"])
        lay["maintain.reload_s"] = median(smp["reload"])
        if self.trace:
            lay["maintain.cold_minus_warm_ms"] = (median(smp["cold"]) - median(smp["warm"])) * 1e3
            lay["query.refs_load_s"] = median(self.tracer.durations("open.refs"))
            lay["query.actor_init_s"] = median(self.tracer.durations("open.actor"))
            lay["query.score_auto_us"] = median(self.tracer.durations("query.score_auto")) * 1e6
            lay["query.score_bmw_ms"] = median(self.tracer.durations("query.score_bmw")) * 1e3
            lay["query.rpc_ms"] = median(smp["rpc"]) * 1e3
            lay["trace.overhead_frac"] = median(smp["iter_traced"]) / median(smp["iter_bare"]) - 1.0

    def layers(self) -> None:
        """Traced runs only: public stage functions timed in isolation on the
        run's inputs, the batch split, and counts."""
        import ray
        from sharesci_ray.functions.codecs import encode_postings
        from sharesci_ray.functions.text import flat_tokens, tokenize
        from sharesci_ray.pipelines.query import ScorerActor
        from sharesci_ray.sources.corpus import read_corpus
        from sharesci_ray.stages.docvec import add_fingerprint, assign_doc_ids

        lay = self.layer
        lay["sources.read_s"] = self.calls.run("sources.read", lambda: read_corpus(self.corpus_dir).materialize())[1]
        lay["text.tokenize_s"] = self.calls.run("text.flat_tokens", flat_tokens, self.corpus["content"])[1]
        keyed = self.calls.run("docvec.add_fingerprint", add_fingerprint, self.corpus)[0].drop_columns(["content"])
        bounds = np.linspace(0, keyed.num_rows, self.spec["n_files"] + 1).astype(int)
        blocks = [keyed.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
        lay["docvec.assign_doc_ids_s"] = self.calls.run(
            "docvec.assign_doc_ids", lambda: assign_doc_ids(ray.data.from_arrow(blocks)).materialize()
        )[1]
        lists = [
            (np.array([d for d, _ in pl], np.int64), np.array([f for _, f in pl], np.int64))
            for pl in self.oracle.postings.values()
        ]
        enc, lay["codecs.encode_s"] = self.calls.run(
            "codecs.encode_postings", lambda: [encode_postings(d, v) for d, v in lists]
        )
        lay["codecs.bytes_per_posting"] = sum(len(a) + len(b) for a, b in enc) / sum(d.size for d, _ in lists)

        # run_queries' pool actor starts cold on every call: so do these
        def score_each(scorer) -> float:
            total = 0.0
            for t in self.texts:
                t0 = time.perf_counter()
                scorer.score_query(t)
                total += time.perf_counter() - t0
            return total

        cold, _ = self.calls.run("open.local", ScorerActor, self.index, k=K, scorer="auto")
        score_s, _ = self.calls.run("batch.score_query", score_each, cold)
        cold, _ = self.calls.run("open.local", ScorerActor, self.index, k=K, scorer="auto")
        _, call_s = self.calls.run(
            "batch.call", lambda: [cold(self.log.slice(lo, 32)) for lo in range(0, len(self.texts), 32)]
        )  # 32 = run_queries' batch_size
        lay["query.assembly_s"] = call_s - score_s
        lay["query.batch_fixed_s"] = median(self.samples["batch"]) - call_s

        seg = pq.read_table(os.path.join(self.index, "stage=segments"), columns=["term", "df"])
        df = defaultdict(int)
        for t, n in zip(seg["term"].to_pylist(), seg["df"].to_pylist()):
            df[t] += n
        lay["build.postings"] = float(sum(df.values()))
        lay["build.terms"] = float(len(df))
        per_q, n_tok, n_oov = [], 0, 0
        query_terms, _ = self.calls.run("text.tokenize", lambda: [sorted(set(tokenize(t))) for t in self.texts])
        for terms in query_terms:
            per_q.append(sum(df.get(t, 0) for t in terms))
            n_tok += len(terms)
            n_oov += sum(t not in df for t in terms)
        lay["query.postings_per_query"] = float(np.mean(per_q))
        lay["query.oov_frac"] = n_oov / max(n_tok, 1)
        lay["query.auto_bmw_frac"] = float(np.mean(np.array(per_q) > ScorerActor.AUTO_DAAT_MAX_POSTINGS))

    # ---- run --------------------------------------------------------------
    def execute(self) -> None:
        self.context["host_before"] = host.probe()
        steps = [("inputs", self.make_inputs), ("ray_init", self.start_ray), ("setup", self.setup),
                 ("measure", self.measure)]
        if self.trace:
            steps.append(("layers", self.layers))
        walls = self.context["step_s"] = {}
        for name, step in steps:
            t0 = time.perf_counter()
            try:
                with self.tracer.step(name):
                    step()
            except Stall as s:
                print(f"perfbench: stalled in {s}; skipping the remaining steps", file=sys.stderr)
                return
            walls[name] = round(time.perf_counter() - t0, 2)
            if name != "inputs":
                self.rss.append(host.rss_mb())
        self.e2e["rss_mb"] = max(self.rss)
        self.summarize()
        self.context["host_after"] = host.probe()
        self.context["steal_frac"] = host.steal_frac(self.context["host_before"], self.context["host_after"])

    def result(self, declared: dict) -> dict:
        c = self.calls
        self.e2e["ok_frac"] = 1.0 - c.failed / max(c.attempted, 1)
        values = self.layer if self.trace else self.e2e
        kind = "per_layer" if self.trace else "end_to_end"
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared[kind]
            if m["name"] in values
        }
        self.context["notes"] = c.notes[:20]
        return {
            "correct": c.failed == 0,
            "attempted": c.attempted,
            "failed": c.failed,
            "metrics": metrics,
        }

    def cleanup(self) -> None:
        """Write the spans; remove this run's inputs, indexes and Ray session
        directory (call after ``ray.shutdown``)."""
        if self.trace:
            self.tracer.write(os.path.join(self.root, ".perfbench_tmp", f"spans-{self.workload}-{self.seed}.jsonl"))
        shutil.rmtree(self.work, ignore_errors=True)
        if self.ray_tmp:
            # Ray names the session directory after the pid of the process that
            # started it
            for name in os.listdir(self.ray_tmp):
                if name.startswith("session_2") and name.endswith(f"_{os.getpid()}"):
                    shutil.rmtree(os.path.join(self.ray_tmp, name), ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.calls.close()
        import ray

        if ray.is_initialized():
            ray.shutdown()
        run.cleanup()
    out = run.result(declared)
    print(json.dumps({"context": run.context}, default=str))
    print(json.dumps(out))
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in declared[kind] if m["name"] not in out["metrics"]]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
