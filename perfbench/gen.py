"""Seeded benchmark inputs: source files, tiny config files, query logs and
maintenance rounds.

Everything here is a pure function of its ``numpy.random.Generator`` (or of
the seed that makes one), so one seed always yields byte-identical inputs.
The generator is the benchmark's own: the program under test only ever sees
the Parquet files and query tables written from these.

Corpus rows have the engine's native shape (repo, path, commit, lang,
content), all strings.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_TERMS = 2000
ZIPF_S = 1.2
MIN_TOKENS, MAX_TOKENS = 50, 2000  # symbols per source file
DUP_FRAC = 0.05  # source files that copy an earlier file's content
# one write round: new files, overwritten live paths, delete calls and the
# live keys each deletes
ROUND_NEW, ROUND_OVERWRITE, ROUND_DELETES, DELETE_KEYS = 40, 4, 3, 7
_GOLDEN = (5**0.5 - 1) / 2

_STEMS = [
    "get", "set", "load", "store", "parse", "emit", "read", "write", "open",
    "close", "index", "query", "token", "score", "block", "bucket", "node",
    "tree", "list", "map", "hash", "key", "value", "item", "buffer", "cursor",
    "reader", "writer", "config", "handler", "client", "server", "stream",
    "batch", "frame", "page", "cache", "count", "total", "init",
]
_LANGS = ["py", "js", "java", "go", "rs", "md"]
_LANG_P = [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]
_PUNCT = ["(", ")", "{", "}", ";", ":", "=", ".", ",", "->", "==", "+"]

# every tiny config file opens with this header: its identifiers gain one
# posting per file, which pushes them past the salting threshold
LICENSE_HEADER = (
    "# Copyright 2024 Example Authors. SPDX-License-Identifier: Apache-2.0\n"
    "# Licensed under the Apache License, Version 2.0 (the \"License\")\n"
)
# config keys share no word with the source vocabulary, so queries (drawn
# from that vocabulary) never touch the config files' posting lists
_CONFIG_WORDS = [
    "replicas", "port", "image", "memory", "region", "zone", "endpoint",
    "secret", "volume", "mount", "probe", "ingress", "egress", "label",
    "selector", "tier", "quota", "shard", "proxy", "tls",
]
CONFIG_DIR = "deploy/"  # path prefix of every config file
_CONFIG_KEYS = [f"{a}_{b}" for a in _CONFIG_WORDS for b in ("timeout", "retries", "path", "mode", "limit")]


def vocab() -> list[str]:
    """Code-style identifiers in Zipf rank order: snake_case, camelCase and
    plain stems with a numeric suffix (the tokenizer splits all three)."""
    out = []
    n = len(_STEMS)
    for i in range(VOCAB_TERMS):
        a, b = _STEMS[i % n], _STEMS[(i * 7 + 3) % n]
        style = i % 3
        if style == 0:
            out.append(f"{a}_{b}{i % 97}")
        elif style == 1:
            out.append(f"{a}{b.capitalize()}{i % 53}")
        else:
            out.append(f"{a}{i}")
    return out


def _commit(tag: str, i: int) -> str:
    return hashlib.sha256(f"{tag}:{i}".encode()).hexdigest()[:12]


def source_files(n: int, rng: np.random.Generator, tag: str = "src") -> pa.Table:
    """``n`` source files: Zipf(1.2) identifiers, punctuation, numbers and
    newlines, 50-2000 symbols each; ``DUP_FRAC`` of them copy the content of
    an earlier file (exact duplicates, so score ties exist).

    File lengths are evenly spaced over that range and shuffled, so every
    seed yields the same total amount of text."""
    words = vocab()
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p_word = ranks**-ZIPF_S
    p_word *= 0.80 / p_word.sum()
    symbols = np.array(words + _PUNCT + ["\n"], dtype=object)
    p = np.concatenate([p_word, np.full(len(_PUNCT), 0.12 / len(_PUNCT)), [0.08]])
    p /= p.sum()

    lens = rng.permutation(np.linspace(MIN_TOKENS, MAX_TOKENS, n).round().astype(np.int64))
    total = int(lens.sum())
    toks = symbols[rng.choice(len(symbols), size=total, p=p)]
    numeric = rng.random(total) < 0.04
    toks[numeric] = [str(v) for v in rng.integers(0, 10_000, size=int(numeric.sum()))]
    ends = np.cumsum(lens)
    contents = [" ".join(toks[e - k : e].tolist()) for e, k in zip(ends, lens)]
    n_dup = int(n * DUP_FRAC)
    if n_dup and n > n_dup:
        src = rng.integers(0, n - n_dup, size=n_dup)
        for j, s in enumerate(src):
            contents[n - n_dup + j] = contents[int(s)]

    langs = np.array(_LANGS)[rng.choice(len(_LANGS), size=n, p=_LANG_P)]
    return pa.table(
        {
            "repo": pa.array([f"org{i % 7}/{tag}{i % 23}" for i in range(n)], pa.string()),
            "path": pa.array([f"src/m{i % 13}/f{i}.{langs[i]}" for i in range(n)], pa.string()),
            "commit": pa.array([_commit(tag, i) for i in range(n)], pa.string()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def config_files(n: int, rng: np.random.Generator) -> pa.Table:
    """``n`` tiny config files: the shared license header plus 1-4
    ``key = value`` lines."""
    n_lines = rng.integers(1, 5, size=n)
    keys = rng.integers(0, len(_CONFIG_KEYS), size=int(n_lines.sum()))
    vals = rng.integers(0, 5000, size=int(n_lines.sum()))
    contents, j = [], 0
    for k in n_lines:
        body = "".join(
            f"{_CONFIG_KEYS[keys[j + m]]} = v{vals[j + m]}\n" for m in range(int(k))
        )
        contents.append(LICENSE_HEADER + body)
        j += int(k)
    return pa.table(
        {
            "repo": pa.array([f"org{i % 5}/cfg{i % 11}" for i in range(n)], pa.string()),
            "path": pa.array([f"{CONFIG_DIR}svc{i % 97}/conf{i}.yaml" for i in range(n)], pa.string()),
            "commit": pa.array([_commit("cfg", i) for i in range(n)], pa.string()),
            "lang": pa.array(["yaml"] * n, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def query_log(n: int, rng: np.random.Generator) -> pa.Table:
    """(query_id, text): 1-5 identifiers each; every fifth term is out of
    vocabulary, the others walk the vocabulary's percentile bands of Zipf
    rank.

    The mix is stratified — query lengths cycle 1..5 and term slots step
    through the 100 rank bands — so every seed and every prefix of the log
    has the same shape.  Successive visits to a band walk through its words
    at golden-ratio steps from a seeded start, so the seed moves the walk but
    every log covers each band evenly.  (Drawing a decile per term, or a
    word per visit, lets the count of head terms, which dominate scoring
    cost, swing from seed to seed.)"""
    words = vocab()
    start = rng.random(100)
    visits = [0] * 100
    texts, slot = [], 0
    for q in range(n):
        terms = []
        for _ in range(1 + q % 5):
            if slot % 5 == 4:
                terms.append(f"zzqx{int(rng.integers(0, 1000))}nope")
            else:
                band = (slot * 37) % 100
                lo, hi = band * len(words) // 100, (band + 1) * len(words) // 100
                step = (start[band] + visits[band] * _GOLDEN) % 1.0
                terms.append(words[lo + int(step * (hi - lo))])
                visits[band] += 1
            slot += 1
        texts.append(" ".join(terms))
    return pa.table(
        {"query_id": pa.array(np.arange(n), pa.int64()), "text": pa.array(texts, pa.string())}
    )


def maintenance_round(
    live: list[tuple[str, str]], seed: int, rnd: int
) -> tuple[pa.Table, pa.Table, list[list[tuple[str, str]]]]:
    """One write round against the ``live`` (repo, path) keys:
    ``(delta, small, gone)``.

    ``delta`` holds ``ROUND_NEW`` fresh files plus ``ROUND_OVERWRITE``
    rewrites of live paths; its terms reach every term bucket.  ``small`` is
    one new file of two vocabulary words, so an update with it touches at
    most two buckets.  ``gone`` holds ``ROUND_DELETES`` lists of
    ``DELETE_KEYS`` other live source-file keys, one list per delete call."""
    rng = np.random.default_rng([seed, 7919, rnd])
    delta = source_files(ROUND_NEW + ROUND_OVERWRITE, rng, tag=f"upd{rnd}_")
    order = rng.permutation(len(live))
    over = [live[i] for i in order[:ROUND_OVERWRITE]]
    # deletes remove source files only: their terms reach every bucket, so
    # every delete takes the full re-encode.  A delete of config files takes
    # the bucket-scoped one or the full one as the avgdl drift decides, and
    # on the build corpus the two differ by about 1.6x.
    src = [live[i] for i in order[ROUND_OVERWRITE:] if not live[i][1].startswith(CONFIG_DIR)]
    gone = [src[j * DELETE_KEYS : (j + 1) * DELETE_KEYS] for j in range(ROUND_DELETES)]
    repos = delta["repo"].to_pylist()
    paths = delta["path"].to_pylist()
    for j, (r, p) in enumerate(over):
        repos[ROUND_NEW + j], paths[ROUND_NEW + j] = r, p
    delta = delta.set_column(0, "repo", pa.array(repos, pa.string()))
    delta = delta.set_column(1, "path", pa.array(paths, pa.string()))

    # every third vocabulary word is a plain stem + number: a single token
    a, b = (vocab()[3 * int(j) + 2] for j in rng.integers(0, VOCAB_TERMS // 3, size=2))
    small = pa.table(
        {
            "repo": pa.array(["org0/small"], pa.string()),
            "path": pa.array([f"src/small{rnd}.py"], pa.string()),
            "commit": pa.array([_commit("small", rnd)], pa.string()),
            "lang": pa.array(["py"], pa.string()),
            "content": pa.array([f"{a} {b} {a}"], pa.string()),
        }
    )
    return delta, small, gone


def write_parquet_files(table: pa.Table, out_dir: str, n_files: int) -> None:
    """Split ``table`` into ``n_files`` Parquet files with small row groups
    (a real corpus has many files; Ray splits reads at row groups)."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        f = os.path.join(out_dir, f"part-{i:04d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), f, row_group_size=625)
