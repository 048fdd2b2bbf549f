"""Hypothesis property tests for the pure kernels (SURVEY.md §5.2):
codec roundtrips over arbitrary value distributions (every decode fast path
and the general path), tokenizer scalar/vectorized agreement on arbitrary
unicode, minhash permutation bounds, block-max interval scoring against
brute-force per-doc sums, and the grouped top-k kernel against per-key
brute-force sorts (including merge-of-partials ≡ top-k of the union)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from sharesci_ray.functions.codecs import (
    delta_decode,
    delta_encode,
    varbyte_decode,
    varbyte_encode,
)
from sharesci_ray.functions.dedup import P31, minhash_signatures
from sharesci_ray.functions.text import flat_tokens, tokenize


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 127),            # 1-byte band
            st.integers(128, 16383),        # 2-byte band
            st.integers(16384, 2**21 - 1),  # 3-byte band
            st.integers(0, 2**63 - 1),      # anything
        ),
        min_size=0,
        max_size=300,
    )
)
def test_varbyte_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    out = varbyte_decode(varbyte_encode(arr))
    assert out.dtype == np.uint64 and (out == arr).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=0, max_size=200))
def test_delta_roundtrip_property(vals):
    arr = np.sort(np.array(vals, dtype=np.int64))
    assert (delta_decode(delta_encode(arr)) == arr).all()


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
def test_tokenize_scalar_equals_vectorized(text):
    scalar = tokenize(text)
    flat, parent = flat_tokens(pa.array([text], pa.string()))
    assert flat.to_pylist() == scalar
    assert (parent == 0).all()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 2**60 - 1), min_size=1, max_size=50),
    st.integers(1, 5),
)
def test_minhash_bounds_and_permutation_invariance(hashes, n_rows):
    h = np.array(hashes, dtype=np.int64)
    parent = np.array([i % n_rows for i in range(h.size)], dtype=np.int64)
    rows, sigs = minhash_signatures(h, parent, n_rows)
    assert (sigs >= 0).all() and (sigs < P31).all()
    # permuting the shingle order must not change any signature
    perm = np.random.RandomState(0).permutation(h.size)
    rows2, sigs2 = minhash_signatures(h[perm], parent[perm], n_rows)
    assert (rows == rows2).all() and (sigs == sigs2).all()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20),      # ts (small domain -> many ties)
            st.integers(-5, 5),      # cents
            st.booleans(),           # is_left
        ),
        min_size=0,
        max_size=40,
    )
)
def test_asof_merge_matches_bruteforce(rows):
    """asof_merge_group ≡ brute force: every left row matches the greatest
    right ts ≤ its own; right (ts)-ties resolve to max cents; no-match
    left rows drop (inner semantics)."""
    from sharesci_ray.pipelines.ops_relational import asof_merge_group

    us = pa.timestamp("us")
    group = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([1] * len(rows), pa.int64()),
            "ts": pa.array([r[0] for r in rows], pa.int64()).cast(us),
            "cents": pa.array([r[1] for r in rows], pa.int64()),
            "is_left": pa.array([1 if r[2] else 0 for r in rows], pa.int8()),
        }
    )
    got = asof_merge_group(group)
    want = {}  # event_id -> (view_ts, view_cents)
    rights = [(t, c) for t, c, l in rows if not l]
    for eid, (t, _c, is_l) in enumerate(rows):
        if not is_l:
            continue
        cand = [(rt, rc) for rt, rc in rights if rt <= t]
        if cand:
            best_ts = max(rt for rt, _ in cand)
            best_c = max(rc for rt, rc in cand if rt == best_ts)
            want[eid] = (best_ts, best_c)
    got_map = {
        int(e): (int(vt), int(vc))
        for e, vt, vc in zip(
            got["event_id"].to_pylist(),
            got["view_ts"].cast(pa.int64()).to_pylist(),
            got["view_cents"].to_pylist(),
        )
    }
    assert got_map == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),  # any non-surrogate
            min_size=0,
            max_size=700,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_chunk_explode_matches_python_slicing(texts):
    """chunk_explode's codepoint semantics on arbitrary unicode: chunk j of
    doc t == t[j·stride : j·stride + W] by PYTHON (codepoint) slicing, with
    exactly n_chunks_of(len) chunks per doc — the ASCII testdata can't
    exercise multi-byte codepoints, so this pins the kernel directly."""
    import pyarrow as pa

    from sharesci_ray.pipelines.ops_text import (
        CHUNK_STRIDE,
        CHUNK_W,
        chunk_explode,
        n_chunks_of,
    )

    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = chunk_explode(batch)
    got: dict[int, dict[int, str]] = {}
    for did, cid, chunk, n in zip(
        out["doc_id"].to_pylist(),
        out["chunk_id"].to_pylist(),
        out["chunk"].to_pylist(),
        out["n_chunk_chars"].to_pylist(),
    ):
        got.setdefault(did, {})[cid] = chunk
        assert n == len(chunk)
    for i, t in enumerate(texts):
        n = n_chunks_of(len(t))
        assert sorted(got[i]) == list(range(n)), (i, len(t))
        for j in range(n):
            assert got[i][j] == t[j * CHUNK_STRIDE : j * CHUNK_STRIDE + CHUNK_W]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(  # k position lists, each nonempty, values in a small range
        st.lists(st.integers(0, 40), min_size=1, max_size=8),
        min_size=2,
        max_size=4,
    )
)
def test_min_cover_span_matches_bruteforce(pos_lists):
    """query.py:_min_cover_span == exhaustive min over the cartesian
    product of one position per list (the definition)."""
    from itertools import product

    from sharesci_ray.pipelines.query import _min_cover_span

    uniq = [sorted(set(p)) for p in pos_lists]
    ev = np.concatenate(
        [
            np.stack(
                [np.array(p, dtype=np.int64), np.full(len(p), i, dtype=np.int64)],
                axis=1,
            )
            for i, p in enumerate(uniq)
        ]
    )
    ev = ev[np.argsort(ev[:, 0], kind="stable")]
    got = _min_cover_span(ev, len(uniq))
    expect = min(max(c) - min(c) for c in product(*uniq))
    assert got == expect


@settings(max_examples=200, deadline=None)
@given(
    st.lists(  # (etype, day, ts, eid) events; eids deduped below
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 5),
            st.integers(0, 100),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_ffill_pick_last_matches_pandas(rows):
    """daily_value_ffill's lexsort last-of-run pick == pandas idxmax over
    the (ts, eid) tuple per (etype, day) — with unique eids, as in the
    events table."""
    import pandas as pd

    from sharesci_ray.pipelines.ops_relational import _pick_last as pick_last

    # dedupe eids (events have unique event_id)
    seen, uniq_rows = set(), []
    for r in rows:
        if r[3] not in seen:
            seen.add(r[3])
            uniq_rows.append(r)
    etype = np.array([r[0] for r in uniq_rows])
    day = np.array([r[1] for r in uniq_rows], dtype=np.int64)
    ts = np.array([r[2] for r in uniq_rows], dtype=np.int64)
    eid = np.array([r[3] for r in uniq_rows], dtype=np.int64)

    idx = pick_last(etype, day, ts, eid)
    got = {(etype[i], int(day[i])): (int(ts[i]), int(eid[i])) for i in idx}

    df = pd.DataFrame({"e": etype, "d": day, "t": ts, "i": eid})
    expect = {
        (e, int(d)): (int(g["t"].iloc[-1]), int(g["i"].iloc[-1]))
        for (e, d), g in df.sort_values(["t", "i"]).groupby(["e", "d"])
    }
    assert got == expect
    assert len(idx) == len(expect)


# ---------------------------------------------------------------------------
# dedup_spans window kernel: arbitrary corpora vs a brute-force reference
# ---------------------------------------------------------------------------

_SPAN_WORDS = ["alpha", "beta", "gamma", "delta", "omega"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_SPAN_WORDS), min_size=0, max_size=12),
        min_size=1,
        max_size=8,
    )
)
def test_span_windows_match_brute_force(docs):
    """_span_windows must emit exactly the K-token windows of each doc
    (1-based starts, never crossing rows) with the md5-int60 hash of the
    space-joined gram — compared against a per-doc Python enumeration."""
    from sharesci_ray.functions.dedup import md5_int60
    from sharesci_ray.pipelines.ops_dedup import _SPAN_K, _span_windows

    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array([" ".join(d) for d in docs], pa.string()),
        }
    )
    w = _span_windows(t)
    got = sorted(
        zip(w["doc_id"].to_pylist(), w["s"].to_pylist(), w["gh"].to_pylist())
    )
    exp = []
    for i, d in enumerate(docs):
        for s in range(len(d) - _SPAN_K + 1):
            gram = " ".join(d[s : s + _SPAN_K])
            exp.append((i, s + 1, int(md5_int60([gram])[0])))
    assert got == sorted(exp)


# ---------------------------------------------------------------------------
# PQ / IVF integer kernels vs brute-force references
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 60))
def test_hll_rho_frexp_is_exact(seed, bits):
    """The frexp-based floor(log2(w)) must be exact for every w < 2^50 —
    the HLL register rule's only float step."""
    rng = np.random.RandomState(seed % 2**32)
    w = rng.randint(1, 2**min(bits, 50), size=64, dtype=np.int64)
    got = np.frexp(w.astype(np.float64))[1] - 1
    exp = np.array([int(x).bit_length() - 1 for x in w])
    assert (got == exp).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pq_encode_matches_brute_force(seed):
    """pq_encode's per-subspace argmax (ties → smallest code) must equal
    a per-row Python brute force on random integer lattices."""
    from sharesci_ray.functions import vectors as vx

    rng = np.random.RandomState(seed % 2**32)
    quant = rng.randint(-5, 6, size=(7, vx.VEC_DIM)).astype(np.int64)
    cb = rng.randint(-5, 6, size=(vx.PQ_M, vx.PQ_K, vx.PQ_SUB)).astype(np.int64)
    got = vx.pq_encode(quant, cb)
    for i in range(quant.shape[0]):
        for m in range(vx.PQ_M):
            sub = quant[i, m * vx.PQ_SUB:(m + 1) * vx.PQ_SUB]
            dots = [int(sub @ cb[m, c]) for c in range(vx.PQ_K)]
            best = max(range(vx.PQ_K), key=lambda c: (dots[c], -c))
            assert got[i, m] == best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ivf_assign_ties_to_smallest_cid(seed):
    """ivf_assign must pick the smallest centroid id among exact integer
    dot ties (the SQL twin's ORDER BY d DESC, cid rule)."""
    from sharesci_ray.functions import vectors as vx

    rng = np.random.RandomState(seed % 2**32)
    cent = rng.randint(-3, 4, size=(5, vx.VEC_DIM)).astype(np.int64)
    cent[3] = cent[1]  # planted duplicate centroid → guaranteed ties
    quant = rng.randint(-3, 4, size=(9, vx.VEC_DIM)).astype(np.int64)
    got = vx.ivf_assign(quant, cent)
    dots = quant @ cent.T
    for i in range(9):
        best = dots[i].max()
        assert got[i] == int(np.flatnonzero(dots[i] == best)[0])


def _block_max_lists(terms, block_size, slack):
    """(doc ids, contributions) per term → score_block_max input lists."""
    from sharesci_ray.functions.codecs import block_layout

    lists = []
    for docs in terms:
        d = np.array(sorted(docs), dtype=np.int64)
        c = np.array([docs[x] for x in sorted(docs)], dtype=np.float64)
        first, bmax = block_layout(d, c, block_size)
        lists.append((d, c, first, bmax * slack))
    return lists


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        # per term: doc id → contribution; few distinct values force exact
        # score ties at the k-th place, empty dicts are OOV terms
        st.dictionaries(
            st.integers(0, 80),
            st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(1e-3, 10.0)),
            max_size=40,
        ),
        max_size=5,
    ),
    st.integers(1, 8),
    st.integers(1, 50),
    st.sampled_from([1.0, 1.0, 1.7, 4.0]),
)
def test_score_block_max_matches_bruteforce(terms, block_size, k, slack):
    """Interval block-max scoring ≡ brute-force per-doc sums (terms added in
    list order) cut by top_k_with_ties — ids and score bits."""
    from sharesci_ray.functions.bm25 import top_k_with_ties
    from sharesci_ray.pipelines.query import score_block_max

    sums: dict[int, float] = {}
    for docs in terms:
        for d in sorted(docs):
            sums[d] = sums.get(d, 0.0) + docs[d]
    ids = np.array(sorted(sums), dtype=np.int64)
    exp_d, exp_s = top_k_with_ties(ids, np.array([sums[d] for d in ids.tolist()]), k)
    got_d, got_s, n = score_block_max(_block_max_lists(terms, block_size, slack), k)
    assert got_d.tolist() == exp_d.tolist()
    assert got_s.tolist() == exp_s.tolist()
    assert n <= sum(len(t) for t in terms)


def test_score_block_max_prunes_skewed_query():
    """A rare high-weight term clustered in one block sets a threshold no
    other interval of the common term can reach: most postings are skipped."""
    from sharesci_ray.pipelines.query import score_block_max

    common = {d: 0.1 for d in range(0, 2000, 2)}
    rare = {d: 5.0 for d in (1000, 1002, 1004)}
    lists = _block_max_lists([common, rare], 8, 1.0)
    d, s, n = score_block_max(lists, 3)
    assert d.tolist() == [1000, 1002, 1004]
    assert s.tolist() == [0.1 + 5.0] * 3
    assert n < len(common) + len(rare)


# ---- grouped top-k kernel (functions/topk.py) -----------------------------

_CANDS = st.lists(
    # (key, id, score): small domains force exact score ties at the k-th
    # place and repeated ids across keys
    st.tuples(st.integers(0, 4), st.integers(0, 30), st.integers(-3, 3)),
    max_size=60,
)


def _cand_arrays(cands, float_scores):
    keys = np.array([c[0] for c in cands], dtype=np.int64)
    ids = np.array([c[1] for c in cands], dtype=np.int64)
    scores = np.array([c[2] for c in cands], dtype=np.int64)
    return keys, ids, (scores / 4.0 if float_scores else scores)


def _brute_topk(keys, ids, scores, k):
    """Per key: sorted(..., key=(-score, id))[:k] — stable on full ties."""
    out = []
    for key in sorted(set(keys.tolist())):
        rows = [i for i in range(keys.size) if keys[i] == key]
        rows = sorted(rows, key=lambda i: (-scores[i], ids[i]))[:k]
        out += [(i, r) for r, i in enumerate(rows, start=1)]
    return out


@settings(max_examples=300, deadline=None)
@given(_CANDS, st.integers(1, 70), st.booleans(), st.sets(st.integers(0, 4)))
def test_topk_rows_matches_bruteforce(cands, k, float_scores, masked_keys):
    """topk_rows ≡ per-key brute force, rows and ranks — int64 and float
    scores, k = 1 and k > n, 0 rows, and keys whose candidates are all
    masked out before the cut."""
    from sharesci_ray.functions.topk import topk_rows

    cands = [c for c in cands if c[0] not in masked_keys]
    keys, ids, scores = _cand_arrays(cands, float_scores)
    rows, ranks = topk_rows(keys, ids, scores, k)
    assert list(zip(rows.tolist(), ranks.tolist())) == _brute_topk(
        keys, ids, scores, k
    )


@settings(max_examples=300, deadline=None)
@given(
    _CANDS,
    st.integers(1, 12),
    st.booleans(),
    st.lists(st.integers(0, 60), max_size=6),
    st.booleans(),
)
def test_final_topk_of_partials_equals_union_topk(
    cands, k, float_scores, cuts, dupes
):
    """The distributed invariant: for ANY split of the candidates into
    batches, final_topk over the per-batch partial_topk rows equals the
    top-k of the whole union (and ``dedupe`` equals the top-k of the
    distinct (key, id) pairs when pairs arrive in several batches)."""
    import pyarrow.compute as pc

    from sharesci_ray.functions import topk as tk

    # one score per (key, id): a repeated pair carries the same score
    uniq = {(c[0], c[1]): c for c in cands}
    cands = list(uniq.values())
    if dupes:  # every pair arrives twice, in different batches
        cands = cands + cands[::-1]
    keys, ids, scores = _cand_arrays(cands, float_scores)
    stype = pa.float64() if float_scores else pa.int64()
    part_schema = pa.schema(
        [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("score", stype)]
    )
    out_schema = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()),
         ("neighbor_id", pa.int64()), ("score", stype)]
    )
    bounds = [0, *sorted(c for c in cuts if c < keys.size), keys.size]
    partials = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):

        @tk.partial_topk(k, part_schema, dedupe=dupes)
        def score(_batch, lo=lo, hi=hi):
            return keys[lo:hi], ids[lo:hi], scores[lo:hi]

        partials.append(score(pa.table({"row": np.arange(hi - lo)})))
    merged = pa.concat_tables(partials)
    got = tk.final_topk(merged, k, out_schema, dedupe=dupes)

    n = len(uniq) if dupes else keys.size  # the distinct pairs come first
    want = _brute_topk(keys[:n], ids[:n], scores[:n], k)
    assert got.schema == out_schema
    assert list(
        zip(got["query_id"].to_pylist(), got["rank"].to_pylist(),
            got["neighbor_id"].to_pylist(), got["score"].to_pylist())
    ) == [(keys[i], r, ids[i], scores[i]) for i, r in want]
    # the per-key merge Ray's map_groups runs gives the same rows
    for key in set(keys.tolist()):
        g = tk.final_topk(
            merged.filter(pc.equal(merged["query_id"], key)), k, out_schema,
            dedupe=dupes,
        )
        assert g.equals(got.filter(pc.equal(got["query_id"], key)))
