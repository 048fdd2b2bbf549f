"""Small shared pipeline utilities: the cluster CPU probe, shuffle
parallelism sizing, the empty-block heal, and ``join`` — the one equi-join
every registry op calls instead of ``Dataset.join``, and the only place
that knows Ray 2.49's join failure modes.

(ref: n/a — SURVEY.md §0: reference checkout empty.)
"""

from __future__ import annotations

import pyarrow as pa
import ray.data


def cluster_cpus(default: int = 8) -> int:
    """Cluster CPU count, ``default`` when Ray is uninitialised — the one
    probe every parallelism heuristic shares."""
    import ray as _ray

    try:
        return int(_ray.cluster_resources().get("CPU", default))
    except Exception:  # pragma: no cover - uninitialised Ray
        return default


def join_partitions(
    *datasets: ray.data.Dataset,
    bytes_per_partition: int = 64 << 20,
    lo: int = 4,
) -> int:
    """Shuffle parallelism for ``Dataset.join`` / wide exchanges, sized from
    what is known WITHOUT executing the plan: the plan-inferable input size
    (parquet footer metadata survives projections) and the cluster CPU count.

    A hard-coded small constant (the round-2 shape) is a 4-reducer
    bottleneck the moment data grows; a bare CPU-proportional number
    over-partitions tiny dimension joins.  So: when any input's size is
    statically known, one partition per ``bytes_per_partition`` (clamped to
    [lo, 4·cpus]); when nothing is known, half a partition per core — wide
    enough that no reducer sees more than ~2 cores' worth of data, small
    enough not to drown sf0.01 joins in scheduling.
    """
    cpus = cluster_cpus()
    size = 0
    for ds in datasets:
        try:
            s = ds._logical_plan.dag.infer_metadata().size_bytes
        except Exception:
            s = None
        if s:
            size = max(size, int(s))
    if size:
        need = -(-size // bytes_per_partition)
        return int(min(max(lo, need), 4 * cpus))
    return max(lo, cpus // 2)


def _blocks(ds: ray.data.Dataset) -> tuple[list, int, int]:
    """Materialize ``ds`` once: its non-empty block refs, rows and bytes,
    all read from bundle metadata (no block is fetched)."""
    refs, rows, size = [], 0, 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                refs.append(ref)
                rows += meta.num_rows
                size += meta.size_bytes or 0
    return refs, rows, size


def drop_empty_blocks(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """Materialize ``ds`` and drop its 0-row blocks.

    Ray 2.49 loses the schema of empty blocks (a 0-row block is stored with
    ZERO columns): a sparse-keyed ``groupby``/shuffle emits such blocks for
    empty partitions, and a ``map_batches`` passes them through unchanged
    (it never calls its fn on a 0-row block; see ``topk.partial_topk``).
    ``join`` heals its inputs and output with this; ops call it only to
    give a possibly-empty returned output its columns.  Only block REFS
    travel through the driver (row counts come from the bundle metadata —
    no block is fetched), so it is safe at any data size.

    ``schema`` is used when every block is empty — the healed dataset then
    is a single typed empty block instead of a schema-less one.
    """
    refs = _blocks(ds)[0]
    if not refs:
        return ray.data.from_arrow(schema.empty_table())
    return ray.data.from_arrow_refs(refs)


# The one broadcast gate: a join side whose materialized size is under this
# many bytes is shipped to every block of the other side instead of
# shuffling both.  Monkeypatch to 0 in tests to force the shuffle path.
BROADCAST_CAP_BYTES = 32 << 20

# join type -> (keeps unmatched left rows, keeps unmatched right rows):
# what survives when the other side has no rows
_KEEPS = {
    "inner": (False, False),
    "left_outer": (True, False),
    "left_semi": (False, False),
    "full_outer": (True, True),
}


def _pad(schema: pa.Schema, rename: dict[str, str]):
    """Batch fn: one side's rows as the join's output, the other side's
    columns null (an outer join against a zero-row side)."""

    def pad(t: pa.Table) -> pa.Table:
        t = t.rename_columns([rename.get(c, c) for c in t.column_names])
        return pa.table(
            [
                t[f.name] if f.name in t.column_names else pa.nulls(t.num_rows, f.type)
                for f in schema
            ],
            names=schema.names,
        )

    return pad


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: tuple[str, ...],
    how: str,
    schema: pa.Schema,
    right_on: tuple[str, ...] | None = None,
) -> ray.data.Dataset:
    """``left.join(right, join_type=how, on=on, right_on=right_on)`` for
    ``how`` in {inner, left_outer, left_semi, full_outer}, with Ray 2.49's
    join failure modes handled here, once, for every op.

    ``schema`` is the join's output schema (left columns, then the right's
    non-key columns); it types the result when a side has no rows.  Both
    sides are materialized once and healed of 0-row blocks, which Ray
    stores schema-less (a sparse ``groupby`` emits them, and a join
    partition that receives only those dies with "No match ... for key
    field").  Then, from block metadata alone:

    * a side with zero rows: Ray's join crashes on a zero-row left side
      even when every block is typed, so the result is built directly —
      empty, or the other side's rows null-padded where ``how`` keeps
      them;
    * a side under ``BROADCAST_CAP_BYTES`` whose unmatched rows ``how``
      drops (either side of an inner join, the right of ``left_*``, never
      for ``full_outer``): it is put in the
      object store once and joined to every block of the other side in
      ``map_batches``.  That is the pyarrow ``Table.join`` call Ray's own
      join runs per partition (``JoiningShuffleAggregation.finalize``), so
      key coalescing, null keys and column order are the same;
    * otherwise ``Dataset.join`` with ``join_partitions`` shuffle
      parallelism, its output healed the same way.
    """
    on = tuple(on)
    right_on = tuple(right_on or on)
    keep_l, keep_r = _KEEPS[how]
    (lrefs, lrows, lsize), (rrefs, rrows, rsize) = _blocks(left), _blocks(right)
    if not lrows or not rrows:
        if lrows and keep_l:
            return ray.data.from_arrow_refs(lrefs).map_batches(
                _pad(schema, {}), batch_format="pyarrow", batch_size=None
            )
        if rrows and keep_r:  # full outer: keys coalesce under the left names
            return ray.data.from_arrow_refs(rrefs).map_batches(
                _pad(schema, dict(zip(right_on, on))),
                batch_format="pyarrow", batch_size=None,
            )
        return ray.data.from_arrow(schema.empty_table())
    verb = how.replace("_", " ")
    sides = [] if keep_r else [(rsize, True)]
    if how == "inner":
        sides.append((lsize, False))
    small = min(sides, default=None)  # the smaller broadcastable side
    if small is not None and small[0] < BROADCAST_CAP_BYTES:
        bcast_right = small[1]
        tbl_ref = ray.put(
            pa.concat_tables(
                ray.get(rrefs if bcast_right else lrefs), promote_options="default"
            )
        )

        def bcast(t: pa.Table) -> pa.Table:
            lt, rt = (t, ray.get(tbl_ref)) if bcast_right else (ray.get(tbl_ref), t)
            return lt.join(rt, join_type=verb, keys=list(on), right_keys=list(right_on))

        return ray.data.from_arrow_refs(lrefs if bcast_right else rrefs).map_batches(
            bcast, batch_format="pyarrow", batch_size=None
        )
    left, right = ray.data.from_arrow_refs(lrefs), ray.data.from_arrow_refs(rrefs)
    out = left.join(
        right, join_type=how, num_partitions=join_partitions(left, right),
        on=on, right_on=right_on,
    )
    return drop_empty_blocks(out, schema)
