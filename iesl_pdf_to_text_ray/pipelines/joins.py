"""Distributed joins for Ray Data.

Ray Data 2.49 has a native ``Dataset.join`` (hash-shuffle inner, outer,
semi and anti joins).  This module keeps the shapes it does not offer
(SURVEY.md §2.D custom-operator patterns):

* ``broadcast_lookup`` — a small dimension built once in a worker task
  into a ``Lookup`` (sorted keys, aligned value columns), shipped
  through the object store and probed inside map_batches with an
  exact-match searchsorted.
  A key that misses is dropped, as the SQL inner ``JOIN`` drops it.
* ``hash_join`` — both sides hash-partitioned on the key into P coarse
  partitions, co-located by groupby(part), merged vectorized (pandas)
  inside each partition group, with an optional per-partition reduction
  folded into the merge (``merge_post``) and hot-key salting.  The two
  sides flow through one union with a *flat* combined schema (each side
  fills the other side's columns with nulls) — flat primitive columns
  shuffle/sort far faster than struct-wrapped rows.  One shuffle,
  bounded per-task memory (~|L|/P + |R|/P rows), P scales with the
  cluster.
* ``asof_join`` — backward as-of (latest right row at-or-before each
  left timestamp per key) with the same partitioning, merged with
  pandas merge_asof.

Column names must be disjoint across sides (callers rename first).
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _pd_table(df: pd.DataFrame, schema: pa.Schema | None = None) -> pa.Table:
    """from_pandas with the b'pandas' schema metadata stripped: blocks
    with and without that metadata hash as *different* schemas in Ray's
    shuffle dedup ("Failed to hash the schemas" warnings) even when the
    columns are identical."""
    t = pa.Table.from_pandas(df, preserve_index=False, schema=schema)
    return t.replace_schema_metadata(None)


def _part_of(col: pa.ChunkedArray, n_parts: int) -> np.ndarray:
    vals = col.to_pandas()
    # stable deterministic hash for any dtype (murmur-based, seed fixed)
    h = pd.util.hash_array(vals.to_numpy(), hash_key="0123456789123456")
    return (h % np.uint64(n_parts)).astype(np.int32)


def _arrow_type(t) -> pa.DataType:
    """Ray's Dataset.schema().types may hold Python/numpy types (e.g. for
    from_pandas object columns) — coerce to a pyarrow DataType."""
    if isinstance(t, pa.DataType):
        return t
    if isinstance(t, np.dtype):
        return pa.from_numpy_dtype(t)
    return {str: pa.string(), bytes: pa.binary(), int: pa.int64(),
            float: pa.float64(), bool: pa.bool_(),
            object: pa.string()}[t]


# ---------------------------------------------------------- broadcast lookup

class Lookup:
    """A broadcast dimension: sorted unique keys and value columns
    aligned with them, as numpy arrays (numeric ones reach a task from
    the object store without a copy)."""

    def __init__(self, keys: np.ndarray, values: dict[str, np.ndarray]):
        self.keys = keys
        self.values = values

    def __getitem__(self, col: str) -> np.ndarray:
        return self.values[col]

    def probe(self, query) -> tuple[np.ndarray, np.ndarray]:
        """Exact-match probe: (hit mask over ``query``, dimension row of
        each hit).  A key below the smallest, above the largest or
        between two dimension keys is a miss; it never raises and never
        picks up a neighbour's row."""
        query = np.asarray(query)
        pos = np.searchsorted(self.keys, query)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == query[hit]
        return hit, pos[hit]

    def join(self, df: pd.DataFrame, on: str, **cols: str) -> pd.DataFrame:
        """Inner join of ``df`` on its column ``on``: rows whose key
        misses are dropped, and each ``name=column`` of the dimension is
        attached to the rows that remain."""
        hit, row = self.probe(df[on].to_numpy())
        return df[hit].assign(**{name: self.values[c][row]
                                 for name, c in cols.items()})


def _build_lookup(key: str, values, path: str | None,
                  *tables: pa.Table) -> Lookup:
    """The build half of ``broadcast_lookup``, run in a worker task:
    reads ``key`` and ``values`` from the parquet file ``path`` (or from
    ``tables``), drops null keys, keeps the first row of a repeated key
    and sorts."""
    import pyarrow.dataset as pads
    cols = dict(values) if isinstance(values, Mapping) \
        else {c: pc.field(c) for c in values}
    source = path if path is not None else [t for t in tables if t.num_rows]
    if not source:
        return Lookup(np.empty(0, np.int64),
                      {c: np.empty(0) for c in cols})
    t = pads.dataset(source).to_table(
        columns={key: pc.field(key), **cols},
        filter=pc.field(key).is_valid())
    keys, first = np.unique(t.column(key).to_numpy(), return_index=True)
    return Lookup(keys, {c: t.column(c).to_numpy()[first] for c in cols})


def broadcast_lookup(sf_dir: str, table: str, key: str,
                     values: Sequence[str] | Mapping[str, pc.Expression]):
    """Object ref of the ``Lookup`` of ``table`` (a parquet file in
    ``sf_dir``) on ``key``, built in a worker task, never in the caller.

    ``values`` names the columns to carry, or maps output names to Arrow
    expressions evaluated in the build (e.g. a derived flag).  A chained
    dimension (customer -> nation -> name) is two lookups probed in
    turn, so each keeps numeric columns that reach a task without a copy
    and only the small end of the chain holds strings."""
    import ray
    return ray.remote(_build_lookup).remote(
        key, values, os.path.join(sf_dir, f"{table}.parquet"))


def _block_refs(ds) -> list:
    """Object refs of the blocks of one run of ``ds`` (Arrow blocks when
    its UDFs return Arrow tables).  Not ``to_arrow_refs``: on a UDF's
    output that runs a limit(1) schema probe after the run, which
    recomputes the first blocks and can abort the driver (see
    ``_with_schema``)."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]


def dataset_lookup(ds, key: str, values: Sequence[str] = ()):
    """Object ref of the ``Lookup`` of a (small) Dataset on ``key``: its
    blocks go to one worker task as object refs, never via the caller."""
    import ray
    return ray.remote(_build_lookup).remote(key, values, None,
                                            *_block_refs(ds))


def _topk_key_counts(ds, key: str, max_hot: int = 64) -> dict:
    """Per-batch partial top-``max_hot`` key counts, folded on the driver.

    Map-only pass; the collected partials are bounded at ``max_hot`` rows
    per block, so the driver-side fold is tiny regardless of data size.
    A key whose global count exceeds any realistic salting budget is, by
    pigeonhole, near the top of most batch-local counts, so the top-k
    partials are a faithful *hot-key detector* even though mid-tail
    counts are underestimates.
    """
    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column(key).to_pandas()
        vc = s.value_counts().head(max_hot)
        keys = pa.array(vc.index.to_numpy(),
                        type=batch.schema.field(key).type)
        return pa.table({"__k": keys,
                         "__c": pa.array(vc.to_numpy(), pa.int64())})

    def fold(batch: pa.Table) -> pa.Table:
        # sum per key, keep the top max_hot — keeps every fold's output
        # bounded so the driver-side collect is O(max_hot), never
        # O(blocks).  Top-k-of-sums is not exactly decomposable, but a
        # key hot enough to need salting dominates every fold it
        # touches, which is all a skew DETECTOR needs.
        df = pd.DataFrame({"__k": batch.column("__k").to_pandas(),
                           "__c": np.asarray(batch.column("__c"))})
        g = df.groupby("__k", sort=False)["__c"].sum() \
            .nlargest(max_hot).reset_index()
        return pa.table({
            "__k": pa.array(g["__k"].to_numpy(),
                            type=batch.schema.field("__k").type),
            "__c": pa.array(g["__c"].to_numpy(), pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    # two-level tree: 16 intermediate folds, then one root fold
    folded = parts.repartition(16) \
        .map_batches(fold, batch_format="pyarrow", batch_size=None) \
        .repartition(1) \
        .map_batches(fold, batch_format="pyarrow", batch_size=None)
    return {row["__k"]: row["__c"] for row in folded.take_all()}


def _salted_parts(vals: np.ndarray, side: int, n_parts: int,
                  base_part: np.ndarray, hot: dict):
    """Partition assignment with hot-key salting.

    ``hot``: {key: (offset, k)} — hot key's rows live in the dedicated
    partition range [offset, offset + k) past the ``n_parts`` hash range.
    Left (side 0) rows of a hot key are SPLIT round-robin across the k
    salted partitions; right (side 1) rows are REPLICATED into all k
    (the classic salt-the-probe / replicate-the-build recipe — correct
    for inner/left/semi/anti because each left row still meets every
    right row of its key exactly once).

    Returns (take_idx | None, parts): ``take_idx`` is None when no row
    needed replication (zero-copy fast path).
    """
    if not hot:
        return None, base_part
    parts = base_part.copy()
    hot_any = np.zeros(len(vals), dtype=bool)
    rep_idx, rep_parts = [], []
    for key, (off, k) in hot.items():
        m = vals == key
        cnt = int(m.sum())
        if not cnt:
            continue
        hot_any |= m
        if side == 0:
            parts[m] = off + (np.arange(cnt, dtype=np.int64) % k)
        else:
            ii = np.flatnonzero(m)
            rep_idx.append(np.tile(ii, k))
            rep_parts.append(np.repeat(
                np.arange(off, off + k, dtype=np.int64), cnt))
    if side == 0 or not rep_idx:
        return None, parts
    keep = np.flatnonzero(~hot_any)
    take_idx = np.concatenate([keep] + rep_idx)
    parts = np.concatenate([parts[keep]] + rep_parts).astype(np.int32)
    return take_idx, parts


def _with_schema(ds):
    """(ds, its schema), computing ``ds`` at most once.  A side whose
    schema is unknown until run (a UDF's output) is materialized:
    ``Dataset.schema()`` would run a limit(1) probe instead, whose early
    shutdown cancels the side's other in-flight tasks, and a cancel that
    races a task's reply aborts the driver (Ray 2.49 task_manager.cc
    "Tried to complete task that was not pending").  The shuffle that
    follows reads the whole side anyway."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema()
    return ds, schema


def _flat_union(left, right, left_key: str, right_key: str, n_parts: int,
                hot: dict | None = None):
    """Tag + widen both sides to one flat schema; returns (tagged_ds,
    l_names, r_names, out_schema)."""
    left, l_schema = _with_schema(left)
    right, r_schema = _with_schema(right)
    l_fields = [(n, _arrow_type(t))
                for n, t in zip(l_schema.names, l_schema.types)]
    r_fields = [(n, _arrow_type(t))
                for n, t in zip(r_schema.names, r_schema.types)
                if n not in l_schema.names]
    out_schema = pa.schema(l_fields + r_fields)

    def tag(side: int, on: str):
        def f(batch: pa.Table) -> pa.Table:
            part = _part_of(batch.column(on), n_parts)
            if hot:
                vals = batch.column(on).to_pandas().to_numpy()
                take_idx, part = _salted_parts(
                    vals, side, n_parts, part, hot)
                if take_idx is not None:
                    batch = batch.take(take_idx)
            n = batch.num_rows
            cols = {
                "part": pa.array(part.astype(np.int32), pa.int32()),
                "side": pa.array(np.full(n, side, dtype=np.int8),
                                 pa.int8())}
            mine = set(batch.column_names)
            for name, t in l_fields + r_fields:
                cols[name] = (batch.column(name) if name in mine
                              else pa.nulls(n, t))
            return pa.table(cols)
        return f

    tagged = (left.map_batches(tag(0, left_key), batch_format="pyarrow")
              .union(right.map_batches(tag(1, right_key),
                                       batch_format="pyarrow")))
    return tagged, l_schema.names, list(r_schema.names), out_schema


def _split_sides(group: pa.Table, l_names, r_names):
    sides = np.asarray(group.column("side"))
    lmask = pa.array(sides == 0)
    rmask = pa.array(sides == 1)
    ldf = group.select(l_names).filter(lmask).to_pandas()
    rdf = group.select(r_names).filter(rmask).to_pandas()
    return ldf, rdf


def hash_join(left, right, left_on: str, right_on: str, *,
              n_parts: int = 32, how: str = "inner",
              merge_post=None, post_schema: pa.Schema | None = None,
              salt_budget: int | None = None, max_salts: int = 16):
    """left/right: ray.data.Datasets with disjoint column names.  Returns
    a Dataset with the union of both sides' columns.

    ``merge_post(df) -> df``: optional per-partition post-processing of
    the joined frame (with ``post_schema`` pinning its output).  Because a
    join key's rows are fully co-located in one partition, key-grouped
    aggregation/top-k folded in here is *exact* and removes the second
    shuffle over the raw join output — the partial-within-the-join
    pattern.

    ``salt_budget``: hot-key skew guard.  When set, a map-only partial
    top-k count pass over the LEFT side detects keys whose row count
    exceeds the budget; each such key gets ceil(count/budget) dedicated
    salted partitions (capped at ``max_salts``) — left rows split
    round-robin, right rows replicated — so no single merge task ever
    holds more than ~budget left rows of one key.  Incompatible with
    ``merge_post`` (per-partition key aggregation would see a salted
    key's rows split across partitions and emit partial groups)."""
    hot: dict = {}
    if salt_budget is not None:
        if merge_post is not None:
            raise ValueError("salt_budget cannot be combined with "
                             "merge_post: salted keys span partitions, "
                             "so per-partition key aggregation would be "
                             "partial")
        if how not in ("inner", "left", "semi", "anti"):
            # replicate-the-build is only correct when unmatched RIGHT
            # rows never emit: an outer/right join would emit a hot
            # key's unmatched right replicas once per salt
            raise ValueError(f"salt_budget does not support how={how!r}")
        counts = _topk_key_counts(left, left_on)
        off = n_parts
        for key, cnt in sorted(counts.items(),
                               key=lambda kv: -kv[1]):
            if cnt <= salt_budget or key is None:
                continue
            k = min(max_salts, -(-cnt // salt_budget))
            hot[key] = (off, k)
            off += k
    tagged, l_names, r_names, out_schema = _flat_union(
        left, right, left_on, right_on, n_parts, hot or None)
    if how in ("anti", "semi") and merge_post is None:
        # existence joins keep only left columns (fields from the flat
        # union schema — already valid pyarrow types)
        out_schema = pa.schema([out_schema.field(n) for n in l_names])
    schema = post_schema if merge_post is not None else out_schema

    def merge(group: pa.Table) -> pa.Table:
        ldf, rdf = _split_sides(group, l_names, r_names)
        if how in ("anti", "semi"):
            # existence check: key membership is exact because the hash
            # partitioning co-locates every occurrence of a key.
            # NOT-EXISTS null semantics: NULL = NULL never matches, so a
            # null left key is never "present" (pandas isin would treat
            # NaN as matching NaN — drop nulls from both sides' keys).
            present = (ldf[left_on].notna()
                       & ldf[left_on].isin(rdf[right_on].dropna().unique()))
            out = ldf[~present] if how == "anti" else ldf[present]
        else:
            out = ldf.merge(rdf, left_on=left_on, right_on=right_on, how=how)
        if merge_post is not None:
            out = merge_post(out)
        out = out[[c for c in schema.names]]
        return _pd_table(out, schema)

    # num_partitions=n_parts: the shuffle's reduce width is the join's
    # partition count, not the accidental input block count — sort-shuffle
    # cost scales with (input blocks x reduce partitions), and letting the
    # reduce default to the block count cost ~4x wall time at small scale
    n_reduce = n_parts + sum(k for _, k in hot.values())
    return tagged.groupby("part", num_partitions=n_reduce) \
        .map_groups(merge, batch_format="pyarrow")


def asof_join(left, right, *, left_by: str, right_by: str,
              left_ts: str, right_ts: str, n_parts: int = 32):
    """Backward as-of join: each left row matched to the latest right row
    with ``right_ts <= left_ts`` for the same key.  Partitioning
    assumption: all rows of one key fit one partition group (same
    contract as the hash join; salt hot keys if not)."""
    tagged, l_names, r_names, out_schema = _flat_union(
        left, right, left_by, right_by, n_parts)

    def merge(group: pa.Table) -> pa.Table:
        ldf, rdf = _split_sides(group, l_names, r_names)
        ldf = ldf.sort_values(left_ts, kind="mergesort")
        rdf = rdf.sort_values(right_ts, kind="mergesort")
        out = pd.merge_asof(ldf, rdf, left_on=left_ts, right_on=right_ts,
                            left_by=left_by, right_by=right_by,
                            direction="backward")
        out = out[[c for c in out_schema.names]]
        return _pd_table(out, out_schema)

    return tagged.groupby("part", num_partitions=n_parts) \
        .map_groups(merge, batch_format="pyarrow")
