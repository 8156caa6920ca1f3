"""Query implementations over the test-data tables (documents, embeddings,
events, TPC-H-ish).  One function per operator; each takes ``sf_dir`` and
returns a Dataset / pyarrow Table.  Column names line up with the SQL
oracles in ``__ray_entry__.oracle_sql`` exactly.

Scale disciplines used throughout: column pruning at the read, partial
(per-batch) aggregation before every groupby, small-side broadcast via
ray.put instead of shuffle joins, bucketed candidate generation for
dedup/ANN (never all-pairs).
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import ann as annf
from ..functions import dedup as dd
from ..functions import textops as tx
from .joins import (Lookup, _part_of, _pd_table, asof_join,
                    broadcast_lookup, dataset_lookup, hash_join)


def _clean_schema(path: str, columns=None) -> pa.Schema:
    """File schema with key-value metadata dropped (and pruned to
    ``columns``): pandas-written parquet attaches a b'pandas' metadata
    blob, and pyarrow Schemas with metadata are unhashable — every Ray
    shuffle/split over such blocks logs a unify_schemas warning.  Passing
    an explicit clean schema to read_parquet keeps every downstream block
    metadata-free."""
    import pyarrow.parquet as pq
    s = pq.read_schema(path).remove_metadata()
    if columns is not None:
        s = pa.schema([s.field(c) for c in columns])
    return s


def _read_sized(sf_dir: str, table: str, columns=None):
    """The one table read: column-pruned, metadata-free schema, and a
    block count derived from file bytes (~32 MB/block, floor 8 for
    parallelism) instead of Ray's cpu-count heuristic.  Sort-shuffle cost
    scales with input block count x reduce partitions, so a 4 MB table
    split into 64 near-empty blocks quadruples a join's wall time for
    nothing; at real scale bytes/32MB naturally grows into the many-block
    regime."""
    import ray.data
    path = os.path.join(sf_dir, f"{table}.parquet")
    n_blocks = max(8, os.path.getsize(path) // (32 << 20))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=n_blocks,
                                 schema=_clean_schema(path, columns))


# pinned partial-aggregate schemas: empty input blocks must yield the same
# schema as populated ones (silences RefBundle schema-divergence warnings
# and protects the downstream groupby from object-dtype inference)
_HOURLY_PARTIAL_SCHEMA = pa.schema([
    ("window_start", pa.string()), ("event_type", pa.string()),
    ("part_n", pa.int64()), ("part_sum", pa.float64())])
_PRICING_PARTIAL_SCHEMA = pa.schema([
    ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
    ("part_qty", pa.float64()), ("part_base", pa.float64()),
    ("part_disc", pa.float64()), ("part_n", pa.int64())])
_REVENUE_PARTIAL_SCHEMA = pa.schema([
    ("nation", pa.string()), ("part_n", pa.int64()),
    ("part_rev", pa.float64())])


def _md5_bucket32(ids) -> np.ndarray:
    """uint32 md5 bucket per id: first 4 digest bytes, big-endian —
    identical to ``int(md5(str(id)).hexdigest()[:8], 16)`` (the oracle-
    pinned rule) but skips hex-string formatting and runs one tight pass
    per batch instead of per-row Python in the filter expression."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(str(d).encode()).digest()[:4], "big")
         for d in ids),
        dtype=np.uint64, count=len(ids))


def _global_topk(ds, keys: list, ascending: list, k: int,
                 rename_fn=None):
    """Global top-k without a global sort: per-batch local top-k (a
    lossless partial — any global winner is a winner of its batch), then
    ONE tiny merge over <= k rows per block.  Replaces
    ``ds.sort(...).limit(k)``, whose all-to-all sort moves the entire
    (possibly 10^10-row) table to keep k rows."""
    def local(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(keys, ascending=ascending) \
            .head(k)
        return _pd_table(df, batch.schema)

    def final(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(keys, ascending=ascending) \
            .head(k)
        if rename_fn is not None:
            df = rename_fn(df)
        return _pd_table(df)

    ds = ds.map_batches(local, batch_format="pyarrow")
    # repartition(1) moves <= k x n_blocks rows — constant-size exchange
    return ds.repartition(1).map_batches(final, batch_format="pyarrow",
                                         batch_size=None)


def _rounded(ds, **digits):
    """``ds`` with each named float column rounded in place to its
    number of decimal digits (``pc.round``: half to even)."""
    import pyarrow.compute as pc

    def round_cols(batch: pa.Table) -> pa.Table:
        for name, nd in digits.items():
            batch = batch.set_column(batch.schema.get_field_index(name),
                                     name, pc.round(batch.column(name), nd))
        return batch
    return ds.map_batches(round_cols, batch_format="pyarrow")


def _partitioned_agg(ds, key_col: str, group_fn, n_parts: int = 32):
    """The one key-partitioned exchange, for aggregates and per-key
    scans (windows, Hash-to-Min rounds) alike: append an int32 ``part``
    column (``joins._part_of`` of ``key_col``), shuffle by that
    ``n_parts``-value key, and run one vectorized pandas/numpy kernel per
    partition (``group_fn(group) -> pa.Table``).  All rows of a key land
    in one partition, so an in-partition aggregate or per-key scan is
    exact — and the sort-shuffle runs over a small int key instead of
    the full key domain, which measures several times cheaper than
    ``Dataset.groupby(key).aggregate(...)`` when the key has 10^5+
    distinct values (14.7 s vs 2.3 s on a 147k-key Sum at sf0.1)."""
    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pa.array(_part_of(batch.column(key_col), n_parts)))

    return ds.map_batches(add_part, batch_format="pyarrow") \
        .groupby("part", num_partitions=n_parts) \
        .map_groups(group_fn, batch_format="pyarrow")


# ---------------------------------------------------------------- documents

def dedup_exact(sf_dir: str):
    """Exact dedup: coarse hash partitions on the content hash (all rows
    of a hash co-located), keep min doc_id + duplicate count via one
    in-partition pandas groupby — no full-key-domain shuffle."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def hash_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
        return pa.table({"text_hash": pa.array(hashes, pa.string()),
                         "doc_id": batch.column("doc_id")})

    def per_hash(group: pa.Table) -> pa.Table:
        # doc_id keeps the caller's type (tests use string ids)
        schema = pa.schema([("text_hash", pa.string()),
                            ("doc_id", group.schema.field("doc_id").type),
                            ("n_dups", pa.int64())])
        df = group.to_pandas()
        g = df.groupby("text_hash", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
        g["n_dups"] = g["n_dups"].astype(np.int64)
        return _pd_table(g, schema)

    ds = ds.map_batches(hash_batch, batch_format="pyarrow")
    return _partitioned_agg(ds, "text_hash", per_hash)


def lang_stats(sf_dir: str):
    ds = _read_sized(sf_dir, "documents", columns=["lang", "n_chars"])
    from ray.data.aggregate import Count, Mean, Sum
    ds = ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"),
        Mean("n_chars", alias_name="avg_chars"))

    def round_avg(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # half away from zero, as the oracle's round (the mean is
        # never negative); pc.round's default is half to even
        return batch.set_column(3, "avg_chars", pc.round(
            batch.column("avg_chars"), 6, round_mode="half_towards_infinity"))
    return ds.map_batches(round_avg, batch_format="pyarrow")


def top_longest(sf_dir: str, k: int = 20):
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return _global_topk(ds, ["n_chars", "doc_id"], [False, True], k)


def token_stats(sf_dir: str):
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    ds = ds.map_batches(tx.token_count_batch, batch_format="pyarrow")
    from ray.data.aggregate import Count, Sum
    return ds.groupby("lang").aggregate(
        Sum("token_count", alias_name="total_tokens"),
        Count(alias_name="n_docs"))


def token_stats_bpe(sf_dir: str):
    """BPE-ish subword token counts (words / numbers / punctuation runs),
    vectorized pandas-str kernel; complements whitespace token_stats."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(tx.bpe_token_count_batch, batch_format="pyarrow")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "bpe_tokens": batch.column("bpe_token_count").cast(pa.int64())})
    return ds.map_batches(rename, batch_format="pyarrow")


def quality_scores(sf_dir: str):
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(tx.quality_batch, batch_format="pyarrow")


def doc_fingerprints(sf_dir: str):
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(tx.fingerprint_batch, batch_format="pyarrow")


def top_docs_per_lang(sf_dir: str, k: int = 3):
    """Per-group top-N (ROW_NUMBER() OVER (PARTITION BY ...) <= k): local
    top-k inside every batch (lossless partial — a global winner is a
    batch winner), then one tiny per-group merge."""
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "lang", "n_chars"])

    def local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["lang", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        return _pd_table(df.groupby("lang").head(k), batch.schema)

    def merge_topk(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["n_chars", "doc_id"], ascending=[False, True]).head(k)
        df["rank"] = np.arange(1, len(df) + 1, dtype="int64")
        return _pd_table(df)

    ds = ds.map_batches(local_topk, batch_format="pyarrow")
    return ds.groupby("lang").map_groups(merge_topk,
                                         batch_format="pyarrow")


def langid_predict(sf_dir: str):
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return ds.map_batches(tx.langid_batch, batch_format="pyarrow")


# ------------------------------------------------------------------- dedup

def _pair_dedup_group(group: pa.Table, val_col: str) -> pa.Table:
    """In-partition (doc_a, doc_b) pair dedup keeping the max value —
    exact because the partition key hashes doc_a."""
    schema = pa.schema([("doc_a", group.schema.field("doc_a").type),
                        ("doc_b", group.schema.field("doc_b").type),
                        (val_col, pa.float64())])
    df = group.to_pandas()
    g = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
        **{val_col: (val_col, "max")})
    return _pd_table(g[["doc_a", "doc_b", val_col]], schema)


def dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup pairs: shingle->signature->band buckets->verify."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(dd.minhash_batch, batch_format="pyarrow")
    ds = ds.map_batches(dd.band_explode_batch, batch_format="pyarrow")
    # coarse-partition the buckets: one vectorized map_groups call per
    # hash partition (buckets recovered as sort runs inside), not one
    # Python call per mostly-singleton bucket
    ds = ds.groupby("part").map_groups(
        dd.bucket_pairs_partition, batch_format="pyarrow")
    # dedupe pairs discovered in multiple bands: partition on doc_a
    # (co-locates every (doc_a, doc_b) pair) instead of a full
    # pair-key-domain groupby
    return _partitioned_agg(ds, "doc_a",
                            functools.partial(_pair_dedup_group,
                                              val_col="jaccard_est"))


def dedup_simhash(sf_dir: str):
    """Per-document 64-bit simhash fingerprints.  Token-less documents
    are dropped, matching the oracle (its toks CTE emits no rows for
    them, so they have no fingerprint)."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(dd.drop_tokenless_batch, batch_format="pyarrow")
    return ds.map_batches(dd.simhash_batch, batch_format="pyarrow")


def dedup_ngram_jaccard(sf_dir: str):
    """Exact n-gram Jaccard pairs (>= 0.4) via a prefix-filtering
    set-similarity join: explode each doc to its prefix shingles ->
    groupby(shingle) -> bucket-local exact verify -> pair dedup.
    Complete recall (prefix-filter lemma), never all-pairs."""
    # size-aware read: sort-shuffle cost scales with input block count,
    # and the default cpu-count split hands a 5000-row table 64 blocks
    # (measured: the groupby spent 7.2s wall on 0.6s of work at sf0.1)
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(dd.shingle_prefix_explode, batch_format="pyarrow")
    ds = ds.groupby("part").map_groups(dd.prefix_pairs_partition,
                                       batch_format="pyarrow")
    # a qualifying pair can surface in several prefix buckets; jaccard is
    # identical everywhere, so max-per-pair is a pure dedup (partitioned
    # on doc_a, which co-locates every (doc_a, doc_b) pair)
    return _partitioned_agg(ds, "doc_a",
                            functools.partial(_pair_dedup_group,
                                              val_col="jaccard"))


# --------------------------------------------------------------------- ANN

def _load_queries(sf_dir: str, n_queries: int):
    # predicate pushdown: only the n_queries query rows leave storage
    # (row-group pruning via parquet filters), never the full table
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n_queries)])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    return {"ids": ids[order].tolist(), "vecs": vecs[order]}


def ann_bruteforce(sf_dir: str, n_queries: int = 8, k: int = 10):
    import ray
    queries_ref = ray.put(_load_queries(sf_dir, n_queries))
    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(annf.BruteForcePartialTopK,
                        fn_constructor_args=(queries_ref, k),
                        batch_format="pyarrow", batch_size=512,
                        concurrency=(1, 4))
    import functools
    return ds.groupby("query_id", num_partitions=n_queries).map_groups(
        functools.partial(annf.merge_topk_group, k=k),
        batch_format="pyarrow")


def ann_ivf(sf_dir: str, n_queries: int = 8, k: int = 10,
            n_clusters: int = 16, n_probe: int = 4):
    """IVF scale path: coarse k-means assignment, then a
    bucket-partitioned search — groupby(bucket) co-locates each inverted
    list and only queries probing that bucket compute similarities there
    (at 10^12 scale the assignment is a one-time index build written
    bucket-partitioned; query fan-out touches n_probe partitions, never
    the full table)."""
    import functools

    import ray
    # Train the coarse quantizer on a bounded sample: stream row groups and
    # stop at the cap — never loads the full embeddings column anywhere
    # (at 10^12 rows this reads the first few row groups of one file).
    sample = annf.bounded_sample(
        os.path.join(sf_dir, "embeddings.parquet"), "embedding", 2048)
    centers = annf.kmeans_fit(sample, n_clusters)
    centers_ref = ray.put(centers)
    q = _load_queries(sf_dir, n_queries)
    # probe sets per query: nearest n_probe centroids
    d = ((q["vecs"][:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    probes = {int(qid): set(np.argsort(d[i])[:n_probe].tolist())
              for i, qid in enumerate(q["ids"])}
    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(annf.IvfAssign, fn_constructor_args=(centers_ref,),
                        batch_format="pyarrow", batch_size=512,
                        concurrency=(1, 4))
    ds = ds.groupby("bucket", num_partitions=n_clusters).map_groups(
        functools.partial(annf.ivf_bucket_topk_group, queries=q,
                          probes=probes, k=k),
        batch_format="pyarrow")
    return ds.groupby("query_id", num_partitions=n_queries).map_groups(
        functools.partial(annf.merge_topk_group, k=k),
        batch_format="pyarrow")


def ann_quantized(sf_dir: str, n_queries: int = 8, k: int = 10):
    """Scalar-quantized ANN: per-dimension global min/max (one tiny
    aggregate pass), vectors stored as int8 (4x smaller than float32,
    16x smaller than float64 — the storage-scale path), search against
    dequantized values.  Approximate: recall vs ann_bruteforce is pinned
    in tests/test_operators.py (no SQL oracle — cross-engine float
    rounding of the quantization step is not reproducible in DuckDB)."""
    import functools

    import ray

    # Per-dimension min/max as a distributed partial aggregate: one partial
    # row per batch inside map_batches, then an O(n_batches) reduce of the
    # tiny partials — no task ever holds more than one batch of vectors.
    reduced = _read_sized(sf_dir, "embeddings", columns=["embedding"]) \
        .map_batches(annf.dim_minmax_partial, batch_format="pyarrow",
                     batch_size=1024) \
        .repartition(16) \
        .map_batches(annf.dim_minmax_fold, batch_format="pyarrow",
                     batch_size=None) \
        .repartition(1) \
        .map_batches(annf.dim_minmax_fold, batch_format="pyarrow",
                     batch_size=None).take_all()
    lo = np.asarray(reduced[0]["lo"])
    hi = np.asarray(reduced[0]["hi"])
    span = np.where(hi > lo, hi - lo, 1.0)
    q = _load_queries(sf_dir, n_queries)
    qmat = annf.normalize(np.asarray(q["vecs"], dtype=np.float64))
    ctx = ray.put({"lo": lo, "span": span, "qids": q["ids"],
                   "qmat": qmat})

    class QuantizedTopK:
        def __init__(self):
            c = ray.get(ctx)
            self.lo, self.span = c["lo"], c["span"]
            self.qids, self.qmat = c["qids"], c["qmat"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
            m = np.asarray(batch.column("embedding").to_pylist(),
                           dtype=np.float64)
            # quantize -> int8 (the stored representation) -> dequantize
            qv = np.clip(np.round((m - self.lo) / self.span * 254) - 127,
                         -127, 127).astype(np.int8)
            deq = (qv.astype(np.float64) + 127) / 254 * self.span + self.lo
            mat = annf.normalize(deq)
            sims = np.round(self.qmat @ mat.T, 6)
            out_q, out_n, out_s = [], [], []
            for qi, qid in enumerate(self.qids):
                mask = ids != qid
                cand = np.nonzero(mask)[0]
                if len(cand) == 0:
                    continue
                vals = sims[qi][cand]
                take = min(k, len(cand))
                part = cand[np.lexsort((ids[cand], -vals))[:take]]
                out_q.extend([int(qid)] * len(part))
                out_n.extend(int(ids[i]) for i in part)
                out_s.extend(float(sims[qi][i]) for i in part)
            return pa.table({"query_id": pa.array(out_q, pa.int64()),
                             "neighbor_id": pa.array(out_n, pa.int64()),
                             "sim": pa.array(out_s, pa.float64())})

    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(QuantizedTopK, batch_format="pyarrow",
                        batch_size=512, concurrency=(1, 4))
    return ds.groupby("query_id", num_partitions=n_queries).map_groups(
        functools.partial(annf.merge_topk_group, k=k),
        batch_format="pyarrow")


def embedding_neardup(sf_dir: str, threshold: float = 0.4,
                      n_blocks: int = 4):
    """Embedding-cosine near-dup pairs (id_a < id_b, sim >= threshold).

    Blocked exact pair-join: every vector is exploded to its block-pair
    groups, each group holds exactly two id-blocks, and each vector pair
    is searched in exactly one group — exact results with *no full-matrix
    broadcast* and per-task memory bounded by 2 blocks.  The inherent
    O(n^2) compute is sliced over B(B+1)/2 parallel tasks; at larger n,
    raise ``n_blocks`` so 2n/B rows fit a worker's heap (per-task memory
    scales 1/B, task count B^2).  For *approximate* web-scale near-dup at
    tighter thresholds, use dedup_minhash / ann_ivf instead — at
    sim >= 0.4 bucketing provably misses most pairs (measured: 22/59
    qualifying pairs share a 16-cluster IVF bucket at sf0.01).
    """
    import functools
    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(
        functools.partial(annf.blockpair_explode, n_blocks=n_blocks),
        batch_format="pyarrow")
    return ds.groupby(["ga", "gb"]).map_groups(
        functools.partial(annf.blockpair_pairs_group, threshold=threshold),
        batch_format="pyarrow")


def media_features(sf_dir: str):
    """Multimodal pipeline: documents -> opaque binary payload column ->
    actor-pool decode/feature stage (stub codec with md5-derived fake
    dimensions; real Ray plumbing — schema, payload-aware batch sizing,
    actor signature).  Oracle-checkable because the fake decode is a pure
    function of the payload that DuckDB can also compute."""
    from ..stages.media import DecodeImageStage

    def to_media(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "media_id": pa.array([f"m-{d}" for d in ids], pa.string()),
            "doc_id": pa.array([str(d) for d in ids], pa.string()),
            "mime": pa.array(["image/fake"] * len(ids), pa.string()),
            "payload": pa.array([(t or "").encode() for t in texts],
                                pa.binary())})

    # size-aware read: this side feeds media_training_manifest's join,
    # where 64 near-empty default blocks quadruple the sort-shuffle cost
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(to_media, batch_format="pyarrow")
    ds = ds.map_batches(DecodeImageStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4))
    return ds.select_columns(["media_id", "doc_id", "width", "height",
                              "error"])


# ------------------------------------------------------------------ events

def media_frames(sf_dir: str, n_frames: int = 4):
    """Video-side multimodal plumbing: documents -> opaque payloads ->
    actor-pool FrameSampleStage (stub codec, md5-derived frames) -> one
    row per sampled frame with its content hash.  Oracle-checkable
    because the fake sampler is a pure md5 function of the payload."""
    from ..stages.media import FrameSampleStage

    def to_media(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "media_id": pa.array([f"v-{d}" for d in ids], pa.string()),
            "doc_id": pa.array([str(d) for d in ids], pa.string()),
            "payload": pa.array([(t or "").encode() for t in texts],
                                pa.binary())})

    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(to_media, batch_format="pyarrow")
    ds = ds.map_batches(FrameSampleStage, batch_format="pyarrow",
                        batch_size=32, concurrency=(1, 4))

    def digest(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch.column("media_id"),
            "frame_idx": batch.column("frame_idx").cast(pa.int32()),
            "frame_md5": pa.array(
                [f.hex() for f in batch.column("frame").to_pylist()],
                pa.string())})
    return ds.map_batches(digest, batch_format="pyarrow")


def events_hourly(sf_dir: str):
    """Tumbling-window aggregate with per-batch pre-aggregation (combiner)."""
    ds = _read_sized(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial_agg(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["window_start"] = df["ts"].dt.floor("h").dt.strftime(
            "%Y-%m-%d %H:%M:%S")
        g = df.groupby(["window_start", "event_type"], as_index=False).agg(
            part_n=("value", "size"), part_sum=("value", "sum"))
        return _pd_table(g, _HOURLY_PARTIAL_SCHEMA)

    from ray.data.aggregate import Sum
    ds = ds.map_batches(partial_agg, batch_format="pyarrow")
    ds = ds.groupby(["window_start", "event_type"]).aggregate(
        Sum("part_n", alias_name="n_events"),
        Sum("part_sum", alias_name="sum_value"))
    return _rounded(ds, sum_value=6)


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_daily_pivot(sf_dir: str):
    """Pivot: daily event counts widened to one column per event type
    (fixed domain).  Partial pivoted counts per batch, summed in one
    small groupby — the wide shuffle carries days x 5 ints, not rows."""
    ds = _read_sized(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["day"] = df["ts"].dt.strftime("%Y-%m-%d")
        g = (df.groupby(["day", "event_type"]).size().unstack(
            fill_value=0).reindex(columns=_EVENT_TYPES, fill_value=0)
            .reset_index())
        g.columns = ["day"] + [f"n_{t}" for t in _EVENT_TYPES]
        return _pd_table(g, _PIVOT_SCHEMA)

    from ray.data.aggregate import Sum
    ds = ds.map_batches(partial, batch_format="pyarrow")
    return ds.groupby("day").aggregate(
        *[Sum(f"n_{t}", alias_name=f"n_{t}") for t in _EVENT_TYPES])


_PIVOT_SCHEMA = pa.schema(
    [("day", pa.string())] + [(f"n_{t}", pa.int64())
                              for t in _EVENT_TYPES])


def pricing_rollup(sf_dir: str):
    """ROLLUP (l_returnflag, l_linestatus): the base grouped aggregate is
    computed once (partial-combined), then the higher rollup levels are
    derived by re-aggregating the tiny grouped result — no second pass
    over the fact table."""
    import ray

    base = pricing_summary(sf_dir)  # 6 grouped rows, fully aggregated

    def rollup(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()[["l_returnflag", "l_linestatus", "sum_qty",
                                "count_order"]]
        lvl1 = df.groupby("l_returnflag", as_index=False).agg(
            sum_qty=("sum_qty", "sum"), count_order=("count_order", "sum"))
        lvl1["l_linestatus"] = None
        lvl2 = pd.DataFrame({
            "l_returnflag": [None], "l_linestatus": [None],
            "sum_qty": [df["sum_qty"].sum()],
            "count_order": [df["count_order"].sum()]})
        out = pd.concat([df, lvl1, lvl2], ignore_index=True)
        out["sum_qty"] = out["sum_qty"].round(2)
        return _pd_table(
            out[["l_returnflag", "l_linestatus", "sum_qty",
                 "count_order"]], _ROLLUP_SCHEMA)

    # the grouped result is tiny: single-block rollup derivation
    return base.repartition(1).map_batches(rollup, batch_format="pyarrow")


_ROLLUP_SCHEMA = pa.schema([
    ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
    ("sum_qty", pa.float64()), ("count_order", pa.int64())])


def events_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user: a new session starts when the gap from the
    previous event exceeds ``gap_minutes``.  groupby(user_id).map_groups
    with an in-group sort — the canonical stateful windowed aggregate the
    Dataset API lacks natively (SURVEY.md §2 custom-operator pattern (a)).

    Skew exposure: one user's events form one group, so a bot user with
    10^8 events lands in a single task.  The 100 TB mitigation is
    two-level: pre-split such users by coarse time range (day), sessionize
    within ranges, then stitch boundary sessions in a second tiny pass —
    wire it when a corpus-wide per-key cap shows hot users."""
    import pandas as pd
    ds = _read_sized(sf_dir, "events", columns=["user_id", "ts", "value"])

    def sessions(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values("ts")
        gap = df["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        df["session_idx"] = gap.cumsum().astype("int64")
        g = df.groupby("session_idx")
        out = pd.DataFrame({
            "user_id": df["user_id"].iloc[0],
            "session_idx": g.size().index,
            "n_events": g.size().astype("int64").values,
            "session_start": g["ts"].min().dt.strftime(
                "%Y-%m-%d %H:%M:%S.%f").values,
            "sum_value": np.round(g["value"].sum().values, 6)})
        return _pd_table(out)

    return ds.groupby("user_id").map_groups(sessions, batch_format="pyarrow")


def events_sessionize_scalable(sf_dir: str, gap_minutes: int = 30):
    """Two-level sessionization — the 100 TB shape for the same result as
    events_sessionize: (1) groupby((user, day)) sessionizes bounded
    per-day slices; (2) a second pass merges only *session summaries*
    (first/last ts + mergeable aggregates, ~1000x smaller than events)
    across day boundaries and renumbers.  A bot user with 10^8 events
    costs many bounded day-tasks plus one tiny summary merge, never one
    giant group.  Output schema and values identical to events_sessionize
    (same SQL oracle)."""
    ds = _read_sized(sf_dir, "events", columns=["user_id", "ts", "value"])
    gap = pd.Timedelta(minutes=gap_minutes)
    n_parts = 256

    def add_part(batch: pa.Table) -> pa.Table:
        # partition by (user, day) hash: a hot user's days spread across
        # partitions, so phase 1 stays bounded even for bot users
        df = batch.to_pandas()
        day_ord = (df["ts"].astype("int64") // 86_400_000_000).to_numpy()
        part = ((df["user_id"].to_numpy() * np.int64(1315423911)
                 + day_ord) % n_parts).astype("int32")
        df["part"] = part
        return _pd_table(df)

    def day_sessions_part(group: pa.Table) -> pa.Table:
        # one coarse partition: (user, day) runs recovered by sort, all
        # partial sessions computed in ONE vectorized pass (no per-group
        # Python — the tiny-group map_groups trap)
        df = group.to_pandas().sort_values(["user_id", "ts"],
                                           kind="mergesort")
        day = df["ts"].values.astype("datetime64[D]")
        new = ((df["user_id"].diff() != 0)
               | pd.Series(day).diff().ne(pd.Timedelta(0)).values
               | (df["ts"].diff() > gap))
        sid = new.cumsum()
        g = df.groupby(sid)
        out = pd.DataFrame({
            "user_id": g["user_id"].first().values,
            "first_ts": g["ts"].min().values,
            "last_ts": g["ts"].max().values,
            "n_events": g.size().astype("int64").values,
            "sum_value": g["value"].sum().values})
        return _pd_table(out, _DAY_SESSION_SCHEMA)

    ds = ds.map_batches(add_part, batch_format="pyarrow")
    ds = ds.groupby("part").map_groups(day_sessions_part,
                                       batch_format="pyarrow")

    def stitch(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values("first_ts")
        # merge adjacent partial sessions when the boundary gap fits
        new = (df["first_ts"] - df["last_ts"].shift() > gap).cumsum()
        g = df.groupby(new)
        out = pd.DataFrame({
            "user_id": df["user_id"].iloc[0],
            "session_idx": np.arange(g.ngroups, dtype="int64"),
            "n_events": g["n_events"].sum().astype("int64").values,
            "session_start": g["first_ts"].min().dt.strftime(
                "%Y-%m-%d %H:%M:%S.%f").values,
            "sum_value": np.round(g["sum_value"].sum().values, 6)})
        return _pd_table(out)

    return ds.groupby("user_id").map_groups(stitch, batch_format="pyarrow")


_DAY_SESSION_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("first_ts", pa.timestamp("us")),
    ("last_ts", pa.timestamp("us")), ("n_events", pa.int64()),
    ("sum_value", pa.float64())])


def events_watermark_late(sf_dir: str, lateness_min: int = 10,
                          bucket_size: int = 1024):
    """Streaming watermark semantics on a batch table: the watermark is
    the running max event time over *arrival order* (event_id) minus the
    allowed lateness; an event is late iff its own time is below the
    watermark at its arrival.  Implemented as a distributed prefix-scan:
    (1) per-bucket (event_id // B) time maxima via a tiny groupby, (2)
    exclusive prefix-max over the bucket summaries (driver-side, O(n/B) —
    size B so summaries stay small, e.g. B = n/10^5; beyond that the
    same scan nests one more level, summaries-of-summaries), (3)
    broadcast + vectorized in-bucket cumulative max.  Output: hourly
    windows with on-time/late splits — the late-data routing a streaming
    engine does at the window operator."""
    import ray
    ds = _read_sized(sf_dir, "events", columns=["event_id", "ts", "value"])

    def bucket_max(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["bucket"] = df["event_id"] // bucket_size
        g = df.groupby("bucket", as_index=False).agg(bmax=("ts", "max"))
        return _pd_table(g, _WM_BUCKET_SCHEMA)

    # (1)+(2): bucket maxima are tiny (n/B rows) — reduce, prefix driver-side
    from ray.data.aggregate import Max
    bm = (ds.map_batches(bucket_max, batch_format="pyarrow")
          .groupby("bucket").aggregate(Max("bmax")).take_all())
    bm.sort(key=lambda r: r["bucket"])
    buckets = [r["bucket"] for r in bm]
    prefix = {}
    running = None
    for r in bm:
        prefix[r["bucket"]] = running   # exclusive prefix (None = first)
        m = r["max(bmax)"]
        if running is None or m > running:
            running = m
    prefix_ref = ray.put(prefix)

    def label(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values("event_id")
        pre = ray.get(prefix_ref).get(
            int(df["event_id"].iloc[0]) // bucket_size)
        cm = df["ts"].cummax()
        if pre is not None:
            cm = cm.clip(lower=pd.Timestamp(pre))
        wm = cm - pd.Timedelta(minutes=lateness_min)
        df["late"] = df["ts"] < wm
        df["window_start"] = df["ts"].dt.floor("h").dt.strftime(
            "%Y-%m-%d %H:%M:%S")
        g = df.groupby("window_start", as_index=False).agg(
            part_n=("value", "size"), part_late=("late", "sum"),
            part_sum=("value", "sum"))
        return _pd_table(g, _WM_PARTIAL_SCHEMA)

    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.append_column(
            "bucket", pc.divide(batch.column("event_id"),
                                bucket_size).cast(pa.int64()))

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    ds = ds.groupby("bucket").map_groups(label, batch_format="pyarrow")
    from ray.data.aggregate import Sum
    ds = ds.groupby("window_start").aggregate(
        Sum("part_n", alias_name="n_events"),
        Sum("part_late", alias_name="n_late"),
        Sum("part_sum", alias_name="sum_value"))
    return _rounded(ds, sum_value=6)


_WM_BUCKET_SCHEMA = pa.schema([
    ("bucket", pa.int64()), ("bmax", pa.timestamp("us"))])
_WM_PARTIAL_SCHEMA = pa.schema([
    ("window_start", pa.string()), ("part_n", pa.int64()),
    ("part_late", pa.int64()), ("part_sum", pa.float64())])


def pricing_summary(sf_dir: str):
    """TPC-H Q1-style aggregate with per-batch combiners: vectorized pandas
    partials -> tiny final groupby (the partial/combiner discipline that
    keeps the shuffle O(groups), not O(rows))."""
    ds = _read_sized(sf_dir, "lineitem",
                     columns=["l_returnflag", "l_linestatus", "l_quantity",
                              "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["disc_price"] = df["l_extendedprice"] * (1 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            part_qty=("l_quantity", "sum"),
            part_base=("l_extendedprice", "sum"),
            part_disc=("disc_price", "sum"),
            part_n=("l_quantity", "size"))
        return _pd_table(g, _PRICING_PARTIAL_SCHEMA)

    from ray.data.aggregate import Sum
    ds = ds.map_batches(partial, batch_format="pyarrow")
    ds = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("part_qty", alias_name="sum_qty"),
        Sum("part_base", alias_name="sum_base_price"),
        Sum("part_disc", alias_name="sum_disc_price"),
        Sum("part_n", alias_name="count_order"))
    return _rounded(ds, sum_qty=2, sum_base_price=2, sum_disc_price=2)


def order_revenue(sf_dir: str, k: int = 10):
    """TPC-H Q3-flavored large-x-large join: open orders x lineitem via
    the partitioned hash join (pipelines/joins.py — both sides shuffled
    once by key hash, merged vectorized per partition), then revenue per
    order and top-k.  The per-order aggregation happens inside the join
    output via partial combiners, so the second shuffle is O(orders)."""
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_orderstatus",
                                  "o_orderpriority"])

    def only_open(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.equal(batch.column("o_orderstatus"), "O"))

    orders = orders.map_batches(only_open, batch_format="pyarrow")
    orders = orders.select_columns(["o_orderkey", "o_orderpriority"])
    lineitem = _read_sized(sf_dir, "lineitem",
                           columns=["l_orderkey", "l_extendedprice",
                                    "l_discount"])

    def per_order_topk(df):
        # an order's lineitems are fully co-located in this partition, so
        # per-order revenue here is exact — and every global top-k order
        # lives wholly in one partition, so a local top-k is a lossless
        # partial: the second shuffle carries n_parts*k rows, not O(rows)
        df = df.assign(rev=df["l_extendedprice"] * (1 - df["l_discount"]))
        g = df.groupby(["o_orderkey", "o_orderpriority"],
                       as_index=False).agg(revenue=("rev", "sum"))
        g["revenue"] = g["revenue"].round(2)
        return g.sort_values(["revenue", "o_orderkey"],
                             ascending=[False, True]).head(k)

    ds = hash_join(orders, lineitem, "o_orderkey", "l_orderkey",
                   n_parts=32, merge_post=per_order_topk,
                   post_schema=_ORDER_REV_SCHEMA)
    return ds.sort(["revenue", "o_orderkey"],
                   descending=[True, False]).limit(k)


def events_sliding(sf_dir: str, window_hours: int = 3):
    """Sliding-window aggregate (hourly step, 3h width): each event
    explodes to its covering windows inside map_batches (vectorized
    repeat), partial per-batch combiners, then an O(windows) groupby."""
    ds = _read_sized(sf_dir, "events", columns=["ts", "value"])

    def explode_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        base = df["ts"].dt.floor("h")
        frames = []
        for k in range(window_hours):
            w = base - pd.to_timedelta(k, unit="h")
            frames.append(pd.DataFrame({
                "window_start": w.dt.strftime("%Y-%m-%d %H:%M:%S"),
                "value": df["value"]}))
        all_w = pd.concat(frames, ignore_index=True)
        g = all_w.groupby("window_start", as_index=False).agg(
            part_n=("value", "size"), part_sum=("value", "sum"))
        return _pd_table(g, _SLIDING_PARTIAL_SCHEMA)

    from ray.data.aggregate import Sum
    ds = ds.map_batches(explode_partial, batch_format="pyarrow")
    ds = ds.groupby("window_start").aggregate(
        Sum("part_n", alias_name="n_events"),
        Sum("part_sum", alias_name="sum_value"))
    return _rounded(ds, sum_value=6)


def distinct_users(sf_dir: str):
    """Exact distinct count, fully streaming: per-batch dedup (combiner)
    -> ONE coarse-partition shuffle of the deduped keys -> per-partition
    nunique partials -> constant-size scalar merge.  The shuffle carries
    at most one row per distinct key per block, never the raw events,
    and its sort key is the 32-value partition int, not the user-id
    domain."""
    ds = _read_sized(sf_dir, "events", columns=["user_id"])

    def batch_unique(batch: pa.Table) -> pa.Table:
        u = np.unique(np.asarray(batch.column("user_id")))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    def per_part(group: pa.Table) -> pa.Table:
        n = len(np.unique(np.asarray(group.column("user_id"))))
        return pa.table({"part_n": pa.array([n], pa.int64())})

    parts = _partitioned_agg(
        ds.map_batches(batch_unique, batch_format="pyarrow"),
        "user_id", per_part)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"n_users": pa.array(
            [int(np.asarray(batch.column("part_n")).sum())], pa.int64())})

    return parts.repartition(1).map_batches(final, batch_format="pyarrow",
                                            batch_size=None)


_HLL_P = 12   # 4096 registers; ~1.6% standard error


def distinct_users_hll(sf_dir: str):
    """Approximate distinct count via a HyperLogLog sketch: per-batch
    register arrays (vectorized), merged with elementwise max in one
    tiny groupby — the constant-size-sketch pattern that replaces the
    exact path when keys no longer fit a shuffle.  No SQL oracle
    (approximation); accuracy is pinned against distinct_users in
    tests/test_operators.py."""
    ds = _read_sized(sf_dir, "events", columns=["user_id"])
    m = 1 << _HLL_P

    def batch_registers(batch: pa.Table) -> pa.Table:
        ids = np.unique(np.asarray(batch.column("user_id")))
        h = pd.util.hash_array(ids, hash_key="0123456789123456")
        idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
        rest = (h << np.uint64(_HLL_P)) | np.uint64((1 << _HLL_P) - 1)
        # rank = leading zeros of the remaining 64-P bits + 1
        lz = np.zeros(len(h), dtype=np.int64)
        cur = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = cur < np.uint64(1 << (64 - shift))
            lz[mask] += shift
            cur[mask] = cur[mask] << np.uint64(shift)
        rank = np.minimum(lz + 1, 64 - _HLL_P + 1)
        regs = np.zeros(m, dtype=np.int8)
        np.maximum.at(regs, idx, rank.astype(np.int8))
        return pa.table({"grp": pa.array([0], pa.int8()),
                         "regs": pa.array([regs.tolist()],
                                          pa.list_(pa.int8()))})

    def merge(group: pa.Table) -> pa.Table:
        regs = np.zeros(m, dtype=np.int8)
        for r in group.column("regs").to_pylist():
            regs = np.maximum(regs, np.asarray(r, dtype=np.int8))
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)   # small-range correction
        return pa.table({"n_users_est": pa.array([int(round(est))],
                                                 pa.int64())})

    ds = ds.map_batches(batch_registers, batch_format="pyarrow")
    return ds.groupby("grp").map_groups(merge, batch_format="pyarrow")


def sample_documents(sf_dir: str, pct: int = 10):
    """Deterministic hash sampling (md5(doc_id) bucket < pct%): the
    reproducible corpus-subset operator — same rows on every engine and
    every run, unlike random_sample.  Fully streaming filter."""
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "lang", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        keep = _md5_bucket32(batch.column("doc_id").to_pylist()) % 100 < pct
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")


def local_supplier_revenue(sf_dir: str):
    """TPC-H Q5-flavored: revenue from lineitems whose supplier and
    ordering customer share a nation, grouped by nation — composes the
    partitioned hash join (orders x lineitem, both large) with broadcast
    lookups of the small dimensions (supplier -> nationkey, customer ->
    nationkey, nationkey -> name), then partial-combined aggregation."""
    import ray

    refs = [broadcast_lookup(sf_dir, "supplier", "s_suppkey",
                             ["s_nationkey"]),
            broadcast_lookup(sf_dir, "customer", "c_custkey",
                             ["c_nationkey"]),
            _nation_lookup(sf_dir)]

    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_custkey"])
    lineitem = _read_sized(sf_dir, "lineitem",
                           columns=["l_orderkey", "l_suppkey",
                                    "l_extendedprice", "l_discount"])

    def local_partial(df):
        # folded into the join's partition merge: broadcast lookups
        # resolved from the object store per task (local plasma hit)
        supp, cust, nation = ray.get(refs)
        df = supp.join(df, "l_suppkey", s_nat="s_nationkey")
        df = cust.join(df, "o_custkey", c_nat="c_nationkey")
        df = df[df["s_nat"] == df["c_nat"]]
        df = df.assign(rev=df["l_extendedprice"] * (1 - df["l_discount"]))
        g = df.groupby("s_nat", as_index=False).agg(
            part_rev=("rev", "sum"), part_n=("rev", "size"))
        return nation.join(g, "s_nat", nation="n_name")

    from ray.data.aggregate import Sum
    ds = hash_join(orders, lineitem, "o_orderkey", "l_orderkey",
                   n_parts=32, merge_post=local_partial,
                   post_schema=_LOCAL_REV_PARTIAL_SCHEMA)
    # 25 nations: a handful of reduce partitions is plenty
    ds = ds.groupby("nation", num_partitions=8).aggregate(
        Sum("part_rev", alias_name="revenue"),
        Sum("part_n", alias_name="n_items"))
    return _rounded(ds, revenue=2)


_LOCAL_REV_PARTIAL_SCHEMA = pa.schema([
    ("nation", pa.string()), ("part_rev", pa.float64()),
    ("part_n", pa.int64())])


def events_range_pairs(sf_dir: str, window_sec: int = 60):
    """Range join (self): pairs of same-user events within ``window_sec``
    of each other.  Banded-bucket plan: each event lands in its
    ``window_sec`` time bucket and the next one, so any qualifying pair
    co-occurs in >=1 bucket; buckets are coarse-partitioned and searched
    with one vectorized searchsorted over run-keyed timestamps; pair
    dedup (a pair can surface in two buckets) is a tiny groupby."""
    ds = _read_sized(sf_dir, "events",
                     columns=["event_id", "user_id", "ts"])
    w_us = window_sec * 1_000_000
    n_parts = 64

    def band(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        epoch_us = df["ts"].astype("int64")   # microseconds since epoch
        bucket = (epoch_us // w_us).to_numpy()
        out = pd.concat([
            pd.DataFrame({"bucket": bucket, "event_id": df["event_id"],
                          "user_id": df["user_id"], "ts_us": epoch_us}),
            pd.DataFrame({"bucket": bucket + 1, "event_id": df["event_id"],
                          "user_id": df["user_id"], "ts_us": epoch_us}),
        ], ignore_index=True)
        out["part"] = (out["bucket"] % n_parts).astype("int32")
        return _pd_table(out, _RANGE_BAND_SCHEMA)

    def pairs(group: pa.Table) -> pa.Table:
        """Fully vectorized window-pair expansion: sort by (bucket, user,
        ts), find each row's window end with one searchsorted over a
        run-keyed timestamp (runs offset so windows never cross a
        (bucket,user) boundary), then build all pairs with repeat/arange
        arithmetic.  No per-row Python, no in-kernel dedup — a pair of
        distinct events appears at most once per run, and the downstream
        (id_a,id_b) groupby removes the cross-bucket duplicate."""
        bucket = np.asarray(group.column("bucket"))
        user = np.asarray(group.column("user_id"))
        ts = np.asarray(group.column("ts_us"))
        ids = np.asarray(group.column("event_id"))
        # lexsort: LAST key is primary -> sort by (bucket, user, ts) with
        # event_id as deterministic tie-break; ts MUST be the within-run
        # sort key or the searchsorted window scan below is wrong.
        order = np.lexsort((ids, ts, user, bucket))
        b, u, t, e = bucket[order], user[order], ts[order], ids[order]
        n = len(b)
        starts = np.flatnonzero(np.concatenate(
            ([True], (b[1:] != b[:-1]) | (u[1:] != u[:-1]))))
        run_len = np.diff(np.concatenate((starts, [n])))
        run_id = np.repeat(np.arange(len(starts), dtype=np.int64), run_len)
        # within a run all events share a band bucket, so ts spans < 2*w_us;
        # key runs apart by 4*w_us so searchsorted stays inside the run
        t_rel = t - np.repeat(t[starts], run_len)
        key = run_id * (4 * w_us) + t_rel
        win_end = np.searchsorted(key, key + w_us, side="right")
        counts = win_end - np.arange(n) - 1
        a_idx = np.repeat(np.arange(n), counts)
        offs = np.arange(counts.sum()) - np.repeat(
            np.concatenate(([0], counts.cumsum()[:-1])), counts)
        b_idx = a_idx + 1 + offs
        e_a, e_b = e[a_idx], e[b_idx]
        dt_us = t[b_idx] - t[a_idx]
        signed = np.where(e_a < e_b, dt_us, -dt_us)
        return pa.table({
            "id_a": pa.array(np.minimum(e_a, e_b), pa.int64()),
            "id_b": pa.array(np.maximum(e_a, e_b), pa.int64()),
            "user_id": pa.array(u[a_idx], pa.int64()),
            "dt_sec": pa.array(np.round(signed / 1e6, 6), pa.float64())})

    from ray.data.aggregate import Max
    ds = ds.map_batches(band, batch_format="pyarrow")
    ds = ds.groupby("part", num_partitions=n_parts).map_groups(
        pairs, batch_format="pyarrow")
    return ds.groupby(["id_a", "id_b"], num_partitions=16).aggregate(
        Max("user_id", alias_name="user_id"),
        Max("dt_sec", alias_name="dt_sec"))


_RANGE_BAND_SCHEMA = pa.schema([
    ("bucket", pa.int64()), ("event_id", pa.int64()),
    ("user_id", pa.int64()), ("ts_us", pa.int64()),
    ("part", pa.int32())])


def events_asof_orders(sf_dir: str):
    """As-of join: each event matched to the user's latest order at or
    before the event time (pipelines/joins.asof_join — hash-partitioned
    by user, per-partition vectorized merge_asof).  Output carries the
    matched order *date* (deterministic under same-date order ties, which
    an order-key output would not be)."""
    events = _read_sized(sf_dir, "events",
                         columns=["event_id", "user_id", "ts"])
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_custkey", "o_orderdate"])

    def dedup_dates(batch: pa.Table) -> pa.Table:
        # per-customer-per-date dedup (combiner): the as-of target is the
        # date, so one row per (custkey, date) is enough
        df = batch.to_pandas().drop_duplicates()
        return _pd_table(df, batch.schema)

    orders = orders.map_batches(dedup_dates, batch_format="pyarrow")
    joined = asof_join(events, orders, left_by="user_id",
                       right_by="o_custkey", left_ts="ts",
                       right_ts="o_orderdate", n_parts=32)

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "event_id": pa.array(df["event_id"], pa.int64()),
            "user_id": pa.array(df["user_id"], pa.int64()),
            "ts": pa.array(df["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f"),
                           pa.string()),
            "last_order_date": pa.array(
                df["o_orderdate"].dt.strftime("%Y-%m-%d").fillna(""),
                pa.string())})
    return joined.map_batches(finish, batch_format="pyarrow")


_ORDER_REV_SCHEMA = pa.schema([
    ("o_orderkey", pa.int64()), ("o_orderpriority", pa.string()),
    ("revenue", pa.float64())])
_SLIDING_PARTIAL_SCHEMA = pa.schema([
    ("window_start", pa.string()), ("part_n", pa.int64()),
    ("part_sum", pa.float64())])


# ------------------------------------------------------------------- TPC-H

def _nation_lookup(sf_dir: str):
    """The nation key -> ``n_name`` lookup (25 rows): the one nation-name
    map every query that names nations probes."""
    return broadcast_lookup(sf_dir, "nation", "n_nationkey", ["n_name"])


def revenue_by_nation(sf_dir: str):
    """Broadcast join (orders x customer x nation) + partial aggregation.

    customer -> nation key and nation key -> name are broadcast lookups,
    shipped to every actor once via the object store, never reshuffled;
    orders streams through map_batches with a per-batch combiner (names
    attached to its <= 25 rows) before the final 25-group reduction.
    """
    import ray

    refs = [broadcast_lookup(sf_dir, "customer", "c_custkey",
                             ["c_nationkey"]),
            _nation_lookup(sf_dir)]

    class JoinAgg:
        def __init__(self):
            self.cust, self.nation = ray.get(refs)

        def __call__(self, batch: pa.Table) -> pa.Table:
            df = self.cust.join(batch.to_pandas(), "o_custkey",
                                nk="c_nationkey")
            g = df.groupby("nk", as_index=False).agg(
                part_n=("o_totalprice", "size"),
                part_rev=("o_totalprice", "sum"))
            g = self.nation.join(g, "nk", nation="n_name")
            return _pd_table(g[["nation", "part_n", "part_rev"]],
                             _REVENUE_PARTIAL_SCHEMA)

    ds = _read_sized(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    ds = ds.map_batches(JoinAgg, batch_format="pyarrow", concurrency=(1, 4))
    from ray.data.aggregate import Sum
    ds = ds.groupby("nation").aggregate(
        Sum("part_n", alias_name="n_orders"),
        Sum("part_rev", alias_name="revenue"))
    return _rounded(ds, revenue=2)


# ------------------------------------------------- round-3 training-data ops

_NORM_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("norm_text", pa.string()),
    ("norm_hash", pa.string()), ("n_chars_norm", pa.int64())])


def text_normalize(sf_dir: str):
    """Canonical text normalization for training corpora: lowercase,
    collapse whitespace runs, strip, content hash.  Pure streaming
    map_batches with vectorized pandas-str kernels (md5 is per-row by
    nature, same shape as dedup_exact)."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        s = batch.column("text").to_pandas()
        t = s.str.lower().str.replace(r"\s+", " ", regex=True).str.strip()
        h = [hashlib.md5(x.encode()).hexdigest() for x in t]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "norm_text": pa.array(t, pa.string()),
            "norm_hash": pa.array(h, pa.string()),
            "n_chars_norm": pa.array(t.str.len().to_numpy().astype("int64")),
        }, schema=_NORM_SCHEMA)

    return ds.map_batches(norm, batch_format="pyarrow")


_QUANT_PARTIAL_SCHEMA = pa.schema([
    ("lang", pa.string()), ("n_chars", pa.int64()), ("part_n", pa.int64())])
_QUANT_SCHEMA = pa.schema([
    ("lang", pa.string()), ("quantile", pa.float64()),
    ("n_chars", pa.int64())])


def quantile_stats(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9, 0.99)):
    """EXACT distributed quantiles of a discrete column without a global
    sort: per-batch value-count partials -> groupby(value).sum (output is
    O(distinct values), not O(rows)) -> per-lang cumulative pick at rank
    ceil(q*n) (DuckDB quantile_disc semantics).  The full-sort alternative
    shuffles every row; this shuffles one row per distinct (lang, value)."""
    ds = _read_sized(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas().groupby(["lang", "n_chars"])
              .size().reset_index(name="part_n"))
        return _pd_table(df, _QUANT_PARTIAL_SCHEMA)

    ds = ds.map_batches(partial, batch_format="pyarrow")

    # ONE shuffle: the rank pick needs all of a lang's value counts in
    # one place anyway, so the (lang, value) partial merge folds into the
    # same per-lang group instead of paying a separate two-key groupby
    def pick(group: pa.Table) -> pa.Table:
        import math
        df = (group.to_pandas().groupby("n_chars", as_index=False)
              .agg(n=("part_n", "sum")).sort_values("n_chars"))
        cum = df["n"].to_numpy().cumsum()
        n = int(cum[-1])
        vals = df["n_chars"].to_numpy()
        lang = group.column("lang")[0].as_py()
        rows = {"lang": [], "quantile": [], "n_chars": []}
        for q in qs:
            idx = int(np.searchsorted(cum, math.ceil(q * n)))
            rows["lang"].append(lang)
            rows["quantile"].append(float(q))
            rows["n_chars"].append(int(vals[idx]))
        return pa.table(rows, schema=_QUANT_SCHEMA)

    return ds.groupby("lang").map_groups(pick, batch_format="pyarrow")


def _cents(v: np.ndarray) -> np.ndarray:
    """Sign-aware half-away-from-zero rounding to integer cents; the one
    rounding rule both numpy and SQL can state explicitly (numpy round is
    half-even, DuckDB round is half-away — so neither is used)."""
    return (np.floor(np.abs(v * 100.0) + 0.5) * np.sign(v)).astype(np.int64)


_NOORD_PARTIAL_SCHEMA = pa.schema([
    ("c_mktsegment", pa.string()), ("part_n", pa.int64()),
    ("part_cents", pa.int64())])


def customers_no_orders(sf_dir: str, n_parts: int = 16):
    """TPC-H Q22 flavor: customers with no URGENT order, aggregated per
    market segment.  Hash-partitioned ANTI join (existence is exact
    because partitioning co-locates every occurrence of a key); the
    right side is filtered AND shrunk to per-batch distinct keys before
    the shuffle, and the per-segment aggregation is folded into the join
    partition so the second shuffle is O(segments)."""
    cust = _read_sized(sf_dir, "customer",
                       columns=["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_custkey", "o_orderpriority"])

    _KEYS_SCHEMA = pa.schema([("o_custkey", pa.int64())])

    def distinct_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keys = batch.filter(
            pc.equal(batch.column("o_orderpriority"), "1-URGENT"))
        u = np.unique(np.asarray(keys.column("o_custkey")))
        return pa.table({"o_custkey": u}, schema=_KEYS_SCHEMA)

    orders = orders.map_batches(distinct_keys, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(cents=_cents(df["c_acctbal"].to_numpy()))
        g = df.groupby("c_mktsegment").agg(
            part_n=("c_custkey", "size"),
            part_cents=("cents", "sum")).reset_index()
        return g

    ds = hash_join(cust, orders, "c_custkey", "o_custkey", how="anti",
                   n_parts=n_parts, merge_post=fold,
                   post_schema=_NOORD_PARTIAL_SCHEMA)
    from ray.data.aggregate import Sum
    return ds.groupby("c_mktsegment").aggregate(
        Sum("part_n", alias_name="n_customers"),
        Sum("part_cents", alias_name="total_acctbal_cents"))


_RUNNING_SCHEMA = pa.schema([
    ("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
    ("o_orderdate", pa.timestamp("us")), ("running_cents", pa.int64())])


def running_revenue(sf_dir: str, n_parts: int = 16):
    """Windowed cumulative sum (SUM OVER PARTITION BY ... ORDER BY ...):
    per-customer running order revenue in integer cents.  Coarse hash
    partitions on the window key (all rows of a customer land in one
    partition), vectorized sort + pandas groupby-cumsum inside — never a
    per-key map_groups (tiny-group scheduling dominates) and never a
    global sort (the window only needs per-key order)."""
    ds = _read_sized(sf_dir, "orders",
                     columns=["o_custkey", "o_orderkey", "o_orderdate",
                              "o_totalprice"])

    def scan(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        cents = pd.Series(_cents(df["o_totalprice"].to_numpy()),
                          index=df.index)
        df["running_cents"] = cents.groupby(df["o_custkey"]).cumsum()
        df = df[["o_custkey", "o_orderkey", "o_orderdate", "running_cents"]]
        return _pd_table(df, _RUNNING_SCHEMA)

    return _partitioned_agg(ds, "o_custkey", scan, n_parts=n_parts)


_BIGRAM_PARTIAL_SCHEMA = pa.schema([
    ("bigram", pa.string()), ("part_n", pa.int64())])


def ngram_topk(sf_dir: str, k: int = 20):
    """Corpus-wide top-k word bigrams — the classic corpus-statistics /
    contamination-screen primitive.  Per-batch bigram counting is fully
    vectorized (one concatenated token array per batch, boundary mask,
    pandas value_counts) and the shuffle carries one row per distinct
    bigram per batch, never one per token."""
    ds = _read_sized(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column("text").to_pandas()
        lists = s.str.split(" ")
        lens = lists.str.len().to_numpy()
        if len(lens) == 0 or lens.sum() < 2:
            return pa.table({"bigram": [], "part_n": []},
                            schema=_BIGRAM_PARTIAL_SCHEMA)
        flat = lists.explode().to_numpy()   # C-level flatten; split(' ')
        # never yields an empty list, so explode introduces no NaNs
        ends = np.cumsum(lens)
        starts_bigram = np.ones(len(flat), dtype=bool)
        starts_bigram[ends - 1] = False       # last token of each doc
        idx = np.nonzero(starts_bigram)[0]
        bg = pd.Series(flat[idx]).str.cat(pd.Series(flat[idx + 1]), sep=" ")
        vc = bg.value_counts()
        return pa.table({"bigram": vc.index.to_numpy(dtype=object),
                         "part_n": vc.to_numpy().astype("int64")},
                        schema=_BIGRAM_PARTIAL_SCHEMA)

    ds = ds.map_batches(partial, batch_format="pyarrow")

    # ONE coarse-partition shuffle of the per-batch partials: all rows
    # of a bigram land in one partition, so the in-partition sum is the
    # final count and the per-partition top-k is a lossless partial —
    # never a full-vocabulary-key sort, never a global sort for k rows
    def count_topk(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        g = df.groupby("bigram", as_index=False).agg(n=("part_n", "sum"))
        g["n"] = g["n"].astype(np.int64)
        g = g.sort_values(["n", "bigram"], ascending=[False, True]).head(k)
        return _pd_table(g[["bigram", "n"]],
                         pa.schema([("bigram", pa.string()),
                                    ("n", pa.int64())]))

    ds = _partitioned_agg(ds, "bigram", count_topk)
    return _global_topk(ds, ["n", "bigram"], [False, True], k)


def stratified_sample(sf_dir: str, target_per_lang: int = 50):
    """Stratified deterministic sampling: ~target docs per language.
    Phase 1 computes per-lang counts (a tiny aggregate, broadcast as a
    plain dict); phase 2 is a streaming hash filter with a per-lang rate
    — the same md5-bucket rule as sample_documents so any engine
    reproduces the exact row set."""
    import math
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "lang", "n_chars"])

    def lang_counts(batch: pa.Table) -> pa.Table:
        # per-batch partial counts: the merged result is O(blocks x langs)
        # tiny rows — no shuffle for a handful of distinct keys
        vc = batch.column("lang").to_pandas().value_counts()
        return pa.table({"lang": pa.array(vc.index, pa.string()),
                         "n": pa.array(vc.to_numpy(), pa.int64())})

    # groupby folds the per-batch partials distributed-side, so the
    # driver reads one row per LANGUAGE, never one per block
    counts: dict = {
        row["lang"]: int(row["sum(n)"])
        for row in (_read_sized(sf_dir, "documents", columns=["lang"])
                    .map_batches(lang_counts, batch_format="pyarrow")
                    .groupby("lang").sum("n").take_all())}
    rate = {lang: min(10000, math.ceil(10000.0 * target_per_lang / n))
            for lang, n in counts.items()}

    def pick(batch: pa.Table) -> pa.Table:
        bucket = _md5_bucket32(batch.column("doc_id").to_pylist()) % 10000
        lang_rate = batch.column("lang").to_pandas().map(rate).to_numpy()
        return batch.filter(pa.array(bucket < lang_rate))

    return ds.map_batches(pick, batch_format="pyarrow")


_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])
_LABEL_SCHEMA = pa.schema([("doc_id", pa.int64()), ("component", pa.int64())])


def _hash_to_min_round(group: pa.Table) -> pa.Table:
    """One Hash-to-Min round over a coarse partition (Rastogi et al.,
    'Finding Connected Components in Map-Reduce in Logarithmic Rounds'):
    for each node u with neighborhood N, m = min(N + {u}); emit (m, x)
    and (x, m) for all x.  Vectorized over the whole partition; dedup
    inside the partition IS global dedup because part = hash(u)."""
    df = group.to_pandas()[["u", "v"]]
    uniq = df["u"].unique()
    df = pd.concat([df, pd.DataFrame({"u": uniq, "v": uniq})],
                   ignore_index=True)
    m = df.groupby("u")["v"].transform("min").to_numpy()
    v = df["v"].to_numpy()
    a = np.concatenate([m, v])
    b = np.concatenate([v, m])
    keep = a != b
    out = pd.DataFrame({"u": a[keep], "v": b[keep]}).drop_duplicates()
    return _pd_table(out, _EDGE_SCHEMA)


def _edge_checksum(edges) -> tuple[int, int]:
    """Order-independent fingerprint of a distinct edge set: wraparound
    sum of per-edge hash64 + edge count.  One scalar per round — the
    distributed convergence test (never materializes edges driver-side)."""
    _CK_SCHEMA = pa.schema([("h", pa.uint64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch.column("u"))
        v = np.asarray(batch.column("v"))
        hu = pd.util.hash_array(u, hash_key="0123456789123456")
        hv = pd.util.hash_array(v, hash_key="6543210987654321")
        with np.errstate(over="ignore"):
            s = np.uint64(0) if len(u) == 0 else \
                (hu * np.uint64(3) + hv).sum(dtype=np.uint64)
        return pa.table({"h": [int(s)], "n": [batch.num_rows]},
                        schema=_CK_SCHEMA)

    t = edges.map_batches(partial, batch_format="pyarrow")
    agg = t.to_pandas()
    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for x in agg["h"].to_numpy(dtype=np.uint64):
            total = total + x
    return int(total), int(agg["n"].sum())


def neardup_components(sf_dir: str, n_parts: int = 8, max_iters: int = 12,
                       local_edge_limit: int = 2_000_000):
    """Connected components over the near-duplicate graph (ngram-jaccard
    pairs >= 0.4): the cluster-dedup operator — every document labeled
    with the min doc_id of its near-dup cluster.  Iterative Hash-to-Min
    label propagation (O(log d) rounds); each round is one shuffle of the
    current edge set, convergence is tested with a distributed checksum
    (one scalar to the driver per round).  Edges materialize between
    rounds — inherent to iterative algorithms, size is O(near-dup pairs),
    a vanishing fraction of corpus size for web data."""
    return _attach_components(
        sf_dir, component_label_ref(sf_dir, n_parts=n_parts,
                                    max_iters=max_iters,
                                    local_edge_limit=local_edge_limit))


def component_label_ref(sf_dir: str, n_parts: int = 8,
                        max_iters: int = 12,
                        local_edge_limit: int = 2_000_000,
                        edge_fn=None):
    """The label side of ``neardup_components`` as a broadcast object
    ref: a ``Lookup`` from member doc_id to its ``component`` — only
    near-dup members appear, so the arrays are O(near-dup docs), a
    vanishing fraction of corpus size.  Lets composites
    (fuzzy_dedup_curation) attach labels inside their own map pass
    instead of paying a corpus x corpus hash join.

    ``edge_fn(sf_dir) -> Dataset[doc_a, doc_b]`` overrides the pair
    source (default: exact n-gram Jaccard).  minhash_cluster_dedup
    passes ``dedup_minhash`` here — the approximate pair generator is
    the 100 TB path, and the component machinery is identical."""
    edges = (edge_fn or dedup_ngram_jaccard)(sf_dir) \
        .select_columns(["doc_a", "doc_b"])

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("doc_a"))
        b = np.asarray(batch.column("doc_b"))
        return pa.table({"u": np.concatenate([a, b]),
                         "v": np.concatenate([b, a])}, schema=_EDGE_SCHEMA)

    edges = edges.map_batches(sym, batch_format="pyarrow").materialize()

    import ray

    # Size-gated local path (the broadcast-join analog for graphs): the
    # post-LSH near-dup edge set is a vanishing fraction of corpus size;
    # when it fits one task, exact union-find in a single worker beats
    # O(log d) distributed rounds whose per-round shuffle+schedule
    # overhead dominates at small edge counts (measured 15s of round
    # overhead for a 256-edge graph at sf0.1).  Above the gate the
    # iterative Hash-to-Min path below is unchanged.
    if edges.count() <= local_edge_limit:
        @ray.remote
        def _local_cc(*tabs: pa.Table):
            us = [np.asarray(t.column("u"), dtype=np.int64)
                  for t in tabs if t.num_rows]
            vs = [np.asarray(t.column("v"), dtype=np.int64)
                  for t in tabs if t.num_rows]
            if not us:
                return Lookup(np.empty(0, np.int64),
                              {"component": np.empty(0, np.int64)})
            u = np.concatenate(us)
            v = np.concatenate(vs)
            nodes, inv = np.unique(np.concatenate([u, v]),
                                   return_inverse=True)
            parent = np.arange(len(nodes))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            iu, iv = inv[:len(u)], inv[len(u):]
            for a, b in zip(iu, iv):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            roots = np.fromiter((find(i) for i in range(len(nodes))),
                                np.int64, len(nodes))
            # root index is the min node index of its component because
            # unions always point the larger root at the smaller and
            # nodes[] is sorted ascending
            return Lookup(nodes, {"component": nodes[roots]})

        return _local_cc.remote(*edges.to_arrow_refs())

    prev = None
    for _ in range(max_iters):
        edges = _partitioned_agg(edges, "u", _hash_to_min_round,
                                 n_parts=n_parts).materialize()
        ck = _edge_checksum(edges)
        if ck == prev:
            break
        prev = ck

    def labels(group: pa.Table) -> pa.Table:
        df = group.to_pandas()[["u", "v"]]
        lab = df.groupby("u")["v"].min()
        comp = np.minimum(lab.index.to_numpy(), lab.to_numpy())
        return pa.table({"doc_id": lab.index.to_numpy(), "component": comp},
                        schema=_LABEL_SCHEMA)

    lab = _partitioned_agg(edges, "u", labels, n_parts=n_parts)

    # Singleton docs get component = self.  The label table is tiny next
    # to the corpus (only near-dup members appear in it), so it becomes
    # one broadcast lookup built in a worker task — a union +
    # groupby(doc_id) over ALL docs would be a full-corpus exchange just
    # to attach defaults (measured: that aggregate dominated this
    # pipeline's wall time at sf0.1).
    return dataset_lookup(lab, "doc_id", ["component"])


def attach_labels(labels, d: np.ndarray) -> np.ndarray:
    """Component id per doc_id from the broadcast label ``Lookup``;
    non-members get component = self."""
    hit, row = labels.probe(d)
    comp = d.copy()
    comp[hit] = labels["component"][row]
    return comp


def _attach_components(sf_dir: str, lab_ref):
    """Label every document with its component: the label lookup is
    broadcast via the object store; singleton docs get
    component = self.  Shared by the local union-find and the iterative
    Hash-to-Min paths of ``neardup_components``."""
    import ray
    docs = _read_sized(sf_dir, "documents", columns=["doc_id"])

    def attach(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        comp = attach_labels(ray.get(lab_ref), d)
        return pa.table({"doc_id": pa.array(d, pa.int64()),
                         "component": pa.array(comp, pa.int64())},
                        schema=_LABEL_SCHEMA)

    return docs.map_batches(attach, batch_format="pyarrow")


_ARGMAX_PARTIAL_SCHEMA = pa.schema([
    ("o_orderpriority", pa.string()), ("o_orderkey", pa.int64()),
    ("o_totalprice", pa.float64())])


def orders_top_per_priority(sf_dir: str):
    """Distributed argmax-per-group: the single highest-value order in
    each priority class (ties broken by lowest orderkey).  Per-batch
    partial argmax shrinks the shuffle to one row per (batch, group);
    the final reduce sees O(batches x groups) rows, never the table."""
    ds = _read_sized(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["o_totalprice", "o_orderkey"],
                            ascending=[False, True], kind="mergesort")
        out = df.groupby("o_orderpriority", sort=False).head(1)
        return _pd_table(out[["o_orderpriority", "o_orderkey",
                              "o_totalprice"]], _ARGMAX_PARTIAL_SCHEMA)

    ds = ds.map_batches(partial, batch_format="pyarrow")

    def final(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True],
            kind="mergesort").head(1)
        return _pd_table(df[["o_orderpriority", "o_orderkey",
                             "o_totalprice"]], _ARGMAX_PARTIAL_SCHEMA)

    return ds.groupby("o_orderpriority").map_groups(final,
                                                    batch_format="pyarrow")


_GAPS_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("n_gaps", pa.int64()),
    ("total_gap_sec", pa.int64())])


def events_user_gaps(sf_dir: str, n_parts: int = 16):
    """LAG-window aggregation: per user, the number of inter-event gaps
    and their total length in whole seconds.  Same coarse-partition
    window pattern as running_revenue (hash partition on the window key,
    vectorized sort + diff inside) — integer seconds so the result is
    exact across engines."""
    ds = _read_sized(sf_dir, "events", columns=["user_id", "ts"])

    def gaps(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(["user_id", "ts"],
                                           kind="mergesort")
        us = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        same_user = uid[1:] == uid[:-1]
        gap_us = (us[1:] - us[:-1])[same_user]
        gap_user = uid[1:][same_user]
        g = pd.DataFrame({"user_id": gap_user,
                          "gap_sec": gap_us // 1_000_000})
        out = g.groupby("user_id").agg(
            n_gaps=("gap_sec", "size"),
            total_gap_sec=("gap_sec", "sum")).reset_index()
        return _pd_table(out, _GAPS_SCHEMA)

    return _partitioned_agg(ds, "user_id", gaps, n_parts=n_parts)


_BENCH_SHINGLE_SCHEMA = pa.schema([("g", pa.uint64())])
_CONTAM_SCHEMA = pa.schema([("doc_id", pa.int64()),
                            ("n_hits", pa.int64())])


def contamination_check(sf_dir: str, bench_mod: int = 20):
    """Benchmark-decontamination screen: flag corpus documents sharing
    any 3-gram shingle with the held-out "benchmark" subset (doc_id %
    bench_mod == 0 stands in for an eval set).  Phase 1 builds the
    benchmark shingle set as 61-bit hash partials (one vectorized
    shingle pass per batch, per-batch unique) and dedups + sorts the
    broadcast array in a WORKER task over block refs — the driver never
    materializes a shingle, and no shuffle touches the shingle stream (a
    groupby dedup here cost more than the whole corpus scan: the eval
    side is small by framing, so the dedup belongs in the single
    assemble task).  Phase 2 streams the corpus
    through one vectorized scoring kernel: batch-wide shingling
    (``shingles_flat``), membership via the broadcast lookup's probe, and a
    lexsort-dedup + bincount for per-doc distinct-hit counts — no
    per-row Python.  Hashes are 61-bit (collision odds ~n²/2^62,
    negligible; the DuckDB string-shingle oracle still matches)."""
    import ray

    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        keep = batch.filter(pa.array(ids % bench_mod == 0))
        _, sh = dd.shingles_flat(keep.column("text").to_pylist(), {})
        return pa.table({"g": np.unique(sh)},
                        schema=_BENCH_SHINGLE_SCHEMA)

    # the benchmark shingles, deduped + sorted in a worker task from
    # the block refs; the broadcast is one contiguous uint64 key array
    # (eval sets are tiny next to the corpus)
    bench_ref = dataset_lookup(
        ds.map_batches(bench_partial, batch_format="pyarrow"), "g")

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        keep = batch.filter(pa.array(ids % bench_mod != 0))
        kept_ids = np.asarray(keep.column("doc_id"))
        doc_idx, sh = dd.shingles_flat(keep.column("text").to_pylist(), {})
        member, _ = ray.get(bench_ref).probe(sh)
        d, s = doc_idx[member], sh[member]
        order = np.lexsort((s, d))
        d, s = d[order], s[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1])
        hits = np.bincount(d[first], minlength=len(kept_ids))
        nz = np.nonzero(hits)[0]
        return pa.table({"doc_id": pa.array(kept_ids[nz], pa.int64()),
                         "n_hits": pa.array(hits[nz], pa.int64())},
                        schema=_CONTAM_SCHEMA)

    return ds.map_batches(score, batch_format="pyarrow")


_Q13_PARTIAL_SCHEMA = pa.schema([
    ("n_orders", pa.int64()), ("part_n", pa.int64())])


def customer_order_distribution(sf_dir: str, n_parts: int = 16):
    """TPC-H Q13: how many customers placed exactly N orders, including
    the zero-order customers — the LEFT-join shape (anti-join cousins
    can't see the zeros).  Per-customer counts fold inside the join
    partition (one shuffle), the distribution is a tiny second groupby
    over O(distinct counts) rows."""
    cust = _read_sized(sf_dir, "customer", columns=["c_custkey"])
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_custkey", "o_orderkey"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        per_cust = df.groupby("c_custkey")["o_orderkey"].count()
        dist = per_cust.value_counts().reset_index()
        dist.columns = ["n_orders", "part_n"]
        return dist

    ds = hash_join(cust, orders, "c_custkey", "o_custkey", how="left",
                   n_parts=n_parts, merge_post=fold,
                   post_schema=_Q13_PARTIAL_SCHEMA)
    from ray.data.aggregate import Sum
    return ds.groupby("n_orders").aggregate(
        Sum("part_n", alias_name="n_customers"))


def weighted_sample(sf_dir: str, target: int = 100):
    """Deterministic size-weighted sampling: documents kept with
    probability proportional to n_chars (long documents carry more
    training tokens), expected sample size ~= target.  Phase 1 is one
    tiny Sum aggregate (total weight, broadcast as a scalar); phase 2 a
    streaming hash filter — keep doc iff md5-bucket/2^32 <
    n_chars * target / total.  Reproducible on any engine, like
    sample_documents.  Note (one-pass Bernoulli cap): a document with
    n_chars > total/target has keep probability min(1, ...) = 1, so
    inclusion is proportional to n_chars only up to that cap and the
    expected sample size drifts slightly below ``target`` on skewed
    corpora — inherent to single-pass weighted sampling."""
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "lang", "n_chars"])
    total = ds.sum("n_chars")

    def pick(batch: pa.Table) -> pa.Table:
        bucket = _md5_bucket32(batch.column("doc_id").to_pylist())
        chars = np.asarray(batch.column("n_chars"), dtype=np.float64)
        thresh = (chars * target / total) * 4294967296.0
        return batch.filter(pa.array(bucket < thresh))

    return ds.map_batches(pick, batch_format="pyarrow")


_Q4_PARTIAL_SCHEMA = pa.schema([
    ("o_orderpriority", pa.string()), ("part_n", pa.int64())])


def orders_with_bulk_items(sf_dir: str, min_qty: float = 45.0,
                           n_parts: int = 16):
    """TPC-H Q4 shape: orders having at least one bulk line item
    (quantity > min_qty), counted per priority — the SEMI-join
    existence query.  The right side filters and shrinks to per-batch
    distinct keys before the shuffle; the per-priority count folds
    inside the join partition."""
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_orderpriority"])
    items = _read_sized(sf_dir, "lineitem",
                        columns=["l_orderkey", "l_quantity"])

    _KEYS_SCHEMA = pa.schema([("l_orderkey", pa.int64())])

    def bulk_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = batch.filter(pc.greater(batch.column("l_quantity"),
                                       min_qty))
        u = np.unique(np.asarray(keep.column("l_orderkey")))
        return pa.table({"l_orderkey": u}, schema=_KEYS_SCHEMA)

    items = items.map_batches(bulk_keys, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority").size().reset_index(name="part_n")
        return g

    ds = hash_join(orders, items, "o_orderkey", "l_orderkey", how="semi",
                   n_parts=n_parts, merge_post=fold,
                   post_schema=_Q4_PARTIAL_SCHEMA)
    from ray.data.aggregate import Sum
    return ds.groupby("o_orderpriority").aggregate(
        Sum("part_n", alias_name="n_orders"))


_QSKETCH_PARTIAL_SCHEMA = pa.schema([
    ("o_orderpriority", pa.string()), ("qs", pa.string()),
    ("ws", pa.string())])
_QSKETCH_SCHEMA = pa.schema([
    ("o_orderpriority", pa.string()), ("quantile", pa.float64()),
    ("value", pa.float64())])

_QSKETCH_K = 256


def _compress_summary(vals: np.ndarray, wts: np.ndarray, k: int):
    """Equi-depth compression of a weighted sorted summary to <= k
    centroids (deterministic — no randomness, so results are stable
    across runs and partitionings of equal order)."""
    order = np.argsort(vals, kind="mergesort")
    vals = vals[order]
    wts = wts[order]
    if len(vals) <= k:
        return vals, wts
    cum = np.cumsum(wts)
    total = cum[-1]
    bounds = np.linspace(0, total, k + 1)
    idx = np.searchsorted(cum, bounds[1:-1], side="left")
    out_v = []
    out_w = []
    start = 0
    for end in list(idx) + [len(vals)]:
        end = max(end, start + 1)
        if start >= len(vals):
            break
        w = wts[start:end]
        out_v.append(float(np.average(vals[start:end], weights=w)))
        out_w.append(float(w.sum()))
        start = end
    return np.asarray(out_v), np.asarray(out_w)


def pricing_quantiles_sketch(sf_dir: str, qs=(0.5, 0.9, 0.99)):
    """Approximate per-group quantiles of a CONTINUOUS column via a
    mergeable equi-depth summary — the scale path where the exact
    value-count method (quantile_stats) degenerates because doubles are
    all distinct.  Per-batch summaries are <= K centroids; the shuffle
    carries O(batches x groups x K) rows regardless of table size, like
    the HLL sketch for distinct counts.  Deterministic; accuracy vs the
    exact quantiles is pinned in tests (rows-only for the driver: the
    approximation is not SQL-reproducible)."""
    ds = _read_sized(sf_dir, "orders",
                     columns=["o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = {"o_orderpriority": [], "qs": [], "ws": []}
        for key, sub in df.groupby("o_orderpriority"):
            v = sub["o_totalprice"].to_numpy(dtype=np.float64)
            cv, cw = _compress_summary(v, np.ones_like(v), _QSKETCH_K)
            rows["o_orderpriority"].append(key)
            rows["qs"].append(",".join(repr(x) for x in cv))
            rows["ws"].append(",".join(repr(x) for x in cw))
        return pa.table(rows, schema=_QSKETCH_PARTIAL_SCHEMA)

    ds = ds.map_batches(partial, batch_format="pyarrow")

    def merge(group: pa.Table) -> pa.Table:
        vals = []
        wts = []
        for q, w in zip(group.column("qs").to_pylist(),
                        group.column("ws").to_pylist()):
            vals.append(np.array([float(x) for x in q.split(",")]))
            wts.append(np.array([float(x) for x in w.split(",")]))
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        v, w = _compress_summary(v, w, _QSKETCH_K)
        cum = np.cumsum(w)
        total = cum[-1]
        key = group.column("o_orderpriority")[0].as_py()
        rows = {"o_orderpriority": [], "quantile": [], "value": []}
        for q in qs:
            i = int(np.searchsorted(cum, q * total))
            i = min(i, len(v) - 1)
            rows["o_orderpriority"].append(key)
            rows["quantile"].append(float(q))
            rows["value"].append(float(v[i]))
        return pa.table(rows, schema=_QSKETCH_SCHEMA)

    return ds.groupby("o_orderpriority").map_groups(
        merge, batch_format="pyarrow")
