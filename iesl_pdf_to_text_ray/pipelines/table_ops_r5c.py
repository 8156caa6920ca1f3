"""Round-5c query pack: the training-data curation composites a
web-scale corpus pipeline runs after near-dup detection — end-to-end
fuzzy dedup (components -> canonical representative), CCNet-style
bigram language-model quality scoring, and temperature-scaled domain
mixture weights.

House discipline (same as table_ops/_r4/_r4b/_r5/_r5b): column-pruned
size-aware reads, partial combiners before every exchange, big x big
through the partitioned ``hash_join`` with aggregation folded into the
merge, value rules pinned to integers (libm log, IEEE-exact sqrt,
integer division) so every query has an ANSI-SQL oracle in
``__ray_entry__.oracle_sql`` that hash-matches exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.textops import _TOKEN_RE
from .joins import _pd_table, hash_join
from .table_ops import (_partitioned_agg, _read_sized, attach_labels,
                        component_label_ref)

# ------------------------------------------- fuzzy dedup, end to end

_CUR_PARTIAL = pa.schema([
    ("component", pa.int64()), ("cand_doc_id", pa.int64()),
    ("cand_chars", pa.int64()), ("part_n", pa.int64()),
    ("part_chars", pa.int64())])
_CUR_SCHEMA = pa.schema([
    ("component", pa.int64()), ("keep_doc_id", pa.int64()),
    ("n_members", pa.int64()), ("max_chars", pa.int64()),
    ("total_chars", pa.int64())])


def fuzzy_dedup_curation(sf_dir: str):
    """End-to-end fuzzy dedup (the FineWeb/CCNet-style chain): near-dup
    pairs (exact n-gram Jaccard >= 0.4) -> connected components ->
    canonical representative per cluster (longest document, ties to the
    smallest doc_id) with cluster statistics.  Composes the existing
    partitioned stages: ``neardup_components`` (prefix-filter
    set-similarity join + size-gated union-find / Hash-to-Min) labels
    every doc; this operator joins the labels back to the document
    metadata and reduces each cluster to one row.

    Scale shape: the component-label arrays cover only near-dup MEMBERS
    (a vanishing fraction of the corpus), so they broadcast via the
    object store (``component_label_ref``) and the labels attach inside
    the metadata read's own map pass — no corpus x corpus join.  Each
    batch folds to at most one candidate row per component it sees, and
    those partials ride the coarse-partition aggregate on component, so
    the only exchange carries O(batches x components) candidate rows
    and never text."""
    return _cluster_keep_best(sf_dir, component_label_ref(sf_dir))


def minhash_cluster_dedup(sf_dir: str):
    """The 100 TB fuzzy-dedup path: identical cluster -> keep-best
    chain, but the near-dup pairs come from MinHash+LSH banding
    (``dedup_minhash``) instead of the exact prefix-filter Jaccard
    join — approximate by construction (banding can miss or admit
    borderline pairs), so there is no SQL oracle; cluster agreement
    with the exact chain is pinned in tests.  At scale this is the
    variant that runs: signature banding costs O(corpus), while even
    the prefix-filtered exact join grows with shingle-bucket skew."""
    from .table_ops import dedup_minhash
    return _cluster_keep_best(
        sf_dir, component_label_ref(sf_dir, edge_fn=dedup_minhash))


def _cluster_keep_best(sf_dir: str, lab_ref):
    import ray

    meta = _read_sized(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def fold(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        comp = attach_labels(ray.get(lab_ref), d)
        df = pd.DataFrame({
            "component": comp, "doc_id": d,
            "n_chars": np.asarray(batch.column("n_chars"),
                                  dtype=np.int64)})
        df = df.sort_values(["component", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        g = df.groupby("component", as_index=False).agg(
            cand_doc_id=("doc_id", "first"),
            cand_chars=("n_chars", "first"),
            part_n=("doc_id", "size"),
            part_chars=("n_chars", "sum"))
        return _pd_table(g, _CUR_PARTIAL)

    j = meta.map_batches(fold, batch_format="pyarrow")

    def merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["component", "cand_chars", "cand_doc_id"],
            ascending=[True, False, True])
        g = df.groupby("component", as_index=False).agg(
            keep_doc_id=("cand_doc_id", "first"),
            max_chars=("cand_chars", "first"),
            part_n=("part_n", "sum"),
            part_chars=("part_chars", "sum"))
        g = g.rename(columns={"part_n": "n_members",
                              "part_chars": "total_chars"})
        return _pd_table(g[["component", "keep_doc_id", "n_members",
                            "max_chars", "total_chars"]], _CUR_SCHEMA)

    return _partitioned_agg(j, "component", merge, n_parts=16)


# --------------------------------------- bigram LM quality scoring

_OCC_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("bg", pa.string()), ("occ_n", pa.int64())])
_C2_PARTIAL = pa.schema([
    ("bg", pa.string()), ("part_c2", pa.int64())])
_C2_SCHEMA = pa.schema([
    ("bg", pa.string()), ("w1", pa.string()), ("c2", pa.int64())])
_C1_SCHEMA = pa.schema([
    ("c1_w1", pa.string()), ("c1", pa.int64())])
_VOCAB_PARTIAL = pa.schema([("tok", pa.string())])
_SCORE_SCHEMA = pa.schema([
    ("score_bg", pa.string()), ("nll_micro", pa.int64())])
_LM_PARTIAL = pa.schema([
    ("doc_id", pa.int64()), ("part_bg", pa.int64()),
    ("part_nll", pa.int64())])
_LM_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
    ("nll_sum_micro", pa.int64()), ("avg_nll_micro", pa.int64())])


def _doc_bigram_occurrences(batch: pa.Table) -> pa.Table:
    """(doc_id, bigram, occurrence count) — one row per doc means the
    batch-local count IS the exact per-doc count (lossless partial).
    Flattened adjacency: all docs' tokens concatenate into one array,
    adjacent pairs are kept only where both sides share a doc_id, and
    ONE vectorized groupby counts the whole batch."""
    ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
    toks = pd.Series(batch.column("text").to_pylist(), dtype=object) \
        .fillna("").str.findall(_TOKEN_RE)
    lens = toks.map(len).to_numpy(dtype=np.int64)
    flat = [t for ts in toks for t in ts]
    if len(flat) < 2:
        return pa.table({"doc_id": [], "bg": [], "occ_n": []},
                        schema=_OCC_SCHEMA)
    did = np.repeat(ids, lens)
    keep = np.flatnonzero(did[:-1] == did[1:])
    df = pd.DataFrame({
        "doc_id": did[keep],
        "bg": [f"{flat[i]} {flat[i + 1]}" for i in keep]})
    g = df.groupby(["doc_id", "bg"], as_index=False).size() \
        .rename(columns={"size": "occ_n"})
    return _pd_table(g[["doc_id", "bg", "occ_n"]], _OCC_SCHEMA)


def bigram_lm_score(sf_dir: str):
    """CCNet-style language-model quality score: train an add-one
    smoothed bigram model ON the corpus, then score every document by
    its average per-bigram negative log-likelihood (low = typical text,
    high = outlier/noise — the quality-filter signal).

    Model, pinned exactly in the SQL oracle: tokens are ``\\S+`` (ASCII
    class) runs; c2(w1 w2) = corpus occurrences of the bigram; c1(w1) =
    occurrences of w1 as a bigram-left (= sum of c2 over w2); V =
    distinct-token vocabulary size; p = (c2+1)/(c1+V).  Per-BIGRAM
    nll_micro = floor(ln((c1+V)/(c2+1)) * 1e6 + 0.5) is an integer
    (ln through libm ``math.log`` on unique (c1, c2) pairs — the tfidf
    discipline), so per-doc sums and the integer-division average are
    bit-identical across engines.

    Scale shape: one tokenize pass feeds everything — per-doc bigram
    occurrences (lossless per-batch partials) are counted once and
    reused for c2 (coarse-partition sum by bigram), c1 (coarse-partition
    sum of c2 by left token: vocabulary-bounded), and the scoring join;
    V is a distinct-count over vocabulary-bounded per-batch uniques.
    The scoring join co-locates doc occurrences with the bigram score
    table by bigram hash and folds per-doc partial sums into the merge,
    and the final exchange carries O(docs) rows."""
    docs = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    # occ feeds c2 AND the scoring join; c2 feeds c1 AND the score
    # table.  Pin both (the table_ops_r5 lineage discipline) or Ray's
    # lazy re-execution re-reads and re-tokenizes the corpus per
    # consumer — measured 3 tokenize passes for one query without this.
    occ = docs.map_batches(_doc_bigram_occurrences,
                           batch_format="pyarrow").materialize()

    # c2: corpus-wide bigram counts (partial -> coarse-partition sum)
    def c2_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby("bg", as_index=False) \
            .agg(part_c2=("occ_n", "sum"))
        return _pd_table(df, _C2_PARTIAL)

    def c2_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("bg", as_index=False) \
            .agg(c2=("part_c2", "sum"))
        df["w1"] = df["bg"].str.split(" ", n=1).str[0]
        return _pd_table(df[["bg", "w1", "c2"]], _C2_SCHEMA)

    c2 = _partitioned_agg(occ.map_batches(c2_partial,
                                          batch_format="pyarrow"),
                          "bg", c2_group, n_parts=16).materialize()

    # c1: left-token totals, derived from c2 (vocabulary-bounded)
    def c1_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("w1", as_index=False) \
            .agg(c1=("c2", "sum")).rename(columns={"w1": "c1_w1"})
        return _pd_table(df[["c1_w1", "c1"]], _C1_SCHEMA)

    c1 = _partitioned_agg(c2.select_columns(["w1", "c2"]), "w1",
                          c1_group, n_parts=16)

    # V: distinct unigram vocabulary (per-batch unique -> partitioned
    # distinct -> count; only unique tokens ever leave a batch)
    def vocab_partial(batch: pa.Table) -> pa.Table:
        toks = pd.Series(batch.column("text").to_pylist(), dtype=object) \
            .fillna("").str.findall(_TOKEN_RE)
        uniq = set()
        for ts in toks:
            uniq.update(ts)
        return pa.table({"tok": pa.array(sorted(uniq), pa.string())},
                        schema=_VOCAB_PARTIAL)

    def vocab_group(g: pa.Table) -> pa.Table:
        n = int(g.to_pandas()["tok"].nunique())
        return pa.table({"part_v": pa.array([n], pa.int64())})

    v_size = int(_partitioned_agg(
        docs.map_batches(vocab_partial, batch_format="pyarrow"),
        "tok", vocab_group, n_parts=16).sum("part_v"))

    # bigram score table: c2 x c1 co-located by left token
    def score(df: pd.DataFrame) -> pd.DataFrame:
        c2v = df["c2"].to_numpy(dtype=np.int64)
        c1v = df["c1"].to_numpy(dtype=np.int64)
        pairs = np.stack([c1v, c2v], axis=1)
        uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
        lut = np.array(
            [math.log((int(a) + v_size) / (int(b) + 1))
             for a, b in uniq], dtype=np.float64)
        nll = np.floor(lut[inv] * 1e6 + 0.5).astype(np.int64)
        return pd.DataFrame({"score_bg": df["bg"].to_numpy(),
                             "nll_micro": nll})

    scores = hash_join(c2, c1, "w1", "c1_w1", n_parts=16,
                       merge_post=score, post_schema=_SCORE_SCHEMA)

    # per-doc scoring: occurrences x scores by bigram, per-doc partial
    # sums folded into the merge
    def fold_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(w=df["occ_n"].to_numpy()
                       * df["nll_micro"].to_numpy())
        g = df.groupby("doc_id", as_index=False).agg(
            part_bg=("occ_n", "sum"), part_nll=("w", "sum"))
        return g

    per_doc = hash_join(occ, scores, "bg", "score_bg", n_parts=16,
                        merge_post=fold_doc, post_schema=_LM_PARTIAL)

    def merge_doc(group: pa.Table) -> pa.Table:
        df = group.to_pandas().groupby("doc_id", as_index=False).agg(
            n_bigrams=("part_bg", "sum"),
            nll_sum_micro=("part_nll", "sum"))
        df["avg_nll_micro"] = (df["nll_sum_micro"].to_numpy()
                               // df["n_bigrams"].to_numpy())
        return _pd_table(df[["doc_id", "n_bigrams", "nll_sum_micro",
                             "avg_nll_micro"]], _LM_SCHEMA)

    return _partitioned_agg(per_doc, "doc_id", merge_doc, n_parts=16)


# --------------------------------------- domain mixture weights

_MIX_PARTIAL = pa.schema([
    ("source", pa.string()), ("part_docs", pa.int64()),
    ("part_tokens", pa.int64()), ("part_chars", pa.int64())])
_MIX_SCHEMA = pa.schema([
    ("source", pa.string()), ("n_docs", pa.int64()),
    ("n_tokens", pa.int64()), ("n_chars", pa.int64()),
    ("w_micro", pa.int64()), ("share_ppm", pa.int64())])


def domain_mixture_weights(sf_dir: str):
    """Temperature-scaled domain mixture weights (the Pile-style
    sampling table): per source, corpus statistics plus an
    alpha = 0.5 sampling weight w ~ n_tokens^0.5 and its normalized
    share in parts-per-million.  sqrt is IEEE-754 correctly rounded
    (identical in numpy and DuckDB), w_micro = floor(sqrt(n_tokens) *
    1e6 + 0.5) is an integer, and share_ppm = w_micro * 1e6 //
    sum(w_micro) is integer division — no float can flip a digit
    between engines.

    Scale shape: one streaming pass emits per-(batch, source) partials
    (O(sources) rows per batch); the groupby exchange is O(sources);
    the share normalization runs in one task over the tiny per-source
    table."""
    ds = _read_sized(sf_dir, "documents",
                     columns=["source", "text", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": batch.column("source").to_pylist(),
            "toks": pd.Series(batch.column("text").to_pylist(),
                              dtype=object).fillna("")
                      .str.count(_TOKEN_RE).astype("int64"),
            "n_chars": np.asarray(batch.column("n_chars"),
                                  dtype=np.int64)})
        g = df.groupby("source", as_index=False).agg(
            part_docs=("toks", "size"), part_tokens=("toks", "sum"),
            part_chars=("n_chars", "sum"))
        return _pd_table(g, _MIX_PARTIAL)

    from ray.data.aggregate import Sum
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(
            Sum("part_docs", alias_name="n_docs"),
            Sum("part_tokens", alias_name="n_tokens"),
            Sum("part_chars", alias_name="n_chars"))

    def shares(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # Python ints: the ppm numerator can exceed int64 at full scale
        w = [math.floor(math.sqrt(int(t)) * 1e6 + 0.5)
             for t in df["n_tokens"]]
        total = sum(w)
        df["w_micro"] = pd.Series(w, dtype="int64")
        df["share_ppm"] = pd.Series(
            [wi * 1_000_000 // total for wi in w], dtype="int64")
        return _pd_table(df, _MIX_SCHEMA)

    # the per-source table is tiny; normalization needs the global sum,
    # so it runs in exactly one task over the WHOLE block (batch_size
    # None: the default 1024-row batching would renormalize per batch
    # if sources ever exceeded it)
    return agg.repartition(1).map_batches(shares, batch_format="pyarrow",
                                          batch_size=None)


# --------------------------------------------- distributed k-means

_KM_PARTIAL = pa.schema([
    ("cluster", pa.int64()), ("dim", pa.int64()),
    ("part_sum", pa.float64()), ("part_n", pa.int64())])
_KM_ASSIGN_SCHEMA = pa.schema([
    ("vec_id", pa.int64()), ("cluster", pa.int64())])


def _init_centers(sf_dir: str, k: int) -> np.ndarray:
    """Deterministic init: the first k vectors by vec_id (row-group
    pruned read — only those rows leave storage)."""
    import pyarrow.parquet as pq
    import os
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", k)])
    order = np.argsort(np.asarray(t.column("vec_id"), dtype=np.int64))
    return np.asarray(t.column("embedding").to_pylist(),
                      dtype=np.float64)[order]


def _assign(batch: pa.Table, centers: np.ndarray) -> tuple:
    """(vec_ids, cluster ids, float64 vectors) for one batch; nearest
    centroid by squared L2, ties to the lowest centroid index."""
    ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
    x = np.asarray(batch.column("embedding").to_pylist(),
                   dtype=np.float64)
    # same formula as the SQL oracle: sum((x - c)^2), never the
    # expanded dot form (keeps the doubles on the same values)
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return ids, np.argmin(d2, axis=1).astype(np.int64), x


def _centroid_partials(batch: pa.Table, centers_ref) -> pa.Table:
    import ray
    centers = ray.get(centers_ref)
    _, assign, x = _assign(batch, centers)
    k, dim = centers.shape
    sums = np.zeros((k, dim), dtype=np.float64)
    np.add.at(sums, assign, x)
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    live = np.flatnonzero(counts)
    cl = np.repeat(live, dim)
    return pa.table({
        "cluster": pa.array(cl, pa.int64()),
        "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                len(live)), pa.int64()),
        "part_sum": pa.array(sums[live].ravel(), pa.float64()),
        "part_n": pa.array(np.repeat(counts[live], dim), pa.int64())},
        schema=_KM_PARTIAL)


def _lloyd_step(ds, centers: np.ndarray):
    """One Lloyd round over ``ds`` (vec_id, embedding): broadcast
    ``centers`` once, fold each batch to k x dim partial sums, and sum
    them per (cluster, dim) — columns cluster, dim, sum_val, n_members
    (the members of a cluster, repeated on each of its dims)."""
    import functools

    import ray
    from ray.data.aggregate import Sum
    centers_ref = ray.put(centers)
    return ds.map_batches(
        functools.partial(_centroid_partials, centers_ref=centers_ref),
        batch_format="pyarrow") \
        .groupby(["cluster", "dim"]).aggregate(
            Sum("part_sum", alias_name="sum_val"),
            Sum("part_n", alias_name="n_members"))


def kmeans_one_step(sf_dir: str, k: int = 8):
    """One Lloyd iteration, exactly: assign every embedding to its
    nearest of the k deterministic init centroids (first k vec_ids,
    squared L2, ties to the lowest centroid index) and emit the updated
    centroids as (cluster, dim, centroid_val, n_members) — one
    ``_lloyd_step``, the SQL-checkable round that the iterative
    ``kmeans_cluster`` below repeats.

    Scale shape: centroids broadcast once via ray.put; each batch folds
    to k x dim partial-sum rows (O(k*dim) per batch, independent of
    batch size); the exchange is a k*dim-key groupby — never a
    per-vector shuffle.

    Float-boundary assumption (documented per the house ADVICE rule,
    same exposure class as label_centroids): centroid_val is a float
    mean compared under the checker's round(6), and the argmin could in
    principle flip between engines on a near-exact distance tie (both
    engines use the same (x-c)^2 formula on the same float64 values, so
    only accumulated rounding differs — vanishing on real-valued
    embeddings, impossible to hit with the synthetic corpus)."""
    ds = _read_sized(sf_dir, "embeddings",
                     columns=["vec_id", "embedding"])

    def mean(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("sum_val"), dtype=np.float64)
        n = np.asarray(batch.column("n_members"), dtype=np.int64)
        return batch.set_column(2, "centroid_val",
                                pa.array(s / n, pa.float64()))

    return _lloyd_step(ds, _init_centers(sf_dir, k)) \
        .map_batches(mean, batch_format="pyarrow")


def kmeans_cluster(sf_dir: str, k: int = 8, max_iters: int = 10,
                   tol: float = 1e-9):
    """Full distributed Lloyd's k-means over the embeddings table:
    iterate (broadcast centroids -> streaming assignment pass folding
    to k x dim partials -> tiny groupby -> new centroids) until the
    max centroid movement drops below ``tol`` or ``max_iters``; then
    one final pass emits (vec_id, cluster).

    The only driver-side collect per round is the k x dim centroid
    table (O(k*dim) scalars, independent of corpus size) — the same
    bounded-state shape as ann_ivf's quantizer.  Empty clusters keep
    their previous centroid.  No SQL oracle (iterative); pinned in
    tests against a from-scratch local Lloyd reference."""
    import ray
    centers = _init_centers(sf_dir, k)

    # cache the training set once: every iteration re-reading parquet
    # costs a full read per round (measured 10.7 -> ~4 s at sf0.1); the
    # materialized blocks live in the (spillable) object store, the
    # iterative-ML working-set pattern
    ds = _read_sized(sf_dir, "embeddings",
                     columns=["vec_id", "embedding"]).materialize()

    for _ in range(max_iters):
        tbl = _lloyd_step(ds, centers).to_pandas()
        new = centers.copy()
        cl = tbl["cluster"].to_numpy(dtype=np.int64)
        dm = tbl["dim"].to_numpy(dtype=np.int64)
        new[cl, dm] = (tbl["sum_val"].to_numpy()
                       / tbl["n_members"].to_numpy())
        moved = float(np.abs(new - centers).max())
        centers = new
        if moved < tol:
            break

    centers_ref = ray.put(centers)

    def assign_batch(batch: pa.Table) -> pa.Table:
        ids, a, _ = _assign(batch, ray.get(centers_ref))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cluster": pa.array(a, pa.int64())},
                        schema=_KM_ASSIGN_SCHEMA)

    return ds.map_batches(assign_batch, batch_format="pyarrow")


# -------------------------------------------- incremental dedup

_INC_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("component", pa.int64()),
    ("status", pa.string())])


def incremental_dedup(sf_dir: str):
    """Delta-ingest fuzzy dedup: treat every 10th document as the NEWLY
    ARRIVED shard and dedup it against the already-indexed corpus via
    the near-dup graph — a new doc is ``dup_of_index`` if its near-dup
    cluster contains any index document, ``dup_in_shard`` if an earlier
    (lower doc_id) new document shares its cluster, else ``kept``.  The
    production shape for continuous ingestion against a fuzzy index.

    Scale shape: the member-only component labels broadcast
    (``component_label_ref``); the index-membership and first-new-per-
    cluster structures derive from those small arrays in one task and
    broadcast too; the verdict pass over the new shard is map-only —
    no exchange touches the corpus."""
    import ray

    lab_ref = component_label_ref(sf_dir)

    @ray.remote
    def _cluster_info(lab):
        keys, comps = lab.keys, lab["component"]
        is_new = keys % 10 == 0
        has_index = np.unique(comps[~is_new])
        # first (min doc_id) new member per component: keys are sorted,
        # so the first hit per comp wins
        first_new: dict = {}
        for k, c in zip(keys[is_new], comps[is_new]):
            first_new.setdefault(int(c), int(k))
        return has_index, first_new

    info_ref = _cluster_info.remote(lab_ref)

    ds = _read_sized(sf_dir, "documents", columns=["doc_id"])

    def verdict(batch: pa.Table) -> pa.Table:
        has_index, first_new = ray.get(info_ref)
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        d = d[d % 10 == 0]
        comp = attach_labels(ray.get(lab_ref), d)
        in_index = np.isin(comp, has_index)
        first = np.array([first_new.get(int(c), int(k)) == int(k)
                          for k, c in zip(d, comp)])
        status = np.where(in_index, "dup_of_index",
                          np.where(first, "kept", "dup_in_shard"))
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "component": pa.array(comp, pa.int64()),
            "status": pa.array(status, pa.string())},
            schema=_INC_SCHEMA)

    return ds.map_batches(verdict, batch_format="pyarrow")


# ------------------------------------------------ BPE training

_BPE_VOCAB = pa.schema([
    ("word", pa.string()), ("freq", pa.int64()),
    ("syms", pa.list_(pa.string()))])
_BPE_VOCAB_PARTIAL = pa.schema([
    ("word", pa.string()), ("part_freq", pa.int64())])
_BPE_PAIR_PARTIAL = pa.schema([
    ("left", pa.string()), ("right", pa.string()),
    ("part_n", pa.int64())])
_BPE_MERGES = pa.schema([
    ("step", pa.int64()), ("left", pa.string()),
    ("right", pa.string()), ("merged", pa.string()),
    ("n", pa.int64())])


def _merge_pair(syms: list, left: str, right: str) -> list:
    """``syms`` with each adjacent (left, right) pair, matched left to
    right without overlap, replaced by the one symbol left + right."""
    new, i = [], 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
            new.append(left + right)
            i += 2
        else:
            new.append(syms[i])
            i += 1
    return new


def bpe_train(sf_dir: str, n_merges: int = 10):
    """Full iterative BPE tokenizer training (Sennrich-style): ``n``
    greedy merge rounds, each taking the corpus-wide most frequent
    adjacent symbol pair (ties to the lexicographically smallest
    (left, right)) and merging it everywhere.  Extends the one-round
    ``bpe_merge_pairs`` into the real training loop; returns the merge
    table (step, left, right, merged, count).

    Scale shape: the standard trainer trick — all work happens on the
    UNIQUE-WORD frequency table (vocabulary-bounded, built once with a
    coarse-partition aggregate and materialized), never on the token
    stream.  Each round is one map pass emitting per-batch pair-count
    partials (small exchange), one tiny argmax to the driver (a single
    winning pair), and one map pass applying the merge; the updated
    vocab re-materializes for the next round — the same cached-working-
    set shape as kmeans_cluster.  No SQL oracle (iterative,
    data-dependent); pinned in tests against a from-scratch local BPE
    reference, merge-for-merge."""
    docs = _read_sized(sf_dir, "documents", columns=["text"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        toks = pd.Series(batch.column("text").to_pylist(),
                         dtype=object).fillna("") \
            .str.findall(_TOKEN_RE).explode().dropna()
        if not len(toks):
            return pa.table({"word": [], "part_freq": []},
                            schema=_BPE_VOCAB_PARTIAL)
        vc = toks.value_counts()
        return pa.table({
            "word": pa.array(vc.index, pa.string()),
            "part_freq": pa.array(vc.to_numpy(), pa.int64())},
            schema=_BPE_VOCAB_PARTIAL)

    def vocab_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("word", as_index=False) \
            .agg(freq=("part_freq", "sum"))
        df["syms"] = df["word"].map(list)
        return _pd_table(df[["word", "freq", "syms"]], _BPE_VOCAB)

    vocab = _partitioned_agg(
        docs.map_batches(tok_partial, batch_format="pyarrow"),
        "word", vocab_group, n_parts=16).materialize()

    def pair_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        freqs = np.asarray(batch.column("freq"), dtype=np.int64)
        counts: Counter = Counter()
        for syms, f in zip(batch.column("syms").to_pylist(), freqs):
            f = int(f)
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] += f
        pairs = list(counts.keys())
        return pa.table({
            "left": pa.array([p[0] for p in pairs], pa.string()),
            "right": pa.array([p[1] for p in pairs], pa.string()),
            "part_n": pa.array([counts[p] for p in pairs], pa.int64())},
            schema=_BPE_PAIR_PARTIAL)

    from ray.data.aggregate import Sum

    def local_top1(batch: pa.Table) -> pa.Table:
        # block-local argmax after the exact groupby: the global winner
        # is the winner of some block, so a per-block head + a
        # blocks-count driver fold replaces a full distributed sort
        df = batch.to_pandas().sort_values(
            ["n", "left", "right"], ascending=[False, True, True]).head(1)
        return _pd_table(df)

    merges = {"step": [], "left": [], "right": [], "merged": [],
              "n": []}
    for step in range(n_merges):
        cands = vocab.map_batches(pair_partial, batch_format="pyarrow") \
            .groupby(["left", "right"]).aggregate(
                Sum("part_n", alias_name="n")) \
            .map_batches(local_top1, batch_format="pyarrow").take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-int(r["n"]), r["left"],
                                         r["right"]))
        if int(best["n"]) < 2:
            break
        left, right = best["left"], best["right"]
        merges["step"].append(step)
        merges["left"].append(left)
        merges["right"].append(right)
        merges["merged"].append(left + right)
        merges["n"].append(int(best["n"]))

        def apply(batch: pa.Table, l=left, r=right) -> pa.Table:
            out = [_merge_pair(syms, l, r)
                   for syms in batch.column("syms").to_pylist()]
            return pa.table({
                "word": batch.column("word"),
                "freq": batch.column("freq"),
                "syms": pa.array(out, pa.list_(pa.string()))},
                schema=_BPE_VOCAB)

        vocab = vocab.map_batches(apply,
                                  batch_format="pyarrow").materialize()

    return pa.table(merges, schema=_BPE_MERGES)


_BPE_ENC_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("n_words", pa.int64()),
    ("n_bpe_tokens", pa.int64()), ("compression_ppm", pa.int64())])


def bpe_encode(sf_dir: str, n_merges: int = 10):
    """Apply a trained BPE tokenizer to the corpus: train ``n_merges``
    merges (``bpe_train``), then encode every document and report its
    word count, BPE-token count, and the integer compression ratio
    (tokens * 1e6 // chars) — the train -> encode round trip a
    tokenizer pipeline runs before packing sequences.

    Scale shape: the merge table is O(n_merges) and broadcasts inside
    the encode closure; encoding is a map-only pass that BPE-encodes
    each batch's UNIQUE words once (vocabulary-bounded) and sums per
    doc through the cached segmentations."""
    merges = [(row["left"], row["right"])
              for row in bpe_train(sf_dir, n_merges).to_pylist()]

    def encode_word(word: str) -> int:
        syms = list(word)
        for left, right in merges:
            syms = _merge_pair(syms, left, right)
        return len(syms)

    docs = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        toks = pd.Series(batch.column("text").to_pylist(),
                         dtype=object).fillna("") \
            .str.findall(_TOKEN_RE)
        cache: dict = {}
        n_words, n_bpe, n_chars = [], [], []
        for ts in toks:
            total = 0
            for w in ts:
                if w not in cache:
                    cache[w] = encode_word(w)
                total += cache[w]
            n_words.append(len(ts))
            n_bpe.append(total)
            n_chars.append(sum(len(w) for w in ts))
        n_bpe = np.asarray(n_bpe, dtype=np.int64)
        chars = np.maximum(np.asarray(n_chars, dtype=np.int64), 1)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
            "compression_ppm": pa.array(n_bpe * 1_000_000 // chars,
                                        pa.int64())},
            schema=_BPE_ENC_SCHEMA)

    return docs.map_batches(encode, batch_format="pyarrow")


# ------------------------------------------------ quality gating

_QG_SCORED = pa.schema([
    ("doc_id", pa.int64()), ("lang", pa.string()),
    ("alpha_ppm", pa.int64())])
_QG_PARTIAL = pa.schema([
    ("lang", pa.string()), ("alpha_ppm", pa.int64()),
    ("part_n", pa.int64())])


def quality_gate(sf_dir: str, q: float = 0.5):
    """Percentile quality filter: keep documents whose alphabetic-
    character density (alpha_ppm — an INTEGER: alpha_chars * 1e6 //
    length, so no float ratio can flip the boundary) is at or above
    their language's ``q``-quantile — the per-language relative gate a
    curation pipeline uses instead of one absolute threshold (languages
    have different baseline densities).  quantile_disc rank semantics
    (value at rank ceil(q*n)), same as quantile_stats.

    Scale shape: the scored projection (3 narrow columns) materializes
    once and serves both passes; pass 1 folds per-batch (lang, score)
    value counts and picks per-lang thresholds from O(distinct scores)
    rows (never a global sort); the O(langs) threshold dict broadcasts
    into a map-only filter."""
    import math

    import ray

    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "lang", "text"])

    def score(batch: pa.Table) -> pa.Table:
        text = batch.column("text").to_pandas().fillna("")
        alpha = text.str.count(r"[a-zA-Z]").astype("int64").to_numpy()
        length = text.str.len().astype("int64").clip(lower=1).to_numpy()
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "lang": batch.column("lang"),
            "alpha_ppm": pa.array(alpha * 1_000_000 // length,
                                  pa.int64())}, schema=_QG_SCORED)

    scored = ds.map_batches(score, batch_format="pyarrow").materialize()

    def vc_partial(batch: pa.Table) -> pa.Table:
        g = batch.to_pandas().groupby(["lang", "alpha_ppm"],
                                      as_index=False).size() \
            .rename(columns={"size": "part_n"})
        return _pd_table(g, _QG_PARTIAL)

    def pick(group: pa.Table) -> pa.Table:
        df = group.to_pandas().groupby("alpha_ppm", as_index=False) \
            .agg(n=("part_n", "sum")).sort_values("alpha_ppm")
        cum = df["n"].to_numpy().cumsum()
        idx = int(np.searchsorted(cum, math.ceil(q * int(cum[-1]))))
        return pa.table({
            "lang": [group.column("lang")[0].as_py()],
            "thr": pa.array([int(df["alpha_ppm"].to_numpy()[idx])],
                            pa.int64())})

    thr = {row["lang"]: int(row["thr"])
           for row in scored.map_batches(vc_partial,
                                         batch_format="pyarrow")
           .groupby("lang").map_groups(pick, batch_format="pyarrow")
           .take_all()}

    def gate(batch: pa.Table) -> pa.Table:
        score_v = np.asarray(batch.column("alpha_ppm"), dtype=np.int64)
        cut = batch.column("lang").to_pandas().map(thr) \
            .to_numpy(dtype=np.int64)
        return batch.filter(pa.array(score_v >= cut))

    return scored.map_batches(gate, batch_format="pyarrow")


# ------------------------------------------- k-center coreset sample

_KC_SCHEMA = pa.schema([
    ("pick_order", pa.int64()), ("vec_id", pa.int64()),
    ("min_dist_sq_micro", pa.int64())])


def kcenter_sample(sf_dir: str, k: int = 16):
    """Diversity (coreset) sampling: greedy k-center / farthest-point
    selection over the embedding table — start from vec_id 0, then k-1
    times pick the vector farthest (squared L2, ties to the lowest
    vec_id) from everything selected so far.  The SemDeDup-adjacent
    selection step a curation pipeline uses to build a maximally
    diverse seed set.

    Scale shape: the selected-set state is O(k x dim) and broadcasts
    each round; each round is ONE map-only pass that recomputes every
    vector's min squared distance against ALL centers picked so far
    (stateless tasks: no per-vector distance carries between rounds,
    so rounds stay independent and resumable) and emits a one-row
    per-batch argmax partial; the calling process folds the O(blocks)
    candidate rows."""
    import ray

    ds = _read_sized(sf_dir, "embeddings",
                     columns=["vec_id", "embedding"]).materialize()

    centers = _init_centers(sf_dir, 1)   # vec_id 0 starts the set
    picked = [(0, 0)]                    # (vec_id, dist_micro)

    for _ in range(k - 1):
        c_ref = ray.put(centers)

        def far_partial(batch: pa.Table) -> pa.Table:
            cs = ray.get(c_ref)
            ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
            x = np.asarray(batch.column("embedding").to_pylist(),
                           dtype=np.float64)
            d2 = ((x[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2) \
                .min(axis=1)
            j = int(np.lexsort((ids, -d2))[0])
            return pa.table({
                "vec_id": pa.array([int(ids[j])], pa.int64()),
                "d2": pa.array([float(d2[j])], pa.float64())})

        cands = ds.map_batches(far_partial,
                               batch_format="pyarrow").take_all()
        best = min(cands, key=lambda r: (-r["d2"], r["vec_id"]))
        picked.append((int(best["vec_id"]),
                       int(np.floor(best["d2"] * 1e6 + 0.5))))
        import pyarrow.parquet as pq
        import os
        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"],
                          filters=[("vec_id", "==", best["vec_id"])])
        centers = np.vstack([centers,
                             np.asarray(t.column("embedding")
                                        .to_pylist(),
                                        dtype=np.float64)])

    return pa.table({
        "pick_order": pa.array(range(len(picked)), pa.int64()),
        "vec_id": pa.array([p[0] for p in picked], pa.int64()),
        "min_dist_sq_micro": pa.array([p[1] for p in picked],
                                      pa.int64())}, schema=_KC_SCHEMA)


# ------------------------------------ count-min heavy-hitters sketch

_CMS_D, _CMS_W = 4, 2048
_CMS_KEYS = [f"cms-seed-{d:05d}xx" for d in range(_CMS_D)]  # 16 chars
_CMS_PARTIAL = pa.schema([
    ("grp", pa.int64()), ("cms", pa.list_(pa.int64())),
    ("cands", pa.list_(pa.string()))])
_CMS_SCHEMA = pa.schema([
    ("token", pa.string()), ("est_count", pa.int64())])


def _cms_rows(tokens: np.ndarray) -> np.ndarray:
    """d x n bucket indices for the token strings (seeded, stable)."""
    return np.stack([
        pd.util.hash_array(tokens, hash_key=key) % np.uint64(_CMS_W)
        for key in _CMS_KEYS]).astype(np.int64)


def token_heavy_hitters_sketch(sf_dir: str, k: int = 20,
                               cand_m: int = 64):
    """Approximate corpus-wide token heavy hitters via a Count-Min
    sketch — the third mergeable sketch alongside the HLL distinct
    count and the equi-depth quantile summary: constant-size state
    (d=4 x w=2048 int64 counters) replaces the full token-domain
    shuffle when the vocabulary no longer fits one.  Candidates are
    the union of per-batch local top-``cand_m`` tokens (the standard
    CMS companion heap; a global heavy hitter is by definition heavy
    in some batch).  Estimates are the conservative per-row minimum,
    so they never undershoot the true count.  No SQL oracle
    (approximate by construction, like distinct_users_hll); accuracy
    vs exact counts is pinned in tests/test_round5c_ops.py.

    Scale shape: each batch ships one 64 KB sketch row; rows fold in
    two levels (16 coarse groups, then one final merge) so no task
    ever sees O(blocks) rows."""
    ds = _read_sized(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pd.Series(batch.column("text").to_pylist(), dtype=object) \
            .fillna("").str.findall(_TOKEN_RE)
        flat = [t for ts in toks for t in ts]
        if not flat:
            return pa.table({"grp": [], "cms": [], "cands": []},
                            schema=_CMS_PARTIAL)
        vc = pd.Series(flat).value_counts()
        uniq = vc.index.to_numpy(dtype=object)
        counts = vc.to_numpy(dtype=np.int64)
        cms = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
        rows = _cms_rows(uniq)
        for d in range(_CMS_D):
            np.add.at(cms[d], rows[d], counts)
        # deterministic 16-way fan-in group from the sketch content
        grp = int(cms.sum() % 16)
        cands = sorted(vc.head(cand_m).index)
        return pa.table({
            "grp": pa.array([grp], pa.int64()),
            "cms": pa.array([cms.ravel().tolist()],
                            pa.list_(pa.int64())),
            "cands": pa.array([cands], pa.list_(pa.string()))},
            schema=_CMS_PARTIAL)

    def merge_grp(group: pa.Table) -> pa.Table:
        cms = np.zeros(_CMS_D * _CMS_W, dtype=np.int64)
        cands: set = set()
        for row in group.to_pylist():
            cms += np.asarray(row["cms"], dtype=np.int64)
            cands.update(row["cands"])
        return pa.table({
            "grp": pa.array([0], pa.int64()),
            "cms": pa.array([cms.tolist()], pa.list_(pa.int64())),
            "cands": pa.array([sorted(cands)], pa.list_(pa.string()))},
            schema=_CMS_PARTIAL)

    def finish(group: pa.Table) -> pa.Table:
        cms = np.zeros(_CMS_D * _CMS_W, dtype=np.int64)
        cands: set = set()
        for row in group.to_pylist():
            cms += np.asarray(row["cms"], dtype=np.int64)
            cands.update(row["cands"])
        cms = cms.reshape(_CMS_D, _CMS_W)
        cand_arr = np.array(sorted(cands), dtype=object)
        rows = _cms_rows(cand_arr)
        est = cms[np.arange(_CMS_D)[:, None], rows].min(axis=0)
        order = np.lexsort((cand_arr, -est))[:k]
        return pa.table({
            "token": pa.array(cand_arr[order], pa.string()),
            "est_count": pa.array(est[order], pa.int64())},
            schema=_CMS_SCHEMA)

    folded = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("grp").map_groups(merge_grp, batch_format="pyarrow")
    return folded.groupby("grp").map_groups(finish,
                                            batch_format="pyarrow")


# ----------------------------------------------- full outer join

_OUTER_PARTIAL = pa.schema([
    ("user_id", pa.int64()), ("part_events", pa.int64())])
_OUTER_SCHEMA = pa.schema([
    ("key", pa.int64()), ("n_events", pa.int64()),
    ("is_customer", pa.int64()), ("acctbal_cents", pa.int64())])


def users_vs_customers_outer(sf_dir: str, n_parts: int = 16):
    """Full OUTER join across genuinely asymmetric key domains: event
    activity per user against the customer roster — activity without an
    account and accounts without activity both survive (the audit /
    reconciliation query shape).  COALESCE semantics pinned: key =
    whichever side is present, counts and balances default to 0, and
    the money is integer cents.

    Scale shape: events pre-aggregate to per-(batch, user) partials
    before the exchange (the join never sees raw events); both sides
    co-locate by key hash in the partitioned join, where outer-ness is
    per-partition exact because every occurrence of a key lands in one
    partition."""
    from .table_ops import _cents

    ev = _read_sized(sf_dir, "events", columns=["user_id"])

    def ev_partial(batch: pa.Table) -> pa.Table:
        vc = pd.Series(
            np.asarray(batch.column("user_id"), dtype=np.int64)) \
            .value_counts()
        return pa.table({
            "user_id": pa.array(vc.index.to_numpy(), pa.int64()),
            "part_events": pa.array(vc.to_numpy(), pa.int64())},
            schema=_OUTER_PARTIAL)

    ev = ev.map_batches(ev_partial, batch_format="pyarrow")

    cust = _read_sized(sf_dir, "customer",
                       columns=["c_custkey", "c_acctbal"])

    def cust_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch.column("c_custkey").cast(pa.int64()),
            "cc": pa.array(_cents(np.asarray(
                batch.column("c_acctbal"), dtype=np.float64)),
                pa.int64())})

    cust = cust.map_batches(cust_cents, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        # partials for one user can come from several event batches;
        # outer rows carry NaN on the absent side
        key = df["user_id"].fillna(df["c_custkey"]).astype(np.int64)
        df = df.assign(key=key)
        g = df.groupby("key", as_index=False).agg(
            n_events=("part_events", "sum"),
            is_customer=("cc", "count"),
            acctbal_cents=("cc", "first"))
        g["n_events"] = g["n_events"].fillna(0).astype(np.int64)
        # a key appears once per customer; count>0 means the roster side
        g["is_customer"] = (g["is_customer"] > 0).astype(np.int64)
        g["acctbal_cents"] = g["acctbal_cents"].fillna(0) \
            .astype(np.int64)
        return g

    return hash_join(ev, cust, "user_id", "c_custkey", how="outer",
                     n_parts=n_parts, merge_post=fold,
                     post_schema=_OUTER_SCHEMA)


# ------------------------------------------------- rollup aggregate

_ROLLUP_PARTIAL = pa.schema([
    ("o_orderpriority", pa.string()), ("o_year", pa.int64()),
    ("part_n", pa.int64()), ("part_cents", pa.int64())])
_ROLLUP_SCHEMA = pa.schema([
    ("o_orderpriority", pa.string()), ("o_year", pa.int64()),
    ("n_orders", pa.int64()), ("revenue_cents", pa.int64())])


def revenue_rollup(sf_dir: str):
    """GROUPING SETS / ROLLUP aggregate: order revenue at THREE
    granularities — (priority, year), (priority), and grand total —
    from ONE pass.  Coarser levels are derived from the finest
    aggregate, never from a second scan: the classic rollup-from-finest
    pattern (the finest result is O(priorities x years) rows, so the
    derivation runs in one task).  NULL group members are pinned to
    'ALL' / -1 to keep the driver's hash compare well-defined."""
    ds = _read_sized(sf_dir, "orders",
                     columns=["o_orderpriority", "o_orderdate",
                              "o_totalprice"])
    from .table_ops import _cents

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o_orderpriority": batch.column("o_orderpriority")
                .to_pylist(),
            "o_year": batch.column("o_orderdate").to_pandas()
                .dt.year.to_numpy(dtype=np.int64),
            "cents": _cents(np.asarray(batch.column("o_totalprice"),
                                       dtype=np.float64))})
        g = df.groupby(["o_orderpriority", "o_year"],
                       as_index=False).agg(part_n=("cents", "size"),
                                           part_cents=("cents", "sum"))
        return _pd_table(g, _ROLLUP_PARTIAL)

    from ray.data.aggregate import Sum
    finest = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["o_orderpriority", "o_year"]) \
        .aggregate(Sum("part_n", alias_name="n_orders"),
                   Sum("part_cents", alias_name="revenue_cents"))

    def rollup(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        lvl1 = df[["o_orderpriority", "o_year", "n_orders",
                   "revenue_cents"]]
        lvl2 = df.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("n_orders", "sum"),
            revenue_cents=("revenue_cents", "sum"))
        lvl2["o_year"] = -1
        lvl3 = pd.DataFrame({
            "o_orderpriority": ["ALL"], "o_year": [-1],
            "n_orders": [df["n_orders"].sum()],
            "revenue_cents": [df["revenue_cents"].sum()]})
        out = pd.concat([lvl1, lvl2, lvl3], ignore_index=True)
        return _pd_table(out[["o_orderpriority", "o_year", "n_orders",
                              "revenue_cents"]], _ROLLUP_SCHEMA)

    # batch_size=None: the rollup must see the whole finest table in one
    # batch, or >1024 finest cells would emit duplicate 'ALL' rows
    return finest.repartition(1).map_batches(rollup,
                                             batch_format="pyarrow",
                                             batch_size=None)


# ---------------------------------------------- mixture resampling

_RESAMPLE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("source", pa.string()),
    ("lang", pa.string()), ("n_chars", pa.int64())])


def mixture_resample(sf_dir: str):
    """Materialize the training mix: keep each document with
    probability equal to its source's temperature-scaled share
    (``domain_mixture_weights``), decided by the house deterministic
    md5 bucket so any engine reproduces the exact row set —
    upweighted (small) sources keep a larger fraction of their docs,
    downweighted (huge) ones are thinned.

    Scale shape: the share table is O(sources) and broadcasts as a
    plain dict; the pass itself is a streaming map-only hash filter
    (no exchange at all)."""
    shares = {
        row["source"]: int(row["share_ppm"])
        for _, row in domain_mixture_weights(sf_dir).to_pandas()
        .iterrows()}

    from .table_ops import _md5_bucket32
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "source", "lang", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        bucket = _md5_bucket32(batch.column("doc_id").to_pylist()) \
            % 1_000_000
        rate = pd.Series(batch.column("source").to_pylist()) \
            .map(shares).to_numpy(dtype=np.int64)
        out = batch.filter(pa.array(bucket < rate))
        return pa.table({
            "doc_id": out.column("doc_id").cast(pa.int64()),
            "source": out.column("source"),
            "lang": out.column("lang"),
            "n_chars": out.column("n_chars").cast(pa.int64())},
            schema=_RESAMPLE_SCHEMA)

    return ds.map_batches(pick, batch_format="pyarrow")


# ------------------------------------------- leakage-safe split

_SPLIT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("component", pa.int64()),
    ("split", pa.string())])


def leakage_safe_split(sf_dir: str, train_pct: int = 90):
    """Decontaminated train/validation split: documents split ~90/10 by
    the deterministic md5 bucket of their near-dup COMPONENT, so a
    whole near-duplicate cluster always lands on one side — the split a
    training pipeline needs to keep eval text from leaking into train
    via paraphrases (splitting on doc_id would put near-identical twins
    on opposite sides).

    Scale shape: the member-only component labels broadcast
    (``component_label_ref``); the split is a map-only pass over the
    corpus — no exchange."""
    import ray

    from .table_ops import _md5_bucket32
    lab_ref = component_label_ref(sf_dir)
    ds = _read_sized(sf_dir, "documents", columns=["doc_id"])

    def tag(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        comp = attach_labels(ray.get(lab_ref), d)
        bucket = _md5_bucket32(comp.tolist()) % 100
        split = np.where(bucket < train_pct, "train", "val")
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "component": pa.array(comp, pa.int64()),
            "split": pa.array(split, pa.string())},
            schema=_SPLIT_SCHEMA)

    return ds.map_batches(tag, batch_format="pyarrow")
