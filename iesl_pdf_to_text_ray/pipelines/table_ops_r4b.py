"""Round-4b query pack: the training-data preparation surface a 100 TB
corpus pipeline needs beyond dedup/ANN — fixed-size training-chunk
splitting, Gopher-style repetition filters (Rae et al. 2021, "Scaling
Language Models: ... Gopher", §A1.1 quality heuristics), PII redaction,
and per-user behavioral anomaly screening — plus two more relational
shapes (a TPC-H Q19-flavored bracket join, a dimension-table trade
balance) and the media-gallery explode over the interleaved-spans model.

House discipline (same as table_ops_r4): every operator streams, every
aggregate is partial-combined before its (small) exchange, dimension
sides are broadcast from worker-built sorted arrays, money is integer
cents (``_cents``), floats are round(…, 6) pinned on both sides, and
each query has an ANSI-SQL oracle in ``__ray_entry__.oracle_sql`` unless
explicitly rows-only.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.textops import _TOKEN_RE
from .joins import _pd_table, broadcast_lookup, hash_join
from .table_ops import (_cents, _md5_bucket32, _nation_lookup,
                        _partitioned_agg, _read_sized)
from .table_ops_r4 import _scalar_reduce

# --------------------------------------------------- training-chunk split

_CHUNK_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("chunk_idx", pa.int32()),
    ("n_tokens", pa.int32()), ("chunk_md5", pa.string())])


def doc_chunks(sf_dir: str, chunk_tokens: int = 64):
    """Split each document into fixed-size training chunks of
    ``chunk_tokens`` whitespace tokens (last chunk ragged) and emit one
    row per chunk with its token count and content digest — the shape a
    tokenize-and-pack training-data stage consumes.  Pure per-batch
    flat-map: no shuffle at any scale; chunk rows inherit the input's
    partitioning so a downstream pack/shuffle stage can stream them."""
    import hashlib
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        # vectorized tokenization: one pandas findall over the batch
        toks_col = pd.Series(batch.column("text").to_pylist(),
                             dtype=object).str.findall(_TOKEN_RE)
        out_id, out_idx, out_n, out_md5 = [], [], [], []
        for doc_id, toks in zip(ids, toks_col):
            for c in range(0, (len(toks) + chunk_tokens - 1)
                           // chunk_tokens):
                part = toks[c * chunk_tokens:(c + 1) * chunk_tokens]
                out_id.append(str(doc_id))
                out_idx.append(c)
                out_n.append(len(part))
                out_md5.append(
                    hashlib.md5(" ".join(part).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(out_id, pa.string()),
            "chunk_idx": pa.array(out_idx, pa.int32()),
            "n_tokens": pa.array(out_n, pa.int32()),
            "chunk_md5": pa.array(out_md5, pa.string())},
            schema=_CHUNK_SCHEMA)

    return ds.map_batches(explode, batch_format="pyarrow")


# ------------------------------------------- repetition / diversity filter

_DIVERSITY_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("n_tokens", pa.int64()),
    ("n_distinct", pa.int64()), ("top_count", pa.int64())])


def token_diversity(sf_dir: str):
    """Gopher-style repetition screen: per-document token count,
    distinct-token count and most-frequent-token count (Rae et al. 2021
    §A1.1 drops documents whose top unigram exceeds a mass threshold —
    the ratios are downstream divisions; the operator emits the exact
    integer numerators so cross-engine equality holds without a float
    rounding rule).  Entirely per-document — a streaming map_batches
    with one np.unique per doc, no shuffle; at 100 TB this runs at read
    bandwidth."""
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        ids = [str(d) for d in batch.column("doc_id").to_pylist()]
        toks_col = pd.Series(batch.column("text").to_pylist(),
                             dtype=object).str.findall(_TOKEN_RE)
        n_tok, n_dis, top = [], [], []
        for toks in toks_col:
            n = len(toks)
            if n == 0:
                n_tok.append(0); n_dis.append(0); top.append(0)
                continue
            _, counts = np.unique(np.asarray(toks, dtype=object),
                                  return_counts=True)
            n_tok.append(n)
            n_dis.append(len(counts))
            top.append(int(counts.max()))
        return pa.table({
            "doc_id": pa.array(ids, pa.string()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_distinct": pa.array(n_dis, pa.int64()),
            "top_count": pa.array(top, pa.int64())},
            schema=_DIVERSITY_SCHEMA)

    return ds.map_batches(stats, batch_format="pyarrow")


# ------------------------------------------------------------- PII scrub

_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_EMAIL_PAT = re.compile(_EMAIL_RE)
_PII_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("n_redacted", pa.int32()),
    ("clean_md5", pa.string())])


def pii_scrub(sf_dir: str):
    """PII redaction over document text: count and replace email
    addresses with ``<EMAIL>`` (vectorized pandas str kernels on a
    compiled pattern).  The synthetic corpus carries no organic PII, so
    a deterministic md5-gated injector plants one address in ~1/7 of
    documents first — reproducible by the SQL oracle, which applies the
    identical injection + regexp_replace and compares the scrubbed-text
    digest.  Streaming map_batches, no shuffle."""
    import hashlib
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        ids = [str(d) for d in batch.column("doc_id").to_pylist()]
        t = pd.Series(batch.column("text").to_pylist(), dtype=object)
        inject = (_md5_bucket32(ids) % 7) == 0
        t = t.where(~inject,
                    t + " contact user" + pd.Series(ids) + "@example.com now")
        n_red = t.str.count(_EMAIL_PAT).astype(np.int32)
        clean = t.str.replace(_EMAIL_PAT, "<EMAIL>", regex=True)
        md5s = [hashlib.md5(x.encode()).hexdigest() for x in clean]
        return pa.table({
            "doc_id": pa.array(ids, pa.string()),
            "n_redacted": pa.array(n_red, pa.int32()),
            "clean_md5": pa.array(md5s, pa.string())},
            schema=_PII_SCHEMA)

    return ds.map_batches(scrub, batch_format="pyarrow")


# ------------------------------------------ TPC-H Q19-flavored bracket join

_BRACKET_PARTIAL = pa.schema([("part_cents", pa.int64()),
                              ("part_n", pa.int64())])
_BRACKET_SCHEMA = pa.schema([("revenue_cents", pa.int64()),
                             ("n_items", pa.int64())])


def discount_bracket_revenue(sf_dir: str):
    """TPC-H Q19 flavor: revenue from lineitems matching one of three
    (brand, size, quantity) brackets — the classic OR-of-ANDs
    multi-predicate join.  The part dimension is a broadcast lookup of
    brand number and size, built in a worker task (at sf100 part is 20M
    rows ≈ 300 MB — object store, not the caller's heap); lineitem streams
    once with a vectorized bracket mask over the rows whose part is
    found; the aggregate is one-row partials + constant merge."""
    import pyarrow.compute as pc
    import ray

    brand = pc.list_element(pc.split_pattern(pc.field("p_brand"), "#"), 1)
    part_ref = broadcast_lookup(sf_dir, "part", "p_partkey",
                                {"brand": brand.cast(pa.int64()),
                                 "size": pc.field("p_size")})
    items = _read_sized(sf_dir, "lineitem",
                        columns=["l_partkey", "l_quantity",
                                 "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        part = ray.get(part_ref)
        # the rows whose part is found, narrowed to the bracket matches
        mask, row = part.probe(np.asarray(batch.column("l_partkey")))
        b, s = part["brand"][row], part["size"][row]
        qty = np.asarray(batch.column("l_quantity"))[mask]
        mask[mask] = (((b <= 8) & (s <= 10) & (qty <= 15)) |
                      ((b > 8) & (b <= 16) & (s <= 20) & (qty >= 10)
                       & (qty <= 30)) |
                      ((b > 16) & (s <= 30) & (qty >= 25)))
        price = np.asarray(batch.column("l_extendedprice"))[mask]
        disc = np.asarray(batch.column("l_discount"))[mask]
        cents = _cents(price * (1.0 - disc))
        return pa.table({
            "part_cents": pa.array([int(cents.sum())], pa.int64()),
            "part_n": pa.array([int(mask.sum())], pa.int64())})

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_cents": pa.array(
                [int(np.asarray(batch.column("part_cents")).sum())],
                pa.int64()),
            "n_items": pa.array(
                [int(np.asarray(batch.column("part_n")).sum())],
                pa.int64())})

    ds = items.map_batches(partial, batch_format="pyarrow")
    return _scalar_reduce(ds, final, _BRACKET_SCHEMA)


# ------------------------------------------------- nation trade balance

_TRADE_PARTIAL = pa.schema([
    ("nationkey", pa.int64()),
    ("c_n", pa.int64()), ("c_cents", pa.int64()),
    ("s_n", pa.int64()), ("s_cents", pa.int64())])


def nation_trade_balance(sf_dir: str):
    """Customer vs supplier account-balance totals per nation: two fact
    scans emit tagged per-batch partials keyed by nationkey (25 values),
    a third tiny pass seeds every nation with zeros so empty nations
    survive, and one 25-key groupby folds them — the union-of-partials
    pattern that replaces a 3-way join with a single constant-size
    exchange."""
    import ray
    from ray.data.aggregate import Sum

    def cust_partial(batch: pa.Table) -> pa.Table:
        nk = np.asarray(batch.column("c_nationkey"), dtype=np.int64)
        cents = _cents(np.asarray(batch.column("c_acctbal")))
        df = pd.DataFrame({"nationkey": nk, "c_cents": cents})
        g = df.groupby("nationkey", sort=False).agg(
            c_n=("c_cents", "size"), c_cents=("c_cents", "sum")) \
            .reset_index()
        g["s_n"] = 0; g["s_cents"] = 0
        return _pd_table(g, _TRADE_PARTIAL)

    def supp_partial(batch: pa.Table) -> pa.Table:
        nk = np.asarray(batch.column("s_nationkey"), dtype=np.int64)
        cents = _cents(np.asarray(batch.column("s_acctbal")))
        df = pd.DataFrame({"nationkey": nk, "s_cents": cents})
        g = df.groupby("nationkey", sort=False).agg(
            s_n=("s_cents", "size"), s_cents=("s_cents", "sum")) \
            .reset_index()
        g["c_n"] = 0; g["c_cents"] = 0
        return _pd_table(g[["nationkey", "c_n", "c_cents", "s_n",
                            "s_cents"]], _TRADE_PARTIAL)

    def nation_seed(batch: pa.Table) -> pa.Table:
        nk = np.asarray(batch.column("n_nationkey"), dtype=np.int64)
        z = np.zeros(len(nk), dtype=np.int64)
        return pa.table({"nationkey": pa.array(nk, pa.int64()),
                         "c_n": pa.array(z, pa.int64()),
                         "c_cents": pa.array(z, pa.int64()),
                         "s_n": pa.array(z, pa.int64()),
                         "s_cents": pa.array(z, pa.int64())})

    cust = _read_sized(sf_dir, "customer",
                       columns=["c_nationkey", "c_acctbal"]) \
        .map_batches(cust_partial, batch_format="pyarrow")
    supp = _read_sized(sf_dir, "supplier",
                       columns=["s_nationkey", "s_acctbal"]) \
        .map_batches(supp_partial, batch_format="pyarrow")
    seed = _read_sized(sf_dir, "nation", columns=["n_nationkey"]) \
        .map_batches(nation_seed, batch_format="pyarrow")
    ds = cust.union(supp, seed).groupby("nationkey").aggregate(
        Sum("c_n", alias_name="n_customers"),
        Sum("c_cents", alias_name="customer_cents"),
        Sum("s_n", alias_name="n_suppliers"),
        Sum("s_cents", alias_name="supplier_cents"))

    # nation names via the broadcast lookup; the inner join drops the
    # partials of nation keys that no nation row has (the oracle's
    # LEFT JOIN from nation never sees them)
    nation_ref = _nation_lookup(sf_dir)

    def name_nations(batch: pa.Table) -> pa.Table:
        nation = ray.get(nation_ref)
        hit, row = nation.probe(np.asarray(batch.column("nationkey")))
        return batch.filter(pa.array(hit)).set_column(
            0, "n_name", pa.array(nation["n_name"][row], pa.string()))

    return ds.map_batches(name_nations, batch_format="pyarrow")


# --------------------------------------------------- per-user anomaly scan

_USTAT_PARTIAL = pa.schema([
    ("user_id", pa.int64()), ("n", pa.int64()),
    ("s1", pa.float64()), ("s2", pa.float64())])


_USTAT_SCHEMA = pa.schema([
    ("s_user_id", pa.int64()), ("u_mean", pa.float64()),
    ("u_var", pa.float64())])
_ANOM_PARTIAL = pa.schema([
    ("event_type", pa.string()), ("part_n", pa.int64()),
    ("part_out", pa.int64())])


def events_anomaly(sf_dir: str, sigmas: float = 3.0):
    """Per-user z-score outlier screen, partitioned end to end: pass 1
    reduces events to per-batch per-user (count, sum, sum-of-squares)
    partials and folds them into per-user (mean, variance) inside a
    32-way ``_partitioned_agg`` — each task holds only its hash shard of
    the user domain, so a 10^9-user corpus just raises ``n_parts``.
    Pass 2 hash-joins events against that sharded stat table (one
    shuffle of events, same-key co-location) and flags, per event_type,
    values whose outlier margin ``(v - mean)^2 - sigmas^2 * var``
    exceeds 1e-6 — the margin threshold (instead of a raw > 0) plus a
    variance clamped at 0 pins the float boundary so distributed
    sum-order differences vs the oracle cannot flip a flag.  The flag +
    event_type partial fold rides inside the join's merge
    (``merge_post``), so the post-join exchange is O(event_types)."""

    ds = _read_sized(sf_dir, "events", columns=["user_id", "value"])

    def upartial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("value"))
        df = pd.DataFrame({
            "user_id": np.asarray(batch.column("user_id"), dtype=np.int64),
            "v": v, "v2": v * v})
        g = df.groupby("user_id", sort=False).agg(
            n=("v", "size"), s1=("v", "sum"), s2=("v2", "sum")) \
            .reset_index()
        return _pd_table(g, _USTAT_PARTIAL)

    def stat_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("user_id", sort=False,
                                   as_index=False).agg(
            n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum"))
        n = df["n"].to_numpy(dtype=np.float64)
        mean = df["s1"].to_numpy() / n
        # clamp: s2/n - mean^2 can go epsilon-negative by cancellation
        var = np.maximum(df["s2"].to_numpy() / n - mean * mean, 0.0)
        out = pd.DataFrame({
            "s_user_id": df["user_id"].to_numpy(dtype=np.int64),
            "u_mean": mean, "u_var": var})
        return _pd_table(out, _USTAT_SCHEMA)

    stats = _partitioned_agg(
        ds.map_batches(upartial, batch_format="pyarrow"),
        "user_id", stat_group, n_parts=32)

    ev = _read_sized(sf_dir, "events",
                     columns=["user_id", "event_type", "value"])

    def flag_post(df: pd.DataFrame) -> pd.DataFrame:
        dev = df["value"].to_numpy() - df["u_mean"].to_numpy()
        score = dev * dev - (sigmas * sigmas) * df["u_var"].to_numpy()
        g = pd.DataFrame({
            "event_type": df["event_type"],
            "out": (score > 1e-6).astype(np.int64)}) \
            .groupby("event_type", sort=False)["out"] \
            .agg(part_n="size", part_out="sum").reset_index()
        return g

    joined = hash_join(ev, stats, "user_id", "s_user_id", n_parts=32,
                       merge_post=flag_post,
                       post_schema=_ANOM_PARTIAL)

    from ray.data.aggregate import Sum as _Sum
    return joined.groupby("event_type").aggregate(
        _Sum("part_n", alias_name="n_events"),
        _Sum("part_out", alias_name="n_outliers"))


# ------------------------------------------- interleaved-spans media gallery

_GALLERY_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("media_ref", pa.string()),
    ("offset", pa.int32())])


def spans_media_gallery(sf_dir: str):
    """Explode the interleaved-spans table to its media rows — the
    figure-gallery view a multimodal training join consumes: one row per
    media span with its document-order offset.  Runs the deterministic
    span synthesis (spans_ops) then a flat per-batch explode; no
    shuffle.  The SQL oracle reproduces the synthesis rule's md5-gated
    media placement and its offset arithmetic (offset = chunk index +
    media ordinal - 1)."""
    from .spans_ops import synthesize_spans_batch
    from .table_ops import _read_sized
    # size-aware read (join-feeding side; see media_features)
    ds = _read_sized(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(synthesize_spans_batch, batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        # Arrow-native explode: list_parent_indices + list_flatten stay
        # zero-copy in C; no per-row Python over span structs
        import pyarrow.compute as pc
        spans = batch.column("spans").combine_chunks()
        flat = spans.flatten()
        parent = pc.list_parent_indices(spans)
        tbl = pa.table({
            "doc_id": batch.column("doc_id").take(parent),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
            "kind": flat.field("kind")})
        tbl = tbl.filter(pc.equal(tbl.column("kind"), "media"))
        return tbl.select(["doc_id", "media_ref", "offset"]) \
            .cast(_GALLERY_SCHEMA)

    return ds.map_batches(explode, batch_format="pyarrow")


# ----------------------------------------------------- HTML block statistics

_HTML_BLOCK_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("n_blocks", pa.int32()),
    ("n_good", pa.int32()), ("n_bad", pa.int32()),
    ("n_media_kept", pa.int32())])


def html_block_stats(sf_dir: str, corpus_dir: str | None = None):
    """Per-document boilerplate-classification census over the synthetic
    HTML corpus: how many non-empty DOM blocks the segmenter found and
    how the shallow-feature classifier resolved them after the jusText
    smoothing pass (good = main content, bad = boilerplate), plus media
    refs retained in main content.  Rows-only (no SQL analog of the DOM
    walk); the label distribution is pinned by pytest against the
    corpus generator's known page structure.  Pure streaming
    map_batches — the diagnostics view a crawl-quality dashboard would
    compute over 10^12 pages."""
    import ray.data
    from ..functions.html_main import (_classify, parse_blocks,
                                       spans_from_blocks)
    from ..sources.corpus import cached_dir
    from ..sources.html_corpus import (cached_html_corpus,
                                       synthesize_html_corpus)
    if corpus_dir is None:
        corpus_dir = cached_html_corpus()
    else:
        cached_dir(corpus_dir, lambda d: synthesize_html_corpus(
            d, n_docs=32, n_shards=4))
    ds = ray.data.read_parquet(corpus_dir, columns=["doc_id", "html"])

    def stats(batch: pa.Table) -> pa.Table:
        ids = [str(d) for d in batch.column("doc_id").to_pylist()]
        htmls = batch.column("html").to_pylist()
        rows = {k: [] for k in ("n_blocks", "n_good", "n_bad",
                                "n_media_kept")}
        for html in htmls:
            # ONE parser pass per document: the label census and the
            # retained-media count both read the same segmented blocks
            blocks = parse_blocks(html)
            all_labels = _classify(blocks)
            labels = [l for l in all_labels if l != "empty"]
            rows["n_blocks"].append(len(labels))
            rows["n_good"].append(sum(1 for l in labels if l == "good"))
            rows["n_bad"].append(sum(1 for l in labels if l == "bad"))
            rows["n_media_kept"].append(
                sum(1 for s in spans_from_blocks(blocks, all_labels)
                    if s["kind"] == "media"))
        return pa.table({
            "doc_id": pa.array(ids, pa.string()),
            **{k: pa.array(v, pa.int32()) for k, v in rows.items()}},
            schema=_HTML_BLOCK_SCHEMA)

    return ds.map_batches(stats, batch_format="pyarrow")


# --------------------------------------------------- curation composite

_CURATE_PARTIAL = pa.schema([
    ("lang", pa.string()), ("part_n", pa.int64()),
    ("part_chars", pa.int64())])


def corpus_curation(sf_dir: str, min_chars: int = 100,
                    max_top_frac5: int = 5, drop_lang: str = "zh",
                    n_parts: int = 32):
    """The canonical training-data curation chain as ONE streaming
    pipeline: quality screen (length + Gopher top-unigram mass, stated
    as the integer cross-product ``5 * top_count <= n_tokens`` so no
    float rule exists) -> language allowlist -> exact dedup (min doc_id
    per content hash) -> per-language corpus stats.  One shuffle total:
    the coarse hash-partition exchange that co-locates equal texts; the
    quality/language screens run during the scan, and the per-language
    rollup folds into the dedup partitions (<= n_langs rows each), so
    the final groupby touches O(parts x langs) rows.  This is the
    composition story: every stage is the already-verified operator
    kernel, fused without materialization."""
    import hashlib
    from ray.data.aggregate import Sum
    from .table_ops import _partitioned_agg
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "text", "lang", "n_chars"])

    def screen(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks_col = pd.Series(texts, dtype=object).str.findall(_TOKEN_RE)
        nt = np.fromiter((len(t) for t in toks_col), np.int64,
                         len(texts))
        topc = np.fromiter(
            (int(np.unique(np.asarray(t, dtype=object),
                           return_counts=True)[1].max()) if t else 0
             for t in toks_col), np.int64, len(texts))
        lang = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        n_chars = np.asarray(batch.column("n_chars"), dtype=np.int64)
        keep = ((n_chars >= min_chars)
                & (max_top_frac5 * topc <= nt)
                & (lang != drop_lang))
        kept = batch.filter(pa.array(keep))
        hashes = [hashlib.md5(t.encode()).hexdigest()
                  for t, k in zip(texts, keep) if k]
        return pa.table({
            "h": pa.array(hashes, pa.string()),
            "doc_id": kept.column("doc_id"),
            "lang": kept.column("lang"),
            "n_chars": kept.column("n_chars")})

    def dedup_rollup(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values("doc_id")
        rep = df.groupby("h", as_index=False).first()
        g = rep.groupby("lang", as_index=False).agg(
            part_n=("h", "size"), part_chars=("n_chars", "sum"))
        return _pd_table(g[["lang", "part_n", "part_chars"]],
                         _CURATE_PARTIAL)

    parts = _partitioned_agg(
        ds.map_batches(screen, batch_format="pyarrow"), "h",
        dedup_rollup, n_parts=n_parts)
    return parts.groupby("lang").aggregate(
        Sum("part_n", alias_name="n_docs"),
        Sum("part_chars", alias_name="total_chars"))


# ------------------------------------------------- spans text reassembly

_REASSEMBLE_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("n_text_spans", pa.int32()),
    ("clean_text_md5", pa.string())])


def spans_reassemble(sf_dir: str, sep: str = " | "):
    """Reconstruct each document's normalized body text from its
    interleaved spans — the inverse of chunking and the step a
    text-only training export runs after extraction: synthesize ->
    normalize (control-char/whitespace span drop) -> join the surviving
    text spans in document order -> digest.  Per-document streaming
    map_batches chain, no shuffle; MATCH-checked against a SQL oracle
    that replays the synthesis rule, the drop predicate and the ordered
    string_agg."""
    import hashlib
    import ray.data
    from .spans_ops import normalize_spans_batch, synthesize_spans_batch
    from .table_ops import _clean_schema
    path = os.path.join(sf_dir, "documents.parquet")
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"],
                               schema=_clean_schema(path,
                                                    ["doc_id", "text"]))
    ds = ds.map_batches(synthesize_spans_batch, batch_format="pyarrow")
    ds = ds.map_batches(normalize_spans_batch, batch_format="pyarrow")

    def reassemble(batch: pa.Table) -> pa.Table:
        # Arrow-native flatten/filter; only the per-doc join + md5 (both
        # inherently per-document) run above C level
        import pyarrow.compute as pc
        n_docs = batch.num_rows
        spans = batch.column("spans").combine_chunks()
        flat = spans.flatten()
        parent = np.asarray(pc.list_parent_indices(spans))
        is_text = np.asarray(pc.equal(flat.field("kind"), "text"))
        parent = parent[is_text]
        texts = np.asarray(flat.field("text").to_pandas(), dtype=object)
        texts = texts[is_text]
        counts = np.bincount(parent, minlength=n_docs)
        out_md5 = []
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for i in range(n_docs):   # spans are in doc order, so slices
            body = sep.join(texts[bounds[i]:bounds[i + 1]])
            out_md5.append(hashlib.md5(body.encode()).hexdigest())
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.string()),
            "n_text_spans": pa.array(counts.astype(np.int32),
                                     pa.int32()),
            "clean_text_md5": pa.array(out_md5, pa.string())},
            schema=_REASSEMBLE_SCHEMA)

    return ds.map_batches(reassemble, batch_format="pyarrow")


# ------------------------------------------- multimodal training manifest

_MANIFEST_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("media_ref", pa.string()),
    ("offset", pa.int32()), ("width", pa.int32()),
    ("height", pa.int32())])


def media_training_manifest(sf_dir: str):
    """The multimodal training join: every media span of the interleaved
    corpus paired with its decoded image features — the manifest a
    vision-text training loader consumes (doc, figure ref, document-order
    position, pixel dimensions).  Left side is the spans media gallery,
    right side the actor-pool decode stage's feature table; both are
    corpus-sized, so they meet in the partitioned hash join (no
    broadcast), with the column projection folded into the partition
    merge."""
    from .table_ops import media_features
    gallery = spans_media_gallery(sf_dir)

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "f_doc_id": batch.column("doc_id"),
            "width": batch.column("width"),
            "height": batch.column("height")})

    feats = media_features(sf_dir).map_batches(tag, batch_format="pyarrow")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "media_ref", "offset", "width", "height"]]

    return hash_join(gallery, feats, "doc_id", "f_doc_id",
                     merge_post=project, post_schema=_MANIFEST_SCHEMA)
