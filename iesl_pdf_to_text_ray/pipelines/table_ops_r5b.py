"""Round-5b query pack: multi-way relational shapes (TPC-H Q7/Q9/Q22
flavors) and two corpus-curation operators (canonical-doc selection,
distributed TF-IDF).

House discipline (same as table_ops/_r4/_r4b/_r5): column-pruned reads,
partial combiners before every exchange, money in integer cents
(``_cents``), small sides as broadcast lookups, big x big through the
partitioned ``hash_join`` with aggregation folded into the merge, and an
ANSI-SQL oracle per query in ``__ray_entry__.oracle_sql`` with identical
column names and pinned (integer / libm-matched) value rules.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _pd_table, broadcast_lookup, hash_join
from .table_ops import _cents, _nation_lookup, _partitioned_agg, _read_sized

# ---------------------------------------------------------------- helpers

def _shipped(supp_ref, keep: list[str]):
    """Lineitem projection applied before the join's shuffle: the rows
    whose supplier is found, as the ``keep`` columns plus the supplier's
    nation key ``s_nat``, the ship year ``l_year`` and the revenue
    ``cents`` — numeric columns only, so the shuffle stays narrow."""
    def project(batch: pa.Table) -> pa.Table:
        import ray
        supp = ray.get(supp_ref)
        hit, row = supp.probe(np.asarray(batch.column("l_suppkey")))
        batch = batch.filter(pa.array(hit))
        price = np.asarray(batch.column("l_extendedprice"),
                           dtype=np.float64)
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)
        year = batch.column("l_shipdate").to_pandas() \
            .dt.year.to_numpy(dtype=np.int64)
        cols = {c: batch.column(c) for c in keep}
        cols["s_nat"] = pa.array(supp["s_nationkey"][row], pa.int64())
        cols["l_year"] = pa.array(year, pa.int64())
        cols["cents"] = pa.array(_cents(price * (1.0 - disc)), pa.int64())
        return pa.table(cols)
    return project


def _named_pairs(g: pd.DataFrame, nation) -> pd.DataFrame:
    """Per-(s_nat, c_nat) partials named through the nation lookup,
    keeping the pairs of different nations."""
    g = nation.join(nation.join(g, "s_nat", supp_nation="n_name"),
                    "c_nat", cust_nation="n_name")
    return g[g["supp_nation"] != g["cust_nation"]]


# ------------------------------------------------- TPC-H Q7: volume pairs

_VOL_PARTIAL1 = pa.schema([
    ("o_custkey", pa.int64()), ("s_nat", pa.int64()),
    ("l_year", pa.int64()), ("part_n", pa.int64()),
    ("part_cents", pa.int64())])
_VOL_PARTIAL2 = pa.schema([
    ("supp_nation", pa.string()), ("cust_nation", pa.string()),
    ("l_year", pa.int64()), ("part_n", pa.int64()),
    ("part_cents", pa.int64())])


def volume_shipping(sf_dir: str,
                    broadcast_customer_max_bytes: int = 64 << 20):
    """TPC-H Q7 flavor: revenue shipped between every (supplier nation,
    customer nation) pair per ship year, different-nation pairs only.

    Scale shape: chained partitioned hash joins, each with the reduction
    folded into the merge so the data shrinks at every hop — lineitem
    (supplier nation key attached before the shuffle via broadcast
    lookup — supplier is the one genuinely small side) x orders (both
    fact-sized, one shuffle each) reduces inside the join partition to
    per-(custkey, supplier nation, year) partials; those partials x
    customer join on custkey and reduce to per-(supp_nation,
    cust_nation, year) partials; the final exchange is
    O(nations^2 x years).

    The customer leg is SIZE-GATED (the neardup_components pattern):
    below ``broadcast_customer_max_bytes`` of customer parquet the
    custkey -> nation lookup is broadcast and folded into the FIRST
    join's merge (one barrier saved — measured 9.3 -> 5.0 s at sf0.1);
    above it, customer rides a second partitioned hash join, because at
    100 TB the customer table no longer fits a worker heap."""
    import ray

    supp_ref = broadcast_lookup(sf_dir, "supplier", "s_suppkey",
                                ["s_nationkey"])
    nat_ref = _nation_lookup(sf_dir)
    li = _read_sized(sf_dir, "lineitem",
                     columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                              "l_discount", "l_shipdate"]) \
        .map_batches(_shipped(supp_ref, ["l_orderkey"]),
                     batch_format="pyarrow")
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_custkey"])

    cust_bytes = os.path.getsize(
        os.path.join(sf_dir, "customer.parquet"))
    if cust_bytes <= broadcast_customer_max_bytes:
        # small-customer path: attach the customer's nation inside the
        # first join's merge via the broadcast lookup — the pair
        # reduction happens in the same task, so no second exchange
        cust_ref = broadcast_lookup(sf_dir, "customer", "c_custkey",
                                    ["c_nationkey"])

        def fold_pairs(df: pd.DataFrame) -> pd.DataFrame:
            cust, nation = ray.get([cust_ref, nat_ref])
            df = cust.join(df, "o_custkey", c_nat="c_nationkey")
            g = df.groupby(["s_nat", "c_nat", "l_year"],
                           as_index=False).agg(
                part_n=("cents", "size"), part_cents=("cents", "sum"))
            return _named_pairs(g, nation)

        j2 = hash_join(li, orders, "l_orderkey", "o_orderkey",
                       n_parts=32, merge_post=fold_pairs,
                       post_schema=_VOL_PARTIAL2)
    else:
        def fold1(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(["o_custkey", "s_nat", "l_year"],
                              as_index=False).agg(
                part_n=("cents", "size"), part_cents=("cents", "sum"))

        j1 = hash_join(li, orders, "l_orderkey", "o_orderkey",
                       n_parts=32, merge_post=fold1,
                       post_schema=_VOL_PARTIAL1)

        cust = _read_sized(sf_dir, "customer",
                           columns=["c_custkey", "c_nationkey"])

        # the customer side ships only (c_custkey, c_nationkey) through
        # the join; the 25-row nation lookup is the only broadcast here
        def fold2(df: pd.DataFrame) -> pd.DataFrame:
            g = df.rename(columns={"c_nationkey": "c_nat"}).groupby(
                ["s_nat", "c_nat", "l_year"], as_index=False).agg(
                part_n=("part_n", "sum"),
                part_cents=("part_cents", "sum"))
            return _named_pairs(g, ray.get(nat_ref))

        j2 = hash_join(j1, cust, "o_custkey", "c_custkey", n_parts=16,
                       merge_post=fold2, post_schema=_VOL_PARTIAL2)

    from ray.data.aggregate import Sum
    return j2.groupby(["supp_nation", "cust_nation", "l_year"]) \
        .aggregate(Sum("part_n", alias_name="n_items"),
                   Sum("part_cents", alias_name="revenue_cents"))


# ------------------------------------------- TPC-H Q9: product profit

_PROFIT_PARTIAL = pa.schema([
    ("nation", pa.string()), ("l_year", pa.int64()),
    ("part_n", pa.int64()), ("part_profit", pa.int64())])


def product_profit(sf_dir: str):
    """TPC-H Q9 flavor: per supplier-nation x ship-year profit, where
    profit = revenue_cents - cents(l_quantity * p_retailprice * 0.1)
    (the schema has no partsupp/ps_supplycost; 10% of retail price is
    the stated cost proxy, mirrored exactly in the SQL oracle).

    Scale shape: lineitem x part through the partitioned hash join (part
    is fact/30 in rows — too big to broadcast at 100 TB), supplier
    nation key attached before the shuffle via broadcast lookup, and the
    profit reduction folded into the join merge so the post-join
    exchange is O(nations x years)."""
    import ray

    supp_ref = broadcast_lookup(sf_dir, "supplier", "s_suppkey",
                                ["s_nationkey"])
    nat_ref = _nation_lookup(sf_dir)
    li = _read_sized(sf_dir, "lineitem",
                     columns=["l_partkey", "l_suppkey", "l_quantity",
                              "l_extendedprice", "l_discount",
                              "l_shipdate"]) \
        .map_batches(_shipped(supp_ref, ["l_partkey", "l_quantity"]),
                     batch_format="pyarrow")
    part = _read_sized(sf_dir, "part",
                       columns=["p_partkey", "p_retailprice"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        qty = df["l_quantity"].to_numpy(dtype=np.float64)
        retail = df["p_retailprice"].to_numpy(dtype=np.float64)
        # cost = cents((qty * retail) * 0.1); the oracle states the same
        # left-assoc multiply chain so the doubles round identically
        cost = _cents((qty * retail) * 0.1)
        df = df.assign(profit=df["cents"].to_numpy() - cost)
        g = df.groupby(["s_nat", "l_year"], as_index=False).agg(
            part_n=("profit", "size"), part_profit=("profit", "sum"))
        return ray.get(nat_ref).join(g, "s_nat", nation="n_name")

    j = hash_join(li, part, "l_partkey", "p_partkey", n_parts=32,
                  merge_post=fold, post_schema=_PROFIT_PARTIAL)

    from ray.data.aggregate import Sum
    return j.groupby(["nation", "l_year"]) \
        .aggregate(Sum("part_n", alias_name="n_items"),
                   Sum("part_profit", alias_name="profit_cents"))


# ------------------------------------- TPC-H Q22: rich inactive customers

_RICH_PARTIAL = pa.schema([
    ("c_nationkey", pa.int64()), ("part_n", pa.int64()),
    ("part_cents", pa.int64())])


def rich_customers_no_orders(sf_dir: str, n_parts: int = 16):
    """TPC-H Q22 flavor: customers whose balance beats the average
    positive balance AND who placed no RECENT order (none since
    2000-01-01 — Q22's seven-year inactivity window, shifted to this
    corpus's 1995-2001 date range), totalled per nation.

    The global threshold is evaluated as an INTEGER cross-multiply
    (cents * n_pos > sum_cents) so the boundary cannot flip between
    engines on float division — the ADVICE-flagged strict-float-compare
    pattern.  Pass 1 is a map-only partial sum (one row per batch)
    reduced by Dataset.sum; pass 2 filters rich customers, anti-joins
    the per-batch-distinct order custkeys in the partitioned hash join,
    and folds the per-nation totals into the join merge — the final
    exchange is O(nations)."""
    cust = _read_sized(sf_dir, "customer",
                       columns=["c_custkey", "c_nationkey", "c_acctbal"])

    _POS_SCHEMA = pa.schema([("n", pa.int64()), ("cents", pa.int64())])

    def pos_partial(batch: pa.Table) -> pa.Table:
        cents = _cents(np.asarray(batch.column("c_acctbal"),
                                  dtype=np.float64))
        pos = cents[cents > 0]
        return pa.table({"n": pa.array([len(pos)], pa.int64()),
                         "cents": pa.array([int(pos.sum())], pa.int64())},
                        schema=_POS_SCHEMA)

    sums = cust.map_batches(pos_partial, batch_format="pyarrow") \
        .sum(["n", "cents"])
    n_pos, sum_cents = int(sums["sum(n)"]), int(sums["sum(cents)"])

    def rich_only(batch: pa.Table) -> pa.Table:
        cents = _cents(np.asarray(batch.column("c_acctbal"),
                                  dtype=np.float64))
        mask = cents * n_pos > sum_cents
        return pa.table({
            "c_custkey": batch.column("c_custkey").cast(pa.int64())
                .filter(pa.array(mask)),
            "c_nationkey": batch.column("c_nationkey").cast(pa.int64())
                .filter(pa.array(mask)),
            "cents": pa.array(cents[mask], pa.int64())})

    rich = cust.map_batches(rich_only, batch_format="pyarrow")

    orders = _read_sized(sf_dir, "orders",
                         columns=["o_custkey", "o_orderdate"])
    _KEYS_SCHEMA = pa.schema([("o_custkey", pa.int64())])
    cutoff = np.datetime64("2000-01-01")

    def distinct_keys(batch: pa.Table) -> pa.Table:
        dates = batch.column("o_orderdate").to_pandas() \
            .to_numpy(dtype="datetime64[us]")
        ck = np.asarray(batch.column("o_custkey"),
                        dtype=np.int64)[dates >= cutoff]
        return pa.table({"o_custkey": np.unique(ck)},
                        schema=_KEYS_SCHEMA)

    orders = orders.map_batches(distinct_keys, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_nationkey", as_index=False).agg(
            part_n=("cents", "size"), part_cents=("cents", "sum"))
        return g

    ds = hash_join(rich, orders, "c_custkey", "o_custkey", how="anti",
                   n_parts=n_parts, merge_post=fold,
                   post_schema=_RICH_PARTIAL)

    from ray.data.aggregate import Sum
    agg = ds.groupby("c_nationkey").aggregate(
        Sum("part_n", alias_name="n_customers"),
        Sum("part_cents", alias_name="total_cents"))
    nat_ref = _nation_lookup(sf_dir)

    def name_nations(batch: pa.Table) -> pa.Table:
        import ray
        nation = ray.get(nat_ref)
        hit, row = nation.probe(np.asarray(batch.column("c_nationkey")))
        return batch.filter(pa.array(hit)).set_column(
            0, "nation", pa.array(nation["n_name"][row], pa.string()))

    return agg.map_batches(name_nations, batch_format="pyarrow")


# -------------------------------------------- canonical-doc selection

_KEEP_SCHEMA_FIELDS = [("norm_hash", pa.string()), ("n_dups", pa.int64()),
                       ("max_chars", pa.int64())]
_NORM_WS = re.compile(r"[ \t\n\r\f\v]+")


def dedup_keep_best(sf_dir: str):
    """Canonical-document selection: cluster by md5 of the
    whitespace-collapsed lowercased text, keep the longest original per
    cluster (ties to the smallest doc_id) — the keep-best step a
    curation pipeline runs instead of plain first-wins dedup.
    Normalization is pinned to the ASCII whitespace class and
    ASCII-lowering (documented house assumption: the synthetic corpus is
    ASCII; DuckDB lower() and Python str.lower() agree there).

    Scale shape: the shuffle carries (hash, doc_id, n_chars) — never
    text — and rides the coarse-partition aggregate, so the exchange is
    24 bytes+hash per doc regardless of document size."""
    ds = _read_sized(sf_dir, "documents",
                     columns=["doc_id", "text", "n_chars"])

    def hash_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes = [hashlib.md5(
            _NORM_WS.sub(" ", (t or "").lower()).strip(" ").encode()
        ).hexdigest() for t in texts]
        return pa.table({
            "norm_hash": pa.array(hashes, pa.string()),
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_chars": batch.column("n_chars").cast(pa.int64())})

    def per_hash(group: pa.Table) -> pa.Table:
        schema = pa.schema([_KEEP_SCHEMA_FIELDS[0],
                            ("keep_doc_id", pa.int64()),
                            *_KEEP_SCHEMA_FIELDS[1:]])
        df = group.to_pandas().sort_values(
            ["norm_hash", "n_chars", "doc_id"],
            ascending=[True, False, True])
        g = df.groupby("norm_hash", as_index=False).agg(
            keep_doc_id=("doc_id", "first"),
            n_dups=("doc_id", "size"),
            max_chars=("n_chars", "max"))
        g["n_dups"] = g["n_dups"].astype(np.int64)
        return _pd_table(g[["norm_hash", "keep_doc_id", "n_dups",
                            "max_chars"]], schema)

    ds = ds.map_batches(hash_batch, batch_format="pyarrow")
    return _partitioned_agg(ds, "norm_hash", per_hash)


# ---------------------------------------------- distributed TF-IDF top-k

_TFIDF_PARTIAL = pa.schema([
    ("lang", pa.string()), ("term", pa.string()),
    ("part_cnt", pa.int64()), ("part_df", pa.int64())])
_TFIDF_JOINED = pa.schema([
    ("lang", pa.string()), ("term", pa.string()), ("cnt", pa.int64()),
    ("df", pa.int64())])
_TFIDF_SCHEMA = pa.schema([
    ("lang", pa.string()), ("term", pa.string()), ("cnt", pa.int64()),
    ("score_micro", pa.int64())])


def tfidf_lang_topk(sf_dir: str, k: int = 10):
    """Distributed TF-IDF: top-``k`` terms per language by
    corpus-frequency x inverse document frequency.  score_micro =
    floor(cnt * ln(N / df) * 1e6 + 0.5) as an INTEGER — ln is evaluated
    through libm (math.log) on both engines (numpy's SIMD log can
    differ from DuckDB's std::log by an ulp, which an integer pin must
    not inherit), and the per-unique-df memoization keeps the scalar
    calls vocabulary-bounded.

    Scale shape: ONE tokenize pass emits combined per-(batch, lang,
    term) partials carrying both the occurrence count and the
    per-doc-distinct DF contribution (a doc is one row, so batch-local
    distinct is a lossless DF partial); partitioning by TERM co-locates
    every language's rows for a term, so the per-term group computes
    exact counts AND the cross-language document frequency in place —
    no second pass, no join.  The top-k is a per-batch local head + one
    per-lang merge (never a global sort)."""
    from ..functions.textops import _TOKEN_RE

    docs = _read_sized(sf_dir, "documents", columns=["lang", "text"])
    n_docs = _read_sized(sf_dir, "documents", columns=["doc_id"]).count()

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        toks = pd.Series(batch.column("text").to_pylist(), dtype=object) \
            .fillna("").str.findall(_TOKEN_RE)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        big = pd.DataFrame({
            "i": np.repeat(np.arange(len(langs)), lens),
            "lang": np.repeat(np.asarray(langs, dtype=object), lens),
            "t": [t for ts in toks for t in ts]})
        cnt = big.groupby(["lang", "t"], as_index=False).size() \
            .rename(columns={"size": "part_cnt"})
        dfp = big.drop_duplicates(["i", "t"]) \
            .groupby(["lang", "t"], as_index=False).size() \
            .rename(columns={"size": "part_df"})
        g = cnt.merge(dfp, on=["lang", "t"])
        return pa.table({"lang": pa.array(g["lang"], pa.string()),
                         "term": pa.array(g["t"], pa.string()),
                         "part_cnt": pa.array(g["part_cnt"], pa.int64()),
                         "part_df": pa.array(g["part_df"], pa.int64())},
                        schema=_TFIDF_PARTIAL)

    def term_group(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby(["lang", "term"], as_index=False) \
            .agg(cnt=("part_cnt", "sum"), df_l=("part_df", "sum"))
        # all langs of a term are co-located here, so the term's total
        # document frequency is an in-group transform
        df["df"] = df.groupby("term")["df_l"].transform("sum")
        return _pd_table(df[["lang", "term", "cnt", "df"]],
                         _TFIDF_JOINED)

    joined = _partitioned_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        "term", term_group, n_parts=16)

    def score(batch: pa.Table) -> pa.Table:
        cnt = np.asarray(batch.column("cnt"), dtype=np.int64)
        dfv = np.asarray(batch.column("df"), dtype=np.int64)
        uniq, inv = np.unique(dfv, return_inverse=True)
        lut = np.array([math.log(n_docs / int(d)) for d in uniq],
                       dtype=np.float64)
        micro = np.floor((cnt * lut[inv]) * 1e6 + 0.5).astype(np.int64)
        return pa.table({
            "lang": batch.column("lang"),
            "term": batch.column("term"),
            "cnt": pa.array(cnt, pa.int64()),
            "score_micro": pa.array(micro, pa.int64())},
            schema=_TFIDF_SCHEMA)

    scored = joined.map_batches(score, batch_format="pyarrow")

    def local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["lang", "score_micro", "term"],
            ascending=[True, False, True])
        return _pd_table(df.groupby("lang").head(k), _TFIDF_SCHEMA)

    def merge_topk(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["score_micro", "term"], ascending=[False, True]).head(k)
        return _pd_table(df, _TFIDF_SCHEMA)

    return scored.map_batches(local_topk, batch_format="pyarrow") \
        .groupby("lang").map_groups(merge_topk, batch_format="pyarrow")
