"""Round-3 operators: components, anti/semi join, quantiles, windows,
bigrams, stratified sampling, normalization — structural tests plus
DuckDB parity where SQL can express the semantics."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import SF, _pd


def _docs_view(con, sf=SF):
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")


# ------------------------------------------------------------- components

def test_components_transitive_closure(ray_session, tmp_path):
    """Chain A~B~C (A-C below threshold) must land in ONE component;
    untouched docs stay singletons."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import neardup_components
    toks = [f"tok{i:03d}" for i in range(60)]
    rows = {"doc_id": [], "text": []}
    rows["doc_id"] += [10, 11, 12]          # A, B, C overlap-chained
    rows["text"] += [" ".join(toks[0:30]),
                     " ".join(toks[10:40]),
                     " ".join(toks[20:50])]
    rows["doc_id"] += [20, 21]              # singletons, disjoint vocab
    rows["text"] += ["aa bb cc dd ee ff gg hh",
                     "ii jj kk ll mm nn oo pp"]
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(rows["doc_id"], pa.int64()),
                  "text": rows["text"]}), str(d / "documents.parquet"))
    out = _pd(neardup_components(str(d))).set_index("doc_id")["component"]
    assert out[10] == out[11] == out[12] == 10
    assert out[20] == 20 and out[21] == 21
    assert len(out) == 5


def test_components_match_duckdb_recursive(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import neardup_components
    import __ray_entry__ as E
    con = duckdb.connect()
    _docs_view(con)
    gold = (con.execute(E.oracle_sql()["neardup_components"]).fetchdf()
            .sort_values("doc_id").reset_index(drop=True))
    mine = (_pd(neardup_components(SF)).sort_values("doc_id")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"component": "int64"}),
        gold.astype({"component": "int64"}))


# ---------------------------------------------------------- anti/semi join

def test_hash_join_anti_semi(ray_session):
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join
    left = pa.table({"k": [1, 2, 3, 4, 5], "lv": list("abcde")})
    right = pa.table({"rk": [2, 2, 4, 9], "rv": [10, 11, 12, 13]})
    anti = _pd(hash_join(ray.data.from_arrow(left),
                         ray.data.from_arrow(right),
                         "k", "rk", how="anti", n_parts=4)).sort_values("k")
    assert list(anti["k"]) == [1, 3, 5]
    assert list(anti.columns) == ["k", "lv"]
    semi = _pd(hash_join(ray.data.from_arrow(left),
                         ray.data.from_arrow(right),
                         "k", "rk", how="semi", n_parts=4)).sort_values("k")
    assert list(semi["k"]) == [2, 4]       # semi never duplicates left rows


def test_customers_no_orders_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import customers_no_orders
    import __ray_entry__ as E
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    gold = (con.execute(E.oracle_sql()["customers_no_orders"]).fetchdf()
            .sort_values("c_mktsegment").reset_index(drop=True))
    mine = (_pd(customers_no_orders(SF)).sort_values("c_mktsegment")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"n_customers": "int64",
                     "total_acctbal_cents": "int64"}),
        gold.astype({"n_customers": "int64",
                     "total_acctbal_cents": "int64"}))


# ---------------------------------------------------------------- quantiles

def test_quantile_pick_matches_duckdb_disc(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import quantile_stats
    con = duckdb.connect()
    _docs_view(con)
    mine = _pd(quantile_stats(SF))
    for (lang, q), sub in mine.groupby(["lang", "quantile"]):
        gold = con.execute(
            "SELECT quantile_disc(n_chars, ?) FROM documents "
            "WHERE lang = ?", [q, lang]).fetchone()[0]
        assert int(sub["n_chars"].iloc[0]) == int(gold), (lang, q)


# ------------------------------------------------------------------ window

def test_running_revenue_matches_duckdb_window(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import running_revenue
    import __ray_entry__ as E
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    gold = (con.execute(E.oracle_sql()["running_revenue"]).fetchdf()
            .sort_values(["o_custkey", "o_orderkey"])
            .reset_index(drop=True))
    mine = (_pd(running_revenue(SF))
            .sort_values(["o_custkey", "o_orderkey"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"running_cents": "int64"}),
        gold.astype({"running_cents": "int64"}))


# ----------------------------------------------------------------- bigrams

def test_ngram_topk_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import ngram_topk
    import __ray_entry__ as E
    con = duckdb.connect()
    _docs_view(con)
    gold = con.execute(E.oracle_sql()["ngram_topk"]).fetchdf()
    mine = _pd(ngram_topk(SF))
    assert list(mine["bigram"]) == list(gold["bigram"])
    assert list(mine["n"].astype("int64")) == list(gold["n"].astype("int64"))


# ---------------------------------------------------------------- sampling

def test_stratified_sample_hits_target_and_is_deterministic(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import stratified_sample
    a = _pd(stratified_sample(SF)).sort_values("doc_id").reset_index(drop=True)
    b = _pd(stratified_sample(SF)).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)          # deterministic
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "lang"]).to_pandas()
    per_lang = a.groupby("lang").size()
    totals = docs.groupby("lang").size()
    for lang, n in per_lang.items():
        target = min(totals[lang], 50)
        # md5 buckets are uniform: expect target +- 4*sqrt(target)
        assert abs(n - target) <= 4 * np.sqrt(target) + 2, (lang, n, target)


# ------------------------------------------------------------ normalization

def test_text_normalize_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import text_normalize
    import __ray_entry__ as E
    con = duckdb.connect()
    _docs_view(con)
    gold = (con.execute(E.oracle_sql()["text_normalize"]).fetchdf()
            .sort_values("doc_id").reset_index(drop=True))
    mine = (_pd(text_normalize(SF)).sort_values("doc_id")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"n_chars_norm": "int64"}),
        gold.astype({"n_chars_norm": "int64"}))


def test_text_normalize_collapses_messy_whitespace(ray_session, tmp_path):
    from iesl_pdf_to_text_ray.pipelines.table_ops import text_normalize
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["  Hello\t\tWORLD \n x ", "a  b"]}),
        str(d / "documents.parquet"))
    out = _pd(text_normalize(str(d))).set_index("doc_id")
    assert out.loc[1, "norm_text"] == "hello world x"
    assert out.loc[2, "norm_text"] == "a b"
    assert out.loc[2, "n_chars_norm"] == 3


def test_orders_top_per_priority_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import (
        orders_top_per_priority)
    import __ray_entry__ as E
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    gold = (con.execute(E.oracle_sql()["orders_top_per_priority"]).fetchdf()
            .sort_values("o_orderpriority").reset_index(drop=True))
    mine = (_pd(orders_top_per_priority(SF))
            .sort_values("o_orderpriority").reset_index(drop=True))
    pd.testing.assert_frame_equal(mine, gold)


def test_events_user_gaps_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import events_user_gaps
    import __ray_entry__ as E
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    gold = (con.execute(E.oracle_sql()["events_user_gaps"]).fetchdf()
            .sort_values("user_id").reset_index(drop=True))
    mine = (_pd(events_user_gaps(SF)).sort_values("user_id")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"n_gaps": "int64", "total_gap_sec": "int64"}),
        gold.astype({"n_gaps": "int64", "total_gap_sec": "int64"}))


def test_contamination_check_flags_planted_overlap(ray_session, tmp_path):
    """A doc that quotes a benchmark doc's phrase is flagged with the
    exact shared-shingle count; disjoint docs are not."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import contamination_check
    bench_text = "alpha beta gamma delta epsilon zeta"
    rows = {
        "doc_id": pa.array([0, 20, 1, 2], pa.int64()),   # 0, 20: benchmark
        "text": [bench_text,
                 "eta theta iota kappa",
                 # quotes 'beta gamma delta epsilon' -> 2 shared 3-grams
                 "unrelated words then beta gamma delta epsilon here",
                 "totally disjoint vocabulary sentence with nothing shared"],
    }
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.table(rows), str(d / "documents.parquet"))
    out = _pd(contamination_check(str(d))).set_index("doc_id")
    assert out.loc[1, "n_hits"] == 2
    assert 2 not in out.index


def test_customer_order_distribution_matches_duckdb(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import (
        customer_order_distribution)
    import __ray_entry__ as E
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    gold = (con.execute(E.oracle_sql()["customer_order_distribution"])
            .fetchdf().sort_values("n_orders").reset_index(drop=True))
    mine = (_pd(customer_order_distribution(SF)).sort_values("n_orders")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        mine.astype({"n_orders": "int64", "n_customers": "int64"}),
        gold.astype({"n_orders": "int64", "n_customers": "int64"}))


def test_customer_order_distribution_counts_zero_orders(ray_session,
                                                        tmp_path):
    """The LEFT-join point of Q13: customers without orders land in the
    zero bucket (sf0.001 happens to have none, so plant some)."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import (
        customer_order_distribution)
    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64())}),
        str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 3], pa.int64()),
        "o_orderkey": pa.array([10, 11, 12], pa.int64())}),
        str(d / "orders.parquet"))
    out = (_pd(customer_order_distribution(str(d)))
           .set_index("n_orders")["n_customers"])
    assert out[0] == 2 and out[1] == 1 and out[2] == 1


def test_weighted_sample_prefers_long_docs(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import weighted_sample
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
    out = _pd(weighted_sample(SF))
    # expected size ~ target; uniform md5 buckets -> binomial-ish bound
    assert 100 * 0.5 <= len(out) <= 100 * 1.6
    # weighting: mean length of sampled docs exceeds the corpus mean
    assert out["n_chars"].mean() > docs["n_chars"].mean()
    # deterministic
    again = _pd(weighted_sample(SF))
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True))


def test_pricing_quantiles_sketch_accuracy(ray_session):
    """The sketch's per-group quantiles must land within 2% of the
    value range of the exact quantiles."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import (
        pricing_quantiles_sketch)
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderpriority",
                                    "o_totalprice"]).to_pandas()
    out = _pd(pricing_quantiles_sketch(SF))
    for (key, q), sub in out.groupby(["o_orderpriority", "quantile"]):
        vals = orders[orders["o_orderpriority"] == key]["o_totalprice"]
        exact = vals.quantile(q)
        span = vals.max() - vals.min()
        got = sub["value"].iloc[0]
        assert abs(got - exact) <= 0.02 * span, (key, q, got, exact)
    # determinism
    again = _pd(pricing_quantiles_sketch(SF))
    pd.testing.assert_frame_equal(
        out.sort_values(["o_orderpriority", "quantile"])
        .reset_index(drop=True),
        again.sort_values(["o_orderpriority", "quantile"])
        .reset_index(drop=True))
