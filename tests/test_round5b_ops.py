"""Round-5b operator tests: chained-hash-join relational shapes (TPC-H
Q7/Q9/Q22 flavors) and the two corpus-curation operators (canonical-doc
keep-best selection, distributed TF-IDF top-k)."""

from __future__ import annotations

import hashlib
import math
import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import SF, _assert_matches_oracle, _pd


# ----------------------------------------------------- relational trio

def test_volume_shipping_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        volume_shipping
    got = _pd(volume_shipping(SF))
    # different-nation pairs only
    assert (got["supp_nation"] != got["cust_nation"]).all()
    _assert_matches_oracle("volume_shipping", got)


def test_volume_shipping_hash_join_path(ray_session):
    """Force the scale path (customer rides the second hash join, not
    the broadcast lookup) — both size-gate branches must agree with the
    oracle."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        volume_shipping
    got = _pd(volume_shipping(SF, broadcast_customer_max_bytes=0))
    _assert_matches_oracle("volume_shipping", got)


def test_product_profit_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        product_profit
    _assert_matches_oracle("product_profit", _pd(product_profit(SF)))


def test_rich_customers_no_orders_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        rich_customers_no_orders
    got = _pd(rich_customers_no_orders(SF))
    assert len(got) > 0  # predicate must not be degenerate at sf0.001
    _assert_matches_oracle("rich_customers_no_orders", got)


def test_rich_threshold_is_integer_exact(ray_session):
    """The rich predicate is cents * n_pos > sum_cents — verify against
    an independent integer evaluation of the same rule (no floats)."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import _cents
    t = pq.read_table(f"{SF}/customer.parquet",
                      columns=["c_custkey", "c_acctbal"])
    cents = _cents(np.asarray(t.column("c_acctbal"), dtype=np.float64))
    pos = cents[cents > 0]
    n_pos, s = len(pos), int(pos.sum())
    want_rich = int((cents * n_pos > s).sum())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{SF}/customer.parquet')")
    got = con.execute("""
        WITH c AS (SELECT CAST(floor(abs(c_acctbal*100)+0.5)
                        * sign(c_acctbal) AS BIGINT) cc FROM customer),
        pos AS (SELECT count(*) n, sum(cc) s FROM c WHERE cc > 0)
        SELECT count(*) FROM c, pos WHERE cc * pos.n > pos.s
    """).fetchone()[0]
    assert got == want_rich


# ------------------------------------------------------ dedup_keep_best

def test_dedup_keep_best_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        dedup_keep_best
    _assert_matches_oracle("dedup_keep_best", _pd(dedup_keep_best(SF)))


def test_dedup_keep_best_picks_longest(ray_session, tmp_path):
    """Synthetic cluster: three docs normalizing to the same text with
    different original lengths — the longest original wins; ties break
    to the smallest doc_id."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        dedup_keep_best
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["Hello  World", "hello world", "HELLO\tWORLD  ",
                 "unique text", "UNIQUE    TEXT"],
    })
    docs["n_chars"] = docs["text"].str.len().astype("int64")
    pa_tbl = pa.Table.from_pandas(docs, preserve_index=False)
    import pyarrow.parquet as pq
    pq.write_table(pa_tbl, tmp_path / "documents.parquet")
    got = _pd(dedup_keep_best(str(tmp_path))).sort_values(
        "keep_doc_id").reset_index(drop=True)
    assert len(got) == 2
    # cluster A: ids 1/2/3 -> "hello world"; 13-char id 3 wins
    a = got[got["n_dups"] == 3].iloc[0]
    assert a["keep_doc_id"] == 3 and a["max_chars"] == 13
    # cluster B: ids 4/5 -> "unique text"; id 5 is longer (14 chars)
    b = got[got["n_dups"] == 2].iloc[0]
    assert b["keep_doc_id"] == 5 and b["max_chars"] == 14


# ------------------------------------------------------ tfidf_lang_topk

def test_tfidf_lang_topk_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        tfidf_lang_topk
    got = _pd(tfidf_lang_topk(SF))
    assert got.groupby("lang").size().max() <= 10
    _assert_matches_oracle("tfidf_lang_topk", got)


def test_tfidf_score_pins_libm_log(ray_session):
    """score_micro must equal floor(cnt * log(N/df) * 1e6 + 0.5) with
    math.log — recompute one language's winners independently."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.functions.textops import _TOKEN_RE
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import \
        tfidf_lang_topk
    got = _pd(tfidf_lang_topk(SF))
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "lang", "text"]).to_pandas()
    n_docs = len(t)
    toks = t.assign(ts=t["text"].fillna("").str.findall(_TOKEN_RE))
    df_count: dict = {}
    cnt: dict = {}
    for _, row in toks.iterrows():
        for term in set(row["ts"]):
            df_count[term] = df_count.get(term, 0) + 1
        for term in row["ts"]:
            key = (row["lang"], term)
            cnt[key] = cnt.get(key, 0) + 1
    lang = got["lang"].iloc[0]
    sub = got[got["lang"] == lang]
    for _, r in sub.iterrows():
        c = cnt[(lang, r["term"])]
        micro = math.floor(c * math.log(n_docs / df_count[r["term"]])
                           * 1e6 + 0.5)
        assert r["cnt"] == c and r["score_micro"] == micro
