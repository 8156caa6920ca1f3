"""Round-4 hardening tests: range-pair sort-key regression, null-safe
semi/anti joins, partial top-k, contamination scale path, sampling
hash vectorization, XMP/MediaBox metadata surface."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import _pd


# -------------------------------------------------- range pairs sort key

def test_range_pairs_event_ids_not_in_ts_order(ray_session, tmp_path):
    """Regression (ADVICE r3): event_ids assigned AGAINST timestamp order
    must still produce the exact DuckDB pair set — the window kernel
    requires ts (not event_id) to be the within-run sort key."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import events_range_pairs
    rng = np.random.default_rng(7)
    n = 400
    base = pd.Timestamp("2024-03-01")
    ts = (base + pd.to_timedelta(
        np.sort(rng.integers(0, 3_000, n)), unit="s")).astype(
            "datetime64[us]")  # events table is timestamp[us]
    ids = rng.permutation(n).astype("int64")  # ids uncorrelated with ts
    users = rng.integers(0, 8, n).astype("int64")
    df = pd.DataFrame({"event_id": ids, "ts": ts, "user_id": users})
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))

    got = _pd(events_range_pairs(str(d))).sort_values(
        ["id_a", "id_b"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    want = con.execute("""
        SELECT a.event_id AS id_a, b.event_id AS id_b, a.user_id,
               round(epoch(b.ts - a.ts), 6) AS dt_sec
        FROM events a JOIN events b
          ON a.user_id = b.user_id AND a.event_id < b.event_id
         AND abs(epoch(b.ts - a.ts)) <= 60
        ORDER BY id_a, id_b
    """).df().reset_index(drop=True)
    assert len(got) == len(want) and len(got) > 50
    pd.testing.assert_frame_equal(
        got[["id_a", "id_b", "user_id", "dt_sec"]].astype(
            {"dt_sec": "float64"}),
        want.astype({"id_a": "int64", "id_b": "int64",
                     "user_id": "int64", "dt_sec": "float64"}))


# ------------------------------------------------- null-safe semi / anti

def test_semi_anti_join_null_left_keys(ray_session):
    """SQL semi/anti semantics: a NULL left key matches nothing (semi
    drops it, anti keeps it is WRONG for SQL NOT IN but correct for
    NOT EXISTS; we implement NOT EXISTS). A NULL right key must never
    make a NULL left key 'exist'."""
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1.0, 2.0, np.nan, 4.0], "v": ["a", "b", "c", "d"]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"rk": [1.0, np.nan], "w": [10, 20]}))
    semi = _pd(hash_join(left, right, "k", "rk", how="semi")) \
        .sort_values("v")
    anti = _pd(hash_join(left, right, "k", "rk", how="anti")) \
        .sort_values("v")
    # NOT EXISTS semantics: NULL=NULL never matches.
    assert list(semi["v"]) == ["a"]
    assert list(anti["v"]) == ["b", "c", "d"]


# -------------------------------------------------- hot-bucket handling

def test_jaccard_hot_shingle_bucket_completes(ray_session, tmp_path):
    """A stop-word shingle shared by every document (10^4 docs) must not
    drive an O(b^2) pair loop: the hot prefix-shingle run degrades to a
    chain and the join still finds the planted near-dup pair exactly."""
    import time
    from iesl_pdf_to_text_ray.pipelines.table_ops import dedup_ngram_jaccard
    n = 10_000
    # every doc starts with the same 3 stop words (one shared shingle,
    # shingle k=3) followed by a unique disjoint tail
    texts = [f"the of and u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f u{i}g"
             for i in range(n)]
    # planted near-dup pair: long shared tail
    toks = " ".join(f"dup{j}" for j in range(40))
    texts[100] = toks
    texts[200] = toks + " extraone"
    d = tmp_path / "hot"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": texts}), str(d / "documents.parquet"))
    t0 = time.time()
    out = _pd(dedup_ngram_jaccard(str(d)))
    took = time.time() - t0
    planted = out[(out.doc_a == 100) & (out.doc_b == 200)]
    assert len(planted) == 1 and planted.iloc[0]["jaccard"] > 0.9
    # chain degradation keeps this minutes->seconds; generous CI bound
    assert took < 120, f"hot-bucket run took {took:.0f}s"


def test_prefix_pairs_chain_fallback_logs(ray_session, caplog):
    """Above-cap buckets log a warning and emit chain pairs only."""
    import logging as _logging
    from iesl_pdf_to_text_ray.functions import dedup as dd
    n = 50
    # all docs share prefix shingle 7; full sets identical -> jaccard 1
    group = pa.table({
        "part": pa.array([0] * n, pa.int32()),
        "doc_id": pa.array(range(n), pa.int64()),
        "prefix": pa.array([[7]] * n, pa.list_(pa.int64())),
        "sh": pa.array([[7, 8, 9]] * n, pa.list_(pa.int64()))})
    with caplog.at_level(_logging.WARNING,
                         logger="iesl_pdf_to_text_ray.functions.dedup"):
        out = dd.prefix_pairs_partition(group, max_bucket=10)
    assert out.num_rows == n - 1          # chain, not n*(n-1)/2
    assert any("hot prefix shingle bucket" in r.message
               for r in caplog.records)
