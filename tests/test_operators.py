"""Operator-quality tests: dedup recall, ANN recall, oracle parity."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import SF, _assert_matches_oracle, _pd


def test_minhash_finds_planted_near_dups(ray_session, tmp_path):
    """Plant near-duplicates; MinHash LSH must recover the pairs."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import dedup_minhash
    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(500)]
    base_docs = [" ".join(rng.choice(vocab, 80)) for _ in range(40)]
    rows = {"doc_id": [], "text": []}
    expected_pairs = set()
    for i, text in enumerate(base_docs):
        rows["doc_id"].append(f"d{i:03d}")
        rows["text"].append(text)
    # 5 near-dups: copy with 4 token edits (95% similar)
    for j in range(5):
        toks = base_docs[j].split()
        for p in range(4):
            toks[10 * p] = "CHANGED%d" % p
        rows["doc_id"].append(f"dup{j:03d}")
        rows["text"].append(" ".join(toks))
        expected_pairs.add((f"d{j:03d}", f"dup{j:03d}"))
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.table(rows), str(d / "documents.parquet"))
    out = _pd(dedup_minhash(str(d)))
    found = {tuple(sorted((a, b)))
             for a, b in zip(out["doc_a"], out["doc_b"])}
    assert expected_pairs <= found
    # no wildly-false positives: every found pair involves a planted dup
    for a, b in found:
        assert a.startswith("dup") or b.startswith("dup")


def test_simhash_near_dups_have_small_hamming(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import dedup_simhash
    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(300)]
    a = " ".join(rng.choice(vocab, 100))
    toks = a.split()
    toks[3] = "x"
    b = " ".join(toks)
    c = " ".join(rng.choice(vocab, 100))
    d = tmp_path / "docs2"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": ["a", "b", "c"],
                             "text": [a, b, c]}),
                   str(d / "documents.parquet"))
    out = _pd(dedup_simhash(str(d))).set_index("doc_id")["simhash"]
    ham = lambda x, y: bin(int(x, 16) ^ int(y, 16)).count("1")
    assert ham(out["a"], out["b"]) <= 6
    assert ham(out["a"], out["c"]) > 10


def test_ann_ivf_recall_vs_bruteforce(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import (ann_bruteforce,
                                                          ann_ivf)
    bf = _pd(ann_bruteforce(SF, n_queries=4, k=10))
    ivf = _pd(ann_ivf(SF, n_queries=4, k=10, n_clusters=8, n_probe=4))
    recalls = []
    for qid in bf["query_id"].unique():
        truth = set(bf[bf.query_id == qid]["neighbor_id"])
        got = set(ivf[ivf.query_id == qid]["neighbor_id"])
        recalls.append(len(truth & got) / len(truth))
    assert np.mean(recalls) >= 0.6  # probing half the space


def test_exact_dedup_counts(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import dedup_exact
    d = tmp_path / "docs3"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": ["a", "b", "c", "d"],
                             "text": ["same", "same", "same", "other"]}),
                   str(d / "documents.parquet"))
    out = _pd(dedup_exact(str(d))).sort_values("doc_id")
    assert len(out) == 2
    by_doc = out.set_index("doc_id")["n_dups"]
    assert by_doc["a"] == 3 and by_doc["d"] == 1


def test_spans_normalize_drops_edge_cases(ray_session):
    from iesl_pdf_to_text_ray.pipelines.spans_ops import spans_pipeline
    out = _pd(spans_pipeline(SF))
    assert (out["n_spans_out"] <= out["n_spans_in"]).all()
    assert (out["n_spans_out"] > 0).any()
    # control-char injected spans must actually be dropped somewhere
    assert (out["n_spans_out"] < out["n_spans_in"]).any()


def test_events_hourly_parity_with_duckdb(ray_session):
    import duckdb
    from iesl_pdf_to_text_ray.pipelines.table_ops import events_hourly
    mine = _pd(events_hourly(SF)).sort_values(
        ["window_start", "event_type"]).reset_index(drop=True)
    gold = duckdb.connect().execute(f"""
        SELECT CAST(date_trunc('hour', ts) AS VARCHAR) AS window_start,
               event_type, count(*) AS n_events,
               round(sum(value), 6) AS sum_value
        FROM read_parquet('{SF}/events.parquet')
        GROUP BY 1,2 ORDER BY 1,2""").fetchdf()
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)


def test_hll_distinct_accuracy(ray_session):
    """HLL estimate within 5% of the exact distinct count (4096
    registers => ~1.6% standard error)."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import (distinct_users,
                                                          distinct_users_hll)
    exact = int(_pd(distinct_users(SF))["n_users"].iloc[0])
    est = int(_pd(distinct_users_hll(SF))["n_users_est"].iloc[0])
    assert exact > 0
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_hash_join_matches_pandas(ray_session):
    """Partitioned hash join == pandas merge on the same inputs."""
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join
    left = pa.table({"k": [1, 2, 2, 3, 5], "a": list("abcde")})
    right = pa.table({"kk": [2, 2, 3, 4], "b": [10.0, 20.0, 30.0, 40.0]})
    out = _pd(hash_join(ray.data.from_arrow(left),
                        ray.data.from_arrow(right), "k", "kk", n_parts=4))
    exp = left.to_pandas().merge(right.to_pandas(), left_on="k",
                                 right_on="kk")
    key = ["k", "a", "kk", "b"]
    out = out[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    assert out.equals(exp)


def test_udf_inputs_run_once(ray_session, tmp_path):
    """``hash_join`` and ``dataset_lookup`` run an input whose schema is
    unknown until run (a UDF's output) once: no ``Dataset.schema()``
    limit(1) probe, which recomputes the first blocks and, shutting down
    early, cancels the input's other in-flight tasks.  Such a cancel
    racing the task's reply aborts the driver (Ray 2.49
    ``task_manager.cc`` "Tried to complete task that was not pending")."""
    import uuid

    import ray
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import (dataset_lookup,
                                                      hash_join)
    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(batch: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()   # one file per UDF call
        return batch

    def marked():   # 4 blocks -> 4 UDF calls per run
        return ray.data.from_items(
            [{"k": i, "a": 2 * i} for i in range(40)],
            override_num_blocks=4).map_batches(
                mark, batch_format="pyarrow", batch_size=None)

    right = ray.data.from_arrow(pa.table({"kk": [1, 2], "b": [1.0, 2.0]}))
    out = _pd(hash_join(marked(), right, "k", "kk", n_parts=2))
    assert sorted(out["k"]) == [1, 2]
    assert len(list(calls.iterdir())) == 4
    lookup = ray.get(dataset_lookup(marked(), "k", ["a"]))
    assert list(lookup.keys) == list(range(40))
    assert list(lookup["a"]) == list(range(0, 80, 2))
    assert len(list(calls.iterdir())) == 8


def test_asof_join_backward(ray_session):
    """asof_join == latest right row at-or-before each left ts per key."""
    import pandas as pd
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import asof_join
    left = pa.table({
        "k": [1, 1, 2, 3],
        "t": pd.to_datetime(["2024-01-05", "2024-01-01", "2024-01-04",
                             "2024-01-02"]),
        "ev": list("wxyz")})
    right = pa.table({
        "kk": [1, 1, 2],
        "tt": pd.to_datetime(["2024-01-02", "2024-01-04", "2024-01-04"]),
        "val": [10.0, 20.0, 30.0]})
    out = _pd(asof_join(ray.data.from_arrow(left),
                        ray.data.from_arrow(right), left_by="k",
                        right_by="kk", left_ts="t", right_ts="tt",
                        n_parts=2)).sort_values("ev").reset_index(drop=True)
    # w: k=1 @01-05 -> 20.0; x: k=1 @01-01 -> none; y: k=2 @01-04 -> 30.0;
    # z: k=3 -> none
    got = {r["ev"]: (None if pd.isna(r["val"]) else r["val"])
           for _, r in out.iterrows()}
    assert got == {"w": 20.0, "x": None, "y": 30.0, "z": None}


def test_partition_hash_is_pinned():
    """Join partitioning and HLL rely on pd.util.hash_array with a fixed
    hash_key; pin known values so a silent hashing change (pandas
    upgrade) fails loudly instead of quietly reshuffling partitions."""
    import pandas as pd
    h = pd.util.hash_array(np.array([0, 1, 42, 10**12], dtype=np.int64),
                           hash_key="0123456789123456")
    assert h.dtype == np.uint64
    assert [int(x) for x in h] == [
        0, 6238072747940578789, 12058926934050108962,
        1466053882811111471]


def test_quantized_ann_recall(ray_session):
    """int8 scalar quantization must keep >= 80% top-10 recall vs the
    exact brute-force search on the same queries."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import (ann_bruteforce,
                                                          ann_quantized)
    sf = "/root/testdata/sf0.01"
    exact = _pd(ann_bruteforce(sf))
    approx = _pd(ann_quantized(sf))
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        a = set(approx[approx.query_id == qid]["neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert sum(recalls) / len(recalls) >= 0.8, recalls


def test_rolling_fingerprint_locality():
    """Rolling-hash fingerprints: identical docs share fp; a local edit
    far from the minimum-sampled window usually keeps it (near-dup
    prescreen property), while short docs hash exactly."""
    import pyarrow as pa
    from iesl_pdf_to_text_ray.functions.textops import (
        rolling_fingerprint_batch)
    long = " ".join(f"tok{i}" for i in range(200))
    batch = pa.table({"doc_id": [1, 2, 3],
                      "text": [long, long, "short"]})
    out = rolling_fingerprint_batch(batch).to_pydict()
    assert out["rolling_fp"][0] == out["rolling_fp"][1]
    assert out["rolling_fp"][2] != out["rolling_fp"][0]
    assert all(len(f) == 16 for f in out["rolling_fp"])


def test_lang_stats_rounds_ties_away_from_zero(ray_session, tmp_path):
    """A mean that ends in an exact half at the 7th decimal rounds up,
    as the oracle's round does: 34,153 chars over 128 docs is
    266.8203125 -> 266.820313 (round half to even gave 266.820312)."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import lang_stats
    n_chars = [267] * 105 + [266] * 23
    assert sum(n_chars) == 34_153
    pq.write_table(pa.table({
        "doc_id": pa.array(range(128), pa.int64()),
        "lang": ["es"] * 128,
        "n_chars": pa.array(n_chars, pa.int64()),
        "text": ["x"] * 128}), str(tmp_path / "documents.parquet"))
    got = _pd(lang_stats(str(tmp_path)))
    assert got["avg_chars"].tolist() == [266.820313]
    _assert_matches_oracle("lang_stats", got, str(tmp_path))


@pytest.mark.parametrize("name", ["token_stats", "events_daily_pivot",
                                  "events_watermark_late",
                                  "pricing_summary", "events_sliding"])
def test_named_aggregate_matches_oracle(ray_session, name):
    """Grouped aggregates whose output columns are named by the
    aggregate itself (``alias_name``) match their oracle."""
    _assert_matches_oracle(name)
