"""Round-5 hardening tests: hot-key salting in the hash join (the
round-4 verdict's named scale-killer — salting was documented but not
implemented), and the skew-hardened driver query built on it."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import SF, _pd


def _zipf_frames(n_left=20_000, hot_share=0.4, n_keys=500, seed=11):
    """Left fact table with one key holding ``hot_share`` of all rows;
    right dim with one row per key."""
    rng = np.random.default_rng(seed)
    n_hot = int(n_left * hot_share)
    cold = rng.integers(1, n_keys, n_left - n_hot)
    keys = np.concatenate([np.zeros(n_hot, dtype=np.int64), cold])
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys.astype("int64"),
                         "v": rng.integers(0, 1000, n_left)
                                .astype("int64")})
    right = pd.DataFrame({"rk": np.arange(n_keys, dtype=np.int64),
                          "w": np.arange(n_keys, dtype=np.int64) * 10})
    return left, right


# ------------------------------------------------ partition-bound proof

def test_salted_parts_bounds_hot_key():
    """Direct unit check of the partition assignment: with a 40%-hot key
    salted k ways, no partition receives more than ~1/k of the hot rows
    (plus its hash share of cold keys) — the per-task bound the 100 TB
    story needs."""
    from iesl_pdf_to_text_ray.pipelines.joins import (_part_of,
                                                      _salted_parts)
    left, _ = _zipf_frames()
    vals = left["k"].to_numpy()
    n_parts = 16
    base = _part_of(pa.chunked_array([pa.array(vals)]), n_parts)

    # unsalted: the hot key's full row set lands in ONE partition
    unsalted_max = np.bincount(base, minlength=n_parts).max()
    n_hot = int((vals == 0).sum())
    assert unsalted_max >= n_hot  # the skew pathology being fixed

    k = 8
    hot = {0: (n_parts, k)}
    take_idx, parts = _salted_parts(vals, 0, n_parts, base, hot)
    assert take_idx is None  # left side splits in place, no replication
    sizes = np.bincount(parts, minlength=n_parts + k)
    # every salted partition holds ~n_hot/k rows (round-robin exact)
    salted = sizes[n_parts:]
    assert salted.sum() == n_hot
    assert salted.max() <= -(-n_hot // k)
    # and no remaining partition holds the hot key at all
    assert sizes.max() <= max(salted.max(),
                              np.bincount(base[vals != 0],
                                          minlength=n_parts).max())

    # right side: hot rows replicate into all k salted partitions
    rvals = np.array([0, 3, 0, 7], dtype=np.int64)
    rbase = _part_of(pa.chunked_array([pa.array(rvals)]), n_parts)
    take_idx, rparts = _salted_parts(rvals, 1, n_parts, rbase, hot)
    assert take_idx is not None
    # 2 cold rows kept once + 2 hot rows x k replicas
    assert len(take_idx) == 2 + 2 * k
    assert (np.bincount(rparts, minlength=n_parts + k)[n_parts:] == 2) \
        .all()


# ------------------------------------------------ end-to-end equality

@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_salted_hash_join_matches_pandas(ray_session, how):
    """Salting must be invisible in the result: every join flavor equals
    the pandas reference on a 40%-hot-key input."""
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join

    left, right = _zipf_frames(n_left=6_000, n_keys=120)
    # anti/semi need some left keys absent from right
    right = right[right["rk"] % 7 != 0].reset_index(drop=True)

    out = _pd(hash_join(ray.data.from_pandas(left),
                        ray.data.from_pandas(right), "k", "rk",
                        n_parts=8, how=how, salt_budget=500))
    if how == "inner":
        gold = left.merge(right, left_on="k", right_on="rk")
    elif how == "left":
        gold = left.merge(right, left_on="k", right_on="rk", how="left")
    elif how == "semi":
        gold = left[left["k"].isin(right["rk"])]
    else:
        gold = left[~left["k"].isin(right["rk"])]
    cols = list(gold.columns)
    out = out[cols].sort_values(cols).reset_index(drop=True)
    gold = gold.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, gold, check_dtype=False)


def test_salt_budget_rejects_merge_post(ray_session):
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join
    left, right = _zipf_frames(n_left=100, n_keys=10)
    with pytest.raises(ValueError, match="salt_budget"):
        hash_join(ray.data.from_pandas(left),
                  ray.data.from_pandas(right), "k", "rk",
                  salt_budget=10, merge_post=lambda df: df)


def test_hot_key_census_finds_the_hot_key(ray_session):
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import _topk_key_counts
    left, _ = _zipf_frames(n_left=8_000, hot_share=0.3)
    counts = _topk_key_counts(ray.data.from_pandas(left), "k")
    assert counts[0] == int((left["k"] == 0).sum())  # exact for the head


# ------------------------------------------------ driver query oracle

def test_skewed_part_revenue_matches_duckdb(ray_session):
    import duckdb
    import __ray_entry__ as E
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import \
        skewed_part_revenue

    # budget low enough that the hot key salts even at sf0.001
    mine = _pd(skewed_part_revenue(SF, salt_budget=200))
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    gold = con.execute(E.oracle_sql()["skewed_part_revenue"]).fetchdf()
    mine = mine.sort_values("skew_key").reset_index(drop=True)
    gold = gold.sort_values("skew_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)


# ------------------------------------------------ simhash near-dup pairs

def test_simhash_banding_complete_for_dist3():
    """Property: for fingerprints within Hamming distance 3, the 4x16-bit
    band explode ALWAYS produces a shared bucket (pigeonhole), and the
    partition kernel verifies the exact distance."""
    from iesl_pdf_to_text_ray.functions.dedup import (
        simhash_band_explode, simhash_pairs_partition)
    rng = np.random.default_rng(5)
    base = rng.integers(0, 2**63, 40, dtype=np.int64).astype(np.uint64)
    rows_id, rows_hex = [], []
    expected = set()
    for i, h in enumerate(base):
        rows_id.append(2 * i)
        rows_hex.append(f"{int(h):016x}")
        # twin with d random bit flips (d in 0..3) must always be found
        d = int(rng.integers(0, 4))
        flip = np.uint64(0)
        for bit in rng.choice(64, size=d, replace=False):
            flip |= np.uint64(1) << np.uint64(int(bit))
        rows_id.append(2 * i + 1)
        rows_hex.append(f"{int(h ^ flip):016x}")
        expected.add((2 * i, 2 * i + 1, d))
    batch = pa.table({"doc_id": pa.array(rows_id, pa.int64()),
                      "simhash": pa.array(rows_hex, pa.string())})
    exploded = simhash_band_explode(batch)
    # single partition (all buckets together) => recall must be total
    pairs = simhash_pairs_partition(exploded).to_pandas()
    got = {(int(a), int(b), int(h))
           for a, b, h in pairs.itertuples(index=False)}
    missing = {e for e in expected if e not in got}
    assert not missing, f"banding missed planted pairs: {missing}"


def test_dedup_simhash_pairs_matches_duckdb(ray_session):
    """End-to-end pair set == the exact Hamming<=3 self-join (DuckDB)."""
    import duckdb
    import __ray_entry__ as E
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import \
        dedup_simhash_pairs

    mine = _pd(dedup_simhash_pairs(SF))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    gold = con.execute(E.oracle_sql()["dedup_simhash_pairs"]).fetchdf()
    key = ["doc_a", "doc_b"]
    mine = mine.sort_values(key).reset_index(drop=True)
    gold = gold.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)


# ------------------------------------------------ training-sequence pack

def test_pack_sequences_matches_duckdb(ray_session):
    """Global prefix-scan packing == the SQL window statement, and the
    packing invariants hold (every sequence full except the last; token
    mass conserved)."""
    import duckdb
    import __ray_entry__ as E
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import pack_sequences

    mine = _pd(pack_sequences(SF))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    gold = con.execute(E.oracle_sql()["pack_sequences"]).fetchdf()
    m = mine.sort_values("seq_id").reset_index(drop=True)
    g = gold.sort_values("seq_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(m, g, check_dtype=False)

    total = con.execute(
        "SELECT sum(len(regexp_extract_all(text,"
        " '[^ \\t\\n\\r\\f\\v]+'))) FROM documents").fetchone()[0]
    assert int(m["n_tokens"].sum()) == int(total)
    assert (m["n_tokens"].iloc[:-1] == 256).all()   # only the tail ragged
    assert (m["seq_id"].to_numpy()
            == np.arange(len(m))).all()             # contiguous ids


def test_pack_sequences_bucket_boundaries(ray_session):
    """Sequences straddling bucket boundaries merge exactly: run with a
    pathological bucket count (every doc its own bucket) and compare to
    the single-bucket run."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import pack_sequences
    a = _pd(pack_sequences(SF, n_buckets=1)).sort_values("seq_id") \
        .reset_index(drop=True)
    b = _pd(pack_sequences(SF, n_buckets=64)).sort_values("seq_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------ misc round-5 hardening

def test_cached_html_corpus_fingerprints_generator(tmp_path, monkeypatch):
    """The shared corpus cache is keyed on a generator fingerprint: a
    changed generator lands in a DIFFERENT directory instead of silently
    reusing stale parquet (ADVICE r4)."""
    from iesl_pdf_to_text_ray.sources import html_corpus as hc
    d1 = hc.cached_html_corpus(str(tmp_path), n_docs=4, n_shards=1)
    import os
    assert os.path.exists(os.path.join(d1, "part-00000.parquet"))
    orig = hc.render_doc
    monkeypatch.setattr(hc, "render_doc",
                        lambda i: orig(i) + "<!-- v2 -->")
    d2 = hc.cached_html_corpus(str(tmp_path), n_docs=4, n_shards=1)
    assert d1 != d2


def test_cached_dir_never_shows_a_half_built_corpus(tmp_path):
    """A build that dies leaves no directory under the cache key, so the
    next call builds again instead of reusing a half-written corpus."""
    import os
    from iesl_pdf_to_text_ray.sources.corpus import cached_dir
    path = str(tmp_path / "corpus")

    def killed(d):
        open(os.path.join(d, "part-00000.parquet"), "w").close()
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        cached_dir(path, killed)
    assert os.listdir(tmp_path) == []
    builds = []
    for _ in range(2):
        assert cached_dir(path, builds.append) == path
    assert len(builds) == 1 and os.path.isdir(path)


def test_decode_jpeg_skips_junk_before_soi():
    """JpegStream parity: bytes before the SOI marker's 0xFF are skipped
    (reference :22363-22371)."""
    from iesl_pdf_to_text_ray.pdf.jpg import decode_jpeg
    from tests.jpeg_encoder import JpegEncoder
    img = np.full((8, 8, 1), 128, dtype=np.uint8)
    data = JpegEncoder(img).encode()
    px_clean, n = decode_jpeg(data, 8, 8, force_rgb=True)
    px_junk, n2 = decode_jpeg(b"junk bytes here" + data, 8, 8,
                              force_rgb=True)
    assert px_clean == px_junk and n == n2 == 3


def test_extract_job_entrypoint_resumes(tmp_path):
    """jobs/extract_job: the ray-job-submit entrypoint runs end to end
    in a subprocess and a re-submit skips every finished partition."""
    import json
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path
    from iesl_pdf_to_text_ray.sources.corpus import synthesize_pdf_corpus

    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    synthesize_pdf_corpus(str(corpus), n_docs=4, n_shards=2)
    env = {**os.environ, "RAY_ADDRESS": "local"}
    runs = []
    for _ in range(2):
        p = subprocess.run(
            [_sys.executable, "-m",
             "iesl_pdf_to_text_ray.jobs.extract_job",
             "--input", str(corpus), "--output", str(out)],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[1], env=env,
            timeout=240)
        assert p.returncode == 0, p.stderr[-500:]
        runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
    assert runs[0]["partitions_run"] == 2
    assert runs[0]["n_errors"] == 0
    assert runs[1]["partitions_skipped"] == 2
    assert runs[1]["partitions_run"] == 0


# ------------------------------------------- code-review regressions

def test_simhash_pairs_exclude_tokenless_docs(ray_session, tmp_path):
    """Review finding: two empty/whitespace docs must NOT pair (the SQL
    oracle's toks CTE yields no rows for them), and the per-doc
    fingerprint query must omit them entirely."""
    import pyarrow.parquet as pq
    import __ray_entry__ as E
    import duckdb
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import \
        dedup_simhash_pairs
    from iesl_pdf_to_text_ray.pipelines.table_ops import dedup_simhash

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["", "   ", "alpha beta gamma",
                          "alpha beta gamma", None], pa.string())}),
        d / "documents.parquet")
    pairs = _pd(dedup_simhash_pairs(str(d)))
    sims = _pd(dedup_simhash(str(d)))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    gold_pairs = con.execute(
        E.oracle_sql()["dedup_simhash_pairs"]).fetchdf()
    gold_sims = con.execute(E.oracle_sql()["dedup_simhash"]).fetchdf()
    assert len(sims) == len(gold_sims) == 2      # only the token-bearing
    assert len(pairs) == len(gold_pairs) == 1    # the real duplicate pair
    assert set(map(tuple, pairs[["doc_a", "doc_b"]].to_numpy())) \
        == {(2, 3)}


def test_salt_budget_rejects_unsupported_how(ray_session):
    """Review finding: replicate-the-build salting is wrong for joins
    where unmatched right rows emit."""
    import ray.data
    from iesl_pdf_to_text_ray.pipelines.joins import hash_join
    left, right = _zipf_frames(n_left=100, n_keys=10)
    with pytest.raises(ValueError, match="salt_budget does not support"):
        hash_join(ray.data.from_pandas(left),
                  ray.data.from_pandas(right), "k", "rk",
                  how="outer", salt_budget=10)


# -------------------------------------------------- BPE merge-pair count

def test_bpe_merge_pairs_matches_duckdb(ray_session):
    """First BPE iteration == the SQL bigram census, including the
    deterministic (count desc, pair asc) tie-break at the k boundary."""
    import duckdb
    import __ray_entry__ as E
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import \
        bpe_merge_pairs

    mine = _pd(bpe_merge_pairs(SF))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    gold = con.execute(E.oracle_sql()["bpe_merge_pairs"]).fetchdf()
    key = ["n", "pair"]
    mine = mine.sort_values(key, ascending=[False, True]) \
        .reset_index(drop=True)
    gold = gold.sort_values(key, ascending=[False, True]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)
    assert len(mine) == 20
