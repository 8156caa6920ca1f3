"""Round-5c operator tests: end-to-end fuzzy dedup curation, bigram
LM quality scoring, and domain mixture weights."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from conftest import SF, _assert_matches_oracle, _canon, _pd


# ------------------------------------------------ fuzzy_dedup_curation

def test_fuzzy_dedup_curation_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        fuzzy_dedup_curation
    got = _pd(fuzzy_dedup_curation(SF))
    # every document appears in exactly one cluster
    assert got["n_members"].sum() == 500
    # the representative really is the longest member of its cluster
    assert (got["max_chars"] <= got["total_chars"]).all()
    _assert_matches_oracle("fuzzy_dedup_curation", got)


def test_fuzzy_dedup_curation_keep_rule(ray_session):
    """Independent check of the keep rule on the multi-member clusters:
    keep_doc_id is the smallest doc_id among members with max n_chars."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops import \
        neardup_components
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        fuzzy_dedup_curation
    labels = _pd(neardup_components(SF))
    chars = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "n_chars"]).to_pandas()
    m = labels.merge(chars, on="doc_id")
    got = _pd(fuzzy_dedup_curation(SF)).set_index("component")
    multi = m.groupby("component").filter(lambda g: len(g) > 1)
    assert len(multi) > 0  # the corpus plants near-dup clusters
    for comp, g in multi.groupby("component"):
        best = g.sort_values(["n_chars", "doc_id"],
                             ascending=[False, True]).iloc[0]
        row = got.loc[comp]
        assert row["keep_doc_id"] == best["doc_id"]
        assert row["max_chars"] == best["n_chars"]
        assert row["n_members"] == len(g)


def test_minhash_cluster_dedup_agrees_with_exact(ray_session):
    """The LSH-pair variant (the 100 TB path) recovers the same
    clusters as the oracle-checked exact-jaccard chain on the planted
    near-dup corpus (dups sit far above the 0.4 threshold, and the
    seeded signatures are deterministic)."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import (
        fuzzy_dedup_curation, minhash_cluster_dedup)
    a = _canon(_pd(fuzzy_dedup_curation(SF)))
    b = _canon(_pd(minhash_cluster_dedup(SF)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


# ----------------------------------------------------- bigram_lm_score

def test_bigram_lm_score_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        bigram_lm_score
    got = _pd(bigram_lm_score(SF))
    assert (got["avg_nll_micro"]
            == got["nll_sum_micro"] // got["n_bigrams"]).all()
    _assert_matches_oracle("bigram_lm_score", got)


def test_bigram_lm_score_one_doc_recompute(ray_session):
    """Recompute one document's score from scratch (pure Python bigram
    model over the whole corpus) and compare bit-for-bit."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.functions.textops import _TOKEN_RE
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        bigram_lm_score
    got = _pd(bigram_lm_score(SF)).set_index("doc_id")
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    c2: dict = {}
    c1: dict = {}
    vocab = set()
    docs_bgs = {}
    for _, row in t.iterrows():
        ts = _TOKEN_RE.findall(row["text"] or "")
        vocab.update(ts)
        bgs = [(a, b) for a, b in zip(ts, ts[1:])]
        docs_bgs[row["doc_id"]] = bgs
        for a, b in bgs:
            c2[(a, b)] = c2.get((a, b), 0) + 1
            c1[a] = c1.get(a, 0) + 1
    v = len(vocab)
    doc_id = next(d for d, bgs in docs_bgs.items() if len(bgs) >= 5)
    nll_sum = sum(
        math.floor(math.log((c1[a] + v) / (c2[(a, b)] + 1)) * 1e6 + 0.5)
        for a, b in docs_bgs[doc_id])
    row = got.loc[doc_id]
    assert row["n_bigrams"] == len(docs_bgs[doc_id])
    assert row["nll_sum_micro"] == nll_sum
    assert row["avg_nll_micro"] == nll_sum // len(docs_bgs[doc_id])


# ------------------------------------------- users_vs_customers_outer

def test_users_vs_customers_outer(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        users_vs_customers_outer
    got = _pd(users_vs_customers_outer(SF))
    # the roster is bigger than the active-user set: genuinely outer
    assert (got["is_customer"] == 1).sum() > (got["n_events"] > 0).sum()
    _assert_matches_oracle("users_vs_customers_outer", got)


# ------------------------------------------------------- revenue_rollup

def test_revenue_rollup(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        revenue_rollup
    got = _pd(revenue_rollup(SF))
    # internal consistency across granularities
    fine = got[(got["o_orderpriority"] != "ALL") & (got["o_year"] != -1)]
    mid = got[(got["o_orderpriority"] != "ALL") & (got["o_year"] == -1)]
    top = got[got["o_orderpriority"] == "ALL"]
    assert len(top) == 1
    assert fine["revenue_cents"].sum() == mid["revenue_cents"].sum() \
        == top["revenue_cents"].iloc[0]
    assert fine["n_orders"].sum() == top["n_orders"].iloc[0]
    _assert_matches_oracle("revenue_rollup", got)


# -------------------------------------------------- incremental_dedup

def test_incremental_dedup(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        incremental_dedup
    got = _pd(incremental_dedup(SF))
    assert set(got["status"]) <= {"kept", "dup_of_index",
                                  "dup_in_shard"}
    assert len(got) == 50  # every new-shard doc gets a verdict
    assert (got["status"] == "kept").sum() > 0
    # the planted near-dup clusters cross the shard boundary
    assert (got["status"] == "dup_of_index").sum() > 0
    _assert_matches_oracle("incremental_dedup", got)


# --------------------------------------------------------- bpe_train

def test_bpe_train_matches_local_reference(ray_session):
    """The distributed trainer's merge sequence equals a from-scratch
    single-process BPE (same greedy rule, same tie-break), merge for
    merge — all-integer counts, so equality is exact."""
    import pyarrow.parquet as pq
    from collections import Counter

    from iesl_pdf_to_text_ray.functions.textops import _TOKEN_RE
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import bpe_train

    got = bpe_train(SF, n_merges=6).to_pandas()
    assert len(got) == 6

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    vocab: Counter = Counter()
    for txt in t.column("text").to_pylist():
        vocab.update(_TOKEN_RE.findall(txt or ""))
    words = {w: (list(w), f) for w, f in vocab.items()}
    for step in range(6):
        counts: Counter = Counter()
        for syms, f in words.values():
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] += f
        (l, r), n = min(counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        row = got.iloc[step]
        assert (row["left"], row["right"], row["n"]) == (l, r, n), step
        assert row["merged"] == l + r
        for w, (syms, f) in words.items():
            new, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l \
                        and syms[i + 1] == r:
                    new.append(l + r)
                    i += 2
                else:
                    new.append(syms[i])
                    i += 1
            words[w] = (new, f)


def test_bpe_train_first_round_matches_bpe_merge_pairs(ray_session):
    """Round 0 of the trainer must agree with the oracle-checked
    single-round query on the winning pair and its count."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5 import \
        bpe_merge_pairs
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import bpe_train
    got = bpe_train(SF, n_merges=1).to_pandas().iloc[0]
    top = _pd(bpe_merge_pairs(SF)).iloc[0]
    assert got["left"] + got["right"] == top["pair"].replace(" ", "") \
        or got["left"] + got["right"] == top["pair"]
    assert got["n"] == top["n"]


def test_bpe_encode_matches_local_reencode(ray_session):
    """Per-doc BPE token counts equal a local re-encode using the same
    merge table; compression is genuine (tokens < chars somewhere)."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.functions.textops import _TOKEN_RE
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import (
        bpe_encode, bpe_train)
    got = _pd(bpe_encode(SF, n_merges=4)).set_index("doc_id")
    merges = [(r["left"], r["right"])
              for r in bpe_train(SF, n_merges=4).to_pylist()]

    def enc(word):
        syms = list(word)
        for l, r in merges:
            new, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l \
                        and syms[i + 1] == r:
                    new.append(l + r)
                    i += 2
                else:
                    new.append(syms[i])
                    i += 1
            syms = new
        return len(syms)

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    checked = 0
    for _, row in t.head(50).iterrows():
        ws = _TOKEN_RE.findall(row["text"] or "")
        want = sum(enc(w) for w in ws)
        g = got.loc[row["doc_id"]]
        assert g["n_words"] == len(ws) and g["n_bpe_tokens"] == want
        checked += 1
    assert checked == 50
    assert (got["n_bpe_tokens"] < got["n_words"].rsub(0).abs()
            * 100).all()  # sanity bound
    assert (got["compression_ppm"] < 1_000_000).any()


# ----------------------------------------------------- quality_gate

def test_quality_gate(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        quality_gate
    got = _pd(quality_gate(SF))
    # the median gate keeps roughly (and at least) half of each lang
    per_lang = got.groupby("lang").size()
    assert (per_lang >= 1).all() and 250 <= len(got) < 500
    # gate rule holds within the result: everything >= its lang's min
    for lang, g in got.groupby("lang"):
        assert (g["alpha_ppm"] >= g["alpha_ppm"].min()).all()
    _assert_matches_oracle("quality_gate", got)


# -------------------------------------------------- mixture_resample

def test_mixture_resample(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        mixture_resample
    got = _pd(mixture_resample(SF))
    assert len(got) > 0
    _assert_matches_oracle("mixture_resample", got)


# ------------------------------------------------ leakage_safe_split

def test_leakage_safe_split(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops import \
        neardup_components
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        leakage_safe_split
    got = _pd(leakage_safe_split(SF))
    assert len(got) == 500
    assert set(got["split"]) == {"train", "val"}
    # the whole point: no near-dup cluster straddles the split
    sides = got.groupby("component")["split"].nunique()
    assert (sides == 1).all()
    # and the clusters are real (some have >1 member)
    labels = _pd(neardup_components(SF))
    assert labels.groupby("component").size().max() > 1
    _assert_matches_oracle("leakage_safe_split", got)


# ------------------------------------------------- kcenter_sample

def test_kcenter_sample_matches_local_reference(ray_session):
    """The distributed greedy k-center pick sequence equals a
    from-scratch local farthest-point selection (same start, same
    tie-break)."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        kcenter_sample
    got = kcenter_sample(SF, k=8).to_pandas()
    assert list(got["pick_order"]) == list(range(8))
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id")
    ids = t["vec_id"].to_numpy(dtype=np.int64)
    x = np.asarray(t["embedding"].tolist(), dtype=np.float64)
    sel = [0]
    mind = ((x - x[ids == 0][0]) ** 2).sum(axis=1)
    for _ in range(7):
        j = int(np.lexsort((ids, -mind))[0])
        sel.append(int(ids[j]))
        mind = np.minimum(mind, ((x - x[j]) ** 2).sum(axis=1))
    assert list(got["vec_id"]) == sel
    # distances are monotone non-increasing after the seed
    d = got["min_dist_sq_micro"].to_numpy()[1:]
    assert (np.diff(d) <= 0).all()


# ----------------------------------- token_heavy_hitters_sketch

def test_token_heavy_hitters_sketch(ray_session):
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.functions.textops import _TOKEN_RE
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        token_heavy_hitters_sketch
    got = _pd(token_heavy_hitters_sketch(SF)).reset_index(drop=True)
    assert len(got) == 20
    # exact counts, from scratch
    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    flat = []
    for txt in t.column("text").to_pylist():
        flat.extend(_TOKEN_RE.findall(txt or ""))
    exact = pd.Series(flat).value_counts()
    # CMS never undershoots, and collisions stay small at w=2048
    for _, row in got.iterrows():
        true = int(exact.get(row["token"], 0))
        assert row["est_count"] >= true
        assert row["est_count"] <= true + max(10, len(flat) // 500)
    # the clear heavy hitters are recovered exactly in order
    assert set(got["token"].head(5)) == set(exact.head(5).index)
    # determinism
    again = _pd(token_heavy_hitters_sketch(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, again)


# ---------------------------------------------- domain_mixture_weights

def _local_lloyd(sf: str, k=8, max_iters=10, tol=1e-9):
    """From-scratch single-process Lloyd's with the same init/tie
    rules — the reference for the distributed implementation."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id")
    ids = t["vec_id"].to_numpy(dtype=np.int64)
    x = np.asarray(t["embedding"].tolist(), dtype=np.float64)
    centers = x[ids < k][np.argsort(ids[ids < k])]
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        new = centers.copy()
        for c in range(k):
            if (a == c).any():
                new[c] = x[a == c].mean(axis=0)
        moved = float(np.abs(new - centers).max())
        centers = new
        if moved < tol:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return ids, np.argmin(d2, axis=1)


def test_kmeans_one_step_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        kmeans_one_step
    got = _pd(kmeans_one_step(SF))
    assert got["n_members"].sum() == 500 * 64  # every vec in a cluster
    _assert_matches_oracle("kmeans_one_step", got, decimals=6)


def test_kmeans_cluster_matches_local_reference(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        kmeans_cluster
    got = _pd(kmeans_cluster(SF)).sort_values("vec_id") \
        .reset_index(drop=True)
    ids, want = _local_lloyd(SF)
    assert (got["vec_id"].to_numpy() == ids).all()
    # distributed partial sums can differ from the local mean by ULPs;
    # an assignment flips only on a near-exact distance tie
    agree = (got["cluster"].to_numpy() == want).mean()
    assert agree >= 0.99, f"only {agree:.3f} agreement"
    # determinism: a second run reproduces the labels exactly
    again = _pd(kmeans_cluster(SF)).sort_values("vec_id") \
        .reset_index(drop=True)
    assert (again["cluster"].to_numpy()
            == got["cluster"].to_numpy()).all()


def test_domain_mixture_weights_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5c import \
        domain_mixture_weights
    got = _pd(domain_mixture_weights(SF))
    # floor-division shares can undershoot 1e6 by at most n_sources
    assert 1_000_000 - len(got) <= got["share_ppm"].sum() <= 1_000_000
    # alpha=0.5 flattens: every share is closer to uniform than the
    # raw token share is (temperature-sampling's whole point)
    tok_share = got["n_tokens"] / got["n_tokens"].sum()
    w_share = got["share_ppm"] / 1e6
    uniform = 1.0 / len(got)
    assert (np.abs(w_share - uniform)
            <= np.abs(tok_share - uniform) + 1e-9).all()
    _assert_matches_oracle("domain_mixture_weights", got)
