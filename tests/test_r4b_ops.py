"""Round-4b operator tests: training-chunk splitting, Gopher repetition
screen, PII scrub, bracket join, trade balance, anomaly scan,
interleaved-spans media gallery, HTML block census."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import SF, _assert_matches_oracle, _pd


# ------------------------------------------------------------- doc_chunks

def test_doc_chunks_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import doc_chunks
    _assert_matches_oracle("doc_chunks", _pd(doc_chunks(SF)))


def test_doc_chunks_reassembles(ray_session):
    """Chunks of a doc cover all its tokens: sum(n_tokens) per doc equals
    the doc's whitespace token count, and chunk_md5 of the first chunk is
    the md5 of its first 64 tokens."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import doc_chunks
    got = _pd(doc_chunks(SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    docs["doc_id"] = docs["doc_id"].astype(str)
    toks = docs.set_index("doc_id")["text"].str.findall(r"\S+")
    per_doc = got.groupby("doc_id")["n_tokens"].sum()
    for doc_id, n in per_doc.items():
        assert n == len(toks[doc_id])
    row0 = got[(got.doc_id == docs.doc_id.iloc[0]) &
               (got.chunk_idx == 0)].iloc[0]
    want = hashlib.md5(
        " ".join(toks[docs.doc_id.iloc[0]][:64]).encode()).hexdigest()
    assert row0.chunk_md5 == want


# -------------------------------------------------------- token_diversity

def test_token_diversity_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        token_diversity
    got = _pd(token_diversity(SF))
    _assert_matches_oracle("token_diversity", got)
    # sanity: distinct <= total, top_count <= total
    assert (got.n_distinct <= got.n_tokens).all()
    assert (got.top_count <= got.n_tokens).all()
    assert (got.top_count >= 1).all()


# -------------------------------------------------------------- pii_scrub

def test_pii_scrub_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import pii_scrub
    got = _pd(pii_scrub(SF))
    _assert_matches_oracle("pii_scrub", got)
    # the injector plants addresses in ~1/7 of docs; all are scrubbed
    assert got.n_redacted.sum() > 0


def test_pii_scrub_removes_all_emails(ray_session):
    """After scrubbing, no email pattern survives in any document (the
    digest is of text where every match became <EMAIL>)."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import _EMAIL_RE
    pat = re.compile(_EMAIL_RE)
    assert pat.sub("<EMAIL>", "mail me at a.b+c@ex-7.org now") == \
        "mail me at <EMAIL> now"
    assert pat.search("no at sign here") is None


# ------------------------------------------------- discount_bracket_revenue

def test_discount_bracket_revenue_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        discount_bracket_revenue
    got = _pd(discount_bracket_revenue(SF))
    _assert_matches_oracle("discount_bracket_revenue", got)
    assert got.n_items.iloc[0] > 0


# ----------------------------------------------------- nation_trade_balance

def test_nation_trade_balance_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        nation_trade_balance
    got = _pd(nation_trade_balance(SF))
    _assert_matches_oracle("nation_trade_balance", got)
    # every nation row survives, including nations without suppliers
    nation = pd.read_parquet(f"{SF}/nation.parquet")
    assert len(got) == len(nation)


# ---------------------------------------------------------- events_anomaly

def test_events_anomaly_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import events_anomaly
    got = _pd(events_anomaly(SF))
    _assert_matches_oracle("events_anomaly", got)
    assert (got.n_outliers <= got.n_events).all()


def test_events_anomaly_flags_planted_outlier(ray_session, tmp_path):
    """A user with tightly clustered values plus one huge spike: exactly
    the spike is flagged."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import events_anomaly
    rng = np.random.default_rng(11)
    n = 200
    vals = np.concatenate([100 + rng.normal(0, 1, n - 1), [10_000.0]])
    df = pd.DataFrame({
        "user_id": np.zeros(n, dtype=np.int64),
        "event_type": ["click"] * n,
        "value": vals,
        "ts": pd.Timestamp("2024-01-01")})
    d = tmp_path / "ev"; d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    got = _pd(events_anomaly(str(d)))
    assert got.n_outliers.iloc[0] == 1


# ------------------------------------------------------ spans_media_gallery

def test_spans_media_gallery_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        spans_media_gallery
    got = _pd(spans_media_gallery(SF))
    _assert_matches_oracle("spans_media_gallery", got)
    assert len(got) > 0


def test_spans_media_gallery_offsets_consistent(ray_session):
    """Gallery rows agree with the synthesized spans table itself: for a
    sample doc, the media refs and offsets equal the media spans of
    synthesize_spans_batch run directly."""
    from iesl_pdf_to_text_ray.pipelines.spans_ops import \
        synthesize_spans_batch
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        spans_media_gallery
    got = _pd(spans_media_gallery(SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    batch = pa.Table.from_pandas(docs.head(20), preserve_index=False)
    spans_tbl = synthesize_spans_batch(batch).to_pylist()
    for row in spans_tbl:
        media = [(s["media_ref"], s["offset"]) for s in row["spans"]
                 if s["kind"] == "media"]
        mine = got[got.doc_id == row["doc_id"]]
        assert sorted(media) == sorted(
            zip(mine.media_ref, mine["offset"]))


# -------------------------------------------------------- html_block_stats

def test_html_block_stats_census(ray_session, tmp_path):
    """Over the generator's known page structure: every page keeps its
    figure (docs have 4 paras -> 1 figure) and classifies at least the
    4 main paragraphs + title as good."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        html_block_stats
    got = _pd(html_block_stats(SF, corpus_dir=str(tmp_path / "html")))
    assert len(got) == 32
    assert (got.n_media_kept == 1).all()
    assert (got.n_good >= 5).all()
    assert (got.n_bad >= 1).all()          # boilerplate exists and is cut
    assert (got.n_blocks == got.n_good + got.n_bad).all()


# --------------------------------------------------------- corpus_curation

def test_corpus_curation_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        corpus_curation
    got = _pd(corpus_curation(SF))
    _assert_matches_oracle("corpus_curation", got)
    # the dropped language never appears; every kept lang has docs
    assert "zh" not in set(got.lang)
    assert (got.n_docs > 0).all()


def test_corpus_curation_dedups_and_screens(ray_session, tmp_path):
    """Planted corpus: an exact duplicate pair counts once; a too-short
    doc and a one-token-spam doc are dropped."""
    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        corpus_curation
    good = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep green forest tonight") * 3
    spam = "spam " * 80            # top token = 50% of mass
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [good, good, spam, "short text", good + " unique tail"],
        "lang": ["en", "en", "en", "en", "fr"],
        "n_chars": [len(good), len(good), len(spam), 10,
                    len(good) + 12]})
    d = tmp_path / "docs"; d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    got = _pd(corpus_curation(str(d))).set_index("lang")
    assert got.loc["en", "n_docs"] == 1      # dup pair -> one; spam/short cut
    assert got.loc["fr", "n_docs"] == 1


# -------------------------------------------------------- spans_reassemble

def test_spans_reassemble_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        spans_reassemble
    got = _pd(spans_reassemble(SF))
    _assert_matches_oracle("spans_reassemble", got)
    assert (got.n_text_spans > 0).all()


# ---------------------------------------------------- pdf_corpus_curation

def test_pdf_corpus_curation_collapses_replicas(ray_session):
    """The 16-doc synthetic corpus replicates 4 base PDFs; the
    extraction -> body-text -> dedup chain must collapse it to exactly
    4 representatives whose n_dups sum back to the corpus size."""
    import __ray_entry__ as E
    got = _pd(E.queries()["pdf_corpus_curation"](SF))
    assert len(got) == 4
    assert got.n_dups.sum() == 16
    assert got.body_md5.nunique() == 4
    assert (got.n_chars > 100).all()


# ------------------------------------- neardup_components path equivalence

def test_components_local_and_distributed_paths_agree(ray_session):
    """The size-gated local union-find and the iterative Hash-to-Min
    path must label identically (local_edge_limit=0 forces the
    distributed rounds)."""
    from iesl_pdf_to_text_ray.pipelines.table_ops import \
        neardup_components
    local = _pd(neardup_components(SF)).sort_values("doc_id") \
        .reset_index(drop=True)
    dist = _pd(neardup_components(SF, local_edge_limit=0)) \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(local, dist)
    # the graph is non-trivial: at least one multi-doc component
    assert (local.component != local.doc_id).any()


# ------------------------------------------------- media_training_manifest

def test_media_training_manifest_matches_oracle(ray_session):
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        media_training_manifest
    got = _pd(media_training_manifest(SF))
    _assert_matches_oracle("media_training_manifest", got)
    # every media span finds exactly one feature row (inner join keeps all)
    from iesl_pdf_to_text_ray.pipelines.table_ops_r4b import \
        spans_media_gallery
    assert len(got) == len(_pd(spans_media_gallery(SF)))
    assert (got.width >= 64).all() and (got.height >= 64).all()
