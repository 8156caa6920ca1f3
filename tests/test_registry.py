"""The operator registry in ``__ray_entry__``: names, order, the oracle
window and the rows-only count.  No Ray session is started."""

from __future__ import annotations

import __ray_entry__ as E

QUERY_NAMES = [
    "spans_normalize", "dedup_exact", "dedup_simhash",
    "dedup_ngram_jaccard", "lang_stats", "top_longest",
    "top_docs_per_lang", "token_stats", "token_stats_bpe",
    "quality_scores", "doc_fingerprints", "langid_predict",
    "ann_bruteforce", "embedding_neardup", "media_features",
    "media_frames", "events_hourly", "events_daily_pivot",
    "events_watermark_late", "pricing_rollup", "events_sliding",
    "events_sessionize", "events_sessionize_scalable", "distinct_users",
    "revenue_by_nation", "order_revenue", "local_supplier_revenue",
    "sample_documents", "events_asof_orders", "events_range_pairs",
    "pricing_summary", "text_normalize", "quantile_stats",
    "customers_no_orders", "running_revenue", "ngram_topk",
    "stratified_sample", "neardup_components", "orders_top_per_priority",
    "events_user_gaps", "contamination_check",
    "customer_order_distribution", "weighted_sample",
    "orders_with_bulk_items", "forecast_revenue", "shipping_priority",
    "returned_items", "promo_revenue", "large_orders", "small_qty_revenue",
    "supplier_balance_by_region", "orders_rank_in_customer",
    "events_moving_sum", "events_type_transitions", "events_funnel",
    "daily_active_users", "doc_length_histogram", "keyword_doc_counts",
    "label_centroids", "events_props_stats", "knn_classify",
    "events_retention", "neardup_degree", "doc_chunks", "token_diversity",
    "pii_scrub", "discount_bracket_revenue", "nation_trade_balance",
    "events_anomaly", "spans_media_gallery", "corpus_curation",
    "spans_reassemble", "media_training_manifest", "skewed_part_revenue",
    "dedup_simhash_pairs", "pack_sequences", "bpe_merge_pairs",
    "volume_shipping", "product_profit", "rich_customers_no_orders",
    "dedup_keep_best", "tfidf_lang_topk", "fuzzy_dedup_curation",
    "bigram_lm_score", "domain_mixture_weights", "kmeans_one_step",
    "users_vs_customers_outer", "revenue_rollup", "mixture_resample",
    "leakage_safe_split", "quality_gate", "incremental_dedup",
    "extract_corpus", "extract_corpus_split", "extract_corpus_chunked",
    "extract_corpus_ranged", "extract_html_corpus", "dedup_minhash",
    "ann_ivf", "ann_quantized", "ann_lsh", "pdf_media", "pdf_metadata",
    "pdf_text_items", "pdf_corpus_curation", "extract_layout",
    "pdf_training_text", "distinct_users_hll", "pricing_quantiles_sketch",
    "html_block_stats", "kmeans_cluster", "minhash_cluster_dedup",
    "token_heavy_hitters_sketch", "bpe_train", "bpe_encode",
    "kcenter_sample",
]


def test_query_names_and_order_are_pinned():
    assert list(E.queries()) == QUERY_NAMES


def test_oracle_window_and_rows_only_count():
    queries, oracles = list(E.queries()), E.oracle_sql()
    # the first 50 queries form the oracle-checked window: all have SQL
    assert all(name in oracles for name in queries[:50])
    assert set(oracles) <= set(queries)
    assert sum(name not in oracles for name in queries) == 24
