"""Ray stage for HTML main-content extraction: the web-document twin of
``stages/extract.py`` — an actor-pool ``map_batches`` over Arrow batches
of (doc_id, html) rows emitting the interleaved span model
``(kind, text, media_ref, offset)`` of the input_hint.

At 10^12-document scale this is the embarrassingly-parallel shape: no
shuffle anywhere, column-pruned reads, per-actor state limited to the
compiled classifier constants (HTML parsing itself is stateless), small
batches because pages are KB-to-MB rows.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html_main import extract_main_spans
from ..sources.corpus import SPAN_STRUCT

HTML_OUT_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
    ("n_spans", pa.int32()),
    ("n_text", pa.int32()),
    ("n_media", pa.int32()),
    ("error", pa.string()),
])


class ExtractHtmlDocs:
    """map_batches(ExtractHtmlDocs, batch_format='pyarrow',
    concurrency=(lo, hi))."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        pages = batch.column("html").to_pylist()
        out = {"doc_id": [], "spans": [], "n_spans": [], "n_text": [],
               "n_media": [], "error": []}
        for doc_id, html in zip(doc_ids, pages):
            try:
                spans = extract_main_spans(html or "")
                err = ""
            except Exception as e:      # per-row quarantine
                spans = []
                err = f"{type(e).__name__}: {e}"[:500]
            out["doc_id"].append(doc_id)
            out["spans"].append(spans)
            out["n_spans"].append(len(spans))
            out["n_text"].append(
                sum(1 for s in spans if s["kind"] == "text"))
            out["n_media"].append(
                sum(1 for s in spans if s["kind"] == "media"))
            out["error"].append(err)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "spans": pa.array(out["spans"], pa.list_(SPAN_STRUCT)),
            "n_spans": pa.array(out["n_spans"], pa.int32()),
            "n_text": pa.array(out["n_text"], pa.int32()),
            "n_media": pa.array(out["n_media"], pa.int32()),
            "error": pa.array(out["error"], pa.string())},
            schema=HTML_OUT_SCHEMA)


def extract_html_dataset(corpus_dir: str, concurrency=(1, 4),
                         batch_size: int = 16):
    """read_parquet(corpus) -> actor-pool main-content extraction."""
    import ray.data
    ds = ray.data.read_parquet(corpus_dir, columns=["doc_id", "html"])
    return ds.map_batches(ExtractHtmlDocs, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)
