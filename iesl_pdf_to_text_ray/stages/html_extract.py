"""Ray stage for HTML main-content extraction: the web-document twin of
``stages/extract.py`` — a task-pool ``map_batches`` over Arrow batches
of (doc_id, html) rows emitting the interleaved span model
``(kind, text, media_ref, offset)`` of the input_hint.

At 10^12-document scale this is the embarrassingly-parallel shape: no
shuffle anywhere, column-pruned reads, small batches because pages are
KB-to-MB rows.  The stage holds no state (the classifier constants and
the tokenizer's compiled patterns are module-level, and a page's parse
state lives only in its own call), so it runs as short Ray tasks on the
session's long-lived workers: a pass starts no actor pool and waits for
no pool to scale up, and no CPU stays held once it ends.
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
    """Stateless batch function: map_batches(ExtractHtmlDocs(),
    batch_format='pyarrow', concurrency=n) runs it as Ray tasks."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in HTML_OUT_SCHEMA.names}
        for doc_id, html in zip(batch.column("doc_id").to_pylist(),
                                batch.column("html").to_pylist()):
            try:
                spans = extract_main_spans(html or "")
                err = ""
            except Exception as e:      # per-row quarantine
                spans = []
                err = f"{type(e).__name__}: {e}"[:500]
            out["doc_id"].append(doc_id)
            out["spans"].append(spans)
            out["n_spans"].append(len(spans))
            out["n_text"].append(sum(s["kind"] == "text" for s in spans))
            out["n_media"].append(sum(s["kind"] == "media" for s in spans))
            out["error"].append(err)
        return pa.Table.from_pydict(out, schema=HTML_OUT_SCHEMA)


def extract_html_dataset(corpus_dir: str, concurrency=(1, 4),
                         batch_size: int = 16):
    """read_parquet(corpus) -> main-content extraction as Ray tasks, at
    most ``concurrency`` at once (the upper bound of a ``(lo, hi)``
    tuple: a task pool needs no minimum)."""
    import ray.data
    cap = concurrency[-1] if isinstance(concurrency, tuple) else concurrency
    ds = ray.data.read_parquet(corpus_dir, columns=["doc_id", "html"])
    return ds.map_batches(ExtractHtmlDocs(), batch_format="pyarrow",
                          batch_size=batch_size, concurrency=cap)
