"""HTML main-content extraction (north-rule "HTML boilerplate strip"
leg): exact recovery of planted main content, boilerplate exclusion,
media interleaving, malformed-input quarantine, and the Ray actor-pool
pipeline surface."""

from __future__ import annotations

import pyarrow.parquet as pq

from iesl_pdf_to_text_ray.functions.html_main import extract_main_spans
from iesl_pdf_to_text_ray.sources.html_corpus import (
    expected_spans, figure_ref, main_paragraph, render_doc,
    synthesize_html_corpus)


def test_exact_span_recovery_all_docs():
    """Every synthetic doc's extracted spans equal the generator's
    expected sequence — title, paragraphs, figure ref, caption, in
    order, with contiguous offsets."""
    for i in range(16):
        got = extract_main_spans(render_doc(i))
        assert got == expected_spans(i), f"doc {i}"


def test_boilerplate_fully_excluded():
    text = " ".join(s["text"] for s in extract_main_spans(render_doc(0)))
    for marker in ("Section", "Deal", "Related story", "Copyright",
                   "Terms", "Accept", "privacy", "tracker", "color:red"):
        assert marker not in text, marker


def test_media_inside_boilerplate_dropped():
    html = ('<html><body><nav><img src="/logo.png"><a href="/">Home</a>'
            "</nav><article><p>" + main_paragraph(0, 0) + "</p>"
            "</article></body></html>")
    spans = extract_main_spans(html)
    assert all(s["media_ref"] != "/logo.png" for s in spans)
    assert any(s["kind"] == "text" for s in spans)


def test_media_in_main_content_kept_in_order():
    spans = extract_main_spans(render_doc(5))
    kinds = [s["kind"] for s in spans]
    assert kinds.count("media") == 1
    m = next(s for s in spans if s["kind"] == "media")
    assert m["media_ref"] == figure_ref(5, 0)
    # figure sits after paragraph 1 and before its caption
    idx = spans.index(m)
    assert main_paragraph(5, 1) == spans[idx - 1]["text"]
    assert spans[idx + 1]["text"].startswith("Figure 1")


def test_link_heavy_block_dropped_prose_kept():
    html = ("<html><body><div>" +
            " ".join(f'<a href="/x{j}">click here now</a>'
                     for j in range(20)) +
            "</div><p>" + main_paragraph(1, 0) + "</p></body></html>")
    spans = extract_main_spans(html)
    texts = [s["text"] for s in spans]
    assert any("Paragraph 0 of article 1" in t for t in texts)
    assert not any("click here" in t for t in texts)


def test_malformed_html_no_crash():
    for html in ("<p>unclosed <b>bold", "<<<>>>", "", None,
                 "<html><body><p>" + "x" * 10 + "</p>"):
        extract_main_spans(html)   # must not raise


def test_ray_pipeline_surface(ray_session, tmp_path):
    """read_parquet -> ExtractHtmlDocs actor pool -> span rows with the
    input_hint schema; digests stable across runs."""
    from iesl_pdf_to_text_ray.stages.extract import spans_digest
    from iesl_pdf_to_text_ray.stages.html_extract import \
        extract_html_dataset
    d = str(tmp_path / "web")
    synthesize_html_corpus(d, n_docs=12, n_shards=3)
    rows = extract_html_dataset(d).take_all()
    assert len(rows) == 12
    for r in rows:
        assert r["error"] == ""
        i = int(r["doc_id"].split("-")[1])
        want = expected_spans(i)
        got = [{"kind": s["kind"], "text": s["text"],
                "media_ref": s["media_ref"], "offset": s["offset"]}
               for s in r["spans"]]
        assert got == want
        assert r["n_media"] == 1
        assert spans_digest(got) == spans_digest(want)
