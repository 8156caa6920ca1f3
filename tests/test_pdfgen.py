"""The generated base documents of the corpus: the engine's spans equal
the generator's prediction, and merging keeps page-tree inheritance."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from iesl_pdf_to_text_ray.pdf.extractor import count_pages, extract_spans
from iesl_pdf_to_text_ray.pdf.writer import merge_pdfs
from iesl_pdf_to_text_ray.sources.corpus import base_documents
from iesl_pdf_to_text_ray.sources.pdfgen import make_document

REPO = Path(__file__).resolve().parents[1]


def test_base_documents_match_prediction():
    for doc in base_documents():
        assert count_pages(doc.pdf_bytes) == doc.n_pages, doc.name
        got = extract_spans(doc.pdf_bytes)
        assert [s[:3] for s in got] == [s[:3] for s in doc.spans], doc.name
        # inserted word spaces are the -1 sentinels of each span's x array
        assert [sum(1 for v in s[4] if v == -1.0) for s in got] == \
            [s[3] for s in doc.spans], doc.name


def test_merge_keeps_inherited_page_resources():
    """The generator keeps /Resources and /MediaBox on its /Pages root;
    the merged page tree must carry them to every page."""
    docs = base_documents()
    merged = merge_pdfs([d.pdf_bytes for d in docs] * 6)
    assert count_pages(merged) == 180
    texts = [s[1] for s in extract_spans(merged) if s[0] == "text"]
    assert texts == [s[1] for d in docs * 6 for s in d.spans
                     if s[0] == "text"]


def test_benchmark_copy_is_the_same_generator():
    spec = importlib.util.spec_from_file_location(
        "perfbench_pdfgen", REPO / "perfbench" / "pdfgen.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for seed, n_pages in ((5, 3), (6, 18)):
        assert bench.make_document(seed, n_pages) == \
            make_document(seed, n_pages)
