"""SVG artifact output: the positional product of the reference CLI
(docs/svg-syntax.md).  Round-trip check: parse the emitted SVG and the
tspan text sequence must equal the golden span sequence; x arrays must
align with inserted-space sentinels."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from iesl_pdf_to_text_ray.functions.golden import parse_golden_spans
from iesl_pdf_to_text_ray.pdf.extractor import extract_svg
from iesl_pdf_to_text_ray.sources.corpus import (base_documents,
                                                 reference_pdf_bytes,
                                                 reference_pdfs_if_present)

EXPECTED = "/root/reference/src/test/resources/output"
REPO = Path(__file__).resolve().parents[1]
# a 4-page generated base document; its span counts are predicted
DOC = base_documents()[0]
# (pdf bytes, media-span count) of each 4-page input: the generated doc,
# and where present the 4-page reference paper with its 11 images
FOUR_PAGE_DOCS = [(DOC.pdf_bytes, DOC.n_media)] + [
    (data, 11) for name, data in reference_pdfs_if_present().items()
    if name == "1301.4293"]
SVGNS = "{http://www.w3.org/2000/svg}"


def _tspans(svg: str):
    root = ET.fromstring(svg)
    return root.iter(f"{SVGNS}tspan")


@pytest.mark.parametrize("doc", ["1301.4293", "test25"])
def test_svg_tspan_texts_match_golden(doc):
    data = reference_pdf_bytes()[doc]
    svg = extract_svg(data)
    golden = parse_golden_spans(f"{EXPECTED}/{doc}.pdf.expected/tspan-texts.txt")
    texts = [t.text or "" for t in _tspans(svg)]
    assert texts == golden


def test_svg_x_arrays_and_fonts():
    for data, _ in FOUR_PAGE_DOCS:
        svg = extract_svg(data)
        saw_sentinel = saw_font = 0
        for t in _tspans(svg):
            xs = [float(v) for v in t.get("x", "").split()]
            text = t.text or ""
            assert xs, text
            assert len(xs) <= len(text)
            if len(xs) == len(text):
                for i, v in enumerate(xs):
                    if v == -1.0:
                        assert text[i] == " "
                        saw_sentinel += 1
            fs = t.get("font-size", "")
            assert fs.endswith("px") and float(fs[:-2]) > 0
            if t.get("font-family"):
                saw_font += 1
        assert saw_sentinel > 100
        assert saw_font > 0


def test_svg_per_page_groups():
    for data, n_media in FOUR_PAGE_DOCS:
        svg = extract_svg(data)
        root = ET.fromstring(svg)
        pages = [g for g in root.findall(f"{SVGNS}g")
                 if g.get("data-page") is not None]
        assert len(pages) == 4
        # media placeholders interleave in content order
        assert len(list(root.iter(f"{SVGNS}image"))) == n_media


def test_cli_svg_sink(tmp_path):
    import subprocess
    import sys
    src = tmp_path / "in"
    src.mkdir()
    (src / "doc.pdf").write_bytes(DOC.pdf_bytes)
    out = tmp_path / "svg"
    r = subprocess.run(
        [sys.executable, "-m", "iesl_pdf_to_text_ray", "-i", str(src),
         "-o", str(out), "-f", "svg", "-p"],
        capture_output=True, cwd=REPO)
    assert r.returncode == 0, r.stderr.decode()[:500]
    files = sorted(p.name for p in out.iterdir())
    assert files == [f"doc-p{i}.svg" for i in range(4)]
