"""Document-level extraction: PDF bytes -> interleaved span sequence.

This is the single-document core the Ray Data stages wrap (SURVEY.md §1.2):
one row in, one ordered list of (kind, text, media_ref, offset) out.
"""

from __future__ import annotations

from .document import PdfDocument
from .evaluator import interpret_page


def extract_spans(pdf_bytes: bytes,
                  page_range: tuple[int, int | None] | None = None,
                  password: bytes = b"",
                  ) -> list[tuple[str, str, str, int]]:
    """Extract the full span sequence of a document in reading order.

    page_range: optional (start, stop) page-index slice for page-level
    skew splitting, where a None stop runs to the last page; offsets are
    then local to the slice (the reassembly stage rebases them).
    ``password`` unlocks encrypted documents (the empty default covers
    the common empty-user-password case).
    """
    doc = PdfDocument(pdf_bytes, password=password)
    if page_range is not None and hasattr(pdf_bytes, "view"):
        # lazy (range-fetched) buffer: fetch only the objects of the
        # requested page range via /Count-guided tree slicing
        pages = doc.pages_slice(page_range[0], page_range[1])
    elif page_range is not None:
        pages = doc.pages[page_range[0]:page_range[1]]
    else:
        pages = doc.pages
    font_cache: dict = {}
    out: list[tuple] = []
    for page in pages:
        builder = interpret_page(doc.xref, page, font_cache)
        for kind, text, media_ref, xs, y, mat in builder.collect():
            # (kind, text, media_ref, offset, x[], y, page, mat): x holds
            # per-glyph positions in text-line space with -1 sentinels at
            # inserted spaces (§5.3 / docs/svg-syntax.md:8-16); page is
            # the absolute page index (stable across shards); mat is the
            # span's page-space frame (ctm o Tm, 6 floats) — page position
            # of glyph i is mat applied to (x[i], y)
            out.append((kind, text, media_ref, len(out), xs, y,
                        page.index, mat))
    return out


def count_pages(pdf_bytes: bytes) -> int:
    doc = PdfDocument(pdf_bytes)
    if hasattr(pdf_bytes, "view"):      # lazy buffer: O(1) /Count path
        return doc.page_count()
    return len(doc.pages)


def extract_metadata(pdf_bytes: bytes) -> dict:
    """Document metadata (the reference's getinfo.js surface:
    /root/reference/src/main/js/node/getinfo.js:26-50): Info dict fields,
    page count, the parsed XMP metadata map (getinfo.js:38-42 prints
    `Metadata:` entries when present) and per-page viewport sizes
    (getinfo.js:49-50 prints `Size: WxH` from getViewport(1.0))."""
    from .metadata import extract_xmp, page_view_size
    doc = PdfDocument(pdf_bytes)
    xref = doc.xref
    info = xref.fetch_if_ref(xref.trailer.get("Info")) or {}
    out = {"n_pages": len(doc.pages)}
    for key in ("Title", "Author", "Subject", "Keywords", "Creator",
                "Producer", "CreationDate", "ModDate"):
        v = info.get(key) if isinstance(info, dict) else None
        v = xref.fetch_if_ref(v)
        if isinstance(v, bytes):
            try:
                if v.startswith(b"\xfe\xff"):
                    v = v[2:].decode("utf-16-be", "replace")
                else:
                    v = v.decode("latin1")
            except Exception:
                v = repr(v)
        out[key.lower()] = v if isinstance(v, str) else None
    root = xref.root
    out["has_xmp_metadata"] = "Metadata" in root
    try:
        out["xmp"] = extract_xmp(xref)
    except Exception:
        out["xmp"] = {}
    out["page_sizes"] = [page_view_size(p) for p in doc.pages]
    return out


def extract_media(pdf_bytes: bytes,
                  page_range: tuple[int, int] | None = None,
                  password: bytes = b"") -> list[dict]:
    """Materialized media bytes per media span: PNG-encoded pixels for
    decodable rasters, pass-through JPEG for DCT, raw payload with
    mime=None for codec-less formats (JPX/JBIG2/CCITT).  media_ref values
    match the span stream exactly (same interpreter, same counters)."""
    from .evaluator import PageInterpreter
    from .images import materialize_image
    doc = PdfDocument(pdf_bytes, password=password)
    pages = doc.pages
    if page_range is not None:
        pages = pages[page_range[0]:page_range[1]]
    font_cache: dict = {}
    out: list[dict] = []
    for page in pages:
        sink: dict = {}
        interp = PageInterpreter(doc.xref, page.index, font_cache,
                                 media_sink=sink)
        try:
            interp.run(page.content_bytes(), page.resources)
        except Exception:
            pass
        for ref, source in sink.items():
            m = materialize_image(source, doc.xref)
            m["media_ref"] = ref
            out.append(m)
    return out


def extract_svg(pdf_bytes: bytes, page_range: tuple[int, int] | None = None,
                password: bytes = b"") -> str:
    """Whole-document SVG artifact (reference cli.js/pdfToSvg.js product):
    per-page groups of svg:text/svg:tspan with x arrays (-1 sentinels), y
    and font attributes — the grep-able positional output of
    docs/svg-syntax.md."""
    from ..functions.svg_out import document_svg, page_svg
    doc = PdfDocument(pdf_bytes, password=password)
    pages = doc.pages
    if page_range is not None:
        pages = pages[page_range[0]:page_range[1]]
    font_cache: dict = {}
    groups = [page_svg(interpret_page(doc.xref, page, font_cache))
              for page in pages]
    return document_svg(groups)


def extract_plain_text(pdf_bytes: bytes) -> str:
    """Plain-text rendition, getinfo.js parity: getTextContent items
    joined with ' ' (/root/reference/src/main/js/node/getinfo.js:51-58),
    produced by the item-based extractor in pdf/text_content.py (the
    reference's second extraction surface, with its own SPACE_FACTOR
    heuristics — distinct from the golden span path)."""
    from .text_content import extract_text_content
    pages = extract_text_content(pdf_bytes)
    return " ".join(i["str"] for p in pages for i in p["items"])
