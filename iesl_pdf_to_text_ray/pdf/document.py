"""PdfDocument: header check, catalog, page tree traversal, content access.

Behavioral reference: pdf.js PDFDocument/Catalog/Page
(/root/reference/src/main/js/pdf.combined.js:48769-49130, 42541-42980);
independent Python design.
"""

from __future__ import annotations

from .filters import decode_stream
from .objects import PdfError, Ref, Stream
from .xref import XRef

_INHERITABLE = ("Resources", "MediaBox", "CropBox", "Rotate")


class Page:
    __slots__ = ("index", "dict", "xref")

    def __init__(self, index: int, pdict: dict, xref: XRef):
        self.index = index
        self.dict = pdict
        self.xref = xref

    @property
    def resources(self) -> dict:
        r = self.xref.fetch_if_ref(self.dict.get("Resources"))
        return r if isinstance(r, dict) else {}

    def content_bytes(self) -> bytes:
        """Concatenated decoded content streams (joined with newlines)."""
        contents = self.xref.fetch_if_ref(self.dict.get("Contents"))
        streams = contents if isinstance(contents, list) else [contents]
        parts = []
        for s in streams:
            s = self.xref.fetch_if_ref(s)
            if isinstance(s, Stream):
                try:
                    parts.append(decode_stream(s, self.xref))
                except Exception:
                    continue
        return b"\n".join(parts)


class PdfDocument:
    """``data`` is ``bytes`` or any buffer with the bytes surface the
    parser uses — in particular ``chunked_data.ChunkedData`` for
    range-fetched multi-GB documents (reference ChunkedStream analog)."""

    def __init__(self, data: bytes, password: bytes = b""):
        # locate the header, tolerating leading garbage (works on lazy
        # buffers: find is windowed on ChunkedData)
        idx = data.find(b"%PDF-")
        if idx < 0:
            raise PdfError("not a PDF (no %PDF header)")
        if idx:
            data = data.view(idx) if hasattr(data, "view") else data[idx:]
        self.xref = XRef(data, password=password)
        self._pages: list[Page] | None = None

    @property
    def pages(self) -> list[Page]:
        if self._pages is None:
            xref = self.xref
            root = xref.root
            pages_root = xref.fetch_if_ref(root.get("Pages"))
            out: list[Page] = []
            seen: set[int] = set()

            def walk(node, inherited: dict):
                node = xref.fetch_if_ref(node)
                if not isinstance(node, dict):
                    return
                ntype = str(node.get("Type") or "")
                inh = dict(inherited)
                for k in _INHERITABLE:
                    if k in node:
                        inh[k] = node[k]
                kids = xref.fetch_if_ref(node.get("Kids"))
                if ntype == "Page" or (kids is None and "Contents" in node):
                    pd = dict(node)
                    for k in _INHERITABLE:
                        pd.setdefault(k, inh.get(k))
                    out.append(Page(len(out), pd, xref))
                    return
                if isinstance(kids, list):
                    for kid in kids:
                        if isinstance(kid, Ref):
                            if kid.num in seen:
                                continue
                            seen.add(kid.num)
                        walk(kid, inh)

            walk(pages_root, {})
            self._pages = out
        return self._pages

    def page_count(self) -> int:
        """Page count via the root /Count when sane (pdf.js numPages,
        pdf.combined.js:42560 Catalog.numPages) — O(1) object fetches,
        the right path for range-fetched buffers; falls back to the full
        tree walk."""
        try:
            pages_root = self.xref.fetch_if_ref(self.xref.root.get("Pages"))
            c = self.xref.fetch_if_ref(pages_root.get("Count"))
            if isinstance(c, int) and c >= 0:
                return c
        except Exception:
            pass
        return len(self.pages)

    def pages_slice(self, start: int, stop: int | None) -> list[Page]:
        """Pages [start, stop) (``stop=None``: to the last page), fetching
        only the objects needed: /Count lets whole out-of-range subtrees
        be skipped unvisited, and when a node's Count equals len(Kids)
        every kid is a leaf page, so out-of-range siblings are never
        fetched either (the flat-tree common case).  Assumes consistent
        /Count values (as every range-request reader does — pdf.js
        getPage); the eager ``pages`` walk remains the semantics
        reference."""
        if stop is None:
            stop = float("inf")
        xref = self.xref
        out: list[Page] = []
        seen: set[int] = set()

        def make_page(idx: int, node: dict, inherited: dict) -> None:
            pd = dict(node)
            for k in _INHERITABLE:
                pd.setdefault(k, inherited.get(k))
            out.append(Page(idx, pd, xref))

        def walk(node, inherited: dict, idx: int) -> int:
            if idx >= stop:
                return idx
            node = xref.fetch_if_ref(node)
            if not isinstance(node, dict):
                return idx
            ntype = str(node.get("Type") or "")
            inh = dict(inherited)
            for k in _INHERITABLE:
                if k in node:
                    inh[k] = node[k]
            kids = xref.fetch_if_ref(node.get("Kids"))
            if ntype == "Page" or (kids is None and "Contents" in node):
                if start <= idx < stop:
                    make_page(idx, node, inh)
                return idx + 1
            count = xref.fetch_if_ref(node.get("Count"))
            if isinstance(count, int) and count >= 0 and \
                    (idx + count <= start or idx >= stop):
                return idx + count          # subtree fully out of range
            if isinstance(kids, list):
                if isinstance(count, int) and count == len(kids):
                    # all kids are leaf pages: index arithmetic picks the
                    # in-range ones; siblings are never fetched
                    for j, kid in enumerate(kids):
                        if start <= idx + j < stop:
                            leaf = xref.fetch_if_ref(kid)
                            if isinstance(leaf, dict):
                                make_page(idx + j, leaf, inh)
                    return idx + count
                for kid in kids:
                    if isinstance(kid, Ref):
                        if kid.num in seen:
                            continue
                        seen.add(kid.num)
                    idx = walk(kid, inh, idx)
            return idx

        pages_root = xref.fetch_if_ref(xref.root.get("Pages"))
        walk(pages_root, {}, 0)
        return out
