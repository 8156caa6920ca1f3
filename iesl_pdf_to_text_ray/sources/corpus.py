"""Corpus sources: the generated PDF corpus table and synthetic tables.

The primary pipeline input is a table of documents with binary PDF payloads
(Lance at production scale; parquet stand-in here — the container has no
lance wheel, so ``read_corpus`` gates on import).  Schema:

    doc_id    : string
    pdf_bytes : binary
    n_pages   : int32

``synthesize_pdf_corpus`` replicates 4 generated base documents
(``base_documents``, written by ``pdfgen.make_document`` together with
their predicted spans) into N rows with deterministic doc_ids — no
external data — written as M parquet shard files so the pipeline has
real partitions to stream, skip on resume, and skew-split.  The base
documents have the page counts of the reference regression PDFs;
``reference_pdf_bytes`` reads those PDFs themselves, for the parity
tests against their golden outputs.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import NamedTuple

import pyarrow as pa
import pyarrow.parquet as pq

_REF_INPUT = "/root/reference/src/test/resources/input"
_REF_DOCS = [("1301.4293", 4), ("C04-1204", 7), ("test24", 12), ("test25", 7)]
# generated base documents: (name, generator seed); base doc i has the
# page count of reference doc i
_BASE_SEEDS = [("gen-a", 101), ("gen-b", 102), ("gen-c", 103), ("gen-d", 104)]

CORPUS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("pdf_bytes", pa.binary()),
    ("n_pages", pa.int32()),
])

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

# extraction-output span: adds positional data — per-glyph x array with -1
# sentinels at inserted word spaces and the span's line y (the reference's
# tspan x/y attributes, docs/svg-syntax.md:8-16)
XSPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
    ("x", pa.list_(pa.float64())),
    ("y", pa.float64()),
    ("page", pa.int32()),
    ("mat", pa.list_(pa.float64())),
])

SPANS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])


def reference_pdf_bytes() -> dict[str, bytes]:
    """The reference regression PDFs, by name (parity tests only)."""
    return {name: open(f"{_REF_INPUT}/{name}.pdf", "rb").read()
            for name, _ in _REF_DOCS}


def reference_pdfs_if_present() -> dict[str, bytes]:
    """``reference_pdf_bytes()`` where its directory exists, else ``{}``:
    tests that hold for any valid PDF run on the generated documents
    always, and on these real-world ones too where they are present."""
    return reference_pdf_bytes() if os.path.isdir(_REF_INPUT) else {}


class BaseDocument(NamedTuple):
    name: str
    pdf_bytes: bytes
    n_pages: int
    spans: tuple    # predicted ((kind, text, media_ref, inserted_spaces), ...)

    @property
    def n_text(self) -> int:
        return sum(1 for s in self.spans if s[0] == "text")

    @property
    def n_media(self) -> int:
        return sum(1 for s in self.spans if s[0] == "media")


@functools.lru_cache(maxsize=1)
def base_documents() -> tuple[BaseDocument, ...]:
    """The 4 generated base documents of ``synthesize_pdf_corpus``, each
    with the span sequence its generator predicts for it."""
    from .pdfgen import make_document
    out = []
    for (name, seed), (_, n_pages) in zip(_BASE_SEEDS, _REF_DOCS):
        data, spans = make_document(seed, n_pages)
        out.append(BaseDocument(name, data, n_pages, tuple(spans)))
    return tuple(out)


def base_documents_digest() -> str:
    """Short digest of the base documents' bytes: changes whenever the
    generator or its seeds do (a key for on-disk corpus caches)."""
    h = hashlib.md5()
    for doc in base_documents():
        h.update(doc.pdf_bytes)
    return h.hexdigest()[:12]


def cached_dir(path: str, build) -> str:
    """``path``, made once by ``build(tmp)`` in a temporary sibling
    directory that is then renamed into place: a ``path`` that exists is
    complete, and a build that dies leaves only a ``.tmp-*`` sibling.
    Key ``path`` by everything the contents depend on."""
    import shutil
    import tempfile
    if not os.path.isdir(path):
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=parent, prefix=".tmp-")
        try:
            build(tmp)
            os.rename(tmp, path)
        except OSError:
            if not os.path.isdir(path):     # a fault, not a lost race
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return path


def synthesize_pdf_corpus(out_dir: str, n_docs: int = 64,
                          n_shards: int = 8) -> str:
    """Deterministic corpus: doc i replicates base document i%4, with
    doc_id ``doc-%08d-<name>``."""
    os.makedirs(out_dir, exist_ok=True)
    bases = base_documents()
    per_shard = (n_docs + n_shards - 1) // n_shards
    row = 0
    for shard in range(n_shards):
        ids, payloads, pages = [], [], []
        for _ in range(min(per_shard, n_docs - row)):
            base = bases[row % len(bases)]
            ids.append(f"doc-{row:08d}-{base.name}")
            payloads.append(base.pdf_bytes)
            pages.append(base.n_pages)
            row += 1
        if not ids:
            break
        table = pa.table({"doc_id": ids, "pdf_bytes": payloads,
                          "n_pages": pa.array(pages, pa.int32())},
                         schema=CORPUS_SCHEMA)
        pq.write_table(table, os.path.join(out_dir, f"part-{shard:05d}.parquet"))
    return out_dir


def read_corpus(path: str):
    """ray.data Dataset over the corpus (Lance when available, else parquet)."""
    import ray.data
    try:
        import lance  # noqa: F401
        if os.path.isdir(path) and path.endswith(".lance"):
            return ray.data.read_lance(path)
    except ImportError:
        pass
    return ray.data.read_parquet(path)


def relative_doc_path(resolved: str, input_path: str) -> str:
    """Doc-id path of one resolved file path relative to the input dir.

    Cloud URIs need a plain prefix strip (os.path.relpath mangles
    ``s3://``), and read_binary_files(include_paths=True) yields
    pyarrow-resolved paths WITHOUT the scheme (``s3://bucket/key`` comes
    back as ``bucket/key``) — so match the scheme-stripped prefix too.
    """
    if "://" in input_path:
        prefix = input_path.rstrip("/")
        for pref in (prefix, prefix.split("://", 1)[-1]):
            if resolved.startswith(pref):
                return resolved[len(pref):].lstrip("/")
        return resolved
    return os.path.relpath(os.path.abspath(resolved),
                           os.path.abspath(input_path))


def read_pdf_files(path: str):
    """Raw-file source: a directory tree of ``*.pdf`` files -> the corpus
    schema (doc_id = relative path sans extension, pdf_bytes, n_pages
    counted lazily inside the reader tasks).  The file-per-document
    layout the reference CLI consumes (cli.js:22), lifted to a streaming
    Dataset — read_binary_files shards the listing across tasks, so a
    million-file tree never lists on the driver."""
    import pyarrow as pa
    import ray.data

    from ..pdf.extractor import count_pages
    ds = ray.data.read_binary_files(path, include_paths=True,
                                    file_extensions=["pdf"])
    def _rel(p: str) -> str:
        return relative_doc_path(p, path)

    def to_corpus(batch: pa.Table) -> pa.Table:
        ids, blobs, pages = [], [], []
        for p, data in zip(batch.column("path").to_pylist(),
                           batch.column("bytes").to_pylist()):
            ids.append(os.path.splitext(_rel(p))[0])
            blobs.append(data)
            try:
                pages.append(count_pages(data))
            except Exception:
                pages.append(0)
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "pdf_bytes": pa.array(blobs, pa.binary()),
                         "n_pages": pa.array(pages, pa.int32())},
                        schema=CORPUS_SCHEMA)

    return ds.map_batches(to_corpus, batch_format="pyarrow", batch_size=8)


def synthesize_large_pdf(path: str, n_pages: int = 64,
                         bytes_per_page: int = 1 << 20) -> str:
    """One deterministic multi-hundred-MB-class PDF for the ranged
    (ChunkedStream-analog) path: every page draws its own uncompressed
    DeviceRGB image XObject of ~bytes_per_page, so a page-range shard
    touches ~its share of the file and nothing else.  Text per page is
    unique ("Large doc page N"), so span digests detect any page-range
    mix-up.  Layout is a classic xref table, offsets exact."""
    import numpy as np

    side = max(8, int((bytes_per_page // 3) ** 0.5))
    img_len = side * side * 3
    objects: dict[int, bytes] = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
    }
    kids = " ".join(f"{3 + 3 * i} 0 R" for i in range(n_pages))
    objects[2] = (f"<< /Type /Pages /Kids [{kids}] "
                  f"/Count {n_pages} >>").encode()
    for i in range(n_pages):
        page_num, content_num, img_num = 3 + 3 * i, 4 + 3 * i, 5 + 3 * i
        objects[page_num] = (
            f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Resources << /Font << /F1 {3 + 3 * n_pages} 0 R >> "
            f"/XObject << /Im0 {img_num} 0 R >> >> "
            f"/Contents {content_num} 0 R >>").encode()
        text = f"Large doc page {i}"
        content = (f"BT /F1 12 Tf 72 720 Td ({text}) Tj ET\n"
                   f"q 200 0 0 200 100 300 cm /Im0 Do Q").encode()
        objects[content_num] = (b"<< /Length %d >>\nstream\n" % len(content)
                                + content + b"\nendstream")
        rng = np.random.default_rng(1000 + i)
        pixels = rng.integers(0, 256, img_len, dtype=np.uint8).tobytes()
        objects[img_num] = (
            (f"<< /Type /XObject /Subtype /Image /Width {side} "
             f"/Height {side} /BitsPerComponent 8 /ColorSpace /DeviceRGB "
             f"/Length {img_len} >>\nstream\n").encode()
            + pixels + b"\nendstream")
    objects[3 + 3 * n_pages] = (b"<< /Type /Font /Subtype /Type1 "
                                b"/BaseFont /Helvetica >>")

    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objects):
        offsets[num] = len(out)
        out.extend(f"{num} 0 obj\n".encode())
        out.extend(objects[num])
        out.extend(b"\nendobj\n")
    xref_off = len(out)
    maxnum = max(objects)
    out.extend(f"xref\n0 {maxnum + 1}\n".encode())
    out.extend(b"0000000000 65535 f \n")
    for num in range(1, maxnum + 1):
        out.extend(f"{offsets.get(num, 0):010d} 00000 n \n".encode())
    out.extend(f"trailer\n<< /Size {maxnum + 1} /Root 1 0 R >>\n"
               f"startxref\n{xref_off}\n%%EOF\n".encode())
    with open(path, "wb") as f:
        f.write(bytes(out))
    return path
