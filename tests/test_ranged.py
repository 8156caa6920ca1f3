"""ChunkedData (reference ChunkedStream analog) and the ranged
raw-file extraction path: bytes-surface equivalence, golden parity,
bounded residency on a large synthetic PDF, and the Ray e2e pipeline."""

from __future__ import annotations

import os
import random
import re

import pytest

from iesl_pdf_to_text_ray.pdf.chunked_data import (ChunkedData,
                                                   finditer_buffer)

INPUT = "/root/reference/src/test/resources/input"
GOLDEN = ["1301.4293", "C04-1204", "test24", "test25"]


def _chunked(data: bytes, chunk_size=64, max_chunks=4) -> ChunkedData:
    return ChunkedData(lambda a, b: data[a:b], len(data),
                       chunk_size=chunk_size, max_chunks=max_chunks)


def test_bytes_surface_equivalence():
    rng = random.Random(7)
    data = bytes(rng.randrange(5) + 97 for _ in range(5000))
    buf = _chunked(data)
    assert len(buf) == len(data)
    for i in [0, 1, 63, 64, 65, 4999, -1, -5000]:
        assert buf[i] == data[i]
    with pytest.raises(IndexError):
        buf[5000]
    for a, b in [(0, 10), (60, 70), (100, 100), (-2048, None),
                 (4990, 9999), (0, None)]:
        assert buf[a:b] == data[a:b]
    for sub in [b"ab", b"abc", b"zzz", b"a", bytes(data[130:140])]:
        assert buf.find(sub) == data.find(sub)
        assert buf.rfind(sub) == data.rfind(sub)
        assert buf.find(sub, 1000) == data.find(sub, 1000)
        assert buf.rfind(sub, 0, 700) == data.rfind(sub, 0, 700)
        assert buf.find(sub, 63, 66) == data.find(sub, 63, 66)
    assert buf.startswith(data[:5])
    assert buf.startswith(data[70:75], 70)
    assert not buf.startswith(b"nope")


def test_finditer_buffer_windowed():
    rng = random.Random(11)
    parts = []
    for i in range(3000):
        parts.append(b"%d 0 obj " % i if rng.random() < 0.2
                     else bytes(rng.randrange(26) + 97
                                for _ in range(rng.randrange(1, 30))))
    data = b" ".join(parts)
    pat = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
    expected = [(m.start(), m.end(), m.group(1))
                for m in pat.finditer(data)]
    got = [(m.start(), m.end(), m.group(1))
           for m in finditer_buffer(pat, _chunked(data, chunk_size=4096))]
    assert got == expected


def test_golden_docs_via_chunked_equal_whole():
    from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
    for name in GOLDEN:
        p = f"{INPUT}/{name}.pdf"
        whole = extract_spans(open(p, "rb").read())
        buf = ChunkedData.from_file(p, chunk_size=4096, max_chunks=8)
        assert extract_spans(buf) == whole, name
        # residency stayed at the LRU cap, not the file size
        assert buf.max_resident <= 8 * 4096


@pytest.fixture(scope="module")
def big_pdf(tmp_path_factory):
    from iesl_pdf_to_text_ray.sources.corpus import synthesize_large_pdf
    d = tmp_path_factory.mktemp("bigpdf")
    return synthesize_large_pdf(str(d / "big.pdf"), n_pages=24,
                                bytes_per_page=1 << 20)


def test_large_pdf_bounded_residency(big_pdf):
    from iesl_pdf_to_text_ray.pdf.extractor import count_pages, extract_spans
    size = os.path.getsize(big_pdf)
    assert size > 20e6
    # O(1)-ish page count: a few chunks, not the file
    buf = ChunkedData.from_file(big_pdf)
    assert count_pages(buf) == 24
    assert buf.fetched_bytes < 1e6
    # a 2-page shard fetches ~2 pages of bytes, never the whole file
    buf2 = ChunkedData.from_file(big_pdf)
    spans = extract_spans(buf2, (10, 12))
    assert [s[1] for s in spans if s[0] == "text"] == [
        "Large doc page 10", "Large doc page 11"]
    assert [s[6] for s in spans] == [10, 10, 11, 11]
    assert buf2.fetched_bytes < 4e6, buf2.fetched_bytes
    assert buf2.max_resident < 8e6


def test_large_pdf_shards_digest_equal_whole(big_pdf):
    from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
    whole = extract_spans(open(big_pdf, "rb").read())
    stitched = []
    for a in range(0, 24, 5):
        buf = ChunkedData.from_file(big_pdf)
        for (k, t, m, o, xs, y, pg, mt) in extract_spans(
                buf, (a, min(a + 5, 24))):
            stitched.append((k, t, m, len(stitched), xs, y, pg, mt))
    assert stitched == whole


def _write_base_documents(pdf_dir, n: int = 4) -> list[str]:
    """The first ``n`` generated base documents as ``<name>.pdf`` files."""
    from iesl_pdf_to_text_ray.sources.corpus import base_documents
    pdf_dir.mkdir()
    docs = base_documents()[:n]
    for d in docs:
        (pdf_dir / f"{d.name}.pdf").write_bytes(d.pdf_bytes)
    return [d.name for d in docs]


def test_ranged_pipeline_e2e(ray_session, tmp_path):
    """Raw-file dir -> ranged split pipeline == whole-doc pipeline."""
    import ray.data

    from iesl_pdf_to_text_ray.pipelines.extract_pipeline import (
        extract_dataset, extract_pdf_dir_ranged)
    from iesl_pdf_to_text_ray.sources.corpus import synthesize_pdf_corpus

    pdf_dir = tmp_path / "pdfs"
    _write_base_documents(pdf_dir)
    ranged = {r["doc_id"]: r["spans"]
              for r in extract_pdf_dir_ranged(
                  str(pdf_dir), pages_per_shard=3,
                  concurrency=(1, 2)).take_all()}

    corpus_dir = tmp_path / "corpus"
    synthesize_pdf_corpus(str(corpus_dir), n_docs=4, n_shards=1)
    whole = {r["doc_id"].split("-", 2)[2]: r["spans"]
             for r in extract_dataset(str(corpus_dir),
                                      concurrency=(1, 2)).take_all()}
    assert set(ranged) == set(whole)
    assert ranged == whole


def test_ranged_manifest_pipeline(ray_session, tmp_path):
    """A parquet manifest table (doc_id, path) fed as a Dataset through
    the same ranged stages == the directory-glob variant; the listing
    never has to touch the driver."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from iesl_pdf_to_text_ray.pipelines.extract_pipeline import (
        extract_pdf_dir_ranged, extract_pdf_manifest_ranged)

    pdf_dir = tmp_path / "pdfs"
    names = _write_base_documents(pdf_dir, 2)

    manifest_path = tmp_path / "manifest.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(names, pa.string()),
        "path": pa.array([str(pdf_dir / f"{n}.pdf")
                          for n in names], pa.string())}),
        manifest_path)

    via_manifest = {r["doc_id"]: r["spans"]
                    for r in extract_pdf_manifest_ranged(
                        ray.data.read_parquet(str(manifest_path)),
                        pages_per_shard=3,
                        concurrency=(1, 2)).take_all()}
    via_dir = {r["doc_id"]: r["spans"]
               for r in extract_pdf_dir_ranged(
                   str(pdf_dir), pages_per_shard=3,
                   concurrency=(1, 2)).take_all()}
    assert via_manifest == via_dir
    assert len(via_manifest) == 2
