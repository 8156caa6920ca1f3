"""Chunked-payload corpus: round-trip + extraction equality.

The chunked layout (sources/chunked.py) is the Ray-Data analog of the
reference's ChunkedStream (pdf.combined.js:4614): byte payloads stored
as bounded chunk rows.  Extraction over the reassembled stream must be
indistinguishable from the whole-doc path.
"""

from __future__ import annotations

import pytest

from iesl_pdf_to_text_ray.pipelines.extract_pipeline import extract_dataset
from iesl_pdf_to_text_ray.sources.chunked import (
    read_chunked_corpus, write_chunked_corpus)
from iesl_pdf_to_text_ray.sources.corpus import synthesize_pdf_corpus


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    corpus = str(tmp_path_factory.mktemp("corpus"))
    chunked = str(tmp_path_factory.mktemp("chunked"))
    synthesize_pdf_corpus(corpus, n_docs=8, n_shards=2)
    return corpus, chunked


def test_roundtrip_bytes_identical(ray_session, dirs):
    corpus, chunked = dirs
    # 4 KB chunks: every corpus PDF (13-28 KB) becomes several real chunks
    write_chunked_corpus(corpus, chunked, chunk_bytes=4096)
    import ray.data
    orig = {r["doc_id"]: (r["pdf_bytes"], r["n_pages"])
            for r in ray.data.read_parquet(corpus).take_all()}
    back = {r["doc_id"]: (r["pdf_bytes"], r["n_pages"])
            for r in read_chunked_corpus(chunked).take_all()}
    assert back.keys() == orig.keys()
    for k in orig:
        assert back[k][0] == orig[k][0], k
        assert back[k][1] == orig[k][1], k
    # chunking actually happened (not one row per doc)
    n_chunks = ray.data.read_parquet(chunked).count()
    assert n_chunks > len(orig) * 4


def test_extraction_equal_to_whole_doc_path(ray_session, dirs):
    corpus, chunked = dirs
    whole = {r["doc_id"]: r["spans"]
             for r in extract_dataset(corpus, concurrency=2,
                                      batch_size=4).take_all()}
    via_chunks = {r["doc_id"]: r["spans"]
                  for r in extract_dataset(read_chunked_corpus(chunked),
                                           concurrency=2,
                                           batch_size=4).take_all()}
    assert via_chunks == whole


def test_missing_chunk_raises(ray_session, dirs):
    corpus, chunked = dirs
    import pyarrow as pa

    from iesl_pdf_to_text_ray.sources.chunked import _reassemble
    bad = pa.table({
        "doc_id": ["d", "d"], "chunk_idx": pa.array([0, 2], pa.int32()),
        "n_chunks": pa.array([3, 3], pa.int32()),
        "n_pages": pa.array([1, 1], pa.int32()),
        "chunk": pa.array([b"a", b"c"], pa.binary())})
    with pytest.raises(ValueError, match="missing"):
        _reassemble(bad)
