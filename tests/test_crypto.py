"""Encrypted-PDF support: RC4 / AES-128 / AES-256 standard security
handler (reference: CipherTransformFactory, pdf.combined.js:24425-26508).

Fixtures are encrypted twins of the generated base documents of the
corpus, produced by the engine's own re-writer (pdf/writer.py); the bar is
span-sequence equality with the unencrypted original."""

from __future__ import annotations

import pytest

from iesl_pdf_to_text_ray.pdf.crypto import rc4
from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
from iesl_pdf_to_text_ray.pdf.objects import PdfError
from iesl_pdf_to_text_ray.pdf.writer import rewrite_pdf
from iesl_pdf_to_text_ray.sources.corpus import (base_documents,
                                                 reference_pdfs_if_present)
from iesl_pdf_to_text_ray.sources.pdfgen import make_document

NAMES = [d.name for d in base_documents()]
# where the reference regression PDFs are present, they run too: embedded
# font programs, a DCT image and hundreds of KB of real-world streams
REFERENCE = reference_pdfs_if_present()


@pytest.fixture(scope="module")
def golden_bytes():
    return {d.name: d.pdf_bytes for d in base_documents()}


def test_rc4_kat():
    # public RC4 test vectors (RFC 6229 style)
    assert rc4(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"
    assert rc4(b"Secret", b"Attack at dawn").hex() == \
        "45a01f645fc35b383552544b9bf5"


@pytest.mark.parametrize("mode", [None, "rc4", "aesv2", "aesv3"])
def test_encrypted_twin_spans_identical(golden_bytes, mode):
    docs = {n: golden_bytes[n] for n in (NAMES[0], NAMES[3])}
    docs.update((n, REFERENCE[n]) for n in ("1301.4293", "test25")
                if n in REFERENCE)
    for name, data in docs.items():
        twin = rewrite_pdf(data, encrypt=mode)
        assert extract_spans(twin) == extract_spans(data), (name, mode)


def test_heavy_docs_roundtrip_rc4():
    big, _ = make_document(105, 60)
    assert len(big) > 100_000  # a 60-page generated paper
    docs = {"gen-60p": big}
    docs.update((n, REFERENCE[n]) for n in ("C04-1204", "test24")
                if n in REFERENCE)
    for name, data in docs.items():
        twin = rewrite_pdf(data, encrypt="rc4")
        assert extract_spans(twin) == extract_spans(data), name


@pytest.mark.parametrize("mode", ["rc4", "aesv2", "aesv3"])
def test_user_password_required(golden_bytes, mode):
    data = golden_bytes[NAMES[0]]
    twin = rewrite_pdf(data, encrypt=mode, user_pwd=b"s3cret")
    # the handler authenticates (/U check, Algorithm 6 / 2.A): a wrong or
    # empty password raises instead of silently decrypting to garbage
    with pytest.raises(PdfError):
        extract_spans(twin)
    assert extract_spans(twin, password=b"s3cret") == extract_spans(data)


def test_encrypted_through_ray_pipeline(ray_session, tmp_path):
    """Encrypted docs flow through the actor-pool pipeline unquarantined."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.pipelines.extract_pipeline import extract_dataset
    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    plain = base_documents()[0].pdf_bytes
    table = pa.table({
        "doc_id": ["plain", "enc-rc4", "enc-aesv3"],
        "pdf_bytes": [plain, rewrite_pdf(plain, encrypt="rc4"),
                      rewrite_pdf(plain, encrypt="aesv3")],
        "n_pages": pa.array([4, 4, 4], pa.int32())}, schema=CORPUS_SCHEMA)
    d = tmp_path / "enc"
    d.mkdir()
    pq.write_table(table, str(d / "part-00000.parquet"))
    rows = {r["doc_id"]: r for r in
            extract_dataset(str(d), batch_size=4).take_all()}
    assert all(r["error"] == "" for r in rows.values())
    spans = {k: [(s["kind"], s["text"]) for s in r["spans"]]
             for k, r in rows.items()}
    assert spans["enc-rc4"] == spans["plain"]
    assert spans["enc-aesv3"] == spans["plain"]
