"""End-to-end Ray Data pipeline tests: extraction, skew split, resume."""

from __future__ import annotations

import os

import pytest

from iesl_pdf_to_text_ray.functions.golden import parse_golden_spans
from iesl_pdf_to_text_ray.pipelines.extract_pipeline import (
    extract_dataset, extract_to_dir, read_output)
from iesl_pdf_to_text_ray.sources.corpus import (base_documents,
                                                 reference_pdfs_if_present,
                                                 synthesize_pdf_corpus)
from iesl_pdf_to_text_ray.state import lineage

EXPECTED = "/root/reference/src/test/resources/output"
# predicted text-span count of each generated base document
GOLDEN_TEXT_COUNTS = {d.name: d.n_text for d in base_documents()}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    return synthesize_pdf_corpus(str(d), n_docs=12, n_shards=4)


def _one_file_corpus(d, docs: dict, n_pages: dict | None = None) -> str:
    """``docs`` ({doc_id: pdf bytes}) as a one-shard corpus in ``d``;
    ``n_pages`` ({doc_id: count}) overrides the counted page numbers."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.pdf.extractor import count_pages
    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    n_pages = n_pages or {}
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": list(docs), "pdf_bytes": list(docs.values()),
        "n_pages": pa.array([n_pages.get(k, count_pages(b))
                             for k, b in docs.items()], pa.int32())},
        schema=CORPUS_SCHEMA), str(d / "part-00000.parquet"))
    return str(d)


def _predicted(spans) -> tuple:
    """Span rows in the generator's prediction form: (kind, text,
    media_ref, inserted word spaces), the spaces being x's -1 sentinels."""
    return tuple((s["kind"], s["text"], s["media_ref"],
                  sum(1 for v in s["x"] if v == -1.0)) for s in spans)


def test_extract_dataset_end_to_end(ray_session, corpus_dir):
    ds = extract_dataset(corpus_dir, concurrency=2, batch_size=4)
    rows = ds.take_all()
    assert len(rows) == 12
    for row in rows:
        assert not row["error"]
        base = row["doc_id"].split("-", 2)[2]
        texts = [s["text"] for s in row["spans"] if s["kind"] == "text"]
        assert len(texts) == GOLDEN_TEXT_COUNTS[base]
        # reading order: offsets dense
        assert [s["offset"] for s in row["spans"]] == list(range(len(row["spans"])))


def test_extract_matches_golden_through_ray(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.sources.corpus import (CORPUS_SCHEMA,
                                                     reference_pdf_bytes)
    d = tmp_path / "test24"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": ["test24"], "pdf_bytes": [reference_pdf_bytes()["test24"]],
        "n_pages": pa.array([12], pa.int32())}, schema=CORPUS_SCHEMA),
        str(d / "part-00000.parquet"))
    ds = extract_dataset(str(d), concurrency=2, batch_size=4)
    row = next(r for r in ds.take_all()
               if r["doc_id"].endswith("test24"))
    golden = parse_golden_spans(f"{EXPECTED}/test24.pdf.expected/tspan-texts.txt")
    texts = [s["text"] for s in row["spans"] if s["kind"] == "text"]
    assert texts == golden


def test_page_split_reassembly_identical(ray_session, corpus_dir, tmp_path):
    """Skew path must give byte-identical spans to the whole-doc path.
    threshold=2 + pages_per_shard=3 forces every corpus doc (4-12 pp)
    through genuine multi-shard reassembly.  Where the reference PDFs are
    present, they run as a second corpus."""
    corpora = [corpus_dir]
    reference = reference_pdfs_if_present()
    if reference:
        corpora.append(_one_file_corpus(tmp_path / "reference", reference))
    for corpus in corpora:
        ds = extract_dataset(corpus, concurrency=2, batch_size=4,
                             split_pages=True, split_threshold=2,
                             pages_per_shard=3)
        split_rows = {r["doc_id"]: r["spans"] for r in ds.take_all()}
        ds2 = extract_dataset(corpus, concurrency=2, batch_size=4)
        whole_rows = {r["doc_id"]: r["spans"] for r in ds2.take_all()}
        assert split_rows.keys() == whole_rows.keys()
        for doc_id in whole_rows:
            assert split_rows[doc_id] == whole_rows[doc_id], doc_id


def test_split_covers_unknown_and_understated_page_counts(ray_session,
                                                         tmp_path):
    """The last shard of a document runs to its last page, whatever the
    corpus says its page count is: a null ``n_pages`` (one open-ended
    shard) and an understated one (2 for a 7-page document, split into
    pages [0, 1) and [1, end)) still give every page.  The split rows
    equal the whole-document rows and the generator's prediction, field
    by field."""
    unknown, understated = base_documents()[0], base_documents()[3]
    assert (unknown.n_pages, understated.n_pages) == (4, 7)
    corpus = _one_file_corpus(
        tmp_path / "corpus",
        {"unknown": unknown.pdf_bytes, "understated": understated.pdf_bytes},
        n_pages={"unknown": None, "understated": 2})
    split = {r["doc_id"]: r for r in extract_dataset(
        corpus, concurrency=2, batch_size=4, split_pages=True,
        split_threshold=1, pages_per_shard=1).take_all()}
    whole = {r["doc_id"]: r for r in extract_dataset(
        corpus, concurrency=2, batch_size=4).take_all()}
    assert split.keys() == whole.keys() == {"unknown", "understated"}
    for doc_id, base in (("unknown", unknown), ("understated", understated)):
        assert split[doc_id]["error"] == "", doc_id
        assert split[doc_id] == whole[doc_id], doc_id
        assert _predicted(split[doc_id]["spans"]) == base.spans, doc_id
        assert {s["page"] for s in split[doc_id]["spans"]} == set(
            range(base.n_pages)), doc_id


def test_extraction_paths_agree_on_base_documents(ray_session, tmp_path):
    """Differential over the generated base documents: per document, the
    whole-document, page-split (threshold 2, 3 pages per shard), ranged
    and chunked-corpus paths give the same span rows, by ``spans_digest``
    of every field, and those rows are the generator's prediction."""
    from iesl_pdf_to_text_ray.pipelines.extract_pipeline import \
        extract_pdf_dir_ranged
    from iesl_pdf_to_text_ray.sources.chunked import (read_chunked_corpus,
                                                      write_chunked_corpus)
    from iesl_pdf_to_text_ray.stages.extract import spans_digest
    bases = {d.name: d for d in base_documents()}
    corpus = _one_file_corpus(tmp_path / "corpus",
                              {n: d.pdf_bytes for n, d in bases.items()})
    pdf_dir = tmp_path / "pdfs"
    pdf_dir.mkdir()
    for name, doc in bases.items():
        (pdf_dir / f"{name}.pdf").write_bytes(doc.pdf_bytes)
    chunked = str(tmp_path / "chunked")
    write_chunked_corpus(corpus, chunked, chunk_bytes=4096)
    kw = dict(concurrency=2, batch_size=4)
    whole = {r["doc_id"]: r["spans"]
             for r in extract_dataset(corpus, **kw).take_all()}
    assert whole.keys() == bases.keys()
    for name, spans in whole.items():
        assert _predicted(spans) == bases[name].spans, name
    want = {d: spans_digest(s) for d, s in whole.items()}
    for path, ds in (
            ("split", extract_dataset(corpus, split_pages=True,
                                      split_threshold=2, pages_per_shard=3,
                                      **kw)),
            ("ranged", extract_pdf_dir_ranged(str(pdf_dir),
                                              pages_per_shard=3, **kw)),
            ("chunked", extract_dataset(read_chunked_corpus(chunked),
                                        **kw))):
        got = {r["doc_id"]: spans_digest(r["spans"]) for r in ds.take_all()}
        assert got == want, path


def test_split_tasks_shards_by_pointer(corpus_dir):
    """The split stage is metadata-only: shard rows multiply per doc but
    carry a storage pointer, never a payload copy (VERDICT r1 item 1)."""
    import functools
    import glob

    import pyarrow.parquet as pq
    from iesl_pdf_to_text_ray.stages.extract import split_tasks
    f = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))[0]
    meta = pq.read_table(f, columns=["doc_id", "n_pages"])
    meta = meta.append_column(
        "path", __import__("pyarrow").array([f] * meta.num_rows))
    out = functools.partial(split_tasks, threshold=2, pages_per_shard=3)(meta)
    assert out.num_rows > meta.num_rows          # genuine multi-shard fan-out
    assert "pdf_bytes" not in out.column_names
    per_doc = {}
    for d in out.column("doc_id").to_pylist():
        per_doc[d] = per_doc.get(d, 0) + 1
    assert max(per_doc.values()) >= 2


def _span(text, offset, kind="text"):
    return {"kind": kind, "text": text, "media_ref": "", "offset": offset,
            "x": [float(offset)], "y": 1.0, "page": 0,
            "mat": [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]}


def test_reassemble_groups_many_documents():
    """One group holding the shards of several documents (the resumable
    split run groups by partition) gives one row per document, equal to
    reassembling each document alone: shard order, offsets rebased to
    the document, shard errors joined in shard order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from iesl_pdf_to_text_ray.sources.corpus import XSPAN_STRUCT
    from iesl_pdf_to_text_ray.stages.extract import reassemble_groups
    shards = [  # (doc_id, shard, spans, error), out of order
        ("b", 1, [_span("b2", 0), _span("", 1, "media")], "PdfError: p5"),
        ("a", 0, [_span("a0", 0)], ""),
        ("c", 0, [], "PdfError: no catalog"),
        ("b", 0, [_span("b0", 0), _span("b1", 1)], ""),
        ("a", 1, [], ""),
        ("b", 2, [_span("b4", 0)], "PdfError: p9"),
        ("a", 2, [_span("a1", 0), _span("a2", 1)], ""),
    ]
    group = pa.table({
        "doc_id": [d for d, *_ in shards],
        "shard": pa.array([s for _, s, *_ in shards], pa.int32()),
        "spans": pa.array([sp for *_, sp, _ in shards],
                          pa.list_(XSPAN_STRUCT)),
        "error": [e for *_, e in shards],
        "partition_id": ["part-00000"] * len(shards)})
    got = reassemble_groups(group).to_pylist()
    alone = [reassemble_groups(
        group.filter(pc.equal(group.column("doc_id"), d))).to_pylist()[0]
        for d in ("a", "b", "c")]
    assert got == alone
    a, b, c = got
    assert [s["text"] for s in b["spans"]] == ["b0", "b1", "b2", "", "b4"]
    assert [s["offset"] for s in b["spans"]] == list(range(5))
    assert [s["x"] for s in b["spans"]] == [[0.0], [1.0], [0.0], [1.0], [0.0]]
    assert (b["n_spans"], b["n_text"], b["n_media"]) == (5, 4, 1)
    assert b["error"] == "PdfError: p5; PdfError: p9"
    assert [s["offset"] for s in a["spans"]] == [0, 1, 2]
    assert (a["n_spans"], a["error"]) == (3, "")
    assert (c["spans"], c["n_spans"], c["error"]) == (
        [], 0, "PdfError: no catalog")
    assert {r["partition_id"] for r in got} == {"part-00000"}


def test_split_pages_needs_corpus_dir(ray_session):
    """Page shards point into corpus files, so an in-memory Dataset
    cannot take the split path."""
    import ray.data
    ds = ray.data.from_items([{"doc_id": "a", "pdf_bytes": b"",
                               "n_pages": 1}])
    with pytest.raises(ValueError):
        extract_dataset(ds, split_pages=True)


def test_spans_digest_covers_every_field():
    """Every span field enters the digest, length-prefixed: neither a
    concatenation of fields nor a moved pen position collides."""
    from iesl_pdf_to_text_ray.stages.extract import spans_digest
    base = [_span("a", 0), _span("b", 1)]
    assert spans_digest(base) == spans_digest([dict(s) for s in base])
    assert spans_digest(base) != spans_digest([_span("atextb", 0)])
    for field, value in (("kind", "media"), ("media_ref", "img-0"),
                         ("offset", 5), ("x", [9.0]), ("y", 2.0),
                         ("page", 3), ("mat", [2.0] * 6)):
        moved = [dict(base[0], **{field: value}), base[1]]
        assert spans_digest(moved) != spans_digest(base), field


def test_resume_skips_completed_partitions(ray_session, corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    stats1 = extract_to_dir(corpus_dir, out_dir, concurrency=2, batch_size=4)
    assert stats1["partitions_run"] == 4
    assert stats1["n_errors"] == 0
    clean = {r["doc_id"]: r["spans"]
             for r in read_output(out_dir).take_all()}
    assert len(clean) == 12

    # simulate a killed run: two partitions lose data+lineage
    victims = sorted(lineage.completed_partitions(out_dir))[:2]
    for pid in victims:
        os.remove(lineage.data_path(out_dir, pid))
        os.remove(lineage.lineage_path(out_dir, pid))
    survivors = {pid: os.path.getmtime(lineage.data_path(out_dir, pid))
                 for pid in lineage.completed_partitions(out_dir)}
    assert len(survivors) == 2

    stats2 = extract_to_dir(corpus_dir, out_dir, concurrency=2, batch_size=4)
    assert stats2["partitions_skipped"] == 2
    assert stats2["partitions_run"] == 2
    # untouched partitions were not rewritten
    for pid, mtime in survivors.items():
        assert os.path.getmtime(lineage.data_path(out_dir, pid)) == mtime
    resumed = {r["doc_id"]: r["spans"]
               for r in read_output(out_dir).take_all()}
    assert resumed == clean

    # idempotent third run: nothing to do
    stats3 = extract_to_dir(corpus_dir, out_dir)
    assert stats3["partitions_run"] == 0


def test_remove_stray_temps(tmp_path):
    """Temp files of a writer killed mid-partition are swept; finished
    partitions are kept."""
    import pyarrow as pa
    out_dir = str(tmp_path / "out")
    lineage.write_partition(out_dir, "part-00000",
                            pa.table({"x": [1]}), {"n_docs": 1})
    strays = ["part-part-00001.parquet.tmp.123",
              "_lineage/partition=part-00001.json.tmp.123"]
    for name in strays:
        (tmp_path / "out" / name).write_bytes(b"partial")
    assert sorted(lineage.remove_stray_temps(out_dir)) == sorted(
        os.path.basename(n) for n in strays)
    assert not any((tmp_path / "out" / n).exists() for n in strays)
    assert lineage.completed_partitions(out_dir) == {"part-00000"}


def test_monster_document_default_split(ray_session, tmp_path):
    """A genuinely pathological 180-page document (writer-merged corpus
    copies) exceeds the *default* SPLIT_PAGE_THRESHOLD and must shard,
    reassemble, and match the whole-doc path span-for-span."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.pdf.extractor import count_pages
    from iesl_pdf_to_text_ray.pdf.writer import merge_pdfs
    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    monster = merge_pdfs([d.pdf_bytes for d in base_documents()] * 6)
    n_pages = count_pages(monster)
    assert n_pages == 180  # > default threshold of 64
    d = tmp_path / "monster"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": ["monster"], "pdf_bytes": [monster],
        "n_pages": pa.array([n_pages], pa.int32())}, schema=CORPUS_SCHEMA),
        str(d / "part-00000.parquet"))
    split = extract_dataset(str(d), concurrency=2, batch_size=4,
                            split_pages=True).take_all()
    whole = extract_dataset(str(d), concurrency=2, batch_size=4).take_all()
    assert len(split) == len(whole) == 1
    assert split[0]["error"] == "" and whole[0]["error"] == ""
    assert split[0]["spans"] == whole[0]["spans"]
    assert split[0]["n_spans"] > 10000


def test_encrypted_monster_through_split(ray_session, tmp_path):
    """Feature interaction: an AES-encrypted 60-page merged document
    through the pointer-resolved skew-split path must equal the plain
    whole-doc extraction."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.pdf.extractor import count_pages
    from iesl_pdf_to_text_ray.pdf.writer import merge_pdfs, rewrite_pdf
    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    bases = base_documents()
    plain = merge_pdfs([bases[0].pdf_bytes, bases[3].pdf_bytes] * 3)
    enc = rewrite_pdf(plain, encrypt="aesv2")
    n_pages = count_pages(enc)
    assert n_pages == 33
    d = tmp_path / "encmonster"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": ["m-enc"], "pdf_bytes": [enc],
        "n_pages": pa.array([n_pages], pa.int32())}, schema=CORPUS_SCHEMA),
        str(d / "part-00000.parquet"))
    split = extract_dataset(str(d), concurrency=2, batch_size=4,
                            split_pages=True, split_threshold=8,
                            pages_per_shard=5).take_all()
    assert split[0]["error"] == ""
    from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
    expected = [(k, t, m) for k, t, m, *_ in extract_spans(plain)]
    got = [(s["kind"], s["text"], s["media_ref"])
           for s in split[0]["spans"]]
    assert got == expected


def test_resume_with_page_split(ray_session, corpus_dir, tmp_path):
    """Resumable output through the skew-split path: partition lineage
    rides the shard fan-out and the doc_id reassembly."""
    out_dir = str(tmp_path / "out_split")
    stats = extract_to_dir(corpus_dir, out_dir, concurrency=2,
                           batch_size=4, split_pages=True,
                           split_threshold=2, pages_per_shard=3)
    assert stats["partitions_run"] == 4 and stats["n_errors"] == 0
    split_out = {r["doc_id"]: r["spans"]
                 for r in read_output(out_dir).take_all()}
    assert len(split_out) == 12
    # identical content to the whole-doc resumable path
    out2 = str(tmp_path / "out_whole")
    extract_to_dir(corpus_dir, out2, concurrency=2, batch_size=4)
    whole = {r["doc_id"]: r["spans"]
             for r in read_output(out2).take_all()}
    assert split_out == whole
    # second run: everything skipped
    stats2 = extract_to_dir(corpus_dir, out_dir, split_pages=True,
                            split_threshold=2, pages_per_shard=3)
    assert stats2["partitions_run"] == 0


def test_resume_page_split_empty_shard(ray_session, tmp_path):
    """An input shard with no rows completes on the page-split path too:
    it is written as an empty partition with its lineage record, so the
    next run reads nothing again."""
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    corpus = _one_file_corpus(tmp_path / "corpus", {
        f"doc-{i}": doc.pdf_bytes for i, doc in enumerate(base_documents())})
    pq.write_table(CORPUS_SCHEMA.empty_table(),
                   os.path.join(corpus, "part-00001.parquet"))
    out_dir = str(tmp_path / "out")
    kw = dict(concurrency=2, batch_size=4, split_pages=True,
              split_threshold=2, pages_per_shard=3)
    stats = extract_to_dir(corpus, out_dir, **kw)
    assert stats["partitions_run"] == 2 and stats["n_docs"] == 4
    assert lineage.completed_partitions(out_dir) == {"part-00000",
                                                     "part-00001"}
    assert pq.read_table(lineage.data_path(out_dir, "part-00001")
                         ).num_rows == 0
    assert extract_to_dir(corpus, out_dir, **kw)["partitions_run"] == 0


def test_truncation_fuzz_never_kills_block(ray_session, tmp_path):
    """Deterministic truncation fuzz: PDFs cut at arbitrary offsets (and
    byte-corrupted) must flow through the pipeline as quarantined or
    partial rows — never a raised exception, never a dead block."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    # doc-id prefix -> source PDF; the reference paper runs where present
    bases = {"": base_documents()[0].pdf_bytes}
    bases.update((f"{n}-", b) for n, b in reference_pdfs_if_present().items()
                 if n == "1301.4293")
    rows = {"doc_id": [], "pdf_bytes": [], "n_pages": []}
    for prefix, base in bases.items():
        cuts = [len(base) // d for d in (2, 3, 5, 9, 17, 33)] + [64, 1024]
        for i, cut in enumerate(cuts):
            rows["doc_id"].append(f"{prefix}trunc-{i}")
            rows["pdf_bytes"].append(base[:cut])
            rows["n_pages"].append(1)
        for i in range(4):  # bit-flip corruption in the body
            data = bytearray(base)
            for off in range(100 + i * 997, len(data), 4099):
                data[off] ^= 0xFF
            rows["doc_id"].append(f"{prefix}corrupt-{i}")
            rows["pdf_bytes"].append(bytes(data))
            rows["n_pages"].append(4)
    d = tmp_path / "fuzz"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": rows["doc_id"],
        "pdf_bytes": rows["pdf_bytes"],
        "n_pages": pa.array(rows["n_pages"], pa.int32())},
        schema=CORPUS_SCHEMA), str(d / "part-00000.parquet"))
    out = extract_dataset(str(d), concurrency=2, batch_size=4).take_all()
    assert len(out) == len(rows["doc_id"])  # nothing vanished or raised
    # the same corpus through the split path must also survive
    out2 = extract_dataset(str(d), concurrency=2, batch_size=4,
                           split_pages=True, split_threshold=2).take_all()
    assert len(out2) == len(rows["doc_id"])


def test_poison_document_quarantined(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from iesl_pdf_to_text_ray.sources.corpus import CORPUS_SCHEMA
    table = pa.table({
        "doc_id": ["good", "poison", "empty"],
        "pdf_bytes": [base_documents()[0].pdf_bytes,
                      b"%PDF-1.4 garbage no xref", b""],
        "n_pages": pa.array([4, 1, 0], pa.int32())}, schema=CORPUS_SCHEMA)
    d = tmp_path / "poison"
    d.mkdir()
    pq.write_table(table, str(d / "part-00000.parquet"))
    rows = {r["doc_id"]: r
            for r in extract_dataset(str(d), batch_size=4).take_all()}
    assert rows["good"]["error"] == "" and rows["good"]["n_spans"] > 0
    assert rows["poison"]["error"] != "" and rows["poison"]["n_spans"] == 0
    assert rows["empty"]["error"] != ""


def test_raw_pdf_file_source(ray_session, tmp_path):
    """read_pdf_files: a directory tree of raw PDFs becomes the corpus
    schema and flows through the extraction pipeline."""
    from iesl_pdf_to_text_ray.sources.corpus import read_pdf_files
    bases = base_documents()
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.pdf").write_bytes(bases[0].pdf_bytes)
    (tmp_path / "sub" / "b.pdf").write_bytes(bases[3].pdf_bytes)
    (tmp_path / "ignore.txt").write_text("not a pdf")
    ds = read_pdf_files(str(tmp_path))
    rows = {r["doc_id"]: r for r in ds.take_all()}
    assert set(rows) == {"a", "sub/b"}
    assert rows["a"]["n_pages"] == 4 and rows["sub/b"]["n_pages"] == 7
    out = extract_dataset(ds, concurrency=2, batch_size=2).take_all()
    assert {r["doc_id"] for r in out} == {"a", "sub/b"}
    assert all(r["error"] == "" and r["n_spans"] > 100 for r in out)


def test_relative_doc_path_cloud_uris():
    """Cloud doc-ids must be relative to the input dir even though
    read_binary_files yields pyarrow-resolved paths with the scheme
    stripped (s3://bucket/dir/x.pdf -> bucket/dir/x.pdf)."""
    from iesl_pdf_to_text_ray.sources.corpus import relative_doc_path
    # scheme-stripped resolved path (what pyarrow actually returns)
    assert relative_doc_path("bucket/corpus/a/b.pdf",
                             "s3://bucket/corpus") == "a/b.pdf"
    # full-URI resolved path (defensive: some filesystems keep the scheme)
    assert relative_doc_path("s3://bucket/corpus/a/b.pdf",
                             "s3://bucket/corpus/") == "a/b.pdf"
    # non-matching prefix falls through unchanged
    assert relative_doc_path("other/x.pdf",
                             "s3://bucket/corpus") == "other/x.pdf"
    # local paths use relpath
    assert relative_doc_path("/data/in/sub/c.pdf", "/data/in") == "sub/c.pdf"
