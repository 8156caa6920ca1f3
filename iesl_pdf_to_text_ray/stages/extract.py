"""The extraction stage: stateful actor-pool map_batches over Arrow batches.

One callable-class instance per actor; the static font tables (AGL, Appendix
D encodings, standard-14 metrics — ~10k entries) are loaded once per actor in
``__init__`` (SURVEY.md §4.2), never per batch.  Rows are processed with a
per-row error quarantine: a malformed PDF yields an empty span list and an
``error`` string instead of raising, so one poison document can never kill a
block (the reference has no equivalent; its CLI dies on the first bad file).

One class, ``ExtractDocs``, parses every PDF row: a whole document and a
page-range shard run the same code.  Skew handling for pathological
multi-hundred-page documents: ``split_tasks`` fans a document out to
page-range shards *before* the parse, and ``reassemble_groups`` restores
reading order by rebasing each shard's local span offsets — the one
shuffle in the pipeline, keyed by doc_id (or, on the resumable run, by
partition_id: one group then holds many documents).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..sources.corpus import XSPAN_STRUCT
from ..pdf.extractor import extract_spans

SPLIT_PAGE_THRESHOLD = 64   # docs beyond this get page-level fan-out
PAGES_PER_SHARD = 16

OUT_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(XSPAN_STRUCT)),
    ("n_spans", pa.int32()),
    ("n_text", pa.int32()),
    ("n_media", pa.int32()),
    ("error", pa.string()),
])


def _extract_row(data, page_range=None) -> tuple[list[dict], str]:
    """One document, or one page range of it, -> (span rows, error).  The
    per-row quarantine: a parse failure yields no spans and the error."""
    try:
        spans = extract_spans(data, page_range)
    except Exception as e:
        return [], f"{type(e).__name__}: {e}"[:500]
    return [{"kind": k, "text": t, "media_ref": m, "offset": o,
             "x": xs, "y": y, "page": pg, "mat": mt}
            for k, t, m, o, xs, y, pg, mt in spans], ""


class ExtractDocs:
    """map_batches(ExtractDocs, batch_format='pyarrow', concurrency=N) over
    PDF rows of every shape.  A row carries ``doc_id`` and either the
    payload (``pdf_bytes``) or a pointer to it (``path``), and optionally
    a page range ``page_start``/``page_end`` (a null end runs to the last
    page).  ``shard`` and ``partition_id`` pass through, after
    ``OUT_SCHEMA``'s columns.

    Pointer resolution: corpus-file pointers are resolved with one
    column-pruned, doc_id-filtered parquet read per (file, batch) — the
    late-materialization pattern that keeps payload bytes out of the
    shuffle; ``.pdf`` pointers are opened with range reads (``_open_pdf``).
    The actor keeps only the payloads the current batch needs, so a
    document whose shards span two consecutive batches is read once.
    """

    def __init__(self):
        # warm the per-actor static tables once (font data JSON)
        from ..pdf import fonts
        fonts.glyph_list()
        fonts.encodings()
        fonts.std_fonts()
        fonts.metrics()
        self._blob_cache: dict[tuple[str, str], bytes] = {}

    def _resolve_payloads(self, ids: list, paths: list) -> list:
        import pyarrow.parquet as pq
        keys = list(zip(paths, ids))
        wanted = set(keys)
        # bound actor memory: keep only entries this batch still needs
        cache = {k: v for k, v in self._blob_cache.items() if k in wanted}
        need: dict[str, set] = {}
        for path, doc in keys:
            if not path.endswith(".pdf") and (path, doc) not in cache:
                need.setdefault(path, set()).add(doc)
        for path, docs in need.items():
            t = pq.read_table(path, columns=["doc_id", "pdf_bytes"],
                              filters=[("doc_id", "in", sorted(docs))])
            cache.update(((path, d), b) for d, b in zip(
                t.column("doc_id").to_pylist(),
                t.column("pdf_bytes").to_pylist()))
        self._blob_cache = cache
        return [_open_pdf(p) if p.endswith(".pdf") else cache.get((p, d), b"")
                for p, d in keys]

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = batch.column_names
        ids = batch.column("doc_id").to_pylist()
        data = (batch.column("pdf_bytes").to_pylist()
                if "pdf_bytes" in names else
                self._resolve_payloads(ids, batch.column("path").to_pylist()))
        ranges = (zip(batch.column("page_start").to_pylist(),
                      batch.column("page_end").to_pylist())
                  if "page_start" in names else [None] * len(ids))
        out = {name: [] for name in OUT_SCHEMA.names}
        for doc_id, doc, page_range in zip(ids, data, ranges):
            spans, err = _extract_row(doc, page_range)
            out["doc_id"].append(doc_id)
            out["spans"].append(spans)
            out["n_spans"].append(len(spans))
            out["n_text"].append(sum(s["kind"] == "text" for s in spans))
            out["n_media"].append(sum(s["kind"] == "media" for s in spans))
            out["error"].append(err)
        table = pa.Table.from_pydict(out, schema=OUT_SCHEMA)
        for c in ("shard", "partition_id"):
            if c in names:
                table = table.append_column(c, batch.column(c))
        return table


# perfbench/layers.py still imports the pre-merge name
ExtractShards = ExtractDocs


# ---- page-level skew splitting ---------------------------------------------

def split_tasks(batch: pa.Table, *,
                threshold: int = SPLIT_PAGE_THRESHOLD,
                pages_per_shard: int = PAGES_PER_SHARD) -> pa.Table:
    """(doc_id, path, n_pages[, partition_id]) rows -> one row per
    page-range shard: (doc_id, shard, page_start, page_end, path
    [, partition_id]).  A document at or below ``threshold`` pages is the
    one shard (0, null); the last shard of a split document is open-ended
    too, so an unknown or understated ``n_pages`` never drops a page.
    Shard rows carry only the storage pointer, so the PDF bytes never
    enter the split stage or the shuffle; ``ExtractDocs`` reads them from
    ``path``.  ``threshold`` is a parameter (bound via functools.partial,
    which pickles by value — a module-global override on the driver would
    NOT propagate to workers)."""
    keep = ["doc_id", "path"] + [c for c in ("partition_id",)
                                 if c in batch.column_names]
    out = {c: [] for c in keep + ["shard", "page_start", "page_end"]}
    for row in batch.select(keep + ["n_pages"]).to_pylist():
        n_pages = row["n_pages"] or 0   # unknown or empty: one shard
        starts = (list(range(0, n_pages, pages_per_shard))
                  if n_pages > threshold else []) or [0]
        for i, (a, b) in enumerate(zip(starts, starts[1:] + [None])):
            for c in keep:
                out[c].append(row[c])
            out["shard"].append(i)
            out["page_start"].append(a)
            out["page_end"].append(b)
    return pa.table({
        "doc_id": pa.array(out["doc_id"], pa.string()),
        "shard": pa.array(out["shard"], pa.int32()),
        "page_start": pa.array(out["page_start"], pa.int32()),
        "page_end": pa.array(out["page_end"], pa.int32()),
        **{c: pa.array(out[c], pa.string()) for c in keep[1:]}})


def _open_pdf(path: str):
    """A raw-file pointer as a range-fetched lazy buffer (the reference's
    ChunkedStream analog): the shard never holds the whole payload, only
    an LRU of chunks plus the objects its page range touches."""
    from ..pdf.chunked_data import ChunkedData
    try:
        return ChunkedData.from_file(path)
    except OSError:
        return b""


def reassemble_groups(group: pa.Table) -> pa.Table:
    """map_groups over shard rows of one or more documents -> one row per
    doc_id (in doc_id order): shards in order, span lists concatenated,
    offsets rebased to the document, shard errors joined.

    Arrow-native: the sort, span concat (list flatten) and offset rebase
    all run as C kernels — span structs never materialize as Python dicts
    (they carry per-glyph x arrays, so the to_pylist round trip was the
    hot cost at scale)."""
    import numpy as np
    import pyarrow.compute as pc
    group = group.sort_by([("doc_id", "ascending"), ("shard", "ascending")])
    ids = group.column("doc_id").to_pylist()
    # row bounds of each document's run of shards
    bounds = [i for i in range(len(ids) + 1)
              if i in (0, len(ids)) or ids[i] != ids[i - 1]]
    first = bounds[:-1]
    spans_col = group.column("spans").combine_chunks()
    n_per_shard = pc.list_value_length(spans_col).to_numpy(
        zero_copy_only=False)
    # span bounds of each document
    starts = np.concatenate([[0], np.cumsum(n_per_shard)])[bounds]
    flat = spans_col.flatten()   # (doc_id, shard) order == reading order
    n = len(flat)
    kind = flat.field("kind")
    offsets = np.arange(n) - np.repeat(starts[:-1], np.diff(starts))
    spans = pa.StructArray.from_arrays(
        [kind, flat.field("text"), flat.field("media_ref"),
         pa.array(offsets, pa.int32()),
         flat.field("x"), flat.field("y"), flat.field("page"),
         flat.field("mat")],
        fields=list(XSPAN_STRUCT))

    def per_doc(value: str):
        # documents' count of spans of kind ``value``
        hits = np.concatenate([[0], np.cumsum(
            pc.equal(kind, value).to_numpy(zero_copy_only=False))])
        return pa.array(np.diff(hits[starts]), pa.int32())

    errors = group.column("error").to_pylist()
    cols = {
        "doc_id": group.column("doc_id").take(first),
        "spans": pa.ListArray.from_arrays(pa.array(starts, pa.int32()),
                                          spans),
        "n_spans": pa.array(np.diff(starts), pa.int32()),
        "n_text": per_doc("text"),
        "n_media": per_doc("media"),
        "error": pa.array(["; ".join(e for e in errors[a:b] if e)
                           for a, b in zip(bounds, bounds[1:])],
                          pa.string())}
    if "partition_id" in group.column_names:
        cols["partition_id"] = group.column("partition_id").take(first)
    return pa.table(cols)


def spans_digest(spans) -> str:
    """Order-sensitive digest of a span sequence (parity checks): every
    field of every span, name and value, each length-prefixed, so two
    different sequences never hash the same bytes."""
    h = hashlib.sha256()
    for s in spans:
        for name, value in s.items():
            for part in (name.encode(), repr(value).encode()):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
    return h.hexdigest()[:16]
