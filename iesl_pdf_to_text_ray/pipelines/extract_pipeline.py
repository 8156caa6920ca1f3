"""The flagship pipeline: PDF corpus table -> interleaved span table.

Ray-Data-native topology (streaming end to end, SURVEY.md §7):

  extract_dataset:
    read_parquet(corpus shards)
      -> map_batches(ExtractDocs, actor pool)       # stateful parse stage
  extract_to_dir (resumable):
    from_items(pending shard paths)
      -> map_batches(ExtractPartitions, actor pool) # parse one shard, write
                                                    # its parquet + lineage
  page-split runs (split_pages=True; the ranged raw-file path) share one
  chain, _sharded, over pointer-only (doc_id, path, n_pages) rows:
    split_tasks -> map_batches(ExtractDocs)         # fan out, read, parse
      -> groupby(doc_id).map_groups(reassemble)     # the one shuffle
    [extract_to_dir: groupby(partition_id) reassembles and writes at once]

Resume: completed partitions are anti-joined away from the input file list
before anything is read (state/lineage.py).
"""

from __future__ import annotations

import functools
import glob
import os

import pyarrow as pa

from ..stages.extract import (OUT_SCHEMA, PAGES_PER_SHARD,
                              SPLIT_PAGE_THRESHOLD, ExtractDocs,
                              reassemble_groups, spans_digest, split_tasks)
from ..state import lineage


def _input_shards(corpus_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))


def _sharded(ds, key: str, fn, *, threshold: int, pages_per_shard: int,
             batch_size: int, concurrency):
    """The page-split chain over (doc_id, path, n_pages[, partition_id])
    rows: split_tasks, ExtractDocs, then groupby(``key``).map_groups(``fn``)
    — ``fn`` reassembles a group's shard rows (``reassemble_groups``).
    The split knobs are bound into the worker UDF via functools.partial
    (pickled by value — module-global overrides would not reach
    workers)."""
    ds = ds.map_batches(
        functools.partial(split_tasks, threshold=threshold,
                          pages_per_shard=pages_per_shard),
        batch_format="pyarrow", batch_size=batch_size)
    ds = ds.map_batches(ExtractDocs, batch_format="pyarrow",
                        batch_size=batch_size, concurrency=concurrency)
    return ds.groupby(key).map_groups(fn, batch_format="pyarrow")


def extract_dataset(corpus_dir_or_ds, *, concurrency=(1, 8),
                    batch_size: int = 8, split_pages: bool = False,
                    split_threshold: int = SPLIT_PAGE_THRESHOLD,
                    pages_per_shard: int = PAGES_PER_SHARD):
    """Build the lazy extraction Dataset (no output writing).

    ``corpus_dir_or_ds`` is a corpus directory or, for the whole-document
    path only, a Dataset of (doc_id, pdf_bytes) rows: the page split reads
    only (doc_id, n_pages) and points its shards into the corpus files.
    """
    import ray.data
    is_dir = isinstance(corpus_dir_or_ds, str)
    if not split_pages:
        ds = (ray.data.read_parquet(_input_shards(corpus_dir_or_ds))
              if is_dir else corpus_dir_or_ds)
        return ds.map_batches(ExtractDocs, batch_format="pyarrow",
                              batch_size=batch_size, concurrency=concurrency)
    if not is_dir:
        raise ValueError("split_pages=True needs a corpus directory: "
                         "page shards point into its parquet files")
    # metadata-only read for the split decision: the payload column never
    # enters the split stage or the doc_id shuffle
    ds = ray.data.read_parquet(_input_shards(corpus_dir_or_ds),
                               columns=["doc_id", "n_pages"],
                               include_paths=True)
    return _sharded(ds, "doc_id", reassemble_groups,
                    threshold=split_threshold,
                    pages_per_shard=pages_per_shard, batch_size=batch_size,
                    concurrency=concurrency)


def extract_to_dir(corpus_dir: str, out_dir: str, *, concurrency=(1, 8),
                   batch_size: int = 8, split_pages: bool = False,
                   split_threshold: int = SPLIT_PAGE_THRESHOLD,
                   pages_per_shard: int = PAGES_PER_SHARD) -> dict:
    """Resumable run: skip completed partitions, write parquet + lineage.

    Without the skew split, one actor task parses one pending input shard
    and writes it at once, so partitions complete one by one while the
    run goes on.  ``split_pages=True`` routes pathological documents
    through the page-level skew split while keeping per-partition resume:
    the partition id (derived from the input file) rides along the shard
    rows, and one groupby(partition_id) both reassembles each partition's
    documents and writes the partition, so a killed run still skips
    finished partitions."""
    import pyarrow.parquet as pq
    import ray.data

    os.makedirs(out_dir, exist_ok=True)
    lineage.remove_stray_temps(out_dir)
    shards = _input_shards(corpus_dir)
    done = lineage.completed_partitions(out_dir)
    pending = [f for f in shards
               if lineage.partition_id_for(f) not in done]
    stats = {"partitions_total": len(shards),
             "partitions_skipped": len(shards) - len(pending),
             "partitions_run": len(pending)}
    if not pending:
        return stats

    if not split_pages:
        # one task per pending shard: it parses the shard and writes its
        # parquet + lineage itself, so each partition lands as soon as its
        # own documents are parsed (a killed run keeps what it finished)
        ds = ray.data.from_items([{"path": p} for p in pending],
                                 override_num_blocks=len(pending))
        manifest = ds.map_batches(
            ExtractPartitions, batch_format="pyarrow", batch_size=1,
            concurrency=concurrency,
            fn_constructor_kwargs={"out_dir": out_dir,
                                   "batch_size": batch_size}).take_all()
        return _add_manifest(stats, manifest)

    def tag_partition(batch: pa.Table) -> pa.Table:
        pids = [lineage.partition_id_for(p)
                for p in batch.column("path").to_pylist()]
        return batch.append_column("partition_id",
                                   pa.array(pids, pa.string()))

    def write_group(group: pa.Table) -> pa.Table:
        docs = reassemble_groups(group)
        pid = docs.column("partition_id")[0].as_py()
        return _write_partition(out_dir, pid,
                                docs.drop_columns(["partition_id"]))

    # a shard with no rows forms no group: it completes here, as an empty
    # partition, as on the whole-document path
    empty = [f for f in pending if pq.read_metadata(f).num_rows == 0]
    manifest = [_write_partition(out_dir, lineage.partition_id_for(f),
                                 OUT_SCHEMA.empty_table()).to_pylist()[0]
                for f in empty]
    pending = [f for f in pending if f not in empty]
    if pending:
        ds = ray.data.read_parquet(pending, columns=["doc_id", "n_pages"],
                                   include_paths=True)
        manifest += _sharded(
            ds.map_batches(tag_partition, batch_format="pyarrow"),
            "partition_id", write_group, threshold=split_threshold,
            pages_per_shard=pages_per_shard, batch_size=batch_size,
            concurrency=concurrency).take_all()
    return _add_manifest(stats, manifest)


def _write_partition(out_dir: str, pid: str, table: pa.Table) -> pa.Table:
    """Write one partition's span rows + lineage record; returns its
    one-row manifest."""
    spans_col = table.column("spans").to_pylist()
    digest = spans_digest([s for row in spans_col for s in row])
    n_docs = table.num_rows
    n_spans = sum(len(r) for r in spans_col)
    n_errors = sum(1 for e in table.column("error").to_pylist() if e)
    lineage.write_partition(out_dir, pid, table,
                            {"n_docs": n_docs, "n_spans": n_spans,
                             "n_errors": n_errors, "digest": digest})
    return pa.table({"partition_id": pa.array([pid], pa.string()),
                     "n_docs": pa.array([n_docs], pa.int64()),
                     "n_spans": pa.array([n_spans], pa.int64()),
                     "n_errors": pa.array([n_errors], pa.int64())})


def _add_manifest(stats: dict, manifest: list[dict]) -> dict:
    stats["n_docs"] = sum(r["n_docs"] for r in manifest)
    stats["n_spans"] = sum(r["n_spans"] for r in manifest)
    stats["n_errors"] = sum(r["n_errors"] for r in manifest)
    return stats


class ExtractPartitions:
    """map_batches(ExtractPartitions, batch_size=1, ...) over rows of
    ``path``: runs ``ExtractDocs`` over each input shard in batches of
    ``batch_size`` documents and writes it as one output partition."""

    def __init__(self, out_dir: str, batch_size: int):
        self._extract = ExtractDocs()
        self._out_dir = out_dir
        self._batch_size = batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq
        out = []
        for path in batch.column("path").to_pylist():
            parts = [self._extract(pa.Table.from_batches([b]))
                     for b in pq.ParquetFile(path).iter_batches(
                         batch_size=self._batch_size,
                         columns=["doc_id", "pdf_bytes"])]
            # an empty shard still completes, as an empty partition
            out.append(_write_partition(
                self._out_dir, lineage.partition_id_for(path),
                pa.concat_tables(parts or [OUT_SCHEMA.empty_table()])))
        return pa.concat_tables(out)


def read_output(out_dir: str):
    import ray.data
    files = sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    return ray.data.read_parquet(files)


def extract_pdf_dir_ranged(input_dir: str, *, concurrency=(1, 8),
                           batch_size: int = 4,
                           split_threshold: int = 0,
                           pages_per_shard: int = PAGES_PER_SHARD):
    """Raw ``*.pdf`` tree -> span table via range reads: the ChunkedStream
    analog (reference pdf.combined.js:4614 ChunkedStream / :49446
    NetworkPdfManager) lifted to the Ray pipeline.  Rows carry only
    (doc_id, path, n_pages); page-range shards open the file through
    ``ChunkedData`` and fetch just the byte ranges their objects live in
    — one multi-GB PDF never resides whole in any actor (peak residency
    = LRU cap + largest object + its shard's decoded pages).

    ``split_threshold=0`` routes every document through the page-split
    path, which is the point of ranged mode; raise it to parse small
    documents whole (still via ChunkedData, still memory-bounded).

    The directory variant is test/CLI convenience: it globs the tree
    on the driver and delegates to ``extract_pdf_manifest_ranged`` —
    the scale path, where the listing is itself a Dataset (e.g.
    ``read_parquet`` of a crawl manifest) and never touches the driver.
    """
    import ray.data

    from ..sources.corpus import relative_doc_path

    paths = sorted(glob.glob(os.path.join(input_dir, "**", "*.pdf"),
                             recursive=True))
    items = [{"doc_id": os.path.splitext(
                  relative_doc_path(p, input_dir))[0],
              "path": p} for p in paths]
    return extract_pdf_manifest_ranged(
        ray.data.from_items(items), concurrency=concurrency,
        batch_size=batch_size, split_threshold=split_threshold,
        pages_per_shard=pages_per_shard)


def extract_pdf_manifest_ranged(manifest, *, concurrency=(1, 8),
                                batch_size: int = 4,
                                split_threshold: int = 0,
                                pages_per_shard: int = PAGES_PER_SHARD):
    """Manifest-driven ranged extraction: ``manifest`` is a
    ray.data.Dataset with (doc_id: string, path: string) rows — a
    parquet listing table at real scale, so file enumeration is
    distributed and resumable like everything else; no driver-side
    glob anywhere in the hot path.  Page counting, skew splitting,
    range-read parsing and reassembly are the same stages as the
    directory variant."""
    from ..pdf.chunked_data import ChunkedData
    from ..pdf.extractor import count_pages

    def add_pages(batch: pa.Table) -> pa.Table:
        # O(1) fetches per file: header + trailer + root /Count chunks;
        # an uncountable file is one open-ended shard (null n_pages)
        pages = []
        for p in batch.column("path").to_pylist():
            try:
                pages.append(count_pages(ChunkedData.from_file(p)))
            except Exception:
                pages.append(None)
        return batch.append_column("n_pages",
                                   pa.array(pages, pa.int32()))

    ds = manifest.map_batches(add_pages, batch_format="pyarrow",
                              batch_size=batch_size)
    return _sharded(ds, "doc_id", reassemble_groups,
                    threshold=split_threshold,
                    pages_per_shard=pages_per_shard, batch_size=batch_size,
                    concurrency=concurrency)
