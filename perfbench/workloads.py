"""The workloads: their seeded inputs, one pass through the program's
public entry point, and the check of every output against a computation
made apart from the program.

A timed workload (``TIMED``) has:

- ``prepare(work_dir, seed)``: write the inputs and the expected outputs;
- ``run_pass(on_first)``: one pass over the whole input, fully
  materialized in this process; calls ``on_first()`` when the first output
  batch arrives; returns the outputs;
- ``check(outputs)``: ``(attempted, failed, reasons)`` for one pass, where
  ``failed`` counts error rows and outputs that failed the check;
- ``items``: pages or documents in one pass;
- ``setup_pass(on_first)``: what a set-up runs after ``ray.init``: the
  same pipeline over one input file.

``pdf_skew`` has the same interface and the query set (``QuerySet``) only
its inputs and expected outputs: both run in traced runs only.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import pdfgen
import tables

# ---- PDF corpora ----------------------------------------------------------


def _page_counts(rng: random.Random, n_docs: int, total: int, lo: int,
                 hi: int) -> list[int]:
    """``n_docs`` page counts in [lo, hi], log-uniform, summing to
    ``total`` exactly (so every seed has the same number of pages)."""
    counts = [int(round(lo * (hi / lo) ** rng.random())) for _ in range(n_docs)]
    while sum(counts) != total:
        i = rng.randrange(n_docs)
        step = 1 if sum(counts) < total else -1
        if lo <= counts[i] + step <= hi:
            counts[i] += step
    return counts


def _write_pdf_corpus(out_dir: str, docs: list[tuple[str, bytes, int]],
                      n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = (len(docs) + n_files - 1) // n_files
    for k in range(n_files):
        part = docs[k * per:(k + 1) * per]
        if not part:
            break
        pq.write_table(pa.table({
            "doc_id": pa.array([d[0] for d in part], pa.string()),
            "pdf_bytes": pa.array([d[1] for d in part], pa.binary()),
            "n_pages": pa.array([d[2] for d in part], pa.int32())}),
            os.path.join(out_dir, f"part-{k:05d}.parquet"))


class _Tally:
    """Per-pass outcome: a row with an error and an output that fails its
    check both count as a failed operation."""

    def __init__(self):
        self.seen: set = set()
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, key, msg: str) -> None:
        self.failed += 1
        self.reasons.append(f"{key}: {msg[:200]}")

    def finish(self, expected) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons); a missing output has failed."""
        missing = len(set(expected) - self.seen)
        if missing:
            self.fail(f"{missing} outputs", "missing")
            self.failed += missing - 1
        return len(expected), self.failed, self.reasons


def _warm_copy(corpus_dir: str) -> str:
    """A one-file copy of a corpus: set-up runs the pipeline on it, so a
    set-up costs its first batch, not a whole pass."""
    warm = corpus_dir + "-warm"
    os.makedirs(warm)
    shutil.copy(os.path.join(corpus_dir, "part-00000.parquet"), warm)
    return warm


def _collect(ds, on_first) -> pa.Table:
    batches = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if not batches:
            on_first()
        batches.append(b)
    return pa.concat_tables(batches) if batches else pa.table({})


SETTLE_LIMIT_S = 10.0


def settle(ncpu: int) -> float:
    """Let the previous pass's actors go before the next pass starts.

    A finished Ray Data execution keeps its actor pool, and the CPUs the
    actors hold, until Python's cyclic garbage collector frees the
    executor; left to chance, a pass sometimes starts with a CPU still
    taken.  Collect, then wait (at most ``SETTLE_LIMIT_S``) until every
    CPU of the session is free.  Returns the seconds waited."""
    import ray
    gc.collect()
    t0 = time.perf_counter()
    while (ray.available_resources().get("CPU", 0) < ncpu
           and time.perf_counter() - t0 < SETTLE_LIMIT_S):
        time.sleep(0.02)
    return time.perf_counter() - t0


def check_pdf_output(expected: dict, out: pa.Table):
    """Each document's (kind, text, media_ref, offset) sequence equals the
    generator's prediction, and each span's count of -1 entries in x
    equals the spaces the prediction inserted."""
    tally = _Tally()
    if not out.num_rows:
        return tally.finish(expected)
    spans = out.column("spans").combine_chunks()
    offs = spans.offsets.to_numpy()
    offs = offs - offs[0]
    flat = spans.flatten()
    fields = dict(zip((f.name for f in flat.type), flat.flatten()))
    cols = [fields[f].to_pylist()
            for f in ("kind", "text", "media_ref", "offset")]
    # inserted-space sentinels per span, counted column-wise
    xs = fields["x"]
    x_off = xs.offsets.to_numpy()
    x_off = x_off - x_off[0]
    minus = np.concatenate([[0], np.cumsum(
        xs.flatten().to_numpy(zero_copy_only=False) == -1.0)])
    n_inserted = (minus[x_off[1:]] - minus[x_off[:-1]]).tolist()
    for i, (doc_id, err) in enumerate(zip(
            out.column("doc_id").to_pylist(),
            out.column("error").to_pylist())):
        want = expected.get(doc_id)
        a, b = offs[i], offs[i + 1]
        if want is None or doc_id in tally.seen:
            tally.fail(doc_id, "unexpected or repeated doc_id")
        elif err:
            tally.fail(doc_id, f"error {err}")
        elif list(zip(*(c[a:b] for c in cols))) != \
                [(k, t, m, j) for j, (k, t, m, _) in enumerate(want)]:
            tally.fail(doc_id, f"span sequence differs "
                       f"({b - a} vs {len(want)} spans)")
        elif n_inserted[a:b] != [s[3] for s in want]:
            tally.fail(doc_id, "inserted-space sentinels differ")
        tally.seen.add(doc_id)
    return tally.finish(expected)


class PdfWorkload:
    """Generated papers through ``extract_dataset``.

    ``groups`` is a list of ``(n_docs, (min_pages, max_pages),
    total_pages)``: each group's page counts are log-uniform in the range
    and sum to the total, so every seed has the same number of pages.
    The corpus is written as ``n_files`` parquet files of equal document
    count."""

    def __init__(self, name, groups, split_pages, pool, n_files=8):
        self.name = name
        self.groups = groups
        self.split_pages = split_pages
        self.pool = pool
        self.n_files = n_files

    def prepare(self, work_dir: str, seed: int) -> None:
        rng = random.Random(seed)
        counts = []
        for n_docs, (lo, hi), total in self.groups:
            counts += _page_counts(rng, n_docs, total, lo, hi)
        # long documents sit at random positions, not at the end
        rng.shuffle(counts)
        docs, self.expected = [], {}
        for i, n in enumerate(counts):
            doc_id = f"{self.name}-{seed}-{i:04d}"
            data, spans = pdfgen.make_document(rng.getrandbits(48), n)
            docs.append((doc_id, data, n))
            self.expected[doc_id] = spans
        self.docs = docs
        self.items = sum(counts)
        self.n_docs = len(docs)
        self.corpus_dir = os.path.join(work_dir, self.name)
        _write_pdf_corpus(self.corpus_dir, docs, self.n_files)
        self.warm_dir = _warm_copy(self.corpus_dir)

    def dataset(self, corpus_dir=None):
        from iesl_pdf_to_text_ray.pipelines.extract_pipeline import \
            extract_dataset
        return extract_dataset(corpus_dir or self.corpus_dir,
                               split_pages=self.split_pages,
                               concurrency=self.pool, batch_size=2)

    def run_pass(self, on_first):
        return _collect(self.dataset(), on_first)

    def setup_pass(self, on_first):
        return _collect(self.dataset(self.warm_dir), on_first)

    def check(self, out: pa.Table):
        return check_pdf_output(self.expected, out)


# ---- HTML corpus -----------------------------------------------------------

class HtmlWorkload:
    """Rendered web pages through ``extract_html_dataset``."""

    name = "html_corpus"
    N_DOCS = 24000
    INDEX_RANGE = 10**6

    def __init__(self, pool):
        self.pool = pool

    def prepare(self, work_dir: str, seed: int) -> None:
        from iesl_pdf_to_text_ray.sources.html_corpus import (expected_spans,
                                                              render_doc)
        rng = random.Random(seed)
        idx = rng.sample(range(self.INDEX_RANGE), self.N_DOCS)
        self.expected = {f"web-{i:07d}": expected_spans(i) for i in idx}
        self.corpus_dir = os.path.join(work_dir, self.name)
        os.makedirs(self.corpus_dir, exist_ok=True)
        per = self.N_DOCS // 8
        for k in range(8):
            part = idx[k * per:(k + 1) * per]
            pq.write_table(pa.table({
                "doc_id": [f"web-{i:07d}" for i in part],
                "html": [render_doc(i) for i in part],
                "n_main_paras": pa.array([4] * len(part), pa.int32())}),
                os.path.join(self.corpus_dir, f"part-{k:05d}.parquet"))
        self.warm_dir = _warm_copy(self.corpus_dir)
        self.items = self.n_docs = self.N_DOCS

    def dataset(self, corpus_dir=None):
        from iesl_pdf_to_text_ray.stages.html_extract import \
            extract_html_dataset
        return extract_html_dataset(corpus_dir or self.corpus_dir,
                                    concurrency=self.pool, batch_size=16)

    def run_pass(self, on_first):
        return _collect(self.dataset(), on_first)

    def setup_pass(self, on_first):
        return _collect(self.dataset(self.warm_dir), on_first)

    def check(self, out: pa.Table):
        tally = _Tally()
        rows = (out.select(["doc_id", "spans", "error"]).to_pylist()
                if out.num_rows else [])
        for row in rows:
            doc_id = row["doc_id"]
            want = self.expected.get(doc_id)
            if want is None or doc_id in tally.seen:
                tally.fail(doc_id, "unexpected or repeated doc_id")
            elif row["error"]:
                tally.fail(doc_id, f"error {row['error']}")
            elif row["spans"] != want:
                tally.fail(doc_id, "span sequence differs")
            tally.seen.add(doc_id)
        return tally.finish(self.expected)


# ---- operator queries (traced runs only) ---------------------------------

# (query, the table whose floor it is measured against)
QUERIES = [
    ("dedup_exact", "documents"),
    ("spans_normalize", "documents"),
    ("events_sessionize", "events"),
    ("events_sessionize_scalable", "events"),
    ("revenue_by_nation", "orders"),
    ("ann_bruteforce", "embeddings"),
    ("kcenter_sample", "embeddings"),
]
ROWS_ONLY = {"kcenter_sample"}


def canon(df):
    """Order-insensitive comparison form (as tools/check_oracles.py):
    columns sorted by name, rows sorted, floats rounded to 6 places,
    integers widened to int64."""
    import pandas as pd
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df


def to_pandas(res):
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


class QuerySet:
    """Seeded tables for ``QUERIES``, each query's expected output, and
    the query functions of ``__ray_entry__.queries()``."""

    def prepare(self, work_dir: str, seed: int) -> None:
        import duckdb
        import pandas as pd
        import __ray_entry__ as entry
        self.sf_dir = tables.write_tables(os.path.join(work_dir, "tables"),
                                          seed)
        self.fns = entry.queries()
        oracles = entry.oracle_sql()
        con = duckdb.connect()
        for f in sorted(os.listdir(self.sf_dir)):
            con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(self.sf_dir, f)}')")
        self.expected = {}
        for q, _ in QUERIES:
            if q in ROWS_ONLY:
                continue
            self.expected[q] = canon(con.execute(oracles[q]).fetchdf())
        con.close()
        self.expected["kcenter_sample"] = canon(pd.DataFrame(
            tables.kcenter_reference(self.sf_dir),
            columns=["pick_order", "vec_id", "min_dist_sq_micro"]))


def _compare(mine, gold) -> str | None:
    if list(mine.columns) != list(gold.columns):
        return f"columns {list(mine.columns)} vs {list(gold.columns)}"
    if len(mine) != len(gold):
        return f"rows {len(mine)} vs {len(gold)}"
    if not mine.equals(gold):
        diff = (mine != gold) & ~(mine.isna() & gold.isna())
        return f"value mismatch in {int(diff.any(axis=1).sum())} rows"
    return None


def make(name: str, ncpu: int):
    """The workload ``name`` for a session of ``ncpu`` CPUs.

    Actor pools stay below the CPU count: ``ncpu`` actors starve the read
    stage.  ``pdf_corpus`` has a fixed pool of ``ncpu - 2``: its actors
    all start at once, with two CPUs left for reads, the driver and Ray's
    own processes; on the 4-CPU host it ran at 245–282 pages/s, against
    215–229 for a pool autoscaled from 1 to ``ncpu - 1`` over the same
    seeds.  The other shapes keep the autoscaled pool."""
    autoscaled = (1, max(1, ncpu - 1))
    if name == "pdf_corpus":
        pool = (max(1, ncpu - 2),) * 2
        return PdfWorkload("pdf_corpus", [(160, (2, 36), 1920)],
                           split_pages=False, pool=pool, n_files=16)
    if name == "pdf_skew":
        return PdfWorkload("pdf_skew", [(36, (2, 10), 180),
                                        (2, (240, 300), 540)],
                           split_pages=True, pool=autoscaled)
    if name == "html_corpus":
        return HtmlWorkload(autoscaled)
    raise ValueError(f"unknown workload {name!r}")


# the workloads a timed run (--trace 0) can measure
TIMED = ("pdf_corpus", "html_corpus")
