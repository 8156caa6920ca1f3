"""The traced run: per-layer metrics, timed from outside the package.

Nothing inside the package is instrumented.  Each layer is timed around
calls into it:

- the PDF parser layers by a step-by-step replay of
  ``pdf.extractor.extract_spans`` (document and page tree, content
  decoding, content scanning, font translation, page interpretation,
  span collection), checked to yield exactly ``extract_spans``'s spans;
- the extraction stages by calling ``ExtractDocs``, ``ExtractShards``,
  ``split_tasks``, ``reassemble_groups`` and ``ExtractHtmlDocs`` on the
  same batches the pipelines would give them, minus the time of the
  per-row extraction calls they make;
- the Ray side by the wall time of one pipeline pass and the operator
  times of ``Dataset.stats()``;
- each query by its wall time, set against a floor pipeline (read ->
  identity ``map_batches`` -> count) over its main table.

Every traced run replays every layer, on the inputs of all four
workload shapes made from the seed (pdf_corpus, pdf_skew, html_corpus and
the query set), so each traced run reports every metric in ``PER_LAYER``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

import workloads

now = time.perf_counter

# the in-process replays run on part of each corpus, to keep a traced run
# short: the first pdf_corpus documents, one long pdf_skew document plus
# short ones, the first html_corpus pages
TRACE_PDF_DOCS = 12
TRACE_SKEW_SHORT = 12
TRACE_HTML_DOCS = 1000

# Ray Data operator kinds a query's time is split into (by operator name)
_SHUFFLE_PREFIXES = ("Sort", "Aggregate", "Repartition", "RandomShuffle",
                     "HashShuffle", "Join", "Zip")
OP_KINDS = {
    "dedup_exact": ("read", "shuffle", "map"),
    "spans_normalize": ("read", "map"),
    "events_sessionize": ("read", "shuffle", "map"),
    "events_sessionize_scalable": ("read", "shuffle", "map"),
    "revenue_by_nation": ("read", "shuffle", "map"),
    "ann_bruteforce": ("read", "shuffle", "map"),
}

PER_LAYER = [
    ("pdf.xref.s", "s"),
    ("pdf.filters.s", "s"),
    ("pdf.filters.inflated_bytes", "bytes"),
    ("pdf.content_scanner.s", "s"),
    ("pdf.content_scanner.ops", "count"),
    ("pdf.evaluator.self_s", "s"),
    ("pdf.fonts.s", "s"),
    ("pdf.fonts.count", "count"),
    ("span_builder.collect_s", "s"),
    ("span_builder.spans", "count"),
    ("stages.extract.encode_s", "s"),
    ("ray.extract.busy_ratio", "ratio"),
    ("stages.extract.split_s", "s"),
    ("stages.extract.shards", "count"),
    ("stages.extract.resolve_s", "s"),
    ("stages.extract.reassemble_s", "s"),
    ("ray.shuffle_s", "s"),
    ("functions.html_main.s", "s"),
    ("stages.html_extract.encode_s", "s"),
    ("ray.html.busy_ratio", "ratio"),
    ("ray.actor_start_s", "s"),
]
for _q, _table in workloads.QUERIES:
    PER_LAYER += [(f"query.{_q}.s", "s"), (f"query.{_q}.above_floor_s", "s")]
for _table in sorted({t for _, t in workloads.QUERIES}):
    PER_LAYER.append((f"ray.floor.{_table}.s", "s"))
for _q, _kinds in OP_KINDS.items():
    PER_LAYER += [(f"ray.op.{_q}.{k}.s", "s") for k in _kinds]
UNITS = dict(PER_LAYER)


# ---- PDF parser layers -----------------------------------------------------

def _prewarm_fonts(xref, resources, font_cache, acc) -> None:
    """Translate each font resource (page and form level) once, keyed as
    the page interpreter keys fonts it loads by reference, so the
    interpreter's own run does no font translation."""
    from iesl_pdf_to_text_ray.pdf.fonts import TranslatedFont, translate_font
    from iesl_pdf_to_text_ray.pdf.objects import Ref
    fetch = xref.fetch_if_ref
    stack, seen = [resources], set()
    while stack:
        res = stack.pop()
        if not isinstance(res, dict) or id(res) in seen:
            continue
        seen.add(id(res))
        fonts = fetch(res.get("Font"))
        for ref in (fonts.values() if isinstance(fonts, dict) else ()):
            if not isinstance(ref, Ref):
                continue
            key = ("ref", ref.num, ref.gen)
            if key in font_cache:
                continue
            t0 = now()
            try:
                f = translate_font(fetch(ref), xref)
            except Exception:
                f = TranslatedFont()
            acc["pdf.fonts.s"] += now() - t0
            acc["pdf.fonts.count"] += 1
            font_cache[key] = f
        xobjs = fetch(res.get("XObject"))
        for x in (xobjs.values() if isinstance(xobjs, dict) else ()):
            x = fetch(x)
            if hasattr(x, "dict"):
                stack.append(fetch(x.dict.get("Resources")))


def replay_spans(data: bytes, acc) -> list[tuple]:
    """``extract_spans(data)`` step by step, timing each layer into
    ``acc``; returns the same span tuples."""
    from iesl_pdf_to_text_ray.pdf.content_scanner import ContentScanner
    from iesl_pdf_to_text_ray.pdf.document import PdfDocument
    from iesl_pdf_to_text_ray.pdf.evaluator import PageInterpreter
    t0 = now()
    doc = PdfDocument(data)
    pages = doc.pages
    acc["pdf.xref.s"] += now() - t0
    font_cache: dict = {}
    out: list[tuple] = []
    for page in pages:
        t0 = now()
        content = page.content_bytes()
        t1 = now()
        acc["pdf.filters.s"] += t1 - t0
        acc["pdf.filters.inflated_bytes"] += len(content)
        n_ops = sum(1 for _ in ContentScanner(content))
        scan_s = now() - t1
        acc["pdf.content_scanner.s"] += scan_s
        acc["pdf.content_scanner.ops"] += n_ops
        resources = page.resources
        _prewarm_fonts(doc.xref, resources, font_cache, acc)
        t0 = now()
        interp = PageInterpreter(doc.xref, page.index, font_cache)
        interp.run(content, resources)
        t1 = now()
        spans = interp.builder.collect()
        t2 = now()
        acc["pdf.evaluator.self_s"] += (t1 - t0) - scan_s
        acc["span_builder.collect_s"] += t2 - t1
        acc["span_builder.spans"] += len(spans)
        for kind, text, media_ref, xs, y, mat in spans:
            out.append((kind, text, media_ref, len(out), xs, y,
                        page.index, mat))
    return out


def _batches(rows: list, size: int):
    for i in range(0, len(rows), size):
        yield rows[i:i + size]


def trace_pdf(w, acc, record) -> float:
    """Parser replay and ExtractDocs encode over the pdf_corpus inputs;
    returns the in-process ExtractDocs seconds (for the busy ratio)."""
    from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
    from iesl_pdf_to_text_ray.stages.extract import ExtractDocs
    docs = w.docs[:TRACE_PDF_DOCS]
    pages = sum(n for _, _, n in docs)
    t0 = now()
    replayed = [replay_spans(data, acc) for _, data, _ in docs]
    traced_s = now() - t0
    t0 = now()
    plain = [extract_spans(data) for _, data, _ in docs]
    plain_s = now() - t0
    record["replay_mismatches"] = sum(a != b for a, b in zip(replayed, plain))
    record["trace_overhead"]["pdf_pages_per_s_traced"] = pages / traced_s
    record["trace_overhead"]["pdf_pages_per_s_untraced"] = pages / plain_s
    stage = ExtractDocs()
    call_s = 0.0
    for batch in _batches(docs, 2):
        table = pa.table({"doc_id": [d[0] for d in batch],
                          "pdf_bytes": pa.array([d[1] for d in batch],
                                                pa.binary())})
        t0 = now()
        stage(table)
        t1 = now()
        for _, data, _ in batch:
            extract_spans(data)
        t2 = now()
        call_s += t1 - t0
        # the stage's own cost: the call minus the same rows' extract_spans
        acc["stages.extract.encode_s"] += (t1 - t0) - (t2 - t1)
    # scaled to the whole corpus, for the busy ratio of a full Ray pass
    return call_s * w.items / pages


def trace_split(w, acc, record) -> None:
    """split_tasks, ExtractShards payload resolution and reassembly over
    the pdf_skew inputs, with the same batch size as the pipeline."""
    from iesl_pdf_to_text_ray.pdf.extractor import extract_spans
    from iesl_pdf_to_text_ray.stages.extract import (SPLIT_PAGE_THRESHOLD,
                                                     ExtractShards,
                                                     reassemble_groups,
                                                     split_tasks)
    files = sorted(os.path.join(w.corpus_dir, f)
                   for f in os.listdir(w.corpus_dir))
    payload, meta_rows = {}, []
    for f in files:
        t = pq.read_table(f)
        for d, b, n in zip(*(t.column(c).to_pylist()
                             for c in ("doc_id", "pdf_bytes", "n_pages"))):
            payload[d] = b
            meta_rows.append({"doc_id": d, "n_pages": n, "path": f})
    # one long document and the first TRACE_SKEW_SHORT short ones
    long_docs = [r for r in meta_rows if r["n_pages"] > SPLIT_PAGE_THRESHOLD]
    short = [r for r in meta_rows if r["n_pages"] <= SPLIT_PAGE_THRESHOLD]
    meta_rows = long_docs[:1] + short[:TRACE_SKEW_SHORT]
    expected = {r["doc_id"]: w.expected[r["doc_id"]] for r in meta_rows}
    shard_tables = []
    for batch in _batches(meta_rows, 2):
        t0 = now()
        shard_tables.append(split_tasks(pa.Table.from_pylist(batch)))
        acc["stages.extract.split_s"] += now() - t0
    shards = pa.concat_tables(shard_tables)
    acc["stages.extract.shards"] += shards.num_rows
    stage = ExtractShards()
    outs = []
    for k in range(0, shards.num_rows, 2):
        batch = shards.slice(k, 2)
        t0 = now()
        outs.append(stage(batch))
        call_s = now() - t0
        for row in batch.select(["doc_id", "page_start",
                                 "page_end"]).to_pylist():
            t0 = now()
            extract_spans(payload[row["doc_id"]],
                          (row["page_start"], row["page_end"]))
            call_s -= now() - t0
        acc["stages.extract.resolve_s"] += call_s
    by_doc = defaultdict(list)
    for t in outs:
        for i, d in enumerate(t.column("doc_id").to_pylist()):
            by_doc[d].append(t.slice(i, 1))
    groups = []
    for parts in by_doc.values():
        group = pa.concat_tables(parts)
        t0 = now()
        groups.append(reassemble_groups(group))
        acc["stages.extract.reassemble_s"] += now() - t0
    record["split_failed"] = workloads.check_pdf_output(
        expected, pa.concat_tables(groups))[1]


def trace_html(w, acc, record) -> float:
    """extract_main_spans and ExtractHtmlDocs encode over the html_corpus
    inputs; returns the in-process ExtractHtmlDocs seconds."""
    from iesl_pdf_to_text_ray.functions.html_main import extract_main_spans
    from iesl_pdf_to_text_ray.stages.html_extract import ExtractHtmlDocs
    files = sorted(os.path.join(w.corpus_dir, f)
                   for f in os.listdir(w.corpus_dir))
    table = pa.concat_tables(pq.read_table(f, columns=["doc_id", "html"])
                             for f in files).slice(0, TRACE_HTML_DOCS)
    pages = table.column("html").to_pylist()
    t0 = now()
    got = [extract_main_spans(html) for html in pages]
    untraced_s = now() - t0
    ids = table.column("doc_id").to_pylist()
    record["html_failed"] = sum(g != w.expected[d] for d, g in zip(ids, got))
    stage = ExtractHtmlDocs()
    call_s = main_s = 0.0
    for k in range(0, table.num_rows, 16):
        batch = table.slice(k, 16)
        t0 = now()
        stage(batch)
        call_s += now() - t0
        for html in batch.column("html").to_pylist():
            t0 = now()
            extract_main_spans(html)
            main_s += now() - t0
    acc["functions.html_main.s"] += main_s
    acc["stages.html_extract.encode_s"] += call_s - main_s
    n = table.num_rows
    record["trace_overhead"]["html_docs_per_s_traced"] = n / main_s
    record["trace_overhead"]["html_docs_per_s_untraced"] = n / untraced_s
    return call_s * w.n_docs / n


# ---- Ray side --------------------------------------------------------------

def _op_times(ds) -> list[tuple[str, float]]:
    """(operator name, seconds) over the whole Dataset.stats() tree."""
    out, stack = [], [ds._get_stats_summary()]
    while stack:
        s = stack.pop()
        out += [(op.operator_name, op.time_total_s)
                for op in s.operators_stats]
        stack += list(s.parents or [])
    return out


def _kind(op_name: str) -> str:
    if "Read" in op_name:
        return "read"
    if op_name.startswith(_SHUFFLE_PREFIXES):
        return "shuffle"
    return "map"


def ray_pass(w, ncpu: int) -> tuple[float, float, pa.Table, object]:
    """(wall, time to first batch, output, dataset) of one pass, started
    once the previous pass's actors have let go of their CPUs."""
    workloads.settle(ncpu)
    first: list[float] = []
    ds = w.dataset()
    t0 = now()
    out = workloads._collect(ds, lambda: first.append(now()))
    return now() - t0, first[0] - t0, out, ds


def trace_queries(w, acc, record) -> None:
    import ray.data

    def floor(table: str) -> None:
        path = os.path.join(w.sf_dir, f"{table}.parquet")
        ray.data.read_parquet(path).map_batches(
            lambda b: b, batch_format="pyarrow").count()

    tables = sorted({t for _, t in workloads.QUERIES})
    for table in tables:    # untimed: a session's first few reads are slow
        floor(table)
    floors = {}
    for table in tables:
        t0 = now()
        floor(table)
        floors[table] = now() - t0
        acc[f"ray.floor.{table}.s"] += floors[table]
    failed = 0
    for q, table in workloads.QUERIES:
        t0 = now()
        try:
            res = w.fns[q](w.sf_dir)
            df = workloads.to_pandas(res)
        except Exception as e:      # noqa: BLE001 - counted, then reported
            record.setdefault("query_errors", {})[q] = repr(e)[:300]
            failed += 1
            continue
        wall = now() - t0
        acc[f"query.{q}.s"] += wall
        acc[f"query.{q}.above_floor_s"] += wall - floors[table]
        bad = workloads._compare(workloads.canon(df), w.expected[q])
        if bad:
            record.setdefault("query_wrong", {})[q] = bad
            failed += 1
        if isinstance(res, ray.data.Dataset):
            for name, secs in _op_times(res):
                key = f"ray.op.{q}.{_kind(name)}.s"
                if key in UNITS:
                    acc[key] += secs
                else:
                    record.setdefault("unlisted_ops", []).append([q, name])
    record["query_failed"] = failed


def traced_run(seed, work, ncpu, temp_dir, ray_init) -> dict:
    import ray
    ws = {n: workloads.make(n, ncpu)
          for n in ("pdf_corpus", "pdf_skew", "html_corpus")}
    ws["queries"] = workloads.QuerySet()
    for w in ws.values():
        w.prepare(work, seed)
    acc: dict = defaultdict(float)
    record: dict = {"trace_overhead": {}}
    pdf_call_s = trace_pdf(ws["pdf_corpus"], acc, record)
    trace_split(ws["pdf_skew"], acc, record)
    html_call_s = trace_html(ws["html_corpus"], acc, record)

    ray_init(ncpu, temp_dir)
    # failed operations (error rows, outputs that fail their check) of
    # each Ray pass
    ray_failed = {}
    # the skew pass goes first and warms the session for the others
    wall, _, out, ds = ray_pass(ws["pdf_skew"], ncpu)
    ray_failed["pdf_skew"] = ws["pdf_skew"].check(out)[1]
    record["trace_overhead"]["ray_pdf_skew_pages_per_s"] = \
        ws["pdf_skew"].items / wall
    acc["ray.shuffle_s"] += sum(
        secs for op, secs in _op_times(ds)
        if op.startswith(_SHUFFLE_PREFIXES) or "reassemble" in op)
    del ds
    wall, first, out, _ = ray_pass(ws["pdf_corpus"], ncpu)
    ray_failed["pdf_corpus"] = ws["pdf_corpus"].check(out)[1]
    acc["ray.actor_start_s"] += first
    acc["ray.extract.busy_ratio"] = \
        pdf_call_s / (wall * ws["pdf_corpus"].pool[1])
    record["trace_overhead"]["ray_pdf_pages_per_s"] = \
        ws["pdf_corpus"].items / wall
    wall, _, out, _ = ray_pass(ws["html_corpus"], ncpu)
    ray_failed["html_corpus"] = ws["html_corpus"].check(out)[1]
    acc["ray.html.busy_ratio"] = \
        html_call_s / (wall * ws["html_corpus"].pool[1])
    record["trace_overhead"]["ray_html_docs_per_s"] = \
        ws["html_corpus"].items / wall
    trace_queries(ws["queries"], acc, record)
    ray.shutdown()

    record["ray_failed"] = ray_failed
    failed = (sum(ray_failed.values()) + record["replay_mismatches"]
              + record["split_failed"] + record["html_failed"]
              + record["query_failed"])
    attempted = (TRACE_PDF_DOCS + ws["pdf_corpus"].n_docs
                 + 1 + TRACE_SKEW_SHORT + ws["pdf_skew"].n_docs
                 + TRACE_HTML_DOCS + ws["html_corpus"].n_docs
                 + len(workloads.QUERIES))
    return {**record, "attempted": attempted, "failed": failed,
            "metrics": {k: (acc[k], u) for k, u in PER_LAYER}}
