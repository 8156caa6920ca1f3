"""HTML main-content extraction (north-rule "HTML boilerplate strip"
leg): exact recovery of planted main content, boilerplate exclusion,
media interleaving, malformed-input quarantine, the Ray task-pool
pipeline surface, and the tokenizer: the stdlib parser's blocks on every
page, and bounded time on hostile pages."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from html.parser import HTMLParser

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from iesl_pdf_to_text_ray.functions.html_main import (
    BLOCK_TAGS, DROP_TAGS, _Block, extract_main_spans, parse_blocks)
from iesl_pdf_to_text_ray.sources.html_corpus import (
    expected_spans, figure_ref, main_paragraph, render_doc,
    synthesize_html_corpus)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_exact_span_recovery_all_docs():
    """Every synthetic doc's extracted spans equal the generator's
    expected sequence — title, paragraphs, figure ref, caption, in
    order, with contiguous offsets."""
    for i in range(16):
        got = extract_main_spans(render_doc(i))
        assert got == expected_spans(i), f"doc {i}"


def test_boilerplate_fully_excluded():
    text = " ".join(s["text"] for s in extract_main_spans(render_doc(0)))
    for marker in ("Section", "Deal", "Related story", "Copyright",
                   "Terms", "Accept", "privacy", "tracker", "color:red"):
        assert marker not in text, marker


def test_media_inside_boilerplate_dropped():
    html = ('<html><body><nav><img src="/logo.png"><a href="/">Home</a>'
            "</nav><article><p>" + main_paragraph(0, 0) + "</p>"
            "</article></body></html>")
    spans = extract_main_spans(html)
    assert all(s["media_ref"] != "/logo.png" for s in spans)
    assert any(s["kind"] == "text" for s in spans)


def test_media_in_main_content_kept_in_order():
    spans = extract_main_spans(render_doc(5))
    kinds = [s["kind"] for s in spans]
    assert kinds.count("media") == 1
    m = next(s for s in spans if s["kind"] == "media")
    assert m["media_ref"] == figure_ref(5, 0)
    # figure sits after paragraph 1 and before its caption
    idx = spans.index(m)
    assert main_paragraph(5, 1) == spans[idx - 1]["text"]
    assert spans[idx + 1]["text"].startswith("Figure 1")


def test_link_heavy_block_dropped_prose_kept():
    html = ("<html><body><div>" +
            " ".join(f'<a href="/x{j}">click here now</a>'
                     for j in range(20)) +
            "</div><p>" + main_paragraph(1, 0) + "</p></body></html>")
    spans = extract_main_spans(html)
    texts = [s["text"] for s in spans]
    assert any("Paragraph 0 of article 1" in t for t in texts)
    assert not any("click here" in t for t in texts)


def test_malformed_html_no_crash():
    for html in ("<p>unclosed <b>bold", "<<<>>>", "", None,
                 "<html><body><p>" + "x" * 10 + "</p>"):
        extract_main_spans(html)   # must not raise


def test_ray_pipeline_surface(ray_session, tmp_path):
    """read_parquet -> ExtractHtmlDocs Ray tasks -> span rows with the
    input_hint schema; digests stable across runs."""
    from iesl_pdf_to_text_ray.stages.extract import spans_digest
    from iesl_pdf_to_text_ray.stages.html_extract import \
        extract_html_dataset
    d = str(tmp_path / "web")
    synthesize_html_corpus(d, n_docs=12, n_shards=3)
    rows = extract_html_dataset(d).take_all()
    assert len(rows) == 12
    for r in rows:
        assert r["error"] == ""
        i = int(r["doc_id"].split("-")[1])
        want = expected_spans(i)
        got = [{"kind": s["kind"], "text": s["text"],
                "media_ref": s["media_ref"], "offset": s["offset"]}
               for s in r["spans"]]
        assert got == want
        assert r["n_media"] == 1
        assert spans_digest(got) == spans_digest(want)


def test_tasks_release_cpus(ray_session, tmp_path):
    """The stage runs as Ray tasks: once a pass is consumed, every CPU of
    the session is free again within 2 s, with no garbage collection,
    while the caller still holds the Dataset.  (A consumed Dataset keeps
    an actor pool, and its CPUs, until cyclic GC frees it.)"""
    from iesl_pdf_to_text_ray.stages.html_extract import \
        extract_html_dataset
    ray = ray_session
    d = str(tmp_path / "web")
    synthesize_html_corpus(d, n_docs=64, n_shards=4)
    total = ray.cluster_resources()["CPU"]

    def free_cpus_after(limit_s: float) -> float:
        t0 = time.monotonic()
        while (ray.available_resources().get("CPU", 0) < total
               and time.monotonic() - t0 < limit_s):
            time.sleep(0.02)
        return ray.available_resources().get("CPU", 0)

    # start from a free session: earlier tests' pools may still be held
    gc.collect()
    free_cpus_after(20)
    free = []
    gc.disable()    # the release must not wait for a collection
    try:
        for _ in range(3):
            ds = extract_html_dataset(d, concurrency=(1, 3))
            assert len(ds.take_all()) == 64
            free.append(free_cpus_after(2))
    finally:
        gc.enable()
    assert free == [total] * 3


def test_row_error_quarantined(monkeypatch):
    """One document whose extraction raises gets empty spans and a
    "<ExcType>: msg" error; the other rows and the schema are unchanged."""
    from iesl_pdf_to_text_ray.stages import html_extract

    def flaky(html):
        if "of article 3." in html:
            raise ValueError("bad page")
        return extract_main_spans(html)

    monkeypatch.setattr(html_extract, "extract_main_spans", flaky)
    ids = [2, 3, 4]
    out = html_extract.ExtractHtmlDocs()(pa.table({
        "doc_id": [f"web-{i}" for i in ids],
        "html": [render_doc(i) for i in ids]}))
    assert out.schema == html_extract.HTML_OUT_SCHEMA
    rows = out.to_pylist()
    assert rows[1]["spans"] == [] and rows[1]["n_spans"] == 0
    assert rows[1]["error"] == "ValueError: bad page"
    for i, r in zip(ids, rows):
        if i != 3:
            assert r["error"] == "" and r["spans"] == expected_spans(i)
            assert r["n_spans"] == len(r["spans"])


# ---- the tokenizer against the stdlib parser --------------------------------


class _MainContentParser(HTMLParser):
    """The reference segmenter on the stdlib parser: one pass segments
    character data into blocks at BLOCK_TAGS boundaries, drops DROP_TAGS
    subtrees, tracks anchor-text mass and <img> positions."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = [_Block("body")]
        self.drop_depth = 0
        self.anchor_depth = 0

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag in DROP_TAGS:
            self.drop_depth += 1
            return
        if self.drop_depth:
            return
        if tag == "a":
            self.anchor_depth += 1
        if tag == "img":
            src = dict(attrs).get("src") or ""
            if src:
                blk = self.blocks[-1]
                blk.media.append((len(blk.texts), src))
            return
        if tag in BLOCK_TAGS:
            self.blocks.append(_Block(tag))

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in DROP_TAGS:
            self.drop_depth = max(0, self.drop_depth - 1)
            return
        if self.drop_depth:
            return
        if tag == "a":
            self.anchor_depth = max(0, self.anchor_depth - 1)
        if tag in BLOCK_TAGS:
            self.blocks.append(_Block(tag))

    def handle_data(self, data):
        if self.drop_depth:
            return
        s = data.strip()
        if not s:
            return
        blk = self.blocks[-1]
        blk.texts.append(s)
        if self.anchor_depth:
            blk.link_chars += len(s)


def _reference_blocks(html):
    p = _MainContentParser()
    try:
        p.feed(html or "")
        p.close()
    except Exception:
        pass   # the stdlib raises on some <![ sections; keep what it saw
    return [(b.tag, b.texts, b.link_chars, b.media) for b in p.blocks]


def _blocks(html):
    return [(b.tag, b.texts, b.link_chars, b.media)
            for b in parse_blocks(html)]


# pages on which the stdlib parser is quadratic or worse, as
# (prefix, repeated unit)
HOSTILE = {
    "tag_soup": ("", "<a<b<c "),
    "open_comments": ("", "<!--"),
    "lt_run": ("", "<"),
    "open_end_tags": ("", "</"),
    "open_start_tag": ("<a", " x"),
    "open_quoted_attr": ("<a href='", "x"),
    "amp_run": ("", "&"),
    "nested_p": ("", "<p>"),
}


def _hostile_page(shape: str, size: int) -> str:
    prefix, unit = HOSTILE[shape]
    return (prefix + unit * (size // len(unit) + 1))[:size]


_SNIPPETS = ["<", ">", "&amp;", "&#65;", "&nbsp;", "&bogus", "<!--",
             "<!-- c -->", "<br/>", "<BR>", "< p>", "</ p>", "<a<b>", "</>",
             "<3", "<a href='x>y'>", "<img src=/u.png>",
             '<IMG SRC="/U.PNG">', "<script>if(a<b)x()</script>",
             "<![CDATA[x]]>", "<?php x ?>", "<!DOCTYPE x>", "\x00"]


def _mutant(rng: random.Random, page: str) -> str:
    """1-6 edits: insert a snippet, delete 1-8 characters, or truncate."""
    for _ in range(rng.randint(1, 6)):
        op = rng.random()
        if op < 0.6:
            at = rng.randrange(len(page) + 1)
            page = page[:at] + rng.choice(_SNIPPETS) + page[at:]
        elif op < 0.9 and page:
            at = rng.randrange(len(page))
            page = page[:at] + page[at + rng.randint(1, 8):]
        else:
            page = page[:rng.randrange(len(page) + 1)]
    return page


def test_tokenizer_matches_stdlib_parser():
    """parse_blocks gives the stdlib parser's block lists (tag, texts,
    link chars, media) on generated pages, on 6,000 seeded mutants of
    them and on the hostile shapes at 4 KB."""
    pages = [render_doc(i) for i in range(16)]
    rng = random.Random(20241020)
    pages += [_mutant(rng, render_doc(rng.randrange(1000)))
              for _ in range(6000)]
    pages += [_hostile_page(shape, 4096) for shape in HOSTILE]
    diff = [i for i, page in enumerate(pages)
            if _blocks(page) != _reference_blocks(page)]
    assert diff == [], f"{len(diff)} pages differ, first {pages[diff[0]]!r}"


_CHILD = """
import sys, time
from iesl_pdf_to_text_ray.functions.html_main import parse_blocks
page = sys.stdin.read()
t = time.perf_counter()
parse_blocks(page)
print(time.perf_counter() - t)
"""


@pytest.mark.parametrize("shape", sorted(HOSTILE))
def test_hostile_page_parses_in_bounded_time(shape):
    """A 256 KB page of each hostile shape parses within 2 s.  The parse
    runs in a child process with a 10 s deadline, so a quadratic parser
    fails here instead of running for minutes."""
    try:
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=_hostile_page(shape, 256 * 1024), cwd=REPO,
            capture_output=True, text=True, timeout=10, check=True)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{shape}: no result within the 10 s deadline")
    seconds = float(out.stdout)
    assert seconds < 2.0, f"{shape}: {seconds:.2f} s"
