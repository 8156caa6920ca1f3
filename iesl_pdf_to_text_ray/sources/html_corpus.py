"""Deterministic synthetic HTML corpus for the main-content extraction
path (north-rule "HTML boilerplate strip" leg).

Each document is a fully-formed page with KNOWN main content (title +
paragraphs + interleaved figures) wrapped in realistic boilerplate
(nav link bar, promo sidebar, related-links list, footer, script/style
blocks, cookie banner).  The generator also returns/embeds the expected
span sequence so tests can assert exact main-content recovery — no
external data, seed-free determinism (content is a pure function of the
doc index).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

HTML_CORPUS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("html", pa.string()),
    ("n_main_paras", pa.int32()),
])

# rotating sentence bank: high natural-language stopword density (the
# classifier keys on function words, like real prose)
_SENTENCES = [
    "The quick brown fox jumps over the lazy dog near the river bank.",
    "It was the best of times and it was the worst of times in the city.",
    "There are more things in heaven and earth than are dreamt of in "
    "your philosophy.",
    "We hold these truths to be self evident that all men are created "
    "equal under the law.",
    "The rain in Spain stays mainly in the plain during the long summer "
    "months of the year.",
    "A journey of a thousand miles begins with a single step taken in "
    "the right direction.",
]


def main_paragraph(doc_i: int, para_i: int) -> str:
    """The exact main-content text of paragraph ``para_i`` of doc
    ``doc_i`` (whitespace-normalized) — shared by generator and tests."""
    a = _SENTENCES[(doc_i + para_i) % len(_SENTENCES)]
    b = _SENTENCES[(doc_i + 2 * para_i + 1) % len(_SENTENCES)]
    return f"Paragraph {para_i} of article {doc_i}. {a} {b}"


def main_title(doc_i: int) -> str:
    return f"Article {doc_i}: a study of the quick brown fox"


def figure_ref(doc_i: int, fig_i: int) -> str:
    return f"/img/article{doc_i}/fig{fig_i}.png"


def render_doc(doc_i: int, n_paras: int = 4) -> str:
    nav = ("<nav><ul>" + "".join(
        f'<li><a href="/s{j}">Section {j}</a></li>' for j in range(8))
        + "</ul></nav>")
    sidebar = ('<aside class="promo"><div>' + " ".join(
        f'<a href="/p/{j}">Deal {j} buy now</a>' for j in range(6))
        + "</div></aside>")
    related = ("<div><ul>" + "".join(
        f'<li><a href="/r/{j}">Related story {j}</a></li>'
        for j in range(5)) + "</ul></div>")
    cookie = ('<div id="cookie"><button>Accept</button>'
              "<a href=\"/privacy\">privacy policy</a></div>")
    footer = ("<footer>Copyright 2024 Example Site."
              '<a href="/terms">Terms</a><a href="/contact">Contact</a>'
              "</footer>")
    paras = []
    for p in range(n_paras):
        paras.append(f"<p>{main_paragraph(doc_i, p)}</p>")
        if p == 1:   # one figure mid-article
            paras.append(f'<figure><img src="{figure_ref(doc_i, 0)}">'
                         f"<figcaption>Figure 1 shows the fox in the "
                         f"wild near the river.</figcaption></figure>")
    article = (f"<article><h1>{main_title(doc_i)}</h1>"
               + "".join(paras) + "</article>")
    return ("<!DOCTYPE html><html><head><title>t</title>"
            "<style>body{color:red}</style>"
            "<script>var tracker = load('analytics');</script></head>"
            f"<body>{nav}{cookie}<main>{article}</main>{sidebar}"
            f"{related}{footer}</body></html>")


def expected_spans(doc_i: int, n_paras: int = 4) -> list[dict]:
    """The span sequence extract_main_spans must produce for doc_i."""
    spans = []
    o = 0

    def text(t):
        nonlocal o
        spans.append({"kind": "text", "text": t, "media_ref": "",
                      "offset": o})
        o += 1

    def media(m):
        nonlocal o
        spans.append({"kind": "media", "text": "", "media_ref": m,
                      "offset": o})
        o += 1

    text(main_title(doc_i))                      # h1 rides on §verdict
    for p in range(n_paras):
        text(main_paragraph(doc_i, p))
        if p == 1:
            media(figure_ref(doc_i, 0))
            text("Figure 1 shows the fox in the wild near the river.")
    return spans


def cached_html_corpus(base: str = "/tmp/graft_corpus_cache",
                       n_docs: int = 32, n_shards: int = 4) -> str:
    """Shared synthetic-corpus cache, keyed on the corpus shape and a
    generator fingerprint (md5 of doc 0's rendered HTML): a stale corpus
    written by an older or differently-parameterized generator
    regenerates instead of silently changing downstream results, and a
    half-written one is never seen (``corpus.cached_dir``)."""
    import hashlib

    from .corpus import cached_dir
    fp = hashlib.md5(render_doc(0).encode("utf-8")).hexdigest()[:8]
    return cached_dir(
        os.path.join(base, f"html_n{n_docs}_s{n_shards}_{fp}"),
        lambda d: synthesize_html_corpus(d, n_docs=n_docs,
                                         n_shards=n_shards))


def synthesize_html_corpus(out_dir: str, n_docs: int = 64,
                           n_shards: int = 8) -> str:
    os.makedirs(out_dir, exist_ok=True)
    per_shard = (n_docs + n_shards - 1) // n_shards
    row = 0
    for shard in range(n_shards):
        ids, pages, counts = [], [], []
        for _ in range(min(per_shard, n_docs - row)):
            ids.append(f"web-{row:08d}")
            pages.append(render_doc(row))
            counts.append(4)
            row += 1
        if not ids:
            break
        pq.write_table(
            pa.table({"doc_id": ids, "html": pages,
                      "n_main_paras": pa.array(counts, pa.int32())},
                     schema=HTML_CORPUS_SCHEMA),
            os.path.join(out_dir, f"part-{shard:05d}.parquet"))
    return out_dir
