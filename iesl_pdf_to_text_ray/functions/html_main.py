"""HTML main-content extraction (boilerplate strip) — the third leg of
the north-rule extraction family beside PDF/layout parse and DOM
heuristics.

Algorithm: shallow-DOM block segmentation + density classification in
the style of the public boilerplate-removal literature (Kohlschuetter et
al., "Boilerplate Detection using Shallow Text Features", WSDM 2010;
Pomikalek, "Removing Boilerplate and Duplicate Content from Web
Corpora", 2011 — jusText).  No third-party parser: the page is cut into
tokens by one compiled ``re`` pattern driven by ``finditer`` (``_tokens``),
which gives the events of CPython's ``html.parser`` with
``convert_charrefs=True`` in time linear in the page length.  The
classifier uses three shallow features per block (word count, link
density, stopword density) plus the jusText-style neighborhood smoothing
pass.

Output is the engine's interleaved span model — rows of
``(kind, text, media_ref, offset)`` with ``kind='text'`` for retained
blocks and ``kind='media'`` for <img> references in document order —
exactly the (doc_id, spans) shape the PDF extractor emits, so every
downstream operator (normalization, dedup, quality, layout) runs
unchanged on web documents.
"""

from __future__ import annotations

import re
from html import unescape

# elements whose entire subtree is boilerplate or non-content by contract
DROP_TAGS = frozenset("""script style noscript template nav header footer
    aside form button select option iframe svg canvas""".split())
# block-level boundaries: text accumulates per nearest block ancestor
BLOCK_TAGS = frozenset("""p div li h1 h2 h3 h4 h5 h6 td th blockquote pre
    article section main figure figcaption dd dt ul ol table tr body""".split())

# compact English stopword set (public, function words only) — the
# stopword-density feature only needs common function words
STOPWORDS = frozenset("""a an and are as at be but by for from has have he
    in is it its of on or that the to was were will with this which you
    your not they his her she we our us i all can had do if about into
    than then there these those when who whom what where why how been
    being over under again once more most other some such no nor only
    own same so too very just also after before between both each few
    during out up down off above below""".split())

# classification thresholds (jusText-flavored defaults)
MAX_LINK_DENSITY = 0.35
MIN_GOOD_WORDS = 8
MIN_STOP_DENSITY = 0.25

# ---- tokenizer ------------------------------------------------------------
# The stdlib parser's rules, from CPython 3.11 html/parser.py.  Its
# start-tag scan (locatestarttagend_tolerant) is run here as the tag name,
# then one _ATTRFIND match per attribute, so that a scan can be remembered
# per attribute; the scan's attribute pattern differs from _ATTRFIND only
# by a \s* that both patterns' trailing part consumes anyway.
_TAG_NAME_STOP = re.compile(r"[\t\n\r\f />\x00]")
_SPACE_SLASH = re.compile(r"[\s/]*")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"""
    r"""('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_GT = re.compile(">")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# the marked sections <![name ...]> the stdlib knows, by the end each takes
_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"),
                    re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>"))}
_RAWTEXT_CLOSE = {t: re.compile(r"</\s*%s\s*>" % t, re.I)
                  for t in ("script", "style")}

# The page's tokens.  A text run, a start tag or an end tag that the rules
# above settle by the first ">" with no "<" before it, or a bare "<" for
# everything else (``_markup``).  No alternative reads past the next "<",
# so one finditer pass over a page is linear.  A name or a bare value with
# a quote or "<" in it, or a quoted value with "<" or ">" in it, does not
# end at a ">" here and goes to ``_markup``; the atomic groups keep the
# stdlib's first (greedy) path, so a tag matched here is the tag it parses.
_TOKEN = re.compile(
    r"(?P<text>[^<]+)"
    r"|(?P<start><(?P<name>[a-zA-Z][^\t\n\r\f />\x00'\"<]*+)"
    r"(?>(?:\s|/(?!>))*)"
    r"(?>(?>(?<=['\"\s/])[^\s/>'\"<][^\s/=>'\"<]*"
    r"(?:\s*=+\s*(?:'[^'<>]*'|\"[^\"<>]*\"|(?!['\"])[^>\s'\"<]*)\s*)?"
    r"(?:\s|/(?!>))*)*)"
    r"(?P<slash>/?)>)"
    r"|(?P<end></(?:\s*(?P<end1>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*"
    r"|(?P<end2>[a-zA-Z][^\t\n\r\f />\x00<]*+)[^<>]*)>)"
    r"|(?P<lt><)")

DATA, START, END = "data", "start", "end"


class _Scan:
    """The searches ``_markup`` runs to the end of the page, remembered.

    Each search runs forward from a position that only grows along the
    page, so a search that failed, or found a match still ahead, answers
    every later query with no rescan; the start-tag scan is remembered per
    attribute position.  The stdlib repeats these from each "<" of an
    unterminated tag, comment or end tag, which is quadratic."""

    def __init__(self, page: str):
        self.page = page
        self.found: dict = {}     # pattern -> (from, match or None)
        self.heads: dict = {}     # tag-name end -> first attribute position
        self.stops: dict = {}     # attribute position -> where the scan stops

    def search(self, pattern, pos: int):
        hit = self.found.get(pattern)
        if hit is not None and hit[0] <= pos and (
                hit[1] is None or hit[1].start() >= pos):
            return hit[1]
        m = pattern.search(self.page, pos)
        self.found[pattern] = (pos, m)
        return m

    def tag_stop(self, i: int) -> int:
        """Where locatestarttagend_tolerant's match from ``i`` ends."""
        page = self.page
        m = self.search(_TAG_NAME_STOP, i + 2)
        p = m.start() if m else len(page)
        q = self.heads.get(p)
        if q is None:
            q = self.heads[p] = _SPACE_SLASH.match(page, p).end()
        stops = self.stops
        path = []
        stop = stops.get(q)
        while stop is None:
            path.append(q)
            m = _ATTRFIND.match(page, q)
            if m is None:
                stop = q
            else:
                q = m.end()
                stop = stops.get(q)
        for q in path:
            stops[q] = stop
        return stop


def _attrs(page: str, i: int, end: int):
    """The stdlib's attribute list of the start tag ``page[i:end]``, and
    where its attribute scan stopped."""
    k = _TAGFIND.match(page, i + 1).end()
    attrs = []
    while k < end:
        m = _ATTRFIND.match(page, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        attrs.append((name.lower(), value))
        k = m.end()
    return attrs, k


def _markup(page: str, i: int, scan: _Scan):
    """The stdlib's step at the "<" at ``i``, with the end of input
    reached as in ``close()``: returns the position after the construct
    and its events, or ``(None, ())`` where the stdlib raises and the
    parse stops."""
    nxt = page[i + 1:i + 2]
    if nxt.isascii() and nxt.isalpha():
        j = scan.tag_stop(i)
        c = page[j:j + 1]
        if c == ">":
            k = j + 1
        elif c == "/":
            k = j + 2 if page.startswith("/>", j) else -1
        elif not c or c == "=" or c.isascii() and c.isalpha():
            k = -1
        else:
            k = j
        if k >= 0:
            end = page[_attrs(page, i, k)[1]:k].strip()
            if end not in (">", "/>"):
                return k, ((DATA, page[i:k]),)
            tag = _TAGFIND.match(page, i + 1).group(1).lower()
            if end == ">":
                return k, ((START, tag, i, k),)
            return k, ((START, tag, i, k), (END, tag))
    elif nxt == "/":
        g = scan.search(_GT, i + 1)
        if g is not None:
            m = _ENDTAGFIND.match(page, i) or _TAGFIND.match(page, i + 2)
            return g.end(), ((END, m.group(1).lower()),) if m else ()
        k = -1
    elif page.startswith("<!--", i):
        m = scan.search(_COMMENT_CLOSE, i + 4)
        k = m.end() if m else -1
    elif page.startswith("<![", i):
        m = _DECL_NAME.match(page, i + 3)
        if i + 3 == len(page) or m and m.end() == len(page):
            k = -1
        else:
            close = _SECTION_CLOSE.get(m.group().strip().lower() if m else "")
            if close is None:
                return None, ()   # the stdlib raises on an unknown section
            m = scan.search(close, i + 3)
            k = m.end() if m else -1
    elif nxt in ("!", "?"):   # <!doctype, a bogus comment or a PI: to ">"
        m = scan.search(_GT, i + 2)
        k = m.end() if m else -1
    else:
        return i + 1, ((DATA, "<"),)
    if k >= 0:
        return k, ()
    # an incomplete construct becomes text up to the next ">" or "<"
    g = scan.search(_GT, i + 1)
    if g is not None:
        k = g.end()
    else:
        k = page.find("<", i + 1)
        if k < 0:
            k = i + 1
    return k, ((DATA, unescape(page[i:k])),)


def _tokens(page: str):
    """Yield the page's parser events in order: ``(DATA, text)``,
    ``(START, tag, i, end)`` for the start tag ``page[i:end]``, and
    ``(END, tag)``; a self-closing tag's END follows its START.  Text is
    split where the stdlib splits it and unescaped as it unescapes it;
    script and style hold raw text up to their end tag."""
    pos = 0
    scan = None
    while pos < len(page):
        for m in _TOKEN.finditer(page, pos):
            kind = m.lastgroup
            if kind == "text":
                yield DATA, unescape(m.group())
            elif kind == "end":
                yield END, (m.group("end1") or m.group("end2")).lower()
            elif kind == "start":
                tag = m.group("name").lower()
                yield START, tag, m.start(), m.end()
                if m.group("slash"):
                    yield END, tag
                elif tag in _RAWTEXT_CLOSE:
                    pos = yield from _rawtext(page, m.end(), tag)
                    break
            else:
                if scan is None:
                    scan = _Scan(page)
                pos, events = _markup(page, m.start(), scan)
                if pos is None:
                    return
                yield from events
                last = events[-1] if events else None
                if last and last[0] is START and last[1] in _RAWTEXT_CLOSE:
                    pos = yield from _rawtext(page, pos, last[1])
                    break
                if pos != m.end():
                    break
        else:
            return


def _rawtext(page: str, pos: int, tag: str):
    """Script or style content from ``pos`` up to the element's end tag;
    returns the position after that end tag, or the page length when it
    never comes (the stdlib then drops the rest of the page)."""
    close = _RAWTEXT_CLOSE[tag]
    while True:
        m = close.search(page, pos)
        if m is None:
            return len(page)
        if m.start() > pos:
            yield DATA, page[pos:m.start()]
        e = _ENDTAGFIND.match(page, m.start())
        if e and e.group(1).lower() == tag:
            yield END, tag
            return m.end()
        yield DATA, m.group()
        pos = m.end()


class _Block:
    __slots__ = ("texts", "link_chars", "media", "tag")

    def __init__(self, tag: str):
        self.tag = tag
        self.texts: list[str] = []
        self.link_chars = 0
        # media refs interleaved with this block's text: list of
        # (position_in_texts, src)
        self.media: list[tuple[int, str]] = []

    def text(self) -> str:
        return " ".join(" ".join(self.texts).split())


def _classify(blocks: list[_Block]) -> list[str]:
    """Per-block label good/near/bad from the three shallow features,
    then the jusText smoothing pass: near-good blocks adjacent to a good
    block are promoted (headings ride on their section's verdict).  The
    stopword density is computed only for a block it can decide."""
    labels = []
    for b in blocks:
        if not b.texts and not b.media:
            labels.append("empty")
            continue
        t = b.text()
        words = t.split()
        n = len(words)
        link_density = (b.link_chars / len(t)) if t else 0.0
        if link_density > MAX_LINK_DENSITY:
            labels.append("bad")
        elif n < MIN_GOOD_WORDS:
            labels.append("near")         # short: heading / caption
        elif (sum(1 for w in words
                  if w.lower().strip(".,;:!?()\"'") in STOPWORDS)
              / n >= MIN_STOP_DENSITY):
            labels.append("good")
        else:                             # long but alien-density: lists,
            labels.append("bad")          # code, keyword stuffing
    # smoothing: near -> good when an adjacent non-empty block is good
    out = list(labels)
    idx = [i for i, l in enumerate(labels) if l != "empty"]
    for pos, i in enumerate(idx):
        if labels[i] != "near":
            continue
        prev_l = labels[idx[pos - 1]] if pos > 0 else None
        next_l = labels[idx[pos + 1]] if pos + 1 < len(idx) else None
        out[i] = "good" if ("good" in (prev_l, next_l)) else "bad"
    return out


def parse_blocks(html: str):
    """One tokenizer pass over the document; returns the segmented
    blocks: character data is cut into blocks at BLOCK_TAGS boundaries,
    DROP_TAGS subtrees are dropped, and anchor-text mass and <img>
    positions are tracked.  Callers needing both a label census and span
    extraction parse once here and feed the blocks to ``_classify`` /
    ``spans_from_blocks``."""
    page = html or ""
    blk = _Block("body")
    blocks = [blk]
    drop = anchor = 0
    for event in _tokens(page):
        kind = event[0]
        if kind is DATA:
            if drop:
                continue
            s = event[1].strip()
            if s:
                blk.texts.append(s)
                if anchor:
                    blk.link_chars += len(s)
            continue
        tag = event[1]
        if tag in DROP_TAGS:
            drop = drop + 1 if kind is START else max(0, drop - 1)
        elif drop:
            continue
        elif tag == "a":
            anchor = anchor + 1 if kind is START else max(0, anchor - 1)
        elif tag == "img":
            if kind is START:
                src = dict(_attrs(page, event[2], event[3])[0]).get("src")
                if src:
                    blk.media.append((len(blk.texts), src))
        elif tag in BLOCK_TAGS:
            # a start opens a block; an end closes the current one, and
            # later text joins a fresh sibling block of the parent flow
            blk = _Block(tag)
            blocks.append(blk)
    return blocks


def extract_main_spans(html: str) -> list[dict]:
    """HTML string -> interleaved span dicts
    ``{kind, text, media_ref, offset}`` in document order: retained text
    blocks plus <img> refs belonging to retained blocks (an image inside
    a boilerplate block is boilerplate too — e.g. nav logos)."""
    blocks = parse_blocks(html)
    return spans_from_blocks(blocks, _classify(blocks))


def spans_from_blocks(blocks, labels) -> list[dict]:
    spans: list[dict] = []
    offset = 0
    for b, label in zip(blocks, labels):
        if label != "good":
            continue
        # interleave media at their recorded positions within the block
        cut = 0
        for pos, src in b.media:
            pre = " ".join(" ".join(b.texts[cut:pos]).split())
            if pre:
                spans.append({"kind": "text", "text": pre,
                              "media_ref": "", "offset": offset})
                offset += 1
            spans.append({"kind": "media", "text": "",
                          "media_ref": src, "offset": offset})
            offset += 1
            cut = pos
        tail = " ".join(" ".join(b.texts[cut:]).split())
        if tail:
            spans.append({"kind": "text", "text": tail,
                          "media_ref": "", "offset": offset})
            offset += 1
    return spans
