"""Seeded generator of born-digital PDFs, each with the span sequence it
must yield.  ``make_document(seed, n_pages)`` returns both; the generated
corpus (``corpus.base_documents``) is built from it.  ``perfbench/pdfgen.py``
is a copy of this module that the benchmark imports.

The prediction comes from the generator's own spec through the span
contract (SURVEY.md §5.3), never from running the engine:

- a new span starts at BT, Tm, Td, T*, ', Tf and fill-colour (rg, g);
- inside a TJ array a kerning number k inserts one space (and one -1 in
  the span's x array) iff (-k/1000)*fs + min(Tc, 0) >= 0.15*fs;
- the first glyph of a span gets a leading space iff the pen jumped right
  by >= 0.15*fs from the end of the previous glyph run on the page; here
  that happens exactly at the table-column jumps (every line starts with
  Tm, which puts the pen back at x = 0 of text-line space);
- a span whose text holds a control character (< U+0020) is dropped
  whole, and so is a whitespace-only span;
- image XObjects become media spans ``img_p<page>_<n>`` (n counts the
  distinct XObject names painted on the page, from 1), inline images
  become ``inline_p<page>_<n>``, in paint order.

Every kerning decision is kept at least 0.02*fs away from the threshold,
and every column jump at least 2*fs beyond the widest possible cell, so
the prediction does not depend on glyph widths or float rounding.

Documents use four fonts: Helvetica/WinAnsi, Times-Bold/WinAnsi with a
/Differences array (fi, fl, endash, emdash, bullet), Courier with its
built-in encoding, and a Type0/Identity-H font whose ToUnicode CMap maps
CIDs to Greek letters, one control character and a space.  Content
streams are Flate-compressed (some pages split over two streams); pages
paint Flate image XObjects, hex inline images and a form XObject holding
text and its own image.  Each document is written with a classic xref
table or with object streams and an xref stream.
"""

from __future__ import annotations

import random
import zlib

SPACE_EM = 0.15

WORDS = (
    "the of and to in is that for it as with was on be by this are from "
    "at or an which we have not but all were can their one has more its "
    "model data set results method table figure section paper approach "
    "training learning features network performance task tasks based "
    "using used two each also our these show than other such between "
    "first time system language word words text corpus sentence parse "
    "tree entity relation graph node edge vector space error rate test "
    "evaluation baseline proposed work previous shown following given "
    "number large small best better improve improves accuracy precision "
    "recall score scores value values function functions weight weights "
    "layer layers input output hidden state states sequence sequences "
    "label labels class classes document documents query queries search "
    "index retrieval ranking rank top local global random sample samples"
).split()

# /Differences glyphs of F2: code -> (glyph name, unicode by the AGL)
DIFF_GLYPHS = {0x80: ("fi", "ﬁ"), 0x81: ("fl", "ﬂ"),
               0x82: ("endash", "–"), 0x83: ("emdash", "—"),
               0x84: ("bullet", "•")}
_DIFF_BY_UNI = {u: bytes([c]) for c, (_, u) in DIFF_GLYPHS.items()}

# F4 (Type0, Identity-H): CID -> unicode through its ToUnicode CMap
GREEK = [chr(0x03B1 + i) for i in range(25)]      # CIDs 1..25
BELL_CID, SPACE_CID = 26, 27                       # U+0007, U+0020
_CID_BY_UNI = {u: i + 1 for i, u in enumerate(GREEK)}
_CID_BY_UNI["\x07"] = BELL_CID
_CID_BY_UNI[" "] = SPACE_CID

# kerning numbers used between and inside words, with font sizes chosen so
# each decision clears the threshold by >= 0.02*fs
GAP_KERNS = (-300, -250, -180)        # insert a space
TIGHT_KERNS = (-120, -60, 40, 80)     # never insert a space
BODY_SIZES = (9, 10, 11)


def _lit(raw: bytes) -> bytes:
    return (b"(" + raw.replace(b"\\", b"\\\\").replace(b"(", b"\\(")
            .replace(b")", b"\\)") + b")")


def _encode(font: str, text: str) -> bytes:
    """Show-string operand for ``text`` in ``font``."""
    if font == "F4":
        return b"<" + b"".join(b"%04X" % _CID_BY_UNI[c] for c in text) + b">"
    out = bytearray()
    for c in text:
        out += _DIFF_BY_UNI.get(c) or c.encode("ascii")
    return _lit(bytes(out))


def _num(v: float) -> bytes:
    return (b"%d" % v) if float(v).is_integer() else \
        (b"%.3f" % v).rstrip(b"0")


class _PageBuilder:
    """Writes one page's content ops and, step for step, the spans the
    contract predicts for them."""

    def __init__(self, index: int, rng: random.Random):
        self.index = index
        self.rng = rng
        self.ops: list[bytes] = []
        self.spans: list[tuple[str, str, str, int]] = []
        self.cur: list | None = None     # [text, inserted spaces] of the open span
        self.fs = 0.0
        self.tc = 0.0
        self.font = ""
        self.img_refs: dict[str, str] = {}
        self.inline_n = 0
        self.y = 760.0

    # -- span bookkeeping ---------------------------------------------------
    def _close(self) -> None:
        if self.cur is not None:
            text, n = self.cur
            if text and not text.isspace() and min(text) >= " ":
                self.spans.append(("text", text, "", n))
        self.cur = None

    def op(self, raw: bytes, trigger: bool = False) -> None:
        self.ops.append(raw)
        if trigger:
            self._close()

    def set_font(self, font: str, fs: float) -> None:
        self.font, self.fs = font, float(fs)
        self.op(b"/%s %s Tf" % (font.encode(), _num(fs)), trigger=True)

    def set_tc(self, tc: float) -> None:
        self.tc = tc
        self.op(b"%s Tc" % _num(tc))

    def show(self, items: list, leading_space: bool = False,
             quote: bool = False) -> None:
        """items: text pieces (str) and kerning numbers (int)."""
        if quote:        # ' = T* then Tj: a span boundary first
            self._close()
        if self.cur is None:
            self.cur = ["", 0]
        if leading_space:
            self.cur[0] += " "
            self.cur[1] += 1
        operands = []
        for it in items:
            if isinstance(it, int):
                lhs = -it * self.fs / 1000.0 + min(self.tc, 0.0)
                thr = SPACE_EM * self.fs
                if abs(lhs - thr) < 0.02 * self.fs:
                    raise ValueError("kerning decision too close to call")
                if lhs >= thr:
                    self.cur[0] += " "
                    self.cur[1] += 1
                operands.append(b"%d" % it)
            else:
                self.cur[0] += it
                operands.append(_encode(self.font, it))
        if quote:
            self.ops.append(operands[0] + b" '")
        elif len(operands) == 1 and not isinstance(items[0], int):
            self.ops.append(operands[0] + b" Tj")
        else:
            self.ops.append(b"[" + b" ".join(operands) + b"] TJ")

    def media(self, ref: str) -> None:
        self._close()
        self.spans.append(("media", "", ref, 0))

    # -- words --------------------------------------------------------------
    def words(self, n: int, cap: bool = False) -> list[str]:
        ws = [self.rng.choice(WORDS) for _ in range(n)]
        if cap:
            ws[0] = ws[0].capitalize()
        return ws

    def kerned(self, words: list[str]) -> list:
        """TJ items for words: literal spaces or gap kerns between words,
        and now and then a tight kern splitting a word."""
        rng = self.rng
        items: list = []
        for i, w in enumerate(words):
            if len(w) > 3 and rng.random() < 0.25:
                cut = rng.randint(1, len(w) - 1)
                items += [w[:cut], rng.choice(TIGHT_KERNS), w[cut:]]
            else:
                items.append(w)
            if i + 1 < len(words):
                if rng.random() < 0.5:
                    items.append(rng.choice(GAP_KERNS))
                else:
                    items.append(" ")
        # merge adjacent strings
        merged: list = []
        for it in items:
            if merged and isinstance(it, str) and isinstance(merged[-1], str):
                merged[-1] += it
            else:
                merged.append(it)
        return merged

    # -- blocks -------------------------------------------------------------
    def tm(self, x: float, y: float) -> None:
        self.op(b"1 0 0 1 %s %s Tm" % (_num(x), _num(y)), trigger=True)

    def paragraph(self, n_lines: int) -> None:
        rng = self.rng
        fs = rng.choice(BODY_SIZES)
        lead = fs + 3
        self.op(b"BT", trigger=True)
        self.set_font("F1", fs)
        self.tm(72, self.y)
        use_tstar = rng.random() < 0.5
        if use_tstar:
            self.op(b"%s TL" % _num(lead))
        for li in range(n_lines):
            if li:
                if use_tstar and rng.random() < 0.3:
                    self.op(b"T*", trigger=True)
                else:
                    self.op(b"0 %s Td" % _num(-lead), trigger=True)
            self.line(fs)
            self.y -= lead
        self.op(b"ET", trigger=True)
        self.y -= lead

    def line(self, fs: float) -> None:
        rng = self.rng
        ws = self.words(rng.randint(9, 13), cap=rng.random() < 0.3)
        r = rng.random()
        if r < 0.25:
            # bold run in F2 (with a /Differences glyph) mid-line
            a = rng.randint(2, len(ws) - 3)
            bold = rng.choice(["deﬁne", "ﬂow", "ﬁrst", "•", "a–b", "x—y"])
            self.show(self.kerned(ws[:a]) + [" "])
            self.set_font("F2", fs)
            self.show([bold])
            self.set_font("F1", fs)
            lead_kern = rng.random() < 0.5
            tail = self.kerned(ws[a:])
            self.show(([rng.choice(GAP_KERNS)] + tail) if lead_kern
                      else [" "] + tail)
        elif r < 0.4:
            # coloured run: rg ... g, one of them whitespace-only
            a = rng.randint(2, len(ws) - 3)
            self.show(self.kerned(ws[:a]))
            self.op(b"0.7 0.1 0.1 rg", trigger=True)
            if rng.random() < 0.3:
                self.show([" "])          # whitespace-only span: dropped
                self.op(b"0 0 0.6 rg", trigger=True)
            self.show([" "] + self.kerned(ws[a:a + 2]))
            self.op(b"0 g", trigger=True)
            self.show([" "] + self.kerned(ws[a + 2:]))
        elif r < 0.5:
            # Greek inline symbols in the Type0 font
            a = rng.randint(2, len(ws) - 2)
            self.show(self.kerned(ws[:a]) + [" "])
            self.set_font("F4", fs)
            self.show([rng.choice(GREEK) + " " + rng.choice(GREEK)])
            self.set_font("F1", fs)
            self.show([" "] + self.kerned(ws[a:]))
        else:
            self.show(self.kerned(ws))

    def heading(self) -> None:
        """Tight-set heading: negative Tc is subtracted from kerning gaps
        (-180 at 14 pt inserts no space here, -250 and -300 do)."""
        rng = self.rng
        self.op(b"BT", trigger=True)
        self.set_font("F2", 14)
        self.set_tc(-1)
        self.tm(72, self.y)
        ws = self.words(rng.randint(2, 5), cap=True)
        items: list = []
        for i, w in enumerate(ws):
            items.append(w.upper())
            if i + 1 < len(ws):
                items.append(rng.choice((-300, -250, -180)))
        self.show(items)
        self.set_tc(0)
        self.op(b"ET", trigger=True)
        self.y -= 24

    def table(self, n_rows: int) -> None:
        """Courier rows; each cell after the first is a column jump, so
        its span starts with a leading space."""
        rng = self.rng
        fs = 9
        self.op(b"BT", trigger=True)
        self.set_font("F3", fs)
        for _ in range(n_rows):
            self.tm(72, self.y)
            for c in range(3):
                cell = rng.choice(WORDS)[:6] + str(rng.randint(0, 999))
                if c:
                    # widest cell is 9 glyphs <= 9*fs; jump well beyond it
                    self.op(b"150 0 Td", trigger=True)
                self.show([cell], leading_space=bool(c))
            self.y -= 12
        self.op(b"ET", trigger=True)
        self.y -= 8

    def formula(self) -> None:
        """A Type0 line; one in three carries a control character and so
        is dropped whole."""
        rng = self.rng
        self.op(b"BT", trigger=True)
        self.set_font("F4", 11)
        self.tm(90, self.y)
        text = " ".join("".join(rng.choice(GREEK)
                                for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(3, 6)))
        if rng.random() < 0.33:
            k = rng.randint(0, len(text))
            text = text[:k] + "\x07" + text[k:]
        self.show([text])
        if rng.random() < 0.5:
            self.op(b"0 -14 Td", trigger=True)
            self.show([rng.choice(GREEK), -300, rng.choice(GREEK)])
            self.y -= 14
        self.op(b"ET", trigger=True)
        self.y -= 18

    def quoted_lines(self) -> None:
        """Lines shown with the ' operator (T* + Tj)."""
        rng = self.rng
        fs = 10
        self.op(b"BT", trigger=True)
        self.set_font("F1", fs)
        self.tm(72, self.y)
        self.op(b"13 TL")
        self.show([" ".join(self.words(rng.randint(6, 10), cap=True))])
        for _ in range(rng.randint(1, 3)):
            self.show([" ".join(self.words(rng.randint(6, 10)))],
                      quote=True)
            self.y -= 13
        self.op(b"ET", trigger=True)
        self.y -= 16

    def image(self, name: str) -> None:
        self.op(b"q 120 0 0 90 72 %s cm /%s Do Q"
                % (_num(self.y - 90), name.encode()))
        if name not in self.img_refs:
            self.img_refs[name] = f"img_p{self.index}_{len(self.img_refs) + 1}"
        self.media(self.img_refs[name])
        self.y -= 100

    def inline_image(self) -> None:
        self.inline_n += 1
        px = bytes([self.index % 256, self.inline_n % 256]) + bytes(
            self.rng.randrange(256) for _ in range(14))
        self.op(b"q 24 0 0 24 400 %s cm\nBI /W 4 /H 4 /CS /G /BPC 8 "
                b"/F /AHx ID\n%s>\nEI Q" % (_num(self.y - 24),
                                           px.hex().encode()))
        self.media(f"inline_p{self.index}_{self.inline_n}")
        self.y -= 30

    def form(self, caption: str) -> None:
        """The document's form XObject: one caption span, one image."""
        self.op(b"q 1 0 0 1 0 %s cm /Fm1 Do Q" % _num(self.y - 700))
        self._close()
        self.spans.append(("text", caption, "", 0))
        name = "FmIm1"
        if name not in self.img_refs:
            self.img_refs[name] = f"img_p{self.index}_{len(self.img_refs) + 1}"
        self.media(self.img_refs[name])
        self.y -= 40

    def finish(self) -> tuple[bytes, list]:
        self._close()
        return b"\n".join(self.ops) + b"\n", self.spans


def _page(index: int, rng: random.Random, caption: str,
          n_images: int) -> tuple[bytes, list]:
    p = _PageBuilder(index, rng)
    p.heading()
    while p.y > 140:
        r = rng.random()
        if r < 0.55:
            p.paragraph(rng.randint(3, 7))
        elif r < 0.65:
            p.table(rng.randint(2, 4))
        elif r < 0.75:
            p.formula()
        elif r < 0.82:
            p.quoted_lines()
        elif r < 0.90 and p.y > 250:
            p.image(f"Im{rng.randint(1, n_images)}")
        elif r < 0.95:
            p.inline_image()
        elif p.y > 200:
            p.form(caption)
    return p.finish()


# ---- serialization --------------------------------------------------------

def _stream(dict_body: bytes, data: bytes) -> bytes:
    return (b"<<" + dict_body + b" /Length %d>>\nstream\n" % len(data)
            + data + b"\nendstream")


_TOUNICODE = (
    b"/CIDInit /ProcSet findresource begin\n12 dict begin\nbegincmap\n"
    b"/CMapName /Bench-UCS def\n/CMapType 2 def\n"
    b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
    b"1 beginbfrange\n<0001> <0019> <03B1>\nendbfrange\n"
    b"2 beginbfchar\n<001A> <0007>\n<001B> <0020>\nendbfchar\n"
    b"endcmap\nCMapName currentdict /CMap defineresource pop\nend\nend\n")


def _image_xobject(rng: random.Random) -> bytes:
    w, h = rng.randint(8, 24), rng.randint(8, 24)
    pixels = bytes(rng.randrange(256) for _ in range(w * h * 3))
    return _stream(b"/Type /XObject /Subtype /Image /Width %d /Height %d "
                   b"/ColorSpace /DeviceRGB /BitsPerComponent 8 "
                   b"/Filter /FlateDecode" % (w, h), zlib.compress(pixels))


class _Objects:
    def __init__(self):
        self.bodies: list[bytes | None] = [None]   # index = object number

    def reserve(self) -> int:
        self.bodies.append(None)
        return len(self.bodies) - 1

    def add(self, body: bytes) -> int:
        self.bodies.append(body)
        return len(self.bodies) - 1

    def set(self, num: int, body: bytes) -> None:
        self.bodies[num] = body


def _write_classic(objs: _Objects, root: int) -> bytes:
    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0] * len(objs.bodies)
    for num in range(1, len(objs.bodies)):
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num + objs.bodies[num] + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % len(objs.bodies)
    for num in range(1, len(objs.bodies)):
        out += b"%010d 00000 n \n" % offsets[num]
    out += (b"trailer\n<< /Size %d /Root %d 0 R >>\nstartxref\n%d\n%%%%EOF\n"
            % (len(objs.bodies), root, xref_at))
    return bytes(out)


def _write_objstm(objs: _Objects, root: int, per_stm: int = 50) -> bytes:
    """Non-stream objects packed into Flate object streams, indexed by a
    Flate xref stream."""
    bodies = objs.bodies
    n = len(bodies)
    plain = [i for i in range(1, n) if not bodies[i].endswith(b"endstream")]
    entries: dict[int, tuple] = {}
    out = bytearray(b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
    num = n
    for k in range(0, len(plain), per_stm):
        group = plain[k:k + per_stm]
        head, blob = [], bytearray()
        for idx, m in enumerate(group):
            head.append(b"%d %d" % (m, len(blob)))
            blob += bodies[m] + b"\n"
            entries[m] = (2, num, idx)
        header = b" ".join(head) + b"\n"
        data = zlib.compress(header + bytes(blob))
        entries[num] = (1, len(out), 0)
        out += b"%d 0 obj\n" % num + _stream(
            b"/Type /ObjStm /N %d /First %d /Filter /FlateDecode"
            % (len(group), len(header)), data) + b"\nendobj\n"
        num += 1
    for m in range(1, n):
        if m not in entries:
            entries[m] = (1, len(out), 0)
            out += b"%d 0 obj\n" % m + bodies[m] + b"\nendobj\n"
    xref_num = num
    size = xref_num + 1
    entries[xref_num] = (1, len(out), 0)
    rows = bytearray(b"\x00\x00\x00\x00\x00\xff\xff")
    for m in range(1, size):
        t, a, b = entries[m]
        rows += bytes([t]) + a.to_bytes(4, "big") + b.to_bytes(2, "big")
    out += b"%d 0 obj\n" % xref_num + _stream(
        b"/Type /XRef /Size %d /W [1 4 2] /Root %d 0 R /Filter /FlateDecode"
        % (size, root), zlib.compress(bytes(rows))) + b"\nendobj\n"
    out += b"startxref\n%d\n%%%%EOF\n" % entries[xref_num][1]
    return bytes(out)


def make_document(seed: int, n_pages: int) -> tuple[bytes, list]:
    """One PDF and its predicted spans ``[(kind, text, media_ref,
    inserted_spaces), ...]`` in document order."""
    rng = random.Random(seed)
    objs = _Objects()
    catalog = objs.reserve()
    pages_root = objs.reserve()
    f1 = objs.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                  b"/Encoding /WinAnsiEncoding >>")
    diffs = b" ".join(b"/" + name.encode() for name, _ in
                      (DIFF_GLYPHS[c] for c in sorted(DIFF_GLYPHS)))
    f2 = objs.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Bold "
                  b"/Encoding << /Type /Encoding /BaseEncoding "
                  b"/WinAnsiEncoding /Differences [128 " + diffs + b"] >> >>")
    f3 = objs.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")
    tounicode = objs.add(_stream(b"/Filter /FlateDecode",
                                 zlib.compress(_TOUNICODE)))
    widths = b" ".join(b"%d" % rng.randint(420, 640) for _ in range(27))
    desc = objs.add(b"<< /Type /FontDescriptor /FontName /BenchGreek "
                    b"/Flags 4 /FontBBox [0 -200 1000 900] /ItalicAngle 0 "
                    b"/Ascent 900 /Descent -200 /CapHeight 700 /StemV 80 >>")
    cidfont = objs.add(
        b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /BenchGreek "
        b"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) "
        b"/Supplement 0 >> /FontDescriptor %d 0 R /DW 1000 /W [1 [%s]] >>"
        % (desc, widths))
    f4 = objs.add(b"<< /Type /Font /Subtype /Type0 /BaseFont /BenchGreek "
                  b"/Encoding /Identity-H /DescendantFonts [%d 0 R] "
                  b"/ToUnicode %d 0 R >>" % (cidfont, tounicode))
    n_images = rng.randint(2, 4)
    images = [objs.add(_image_xobject(rng)) for _ in range(n_images)]
    fm_image = objs.add(_image_xobject(rng))
    caption = "Figure " + " ".join(
        [str(rng.randint(1, 9))] + [rng.choice(WORDS) for _ in range(5)])
    form_content = (b"BT /F1 8 Tf 1 0 0 1 72 660 Tm %s Tj ET\n"
                    b"q 30 0 0 30 400 650 cm /FmIm1 Do Q\n"
                    % _encode("F1", caption))
    form = objs.add(_stream(
        b"/Type /XObject /Subtype /Form /BBox [0 0 612 792] "
        b"/Matrix [1 0 0 1 0 0] /Resources << /Font << /F1 %d 0 R >> "
        b"/XObject << /FmIm1 %d 0 R >> >> /Filter /FlateDecode"
        % (f1, fm_image), zlib.compress(form_content)))
    xobjects = b" ".join(b"/Im%d %d 0 R" % (i + 1, num)
                         for i, num in enumerate(images))
    resources = (b"<< /Font << /F1 %d 0 R /F2 %d 0 R /F3 %d 0 R /F4 %d 0 R >>"
                 b" /XObject << %s /Fm1 %d 0 R >> >>"
                 % (f1, f2, f3, f4, xobjects, form))

    spans: list = []
    page_nums: list[int] = []
    for i in range(n_pages):
        content, page_spans = _page(i, rng, caption, n_images)
        spans += page_spans
        if rng.random() < 0.2:
            # split the content over two streams at an op boundary
            cut = content.index(b"\nBT", len(content) // 2) \
                if b"\nBT" in content[len(content) // 2:] else len(content)
            parts = [content[:cut], content[cut:]]
        else:
            parts = [content]
        streams = [objs.add(_stream(b"/Filter /FlateDecode",
                                    zlib.compress(p))) for p in parts]
        contents = (b"%d 0 R" % streams[0] if len(streams) == 1 else
                    b"[" + b" ".join(b"%d 0 R" % s for s in streams) + b"]")
        page_nums.append(objs.add(b"<< /Type /Page /Parent %d 0 R "
                                  b"/Contents " % pages_root + contents
                                  + b" >>"))
    # page tree: leaves under intermediate nodes of <= 16 kids
    kids = []
    for k in range(0, n_pages, 16):
        leaf = page_nums[k:k + 16]
        if n_pages <= 16:
            kids = leaf
            break
        node = objs.reserve()
        for num in leaf:
            objs.set(num, objs.bodies[num].replace(
                b"/Parent %d 0 R" % pages_root, b"/Parent %d 0 R" % node))
        objs.set(node, b"<< /Type /Pages /Parent %d 0 R /Count %d /Kids [%s] >>"
                 % (pages_root, len(leaf),
                    b" ".join(b"%d 0 R" % n for n in leaf)))
        kids.append(node)
    objs.set(pages_root, b"<< /Type /Pages /Count %d /Kids [%s] "
             b"/MediaBox [0 0 612 792] /Resources %s >>"
             % (n_pages, b" ".join(b"%d 0 R" % n for n in kids), resources))
    objs.set(catalog, b"<< /Type /Catalog /Pages %d 0 R >>" % pages_root)
    if rng.random() < 0.5:
        return _write_classic(objs, catalog), spans
    return _write_objstm(objs, catalog), spans
