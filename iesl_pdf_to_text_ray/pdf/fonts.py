"""Font translation: font dict -> widths + charcode->unicode + matrix.

Reproduces the *observable* glyph-stream behavior of the reference's font
pipeline for text extraction: widths (/Widths or standard-14 AFM metrics via
encoding-aware charcode mapping) and unicode (ToUnicode CMap, else default
encoding + /Differences resolved through the Adobe Glyph List with the
G/g/C/c/uniXXXX/uXXXX heuristics).  Font *programs* are never parsed — the
reference builds toUnicode before looking at the font file, so embedded
encodings do not affect extraction output.

Behavioral reference: PartialEvaluator.extractDataStructures/extractWidths/
translateFont and Font.buildToUnicode/charToGlyph
(/root/reference/src/main/js/pdf.combined.js:46408-46938, 34243-36724).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .cmap import CMap, make_to_unicode, parse_cmap
from .filters import decode_stream
from .objects import Name, Stream

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# FontFlags (PDF spec table 123)
FLAG_FIXED_PITCH = 1
FLAG_SERIF = 2
FLAG_SYMBOLIC = 4
FLAG_NONSYMBOLIC = 32


@lru_cache(maxsize=None)
def _load(name: str):
    with open(os.path.join(_DATA_DIR, name)) as f:
        return json.load(f)


def glyph_list() -> dict:
    return _load("glyphlist.json")


def encodings() -> dict:
    return _load("encodings.json")


def std_fonts() -> dict:
    return _load("stdfonts.json")


def metrics() -> dict:
    return _load("metrics.json")


def get_unicode_for_glyph(name: str, glyphs: dict) -> int:
    """AGL lookup + uniXXXX / uXXXX[XX] forms.  Returns -1 if unknown."""
    code = glyphs.get(name)
    if code is not None:
        return code
    if len(name) > 1:
        prefix = name[0]
        rest = ""
        if name.startswith("uni"):
            rest = name[3:]
        elif prefix in ("u", "U"):
            rest = name[1:]
        if rest and all(c in "0123456789ABCDEFabcdef" for c in rest) \
                and 4 <= len(rest) <= 6:
            try:
                code = int(rest, 16)
                if 0 <= code <= 0x10FFFF:
                    return code
            except ValueError:
                pass
    return -1


class TranslatedFont:
    """Everything the interpreter needs to turn show-text strings into
    glyph streams: per-charcode width + unicode, font matrix, type flags."""

    __slots__ = ("name", "widths", "default_width", "to_unicode",
                 "font_matrix", "is_type3", "composite", "cmap",
                 "vertical", "glyph_cache", "_byte_table")

    def __init__(self):
        self.name = ""
        self.widths: dict[int, float] = {}
        self.default_width = 0.0
        self.to_unicode: dict[int, str] = {}
        self.font_matrix: list[float] | None = None  # None => [0.001,...]
        self.is_type3 = False
        self.composite = False
        self.cmap: CMap | None = None
        self.vertical = False
        self.glyph_cache: dict = {}
        self._byte_table: list | None = None

    # glyph stream: list of (unicode, width) tuples for a byte string
    def chars_to_glyphs(self, s: bytes) -> list[tuple[str, float]]:
        cache = self.glyph_cache
        out = cache.get(s)
        if out is not None:
            return out
        out = []
        if self.composite and self.cmap is not None:
            i = 0
            n = len(s)
            while i < n:
                code, nb = self.cmap.read_char_code(s, i)
                i += nb
                cid = self.cmap.lookup(code)
                cid = cid if isinstance(cid, int) else 0
                w = self.widths.get(cid, self.default_width)
                uni = self.to_unicode.get(code)
                if uni is None:
                    uni = chr(code) if code <= 0x10FFFF else "�"
                out.append((uni, float(w)))
        else:
            table = self._byte_table
            if table is None:
                # per-charcode tuple table, built once per font
                dw = self.default_width
                tu = self.to_unicode
                ws = self.widths
                table = self._byte_table = [
                    (tu.get(c) or chr(c), float(ws.get(c, dw)))
                    for c in range(256)]
            out = [table[c] for c in s]
        cache[s] = out
        return out


def _is_serif(base_name: str) -> bool:
    sf = std_fonts()
    wo_style = base_name.split("-")[0]
    return wo_style in sf["serifFonts"] or "serif" in base_name.lower()


def _std_metrics(base_name: str):
    sf = std_fonts()
    met = metrics()
    lookup = sf["stdFontMap"].get(base_name, base_name)
    if lookup not in met:
        lookup = "Times-Roman" if _is_serif(base_name) else "Helvetica"
    glyph_widths = met[lookup]
    if isinstance(glyph_widths, (int, float)):
        return {}, float(glyph_widths), True
    return glyph_widths, 0.0, False


def _build_charcode_to_width(widths_by_name: dict, default_encoding: list,
                             differences: dict) -> dict[int, float]:
    out: dict[int, float] = {}
    for c in range(256):
        name = differences.get(c)
        if name is not None and widths_by_name.get(name):
            out[c] = widths_by_name[name]
            continue
        ename = default_encoding[c] if c < len(default_encoding) else ""
        if ename and widths_by_name.get(ename):
            out[c] = widths_by_name[ename]
    return out


def translate_font(font_dict: dict, xref) -> TranslatedFont:
    fetch = xref.fetch_if_ref
    f = TranslatedFont()
    subtype = str(fetch(font_dict.get("Subtype")) or "")
    base_font = fetch(font_dict.get("BaseFont"))
    base_name = str(base_font) if isinstance(base_font, Name) else ""

    composite = subtype == "Type0"
    descendants = fetch(font_dict.get("DescendantFonts"))
    desc_dict = None
    if composite and isinstance(descendants, list) and descendants:
        desc_dict = fetch(descendants[0])
    work_dict = desc_dict if isinstance(desc_dict, dict) else font_dict

    f.name = base_name or str(fetch(work_dict.get("BaseFont")) or "")
    f.composite = composite
    f.is_type3 = subtype == "Type3"
    if f.is_type3:
        fm = fetch(font_dict.get("FontMatrix"))
        if isinstance(fm, list) and len(fm) == 6:
            f.font_matrix = [float(v) for v in fm]

    descriptor = fetch(work_dict.get("FontDescriptor"))
    flags = 0
    has_file = False
    if isinstance(descriptor, dict):
        flags = int(fetch(descriptor.get("Flags")) or 0)
        has_file = any(k in descriptor
                       for k in ("FontFile", "FontFile2", "FontFile3"))
    elif not f.is_type3 and base_name:
        # standard-14 compatibility: synthesize flags
        clean = base_name.replace(",", "-").replace("_", "-")
        _, dflt, mono = _std_metrics(clean)
        sf = std_fonts()
        wo = clean.split("-")[0]
        flags = ((FLAG_SERIF if _is_serif(wo) else 0)
                 | (FLAG_FIXED_PITCH if mono else 0)
                 | (FLAG_SYMBOLIC if wo in sf["symbolsFonts"]
                    else FLAG_NONSYMBOLIC))

    # ---- encoding: base name + differences ------------------------------
    differences: dict[int, str] = {}
    base_encoding_name = None
    enc = fetch(font_dict.get("Encoding"))
    if enc is None and desc_dict is not None:
        enc = fetch(work_dict.get("Encoding"))
    if isinstance(enc, dict):
        be = fetch(enc.get("BaseEncoding"))
        base_encoding_name = str(be) if isinstance(be, Name) else None
        diff = fetch(enc.get("Differences"))
        if isinstance(diff, list):
            idx = 0
            for item in diff:
                item = fetch(item)
                if isinstance(item, (int, float)):
                    idx = int(item)
                elif isinstance(item, Name):
                    differences[idx] = str(item)
                    idx += 1
    elif isinstance(enc, Name):
        base_encoding_name = str(enc)
    if base_encoding_name not in ("MacRomanEncoding", "MacExpertEncoding",
                                  "WinAnsiEncoding"):
        base_encoding_name = None

    encs = encodings()
    if base_encoding_name:
        default_encoding = encs[base_encoding_name]
    else:
        default_encoding = (encs["WinAnsiEncoding"]
                            if subtype == "TrueType"
                            else encs["StandardEncoding"])
        if flags & FLAG_SYMBOLIC:
            default_encoding = encs["MacRomanEncoding"]
            if not has_file:
                if "Symbol" in f.name:
                    default_encoding = encs["SymbolSetEncoding"]
                elif "Dingbats" in f.name:
                    default_encoding = encs["ZapfDingbatsEncoding"]

    # ---- composite: CID encoding cmap -----------------------------------
    if composite:
        cid_enc = fetch(font_dict.get("Encoding"))
        if isinstance(cid_enc, Name) and str(cid_enc).startswith("Identity"):
            f.cmap = CMap(identity=True, vertical=str(cid_enc).endswith("V"))
        elif isinstance(cid_enc, Stream):
            f.cmap = parse_cmap(decode_stream(cid_enc, xref))
        else:
            f.cmap = CMap(identity=True)
        f.vertical = f.cmap.vertical

    # ---- widths ---------------------------------------------------------
    first_char = int(fetch(work_dict.get("FirstChar")) or 0)
    if composite:
        f.default_width = float(fetch(work_dict.get("DW")) or 1000)
        w = fetch(work_dict.get("W"))
        if isinstance(w, list):
            i = 0
            while i < len(w):
                start = fetch(w[i])
                i += 1
                if i >= len(w):
                    break
                second = fetch(w[i])
                i += 1
                if isinstance(second, list):
                    for j, width in enumerate(second):
                        width = fetch(width)
                        if isinstance(width, (int, float)):
                            f.widths[int(start) + j] = float(width)
                else:
                    if i >= len(w):
                        break
                    width = fetch(w[i])
                    i += 1
                    if isinstance(width, (int, float)):
                        for c in range(int(start), int(second) + 1):
                            f.widths[c] = float(width)
    else:
        widths = fetch(work_dict.get("Widths"))
        if isinstance(widths, list):
            for j, width in enumerate(widths):
                width = fetch(width)
                if isinstance(width, (int, float)):
                    f.widths[first_char + j] = float(width)
            mw = None
            if isinstance(descriptor, dict):
                mw = fetch(descriptor.get("MissingWidth"))
            f.default_width = float(mw) if isinstance(mw, (int, float)) else 0.0
        elif base_name:
            clean = base_name.replace(",", "-").replace("_", "-")
            by_name, dflt, _mono = _std_metrics(clean)
            f.default_width = dflt
            f.widths = _build_charcode_to_width(by_name, default_encoding,
                                                differences)

    # ---- toUnicode ------------------------------------------------------
    tu = font_dict.get("ToUnicode") or work_dict.get("ToUnicode")
    to_unicode = make_to_unicode(tu, xref) if tu is not None else None
    if to_unicode:
        f.to_unicode = to_unicode
    elif not composite:
        glyphs = glyph_list()
        out: dict[int, str] = {}
        for c in range(256):
            gname = differences.get(c)
            if gname is None:
                gname = default_encoding[c] if c < len(default_encoding) else ""
            if not gname:
                continue
            code = glyphs.get(gname)
            if code is None:
                # heuristics for unknown glyph names (reference: 36477-36520)
                code0 = 0
                h = gname[0]
                if h == "G" and len(gname) == 3:
                    try:
                        code0 = int(gname[1:], 16)
                    except ValueError:
                        code0 = 0
                elif h == "g" and len(gname) == 5:
                    try:
                        code0 = int(gname[1:], 16)
                    except ValueError:
                        code0 = 0
                elif h in ("C", "c") and len(gname) >= 3:
                    try:
                        code0 = int(gname[1:])
                    except ValueError:
                        code0 = 0
                else:
                    u = get_unicode_for_glyph(gname, glyphs)
                    if u != -1:
                        code0 = u
                if code0:
                    if base_encoding_name and code0 == c:
                        be = encodings()[base_encoding_name]
                        bname = be[c] if c < len(be) else ""
                        if bname and glyphs.get(bname) is not None:
                            out[c] = chr(glyphs[bname])
                            continue
                    out[c] = chr(code0)
                continue
            out[c] = chr(code)
        f.to_unicode = out
    # composite without ToUnicode: identity (chars_to_glyphs falls back)
    return f
