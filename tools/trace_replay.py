"""Dev tool: feed a reference-bundle instrumentation trace (JSONL from
/tmp/refrun/trace.js) into the SpanBuilder and diff the produced text spans
against the golden tspan-texts file.  Validates the span-emission contract
(SURVEY.md §5.3) independently of the PDF parser.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from iesl_pdf_to_text_ray.functions.golden import parse_golden_spans
from iesl_pdf_to_text_ray.functions.span_builder import SpanBuilder


def decode_items(g, is_type3: bool):
    items = []
    for it in g:
        if it == "NULL":
            items.append(None)
        elif isinstance(it, (int, float)):
            items.append(float(it))
        else:
            # Type3 glyphs with no toUnicode mapping (fontChar NUL marker in
            # the trace) are suppressed: advance only, no text.
            items.append((it["u"], float(it["w"])))
    return items


def replay_trace(path: str) -> list[tuple[str, str, str]]:
    events = [json.loads(line) for line in open(path)]
    spans: list[tuple[str, str, str]] = []
    b: SpanBuilder | None = None
    inline_ref = [0]
    page_no = [0]
    skip = 0
    pending_ref: str | None = None
    font_is_type3 = False

    for i, e in enumerate(events):
        if skip:
            skip -= 1
            continue
        t = e["e"]
        if t == "page":
            if b is not None:
                spans.extend(b.collect())
            b = SpanBuilder()
            page_no[0] = e["n"]
            inline_ref[0] = 0
            pending_ref = None
            continue
        if b is None:
            continue
        if t == "setFont":
            fm = e.get("fm")
            font_is_type3 = (e.get("name") == "Type3")
            b.set_font(e["sz"], fm[0] if fm else None)
        elif t == "showText":
            b.show_text(decode_items(e["g"], font_is_type3))
        elif t == "beginText":
            b.begin_text()
        elif t == "endText":
            b.end_text()
        elif t == "moveText":
            b.move_text(e["x"], e["y"])
        elif t == "setTextMatrix":
            b.set_text_matrix(*e["m"])
        elif t == "setLeading":
            v = e["v"]
            if isinstance(v, list):
                v = v[0]
            b.set_leading(v)
        elif t == "setLeadingMoveText":
            pass  # nested setLeading + moveText events follow
        elif t == "nextLine":
            pass  # nested moveText event follows
        elif t == "setCharSpacing":
            b.set_char_spacing(e["v"])
        elif t == "setWordSpacing":
            b.set_word_spacing(e["v"])
        elif t == "setHScale":
            b.set_hscale(e["v"])
        elif t == "setFillRGBColor":
            b.set_fill_rgb()
        elif t == "save":
            b.save()
        elif t == "restore":
            b.restore()
        elif t == "transform":
            b.transform()
        elif t == "clip":
            b.clip()
        elif t == "endPath":
            b.end_path()
        elif t == "constructPath":
            b.construct_path()
        elif t == "paintJpegXObject":
            b.paint_jpeg(e["id"])
        elif t == "paintImageXObject":
            pending_ref = e["id"]
        elif t == "paintInlineImageXObject":
            if pending_ref is None:
                inline_ref[0] += 1
                ref = f"inline_p{page_no[0]}_{inline_ref[0]}"
            else:
                ref = pending_ref
                pending_ref = None
            b.paint_inline_image(ref)
            skip = 1  # nested clip event
        elif t == "paintImageMaskXObject":
            inline_ref[0] += 1
            b.paint_image_mask(f"mask_p{page_no[0]}_{inline_ref[0]}")
            skip = 2  # nested paintInlineImageXObject + clip events
        elif t in ("paintFormXObjectBegin", "paintFormXObjectEnd",
                   "clipSkipped", "endPathErr", "constructPathErr",
                   "closePathErr", "closeStrokeErr", "closeFillStrokeErr"):
            pass
        else:
            print("UNHANDLED", t, file=sys.stderr)
    if b is not None:
        spans.extend(b.collect())
    return spans


def diff(doc: str, show: int = 10):
    golden = parse_golden_spans(
        f"/root/reference/src/test/resources/output/{doc}.pdf.expected/tspan-texts.txt")
    spans = replay_trace(f"/tmp/refrun/traces/{doc}.jsonl")
    mine = [s[1] for s in spans if s[0] == "text"]
    n_media = sum(1 for s in spans if s[0] == "media")
    import difflib
    sm = difflib.SequenceMatcher(None, golden, mine, autojunk=False)
    eq = sum(b.size for b in sm.get_matching_blocks())
    print(f"{doc}: golden={len(golden)} mine={len(mine)} match={eq} "
          f"({100.0 * eq / max(len(golden), 1):.2f}%) media={n_media}")
    shown = 0
    for op, i1, i2, j1, j2 in sm.get_opcodes():
        if op == "equal" or shown >= show:
            continue
        print(f"  {op} golden[{i1}:{i2}] mine[{j1}:{j2}]")
        for s in golden[i1:min(i2, i1 + 3)]:
            print(f"    G {s!r}")
        for s in mine[j1:min(j2, j1 + 3)]:
            print(f"    M {s!r}")
        shown += 1


if __name__ == "__main__":
    docs = sys.argv[1:] or ["1301.4293", "C04-1204", "test24", "test25"]
    for d in docs:
        diff(d)
