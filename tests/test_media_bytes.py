"""Media byte materialization (reference: PDFImage + convertImgDataToPng,
pdf.combined.js:41838 / 19659-19849): decodable rasters become structurally
valid PNGs, DCT images pass through as JPEG, refs join back to the span
stream."""

from __future__ import annotations

import struct
import zlib

import pytest

from iesl_pdf_to_text_ray.pdf.extractor import extract_media, extract_spans
from iesl_pdf_to_text_ray.pdf.images import png_encode
from iesl_pdf_to_text_ray.sources.corpus import (base_documents,
                                                 reference_pdf_bytes)


def _parse_png(data: bytes):
    assert data.startswith(b"\x89PNG\r\n\x1a\n")
    pos = 8
    chunks = {}
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + payload) & 0xFFFFFFFF, tag
        chunks.setdefault(tag, []).append(payload)
        pos += 12 + length
    assert b"IEND" in chunks
    return chunks


def test_png_encoder_roundtrip():
    px = bytes(range(12))  # 2x2 RGB
    png = png_encode(2, 2, px, color_type=2)
    chunks = _parse_png(png)
    w, h, depth, ct = struct.unpack(">IIBB", chunks[b"IHDR"][0][:10])
    assert (w, h, depth, ct) == (2, 2, 8, 2)
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    assert raw == b"\x00" + px[:6] + b"\x00" + px[6:]


@pytest.mark.parametrize("doc,expect_mime", [
    ("test25", "image/png"), ("test24", "image/jpeg")])
def test_corpus_media_materializes(doc, expect_mime):
    data = reference_pdf_bytes()[doc]
    media = extract_media(data)
    assert media
    by_mime = [m for m in media if m["mime"] == expect_mime]
    assert by_mime, [m["mime"] for m in media]
    for m in by_mime:
        assert m["width"] > 0 and m["height"] > 0
        if m["mime"] == "image/png":
            chunks = _parse_png(m["data"])
            w, h = struct.unpack(">II", chunks[b"IHDR"][0][:8])
            assert (w, h) == (m["width"], m["height"])
        else:
            assert m["data"][:2] == b"\xff\xd8"  # JPEG SOI


def test_media_refs_join_spans():
    data = base_documents()[3].pdf_bytes
    span_refs = {s[2] for s in extract_spans(data) if s[0] == "media"}
    media_refs = {m["media_ref"] for m in extract_media(data)}
    # every materialized image is referenced by the span stream (the span
    # stream may repeat a cached ref; the media list is unique per ref)
    assert media_refs <= span_refs
    assert len(media_refs) > 0


# ---- /Decode arrays (reference PDFImage.decodeBuffer :42126) --------------

def _mini_pdf(image_obj: bytes) -> bytes:
    content = b"q 8 0 0 4 0 0 cm /Im1 Do Q"
    objects = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 100 100] "
            b"/Resources << /XObject << /Im1 5 0 R >> >> /Contents 4 0 R >>"),
        4: b"<< /Length %d >>\nstream\n" % len(content) + content
           + b"\nendstream",
        5: image_obj,
    }
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objects):
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num)
        out.extend(objects[num])
        out.extend(b"\nendobj\n")
    xref_off = len(out)
    out.extend(b"xref\n0 6\n0000000000 65535 f \n")
    for num in range(1, 6):
        out.extend(b"%010d 00000 n \n" % offsets[num])
    out.extend(b"trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n"
               b"%d\n%%%%EOF\n" % xref_off)
    return bytes(out)


def _gray_pixels(png: bytes, w: int, h: int) -> bytes:
    chunks = _parse_png(png)
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    return b"".join(raw[y * (w + 1) + 1:(y + 1) * (w + 1)]
                    for y in range(h))


def test_decode_array_inverts_gray():
    import zlib as _z
    samples = bytes(range(0, 32))          # 8x4 gray ramp
    payload = _z.compress(samples)
    img = (b"<< /Type /XObject /Subtype /Image /Width 8 /Height 4 "
           b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
           b"/Decode [1 0] /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(payload) + payload
           + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    assert media[0]["mime"] == "image/png"
    pixels = _gray_pixels(media[0]["data"], 8, 4)
    assert pixels == bytes(255 - v for v in samples)


def test_decode_array_inverts_image_mask():
    import zlib as _z
    packed = bytes([0b10110001, 0b01001110, 0b11110000, 0b00001111])
    payload = _z.compress(packed)
    img = (b"<< /Type /XObject /Subtype /Image /Width 8 /Height 4 "
           b"/ImageMask true /BitsPerComponent 1 /Decode [1 0] "
           b"/Filter /FlateDecode /Length %d >>\nstream\n" % len(payload)
           + payload + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    assert media[0]["mime"] == "image/png"
    pixels = _gray_pixels(media[0]["data"], 8, 4)
    bits = [(packed[i // 8] >> (7 - i % 8)) & 1 for i in range(32)]
    # default mask decode maps 1->255 after scaling; [1 0] flips it
    assert pixels == bytes(255 if b == 0 else 0 for b in bits)


def test_default_decode_unchanged():
    import zlib as _z
    samples = bytes(range(0, 32))
    payload = _z.compress(samples)
    img = (b"<< /Type /XObject /Subtype /Image /Width 8 /Height 4 "
           b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
           b"/Decode [0 1] /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(payload) + payload
           + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    pixels = _gray_pixels(media[0]["data"], 8, 4)
    assert pixels == samples


# ---- DeviceCMYK (reference DeviceCmykCS :41179) ---------------------------

def test_cmyk_matches_reference_polynomial():
    import base64
    import json
    import os
    import random
    import shutil
    import subprocess
    bundle = "/root/reference/src/main/js/pdf.combined.js"
    if shutil.which("node") is None or not os.path.exists(bundle):
        import pytest
        pytest.skip("node or reference bundle unavailable")
    from iesl_pdf_to_text_ray.pdf.images import _cmyk_to_rgb
    rng = random.Random(31)
    src = bytes(rng.randrange(256) for _ in range(4 * 500))
    mine = _cmyk_to_rgb(src)
    lines = open(bundle, encoding="utf-8").read().split("\n")
    a = next(i for i, l in enumerate(lines)
             if l.startswith("var DeviceCmykCS = "))
    b = next(i for i in range(a, len(lines)) if lines[i] == "})();")
    closure = "\n".join(lines[a:b + 1])
    js = "\n".join([
        "function shadow(o,p,v){return v;}",
        "var ColorSpace = {prototype: {}, isDefaultDecode:"
        " function(){return true;}};",
        closure,
        "var chunks=[];process.stdin.on('data',c=>chunks.push(c));",
        "process.stdin.on('end',function(){",
        "  var src=new Uint8Array(Buffer.from("
        "JSON.parse(Buffer.concat(chunks).toString()).b64,'base64'));",
        "  var dest=new Uint8Array(src.length/4*3);",
        "  new DeviceCmykCS().getRgbBuffer(src,0,src.length/4,dest,0,8,0);",
        "  process.stdout.write(JSON.stringify("
        "{b64:Buffer.from(dest).toString('base64')}));",
        "});"])
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".js", delete=False) as f:
        f.write(js)
        path = f.name
    p = subprocess.run(["node", path],
                       input=json.dumps(
                           {"b64": base64.b64encode(src).decode()}).encode(),
                       capture_output=True, timeout=60)
    ref = base64.b64decode(json.loads(p.stdout)["b64"])
    assert mine == ref


def test_cmyk_image_materializes_rgb_png():
    import zlib as _z
    # 4x2 CMYK: pure C, M, Y, K, white, mid-gray-ish, red-ish, blue-ish
    cmyk = bytes([255, 0, 0, 0,  0, 255, 0, 0,  0, 0, 255, 0,
                  0, 0, 0, 255,  0, 0, 0, 0,  64, 64, 64, 64,
                  0, 255, 255, 0,  255, 255, 0, 0])
    payload = _z.compress(cmyk)
    img = (b"<< /Type /XObject /Subtype /Image /Width 4 /Height 2 "
           b"/ColorSpace /DeviceCMYK /BitsPerComponent 8 "
           b"/Filter /FlateDecode /Length %d >>\nstream\n" % len(payload)
           + payload + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    assert media[0]["mime"] == "image/png"
    from iesl_pdf_to_text_ray.pdf.images import _cmyk_to_rgb
    chunks = _parse_png(media[0]["data"])
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    pixels = b"".join(raw[y * 13 + 1:(y + 1) * 13] for y in range(2))
    assert pixels == _cmyk_to_rgb(cmyk)


# ---- Lab colorspace (reference LabCS :41662) ------------------------------

def test_lab_matches_reference_conversion():
    import base64
    import json
    import os
    import random
    import shutil
    import subprocess
    import tempfile
    bundle = "/root/reference/src/main/js/pdf.combined.js"
    if shutil.which("node") is None or not os.path.exists(bundle):
        import pytest
        pytest.skip("node or reference bundle unavailable")
    from iesl_pdf_to_text_ray.pdf.images import _lab_to_rgb
    rng = random.Random(7)
    src = bytes(rng.randrange(256) for _ in range(3 * 400))
    for wp, rng4 in (([0.9505, 1.0, 1.0888], [-100, 100, -100, 100]),
                     ([0.9642, 1.0, 0.8249], [-50, 80, -40, 90])):
        params = tuple(wp) + tuple(float(v) for v in rng4)
        mine = _lab_to_rgb(src, params)
        lines = open(bundle, encoding="utf-8").read().split("\n")
        a = next(i for i, l in enumerate(lines)
                 if l.startswith("var LabCS = "))
        b = next(i for i in range(a, len(lines)) if lines[i] == "})();")
        js = "\n".join([
            "function shadow(o,p,v){return v;}",
            "function error(m){throw new Error(m);}",
            "function warn(m){} var info=warn;",
            "var ColorSpace = {prototype: {}, isDefaultDecode:"
            " function(){return true;}};",
            "\n".join(lines[a:b + 1]),
            "var chunks=[];process.stdin.on('data',c=>chunks.push(c));",
            "process.stdin.on('end',function(){",
            "  var req=JSON.parse(Buffer.concat(chunks).toString());",
            "  var src=new Uint8Array(Buffer.from(req.b64,'base64'));",
            "  var cs=new LabCS(req.wp,null,req.range);",
            "  var dest=new Uint8Array(src.length);",
            "  cs.getRgbBuffer(src,0,src.length/3,dest,0,8,0);",
            "  process.stdout.write(JSON.stringify("
            "{b64:Buffer.from(dest).toString('base64')}));",
            "});"])
        with tempfile.NamedTemporaryFile("w", suffix=".js",
                                         delete=False) as f:
            f.write(js)
            path = f.name
        p = subprocess.run(
            ["node", path],
            input=json.dumps({"b64": base64.b64encode(src).decode(),
                              "wp": wp, "range": rng4}).encode(),
            capture_output=True, timeout=60)
        r = json.loads(p.stdout)
        ref = base64.b64decode(r["b64"])
        assert mine == ref, (wp, rng4)


def test_lab_image_materializes_rgb_png():
    import zlib as _z
    lab = bytes([128, 128, 128, 255, 0, 0, 0, 255, 255, 40, 200, 90])
    payload = _z.compress(lab)
    img = (b"<< /Type /XObject /Subtype /Image /Width 4 /Height 1 "
           b"/ColorSpace [/Lab << /WhitePoint [0.9505 1.0 1.0888] >>] "
           b"/BitsPerComponent 8 /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(payload) + payload
           + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    assert media[0]["mime"] == "image/png"
    from iesl_pdf_to_text_ray.pdf.images import _lab_to_rgb
    chunks = _parse_png(media[0]["data"])
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    pixels = raw[1:13]
    assert pixels == _lab_to_rgb(
        lab, (0.9505, 1.0, 1.0888, -100.0, 100.0, -100.0, 100.0))


# ---- opacity: /SMask and color-key /Mask (reference fillOpacity) ----------

def _rgba_pixels(png: bytes, w: int, h: int) -> bytes:
    chunks = _parse_png(png)
    ihdr = chunks[b"IHDR"][0]
    assert ihdr[9] == 6, "expected RGBA"
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    row = w * 4
    return b"".join(raw[y * (row + 1) + 1:(y + 1) * (row + 1)]
                    for y in range(h))


def test_smask_composites_alpha():
    import zlib as _z
    rgb = bytes(range(8 * 4 * 3 % 256 or 1)) if False else \
        bytes((i * 7) % 256 for i in range(8 * 4 * 3))
    alpha = bytes((i * 11) % 256 for i in range(8 * 4))
    rgb_payload = _z.compress(rgb)
    a_payload = _z.compress(alpha)
    img = (b"<< /Type /XObject /Subtype /Image /Width 8 /Height 4 "
           b"/ColorSpace /DeviceRGB /BitsPerComponent 8 "
           b"/SMask 6 0 R /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(rgb_payload) + rgb_payload
           + b"\nendstream")
    smask = (b"<< /Type /XObject /Subtype /Image /Width 8 /Height 4 "
             b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
             b"/Filter /FlateDecode /Length %d >>\nstream\n"
             % len(a_payload) + a_payload + b"\nendstream")
    content = b"q 8 0 0 4 0 0 cm /Im1 Do Q"
    objects = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 100 100] "
            b"/Resources << /XObject << /Im1 5 0 R >> >> /Contents 4 0 R >>"),
        4: b"<< /Length %d >>\nstream\n" % len(content) + content
           + b"\nendstream",
        5: img,
        6: smask,
    }
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objects):
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num)
        out.extend(objects[num])
        out.extend(b"\nendobj\n")
    xref_off = len(out)
    out.extend(b"xref\n0 7\n0000000000 65535 f \n")
    for num in range(1, 7):
        out.extend(b"%010d 00000 n \n" % offsets[num])
    out.extend(b"trailer\n<< /Size 7 /Root 1 0 R >>\nstartxref\n"
               b"%d\n%%%%EOF\n" % xref_off)
    media = extract_media(bytes(out))
    base = next(m for m in media if m["media_ref"].startswith("img"))
    assert base["mime"] == "image/png"
    got = _rgba_pixels(base["data"], 8, 4)
    expect = bytearray()
    for i in range(32):
        expect += rgb[i * 3:i * 3 + 3]
        expect.append(alpha[i])
    assert got == bytes(expect)


def test_color_key_mask_zeroes_alpha():
    import zlib as _z
    samples = bytes([10, 100, 10, 200])        # gray 4x1
    payload = _z.compress(samples)
    img = (b"<< /Type /XObject /Subtype /Image /Width 4 /Height 1 "
           b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
           b"/Mask [5 15] /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(payload) + payload
           + b"\nendstream")
    media = extract_media(_mini_pdf(img))
    m = media[0]
    assert m["mime"] == "image/png"
    got = _rgba_pixels(m["data"], 4, 1)
    # samples 10 fall in [5,15] -> alpha 0; others opaque
    expect = bytes([10, 10, 10, 0, 100, 100, 100, 255,
                    10, 10, 10, 0, 200, 200, 200, 255])
    assert got == expect


def test_stencil_mask_stream_inverts_alpha():
    import zlib as _z
    gray = bytes([50, 100, 150, 200])
    # stencil bits 1,0,1,0 -> masked, painted, masked, painted
    maskbits = bytes([0b10100000])
    g_payload = _z.compress(gray)
    m_payload = _z.compress(maskbits)
    img = (b"<< /Type /XObject /Subtype /Image /Width 4 /Height 1 "
           b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
           b"/Mask 6 0 R /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % len(g_payload) + g_payload
           + b"\nendstream")
    mask = (b"<< /Type /XObject /Subtype /Image /Width 4 /Height 1 "
            b"/ImageMask true /BitsPerComponent 1 "
            b"/Filter /FlateDecode /Length %d >>\nstream\n"
            % len(m_payload) + m_payload + b"\nendstream")
    content = b"q 4 0 0 1 0 0 cm /Im1 Do Q"
    objects = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 100 100] "
            b"/Resources << /XObject << /Im1 5 0 R >> >> /Contents 4 0 R >>"),
        4: b"<< /Length %d >>\nstream\n" % len(content) + content
           + b"\nendstream",
        5: img,
        6: mask,
    }
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objects):
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num)
        out.extend(objects[num])
        out.extend(b"\nendobj\n")
    xref_off = len(out)
    out.extend(b"xref\n0 7\n0000000000 65535 f \n")
    for num in range(1, 7):
        out.extend(b"%010d 00000 n \n" % offsets[num])
    out.extend(b"trailer\n<< /Size 7 /Root 1 0 R >>\nstartxref\n"
               b"%d\n%%%%EOF\n" % xref_off)
    media = extract_media(bytes(out))
    base = next(m for m in media if m["media_ref"].startswith("img"))
    got = _rgba_pixels(base["data"], 4, 1)
    # ImageMask bit 1 scales to 255 in the mask PNG; stencil semantics
    # invert: bit 1 = don't paint = alpha 0
    expect = bytes([50, 50, 50, 0, 100, 100, 100, 255,
                    150, 150, 150, 0, 200, 200, 200, 255])
    assert got == expect
