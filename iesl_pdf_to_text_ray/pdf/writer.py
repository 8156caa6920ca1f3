"""Minimal PDF re-writer: load a document through the engine's own parser
and re-emit every reachable object as a clean classic-xref PDF, optionally
encrypting strings and streams with the standard security handler.

Primary use: generating encrypted twins of the regression corpus so the
decryption path (crypto.py) is tested against golden span equality — the
reference has no writer at all, so this is engine-only infrastructure.

Notes: object/generation numbers are normalized to gen 0; ObjStm and XRef
containers are dropped (their members re-emit as top-level objects);
stream /Length is rewritten to the (possibly encrypted) payload length.
"""

from __future__ import annotations

import hashlib

from .objects import Name, Ref, Stream
from .xref import XRef

_DELIMS = set(b"()<>[]{}/%# \t\r\n")


def _ser_name(n: str) -> bytes:
    out = bytearray(b"/")
    for b in n.encode("latin1", "replace"):
        if b in _DELIMS or b < 0x21 or b > 0x7E:
            out += b"#%02X" % b
        else:
            out.append(b)
    return bytes(out)


def _ser_num(v) -> bytes:
    if isinstance(v, bool):
        return b"true" if v else b"false"
    if isinstance(v, int):
        return str(v).encode()
    s = f"{v:.8f}".rstrip("0").rstrip(".")
    return (s or "0").encode()


def serialize(obj, crypt=None) -> bytes:
    """Serialize a parsed object; ``crypt(data) -> bytes`` encrypts
    string payloads when the document is being encrypted."""
    if obj is None:
        return b"null"
    if isinstance(obj, Name):
        return _ser_name(str(obj))
    if isinstance(obj, bool) or isinstance(obj, (int, float)):
        return _ser_num(obj)
    if isinstance(obj, bytes):
        data = crypt(obj) if crypt else obj
        return b"<" + data.hex().encode() + b">"
    if isinstance(obj, Ref):
        return b"%d 0 R" % obj.num
    if isinstance(obj, list):
        return b"[" + b" ".join(serialize(o, crypt) for o in obj) + b"]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            parts.append(_ser_name(k) + b" " + serialize(v, crypt))
        return b"<<" + b" ".join(parts) + b">>"
    if isinstance(obj, str):  # stray keyword token — should not occur
        return obj.encode("latin1", "replace")
    raise TypeError(f"unserializable {type(obj)}")


def merge_pdfs(docs: list[bytes]) -> bytes:
    """Concatenate documents into one multi-hundred-page PDF (object
    numbers offset per source, one combined page tree).  Used to
    synthesize the pathological skew-test documents the corpus lacks.

    Each page gets the attributes it inherited from its source page tree
    (Resources, MediaBox, CropBox, Rotate) written onto its own dict, and
    its /Parent pointed at the combined root: page enumeration inherits
    top-down from the new root, so attributes left on a source /Pages
    node would otherwise be lost."""
    from .document import _INHERITABLE, PdfDocument

    out = bytearray(b"%PDF-1.6\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    # object 1 is the combined page tree, 2 the catalog
    pages_num, cat_num = 1, 2
    next_num = 3
    all_page_refs: list[Ref] = []

    def renum(obj, base: int):
        if isinstance(obj, Ref):
            return Ref(obj.num + base, 0)
        if isinstance(obj, list):
            return [renum(o, base) for o in obj]
        if isinstance(obj, Stream):
            obj.dict = renum(obj.dict, base)
            return obj
        if isinstance(obj, dict):
            return {k: renum(v, base) for k, v in obj.items()}
        return obj

    for data in docs:
        doc = PdfDocument(data)
        xref = doc.xref
        base = next_num - 1
        nums = [n for n in sorted(xref.entries) if xref.entries[n]]
        objs = {}
        max_num = 0
        for num in nums:
            try:
                obj = xref.fetch(Ref(num, 0))
            except Exception:
                continue
            if obj is None:
                continue
            if isinstance(obj, Stream) and \
                    str(obj.dict.get("Type") or "") in ("ObjStm", "XRef"):
                continue
            objs[num] = obj
            max_num = max(max_num, num)

        # this doc's page objects, in order, with their inherited attributes
        page_inherited: dict[int, dict] = {}

        def walk_pages(node_ref, inherited: dict):
            node = xref.fetch_if_ref(node_ref)
            if not isinstance(node, dict):
                return
            inh = dict(inherited)
            for k in _INHERITABLE:
                if node.get(k) is not None:
                    inh[k] = node[k]
            if str(node.get("Type") or "") == "Page" or (
                    "Contents" in node and "Kids" not in node):
                if isinstance(node_ref, Ref) and node_ref.num in objs:
                    page_inherited[node_ref.num] = inh
                    all_page_refs.append(Ref(node_ref.num + base, 0))
                return
            kids = xref.fetch_if_ref(node.get("Kids"))
            if isinstance(kids, list):
                for kid in kids:
                    walk_pages(kid, inh)

        root = xref.fetch_if_ref(xref.trailer.get("Root"))
        walk_pages(root.get("Pages") if isinstance(root, dict) else None, {})

        for num, obj in objs.items():
            inh = page_inherited.get(num)
            obj = renum(obj if inh is None else {**inh, **obj}, base)
            if inh is not None:
                obj["Parent"] = Ref(pages_num, 0)
            offsets[num + base] = len(out)
            out += b"%d 0 obj\n" % (num + base)
            if isinstance(obj, Stream):
                sdict = dict(obj.dict)
                sdict["Length"] = len(obj.raw)
                out += serialize(sdict)
                out += b"\nstream\n" + obj.raw + b"\nendstream"
            else:
                out += serialize(obj)
            out += b"\nendobj\n"
        next_num = base + max_num + 1

    offsets[pages_num] = len(out)
    out += b"%d 0 obj\n" % pages_num + serialize(
        {"Type": Name("Pages"), "Count": len(all_page_refs),
         "Kids": all_page_refs}) + b"\nendobj\n"
    offsets[cat_num] = len(out)
    out += b"%d 0 obj\n" % cat_num + serialize(
        {"Type": Name("Catalog"), "Pages": Ref(pages_num, 0)}) \
        + b"\nendobj\n"

    xref_pos = len(out)
    max_num = max(offsets)
    out += b"xref\n0 %d\n" % (max_num + 1)
    out += b"0000000000 65535 f \n"
    for num in range(1, max_num + 1):
        if num in offsets:
            out += b"%010d 00000 n \n" % offsets[num]
        else:
            out += b"0000000000 65535 f \n"
    trailer = {"Size": max_num + 1, "Root": Ref(cat_num, 0)}
    out += b"trailer\n" + serialize(trailer) + b"\n"
    out += b"startxref\n%d\n%%%%EOF\n" % xref_pos
    return bytes(out)


def rewrite_pdf(data: bytes, encrypt: str | None = None,
                user_pwd: bytes = b"", owner_pwd: bytes = b"") -> bytes:
    """Re-emit ``data`` as a classic-xref PDF.  ``encrypt`` is None,
    'rc4' (V2/R3 128-bit), 'aesv2' (V4/R4) or 'aesv3' (V5/R6)."""
    from . import crypto

    xref = XRef(data)
    # fetch every addressable object; drop containers we re-flatten
    objects: dict[int, object] = {}
    for num in sorted(xref.entries):
        if xref.entries[num] is None:
            continue
        try:
            obj = xref.fetch(Ref(num, 0))
        except Exception:
            continue
        if obj is None:
            continue
        if isinstance(obj, Stream):
            t = str(obj.dict.get("Type") or "")
            if t in ("ObjStm", "XRef"):
                continue
        objects[num] = obj

    trailer_id = xref.trailer.get("ID")
    if not (isinstance(trailer_id, list) and len(trailer_id) == 2
            and isinstance(trailer_id[0], bytes)):
        h = hashlib.md5(data).digest()
        trailer_id = [h, h]
    id0 = trailer_id[0]

    handler = None
    enc_dict = None
    perms = 0xFFFFFFFC
    if encrypt == "rc4":
        enc_dict = crypto.generate_legacy_encrypt(
            user_pwd, owner_pwd, perms, id0, r=3, length=128, aes=False)
    elif encrypt == "aesv2":
        enc_dict = crypto.generate_legacy_encrypt(
            user_pwd, owner_pwd, perms, id0, r=4, length=128, aes=True)
    elif encrypt == "aesv3":
        enc_dict = crypto.generate_v5_encrypt(user_pwd, owner_pwd, perms)
    elif encrypt is not None:
        raise ValueError(f"unknown encryption mode {encrypt!r}")
    if enc_dict is not None:
        handler = crypto.StandardSecurityHandler(enc_dict, id0, user_pwd)

    out = bytearray(b"%PDF-1.6\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    enc_num = (max(objects) + 1) if objects else 1

    for num, obj in sorted(objects.items()):
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num
        if isinstance(obj, Stream):
            raw = obj.raw
            if handler is not None:
                raw = handler.encrypt_stream(num, 0, raw)
            sdict = dict(obj.dict)
            sdict["Length"] = len(raw)
            crypt = ((lambda b, n=num: handler.encrypt_string(n, 0, b))
                     if handler is not None else None)
            out += serialize(sdict, crypt)
            out += b"\nstream\n" + raw + b"\nendstream"
        else:
            crypt = ((lambda b, n=num: handler.encrypt_string(n, 0, b))
                     if handler is not None else None)
            out += serialize(obj, crypt)
        out += b"\nendobj\n"

    if enc_dict is not None:
        offsets[enc_num] = len(out)
        # the /Encrypt dict itself is never encrypted
        out += b"%d 0 obj\n" % enc_num + serialize(enc_dict) + b"\nendobj\n"

    xref_pos = len(out)
    max_num = max(offsets) if offsets else 0
    out += b"xref\n0 %d\n" % (max_num + 1)
    out += b"0000000000 65535 f \n"
    for num in range(1, max_num + 1):
        if num in offsets:
            out += b"%010d 00000 n \n" % offsets[num]
        else:
            out += b"0000000000 65535 f \n"
    trailer = {"Size": max_num + 1,
               "Root": xref.trailer.get("Root"),
               "ID": trailer_id}
    if xref.trailer.get("Info") is not None:
        trailer["Info"] = xref.trailer.get("Info")
    if enc_dict is not None:
        trailer["Encrypt"] = Ref(enc_num, 0)
    out += b"trailer\n" + serialize(trailer) + b"\n"
    out += b"startxref\n%d\n%%%%EOF\n" % xref_pos
    return bytes(out)
