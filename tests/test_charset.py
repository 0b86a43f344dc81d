"""Encoding-detection corpus (#data/#encoding .dat) + unit checks.

Driver semantics: reference tests/cases/TestCharset.php:70-80."""

import glob
import os

import pytest

from html_extract import charset as cs
from tests.corpus_util import CORPUS, load_dat_blocks


def _collect():
    cases = []
    for path in sorted(glob.glob(str(CORPUS / "encoding" / "*.dat"))):
        fname = os.path.basename(path)
        for i, block in enumerate(load_dat_blocks(path)):
            data = block.get("data")
            enc = block.get("encoding")
            if data is None or enc is None:
                continue
            cases.append(pytest.param(data, enc.strip(), id=f"{fname}:{i}"))
    return cases


@pytest.mark.parametrize("data,expected", _collect())
def test_encoding_detection(data, expected):
    got, _certain, _bom = cs.detect(data.encode("utf-8"))
    assert got.lower() == expected.lower()


def test_bom_beats_everything():
    enc, certain, bom = cs.detect(b"\xef\xbb\xbf<meta charset='koi8-r'>")
    assert enc == "UTF-8" and certain and bom == 3


def test_transport_charset():
    enc, certain, _ = cs.detect(b"hello", transport_charset="text/html; charset=ISO-8859-2")
    assert enc == "ISO-8859-2" and certain


def test_prescan_pragma_requires_content_type():
    # content= charset without http-equiv pragma is ignored
    assert cs.prescan(b'<meta content="text/html; charset=utf-8">') is None
    assert (
        cs.prescan(
            b'<meta http-equiv="Content-Type" content="text/html; charset=utf-8">'
        )
        == "UTF-8"
    )


def test_prescan_skips_comments():
    assert (
        cs.prescan(b"<!-- <meta charset='koi8-r'> --><meta charset='utf-8'>")
        == "UTF-8"
    )


def test_utf16_meta_remaps_to_utf8():
    assert cs.prescan(b'<meta charset="utf-16le">') == "UTF-8"


def test_xml_declaration_fallback():
    assert (
        cs.xml_declaration(b"<?xml version='1.0' encoding='ISO-8859-7'?>")
        == "ISO-8859-7"
    )


def test_windows1252_default_decode():
    from html_extract.parser import parse

    out = parse(b"caf\xe9")
    assert out.encoding == "windows-1252"


def test_mid_parse_encoding_change_restart():
    from html_extract.parser import parse

    # body precedes the meta, so the prescan misses it only if meta is
    # beyond the prescan window; pad to force a tentative windows-1252 start
    pad = b"<!-- " + b"x" * 1100 + b" -->"
    raw = pad + b"<meta charset='koi8-r'>\xc1\xc2"
    out = parse(raw)
    assert out.encoding == "KOI8-R"
    assert out.restarted


@pytest.mark.parametrize(
    "attrs,want",
    [
        ("charset=koi8-r", "KOI8-R"),
        ('http-equiv=Content-Type content="text/html; charset=koi8-r"', "KOI8-R"),
        ('content="text/html; charset=koi8-r"', None),  # no pragma
        ('charset=bogus http-equiv=content-type content="charset=koi8-r"', "KOI8-R"),
        ('http-equiv=content-type content="charset=koi8-r" charset=bogus', "KOI8-R"),
        ('charset=koi8-r http-equiv=content-type content="charset=utf-8"', "KOI8-R"),
        ("charset=koi8-r charset=utf-8", "KOI8-R"),  # the first of a name
        ("charset=utf-16le", "UTF-8"),
        ("charset=x-user-defined", "windows-1252"),
    ],
)
def test_meta_rule_same_in_prescan_and_mid_parse(attrs, want):
    """One <meta> rule: the byte prescan and the mid-parse encoding
    change (the meta past the prescan window) read the same encoding."""
    from html_extract.parser import parse

    meta = f"<meta {attrs}>".encode()
    assert cs.prescan(meta) == want
    out = parse(b"<!-- " + b"x" * 1100 + b" -->" + meta + b"<p>\xc1")
    assert out.encoding == (want or "windows-1252")
    assert out.restarted == (want not in (None, "windows-1252"))


def test_every_registry_codec_decodes():
    import codecs

    for canon, codec in cs._CANON_CODEC.items():
        if codec is None or canon == "x-user-defined":
            continue
        assert codecs.lookup(codec), canon
        assert isinstance(cs.decode(b"abc", canon), str)


def test_x_user_defined_decoding():
    # WHATWG x-user-defined maps high bytes into U+F780..U+F7FF
    assert cs.decode(b"a\x80\xff", "x-user-defined") == "a\uf780\uf7ff"


def test_encoding_change_matrix_reference_parity():
    """Port of the reference's TestEncodingChange provideEncodingChanges
    (meta appears past the prescan window -> mid-parse changeEncoding):
    UTF-16 label downgrade, x-user-defined remap, UTF-16 streams keep
    their encoding, ISO-2022-JP katakana, bogus labels ignored."""
    from html_extract.dom import Element, Text
    from html_extract.parser import Config, parse

    def title_text(doc):
        def walk(n):
            for c in getattr(n, "children", []):
                if isinstance(c, Element) and c.name == "title":
                    return "".join(
                        t.data for t in c.children if isinstance(t, Text)
                    )
                r = walk(c)
                if r is not None:
                    return r

        return walk(doc)

    cases = [
        ("windows-1252", "", "windows-1252", b"ASCII title", "ASCII title"),
        ("windows-1252", "UTF-8", "UTF-8", b"ASCII title", "ASCII title"),
        ("windows-1252", "UTF-16BE", "UTF-8", b"ASCII title", "ASCII title"),
        ("windows-1252", "UTF-16LE", "UTF-8", b"ASCII title", "ASCII title"),
        ("UTF-8", "x-user-defined", "windows-1252", b"ASCII title", "ASCII title"),
        ("windows-1252", "UTF-8", "UTF-8", b"H\xc3\xa9", "H\xe9"),
        ("UTF-8", "UTF-8", "UTF-8", b"H\xc3\xa9", "H\xe9"),
        ("UTF-16LE", "UTF-8", "UTF-16LE", b"ASCII title", "ASCII title"),
        ("UTF-16BE", "UTF-8", "UTF-16BE", b"ASCII title", "ASCII title"),
        ("windows-1252", "bogus", "windows-1252", b"H\xe9", "H\xe9"),
        (
            "ISO-2022-JP",
            "ISO-2022-JP",
            "ISO-2022-JP",
            b"\x1b\x28\x49\x56\x1b\x28\x42",
            "ﾖ",
        ),
        ("UTF-8", "ISO-2022-JP", "ISO-2022-JP", b"ASCII title", "ASCII title"),
    ]
    for meta_attr in ("charset={}", "http-equiv=CoNtenT-TYpe content='text/html;charset={}'"):
        for assumed, stated, want_enc, title_b, want_title in cases:
            if not stated:
                meta = b""
            else:
                meta = ("<meta " + meta_attr.format(stated) + ">").encode()
            body = (
                b"<!DOCTYPE html><html><head>"
                + b" " * 1024
                + b"<title>"
                + title_b
                + b"</title>"
                + meta
                + b"</head><body></body></html>"
            )
            if assumed == "UTF-16BE":
                body = b"".join(b"\x00" + bytes([c]) for c in body)
            elif assumed == "UTF-16LE":
                body = b"".join(bytes([c]) + b"\x00" for c in body)
            out = parse(body, config=Config(encoding_fallback=assumed))
            assert out.encoding == want_enc, (assumed, stated, meta_attr)
            assert title_text(out.document) == want_title, (
                assumed,
                stated,
                meta_attr,
            )


@pytest.mark.parametrize(
    "content_type, want",
    [
        # the charset inside another parameter's quoted value is that value
        ('text/html; foo="; charset=koi8-r"', None),
        # a parameter name holds no whitespace: no space around '='
        ("text/html; charset = koi8-r", None),
        ("text/html; charset =koi8-r", None),
        ('text/html; charset="koi8-r"', "KOI8-R"),
        ("text/html; charset=koi8-r", "KOI8-R"),
        ("TEXT/HTML ; CHARSET=KOI8-R ", "KOI8-R"),
        # first charset wins, also when the first is quoted
        ("text/html; charset=koi8-r; charset=utf-8", "KOI8-R"),
        ('text/html;charset="koi8-r";charset=utf-8', "KOI8-R"),
        # an empty value sets nothing, so a later charset counts
        ("text/html; charset=;charset=koi8-r", "KOI8-R"),
        # quoted-string escapes, and text after the closing quote is dropped
        ('text/html; charset="koi\\8-r"', "KOI8-R"),
        ('text/html; charset="koi8-r" junk', "KOI8-R"),
        # WHATWG quotes with '"' only: 'koi8-r' (quotes included) is no label
        ("text/html; charset='koi8-r'", None),
        ("text/html; charset", None),
        # no MIME type: the string may be a bare label (reference behavior)
        ("utf-8", "UTF-8"),
        ("koi8-r", "KOI8-R"),
        ("text/html", None),
    ],
)
def test_from_content_type_parses_a_mime_type(content_type, want):
    """``from_content_type`` reads the ``charset`` parameter as WHATWG
    "parse a MIME type" does, and keeps the bare-label form."""
    from html_extract import charset as cs

    assert cs.from_content_type(content_type) == want


def test_charset_edge_branches():
    """Trace-driven edges: unknown labels, UTF-16BE BOM, content-type
    without charset, meta-content scanner quote/EOF forms, prescan
    budget miss, XML-declaration fallback (Charset.php:15-25, 44-53,
    56-125, 295-377)."""
    from html_extract import charset as cs

    # label registry
    assert cs.lookup_label("no-such-encoding") is None
    assert cs.lookup_label(None) is None
    assert cs.lookup_label("  UTF-8\t") == "UTF-8"
    # BOMs
    assert cs.sniff_bom(b"\xfe\xffx") == ("UTF-16BE", 2)
    assert cs.sniff_bom(b"\xff\xfex") == ("UTF-16LE", 2)
    assert cs.sniff_bom(b"\xef\xbb\xbfx") == ("UTF-8", 3)
    assert cs.sniff_bom(b"plain") is None
    # content-type forms
    assert cs.from_content_type(None) is None
    assert cs.from_content_type("text/html") is None  # no charset param
    assert cs.from_content_type("text/html; charset=utf-8") == "UTF-8"
    assert cs.from_content_type('text/html; charset="latin1"') == "windows-1252"
    assert cs.from_content_type("utf-8") == "UTF-8"  # bare label
    # meta-content scanner
    assert cs.charset_from_meta_content(b"text/html; charset=utf-8") == "utf-8"
    assert cs.charset_from_meta_content("charset = 'koi8-r' x") == "koi8-r"
    assert cs.charset_from_meta_content('charset="abc') is None  # no close
    assert cs.charset_from_meta_content("charset=") is None  # EOF after =
    assert cs.charset_from_meta_content("charsetX charset=Y") == "Y"
    assert cs.charset_from_meta_content("nothing here") is None
    # prescan: meta outside the byte budget is not seen
    far = b"<!--" + b" " * 2048 + b'--><meta charset="koi8-r">'
    assert cs.prescan(far, limit=64) is None
    assert cs.prescan(b"x" * 100) is None
    # XML declaration fallback
    assert cs.xml_declaration(b"<?xml version='1.0' encoding='ISO-8859-2'?>") == "ISO-8859-2"
    assert cs.xml_declaration(b"<html>") is None
    enc, certain, bl = cs.detect(b"<?xml version='1.0' encoding='KOI8-R'?><doc/>")
    assert (enc, certain, bl) == ("KOI8-R", False, 0)
