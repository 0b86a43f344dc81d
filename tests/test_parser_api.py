"""Parse API surface: Output record, error positions, config gates,
DOMParser dispatch (reference TestParser.php / TestDOMParser.php analogs)."""

import pytest

from html_extract.domparser import parse_from_string
from html_extract.parser import Config, Output, parse, parse_fragment


def test_output_record_shape():
    out = parse("<p>x</p>")
    assert isinstance(out, Output)
    assert out.encoding == "UTF-8"
    assert out.quirks_mode == 1  # no doctype -> quirks
    assert out.errors == []  # collection off by default


def test_no_quirks_with_doctype():
    assert parse("<!DOCTYPE html><p>x").quirks_mode == 0


def test_limited_quirks():
    out = parse(
        '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Transitional//EN" '
        '"http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd"><p>'
    )
    assert out.quirks_mode == 2


def test_error_positions_line_col():
    config = Config(error_collection=True)
    out = parse("<p>\n<b//>", config=config)
    codes = {(c, l, col) for c, l, col in out.errors}
    # the stray solidus is on line 2, and the missing doctype on line 1
    assert any(c == "unexpected-solidus-in-tag" and l == 2 for c, l, col in codes)
    assert any(c == "expected-doctype-but-got-something-else" for c, _, _ in codes)


def test_tree_error_positions_line_col():
    """Tree-construction errors carry line:col too (cursor-at-token
    model, ParseErrorEmitter.php / Data::whereIs) — not (-1, -1)."""
    config = Config(error_collection=True)
    out = parse("<pre>", config=config)
    tree_errs = {e for e in out.errors if e[0] == "expected-closing-tag-but-got-eof"}
    assert tree_errs == {("expected-closing-tag-but-got-eof", 1, 6)}
    out = parse("line one\n<pre>\n<b></i>x", config=config)
    got = {e[0]: e[1:] for e in out.errors}
    # the stray </i> end tag is on line 3; EOF error points one past input
    assert got["unexpected-end-tag"] == (3, 8)
    assert got["expected-closing-tag-but-got-eof"] == (3, 9)
    # positions off -> (-1, -1) but codes still present
    out2 = parse(
        "<pre>", config=Config(error_collection=True, error_positions=False)
    )
    assert ("expected-closing-tag-but-got-eof", -1, -1) in out2.errors


def test_null_only_character_token_in_body_via_cdata():
    """A Character token that is ALL U+0000 reaches in-body through an
    HTML integration point (CDATA passes nulls through verbatim) and is
    dropped with unexpected-null-character.  Kept as a unit test rather
    than a .dat corpus case so the corpus stays NUL-free text."""
    config = Config(error_collection=True)
    out = parse(
        "<!doctype html><svg><foreignObject><![CDATA[\x00]]>"
        "</foreignObject></svg>",
        config=config,
    )
    assert [e[0] for e in out.errors] == ["unexpected-null-character"]
    svg = out.document.children[1].children[1].children[0]
    fo = svg.children[0]
    assert (svg.name, fo.name) == ("svg", "foreignObject")
    assert fo.children == []  # the null text never lands in the DOM


def test_input_stream_control_char_error():
    config = Config(error_collection=True)
    out = parse("<!DOCTYPE html>ab\x01cd", config=config)
    hits = [e for e in out.errors if e[0] == "control-character-in-input-stream"]
    assert len(hits) == 1
    assert hits[0][1:] == (1, 18)


def test_errors_off_by_default_costs_nothing():
    out = parse("<p>\n<b//>")
    assert out.errors == []


def test_parse_fragment_contexts():
    frag = parse_fragment("template", "<td>x</td>")
    from html_extract.serializer import serialize_inner

    assert serialize_inner(frag) == "<td>x</td>"
    frag = parse_fragment("svg path", "<circle/>")
    assert frag.children[0].name == "circle"


def test_domparser_html():
    out = parse_from_string("<p>x", "text/html")
    assert out.encoding == "UTF-8"
    out = parse_from_string(b"<p>\xe9", "text/html; charset=ISO-8859-1")
    assert out.encoding == "windows-1252"  # label maps per WHATWG registry


@pytest.mark.parametrize(
    "param,honoured",
    [('charset="koi8-r"', True), ("charset=koi8-r", True), ("charset='koi8-r'", False)],
)
def test_domparser_charset_param_both_branches(param, honoured):
    """The HTML and XML branches read the MIME charset parameter through
    one parser: a bare or double-quoted value names the label, while
    single quotes do not quote in WHATWG MIME parsing, so
    ``charset='koi8-r'`` names no encoding and the branch's default
    (UTF-8) applies."""
    from html_extract.serializer import serialize

    word = "\u043f\u0440\u0438\u0432\u0435\u0442"  # koi8-r bytes are not UTF-8
    raw = word.encode("koi8_r")
    html = parse_from_string(b"<p>" + raw, "text/html; " + param)
    assert html.encoding == ("KOI8-R" if honoured else "UTF-8")
    xml = parse_from_string(b"<r>" + raw + b"</r>", "application/xml; " + param)
    assert (serialize(xml.document) == f"<r>{word}</r>") == honoured
    assert (serialize(html.document).count(word) == 1) == honoured


def test_domparser_rejects_non_html_non_xml():
    with pytest.raises(ValueError):
        parse_from_string("x", "image/png")
    with pytest.raises(ValueError):
        parse_from_string("x", "not a mime")


def test_domparser_xml_well_formed():
    from html_extract.serializer import serialize

    out = parse_from_string(
        "<root a='1'><child>text &amp; more</child><!--c--></root>",
        "application/xml",
    )
    assert (
        serialize(out.document)
        == '<root a="1"><child>text &amp; more</child><!--c--></root>'
    )
    # prefixes and xmlns attributes survive verbatim (documented subset)
    out2 = parse_from_string(
        "<svg xmlns='http://www.w3.org/2000/svg'><circle r='1'/></svg>",
        "image/svg+xml",
    )
    assert (
        serialize(out2.document, foreign_void_end_tags=False)
        == '<svg xmlns="http://www.w3.org/2000/svg"><circle r="1"/></svg>'
    )


def test_domparser_xml_parsererror_document():
    """Malformed XML yields a Mozilla parsererror document (reference
    DOMParser.php:125-137), never an exception."""
    out = parse_from_string("<root><unclosed></root>", "text/xml")
    root = out.document.children[0]
    assert root.name == "parsererror"
    assert root.attrs["xmlns"].endswith("parsererror.xml")
    assert root.attrs["code"] and root.attrs["line"] == "1"
    out2 = parse_from_string("not xml", "application/xhtml+xml")
    assert out2.document.children[0].name == "parsererror"
    out3 = parse_from_string("", "application/xml")
    assert out3.document.children[0].name == "parsererror"


def test_domparser_xml_encodings():
    from html_extract.serializer import serialize

    raw = "<?xml version='1.0' encoding='windows-1252'?><r>\xe9</r>".encode(
        "windows-1252"
    )
    out = parse_from_string(raw, "application/xml")
    assert serialize(out.document) == "<r>\xe9</r>"
    out2 = parse_from_string(
        b"<r>caf\xc3\xa9</r>", "application/xml; charset=utf-8"
    )
    assert serialize(out2.document) == "<r>caf\xe9</r>"
    # UTF-16 BOM wins over everything
    raw16 = "<r>x</r>".encode("utf-16-le")
    out3 = parse_from_string(b"\xff\xfe" + raw16, "application/xml")
    assert serialize(out3.document) == "<r>x</r>"


def test_bytes_input_with_bom():
    out = parse(b"\xef\xbb\xbf<!DOCTYPE html><p>caf\xc3\xa9")
    assert out.encoding == "UTF-8"
    from html_extract.serializer import serialize

    assert "café" in serialize(out.document)


def test_crlf_normalization():
    out = parse("<pre>a\r\nb\rc</pre>")
    from html_extract.serializer import serialize

    s = serialize(out.document)
    assert "\r" not in s
    assert "a\nb\nc" in s


def test_crlf_error_positions():
    config = Config(error_collection=True)
    out = parse("x\r\n<b//>", config=config)
    assert any(
        c == "unexpected-solidus-in-tag" and l == 2 for c, l, _ in out.errors
    )


def test_cli_parse_and_serialize():
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    r = subprocess.run(
        [sys.executable, "-m", "html_extract", "serialize"],
        input=b"<p>x",
        capture_output=True,
        cwd=root,
    )
    assert r.stdout.strip() == b"<html><head></head><body><p>x</p></body></html>"
    r = subprocess.run(
        [sys.executable, "-m", "html_extract", "parse"],
        input=b"<article><p>A paragraph long enough for the density scoring to keep around.</p></article>",
        capture_output=True,
        cwd=root,
    )
    import json

    rows = [json.loads(l) for l in r.stdout.splitlines()]
    assert rows and rows[0]["kind"] == "text"


def test_compat_facade_matches_reference_shapes():
    from html_extract.compat import DOMParser, Parser

    out = Parser.parse(b"<!DOCTYPE html><p>caf\xc3\xa9", "text/html; charset=utf-8")
    assert out.quirks_mode == Parser.NO_QUIRKS_MODE
    assert "café" in Parser.serialize(out.document)
    assert Parser.serializeInner(out.document.children[1]) .startswith("<head>")
    frag = Parser.parseFragment("td", 0, "<td>a")
    assert Parser.serializeInner(frag) == "a"
    from html_extract.dom import Element
    frag2 = Parser.parseFragment(Element("title"), 0, "<b>raw")
    assert Parser.serializeInner(frag2) == "&lt;b&gt;raw"
    doc = DOMParser().parseFromString("<p>x", "text/html")
    assert Parser.serialize(doc) == "<html><head></head><body><p>x</p></body></html>"


def test_pre_eof_single_error():
    """<pre> at EOF: the 1-token lookahead must not re-process EOF
    (would duplicate expected-closing-tag-but-got-eof)."""
    from html_extract.parser import Config, parse

    out = parse("<pre>", config=Config(error_collection=True))
    codes = [e[0] for e in out.errors]
    assert codes.count("expected-closing-tag-but-got-eof") == 1

    out2 = parse("<textarea>", config=Config(error_collection=True))
    codes2 = [e[0] for e in out2.errors]
    assert codes2.count("eof-in-text-mode") == 1


def _text_content(node):
    from html_extract.dom import Text

    out = []

    def walk(n):
        for c in getattr(n, "children", []):
            if isinstance(c, Text):
                out.append(c.data)
            else:
                walk(c)

    walk(node)
    return "".join(out)


def _mk16(s: bytes, le: bool) -> bytes:
    out = bytearray()
    for b in s:
        if 1 <= b <= 0x7F:
            out += bytes([b, 0]) if le else bytes([0, b])
        else:
            out.append(b)
    return bytes(out)


def test_domparser_matrix_reference_parity():
    """Port of the reference's TestDOMParser provideDocuments matrix
    (TestDOMParser.php:29-59): encoding precedence across BOM, charset
    parameter, and XML declaration, for HTML and XML types."""
    cases = [
        ("Test".encode(), "text/html", "Test"),
        ("Ol\xe9".encode(), "text/html", "Ol\xe9"),  # DOMParser UTF-8 default
        ("Ol\xe9".encode(), "text/html;charset=utf8", "Ol\xe9"),
        ("<meta charset=utf8>Ol\xe9".encode(), "text/html", "Ol\xe9"),
        ("<html>Test</html>".encode(), "text/xml", "Test"),
        ("<html>Ol\xe9</html>".encode(), "text/xml", "Ol\xe9"),
        (
            "<html>Ol\xe9</html>".encode("latin-1"),
            "text/xml;charset=windows-1252",
            "Ol\xe9",
        ),
        (
            "﻿<html>Ol\xe9</html>".encode(),
            "text/xml;charset=windows-1252",
            "Ol\xe9",
        ),
        (
            "<?xml version='1.0' encoding='windows-1252'?><html>Ol\xe9</html>".encode(
                "latin-1"
            ),
            "text/xml",
            "Ol\xe9",
        ),
        (
            "<?xml version='1.0'?><html>Ol\xe9</html>".encode(),
            "text/xml;charset=bogus",
            "Ol\xe9",
        ),
        (b"<html>\x81\xe9</html>", "text/xml;charset=euc-kr", "곲"),
        (_mk16(b"\xFE\xFF<html>Ol\x00\xE9</html>", False), "text/xml", "Ol\xe9"),
        (_mk16(b"\xFF\xFE<html>Ol\xE9\x00</html>", True), "text/xml", "Ol\xe9"),
        (
            _mk16(b"<?xml version='1.0' encoding='UTF-8'?><html>Ol\x00\xE9</html>", False),
            "text/xml;charset=utf-16be",
            "Ol\xe9",
        ),
        (
            _mk16(b"<?xml version='1.0' encoding='UTF-8'?><html>Ol\xE9\x00</html>", True),
            "text/xml;charset=utf-16le",
            "Ol\xe9",
        ),
    ]
    for raw, typ, want in cases:
        out = parse_from_string(raw, typ)
        roots = [c for c in out.document.children if hasattr(c, "name")]
        root = roots[-1]
        assert root.name == "html", (typ, raw)
        assert _text_content(root) == want, (typ, raw)


def test_domparser_xml_replacement_encoding_yields_parsererror():
    """csiso2022kr maps to the replacement encoding -> whole input is
    one U+FFFD -> no element -> parsererror (TestDOMParser.php:76-81)."""
    out = parse_from_string(b"<html>Test</html>", "text/xml;charset=csiso2022kr")
    root = out.document.children[0]
    assert root.name == "parsererror"
    out2 = parse_from_string(
        b"<html>Test</html><!--Test-->Test", "text/xml"
    )
    assert out2.document.children[0].name == "parsererror"
