"""Serializer round-trip corpus: tree-format in -> HTML string out.

Drives the reference's serializer .dat format (vendored mensbeam01/02 +
wpt01; format doc /root/reference/tests/cases/serializer/README.md,
driver semantics tests/cases/TestSerializer.php)."""

import glob
import os
import re

import pytest

from html_extract.dom import (
    Comment,
    Doctype,
    Document,
    DocumentFragment,
    Element,
    ProcessingInstruction,
    Text,
)
from html_extract.serializer import serialize_inner
from html_extract.tables import (
    MATHML_NS,
    SVG_NS,
    XLINK_NS,
    XML_NS,
    XMLNS_NS,
)
from tests.corpus_util import CORPUS, load_dat_blocks

_NS = {"svg": SVG_NS, "math": MATHML_NS}
_ATTR_NS = {"xlink": XLINK_NS, "xml": XML_NS, "xmlns": XMLNS_NS}
_ATTR_RE = re.compile(r'^([^<"][^=]*)="(.*)"$', re.S)


def parse_tree_format(block: str):
    """Build a DOM subtree from '| '-indented html5lib tree format."""
    root = DocumentFragment()
    stack = [(root, -1)]
    lines = block.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("| "):
            continue
        body = line[2:]
        stripped = body.lstrip(" ")
        depth = (len(body) - len(stripped)) // 2
        content = stripped
        # multi-line text / attr values: accumulate until quotes balance
        if (content.startswith('"') or _ATTR_RE.match(content)) and (
            content.count('"') % 2 == 1
        ):
            while i < len(lines) and content.count('"') % 2 == 1:
                content += "\n" + lines[i]
                i += 1
        while stack and stack[-1][1] >= depth:
            stack.pop()
        parent = stack[-1][0]
        if content == "content" and isinstance(parent, Element):
            # template contents pseudo-node
            stack.append((parent.template_content, depth))
            continue
        if content.startswith('"'):
            parent.append(Text(content[1:-1]))
            continue
        if content.startswith("<!DOCTYPE"):
            inner = content[9:-1].strip()
            name = inner.split(" ")[0] if inner else ""
            parent.append(Doctype(name, None, None))
            continue
        if content.startswith("<!--"):
            parent.append(Comment(content[4:-3].strip(" ")))
            continue
        if content.startswith("<?"):
            body2 = content[2:-1]
            target, _, rest = body2.partition(" ")
            parent.append(ProcessingInstruction(target, rest))
            continue
        if content.startswith("<"):
            inner = content[1:-1]
            if " " in inner:
                nstok, name = inner.split(" ", 1)
                ns = _NS.get(nstok, nstok)
            else:
                ns, name = None, inner
            from html_extract.tables import HTML_NS

            el = Element(name, ns if ns else HTML_NS)
            parent.append(el)
            stack.append((el, depth))
            continue
        m = _ATTR_RE.match(content)
        if m and isinstance(parent, Element):
            aname, avalue = m.group(1), m.group(2)
            if " " in aname:
                nstok, qname = aname.split(" ", 1)
                ns = _ATTR_NS.get(nstok, nstok)
                if ":" in qname:
                    prefix, local = qname.split(":", 1)
                else:
                    prefix, local = None, qname
                parent.set_attr(qname, avalue, (ns, prefix, local))
            else:
                parent.set_attr(aname, avalue)
            continue
    return root


def _collect():
    cases = []
    for path in sorted(glob.glob(str(CORPUS / "serializer" / "*.dat"))):
        fname = os.path.basename(path)
        for i, block in enumerate(load_dat_blocks(path, start_keys=("document", "fragment"))):
            frag = block.get("fragment")
            tree = frag if frag is not None else block.get("document")
            expected = block.get("output")
            if tree is None or expected is None:
                continue
            if "script-on" in block:  # engine is permanently scripting-off
                continue
            cases.append(
                pytest.param(tree, expected, id=f"{fname}:{i}")
            )
    return cases


@pytest.mark.parametrize("tree,expected", _collect())
def test_serializer_case(tree, expected):
    root = parse_tree_format(tree)
    got = serialize_inner(root)
    assert got == expected


def test_boolean_attribute_omission():
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    doc = parse('<input type="text" disabled="" required="required" data-x="">').document
    full = serialize(doc)
    compact = serialize(doc, bool_attr=True)
    assert 'disabled=""' in full and 'required="required"' in full
    assert " disabled " in compact or compact.count("disabled") == 1
    assert 'required="' not in compact
    assert 'data-x=""' in compact  # non-boolean attrs keep their values


def test_template_contents_serialize():
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    doc = parse("<template><b>x</b></template>").document
    assert "<template><b>x</b></template>" in serialize(doc)


def test_foreign_attr_names_serialize():
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    doc = parse('<svg><a xlink:href="u" xml:lang="en"/></svg>').document
    s = serialize(doc)
    assert 'xlink:href="u"' in s and 'xml:lang="en"' in s


def test_pi_serializes_when_enabled():
    from html_extract.parser import Config, parse
    from html_extract.serializer import serialize

    doc = parse("<?xml-stylesheet href='a'?>", config=Config(processing_instructions=True)).document
    assert "<?xml-stylesheet href='a'?>" in serialize(doc)


def test_svg_camelcase_tags_serialize():
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    doc = parse("<svg><lineargradient/><feblend/></svg>").document
    s = serialize(doc)
    assert "<linearGradient>" in s and "<feBlend>" in s


def test_serialize_reparse_fixed_point_on_corpus():
    """serialize∘parse is a fixed point across the generated corpus
    (parser and serializer agree on every construct they emit)."""
    import pandas as pd

    from html_extract.htmlgen import generate_html
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    df = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).head(150)
    for did, text in zip(df["doc_id"], df["text"]):
        html = generate_html(f"doc-{did:012d}", text)
        s1 = serialize(parse(html).document)
        s2 = serialize(parse(s1).document)
        assert s1 == s2


def test_serializer_options_matrix():
    """Option matrix shaped like the reference's
    TestSerializer.php:125-139 provideCustomSerializations."""
    from html_extract.parser import parse, parse_fragment
    from html_extract.serializer import serialize, serialize_inner

    def body_inner(html, **opts):
        doc = parse(html).document
        body = doc.children[-1].children[-1]
        return serialize_inner(body, **opts)

    # foreignVoidEndTags=false: childless foreign elements self-close
    assert (
        body_inner("<svg><circle r='1'></circle></svg>", foreign_void_end_tags=False)
        == '<svg><circle r="1"/></svg>'
    )
    # ... but foreign elements WITH children keep end tags
    assert (
        body_inner("<svg><g><rect/></g></svg>", foreign_void_end_tags=False)
        == "<svg><g><rect/></g></svg>"
    )
    # default (spec) keeps end tags
    assert (
        body_inner("<svg><circle></circle></svg>")
        == "<svg><circle></circle></svg>"
    )
    # HTML void elements are never affected by the option
    assert body_inner("<br>", foreign_void_end_tags=False) == "<br>"
    # boolean attribute value omission, combined with foreign-void
    assert (
        body_inner(
            "<input type='checkbox' checked=''><svg><rect/></svg>",
            bool_attr=True,
            foreign_void_end_tags=False,
        )
        == '<input type="checkbox" checked><svg><rect/></svg>'
    )
    # bool_attr only compresses empty/name-valued booleans
    assert (
        body_inner("<input checked='yes'>", bool_attr=True)
        == '<input checked="yes">'
    )
    # fragment serialization with options
    frag = parse_fragment("div", "<math><mi>x</mi><mspace></mspace></math>")
    assert (
        serialize(frag, foreign_void_end_tags=False)
        == "<math><mi>x</mi><mspace/></math>"
    )
    # template contents serialize through serialize_inner
    doc = parse("<template><svg><path></path></svg></template>").document
    head = doc.children[-1].children[0]
    tpl = head.children[0]
    assert (
        serialize_inner(tpl, foreign_void_end_tags=False) == "<svg><path/></svg>"
    )


def test_pretty_print_reference_matrix():
    """reformatWhitespace cases ported from the reference's
    TestSerializer.php provideCustomSerializations (:204-460) — same
    inputs, same expected strings (indentStep/indentWithSpaces/
    foreignVoidEndTags per row; booleanAttributeValues=False)."""
    from html_extract.parser import parse, parse_fragment
    from html_extract.serializer import serialize

    def doc(src, **kw):
        return serialize(
            parse(src).document,
            reformat_whitespace=True,
            foreign_void_end_tags=False,
            **kw,
        )

    # empty document
    assert doc("<html></html>") == (
        "<html>\n <head></head>\n\n <body></body>\n</html>"
    )
    # comment before doctype
    assert doc("<!--data-->\n<!DOCTYPE html>\n<html></html>") == (
        "<!--data-->\n<!DOCTYPE html>\n<html>\n <head></head>\n\n"
        " <body></body>\n</html>"
    )
    # preformatted element: content verbatim, element still positioned
    assert doc("<pre><code></code></pre>") == (
        "<html>\n <head></head>\n\n <body>\n  <pre><code></code></pre>\n"
        " </body>\n</html>"
    )
    # element grouping + foreign block content + self-closed foreign voids
    assert doc('<div></div><svg><g id="ook"></g></svg>') == (
        "<html>\n <head></head>\n\n <body>\n  <div></div>\n\n  <svg>\n"
        '   <g id="ook"/>\n  </svg>\n </body>\n</html>'
    )
    # inline comments (and PI-as-comment) in a non-block body
    assert doc(
        "<html>\n <head></head>\n <body>\n  <!--ook-->\n  <?ook eeeeek ?>\n"
        " </body>\n</html>"
    ) == (
        "<html>\n <head></head>\n\n <body><!--ook--><!--?ook eeeeek ?-->"
        "</body>\n</html>"
    )
    # whitespace collapsing + custom indention (4 spaces)
    messy = (
        "<!DOCTYPE html>\n<html>\n\n\n\n<head>\n\n</head>\n"
        "          <body>\n    ook     eek\n"
        "                                        <pre>\n"
        "    This should be ignored\n\n                also this\n"
        "         </pre>\n                                    <div></div>\n"
        " <p>   Ook\n<span> Eek!</span>     </p>\n</body>\n   </html>"
    )
    assert doc(messy, indent_step=4) == (
        "<!DOCTYPE html>\n<html>\n    <head></head>\n\n    <body>ook eek\n"
        "        <pre>    This should be ignored\n\n                also this\n"
        "         </pre>\n\n        <div></div>\n\n"
        "        <p>Ook <span>Eek!</span></p>\n    </body>\n</html>"
    )
    # same, tab indention
    assert doc(messy, indent_step=1, indent_with_spaces=False) == (
        "<!DOCTYPE html>\n<html>\n\t<head></head>\n\n\t<body>ook eek\n"
        "\t\t<pre>    This should be ignored\n\n                also this\n"
        "         </pre>\n\n\t\t<div></div>\n\n"
        "\t\t<p>Ook <span>Eek!</span></p>\n\t</body>\n</html>"
    )
    # fragment: html inline elements — whitespace trimmed away
    frag = parse_fragment("div", "<span> <span> Ook!</span></span>")
    assert serialize(
        frag, reformat_whitespace=True, foreign_void_end_tags=False
    ) == "<span><span>Ook!</span></span>"
    # fragment: foreign elements as block
    frag = parse_fragment("div", '<svg> <g><path d=""/></g></svg>')
    assert serialize(
        frag, reformat_whitespace=True, foreign_void_end_tags=False
    ) == '<svg>\n <g>\n  <path d=""/>\n </g>\n</svg>'


def test_pretty_print_block_comments_grouping():
    """Comments/PIs between block siblings get their own indented,
    group-separated lines (TestSerializer.php 'Block serialized
    comments' row, with PI parsing on)."""
    from html_extract.parser import Config, parse
    from html_extract.serializer import serialize

    doc = parse(
        "<html>\n <head></head>\n <body>\n  <div></div>\n  <!--ook-->\n"
        "  <?ook eeeeek ?>\n  <div></div>\n </body>\n</html>",
        config=Config(processing_instructions=True),
    ).document
    assert serialize(
        doc, reformat_whitespace=True, foreign_void_end_tags=False
    ) == (
        "<html>\n <head></head>\n\n <body>\n  <div></div>\n\n  <!--ook-->\n\n"
        "  <?ook eeeeek ?>\n\n  <div></div>\n </body>\n</html>"
    )


def test_pretty_print_default_path_unchanged():
    """reformat_whitespace defaults off: byte-identical plain output."""
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    src = "<p> a  <b> b </b></p>"
    doc = parse(src).document
    assert serialize(doc) == (
        "<html><head></head><body><p> a  <b> b </b></p></body></html>"
    )


def test_pretty_print_conditional_block_per_parent():
    """BLOCK_QUERY's not(last()=1) predicate is per child-axis step
    (Serializer.php:56): a conditional name (button/input/output/
    textarea) counts as block only when its OWN parent has more than
    one HTML-ns element child, not when the whole descendant set
    does."""
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    def doc(src):
        return serialize(
            parse(src).document,
            reformat_whitespace=True,
            foreign_void_end_tags=False,
        )

    # input's parent <b> has exactly one qualifying child -> span stays
    # inline even though the span subtree has two elements overall
    assert doc("<span><b><input></b><i>x</i></span>") == (
        "<html>\n <head></head>\n\n"
        " <body><span><b><input></b><i>x</i></span></body>\n</html>"
    )
    # two inputs under one parent -> conditional qualifies -> block
    assert doc("<span><b><input><input></b></span>") == (
        "<html>\n <head></head>\n\n <body>\n  <span>\n   <b>\n"
        "    <input>\n    <input>\n   </b>\n  </span>\n </body>\n</html>"
    )


def test_pretty_print_body_not_real_block_ancestor():
    """The reference's inline text-run ancestor XPath spells the body
    test `name="body"` (attribute test, Serializer.php:397), so body
    never anchors a text run; text directly under body joins runs
    under the html ancestor.  Reproduced bug-for-bug."""
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    out = serialize(
        parse("<body>leading <b>bold</b> trailing").document,
        reformat_whitespace=True,
        foreign_void_end_tags=False,
    )
    assert out == (
        "<html>\n <head></head>\n\n"
        " <body>leading <b>bold</b> trailing</body>\n</html>"
    )


def test_pretty_print_survives_pathological_depth():
    """The pretty printer walks an explicit stack, so a 30k-deep
    document must serialize without RecursionError (found by the
    round-4 repeated-structure hunt; the default serializer was
    already iterative)."""
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    depth = 30_000
    doc = parse("<i>" * depth + "x").document
    out = serialize(doc, reformat_whitespace=True)
    # inline chain: no indentation explosion, content preserved
    assert "x" in out
    assert out.count("<i>") == depth


@pytest.mark.parametrize(
    "shape",
    [
        lambda n: "<div>" * n,
        lambda n: "<span>" * n,
        lambda n: "<svg>" + "<g>" * n,
        lambda n: "<div>" + "<p>a</p>" * n,
        lambda n: "<b>a</b> x " * n,
        lambda n: "<div>x " * n,
    ],
    ids=["div-deep", "span-deep", "svg-g-deep", "p-wide", "inline-run", "div-text-deep"],
)
def test_pretty_print_is_linear_time(shape):
    """Each node's context (under a preformatted element, foreign root
    as block, previous sibling, place in its text run, block
    descendant) is found once, not by a walk over its ancestors,
    siblings or run: a printer that searches for it is quadratic in
    depth, width or run length (about 64x the time for 8x the input).
    ``indent_step=0`` keeps the output linear too, so the ratio is the
    printer's own."""
    import time

    from html_extract.parser import parse
    from html_extract.serializer import serialize

    def best_of_3(n):
        doc = parse(shape(n)).document
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            serialize(doc, reformat_whitespace=True, indent_step=0)
            best = min(best, time.perf_counter() - t0)
        return best

    assert best_of_3(16000) < 20 * best_of_3(2000)


def test_serialize_inner_pretty_document():
    """serialize_inner pretty-prints a node's children as serialize
    lays out a document's, so for a document the two agree."""
    from html_extract.parser import Config, parse
    from html_extract.serializer import serialize, serialize_inner

    doc = parse(
        "<!DOCTYPE html><!--c--><title>t</title><div> a <b>b</b></div>"
        "<pre>\n x </pre><svg><g></g></svg><p>y</p>",
        config=Config(processing_instructions=True),
    ).document
    for opts in ({}, {"indent_step": 2, "indent_with_spaces": False,
                      "group_elements": False, "foreign_void_end_tags": False}):
        pretty = serialize(doc, reformat_whitespace=True, **opts)
        assert serialize_inner(doc, reformat_whitespace=True, **opts) == pretty
    # an element's children: laid out from level 0, first on line one
    body = doc.children[-1].children[-1]
    assert serialize_inner(body, reformat_whitespace=True) == (
        "<div>a <b>b</b></div>\n\n<pre> x </pre>\n\n<svg>\n <g></g>\n</svg>"
        "\n\n<p>y</p>"
    )
