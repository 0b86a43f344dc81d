"""Per-document memory lifecycle: extract_spans counts every node, runs
with the cyclic collector paused, restores the caller's collector state,
and frees its DOM by reference counting (no cyclic garbage)."""

import gc
from collections import Counter

import pyarrow as pa
import pytest

from html_extract import extract as E
from html_extract import pipeline as P
from html_extract.dom import Element, Node, release_tree
from html_extract.extract import extract_spans, gc_paused
from html_extract.parser import parse, parse_fragment
from html_extract.serializer import serialize
from html_extract.tokenizer import Tokenizer
from html_extract.treebuilder import ElementStack, TreeBuilder
from perfbench.inputs import big_page
from tests.treefmt import count_nodes

TEMPLATES = (
    "<template><p>a<template><b>x</b></template></p></template>"
    "<table><template><tr><td>y</td></tr></template><tr><td>z</td></tr></table>"
)
ADOPTION = "<b><i>one<div>two<p>x</b>three</i>four</div><a>1<p>2</a>3"
FOSTER = "<table>foo<tr><td>x</td></tr>bar<b>baz</b></table>"
# no explicit <body> tag: that would turn frameset-ok off
FRAMESET = "<div><b><i></i></b></div><frameset><frame></frameset>"
DEEP = "<div>" * 30000 + "x" + "</div>" * 30000
# the charset meta sits past the 1024-byte prescan: the parse starts as
# windows-1252 and restarts as UTF-8 when the tree builder meets it
RESTART = (
    b"<!DOCTYPE html><html><head><!--" + b"x" * 2000 + b'--><meta charset="utf-8">'
    b"<title>caf\xc3\xa9</title></head><body><p>" + b"na\xc3\xafve words " * 10
    + b"</p></body></html>"
)

EXACT_CASES = {
    "templates": TEMPLATES,
    "adoption": ADOPTION,
    "foster": FOSTER,
    "frameset": FRAMESET,
    "deep": DEEP,
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_n_nodes_is_exact(name):
    doc = EXACT_CASES[name]
    want = count_nodes(parse(doc).document)
    assert extract_spans(doc)[1]["n_nodes"] == want


def test_exact_cases_exercise_their_feature():
    """Each EXACT_CASES input builds the tree shape it is named for."""
    out = serialize(parse(TEMPLATES).document)
    assert out.count("<template>") == 3 and "<td>y</td>" in out
    # adoption agency: </a> with <p> as furthest block clones the <a>
    assert "<a>1</a><p><a>2</a>3</p>" in serialize(parse(ADOPTION).document)
    # foster parenting: the table text lands before the table
    assert "<body>foobar<b>baz</b><table>" in serialize(parse(FOSTER).document)
    out = serialize(parse(FRAMESET).document)
    assert "<frameset>" in out and "<body>" not in out
    assert count_nodes(parse(DEEP).document) > 30000


def test_release_tree_counts_and_empties():
    doc = parse(TEMPLATES).document
    want = count_nodes(doc)
    template = next(
        n for n in doc.children[0].children[1].children if isinstance(n, Element)
    )
    assert release_tree(doc) == want
    assert doc.children == [] and template.parent is None
    assert template.children == [] and template.template_content is None


def test_collector_paused_during_extraction(monkeypatch):
    seen = []
    walk = E.extract_from_document

    def probe(doc, *args):
        seen.append(gc.isenabled())
        return walk(doc, *args)

    monkeypatch.setattr(E, "extract_from_document", probe)
    assert gc.isenabled()
    extract_spans("<p>" + "word " * 20)
    assert seen == [False]
    assert gc.isenabled()


def _poison_batch():
    span = [{"kind": "html", "text": None, "media_ref": "", "offset": 0}]
    good = [{"kind": "html", "text": "<p>" + "word " * 20, "media_ref": "", "offset": 0}]
    return pa.table(
        {
            "doc_id": pa.array(["doc-1", "doc-2"], pa.string()),
            "spans": pa.array([span, good], pa.list_(P.SPAN_IN_T)),
        }
    )


def test_collector_enabled_after_normal_and_raising_documents():
    assert gc.isenabled()
    extract_spans(RESTART)
    assert gc.isenabled()
    out = P.ExtractActor()(_poison_batch())
    assert out["ok"].to_pylist() == [False, True]
    assert gc.isenabled()
    with pytest.raises(TypeError):
        extract_spans(None)
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    try:
        extract_spans("<p>" + "word " * 20)
        assert not gc.isenabled()
        out = P.ExtractActor()(_poison_batch())
        assert out["ok"].to_pylist() == [False, True]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_paused_nests():
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.fixture
def saveall():
    """gc.garbage collects everything the collector finds unreachable."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


_PARSE_STATE = (Node, TreeBuilder, Tokenizer, ElementStack)

NO_GARBAGE_CASES = {
    "big_page_1mib": lambda: big_page(7, 1 << 20),
    "template_in_table": lambda: TEMPLATES,
    "encoding_restart": lambda: RESTART,
    "frameset": lambda: FRAMESET,
}


@pytest.mark.parametrize("name", sorted(NO_GARBAGE_CASES))
def test_extract_spans_leaves_no_cyclic_garbage(name, saveall):
    page = NO_GARBAGE_CASES[name]()
    spans, meta = extract_spans(page)
    assert meta["n_nodes"] > 1
    gc.collect()
    # type names only: a failing test must not keep the garbage alive
    left = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, _PARSE_STATE))
    assert not left, f"left as cyclic garbage: {dict(left)}"


@pytest.mark.parametrize(
    "context,markup",
    [("td", "<td>x<b>y</b>"), ("svg path", "<g>a</g>"), ("template", "<tr><td>z")],
)
def test_parse_fragment_leaves_no_cyclic_garbage(context, markup, saveall):
    """The scratch Document and <html> root of a fragment parse are
    freed by reference counting; only the returned fragment survives,
    and ``release_tree`` frees it like a parsed document."""
    frag = parse_fragment(context, markup)
    assert release_tree(frag) > 1
    del frag
    gc.collect()
    left = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, _PARSE_STATE))
    assert not left, f"left as cyclic garbage: {dict(left)}"


def test_restart_case_restarts():
    assert parse(RESTART).restarted
    assert parse(RESTART).encoding == "UTF-8"
