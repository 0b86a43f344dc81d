"""Per-document memory lifecycle: extract_spans counts every node, runs
with the cyclic collector paused, restores the caller's collector state,
and frees its DOM by reference counting (no cyclic garbage).  The DOM is
allocation-lean: shared empties for attribute-less elements and leaf
children, copy on write, and no module-level cache that grows with the
input."""

import gc
import random
import sys
import tracemalloc
from collections import Counter

import pyarrow as pa
import pytest

from html_extract import extract as E
from html_extract import pipeline as P
from html_extract.dom import EMPTY_MAP, Comment, Element, Node, Text, release_tree
from html_extract.extract import extract_spans, gc_paused
from html_extract.parser import parse, parse_fragment
from html_extract.serializer import serialize
from html_extract.tokenizer import Tokenizer
from html_extract.treebuilder import ElementStack, TreeBuilder
from perfbench.inputs import big_page
from tests.treefmt import count_nodes, serialize_test_format

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


def test_dom_bytes_per_node():
    """The live DOM of a parsed page costs at most 250 traced bytes per
    node (about 224 with the shared empties; 372 when every node carried
    its own empty dicts, skey tuple and leaf children list)."""
    page = big_page(7, 1 << 20)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = parse(page).document
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n = release_tree(doc)
    assert live / n <= 250, f"{live / n:.0f} B/node over {n} nodes"


def _elements(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Element):
            yield cur
            if cur.template_content is not None:
                stack.append(cur.template_content)
        stack.extend(cur.children)


# (markup, test-format tree): the copy-on-write writers on elements
# that start out with the shared empty attrs or attr_ns
COPY_ON_WRITE_CASES = {
    "html_merge": (
        "<html a><html b>",
        '| <html>\n|   a=""\n|   b=""\n|   <head>\n|   <body>',
    ),
    "html_merge_into_empty": (
        "<p><html x>",
        '| <html>\n|   x=""\n|   <head>\n|   <body>\n|     <p>',
    ),
    "body_merge_into_empty": (
        "<body><body x>",
        '| <html>\n|   <head>\n|   <body>\n|     x=""',
    ),
    "foreign_attrs_in_adoption": (
        '<a><svg xlink:href="u" viewbox="0 0 1 1"><g/></svg>'
        '<math definitionurl="d" xlink:show="new"></math><p>x</a>y',
        "| <html>\n|   <head>\n|   <body>\n|     <a>\n|       <svg svg>\n"
        '|         viewBox="0 0 1 1"\n|         xlink href="u"\n'
        "|         <svg g>\n|       <math math>\n"
        '|         definitionURL="d"\n|         xlink show="new"\n'
        '|     <p>\n|       <a>\n|         "x"\n|       "y"',
    ),
    "foreign_attrs_under_cloned_formatting": (
        '<b class="k"><i><svg xmlns:xlink="http://www.w3.org/1999/xlink" '
        'xlink:title="t"><p>1</b>2',
        '| <html>\n|   <head>\n|   <body>\n|     <b>\n|       class="k"\n'
        '|       <i>\n|         <svg svg>\n|           xlink title="t"\n'
        '|           xmlns xlink="http://www.w3.org/1999/xlink"\n'
        '|     <i>\n|       <p>\n|         <b>\n|           class="k"\n'
        '|           "1"\n|         "2"',
    ),
}


@pytest.mark.parametrize("name", sorted(COPY_ON_WRITE_CASES))
def test_copy_on_write_keeps_shared_empties_empty(name):
    markup, want = COPY_ON_WRITE_CASES[name]
    doc = parse(markup).document
    assert serialize_test_format(doc) == want
    assert EMPTY_MAP == {} and len(EMPTY_MAP) == 0
    seen_attrs = {}
    for el in _elements(doc):
        # an element with no attribute holds the shared empty, and no
        # two elements share a non-empty dict (adoption clones copy)
        assert el.attrs or el.attrs is EMPTY_MAP
        assert el.attr_ns or el.attr_ns is EMPTY_MAP
        if el.attrs:
            assert id(el.attrs) not in seen_attrs, el.name
            seen_attrs[id(el.attrs)] = el
        assert set(el.attr_ns) <= set(el.attrs)


def test_shared_empty_is_read_only():
    for write in (
        lambda m: m.__setitem__("a", "1"),
        lambda m: m.update(a="1"),
        lambda m: m.setdefault("a", "1"),
    ):
        with pytest.raises(TypeError):
            write(EMPTY_MAP)
    assert dict(EMPTY_MAP) == {} and EMPTY_MAP.get("a") is None
    el = Element("p")
    el.set_attr("a", "1")
    assert el.attrs == {"a": "1"} and EMPTY_MAP == {}


@pytest.mark.parametrize("leaf", [Text("x"), Comment("c")], ids=["text", "comment"])
def test_append_to_a_leaf_raises(leaf):
    parent = Element("p")
    node = Text("y")
    parent.append(node)
    with pytest.raises(AttributeError):
        leaf.append(node)
    with pytest.raises(AttributeError):
        leaf.insert_before(node, None)
    # the failed move left the node where it was
    assert node.parent is parent and parent.children == [node]
    assert leaf.children == ()
    orphan = Text("z")
    with pytest.raises(AttributeError):
        leaf.append(orphan)
    assert orphan.parent is None


def _module_containers():
    """(module, name) -> size of every dict/set/list an html_extract
    module holds at module level."""
    sizes = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "html_extract" or mod is None:
            continue
        for name, value in vars(mod).items():
            if isinstance(value, (dict, set, list)):
                sizes[(modname, name)] = len(value)
    return sizes


def test_no_module_level_cache_grows_with_custom_tag_names():
    rng = random.Random(9)

    def name():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))

    def doc():
        n1, n2, n3 = name(), name(), name()
        return (
            f"<{n1}>a<x-{n2} data-{n3}=v>b</x-{n2}><svg><{n2}-{n3} k=v/></svg>"
            f"<math><{n3}></{n3}></math></{n1}><{n3}/>"
        )

    parse(doc())  # imports and first-call state
    before = _module_containers()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            release_tree(parse(doc()).document)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    after = _module_containers()
    assert {k: (before.get(k), n) for k, n in after.items() if before.get(k) != n} == {}
    # 10k documents with 30k distinct names: a cache keyed by name
    # would hold megabytes
    assert grown < 64 << 10, f"{grown} bytes still allocated"
