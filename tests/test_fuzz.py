"""Property tests: the parser must never crash, must be deterministic,
and extraction output must be well-formed for arbitrary input."""

import pytest
from hypothesis import given, settings, strategies as st

from html_extract.extract import extract_spans, process_document
from html_extract.parser import parse
from html_extract.serializer import serialize
from tests.treefmt import count_nodes

# strings biased toward markup-significant characters and constructs
_tokens = st.sampled_from(
    list("<>&;/!-=\"' abcdefgABC\t\n\x0c\x00[]?#xX0123456789")
    + [
        "<!--", "-->", "<![CDATA[", "]]>", "</", "<!DOCTYPE", "&amp",
        "&#", "<script>", "<table>", "<b>", "<p>", "</b>", "<svg>",
        "<template>", "<select>", "<title>", "&#x41;", "<li>", "<tr>",
    ]
)
markup = st.lists(_tokens, min_size=0, max_size=60).map("".join)


@settings(max_examples=300, deadline=None)
@given(markup)
def test_parse_never_crashes_and_is_deterministic(s):
    out1 = parse(s)
    out2 = parse(s)
    assert serialize(out1.document) == serialize(out2.document)


@settings(max_examples=150, deadline=None)
@given(markup)
def test_extract_spans_well_formed(s):
    spans, meta = extract_spans(s)
    for kind, text, ref in spans:
        assert kind in ("text", "media")
        assert isinstance(text, str) and isinstance(ref, str)
        if kind == "text":
            assert text == text.strip()
    assert meta["n_nodes"] == count_nodes(parse(s).document) >= 1


@settings(max_examples=100, deadline=None)
@given(markup, markup)
def test_process_document_order_contiguous(a, b):
    out, _ = process_document(
        "doc-x", [("html", a, ""), ("text", b, ""), ("media", "", "m://1")]
    )
    assert [s[3] for s in out] == list(range(len(out)))


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_bytes_input_never_crashes(raw):
    out = parse(raw)
    assert out.encoding
    serialize(out.document)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["html", "text", "media", "weird"]),
                markup,
                st.sampled_from(["", "mem://x", "mem://y/z"]),
            ),
            min_size=0,
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_extract_actor_arrow_roundtrip(doc_specs):
    """ExtractActor must produce a valid Arrow batch for arbitrary doc
    shapes (incl. empty span lists and unknown kinds), and the span codec
    must hold at its edges (``_assert_codec_edges``)."""
    import pyarrow as pa

    from html_extract.pipeline import SPAN_IN_T, ExtractActor

    rows = []
    for spans in doc_specs:
        rows.append(
            [
                {"kind": k, "text": t, "media_ref": m, "offset": i}
                for i, (k, t, m) in enumerate(spans)
            ]
        )
    batch = pa.table(
        {
            "doc_id": pa.array([f"doc-{i}" for i in range(len(rows))]),
            "spans": pa.array(rows, pa.list_(SPAN_IN_T)),
            "n_bytes": pa.array([0] * len(rows), pa.int64()),
        }
    )
    out = ExtractActor()(batch)
    assert out.num_rows == len(rows)
    for row in out["spans"].to_pylist():
        orders = [s["order"] for s in row]
        assert orders == list(range(len(orders)))
    _assert_codec_edges(doc_specs, batch, out)


def _sans_parse_ns(table):
    rows = table.to_pylist()
    for r in rows:
        r["meta"].pop("parse_ns")
    return rows


def _assert_codec_edges(doc_specs, batch, out):
    """The span codec's edge cases on one batch: declared types out of
    the adapter (over the spans' text as documents) and ExtractActor, a
    null spans row, a slice whose list offsets do not start at 0, and a
    zero-row batch."""
    import pyarrow as pa

    from html_extract.pipeline import (
        META_T, SPAN_IN_T, SPAN_OUT_T, ExtractActor, InterleaveAdapter,
    )

    docs = pa.table(
        {
            "doc_id": pa.array(range(len(doc_specs)), pa.int64()),
            "text": ["".join(t for _, t, _ in spans) for spans in doc_specs],
        }
    )
    for mode in ("rich", "plain"):
        (adapted,) = InterleaveAdapter(mode=mode)(docs)
        assert adapted.schema.field("spans").type == pa.list_(SPAN_IN_T)
        assert adapted.num_rows == len(doc_specs)
    assert out.schema.field("spans").type == pa.list_(SPAN_OUT_T)
    assert out.schema.field("meta").type == META_T
    whole = _sans_parse_ns(out)
    # a null spans row fails alone; its neighbours are unchanged
    spans = batch["spans"].combine_chunks()
    nulled = pa.ListArray.from_arrays(
        spans.offsets, spans.values, mask=pa.array([i == 0 for i in range(len(spans))])
    )
    got = _sans_parse_ns(ExtractActor()(batch.set_column(1, "spans", nulled)))
    assert got[0]["ok"] is False and got[0]["spans"] == []
    assert got[0]["meta"]["n_errors"] == -1
    assert got[1:] == whole[1:]
    # a slice of a larger table reads as the whole table's rows
    for lo in range(1, batch.num_rows):
        assert _sans_parse_ns(ExtractActor()(batch.slice(lo))) == whole[lo:]
    empty = ExtractActor()(batch.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == out.schema


def test_div_spam_document_is_linear_time():
    """Thousands of unclosed divs with interleaved <p>: the per-name
    open-count fast path must keep scope checks O(1) (a spec-literal
    walk is quadratic here — measured 100x slowdowns on 3 MB pages)."""
    import time

    from html_extract.extract import process_document

    monster = "<div><p>words in a paragraph</p><img src='x.png'>" * 20000
    t0 = time.perf_counter()
    spans, meta = process_document("d", [("html", monster, "")])
    dt = time.perf_counter() - t0
    assert meta["n_nodes"] == count_nodes(parse(monster).document) > 60000
    assert len(spans) > 1000
    assert dt < 20  # quadratic behavior would take minutes


def test_adoption_agency_deep_stack_is_linear_time():
    """An end tag for the top formatting element over thousands of open
    divs: the adoption agency must take the element's stack index from
    its scope check, not re-scan the stack from the bottom (quadratic
    here: 56x the time for 8x the input on one 1-vCPU host)."""
    import time

    def best_of_3(d):
        doc = "<b>" + "<div>" * d + "x<i></i>" * d
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            extract_spans(doc)
            best = min(best, time.perf_counter() - t0)
        return best

    assert best_of_3(16000) < 20 * best_of_3(2000)


def test_unclosed_formatting_spam_is_linear_time():
    """Thousands of unclosed <b class=..>: Noah's-Ark caps the AFE, and
    stack membership checks must be O(1) (el.on_stack), not list scans."""
    import time

    from html_extract.extract import process_document

    doc = "<b class='c'>" * 30000 + "x"
    t0 = time.perf_counter()
    spans, meta = process_document("d", [("html", doc, "")])
    dt = time.perf_counter() - t0
    assert meta["n_nodes"] == count_nodes(parse(doc).document) > 30000
    assert dt < 15


@pytest.mark.parametrize(
    "name,doc",
    [
        ("comment-spam", "<!--x-->" * 60000),
        ("charref-spam", "&amp;" * 120000),
        ("bogus-tag-spam", "<123>" * 100000),
        ("attr-spam", "<div " + " ".join(f"a{i}=1" for i in range(40000)) + ">"),
        ("a-spam", "<a href='x'>t" * 15000),
        ("foster-text-spam", "<b><table>" + "x<z>" * 15000),
        ("p-spam", "<p>t" * 25000),
        ("span-deep", "<span>" * 25000 + "x"),
        ("td-spam", "<table><tr>" + "<td>c" * 15000),
        ("header-spam", "<h1>x<h2>y" * 10000),
        # hunt r5 REAL BUG: EOF with >50 open templates tripped the
        # reprocess cap (the spec's per-template EOF loop is legal
        # linear work; the reference's equivalent cap is a debug-only
        # assert).  _m_in_template now drains templates iteratively.
        ("template-deep", "<template>" * 40000 + "x"),
    ],
)
def test_pathological_shapes_linear(name, doc):
    """MB-scale adversarial shapes must stay linear-time (each was
    probed at multiple sizes during development; the bound here is ~20x
    the measured cost, so only a complexity regression trips it)."""
    import time

    from html_extract.extract import process_document

    t0 = time.perf_counter()
    spans, meta = process_document("d", [("html", doc, "")])
    assert time.perf_counter() - t0 < 15
