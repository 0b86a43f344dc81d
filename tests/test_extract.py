"""Extraction heuristics: boilerplate strip + media resolution + ordering."""

from html_extract.extract import extract_spans, process_document
from html_extract.parser import parse
from tests.treefmt import count_nodes

ARTICLE = """
<!DOCTYPE html><html><head><title>Page Title</title></head><body>
<nav><a href="/">Home</a> <a href="/about">About</a></nav>
<header class="masthead">Site header junk</header>
<main>
<article>
<h1>The Headline</h1>
<p>This is the first paragraph of real content, long enough to matter
for any reasonable extraction heuristic to keep it around.</p>
<img src="mem://asset/1" alt="A chart">
<p>Second paragraph follows the image and is also long enough to be
kept by the text-density scoring rules.</p>
</article>
</main>
<aside class="sidebar"><p>Related links you do not want, with enough text to pass density checks if not pruned.</p></aside>
<footer><p>Copyright footer text that is reasonably long too but must be dropped.</p></footer>
</body></html>
"""


def test_article_extraction_order_and_pruning():
    spans, meta = extract_spans(ARTICLE)
    kinds = [s[0] for s in spans]
    texts = [s[1] for s in spans]
    refs = [s[2] for s in spans]
    assert ("media", "A chart", "mem://asset/1") in spans
    assert any("first paragraph" in t for t in texts)
    assert any("Second paragraph" in t for t in texts)
    # boilerplate gone
    joined = " ".join(texts)
    assert "Home" not in joined
    assert "Site header junk" not in joined
    assert "Related links" not in joined
    assert "Copyright" not in joined
    # title and headline kept
    assert "Page Title" in texts
    assert "The Headline" in texts
    # media sits between the two paragraphs
    i_first = next(i for i, t in enumerate(texts) if "first paragraph" in t)
    i_media = kinds.index("media")
    i_second = next(i for i, t in enumerate(texts) if "Second paragraph" in t)
    assert i_first < i_media < i_second
    assert meta["quirks_mode"] == 0
    assert meta["n_nodes"] == count_nodes(parse(ARTICLE).document) > 10


def test_link_farm_dropped():
    html = (
        "<body><p>"
        + "".join(f'<a href="/{i}">link text {i}</a> ' for i in range(10))
        + "</p></body>"
    )
    spans, _ = extract_spans(html)
    assert spans == []


def test_short_fragments_dropped_long_kept():
    spans, _ = extract_spans("<p>tiny</p>")
    assert spans == []
    long_p = "<p>" + "word " * 20 + "</p>"
    spans, _ = extract_spans(long_p)
    assert len(spans) == 1 and spans[0][0] == "text"


def test_process_document_interleaving():
    in_spans = [
        ("text", "  plain   lead-in text  ", ""),
        ("html", "<article><p>HTML content paragraph that is long enough to keep.</p></article>", ""),
        ("media", "a caption", "mem://asset/9"),
    ]
    out, meta = process_document("doc-1", in_spans)
    assert [s[3] for s in out] == list(range(len(out)))
    assert out[0] == ("text", "plain lead-in text", "", 0)
    assert out[-1] == ("media", "a caption", "mem://asset/9", len(out) - 1)
    assert any(s[0] == "text" and "HTML content" in s[1] for s in out)


def test_deterministic():
    a = extract_spans(ARTICLE)
    b = extract_spans(ARTICLE)
    assert a[0] == b[0]


NEWS_PAGE = (
    '<!DOCTYPE html><html><head><title>Quarterly Results</title></head><body>'
    '<nav><a href="/">Home</a><a href="/biz">Business</a></nav>'
    '<main><article>'
    '<h1>Acme Reports Strong Quarter</h1>'
    '<p>Acme Corporation announced record revenue this quarter, beating '
    'analyst expectations by a wide margin across all segments.</p>'
    '<img src="mem://chart/1" alt="Revenue chart">'
    '<p>The company credited growth in its cloud division, which has '
    'doubled year over year according to the earnings release.</p>'
    '</article></main>'
    '<footer><p>Contact us at example.com for syndication rights and '
    'other inquiries about this material.</p></footer>'
    '</body></html>'
)


def test_exact_span_golden():
    """Frozen end-to-end golden: exact ordered spans for a realistic page."""
    spans, meta = extract_spans(NEWS_PAGE)
    assert spans == [
        ("text", "Quarterly Results", ""),
        ("text", "Acme Reports Strong Quarter", ""),
        (
            "text",
            "Acme Corporation announced record revenue this quarter, "
            "beating analyst expectations by a wide margin across all "
            "segments.",
            "",
        ),
        ("media", "Revenue chart", "mem://chart/1"),
        (
            "text",
            "The company credited growth in its cloud division, which has "
            "doubled year over year according to the earnings release.",
            "",
        ),
    ]
    assert meta["quirks_mode"] == 0
    assert meta["encoding"] == "UTF-8"


def test_base_href_resolves_relative_media():
    html = (
        '<!DOCTYPE html><head><base href="https://ex.org/a/"></head>'
        '<body><article><p>Long enough paragraph of content to be kept '
        'by the scoring rules without question.</p>'
        '<img src="img/x.png" alt="rel">'
        '<img src="https://cdn.example/y.png" alt="abs"></article>'
    )
    spans, _ = extract_spans(html)
    refs = [s[2] for s in spans if s[0] == "media"]
    assert refs == ["https://ex.org/a/img/x.png", "https://cdn.example/y.png"]


def test_srcset_fallback_takes_first_candidate():
    """An image with no src/data-src/poster takes its media ref from the
    first ``srcset`` candidate URL (descriptor dropped)."""
    spans, _ = extract_spans(
        '<body><img srcset="a.png 1x, b.png 2x" alt="A pic"></body>'
    )
    assert spans == [("media", "A pic", "a.png")]


def test_id_alone_prunes_next_to_a_neutral_class():
    """class and id are matched as one string, so an element whose class
    is neutral is still pruned when its id names boilerplate."""
    para = "<p>{} paragraph with enough words to pass the length cut.</p>"
    spans, _ = extract_spans(
        '<body><div class="story" id="sidebar">' + para.format("Sidebar")
        + '</div><div class="story">' + para.format("Story") + "</div></body>"
    )
    texts = [s[1] for s in spans]
    assert any(t.startswith("Story paragraph") for t in texts)
    assert not any("Sidebar" in t for t in texts)
