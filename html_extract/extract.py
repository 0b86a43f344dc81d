"""Main-content extraction: DOM-heuristic boilerplate strip -> ordered spans.

This is the north-star stage required by BASELINE.json ("DOM-heuristic
boilerplate stripping (text-density, link-density, tag-class scoring)
that also resolves embedded media refs into ordered spans").  It is NOT
present in the reference parser — the reference contributes the DOM
(SURVEY.md §2.2 'Extraction stage'); the scoring here is new code.

Everything is deterministic and float-free (integer thresholds only) so
that the single-process oracle and the Ray pipeline agree bit-for-bit
on any machine (SURVEY.md §7.3(6)).

Heuristics:
- PRUNE: subtrees under chrome/form tags, or any element whose class/id
  matches the boilerplate regex, are dropped.
- Text blocks: text accumulates to the nearest block-level ancestor;
  a block is kept when its integer score >= 2:
    +1  content-y tag (p, li, td, blockquote, pre, h1-h6, figcaption,
        caption, dd, dt, summary, article, main)
    +1  normalized length >= MIN_KEEP (25)
    +1  normalized length >= GOOD_LEN (80)
    -2  link density > 1/3 (3 * link_chars > chars)
  Headings (h1-h6) and <title> are kept when non-empty and link-free.
- Media: img/video/audio/source/embed/track in unpruned positions emit
  kind="media" spans (ref from src / data-src / srcset / poster; text
  from alt / title / aria-label), interleaved in document order.
"""

import gc
import re
import time
from contextlib import contextmanager

from .dom import Element, Text, release_tree
from .parser import Config, parse
from .tables import HTML_NS

MIN_KEEP = 25
GOOD_LEN = 80

PRUNE_TAGS = frozenset(
    """script style template noscript nav aside footer header form iframe
    button select datalist optgroup option label fieldset legend menu
    frameset frame""".split()
)
BLOCK_TAGS = frozenset(
    """address article aside blockquote body caption center dd details
    dialog dir div dl dt fieldset figcaption figure footer h1 h2 h3 h4 h5
    h6 header hr html li listing main nav ol p plaintext pre section
    summary table tbody td tfoot th thead tr ul xmp""".split()
)
CONTENT_TAGS = frozenset(
    """article blockquote caption dd dt figcaption h1 h2 h3 h4 h5 h6 li
    main p pre summary td th""".split()
)
HEADING_TAGS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])
MEDIA_TAGS = frozenset(["img", "video", "audio", "source", "embed", "track"])

BOILER_RE = re.compile(
    r"(?:^|[\s_-])(?:comment|sidebar|footer|foot|header|nav|navbar|menu|"
    r"advert|ads?|banner|breadcrumb|share|sharing|social|related|promo|"
    r"sponsor|widget|popup|cookie|masthead|byline)(?:$|[\s_-])",
    re.I,
)
_WS_RUN = re.compile(r"[\t\n\x0c\r \xa0]+")


def _norm(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def _is_pruned(el: Element) -> bool:
    if el.namespace == HTML_NS and el.name in PRUNE_TAGS:
        return True
    attrs = el.attrs
    if not attrs:  # the overwhelmingly common bare element
        return False
    cls = attrs.get("class")
    eid = attrs.get("id")
    if cls:
        if eid:
            cls = cls + " " + eid
    elif eid:
        cls = eid
    else:
        return False
    # BOILER_RE words are >= 2 chars, so 1-char values can never match
    return len(cls) > 1 and BOILER_RE.search(cls) is not None


def _media_ref(el: Element):
    for attr in ("src", "data-src", "poster"):
        v = el.attrs.get(attr)
        if v:
            return v.strip()
    srcset = el.attrs.get("srcset")
    if srcset:
        first = srcset.split(",")[0].strip().split(" ")[0]
        if first:
            return first
    return None


def _media_text(el: Element) -> str:
    for attr in ("alt", "title", "aria-label"):
        v = el.attrs.get(attr)
        if v:
            return _norm(v)
    return ""


class _Block:
    __slots__ = ("tag", "pieces", "link_chars", "in_article")

    def __init__(self, tag, in_article):
        self.tag = tag
        self.pieces = []
        self.link_chars = 0
        self.in_article = in_article


def _keep(block: _Block, clean: str) -> bool:
    n = len(clean)
    if n == 0:
        return False
    if block.tag in HEADING_TAGS or block.tag == "title":
        return block.link_chars == 0
    score = 0
    if block.tag in CONTENT_TAGS:
        score += 1
    if block.in_article:
        score += 1
    if n >= MIN_KEEP:
        score += 1
    if n >= GOOD_LEN:
        score += 1
    if 3 * block.link_chars > n:
        score -= 2
    return score >= 2


def _find_base_href(doc):
    """First <base href> in the document (spec: only the first counts)."""
    # tree-builder-parsed documents flag base insertion; skip the walk
    # when no <base> exists (documents from other builders default True)
    if not getattr(doc, "has_base", True):
        return None
    stack = list(reversed(doc.children))
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            if node.namespace == HTML_NS and node.name == "base":
                href = node.attrs.get("href")
                if href:
                    return href.strip()
            stack.extend(reversed(node.children))
    return None


def extract_from_document(doc, base_url=None):
    """DOM -> list of (kind, text, media_ref) in document order.

    Relative media refs are resolved against the document's <base href>
    (or ``base_url``) like a real extractor would; absolute refs pass
    through untouched.
    """
    from urllib.parse import urljoin

    base = _find_base_href(doc) or base_url
    out = []

    def flush(block):
        if block is None or not block.pieces:
            return
        clean = _norm("".join(block.pieces))
        if _keep(block, clean):
            out.append(("text", clean, ""))
        block.pieces = []
        block.link_chars = 0

    # Iterative DOM walk (explicit frames): pathological documents nest
    # tens of thousands deep — the skew tail the north rule calls out —
    # and a recursive walk dies on Python's recursion limit there.
    # The frame tuple is unpacked once per descend/resume, not once per
    # child (the walk is the second-hottest loop after the parse).
    # frame: (element, next_child_idx, block, link_depth, in_article,
    #         block_to_flush_on_exit)
    root = _Block("body", False)
    stack = []
    el, i, block, link_depth, in_article, exit_block = (
        doc, 0, root, 0, False, None,
    )
    while True:
        kids = el.children
        nk = len(kids)
        descended = False
        while i < nk:
            child = kids[i]
            i += 1
            if child.__class__ is Text:
                if block is not None:
                    block.pieces.append(child.data)
                    if link_depth:
                        block.link_chars += len(_norm(child.data))
                continue
            if child.__class__ is not Element:
                continue
            name = child.name
            if child.namespace != HTML_NS:
                # foreign islands: descend for any embedded HTML
                # integration-point content, same block context
                stack.append((el, i, block, link_depth, in_article, exit_block))
                el, i, exit_block = child, 0, None
                descended = True
                break
            if _is_pruned(child):
                continue
            if name in MEDIA_TAGS:
                ref = _media_ref(child)
                if ref:
                    if base and "://" not in ref and not ref.startswith("data:"):
                        ref = urljoin(base, ref)
                    flush(block)
                    out.append(("media", _media_text(child), ref))
                continue
            if name == "title":
                t = _Block("title", in_article)
                stack.append((el, i, block, link_depth, in_article, exit_block))
                el, i, block, link_depth, exit_block = child, 0, t, 0, t
                descended = True
                break
            art = in_article or name in ("article", "main")
            if name in BLOCK_TAGS:
                flush(block)
                sub = _Block(name, art)
                stack.append((el, i, block, link_depth, in_article, exit_block))
                el, i, block, in_article, exit_block = child, 0, sub, art, sub
                descended = True
                break
            stack.append((el, i, block, link_depth, in_article, exit_block))
            el, i, in_article, exit_block = child, 0, art, None
            if name == "a":
                link_depth += 1
            descended = True
            break
        if descended:
            continue
        if exit_block is not None:
            flush(exit_block)
        if not stack:
            break
        el, i, block, link_depth, in_article, exit_block = stack.pop()
    flush(root)
    return out


@contextmanager
def gc_paused():
    """Run the block with the cyclic collector paused, then restore the
    caller's ``gc.isenabled()`` state, also when the block raises.
    Nesting-safe: an inner pause finds the collector off and leaves it
    off.  The switch is process-wide, not per thread: while one thread
    is inside, no thread's garbage is collected, and a thread leaving
    re-enables the collector even if another is still inside (which
    then merely runs with it on)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# shared read-only parse config: Config construction is per-DOC fixed
# cost otherwise (1.7 KB docs feel every allocation; parse() never
# mutates its config)
_EXTRACT_CONFIG = Config(error_collection=True, error_positions=False)


def extract_spans(data):
    """One HTML payload (str/bytes) -> (spans, meta) where spans is a list
    of (kind, text, media_ref) and meta mirrors the Output record.

    Runs with the cyclic collector paused and frees its DOM by reference
    counting (README, "Per-document memory lifecycle")."""
    with gc_paused():
        t0 = time.perf_counter_ns()
        out = parse(data, config=_EXTRACT_CONFIG)
        spans = extract_from_document(out.document)
        n_nodes = release_tree(out.document)
        parse_ns = time.perf_counter_ns() - t0
    meta = {
        "encoding": out.encoding,
        "quirks_mode": out.quirks_mode,
        "n_errors": len(out.errors),
        "n_nodes": n_nodes,
        "parse_ns": parse_ns,
    }
    return spans, meta


def process_document(doc_id, in_spans):
    """Process one interleaved document (the input_hint row shape).

    ``in_spans``: iterable of (kind, text, media_ref) ordered by offset.
    Returns (out_spans, meta): out_spans = [(kind, text, media_ref, order)].
    """
    out = []
    meta_acc = {
        "encoding": "",
        "quirks_mode": 0,
        "n_errors": 0,
        "n_nodes": 0,
        "parse_ns": 0,
    }
    for kind, text, media_ref in in_spans:
        if kind == "html":
            spans, meta = extract_spans(text)
            out.extend(spans)
            meta_acc["encoding"] = meta["encoding"]
            meta_acc["quirks_mode"] = max(
                meta_acc["quirks_mode"], meta["quirks_mode"]
            )
            meta_acc["n_errors"] += meta["n_errors"]
            meta_acc["n_nodes"] += meta["n_nodes"]
            meta_acc["parse_ns"] += meta["parse_ns"]
        elif kind == "media":
            out.append(("media", _norm(text or ""), media_ref or ""))
        else:  # plain text span
            clean = _norm(text or "")
            if clean:
                out.append(("text", clean, ""))
    return [(k, t, m, i) for i, (k, t, m) in enumerate(out)], meta_acc
