"""Public parse API — the per-document pipeline the Ray stages wrap.

Reference parity: lib/Parser.php (parse :49-51 / parseFragment :61-72 /
parseDocumentOrFragment :85-142, including the bounded encoding-change
re-parse at :115-131) and lib/Parser/Config.php.
"""

from dataclasses import dataclass, field

from . import charset as cs
from . import tokenizer as tkz
from .dom import Document, DocumentFragment, release_tree
from .tables import HTML_NS, MATHML_NS, SVG_NS
from .tokenizer import Tokenizer
from .treebuilder import TreeBuilder

_NS_PREFIX = {"svg": SVG_NS, "math": MATHML_NS}


@dataclass
class Config:
    """Pipeline config (reference: lib/Parser/Config.php:9-22)."""

    encoding_fallback: str = "windows-1252"
    error_collection: bool = False
    # line/col resolution + input-stream scans cost ~10% of a parse; the
    # pipeline only needs error COUNTS, so it turns positions off
    error_positions: bool = True
    processing_instructions: bool = False
    # HTML scripting flag (spec 13.2.6.4.4): changes <noscript> handling
    # only; this engine never executes scripts either way
    scripting: bool = False


@dataclass
class Output:
    """Result record (reference: lib/Parser/Output.php:9-18)."""

    document: Document
    encoding: str
    quirks_mode: int
    errors: list = field(default_factory=list)
    restarted: bool = False  # an encoding-change re-parse happened


class _EncodingChange(Exception):
    def __init__(self, encoding):
        self.encoding = encoding


def _normalize(text: str) -> str:
    """Input-stream preprocessing: CR / CRLF -> LF (Data.php:104-114)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


import re as _re

# E8: input-stream error detection (Data.php:119-174) — control characters
# and noncharacters flagged with positions; only when errors are collected
# (the reference's errorCollection gate, Config.php:16-17).
_CONTROL_RE = _re.compile(
    "[\x01-\x08\x0b\x0e-\x1f\x7f-\x9f]"
)
_NONCHAR_RE = _re.compile(
    "[﷐-﷯￾￿]|[\U0001fffe\U0001ffff\U0002fffe\U0002ffff"
    "\U0003fffe\U0003ffff\U0004fffe\U0004ffff\U0005fffe\U0005ffff"
    "\U0006fffe\U0006ffff\U0007fffe\U0007ffff\U0008fffe\U0008ffff"
    "\U0009fffe\U0009ffff\U000afffe\U000affff\U000bfffe\U000bffff"
    "\U000cfffe\U000cffff\U000dfffe\U000dffff\U000efffe\U000effff"
    "\U000ffffe\U000fffff\U0010fffe\U0010ffff]"
)


def _input_stream_errors(text: str):
    errors = []
    for m in _CONTROL_RE.finditer(text):
        errors.append(("control-character-in-input-stream", m.start()))
    for m in _NONCHAR_RE.finditer(text):
        errors.append(("noncharacter-in-input-stream", m.start()))
    return errors


class _LineCol:
    """Offset -> (line, column), 1-based, from precomputed newline index."""

    def __init__(self, text: str):
        import bisect

        self._bisect = bisect.bisect_right
        self._nl = [i for i, c in enumerate(text) if c == "\n"]

    def __call__(self, offset: int):
        if offset < 0:
            return (-1, -1)
        line = self._bisect(self._nl, offset - 1)
        col = offset - (self._nl[line - 1] + 1 if line > 0 else 0) + 1
        return (line + 1, col)


def _parse_once(text, config, encoding_name, certain, raw_had_meta_hook):
    tok = Tokenizer(
        _normalize(text),
        processing_instructions=config.processing_instructions,
    )
    tb = TreeBuilder(
        tok,
        collect_errors=config.error_collection,
        scripting=config.scripting,
    )
    if raw_had_meta_hook and not certain:

        def on_meta(attrs):
            # changeEncoding step 1 (Data.php:305-310): a stream already
            # being read as UTF-16 keeps its encoding (confidence
            # becomes certain); the meta is ignored entirely
            if encoding_name in ("UTF-16BE", "UTF-16LE"):
                return
            canon = cs.meta_encoding(attrs)
            if canon is not None and canon != encoding_name:
                raise _EncodingChange(canon)

        tb.on_meta = on_meta
    try:
        tb.run()
    except _EncodingChange:
        # the abandoned attempt: free its partial tree now, so a restart
        # never holds two trees while the collector is paused
        release_tree(tb.doc)
        raise
    return tok, tb


def parse(data, content_type=None, config=None) -> Output:
    """Parse an HTML document from str or bytes.

    bytes input runs the full encoding-sniffing algorithm and the
    bounded mid-parse encoding-change restart (max one re-parse,
    Parser.php:115-131).
    """
    if config is None:
        config = Config()
    if isinstance(data, (bytes, bytearray, memoryview)):
        raw = bytes(data)
        enc, certain, bomlen = cs.detect(
            raw, transport_charset=content_type, default=config.encoding_fallback
        )
        text = cs.decode(raw[bomlen:], enc)
        try:
            tok, tb = _parse_once(text, config, enc, certain, True)
            restarted = False
        except _EncodingChange as change:
            enc = change.encoding
            restarted = True
        if restarted:
            # outside the except block: the exception's traceback, and
            # with it the first attempt's builder and text, is gone
            text = cs.decode(raw[bomlen:], enc)
            tok, tb = _parse_once(text, config, enc, True, False)
    else:
        enc = "UTF-8"
        text = data
        tok, tb = _parse_once(data, config, enc, True, False)
        restarted = False
    if config.error_collection:
        if config.error_positions:
            # error tuples as (code, line, col) — parity with the
            # [line, column, code] records of ParseError.php:167;
            # position tracking only happens when collection is on
            # (Data.php:56-57 performance gate)
            norm = _normalize(text)
            linecol = _LineCol(norm)
            errors = [
                (code, *linecol(off))
                for code, off in _input_stream_errors(norm)
                + tok.errors
                + tb.errors
            ]
        else:
            errors = [
                (code, -1, -1) for code, _ in tok.errors + tb.errors
            ]
    else:
        errors = []
    return Output(
        document=tb.doc,
        encoding=enc,
        quirks_mode=tb.quirks_mode,
        errors=errors,
        restarted=restarted,
    )


def parse_fragment(context, data, config=None) -> DocumentFragment:
    """Fragment parsing (innerHTML semantics).

    ``context`` is a tag name ("td") or a namespace-prefixed name
    ("svg path", "math ms") as used by the conformance corpus.
    """
    if config is None:
        config = Config()
    if isinstance(context, tuple):
        ns, name = context
    elif " " in context:
        prefix, name = context.split(" ", 1)
        ns = _NS_PREFIX[prefix]
    else:
        ns, name = HTML_NS, context
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8", errors="replace")
    tok = Tokenizer(
        _normalize(data),
        processing_instructions=config.processing_instructions,
    )
    tb = TreeBuilder(
        tok,
        fragment_context=(ns, name),
        collect_errors=config.error_collection,
        scripting=config.scripting,
    )
    tb.run()
    frag = DocumentFragment()
    root = tb.doc.children[0]
    for child in list(root.children):
        frag.append(child)
    # the scratch Document and <html> root link to each other: unlink
    # them so reference counting frees them (no cyclic garbage)
    release_tree(tb.doc)
    return frag
