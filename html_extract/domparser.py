"""DOMParser facade: MIME-dispatching parseFromString (reference S4).

Parity target: lib/DOMParser.php:76-105 — dispatch on the MIME type,
extract the charset parameter, parse.  The XML branch (the reference
delegates to libxml, DOMParser.php:113-137) is served by the stdlib-
expat-backed ``xmlparser`` module: well-formed XML builds the engine
DOM; malformed XML yields a Mozilla-style parsererror document, never
an exception.
"""

import re

from . import charset as cs
from .parser import Config, Output, parse
from .xmlparser import parse_xml

HTML_TYPES = frozenset(["text/html"])
XML_TYPES = frozenset(
    [
        "text/xml",
        "application/xml",
        "application/xhtml+xml",
        "image/svg+xml",
    ]
)

_MIME_RE = re.compile(r"^\s*([a-zA-Z0-9!#$&^_.+-]+/[a-zA-Z0-9!#$&^_.+-]+)")


def parse_from_string(data, content_type: str, config: Config | None = None) -> Output:
    """Parse ``data`` according to ``content_type`` (MIME + params).

    text/html -> full HTML parse, charset honored from the MIME params
    (bytes input) per the encoding-sniffing transport step.
    XML types -> expat-backed XML parse (parsererror document on
    malformed input, like the reference's libxml branch).
    Anything else -> ValueError (mirrors the reference's TypeError).
    """
    m = _MIME_RE.match(content_type or "")
    if not m:
        raise ValueError(f"invalid MIME type: {content_type!r}")
    essence = m.group(1).lower()
    if essence in HTML_TYPES:
        if config is None:
            # the DOMParser interface defaults to UTF-8, not the HTML
            # parser's windows-1252 fallback (DOMParser.php:97-99)
            config = Config(encoding_fallback="UTF-8")
        return parse(data, content_type=content_type, config=config)
    if essence in XML_TYPES or essence.endswith("+xml"):
        doc = parse_xml(data, transport_charset=cs.from_content_type(content_type))
        return Output(document=doc, encoding="UTF-8", quirks_mode=0)
    raise ValueError(f"unsupported MIME type: {essence}")

