"""html_extract — a Ray-Data-native HTML5 main-content extraction engine.

Built from scratch against the WHATWG HTML parsing spec, with operator
parity to mensbeam/HTML-Parser (the reference at /root/reference; see
SURVEY.md for the file:line operator inventory).  The per-document core
(charset sniff -> tokenize <-> tree-build -> extract spans) is pure
Python and runs inside Ray Data ``map_batches`` tasks on the session's
task pool; everything crossing a stage boundary is Arrow.

Public API:
    parse(text_or_bytes, ...)         -> Output (document, encoding, quirks, errors)
    parse_fragment(context, text)     -> list of nodes
    serialize(node) / serialize_inner -> str
    extract_spans(text_or_bytes)      -> (spans, meta): ordered (kind, text, media_ref) spans
    process_document(doc_id, spans)   -> (spans, meta): (kind, text, media_ref, order) spans
    pipeline.*                        -> Ray Data pipelines (read -> parse -> write)
"""

from .parser import Config, Output, parse, parse_fragment
from .serializer import serialize, serialize_inner
from .extract import extract_spans, process_document
from .domparser import parse_from_string

__all__ = [
    "Config",
    "Output",
    "parse",
    "parse_fragment",
    "parse_from_string",
    "serialize",
    "serialize_inner",
    "extract_spans",
    "process_document",
]

__version__ = "0.1.0"
