"""Serialize a DOM to the html5lib tree-construction test format
('| '-indented), mirroring the reference's serializeNode in
tests/cases/TestTreeConstructor.php:179-250 (attrs sorted, template
'content' pseudo-node, '<ns localName>' prefixes for foreign elements)."""

from html_extract.dom import (
    Comment,
    Doctype,
    Element,
    ProcessingInstruction,
    Text,
)
from html_extract.tables import HTML_NS, MATHML_NS, SVG_NS, XLINK_NS, XML_NS, XMLNS_NS

_NS_PREFIX = {SVG_NS: "svg", MATHML_NS: "math"}
_ATTR_NS_PREFIX = {XLINK_NS: "xlink", XML_NS: "xml", XMLNS_NS: "xmlns"}


def _attr_display(el):
    rows = []
    for qname, value in el.attrs.items():
        nsinfo = el.attr_ns.get(qname)
        if nsinfo is not None:
            ns, _prefix, local = nsinfo
            disp = f"{_ATTR_NS_PREFIX[ns]} {local}"
        else:
            disp = qname
        rows.append((disp, value))
    rows.sort(key=lambda r: r[0])
    return rows


def serialize_test_format(node, indent=0, lines=None):
    if lines is None:
        lines = []
        for child in node.children:
            serialize_test_format(child, 0, lines)
        return "\n".join(lines)
    pad = "| " + "  " * indent
    if isinstance(node, Doctype):
        if node.public or node.system:
            lines.append(
                f'{pad}<!DOCTYPE {node.name} "{node.public or ""}" "{node.system or ""}">'
            )
        else:
            lines.append(f"{pad}<!DOCTYPE {node.name}>")
    elif isinstance(node, Text):
        lines.append(f'{pad}"{node.data}"')
    elif isinstance(node, Comment):
        lines.append(f"{pad}<!-- {node.data} -->")
    elif isinstance(node, ProcessingInstruction):
        lines.append(f"{pad}<?{node.target} {node.data}>")
    elif isinstance(node, Element):
        prefix = _NS_PREFIX.get(node.namespace)
        name = f"{prefix} {node.name}" if prefix else node.name
        lines.append(f"{pad}<{name}>")
        for disp, value in _attr_display(node):
            lines.append(f'{pad}  {disp}="{value}"')
        if node.template_content is not None:
            lines.append(f"{pad}  content")
            for child in node.template_content.children:
                serialize_test_format(child, indent + 2, lines)
        for child in node.children:
            serialize_test_format(child, indent + 1, lines)
    return lines


def count_nodes(node):
    """Every node under ``node``, itself and template contents included:
    the test-side count that ``meta["n_nodes"]`` must equal."""
    n = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        n += 1
        stack.extend(cur.children)
        if isinstance(cur, Element) and cur.template_content is not None:
            stack.append(cur.template_content)
    return n
