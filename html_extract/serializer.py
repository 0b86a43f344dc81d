"""HTML serialization (spec §13.3 fragment-serialization algorithm).

Reference parity: mensbeam/HTML-Parser lib/Parser/Serializer.php
(serialize/serializeInner :70-81, node walk :113-528, escaping
lib/Parser/NameCoercion.php:69-83).  Option parity:
- booleanAttributeValues -> ``bool_attr`` (implemented)
- foreignVoidEndTags     -> ``foreign_void_end_tags`` (implemented)
- reformatWhitespace / indentStep / indentWithSpaces / groupElements
  (the pretty-printer, Serializer.php:56-68, 133-208, 360-446,
  602-666): implemented in the ``reformat_whitespace=True`` path
  below — block detection ports the BLOCK_QUERY semantics (descendant
  scan with the preformatted-ancestry exclusion and the
  not(last()=1) conditional names) without XPath, and inline text
  runs are joined per the firstOfLine/lastOfLine rules over the
  nearest real-block ancestor.

Both paths walk an explicit stack, so pathologically deep documents
serialize without recursion, and both take time linear in the tree.
The default path is the allocation-lean plain walk; the pretty path
(used only on demand: pretty output cannot affect span equality) first
measures every element once, bottom-up, then walks once top-down with
each frame carrying its node's context.
"""

import re as _re

from .dom import (
    Comment,
    Doctype,
    Document,
    DocumentFragment,
    Element,
    ProcessingInstruction,
    Text,
)
from .tables import (
    HTML_NS,
    RAWTEXT_SERIALIZE,
    VOID_ELEMENTS,
    XLINK_NS,
    XML_NS,
    XMLNS_NS,
)

_ESC_TEXT = str.maketrans(
    {"&": "&amp;", "\xa0": "&nbsp;", "<": "&lt;", ">": "&gt;"}
)
_ESC_ATTR = str.maketrans({"&": "&amp;", "\xa0": "&nbsp;", '"': "&quot;"})

# Boolean attributes for the optional value-omission mode (reference
# Serializer.php:22-53 $boolAttr; the set is public HTML spec data)
BOOLEAN_ATTRIBUTES = frozenset(
    """allowfullscreen async autofocus autoplay checked controls default
    defer disabled formnovalidate hidden inert ismap itemscope loop multiple
    muted nomodule novalidate open playsinline readonly required reversed
    selected""".split()
)

# HTML-ns elements whose text children serialize raw.  noscript is raw
# only when scripting is on (Serializer.php:21,346-356); this engine is
# permanently scripting-off, so noscript text is escaped.
_RAW_PARENTS = RAWTEXT_SERIALIZE - {"noscript"}


def _attr_name(el, qname):
    nsinfo = el.attr_ns.get(qname)
    if nsinfo is None:
        return qname
    ns, prefix, local = nsinfo
    if ns == XML_NS:
        return "xml:" + local
    if ns == XMLNS_NS:
        return "xmlns" if local == "xmlns" else "xmlns:" + local
    if ns == XLINK_NS:
        return "xlink:" + local
    return f"{prefix}:{local}" if prefix else local


def _content(node):
    """The node whose children serialize as ``node``'s: a template
    element's contents, else ``node`` itself."""
    content = getattr(node, "template_content", None)
    return node if content is None else content


def _emit_start_tag(item, out, bool_attr, foreign_void_end_tags, kids):
    """Append the start tag (incl. attrs) of ``item``; returns True if
    the element is fully serialized (void / self-closed foreign)."""
    name = item.name  # local for HTML/MathML/SVG; qualified else
    out.append("<")
    out.append(name)
    for qname, value in item.attrs.items():
        out.append(" ")
        out.append(_attr_name(item, qname))
        if (
            bool_attr
            and item.namespace == HTML_NS
            and qname in BOOLEAN_ATTRIBUTES
            and value in ("", qname)
        ):
            continue  # value omitted (Serializer.php:264-277)
        out.append('="')
        out.append(value.translate(_ESC_ATTR))
        out.append('"')
    if (
        not foreign_void_end_tags
        and item.namespace != HTML_NS
        and not kids
    ):
        # childless foreign element as self-closing start tag
        # (reference Serializer option foreignVoidEndTags=false,
        # Serializer.php:287-290)
        out.append("/>")
        return True
    out.append(">")
    return item.namespace == HTML_NS and item.name in VOID_ELEMENTS


def _emit_leaf(item, out):
    """Comment, PI or doctype.  Text is written by the plain walk alone:
    the pretty walk reformats its texts and hands every preformatted
    subtree (each raw-text parent is one) to the plain walk."""
    if isinstance(item, Comment):
        out.append(f"<!--{item.data}-->")
    elif isinstance(item, Doctype):
        out.append(f"<!DOCTYPE {item.name}>")
    elif isinstance(item, ProcessingInstruction):
        out.append(f"<?{item.target} {item.data}>")


def _serialize_node(node, inner, out, bool_attr, foreign_void_end_tags):
    # Literal strings on the stack are emitted as-is (deferred end tags).
    stack = list(reversed(_content(node).children)) if inner else [node]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if isinstance(item, Element):
            kids = _content(item).children
            if _emit_start_tag(item, out, bool_attr, foreign_void_end_tags, kids):
                continue
            stack.append(f"</{item.name}>")
            stack.extend(reversed(kids))
        elif isinstance(item, Text):
            parent = item.parent
            if (
                isinstance(parent, Element)
                and parent.namespace == HTML_NS
                and parent.name in _RAW_PARENTS
            ):
                out.append(item.data)
            else:
                out.append(item.data.translate(_ESC_TEXT))
        elif isinstance(item, (Document, DocumentFragment)):
            stack.extend(reversed(item.children))
        else:
            _emit_leaf(item, out)


# ---------------------------------------------------------------------------
# pretty printer (reformatWhitespace, Serializer.php:133-208, 360-446)

# elements whose CONTENT suspends reformatting (Serializer.php:19)
PREFORMATTED_ELEMENTS = frozenset(
    """iframe listing noembed noframes noscript plaintext pre style script
    textarea title xmp""".split()
)
# BLOCK_QUERY name list (Serializer.php:56): unconditional names...
_BLOCK_ALWAYS = frozenset(
    """address article aside blockquote base body canvas datalist details
    dialog dd div dl dt fieldset figcaption figure footer form frame
    frameset h1 h2 h3 h4 h5 h6 head header hr html isindex li link main
    meta nav ol optgroup option p picture pre section select script source
    style table tbody td tfoot th thead title tr ul video""".split()
)
# ...and the `and not(last() = 1)` conditional ones: they count as block
# only when the candidate descendant set has more than one member
_BLOCK_CONDITIONAL = frozenset(["button", "input", "output", "textarea"])
# "real" block ancestors for inline text-run joining (the ancestor::
# XPath in the Text branch, Serializer.php:397).  NOTE: the reference
# XPath spells the body test `name="body"` (an attribute-value test,
# not name()="body"), so body NEVER matches there; we reproduce that
# behavior bug-for-bug by omitting body — text directly under body
# joins runs under the nearest html ancestor, exactly as the
# reference does.
_REAL_BLOCK = frozenset(
    """address article aside blockquote canvas dd div dl dt fieldset
    figcaption figure footer form h1 h2 h3 h4 h5 h6 head header hr html li
    main nav ol p section table tfoot ul video""".split()
)
_H_ELEMENTS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])
_WS = "\t\n\x0c\r "
_WS_CHARS = frozenset(_WS)
_RE_NL_WS = _re.compile(r"[\t\n\x0c\r ]*\n[\t\n\x0c\r ]*")
_RE_WS_RUN = _re.compile(r"[\t\n\x0c\r ]+")
_RE_SPACES = _re.compile(r" +")


def _html_named(node, names):
    return (
        isinstance(node, Element)
        and node.namespace == HTML_NS
        and node.name in names
    )


def _foreign(node):
    return isinstance(node, Element) and node.namespace != HTML_NS


def _alike(prev, node):
    """groupElements' "same kind" test (Serializer.php:185-198,
    455-466): a comment follows a comment, a PI a PI; an element follows
    a doctype or an element of its name (the six headings are one)."""
    if not isinstance(node, Element):
        return isinstance(prev, type(node))
    if isinstance(prev, Doctype):
        return True
    return isinstance(prev, Element) and (
        prev.name == node.name
        or (prev.name in _H_ELEMENTS and node.name in _H_ELEMENTS)
    )


class _Pretty:
    """Reformatting serializer.  ``_measure`` visits every element once,
    bottom-up; ``write`` then walks the tree once, top-down, on an
    explicit stack of frames ``(node, level, first, fab, pblock, prev,
    before, after)`` that carry each node's context:

    - ``fab``: inside foreign content whose root counts as block
      (treatForeignRootAsBlock, Serializer.php:648-666);
    - ``pblock``: the node's parent counts as block (treatAsBlock);
    - ``prev``: its nearest preceding non-text sibling (groupElements);
    - ``before``/``after``: its place in its inline text run (the texts
      under the nearest real-block ancestor, template contents
      excluded): the last character of the run's preceding text (None
      when there is none), and whether any text of the run follows.

    Strings on the stack are emitted as-is (indented end tags)."""

    def __init__(self, bool_attr, foreign_void, indent_step, indent_with_spaces, group):
        self.bool_attr = bool_attr
        self.foreign_void = foreign_void
        self.step = indent_step
        self.char = " " if indent_with_spaces else "\t"
        self.group = group
        self._blocks = set()
        self._tails = {}

    def _measure(self, root):
        """Once per element under ``root`` (template contents included),
        children first: ``_blocks`` gets the id of each element with a
        block descendant, and ``_tails`` maps each element to the last
        character of its last text (none for a template, whose contents
        are not in any run).

        Block descendant is BLOCK_QUERY (Serializer.php:56, treatAsBlock
        :617-638): an HTML element child with a block name, or any
        element child, not HTML-preformatted, that has one.  In the
        reference XPath the `not(last() = 1)` predicate on button/
        input/output/textarea is evaluated per child-axis step, so a
        conditional name counts only when its own parent has more than
        one HTML-namespace element child."""
        elements = []
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                elements.append(node)
            stack.extend(_content(node).children)
        blocks, tails = self._blocks, self._tails
        for el in reversed(elements):
            box = _content(el)
            kids = box.children
            n_html = sum(
                1 for k in kids if isinstance(k, Element) and k.namespace == HTML_NS
            )
            for k in kids:
                if (
                    _html_named(k, _BLOCK_ALWAYS)
                    or (n_html != 1 and _html_named(k, _BLOCK_CONDITIONAL))
                    or (id(k) in blocks and not _html_named(k, PREFORMATTED_ELEMENTS))
                ):
                    blocks.add(id(el))
                    break
            if box is el:
                for k in reversed(kids):
                    tail = self._tail(k)
                    if tail is not None:
                        tails[id(el)] = tail
                        break

    def _tail(self, node):
        if isinstance(node, Text):
            return node.data[-1:]
        return self._tails.get(id(node))

    def _block(self, node):
        """treatAsBlock of a parent: documents and fragments (template
        contents too) are block, elements when they have a block
        descendant."""
        return node is not None and (
            not isinstance(node, Element) or id(node) in self._blocks
        )

    def _push(self, stack, node, level, first, fab, before, after):
        """Push the frames of ``node``'s children (a template's
        contents) for the walk."""
        box = _content(node)
        kids = box.children
        pblock = self._block(box)
        if box is not node or _html_named(node, _REAL_BLOCK):
            before, after = None, False  # a run of their own
        tails = [self._tail(k) for k in kids]
        last = max((i for i, t in enumerate(tails) if t is not None), default=-1)
        frames = []
        prev = None
        for i, kid in enumerate(kids):
            frames.append(
                (kid, level, first and i == 0, fab, pblock, prev, before, after or i < last)
            )
            if tails[i] is not None:
                before = tails[i]
            if not isinstance(kid, Text):
                prev = kid
        stack.extend(reversed(frames))

    def _newline(self, out, item, prev, level):
        # an extra break between unlike siblings (groupElements)
        if self.group and prev is not None and not _alike(prev, item):
            out.append("\n")
        out.append(self._indent(level))

    def _indent(self, level):
        return "\n" + self.char * (level * self.step)

    def write(self, node, inner, out):
        """Append ``node`` (``inner``: its children) to ``out``."""
        path = [node]  # node and its ancestors, root last
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        if any(_html_named(a, PREFORMATTED_ELEMENTS) for a in path[0 if inner else 1:]):
            # under a preformatted element: reformatting is suspended
            _serialize_node(node, inner, out, self.bool_attr, self.foreign_void)
            return
        self._measure(path[-1])
        # the start node's frame, by the walk's own rule from the root
        frame = (path[-1], 0, True, False, False, None, None, False)
        for child in reversed(path[:-1]):
            kids = []
            self._push(kids, frame[0], 0, True, False, frame[6], frame[7])
            frame = next(f for f in kids if f[0] is child)
        _, _, _, _, pblock, _, before, after = frame
        # ...but the walk starts with fab off: a foreign start node's
        # fab comes from its foreign root's parent
        fab = False
        if _foreign(node):
            a = node.parent
            while _foreign(a):
                a = a.parent
            fab = node.parent is None or self._block(a)
        stack = []
        if inner:
            self._push(stack, node, 0, True, fab, before, after)
        else:
            stack.append((node, 0, True, fab, pblock, None, before, after))
        while stack:
            frame = stack.pop()
            if type(frame) is str:
                out.append(frame)
                continue
            item, level, first, fab, pblock, prev, before, after = frame
            if isinstance(item, Element):
                html = item.namespace == HTML_NS
                if not (html or fab or _foreign(item.parent)):
                    fab = pblock  # a foreign root: block as its parent is
                if (pblock if html else fab) and not first:
                    self._newline(out, item, prev, level)
                if _html_named(item, PREFORMATTED_ELEMENTS):
                    # content verbatim: reformatting suspended for the subtree
                    _serialize_node(item, False, out, self.bool_attr, self.foreign_void)
                    continue
                kids = _content(item).children
                if _emit_start_tag(item, out, self.bool_attr, self.foreign_void, kids):
                    continue
                end = f"</{item.name}>"
                if (fab or (html and id(item) in self._blocks)) and any(
                    isinstance(k, Element) for k in kids
                ):
                    end = self._indent(level) + end
                stack.append(end)
                self._push(stack, item, level + 1, False, fab, before, after)
            elif isinstance(item, Text):
                data = item.data
                if (fab or pblock) and not data.strip(_WS):
                    continue
                if pblock:
                    # block formatting context: trim + collapse
                    data = _RE_WS_RUN.sub(" ", data.strip(_WS))
                elif _RE_WS_RUN.search(data):
                    # inline formatting context (Serializer.php:380-446)
                    data = _RE_NL_WS.sub("\n", data)
                    data = data.replace("\t", " ").replace("\n", " ")
                    data = _RE_SPACES.sub(" ", data)
                    if before is None or before in _WS_CHARS:
                        data = data.lstrip(_WS)
                    if not after:
                        data = data.rstrip(_WS)
                out.append(data.translate(_ESC_TEXT))
            elif isinstance(item, (Document, DocumentFragment)):
                self._push(stack, item, level, first, fab, before, after)
            else:
                # comment / PI positioning (Serializer.php:452-500)
                if isinstance(item, Doctype):
                    if not first:
                        out.append("\n")
                elif (fab or pblock) and not first:
                    self._newline(out, item, prev, level)
                _emit_leaf(item, out)


def _serialize(node, inner, bool_attr, foreign_void_end_tags,
               reformat_whitespace, indent_step, indent_with_spaces,
               group_elements):
    out = []
    if reformat_whitespace:
        _Pretty(
            bool_attr, foreign_void_end_tags, indent_step,
            indent_with_spaces, group_elements,
        ).write(node, inner, out)
    else:
        _serialize_node(node, inner, out, bool_attr, foreign_void_end_tags)
    return "".join(out)


def serialize(
    node,
    bool_attr: bool = False,
    foreign_void_end_tags: bool = True,
    reformat_whitespace: bool = False,
    indent_step: int = 1,
    indent_with_spaces: bool = True,
    group_elements: bool = True,
) -> str:
    """outerHTML: the node itself plus its subtree.

    ``bool_attr=True`` omits values of known boolean attributes
    (reference Serializer option, Serializer.php:22-53).
    ``foreign_void_end_tags=False`` self-closes childless foreign
    elements instead of emitting end tags (Serializer.php:287-290).
    ``reformat_whitespace=True`` pretty-prints (Serializer.php pretty
    printer; indent_step/indent_with_spaces/group_elements as in the
    reference, defaults matching verifyConfiguration :531-540).
    """
    return _serialize(
        node, False, bool_attr, foreign_void_end_tags, reformat_whitespace,
        indent_step, indent_with_spaces, group_elements,
    )


def serialize_inner(
    node,
    bool_attr: bool = False,
    foreign_void_end_tags: bool = True,
    reformat_whitespace: bool = False,
    indent_step: int = 1,
    indent_with_spaces: bool = True,
    group_elements: bool = True,
) -> str:
    """innerHTML: children only (template elements: their contents).
    Options as for ``serialize``; pretty-printed, the children are laid
    out as ``serialize`` lays out a document's: from level 0, the first
    one on the first line."""
    return _serialize(
        node, True, bool_attr, foreign_void_end_tags, reformat_whitespace,
        indent_step, indent_with_spaces, group_elements,
    )
