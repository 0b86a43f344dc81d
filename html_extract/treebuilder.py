"""WHATWG HTML tree construction (spec §13.2.6).

Reference parity: mensbeam/HTML-Parser lib/Parser/TreeConstructor.php
(insertion modes :384-3254, adoption agency :3460-3664, foster
parenting :3666-3750, foreign content :3256-3449) plus
OpenElementsStack.php and ActiveFormattingElementsList.php.  Fresh
implementation against the spec; the tokenizer<->tree coupling
(SURVEY.md §3.4) is expressed by this class writing
``tokenizer.state`` / reading it via the shared object.

Handler contract: every insertion-mode handler (``_m_*``, the in-body
start/end tag handlers and ``_foreign``) takes one token and returns
``None`` once the token is consumed, or the token to process next: the
same token after a mode switch, or a rewritten one (the non-whitespace
rest of a character token).  ``_process`` is the one loop that
dispatches a handed-back token again, under one ``MAX_REPROCESS`` guard.
"""

from .dom import (
    EMPTY_MAP,
    Comment,
    Document,
    DocumentFragment,
    Doctype,
    Element,
    ProcessingInstruction,
    Text,
    copy_map,
    release_tree,
)
from . import tokenizer as tkz
from .tables import (
    BREAKOUT_TAGS,
    BUTTON_SCOPE,
    DEFAULT_SCOPE,
    FOREIGN_ATTRIBUTE_NS_MAP,
    FORMATTING_ELEMENTS,
    HTML_NS,
    IMPLIED_END_TAGS,
    IMPLIED_END_TAGS_THOROUGH,
    LIMITED_QUIRKS,
    LIMITED_QUIRKS_PUBLIC_PREFIXES,
    LIMITED_QUIRKS_PUBLIC_PREFIXES_IF_SYSTEM,
    LIST_ITEM_SCOPE,
    MATHML_ATTR_NAME_MAP,
    MATHML_NS,
    MATHML_TEXT_INTEGRATION,
    NO_QUIRKS,
    QUIRKS,
    QUIRKS_PUBLIC_EXACT,
    QUIRKS_PUBLIC_PREFIXES,
    QUIRKS_PUBLIC_PREFIXES_IF_NO_SYSTEM,
    QUIRKS_SYSTEM_EXACT,
    RAWTEXT_ELEMENTS,
    RCDATA_ELEMENTS,
    SPECIAL_ELEMENTS,
    SVG_ATTR_NAME_MAP,
    SVG_HTML_INTEGRATION,
    SVG_NS,
    SVG_TAG_NAME_MAP,
    TABLE_SCOPE,
    XMLNS_NS,
)

import re as _re

WS = "\t\n\x0c\r "
_XML_TARGET = _re.compile(r"[A-Za-z_:][\w.:-]*")

# Insertion modes
(
    INITIAL,
    BEFORE_HTML,
    BEFORE_HEAD,
    IN_HEAD,
    IN_HEAD_NOSCRIPT,
    AFTER_HEAD,
    IN_BODY,
    TEXT,
    IN_TABLE,
    IN_TABLE_TEXT,
    IN_CAPTION,
    IN_COLUMN_GROUP,
    IN_TABLE_BODY,
    IN_ROW,
    IN_CELL,
    IN_TEMPLATE,
    AFTER_BODY,
    IN_FRAMESET,
    AFTER_FRAMESET,
    AFTER_AFTER_BODY,
    AFTER_AFTER_FRAMESET,
) = range(21)
# NOTE: no "in select" / "in select in table" modes — the reference
# implements the reworked select parsing (TreeConstructor.php:61-81 has
# 19 modes; select/option/optgroup are in-body rules with select-in-
# scope checks, TreeConstructor.php:890-962).

MARKER = None  # active-formatting-elements marker sentinel

# Fragment context -> initial tokenizer state
# (reference: TreeConstructor.php:234-247 FRAGMENT_CONTEXT_TOKENIZER_STATES)
FRAGMENT_TOKENIZER_STATES = {
    "title": tkz.RCDATA,
    "textarea": tkz.RCDATA,
    "style": tkz.RAWTEXT,
    "xmp": tkz.RAWTEXT,
    "iframe": tkz.RAWTEXT,
    "noembed": tkz.RAWTEXT,
    "noframes": tkz.RAWTEXT,
    "script": tkz.SCRIPT_DATA,
    "plaintext": tkz.PLAINTEXT,
}

MAX_REPROCESS = 50  # infinite-loop guard (TreeConstructor.php:333,366)



class ElementStack(list):
    """Open-elements stack with per-(ns, name) open counts maintained
    across every mutation.  Scope queries get an O(1) "element is not
    open at all" fast path: the spec-literal walk is O(depth) per
    query, which turns pathological documents (thousands of unclosed
    divs, each <p>/close-p paying a full walk) QUADRATIC — measured
    402 s for one 3.2 MB page.  Same motivation as the reference's
    cached stack properties (OpenElementsStack.php:323-349)."""

    __slots__ = ("counts", "n_foreign")

    def __init__(self):
        super().__init__()
        self.counts = {}
        self.n_foreign = 0  # open elements NOT in the HTML namespace

    def _inc(self, el):
        el.on_stack = True
        k = el.skey  # precomputed (namespace, name)
        c = self.counts
        c[k] = c.get(k, 0) + 1
        if el.namespace != HTML_NS:
            self.n_foreign += 1

    def _dec(self, el):
        el.on_stack = False
        k = el.skey
        c = self.counts
        n = c.get(k, 0) - 1
        if n <= 0:
            c.pop(k, None)
        else:
            c[k] = n
        if el.namespace != HTML_NS:
            self.n_foreign -= 1

    def append(self, el):
        # _inc inlined (hottest stack op: one push per open tag)
        el.on_stack = True
        k = el.skey
        c = self.counts
        c[k] = c.get(k, 0) + 1
        if el.namespace != HTML_NS:
            self.n_foreign += 1
        list.append(self, el)

    def pop(self, idx=-1):
        el = list.pop(self, idx)
        # _dec inlined (hottest stack op: one pop per close tag)
        el.on_stack = False
        k = el.skey
        c = self.counts
        n = c.get(k, 0) - 1
        if n <= 0:
            c.pop(k, None)
        else:
            c[k] = n
        if el.namespace != HTML_NS:
            self.n_foreign -= 1
        return el

    def insert(self, i, el):
        self._inc(el)
        super().insert(i, el)

    def remove(self, el):
        super().remove(el)
        self._dec(el)

    def __delitem__(self, key):
        if isinstance(key, slice):
            for el in list.__getitem__(self, key):
                self._dec(el)
        else:
            self._dec(list.__getitem__(self, key))
        super().__delitem__(key)

    def __setitem__(self, key, value):
        # single-index replacement only (adoption-agency clone swap)
        self._dec(list.__getitem__(self, key))
        self._inc(value)
        super().__setitem__(key, value)

    def has_open(self, ns, name) -> bool:
        return (ns, name) in self.counts


class AFEEntry:
    __slots__ = ("element", "name", "attrs")

    def __init__(self, element, name, attrs):
        self.element = element
        self.name = name
        self.attrs = attrs


class TreeBuilder:
    def __init__(
        self,
        tokenizer,
        document=None,
        fragment_context=None,
        collect_errors=True,
        scripting=False,
    ):
        self.tokenizer = tokenizer
        self.doc = document if document is not None else Document()
        # maintained exactly by this builder (see _m_in_head <base>)
        self.doc.has_base = False
        self.stack: ElementStack = ElementStack()
        self.afe: list = []  # AFEEntry | MARKER
        self.template_modes: list[int] = []
        self.mode = INITIAL
        self.original_mode = INITIAL
        self.head = None
        self.form = None
        self.frameset_ok = True
        self.foster_parenting = False
        self.pending_table_text = []
        self.errors = []
        self.collect_errors = collect_errors
        self.scripting = scripting
        self.fragment_context = fragment_context  # (ns, name) or None
        self.context_element = None
        self.on_meta = None  # callback(attrs) for <meta>, set by Parser
        self._skip_lf = False  # set by <pre>, <listing> and <textarea>
        self.quirks_mode = NO_QUIRKS
        tokenizer.cdata_allowed = self._cdata_allowed
        if fragment_context is not None:
            self._setup_fragment(fragment_context)

    # ------------------------------------------------------------------
    def _setup_fragment(self, ctx):
        ns, name = ctx
        self.context_element = Element(name, ns)
        if ns == HTML_NS:
            st = FRAGMENT_TOKENIZER_STATES.get(name)
            if st is not None:
                self.tokenizer.state = st
            self.tokenizer.last_start_tag = name
        root = Element("html", HTML_NS)
        self.doc.append(root)
        self.stack.append(root)
        if ns == HTML_NS and name == "template":
            self.template_modes.append(IN_TEMPLATE)
        self._reset_insertion_mode()
        self.form = None  # context has no ancestors in our fragment API

    # -- errors ---------------------------------------------------------
    def _err(self, code):
        # Recorded as (code, offset): offset is the tokenizer's current
        # cursor when the error fires — the reference's position model
        # (ParseErrorEmitter.php error(): Data::whereIs at the data
        # pointer, with small per-code REPORT_OFFSETS tweaks we skip).
        if self.collect_errors:
            self.errors.append((code, self.tokenizer.p))

    # -- stack / scope helpers -----------------------------------------
    @property
    def current(self):
        return self.stack[-1]

    @property
    def adjusted_current(self):
        if self.fragment_context is not None and len(self.stack) == 1:
            return self.context_element
        return self.stack[-1]

    def _cdata_allowed(self):
        if not self.stack:
            return False
        acn = self.adjusted_current
        return acn.namespace != HTML_NS

    def _is_special(self, el):
        names = SPECIAL_ELEMENTS.get(el.namespace)
        return names is not None and el.name in names

    def _in_scope(self, target, scope=DEFAULT_SCOPE):
        """target: tag name (HTML ns) or frozenset of names."""
        counts = self.stack.counts
        if isinstance(target, str):
            key = (HTML_NS, target)
            if key not in counts:  # O(1): not open anywhere
                return False
            for el in reversed(self.stack):
                skey = el.skey
                if skey == key:
                    return True
                if skey in scope:
                    return False
            return False
        if not any((HTML_NS, n) in counts for n in target):
            return False
        for el in reversed(self.stack):
            if el.namespace == HTML_NS and el.name in target:
                return True
            if el.skey in scope:
                return False
        return False

    def _el_in_scope(self, element, scope=DEFAULT_SCOPE):
        """Stack index of ``element`` when it is in scope, else -1."""
        stack = self.stack
        for i in range(len(stack) - 1, -1, -1):
            el = stack[i]
            if el is element:
                return i
            if el.skey in scope:
                return -1
        return -1

    def _pop_until(self, target):
        """Pop up to and including the first HTML element named target
        (str or set)."""
        multi = not isinstance(target, str)
        while self.stack:
            el = self.stack.pop()
            if el.namespace == HTML_NS and (
                (el.name in target) if multi else (el.name == target)
            ):
                return el
        return None

    def _generate_implied(self, exclude=None, thorough=False):
        names = IMPLIED_END_TAGS_THOROUGH if thorough else IMPLIED_END_TAGS
        while self.stack:
            el = self.stack[-1]
            if (
                el.namespace == HTML_NS
                and el.name in names
                and el.name != exclude
            ):
                self.stack.pop()
            else:
                break

    def _close_element(self, name, code, until=None, thorough=False):
        """The spec step shared by end tags and implied closes: generate
        implied end tags except for ``name``, report ``code`` unless the
        current node is then an HTML ``name``, and pop through the first
        HTML ``until`` (a name or a set of names; default ``name``)."""
        self._generate_implied(name, thorough)
        cur = self.stack[-1]
        if cur.namespace != HTML_NS or cur.name != name:
            self._err(code)
        self._pop_until(name if until is None else until)

    def _close_p_in_button_scope(self):
        if self._in_scope("p", BUTTON_SCOPE):
            self._close_element("p", "unexpected-end-tag")

    # -- active formatting elements ------------------------------------
    def _push_afe(self, element, name, attrs):
        # Noah's Ark: at most 3 entries with same name/ns/attrs since the
        # last marker (ActiveFormattingElementsList.php:50-65)
        count = 0
        for entry in reversed(self.afe):
            if entry is MARKER:
                break
            if (
                entry.name == name
                and entry.element.namespace == HTML_NS
                and entry.attrs == attrs
            ):
                count += 1
                if count == 3:
                    self.afe.remove(entry)
                    break
        # the entry keeps the token's attrs as they were (the element's
        # may change later); the shared empty needs no copy
        self.afe.append(AFEEntry(element, name, copy_map(attrs)))

    def _clear_afe_to_marker(self):
        while self.afe:
            entry = self.afe.pop()
            if entry is MARKER:
                break

    def _afe_entry_for(self, element):
        for entry in self.afe:
            if entry is not MARKER and entry.element is element:
                return entry
        return None

    def _reconstruct_afe(self):
        afe = self.afe
        if not afe:
            return
        last = afe[-1]
        if last is MARKER or last.element.on_stack:
            return
        i = len(afe) - 1
        while i > 0:
            i -= 1
            entry = afe[i]
            if entry is MARKER or entry.element.on_stack:
                i += 1
                break
        while i < len(afe):
            entry = afe[i]
            el = self._insert_html_element(entry.name, copy_map(entry.attrs))
            entry.element = el
            i += 1

    # -- insertion ------------------------------------------------------
    def _appropriate_place(self, override=None):
        """Returns (parent_node, before_child_or_None)."""
        target = override if override is not None else self.stack[-1]
        if self.foster_parenting and target.namespace == HTML_NS and target.name in (
            "table",
            "tbody",
            "tfoot",
            "thead",
            "tr",
        ):
            # the last template or table on the stack, whichever is lower
            for el in reversed(self.stack):
                if el.namespace == HTML_NS:
                    if el.name == "template":
                        return el.template_content, None
                    if el.name == "table":
                        return el.parent, el
            return self.stack[0], None
        parent = target
        if (
            isinstance(parent, Element)
            and parent.template_content is not None
        ):
            return parent.template_content, None
        return parent, None

    def _insert_at(self, node, place):
        parent, before = place
        parent.insert_before(node, before)

    def _insert_html_element(self, name, attrs, ns=HTML_NS):
        el = Element(name, ns, attrs)
        if not self.foster_parenting:
            # fast path: fresh node appended to the current node
            parent = self.stack[-1]
            tc = parent.template_content
            if tc is not None:
                parent = tc
            el.parent = parent
            parent.children.append(el)
        else:
            self._insert_at(el, self._appropriate_place())
        self.stack.append(el)
        return el

    def _insert_text(self, data):
        if not self.foster_parenting:
            # fast path: append/coalesce at the current node
            parent = self.stack[-1]
            tc = parent.template_content
            if tc is not None:
                parent = tc
            kids = parent.children
            last = kids[-1] if kids else None
            if type(last) is Text:
                last.data += data
            else:
                t = Text(data)
                t.parent = parent
                kids.append(t)
            return
        parent, before = self._appropriate_place()
        kids = parent.children
        if before is None:
            prev = kids[-1] if kids else None
        else:
            i = kids.index(before)
            prev = kids[i - 1] if i > 0 else None
        if isinstance(prev, Text):
            prev.data += data
        else:
            self._insert_at(Text(data), (parent, before))

    def _insert_comment(self, data, place=None, is_pi=False):
        if place is None:
            place = self._appropriate_place()
        if is_pi:
            # reference parity: a PI token (the tokenizer emits one only
            # when the config enables them) becomes a real PI node when
            # the target is a valid XML target (TreeConstructor.php
            # insertCommentToken; SURVEY.md C14)
            body = data[1:]
            m = _re.match(r"([^\t\n\x0c\r ]*)[\t\n\x0c\r ]?(.*)", body, _re.S)
            target, rest = m.group(1), m.group(2)
            if _XML_TARGET.fullmatch(target) and target.lower() != "xml":
                self._insert_at(ProcessingInstruction(target, rest), place)
                return
        self._insert_at(Comment(data), place)

    # -- mode control ----------------------------------------------------
    def _reset_insertion_mode(self):
        last = False
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            if i == 0:
                last = True
                if self.fragment_context is not None:
                    node = self.context_element
            if node.namespace != HTML_NS:
                if last:
                    self.mode = IN_BODY
                    return
                continue
            name = node.name
            if name in ("td", "th") and not last:
                self.mode = IN_CELL
                return
            if name == "tr":
                self.mode = IN_ROW
                return
            if name in ("tbody", "thead", "tfoot"):
                self.mode = IN_TABLE_BODY
                return
            if name == "caption":
                self.mode = IN_CAPTION
                return
            if name == "colgroup":
                self.mode = IN_COLUMN_GROUP
                return
            if name == "table":
                self.mode = IN_TABLE
                return
            if name == "template":
                self.mode = self.template_modes[-1]
                return
            if name == "head" and not last:
                self.mode = IN_HEAD
                return
            if name == "body":
                self.mode = IN_BODY
                return
            if name == "frameset":
                self.mode = IN_FRAMESET
                return
            if name == "html":
                self.mode = BEFORE_HEAD if self.head is None else AFTER_HEAD
                return
            if last:
                self.mode = IN_BODY
                return

    # -- main loop -------------------------------------------------------
    def run(self):
        """Pull tokens and build the tree; returns the document.

        On return, also by an exception, the tokenizer no longer holds
        this builder's ``_cdata_allowed`` (which made the pair a cycle)."""
        try:
            for tok in self.tokenizer.tokens():
                if self._skip_lf:
                    # spec: after <pre>/<listing>/<textarea>, "if the next
                    # token is a U+000A LINE FEED character token, ignore
                    # it" (C12; TreeConstructor.php:500-529)
                    self._skip_lf = False
                    if tok[0] in ("Character", "Space") and tok[1].startswith("\n"):
                        if len(tok[1]) == 1:
                            continue
                        tok = (tok[0], tok[1][1:])
                self._process(tok)
                if tok[0] == "EOF":
                    break
        finally:
            self.tokenizer.cdata_allowed = tkz.cdata_never
        return self.doc

    def _process(self, tok):
        """Dispatch ``tok``, then each token a handler hands back, until
        one is consumed.  Only the repeats count against MAX_REPROCESS."""
        st = self.stack
        # all-HTML stack check inlined from _dispatch_foreign
        if st and (st.n_foreign or self.fragment_context is not None) and (
            self._dispatch_foreign(tok)
        ):
            guard = -1  # foreign content: the loop makes the first dispatch
        else:
            # fast path: the overwhelmingly common single-dispatch case
            kind = tok[0]
            if kind == "Null":
                # data-state U+0000 (NullCharacterToken): error + ignore
                # in every HTML insertion mode that can see one
                self._err("unexpected-null-character")
                return
            # IN_BODY start/end tags are the dominant case: dispatch
            # straight to the handler, skipping the _m_in_body frame
            if self.mode == IN_BODY:
                if kind == "StartTag":
                    tok = self._in_body_start(tok)
                elif kind == "EndTag":
                    tok = self._in_body_end(tok)
                else:
                    tok = self._m_in_body(tok)
            else:
                tok = MODE_TABLE[self.mode](self, tok)
            guard = 0
        html_rules = False
        while tok is not None:
            guard += 1
            if guard > MAX_REPROCESS:
                raise RuntimeError("token reprocessing loop exceeded cap")
            if not html_rules and self._dispatch_foreign(tok):
                tok = self._foreign(tok)
                # only a breakout hands back a start tag: the rest of it
                # follows the HTML rules (see _foreign)
                html_rules = tok is not None and tok[0] == "StartTag"
            else:
                tok = MODE_TABLE[self.mode](self, tok)

    def _dispatch_foreign(self, tok):
        """True -> process via foreign content rules (spec dispatcher)."""
        if not self.stack:
            return False
        # O(1) fast path for the overwhelmingly common all-HTML stack:
        # the adjusted current node can only be foreign if a foreign
        # element is open (or the fragment context element is foreign)
        if not self.stack.n_foreign and self.fragment_context is None:
            return False
        acn = self.adjusted_current
        if acn.namespace == HTML_NS:
            return False
        kind = tok[0]
        if kind == "EOF":
            return False
        if acn.namespace == MATHML_NS and acn.name in MATHML_TEXT_INTEGRATION:
            if kind == "StartTag" and tok[1] not in ("mglyph", "malignmark"):
                return False
            if kind in ("Character", "Space", "Null"):
                return False
        if acn.namespace == MATHML_NS and acn.name == "annotation-xml":
            if kind == "StartTag" and tok[1] == "svg":
                return False
        if self._html_integration_point(acn):
            if kind == "StartTag" or kind in ("Character", "Space", "Null"):
                return False
        return True

    @staticmethod
    def _html_integration_point(el):
        if el.namespace == SVG_NS and el.name in SVG_HTML_INTEGRATION:
            return True
        if el.namespace == MATHML_NS and el.name == "annotation-xml":
            enc = el.attrs.get("encoding", "").lower()
            return enc in ("text/html", "application/xhtml+xml")
        return False

    # -- foreign content (spec §13.2.6.5) -------------------------------
    def _foreign(self, tok):
        """Hands back a start tag only on a breakout, an end tag only as
        the HTML insertion mode's handler handed it back."""
        kind = tok[0]
        if kind == "Null":
            self._err("unexpected-null-character")
            self._insert_text("�")
            return None
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character":
            self._insert_text(tok[1].replace("\x00", "�"))
            self.frameset_ok = False
            return None
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "StartTag":
            name, attrs, self_closing = tok[1], tok[2], tok[3]
            if name in BREAKOUT_TAGS or (
                name == "font"
                and ("color" in attrs or "face" in attrs or "size" in attrs)
            ):
                self._err("unexpected-html-element-in-foreign-content")
                while True:
                    cur = self.current
                    if (
                        cur.namespace == HTML_NS
                        or self._html_integration_point(cur)
                        or (
                            cur.namespace == MATHML_NS
                            and cur.name in MATHML_TEXT_INTEGRATION
                        )
                        or len(self.stack) == 1
                    ):
                        break
                    self.stack.pop()
                # spec: "reprocess ... in HTML content": _process runs the
                # HTML insertion mode on it DIRECTLY (the reference's `goto
                # ProcessToken`, TreeConstructor.php:3330-3333), never
                # back through the foreign dispatcher: in a foreign
                # FRAGMENT the adjusted current node stays the (foreign)
                # context element forever and the dispatcher would loop
                return tok
            ns = self.adjusted_current.namespace
            if ns == SVG_NS:
                name = SVG_TAG_NAME_MAP.get(name, name)
            self._insert_foreign(name, ns, attrs, self_closing)
            return None
        # EndTag
        name = tok[1]
        stack = self.stack
        node = stack[-1]
        if node.name.lower() != name:
            self._err("unexpected-end-tag")
        i = len(stack) - 1
        while True:
            if i == 0:
                return None
            node = stack[i]
            if node.name.lower() == name:
                del stack[i:]
                return None
            i -= 1
            if stack[i].namespace == HTML_NS:
                # process per the HTML insertion mode
                return MODE_TABLE[self.mode](self, tok)

    def _insert_foreign(self, name, ns, attrs, self_closing):
        """Insert a foreign element, its attributes adjusted; it stays
        open unless self-closing."""
        el = Element(name, ns)
        for aname, value in attrs.items():
            if ns == SVG_NS and aname in SVG_ATTR_NAME_MAP:
                aname = SVG_ATTR_NAME_MAP[aname]
            elif ns == MATHML_NS and aname in MATHML_ATTR_NAME_MAP:
                aname = MATHML_ATTR_NAME_MAP[aname]
            nsinfo = FOREIGN_ATTRIBUTE_NS_MAP.get(aname)
            if nsinfo is not None:
                # reference parity (mensbeam01.dat): namespaced attrs whose
                # mandated value doesn't match are dropped with an error
                ans, prefix, local = nsinfo
                if ans == XMLNS_NS:
                    if local == "xmlns" and value != ns:
                        self._err("invalid-namespace-attribute-value")
                        continue
                    if (
                        prefix == "xmlns"
                        and local == "xlink"
                        and value != FOREIGN_ATTRIBUTE_NS_MAP["xlink:href"][0]
                    ):
                        self._err("invalid-namespace-attribute-value")
                        continue
            el.set_attr(aname, value, nsinfo)
        self._insert_at(el, self._appropriate_place())
        if not self_closing:
            self.stack.append(el)

    # -- adoption agency (spec §13.2.6.4.7 "in body" formatting end tags)
    def _adoption_agency(self, name):
        """Returns True when the caller should fall through to the
        'any other end tag' steps."""
        cur = self.current
        if (
            cur.namespace == HTML_NS
            and cur.name == name
            and self._afe_entry_for(cur) is None
        ):
            self.stack.pop()
            return False
        stack = self.stack
        for _ in range(8):
            fmt_entry = None
            for entry in reversed(self.afe):
                if entry is MARKER:
                    break
                if entry.name == name:
                    fmt_entry = entry
                    break
            if fmt_entry is None:
                return True
            fmt = fmt_entry.element
            if not fmt.on_stack:
                self._err("adoption-agency-1.3")
                self.afe.remove(fmt_entry)
                return False
            fmt_idx = self._el_in_scope(fmt)
            if fmt_idx < 0:
                self._err("adoption-agency-1.3")
                return False
            if fmt is not stack[-1]:
                self._err("adoption-agency-1.3")
            furthest = None
            fb_idx = -1
            for i in range(fmt_idx + 1, len(stack)):
                if self._is_special(stack[i]):
                    furthest = stack[i]
                    fb_idx = i
                    break
            if furthest is None:
                del stack[fmt_idx:]
                self.afe.remove(fmt_entry)
                return False
            common = stack[fmt_idx - 1]
            bookmark = self.afe.index(fmt_entry)
            node = last_node = furthest
            node_idx = fb_idx
            inner = 0
            while True:
                node_idx -= 1
                node = stack[node_idx]
                if node is fmt:
                    break
                inner += 1
                node_entry = self._afe_entry_for(node)
                if inner > 3 and node_entry is not None:
                    self.afe.remove(node_entry)
                    node_entry = None
                if node_entry is None:
                    stack.remove(node)
                    continue
                clone = node.clone()
                node_entry.element = clone
                stack[node_idx] = clone
                node = clone
                if last_node is furthest:
                    bookmark = self.afe.index(node_entry) + 1
                node.append(last_node)
                last_node = node
            fp = self.foster_parenting
            self.foster_parenting = True  # table common-ancestor must foster
            place = self._appropriate_place(override=common)
            self.foster_parenting = fp
            self._insert_at(last_node, place)
            clone = fmt.clone()
            for child in list(furthest.children):
                clone.append(child)
            furthest.append(clone)
            self.afe.remove(fmt_entry)
            new_entry = AFEEntry(clone, fmt_entry.name, fmt_entry.attrs)
            if bookmark > len(self.afe):
                bookmark = len(self.afe)
            self.afe.insert(bookmark, new_entry)
            stack.remove(fmt)
            stack.insert(stack.index(furthest) + 1, clone)
        return False

    # -- generic text elements ------------------------------------------
    def _generic_text(self, tok, state):
        self._insert_html_element(tok[1], tok[2])
        self.tokenizer.state = state
        self.original_mode = self.mode
        self.mode = TEXT

    # -- head-section modes ---------------------------------------------
    def _split_ws(self, tok, keep):
        """A character token that starts with whitespace: insert that
        whitespace (drop it unless ``keep``) and hand back the rest, which
        is never empty (whitespace-only text is a Space token)."""
        data = tok[1]
        rest = data.lstrip(WS)
        if keep:
            self._insert_text(data[: len(data) - len(rest)])
        return ("Character", rest)

    def _detect_quirks(self, tok):
        _, name, public, system, force_quirks = tok
        pub = (public or "").lower()
        sysid = (system or "").lower()
        if (
            force_quirks
            or name != "html"
            or pub in QUIRKS_PUBLIC_EXACT
            or sysid in QUIRKS_SYSTEM_EXACT
            or pub.startswith(QUIRKS_PUBLIC_PREFIXES)
            or (
                system is None
                and pub.startswith(QUIRKS_PUBLIC_PREFIXES_IF_NO_SYSTEM)
            )
        ):
            return QUIRKS
        if pub.startswith(LIMITED_QUIRKS_PUBLIC_PREFIXES) or (
            system is not None
            and pub.startswith(LIMITED_QUIRKS_PUBLIC_PREFIXES_IF_SYSTEM)
        ):
            return LIMITED_QUIRKS
        return NO_QUIRKS

    def _m_initial(self, tok):
        kind = tok[0]
        if kind == "Space":
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, False)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], (self.doc, None), kind == "PI")
            return None
        elif kind == "Doctype":
            name, public, system = tok[1], tok[2], tok[3]
            if name != "html" or public is not None or (
                system is not None and system != "about:legacy-compat"
            ):
                self._err("unexpected-doctype")
            self.doc.append(Doctype(name, public, system))
            self.quirks_mode = self.doc.quirks_mode = self._detect_quirks(tok)
            self.mode = BEFORE_HTML
            return None
        # anything else
        self._err("expected-doctype-but-got-something-else")
        self.quirks_mode = self.doc.quirks_mode = QUIRKS
        self.mode = BEFORE_HTML
        return tok

    def _m_before_html(self, tok):
        kind = tok[0]
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], (self.doc, None), kind == "PI")
            return None
        if kind == "Space":
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, False)
        if kind == "StartTag" and tok[1] == "html":
            el = Element("html", HTML_NS, tok[2])
            self.doc.append(el)
            self.stack.append(el)
            self.mode = BEFORE_HEAD
            return None
        elif kind == "EndTag" and tok[1] not in ("head", "body", "html", "br"):
            self._err("unexpected-end-tag")
            return None
        el = Element("html", HTML_NS)
        self.doc.append(el)
        self.stack.append(el)
        self.mode = BEFORE_HEAD
        return tok

    def _m_before_head(self, tok):
        kind = tok[0]
        if kind == "Space":
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, False)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        elif kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        elif kind == "StartTag":
            if tok[1] == "html":
                return self._m_in_body(tok)
            if tok[1] == "head":
                self.head = self._insert_html_element("head", tok[2])
                self.mode = IN_HEAD
                return None
        elif kind == "EndTag" and tok[1] not in ("head", "body", "html", "br"):
            self._err("unexpected-end-tag")
            return None
        self.head = self._insert_html_element("head", EMPTY_MAP)
        self.mode = IN_HEAD
        return tok

    def _m_in_head(self, tok):
        kind = tok[0]
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, True)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        elif kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        elif kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self._m_in_body(tok)
            if name in ("base", "basefont", "bgsound", "link", "meta"):
                self._insert_html_element(name, tok[2])
                self.stack.pop()
                if name == "base":
                    # every HTML <base> insertion flows through this
                    # branch (in-body/in-template/after-head delegate
                    # here) — flag it so extraction's base-href lookup
                    # is O(1) for the no-base common case
                    self.doc.has_base = True
                if name == "meta" and self.on_meta is not None:
                    # mid-parse encoding change hook (E9; Data.php:301-376)
                    self.on_meta(tok[2])
                return None
            if name == "title":
                self._generic_text(tok, tkz.RCDATA)
                return None
            if name in ("noframes", "style"):
                self._generic_text(tok, tkz.RAWTEXT)
                return None
            if name == "noscript":
                if self.scripting:
                    # scripting on: generic raw text (spec in-head)
                    self._generic_text(tok, tkz.RAWTEXT)
                    return None
                self._insert_html_element(name, tok[2])
                self.mode = IN_HEAD_NOSCRIPT
                return None
            if name == "script":
                self._generic_text(tok, tkz.SCRIPT_DATA)
                return None
            if name == "template":
                self._insert_html_element(name, tok[2])
                self.afe.append(MARKER)
                self.frameset_ok = False
                self.mode = IN_TEMPLATE
                self.template_modes.append(IN_TEMPLATE)
                return None
            if name == "head":
                self._err("unexpected-start-tag")
                return None
        elif kind == "EndTag":
            name = tok[1]
            if name == "head":
                self.stack.pop()
                self.mode = AFTER_HEAD
                return None
            if name == "template":
                if not self.stack.has_open(HTML_NS, "template"):
                    self._err("unexpected-end-tag")
                    return None
                self._close_element("template", "unexpected-end-tag", thorough=True)
                self._clear_afe_to_marker()
                if self.template_modes:
                    self.template_modes.pop()
                self._reset_insertion_mode()
                return None
            if name not in ("body", "html", "br"):
                self._err("unexpected-end-tag")
                return None
        self.stack.pop()
        self.mode = AFTER_HEAD
        return tok

    def _m_in_head_noscript(self, tok):
        kind = tok[0]
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "Space":
            return self._m_in_head(tok)
        if kind == "Comment" or kind == "PI":
            return self._m_in_head(tok)
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, True)
        if kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self._m_in_body(tok)
            if name in (
                "basefont",
                "bgsound",
                "link",
                "meta",
                "noframes",
                "style",
            ):
                return self._m_in_head(tok)
            if name in ("head", "noscript"):
                self._err("unexpected-start-tag")
                return None
        elif kind == "EndTag":
            name = tok[1]
            if name == "noscript":
                self.stack.pop()
                self.mode = IN_HEAD
                return None
            if name != "br":
                self._err("unexpected-end-tag")
                return None
        self._err("unexpected-token-in-head-noscript")
        self.stack.pop()
        self.mode = IN_HEAD
        return tok

    def _m_after_head(self, tok):
        kind = tok[0]
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, True)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        elif kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        elif kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self._m_in_body(tok)
            if name == "body":
                self._insert_html_element("body", tok[2])
                self.frameset_ok = False
                self.mode = IN_BODY
                return None
            if name == "frameset":
                self._insert_html_element("frameset", tok[2])
                self.mode = IN_FRAMESET
                return None
            if name in (
                "base",
                "basefont",
                "bgsound",
                "link",
                "meta",
                "noframes",
                "script",
                "style",
                "template",
                "title",
            ):
                self._err("unexpected-start-tag")
                self.stack.append(self.head)
                result = self._m_in_head(tok)
                if self.head is not None and self.head.on_stack:
                    self.stack.remove(self.head)
                return result
            if name == "head":
                self._err("unexpected-start-tag")
                return None
        elif kind == "EndTag":
            name = tok[1]
            if name == "template":
                return self._m_in_head(tok)
            if name not in ("body", "html", "br"):
                self._err("unexpected-end-tag")
                return None
        self._insert_html_element("body", EMPTY_MAP)
        self.mode = IN_BODY
        return tok

    def _m_text(self, tok):
        kind = tok[0]
        if kind in ("Character", "Space"):
            self._insert_text(tok[1])
            return None
        if kind == "EOF":
            self._err("eof-in-text-mode")
            self.stack.pop()
            self.mode = self.original_mode
            return tok
        # any end tag (incl. </script>)
        self.stack.pop()
        self.mode = self.original_mode
        return None

    # -- in body (spec §13.2.6.4.7; TreeConstructor.php:384-1364) --------
    def _m_in_body(self, tok):
        # dispatch ordered by measured token frequency (tag-dense corpus)
        kind = tok[0]
        if kind == "StartTag":
            return self._in_body_start(tok)
        if kind == "EndTag":
            return self._in_body_end(tok)
        if kind == "Space":
            self._reconstruct_afe()
            self._insert_text(tok[1])
            return None
        if kind == "Character":
            data = tok[1].replace("\x00", "")
            if not data:
                self._err("unexpected-null-character")
                return None
            self._reconstruct_afe()
            self._insert_text(data)
            self.frameset_ok = False
            return None
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        # EOF
        if self.template_modes:
            return self._m_in_template(tok)
        for el in self.stack:
            if el.namespace == HTML_NS and el.name not in _OK_AT_EOF:
                self._err("expected-closing-tag-but-got-eof")
                break
        return None

    def _in_body_start(self, tok):
        _, name, attrs, self_closing = tok
        # Branches dispatch on mutually disjoint name sets, so ordering
        # is semantics-free; ordered by measured corpus tag frequency
        # (div/p > a > b/i > script/style/title > li > h1-h6).
        if name in _BLOCK_START:
            self._close_p_in_button_scope()
            self._insert_html_element(name, attrs)
            return None
        if name == "a":
            for entry in reversed(self.afe):
                if entry is MARKER:
                    break
                if entry.name == "a":
                    self._err("unexpected-start-tag-implies-end-tag")
                    self._adoption_agency("a")
                    if entry in self.afe:
                        self.afe.remove(entry)
                    if entry.element.on_stack:
                        self.stack.remove(entry.element)
                    break
            self._reconstruct_afe()
            el = self._insert_html_element(name, attrs)
            self._push_afe(el, name, attrs)
            return None
        if name in _FORMATTING_START:
            self._reconstruct_afe()
            el = self._insert_html_element(name, attrs)
            self._push_afe(el, name, attrs)
            return None
        if name in _IN_HEAD_DELEGATE:
            return self._m_in_head(tok)
        if name in ("li", "dd", "dt"):
            self.frameset_ok = False
            closes = ("li",) if name == "li" else ("dd", "dt")
            for el in reversed(self.stack):
                if el.namespace == HTML_NS and el.name in closes:
                    self._close_element(el.name, "unexpected-start-tag")
                    break
                if self._is_special(el) and not (
                    el.namespace == HTML_NS
                    and el.name in ("address", "div", "p")
                ):
                    break
            self._close_p_in_button_scope()
            self._insert_html_element(name, attrs)
            return None
        if name in _HEADINGS:
            self._close_p_in_button_scope()
            cur = self.current
            if cur.namespace == HTML_NS and cur.name in _HEADINGS:
                self._err("unexpected-start-tag")
                self.stack.pop()
            self._insert_html_element(name, attrs)
            return None
        if name == "html":
            self._err("unexpected-start-tag")
            if self.stack.has_open(HTML_NS, "template"):
                return None
            top = self.stack[0]
            for k, v in attrs.items():
                if k not in top.attrs:
                    top.set_attr(k, v)
            return None
        if name == "body":
            self._err("unexpected-start-tag")
            if (
                len(self.stack) < 2
                or not (
                    self.stack[1].namespace == HTML_NS
                    and self.stack[1].name == "body"
                )
                or self.stack.has_open(HTML_NS, "template")
            ):
                return None
            self.frameset_ok = False
            body = self.stack[1]
            for k, v in attrs.items():
                if k not in body.attrs:
                    body.set_attr(k, v)
            return None
        if name == "frameset":
            self._err("unexpected-start-tag")
            if len(self.stack) < 2 or not (
                self.stack[1].namespace == HTML_NS
                and self.stack[1].name == "body"
            ):
                return None
            if not self.frameset_ok:
                return None
            body = self.stack[1]
            if body.parent is not None:
                body.parent.remove(body)
            del self.stack[1:]
            release_tree(body)  # out of the document for good
            self._insert_html_element("frameset", attrs)
            self.mode = IN_FRAMESET
            return None
        if name in ("pre", "listing"):
            self._close_p_in_button_scope()
            self._insert_html_element(name, attrs)
            self._skip_lf = True
            self.frameset_ok = False
            return None
        if name == "form":
            has_template = self.stack.has_open(HTML_NS, "template")
            if self.form is not None and not has_template:
                self._err("unexpected-start-tag")
                return None
            self._close_p_in_button_scope()
            el = self._insert_html_element(name, attrs)
            if not has_template:
                self.form = el
            return None
        if name == "plaintext":
            self._close_p_in_button_scope()
            self._insert_html_element(name, attrs)
            self.tokenizer.state = tkz.PLAINTEXT
            return None
        if name == "button":
            if self._in_scope("button"):
                self._err("unexpected-start-tag")
                self._generate_implied()
                self._pop_until("button")
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            self.frameset_ok = False
            return None
        if name == "nobr":
            self._reconstruct_afe()
            if self._in_scope("nobr"):
                self._err("unexpected-start-tag-implies-end-tag")
                self._adoption_agency("nobr")
                self._reconstruct_afe()
            el = self._insert_html_element(name, attrs)
            self._push_afe(el, name, attrs)
            return None
        if name in ("applet", "marquee", "object"):
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            self.afe.append(MARKER)
            self.frameset_ok = False
            return None
        if name == "table":
            if self.quirks_mode != QUIRKS:
                self._close_p_in_button_scope()
            self._insert_html_element(name, attrs)
            self.frameset_ok = False
            self.mode = IN_TABLE
            return None
        if name in ("area", "br", "embed", "img", "keygen", "wbr"):
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            self.stack.pop()
            self.frameset_ok = False
            return None
        if name == "input":
            # select-aware per reworked select parsing
            # (TreeConstructor.php:754-773)
            if self.fragment_context == (HTML_NS, "select"):
                self._err("unexpected-start-tag")
                return None
            if self._in_scope("select"):
                self._err("unexpected-start-tag")
                self._pop_until("select")
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            self.stack.pop()
            if attrs.get("type", "").lower() != "hidden":
                self.frameset_ok = False
            return None
        if name in ("param", "source", "track"):
            self._insert_html_element(name, attrs)
            self.stack.pop()
            return None
        if name == "hr":
            self._close_p_in_button_scope()
            # select-aware per reworked select parsing
            # (TreeConstructor.php:799-825)
            if self._in_scope("select"):
                self._generate_implied()
                if self._in_scope("option") or self._in_scope("optgroup"):
                    self._err("unexpected-start-tag")
            self._insert_html_element(name, attrs)
            self.stack.pop()
            self.frameset_ok = False
            return None
        if name == "image":
            self._err("unexpected-start-tag")
            return self._in_body_start(("StartTag", "img", attrs, self_closing))
        if name == "textarea":
            self._generic_text(tok, tkz.RCDATA)
            self.frameset_ok = False
            self._skip_lf = True
            return None
        if name == "xmp":
            self._close_p_in_button_scope()
            self._reconstruct_afe()
            self.frameset_ok = False
            self._generic_text(tok, tkz.RAWTEXT)
            return None
        if name == "iframe":
            self.frameset_ok = False
            self._generic_text(tok, tkz.RAWTEXT)
            return None
        if name == "noembed" or (name == "noscript" and self.scripting):
            self._generic_text(tok, tkz.RAWTEXT)
            return None
        if name == "select":
            # reworked select parsing (TreeConstructor.php:890-917)
            if self.fragment_context == (HTML_NS, "select"):
                self._err("unexpected-start-tag")
                return None
            if self._in_scope("select"):
                self._err("unexpected-start-tag")
                self._pop_until("select")
                return None
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            self.frameset_ok = False
            return None
        if name == "option":
            # TreeConstructor.php:918-938
            if self._in_scope("select"):
                self._generate_implied(exclude="optgroup")
                if self._in_scope("option"):
                    self._err("unexpected-start-tag")
            elif self.current.namespace == HTML_NS and self.current.name == "option":
                self.stack.pop()
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            return None
        if name == "optgroup":
            # TreeConstructor.php:940-962
            if self._in_scope("select"):
                self._generate_implied()
                if self._in_scope("option") or self._in_scope("optgroup"):
                    self._err("unexpected-start-tag")
            elif self.current.namespace == HTML_NS and self.current.name == "option":
                self.stack.pop()
            self._reconstruct_afe()
            self._insert_html_element(name, attrs)
            return None
        if name in ("rb", "rtc"):
            if self._in_scope("ruby"):
                self._generate_implied()
                if not (
                    self.current.namespace == HTML_NS
                    and self.current.name == "ruby"
                ):
                    self._err("unexpected-start-tag")
            self._insert_html_element(name, attrs)
            return None
        if name in ("rp", "rt"):
            if self._in_scope("ruby"):
                self._generate_implied(exclude="rtc")
                cur = self.current
                if not (
                    cur.namespace == HTML_NS and cur.name in ("rtc", "ruby")
                ):
                    self._err("unexpected-start-tag")
            self._insert_html_element(name, attrs)
            return None
        if name in ("math", "svg"):
            self._reconstruct_afe()
            ns = MATHML_NS if name == "math" else SVG_NS
            self._insert_foreign(name, ns, attrs, self_closing)
            return None
        if name in (
            "caption",
            "col",
            "colgroup",
            "frame",
            "head",
            "tbody",
            "td",
            "tfoot",
            "th",
            "thead",
            "tr",
        ):
            self._err("unexpected-start-tag-ignored")
            return None
        self._reconstruct_afe()
        self._insert_html_element(name, attrs)
        return None

    def _in_body_end(self, tok):
        name = tok[1]
        # Branches dispatch on mutually disjoint name sets, so ordering
        # is semantics-free; ordered by measured corpus tag frequency.
        if name in _BLOCK_END:
            if not self._in_scope(name):
                self._err("unexpected-end-tag")
                return None
            self._close_element(name, "end-tag-too-early")
            return None
        if name in FORMATTING_ELEMENTS:
            if self._adoption_agency(name):
                return self._any_other_end_tag(name)
            return None
        if name == "p":
            if not self._in_scope("p", BUTTON_SCOPE):
                self._err("unexpected-end-tag")
                self._insert_html_element("p", EMPTY_MAP)
            self._close_element("p", "unexpected-end-tag")
            return None
        if name == "li":
            if not self._in_scope("li", LIST_ITEM_SCOPE):
                self._err("unexpected-end-tag")
                return None
            self._close_element("li", "end-tag-too-early")
            return None
        if name in _HEADINGS:
            if not self._in_scope(_HEADINGS):
                self._err("unexpected-end-tag")
                return None
            self._close_element(name, "end-tag-too-early", until=_HEADINGS)
            return None
        if name == "template":
            return self._m_in_head(tok)
        if name in ("body", "html"):
            if not self._in_scope("body"):
                self._err("unexpected-end-tag")
                return None
            for el in self.stack:
                if el.namespace == HTML_NS and el.name not in _OK_AT_EOF:
                    self._err("expected-one-end-tag-but-got-another")
                    break
            self.mode = AFTER_BODY
            return tok if name == "html" else None
        if name == "form":
            if not self.stack.has_open(HTML_NS, "template"):
                node = self.form
                self.form = None
                if node is None or self._el_in_scope(node) < 0:
                    self._err("unexpected-end-tag")
                    return None
                self._generate_implied()
                if self.current is not node:
                    self._err("end-tag-too-early-ignored")
                self.stack.remove(node)
                return None
            if not self._in_scope("form"):
                self._err("unexpected-end-tag")
                return None
            self._close_element("form", "end-tag-too-early-ignored")
            return None
        if name in ("dd", "dt"):
            if not self._in_scope(name):
                self._err("unexpected-end-tag")
                return None
            self._close_element(name, "end-tag-too-early")
            return None
        if name in ("applet", "marquee", "object"):
            if not self._in_scope(name):
                self._err("unexpected-end-tag")
                return None
            self._close_element(name, "end-tag-too-early")
            self._clear_afe_to_marker()
            return None
        if name == "br":
            self._err("unexpected-end-tag-treated-as")
            self._reconstruct_afe()
            self._insert_html_element("br", EMPTY_MAP)
            self.stack.pop()
            self.frameset_ok = False
            return None
        return self._any_other_end_tag(name)

    def _any_other_end_tag(self, name):
        stack = self.stack
        for i in range(len(stack) - 1, -1, -1):
            node = stack[i]
            if node.namespace == HTML_NS and node.name == name:
                self._generate_implied(exclude=name)
                if node is not self.current:
                    self._err("unexpected-end-tag")
                while stack[-1] is not node:
                    stack.pop()
                stack.pop()
                return None
            if self._is_special(node):
                self._err("unexpected-end-tag")
                return None
        return None

    # -- table modes ----------------------------------------------------
    def _clear_to_context(self, names):
        while not (
            self.current.namespace == HTML_NS and self.current.name in names
        ):
            self.stack.pop()

    def _m_in_table(self, tok):
        kind = tok[0]
        if kind in ("Character", "Space"):
            cur = self.current
            if cur.namespace == HTML_NS and cur.name in (
                "table",
                "tbody",
                "template",
                "tfoot",
                "thead",
                "tr",
            ):
                self.pending_table_text = []
                self.original_mode = self.mode
                self.mode = IN_TABLE_TEXT
                return tok
            return self._table_anything_else(tok)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "EOF":
            return self._m_in_body(tok)
        if kind == "StartTag":
            name = tok[1]
            if name == "caption":
                self._clear_to_context(("table", "template", "html"))
                self.afe.append(MARKER)
                self._insert_html_element(name, tok[2])
                self.mode = IN_CAPTION
                return None
            if name == "colgroup":
                self._clear_to_context(("table", "template", "html"))
                self._insert_html_element(name, tok[2])
                self.mode = IN_COLUMN_GROUP
                return None
            if name == "col":
                self._clear_to_context(("table", "template", "html"))
                self._insert_html_element("colgroup", EMPTY_MAP)
                self.mode = IN_COLUMN_GROUP
                return tok
            if name in ("tbody", "tfoot", "thead"):
                self._clear_to_context(("table", "template", "html"))
                self._insert_html_element(name, tok[2])
                self.mode = IN_TABLE_BODY
                return None
            if name in ("td", "th", "tr"):
                self._clear_to_context(("table", "template", "html"))
                self._insert_html_element("tbody", EMPTY_MAP)
                self.mode = IN_TABLE_BODY
                return tok
            if name == "table":
                self._err("unexpected-start-tag-implies-end-tag")
                if not self._in_scope("table", TABLE_SCOPE):
                    return None
                self._pop_until("table")
                self._reset_insertion_mode()
                return tok
            if name in ("style", "script", "template"):
                return self._m_in_head(tok)
            if name == "input":
                if tok[2].get("type", "").lower() == "hidden":
                    self._err("unexpected-hidden-input-in-table")
                    self._insert_html_element(name, tok[2])
                    self.stack.pop()
                    return None
                return self._table_anything_else(tok)
            if name == "form":
                self._err("unexpected-form-in-table")
                if self.form is not None or self.stack.has_open(HTML_NS, "template"):
                    return None
                self.form = self._insert_html_element(name, tok[2])
                self.stack.pop()
                return None
            return self._table_anything_else(tok)
        # EndTag
        name = tok[1]
        if name == "table":
            if not self._in_scope("table", TABLE_SCOPE):
                self._err("unexpected-end-tag")
                return None
            self._pop_until("table")
            self._reset_insertion_mode()
            return None
        if name == "template":
            return self._m_in_head(tok)
        if name in (
            "body",
            "caption",
            "col",
            "colgroup",
            "html",
            "tbody",
            "td",
            "tfoot",
            "th",
            "thead",
            "tr",
        ):
            self._err("unexpected-end-tag")
            return None
        return self._table_anything_else(tok)

    def _table_anything_else(self, tok):
        self._err("unexpected-token-in-table")
        self.foster_parenting = True
        result = self._m_in_body(tok)
        self.foster_parenting = False
        return result

    def _m_in_table_text(self, tok):
        kind = tok[0]
        if kind in ("Character", "Space"):
            self.pending_table_text.append(tok[1])
            return None
        joined = "".join(self.pending_table_text)
        self.pending_table_text = []
        if joined:
            if joined.strip(WS):
                self._err("unexpected-text-in-table")
                self.foster_parenting = True
                self._reconstruct_afe()
                self._insert_text(joined)
                self.frameset_ok = False
                self.foster_parenting = False
            else:
                self._insert_text(joined)
        self.mode = self.original_mode
        return tok

    def _m_in_caption(self, tok):
        kind = tok[0]
        name = tok[1] if kind in ("StartTag", "EndTag") else None
        if kind == "EndTag" and name == "caption":
            return self._close_caption(None)
        if (
            kind == "StartTag"
            and name
            in (
                "caption",
                "col",
                "colgroup",
                "tbody",
                "td",
                "tfoot",
                "th",
                "thead",
                "tr",
            )
        ) or (kind == "EndTag" and name == "table"):
            return self._close_caption(tok)
        if kind == "EndTag" and name in (
            "body",
            "col",
            "colgroup",
            "html",
            "tbody",
            "td",
            "tfoot",
            "th",
            "thead",
            "tr",
        ):
            self._err("unexpected-end-tag")
            return None
        return self._m_in_body(tok)

    def _close_caption(self, tok):
        """Close the caption; hands ``tok`` back to the table."""
        if not self._in_scope("caption", TABLE_SCOPE):
            self._err("unexpected-end-tag")
            return None
        self._close_element("caption", "expected-one-end-tag-but-got-another")
        self._clear_afe_to_marker()
        self.mode = IN_TABLE
        return tok

    def _m_in_column_group(self, tok):
        kind = tok[0]
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character" and tok[1][0] in WS:
            return self._split_ws(tok, True)
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        elif kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        elif kind == "EOF":
            return self._m_in_body(tok)
        elif kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self._m_in_body(tok)
            if name == "col":
                self._insert_html_element(name, tok[2])
                self.stack.pop()
                return None
            if name == "template":
                return self._m_in_head(tok)
        else:  # EndTag
            name = tok[1]
            if name == "colgroup":
                if not (
                    self.current.namespace == HTML_NS
                    and self.current.name == "colgroup"
                ):
                    self._err("unexpected-end-tag")
                    return None
                self.stack.pop()
                self.mode = IN_TABLE
                return None
            if name == "col":
                self._err("unexpected-end-tag")
                return None
            if name == "template":
                return self._m_in_head(tok)
        if not (
            self.current.namespace == HTML_NS
            and self.current.name == "colgroup"
        ):
            self._err("unexpected-token")
            return None
        self.stack.pop()
        self.mode = IN_TABLE
        return tok

    def _m_in_table_body(self, tok):
        kind = tok[0]
        if kind == "StartTag":
            name = tok[1]
            if name == "tr":
                self._clear_to_context(_TABLE_BODY_CONTEXT)
                self._insert_html_element(name, tok[2])
                self.mode = IN_ROW
                return None
            if name in ("th", "td"):
                self._err("unexpected-cell-in-table-body")
                self._clear_to_context(_TABLE_BODY_CONTEXT)
                self._insert_html_element("tr", EMPTY_MAP)
                self.mode = IN_ROW
                return tok
            if name in ("caption", "col", "colgroup", "tbody", "tfoot", "thead"):
                return self._close_table_body(_TABLE_BODIES, "unexpected-start-tag", tok)
        elif kind == "EndTag":
            name = tok[1]
            if name in _TABLE_BODIES:
                return self._close_table_body(name, "unexpected-end-tag", None)
            if name == "table":
                return self._close_table_body(_TABLE_BODIES, "unexpected-end-tag", tok)
            if name in (
                "body",
                "caption",
                "col",
                "colgroup",
                "html",
                "td",
                "th",
                "tr",
            ):
                self._err("unexpected-end-tag")
                return None
        return self._m_in_table(tok)

    def _close_table_body(self, names, code, tok):
        """Close the table body when ``names`` are in table scope (else
        report ``code``); hands ``tok`` back to the table."""
        if not self._in_scope(names, TABLE_SCOPE):
            self._err(code)
            return None
        self._clear_to_context(_TABLE_BODY_CONTEXT)
        self.stack.pop()
        self.mode = IN_TABLE
        return tok

    def _m_in_row(self, tok):
        kind = tok[0]
        if kind == "StartTag":
            name = tok[1]
            if name in ("th", "td"):
                self._clear_to_context(("tr", "template", "html"))
                self._insert_html_element(name, tok[2])
                self.mode = IN_CELL
                self.afe.append(MARKER)
                return None
            if name in (
                "caption",
                "col",
                "colgroup",
                "tbody",
                "tfoot",
                "thead",
                "tr",
            ):
                return self._close_row(tok)
        elif kind == "EndTag":
            name = tok[1]
            if name == "tr":
                return self._close_row(None)
            if name == "table":
                return self._close_row(tok)
            if name in ("tbody", "tfoot", "thead"):
                if not self._in_scope(name, TABLE_SCOPE):
                    self._err("unexpected-end-tag")
                    return None
                return self._close_row(tok)
            if name in (
                "body",
                "caption",
                "col",
                "colgroup",
                "html",
                "td",
                "th",
            ):
                self._err("unexpected-end-tag")
                return None
        return self._m_in_table(tok)

    def _close_row(self, tok):
        """Close the row; hands ``tok`` back to the table body."""
        if not self._in_scope("tr", TABLE_SCOPE):
            self._err("unexpected-end-tag")
            return None
        self._clear_to_context(("tr", "template", "html"))
        self.stack.pop()
        self.mode = IN_TABLE_BODY
        return tok

    def _m_in_cell(self, tok):
        kind = tok[0]
        if kind == "EndTag":
            name = tok[1]
            if name in ("td", "th", "table", "tbody", "tfoot", "thead", "tr"):
                if not self._in_scope(name, TABLE_SCOPE):
                    self._err("unexpected-end-tag")
                    return None
                return self._close_cell(None if name in ("td", "th") else tok)
            if name in ("body", "caption", "col", "colgroup", "html"):
                self._err("unexpected-end-tag")
                return None
        elif kind == "StartTag" and tok[1] in (
            "caption",
            "col",
            "colgroup",
            "tbody",
            "td",
            "tfoot",
            "th",
            "thead",
            "tr",
        ):
            return self._close_cell(tok)
        return self._m_in_body(tok)

    def _close_cell(self, tok):
        """Close the cell; hands ``tok`` back to the row.  IN_CELL has
        exactly one td or th in table scope: the mode is only entered with
        one on top, and IN_CELL closes it before opening another, so the
        spec's "fragment case" of no cell in scope cannot occur (the reset
        algorithm maps fragment contexts td/th to in-body)."""
        cell = "td" if self._in_scope("td", TABLE_SCOPE) else "th"
        self._close_element(cell, "expected-one-end-tag-but-got-another")
        self._clear_afe_to_marker()
        self.mode = IN_ROW
        return tok

    # -- template / after modes ------------------------------------------

    def _m_in_template(self, tok):
        kind = tok[0]
        if kind in ("Character", "Space", "Comment", "PI", "Doctype"):
            return self._m_in_body(tok)
        if kind == "StartTag":
            name = tok[1]
            if name in _IN_HEAD_DELEGATE:
                return self._m_in_head(tok)
            if name in ("caption", "colgroup", "tbody", "tfoot", "thead"):
                next_mode = IN_TABLE
            elif name == "col":
                next_mode = IN_COLUMN_GROUP
            elif name == "tr":
                next_mode = IN_TABLE_BODY
            elif name in ("td", "th"):
                next_mode = IN_ROW
            else:
                next_mode = IN_BODY
            if self.template_modes:
                self.template_modes.pop()
            self.template_modes.append(next_mode)
            self.mode = next_mode
            return tok
        if kind == "EndTag":
            if tok[1] == "template":
                return self._m_in_head(tok)
            self._err("unexpected-end-tag")
            return None
        # EOF.  The spec expresses this as "pop one template, reset,
        # REPROCESS the EOF" — an O(open templates) loop.  Run it
        # iteratively: the reprocess guard is an infinite-LOOP trap and
        # must not count legal linear work (the reference's equivalent
        # cap is a debug-only assert, TreeConstructor.php:366, disabled
        # in production; hunt r5 found 50+ nested templates tripping
        # ours).  No tokens run between iterations, so collapsing the
        # intermediate resets is semantics-preserving.
        if not self.stack.has_open(HTML_NS, "template"):
            return None
        while self.stack.has_open(HTML_NS, "template"):
            self._err("eof-in-template")
            self._pop_until("template")
            self._clear_afe_to_marker()
            if self.template_modes:
                self.template_modes.pop()
        self._reset_insertion_mode()
        return tok

    def _m_after_body(self, tok):
        """'after body' and 'after after body': they differ only in where
        a comment goes and in </html>."""
        kind = tok[0]
        if kind == "Comment" or kind == "PI":
            parent = self.stack[0] if self.mode == AFTER_BODY else self.doc
            self._insert_comment(tok[1], (parent, None), kind == "PI")
            return None
        if kind in ("Space", "Doctype") or (kind == "StartTag" and tok[1] == "html"):
            return self._m_in_body(tok)
        if kind == "Character":
            if tok[1][0] in WS:
                # the whitespace by the in-body rules, then the rest
                self._reconstruct_afe()
                return self._split_ws(tok, True)
            self._err("unexpected-char-after-body")
            self.mode = IN_BODY
            return tok
        if kind == "EndTag" and tok[1] == "html" and self.mode == AFTER_BODY:
            if self.fragment_context is not None:
                self._err("unexpected-end-tag")
                return None
            self.mode = AFTER_AFTER_BODY
            return None
        if kind == "EOF":
            return None
        self._err("unexpected-token-after-body")
        self.mode = IN_BODY
        return tok

    def _m_in_frameset(self, tok):
        kind = tok[0]
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character":
            ws = "".join(c for c in tok[1] if c in WS)
            if ws:
                self._insert_text(ws)
            self._err("unexpected-char-in-frameset")
            return None
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self._m_in_body(tok)
            if name == "frameset":
                self._insert_html_element(name, tok[2])
                return None
            if name == "frame":
                self._insert_html_element(name, tok[2])
                self.stack.pop()
                return None
            if name == "noframes":
                return self._m_in_head(tok)
        elif kind == "EndTag" and tok[1] == "frameset":
            if len(self.stack) == 1:
                self._err("unexpected-end-tag")
                return None
            self.stack.pop()
            if self.fragment_context is None and not (
                self.current.namespace == HTML_NS
                and self.current.name == "frameset"
            ):
                self.mode = AFTER_FRAMESET
            return None
        elif kind == "EOF":
            if len(self.stack) != 1:
                self._err("eof-in-frameset")
            return None
        self._err("unexpected-token-in-frameset")
        return None

    def _m_after_frameset(self, tok):
        kind = tok[0]
        if kind == "Space":
            self._insert_text(tok[1])
            return None
        if kind == "Character":
            ws = "".join(c for c in tok[1] if c in WS)
            if ws:
                self._insert_text(ws)
            self._err("unexpected-char-after-frameset")
            return None
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], is_pi=kind == "PI")
            return None
        if kind == "Doctype":
            self._err("unexpected-doctype")
            return None
        if kind == "StartTag" and tok[1] == "html":
            return self._m_in_body(tok)
        if kind == "StartTag" and tok[1] == "noframes":
            return self._m_in_head(tok)
        if kind == "EndTag" and tok[1] == "html":
            self.mode = AFTER_AFTER_FRAMESET
            return None
        if kind == "EOF":
            return None
        self._err("unexpected-token-after-frameset")
        return None

    def _m_after_after_frameset(self, tok):
        kind = tok[0]
        if kind == "Comment" or kind == "PI":
            self._insert_comment(tok[1], (self.doc, None), kind == "PI")
            return None
        if kind == "Doctype" or kind == "Space":
            return self._m_in_body(tok)
        if kind == "Character":
            ws = "".join(c for c in tok[1] if c in WS)
            if ws:
                self._m_in_body(("Space", ws))
            self._err("unexpected-char-after-frameset")
            return None
        if kind == "StartTag" and tok[1] == "html":
            return self._m_in_body(tok)
        if kind == "StartTag" and tok[1] == "noframes":
            return self._m_in_head(tok)
        if kind == "EOF":
            return None
        self._err("unexpected-token-after-frameset")
        return None


_OK_AT_EOF = frozenset(
    """dd dt li optgroup option p rb rp rt rtc tbody td tfoot th thead tr
    body html""".split()
)
_IN_HEAD_DELEGATE = frozenset(
    """base basefont bgsound link meta noframes script style template
    title""".split()
)
_BLOCK_START = frozenset(
    """address article aside blockquote center details dialog dir div dl
    fieldset figcaption figure footer header hgroup main menu nav ol p
    search section summary ul""".split()
)
_BLOCK_END = frozenset(
    """address article aside blockquote button center details dialog dir div
    dl fieldset figcaption figure footer header hgroup listing main menu nav
    ol pre search section select summary ul""".split()
)
_FORMATTING_START = frozenset(
    "b big code em font i s small strike strong tt u".split()
)
_HEADINGS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])
_TABLE_BODIES = ("tbody", "thead", "tfoot")
_TABLE_BODY_CONTEXT = ("tbody", "tfoot", "thead", "template", "html")

MODE_TABLE = [
    TreeBuilder._m_initial,
    TreeBuilder._m_before_html,
    TreeBuilder._m_before_head,
    TreeBuilder._m_in_head,
    TreeBuilder._m_in_head_noscript,
    TreeBuilder._m_after_head,
    TreeBuilder._m_in_body,
    TreeBuilder._m_text,
    TreeBuilder._m_in_table,
    TreeBuilder._m_in_table_text,
    TreeBuilder._m_in_caption,
    TreeBuilder._m_in_column_group,
    TreeBuilder._m_in_table_body,
    TreeBuilder._m_in_row,
    TreeBuilder._m_in_cell,
    TreeBuilder._m_in_template,
    TreeBuilder._m_after_body,
    TreeBuilder._m_in_frameset,
    TreeBuilder._m_after_frameset,
    TreeBuilder._m_after_body,
    TreeBuilder._m_after_after_frameset,
]
