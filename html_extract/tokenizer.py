"""WHATWG HTML5 tokenizer (spec §13.2.5, states 1-80), span-based.

Reference parity: mensbeam/HTML-Parser lib/Parser/Tokenizer.php (the
80-state dispatch loop at :245-3354 and the character-reference decoder
at :3356-3699).  This is a fresh implementation against the spec text,
written span-first: instead of char-at-a-time dispatch it consumes runs
with compiled regexes / ``str.find`` (the reference's own fast-path
lesson, Tokenizer.php:311-313 et al. — SURVEY.md §4.3).

Tokens are plain tuples (cheapest to allocate and dispatch on):
    ("Character", data)          non-whitespace (possibly mixed) run
    ("Space", data)              all-whitespace run
    ("Null",)                    single U+0000 from the data state
    ("StartTag", name, attrs, self_closing)   attrs: dict, first-wins;
                                 dom.EMPTY_MAP when the tag has none
    ("EndTag", name)
    ("Comment", data)
    ("PI", data)                 only when processing_instructions=True
    ("Doctype", name, public, system, force_quirks)
    ("EOF",)

The whitespace/character split at emit time mirrors the reference's
WhitespaceToken-iff-all-WS rule (Tokenizer.php:278-283, 309-315).

End of input: only the main loop of ``Tokenizer.tokens()`` yields
("EOF",), once input is exhausted (``self.p`` at the end), in every
state; in the CDATA section state it first reports eof-in-cdata.  A
scanner that runs out of input sets ``self.p`` to the end, reports its
own EOF error (eof-in-tag, eof-in-comment, ...) and returns the tokens
it finished.

The tree builder owns a reference to this object and may write
``self.state`` (RCDATA/RAWTEXT/SCRIPT_DATA/PLAINTEXT switches,
TreeConstructor.php:3861-3888) and ``self.last_start_tag`` (fragment
parsing); control returns to the caller after every emitted token, so
such writes take effect before the next character is consumed.
"""

import re

from .dom import EMPTY_MAP
from .entities import match_named
from .tables import C1_REMAP

# Externally visible tokenizer states (writable by the tree builder).
DATA = 0
RCDATA = 1
RAWTEXT = 2
SCRIPT_DATA = 3
PLAINTEXT = 4
CDATA_SECTION = 5

STATE_NAMES = {
    "Data state": DATA,
    "RCDATA state": RCDATA,
    "RAWTEXT state": RAWTEXT,
    "Script data state": SCRIPT_DATA,
    "PLAINTEXT state": PLAINTEXT,
    "CDATA section state": CDATA_SECTION,
}

WS = "\t\n\x0c "          # tokenizer whitespace (CR normalized to LF upstream)
WS_SET = frozenset(WS)
TEXT_WS = "\t\n\x0c\r "   # whitespace classes for Space-token classification
FFFD = "�"

_ALPHA = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_ALNUM = _ALPHA | frozenset("0123456789")
_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)

# Span-consumption regexes (the T2 fast paths).
RE_DATA = re.compile(r"[&<\x00]")
RE_RCDATA = re.compile(r"[&<\x00]")
RE_RAWTEXT = re.compile(r"[<\x00]")
# escaped script data must also stop at '-' so the '-->' exit is seen
RE_SCRIPT_ESCAPED = re.compile(r"[-<\x00]")
RE_PLAINTEXT = re.compile(r"\x00")
RE_TAGNAME_END = re.compile(r"[\t\n\x0c />\x00]")
RE_ATTRNAME_END = re.compile(r"[\t\n\x0c /=>\x00\"'<]")
RE_ATTRVAL_DQ = re.compile(r"[\"&\x00]")
RE_ATTRVAL_SQ = re.compile(r"['&\x00]")
RE_ATTRVAL_UQ = re.compile(r"[\t\n\x0c >&\x00\"'<=`]")
RE_COMMENT = re.compile(r"[-<\x00]")
RE_DOCTYPE_NAME_END = re.compile(r"[\t\n\x0c >\x00]")
RE_DOCTYPE_ID = {'"': re.compile(r'["\x00>]'), "'": re.compile(r"['\x00>]")}
RE_ALPHA_RUN = re.compile(r"[A-Za-z]+")
RE_END_TAG_NAME = re.compile(r"</([A-Za-z]+)")
# Attribute-less tag fast path: `<name>` / `</name>` with the name run
# ending directly at '>'.  Names with other characters (hyphens, NULs,
# digits-after-hyphen etc.) fall through to the general scanner.
RE_SIMPLE_TAG = re.compile(r"[A-Za-z][A-Za-z0-9]*>")

EOF_TOK = ("EOF",)


def ascii_lower(s: str) -> str:
    # fast path: tag/attr names are overwhelmingly already lowercase;
    # str.islower is a C scan and skips the translate allocation
    # (strings with no cased chars return False and take the no-op
    # translate — correct either way)
    return s if s.islower() else s.translate(_LOWER)


def _text_tok(data: str):
    return ("Space", data) if not data.strip(TEXT_WS) else ("Character", data)


def cdata_never() -> bool:
    """Default ``Tokenizer.cdata_allowed``: no tree builder attached."""
    return False


class Tokenizer:
    """One instance per document; drives a single pass over ``text``."""

    def __init__(
        self,
        text: str,
        state: int = DATA,
        last_start_tag: str | None = None,
        processing_instructions: bool = False,
        cdata_allowed=None,
    ):
        self.s = text
        self.n = len(text)
        self.p = 0
        self.state = state
        self.last_start_tag = last_start_tag
        self.processing_instructions = processing_instructions
        # Callable polled at '<![CDATA[' — the tree builder supplies one that
        # checks the adjusted current node's namespace (Tokenizer.php:2064-2080).
        self.cdata_allowed = cdata_allowed if cdata_allowed is not None else cdata_never
        self.errors: list[tuple[str, int]] = []
        # start-tag name -> itself: one string per distinct name, freed
        # with this document (end-tag names are transient)
        self.names: dict[str, str] = {}

    # -- error reporting ------------------------------------------------
    def _err(self, code: str, pos: int) -> None:
        self.errors.append((code, pos))

    # -- public API -----------------------------------------------------
    def tokens(self):
        """Generator of token tuples, ending with ("EOF",) (the one place
        that yields it; see the module docstring)."""
        s, n = self.s, self.n
        intern = self.names.setdefault
        text_states = self._TEXT_STATES
        while True:
            st = self.state
            p = self.p
            if p >= n:
                if st == CDATA_SECTION:
                    self._err("eof-in-cdata", n)
                yield EOF_TOK
                return
            c = s[p]
            if st == DATA:
                if c == "<":
                    # inline fast paths for `<name>` / `</name>` (no
                    # attrs, name run straight to '>') — the dominant
                    # tag shapes; everything else takes _tag_open
                    m = RE_SIMPLE_TAG.match(s, p + 1)
                    if m is not None:
                        q = m.end()
                        self.p = q
                        name = s[p + 1 : q - 1]
                        if not name.islower():
                            name = name.translate(_LOWER)
                        name = intern(name, name)
                        self.last_start_tag = name
                        yield ("StartTag", name, EMPTY_MAP, False)
                        continue
                    if s[p + 1 : p + 2] == "/":
                        m = RE_SIMPLE_TAG.match(s, p + 2)
                        if m is not None:
                            q = m.end()
                            self.p = q
                            name = s[p + 2 : q - 1]
                            if not name.islower():
                                name = name.translate(_LOWER)
                            yield ("EndTag", name)
                            continue
                    yield from self._tag_open()
                elif c == "&":
                    self.p, text = self._charref(p, False)
                    yield _text_tok(text)
                elif c == "\x00":
                    self._err("unexpected-null-character", p)
                    self.p = p + 1
                    yield ("Null",)
                else:
                    m = RE_DATA.search(s, p + 1)
                    q = m.start() if m else n
                    self.p = q
                    yield _text_tok(s[p:q])
            elif st == CDATA_SECTION:
                # entered from '<![CDATA[' in foreign content, or as the
                # initial state; EOF is reported by the check above
                q = s.find("]]>", p)
                if q == -1:
                    q = self.p = n
                else:
                    self.p = q + 3
                    self.state = DATA
                if q > p:
                    yield _text_tok(s[p:q])
            else:  # RCDATA, RAWTEXT, SCRIPT_DATA, PLAINTEXT
                stop, lt, refs = text_states[st]
                if c == "<" and lt is not None:
                    yield from lt(self, p)
                elif c == "&" and refs:
                    self.p, text = self._charref(p, False)
                    yield _text_tok(text)
                elif c == "\x00":
                    self._err("unexpected-null-character", p)
                    self.p = p + 1
                    yield ("Character", FFFD)
                else:
                    m = stop.search(s, p + 1)
                    q = m.start() if m else n
                    self.p = q
                    yield _text_tok(s[p:q])

    def _scan(self, p, stop, bad="", code=None):
        """Scan a run from ``s[p]`` to the first ``stop`` match that ends
        it; returns (text, end), with ``end == n`` at EOF.

        Within the run, NUL becomes U+FFFD (unexpected-null-character),
        '&' (matched only by the attribute-value patterns) a character
        reference, and a character in ``bad`` stays after a ``code``
        error.  The one slow path of tag, attribute and DOCTYPE names,
        attribute values, DOCTYPE identifiers, comments and escaped
        script data.
        """
        s, n = self.s, self.n
        parts = []
        while True:
            m = stop.search(s, p)
            if m is None:
                parts.append(s[p:n])
                return "".join(parts), n
            q = m.start()
            parts.append(s[p:q])
            c = s[q]
            if c == "\x00":
                self._err("unexpected-null-character", q)
                parts.append(FFFD)
                p = q + 1
            elif c == "&":
                p, text = self._charref(q, True)
                parts.append(text)
            elif c in bad:
                self._err(code, q)
                parts.append(c)
                p = q + 1
            else:
                return "".join(parts), q

    def _eof_in_tag(self):
        self._err("eof-in-tag", self.n)
        self.p = self.n
        return []

    # -- '<' in data state ---------------------------------------------
    def _tag_open(self):
        s, n = self.s, self.n
        p = self.p + 1
        if p >= n:
            self._err("eof-before-tag-name", p)
            self.p = n
            return [("Character", "<")]
        c = s[p]
        if c == "!":
            return self._markup_declaration(p + 1)
        if c == "/":
            return self._end_tag_open(p + 1)
        if c in _ALPHA:
            return self._scan_tag(p, True)
        if c == "?":
            self._err("unexpected-question-mark-instead-of-tag-name", p)
            return self._bogus_comment(p)
        self._err("invalid-first-character-of-tag-name", p)
        self.p = p  # reconsume in data
        return [("Character", "<")]

    def _end_tag_open(self, p):
        s, n = self.s, self.n
        if p >= n:
            self._err("eof-before-tag-name", p)
            self.p = n
            return [("Character", "</")]
        c = s[p]
        if c in _ALPHA:
            return self._scan_tag(p, False)
        if c == ">":
            self._err("missing-end-tag-name", p)
            self.p = p + 1
            return []
        self._err("invalid-first-character-of-tag-name", p)
        return self._bogus_comment(p)

    # -- tag name + attributes (states 32-43) ---------------------------
    def _scan_tag(self, p, is_start):
        """Parse a tag from the first name character; emits the tag token."""
        s, n = self.s, self.n
        m = RE_TAGNAME_END.search(s, p)
        q = m.start() if m is not None else n
        if q < n and s[q] != "\x00":  # fast path: no NUL in the name
            name = s[p:q]
        else:
            name, q = self._scan(p, RE_TAGNAME_END)
            if q >= n:
                return self._eof_in_tag()
        return self._scan_attrs(ascii_lower(name), q, is_start)

    def _scan_attrs(self, name, p, is_start):
        """From 'before attribute name' to the end of the tag ``name``;
        returns the tag token, or no token at EOF (eof-in-tag).

        Always returns to the data state on '>' (per spec, which is why the
        tree builder's RCDATA/RAWTEXT switches happen after this returns).
        """
        s, n = self.s, self.n
        start = p
        attrs: dict[str, str] = {}
        self_closing = False
        while True:
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                return self._eof_in_tag()
            c = s[p]
            if c == ">":
                break
            if c == "/":
                p += 1
                if p < n and s[p] == ">":
                    self_closing = True
                    break
                if p < n:
                    self._err("unexpected-solidus-in-tag", p - 1)
                continue
            # attribute name
            m = RE_ATTRNAME_END.search(s, p if c != "=" else p + 1)
            if m is not None and s[m.start()] not in '\x00"\'<' and c != "=":
                # fast path: plain name, no weird characters
                q = m.start()
                aname = ascii_lower(s[p:q])
                p = q
            else:
                prefix = ""
                if c == "=":
                    self._err(
                        "unexpected-equals-sign-before-attribute-name", p
                    )
                    prefix = "="
                    p += 1
                aname, p = self._scan(
                    p, RE_ATTRNAME_END, "\"'<", "unexpected-character-in-attribute-name"
                )
                if p >= n:
                    return self._eof_in_tag()
                aname = ascii_lower(prefix + aname)
            # after attribute name
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                return self._eof_in_tag()
            if s[p] != "=":
                # attribute with empty value; reprocess s[p] at loop top
                self._store_attr(attrs, aname, "", p)
                continue
            # before attribute value
            p += 1
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                return self._eof_in_tag()
            c = s[p]
            if c == ">":
                self._err("missing-attribute-value", p)
                self._store_attr(attrs, aname, "", p)
                break
            if c == '"' or c == "'":
                rex = RE_ATTRVAL_DQ if c == '"' else RE_ATTRVAL_SQ
                p += 1
                m = rex.search(s, p)
                if m is not None and s[m.start()] == c:
                    # fast path: plain quoted value (no & or NUL)
                    q = m.start()
                    self._store_attr(attrs, aname, s[p:q], q)
                    p = q + 1
                else:
                    value, q = self._scan(p, rex)
                    if q >= n:
                        return self._eof_in_tag()
                    p = q + 1
                    self._store_attr(attrs, aname, value, p)
                # after attribute value (quoted)
                if p < n and s[p] not in WS_SET and s[p] not in "/>":
                    self._err("missing-whitespace-between-attributes", p)
                continue
            value, p = self._scan(
                p, RE_ATTRVAL_UQ, "\"'<=`", "unexpected-character-in-unquoted-attribute-value"
            )
            if p >= n:
                return self._eof_in_tag()
            self._store_attr(attrs, aname, value, p)
        # s[p] is the tag's '>'
        self.p = p + 1
        self.state = DATA
        if is_start:
            name = self.names.setdefault(name, name)
            self.last_start_tag = name
            return [("StartTag", name, attrs or EMPTY_MAP, self_closing)]
        if attrs:
            self._err("end-tag-with-attributes", start)
        if self_closing:
            self._err("end-tag-with-trailing-solidus", p)
        return [("EndTag", name)]

    def _store_attr(self, attrs, name, value, pos):
        if name in attrs:
            self._err("duplicate-attribute", pos)
        else:
            attrs[name] = value

    # -- character references (states 72-80) ----------------------------
    def _charref(self, p, in_attr):
        """Decode a character reference at s[p] == '&'.

        Returns (new_position, replacement_text).  Implements the named
        longest-match, legacy semicolon-less, attribute special-case and
        numeric remap/clamp rules (Tokenizer.php:3356-3699).
        """
        s, n = self.s, self.n
        q = p + 1
        if q >= n:
            return q, "&"
        c = s[q]
        if c == "#":
            return self._numeric_charref(q + 1)
        if c not in _ALNUM:
            return q, "&"
        m = match_named(s, q)
        if m is None:
            i = q
            while i < n and s[i] in _ALNUM:
                i += 1
            if i > q and i < n and s[i] == ";":
                self._err("unknown-named-character-reference", i)
            return q, "&"
        ln, repl, had_semi = m
        end = q + ln
        if in_attr and not had_semi:
            nxt = s[end] if end < n else ""
            if nxt == "=" or nxt in _ALNUM:
                return end, "&" + s[q:end]
        if not had_semi:
            self._err("missing-semicolon-after-character-reference", end)
        return end, repl

    def _numeric_charref(self, p):
        """p points just after '&#'."""
        s, n = self.s, self.n
        start = p
        hexmode = False
        if p < n and s[p] in "xX":
            hexmode = True
            p += 1
        digits = "0123456789abcdefABCDEF" if hexmode else "0123456789"
        d0 = p
        val = 0
        while p < n and s[p] in digits:
            if val <= 0x10FFFF:
                val = val * (16 if hexmode else 10) + int(s[p], 16)
            p += 1
        if p == d0:
            self._err("absence-of-digits-in-numeric-character-reference", p)
            return p, "&#" + s[start:p]
        if p < n and s[p] == ";":
            p += 1
        else:
            self._err("missing-semicolon-after-character-reference", p)
        if val == 0:
            self._err("null-character-reference", p)
            return p, FFFD
        if val > 0x10FFFF:
            self._err("character-reference-outside-unicode-range", p)
            return p, FFFD
        if 0xD800 <= val <= 0xDFFF:
            self._err("surrogate-character-reference", p)
            return p, FFFD
        if (0xFDD0 <= val <= 0xFDEF) or (val & 0xFFFE) == 0xFFFE:
            self._err("noncharacter-character-reference", p)
        elif val == 0x0D or (
            (val <= 0x1F or 0x7F <= val <= 0x9F) and chr(val) not in WS_SET
        ):
            self._err("control-character-reference", p)
            val = C1_REMAP.get(val, val)
        return p, chr(val)

    # -- markup declaration open ---------------------------------------
    def _markup_declaration(self, p):
        s = self.s
        if s.startswith("--", p):
            return self._comment(p + 2)
        if ascii_lower(s[p : p + 7]) == "doctype":
            return self._doctype(p + 7)
        if s.startswith("[CDATA[", p):
            if self.cdata_allowed():
                self.p = p + 7
                self.state = CDATA_SECTION
                return []
            self._err("cdata-in-html-content", p)
            return self._bogus_comment(p)
        self._err("incorrectly-opened-comment", p)
        return self._bogus_comment(p)

    def _bogus_comment(self, p):
        s, n = self.s, self.n
        i = s.find(">", p)
        if i == -1:
            i = n
        data = s[p:i]
        self.p = min(i + 1, n)
        if "\x00" in data:
            j = data.find("\x00")
            while j != -1:
                self._err("unexpected-null-character", p + j)
                j = data.find("\x00", j + 1)
            data = data.replace("\x00", FFFD)
        if self.processing_instructions and data.startswith("?"):
            return [("PI", data)]
        return [("Comment", data)]

    # -- comments (states 43-52) ---------------------------------------
    def _comment(self, p):
        s, n = self.s, self.n
        buf = []
        i = p
        state = 0  # 0 start, 1 start_dash, 2 comment, 3 lt, 4 lt_bang,
        # 5 lt_bang_dash, 6 lt_bang_dash_dash, 7 end_dash, 8 end, 9 end_bang
        while True:
            if i >= n:
                self._err("eof-in-comment", n)
                break
            c = s[i]
            if state == 0:
                if c == "-":
                    state = 1
                    i += 1
                elif c == ">":
                    self._err("abrupt-closing-of-empty-comment", i)
                    i += 1
                    break
                else:
                    state = 2
            elif state == 1:
                if c == "-":
                    state = 8
                    i += 1
                elif c == ">":
                    self._err("abrupt-closing-of-empty-comment", i)
                    i += 1
                    break
                else:
                    buf.append("-")
                    state = 2
            elif state == 2:
                text, i = self._scan(i, RE_COMMENT)
                buf.append(text)
                if i < n:  # at '<' or '-'
                    if s[i] == "<":
                        buf.append("<")
                        state = 3
                    else:
                        state = 7
                    i += 1
            elif state == 3:
                if c == "!":
                    buf.append("!")
                    i += 1
                    state = 4
                elif c == "<":
                    buf.append("<")
                    i += 1
                else:
                    state = 2
            elif state == 4:
                if c == "-":
                    i += 1
                    state = 5
                else:
                    state = 2
            elif state == 5:
                if c == "-":
                    i += 1
                    state = 6
                else:
                    state = 7
            elif state == 6:
                if c != ">":
                    self._err("nested-comment", i)
                state = 8
            elif state == 7:
                if c == "-":
                    i += 1
                    state = 8
                else:
                    buf.append("-")
                    state = 2
            elif state == 8:
                if c == ">":
                    i += 1
                    break
                elif c == "!":
                    i += 1
                    state = 9
                elif c == "-":
                    buf.append("-")
                    i += 1
                else:
                    buf.append("--")
                    state = 2
            else:  # state == 9
                if c == "-":
                    buf.append("--!")
                    i += 1
                    state = 7
                elif c == ">":
                    self._err("incorrectly-closed-comment", i)
                    i += 1
                    break
                else:
                    buf.append("--!")
                    state = 2
        self.p = i
        return [("Comment", "".join(buf))]

    # -- DOCTYPE (states 53-67) -----------------------------------------
    def _doctype(self, i):
        """From after '<!DOCTYPE'; every path ends in ``_doctype_end``."""
        s, n = self.s, self.n
        if i < n and s[i] not in WS_SET and s[i] != ">":
            self._err("missing-whitespace-before-doctype-name", i)
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n or s[i] == ">":
            return self._doctype_end(i, None, code="missing-doctype-name")
        name, i = self._scan(i, RE_DOCTYPE_NAME_END)
        name = ascii_lower(name)
        # after DOCTYPE name
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n or s[i] == ">":
            return self._doctype_end(i, name)
        kw = ascii_lower(s[i : i + 6])
        if kw != "public" and kw != "system":
            return self._doctype_end(
                i, name, code="invalid-character-sequence-after-doctype-name", bogus=True
            )
        # after the PUBLIC/SYSTEM keyword
        i += 6
        if i < n and s[i] in "\"'":
            self._err(f"missing-whitespace-after-doctype-{kw}-keyword", i)
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n or s[i] == ">":
            return self._doctype_end(i, name, code=f"missing-doctype-{kw}-identifier")
        if s[i] not in "\"'":
            return self._doctype_end(
                i, name, code=f"missing-quote-before-doctype-{kw}-identifier", bogus=True
            )
        ident, i = self._scan(i + 1, RE_DOCTYPE_ID[s[i]])
        public, system = (ident, None) if kw == "public" else (None, ident)
        if i >= n or s[i] == ">":
            return self._doctype_end(
                i, name, public, system, code=f"abrupt-doctype-{kw}-identifier"
            )
        i += 1
        if kw == "public":
            # after public identifier: an optional system identifier
            had_ws = i < n and s[i] in WS_SET
            while i < n and s[i] in WS_SET:
                i += 1
            if i >= n or s[i] == ">":
                return self._doctype_end(i, name, public)
            if s[i] not in "\"'":
                return self._doctype_end(
                    i, name, public,
                    code="missing-quote-before-doctype-system-identifier", bogus=True,
                )
            if not had_ws:
                self._err(
                    "missing-whitespace-between-doctype-public-and-system-identifiers",
                    i,
                )
            system, i = self._scan(i + 1, RE_DOCTYPE_ID[s[i]])
            if i >= n or s[i] == ">":
                return self._doctype_end(
                    i, name, public, system, code="abrupt-doctype-system-identifier"
                )
            i += 1
        # after system identifier
        while i < n and s[i] in WS_SET:
            i += 1
        if i < n and s[i] != ">":
            self._err("unexpected-character-after-doctype-system-identifier", i)
            # bogus doctype WITHOUT force-quirks (spec)
            return self._doctype_end(i, name, public, system, bogus=True)
        return self._doctype_end(i, name, public, system)

    def _doctype_end(self, i, name, public=None, system=None, code=None, bogus=False):
        """The one DOCTYPE exit: emit the token at ``s[i] == '>'`` or at EOF.

        ``code`` is a parse error at ``s[i]``, which forces quirks.  A bogus
        DOCTYPE first skips to the next '>' (EOF there is no error); EOF
        anywhere else is eof-in-doctype and forces quirks.
        """
        n = self.n
        quirks = code is not None
        if code is not None and i < n:
            self._err(code, i)
        if bogus:
            i = self.s.find(">", i)
            if i == -1:
                i = n
        elif i >= n:
            self._err("eof-in-doctype", n)
            quirks = True
        self.p = min(i + 1, n)
        return [("Doctype", name, public, system, quirks)]

    # -- '<' in RCDATA / RAWTEXT / script data ----------------------------
    def _lt(self, p):
        """At '<': an appropriate end tag, else '</' or '<' as text."""
        toks = self._try_appropriate_end_tag(p)
        if toks is None:
            k = 2 if self.s.startswith("</", p) else 1
            self.p = p + k
            toks = [("Character", self.s[p : p + k])]
        return toks

    def _try_appropriate_end_tag(self, p):
        """At '<': the tokens of an end tag that names the last start tag,
        or None when ``s[p:]`` does not start one.

        The name must be followed by whitespace, '/' or '>': EOF right
        after it is the end tag name state's "anything else" branch, so
        '</name' stays text with no error.  EOF in its attribute section:
        the spec's before-attribute-name state emits eof-in-tag and EOF
        only, so the consumed '</name ...' characters are dropped (no
        token).
        """
        s, n = self.s, self.n
        m = RE_END_TAG_NAME.match(s, p)
        if m is None:
            return None
        name = ascii_lower(m.group(1))
        q = m.end()
        if name != self.last_start_tag or q >= n or (
            s[q] not in WS_SET and s[q] not in "/>"
        ):
            return None
        return self._scan_attrs(name, q, False)

    # -- script data: '<' and the escaped family ------------------------
    def _script_lt(self, p):
        s, n = self.s, self.n
        if not s.startswith("<!", p):
            return self._lt(p)
        # script data escape start
        out = [("Character", "<!")]
        i = p + 2
        dashes = 0
        while dashes < 2 and i < n and s[i] == "-":
            out.append(("Character", "-"))
            i += 1
            dashes += 1
        self.p = i
        if dashes == 2:
            # after '<!--' the spec is in script-data-escaped-dash-dash
            # (escape-start -> escape-start-dash -> escaped-dash-dash),
            # so an immediate '>' returns to plain script data.
            return out + self._script_escaped(i, state=8)
        return out

    def _script_escaped(self, i, state=2):
        """Script-data-escaped + double-escaped states (spec 13.2.5.20-29).

        Runs until the construct ends (-->), an appropriate </script> end
        tag is emitted, or EOF.  Returns the list of tokens produced.
        ``state``: 2 escaped, 7 escaped-dash, 8 escaped-dash-dash.
        """
        s, n = self.s, self.n
        out = []
        text = []  # pending character data

        def flush():
            if text:
                out.append(_text_tok("".join(text)))
                del text[:]
        double = False
        while True:
            if i >= n:
                self._err("eof-in-script-html-comment-like-text", n)
                flush()
                self.p = n
                return out
            c = s[i]
            if state == 8:  # (double-)escaped dash dash
                if c == "-":
                    text.append("-")
                    i += 1
                    continue
                if c == "<":
                    state = 2
                    # fall through to '<' handling below
                elif c == ">":
                    text.append(">")
                    self.p = i + 1
                    flush()
                    self.state = SCRIPT_DATA
                    return out
                else:
                    state = 2
                    continue
            elif state == 7:  # (double-)escaped dash
                if c == "-":
                    text.append("-")
                    i += 1
                    state = 8
                    continue
                state = 2
                continue
            # state == 2: (double-)escaped
            if c == "-":
                text.append("-")
                i += 1
                state = 7
                continue
            if c != "<":
                run, i = self._scan(i, RE_SCRIPT_ESCAPED)
                text.append(run)
                continue
            # '<'
            nxt = s[i + 1] if i + 1 < n else ""
            if nxt == "/" and not double:
                # escaped end tag open
                toks = self._try_appropriate_end_tag(i)
                if toks is not None:
                    flush()
                    out.extend(toks)
                    return out
            # double escape start '<script' (escaped) or end '</script'
            # (double escaped); any other '<' or '</' is text
            j = i + 2 if nxt == "/" else i + 1
            m = RE_ALPHA_RUN.match(s, j)
            if m is None or (nxt == "/") != double:
                text.append(s[i:j])
                i = j
                continue
            q = m.end()
            after = s[q] if q < n else ""
            text.append(s[i:q])
            i = q
            if after in WS_SET or after in "/>":
                text.append(after)
                i += 1
                if ascii_lower(m.group()) == "script":
                    double = not double

    # state -> (stop regex, '<' handler or None, '&' starts a character
    # reference): the rows of the text states' one branch in ``tokens``
    _TEXT_STATES = {
        RCDATA: (RE_RCDATA, _lt, True),
        RAWTEXT: (RE_RAWTEXT, _lt, False),
        SCRIPT_DATA: (RE_RAWTEXT, _script_lt, False),
        PLAINTEXT: (RE_PLAINTEXT, None, False),
    }
