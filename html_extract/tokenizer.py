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
RE_ALPHA_RUN = re.compile(r"[A-Za-z]+")
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
        """Generator of token tuples, ending with ("EOF",)."""
        s, n = self.s, self.n
        intern = self.names.setdefault
        while True:
            st = self.state
            p = self.p
            if st == DATA:
                if p >= n:
                    yield EOF_TOK
                    return
                c = s[p]
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
                    # EOF_TOK, when emitted, is always last in the list
                    toks = self._tag_open()
                    yield from toks
                    if toks and toks[-1] is EOF_TOK:
                        return
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
            elif st == RCDATA or st == RAWTEXT:
                if p >= n:
                    yield EOF_TOK
                    return
                rex = RE_RCDATA if st == RCDATA else RE_RAWTEXT
                c = s[p]
                if c == "&" and st == RCDATA:
                    self.p, text = self._charref(p, False)
                    yield _text_tok(text)
                elif c == "<":
                    toks = self._text_lt()
                    yield from toks
                    if toks and toks[-1] is EOF_TOK:
                        return
                elif c == "\x00":
                    self._err("unexpected-null-character", p)
                    self.p = p + 1
                    yield ("Character", FFFD)
                else:
                    m = rex.search(s, p + 1)
                    q = m.start() if m else n
                    self.p = q
                    yield _text_tok(s[p:q])
            elif st == SCRIPT_DATA:
                if p >= n:
                    yield EOF_TOK
                    return
                c = s[p]
                if c == "<":
                    toks = self._script_lt()
                    yield from toks
                    if toks and toks[-1] is EOF_TOK:
                        return
                elif c == "\x00":
                    self._err("unexpected-null-character", p)
                    self.p = p + 1
                    yield ("Character", FFFD)
                else:
                    m = RE_RAWTEXT.search(s, p + 1)
                    q = m.start() if m else n
                    self.p = q
                    yield _text_tok(s[p:q])
            elif st == PLAINTEXT:
                if p >= n:
                    yield EOF_TOK
                    return
                m = RE_PLAINTEXT.search(s, p)
                q = m.start() if m else n
                if q > p:
                    self.p = q
                    yield _text_tok(s[p:q])
                else:
                    self._err("unexpected-null-character", p)
                    self.p = p + 1
                    yield ("Character", FFFD)
            elif st == CDATA_SECTION:
                # Used directly only by conformance tests; normal flow enters
                # CDATA via markup-declaration-open.
                for t in self._cdata(p):
                    yield t
                    if t is EOF_TOK:
                        return
            else:  # pragma: no cover
                raise AssertionError(f"bad tokenizer state {st}")

    # -- '<' in data state ---------------------------------------------
    def _tag_open(self):
        s, n = self.s, self.n
        p = self.p + 1
        if p >= n:
            self._err("eof-before-tag-name", p)
            self.p = n
            return [("Character", "<"), EOF_TOK]
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
            return [("Character", "</"), EOF_TOK]
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
        if m is None:
            self._err("eof-in-tag", n)
            self.p = n
            return [EOF_TOK]
        q = m.start()
        if s[q] != "\x00":  # fast path: no NUL in the name
            name = ascii_lower(s[p:q])
        else:
            name_parts = []
            while True:
                name_parts.append(s[p:q])
                if s[q] == "\x00":
                    self._err("unexpected-null-character", q)
                    name_parts.append(FFFD)
                    p = q + 1
                    m = RE_TAGNAME_END.search(s, p)
                    if m is None:
                        self._err("eof-in-tag", n)
                        self.p = n
                        return [EOF_TOK]
                    q = m.start()
                    continue
                break
            name = ascii_lower("".join(name_parts))
        attrs, self_closing, endp, eof = self._scan_attrs(q)
        if eof:
            self.p = n
            return [EOF_TOK]
        self.p = endp
        if is_start:
            name = self.names.setdefault(name, name)
            self.last_start_tag = name
            return [("StartTag", name, attrs or EMPTY_MAP, self_closing)]
        if attrs:
            self._err("end-tag-with-attributes", q)
        if self_closing:
            self._err("end-tag-with-trailing-solidus", endp - 1)
        return [("EndTag", name)]

    def _scan_attrs(self, p):
        """From 'before attribute name'; returns (attrs, self_closing, end, eof).

        Always returns to the data state on '>' (per spec, which is why the
        tree builder's RCDATA/RAWTEXT switches happen after this returns).
        """
        s, n = self.s, self.n
        attrs: dict[str, str] = {}
        while True:
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                self._err("eof-in-tag", n)
                return attrs, False, n, True
            c = s[p]
            if c == ">":
                self.state = DATA
                return attrs, False, p + 1, False
            if c == "/":
                if p + 1 < n and s[p + 1] == ">":
                    self.state = DATA
                    return attrs, True, p + 2, False
                if p + 1 >= n:
                    self._err("eof-in-tag", n)
                    return attrs, False, n, True
                self._err("unexpected-solidus-in-tag", p)
                p += 1
                continue
            # attribute name
            m = RE_ATTRNAME_END.search(s, p if c != "=" else p + 1)
            if m is not None and s[m.start()] not in '\x00"\'<' and c != "=":
                # fast path: plain name, no weird characters
                q = m.start()
                aname = ascii_lower(s[p:q])
                p = q
            else:
                parts = []
                if c == "=":
                    self._err(
                        "unexpected-equals-sign-before-attribute-name", p
                    )
                    parts.append("=")
                    p += 1
                while True:
                    m = RE_ATTRNAME_END.search(s, p)
                    if m is None:
                        parts.append(s[p:n])
                        self._err("eof-in-tag", n)
                        return attrs, False, n, True
                    q = m.start()
                    parts.append(s[p:q])
                    cq = s[q]
                    if cq == "\x00":
                        self._err("unexpected-null-character", q)
                        parts.append(FFFD)
                        p = q + 1
                    elif cq in "\"'<":
                        self._err("unexpected-character-in-attribute-name", q)
                        parts.append(cq)
                        p = q + 1
                    else:
                        p = q
                        break
                aname = ascii_lower("".join(parts))
            # after attribute name
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                self._err("eof-in-tag", n)
                return attrs, False, n, True
            c = s[p]
            if c != "=":
                # attribute with empty value; reprocess c at loop top
                self._store_attr(attrs, aname, "", p)
                continue
            # before attribute value
            p += 1
            while p < n and s[p] in WS_SET:
                p += 1
            if p >= n:
                self._err("eof-in-tag", n)
                return attrs, False, n, True
            c = s[p]
            if c == ">":
                self._err("missing-attribute-value", p)
                self._store_attr(attrs, aname, "", p)
                self.state = DATA
                return attrs, False, p + 1, False
            if c == '"' or c == "'":
                rex = RE_ATTRVAL_DQ if c == '"' else RE_ATTRVAL_SQ
                p += 1
                m = rex.search(s, p)
                if m is not None and s[m.start()] == c:
                    # fast path: plain quoted value (no & or NUL)
                    q = m.start()
                    self._store_attr(attrs, aname, s[p:q], q)
                    p = q + 1
                    if p < n and s[p] not in WS_SET and s[p] not in "/>":
                        self._err("missing-whitespace-between-attributes", p)
                    continue
                vparts = []
                while True:
                    m = rex.search(s, p)
                    if m is None:
                        vparts.append(s[p:n])
                        self._err("eof-in-tag", n)
                        return attrs, False, n, True
                    q = m.start()
                    vparts.append(s[p:q])
                    cq = s[q]
                    if cq == c:
                        p = q + 1
                        break
                    if cq == "&":
                        p, text = self._charref(q, True)
                        vparts.append(text)
                    else:  # NUL
                        self._err("unexpected-null-character", q)
                        vparts.append(FFFD)
                        p = q + 1
                self._store_attr(attrs, aname, "".join(vparts), p)
                # after attribute value (quoted)
                if p < n and s[p] not in WS_SET and s[p] not in "/>":
                    self._err("missing-whitespace-between-attributes", p)
                continue
            # unquoted value
            vparts = []
            while True:
                m = RE_ATTRVAL_UQ.search(s, p)
                if m is None:
                    vparts.append(s[p:n])
                    self._err("eof-in-tag", n)
                    return attrs, False, n, True
                q = m.start()
                vparts.append(s[p:q])
                cq = s[q]
                if cq == "&":
                    p, text = self._charref(q, True)
                    vparts.append(text)
                elif cq == "\x00":
                    self._err("unexpected-null-character", q)
                    vparts.append(FFFD)
                    p = q + 1
                elif cq in "\"'<=`":
                    self._err(
                        "unexpected-character-in-unquoted-attribute-value", q
                    )
                    vparts.append(cq)
                    p = q + 1
                else:  # whitespace or '>'
                    p = q
                    break
            self._store_attr(attrs, aname, "".join(vparts), p)

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
                return self._cdata(p + 7)
            self._err("cdata-in-html-content", p)
            return self._bogus_comment(p)
        self._err("incorrectly-opened-comment", p)
        return self._bogus_comment(p)

    def _bogus_comment(self, p):
        s, n = self.s, self.n
        i = s.find(">", p)
        eof = i == -1
        data = s[p:n] if eof else s[p:i]
        self.p = n if eof else i + 1
        if "\x00" in data:
            self._err("unexpected-null-character", p)
            data = data.replace("\x00", FFFD)
        if self.processing_instructions and data.startswith("?"):
            tok = ("PI", data)
        else:
            tok = ("Comment", data)
        return [tok, EOF_TOK] if eof else [tok]

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
                self.p = n
                return [("Comment", "".join(buf)), EOF_TOK]
            c = s[i]
            if state == 0:
                if c == "-":
                    state = 1
                    i += 1
                elif c == ">":
                    self._err("abrupt-closing-of-empty-comment", i)
                    self.p = i + 1
                    return [("Comment", "")]
                else:
                    state = 2
            elif state == 1:
                if c == "-":
                    state = 8
                    i += 1
                elif c == ">":
                    self._err("abrupt-closing-of-empty-comment", i)
                    self.p = i + 1
                    return [("Comment", "")]
                else:
                    buf.append("-")
                    state = 2
            elif state == 2:
                m = RE_COMMENT.search(s, i)
                if m is None:
                    buf.append(s[i:n])
                    i = n
                    continue
                j = m.start()
                buf.append(s[i:j])
                c = s[j]
                if c == "<":
                    buf.append("<")
                    i = j + 1
                    state = 3
                elif c == "-":
                    i = j + 1
                    state = 7
                else:
                    self._err("unexpected-null-character", j)
                    buf.append(FFFD)
                    i = j + 1
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
                    self.p = i + 1
                    return [("Comment", "".join(buf))]
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
                    self.p = i + 1
                    return [("Comment", "".join(buf))]
                else:
                    buf.append("--!")
                    state = 2

    # -- CDATA sections -------------------------------------------------
    def _cdata(self, p):
        s, n = self.s, self.n
        i = s.find("]]>", p)
        if i == -1:
            self._err("eof-in-cdata", n)
            self.p = n
            out = []
            if p < n:
                out.append(_text_tok(s[p:n]))
            out.append(EOF_TOK)
            return out
        self.p = i + 3
        self.state = DATA
        return [_text_tok(s[p:i])] if i > p else []

    # -- DOCTYPE (states 53-67) -----------------------------------------
    def _doctype(self, p):
        s, n = self.s, self.n
        i = p
        if i < n and s[i] not in WS_SET and s[i] != ">":
            self._err("missing-whitespace-before-doctype-name", i)
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n:
            self._err("eof-in-doctype", n)
            self.p = n
            return [("Doctype", None, None, None, True), EOF_TOK]
        if s[i] == ">":
            self._err("missing-doctype-name", i)
            self.p = i + 1
            return [("Doctype", None, None, None, True)]
        # DOCTYPE name
        parts = []
        while True:
            m = RE_DOCTYPE_NAME_END.search(s, i)
            if m is None:
                parts.append(s[i:n])
                self._err("eof-in-doctype", n)
                self.p = n
                return [
                    ("Doctype", ascii_lower("".join(parts)), None, None, True),
                    EOF_TOK,
                ]
            q = m.start()
            parts.append(s[i:q])
            if s[q] == "\x00":
                self._err("unexpected-null-character", q)
                parts.append(FFFD)
                i = q + 1
                continue
            i = q
            break
        name = ascii_lower("".join(parts))
        # after DOCTYPE name
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n:
            self._err("eof-in-doctype", n)
            self.p = n
            return [("Doctype", name, None, None, True), EOF_TOK]
        if s[i] == ">":
            self.p = i + 1
            return [("Doctype", name, None, None, False)]
        kw = ascii_lower(s[i : i + 6])
        if kw == "public":
            return self._doctype_id(name, i + 6, True)
        if kw == "system":
            return self._doctype_id(name, i + 6, False)
        self._err("invalid-character-sequence-after-doctype-name", i)
        return self._bogus_doctype(name, None, None, True, i)

    def _doctype_id(self, name, i, is_public):
        """After the PUBLIC/SYSTEM keyword."""
        s, n = self.s, self.n
        which = "public" if is_public else "system"
        if i < n and s[i] not in WS_SET:
            if s[i] in "\"'":
                self._err(f"missing-whitespace-after-doctype-{which}-keyword", i)
            # other cases fall through to the checks below
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n:
            self._err("eof-in-doctype", n)
            self.p = n
            return [("Doctype", name, None, None, True), EOF_TOK]
        c = s[i]
        if c == ">":
            self._err(f"missing-doctype-{which}-identifier", i)
            self.p = i + 1
            return [("Doctype", name, None, None, True)]
        if c not in "\"'":
            self._err(f"missing-quote-before-doctype-{which}-identifier", i)
            return self._bogus_doctype(name, None, None, True, i)
        ident, i, closed, eof = self._quoted_id(i)
        if eof:
            self.p = n
            pub = ident if is_public else None
            sysid = None if is_public else ident
            return [("Doctype", name, pub, sysid, True), EOF_TOK]
        if not closed:  # '>' hit inside the identifier
            self._err(f"abrupt-doctype-{which}-identifier", i)
            self.p = i + 1
            pub = ident if is_public else None
            sysid = None if is_public else ident
            return [("Doctype", name, pub, sysid, True)]
        if not is_public:
            return self._after_system(name, None, ident, i)
        # after public identifier
        public = ident
        had_ws = i < n and s[i] in WS_SET
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n:
            self._err("eof-in-doctype", n)
            self.p = n
            return [("Doctype", name, public, None, True), EOF_TOK]
        c = s[i]
        if c == ">":
            self.p = i + 1
            return [("Doctype", name, public, None, False)]
        if c in "\"'":
            if not had_ws:
                self._err(
                    "missing-whitespace-between-doctype-public-and-system-identifiers",
                    i,
                )
            system, i, closed, eof = self._quoted_id(i)
            if eof:
                self.p = n
                return [("Doctype", name, public, system, True), EOF_TOK]
            if not closed:
                self._err("abrupt-doctype-system-identifier", i)
                self.p = i + 1
                return [("Doctype", name, public, system, True)]
            return self._after_system(name, public, system, i)
        self._err("missing-quote-before-doctype-system-identifier", i)
        return self._bogus_doctype(name, public, None, True, i)

    def _after_system(self, name, public, system, i):
        s, n = self.s, self.n
        while i < n and s[i] in WS_SET:
            i += 1
        if i >= n:
            self._err("eof-in-doctype", n)
            self.p = n
            return [("Doctype", name, public, system, True), EOF_TOK]
        if s[i] == ">":
            self.p = i + 1
            return [("Doctype", name, public, system, False)]
        self._err("unexpected-character-after-doctype-system-identifier", i)
        # bogus doctype WITHOUT force-quirks (spec)
        return self._bogus_doctype(name, public, system, False, i)

    def _quoted_id(self, i):
        """Parse a quoted identifier at s[i] in {'\"', \"'\"}.

        Returns (ident, next_pos, closed_by_quote, eof).  next_pos is after
        the closing quote, or at the '>' when closed_by_quote is False.
        """
        s, n = self.s, self.n
        quote = s[i]
        i += 1
        parts = []
        while i < n:
            c = s[i]
            if c == quote:
                return "".join(parts), i + 1, True, False
            if c == ">":
                return "".join(parts), i, False, False
            if c == "\x00":
                self._err("unexpected-null-character", i)
                parts.append(FFFD)
            else:
                parts.append(c)
            i += 1
        self._err("eof-in-doctype", n)
        return "".join(parts), n, False, True

    def _bogus_doctype(self, name, public, system, force_quirks, i):
        s, n = self.s, self.n
        j = s.find(">", i)
        if j == -1:
            self.p = n
            return [("Doctype", name, public, system, force_quirks), EOF_TOK]
        self.p = j + 1
        return [("Doctype", name, public, system, force_quirks)]

    # -- '<' in RCDATA / RAWTEXT ---------------------------------------
    def _text_lt(self):
        """RCDATA/RAWTEXT less-than-sign handling (appropriate end tag)."""
        s, n = self.s, self.n
        p = self.p
        if p + 1 < n and s[p + 1] == "/":
            return self._try_appropriate_end_tag(p)
        self.p = p + 1
        return [("Character", "<")]

    def _try_appropriate_end_tag(self, p):
        """At '<' of '</'; emit an EndTag if it names the last start tag,
        else the literal text.  Shared by RCDATA/RAWTEXT/script-data."""
        s, n = self.s, self.n
        m = RE_ALPHA_RUN.match(s, p + 2)
        if m is not None:
            name = ascii_lower(m.group())
            q = m.end()
            nxt = s[q] if q < n else ""
            if name == self.last_start_tag and (nxt in WS_SET or nxt in "/>"):
                attrs, self_closing, endp, eof = self._scan_attrs(q)
                if eof:
                    # EOF in the attribute section of an appropriate end
                    # tag: the spec's before-attribute-name state emits
                    # eof-in-tag (done by _scan_attrs) and EOF only — the
                    # consumed '</name ...' characters are dropped.
                    self.p = n
                    return [EOF_TOK]
                self.p = endp
                if attrs:
                    self._err("end-tag-with-attributes", q)
                if self_closing:
                    self._err("end-tag-with-trailing-solidus", endp - 1)
                # _scan_attrs set state to DATA on '>'
                return [("EndTag", name)]
        # not an appropriate end tag: '</' is text
        self.p = p + 2
        return [("Character", "</")]

    # -- script data: '<' and the escaped family ------------------------
    def _script_lt(self):
        s, n = self.s, self.n
        p = self.p
        c = s[p + 1] if p + 1 < n else ""
        if c == "/":
            return self._try_appropriate_end_tag(p)
        if c == "!":
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
        self.p = p + 1
        return [("Character", "<")]

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
                out.append(EOF_TOK)
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
            if c == "\x00":
                self._err("unexpected-null-character", i)
                text.append(FFFD)
                i += 1
                continue
            if c != "<":
                m = RE_SCRIPT_ESCAPED.search(s, i + 1)
                q = m.start() if m else n
                text.append(s[i:q])
                i = q
                continue
            # '<'
            if not double:
                nxt = s[i + 1] if i + 1 < n else ""
                if nxt == "/":
                    # escaped end tag open
                    m = RE_ALPHA_RUN.match(s, i + 2)
                    if m is not None:
                        name = ascii_lower(m.group())
                        q = m.end()
                        after = s[q] if q < n else ""
                        if name == self.last_start_tag and (
                            after in WS_SET or after in "/>"
                        ):
                            flush()
                            self.p = i
                            out.extend(self._try_appropriate_end_tag(i))
                            return out
                    text.append("</")
                    i += 2
                    continue
                if nxt in _ALPHA:
                    # double escape start
                    m = RE_ALPHA_RUN.match(s, i + 1)
                    q = m.end()
                    word = ascii_lower(m.group())
                    after = s[q] if q < n else ""
                    text.append(s[i:q])
                    i = q
                    if after in WS_SET or after in "/>":
                        text.append(after)
                        i += 1
                        if word == "script":
                            double = True
                    continue
                text.append("<")
                i += 1
                continue
            else:
                nxt = s[i + 1] if i + 1 < n else ""
                if nxt == "/":
                    # double escape end
                    m = RE_ALPHA_RUN.match(s, i + 2)
                    text.append("</")
                    i += 2
                    if m is not None:
                        q = m.end()
                        word = ascii_lower(m.group())
                        after = s[q] if q < n else ""
                        text.append(s[i:q])
                        i = q
                        if after in WS_SET or after in "/>":
                            text.append(after)
                            i += 1
                            if word == "script":
                                double = False
                    continue
                text.append("<")
                i += 1
                continue


def tokenize(
    text: str,
    state: int = DATA,
    last_start_tag: str | None = None,
    **kw,
):
    """Convenience: full token list for ``text`` (tests / debugging)."""
    t = Tokenizer(text, state=state, last_start_tag=last_start_tag, **kw)
    return list(t.tokens()), t.errors
