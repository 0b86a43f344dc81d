"""Encoding sniffing (WHATWG §13.2.3) — BOM, transport, <meta> prescan,
XML-declaration fallback, label registry.

Reference parity: mensbeam/HTML-Parser lib/Parser/Charset.php (BOM :15-25,
labels :31-37, transport :44-53, meta-content scan :56-125, prescan
:132-293, byte-level getAttribute :380-531, XML decl :295-377) and the
prescan budget default of 1024 bytes (lib/Parser/Data.php:54).

The label registry below is the WHATWG Encoding registry (public spec
data) mapped onto Python codecs.  Decoder coverage is the pragmatic
subset called out in SURVEY.md §7.3(5): UTF-8/16, the windows-125x and
ISO-8859 families, KOI8, CJK codecs — everything Python ships.  The
x-user-defined and replacement encodings are handled per the spec's
meta-processing remaps (x-user-defined -> windows-1252).
"""

import re

PRESCAN_DEFAULT = 1024

# canonical WHATWG name -> python codec
_CANON_CODEC = {
    "UTF-8": "utf-8",
    "IBM866": "cp866",
    "ISO-8859-2": "iso-8859-2",
    "ISO-8859-3": "iso-8859-3",
    "ISO-8859-4": "iso-8859-4",
    "ISO-8859-5": "iso-8859-5",
    "ISO-8859-6": "iso-8859-6",
    "ISO-8859-7": "iso-8859-7",
    "ISO-8859-8": "iso-8859-8",
    "ISO-8859-8-I": "iso-8859-8",
    "ISO-8859-10": "iso-8859-10",
    "ISO-8859-13": "iso-8859-13",
    "ISO-8859-14": "iso-8859-14",
    "ISO-8859-15": "iso-8859-15",
    "ISO-8859-16": "iso-8859-16",
    "KOI8-R": "koi8-r",
    "KOI8-U": "koi8-u",
    "macintosh": "mac-roman",
    "windows-874": "cp874",
    "windows-1250": "cp1250",
    "windows-1251": "cp1251",
    "windows-1252": "cp1252",
    "windows-1253": "cp1253",
    "windows-1254": "cp1254",
    "windows-1255": "cp1255",
    "windows-1256": "cp1256",
    "windows-1257": "cp1257",
    "windows-1258": "cp1258",
    "x-mac-cyrillic": "mac-cyrillic",
    "GBK": "gbk",
    "gb18030": "gb18030",
    "Big5": "big5",
    "EUC-JP": "euc-jp",
    # _ext: the WHATWG ISO-2022-JP decoder includes JIS X 0201 katakana
    # (ESC ( I), which Python's base iso2022_jp codec rejects
    "ISO-2022-JP": "iso2022_jp_ext",
    "Shift_JIS": "shift_jis",
    # WHATWG euc-kr is the UHC/cp949 superset, not strict euc_kr
    "EUC-KR": "cp949",
    "UTF-16BE": "utf-16-be",
    "UTF-16LE": "utf-16-le",
    "x-user-defined": "cp1252",  # decoded per meta remap below
    "replacement": None,
}

# WHATWG label -> canonical name (most-used subset of the registry)
_LABELS = {}
def _reg(canon, labels):
    for l in labels:
        _LABELS[l] = canon

_reg("UTF-8", ["unicode-1-1-utf-8", "unicode11utf8", "unicode20utf8",
               "utf-8", "utf8", "x-unicode20utf8"])
_reg("IBM866", ["866", "cp866", "csibm866", "ibm866"])
_reg("ISO-8859-2", ["csisolatin2", "iso-8859-2", "iso-ir-101", "iso8859-2",
                    "iso88592", "iso_8859-2", "iso_8859-2:1987", "l2", "latin2"])
_reg("ISO-8859-3", ["csisolatin3", "iso-8859-3", "iso-ir-109", "iso8859-3",
                    "iso88593", "iso_8859-3", "iso_8859-3:1988", "l3", "latin3"])
_reg("ISO-8859-4", ["csisolatin4", "iso-8859-4", "iso-ir-110", "iso8859-4",
                    "iso88594", "iso_8859-4", "iso_8859-4:1988", "l4", "latin4"])
_reg("ISO-8859-5", ["csisolatincyrillic", "cyrillic", "iso-8859-5",
                    "iso-ir-144", "iso8859-5", "iso88595", "iso_8859-5",
                    "iso_8859-5:1988"])
_reg("ISO-8859-6", ["arabic", "asmo-708", "csiso88596e", "csiso88596i",
                    "csisolatinarabic", "ecma-114", "iso-8859-6",
                    "iso-8859-6-e", "iso-8859-6-i", "iso-ir-127", "iso8859-6",
                    "iso88596", "iso_8859-6", "iso_8859-6:1987"])
_reg("ISO-8859-7", ["csisolatingreek", "ecma-118", "elot_928", "greek",
                    "greek8", "iso-8859-7", "iso-ir-126", "iso8859-7",
                    "iso88597", "iso_8859-7", "iso_8859-7:1987", "sun_eu_greek"])
_reg("ISO-8859-8", ["csiso88598e", "csisolatinhebrew", "hebrew", "iso-8859-8",
                    "iso-8859-8-e", "iso-ir-138", "iso8859-8", "iso88598",
                    "iso_8859-8", "iso_8859-8:1988", "visual"])
_reg("ISO-8859-8-I", ["csiso88598i", "iso-8859-8-i", "logical"])
_reg("ISO-8859-10", ["csisolatin6", "iso-8859-10", "iso-ir-157", "iso8859-10",
                     "iso885910", "l6", "latin6"])
_reg("ISO-8859-13", ["iso-8859-13", "iso8859-13", "iso885913"])
_reg("ISO-8859-14", ["iso-8859-14", "iso8859-14", "iso885914"])
_reg("ISO-8859-15", ["csisolatin9", "iso-8859-15", "iso8859-15", "iso885915",
                     "iso_8859-15", "l9"])
_reg("ISO-8859-16", ["iso-8859-16"])
_reg("KOI8-R", ["cskoi8r", "koi", "koi8", "koi8-r", "koi8_r"])
_reg("KOI8-U", ["koi8-ru", "koi8-u"])
_reg("macintosh", ["csmacintosh", "mac", "macintosh", "x-mac-roman"])
_reg("windows-874", ["dos-874", "iso-8859-11", "iso8859-11", "iso885911",
                     "tis-620", "windows-874"])
_reg("windows-1250", ["cp1250", "windows-1250", "x-cp1250"])
_reg("windows-1251", ["cp1251", "windows-1251", "x-cp1251"])
_reg("windows-1252", ["ansi_x3.4-1968", "ascii", "cp1252", "cp819", "csisolatin1",
                      "ibm819", "iso-8859-1", "iso-ir-100", "iso8859-1",
                      "iso88591", "iso_8859-1", "iso_8859-1:1987", "l1",
                      "latin1", "us-ascii", "windows-1252", "x-cp1252"])
_reg("windows-1253", ["cp1253", "windows-1253", "x-cp1253"])
_reg("windows-1254", ["cp1254", "csisolatin5", "iso-8859-9", "iso-ir-148",
                      "iso8859-9", "iso88599", "iso_8859-9", "iso_8859-9:1989",
                      "l5", "latin5", "windows-1254", "x-cp1254"])
_reg("windows-1255", ["cp1255", "windows-1255", "x-cp1255"])
_reg("windows-1256", ["cp1256", "windows-1256", "x-cp1256"])
_reg("windows-1257", ["cp1257", "windows-1257", "x-cp1257"])
_reg("windows-1258", ["cp1258", "windows-1258", "x-cp1258"])
_reg("x-mac-cyrillic", ["x-mac-cyrillic", "x-mac-ukrainian"])
_reg("GBK", ["chinese", "csgb2312", "csiso58gb231280", "gb2312", "gb_2312",
             "gb_2312-80", "gbk", "iso-ir-58", "x-gbk"])
_reg("gb18030", ["gb18030"])
_reg("Big5", ["big5", "big5-hkscs", "cn-big5", "csbig5", "x-x-big5"])
_reg("EUC-JP", ["cseucpkdfmtjapanese", "euc-jp", "x-euc-jp"])
_reg("ISO-2022-JP", ["csiso2022jp", "iso-2022-jp"])
_reg("Shift_JIS", ["csshiftjis", "ms932", "ms_kanji", "shift-jis", "shift_jis",
                   "sjis", "windows-31j", "x-sjis"])
_reg("EUC-KR", ["cseuckr", "csksc56011987", "euc-kr", "iso-ir-149", "korean",
                "ks_c_5601-1987", "ks_c_5601-1989", "ksc5601", "ksc_5601",
                "windows-949"])
_reg("replacement", ["csiso2022kr", "hz-gb-2312", "iso-2022-cn",
                     "iso-2022-cn-ext", "iso-2022-kr", "replacement"])
_reg("UTF-16BE", ["unicodefffe", "utf-16be"])
_reg("UTF-16LE", ["csunicode", "iso-10646-ucs-2", "ucs-2", "unicode",
                  "unicodefeff", "utf-16", "utf-16le"])
_reg("x-user-defined", ["x-user-defined"])

_WS = b"\t\n\x0c\r "


def lookup_label(label):
    """WHATWG label -> canonical encoding name, or None."""
    if label is None:
        return None
    return _LABELS.get(label.strip(" \t\n\x0c\r").lower())


def codec_for(canonical):
    return _CANON_CODEC.get(canonical)


def sniff_bom(data: bytes):
    """(canonical_name, bom_length) or None.  Charset.php:15-25."""
    if data.startswith(b"\xef\xbb\xbf"):
        return "UTF-8", 3
    if data.startswith(b"\xfe\xff"):
        return "UTF-16BE", 2
    if data.startswith(b"\xff\xfe"):
        return "UTF-16LE", 2
    return None


# WHATWG "parse a MIME type": HTTP whitespace, token code points, the
# code points a parameter value may hold, type/subtype, and one
# parameter (';', its name, then '=' and an HTTP quoted string or a
# bare value; what follows a quoted string up to the next ';' is dropped)
_HTTP_WS = "\t\n\r "
_TOKEN_RE = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_QUOTED_VALUE_RE = re.compile(r"[\t\x20-\x7e\x80-\xff]*")
_MIME_RE = re.compile(r"([^/]*)/([^;]*)(.*)", re.S)
_PARAM_RE = re.compile(
    r';[\t\n\r ]*([^;=]*)(?:=(?:"((?:\\.|[^"\\])*\\?)"?|([^;]*)))?[^;]*', re.S
)


def _mime_charset(value):
    """The ``charset`` parameter of a MIME type string: None when the
    string is no MIME type or has no valid ``charset`` parameter.  A
    ``;`` inside a quoted value belongs to the value, a parameter name
    is a token (no whitespace around ``=``), and the first valid
    ``charset`` wins."""
    m = _MIME_RE.fullmatch(value.strip(_HTTP_WS))
    if not (m and _TOKEN_RE.fullmatch(m[1]) and _TOKEN_RE.fullmatch(m[2].rstrip(_HTTP_WS))):
        return None
    for name, quoted, bare in (p.groups() for p in _PARAM_RE.finditer(m[3])):
        if quoted is not None:
            val = re.sub(r"\\(.)", r"\1", quoted, flags=re.S)
        else:
            val = (bare or "").rstrip(_HTTP_WS)
            if not val:
                continue
        if name.lower() == "charset" and _QUOTED_VALUE_RE.fullmatch(val):
            return val
    return None


def from_content_type(content_type):
    """charset= parameter of a Content-Type value.  Charset.php:44-53.

    The value is parsed as a WHATWG MIME type (``_mime_charset``): a
    bare or ``"``-quoted value, so ``charset='x'`` names the label
    ``'x'`` (none).  A string that is no MIME type may be a bare label
    (reference behavior)."""
    if not content_type:
        return None
    label = _mime_charset(content_type)
    return lookup_label(label if label is not None else content_type)


def charset_from_meta_content(value):
    """'charset=' scanner inside a <meta content> value (Charset.php:56-125).

    Works on str or bytes; returns the raw label string or None.
    """
    if isinstance(value, bytes):
        value = value.decode("latin-1")
    pos = 0
    lower = value.lower()
    while True:
        i = lower.find("charset", pos)
        if i == -1:
            return None
        j = i + 7
        while j < len(value) and value[j] in " \t\n\x0c\r":
            j += 1
        if j < len(value) and value[j] == "=":
            j += 1
            break
        pos = j
    while j < len(value) and value[j] in " \t\n\x0c\r":
        j += 1
    if j >= len(value):
        return None
    c = value[j]
    if c in "\"'":
        k = value.find(c, j + 1)
        if k == -1:
            return None
        return value[j + 1 : k]
    k = j
    while k < len(value) and value[k] not in " \t\n\x0c\r;":
        k += 1
    return value[j:k] or None


def _get_attribute(data: bytes, pos: int):
    """Byte-level attribute scanner (spec prescan; Charset.php:380-531).

    Returns (name, value, new_pos) or (None, None, new_pos) when no more
    attributes.
    """
    n = len(data)
    while pos < n and (data[pos] in _WS or data[pos : pos + 1] == b"/"):
        pos += 1
    if pos >= n or data[pos : pos + 1] == b">":
        return None, None, pos
    name = bytearray()
    value = bytearray()
    while pos < n:
        b = data[pos : pos + 1]
        if b == b"=" and name:
            pos += 1
            break
        if b in _WS:
            while pos < n and data[pos] in _WS:
                pos += 1
            if pos < n and data[pos : pos + 1] == b"=":
                pos += 1
                break
            return bytes(name).lower().decode("latin-1"), "", pos
        if b in (b"/", b">"):
            return bytes(name).lower().decode("latin-1"), "", pos
        name += b
        pos += 1
    if pos >= n:
        return bytes(name).lower().decode("latin-1"), "", pos
    while pos < n and data[pos] in _WS:
        pos += 1
    b = data[pos : pos + 1]
    if b in (b'"', b"'"):
        quote = b
        pos += 1
        while pos < n:
            b = data[pos : pos + 1]
            if b == quote:
                pos += 1
                break
            value += b
            pos += 1
    else:
        while pos < n:
            b = data[pos : pos + 1]
            if b in _WS or b == b">":
                break
            value += b
            pos += 1
    return (
        bytes(name).lower().decode("latin-1"),
        bytes(value).lower().decode("latin-1"),
        pos,
    )


def meta_encoding(attrs):
    """The encoding a <meta> element's attributes (name -> value)
    declare: its ``charset`` when that names a known encoding, else,
    with ``http-equiv=content-type``, the one named in its ``content``
    (the spec's "in head" <meta> rule); UTF-16 is read as UTF-8 and
    x-user-defined as windows-1252.  None when it declares none.  The
    byte prescan (spec §13.2.3.2) and the tree builder's mid-parse
    change (§13.2.3.4) both apply this one rule."""
    canonical = lookup_label(attrs.get("charset"))
    if canonical is None and attrs.get("http-equiv", "").lower() == "content-type":
        canonical = lookup_label(charset_from_meta_content(attrs.get("content", "")))
    if canonical in ("UTF-16BE", "UTF-16LE"):
        return "UTF-8"
    if canonical == "x-user-defined":
        return "windows-1252"
    return canonical


def prescan(data: bytes, limit: int = PRESCAN_DEFAULT):
    """The <meta charset> byte prescan (spec §13.2.3.2; Charset.php:132-293).

    Returns a canonical encoding name or None.
    """
    data = data[:limit]
    n = len(data)
    pos = 0
    while pos < n:
        if data.startswith(b"<!--", pos):
            end = data.find(b"-->", pos + 2)
            if end == -1:
                return None
            pos = end + 3
            continue
        if (
            data[pos : pos + 5].lower() == b"<meta"
            and pos + 5 < n
            and (data[pos + 5] in _WS or data[pos + 5 : pos + 6] == b"/")
        ):
            apos = pos + 6
            attrs = {}
            while True:
                aname, avalue, apos = _get_attribute(data, apos)
                if aname is None:
                    break
                attrs.setdefault(aname, avalue)  # the first of a name counts
            canonical = meta_encoding(attrs)
            if canonical is not None:
                return canonical
            pos = apos + 1
            continue
        if data[pos : pos + 1] == b"<" and (
            data[pos + 1 : pos + 2].isalpha()
            or (
                data[pos + 1 : pos + 2] == b"/"
                and data[pos + 2 : pos + 3].isalpha()
            )
        ):
            # skip a tag, consuming its attributes
            apos = pos + 2
            while apos < n and not (data[apos] in _WS or data[apos : apos + 1] == b">"):
                apos += 1
            while True:
                aname, _, apos = _get_attribute(data, apos)
                if aname is None:
                    break
            pos = apos + 1
            continue
        if data[pos : pos + 2] in (b"<!", b"</", b"<?"):
            end = data.find(b">", pos + 2)
            if end == -1:
                return None
            pos = end + 1
            continue
        pos += 1
    return None


_XML_DECL = re.compile(rb'^<\?xml[^>]*encoding\s*=\s*["\']([^"\']+)["\']')


def xml_declaration(data: bytes):
    """<?xml ... encoding="..."?> fallback (Charset.php:295-377)."""
    m = _XML_DECL.match(data[:PRESCAN_DEFAULT])
    if m:
        return lookup_label(m.group(1).decode("latin-1"))
    return None


def detect(data: bytes, transport_charset=None, default="windows-1252"):
    """Full sniff: returns (canonical_name, certain: bool, bom_length).

    Order per spec/reference (Data.php:59-95): BOM -> transport ->
    prescan -> XML declaration -> default.
    """
    bom = sniff_bom(data)
    if bom is not None:
        return bom[0], True, bom[1]
    canon = from_content_type(transport_charset)
    if canon is not None:
        return canon, True, 0
    canon = prescan(data)
    if canon is not None:
        return canon, False, 0
    canon = xml_declaration(data)
    if canon is not None:
        return canon, False, 0
    return default, False, 0


_XUD_TABLE = {b: 0xF780 + b - 0x80 for b in range(0x80, 0x100)}


def decode(data: bytes, canonical: str) -> str:
    if canonical == "x-user-defined":
        # WHATWG x-user-defined: 0x80-0xFF -> U+F780..U+F7FF (private
        # use); latin-1 maps bytes 1:1 so a C-level translate does the
        # remap (a per-byte Python loop costs ~1 s on a 10 MB page)
        return data.decode("latin-1").translate(_XUD_TABLE)
    codec = codec_for(canonical)
    if codec is None:  # the replacement encoding
        return "�"
    return data.decode(codec, errors="replace")
