"""Frozen constant tables from the WHATWG HTML standard.

All data here is public spec data (element categories, namespace URIs,
case-fix maps for SVG/MathML, legacy quirks-mode DOCTYPE identifiers).
Reference parity: mensbeam/HTML-Parser keeps the same tables as PHP
class constants (lib/Parser/TreeConstructor.php:106-233, 1402-1489;
lib/Parser/OpenElementsStack.php:12-86; lib/Parser/Serializer.php:20-53).
Loaded once per worker process (module import) — the Ray actor-pool
equivalent of compile-once state.
"""

HTML_NS = "http://www.w3.org/1999/xhtml"
SVG_NS = "http://www.w3.org/2000/svg"
MATHML_NS = "http://www.w3.org/1998/Math/MathML"
XLINK_NS = "http://www.w3.org/1999/xlink"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XMLNS_NS = "http://www.w3.org/2000/xmlns/"

# Quirks modes (values mirror the reference's Parser::NO_QUIRKS_MODE et al.)
NO_QUIRKS = 0
QUIRKS = 1
LIMITED_QUIRKS = 2

WHITESPACE = "\t\n\x0c\r "
ASCII_ALPHA = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# 13.2.6 "special" category (spec §13.2.4.2 has the prose list).
SPECIAL_ELEMENTS = {
    HTML_NS: frozenset(
        """address applet area article aside base basefont bgsound blockquote body
        br button caption center col colgroup dd details dir div dl dt embed
        fieldset figcaption figure footer form frame frameset h1 h2 h3 h4 h5 h6
        head header hgroup hr html iframe img input keygen li link listing main
        marquee menu meta nav noembed noframes noscript object ol p param
        plaintext pre script section select source style summary table tbody td
        template textarea tfoot th thead title tr track ul wbr xmp""".split()
    ),
    MATHML_NS: frozenset(["mi", "mo", "mn", "ms", "mtext", "annotation-xml"]),
    SVG_NS: frozenset(["foreignObject", "desc", "title"]),
}

FORMATTING_ELEMENTS = frozenset(
    "a b big code em font i nobr s small strike strong tt u".split()
)

# Scope definitions (spec "has an element in ... scope").
DEFAULT_SCOPE = {
    (HTML_NS, n)
    for n in "applet caption html table td th marquee object template".split()
} | {
    (MATHML_NS, n) for n in "mi mo mn ms mtext annotation-xml".split()
} | {
    (SVG_NS, n) for n in "foreignObject desc title".split()
}
LIST_ITEM_SCOPE = DEFAULT_SCOPE | {(HTML_NS, "ol"), (HTML_NS, "ul")}
BUTTON_SCOPE = DEFAULT_SCOPE | {(HTML_NS, "button")}
TABLE_SCOPE = {(HTML_NS, n) for n in ("html", "table", "template")}
SELECT_SCOPE_NEGATED = {(HTML_NS, "optgroup"), (HTML_NS, "option")}

# generate implied end tags / thorough variant
IMPLIED_END_TAGS = frozenset(
    "dd dt li optgroup option p rb rp rt rtc".split()
)
IMPLIED_END_TAGS_THOROUGH = IMPLIED_END_TAGS | frozenset(
    "caption colgroup tbody td tfoot th thead tr".split()
)

VOID_ELEMENTS = frozenset(
    """area base basefont bgsound br col embed frame hr img input keygen link
    meta param source track wbr""".split()
)
# Serialized without escaping (spec serialization algorithm step for text nodes)
RAWTEXT_SERIALIZE = frozenset(
    "style script xmp iframe noembed noframes plaintext noscript".split()
)

# Elements whose start tag switches the tokenizer into RCDATA / RAWTEXT.
RCDATA_ELEMENTS = frozenset(["title", "textarea"])
RAWTEXT_ELEMENTS = frozenset(
    ["style", "xmp", "iframe", "noembed", "noframes", "noscript"]
)

# SVG tag-name case fixups (spec §13.2.6.5 table).
SVG_TAG_NAME_MAP = {
    t.lower(): t
    for t in (
        "altGlyph altGlyphDef altGlyphItem animateColor animateMotion "
        "animateTransform clipPath feBlend feColorMatrix feComponentTransfer "
        "feComposite feConvolveMatrix feDiffuseLighting feDisplacementMap "
        "feDistantLight feFlood feFuncA feFuncB feFuncG feFuncR feGaussianBlur "
        "feImage feMerge feMergeNode feMorphology feOffset fePointLight "
        "feSpecularLighting feSpotLight feTile feTurbulence foreignObject "
        "glyphRef linearGradient radialGradient textPath"
    ).split()
}

# SVG attribute case fixups (spec §13.2.6.5 table).
SVG_ATTR_NAME_MAP = {
    a.lower(): a
    for a in (
        "attributeName attributeType baseFrequency baseProfile calcMode "
        "clipPathUnits diffuseConstant edgeMode filterUnits glyphRef "
        "gradientTransform gradientUnits kernelMatrix kernelUnitLength "
        "keyPoints keySplines keyTimes lengthAdjust limitingConeAngle "
        "markerHeight markerUnits markerWidth maskContentUnits maskUnits "
        "numOctaves pathLength patternContentUnits patternTransform "
        "patternUnits pointsAtX pointsAtY pointsAtZ preserveAlpha "
        "preserveAspectRatio primitiveUnits refX refY repeatCount repeatDur "
        "requiredExtensions requiredFeatures specularConstant "
        "specularExponent spreadMethod startOffset stdDeviation stitchTiles "
        "surfaceScale systemLanguage tableValues targetX targetY textLength "
        "viewBox viewTarget xChannelSelector yChannelSelector zoomAndPan"
    ).split()
}

MATHML_ATTR_NAME_MAP = {"definitionurl": "definitionURL"}

# Foreign attribute namespace adjustments (spec §13.2.6.5; the reference adds
# xml:id as a documented deviation — kept for parity, TreeConstructor.php:214).
FOREIGN_ATTRIBUTE_NS_MAP = {
    "xlink:actuate": (XLINK_NS, "xlink", "actuate"),
    "xlink:arcrole": (XLINK_NS, "xlink", "arcrole"),
    "xlink:href": (XLINK_NS, "xlink", "href"),
    "xlink:role": (XLINK_NS, "xlink", "role"),
    "xlink:show": (XLINK_NS, "xlink", "show"),
    "xlink:title": (XLINK_NS, "xlink", "title"),
    "xml:id": (XML_NS, "xml", "id"),
    "xml:lang": (XML_NS, "xml", "lang"),
    "xml:space": (XML_NS, "xml", "space"),
    "xmlns": (XMLNS_NS, None, "xmlns"),
    "xmlns:xlink": (XMLNS_NS, "xmlns", "xlink"),
}

# Foreign-content breakout start tags (spec "in foreign content" step).
BREAKOUT_TAGS = frozenset(
    """b big blockquote body br center code dd div dl dt em embed h1 h2 h3 h4
    h5 h6 head hr i img li listing menu meta nobr ol p pre ruby s small span
    strong strike sub sup table tt u ul var""".split()
)

# Element names dom.Element shares one (namespace, name) scope key for:
# the name sets above, plus the foreign roots and ``circle`` (the one
# foreign child the benchmark pages carry, from htmlgen).  Fixed at
# import; any other name builds its own key, so nothing grows with input.
ELEMENT_NAMES = {
    HTML_NS: SPECIAL_ELEMENTS[HTML_NS]
    | FORMATTING_ELEMENTS
    | BREAKOUT_TAGS
    | IMPLIED_END_TAGS_THOROUGH,
    SVG_NS: SPECIAL_ELEMENTS[SVG_NS]
    | frozenset(SVG_TAG_NAME_MAP.values())
    | frozenset(["svg", "circle"]),
    MATHML_NS: SPECIAL_ELEMENTS[MATHML_NS] | frozenset(["math"]),
}

# MathML text integration points; HTML integration points computed dynamically
# (annotation-xml with encoding attr) — see treebuilder.
MATHML_TEXT_INTEGRATION = frozenset(["mi", "mo", "mn", "ms", "mtext"])
SVG_HTML_INTEGRATION = frozenset(["foreignObject", "desc", "title"])

# Quirks-mode DOCTYPE identifier tables (spec §13.2.6.4.1 list).
QUIRKS_PUBLIC_EXACT = frozenset(
    [
        "-//w3o//dtd w3 html strict 3.0//en//",
        "-/w3c/dtd html 4.0 transitional/en",
        "html",
    ]
)
QUIRKS_SYSTEM_EXACT = frozenset(
    ["http://www.ibm.com/data/dtd/v11/ibmxhtml1-transitional.dtd"]
)
QUIRKS_PUBLIC_PREFIXES = (
    "+//silmaril//dtd html pro v0r11 19970101//",
    "-//as//dtd html 3.0 aswedit + extensions//",
    "-//advasoft ltd//dtd html 3.0 aswedit + extensions//",
    "-//ietf//dtd html 2.0 level 1//",
    "-//ietf//dtd html 2.0 level 2//",
    "-//ietf//dtd html 2.0 strict level 1//",
    "-//ietf//dtd html 2.0 strict level 2//",
    "-//ietf//dtd html 2.0 strict//",
    "-//ietf//dtd html 2.0//",
    "-//ietf//dtd html 2.1e//",
    "-//ietf//dtd html 3.0//",
    "-//ietf//dtd html 3.2 final//",
    "-//ietf//dtd html 3.2//",
    "-//ietf//dtd html 3//",
    "-//ietf//dtd html level 0//",
    "-//ietf//dtd html level 1//",
    "-//ietf//dtd html level 2//",
    "-//ietf//dtd html level 3//",
    "-//ietf//dtd html strict level 0//",
    "-//ietf//dtd html strict level 1//",
    "-//ietf//dtd html strict level 2//",
    "-//ietf//dtd html strict level 3//",
    "-//ietf//dtd html strict//",
    "-//ietf//dtd html//",
    "-//metrius//dtd metrius presentational//",
    "-//microsoft//dtd internet explorer 2.0 html strict//",
    "-//microsoft//dtd internet explorer 2.0 html//",
    "-//microsoft//dtd internet explorer 2.0 tables//",
    "-//microsoft//dtd internet explorer 3.0 html strict//",
    "-//microsoft//dtd internet explorer 3.0 html//",
    "-//microsoft//dtd internet explorer 3.0 tables//",
    "-//netscape comm. corp.//dtd html//",
    "-//netscape comm. corp.//dtd strict html//",
    "-//o'reilly and associates//dtd html 2.0//",
    "-//o'reilly and associates//dtd html extended 1.0//",
    "-//o'reilly and associates//dtd html extended relaxed 1.0//",
    "-//sq//dtd html 2.0 hotmetal + extensions//",
    "-//softquad software//dtd hotmetal pro 6.0::19990601::extensions to html 4.0//",
    "-//softquad//dtd hotmetal pro 4.0::19971010::extensions to html 4.0//",
    "-//spyglass//dtd html 2.0 extended//",
    "-//sun microsystems corp.//dtd hotjava html//",
    "-//sun microsystems corp.//dtd hotjava strict html//",
    "-//w3c//dtd html 3 1995-03-24//",
    "-//w3c//dtd html 3.2 draft//",
    "-//w3c//dtd html 3.2 final//",
    "-//w3c//dtd html 3.2//",
    "-//w3c//dtd html 3.2s draft//",
    "-//w3c//dtd html 4.0 frameset//",
    "-//w3c//dtd html 4.0 transitional//",
    "-//w3c//dtd html experimental 19960712//",
    "-//w3c//dtd html experimental 970421//",
    "-//w3c//dtd w3 html//",
    "-//w3o//dtd w3 html 3.0//",
    "-//webtechs//dtd mozilla html 2.0//",
    "-//webtechs//dtd mozilla html//",
)
QUIRKS_PUBLIC_PREFIXES_IF_NO_SYSTEM = (
    "-//w3c//dtd html 4.01 frameset//",
    "-//w3c//dtd html 4.01 transitional//",
)
LIMITED_QUIRKS_PUBLIC_PREFIXES = (
    "-//w3c//dtd xhtml 1.0 frameset//",
    "-//w3c//dtd xhtml 1.0 transitional//",
)
LIMITED_QUIRKS_PUBLIC_PREFIXES_IF_SYSTEM = (
    "-//w3c//dtd html 4.01 frameset//",
    "-//w3c//dtd html 4.01 transitional//",
)

# C1-control numeric-character-reference remap (spec §13.2.5.80 table;
# equals windows-1252 bytes 0x80-0x9F decoded).
C1_REMAP = {
    0x80: 0x20AC, 0x82: 0x201A, 0x83: 0x0192, 0x84: 0x201E, 0x85: 0x2026,
    0x86: 0x2020, 0x87: 0x2021, 0x88: 0x02C6, 0x89: 0x2030, 0x8A: 0x0160,
    0x8B: 0x2039, 0x8C: 0x0152, 0x8E: 0x017D, 0x91: 0x2018, 0x92: 0x2019,
    0x93: 0x201C, 0x94: 0x201D, 0x95: 0x2022, 0x96: 0x2013, 0x97: 0x2014,
    0x98: 0x02DC, 0x99: 0x2122, 0x9A: 0x0161, 0x9B: 0x203A, 0x9C: 0x0153,
    0x9E: 0x017E, 0x9F: 0x0178,
}
