"""Lightweight DOM for tree construction.

The reference mutates a PHP \\DOMDocument in place
(lib/Parser/TreeConstructor.php:18-19); at Ray scale the DOM is a
transient per-row structure that never crosses a stage boundary
(SURVEY.md §1.2), so this is a minimal slotted-node tree: exactly what
tree construction, serialization and span extraction need, nothing else.
Because names live in plain Python strings, the reference's XML
name-coercion workarounds (lib/Parser/NameCoercion.php) are unnecessary
and intentionally absent (SURVEY.md §2.2 C15).

Allocation-lean: a node allocates only the structure its input has.
``EMPTY_MAP`` is one shared, read-only empty mapping: it is every
attribute-less start tag's ``attrs`` (from the tokenizer on) and every
element's ``attr_ns`` until a namespaced foreign attribute arrives.
Writers copy on write through ``Element.set_attr``; a direct write to the
shared empty raises ``TypeError``.  Leaf nodes (``Text``, ``Comment``,
``Doctype``, ``ProcessingInstruction``) hold the shared ``()`` as
``children``: walks iterate it like an empty list, and an append to a
leaf raises.  ``Element.skey`` is one shared ``(namespace, name)`` tuple
per name in the fixed ``tables.ELEMENT_NAMES``; other names build their
own, so no table here grows with the input.
"""

from .tables import ELEMENT_NAMES, HTML_NS


class _EmptyMap(dict):
    """A dict that stays empty: plain-dict speed for ``.get``, ``in``,
    iteration and ``dict(m)``, and every mutator raises."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("EMPTY_MAP is shared and read-only: copy on write")

    __setitem__ = __delitem__ = __ior__ = _read_only
    setdefault = update = pop = popitem = clear = _read_only


EMPTY_MAP = _EmptyMap()

# (namespace, name) -> itself, for every known element name
_SKEYS = {(ns, n): (ns, n) for ns, names in ELEMENT_NAMES.items() for n in names}


def copy_map(m):
    """An attrs/attr_ns copy a new element may own: the shared empty
    stays shared, anything else becomes a fresh dict."""
    return dict(m) if m else EMPTY_MAP


class Node:
    __slots__ = ("parent", "children")

    def __init__(self):
        self.parent = None
        self.children = []

    def append(self, node):
        add = self.children.append  # a leaf's () raises before node moves
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = self
        add(node)

    def insert_before(self, node, ref):
        kids = self.children
        add = kids.append if ref is None else kids.insert  # as in append
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = self
        if ref is None:
            add(node)
        else:
            add(kids.index(ref), node)

    def remove(self, node):
        self.children.remove(node)
        node.parent = None


class Document(Node):
    __slots__ = ("quirks_mode", "has_base")

    def __init__(self):
        super().__init__()
        self.quirks_mode = 0  # NO_QUIRKS
        # maintained by the HTML tree builder (False at parse start,
        # True when an HTML <base> is inserted): lets the extractor
        # skip its whole-document base-href walk for the common
        # no-base case.  Defaults True (= "unknown, do the walk") so
        # documents assembled by other builders stay correct.
        self.has_base = True


class DocumentFragment(Node):
    __slots__ = ()


class Doctype(Node):
    __slots__ = ("name", "public", "system")

    def __init__(self, name, public, system):
        self.parent = None
        self.children = ()
        self.name = name or ""
        self.public = public
        self.system = system


class Element(Node):
    __slots__ = (
        "name",
        "namespace",
        "attrs",
        "attr_ns",
        "template_content",
        "skey",
        "on_stack",
    )

    def __init__(self, name, namespace=HTML_NS, attrs=None):
        # Node.__init__ inlined (hot path: one Element per start tag)
        self.parent = None
        self.children = []
        self.name = name
        self.namespace = namespace
        key = (namespace, name)
        self.skey = _SKEYS.get(key, key)  # precomputed scope-lookup key
        # True while on the open-elements stack (maintained by
        # treebuilder.ElementStack) — O(1) membership instead of an
        # O(depth) list scan per AFE reconstruct/adoption check
        self.on_stack = False
        # attrs: qualified display name -> value (insertion-ordered)
        self.attrs = EMPTY_MAP if attrs is None else attrs
        # attr_ns: qualified name -> (ns_uri, prefix, localname) for
        # namespace-adjusted foreign attributes only
        self.attr_ns = EMPTY_MAP
        # HTML <template> parses children into a separate fragment
        if name == "template" and namespace == HTML_NS:
            self.template_content = DocumentFragment()
        else:
            self.template_content = None

    def set_attr(self, qname, value, nsinfo=None):
        """Set one attribute (and its namespace info), copying the shared
        ``EMPTY_MAP`` on the first write."""
        attrs = self.attrs
        if attrs is EMPTY_MAP:
            attrs = self.attrs = {}
        attrs[qname] = value
        if nsinfo is not None:
            attr_ns = self.attr_ns
            if attr_ns is EMPTY_MAP:
                attr_ns = self.attr_ns = {}
            attr_ns[qname] = nsinfo

    def clone(self):
        """A childless copy with its own attributes (adoption agency)."""
        el = Element(self.name, self.namespace, copy_map(self.attrs))
        el.attr_ns = copy_map(self.attr_ns)
        return el


class Text(Node):
    __slots__ = ("data",)

    def __init__(self, data):
        # Node.__init__ inlined (hot path: one Text per coalesced run)
        self.parent = None
        self.children = ()  # a leaf: no list to allocate
        self.data = data


class Comment(Node):
    __slots__ = ("data",)

    def __init__(self, data):
        self.parent = None
        self.children = ()
        self.data = data


class ProcessingInstruction(Node):
    __slots__ = ("target", "data")

    def __init__(self, target, data):
        self.parent = None
        self.children = ()
        self.target = target
        self.data = data


def release_tree(node) -> int:
    """Count the nodes of the tree rooted at ``node`` (itself and template
    contents included) and unlink every ``children``/``parent``/
    ``template_content`` link on the way, so each node is freed by
    reference counting as soon as the walk drops it and no cyclic
    garbage is left.  Iterative: trees nest tens of thousands deep.
    The tree is empty afterwards; a node still referenced elsewhere
    survives as a bare node."""
    n = 0
    stack = [node]
    pop = stack.pop
    push = stack.extend
    while stack:
        cur = pop()
        n += 1
        cur.parent = None
        kids = cur.children
        if kids:
            push(kids)
            kids.clear()
        if cur.__class__ is Element and cur.template_content is not None:
            stack.append(cur.template_content)
            cur.template_content = None
    return n
