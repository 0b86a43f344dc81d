"""Lightweight DOM for tree construction.

The reference mutates a PHP \\DOMDocument in place
(lib/Parser/TreeConstructor.php:18-19); at Ray scale the DOM is a
transient per-row structure that never crosses a stage boundary
(SURVEY.md §1.2), so this is a minimal slotted-node tree: exactly what
tree construction, serialization and span extraction need, nothing else.
Because names live in plain Python strings, the reference's XML
name-coercion workarounds (lib/Parser/NameCoercion.php) are unnecessary
and intentionally absent (SURVEY.md §2.2 C15).
"""

from .tables import HTML_NS


class Node:
    __slots__ = ("parent", "children")

    def __init__(self):
        self.parent = None
        self.children = []

    def append(self, node):
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = self
        self.children.append(node)

    def insert_before(self, node, ref):
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = self
        if ref is None:
            self.children.append(node)
        else:
            self.children.insert(self.children.index(ref), node)

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
        super().__init__()
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
        self.skey = (namespace, name)  # precomputed scope-lookup key
        # True while on the open-elements stack (maintained by
        # treebuilder.ElementStack) — O(1) membership instead of an
        # O(depth) list scan per AFE reconstruct/adoption check
        self.on_stack = False
        # attrs: qualified display name -> value (insertion-ordered)
        self.attrs = attrs if attrs is not None else {}
        # attr_ns: qualified name -> (ns_uri, prefix, localname) for
        # namespace-adjusted foreign attributes only
        self.attr_ns = {}
        # HTML <template> parses children into a separate fragment
        if name == "template" and namespace == HTML_NS:
            self.template_content = DocumentFragment()
        else:
            self.template_content = None


class Text(Node):
    __slots__ = ("data",)

    def __init__(self, data):
        # Node.__init__ inlined (hot path: one Text per coalesced run)
        self.parent = None
        self.children = []
        self.data = data


class Comment(Node):
    __slots__ = ("data",)

    def __init__(self, data):
        self.parent = None
        self.children = []
        self.data = data


class ProcessingInstruction(Node):
    __slots__ = ("target", "data")

    def __init__(self, target, data):
        super().__init__()
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
