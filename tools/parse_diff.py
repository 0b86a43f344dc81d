"""Differential parse check of two checkouts over the same inputs.

    python tools/parse_diff.py A_CHECKOUT B_CHECKOUT

Each side runs in a fresh interpreter that imports ``html_extract`` from
its own checkout, and the two outputs must be identical.  The inputs,
built by this checkout:

- every tree-construction corpus input, parsed as its case says
  (document or fragment, scripting on or off);
- ``GENERATED`` seeded random markup strings, each parsed as a document
  and as a fragment under a context from ``CONTEXTS``;
- three 1 MiB ``perfbench.inputs.big_page`` pages, as bytes.

Compared per input: the serialized tree (the corpus's test format), the
quirks mode, the encoding, the error list (code, line and column, in
order), the tree's HTML serialization in each of the ``SERIALIZE``
option sets (plain and pretty-printed) and, for documents,
``extract_spans``' spans and meta (``parse_ns`` aside).

Token runs drive ``Tokenizer(data, state=..., last_start_tag=...)`` to
its end and compare the raw token tuples and the tokenizer's error list
(code and offset, in order).  They run every tokenizer-corpus input in
its own initial state and last start tag, and the generated strings and
the empty string in each of the six states, with a last start tag drawn
from ``LAST_START_TAGS``.

Prints the number of inputs and token runs compared and each one that
differs; the exit code is 1 when any differs.
"""

import glob
import os
import pickle
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATED = 400
SEED = 14
PAGE_BYTES = 1 << 20
LAST_START_TAGS = [None, "script", "title", "textarea", "style"]
SERIALIZE = [
    {},
    {"bool_attr": True, "foreign_void_end_tags": False},
    {"reformat_whitespace": True},
    {"reformat_whitespace": True, "indent_step": 2, "indent_with_spaces": False,
     "group_elements": False},
]
CONTEXTS = ["body", "td", "tr", "table", "template", "select", "html",
            "textarea", "pre", "svg path", "svg foreignObject", "math mi"]
PIECES = list("<>&;/!-=\"' abxAB\t\n\x0c\x00") + [
    "<!--", "-->", "<![CDATA[", "]]>", "</", "<!DOCTYPE html>", "&amp;",
    "&#10;", "&#x41;", "<?pi x?>", "<html>", "</html>", "<head>", "<body>",
    "</body>", "<p>", "</p>", "<b>", "</b>", "<i>", "</i>", "<a>", "</a>",
    "<nobr>", "<div>", "</div>", "<li>", "</li>", "<dd>", "<dt>", "</dd>",
    "<h1>", "<h2>", "</h1>", "<pre>", "</pre>", "<listing>", "<textarea>",
    "</textarea>", "<title>", "<script>", "</script>", "<style>", "<form>",
    "</form>", "<table>", "</table>", "<caption>", "</caption>", "<colgroup>",
    "<col>", "<tbody>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "<template>",
    "</template>", "<select>", "<option>", "<optgroup>", "<input>", "<image>",
    "<svg>", "</svg>", "<math>", "</math>", "<mi>", "<foreignObject>",
    "<desc>", "<annotation-xml encoding=\"text/html\">", "<font color=1>",
    "<frameset>", "<frame>", "</frameset>", "<noscript>", "<ruby>", "<rt>",
    "<applet>", "</applet>", "<marquee>", "<button>", "<hr>", "<br>", "</br>",
    "<!DOCTYPE", " PUBLIC", " SYSTEM", "\"x\"", "'y'", "--!", "<!-", "<?", "</title",
    "</style ", "</textarea/", "</script>", "<script", "=x", "<a b=c d='e'>",
]


def build_inputs():
    """[(kind, data, arg)]: kind "doc" (arg = (scripting, processing
    instructions)), "frag" (arg = context), "bytes" or "tokens" (arg =
    (state name, last start tag))."""
    sys.path.insert(0, ROOT)
    from html_extract.tokenizer import STATE_NAMES
    from perfbench.inputs import big_page
    from tests.corpus_util import CORPUS, load_tokenizer_tests, load_tree_tests

    out = []
    for path in sorted(glob.glob(str(CORPUS / "tree-construction" / "*.dat"))):
        pi = os.path.basename(path).startswith("pi")
        for case in load_tree_tests(path):
            if case["fragment"]:
                out.append(("frag", case["data"], case["fragment"]))
            else:
                out.append(("doc", case["data"], (case["script"] == "on", pi)))
    for path in sorted(glob.glob(str(CORPUS / "tokenizer" / "*.test"))):
        for _, state, last, data, *_ in load_tokenizer_tests(path):
            out.append(("tokens", data, (state, last)))
    rng = random.Random(SEED)
    generated = [""]
    for _ in range(GENERATED):
        data = "".join(rng.choice(PIECES) for _ in range(rng.randrange(80)))
        generated.append(data)
        out.append(("doc", data, (False, False)))
        out.append(("frag", data, rng.choice(CONTEXTS)))
    out.extend(("tokens", data, (state, rng.choice(LAST_START_TAGS)))
               for data in generated for state in STATE_NAMES)
    out.extend(("bytes", big_page(seed, PAGE_BYTES), (False, False)) for seed in (1, 7, 21))
    return out


def worker(checkout, inputs_path, out_path):
    sys.path.insert(0, os.path.abspath(checkout))
    import html_extract
    from html_extract.extract import extract_spans
    from html_extract.parser import Config, parse, parse_fragment
    from html_extract.serializer import serialize
    from html_extract.tokenizer import STATE_NAMES, Tokenizer
    from tests.treefmt import serialize_test_format

    with open(inputs_path, "rb") as f:
        inputs = pickle.load(f)
    results = []
    for kind, data, arg in inputs:
        if kind == "tokens":
            state, last = arg
            tok = Tokenizer(data, state=STATE_NAMES[state], last_start_tag=last)
            results.append((list(tok.tokens()), tok.errors))
            continue
        if kind == "frag":
            frag = parse_fragment(arg, data, config=Config(error_collection=True))
            results.append((serialize_test_format(frag),
                            [serialize(frag, **opts) for opts in SERIALIZE]))
            continue
        scripting, pi = arg
        out = parse(data, config=Config(error_collection=True, scripting=scripting,
                                        processing_instructions=pi))
        spans, meta = extract_spans(data)
        meta = {k: v for k, v in meta.items() if k != "parse_ns"}
        results.append((serialize_test_format(out.document), out.quirks_mode,
                        out.encoding, out.errors, spans, meta,
                        [serialize(out.document, **opts) for opts in SERIALIZE]))
    with open(out_path, "wb") as f:
        pickle.dump((html_extract.__file__, results), f)


def main(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = build_inputs()
        inputs_path = os.path.join(tmp, "inputs.pkl")
        with open(inputs_path, "wb") as f:
            pickle.dump(inputs, f)
        sides = []
        for i, checkout in enumerate((a, b)):
            out_path = os.path.join(tmp, f"out{i}.pkl")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                            checkout, inputs_path, out_path], check=True)
            with open(out_path, "rb") as f:
                module, results = pickle.load(f)
            want = os.path.join(os.path.abspath(checkout), "html_extract")
            if not module.startswith(want + os.sep):
                raise SystemExit(f"{checkout}: imported {module}, not its own html_extract")
            sides.append(results)
    bad = [i for i, (x, y) in enumerate(zip(*sides)) if x != y]
    for i in bad:
        kind, data, arg = inputs[i]
        print(f"DIFFERS: {kind} {arg!r} {data[:80]!r}")
    counts = {k: sum(1 for x in inputs if x[0] == k)
              for k in ("doc", "frag", "bytes", "tokens")}
    print(f"compared {len(inputs) - counts['tokens']} inputs ({counts['doc']} documents, "
          f"{counts['frag']} fragments, {counts['bytes']} big pages; each tree serialized "
          f"{len(SERIALIZE)} ways) and "
          f"{counts['tokens']} token runs: {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(*sys.argv[2:5])
    else:
        sys.exit(main(*sys.argv[1:3]))
