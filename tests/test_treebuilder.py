"""Tree-construction conformance: html5lib-format .dat corpus (vendored
mensbeam cases + engine-authored cases), driven like the reference's
tests/cases/TestTreeConstructor.php:65-136."""

import glob
import os

import pytest

from html_extract.dom import EMPTY_MAP
from html_extract.parser import Config, parse, parse_fragment
from tests.corpus_util import CORPUS, load_tree_tests
from tests.treefmt import serialize_test_format


def _collect():
    cases = []
    for path in sorted(glob.glob(str(CORPUS / "tree-construction" / "*.dat"))):
        fname = os.path.basename(path)
        pi = fname.startswith("pi")
        vendored = fname.startswith(("mensbeam", "pi"))
        for i, case in enumerate(load_tree_tests(path)):
            case["vendored"] = vendored
            label = case["data"][:35].replace("\n", "\\n")
            cases.append(pytest.param(case, pi, id=f"{fname}:{i}:{label}"))
    return cases


@pytest.mark.parametrize("case,pi", _collect())
def test_tree_case(case, pi):
    config = Config(
        processing_instructions=pi,
        error_collection=True,
        scripting=case["script"] == "on",
    )
    if case["fragment"]:
        frag = parse_fragment(case["fragment"], case["data"], config=config)
        got = serialize_test_format(frag)
    else:
        out = parse(case["data"], config=config)
        got = serialize_test_format(out.document)
        if case["vendored"]:
            # error COUNTS are authoritative in the vendored corpus
            # (TestTreeConstructor.php:134-135 checks counts, not codes)
            assert len(out.errors) == case["n_errors"], (
                f"error count {len(out.errors)} != {case['n_errors']} "
                f"for {case['data']!r}: {out.errors}"
            )
        if case.get("quirks") is not None:
            # engine extension: pin the detected quirks mode (C10)
            assert out.quirks_mode == case["quirks"], (
                f"quirks {out.quirks_mode} != {case['quirks']} for {case['data']!r}"
            )
        if case["error_codes"] is not None:
            # engine-authored cases may pin exact error CODES in order
            got_codes = [e[0] for e in out.errors]
            assert got_codes == case["error_codes"], (
                f"error codes {got_codes!r} != {case['error_codes']!r} "
                f"for {case['data']!r}"
            )
    assert got == case["expected"], (
        f"input: {case['data']!r}\n--- got ---\n{got}\n--- want ---\n{case['expected']}"
    )
    # no writer reached the shared, read-only empty attrs/attr_ns
    assert EMPTY_MAP == {}
