"""Print the repository's current tallies, the counts its docs cite.

    python tools/tallies.py

- pytest cases collected (``pytest --collect-only`` over ``tests/``)
- corpus cases per kind: the collected cases of each corpus-driven test
- registered queries (``__ray_entry__.queries()``)
- oracle twins (``__ray_entry__.oracle_sql()``; each twins a registered
  query)
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_TESTS = {
    "tree-construction": "tests/test_treebuilder.py::test_tree_case[",
    "tokenizer": "tests/test_tokenizer.py::test_tokenizer_case[",
    "serializer": "tests/test_serializer.py::test_serializer_case[",
    "encoding": "tests/test_charset.py::test_encoding_detection[",
}


def main():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/"],
        cwd=ROOT, capture_output=True, text=True,
    )
    ids = [line for line in proc.stdout.splitlines() if "::" in line]
    m = re.search(r"(\d+) tests? collected", proc.stdout)
    if proc.returncode or m is None or int(m.group(1)) != len(ids):
        raise SystemExit(f"pytest collection failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    print(f"pytest cases collected: {len(ids)}")
    for kind, prefix in CORPUS_TESTS.items():
        n = sum(case.startswith(prefix) for case in ids)
        if not n:
            raise SystemExit(f"no collected case starts with {prefix!r}")
        print(f"corpus cases, {kind}: {n}")

    sys.path.insert(0, ROOT)
    import __ray_entry__ as E

    queries, oracles = E.queries(), E.oracle_sql()
    if set(oracles) - set(queries):
        raise SystemExit(f"oracles without a query: {sorted(set(oracles) - set(queries))}")
    print(f"registered queries: {len(queries)}")
    print(f"oracle twins: {len(oracles)}")


if __name__ == "__main__":
    main()
