"""Pin the bigdoc_parse span digests the benchmark checks against.

    python3 perfbench/pin_bigdoc.py 128    # seeds 0..127, from the repository root

Writes perfbench/fixtures/bigdoc_digests.json: for each seed, the digest
of the spans extract_spans gives for that seed's page passed as bytes.
Run it only when the extraction semantics change on purpose; a seed with
no pinned digest is checked against the str path instead.
"""

import json
import os
import sys

sys.path.insert(0, os.getcwd())

from perfbench import inputs  # noqa: E402
from perfbench.workloads import HERE, BigdocParse, fingerprint  # noqa: E402


def main():
    n = int(sys.argv[1])
    size = BigdocParse.PAGE_BYTES
    digests = {}
    for seed in range(n):
        page = inputs.big_page(seed, size)
        digests[str(seed)] = fingerprint(BigdocParse._spans(page))
        print(seed, digests[str(seed)], flush=True)
    with open(os.path.join(HERE, "fixtures", "bigdoc_digests.json"), "w") as f:
        json.dump({"page_bytes": size, "digests": digests}, f, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
