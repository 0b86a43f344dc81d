"""Seeded input synthesis for the benchmark workloads.

Every table and page here is a pure function of the workload seed, so the
same seed gives byte-identical inputs and another seed gives other inputs
with the same size distribution.  The seed picks the doc_id namespace:
HTML synthesis in ``html_extract.htmlgen`` is keyed by doc_id, so moving
the namespace moves every synthesized page.  The shapes mirror the
test tables described in TESTDATA.md: a 31-word vocabulary, 44-577 character
texts, 20 sources, five languages, and a few exact and near duplicates.
"""

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
# non-ASCII words mixed into the big page only, so that decoding it is
# real UTF-8 work rather than an ASCII fast path
WIDE_VOCAB = "café naïve résumé Größe 東京 данные".split()
LANGS = ["en", "en", "en", "en", "zh", "zh", "es", "es", "fr", "fr", "de", "de"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
RETURN_FLAGS = ["A", "N", "R"]


def namespace(seed: int) -> int:
    """First doc_id of the seed's namespace (ids stay below 10**12, the
    width of the pipeline's ``doc-%012d`` ids)."""
    return (seed % 100_000) * 1_000_000


def _text(rng: random.Random, vocab=VOCAB) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(8, 96)))


def documents(seed: int, n: int) -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars).

    About 1 in 300 rows repeats an earlier text exactly and 1 in 100 is
    an earlier text with its last word changed (a near duplicate)."""
    rng = random.Random(f"documents-{seed}")
    base = namespace(seed)
    texts: list[str] = []
    for _ in range(n):
        r = rng.random()
        if texts and r < 1 / 300:
            texts.append(texts[rng.randrange(len(texts))])
        elif texts and r < 1 / 300 + 1 / 100:
            words = texts[rng.randrange(len(texts))].split()
            words[-1] = rng.choice(VOCAB)
            texts.append(" ".join(words))
        else:
            texts.append(_text(rng))
    return pa.table(
        {
            "doc_id": pa.array(range(base, base + n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([rng.choice(LANGS) for _ in range(n)], pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def write_documents(seed: int, n: int, sf_dir: str) -> pa.Table:
    docs = documents(seed, n)
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(docs, os.path.join(sf_dir, "documents.parquet"))
    return docs


def write_query_tables(seed: int, n_docs: int, n_orders: int, sf_dir: str) -> None:
    """The four tables the dedup/join queries read: documents,
    embeddings (vec_id joins doc_id for 40% of the documents), orders
    and lineitem (four lines per order on average)."""
    docs = write_documents(seed, n_docs, sf_dir)
    gen = np.random.default_rng(seed % (1 << 32))
    n_emb = n_docs * 2 // 5
    pq.write_table(
        pa.table(
            {
                "vec_id": docs["doc_id"].slice(0, n_emb),
                "label": pa.array(gen.integers(0, 10, n_emb), pa.int32()),
            }
        ),
        os.path.join(sf_dir, "embeddings.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
                "o_orderpriority": pa.array(
                    np.array(PRIORITIES)[gen.integers(0, 5, n_orders)], pa.string()
                ),
            }
        ),
        os.path.join(sf_dir, "orders.parquet"),
    )
    n_lines = 4 * n_orders
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(gen.integers(0, n_orders, n_lines), pa.int64()),
                "l_returnflag": pa.array(
                    np.array(RETURN_FLAGS)[gen.integers(0, 3, n_lines)], pa.string()
                ),
            }
        ),
        os.path.join(sf_dir, "lineitem.parquet"),
    )


def big_page(seed: int, target_bytes: int) -> bytes:
    """One UTF-8 page of about ``target_bytes``: a head with a charset
    meta (found by the byte prescan) and one <section> per synthesized
    document body, chrome included, so boilerplate stripping, deep
    nesting and misnested markup all recur through the whole page."""
    from html_extract.htmlgen import generate_html

    rng = random.Random(f"bigdoc-{seed}")
    base = namespace(seed)
    head = (
        '<!DOCTYPE html><html lang="en"><head><meta charset="utf-8">'
        f"<title>Reference page {seed}</title></head><body>"
    )
    parts = [head]
    size = len(head)
    i = 0
    while size < target_bytes:
        vocab = VOCAB if rng.random() < 0.9 else VOCAB + WIDE_VOCAB
        page = generate_html(base + i, _text(rng, vocab))
        section = (
            f'<section id="s{i}">'
            + page[page.index("<body>") + 6 : page.rindex("</body>")]
            + "</section>"
        )
        parts.append(section)
        size += len(section.encode("utf-8"))
        i += 1
    parts.append("</body></html>")
    return "".join(parts).encode("utf-8")
