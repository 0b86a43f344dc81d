"""Interleaved fresh-process A/B of the per-document path in two checkouts.

    python tools/ab_extract.py A_CHECKOUT B_CHECKOUT

A_CHECKOUT is the baseline (say, a second checkout of the parent commit,
made with ``git clone``), B_CHECKOUT the change.  Three jobs are timed:

- ``bigdoc``: ``extract_spans`` on one 4 MiB ``perfbench.inputs.big_page``
  as bytes (the bigdoc_parse workload's job);
- ``corpus``: an in-process ``ExtractActor`` over 1000 documents of
  ``perfbench.inputs.documents`` in batches of 64 (the work of the
  corpus_extract workload without Ray);
- ``adapter``: each side's own ``InterleaveAdapter`` over those 1000
  documents (the input side of the span codec).

The inputs are built once, by this checkout in a child process, and
read by both sides; ``corpus`` reads the documents as this checkout's
adapter laid them out.
Every measurement is a fresh process that imports ``html_extract`` from
its checkout, freezes the heap (``gc.freeze()``), runs one untimed
warm-up and then 3 timed jobs, each preceded by an untimed
``gc.collect()`` and ending with a timed one, as ``perfbench/run.py``
does.  ``ROUNDS`` rounds (seed 42) alternate which side runs first; ten
pairs is the fewest that can back a claimed gain (nine wins of ten, and
medians further apart than A's interquartile range).  Printed per job:
each side's median over the rounds of its per-process median with the
quartiles of those per-process medians in brackets, the ratio A/B (> 1:
B is faster), how many of the pairs B won, each side's median
peak RSS (the worker process's ``ru_maxrss``: imports, inputs and the
jobs, so for ``bigdoc`` mostly the page's DOM), and whether both sides
produced the same output: the same spans and meta (``parse_ns``
aside), and for ``adapter`` whether the sub-tables match in schema and
in rows.
"""

import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH_SIZE = 64
ROUNDS = 10
REPS = 3  # timed jobs per process
SEED = 42
PAGE_BYTES = 4 << 20
N_DOCS = 1000
JOBS = ("bigdoc", "corpus", "adapter")


def build_inputs(workdir):
    sys.path.insert(0, ROOT)
    import pyarrow as pa
    import pyarrow.parquet as pq

    from html_extract import pipeline as P
    from perfbench import inputs

    with open(os.path.join(workdir, "bigdoc.html"), "wb") as f:
        f.write(inputs.big_page(SEED, PAGE_BYTES))
    table = inputs.documents(SEED, N_DOCS).select(["doc_id", "text"])
    pq.write_table(table, os.path.join(workdir, "documents.parquet"))
    corpus = pa.concat_tables(list(P.InterleaveAdapter()(table)))
    pq.write_table(corpus, os.path.join(workdir, "corpus.parquet"))


def build_inputs_apart(workdir):
    """``build_inputs`` in a child, so this process stays small: Linux
    carries ``ru_maxrss`` across fork and exec, and a worker would report
    at least this process's peak."""
    child = multiprocessing.get_context("fork").Process(target=build_inputs, args=(workdir,))
    child.start()
    child.join()
    if child.exitcode:
        raise SystemExit(f"building the inputs failed (exit code {child.exitcode})")


def _sans_parse_ns(meta):
    return {k: v for k, v in meta.items() if k != "parse_ns"}


def worker(checkout, job, workdir):
    """One side's measurement, in a fresh process; prints one JSON line."""
    import gc

    sys.path.insert(0, os.path.abspath(checkout))
    from html_extract import extract as E

    if job == "bigdoc":
        with open(os.path.join(workdir, "bigdoc.html"), "rb") as f:
            page = f.read()

        def run():
            spans, meta = E.extract_spans(page)
            return [(spans, _sans_parse_ns(meta))]

    elif job == "adapter":
        import pyarrow.parquet as pq

        from html_extract import pipeline as P

        docs = pq.read_table(os.path.join(workdir, "documents.parquet"))
        adapter = P.InterleaveAdapter()

        def run():
            parts = list(adapter(docs))
            return [[t.schema.to_string() for t in parts], [t.to_pylist() for t in parts]]

    else:
        import pyarrow as pa
        import pyarrow.parquet as pq

        from html_extract import pipeline as P

        table = pq.read_table(os.path.join(workdir, "corpus.parquet"))
        batches = [pa.Table.from_batches([b]) for b in table.to_batches(BATCH_SIZE)]
        actor = P.ExtractActor()

        def run():
            out = []
            for batch in batches:
                t = actor(batch)
                meta = [_sans_parse_ns(m) for m in t["meta"].to_pylist()]
                out.append((t["spans"].to_pylist(), t["ok"].to_pylist(), meta))
            return out

    gc.collect()
    gc.freeze()
    # the warm-up; one digest per item of the output
    digest = [hashlib.md5(repr(item).encode()).hexdigest() for item in run()]
    times = []
    for _ in range(REPS):
        out = None  # the previous job's output is freed untimed
        gc.collect()
        t0 = time.perf_counter()
        out = run()
        gc.collect()
        times.append(time.perf_counter() - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"times": times, "peak_mb": peak_mb, "digest": digest,
                      "module": E.__file__}))


def measure(checkout, job, workdir):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", checkout, job, workdir],
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"{checkout} ({job}) failed:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    want = os.path.join(os.path.abspath(checkout), "html_extract")
    if not res["module"].startswith(want + os.sep):
        raise SystemExit(f"{checkout}: imported {res['module']}, not its own html_extract")
    return statistics.median(res["times"]), res["peak_mb"], res["digest"]


def main():
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
        return
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sides = {"A": sys.argv[1], "B": sys.argv[2]}
    with tempfile.TemporaryDirectory(prefix="ab_extract-") as workdir:
        build_inputs_apart(workdir)
        for job in JOBS:
            medians = {"A": [], "B": []}
            peaks = {"A": [], "B": []}
            digests = {}
            for r in range(ROUNDS):
                order = "AB" if r % 2 == 0 else "BA"
                for side in order:
                    t, peak, digests[side] = measure(sides[side], job, workdir)
                    medians[side].append(t)
                    peaks[side].append(peak)
                print(f"{job} round {r + 1}: A {medians['A'][-1]:.3f} s, "
                      f"B {medians['B'][-1]:.3f} s", file=sys.stderr)
            a = statistics.median(medians["A"])
            b = statistics.median(medians["B"])
            qa, qb = (statistics.quantiles(medians[side], n=4) for side in "AB")
            wins = sum(tb < ta for ta, tb in zip(medians["A"], medians["B"]))
            if job == "adapter":
                same = ", ".join(
                    f"{what} {'same' if a == b else 'DIFFER'}"
                    for what, a, b in zip(("schema", "rows"), digests["A"], digests["B"])
                )
            else:
                same = "same output" if digests["A"] == digests["B"] else "OUTPUTS DIFFER"
            rss_a = statistics.median(peaks["A"])
            rss_b = statistics.median(peaks["B"])
            print(f"{job}: A {a:.3f} s [{qa[0]:.3f}, {qa[2]:.3f}], "
                  f"B {b:.3f} s [{qb[0]:.3f}, {qb[2]:.3f}], A/B {a / b:.3f}, "
                  f"B won {wins}/{ROUNDS} pairs, "
                  f"peak RSS A {rss_a:.1f} MB, B {rss_b:.1f} MB, {same}")


if __name__ == "__main__":
    main()
