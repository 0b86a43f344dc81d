"""The four benchmark workloads.

Each workload drives the engine's public functions from outside and has
the same life cycle, run by ``run.py``:

- ``setup()``: build the seeded inputs (timed, repeated for ``setup_s``)
- ``prepare()``: compute the reference answers, untimed; returns checks
- ``job(tr)``: one batch job, the unit that is timed; ``tr`` records spans
- ``check(out)``: compare one job's output to the references, untimed
- ``ledger(tr, wall_s, traced_s, out)``: traced runs only, after one
  traced job that took ``traced_s`` against the untraced median
  ``wall_s``; records the spans the job could not (the per-document
  layers run inside Ray workers) and returns the per-layer metrics,
  ``trace.overhead_ratio`` among them

A check is ``(name, ok, detail)``.
"""

import gc
import glob
import hashlib
import json
import logging
import os
import shutil
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from html_extract import charset, extract as E, pipeline as P
from html_extract.extract import process_document
from html_extract.htmlgen import make_interleaved_spans
from html_extract.parser import Config, parse
from html_extract.tokenizer import Tokenizer

from . import inputs
from .tracing import NULL, timed

HERE = os.path.dirname(os.path.abspath(__file__))
# the config extract_spans parses with: errors counted, positions off
PIPELINE_CONFIG = Config(error_collection=True, error_positions=False)
# ExtractActor pool and batch size of the shipped bench configuration
POOL = (1, 1)
BATCH_SIZE = 64
SPAN_COLUMNS = ["doc_id", "spans", "n_bytes"]


def fingerprint(spans) -> str:
    """md5 over the ordered (kind, text, media_ref, order) spans, the
    same unit as ``pipeline.span_fingerprints`` and the golden file."""
    h = hashlib.md5()
    for k, t, m, o in spans:
        h.update(f"{k}\x1f{t}\x1f{m}\x1f{o}\x1e".encode())
    return h.hexdigest()


def _row_fingerprints(table: pa.Table) -> dict[str, str]:
    out = {}
    for doc_id, row in zip(table["doc_id"].to_pylist(), table["spans"].to_pylist()):
        out[doc_id] = fingerprint(
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in row
        )
    return out


def _oracle_fingerprints(rows) -> dict[str, str]:
    """Single-process oracle: process_document per (doc_id, spans) row."""
    return {doc_id: fingerprint(process_document(doc_id, spans)[0]) for doc_id, spans in rows}


def _adapted_rows(docs: pa.Table):
    """(doc_id, [(kind, text, media_ref)]) exactly as InterleaveAdapter
    feeds ExtractActor."""
    for did, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        doc_id = f"doc-{did:012d}"
        yield doc_id, [(k, t, m) for k, t, m, _ in make_interleaved_spans(doc_id, text or "")]


def _table_rows(table: pa.Table):
    for doc_id, row in zip(table["doc_id"].to_pylist(), table["spans"].to_pylist()):
        yield doc_id, [(s["kind"], s["text"], s["media_ref"]) for s in row]


def _compare(name, got: dict, want: dict):
    bad = [d for d in want if got.get(d) != want[d]]
    extra = len(set(got) - set(want))
    ok = not bad and not extra
    detail = "" if ok else f"{len(bad)} docs differ or missing, {extra} unexpected (first: {bad[:3]})"
    return (name, ok, detail)


def golden_check():
    """The process_document oracle against the frozen sf0.001 span
    fingerprints in tests/golden."""
    docs = pq.read_table(os.path.join(HERE, "fixtures", "golden_docs_sf0.001.parquet"))
    golden = pq.read_table(os.path.join("tests", "golden", "span_fp_sf0.001.parquet"))
    want = dict(zip(golden["doc_id"].to_pylist(), golden["fp"].to_pylist()))
    return _compare("oracle_vs_golden_sf0.001", _oracle_fingerprints(_adapted_rows(docs)), want)


class Counts:
    """Work counts gathered by the ledgers."""

    def __init__(self):
        self.tokens = self.errors = self.nodes = self.spans = 0


@contextmanager
def layer_spans(tr, counts: Counts):
    """Record a span around every call into the per-document layers.

    The wrappers replace the module attributes the engine itself calls
    through (ExtractActor -> process_document -> extract_spans -> parse
    -> charset.detect/decode, then extract_from_document), so the spans
    nest as the calls do and each layer's self time is measured in
    place, in one pass, with no difference of separate runs.  With the
    ``NULL`` tracer nothing is wrapped: that is the untraced path."""
    if tr is NULL:
        yield
        return

    def wrap(module, attr, name, count=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with tr.span(name):
                out = fn(*args, **kwargs)
            if count:
                count(out)
            return out

        setattr(module, attr, traced)
        return module, attr, fn

    def on_parse(out):
        counts.errors += len(out.errors)

    def on_extract(out):
        counts.spans += len(out[0])
        counts.nodes += out[1]["n_nodes"]

    saved = [
        wrap(P, "process_document", "pipeline.process_document"),
        wrap(E, "extract_spans", "extract.extract_spans", on_extract),
        wrap(E, "parse", "parser.parse", on_parse),
        wrap(E, "extract_from_document", "extract.walk"),
        wrap(charset, "detect", "charset.detect"),
        wrap(charset, "decode", "charset.decode"),
    ]
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def side_calls(tr, html, counts: Counts) -> None:
    """The two layers the extraction call cannot separate: the tokenizer
    drained on its own (it runs interleaved with tree building inside
    parse) and a parse with error collection off."""
    text = html.decode("utf-8") if isinstance(html, bytes) else html
    with tr.span("tokenizer.tokenize"):
        counts.tokens += sum(1 for _ in Tokenizer(text).tokens())
    with tr.span("parser.parse_noerr"):
        parse(html)


def batch_ledger(tr, tables, counts: Counts) -> float:
    """An in-process ExtractActor over the job's batches, the path the
    Ray workers run: untraced, then with the layer wrappers recording,
    then untraced again.  The traced pass gives the layer spans; its
    time over the mean of the two untraced ones is returned as
    ``trace.overhead_ratio``.  Then the side calls on each html span."""
    batches = [
        pa.Table.from_batches([b]) for table in tables for b in table.to_batches(BATCH_SIZE)
    ]
    actor = P.ExtractActor()
    times = []
    for t in (NULL, tr, NULL):
        gc.collect()
        with timed(times), layer_spans(t, counts):
            for batch in batches:
                with t.span("pipeline.extract_actor"):
                    actor(batch)
            gc.collect()
    for batch in batches:
        for _, spans in _table_rows(batch):
            for kind, text, _ in spans:
                if kind == "html":
                    side_calls(tr, text, counts)
    return times[1][0] / ((times[0][0] + times[2][0]) / 2)


# the timed dedup_queries job; together they cover all six dataops
# exchange shapes (raw groupby, _partition_apply, _hash_join,
# _keyed_agg, _semi_anti_join, _tree_agg)
JOB_QUERIES = [
    "exact_dedup",
    "source_label_stats",
    "priority_semi_counts",
    "tfidf_top_terms",
]
# run once per traced run only: ~7 s of mostly per-task scheduling at
# 2 CPUs, which would leave one job per 10 s run
LEDGER_QUERIES = ["minhash_pairs"]
QUERIES = JOB_QUERIES + LEDGER_QUERIES
# layers only some workloads reach; the others report 0 for them
WORKLOAD_LAYERS = [
    "pipeline.ray_overhead_s",
    "pipeline.blocks",
    "pipeline.resume_s",
    "pipeline.shards_recomputed",
    "io_lance.write_s",
    "io_lance.bytes_written",
    *(f"dataops.{q}_s" for q in QUERIES),
    "dataops.rows_out",
    "dataops.schema_warnings",
]


def layer_metrics(tr, counts: Counts, **extra) -> dict[str, float]:
    """Per-layer values from the ledger spans: self times of nested
    spans, except tree building, which is parse time minus the charset
    children and the separately drained tokenizer."""
    total, own = tr.total_s, tr.self_s()
    m = dict.fromkeys(WORKLOAD_LAYERS, 0)
    m.update({
        "charset.detect_s": total("charset.detect"),
        "charset.decode_s": total("charset.decode"),
        "tokenizer.tokenize_s": total("tokenizer.tokenize"),
        "tokenizer.tokens": counts.tokens,
        "parser.parse_s": total("parser.parse"),
        "parser.parse_noerr_s": total("parser.parse_noerr"),
        "parser.errors": counts.errors,
        "treebuilder.build_s": own.get("parser.parse", 0.0) - total("tokenizer.tokenize"),
        "treebuilder.nodes": counts.nodes,
        "extract.walk_s": total("extract.walk"),
        "extract.meta_s": own.get("extract.extract_spans", 0.0),
        "extract.spans": counts.spans,
        "pipeline.process_document_s": total("pipeline.process_document"),
        "pipeline.pack_s": own.get("pipeline.extract_actor", 0.0),
        "pipeline.adapter_s": total("pipeline.adapter"),
    })
    m.update(extra)
    return m


class CorpusExtract:
    """read_parquet -> extracted_dataset -> consume over a stored corpus."""

    name = "corpus_extract"
    uses_ray = True
    reference = "the process_document oracle"
    N_DOCS = 1000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.corpus_dir = os.path.join(workdir, "corpus")

    def setup(self):
        """Materialize the corpus: the documents through the pipeline's
        InterleaveAdapter, in process, so set-up time does not carry
        Ray worker start-up."""
        docs = inputs.documents(self.seed, self.N_DOCS).select(["doc_id", "text"])
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        os.makedirs(self.corpus_dir)
        for i, part in enumerate(P.InterleaveAdapter()(docs)):
            pq.write_table(part, os.path.join(self.corpus_dir, f"part-{i:04d}.parquet"))

    def prepare(self):
        self.table = pq.read_table(self.corpus_dir)
        self.n_docs = self.table.num_rows
        self.n_bytes = pc.sum(self.table["n_bytes"]).as_py()
        self.want = _oracle_fingerprints(_table_rows(self.table))
        first = sorted(glob.glob(os.path.join(self.corpus_dir, "*.parquet")))[0]
        self.schema = pq.read_schema(first).remove_metadata()
        self.schema = pa.schema([self.schema.field(c) for c in SPAN_COLUMNS])
        return [golden_check()]

    def warmup(self):
        """One untimed job: starts the Ray workers and Ray Data's
        internal actors, which every later job reuses."""
        return self.check(self.job(NULL))

    def job(self, tr):
        with tr.span("pipeline.extracted_dataset"):
            ds = P.extracted_dataset(
                ds=rd.read_parquet(self.corpus_dir, columns=SPAN_COLUMNS, schema=self.schema),
                concurrency=POOL,
                batch_size=BATCH_SIZE,
            )
            return list(ds.iter_batches(batch_format="pyarrow", batch_size=None))

    def check(self, blocks):
        got = {}
        failed_docs = 0
        for b in blocks:
            got.update(_row_fingerprints(b))
            failed_docs += b.num_rows - pc.sum(b["ok"]).as_py()
        checks = [_compare("corpus_extract.span_fingerprints", got, self.want)]
        checks.append(("corpus_extract.no_failed_docs", failed_docs == 0, f"{failed_docs} ok=False rows"))
        return checks

    def ledger(self, tr, wall_s, traced_s, blocks):
        counts = Counts()
        ratio = batch_ledger(tr, [self.table], counts)
        return layer_metrics(
            tr,
            counts,
            **{
                "pipeline.ray_overhead_s": wall_s - tr.total_s("pipeline.extract_actor"),
                "pipeline.blocks": len(blocks),
                "trace.overhead_ratio": ratio,
            },
        )


class BigdocParse:
    """One large page as bytes through extract_spans, single process."""

    name = "bigdoc_parse"
    uses_ray = False
    PAGE_BYTES = 4 << 20

    def __init__(self, seed, workdir):
        self.seed = seed
        self.counts = Counts()

    def setup(self):
        self.page = inputs.big_page(self.seed, self.PAGE_BYTES)

    def prepare(self):
        self.n_docs = 1
        self.n_bytes = len(self.page)
        with open(os.path.join(HERE, "fixtures", "bigdoc_digests.json")) as f:
            pinned = json.load(f)
        if pinned["page_bytes"] == self.PAGE_BYTES and str(self.seed) in pinned["digests"]:
            self.want = pinned["digests"][str(self.seed)]
            self.reference = f"the digest pinned for seed {self.seed}"
        else:
            # no digest pinned for this seed: the str path (no charset
            # layer) is the reference for the bytes path
            self.want = fingerprint(self._spans(self.page.decode("utf-8")))
            self.reference = "the str path (no digest pinned for this seed)"
        return []

    @staticmethod
    def _spans(page):
        spans, _ = E.extract_spans(page)
        return [(k, t, m, i) for i, (k, t, m) in enumerate(spans)]

    def warmup(self):
        return []

    def job(self, tr):
        """Traced, the job itself carries the layer wrappers: the layers
        run in this process, so its time against the untraced median is
        the trace overhead."""
        with tr.span("bigdoc_parse.job"), layer_spans(tr, self.counts):
            return self._spans(self.page)

    def check(self, spans):
        got = fingerprint(spans)
        return [("bigdoc_parse.span_digest", got == self.want,
                 f"digest {got} != {self.want} ({self.reference})")]

    def ledger(self, tr, wall_s, traced_s, spans):
        side_calls(tr, self.page, self.counts)
        return layer_metrics(tr, self.counts, **{"trace.overhead_ratio": traced_s / wall_s})


def value_hash(df) -> str:
    """Order-insensitive value hash of a result frame: the rule of
    tools/check_correctness.py, restated because importing that script
    puts a fixed path at the front of sys.path."""
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return hashlib.md5(df.astype(str).to_csv(index=False).encode()).hexdigest()


class SchemaWarnings(logging.Handler):
    """Counts Ray Data's 'different schema than the previous one'
    warnings, the exchange-layer symptom dataops should drive to zero."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        if "different schema than the previous one" in record.getMessage():
            self.n += 1


class DedupQueries:
    """dataops queries covering six exchange shapes; no parser."""

    name = "dedup_queries"
    uses_ray = True
    reference = "the DuckDB twins"
    N_DOCS = 500
    N_ORDERS = 15000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.sf_dir = os.path.join(workdir, "sf")
        self.warnings = SchemaWarnings()
        logging.getLogger("ray.data").addHandler(self.warnings)

    def setup(self):
        inputs.write_query_tables(self.seed, self.N_DOCS, self.N_ORDERS, self.sf_dir)

    def prepare(self):
        import duckdb
        import __ray_entry__

        docs = pq.read_table(os.path.join(self.sf_dir, "documents.parquet"), columns=["text"])
        self.n_docs = docs.num_rows
        self.n_bytes = sum(len(t.encode()) for t in docs["text"].to_pylist())
        sql = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        for t in ("documents", "embeddings", "orders", "lineitem"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{self.sf_dir}/{t}.parquet'")
        self.want = {}
        for q in QUERIES:
            df = con.sql(sql[q]).df()
            self.want[q] = (len(df), value_hash(df))
        con.close()
        return []

    def warmup(self):
        """One untimed job: the first run of each query pays for worker
        start-up and first imports, which later jobs reuse."""
        return self.check(self.job(NULL))

    def _queries(self, tr, names, out):
        from html_extract import dataops as D

        for q in names:
            with tr.span(f"dataops.{q}"):
                out[q] = getattr(D, q)(self.sf_dir).to_pandas()
        return out

    def job(self, tr):
        before = self.warnings.n
        out = self._queries(tr, JOB_QUERIES, {})
        self.job_warnings = self.warnings.n - before
        return out

    def check(self, out):
        checks = []
        for q, df in out.items():
            got = (len(df), value_hash(df))
            checks.append((f"dedup_queries.{q}", got == self.want[q], f"(rows, hash) {got} != {self.want[q]}"))
        return checks

    def ledger(self, tr, wall_s, traced_s, out):
        """Adds the ledger-only queries to ``out``, so the check that
        follows covers them too.  The spans around the queries are all
        the tracing this workload has, so the traced job against the
        untraced median is its trace overhead."""
        before = self.warnings.n
        self._queries(tr, LEDGER_QUERIES, out)
        m = {f"dataops.{q}_s": tr.total_s(f"dataops.{q}") for q in QUERIES}
        m["dataops.rows_out"] = sum(len(df) for df in out.values())
        m["dataops.schema_warnings"] = self.job_warnings + self.warnings.n - before
        m["trace.overhead_ratio"] = traced_s / wall_s
        return layer_metrics(tr, Counts(), **m)


class ShardWriteResume:
    """run_pipeline over 4 shards once, then jobs that lose one shard's
    manifest and resume."""

    name = "shard_write_resume"
    uses_ray = True
    reference = "the process_document oracle"
    N_DOCS = 500
    NUM_SHARDS = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.docs_dir = os.path.join(workdir, "docs")
        self.out_dir = os.path.join(workdir, "out")
        self.lost = seed % self.NUM_SHARDS

    def setup(self):
        self.docs = inputs.write_documents(self.seed, self.N_DOCS, self.docs_dir)

    def prepare(self):
        self.want = _oracle_fingerprints(_adapted_rows(self.docs))
        # a single-file corpus is sharded by doc_id % num_shards
        in_lost = [d % self.NUM_SHARDS == self.lost for d in self.docs["doc_id"].to_pylist()]
        self.lost_docs = self.docs.filter(pa.array(in_lost)).select(["doc_id", "text"])
        rows = list(_adapted_rows(self.lost_docs))
        self.n_docs = len(rows)
        self.n_bytes = sum(len(t) + len(m) for _, spans in rows for _, t, m in spans)
        return [golden_check()]

    def _run(self):
        return P.run_pipeline(
            self.docs_dir, self.out_dir, num_shards=self.NUM_SHARDS,
            concurrency=POOL, batch_size=BATCH_SIZE,
        )

    def warmup(self):
        """The untimed full run that writes every shard and its manifest."""
        self.manifests = self._run()
        return self._check_output("shard_write_resume.full_run")

    def job(self, tr):
        os.remove(os.path.join(self.out_dir, "_manifests", f"shard-{self.lost}.json"))
        with tr.span("pipeline.resume"):
            return self._run()

    def _check_output(self, name):
        table = pq.read_table(self.out_dir, columns=["doc_id", "spans"])
        return [
            _compare(f"{name}.span_fingerprints", _row_fingerprints(table), self.want),
            (f"{name}.one_row_per_doc", table.num_rows == len(self.want), f"{table.num_rows} rows"),
        ]

    def _recomputed(self, manifests):
        return sorted(
            b["shard"] for a, b in zip(self.manifests, manifests)
            if a["completed_at"] != b["completed_at"]
        )

    def check(self, manifests):
        recomputed = self._recomputed(manifests)
        self.manifests = manifests
        return self._check_output("shard_write_resume") + [
            ("shard_write_resume.only_lost_shard_recomputed", recomputed == [self.lost],
             f"recomputed {recomputed}, lost {self.lost}"),
        ]

    def ledger(self, tr, wall_s, traced_s, manifests):
        from html_extract.io_lance import write_dataset

        counts = Counts()
        with tr.span("pipeline.adapter"):
            adapted = list(P.InterleaveAdapter()(self.lost_docs))
        ratio = batch_ledger(tr, adapted, counts)
        written = pq.read_table(os.path.join(self.out_dir, f"shard={self.lost}"))
        target = os.path.join(self.workdir, "io_write")
        with tr.span("io_lance.write_dataset"):
            write_dataset(rd.from_arrow(written), target)
        nbytes = sum(os.path.getsize(f) for f in glob.glob(os.path.join(target, "*")))
        shutil.rmtree(target, ignore_errors=True)
        return layer_metrics(
            tr,
            counts,
            **{
                "pipeline.resume_s": tr.total_s("pipeline.resume"),
                "pipeline.shards_recomputed": len(self._recomputed(manifests)),
                "io_lance.write_s": tr.total_s("io_lance.write_dataset"),
                "io_lance.bytes_written": nbytes,
                "trace.overhead_ratio": ratio,
            },
        )


WORKLOADS = {w.name: w for w in (CorpusExtract, BigdocParse, DedupQueries, ShardWriteResume)}
