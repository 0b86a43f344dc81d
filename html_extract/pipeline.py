"""Ray Data pipeline: read -> adapt -> parse/extract -> write + per-shard
lineage manifests, checkpoint-resumable.

Stage classification follows SURVEY.md §7.2: the parse/extract stage is
a stateless task stage (its tables are module-level, so a pooled Ray
worker compiles them once at import and keeps them for every later
task); everything crossing a stage boundary is Arrow; the hot path is
map-only — no shuffle is needed to extract.

Scale notes (the 100 TB design):
- column pruning at the read (only doc_id/text leave storage for the
  adapter path; a real interleaved corpus reads doc_id/spans).
- no skew defusal at the extract stage: the adapter yields sub-tables
  cut at ADAPTER_SLICE_BYTES of cumulative html, but that bounds only
  the adapter's own output tables.  ``extracted_dataset`` re-forms
  batches at ``batch_size`` rows (64 by default) across block
  boundaries, so a huge page shares its extract batch with up to 63
  other documents whatever the cut.
- resume: the corpus is sharded by hash(doc_id) % num_shards; each
  shard writes to its own directory via a temp-dir + atomic rename,
  then appends a manifest JSON.  A rerun skips shards whose manifest
  exists — per-partition lineage + checkpoint resume without a shuffle.
"""

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .extract import process_document
from .htmlgen import make_interleaved_spans
from .io_lance import write_dataset

SPAN_IN_T = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
SPAN_OUT_T = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)
META_T = pa.struct(
    [
        ("encoding", pa.string()),
        ("quirks_mode", pa.int8()),
        ("n_errors", pa.int32()),
        ("n_nodes", pa.int32()),
        ("parse_ns", pa.int64()),
    ]
)

# target cumulative html bytes per yielded sub-batch from the adapter;
# sized so batch x task concurrency stays far under worker heap
ADAPTER_SLICE_BYTES = 4 << 20


def documents_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _document_files(sf_dir: str):
    """The corpus is either one parquet file (driver testdata) or a
    directory of part files (the 100 TB layout)."""
    single = documents_path(sf_dir)
    if os.path.isfile(single):
        return [single]
    as_dir = os.path.join(sf_dir, "documents")
    if os.path.isdir(as_dir):
        import glob as _glob

        return sorted(_glob.glob(os.path.join(as_dir, "*.parquet")))
    raise FileNotFoundError(single)


def load_documents(sf_dir: str, shard=None, num_shards=None) -> rd.Dataset:
    """Driver documents table, pruned to the two columns the adapter needs.

    Sharding: with a multi-file corpus each shard reads ONLY its own
    file subset (no re-reading); a single-file corpus falls back to a
    doc_id-hash filter.
    """
    from .dataops import _read_files

    files = _document_files(sf_dir)
    if shard is not None and num_shards and len(files) >= num_shards:
        files = files[shard::num_shards]
        shard = None  # file-level sharding replaces the hash filter
    ds = _read_files(files, ["doc_id", "text"])
    if shard is not None and num_shards:
        def pick(t: pa.Table) -> pa.Table:
            import numpy as np

            arr = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((arr % num_shards) == shard))

        ds = ds.map_batches(pick, batch_format="pyarrow")
    return ds


def _span_rows(col: pa.ChunkedArray, *fields):
    """Per row of a list<struct> table column: a list of tuples of the
    named fields, or None for a null row.  The structs are flattened once
    per column (one C-level read per field, no Python dict per span) and
    cut by per-row lengths, so a sliced list array, whose offsets do not
    start at 0, reads the same as a fresh one."""
    col = col.combine_chunks()
    flat = col.flatten()
    items = list(zip(*(flat.field(f).to_pylist() for f in fields)))
    rows, pos = [], 0
    for n in pc.list_value_length(col).to_pylist():
        if n is None:
            rows.append(None)
            continue
        rows.append(items[pos : pos + n])
        pos += n
    return rows


def _span_column(rows, span_type) -> pa.ListArray:
    """Rows of span tuples, in ``span_type``'s field order, as one
    list<span_type> column built straight from flat child arrays."""
    flat, offsets = [], [0]
    for row in rows:
        flat.extend(row)
        offsets.append(len(flat))
    cols = zip(*flat) if flat else [()] * span_type.num_fields
    values = pa.StructArray.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, span_type)], fields=list(span_type)
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


class InterleaveAdapter:
    """documents(doc_id:int64, text) -> input_hint rows
    (doc_id:string, spans:list<SPAN_IN_T>, n_bytes:int64).

    Yields multiple Arrow sub-tables per input batch, cut at
    ADAPTER_SLICE_BYTES of cumulative html bytes.  The cut bounds only
    these output tables: the extract stage re-forms its batches by row
    count (see the module docstring), so it does not reach ExtractActor.
    """

    def __init__(self, replicate: int = 1, mode: str = "rich"):
        # replicate>1 synthesizes R distinct documents per source row
        # (distinct doc_id seeds -> distinct HTML); used by bench runs to
        # scale work deterministically without external data
        self.replicate = replicate
        # "rich": template-grammar page per FIXTURES.md §1 (exercises the
        # parser); "plain": the raw text as one kind="html" span (the
        # FIXTURES stand-in shape)
        self.mode = mode

    def __call__(self, batch: pa.Table):
        ids, spans, nbytes = [], [], []
        acc = 0
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for rep in range(self.replicate):
                doc_id = f"doc-{did + rep * 10_000_000:012d}"
                if self.mode == "plain":
                    row = [("html", text or "", "", 0)]
                else:
                    row = make_interleaved_spans(doc_id, text or "")
                ids.append(doc_id)
                spans.append(row)
                nbytes.append(sum(len(s[1]) + len(s[2]) for s in row))
                acc += nbytes[-1]
                if acc >= ADAPTER_SLICE_BYTES:
                    yield self._table(ids, spans, nbytes)
                    ids, spans, nbytes = [], [], []
                    acc = 0
        if ids:
            yield self._table(ids, spans, nbytes)

    @staticmethod
    def _table(ids, spans, nbytes) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.string()),
                "spans": _span_column(spans, SPAN_IN_T),
                "n_bytes": pa.array(nbytes, pa.int64()),
            }
        )


# the meta of a document that raised: n_errors = -1 marks it
_POISON_META = {
    "encoding": "",
    "quirks_mode": 0,
    "n_errors": -1,
    "n_nodes": 0,
    "parse_ns": 0,
}


class ExtractActor:
    """Task stage: {parse -> tree-build -> boilerplate strip} per row.

    Stateless: the entity table, tag sets and heuristic constants are
    module-level, compiled once per worker process when this module is
    imported, and __call__ touches only per-document state, so the stage
    is deterministic and retry-safe.  The name is historical; an instance
    also runs in process as ``ExtractActor()(batch)``.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        nbytes = (
            batch["n_bytes"].to_pylist()
            if "n_bytes" in batch.column_names
            else [0] * len(ids)
        )
        spans, metas = [], []
        for doc_id, row in zip(
            ids, _span_rows(batch["spans"], "kind", "text", "media_ref")
        ):
            try:
                out, meta = process_document(doc_id, row)
            except Exception:  # poison doc or null spans row: an error row
                out, meta = (), _POISON_META
            spans.append(out)
            metas.append(meta)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.string()),
                "spans": _span_column(spans, SPAN_OUT_T),
                "meta": pa.array(metas, META_T),
                "n_bytes": pa.array(nbytes, pa.int64()),
                "ok": pa.array([m is not _POISON_META for m in metas], pa.bool_()),
            }
        )


def interleaved_dataset(
    sf_dir, shard=None, num_shards=None, replicate: int = 1, mode: str = "rich"
) -> rd.Dataset:
    ds = load_documents(sf_dir, shard, num_shards)
    # NOTE: deliberately an INSTANCE: a stateless task stage, for the
    # reasons given in extracted_dataset.
    return ds.map_batches(
        InterleaveAdapter(replicate=replicate, mode=mode),
        batch_format="pyarrow",
        batch_size=256,
    )


def extracted_dataset(
    sf_dir=None,
    ds: rd.Dataset | None = None,
    concurrency=None,
    batch_size: int = 64,
) -> rd.Dataset:
    """The flagship pipeline as a lazy Dataset (no materialization).

    The stateless ExtractActor INSTANCE runs on Ray Data's task pool, in
    the session's warm pooled workers.  An actor pool would start a fresh
    worker per Dataset execution (≈1.3 s of Ray start-up each, measured
    in a 2-CPU session) and hold its CPU, which deadlocks a 1-CPU session.
    ``concurrency``: an int caps concurrent tasks, None autoscales, and
    ``(lo, hi)`` means at most ``hi``.
    """
    if ds is None:
        ds = interleaved_dataset(sf_dir)
    if isinstance(concurrency, tuple):
        concurrency = concurrency[1]
    return ds.map_batches(
        ExtractActor(),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# checkpoint-resumable sharded run with lineage manifests


def run_pipeline(
    sf_dir: str,
    out_dir: str,
    num_shards: int = 4,
    concurrency=None,
    batch_size: int = 64,
    resume: bool = True,
):
    """Full run: per-shard extract -> atomic write -> manifest.

    Returns the list of manifest dicts (one per shard).
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_dir = os.path.join(out_dir, "_manifests")
    os.makedirs(manifest_dir, exist_ok=True)
    manifests = []
    for shard in range(num_shards):
        mpath = os.path.join(manifest_dir, f"shard-{shard}.json")
        if resume and os.path.exists(mpath):
            try:
                with open(mpath) as f:
                    manifests.append(json.load(f))
                continue
            except (json.JSONDecodeError, OSError):
                # torn/corrupt manifest (e.g. crash mid-write): treat the
                # shard as incomplete and recompute it
                os.remove(mpath)
        t0 = time.time()
        ds = interleaved_dataset(sf_dir, shard=shard, num_shards=num_shards)
        out = extracted_dataset(
            ds=ds, concurrency=concurrency, batch_size=batch_size
        )
        shard_dir = os.path.join(out_dir, f"shard={shard}")
        tmp_dir = os.path.join(out_dir, f"_tmp-shard-{shard}")
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        write_dataset(out, tmp_dir)
        if os.path.exists(shard_dir):
            shutil.rmtree(shard_dir)
        os.rename(tmp_dir, shard_dir)
        # lineage metrics from the written files (no recompute)
        stats = _shard_stats(shard_dir)
        manifest = {
            "shard": shard,
            "input": documents_path(sf_dir),
            "completed_at": time.time(),
            "wall_s": round(time.time() - t0, 3),
            **stats,
        }
        tmp_m = mpath + ".tmp"
        with open(tmp_m, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp_m, mpath)
        manifests.append(manifest)
    return manifests


def _shard_stats(shard_dir: str) -> dict:
    import pyarrow.dataset as pds

    dataset = pds.dataset(shard_dir, format="parquet")
    tbl = dataset.to_table(columns=["doc_id", "n_bytes", "meta", "ok"])
    meta = tbl["meta"].combine_chunks()
    n_errors = pc.sum(pc.max_element_wise(meta.field("n_errors"), 0)).as_py()
    ids = tbl["doc_id"]
    return {
        "row_count": tbl.num_rows,
        "byte_count": pc.sum(tbl["n_bytes"]).as_py() or 0,
        "error_count": int(n_errors or 0),
        "failed_docs": int(
            pc.sum(pc.cast(pc.invert(tbl["ok"]), pa.int64())).as_py() or 0
        ),
        "min_doc_id": pc.min(ids).as_py() if tbl.num_rows else None,
        "max_doc_id": pc.max(ids).as_py() if tbl.num_rows else None,
    }


def span_fingerprint(spans) -> str:
    """md5 over one document's ordered (kind, text, media_ref, order)
    spans — the unit of the north-rule invariant and of the golden
    file."""
    h = hashlib.md5()
    for k, t, m, o in spans:
        h.update(f"{k}\x1f{t}\x1f{m}\x1f{o}\x1e".encode())
    return h.hexdigest()


def span_fingerprints(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, fp): ``span_fingerprint`` per extracted document."""

    def fp(t: pa.Table) -> pa.Table:
        rows = _span_rows(t["spans"], "kind", "text", "media_ref", "order")
        return pa.table(
            {
                "doc_id": pa.array(t["doc_id"].to_pylist(), pa.string()),
                "fp": pa.array([span_fingerprint(r) for r in rows]),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


def conformance_diff(sf_dir) -> rd.Dataset:
    """Ray-scale span-equality audit (SURVEY.md §2.3 'Conformance diff').

    Joins the distributed pipeline's span fingerprints against an
    independent oracle pass (plain tasks re-running the single-process
    extractor) hash-partitioned on doc_id, and returns the mismatching
    rows — empty when the invariant holds.  This is the at-scale
    version of the per-row pytest check: it additionally catches
    plumbing corruption (batch slicing, Arrow conversion, shard
    routing) that a single-process comparison cannot, so the oracle
    decodes its input with ``to_pylist`` rather than the engine's
    ``_span_rows``.  Rows are (doc_id, fp_engine, fp_oracle).
    """
    from .dataops import _exchange

    engine = span_fingerprints(extracted_dataset(sf_dir))

    def oracle(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        spans_in = t["spans"].to_pylist()
        fps = []
        for doc_id, row in zip(ids, spans_in):
            spans, _ = process_document(
                doc_id, [(s["kind"], s["text"], s["media_ref"]) for s in row]
            )
            fps.append(span_fingerprint(spans))
        return pa.table(
            {"doc_id": pa.array(ids, pa.string()), "fp": pa.array(fps)}
        )

    ref = interleaved_dataset(sf_dir).map_batches(
        oracle, batch_format="pyarrow"
    )

    def mismatches(part, eng, orc):
        if eng is None or orc is None:
            return None
        t = eng.join(
            orc, "doc_id", join_type="inner",
            left_suffix="_engine", right_suffix="_oracle",
        )
        return t.filter(pc.invert(pc.equal(t["fp_engine"], t["fp_oracle"])))

    return _exchange([(engine, ["doc_id"]), (ref, ["doc_id"])], mismatches)


def reserialized(sf_dir, **options) -> rd.Dataset:
    """Serializer as a pipeline stage (reference S5): parse each html
    span and re-emit it serialized, one (doc_id, html) row per span.
    ``options`` go to ``serialize``: none gives the spec serialization
    (the round-trip surface); ``reformat_whitespace=True`` with an
    ``indent_step`` pretty-prints (the reference's reformatWhitespace
    option, Serializer.php:133-208).  Each tree is released after it is
    serialized, so no DOM is left as cyclic garbage."""
    from .dom import release_tree
    from .parser import parse
    from .serializer import serialize

    def rt(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        out_ids, html = [], []
        for doc_id, row in zip(ids, _span_rows(t["spans"], "kind", "text")):
            for kind, text in row:
                if kind == "html":
                    doc = parse(text).document
                    out_ids.append(doc_id)
                    html.append(serialize(doc, **options))
                    release_tree(doc)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.string()),
                "html": pa.array(html, pa.string()),
            }
        )

    return interleaved_dataset(sf_dir).map_batches(
        rt, batch_format="pyarrow", batch_size=64
    )


def dedup_output(ds: rd.Dataset) -> rd.Dataset:
    """Duplicate-doc_id guard for resumed/unioned outputs (SURVEY.md
    §2.3): hash-partition on doc_id so equal ids co-locate, then keep
    the first row of each id per PARTITION, in Arrow (one group-by for
    the smallest row index, one take), so the rows keep the input's
    schema.  The Python overhead is O(partitions), not O(documents) —
    the measured 0.5 ms/group map_groups trap."""
    import numpy as np

    from .dataops import _exchange

    def first_per_id(part, t):
        if t is None:
            return None
        rows = pa.table({"doc_id": t["doc_id"], "_row": np.arange(t.num_rows)})
        first = rows.group_by("doc_id", use_threads=False).aggregate([("_row", "min")])
        return t.take(np.sort(first["_row_min"].to_numpy()))

    return _exchange([(ds, ["doc_id"])], first_per_id)


def spans_flat(ds: rd.Dataset) -> rd.Dataset:
    """Explode extracted spans to one row per span (doc_id, kind, text,
    media_ref, order) — the SQL-comparable projection of the output."""

    def explode(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(spans).combine_chunks()
        import numpy as np

        doc_ids = t["doc_id"].take(
            pa.array(np.repeat(np.arange(len(t)), lengths), pa.int64())
        )
        return pa.table(
            {
                "doc_id": doc_ids,
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "ord": flat.field("order"),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")
