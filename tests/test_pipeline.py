"""End-to-end Ray Data pipeline tests at sf0.001, including the
span-equality invariant (Ray output vs single-process oracle) and
checkpoint resume."""

import os

import pyarrow.compute as pc
import pytest

SF_DIR = "/root/testdata/sf0.001"

pytestmark = pytest.mark.usefixtures("ray_session")


def test_flagship_extraction_runs(tmp_path):
    from html_extract import pipeline as P

    ds = P.extracted_dataset(SF_DIR, batch_size=64)
    rows = ds.take_all()
    assert len(rows) == 500
    assert len({r["doc_id"] for r in rows}) == 500
    for r in rows:
        assert r["doc_id"].startswith("doc-")
        assert r["ok"]
        assert isinstance(r["spans"], list) and len(r["spans"]) > 0
        orders = [s["order"] for s in r["spans"]]
        assert orders == list(range(len(orders)))


def test_span_equality_vs_oracle():
    """north-rule invariant: per-document span-sequence equality
    (kind, text, media_ref, order) of the Ray pipeline vs the
    single-process oracle."""
    from html_extract import pipeline as P
    from html_extract.extract import process_document
    from html_extract.htmlgen import make_interleaved_spans
    import pyarrow.parquet as pq

    ds = P.extracted_dataset(SF_DIR, batch_size=32)
    got = {r["doc_id"]: r["spans"] for r in ds.take_all()}
    src = pq.read_table(P.documents_path(SF_DIR), columns=["doc_id", "text"])
    assert len(got) == src.num_rows
    checked = 0
    for did, text in zip(
        src["doc_id"].to_pylist(), src["text"].to_pylist()
    ):
        doc_id = f"doc-{did:012d}"
        spans_in = make_interleaved_spans(doc_id, text or "")
        oracle, _ = process_document(doc_id, [(k, t, m) for k, t, m, _ in spans_in])
        ray_spans = [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in got[doc_id]
        ]
        assert ray_spans == oracle, f"span mismatch for {doc_id}"
        checked += 1
    assert checked == src.num_rows


def test_sharded_run_and_resume(tmp_path):
    from html_extract import pipeline as P

    out_dir = str(tmp_path / "out")
    manifests = P.run_pipeline(SF_DIR, out_dir, num_shards=2, batch_size=64)
    assert len(manifests) == 2
    total = sum(m["row_count"] for m in manifests)
    assert total == 500  # sf0.001 documents rows
    assert all(m["failed_docs"] == 0 for m in manifests)
    assert os.path.exists(os.path.join(out_dir, "shard=0"))
    assert os.path.exists(os.path.join(out_dir, "_manifests/shard-1.json"))
    # resume: no recompute (manifests returned unchanged, fast)
    again = P.run_pipeline(SF_DIR, out_dir, num_shards=2)
    assert [m["completed_at"] for m in again] == [
        m["completed_at"] for m in manifests
    ]


def test_spans_flat_projection():
    from html_extract import pipeline as P

    flat = P.spans_flat(P.extracted_dataset(SF_DIR)).to_pandas()
    assert {"doc_id", "kind", "text", "media_ref", "ord"} <= set(flat.columns)
    assert flat["doc_id"].nunique() == 500
    # each document's spans are numbered 0..n-1 in order
    for _, g in flat.groupby("doc_id", sort=False):
        assert g["ord"].tolist() == list(range(len(g)))


def test_conformance_diff_empty(monkeypatch):
    """At-scale span-equality audit: engine join oracle -> no mismatches."""
    from html_extract import dataops as D
    from html_extract import pipeline as P

    monkeypatch.setattr(D, "_num_partitions", lambda: 4)
    diff = P.conformance_diff(SF_DIR)
    assert diff.count() == 0


def test_reserialized_roundtrip_stable():
    from html_extract import pipeline as P
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    rows = P.reserialized(SF_DIR).take_all()
    assert len({r["doc_id"] for r in rows}) == 500
    for r in rows:
        # serialize(parse(.)) is a fixed point on already-serialized HTML
        assert serialize(parse(r["html"]).document) == r["html"]


def test_pretty_html_stage():
    from html_extract import pipeline as P
    from html_extract.parser import parse
    from html_extract.serializer import serialize

    rows = P.reserialized(SF_DIR, reformat_whitespace=True).take_all()
    assert len({r["doc_id"] for r in rows}) == 500
    for r in rows:
        # pretty output is still a parseable document whose rendered
        # (whitespace-collapsed) text equals a replain-serialize of it
        doc = parse(r["html"]).document
        again = serialize(
            parse(serialize(doc)).document,
            reformat_whitespace=True,
        )
        # idempotence: pretty(parse(pretty(x))) == pretty(x)
        assert again == r["html"], r["doc_id"]


def test_dedup_output_guard():
    import ray.data as rd
    from html_extract import pipeline as P

    ds = rd.from_items(
        [{"doc_id": "a", "v": 1}, {"doc_id": "a", "v": 1}, {"doc_id": "b", "v": 2}]
    )
    out = P.dedup_output(ds).to_pandas()
    assert sorted(out["doc_id"]) == ["a", "b"]

    # the extracted rows keep their nested schema (pandas blocks of
    # nested objects could not be converted back to Arrow)
    ext = P.extracted_dataset(SF_DIR).materialize()
    out = P.dedup_output(ext.union(ext)).materialize()
    assert out.schema().base_schema == ext.schema().base_schema
    assert out.schema().base_schema.field("spans").type.value_type == P.SPAN_OUT_T
    assert out.schema().base_schema.field("meta").type == P.META_T
    ids = out.to_pandas()["doc_id"]
    assert ids.is_unique and sorted(ids) == sorted(ext.to_pandas()["doc_id"])


def test_plain_adapter_mode():
    from html_extract import pipeline as P

    rows = P.interleaved_dataset(SF_DIR, mode="plain").take_all()
    assert len(rows) == 500
    for row in rows:
        assert len(row["spans"]) == 1
        assert row["spans"][0]["kind"] == "html"


def test_multifile_corpus_file_level_sharding(tmp_path):
    """100TB layout: documents/ dir of part files; shards read disjoint
    file subsets and the union covers everything exactly once."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from html_extract import pipeline as P

    d = tmp_path / "documents"
    d.mkdir()
    for part in range(4):
        tbl = pa.table(
            {
                "doc_id": pa.array(range(part * 10, part * 10 + 10), pa.int64()),
                "text": pa.array([f"doc {i} words here" for i in range(10)]),
            }
        )
        pq.write_table(tbl, d / f"part-{part}.parquet")
    seen = []
    for s in range(2):
        ds = P.load_documents(str(tmp_path), shard=s, num_shards=2)
        seen.extend(r["doc_id"] for r in ds.take_all())
    assert sorted(seen) == sorted(
        list(range(0, 10)) + list(range(10, 20)) + list(range(20, 30)) + list(range(30, 40))
    )
    assert len(seen) == len(set(seen))


GOLDEN_FP = os.path.join(os.path.dirname(__file__), "golden", "span_fp_sf0.001.parquet")


def _assert_golden_fingerprints(got):
    """``got``: a (doc_id, fp) DataFrame for the whole sf0.001 corpus."""
    import pandas as pd

    golden = pd.read_parquet(GOLDEN_FP)
    got = got.sort_values("doc_id", ignore_index=True)
    assert got["doc_id"].tolist() == golden["doc_id"].tolist()
    mism = got[got["fp"] != golden["fp"]]
    assert len(mism) == 0, f"{len(mism)} fingerprint mismatches: {mism.head()}"


def test_golden_span_fingerprints_frozen():
    """Frozen-oracle check: the full Ray pipeline's span fingerprints
    at sf0.001 must match the committed golden parquet byte-for-byte.
    Regenerate ONLY via `python tools/gen_golden_spans.py --write`
    after an intentional extraction-semantics change."""
    from html_extract import pipeline as P

    _assert_golden_fingerprints(
        P.span_fingerprints(P.extracted_dataset(SF_DIR)).to_pandas()
    )


@pytest.mark.parametrize(
    "concurrency,size", [(None, None), (2, 2), ((1, 1), 1)], ids=["none", "int", "tuple"]
)
def test_extract_stage_is_task_pool(concurrency, size):
    """The extract stage runs on Ray Data's task pool for every form of
    ``concurrency`` (a tuple caps tasks at its upper bound) and keeps
    the golden output: a per-Dataset actor pool must not come back."""
    from ray.data._internal.compute import TaskPoolStrategy

    from html_extract import pipeline as P

    ds = P.extracted_dataset(ds=P.interleaved_dataset(SF_DIR), concurrency=concurrency)
    compute = ds._logical_plan.dag._compute
    assert isinstance(compute, TaskPoolStrategy)
    assert compute.size == size
    _assert_golden_fingerprints(P.span_fingerprints(ds).to_pandas())


ONE_CPU_SESSION = """
import json, sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 << 20, _temp_dir=sys.argv[1])
DataContext.get_current().enable_progress_bars = False
"""

ONE_CPU_EXTRACT = ONE_CPU_SESSION + """
from html_extract import pipeline as P
fp = P.span_fingerprints(P.extracted_dataset(sys.argv[2])).to_pandas()
print(json.dumps(dict(zip(fp["doc_id"], fp["fp"]))))
ray.shutdown()
"""

ONE_CPU_QUERIES = ONE_CPU_SESSION + """
import __ray_entry__ as E
from tests.dataops_util import rows_and_hash
qs = E.queries()
print(json.dumps({q: rows_and_hash(qs[q](sys.argv[2])) for q in sys.argv[3:]}))
ray.shutdown()
"""


def _run_one_cpu_session(script, *args):
    """Run ``script`` in a fresh process that starts a 1-CPU Ray session
    (``sys.argv[1]`` is its Ray temp dir, ``args`` follow) and return
    the JSON its last stdout line holds.  Fails the test after 120 s,
    killing the driver and every Ray process it started."""
    import json
    import shutil
    import signal
    import subprocess
    import sys
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # under /tmp: Ray's socket paths are its temp dir plus ~64 bytes and
    # must stay under 108
    ray_tmp = tempfile.mkdtemp(prefix="ray1cpu", dir="/tmp")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, ray_tmp, *args],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        # the driver and the Ray processes it started share its session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a 1-CPU Ray session did not finish in 120 s")
    finally:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert proc.returncode == 0, err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


def test_one_cpu_session_completes():
    """A 1-CPU session must finish extraction with the golden output.
    An extract actor pool held the only CPU, the read stage could not
    be scheduled, and the job hung (>300 s at sf0.001)."""
    import pandas as pd

    fps = _run_one_cpu_session(ONE_CPU_EXTRACT, SF_DIR)
    _assert_golden_fingerprints(pd.DataFrame({"doc_id": list(fps), "fp": list(fps.values())}))


# every dataops query whose map stages ran as per-Dataset actor pools,
# the two whose Jaccard verify waited on an all-to-all, the ones whose
# keyless combine (a repartition(1)) ran beside independent reads, and
# the ones that run a shared read, term-count or top-k helper
ONE_CPU_QUERY_NAMES = [
    "langid",
    "doc_size_histogram",
    "minhash_candidates",
    "embedding_near_dups",
    "ann_topk_lsh",
    "ann_topk",
    "orders_by_nation",
    "top_parts_by_quantity",
    "contamination_check",
    "ann_topk_ivf",
    "small_quantity_revenue",
    "heavy_hitters",
    "minhash_pairs",
    "minhash_dedup",
    "priority_semi_counts",
    "churned_customers",
    "source_lang_rollup",
    "dup_group_histogram",
    "distinct_users_exact",
    "cohort_retention",
    "event_interarrival",
    "shipping_priority",
    "filtered_corpus",
    "exact_dedup",
    "tfidf_top_terms",
    "unigram_surprisal",
    "top_docs_per_lang",
    "quota_sample_per_source",
    "top_users_by_events",
    "stopword_counts",
    "kmeans_clusters",
]


def test_one_cpu_session_runs_dataops_queries():
    """The dataops map stages run on the task pool, so each query
    finishes in a 1-CPU session with the same (rows, value hash) as in
    the 4-CPU test session.  As actor pools they hung there: the pool
    held the only CPU and the read stage could not be scheduled.  The
    MinHash verify hung too: a repartition waited in Ray Data's
    scheduling thread for the CPU a paused document read held."""
    import __ray_entry__ as E
    from tests.dataops_util import rows_and_hash

    got = _run_one_cpu_session(ONE_CPU_QUERIES, SF_DIR, *ONE_CPU_QUERY_NAMES)
    qs = E.queries()
    want = {q: rows_and_hash(qs[q](SF_DIR)) for q in ONE_CPU_QUERY_NAMES}
    assert got == want


def test_resume_recomputes_on_corrupt_manifest(tmp_path):
    """A torn/corrupt manifest JSON (crash mid-write) must mark the
    shard incomplete and recompute it, not crash the resume."""
    import json
    import os

    from html_extract import pipeline as P

    out = str(tmp_path / "out")
    m1 = P.run_pipeline("/root/testdata/sf0.001", out, num_shards=2)
    assert len(m1) == 2
    mpath = os.path.join(out, "_manifests", "shard-1.json")
    with open(mpath, "w") as f:
        f.write('{"truncated": ')  # torn write
    m2 = P.run_pipeline("/root/testdata/sf0.001", out, num_shards=2)
    assert len(m2) == 2
    with open(mpath) as f:
        fixed = json.load(f)
    assert fixed["row_count"] == m1[1]["row_count"]
    # shard 0 untouched (same completion stamp), shard 1 recomputed
    assert m2[0]["completed_at"] == m1[0]["completed_at"]
    assert m2[1]["completed_at"] != m1[1]["completed_at"]


def test_multifile_run_pipeline_end_to_end(tmp_path):
    """documents/ directory of part files through the FULL run_pipeline
    (shard manifests + output parquet), not just load_documents."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from html_extract import pipeline as P

    src = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).head(120)
    ddir = tmp_path / "documents"
    ddir.mkdir()
    for i in range(6):
        part = src.iloc[i * 20 : (i + 1) * 20]
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False),
                       ddir / f"part-{i}.parquet")

    out = str(tmp_path / "out")
    manifests = P.run_pipeline(str(tmp_path), out, num_shards=3)
    assert len(manifests) == 3
    total = sum(m["row_count"] for m in manifests)
    assert total == 120
    import glob

    import ray.data as rd

    got = sum(
        rd.read_parquet(d).count() for d in sorted(glob.glob(out + "/shard=*"))
    )
    assert got == 120


def test_pathological_document_skew_isolation(tmp_path):
    """One enormous/deep document among many small ones: the size-cut
    adapter must isolate it into its own block(s) and the pipeline must
    produce correct spans for every doc (north-rule skew handling)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from html_extract import pipeline as P

    small = ["plain words " * 30] * 50
    # a deep + wide monster (~1.5 MB of text after page synthesis)
    monster = ("nested content with words " * 20 + "\n\n") * 800
    texts = small[:25] + [monster] + small[25:]
    ids = list(range(len(texts)))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        tmp_path / "documents.parquet",
    )
    ds = P.extracted_dataset(str(tmp_path), batch_size=16)
    out = ds.to_pandas()
    assert len(out) == 51
    assert out["ok"].all()
    # the monster doc produced spans too (not dropped/poisoned)
    monster_row = out[out["doc_id"] == "doc-000000000025"]
    assert len(monster_row) == 1
    assert len(monster_row.iloc[0]["spans"]) >= 5


def test_cli_job_submit_surface(tmp_path):
    """The `python -m html_extract` CLI — the `ray job submit`
    entrypoint surface — runs end-to-end in a fresh process: extract
    writes sharded output + manifests; parse/serialize work over
    stdin (incl. the round-3 --pretty mode)."""
    import json
    import subprocess
    import sys

    out_dir = tmp_path / "out"
    r = subprocess.run(
        [
            sys.executable, "-m", "html_extract", "extract",
            "--sf", SF_DIR, "--out", str(out_dir), "--shards", "2",
        ],
        capture_output=True, text=True, timeout=300,
        env={**__import__("os").environ, "RAY_ADDRESS": "local"},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    manifests = json.loads(r.stdout)
    assert len(manifests) == 2
    assert sum(m["row_count"] for m in manifests) == 500
    assert (out_dir / "_manifests").is_dir()

    r = subprocess.run(
        [sys.executable, "-m", "html_extract", "parse"],
        input="<p>hello <img src=x></p>",
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0
    rows = [json.loads(l) for l in r.stdout.strip().splitlines()]
    assert any(row["kind"] == "media" and row["media_ref"] == "x" for row in rows)

    r = subprocess.run(
        [sys.executable, "-m", "html_extract", "serialize", "--pretty"],
        input="<div><p> x </p></div>",
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0
    assert "\n" in r.stdout and "<p>x</p>" in r.stdout
