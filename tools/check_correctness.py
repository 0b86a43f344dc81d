"""Local stand-in for the driver's correctness gate: run every
queries() entry at a given sf and compare against oracle_sql() via
DuckDB (row count + column names + order-insensitive value hash).

Usage: python tools/check_correctness.py [sf_dir]   (from any directory:
the checkout is put on the driver's sys.path and on the Ray workers'
PYTHONPATH)
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import duckdb
import pandas as pd


TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings".split()
)


def to_pandas(result):
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pd.DataFrame):
        return result
    try:
        import pyarrow as pa

        if isinstance(result, pa.Table):
            return result.to_pandas()
    except ImportError:
        pass
    raise TypeError(type(result))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    df = canon(df)
    payload = df.astype(str).to_csv(index=False).encode()
    return hashlib.md5(payload).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        # the Ray workers import html_extract too, from any working directory
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )
    qs = E.queries()
    oracles = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(got)} rows, cols={sorted(got.columns)})")
            continue
        try:
            want = con.sql(oracles[name]).df()
        except Exception as exc:
            print(f"FAIL {name}: oracle raised {exc}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value hash mismatch")
            a, b = canon(got), canon(want)
            diff = a.astype(str).compare(b.astype(str)) if len(a) == len(b) else None
            if diff is not None and len(diff):
                problems.append(f"first diffs:\n{diff.head(5)}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(str(p) for p in problems))
            failures += 1
        else:
            print(f"PASS {name}: {len(got)} rows match oracle")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
