"""Driver-side conveniences over the dataops Datasets for small test
corpora: collect a result and sort it deterministically."""

import hashlib

import pandas as pd
import ray.data as rd

from html_extract import dataops as D


def minhash_candidates_df(sf_dir, cap=64) -> pd.DataFrame:
    """Collected candidate pairs sorted by (a, b)."""
    out = D.minhash_candidates(sf_dir, cap).to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ("a", "b", "n_bands")}
        )
    return out.sort_values(["a", "b"], ignore_index=True)


def minhash_dedup_df(sf_dir, **kw) -> pd.DataFrame:
    """Collected cluster assignment sorted by doc_id."""
    out = D.minhash_dedup(sf_dir, **kw).to_pandas()
    if "doc_id" not in out.columns:  # empty corpus
        return pd.DataFrame({"doc_id": [], "cluster_id": []})
    return out.sort_values("doc_id", ignore_index=True)


def embedding_near_dups_df(sf_dir, **kw) -> pd.DataFrame:
    """Collected embedding near-dup pairs sorted by (a, b)."""
    out = D.embedding_near_dups(sf_dir, **kw).to_pandas()
    if "a" not in out.columns or len(out) == 0:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
        )
    return out.sort_values(["a", "b"], ignore_index=True).astype("int64")


def rows_and_hash(result) -> list:
    """[rows, order-insensitive value hash] of a query result (a Dataset
    or a DataFrame): md5 of its CSV with columns and rows sorted."""
    df = result.to_pandas() if isinstance(result, rd.Dataset) else result
    df = df.reindex(sorted(df.columns), axis=1).astype(str)
    df = df.sort_values(list(df.columns), ignore_index=True)
    return [len(df), hashlib.md5(df.to_csv(index=False).encode()).hexdigest()]
