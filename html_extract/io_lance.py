"""Lance-first storage shim with a Parquet fallback.

Output tables are written as Lance when the ``lance`` package is
installed and as Parquet with an identical schema otherwise.  Reads go
through ``dataops._read_files``.
"""

import ray.data as rd

try:  # pragma: no cover - not available in the sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def write_dataset(ds: "rd.Dataset", path: str, **kwargs) -> None:
    if HAVE_LANCE:
        ds.write_lance(path, **kwargs)
    else:
        ds.write_parquet(path, **kwargs)
