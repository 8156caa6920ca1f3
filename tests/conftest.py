from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pytest

from __ray_entry__ import _SF0001 as SF


@pytest.fixture(scope="session")
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield ray
    ray.shutdown()


# ---- oracle harness shared by the operator tests ---------------------------

def _pd(res) -> pd.DataFrame:
    """A query result (Dataset, Arrow table or DataFrame) as pandas."""
    import ray.data
    if isinstance(res, (ray.data.Dataset, pa.Table)):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame, decimals: int | None = None) -> pd.DataFrame:
    """Order-insensitive comparison form: columns sorted by name, rows
    sorted, integers widened to int64, and floats rounded to
    ``decimals`` places when it is given."""
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if decimals is not None and pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(decimals)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df


def _con(sf: str = SF):
    """A DuckDB connection with a view per table in ``sf``."""
    import duckdb
    con = duckdb.connect()
    for f in sorted(os.listdir(sf)):
        if f.endswith(".parquet"):
            con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * "
                        f"FROM read_parquet('{os.path.join(sf, f)}')")
    return con


def _oracle(name: str, sf: str = SF) -> pd.DataFrame:
    """``oracle_sql()[name]`` run by DuckDB over every table in ``sf``."""
    import __ray_entry__ as E
    return _con(sf).execute(E.oracle_sql()[name]).fetchdf()


def _assert_matches_oracle(name: str, got=None, sf: str = SF,
                           decimals: int | None = None) -> None:
    """``got`` (default: the ``queries()[name]`` result on ``sf``) equals
    the DuckDB oracle's answer up to row order, with the same dtypes
    after integer widening (as ``tools/check_oracles.py`` compares).
    Floats are compared with ``assert_frame_equal``'s relative tolerance,
    after rounding to ``decimals`` places when it is given."""
    if got is None:
        import __ray_entry__ as E
        got = E.queries()[name](sf)
    mine = _canon(_pd(got), decimals)
    gold = _canon(_oracle(name, sf), decimals)
    assert list(mine.columns) == list(gold.columns)
    assert len(mine) == len(gold), (len(mine), len(gold))
    pd.testing.assert_frame_equal(mine, gold)
