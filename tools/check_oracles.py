"""Mimic the driver's correctness check: run each queries() entry at a
given sf and compare against oracle_sql() via DuckDB (row count + schema +
order-insensitive value hash)."""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    # normalize dtypes for comparison
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df


def main(sf_dir: str, only=None):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")

    qs = E.queries()
    oracles = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name}: query raised {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} (rows-only) {dt:.1f}s")
            continue
        gold = canon(con.execute(oracles[name]).fetchdf())
        if list(mine.columns) != list(gold.columns):
            print(f"FAIL {name}: columns {list(mine.columns)} vs "
                  f"{list(gold.columns)}")
            failures += 1
            continue
        if len(mine) != len(gold):
            print(f"FAIL {name}: rows {len(mine)} vs {len(gold)}")
            failures += 1
            continue
        eq = mine.equals(gold)
        if not eq:
            diff = (mine != gold) & ~(mine.isna() & gold.isna())
            bad = diff.any(axis=1)
            print(f"FAIL {name}: value mismatch in {int(bad.sum())} rows")
            print(pd.concat([mine[bad].head(3), gold[bad].head(3)]))
            failures += 1
        else:
            print(f"ok   {name}: rows={len(mine)} MATCH {dt:.1f}s")
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:]) or None
    sys.exit(1 if main(sf, only) else 0)
