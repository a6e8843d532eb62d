"""Local stand-in for the driver's correctness gate: run every queries()
entry and its oracle_sql() side by side on the same sf dir and compare
row-count + schema + order-insensitive values. Usage:

    python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

import duckdb
import pandas as pd
import ray
import ray.data

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    ray.data.DataContext.get_current().enable_progress_bars = False

    # the checkout this script lives in, not whichever one is on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entry_mod

    queries = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in queries.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            result = fn(sf_dir)
            if isinstance(result, ray.data.Dataset):
                got = result.to_pandas()
            elif hasattr(result, "to_pandas"):
                got = result.to_pandas()
            else:
                got = pd.DataFrame(result)
        except Exception as e:
            print(f"FAIL {name}: ray error {type(e).__name__}: {str(e)[:200]}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok?  {name}: rows-only ({len(got)} rows, {dt:.1f}s)")
            if len(got) == 0 and name != "empty":
                print(f"     WARNING: zero rows")
            continue
        try:
            exp = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle error {str(e)[:200]}")
            failures.append(name)
            continue
        g, e = normalize(got), normalize(exp)
        if list(g.columns) != list(e.columns):
            print(f"FAIL {name}: columns {list(g.columns)} vs {list(e.columns)}")
            failures.append(name)
            continue
        if len(g) != len(e):
            print(f"FAIL {name}: rows {len(g)} vs {len(e)}")
            failures.append(name)
            continue
        if not g.equals(e):
            neq = (g != e).any(axis=1)
            print(f"FAIL {name}: {int(neq.sum())}/{len(g)} rows differ")
            print("  got:", g[neq].head(3).to_dict("records"))
            print("  exp:", e[neq].head(3).to_dict("records"))
            failures.append(name)
            continue
        print(f"OK   {name} ({len(g)} rows, {dt:.1f}s)")
    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all queries match")


if __name__ == "__main__":
    main()
