"""Seeded tables for the operator queries of traced runs, and
from-scratch references for the queries that have no SQL oracle.

The tables have the schema and the row counts of the repository's sf0.1
test data (a TPC-H-like star schema plus events, documents and
embeddings).  Every money-like double (prices, balances, event values)
is a multiple of 0.25 and every discount is one of 0, 0.25 and 0.5.
Sums of such values are exact in binary floating point in any order, and
rounding them to 2 or 6 decimals is the identity, so the DuckDB
comparison does not depend on summation order.
"""

from __future__ import annotations

import os
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_NATIONS = 25
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
VOCAB = ("a agg batch big column customer data dup fast filter group hash "
         "join key line merge order part query row scan slow small sort "
         "spark stream table the value vector window").split()
LANGS = ["en", "de", "fr", "es", "zh"]
EVENT_TYPES = ["view", "click", "purchase", "signup", "error"]

# the row counts of the sf0.1 test tables
SIZES = {"customer": 15000, "supplier": 1000, "part": 20000,
         "orders": 150000, "lineitem": 600000, "events": 100000,
         "users": 1500, "documents": 5000, "embeddings": 2000, "dim": 64,
         "labels": 10}


def _quarters(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(int(lo * 4), int(hi * 4), n) / 4.0


def _days(rng, start: datetime, n_days: int, n: int) -> pa.Array:
    """Midnight timestamps on ``n`` random days from ``start``."""
    base = int(start.timestamp()) * 10**6
    us = base + rng.integers(0, n_days, n) * 86400 * 10**6
    return pa.array(us, pa.timestamp("us"))


def write_tables(out_dir: str, seed: int) -> str:
    """Write the ten tables as ``<name>.parquet`` under ``out_dir``."""
    rng = np.random.default_rng(seed)
    s = SIZES
    os.makedirs(out_dir, exist_ok=True)
    tables = {}
    tables["region"] = pa.table({
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": REGIONS})
    tables["nation"] = pa.table({
        "n_nationkey": pa.array(range(N_NATIONS), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(N_NATIONS)],
        "n_regionkey": pa.array([i % 5 for i in range(N_NATIONS)],
                                pa.int32())})
    nc = s["customer"]
    tables["customer"] = pa.table({
        "c_custkey": pa.array(range(nc), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(nc)],
        "c_nationkey": pa.array(rng.integers(0, N_NATIONS, nc), pa.int32()),
        "c_acctbal": _quarters(rng, -999, 9999, nc),
        "c_mktsegment": rng.choice(["AUTOMOBILE", "BUILDING", "FURNITURE",
                                    "HOUSEHOLD", "MACHINERY"], nc)})
    ns = s["supplier"]
    tables["supplier"] = pa.table({
        "s_suppkey": pa.array(range(ns), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(ns)],
        "s_nationkey": pa.array(rng.integers(0, N_NATIONS, ns), pa.int32()),
        "s_acctbal": _quarters(rng, -999, 9999, ns)})
    npart = s["part"]
    tables["part"] = pa.table({
        "p_partkey": pa.array(range(npart), pa.int64()),
        "p_name": [" ".join(rng.choice(["large", "hot", "small", "ring",
                                        "bolt", "nut", "steel"], 2))
                   for _ in range(npart)],
        "p_brand": [f"Brand#{b}" for b in rng.integers(10, 60, npart)],
        "p_type": rng.choice(["LARGE", "ECONOMY", "STANDARD", "PROMO"],
                             npart),
        "p_size": pa.array(rng.integers(1, 51, npart), pa.int32()),
        "p_retailprice": _quarters(rng, 900, 2000, npart)})
    no = s["orders"]
    tables["orders"] = pa.table({
        "o_orderkey": pa.array(range(no), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, nc, no), pa.int64()),
        "o_orderstatus": rng.choice(["O", "F", "P"], no),
        "o_totalprice": _quarters(rng, 1000, 400000, no),
        "o_orderdate": _days(rng, datetime(1995, 1, 1), 6 * 365, no),
        "o_orderpriority": rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"], no)})
    nl = s["lineitem"]
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, no, nl), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, npart, nl), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, ns, nl), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, nl), pa.int32()),
        "l_quantity": rng.integers(1, 51, nl).astype(np.float64),
        "l_extendedprice": rng.integers(900, 100000, nl).astype(np.float64),
        "l_discount": rng.choice([0.0, 0.25, 0.5], nl),
        "l_tax": rng.choice([0.0, 0.25], nl),
        "l_returnflag": rng.choice(["N", "R", "A"], nl),
        "l_linestatus": rng.choice(["O", "F"], nl),
        "l_shipdate": _days(rng, datetime(1995, 1, 2), 6 * 365, nl)})
    ne = s["events"]
    t0 = int(datetime(2024, 1, 1).timestamp()) * 10**6
    ts = np.sort(t0 + rng.integers(0, 30 * 86400 * 10**6, ne))
    tables["events"] = pa.table({
        "event_id": pa.array(range(ne), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, s["users"], ne), pa.int64()),
        "event_type": rng.choice(EVENT_TYPES, ne),
        "value": _quarters(rng, 0, 500, ne),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, ne)]})
    nd = s["documents"]
    texts = []
    for i in range(nd):
        if i > 10 and rng.random() < 0.1:      # planted exact duplicate
            texts.append(texts[int(rng.integers(0, i))])
        else:
            texts.append(" ".join(rng.choice(VOCAB,
                                             int(rng.integers(8, 90)))))
    tables["documents"] = pa.table({
        "doc_id": pa.array(range(nd), pa.int64()),
        "text": texts,
        "lang": rng.choice(LANGS, nd, p=[0.44, 0.14, 0.13, 0.14, 0.15]),
        "source": [f"src{i % 20}" for i in range(nd)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64())})
    nv, dim = s["embeddings"], s["dim"]
    centers = rng.normal(size=(s["labels"], dim))
    labels = rng.integers(0, s["labels"], nv)
    x = centers[labels] + 0.8 * rng.normal(size=(nv, dim))
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    tables["embeddings"] = pa.table({
        "vec_id": pa.array(range(nv), pa.int64()),
        "embedding": pa.array(list(x), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32())})
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir


# ---- references for rows-only queries ------------------------------------

def kcenter_reference(sf_dir: str, k: int = 16) -> list[tuple[int, int, int]]:
    """Greedy farthest-point selection by its stated definition: start at
    vec_id 0; k-1 times pick the vector with the largest squared L2
    distance to its nearest picked vector (ties to the lowest vec_id).
    Rows: (pick_order, vec_id, floor(dist_sq * 1e6 + 0.5))."""
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    order = np.argsort(np.asarray(t.column("vec_id")))
    ids = np.asarray(t.column("vec_id"))[order]
    x = np.asarray(t.column("embedding").to_pylist(), np.float64)[order]
    first = int(np.flatnonzero(ids == 0)[0])
    nearest = ((x - x[first]) ** 2).sum(axis=1)
    picks = [(0, 0, 0)]
    for i in range(1, k):
        j = int(np.lexsort((ids, -nearest))[0])
        picks.append((i, int(ids[j]), int(np.floor(nearest[j] * 1e6 + 0.5))))
        nearest = np.minimum(nearest, ((x - x[j]) ** 2).sum(axis=1))
    return picks

