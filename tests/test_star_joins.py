"""Star joins over foreign keys that miss their dimension.

A copy of sf0.001 gets dangling keys on every join edge: order customers,
lineitem suppliers and parts pointing past the dimension's largest key
(or at 0), and customer/supplier nations that no nation row has.  Every
operator that joins a fact to a dimension must still give its oracle's
answer, where the SQL inner ``JOIN`` drops the rows whose key misses.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import SF, _assert_matches_oracle

STAR_JOINS = [
    "local_supplier_revenue", "revenue_by_nation", "returned_items",
    "promo_revenue", "supplier_balance_by_region", "nation_trade_balance",
    "volume_shipping", "product_profit", "order_revenue",
    "customers_no_orders", "customer_order_distribution",
    "orders_with_bulk_items", "shipping_priority", "large_orders",
    "small_qty_revenue", "forecast_revenue", "discount_bracket_revenue",
    "skewed_part_revenue", "rich_customers_no_orders",
    "users_vs_customers_outer", "events_asof_orders", "revenue_rollup",
]

# (table, column, every n-th row, replacement keys taken in turn)
_DANGLE = [
    ("orders", "o_custkey", 7, ("customer", "c_custkey", 7)),
    ("lineitem", "l_suppkey", 11, ("supplier", "s_suppkey", 3)),
    ("lineitem", "l_partkey", 13, ("part", "p_partkey", 5)),
    ("customer", "c_nationkey", 9, 99),
    ("supplier", "s_nationkey", 5, 99),
]


def _max_key(sf: str, table: str, col: str) -> int:
    return int(np.max(pq.read_table(os.path.join(sf, f"{table}.parquet"),
                                    columns=[col]).column(col)))


@pytest.fixture(scope="module")
def dangling_sf(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("sf_dangling"))
    for f in os.listdir(SF):
        shutil.copyfile(os.path.join(SF, f), os.path.join(out, f))
    for table, col, every, repl in _DANGLE:
        path = os.path.join(out, f"{table}.parquet")
        t = pq.read_table(path)
        vals = np.asarray(t.column(col)).copy()
        rows = np.arange(0, len(vals), every)
        if isinstance(repl, tuple):     # past the largest key, or 0
            past = _max_key(SF, repl[0], repl[1]) + repl[2]
            vals[rows] = np.where(np.arange(len(rows)) % 2 == 0, past, 0)
        else:                           # a key no dimension row has
            vals[rows] = repl
        i = t.schema.get_field_index(col)
        t = t.set_column(i, t.schema.field(i),
                         pa.array(vals, t.schema.field(i).type))
        pq.write_table(t, path)
    return out


@pytest.mark.parametrize("name", STAR_JOINS)
def test_star_join_with_dangling_keys_matches_oracle(ray_session,
                                                     dangling_sf, name):
    _assert_matches_oracle(name, sf=dangling_sf)


def test_probe_misses_below_above_and_between_keys():
    from iesl_pdf_to_text_ray.pipelines.joins import Lookup
    lk = Lookup(np.array([10, 20, 30]), {"v": np.array(["a", "b", "c"],
                                                       dtype=object)})
    hit, row = lk.probe(np.array([5, 10, 15, 30, 35, 20]))
    assert hit.tolist() == [False, True, False, True, False, True]
    assert lk["v"][row].tolist() == ["a", "c", "b"]
    empty = Lookup(np.empty(0, np.int64), {"v": np.empty(0)})
    hit, row = empty.probe(np.array([0, 1]))
    assert not hit.any() and len(row) == 0


def test_build_drops_null_keys_and_keeps_first_of_repeated_key(tmp_path):
    import pyarrow.compute as pc
    from iesl_pdf_to_text_ray.pipelines.joins import _build_lookup
    pq.write_table(pa.table({"p_partkey": [3, 1, 2, 2, None],
                             "p_type": ["PROMO", None, "STD", "PROMO",
                                        "PROMO"]}),
                   tmp_path / "part.parquet")
    lk = _build_lookup(
        "p_partkey",
        {"promo": pc.coalesce(pc.field("p_type") == "PROMO", False)},
        str(tmp_path / "part.parquet"))
    assert lk.keys.tolist() == [1, 2, 3]
    # a null p_type is not a promo; the flag stays a bool array
    assert lk["promo"].dtype == np.bool_
    assert lk["promo"].tolist() == [False, False, True]
    hit, row = lk.probe(np.array([2, 9, 3]))
    assert hit.tolist() == [True, False, True]
    assert lk["promo"][row].tolist() == [False, True]


def test_volume_shipping_customer_join_path_with_dangling_keys(
        ray_session, dangling_sf):
    """The size-gated path that hash-joins customer instead of
    broadcasting it drops dangling keys the same way."""
    from iesl_pdf_to_text_ray.pipelines.table_ops_r5b import volume_shipping
    _assert_matches_oracle(
        "volume_shipping",
        volume_shipping(dangling_sf, broadcast_customer_max_bytes=0),
        dangling_sf)
