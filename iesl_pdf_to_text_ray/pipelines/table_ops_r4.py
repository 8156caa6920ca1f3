"""Round-4 query pack: deeper relational coverage (TPC-H Q3/Q6/Q10/
Q14/Q17/Q18 flavors over the available columns), the remaining window
shapes (ranked top-N per partition, frame-bounded moving aggregate,
LAG-pair transition counts), behavioral analytics (funnel, daily active
users), corpus statistics (length histogram, keyword screen) and an
embedding centroid reduction.

Every query has an ANSI-SQL oracle in ``__ray_entry__.oracle_sql`` and
follows the house exactness discipline: money as sign-aware
half-away-from-zero integer cents (``_cents``), quantities as exact
integer-valued doubles (integer arithmetic for thresholds — ``2*qty*n <
sum`` instead of ``qty < 0.5*avg``), floats only where a round(…, 6) is
pinned on both sides.

Scale shapes reused from the round-1..3 modules: column-pruned reads,
per-batch partial aggregation before every groupby, partitioned hash
joins with aggregation folded into the partition merge
(``joins.hash_join(merge_post=…)``), broadcast small sides built in a
worker task, coarse hash partitions for window functions, and
``_global_topk`` (local top-k partial + one tiny merge) instead of a
global sort for constant-k answers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .joins import Lookup, _pd_table, broadcast_lookup, hash_join
from .table_ops import (_cents, _global_topk, _nation_lookup,
                        _partitioned_agg, _read_sized)


# ------------------------------------------------------------ helpers

def _scalar_reduce(ds, final_fn):
    """Merge one-row-per-batch partials into a single-row result: the
    partials are O(n_blocks) rows, so the repartition(1) exchange is
    constant-size regardless of input scale."""
    return ds.repartition(1).map_batches(final_fn, batch_format="pyarrow",
                                         batch_size=None)


# ------------------------------------------------- TPC-H flavored scans

_FORECAST_PARTIAL = pa.schema([("part_cents", pa.int64()),
                               ("part_n", pa.int64())])
_FORECAST_SCHEMA = pa.schema([("revenue_cents", pa.int64()),
                              ("n_items", pa.int64())])


def forecast_revenue(sf_dir: str):
    """TPC-H Q6 flavor: potential revenue increase from eliminating
    small discounts — a pure filter + scalar aggregate, the cheapest
    query shape there is.  One streaming pass, one-row partials, a
    constant-size final merge; at 100 TB the shipdate/discount filters
    belong in parquet row-group predicate pushdown (the read is pruned
    to the four touched columns here)."""
    ds = _read_sized(sf_dir, "lineitem",
                     columns=["l_shipdate", "l_discount", "l_quantity",
                              "l_extendedprice"])
    lo = np.datetime64("1997-01-01")
    hi = np.datetime64("1998-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        ship = np.asarray(batch.column("l_shipdate"))
        disc = np.asarray(batch.column("l_discount"))
        qty = np.asarray(batch.column("l_quantity"))
        price = np.asarray(batch.column("l_extendedprice"))
        keep = ((ship >= lo) & (ship < hi)
                & (disc >= 0.05) & (disc <= 0.07) & (qty < 24))
        cents = _cents(price[keep] * disc[keep])
        return pa.table({"part_cents": pa.array([int(cents.sum())],
                                                pa.int64()),
                         "part_n": pa.array([int(keep.sum())], pa.int64())},
                        schema=_FORECAST_PARTIAL)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_cents": pa.array(
                [int(np.asarray(batch.column("part_cents")).sum())],
                pa.int64()),
            "n_items": pa.array(
                [int(np.asarray(batch.column("part_n")).sum())],
                pa.int64())}, schema=_FORECAST_SCHEMA)

    ds = ds.map_batches(partial, batch_format="pyarrow")
    return _scalar_reduce(ds, final)


_SHIPPRIO_SCHEMA = pa.schema([
    ("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
    ("revenue_cents", pa.int64())])


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      k: int = 10, n_parts: int = 32):
    """TPC-H Q3 flavor: top-k unshipped orders by revenue for one market
    segment.  Three-table shape at scale: customer is a broadcast lookup
    carrying an in-segment flag (customer is the small side), orders
    keep the rows whose customer is found and in the segment, and the
    remaining large x large orders x lineitem join is the partitioned
    hash join with per-order aggregation + local top-k folded into the
    partition merge, so the final exchange carries n_parts*k rows."""
    import ray

    cust_ref = broadcast_lookup(
        sf_dir, "customer", "c_custkey",
        {"in_segment": pc.coalesce(pc.field("c_mktsegment") == segment,
                                   False)})
    cutoff = np.datetime64("1998-01-01")

    def orders_filter(batch: pa.Table) -> pa.Table:
        cust = ray.get(cust_ref)
        hit, row = cust.probe(np.asarray(batch.column("o_custkey")))
        keep = hit & (np.asarray(batch.column("o_orderdate")) < cutoff)
        keep[hit] &= cust["in_segment"][row]
        return batch.filter(pa.array(keep)) \
            .select(["o_orderkey", "o_orderdate"])

    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_custkey",
                                  "o_orderdate"]) \
        .map_batches(orders_filter, batch_format="pyarrow")

    def lineitem_filter(batch: pa.Table) -> pa.Table:
        ship = np.asarray(batch.column("l_shipdate"))
        price = np.asarray(batch.column("l_extendedprice"))
        disc = np.asarray(batch.column("l_discount"))
        keep = ship >= cutoff
        cents = _cents(price[keep] * (1.0 - disc[keep]))
        return pa.table({
            "l_orderkey": batch.column("l_orderkey").filter(pa.array(keep)),
            "item_cents": pa.array(cents, pa.int64())})

    lineitem = _read_sized(sf_dir, "lineitem",
                           columns=["l_orderkey", "l_shipdate",
                                    "l_extendedprice", "l_discount"]) \
        .map_batches(lineitem_filter, batch_format="pyarrow")

    def per_order_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_orderkey", "o_orderdate"], as_index=False) \
            .agg(revenue_cents=("item_cents", "sum"))
        return g.sort_values(["revenue_cents", "o_orderkey"],
                             ascending=[False, True]).head(k)

    ds = hash_join(orders, lineitem, "o_orderkey", "l_orderkey",
                   n_parts=n_parts, merge_post=per_order_topk,
                   post_schema=_SHIPPRIO_SCHEMA)
    return _global_topk(ds, ["revenue_cents", "o_orderkey"],
                        [False, True], k)


_RET_PARTIAL = pa.schema([("l_orderkey", pa.int64()),
                          ("part_cents", pa.int64())])
_RET_JOIN_SCHEMA = pa.schema([("o_custkey", pa.int64()),
                              ("part_cents", pa.int64())])
_RET_SCHEMA = pa.schema([
    ("c_custkey", pa.int64()), ("c_name", pa.string()),
    ("n_name", pa.string()), ("revenue_cents", pa.int64())])


def returned_items(sf_dir: str, k: int = 20, n_parts: int = 32):
    """TPC-H Q10 flavor: top-k customers by revenue lost to returned
    items.  Lineitem is pre-aggregated per order inside map_batches (the
    combiner halves the shuffled rows before the join), joined to orders
    with per-customer aggregation folded into the partition merge, then
    the customer-name / nation-name decoration is two broadcast lookups
    (customer -> name and nation key, nation key -> name) — never a
    third shuffle."""
    import ray

    def li_partial(batch: pa.Table) -> pa.Table:
        flag = np.asarray(batch.column("l_returnflag")) == "R"
        price = np.asarray(batch.column("l_extendedprice"))[flag]
        disc = np.asarray(batch.column("l_discount"))[flag]
        okey = np.asarray(batch.column("l_orderkey"))[flag]
        df = pd.DataFrame({"l_orderkey": okey,
                           "cents": _cents(price * (1.0 - disc))})
        g = df.groupby("l_orderkey", as_index=False) \
            .agg(part_cents=("cents", "sum"))
        return _pd_table(g, _RET_PARTIAL)

    lineitem = _read_sized(sf_dir, "lineitem",
                           columns=["l_orderkey", "l_returnflag",
                                    "l_extendedprice", "l_discount"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_custkey"])

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False) \
            .agg(part_cents=("part_cents", "sum"))

    joined = hash_join(orders, lineitem, "o_orderkey", "l_orderkey",
                       n_parts=n_parts, merge_post=per_cust,
                       post_schema=_RET_JOIN_SCHEMA)

    # partition merge is per-orderkey-exact; customers span orders, so
    # one more coarse-partition reduce over the per-partition customer
    # partials (a full-key-domain groupby here costs several times the
    # join itself)
    def cust_sum(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        g = df.groupby("o_custkey", as_index=False) \
            .agg(revenue_cents=("part_cents", "sum"))
        g["revenue_cents"] = g["revenue_cents"].astype(np.int64)
        return _pd_table(g, pa.schema([("o_custkey", pa.int64()),
                                       ("revenue_cents", pa.int64())]))

    per_customer = _partitioned_agg(joined, "o_custkey", cust_sum)

    refs = [broadcast_lookup(sf_dir, "customer", "c_custkey",
                             ["c_name", "c_nationkey"]),
            _nation_lookup(sf_dir)]

    def decorate(batch: pa.Table) -> pa.Table:
        cust, nation = ray.get(refs)
        key = np.asarray(batch.column("o_custkey"))
        hit, row = cust.probe(key)
        n_hit, n_row = nation.probe(cust["c_nationkey"][row])
        hit[hit] = n_hit
        row = row[n_hit]
        return pa.table({
            "c_custkey": pa.array(key[hit], pa.int64()),
            "c_name": pa.array(cust["c_name"][row], pa.string()),
            "n_name": pa.array(nation["n_name"][n_row], pa.string()),
            "revenue_cents": batch.column("revenue_cents")
                .filter(pa.array(hit)).cast(pa.int64())},
            schema=_RET_SCHEMA)

    ds = per_customer.map_batches(decorate, batch_format="pyarrow")
    return _global_topk(ds, ["revenue_cents", "c_custkey"],
                        [False, True], k)


_PROMO_PARTIAL = pa.schema([("part_promo", pa.int64()),
                            ("part_total", pa.int64())])
_PROMO_SCHEMA = pa.schema([("promo_cents", pa.int64()),
                           ("total_cents", pa.int64())])


def promo_revenue(sf_dir: str):
    """TPC-H Q14 flavor: promotional share of 1997 revenue.  The
    part-type lookup is a broadcast partkey -> is-promo flag (built once
    in a worker task), read by every lineitem batch; lineitems whose
    part is missing drop out of both sums, as in the oracle's inner
    join.  Revenue is a one-row-per-batch partial pair, so the only
    exchange is the constant-size final merge."""
    import ray

    part_ref = broadcast_lookup(
        sf_dir, "part", "p_partkey",
        {"promo": pc.coalesce(pc.field("p_type") == "PROMO", False)})
    lo = np.datetime64("1997-01-01")
    hi = np.datetime64("1998-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        part = ray.get(part_ref)
        ship = np.asarray(batch.column("l_shipdate"))
        hit, row = part.probe(np.asarray(batch.column("l_partkey")))
        keep = (ship >= lo) & (ship < hi) & hit
        price = np.asarray(batch.column("l_extendedprice"))[keep]
        disc = np.asarray(batch.column("l_discount"))[keep]
        cents = _cents(price * (1.0 - disc))
        promo = part["promo"][row[keep[hit]]]
        return pa.table({
            "part_promo": pa.array([int(cents[promo].sum())], pa.int64()),
            "part_total": pa.array([int(cents.sum())], pa.int64())},
            schema=_PROMO_PARTIAL)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "promo_cents": pa.array(
                [int(np.asarray(batch.column("part_promo")).sum())],
                pa.int64()),
            "total_cents": pa.array(
                [int(np.asarray(batch.column("part_total")).sum())],
                pa.int64())}, schema=_PROMO_SCHEMA)

    ds = _read_sized(sf_dir, "lineitem",
                     columns=["l_partkey", "l_shipdate", "l_extendedprice",
                              "l_discount"]) \
        .map_batches(partial, batch_format="pyarrow")
    return _scalar_reduce(ds, final)


_LARGE_PARTIAL = pa.schema([("li_orderkey", pa.int64()),
                            ("part_qty", pa.int64())])
_LARGE_SCHEMA = pa.schema([
    ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
    ("o_orderdate", pa.timestamp("us")), ("total_cents", pa.int64()),
    ("sum_qty", pa.int64())])


def large_orders(sf_dir: str, threshold: int = 250, k: int = 50,
                 n_parts: int = 32):
    """TPC-H Q18 flavor: top-k largest orders by total line quantity
    above a threshold.  ONE shuffle: per-batch per-order quantity
    partials (integer-valued doubles -> exact int64 combiner) flow
    straight into the partitioned hash join with orders, and the
    partition merge finishes the per-order sum, the HAVING filter and a
    local top-k — a separate pre-join groupby().aggregate() would be a
    second full exchange over O(orders) rows for nothing (measured 14.7 s
    vs 2.3 s for the join itself at sf0.1)."""
    def li_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "li_orderkey": np.asarray(batch.column("l_orderkey")),
            "qty": np.asarray(batch.column("l_quantity")).astype(np.int64)})
        g = df.groupby("li_orderkey", as_index=False) \
            .agg(part_qty=("qty", "sum"))
        return _pd_table(g, _LARGE_PARTIAL)

    partials = _read_sized(sf_dir, "lineitem",
                           columns=["l_orderkey", "l_quantity"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = _read_sized(sf_dir, "orders",
                         columns=["o_orderkey", "o_custkey",
                                  "o_orderdate", "o_totalprice"])

    def post(df: pd.DataFrame) -> pd.DataFrame:
        # all partials of an orderkey are co-located here: the in-merge
        # sum is the exact global per-order quantity
        g = df.groupby(["o_orderkey", "o_custkey", "o_orderdate",
                        "o_totalprice"], as_index=False) \
            .agg(sum_qty=("part_qty", "sum"))
        g = g[g["sum_qty"] > threshold]
        g = g.assign(total_cents=_cents(g["o_totalprice"].to_numpy()),
                     sum_qty=g["sum_qty"].astype(np.int64))
        return g.sort_values(["sum_qty", "o_orderkey"],
                             ascending=[False, True]).head(k)

    ds = hash_join(orders, partials, "o_orderkey", "li_orderkey",
                   n_parts=n_parts, merge_post=post,
                   post_schema=_LARGE_SCHEMA)
    return _global_topk(ds, ["sum_qty", "o_orderkey"], [False, True], k)


_SMALLQ_JOIN_SCHEMA = pa.schema([("part_cents", pa.int64()),
                                 ("part_rows", pa.int64())])
_SMALLQ_SCHEMA = pa.schema([("revenue_cents", pa.int64()),
                            ("n_items", pa.int64())])


def small_qty_revenue(sf_dir: str, n_parts: int = 32):
    """TPC-H Q17 flavor: revenue from lineitems whose quantity is below
    half their part's average quantity.  The per-part average is kept as
    an exact integer pair (sum, count) and the threshold test is the
    integer inequality ``2*qty*n < sum`` — no float average crosses the
    engine boundary, so the filter is bit-exact vs SQL.

    ONE shuffle: lineitem is coarse-hash-partitioned on l_partkey (all
    rows of a part co-located), and each partition group computes the
    per-part sums, applies the integer filter and emits a one-row scalar
    partial — the self-join formulation (pre-aggregate + hash join back
    to lineitem) pays a second full exchange of the same table for
    nothing."""
    ds = _read_sized(sf_dir, "lineitem",
                     columns=["l_partkey", "l_quantity",
                              "l_extendedprice"])

    def per_part_filter(group: pa.Table) -> pa.Table:
        pk = np.asarray(group.column("l_partkey"), dtype=np.int64)
        qty = np.asarray(group.column("l_quantity")).astype(np.int64)
        price = np.asarray(group.column("l_extendedprice"))
        order = np.argsort(pk, kind="stable")
        pk_s, qty_s, price_s = pk[order], qty[order], price[order]
        # per-part (sum, count) via run boundaries on the sorted keys
        run_id = np.cumsum(
            np.concatenate(([0], (pk_s[1:] != pk_s[:-1]).astype(np.int64))))
        sums = np.bincount(run_id, weights=qty_s).astype(np.int64)
        counts = np.bincount(run_id).astype(np.int64)
        keep = 2 * qty_s * counts[run_id] < sums[run_id]
        cents = _cents(price_s[keep])
        return pa.table({
            "part_cents": pa.array([int(cents.sum())], pa.int64()),
            "part_rows": pa.array([int(keep.sum())], pa.int64())},
            schema=_SMALLQ_JOIN_SCHEMA)

    parts = _partitioned_agg(ds, "l_partkey", per_part_filter,
                             n_parts=n_parts)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_cents": pa.array(
                [int(np.asarray(batch.column("part_cents")).sum())],
                pa.int64()),
            "n_items": pa.array(
                [int(np.asarray(batch.column("part_rows")).sum())],
                pa.int64())}, schema=_SMALLQ_SCHEMA)

    return _scalar_reduce(parts, final)


_SUPPBAL_PARTIAL = pa.schema([("r_name", pa.string()),
                              ("part_n", pa.int64()),
                              ("part_cents", pa.int64())])


def supplier_balance_by_region(sf_dir: str):
    """Dimension-chain rollup (supplier -> nation -> region): supplier
    account balance per region.  Both dimensions are tiny at any scale,
    so each is a broadcast lookup probed in turn; the fact scan emits
    one partial row per (batch, region) and the final groupby touches
    O(regions) rows."""
    import ray

    refs = [broadcast_lookup(sf_dir, "nation", "n_nationkey",
                             ["n_regionkey"]),
            broadcast_lookup(sf_dir, "region", "r_regionkey", ["r_name"])]

    def partial(batch: pa.Table) -> pa.Table:
        nation, region = ray.get(refs)
        df = nation.join(batch.to_pandas(), "s_nationkey",
                         rk="n_regionkey")
        g = df.assign(cents=_cents(df["s_acctbal"].to_numpy())) \
            .groupby("rk", as_index=False).agg(
                part_n=("cents", "size"), part_cents=("cents", "sum"))
        g = region.join(g, "rk", r_name="r_name")
        return _pd_table(g[["r_name", "part_n", "part_cents"]],
                         _SUPPBAL_PARTIAL)

    from ray.data.aggregate import Sum
    return _read_sized(sf_dir, "supplier",
                       columns=["s_nationkey", "s_acctbal"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("r_name").aggregate(
            Sum("part_n", alias_name="n_suppliers"),
            Sum("part_cents", alias_name="total_acctbal_cents"))


# ------------------------------------------------------ window queries

_RANK_SCHEMA = pa.schema([
    ("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
    ("rnk", pa.int64()), ("price_cents", pa.int64())])


def orders_rank_in_customer(sf_dir: str, k: int = 3, n_parts: int = 16):
    """ROW_NUMBER window: each customer's top-k orders by price.  Coarse
    hash partitions on the window key (the running_revenue pattern — all
    rows of one customer in one partition), vectorized sort + cumcount
    inside; never a per-key map_groups and never a global sort."""
    ds = _read_sized(sf_dir, "orders",
                     columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def rank(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort")
        df["rnk"] = df.groupby("o_custkey").cumcount() + 1
        df = df[df["rnk"] <= k]
        df = df.assign(price_cents=_cents(df["o_totalprice"].to_numpy()))
        df = df[["o_custkey", "o_orderkey", "rnk", "price_cents"]]
        return _pd_table(df, _RANK_SCHEMA)

    return _partitioned_agg(ds, "o_custkey", rank, n_parts=n_parts)


_MAVG_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("event_id", pa.int64()),
    ("w3_cents", pa.int64())])


def events_moving_sum(sf_dir: str, n_parts: int = 16):
    """Frame-bounded window (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW):
    per-user moving sum of event value over the last 3 events.  Values
    are integer cents so the rolling sum is exact; the frame only needs
    per-key order, so coarse hash partitions + a vectorized pandas
    rolling sum replace any global sort."""
    ds = _read_sized(sf_dir, "events",
                     columns=["user_id", "event_id", "ts", "value"])

    def window(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort")
        cents = pd.Series(_cents(df["value"].to_numpy()), index=df.index)
        w3 = (cents.groupby(df["user_id"])
              .rolling(3, min_periods=1).sum()
              .reset_index(level=0, drop=True))
        df["w3_cents"] = w3.astype(np.int64)
        df = df[["user_id", "event_id", "w3_cents"]]
        return _pd_table(df, _MAVG_SCHEMA)

    return _partitioned_agg(ds, "user_id", window, n_parts=n_parts)


_TRANS_PARTIAL = pa.schema([
    ("prev_type", pa.string()), ("event_type", pa.string()),
    ("part_n", pa.int64())])


def events_type_transitions(sf_dir: str, n_parts: int = 16):
    """LAG-pair statistics: global count of (previous event type ->
    event type) transitions within each user's timeline.  Window phase
    uses the coarse-partition pattern; the transition counting inside is
    a vectorized shift + value_counts emitting O(type^2) partial rows per
    partition, so the final groupby is constant-size."""
    ds = _read_sized(sf_dir, "events",
                     columns=["user_id", "event_id", "ts", "event_type"])

    def count_pairs(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = uid[1:] == uid[:-1]
        pairs = pd.DataFrame({"prev_type": et[:-1][same],
                              "event_type": et[1:][same]})
        g = pairs.groupby(["prev_type", "event_type"], as_index=False) \
            .size().rename(columns={"size": "part_n"})
        return _pd_table(g, _TRANS_PARTIAL)

    from ray.data.aggregate import Sum
    return _partitioned_agg(ds, "user_id", count_pairs, n_parts=n_parts) \
        .groupby(["prev_type", "event_type"]).aggregate(
            Sum("part_n", alias_name="n"))


# ------------------------------------------------- behavioral analytics

_SENTINEL = np.int64(2**62)
_FUNNEL_PARTIAL = pa.schema([
    ("user_id", pa.int64()), ("click_us", pa.int64()),
    ("purch_us", pa.int64())])
_FUNNEL_COUNT_PARTIAL = pa.schema([
    ("part_clicked", pa.int64()), ("part_purchased", pa.int64()),
    ("part_converted", pa.int64())])
_FUNNEL_SCHEMA = pa.schema([
    ("n_clicked", pa.int64()), ("n_purchased", pa.int64()),
    ("n_converted", pa.int64())])


def events_funnel(sf_dir: str):
    """Two-step funnel: users whose first click strictly precedes their
    first purchase.  Per-batch partial min timestamps per user (sentinel
    for absent steps), ONE coarse-partition shuffle of the per-user
    partials (all partials of a user co-located), per-partition count
    partials, constant-size merge."""
    ds = _read_sized(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type"))
        relevant = (et == "click") | (et == "purchase")
        uid = np.asarray(batch.column("user_id"))[relevant]
        us = np.asarray(batch.column("ts")).astype("datetime64[us]") \
            .astype(np.int64)[relevant]
        is_click = et[relevant] == "click"
        df = pd.DataFrame({
            "user_id": uid,
            "click_us": np.where(is_click, us, _SENTINEL),
            "purch_us": np.where(~is_click, us, _SENTINEL)})
        g = df.groupby("user_id", as_index=False).agg(
            click_us=("click_us", "min"), purch_us=("purch_us", "min"))
        return _pd_table(g, _FUNNEL_PARTIAL)

    def counts(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        g = df.groupby("user_id").agg(
            click_us=("click_us", "min"), purch_us=("purch_us", "min"))
        click = g["click_us"].to_numpy()
        purch = g["purch_us"].to_numpy()
        clicked = click < _SENTINEL
        purchased = purch < _SENTINEL
        converted = clicked & purchased & (click < purch)
        return pa.table({
            "part_clicked": pa.array([int(clicked.sum())], pa.int64()),
            "part_purchased": pa.array([int(purchased.sum())], pa.int64()),
            "part_converted": pa.array([int(converted.sum())], pa.int64())},
            schema=_FUNNEL_COUNT_PARTIAL)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_clicked": pa.array(
                [int(np.asarray(batch.column("part_clicked")).sum())],
                pa.int64()),
            "n_purchased": pa.array(
                [int(np.asarray(batch.column("part_purchased")).sum())],
                pa.int64()),
            "n_converted": pa.array(
                [int(np.asarray(batch.column("part_converted")).sum())],
                pa.int64())}, schema=_FUNNEL_SCHEMA)

    parts = _partitioned_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id", counts)
    return _scalar_reduce(parts, final)


_DAU_SCHEMA = pa.schema([("day", pa.string()), ("n_users", pa.int64())])


def daily_active_users(sf_dir: str):
    """Distinct users per day: per-batch (day, user) dedup is the
    combiner (the shuffle carries distinct pairs, not events), then one
    groupby(day) with a vectorized nunique.  At 100 TB the pair table is
    bounded by users x days, orders of magnitude below the event
    count."""
    ds = _read_sized(sf_dir, "events", columns=["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "day": pd.Series(batch.column("ts").to_pandas())
                .dt.strftime("%Y-%m-%d"),
            "user_id": np.asarray(batch.column("user_id"))})
        return _pd_table(df.drop_duplicates(),
                         pa.schema([("day", pa.string()),
                                    ("user_id", pa.int64())]))

    def nunique(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        out = df.groupby("day", as_index=False).agg(
            n_users=("user_id", "nunique"))
        return _pd_table(out, _DAU_SCHEMA)

    return (ds.map_batches(pairs, batch_format="pyarrow")
            .groupby("day").map_groups(nunique, batch_format="pyarrow"))


# ------------------------------------------------------ corpus queries

_HIST_PARTIAL = pa.schema([("bucket", pa.int64()),
                           ("part_n", pa.int64()),
                           ("part_chars", pa.int64())])


def doc_length_histogram(sf_dir: str, width: int = 100):
    """Document length histogram (bucket = n_chars // width): per-batch
    bucket counting is the combiner, the groupby touches O(buckets)
    rows."""
    ds = _read_sized(sf_dir, "documents", columns=["n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n_chars"))
        df = pd.DataFrame({"bucket": n // width, "chars": n})
        g = df.groupby("bucket", as_index=False).agg(
            part_n=("chars", "size"), part_chars=("chars", "sum"))
        return _pd_table(g, _HIST_PARTIAL)

    from ray.data.aggregate import Sum
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").aggregate(
            Sum("part_n", alias_name="n_docs"),
            Sum("part_chars", alias_name="total_chars"))


_KEYWORDS = ("spark", "window", "vector")
_KW_PARTIAL = pa.schema([("lang", pa.string()), ("keyword", pa.string()),
                         ("part_n", pa.int64())])


def keyword_doc_counts(sf_dir: str, keywords=_KEYWORDS):
    """Keyword screen: documents containing each literal keyword, per
    language — the grep-shaped corpus scan.  Vectorized pandas
    str.contains per keyword per batch; partial counts make the shuffle
    O(langs x keywords)."""
    ds = _read_sized(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text").to_pandas().fillna("")
        lang = batch.column("lang").to_pandas()
        frames = []
        for kw in keywords:
            hits = text.str.contains(kw, regex=False)
            g = lang[hits].value_counts()
            frames.append(pd.DataFrame({
                "lang": g.index, "keyword": kw,
                "part_n": g.to_numpy().astype(np.int64)}))
        out = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame(columns=["lang", "keyword", "part_n"])
        return _pd_table(out, _KW_PARTIAL)

    from ray.data.aggregate import Sum
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["lang", "keyword"]).aggregate(
            Sum("part_n", alias_name="n_docs"))


# ---------------------------------------------------------- embeddings

_CENTROID_PARTIAL = pa.schema([
    ("label", pa.int64()), ("dim", pa.int64()),
    ("part_sum", pa.float64()), ("part_n", pa.int64())])


def label_centroids(sf_dir: str):
    """Per-label embedding centroid, one row per (label, dim).  The
    per-batch partial is a vectorized per-label matrix sum (np.add.at),
    so the shuffle carries labels x dims rows per batch — constant in
    the corpus size; avg is pinned to round(…, 6) on both engines."""
    ds = _read_sized(sf_dir, "embeddings", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        labels = np.asarray(batch.column("label"), dtype=np.int64)
        mat = np.stack(
            [np.asarray(v, dtype=np.float64)
             for v in batch.column("embedding").to_pylist()])
        uniq, inv, counts = np.unique(labels, return_inverse=True,
                                      return_counts=True)
        sums = np.zeros((len(uniq), mat.shape[1]))
        np.add.at(sums, inv, mat)
        n_dim = mat.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(uniq, n_dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(n_dim), len(uniq)),
                            pa.int64()),
            "part_sum": pa.array(sums.ravel(), pa.float64()),
            "part_n": pa.array(np.repeat(counts, n_dim).astype(np.int64),
                               pa.int64())}, schema=_CENTROID_PARTIAL)

    from ray.data.aggregate import Sum
    ds = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["label", "dim"]).aggregate(
            Sum("part_sum", alias_name="sum_val"),
            Sum("part_n", alias_name="n"))

    def mean(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("sum_val"))
        n = np.asarray(batch.column("n"))
        return batch.select(["label", "dim"]).append_column(
            "avg_val", pa.array(np.round(s / n, 6), pa.float64()))

    return ds.map_batches(mean, batch_format="pyarrow")


# ------------------------------------------------- similarity search

def ann_lsh(sf_dir: str, n_queries: int = 8, k: int = 10,
            n_tables: int = 8, n_bits: int = 6):
    """LSH-bucketed approximate nearest neighbors: random-hyperplane
    signatures place each vector in ``n_tables`` hash buckets
    (map_batches actor stage, planes broadcast once), then
    groupby(bucket) co-locates each bucket and only queries probing that
    bucket (exact code + 1-bit multi-probe flips) compute similarities
    there — the hash-partitioned alternative to the IVF scale path with
    no training step at all.  Recall vs ann_bruteforce is pinned in
    tests/test_r4_queries.py; approximate by construction, so no SQL
    oracle (same rationale as ann_ivf)."""
    import functools

    import ray

    from ..functions import ann as annf
    from .table_ops import _load_queries

    q = _load_queries(sf_dir, n_queries)
    dim = q["vecs"].shape[1]
    planes = annf.lsh_planes(dim, n_tables, n_bits)
    planes_ref = ray.put(planes)
    probes = annf.lsh_probe_sets(q["vecs"], q["ids"], planes,
                                 n_tables, n_bits)
    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(annf.LshAssign,
                        fn_constructor_args=(planes_ref, n_tables, n_bits),
                        batch_format="pyarrow", batch_size=512,
                        concurrency=(1, 4))
    n_buckets = n_tables << n_bits
    ds = ds.groupby("bucket", num_partitions=min(64, n_buckets)) \
        .map_groups(functools.partial(annf.ivf_bucket_topk_group,
                                      queries=q, probes=probes, k=k),
                    batch_format="pyarrow")
    return ds.groupby("query_id", num_partitions=n_queries).map_groups(
        functools.partial(annf.lsh_merge_topk_group, k=k),
        batch_format="pyarrow")


# ----------------------------------------------- semi-structured props

_PROPS_PARTIAL = pa.schema([
    ("event_type", pa.string()), ("part_n", pa.int64()),
    ("part_sum", pa.int64()), ("part_min", pa.int64()),
    ("part_max", pa.int64())])


def events_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` out of the JSON
    ``props`` column and aggregate per event type.  The extraction is a
    vectorized pandas str.extract (the props payloads are flat
    single-key objects; a JSON-path engine drops into the same batch
    kernel for nested payloads), partial-combined per batch so the
    shuffle is O(event types)."""
    ds = _read_sized(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props").to_pandas()
        k = props.str.extract(r'"k"\s*:\s*(-?\d+)', expand=False) \
            .astype("Int64")
        df = pd.DataFrame({"event_type": batch.column("event_type")
                           .to_pandas(), "k": k}).dropna()
        g = df.groupby("event_type", as_index=False).agg(
            part_n=("k", "size"), part_sum=("k", "sum"),
            part_min=("k", "min"), part_max=("k", "max"))
        for c in ("part_n", "part_sum", "part_min", "part_max"):
            g[c] = g[c].astype(np.int64)
        return _pd_table(g, _PROPS_PARTIAL)

    from ray.data.aggregate import Max, Min, Sum
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("part_n", alias_name="n_events"),
            Sum("part_sum", alias_name="sum_k"),
            Min("part_min", alias_name="min_k"),
            Max("part_max", alias_name="max_k"))


_KNN_SCHEMA = pa.schema([
    ("query_id", pa.int64()), ("pred_label", pa.int64()),
    ("n_votes", pa.int64())])


def knn_classify(sf_dir: str, n_queries: int = 8, k: int = 10):
    """k-NN classification over the embedding table: each query vector's
    label is predicted by majority vote of its k exact cosine neighbors
    (tie -> smaller label; self-matches excluded).  Rides the
    ann_bruteforce kernel — broadcast queries, per-batch partial top-k,
    one per-query merge — plus a broadcast id->label lookup for the
    vote, so the only shuffle carries <= k rows per (query, block)."""
    import ray

    from ..functions import ann as annf
    from .table_ops import _load_queries

    labels_ref = broadcast_lookup(sf_dir, "embeddings", "vec_id",
                                  ["label"])
    queries_ref = ray.put(_load_queries(sf_dir, n_queries))
    ds = _read_sized(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.map_batches(annf.BruteForcePartialTopK,
                        fn_constructor_args=(queries_ref, k),
                        batch_format="pyarrow", batch_size=512,
                        concurrency=(1, 4))

    def vote(group: pa.Table) -> pa.Table:
        merged = annf.merge_topk_group(group, k)
        labels = ray.get(labels_ref)
        _, row = labels.probe(np.asarray(merged.column("neighbor_id")))
        votes = labels["label"][row]
        uniq, counts = np.unique(votes, return_counts=True)
        # majority; ties -> smaller label (np.unique returns sorted
        # labels and argmax takes the first maximum)
        best = int(np.argmax(counts))
        qid = merged.column("query_id")[0].as_py()
        return pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "pred_label": pa.array([int(uniq[best])], pa.int64()),
            "n_votes": pa.array([int(counts[best])], pa.int64())},
            schema=_KNN_SCHEMA)

    return ds.groupby("query_id", num_partitions=n_queries).map_groups(
        vote, batch_format="pyarrow")


_RETENTION_PARTIAL = pa.schema([
    ("cohort_day", pa.string()), ("part_users", pa.int64()),
    ("part_d1", pa.int64()), ("part_d7", pa.int64())])


def events_retention(sf_dir: str):
    """Cohort retention: users grouped by their first active day; how
    many returned exactly 1 and 7 days later.  Per-batch distinct
    (user, day) pairs are the combiner; ONE coarse-partition shuffle
    co-locates each user's day set; the per-partition kernel finds each
    user's first day and membership of first+1 / first+7 vectorized
    (a probe of the partition's sorted pair list) and emits
    per-cohort partials, so the final groupby touches O(days) rows."""
    ds = _read_sized(sf_dir, "events", columns=["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        days = np.asarray(batch.column("ts")) \
            .astype("datetime64[D]").astype(np.int64)
        df = pd.DataFrame({"user_id": np.asarray(batch.column("user_id")),
                           "day": days}).drop_duplicates()
        return _pd_table(df, pa.schema([("user_id", pa.int64()),
                                        ("day", pa.int64())]))

    def cohort_partial(group: pa.Table) -> pa.Table:
        df = group.to_pandas()[["user_id", "day"]].drop_duplicates()
        uid = df["user_id"].to_numpy()
        day = df["day"].to_numpy()
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        # first row of each user run = first active day
        first = np.concatenate(([True], uid[1:] != uid[:-1]))
        f_uid, f_day = uid[first], day[first]

        def returned(offset: int) -> np.ndarray:
            # membership test of (user, first+offset) in the sorted pairs
            key = uid.astype(np.int64) * np.int64(1 << 20) + day
            probe = f_uid.astype(np.int64) * np.int64(1 << 20) \
                + f_day + offset
            return Lookup(key, {}).probe(probe)[0]

        g = pd.DataFrame({
            "cohort": f_day,
            "d1": returned(1).astype(np.int64),
            "d7": returned(7).astype(np.int64)})
        out = g.groupby("cohort").agg(
            part_users=("d1", "size"), part_d1=("d1", "sum"),
            part_d7=("d7", "sum")).reset_index()
        out["cohort_day"] = pd.to_datetime(
            out["cohort"], unit="D").dt.strftime("%Y-%m-%d")
        out = out[["cohort_day", "part_users", "part_d1", "part_d7"]]
        return _pd_table(out, _RETENTION_PARTIAL)

    from ray.data.aggregate import Sum
    parts = _partitioned_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        "user_id", cohort_partial)
    return parts.groupby("cohort_day").aggregate(
        Sum("part_users", alias_name="n_users"),
        Sum("part_d1", alias_name="retained_d1"),
        Sum("part_d7", alias_name="retained_d7"))


_DEGREE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("degree", pa.int64()),
    ("max_jaccard", pa.float64())])


def neardup_degree(sf_dir: str):
    """Near-duplicate graph statistics: each document's degree (number
    of >= 0.4-Jaccard partners) and its strongest similarity — the
    triage view that decides KEEP / REVIEW / DROP in a dedup pass.
    Reuses the exact prefix-join pair table; pairs explode to both
    endpoints per batch and reduce through one coarse-partition pass, so
    the cost beyond the pair join is O(pairs)."""
    from .table_ops import dedup_ngram_jaccard
    pairs = dedup_ngram_jaccard(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("doc_a"), dtype=np.int64)
        b = np.asarray(batch.column("doc_b"), dtype=np.int64)
        j = np.asarray(batch.column("jaccard"))
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, b]), pa.int64()),
            "jaccard": pa.array(np.concatenate([j, j]), pa.float64())})

    def reduce(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        g = df.groupby("doc_id", as_index=False).agg(
            degree=("jaccard", "size"), max_jaccard=("jaccard", "max"))
        g["degree"] = g["degree"].astype(np.int64)
        return _pd_table(g[["doc_id", "degree", "max_jaccard"]],
                         _DEGREE_SCHEMA)

    return _partitioned_agg(
        pairs.map_batches(explode, batch_format="pyarrow"),
        "doc_id", reduce)
