//! Deterministic TPC-C initial population (clause 4.3), scaled by
//! [`super::TpccScale`]. Rows are bulk-loaded so benchmarks start from a
//! fully replicated, RCP-consistent state.
#![allow(clippy::inconsistent_digit_grouping)] // money literals read as dollars_cents

use super::{last_name, TpccScale};
use gdb_model::{Datum, Row};
use globaldb::{Cluster, GdbResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn d(v: i64) -> Datum {
    Datum::Int(v)
}

fn dec(v: i64) -> Datum {
    Datum::Decimal(v)
}

fn txt(s: impl Into<Arc<str>>) -> Datum {
    Datum::Text(s.into())
}

/// Create the schema and load all initial rows. Returns total rows loaded.
pub fn load(cluster: &mut Cluster, scale: &TpccScale, seed: u64) -> GdbResult<usize> {
    for ddl in super::schema::ddl() {
        cluster.ddl(ddl)?;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0;

    // item (replicated).
    let item_id = cluster.db.catalog().table_by_name("item")?.id;
    let items: Vec<Row> = (1..=scale.items)
        .map(|i| {
            Row(vec![
                d(i),
                txt(format!("item-{i}")),
                dec(rng.gen_range(100..10_000)), // 1.00 .. 100.00
                txt(if rng.gen_ratio(1, 10) {
                    format!("ORIGINAL-{}", "filler-data-".repeat(3))
                } else {
                    "item-data-".repeat(4)
                }),
            ])
        })
        .collect();
    total += cluster.bulk_load(item_id, items)?;

    // warehouse / district / customer / stock / orders.
    let wh_id = cluster.db.catalog().table_by_name("warehouse")?.id;
    let dist_id = cluster.db.catalog().table_by_name("district")?.id;
    let cust_id = cluster.db.catalog().table_by_name("customer")?.id;
    let stock_id = cluster.db.catalog().table_by_name("stock")?.id;
    let orders_id = cluster.db.catalog().table_by_name("orders")?.id;
    let new_order_id = cluster.db.catalog().table_by_name("new_order")?.id;
    let order_line_id = cluster.db.catalog().table_by_name("order_line")?.id;

    for w in 1..=scale.warehouses {
        total += cluster.bulk_load(
            wh_id,
            vec![Row(vec![
                d(w),
                txt(format!("wh-{w}")),
                dec(rng.gen_range(0..20)), // tax 0.00-0.20
                dec(30_000_00),
            ])],
        )?;

        // stock: one row per item per warehouse.
        let stock_rows: Vec<Row> = (1..=scale.items)
            .map(|i| {
                Row(vec![
                    d(w),
                    d(i),
                    d(rng.gen_range(10..=100)),
                    d(0),
                    d(0),
                    d(0),
                    txt(format!("s-data-{}-{}", w, "dist-info-".repeat(4))),
                ])
            })
            .collect();
        total += cluster.bulk_load(stock_id, stock_rows)?;

        for dist in 1..=scale.districts_per_warehouse {
            total += cluster.bulk_load(
                dist_id,
                vec![Row(vec![
                    d(w),
                    d(dist),
                    txt(format!("dist-{w}-{dist}")),
                    dec(rng.gen_range(0..20)),
                    dec(30_000_00),
                    d(scale.initial_orders_per_district + 1), // d_next_o_id
                ])],
            )?;

            // customers (last names per spec's modulo-1000 rule).
            let custs: Vec<Row> = (1..=scale.customers_per_district)
                .map(|c| {
                    Row(vec![
                        d(w),
                        d(dist),
                        d(c),
                        txt(last_name((c - 1) % 1000)),
                        txt(format!("first{c}")),
                        txt(if rng.gen_ratio(1, 10) { "BC" } else { "GC" }),
                        dec(rng.gen_range(0..50)), // discount 0.00-0.50
                        dec(-10_00),               // balance -10.00
                        dec(10_00),
                        d(1),
                        d(0),
                        txt(format!("customer-history-{}", "comment-text-".repeat(20))),
                    ])
                })
                .collect();
            total += cluster.bulk_load(cust_id, custs)?;

            // Initial orders: customers in random permutation, the last
            // 30% undelivered (in new_order, no carrier).
            let n_orders = scale.initial_orders_per_district;
            let mut cust_perm: Vec<i64> = (1..=scale.customers_per_district).collect();
            // Fisher–Yates with the seeded rng.
            for i in (1..cust_perm.len()).rev() {
                let j = rng.gen_range(0..=i);
                cust_perm.swap(i, j);
            }
            let mut orders = Vec::new();
            let mut new_orders = Vec::new();
            let mut order_lines = Vec::new();
            for o in 1..=n_orders {
                let c = cust_perm[(o - 1) as usize % cust_perm.len()];
                let ol_cnt = rng.gen_range(5..=15i64);
                let delivered = o <= n_orders * 7 / 10;
                orders.push(Row(vec![
                    d(w),
                    d(dist),
                    d(o),
                    d(c),
                    if delivered {
                        d(rng.gen_range(1..=10))
                    } else {
                        Datum::Null
                    },
                    d(ol_cnt),
                    d(o), // entry date: ordinal
                ]));
                if !delivered {
                    new_orders.push(Row(vec![d(w), d(dist), d(o)]));
                }
                for ol in 1..=ol_cnt {
                    order_lines.push(Row(vec![
                        d(w),
                        d(dist),
                        d(o),
                        d(ol),
                        d(rng.gen_range(1..=scale.items)),
                        d(w),
                        if delivered { d(o) } else { Datum::Null },
                        d(5),
                        if delivered {
                            dec(0)
                        } else {
                            dec(rng.gen_range(1..=999_999))
                        },
                    ]));
                }
            }
            total += cluster.bulk_load(orders_id, orders)?;
            total += cluster.bulk_load(new_order_id, new_orders)?;
            total += cluster.bulk_load(order_line_id, order_lines)?;
        }
    }

    cluster.finish_load();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use globaldb::ClusterConfig;

    #[test]
    fn tiny_load_populates_all_tables() {
        let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
        let scale = TpccScale::tiny();
        let total = load(&mut c, &scale, 7).unwrap();
        assert!(total > 0);
        // Expected counts per scale.
        let expect = [
            ("warehouse", scale.warehouses),
            ("district", scale.warehouses * scale.districts_per_warehouse),
            (
                "customer",
                scale.warehouses * scale.districts_per_warehouse * scale.customers_per_district,
            ),
            ("stock", scale.warehouses * scale.items),
            (
                "orders",
                scale.warehouses
                    * scale.districts_per_warehouse
                    * scale.initial_orders_per_district,
            ),
        ];
        for (name, count) in expect {
            let (out, _) = c
                .execute_sql(
                    0,
                    globaldb::SimTime::from_millis(10),
                    &format!("SELECT COUNT(*) FROM {name}"),
                    &[],
                )
                .unwrap();
            assert_eq!(out.scalar_int(), Some(count), "{name}");
        }
        // Item is replicated: every shard holds all items.
        let item = c.db.catalog().table_by_name("item").unwrap().id;
        for shard in c.db.shards() {
            assert_eq!(
                shard.storage.table(item).unwrap().key_count() as i64,
                scale.items
            );
        }
        // 30% of initial orders are undelivered (in new_order).
        let (out, _) = c
            .execute_sql(
                0,
                globaldb::SimTime::from_millis(20),
                "SELECT COUNT(*) FROM new_order",
                &[],
            )
            .unwrap();
        let undelivered = scale.warehouses
            * scale.districts_per_warehouse
            * (scale.initial_orders_per_district - scale.initial_orders_per_district * 7 / 10);
        assert_eq!(out.scalar_int(), Some(undelivered));
    }
}
