//! The five TPC-C transactions, implemented over prepared statements
//! exactly as a client application would run them.

use super::{nurand, random_last_name, TpccScale};
use gdb_model::Datum;
use globaldb::{Cluster, GdbError, GdbResult, Prepared, TxnOutcome};
use rand::rngs::SmallRng;
use rand::Rng;

fn d(v: i64) -> Datum {
    Datum::Int(v)
}

fn dec(v: i64) -> Datum {
    Datum::Decimal(v)
}

/// All statements, prepared once against the cluster catalog.
pub struct Statements {
    // New-Order
    w_tax: Prepared,
    dist_for_update: Prepared,
    dist_inc: Prepared,
    cust_fields: Prepared,
    ins_order: Prepared,
    ins_new_order: Prepared,
    item_price: Prepared,
    stock_for_update: Prepared,
    stock_update: Prepared,
    ins_order_line: Prepared,
    // Payment
    pay_wh: Prepared,
    pay_dist: Prepared,
    cust_by_last: Prepared,
    cust_bal_for_update: Prepared,
    cust_pay_update: Prepared,
    ins_history: Prepared,
    // Order-Status
    os_last_order: Prepared,
    os_order_lines: Prepared,
    os_cust: Prepared,
    // Delivery
    dlv_oldest_no: Prepared,
    dlv_del_no: Prepared,
    dlv_order: Prepared,
    dlv_set_carrier: Prepared,
    dlv_update_ol: Prepared,
    dlv_sum_ol: Prepared,
    dlv_cust: Prepared,
    // Stock-Level
    sl_next_oid: Prepared,
    sl_count: Prepared,
}

impl Statements {
    pub fn prepare(cluster: &Cluster) -> GdbResult<Self> {
        Ok(Statements {
            w_tax: cluster.prepare("SELECT w_tax FROM warehouse WHERE w_id = ?")?,
            dist_for_update: cluster.prepare(
                "SELECT d_tax, d_next_o_id FROM district \
                 WHERE d_w_id = ? AND d_id = ? FOR UPDATE",
            )?,
            dist_inc: cluster.prepare(
                "UPDATE district SET d_next_o_id = d_next_o_id + 1 \
                 WHERE d_w_id = ? AND d_id = ?",
            )?,
            cust_fields: cluster.prepare(
                "SELECT c_discount, c_last, c_credit FROM customer \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            )?,
            ins_order: cluster.prepare("INSERT INTO orders VALUES (?, ?, ?, ?, NULL, ?, ?)")?,
            ins_new_order: cluster.prepare("INSERT INTO new_order VALUES (?, ?, ?)")?,
            item_price: cluster.prepare("SELECT i_price, i_name FROM item WHERE i_id = ?")?,
            stock_for_update: cluster.prepare(
                "SELECT s_quantity, s_ytd, s_order_cnt, s_remote_cnt FROM stock \
                 WHERE s_w_id = ? AND s_i_id = ? FOR UPDATE",
            )?,
            stock_update: cluster.prepare(
                "UPDATE stock SET s_quantity = ?, s_ytd = ?, s_order_cnt = ?, s_remote_cnt = ? \
                 WHERE s_w_id = ? AND s_i_id = ?",
            )?,
            ins_order_line: cluster
                .prepare("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, NULL, ?, ?)")?,
            pay_wh: cluster.prepare("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?")?,
            pay_dist: cluster.prepare(
                "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?",
            )?,
            cust_by_last: cluster.prepare(
                "SELECT c_id, c_first FROM customer \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? ORDER BY c_first",
            )?,
            cust_bal_for_update: cluster.prepare(
                "SELECT c_balance, c_ytd_payment, c_payment_cnt FROM customer \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ? FOR UPDATE",
            )?,
            cust_pay_update: cluster.prepare(
                "UPDATE customer SET c_balance = ?, c_ytd_payment = ?, c_payment_cnt = ? \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            )?,
            ins_history: cluster.prepare("INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)")?,
            os_last_order: cluster.prepare(
                "SELECT o_id, o_carrier_id, o_entry_d, o_ol_cnt FROM orders \
                 WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1",
            )?,
            os_order_lines: cluster.prepare(
                "SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d \
                 FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
            )?,
            os_cust: cluster.prepare(
                "SELECT c_balance, c_first, c_last FROM customer \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            )?,
            dlv_oldest_no: cluster.prepare(
                "SELECT no_o_id FROM new_order \
                 WHERE no_w_id = ? AND no_d_id = ? ORDER BY no_o_id ASC LIMIT 1",
            )?,
            dlv_del_no: cluster.prepare(
                "DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
            )?,
            dlv_order: cluster.prepare(
                "SELECT o_c_id, o_ol_cnt FROM orders \
                 WHERE o_w_id = ? AND o_d_id = ? AND o_id = ? FOR UPDATE",
            )?,
            dlv_set_carrier: cluster.prepare(
                "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
            )?,
            dlv_update_ol: cluster.prepare(
                "UPDATE order_line SET ol_delivery_d = ? \
                 WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
            )?,
            dlv_sum_ol: cluster.prepare(
                "SELECT SUM(ol_amount) FROM order_line \
                 WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
            )?,
            dlv_cust: cluster.prepare(
                "UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 \
                 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            )?,
            sl_next_oid: cluster.prepare(
                "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
            )?,
            sl_count: cluster.prepare(
                "SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock \
                 WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ? \
                 AND s_w_id = ? AND s_i_id = ol_i_id AND s_quantity < ?",
            )?,
        })
    }
}

/// New-Order (clause 2.4): the tpmC transaction. ~1% of orders contain an
/// invalid item and roll back; ~1% of lines are supplied by a remote
/// warehouse (making the transaction multi-shard).
#[allow(clippy::too_many_arguments)]
pub fn new_order(
    cluster: &mut Cluster,
    st: &Statements,
    rng: &mut SmallRng,
    scale: &TpccScale,
    cn: usize,
    at: globaldb::SimTime,
    w: i64,
    dist: i64,
    remote_supply_fraction: f64,
) -> GdbResult<TxnOutcome> {
    let c = nurand(rng, 1, scale.customers_per_district);
    let ol_cnt = rng.gen_range(5..=15i64);
    let rollback = rng.gen_ratio(1, 100);
    let mut lines = Vec::with_capacity(ol_cnt as usize);
    for i in 0..ol_cnt {
        let item = if rollback && i == ol_cnt - 1 {
            -1 // invalid item: forces the spec's 1% rollback
        } else {
            nurand(rng, 1, scale.items)
        };
        let supply_w = if scale.warehouses > 1 && rng.gen_bool(remote_supply_fraction) {
            // Remote supply warehouse.
            let mut o = rng.gen_range(1..=scale.warehouses - 1);
            if o >= w {
                o += 1;
            }
            o
        } else {
            w
        };
        lines.push((item, supply_w, rng.gen_range(1..=10i64)));
    }
    let single_shard = lines.iter().all(|&(_, sw, _)| sw == w);
    let entry_d = at.as_millis() as i64;

    let (_, outcome) = cluster.run_transaction(cn, at, false, single_shard, |txn| {
        let _wtax = txn.execute(&st.w_tax, &[d(w)])?;
        let dist_row = txn.execute(&st.dist_for_update, &[d(w), d(dist)])?;
        let dist_rows = dist_row.rows();
        let Some(drow) = dist_rows.first() else {
            // A snapshot too stale to see the loaded rows (possible under
            // extreme clock error): retry.
            return Err(GdbError::TxnAborted("stale snapshot".into()));
        };
        let o_id = drow.0[1]
            .as_int()
            .ok_or_else(|| GdbError::Execution("bad d_next_o_id".into()))?;
        txn.execute(&st.dist_inc, &[d(w), d(dist)])?;
        let _cust = txn.execute(&st.cust_fields, &[d(w), d(dist), d(c)])?;
        txn.execute(
            &st.ins_order,
            &[d(w), d(dist), d(o_id), d(c), d(ol_cnt), d(entry_d)],
        )?;
        txn.execute(&st.ins_new_order, &[d(w), d(dist), d(o_id)])?;

        for (number, &(item, supply_w, qty)) in lines.iter().enumerate() {
            let price_row = txn.execute(&st.item_price, &[d(item)])?;
            let rows = price_row.rows();
            if rows.is_empty() {
                // Invalid item: the spec requires a full rollback.
                return Err(GdbError::TxnAborted("invalid item number".into()));
            }
            let price = rows[0].0[0].as_decimal().unwrap_or(0);
            let stock = txn.execute(&st.stock_for_update, &[d(supply_w), d(item)])?;
            let stock_rows = stock.rows();
            let Some(srow) = stock_rows.first() else {
                return Err(GdbError::TxnAborted("stale snapshot".into()));
            };
            let s_qty = srow.0[0].as_int().unwrap_or(0);
            let s_ytd = srow.0[1].as_int().unwrap_or(0);
            let s_cnt = srow.0[2].as_int().unwrap_or(0);
            let s_rem = srow.0[3].as_int().unwrap_or(0);
            let new_qty = if s_qty - qty >= 10 {
                s_qty - qty
            } else {
                s_qty - qty + 91
            };
            txn.execute(
                &st.stock_update,
                &[
                    d(new_qty),
                    d(s_ytd + qty),
                    d(s_cnt + 1),
                    d(s_rem + if supply_w != w { 1 } else { 0 }),
                    d(supply_w),
                    d(item),
                ],
            )?;
            txn.execute(
                &st.ins_order_line,
                &[
                    d(w),
                    d(dist),
                    d(o_id),
                    d(number as i64 + 1),
                    d(item),
                    d(supply_w),
                    d(qty),
                    dec(price * qty),
                ],
            )?;
        }
        Ok(())
    })?;
    Ok(outcome)
}

/// Payment (clause 2.5): 60% select the customer by last name; 15% pay a
/// customer resident at a remote warehouse (multi-shard).
#[allow(clippy::too_many_arguments)]
pub fn payment(
    cluster: &mut Cluster,
    st: &Statements,
    rng: &mut SmallRng,
    scale: &TpccScale,
    cn: usize,
    at: globaldb::SimTime,
    w: i64,
    dist: i64,
    h_id: i64,
    remote_payment_fraction: f64,
) -> GdbResult<TxnOutcome> {
    let amount = rng.gen_range(100..=500_000i64); // 1.00 .. 5000.00
    let (c_w, c_d) = if scale.warehouses > 1 && rng.gen_bool(remote_payment_fraction) {
        let mut o = rng.gen_range(1..=scale.warehouses - 1);
        if o >= w {
            o += 1;
        }
        (o, rng.gen_range(1..=scale.districts_per_warehouse))
    } else {
        (w, dist)
    };
    let by_last = rng.gen_ratio(60, 100);
    let c_last = Datum::from(random_last_name(rng));
    let c_id_direct = nurand(rng, 1, scale.customers_per_district);
    let single_shard = c_w == w;
    let date = at.as_millis() as i64;

    let (_, outcome) = cluster.run_transaction(cn, at, false, single_shard, |txn| {
        txn.execute(&st.pay_wh, &[dec(amount), d(w)])?;
        txn.execute(&st.pay_dist, &[dec(amount), d(w), d(dist)])?;
        let c_id = if by_last {
            let matches = txn.execute(&st.cust_by_last, &[d(c_w), d(c_d), c_last.clone()])?;
            let rows = matches.rows();
            if rows.is_empty() {
                // No customer with this name at the scaled-down
                // cardinality: fall back to direct id.
                c_id_direct
            } else {
                rows[rows.len() / 2].0[0].as_int().unwrap_or(c_id_direct)
            }
        } else {
            c_id_direct
        };
        let bal = txn.execute(&st.cust_bal_for_update, &[d(c_w), d(c_d), d(c_id)])?;
        let rows = bal.rows();
        let row = rows
            .first()
            .ok_or_else(|| GdbError::TxnAborted("payment customer not visible".into()))?;
        let c_balance = row.0[0].as_decimal().unwrap_or(0);
        let c_ytd = row.0[1].as_decimal().unwrap_or(0);
        let c_cnt = row.0[2].as_int().unwrap_or(0);
        txn.execute(
            &st.cust_pay_update,
            &[
                dec(c_balance - amount),
                dec(c_ytd + amount),
                d(c_cnt + 1),
                d(c_w),
                d(c_d),
                d(c_id),
            ],
        )?;
        txn.execute(
            &st.ins_history,
            &[
                d(w),
                d(h_id),
                d(dist),
                d(c_w),
                d(c_d),
                d(c_id),
                dec(amount),
                d(date),
            ],
        )?;
        Ok(())
    })?;
    Ok(outcome)
}

/// Order-Status (clause 2.6): read-only; 60% by last name.
#[allow(clippy::too_many_arguments)]
pub fn order_status(
    cluster: &mut Cluster,
    st: &Statements,
    rng: &mut SmallRng,
    scale: &TpccScale,
    cn: usize,
    at: globaldb::SimTime,
    w: i64,
    dist: i64,
) -> GdbResult<TxnOutcome> {
    let by_last = rng.gen_ratio(60, 100);
    let c_last = Datum::from(random_last_name(rng));
    let c_id_direct = nurand(rng, 1, scale.customers_per_district);

    let (_, outcome) = cluster.run_transaction(cn, at, true, true, |txn| {
        let c_id = if by_last {
            let matches = txn.execute(&st.cust_by_last, &[d(w), d(dist), c_last.clone()])?;
            let rows = matches.rows();
            if rows.is_empty() {
                c_id_direct
            } else {
                rows[rows.len() / 2].0[0].as_int().unwrap_or(c_id_direct)
            }
        } else {
            c_id_direct
        };
        txn.execute(&st.os_cust, &[d(w), d(dist), d(c_id)])?;
        let last = txn.execute(&st.os_last_order, &[d(w), d(dist), d(c_id)])?;
        if let Some(order) = last.rows().first() {
            let o_id = order.0[0].as_int().unwrap_or(0);
            txn.execute(&st.os_order_lines, &[d(w), d(dist), d(o_id)])?;
        }
        Ok(())
    })?;
    Ok(outcome)
}

/// Delivery (clause 2.7): drains the oldest undelivered order of every
/// district of the warehouse.
pub fn delivery(
    cluster: &mut Cluster,
    st: &Statements,
    rng: &mut SmallRng,
    scale: &TpccScale,
    cn: usize,
    at: globaldb::SimTime,
    w: i64,
) -> GdbResult<TxnOutcome> {
    let carrier = rng.gen_range(1..=10i64);
    let date = at.as_millis() as i64;
    let districts = scale.districts_per_warehouse;

    let (_, outcome) = cluster.run_transaction(cn, at, false, true, |txn| {
        for dist in 1..=districts {
            let oldest = txn.execute(&st.dlv_oldest_no, &[d(w), d(dist)])?;
            let Some(row) = oldest.rows().first().cloned() else {
                continue; // nothing undelivered in this district
            };
            let o_id = row.0[0].as_int().unwrap_or(0);
            txn.execute(&st.dlv_del_no, &[d(w), d(dist), d(o_id)])?;
            let order = txn.execute(&st.dlv_order, &[d(w), d(dist), d(o_id)])?;
            let rows = order.rows();
            let Some(orow) = rows.first() else { continue };
            let c_id = orow.0[0].as_int().unwrap_or(0);
            txn.execute(&st.dlv_set_carrier, &[d(carrier), d(w), d(dist), d(o_id)])?;
            txn.execute(&st.dlv_update_ol, &[d(date), d(w), d(dist), d(o_id)])?;
            let sum = txn.execute(&st.dlv_sum_ol, &[d(w), d(dist), d(o_id)])?;
            let sum_rows = sum.rows();
            let amount = sum_rows
                .first()
                .and_then(|r| r.0[0].as_decimal())
                .unwrap_or(0);
            txn.execute(&st.dlv_cust, &[dec(amount), d(w), d(dist), d(c_id)])?;
        }
        Ok(())
    })?;
    Ok(outcome)
}

/// Stock-Level (clause 2.8): read-only join of recent order lines with
/// low-stock items. `stock_w` may point at a remote warehouse to make the
/// query multi-shard (Fig. 6c runs 50% multi-shard).
#[allow(clippy::too_many_arguments)]
pub fn stock_level(
    cluster: &mut Cluster,
    st: &Statements,
    rng: &mut SmallRng,
    _scale: &TpccScale,
    cn: usize,
    at: globaldb::SimTime,
    w: i64,
    dist: i64,
    stock_w: i64,
) -> GdbResult<TxnOutcome> {
    let threshold = rng.gen_range(10..=20i64);
    let single_shard = stock_w == w;

    let (_, outcome) = cluster.run_transaction(cn, at, true, single_shard, |txn| {
        let next = txn.execute(&st.sl_next_oid, &[d(w), d(dist)])?;
        let next_rows = next.rows();
        let next_oid = next_rows
            .first()
            .and_then(|r| r.0[0].as_int())
            .ok_or_else(|| GdbError::TxnAborted("stale snapshot".into()))?;
        txn.execute(
            &st.sl_count,
            &[
                d(w),
                d(dist),
                d((next_oid - 20).max(1)),
                d(next_oid),
                d(stock_w),
                d(threshold),
            ],
        )?;
        Ok(())
    })?;
    Ok(outcome)
}
