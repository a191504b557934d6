//! The cluster's SQL frontend: statement preparation, DDL execution, and
//! bulk loading — everything that turns SQL text into cluster state
//! changes outside the per-transaction path in [`crate::txn`].

use crate::cluster::Cluster;
use crate::stats::TxnOutcome;
use gdb_model::{Ddl, GdbError, GdbResult, TableId, Timestamp};
use gdb_simnet::SimTime;
use gdb_sqlengine::{prepare, BoundStatement, ExecOutput, Prepared};
use gdb_wal::RedoPayload;

impl Cluster {
    /// Prepare a SQL statement against the cluster catalog.
    pub fn prepare(&self, sql: &str) -> GdbResult<Prepared> {
        prepare(sql, &self.db.catalog)
    }

    /// Execute a DDL statement cluster-wide at the current virtual time,
    /// on the first CN that is up. DDL replicates to every shard's redo
    /// stream and is tracked for the ROR visibility conditions (§IV-A). It
    /// is stamped like any commit ([`crate::GlobalDb`]'s one stamp path),
    /// so in GTM and DUAL mode it fails while the GTM is unreachable, and
    /// it returns once its commit wait has ended and its record is staged.
    pub fn ddl(&mut self, sql: &str) -> GdbResult<()> {
        match prepare(sql, &self.db.catalog)?.bound {
            BoundStatement::Ddl(ddl) => {
                let cn = self.db.first_alive_cn().unwrap_or(0);
                self.run_ddl(cn, ddl).map(|_| ())
            }
            _ => Err(GdbError::Plan("not a DDL statement".into())),
        }
    }

    /// Execute a bound DDL statement on CN `cn` (see [`Cluster::ddl`]).
    /// The CN catalog and every primary apply the one value, and every
    /// shard logs it for its replicas to apply the same way.
    fn run_ddl(&mut self, cn: usize, mut ddl: Ddl) -> GdbResult<TxnOutcome> {
        if self.db.topo.is_node_down(self.db.cns[cn].node) {
            return Err(GdbError::NodeUnavailable(format!("cn {cn} is down")));
        }
        // DDL commits through the transaction manager like any write.
        let start = self.sim.now();
        let mut now = start;
        let stamp = self.db.commit_stamp(cn, &mut now)?;
        let txn = self.db.next_txn_id(cn);
        if let Ddl::CreateTable(schema) = &mut ddl {
            schema.id = self.db.catalog.allocate_table_id();
        }
        self.db.catalog.apply(&ddl)?;
        for shard in &mut self.db.shards {
            shard.storage.apply_ddl(&ddl)?;
        }
        self.db.ddl.record(ddl.table(), stamp.ts);
        for shard in &mut self.db.shards {
            let payload = RedoPayload::Ddl {
                commit_ts: stamp.ts,
                ddl: ddl.clone(),
            };
            shard.log.append(stamp.wait_end, txn, payload);
        }
        // Return once the record is staged, so what runs next (a
        // transaction, the next `finish_load`'s heartbeat) comes after it.
        self.run_until(stamp.wait_end);
        Ok(TxnOutcome {
            commit_ts: Some(stamp.ts),
            snapshot: Timestamp::ZERO,
            completed_at: stamp.wait_end,
            latency: stamp.wait_end - start,
            shards_written: vec![],
            used_replica: false,
            aborted: false,
        })
    }

    /// Bulk-load rows directly into the primaries at timestamp 1
    /// (benchmark setup: no per-row transaction costs). The rows reach the
    /// replicas at the next [`Cluster::finish_load`], which rebuilds them
    /// from the primaries' snapshots.
    pub fn bulk_load(&mut self, table: TableId, rows: Vec<gdb_model::Row>) -> GdbResult<usize> {
        let schema = self.db.catalog.table(table)?.clone();
        let shard_count = self.db.shards.len() as u16;
        let ts = Timestamp(1);
        let mut n = 0;
        for mut row in rows {
            schema.coerce_row(&mut row);
            schema.check_row(&row)?;
            let key = schema.primary_key_of(&row);
            let targets = match schema.distribution {
                gdb_model::DistributionKind::Replicated => 0..self.db.shards.len(),
                _ => {
                    let s = schema.shard_of_pk(&key, shard_count).0 as usize;
                    s..s + 1
                }
            };
            // Every installed copy but the last is a clone; the last is the
            // loader's own row, trimmed as a clone is: capacity the loader
            // grew into would be pinned for the version's life.
            row.0.shrink_to_fit();
            let last = targets.end - 1;
            for s in targets {
                let copy = if s == last {
                    std::mem::take(&mut row)
                } else {
                    row.clone()
                };
                let storage = &mut self.db.shards[s].storage;
                storage.apply_put(table, &key, copy, ts, SimTime::ZERO)?;
            }
            n += 1;
        }
        Ok(n)
    }

    /// Convenience: run one SQL statement as its own transaction.
    pub fn execute_sql(
        &mut self,
        cn: usize,
        at: SimTime,
        sql: &str,
        params: &[gdb_model::Datum],
    ) -> GdbResult<(ExecOutput, TxnOutcome)> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(cn, at, &prepared, params)
    }

    /// Convenience: run one prepared statement as its own transaction.
    pub fn execute_prepared(
        &mut self,
        cn: usize,
        at: SimTime,
        prepared: &Prepared,
        params: &[gdb_model::Datum],
    ) -> GdbResult<(ExecOutput, TxnOutcome)> {
        if let BoundStatement::Ddl(ddl) = &prepared.bound {
            self.run_until(at);
            let outcome = self.run_ddl(cn, ddl.clone())?;
            return Ok((ExecOutput::Count(0), outcome));
        }
        let read_only = prepared.bound.is_read_only();
        self.run_transaction(cn, at, read_only, false, |txn| {
            txn.execute(prepared, params)
        })
    }
}
