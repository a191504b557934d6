//! The cluster's SQL frontend: statement preparation, DDL execution, and
//! bulk loading — everything that turns SQL text into cluster state
//! changes outside the per-transaction path in [`crate::txn`].

use crate::cluster::Cluster;
use crate::stats::TxnOutcome;
use gdb_model::{GdbError, GdbResult, TableId, TableSchema, Timestamp};
use gdb_simnet::{SimDuration, SimTime};
use gdb_sqlengine::plan::BoundDdl;
use gdb_sqlengine::{prepare, BoundStatement, ExecOutput, Prepared};
use gdb_wal::RedoPayload;

impl Cluster {
    /// Prepare a SQL statement against the cluster catalog.
    pub fn prepare(&self, sql: &str) -> GdbResult<Prepared> {
        prepare(sql, &self.db.catalog)
    }

    /// Execute a DDL statement cluster-wide at the current virtual time.
    /// DDL replicates to every shard's redo stream and is tracked for the
    /// ROR visibility conditions (§IV-A). It is stamped like any commit
    /// ([`crate::GlobalDb`]'s one stamp path), so in GTM and DUAL mode it
    /// fails while the GTM is unreachable, and it returns once its commit
    /// wait has ended and its record is staged.
    pub fn ddl(&mut self, sql: &str) -> GdbResult<()> {
        match prepare(sql, &self.db.catalog)?.bound {
            BoundStatement::Ddl(bound) => self.run_ddl(&bound),
            _ => Err(GdbError::Plan("not a DDL statement".into())),
        }
    }

    /// Execute a bound DDL statement (see [`Cluster::ddl`]).
    fn run_ddl(&mut self, bound: &BoundDdl) -> GdbResult<()> {
        // DDL commits through the transaction manager like any write.
        let (cn_idx, mut now) = (0, self.sim.now());
        let stamp = self.db.commit_stamp(cn_idx, &mut now)?;
        let txn = self.db.next_txn_id(cn_idx);

        let (kind, table_for_ddl) = match bound {
            BoundDdl::CreateTable {
                name,
                columns,
                primary_key,
                distribution_key,
                distribution,
            } => {
                let id = self.db.catalog.allocate_table_id();
                let schema = TableSchema {
                    id,
                    name: name.clone(),
                    columns: columns.clone(),
                    primary_key: primary_key.clone(),
                    distribution_key: distribution_key.clone(),
                    distribution: distribution.clone(),
                };
                self.db.catalog.create_table(schema.clone())?;
                for shard in &mut self.db.shards {
                    shard.storage.create_table(schema.clone())?;
                }
                (gdb_wal::DdlKind::CreateTable(schema), id)
            }
            BoundDdl::DropTable(id) => {
                self.db.catalog.drop_table(*id)?;
                for shard in &mut self.db.shards {
                    shard.storage.drop_table(*id)?;
                }
                (gdb_wal::DdlKind::DropTable(*id), *id)
            }
            BoundDdl::CreateIndex {
                table,
                name,
                columns,
            } => {
                self.db
                    .catalog
                    .create_index(*table, name.clone(), columns.clone())?;
                for shard in &mut self.db.shards {
                    shard
                        .storage
                        .create_index(*table, name.clone(), columns.clone())?;
                }
                (
                    gdb_wal::DdlKind::CreateIndex {
                        table: *table,
                        index_name: name.clone(),
                        columns: columns.clone(),
                    },
                    *table,
                )
            }
            BoundDdl::DropIndex { name, table } => {
                self.db.catalog.drop_index(name)?;
                for shard in &mut self.db.shards {
                    shard.storage.drop_index(name)?;
                }
                (
                    gdb_wal::DdlKind::DropIndex {
                        table: *table,
                        index_name: name.clone(),
                    },
                    *table,
                )
            }
        };
        for shard in &mut self.db.shards {
            let payload = RedoPayload::Ddl {
                commit_ts: stamp.ts,
                kind: kind.clone(),
            };
            shard.log.append(stamp.wait_end, txn, payload);
        }
        self.db.ddl.record(table_for_ddl, stamp.ts);
        // Return once the record is staged, so what runs next (a bulk
        // load's replica sync, a transaction) comes after it.
        self.run_until(stamp.wait_end);
        Ok(())
    }

    /// Bulk-load rows directly into primaries *and* replicas at timestamp
    /// 1 (benchmark setup: start from a fully synchronized state without
    /// paying per-row transaction costs).
    pub fn bulk_load(&mut self, table: TableId, rows: Vec<gdb_model::Row>) -> GdbResult<usize> {
        // Replicas learn about tables through DDL replay; make sure any
        // pending DDL has reached them before installing rows directly.
        self.sync_replicas_now();
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
                let shard = &mut self.db.shards[s];
                let replicas = shard.replicas.iter_mut().map(|r| &mut r.applier.storage);
                let mut nodes = std::iter::once(&mut shard.storage)
                    .chain(replicas)
                    .peekable();
                while let Some(storage) = nodes.next() {
                    let copy = if s == last && nodes.peek().is_none() {
                        std::mem::take(&mut row)
                    } else {
                        row.clone()
                    };
                    storage.apply_put(table, &key, copy, ts, SimTime::ZERO)?;
                }
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
        if let BoundStatement::Ddl(bound) = &prepared.bound {
            self.run_until(at);
            self.run_ddl(bound)?;
            return Ok((
                ExecOutput::Count(0),
                TxnOutcome {
                    commit_ts: None,
                    snapshot: Timestamp::ZERO,
                    completed_at: self.sim.now(),
                    latency: SimDuration::ZERO,
                    shards_written: vec![],
                    used_replica: false,
                    aborted: false,
                },
            ));
        }
        let read_only = prepared.bound.is_read_only();
        self.run_transaction(cn, at, read_only, false, |txn| {
            txn.execute(prepared, params)
        })
    }
}
