//! The cluster's SQL frontend: statement preparation, DDL execution, and
//! bulk loading — everything that turns SQL text into cluster state
//! changes outside the per-transaction path in [`crate::txn`].

use crate::cluster::Cluster;
use crate::stats::TxnOutcome;
use gdb_model::{GdbError, GdbResult, TableId, TableSchema, Timestamp};
use gdb_simnet::{SimDuration, SimTime};
use gdb_sqlengine::plan::BoundDdl;
use gdb_sqlengine::{prepare, ExecOutput, Prepared};
use gdb_txnmgr::TmMode;
use gdb_wal::RedoPayload;

impl Cluster {
    /// Prepare a SQL statement against the cluster catalog.
    pub fn prepare(&self, sql: &str) -> GdbResult<Prepared> {
        prepare(sql, &self.db.catalog)
    }

    /// Execute a DDL statement cluster-wide at the current virtual time.
    /// DDL replicates to every shard's redo stream and is tracked for the
    /// ROR visibility conditions (§IV-A).
    pub fn ddl(&mut self, sql: &str) -> GdbResult<()> {
        let now = self.sim.now();
        let prepared = prepare(sql, &self.db.catalog)?;
        let bound = match prepared.bound {
            gdb_sqlengine::BoundStatement::Ddl(d) => d,
            _ => return Err(GdbError::Plan("not a DDL statement".into())),
        };
        // DDL commits through the transaction manager like any write.
        let cn_idx = 0;
        self.db.sync_cn_clock(cn_idx, now);
        let ts = match self.db.cns[cn_idx].tm.mode {
            TmMode::GClock => {
                let ts = self.db.cns[cn_idx].tm.gclock.assign_timestamp(now);
                self.db.gtm.observe_commit(ts);
                ts
            }
            TmMode::Gtm => self.db.gtm.commit_gtm()?.0,
            TmMode::Dual => {
                let g = self.db.cns[cn_idx].tm.gclock.assign_timestamp(now);
                self.db.gtm.commit_dual(g)
            }
        };
        let txn = self.db.next_txn_id(cn_idx);

        let (kind, table_for_ddl) = match &bound {
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
            shard.log.append(
                now,
                txn,
                RedoPayload::Ddl {
                    commit_ts: ts,
                    kind: kind.clone(),
                },
            );
        }
        self.db.ddl.record(table_for_ddl, ts);
        self.db.cns[cn_idx].tm.finish_commit(ts);
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
            let targets: Vec<usize> = match schema.distribution {
                gdb_model::DistributionKind::Replicated => (0..self.db.shards.len()).collect(),
                _ => vec![schema.shard_of_pk(&key, shard_count).0 as usize],
            };
            // Every installed copy is a clone, the last one included: a
            // clone is trimmed to its length, while the loader's own row
            // can carry string capacity it grew into and would pin it
            // for the life of the version.
            for s in targets {
                let shard = &mut self.db.shards[s];
                shard
                    .storage
                    .apply_put(table, &key, row.clone(), ts, SimTime::ZERO)?;
                for replica in &mut shard.replicas {
                    replica.applier.storage.apply_put(
                        table,
                        &key,
                        row.clone(),
                        ts,
                        SimTime::ZERO,
                    )?;
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
        if matches!(prepared.bound, gdb_sqlengine::BoundStatement::Ddl(_)) {
            self.run_until(at);
            self.ddl(&prepared.sql)?;
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

    /// Override the replication mode of one table (paper future work:
    /// "synchronous replicated tables that co-exist with asynchronous
    /// tables"). Commits touching the table pay the synchronous quorum
    /// wait; other tables keep the cluster-wide default.
    pub fn set_table_replication(
        &mut self,
        table_name: &str,
        mode: gdb_replication::ReplicationMode,
    ) -> GdbResult<()> {
        let id = self.db.catalog.table_by_name(table_name)?.id;
        self.db.table_replication.insert(id, mode);
        Ok(())
    }
}
