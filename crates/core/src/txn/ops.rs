//! Statement operations inside an open transaction. Every statement
//! becomes data-node accesses the same way: [`TxnHandle::shards_for`]
//! names the shards, [`TxnHandle::route_to_shard`] validates the routing
//! epoch, [`TxnHandle::read_target`] + [`TxnHandle::unblocked`] make the
//! Read-On-Replica decision (paper §IV-B, Fig. 5), and
//! [`TxnHandle::charge_scatter`] charges the round trips through the
//! message plane as [`RpcKind::DnRead`] / [`RpcKind::DnWrite`]. Writes
//! share [`TxnHandle::lock_row`] and [`TxnHandle::write_row`].

use super::history::{digest, note_read, Event, History};
use super::{TxnHandle, WriteOp, LOCK_LEASE, OP_MSG_BYTES};
use crate::config::OP_CPU_COST;
use crate::net::RpcKind;
use crate::ror::ReadTarget;
use gdb_model::{
    Datum, DistributionKind, GdbError, GdbResult, IndexId, Row, RowKey, TableId, TableSchema,
    Timestamp,
};
use gdb_simnet::SimTime;
use gdb_sqlengine::plan::BoundDdl;
use gdb_sqlengine::DataAccess;
use gdb_storage::{Catalog, DataNodeStorage, LockOutcome};
use gdb_wal::RedoPayload;
use std::cmp::Ordering;
use std::ops::Range;

/// What a statement touches in one table.
#[derive(Clone, Copy)]
enum Touch<'k> {
    /// One tuple, by full primary key.
    Key(&'k RowKey),
    /// The inclusive primary-key range `[lo, hi]` (`None` = unbounded).
    Range(Option<&'k RowKey>, Option<&'k RowKey>),
    /// The tuples whose leading index columns equal the prefix values.
    IndexPrefix(IndexId, &'k [Datum]),
}

#[derive(Clone, Copy)]
enum Access {
    Read,
    Write,
}

type Rows = Vec<(RowKey, Row)>;

impl<'a> TxnHandle<'a> {
    // ---- Shard resolution, routing, message charging -------------------

    /// The shards an access must reach: a table replicated to every shard
    /// is read at the nearest one and written on all; otherwise the one
    /// shard owning the distribution-key value, provided `touch` fixes
    /// every distribution-key column — else all of them.
    fn shards_for(&self, table: TableId, touch: Touch, access: Access) -> GdbResult<Range<usize>> {
        let schema = self.db.catalog.table(table)?;
        let all = 0..self.db.shards.len();
        if matches!(schema.distribution, DistributionKind::Replicated) {
            return Ok(match access {
                Access::Read => one(self.db.nearest_shard(self.cn)),
                Access::Write => all,
            });
        }
        // The leading values `touch` fixes, and the columns they belong to.
        let (cols, vals): (&[usize], &[Datum]) = match touch {
            Touch::Key(key) => (&schema.primary_key, &key.0),
            Touch::Range(Some(lo), Some(hi)) => {
                let same = |(l, h): &(&Datum, &Datum)| l.key_cmp(h) == Ordering::Equal;
                let common = lo.0.iter().zip(hi.0.iter()).take_while(same).count();
                (&schema.primary_key, &lo.0[..common])
            }
            Touch::Range(..) => return Ok(all),
            Touch::IndexPrefix(index, prefix) => (&self.db.catalog.index(index)?.columns, prefix),
        };
        // Where each distribution-key column sits among the fixed values.
        let pos = |dc: &usize| {
            cols.iter()
                .position(|c| c == dc)
                .filter(|&p| p < vals.len())
        };
        if !schema.distribution_key.iter().all(|dc| pos(dc).is_some()) {
            return Ok(all);
        }
        let dist_vals = schema
            .distribution_key
            .iter()
            .filter_map(|dc| pos(dc).map(|p| &vals[p]));
        let shard_count = self.db.shards.len() as u16;
        Ok(one(
            schema.shard_of_values(dist_vals, shard_count).0 as usize
        ))
    }

    /// Validate this handle's cached routing epoch against `shard`'s
    /// ownership epoch, and note the access in the per-shard load
    /// counters the rebalance detector consumes. A stale epoch (the
    /// shard migrated after this transaction began) refreshes the CN's
    /// route cache immediately and returns the retryable
    /// [`GdbError::StaleRoute`], so the client's retry re-routes at the
    /// fresh epoch.
    fn route_to_shard(&mut self, shard: usize, bytes: u64) -> GdbResult<()> {
        let db = &mut *self.db;
        // O(1) epoch check off the flat routing table; the table is
        // rebuilt at every placement change, so it always mirrors
        // `shards[shard].owner_epoch` (pinned by the debug assert).
        let owner = db.routes.owner_epoch(shard);
        debug_assert_eq!(owner, db.shards[shard].owner_epoch);
        if self.route_epoch < owner {
            db.stats.stale_route_rejects += 1;
            db.cns[self.cn].route_epoch = db.routing_epoch;
            return Err(GdbError::StaleRoute(format!(
                "shard {shard}: route epoch {} < owner epoch {owner}",
                self.route_epoch
            )));
        }
        let region = db.region_idx_of_cn(self.cn);
        let load = &mut db.shard_load[shard];
        load.ops += 1;
        load.bytes += bytes;
        load.by_region[region] += 1;
        Ok(())
    }

    /// Charge one parallel scatter from the CN to the given node of each
    /// `(shard, target)`: request out, `bytes` back, the slowest round
    /// trip plus the per-operation CPU cost. A single pair is a plain
    /// round trip.
    fn charge_scatter(
        &mut self,
        kind: RpcKind,
        to: impl IntoIterator<Item = (usize, ReadTarget)>,
        bytes: u64,
    ) -> GdbResult<()> {
        let db = &mut *self.db;
        let shards = &db.shards;
        let nodes = to.into_iter().map(|(shard, target)| match target {
            ReadTarget::Primary => shards[shard].primary,
            ReadTarget::Replica(ri) => shards[shard].replicas[ri].node,
        });
        let cn_node = db.cns[self.cn].node;
        let back = bytes.max(OP_MSG_BYTES);
        let slowest = db
            .plane
            .scatter(&mut db.topo, kind, cn_node, nodes, OP_MSG_BYTES, back)
            .ok_or_else(|| GdbError::NodeUnavailable("data node unreachable".into()))?;
        self.now += slowest + OP_CPU_COST;
        Ok(())
    }

    // ---- The Read-On-Replica decision -----------------------------------

    /// Where reads of `shard` go: off the skyline at the RCP snapshot
    /// under ROR, else the primary.
    fn read_target(&mut self, shard: usize) -> ReadTarget {
        if !self.ror {
            return ReadTarget::Primary;
        }
        self.db.select_read_node(
            self.cn,
            shard,
            self.snapshot,
            self.now,
            self.freshness_bound,
        )
    }

    /// `target`, unless it is a replica on which `touch` is held by a
    /// replayed `PENDING_COMMIT` whose outcome has not replayed yet: the
    /// reader must not miss that commit, so it falls back to the primary.
    fn unblocked(
        &mut self,
        shard: usize,
        target: ReadTarget,
        table: TableId,
        touch: Touch,
    ) -> ReadTarget {
        if let ReadTarget::Replica(ri) = target {
            let applier = &self.db.shards[shard].replicas[ri].applier;
            let blocked = match touch {
                Touch::Key(key) => applier.is_key_locked(table, key),
                Touch::Range(lo, hi) => applier.is_range_blocked(table, lo, hi),
                // Conservative: any pending write to the table blocks.
                Touch::IndexPrefix(..) => applier.is_range_blocked(table, None, None),
            };
            if blocked {
                self.db.stats.replica_blocked_fallbacks += 1;
                return ReadTarget::Primary;
            }
        }
        target
    }

    // ---- Read paths -------------------------------------------------------

    /// Fetch one tuple from `target`, whose round trip is already paid,
    /// and hand it to `f` where it lies in storage. A tuple blocked on
    /// the replica pays an extra primary round trip; a primary version
    /// whose commit is still in flight raises `wait` to its completion
    /// instant (in-doubt wait).
    fn fetch_key<R>(
        &mut self,
        shard: usize,
        target: ReadTarget,
        table: TableId,
        key: &RowKey,
        wait: &mut SimTime,
        f: impl FnOnce(&Row) -> R,
    ) -> GdbResult<Option<R>> {
        let snapshot = self.snapshot;
        if let ReadTarget::Replica(ri) = self.unblocked(shard, target, table, Touch::Key(key)) {
            let db = &mut *self.db;
            let storage = &mut db.shards[shard].replicas[ri].applier.storage;
            let vis = storage.read(table, key, snapshot)?;
            note_read(&mut db.history, (self.txn, table, key), vis.as_ref(), false);
            let out = vis.map(|v| f(v.row));
            self.used_replica = true;
            self.db.stats.reads_on_replica += 1;
            return Ok(out);
        }
        if target != ReadTarget::Primary {
            self.charge_scatter(
                RpcKind::DnRead,
                [(shard, ReadTarget::Primary)],
                OP_MSG_BYTES,
            )?;
        }
        self.db.stats.reads_on_primary += 1;
        let db = &mut *self.db;
        let vis = db.shards[shard].storage.read(table, key, snapshot)?;
        note_read(&mut db.history, (self.txn, table, key), vis.as_ref(), false);
        Ok(vis.map(|v| {
            *wait = (*wait).max(v.commit_vtime);
            f(v.row)
        }))
    }

    /// Range and index reads: per touched shard, an unblocked replica is
    /// read with one round trip of its own; the shards left to their
    /// primaries are read in one parallel scatter, counted as one primary
    /// read. `fetch` appends one storage instance's rows (recording their
    /// versions when the history is on) and returns the latest commit
    /// instant among them (primary readers wait for it).
    fn read_rows(
        &mut self,
        table: TableId,
        touch: Touch,
        bytes: u64,
        fetch: impl Fn(
            &mut DataNodeStorage,
            Timestamp,
            &mut Rows,
            &mut Option<History>,
        ) -> GdbResult<SimTime>,
    ) -> GdbResult<Rows> {
        let shards = self.shards_for(table, touch, Access::Read)?;
        for s in shards.clone() {
            self.route_to_shard(s, bytes)?;
        }
        let snapshot = self.snapshot;
        let mut out = Rows::new();
        let mut primaries = Vec::new();
        for s in shards {
            let target = self.read_target(s);
            match self.unblocked(s, target, table, touch) {
                ReadTarget::Replica(ri) => {
                    self.charge_scatter(RpcKind::DnRead, [(s, target)], bytes)?;
                    self.used_replica = true;
                    self.db.stats.reads_on_replica += 1;
                    let db = &mut *self.db;
                    let storage = &mut db.shards[s].replicas[ri].applier.storage;
                    fetch(storage, snapshot, &mut out, &mut db.history)?;
                }
                ReadTarget::Primary => primaries.push(s),
            }
        }
        if !primaries.is_empty() {
            let to = primaries.iter().map(|&s| (s, ReadTarget::Primary));
            self.charge_scatter(RpcKind::DnRead, to, bytes)?;
            self.db.stats.reads_on_primary += 1;
            for &s in &primaries {
                let db = &mut *self.db;
                let storage = &mut db.shards[s].storage;
                let wait = fetch(storage, snapshot, &mut out, &mut db.history)?;
                self.now = self.now.max(wait);
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn merge_overlay_into_range(
        &self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
        rows: &mut Rows,
    ) {
        let mut changed = false;
        for (key, row) in self.overlay.in_table(table) {
            if lo.is_some_and(|l| key < l) || hi.is_some_and(|h| key > h) {
                continue;
            }
            match rows.iter().position(|(k, _)| k == key) {
                Some(i) => match row {
                    Some(r) => rows[i].1 = r.clone(),
                    None => {
                        rows.remove(i);
                    }
                },
                None => {
                    if let Some(r) = row {
                        rows.push((key.clone(), r.clone()));
                        changed = true;
                    }
                }
            }
        }
        if changed {
            rows.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }

    // ---- Write path ---------------------------------------------------------

    /// Coerce and validate `row` against the catalog's schema of `table`.
    fn conform(&self, table: TableId, row: &mut Row) -> GdbResult<&TableSchema> {
        let schema = self.db.catalog.table(table)?;
        schema.coerce_row(row);
        schema.check_row(row)?;
        Ok(schema)
    }

    /// The shared front of every write: route to the owning shard(s),
    /// charge one scatter, take the row lock on each. With `fresh`, the
    /// key must not exist yet (checked before any message is charged).
    fn lock_row(&mut self, table: TableId, key: &RowKey, fresh: bool) -> GdbResult<Range<usize>> {
        if self.ror {
            return Err(GdbError::Execution(
                "lock or write in a read-only (ROR) transaction".into(),
            ));
        }
        let shards = self.shards_for(table, Touch::Key(key), Access::Write)?;
        for s in shards.clone() {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        if fresh {
            // Overlay first (a row this transaction deleted may be
            // reinserted), then committed state.
            let exists = match self.overlay.get(table, key) {
                Some(own) => own.is_some(),
                None => self.db.shards[shards.start]
                    .storage
                    .table(table)?
                    .exists_newest(key),
            };
            if exists {
                return Err(GdbError::DuplicateKey(format!("{table} {key}")));
            }
        }
        let to = shards.clone().map(|s| (s, ReadTarget::Primary));
        self.charge_scatter(RpcKind::DnWrite, to, OP_MSG_BYTES)?;
        for s in shards.clone() {
            self.lock_key(s, table, key)?;
        }
        Ok(shards)
    }

    /// Lock `key` and stage its new image (`None` = delete) on every
    /// owning shard; the transaction's own reads see it from here on.
    fn write_row(
        &mut self,
        table: TableId,
        key: &RowKey,
        row: Option<Row>,
        is_insert: bool,
    ) -> GdbResult<()> {
        for s in self.lock_row(table, key, is_insert)? {
            self.stage_write(s, table, key, &row, is_insert);
        }
        self.record(|txn| Event::Write {
            txn,
            table,
            key: key.clone(),
            digest: row.as_ref().map(digest),
        });
        self.overlay.insert(table, key, row);
        Ok(())
    }

    fn lock_key(&mut self, shard: usize, table: TableId, key: &RowKey) -> GdbResult<()> {
        loop {
            let outcome = self.db.shards[shard].storage.locks.acquire(
                table,
                key,
                self.txn,
                self.now,
                self.now + LOCK_LEASE,
            );
            match outcome {
                LockOutcome::Acquired => break,
                LockOutcome::WaitUntil(t) => {
                    self.db.stats.lock_waits += 1;
                    self.now = t;
                }
            }
        }
        self.locked.push((shard, table, key.clone()));
        Ok(())
    }

    fn stage_write(
        &mut self,
        shard: usize,
        table: TableId,
        key: &RowKey,
        row: &Option<Row>,
        is_insert: bool,
    ) {
        // PENDING_COMMIT is written before the transaction obtains its
        // invocation timestamp / first write lands (paper §IV-A).
        if let Err(at) = self.shards_written.binary_search(&shard) {
            self.shards_written.insert(at, shard);
            self.db.shards[shard]
                .log
                .append(self.now, self.txn, RedoPayload::PendingCommit);
        }
        // One copy of the key and image for the redo record, one for the
        // write set the commit installs from.
        let op = WriteOp {
            shard,
            table,
            key: key.clone(),
            row: row.clone(),
        };
        let (key, image) = (key.clone(), row.clone());
        let payload = match image {
            Some(row) if is_insert => RedoPayload::Insert { table, key, row },
            Some(new_row) => RedoPayload::Update {
                table,
                key,
                new_row,
            },
            None => RedoPayload::Delete { table, key },
        };
        self.db.shards[shard]
            .log
            .append(self.now, self.txn, payload);
        self.write_log.push(op);
    }
}

/// The single-shard set.
fn one(shard: usize) -> Range<usize> {
    shard..shard + 1
}

impl<'a> DataAccess for TxnHandle<'a> {
    fn catalog(&self) -> &Catalog {
        &self.db.catalog
    }

    fn point_read(
        &mut self,
        table: TableId,
        key: &RowKey,
        visit: &mut dyn FnMut(&Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        if let Some(hit) = self.overlay.get(table, key) {
            return hit.as_ref().map_or(Ok(()), visit);
        }
        let shard = self.shards_for(table, Touch::Key(key), Access::Read)?.start;
        self.route_to_shard(shard, OP_MSG_BYTES)?;
        let target = self.read_target(shard);
        self.charge_scatter(RpcKind::DnRead, [(shard, target)], OP_MSG_BYTES)?;
        let mut wait = self.now;
        let visited = self.fetch_key(shard, target, table, key, &mut wait, visit)?;
        self.now = self.now.max(wait);
        visited.unwrap_or(Ok(()))
    }

    fn multi_point_read(&mut self, table: TableId, keys: &[RowKey]) -> GdbResult<Vec<Option<Row>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Group keys by shard: `reads` holds each touched shard once, in
        // first-use order (few per statement, so a position scan beats
        // hashing), paired below with its read target.
        let mut slot_of_key: Vec<usize> = Vec::with_capacity(keys.len());
        let mut reads: Vec<(usize, ReadTarget)> = Vec::new();
        for key in keys {
            let s = self.shards_for(table, Touch::Key(key), Access::Read)?.start;
            let slot = reads.iter().position(|&(u, _)| u == s).unwrap_or_else(|| {
                reads.push((s, ReadTarget::Primary));
                reads.len() - 1
            });
            slot_of_key.push(slot);
        }
        for &(s, _) in &reads {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        for read in &mut reads {
            read.1 = self.read_target(read.0);
        }
        // One parallel scatter over the chosen nodes for the whole batch.
        let bytes = OP_MSG_BYTES * (keys.len() as u64 / 4).max(1);
        self.charge_scatter(RpcKind::DnRead, reads.iter().copied(), bytes)?;

        let mut out = Vec::with_capacity(keys.len());
        let mut wait = self.now;
        for (key, &slot) in keys.iter().zip(&slot_of_key) {
            if let Some(hit) = self.overlay.get(table, key) {
                out.push(hit.clone());
                continue;
            }
            let (s, target) = reads[slot];
            out.push(self.fetch_key(s, target, table, key, &mut wait, Row::clone)?);
        }
        self.now = self.now.max(wait);
        Ok(out)
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> GdbResult<Rows> {
        let txn = self.txn;
        let fetch = |storage: &mut DataNodeStorage, snapshot, out: &mut Rows, h: &mut Option<_>| {
            let mut wait = SimTime::ZERO;
            let rows = storage.range(table, lo, hi, snapshot)?;
            if h.is_some() {
                for v in &rows {
                    note_read(h, (txn, table, v.key), Some(v), false);
                }
            }
            for v in rows {
                wait = wait.max(v.commit_vtime);
                out.push((v.key.clone(), v.row.clone()));
            }
            Ok(wait)
        };
        let mut out = self.read_rows(table, Touch::Range(lo, hi), OP_MSG_BYTES * 4, fetch)?;
        self.merge_overlay_into_range(table, lo, hi, &mut out);
        Ok(out)
    }

    fn index_read(&mut self, index: IndexId, prefix: &[Datum]) -> GdbResult<Rows> {
        let table = self.db.catalog.index(index)?.table;
        // Index entries carry no commit instant: no in-doubt wait.
        let fetch = |storage: &mut DataNodeStorage, snapshot, out: &mut Rows, _: &mut _| {
            out.extend(storage.index_lookup(index, prefix, snapshot)?);
            Ok(SimTime::ZERO)
        };
        let touch = Touch::IndexPrefix(index, prefix);
        let mut out = self.read_rows(table, touch, OP_MSG_BYTES * 2, fetch)?;
        // Overlay merge: recheck added/updated rows against the prefix.
        let columns = &self.db.catalog.index(index)?.columns;
        for (key, row) in self.overlay.in_table(table) {
            out.retain(|(k, _)| k != key);
            if let Some(r) = row {
                let matches = columns
                    .iter()
                    .zip(prefix)
                    .all(|(&c, p)| r.0[c].key_cmp(p) == Ordering::Equal);
                if matches {
                    out.push((key.clone(), r.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn full_scan(&mut self, table: TableId) -> GdbResult<Rows> {
        self.range_read(table, None, None)
    }

    fn read_for_update(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>> {
        let shards = self.lock_row(table, key, false)?;
        if let Some(hit) = self.overlay.get(table, key) {
            return Ok(hit.clone());
        }
        let db = &mut *self.db;
        let vis = db.shards[shards.start].storage.read_newest(table, key)?;
        note_read(&mut db.history, (self.txn, table, key), vis.as_ref(), true);
        Ok(vis.map(|v| {
            self.now = self.now.max(v.commit_vtime);
            v.row.clone()
        }))
    }

    fn insert(&mut self, table: TableId, mut row: Row) -> GdbResult<()> {
        let key = self.conform(table, &mut row)?.primary_key_of(&row);
        self.write_row(table, &key, Some(row), true)
    }

    fn update(&mut self, table: TableId, key: &RowKey, mut new_row: Row) -> GdbResult<()> {
        self.conform(table, &mut new_row)?;
        self.write_row(table, key, Some(new_row), false)
    }

    fn delete(&mut self, table: TableId, key: &RowKey) -> GdbResult<()> {
        self.write_row(table, key, None, false)
    }

    fn apply_ddl(&mut self, _ddl: &BoundDdl) -> GdbResult<()> {
        Err(GdbError::Plan(
            "DDL cannot run inside a transaction; use Cluster::ddl".into(),
        ))
    }
}
