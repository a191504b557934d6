//! Statement operations inside an open transaction. Every statement
//! becomes data-node accesses the same way: [`TxnHandle::shards_for`]
//! names the shards, [`TxnHandle::route_to_shard`] validates the routing
//! epoch, [`TxnHandle::read_target`] + [`TxnHandle::unblocked`] make the
//! Read-On-Replica decision (paper §IV-B, Fig. 5), and
//! [`TxnHandle::charge_scatter`] charges the round trips through the
//! message plane as [`RpcKind::DnRead`] / [`RpcKind::DnWrite`].
//!
//! A locking statement costs one `DnWrite` round trip per shard it locks
//! on. A single row's lock is one scatter to its owners
//! ([`TxnHandle::lock_row`]), and a point statement sends nothing before
//! it: its `read_for_update` takes the lock and reads the newest version
//! in that one request, and the key stays locked even if it has no live
//! row. The rows of a range or index statement, found by a snapshot read,
//! go as one scatter over their distinct owners (`lock_rows`). The
//! statement's later reads-for-update and writes of a row it locked ride
//! that lock ([`TxnHandle::write_row`] stages the redo and sends nothing
//! more): the write images reach the data nodes with the commit. An
//! `INSERT` always takes its own lock, which checks the key is new.

use super::history::{digest, note_read, Event};
use super::{TxnHandle, WriteOp, LOCK_LEASE, OP_MSG_BYTES};
use crate::cluster::GlobalDb;
use crate::config::OP_CPU_COST;
use crate::net::RpcKind;
use crate::ror::ReadTarget;
use gdb_model::{
    Datum, DistributionKind, GdbError, GdbResult, IndexId, Row, RowKey, RowMap, TableId,
    TableSchema, Timestamp, TxnId,
};
use gdb_simnet::SimTime;
use gdb_sqlengine::DataAccess;
use gdb_storage::{Catalog, LockOutcome};
use gdb_wal::RedoPayload;
use std::cmp::Ordering;
use std::ops::Range;

/// What a statement touches in one table, by borrowed datums.
#[derive(Clone, Copy)]
enum Touch<'k> {
    /// One tuple, by full primary key.
    Key(&'k [Datum]),
    /// The inclusive primary-key range `[lo, hi]` (`None` = unbounded;
    /// `hi` covers every key it is a prefix of, [`RowKey::in_range`]).
    Range(Option<&'k [Datum]>, Option<&'k [Datum]>),
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
            Touch::Key(key) => (&schema.primary_key, key),
            Touch::Range(Some(lo), Some(hi)) => {
                let same = |(l, h): &(&Datum, &Datum)| l.key_cmp(h) == Ordering::Equal;
                let common = lo.iter().zip(hi).take_while(same).count();
                (&schema.primary_key, &lo[..common])
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
    /// and hand it to `f` with its key where it lies in storage. A tuple
    /// blocked on the replica pays an extra primary round trip; a primary
    /// version whose commit is still in flight raises `wait` to its
    /// completion instant (in-doubt wait).
    fn fetch_key<R>(
        &mut self,
        shard: usize,
        target: ReadTarget,
        table: TableId,
        key: &[Datum],
        wait: &mut SimTime,
        f: impl FnOnce(&RowKey, &Row) -> R,
    ) -> GdbResult<Option<R>> {
        let snapshot = self.snapshot;
        if let ReadTarget::Replica(ri) = self.unblocked(shard, target, table, Touch::Key(key)) {
            let db = &mut *self.db;
            let storage = &mut db.shards[shard].replicas[ri].applier.storage;
            let vis = storage.read(table, key, snapshot)?;
            note_read(&mut db.history, (self.txn, table, key), vis.as_ref(), false);
            let out = vis.map(|v| f(v.key, v.row));
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
            f(v.key, v.row)
        }))
    }

    /// This transaction's own latest write to `key`, if it made one: its
    /// key and the image it left (`row`, `None` = deleted).
    fn own(&self, table: TableId, key: &[Datum]) -> Option<&WriteOp> {
        let &at = self.overlay.get(table, key)?;
        Some(&self.write_log[at])
    }

    /// Range and index reads. Per touched shard, an unblocked replica is
    /// read with one round trip of its own; the shards left to their
    /// primaries are read in one parallel scatter, counted as one primary
    /// read. `visit` sees the rows in key order, the transaction's own
    /// writes merged in: on one shard where they lie in storage, across
    /// several shards copied out and sorted first.
    fn read_rows(
        &mut self,
        table: TableId,
        touch: Touch,
        bytes: u64,
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        let shards = self.shards_for(table, touch, Access::Read)?;
        for s in shards.clone() {
            self.route_to_shard(s, bytes)?;
        }
        let reader = (self.txn, self.snapshot);
        if shards.len() == 1 {
            let s = shards.start;
            let target = self.read_target(s);
            let source = self.unblocked(s, target, table, touch);
            self.charge_scatter(RpcKind::DnRead, [(s, source)], bytes)?;
            self.count_read(source);
            let own = own_writes(
                &self.overlay,
                &self.write_log,
                &self.db.catalog,
                table,
                touch,
            )?;
            let mut merge = Merge::new(&own, visit);
            let (db, now) = (&mut *self.db, &mut self.now);
            walk(db, now, reader, (s, source), table, touch, &mut |k, r| {
                merge.stored(k, r)
            })?;
            return merge.finish();
        }
        let mut replicas = Vec::new();
        let mut primaries = Vec::new();
        for s in shards {
            let target = self.read_target(s);
            match self.unblocked(s, target, table, touch) {
                ReadTarget::Replica(ri) => {
                    self.charge_scatter(RpcKind::DnRead, [(s, target)], bytes)?;
                    self.count_read(target);
                    replicas.push((s, ReadTarget::Replica(ri)));
                }
                ReadTarget::Primary => primaries.push((s, ReadTarget::Primary)),
            }
        }
        if !primaries.is_empty() {
            self.charge_scatter(RpcKind::DnRead, primaries.iter().copied(), bytes)?;
            self.count_read(ReadTarget::Primary);
        }
        let mut rows = Rows::new();
        for source in replicas.into_iter().chain(primaries) {
            walk(
                self.db,
                &mut self.now,
                reader,
                source,
                table,
                touch,
                &mut |k, r| {
                    rows.push((k.clone(), r.clone()));
                    Ok(())
                },
            )?;
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let own = own_writes(
            &self.overlay,
            &self.write_log,
            &self.db.catalog,
            table,
            touch,
        )?;
        let mut merge = Merge::new(&own, visit);
        for (k, r) in &rows {
            merge.stored(k, r)?;
        }
        merge.finish()
    }

    /// Count one read served by `source`: a replica read marks the
    /// transaction as having used one.
    fn count_read(&mut self, source: ReadTarget) {
        match source {
            ReadTarget::Replica(_) => {
                self.used_replica = true;
                self.db.stats.reads_on_replica += 1;
            }
            ReadTarget::Primary => self.db.stats.reads_on_primary += 1,
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

    /// Refuse a lock or write in a transaction reading at the RCP.
    fn writable(&self) -> GdbResult<()> {
        if self.ror {
            return Err(GdbError::Execution(
                "lock or write in a read-only (ROR) transaction".into(),
            ));
        }
        Ok(())
    }

    /// True if the running statement has locked `key` of `table`.
    fn stmt_holds(&self, table: TableId, key: &[Datum]) -> bool {
        let locked = &self.locked[self.stmt_start..];
        locked.iter().any(|(_, t, k)| *t == table && **k == *key)
    }

    /// The key of the row `key` of `table`: shared from the lock list if
    /// the transaction has locked the row, else allocated — the one time
    /// it is, for the lock about to be taken.
    fn key_of(&self, table: TableId, key: &[Datum]) -> RowKey {
        let held = self
            .locked
            .iter()
            .find(|(_, t, k)| *t == table && **k == *key);
        held.map_or_else(|| RowKey::from(key), |(_, _, k)| k.clone())
    }

    /// The shared front of every write: route to the owning shard(s),
    /// charge one scatter, take the row lock on each. With `fresh`, the
    /// key must not exist yet (checked before any message is charged).
    /// Without it, a row the running statement already locked rides that
    /// lock: it is routed (the load counters see the access) but nothing
    /// is charged or locked again.
    fn lock_row(&mut self, table: TableId, key: &RowKey, fresh: bool) -> GdbResult<Range<usize>> {
        self.writable()?;
        let shards = self.shards_for(table, Touch::Key(key), Access::Write)?;
        for s in shards.clone() {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        if !fresh && self.stmt_holds(table, key) {
            return Ok(shards);
        }
        if fresh {
            // Overlay first (a row this transaction deleted may be
            // reinserted), then committed state.
            let exists = match self.own(table, key) {
                Some(own) => own.row.is_some(),
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
            self.lock_key(s, table, key);
        }
        Ok(shards)
    }

    /// Lock `key` and stage its new image (`None` = delete) on every
    /// owning shard; the transaction's own reads see it from here on.
    fn write_row(
        &mut self,
        table: TableId,
        key: &RowKey,
        mut row: Option<Row>,
        is_insert: bool,
    ) -> GdbResult<()> {
        let shards = self.lock_row(table, key, is_insert)?;
        // Storage installs this very image, so it is trimmed as a copy
        // would be: spare capacity would be pinned for the version's life.
        if let Some(r) = &mut row {
            r.0.shrink_to_fit();
        }
        self.record(|txn| Event::Write {
            txn,
            table,
            key: key.clone(),
            digest: row.as_ref().map(digest),
        });
        // Every shard but the last stages a copy; the last takes the image.
        let last = shards.end - 1;
        for s in shards.start..last {
            self.stage_write(s, table, key, row.clone(), is_insert);
        }
        self.stage_write(last, table, key, row, is_insert);
        self.overlay.insert(table, key, self.write_log.len() - 1);
        Ok(())
    }

    /// Take the lock on `key` on `shard` for the running statement,
    /// waiting out another holder. A lock taken here is remembered once;
    /// one an earlier statement took is moved into this one's entries.
    fn lock_key(&mut self, shard: usize, table: TableId, key: &RowKey) {
        loop {
            let outcome = self.db.shards[shard].storage.locks.acquire(
                table,
                key,
                self.txn,
                self.now,
                self.now + LOCK_LEASE,
            );
            match outcome {
                LockOutcome::Acquired => {
                    self.locked.push((shard, table, key.clone()));
                    return;
                }
                LockOutcome::Held => {
                    let same = |(s, t, k): &(usize, TableId, RowKey)| {
                        *s == shard && *t == table && k == key
                    };
                    let at = self.locked.iter().position(same);
                    debug_assert!(at.is_some(), "a held lock is in the list");
                    if let Some(at) = at.filter(|&at| at < self.stmt_start) {
                        self.stmt_start -= 1;
                        self.locked.swap(at, self.stmt_start);
                    }
                    return;
                }
                LockOutcome::WaitUntil(t) => {
                    self.db.stats.lock_waits += 1;
                    self.now = t;
                }
            }
        }
    }

    fn stage_write(
        &mut self,
        shard: usize,
        table: TableId,
        key: &RowKey,
        row: Option<Row>,
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
        // The write set owns the image; the redo record gets the one copy.
        let key = key.clone();
        let payload = match row.clone() {
            Some(row) if is_insert => RedoPayload::Insert {
                table,
                key: key.clone(),
                row,
            },
            Some(new_row) => RedoPayload::Update {
                table,
                key: key.clone(),
                new_row,
            },
            None => RedoPayload::Delete {
                table,
                key: key.clone(),
            },
        };
        self.db.shards[shard]
            .log
            .append(self.now, self.txn, payload);
        self.write_log.push(WriteOp {
            shard,
            table,
            key,
            row,
        });
    }
}

/// The single-shard set.
fn one(shard: usize) -> Range<usize> {
    shard..shard + 1
}

/// Walk the rows `touch` selects on `shard`'s `source` at the reader's
/// snapshot, handing each to `f` in key order where it lies. A range
/// read records the version of each row it walks in the history, and a
/// primary reader waits out (`now`) the commits in flight among them;
/// index entries carry no commit instant, so an index read does neither.
fn walk(
    db: &mut GlobalDb,
    now: &mut SimTime,
    (txn, snapshot): (TxnId, Timestamp),
    (shard, source): (usize, ReadTarget),
    table: TableId,
    touch: Touch,
    f: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
) -> GdbResult<()> {
    let (shards, history) = (&mut db.shards, &mut db.history);
    let storage = match source {
        ReadTarget::Replica(ri) => &mut shards[shard].replicas[ri].applier.storage,
        ReadTarget::Primary => &mut shards[shard].storage,
    };
    match touch {
        Touch::Range(lo, hi) => {
            for v in storage.range(table, lo, hi, snapshot)? {
                note_read(history, (txn, table, v.key), Some(&v), false);
                if source == ReadTarget::Primary {
                    *now = (*now).max(v.commit_vtime);
                }
                f(v.key, v.row)?;
            }
            Ok(())
        }
        Touch::IndexPrefix(index, prefix) => {
            storage.index_lookup(index, prefix, snapshot, &mut |v| f(v.key, v.row))
        }
        Touch::Key(_) => unreachable!("point reads go through fetch_key"),
    }
}

/// This transaction's own writes to `table` that a read of `touch`
/// meets, in key order: each key's latest image (`None` = deleted). An
/// image an index read's prefix no longer selects counts as a delete:
/// it hides the stored row it replaced.
fn own_writes<'w>(
    overlay: &'w RowMap<usize>,
    write_log: &'w [WriteOp],
    catalog: &Catalog,
    table: TableId,
    touch: Touch,
) -> GdbResult<Vec<(&'w RowKey, Option<&'w Row>)>> {
    let columns = match touch {
        Touch::IndexPrefix(index, _) => &catalog.index(index)?.columns[..],
        _ => &[],
    };
    let mut own = Vec::new();
    for (key, &at) in overlay.in_table(table) {
        let image = write_log[at].row.as_ref();
        match touch {
            Touch::Range(lo, hi) if key.in_range(lo, hi) => own.push((key, image)),
            Touch::IndexPrefix(_, prefix) => {
                let selects = |r: &&Row| {
                    let same = |(&c, p): (&usize, &Datum)| r.0[c].key_cmp(p) == Ordering::Equal;
                    columns.iter().zip(prefix).all(same)
                };
                own.push((key, image.filter(selects)));
            }
            _ => {}
        }
    }
    own.sort_by(|a, b| a.0.cmp(b.0));
    Ok(own)
}

/// Stored rows, in key order, merged with the transaction's own writes
/// to them: an own image replaces the stored row at its key, an own
/// delete hides it, and an own insert joins in key order.
struct Merge<'o, 'v> {
    own: std::iter::Peekable<std::slice::Iter<'o, (&'o RowKey, Option<&'o Row>)>>,
    visit: &'v mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
}

impl<'o, 'v> Merge<'o, 'v> {
    fn new(
        own: &'o [(&'o RowKey, Option<&'o Row>)],
        visit: &'v mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> Self {
        Merge {
            own: own.iter().peekable(),
            visit,
        }
    }

    /// The next stored row: the own writes up to its key go first, and
    /// one at its key takes its place.
    fn stored(&mut self, key: &RowKey, row: &Row) -> GdbResult<()> {
        while let Some(&(k, image)) = self.own.next_if(|(k, _)| *k <= key) {
            if let Some(r) = image {
                (self.visit)(k, r)?;
            }
            if k >= key {
                return Ok(());
            }
        }
        (self.visit)(key, row)
    }

    /// The own writes past the last stored row.
    fn finish(self) -> GdbResult<()> {
        for &(k, image) in self.own {
            if let Some(r) = image {
                (self.visit)(k, r)?;
            }
        }
        Ok(())
    }
}

impl<'a> DataAccess for TxnHandle<'a> {
    fn catalog(&self) -> &Catalog {
        &self.db.catalog
    }

    fn point_read(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        if let Some(own) = self.own(table, key) {
            return own.row.as_ref().map_or(Ok(()), |row| visit(&own.key, row));
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

    fn multi_point_read(
        &mut self,
        table: TableId,
        keys: &[Datum],
        key_len: usize,
        visit: &mut dyn FnMut(usize, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let keys = keys.chunks(key_len.max(1));
        // Group keys by shard: `reads` holds each touched shard once, in
        // first-use order (few per statement, so a position scan beats
        // hashing), paired below with its read target.
        let mut slot_of_key: Vec<usize> = Vec::with_capacity(keys.len());
        let mut reads: Vec<(usize, ReadTarget)> = Vec::new();
        for key in keys.clone() {
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

        let mut wait = self.now;
        for (i, (key, &slot)) in keys.zip(&slot_of_key).enumerate() {
            if let Some(own) = self.own(table, key) {
                own.row.as_ref().map_or(Ok(()), |row| visit(i, row))?;
                continue;
            }
            let (s, target) = reads[slot];
            let visited =
                self.fetch_key(s, target, table, key, &mut wait, |_, row| visit(i, row))?;
            visited.unwrap_or(Ok(()))?;
        }
        self.now = self.now.max(wait);
        Ok(())
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.read_rows(table, Touch::Range(lo, hi), OP_MSG_BYTES * 4, visit)
    }

    fn index_read(
        &mut self,
        index: IndexId,
        prefix: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        let table = self.db.catalog.index(index)?.table;
        let touch = Touch::IndexPrefix(index, prefix);
        self.read_rows(table, touch, OP_MSG_BYTES * 2, visit)
    }

    fn lock_rows(&mut self, table: TableId, keys: &[RowKey]) -> GdbResult<()> {
        if keys.is_empty() {
            return Ok(());
        }
        self.writable()?;
        // The keys' owners, each once: one request to each, routed as a
        // range read routes its shards.
        let mut to: Vec<(usize, ReadTarget)> = Vec::new();
        for key in keys {
            for s in self.shards_for(table, Touch::Key(key), Access::Write)? {
                if !to.iter().any(|&(u, _)| u == s) {
                    to.push((s, ReadTarget::Primary));
                }
            }
        }
        let bytes = OP_MSG_BYTES * (keys.len() as u64 / 4).max(1);
        for &(s, _) in &to {
            self.route_to_shard(s, bytes)?;
        }
        self.charge_scatter(RpcKind::DnWrite, to, bytes)?;
        // The locks themselves in turn: each wait is paid in full.
        for key in keys {
            for s in self.shards_for(table, Touch::Key(key), Access::Write)? {
                self.lock_key(s, table, key);
            }
        }
        Ok(())
    }

    fn read_for_update(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        let key = self.key_of(table, key);
        let shards = self.lock_row(table, &key, false)?;
        if let Some(own) = self.own(table, &key) {
            return own.row.as_ref().map_or(Ok(()), visit);
        }
        let db = &mut *self.db;
        let vis = db.shards[shards.start].storage.read_newest(table, &key)?;
        note_read(&mut db.history, (self.txn, table, &key), vis.as_ref(), true);
        match vis {
            Some(v) => {
                self.now = self.now.max(v.commit_vtime);
                visit(v.row)
            }
            None => Ok(()),
        }
    }

    fn insert(&mut self, table: TableId, mut row: Row) -> GdbResult<()> {
        let key = self.conform(table, &mut row)?.primary_key_of(&row);
        self.write_row(table, &key, Some(row), true)
    }

    fn update(&mut self, table: TableId, key: &[Datum], mut new_row: Row) -> GdbResult<()> {
        self.conform(table, &mut new_row)?;
        let key = self.key_of(table, key);
        self.write_row(table, &key, Some(new_row), false)
    }

    fn delete(&mut self, table: TableId, key: &[Datum]) -> GdbResult<()> {
        let key = self.key_of(table, key);
        self.write_row(table, &key, None, false)
    }
}
