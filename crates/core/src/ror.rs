//! Read-On-Replica node selection glue (paper §IV-B, Fig. 5).
//!
//! Builds per-shard candidate metrics (staleness, latency, load, health)
//! from live cluster state and runs the skyline selection from
//! `gdb-router`. Replicas that have not yet applied up to the requested
//! snapshot are excluded — the RCP guarantees *some* replica set has, and
//! the primary always qualifies.

use crate::cluster::GlobalDb;
use crate::net::RpcKind;
use gdb_model::Timestamp;
use gdb_router::{estimate_staleness_gclock, estimate_staleness_gtm, NodeMetrics, Skyline};
use gdb_simnet::{SimDuration, SimTime};
use gdb_txnmgr::TmMode;

/// Where a shard read should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTarget {
    Primary,
    /// Index into the shard's replica list.
    Replica(usize),
}

/// Diagnostic view over the ROR machinery.
pub struct RorService<'a> {
    pub db: &'a mut GlobalDb,
}

impl<'a> RorService<'a> {
    /// The skyline a CN would compute for one shard right now.
    pub fn skyline(
        &mut self,
        cn: usize,
        shard: usize,
        snapshot: Timestamp,
        now: SimTime,
    ) -> Skyline {
        self.db.shard_candidates(cn, shard, snapshot, now)
    }
}

impl GlobalDb {
    /// The skyline over a shard's read candidates: the primary plus every
    /// replica that has applied at least up to `snapshot`.
    pub(crate) fn shard_candidates(
        &mut self,
        cn: usize,
        shard: usize,
        snapshot: Timestamp,
        now: SimTime,
    ) -> Skyline {
        let cn_node = self.cns[cn].node;
        let cn_region = self.cns[cn].region;
        let mode = self.cns[cn].tm.mode;
        let gtm_head = self.gtm.current();
        let gtm_rate = self.gtm_rate.per_sec;
        let mut metrics = Vec::new();

        let shard_ref = &self.shards[shard];
        // Primary: staleness zero by definition.
        let primary_ok = !self.topo.is_node_down(shard_ref.primary)
            && !self
                .topo
                .is_partitioned(cn_region, self.topo.node_region(shard_ref.primary));
        metrics.push(NodeMetrics {
            node: shard_ref.primary,
            staleness: SimDuration::ZERO,
            latency: self.topo.nominal_rtt(cn_node, shard_ref.primary),
            load: 0.0,
            healthy: primary_ok,
        });
        // Probing a candidate's freshness/health is piggybacked state in
        // this model (no extra latency), but the probe traffic is real.
        self.plane.account(
            RpcKind::SkylineProbe,
            cn_region,
            self.topo.node_region(shard_ref.primary),
            16,
        );

        for replica in &shard_ref.replicas {
            let caught_up = replica.applier.max_commit_ts() >= snapshot;
            let up = !self.topo.is_node_down(replica.node)
                && !self.topo.is_partitioned(cn_region, replica.region);
            let staleness = match mode {
                TmMode::GClock => estimate_staleness_gclock(now, replica.applier.max_commit_ts()),
                TmMode::Gtm | TmMode::Dual => {
                    estimate_staleness_gtm(replica.applier.max_commit_ts(), gtm_head, gtm_rate)
                }
            };
            // Replay backlog inflates the load axis.
            let backlog = replica.busy_until.since(now).as_secs_f64();
            metrics.push(NodeMetrics {
                node: replica.node,
                staleness,
                latency: self.topo.nominal_rtt(cn_node, replica.node),
                load: backlog * 100.0,
                healthy: up && caught_up,
            });
            self.plane
                .account(RpcKind::SkylineProbe, cn_region, replica.region, 16);
        }

        Skyline::compute(&metrics)
    }

    /// Pick the read target for one shard access (skyline + bounded
    /// staleness, falling back to the primary).
    pub(crate) fn select_read_node(
        &mut self,
        cn: usize,
        shard: usize,
        snapshot: Timestamp,
        now: SimTime,
        freshness_bound: Option<SimDuration>,
    ) -> ReadTarget {
        let sky = self.shard_candidates(cn, shard, snapshot, now);
        let target = match sky.select(freshness_bound) {
            // Map the picked node id back to its target.
            Some(pick) => {
                let replicas = &self.shards[shard].replicas;
                match replicas.iter().position(|r| r.node == pick.node) {
                    Some(ri) => ReadTarget::Replica(ri),
                    None => ReadTarget::Primary,
                }
            }
            // Nothing on the skyline satisfies the bound (the primary is
            // normally a zero-staleness candidate, so this means it is
            // down too): fall back to the primary path and count it.
            None => {
                self.stats.ror_rejected_freshness += 1;
                ReadTarget::Primary
            }
        };
        self.note_skyline_pick(cn, shard, target, now);
        target
    }

    /// Count every skyline evaluation; a pick that differs from the last
    /// one for the same (CN, shard) is a re-selection (the router moved
    /// the read traffic) and is recorded as a `skyline_reselect` span.
    fn note_skyline_pick(&mut self, cn: usize, shard: usize, target: ReadTarget, now: SimTime) {
        self.obs.metrics.bump(self.hot.router.skyline_selections);
        // Flat-indexed slot (cn * shard_count + shard): O(1), no hashing
        // on a per-read path that runs once per ROR-eligible statement.
        let prev = self.last_skyline_pick[cn * self.shards.len() + shard].replace(target);
        if prev.is_some_and(|p| p != target) {
            self.obs.metrics.bump(self.hot.router.skyline_reselections);
            self.obs.tracer.record(
                gdb_obs::SpanKind::SkylineReselect,
                ((cn as u64) << 32) | shard as u64,
                now,
                now,
            );
        }
    }
}
