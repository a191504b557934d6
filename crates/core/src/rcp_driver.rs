//! The RCP driver: per-region consistency-point rounds (paper §IV-A),
//! heartbeats, the clock-health watchdog, and version vacuuming.
//!
//! An RCP round is two phases — *collect* (the region's collector CN
//! gathers max commit timestamps from the replicas at its site) and
//! *finish* (compute `min`, distribute to the region's CNs) — separated
//! by the gathering round trips, which is exactly the window a collector
//! crash can land in. The gather/distribute fan-in is counted on the
//! message plane ([`RpcKind::RcpGather`] / [`RpcKind::RcpDistribute`]);
//! its latency is modelled by the round's scheduling, not per message.
//! Vacuum has no timer: a finish that raises the vacuum horizon, the
//! minimum published RCP, is what makes versions reclaimable, so it vacuums.

use crate::cluster::GlobalDb;
use crate::event::{CoreEvent, CoreSim};
use crate::net::RpcKind;
use crate::repl_driver::{followers, Replica, Shard};
use gdb_consistency::RcpCalculator;
use gdb_model::Timestamp;
use gdb_obs::{SpanId, SpanKind};
use gdb_simnet::{RegionId, SimDuration, SimTime};
use gdb_txnmgr::TmMode;
use gdb_wal::{Lsn, RedoPayload};

/// Tracks the GTM timestamp issue rate (used for GTM-mode staleness
/// estimation, paper §IV-B).
#[derive(Debug, Default, Clone, Copy)]
pub struct GtmRate {
    last_counter: u64,
    last_at: SimTime,
    pub per_sec: f64,
}

impl GtmRate {
    fn observe(&mut self, counter: u64, now: SimTime) {
        let dt = now.since(self.last_at).as_secs_f64();
        if dt > 0.0 {
            self.per_sec = (counter.saturating_sub(self.last_counter)) as f64 / dt;
        }
        self.last_counter = counter;
        self.last_at = now;
    }
}

impl GlobalDb {
    /// Phase 1 of an RCP collection round for a region (paper §IV-A): the
    /// collector CN gathers max commit timestamps from the replicas at its
    /// site. Returns the global index of the collecting CN, or `None` when
    /// every CN in the region is down (round skipped).
    ///
    /// The collector election refreshes from node health first: if the
    /// current collector CN died, the next alive CN in the region takes
    /// over (a collector failover).
    pub fn rcp_collect(&mut self, region_idx: usize) -> Option<usize> {
        let region = self.regions[region_idx];
        let region_cns: Vec<usize> = (0..self.cns.len())
            .filter(|&i| self.cns[i].region == region)
            .collect();
        let alive: Vec<bool> = region_cns
            .iter()
            .map(|&cn| !self.topo.is_node_down(self.cns[cn].node))
            .collect();
        if self.collectors[region_idx].refresh(&alive).is_some() {
            self.stats.collector_failovers += 1;
        }
        let collector_slot = self.collectors[region_idx].collector()?;
        // Report every replica located in this region.
        let GlobalDb {
            shards, rcp, plane, ..
        } = self;
        for (slot, replica) in rcp_slots(shards, region) {
            rcp[region_idx].report(slot, replica.applier.max_commit_ts());
            plane.account(RpcKind::RcpGather, region, region, 64);
        }
        Some(region_cns[collector_slot])
    }

    /// Phase 2: the collector computes `min` over the gathered reports and
    /// distributes it to the region's CNs. If the collector crashed since
    /// phase 1, the round is abandoned — CNs keep their previous RCP, so
    /// the value every client observes stays monotone.
    pub fn rcp_finish(&mut self, region_idx: usize, collector_cn: usize, now: SimTime) {
        let region = self.regions[region_idx];
        if self.topo.is_node_down(self.cns[collector_cn].node) {
            self.stats.rcp_rounds_abandoned += 1;
            return;
        }
        let rcp = self.rcp[region_idx].compute();
        // Distribute to the region's alive CNs (monotone adoption).
        for i in 0..self.cns.len() {
            if self.cns[i].region == region && !self.topo.is_node_down(self.cns[i].node) {
                self.cns[i].rcp = self.cns[i].rcp.max(rcp);
                self.plane
                    .account(RpcKind::RcpDistribute, region, region, 16);
            }
        }
        self.stats.rcp_rounds += 1;
        // Track the GTM issue rate for GTM-mode staleness estimation.
        let counter = self.gtm.current().0;
        if region_idx == 0 {
            self.gtm_rate.observe(counter, now);
        }
    }

    /// How long the collector spends gathering replica reports: the
    /// slowest nominal round trip to a replica at its site. The background
    /// RCP event schedules the finish phase this far after the collect
    /// phase, which is exactly the window a collector crash can hit.
    pub fn rcp_gather_delay(&self, region_idx: usize, collector_cn: usize) -> SimDuration {
        let region = self.regions[region_idx];
        let cn_node = self.cns[collector_cn].node;
        let mut delay = SimDuration::from_micros(50);
        for (_, replica) in rcp_slots(&self.shards, region) {
            delay = delay.max(self.topo.nominal_rtt(cn_node, replica.node));
        }
        delay
    }

    /// Clock-health watchdog (paper §III-A / Fig. 3): if any CN reports an
    /// unhealthy clock while the cluster runs in GClock mode, fall back to
    /// centralized GTM mode online. Returns true if a transition started.
    pub(crate) fn clock_health_check(&mut self) -> bool {
        if self.orchestrator.in_progress() {
            return false;
        }
        let in_gclock = self.cns.iter().any(|c| c.tm.mode == TmMode::GClock);
        let unhealthy = self.cns.iter().any(|c| !c.tm.gclock.is_healthy());
        in_gclock && unhealthy
    }

    /// Send a heartbeat transaction to every shard so replica max-commit
    /// timestamps advance even when idle (paper §IV-A). It is stamped like
    /// any commit and staged when its commit wait ends, so no write staged
    /// after it commits below it. Returns its timestamp, or `None` when no
    /// CN is alive or the stamp fails (modes that stamp through the GTM
    /// cannot heartbeat while it is unreachable).
    pub(crate) fn heartbeat(&mut self, mut now: SimTime) -> Option<Timestamp> {
        let cn = self.first_alive_cn()?;
        let stamp = self.commit_stamp(cn, &mut now).ok()?;
        let txn = self.next_txn_id(cn);
        for shard in &mut self.shards {
            let payload = RedoPayload::Heartbeat {
                commit_ts: stamp.ts,
            };
            shard.log.append(stamp.wait_end, txn, payload);
        }
        self.stats.heartbeats_sent += 1;
        Some(stamp.ts)
    }

    /// The region of the first alive CN whose RCP is below `ts` although
    /// replicas at its site report to it, if any.
    pub(crate) fn rcp_short_of(&self, ts: Timestamp) -> Option<RegionId> {
        self.cns
            .iter()
            .find(|cn| {
                cn.rcp < ts
                    && !self.topo.is_node_down(cn.node)
                    && rcp_slots(&self.shards, cn.region).next().is_some()
            })
            .map(|cn| cn.region)
    }

    /// Rebuild the per-region RCP calculators after replica membership
    /// changes (promotion / permanent removal). CN-visible RCP values stay
    /// monotone because CNs only ever adopt larger values.
    pub(crate) fn rebuild_rcp_groups(&mut self) {
        for (region_idx, &region) in self.regions.iter().enumerate() {
            self.rcp[region_idx] = rcp_group(&self.shards, region);
        }
    }

    /// The vacuum horizon: the cluster-wide minimum published RCP.
    fn vacuum_horizon(&self) -> Timestamp {
        self.rcp
            .iter()
            .map(|r| r.current())
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Vacuum primaries up to the cluster-wide minimum RCP (safe horizon:
    /// every replica and every client snapshot is at or above it), trim
    /// shard shipping logs past the durable-consumer floor and drop the
    /// row locks released by `now`.
    pub(crate) fn vacuum(&mut self, now: SimTime) -> usize {
        // Shard-log trimming: every record below the minimum resume
        // point over the shard's followers (replicas and in-flight
        // migration targets) is durably consumed and can never be
        // re-requested (a restarted stream rewinds to the applier's
        // resume point, and in-flight delivery events carry their
        // records by value).
        for (si, s) in self.shards.iter_mut().enumerate() {
            let floor = followers(&mut s.replicas, &mut self.migrations, si)
                .map(|f| f.applier.resume_from())
                .fold(s.log.sealed_head(), Lsn::min);
            s.log.trim_shipped(floor);
            // A live primary drops the row locks released by `now`: every
            // later acquire runs at or after `now`, and to it an expired
            // lock and an absent one are the same. A crashed primary does
            // no housekeeping; a takeover carries its table as it was.
            if !self.topo.is_node_down(s.primary) {
                s.storage.locks.sweep(now);
            }
        }

        let horizon = self.vacuum_horizon();
        if horizon == Timestamp::ZERO {
            return 0;
        }
        let h = horizon.prev();
        self.vacuumed_to = self.vacuumed_to.max(h);
        self.shards
            .iter_mut()
            .map(|s| {
                let mut removed = s.storage.vacuum(h);
                // Replicas vacuum at the same horizon: every client
                // snapshot (RCP-gated) is at or above it.
                for replica in &mut s.replicas {
                    removed += replica.applier.storage.vacuum(h);
                }
                removed
            })
            .sum()
    }
}

/// Every replica located in `region`, with its RCP slot: replicas are
/// numbered across all shards in order, so a slot names one replica of
/// the cluster.
fn rcp_slots(shards: &[Shard], region: RegionId) -> impl Iterator<Item = (u32, &Replica)> {
    let replicas = shards.iter().flat_map(|s| &s.replicas);
    (0u32..)
        .zip(replicas)
        .filter(move |(_, r)| r.region == region)
}

/// A fresh RCP calculator for `region`, expecting its replicas' slots.
pub(crate) fn rcp_group(shards: &[Shard], region: RegionId) -> RcpCalculator {
    RcpCalculator::new(rcp_slots(shards, region).map(|(slot, _)| slot).collect())
}

// ---- Recurring event functions ------------------------------------------

pub(crate) fn rcp_event(w: &mut GlobalDb, sim: &mut CoreSim, region: usize) {
    // Gather replica reports now; compute and distribute after the
    // gathering round trips. A collector crash in between abandons the
    // round. The round's span (and latency) covers collect through
    // finish; the span id rides in the finish event.
    let start = sim.now();
    if let Some(collector_cn) = w.rcp_collect(region) {
        let span = w.obs.tracer.begin(SpanKind::RcpRound, region as u64, start);
        let gather = w.rcp_gather_delay(region, collector_cn);
        let finish = CoreEvent::RcpFinish {
            region,
            collector_cn,
            span,
            start,
        };
        sim.schedule_event_after(gather, finish);
    }
    let interval = w.config.rcp_interval;
    sim.schedule_event_after(interval, CoreEvent::RcpRound { region });
}

pub(crate) fn rcp_finish_event(
    w: &mut GlobalDb,
    sim: &mut CoreSim,
    region: usize,
    collector_cn: usize,
    span: Option<SpanId>,
    start: SimTime,
) {
    let now = sim.now();
    let horizon = w.vacuum_horizon();
    w.rcp_finish(region, collector_cn, now);
    if w.vacuum_horizon() > horizon {
        let removed = w.vacuum(now);
        w.stats.versions_vacuumed += removed as u64;
    }
    w.obs.tracer.end(span, now);
    w.obs.metrics.record(w.hot.rcp.round_us, now.since(start));
}

pub(crate) fn heartbeat_event(w: &mut GlobalDb, sim: &mut CoreSim) {
    w.heartbeat(sim.now());
    // The heartbeat doubles as the clock-health watchdog: a failed clock
    // triggers the online fallback to GTM mode (Fig. 3).
    if w.clock_health_check() {
        crate::transition::start_transition(w, sim, gdb_txnmgr::TransitionDirection::ToGtm);
    }
    let interval = w.config.heartbeat_interval;
    sim.schedule_event_after(interval, CoreEvent::Heartbeat);
}
