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

use crate::cluster::GlobalDb;
use crate::event::{CoreEvent, CoreSim};
use crate::net::RpcKind;
use crate::repl_driver::followers;
use gdb_model::Timestamp;
use gdb_obs::{SpanId, SpanKind};
use gdb_simnet::{SimDuration, SimTime};
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
    /// One synchronous RCP round for a region: collect then finish with no
    /// gathering window in between (used at load finish; the background
    /// event splits the two phases so a collector crash can land mid-round).
    pub(crate) fn rcp_round(&mut self, region_idx: usize, now: SimTime) {
        if let Some(collector_cn) = self.rcp_collect(region_idx, now) {
            let span = self
                .obs
                .tracer
                .begin(SpanKind::RcpRound, region_idx as u64, now);
            self.rcp_finish(region_idx, collector_cn, now);
            self.obs.tracer.end(span, now);
            self.obs
                .metrics
                .record(self.hot.rcp.round_us, SimDuration::ZERO);
        }
    }

    /// Phase 1 of an RCP collection round for a region (paper §IV-A): the
    /// collector CN gathers max commit timestamps from the replicas at its
    /// site. Returns the global index of the collecting CN, or `None` when
    /// every CN in the region is down (round skipped).
    ///
    /// The collector election refreshes from node health first: if the
    /// current collector CN died, the next alive CN in the region takes
    /// over (a collector failover).
    pub fn rcp_collect(&mut self, region_idx: usize, _now: SimTime) -> Option<usize> {
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
        let mut slot = 0u32;
        for shard in &self.shards {
            for replica in &shard.replicas {
                if replica.region == region {
                    self.rcp[region_idx].report(slot, replica.applier.max_commit_ts());
                    self.plane.account(RpcKind::RcpGather, region, region, 64);
                }
                slot += 1;
            }
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
        for shard in &self.shards {
            for replica in &shard.replicas {
                if replica.region == region {
                    delay = delay.max(self.topo.nominal_rtt(cn_node, replica.node));
                }
            }
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
    /// timestamps advance even when idle (paper §IV-A).
    pub(crate) fn heartbeat(&mut self, now: SimTime) {
        // CN 0 (or the first alive CN) drives heartbeats.
        let Some(cn_idx) = (0..self.cns.len()).find(|&i| !self.topo.is_node_down(self.cns[i].node))
        else {
            return;
        };
        self.sync_cn_clock(cn_idx, now);
        // Modes that stamp through the GTM can't heartbeat while it is
        // down (fault injection); GClock heartbeats are unaffected.
        let gtm_down = self.topo.is_node_down(self.gtm_node);
        let ts = match self.cns[cn_idx].tm.mode {
            TmMode::GClock => {
                let ts = self.cns[cn_idx].tm.gclock.assign_timestamp(now);
                self.gtm.observe_commit(ts);
                ts
            }
            TmMode::Gtm => {
                if gtm_down {
                    return;
                }
                match self.gtm.commit_gtm() {
                    Ok((ts, _)) => ts,
                    Err(_) => return,
                }
            }
            TmMode::Dual => {
                if gtm_down {
                    return;
                }
                let g = self.cns[cn_idx].tm.gclock.assign_timestamp(now);
                self.gtm.commit_dual(g)
            }
        };
        let txn = self.next_txn_id(cn_idx);
        for shard in &mut self.shards {
            shard
                .log
                .append(now, txn, RedoPayload::Heartbeat { commit_ts: ts });
        }
        self.stats.heartbeats_sent += 1;
    }

    /// Rebuild the per-region RCP calculators after replica membership
    /// changes (promotion / permanent removal). CN-visible RCP values stay
    /// monotone because CNs only ever adopt larger values.
    pub(crate) fn rebuild_rcp_groups(&mut self) {
        for (region_idx, &region) in self.regions.iter().enumerate() {
            let mut expected = Vec::new();
            let mut slot = 0u32;
            for shard in &self.shards {
                for replica in &shard.replicas {
                    if replica.region == region {
                        expected.push(slot);
                    }
                    slot += 1;
                }
            }
            self.rcp[region_idx] = gdb_consistency::RcpCalculator::new(expected);
        }
    }

    /// Vacuum primaries up to the cluster-wide minimum RCP (safe horizon:
    /// every replica and every client snapshot is at or above it) and
    /// trim shard shipping logs past the durable-consumer floor.
    pub(crate) fn vacuum(&mut self) -> usize {
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
            self.stats.redo_records_trimmed += s.log.trim_shipped(floor) as u64;
        }

        let horizon = self
            .rcp
            .iter()
            .map(|r| r.current())
            .min()
            .unwrap_or(Timestamp::ZERO);
        if horizon == Timestamp::ZERO {
            return 0;
        }
        let h = horizon.prev();
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

// ---- Recurring event functions ------------------------------------------

pub(crate) fn rcp_event(w: &mut GlobalDb, sim: &mut CoreSim, region: usize) {
    if w.config.rcp_two_phase {
        // Two-phase round: gather replica reports now, compute +
        // distribute after the gathering round trips. The gap is a real
        // vulnerability window — a collector crash in between abandons
        // the round. The round's span (and latency) covers collect
        // through finish; the span id rides in the finish event.
        if let Some(collector_cn) = w.rcp_collect(region, sim.now()) {
            let start = sim.now();
            let span = w.obs.tracer.begin(SpanKind::RcpRound, region as u64, start);
            let gather = w.rcp_gather_delay(region, collector_cn);
            sim.schedule_event_after(
                gather,
                CoreEvent::RcpFinish {
                    region,
                    collector_cn,
                    span,
                    start,
                },
            );
        }
    } else {
        w.rcp_round(region, sim.now());
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
    w.rcp_finish(region, collector_cn, now);
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

pub(crate) fn vacuum_event(w: &mut GlobalDb, sim: &mut CoreSim) {
    let removed = w.vacuum();
    w.stats.versions_vacuumed += removed as u64;
    let Some(interval) = w.config.vacuum_interval else {
        return;
    };
    sim.schedule_event_after(interval, CoreEvent::Vacuum);
}
