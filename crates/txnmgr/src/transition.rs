//! The zero-downtime GTM↔GClock transition protocol (paper §III-A,
//! Figs. 2–3).
//!
//! GTM→GClock (Fig. 2):
//! 1. The GTM server switches to DUAL and broadcasts `SwitchToDual`.
//! 2. Each CN switches to DUAL and acks with its current clock error
//!    bound; the server tracks the maximum. Transactions keep flowing the
//!    whole time: DUAL commits bridge via Eq. 3; straggling GTM commits
//!    wait `2 × max_err` (preventing the Listing-1 anomaly).
//! 3. Once all CNs acked, the server holds DUAL for another
//!    `2 × max_err`, then switches to GClock and broadcasts
//!    `SwitchToGClock`. Straggling GTM transactions that try to commit
//!    after this abort.
//!
//! GClock→GTM (Fig. 3) — e.g. after a clock-synchronization failure:
//! 1. Server → DUAL, broadcast `SwitchToDual`.
//! 2. CN acks carry their current GClock upper bound; the server raises
//!    its counter above all of them, so every future GTM timestamp exceeds
//!    every issued GClock timestamp. No hold wait is needed and no
//!    transaction aborts.
//! 3. Once all acked, server → GTM, broadcast `SwitchToGtm`.

use crate::cn::CnTm;
use crate::gtm::GtmServer;
use crate::mode::{TmMode, TmMsg};
use gdb_simnet::{SimDuration, SimTime};
use std::collections::HashSet;

/// Which way the cluster is transitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionDirection {
    /// GTM → GClock (Fig. 2): activate decentralized timestamps.
    ToGClock,
    /// GClock → GTM (Fig. 3): fall back to the centralized counter.
    ToGtm,
}

/// Side effects the cluster layer must enact (send messages with network
/// latency, arm timers on the event queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionEvent {
    SendToCn {
        cn: usize,
        msg: TmMsg,
    },
    /// Hold DUAL mode for this long before finalizing (Fig. 2 only).
    StartHoldTimer {
        duration: SimDuration,
    },
    /// The transition finished; all nodes are in the target mode.
    Completed {
        direction: TransitionDirection,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    WaitDualAcks,
    Holding,
    WaitFinalAcks,
}

/// GTM-server-side orchestration state.
#[derive(Debug)]
pub struct TransitionOrchestrator {
    cn_count: usize,
    direction: Option<TransitionDirection>,
    phase: Phase,
    pending: HashSet<usize>,
}

impl TransitionOrchestrator {
    pub fn new(cn_count: usize) -> Self {
        TransitionOrchestrator {
            cn_count,
            direction: None,
            phase: Phase::Idle,
            pending: HashSet::new(),
        }
    }

    pub fn in_progress(&self) -> bool {
        self.phase != Phase::Idle
    }

    /// Begin a transition. The server immediately enters DUAL mode and the
    /// cluster stays fully online.
    pub fn start(
        &mut self,
        direction: TransitionDirection,
        gtm: &mut GtmServer,
    ) -> Vec<TransitionEvent> {
        assert!(!self.in_progress(), "transition already in progress");
        self.direction = Some(direction);
        self.phase = Phase::WaitDualAcks;
        self.pending = (0..self.cn_count).collect();
        gtm.reset_err_tracking();
        gtm.set_mode(TmMode::Dual);
        (0..self.cn_count)
            .map(|cn| TransitionEvent::SendToCn {
                cn,
                msg: TmMsg::SwitchToDual,
            })
            .collect()
    }

    /// Handle a CN's DUAL acknowledgment.
    pub fn on_ack_dual(
        &mut self,
        cn: usize,
        err_bound: SimDuration,
        gclock_upper: gdb_model::Timestamp,
        gtm: &mut GtmServer,
    ) -> Vec<TransitionEvent> {
        if self.phase != Phase::WaitDualAcks {
            return Vec::new();
        }
        gtm.record_err_bound(err_bound);
        // Raise the counter above every timestamp the CN issued under
        // GClock (needed for ToGtm; harmless for ToGClock).
        gtm.observe_commit(gclock_upper);
        self.pending.remove(&cn);
        if !self.pending.is_empty() {
            return Vec::new();
        }
        match self.direction.expect("direction set while in progress") {
            TransitionDirection::ToGClock => {
                // All CNs in DUAL: hold for 2 × max err (Fig. 2), then
                // finalize via on_hold_elapsed.
                self.phase = Phase::Holding;
                vec![TransitionEvent::StartHoldTimer {
                    duration: gtm.max_err_seen() * 2,
                }]
            }
            TransitionDirection::ToGtm => {
                // No hold needed (Fig. 3): counter already exceeds every
                // GClock timestamp.
                self.finalize(gtm)
            }
        }
    }

    /// The DUAL hold timer elapsed (Fig. 2 path).
    pub fn on_hold_elapsed(&mut self, gtm: &mut GtmServer) -> Vec<TransitionEvent> {
        if self.phase != Phase::Holding {
            return Vec::new();
        }
        self.finalize(gtm)
    }

    fn finalize(&mut self, gtm: &mut GtmServer) -> Vec<TransitionEvent> {
        let direction = self.direction.expect("in progress");
        let (mode, msg) = match direction {
            TransitionDirection::ToGClock => (TmMode::GClock, TmMsg::SwitchToGClock),
            TransitionDirection::ToGtm => (TmMode::Gtm, TmMsg::SwitchToGtm),
        };
        gtm.set_mode(mode);
        self.phase = Phase::WaitFinalAcks;
        self.pending = (0..self.cn_count).collect();
        (0..self.cn_count)
            .map(|cn| TransitionEvent::SendToCn {
                cn,
                msg: msg.clone(),
            })
            .collect()
    }

    /// Handle a CN's final-mode acknowledgment.
    pub fn on_ack_final(&mut self, cn: usize) -> Vec<TransitionEvent> {
        if self.phase != Phase::WaitFinalAcks {
            return Vec::new();
        }
        self.pending.remove(&cn);
        if self.pending.is_empty() {
            let direction = self.direction.take().expect("in progress");
            self.phase = Phase::Idle;
            vec![TransitionEvent::Completed { direction }]
        } else {
            Vec::new()
        }
    }
}

/// CN-side message handling: switch mode, produce the ack.
pub fn handle_cn_msg(cn_index: usize, cn: &mut CnTm, msg: &TmMsg, now: SimTime) -> Option<TmMsg> {
    match msg {
        TmMsg::SwitchToDual => {
            cn.mode = TmMode::Dual;
            Some(TmMsg::AckDual {
                cn: cn_index,
                err_bound: cn.gclock.t_err(now),
                gclock_upper: cn.gclock.now_bound(now).latest,
            })
        }
        TmMsg::SwitchToGClock => {
            cn.mode = TmMode::GClock;
            Some(TmMsg::AckFinal { cn: cn_index })
        }
        TmMsg::SwitchToGtm => {
            cn.mode = TmMode::Gtm;
            Some(TmMsg::AckFinal { cn: cn_index })
        }
        TmMsg::AckDual { .. } | TmMsg::AckFinal { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::CommitPlan;
    use gdb_model::Timestamp;
    use gdb_simclock::{GClock, GClockConfig};

    fn make_cn(sync_rtt_us: u64, at: SimTime) -> CnTm {
        let mut g = GClock::new(
            sync_rtt_us, // reuse as seed for variety
            0.0,
            GClockConfig {
                sync_rtt: SimDuration::from_micros(sync_rtt_us),
                ..GClockConfig::default()
            },
        );
        g.sync(at);
        CnTm::new(TmMode::Gtm, g)
    }

    /// Walk the full Fig. 2 protocol: GTM → DUAL (all CNs) → hold → GClock.
    #[test]
    fn full_to_gclock_transition() {
        let t0 = SimTime::from_secs(1);
        let mut gtm = GtmServer::new();
        let mut cns = [make_cn(60, t0), make_cn(80, t0), make_cn(40, t0)];
        let mut orch = TransitionOrchestrator::new(3);

        let evs = orch.start(TransitionDirection::ToGClock, &mut gtm);
        assert_eq!(evs.len(), 3);
        assert_eq!(gtm.mode(), TmMode::Dual);
        assert!(orch.in_progress());

        // Deliver SwitchToDual to each CN and feed acks back.
        let mut hold = None;
        for (i, cn) in cns.iter_mut().enumerate() {
            let ack = handle_cn_msg(i, cn, &TmMsg::SwitchToDual, t0).unwrap();
            assert_eq!(cn.mode, TmMode::Dual);
            if let TmMsg::AckDual {
                cn: idx,
                err_bound,
                gclock_upper,
            } = ack
            {
                let evs = orch.on_ack_dual(idx, err_bound, gclock_upper, &mut gtm);
                if !evs.is_empty() {
                    hold = Some(evs);
                }
            } else {
                panic!("expected AckDual");
            }
        }
        // Hold timer sized at 2 × the max reported error bound (80 µs CN).
        let hold = hold.expect("hold timer after last ack");
        match &hold[0] {
            TransitionEvent::StartHoldTimer { duration } => {
                assert_eq!(*duration, SimDuration::from_micros(160));
            }
            other => panic!("{other:?}"),
        }

        // While holding, GTM commits must pay the 2×err wait.
        let (_, wait) = gtm.commit_gtm().unwrap();
        assert_eq!(wait, SimDuration::from_micros(160));

        let evs = orch.on_hold_elapsed(&mut gtm);
        assert_eq!(gtm.mode(), TmMode::GClock);
        assert_eq!(evs.len(), 3);
        for (i, cn) in cns.iter_mut().enumerate() {
            let ack = handle_cn_msg(i, cn, &TmMsg::SwitchToGClock, t0).unwrap();
            assert_eq!(cn.mode, TmMode::GClock);
            if let TmMsg::AckFinal { cn: idx } = ack {
                let evs = orch.on_ack_final(idx);
                if i == 2 {
                    assert_eq!(
                        evs,
                        vec![TransitionEvent::Completed {
                            direction: TransitionDirection::ToGClock
                        }]
                    );
                }
            }
        }
        assert!(!orch.in_progress());

        // Straggler GTM-mode commit now aborts.
        assert!(gtm.commit_gtm().is_err());
    }

    /// Fig. 3: falling back to GTM requires no hold and no aborts, and the
    /// counter exceeds every issued GClock timestamp.
    #[test]
    fn full_to_gtm_transition() {
        let t0 = SimTime::from_secs(100);
        let mut gtm = GtmServer::new();
        let mut cns = vec![make_cn(60, t0), make_cn(30, t0)];
        for cn in &mut cns {
            cn.mode = TmMode::GClock;
        }
        // Some GClock commits happened (timestamps around 100 s in µs).
        let biggest = cns[0].gclock.assign_timestamp(t0);
        gtm.observe_commit(Timestamp(50)); // stale observation

        let mut orch = TransitionOrchestrator::new(2);
        let _ = orch.start(TransitionDirection::ToGtm, &mut gtm);
        let mut done_events = Vec::new();
        for (i, cn) in cns.iter_mut().enumerate() {
            let ack = handle_cn_msg(i, cn, &TmMsg::SwitchToDual, t0).unwrap();
            if let TmMsg::AckDual {
                cn: idx,
                err_bound,
                gclock_upper,
            } = ack
            {
                done_events = orch.on_ack_dual(idx, err_bound, gclock_upper, &mut gtm);
            }
        }
        // No hold timer: straight to the final broadcast.
        assert!(matches!(
            done_events.first(),
            Some(TransitionEvent::SendToCn {
                msg: TmMsg::SwitchToGtm,
                ..
            })
        ));
        assert_eq!(gtm.mode(), TmMode::Gtm);
        // Every new GTM timestamp exceeds every issued GClock timestamp.
        let (ts, wait) = gtm.commit_gtm().unwrap();
        assert!(ts > biggest);
        assert_eq!(wait, SimDuration::ZERO);

        for (i, cn) in cns.iter_mut().enumerate() {
            let ack = handle_cn_msg(i, cn, &TmMsg::SwitchToGtm, t0).unwrap();
            assert_eq!(cn.mode, TmMode::Gtm);
            if let TmMsg::AckFinal { cn: idx } = ack {
                orch.on_ack_final(idx);
            }
        }
        assert!(!orch.in_progress());
    }

    /// Paper Listing 1 regression: a GTM transaction committing while the
    /// server is in DUAL receives a timestamp that may exceed GClock
    /// timestamps already issued elsewhere. Without the 2×err wait, a
    /// GClock transaction starting *after* the GTM commit acknowledges
    /// could receive a smaller snapshot and miss the committed update.
    /// With the wait, ordering holds.
    #[test]
    fn listing1_anomaly_prevented_by_dual_wait() {
        let t0 = SimTime::from_secs(1);
        // Node3: sloppy clock (100 µs sync error) — issues big timestamps.
        let node3 = make_cn(100, t0);
        // Node2: tight clock (2 µs sync error) — issues small timestamps.
        let node2 = make_cn(2, t0);

        let mut gtm = GtmServer::new();
        gtm.set_mode(TmMode::Dual);
        gtm.record_err_bound(node3.gclock.t_err(t0)); // ~100 µs, from transition acks

        // Node3 (already in GClock mode) commits Trx3 and the GTMS
        // observes its large timestamp ts3.
        let t3 = t0 + SimDuration::from_micros(10);
        let ts3 = node3.gclock.assign_timestamp(t3);
        gtm.observe_commit(ts3);

        // Node1's old GTM-mode Trx1 commits via the GTMS.
        let t1 = t0 + SimDuration::from_micros(20);
        let (ts1, wait) = gtm.commit_gtm().unwrap();
        assert!(ts1 > ts3, "DUAL-mode GTMS issues above observed GClock ts");

        // WITHOUT the wait: Trx2 starts on node2 right after t1 and gets a
        // snapshot below ts1 — the anomaly (Trx1 invisible to Trx2 even
        // though Trx1 acknowledged before Trx2 began).
        let t2_early = t1 + SimDuration::from_micros(1);
        let snap_early = node2.gclock.assign_timestamp(t2_early);
        assert!(
            snap_early < ts1,
            "anomaly must be constructible without the wait: {snap_early:?} vs {ts1:?}"
        );

        // WITH the wait (2 × max err): Trx1 only acknowledges at t1+wait;
        // any Trx2 starting after that sees a larger snapshot.
        assert_eq!(wait, node3.gclock.t_err(t0) * 2);
        let t2 = t1 + wait + SimDuration::from_micros(1);
        let snap = node2.gclock.assign_timestamp(t2);
        assert!(
            snap > ts1,
            "with the DUAL wait, R.1 holds: {snap:?} vs {ts1:?}"
        );

        // A DUAL CN's own commit: the GTMS answers above the CN's GClock
        // reading, and the CN acks only after its post-wait, so node2's
        // next snapshot covers it.
        let mut node1 = make_cn(100, t0);
        node1.mode = TmMode::Dual;
        let t = t1 + SimDuration::from_micros(10);
        let CommitPlan::ViaGtmDual { gclock_ts } = node1.plan_commit(t) else {
            panic!("a DUAL CN commits through the GTMS");
        };
        let ts = gtm.commit_dual(gclock_ts);
        let ack = t + node1.dual_post_wait(t, ts);
        let snap = node2
            .gclock
            .assign_timestamp(ack + SimDuration::from_micros(1));
        assert!(
            snap >= ts,
            "the DUAL post-wait orders the ack: {snap:?} vs {ts:?}"
        );
    }

    #[test]
    fn acks_outside_phase_are_ignored() {
        let mut gtm = GtmServer::new();
        let mut orch = TransitionOrchestrator::new(2);
        assert!(orch
            .on_ack_dual(0, SimDuration::ZERO, Timestamp::ZERO, &mut gtm)
            .is_empty());
        assert!(orch.on_ack_final(0).is_empty());
        assert!(orch.on_hold_elapsed(&mut gtm).is_empty());
        // Duplicate dual acks don't double-complete.
        let _ = orch.start(TransitionDirection::ToGClock, &mut gtm);
        let e1 = orch.on_ack_dual(0, SimDuration::from_micros(10), Timestamp::ZERO, &mut gtm);
        assert!(e1.is_empty());
        let e2 = orch.on_ack_dual(0, SimDuration::from_micros(10), Timestamp::ZERO, &mut gtm);
        assert!(e2.is_empty(), "duplicate ack must not complete the phase");
    }

    #[test]
    #[should_panic(expected = "transition already in progress")]
    fn concurrent_transitions_rejected() {
        let mut gtm = GtmServer::new();
        let mut orch = TransitionOrchestrator::new(1);
        let _ = orch.start(TransitionDirection::ToGClock, &mut gtm);
        let _ = orch.start(TransitionDirection::ToGtm, &mut gtm);
    }
}
