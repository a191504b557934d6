//! Driving the online GTM↔GClock transition over the simulated network.
//!
//! The protocol state machines live in `gdb-txnmgr`
//! ([`gdb_txnmgr::TransitionOrchestrator`], [`gdb_txnmgr::handle_cn_msg`]);
//! this module delivers their messages with real network latency
//! (typed as [`RpcKind::TransitionBarrier`] on the message plane) and
//! arms the DUAL hold timer on the event queue. The cluster accepts
//! transactions throughout — that is the entire point of DUAL mode.
//!
//! The transition is spanned where its phases change: a `Transition`
//! root opens with its `TransitionDualAcks` phase at the start, the hold
//! timer opens `TransitionHold` (GTM→GClock only), the final-mode fan-out
//! opens `TransitionFinalAcks`, and completion closes the phase and the
//! root. The phases tile the root exactly — the observability contract
//! tested in `tests/observability.rs` — and an unfinished transition
//! leaves its root and current phase open.

use crate::cluster::GlobalDb;
use crate::event::CoreSim;
use crate::net::RpcKind;
use gdb_obs::SpanKind;
use gdb_txnmgr::{handle_cn_msg, TmMsg, TransitionDirection, TransitionEvent};

/// Start a transition at the current virtual time.
pub fn start_transition(db: &mut GlobalDb, sim: &mut CoreSim, direction: TransitionDirection) {
    db.last_transition_completed = None;
    let label = match direction {
        TransitionDirection::ToGClock => 0,
        TransitionDirection::ToGtm => 1,
    };
    db.transition_spans = db.obs.tracer.begin_phases(
        SpanKind::Transition,
        SpanKind::TransitionDualAcks,
        label,
        sim.now(),
    );
    let events = {
        let GlobalDb {
            orchestrator, gtm, ..
        } = db;
        orchestrator.start(direction, gtm)
    };
    enact(db, sim, events);
}

/// Apply orchestrator side effects: send messages (with latency) or arm
/// the hold timer.
fn enact(db: &mut GlobalDb, sim: &mut CoreSim, events: Vec<TransitionEvent>) {
    let now = sim.now();
    for ev in events {
        match ev {
            TransitionEvent::SendToCn { cn, msg } => {
                // The final-mode fan-out goes to every CN at one instant,
                // CN 0 first: that send ends the DUAL acks (GClock→GTM) or
                // the hold wait (GTM→GClock).
                if cn == 0 && matches!(msg, TmMsg::SwitchToGClock | TmMsg::SwitchToGtm) {
                    let spans = &mut db.transition_spans;
                    let tracer = &mut db.obs.tracer;
                    tracer.next_phase(spans, SpanKind::TransitionFinalAcks, now);
                }
                let to = db.cns[cn].node;
                let delay = db
                    .plane
                    .send(
                        &mut db.topo,
                        RpcKind::TransitionBarrier,
                        db.gtm_node,
                        to,
                        128,
                    )
                    // An unreachable CN retries after a beat; the protocol
                    // is idle-safe because acks gate every phase.
                    .unwrap_or(gdb_simnet::SimDuration::from_millis(50));
                sim.schedule_after(delay, move |w: &mut GlobalDb, sim| {
                    deliver_to_cn(w, sim, cn, msg.clone());
                });
            }
            TransitionEvent::StartHoldTimer { duration } => {
                // A zero hold (no clock error bound) has no phase of its own.
                if !duration.is_zero() {
                    let spans = &mut db.transition_spans;
                    let tracer = &mut db.obs.tracer;
                    tracer.next_phase(spans, SpanKind::TransitionHold, now);
                }
                sim.schedule_after(duration, |w: &mut GlobalDb, sim| {
                    let events = {
                        let GlobalDb {
                            orchestrator, gtm, ..
                        } = w;
                        orchestrator.on_hold_elapsed(gtm)
                    };
                    enact(w, sim, events);
                });
            }
            TransitionEvent::Completed { direction } => {
                db.last_transition_completed = Some(direction);
                let spans = std::mem::take(&mut db.transition_spans);
                db.obs.tracer.end_phases(spans, now);
            }
        }
    }
}

fn deliver_to_cn(db: &mut GlobalDb, sim: &mut CoreSim, cn: usize, msg: TmMsg) {
    let now = sim.now();
    db.sync_cn_clock(cn, now);
    let reply = handle_cn_msg(cn, &mut db.cns[cn].tm, &msg, now);
    if let Some(reply) = reply {
        let from = db.cns[cn].node;
        let delay = db
            .plane
            .send(
                &mut db.topo,
                RpcKind::TransitionBarrier,
                from,
                db.gtm_node,
                128,
            )
            .unwrap_or(gdb_simnet::SimDuration::from_millis(50));
        sim.schedule_after(delay, move |w: &mut GlobalDb, sim| {
            let events = {
                let GlobalDb {
                    orchestrator, gtm, ..
                } = w;
                match &reply {
                    TmMsg::AckDual {
                        cn,
                        err_bound,
                        gclock_upper,
                    } => orchestrator.on_ack_dual(*cn, *err_bound, *gclock_upper, gtm),
                    TmMsg::AckFinal { cn } => orchestrator.on_ack_final(*cn),
                    _ => Vec::new(),
                }
            };
            enact(w, sim, events);
        });
    }
}
