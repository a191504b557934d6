//! Exhaustive exploration of the online transition protocol (paper
//! §III-A, Figs. 2–3) with two CNs: one GTM → GClock transition, then
//! one GClock → GTM transition, driving [`TransitionOrchestrator`],
//! [`GtmServer`] and [`handle_cn_msg`] directly.
//!
//! Every message the protocol puts in flight can be delivered in any
//! order, the armed hold timer can fire at any point (moving real time
//! to its deadline), and real time advances by 0 or by `T_ERR` before
//! each action. A depth-first search visits every reachable state once
//! (states are deduplicated by a hash of everything that decides what
//! happens next) and checks on every path:
//!
//! * every maximal path ends with both transitions `Completed`, the GTM
//!   server and both CNs in each transition's target mode;
//! * a GTM → GClock hold lasts 2 × the largest error bound the DUAL acks
//!   carried;
//! * after GClock → GTM, the GTM counter is at or above every
//!   `gclock_upper` a DUAL ack carried, so its next timestamp exceeds
//!   every GClock timestamp the CNs issued (Fig. 3).
//!
//! A violation panics with the path that reached it.

use gdb_model::Timestamp;
use gdb_simclock::{GClock, GClockConfig};
use gdb_simnet::{SimDuration, SimTime};
use gdb_txnmgr::{
    handle_cn_msg, CnTm, GtmServer, TmMode, TmMsg, TransitionDirection, TransitionEvent,
    TransitionOrchestrator,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

const CNS: usize = 2;
/// The real-time step between actions: one sync round trip, the error
/// bound a freshly synced clock reports.
const T_ERR: SimDuration = SimDuration::from_micros(60);

/// A message in flight: GTM → CN `cn` when `to_cn`, CN `cn` → GTM
/// otherwise.
#[derive(Debug, Clone)]
struct Flight {
    cn: usize,
    to_cn: bool,
    msg: TmMsg,
}

#[derive(Clone)]
struct State {
    now: SimTime,
    /// The transition in flight; `None` once both have completed.
    direction: Option<TransitionDirection>,
    gtm: GtmServer,
    orch: TransitionOrchestrator,
    cns: Vec<CnTm>,
    flights: Vec<Flight>,
    /// Deadline of the armed hold timer.
    hold: Option<SimTime>,
    /// Per transition: which DUAL and final acks the server has taken.
    dual_acked: BTreeSet<usize>,
    final_acked: BTreeSet<usize>,
    /// Largest error bound carried by this transition's DUAL acks.
    max_err: SimDuration,
    /// Largest `gclock_upper` any DUAL ack carried.
    max_upper: Timestamp,
    path: Vec<String>,
}

impl State {
    fn new() -> State {
        let t0 = SimTime::from_secs(1);
        let cns = [40, 80]
            .iter()
            .map(|&rtt_us| {
                let config = GClockConfig {
                    sync_rtt: SimDuration::from_micros(rtt_us),
                    ..GClockConfig::default()
                };
                let mut clock = GClock::new(rtt_us, 50.0, config);
                clock.sync(t0);
                CnTm::new(TmMode::Gtm, clock)
            })
            .collect();
        let mut s = State {
            now: t0,
            direction: None,
            gtm: GtmServer::new(),
            orch: TransitionOrchestrator::new(CNS),
            cns,
            flights: Vec::new(),
            hold: None,
            dual_acked: BTreeSet::new(),
            final_acked: BTreeSet::new(),
            max_err: SimDuration::ZERO,
            max_upper: Timestamp::ZERO,
            path: Vec::new(),
        };
        s.start(TransitionDirection::ToGClock);
        s
    }

    fn start(&mut self, direction: TransitionDirection) {
        self.direction = Some(direction);
        self.dual_acked.clear();
        self.final_acked.clear();
        self.max_err = SimDuration::ZERO;
        let events = self.orch.start(direction, &mut self.gtm);
        self.enact(events);
    }

    /// Everything that decides the rest of the run. The orchestrator's
    /// own state is a function of the direction and the acks it took.
    fn key(&self) -> u64 {
        let mut flights: Vec<String> = self.flights.iter().map(|f| format!("{f:?}")).collect();
        flights.sort();
        let gtm = (self.gtm.mode(), self.gtm.current(), self.gtm.max_err_seen());
        let modes: Vec<TmMode> = self.cns.iter().map(|c| c.mode).collect();
        let mut h = DefaultHasher::new();
        (self.now, format!("{:?}", self.direction), gtm, modes).hash(&mut h);
        (flights, self.hold, &self.dual_acked, &self.final_acked).hash(&mut h);
        (self.max_err, self.max_upper).hash(&mut h);
        h.finish()
    }

    /// The actions enabled here: deliver flight `i`, or fire the timer.
    fn actions(&self) -> Vec<Option<usize>> {
        let mut actions: Vec<Option<usize>> = (0..self.flights.len()).map(Some).collect();
        if self.hold.is_some() {
            actions.push(None);
        }
        actions
    }

    fn apply(&mut self, action: Option<usize>) {
        match action {
            Some(i) => {
                let f = self.flights.remove(i);
                self.path.push(format!("{:?} deliver {f:?}", self.now));
                if f.to_cn {
                    let reply = handle_cn_msg(f.cn, &mut self.cns[f.cn], &f.msg, self.now);
                    if let Some(msg) = reply {
                        self.flights.push(Flight {
                            cn: f.cn,
                            to_cn: false,
                            msg,
                        });
                    }
                } else {
                    self.server_takes(f.msg);
                }
            }
            None => {
                let deadline = self.hold.take().expect("fired only when armed");
                self.now = self.now.max(deadline);
                self.path.push(format!("{:?} hold timer fires", self.now));
                let events = self.orch.on_hold_elapsed(&mut self.gtm);
                self.enact(events);
            }
        }
    }

    fn server_takes(&mut self, msg: TmMsg) {
        let events = match msg {
            TmMsg::AckDual {
                cn,
                err_bound,
                gclock_upper,
            } => {
                self.dual_acked.insert(cn);
                self.max_err = self.max_err.max(err_bound);
                self.max_upper = self.max_upper.max(gclock_upper);
                self.orch
                    .on_ack_dual(cn, err_bound, gclock_upper, &mut self.gtm)
            }
            TmMsg::AckFinal { cn } => {
                self.final_acked.insert(cn);
                self.orch.on_ack_final(cn)
            }
            other => panic!("a CN sent {other:?}"),
        };
        self.enact(events);
    }

    fn enact(&mut self, events: Vec<TransitionEvent>) {
        for ev in events {
            match ev {
                TransitionEvent::SendToCn { cn, msg } => self.flights.push(Flight {
                    cn,
                    to_cn: true,
                    msg,
                }),
                TransitionEvent::StartHoldTimer { duration } => {
                    self.check(
                        duration == self.max_err * 2,
                        &format!(
                            "hold {duration:?} is not 2 x max DUAL-ack error {:?}",
                            self.max_err
                        ),
                    );
                    self.hold = Some(self.now + duration);
                }
                TransitionEvent::Completed { direction } => {
                    let mode = match direction {
                        TransitionDirection::ToGClock => TmMode::GClock,
                        TransitionDirection::ToGtm => TmMode::Gtm,
                    };
                    self.check(
                        Some(direction) == self.direction
                            && self.gtm.mode() == mode
                            && self.cns.iter().all(|c| c.mode == mode),
                        &format!("{direction:?} completed outside {mode:?}"),
                    );
                    match direction {
                        TransitionDirection::ToGClock => self.start(TransitionDirection::ToGtm),
                        TransitionDirection::ToGtm => self.direction = None,
                    }
                }
            }
        }
        if self.direction == Some(TransitionDirection::ToGtm) && self.gtm.mode() == TmMode::Gtm {
            let next = self.gtm.clone().commit_gtm().map(|(ts, _)| ts);
            self.check(
                self.gtm.current() >= self.max_upper
                    && next.as_ref().is_ok_and(|&ts| ts > self.max_upper),
                &format!(
                    "GTM counter {:?} (next {next:?}) not above GClock upper {:?}",
                    self.gtm.current(),
                    self.max_upper
                ),
            );
        }
    }

    fn check(&self, ok: bool, what: &str) {
        assert!(ok, "{what}; counterexample:\n  {}", self.path.join("\n  "));
    }
}

/// Depth-first search over every interleaving; returns the number of
/// distinct states visited.
fn explore() -> usize {
    let root = State::new();
    let mut seen = HashSet::from([root.key()]);
    let mut stack = vec![root];
    while let Some(state) = stack.pop() {
        let actions = state.actions();
        if actions.is_empty() {
            state.check(state.direction.is_none(), "stuck before both completed");
        }
        for action in actions {
            for step in [SimDuration::ZERO, T_ERR] {
                let mut next = state.clone();
                next.now += step;
                next.apply(action);
                if seen.insert(next.key()) {
                    stack.push(next);
                }
            }
        }
    }
    seen.len()
}

#[test]
fn every_interleaving_of_both_transitions_completes_safely() {
    assert_eq!(explore(), 4448, "explored states");
}
