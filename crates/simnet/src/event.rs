//! The discrete-event engine.
//!
//! A [`Sim<W, E>`] owns a priority queue of events, each either a boxed
//! closure or a value of the world's typed-event enum `E`, run against the
//! world state `W` at a scheduled virtual time. Events scheduled for the
//! same instant fire in insertion order (a monotone sequence number breaks
//! ties), which makes runs fully deterministic.
//!
//! # Scheduling structure
//!
//! One `BinaryHeap` ordered by `(at, seq)`: a push and a pop cost
//! `O(log n)` in the pending events. The order is the whole contract;
//! the spec proptest at the end of this file holds the queue to what a
//! script of self-scheduling events implies.
//!
//! # Typed events
//!
//! `E` is a world-specific closed enum implementing [`TypedEvent`]. Typed
//! events are stored inline — no `Box<dyn FnOnce>` allocation per event —
//! which is what the hot schedulers (log shipping, RCP rounds, heartbeats)
//! use. Closures remain fully supported for the open-ended sites (chaos
//! plans, migrations, tests); worlds that never need typed events use the
//! default `E = NoEvent` and see the old single-parameter API unchanged.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A closed set of events a world knows how to fire. Implemented by e.g.
/// the core crate's `CoreEvent`; stored inline in the queue (no boxing).
pub trait TypedEvent<W>: Sized {
    fn fire(self, world: &mut W, sim: &mut Sim<W, Self>);
}

/// Uninhabited placeholder for worlds that only schedule closures.
/// `Sim<W>` defaults to this, so closure-only users never see the second
/// type parameter.
pub enum NoEvent {}

impl<W> TypedEvent<W> for NoEvent {
    fn fire(self, _: &mut W, _: &mut Sim<W, Self>) {
        match self {}
    }
}

type EventFn<W, E> = Box<dyn FnOnce(&mut W, &mut Sim<W, E>)>;

enum Payload<W, E> {
    Fn(EventFn<W, E>),
    Typed(E),
}

struct Scheduled<W, E> {
    at: SimTime,
    seq: u64,
    payload: Payload<W, E>,
}

impl<W, E> PartialEq for Scheduled<W, E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W, E> Eq for Scheduled<W, E> {}
impl<W, E> PartialOrd for Scheduled<W, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W, E> Ord for Scheduled<W, E> {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue and virtual clock.
pub struct Sim<W, E = NoEvent> {
    now: SimTime,
    seq: u64,
    executed: u64,
    queue: BinaryHeap<Scheduled<W, E>>,
}

impl<W, E: TypedEvent<W>> Default for Sim<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: TypedEvent<W>> Sim<W, E> {
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `f` to run at absolute virtual time `at`. Scheduling in the
    /// past is clamped to "now" (the event still runs, immediately next).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Sim<W, E>) + 'static) {
        self.push(at, Payload::Fn(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_after(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W, E>) + 'static,
    ) {
        self.schedule_at(self.now + after, f);
    }

    /// Schedule a typed event at absolute virtual time `at` (clamped to
    /// "now" like [`Sim::schedule_at`]). No allocation.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        self.push(at, Payload::Typed(event));
    }

    /// Schedule a typed event `after` from now. No allocation.
    pub fn schedule_event_after(&mut self, after: SimDuration, event: E) {
        self.schedule_event_at(self.now + after, event);
    }

    fn push(&mut self, at: SimTime, payload: Payload<W, E>) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, payload });
    }

    /// Pop-and-fire the earliest event if it is at or before `until`.
    /// The single place where time advances and `executed` is counted.
    fn step_bounded(&mut self, world: &mut W, until: SimTime) -> bool {
        if self.queue.peek().is_none_or(|ev| ev.at > until) {
            return false;
        }
        let ev = self.queue.pop().expect("peeked");
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.now = ev.at;
        self.executed += 1;
        match ev.payload {
            Payload::Fn(f) => f(world, self),
            Payload::Typed(e) => e.fire(world, self),
        }
        true
    }

    /// Run the single earliest event. Returns `false` if the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        self.step_bounded(world, SimTime::MAX)
    }

    /// Run all events scheduled strictly before or at `until`. The clock is
    /// left at `until` even if the queue drains earlier.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        while self.step_bounded(world, until) {}
        self.now = self.now.max(until);
    }

    /// Run events until the queue is empty (or `max_events` fire, as a
    /// runaway guard). Returns the number of events executed.
    pub fn run_to_completion(&mut self, world: &mut W, max_events: u64) -> u64 {
        let start = self.executed;
        while self.executed - start < max_events && self.step(world) {}
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_millis(20), |w, s| {
            w.log.push((s.now().as_millis(), "b"))
        });
        sim.schedule_at(SimTime::from_millis(10), |w, s| {
            w.log.push((s.now().as_millis(), "a"))
        });
        sim.schedule_at(SimTime::from_millis(30), |w, s| {
            w.log.push((s.now().as_millis(), "c"))
        });
        sim.run_to_completion(&mut w, 100);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_time_fifo() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            sim.schedule_at(SimTime::from_millis(5), move |w, s| {
                w.log.push((s.now().as_millis(), name))
            });
        }
        sim.run_to_completion(&mut w, 100);
        assert_eq!(w.log, vec![(5, "first"), (5, "second"), (5, "third")]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_millis(1), |_, s| {
            s.schedule_after(SimDuration::from_millis(4), |w: &mut World, s| {
                w.log.push((s.now().as_millis(), "chained"));
            });
        });
        sim.run_to_completion(&mut w, 100);
        assert_eq!(w.log, vec![(5, "chained")]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_millis(10), |w, _| w.log.push((10, "in")));
        sim.schedule_at(SimTime::from_millis(50), |w, _| w.log.push((50, "out")));
        sim.run_until(&mut w, SimTime::from_millis(20));
        assert_eq!(w.log, vec![(10, "in")]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_millis(10), |_, s| {
            // Try to schedule "before now" — must clamp, not panic.
            s.schedule_at(SimTime::from_millis(1), |w: &mut World, s| {
                w.log.push((s.now().as_millis(), "clamped"));
            });
        });
        sim.run_to_completion(&mut w, 100);
        assert_eq!(w.log, vec![(10, "clamped")]);
    }

    #[test]
    fn runaway_guard() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        // An event that perpetually reschedules itself.
        fn tick(w: &mut World, s: &mut Sim<World>) {
            w.log.push((s.now().as_millis(), "tick"));
            s.schedule_after(SimDuration::from_millis(1), tick);
        }
        sim.schedule_at(SimTime::ZERO, tick);
        let n = sim.run_to_completion(&mut w, 50);
        assert_eq!(n, 50);
    }

    #[test]
    fn far_future_events_fall_back_to_the_heap() {
        // Seconds out: must still fire in order, interleaved with near
        // events scheduled later.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_secs(5), |w, s| {
            w.log.push((s.now().as_millis(), "vacuum"));
        });
        sim.schedule_at(SimTime::from_millis(1), |w, s| {
            w.log.push((s.now().as_millis(), "near"));
            s.schedule_after(SimDuration::from_secs(2), |w: &mut World, s| {
                w.log.push((s.now().as_millis(), "mid"));
            });
        });
        sim.run_to_completion(&mut w, 100);
        assert_eq!(w.log, vec![(1, "near"), (2001, "mid"), (5000, "vacuum")]);
    }

    #[test]
    fn run_until_bound_mid_slot_keeps_order() {
        // A bound between two events: the later one stays pending, then
        // fires on the next run.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_nanos(100), |w, _| w.log.push((100, "a")));
        sim.schedule_at(SimTime::from_nanos(300), |w, _| w.log.push((300, "c")));
        sim.schedule_at(SimTime::from_nanos(200), |w, _| w.log.push((200, "b")));
        sim.run_until(&mut w, SimTime::from_nanos(250));
        assert_eq!(w.log, vec![(100, "a"), (200, "b")]);
        assert_eq!(sim.pending(), 1);
        sim.run_to_completion(&mut w, 10);
        assert_eq!(w.log, vec![(100, "a"), (200, "b"), (300, "c")]);
    }

    #[test]
    fn typed_events_fire_and_interleave_with_closures() {
        #[derive(Default)]
        struct TW {
            log: Vec<(u64, String)>,
        }
        enum Ev {
            Tick(u32),
            Chain,
        }
        impl TypedEvent<TW> for Ev {
            fn fire(self, w: &mut TW, sim: &mut Sim<TW, Ev>) {
                match self {
                    Ev::Tick(n) => w.log.push((sim.now().as_millis(), format!("tick{n}"))),
                    Ev::Chain => {
                        w.log.push((sim.now().as_millis(), "chain".into()));
                        sim.schedule_event_after(SimDuration::from_millis(3), Ev::Tick(9));
                    }
                }
            }
        }
        let mut sim: Sim<TW, Ev> = Sim::new();
        let mut w = TW::default();
        sim.schedule_event_at(SimTime::from_millis(2), Ev::Tick(1));
        sim.schedule_at(SimTime::from_millis(2), |w: &mut TW, s| {
            w.log.push((s.now().as_millis(), "closure".into()));
        });
        sim.schedule_event_at(SimTime::from_millis(1), Ev::Chain);
        sim.run_to_completion(&mut w, 100);
        let rendered: Vec<(u64, &str)> = w.log.iter().map(|(t, s)| (*t, s.as_str())).collect();
        assert_eq!(
            rendered,
            vec![(1, "chain"), (2, "tick1"), (2, "closure"), (4, "tick9")]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always fire in (time, insertion) order regardless of the
        /// order they were scheduled in.
        #[test]
        fn events_fire_sorted(times in proptest::collection::vec(0u64..1_000, 1..50)) {
            struct W {
                fired: Vec<(u64, usize)>,
            }
            let mut sim: Sim<W> = Sim::new();
            let mut w = W { fired: Vec::new() };
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_micros(t), move |w: &mut W, s| {
                    w.fired.push((s.now().as_micros(), i));
                });
            }
            sim.run_to_completion(&mut w, 10_000);
            prop_assert_eq!(w.fired.len(), times.len());
            // Non-decreasing times; ties broken by insertion order.
            for pair in w.fired.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0);
                if pair[0].0 == pair[1].0 {
                    prop_assert!(pair[0].1 < pair[1].1);
                }
            }
        }

        /// run_until(t) fires exactly the events at or before t and leaves
        /// the rest pending.
        #[test]
        fn run_until_is_a_clean_cut(
            times in proptest::collection::vec(0u64..1_000, 1..50),
            cut in 0u64..1_000,
        ) {
            struct W {
                count: usize,
            }
            let mut sim: Sim<W> = Sim::new();
            let mut w = W { count: 0 };
            for &t in &times {
                sim.schedule_at(SimTime::from_micros(t), move |w: &mut W, _| {
                    w.count += 1;
                });
            }
            sim.run_until(&mut w, SimTime::from_micros(cut));
            let expected = times.iter().filter(|&&t| t <= cut).count();
            prop_assert_eq!(w.count, expected);
            prop_assert_eq!(sim.pending(), times.len() - expected);
            prop_assert_eq!(sim.now(), SimTime::from_micros(cut));
        }
    }

    /// One scripted event: fires at `at` (clamped), then schedules its
    /// children `delay` ns out, as a typed event or a closure. Children can
    /// themselves have children, so events schedule events to arbitrary
    /// depth. Times are whole milliseconds, so same-instant ties are
    /// common, and a child's time is relative to its own `at`, so it often
    /// lies in the past of the instant it is scheduled at.
    #[derive(Debug, Clone)]
    struct Script {
        at: u64,
        typed: bool,
        children: Vec<(u64, Script)>,
    }

    /// Hand-rolled recursive strategy (the vendored proptest shim has no
    /// `prop_recursive`): scripts up to 3 levels deep, 0–3 children each.
    struct ScriptStrategy;

    impl Strategy for ScriptStrategy {
        type Value = Script;

        fn generate(&self, rng: &mut rand::rngs::SmallRng) -> Script {
            fn gen_script(rng: &mut rand::rngs::SmallRng, depth: u32) -> Script {
                use rand::Rng;
                const MS: u64 = 1_000_000;
                let at = rng.gen_range(0u64..600) * MS;
                let n = if depth == 0 { 0 } else { rng.gen_range(0..4) };
                let children = (0..n)
                    .map(|_| (rng.gen_range(0u64..400) * MS, gen_script(rng, depth - 1)))
                    .collect();
                Script {
                    at,
                    typed: rng.gen_bool(0.5),
                    children,
                }
            }
            gen_script(rng, 3)
        }
    }

    fn script_strategy() -> impl Strategy<Value = Script> {
        ScriptStrategy
    }

    #[derive(Default)]
    struct SpecWorld {
        /// Per scheduled event, indexed by schedule order: the instant it
        /// must fire at.
        due: Vec<u64>,
        /// `(instant, schedule order)` per firing, in firing order.
        fired: Vec<(u64, usize)>,
    }

    struct ScriptEvent {
        id: usize,
        children: Vec<(u64, Script)>,
    }

    impl TypedEvent<SpecWorld> for ScriptEvent {
        fn fire(self, w: &mut SpecWorld, sim: &mut Sim<SpecWorld, ScriptEvent>) {
            fire(w, sim, self.id, self.children);
        }
    }

    fn fire(
        w: &mut SpecWorld,
        sim: &mut Sim<SpecWorld, ScriptEvent>,
        id: usize,
        children: Vec<(u64, Script)>,
    ) {
        w.fired.push((sim.now().as_nanos(), id));
        for (delay, child) in children {
            schedule(w, sim, delay, child);
        }
    }

    fn schedule(
        w: &mut SpecWorld,
        sim: &mut Sim<SpecWorld, ScriptEvent>,
        delay: u64,
        script: Script,
    ) {
        let id = w.due.len();
        let at = script.at.saturating_add(delay);
        w.due.push(at.max(sim.now().as_nanos()));
        let (at, children) = (SimTime::from_nanos(at), script.children);
        if script.typed {
            sim.schedule_event_at(at, ScriptEvent { id, children });
        } else {
            sim.schedule_at(at, move |w, sim| fire(w, sim, id, children));
        }
    }

    proptest! {
        /// The queue's contract, from the script alone: every event fires
        /// exactly once, at the later of its requested instant and the
        /// instant it was scheduled at; firings run in (instant, schedule
        /// order); a `run_until` cut leaves pending exactly the events due
        /// after it, with the clock on the cut.
        #[test]
        fn scripts_fire_once_at_their_instant_in_schedule_order(
            scripts in proptest::collection::vec(script_strategy(), 1..12),
            cut in 0u64..700_000_000,
        ) {
            let mut sim: Sim<SpecWorld, ScriptEvent> = Sim::new();
            let mut w = SpecWorld::default();
            for s in scripts {
                schedule(&mut w, &mut sim, 0, s);
            }
            sim.run_until(&mut w, SimTime::from_nanos(cut));
            let later = w.due.iter().filter(|&&t| t > cut).count();
            prop_assert_eq!(sim.pending(), later);
            prop_assert_eq!(sim.now(), SimTime::from_nanos(cut));
            sim.run_to_completion(&mut w, u64::MAX);

            let mut fired = vec![false; w.due.len()];
            for &(at, id) in &w.fired {
                prop_assert!(!fired[id], "event {} fired twice", id);
                fired[id] = true;
                prop_assert_eq!(at, w.due[id], "event {} fired off its instant", id);
            }
            prop_assert!(fired.iter().all(|&f| f), "an event never fired");
            for pair in w.fired.windows(2) {
                prop_assert!(pair[0] < pair[1], "{:?} fired before {:?}", pair[0], pair[1]);
            }
            prop_assert_eq!(sim.events_executed(), w.due.len() as u64);
        }
    }
}
