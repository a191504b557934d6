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
//! Almost every event in the system is *near-future*: message deliveries a
//! few hundred microseconds to a few milliseconds out, replay completions,
//! commit-wait timers, the 5–25 ms background intervals. A single binary
//! heap pays `O(log n)` plus a comparator cascade for each of them. The
//! engine instead keeps a three-level structure:
//!
//! * **current bucket** (`cur`): a small min-heap of events at or before
//!   the cursor slot — the only level that needs fine-grained ordering;
//! * **timing wheel** (`buckets`): a ring of [`SLOTS`] unsorted `Vec`s,
//!   each covering a `2^GRAN_BITS` ns span (~262 µs), with an occupancy
//!   bitmap. A near-future push is an O(1) `Vec::push`; slot vectors are
//!   drained (not dropped) when the cursor reaches them, so their
//!   allocations are reused wheel rotation after wheel rotation;
//! * **far heap** (`far`): events beyond the wheel window (~134 ms) fall
//!   back to the classic binary heap. They are rare (multi-second vacuum
//!   timers, long fault plans), so the heap stays tiny.
//!
//! Ordering is decided only by `(at, seq)`, never by which level an event
//! lives in, so the structure is invisible to users: the engine fires the
//! exact same sequence as a plain binary heap (property-tested against the
//! frozen, test-only `reference::HeapSim`).
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

/// Wheel geometry: 512 slots of 2^18 ns (~262 µs) each — a ~134 ms window
/// that covers deliveries, commit waits, and every background interval.
const SLOT_BITS: usize = 9;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const GRAN_BITS: u32 = 18;
const WORDS: usize = SLOTS / 64;

#[inline]
fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> GRAN_BITS
}

/// The event queue and virtual clock.
pub struct Sim<W, E = NoEvent> {
    now: SimTime,
    seq: u64,
    executed: u64,
    /// Absolute slot number the cursor sits on. Invariant: every wheel
    /// bucket holds only events with slot in `(cur_slot, cur_slot+SLOTS)`;
    /// events at or before the cursor slot live in `cur`.
    cur_slot: u64,
    /// Events at or before the cursor slot, fine-ordered by `(at, seq)`.
    cur: BinaryHeap<Scheduled<W, E>>,
    /// The wheel: ring of unsorted buckets, index = absolute slot & mask.
    buckets: Vec<Vec<Scheduled<W, E>>>,
    /// Occupancy bitmap over bucket indices (non-empty buckets).
    occupied: [u64; WORDS],
    /// Total events currently in wheel buckets.
    near: usize,
    /// Events beyond the wheel window.
    far: BinaryHeap<Scheduled<W, E>>,
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
            cur_slot: 0,
            cur: BinaryHeap::new(),
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            near: 0,
            far: BinaryHeap::new(),
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
        self.cur.len() + self.near + self.far.len()
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
        self.insert(Scheduled { at, seq, payload });
    }

    /// Place an already-sequenced event in the right level. Also used to
    /// requeue an event popped past a `run_until` bound (seq preserved, so
    /// the global order is unchanged).
    fn insert(&mut self, ev: Scheduled<W, E>) {
        let slot = slot_of(ev.at);
        if slot <= self.cur_slot {
            self.cur.push(ev);
        } else if slot - self.cur_slot < SLOTS as u64 {
            let idx = (slot & SLOT_MASK) as usize;
            self.occupied[idx >> 6] |= 1u64 << (idx & 63);
            self.buckets[idx].push(ev);
            self.near += 1;
        } else {
            self.far.push(ev);
        }
    }

    /// Absolute slot of the nearest occupied wheel bucket. Scans the
    /// occupancy bitmap a word at a time; caller guarantees `near > 0`.
    fn next_occupied_slot(&self) -> u64 {
        debug_assert!(self.near > 0);
        let mut delta = 1u64;
        while delta < SLOTS as u64 {
            let idx = ((self.cur_slot + delta) & SLOT_MASK) as usize;
            let bits = self.occupied[idx >> 6] & (!0u64 << (idx & 63));
            if bits != 0 {
                let hit = (idx & !63) + bits.trailing_zeros() as usize;
                return self.cur_slot + delta + (hit - idx) as u64;
            }
            delta += 64 - (idx as u64 & 63);
        }
        unreachable!("near count positive but no occupied bucket")
    }

    /// Move an occupied bucket's events into the current heap and advance
    /// the cursor to it. The bucket `Vec` keeps its capacity for reuse.
    fn load_slot(&mut self, slot: u64) {
        debug_assert!(slot > self.cur_slot && slot - self.cur_slot < SLOTS as u64);
        let idx = (slot & SLOT_MASK) as usize;
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        let mut bucket = std::mem::take(&mut self.buckets[idx]);
        self.near -= bucket.len();
        self.cur.extend(bucket.drain(..));
        self.buckets[idx] = bucket;
        self.cur_slot = slot;
    }

    /// Pop the globally earliest event by `(at, seq)`, loading wheel slots
    /// lazily. Returns `None` when no events remain anywhere.
    fn pop_next(&mut self) -> Option<Scheduled<W, E>> {
        loop {
            let take_far = match (self.cur.peek(), self.far.peek()) {
                // Bucketed events are always later than anything in `cur`
                // (their slots are strictly after the cursor slot), so a
                // cur-vs-far comparison settles the global minimum.
                (Some(c), Some(f)) => (f.at, f.seq) < (c.at, c.seq),
                (Some(_), None) => false,
                (None, Some(f)) if self.near > 0 => {
                    let next = self.next_occupied_slot();
                    if slot_of(f.at) < next {
                        true
                    } else {
                        self.load_slot(next);
                        continue;
                    }
                }
                (None, Some(_)) => true,
                (None, None) if self.near > 0 => {
                    let next = self.next_occupied_slot();
                    self.load_slot(next);
                    continue;
                }
                (None, None) => return None,
            };
            return if take_far {
                let ev = self.far.pop();
                if self.cur.is_empty() && self.near == 0 {
                    // Nothing in the window: snap the window forward so the
                    // followups this event schedules take the fast path.
                    // (With near events pending the cursor must not move —
                    // their slots have to stay strictly ahead of it.)
                    if let Some(ev) = &ev {
                        self.cur_slot = slot_of(ev.at);
                    }
                }
                ev
            } else {
                self.cur.pop()
            };
        }
    }

    /// Pop-and-fire the earliest event if it is at or before `until`.
    /// The single place where time advances and `executed` is counted.
    fn step_bounded(&mut self, world: &mut W, until: SimTime) -> bool {
        let Some(ev) = self.pop_next() else {
            return false;
        };
        if ev.at > until {
            // Not consumed: requeue with its original seq (order intact).
            self.insert(ev);
            return false;
        }
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
        // Far beyond the wheel window (~134 ms): must still fire in order,
        // interleaved with near events scheduled later.
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
        // A bound that lands inside an occupied slot: the later event in
        // the same slot must be requeued, then fire on the next run.
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
    use crate::reference::HeapSim;
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
    /// children `delay` ns out. Children can themselves have children, so
    /// events schedule events to arbitrary depth. Times span well past the
    /// wheel window so near, current-slot, and far paths all get exercised,
    /// and small ranges force plenty of same-instant ties.
    #[derive(Debug, Clone)]
    struct Script {
        at: u64,
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
                let at = rng.gen_range(0u64..600_000_000);
                let n = if depth == 0 { 0 } else { rng.gen_range(0..4) };
                let children = (0..n)
                    .map(|_| (rng.gen_range(0u64..400_000_000), gen_script(rng, depth - 1)))
                    .collect();
                Script { at, children }
            }
            gen_script(rng, 3)
        }
    }

    fn script_strategy() -> impl Strategy<Value = Script> {
        ScriptStrategy
    }

    #[derive(Default)]
    struct DiffWorld {
        fired: Vec<(u64, u32)>,
        next_id: u32,
    }

    /// Typed mirror of the closure script: fires, logs, schedules children.
    struct ScriptEvent {
        id: u32,
        children: Vec<(u64, Script)>,
    }

    impl TypedEvent<DiffWorld> for ScriptEvent {
        fn fire(self, w: &mut DiffWorld, sim: &mut Sim<DiffWorld, ScriptEvent>) {
            w.fired.push((sim.now().as_nanos(), self.id));
            for (delay, child) in self.children {
                schedule_typed(w, sim, delay, child);
            }
        }
    }

    fn schedule_typed(
        w: &mut DiffWorld,
        sim: &mut Sim<DiffWorld, ScriptEvent>,
        delay: u64,
        script: Script,
    ) {
        let id = w.next_id;
        w.next_id += 1;
        // Children are scheduled relative to the *script* time, which may be
        // in the past of `sim.now()` — exercising the clamp path.
        sim.schedule_event_at(
            SimTime::from_nanos(script.at.saturating_add(delay)),
            ScriptEvent {
                id,
                children: script.children,
            },
        );
    }

    fn schedule_ref(w: &mut DiffWorld, sim: &mut HeapSim<DiffWorld>, delay: u64, script: Script) {
        let id = w.next_id;
        w.next_id += 1;
        let children = script.children.clone();
        sim.schedule_at(
            SimTime::from_nanos(script.at.saturating_add(delay)),
            move |w: &mut DiffWorld, s| {
                w.fired.push((s.now().as_nanos(), id));
                for (d, c) in children {
                    schedule_ref(w, s, d, c);
                }
            },
        );
    }

    proptest! {
        /// Differential: the wheel engine fires events in the identical
        /// (time, seq) order as the frozen heap-only reference across
        /// randomized schedules — same-instant ties, past-clamped times,
        /// events-scheduling-events, and far-future fallbacks included.
        #[test]
        fn wheel_matches_heap_reference(
            scripts in proptest::collection::vec(script_strategy(), 1..12),
            cut in 0u64..700_000_000,
        ) {
            let mut wheel: Sim<DiffWorld, ScriptEvent> = Sim::new();
            let mut ww = DiffWorld::default();
            for s in &scripts {
                schedule_typed(&mut ww, &mut wheel, 0, s.clone());
            }

            let mut heap: HeapSim<DiffWorld> = HeapSim::new();
            let mut hw = DiffWorld::default();
            for s in &scripts {
                schedule_ref(&mut hw, &mut heap, 0, s.clone());
            }

            // Split the run at an arbitrary bound so requeue-at-the-bound
            // gets exercised, then drain both.
            wheel.run_until(&mut ww, SimTime::from_nanos(cut));
            heap.run_until(&mut hw, SimTime::from_nanos(cut));
            prop_assert_eq!(wheel.pending(), heap.pending());
            wheel.run_to_completion(&mut ww, 100_000);
            heap.run_to_completion(&mut hw, 100_000);

            prop_assert_eq!(&ww.fired, &hw.fired);
            prop_assert_eq!(wheel.now(), heap.now());
            prop_assert_eq!(wheel.events_executed(), heap.events_executed());
        }
    }
}
