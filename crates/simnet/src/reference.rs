//! The frozen pre-wheel event engine: one `BinaryHeap` of boxed closures.
//!
//! This is the original [`crate::Sim`] implementation, kept verbatim as a
//! test-only differential oracle: the wheel engine's property tests
//! assert it fires the identical `(time, seq)` sequence as this heap
//! across randomized schedules (see `event::proptests`).
//!
//! Do not optimize this module; its value is staying what the engine used
//! to be.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut HeapSim<W>)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap-only event queue and virtual clock (pre-wheel engine).
pub struct HeapSim<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<W>>,
    executed: u64,
}

impl<W> Default for HeapSim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> HeapSim<W> {
    pub fn new() -> Self {
        HeapSim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            executed: 0,
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
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut HeapSim<W>) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Run the single earliest event. Returns `false` if the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.at >= self.now, "time must be monotone");
                self.now = ev.at;
                self.executed += 1;
                (ev.f)(world, self);
                true
            }
            None => false,
        }
    }

    /// Run all events scheduled strictly before or at `until`. The clock is
    /// left at `until` even if the queue drains earlier.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        loop {
            match self.queue.peek() {
                Some(ev) if ev.at <= until => {
                    let ev = self.queue.pop().expect("peeked");
                    self.now = ev.at;
                    self.executed += 1;
                    (ev.f)(world, self);
                }
                _ => break,
            }
        }
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
