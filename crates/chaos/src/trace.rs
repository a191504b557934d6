//! The chaos event trace: every fault application and every oracle
//! observation, in virtual-time order.
//!
//! Because the whole cluster runs on a deterministic discrete-event
//! engine, two runs from the same seed must produce *identical* traces —
//! the replayability guarantee `nemesis --seed N` rests on, and itself an
//! invariant the test suite asserts.

use globaldb::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One trace line: what happened, when (virtual time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub at: SimTime,
    pub what: String,
}

/// An append-only log of fault applications and oracle observations.
#[derive(Debug, Default)]
pub struct Trace {
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    pub fn record(&mut self, at: SimTime, what: impl Into<String>) {
        self.entries.push(TraceEntry {
            at,
            what: what.into(),
        });
    }

    /// Render the trace as `t=<ms>ms <what>` lines (stable across runs).
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("t={:>8.3}ms {}", e.at.as_nanos() as f64 / 1e6, e.what))
            .collect()
    }
}

/// Shared handle: fault events and RCP checks run inside `'static`
/// simulation closures, so they hold the trace behind `Rc<RefCell>`.
pub type TraceHandle = Rc<RefCell<Trace>>;

pub fn new_trace() -> TraceHandle {
    Rc::new(RefCell::new(Trace::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_renders() {
        let t = new_trace();
        t.borrow_mut().record(SimTime::from_millis(1), "a");
        t.borrow_mut().record(SimTime::from_millis(2), "b");
        let lines = t.borrow().lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("a"));
        assert!(lines[1].ends_with("b"));
    }
}
