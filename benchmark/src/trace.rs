//! Spans recorded by the benchmark itself, around its calls into the
//! system: no code inside the crates under test is instrumented.
//!
//! The driver opens `bg` around `Cluster::run_until` and `txn` around one
//! transaction (with `begin`/`execute`/`commit` children where the
//! benchmark owns the transaction closure); [`TimedTransport`] opens one
//! `deliver` child per envelope the message plane hands to the transport.
//! Every transaction's spans are folded into per-name histograms and
//! self-time totals; the full records of every [`KEEP_EVERY`]th
//! transaction are kept and written out as Chrome trace-event JSON.

use crate::stats::LogHist;
use gdb_simnet::{SimDuration, Topology};
use globaldb::{Envelope, RpcKind, Transport, ALL_RPC_KINDS};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Full span records are kept for transactions whose index is a multiple
/// of this, so the sample depends on the seed only.
pub const KEEP_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Background events run by `Cluster::run_until` before a transaction.
    Bg,
    /// One `run_one` call.
    Txn,
    /// From the `run_transaction` call to entry into its closure.
    Begin,
    /// The closure: SQL execution.
    Execute,
    /// From closure exit to the return of `run_transaction`.
    Commit,
    /// One `Transport::deliver` call.
    Deliver(RpcKind),
}

/// Number of distinct [`SpanName::index`] values.
pub const NAMES: usize = 5 + ALL_RPC_KINDS.len();

impl SpanName {
    pub fn index(self) -> usize {
        match self {
            SpanName::Bg => 0,
            SpanName::Txn => 1,
            SpanName::Begin => 2,
            SpanName::Execute => 3,
            SpanName::Commit => 4,
            SpanName::Deliver(kind) => 5 + kind.index(),
        }
    }

    pub fn label(self) -> String {
        match self {
            SpanName::Bg => "bg".into(),
            SpanName::Txn => "txn".into(),
            SpanName::Begin => "begin".into(),
            SpanName::Execute => "execute".into(),
            SpanName::Commit => "commit".into(),
            SpanName::Deliver(kind) => format!("deliver.{}", kind.name()),
        }
    }
}

/// `parent` of a span that has none.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same
    /// transaction's spans (or within the kept list once kept).
    pub parent: u32,
    /// Index of the transaction all spans of one request share.
    pub txn: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of each span: its duration minus that of its direct
/// children (children of one parent never overlap: the driver thread
/// opens and closes spans strictly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own = Vec::new();
    self_times_into(spans, &mut own);
    own
}

/// [`self_times`] into a buffer the caller reuses.
fn self_times_into(spans: &[Span], own: &mut Vec<u64>) {
    own.clear();
    own.extend(spans.iter().map(Span::dur));
    for s in spans {
        if s.parent != ROOT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur());
        }
    }
}

/// What the traced run accumulated, per [`SpanName::index`].
pub struct Totals {
    pub hist: Vec<LogHist>,
    pub self_ns: Vec<u64>,
    pub kept: Vec<Span>,
}

impl Totals {
    pub fn sum_ns(&self, name: SpanName) -> u64 {
        self.hist[name.index()].sum()
    }

    /// All `deliver` spans of every kind in one histogram.
    pub fn deliver_hist(&self) -> LogHist {
        let mut all = LogHist::default();
        for kind in ALL_RPC_KINDS {
            all.merge(&self.hist[SpanName::Deliver(kind).index()]);
        }
        all
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the kept
    /// spans: complete (`X`) events on one thread, nested by time.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> io::Result<()> {
        let own = self_times(&self.kept);
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, (s, own_ns)) in self.kept.iter().zip(own).enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            let parent = match s.parent {
                ROOT => "null".to_string(),
                p => p.to_string(),
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"txn\":{},\"self_us\":{}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.txn,
                own_ns as f64 / 1e3,
            )?;
        }
        writeln!(out, "\n]}}")
    }
}

struct Tracer {
    epoch: Instant,
    /// Off outside the traced window: set-up, the count phase and the
    /// output checks also send envelopes, and record nothing.
    enabled: bool,
    txn: u64,
    /// Spans of the transaction in flight; `open` is the stack of those
    /// not yet ended.
    current: Vec<Span>,
    open: Vec<u32>,
    /// Scratch for the self times of `current`.
    own: Vec<u64>,
    totals: Totals,
}

/// Handle on the span recorder, shared between the driver and the
/// transport wrapper inside the cluster. Both run on the driver thread;
/// the mutex is there because a `Transport` must be `Send`.
#[derive(Clone)]
pub struct Trace(Arc<Mutex<Tracer>>);

impl Default for Totals {
    fn default() -> Self {
        Totals {
            hist: (0..NAMES).map(|_| LogHist::default()).collect(),
            self_ns: vec![0; NAMES],
            kept: Vec::new(),
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace(Arc::new(Mutex::new(Tracer {
            epoch: Instant::now(),
            enabled: false,
            txn: 0,
            current: Vec::with_capacity(1024),
            open: Vec::with_capacity(8),
            own: Vec::with_capacity(1024),
            totals: Totals::default(),
        })))
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: SpanName, now: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(self.current.len() as u32);
        self.current.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            txn: self.txn,
        });
    }

    fn close(&mut self, now: u64) {
        let i = self.open.pop().expect("a span is open");
        self.current[i as usize].end_ns = now;
    }
}

impl Trace {
    /// Run `f` on the recorder if it is recording.
    fn with(&self, f: impl FnOnce(&mut Tracer)) {
        let mut t = self.0.lock().expect("no span is recorded while panicking");
        if t.enabled {
            f(&mut t)
        }
    }

    /// Start or stop recording. No span may be open.
    pub fn set_enabled(&self, enabled: bool) {
        let mut t = self.0.lock().expect("no span is recorded while panicking");
        assert!(t.open.is_empty(), "recording toggled inside a span");
        t.enabled = enabled;
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&self, name: SpanName) {
        self.with(|t| t.open(name, t.now_ns()))
    }

    /// Close the innermost open span.
    pub fn end(&self) {
        self.with(|t| t.close(t.now_ns()))
    }

    /// Close the innermost open span and open a sibling at the same
    /// instant, so consecutive phases leave no gap between them.
    pub fn next(&self, name: SpanName) {
        self.with(|t| {
            let now = t.now_ns();
            t.close(now);
            t.open(name, now);
        })
    }

    /// Fold the finished transaction's spans into the totals, keep them
    /// if this transaction is sampled, and start the next transaction.
    pub fn finish_txn(&self) {
        self.with(|t| {
            assert!(t.open.is_empty(), "transaction finished with open spans");
            self_times_into(&t.current, &mut t.own);
            for (s, own_ns) in t.current.iter().zip(&t.own) {
                t.totals.hist[s.name.index()].record(s.dur());
                t.totals.self_ns[s.name.index()] += own_ns;
            }
            if t.txn.is_multiple_of(KEEP_EVERY) {
                let base = t.totals.kept.len() as u32;
                t.totals.kept.extend(t.current.iter().map(|s| Span {
                    parent: if s.parent == ROOT {
                        ROOT
                    } else {
                        s.parent + base
                    },
                    ..*s
                }));
            }
            t.current.clear();
            t.txn += 1;
        })
    }

    /// Take the accumulated totals, leaving the recorder empty.
    pub fn take(&self) -> Totals {
        std::mem::take(&mut self.0.lock().expect("not panicking").totals)
    }
}

/// A transport that records one `deliver` span around each call into the
/// transport it wraps, and changes nothing else.
pub struct TimedTransport {
    pub inner: Box<dyn Transport>,
    pub trace: Trace,
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        self.trace.begin(SpanName::Deliver(env.kind));
        let delay = self.inner.deliver(topo, env);
        self.trace.end();
        delay
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let deliver = SpanName::Deliver(RpcKind::DnRead);
        let spans = [
            span(SpanName::Txn, 0, 100, ROOT),
            span(SpanName::Begin, 0, 10, 0),
            span(SpanName::Execute, 10, 70, 0),
            span(deliver, 20, 30, 2),
            span(deliver, 40, 55, 2),
            span(SpanName::Commit, 70, 95, 0),
        ];
        // txn: 100 - (10 + 60 + 25); execute: 60 - (10 + 15); leaves keep
        // their whole duration.
        assert_eq!(self_times(&spans), vec![5, 10, 35, 10, 15, 25]);
    }

    #[test]
    fn recorder_nests_folds_and_samples() {
        let trace = Trace::default();
        trace.begin(SpanName::Bg); // not recording yet: ignored
        trace.set_enabled(true);
        for _ in 0..=KEEP_EVERY {
            trace.begin(SpanName::Txn);
            trace.begin(SpanName::Begin);
            trace.next(SpanName::Execute);
            trace.begin(SpanName::Deliver(RpcKind::DnWrite));
            trace.end();
            trace.end();
            trace.end();
            trace.finish_txn();
        }
        let totals = trace.take();
        let n = KEEP_EVERY + 1;
        assert_eq!(totals.hist[SpanName::Txn.index()].count(), n);
        assert_eq!(totals.deliver_hist().count(), n);
        // Transactions 0 and 64 are kept, four spans each.
        assert_eq!(totals.kept.len(), 8);
        let second = &totals.kept[4..];
        assert_eq!(second[0].parent, ROOT);
        assert_eq!(second[1].parent, 4); // begin -> txn
        assert_eq!(second[2].parent, 4); // execute -> txn, not -> begin
        assert_eq!(second[3].parent, 6); // deliver -> execute
        assert!(second.iter().all(|s| s.txn == KEEP_EVERY));
        assert_eq!(second[1].end_ns, second[2].start_ns);
        // Self times add up to the root spans' durations.
        let own: u64 = totals.self_ns.iter().sum();
        assert_eq!(own, totals.sum_ns(SpanName::Txn));

        let mut json = Vec::new();
        totals.write_chrome_trace(&mut json).unwrap();
        let doc = gdb_obs::Json::parse(std::str::from_utf8(&json).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 8);
        assert_eq!(
            events[7].get("name").unwrap().as_str(),
            Some("deliver.dn_write")
        );
        assert_eq!(events[7].get("ph").unwrap().as_str(), Some("X"));
    }
}
