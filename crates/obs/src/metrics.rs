//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! Names are usually `&'static str` constants owned by the subsystem
//! crates (`gdb_txnmgr::metrics`, `gdb_replication::metrics`, …) in a
//! `subsystem.noun[_unit]` scheme — e.g. `txnmgr.phase.commit_wait_us`,
//! `replication.ship.wire_bytes`, `rcp.rounds`. Labelled instruments
//! (per-`RpcKind`, per-region-pair) pass an owned `String`; keys are
//! `Cow<'static, str>` so the static-name hot path stays allocation-free.
//!
//! # One store
//!
//! Counters and histograms each live in one `Vec` of slots, found by a
//! name → slot-index `BTreeMap`. [`MetricsRegistry::register_counter`] /
//! [`MetricsRegistry::register_histogram`] resolve a name to its
//! [`CounterId`] / [`HistId`] (creating the slot on first use), and the
//! hot methods ([`MetricsRegistry::add`], [`MetricsRegistry::bump`],
//! [`MetricsRegistry::record`]) are direct indexed writes. The string
//! methods (`count`, `set_counter`, `observe`, `set_histogram`)
//! resolve the name the same way and then write the slot, so a name is
//! one instrument whichever path touches it. Gauges are a plain name →
//! value map.
//!
//! A slot appears in [`snapshot`] only once written: a counter once
//! touched, a histogram once non-empty. Pre-registering instruments
//! therefore never changes a report. Snapshots iterate the name maps, so
//! they come out in deterministic name order.
//!
//! [`snapshot`]: MetricsRegistry::snapshot

use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Instrument name: a static constant or an owned labelled name.
pub type MetricName = Cow<'static, str>;

/// Handle to a counter: a direct `Vec` slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterId(u32);

/// Handle to a histogram: a direct `Vec` slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistId(u32);

/// Live instrument storage.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counter_ids: BTreeMap<MetricName, u32>,
    /// One value per registered counter; `None` until first written.
    counter_slots: Vec<Option<u64>>,
    hist_ids: BTreeMap<MetricName, u32>,
    hist_slots: Vec<LatencyHistogram>,
    gauges: BTreeMap<MetricName, f64>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `name` to its counter slot, creating it on first call.
    pub fn register_counter(&mut self, name: impl Into<MetricName>) -> CounterId {
        let name = name.into();
        if let Some(&id) = self.counter_ids.get(&name) {
            return CounterId(id);
        }
        let id = self.counter_slots.len() as u32;
        self.counter_slots.push(None);
        self.counter_ids.insert(name, id);
        CounterId(id)
    }

    /// Resolve `name` to its histogram slot, creating it on first call.
    pub fn register_histogram(&mut self, name: impl Into<MetricName>) -> HistId {
        let name = name.into();
        if let Some(&id) = self.hist_ids.get(&name) {
            return HistId(id);
        }
        let id = self.hist_slots.len() as u32;
        self.hist_slots.push(LatencyHistogram::new());
        self.hist_ids.insert(name, id);
        HistId(id)
    }

    /// Add `delta` to a registered counter — one indexed write, no lookup.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        *self.counter_slots[id.0 as usize].get_or_insert(0) += delta;
    }

    /// Increment a registered counter by one.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Record one latency observation into a registered histogram — one
    /// indexed write, no lookup.
    #[inline]
    pub fn record(&mut self, id: HistId, d: SimDuration) {
        self.hist_slots[id.0 as usize].record(d);
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn count(&mut self, name: impl Into<MetricName>, delta: u64) {
        let id = self.register_counter(name);
        self.add(id, delta);
    }

    /// Set counter `name` to an absolute value (for mirroring externally
    /// maintained totals into the registry at snapshot time).
    pub fn set_counter(&mut self, name: impl Into<MetricName>, value: u64) {
        let id = self.register_counter(name);
        self.counter_slots[id.0 as usize] = Some(value);
    }

    pub fn gauge(&mut self, name: impl Into<MetricName>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Record one latency observation into histogram `name`.
    pub fn observe(&mut self, name: impl Into<MetricName>, d: SimDuration) {
        let id = self.register_histogram(name);
        self.record(id, d);
    }

    /// Replace histogram `name` wholesale (for mirroring histograms
    /// maintained outside the registry into a snapshot).
    pub fn set_histogram(&mut self, name: impl Into<MetricName>, h: LatencyHistogram) {
        let id = self.register_histogram(name);
        self.hist_slots[id.0 as usize] = h;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .and_then(|&id| self.counter_slots[id as usize])
            .unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        let h = &self.hist_slots[*self.hist_ids.get(name)? as usize];
        (!h.is_empty()).then_some(h)
    }

    /// Freeze the registry into a comparable, serializable report: every
    /// written counter, every gauge and every non-empty histogram.
    pub fn snapshot(&self) -> MetricsReport {
        let mut metrics = BTreeMap::new();
        for (name, &id) in &self.counter_ids {
            if let Some(v) = self.counter_slots[id as usize] {
                metrics.insert(name.to_string(), Metric::Counter(v));
            }
        }
        for (name, &v) in &self.gauges {
            metrics.insert(name.to_string(), Metric::Gauge(v));
        }
        for (name, &id) in &self.hist_ids {
            let h = &self.hist_slots[id as usize];
            if !h.is_empty() {
                metrics.insert(name.to_string(), Metric::Histogram(HistSummary::of(h)));
            }
        }
        MetricsReport { metrics }
    }
}

/// One snapshotted instrument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(HistSummary),
}

/// Quantile summary of a histogram at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
}

impl HistSummary {
    /// Encode as a JSON object (member order is the schema order).
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj(vec![
            ("count", Json::u64(self.count)),
            ("sum_us", Json::u64(self.sum_us)),
            ("min_us", Json::u64(self.min_us)),
            ("max_us", Json::u64(self.max_us)),
            ("mean_us", Json::u64(self.mean_us)),
            ("p50_us", Json::u64(self.p50_us)),
            ("p95_us", Json::u64(self.p95_us)),
            ("p99_us", Json::u64(self.p99_us)),
            ("p999_us", Json::u64(self.p999_us)),
        ])
    }

    pub fn of(h: &LatencyHistogram) -> Self {
        HistSummary {
            count: h.len() as u64,
            sum_us: h.sum_us(),
            min_us: h.min().as_micros(),
            max_us: h.max().as_micros(),
            mean_us: h.mean().as_micros(),
            p50_us: h.percentile(50.0).as_micros(),
            p95_us: h.percentile(95.0).as_micros(),
            p99_us: h.percentile(99.0).as_micros(),
            p999_us: h.percentile(99.9).as_micros(),
        }
    }
}

/// A frozen, ordered view of every instrument. `PartialEq` lets tests
/// assert determinism across identical seeds directly.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsReport {
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Encode as a JSON object, one member per metric, in name order.
    /// Counters encode as bare numbers; gauges are tagged
    /// (`{"gauge": v}`) so an integral gauge value does not read as a
    /// counter.
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let mut pairs = Vec::with_capacity(self.metrics.len());
        for (name, m) in &self.metrics {
            let v = match m {
                Metric::Counter(c) => Json::u64(*c),
                Metric::Gauge(g) => Json::obj(vec![("gauge", Json::Num(*g))]),
                Metric::Histogram(h) => h.to_json(),
            };
            pairs.push((name.clone(), v));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.count("a.events", 1);
        r.count("a.events", 4);
        r.gauge("a.load", 0.5);
        assert_eq!(r.counter("a.events"), 5);
        assert_eq!(r.counter("missing"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.events"), Some(5));
        assert_eq!(snap.gauge("a.load"), Some(0.5));
        assert_eq!(snap.counter("a.load"), None);
    }

    #[test]
    fn histograms_are_bounded() {
        let mut r = MetricsRegistry::new();
        for i in 0..10_000u64 {
            r.observe("x.lat_us", SimDuration::from_micros(100 + i % 50));
        }
        let snap = r.snapshot();
        let h = snap.histogram("x.lat_us").unwrap();
        assert_eq!(h.count, 10_000);
        assert!(h.p50_us >= 100 && h.p99_us <= 150);
        assert!(h.min_us == 100 && h.max_us == 149);
    }

    #[test]
    fn snapshot_equality_and_order() {
        let build = |n: u64| {
            let mut r = MetricsRegistry::new();
            r.count("z.last", n);
            r.count("a.first", 1);
            r.observe("m.lat_us", SimDuration::from_micros(n));
            r.snapshot()
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
        let names: Vec<_> = build(1).metrics.keys().cloned().collect();
        assert_eq!(names, vec!["a.first", "m.lat_us", "z.last"]);
    }

    /// Emission: counters are bare numbers, gauges are tagged, histograms
    /// are summaries; the pretty text parses back to the same document.
    #[test]
    fn json_round_trip() {
        let mut r = MetricsRegistry::new();
        r.count("c.n", 3);
        r.gauge("g.v", 1.25);
        r.observe("h.lat_us", SimDuration::from_micros(42));
        let json = r.snapshot().to_json();
        let text = json.to_pretty();
        let doc = crate::Json::parse(&text).unwrap();
        assert_eq!(doc, json);
        assert_eq!(doc.get("c.n"), Some(&crate::Json::Num(3.0)));
        assert_eq!(
            doc.get("g.v")
                .and_then(|g| g.get("gauge"))
                .and_then(crate::Json::as_f64),
            Some(1.25)
        );
        let hist = doc.get("h.lat_us").unwrap();
        assert_eq!(hist.get("count").and_then(crate::Json::as_u64), Some(1));
        assert_eq!(hist.get("p50_us").and_then(crate::Json::as_u64), Some(42));
    }

    #[test]
    fn integral_gauge_round_trips_as_gauge() {
        // Regression: `gauge("a.load", 2.0)` used to emit the same bare
        // number as `count("a.n", 2)`, so a reader could not tell them
        // apart. Gauges carry a `{"gauge": v}` tag; counters stay bare.
        let mut r = MetricsRegistry::new();
        r.gauge("a.load", 2.0);
        r.count("a.n", 2);
        let text = r.snapshot().to_json().to_pretty();
        let doc = crate::Json::parse(&text).unwrap();
        let gauge = doc.get("a.load").unwrap();
        assert_eq!(gauge.as_obj().map(|m| m.len()), Some(1), "{text}");
        assert_eq!(gauge.get("gauge").and_then(crate::Json::as_f64), Some(2.0));
        assert_eq!(doc.get("a.n"), Some(&crate::Json::Num(2.0)));
    }

    #[test]
    fn handles_resolve_to_slots_and_interop_with_strings() {
        let mut r = MetricsRegistry::new();
        // A name is one slot whichever path reaches it first.
        r.count("a.events", 2);
        let c = r.register_counter("a.events");
        assert_eq!(r.register_counter("a.events"), c);
        r.add(c, 3);
        r.bump(c);
        r.count("a.events", 1);
        assert_eq!(r.counter("a.events"), 7);

        let h = r.register_histogram("a.lat_us");
        r.record(h, SimDuration::from_micros(10));
        r.observe("a.lat_us", SimDuration::from_micros(30));
        assert_eq!(r.histogram("a.lat_us").unwrap().len(), 2);

        let snap = r.snapshot();
        assert_eq!(snap.counter("a.events"), Some(7));
        assert_eq!(snap.histogram("a.lat_us").unwrap().count, 2);
    }

    #[test]
    fn untouched_registered_instruments_stay_out_of_snapshots() {
        // Pre-registering a fleet of instruments at startup must not
        // change any snapshot until they are actually used — committed
        // baselines rely on snapshot-identical behavior.
        let mut with_handles = MetricsRegistry::new();
        let c = with_handles.register_counter("x.used");
        with_handles.register_counter("x.never");
        with_handles.register_histogram("x.lat_never_us");
        let h = with_handles.register_histogram("x.lat_us");
        with_handles.add(c, 5);
        with_handles.record(h, SimDuration::from_micros(7));

        let mut plain = MetricsRegistry::new();
        plain.count("x.used", 5);
        plain.observe("x.lat_us", SimDuration::from_micros(7));

        assert_eq!(with_handles.snapshot(), plain.snapshot());
    }
}
