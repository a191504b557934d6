//! The metrics registry: named counters, gauges, and bounded-quantile
//! histograms.
//!
//! Names are usually `&'static str` constants owned by the subsystem
//! crates (`gdb_txnmgr::metrics`, `gdb_replication::metrics`, …) in a
//! `subsystem.noun[_unit]` scheme — e.g. `txnmgr.phase.commit_wait_us`,
//! `replication.ship.wire_bytes`, `rcp.rounds`. Labelled instruments
//! (per-`RpcKind`, per-region-pair) pass an owned `String`; keys are
//! `Cow<'static, str>` so the static-name hot path stays allocation-free.
//! Registration is implicit: the first record of a name creates the
//! instrument. Storage is `BTreeMap`-backed so snapshots iterate in
//! deterministic name order.
//!
//! # Handles
//!
//! Per-transaction and per-message call sites should not pay a string
//! `BTreeMap` lookup per record. [`MetricsRegistry::register_counter`] /
//! [`MetricsRegistry::register_histogram`] resolve a name once to a
//! [`CounterId`] / [`HistId`] — a plain `Vec` slot index — and the hot
//! methods ([`MetricsRegistry::add`], [`MetricsRegistry::bump`],
//! [`MetricsRegistry::record`]) are direct indexed writes. The name→id
//! map is consulted only at registration and by the string-path methods,
//! which transparently forward to the slot when a name is registered (so
//! mixed usage stays consistent). A slot appears in [`snapshot`] only
//! once touched, keeping snapshots bit-identical with the old implicit
//! registration no matter how many instruments are pre-registered.
//!
//! Histograms use [`LatencyHistogram::bounded`] — O(1) memory streaming
//! summaries — so per-transaction hot paths never accumulate per-sample
//! storage.
//!
//! [`snapshot`]: MetricsRegistry::snapshot

use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Instrument name: a static constant or an owned labelled name.
pub type MetricName = Cow<'static, str>;

/// Handle to a pre-registered counter: a direct `Vec` slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterId(u32);

/// Handle to a pre-registered histogram: a direct `Vec` slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistId(u32);

/// Live instrument storage.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, f64>,
    histograms: BTreeMap<MetricName, LatencyHistogram>,
    /// Slot storage for handle-based counters, parallel to
    /// `counter_touched` / `counter_names`.
    counter_slots: Vec<u64>,
    /// Whether the slot has ever been written — untouched pre-registered
    /// slots are excluded from snapshots, so registration alone never
    /// changes a report.
    counter_touched: Vec<bool>,
    counter_names: Vec<MetricName>,
    counter_ids: BTreeMap<MetricName, u32>,
    hist_slots: Vec<LatencyHistogram>,
    hist_names: Vec<MetricName>,
    hist_ids: BTreeMap<MetricName, u32>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `name` to a counter slot, creating it on first call. Any
    /// value the string path already accumulated is adopted by the slot.
    pub fn register_counter(&mut self, name: impl Into<MetricName>) -> CounterId {
        let name = name.into();
        if let Some(&id) = self.counter_ids.get(&name) {
            return CounterId(id);
        }
        let id = self.counter_slots.len() as u32;
        let existing = self.counters.remove(&name);
        self.counter_touched.push(existing.is_some());
        self.counter_slots.push(existing.unwrap_or(0));
        self.counter_names.push(name.clone());
        self.counter_ids.insert(name, id);
        CounterId(id)
    }

    /// Resolve `name` to a histogram slot, creating it on first call.
    pub fn register_histogram(&mut self, name: impl Into<MetricName>) -> HistId {
        let name = name.into();
        if let Some(&id) = self.hist_ids.get(&name) {
            return HistId(id);
        }
        let id = self.hist_slots.len() as u32;
        let existing = self.histograms.remove(&name);
        self.hist_slots
            .push(existing.unwrap_or_else(LatencyHistogram::bounded));
        self.hist_names.push(name.clone());
        self.hist_ids.insert(name, id);
        HistId(id)
    }

    /// Add `delta` to a registered counter — one indexed write, no lookup.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        let i = id.0 as usize;
        self.counter_slots[i] += delta;
        self.counter_touched[i] = true;
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
    /// Forwards to the slot if `name` was registered.
    pub fn count(&mut self, name: impl Into<MetricName>, delta: u64) {
        let name = name.into();
        if let Some(&id) = self.counter_ids.get(&name) {
            self.add(CounterId(id), delta);
        } else {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    pub fn incr(&mut self, name: impl Into<MetricName>) {
        self.count(name, 1);
    }

    /// Set counter `name` to an absolute value (for mirroring externally
    /// maintained totals into the registry at snapshot time).
    pub fn set_counter(&mut self, name: impl Into<MetricName>, value: u64) {
        let name = name.into();
        if let Some(&id) = self.counter_ids.get(&name) {
            let i = id as usize;
            self.counter_slots[i] = value;
            self.counter_touched[i] = true;
        } else {
            self.counters.insert(name, value);
        }
    }

    pub fn gauge(&mut self, name: impl Into<MetricName>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Record one latency observation into bounded histogram `name`.
    /// Forwards to the slot if `name` was registered.
    pub fn observe(&mut self, name: impl Into<MetricName>, d: SimDuration) {
        let name = name.into();
        if let Some(&id) = self.hist_ids.get(&name) {
            self.record(HistId(id), d);
        } else {
            self.histograms
                .entry(name)
                .or_insert_with(LatencyHistogram::bounded)
                .record(d);
        }
    }

    /// Replace histogram `name` wholesale (for mirroring histograms
    /// maintained outside the registry into a snapshot).
    pub fn set_histogram(&mut self, name: impl Into<MetricName>, h: LatencyHistogram) {
        let name = name.into();
        if let Some(&id) = self.hist_ids.get(&name) {
            self.hist_slots[id as usize] = h;
        } else {
            self.histograms.insert(name, h);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        if let Some(&id) = self.counter_ids.get(name) {
            return self.counter_slots[id as usize];
        }
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        if let Some(&id) = self.hist_ids.get(name) {
            let h = &self.hist_slots[id as usize];
            return if h.is_empty() { None } else { Some(h) };
        }
        self.histograms.get(name)
    }

    /// Freeze the registry into a comparable, serializable report.
    /// Registered slots are included only once touched (counters) or
    /// non-empty (histograms), so the report is identical whether an
    /// instrument went through the handle or the string path.
    pub fn snapshot(&self) -> MetricsReport {
        let mut metrics = BTreeMap::new();
        for (name, &v) in &self.counters {
            metrics.insert(name.to_string(), Metric::Counter(v));
        }
        for (i, &v) in self.counter_slots.iter().enumerate() {
            if self.counter_touched[i] {
                metrics.insert(self.counter_names[i].to_string(), Metric::Counter(v));
            }
        }
        for (name, &v) in &self.gauges {
            metrics.insert(name.to_string(), Metric::Gauge(v));
        }
        for (name, h) in &self.histograms {
            metrics.insert(name.to_string(), Metric::Histogram(HistSummary::of(h)));
        }
        for (i, h) in self.hist_slots.iter().enumerate() {
            if !h.is_empty() {
                metrics.insert(
                    self.hist_names[i].to_string(),
                    Metric::Histogram(HistSummary::of(h)),
                );
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
        let b = h.to_summary();
        HistSummary {
            count: b.count(),
            sum_us: b.sum_us(),
            min_us: b.min_us(),
            max_us: b.max_us(),
            mean_us: if b.count() == 0 {
                0
            } else {
                b.sum_us() / b.count()
            },
            p50_us: b.percentile_us(50.0),
            p95_us: b.percentile_us(95.0),
            p99_us: b.percentile_us(99.0),
            p999_us: b.percentile_us(99.9),
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
        r.incr("a.events");
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
        assert!(r.histogram("x.lat_us").unwrap().is_bounded());
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
            doc.get("g.v").and_then(|g| g.get("gauge")).and_then(crate::Json::as_f64),
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
        // Registration adopts a value the string path already recorded.
        r.count("a.events", 2);
        let c = r.register_counter("a.events");
        assert_eq!(r.register_counter("a.events"), c);
        r.add(c, 3);
        r.bump(c);
        // The string path forwards to the slot after registration.
        r.incr("a.events");
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
