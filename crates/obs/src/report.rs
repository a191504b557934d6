//! The `gdb-bench/v1` artifact schema.
//!
//! `gdb-bench`, `nemesis` and the shell's `bench tpcc` write one
//! [`BenchArtifact`] per run via `--json`:
//! the figure name, the configuration key/values, and one [`BenchSeries`]
//! per plotted line/bar (throughput, latency quantiles, per-phase
//! breakdown, network bytes, full metrics snapshot). The artifacts are an
//! output, never read back: the root package's `tests/claims.rs` asserts
//! the paper's claims on the runs themselves, and `scripts/vt_diff.sh`
//! diffs the emitted documents byte for byte against another revision.

use crate::json::Json;
use crate::metrics::{HistSummary, MetricsReport};
use crate::span::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "gdb-bench/v1";

/// Network-traffic totals for one series' cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Redo bytes shipped on the wire (post-compression).
    pub wire_bytes: u64,
    /// Redo bytes before compression.
    pub raw_bytes: u64,
    /// Log-shipping batches sealed.
    pub batches: u64,
    /// Messages that crossed a region boundary.
    pub cross_region_msgs: u64,
    /// Bytes that crossed a region boundary.
    pub cross_region_bytes: u64,
}

impl NetStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wire_bytes", Json::u64(self.wire_bytes)),
            ("raw_bytes", Json::u64(self.raw_bytes)),
            ("batches", Json::u64(self.batches)),
            ("cross_region_msgs", Json::u64(self.cross_region_msgs)),
            ("cross_region_bytes", Json::u64(self.cross_region_bytes)),
        ])
    }
}

/// One plotted line/bar of a figure: a single cluster + workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSeries {
    pub label: String,
    pub throughput_txn_s: f64,
    /// TPC-C transactions-per-minute-C (0 for non-TPC-C workloads).
    pub tpmc: f64,
    pub commits: u64,
    pub aborts: u64,
    /// End-to-end transaction latency.
    pub latency: HistSummary,
    /// Per-phase latency breakdown (`snapshot_acquire`, `execute`,
    /// `prepare`, `commit_wait`, `replication_ack`).
    pub phases: BTreeMap<String, HistSummary>,
    pub net: NetStats,
    /// Full metrics snapshot of the series' cluster.
    pub metrics: MetricsReport,
}

impl BenchSeries {
    fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("throughput_txn_s", Json::Num(self.throughput_txn_s)),
            ("tpmc", Json::Num(self.tpmc)),
            ("commits", Json::u64(self.commits)),
            ("aborts", Json::u64(self.aborts)),
            ("latency_us", self.latency.to_json()),
            ("phases_us", Json::Obj(phases)),
            ("net", self.net.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// One figure run: configuration + all its series.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Figure name (`fig1a`, `fig6a`, …, `nemesis`).
    pub figure: String,
    /// Run configuration as ordered key/value strings (scale, seconds,
    /// terminals, seed, …).
    pub config: Vec<(String, String)>,
    pub series: Vec<BenchSeries>,
}

impl BenchArtifact {
    pub fn new(figure: impl Into<String>) -> Self {
        BenchArtifact {
            figure: figure.into(),
            config: Vec::new(),
            series: Vec::new(),
        }
    }

    pub fn config_kv(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    pub fn to_json(&self) -> Json {
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("figure", Json::str(&self.figure)),
            ("config", Json::Obj(config)),
            (
                "series",
                Json::Arr(self.series.iter().map(BenchSeries::to_json).collect()),
            ),
        ])
    }

    /// The pretty document written to a `--json` path.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// Export a tracer's spans as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto `traceEvents` format, loadable as-is).
///
/// Each span becomes one complete (`"X"`) event with microsecond `ts` /
/// `dur` derived from its virtual-time interval. Events are grouped into
/// tracks (`tid`) by their *root ancestor* span, so every transaction or
/// transition renders as its own row with its phase children nested
/// beneath it; `pid` is constant (one simulated cluster per trace).
pub fn to_chrome_trace(tracer: &Tracer) -> String {
    let spans = tracer.spans();
    // Spans are recorded parent-first (a child's id is always greater
    // than its parent's), so one forward pass resolves root ancestors.
    let mut track = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        track[i] = if s.is_root() {
            s.id
        } else {
            track[s.parent as usize]
        };
    }
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("name", Json::str(s.kind.name())),
                ("cat", Json::str(if s.is_root() { "root" } else { "phase" })),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start.as_nanos() as f64 / 1000.0)),
                (
                    "dur",
                    Json::Num(s.end.since(s.start).as_nanos() as f64 / 1000.0),
                ),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(track[i] as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("label", Json::u64(s.label)),
                        ("span_id", Json::u64(s.id as u64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::stats::LatencyHistogram;
    use gdb_simnet::SimDuration;

    fn summary(vals_us: &[u64]) -> HistSummary {
        let mut h = LatencyHistogram::new();
        for &v in vals_us {
            h.record(SimDuration::from_micros(v));
        }
        HistSummary::of(&h)
    }

    /// The emitted text parses back to the stable schema's fields.
    #[test]
    fn artifact_round_trip() {
        let mut a = BenchArtifact::new("fig6a");
        a.config_kv("scale", "tiny");
        a.config_kv("seed", 42);
        a.series.push(BenchSeries {
            label: "gclock".to_string(),
            throughput_txn_s: 123.5,
            tpmc: 123.5 * 60.0 * 0.45,
            commits: 1000,
            aborts: 3,
            latency: summary(&[900, 1100, 5000]),
            phases: [("commit_wait".to_string(), summary(&[300, 4000]))]
                .into_iter()
                .collect(),
            net: NetStats {
                wire_bytes: 1 << 20,
                ..NetStats::default()
            },
            metrics: MetricsReport::default(),
        });
        let parsed = Json::parse(&a.to_pretty()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("figure").and_then(Json::as_str), Some("fig6a"));
        let config = parsed.get("config").unwrap();
        assert_eq!(config.get("seed").and_then(Json::as_str), Some("42"));
        let s0 = &parsed.get("series").unwrap().as_arr().unwrap()[0];
        for key in [
            "throughput_txn_s",
            "latency_us",
            "phases_us",
            "net",
            "metrics",
        ] {
            assert!(s0.get(key).is_some(), "missing series.{key}");
        }
        assert_eq!(s0.get("commits").and_then(Json::as_u64), Some(1000));
        assert!(s0.get("latency_us").unwrap().get("p99_us").is_some());
        let wait = s0.get("phases_us").unwrap().get("commit_wait").unwrap();
        assert_eq!(wait.get("count").and_then(Json::as_u64), Some(2));
        let net = s0.get("net").unwrap();
        assert_eq!(net.get("wire_bytes").and_then(Json::as_u64), Some(1 << 20));
    }

    #[test]
    fn chrome_trace_shape() {
        use crate::span::SpanKind;
        use gdb_simnet::SimTime;
        let mut tr = Tracer::default();
        tr.enable(16);
        let t = SimTime::from_micros;
        let txn = tr.record(SpanKind::Txn, 7, t(100), t(350));
        tr.record_child(txn, SpanKind::Execute, 7, t(100), t(200));
        tr.record_child(txn, SpanKind::CommitWait, 7, t(200), t(350));
        let other = tr.record(SpanKind::Transition, 0, t(400), t(900));
        tr.record_child(other, SpanKind::TransitionDualAcks, 0, t(400), t(900));

        let doc = Json::parse(&to_chrome_trace(&tr)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(1));
            for key in ["name", "ts", "dur", "tid", "args"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
        // Microsecond timestamps, straight from virtual time.
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(100.0));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(250.0));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("txn"));
        // Children land on their root ancestor's track.
        let tid = |i: usize| events[i].get("tid").and_then(Json::as_u64).unwrap();
        assert_eq!(tid(1), tid(0));
        assert_eq!(tid(2), tid(0));
        assert_eq!(tid(4), tid(3));
        assert_ne!(tid(0), tid(3), "separate roots get separate tracks");
    }
}
