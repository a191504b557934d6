//! The `gdb-bench/v1` artifact schema and the baseline comparison the CI
//! perf gate runs.
//!
//! Every figure binary emits one [`BenchArtifact`] per run via `--json`:
//! the figure name, the configuration key/values, and one [`BenchSeries`]
//! per plotted line/bar (throughput, latency quantiles, per-phase
//! breakdown, network bytes, full metrics snapshot). Multiple artifacts
//! bundle into a single file (`{"schema": "gdb-bench/bundle/v1",
//! "artifacts": [...]}`) — `BENCH_smoke.json` is such a bundle covering
//! all five figures at tiny scale.
//!
//! [`compare_artifacts`] implements the regression gate: for every
//! `(figure, series)` pair present in the baseline, current throughput
//! must be at least `(1 - tolerance) ×` the baseline's.

use crate::json::Json;
use crate::metrics::{HistSummary, MetricsReport};
use crate::span::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "gdb-bench/v1";
pub const BUNDLE_SCHEMA: &str = "gdb-bench/bundle/v1";

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

    fn from_json(v: &Json, ctx: &str) -> Result<Self, String> {
        let f = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{ctx}: {k} missing or not a count"))
        };
        Ok(NetStats {
            wire_bytes: f("wire_bytes")?,
            raw_bytes: f("raw_bytes")?,
            batches: f("batches")?,
            cross_region_msgs: f("cross_region_msgs")?,
            cross_region_bytes: f("cross_region_bytes")?,
        })
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

    fn from_json(v: &Json, ctx: &str) -> Result<Self, String> {
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing label"))?
            .to_string();
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{ctx}[{label}]: missing {k}"))
        };
        let latency = HistSummary::from_json(
            v.get("latency_us")
                .ok_or_else(|| format!("{ctx}[{label}]: missing latency_us"))?,
            &format!("{ctx}[{label}].latency_us"),
        )?;
        let mut phases = BTreeMap::new();
        if let Some(pairs) = v.get("phases_us").and_then(Json::as_obj) {
            for (k, ph) in pairs {
                phases.insert(
                    k.clone(),
                    HistSummary::from_json(ph, &format!("{ctx}[{label}].phases_us.{k}"))?,
                );
            }
        }
        let net = match v.get("net") {
            Some(n) => NetStats::from_json(n, &format!("{ctx}[{label}].net"))?,
            None => NetStats::default(),
        };
        let metrics = match v.get("metrics") {
            Some(m) => MetricsReport::from_json(m)?,
            None => MetricsReport::default(),
        };
        let throughput_txn_s = num("throughput_txn_s")?;
        let tpmc = num("tpmc")?;
        let count = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{ctx}[{label}]: {k} missing or not a count"))
        };
        let commits = count("commits")?;
        let aborts = count("aborts")?;
        Ok(BenchSeries {
            label,
            throughput_txn_s,
            tpmc,
            commits,
            aborts,
            latency,
            phases,
            net,
            metrics,
        })
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

    /// The value of a config key, if present.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The absolute ceiling of this artifact's counter-gate leg
    /// ([`COUNTER_GATE_MAX_KEY`]; unbounded when absent).
    pub fn counter_gate_max(&self) -> f64 {
        self.config_value(COUNTER_GATE_MAX_KEY)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::INFINITY)
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

    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("artifact: bad schema {other:?}")),
        }
        let figure = v
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("artifact: missing figure")?
            .to_string();
        let mut config = Vec::new();
        if let Some(pairs) = v.get("config").and_then(Json::as_obj) {
            for (k, val) in pairs {
                config.push((
                    k.clone(),
                    val.as_str().map(str::to_string).unwrap_or_default(),
                ));
            }
        }
        let ctx = format!("artifact[{figure}].series");
        let series = v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("artifact[{figure}]: missing series"))?
            .iter()
            .map(|s| BenchSeries::from_json(s, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchArtifact {
            figure,
            config,
            series,
        })
    }

    /// The pretty document written to a `--json` path.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// Bundle several artifacts into one document (`BENCH_smoke.json`).
pub fn bundle(artifacts: &[BenchArtifact]) -> Json {
    Json::obj(vec![
        ("schema", Json::str(BUNDLE_SCHEMA)),
        (
            "artifacts",
            Json::Arr(artifacts.iter().map(BenchArtifact::to_json).collect()),
        ),
    ])
}

/// Load artifacts from a parsed document: accepts a single artifact, a
/// bundle, or a bare array of artifacts.
pub fn load_artifacts(v: &Json) -> Result<Vec<BenchArtifact>, String> {
    if let Some(items) = v.as_arr() {
        return items.iter().map(BenchArtifact::from_json).collect();
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(BUNDLE_SCHEMA) => v
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or("bundle: missing artifacts")?
            .iter()
            .map(BenchArtifact::from_json)
            .collect(),
        Some(SCHEMA) => Ok(vec![BenchArtifact::from_json(v)?]),
        other => Err(format!("unknown schema {other:?}")),
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

/// The phase components the gate diffs in addition to throughput: the
/// geo-distribution costs the paper's figures are about (GClock commit
/// wait, synchronous replication acknowledgement).
pub const GATED_PHASES: &[&str] = &["commit_wait", "replication_ack"];

/// Config key naming a *lower-is-better* counter (e.g.
/// `"rebalance.migrations_started"`) carried in a series' metrics
/// snapshot. When set, the gate adds a `counter:<name>` comparison for
/// the gated series: the current count must stay under the artifact's
/// [`COUNTER_GATE_MAX_KEY`] ceiling and must not grow past the blessed
/// count by more than the tolerance plus [`COUNTER_SLACK`]. This is how
/// the rebalance ablation pins "converges in ≤ N migrations": a
/// ping-pong regression quadruples the count and fails the gate even if
/// throughput barely moves.
pub const COUNTER_GATE_METRIC_KEY: &str = "counter_gate_metric";

/// Config key for the absolute ceiling of the counter-gate leg (a
/// count, e.g. `"4"`). Missing = no absolute ceiling; only the
/// relative-to-baseline check applies.
pub const COUNTER_GATE_MAX_KEY: &str = "counter_gate_max";

/// Config key naming the one series label the counter-gate applies to
/// (e.g. the rebalancing twin, not the static control). Missing = every
/// series is gated.
pub const COUNTER_GATE_SERIES_KEY: &str = "counter_gate_series";

/// Absolute slack on counter comparisons: event counts are small
/// integers, so a ±1 wobble around a tiny baseline must not fail the
/// gate the way a relative check alone would.
pub const COUNTER_SLACK: f64 = 1.0;

/// Config keys with this prefix configured the retired wall-clock ratio
/// gate. An artifact still carrying one is stale: comparing it would
/// treat machine-local wall-clock numbers as virtual-time absolutes, so
/// [`validate_artifacts`] rejects it.
const RETIRED_WALL_PREFIX: &str = "wall_";

/// Absolute slack for phase-mean comparisons: sub-50 µs phases are
/// dominated by quantization and scheduling noise, not regressions.
const PHASE_SLACK_US: f64 = 50.0;

/// One `(figure, series, metric)` comparison of the regression gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    pub figure: String,
    pub label: String,
    /// What is compared: `throughput` (txn/s, higher is better) or
    /// `phase:<name>` (mean µs, lower is better).
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// current / baseline (1.0 when the baseline is zero).
    pub ratio: f64,
    /// False when the series regressed beyond tolerance or is missing
    /// from the current run.
    pub ok: bool,
}

impl Comparison {
    pub fn render(&self) -> String {
        let unit = match self.metric.as_str() {
            "throughput" => "txn/s",
            m if m.starts_with("counter:") => "(lower is better)",
            _ => "us mean",
        };
        format!(
            "{:4} {}/{} {}: baseline {:.1} {unit}, current {:.1} ({:+.1}%)",
            if self.ok { "ok" } else { "FAIL" },
            self.figure,
            self.label,
            self.metric,
            self.baseline,
            self.current,
            (self.ratio - 1.0) * 100.0
        )
    }
}

/// Compare `current` against `baseline`: every baseline series must be
/// present, within `tolerance` relative throughput loss, and — for the
/// [`GATED_PHASES`] present in the baseline's phase breakdown — within
/// `tolerance` relative phase-mean growth (plus a small absolute slack).
/// Series only in `current` are ignored (adding figures never fails the
/// gate).
pub fn compare_artifacts(
    baseline: &[BenchArtifact],
    current: &[BenchArtifact],
    tolerance: f64,
) -> Vec<Comparison> {
    let mut out = Vec::new();
    for base in baseline {
        let cur_art = current.iter().find(|a| a.figure == base.figure);
        for bs in &base.series {
            let cur = cur_art.and_then(|a| a.series.iter().find(|s| s.label == bs.label));
            match cur {
                None => out.push(Comparison {
                    figure: base.figure.clone(),
                    label: bs.label.clone(),
                    metric: "throughput".into(),
                    baseline: bs.throughput_txn_s,
                    current: 0.0,
                    ratio: 0.0,
                    ok: false,
                }),
                Some(cs) => {
                    let ratio = if bs.throughput_txn_s > 0.0 {
                        cs.throughput_txn_s / bs.throughput_txn_s
                    } else {
                        1.0
                    };
                    out.push(Comparison {
                        figure: base.figure.clone(),
                        label: bs.label.clone(),
                        metric: "throughput".into(),
                        baseline: bs.throughput_txn_s,
                        current: cs.throughput_txn_s,
                        ratio,
                        ok: ratio >= 1.0 - tolerance,
                    });
                    for &phase in GATED_PHASES {
                        let Some(bh) = bs.phases.get(phase) else {
                            continue;
                        };
                        let (b, c) = (
                            bh.mean_us as f64,
                            // A phase the current run no longer records
                            // counts as infinitely regressed, not absent.
                            cs.phases.get(phase).map(|h| h.mean_us as f64),
                        );
                        let c = c.unwrap_or(f64::INFINITY);
                        out.push(Comparison {
                            figure: base.figure.clone(),
                            label: bs.label.clone(),
                            metric: format!("phase:{phase}"),
                            baseline: b,
                            current: c,
                            ratio: if b > 0.0 { c / b } else { 1.0 },
                            ok: c <= b * (1.0 + tolerance) + PHASE_SLACK_US,
                        });
                    }
                    // The lower-is-better counter leg (e.g. migration
                    // counts): bounded by the artifact's absolute
                    // ceiling AND by the blessed count plus slack.
                    if let Some(name) = base.config_value(COUNTER_GATE_METRIC_KEY) {
                        let gated = match base.config_value(COUNTER_GATE_SERIES_KEY) {
                            None => true,
                            Some(l) => l == bs.label,
                        };
                        if gated {
                            // An absent counter was never incremented.
                            let b = bs.metrics.counter(name).unwrap_or(0) as f64;
                            let c = cs.metrics.counter(name).unwrap_or(0) as f64;
                            out.push(Comparison {
                                figure: base.figure.clone(),
                                label: bs.label.clone(),
                                metric: format!("counter:{name}"),
                                baseline: b,
                                current: c,
                                ratio: if b > 0.0 { c / b } else { 1.0 },
                                ok: c <= base.counter_gate_max()
                                    && c <= b * (1.0 + tolerance) + COUNTER_SLACK,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Schema-sanity validation of committed artifacts: every oddity a
/// hand-edited or drifted `BENCH_*.json` could carry that the gate
/// would otherwise silently mis-compare. Returns one message per
/// problem (empty = valid). Run by `benchcmp validate` in the lint
/// stage over every committed baseline.
pub fn validate_artifacts(artifacts: &[BenchArtifact]) -> Vec<String> {
    let mut errs = Vec::new();
    let mut figures = std::collections::BTreeSet::new();
    for a in artifacts {
        let fig = &a.figure;
        if fig.is_empty() {
            errs.push("artifact with empty figure name".into());
            continue;
        }
        if !figures.insert(fig.clone()) {
            errs.push(format!("{fig}: duplicate figure in one document"));
        }
        if a.series.is_empty() {
            errs.push(format!("{fig}: no series"));
        }
        for (key, _) in &a.config {
            if key.is_empty() {
                errs.push(format!("{fig}: empty config key"));
            }
            if key.starts_with(RETIRED_WALL_PREFIX) {
                errs.push(format!(
                    "{fig}: retired wall-clock gate key {key:?} (stale artifact; \
                     wall time is measured by benchmark/ only)"
                ));
            }
        }
        if a.config_value(COUNTER_GATE_METRIC_KEY).is_some() {
            if let Some(v) = a.config_value(COUNTER_GATE_MAX_KEY) {
                if v.parse::<f64>().map_or(true, |f| !f.is_finite() || f < 0.0) {
                    errs.push(format!("{fig}: bad {COUNTER_GATE_MAX_KEY} {v:?}"));
                }
            }
            if let Some(label) = a.config_value(COUNTER_GATE_SERIES_KEY) {
                if !a.series.iter().any(|s| s.label == label) {
                    errs.push(format!(
                        "{fig}: {COUNTER_GATE_SERIES_KEY} names absent series {label:?}"
                    ));
                }
            }
        } else {
            for key in [COUNTER_GATE_MAX_KEY, COUNTER_GATE_SERIES_KEY] {
                if a.config_value(key).is_some() {
                    errs.push(format!("{fig}: {key} without {COUNTER_GATE_METRIC_KEY}"));
                }
            }
        }
        let mut labels = std::collections::BTreeSet::new();
        for s in &a.series {
            let label = &s.label;
            if label.is_empty() {
                errs.push(format!("{fig}: series with empty label"));
            }
            if !labels.insert(label.clone()) {
                errs.push(format!("{fig}: duplicate series label {label:?}"));
            }
            for (name, v) in [("throughput_txn_s", s.throughput_txn_s), ("tpmc", s.tpmc)] {
                if !v.is_finite() || v < 0.0 {
                    errs.push(format!(
                        "{fig}/{label}: {name} = {v} not a finite non-negative"
                    ));
                }
            }
            let mut hists: Vec<(String, &HistSummary)> = vec![("latency_us".into(), &s.latency)];
            hists.extend(s.phases.iter().map(|(k, h)| (format!("phases_us.{k}"), h)));
            for (name, h) in hists {
                let quantiles = [h.p50_us, h.p95_us, h.p99_us, h.p999_us];
                if quantiles.windows(2).any(|w| w[0] > w[1]) {
                    errs.push(format!("{fig}/{label}: {name} quantiles not monotone"));
                }
                if h.count > 0 && (h.min_us > h.max_us || h.mean_us > h.max_us) {
                    errs.push(format!("{fig}/{label}: {name} min/mean/max inconsistent"));
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::stats::LatencyHistogram;
    use gdb_simnet::SimDuration;

    fn summary(vals_us: &[u64]) -> HistSummary {
        let mut h = LatencyHistogram::bounded();
        for &v in vals_us {
            h.record(SimDuration::from_micros(v));
        }
        HistSummary::of(&h)
    }

    fn artifact(figure: &str, label: &str, txn_s: f64) -> BenchArtifact {
        let mut a = BenchArtifact::new(figure);
        a.config_kv("scale", "tiny");
        a.config_kv("seed", 42);
        a.series.push(BenchSeries {
            label: label.to_string(),
            throughput_txn_s: txn_s,
            tpmc: txn_s * 60.0 * 0.45,
            commits: 1000,
            aborts: 3,
            latency: summary(&[900, 1100, 5000]),
            phases: [
                ("execute".to_string(), summary(&[400, 500])),
                ("commit_wait".to_string(), summary(&[300, 4000])),
            ]
            .into_iter()
            .collect(),
            net: NetStats {
                wire_bytes: 1 << 20,
                raw_bytes: 1 << 21,
                batches: 64,
                cross_region_msgs: 100,
                cross_region_bytes: 1 << 18,
            },
            metrics: MetricsReport::default(),
        });
        a
    }

    #[test]
    fn artifact_round_trip() {
        let a = artifact("fig6a", "gclock", 123.5);
        let text = a.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(BenchArtifact::from_json(&parsed).unwrap(), a);
        // Required top-level fields of the stable schema.
        for key in ["schema", "figure", "config", "series"] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        let s0 = &parsed.get("series").unwrap().as_arr().unwrap()[0];
        for key in ["throughput_txn_s", "latency_us", "phases_us", "net"] {
            assert!(s0.get(key).is_some(), "missing series.{key}");
        }
        assert!(s0.get("latency_us").unwrap().get("p99_us").is_some());
    }

    #[test]
    fn from_json_names_the_field_holding_a_bad_count() {
        let doc = artifact("fig6a", "gclock", 1.0).to_pretty();
        for (field, good, bad) in [
            ("commits", "\"commits\": 1000", "\"commits\": -1"),
            ("aborts", "\"aborts\": 3", "\"aborts\": 2.5"),
            ("batches", "\"batches\": 64", "\"batches\": 1e30"),
        ] {
            assert!(doc.contains(good), "{doc}");
            let edited = Json::parse(&doc.replace(good, bad)).unwrap();
            let err = BenchArtifact::from_json(&edited).unwrap_err();
            assert!(err.contains(field) && err.contains("gclock"), "{err}");
        }
    }

    #[test]
    fn bundle_round_trip_and_single_load() {
        let arts = vec![
            artifact("fig1a", "tpcc", 50.0),
            artifact("fig6a", "gtm", 40.0),
        ];
        let doc = bundle(&arts).to_pretty();
        let loaded = load_artifacts(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(loaded, arts);
        // A single artifact document loads as a one-element list.
        let single = artifact("fig6b", "x", 1.0);
        let loaded = load_artifacts(&Json::parse(&single.to_pretty()).unwrap()).unwrap();
        assert_eq!(loaded, vec![single]);
        assert!(load_artifacts(&Json::obj(vec![("schema", Json::str("nope"))])).is_err());
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

    #[test]
    fn comparison_gate() {
        let base = vec![artifact("fig6a", "gclock", 100.0)];
        // Within tolerance: 15% down. The helper's series carries a
        // `commit_wait` phase, so a matched series yields a throughput
        // row plus one gated-phase row.
        let ok = compare_artifacts(&base, &[artifact("fig6a", "gclock", 85.0)], 0.20);
        assert_eq!(ok.len(), 2, "{ok:?}");
        assert_eq!(ok[1].metric, "phase:commit_wait");
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        // Beyond tolerance: 25% down.
        let bad = compare_artifacts(&base, &[artifact("fig6a", "gclock", 75.0)], 0.20);
        assert!(!bad[0].ok);
        assert!(bad[0].render().contains("FAIL"));
        assert!(bad[1].ok, "identical phase means must pass: {:?}", bad[1]);
        // Missing series fails (single row; no phase rows to compare).
        let missing = compare_artifacts(&base, &[artifact("fig6a", "gtm", 100.0)], 0.20);
        assert_eq!(missing.len(), 1);
        assert!(!missing[0].ok);
        // Faster never fails; extra current series ignored.
        let faster = compare_artifacts(
            &base,
            &[
                artifact("fig6a", "gclock", 140.0),
                artifact("fig9", "z", 1.0),
            ],
            0.20,
        );
        assert_eq!(faster.len(), 2);
        assert!(faster.iter().all(|c| c.ok));
    }

    #[test]
    fn validate_rejects_stale_wall_clock_artifacts() {
        // An artifact blessed by one of the retired wall-clock benches
        // would otherwise be compared as virtual-time absolutes.
        for (key, value) in [
            ("wall_clock", "true"),
            ("wall_clock", "false"),
            ("wall_baseline", "thread"),
            ("wall_floor", "1.5"),
            ("wall_alloc_metric", "txn.allocs_per_txn"),
            ("wall_alloc_floor", "10"),
        ] {
            let mut a = artifact("engine", "fast", 6_000_000.0);
            a.config_kv(key, value);
            let errs = validate_artifacts(&[a]);
            assert_eq!(errs.len(), 1, "{key}: {errs:?}");
            assert!(
                errs[0].contains("retired") && errs[0].contains(key),
                "{errs:?}"
            );
        }
        // Survives the JSON round trip `benchcmp` takes.
        let mut a = artifact("txn", "fast", 1.0);
        a.config_kv("wall_clock", "true");
        let loaded = load_artifacts(&Json::parse(&a.to_pretty()).unwrap()).unwrap();
        assert_eq!(validate_artifacts(&loaded).len(), 1);
    }

    /// A rebalance-ablation-shaped artifact: a static control plus a
    /// rebalancing series whose migration count is gated (ceiling 4,
    /// lower is better) via [`COUNTER_GATE_METRIC_KEY`].
    fn counter_artifact(migrations: u64) -> BenchArtifact {
        let mut a = artifact("ablation_rebalance", "static-skew", 90.0);
        a.config_kv(COUNTER_GATE_METRIC_KEY, "rebalance.migrations_started");
        a.config_kv(COUNTER_GATE_MAX_KEY, 4);
        a.config_kv(COUNTER_GATE_SERIES_KEY, "rebalance-skew");
        let mut rebal = a.series[0].clone();
        rebal.label = "rebalance-skew".into();
        rebal.throughput_txn_s = 100.0;
        let mut m = crate::metrics::MetricsRegistry::default();
        let id = m.register_counter("rebalance.migrations_started");
        m.add(id, migrations);
        rebal.metrics = m.snapshot();
        a.series.push(rebal);
        a
    }

    #[test]
    fn counter_gate_is_lower_is_better_with_a_ceiling() {
        let base = vec![counter_artifact(3)];
        let rows = |cur: &BenchArtifact| compare_artifacts(&base, std::slice::from_ref(cur), 0.20);
        // Same count passes; the leg applies only to the gated series.
        let out = rows(&counter_artifact(3));
        let counters: Vec<_> = out
            .iter()
            .filter(|c| c.metric.starts_with("counter:"))
            .collect();
        assert_eq!(counters.len(), 1, "{out:?}");
        assert_eq!(counters[0].label, "rebalance-skew");
        assert!(counters[0].ok, "{out:?}");
        assert!(counters[0].render().contains("(lower is better)"));
        // One fewer migration (an improvement) passes.
        let out = rows(&counter_artifact(2));
        assert!(out.iter().all(|c| c.ok), "{out:?}");
        // Past the absolute ceiling fails even against a high baseline.
        let out = rows(&counter_artifact(5));
        let bad = out.iter().find(|c| c.metric.starts_with("counter:"));
        assert!(!bad.unwrap().ok, "count 5 over max 4 must fail: {out:?}");
        // Ping-pong regression: way past baseline*(1+tol)+slack.
        let mut no_max = counter_artifact(3);
        no_max.config.retain(|(k, _)| k != COUNTER_GATE_MAX_KEY);
        let out = compare_artifacts(&[no_max], &[counter_artifact(16)], 0.20);
        let bad = out.iter().find(|c| c.metric.starts_with("counter:"));
        assert!(!bad.unwrap().ok, "16 vs blessed 3 must fail: {out:?}");
        // A counter absent from the current snapshot counts as zero.
        let mut quiet = counter_artifact(3);
        quiet.series[1].metrics = MetricsReport::default();
        let out = rows(&quiet);
        assert!(out.iter().all(|c| c.ok), "{out:?}");
    }

    #[test]
    fn validate_catches_counter_gate_drift() {
        assert!(validate_artifacts(&[counter_artifact(3)]).is_empty());
        // Ceiling that does not parse.
        let mut a = counter_artifact(3);
        a.config.retain(|(k, _)| k != COUNTER_GATE_MAX_KEY);
        a.config_kv(COUNTER_GATE_MAX_KEY, "four");
        assert!(validate_artifacts(&[a])
            .iter()
            .any(|e| e.contains(COUNTER_GATE_MAX_KEY)));
        // Gated series that does not exist.
        let mut a = counter_artifact(3);
        a.config.retain(|(k, _)| k != COUNTER_GATE_SERIES_KEY);
        a.config_kv(COUNTER_GATE_SERIES_KEY, "ghost");
        assert!(validate_artifacts(&[a])
            .iter()
            .any(|e| e.contains("absent series")));
        // Ceiling/series keys without the metric key are dangling.
        let mut a = artifact("fig1a", "x", 1.0);
        a.config_kv(COUNTER_GATE_MAX_KEY, 4);
        assert!(validate_artifacts(&[a])
            .iter()
            .any(|e| e.contains("without")));
    }

    #[test]
    fn validate_catches_schema_drift() {
        // A healthy document validates clean.
        let good = vec![
            artifact("fig1a", "tpcc", 50.0),
            artifact("fig6a", "gclock", 40.0),
        ];
        assert!(
            validate_artifacts(&good).is_empty(),
            "{:?}",
            validate_artifacts(&good)
        );

        let errs = |arts: &[BenchArtifact]| validate_artifacts(arts);
        // Duplicate figures in one document.
        let dup = vec![artifact("fig1a", "a", 1.0), artifact("fig1a", "b", 1.0)];
        assert!(errs(&dup).iter().any(|e| e.contains("duplicate figure")));
        // Duplicate series labels.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series.push(a.series[0].clone());
        assert!(errs(&[a])
            .iter()
            .any(|e| e.contains("duplicate series label")));
        // Non-finite throughput.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series[0].throughput_txn_s = f64::NAN;
        assert!(errs(&[a]).iter().any(|e| e.contains("throughput_txn_s")));
        // Quantile ordering violated.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series[0].latency.p95_us = a.series[0].latency.p99_us + 1_000_000;
        assert!(errs(&[a]).iter().any(|e| e.contains("not monotone")));
        // Empty figure and empty series list.
        assert!(!errs(&[BenchArtifact::new("")]).is_empty());
        assert!(errs(&[BenchArtifact::new("f")])
            .iter()
            .any(|e| e.contains("no series")));
    }

    #[test]
    fn comparison_gate_catches_phase_regressions() {
        let phased = |commit_wait_us: &[u64]| {
            let mut a = artifact("fig6a", "gclock", 100.0);
            a.series[0].phases = [
                ("commit_wait".to_string(), summary(commit_wait_us)),
                ("replication_ack".to_string(), summary(&[800, 1200])),
            ]
            .into_iter()
            .collect();
            a
        };
        let base = vec![phased(&[2000, 2200])];
        // Throughput unchanged, commit-wait mean tripled: the phase row
        // fails even though the throughput row passes.
        let out = compare_artifacts(&base, &[phased(&[6000, 6600])], 0.20);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].ok, "throughput row: {:?}", out[0]);
        assert_eq!(out[1].metric, "phase:commit_wait");
        assert!(!out[1].ok, "tripled commit wait must fail: {:?}", out[1]);
        assert!(out[1].render().contains("us mean"));
        assert_eq!(out[2].metric, "phase:replication_ack");
        assert!(out[2].ok);
        // A current run that dropped a gated phase entirely fails it.
        let mut gone = phased(&[2000, 2200]);
        gone.series[0].phases.remove("commit_wait");
        let out = compare_artifacts(&base, &[gone], 0.20);
        assert!(!out[1].ok, "missing phase must fail: {:?}", out[1]);
        // Tiny phases live inside the absolute slack: a jump from 5 µs
        // to 40 µs is noise, not a regression.
        let out = compare_artifacts(&[phased(&[5, 5])], &[phased(&[40, 40])], 0.20);
        assert!(out[1].ok, "sub-slack phase flagged: {:?}", out[1]);
    }
}
