//! `gdb-shell` — an operator console over a live GaussDB-Global cluster.
//!
//! The shell wraps a [`RealCluster`] (sim transport by default; thread or
//! loopback-TCP via the PR-6 seam) and exposes the whole operator surface
//! as one command language, usable three ways:
//!
//! * **REPL** — `gdb-shell` on a terminal;
//! * **batch** — `gdb-shell --script ops.gdb`, producing a transcript
//!   (`gdb> <cmd>` followed by the command's output);
//! * **one-shot** — `gdb-shell scenario run scenarios/x.toml` (what CI
//!   runs).
//!
//! On the sim backend every command's output is a pure function of the
//! seed and the script, so the same script replays to a byte-identical
//! transcript — the golden test in `tests/golden.rs` pins that.
//!
//! Commands: `status`, `nodes`, `shards`, `lag`, `sql <stmt>`,
//! `use cn <n>`, `run <dur>`, `migrate <shard> <region> <host>`,
//! `drain <region> <host>`, `join <region> <host>`, `heal`,
//! `fault <kind> [k=v ...]`, `plan run <name>`, `metrics [prefix]`,
//! `trace on [cap]` / `trace export <path>`, `bench tpcc [--json <path>]`,
//! `scenario run|check <file>`, `help`.

use gdb_chaos::fault::ChaosState;
use gdb_chaos::plan::canned;
use gdb_chaos::runner::heal_all;
use gdb_chaos::scenario;
use gdb_chaos::trace::new_trace;
use gdb_obs::{parse_duration, to_chrome_trace, ConfValue, Metric};
use gdb_realnet::{Backend, RealCluster};
use gdb_simnet::{NodeKind, RegionId};
use gdb_workloads::driver::RunConfig;
use gdb_workloads::tpcc::{TpccMix, TpccScale};
use globaldb::{Cluster, ClusterConfig, Datum, ExecOutput, SimDuration, SimTime, TxnOutcome};

/// Above this many shards, `shards` and `lag` summarize (top-k plus an
/// aggregate line) instead of listing every row — a 256-shard scale
/// cluster would otherwise print hundreds of lines per command.
const SUMMARY_THRESHOLD: usize = 12;
/// How many rows the summarized listings keep.
const SUMMARY_TOP_K: usize = 8;

/// One interactive session over one launched cluster.
pub struct Shell {
    real: RealCluster,
    seed: u64,
    /// CN statements are routed through (`use cn <n>`).
    cn: usize,
    /// Cross-command fault memory (crashed primaries awaiting rejoin,
    /// downed migration endpoints) — same state the plan engine keeps.
    chaos: ChaosState,
    /// Set when a command failed in a way a script should report
    /// (unknown command, bad arguments, scenario violations).
    failed: bool,
}

/// The deployment every shell session operates: the canonical chaos
/// topology (Three-City, two CNs per region, quorum-sync replication,
/// two-phase RCP) — the same cluster the scenario runner torments.
pub fn default_config(seed: u64) -> ClusterConfig {
    gdb_chaos::ChaosConfig::quick(seed).cluster_config()
}

impl Shell {
    /// Launch a cluster on `backend` and attach a console to it.
    pub fn launch(seed: u64, backend: Backend) -> Self {
        Self::launch_on(default_config(seed), backend)
    }

    /// Attach a console to a custom deployment (e.g. the scale tier's
    /// big multi-region clusters).
    pub fn launch_on(config: ClusterConfig, backend: Backend) -> Self {
        let seed = config.seed;
        Shell {
            real: RealCluster::launch(config, backend),
            seed,
            cn: 0,
            chaos: ChaosState::default(),
            failed: false,
        }
    }

    pub fn cluster(&mut self) -> &mut Cluster {
        &mut self.real.cluster
    }

    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Tear the backend down and report what it physically carried,
    /// cross-checked against the sim's message plane.
    pub fn shutdown(&mut self) -> String {
        let verify = {
            let report = self.real.shutdown();
            let v = report.verify_against_plane(self.real.cluster.db.plane());
            (report.backend.label(), report.msgs, report.bytes, v)
        };
        let (label, msgs, bytes, v) = verify;
        match v {
            Ok(()) => format!("backend {label}: {msgs} msgs, {bytes} bytes, plane verified"),
            Err(e) => {
                self.failed = true;
                format!("backend {label}: VERIFY FAILED: {e}")
            }
        }
    }

    /// Execute one command line and return its output (no trailing
    /// newline guarantees; `run_script` normalizes).
    pub fn exec(&mut self, line: &str) -> String {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "help" => help(),
            "status" => self.status(),
            "nodes" => self.nodes(),
            "shards" => self.shards(),
            "lag" => self.lag(),
            "sql" => self.sql(rest),
            "use" => self.use_cn(rest),
            "run" => self.advance(rest),
            "migrate" => self.migrate(rest),
            "drain" => self.drain(rest),
            "join" => self.join(rest),
            "heal" => self.heal(),
            "fault" => self.fault(rest),
            "plan" => self.plan(rest),
            "metrics" => self.metrics(rest),
            "trace" => self.trace(rest),
            "bench" => self.bench(rest),
            "scenario" => self.scenario(rest),
            "" | "#" => String::new(),
            _ => self.fail(format!("unknown command {cmd:?} (try `help`)")),
        }
    }

    /// Run a batch script: every non-empty, non-comment line echoed as
    /// `gdb> <line>` followed by its output. Deterministic on sim.
    pub fn run_script(&mut self, text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push_str("gdb> ");
            out.push_str(line);
            out.push('\n');
            let res = self.exec(line);
            if !res.is_empty() {
                out.push_str(&res);
                if !res.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
        out
    }

    fn fail(&mut self, msg: String) -> String {
        self.failed = true;
        format!("error: {msg}")
    }

    fn status(&mut self) -> String {
        let backend = self.real.backend().label();
        let c = &self.real.cluster;
        let down = c.db.topo().down_nodes().len();
        format!(
            "backend {backend}, seed {}, t={}\n\
             cn {} of {}, routing epoch {}, {} shards, {} nodes ({down} down)\n\
             committed {}, aborted {}, migrations in flight: {}",
            self.seed,
            fmt_time(c.now()),
            self.cn,
            c.db.cns().len(),
            c.db.routing_epoch(),
            c.db.shards().len(),
            c.db.topo().node_count(),
            c.db.stats().committed,
            c.db.stats().aborted,
            c.db.migrating_shards().len(),
        )
    }

    fn nodes(&mut self) -> String {
        let c = &self.real.cluster;
        let topo = c.db.topo();
        let mut rows = Vec::new();
        for i in 0..topo.node_count() {
            let n = gdb_simnet::NetNodeId(i as u32);
            let kind = match topo.node_kind(n) {
                NodeKind::ComputeNode => "cn",
                NodeKind::DataNodePrimary => "dn-primary",
                NodeKind::DataNodeReplica => "dn-replica",
                NodeKind::GtmServer => "gtm",
                NodeKind::TimeDevice => "time-device",
                NodeKind::Client => "client",
            };
            let health = if topo.is_node_retired(n) {
                "retired"
            } else if topo.is_node_down(n) {
                "DOWN"
            } else {
                "up"
            };
            rows.push(format!(
                "n{i:<3} {kind:<11} r{} h{} {health}",
                topo.node_region(n).0,
                topo.node_host(n),
            ));
        }
        rows.join("\n")
    }

    fn shards(&mut self) -> String {
        // Above this many shards the full listing stops being an
        // operator tool and starts being a scroll; summarize instead.
        let summarize = self.real.cluster.db.shards().len() > SUMMARY_THRESHOLD;
        let snap = summarize.then(|| self.real.cluster.metrics_snapshot());
        let c = &self.real.cluster;
        let db = &c.db;
        let topo = db.topo();
        let mut out = Vec::new();
        let migrating = db.migrating_shards();
        let render = |s: usize, shard: &globaldb::Shard| -> String {
            let reps: Vec<String> = shard
                .replicas
                .iter()
                .map(|r| format!("n{}@r{}", r.node.0, topo.node_region(r.node).0))
                .collect();
            format!(
                "s{s}: primary n{}@r{}h{} epoch {} replicas [{}]{}",
                shard.primary.0,
                topo.node_region(shard.primary).0,
                topo.node_host(shard.primary),
                shard.owner_epoch,
                reps.join(", "),
                if migrating.contains(&s) {
                    " MIGRATING"
                } else {
                    ""
                },
            )
        };
        if let Some(snap) = snap {
            // Top-k by lifetime routed ops (the same counters rebalance
            // keys on), then an aggregate tail instead of every shard.
            let mut loads: Vec<(u64, usize)> = (0..db.shards().len())
                .map(|s| {
                    let ops = snap
                        .counter(&format!(
                            "{}.{s}",
                            globaldb::migrate::metrics::SHARD_OPS_PREFIX
                        ))
                        .unwrap_or(0);
                    (ops, s)
                })
                .collect();
            let total_ops: u64 = loads.iter().map(|&(ops, _)| ops).sum();
            loads.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            out.push(format!(
                "{} shards, {} total ops, {} migrating — top {} by ops:",
                db.shards().len(),
                total_ops,
                migrating.len(),
                SUMMARY_TOP_K.min(loads.len()),
            ));
            for &(ops, s) in loads.iter().take(SUMMARY_TOP_K) {
                out.push(format!("{} ops {ops}", render(s, &db.shards()[s])));
            }
            let hidden = db.shards().len().saturating_sub(SUMMARY_TOP_K);
            if hidden > 0 {
                out.push(format!("({hidden} more shards not shown)"));
            }
        } else {
            for (s, shard) in db.shards().iter().enumerate() {
                out.push(render(s, shard));
            }
        }
        let fmt_hosts = |hosts: &[(RegionId, u16)]| -> String {
            if hosts.is_empty() {
                "none".to_string()
            } else {
                hosts
                    .iter()
                    .map(|(r, h)| format!("r{}h{h}", r.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        out.push(format!(
            "routing epoch {}, draining: {}, retired: {}",
            db.routing_epoch(),
            fmt_hosts(db.draining_hosts()),
            fmt_hosts(db.retired_hosts()),
        ));
        out.join("\n")
    }

    /// Per-replica freshness: RCP lag and log-ship backlog, read off the
    /// same registry gauges the bench artifacts carry. Above the
    /// summarization threshold only the top-k laggiest replicas print,
    /// under an aggregate line.
    fn lag(&mut self) -> String {
        let snap = self.real.cluster.metrics_snapshot();
        let c = &self.real.cluster;
        let mut rows: Vec<(f64, u64, usize, usize, u32)> = Vec::new();
        for (s, shard) in c.db.shards().iter().enumerate() {
            for (r, rep) in shard.replicas.iter().enumerate() {
                let lag = snap
                    .gauge(&gdb_replication::metrics::replica_rcp_lag_gauge(s, r))
                    .unwrap_or(f64::NAN);
                let backlog = snap
                    .gauge(&gdb_replication::metrics::replica_backlog_gauge(s, r))
                    .unwrap_or(0.0) as u64;
                rows.push((lag, backlog, s, r, rep.node.0));
            }
        }
        let mut out = Vec::new();
        if c.db.shards().len() > SUMMARY_THRESHOLD {
            let total_backlog: u64 = rows.iter().map(|&(_, b, ..)| b).sum();
            let max_lag = rows.iter().map(|&(l, ..)| l).fold(0.0f64, f64::max);
            out.push(format!(
                "{} replicas over {} shards: max lag {:.3} ms, total backlog {} — top {} by lag:",
                rows.len(),
                c.db.shards().len(),
                max_lag / 1_000.0,
                total_backlog,
                SUMMARY_TOP_K.min(rows.len()),
            ));
            // Descending lag, shard/replica index as deterministic ties.
            rows.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)).then(a.3.cmp(&b.3)));
            rows.truncate(SUMMARY_TOP_K);
        }
        out.push("shard replica node   lag_ms  backlog".to_string());
        for (lag, backlog, s, r, node) in rows {
            out.push(format!(
                "s{s:<4} r{r:<6} n{node:<5} {:>7.3} {backlog:>8}",
                lag / 1_000.0,
            ));
        }
        out.join("\n")
    }

    fn sql(&mut self, stmt: &str) -> String {
        if stmt.is_empty() {
            return self.fail("usage: sql <statement>".into());
        }
        let cn = self.cn;
        let c = &mut self.real.cluster;
        let at = c.now();
        match c.execute_sql(cn, at, stmt, &[]) {
            Ok((out, o)) => render_sql(&out, &o),
            Err(e) => format!("error: {e:?}"),
        }
    }

    fn use_cn(&mut self, rest: &str) -> String {
        let Some(n) = rest
            .strip_prefix("cn")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        else {
            return self.fail("usage: use cn <n>".into());
        };
        if n >= self.real.cluster.db.cns().len() {
            return self.fail(format!(
                "cn {n} out of range (cluster has {})",
                self.real.cluster.db.cns().len()
            ));
        }
        self.cn = n;
        format!("routing through cn {n}")
    }

    fn advance(&mut self, rest: &str) -> String {
        let Some(d) = parse_duration(rest) else {
            return self.fail("usage: run <duration> (e.g. run 500ms)".into());
        };
        let c = &mut self.real.cluster;
        let to = c.now() + d;
        c.run_until(to);
        format!("advanced to t={}", fmt_time(c.now()))
    }

    fn migrate(&mut self, rest: &str) -> String {
        let args: Vec<&str> = rest.split_whitespace().collect();
        let parsed = match args.as_slice() {
            [s, r, h] => match (s.parse(), r.parse(), h.parse()) {
                (Ok(s), Ok(r), Ok(h)) => Some((s, r, h)),
                _ => None,
            },
            _ => None,
        };
        let Some((shard, region, host)) = parsed else {
            return self.fail("usage: migrate <shard> <region> <host>".into());
        };
        let _: u16 = host;
        match self
            .real
            .cluster
            .start_migration(shard, RegionId(region), host)
        {
            Ok(()) => format!("migration of s{shard} to r{}h{host} started", region),
            Err(e) => self.fail(format!("migrate: {e:?}")),
        }
    }

    fn drain(&mut self, rest: &str) -> String {
        let args: Vec<&str> = rest.split_whitespace().collect();
        let parsed = match args.as_slice() {
            [r, h] => match (r.parse(), h.parse()) {
                (Ok(r), Ok(h)) => Some((r, h)),
                _ => None,
            },
            _ => None,
        };
        let Some((region, host)) = parsed else {
            return self.fail("usage: drain <region> <host>".into());
        };
        let c = &mut self.real.cluster;
        let Cluster { db, sim, .. } = c;
        match gdb_rebalance::drain_host(db, sim, RegionId(region), host) {
            Ok(n) => format!("draining r{region}h{host}: {n} moves started"),
            Err(e) => self.fail(format!("drain: {e:?}")),
        }
    }

    fn join(&mut self, rest: &str) -> String {
        let args: Vec<&str> = rest.split_whitespace().collect();
        let parsed = match args.as_slice() {
            [r, h] => match (r.parse::<usize>(), h.parse::<u16>()) {
                (Ok(r), Ok(h)) => Some((r, h)),
                _ => None,
            },
            _ => None,
        };
        let Some((region, host)) = parsed else {
            return self.fail("usage: join <region> <host>".into());
        };
        self.apply_fault(gdb_chaos::Fault::AddNode { region, host })
    }

    fn heal(&mut self) -> String {
        let c = &mut self.real.cluster;
        let now = c.now();
        heal_all(&mut c.db, now);
        self.chaos = ChaosState::default();
        "all faults healed".to_string()
    }

    fn fault(&mut self, rest: &str) -> String {
        let mut words = rest.split_whitespace();
        let Some(kind) = words.next() else {
            return self.fail("usage: fault <kind> [key=value ...]".into());
        };
        let mut pairs = Vec::new();
        for w in words {
            let Some((k, v)) = w.split_once('=') else {
                return self.fail(format!("fault: expected key=value, got {w:?}"));
            };
            let value = match v.parse::<i64>() {
                Ok(n) => ConfValue::Int(n),
                Err(_) => ConfValue::Str(v.to_string()),
            };
            pairs.push((k.to_string(), value));
        }
        match scenario::fault_from_pairs(kind, &pairs) {
            Ok(f) => self.apply_fault(f),
            Err(e) => self.fail(e),
        }
    }

    fn apply_fault(&mut self, fault: gdb_chaos::Fault) -> String {
        let c = &mut self.real.cluster;
        let now = c.now();
        let Cluster { db, sim, .. } = c;
        fault.apply(db, sim, &mut self.chaos, now)
    }

    fn plan(&mut self, rest: &str) -> String {
        let Some(name) = rest
            .strip_prefix("run")
            .map(str::trim)
            .filter(|n| !n.is_empty())
        else {
            return self.fail(format!(
                "usage: plan run <name> (known: {})",
                canned::all()
                    .iter()
                    .map(|p| p.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        };
        let Some(plan) = canned::by_name(name) else {
            return self.fail(format!(
                "unknown plan {name:?} (try `plan run` for the list)"
            ));
        };
        let c = &mut self.real.cluster;
        let now = c.now();
        let plan = plan.shifted(SimDuration::from_nanos(now.as_nanos()));
        let end = plan.events.iter().map(|e| e.at).max().unwrap_or(now);
        let trace = new_trace();
        plan.schedule(c, trace.clone());
        c.run_until(end + SimDuration::from_millis(100));
        let mut lines = trace.borrow().lines();
        lines.push(format!("plan {name} done at t={}", fmt_time(c.now())));
        lines.join("\n")
    }

    fn metrics(&mut self, prefix: &str) -> String {
        let snap = self.real.cluster.metrics_snapshot();
        let mut out = Vec::new();
        for (name, m) in &snap.metrics {
            if !name.starts_with(prefix) {
                continue;
            }
            out.push(match m {
                Metric::Counter(v) => format!("{name} = {v}"),
                Metric::Gauge(v) => format!("{name} = {v:.3}"),
                Metric::Histogram(h) => format!(
                    "{name} = {{count {}, mean {}us, p50 {}us, p99 {}us}}",
                    h.count, h.mean_us, h.p50_us, h.p99_us
                ),
            });
        }
        if out.is_empty() {
            format!("no metrics match {prefix:?}")
        } else {
            out.join("\n")
        }
    }

    fn trace(&mut self, rest: &str) -> String {
        let mut words = rest.split_whitespace();
        match words.next() {
            Some("on") => {
                let cap = words.next().and_then(|v| v.parse().ok()).unwrap_or(65_536);
                self.real.cluster.db.obs_mut().tracer.enable(cap);
                format!("tracer on (capacity {cap} spans)")
            }
            Some("export") => {
                let Some(path) = words.next() else {
                    return self.fail("usage: trace export <path>".into());
                };
                let tracer = &self.real.cluster.db.obs().tracer;
                if !tracer.is_enabled() {
                    return self.fail("tracer is off (run `trace on` first)".into());
                }
                let spans = tracer.spans().len();
                let doc = to_chrome_trace(tracer);
                match std::fs::write(path, doc) {
                    Ok(()) => format!("wrote {path} ({spans} spans)"),
                    Err(e) => self.fail(format!("write {path}: {e}")),
                }
            }
            _ => self.fail("usage: trace on [capacity] | trace export <path>".into()),
        }
    }

    /// `bench tpcc [--json <path>]`: a tiny-scale TPC-C figure run on a
    /// *fresh* sim cluster with this session's seed (the live cluster is
    /// left untouched), emitting a `gdb-bench/v1` artifact on request.
    fn bench(&mut self, rest: &str) -> String {
        let args: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
        if args.first().map(String::as_str) != Some("tpcc") {
            return self.fail("usage: bench tpcc [--json <path>]".into());
        }
        let params = gdb_bench::BenchParams {
            scale: TpccScale::tiny(),
            scale_name: "tiny",
            run: RunConfig {
                terminals: 8,
                duration: SimDuration::from_secs(2),
                warmup: SimDuration::from_secs(1),
                think_time: SimDuration::from_millis(10),
            },
            seed: self.seed,
        };
        let (mut cluster, report) = gdb_bench::tpcc_run(
            default_config(self.seed),
            &params,
            TpccMix::standard(),
            |_| {},
        );
        let mut out = format!(
            "tpcc tiny: {:.1} txn/s, tpmC {:.1}, {} committed, {} aborted",
            report.throughput_per_sec(),
            report.tpmc(),
            report.total_commits(),
            report.total_aborts(),
        );
        if let Some(path) = gdb_obs::flag_value(&args, "--json") {
            let mut a = gdb_bench::artifact("shell-tpcc", &params);
            a.series
                .push(gdb_bench::series_from_run("tpcc", &mut cluster, &report));
            match std::fs::write(path, a.to_pretty()) {
                Ok(()) => out.push_str(&format!("\nwrote {path}")),
                Err(e) => return self.fail(format!("write {path}: {e}")),
            }
        }
        out
    }

    /// `scenario run <file>` / `scenario check <file>`: run (or just
    /// lint) a declarative scenario. The run deploys its own cluster —
    /// the live session cluster is untouched — and any oracle violation
    /// marks the session failed.
    fn scenario(&mut self, rest: &str) -> String {
        let mut words = rest.split_whitespace();
        let (verb, path) = (words.next(), words.next());
        let (Some(verb @ ("run" | "check")), Some(path)) = (verb, path) else {
            return self.fail("usage: scenario run|check <file.toml>".into());
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return self.fail(format!("read {path}: {e}")),
        };
        if verb == "check" {
            let errors = scenario::lint(&text);
            return if errors.is_empty() {
                format!("{path}: ok")
            } else {
                self.failed = true;
                errors
                    .iter()
                    .map(|e| format!("{path}: {e}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
        }
        match scenario::run_text(&text) {
            Ok(report) => {
                if !report.ok() {
                    self.failed = true;
                }
                report.render()
            }
            Err(errors) => self.fail(errors.join("\n")),
        }
    }
}

fn fmt_time(t: SimTime) -> String {
    format!("{:.6}s", t.as_micros() as f64 / 1e6)
}

fn render_sql(out: &ExecOutput, o: &TxnOutcome) -> String {
    let mut s = String::new();
    match out {
        ExecOutput::Rows(rows) => {
            for row in rows {
                let cells: Vec<String> = row.0.iter().map(Datum::to_string).collect();
                s.push_str(&format!("({})\n", cells.join(", ")));
            }
            s.push_str(&format!("{} row(s)\n", rows.len()));
        }
        ExecOutput::Count(n) => s.push_str(&format!("{n} row(s) affected\n")),
    }
    let commit = match o.commit_ts {
        Some(ts) => format!("commit@{}", ts.as_micros()),
        None => "read-only".to_string(),
    };
    s.push_str(&format!(
        "-- via {}, snapshot {}, {commit}, latency {}us",
        if o.used_replica { "replica" } else { "primary" },
        o.snapshot.as_micros(),
        o.latency.as_micros(),
    ));
    s
}

fn help() -> String {
    "\
commands:
  status                          backend, time, routing epoch, txn counters
  nodes                           every node: kind, region, host, up/DOWN/retired
  shards                          placement, owner epochs, drain/retire state
  lag                             per-replica RCP lag + log-ship backlog
  sql <stmt>                      run one statement (shows replica/primary,
                                  snapshot, commit ts, latency)
  use cn <n>                      route statements through CN n
  run <dur>                       advance virtual time (e.g. run 500ms)
  migrate <shard> <region> <host> start an online shard migration
  drain <region> <host>           drain a host (elastic scale-in)
  join <region> <host>            provision a spare data node (scale-out)
  fault <kind> [k=v ...]          inject one fault (kinds: see DESIGN.md)
  heal                            restore every outstanding fault
  plan run <name>                 run a canned fault plan from now
  metrics [prefix]                dump the metrics registry
  trace on [cap] | trace export <path>   span tracer control
  bench tpcc [--json <path>]      tiny TPC-C figure run on a fresh cluster
  scenario run|check <file.toml>  run or lint a declarative scenario
  help                            this text"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shards`/`lag` must compress to a top-k + aggregate view on big
    /// clusters: a 256-shard listing is unusable and the scale tier
    /// drives these commands from scripts.
    #[test]
    fn shards_and_lag_summarize_above_threshold() {
        let cfg = ClusterConfig::globaldb_scale(3, SUMMARY_THRESHOLD + 4).with_seed(11);
        let mut shell = Shell::launch_on(cfg, Backend::Sim);
        shell.exec("run 200ms");

        let shards = shell.exec("shards");
        assert!(
            shards.contains(&format!("top {SUMMARY_TOP_K} by ops:")),
            "missing aggregate header:\n{shards}"
        );
        assert!(
            shards.contains(&format!(
                "({} more shards not shown)",
                SUMMARY_THRESHOLD + 4 - SUMMARY_TOP_K
            )),
            "missing hidden-count tail:\n{shards}"
        );
        // top-k rows + header + tail + epoch line, not one row per shard.
        assert!(shards.lines().count() <= SUMMARY_TOP_K + 3);

        let lag = shell.exec("lag");
        assert!(lag.contains("max lag"), "missing lag aggregate:\n{lag}");
        assert!(lag.lines().count() <= SUMMARY_TOP_K + 2);
        assert!(!shell.failed());
    }

    /// Small clusters keep the exhaustive listing (the golden transcript
    /// pins the exact small-cluster bytes; this pins the branch choice).
    #[test]
    fn small_clusters_list_every_shard() {
        let mut shell = Shell::launch(7, Backend::Sim);
        let shards = shell.exec("shards");
        assert!(
            !shards.contains("not shown"),
            "summarized too early:\n{shards}"
        );
        let n = shell.cluster().db.shards().len();
        assert!(n <= SUMMARY_THRESHOLD);
        for s in 0..n {
            assert!(shards.contains(&format!("s{s}: primary")));
        }
    }
}
