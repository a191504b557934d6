//! The declarative scenario DSL: one file describing topology, workload
//! mix, nemesis schedule, and rebalancer settings, runnable as a single
//! oracle-checked chaos run.
//!
//! A scenario is the operator-facing unit of reproduction: instead of
//! wiring `ClusterConfig` + `ChaosConfig` + a `FaultPlan` + rebalancer
//! ticks in Rust, a DBA (or CI) commits a TOML-subset file and replays
//! it with `gdb-shell scenario run <file>`. Same file + same seed ⇒
//! bit-identical trace, like every other seeded run in this repo.
//!
//! ```toml
//! [scenario]
//! name = "migrate-under-fire"
//! seed = 1
//!
//! [topology]
//! geometry = "three-city"        # or "one-region"
//! cns = 6
//! replication = "sync-remote-quorum"
//! quorum = 1
//!
//! [workload]
//! terminals = 8
//! warmup = "500ms"
//! duration = "3s"
//! grace = "2s"
//!
//! [nemesis]
//! plan = "migrate-under-fire"    # canned plan, or "generated"
//!
//! [rebalancer]
//! auto = true
//! interval = "500ms"
//!
//! [[fault]]                      # inline plan (instead of [nemesis] plan)
//! at = "300ms"
//! kind = "crash-primary"
//! shard = 0
//! ```
//!
//! Validation is strict: unknown tables, unknown keys, dangling plan
//! names, and unknown fault kinds are all errors, reported with line
//! numbers (the shell's `committed_scenarios_lint_clean` test lints every
//! committed scenario file with the same code path).

use crate::fault::Fault;
use crate::plan::{canned, FaultPlan};
use crate::runner::{nemesis_plan, run_plan_prepped, ChaosConfig, ChaosReport};
use gdb_obs::{ConfDoc, ConfTable, ConfValue};
use gdb_rebalance::RebalanceController;
use globaldb::{ClusterConfig, ReplicationMode, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Where a scenario's fault schedule comes from.
#[derive(Debug, Clone)]
pub enum PlanSource {
    /// A canned plan by name ([`canned::by_name`]).
    Canned(String),
    /// The seeded nemesis generator (`plan = "generated"`), with the
    /// episode families the `[nemesis]` flags set in the scenario's
    /// [`ChaosConfig`].
    Generated,
    /// Inline `[[fault]]` events (offsets from the end of warmup).
    Inline(FaultPlan),
}

/// A fully validated scenario, ready to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    /// The chaos knobs (seed, warmup/duration/grace, terminals,
    /// replication mode) the file resolved to.
    pub cfg: ChaosConfig,
    pub geometry: GeometryKind,
    pub cns: Option<usize>,
    pub shards: Option<usize>,
    pub replicas: Option<usize>,
    pub plan: PlanSource,
    /// `Some(interval)` when `[rebalancer] auto = true`: the controller
    /// ticks at this period for the whole fault window.
    pub rebalance_every: Option<SimDuration>,
}

/// Which preset topology the `[topology] geometry` key selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryKind {
    ThreeCity,
    OneRegion,
}

impl Scenario {
    /// The cluster config this scenario deploys: the canonical chaos
    /// shape for its geometry, with the file's overrides applied.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cc = match self.geometry {
            GeometryKind::ThreeCity => self.cfg.cluster_config(),
            GeometryKind::OneRegion => {
                let mut c = ClusterConfig::globaldb_one_region().with_seed(self.cfg.cluster_seed);
                c.cn_count = 6;
                c.replication = self.cfg.replication;
                c.rcp_two_phase = true;
                c
            }
        };
        if let Some(n) = self.cns {
            cc.cn_count = n;
        }
        if let Some(n) = self.shards {
            cc.shard_count = n;
        }
        if let Some(n) = self.replicas {
            cc.replicas_per_shard = n;
        }
        cc
    }
}

/// Every fault kind the DSL (and the shell's `fault` command) accepts,
/// with the argument keys each takes. The kebab-case names match the
/// trace lines [`Fault::apply`] emits.
pub const FAULT_KINDS: &[(&str, &[&str])] = &[
    ("crash-primary", &["shard"]),
    ("restart-primary", &["shard"]),
    ("promote-replica", &["shard", "replica"]),
    ("rejoin-old-primary", &["shard"]),
    ("crash-replica", &["shard", "replica"]),
    ("restart-replica", &["shard", "replica"]),
    ("crash-gtm", &[]),
    ("restart-gtm", &[]),
    ("crash-cn", &["cn"]),
    ("restart-cn", &["cn"]),
    ("partition-regions", &["a", "b"]),
    ("heal-regions", &["a", "b"]),
    ("delay-spike", &["extra"]),
    ("clear-delay", &[]),
    ("clock-sync-outage", &["cn"]),
    ("clock-sync-resume", &["cn"]),
    ("start-migration", &["shard", "to-region", "to-host"]),
    ("crash-migration-target", &[]),
    ("restore-migration-target", &[]),
    ("crash-migration-source", &[]),
    ("restore-migration-source", &[]),
    ("add-node", &["region", "host"]),
    ("remove-node", &["region", "host"]),
];

/// Build a [`Fault`] from a kind name plus `key = value` arguments —
/// shared by `[[fault]]` tables and the shell's `fault` command. Unknown
/// kinds, unknown keys, missing keys, and mistyped values are errors.
pub fn fault_from_pairs(kind: &str, pairs: &[(String, ConfValue)]) -> Result<Fault, String> {
    let allowed = FAULT_KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, args)| *args)
        .ok_or_else(|| {
            format!(
                "unknown fault kind {kind:?} (known: {})",
                FAULT_KINDS
                    .iter()
                    .map(|(k, _)| *k)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("fault {kind:?}: unknown argument {k:?}"));
        }
    }
    let int = |key: &str| -> Result<usize, String> {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("fault {kind:?}: missing argument {key:?}"))?
            .1
            .as_int()
            .filter(|v| *v >= 0)
            .map(|v| v as usize)
            .ok_or_else(|| format!("fault {kind:?}: argument {key:?} must be a non-negative int"))
    };
    let host = |key: &str| -> Result<u16, String> {
        let v = int(key)?;
        u16::try_from(v)
            .map_err(|_| format!("fault {kind:?}: argument {key:?} = {v} must be at most 65535"))
    };
    let duration = |key: &str| -> Result<SimDuration, String> {
        let v = &pairs
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("fault {kind:?}: missing argument {key:?}"))?
            .1;
        // A bare int is seconds; both forms go through `parse_duration`,
        // which rejects a count that overflows the nanosecond clock.
        match v {
            ConfValue::Str(s) => gdb_obs::parse_duration(s),
            ConfValue::Int(n) => gdb_obs::parse_duration(&n.to_string()),
            _ => None,
        }
        .ok_or_else(|| format!("fault {kind:?}: argument {key:?} must be a duration"))
    };
    Ok(match kind {
        "crash-primary" => Fault::CrashPrimary {
            shard: int("shard")?,
        },
        "restart-primary" => Fault::RestartPrimary {
            shard: int("shard")?,
        },
        "promote-replica" => Fault::PromoteReplica {
            shard: int("shard")?,
            replica: int("replica")?,
        },
        "rejoin-old-primary" => Fault::RejoinOldPrimary {
            shard: int("shard")?,
        },
        "crash-replica" => Fault::CrashReplica {
            shard: int("shard")?,
            replica: int("replica")?,
        },
        "restart-replica" => Fault::RestartReplica {
            shard: int("shard")?,
            replica: int("replica")?,
        },
        "crash-gtm" => Fault::CrashGtm,
        "restart-gtm" => Fault::RestartGtm,
        "crash-cn" => Fault::CrashCn { cn: int("cn")? },
        "restart-cn" => Fault::RestartCn { cn: int("cn")? },
        "partition-regions" => Fault::PartitionRegions {
            a: int("a")?,
            b: int("b")?,
        },
        "heal-regions" => Fault::HealRegions {
            a: int("a")?,
            b: int("b")?,
        },
        "delay-spike" => Fault::DelaySpike {
            extra: duration("extra")?,
        },
        "clear-delay" => Fault::ClearDelay,
        "clock-sync-outage" => Fault::ClockSyncOutage { cn: int("cn")? },
        "clock-sync-resume" => Fault::ClockSyncResume { cn: int("cn")? },
        "start-migration" => Fault::StartMigration {
            shard: int("shard")?,
            to_region: int("to-region")?,
            to_host: host("to-host")?,
        },
        "crash-migration-target" => Fault::CrashMigrationTarget,
        "restore-migration-target" => Fault::RestoreMigrationTarget,
        "crash-migration-source" => Fault::CrashMigrationSource,
        "restore-migration-source" => Fault::RestoreMigrationSource,
        "add-node" => Fault::AddNode {
            region: int("region")?,
            host: host("host")?,
        },
        "remove-node" => Fault::RemoveNode {
            region: int("region")?,
            host: host("host")?,
        },
        _ => unreachable!("kind validated above"),
    })
}

/// The most shards a scenario may deploy: the scale tier's 256.
const MAX_SHARDS: i64 = 256;

/// Accumulates all validation errors instead of stopping at the first,
/// so a lint pass reports the whole file at once.
struct Check {
    errors: Vec<String>,
}

impl Check {
    fn known_keys(&mut self, t: &ConfTable, allowed: &[&str]) {
        for (k, _, line) in &t.entries {
            if !allowed.contains(&k.as_str()) {
                self.errors.push(format!(
                    "line {line}: unknown key {k:?} in [{}] (allowed: {})",
                    t.name,
                    allowed.join(", ")
                ));
            }
        }
    }
}

/// Parse + validate a scenario document. All problems are returned at
/// once; `Ok` means the scenario is structurally sound and every name it
/// mentions resolves.
pub fn load(text: &str) -> Result<Scenario, Vec<String>> {
    let doc = ConfDoc::parse(text).map_err(|e| vec![e])?;
    let mut ck = Check { errors: Vec::new() };

    for t in &doc.tables {
        match (t.name.as_str(), t.array) {
            ("scenario" | "topology" | "workload" | "nemesis" | "rebalancer", false) => {}
            ("fault", true) => {}
            ("fault", false) => ck
                .errors
                .push(format!("line {}: use [[fault]], not [fault]", t.line)),
            (other, _) => ck.errors.push(format!(
                "line {}: unknown table [{other}] (known: scenario, topology, workload, \
                 nemesis, rebalancer, [[fault]])",
                t.line
            )),
        }
    }

    // [scenario]
    let mut name = String::new();
    let mut seed = 1u64;
    match doc.table("scenario") {
        Some(t) => {
            ck.known_keys(t, &["name", "seed"]);
            match t.str_of("name") {
                Some(n) => name = n.to_string(),
                None => ck
                    .errors
                    .push(format!("line {}: [scenario] needs a string `name`", t.line)),
            }
            if let Some(v) = t.get("seed") {
                match v.as_int().filter(|s| *s >= 0) {
                    Some(s) => seed = s as u64,
                    None => ck
                        .errors
                        .push("[scenario] seed must be a non-negative int".into()),
                }
            }
        }
        None => ck.errors.push("missing [scenario] table".into()),
    }

    let mut cfg = ChaosConfig::quick(seed);

    // [topology]
    let mut geometry = GeometryKind::ThreeCity;
    let mut cns = None;
    let mut shards = None;
    let mut replicas = None;
    let mut quorum_line = None;
    if let Some(t) = doc.table("topology") {
        ck.known_keys(
            t,
            &[
                "geometry",
                "cns",
                "shards",
                "replicas",
                "replication",
                "quorum",
            ],
        );
        match t.str_of("geometry") {
            Some("three-city") | None => {}
            Some("one-region") => geometry = GeometryKind::OneRegion,
            Some(g) => ck.errors.push(format!(
                "[topology] geometry {g:?} (known: three-city, one-region)"
            )),
        }
        let line_of = |key: &str| t.entries.iter().find(|e| e.0 == key).map(|e| e.2);
        // A count the cluster can deploy, or an error naming its line.
        let mut count = |key: &str, lo: i64, hi: Option<i64>| {
            let v = t.int_of(key)?;
            if v >= lo && hi.is_none_or(|hi| v <= hi) {
                return Some(v as usize);
            }
            let bound = hi.map_or(format!("at least {lo}"), |hi| format!("{lo}..={hi}"));
            let line = line_of(key).unwrap_or(t.line);
            ck.errors.push(format!(
                "line {line}: [topology] {key} = {v} must be {bound}"
            ));
            None
        };
        cns = count("cns", 1, None);
        shards = count("shards", 1, Some(MAX_SHARDS));
        replicas = count("replicas", 0, None);
        quorum_line = line_of("quorum").or(line_of("replicas"));
        let quorum = t.int_of("quorum").unwrap_or(1).max(0) as usize;
        match t.str_of("replication") {
            Some("async") => cfg.replication = ReplicationMode::Async,
            Some("sync-local-quorum") => cfg.replication = ReplicationMode::SyncLocalQuorum,
            Some("sync-remote-quorum") | None => {
                cfg.replication = ReplicationMode::SyncRemoteQuorum { quorum }
            }
            Some(m) => ck.errors.push(format!(
                "[topology] replication {m:?} (known: async, sync-local-quorum, \
                 sync-remote-quorum)"
            )),
        }
    }

    // [workload]
    if let Some(t) = doc.table("workload") {
        ck.known_keys(t, &["terminals", "warmup", "duration", "grace"]);
        if let Some(n) = t.int_of("terminals") {
            cfg.terminals = n.max(1) as usize;
        }
        let dur = |key: &str, errors: &mut Vec<String>| -> Option<SimDuration> {
            t.get(key)?;
            let d = t.duration_of(key);
            if d.is_none() {
                errors.push(format!("[workload] {key} must be a duration"));
            }
            d
        };
        if let Some(d) = dur("warmup", &mut ck.errors) {
            cfg.warmup = d;
        }
        if let Some(d) = dur("duration", &mut ck.errors) {
            cfg.duration = d;
        }
        if let Some(d) = dur("grace", &mut ck.errors) {
            cfg.grace = d;
        }
    }

    // [nemesis] and/or [[fault]]
    let mut plan: Option<PlanSource> = None;
    if let Some(t) = doc.table("nemesis") {
        ck.known_keys(t, &["plan", "overlap", "migrations", "elastic"]);
        cfg.overlap = t.bool_of("overlap").unwrap_or(false);
        cfg.migrations = t.bool_of("migrations").unwrap_or(false);
        cfg.elastic = t.bool_of("elastic").unwrap_or(false);
        match t.str_of("plan") {
            Some("generated") => plan = Some(PlanSource::Generated),
            Some(p) => {
                if canned::by_name(p).is_some() {
                    plan = Some(PlanSource::Canned(p.to_string()));
                } else {
                    ck.errors.push(format!(
                        "[nemesis] unknown plan {p:?} (known: generated, {})",
                        canned::all()
                            .iter()
                            .map(|pl| pl.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
            None => ck
                .errors
                .push(format!("line {}: [nemesis] needs a `plan`", t.line)),
        }
    }
    let fault_tables: Vec<&ConfTable> = doc.tables_named("fault").collect();
    if !fault_tables.is_empty() {
        if plan.is_some() {
            ck.errors
                .push("give either [nemesis] plan or [[fault]] events, not both".into());
        }
        let mut inline = FaultPlan::new(if name.is_empty() {
            "inline".to_string()
        } else {
            name.clone()
        });
        for t in &fault_tables {
            let mut pairs: Vec<(String, ConfValue)> = Vec::new();
            let mut at = None;
            let mut kind = None;
            for (k, v, line) in &t.entries {
                match k.as_str() {
                    "at" => match t.duration_of("at") {
                        Some(d) => at = Some(d),
                        None => ck
                            .errors
                            .push(format!("line {line}: [[fault]] at must be a duration")),
                    },
                    "kind" => match v.as_str() {
                        Some(s) => kind = Some(s.to_string()),
                        None => ck
                            .errors
                            .push(format!("line {line}: [[fault]] kind must be a string")),
                    },
                    _ => pairs.push((k.clone(), v.clone())),
                }
            }
            let (Some(at), Some(kind)) = (at, kind) else {
                ck.errors
                    .push(format!("line {}: [[fault]] needs `at` and `kind`", t.line));
                continue;
            };
            match fault_from_pairs(&kind, &pairs) {
                Ok(f) => inline = inline.at(SimTime::ZERO + at, f),
                Err(e) => ck.errors.push(format!("line {}: {e}", t.line)),
            }
        }
        plan = Some(PlanSource::Inline(inline));
    }
    let Some(plan) = plan else {
        ck.errors
            .push("scenario has no fault schedule: give [nemesis] plan or [[fault]] events".into());
        return Err(ck.errors);
    };

    // [rebalancer]
    let mut rebalance_every = None;
    if let Some(t) = doc.table("rebalancer") {
        ck.known_keys(t, &["auto", "interval"]);
        if t.bool_of("auto").unwrap_or(false) {
            match t.duration_of("interval") {
                Some(d) if d > SimDuration::ZERO => rebalance_every = Some(d),
                _ => ck
                    .errors
                    .push("[rebalancer] auto = true needs a positive `interval`".into()),
            }
        }
    }

    let scn = Scenario {
        name,
        cfg,
        geometry,
        cns,
        shards,
        replicas,
        plan,
        rebalance_every,
    };
    // A sync commit waits for its quorum of replica acks: with fewer
    // replicas than that, no commit could ever succeed.
    let acks = match cfg.replication {
        ReplicationMode::Async => 0,
        ReplicationMode::SyncLocalQuorum => 1,
        ReplicationMode::SyncRemoteQuorum { quorum } => quorum,
    };
    let have = scn.cluster_config().replicas_per_shard;
    if acks > have {
        let line = quorum_line.map_or(String::new(), |l| format!("line {l}: "));
        ck.errors.push(format!(
            "{line}[topology] replication waits for {acks} replica ack(s) \
             but a shard has {have} replica(s)"
        ));
    }

    if !ck.errors.is_empty() {
        return Err(ck.errors);
    }
    Ok(scn)
}

/// Lint a scenario file: every validation error, or empty when clean.
pub fn lint(text: &str) -> Vec<String> {
    match load(text) {
        Ok(_) => Vec::new(),
        Err(errors) => errors,
    }
}

/// Run a loaded scenario: resolve its plan, deploy its topology, arm
/// the auto-rebalancer if asked, and torment it under the standard
/// oracle. The report's plan name is the scenario name.
pub fn run_scenario(scn: &Scenario) -> ChaosReport {
    let cfg = scn.cfg;
    let plan = match &scn.plan {
        PlanSource::Canned(name) => canned::by_name(name).expect("validated plan name"),
        PlanSource::Inline(plan) => plan.clone(),
        PlanSource::Generated => nemesis_plan(cfg.cluster_seed, &cfg, &scn.cluster_config()),
    };
    let every = scn.rebalance_every;
    let horizon = cfg.warmup + cfg.duration;
    let mut report = run_plan_prepped(plan, &cfg, scn.cluster_config(), move |cluster| {
        let Some(every) = every else { return };
        let ctrl = Rc::new(RefCell::new(RebalanceController::new()));
        let end = cluster.now() + horizon;
        let mut at = cluster.now() + every;
        while at <= end {
            let ctrl = Rc::clone(&ctrl);
            cluster.sim.schedule_at(at, move |w, sim| {
                ctrl.borrow_mut().tick_at(w, sim);
            });
            at += every;
        }
    });
    if !scn.name.is_empty() {
        report.plan_name = scn.name.clone();
    }
    report
}

/// Load + run in one step; parse errors become report-less `Err`.
pub fn run_text(text: &str) -> Result<ChaosReport, Vec<String>> {
    Ok(run_scenario(&load(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
[scenario]
name = "smoke"
seed = 3

[topology]
replication = "sync-remote-quorum"
quorum = 1

[workload]
terminals = 4
warmup = "200ms"
duration = "600ms"
grace = "500ms"

[[fault]]
at = "100ms"
kind = "crash-primary"
shard = 0

[[fault]]
at = "300ms"
kind = "restart-primary"
shard = 0
"#;

    #[test]
    fn loads_inline_scenario() {
        let scn = load(GOOD).unwrap();
        assert_eq!(scn.name, "smoke");
        assert_eq!(scn.cfg.terminals, 4);
        assert_eq!(scn.cfg.warmup, SimDuration::from_millis(200));
        let PlanSource::Inline(plan) = &scn.plan else {
            panic!("expected inline plan");
        };
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].fault, Fault::CrashPrimary { shard: 0 });
    }

    #[test]
    fn rejects_unknown_names() {
        let errs = lint("[scenario]\nname = \"x\"\n[nemesis]\nplan = \"no-such-plan\"\n");
        assert!(errs.iter().any(|e| e.contains("unknown plan")), "{errs:?}");
        let errs =
            lint("[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"crash-primaries\"\n");
        assert!(
            errs.iter().any(|e| e.contains("unknown fault kind")),
            "{errs:?}"
        );
        let errs = lint(
            "[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"crash-primary\"\nshards = 0\n",
        );
        assert!(
            errs.iter().any(|e| e.contains("unknown argument")),
            "{errs:?}"
        );
        let errs =
            lint("[scenario]\nname = \"x\"\n[typo]\nk = 1\n[nemesis]\nplan = \"generated\"\n");
        assert!(errs.iter().any(|e| e.contains("unknown table")), "{errs:?}");
    }

    /// Counts the cluster cannot deploy are errors at the key's line; each
    /// used to pass the lint and then panic, or exhaust memory, on run.
    #[test]
    fn rejects_topologies_the_cluster_cannot_deploy() {
        for (topology, line, needle) in [
            ("cns = 0", 4, "cns = 0 must be at least 1"),
            ("cns = -1", 4, "cns = -1 must be at least 1"),
            ("shards = 0", 4, "shards = 0 must be 1..=256"),
            ("shards = 70000", 4, "shards = 70000 must be 1..=256"),
            ("replicas = -1", 4, "replicas = -1 must be at least 0"),
            ("replicas = 1\nquorum = 2", 5, "waits for 2 replica ack(s)"),
            ("replicas = 0", 4, "waits for 1 replica ack(s)"),
            (
                "replicas = 0\nreplication = \"sync-local-quorum\"",
                4,
                "but a shard has 0 replica(s)",
            ),
        ] {
            let text = format!(
                "[scenario]\nname = \"x\"\n[topology]\n{topology}\n[nemesis]\nplan = \"generated\"\n"
            );
            let errs = lint(&text);
            let want = format!("line {line}: ");
            assert!(
                errs.iter()
                    .any(|e| e.starts_with(&want) && e.contains(needle)),
                "{topology:?}: {errs:?}"
            );
        }
        // At the bounds, and async with no replicas, the file is fine.
        let text = "[scenario]\nname = \"x\"\n[topology]\ncns = 1\nshards = 256\n\
                    replicas = 0\nreplication = \"async\"\n[nemesis]\nplan = \"generated\"\n";
        assert_eq!(lint(text), Vec::<String>::new());
    }

    /// A host id past `u16` is an error naming the argument; it used to
    /// wrap silently (65 536 targeted host 0).
    #[test]
    fn host_ids_past_u16_are_rejected() {
        for (kind, args, key) in [
            ("add-node", "region = 0\nhost = 65536", "host"),
            ("remove-node", "region = 0\nhost = 70000", "host"),
            (
                "start-migration",
                "shard = 0\nto-region = 1\nto-host = 65536",
                "to-host",
            ),
        ] {
            let text = format!(
                "[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"{kind}\"\n{args}\n"
            );
            let errs = lint(&text);
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("{key:?}")) && e.contains("at most 65535")),
                "{kind}: {errs:?}"
            );
        }
        let text = "[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"add-node\"\n\
                    region = 0\nhost = 65535\n";
        let scn = load(text).unwrap();
        let PlanSource::Inline(plan) = &scn.plan else {
            panic!("expected inline plan");
        };
        assert_eq!(
            plan.events[0].fault,
            Fault::AddNode {
                region: 0,
                host: 65535
            }
        );
    }

    /// Found by `tests/scenario_props.rs`: a bare-int `extra` past the
    /// 64-bit nanosecond clock overflowed converting to a duration (a
    /// panic in debug builds, a wrapped short spike in release).
    #[test]
    fn delay_spike_past_the_clock_is_rejected() {
        for extra in ["9223372036854775807", "18446744074", "-1"] {
            let text = format!(
                "[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"delay-spike\"\n\
                 extra = {extra}\n"
            );
            let errs = lint(&text);
            assert!(
                errs.iter()
                    .any(|e| e.contains("\"extra\" must be a duration")),
                "{extra}: {errs:?}"
            );
        }
        let text = "[scenario]\nname = \"x\"\n[[fault]]\nat = \"1s\"\nkind = \"delay-spike\"\n\
                    extra = 18446744073\n";
        assert_eq!(lint(text), Vec::<String>::new());
    }

    #[test]
    fn canned_plans_resolve() {
        let text = "[scenario]\nname = \"x\"\n[nemesis]\nplan = \"migrate-under-fire\"\n";
        let scn = load(text).unwrap();
        assert!(
            matches!(&scn.plan, PlanSource::Canned(p) if p == "migrate-under-fire"),
            "{:?}",
            scn.plan
        );
    }

    /// `[[fault]]` entries naming a shard, CN or region the cluster does
    /// not have are skipped in the trace (they used to index out of
    /// bounds inside the scheduled fault event) and the run stays green.
    #[test]
    fn out_of_range_fault_targets_are_skipped() {
        let faults = [
            ("crash-primary", "shard = 99", "no shard 99"),
            ("crash-cn", "cn = 99", "no cn 99"),
            ("partition-regions", "a = 0\nb = 9", "no region 9"),
        ];
        let mut text = GOOD.to_string();
        for (kind, args, _) in faults {
            text += &format!("\n[[fault]]\nat = \"200ms\"\nkind = \"{kind}\"\n{args}\n");
        }
        let report = run_text(&text).unwrap();
        assert!(report.ok(), "{}", report.render());
        for (kind, _, missing) in faults {
            let line = format!("skip {kind}: {missing}");
            assert!(
                report.trace.iter().any(|l| l.contains(&line)),
                "missing {line:?}:\n{}",
                report.render()
            );
        }
    }

    /// A crashed primary nobody replaced still is the shard's primary:
    /// rejoining it as a replica is skipped (it used to be admitted — the
    /// primary then shipped to, and served replica reads as, itself).
    #[test]
    fn rejoin_of_an_unreplaced_primary_is_skipped() {
        // Between GOOD's crash-primary (100ms) and restart-primary (300ms).
        let text = format!(
            "{GOOD}\n[[fault]]\nat = \"200ms\"\nkind = \"rejoin-old-primary\"\nshard = 0\n"
        );
        let report = run_text(&text).unwrap();
        assert!(report.ok(), "{}", report.render());
        let rejoins: Vec<&String> = report
            .trace
            .iter()
            .filter(|l| l.contains("rejoin"))
            .collect();
        assert_eq!(rejoins.len(), 1, "{}", report.render());
        assert!(
            rejoins[0].contains("skip rejoin shard=0: ")
                && rejoins[0].contains("already hosts shard 0"),
            "{}",
            rejoins[0]
        );
    }

    #[test]
    fn tiny_inline_scenario_runs_oracle_green() {
        let report = run_text(GOOD).unwrap();
        assert_eq!(report.plan_name, "smoke");
        assert!(report.ok(), "{}", report.render());
        assert!(report.txns_committed > 0);
    }
}
