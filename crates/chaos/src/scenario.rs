//! The declarative scenario DSL: one file describing topology, workload
//! mix, nemesis schedule, and rebalancer settings, runnable as a single
//! oracle-checked chaos run.
//!
//! A [`Scenario`] is the one description of a chaos run — the `nemesis`
//! binary builds one from its flags, a test from [`Scenario::quick`] —
//! and the operator-facing unit of reproduction: a DBA (or CI) commits a
//! TOML-subset file and replays it with `gdb-shell scenario run <file>`.
//! Same file + same seed ⇒ bit-identical trace, like every other seeded
//! run in this repo.
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
//! Validation is strict: unknown tables, unknown keys, mistyped or
//! out-of-range values, family flags beside a canned plan, dangling plan
//! names, and unknown fault kinds are all errors, reported with line
//! numbers (the shell's `committed_scenarios_lint_clean` test lints every
//! committed scenario file with the same code path).

use crate::fault::Fault;
use crate::plan::{canned, FaultPlan};
use gdb_obs::{ConfDoc, ConfTable, ConfValue};
use globaldb::{ClusterConfig, ReplicationMode, SimDuration, SimTime};

/// Where a scenario's fault schedule comes from.
#[derive(Debug, Clone)]
pub enum PlanSource {
    /// A canned plan by name ([`canned::by_name`]).
    Canned(String),
    /// The seeded nemesis generator (`plan = "generated"`) with the
    /// episode families it may draw beyond the base seven; each is off by
    /// default so existing seeds replay their exact historical schedules.
    Generated {
        /// Overlay a second concurrent fault on about 40 % of the
        /// episodes, drawn from any family other than the main one's
        /// (GTM crash and region partition included) and nested inside
        /// the main fault's outage.
        overlap: bool,
        /// Online shard migrations mid-traffic, half of which crash (then
        /// restore) the migration target mid-copy.
        migrations: bool,
        /// Elastic membership: provision a spare data node, then drain an
        /// original host onto the survivors, half the time crashing (then
        /// restoring) a drain-move source mid-flight.
        elastic: bool,
    },
    /// Inline `[[fault]]` events (offsets from the end of warmup).
    Inline(FaultPlan),
}

/// One chaos run, fully described: the `nemesis` binary, `gdb-shell`
/// and the tests all build one, and [`crate::runner::run`] runs it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Names the report; empty means the fault plan's own name.
    pub name: String,
    /// Seeds the cluster and the nemesis generator; the TPC-C workload
    /// draws from `seed ^ 0xc4a0_5bad`.
    pub seed: u64,
    /// The deployment under torment. Synchronous replication gets the
    /// strict durability oracle; `Async` the bounded-loss check (a
    /// failover may lose at most the shipping-window tail).
    pub cluster: ClusterConfig,
    pub terminals: usize,
    /// Fault-free lead-in before the plan starts.
    pub warmup: SimDuration,
    /// The fault window (plan offsets land inside it).
    pub duration: SimDuration,
    /// Idle recovery time between heal-all and the final checks.
    pub grace: SimDuration,
    pub plan: PlanSource,
    /// `Some(interval)`: the auto-rebalancer ticks at this period through
    /// warmup and the fault window.
    pub rebalance_every: Option<SimDuration>,
}

impl Scenario {
    /// A short seeded-nemesis run on the Three-City chaos cluster, sized
    /// for the integration suite.
    pub fn quick(seed: u64) -> Self {
        Scenario {
            name: String::new(),
            seed,
            cluster: chaos_cluster(ClusterConfig::globaldb_three_city(), seed),
            terminals: 8,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            grace: SimDuration::from_secs(2),
            plan: PlanSource::Generated {
                overlap: false,
                migrations: false,
                elastic: false,
            },
            rebalance_every: None,
        }
    }
}

/// The cluster every chaos run torments: `base`'s geometry with six CNs
/// (two per Three-City region, so collector leadership can fail over),
/// quorum-synchronous replication (so every fault leaves acknowledged
/// writes recoverable and errors retryable), and two-phase RCP rounds
/// (so a collector crash can land mid-round).
fn chaos_cluster(base: ClusterConfig, seed: u64) -> ClusterConfig {
    let mut c = base.with_seed(seed);
    c.cn_count = 6;
    c.replication = ReplicationMode::SyncRemoteQuorum { quorum: 1 };
    c.rcp_two_phase = true;
    c
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

/// The most TPC-C terminals a scenario may drive; the driver keeps one
/// pending event per terminal.
const MAX_TERMINALS: i64 = 1024;

/// The `[nemesis]` keys only a generated plan reads.
const FAMILY_FLAGS: [&str; 3] = ["overlap", "migrations", "elastic"];

/// Accumulates all validation errors instead of stopping at the first,
/// so a lint pass reports the whole file at once. Each typed read is an
/// error at the key's line when the value has the wrong type or is out
/// of range — never a silent default.
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

    /// `key`'s value and line, if `t` sets it.
    fn entry<'t>(t: &'t ConfTable, key: &str) -> Option<(&'t ConfValue, usize)> {
        t.entries.iter().find(|e| e.0 == key).map(|e| (&e.1, e.2))
    }

    /// `key`'s value as `read` takes it, or an error at its line saying
    /// what it must be. `None` when `t` does not set `key`.
    fn typed<'t, T>(
        &mut self,
        t: &'t ConfTable,
        key: &str,
        must_be: &str,
        read: impl FnOnce(&'t ConfValue) -> Option<T>,
    ) -> Option<T> {
        let (v, line) = Self::entry(t, key)?;
        let out = read(v);
        if out.is_none() {
            self.errors
                .push(format!("line {line}: [{}] {key} must be {must_be}", t.name));
        }
        out
    }

    /// An int in `lo..=hi` (`hi = None`: no upper bound).
    fn int(&mut self, t: &ConfTable, key: &str, lo: i64, hi: Option<i64>) -> Option<i64> {
        let n = self.typed(t, key, "an int", ConfValue::as_int)?;
        if n >= lo && hi.is_none_or(|hi| n <= hi) {
            return Some(n);
        }
        let bound = hi.map_or(format!("at least {lo}"), |hi| format!("{lo}..={hi}"));
        let (_, line) = Self::entry(t, key)?;
        self.errors.push(format!(
            "line {line}: [{}] {key} = {n} must be {bound}",
            t.name
        ));
        None
    }

    fn boolean(&mut self, t: &ConfTable, key: &str) -> Option<bool> {
        self.typed(t, key, "true or false", ConfValue::as_bool)
    }

    fn string<'t>(&mut self, t: &'t ConfTable, key: &str) -> Option<&'t str> {
        self.typed(t, key, "a string", ConfValue::as_str)
    }

    fn duration(&mut self, t: &ConfTable, key: &str) -> Option<SimDuration> {
        self.typed(t, key, "a duration", |_| t.duration_of(key))
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
            if let Some(s) = ck.int(t, "seed", 0, None) {
                seed = s as u64;
            }
        }
        None => ck.errors.push("missing [scenario] table".into()),
    }
    let mut scn = Scenario {
        name,
        ..Scenario::quick(seed)
    };

    // [topology]: overrides of the chaos cluster preset.
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
        match ck.string(t, "geometry") {
            Some("three-city") | None => {}
            Some("one-region") => {
                scn.cluster = chaos_cluster(ClusterConfig::globaldb_one_region(), seed)
            }
            Some(g) => ck.errors.push(format!(
                "[topology] geometry {g:?} (known: three-city, one-region)"
            )),
        }
        let cc = &mut scn.cluster;
        if let Some(n) = ck.int(t, "cns", 1, None) {
            cc.cn_count = n as usize;
        }
        if let Some(n) = ck.int(t, "shards", 1, Some(MAX_SHARDS)) {
            cc.shard_count = n as usize;
        }
        if let Some(n) = ck.int(t, "replicas", 0, None) {
            cc.replicas_per_shard = n as usize;
        }
        let line_of = |key: &str| Check::entry(t, key).map(|(_, line)| line);
        quorum_line = line_of("quorum").or(line_of("replicas"));
        let quorum = ck.int(t, "quorum", 0, None).unwrap_or(1) as usize;
        match ck.string(t, "replication") {
            Some("async") => cc.replication = ReplicationMode::Async,
            Some("sync-local-quorum") => cc.replication = ReplicationMode::SyncLocalQuorum,
            Some("sync-remote-quorum") | None => {
                cc.replication = ReplicationMode::SyncRemoteQuorum { quorum }
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
        if let Some(n) = ck.int(t, "terminals", 1, Some(MAX_TERMINALS)) {
            scn.terminals = n as usize;
        }
        if let Some(d) = ck.duration(t, "warmup") {
            scn.warmup = d;
        }
        if let Some(d) = ck.duration(t, "duration") {
            scn.duration = d;
        }
        if let Some(d) = ck.duration(t, "grace") {
            scn.grace = d;
        }
    }

    // [nemesis] and/or [[fault]]
    let mut plan: Option<PlanSource> = None;
    if let Some(t) = doc.table("nemesis") {
        ck.known_keys(t, &["plan", "overlap", "migrations", "elastic"]);
        let [overlap, migrations, elastic] =
            FAMILY_FLAGS.map(|flag| ck.boolean(t, flag).unwrap_or(false));
        match ck.string(t, "plan") {
            Some("generated") => {
                plan = Some(PlanSource::Generated {
                    overlap,
                    migrations,
                    elastic,
                })
            }
            Some(p) if canned::by_name(p).is_some() => {
                for (k, _, line) in &t.entries {
                    if FAMILY_FLAGS.contains(&k.as_str()) {
                        ck.errors.push(format!(
                            "line {line}: [nemesis] {k} applies only to plan = \"generated\""
                        ));
                    }
                }
                plan = Some(PlanSource::Canned(p.to_string()));
            }
            Some(p) => ck.errors.push(format!(
                "[nemesis] unknown plan {p:?} (known: generated, {})",
                canned::all()
                    .iter()
                    .map(|pl| pl.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
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
        let mut inline = FaultPlan::new(if scn.name.is_empty() {
            "inline".to_string()
        } else {
            scn.name.clone()
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
    scn.plan = plan;

    // [rebalancer]
    if let Some(t) = doc.table("rebalancer") {
        ck.known_keys(t, &["auto", "interval"]);
        let interval = ck.duration(t, "interval");
        if ck.boolean(t, "auto") == Some(true) {
            match interval {
                Some(d) if d > SimDuration::ZERO => scn.rebalance_every = Some(d),
                _ => ck
                    .errors
                    .push("[rebalancer] auto = true needs a positive `interval`".into()),
            }
        }
    }

    // A sync commit waits for its quorum of replica acks: with fewer
    // replicas than that, no commit could ever succeed.
    let acks = match scn.cluster.replication {
        ReplicationMode::Async => 0,
        ReplicationMode::SyncLocalQuorum => 1,
        ReplicationMode::SyncRemoteQuorum { quorum } => quorum,
    };
    let have = scn.cluster.replicas_per_shard;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

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
        assert_eq!(scn.terminals, 4);
        assert_eq!(scn.warmup, SimDuration::from_millis(200));
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

    /// A mistyped or out-of-range value is an error at its line; each of
    /// these used to lint clean and run with a default or a wrapped value
    /// (`quorum = -3` ran with quorum 0; 10^11 terminals built a driver
    /// heap of that size).
    #[test]
    fn mistyped_and_out_of_range_values_are_errors_at_their_line() {
        for (table, entry, needle) in [
            ("topology", "cns = \"6\"", "[topology] cns must be an int"),
            (
                "topology",
                "quorum = -3",
                "[topology] quorum = -3 must be at least 0",
            ),
            (
                "topology",
                "quorum = \"two\"",
                "[topology] quorum must be an int",
            ),
            (
                "workload",
                "terminals = 100000000000",
                "[workload] terminals = 100000000000 must be 1..=1024",
            ),
            (
                "workload",
                "terminals = -5",
                "[workload] terminals = -5 must be 1..=1024",
            ),
            (
                "workload",
                "terminals = \"8\"",
                "[workload] terminals must be an int",
            ),
            (
                "rebalancer",
                "auto = \"true\"",
                "[rebalancer] auto must be true or false",
            ),
        ] {
            let text = format!(
                "[scenario]\nname = \"x\"\n[nemesis]\nplan = \"generated\"\n[{table}]\n{entry}\n"
            );
            let errs = lint(&text);
            assert!(
                errs.iter().any(|e| e == &format!("line 6: {needle}")),
                "{entry:?}: {errs:?}"
            );
        }
    }

    /// The family flags steer only the seeded generator; beside a canned
    /// plan they used to be dropped without a word.
    #[test]
    fn family_flags_with_a_canned_plan_are_errors() {
        for flag in FAMILY_FLAGS {
            let text = format!(
                "[scenario]\nname = \"x\"\n[nemesis]\nplan = \"primary-failover\"\n{flag} = true\n"
            );
            assert_eq!(
                lint(&text),
                vec![format!(
                    "line 5: [nemesis] {flag} applies only to plan = \"generated\""
                )]
            );
        }
        let text = "[scenario]\nname = \"x\"\n[nemesis]\nplan = \"generated\"\noverlap = true\n";
        let scn = load(text).unwrap();
        assert!(matches!(
            scn.plan,
            PlanSource::Generated {
                overlap: true,
                migrations: false,
                elastic: false
            }
        ));
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
        let report = run(&load(&text).unwrap());
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
        let report = run(&load(&text).unwrap());
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
        let report = run(&load(GOOD).unwrap());
        assert_eq!(report.plan_name, "smoke");
        assert!(report.ok(), "{}", report.render());
        assert!(report.txns_committed > 0);
    }
}
