//! The nemesis: a seeded random fault-schedule generator.
//!
//! Episodes are drawn one after another from a `SmallRng`; each pairs an
//! injection with its recovery, so the cluster keeps making progress over
//! a long run while every fault family still gets exercised. The schedule
//! is a pure function of `(seed, shape, config)` — replaying a seed
//! replays the exact schedule.

use crate::fault::Fault;
use crate::plan::FaultPlan;
use globaldb::{Cluster, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What the generator needs to know about the cluster it will torment.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    pub shards: usize,
    pub replicas_per_shard: usize,
    pub cns: usize,
    pub regions: usize,
}

impl ClusterShape {
    pub fn of(cluster: &Cluster) -> Self {
        ClusterShape {
            shards: cluster.db.shards().len(),
            replicas_per_shard: cluster
                .db
                .shards()
                .first()
                .map(|s| s.replicas.len())
                .unwrap_or(0),
            cns: cluster.db.cns().len(),
            regions: cluster.db.regions().len(),
        }
    }
}

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct NemesisConfig {
    pub seed: u64,
    /// First injection fires here.
    pub start: SimTime,
    /// No injection fires at or after `start + duration`; recoveries may
    /// land slightly later (every episode recovers).
    pub duration: SimDuration,
    /// Overlay a second concurrent fault on some episodes (~40% of
    /// them), drawn from any family other than the main episode's —
    /// including the heavy ones (GTM crash, region partition) — with
    /// the overlay's whole lifetime nested inside the main fault's
    /// outage. Off by default: one fault at a time.
    pub overlap: bool,
    /// Include the online-migration family: episodes that start a shard
    /// migration mid-traffic, half of which crash (then restore) the
    /// migration target mid-copy. Off by default so existing seeds keep
    /// replaying their exact historical schedules.
    pub migrations: bool,
    /// Include the elastic-membership family: episodes that provision a
    /// spare data node and then drain one of the original hosts onto the
    /// survivors mid-traffic, half of them crashing (then restoring) a
    /// drain-move source mid-flight. Off by default, same reason.
    pub elastic: bool,
}

impl NemesisConfig {
    pub fn new(seed: u64, start: SimTime, duration: SimDuration) -> Self {
        NemesisConfig {
            seed,
            start,
            duration,
            overlap: false,
            migrations: false,
            elastic: false,
        }
    }
}

/// Generate a random, fully paired fault schedule.
pub fn generate(cfg: &NemesisConfig, shape: &ClusterShape) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut plan = FaultPlan::new(format!("nemesis-{}", cfg.seed));
    let end = cfg.start + cfg.duration;
    let mut t = cfg.start;

    // Enabled families, indexed by the same u32 draw as ever: with only
    // `migrations` on, the list is `[0..=7]` and the draw is identical to
    // the historical `gen_range(0..8)`, so existing seeds replay their
    // exact schedules; `elastic` appends family 8.
    let mut families: Vec<u32> = (0..=6).collect();
    if cfg.migrations {
        families.push(7);
    }
    if cfg.elastic {
        families.push(8);
    }
    while t < end {
        let hold = SimDuration::from_millis(rng.gen_range(80u64..400));
        let kind = families[rng.gen_range(0u32..families.len() as u32) as usize];
        match kind {
            0 => {
                // Primary crash, recovered either in place (WAL catch-up)
                // or by failover + rejoin of the old primary.
                let shard = rng.gen_range(0..shape.shards);
                plan = plan.at(t, Fault::CrashPrimary { shard });
                if shape.replicas_per_shard > 0 && rng.gen_bool(0.5) {
                    let replica = rng.gen_range(0..shape.replicas_per_shard);
                    plan = plan
                        .at(t + hold, Fault::PromoteReplica { shard, replica })
                        .at(t + hold + hold, Fault::RejoinOldPrimary { shard });
                } else {
                    plan = plan.at(t + hold, Fault::RestartPrimary { shard });
                }
            }
            1 => {
                let shard = rng.gen_range(0..shape.shards);
                let replica = rng.gen_range(0..shape.replicas_per_shard.max(1));
                plan = plan
                    .at(t, Fault::CrashReplica { shard, replica })
                    .at(t + hold, Fault::RestartReplica { shard, replica });
            }
            2 => {
                plan = plan.at(t, Fault::CrashGtm).at(t + hold, Fault::RestartGtm);
            }
            3 => {
                let cn = rng.gen_range(0..shape.cns);
                plan = plan
                    .at(t, Fault::CrashCn { cn })
                    .at(t + hold, Fault::RestartCn { cn });
            }
            4 if shape.regions > 1 => {
                let a = rng.gen_range(0..shape.regions);
                let mut b = rng.gen_range(0..shape.regions);
                if b == a {
                    b = (a + 1) % shape.regions;
                }
                plan = plan
                    .at(t, Fault::PartitionRegions { a, b })
                    .at(t + hold, Fault::HealRegions { a, b });
            }
            5 => {
                let extra = SimDuration::from_micros(rng.gen_range(500u64..8_000));
                plan = plan
                    .at(t, Fault::DelaySpike { extra })
                    .at(t + hold, Fault::ClearDelay);
            }
            7 => {
                // Online shard migration as a chaos event. Half the
                // episodes crash the freshly provisioned target mid-copy
                // (abort-and-rollback to the source) and restore the
                // orphan by the end of the hold; the rest race the
                // migration against the surrounding faults to cutover.
                let shard = rng.gen_range(0..shape.shards);
                let to_region = rng.gen_range(0..shape.regions);
                let to_host = rng.gen_range(0..3u16);
                plan = plan.at(
                    t,
                    Fault::StartMigration {
                        shard,
                        to_region,
                        to_host,
                    },
                );
                if rng.gen_bool(0.5) {
                    let half = SimDuration::from_nanos(hold.as_nanos() / 2);
                    plan = plan
                        .at(t + half, Fault::CrashMigrationTarget)
                        .at(t + hold, Fault::RestoreMigrationTarget);
                }
            }
            8 => {
                // Elastic membership mid-traffic: provision a spare node
                // off the initial footprint, then drain one original host
                // onto the survivors. Half the episodes crash a drain-move
                // source mid-flight (the member aborts, the host stays
                // draining) and restore it by the end of the hold.
                let add_region = rng.gen_range(0..shape.regions);
                let add_host = 3 + rng.gen_range(0..2u16);
                let drain_region = rng.gen_range(0..shape.regions);
                plan = plan.at(
                    t,
                    Fault::AddNode {
                        region: add_region,
                        host: add_host,
                    },
                );
                let quarter = SimDuration::from_nanos(hold.as_nanos() / 4);
                plan = plan.at(
                    t + quarter,
                    Fault::RemoveNode {
                        region: drain_region,
                        host: drain_region as u16,
                    },
                );
                if rng.gen_bool(0.5) {
                    plan = plan
                        .at(t + quarter + quarter, Fault::CrashMigrationSource)
                        .at(t + hold, Fault::RestoreMigrationSource);
                }
            }
            _ => {
                let cn = rng.gen_range(0..shape.cns);
                plan = plan
                    .at(t, Fault::ClockSyncOutage { cn })
                    .at(t + hold, Fault::ClockSyncResume { cn });
            }
        }
        if cfg.overlap && rng.gen_bool(0.4) {
            plan = overlay_episode(&mut rng, plan, shape, kind, t, hold);
        }
        // Quiet gap before the next episode.
        t = t + hold + SimDuration::from_millis(rng.gen_range(100u64..400));
    }
    plan
}

/// Overlay a second fault inside the main episode's hold window, so two
/// faults are outstanding at once. The overlay injects at a quarter of
/// the hold and recovers at three quarters, so its whole lifetime nests
/// strictly inside the main fault's outage — the heal ordering the
/// lifecycle layer has to get right. Eligible families are the light
/// ones (CN crash, delay spike, clock-sync outage) plus the heavy ones
/// (GTM crash, region partition) whose interleaved heals
/// `lifecycle.rs` now sequences; the family matching the main episode
/// is excluded so an overlay never recovers the main fault early.
fn overlay_episode(
    rng: &mut SmallRng,
    plan: FaultPlan,
    shape: &ClusterShape,
    main_kind: u32,
    t: SimTime,
    hold: SimDuration,
) -> FaultPlan {
    let quarter = SimDuration::from_nanos(hold.as_nanos() / 4);
    let from = t + quarter;
    let until = t + quarter + quarter + quarter;
    let mut families: Vec<u32> = vec![2, 3, 5, 6];
    if shape.regions > 1 {
        families.push(4);
    }
    families.retain(|&f| f != main_kind);
    let family = families[rng.gen_range(0..families.len())];
    match family {
        2 => plan.at(from, Fault::CrashGtm).at(until, Fault::RestartGtm),
        3 => {
            let cn = rng.gen_range(0..shape.cns);
            plan.at(from, Fault::CrashCn { cn })
                .at(until, Fault::RestartCn { cn })
        }
        4 => {
            let a = rng.gen_range(0..shape.regions);
            let mut b = rng.gen_range(0..shape.regions);
            if b == a {
                b = (a + 1) % shape.regions;
            }
            plan.at(from, Fault::PartitionRegions { a, b })
                .at(until, Fault::HealRegions { a, b })
        }
        5 => {
            let extra = SimDuration::from_micros(rng.gen_range(500u64..8_000));
            plan.at(from, Fault::DelaySpike { extra })
                .at(until, Fault::ClearDelay)
        }
        _ => {
            let cn = rng.gen_range(0..shape.cns);
            plan.at(from, Fault::ClockSyncOutage { cn })
                .at(until, Fault::ClockSyncResume { cn })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ClusterShape {
        ClusterShape {
            shards: 6,
            replicas_per_shard: 2,
            cns: 6,
            regions: 3,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = NemesisConfig::new(7, SimTime::from_millis(500), SimDuration::from_secs(5));
        let a = generate(&cfg, &shape());
        let b = generate(&cfg, &shape());
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let s = shape();
        let a = generate(
            &NemesisConfig::new(1, SimTime::from_millis(500), SimDuration::from_secs(5)),
            &s,
        );
        let b = generate(
            &NemesisConfig::new(2, SimTime::from_millis(500), SimDuration::from_secs(5)),
            &s,
        );
        assert_ne!(a.events, b.events);
    }

    /// Two injections back-to-back in time order with no recovery between
    /// them means two faults were outstanding at once.
    fn has_concurrent_injections(plan: &FaultPlan) -> bool {
        let mut evs = plan.events.clone();
        evs.sort_by_key(|e| e.at);
        let mut prev_was_injection = false;
        for e in &evs {
            if e.fault.is_injection() {
                if prev_was_injection {
                    return true;
                }
                prev_was_injection = true;
            } else {
                prev_was_injection = false;
            }
        }
        false
    }

    #[test]
    fn overlap_flag_overlays_concurrent_episodes() {
        let base = NemesisConfig::new(9, SimTime::from_millis(500), SimDuration::from_secs(5));
        let plain = generate(&base, &shape());
        assert!(
            !has_concurrent_injections(&plain),
            "without the flag every episode recovers before the next injects"
        );
        let overlap = NemesisConfig {
            overlap: true,
            ..base
        };
        let overlapped = generate(&overlap, &shape());
        assert!(
            has_concurrent_injections(&overlapped),
            "overlap flag produced no concurrent episodes"
        );
        assert!(overlapped.events.len() > plain.events.len());
        // Still deterministic.
        assert_eq!(overlapped.events, generate(&overlap, &shape()).events);
    }

    /// The faults injected while another injection is still outstanding
    /// (i.e. the overlays), in time order.
    fn concurrent_faults(plan: &FaultPlan) -> Vec<Fault> {
        let mut evs = plan.events.clone();
        evs.sort_by_key(|e| e.at);
        let mut out = Vec::new();
        let mut prev_was_injection = false;
        for e in &evs {
            if e.fault.is_injection() {
                if prev_was_injection {
                    out.push(e.fault.clone());
                }
                prev_was_injection = true;
            } else {
                prev_was_injection = false;
            }
        }
        out
    }

    #[test]
    fn overlap_mode_overlays_heavy_fault_families() {
        let mut gtm = 0usize;
        let mut partition = 0usize;
        for seed in 1..=20 {
            let cfg = NemesisConfig {
                overlap: true,
                ..NemesisConfig::new(seed, SimTime::from_millis(500), SimDuration::from_secs(5))
            };
            for f in concurrent_faults(&generate(&cfg, &shape())) {
                match f {
                    Fault::CrashGtm => gtm += 1,
                    Fault::PartitionRegions { .. } => partition += 1,
                    _ => {}
                }
            }
        }
        assert!(gtm > 0, "no overlay ever crashed the GTM");
        assert!(partition > 0, "no overlay ever partitioned regions");
    }

    #[test]
    fn migration_family_is_gated_by_the_flag() {
        let cfg = NemesisConfig::new(13, SimTime::from_millis(500), SimDuration::from_secs(10));
        let plain = generate(&cfg, &shape());
        let migrations = NemesisConfig {
            migrations: true,
            ..cfg
        };
        assert!(
            !plain
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::StartMigration { .. })),
            "default schedules must not start migrations"
        );
        let with = generate(&migrations, &shape());
        assert!(
            with.events
                .iter()
                .any(|e| matches!(e.fault, Fault::StartMigration { .. })),
            "migration flag drew no migration episode over 10s"
        );
        // Still deterministic with the extra family.
        assert_eq!(with.events, generate(&migrations, &shape()).events);
    }

    #[test]
    fn elastic_family_is_gated_by_the_flag() {
        let cfg = NemesisConfig {
            migrations: true,
            ..NemesisConfig::new(13, SimTime::from_millis(500), SimDuration::from_secs(10))
        };
        let plain = generate(&cfg, &shape());
        let elastic = NemesisConfig {
            elastic: true,
            ..cfg
        };
        assert!(
            !plain
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::AddNode { .. } | Fault::RemoveNode { .. })),
            "schedules without the flag must not touch membership"
        );
        let with = generate(&elastic, &shape());
        assert!(
            with.events
                .iter()
                .any(|e| matches!(e.fault, Fault::AddNode { .. })),
            "elastic flag drew no add-node episode over 10s"
        );
        assert!(
            with.events
                .iter()
                .any(|e| matches!(e.fault, Fault::RemoveNode { .. })),
            "elastic flag drew no remove-node episode over 10s"
        );
        // Still deterministic with the extra family.
        assert_eq!(with.events, generate(&elastic, &shape()).events);
    }

    #[test]
    fn every_injection_is_paired_with_recovery() {
        let cfg = NemesisConfig::new(11, SimTime::from_millis(500), SimDuration::from_secs(10));
        let plan = generate(&cfg, &shape());
        let injections = plan
            .events
            .iter()
            .filter(|e| e.fault.is_injection())
            .count();
        let recoveries = plan.events.len() - injections;
        // Failover episodes emit two recovery events (promote + rejoin),
        // so recoveries >= injections.
        assert!(recoveries >= injections, "{recoveries} < {injections}");
    }
}
