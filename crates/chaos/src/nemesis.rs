//! The nemesis: a seeded random fault-schedule generator.
//!
//! Episodes are drawn one after another from a `SmallRng`; each pairs an
//! injection with its recovery, so the cluster keeps making progress over
//! a long run while every fault family still gets exercised. The schedule
//! is a pure function of its inputs — replaying a seed replays the exact
//! schedule.

use crate::fault::Fault;
use crate::plan::FaultPlan;
use globaldb::{ClusterConfig, Geometry, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generate a random, fully paired fault schedule over `duration` for a
/// cluster deployed from `cluster`. The family flags are those of
/// [`crate::PlanSource::Generated`]. No injection fires at or after
/// `duration`; recoveries may land slightly later (every episode
/// recovers).
pub fn generate(
    seed: u64,
    overlap: bool,
    migrations: bool,
    elastic: bool,
    cluster: &ClusterConfig,
    duration: SimDuration,
) -> FaultPlan {
    let (shards, replicas) = (cluster.shard_count, cluster.replicas_per_shard);
    let (cns, regions) = (cluster.cn_count, region_count(cluster));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new(format!("nemesis-{seed}"));
    let end = SimTime::ZERO + duration;
    let mut t = SimTime::ZERO;

    // Enabled families, indexed by the same u32 draw as ever: with only
    // `migrations` on, the list is `[0..=7]` and the draw is identical to
    // the historical `gen_range(0..8)`, so existing seeds replay their
    // exact schedules; `elastic` appends family 8.
    let mut families: Vec<u32> = (0..=6).collect();
    if migrations {
        families.push(7);
    }
    if elastic {
        families.push(8);
    }
    while t < end {
        let hold = SimDuration::from_millis(rng.gen_range(80u64..400));
        let kind = families[rng.gen_range(0u32..families.len() as u32) as usize];
        match kind {
            0 => {
                // Primary crash, recovered either in place (WAL catch-up)
                // or by failover + rejoin of the old primary.
                let shard = rng.gen_range(0..shards);
                plan = plan.at(t, Fault::CrashPrimary { shard });
                if replicas > 0 && rng.gen_bool(0.5) {
                    let replica = rng.gen_range(0..replicas);
                    plan = plan
                        .at(t + hold, Fault::PromoteReplica { shard, replica })
                        .at(t + hold + hold, Fault::RejoinOldPrimary { shard });
                } else {
                    plan = plan.at(t + hold, Fault::RestartPrimary { shard });
                }
            }
            1 => {
                let shard = rng.gen_range(0..shards);
                let replica = rng.gen_range(0..replicas.max(1));
                plan = plan
                    .at(t, Fault::CrashReplica { shard, replica })
                    .at(t + hold, Fault::RestartReplica { shard, replica });
            }
            7 => {
                // Online shard migration as a chaos event. Half the
                // episodes crash the freshly provisioned target mid-copy
                // (abort-and-rollback to the source) and restore the
                // orphan by the end of the hold; the rest race the
                // migration against the surrounding faults to cutover.
                let shard = rng.gen_range(0..shards);
                let to_region = rng.gen_range(0..regions);
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
                let add_region = rng.gen_range(0..regions);
                let add_host = 3 + rng.gen_range(0..2u16);
                let drain_region = rng.gen_range(0..regions);
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
            family => {
                let (inject, recover) = paired(&mut rng, family, cns, regions);
                plan = plan.at(t, inject).at(t + hold, recover);
            }
        }
        if overlap && rng.gen_bool(0.4) {
            // A second fault inside the main episode's hold window, so two
            // faults are outstanding at once: it injects at a quarter of
            // the hold and recovers at three quarters, its whole lifetime
            // nested strictly inside the main fault's outage — the heal
            // ordering the lifecycle layer has to get right. The family
            // matching the main episode is excluded, so an overlay never
            // recovers the main fault early.
            let mut overlays: Vec<u32> = vec![2, 3, 5, 6];
            if regions > 1 {
                overlays.push(4);
            }
            overlays.retain(|&f| f != kind);
            let family = overlays[rng.gen_range(0..overlays.len())];
            let quarter = SimDuration::from_nanos(hold.as_nanos() / 4);
            let (inject, recover) = paired(&mut rng, family, cns, regions);
            plan = plan
                .at(t + quarter, inject)
                .at(t + quarter + quarter + quarter, recover);
        }
        // Quiet gap before the next episode.
        t = t + hold + SimDuration::from_millis(rng.gen_range(100u64..400));
    }
    plan
}

/// The injection and recovery of one episode of families 2–6: GTM
/// crash, CN crash, region partition, delay spike, clock-sync outage. A
/// partition needs two regions; on one, family 4 is a clock-sync outage.
fn paired(rng: &mut SmallRng, family: u32, cns: usize, regions: usize) -> (Fault, Fault) {
    match family {
        2 => (Fault::CrashGtm, Fault::RestartGtm),
        3 => {
            let cn = rng.gen_range(0..cns);
            (Fault::CrashCn { cn }, Fault::RestartCn { cn })
        }
        4 if regions > 1 => {
            let a = rng.gen_range(0..regions);
            let mut b = rng.gen_range(0..regions);
            if b == a {
                b = (a + 1) % regions;
            }
            (
                Fault::PartitionRegions { a, b },
                Fault::HealRegions { a, b },
            )
        }
        5 => {
            let extra = SimDuration::from_micros(rng.gen_range(500u64..8_000));
            (Fault::DelaySpike { extra }, Fault::ClearDelay)
        }
        _ => {
            let cn = rng.gen_range(0..cns);
            (Fault::ClockSyncOutage { cn }, Fault::ClockSyncResume { cn })
        }
    }
}

fn region_count(cluster: &ClusterConfig) -> usize {
    match cluster.geometry {
        Geometry::OneRegion { .. } => 1,
        Geometry::ThreeCity { .. } => 3,
        Geometry::MultiRegion { regions, .. } => regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    /// A schedule over `secs` seconds for the Three-City chaos cluster (6
    /// shards of 2 replicas, 6 CNs, 3 regions), drawing the families
    /// `[overlap, migrations, elastic]` enable.
    fn gen(seed: u64, [overlap, migrations, elastic]: [bool; 3], secs: u64) -> FaultPlan {
        let cluster = Scenario::quick(seed).cluster;
        let duration = SimDuration::from_secs(secs);
        generate(seed, overlap, migrations, elastic, &cluster, duration)
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = gen(7, [false; 3], 5);
        let b = gen(7, [false; 3], 5);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(1, [false; 3], 5);
        let b = gen(2, [false; 3], 5);
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
        let plain = gen(9, [false; 3], 5);
        assert!(
            !has_concurrent_injections(&plain),
            "without the flag every episode recovers before the next injects"
        );
        let overlapped = gen(9, [true, false, false], 5);
        assert!(
            has_concurrent_injections(&overlapped),
            "overlap flag produced no concurrent episodes"
        );
        assert!(overlapped.events.len() > plain.events.len());
        // Still deterministic.
        assert_eq!(overlapped.events, gen(9, [true, false, false], 5).events);
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
            for f in concurrent_faults(&gen(seed, [true, false, false], 5)) {
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
        let plain = gen(13, [false; 3], 10);
        assert!(
            !plain
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::StartMigration { .. })),
            "default schedules must not start migrations"
        );
        let with = gen(13, [false, true, false], 10);
        assert!(
            with.events
                .iter()
                .any(|e| matches!(e.fault, Fault::StartMigration { .. })),
            "migration flag drew no migration episode over 10s"
        );
        // Still deterministic with the extra family.
        assert_eq!(with.events, gen(13, [false, true, false], 10).events);
    }

    #[test]
    fn elastic_family_is_gated_by_the_flag() {
        let plain = gen(13, [false, true, false], 10);
        assert!(
            !plain
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::AddNode { .. } | Fault::RemoveNode { .. })),
            "schedules without the flag must not touch membership"
        );
        let with = gen(13, [false, true, true], 10);
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
        assert_eq!(with.events, gen(13, [false, true, true], 10).events);
    }

    #[test]
    fn every_injection_is_paired_with_recovery() {
        let plan = gen(11, [false; 3], 10);
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
