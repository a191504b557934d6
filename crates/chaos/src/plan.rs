//! Declarative fault plans and their scheduling onto the event engine.

use crate::fault::{ChaosState, Fault};
use crate::trace::TraceHandle;
use globaldb::{Cluster, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One fault at one instant of virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub fault: Fault,
}

/// A named, ordered fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub name: String,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Append a fault at `at`.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// Schedule every fault of the plan as a first-class simulation event
    /// on `cluster`, recording each application into `trace`.
    pub fn schedule(&self, cluster: &mut Cluster, trace: TraceHandle) {
        let state = Rc::new(RefCell::new(ChaosState::default()));
        for ev in &self.events {
            let fault = ev.fault.clone();
            let trace = Rc::clone(&trace);
            let state = Rc::clone(&state);
            cluster.sim.schedule_at(ev.at, move |w, sim| {
                let now = sim.now();
                let line = fault.apply(w, sim, &mut state.borrow_mut(), now);
                trace.borrow_mut().record(now, line);
            });
        }
    }
}

/// Canned plans used by the integration suite and the `nemesis` binary.
/// All times are offsets the runner shifts past warmup.
pub mod canned {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Primary failover drill: crash a primary mid-traffic, promote a
    /// replica, re-admit the old primary as a replica, and separately
    /// crash + restart another primary in place (WAL catch-up).
    pub fn primary_failover() -> FaultPlan {
        FaultPlan::new("primary-failover")
            .at(t(300), Fault::CrashPrimary { shard: 0 })
            .at(
                t(600),
                Fault::PromoteReplica {
                    shard: 0,
                    replica: 0,
                },
            )
            .at(t(1000), Fault::RejoinOldPrimary { shard: 0 })
            .at(t(1400), Fault::CrashPrimary { shard: 1 })
            .at(t(1800), Fault::RestartPrimary { shard: 1 })
    }

    /// Network chaos: a region partition that heals, a `tc`-style delay
    /// spike, and a clock-sync outage riding on top.
    pub fn partition_and_delay() -> FaultPlan {
        FaultPlan::new("partition-and-delay")
            .at(t(300), Fault::PartitionRegions { a: 0, b: 1 })
            .at(t(800), Fault::HealRegions { a: 0, b: 1 })
            .at(
                t(1000),
                Fault::DelaySpike {
                    extra: SimDuration::from_millis(5),
                },
            )
            .at(t(1500), Fault::ClearDelay)
            .at(t(1700), Fault::ClockSyncOutage { cn: 1 })
            .at(t(2300), Fault::ClockSyncResume { cn: 1 })
    }

    /// Control-plane chaos: GTM crash/failover, a collector-CN crash and
    /// restart, and a replica crash with WAL catch-up restart.
    pub fn gtm_and_collector() -> FaultPlan {
        FaultPlan::new("gtm-and-collector")
            .at(t(300), Fault::CrashGtm)
            .at(t(700), Fault::RestartGtm)
            .at(t(900), Fault::CrashCn { cn: 0 })
            .at(t(1400), Fault::RestartCn { cn: 0 })
            .at(
                t(1600),
                Fault::CrashReplica {
                    shard: 2,
                    replica: 0,
                },
            )
            .at(
                t(2100),
                Fault::RestartReplica {
                    shard: 2,
                    replica: 0,
                },
            )
    }

    /// Overlapping faults: a region partition, a delay spike, and a CN
    /// crash all outstanding at once, then a clock-sync outage spanning a
    /// replica crash — the concurrent-failure windows the nemesis
    /// generator's `overlap` flag produces, in canned form.
    pub fn overlapping_faults() -> FaultPlan {
        FaultPlan::new("overlapping-faults")
            .at(t(300), Fault::PartitionRegions { a: 0, b: 1 })
            .at(
                t(450),
                Fault::DelaySpike {
                    extra: SimDuration::from_millis(2),
                },
            )
            .at(t(600), Fault::CrashCn { cn: 1 })
            .at(t(900), Fault::HealRegions { a: 0, b: 1 })
            .at(t(1000), Fault::ClearDelay)
            .at(t(1100), Fault::RestartCn { cn: 1 })
            .at(t(1300), Fault::ClockSyncOutage { cn: 2 })
            .at(
                t(1500),
                Fault::CrashReplica {
                    shard: 0,
                    replica: 0,
                },
            )
            .at(t(1900), Fault::ClockSyncResume { cn: 2 })
            .at(
                t(2100),
                Fault::RestartReplica {
                    shard: 0,
                    replica: 0,
                },
            )
    }

    /// Heavy overlap: the fault families that used to be kept apart —
    /// a primary crash, a GTM crash, and a region partition — all
    /// outstanding at once, with the heals interleaved (partition heals
    /// between GTM restart and failover in the first wave; GTM restarts
    /// *after* the partition heals in the second). Exercises the
    /// lifecycle layer's interleaved-heal ordering.
    pub fn heavy_overlap() -> FaultPlan {
        FaultPlan::new("heavy-overlap")
            .at(t(300), Fault::CrashPrimary { shard: 0 })
            .at(t(400), Fault::PartitionRegions { a: 1, b: 2 })
            .at(t(500), Fault::CrashGtm)
            .at(t(800), Fault::RestartGtm)
            .at(t(1000), Fault::HealRegions { a: 1, b: 2 })
            .at(
                t(1100),
                Fault::PromoteReplica {
                    shard: 0,
                    replica: 0,
                },
            )
            .at(t(1400), Fault::RejoinOldPrimary { shard: 0 })
            .at(t(1700), Fault::PartitionRegions { a: 0, b: 2 })
            .at(t(1800), Fault::CrashGtm)
            .at(t(2100), Fault::HealRegions { a: 0, b: 2 })
            .at(t(2300), Fault::RestartGtm)
    }

    /// Online shard migration under fire: a first migration whose
    /// freshly provisioned target dies mid-copy (the executor must abort
    /// and leave routing/ownership at the source, then the orphan target
    /// is restored), and a second migration of another shard that runs to
    /// its cutover while a delay spike and a primary crash/restart land
    /// elsewhere in the cluster.
    pub fn migrate_under_fire() -> FaultPlan {
        FaultPlan::new("migrate-under-fire")
            .at(
                t(300),
                Fault::StartMigration {
                    shard: 0,
                    to_region: 1,
                    to_host: 1,
                },
            )
            .at(t(340), Fault::CrashMigrationTarget)
            .at(t(700), Fault::RestoreMigrationTarget)
            .at(
                t(900),
                Fault::StartMigration {
                    shard: 3,
                    to_region: 2,
                    to_host: 0,
                },
            )
            .at(
                t(1400),
                Fault::DelaySpike {
                    extra: SimDuration::from_millis(2),
                },
            )
            .at(t(1800), Fault::ClearDelay)
            .at(t(1900), Fault::CrashPrimary { shard: 1 })
            .at(t(2200), Fault::RestartPrimary { shard: 1 })
    }

    /// Elastic membership under fire: scale out with a spare data node
    /// in region 1, then drain region 1's original host onto the
    /// survivors while a delay spike is up; crash the source of one
    /// drain move mid-flight (the member aborts, its plan-mates cut
    /// over, the host stays draining), restore it, and re-issue the
    /// drain so the host empties and its data nodes retire — all while
    /// an unrelated migration and a GTM failover land elsewhere.
    pub fn elastic_under_fire() -> FaultPlan {
        FaultPlan::new("elastic-under-fire")
            .at(t(200), Fault::AddNode { region: 1, host: 3 })
            .at(
                t(300),
                Fault::DelaySpike {
                    extra: SimDuration::from_millis(2),
                },
            )
            .at(t(400), Fault::RemoveNode { region: 1, host: 1 })
            .at(t(450), Fault::CrashMigrationSource)
            .at(t(900), Fault::ClearDelay)
            .at(t(1100), Fault::RestoreMigrationSource)
            .at(
                t(1400),
                Fault::StartMigration {
                    shard: 2,
                    to_region: 0,
                    to_host: 1,
                },
            )
            .at(t(1600), Fault::CrashGtm)
            .at(t(2000), Fault::RestartGtm)
            .at(t(2300), Fault::RemoveNode { region: 1, host: 1 })
    }

    /// All canned plans, by name.
    pub fn all() -> Vec<FaultPlan> {
        vec![
            primary_failover(),
            partition_and_delay(),
            gtm_and_collector(),
            overlapping_faults(),
            heavy_overlap(),
            migrate_under_fire(),
            elastic_under_fire(),
        ]
    }

    pub fn by_name(name: &str) -> Option<FaultPlan> {
        all().into_iter().find(|p| p.name == name)
    }
}

impl FaultPlan {
    /// Shift every event later by `offset` (runners place plans after
    /// workload warmup).
    pub fn shifted(mut self, offset: SimDuration) -> Self {
        for ev in &mut self.events {
            ev.at += offset;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_are_named_and_nonempty() {
        let plans = canned::all();
        assert_eq!(plans.len(), 7);
        for p in &plans {
            assert!(!p.events.is_empty(), "{} is empty", p.name);
            assert!(canned::by_name(&p.name).is_some());
        }
    }

    #[test]
    fn shifted_moves_every_event() {
        let p = canned::primary_failover().shifted(SimDuration::from_secs(1));
        assert_eq!(p.events[0].at, SimTime::from_millis(1300));
    }
}
