//! Launch/run/shutdown a cluster on a chosen execution backend.
//!
//! [`RealCluster`] wraps the ordinary [`globaldb::Cluster`]: same
//! virtual-time driver, same workloads, same chaos plans — only the
//! transport behind the [`globaldb::MessagePlane`] differs. At
//! shutdown it collects each silo's tallies into a [`RealnetReport`]
//! and cross-checks them against the driver's message-plane accounting:
//! every message the plane charged must have been physically routed by
//! exactly one silo.

use crate::fault::FaultController;
use crate::membership::StaticMembership;
use crate::silo::{SharedSilo, NKINDS};
use crate::transport::{TcpTransport, ThreadTransport};
use gdb_simclock::WallClock;
use globaldb::{Cluster, ClusterConfig, MessagePlane, ALL_RPC_KINDS};

/// Which execution backend carries the cluster's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Pure simulation (the default `SimTransport`): modeled delays,
    /// deterministic, trace-identical to the pre-realnet workspace.
    Sim,
    /// One OS thread per silo, in-process channel delivery.
    Thread,
    /// One OS thread + loopback-TCP listener per silo, framed sockets.
    Tcp,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Thread => "thread",
            Backend::Tcp => "tcp",
        }
    }
}

/// What one silo physically saw during the run.
#[derive(Debug, Clone)]
pub struct SiloReport {
    pub host: u16,
    pub msgs: u64,
    pub bytes: u64,
    pub per_kind: [u64; NKINDS],
    /// Ack writes; `msgs / ack_flushes` is the frames one wake-up served.
    pub ack_flushes: u64,
}

/// End-of-run physical accounting for a [`RealCluster`].
#[derive(Debug, Clone)]
pub struct RealnetReport {
    pub backend: Backend,
    pub silos: Vec<SiloReport>,
    pub msgs: u64,
    pub bytes: u64,
    pub per_kind: [u64; NKINDS],
    /// Plane message counts per kind at transport-install time; anything
    /// charged before the real transport existed is excluded from the
    /// cross-check.
    base_per_kind: [u64; NKINDS],
}

impl RealnetReport {
    /// Check that the driver's plane accounting and the silos' physical
    /// tallies agree per `RpcKind`. Trivially `Ok` for the sim backend
    /// (no silos exist).
    pub fn verify_against_plane(&self, plane: &MessagePlane) -> Result<(), String> {
        if self.backend == Backend::Sim {
            return Ok(());
        }
        let mut errors = Vec::new();
        for kind in ALL_RPC_KINDS {
            let i = kind.index();
            // `transport_msgs`, not `msgs`: statistically accounted fan-in
            // (e.g. RCP gather reports) is counted on the plane but never
            // rides the transport, so no silo ever sees it.
            let charged = plane
                .transport_msgs(kind)
                .saturating_sub(self.base_per_kind[i]);
            let routed = self.per_kind[i];
            if charged != routed {
                errors.push(format!(
                    "{}: plane charged {charged}, silos routed {routed}",
                    kind.name()
                ));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "plane/silo accounting diverged on {} backend: {}",
                self.backend.label(),
                errors.join("; ")
            ))
        }
    }
}

/// A cluster bound to an execution backend, with silo handles retained
/// for end-of-run verification.
pub struct RealCluster {
    pub cluster: Cluster,
    backend: Backend,
    faults: FaultController,
    states: Vec<SharedSilo>,
    base_per_kind: [u64; NKINDS],
    report: Option<RealnetReport>,
}

impl RealCluster {
    /// Build the cluster and install the backend's transport *before*
    /// any traffic is charged.
    pub fn launch(config: ClusterConfig, backend: Backend) -> Self {
        let mut cluster = Cluster::new(config);
        let faults = FaultController::default();
        let clock = WallClock::new();
        let states = match backend {
            Backend::Sim => Vec::new(),
            Backend::Thread => {
                let membership = StaticMembership::from_topology(cluster.db.topo());
                let t = ThreadTransport::launch(membership, faults.clone(), clock);
                let states = t.states();
                cluster.db.set_transport(Box::new(t));
                states
            }
            Backend::Tcp => {
                let membership = StaticMembership::from_topology(cluster.db.topo());
                let t = TcpTransport::launch(membership, faults.clone(), clock)
                    .expect("bind loopback listeners");
                let states = t.states();
                cluster.db.set_transport(Box::new(t));
                states
            }
        };
        let mut base_per_kind = [0u64; NKINDS];
        for kind in ALL_RPC_KINDS {
            base_per_kind[kind.index()] = cluster.db.plane().transport_msgs(kind);
        }
        RealCluster {
            cluster,
            backend,
            faults,
            states,
            base_per_kind,
            report: None,
        }
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The link-fault controller shared with the running transport.
    pub fn faults(&self) -> FaultController {
        self.faults.clone()
    }

    /// Stop the transport (joining every silo thread) and collect the
    /// physical tallies. Idempotent: later calls return the same report.
    pub fn shutdown(&mut self) -> RealnetReport {
        if let Some(r) = &self.report {
            return r.clone();
        }
        self.cluster.db.shutdown_transport();
        let mut silos = Vec::new();
        let mut msgs = 0u64;
        let mut bytes = 0u64;
        let mut per_kind = [0u64; NKINDS];
        for silo in &self.states {
            let s = silo.lock().expect("silo lock");
            msgs += s.stats.msgs;
            bytes += s.stats.bytes;
            for (total, routed) in per_kind.iter_mut().zip(s.stats.per_kind.iter()) {
                *total += routed;
            }
            silos.push(SiloReport {
                host: s.spec.host,
                msgs: s.stats.msgs,
                bytes: s.stats.bytes,
                per_kind: s.stats.per_kind,
                ack_flushes: s.stats.ack_flushes,
            });
        }
        let report = RealnetReport {
            backend: self.backend,
            silos,
            msgs,
            bytes,
            per_kind,
            base_per_kind: self.base_per_kind,
        };
        self.report = Some(report.clone());
        report
    }
}

impl Drop for RealCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::SimTime;

    fn run_one(backend: Backend) -> (RealnetReport, Result<(), String>, u64) {
        let mut rc = RealCluster::launch(ClusterConfig::globaldb_three_city(), backend);
        assert_eq!(rc.cluster.db.transport_name(), backend.label());
        rc.cluster.finish_load();
        rc.cluster.run_until(SimTime::from_millis(200));
        let commits = rc.cluster.db.stats().committed;
        let report = rc.shutdown();
        let verdict = report.verify_against_plane(rc.cluster.db.plane());
        (report, verdict, commits)
    }

    #[test]
    fn sim_backend_is_the_default_and_verifies_trivially() {
        let (report, verdict, _) = run_one(Backend::Sim);
        assert!(report.silos.is_empty());
        verdict.unwrap();
    }

    #[test]
    fn thread_backend_runs_the_cluster_and_accounts_exactly() {
        let (report, verdict, commits) = run_one(Backend::Thread);
        assert_eq!(report.silos.len(), 3);
        assert!(report.msgs > 0, "background activity must generate traffic");
        verdict.unwrap();
        let _ = commits;
    }

    #[test]
    fn tcp_backend_runs_the_cluster_and_accounts_exactly() {
        let (report, verdict, _) = run_one(Backend::Tcp);
        assert_eq!(report.silos.len(), 3);
        assert!(report.msgs > 0);
        for s in &report.silos {
            assert!(s.ack_flushes <= s.msgs, "one write answers ≥ 1 frame");
        }
        verdict.unwrap();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut rc = RealCluster::launch(ClusterConfig::globaldb_three_city(), Backend::Thread);
        rc.cluster.run_until(SimTime::from_millis(50));
        let a = rc.shutdown();
        let b = rc.shutdown();
        assert_eq!(a.msgs, b.msgs);
        assert_eq!(a.per_kind, b.per_kind);
    }
}
