//! The four workloads: what runs, on which backend, and how its outputs
//! are checked.

use crate::trace::{SpanName, TimedTransport, Trace};
use gdb_model::GdbError;
use gdb_realnet::{Backend, FaultController, RealCluster, StaticMembership, TcpTransport};
use gdb_simclock::WallClock;
use gdb_workloads::driver::{KeyDistribution, KeySampler, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{self, TpccMix, TpccScale, TpccWorkload};
use globaldb::{
    Cluster, ClusterConfig, Datum, GdbResult, Prepared, RoutingPolicy, SimTime, SimTransport,
    TxnOutcome,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One workload of the benchmark. The names are those of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    TpccSim,
    PointSelectSim,
    UpdateZipfSim,
    TpccTcp,
}

pub const ALL: [WorkloadId; 4] = [
    WorkloadId::TpccSim,
    WorkloadId::PointSelectSim,
    WorkloadId::UpdateZipfSim,
    WorkloadId::TpccTcp,
];

const SYSBENCH_SCALE: SysbenchScale = SysbenchScale {
    tables: 10,
    rows_per_table: 25_000,
};

impl WorkloadId {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::TpccSim => "tpcc_sim",
            WorkloadId::PointSelectSim => "point_select_sim",
            WorkloadId::UpdateZipfSim => "update_zipf_sim",
            WorkloadId::TpccTcp => "tpcc_tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn backend(self) -> Backend {
        match self {
            WorkloadId::TpccTcp => Backend::Tcp,
            _ => Backend::Sim,
        }
    }

    /// Transactions of the fixed-count phase that follows set-up. It
    /// warms the caches for the timed window, and because its work is the
    /// same for a given seed, every count metric is taken over it.
    pub fn count_phase_txns(self) -> u64 {
        match self {
            WorkloadId::TpccSim => 6_000,
            WorkloadId::PointSelectSim => 100_000,
            WorkloadId::UpdateZipfSim => 20_000,
            WorkloadId::TpccTcp => 2_500,
        }
    }
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    Committed,
    /// New-Order's 1 % invalid-item rollback (TPC-C clause 2.4.1.4): the
    /// specified outcome, counted as completed.
    SpecRollback,
    /// A retryable error: the terminal thinks and tries again.
    Failed,
}

/// Classify an attempt; an error that is not retryable is a bug in the
/// system or the benchmark and ends the run.
pub fn classify(kind: &str, result: &GdbResult<TxnOutcome>) -> Result<Ended, String> {
    match result {
        Ok(_) => Ok(Ended::Committed),
        Err(GdbError::TxnAborted(m)) if kind == "new_order" && m == "invalid item number" => {
            Ok(Ended::SpecRollback)
        }
        Err(e) if e.is_retryable() => Ok(Ended::Failed),
        Err(e) => Err(format!("{kind}: {e}")),
    }
}

/// The running system: the cluster and whatever carries its messages.
pub enum Stack {
    /// Untraced: the harness the other binaries use, which also counts
    /// what each silo physically routed.
    Plain(Box<RealCluster>),
    /// Traced: the same cluster with every transport call timed.
    Traced(Box<Cluster>),
}

impl Stack {
    pub fn launch(config: ClusterConfig, backend: Backend, trace: Option<&Trace>) -> Self {
        let Some(trace) = trace else {
            return Stack::Plain(Box::new(RealCluster::launch(config, backend)));
        };
        let mut cluster = Cluster::new(config);
        let inner: Box<dyn globaldb::Transport> = match backend {
            Backend::Sim => Box::new(SimTransport),
            Backend::Tcp => Box::new(
                TcpTransport::launch(
                    StaticMembership::from_topology(cluster.db.topo()),
                    FaultController::default(),
                    WallClock::new(),
                )
                .expect("bind loopback listeners"),
            ),
            Backend::Thread => unreachable!("no workload runs on the thread backend"),
        };
        cluster.db.set_transport(Box::new(TimedTransport {
            inner,
            trace: trace.clone(),
        }));
        Stack::Traced(Box::new(cluster))
    }

    pub fn cluster(&mut self) -> &mut Cluster {
        match self {
            Stack::Plain(rc) => &mut rc.cluster,
            Stack::Traced(cluster) => cluster,
        }
    }

    /// Stop the transport, joining its threads, and check that every
    /// message the plane charged was routed by exactly one silo.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self {
            Stack::Plain(rc) => {
                let report = rc.shutdown();
                report.verify_against_plane(rc.cluster.db.plane())
            }
            Stack::Traced(cluster) => {
                cluster.db.shutdown_transport();
                Ok(())
            }
        }
    }
}

/// A set-up workload: runs one transaction at a time and checks the
/// database afterwards.
pub trait Bench {
    /// Transaction type names; `run_one` returns an index into them.
    fn kinds(&self) -> &'static [&'static str];

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
        trace: Option<&Trace>,
    ) -> (usize, GdbResult<TxnOutcome>);

    /// Check the database against what the workload did to it. Runs after
    /// the driver let replication settle.
    fn check(&mut self, cluster: &mut Cluster) -> Result<(), String>;
}

/// Build the cluster, launch the transport, create and load the schema
/// and prepare the statements. Returns the seconds all that took
/// (`setup_s`); what the output checks need on top is not part of it.
pub fn set_up(id: WorkloadId, seed: u64, trace: Option<&Trace>) -> (Stack, Box<dyn Bench>, f64) {
    let started = Instant::now();
    let config = ClusterConfig::globaldb_three_city().with_seed(seed);
    let mut stack = Stack::launch(config, id.backend(), trace);
    let cluster = stack.cluster();
    let (bench, setup_s): (Box<dyn Bench>, f64) = match id {
        WorkloadId::TpccSim | WorkloadId::TpccTcp => {
            let mut inner = TpccWorkload::new(TpccScale::small(), TpccMix::standard(), seed);
            inner.setup(cluster).expect("tpcc set-up");
            (Box::new(Tpcc { inner }), started.elapsed().as_secs_f64())
        }
        WorkloadId::PointSelectSim | WorkloadId::UpdateZipfSim => {
            let read_only = id == WorkloadId::PointSelectSim;
            let mut bench = Sysbench::set_up(cluster, seed, read_only);
            let setup_s = started.elapsed().as_secs_f64();
            if !read_only {
                bench.loaded_k = sum_k(cluster).expect("sum of k after load");
            }
            (Box::new(bench), setup_s)
        }
    };
    (stack, bench, setup_s)
}

struct Tpcc {
    inner: TpccWorkload,
}

const TPCC_KINDS: [&str; 5] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
];

impl Bench for Tpcc {
    fn kinds(&self) -> &'static [&'static str] {
        &TPCC_KINDS
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
        _trace: Option<&Trace>,
    ) -> (usize, GdbResult<TxnOutcome>) {
        let (kind, result) = self.inner.run_one(cluster, terminal, at);
        let index = TPCC_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("a TPC-C transaction type");
        (index, result)
    }

    fn check(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        tpcc::consistency::verify(cluster, &self.inner.scale)
            .map(|_| ())
            .map_err(|e| format!("TPC-C consistency: {e}"))
    }
}

/// The two single-statement workloads over the sysbench tables. The
/// tables are loaded by `SysbenchWorkload::setup`; the statements and the
/// transaction closure are the benchmark's own, so that it can check each
/// result and time the phases of `run_transaction` around the closure.
struct Sysbench {
    read_only: bool,
    statements: Vec<Prepared>,
    sampler: KeySampler,
    rng: SmallRng,
    /// `SUM(k)` over all tables right after the load.
    loaded_k: i64,
    committed_updates: i64,
}

/// `c` is `c-{id:08}-{random:08}` as the loader wrote it.
fn c_belongs_to(c: &str, id: i64) -> bool {
    let b = c.as_bytes();
    b.len() > 10
        && b.starts_with(b"c-")
        && b[10] == b'-'
        && c[2..10].parse::<i64>().is_ok_and(|n| n == id)
}

fn sum_k(cluster: &mut Cluster) -> Result<i64, String> {
    // Read the primaries: the check is about what was committed, not
    // about what the replicas have replayed so far.
    let routing = cluster.db.config().routing;
    cluster.db.set_routing(RoutingPolicy::Primary);
    let now = cluster.now();
    let mut total = 0;
    for t in 0..SYSBENCH_SCALE.tables {
        let sql = format!("SELECT SUM(k) FROM sbtest{t}");
        let (out, _) = cluster
            .execute_sql(0, now, &sql, &[])
            .map_err(|e| format!("{sql}: {e}"))?;
        total += out.scalar_int().ok_or_else(|| format!("{sql}: no sum"))?;
    }
    cluster.db.set_routing(routing);
    Ok(total)
}

impl Sysbench {
    fn set_up(cluster: &mut Cluster, seed: u64, read_only: bool) -> Self {
        SysbenchWorkload::new(SYSBENCH_SCALE, SysbenchMode::PointSelect, seed)
            .setup(cluster)
            .expect("sysbench set-up");
        let (sql, keys) = if read_only {
            (
                "SELECT c FROM sbtestN WHERE id = ?",
                KeyDistribution::Uniform,
            )
        } else {
            let zipf = KeyDistribution::Zipfian { theta: 0.99 };
            ("UPDATE sbtestN SET k = k + 1 WHERE id = ?", zipf)
        };
        let statements = (0..SYSBENCH_SCALE.tables)
            .map(|t| {
                cluster
                    .prepare(&sql.replace("sbtestN", &format!("sbtest{t}")))
                    .expect("prepare")
            })
            .collect();
        Sysbench {
            read_only,
            statements,
            sampler: KeySampler::new(keys, SYSBENCH_SCALE.rows_per_table),
            rng: SmallRng::seed_from_u64(seed ^ 0xbe_5eed),
            loaded_k: 0,
            committed_updates: 0,
        }
    }
}

impl Bench for Sysbench {
    fn kinds(&self) -> &'static [&'static str] {
        if self.read_only {
            &["point_select"]
        } else {
            &["update"]
        }
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
        trace: Option<&Trace>,
    ) -> (usize, GdbResult<TxnOutcome>) {
        let statement = &self.statements[self.rng.gen_range(0..self.statements.len())];
        let id = self.sampler.sample(&mut self.rng);
        let cn = terminal % cluster.db.cns().len();
        let read_only = self.read_only;
        if let Some(t) = trace {
            t.begin(SpanName::Begin);
        }
        let result = cluster.run_transaction(cn, at, read_only, true, |txn| {
            if let Some(t) = trace {
                t.next(SpanName::Execute);
            }
            let out = txn.execute(statement, &[Datum::Int(id)])?;
            let ok = if read_only {
                let rows = out.rows();
                rows.len() == 1 && rows[0].0[0].as_text().is_some_and(|c| c_belongs_to(c, id))
            } else {
                out.count() == 1
            };
            if let Some(t) = trace {
                t.next(SpanName::Commit);
            }
            if ok {
                Ok(())
            } else {
                Err(GdbError::Internal(format!("wrong result for id {id}")))
            }
        });
        if let Some(t) = trace {
            t.end();
        }
        if result.is_ok() && !read_only {
            self.committed_updates += 1;
        }
        (0, result.map(|(_, outcome)| outcome))
    }

    fn check(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        if self.read_only {
            return Ok(()); // every result was checked as it arrived
        }
        let grown = sum_k(cluster)? - self.loaded_k;
        if grown == self.committed_updates {
            Ok(())
        } else {
            Err(format!(
                "sum(k) grew by {grown} but {} updates committed",
                self.committed_updates
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::from_name("tpcc"), None);
    }

    #[test]
    fn spec_rollback_is_completed_not_failed() {
        let rollback = Err(GdbError::TxnAborted("invalid item number".into()));
        assert_eq!(classify("new_order", &rollback), Ok(Ended::SpecRollback));
        // The same message from another transaction type is a failure.
        assert_eq!(classify("payment", &rollback), Ok(Ended::Failed));
        let conflict = Err(GdbError::WriteConflict("row locked".into()));
        assert_eq!(classify("new_order", &conflict), Ok(Ended::Failed));
        let other_abort = Err(GdbError::TxnAborted("mode transition".into()));
        assert_eq!(classify("new_order", &other_abort), Ok(Ended::Failed));
        let bug = Err(GdbError::Internal("wrong result".into()));
        assert!(classify("point_select", &bug).is_err());
    }

    #[test]
    fn c_column_check() {
        assert!(c_belongs_to("c-00000042-00123456", 42));
        assert!(!c_belongs_to("c-00000043-00123456", 42));
        assert!(!c_belongs_to("x-00000042-00123456", 42));
        assert!(!c_belongs_to("c-00000042", 42));
        assert!(!c_belongs_to("", 0));
    }
}
