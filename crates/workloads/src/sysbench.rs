//! Sysbench OLTP workloads (paper §V: 250 tables × 25 000 rows × 600
//! threads; scaled down here with the same shape).
//!
//! The Fig. 6d workload is Point-Select: uniform random single-row reads.
//! On the Three-City cluster with hash sharding, ~2/3 of keys live on a
//! shard whose primary is remote from the submitting CN — exactly the
//! paper's "2/3 of the tuples are fetched from a remote node".

use crate::driver::{KeyDistribution, KeySampler, Workload};
use gdb_model::{Datum, GdbResult, Row};
use globaldb::{Cluster, Prepared, SimTime, TxnOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which Sysbench workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysbenchMode {
    /// `SELECT c FROM sbtestN WHERE id = ?` (Fig. 6d).
    PointSelect,
    /// `UPDATE sbtestN SET k = k + 1 WHERE id = ?` (write-path ablation).
    UpdateIndex,
}

/// Scale parameters (paper: 250 tables × 25 000 rows).
#[derive(Debug, Clone, Copy)]
pub struct SysbenchScale {
    pub tables: usize,
    pub rows_per_table: i64,
}

impl SysbenchScale {
    pub fn tiny() -> Self {
        SysbenchScale {
            tables: 2,
            rows_per_table: 100,
        }
    }

    pub fn small() -> Self {
        SysbenchScale {
            tables: 10,
            rows_per_table: 2_000,
        }
    }
}

/// The Sysbench workload.
pub struct SysbenchWorkload {
    pub scale: SysbenchScale,
    pub mode: SysbenchMode,
    /// Force all requests through one CN (paper: clients connect to their
    /// local CN; reads then fan out to wherever the tuples live).
    pub pin_cn: Option<usize>,
    selects: Vec<Prepared>,
    updates: Vec<Prepared>,
    sampler: KeySampler,
    rng: SmallRng,
    seed: u64,
}

impl SysbenchWorkload {
    pub fn new(scale: SysbenchScale, mode: SysbenchMode, seed: u64) -> Self {
        SysbenchWorkload {
            scale,
            mode,
            pin_cn: None,
            selects: Vec::new(),
            updates: Vec::new(),
            sampler: KeySampler::new(KeyDistribution::Uniform, scale.rows_per_table),
            rng: SmallRng::seed_from_u64(seed ^ 0x5b_5eed),
            seed,
        }
    }

    /// Replace the uniform row pick with a skewed key distribution
    /// (Zipfian or hot-spot). Skew concentrates load on whichever shards
    /// own the low keys — the ingredient that makes hot-shard detection
    /// and online rebalancing measurable.
    pub fn with_key_dist(mut self, dist: KeyDistribution) -> Self {
        self.sampler = KeySampler::new(dist, self.scale.rows_per_table);
        self
    }
}

impl Workload for SysbenchWorkload {
    fn setup(&mut self, cluster: &mut Cluster) -> GdbResult<()> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        for t in 0..self.scale.tables {
            cluster.ddl(&format!(
                "CREATE TABLE sbtest{t} (id INT NOT NULL, k INT, c TEXT, pad TEXT, \
                 PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)"
            ))?;
            let table = cluster
                .db
                .catalog()
                .table_by_name(&format!("sbtest{t}"))?
                .id;
            // Every row shares one `pad` text.
            let pad = Datum::Text("padpadpadpad".into());
            let rows: Vec<Row> = (1..=self.scale.rows_per_table)
                .map(|id| {
                    Row(vec![
                        Datum::Int(id),
                        Datum::Int(rng.gen_range(0..self.scale.rows_per_table)),
                        Datum::from(format!("c-{id:08}-{:08}", rng.gen_range(0..1_000_000))),
                        pad.clone(),
                    ])
                })
                .collect();
            cluster.bulk_load(table, rows)?;
        }
        cluster.finish_load();
        for t in 0..self.scale.tables {
            self.selects
                .push(cluster.prepare(&format!("SELECT c FROM sbtest{t} WHERE id = ?"))?);
            self.updates
                .push(cluster.prepare(&format!("UPDATE sbtest{t} SET k = k + 1 WHERE id = ?"))?);
        }
        Ok(())
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
    ) -> (&'static str, GdbResult<TxnOutcome>) {
        let t = self.rng.gen_range(0..self.scale.tables);
        let id = self.sampler.sample(&mut self.rng);
        let cn = self.pin_cn.unwrap_or(terminal % cluster.db.cns().len());
        match self.mode {
            SysbenchMode::PointSelect => {
                let stmt = &self.selects[t];
                let res = cluster
                    .run_transaction(cn, at, true, true, |txn| {
                        txn.execute(stmt, &[Datum::Int(id)]).map(|_| ())
                    })
                    .map(|(_, o)| o);
                ("point_select", res)
            }
            SysbenchMode::UpdateIndex => {
                let stmt = &self.updates[t];
                let res = cluster
                    .run_transaction(cn, at, false, true, |txn| {
                        txn.execute(stmt, &[Datum::Int(id)]).map(|_| ())
                    })
                    .map(|(_, o)| o);
                ("update_index", res)
            }
        }
    }
}
