//! The closed-loop, multi-terminal workload driver.
//!
//! Terminals are simulated clients: each issues a transaction, waits for
//! completion (in virtual time), thinks, and repeats. A binary heap orders
//! terminals by their next start instant so the whole run is a single
//! deterministic interleaving of client work with the cluster's background
//! activity (replication, RCP rounds, heartbeats).

use crate::report::WorkloadReport;
use gdb_model::GdbResult;
use globaldb::{Cluster, SimDuration, SimTime, TxnOutcome};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a workload samples keys from `1..=n`. The hot set's identity is
/// fixed (low keys), so a run's skew is a pure function of the workload
/// seed and the whole benchmark replays deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// YCSB-style Zipfian: rank `r` drawn with probability ∝ `1/r^theta`
    /// and mapped to key `r`, so key 1 is the hottest. `theta` in
    /// `(0, 1)`; 0.99 is the YCSB default.
    Zipfian { theta: f64 },
    /// Sysbench's hot-spot shape: the first `hot_fraction` of the
    /// keyspace receives `hot_prob` of all accesses.
    Hotspot { hot_fraction: f64, hot_prob: f64 },
}

/// A key sampler with the Zipfian normalization constants precomputed
/// (building them is `O(n)`; drawing is `O(1)`).
#[derive(Debug, Clone)]
pub struct KeySampler {
    dist: KeyDistribution,
    n: i64,
    alpha: f64,
    eta: f64,
    zetan: f64,
}

fn zeta(n: i64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Process-wide cache of the Zipfian normalization constants
/// `(alpha, eta, zetan)` keyed by `(n, theta)`. Computing them is the
/// `O(n)` part of building a sampler — at 10⁶ keys that is a million
/// `powf` calls — and every terminal of a run uses the same `(n, theta)`,
/// so pay it once per distinct pair per process. `f64` summation here is
/// deterministic (fixed iteration order), so a cache hit is bit-identical
/// to a recompute: draws are unchanged for existing seeds (asserted by
/// `zipf_cache_is_draw_identical`).
fn zipf_constants(n: i64, theta: f64) -> (f64, f64, f64) {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type ConstMap = HashMap<(i64, u64), (f64, f64, f64)>;
    static CACHE: OnceLock<Mutex<ConstMap>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (n, theta.to_bits());
    if let Some(&hit) = cache.lock().unwrap().get(&key) {
        return hit;
    }
    let zetan = zeta(n, theta);
    let zeta2 = zeta(n.min(2), theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
    let computed = (alpha, eta, zetan);
    cache.lock().unwrap().insert(key, computed);
    computed
}

impl KeySampler {
    pub fn new(dist: KeyDistribution, n: i64) -> Self {
        let n = n.max(1);
        let (alpha, eta, zetan) = match dist {
            KeyDistribution::Zipfian { theta } => zipf_constants(n, theta),
            _ => (0.0, 0.0, 0.0),
        };
        KeySampler {
            dist,
            n,
            alpha,
            eta,
            zetan,
        }
    }

    /// Draw one key in `1..=n`. `Uniform` makes exactly one
    /// `gen_range(1..=n)` call, so swapping a workload's inline uniform
    /// pick for a sampler leaves its draw sequence bit-identical.
    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        match self.dist {
            KeyDistribution::Uniform => rng.gen_range(1..=self.n),
            KeyDistribution::Zipfian { theta } => {
                // Gray et al.'s quick Zipf approximation (as in YCSB).
                let u: f64 = rng.gen_range(0.0..1.0);
                let uz = u * self.zetan;
                if uz < 1.0 {
                    1
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    2
                } else {
                    let r = 1.0 + self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
                    (r as i64).clamp(1, self.n)
                }
            }
            KeyDistribution::Hotspot {
                hot_fraction,
                hot_prob,
            } => {
                let hot = ((self.n as f64 * hot_fraction) as i64).clamp(1, self.n);
                if hot < self.n && !rng.gen_bool(hot_prob.clamp(0.0, 1.0)) {
                    rng.gen_range(hot + 1..=self.n)
                } else {
                    rng.gen_range(1..=hot)
                }
            }
        }
    }
}

/// A benchmark workload: setup (schema + load) plus a per-terminal
/// transaction generator.
pub trait Workload {
    /// Create schema and load initial data.
    fn setup(&mut self, cluster: &mut Cluster) -> GdbResult<()>;

    /// Run one transaction for `terminal` starting at `at`. Returns the
    /// transaction kind label and its outcome.
    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
    ) -> (&'static str, GdbResult<TxnOutcome>);
}

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub terminals: usize,
    /// Measured virtual duration (after warmup).
    pub duration: SimDuration,
    /// Unmeasured warmup.
    pub warmup: SimDuration,
    /// Think time between a completion and the next request.
    pub think_time: SimDuration,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            terminals: 60,
            duration: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(1),
            think_time: SimDuration::from_millis(10),
        }
    }
}

/// Run `workload` against `cluster` (setup must already have happened).
pub fn run_workload(
    cluster: &mut Cluster,
    workload: &mut dyn Workload,
    config: RunConfig,
) -> WorkloadReport {
    let t0 = cluster.now();
    let measure_from = t0 + config.warmup;
    let t_end = measure_from + config.duration;

    let replica_reads_before = cluster.db.stats().reads_on_replica;
    let primary_reads_before = cluster.db.stats().reads_on_primary;

    let mut report = WorkloadReport {
        duration: config.duration,
        ..Default::default()
    };

    // Stagger terminal starts to avoid a thundering herd at t0.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..config.terminals)
        .map(|i| Reverse((t0 + SimDuration::from_micros(1 + i as u64 * 137), i)))
        .collect();

    while let Some(Reverse((at, terminal))) = heap.pop() {
        if at >= t_end {
            break;
        }
        let (kind, result) = workload.run_one(cluster, terminal, at);
        let next = match result {
            Ok(outcome) => {
                if at >= measure_from {
                    report.record_commit(kind, outcome.latency);
                }
                outcome.completed_at + config.think_time
            }
            Err(e) if e.is_retryable() => {
                if at >= measure_from {
                    report.record_abort(kind);
                }
                at + config.think_time
            }
            Err(e) => panic!("workload error ({kind}): {e}"),
        };
        heap.push(Reverse((next, terminal)));
    }
    // Drain background work to the end of the window so replica/RCP state
    // is consistent for whoever inspects the cluster next.
    cluster.run_until(t_end);

    report.reads_on_replica = cluster.db.stats().reads_on_replica - replica_reads_before;
    report.reads_on_primary = cluster.db.stats().reads_on_primary - primary_reads_before;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_sampler_matches_the_inline_draw() {
        let sampler = KeySampler::new(KeyDistribution::Uniform, 500);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert_eq!(sampler.sample(&mut a), b.gen_range(1..=500i64));
        }
    }

    #[test]
    fn zipfian_concentrates_on_low_keys() {
        let sampler = KeySampler::new(KeyDistribution::Zipfian { theta: 0.99 }, 1_000);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut top10 = 0;
        for _ in 0..10_000 {
            let k = sampler.sample(&mut rng);
            assert!((1..=1_000).contains(&k));
            if k <= 10 {
                top10 += 1;
            }
        }
        // Uniform would put ~100 draws in the top 10 keys; zipf(0.99)
        // puts roughly 4 000 there.
        assert!(top10 > 2_000, "only {top10}/10000 draws hit the top 10");
    }

    /// The shared-constants cache must be invisible to draws: a cached
    /// sampler's constants and its whole draw sequence are bit-identical
    /// to an uncached inline recompute of the published formulas.
    #[test]
    fn zipf_cache_is_draw_identical() {
        let (n, theta) = (5_000i64, 0.99f64);
        // Build twice: the second construction is guaranteed a cache hit.
        let first = KeySampler::new(KeyDistribution::Zipfian { theta }, n);
        let cached = KeySampler::new(KeyDistribution::Zipfian { theta }, n);
        // Inline reference (the pre-cache construction path).
        let zetan = zeta(n, theta);
        let zeta2 = zeta(n.min(2), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        for s in [&first, &cached] {
            assert_eq!(s.alpha.to_bits(), alpha.to_bits());
            assert_eq!(s.eta.to_bits(), eta.to_bits());
            assert_eq!(s.zetan.to_bits(), zetan.to_bits());
        }
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..5_000 {
            assert_eq!(first.sample(&mut a), cached.sample(&mut b));
        }
    }

    #[test]
    fn hotspot_honors_the_configured_mass() {
        let sampler = KeySampler::new(
            KeyDistribution::Hotspot {
                hot_fraction: 0.1,
                hot_prob: 0.9,
            },
            1_000,
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let mut hot = 0;
        for _ in 0..10_000 {
            let k = sampler.sample(&mut rng);
            assert!((1..=1_000).contains(&k));
            if k <= 100 {
                hot += 1;
            }
        }
        assert!(
            (8_500..=9_500).contains(&hot),
            "hot set took {hot}/10000 draws, expected ~9000"
        );
    }
}
