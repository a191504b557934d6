//! The specification of `LatencyHistogram`, held against an exact
//! nearest-rank reference over random sample sets: count, sum, mean,
//! min and max are exact; p50, p95, p99 and p99.9 are within 1/64
//! relative error (exact below 64 µs); and merging histograms built
//! from any split of the samples equals recording their union.

use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use proptest::collection::vec;
use proptest::prelude::*;

const QUANTILES: [f64; 4] = [50.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile of sorted `samples`.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &us in samples {
        h.record(SimDuration::from_micros(us));
    }
    h
}

fn meets_spec(samples: &[u64]) -> TestCaseResult {
    let h = histogram_of(samples);
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let sum: u64 = samples.iter().sum();
    prop_assert_eq!(h.len(), samples.len());
    prop_assert_eq!(h.sum_us(), sum);
    if samples.is_empty() {
        prop_assert_eq!(h.mean(), SimDuration::ZERO);
        for q in QUANTILES {
            prop_assert_eq!(h.percentile(q), SimDuration::ZERO);
        }
        return Ok(());
    }
    prop_assert_eq!(h.mean().as_micros(), sum / samples.len() as u64);
    prop_assert_eq!(h.min().as_micros(), sorted[0]);
    prop_assert_eq!(h.max().as_micros(), sorted[sorted.len() - 1]);
    for q in QUANTILES {
        let exact = nearest_rank(&sorted, q);
        let got = h.percentile(q).as_micros();
        if exact < 64 {
            prop_assert_eq!(got, exact, "p{} of {:?}", q, sorted);
        } else {
            prop_assert!(
                got <= exact && (exact - got) * 64 <= exact,
                "p{q}: {got} vs exact {exact}"
            );
        }
    }
    Ok(())
}

/// A sample in microseconds, drawn from one of several magnitudes so a
/// set spans the linear buckets and many octaves.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0..64u64, 0..10_000u64, 0..5_000_000u64, 0..1u64 << 40]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn summary_matches_exact_reference(samples in vec(sample(), 0..400)) {
        meets_spec(&samples)?;
    }

    #[test]
    fn merged_splits_equal_the_union(
        samples in vec(sample(), 0..200),
        parts in vec(0..4usize, 200),
    ) {
        let mut split = vec![Vec::new(); 4];
        for (&us, &p) in samples.iter().zip(&parts) {
            split[p].push(us);
        }
        let mut merged = LatencyHistogram::new();
        for part in &split {
            merged.merge(&histogram_of(part));
        }
        prop_assert_eq!(merged, histogram_of(&samples));
    }
}

/// The classic nearest-rank inputs: 1..=100 ms, one sample each, and a
/// single sample.
#[test]
fn nearest_rank_cases_meet_the_spec() {
    let ms: Vec<u64> = (1..=100).map(|m| m * 1_000).collect();
    meets_spec(&ms).unwrap();
    meets_spec(&[42]).unwrap();
    meets_spec(&[]).unwrap();
}
