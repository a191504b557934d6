//! Percentiles, medians and the metric list every run prints.

use gdb_obs::Json;

/// Sub-buckets per power of two: 128 keeps a bucket under 0.8 % wide, and
/// [`LogHist::percentile`] interpolates inside the bucket.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values are clamped below 2^40 ns (18 minutes), far above any span.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = SUB * (MAX_BITS - SUB_BITS + 1) as usize;

/// A fixed-size log-linear histogram of nanosecond durations. It never
/// allocates after construction, so recording into it inside a measured
/// window leaves the allocation counts of that window untouched.
pub struct LogHist {
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
        }
    }
}

/// Index of the bucket holding `v`.
fn index_of(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    SUB * shift as usize + (v >> shift) as usize // v >> shift is in SUB..2*SUB
}

/// `(lower bound, width)` of bucket `index`.
fn bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, 1);
    }
    let shift = index / SUB - 1;
    (((index - SUB * shift) as u64) << shift, 1 << shift)
}

impl LogHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, interpolated
    /// linearly inside the bucket the rank falls into; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0.0;
        for (index, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= rank {
                let (lower, width) = bounds(index);
                return lower as f64 + width as f64 * ((rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("rank {rank} beyond count {}", self.count)
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// One `name value unit` line per metric.
    pub fn to_lines(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("{} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for `names`, in that
    /// order. Every name must have been measured.
    pub fn to_json(&self, names: &[String]) -> Result<Json, String> {
        names
            .iter()
            .map(|name| {
                let m = self
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if !m.value.is_finite() {
                    return Err(format!("metric {name} is not a finite number"));
                }
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                Ok((name.clone(), entry))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Json::Obj)
    }
}

/// The result line of the benchmark contract. There is no way to report
/// incorrect outputs through it: a failed output check ends the run
/// before any result is printed.
pub fn result_json(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1_000, 65_535, 1 << 30] {
            let (lower, width) = bounds(index_of(v));
            assert!(
                lower <= v && v < lower + width,
                "{v} in [{lower}, +{width})"
            );
        }
        // Each bucket starts where the previous one ends.
        let mut end = 0;
        for index in 0..BUCKETS {
            let (lower, width) = bounds(index);
            assert_eq!(lower, end, "bucket {index}");
            end = lower + width;
        }
        assert_eq!(end, 1 << MAX_BITS);
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_matches_exact_rank_within_bucket_width() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), 100 * 10_000 * 10_001 / 2);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.percentile(q);
            assert!(
                (got - exact).abs() / exact < 0.008,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(LogHist::default().percentile(0.5), 0.0);
    }

    #[test]
    fn percentile_is_exact_for_small_values_and_interpolates() {
        let mut h = LogHist::default();
        for _ in 0..10 {
            h.record(40);
        }
        // All mass in the unit-wide bucket [40, 41).
        assert!((40.0..=41.0).contains(&h.percentile(0.5)));
        let mut two = LogHist::default();
        two.record(1_000);
        two.record(3_000);
        assert!(two.percentile(0.25) < 1_100.0);
        assert!(two.percentile(1.0) >= 3_000.0 * 0.99);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn output_shapes() {
        let mut m = Metrics::default();
        m.push("txn_per_s", 2034.125, "txn/s");
        m.push("core.bg_share", 0.5, "ratio");
        assert_eq!(
            m.to_lines(),
            "txn_per_s 2034.125 txn/s\ncore.bg_share 0.5 ratio\n"
        );
        let names = vec!["txn_per_s".to_string()];
        let line = result_json(10, 0, m.to_json(&names).unwrap()).to_compact();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"txn_per_s":{"value":2034.125,"unit":"txn/s"}}}"#
        );
        assert!(m.to_json(&["missing".to_string()]).is_err());
        m.push("nan", f64::NAN, "us");
        assert!(m.to_json(&["nan".to_string()]).is_err());
    }
}
