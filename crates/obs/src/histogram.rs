//! Log2-bucketed histograms for latency and occupancy distributions.
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket `k`
//! (k >= 1) holds values in `[2^(k-1), 2^k)`. Recording is two
//! instructions (leading-zeros + increment), cheap enough to leave on
//! unconditionally in the hierarchy's hot paths.

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: [u64; 65],
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        i => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of all samples (NaN-free: 0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile: the inclusive upper bound of the bucket
    /// containing the `q`-th sample (`q` in `[0, 1]`). Exact for
    /// distributions that land in single buckets; otherwise conservative
    /// (reports high by at most 2x).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
    }

    /// Decomposes into raw parts `(counts, total, sum, max)` for exact
    /// serialization (cs-snap reports). `sum` is the full `u128`
    /// sample sum — serialize it as a decimal string, not a JSON number.
    pub fn raw_parts(&self) -> (&[u64; 65], u64, u128, u64) {
        (&self.counts, self.total, self.sum, self.max)
    }

    /// Rebuilds a histogram from [`Self::raw_parts`] output (cs-snap
    /// report load). The parts are trusted as-is; consistency is
    /// enforced by the journal record's digest, not here.
    pub fn from_raw_parts(counts: [u64; 65], total: u64, sum: u128, max: u64) -> Self {
        Histogram {
            counts,
            total,
            sum,
            max,
        }
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Writes this histogram as a JSON object under `key`:
    /// `{"count", "mean", "max", "p50", "p95", "p99", "buckets": [{lo,hi,n}]}`.
    pub fn write_json(&self, w: &mut crate::json::JsonWriter, key: &str) {
        self.write_summary_json(w, key, true);
    }

    /// Writes the summary stats only — `{"count", "mean", "max", "p50",
    /// "p95", "p99"}` — without the bucket list (report JSON surfaces these
    /// directly so consumers need no trace sink to recover them).
    pub fn write_summary(&self, w: &mut crate::json::JsonWriter, key: &str) {
        self.write_summary_json(w, key, false);
    }

    fn write_summary_json(&self, w: &mut crate::json::JsonWriter, key: &str, buckets: bool) {
        w.open_object(Some(key))
            .int("count", self.total)
            .float("mean", self.mean())
            .int("max", self.max)
            .int("p50", self.quantile(0.50))
            .int("p95", self.quantile(0.95))
            .int("p99", self.quantile(0.99));
        if buckets {
            w.open_array("buckets");
            for (lo, hi, n) in self.buckets() {
                w.open_object(None)
                    .int("lo", lo)
                    .int("hi", hi)
                    .int("n", n)
                    .close_object();
            }
            w.close_array();
        }
        w.close_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_powers_land_in_expected_buckets() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), 64);
    }

    #[test]
    fn bounds_partition_the_domain() {
        for i in 1..64 {
            assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1));
            assert_eq!(bucket(bucket_lo(i)), i);
            assert_eq!(bucket(bucket_hi(i)), i);
        }
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        // 499 lives in [256, 511]; the bucket bound must cover it.
        assert!((499 / 2..=999).contains(&p50));
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(7);
        b.record(900);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 900);
        assert!((a.mean() - 304.0).abs() < 1e-9);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(10);
        let mut w = crate::json::JsonWriter::new();
        w.open_object(None);
        h.write_json(&mut w, "lat");
        w.close_object();
        let j = w.finish();
        assert!(j.contains("\"lat\""), "{j}");
        assert!(j.contains("\"p95\""), "{j}");
        assert!(j.contains("\"p99\""), "{j}");
        assert!(j.contains("\"buckets\""), "{j}");
    }

    #[test]
    fn summary_json_omits_buckets() {
        let mut h = Histogram::new();
        h.record(10);
        let mut w = crate::json::JsonWriter::new();
        w.open_object(None);
        h.write_summary(&mut w, "lat");
        w.close_object();
        let j = w.finish();
        assert!(j.contains("\"p50\""), "{j}");
        assert!(j.contains("\"p95\""), "{j}");
        assert!(!j.contains("\"buckets\""), "{j}");
    }
}
