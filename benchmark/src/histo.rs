//! Log-linear latency histogram: 32 sub-buckets per power of two.
//!
//! `smr_common::telemetry::Histo` is log2 (it can only answer "255 ns" or
//! "511 ns"), which cannot resolve the 5–10% moves the benchmark's bounds
//! are set at. Here [`Histo::quantile_bound`] is the covering bucket's upper
//! bound clamped to the observed maximum — never below the true order
//! statistic and at most 1/32 above it — and [`Histo::quantile`], the value
//! the metrics report, interpolates by rank inside that same bucket, so it
//! moves continuously with the samples instead of in 3% steps (a percentile
//! that reads exactly the same on every run cannot show a regression).

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` get one bucket each.
const EXACT: usize = 2 * SUB;
const BUCKETS: usize = EXACT + (64 - SUB_BITS as usize - 1) * SUB;

#[derive(Clone)]
pub struct Histo {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl Default for Histo {
    fn default() -> Self {
        Self {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            max: 0,
        }
    }
}

#[inline]
fn index(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let e = v.ilog2();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    EXACT + (e - SUB_BITS - 1) as usize * SUB + sub
}

/// Smallest value mapping to bucket `i`.
fn lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        upper_bound(i - 1) + 1
    }
}

/// Largest value mapping to bucket `i`.
fn upper_bound(i: usize) -> u64 {
    if i < EXACT {
        return i as u64;
    }
    let e = ((i - EXACT) / SUB) as u32 + SUB_BITS + 1;
    let sub = ((i - EXACT) % SUB) as u64;
    // The top bucket's bound is 2^64 - 1: compute in u128.
    (((SUB as u128 + sub as u128 + 1) << (e - SUB_BITS)) - 1) as u64
}

impl Histo {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples strictly above the `q` order statistic's rank.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.count - self.rank(q)
    }

    fn rank(&self, q: f64) -> u64 {
        ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1))
    }

    /// The bucket holding the value of rank `ceil(q * count)`, and how many
    /// samples lie below that bucket.
    fn covering(&self, q: f64) -> (usize, u64) {
        let rank = self.rank(q);
        let mut below = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if below + n >= rank {
                return (i, below);
            }
            below += n;
        }
        (BUCKETS - 1, below)
    }

    /// The `q`-quantile (`0 < q <= 1`) rounded up to its bucket's bound:
    /// never under the true order statistic, at most 1/32 over. 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        upper_bound(self.covering(q).0).min(self.max)
    }

    /// The `q`-quantile, interpolated by rank between the covering bucket's
    /// bounds (samples taken as evenly spread inside it): within 1/32 of the
    /// true order statistic either way. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let (i, below) = self.covering(q);
        let (lo, hi) = (lower_bound(i) as f64, upper_bound(i).min(self.max) as f64);
        let into = (q * self.count as f64 - below as f64) / self.buckets[i] as f64;
        lo + (hi - lo).max(0.0) * into.clamp(0.0, 1.0)
    }

    pub fn merge(&mut self, other: &Histo) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in (0..5_000u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3, u64::MAX]) {
            let i = index(v);
            assert!(upper_bound(i) >= v, "v={v}");
            assert!(i == 0 || upper_bound(i - 1) < v, "v={v}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_never_under_and_at_most_one_thirtysecond_over() {
        let mut rng = SplitMix64::new(11);
        // A heavy-tailed mixture like an op-latency sample: a body near
        // 300 ns and a sparse tail out to milliseconds.
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| {
                if rng.below(100) == 0 {
                    1_000 + rng.below(3_000_000)
                } else {
                    200 + rng.below(250)
                }
            })
            .collect();
        let mut h = Histo::default();
        values.iter().for_each(|&v| h.record(v));
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let oracle = values[rank - 1];
            let got = h.quantile_bound(q);
            assert!(got >= oracle, "q={q}: {got} under the oracle {oracle}");
            assert!(
                (got - oracle) as f64 <= oracle as f64 / 32.0,
                "q={q}: {got} more than 1/32 over the oracle {oracle}"
            );
            let smooth = h.quantile(q);
            assert!(
                (smooth - oracle as f64).abs() <= oracle as f64 / 32.0 && smooth <= got as f64,
                "q={q}: interpolated {smooth} strays from the oracle {oracle}"
            );
        }
        assert_eq!(h.quantile_bound(1.0), *values.last().unwrap());
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.samples_beyond(0.99), 2_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = SplitMix64::new(5);
        let (mut a, mut b, mut both) = (Histo::default(), Histo::default(), Histo::default());
        for i in 0..10_000 {
            let v = rng.below(1 << 22);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            both.record(v);
        }
        a.merge(&b);
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
            assert_eq!(a.quantile_bound(q), both.quantile_bound(q));
        }
        assert_eq!((a.count(), a.max()), (both.count(), both.max()));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histo::default();
        assert_eq!(
            (h.quantile(0.5), h.quantile_bound(0.5), h.count(), h.max()),
            (0.0, 0, 0, 0)
        );
    }
}
