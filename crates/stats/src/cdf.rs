//! Weighted cumulative distributions of series lengths (paper Figure 2).

use std::collections::BTreeMap;

/// A cumulative distribution of series lengths, weighted by the number of
/// instructions in each series (i.e., by the series length itself).
///
/// Paper Figure 2 plots, for consecutive runs of in-sequence or reordered
/// instructions, the fraction of *instructions* that live in series of at
/// most a given length. A series of length `L` containing `L` instructions
/// therefore contributes weight `L` at length `L`.
///
/// # Example
///
/// ```
/// use shelfsim_stats::WeightedCdf;
///
/// let mut cdf = WeightedCdf::new();
/// cdf.record(2); // two instructions in a 2-series
/// cdf.record(8); // eight instructions in an 8-series
/// assert!((cdf.fraction_at_or_below(2) - 0.2).abs() < 1e-12);
/// assert!((cdf.fraction_at_or_below(8) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WeightedCdf {
    /// `short[l]`: series of length `l`, for `0 < l < SHORT_LIMIT`. Grown
    /// on demand to one past the longest short series recorded, so equal
    /// distributions have equal tables.
    short: Vec<u64>,
    /// Series of length `SHORT_LIMIT` or more.
    long: BTreeMap<u64, u64>,
    total_weight: u64,
}

/// Series shorter than this are counted in a table, not the ordered map:
/// most committed series are (the paper's average group is 5–20
/// instructions), and a table increment is far cheaper than a map insert.
/// A longer table raised peak memory measurably on 4-thread batches.
const SHORT_LIMIT: u64 = 64;

impl WeightedCdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one series of `length` instructions.
    ///
    /// Series of length zero are ignored (they contain no instructions).
    pub fn record(&mut self, length: u64) {
        self.add(length, 1);
    }

    /// Counts `n` series of `length` instructions (`length > 0`).
    fn add(&mut self, length: u64, n: u64) {
        if length == 0 || n == 0 {
            return;
        }
        if length < SHORT_LIMIT {
            let l = length as usize;
            if l >= self.short.len() {
                self.short.resize(l + 1, 0);
            }
            self.short[l] += n;
        } else {
            *self.long.entry(length).or_insert(0) += n;
        }
        self.total_weight += length * n;
    }

    /// Every recorded `(length, series)` pair, by ascending length.
    fn counts(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        let short = self
            .short
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(l, &n)| (l as u64, n));
        short.chain(self.long.iter().map(|(&l, &n)| (l, n)))
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &WeightedCdf) {
        for (len, n) in other.counts() {
            self.add(len, n);
        }
    }

    /// Total number of instructions across all recorded series.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of recorded series.
    pub fn num_series(&self) -> u64 {
        self.counts().map(|(_, n)| n).sum()
    }

    /// Fraction of instructions living in series of length `<= length`.
    ///
    /// Returns 0.0 for an empty distribution.
    pub fn fraction_at_or_below(&self, length: u64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let below: u64 = self
            .counts()
            .take_while(|&(l, _)| l <= length)
            .map(|(l, n)| l * n)
            .sum();
        below as f64 / self.total_weight as f64
    }

    /// Smallest series length `L` such that at least `q` (0..=1) of the
    /// instruction weight lies in series of length `<= L`.
    ///
    /// `q = 0.0` is defined as the minimum recorded series length: zero
    /// weight is covered by any recorded length, and the smallest one is
    /// the unique tightest answer. (Previously this fell out of the
    /// accumulation loop by accident — `target` rounded to 0, so the first
    /// map entry always satisfied it; the behavior is now explicit and
    /// pinned by a test.)
    ///
    /// Returns `None` for an empty distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total_weight == 0 {
            return None;
        }
        if q == 0.0 {
            return self.counts().next().map(|(l, _)| l);
        }
        let target = (q * self.total_weight as f64).ceil() as u64;
        let mut acc = 0u64;
        for (len, n) in self.counts() {
            acc += len * n;
            if acc >= target {
                return Some(len);
            }
        }
        self.max_length()
    }

    /// Maximum recorded series length.
    pub fn max_length(&self) -> Option<u64> {
        self.counts().next_back().map(|(l, _)| l)
    }

    /// Mean series length weighted by instruction count (the "average group
    /// size" of paper §I, reported as 5–20 instructions).
    pub fn weighted_mean_length(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let sq: u64 = self.counts().map(|(l, n)| l * l * n).sum();
        sq as f64 / self.total_weight as f64
    }

    /// Plain (unweighted) mean series length.
    pub fn mean_length(&self) -> f64 {
        let n = self.num_series();
        if n == 0 {
            return 0.0;
        }
        self.total_weight as f64 / n as f64
    }

    /// The CDF evaluated at each length in `lengths`, for plotting.
    pub fn sample(&self, lengths: &[u64]) -> Vec<(u64, f64)> {
        lengths
            .iter()
            .map(|&l| (l, self.fraction_at_or_below(l)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_is_zero() {
        let cdf = WeightedCdf::new();
        assert_eq!(cdf.fraction_at_or_below(100), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.max_length(), None);
        assert_eq!(cdf.mean_length(), 0.0);
    }

    #[test]
    fn zero_length_series_ignored() {
        let mut cdf = WeightedCdf::new();
        cdf.record(0);
        assert_eq!(cdf.total_weight(), 0);
        assert_eq!(cdf.num_series(), 0);
    }

    #[test]
    fn weighting_by_length() {
        let mut cdf = WeightedCdf::new();
        // 10 series of length 1 (10 instructions) and 1 series of length 90.
        for _ in 0..10 {
            cdf.record(1);
        }
        cdf.record(90);
        assert_eq!(cdf.total_weight(), 100);
        assert!((cdf.fraction_at_or_below(1) - 0.10).abs() < 1e-12);
        assert!((cdf.fraction_at_or_below(89) - 0.10).abs() < 1e-12);
        assert!((cdf.fraction_at_or_below(90) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_finds_covering_length() {
        let mut cdf = WeightedCdf::new();
        cdf.record(10);
        cdf.record(30);
        cdf.record(60);
        // 10% of weight at length 10; 40% at <=30; 100% at <=60.
        assert_eq!(cdf.quantile(0.05), Some(10));
        assert_eq!(cdf.quantile(0.4), Some(30));
        assert_eq!(cdf.quantile(0.99), Some(60));
        assert_eq!(cdf.quantile(1.0), Some(60));
    }

    #[test]
    fn quantile_zero_is_minimum_recorded_length() {
        let mut cdf = WeightedCdf::new();
        cdf.record(30);
        cdf.record(10);
        cdf.record(60);
        // q = 0 is defined as the minimum recorded length, regardless of
        // how the weight is distributed.
        assert_eq!(cdf.quantile(0.0), Some(10));
        // Empty distribution still has no answer at q = 0.
        assert_eq!(WeightedCdf::new().quantile(0.0), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = WeightedCdf::new();
        a.record(5);
        let mut b = WeightedCdf::new();
        b.record(5);
        b.record(10);
        a.merge(&b);
        assert_eq!(a.total_weight(), 20);
        assert_eq!(a.num_series(), 3);
    }

    #[test]
    fn weighted_mean_exceeds_plain_mean() {
        let mut cdf = WeightedCdf::new();
        cdf.record(1);
        cdf.record(99);
        assert!((cdf.mean_length() - 50.0).abs() < 1e-12);
        // Weighted by instructions: almost all instructions are in the big series.
        assert!(cdf.weighted_mean_length() > 95.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let _ = WeightedCdf::new().quantile(1.5);
    }

    #[test]
    fn sample_returns_pairs() {
        let mut cdf = WeightedCdf::new();
        cdf.record(4);
        let pts = cdf.sample(&[1, 4, 8]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1], (4, 1.0));
    }
}
