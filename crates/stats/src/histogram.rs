//! Empirical CDFs in the style of the paper's figures, and the
//! log-bucketed counts the binned EM fits.
//!
//! The measurement figures come in two shapes: CDF plots with annotated
//! mean/median/max (Figs 4, 7, 13–15, 20, 22, 26), which [`Ecdf`]
//! produces, and PDF plots showing the multi-modal structure (Figs 16,
//! 18, 19), whose mixtures are fitted from [`LogBins`].

use crate::descriptive;

/// The total of a captured count vector; an overflow is a caller's bug
/// and stops loudly in every build instead of wrapping in release.
fn checked_total(counts: &[u64]) -> u64 {
    counts
        .iter()
        .try_fold(0u64, |total, &c| total.checked_add(c))
        .expect("bin counts sum past u64::MAX")
}

/// Empirical CDF over a sample, with the annotation values the paper's CDF
/// figures carry (mean / median / max).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from an unsorted sample.
    ///
    /// # Panics
    /// Panics if the sample contains NaN.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Self { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point: count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value with CDF ≥ `q` (q in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        descriptive::percentile_sorted(&self.sorted, q.clamp(0.0, 1.0) * 100.0)
    }

    /// Mean of the underlying sample.
    pub fn mean(&self) -> f64 {
        descriptive::mean(&self.sorted)
    }

    /// Median of the underlying sample.
    pub fn median(&self) -> f64 {
        descriptive::percentile_sorted(&self.sorted, 50.0)
    }

    /// Maximum of the underlying sample (0 for empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Evenly spaced `(x, F(x))` series with `points` samples spanning the
    /// data range — what a plotting frontend would consume.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap();
        if lo == hi {
            return vec![(lo, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Two-sample Kolmogorov–Smirnov statistic `sup |F₁ - F₂|`, used by
    /// tests to check that generated populations match their target
    /// distributions in shape.
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

/// A log-bucketed histogram carrying the sufficient statistics for binned
/// GMM fitting ([`crate::gmm::Gmm::fit_binned`]).
///
/// Bin edges are geometrically spaced over `(lo, hi)`: edge `i` sits at
/// `lo · r^i` with `r = (hi/lo)^(1/bins)`, so every bin has the same
/// *relative* width `r - 1`. An extra underflow bin (index 0) absorbs
/// values `<= lo` (including zero and negatives), and values `>= hi` clamp
/// into the last log bin. Each bin is represented by the geometric mean of
/// its edges, which bounds the representative-vs-sample relative error by
/// `sqrt(r) - 1` — about 0.9% at the default 512 bins over four decades.
///
/// Counts are `u64` and merge by exact integer addition, so `LogBins` is
/// order-invariant under merge: shard-parallel and distributed reductions
/// produce bit-identical state, which is what makes the binned fit
/// thread-count- and reduce-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct LogBins {
    lo: f64,
    hi: f64,
    /// `counts[0]` is the underflow bin; `counts[1..]` are the log bins.
    counts: Vec<u64>,
    total: u64,
}

/// Default number of log bins used by the analysis accumulators.
pub const DEFAULT_LOG_BINS: usize = 512;

impl LogBins {
    /// Create a log-bucketed histogram with `bins` geometric bins over
    /// `(lo, hi)` plus one underflow bin.
    ///
    /// # Panics
    /// Panics if `bins == 0`, `lo <= 0`, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "log histogram needs at least one bin");
        assert!(lo > 0.0, "log histogram needs a positive lower bound");
        assert!(lo < hi, "log histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins + 1],
            total: 0,
        }
    }

    /// The standard shape the analysis accumulators use for a figure whose
    /// rendered range tops out at `hi` Mbps: four decades of dynamic range
    /// (`lo = hi / 10⁴`) across [`DEFAULT_LOG_BINS`] bins.
    pub fn for_range(hi: f64) -> Self {
        Self::new(hi / 1e4, hi, DEFAULT_LOG_BINS)
    }

    /// Record one observation.
    pub fn add(&mut self, value: f64) {
        let bins = self.counts.len() - 1;
        // NaN compares false and lands in the underflow bin with `<= lo`.
        let idx = if value > self.lo {
            let frac = (value / self.lo).ln() / (self.hi / self.lo).ln();
            let i = (frac * bins as f64).floor().max(0.0) as usize;
            1 + i.min(bins - 1)
        } else {
            0
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of log bins (excluding the underflow bin).
    pub fn bins(&self) -> usize {
        self.counts.len() - 1
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-bin counts (underflow bin first), in bin order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Representative value for bin `i` of [`Self::counts`]: the geometric
    /// mean of the bin's edges, or `lo · r^(-1/2)` for the underflow bin.
    pub fn representative(&self, i: usize) -> f64 {
        let bins = (self.counts.len() - 1) as f64;
        let r = (self.hi / self.lo).powf(1.0 / bins);
        if i == 0 {
            self.lo / r.sqrt()
        } else {
            self.lo * r.powf(i as f64 - 0.5)
        }
    }

    /// The occupied bins as `(representative, count)` pairs in bin order —
    /// the weighted sample the binned EM iterates.
    pub fn weighted_points(&self) -> Vec<(f64, f64)> {
        // Sized exactly: collecting through `filter` would grow the
        // vector by doubling, to four times the pairs it holds.
        let occupied = self.counts.iter().filter(|&&c| c > 0).count();
        let mut points = Vec::with_capacity(occupied);
        points.extend(
            self.counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (self.representative(i), c as f64)),
        );
        points
    }

    /// Rebuild from a previously captured count vector (underflow bin
    /// first). Inverse of [`Self::counts`] given the same `lo`/`hi`.
    ///
    /// # Panics
    /// Panics if `counts` has fewer than two entries, `lo <= 0`,
    /// `lo >= hi`, or the counts sum past `u64::MAX` (a decoder bounds
    /// them before calling this).
    pub fn from_counts(lo: f64, hi: f64, counts: Vec<u64>) -> Self {
        assert!(counts.len() >= 2, "log histogram needs at least one bin");
        assert!(lo > 0.0, "log histogram needs a positive lower bound");
        assert!(lo < hi, "log histogram range must be non-empty");
        let total = checked_total(&counts);
        Self {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Fold in the counts of a log histogram of this shape, underflow bin
    /// first, without building it: [`Self::merge`] of a histogram whose
    /// [`Self::counts`] they are. A decoder reads them straight out of
    /// its bytes, having bounded their sum.
    ///
    /// # Panics
    /// Panics if `counts` holds a different number of bins.
    pub fn merge_counts(&mut self, counts: impl ExactSizeIterator<Item = u64>) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "cannot merge log histograms of different shape"
        );
        for (c, o) in self.counts.iter_mut().zip(counts) {
            *c += o;
            self.total += o;
        }
    }

    /// Fold another log histogram with the same shape into this one.
    /// Exact integer addition: associative, commutative, order-invariant.
    ///
    /// # Panics
    /// Panics if the two histograms differ in range or bin count.
    pub fn merge(&mut self, other: &LogBins) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "cannot merge log histograms of different shape"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_eval_step_behaviour() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert!((e.eval(2.0) - 0.5).abs() < 1e-12);
        assert!((e.eval(2.5) - 0.5).abs() < 1e-12);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_annotations() {
        let e = Ecdf::new(&[10.0, 20.0, 90.0]);
        assert!((e.mean() - 40.0).abs() < 1e-12);
        assert!((e.median() - 20.0).abs() < 1e-12);
        assert_eq!(e.max(), 90.0);
    }

    #[test]
    fn ecdf_quantile_roundtrip() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = Ecdf::new(&values);
        assert!((e.quantile(0.5) - 50.5).abs() < 1e-9);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    fn ecdf_series_monotone() {
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.37).sin() * 50.0 + 60.0)
            .collect();
        let e = Ecdf::new(&values);
        let series = e.series(100);
        assert_eq!(series.len(), 100);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((series.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum past u64::MAX")]
    fn from_counts_refuses_to_wrap_its_total() {
        let _ = LogBins::from_counts(0.1, 10.0, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn logbins_places_values_in_relative_buckets() {
        let mut lb = LogBins::new(0.1, 1000.0, 512);
        lb.add(0.0); // underflow
        lb.add(-3.0); // underflow
        lb.add(0.05); // underflow
        lb.add(50.0);
        lb.add(5000.0); // clamps into last bin
        assert_eq!(lb.counts()[0], 3);
        assert_eq!(lb.total(), 5);
        assert_eq!(lb.counts()[lb.bins()], 1);
        // The representative of an interior value's bin is within one
        // relative bin width of the value itself.
        let pts = lb.weighted_points();
        let (rep, _) = pts
            .iter()
            .find(|&&(x, _)| (x / 50.0 - 1.0).abs() < 0.02)
            .copied()
            .expect("50 Mbps bin present");
        assert!(rep > 0.0);
    }

    #[test]
    fn logbins_merge_is_order_invariant() {
        let vals: Vec<f64> = (0..400)
            .map(|i| 0.2 + (i as f64 * 0.37).cos().abs() * 400.0)
            .collect();
        let mut whole = LogBins::for_range(1000.0);
        for &v in &vals {
            whole.add(v);
        }
        let mut a = LogBins::for_range(1000.0);
        let mut b = LogBins::for_range(1000.0);
        for (i, &v) in vals.iter().enumerate() {
            if i % 3 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn logbins_from_counts_roundtrips() {
        let mut lb = LogBins::for_range(500.0);
        for v in [0.0, 0.3, 12.0, 480.0, 9000.0] {
            lb.add(v);
        }
        let back = LogBins::from_counts(500.0 / 1e4, 500.0, lb.counts().to_vec());
        assert_eq!(back, lb);
    }

    #[test]
    fn ks_identical_zero_disjoint_one() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_statistic(&b), 0.0);
        let c = Ecdf::new(&[100.0, 200.0]);
        assert_eq!(a.ks_statistic(&c), 1.0);
    }
}
