//! Histograms, PDFs and empirical CDFs in the style of the paper's figures.
//!
//! The measurement figures come in two shapes: CDF plots with annotated
//! mean/median/max (Figs 4, 7, 13–15, 20, 22, 26) and PDF plots showing the
//! multi-modal structure (Figs 16, 18, 19). [`Ecdf`] and [`Histogram`]
//! produce exactly those series.

use crate::descriptive;

/// The total of a captured count vector; an overflow is a caller's bug
/// and stops loudly in every build instead of wrapping in release.
fn checked_total(counts: &[u64]) -> u64 {
    counts
        .iter()
        .try_fold(0u64, |total, &c| total.checked_add(c))
        .expect("bin counts sum past u64::MAX")
}

/// A fixed-width-bin histogram over `[lo, hi)`.
///
/// Out-of-range observations are clamped into the first/last bin so that a
/// histogram over e.g. `[0, 1000)` Mbps still accounts for the occasional
/// 1,032 Mbps outlier the paper reports.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Build a histogram directly from a sample.
    pub fn from_values(lo: f64, hi: f64, bins: usize, values: &[f64]) -> Self {
        let mut h = Self::new(lo, hi, bins);
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Record one observation.
    pub fn add(&mut self, value: f64) {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let idx = ((value - self.lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Centre x-coordinate of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Normalised density series `(bin_center, pdf)` such that
    /// `Σ pdf·width = 1`. Empty histogram yields all-zero densities.
    pub fn pdf(&self) -> Vec<(f64, f64)> {
        let width = self.bin_width();
        let norm = if self.total == 0 {
            0.0
        } else {
            1.0 / (self.total as f64 * width)
        };
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 * norm))
            .collect()
    }

    /// Probability mass per bin (sums to 1 for a non-empty histogram).
    pub fn pmf(&self) -> Vec<(f64, f64)> {
        let norm = if self.total == 0 {
            0.0
        } else {
            1.0 / self.total as f64
        };
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 * norm))
            .collect()
    }

    /// Rebuild a histogram from a previously captured count vector, e.g.
    /// when decoding accumulator state from a snapshot.
    ///
    /// # Panics
    /// Panics if `counts` is empty, `lo >= hi`, or the counts sum past
    /// `u64::MAX` (a decoder bounds them before calling this).
    pub fn from_counts(lo: f64, hi: f64, counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        let total = checked_total(&counts);
        Self {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Raw per-bin counts, in bin order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram with the same shape into this one.
    ///
    /// Counts are exact integer sums, so merging is associative and
    /// commutative: any merge order yields the same histogram as observing
    /// the concatenated sample.
    ///
    /// # Panics
    /// Panics if the two histograms differ in range or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "cannot merge histograms of different shape"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Indices of local maxima of the count series that exceed
    /// `min_fraction` of the total mass — a quick peak detector used to
    /// sanity-check GMM mode recovery against the raw data.
    pub fn peaks(&self, min_fraction: f64) -> Vec<usize> {
        let n = self.counts.len();
        let mut peaks = Vec::new();
        for i in 0..n {
            let c = self.counts[i];
            if (c as f64) < min_fraction * self.total as f64 {
                continue;
            }
            let left_ok = i == 0 || self.counts[i - 1] <= c;
            let right_ok = i == n - 1 || self.counts[i + 1] < c;
            if left_ok && right_ok {
                peaks.push(i);
            }
        }
        peaks
    }
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
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.representative(i), c as f64))
            .collect()
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
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5); // bin 0
        h.add(9.9); // bin 9
        h.add(-5.0); // clamped to bin 0
        h.add(50.0); // clamped to bin 9
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::from_values(0.0, 10.0, 20, &values);
        let integral: f64 = h.pdf().iter().map(|(_, d)| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_sums_to_one() {
        let h = Histogram::from_values(0.0, 1.0, 4, &[0.1, 0.2, 0.6, 0.9]);
        let s: f64 = h.pmf().iter().map(|(_, p)| p).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peaks_finds_bimodal_structure() {
        // Two clear clusters around 2 and 8.
        let mut values = Vec::new();
        for i in 0..100 {
            values.push(2.0 + (i % 10) as f64 * 0.01);
            values.push(8.0 + (i % 10) as f64 * 0.01);
        }
        let h = Histogram::from_values(0.0, 10.0, 10, &values);
        let peaks = h.peaks(0.05);
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn empty_histogram_pdf_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.pdf().iter().all(|&(_, d)| d == 0.0));
    }

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
    fn histogram_merge_equals_concatenated_observe() {
        let all: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.773).sin() * 40.0 + 50.0)
            .collect();
        let whole = Histogram::from_values(0.0, 100.0, 25, &all);
        let mut left = Histogram::from_values(0.0, 100.0, 25, &all[..201]);
        let right = Histogram::from_values(0.0, 100.0, 25, &all[201..]);
        left.merge(&right);
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.total(), whole.total());
    }

    #[test]
    fn histogram_from_counts_roundtrips() {
        let h = Histogram::from_values(0.0, 10.0, 5, &[1.0, 3.0, 3.5, 9.0]);
        let back = Histogram::from_counts(0.0, 10.0, h.counts().to_vec());
        assert_eq!(back.counts(), h.counts());
        assert_eq!(back.total(), h.total());
        assert_eq!(back.bin_center(2), h.bin_center(2));
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
