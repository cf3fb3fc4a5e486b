//! Bandwidth-estimation algorithms.
//!
//! Every BTS collects a stream of 50 ms throughput samples and must turn
//! them into one number while deciding when to stop. The four algorithms
//! in the paper differ exactly there (§2, §5.1):
//!
//! | service | stop rule | estimate |
//! |---|---|---|
//! | BTS-APP | fixed duration (200 samples) | 20 groups of 10; drop 5 lowest + 2 highest group means; average |
//! | Speedtest | fixed duration | drop bottom 25% / top 10% of samples; average |
//! | FAST | last 10 samples within 3% | mean of those samples |
//! | FastBTS | crucial interval stable | mean of densest sample interval |
//! | Swiftest | last 10 samples within 3% | mean of those samples |

use mbw_stats::descriptive;
use std::cmp::Ordering;

/// Whether a test should keep probing after a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorDecision {
    /// Keep collecting samples.
    Continue,
    /// The estimator has converged on a final result (Mbps).
    Done(f64),
}

/// Streaming bandwidth estimator fed one 50 ms sample at a time.
pub trait BandwidthEstimator {
    /// Digest one sample (Mbps); may declare the test finished.
    fn push(&mut self, sample_mbps: f64) -> EstimatorDecision;

    /// Best-effort result if the test is stopped right now (e.g. the
    /// probing deadline fired). `None` when no samples have arrived.
    fn finalize(&self) -> Option<f64>;

    /// Samples consumed so far.
    fn len(&self) -> usize;

    /// True when no samples have arrived.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// BTS-APP's estimator (§2): collect `groups × group_size` samples,
/// average each group, discard the `drop_low` lowest and `drop_high`
/// highest group means, and average the rest. The paper's production
/// parameters (matching Speedtest) are 20 × 10, drop 5 + 2.
#[derive(Debug, Clone)]
pub struct GroupedTrimmedMean {
    samples: Vec<f64>,
    groups: usize,
    group_size: usize,
    drop_low: usize,
    drop_high: usize,
}

impl GroupedTrimmedMean {
    /// The production BTS-APP configuration: 200 samples in 20 groups,
    /// drop 5 lowest and 2 highest group means.
    pub fn bts_app() -> Self {
        Self::new(20, 10, 5, 2)
    }

    /// Custom grouping (for ablations).
    ///
    /// # Panics
    /// Panics if the trim would discard every group.
    pub fn new(groups: usize, group_size: usize, drop_low: usize, drop_high: usize) -> Self {
        assert!(groups > 0 && group_size > 0);
        assert!(drop_low + drop_high < groups, "trim discards all groups");
        Self {
            samples: Vec::new(),
            groups,
            group_size,
            drop_low,
            drop_high,
        }
    }

    /// Total samples this estimator wants.
    pub fn target_samples(&self) -> usize {
        self.groups * self.group_size
    }

    fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let means: Vec<f64> = self
            .samples
            .chunks(self.group_size)
            .map(descriptive::mean)
            .collect();
        // With a full run there are exactly `groups` means; a truncated
        // run trims proportionally fewer.
        let scale = means.len() as f64 / self.groups as f64;
        let low = (self.drop_low as f64 * scale).floor() as usize;
        let high = (self.drop_high as f64 * scale).floor() as usize;
        descriptive::trimmed_mean(&means, low, high).or_else(|| Some(descriptive::mean(&means)))
    }
}

impl BandwidthEstimator for GroupedTrimmedMean {
    fn push(&mut self, sample_mbps: f64) -> EstimatorDecision {
        self.samples.push(sample_mbps);
        if self.samples.len() >= self.target_samples() {
            EstimatorDecision::Done(self.estimate().expect("samples present"))
        } else {
            EstimatorDecision::Continue
        }
    }

    fn finalize(&self) -> Option<f64> {
        self.estimate()
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    fn name(&self) -> &'static str {
        "grouped-trimmed-mean"
    }
}

/// Speedtest's static filter (§5.1): run for a fixed number of samples,
/// "filter out the top 10% and bottom 25% bandwidth samples, and then
/// average the remaining ones".
#[derive(Debug, Clone)]
pub struct SpeedtestTrim {
    samples: Vec<f64>,
    target: usize,
}

impl SpeedtestTrim {
    /// Speedtest's 15-second test at 50 ms sampling = 300 samples.
    pub fn speedtest() -> Self {
        Self::new(300)
    }

    /// Custom duration (in samples).
    ///
    /// # Panics
    /// Panics if `target` is zero.
    pub fn new(target: usize) -> Self {
        assert!(target > 0);
        Self {
            samples: Vec::new(),
            target,
        }
    }
}

impl BandwidthEstimator for SpeedtestTrim {
    fn push(&mut self, sample_mbps: f64) -> EstimatorDecision {
        self.samples.push(sample_mbps);
        if self.samples.len() >= self.target {
            EstimatorDecision::Done(self.finalize().expect("samples present"))
        } else {
            EstimatorDecision::Continue
        }
    }

    fn finalize(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        descriptive::fraction_trimmed_mean(&self.samples, 0.25, 0.10)
            .or_else(|| Some(descriptive::mean(&self.samples)))
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    fn name(&self) -> &'static str {
        "speedtest-trim"
    }
}

/// FAST's and Swiftest's stop rule (§5.1): the test ends when the last
/// `window` samples differ by no more than `tolerance` (max−min relative
/// to max); the result is their mean.
#[derive(Debug, Clone)]
pub struct ConvergenceEstimator {
    samples: Vec<f64>,
    window: usize,
    tolerance: f64,
    /// Samples to ignore at the start (FAST discards the first moments
    /// of slow start; Swiftest needs no warm-up).
    warmup: usize,
}

impl ConvergenceEstimator {
    /// The Swiftest configuration: 10-sample window, 3% tolerance,
    /// no warm-up.
    pub fn swiftest() -> Self {
        Self::new(10, 0.03, 0)
    }

    /// The FAST configuration: same convergence rule over TCP samples,
    /// but with a substantial warm-up — fast.com discards the early
    /// slow-start-dominated seconds before it starts judging stability,
    /// which is why its TCP tests run much longer than Swiftest (§5.3:
    /// 13.5 s average).
    pub fn fast() -> Self {
        Self::new(10, 0.03, 40)
    }

    /// Custom window/tolerance (ablations).
    ///
    /// # Panics
    /// Panics on a zero window or non-positive tolerance.
    pub fn new(window: usize, tolerance: f64, warmup: usize) -> Self {
        assert!(window >= 2, "need at least two samples to compare");
        assert!(tolerance > 0.0);
        Self {
            samples: Vec::new(),
            window,
            tolerance,
            warmup,
        }
    }

    fn tail(&self) -> Option<&[f64]> {
        let usable = self.samples.len().saturating_sub(self.warmup);
        if usable < self.window {
            return None;
        }
        Some(&self.samples[self.samples.len() - self.window..])
    }
}

impl BandwidthEstimator for ConvergenceEstimator {
    fn push(&mut self, sample_mbps: f64) -> EstimatorDecision {
        self.samples.push(sample_mbps);
        if let Some(tail) = self.tail() {
            let max = tail.iter().cloned().fold(0.0, f64::max);
            let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
            if max > 0.0 && (max - min) / max <= self.tolerance {
                return EstimatorDecision::Done(descriptive::mean(tail));
            }
        }
        EstimatorDecision::Continue
    }

    fn finalize(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let tail = &self.samples[n.saturating_sub(self.window)..];
        Some(descriptive::mean(tail))
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    fn name(&self) -> &'static str {
        "convergence"
    }
}

/// FastBTS's crucial-interval estimator (§5.1): among all intervals of
/// sorted samples, pick the one maximising *density × quantity*; the
/// estimate is the mean of the samples inside. The test stops once the
/// crucial interval's mean is stable — which is exactly how it converges
/// prematurely while TCP is still ramping (the densest cluster sits at a
/// low rate during slow start).
#[derive(Debug, Clone)]
pub struct CrucialIntervalEstimator {
    samples: Vec<f64>,
    /// `samples` in ascending order, kept by insertion on every push:
    /// element for element what a stable sort of `samples` gives.
    sorted: Vec<f64>,
    /// Require at least this many samples before evaluating.
    min_samples: usize,
    /// Stability: consecutive crucial-interval means within this ratio.
    stability: f64,
    /// How many consecutive stable evaluations end the test.
    stable_needed: u32,
    stable_count: u32,
    last_mean: Option<f64>,
}

impl CrucialIntervalEstimator {
    /// FastBTS-like defaults. The real system bootstraps its interval
    /// across connections before trusting it; the evidence floor here
    /// (24 samples ≈ 1.2 s) plays that role.
    pub fn fastbts() -> Self {
        Self {
            samples: Vec::new(),
            sorted: Vec::new(),
            min_samples: 24,
            stability: 0.05,
            stable_needed: 5,
            stable_count: 0,
            last_mean: None,
        }
    }

    /// The crucial interval over the current samples:
    /// `(low, high, mean)`. Exposed for tests and diagnostics.
    pub fn crucial_interval(&self) -> Option<(f64, f64, f64)> {
        crucial_interval_of(&self.sorted)
    }
}

/// The crucial interval `(low, high, mean)` of ascending `sorted`.
fn crucial_interval_of(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    if sorted.len() < 4 {
        return None;
    }
    let n = sorted.len();
    // Evaluate every window containing at least a quarter of the
    // samples; score = count² / (width + ε) = density × quantity.
    let min_count = (n / 4).max(2);
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..n {
        for j in (i + min_count - 1)..n {
            let count = j - i + 1;
            let width = sorted[j] - sorted[i];
            let score = (count * count) as f64 / (width + 1.0);
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((i, j, score));
            }
        }
    }
    best.map(|(i, j, _)| {
        let slice = &sorted[i..=j];
        (sorted[i], sorted[j], descriptive::mean(slice))
    })
}

impl BandwidthEstimator for CrucialIntervalEstimator {
    fn push(&mut self, sample_mbps: f64) -> EstimatorDecision {
        self.samples.push(sample_mbps);
        // After every element that does not compare greater: where a
        // stable sort leaves the newest of equal samples.
        let at = self.sorted.partition_point(|x| {
            x.partial_cmp(&sample_mbps).expect("finite samples") != Ordering::Greater
        });
        self.sorted.insert(at, sample_mbps);
        if self.samples.len() < self.min_samples {
            return EstimatorDecision::Continue;
        }
        let (_, _, mean) = self.crucial_interval().expect("enough samples");
        if let Some(prev) = self.last_mean {
            let drift = (mean - prev).abs() / prev.max(f64::MIN_POSITIVE);
            if drift <= self.stability {
                self.stable_count += 1;
                if self.stable_count >= self.stable_needed {
                    self.last_mean = Some(mean);
                    return EstimatorDecision::Done(mean);
                }
            } else {
                self.stable_count = 0;
            }
        }
        self.last_mean = Some(mean);
        EstimatorDecision::Continue
    }

    fn finalize(&self) -> Option<f64> {
        self.crucial_interval().map(|(_, _, m)| m).or_else(|| {
            if self.samples.is_empty() {
                None
            } else {
                Some(descriptive::mean(&self.samples))
            }
        })
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    fn name(&self) -> &'static str {
        "crucial-interval"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn feed(est: &mut dyn BandwidthEstimator, samples: &[f64]) -> Option<f64> {
        for &s in samples {
            if let EstimatorDecision::Done(v) = est.push(s) {
                return Some(v);
            }
        }
        None
    }

    #[test]
    fn grouped_trimmed_mean_drops_slow_start_groups() {
        let mut est = GroupedTrimmedMean::bts_app();
        // 200 samples: first 50 ramping (slow start), rest at 100 Mbps.
        let mut samples: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        samples.extend(std::iter::repeat(100.0).take(150));
        let result = feed(&mut est, &samples).expect("200 samples complete the test");
        // The 5 lowest groups (the ramp) are discarded; result ≈ 100.
        assert!((result - 100.0).abs() < 3.0, "{result}");
    }

    #[test]
    fn grouped_runs_exactly_200_samples() {
        let mut est = GroupedTrimmedMean::bts_app();
        for i in 0..199 {
            assert_eq!(est.push(50.0), EstimatorDecision::Continue, "sample {i}");
        }
        assert!(matches!(est.push(50.0), EstimatorDecision::Done(_)));
    }

    #[test]
    fn grouped_finalize_handles_truncated_runs() {
        let mut est = GroupedTrimmedMean::bts_app();
        assert_eq!(est.finalize(), None);
        for _ in 0..35 {
            est.push(80.0);
        }
        let v = est.finalize().expect("partial estimate");
        assert!((v - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "trim discards all groups")]
    fn grouped_rejects_full_trim() {
        GroupedTrimmedMean::new(5, 10, 3, 2);
    }

    #[test]
    fn speedtest_trim_filters_bottom_quarter_and_top_tenth() {
        let mut est = SpeedtestTrim::new(100);
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let v = feed(&mut est, &samples).expect("fixed duration completes");
        // Keep 26..=90 → mean 58.
        assert!((v - 58.0).abs() < 1e-9, "{v}");
        assert_eq!(est.len(), 100);
    }

    #[test]
    fn speedtest_trim_discards_slow_start_noise() {
        let mut est = SpeedtestTrim::new(100);
        let mut samples: Vec<f64> = (0..25).map(|i| 4.0 * i as f64).collect(); // ramp
        samples.extend(std::iter::repeat(100.0).take(75));
        let v = feed(&mut est, &samples).unwrap();
        assert!((v - 100.0).abs() < 2.0, "{v}");
    }

    #[test]
    fn convergence_stops_on_stable_tail() {
        let mut est = ConvergenceEstimator::swiftest();
        let mut samples: Vec<f64> = vec![10.0, 40.0, 80.0, 120.0, 160.0];
        samples.extend(std::iter::repeat(200.0).take(10));
        let v = feed(&mut est, &samples).expect("converges");
        assert!((v - 200.0).abs() < 1e-9);
        assert_eq!(est.len(), 15);
    }

    #[test]
    fn convergence_tolerates_3_percent() {
        let mut est = ConvergenceEstimator::swiftest();
        // Samples alternating within 3%: 100 and 102.9.
        let samples: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 100.0 } else { 102.9 })
            .collect();
        let v = feed(&mut est, &samples).expect("3% band converges");
        assert!((v - 101.45).abs() < 0.1);
    }

    #[test]
    fn convergence_rejects_4_percent_band() {
        let mut est = ConvergenceEstimator::swiftest();
        let samples: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 100.0 } else { 104.2 })
            .collect();
        assert_eq!(feed(&mut est, &samples), None);
    }

    #[test]
    fn fast_warmup_defers_convergence() {
        // Identical inputs: the warm-up variant needs more samples.
        let samples = vec![100.0; 14];
        let mut swift = ConvergenceEstimator::swiftest();
        let mut fast = ConvergenceEstimator::fast();
        let mut swift_done = None;
        let mut fast_done = None;
        for (i, &s) in samples.iter().enumerate() {
            if swift_done.is_none() {
                if let EstimatorDecision::Done(_) = swift.push(s) {
                    swift_done = Some(i);
                }
            }
            if fast_done.is_none() {
                if let EstimatorDecision::Done(_) = fast.push(s) {
                    fast_done = Some(i);
                }
            }
        }
        assert!(swift_done.unwrap() < fast_done.unwrap_or(usize::MAX));
    }

    #[test]
    fn convergence_finalize_uses_tail_mean() {
        let mut est = ConvergenceEstimator::swiftest();
        for s in [1.0, 2.0, 300.0, 300.0, 300.0] {
            est.push(s);
        }
        // Tail of ≤10 samples: mean of all five.
        let v = est.finalize().unwrap();
        assert!((v - 180.6).abs() < 0.1);
    }

    #[test]
    fn crucial_interval_finds_dense_cluster() {
        let mut est = CrucialIntervalEstimator::fastbts();
        // Sparse ramp + dense cluster at ~95–105.
        for s in [5.0, 20.0, 40.0, 60.0, 80.0] {
            est.push(s);
        }
        for i in 0..20 {
            est.push(95.0 + (i % 5) as f64 * 2.5);
        }
        let (lo, hi, mean) = est.crucial_interval().unwrap();
        assert!(lo >= 90.0, "lo {lo}");
        assert!(hi <= 110.0, "hi {hi}");
        assert!((mean - 100.0).abs() < 6.0, "mean {mean}");
    }

    #[test]
    fn crucial_interval_converges_prematurely_on_plateaued_ramp() {
        // A slow-start plateau at 60 followed by the true rate 200: the
        // estimator locks onto the 60-cluster — the §5.3 failure mode.
        let mut est = CrucialIntervalEstimator::fastbts();
        let mut samples: Vec<f64> = vec![5.0, 10.0, 20.0, 40.0];
        samples.extend(std::iter::repeat(60.0).take(30));
        samples.extend(std::iter::repeat(200.0).take(30));
        let v = feed(&mut est, &samples).expect("stops early");
        assert!(v < 80.0, "underestimates: {v}");
        assert!(est.len() <= 40, "stopped before the 200s took over");
    }

    proptest! {
        /// Insertion keeps the array a clone-and-sort of the samples
        /// would produce, so the interval agrees after every push.
        #[test]
        fn crucial_interval_matches_clone_and_sort_after_every_push(
            // A coarse grid makes duplicates the common case.
            stream in prop::collection::vec((0u32..40).prop_map(|g| g as f64 * 12.5), 1..80),
        ) {
            let mut est = CrucialIntervalEstimator::fastbts();
            for (n, &s) in stream.iter().enumerate() {
                est.push(s);
                let mut sorted = stream[..=n].to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                let bits = |t: (f64, f64, f64)| (t.0.to_bits(), t.1.to_bits(), t.2.to_bits());
                prop_assert_eq!(
                    est.crucial_interval().map(bits),
                    crucial_interval_of(&sorted).map(bits),
                    "after {} samples",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn all_estimators_report_names_and_counts() {
        let mut ests: Vec<Box<dyn BandwidthEstimator>> = vec![
            Box::new(GroupedTrimmedMean::bts_app()),
            Box::new(ConvergenceEstimator::swiftest()),
            Box::new(CrucialIntervalEstimator::fastbts()),
        ];
        for est in &mut ests {
            assert!(est.is_empty());
            est.push(10.0);
            assert_eq!(est.len(), 1);
            assert!(!est.name().is_empty());
        }
    }
}
