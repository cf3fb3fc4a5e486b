//! Descriptive statistics used throughout the analysis pipeline.
//!
//! Every paper figure caption reports some combination of mean / median /
//! max; [`Summary`] computes those in one pass over a sample. The trimmed
//! mean implements BTS-APP's sample-filtering rule (§2 and §5.1): "drop
//! the 5 lowest and 2 highest of 20 groups".

/// One-pass summary of a sample: count, mean, standard deviation, median,
/// min and max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (interpolated).
    pub median: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample. Returns an all-zero summary for empty input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            median: percentile_sorted(&sorted, 50.0),
            min: sorted[0],
            max: sorted[count - 1],
        }
    }
}

/// Arithmetic mean; 0 for empty input (the analysis code treats an empty
/// stratum as a zero bar, matching how the paper's plots omit empty bars).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance; 0 for fewer than two observations.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile (0–100) of an unsorted sample, with linear interpolation
/// between order statistics. Returns 0 for empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Fraction of observations strictly below `threshold`.
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// Fraction of observations strictly above `threshold`.
pub fn fraction_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len() as f64
}

/// Mean after discarding the `low` smallest and `high` largest
/// observations. This is the exact shape of BTS-APP's estimator (§2):
/// 20 groups, drop 5 lowest + 2 highest, average the rest.
///
/// Sorts `values` in place (a stable sort) and allocates nothing.
/// Returns `None`, leaving `values` as they are, when the trim would
/// consume the whole sample.
pub fn trimmed_mean(values: &mut [f64], low: usize, high: usize) -> Option<f64> {
    if low + high >= values.len() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let kept = &values[low..values.len() - high];
    Some(mean(kept))
}

/// Pearson correlation coefficient; `None` if undefined (length mismatch,
/// fewer than two points, or zero variance on either side).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Relative deviation between two BTS results, the paper's accuracy metric
/// (§5.3): `|a - b| / max(a, b)`. Returns 0 when both are 0.
pub fn relative_deviation(a: f64, b: f64) -> f64 {
    let denom = a.max(b);
    if denom <= 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn median_even_length_interpolates() {
        assert!((median(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 30.0);
    }

    #[test]
    fn percentile_interpolation() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_btsapp_rule() {
        // 20 groups, drop 5 lowest + 2 highest: keep indices 5..18.
        let mut groups: Vec<f64> = (1..=20).map(|g| g as f64).collect();
        let got = trimmed_mean(&mut groups, 5, 2).unwrap();
        let want = (6..=18).sum::<usize>() as f64 / 13.0;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_rejects_overtrim() {
        assert_eq!(trimmed_mean(&mut [1.0, 2.0], 1, 1), None);
    }

    #[test]
    fn fraction_thresholds() {
        let v = [1.0, 5.0, 9.0, 15.0];
        assert!((fraction_below(&v, 10.0) - 0.75).abs() < 1e-12);
        assert!((fraction_above(&v, 10.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_degenerate() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[6.0, 4.0, 2.0]).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&xs, &[1.0]), None);
    }

    #[test]
    fn relative_deviation_matches_paper_formula() {
        assert!((relative_deviation(100.0, 95.0) - 0.05).abs() < 1e-12);
        assert_eq!(relative_deviation(0.0, 0.0), 0.0);
        // Symmetric.
        assert_eq!(
            relative_deviation(80.0, 100.0),
            relative_deviation(100.0, 80.0)
        );
    }
}
