//! One-dimensional Gaussian mixture models.
//!
//! §5.1 of the paper models the access bandwidth `X` of a technology as
//!
//! ```text
//! P(X) = Σᵢ wᵢ · N(X | μᵢ, σᵢ)
//! ```
//!
//! and drives Swiftest's probing from the fitted modes: the initial probing
//! rate is the most probable mode, and escalation jumps to the most
//! probable *larger* mode. This module provides the full lifecycle:
//!
//! - construction from known parameters (the dataset generator's ground
//!   truth models),
//! - density/CDF evaluation and seeded sampling,
//! - EM fitting from raw samples with k-means++ initialisation,
//! - *binned* EM fitting from log-bucketed sufficient statistics
//!   ([`Gmm::fit_binned`]), whose E/M steps iterate weighted histogram
//!   bins instead of raw samples — `O(bins · k · iters)` per fit no matter
//!   how many records the accumulator saw,
//! - BIC-based selection of the number of components
//!   ([`Gmm::fit_auto`] / [`Gmm::fit_auto_binned`]), used when refreshing
//!   the model from fresh measurement data "periodically" as the paper
//!   prescribes.
//!
//! Every fit and every likelihood runs one E-step kernel, `e_step`. It
//! works in column passes: one loop per component over all points for
//! the log-densities, one per component for the exponentials, one over
//! the points for the log-sum, one per component for the
//! responsibilities. Each loop is a straight pass the compiler can
//! vectorise, and every accumulator still sums in point order, so the
//! fitted bits are those of a point-at-a-time E-step. `(x − μ)/σ` stays a
//! division, not a product with `1/σ`: a one-bin fit has a subnormal σ,
//! whose reciprocal overflows. What is left is the floor of one `exp`
//! per (point, component) and one `ln` per point; in the figures' cold
//! finish those libm calls take over half the time. A BIC search sizes
//! one `Scratch` for its largest `k` and every candidate reuses it.

use crate::histogram::LogBins;
use crate::pool::{self, PoolCtx};
use crate::rng::SeededRng;
use crate::special::normal_cdf;
use mbw_telemetry::trace::{self, ArgValue};

/// One Gaussian component of a mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmComponent {
    /// Mixing weight `wᵢ` (weights of a valid mixture sum to 1).
    pub weight: f64,
    /// Mean `μᵢ` — a "modal" bandwidth in Mbps in the BTS use case.
    pub mean: f64,
    /// Standard deviation `σᵢ` (> 0).
    pub std_dev: f64,
}

impl GmmComponent {
    /// Component log-density at `x`.
    fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -0.5 * z * z - self.std_dev.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Configuration for EM fitting.
#[derive(Debug, Clone, Copy)]
pub struct GmmFitConfig {
    /// Number of mixture components to fit.
    pub components: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the per-sample log-likelihood improvement.
    pub tolerance: f64,
    /// Seed for the k-means++ initialisation.
    pub seed: u64,
    /// Floor on component standard deviations, as a fraction of the data
    /// range; prevents components collapsing onto single points.
    pub min_std_frac: f64,
}

impl Default for GmmFitConfig {
    fn default() -> Self {
        Self {
            components: 3,
            max_iters: 200,
            tolerance: 1e-7,
            seed: 0x5EED,
            min_std_frac: 0.005,
        }
    }
}

/// Errors from mixture construction or fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GmmError {
    /// No components supplied / requested.
    NoComponents,
    /// Component parameters invalid (σ ≤ 0, non-finite, weight < 0, or
    /// weights summing to zero).
    InvalidParameters,
    /// Not enough data points to fit the requested number of components.
    NotEnoughData {
        /// Minimum samples the requested fit needs.
        needed: usize,
        /// Samples actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for GmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GmmError::NoComponents => write!(f, "mixture must have at least one component"),
            GmmError::InvalidParameters => write!(f, "invalid mixture parameters"),
            GmmError::NotEnoughData { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
        }
    }
}

impl std::error::Error for GmmError {}

/// A 1-D Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm {
    components: Vec<GmmComponent>,
}

impl Gmm {
    /// Build a mixture from explicit components. Weights are normalised to
    /// sum to 1.
    pub fn new(components: Vec<GmmComponent>) -> Result<Self, GmmError> {
        if components.is_empty() {
            return Err(GmmError::NoComponents);
        }
        let total: f64 = components.iter().map(|c| c.weight).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(GmmError::InvalidParameters);
        }
        for c in &components {
            if c.weight.is_nan()
                || c.weight < 0.0
                || !c.mean.is_finite()
                || c.std_dev.is_nan()
                || c.std_dev <= 0.0
            {
                return Err(GmmError::InvalidParameters);
            }
        }
        let components = components
            .into_iter()
            .map(|c| GmmComponent {
                weight: c.weight / total,
                ..c
            })
            .collect();
        Ok(Self { components })
    }

    /// Convenience constructor from `(weight, mean, std_dev)` triples.
    pub fn from_triples(triples: &[(f64, f64, f64)]) -> Result<Self, GmmError> {
        Self::new(
            triples
                .iter()
                .map(|&(weight, mean, std_dev)| GmmComponent {
                    weight,
                    mean,
                    std_dev,
                })
                .collect(),
        )
    }

    /// The components, in unspecified order.
    pub fn components(&self) -> &[GmmComponent] {
        &self.components
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Mixture density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Mixture log-density at `x` (numerically stable): the log-sum-exp
    /// of [`crate::special::log_sum_exp`], each term computed once for
    /// the maximum and again for its exponential instead of collected.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let term = |c: &GmmComponent| c.weight.max(f64::MIN_POSITIVE).ln() + c.log_pdf(x);
        let max = self
            .components
            .iter()
            .map(term)
            .fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return max;
        }
        let sum: f64 = self.components.iter().map(|c| (term(c) - max).exp()).sum();
        max + sum.ln()
    }

    /// Mixture CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * normal_cdf((x - c.mean) / c.std_dev))
            .sum()
    }

    /// Mixture mean `Σ wᵢ μᵢ`.
    pub fn mean(&self) -> f64 {
        self.components.iter().map(|c| c.weight * c.mean).sum()
    }

    /// Mixture variance via the law of total variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.components
            .iter()
            .map(|c| c.weight * (c.std_dev * c.std_dev + (c.mean - m).powi(2)))
            .sum()
    }

    /// The component a uniform draw `u` in `[0, 1)` picks: the first
    /// whose running weight total exceeds `u`. Floating-point slack
    /// falls through to the last component.
    #[inline]
    pub fn pick(&self, u: f64) -> &GmmComponent {
        let mut acc = 0.0;
        for c in &self.components {
            acc += c.weight;
            if u < acc {
                return c;
            }
        }
        self.components.last().expect("non-empty mixture")
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        let c = self.pick(rng.uniform());
        rng.normal(c.mean, c.std_dev)
    }

    /// Draw one sample truncated to be ≥ `floor` (resampling; used for
    /// bandwidths which cannot be negative).
    pub fn sample_at_least(&self, rng: &mut SeededRng, floor: f64) -> f64 {
        for _ in 0..1000 {
            let x = self.sample(rng);
            if x >= floor {
                return x;
            }
        }
        floor
    }

    /// Draw `n` samples.
    pub fn sample_n(&self, rng: &mut SeededRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The component means ("modal" bandwidths), sorted ascending.
    pub fn modes(&self) -> Vec<f64> {
        let mut m: Vec<f64> = self.components.iter().map(|c| c.mean).collect();
        m.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
        m
    }

    /// The most probable mode: the mean of the component with the largest
    /// weight. This is Swiftest's *initial probing data rate* (§5.1).
    pub fn dominant_mode(&self) -> f64 {
        self.components[self.dominant_component()].mean
    }

    /// The index into [`Gmm::components`] of the component whose mean
    /// [`Gmm::dominant_mode`] returns.
    pub fn dominant_component(&self) -> usize {
        self.heaviest(|_| true).expect("non-empty mixture")
    }

    /// Among the modes strictly greater than `current`, the one whose
    /// component has the largest weight. This is Swiftest's escalation
    /// rule: "we use the most probable one among these larger modal
    /// bandwidth values as the next probing data rate" (§5.1).
    pub fn next_larger_mode(&self, current: f64) -> Option<f64> {
        self.next_larger_component(current)
            .map(|i| self.components[i].mean)
    }

    /// The index into [`Gmm::components`] of the component whose mean
    /// [`Gmm::next_larger_mode`] returns.
    pub fn next_larger_component(&self, current: f64) -> Option<usize> {
        self.heaviest(|c| c.mean > current)
    }

    /// One escalation step of a probe paced at `current` that the link
    /// kept up with: the next larger mode and its component (as
    /// [`Gmm::next_larger_component`] picks it), or `current × growth`
    /// and no component once past the largest mode. Swiftest's UDP
    /// session and its TCP congestion controller both step this way.
    pub fn escalate(&self, current: f64, growth: f64) -> (f64, Option<usize>) {
        match self.next_larger_component(current) {
            Some(i) => (self.components[i].mean, Some(i)),
            None => (current * growth, None),
        }
    }

    /// The index of the heaviest component that passes `keep` (the last
    /// one on a tie in weight).
    fn heaviest(&self, keep: impl Fn(&GmmComponent) -> bool) -> Option<usize> {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| keep(c))
            .max_by(|(_, a), (_, b)| a.weight.partial_cmp(&b.weight).expect("finite weights"))
            .map(|(i, _)| i)
    }

    /// Inverse CDF by bisection: the smallest `x` with `CDF(x) ≥ q`.
    /// Used e.g. to provision server fleets for the fast-client tail
    /// (`q = 0.95`) rather than the average client.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        // Bracket: ±8σ around the extreme component means.
        let lo_c = self
            .components
            .iter()
            .map(|c| c.mean - 8.0 * c.std_dev)
            .fold(f64::INFINITY, f64::min);
        let hi_c = self
            .components
            .iter()
            .map(|c| c.mean + 8.0 * c.std_dev)
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut lo, mut hi) = (lo_c, hi_c);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mean per-sample log-likelihood of `data` under the mixture.
    pub fn mean_log_likelihood(&self, data: &[f64]) -> f64 {
        self.mean_ll(&unit_weights(data), &mut Scratch::default())
    }

    /// BIC of this mixture on `data` (lower is better). A k-component
    /// 1-D mixture has `3k - 1` free parameters.
    pub fn bic(&self, data: &[f64]) -> f64 {
        self.sample_bic(&unit_weights(data), &mut Scratch::default())
    }

    /// [`Gmm::mean_log_likelihood`] over unit-weight `points`.
    fn mean_ll(&self, points: &[(f64, f64)], scratch: &mut Scratch) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        e_step(&self.components, points, scratch) / points.len() as f64
    }

    /// [`Gmm::bic`] over unit-weight `points`.
    fn sample_bic(&self, points: &[(f64, f64)], scratch: &mut Scratch) -> f64 {
        let n = points.len().max(1) as f64;
        let ll = self.mean_ll(points, scratch) * n;
        let params = (3 * self.k() - 1) as f64;
        params * n.ln() - 2.0 * ll
    }

    /// Fit a mixture with EM.
    ///
    /// Initialisation is k-means++ on the sample followed by one hard
    /// assignment pass; EM then iterates soft E/M steps until the mean
    /// log-likelihood improves by less than `config.tolerance` or
    /// `config.max_iters` is reached. The loop is [`Gmm::fit_binned`]'s,
    /// run over the samples at unit weight.
    pub fn fit(data: &[f64], config: &GmmFitConfig) -> Result<Self, GmmError> {
        fit_samples(&unit_weights(data), config, &mut Scratch::default())
    }

    /// Fit mixtures with `1..=max_components` components and return the one
    /// with the lowest BIC — the "update the statistical model
    /// periodically" step of §5.1, where the right number of modes is not
    /// known a priori.
    pub fn fit_auto(data: &[f64], max_components: usize, seed: u64) -> Result<Self, GmmError> {
        if max_components == 0 {
            return Err(GmmError::NoComponents);
        }
        // The candidate fits are independent (each starts from its own
        // `SeededRng::new(seed)`), so on large inputs they run on
        // `max_components` threads. Results come back in `k` order, which
        // keeps the BIC tie-break (first/lowest `k` wins) — and thus the
        // selected mixture — identical to the sequential loop. Small
        // inputs (per-trial fits in the eval half) stay on this thread;
        // the spawn would cost more than the fit.
        let tracer = trace::active();
        let mut auto_spans = tracer.local();
        let auto_span = auto_spans.begin();
        let threads = if data.len() >= PARALLEL_FIT_MIN_SAMPLES {
            max_components
        } else {
            1
        };
        // Each candidate fits and scores on a scratch of its own.
        let fits = pool::map(threads, max_components, |i| {
            candidate(i + 1, seed, |config| {
                let points = unit_weights(data);
                let mut scratch = Scratch::default();
                fit_samples(&points, config, &mut scratch)
                    .map(|g| (g.sample_bic(&points, &mut scratch), g))
            })
        });
        if auto_span.id != 0 {
            auto_spans.end_with(
                auto_span,
                0,
                "gmm.fit_auto",
                "gmm",
                vec![
                    ("max_components", ArgValue::from(max_components)),
                    ("samples", ArgValue::from(data.len())),
                ],
            );
        }
        lowest_bic(fits)
    }

    /// Fit a mixture with EM over the *binned* sufficient statistics of a
    /// [`LogBins`] histogram instead of raw samples.
    ///
    /// Each occupied bin contributes its geometric-mean representative
    /// weighted by its count, so one E/M step costs `O(bins · k)` no
    /// matter how many records were observed. Relative to a raw-sample
    /// [`Gmm::fit`] on the same data, fitted means and standard deviations
    /// differ by at most the bin's relative width (about 2% at the
    /// default 512 bins over four decades); within one binning the fit is
    /// exactly deterministic, and because `LogBins` merges by exact
    /// integer addition the result is invariant under thread count and
    /// distributed reduction.
    pub fn fit_binned(bins: &LogBins, config: &GmmFitConfig) -> Result<Self, GmmError> {
        let points = bins.weighted_points();
        let log_bins = bins.bins();
        let source = Points::Bins { log_bins };
        fit_weighted(
            &points,
            bins.total(),
            config,
            source,
            &mut Scratch::default(),
        )
    }

    /// Binned analogue of [`Gmm::fit_auto`]: fit `1..=max_components`
    /// candidates with [`Gmm::fit_binned`], in `k` order on the calling
    /// thread, and keep the lowest [`Gmm::bic_binned`]. A fit over at
    /// most a few hundred bins takes milliseconds, so the candidates do
    /// not fan out; they share one `Scratch`, sized up front for
    /// `max_components`. `_ctx` carries nothing (see [`PoolCtx`]).
    pub fn fit_auto_binned(
        bins: &LogBins,
        max_components: usize,
        seed: u64,
        _ctx: &PoolCtx,
    ) -> Result<Self, GmmError> {
        if max_components == 0 {
            return Err(GmmError::NoComponents);
        }
        let tracer = trace::active();
        let mut auto_spans = tracer.local();
        let auto_span = auto_spans.begin();
        let points = bins.weighted_points();
        let total = bins.total();
        let occupied = points.len();
        let log_bins = bins.bins();
        let mut scratch = Scratch::default();
        scratch.reserve(occupied, max_components);
        let fits: Vec<Result<(f64, Gmm), GmmError>> = (1..=max_components)
            .map(|k| {
                candidate(k, seed, |config| {
                    fit_weighted(
                        &points,
                        total,
                        config,
                        Points::Bins { log_bins },
                        &mut scratch,
                    )
                    .map(|g| (bic_weighted(&g, &points, total, &mut scratch), g))
                })
            })
            .collect();
        if auto_span.id != 0 {
            auto_spans.end_with(
                auto_span,
                0,
                "gmm.fit_auto",
                "gmm",
                vec![
                    ("max_components", ArgValue::from(max_components)),
                    ("bins", ArgValue::from(occupied)),
                    ("records", ArgValue::U64(total)),
                ],
            );
        }
        lowest_bic(fits)
    }

    /// BIC of this mixture against binned data (lower is better), using
    /// the weighted bin log-likelihood and the *true* observation count
    /// for the complexity penalty.
    pub fn bic_binned(&self, bins: &LogBins) -> f64 {
        let points = bins.weighted_points();
        bic_weighted(self, &points, bins.total(), &mut Scratch::default())
    }
}

/// Sample count above which [`Gmm::fit_auto`] fans its candidate fits
/// out over [`pool::map`]. Figure-scale fits (tens of thousands of
/// samples) clear this easily; per-trial fits in the eval half do not.
const PARALLEL_FIT_MIN_SAMPLES: usize = 10_000;

/// Raw samples as unit-weight points.
fn unit_weights(data: &[f64]) -> Vec<(f64, f64)> {
    data.iter().map(|&x| (x, 1.0)).collect()
}

/// The buffers of [`e_step`] and of the k-means++ seeding, for some
/// number of points `b` and components `k`. They grow on demand and
/// never shrink, so one scratch serves a whole BIC search: every EM
/// iteration and every candidate after the first allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// Column-major, `k · b` values: component `j`'s column is
    /// `resp[j * b..(j + 1) * b]`, in point order. [`e_step`] leaves the
    /// weighted responsibilities there.
    resp: Vec<f64>,
    /// Per point, the largest `ℓⱼ`.
    max: Vec<f64>,
    /// Per point, `Σⱼ eⱼ`, then `w / Σⱼ eⱼ`.
    sum: Vec<f64>,
    /// Per component, `Nⱼ = Σ rⱼ` and `Σ rⱼ x`, in point order.
    nj: Vec<f64>,
    sum_x: Vec<f64>,
    /// Per point, the k-means++ weight `w · d²`.
    d2: Vec<f64>,
}

impl Scratch {
    /// Grow every buffer to `b` points at `k` components.
    fn reserve(&mut self, b: usize, k: usize) {
        for (buf, len) in [
            (&mut self.resp, k * b),
            (&mut self.max, b),
            (&mut self.sum, b),
            (&mut self.nj, k),
            (&mut self.sum_x, k),
            (&mut self.d2, b),
        ] {
            if buf.len() < len {
                *buf = vec![0.0; len];
            }
        }
    }
}

/// The E-step of `components` over the weighted `points`: returns the
/// log-likelihood `Σᵢ wᵢ · ln Σⱼ exp ℓⱼ(xᵢ)` and leaves in `s` the
/// weighted responsibilities `rⱼ(xᵢ)` (columns of `s.resp`) and the
/// M-step's `Nⱼ` and `Σᵢ rⱼ(xᵢ) xᵢ` (`s.nj`, `s.sum_x`).
///
/// `ℓⱼ(x) = cⱼ − ½((x − μⱼ)/σⱼ)²`, with `cⱼ = ln wⱼ − ln σⱼ − ½ ln 2π`,
/// is the log of component `j`'s weighted density at `x`, and
/// `rⱼ = eⱼ · (w / Σᵢ eᵢ)` with `eⱼ = exp(ℓⱼ − maxᵢ ℓᵢ)`: one
/// exponential per (point, component), shared by the log-likelihood and
/// the responsibility. The work runs in four column passes:
///
/// 1. per component, in `j` order: every point's `ℓⱼ`, folded into the
///    point's running maximum;
/// 2. per component: `eⱼ`, added to the point's running sum;
/// 3. per point, in order: `w · (max + ln sum)` into the log-likelihood,
///    and the sum replaced by `w / sum`;
/// 4. per component: its column scaled by each point's `w / sum`, and
///    `Nⱼ` and `Σ rⱼ x` accumulated in point order.
///
/// Each floating-point accumulator — a point's max and sum, the
/// log-likelihood, `Nⱼ`, `Σ rⱼ x` — sees the same operations in the same
/// order as in a point-at-a-time E-step, so the results are bit for bit
/// the same; the passes only let the compiler vectorise the divisions,
/// the maxima and the scaling. `(x − μ)/σ` stays a division: with one
/// occupied bin `min_std` is subnormal, `1/σ` is infinite and `0 · ∞` is
/// NaN. A non-finite maximum stands for the log sum, as in
/// [`crate::special::log_sum_exp`]. The log-likelihood starts from −0.0,
/// as `Iterator::sum` does.
fn e_step(components: &[GmmComponent], points: &[(f64, f64)], s: &mut Scratch) -> f64 {
    let (b, k) = (points.len(), components.len());
    s.reserve(b, k);
    let max = &mut s.max[..b];
    let sum = &mut s.sum[..b];
    let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    max.fill(f64::NEG_INFINITY);
    for (j, comp) in components.iter().enumerate() {
        let c = comp.weight.max(f64::MIN_POSITIVE).ln() - comp.std_dev.ln() - half_ln_2pi;
        let (mean, std_dev) = (comp.mean, comp.std_dev);
        let col = &mut s.resp[j * b..(j + 1) * b];
        for ((l, m), &(x, _)) in col.iter_mut().zip(max.iter_mut()).zip(points) {
            let z = (x - mean) / std_dev;
            *l = c - 0.5 * z * z;
            *m = m.max(*l);
        }
    }
    sum.fill(0.0);
    for j in 0..k {
        let col = &mut s.resp[j * b..(j + 1) * b];
        for ((e, acc), &m) in col.iter_mut().zip(sum.iter_mut()).zip(max.iter()) {
            *e = (*e - m).exp();
            *acc += *e;
        }
    }
    let mut ll = -0.0;
    for ((acc, &m), &(_, w)) in sum.iter_mut().zip(max.iter()).zip(points) {
        ll += w * if m.is_finite() { m + acc.ln() } else { m };
        *acc = w / *acc;
    }
    for j in 0..k {
        let col = &mut s.resp[j * b..(j + 1) * b];
        let (mut n, mut sum_x) = (0.0, 0.0);
        for ((r, &scale), &(x, _)) in col.iter_mut().zip(sum.iter()).zip(points) {
            *r *= scale;
            n += *r;
            sum_x += *r * x;
        }
        (s.nj[j], s.sum_x[j]) = (n, sum_x);
    }
    ll
}

/// The index at which the running sum of `weights` first reaches
/// `target`, or the last index when rounding leaves some of it unspent.
fn index_at(weights: impl ExactSizeIterator<Item = f64>, mut target: f64) -> usize {
    let last = weights.len() - 1;
    for (i, w) in weights.enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    last
}

/// k-means++ seeding over weighted points: the centre at index `first`,
/// then centres drawn proportionally to `w · d²` from the nearest chosen
/// centre. `d2` holds one weight per point.
fn kmeans_pp_centers(
    points: &[(f64, f64)],
    k: usize,
    first: usize,
    rng: &mut SeededRng,
    d2: &mut [f64],
) -> Vec<f64> {
    let mut centers = Vec::with_capacity(k);
    centers.push(points[first].0);
    while centers.len() < k {
        for (d, &(x, w)) in d2.iter_mut().zip(points) {
            *d = w * centers
                .iter()
                .map(|&c| (x - c).powi(2))
                .fold(f64::INFINITY, f64::min);
        }
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All mass coincides with existing centres; duplicate one.
            centers.push(centers[0]);
            continue;
        }
        let chosen = index_at(d2.iter().copied(), rng.uniform() * total);
        centers.push(points[chosen].0);
    }
    centers
}

/// Hard-assign weighted points to the nearest centre and build the
/// initial mixture.
fn initial_mixture(points: &[(f64, f64)], centers: &[f64], min_std: f64) -> Gmm {
    let k = centers.len();
    let mut sums = vec![0.0; k];
    let mut sqs = vec![0.0; k];
    let mut wsum = vec![0.0f64; k];
    for &(x, w) in points {
        let (j, _) = centers
            .iter()
            .enumerate()
            .map(|(j, &c)| (j, (x - c).abs()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("at least one centre");
        sums[j] += w * x;
        sqs[j] += w * x * x;
        wsum[j] += w;
    }
    let n: f64 = wsum.iter().sum();
    let components = (0..k)
        .map(|j| {
            // Weights are integer counts, so a non-empty cluster has mass ≥ 1.
            let cnt = wsum[j].max(1.0);
            let mean = if wsum[j] == 0.0 {
                centers[j]
            } else {
                sums[j] / cnt
            };
            let var = (sqs[j] / cnt - mean * mean).max(0.0);
            GmmComponent {
                weight: (wsum[j] / n).max(1e-6),
                mean,
                std_dev: var.sqrt().max(min_std),
            }
        })
        .collect();
    Gmm::new(components).expect("initial mixture is valid by construction")
}

/// One BIC candidate of the `fit_auto` searches: `fit` returns the
/// `k`-component mixture and its BIC, recorded as a `gmm.fit_candidate`
/// span (BIC NaN for a failed fit).
fn candidate(
    k: usize,
    seed: u64,
    fit: impl FnOnce(&GmmFitConfig) -> Result<(f64, Gmm), GmmError>,
) -> Result<(f64, Gmm), GmmError> {
    let mut spans = trace::active().local();
    let cand_span = spans.begin();
    let result = fit(&GmmFitConfig {
        components: k,
        seed,
        ..Default::default()
    });
    if cand_span.id != 0 {
        let bic = result.as_ref().map_or(f64::NAN, |(bic, _)| *bic);
        spans.end_with(
            cand_span,
            0,
            "gmm.fit_candidate",
            "gmm",
            vec![("k", ArgValue::from(k)), ("bic", ArgValue::F64(bic))],
        );
    }
    result
}

/// The candidate with the lowest BIC — the first (lowest `k`) on a tie —
/// or the last error when no candidate fitted.
fn lowest_bic(fits: Vec<Result<(f64, Gmm), GmmError>>) -> Result<Gmm, GmmError> {
    let mut best: Option<(f64, Gmm)> = None;
    let mut last_err = GmmError::NoComponents;
    for fit in fits {
        match fit {
            Ok((bic, g)) => {
                if best.as_ref().is_none_or(|(b, _)| bic < *b) {
                    best = Some((bic, g));
                }
            }
            Err(e) => last_err = e,
        }
    }
    best.map(|(_, g)| g).ok_or(last_err)
}

/// What [`fit_weighted`]'s points are. It decides how the first k-means++
/// centre is drawn and what the fit's span records.
#[derive(Clone, Copy)]
enum Points {
    /// Raw samples at unit weight ([`Gmm::fit`]): the first centre is a
    /// uniform index draw.
    Samples,
    /// The occupied bins of a `log_bins`-bin [`LogBins`]
    /// ([`Gmm::fit_binned`]): the first centre is drawn by bin mass.
    Bins { log_bins: usize },
}

/// Weighted EM over `(x, count)` pairs — the engine behind [`Gmm::fit`]
/// and [`Gmm::fit_binned`]. `total` is the true observation count (used
/// for the data-sufficiency check and the mixture weights). The
/// iterations run in `scratch`, grown here once, so the loop allocates
/// nothing.
fn fit_weighted(
    points: &[(f64, f64)],
    total: u64,
    config: &GmmFitConfig,
    source: Points,
    scratch: &mut Scratch,
) -> Result<Gmm, GmmError> {
    let k = config.components;
    if k == 0 {
        return Err(GmmError::NoComponents);
    }
    // Heuristic: at least 5 *observations* (not bins) per component for a
    // meaningful fit.
    let needed = (5 * k).max(2);
    if (total as usize) < needed {
        return Err(GmmError::NotEnoughData {
            needed,
            got: total as usize,
        });
    }
    if points.iter().any(|&(x, _)| !x.is_finite()) {
        return Err(GmmError::InvalidParameters);
    }
    let lo = points.iter().map(|&(x, _)| x).fold(f64::INFINITY, f64::min);
    let hi = points
        .iter()
        .map(|&(x, _)| x)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    let min_std = range * config.min_std_frac;

    let mut rng = SeededRng::new(config.seed);
    let first = match source {
        Points::Samples => rng.index(points.len()),
        Points::Bins { .. } => {
            let mass: f64 = points.iter().map(|&(_, w)| w).sum();
            index_at(points.iter().map(|&(_, w)| w), rng.uniform() * mass)
        }
    };
    let b = points.len();
    scratch.reserve(b, k);
    let centers = kmeans_pp_centers(points, k, first, &mut rng, &mut scratch.d2[..b]);
    let mut mix = initial_mixture(points, &centers, min_std).components;

    let total_w = total as f64;
    let mut prev_ll = f64::NEG_INFINITY;
    let tracer = trace::active();
    let mut spans = tracer.local();
    let fit_span = spans.begin();
    let mut iters = 0u64;
    for _ in 0..config.max_iters {
        let iter_span = spans.begin();
        iters += 1;
        // E-step, which also accumulates the M-step's `Nⱼ` and `Σ rⱼ x`.
        let ll = e_step(&mix, points, scratch) / total_w;

        // M-step; the variance pass reads each component's column.
        let columns = scratch.resp[..k * b].chunks_exact(b);
        for (j, (col, c)) in columns.zip(&mut mix).enumerate() {
            let n = scratch.nj[j].max(1e-12);
            let mean = scratch.sum_x[j] / n;
            let var = col
                .iter()
                .zip(points)
                .map(|(&r, &(x, _))| r * (x - mean).powi(2))
                .sum::<f64>()
                / n;
            *c = GmmComponent {
                weight: n / total_w,
                mean,
                std_dev: var.sqrt().max(min_std),
            };
        }

        // Per-iteration spans carry no args so a disabled tracer pays
        // only the `id == 0` branch, never an allocation.
        spans.end(iter_span, fit_span.id, "gmm.em_iter", "gmm");
        if (ll - prev_ll).abs() < config.tolerance {
            break;
        }
        prev_ll = ll;
    }
    if fit_span.id != 0 {
        let (components, iters) = (ArgValue::from(k), ArgValue::U64(iters));
        let (name, args) = match source {
            Points::Samples => (
                "gmm.fit",
                vec![
                    ("components", components),
                    ("samples", ArgValue::from(b)),
                    ("iters", iters),
                ],
            ),
            Points::Bins { log_bins } => (
                "gmm.fit_binned",
                vec![
                    ("components", components),
                    ("bins", ArgValue::from(b)),
                    ("log_bins", ArgValue::from(log_bins)),
                    ("records", ArgValue::U64(total)),
                    ("iters", iters),
                ],
            ),
        };
        spans.end_with(fit_span, 0, name, "gmm", args);
    }
    // Renormalise weights (guards against drift from the nj floor).
    Gmm::new(mix)
}

/// [`Gmm::fit`] over unit-weight `points`.
fn fit_samples(
    points: &[(f64, f64)],
    config: &GmmFitConfig,
    scratch: &mut Scratch,
) -> Result<Gmm, GmmError> {
    fit_weighted(
        points,
        points.len() as u64,
        config,
        Points::Samples,
        scratch,
    )
}

/// BIC of `g` against weighted bins: the weighted log-likelihood with the
/// true observation count in the complexity penalty, mirroring
/// [`Gmm::bic`].
fn bic_weighted(g: &Gmm, points: &[(f64, f64)], total: u64, scratch: &mut Scratch) -> f64 {
    let n = total.max(1) as f64;
    let ll = e_step(g.components(), points, scratch);
    let params = (3 * g.k() - 1) as f64;
    params * n.ln() - 2.0 * ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::log_sum_exp;

    fn tri_modal() -> Gmm {
        // Shaped like the paper's WiFi 5 distribution (Fig 16): modes near
        // the 100/300/500 Mbps broadband plan tiers.
        Gmm::from_triples(&[(0.5, 100.0, 20.0), (0.3, 300.0, 30.0), (0.2, 500.0, 40.0)]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(Gmm::new(vec![]).unwrap_err(), GmmError::NoComponents);
        assert!(Gmm::from_triples(&[(1.0, 0.0, 0.0)]).is_err()); // σ = 0
        assert!(Gmm::from_triples(&[(-1.0, 0.0, 1.0)]).is_err()); // w < 0
        assert!(Gmm::from_triples(&[(0.0, 0.0, 1.0)]).is_err()); // Σw = 0
    }

    #[test]
    fn weights_are_normalised() {
        let g = Gmm::from_triples(&[(2.0, 0.0, 1.0), (6.0, 5.0, 1.0)]).unwrap();
        let total: f64 = g.components().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((g.components()[0].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = tri_modal();
        let (lo, hi, n) = (-200.0, 900.0, 11000);
        let h = (hi - lo) / n as f64;
        let integral: f64 = (0..=n)
            .map(|i| {
                let x = lo + i as f64 * h;
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                w * g.pdf(x)
            })
            .sum::<f64>()
            * h;
        assert!((integral - 1.0).abs() < 1e-6, "{integral}");
    }

    #[test]
    fn cdf_limits_and_monotonicity() {
        let g = tri_modal();
        assert!(g.cdf(-1000.0) < 1e-9);
        assert!((g.cdf(2000.0) - 1.0).abs() < 1e-9);
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -100.0 + i as f64 * 5.0;
            let c = g.cdf(x);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn analytic_moments() {
        let g = tri_modal();
        // mean = .5*100 + .3*300 + .2*500 = 240
        assert!((g.mean() - 240.0).abs() < 1e-9);
        let want_var = 0.5 * (400.0 + 140.0f64.powi(2))
            + 0.3 * (900.0 + 60.0f64.powi(2))
            + 0.2 * (1600.0 + 260.0f64.powi(2));
        assert!((g.variance() - want_var).abs() < 1e-6);
    }

    #[test]
    fn sampling_matches_moments() {
        let g = tri_modal();
        let mut rng = SeededRng::new(101);
        let samples = g.sample_n(&mut rng, 200_000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - g.mean()).abs() < 2.0, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var - g.variance()).abs() / g.variance() < 0.03);
    }

    #[test]
    fn sample_at_least_respects_floor() {
        let g = Gmm::from_triples(&[(1.0, 1.0, 5.0)]).unwrap();
        let mut rng = SeededRng::new(3);
        for _ in 0..1000 {
            assert!(g.sample_at_least(&mut rng, 0.0) >= 0.0);
        }
    }

    #[test]
    fn dominant_and_next_modes_drive_probing() {
        let g = tri_modal();
        assert_eq!(g.dominant_mode(), 100.0);
        assert_eq!(g.next_larger_mode(100.0), Some(300.0));
        assert_eq!(g.next_larger_mode(300.0), Some(500.0));
        assert_eq!(g.next_larger_mode(500.0), None);
        assert_eq!(g.modes(), vec![100.0, 300.0, 500.0]);
    }

    #[test]
    fn next_larger_mode_picks_most_probable_not_nearest() {
        // Two larger modes; the farther one has the bigger weight.
        let g = Gmm::from_triples(&[(0.5, 10.0, 1.0), (0.1, 20.0, 1.0), (0.4, 50.0, 1.0)]).unwrap();
        assert_eq!(g.next_larger_mode(10.0), Some(50.0));
        assert_eq!(g.next_larger_component(10.0), Some(2));
    }

    #[test]
    fn escalation_steps_to_the_next_larger_mode_then_grows() {
        let g = tri_modal();
        assert_eq!(g.escalate(100.0, 1.5), (300.0, Some(1)));
        assert_eq!(g.escalate(300.0, 1.5), (500.0, Some(2)));
        assert_eq!(g.escalate(500.0, 1.5), (750.0, None));
        for rate in [1.0, 99.0, 100.0, 450.0, 500.0, 620.0] {
            let (next, mode) = g.escalate(rate, 1.25);
            assert_eq!(mode, g.next_larger_component(rate));
            assert_eq!(next, g.next_larger_mode(rate).unwrap_or(rate * 1.25));
        }
    }

    #[test]
    fn component_lookups_pick_by_weight_when_means_tie() {
        let g = Gmm::from_triples(&[(0.2, 10.0, 1.0), (0.5, 10.0, 2.0), (0.3, 40.0, 1.0)]).unwrap();
        assert_eq!(g.dominant_component(), 1);
        assert_eq!(g.next_larger_component(5.0), Some(1));
        assert_eq!(g.next_larger_component(10.0), Some(2));
        assert_eq!(g.next_larger_component(40.0), None);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = tri_modal();
        for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let x = g.quantile(q);
            assert!(
                (g.cdf(x) - q).abs() < 1e-6,
                "q={q}: cdf({x}) = {}",
                g.cdf(x)
            );
        }
        // Monotone.
        assert!(g.quantile(0.95) > g.quantile(0.5));
        // The p95 of the WiFi-plan-like mixture sits in the top mode.
        assert!(g.quantile(0.95) > 400.0);
    }

    #[test]
    fn em_recovers_two_well_separated_components() {
        let truth = Gmm::from_triples(&[(0.6, 50.0, 5.0), (0.4, 200.0, 10.0)]).unwrap();
        let mut rng = SeededRng::new(42);
        let data = truth.sample_n(&mut rng, 5000);
        let fit = Gmm::fit(
            &data,
            &GmmFitConfig {
                components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut means = fit.modes();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 50.0).abs() < 2.0, "{means:?}");
        assert!((means[1] - 200.0).abs() < 4.0, "{means:?}");
        // Weight of the lower component ≈ 0.6.
        let low = fit
            .components()
            .iter()
            .min_by(|a, b| a.mean.partial_cmp(&b.mean).unwrap())
            .unwrap();
        assert!((low.weight - 0.6).abs() < 0.05, "{}", low.weight);
    }

    #[test]
    fn em_increases_likelihood_over_single_gaussian() {
        let truth = tri_modal();
        let mut rng = SeededRng::new(7);
        let data = truth.sample_n(&mut rng, 4000);
        let k1 = Gmm::fit(
            &data,
            &GmmFitConfig {
                components: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let k3 = Gmm::fit(
            &data,
            &GmmFitConfig {
                components: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(k3.mean_log_likelihood(&data) > k1.mean_log_likelihood(&data));
    }

    #[test]
    fn fit_auto_selects_multimodal_over_unimodal() {
        let truth = tri_modal();
        let mut rng = SeededRng::new(13);
        let data = truth.sample_n(&mut rng, 6000);
        let fit = Gmm::fit_auto(&data, 5, 99).unwrap();
        assert!(fit.k() >= 3, "selected k = {}", fit.k());
        // The dominant fitted mode should be near the true dominant mode.
        assert!(
            (fit.dominant_mode() - 100.0).abs() < 15.0,
            "{}",
            fit.dominant_mode()
        );
    }

    #[test]
    fn fit_rejects_insufficient_data() {
        let err = Gmm::fit(
            &[1.0, 2.0],
            &GmmFitConfig {
                components: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GmmError::NotEnoughData { .. }));
    }

    #[test]
    fn fit_rejects_non_finite_data() {
        let mut data = vec![1.0; 50];
        data[10] = f64::NAN;
        let err = Gmm::fit(
            &data,
            &GmmFitConfig {
                components: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, GmmError::InvalidParameters);
    }

    #[test]
    fn fit_is_deterministic_for_seed() {
        let truth = tri_modal();
        let mut rng = SeededRng::new(5);
        let data = truth.sample_n(&mut rng, 2000);
        let cfg = GmmFitConfig {
            components: 3,
            seed: 11,
            ..Default::default()
        };
        let a = Gmm::fit(&data, &cfg).unwrap();
        let b = Gmm::fit(&data, &cfg).unwrap();
        assert_eq!(a, b);
    }

    fn logbins_of(data: &[f64], hi: f64) -> LogBins {
        let mut lb = LogBins::for_range(hi);
        for &v in data {
            lb.add(v);
        }
        lb
    }

    #[test]
    fn fit_binned_agrees_with_raw_fit_within_bin_tolerance() {
        // Accuracy contract: with the default 512 bins over four decades,
        // the binned representatives sit within ~1% of the raw samples, so
        // fitted means should land within a few percent of the raw fit's
        // (and of the truth) on a well-separated mixture.
        let truth = Gmm::from_triples(&[(0.6, 50.0, 5.0), (0.4, 200.0, 10.0)]).unwrap();
        let mut rng = SeededRng::new(42);
        let data = truth.sample_n(&mut rng, 20_000);
        let cfg = GmmFitConfig {
            components: 2,
            ..Default::default()
        };
        let raw = Gmm::fit(&data, &cfg).unwrap();
        let binned = Gmm::fit_binned(&logbins_of(&data, 500.0), &cfg).unwrap();
        let raw_modes = raw.modes();
        let binned_modes = binned.modes();
        for (r, b) in raw_modes.iter().zip(&binned_modes) {
            assert!(
                (r - b).abs() / r < 0.03,
                "raw modes {raw_modes:?} vs binned {binned_modes:?}"
            );
        }
        for (rc, bc) in raw.components().iter().zip(binned.components()) {
            assert!(
                (rc.weight - bc.weight).abs() < 0.05,
                "weights {} vs {}",
                rc.weight,
                bc.weight
            );
        }
    }

    #[test]
    fn fit_binned_is_exactly_deterministic() {
        let truth = tri_modal();
        let mut rng = SeededRng::new(77);
        let data = truth.sample_n(&mut rng, 30_000);
        let lb = logbins_of(&data, 1000.0);
        let cfg = GmmFitConfig {
            components: 3,
            seed: 16,
            ..Default::default()
        };
        let a = Gmm::fit_binned(&lb, &cfg).unwrap();
        let b = Gmm::fit_binned(&lb, &cfg).unwrap();
        assert_eq!(a, b);
        // And invariant under how the histogram was assembled (merge vs
        // single pass) — counts are exact integer sums.
        let mut left = logbins_of(&data[..9_311], 1000.0);
        let right = logbins_of(&data[9_311..], 1000.0);
        left.merge(&right);
        assert_eq!(Gmm::fit_binned(&left, &cfg).unwrap(), a);
    }

    #[test]
    fn fit_auto_binned_matches_serial_on_a_pool() {
        let truth = tri_modal();
        let mut rng = SeededRng::new(13);
        let data = truth.sample_n(&mut rng, 25_000);
        let lb = logbins_of(&data, 1000.0);
        let serial = Gmm::fit_auto_binned(&lb, 5, 99, &PoolCtx::serial()).unwrap();
        assert!(serial.k() >= 3, "selected k = {}", serial.k());
        // The same fit inside pool jobs must select the same mixture
        // bit-for-bit.
        for threads in [2, 8] {
            let tasks: Vec<pool::Task<'_, Gmm>> = (0..2)
                .map(|_| -> pool::Task<'_, Gmm> {
                    let lb = lb.clone();
                    Box::new(move |ctx| Gmm::fit_auto_binned(&lb, 5, 99, ctx).unwrap())
                })
                .collect();
            for got in pool::run(threads, tasks) {
                assert_eq!(got, serial);
            }
        }
    }

    #[test]
    fn fit_binned_rejects_insufficient_data() {
        let lb = logbins_of(&[10.0, 20.0], 100.0);
        let err = Gmm::fit_binned(
            &lb,
            &GmmFitConfig {
                components: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GmmError::NotEnoughData { .. }));
    }

    #[test]
    fn fit_binned_handles_single_occupied_bin() {
        let lb = logbins_of(&vec![5.0; 100], 100.0);
        let fit = Gmm::fit_binned(
            &lb,
            &GmmFitConfig {
                components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Everything sits in one bin; the fit collapses onto its
        // representative (within the bin's relative width).
        assert!((fit.mean() / 5.0 - 1.0).abs() < 0.02, "{}", fit.mean());
    }

    #[test]
    fn bic_binned_prefers_the_right_model_class() {
        let truth = Gmm::from_triples(&[(0.5, 30.0, 3.0), (0.5, 300.0, 20.0)]).unwrap();
        let mut rng = SeededRng::new(21);
        let data = truth.sample_n(&mut rng, 15_000);
        let lb = logbins_of(&data, 1000.0);
        let k1 = Gmm::fit_binned(
            &lb,
            &GmmFitConfig {
                components: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let k2 = Gmm::fit_binned(
            &lb,
            &GmmFitConfig {
                components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(k2.bic_binned(&lb) < k1.bic_binned(&lb));
    }

    /// The point-at-a-time E-step the column kernel replaced, kept as its
    /// bitwise oracle: the same operations per point, in the same order.
    /// `consts` holds `(cⱼ, μⱼ, σⱼ)` per component; `r` holds the last
    /// point's weighted responsibilities.
    struct EStep {
        consts: Vec<(f64, f64, f64)>,
        r: Vec<f64>,
    }

    impl EStep {
        fn new(components: &[GmmComponent]) -> Self {
            let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
            let consts = components
                .iter()
                .map(|comp| {
                    let ln_w = comp.weight.max(f64::MIN_POSITIVE).ln();
                    (
                        ln_w - comp.std_dev.ln() - half_ln_2pi,
                        comp.mean,
                        comp.std_dev,
                    )
                })
                .collect();
            Self {
                consts,
                r: vec![0.0; components.len()],
            }
        }

        /// The point's log-likelihood term `w · ln Σⱼ exp ℓⱼ(x)`, leaving
        /// its responsibilities in `self.r`.
        fn at(&mut self, x: f64, w: f64) -> f64 {
            let mut max = f64::NEG_INFINITY;
            for (l, &(c, mean, std_dev)) in self.r.iter_mut().zip(&self.consts) {
                let z = (x - mean) / std_dev;
                *l = c - 0.5 * z * z;
                max = max.max(*l);
            }
            let mut sum = 0.0;
            for e in &mut self.r {
                *e = (*e - max).exp();
                sum += *e;
            }
            let scale = w / sum;
            for r in &mut self.r {
                *r *= scale;
            }
            w * if max.is_finite() { max + sum.ln() } else { max }
        }
    }

    /// The column kernel over `points`: the log-likelihood and each
    /// component's column of responsibilities.
    fn kernel(g: &Gmm, points: &[(f64, f64)]) -> (f64, Vec<Vec<f64>>) {
        let mut scratch = Scratch::default();
        let ll = e_step(g.components(), points, &mut scratch);
        let b = points.len();
        let columns = (0..g.k())
            .map(|j| scratch.resp[j * b..(j + 1) * b].to_vec())
            .collect();
        (ll, columns)
    }

    /// The textbook E-step: the weighted log-density of each component, a
    /// log-sum-exp, then a second exponential per component for the
    /// responsibility `w · exp(ℓⱼ − norm)`.
    fn two_exp_e_step(g: &Gmm, x: f64, w: f64) -> (f64, Vec<f64>) {
        let logs: Vec<f64> = g
            .components()
            .iter()
            .map(|c| c.weight.max(f64::MIN_POSITIVE).ln() + c.log_pdf(x))
            .collect();
        let norm = log_sum_exp(&logs);
        let resp = logs.iter().map(|l| w * (l - norm).exp()).collect();
        (w * norm, resp)
    }

    /// Checks the column kernel against the textbook oracle at every
    /// point: each log-likelihood term (the kernel over that point alone)
    /// and their sum within 1e-12 relative, each responsibility within
    /// 1e-12 relative plus `1e-300 · w`, the slack for the oracle's
    /// underflow. Returns how many oracle responsibilities were subnormal
    /// and how many were zero.
    fn check_against_oracle(g: &Gmm, points: &[(f64, f64)]) -> (usize, usize) {
        let (ll, columns) = kernel(g, points);
        let mut one = Scratch::default();
        let (mut want_ll, mut scale) = (0.0, 0.0);
        let (mut subnormal, mut zero) = (0, 0);
        for (i, &(x, w)) in points.iter().enumerate() {
            let got = e_step(g.components(), &[(x, w)], &mut one);
            let (want, want_r) = two_exp_e_step(g, x, w);
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "x = {x}: {got} vs {want}"
            );
            (want_ll, scale) = (want_ll + want, scale + want.abs());
            for (col, &want) in columns.iter().zip(&want_r) {
                let r = col[i];
                assert!(
                    (r - want).abs() <= 1e-12 * want + 1e-300 * w,
                    "x = {x}: responsibility {r:e} vs {want:e}"
                );
                subnormal += usize::from(want.is_subnormal());
                zero += usize::from(want == 0.0);
            }
        }
        assert!((ll - want_ll).abs() <= 1e-12 * scale, "{ll} vs {want_ll}");
        (subnormal, zero)
    }

    /// Checks the column kernel against the point-at-a-time [`EStep`] bit
    /// for bit: every responsibility, and the log-likelihood summed in
    /// point order. Returns how many responsibilities were subnormal and
    /// how many were zero.
    fn check_bitwise(g: &Gmm, points: &[(f64, f64)]) -> (usize, usize) {
        let (ll, columns) = kernel(g, points);
        let mut oracle = EStep::new(g.components());
        let mut want_ll = -0.0;
        let (mut subnormal, mut zero) = (0, 0);
        for (i, &(x, w)) in points.iter().enumerate() {
            want_ll += oracle.at(x, w);
            for (col, &want) in columns.iter().zip(&oracle.r) {
                let r = col[i];
                assert_eq!(r.to_bits(), want.to_bits(), "x = {x}: {r:e} vs {want:e}");
                subnormal += usize::from(want.is_subnormal());
                zero += usize::from(want == 0.0);
            }
        }
        assert_eq!(ll.to_bits(), want_ll.to_bits(), "{ll} vs {want_ll}");
        (subnormal, zero)
    }

    /// `n` weighted points drawn from `g`, on the bins of `lb`.
    fn binned_sample(g: &Gmm, rng: &mut SeededRng, n: usize, mut lb: LogBins) -> Vec<(f64, f64)> {
        for _ in 0..n {
            lb.add(g.sample_at_least(rng, 0.0));
        }
        lb.weighted_points()
    }

    /// A mixture shaped like Fig 18's fit, its 2.5 Mbps-wide top mode
    /// narrowed to 0.05 so that the bins beside it sit in its far tail,
    /// and points on its bins plus a dense grid across the narrow mode,
    /// where `z²/2` runs through the subnormal range of `exp`.
    fn narrow_k5() -> (Gmm, Vec<(f64, f64)>) {
        let g = Gmm::from_triples(&[
            (0.27, 6.6, 3.2),
            (0.42, 22.4, 10.0),
            (0.23, 55.4, 25.1),
            (0.07, 320.8, 109.6),
            (0.01, 495.5, 0.05),
        ])
        .unwrap();
        let mut rng = SeededRng::new(0x18);
        let mut points = binned_sample(&g, &mut rng, 50_000, LogBins::for_range(1000.0));
        points.extend((0..400).map(|i| (490.0 + 0.025 * i as f64, 3.0)));
        (g, points)
    }

    /// A two-component mixture on the one occupied bin of 100 × 5.0: the
    /// fit's range is `f64::MIN_POSITIVE`, so its `min_std` is subnormal
    /// and `1/σ` overflows — the reason the kernel divides by σ.
    fn single_bin() -> (Gmm, Vec<(f64, f64)>) {
        let lb = logbins_of(&[5.0; 100], 100.0);
        let points = lb.weighted_points();
        let min_std = f64::MIN_POSITIVE * GmmFitConfig::default().min_std_frac;
        assert!(min_std.is_subnormal() && (1.0 / min_std).is_infinite());
        let x = points[0].0;
        let g = Gmm::from_triples(&[(0.5, x, min_std), (0.5, x, min_std)]).unwrap();
        (g, points)
    }

    #[test]
    fn e_step_matches_the_two_exponential_oracle() {
        let mut rng = SeededRng::new(0xE5);
        let (mut subnormal, mut zero) = (0, 0);
        for _ in 0..40 {
            let k = 1 + rng.index(5);
            let triples: Vec<(f64, f64, f64)> = (0..k)
                .map(|_| {
                    let std_dev = 5.0 + 95.0 * rng.uniform();
                    (0.05 + rng.uniform(), 1000.0 * rng.uniform(), std_dev)
                })
                .collect();
            let g = Gmm::from_triples(&triples).unwrap();
            let points = binned_sample(&g, &mut rng, 20_000, LogBins::for_range(1500.0));
            let (s, z) = check_against_oracle(&g, &points);
            (subnormal, zero) = (subnormal + s, zero + z);
        }
        // Far-tail bins: some responsibilities underflow in the oracle's
        // `exp(ℓ − norm)`, to a subnormal and to zero.
        assert!(
            subnormal > 0 && zero > 0,
            "{subnormal} subnormal, {zero} zero"
        );
    }

    #[test]
    fn e_step_matches_the_oracle_on_a_narrow_k5_component() {
        let (g, points) = narrow_k5();
        let (subnormal, zero) = check_against_oracle(&g, &points);
        assert!(
            subnormal > 0 && zero > 0,
            "{subnormal} subnormal, {zero} zero"
        );
    }

    #[test]
    fn e_step_matches_the_oracle_on_a_single_occupied_bin() {
        let (g, points) = single_bin();
        check_against_oracle(&g, &points);
        let x = points[0].0;
        let (ll, columns) = kernel(&g, &[(x, 100.0)]);
        assert!(ll.is_finite());
        assert_eq!(columns, [[50.0], [50.0]]);
        // Off the bin every `z` is infinite and every `ℓ` is −∞: the log
        // sum is −∞, as `log_sum_exp` returns, not NaN.
        let off = 2.0 * x;
        assert_eq!(kernel(&g, &[(off, 1.0)]).0, f64::NEG_INFINITY);
        assert_eq!(two_exp_e_step(&g, off, 1.0).0, f64::NEG_INFINITY);
    }

    #[test]
    fn column_kernel_matches_the_point_oracle_bit_for_bit() {
        let mut rng = SeededRng::new(0xB17);
        let (mut subnormal, mut zero) = (0, 0);
        for k in 1..=5 {
            for _ in 0..8 {
                let triples: Vec<(f64, f64, f64)> = (0..k)
                    .map(|_| {
                        let std_dev = 0.05 + 95.0 * rng.uniform();
                        (0.05 + rng.uniform(), 1000.0 * rng.uniform(), std_dev)
                    })
                    .collect();
                let g = Gmm::from_triples(&triples).unwrap();
                let points = binned_sample(&g, &mut rng, 20_000, LogBins::for_range(1500.0));
                let (s, z) = check_bitwise(&g, &points);
                (subnormal, zero) = (subnormal + s, zero + z);
            }
        }
        let (g, points) = narrow_k5();
        let (s, z) = check_bitwise(&g, &points);
        // Far-tail bins: responsibilities that are subnormal and zero.
        assert!(
            subnormal > 0 && zero > 0 && s > 0 && z > 0,
            "{subnormal} + {s} subnormal, {zero} + {z} zero"
        );
        // One occupied bin with a subnormal σ, then a point off it, where
        // every `ℓ` is −∞: the log-likelihood is −∞ and the off-bin
        // responsibilities are the same NaN on both sides.
        let (g, mut points) = single_bin();
        check_bitwise(&g, &points);
        points.push((2.0 * points[0].0, 1.0));
        check_bitwise(&g, &points);
        assert_eq!(kernel(&g, &points).0, f64::NEG_INFINITY);
    }

    #[test]
    fn fit_handles_identical_points() {
        let data = vec![5.0; 100];
        let fit = Gmm::fit(
            &data,
            &GmmFitConfig {
                components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((fit.mean() - 5.0).abs() < 1e-6);
    }
}
