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
//!   prescribes; candidate fits race on the shared [`crate::pool`].

use crate::histogram::LogBins;
use crate::pool::{self, PoolCtx};
use crate::rng::SeededRng;
use crate::special::{log_sum_exp, standard_normal_cdf};
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

    /// Mixture log-density at `x` (numerically stable).
    pub fn log_pdf(&self, x: f64) -> f64 {
        let terms: Vec<f64> = self
            .components
            .iter()
            .map(|c| c.weight.max(f64::MIN_POSITIVE).ln() + c.log_pdf(x))
            .collect();
        log_sum_exp(&terms)
    }

    /// Mixture CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * standard_normal_cdf((x - c.mean) / c.std_dev))
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

    /// Draw one sample.
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        let u = rng.uniform();
        let mut acc = 0.0;
        for c in &self.components {
            acc += c.weight;
            if u < acc {
                return rng.normal(c.mean, c.std_dev);
            }
        }
        // Floating-point slack: fall through to the last component.
        let c = self.components.last().expect("non-empty mixture");
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
        self.components
            .iter()
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"))
            .expect("non-empty mixture")
            .mean
    }

    /// Among the modes strictly greater than `current`, the one whose
    /// component has the largest weight. This is Swiftest's escalation
    /// rule: "we use the most probable one among these larger modal
    /// bandwidth values as the next probing data rate" (§5.1).
    pub fn next_larger_mode(&self, current: f64) -> Option<f64> {
        self.components
            .iter()
            .filter(|c| c.mean > current)
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"))
            .map(|c| c.mean)
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
        if data.is_empty() {
            return 0.0;
        }
        // Hoist the per-component constants (`ln w`, `ln σ`) out of the
        // data loop and reuse one scratch buffer; the per-sample
        // arithmetic and summation order match `log_pdf` exactly, so the
        // result is bit-identical to the naive per-sample call.
        let consts = ComponentLogConsts::of(&self.components);
        let mut logs = vec![0.0f64; self.components.len()];
        data.iter()
            .map(|&x| {
                consts.fill_logs(&self.components, x, &mut logs);
                log_sum_exp(&logs)
            })
            .sum::<f64>()
            / data.len() as f64
    }

    /// BIC of this mixture on `data` (lower is better). A k-component
    /// 1-D mixture has `3k - 1` free parameters.
    pub fn bic(&self, data: &[f64]) -> f64 {
        let n = data.len().max(1) as f64;
        let ll = self.mean_log_likelihood(data) * n;
        let params = (3 * self.k() - 1) as f64;
        params * n.ln() - 2.0 * ll
    }

    /// Fit a mixture with EM.
    ///
    /// Initialisation is k-means++ on the sample followed by one hard
    /// assignment pass; EM then iterates soft E/M steps until the mean
    /// log-likelihood improves by less than `config.tolerance` or
    /// `config.max_iters` is reached.
    pub fn fit(data: &[f64], config: &GmmFitConfig) -> Result<Self, GmmError> {
        let k = config.components;
        if k == 0 {
            return Err(GmmError::NoComponents);
        }
        // Heuristic: at least 5 points per component for a meaningful fit.
        let needed = (5 * k).max(2);
        if data.len() < needed {
            return Err(GmmError::NotEnoughData {
                needed,
                got: data.len(),
            });
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(GmmError::InvalidParameters);
        }

        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let range = (hi - lo).max(f64::MIN_POSITIVE);
        let min_std = range * config.min_std_frac;

        let mut rng = SeededRng::new(config.seed);
        let centers = kmeans_pp_centers(data, k, &mut rng);
        let mut mix = initial_mixture_from_centers(data, &centers, min_std);

        let n = data.len();
        let mut resp = vec![0.0f64; n * k]; // responsibilities, row-major
        let mut logs = vec![0.0f64; k]; // per-sample scratch, reused
        let mut prev_ll = f64::NEG_INFINITY;
        let tracer = trace::active();
        let mut spans = tracer.local();
        let fit_span = spans.begin();
        let mut iters = 0u64;
        for _ in 0..config.max_iters {
            let iter_span = spans.begin();
            iters += 1;
            // E-step. `ln w` and `ln σ` are invariant across the sample
            // loop, so they are hoisted per iteration; the per-sample
            // arithmetic matches `log_pdf` term for term, keeping the fit
            // bit-identical to the unhoisted form while dropping two `ln`
            // calls and a heap allocation per sample.
            let consts = ComponentLogConsts::of(&mix.components);
            let mut ll_sum = 0.0;
            for (i, &x) in data.iter().enumerate() {
                consts.fill_logs(&mix.components, x, &mut logs);
                let norm = log_sum_exp(&logs);
                ll_sum += norm;
                for (j, &l) in logs.iter().enumerate() {
                    resp[i * k + j] = (l - norm).exp();
                }
            }
            let ll = ll_sum / n as f64;

            // M-step.
            for j in 0..k {
                let nj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
                let nj = nj.max(1e-12);
                let mean = (0..n).map(|i| resp[i * k + j] * data[i]).sum::<f64>() / nj;
                let var = (0..n)
                    .map(|i| resp[i * k + j] * (data[i] - mean).powi(2))
                    .sum::<f64>()
                    / nj;
                mix.components[j] = GmmComponent {
                    weight: nj / n as f64,
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
            spans.end_with(
                fit_span,
                0,
                "gmm.fit",
                "gmm",
                vec![
                    ("components", ArgValue::from(k)),
                    ("samples", ArgValue::from(n)),
                    ("iters", ArgValue::U64(iters)),
                ],
            );
        }
        // Renormalise weights (guards against drift from the nj floor).
        Gmm::new(mix.components)
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
        // `SeededRng::new(seed)`), so on large inputs they race on the
        // shared work pool. Results are folded in `k` order afterwards,
        // which keeps the BIC tie-break (first/lowest `k` wins) — and thus
        // the selected mixture — identical to the sequential loop. Small
        // inputs (per-trial fits in the eval half) stay sequential; the
        // thread spawn would cost more than the fit.
        let tracer = trace::active();
        let mut auto_spans = tracer.local();
        let auto_span = auto_spans.begin();
        // Spawned workers do not inherit the caller's trace scope, so the
        // candidate closure re-`scope`s the captured tracer before fitting;
        // on the sequential path the nested scope is a no-op.
        let fit_k = |k: usize| {
            trace::scope(&tracer, || {
                let mut spans = tracer.local();
                let cand_span = spans.begin();
                let config = GmmFitConfig {
                    components: k,
                    seed,
                    ..Default::default()
                };
                let result = Gmm::fit(data, &config).map(|g| {
                    let bic = g.bic(data);
                    (bic, g)
                });
                if cand_span.id != 0 {
                    let bic = match &result {
                        Ok((bic, _)) => *bic,
                        Err(_) => f64::NAN,
                    };
                    spans.end_with(
                        cand_span,
                        0,
                        "gmm.fit_candidate",
                        "gmm",
                        vec![("k", ArgValue::from(k)), ("bic", ArgValue::F64(bic))],
                    );
                }
                result
            })
        };
        let fits: Vec<Result<(f64, Gmm), GmmError>> =
            if data.len() >= PARALLEL_FIT_MIN_SAMPLES && max_components > 1 {
                let fit_k = &fit_k;
                let tasks: Vec<pool::Task<'_, Result<(f64, Gmm), GmmError>>> = (1..=max_components)
                    .map(|k| -> pool::Task<'_, Result<(f64, Gmm), GmmError>> {
                        Box::new(move |_ctx| fit_k(k))
                    })
                    .collect();
                pool::run(max_components, tasks)
            } else {
                (1..=max_components).map(fit_k).collect()
            };
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
        best.map(|(_, g)| g).ok_or(last_err)
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
        fit_weighted(&points, bins.total(), config, bins.bins())
    }

    /// Binned analogue of [`Gmm::fit_auto`]: fit `1..=max_components`
    /// candidates with [`Gmm::fit_binned`] and keep the lowest
    /// [`Gmm::bic_binned`]. Candidates race on `ctx`'s work pool when one
    /// is available (inside a parallel finish), or run sequentially under
    /// [`PoolCtx::serial`] — the fold happens in `k` order either way, so
    /// the selected mixture is identical.
    pub fn fit_auto_binned<'env>(
        bins: &LogBins,
        max_components: usize,
        seed: u64,
        ctx: &PoolCtx<'_, 'env>,
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
        let fits: Vec<Result<(f64, Gmm), GmmError>> = if ctx.is_parallel() && max_components > 1 {
            // Pool subtasks may outlive this stack frame's borrows, so each
            // candidate owns a clone of the (at most bins+1 entry) weighted
            // point list and of the tracer handle.
            let tasks: Vec<CandidateTask<'env>> = (1..=max_components)
                .map(|k| -> CandidateTask<'env> {
                    let points = points.clone();
                    let tracer = tracer.clone();
                    Box::new(move || binned_candidate(k, &points, total, log_bins, seed, &tracer))
                })
                .collect();
            ctx.fork_join(tasks)
        } else {
            (1..=max_components)
                .map(|k| binned_candidate(k, &points, total, log_bins, seed, &tracer))
                .collect()
        };
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
        best.map(|(_, g)| g).ok_or(last_err)
    }

    /// BIC of this mixture against binned data (lower is better), using
    /// the weighted bin log-likelihood and the *true* observation count
    /// for the complexity penalty.
    pub fn bic_binned(&self, bins: &LogBins) -> f64 {
        bic_weighted(self, &bins.weighted_points(), bins.total())
    }
}

/// Sample count above which [`Gmm::fit_auto`] fans its candidate fits
/// out over scoped threads. Figure-scale fits (tens of thousands of
/// samples) clear this easily; per-trial fits in the eval half do not.
const PARALLEL_FIT_MIN_SAMPLES: usize = 10_000;

/// Per-component constants of the weighted log-density, hoisted out of
/// per-sample loops: `ln wⱼ` and `ln σⱼ`. `fill_logs` evaluates
/// `ln wⱼ + log_pdfⱼ(x)` with exactly the operation order of
/// `GmmComponent::log_pdf`, so hoisting never changes a bit of the
/// result — only how often the logarithms are taken.
struct ComponentLogConsts {
    ln_weight: Vec<f64>,
    ln_std: Vec<f64>,
}

impl ComponentLogConsts {
    fn of(components: &[GmmComponent]) -> Self {
        Self {
            ln_weight: components
                .iter()
                .map(|c| c.weight.max(f64::MIN_POSITIVE).ln())
                .collect(),
            ln_std: components.iter().map(|c| c.std_dev.ln()).collect(),
        }
    }

    fn fill_logs(&self, components: &[GmmComponent], x: f64, logs: &mut [f64]) {
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        for (j, c) in components.iter().enumerate() {
            let z = (x - c.mean) / c.std_dev;
            let log_pdf = -0.5 * z * z - self.ln_std[j] - half_ln_2pi;
            logs[j] = self.ln_weight[j] + log_pdf;
        }
    }
}

/// k-means++ seeding: first centre uniform, subsequent centres sampled
/// proportionally to squared distance from the nearest chosen centre.
fn kmeans_pp_centers(data: &[f64], k: usize, rng: &mut SeededRng) -> Vec<f64> {
    let mut centers = Vec::with_capacity(k);
    centers.push(data[rng.index(data.len())]);
    while centers.len() < k {
        let d2: Vec<f64> = data
            .iter()
            .map(|&x| {
                centers
                    .iter()
                    .map(|&c| (x - c).powi(2))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centres; duplicate one.
            centers.push(centers[0]);
            continue;
        }
        let mut target = rng.uniform() * total;
        let mut chosen = data.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centers.push(data[chosen]);
    }
    centers
}

/// Hard-assign points to the nearest centre and build the initial mixture.
fn initial_mixture_from_centers(data: &[f64], centers: &[f64], min_std: f64) -> Gmm {
    let k = centers.len();
    let mut sums = vec![0.0; k];
    let mut sqs = vec![0.0; k];
    let mut counts = vec![0usize; k];
    for &x in data {
        let (j, _) = centers
            .iter()
            .enumerate()
            .map(|(j, &c)| (j, (x - c).abs()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("at least one centre");
        sums[j] += x;
        sqs[j] += x * x;
        counts[j] += 1;
    }
    let n = data.len() as f64;
    let components = (0..k)
        .map(|j| {
            let cnt = counts[j].max(1) as f64;
            let mean = if counts[j] == 0 {
                centers[j]
            } else {
                sums[j] / cnt
            };
            let var = (sqs[j] / cnt - mean * mean).max(0.0);
            GmmComponent {
                weight: (counts[j] as f64 / n).max(1e-6),
                mean,
                std_dev: var.sqrt().max(min_std),
            }
        })
        .collect();
    Gmm::new(components).expect("initial mixture is valid by construction")
}

/// One BIC candidate fit, boxed for [`PoolCtx::fork_join`].
type CandidateTask<'env> = Box<dyn FnOnce() -> Result<(f64, Gmm), GmmError> + Send + 'env>;

/// One BIC candidate of [`Gmm::fit_auto_binned`]: fit `k` components on
/// the weighted bins and score them. Re-`scope`s the tracer so candidate
/// spans attach to the right trace even when run on a pool worker.
fn binned_candidate(
    k: usize,
    points: &[(f64, f64)],
    total: u64,
    log_bins: usize,
    seed: u64,
    tracer: &trace::Tracer,
) -> Result<(f64, Gmm), GmmError> {
    trace::scope(tracer, || {
        let mut spans = tracer.local();
        let cand_span = spans.begin();
        let config = GmmFitConfig {
            components: k,
            seed,
            ..Default::default()
        };
        let result = fit_weighted(points, total, &config, log_bins)
            .map(|g| (bic_weighted(&g, points, total), g));
        if cand_span.id != 0 {
            let bic = match &result {
                Ok((bic, _)) => *bic,
                Err(_) => f64::NAN,
            };
            spans.end_with(
                cand_span,
                0,
                "gmm.fit_candidate",
                "gmm",
                vec![("k", ArgValue::from(k)), ("bic", ArgValue::F64(bic))],
            );
        }
        result
    })
}

/// Weighted EM over `(representative, count)` pairs — the engine behind
/// [`Gmm::fit_binned`]. `total` is the true observation count (used for
/// the data-sufficiency check and the mixture weights); `log_bins` is the
/// histogram's bin budget, recorded on the `gmm.fit_binned` span.
fn fit_weighted(
    points: &[(f64, f64)],
    total: u64,
    config: &GmmFitConfig,
    log_bins: usize,
) -> Result<Gmm, GmmError> {
    let k = config.components;
    if k == 0 {
        return Err(GmmError::NoComponents);
    }
    // Same heuristic as the raw fit: 5 *observations* (not bins) per
    // component.
    let needed = (5 * k).max(2);
    if (total as usize) < needed {
        return Err(GmmError::NotEnoughData {
            needed,
            got: total as usize,
        });
    }
    let lo = points.iter().map(|&(x, _)| x).fold(f64::INFINITY, f64::min);
    let hi = points
        .iter()
        .map(|&(x, _)| x)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    let min_std = range * config.min_std_frac;

    let mut rng = SeededRng::new(config.seed);
    let centers = weighted_kmeans_pp_centers(points, k, &mut rng);
    let mut mix = weighted_initial_mixture(points, &centers, min_std);

    let total_w = total as f64;
    let b = points.len();
    let mut resp = vec![0.0f64; b * k]; // weighted responsibilities, row-major
    let mut logs = vec![0.0f64; k];
    let mut prev_ll = f64::NEG_INFINITY;
    let tracer = trace::active();
    let mut spans = tracer.local();
    let fit_span = spans.begin();
    let mut iters = 0u64;
    for _ in 0..config.max_iters {
        let iter_span = spans.begin();
        iters += 1;
        // E-step over occupied bins: identical arithmetic to the raw-sample
        // E-step, with every per-sample term scaled by the bin count.
        let consts = ComponentLogConsts::of(&mix.components);
        let mut ll_sum = 0.0;
        for (i, &(x, w)) in points.iter().enumerate() {
            consts.fill_logs(&mix.components, x, &mut logs);
            let norm = log_sum_exp(&logs);
            ll_sum += w * norm;
            for (j, &l) in logs.iter().enumerate() {
                resp[i * k + j] = w * (l - norm).exp();
            }
        }
        let ll = ll_sum / total_w;

        // M-step.
        for j in 0..k {
            let nj: f64 = (0..b).map(|i| resp[i * k + j]).sum();
            let nj = nj.max(1e-12);
            let mean = (0..b).map(|i| resp[i * k + j] * points[i].0).sum::<f64>() / nj;
            let var = (0..b)
                .map(|i| resp[i * k + j] * (points[i].0 - mean).powi(2))
                .sum::<f64>()
                / nj;
            mix.components[j] = GmmComponent {
                weight: nj / total_w,
                mean,
                std_dev: var.sqrt().max(min_std),
            };
        }

        spans.end(iter_span, fit_span.id, "gmm.em_iter", "gmm");
        if (ll - prev_ll).abs() < config.tolerance {
            break;
        }
        prev_ll = ll;
    }
    if fit_span.id != 0 {
        spans.end_with(
            fit_span,
            0,
            "gmm.fit_binned",
            "gmm",
            vec![
                ("components", ArgValue::from(k)),
                ("bins", ArgValue::from(b)),
                ("log_bins", ArgValue::from(log_bins)),
                ("records", ArgValue::U64(total)),
                ("iters", ArgValue::U64(iters)),
            ],
        );
    }
    Gmm::new(mix.components)
}

/// BIC of `g` against weighted bins: the weighted log-likelihood with the
/// true observation count in the complexity penalty, mirroring
/// [`Gmm::bic`].
fn bic_weighted(g: &Gmm, points: &[(f64, f64)], total: u64) -> f64 {
    let n = total.max(1) as f64;
    let consts = ComponentLogConsts::of(g.components());
    let mut logs = vec![0.0f64; g.k()];
    let ll: f64 = points
        .iter()
        .map(|&(x, w)| {
            consts.fill_logs(g.components(), x, &mut logs);
            w * log_sum_exp(&logs)
        })
        .sum();
    let params = (3 * g.k() - 1) as f64;
    params * n.ln() - 2.0 * ll
}

/// k-means++ seeding over weighted points: the first centre is drawn by
/// bin mass, subsequent centres proportionally to `w · d²` from the
/// nearest chosen centre — the weighted analogue of `kmeans_pp_centers`.
fn weighted_kmeans_pp_centers(points: &[(f64, f64)], k: usize, rng: &mut SeededRng) -> Vec<f64> {
    let mut centers = Vec::with_capacity(k);
    let total_w: f64 = points.iter().map(|&(_, w)| w).sum();
    let mut target = rng.uniform() * total_w;
    let mut first = points.len() - 1;
    for (i, &(_, w)) in points.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            first = i;
            break;
        }
    }
    centers.push(points[first].0);
    while centers.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|&(x, w)| {
                w * centers
                    .iter()
                    .map(|&c| (x - c).powi(2))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All mass coincides with existing centres; duplicate one.
            centers.push(centers[0]);
            continue;
        }
        let mut target = rng.uniform() * total;
        let mut chosen = points.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centers.push(points[chosen].0);
    }
    centers
}

/// Hard-assign weighted points to the nearest centre and build the
/// initial mixture, mirroring `initial_mixture_from_centers`.
fn weighted_initial_mixture(points: &[(f64, f64)], centers: &[f64], min_std: f64) -> Gmm {
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
            // Bin counts are integers, so a non-empty cluster has mass ≥ 1.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // The same fit racing candidates on a real pool must select the
        // same mixture bit-for-bit.
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
