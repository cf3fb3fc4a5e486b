//! The evaluation campaign: plan → execute (§5.3, Figs 17–26).
//!
//! The evaluation half of the paper runs thousands of simulated trials
//! — single tests, back-to-back pairs, four-service test groups, TCP
//! ramp-up measurements, and design-ablation variants. This module
//! turns that into a three-stage pipeline:
//!
//! 1. **Plan** ([`CampaignPlan`]): enumerate [`TrialSpec`]s — the
//!    deduplicated union of every trial the requested figures need.
//!    Each spec owns a deterministic RNG stream derived from
//!    `(campaign seed, series, index)` by [`trial_seed`], so a trial's
//!    outcome depends only on its *identity*, never on its position in
//!    the plan or on which figures requested it. Shared work (the
//!    back-to-back BTS-APP references of Figs 20–22) therefore runs
//!    once and feeds every consumer byte-identically.
//! 2. **Execute** ([`run_campaign`]): [`mbw_stats::pool`] runs
//!    the trials against per-scenario [`TestHarness`]es (scenarios are
//!    immutable, so one harness serves every worker) and assembles a
//!    columnar [`TrialPool`] in plan order — byte-identical for any
//!    thread count. Each test records a fixed-size
//!    [`DecisionRecord`], not a full timeline, and every trial of a
//!    worker runs on the worker's one reusable test scratch (flow
//!    simulator and sample buffers, reset between tests).
//! 3. **Reduce** (in `mbw-bench`): figure accumulators fold the shared
//!    pool into Figs 17–26 in one pass.
//!
//! The `trial_seed` scheme replaces the ad-hoc `seed.wrapping_add(i *
//! stride)` derivations the per-figure loops used: a splitmix64-style
//! bijective mixer guarantees distinct indices in a series can never
//! collide, while distinct series decorrelate fully instead of sharing
//! arithmetic progressions.

use crate::decision::DecisionRecord;
use crate::estimator::ConvergenceEstimator;
use crate::harness::{Fleets, TestHarness};
use crate::model::TechClass;
use crate::probe::{self, BtsKind, SwiftestConfig};
use crate::scenario::AccessScenario;
use crate::scratch::TestScratch;
use mbw_congestion::{CcAlgorithm, MultiFlowConfig};
use mbw_frame::{Codec, CodecError, Dec, Enc};
use mbw_netsim::{ConstantCapacity, PathConfig, PathModel, RampUpCapacity};
use mbw_stats::{pool, Gmm, SeededRng};
use mbw_telemetry::trace::{self, ArgValue};
use mbw_telemetry::CampaignMetrics;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Finalizer of the splitmix64 generator: a bijective mixer on `u64`.
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// The seed of trial `index` within `series` of the campaign.
///
/// Bijective in `index` for a fixed `(campaign_seed, series)`: two
/// distinct indices in one series can never share a seed.
pub fn trial_seed(campaign_seed: u64, series: u64, index: u64) -> u64 {
    mix64(index ^ mix64(campaign_seed ^ mix64(series)))
}

/// Which access population a trial draws its link from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// The calibrated default scenario of one technology class.
    Tech(TechClass),
    /// The §7 mmWave 5G extension scenario.
    Mmwave,
}

impl ScenarioId {
    /// Every scenario the evaluation draws from.
    pub const ALL: [ScenarioId; 4] = [
        ScenarioId::Tech(TechClass::Lte),
        ScenarioId::Tech(TechClass::Nr),
        ScenarioId::Tech(TechClass::Wifi),
        ScenarioId::Mmwave,
    ];

    fn tag(self) -> u64 {
        match self {
            ScenarioId::Tech(TechClass::Lte) => 0,
            ScenarioId::Tech(TechClass::Nr) => 1,
            ScenarioId::Tech(TechClass::Wifi) => 2,
            ScenarioId::Mmwave => 3,
        }
    }

    /// Materialise the scenario.
    pub fn scenario(self) -> AccessScenario {
        match self {
            ScenarioId::Tech(t) => AccessScenario::default_for(t),
            ScenarioId::Mmwave => AccessScenario::mmwave(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioId::Tech(t) => t.name(),
            ScenarioId::Mmwave => "mmWave",
        }
    }
}

/// The ecosystem-profile dimension of a campaign plan.
///
/// The measurement half swaps whole
/// `mbw_dataset::profile::EcosystemProfile`s; the evaluation half
/// needs only what reaches a drawn path — the per-technology capacity
/// populations and the RTT regime — so a profile appears here as a set
/// of scale factors applied to the calibrated default scenarios.
///
/// Trial seeds are a pure function of the campaign seed and the trial's
/// identity ([`TrialSpec::seed`]) and do **not** include the profile:
/// running the same plan under two profiles reuses the exact same path
/// draws (common random numbers), so cross-ecosystem comparisons of
/// Figs 17–26 are paired, not independent. The neutral
/// [`ProfileDim::PAPER_CHINA`] leaves every scenario bit-identical to
/// the pre-profile pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileDim {
    /// Profile name (matches the `mbw-dataset` built-in names).
    pub name: &'static str,
    /// Capacity scale on the 4G population model.
    pub lte_scale: f64,
    /// Capacity scale on the sub-6 GHz 5G population model.
    pub nr_scale: f64,
    /// Capacity scale on the WiFi population model.
    pub wifi_scale: f64,
    /// Capacity scale on the §7 mmWave population model.
    pub mmwave_scale: f64,
    /// Scale on every scenario's RTT draw range.
    pub rtt_scale: f64,
}

impl ProfileDim {
    /// The paper's own ecosystem: the neutral dimension (all scales 1).
    pub const PAPER_CHINA: Self = Self {
        name: "paper-china",
        lte_scale: 1.0,
        nr_scale: 1.0,
        wifi_scale: 1.0,
        mmwave_scale: 1.0,
        rtt_scale: 1.0,
    };

    /// ERRANT-style European multi-operator RAN: solid LTE, early-stage
    /// NR, longer paths to the measurement servers.
    pub const EUROPE_RAN: Self = Self {
        name: "europe-ran",
        lte_scale: 0.85,
        nr_scale: 0.70,
        wifi_scale: 0.95,
        mmwave_scale: 0.90,
        rtt_scale: 1.25,
    };

    /// AmiGos-style developing-market network: low-band LTE, nascent
    /// 5G, DSL-class broadband, distant servers.
    pub const DEVELOPING_MARKET: Self = Self {
        name: "developing-market",
        lte_scale: 0.55,
        nr_scale: 0.35,
        wifi_scale: 0.60,
        mmwave_scale: 0.50,
        rtt_scale: 1.80,
    };

    /// mmWave-dense metropolitan deployment: wide contiguous spectrum
    /// everywhere and edge-class RTTs.
    pub const MMWAVE_METRO: Self = Self {
        name: "mmwave-metro",
        lte_scale: 1.10,
        nr_scale: 1.60,
        wifi_scale: 1.30,
        mmwave_scale: 1.40,
        rtt_scale: 0.70,
    };

    /// Every built-in profile dimension, paper first.
    pub const ALL: [Self; 4] = [
        Self::PAPER_CHINA,
        Self::EUROPE_RAN,
        Self::DEVELOPING_MARKET,
        Self::MMWAVE_METRO,
    ];

    /// Resolve a built-in dimension by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name == name)
    }

    /// Whether this dimension changes nothing (every scale is 1).
    pub fn is_neutral(&self) -> bool {
        [
            self.lte_scale,
            self.nr_scale,
            self.wifi_scale,
            self.mmwave_scale,
            self.rtt_scale,
        ]
        .iter()
        .all(|&s| s == 1.0)
    }

    /// The capacity scale this dimension applies to one scenario.
    pub fn tech_scale(&self, id: ScenarioId) -> f64 {
        match id {
            ScenarioId::Tech(TechClass::Lte) => self.lte_scale,
            ScenarioId::Tech(TechClass::Nr) => self.nr_scale,
            ScenarioId::Tech(TechClass::Wifi) => self.wifi_scale,
            ScenarioId::Mmwave => self.mmwave_scale,
        }
    }

    /// Apply the dimension to a materialised scenario.
    ///
    /// A neutral dimension returns the scenario untouched — not merely
    /// rescaled by 1 — so the default campaign remains bit-identical to
    /// the pre-profile pipeline (`Gmm` reconstruction renormalises its
    /// weights, which could otherwise flip low bits).
    pub fn scale_scenario(&self, id: ScenarioId, mut scenario: AccessScenario) -> AccessScenario {
        if self.is_neutral() {
            return scenario;
        }
        let s = self.tech_scale(id);
        let triples: Vec<(f64, f64, f64)> = scenario
            .model
            .components()
            .iter()
            .map(|c| (c.weight, c.mean * s, c.std_dev * s))
            .collect();
        scenario.model = Gmm::from_triples(&triples).expect("scaled model valid");
        scenario.rtt_range = (
            scenario.rtt_range.0 * self.rtt_scale,
            scenario.rtt_range.1 * self.rtt_scale,
        );
        scenario
    }
}

impl Default for ProfileDim {
    fn default() -> Self {
        Self::PAPER_CHINA
    }
}

/// A Swiftest design variant (the DESIGN.md ablations).
///
/// [`VariantId::PaperDefault`] is the paper's configuration and is
/// *shared* by all three ablation tables — under structural seeding it
/// runs once per campaign no matter how many tables reference it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantId {
    /// GMM prior, 10-sample/3% convergence, modal escalation.
    PaperDefault,
    /// Single Gaussian at the population mean instead of the GMM.
    PopulationMean,
    /// No prior: start at 1 Mbps and grow (application slow start).
    BlindRampup,
    /// Looser convergence: 5-sample window, 5% tolerance.
    ConvergeLoose,
    /// Stricter convergence: 20-sample window, 1% tolerance.
    ConvergeStrict,
    /// Fixed ×1.25 growth instead of modal jumps.
    EscalateFixed,
}

/// One variant's resolved probing configuration.
#[derive(Debug, Clone)]
pub struct VariantSetup {
    /// The bandwidth prior handed to the prober.
    pub model: Gmm,
    /// Convergence window (samples).
    pub window: usize,
    /// Convergence tolerance (fraction).
    pub tolerance: f64,
    /// Prober configuration.
    pub config: SwiftestConfig,
}

impl VariantId {
    /// Every variant the ablation tables use.
    pub const ALL: [VariantId; 6] = [
        VariantId::PaperDefault,
        VariantId::PopulationMean,
        VariantId::BlindRampup,
        VariantId::ConvergeLoose,
        VariantId::ConvergeStrict,
        VariantId::EscalateFixed,
    ];

    fn tag(self) -> u64 {
        match self {
            VariantId::PaperDefault => 0,
            VariantId::PopulationMean => 1,
            VariantId::BlindRampup => 2,
            VariantId::ConvergeLoose => 3,
            VariantId::ConvergeStrict => 4,
            VariantId::EscalateFixed => 5,
        }
    }

    /// Canonical label (ablation tables may re-label the shared
    /// paper-default row per table).
    pub fn label(self) -> &'static str {
        match self {
            VariantId::PaperDefault => "paper-default",
            VariantId::PopulationMean => "population-mean",
            VariantId::BlindRampup => "blind-rampup",
            VariantId::ConvergeLoose => "w5-t5% (loose)",
            VariantId::ConvergeStrict => "w20-t1% (strict)",
            VariantId::EscalateFixed => "fixed-1.25x",
        }
    }

    /// Resolve the variant to a concrete probing setup. All variants
    /// ablate the 5G (NR) configuration, as in DESIGN.md.
    pub fn setup(self) -> VariantSetup {
        let full = TechClass::Nr.default_model();
        let default = SwiftestConfig::default();
        let (model, window, tolerance, config) = match self {
            VariantId::PaperDefault => (full, 10, 0.03, default),
            VariantId::PopulationMean => (
                Gmm::from_triples(&[(1.0, full.mean(), full.variance().sqrt())]).expect("valid"),
                10,
                0.03,
                default,
            ),
            VariantId::BlindRampup => (
                Gmm::from_triples(&[(1.0, 1.0, 0.2)]).expect("valid"),
                10,
                0.03,
                default,
            ),
            VariantId::ConvergeLoose => (full, 5, 0.05, default),
            VariantId::ConvergeStrict => (full, 20, 0.01, default),
            VariantId::EscalateFixed => (
                Gmm::from_triples(&[(1.0, full.dominant_mode(), 1.0)]).expect("valid"),
                10,
                0.03,
                SwiftestConfig {
                    beyond_mode_growth: 1.25,
                    ..SwiftestConfig::default()
                },
            ),
        };
        VariantSetup {
            model,
            window,
            tolerance,
            config,
        }
    }
}

fn bts_tag(kind: BtsKind) -> u64 {
    match kind {
        BtsKind::BtsApp => 0,
        BtsKind::Fast => 1,
        BtsKind::FastBts => 2,
        BtsKind::Swiftest => 3,
    }
}

/// What one trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialKind {
    /// One service on a freshly drawn link (1 outcome row).
    Single(BtsKind),
    /// A back-to-back pair on one drawn link, rows in argument order
    /// (2 outcome rows).
    Pair(BtsKind, BtsKind),
    /// The §5.3 benchmark-study group: all four services on one drawn
    /// link, rows `[BTS-APP, FAST, FastBTS, Swiftest]` (4 outcome
    /// rows).
    Group,
    /// A Fig 17 TCP ramp-up measurement: `(algorithm, bandwidth-bin
    /// index into [`BANDWIDTH_BINS`])` (1 outcome row; the ramp time
    /// lands in `duration_s`).
    Ramp(CcAlgorithm, u8),
    /// One Swiftest design-variant run (1 outcome row).
    Variant(VariantId),
}

impl TrialKind {
    /// Outcome rows this trial produces.
    pub fn outcomes(self) -> usize {
        match self {
            TrialKind::Single(_) | TrialKind::Ramp(..) | TrialKind::Variant(_) => 1,
            TrialKind::Pair(..) => 2,
            TrialKind::Group => 4,
        }
    }

    /// Telemetry label (one of
    /// [`mbw_telemetry::campaign::TRIAL_KIND_LABELS`]).
    pub fn label(self) -> &'static str {
        match self {
            TrialKind::Single(_) => "single",
            TrialKind::Pair(..) => "pair",
            TrialKind::Group => "group",
            TrialKind::Ramp(..) => "ramp",
            TrialKind::Variant(_) => "variant",
        }
    }

    /// The seed-series code. Ramp cells deliberately share one code:
    /// every `(bandwidth, algorithm)` cell then sees the *same* path
    /// draws (common random numbers), which is what makes Fig 17's
    /// cross-cell comparisons low-variance.
    fn seed_code(self) -> u64 {
        match self {
            TrialKind::Single(k) => 0x100 + bts_tag(k),
            TrialKind::Pair(a, b) => 0x200 + bts_tag(a) * 16 + bts_tag(b),
            TrialKind::Group => 0x300,
            TrialKind::Ramp(..) => 0x400,
            TrialKind::Variant(v) => 0x500 + v.tag(),
        }
    }
}

/// One planned trial: what to run, on which population, and which
/// index of its series' RNG stream to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrialSpec {
    /// What runs.
    pub kind: TrialKind,
    /// Which population the link is drawn from.
    pub scenario: ScenarioId,
    /// Position within the series (selects the RNG stream element).
    pub index: u32,
}

impl TrialSpec {
    /// The series this spec's RNG stream belongs to.
    pub fn series(&self) -> u64 {
        (self.kind.seed_code() << 8) | self.scenario.tag()
    }

    /// The trial's seed — a pure function of the campaign seed and the
    /// spec's identity, independent of plan composition.
    pub fn seed(&self, campaign_seed: u64) -> u64 {
        trial_seed(campaign_seed, self.series(), u64::from(self.index))
    }
}

fn bts_from_tag(tag: u8) -> Result<BtsKind, CodecError> {
    Ok(match tag {
        0 => BtsKind::BtsApp,
        1 => BtsKind::Fast,
        2 => BtsKind::FastBts,
        3 => BtsKind::Swiftest,
        _ => {
            return Err(CodecError::BadTag {
                what: "bts kind",
                tag: u64::from(tag),
            })
        }
    })
}

impl Codec for ScenarioId {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u8(self.tag() as u8);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        // `ALL` is in tag order, so the tag doubles as the index.
        let tag = dec.u8()?;
        ScenarioId::ALL
            .get(tag as usize)
            .copied()
            .ok_or(CodecError::BadTag {
                what: "scenario",
                tag: u64::from(tag),
            })
    }
}

impl Codec for VariantId {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u8(self.tag() as u8);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let tag = dec.u8()?;
        VariantId::ALL
            .get(tag as usize)
            .copied()
            .ok_or(CodecError::BadTag {
                what: "variant",
                tag: u64::from(tag),
            })
    }
}

impl Codec for TrialKind {
    fn encode(&self, enc: &mut Enc) {
        match *self {
            TrialKind::Single(k) => {
                enc.put_u8(0);
                enc.put_u8(bts_tag(k) as u8);
            }
            TrialKind::Pair(a, b) => {
                enc.put_u8(1);
                enc.put_u8(bts_tag(a) as u8);
                enc.put_u8(bts_tag(b) as u8);
            }
            TrialKind::Group => enc.put_u8(2),
            TrialKind::Ramp(alg, bin) => {
                enc.put_u8(3);
                let alg_tag = CcAlgorithm::ALL
                    .iter()
                    .position(|&a| a == alg)
                    .expect("algorithm in ALL");
                enc.put_u8(alg_tag as u8);
                enc.put_u8(bin);
            }
            TrialKind::Variant(v) => {
                enc.put_u8(4);
                v.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(TrialKind::Single(bts_from_tag(dec.u8()?)?)),
            1 => {
                let a = bts_from_tag(dec.u8()?)?;
                let b = bts_from_tag(dec.u8()?)?;
                Ok(TrialKind::Pair(a, b))
            }
            2 => Ok(TrialKind::Group),
            3 => {
                let alg_tag = dec.u8()?;
                let alg =
                    CcAlgorithm::ALL
                        .get(alg_tag as usize)
                        .copied()
                        .ok_or(CodecError::BadTag {
                            what: "congestion algorithm",
                            tag: u64::from(alg_tag),
                        })?;
                let bin = dec.u8()?;
                if usize::from(bin) >= BANDWIDTH_BINS.len() {
                    return Err(CodecError::BadTag {
                        what: "bandwidth bin",
                        tag: u64::from(bin),
                    });
                }
                Ok(TrialKind::Ramp(alg, bin))
            }
            4 => Ok(TrialKind::Variant(Codec::decode(dec)?)),
            tag => Err(CodecError::BadTag {
                what: "trial kind",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Codec for TrialSpec {
    fn encode(&self, enc: &mut Enc) {
        self.kind.encode(enc);
        self.scenario.encode(enc);
        enc.put_u32(self.index);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            kind: Codec::decode(dec)?,
            scenario: Codec::decode(dec)?,
            index: dec.u32()?,
        })
    }
}

/// Trial counts for [`CampaignPlan::evaluation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCounts {
    /// Back-to-back pairs per technology (Figs 20–22 + workload).
    pub tests: usize,
    /// Four-service test groups per technology (Figs 23–25).
    pub groups: usize,
    /// Paths per Fig 17 `(bandwidth, algorithm)` cell.
    pub ramp_paths: usize,
    /// Runs per ablation variant.
    pub ablation: usize,
    /// mmWave Swiftest runs (§7).
    pub mmwave: usize,
}

impl EvalCounts {
    /// Paper-scale counts (the `figures` binary's full mode).
    pub fn full() -> Self {
        Self {
            tests: 150,
            groups: 80,
            ramp_paths: 24,
            ablation: 60,
            mmwave: 80,
        }
    }

    /// Smoke-test counts (the `figures` binary's quick mode).
    pub fn quick() -> Self {
        Self {
            tests: 30,
            groups: 30,
            ramp_paths: 6,
            ablation: 25,
            mmwave: 30,
        }
    }

    /// Uniform sizing from one `--trials` knob: `n` per series, except
    /// ramp cells (18 of them; each path simulates up to 12 s of flow
    /// time) which get `n / 6`, floored at 4.
    pub fn uniform(n: usize) -> Self {
        Self {
            tests: n,
            groups: n,
            ramp_paths: (n / 6).max(4),
            ablation: n,
            mmwave: n,
        }
    }
}

/// The scenario tag ramp trials are planned under. Ramp trials draw
/// their own path parameters (they model wired-ish production-server
/// paths, not an access scenario), so this is a fixed convention that
/// keeps all ramp series in one seed stream.
pub const RAMP_SCENARIO: ScenarioId = ScenarioId::Tech(TechClass::Nr);

/// A deduplicated, ordered set of trials to execute.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    campaign_seed: u64,
    specs: Vec<TrialSpec>,
    seen: HashSet<TrialSpec>,
    profile: ProfileDim,
}

impl CampaignPlan {
    /// An empty plan under `campaign_seed` (paper-china profile).
    pub fn new(campaign_seed: u64) -> Self {
        Self {
            campaign_seed,
            specs: Vec::new(),
            seen: HashSet::new(),
            profile: ProfileDim::PAPER_CHINA,
        }
    }

    /// The campaign seed every trial seed derives from.
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// The plan's ecosystem-profile dimension.
    pub fn profile(&self) -> ProfileDim {
        self.profile
    }

    /// Run the plan's trials under a different ecosystem profile. Trial
    /// seeds are unchanged — the same paths are drawn, rescaled — so
    /// per-profile campaigns are CRN-paired (see [`ProfileDim`]).
    pub fn set_profile(&mut self, profile: ProfileDim) {
        self.profile = profile;
    }

    /// The planned trials, in insertion order.
    pub fn specs(&self) -> &[TrialSpec] {
        &self.specs
    }

    /// Number of planned trials.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan holds no trials.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Add one trial; returns `false` (and keeps the plan unchanged)
    /// if an identical spec is already planned.
    pub fn push(&mut self, spec: TrialSpec) -> bool {
        if self.seen.insert(spec) {
            self.specs.push(spec);
            true
        } else {
            false
        }
    }

    /// Add trials `0..n` of one series (deduplicated).
    pub fn push_series(&mut self, kind: TrialKind, scenario: ScenarioId, n: usize) {
        for index in 0..n {
            self.push(TrialSpec {
                kind,
                scenario,
                index: index as u32,
            });
        }
    }

    /// The full evaluation campaign: the union of every trial Figs
    /// 17–26, the ablation tables, and the §7 mmWave report need.
    pub fn evaluation(counts: &EvalCounts, campaign_seed: u64) -> Self {
        let mut plan = Self::new(campaign_seed);
        // Figs 20–22 share one back-to-back series per technology: the
        // BTS-APP reference runs once and feeds duration, data-usage,
        // and deviation figures alike.
        for tech in TechClass::ALL {
            plan.push_series(
                TrialKind::Pair(BtsKind::Swiftest, BtsKind::BtsApp),
                ScenarioId::Tech(tech),
                counts.tests,
            );
        }
        for tech in TechClass::ALL {
            plan.push_series(TrialKind::Group, ScenarioId::Tech(tech), counts.groups);
        }
        for alg in CcAlgorithm::ALL {
            for bin in 0..BANDWIDTH_BINS.len() {
                plan.push_series(
                    TrialKind::Ramp(alg, bin as u8),
                    RAMP_SCENARIO,
                    counts.ramp_paths,
                );
            }
        }
        for variant in VariantId::ALL {
            plan.push_series(
                TrialKind::Variant(variant),
                ScenarioId::Tech(TechClass::Nr),
                counts.ablation,
            );
        }
        plan.push_series(
            TrialKind::Single(BtsKind::Swiftest),
            ScenarioId::Mmwave,
            counts.mmwave,
        );
        plan
    }
}

/// One outcome row of an executed trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Probing time, seconds (for ramp trials: the ramp-up time).
    pub duration_s: f64,
    /// Server-selection (PING) overhead, seconds.
    pub ping_s: f64,
    /// Bytes pulled through the access link.
    pub data_bytes: f64,
    /// Reported bandwidth, Mbps.
    pub estimate_mbps: f64,
    /// The drawn link's nominal capacity, Mbps (for ramp trials: the
    /// bandwidth bin).
    pub truth_mbps: f64,
    /// Whether the run converged (for ramp trials: whether the flow
    /// reached 90% of nominal within the cap).
    pub complete: bool,
}

/// The most outcome rows any [`TrialKind`] produces (a [`TrialKind::
/// Group`]'s four services) — the size of the fixed row buffer each
/// trial writes into instead of allocating a `Vec`.
pub const MAX_TRIAL_ROWS: usize = 4;

/// Trials per pool index in [`run_campaign_metered`].
const CLAIM_BATCH: usize = 4;

impl TrialOutcome {
    /// All-zero placeholder for fixed-size scratch buffers.
    const ZERO: TrialOutcome = TrialOutcome {
        duration_s: 0.0,
        ping_s: 0.0,
        data_bytes: 0.0,
        estimate_mbps: 0.0,
        truth_mbps: 0.0,
        complete: false,
    };

    /// Probing plus selection time — the user-visible test duration.
    pub fn total_s(&self) -> f64 {
        self.duration_s + self.ping_s
    }

    /// Accuracy against a reference estimate: `1 − deviation`.
    pub fn accuracy_vs(&self, reference_mbps: f64) -> f64 {
        1.0 - mbw_stats::descriptive::relative_deviation(self.estimate_mbps, reference_mbps)
    }
}

impl<L> From<&crate::harness::TestOutcome<L>> for TrialOutcome {
    fn from(o: &crate::harness::TestOutcome<L>) -> Self {
        Self {
            duration_s: o.duration.as_secs_f64(),
            ping_s: o.ping_overhead.as_secs_f64(),
            data_bytes: o.data_bytes,
            estimate_mbps: o.estimate_mbps,
            truth_mbps: o.truth_mbps,
            complete: o.status.is_complete(),
        }
    }
}

/// Columnar outcomes of an executed campaign, in plan order.
///
/// Struct-of-arrays: one row per outcome, with `offsets` mapping trial
/// `i` to its row range (`offsets[i]..offsets[i + 1]`). Equality is
/// exact — the determinism tests compare whole pools byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPool {
    campaign_seed: u64,
    specs: Vec<TrialSpec>,
    offsets: Vec<u32>,
    duration_s: Vec<f64>,
    ping_s: Vec<f64>,
    data_bytes: Vec<f64>,
    estimate_mbps: Vec<f64>,
    truth_mbps: Vec<f64>,
    complete: Vec<bool>,
}

impl TrialPool {
    fn with_capacity(campaign_seed: u64, trials: usize, rows: usize) -> Self {
        Self {
            campaign_seed,
            specs: Vec::with_capacity(trials),
            offsets: {
                let mut o = Vec::with_capacity(trials + 1);
                o.push(0);
                o
            },
            duration_s: Vec::with_capacity(rows),
            ping_s: Vec::with_capacity(rows),
            data_bytes: Vec::with_capacity(rows),
            estimate_mbps: Vec::with_capacity(rows),
            truth_mbps: Vec::with_capacity(rows),
            complete: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, spec: TrialSpec, rows: &[TrialOutcome]) {
        self.specs.push(spec);
        for r in rows {
            self.duration_s.push(r.duration_s);
            self.ping_s.push(r.ping_s);
            self.data_bytes.push(r.data_bytes);
            self.estimate_mbps.push(r.estimate_mbps);
            self.truth_mbps.push(r.truth_mbps);
            self.complete.push(r.complete);
        }
        self.offsets.push(self.duration_s.len() as u32);
    }

    /// The campaign seed the pool was executed under.
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// Number of executed trials.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the pool holds no trials.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Total outcome rows across all trials.
    pub fn outcome_rows(&self) -> usize {
        self.duration_s.len()
    }

    /// View of trial `i`.
    pub fn view(&self, i: usize) -> TrialView<'_> {
        assert!(i < self.specs.len(), "trial {i} out of range");
        TrialView {
            pool: self,
            trial: i,
        }
    }

    /// Iterate over all trials in plan order.
    pub fn iter(&self) -> impl Iterator<Item = TrialView<'_>> {
        (0..self.specs.len()).map(move |i| self.view(i))
    }

    /// Concatenate `other`'s trials after this pool's, in order — the
    /// reduce step of a distributed campaign. Because every trial's
    /// outcome is a pure function of `(campaign_seed, spec)`, appending
    /// the pools of a plan's contiguous slices in slice order rebuilds
    /// exactly the pool one [`run_campaign`] over the whole plan
    /// produces. Pools from different campaigns are rejected.
    pub fn append(&mut self, other: TrialPool) -> Result<(), CampaignMismatch> {
        if self.campaign_seed != other.campaign_seed {
            return Err(CampaignMismatch {
                ours: self.campaign_seed,
                theirs: other.campaign_seed,
            });
        }
        let base = self.duration_s.len() as u32;
        self.specs.extend(other.specs);
        self.offsets
            .extend(other.offsets.into_iter().skip(1).map(|o| base + o));
        self.duration_s.extend(other.duration_s);
        self.ping_s.extend(other.ping_s);
        self.data_bytes.extend(other.data_bytes);
        self.estimate_mbps.extend(other.estimate_mbps);
        self.truth_mbps.extend(other.truth_mbps);
        self.complete.extend(other.complete);
        Ok(())
    }
}

/// Two [`TrialPool`]s from different campaigns cannot be concatenated:
/// their trial outcomes were drawn from different seed streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignMismatch {
    /// The receiving pool's campaign seed.
    pub ours: u64,
    /// The appended pool's campaign seed.
    pub theirs: u64,
}

impl std::fmt::Display for CampaignMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign seed mismatch: pool executed under {:#x}, appended pool under {:#x}",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for CampaignMismatch {}

impl Codec for TrialPool {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.campaign_seed);
        self.specs.encode(enc);
        self.offsets.encode(enc);
        self.duration_s.encode(enc);
        self.ping_s.encode(enc);
        self.data_bytes.encode(enc);
        self.estimate_mbps.encode(enc);
        self.truth_mbps.encode(enc);
        self.complete.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let campaign_seed = dec.u64()?;
        let specs: Vec<TrialSpec> = Codec::decode(dec)?;
        let offsets: Vec<u32> = Codec::decode(dec)?;
        let duration_s: Vec<f64> = Codec::decode(dec)?;
        let ping_s: Vec<f64> = Codec::decode(dec)?;
        let data_bytes: Vec<f64> = Codec::decode(dec)?;
        let estimate_mbps: Vec<f64> = Codec::decode(dec)?;
        let truth_mbps: Vec<f64> = Codec::decode(dec)?;
        let complete: Vec<bool> = Codec::decode(dec)?;

        // Structural invariants the columnar views index by: offsets
        // start at 0, advance by exactly each trial's outcome count,
        // and every column covers the same row range.
        if offsets.len() != specs.len() + 1 || offsets.first() != Some(&0) {
            return Err(CodecError::BadLen {
                what: "trial pool offsets",
                len: offsets.len() as u64,
            });
        }
        for (i, spec) in specs.iter().enumerate() {
            let rows = offsets[i + 1].wrapping_sub(offsets[i]);
            if offsets[i + 1] < offsets[i] || rows as usize != spec.kind.outcomes() {
                return Err(CodecError::BadLen {
                    what: "trial outcome rows",
                    len: u64::from(rows),
                });
            }
        }
        let rows = offsets[specs.len()] as usize;
        for len in [
            duration_s.len(),
            ping_s.len(),
            data_bytes.len(),
            estimate_mbps.len(),
            truth_mbps.len(),
            complete.len(),
        ] {
            if len != rows {
                return Err(CodecError::BadLen {
                    what: "trial pool columns",
                    len: len as u64,
                });
            }
        }
        Ok(Self {
            campaign_seed,
            specs,
            offsets,
            duration_s,
            ping_s,
            data_bytes,
            estimate_mbps,
            truth_mbps,
            complete,
        })
    }
}

/// One trial's spec plus its outcome rows, borrowed from the pool.
#[derive(Debug, Clone, Copy)]
pub struct TrialView<'a> {
    pool: &'a TrialPool,
    trial: usize,
}

impl TrialView<'_> {
    /// The trial's spec.
    pub fn spec(&self) -> TrialSpec {
        self.pool.specs[self.trial]
    }

    /// Number of outcome rows.
    pub fn outcomes(&self) -> usize {
        (self.pool.offsets[self.trial + 1] - self.pool.offsets[self.trial]) as usize
    }

    /// Outcome row `k` (0-based within the trial).
    pub fn outcome(&self, k: usize) -> TrialOutcome {
        assert!(k < self.outcomes(), "outcome {k} out of range");
        let at = self.pool.offsets[self.trial] as usize + k;
        TrialOutcome {
            duration_s: self.pool.duration_s[at],
            ping_s: self.pool.ping_s[at],
            data_bytes: self.pool.data_bytes[at],
            estimate_mbps: self.pool.estimate_mbps[at],
            truth_mbps: self.pool.truth_mbps[at],
            complete: self.pool.complete[at],
        }
    }

    /// The only outcome of a single-outcome trial.
    pub fn solo(&self) -> TrialOutcome {
        debug_assert_eq!(self.outcomes(), 1);
        self.outcome(0)
    }
}

/// A figure was asked of a campaign that planned none of its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyCampaign;

impl std::fmt::Display for EmptyCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the campaign planned no trials for this figure")
    }
}

impl std::error::Error for EmptyCampaign {}

/// The Fig 17 x-axis bins (Mbps).
pub const BANDWIDTH_BINS: [f64; 6] = [100.0, 300.0, 500.0, 700.0, 900.0, 1100.0];

/// Cap on one ramp measurement, seconds of simulated flow time.
pub const RAMP_CAP_SECS: f64 = 12.0;

/// The path one ramp trial draws from `seed`: a cellular test link at
/// `mbps` nominal.
fn ramp_path(mbps: f64, seed: u64) -> PathModel {
    let mut rng = SeededRng::new(seed);
    // Cellular-test path: tens-of-ms RTT, spurious loss, radio ramp.
    let rtt = rng.uniform_range(0.025, 0.075);
    // Cellular link-layer retransmission hides most wireless corruption
    // from TCP; the residual spurious-loss rate is tiny but non-zero.
    let loss = 10f64.powf(rng.uniform_range(-6.0, -4.6));
    // The per-UE scheduler grant ramps in rate steps: reaching a 1 Gbps
    // grant takes longer than a 100 Mbps one (CQI/AMC adaptation + BSR
    // ramp), so the ramp duration scales sub-linearly with rate.
    let ramp = rng.uniform_range(0.5, 1.1) * (mbps / 300.0).powf(0.4);
    let capacity = RampUpCapacity::new(ConstantCapacity(mbps * 1e6), ramp, 0.15);
    PathModel::new(PathConfig {
        capacity: capacity.into(),
        base_rtt: Duration::from_secs_f64(rtt),
        loss_prob: loss,
        buffer_bdp: 1.0,
        seed,
    })
}

/// Time for one flow to first reach 90% of nominal on a drawn path;
/// `cap_secs` when it never does within the run (Fig 17's metric). The
/// flow is stepped no further than the round that finishes the crossing
/// sample.
pub fn ramp_time(alg: CcAlgorithm, mbps: f64, seed: u64, cap_secs: f64) -> f64 {
    ramp_time_in(&mut TestScratch::default(), alg, mbps, seed, cap_secs)
}

/// [`ramp_time`] on `scratch`'s simulator.
fn ramp_time_in(
    scratch: &mut TestScratch,
    alg: CcAlgorithm,
    mbps: f64,
    seed: u64,
    cap_secs: f64,
) -> f64 {
    let sim = scratch.sim(
        ramp_path(mbps, seed),
        MultiFlowConfig {
            seed: seed ^ 0xF16,
            ..Default::default()
        },
    );
    sim.add_flow(alg);
    let cap = Duration::from_secs_f64(cap_secs);
    let target = mbps * 1e6 * 0.90;
    while sim.now() < cap {
        sim.step_round();
        while let Some(s) = sim.next_sample() {
            if s.bps >= target {
                return s.at.as_secs_f64();
            }
        }
    }
    cap_secs
}

/// Shared execution context: one immutable harness per scenario, all
/// testing against one pair of server fleets, and each variant's setup,
/// resolved by the first trial that runs it. Used concurrently by every
/// worker.
struct ExecContext {
    harnesses: [TestHarness; 4],
    variants: [OnceLock<VariantSetup>; VariantId::ALL.len()],
}

impl ExecContext {
    fn new(profile: ProfileDim) -> Self {
        let fleets = Fleets::paper();
        Self {
            harnesses: ScenarioId::ALL.map(|id| {
                TestHarness::with_fleets(
                    profile.scale_scenario(id, id.scenario()),
                    Arc::clone(&fleets),
                )
            }),
            variants: Default::default(),
        }
    }

    fn harness(&self, id: ScenarioId) -> &TestHarness {
        &self.harnesses[id.tag() as usize]
    }

    fn variant(&self, id: VariantId) -> &VariantSetup {
        self.variants[id.tag() as usize].get_or_init(|| id.setup())
    }

    /// Execute one trial on `scratch` into a caller-owned row buffer,
    /// returning the number of rows written. The executor's hot path:
    /// each test keeps a [`DecisionRecord`], not a timeline, and no row
    /// is allocated.
    fn execute_into(
        &self,
        scratch: &mut TestScratch,
        spec: &TrialSpec,
        campaign_seed: u64,
        out: &mut [TrialOutcome; MAX_TRIAL_ROWS],
    ) -> usize {
        let seed = spec.seed(campaign_seed);
        match spec.kind {
            TrialKind::Single(kind) => {
                let o = self
                    .harness(spec.scenario)
                    .run_in::<DecisionRecord>(scratch, kind, seed);
                out[0] = (&o).into();
                1
            }
            TrialKind::Pair(a, b) => {
                let pair = self
                    .harness(spec.scenario)
                    .back_to_back_in::<DecisionRecord>(scratch, a, b, seed);
                out[0] = (&pair.first).into();
                out[1] = (&pair.second).into();
                2
            }
            TrialKind::Group => {
                let group = self
                    .harness(spec.scenario)
                    .test_group_in::<DecisionRecord>(scratch, seed);
                for (slot, o) in out.iter_mut().zip(group.outcomes.iter()) {
                    *slot = o.into();
                }
                group.outcomes.len()
            }
            TrialKind::Ramp(alg, bin) => {
                let mbps = BANDWIDTH_BINS[bin as usize];
                let t = ramp_time_in(scratch, alg, mbps, seed, RAMP_CAP_SECS);
                out[0] = TrialOutcome {
                    duration_s: t,
                    ping_s: 0.0,
                    data_bytes: 0.0,
                    estimate_mbps: 0.0,
                    truth_mbps: mbps,
                    complete: t < RAMP_CAP_SECS,
                };
                1
            }
            TrialKind::Variant(variant) => {
                let setup = self.variant(variant);
                let drawn = self.harness(spec.scenario).scenario().draw(seed);
                let est =
                    |b: &mut _| ConvergenceEstimator::new_on(b, setup.window, setup.tolerance, 0);
                // Same draw/run seed split as `TestHarness::run`.
                let r = scratch.lend(est, |_, est| {
                    probe::run_swiftest_logged::<DecisionRecord>(
                        drawn.build(),
                        &setup.model,
                        est,
                        &setup.config,
                        seed ^ 0x51AB,
                    )
                });
                out[0] = TrialOutcome {
                    duration_s: r.duration.as_secs_f64(),
                    ping_s: 0.0,
                    data_bytes: r.data_bytes,
                    estimate_mbps: r.estimate_mbps,
                    truth_mbps: drawn.truth_mbps,
                    complete: r.status.is_complete(),
                };
                1
            }
        }
    }
}

fn execute_one(
    ctx: &ExecContext,
    scratch: &mut TestScratch,
    spec: &TrialSpec,
    campaign_seed: u64,
    metrics: Option<&CampaignMetrics>,
    out: &mut [TrialOutcome; MAX_TRIAL_ROWS],
) -> usize {
    let started = Instant::now();
    let rows = ctx.execute_into(scratch, spec, campaign_seed, out);
    if let Some(m) = metrics {
        m.observe_trial(spec.kind.label(), rows as u64, started.elapsed());
    }
    rows
}

/// Execute the plan on `threads` workers (≤ 1 means serial).
///
/// The pool is byte-identical for any thread count: each trial's seed
/// is a pure function of its spec, and the pool is assembled in plan
/// order regardless of completion order.
pub fn run_campaign(plan: &CampaignPlan, threads: usize) -> TrialPool {
    run_campaign_metered(plan, threads, None)
}

/// [`run_campaign`], reporting per-trial and whole-campaign telemetry.
pub fn run_campaign_metered(
    plan: &CampaignPlan,
    threads: usize,
    metrics: Option<&CampaignMetrics>,
) -> TrialPool {
    let started = Instant::now();
    let tracer = trace::active();
    let mut spans = tracer.local();
    let exec_span = spans.begin();
    let ctx = ExecContext::new(plan.profile());
    let specs = plan.specs();
    let n = specs.len();
    let campaign_seed = plan.campaign_seed();
    let rows_total: usize = specs.iter().map(|s| s.kind.outcomes()).sum();
    let mut trials = TrialPool::with_capacity(campaign_seed, n, rows_total);

    // CLAIM_BATCH trials per pool index: batching cuts cursor traffic
    // (one contended RMW per batch instead of per trial) while staying
    // fine-grained enough that long trials (10 s BTS-APP floods) can't
    // stall a static stripe. A batch's rows are one `Copy` array — no
    // per-trial heap allocation — and the pool hands batches back in plan
    // order, so the result is byte-identical at any thread count. Each
    // worker runs all its trials on one test scratch, which lives no
    // longer than this call.
    let mut pushed = specs.chunks(CLAIM_BATCH);
    pool::for_each_with(
        threads,
        n.div_ceil(CLAIM_BATCH),
        TestScratch::default,
        |scratch, b| {
            let mut batch_spans = trace::active().local();
            let batch_span = batch_spans.begin();
            let start = b * CLAIM_BATCH;
            let batch = &specs[start..n.min(start + CLAIM_BATCH)];
            let mut rows = [(0, [TrialOutcome::ZERO; MAX_TRIAL_ROWS]); CLAIM_BATCH];
            for (spec, (len, out)) in batch.iter().zip(&mut rows) {
                *len = execute_one(&ctx, scratch, spec, campaign_seed, metrics, out);
            }
            if batch_span.id != 0 {
                batch_spans.end_with(
                    batch_span,
                    exec_span.id,
                    "campaign.batch",
                    "campaign",
                    vec![
                        ("start", ArgValue::from(start)),
                        ("trials", ArgValue::from(batch.len())),
                    ],
                );
            }
            rows
        },
        |rows| {
            let batch = pushed.next().expect("one batch per pool index");
            for (spec, (len, out)) in batch.iter().zip(&rows) {
                trials.push(*spec, &out[..*len]);
            }
        },
    );

    if let Some(m) = metrics {
        m.observe_campaign(n as u64, started.elapsed());
    }
    if exec_span.id != 0 {
        spans.end_with(
            exec_span,
            0,
            "campaign.execute",
            "campaign",
            vec![
                ("trials", ArgValue::from(n)),
                ("threads", ArgValue::from(threads)),
            ],
        );
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_congestion::MultiFlowSim;
    use proptest::prelude::*;

    fn tiny_counts() -> EvalCounts {
        EvalCounts {
            tests: 3,
            groups: 2,
            ramp_paths: 2,
            ablation: 2,
            mmwave: 2,
        }
    }

    #[test]
    fn evaluation_plan_has_unique_specs_and_seeds() {
        let plan = CampaignPlan::evaluation(&EvalCounts::quick(), 0xC0FFEE);
        let specs: HashSet<_> = plan.specs().iter().copied().collect();
        assert_eq!(specs.len(), plan.len());
        // Per-series uniqueness is guaranteed by bijectivity; across
        // series a collision would need a 64-bit birthday hit. Ramp
        // trials are excluded: their cells share one stream on purpose
        // (common random numbers across Fig 17 cells).
        let seeds: HashSet<_> = plan
            .specs()
            .iter()
            .filter(|s| !matches!(s.kind, TrialKind::Ramp(..)))
            .map(|s| s.seed(0xC0FFEE))
            .collect();
        let non_ramp = plan
            .specs()
            .iter()
            .filter(|s| !matches!(s.kind, TrialKind::Ramp(..)))
            .count();
        assert_eq!(seeds.len(), non_ramp);
    }

    #[test]
    fn neutral_profile_campaign_is_bit_identical_to_default() {
        let mut plan = CampaignPlan::evaluation(&tiny_counts(), 0x9A9A);
        let default_pool = run_campaign(&plan, 1);
        plan.set_profile(ProfileDim::PAPER_CHINA);
        let neutral_pool = run_campaign(&plan, 1);
        assert_eq!(default_pool.len(), neutral_pool.len());
        for (a, b) in default_pool.iter().zip(neutral_pool.iter()) {
            assert_eq!(a.spec(), b.spec());
            assert_eq!(a.outcomes(), b.outcomes());
            for k in 0..a.outcomes() {
                assert_eq!(a.outcome(k), b.outcome(k));
            }
        }
    }

    #[test]
    fn profiles_are_crn_paired_and_change_outcomes() {
        // Same plan, same trial seeds, different ecosystem: specs line
        // up one-to-one (common random numbers) while the measured
        // estimates shift with the scaled populations.
        let mut plan = CampaignPlan::evaluation(&tiny_counts(), 0x9B9B);
        let china = run_campaign(&plan, 1);
        plan.set_profile(ProfileDim::DEVELOPING_MARKET);
        assert_eq!(plan.profile().name, "developing-market");
        let developing = run_campaign(&plan, 1);

        assert_eq!(china.len(), developing.len());
        let mut shifted = 0usize;
        for (a, b) in china.iter().zip(developing.iter()) {
            assert_eq!(a.spec(), b.spec(), "CRN pairing broke: specs diverge");
            for k in 0..a.outcomes() {
                if a.outcome(k).estimate_mbps != b.outcome(k).estimate_mbps {
                    shifted += 1;
                }
            }
        }
        assert!(shifted > 0, "a 0.35-0.6x ecosystem moved no estimate");

        // The capacity populations themselves scale as configured.
        let id = ScenarioId::Tech(TechClass::Nr);
        let base = id.scenario();
        let scaled = ProfileDim::DEVELOPING_MARKET.scale_scenario(id, id.scenario());
        assert!((scaled.model.mean() / base.model.mean() - 0.35).abs() < 1e-9);
        assert!((scaled.rtt_range.1 / base.rtt_range.1 - 1.80).abs() < 1e-12);
    }

    #[test]
    fn profile_dims_resolve_by_name() {
        for dim in ProfileDim::ALL {
            assert_eq!(ProfileDim::by_name(dim.name), Some(dim));
        }
        assert_eq!(ProfileDim::by_name("atlantis"), None);
        assert!(ProfileDim::PAPER_CHINA.is_neutral());
        assert!(!ProfileDim::EUROPE_RAN.is_neutral());
        assert_eq!(ProfileDim::default(), ProfileDim::PAPER_CHINA);
    }

    #[test]
    fn pushing_a_series_twice_adds_nothing() {
        let mut plan = CampaignPlan::new(1);
        plan.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Lte), 5);
        let before = plan.len();
        plan.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Lte), 5);
        assert_eq!(plan.len(), before);
        // A longer re-push only appends the new tail.
        plan.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Lte), 7);
        assert_eq!(plan.len(), 7);
    }

    #[test]
    fn ramp_cells_share_their_seed_stream() {
        // Common random numbers across Fig 17 cells: same index, same
        // seed, whatever the (algorithm, bin).
        let a = TrialSpec {
            kind: TrialKind::Ramp(CcAlgorithm::Cubic, 0),
            scenario: RAMP_SCENARIO,
            index: 7,
        };
        let b = TrialSpec {
            kind: TrialKind::Ramp(CcAlgorithm::Bbr, 5),
            scenario: RAMP_SCENARIO,
            index: 7,
        };
        assert_eq!(a.seed(99), b.seed(99));
        assert_ne!(a.seed(99), a.seed(100));
    }

    #[test]
    fn trial_outcome_is_independent_of_plan_composition() {
        // The same spec must produce the same rows whether it runs in a
        // solo plan or inside the full evaluation union — the property
        // that makes fused and per-figure reductions agree.
        let seed = 0x5EED;
        let mut solo = CampaignPlan::new(seed);
        solo.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Wifi), 2);
        let solo_pool = run_campaign(&solo, 1);

        let union = CampaignPlan::evaluation(&tiny_counts(), seed);
        let union_pool = run_campaign(&union, 1);

        let spec = solo.specs()[1];
        let in_union = union_pool
            .iter()
            .find(|v| v.spec() == spec)
            .expect("union plan contains the group trial");
        let in_solo = solo_pool.view(1);
        assert_eq!(in_solo.outcomes(), in_union.outcomes());
        for k in 0..in_solo.outcomes() {
            assert_eq!(in_solo.outcome(k), in_union.outcome(k));
        }
    }

    #[test]
    fn pool_is_identical_for_any_thread_count() {
        let plan = CampaignPlan::evaluation(&tiny_counts(), 0xD0);
        let serial = run_campaign(&plan, 1);
        assert_eq!(serial.len(), plan.len());
        for threads in [2, 8] {
            let parallel = run_campaign(&plan, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn campaign_batches_are_traced_across_workers() {
        use mbw_telemetry::{Tracer, WallClock};
        use std::sync::Arc;

        let plan = CampaignPlan::evaluation(&tiny_counts(), 0xCA);
        let tracer = Tracer::new(Arc::new(WallClock::new()), 0xCA);
        let traced = trace::scope(&tracer, || run_campaign(&plan, 4));
        assert_eq!(traced, run_campaign(&plan, 4), "tracing changed the pool");

        let spans = tracer.spans();
        let exec: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "campaign.execute")
            .collect();
        assert_eq!(exec.len(), 1);
        let batches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "campaign.batch")
            .collect();
        assert_eq!(batches.len(), plan.len().div_ceil(CLAIM_BATCH));
        let mut covered: usize = 0;
        for b in &batches {
            assert_eq!(b.parent, exec[0].id, "batch not parented to execute");
            let trials = b
                .args
                .iter()
                .find(|(k, _)| *k == "trials")
                .map(|(_, v)| match v {
                    ArgValue::U64(n) => *n as usize,
                    _ => 0,
                })
                .unwrap();
            covered += trials;
        }
        assert_eq!(covered, plan.len(), "batch spans cover every trial");
    }

    #[test]
    fn group_trials_produce_four_rows_pairs_two() {
        let mut plan = CampaignPlan::new(3);
        plan.push(TrialSpec {
            kind: TrialKind::Group,
            scenario: ScenarioId::Tech(TechClass::Lte),
            index: 0,
        });
        plan.push(TrialSpec {
            kind: TrialKind::Pair(BtsKind::Swiftest, BtsKind::BtsApp),
            scenario: ScenarioId::Tech(TechClass::Lte),
            index: 0,
        });
        let pool = run_campaign(&plan, 1);
        assert_eq!(pool.view(0).outcomes(), 4);
        assert_eq!(pool.view(1).outcomes(), 2);
        assert_eq!(pool.outcome_rows(), 6);
        // The pair's rows land in argument order: Swiftest converges in
        // about a second; BTS-APP floods for ten.
        let swift = pool.view(1).outcome(0);
        let bts = pool.view(1).outcome(1);
        assert!(swift.duration_s < 5.0, "{}", swift.duration_s);
        assert!(bts.duration_s > 9.0, "{}", bts.duration_s);
    }

    #[test]
    fn variant_trials_run_the_ablation_configs() {
        let mut plan = CampaignPlan::new(0xAB);
        for v in VariantId::ALL {
            plan.push_series(TrialKind::Variant(v), ScenarioId::Tech(TechClass::Nr), 1);
        }
        let pool = run_campaign(&plan, 1);
        for view in pool.iter() {
            let o = view.solo();
            assert!(o.estimate_mbps > 0.0, "{:?}", view.spec());
            assert!(o.truth_mbps > 0.0);
            assert_eq!(o.ping_s, 0.0);
        }
    }

    #[test]
    fn ramp_trials_report_bin_and_cap() {
        let mut plan = CampaignPlan::new(0x17);
        plan.push_series(TrialKind::Ramp(CcAlgorithm::Cubic, 3), RAMP_SCENARIO, 2);
        let pool = run_campaign(&plan, 1);
        for view in pool.iter() {
            let o = view.solo();
            assert_eq!(o.truth_mbps, BANDWIDTH_BINS[3]);
            assert!(o.duration_s > 0.0 && o.duration_s <= RAMP_CAP_SECS);
        }
    }

    #[test]
    fn ramp_time_stops_where_the_full_run_first_crosses() {
        let mut capped = 0;
        for alg in CcAlgorithm::ALL {
            for mbps in BANDWIDTH_BINS {
                for seed in 0..20u64 {
                    let mut sim = MultiFlowSim::new(
                        ramp_path(mbps, seed),
                        MultiFlowConfig {
                            seed: seed ^ 0xF16,
                            ..Default::default()
                        },
                    );
                    sim.add_flow(alg);
                    sim.run_until(Duration::from_secs_f64(RAMP_CAP_SECS));
                    let full = sim
                        .samples()
                        .iter()
                        .find(|s| s.bps >= mbps * 1e6 * 0.90)
                        .map_or(RAMP_CAP_SECS, |s| s.at.as_secs_f64());
                    let early = ramp_time(alg, mbps, seed, RAMP_CAP_SECS);
                    assert_eq!(early.to_bits(), full.to_bits(), "{alg} {mbps} seed {seed}");
                    capped += usize::from(early == RAMP_CAP_SECS);
                }
            }
        }
        assert!(capped > 0, "no cell reached the cap");
    }

    #[test]
    fn metered_run_counts_trials_and_rows() {
        let registry = mbw_telemetry::Registry::new();
        let metrics = CampaignMetrics::register(&registry);
        let plan = CampaignPlan::evaluation(&tiny_counts(), 0x7E1);
        let pool = run_campaign_metered(&plan, 2, Some(&metrics));
        assert_eq!(metrics.trials_total(), plan.len() as u64);
        assert_eq!(metrics.outcomes_total(), pool.outcome_rows() as u64);
        let text = registry.render_prometheus();
        assert!(text.contains("campaign_trials_per_second"), "{text}");
    }

    #[test]
    fn empty_campaign_renders_a_message() {
        let text = EmptyCampaign.to_string();
        assert!(text.contains("no trials"));
    }

    #[test]
    fn sliced_sub_plans_append_to_the_full_pool() {
        // The distributed executor's core property: running contiguous
        // slices of a plan as independent sub-campaigns and appending
        // the pools in slice order equals one whole-plan run exactly
        // (structural seeds make outcomes position-independent).
        let plan = CampaignPlan::evaluation(&tiny_counts(), 0xFA57);
        let full = run_campaign(&plan, 2);
        for parts in [2usize, 3] {
            let mut merged: Option<TrialPool> = None;
            let per = plan.len().div_ceil(parts);
            for chunk in plan.specs().chunks(per) {
                let mut sub = CampaignPlan::new(plan.campaign_seed());
                for &spec in chunk {
                    assert!(sub.push(spec));
                }
                let pool = run_campaign(&sub, 2);
                merged = Some(match merged {
                    None => pool,
                    Some(mut m) => {
                        m.append(pool).expect("same campaign");
                        m
                    }
                });
            }
            assert_eq!(merged.unwrap(), full, "{parts}-way split diverged");
        }
    }

    #[test]
    fn append_rejects_a_foreign_campaign() {
        let mut plan = CampaignPlan::new(1);
        plan.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Lte), 1);
        let mut a = run_campaign(&plan, 1);
        let mut other = CampaignPlan::new(2);
        other.push_series(TrialKind::Group, ScenarioId::Tech(TechClass::Lte), 1);
        let b = run_campaign(&other, 1);
        let err = a.append(b).expect_err("different campaign seeds");
        assert_eq!(err, CampaignMismatch { ours: 1, theirs: 2 });
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn pool_codec_roundtrips_exactly() {
        let plan = CampaignPlan::evaluation(&tiny_counts(), 0x0EC0);
        let pool = run_campaign(&plan, 1);
        let bytes = pool.to_bytes();
        let back = TrialPool::from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(back, pool);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn pool_decode_rejects_inconsistent_offsets() {
        // Offsets claiming rows that the columns do not hold.
        let mut enc = Enc::new();
        enc.put_u64(7);
        vec![TrialSpec {
            kind: TrialKind::Group,
            scenario: ScenarioId::Mmwave,
            index: 0,
        }]
        .encode(&mut enc);
        vec![0u32, 4].encode(&mut enc);
        for _ in 0..5 {
            Vec::<f64>::new().encode(&mut enc);
        }
        Vec::<bool>::new().encode(&mut enc);
        let err = TrialPool::from_bytes(&enc.into_bytes()).expect_err("columns too short");
        assert!(matches!(
            err,
            CodecError::BadLen {
                what: "trial pool columns",
                ..
            }
        ));

        // Offsets whose step disagrees with the trial kind.
        let mut enc = Enc::new();
        enc.put_u64(7);
        vec![TrialSpec {
            kind: TrialKind::Group,
            scenario: ScenarioId::Mmwave,
            index: 0,
        }]
        .encode(&mut enc);
        vec![0u32, 1].encode(&mut enc);
        for _ in 0..5 {
            vec![0.0f64].encode(&mut enc);
        }
        vec![true].encode(&mut enc);
        let err = TrialPool::from_bytes(&enc.into_bytes()).expect_err("group needs 4 rows");
        assert!(matches!(
            err,
            CodecError::BadLen {
                what: "trial outcome rows",
                ..
            }
        ));
    }

    #[test]
    fn spec_codec_roundtrips_every_kind() {
        let plan = CampaignPlan::evaluation(&EvalCounts::quick(), 3);
        for &spec in plan.specs() {
            let bytes = spec.to_bytes();
            assert_eq!(TrialSpec::from_bytes(&bytes).unwrap(), spec);
        }
    }

    /// Any trial kind, every service, algorithm, bin and variant.
    fn any_kind() -> impl Strategy<Value = TrialKind> {
        let bts = || (0..BtsKind::ALL.len()).prop_map(|i| BtsKind::ALL[i]);
        prop_oneof![
            bts().prop_map(TrialKind::Single),
            (bts(), bts()).prop_map(|(a, b)| TrialKind::Pair(a, b)),
            Just(TrialKind::Group),
            (0..CcAlgorithm::ALL.len(), 0..BANDWIDTH_BINS.len())
                .prop_map(|(a, bin)| TrialKind::Ramp(CcAlgorithm::ALL[a], bin as u8)),
            (0..VariantId::ALL.len()).prop_map(|v| TrialKind::Variant(VariantId::ALL[v])),
        ]
    }

    fn any_spec() -> impl Strategy<Value = TrialSpec> {
        (any_kind(), 0..ScenarioId::ALL.len(), 0u32..10_000).prop_map(|(kind, s, index)| {
            TrialSpec {
                kind,
                scenario: ScenarioId::ALL[s],
                index,
            }
        })
    }

    /// The bits of one trial's rows.
    fn rows_bits(rows: &[TrialOutcome]) -> Vec<[u64; 6]> {
        rows.iter()
            .map(|o| {
                [
                    o.duration_s.to_bits(),
                    o.ping_s.to_bits(),
                    o.data_bytes.to_bits(),
                    o.estimate_mbps.to_bits(),
                    o.truth_mbps.to_bits(),
                    u64::from(o.complete),
                ]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Nothing one trial leaves in a worker's scratch reaches the
        /// next: trial `b` after trial `a` on one scratch gives the rows
        /// `b` gives on a fresh one, bit for bit.
        #[test]
        fn a_trial_on_a_used_scratch_runs_as_on_a_fresh_one(
            a in any_spec(),
            b in any_spec(),
            campaign_seed in any::<u64>(),
        ) {
            let ctx = ExecContext::new(ProfileDim::PAPER_CHINA);
            let run = |scratch: &mut TestScratch, spec: &TrialSpec| {
                let mut out = [TrialOutcome::ZERO; MAX_TRIAL_ROWS];
                let rows = ctx.execute_into(scratch, spec, campaign_seed, &mut out);
                rows_bits(&out[..rows])
            };
            let mut used = TestScratch::default();
            run(&mut used, &a);
            prop_assert_eq!(
                run(&mut used, &b),
                run(&mut TestScratch::default(), &b),
                "{:?} after {:?}",
                b,
                a
            );
        }

        #[test]
        fn distinct_indices_never_collide(
            campaign in any::<u64>(),
            series in any::<u64>(),
            a in any::<u32>(),
            b in any::<u32>(),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(
                trial_seed(campaign, series, u64::from(a)),
                trial_seed(campaign, series, u64::from(b))
            );
        }

        #[test]
        fn trial_seed_depends_on_every_component(
            campaign in any::<u64>(),
            series in any::<u64>(),
            index in any::<u32>(),
        ) {
            let base = trial_seed(campaign, series, u64::from(index));
            prop_assert_ne!(base, trial_seed(campaign ^ 1, series, u64::from(index)));
            prop_assert_ne!(base, trial_seed(campaign, series ^ 1, u64::from(index)));
        }

        #[test]
        fn pool_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = TrialPool::from_bytes(&bytes);
        }
    }
}
